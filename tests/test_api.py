import kramers_spde

# the package's public names, the submodules it imports included; a change
# to the API shows here as a deliberate diff
PUBLIC = [
    "AllCensored", "AssumptionReport", "BoundaryCondition", "DomainError", "EnergyOutOfRange",
    "FourierState", "GalerkinErrorTable", "GridTooSmall", "InstantonProfile",
    "InvalidPotential", "KramersPrediction", "KramersSpdeError", "LocalPotential", "NEUMANN",
    "NoInstanton", "NonFinite", "NotMonotone", "OutOfRegime", "PERIODIC",
    "QuadratureNotConverged", "RegimeTag", "ResolutionTooLow", "SimConfig", "SpectrumReport",
    "TransformPlan", "TransitionSample", "TransitionStats", "UnsupportedRegime",
    "WrongBoundaryCondition", "ZeroDenominator", "barrier_height", "c4", "check_assumptions",
    "closed_form_product", "dT_dE", "det_ratio", "eigs_constant", "eigs_profile", "energy_V",
    "erfcx", "errors", "from_grid", "galerkin_error", "grad_V", "instanton", "kramers",
    "mc_stats", "oracle_identity_1d", "oracle_mfpt_1d", "period_T", "potential",
    "predict_time", "psi", "quartic", "reduced_potential_1d", "remainder_scale",
    "run_replicas", "saddle_length", "sample_path", "sample_transition", "simulate",
    "specialfn", "spectra", "spectral", "stationary", "step", "sup_dist", "theta", "to_grid",
    "turning_points",
]


def test_public_api_is_pinned():
    assert sorted(kramers_spde.__all__) == PUBLIC
