import numpy as np
import pytest

from kramers_spde import kramers, quartic, stationary


@pytest.fixture(scope="session")
def pot():
    return quartic()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(autouse=True)
def cold_caches():
    # the solve caches outlive monkeypatch: a stubbed period_T would leave
    # its bracket periods behind, so every test starts and ends cold
    kramers._mu_spectrum.cache_clear()
    stationary._bracket_period.cache_clear()
    yield
    kramers._mu_spectrum.cache_clear()
    stationary._bracket_period.cache_clear()
