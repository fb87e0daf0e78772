"""Span and count tracing from outside the library, by patching names where they are looked up.

Each patched callable is replaced by a wrapper that keeps a stack of open
calls, so every call's self time (its duration minus the time spent in
wrapped callees) is charged to the library module it belongs to.  Calls
marked as spans also append a record [name, start_ns, end_ns, parent, root,
self_ns] to an in-memory list, written out once at the end; parent and root
are span indices (-1 for none), and root identifies the top-level call a
span serves.  Very frequent calls are counted and timed but leave no span.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

# (namespace the caller looks the name up in, attribute, label, library module, span?)
SPAN, COUNT = True, False
PATCHES = [
    ("kramers_spde", "predict_time", "predict_time", "kramers", SPAN),
    ("kramers_spde", "run_replicas", "run_replicas", "simulate", SPAN),
    ("kramers_spde.kramers", "instanton", "instanton", "stationary", SPAN),
    ("kramers_spde.kramers", "eigs_profile", "eigs_profile", "spectra", SPAN),
    ("kramers_spde.kramers", "lambda_ratio_product_infinite", "lambda_ratio_product_infinite",
     "spectra", SPAN),
    ("kramers_spde.kramers", "lambda_ratio_log_sum", "lambda_ratio_log_sum", "spectra", SPAN),
    ("kramers_spde.kramers", "psi", "psi", "specialfn", SPAN),
    ("kramers_spde.kramers", "theta", "theta", "specialfn", SPAN),
    ("kramers_spde.stationary", "period_T", "period_T", "stationary", SPAN),
    ("kramers_spde.stationary", "dT_dE", "dT_dE", "stationary", SPAN),
    ("kramers_spde.stationary", "turning_points", "turning_points", "stationary", SPAN),
    ("kramers_spde.potential.LocalPotential", "derivative", "derivative", "potential", COUNT),
    ("kramers_spde.spectral.TransformPlan", "synthesize", "synthesize", "spectral", COUNT),
    ("kramers_spde.spectral.TransformPlan", "analyze", "analyze", "spectral", COUNT),
    ("kramers_spde.spectral.TransformPlan", "endpoint_values", "endpoint_values", "spectral",
     COUNT),
]
MODULES = ("potential", "spectral", "stationary", "spectra", "specialfn", "kramers",
           "simulate", "cli")


def _resolve(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.self_ns: Counter = Counter()
        self._stack: list[list] = []   # [span index or inherited parent, start, child_ns, root]
        self._saved: list[tuple] = []

    def _wrap(self, fn, label: str, module: str, span: bool):
        spans, counts, self_ns, stack = self.spans, self.counts, self.self_ns, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent, root = (stack[-1][0], stack[-1][3]) if stack else (-1, -1)
            if span:
                idx = len(spans)
                spans.append([label, 0, 0, parent, root if root >= 0 else idx, 0])
                frame = [idx, clock(), 0, root if root >= 0 else idx]
            else:
                frame = [parent, clock(), 0, root]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                own = dur - frame[2]
                self_ns[module] += own
                counts[label] += 1
                if stack:
                    stack[-1][2] += dur
                if span:
                    rec = spans[frame[0]]
                    rec[1], rec[2], rec[5] = frame[1], end, own

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for path, attr, label, module, span in PATCHES:
            owner = _resolve(path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, label, module, span))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def span_self_ns(self, label: str) -> list[int]:
        return [s[5] for s in self.spans if s[0] == label]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "root", "self_ns"],
                       "spans": self.spans, "counts": dict(self.counts),
                       "self_ns": dict(self.self_ns)}, fh)
