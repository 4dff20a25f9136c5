"""Per-layer spans recorded from outside the program.

`install` replaces the public functions of each `emcavity` module with
timing wrappers: the module attribute itself (so intra-module calls such
as `sweep -> evaluate_point -> stability`, which resolve through module
globals, are caught) and every other module global bound to the same
function (so `emcavity.cli`'s import-time names such as `_sweep` or
`fit_reflection` are caught too).  A span's self time is its duration
minus the durations of its direct children.  Spans stay in memory and are
written once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# layer -> public functions wrapped; `core` holds scalar closed forms that
# take well under 1 % of any workload and is left out
TRACED = {
    "config": ["load_config"],
    "tripartite": [
        "sweep", "evaluate_point", "stability", "scattering", "output_covariance",
        "symplectic_eigenvalue_min", "log_negativity", "critical_coupling",
    ],
    "fitting": [
        "initial_guess", "fit_reflection", "fit_omit", "reflection_model", "omit_model",
        "load_trace", "save_trace", "synthesize_trace",
    ],
    "linear_response": ["spectrum"],
    "device": [
        "load_volume_csv", "load_surface_csv", "effective_mass", "capacitance_from_energy",
        "coupling_rate_moving_boundary",
    ],
}

# rows parsed, counted at the loader boundary
_ROW_COUNTERS = {
    "device.load_volume_csv": lambda v: len(v.weight),
    "device.load_surface_csv": lambda s: len(s.area),
}


class Tracer:
    """Span recorder with per-name call counts and self time."""

    def __init__(self, max_spans: int):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []  # (id, parent, request, name, start, end)
        self.max_spans = max_spans
        self.request = -1
        self._stack = []  # [span id, time covered by children]
        self._next_id = 0

    def enter(self):
        self._next_id += 1
        self._stack.append([self._next_id, 0.0])
        return perf_counter()

    def leave(self, name: str, start: float):
        end = perf_counter()
        span_id, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else 0
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, parent, self.request, name, start, end))

    def wrap(self, name: str, fn):
        count = _ROW_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(name, start)
            if count is not None:
                self.counters["rows_parsed"] += count(result)
            return result

        return traced

    def write(self, path):
        """One JSON array per span: id, parent id, request, name, start, end
        (seconds, relative to the first span)."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, parent, req, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, req, name, start - t0, end - t0]) + "\n")


def install(tracer: Tracer):
    """Wrap the traced functions; returns a function that undoes it."""
    package = {
        name: mod for name, mod in sys.modules.items()
        if name.startswith("emcavity.") and mod is not None
    }
    wrappers = {}  # id(original) -> wrapper
    for layer, names in TRACED.items():
        mod = package[f"emcavity.{layer}"]
        for name in names:
            fn = getattr(mod, name)
            wrappers[id(fn)] = tracer.wrap(f"{layer}.{name}", fn)
    undo = []
    for mod in package.values():
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, value))

    def uninstall():
        for mod, attr, value in undo:
            setattr(mod, attr, value)

    return uninstall
