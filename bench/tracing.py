"""Spans around every public qdho function, recorded from outside the package.

``Tracer.install`` wraps each public function of each qdho module and puts
the wrapper in place of the original on every module that holds the
original under some name (``cli``, ``propagator`` and ``liouville`` each
import ``validate_density`` by name, so patching ``fock`` alone would miss
them). A span is (name, start, end, parent, operation, counter). Spans are
kept in memory; ``write`` puts them out as JSON lines when a pass ends.

A span's self time is its duration minus the durations of its direct
children. Self times are summed into layer groups; a group's call count is
the number of its spans whose parent lies outside the group, i.e. the
calls made into the group from elsewhere.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("config", "fock", "su11", "propagator", "liouville", "observables",
          "classical", "verification", "cli")

#: Layer groups named in the benchmark's per-layer metrics. Every other
#: public function falls into "<module>.other".
GROUPS = {
    "observables.hermitian_eigenvalues": "observables.eig",
    "fock.validate_density": "fock.validate",
    "fock.fock_state": "fock.state",
    "fock.coherent_state": "fock.state",
    "fock.thermal_state": "fock.state",
    "fock.mixture_state": "fock.state",
    "fock.build_operators": "fock.operators",
    "config.load_run_config": "config.load",
    "config.load_classical_config": "config.load",
    "propagator.evolve_analytic": "propagator.evolve",
    "propagator.evolve_lindblad_only": "propagator.evolve",
    "propagator.evolve_nu_zero": "propagator.evolve",
    "propagator.make_plan": "propagator.evolve",
    "propagator.doubled_truncation_distance": "propagator.certify",
    "su11.disentangling_coefficients": "su11.coeffs",
    "liouville.build_liouvillian": "liouville.build",
    "liouville.k_superoperators": "liouville.build",
    "liouville.expm": "liouville.expm",
    "liouville.evolve_numeric_expm": "liouville.apply",
    "liouville.vectorize": "liouville.apply",
    "liouville.devectorize": "liouville.apply",
    "liouville.evolve_numeric_rk4": "liouville.rk4",
    "classical.evolve_classical_rk4": "classical.rk4",
    "classical.stability_steps": "classical.rk4",
    "classical.system_matrix": "classical.rk4",
    "classical.evolve_classical_analytic": "classical.analytic",
    "classical.evolution_matrix": "classical.analytic",
}


def _steps(args, kwargs, result):
    return kwargs["steps"] if "steps" in kwargs else args[3]


#: Counts read at the span boundary: (counter name, reader of args/result).
COUNTERS = {
    "observables.hermitian_eigenvalues": ("rotations", lambda a, k, r: r.iterations),
    "su11.disentangling_coefficients": ("degenerate", lambda a, k, r: int(r.degenerate_branch)),
    "liouville.evolve_numeric_rk4": ("steps", _steps),
    "classical.evolve_classical_rk4": ("steps", _steps),
}


#: Modules whose public functions all form one group.
MODULE_GROUPS = {"cli": "cli", "verification": "verification.suites"}


def group_of(name: str) -> str:
    module = name.split(".", 1)[0]
    return GROUPS.get(name) or MODULE_GROUPS.get(module) or f"{module}.other"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.operation = ""

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter = COUNTERS.get(name, (None, None))[1]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1, tracer.operation, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    record[5] = counter(args, kwargs, result)
                return result
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace every public qdho function, wherever it is bound, by its traced wrapper."""
        modules = [importlib.import_module(f"qdho.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for module in modules + [importlib.import_module("qdho")]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    def write(self, path: str) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op", "count")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Seconds each span spent outside its direct children."""
    own = [(s[2] - s[1]) for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return [ns * 1e-9 for ns in own]


def layer_metrics(spans: list[list], cache_info) -> dict[str, float]:
    """Per-layer counts and self times of one pass."""
    own = self_times(spans)
    groups = [group_of(s[0]) for s in spans]
    by_group: dict[str, float] = {}
    by_module: dict[str, float] = {}
    for i, s in enumerate(spans):
        group = groups[i]
        counts = [(f"{group}.self_s", own[i])]
        if s[3] < 0 or groups[s[3]] != group:
            counts.append((f"{group}.calls", 1))
        if s[5] is not None:
            counts.append((f"{group}.{COUNTERS[s[0]][0]}", s[5]))
        for key, value in counts:
            by_group[key] = by_group.get(key, 0) + value
        module = f"{s[0].split('.', 1)[0]}.self_s"
        by_module[module] = by_module.get(module, 0.0) + own[i]
    totals = {**by_group, **by_module}
    m = {name: totals.get(name, 0) for name in PER_LAYER_UNITS}
    m["liouville.cache.hits"] = cache_info.hits
    m["liouville.cache.misses"] = cache_info.misses
    lsteps, csteps = m["liouville.rk4.steps"], m["classical.rk4.steps"]
    m["liouville.rk4.us_per_step"] = m["liouville.rk4.self_s"] / lsteps * 1e6 if lsteps else 0.0
    m["classical.rk4.ns_per_step"] = m["classical.rk4.self_s"] / csteps * 1e9 if csteps else 0.0
    m["trace.spans"] = len(spans)
    return m


#: Units of the per-layer metrics, in the order they are reported.
PER_LAYER_UNITS = {
    "observables.eig.calls": "count",
    "observables.eig.self_s": "s",
    "observables.eig.rotations": "count",
    "fock.validate.calls": "count",
    "fock.validate.self_s": "s",
    "fock.state.self_s": "s",
    "fock.operators.calls": "count",
    "fock.operators.self_s": "s",
    "config.load.calls": "count",
    "config.load.self_s": "s",
    "propagator.evolve.calls": "count",
    "propagator.evolve.self_s": "s",
    "propagator.certify.calls": "count",
    "propagator.certify.self_s": "s",
    "su11.coeffs.calls": "count",
    "su11.coeffs.self_s": "s",
    "su11.coeffs.degenerate": "count",
    "liouville.build.calls": "count",
    "liouville.build.self_s": "s",
    "liouville.expm.calls": "count",
    "liouville.expm.self_s": "s",
    "liouville.apply.self_s": "s",
    "liouville.cache.hits": "count",
    "liouville.cache.misses": "count",
    "liouville.rk4.calls": "count",
    "liouville.rk4.steps": "count",
    "liouville.rk4.self_s": "s",
    "liouville.rk4.us_per_step": "us",
    "classical.rk4.calls": "count",
    "classical.rk4.steps": "count",
    "classical.rk4.self_s": "s",
    "classical.rk4.ns_per_step": "ns",
    "classical.analytic.self_s": "s",
    "verification.suites.self_s": "s",
    # Module totals; verification's equals verification.suites.self_s above.
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer != "verification"},
    "trace.spans": "count",
    "trace.wall_s": "s",
}
