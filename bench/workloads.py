"""The benchmark's four workloads: CLI invocations on configs made from a seed.

Every workload is a fixed list of operations. An operation is one `qdho`
verb on one config; the seed only sets properties that leave the amount of
work unchanged (the phase of a coherent amplitude, the operator phase
theta, mixture weights over fixed levels, the phase-space angle of a
classical start point). The same seed always gives the same configs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("evolve_coherent", "evolve_diagonal", "oracle_check", "classical_trajectory")
DEFAULT_SEED = 1

#: Sample-config physics: damped oscillator with weak pumping.
_OMEGA = 2.0 * math.pi
_MU = 1.0
_NU = 0.4


@dataclass(frozen=True)
class Op:
    """One CLI invocation: verb, model inputs (written out as INI) and flags.

    ``spec`` holds the inputs the checks need to compute expected outputs on
    their own: rates, initial-state description, grid and tolerances.
    """

    name: str
    verb: str
    spec: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def argv(self, config_path: str | None) -> list[str]:
        args = [self.verb]
        if config_path is not None:
            args += ["--config", config_path]
        return args + list(self.flags)

    @property
    def has_config(self) -> bool:
        return self.verb != "verify"


def _phase(rng: random.Random) -> float:
    return rng.uniform(0.0, 2.0 * math.pi)


def _weights(rng: random.Random, count: int) -> list[float]:
    raw = [rng.uniform(0.5, 1.5) for _ in range(count)]
    total = sum(raw)
    weights = [w / total for w in raw[:-1]]
    # The last weight closes the sum so the parsed values add up to 1.
    weights.append(1.0 - sum(weights))
    return weights


def quantum_op(name, verb, *, dim, support_max, state, t_end, num_points, rng,
               omega=_OMEGA, mu=_MU, nu=_NU, flags=()):
    spec = {
        "omega": omega,
        "mu": mu,
        "nu": nu,
        "theta": _phase(rng),
        "state": state,
        "support_max": support_max,
        "guard": dim - support_max - 1,
        "dim": dim,
        "t_start": 0.0,
        "t_end": t_end,
        "num_points": num_points,
        "photon_levels": 4,
        "trace_tol": 1e-8,
        "positivity_tol": 1e-9,
        "steady_tol": 1e-4,
    }
    return Op(name=name, verb=verb, spec=spec, flags=tuple(flags))


def _coherent(rng: random.Random, modulus: float) -> dict:
    phi = _phase(rng)
    return {"kind": "coherent", "re": modulus * math.cos(phi), "im": modulus * math.sin(phi),
            "modulus": modulus}


def _mixture(rng: random.Random, levels: tuple[int, ...]) -> dict:
    return {"kind": "mixture", "terms": list(zip(levels, _weights(rng, len(levels))))}


def classical_op(name, rng, *, omega, gamma, t_end, num_points):
    angle = _phase(rng)
    spec = {
        "omega": omega,
        "gamma": gamma,
        # Start points on one energy ellipse: the same work at every angle.
        "x0": math.cos(angle),
        "y0": omega * math.sin(angle),
        "t_start": 0.0,
        "t_end": t_end,
        "num_points": num_points,
    }
    return Op(name=name, verb="classical", spec=spec)


def build(workload: str, seed: int) -> list[Op]:
    """The operations of ``workload`` for ``seed``, in run order."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "evolve_coherent":
        return [
            quantum_op("coherent_d24", "evolve", dim=24, support_max=9,
                       state=_coherent(rng, 1.0), t_end=3.0, num_points=101, rng=rng),
            quantum_op("coherent_d48_certified", "evolve", dim=48, support_max=19,
                       state=_coherent(rng, 2.0), t_end=3.0, num_points=11, rng=rng,
                       flags=("--check-truncation",)),
        ]
    if workload == "evolve_diagonal":
        return [
            quantum_op("mixture_d64_certified", "evolve", dim=64, support_max=15,
                       state=_mixture(rng, (0, 3, 7, 12)), t_end=3.0, num_points=11,
                       rng=rng, flags=("--check-truncation",)),
            quantum_op("mixture_d96_certified", "evolve", dim=96, support_max=23,
                       state=_mixture(rng, (1, 6, 14, 20)), t_end=3.0, num_points=11,
                       rng=rng, flags=("--check-truncation",)),
            quantum_op("steady_d32", "steady", dim=32, support_max=0,
                       state={"kind": "fock", "n": 0}, t_end=0.0, num_points=1,
                       rng=rng, nu=0.3),
        ]
    if workload == "oracle_check":
        return [
            quantum_op("compare_coherent_d24", "compare", dim=24, support_max=9,
                       state=_coherent(rng, 1.0), t_end=3.0, num_points=7, rng=rng),
            quantum_op("compare_balanced_d24", "compare", dim=24, support_max=9,
                       state=_mixture(rng, (0, 1, 2)), t_end=1.0, num_points=7, rng=rng,
                       omega=1.0, mu=0.5, nu=0.5),
            Op(name="verify", verb="verify"),
        ]
    if workload == "classical_trajectory":
        return [
            classical_op("underdamped", rng, omega=2.0 * math.pi, gamma=0.1,
                         t_end=300.0, num_points=3001),
            classical_op("critical", rng, omega=1.0, gamma=1.0, t_end=40.0, num_points=401),
            classical_op("overdamped", rng, omega=1.0, gamma=5.0, t_end=360.0, num_points=3601),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")


def config_text(op: Op) -> str:
    """The INI file the CLI reads for ``op``."""
    s = op.spec
    grid = (f"[grid]\nt_start = {s['t_start']!r}\nt_end = {s['t_end']!r}\n"
            f"num_points = {s['num_points']}\n")
    if op.verb == "classical":
        return (f"[classical]\nomega = {s['omega']!r}\ngamma = {s['gamma']!r}\n"
                f"x0 = {s['x0']!r}\ny0 = {s['y0']!r}\n\n" + grid)
    state = s["state"]
    if state["kind"] == "coherent":
        state_lines = f"kind = coherent\nre = {state['re']!r}\nim = {state['im']!r}\n"
    elif state["kind"] == "mixture":
        terms = " ".join(f"{level}:{weight!r}" for level, weight in state["terms"])
        state_lines = f"kind = mixture\nterms = {terms}\n"
    else:
        state_lines = f"kind = fock\nn = {state['n']}\n"
    return (
        f"[model]\nomega = {s['omega']!r}\nmu = {s['mu']!r}\nnu = {s['nu']!r}\n"
        f"theta = {s['theta']!r}\n\n"
        f"[state]\n{state_lines}\n"
        f"[truncation]\nsupport_max = {s['support_max']}\nguard = {s['guard']}\n\n"
        + grid
        + f"\n[run]\nmethod = analytic\nphoton_levels = {s['photon_levels']}\n"
        f"steady_tol = {s['steady_tol']!r}\n\n"
        f"[tolerances]\ntrace_tol = {s['trace_tol']!r}\n"
        f"positivity_tol = {s['positivity_tol']!r}\n"
    )
