"""Classical damped harmonic oscillator, x'' + 2 gamma x' + omega^2 x = 0.

The phase-space system matrix [[0, 1], [-omega^2, -2 gamma]] splits over the
same 2x2 su(1,1) generators used on the quantum side, and for omega > gamma
its exponential has a closed cos/sin form with overall decay e^{-gamma t}.
Critical and overdamped motion (omega <= gamma) is served only by the RK4
integrator; the analytic path refuses it rather than substituting formulas
outside its stated domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: RK4 stability heuristic: step * max(omega, 2 gamma) must not exceed this.
RK4_STABILITY_LIMIT = 0.1


class AnalyticUnsupportedError(ValueError):
    """The closed-form path only covers the underdamped case omega > gamma."""


@dataclass(frozen=True)
class ClassicalParams:
    """Angular frequency omega > 0 and damping gamma >= 0 (mass fixed to 1)."""

    omega: float
    gamma: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.omega) and math.isfinite(self.gamma)):
            raise ValueError("omega and gamma must be finite")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if not (math.isfinite(self.omega * self.omega) and math.isfinite(2.0 * self.gamma)):
            raise ValueError(
                f"the system matrix overflows double precision at omega = {self.omega}, "
                f"gamma = {self.gamma}"
            )


@dataclass(frozen=True)
class PhasePoint:
    """Position x and velocity y = dx/dt."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"phase point must be finite, got ({self.x}, {self.y})")


def system_matrix(params: ClassicalParams) -> np.ndarray:
    """[[0, 1], [-omega^2, -2 gamma]] acting on (x, y)."""
    return np.array([[0.0, 1.0], [-params.omega**2, -2.0 * params.gamma]])


def evolution_matrix(params: ClassicalParams, t: float) -> np.ndarray:
    """Closed-form exp(t * system_matrix) for the underdamped case.

    With Omega = sqrt(omega^2 - gamma^2):

        e^{-gamma t} [[cos(Omega t) + gamma sin(Omega t)/Omega, sin(Omega t)/Omega],
                      [-omega^2 sin(Omega t)/Omega, cos(Omega t) - gamma sin(Omega t)/Omega]]

    Its determinant is e^{-2 gamma t} (the system matrix has trace -2 gamma).
    """
    if params.omega <= params.gamma:
        raise AnalyticUnsupportedError(
            f"analytic path requires omega > gamma, got omega={params.omega}, "
            f"gamma={params.gamma}; use the RK4 integrator"
        )
    big_omega = math.sqrt(params.omega**2 - params.gamma**2)
    c = math.cos(big_omega * t)
    s = math.sin(big_omega * t) / big_omega
    decay = math.exp(-params.gamma * t)
    return decay * np.array(
        [
            [c + params.gamma * s, s],
            [-params.omega**2 * s, c - params.gamma * s],
        ]
    )


def _apply(m: np.ndarray, p0: PhasePoint) -> PhasePoint:
    """m @ (x0, y0). An overflow gives a non-finite point, which PhasePoint refuses."""
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = m @ (p0.x, p0.y)
    return PhasePoint(x=float(x), y=float(y))


def evolve_classical_analytic(p0: PhasePoint, params: ClassicalParams, t: float) -> PhasePoint:
    """Apply the closed-form evolution matrix to (x0, y0)."""
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"time must be finite and non-negative, got {t}")
    return _apply(evolution_matrix(params, t), p0)


def stability_steps(params: ClassicalParams, t: float) -> int:
    """Smallest RK4 step count satisfying the stability heuristic.

    Raises ValueError when that count overflows double precision.
    """
    rate = max(params.omega, 2.0 * params.gamma)
    if t <= 0 or rate == 0:
        return 1
    needed = t * rate / RK4_STABILITY_LIMIT
    if not math.isfinite(needed):
        raise ValueError(f"RK4 step count at t = {t:.6g} overflows double precision")
    return max(1, int(math.ceil(needed)))


def evolve_classical_rk4(
    p0: PhasePoint, params: ClassicalParams, t: float, steps: int
) -> PhasePoint:
    """Fixed-step RK4 endpoint; valid for any damping, including overdamped.

    Costs O(log steps) 2x2 products; no loop runs over the steps.
    """
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"time must be finite and non-negative, got {t}")
    if steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps}")
    needed = stability_steps(params, t)
    if steps < needed:
        raise ValueError(
            f"{steps} steps violate the stability bound "
            f"h*max(omega, 2*gamma) <= {RK4_STABILITY_LIMIT} (need >= {needed})"
        )
    # One RK4 step on a linear system is the matrix
    # I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, so n steps are its n-th power.
    ha = (t / steps) * system_matrix(params)
    eye = np.eye(2)
    one_step = eye + ha @ (eye + ha @ (eye + ha @ (eye + ha / 4.0) / 3.0) / 2.0)
    return _apply(np.linalg.matrix_power(one_step, steps), p0)
