"""Classical damped harmonic oscillator, x'' + 2 gamma x' + omega^2 x = 0.

The phase-space system matrix [[0, 1], [-omega^2, -2 gamma]] splits over the
same 2x2 su(1,1) generators used on the quantum side, and for omega > gamma
its exponential has a closed cos/sin form with overall decay e^{-gamma t}.
Critical and overdamped motion (omega <= gamma) is served only by the RK4
integrator; the analytic path refuses it rather than substituting formulas
outside its stated domain. :func:`evolve_classical_analytic_grid` builds the
closed form for a whole time grid as one (T, 2, 2) stack and applies it by
one stacked product, each row with the bits of the one-time matrix and
product. :func:`evolve_classical_rk4_grid` steps a whole
time grid at ``_CLASSICAL_STEP_LIMIT``; it and :func:`stability_steps` share
one step rule, the rate max(omega, 2 gamma). The RK4 step powers of the last
16 (params, t, steps) are kept: linspace segments differ in the last bit, so
a grid of thousands of segments has only a dozen or so lengths.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: RK4 stability heuristic: step * max(omega, 2 gamma) must not exceed this.
RK4_STABILITY_LIMIT = 0.1

#: Classical CSV runs integrate much finer than the bare stability bound so
#: the deviation column sits well under 1e-8.
_CLASSICAL_STEP_LIMIT = 4e-3


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


def evolution_matrix(params: ClassicalParams, t) -> np.ndarray:
    """Closed-form exp(t * system_matrix) for the underdamped case.

    With Omega = sqrt(omega^2 - gamma^2):

        e^{-gamma t} [[cos(Omega t) + gamma sin(Omega t)/Omega, sin(Omega t)/Omega],
                      [-omega^2 sin(Omega t)/Omega, cos(Omega t) - gamma sin(Omega t)/Omega]]

    Its determinant is e^{-2 gamma t} (the system matrix has trace -2 gamma).
    Omega can underflow to 0 although omega > gamma (omega = 1e-300, say);
    sin(Omega t)/Omega is then taken as its limit t, every Omega > 0 keeping
    its bits. A scalar ``t`` gives one 2x2 matrix, an array of times a stack
    of shape ``t.shape + (2, 2)``. The cos, sin and exp are taken per time
    with :mod:`math` (``np.exp`` differs from ``math.exp`` in the last bit on
    some arguments); the products and sums are elementwise, so every entry
    has the bits of the one-time matrix.
    """
    if params.omega <= params.gamma:
        raise AnalyticUnsupportedError(
            f"analytic path requires omega > gamma, got omega={params.omega}, "
            f"gamma={params.gamma}; use the RK4 integrator"
        )
    times = np.asarray(t, dtype=float)
    big_omega = math.sqrt(params.omega**2 - params.gamma**2)
    flat = times.ravel().tolist()
    c = np.array([math.cos(big_omega * x) for x in flat]).reshape(times.shape)
    s = np.array([math.sin(big_omega * x) / big_omega if big_omega else x for x in flat])
    s = s.reshape(times.shape)
    decay = np.array([math.exp(-params.gamma * x) for x in flat]).reshape(times.shape)
    gamma_s = params.gamma * s
    top = np.stack([c + gamma_s, s], axis=-1)
    bottom = np.stack([-params.omega**2 * s, c - gamma_s], axis=-1)
    return decay[..., None, None] * np.stack([top, bottom], axis=-2)


def _apply(m: np.ndarray, p0: PhasePoint) -> PhasePoint:
    """m @ (x0, y0). An overflow gives a non-finite point, which PhasePoint refuses."""
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = (m @ (p0.x, p0.y)).tolist()
    return PhasePoint(x=x, y=y)


def _check_time(t: float) -> None:
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"time must be finite and non-negative, got {t}")


def _checked_times(times) -> list[float]:
    """The grid ``times`` as floats, each checked by :func:`_check_time`."""
    times = np.asarray(times, dtype=float).tolist()
    for t in times:
        _check_time(t)
    return times


def evolve_classical_analytic_grid(p0: PhasePoint, params: ClassicalParams, times) -> np.ndarray:
    """Closed-form (x, y) at each of ``times``, as a (T, 2) array.

    The times are checked once, then :func:`evolution_matrix` builds the
    (T, 2, 2) stack and one stacked product applies it. Row i has the bits
    of ``evolution_matrix(params, times[i]) @ (x0, y0)``. The first row an
    overflow made non-finite is refused as :class:`PhasePoint` refuses it.
    """
    mats = evolution_matrix(params, _checked_times(times))
    with np.errstate(over="ignore", invalid="ignore"):
        points = mats @ (p0.x, p0.y)
    bad = ~np.isfinite(points).all(axis=1)
    if bad.any():
        PhasePoint(*points[bad.argmax()].tolist())  # raises: the point is not finite
    return points


def stability_steps(params: ClassicalParams, t: float) -> int:
    """Smallest RK4 step count satisfying the stability heuristic.

    Raises ValueError when that count overflows double precision.
    """
    return _step_count(params, t, RK4_STABILITY_LIMIT)


def _step_count(params: ClassicalParams, t: float, limit: float) -> int:
    """Fewest RK4 steps over [0, t] with step * max(omega, 2 gamma) <= limit."""
    if t <= 0:
        return 1
    needed = t * max(params.omega, 2.0 * params.gamma) / limit
    if not math.isfinite(needed):
        raise ValueError(f"RK4 step count at t = {t:.6g} overflows double precision")
    return max(1, int(math.ceil(needed)))


def evolve_classical_rk4_grid(p0: PhasePoint, params: ClassicalParams, times) -> list[PhasePoint]:
    """Step p0 along ``times`` by :func:`evolve_classical_rk4`, one point per time.

    The times are checked once. Each segment from the time before (0 at
    first) takes the fewest steps with step * max(omega, 2 gamma) <=
    ``_CLASSICAL_STEP_LIMIT``; one of zero or negative length repeats the
    point before it.
    """
    points, current, prev_t = [], p0, 0.0
    for t in _checked_times(times):
        seg = t - prev_t
        if seg > 0:
            current = evolve_classical_rk4(
                current, params, seg, _step_count(params, seg, _CLASSICAL_STEP_LIMIT)
            )
        points.append(current)
        prev_t = t
    return points


def evolve_classical_rk4(
    p0: PhasePoint, params: ClassicalParams, t: float, steps: int
) -> PhasePoint:
    """Fixed-step RK4 endpoint; valid for any damping, including overdamped.

    Costs O(log steps) 2x2 products; no loop runs over the steps. The power
    of one (params, t, steps) is raised once and read by later calls with
    the same arguments to the bit.
    """
    _check_time(t)
    if steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps}")
    needed = stability_steps(params, t)
    if steps < needed:
        raise ValueError(
            f"{steps} steps violate the stability bound "
            f"h*max(omega, 2*gamma) <= {RK4_STABILITY_LIMIT} (need >= {needed})"
        )
    # The cache key must hash: a 0-d array time or count is read as its number,
    # and a non-integer count is refused as np.linalg.matrix_power refuses it.
    return _apply(_rk4_power(params, float(t), operator.index(steps)), p0)


@lru_cache(maxsize=16)
def _rk4_power(params: ClassicalParams, t: float, steps: int) -> np.ndarray:
    # One RK4 step on a linear system is the matrix
    # I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, so n steps are its n-th power.
    ha = (t / steps) * system_matrix(params)
    eye = np.eye(2)
    one_step = eye + ha @ (eye + ha @ (eye + ha @ (eye + ha / 4.0) / 3.0) / 2.0)
    power = np.linalg.matrix_power(one_step, steps)
    power.flags.writeable = False  # every call with these arguments reads it
    return power
