"""2x2 su(1,1) machinery behind the closed-form propagator.

The Lindblad part of the vectorized master equation is generated by an
su(1,1) element; in the defining representation that element is

    A = [[-(mu+nu)/2, nu], [-mu, (mu+nu)/2]],

which satisfies A^2 = ((mu-nu)/2)^2 * I. Its exponential therefore has the
hyperbolic closed form implemented by :func:`flow`, and a Gauss
decomposition of exp(tA) into upper * diagonal * lower triangular factors
yields the three scalars (raising amplitude G, scaling F, lowering
amplitude E) that disentangle the full superoperator exponential.

Those scalars come from one formula at every (mu, nu, t). Written with
cosh and sinh of x = (mu-nu)t/2 they are 0/0 at mu = nu and overflow once
|x| passes ~710; written with d = |mu-nu| and c = (1 - e^{-dt})/d, taken
as -expm1(-dt)/d, they are neither. expm1 and log1p keep the small
differences they stand for to full relative precision (Higham, *Accuracy
and Stability of Numerical Algorithms*, 2nd ed., 2002, sec. 1.14), so no
range of x needs a formula of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# cosh/sinh overflow just above 710; refuse earlier with a clear message.
_MAX_HALF_SPREAD = 700.0


@dataclass(frozen=True)
class DisentanglingCoefficients:
    """Scalars (E, ln F, G) and the prefactor of the factored propagator at t.

    F scales the number operator (the diagonal factor is diag(1/F, F) in the
    2x2 picture), E weights powers of the lowering sandwich a^m rho a^dag^m,
    and G weights the raising sandwich. Sign convention: the lower Gauss
    factor of exp(tA) is [[1, 0], [-E, 1]], which equals exp(E k_minus)
    because k_minus carries the -1 entry.

    F itself overflows once |mu-nu| t passes ~1,400, so only ln F is kept,
    together with the propagator's prefactor e^{(mu-nu)t/2}/F, which stays
    in [0, 1]. With d = |mu-nu|, c = -expm1(-dt)/d (c = t at d = 0) and
    F^ = F e^{-dt/2} = 1 + min(mu, nu) c:

        E = mu c / F^,  G = nu c / F^,
        ln F = dt/2 + log1p(min(mu, nu) c),
        prefactor = e^{-max(nu-mu, 0) t} / F^.
    """

    e_coef: float
    log_f: float
    g_coef: float
    prefactor: float
    # mu == nu. No branch reads it; the benchmark's per-layer counter does.
    degenerate_branch: bool


def k_generators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Defining 2x2 matrices (k_plus, k_minus, k3) of su(1,1).

    Note k_minus is not the adjoint of k_plus: it is -k_plus^T.
    """
    k_plus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    k_minus = np.array([[0.0, 0.0], [-1.0, 0.0]], dtype=complex)
    k3 = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
    return k_plus, k_minus, k3


def generator(mu: float, nu: float) -> np.ndarray:
    """The traceless 2x2 generator nu*k_plus + mu*k_minus - (mu+nu)*k3."""
    return np.array(
        [[-0.5 * (mu + nu), nu], [-mu, 0.5 * (mu + nu)]], dtype=complex
    )


def flow(mu: float, nu: float, t: float) -> np.ndarray:
    """exp(t * generator(mu, nu)) in closed form.

    With x = (mu-nu)t/2 and s = t sinh(x)/x (s = t at x = 0, where A is
    nilpotent and exp(tA) = I + tA) the entries are cosh(x) -/+ ((mu+nu)/2)s
    on the diagonal and nu*s, -mu*s off it. The result has determinant 1 up
    to rounding.
    """
    if not (math.isfinite(mu) and math.isfinite(nu) and math.isfinite(t)):
        raise ValueError("mu, nu, t must be finite")
    if mu < 0 or nu < 0:
        raise ValueError(f"mu and nu must be non-negative, got mu={mu}, nu={nu}")
    x = 0.5 * (mu - nu) * t
    # Unlike the coefficients, which stay bounded, the entries of exp(tA)
    # themselves grow like cosh(x) and are not representable past |x| ~ 710,
    # so no rewriting removes this refusal.
    if abs(x) > _MAX_HALF_SPREAD:
        raise ValueError(f"|mu - nu| * t / 2 = {abs(x):.3g} overflows double precision")
    ch = math.cosh(x)
    s = t * (math.sinh(x) / x) if x else t
    mean_rate = 0.5 * (mu + nu)
    return np.array(
        [[ch - mean_rate * s, nu * s], [-mu * s, ch + mean_rate * s]], dtype=complex
    )


def gauss_decompose(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor a determinant-one 2x2 matrix as upper * diagonal * lower.

    [[a, b], [c, d]] = [[1, b/d], [0, 1]] [[1/d, 0], [0, d]] [[1, 0], [c/d, 1]]
    requires det = 1 (within 1e-10) and d != 0.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det - 1.0) > 1e-10 * max(1.0, float(np.abs(m).max()) ** 2):
        raise ValueError(f"matrix must have determinant 1, got {det}")
    d = m[1, 1]
    if abs(d) <= 1e-12:
        raise ValueError("lower-right entry vanishes; Gauss decomposition is singular")
    upper = np.array([[1.0, m[0, 1] / d], [0.0, 1.0]], dtype=complex)
    diag = np.array([[1.0 / d, 0.0], [0.0, d]], dtype=complex)
    lower = np.array([[1.0, 0.0], [m[1, 0] / d, 1.0]], dtype=complex)
    return upper, diag, lower


def disentangling_coefficients(mu: float, nu: float, t: float) -> DisentanglingCoefficients:
    """The scalars (E, ln F, G) and the prefactor factoring exp(t * generator(mu, nu)).

    These are the Gauss factors of :func:`flow`: G = b/d, F = d and
    E = -c/d in the [[a,b],[c,d]] notation, so
    exp(tA) = exp(G k_plus) exp(-2 ln F k3) exp(E k_minus). The formula
    (see :class:`DisentanglingCoefficients`) holds for every finite
    non-negative rate and time, balanced rates and large t included; as
    t grows with mu > nu, E -> 1 and G -> nu/mu, the thermal state.
    """
    if not (math.isfinite(mu) and math.isfinite(nu) and math.isfinite(t)):
        raise ValueError("mu, nu, t must be finite")
    if mu < 0 or nu < 0:
        raise ValueError(f"mu and nu must be non-negative, got mu={mu}, nu={nu}")
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    d = abs(mu - nu)
    c = -math.expm1(-d * t) / d if d else t
    m_c = min(mu, nu) * c
    f_hat = 1.0 + m_c
    return DisentanglingCoefficients(
        e_coef=mu * c / f_hat,
        log_f=0.5 * d * t + math.log1p(m_c),
        g_coef=nu * c / f_hat,
        prefactor=math.exp(-max(nu - mu, 0.0) * t) / f_hat,
        degenerate_branch=d == 0,
    )
