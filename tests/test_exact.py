"""The closed form and both oracles against an exact answer, each with its own budget.

Under this master equation a coherent state alpha evolves into a displaced
thermal state D(beta) rho_th(n_bar) D(beta)^dag with
beta = alpha e^{-((mu - nu)/2 + i omega) t} and
n_bar = nu (1 - e^{-(mu - nu) t}) / (mu - nu) (Breuer and Petruccione, The
Theory of Open Quantum Systems, OUP 2002, on the damped harmonic
oscillator). It owes nothing to su(1,1), to the series or to either oracle.
The reference is built on 160 levels with scipy's expm and cut to D = 40.

A coherent state runs the series on the matrix layout and the vacuum
(alpha = 0, a thermal state at t) on the one-row diagonal layout. Measured
worst cases over the rows below: the closed form 5.6e-16 max abs, the
expm oracle 2.3e-14 on the certified rows. The budgets leave 3.6x and 4.4x.

The displaced thermal state reaches only the Gaussian states. For a
diagonal rho(0), a Fock state or a mixture of them, the reference is the
finite series itself on D levels, evaluated in 50-digit decimal: E, G,
ln F and the prefactor from their expm1/log1p formulas, lowering by
k!/(k - m)!, the number factor F^(-2k) and raising with the same
truncation at D. The closed form's grid comes within 1.4e-16 of it at
worst (D = 12 and 20, nu = 0.4 and 0, t = 1.3 and 3), so
``CLOSED_FORM_BUDGET`` leaves 14x there.

RK4 is fourth order: at n times ``stability_steps`` its error on the
certified rows is 1.9e-10 / n^4 at worst (1.88e-10, 1.18e-11 and 7.36e-13
at n = 1, 2, 4, each doubling dividing it by 16.0; nu = 0, t = 1.3,
alpha = 2), and the vacuum's at most 2e-16. Its budget,
``RK4_BUDGET`` / n^4, leaves 2.6x at every n tested.
"""

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
import scipy.linalg

from qdho import fock, liouville, propagator

CLOSED_FORM_BUDGET = 2e-15
EXPM_BUDGET = 1e-13
#: RK4's budget at ``stability_steps``; at n times as many steps it is this / n^4.
RK4_BUDGET = 5e-10
TRUNC = fock.TruncationConfig.for_support(9, 30)  # D = 40

#: (omega, mu, nu, t) rows on which every run is certified at D = 40.
CERTIFIED = [(2 * math.pi, 1.0, nu, t) for nu in (0.4, 0.0) for t in (1.3, 3.0)]
#: The closed form is exact here too, but the run escapes its certificate
#: (1e-7 to 1e-5): the expm oracle's literal edge level is off by 5e-8 to
#: 2e-6, which is truncation, not integration error.
UNCERTIFIED = [(0.0, 2.0, 1.5, 3.0)]
ALPHAS = [0.0, 1.5, 2.0]


def _displaced_thermal(alpha, params, t, dim, big=160):
    decay = params.mu - params.nu
    beta = alpha * np.exp(-(0.5 * decay + 1j * params.omega) * t)
    n_bar = params.nu * -math.expm1(-decay * t) / decay if decay else params.nu * t
    a = np.diag(np.sqrt(np.arange(1.0, big)), 1)
    shift = scipy.linalg.expm(beta * a.T - np.conj(beta) * a)
    levels = np.arange(big)
    weights = n_bar**levels / (1.0 + n_bar) ** (levels + 1)
    return (shift @ np.diag(weights) @ shift.conj().T)[:dim, :dim]


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("row", CERTIFIED + UNCERTIFIED)
def test_against_displaced_thermal_state(row, alpha):
    omega, mu, nu, t = row
    params = fock.ModelParams(omega=omega, mu=mu, nu=nu)
    rho0 = fock.fock_state(0, TRUNC) if alpha == 0 else fock.coherent_state(alpha, TRUNC)
    assert propagator._layout(rho0.mat).row_step == (0 if alpha == 0 else 1)
    want = _displaced_thermal(alpha, params, t, TRUNC.dim)
    closed = propagator.evolve_analytic(rho0, params, t).mat
    assert np.abs(closed - want).max() <= CLOSED_FORM_BUDGET
    escape = propagator.doubled_truncation_distance(rho0, params, t)
    assert (escape <= propagator.TRUNCATION_DOUBLING_TOL) == (row in CERTIFIED)
    if row in CERTIFIED:
        oracle = liouville.evolve_numeric_expm(rho0, params, t).mat
        assert np.abs(oracle - want).max() <= EXPM_BUDGET
        stable = liouville.stability_steps(params, TRUNC.dim, t)
        for n in (1, 2, 4):
            rk4 = liouville.evolve_numeric_rk4(rho0, params, t, n * stable).mat
            assert np.abs(rk4 - want).max() <= RK4_BUDGET / n**4


def _decimal_series(populations, mu, nu, t, dim):
    """The diagonal of rho(t) from that of a diagonal rho(0), in 50-digit decimal.

    The inputs are taken as the exact values of their doubles; the phase
    omega t cancels from the diagonal, so omega does not enter.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        mu, nu, t = Decimal(mu), Decimal(nu), Decimal(t)
        d = abs(mu - nu)
        c = -((-d * t).exp() - 1) / d if d else t  # -expm1(-dt)/d
        m_c = min(mu, nu) * c
        f_hat = 1 + m_c
        log_f = d * t / 2 + (1 + m_c).ln()  # log1p(m_c)
        prefactor = (-max(nu - mu, Decimal(0)) * t).exp() / f_hat

        def weights(x):  # x^m/m! for m < dim
            out = [Decimal(1)]
            for m in range(1, dim):
                out.append(out[-1] * x / m)
            return out

        lower, upper = weights(mu * c / f_hat), weights(nu * c / f_hat)  # E^m/m!, G^n/n!
        fact = math.factorial
        p = [Decimal(x) for x in populations]
        lowered = [
            sum(lower[m] * fact(k + m) / fact(k) * p[k + m] for m in range(dim - k))
            for k in range(dim)
        ]
        scaled = [x * (-2 * k * log_f).exp() for k, x in enumerate(lowered)]
        return [
            prefactor * sum(upper[n] * fact(k) / fact(k - n) * scaled[k - n] for n in range(k + 1))
            for k in range(dim)
        ]


@pytest.mark.parametrize("nu", [0.4, 0.0])
@pytest.mark.parametrize("dim", [12, 20])
@pytest.mark.parametrize("terms", [[(4, 1.0)], [(0, 0.5), (2, 0.3), (5, 0.2)]],
                         ids=["fock", "mixture"])
def test_diagonal_state_against_decimal_series(terms, dim, nu):
    trunc = fock.TruncationConfig(support_max=5, guard=dim - 6)
    rho0 = fock.mixture_state(terms, trunc)
    params = fock.ModelParams(omega=2 * math.pi, mu=1.0, nu=nu)
    times = [1.3, 3.0]
    states, _ = propagator.evolve_analytic_grid(rho0, params, times)
    populations = np.diag(rho0.mat).real
    for state, t in zip(states, times):
        want = [float(x) for x in _decimal_series(populations, params.mu, params.nu, t, dim)]
        assert not (state - np.diag(np.diag(state))).any()
        assert np.abs(np.diag(state) - want).max() <= CLOSED_FORM_BUDGET
