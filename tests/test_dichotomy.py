"""The minimizer dichotomy that ``solver.minimize`` assumes, checked from outside it.

``minimize`` compares one even constant-sign descent with the stored odd
sine, and above 2*pi^2 it descends at 2*pi^2 only.  These tests try other
functions: even descents at 2*pi^2 from several even starts, which must all
stay far above the sine, and an unstructured descent on the full grid, with
no symmetry, from asymmetric starts, which must never end below the value
``minimize`` reports.
"""

import functools
import math

import numpy as np
import pytest

from nleig.core import ProblemParams, dirichlet_energy, nodes, signed_average
from nleig import solver
from nleig.solver import SolverOptions, _descend, _grid, minimize, quotient_and_residual, saturation_reference

# the unstructured descent's grid, step cap and (q, alpha) grid
N = 400
STEPS = 300
QS = (1.0, 1.25, 1.5, 1.75, 2.0)
ALPHAS = (-20.0, -5.0, 0.0, 3.0, 5.5, 8.0, 12.0, solver.ALPHA_TOP)

# minimize stops once a step lowers lambda by less than _LAMBDA_TOL, so its
# lambda may sit above the discrete minimum by the tail of a linearly
# converging descent: below _LAMBDA_TOL on this grid (worst gap -6.6e-12, at
# q = 1, alpha = -20), and 10 times that is allowed, relative above |lambda| = 1
BAND = 10.0 * solver._LAMBDA_TOL


def _even_starts(n, count, seed):
    """Halves of the bump and of count random mixes of cos((2j + 1)*pi*x/2), j < 6."""
    x = nodes(n)[1 : (n + 1) // 2 + 1]
    rng = np.random.default_rng(seed)
    modes = np.cos(np.outer(2 * np.arange(6) + 1, 0.5 * math.pi * x))
    return [_grid(n)[0]] + [rng.standard_normal(6) @ modes for _ in range(count)]


@pytest.mark.parametrize("n", [100, 101])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
def test_even_descents_at_the_top_stay_above_the_sine(q, n):
    # minimize descends only at 2*pi^2 above it, and lets the sine win there;
    # that is sound only if no even function comes near the sine at 2*pi^2
    sat = saturation_reference(n, q)
    kernel = functools.partial(quotient_and_residual, n=n, alpha=solver.ALPHA_TOP, q=q)
    for w in _even_starts(n, 4, seed=7):
        lam = _descend(w, n, kernel)[1]
        assert lam >= sat + 1.0


def _dirichlet_solve(r, h):
    """u with (2*u_i - u_{i-1} - u_{i+1})/h^2 = r_i and u_0 = u_{n+1} = 0, by two running sums."""
    c = np.cumsum(r)
    walk = np.concatenate(([0.0], np.cumsum(c[:-1])))  # sum_{i < k} c_i for k = 1..n
    g1 = c.sum() / (r.size + 1)
    return h * h * (np.arange(1, r.size + 1) * g1 - walk)


def _quotient(v, h, alpha, q):
    """The quotient of v on the unit L2 sphere and its residual alpha*|S|^(2/q-1)*sign(S)*|v|^(q-1) - Q*v."""
    s = signed_average(v, h, q)
    value = (dirichlet_energy(v, h) + alpha * abs(s) ** (2.0 / q)) / (h * float(v @ v))
    p = np.abs(v) ** (q - 1.0)
    return value, alpha * abs(s) ** (2.0 / q - 1.0) * math.copysign(1.0, s) * p - value * v


def _reference_descent(v, h, alpha, q):
    """STEPS steps of Armijo-backtracked K^-1-preconditioned descent from v; the last quotient."""
    v = v / math.sqrt(h * float(v @ v))
    value, r = _quotient(v, h, alpha, q)
    for _ in range(STEPS):
        d = v + _dirichlet_solve(r, h)
        slope = 2.0 * dirichlet_energy(d, h)
        step = 1.0
        while step * slope > 1e-15:
            trial = v - step * d
            trial /= math.sqrt(h * float(trial @ trial))
            t_value, t_r = _quotient(trial, h, alpha, q)
            if t_value <= value - 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break
        v, value, r = trial, t_value, t_r
    return value


def _asymmetric_starts(n, seed):
    """Six random mixes of sin(k*pi*(x + 1)/2), k <= 6, of neither parity.

    Two weight the modes equally, two mostly odd ones (k even), two mostly
    even ones (k odd).
    """
    x = nodes(n)[1:-1]
    rng = np.random.default_rng(seed)
    modes = np.sin(np.outer(np.arange(1, 7), 0.5 * math.pi * (x + 1.0)))
    weights = (np.ones(6), np.ones(6), [0.2, 1, 0.2, 1, 0.2, 1], [0.2, 1, 0.2, 1, 0.2, 1], [1, 0.2] * 3, [1, 0.2] * 3)
    return [(rng.standard_normal(6) * w) @ modes for w in weights]


def test_unstructured_descent_never_beats_minimize():
    h = 2.0 / (N + 1)
    # above alpha_q the reference creeps along the kink S = 0 and ends far
    # above the sine for q > 1, so it is no value oracle there; at q = 1 the
    # term alpha*S^2 is smooth and it reaches the sine
    starts = _asymmetric_starts(N, seed=11)
    for q in QS:
        for alpha in ALPHAS:
            lam = minimize(ProblemParams(alpha, q), SolverOptions(N)).lam
            for v in starts:
                gap = _reference_descent(v, h, alpha, q) - lam
                assert gap >= -BAND * max(1.0, abs(lam)), (q, alpha, gap)
