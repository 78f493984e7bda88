import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nleig.core import (
    GridFunction,
    ProblemParams,
    _euler_lagrange_residual,
    analyze,
    apply_stiffness,
    q_average,
    quotient_terms,
    rayleigh_quotient,
)
from nleig import solver
from nleig.solver import (
    SolverNonconvergence,
    SolverOptions,
    _descend,
    _dirichlet_solve,
    _fold,
    _grid,
    _half_energy_and_stiffness,
    _S_ROUNDING_BAND,
    _unfold,
    minimize,
    quotient_and_gradient,
    saturation_reference,
    threshold_and_gradient,
    threshold_ascent,
)

PI2 = math.pi**2
OPTS = SolverOptions()
FAST = SolverOptions(n=1200)


def l2_dist(u: GridFunction, ref: np.ndarray) -> float:
    v = u.values / math.sqrt(u.h * float(u.values @ u.values))
    r = ref / math.sqrt(u.h * float(ref @ ref))
    return math.sqrt(u.h * min(float((v - r) @ (v - r)), float((v + r) @ (v + r))))


# --- minimize examples ---------------------------------------------------------

def test_zero_coupling_recovers_poincare():
    res = minimize(ProblemParams(0.0, 1.5), OPTS)
    assert abs(res.lam - PI2 / 4) <= 1e-4 * PI2 / 4
    prof = analyze(res.minimizer)
    assert prof.sign_class == "positive"
    bump = np.cos(0.5 * math.pi * res.minimizer.x)
    assert l2_dist(res.minimizer, bump) < 1e-3


def test_q2_constant_sign_branch_shifts_linearly():
    # oracle: at q = 2 a constant-sign minimizer obeys lambda = pi^2/4 + alpha,
    # the identity cross-checked against the zero-coupling solve
    base = minimize(ProblemParams(0.0, 2.0), OPTS)
    res = minimize(ProblemParams(2.0, 2.0), OPTS)
    assert abs(res.lam - (base.lam + 2.0)) <= 1e-6
    assert abs(res.lam - (PI2 / 4 + 2.0)) <= 1e-4 * (PI2 / 4 + 2.0)


def test_saturated_regime_returns_odd_sine():
    res = minimize(ProblemParams(10.0, 2.0), OPTS)
    assert abs(res.lam - PI2) <= 1e-4 * PI2
    prof = analyze(res.minimizer)
    assert prof.odd_defect < 1e-4
    assert abs(res.q_average) < 1e-6
    assert res.gamma == 0.0
    sine = np.sin(math.pi * res.minimizer.x)
    assert l2_dist(res.minimizer, sine) < 1e-3


def test_negative_coupling_stays_constant_sign():
    res = minimize(ProblemParams(-5.0, 1.5), OPTS)
    assert res.lam < PI2 / 4
    assert analyze(res.minimizer).sign_class != "sign_changing"


def test_minimizer_is_normalized_with_nonnegative_average():
    res = minimize(ProblemParams(1.0, 1.5), FAST)
    u = res.minimizer
    assert abs(u.h * float(u.values @ u.values) - 1.0) <= 1e-12
    assert res.q_average >= 0.0


def test_nonconvergence_carries_best_iterate(monkeypatch):
    # at nonzero coupling the bump start needs more than two descent steps
    monkeypatch.setattr(solver, "_MAX_ITERATIONS", 2)
    with pytest.raises(SolverNonconvergence) as info:
        minimize(ProblemParams(3.0, 1.5), SolverOptions(n=400))
    res = info.value.result
    assert not res.converged
    assert res.minimizer.n == 400


@pytest.mark.parametrize("q", [1.4, 1.5, 1.6, 1.7])
def test_top_of_bracket_converges_quickly_to_the_odd_sine_branch(q):
    # alpha = 2*pi^2 is the upper end of the critical search; here the bump
    # descent settles within a few dozen steps and loses to the odd sine
    params = ProblemParams(2.0 * PI2, q)
    res = minimize(params, OPTS)
    assert res.converged
    assert res.iterations <= 100
    assert res.lam == saturation_reference(OPTS.n, q)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(n=50)


# --- Euler-Lagrange residual --------------------------------------------------------

def test_residual_small_at_poincare_minimizer():
    res = minimize(ProblemParams(0.0, 1.5), OPTS)
    assert res.residual < 1e-3 * res.lam


# at (6.34, 1.25) the odd winner once kept S = 2.4e-10, the largest seen in a
# scan of q in [1.02, 1.98] x alpha in [5, 2*pi^2]; it now takes S = 0 by
# symmetry, and gamma must read 0
@pytest.mark.parametrize("alpha,q", [(10.0, 2.0), (9.0, 1.8), (7.0, 1.5), (6.34, 1.25)])
def test_residual_small_on_saturated_branch_with_zero_gamma(alpha, q):
    res = minimize(ProblemParams(alpha, q), OPTS)
    assert res.gamma == 0.0
    assert res.residual < 1e-3 * res.lam


def test_residual_large_for_arbitrary_function():
    converged = minimize(ProblemParams(0.0, 1.5), FAST)
    rng = np.random.default_rng(1)
    junk = GridFunction(rng.uniform(-1.0, 1.0, FAST.n))
    junk_residual = _euler_lagrange_residual(junk.values, converged.lam, 0.0, 0.0, 1.5, junk.h)
    assert junk_residual > 100.0 * converged.residual


# --- saturation reference --------------------------------------------------------

def test_saturation_reference_tracks_pi_squared():
    ref = saturation_reference(4000, 1.5)
    assert abs(ref - PI2) <= 1e-4 * PI2


def test_saturation_reference_is_q_independent():
    vals = {saturation_reference(2000, q) for q in (1.0, 1.5, 2.0)}
    assert len(vals) == 1


def test_saturation_reference_converges_quadratically():
    e1 = abs(saturation_reference(1000, 1.0) - PI2)
    e2 = abs(saturation_reference(2000, 1.0) - PI2)
    assert e2 < e1


# --- half-grid kernel ---------------------------------------------------------------

SIZES = (100, 101, 4000, 4001)


def _even(f, n):
    """The half w = v[:(n + 1)//2] of f sampled on the n interior nodes."""
    return GridFunction.from_callable(f, n).values[: (n + 1) // 2]


def _half_stiffness(w, n):
    """The stencil on the half grid, as the kernels apply it: the last row is reflected."""
    return _half_energy_and_stiffness(w, n)[1]


@pytest.mark.parametrize("n", SIZES)
def test_half_stiffness_is_the_unfolded_stencil(n):
    w = np.random.default_rng(n).standard_normal((n + 1) // 2)
    h = 2.0 / (n + 1)
    v = _unfold(w, n)
    full = apply_stiffness(v, h)
    energy, stiffness = _half_energy_and_stiffness(w, n)
    assert np.allclose(stiffness, full[: w.size], rtol=0.0, atol=1e-12 * np.abs(full).max())
    assert energy == pytest.approx(quotient_terms(v, h, 2.0)[0], rel=1e-13)


def _half_average(w, n, q):
    return 2.0 / (n + 1) * _fold(w, np.abs(w) ** (q - 1.0), n % 2)


def _balanced_even(n, q):
    """An even w whose S is positive and zero to rounding.

    S of cos(pi*x/2) + c*cos(3*pi*x/2) falls from positive at c = 0 to
    negative at c = 10; bisection keeps the positive end.
    """
    base = _even(lambda x: np.cos(0.5 * math.pi * x), n)
    bend = _even(lambda x: np.cos(1.5 * math.pi * x), n)
    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _half_average(base + mid * bend, n, q) > 0.0:
            lo = mid
        else:
            hi = mid
    return base + lo * bend


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("alpha", [-3.0, 4.0])
def test_quotient_gradient_matches_finite_differences(q, alpha):
    rng = np.random.default_rng(7)
    for n in SIZES:
        w = _even(lambda x: np.cos(0.5 * math.pi * x) + 0.2 * np.cos(1.5 * math.pi * x), n)
        v = _unfold(w, n)
        assert np.array_equal(v, v[::-1])
        assert _fold(w, w, n % 2) == pytest.approx(float(v @ v), rel=1e-14)
        u = GridFunction(v)
        assert q_average(u, q) > 0.1  # S != 0: the nonlocal term enters the gradient
        value, g, rate = quotient_and_gradient(w, n, alpha, q)
        assert rate == 1.0
        assert value == pytest.approx(rayleigh_quotient(u, ProblemParams(alpha, q)), rel=1e-14)
        eps = 1e-6
        for _ in range(3):
            e = rng.standard_normal(w.size)
            fd = (quotient_and_gradient(w + eps * e, n, alpha, q)[0]
                  - quotient_and_gradient(w - eps * e, n, alpha, q)[0]) / (2.0 * eps)
            # g is the half of the gradient for the mass h*v.v, and e unfolds
            # to an even direction, so the full products fold
            exact = _fold(g, e, n % 2) / _fold(w, w, n % 2)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


@pytest.mark.parametrize("q", [1.5, 1.8, 2.0])
def test_rounding_level_average_drops_the_nonlocal_gradient(q):
    # an even iterate that crosses S = 0 meets a rounding residue there, which
    # must count as the kink S = 0 rather than as a signed average
    n = 4000
    w = _balanced_even(n, q)
    assert 0.0 < _half_average(w, n, q) <= _S_ROUNDING_BAND
    value, g, _ = quotient_and_gradient(w, n, 8.0, q)
    local = 2.0 * (_half_stiffness(w, n) - value * w)
    assert np.linalg.norm(g - local) <= 1e-12 * np.linalg.norm(_half_stiffness(w, n))


def test_small_real_average_keeps_the_nonlocal_gradient():
    # S of about 1.8e-9 is a real average, of the size an iterate carries on
    # its way across S = 0: at q = 2 its term alpha*sign(S)*|v| stays
    n, alpha = 4000, 8.0
    w = _balanced_even(n, 2.0) + 2e-10 * _even(lambda x: np.cos(0.5 * math.pi * x), n)
    s = q_average(GridFunction(_unfold(w, n)), 2.0)
    assert 1e-9 < s < 1e-8
    value, g, _ = quotient_and_gradient(w, n, alpha, 2.0)
    full = 2.0 * (_half_stiffness(w, n) + alpha * np.abs(w) - value * w)
    assert np.linalg.norm(g - full) <= 1e-12 * np.linalg.norm(full)


# --- descent work -----------------------------------------------------------------

def _quotient_descent(w0, alpha, q, n=4000):
    """_descend of the quotient from the half w0: (half, value, iterations, evaluations, converged)."""
    return _descend(w0, n, functools.partial(quotient_and_gradient, n=n, alpha=alpha, q=q))


def _counted_descent(w0, alpha, q, n=4000):
    """Run _descend from the half w0; returns (iterations, evaluations, converged, value)."""
    _, value, iterations, evaluations, converged = _quotient_descent(w0, alpha, q, n)
    return iterations, evaluations, converged, value


@pytest.mark.parametrize("alpha,q", [(8.0, 2.0), (5.0, 1.5), (8.8, 1.8)])
def test_odd_sine_start_above_threshold_is_already_converged(alpha, q):
    # the sampled sine is the exact discrete odd minimizer; its value by
    # symmetry is here the full quotient bit for bit.  It takes no step: a
    # minimize costs the bump descent and one evaluation of the sine
    params = ProblemParams(alpha, q)
    sat = saturation_reference(4000, q)
    assert sat == rayleigh_quotient(GridFunction(_grid(4000)[1]), params)
    res = minimize(params, OPTS)
    iterations, evaluations, _, value = _counted_descent(_grid(4000)[0], alpha, q)
    assert (res.iterations, res.evaluations, res.converged) == (iterations, evaluations + 1, True)
    assert res.lam == min(value, sat)
    if res.lam == sat:  # above alpha_q
        assert res.lam == rayleigh_quotient(res.minimizer, params)


@pytest.mark.parametrize("n", [100, 4000])
@pytest.mark.parametrize("alpha", [-50.0, 0.0, 9.0, 2.0 * PI2, 1e6])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
def test_odd_restart_is_the_descent_it_replaces(q, alpha, n):
    # a descent from the stored sine stops at its first evaluation, the full
    # quotient with the sine's rounding residue S; the stored value takes
    # S = 0, so the two differ by that residue's term alone
    _, sine, stored = _grid(n)
    params = ProblemParams(alpha, q)
    assert saturation_reference(n, q) == stored
    full = rayleigh_quotient(GridFunction(sine), params)
    residue = abs(q_average(GridFunction(sine), q)) ** (2.0 / q)
    assert abs(stored - full) <= abs(alpha) * residue + 1e-15 * full
    # above alpha_q the sine wins, as a copy with S = 0 (the bump descent at
    # alpha = 1e6 and q = 1 runs to the cap, so that point is left out)
    if alpha in (9.0, 2.0 * PI2):
        res = minimize(params, SolverOptions(n))
        assert (res.lam, res.converged) == (stored, True)
        assert (res.q_average, res.gamma) == (0.0, 0.0)
        assert np.array_equal(res.minimizer.values, sine)
        assert not np.shares_memory(res.minimizer.values, sine)  # a copy, not the stored start


@pytest.mark.parametrize("n", [100, 4000, 12345])
def test_stored_sine_has_rounding_level_average(n):
    sine = _grid(n)[1]
    for q in (1.0, 1.5, 2.0):
        assert abs(quotient_terms(sine, 2.0 / (n + 1), q)[2]) <= _S_ROUNDING_BAND


@pytest.mark.parametrize("n", [100, 4000, 4001])
@pytest.mark.parametrize("q", [1.5, 1.8, 2.0])
@pytest.mark.parametrize("alpha", [1e2, 1e6, 1e9, 1e12])
def test_saturated_lambda_does_not_drift_with_alpha(alpha, q, n, monkeypatch):
    # the losing bump restart at (1e2, 1.5) creeps along the kink S = 0 for
    # 31 000 to 37 000 steps; a low cap keeps this fast, and a capped loser
    # must not move lambda
    monkeypatch.setattr(solver, "_MAX_ITERATIONS", 200)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = minimize(ProblemParams(alpha, q), SolverOptions(n=n))
    assert res.lam == saturation_reference(n, q)
    assert all("positive_bump" in str(w.message) for w in caught)


def test_capped_losing_restart_is_reported(monkeypatch):
    # at (50, 1.5, n = 100) the bump restart takes about 4 200 steps and loses
    # to the odd sine; at a cap of 100 it loses capped, and must say so
    monkeypatch.setattr(solver, "_MAX_ITERATIONS", 100)
    with pytest.warns(RuntimeWarning, match=r"restart positive_bump .* \(alpha=50.0, q=1.5, n=100\)"):
        res = minimize(ProblemParams(50.0, 1.5), SolverOptions(n=100))
    assert res.converged
    assert res.iterations == 100
    assert res.lam == saturation_reference(100, 1.5)


def test_capped_descent_that_ties_the_sine_loses(monkeypatch):
    # a capped, sign-changing descent within 10*_LAMBDA_TOL*max(1, |lambda|)
    # of the sine ties it to rounding level and loses, with a warning; one
    # further below wins, and its cap raises
    n = 100
    sat = saturation_reference(n, 1.5)
    bump = _grid(n)[0]
    changing = bump - 0.5 * bump.max()
    for gap, wins in ((1e-12, False), (1e-6, True)):
        monkeypatch.setattr(solver, "_descend", lambda w, n, kernel: (changing, sat - gap, 100, 150, False))
        if wins:
            with pytest.raises(SolverNonconvergence) as info:
                minimize(ProblemParams(50.0, 1.5), SolverOptions(n=n))
            assert info.value.result.lam == sat - gap
        else:
            with pytest.warns(RuntimeWarning, match="losing restart positive_bump") as record:
                res = minimize(ProblemParams(50.0, 1.5), SolverOptions(n=n))
            assert len(record) == 1
            assert (res.lam, res.converged, res.degenerate, res.q_average) == (sat, True, False, 0.0)


@pytest.mark.parametrize(
    "alpha,q,n,counts",
    [
        (3.0, 1.5, 4000, (4, 6)),
        (-5.0, 1.2, 4000, (4, 6)),
        (7.16, 1.947, 4001, (3, 5)),
        (9.0, 1.5, 101, (6, 8)),
        (4.99139, 1.0251, 4000, (7, 9)),
        (-20.0, 1.25, 4000, (9, 11)),
    ],
)
def test_exact_step_and_evaluation_counts(alpha, q, n, counts):
    # (iterations, evaluations) of minimize, the odd sine counting (0, 1);
    # a change to the line search or the extrapolation moves them.  At
    # (-20, 1.25) an Armijo constant of 0.3 instead of 1e-4 gives (10, 20).
    for res in (
        minimize(ProblemParams(alpha, q), SolverOptions(n=n)),
        minimize(ProblemParams(alpha, q), SolverOptions(n=n), start=None),
    ):
        assert (res.iterations, res.evaluations) == counts


@pytest.mark.parametrize(
    "alpha,q,most",
    # without the extrapolation: 6, 10, 7 and 5 steps
    [(3.0, 1.5, 4), (4.99139, 1.0251, 7), (-5.0, 1.2, 4), (7.16, 1.947, 3)],
)
def test_extrapolation_shortens_constant_sign_descents(alpha, q, most):
    iterations, evaluations, converged, _ = _counted_descent(_grid(4000)[0], alpha, q)
    assert converged
    assert iterations <= most
    assert evaluations <= 2 * iterations + 1


def test_sign_changing_descent_does_not_extrapolate():
    # the bump restart crosses S = 0 here; secant steps across the kink sent
    # it to the iteration cap, against 18 steps without them
    iterations, _, converged, _ = _counted_descent(_grid(1200)[0], 1000.0, 1.65, n=1200)
    assert converged
    assert iterations <= 50


@pytest.mark.parametrize(
    "alpha,q,start",
    [(2.0, 1.5, "winner"), (-5.0, 1.2, "winner"), (2.0 * PI2, 2.0, "restart")],
)
def test_descent_started_at_its_minimum_makes_at_most_two_evaluations(alpha, q, start):
    n = OPTS.n
    if start == "winner":
        w0 = minimize(ProblemParams(alpha, q), OPTS).minimizer.values[: (n + 1) // 2]
    else:
        # the end point of the bump restart, which loses to the odd sine here
        w0 = _quotient_descent(_grid(n)[0], alpha, q, n)[0]
    _, evaluations, converged, _ = _counted_descent(w0, alpha, q)
    assert converged
    assert evaluations <= 2


@pytest.mark.parametrize("n", [4000, 4001])
@pytest.mark.parametrize("alpha,q", [(2.0, 1.5), (-5.0, 1.2), (7.16, 1.947)])
def test_start_at_the_minimizer_costs_at_most_two_evaluations(alpha, q, n):
    opts = SolverOptions(n=n)
    params = ProblemParams(alpha, q)
    cold = minimize(params, opts)
    assert cold.q_average > 0.0  # the bump descent wins
    warm = minimize(params, opts, start=cold.minimizer)
    assert warm.converged
    assert warm.evaluations - 1 <= 2  # the sine's evaluation aside
    assert abs(warm.lam - cold.lam) <= 1e-12 * max(1.0, abs(cold.lam))


def test_start_is_read_through_its_left_half():
    # a start is the even function its left half determines: the right half
    # is never read, and a negative start is the same direction
    params = ProblemParams(2.0, 1.5)
    winner = minimize(params, FAST).minimizer
    ref = minimize(params, FAST, start=winner)
    left = winner.values.copy()
    left[FAST.n // 2 :] = 7.0
    for start in (left, -left):
        res = minimize(params, FAST, start=GridFunction(start))
        assert (res.lam, res.iterations, res.evaluations) == (ref.lam, ref.iterations, ref.evaluations)


def test_start_must_match_the_grid_and_be_nonzero():
    params = ProblemParams(2.0, 1.5)
    with pytest.raises(ValueError, match="n = 1200 nodes, got 1201"):
        minimize(params, FAST, start=GridFunction(np.ones(1201)))
    with pytest.raises(ValueError, match="nonzero on its left half"):
        minimize(params, FAST, start=GridFunction(np.zeros(1200)))
    # zero on the left half determines the zero function too
    right = np.zeros(1200)
    right[600:] = 1.0
    with pytest.raises(ValueError, match="nonzero on its left half"):
        minimize(params, FAST, start=GridFunction(right))


@pytest.mark.parametrize("alpha", [2.0, 10.0])
def test_minimize_analyses_nothing_and_the_profile_once(alpha, monkeypatch):
    seen = []
    monkeypatch.setattr("nleig.core.analyze", lambda u: seen.append(u) or analyze(u))
    res = minimize(ProblemParams(alpha, 2.0), FAST)
    assert seen == []
    prof = res.profile
    assert len(seen) == 1
    assert seen[0] is res.minimizer
    assert res.profile is prof
    assert len(seen) == 1


def _degenerate_params(n):
    # at q = 2 the constant-sign branch is base + alpha exactly, base the sampled
    # cosine's quotient, so at alpha = saturation - base the two branches tie
    base = rayleigh_quotient(GridFunction.from_callable(lambda x: np.cos(0.5 * math.pi * x), n), ProblemParams(0.0, 2.0))
    return ProblemParams(saturation_reference(n, 2.0) - base, 2.0)


@pytest.mark.parametrize(
    "params,kind",
    [(ProblemParams(3.0, 1.5), "positive"), (ProblemParams(9.0, 1.5), "sign_changing"), (_degenerate_params(FAST.n), "degenerate")],
)
def test_residual_is_the_euler_lagrange_residual_of_the_result(params, kind):
    res = minimize(params, FAST)
    assert res.degenerate is (kind == "degenerate")
    assert res.profile.sign_class == ("sign_changing" if kind == "sign_changing" else "positive")
    u = res.minimizer
    expected = _euler_lagrange_residual(u.values, res.lam, res.gamma, params.alpha, params.q, 2.0 / (FAST.n + 1))
    assert res.residual == expected  # bit for bit


def test_results_compare_and_hash_by_identity():
    # results hold numpy arrays, which have no single truth value
    params = ProblemParams(3.0, 1.5)
    a, b = minimize(params, FAST), minimize(params, FAST)
    assert a == a and a != b
    assert a.minimizer == a.minimizer and a.minimizer != b.minimizer
    assert len({a, b, a.minimizer, b.minimizer}) == 4


def test_minimizer_values_are_read_only():
    res = minimize(ProblemParams(3.0, 1.5), FAST)
    with pytest.raises(ValueError):
        res.minimizer.values[0] = 1.0
    with pytest.raises(ValueError):
        res.minimizer.values *= 2.0


@pytest.mark.parametrize("alpha,q", [(3.0, 1.5), (9.0, 1.5)])
def test_evaluations_sum_the_restarts(alpha, q):
    n = OPTS.n
    res = minimize(ProblemParams(alpha, q), OPTS)
    iterations, evaluations, _, _ = _counted_descent(_grid(n)[0], alpha, q, n)
    # the odd sine is evaluated once, not descended
    assert (res.iterations, res.evaluations) == (iterations, evaluations + 1)


@pytest.mark.parametrize("n", [100, 101])
def test_constant_sign_minimizer_is_even(n):
    res = minimize(ProblemParams(3.0, 1.5), SolverOptions(n=n))
    v = res.minimizer.values
    assert v.size == n
    assert np.array_equal(v, v[::-1])
    assert abs(res.minimizer.h * float(v @ v) - 1.0) <= 1e-12
    assert res.q_average == pytest.approx(q_average(res.minimizer, 1.5), rel=1e-13)


def test_losing_odd_restart_below_threshold_stops_at_once():
    # at (-50, 1.75) the odd sine, with S = 0, is a critical point of the
    # quotient that loses to the bump: it must cost no descent steps
    assert minimize(ProblemParams(-50.0, 1.75), OPTS).iterations <= 50


# --- closed-form Dirichlet solve -------------------------------------------------

@pytest.mark.parametrize("n", [100, 101, 4000, 4001])
def test_dirichlet_solve_inverts_stiffness(n):
    rng = np.random.default_rng(n)
    m = (n + 1) // 2
    u = rng.standard_normal(m)
    back = _dirichlet_solve(_half_stiffness(u, n), n)
    assert np.linalg.norm(back - u) <= 1e-10 * np.linalg.norm(u)
    r = rng.standard_normal(m)
    fwd = _half_stiffness(_dirichlet_solve(r, n), n)
    assert np.linalg.norm(fwd - r) <= 1e-10 * np.linalg.norm(r)


def _thomas_solve(r, h):
    """Reference: forward elimination and back substitution on tridiag(-1, 2, -1) u = h^2 r."""
    n = len(r)
    diag = [2.0] * n
    rhs = [h * h * float(ri) for ri in r]
    for i in range(1, n):
        m = -1.0 / diag[i - 1]
        diag[i] += m
        rhs[i] -= m * rhs[i - 1]
    u = [0.0] * n
    u[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        u[i] = (rhs[i] + u[i + 1]) / diag[i]
    return np.array(u)


def test_dirichlet_solve_matches_dense_solve():
    # the half solve is the first half of the full solve of the unfolded right-hand side
    rng = np.random.default_rng(0)
    for n in (100, 101):
        h = 2.0 / (n + 1)
        stiffness = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h**2
        r = rng.standard_normal((n + 1) // 2)
        ref = np.linalg.solve(stiffness, _unfold(r, n))
        assert np.linalg.norm(_dirichlet_solve(r, n) - ref[: r.size]) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(_thomas_solve(_unfold(r, n), h) - ref) <= 1e-12 * np.linalg.norm(ref)
    # the production sizes, against the tridiagonal elimination
    for n in (4000, 4001):
        r = rng.standard_normal((n + 1) // 2)
        ref = _thomas_solve(_unfold(r, n), 2.0 / (n + 1))[: r.size]
        assert np.linalg.norm(_dirichlet_solve(r, n) - ref) <= 1e-10 * np.linalg.norm(ref)


# --- per-grid constants -------------------------------------------------------------

@pytest.mark.parametrize("n", [100, 4000])
def test_grid_constants_are_read_only(n):
    bump, sine, _ = _grid(n)
    assert (bump.size, sine.size) == ((n + 1) // 2, n)
    for a in (bump, sine):
        with pytest.raises(ValueError):
            a[0] = 1.0
        with pytest.raises(ValueError):
            a *= 2.0


def test_minimize_repeats_bytes_across_grid_sizes():
    params = ProblemParams(3.0, 1.5)

    def fingerprint(n):
        res = minimize(params, SolverOptions(n=n))
        return res.lam, res.iterations, res.minimizer.values.tobytes()

    first = fingerprint(4000)
    fingerprint(100)
    assert fingerprint(4000) == first


# --- structural invariants --------------------------------------------------------

QS = (1.0, 1.5, 2.0)
ALPHAS = (-2.0, 0.0, 1.0, 3.0, 6.0, 9.0)


@pytest.fixture(scope="module")
def lam_table():
    return {q: [minimize(ProblemParams(a, q), FAST) for a in ALPHAS] for q in QS}


def test_lambda_monotone_in_coupling(lam_table):
    for q in QS:
        lams = [r.lam for r in lam_table[q]]
        assert all(b >= a - 1e-6 for a, b in zip(lams, lams[1:]))


def test_lambda_lipschitz_in_coupling(lam_table):
    for q in QS:
        lams = [r.lam for r in lam_table[q]]
        slope = 2.0 ** ((2.0 - q) / q)
        for (a0, l0), (a1, l1) in zip(zip(ALPHAS, lams), zip(ALPHAS[1:], lams[1:])):
            assert l1 - l0 <= slope * (a1 - a0) + 1e-6


def test_lambda_bounded_by_saturation(lam_table):
    ref = saturation_reference(FAST.n, 1.0)
    for q in QS:
        for r in lam_table[q]:
            assert r.lam <= ref + 1e-9


def test_lambda_diverges_for_strong_negative_coupling():
    for q in QS:
        low = minimize(ProblemParams(-50.0, q), FAST).lam
        mid = minimize(ProblemParams(-10.0, q), FAST).lam
        assert low < mid < 0.0


def test_sign_dichotomy_of_converged_minimizers(lam_table):
    for q in QS:
        for r in lam_table[q]:
            prof = analyze(r.minimizer)
            if prof.sign_class == "sign_changing":
                assert len(prof.zeros) == 1
                assert prof.positive_part_symmetry_defect < 1e-3
                assert prof.negative_part_symmetry_defect < 1e-3


def test_saturated_minimizer_is_sine_for_q_above_one():
    for q in (1.5, 2.0):
        res = minimize(ProblemParams(10.0, q), FAST)
        assert abs(res.q_average) < 1e-6
        sine = np.sin(math.pi * res.minimizer.x)
        assert l2_dist(res.minimizer, sine) < 1e-3


def test_result_carries_the_winners_profile():
    res = minimize(ProblemParams(10.0, 1.5), FAST)
    assert res.profile == analyze(res.minimizer)
    assert res.profile.sign_class == "sign_changing"


# --- coupling threshold ascent -------------------------------------------------------

def _threshold(v, q, sigma):
    """F_sigma(v) = (sigma*M - D)/|S|^(2/q) of the full grid vector v, from core's quotient terms."""
    h = 2.0 / (v.size + 1)
    energy, _, s = quotient_terms(v, h, q)
    return (sigma * h * float(v @ v) - energy) / abs(s) ** (2.0 / q)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("sigma", [0.0, 9.8])
def test_threshold_gradient_matches_finite_differences(q, sigma):
    rng = np.random.default_rng(11)
    for n in SIZES:
        w = _even(lambda x: np.cos(0.5 * math.pi * x) + 0.2 * np.cos(1.5 * math.pi * x), n)
        w = w * 3.0  # F is scale-invariant, its step gradient is not: off the unit sphere
        value, g, rate = threshold_and_gradient(w, n, sigma, q)
        assert -value == pytest.approx(_threshold(_unfold(w, n), q, sigma), rel=1e-13, abs=1e-13)
        h = 2.0 / (n + 1)
        assert rate == pytest.approx(1.0 / abs(_half_average(w, n, q)) ** (2.0 / q), rel=1e-14)
        eps = 1e-6
        for _ in range(3):
            e = rng.standard_normal(w.size)
            fd = (threshold_and_gradient(w + eps * e, n, sigma, q)[0]
                  - threshold_and_gradient(w - eps * e, n, sigma, q)[0]) / (2.0 * eps)
            exact = rate * h * _fold(g, e, n % 2)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_threshold_rejects_all_but_positive_points():
    n = 4000
    bump = _grid(n)[0]
    for w in (_balanced_even(n, 1.5), bump - 0.5 * bump.max(), -bump, 1e-20 * bump):
        assert threshold_and_gradient(w, n, 9.8, 1.5)[:2] == (math.inf, None)


@pytest.mark.parametrize("n", [100, 101, 4000])
def test_threshold_ascent_at_q2_is_the_cosine_in_zero_steps(n):
    # at q = 2, S = M: F_sat = sat - D/M is largest at the discrete first
    # eigenvector, the sampled cosine, which is the bump start
    sat = saturation_reference(n, 2.0)
    up = threshold_ascent(n, 2.0, sat)
    assert up.iterations == 0
    cosine = GridFunction.from_callable(lambda x: np.cos(0.5 * math.pi * x), n)
    base = rayleigh_quotient(cosine, ProblemParams(0.0, 2.0))
    assert abs(up.alpha - (sat - base)) <= 1e-12


_ascent = functools.lru_cache(maxsize=None)(threshold_ascent)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([100, 101, 1000]),
    q=st.sampled_from([1.0, 1.3, 1.5, 1.8, 2.0]),
    power=st.floats(0.5, 3.0),
    coefficients=st.lists(st.floats(-2.0, 2.0), min_size=0, max_size=4),
)
def test_every_positive_even_function_certifies_a_lower_bound(n, q, power, coefficients):
    # cos(pi*x/2)^power * exp(cosine series): positive and even; F_sigma of
    # any such u is at most max F_sigma, the ascent's value
    def f(x):
        series = sum(b * np.cos(k * math.pi * x) for k, b in enumerate(coefficients, start=1))
        return np.cos(0.5 * math.pi * x) ** power * np.exp(series)

    v = GridFunction.from_callable(f, n).values
    v = v + v[::-1]  # even to the last bit
    for sigma in (saturation_reference(n, q), 0.0):
        assert _threshold(v, q, sigma) <= _ascent(n, q, sigma).alpha + 1e-9


@pytest.mark.parametrize("n", [100, 4000])
def test_tie_is_degenerate_at_the_ascent_value_only(n):
    # at the ascent's value the constant-sign branch ties the odd one; a
    # coupling step that lifts it 1e-7 above saturation breaks the tie
    q = 1.5
    sat = saturation_reference(n, q)
    up = threshold_ascent(n, q, sat)
    at = minimize(ProblemParams(up.alpha, q), SolverOptions(n=n))
    assert at.degenerate and at.profile.sign_class == "positive"
    assert abs(at.lam - sat) <= 1e-10
    delta = 1e-7 / abs(q_average(up.maximizer, q)) ** (2.0 / q)
    params = ProblemParams(up.alpha + delta, q)
    branch = _counted_descent(_grid(n)[0], params.alpha, q, n)[3]
    assert 5e-8 <= branch - sat <= 2e-7
    above = minimize(params, SolverOptions(n=n))
    assert not above.degenerate
    assert above.lam == sat

