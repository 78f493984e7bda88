import functools
import math
import re
import time
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
    dirichlet_energy,
    q_average,
    rayleigh_quotient,
    signed_average,
)
from nleig import solver
from nleig.critical import alpha_critical, rescale_lambda
from nleig.solver import (
    SATURATION_BAND,
    SolverNonconvergence,
    SolverOptions,
    _descend,
    _dirichlet_solve,
    _fold,
    _grid,
    _half_energy,
    _S_ROUNDING_BAND,
    _unfold,
    minimize,
    quotient_and_residual,
    saturation_reference,
    threshold_and_residual,
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


@pytest.mark.parametrize("alpha,q", [(-1e200, 1.5), (-1e155, 1.0)])
def test_descent_that_leaves_float64_is_refused(alpha, q):
    # before: the overflowing slope ended the backtracking as a converged
    # start (lambda -1.1532e200 at -1e200, about 8 % off the trend), behind
    # RuntimeWarnings only
    n = 100
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=re.escape(f"alpha={alpha!r}, q={q!r}, n={n}")):
            minimize(ProblemParams(alpha, q), SolverOptions(n=n))
        with pytest.raises(ValueError, match=re.escape(f"alpha={alpha!r}, q={q!r}, n={n}")):
            rescale_lambda(-1.0, 1.0, alpha, q, SolverOptions(n=n))
    assert record == []


@pytest.mark.parametrize("alpha,q,steps", [(-1e150, 1.5, 3067), (-1e16, 2.0, 1), (-1e18, 2.0, 1)])
def test_strongly_negative_couplings_inside_float64_still_converge(alpha, q, steps):
    # before: at -1e18 the unit-step trial cancelled to zero and was normalized
    # 0/0, which raised ValueError; a zero trial is now rejected
    res = minimize(ProblemParams(alpha, q), SolverOptions(n=100))
    assert res.converged and res.iterations == steps
    assert 0.99 < res.lam / alpha < 1.3


@pytest.mark.parametrize("n", [100, 101])
def test_a_trial_that_cancels_to_zero_is_rejected(n):
    # at q = 2 and |alpha| or |sigma| beyond about 1e17 the unit step u - d is
    # exactly 0; before, it was normalized 0/0 and the call raised ValueError
    for alpha in (-1e17, -1e100, -1.7e308):
        res = minimize(ProblemParams(alpha, 2.0), SolverOptions(n=n))
        assert (res.lam, res.iterations, res.evaluations) == (alpha, 1, 4)
    for sigma in (1e17, -1e17, 1e19, 1.7e308):
        assert abs(threshold_ascent(n, 2.0, sigma).alpha - sigma) <= math.ulp(sigma)


@pytest.mark.parametrize("sigma", [1e170, -1e170])
def test_ascent_that_leaves_float64_is_refused(sigma):
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=re.escape(f"sigma={sigma!r}, q=1.5, n=100")):
            threshold_ascent(100, 1.5, sigma)
    assert record == []


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
    # descent stops within 7 steps and loses to the odd sine
    params = ProblemParams(2.0 * PI2, q)
    res = minimize(params, OPTS)
    assert res.converged
    assert res.iterations <= 10
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
    """The half of K v for the even v with half w, by core's full-grid stencil."""
    return apply_stiffness(_unfold(w, n), 2.0 / (n + 1))[: w.size]


def _half_gradient(w, n, r):
    """The half of the gradient 2*(K v + r) that a kernel's residual r stands for."""
    return 2.0 * (_half_stiffness(w, n) + r)


@pytest.mark.parametrize("n", SIZES)
def test_half_stiffness_is_the_unfolded_stencil(n):
    w = np.random.default_rng(n).standard_normal((n + 1) // 2)
    h = 2.0 / (n + 1)
    v = _unfold(w, n)
    energy = _half_energy(w, n)
    assert energy == pytest.approx(dirichlet_energy(v, h), rel=1e-13)
    # D = h*v.(K v), the identity that makes the descent's slope 2*D(d)
    assert energy == pytest.approx(h * float(v @ apply_stiffness(v, h)), rel=1e-12)


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
        value, r, rate = quotient_and_residual(w, n, alpha, q)
        g = _half_gradient(w, n, r)
        assert rate == 1.0
        assert value == pytest.approx(rayleigh_quotient(u, ProblemParams(alpha, q)), rel=1e-14)
        eps = 1e-6
        for _ in range(3):
            e = rng.standard_normal(w.size)
            fd = (quotient_and_residual(w + eps * e, n, alpha, q)[0]
                  - quotient_and_residual(w - eps * e, n, alpha, q)[0]) / (2.0 * eps)
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
    value, r, _ = quotient_and_residual(w, n, 8.0, q)
    g = _half_gradient(w, n, r)
    local = 2.0 * (_half_stiffness(w, n) - value * w)
    assert np.linalg.norm(g - local) <= 1e-12 * np.linalg.norm(_half_stiffness(w, n))


def test_small_real_average_keeps_the_nonlocal_gradient():
    # S of about 1.8e-9 is a real average, of the size an iterate carries on
    # its way across S = 0: at q = 2 its term alpha*sign(S)*|v| stays
    n, alpha = 4000, 8.0
    w = _balanced_even(n, 2.0) + 2e-10 * _even(lambda x: np.cos(0.5 * math.pi * x), n)
    s = q_average(GridFunction(_unfold(w, n)), 2.0)
    assert 1e-9 < s < 1e-8
    value, r, _ = quotient_and_residual(w, n, alpha, 2.0)
    g = _half_gradient(w, n, r)
    full = 2.0 * (_half_stiffness(w, n) + alpha * np.abs(w) - value * w)
    assert np.linalg.norm(g - full) <= 1e-12 * np.linalg.norm(full)


def test_average_of_1e_11_keeps_the_nonlocal_gradient():
    # |S| of about 1e-11 lies three orders above the rounding band and two
    # below the 1.8e-9 above: at q = 2 the term alpha*sign(S)*|v| still stays
    n, alpha = 4000, 8.0
    w = _balanced_even(n, 2.0) + 1.2e-12 * _even(lambda x: np.cos(0.5 * math.pi * x), n)
    s = _half_average(w, n, 2.0)
    assert 5e-12 < s < 5e-11
    value, r, _ = quotient_and_residual(w, n, alpha, 2.0)
    g = _half_gradient(w, n, r)
    full = 2.0 * (_half_stiffness(w, n) + alpha * np.abs(w) - value * w)
    assert np.linalg.norm(g - full) <= 1e-12 * np.linalg.norm(full)


# --- descent work -----------------------------------------------------------------

def _quotient_descent(w0, alpha, q, n=4000, floor=None):
    """_descend of the quotient from the half w0: (half, value, iterations, evaluations, converged).

    The floor is minimize's, the sine's value plus the saturation band,
    unless given; math.inf runs the descent to its tolerance.
    """
    if floor is None:
        floor = saturation_reference(n, q) + SATURATION_BAND
    return _descend(w0, n, functools.partial(quotient_and_residual, n=n, alpha=alpha, q=q), floor)


def _counted_descent(w0, alpha, q, n=4000, floor=None):
    """Run _descend from the half w0; returns (iterations, evaluations, converged, value)."""
    _, value, iterations, evaluations, converged = _quotient_descent(w0, alpha, q, n, floor)
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
def test_stored_sine_stands_in_for_its_descent(q, alpha, n):
    # a descent from the stored sine stops at its first evaluation, the full
    # quotient with the sine's rounding residue S; the stored value takes
    # S = 0, so the two differ by that residue's term alone
    _, sine, stored = _grid(n)
    params = ProblemParams(alpha, q)
    assert saturation_reference(n, q) == stored
    full = rayleigh_quotient(GridFunction(sine), params)
    residue = abs(q_average(GridFunction(sine), q)) ** (2.0 / q)
    assert abs(stored - full) <= abs(alpha) * residue + 1e-15 * full
    # above alpha_q the sine wins, as a copy with S = 0
    if alpha >= 9.0:
        res = minimize(params, SolverOptions(n))
        assert (res.lam, res.converged) == (stored, True)
        assert (res.q_average, res.gamma) == (0.0, 0.0)
        assert np.array_equal(res.minimizer.values, sine)
        assert not np.shares_memory(res.minimizer.values, sine)  # a copy, not the stored start


@pytest.mark.parametrize("n", [100, 101, 1200, 4000, 4001])
def test_saturation_is_the_discrete_sine_eigenvalue(n):
    # the sampled sin(pi*x) is an eigenvector of the Dirichlet stencil, with
    # eigenvalue (4/h^2)*sin^2(pi*h/2), h = 2/(n + 1)
    closed = (n + 1) ** 2 * math.sin(math.pi / (n + 1)) ** 2
    for q in (1.0, 1.5, 2.0):
        assert abs(saturation_reference(n, q) - closed) <= 1e-14 * closed


@pytest.mark.parametrize("n", [100, 4000, 12345])
def test_stored_sine_has_rounding_level_average(n):
    sine = _grid(n)[1]
    for q in (1.0, 1.5, 2.0):
        assert abs(signed_average(sine, 2.0 / (n + 1), q)) <= _S_ROUNDING_BAND


@pytest.mark.parametrize("n", [100, 4000, 4001])
@pytest.mark.parametrize("q", [1.0, 1.5, 1.8, 2.0])
@pytest.mark.parametrize("alpha", [50.0, 1e2, 1e6, 1e9, 1e12])
def test_saturated_lambda_does_not_drift_with_alpha(alpha, q, n):
    # a bump descent at alpha itself creeps along the kink S = 0: for 31 000
    # to 37 000 steps at (1e2, 1.5), to the 50 000-step cap (3 to 6 s) at
    # (1e6, 1); every alpha here descends at 2*pi^2 instead, in at most 20
    # steps, and loses to the sine
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = minimize(ProblemParams(alpha, q), SolverOptions(n=n))
    assert time.perf_counter() - start < 0.1
    assert res.lam == saturation_reference(n, q)
    assert (res.params, res.converged, res.degenerate) == (ProblemParams(alpha, q), True, False)
    top = _quotient_descent(_grid(n)[0], solver.ALPHA_TOP, q, n)
    assert (res.iterations, res.evaluations) == (top[2], top[3] + 1)


@pytest.mark.parametrize("q", [1.0, 1.02, 1.05, 1.1, 1.15, 1.2, 1.25, 1.3, 1.35, 1.4])
def test_bump_descent_above_the_critical_coupling_at_small_q_is_bounded(q):
    # above alpha_q the bump descent crosses S = 0 and can creep along the
    # kink; with the one descent at min(alpha, 2*pi^2) the most measured on
    # this grid is 37 steps, at (15, 1.25).  A stop rule that judged only
    # full steps took 329, at (2*pi^2, 1.2)
    for alpha in (6.0, 8.0, 10.0, 12.0, 15.0, 17.0, 2.0 * PI2):
        assert minimize(ProblemParams(alpha, q), SolverOptions()).iterations <= 60


@pytest.mark.parametrize("q", [1.0, 1.2])
@pytest.mark.parametrize("alpha", [2.0 * PI2, 50.0])
def test_losing_descent_is_stopped_after_a_partial_step(alpha, q):
    # at 2*pi^2 the line search of these losing descents accepts a quarter
    # step at almost every step after the first one or two; a stop rule that
    # judged only full steps let them run to the tolerance, 60 steps at q = 1
    # and 329 at q = 1.2
    res = minimize(ProblemParams(alpha, q), OPTS)
    assert (res.lam, res.converged, res.degenerate) == (saturation_reference(OPTS.n, q), True, False)
    assert res.iterations <= 20


@pytest.mark.parametrize("n", [100, 101])
@pytest.mark.parametrize("alpha", [-5.0, 3.0, 2.0 * PI2, 50.0, 1e6])
def test_minimize_descends_once(alpha, n, monkeypatch):
    # every solve is one descent, at min(alpha, 2*pi^2), from the bump or
    # from a start, whichever branch wins, with the floor sine + band
    seen = []

    def counted(w, n, kernel, floor):
        seen.append((kernel.keywords["alpha"], floor))
        return _descend(w, n, kernel, floor)

    monkeypatch.setattr(solver, "_descend", counted)
    mixed = GridFunction.from_callable(lambda x: np.cos(0.5 * math.pi * x) + 0.3 * np.cos(1.5 * math.pi * x), n)
    for start in (None, mixed):
        seen.clear()
        minimize(ProblemParams(alpha, 1.5), SolverOptions(n), start=start)
        assert seen == [(min(alpha, solver.ALPHA_TOP), saturation_reference(n, 1.5) + SATURATION_BAND)]


def test_capped_losing_descent_is_reported(monkeypatch):
    # a loser that reaches the cap must say so, naming the alpha asked for.
    # At a cap of 1 no step is left for the stop rule to judge, at alpha = 15
    # and at alpha = 50, which descends at 2*pi^2.  At 1e-6 above alpha_q the
    # bump descent closes on its value, 1.13e-6 above the sine, fast enough
    # that the rule never stops it before a cap of 4
    n, q = 100, 1.5
    sat = saturation_reference(n, q)
    near = threshold_ascent(n, q, sat).alpha + 1e-6
    for alpha, cap in ((15.0, 1), (50.0, 1), (near, 4)):
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", cap)
        with pytest.warns(RuntimeWarning, match=re.escape(f"the losing descent hit the iteration cap {cap} at (alpha={alpha}, q=1.5, n=100)")):
            res = minimize(ProblemParams(alpha, q), SolverOptions(n=n))
        assert res.converged
        assert res.iterations == cap
        assert res.lam == sat


def test_losing_descent_stopped_by_the_rule_is_converged(monkeypatch):
    # at (15, 1.5, 100) the bump descent ends 9.45 above the sine after 7
    # steps; the rule stops it after 4, once 49 996 more steps of its last
    # decrease could not bring it down to the floor.  At a cap of 5 it stops
    # after 1, with 4 steps left.  Either way it loses converged, with no warning
    n, q = 100, 1.5
    sat = saturation_reference(n, q)
    full = _counted_descent(_grid(n)[0], 15.0, q, n, floor=math.inf)
    assert full[0] == 7 and full[2] and full[3] > sat + 9.0
    for cap, steps in ((solver._MAX_ITERATIONS, 4), (5, 1)):
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", cap)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = minimize(ProblemParams(15.0, q), SolverOptions(n=n))
        assert (res.lam, res.converged, res.degenerate, res.iterations) == (sat, True, False, steps)


def test_capped_descent_that_ties_the_sine_loses(monkeypatch):
    # a capped, sign-changing descent within 10*_LAMBDA_TOL*max(1, |lambda|)
    # of the sine ties it to rounding level and loses, with a warning; one
    # further below wins, and its cap raises
    n = 100
    sat = saturation_reference(n, 1.5)
    bump = _grid(n)[0]
    changing = bump - 0.5 * bump.max()
    for gap, wins in ((1e-12, False), (1e-6, True)):
        monkeypatch.setattr(solver, "_descend", lambda w, n, kernel, floor: (changing, sat - gap, 100, 150, False))
        if wins:
            with pytest.raises(SolverNonconvergence) as info:
                minimize(ProblemParams(50.0, 1.5), SolverOptions(n=n))
            assert info.value.result.lam == sat - gap
        else:
            with pytest.warns(RuntimeWarning, match="the losing descent hit the iteration cap") as record:
                res = minimize(ProblemParams(50.0, 1.5), SolverOptions(n=n))
            assert len(record) == 1
            assert (res.lam, res.converged, res.degenerate, res.q_average) == (sat, True, False, 0.0)


def _decision(res):
    """What a solve decides: lambda, S, the flags and the winner's bytes."""
    return res.lam, res.q_average, res.degenerate, res.converged, res.minimizer.values.tobytes()


@pytest.mark.parametrize("n", [100, 101])
def test_the_stop_rule_keeps_every_decision(n, monkeypatch):
    # minimize against the same descent run to its tolerance, with no floor:
    # near alpha_q, where a loser ends a hair above the floor, from the bump
    # and from two starts near the kink S = 0; above alpha_q at small q,
    # where losers take partial steps; and at random inputs.  A rule that
    # guessed the rest of the descent from the ratio of its last two
    # decreases failed here, at alpha_q - 1e-9 and at alpha_q
    opts = SolverOptions(n=n)
    kinked = [
        GridFunction.from_callable(lambda x: np.cos(0.5 * math.pi * x) - 0.6, n),
        GridFunction.from_callable(lambda x: np.cos(0.5 * math.pi * x) + 2.9 * np.cos(1.5 * math.pi * x), n),
    ]
    inputs = []
    for q in (1.0, 1.02, 1.3, 1.5, 1.8, 2.0):
        aq = alpha_critical(q, 0.04, opts).alpha_q
        inputs += [(aq + d, q, start) for d in (-1e-3, -1e-9, 0.0, 1e-9, 1e-3, 1.0) for start in [None] + kinked]
    inputs += [(a, q, None) for a in (15.0, 17.0, 2.0 * PI2, 50.0) for q in (1.0, 1.05, 1.2, 1.25)]
    rng = np.random.default_rng(n)
    inputs += [(float(a), float(q), None) for a, q in zip(rng.uniform(-30.0, 25.0, 40), rng.uniform(1.0, 2.0, 40))]
    stopped = [minimize(ProblemParams(a, q), opts, start) for a, q, start in inputs]
    monkeypatch.setattr(solver, "_descend", lambda w, n, kernel, floor: _descend(w, n, kernel))
    full = [minimize(ProblemParams(a, q), opts, start) for a, q, start in inputs]
    for (a, q, start), res, ref in zip(inputs, stopped, full):
        assert _decision(res) == _decision(ref), (a, q, start is None)
        assert res.iterations <= ref.iterations, (a, q, start is None)
    assert sum(r.iterations for r in stopped) < sum(r.iterations for r in full)


@pytest.mark.parametrize(
    "alpha,q,n,counts",
    [
        (3.0, 1.5, 4000, (4, 6)),
        (-5.0, 1.2, 4000, (4, 6)),
        (7.16, 1.947, 4001, (3, 5)),
        (9.0, 1.5, 101, (3, 5)),
        (4.99139, 1.0251, 4000, (7, 9)),
        (-20.0, 1.25, 4000, (9, 11)),
    ],
)
def test_exact_step_and_evaluation_counts(alpha, q, n, counts):
    # (iterations, evaluations) of minimize, the odd sine counting (0, 1);
    # a change to the line search, the extrapolation or the stop rule of a
    # losing descent moves them.  At
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
    # the bump descent crosses S = 0 here; secant steps across the kink sent
    # it to the iteration cap, against 18 steps without them
    iterations, _, converged, _ = _counted_descent(_grid(1200)[0], 1000.0, 1.65, n=1200, floor=math.inf)
    assert converged
    assert iterations <= 50


@pytest.mark.parametrize(
    "alpha,q,start",
    [(2.0, 1.5, "winner"), (-5.0, 1.2, "winner"), (2.0 * PI2, 2.0, "loser")],
)
def test_descent_started_at_its_minimum_makes_at_most_two_evaluations(alpha, q, start):
    n = OPTS.n
    if start == "winner":
        w0 = minimize(ProblemParams(alpha, q), OPTS).minimizer.values[: (n + 1) // 2]
    else:
        # the end point of the bump descent run to its tolerance, which loses to the odd sine here
        w0 = _quotient_descent(_grid(n)[0], alpha, q, n, floor=math.inf)[0]
    _, evaluations, converged, _ = _counted_descent(w0, alpha, q, floor=math.inf)
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
def test_evaluations_count_the_descent_and_the_sine(alpha, q):
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


def test_losing_odd_sine_below_threshold_is_not_descended():
    # at (-50, 1.75) the odd sine, with S = 0, is a critical point of the
    # quotient that loses to the bump: it is evaluated, not descended, so the
    # steps are the bump descent's alone (6 here)
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


def _thomas_solve(r, h, dtype=np.float64):
    """Reference: forward elimination and back substitution on tridiag(-1, 2, -1) u = h^2 r, in dtype."""
    n = len(r)
    h = dtype(h)
    diag = np.full(n, dtype(2.0))
    rhs = h * h * np.asarray(r, dtype=dtype)
    for i in range(1, n):
        m = -1.0 / diag[i - 1]
        diag[i] += m
        rhs[i] -= m * rhs[i - 1]
    u = np.zeros(n, dtype=dtype)
    u[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        u[i] = (rhs[i] + u[i + 1]) / diag[i]
    return u


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


def _full_step(u, r, n):
    """The half of the full-grid solution d of K d = K v + r, for the even v and r with halves u and r.

    K v + r is formed and solved in long double: at n = 4000 the float64
    product K v alone carries about cond(K)*eps = 4e-12 of relative error
    into d, above the bound the step is held to.
    """
    h = 2.0 / (n + 1)
    v = _unfold(u, n).astype(np.longdouble)
    kv = 2.0 * v
    kv[:-1] -= v[1:]
    kv[1:] -= v[:-1]
    kv /= np.longdouble(h) ** 2
    return _thomas_solve(kv + _unfold(r, n), h, np.longdouble)[: u.size]


@pytest.mark.parametrize("n", SIZES)
def test_step_is_the_solve_of_the_gradient(n):
    # the descent's step u + K^-1 r is K^-1 of the half gradient (K u + r),
    # for both kernels, on the bump start and on a rough positive even w
    m = (n + 1) // 2
    sigma = saturation_reference(n, 1.5)
    for w in (_grid(n)[0], np.random.default_rng(n).uniform(0.5, 1.5, m)):
        for kernel in (quotient_and_residual(w, n, 4.0, 1.5), threshold_and_residual(w, n, sigma, 1.5)):
            r = kernel[1]
            d = _dirichlet_solve(r, n) + w
            ref = _full_step(w, r, n)
            assert float(np.linalg.norm(d - ref)) <= 1e-12 * float(np.linalg.norm(ref))


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
                assert prof.odd_defect < 1e-3


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
    return (sigma * h * float(v @ v) - dirichlet_energy(v, h)) / abs(signed_average(v, h, q)) ** (2.0 / q)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("sigma", [0.0, 9.8])
def test_threshold_gradient_matches_finite_differences(q, sigma):
    rng = np.random.default_rng(11)
    for n in SIZES:
        w = _even(lambda x: np.cos(0.5 * math.pi * x) + 0.2 * np.cos(1.5 * math.pi * x), n)
        w = w * 3.0  # F is scale-invariant, its step gradient is not: off the unit sphere
        value, r, rate = threshold_and_residual(w, n, sigma, q)
        g = _half_gradient(w, n, r)
        assert -value == pytest.approx(_threshold(_unfold(w, n), q, sigma), rel=1e-13, abs=1e-13)
        h = 2.0 / (n + 1)
        assert rate == pytest.approx(1.0 / abs(_half_average(w, n, q)) ** (2.0 / q), rel=1e-14)
        eps = 1e-6
        for _ in range(3):
            e = rng.standard_normal(w.size)
            fd = (threshold_and_residual(w + eps * e, n, sigma, q)[0]
                  - threshold_and_residual(w - eps * e, n, sigma, q)[0]) / (2.0 * eps)
            exact = rate * h * _fold(g, e, n % 2)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_threshold_rejects_all_but_positive_points():
    n = 4000
    bump = _grid(n)[0]
    for w in (_balanced_even(n, 1.5), bump - 0.5 * bump.max(), -bump, 1e-20 * bump):
        assert threshold_and_residual(w, n, 9.8, 1.5)[:2] == (math.inf, None)


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


@pytest.mark.parametrize("n", [100, 101, 4000])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_saturation_ascent_from_the_closed_form_maximizer_takes_no_step(q, n):
    # the bump raised to 2/q is the sampled cosine at q = 2 and the
    # flat-family member (1 + cos(pi*x))/2 at q = 1, the discrete maximizers
    # of F_sat; from the bump the q = 1 ascent takes 7 steps to within
    # 1.2e-12 of it
    sat = saturation_reference(n, q)
    up = threshold_ascent(n, q, sat, power=2.0 / q)
    assert up.iterations == 0
    closed = GridFunction.from_callable(lambda x: np.cos(0.5 * math.pi * x) ** (2.0 / q), n)
    unit = closed.values / math.sqrt(closed.h * float(closed.values @ closed.values))
    assert np.allclose(up.maximizer.values, unit, rtol=0.0, atol=1e-14)
    bump = threshold_ascent(n, q, sat)
    assert bump.iterations == (7 if q == 1.0 else 0)
    assert abs(up.alpha - bump.alpha) <= 2e-12


@pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_threshold_ascent_power_must_be_finite_and_positive(power):
    with pytest.raises(ValueError, match="power must be finite and positive"):
        threshold_ascent(100, 1.5, 9.0, power=power)


@pytest.mark.parametrize(
    "n, q, sigma, match",
    [
        (4000, math.nan, 9.0, "q must lie in"),
        (4000, 2.5, 9.0, "q must lie in"),
        (99, 1.5, 9.0, "n must be at least 100"),
        (4000, 1.5, math.nan, "sigma must be finite"),
        (4000, 1.5, math.inf, "sigma must be finite"),
    ],
)
def test_threshold_ascent_checks_its_inputs(n, q, sigma, match):
    # a NaN q or sigma would otherwise come back as a NaN alpha from a
    # "converged" 0-step ascent
    with pytest.raises(ValueError, match=match):
        threshold_ascent(n, q, sigma)


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
    branch = _counted_descent(_grid(n)[0], params.alpha, q, n, floor=math.inf)[3]
    assert 5e-8 <= branch - sat <= 2e-7
    above = minimize(params, SolverOptions(n=n))
    assert not above.degenerate
    assert above.lam == sat

