import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest

import nleig.critical as critical
from nleig.branches import alpha_zero_exact, q1_eigenvalue_of_coupling
from nleig.core import GridFunction, ProblemParams, analyze, is_constant_sign, rayleigh_quotient
from nleig.critical import (
    BracketViolation,
    alpha_critical,
    alpha_zero,
    lower_bound,
    rescale_lambda,
)
from nleig import solver
from nleig.solver import SolverNonconvergence, SolverOptions, ThresholdAscent, minimize, saturation_reference, threshold_ascent

PI2 = math.pi**2
OPTS = SolverOptions()
GRID_NS = (100, 101, 400, 4000, 4001)


def _grid_h(n):
    return 2.0 / (n + 1)


# grid-exact forms.  q = 2: the constant-sign quotient is D/M + alpha, so the
# zero crossing is minus the bump's discrete Dirichlet eigenvalue and alpha_2
# is the sine's minus it.  q = 1: the dual minimizer is K^-1 1 = (1 - x^2)/2
# at the nodes (the stencil is exact on quadratics), whose trapezoid sum is
# 2/3 - h^2/6; lambda(alpha, 1) is the smallest eigenvalue of K +
# alpha*h*11^T, so alpha_1 solves its secular equation at the sine's value
# mu_2: 1 + alpha*h^2*sum_{k odd} cot^2(k*pi*h/4)/(mu_k - mu_2) = 0.
def _grid_alpha_zero_q2(n):
    h = _grid_h(n)
    return -(4.0 / h**2) * math.sin(math.pi * h / 4.0) ** 2


def _grid_alpha_zero_q1(n):
    return -6.0 / (4.0 - _grid_h(n) ** 2)


def _grid_alpha_critical_q1(n):
    h = _grid_h(n)
    theta = np.arange(1, n + 1, 2) * (math.pi * h / 4.0)
    mu = (4.0 / h**2) * np.sin(theta) ** 2
    mu2 = (4.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2
    return -1.0 / (h**2 * float(np.sum(1.0 / (np.tan(theta) ** 2 * (mu - mu2)))))


def _grid_alpha_critical_q2(n):
    h = _grid_h(n)
    return (4.0 / h**2) * (math.sin(math.pi * h / 2.0) ** 2 - math.sin(math.pi * h / 4.0) ** 2)


# constant-sign and sign-changing maximizers for fake ascents: the bump, and
# the bump with its last node negated, which changes sign far outside the
# roundoff band but keeps its quotient at q = 1.5 below saturation up to
# alpha = 5.98 (by 0.11)
BUMP = GridFunction.from_callable(lambda x: np.cos(0.5 * math.pi * x), 100)
DIPPED = GridFunction(np.append(BUMP.values[:-1], -BUMP.values[-1]))


# --- alpha_critical -----------------------------------------------------------

def test_critical_coupling_q1(crit):
    res = crit(1.0)
    assert abs(res.alpha_q - PI2 / 2) <= 1e-2 * PI2 / 2
    assert res.bracket[0] <= res.alpha_q <= res.bracket[1]
    assert res.bracket[1] - res.bracket[0] <= 0.04


def test_critical_coupling_q2(crit):
    res = crit(2.0)
    assert abs(res.alpha_q - 0.75 * PI2) <= 1e-2 * 0.75 * PI2


def test_critical_coupling_q15_lands_in_the_theory_window(crit):
    res = crit(1.5)
    assert lower_bound(1.5) <= res.alpha_q <= 2 * PI2


@pytest.mark.parametrize("q", [1.25, 1.5, 1.75])
def test_lower_bound_respected(crit, q):
    assert crit(q).alpha_q >= lower_bound(q) - 0.04


def test_lower_bound_attained_at_q2(crit):
    assert abs(crit(2.0).alpha_q - lower_bound(2.0)) <= 0.04 + 1e-6


def test_threshold_dichotomy(crit):
    q = 1.5
    aq = crit(q).alpha_q
    sat = saturation_reference(OPTS.n, q)
    delta = 10.0 * abs(sat - PI2) + 1e-8
    below = minimize(ProblemParams(aq - 0.5, q), OPTS)
    assert analyze(below.minimizer).sign_class != "sign_changing"
    assert below.lam < PI2 - delta
    above = minimize(ProblemParams(aq + 0.5, q), OPTS)
    prof = analyze(above.minimizer)
    assert abs(above.q_average) < 1e-6
    assert prof.odd_defect < 1e-3


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
def test_branch_coexistence_at_threshold(crit, q):
    aq = crit(q).alpha_q
    # the constant-sign branch's value, by the descent alone, against the odd sine's
    n = OPTS.n
    kernel = functools.partial(solver.quotient_and_residual, n=n, alpha=aq, q=q)
    lam_pos = solver._descend(solver._grid(n)[0], n, kernel)[1]
    lam_odd = saturation_reference(n, q)
    assert abs(lam_pos - lam_odd) <= 10 * 0.04 * PI2


def test_alpha_critical_rejects_loose_inputs():
    with pytest.raises(ValueError):
        alpha_critical(1.5, 1e-5, OPTS)
    with pytest.raises(ValueError):
        alpha_critical(2.5, 0.04, OPTS)
    # a tol wider than the search window [lower_bound - 0.1, 2*pi^2] or not finite
    window = 2.0 * PI2 - lower_bound(1.5) + 0.1
    for tol in (math.nan, math.inf, 1e300, 1.01 * window):
        with pytest.raises(ValueError, match="tol"):
            alpha_critical(1.5, tol, OPTS)


def _fake_ascent(alpha, maximizer=BUMP):
    return lambda n, q, sigma, power=1.0: ThresholdAscent(alpha, maximizer, 3)


@pytest.mark.parametrize(
    "ascent, message",
    [
        # the bump's quotient at alpha = 9.98 lies far above saturation
        (_fake_ascent(10.0), "no unsaturated constant-sign minimizer at alpha"),
        # a sign-changing maximizer cannot certify the lower end, even below saturation
        pytest.param(
            _fake_ascent(6.0, DIPPED),
            "no unsaturated constant-sign minimizer at alpha = 5.98",
            id="sign-changing maximizer",
        ),
        # the bump certifies alpha = 5.98; the upper solve, lambda = 0, is unsaturated
        (_fake_ascent(6.0), "not saturated at alpha"),
    ],
)
def test_bracket_violation(monkeypatch, ascent, message):
    starts = []

    def fake_minimize(params, opts, start=None):
        starts.append(start)
        return SimpleNamespace(lam=0.0, q_average=1.0, minimizer=BUMP)

    monkeypatch.setattr(critical, "threshold_ascent", ascent)
    monkeypatch.setattr(critical, "minimize", fake_minimize)
    with pytest.raises(BracketViolation, match=message):
        alpha_critical(1.5, 0.04, SolverOptions(n=100))
    # the lower end is certified without a solve; the upper end is solved
    # from the ascent's maximizer
    assert starts == ([BUMP] if message.startswith("not saturated") else [])


@pytest.mark.parametrize("q", [math.nan, 3.0])
def test_lower_bound_checks_q(q):
    # before: nan and 9.33
    with pytest.raises(ValueError, match="q must lie in"):
        lower_bound(q)


@pytest.mark.parametrize("alpha", [lower_bound(1.5) - 0.1 - 1e-9, 2 * PI2 + 1e-9, -math.inf, math.nan])
def test_ascent_outside_the_window_is_a_bracket_violation(monkeypatch, alpha):
    def no_minimize(params, opts, start=None):
        raise AssertionError("no confirming solve after a window violation")

    monkeypatch.setattr(critical, "threshold_ascent", _fake_ascent(alpha))
    monkeypatch.setattr(critical, "minimize", no_minimize)
    with pytest.raises(BracketViolation, match="outside the search window"):
        alpha_critical(1.5, 0.04, SolverOptions(n=100))


def test_critical_coupling_q1_closed_form_tight(crit):
    assert abs(crit(1.0).alpha_q - PI2 / 2) <= 1e-5
    for n in GRID_NS:
        exact = _grid_alpha_critical_q1(n)
        assert abs(alpha_critical(1.0, 0.04, SolverOptions(n=n)).alpha_q - exact) <= 1e-12 * exact


def test_critical_coupling_q2_closed_form_tight(crit):
    assert abs(crit(2.0).alpha_q - 0.75 * PI2) <= 1e-5
    for n in GRID_NS:
        exact = _grid_alpha_critical_q2(n)
        assert abs(alpha_critical(2.0, 0.04, SolverOptions(n=n)).alpha_q - exact) <= 1e-12 * exact


@pytest.mark.parametrize("q", [1.25, 1.5])
def test_critical_coupling_two_grid_order(q):
    a1000, a2000, a4000 = (alpha_critical(q, 1e-4, SolverOptions(n=n)).alpha_q for n in (1000, 2000, 4000))
    ratio = (a1000 - a2000) / (a2000 - a4000)
    assert 3.5 <= ratio <= 4.5


def _recorded_search(monkeypatch, q, n, tol=0.04):
    # alpha_critical through a minimize and an ascent that record every call
    calls = []
    ascents = []

    def recording_minimize(params, opts, start=None):
        res = minimize(params, opts, start=start)
        calls.append((params.alpha, opts, start, res))
        return res

    def recording_ascent(n, q, sigma, power=1.0):
        up = threshold_ascent(n, q, sigma, power)
        ascents.append((sigma, power, up))
        return up

    monkeypatch.setattr(critical, "minimize", recording_minimize)
    monkeypatch.setattr(critical, "threshold_ascent", recording_ascent)
    return alpha_critical(q, tol, SolverOptions(n=n)), ascents, calls


# no search solves at 2 pi^2: saturation there follows from the confirming
# solve above alpha_q, since lambda is nondecreasing in alpha
@pytest.mark.parametrize("q", [1.0, 1.2, 1.25, 1.3, 1.5, 1.75, 2.0])
def test_search_mechanics(monkeypatch, q):
    tol = 0.04
    for n in (100, 101, 4000, 4001):
        res, ascents, calls = _recorded_search(monkeypatch, q, n, tol)
        sat = saturation_reference(n, q)
        # one ascent at the saturation value (converged, or it raises) from
        # the bump raised to 2/q, whose value is alpha_q
        [(sigma, power, up)] = ascents
        assert (sigma, power) == (sat, 2.0 / q)
        assert res.alpha_q == up.alpha
        # one full confirming solve, at alpha_q + tol/2 rounded inward, from the maximizer
        assert res.solver_calls == len(calls) == 1
        lo, hi = res.bracket
        [(a, opts, confirm_start, above)] = calls
        assert (a, opts) == (hi, SolverOptions(n=n))
        assert confirm_start is up.maximizer
        assert hi - lo <= tol
        assert lo < res.alpha_q < hi
        assert abs((hi - lo) - tol) <= 4 * math.ulp(res.alpha_q)
        assert res.iterations == up.iterations + above.iterations
        # the maximizer certifies the lower end: constant-sign, quotient below saturation
        assert is_constant_sign(up.maximizer.values)
        assert rayleigh_quotient(up.maximizer, ProblemParams(lo, q)) < sat
        assert abs(above.lam - sat) <= 1e-9


@pytest.mark.parametrize("n", [100, 101, 4000, 4001])
def test_warm_confirming_solve_matches_the_cold_one(monkeypatch, n):
    # the confirming solve starts from the ascent's maximizer; its lambda is a
    # cold one, and the maximizer's quotient bounds the cold lambda at the lower end
    opts = SolverOptions(n=n)
    for q in (1.0, 1.05, 1.2, 1.35, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0):
        res, [(_, _, up)], [(alpha, _, _, above)] = _recorded_search(monkeypatch, q, n)
        lam = above.lam
        assert abs(lam - minimize(ProblemParams(alpha, q), opts).lam) <= 1e-11 * max(1.0, abs(lam))
        lo = res.bracket[0]
        lam_lo = minimize(ProblemParams(lo, q), opts).lam
        assert lam_lo <= rayleigh_quotient(up.maximizer, ProblemParams(lo, q)) + 1e-11 * max(1.0, abs(lam_lo))


def test_search_iterations_are_pinned(monkeypatch):
    # 5 ascent steps, then 2 steps in the confirming solve, whose losing
    # descent the stop rule ends (3 steps when run to its tolerance)
    res, [(_, _, up)], calls = _recorded_search(monkeypatch, 1.5, 4000)
    assert (up.iterations, [r.iterations for *_, r in calls]) == (5, [2])
    assert res.iterations == 7


@pytest.mark.parametrize("n", [100, 101, 4000])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_search_starts_the_ascent_at_its_maximizer_at_both_ends(monkeypatch, q, n):
    # cos(pi*x/2)^(2/q) is the discrete maximizer of F_sat at q = 2, the
    # sampled cosine, and at q = 1, the flat-family member (1 + cos(pi*x))/2:
    # the search's ascent takes no step
    res, [(_, _, up)], [(*_, above)] = _recorded_search(monkeypatch, q, n)
    assert up.iterations == 0
    assert res.iterations == above.iterations


def test_ascent_step_cap(monkeypatch):
    # the ascent needs about five steps at q = 1.5; capped at two it must
    # raise, before any confirming solve
    def no_minimize(params, opts, start=None):
        raise AssertionError("no confirming solve after a capped ascent")

    monkeypatch.setattr(solver, "_MAX_ITERATIONS", 2)
    monkeypatch.setattr(critical, "minimize", no_minimize)
    with pytest.raises(SolverNonconvergence, match="reached its iteration cap after 2 steps") as info:
        alpha_critical(1.5, 0.04, SolverOptions(n=100))
    assert isinstance(info.value.result, ThresholdAscent)
    assert info.value.result.iterations == 2
    with pytest.raises(SolverNonconvergence, match="reached its iteration cap after 2 steps"):
        alpha_zero(1.5, SolverOptions(n=100))


# --- alpha_zero and duality -----------------------------------------------------

def test_zero_crossing_q2_matches_poincare_shift():
    # on the q = 2 constant-sign branch lambda = pi^2/4 + alpha, so the zero
    # crossing sits at -pi^2/4, and on the grid at minus the discrete eigenvalue
    a0 = alpha_zero(2.0, OPTS)
    assert abs(a0 + PI2 / 4) <= 1e-3 * PI2 / 4
    for n in GRID_NS:
        exact = _grid_alpha_zero_q2(n)
        assert abs(alpha_zero(2.0, SolverOptions(n=n)) - exact) <= 1e-12 * abs(exact)


def test_zero_crossing_q1_matches_parabola_oracle():
    # the dual quotient at q = 1 is minimized by 1 - x^2, giving exactly 3/2,
    # and on the grid -6/(4 - h^2)
    a0 = alpha_zero(1.0, OPTS)
    assert abs(a0 + 1.5) <= 1e-3 * 1.5
    for n in GRID_NS:
        exact = _grid_alpha_zero_q1(n)
        assert abs(alpha_zero(1.0, SolverOptions(n=n)) - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("q", [1.0, 1.5])
def test_zero_crossing_root_quality(q):
    tol = 1e-3
    a0 = alpha_zero(q, OPTS)
    assert a0 < 0.0
    lam = minimize(ProblemParams(a0, q), OPTS).lam
    assert -tol < lam < tol


def test_alpha_zero_exact_closed_values():
    # q = 1: the dual minimizer is the parabola 1 - x^2; q = 2: the Poincare constant
    assert alpha_zero_exact(1.0) == pytest.approx(-1.5, rel=1e-14)
    assert alpha_zero_exact(2.0) == pytest.approx(-PI2 / 4, rel=1e-14)


@pytest.mark.parametrize("q", [1.25, 1.5, 1.75])
def test_zero_crossing_matches_closed_form(q):
    exact = alpha_zero_exact(q)
    assert abs(alpha_zero(q, OPTS) - exact) <= 5e-7 * abs(exact)


@pytest.mark.parametrize("n", [100, 101])
@pytest.mark.parametrize("q", [1.0, 1.1, 1.5, 2.0])
def test_zero_crossing_band_covers_the_coarse_grid_bias(q, n):
    # the band h^2 of verify criterion 10 holds on coarse grids too: at n = 100
    # the discrete root sits up to 9.8e-5 (relative, q = 1) off the closed
    # form, a quarter of h^2 = 3.9e-4
    exact = alpha_zero_exact(q)
    h = _grid_h(n)
    assert abs(alpha_zero(q, SolverOptions(n=n)) - exact) <= h * h * abs(exact)


# --- rescaling -------------------------------------------------------------------

def test_rescale_identity_on_reference_interval():
    lam = minimize(ProblemParams(1.0, 2.0), OPTS).lam
    assert rescale_lambda(-1.0, 1.0, 1.0, 2.0, OPTS) == lam


def test_rescale_translation_invariance():
    lam = minimize(ProblemParams(1.5, 1.5), OPTS).lam
    assert rescale_lambda(0.0, 2.0, 1.5, 1.5, OPTS) == lam


def test_rescale_against_closed_forms():
    # on (-2, 2) the reference coupling is 2^(1+2/q)*alpha = 4 at both q; the
    # exponent 1 + 2/q is 2 at q = 2 and 3 at q = 1
    expected = 0.25 * (PI2 / 4 + 4.0)
    rescaled = rescale_lambda(-2.0, 2.0, 1.0, 2.0, OPTS)
    assert abs(rescaled - expected) <= 1e-6 * expected
    expected = 0.25 * q1_eigenvalue_of_coupling(4.0)
    rescaled = rescale_lambda(-2.0, 2.0, 0.5, 1.0, OPTS)
    assert abs(rescaled - expected) <= 1e-6 * expected


def test_rescale_rejects_unordered_interval():
    with pytest.raises(ValueError):
        rescale_lambda(2.0, -2.0, 1.0, 2.0, OPTS)


@pytest.mark.parametrize(
    "a, b, q, message",
    [
        (-math.inf, 1.0, 1.5, "ordered finite pair"),
        (0.0, math.nan, 1.5, "ordered finite pair"),
        (0.0, 1e-200, 1.5, r"interval \(0.0, 1e-200\) is too short or too long"),
        (-1e200, 1e200, 1.5, r"interval \(-1e\+200, 1e\+200\) is too short or too long"),
        # the coupling factor scale^2 = 1e-310 is still above 0, 1/scale^2 overflows
        (0.0, 2e-155, 2.0, r"interval \(0.0, 2e-155\) is too short or too long"),
        # finite inputs, but the rescaled coupling 2.5e19 * 1e300 overflows
        (0.0, 1e10, 2.0, r"interval \(0.0, 10000000000.0\) is too short or too long"),
    ],
)
def test_rescale_rejects_nonfinite_or_unscalable_intervals(a, b, q, message):
    # alpha = 1e300 overflows the rescaled coupling only where the factor
    # ((b-a)/2)^(1+2/q) exceeds 1 and is finite: the (0, 1e10) case
    with pytest.raises(ValueError, match=message):
        rescale_lambda(a, b, 1e300, q, SolverOptions(n=100))
