import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest

import nleig.critical as critical
from nleig import verify
from nleig.branches import alpha_zero_exact
from nleig.core import GridFunction, ProblemParams, analyze, is_constant_sign
from nleig.critical import (
    BracketViolation,
    DualityMismatch,
    alpha_critical,
    alpha_zero,
    lower_bound,
    rescale_lambda,
)
from nleig import solver
from nleig.solver import SolverOptions, ThresholdAscent, minimize, saturation_reference, threshold_ascent

PI2 = math.pi**2
OPTS = SolverOptions()

# constant-sign and sign-changing grid functions for fakes of minimize
BUMP = GridFunction.from_callable(lambda x: np.cos(0.5 * math.pi * x), 100)
SINE = GridFunction.from_callable(lambda x: np.sin(math.pi * x), 100)


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
    kernel = functools.partial(solver.quotient_and_gradient, n=n, alpha=aq, q=q)
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


@pytest.mark.parametrize(
    "lam_of_alpha, message",
    [
        # saturated at the lower confirming solve
        (lambda alpha: PI2, "no unsaturated constant-sign minimizer at alpha"),
        # unsaturated at the upper confirming solve
        (lambda alpha: 0.0, "not saturated at alpha"),
    ],
)
def test_bracket_violation(monkeypatch, lam_of_alpha, message):
    def fake_minimize(params, opts, start=None):
        return SimpleNamespace(lam=lam_of_alpha(params.alpha), q_average=1.0, minimizer=BUMP)

    monkeypatch.setattr(critical, "minimize", fake_minimize)
    with pytest.raises(BracketViolation, match=message):
        alpha_critical(1.5, 0.04, SolverOptions(n=100))


def _fake_ascent(alpha, maximizer=BUMP):
    return lambda n, q, sigma: ThresholdAscent(alpha, maximizer, 3)


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


def test_critical_coupling_q2_closed_form_tight(crit):
    assert abs(crit(2.0).alpha_q - 0.75 * PI2) <= 1e-5


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

    def recording_ascent(n, q, sigma):
        up = threshold_ascent(n, q, sigma)
        ascents.append((sigma, up))
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
        # one ascent at the saturation value (converged, or it raises), whose value is alpha_q
        [(sigma, up)] = ascents
        assert sigma == sat
        assert res.alpha_q == up.alpha
        # two full confirming solves, at alpha_q -/+ tol/2 rounded inward
        assert res.solver_calls == len(calls) == 2
        lo, hi = res.bracket
        assert [(a, opts) for a, opts, _, _ in calls] == [(lo, SolverOptions(n=n)), (hi, SolverOptions(n=n))]
        assert hi - lo <= tol
        assert lo < res.alpha_q < hi
        assert abs((hi - lo) - tol) <= 4 * math.ulp(res.alpha_q)
        assert res.iterations == up.iterations + sum(r.iterations for *_, r in calls)
        below, above = calls[0][3], calls[1][3]
        assert below.profile.sign_class != "sign_changing"
        assert below.lam < sat
        assert abs(above.lam - sat) <= 1e-9


@pytest.mark.parametrize("n", [100, 101, 4000, 4001])
def test_continuation_keeps_the_cold_search(monkeypatch, n):
    # the confirming solves start from the ascent's maximizer and from the
    # secant through it and the lower minimizer; each lambda is a cold one
    opts = SolverOptions(n=n)
    for q in (1.0, 1.05, 1.2, 1.35, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0):
        res, [(_, up)], calls = _recorded_search(monkeypatch, q, n)
        (a0, _, s0, r0), (a1, _, s1, r1) = calls
        assert s0 is up.maximizer
        secant = up.maximizer.values + (a1 - res.alpha_q) / (a0 - res.alpha_q) * (r0.minimizer.values - up.maximizer.values)
        if is_constant_sign(secant):
            assert np.allclose(s1.values, secant, rtol=0.0, atol=1e-12)
        else:  # at (q, n) = (1, 4000) it dips below 0 next to the ends
            assert s1 is r0.minimizer
        for alpha, lam in ((a0, r0.lam), (a1, r1.lam)):
            ref = minimize(ProblemParams(alpha, q), opts).lam
            assert abs(lam - ref) <= 1e-11 * max(1.0, abs(lam))


def test_search_iterations_are_pinned(monkeypatch):
    # 5 ascent steps, then 3 and 1 steps in the confirming solves
    res, [(_, up)], calls = _recorded_search(monkeypatch, 1.5, 4000)
    assert (up.iterations, [r.iterations for *_, r in calls]) == (5, [3, 1])
    assert res.iterations == 9


def test_ascent_step_cap(monkeypatch):
    # the ascent needs about five steps at q = 1.5; capped at two it must
    # raise, before any confirming solve
    def no_minimize(params, opts, start=None):
        raise AssertionError("no confirming solve after a capped ascent")

    monkeypatch.setattr(solver, "_MAX_ITERATIONS", 2)
    monkeypatch.setattr(critical, "minimize", no_minimize)
    with pytest.raises(RuntimeError, match="reached its iteration cap after 2 steps"):
        alpha_critical(1.5, 0.04, SolverOptions(n=100))
    with pytest.raises(RuntimeError, match="reached its iteration cap after 2 steps"):
        alpha_zero(1.5, 1e-3, SolverOptions(n=100))


def test_lower_confirming_solve_must_be_constant_sign(monkeypatch):
    # the ascent lands at alpha = 10, where lambda rises with slope 1 to
    # saturation; the full solve just below returns an unsaturated but
    # sign-changing minimizer, which breaks the dichotomy
    sat = saturation_reference(100, 1.5)

    def fake_minimize(params, opts, start=None):
        lam = min(sat, sat - (10.0 - params.alpha))
        return SimpleNamespace(lam=lam, q_average=1.0, minimizer=SINE)

    monkeypatch.setattr(critical, "threshold_ascent", _fake_ascent(10.0))
    monkeypatch.setattr(critical, "minimize", fake_minimize)
    with pytest.raises(BracketViolation, match="no unsaturated constant-sign minimizer at alpha = 9.98"):
        alpha_critical(1.5, 0.04, SolverOptions(n=100))


def test_sign_changing_secant_falls_back_to_the_last_minimizer(monkeypatch):
    # the ascent returns cos^3 at alpha = 7 and the lower solve cos; the
    # secant at the upper solve, about 2*cos^3 - cos, is negative near the
    # ends and positive at 0, so that solve starts from cos.  lambda stays 0,
    # so the upper solve is not saturated and raises.
    cubed = GridFunction(BUMP.values**3)
    calls = []

    def fake_minimize(params, opts, start=None):
        calls.append((params.alpha, start))
        return SimpleNamespace(lam=0.0, q_average=1.0, minimizer=BUMP)

    monkeypatch.setattr(critical, "threshold_ascent", _fake_ascent(7.0, cubed))
    monkeypatch.setattr(critical, "minimize", fake_minimize)
    with pytest.raises(BracketViolation, match="not saturated at alpha = 7.02"):
        alpha_critical(1.5, 0.04, SolverOptions(n=100))
    (a1, s1), (a2, s2) = calls
    assert s1 is cubed
    secant = BUMP.values + (a2 - a1) / (a1 - 7.0) * (BUMP.values - cubed.values)
    assert not is_constant_sign(secant)
    assert s2 is BUMP


# --- alpha_zero and duality -----------------------------------------------------

def test_zero_crossing_q2_matches_poincare_shift():
    # on the q = 2 constant-sign branch lambda = pi^2/4 + alpha, so the zero
    # crossing sits at -pi^2/4
    a0 = alpha_zero(2.0, 1e-3, OPTS)
    assert abs(a0 + PI2 / 4) <= 1e-3 * PI2 / 4


def test_zero_crossing_q1_matches_parabola_oracle():
    # the dual quotient at q = 1 is minimized by 1 - x^2, giving exactly 3/2
    a0 = alpha_zero(1.0, 1e-3, OPTS)
    assert abs(a0 + 1.5) <= 1e-3 * 1.5


@pytest.mark.parametrize("q", [1.0, 1.5])
def test_zero_crossing_root_quality(q):
    tol = 1e-3
    a0 = alpha_zero(q, tol, OPTS)
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
    assert abs(alpha_zero(q, 1e-3, OPTS) - exact) <= 5e-7 * abs(exact)


@pytest.mark.parametrize("tol", [1e-3, 1e-6])
@pytest.mark.parametrize("q", [1.0, 1.1, 1.5, 2.0])
def test_zero_crossing_band_covers_the_coarse_grid_bias(q, tol):
    # at n = 100 the discrete root sits up to 9.8e-5 (relative, q = 1) off the
    # closed form: inside tol = 1e-3, and at tol = 1e-6 only inside the h^2
    # term of the band (3.9e-4)
    assert alpha_zero(q, tol, SolverOptions(n=100)) < 0.0


def test_zero_crossing_off_the_closed_form_is_a_mismatch(monkeypatch):
    monkeypatch.setattr(critical, "alpha_zero_exact", lambda q: 1.01 * alpha_zero_exact(q))
    with pytest.raises(DualityMismatch, match="duality mismatch at q = 1.5"):
        alpha_zero(1.5, 1e-3, SolverOptions(n=100))


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
    expected = 0.25 * verify._q1_branch_root(4.0)
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
