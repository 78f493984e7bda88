import math
import re
import sys
import threading
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nleig.period import (
    QuadratureNonconvergence,
    arc_densities,
    arc_variables,
    first_integral_coeffs,
    half_period,
    integrate_endpoint_singular,
    monotonicity_gap,
    offset_positivity_margin,
    tail_bound,
)
from nleig import branches, period

PI = math.pi
MS = [k / 10 for k in range(1, 10)]
YS = [k / 20 for k in range(1, 20)]


# --- first integral coefficients ----------------------------------------------

def test_coeffs_at_unit_depth():
    assert first_integral_coeffs(1.0, 1.7) == (0.0, 1.0)


def test_coeffs_at_zero_depth():
    z, t = first_integral_coeffs(0.0, 1.3)
    assert z == 1.0
    assert t == 0.0


def test_coeffs_half_depth_q2():
    z, t = first_integral_coeffs(0.5, 2.0)
    assert abs(z - 0.6) < 1e-15
    assert abs(t - 0.4) < 1e-15


@settings(max_examples=50, deadline=None)
@given(m=st.floats(0.0, 1.0), q=st.floats(1.0, 2.0))
def test_coeffs_partition_of_unity(m, q):
    z, t = first_integral_coeffs(m, q)
    # complements, each formed without cancellation: the sum is 1 to one unit in the last place
    assert abs(z + t - 1.0) <= math.ulp(1.0)
    assert 0.0 <= z <= 1.0
    assert (z == 0.0) == (m == 1.0)


@pytest.mark.parametrize("m,q", [(1e-6, 2.0), (1e-3, 2.0), (1e-3, 1.5)])
def test_coeffs_small_depth_t_is_accurate(m, q):
    # exact rational reference; m^q to 40 digits by decimal arithmetic
    with localcontext() as ctx:
        ctx.prec = 40
        mq = Fraction(Decimal(m) ** Decimal(q))
    m_exact = Fraction(m)
    t_exact = (mq + m_exact**2) / (1 + mq)
    z, t = first_integral_coeffs(m, q)
    assert abs(Fraction(t) - t_exact) <= Fraction(1, 10**15) * t_exact
    assert abs(Fraction(z) - (1 - t_exact)) <= Fraction(1, 10**15) * (1 - t_exact)


def test_coeffs_range_validation():
    with pytest.raises(ValueError):
        first_integral_coeffs(-0.1, 1.5)
    with pytest.raises(ValueError):
        first_integral_coeffs(0.5, 2.3)


# --- the half-period integrand (pos + neg)/(2u), u^2 = 1 - y -----------------

def _integrand(m, q, u2, ln_y):
    pos, neg = arc_densities(np.array([u2]), np.array([ln_y]), m, q)
    return float(pos[0] + neg[0]) / (2.0 * math.sqrt(u2))


# y = 0 enters as the smallest subnormal, which keeps (2 - q)*ln y finite at q = 2
_LN_ZERO_HEIGHT = math.log(5e-324)


def test_integrand_at_unit_depth_is_circular():
    # collapses to 2/sqrt(1-y^2), independent of q
    for q in (1.0, 1.4, 2.0):
        assert abs(_integrand(1.0, q, 1.0 - 0.6, math.log(0.6)) - 2.5) < 1e-14


def test_integrand_at_zero_height():
    m, q = 0.5, 2.0
    z, _ = first_integral_coeffs(m, q)
    expected = (1 + m) / math.sqrt(1 - z)
    assert abs(_integrand(m, q, 1.0, _LN_ZERO_HEIGHT) - expected) < 1e-14
    assert abs(expected - 2.3717082451262845) < 1e-12


def test_integrand_increases_with_exponent_at_origin():
    assert _integrand(0.5, 2.0, 1.0, _LN_ZERO_HEIGHT) > _integrand(0.5, 1.0, 1.0, _LN_ZERO_HEIGHT)


def test_arc_radical_bounds_on_grid():
    # the radical bounds sqrt(1-z(1-y^q)-y^2) <= sqrt(1-y^2) <= sqrt(1-z(1+m^q y^q)-m^2 y^2)/m
    # in the densities dx/du = 2u/radical: pos(u) >= 2/sqrt(2-u^2) >= neg(u)
    u = np.sqrt(1.0 - np.array(YS))
    circ = 2.0 / np.sqrt(2.0 - u * u)
    for m in MS:
        for q in (1.0, 1.5, 2.0):
            pos, neg = arc_densities(*arc_variables(u, 1.0 - u), m, q)
            assert np.all(pos >= circ * (1 - 1e-15))
            assert np.all(neg <= circ * (1 + 1e-15))


# --- half period ---------------------------------------------------------------

def test_half_period_is_pi_on_the_q1_line():
    for m in (0.0, 0.25, 0.5, 0.75, 1.0):
        hv = half_period(m, 1.0)
        assert abs(hv.value - PI) <= 1e-9 * PI


def test_half_period_is_pi_at_unit_depth():
    for q in (1.0, 1.5, 2.0):
        hv = half_period(1.0, q)
        assert abs(hv.value - PI) <= 1e-9 * PI


def test_half_period_q2_closed_form():
    for m in [k / 10 for k in range(1, 11)]:
        closed = 0.5 * PI * math.sqrt((1 + m * m) / 2) * (1 / m + 1)
        hv = half_period(m, 2.0)
        assert abs(hv.value - closed) <= 1e-8 * closed


def test_half_period_zero_depth_closed_form():
    for q in (1.0, 1.25, 1.5, 1.75):
        closed = PI / (2 - q)
        hv = half_period(0.0, q)
        assert abs(hv.value - closed) <= 1e-8 * closed
    assert abs(half_period(0.0, 1.5).value - 2 * PI) <= 1e-9 * 2 * PI


def test_half_period_divergent_case():
    with pytest.raises(ValueError, match="divergent"):
        half_period(0.0, 2.0)


@pytest.mark.parametrize("q", [1.0, 1.2, 1.5, 1.8, 1.9])
@pytest.mark.parametrize("m", [1e-200, 1e-300, 5e-324])
def test_half_period_at_underflowing_depth_is_the_zero_depth_value(m, q):
    # m^2 and m^q underflow, and m^(q-2) would overflow at (5e-324, 1): the
    # densities must stay finite and warning-free and reach pi/(2-q)
    closed = PI / (2 - q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hv = half_period(m, q)
    assert abs(hv.value - closed) <= 1e-9 * closed


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
@pytest.mark.parametrize("m", [1e-2, 1e-4, 1e-6, 1e-9, 1e-160, 1e-170, 1e-200, 1e-300, 1e-307, 2e-308])
def test_half_period_q2_closed_form_as_depth_vanishes(m, tol):
    closed = 0.5 * PI * math.sqrt((1 + m * m) / 2) * (1 / m + 1)
    hv = half_period(m, 2.0, tol)
    assert abs(hv.value - closed) <= 10 * tol * closed


@pytest.mark.parametrize("m", [1e-308, 7e-309, 6.5e-309, 6.2e-309, 5e-324])
def test_half_period_q2_rejects_a_depth_whose_value_overflows(m):
    # the half period is about 1.11/m: below m = 2e-308 the rule's sums would
    # overflow, so the depth is refused before the rule runs, and on the
    # rule's nodes the densities return their value or +inf without a warning
    u2, ln_y, _, _ = period._round_nodes(0, 64, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows float64"):
            half_period(m, 2.0)
        pos, neg = arc_densities(u2, ln_y, m, 2.0)
    assert np.all(pos > 1e307) and np.all(np.isfinite(neg))


@pytest.mark.parametrize("tol", [1e-10, 1e-4])
def test_half_period_near_divergent_corner_raises(tol):
    # at m = 0 the integral is pi/(2-q) = 100*pi, but y^(-q/2) leaves a tail
    # beyond the reach of float64 nodes; it must not come back as a value,
    # not even at the loosest target, where the rule difference settles
    with pytest.raises(QuadratureNonconvergence) as info:
        half_period(0.0, 1.99, tol)
    assert info.value.best.evaluations >= 1


# half_period(m, q, 1e-13) by the float64 tanh-sinh rule that preceded the
# graded Gauss-Legendre rule, at q = 1, 1.2, 1.5, 1.8, 1.95, 1.99, 2
_PINNED_QS = (1.0, 1.2, 1.5, 1.8, 1.95, 1.99, 2.0)
_PINNED_HALF_PERIODS = {
    1e-12: (3.141592653589793, 3.9269862391954105, 6.281460564519307, 15.219644102435899, 42.78415066258214, 103.18305289901585, 1110720734540.7024),
    1e-09: (3.1415926535897936, 3.9269182636055167, 6.273485857717622, 14.728684997650968, 38.33850717505119, 89.5305528984951, 1110720735.6503124),
    1e-06: (3.1415926535897936, 3.9258401715543476, 6.228550737639106, 13.714192893621377, 32.38416050869084, 72.692157167435, 1110721.8452608816),
    0.001: (3.141592653589793, 3.9070564915240875, 5.959344775796968, 11.383032235603402, 23.372700978411892, 48.727175972871485, 1111.8320111897197),
    0.1: (3.141592653589794, 3.6252710102303927, 4.68323341379717, 6.731909079867593, 9.53503701894153, 11.479116910030694, 12.278865755115222),
    0.5: (3.141592653589793, 3.219949167616604, 3.3698845698919824, 3.5640464514430965, 3.682185374808829, 3.716640373989252, 3.725470599673538),
    0.9: (3.141592653589793, 3.1435364626932842, 3.147136655053142, 3.1514497002355144, 3.1538468829828563, 3.1545117402939997, 3.1546796054657698),
    1.0: (3.141592653589793, 3.141592653589793, 3.141592653589793, 3.141592653589793, 3.141592653589793, 3.141592653589793, 3.141592653589793),
}


@pytest.mark.parametrize("m", sorted(_PINNED_HALF_PERIODS))
def test_half_period_matches_pinned_values(m):
    for q, pinned in zip(_PINNED_QS, _PINNED_HALF_PERIODS[m]):
        value = half_period(m, q, 1e-13).value
        assert abs(value - pinned) <= 1e-13 * pinned, (m, q, value)


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("m", [0.05, 0.5, 0.95])
def test_half_period_calls_its_density_once(m, q, tol, monkeypatch):
    # one round of the graded rule: the density runs once, on all its nodes
    calls = []

    def counted(f, target):
        return integrate_endpoint_singular(lambda u2, ln_y: calls.append(u2.size) or f(u2, ln_y), target)

    monkeypatch.setattr(period, "integrate_endpoint_singular", counted)
    res = half_period(m, q, tol)
    assert calls == [res.evaluations]


def test_arc_densities_match_the_radicals():
    # the cancellation-free radicands against the direct first-integral form:
    # dx/du = 2u / sqrt(1 - z(1 - y^q) - y^2) and 2mu / sqrt(1 - z(1 + m^q y^q) - m^2 y^2),
    # y = 1 - u^2
    u = np.array([0.2, 0.6, 0.9])
    for m in (0.3, 0.7):
        for q in (1.0, 1.3, 1.8, 2.0):
            z, t = first_integral_coeffs(m, q)
            pos, neg = arc_densities(*arc_variables(u, 1.0 - u), m, q)
            for k, uk in enumerate(u):
                y = 1.0 - uk * uk
                pos_radical = math.sqrt(t + z * y**q - y * y)
                neg_radical = math.sqrt(t - z * m**q * y**q - (m * y) ** 2)
                assert abs(pos[k] - 2 * uk / pos_radical) <= 1e-12 * pos[k]
                assert abs(neg[k] - 2 * m * uk / neg_radical) <= 1e-12 * neg[k]


def _arc_densities_reference(u2, ln_y, m, q):
    """arc_densities written as expressions, one temporary per operation: the bit-level reference for the in-place form."""
    z, t = first_integral_coeffs(m, q)
    pos_quot = -np.expm1((2.0 - q) * ln_y) / u2
    one_y = 2.0 - u2
    if t < np.finfo(float).tiny:
        with np.errstate(divide="ignore", over="ignore"):
            ln_t = q * np.log(m) + math.log1p(m ** (2.0 - q)) - math.log1p(m**q)
            pos = 2.0 * np.exp(-0.5 * np.logaddexp(ln_t + np.log(one_y), q * ln_y + np.log(pos_quot)))
    else:
        pos = 2.0 / np.sqrt(t * one_y + z * np.exp(q * ln_y) * pos_quot)
    p = m ** (2.0 - q)
    neg = 2.0 * math.sqrt(p) / np.sqrt(p * one_y + z * (-np.expm1(q * ln_y) / u2))
    return pos, neg


_REFERENCE_MS = (0.0, 1e-300, 1e-160, 1e-9, 0.05, 0.5, 1.0)
_REFERENCE_QS = (1.0, 1.5, 1.99, 2.0)


def _node_tables():
    u2, ln_y, _, _ = period._round_nodes(0, 64, 1)
    # the integrand's heights y, down to 1e-300 and to 0 entered as the smallest subnormal
    y = np.array([5e-324, 1e-300, 0.3, 0.999999])
    return {"rebuild": (branches._PTS_U2, branches._PTS_LN_Y), "rule": (u2, ln_y), "heights": (1.0 - y, np.log(y))}


def _check_in_place_form(m, q, table):
    # m <= 1e-160 takes the log path (t below the smallest normal float);
    # (0, 2) gives pos = +inf and neg = 0 at every node
    u2, ln_y = _node_tables()[table]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = arc_densities(u2, ln_y, m, q)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = _arc_densities_reference(u2, ln_y, m, q)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes(), (m, q, table)


@pytest.mark.parametrize("table", ["rebuild", "rule"])
@pytest.mark.parametrize("q", _REFERENCE_QS)
@pytest.mark.parametrize("m", _REFERENCE_MS)
def test_arc_densities_in_place_match_the_expression_form(m, q, table):
    _check_in_place_form(m, q, table)


@pytest.mark.parametrize("q", _REFERENCE_QS)
@pytest.mark.parametrize("m", _REFERENCE_MS)
def test_integrand_matches_the_expression_form(m, q):
    _check_in_place_form(m, q, "heights")


_EDGE_MS = (0.0, 5e-324, 1e-300, 1e-160, 1.0)
_EDGE_QS = (math.nextafter(1.0, 2.0), math.nextafter(2.0, 1.0))


@settings(max_examples=30, deadline=None)
@given(m=st.floats(0.0, 1.0) | st.sampled_from(_EDGE_MS), q=st.floats(1.0, 2.0) | st.sampled_from(_EDGE_QS))
def test_arc_densities_hold_their_contract_on_every_node_table(m, q):
    # the rule's first table, the rebuild's table and the rule's largest, down to c = 2**-1000;
    # not the heights table, whose y = 5e-324 takes pos beyond float64 at m = 0 below q = 2
    tables = _node_tables()
    for u2, ln_y in (tables["rule"], tables["rebuild"], period._round_nodes(0, 1000, 8)[:2]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pos, neg = arc_densities(u2, ln_y, m, q)
        assert np.all(np.isfinite(neg)) and np.all(neg >= 0.0)
        assert np.all(pos > 0.0)  # and so no NaN
        assert q == 2.0 or np.all(np.isfinite(pos))


def test_cached_arc_variables_are_read_only():
    period.half_period(0.5, 1.5)
    table = period._round_nodes(0, 64, 1)
    for a in table:
        with pytest.raises(ValueError):
            a[0] = 0.0
    u2, ln_y, c, _ = table
    want_u2, want_ln_y = arc_variables(1.0 - c, c)
    assert u2.tobytes() == want_u2.tobytes() and ln_y.tobytes() == want_ln_y.tobytes()


@pytest.mark.parametrize(
    "m, q, tol",
    [
        (0.5, 1.5, 1e-10),  # one round
        (1e-9, 1.9, 1e-13),  # split and deepened
        (1e-12, 1.9, 1e-10),  # deepened: the new panels alone
        (1e-6, 1.5, 1e-13),  # split
        (0.0, 1.9, 1e-10),  # five rounds, down to the deepest panel
    ],
)
def test_half_period_is_the_same_with_the_caches_cleared_and_filled(m, q, tol):
    period._round_nodes.cache_clear()
    cold = half_period(m, q, tol)
    assert period._round_nodes.cache_info().currsize > 0
    warm = half_period(m, q, tol)
    assert (warm.value.hex(), warm.error_estimate.hex(), warm.evaluations) == (
        cold.value.hex(), cold.error_estimate.hex(), cold.evaluations)


def test_arc_variable_cache_is_shared_safely_between_threads():
    # more threads than cores, each running through more node tables than the
    # cache holds, so that lookups, insertions and evictions interleave
    cases = [(1e-12, 1.9, 1e-10), (1e-6, 1.5, 1e-13), (0.0, 1.9, 1e-10), (0.0, 1.9, 1e-13), (0.5, 1.5, 1e-10)]
    serial = [half_period(*case) for case in cases]
    results, errors = [], []

    def work():
        try:
            for _ in range(5):
                results.append([half_period(*case) for case in cases])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [serial] * 20


def test_half_period_exceeds_pi_with_margin():
    for m in MS:
        for q in (1.25, 1.5, 1.75, 2.0):
            hv = half_period(m, q)
            assert hv.value - PI > 10 * hv.error_estimate, (m, q)


def test_half_period_value_vs_error_invariant():
    for m, q in ((0.3, 1.0), (1.0, 1.8), (0.6, 1.4)):
        hv = half_period(m, q)
        assert hv.value >= PI - hv.error_estimate


# --- the graded Gauss-Legendre rule --------------------------------------------
# The rule integrates f(u2, ln_y) over u in (0, 1), y = 1 - u^2; with t = u^2,
# int_0^1 y^(-a) du = B(1/2, 1 - a)/2.

def _half_beta(a):
    return 0.5 * math.exp(math.lgamma(0.5) + math.lgamma(1.0 - a) - math.lgamma(1.5 - a))


def test_inverse_sqrt_both_factors():
    # y^(-1/2) = 1/sqrt((1 - u)(1 + u)) integrates to arcsin(1)
    res = integrate_endpoint_singular(lambda u2, ln_y: np.exp(-0.5 * ln_y), 1e-12)
    assert abs(res.value - math.pi / 2) <= 1e-12 * math.pi / 2
    assert res.error_estimate >= 0.0
    assert res.evaluations >= 1


def test_inverse_sqrt_right_endpoint():
    # sqrt(1 + u) * y^(-1/2) = (1 - u)^(-1/2)
    res = integrate_endpoint_singular(lambda u2, ln_y: np.sqrt(1.0 + np.sqrt(u2)) * np.exp(-0.5 * ln_y), 1e-12)
    assert abs(res.value - 2.0) <= 2e-12


def test_inverse_sqrt_left_endpoint():
    # the rule grades toward u = 1 only: u^(-1/2), singular at u = 0, is not
    # resolved, and must not come back as a value
    with pytest.raises(QuadratureNonconvergence) as info:
        integrate_endpoint_singular(lambda u2, ln_y: u2**-0.25, 1e-12)
    assert abs(info.value.best.value - 2.0) > 1e-12


def test_strong_right_endpoint_singularity():
    # y^(-0.9) puts a tenth of its weight within 1e-10 of u = 1 and 2 % below
    # c = 1e-16, where u itself rounds to 1.0: only ln y, formed from the
    # complement, resolves it
    res = integrate_endpoint_singular(lambda u2, ln_y: np.exp(-0.9 * ln_y), 1e-12)
    assert abs(res.value - _half_beta(0.9)) <= 1e-12 * _half_beta(0.9)


def test_smooth_integrand_takes_one_call():
    calls = []
    res = integrate_endpoint_singular(lambda u2, ln_y: calls.append(u2.size) or np.exp(np.sqrt(u2)), 1e-14)
    assert calls == [res.evaluations]
    assert abs(res.value - math.expm1(1.0)) <= 1e-14 * math.expm1(1.0)


def test_constant():
    res = integrate_endpoint_singular(lambda u2, ln_y: 1.0, 1e-14)
    assert abs(res.value - 1.0) <= 1e-14


def test_target_range_validated():
    for bad in (1e-15, 1e-3, 0.0, -1.0):
        with pytest.raises(ValueError):
            integrate_endpoint_singular(lambda u2, ln_y: 1.0, bad)


def test_linearity():
    target = 1e-10
    f = lambda u2, ln_y: u2
    g = lambda u2, ln_y: 1 / (1 + np.sqrt(u2))
    combined = integrate_endpoint_singular(lambda u2, ln_y: 2 * f(u2, ln_y) + 3 * g(u2, ln_y), target)
    fi = integrate_endpoint_singular(f, target)
    gi = integrate_endpoint_singular(g, target)
    assert abs(combined.value - (2 * fi.value + 3 * gi.value)) <= 10 * target * abs(combined.value)


@pytest.mark.parametrize(
    "f",
    [
        lambda u2, ln_y: np.exp(-0.5 * ln_y),
        lambda u2, ln_y: np.sqrt(1.0 + np.sqrt(u2)) * np.exp(-0.5 * ln_y),
        lambda u2, ln_y: 1.0,
    ],
)
def test_error_estimate_shrinks_with_extra_levels(f):
    # tightening the target forces extra halvings; the reported inter-level
    # difference must not grow
    estimates = [
        integrate_endpoint_singular(f, target).error_estimate
        for target in (1e-5, 1e-7, 1e-9, 1e-11)
    ]
    assert all(b <= a for a, b in zip(estimates, estimates[1:]))
    evaluations = [
        integrate_endpoint_singular(f, target).evaluations
        for target in (1e-5, 1e-11)
    ]
    assert evaluations[1] >= evaluations[0]


def test_nonconvergence_carries_best_estimate():
    # deliberately divergent: 1/u^2 is not integrable at u = 0
    with pytest.raises(QuadratureNonconvergence) as info:
        integrate_endpoint_singular(lambda u2, ln_y: 1 / u2, 1e-6)
    best = info.value.best
    assert best.evaluations >= 1
    assert best.error_estimate > 0.0


def test_unresolved_tail_raises():
    # y^(-0.99) integrates to B(1/2, 0.01)/2 ~ 50.69, but about 0.049 of it
    # lies below the deepest panel, c < 2**-1000 ~ 1e-301.  The rule
    # difference settles on the truncated sum, so only the tail bound catches
    # it, and at 1e-4 only with its factor 1/(1 - a) = 100: c0*f(c0) alone is
    # about 5e-4, within the target's 0.005
    closed = _half_beta(0.99)
    for target in (1e-6, 1e-4):
        with pytest.raises(QuadratureNonconvergence) as info:
            integrate_endpoint_singular(lambda u2, ln_y: np.exp(-0.99 * ln_y), target)
        assert info.value.best.evaluations >= 1
        assert 0.04 < closed - info.value.best.value < 0.06


def test_integrand_that_underflows_at_the_innermost_nodes():
    # y^40 underflows to 0 at the deep nodes (y ~ 1e-19 at c ~ 2^-64), where
    # the tail bound reads a zero innermost value as no tail
    res = integrate_endpoint_singular(lambda u2, ln_y: np.exp(40.0 * ln_y), 1e-12)
    assert abs(res.value - _half_beta(-40.0)) <= 1e-12 * _half_beta(-40.0)


def test_non_finite_integrand_values_raise_with_a_finite_best():
    # +inf for y < 1/e: the rule sums those nodes as 0, so no round can pass
    with pytest.raises(QuadratureNonconvergence, match="non-finite integrand values") as info:
        integrate_endpoint_singular(lambda u2, ln_y: np.where(ln_y < -1.0, np.inf, 1.0), 1e-10)
    best = info.value.best
    assert math.isfinite(best.value) and math.isfinite(best.error_estimate)


def test_tail_bound_edge_cases():
    assert tail_bound(1e-20, 0.0, 2e-20, 5.0) == 0.0  # no value at the innermost node: no tail
    assert tail_bound(1e-20, 5.0, 2e-20, 0.0) == math.inf  # a jump from 0 fits no power
    assert tail_bound(1e-20, 2e20, 2e-20, 1e20) == math.inf  # c^-1 is not integrable
    assert tail_bound(1e-20, 4e10, 2e-20, 2e10 * math.sqrt(2.0)) == pytest.approx(8e-10)  # c^-1/2: 2*c0*f0


# --- monotonicity study functions ----------------------------------------------

def test_gap_vanishes_at_top():
    for m in (0.3, 0.7):
        for q in (1.2, 1.9):
            assert abs(monotonicity_gap(m, q, 1.0)) <= 1e-12


def test_gap_positive_inside():
    assert monotonicity_gap(0.5, 1.5, 0.5) > 0.0


@pytest.mark.parametrize("m, y", [(0.1, 0.5), (0.5, 0.05), (0.5, 0.9), (0.9, 0.3), (0.99, 0.7)])
def test_gap_at_q2_has_its_closed_form(m, y):
    # at q = 2 the factor m^(q-2) is 1 and the y^2 log y terms cancel
    closed = -(1.0 - y * y) * (1.0 + m * m) * math.log(m)
    assert abs(monotonicity_gap(m, 2.0, y) - closed) <= 1e-14


def test_gap_strictly_decreasing_in_height():
    ys = [k / 101 for k in range(1, 101)]
    vals = [monotonicity_gap(0.5, 1.5, y) for y in ys]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_margin_positive_and_vanishing_at_full_depth():
    samples = [offset_positivity_margin(m, 1.5) for m in (0.5, 0.9, 0.99, 0.999)]
    assert all(v > 0.0 for v in samples)
    assert all(b < a for a, b in zip(samples, samples[1:]))


@pytest.mark.parametrize("m", [5e-324, 1e-306])
def test_study_functions_refuse_a_value_beyond_float64(m):
    # before: OverflowError from m^(q-2) at 5e-324, and +inf at 1e-306 (q = 1)
    with pytest.raises(ValueError, match="not finite in float64"):
        monotonicity_gap(m, 1.0, 0.5)
    with pytest.raises(ValueError, match="not finite in float64"):
        offset_positivity_margin(m, 1.0)
    # the same depths at q = 1.5 stay inside float64
    assert math.isfinite(monotonicity_gap(1e-306, 1.5, 0.5))
    assert math.isfinite(offset_positivity_margin(1e-306, 1.5))


@pytest.mark.parametrize("y", [0.0, -0.5, 1.5, math.nan])
def test_gap_rejects_a_height_outside_the_unit_interval(y):
    with pytest.raises(ValueError, match=re.escape(f"y must lie in (0, 1], got {y!r}")):
        monotonicity_gap(0.5, 1.5, y)


def test_study_functions_reject_degenerate_depth():
    for fn in (lambda m: monotonicity_gap(m, 1.5, 0.5), lambda m: offset_positivity_margin(m, 1.5)):
        with pytest.raises(ValueError):
            fn(0.0)
        with pytest.raises(ValueError):
            fn(1.0)
