import math

import numpy as np
import pytest

from nleig import branches
from nleig.branches import (
    branch_point,
    eigenvalue_from_depth,
    q1_coupling_of_eigenvalue,
    q1_flat_family,
    q1_positive_profile,
    reconstruct_profile,
)
from nleig.core import ProblemParams, analyze, q_average, rayleigh_quotient
from nleig.period import arc_densities, arc_variables, first_integral_coeffs, half_period
from nleig.quadrature import integrate_endpoint_singular

PI = math.pi
PI2 = math.pi**2


# --- eigenvalue from depth -------------------------------------------------------

def test_unit_depth_gives_pi_squared():
    assert abs(eigenvalue_from_depth(1.0, 1.5) - PI2) <= 1e-8


def test_half_depth_q2_matches_closed_form():
    closed = (0.5 * PI * math.sqrt(0.625) * 3.0) ** 2
    assert abs(eigenvalue_from_depth(0.5, 2.0) - closed) <= 1e-8 * closed


def test_near_unit_depth_continuity():
    lam = eigenvalue_from_depth(0.999, 1.2)
    assert lam >= PI2 - 1e-9
    assert lam <= PI2 * (1.0 + 1e-3)


def test_depth_range_validation():
    with pytest.raises(ValueError):
        eigenvalue_from_depth(0.0, 1.5)


def test_eigenvalue_exceeds_pi_squared_below_unit_depth():
    for q in (1.25, 1.75):
        for m in [k / 10 for k in range(1, 10)]:
            assert eigenvalue_from_depth(m, q) > PI2


# --- profile reconstruction ------------------------------------------------------

def test_unit_depth_profile_is_sine():
    u = reconstruct_profile(1.0, 1.5, 2000)
    ref = np.sin(PI * u.x)
    d = min(
        math.sqrt(u.h * float((u.values - ref) @ (u.values - ref))),
        math.sqrt(u.h * float((u.values + ref) @ (u.values + ref))),
    )
    assert d < 1e-4


def test_profile_satisfies_first_integral():
    m, q = 0.6, 1.5
    u = reconstruct_profile(m, q, 4000)
    lam = eigenvalue_from_depth(m, q)
    z = first_integral_coeffs(m, q).z
    v = np.concatenate(([0.0], u.values, [0.0]))
    slope = (v[2:] - v[:-2]) / (2.0 * u.h)
    w = u.values
    residual = slope**2 - lam * (1.0 - z * (1.0 - np.sign(w) * np.abs(w) ** q) - w * w)
    assert np.abs(residual).max() < 1e-3 * lam


def test_profile_shape_counts():
    u = reconstruct_profile(0.6, 1.5, 4000)
    prof = analyze(u)
    assert prof.sign_class == "sign_changing"
    assert len(prof.zeros) == 1
    assert abs(prof.max_value - 1.0) < 1e-6
    assert abs(prof.min_value + 0.6) < 1e-6


def test_branch_constants_match_measured_first_integral():
    m, q = 0.6, 1.5
    bp = branch_point(m, q)
    u = reconstruct_profile(m, q, 4000)
    v = np.concatenate(([0.0], u.values, [0.0]))
    slope = (v[2:] - v[:-2]) / (2.0 * u.h)
    w = u.values
    measured = 0.5 * slope**2 + 0.5 * bp.lam * w * w - (bp.gamma_alpha / q) * np.sign(w) * np.abs(w) ** q
    c_measured = float(np.mean(measured))
    assert abs(c_measured - bp.c) <= 1e-3 * abs(bp.c)
    # the stored pair is consistent by construction with the coefficients
    co = first_integral_coeffs(m, q)
    assert bp.c == pytest.approx(0.5 * bp.lam * (1.0 - co.z), rel=1e-15)


@pytest.mark.parametrize(
    "m, q", [(1e-6, 1.2), (1e-3, 1.9), (0.05, 1.5), (0.5, 1.5), (1.0, 2.0), (1e-9, 1.05)]
)
def test_profile_own_half_period_matches_quadrature(m, q):
    # the rebuild scales x by its own half period, len_pos + len_neg; as m -> 0
    # the positive arc's y^(-q/2) end must be resolved for it to be right
    pos, neg = arc_densities(branches._PTS_U2, branches._PTS_LN_Y, m, q)
    own = branches._arc_cumulative(pos)[-1] + branches._arc_cumulative(neg)[-1]
    ref = half_period(m, q, 1e-13).value
    assert abs(own - ref) <= 1e-13 * ref


@pytest.mark.parametrize("m", [1e-4, 1e-2, 0.3, 1.0])
def test_q2_profile_matches_closed_form(m):
    # at q = 2 each arc is an exact cosine: y = cos(w_pos*(x - x_max)) with
    # w_pos = sqrt(lam*t), and y = -m*cos(w_neg*(x - x_min)) with w_neg = sqrt(lam*(1+z))
    z = (1.0 - m * m) / (1.0 + m * m)
    t = 2.0 * m * m / (1.0 + m * m)
    root = 0.5 * PI * (1.0 / math.sqrt(t) + 1.0 / math.sqrt(1.0 + z))  # quarter waves fill (-1, 1)
    w_pos, w_neg = root * math.sqrt(t), root * math.sqrt(1.0 + z)
    x_max = -1.0 + 0.5 * PI / w_pos
    zero = -1.0 + PI / w_pos
    x_min = zero + 0.5 * PI / w_neg
    u = reconstruct_profile(m, 2.0, 4000)
    exact = np.where(u.x <= zero, np.cos(w_pos * (u.x - x_max)), -m * np.cos(w_neg * (u.x - x_min)))
    assert np.abs(u.values - exact).max() <= 6e-8


def _negative_arc_width(m, q):
    """Width 2*len_neg/half_period of the negative arc, from quadrature alone."""
    res = integrate_endpoint_singular(lambda u, c: arc_densities(*arc_variables(u, c), m, q)[1], 1e-13)
    return 2.0 * res.value / half_period(m, q, 1e-13).value


@pytest.mark.parametrize(
    "m, q, n",
    [(m, q, n) for m in (1e-6, 1e-9) for q in (1.05, 1.2) for n in (100, 4000)]
    + [(0.5, 1.5, 100), (0.5, 1.0, 100), (1e-6, 1.0, 100), (1e-6, 1.0, 4000)],
)
def test_profile_edge_cases(m, q, n):
    u = reconstruct_profile(m, q, n)
    v, h = u.values, u.h
    lam = half_period(m, q, 1e-13).value ** 2
    z = first_integral_coeffs(m, q).z
    assert np.all(np.isfinite(v))
    # interpolation never leaves the tables, whose extremes are 1 and -m
    assert -m <= v.min() and v.max() <= 1.0
    # some node lies within h/2 of each extremum; |y''| <= lam on the positive
    # arc and <= k on the negative one, by the first integral
    assert 1.0 - v.max() <= lam * h * h / 8.0
    width = _negative_arc_width(m, q)
    if width >= h:
        k = 0.5 * lam * (z * q * m ** (q - 1.0) + 2.0 * m)
        assert v.min() + m <= k * h * h / 8.0
    # one sign change, at the zero 1 - width; none when no node lies past it,
    # as for m = 1e-9, whose negative arc is narrower than h
    assert np.all(v != 0.0)
    assert np.array_equal(v < 0.0, u.x > 1.0 - width)
    assert np.count_nonzero(np.diff(np.sign(v))) == int(np.any(u.x > 1.0 - width))


def _reconstruct_profile_by_masks(m, q, n):
    """reconstruct_profile as it was with four boolean masks over the nodes, kept as a reference."""
    pos, neg = arc_densities(branches._PTS_U2, branches._PTS_LN_Y, m, q)
    pos_cum = branches._arc_cumulative(pos)
    neg_cum = branches._arc_cumulative(neg)
    len_pos, len_neg = pos_cum[-1], neg_cum[-1]
    period = len_pos + len_neg
    s_pos = (len_pos - pos_cum)[::-1]
    y_pos = branches._Y_ALL[::-1]
    s_neg = (len_neg - neg_cum)[::-1]
    w_neg = m * y_pos
    zero = -1.0 + 2.0 * len_pos / period
    max_point = -1.0 + len_pos / period
    min_point = zero + len_neg / period
    x = np.linspace(-1.0, 1.0, n + 2)[1:-1]
    s = np.empty_like(x)
    left = x <= max_point
    s[left] = x[left] + 1.0
    mid = (~left) & (x <= zero)
    s[mid] = zero - x[mid]
    down = (x > zero) & (x <= min_point)
    s[down] = x[down] - zero
    right = x > min_point
    s[right] = 1.0 - x[right]
    s *= period
    values = np.empty_like(x)
    pos_mask = x <= zero
    values[pos_mask] = np.interp(s[pos_mask], s_pos, y_pos)
    values[~pos_mask] = -np.interp(s[~pos_mask], s_neg, w_neg)
    return values


@pytest.mark.parametrize("n", [100, 101, 4000])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("m", [1e-6, 0.3, 1.0])
def test_profile_cut_points_match_the_masks(m, q, n):
    ref = _reconstruct_profile_by_masks(m, q, n)
    assert reconstruct_profile(m, q, n).values.tobytes() == ref.tobytes()


def test_profile_geometry_is_read_only():
    for name in ("_PTS_U2", "_PTS_LN_Y", "_Y_ALL", "_HALF", "_INCREMENTS"):
        with pytest.raises(ValueError):
            getattr(branches, name)[0] = 0.0


def test_profile_rejects_bad_arguments():
    with pytest.raises(ValueError):
        reconstruct_profile(0.0, 1.5, 2000)
    with pytest.raises(ValueError):
        reconstruct_profile(0.5, 1.5, 10)


# --- q = 1 constant-sign branch ---------------------------------------------------

def test_q1_coupling_limits():
    # approaching the saturated end the coupling tends to pi^2/2
    assert abs(q1_coupling_of_eigenvalue(PI2 - 1e-10) - PI2 / 2) < 1e-6
    # just above the zero-coupling eigenvalue the coupling is small and positive
    small = q1_coupling_of_eigenvalue(PI2 / 4 + 1e-6)
    assert 0.0 < small < 1e-2


def test_q1_coupling_mid_value():
    lam = (2.0 * PI / 3.0) ** 2
    # tan(2*pi/3) = -sqrt(3) exactly, giving an independent arithmetic route
    expected = lam * math.sqrt(lam) / (2.0 * math.sqrt(lam) + 2.0 * math.sqrt(3.0))
    assert q1_coupling_of_eigenvalue(lam) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.2004671121043122, rel=1e-9)


def test_q1_coupling_range_validation():
    for lam in (PI2 / 4, PI2, 0.0, 12.0):
        with pytest.raises(ValueError):
            q1_coupling_of_eigenvalue(lam)


def test_q1_profile_boundary_and_quotient():
    lam = 6.5
    u = q1_positive_profile(lam, 4000)
    alpha = q1_coupling_of_eigenvalue(lam)
    # the closed form vanishes at both endpoints
    root = math.sqrt(lam)
    for x in (-1.0, 1.0):
        assert abs((alpha / lam) * (1.0 - math.cos(root * x) / math.cos(root))) < 1e-12
    assert np.all(u.values > 0.0)
    quot = rayleigh_quotient(u, ProblemParams(alpha, 1.0))
    assert abs(quot - lam) <= 1e-4 * lam
    # unit-average normalization is self-consistent
    assert abs(q_average(u, 1.0) - 1.0) <= 1e-6


def test_flat_family_average_and_quotient():
    params = ProblemParams(PI2 / 2, 1.0)
    for avg in (0.0, 0.25, 0.5, 1.0):
        u = q1_flat_family(avg, 4000)
        assert abs(q_average(u, 1.0) - avg) <= 1e-6
        assert abs(rayleigh_quotient(u, params) - PI2) <= 1e-6 * PI2


def test_flat_family_endpoints_of_the_parameter():
    x = q1_flat_family(0.0, 500).x
    assert np.allclose(q1_flat_family(0.0, 500).values, -np.sin(PI * x), atol=1e-15)
    assert np.all(q1_flat_family(1.0, 500).values >= 0.0)
    with pytest.raises(ValueError):
        q1_flat_family(1.5, 500)
