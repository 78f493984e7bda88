import dataclasses
import math

import numpy as np
import pytest

from nleig import branches
from nleig.branches import (
    BranchPoint,
    branch_point,
    q1_coupling_of_eigenvalue,
    q1_eigenvalue_of_coupling,
    q1_flat_family,
    q1_positive_profile,
    reconstruct_profile,
)
from nleig.core import ProblemParams, analyze, q_average, rayleigh_quotient
from nleig.period import (
    GAUSS_NODES,
    arc_densities,
    arc_variables,
    first_integral_coeffs,
    gauss_panels,
    half_period,
    integrate_endpoint_singular,
)
from nleig.solver import SolverOptions, minimize

PI = math.pi
PI2 = math.pi**2


# --- branch eigenvalue at depth m ------------------------------------------------

def test_unit_depth_gives_pi_squared():
    assert abs(branch_point(1.0, 1.5).lam - PI2) <= 1e-8


def test_branch_point_holds_the_eigenvalue_and_the_constant():
    # kappa = (q/2)*lam*z is derived, and formed where it is needed
    assert [f.name for f in dataclasses.fields(BranchPoint)] == ["lam", "c"]


def test_half_depth_q2_matches_closed_form():
    closed = (0.5 * PI * math.sqrt(0.625) * 3.0) ** 2
    assert abs(branch_point(0.5, 2.0).lam - closed) <= 1e-8 * closed


def test_near_unit_depth_continuity():
    lam = branch_point(0.999, 1.2).lam
    assert lam >= PI2 - 1e-9
    assert lam <= PI2 * (1.0 + 1e-3)


def test_depth_range_validation():
    for m in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"m must lie in \(0, 1\]"):
            branch_point(m, 1.5)
        with pytest.raises(ValueError, match=r"m must lie in \(0, 1\]"):
            reconstruct_profile(m, 1.5, 100)


@pytest.mark.parametrize("m", [1e-160, 1e-300])
def test_branch_point_refuses_an_eigenvalue_that_overflows(m):
    # at q = 2 the half period, about 1.11/m, is finite, but its square is not
    with pytest.raises(ValueError, match="overflows float64"):
        branch_point(m, 2.0)


def test_branch_point_keeps_the_smallest_depth_whose_eigenvalue_is_finite():
    lam = branch_point(1e-154, 2.0).lam
    assert math.isfinite(lam) and lam > 1e307


@pytest.mark.parametrize("m", [1e-308, 5e-324])
def test_profile_refuses_a_q2_depth_whose_half_period_overflows(m):
    # the same refusal, with the same message, as half_period's
    with pytest.raises(ValueError) as profile_info:
        reconstruct_profile(m, 2.0, 100)
    with pytest.raises(ValueError) as period_info:
        half_period(m, 2.0)
    assert str(profile_info.value) == str(period_info.value)
    assert "overflows float64" in str(profile_info.value)


def test_eigenvalue_exceeds_pi_squared_below_unit_depth():
    for q in (1.25, 1.75):
        for m in [k / 10 for k in range(1, 10)]:
            assert branch_point(m, q).lam > PI2


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
    lam = branch_point(m, q).lam
    z, _ = first_integral_coeffs(m, q)
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
    assert abs(prof.m_bar - 0.6) < 1e-6
    assert abs(u.values.max() - 1.0) < 1e-6


def test_branch_constants_match_measured_first_integral():
    m, q = 0.6, 1.5
    bp = branch_point(m, q)
    u = reconstruct_profile(m, q, 4000)
    v = np.concatenate(([0.0], u.values, [0.0]))
    slope = (v[2:] - v[:-2]) / (2.0 * u.h)
    w = u.values
    z, t = first_integral_coeffs(m, q)
    kappa = 0.5 * q * bp.lam * z
    measured = 0.5 * slope**2 + 0.5 * bp.lam * w * w - (kappa / q) * np.sign(w) * np.abs(w) ** q
    c_measured = float(np.mean(measured))
    assert abs(c_measured - bp.c) <= 1e-3 * abs(bp.c)
    # c is formed from the complement t, which equals 1 - z to rounding
    assert bp.c == 0.5 * bp.lam * t
    assert bp.c == pytest.approx(0.5 * bp.lam * (1.0 - z), rel=1e-15)


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


@pytest.mark.parametrize("m, q", [(1e-9, 1.05), (1e-3, 1.9), (0.3, 1.5), (0.9, 1.95), (1.0, 2.0)])
def test_arc_cumulative_matches_the_running_sum(m, q):
    # the panel-offset accumulation against one running sum of the
    # sub-interval increments over all read-out points of both blocks
    coarse_increments = np.diff(branches._COARSE_PARTIALS, axis=1, prepend=0.0)
    fine_increments = np.diff(branches._FINE_PARTIALS, axis=1, prepend=0.0)
    panels = branches._COARSE_PANELS
    for density in arc_densities(branches._PTS_U2, branches._PTS_LN_Y, m, q):
        steps = np.concatenate((
            (density[:panels] @ coarse_increments).ravel(),
            ((density[panels:] @ fine_increments) * branches._FINE_HALF).ravel(),
        ))
        running = np.concatenate(([0.0], np.cumsum(steps)))
        cumulative = branches._arc_cumulative(density)
        assert cumulative.shape == branches._Y_ALL.shape
        assert np.all(np.diff(cumulative) >= 0.0)
        assert np.abs(cumulative - running).max() <= 1e-14 * running[-1]


def _reference_profile(m, q, n):
    """The rebuild on a table 16x finer: 1/512 panels, then 60 geometric ones, each cut into 16 panels read at their 8 nodes and right edge."""
    legendre = np.polynomial.legendre
    edges = np.concatenate((np.arange(512, 0, -1) / 512, 0.5 ** np.arange(10, 70)))
    cut = np.append((edges[:-1, None] + np.diff(edges)[:, None] * np.arange(16) / 16).ravel(), edges[-1])
    pts_c, half = gauss_panels(cut)
    lagrange = np.linalg.inv(legendre.legvander(GAUSS_NODES, GAUSS_NODES.size - 1))
    partials = legendre.legval(np.append(GAUSS_NODES, 1.0), legendre.legint(lagrange, lbnd=-1.0))
    c_all = np.append(1.0, np.column_stack((pts_c, cut[1:])).ravel())
    y_all = c_all * (2.0 - c_all)
    pos_cum, neg_cum = (
        np.concatenate(([0.0], np.cumsum(np.diff((d @ partials) * half, axis=1, prepend=0.0))))
        for d in arc_densities(*arc_variables(1.0 - pts_c, pts_c), m, q)
    )
    period = pos_cum[-1] + neg_cum[-1]
    max_point = -1.0 + pos_cum[-1] / period
    zero = -1.0 + 2.0 * pos_cum[-1] / period
    min_point = 1.0 - neg_cum[-1] / period
    x = np.linspace(-1.0, 1.0, n + 2)[1:-1]
    return np.where(
        x <= zero,
        np.interp(np.abs(x - max_point) * period, pos_cum, y_all),
        -m * np.interp(np.abs(x - min_point) * period, neg_cum, y_all),
    )


# max-abs error at n = 4000 of the rebuild on 571 panels of 1/512 and
# geometric width, read at their 8 Gauss nodes and right edges (4 568 density
# nodes), against _reference_profile; one column per q of _TABLE_QS
_TABLE_QS = (1.0, 1.2, 1.5, 1.95, 2.0)
_GAUSS_TABLE_ERRORS = {
    1e-6: (5.3949e-06, 6.4754e-06, 7.9564e-06, 9.7087e-06, 3.2061e-08),
    1e-3: (4.6034e-06, 5.7684e-06, 7.3651e-06, 7.8094e-06, 3.2066e-08),
    0.05: (5.0867e-07, 4.2787e-07, 3.4276e-07, 7.5847e-08, 3.2045e-08),
    0.3: (6.7272e-08, 4.2969e-08, 3.2084e-08, 3.1748e-08, 3.2033e-08),
    0.9: (3.2066e-08, 3.1924e-08, 3.1849e-08, 3.2085e-08, 3.2061e-08),
}


@pytest.mark.parametrize("q", _TABLE_QS)
@pytest.mark.parametrize("m", sorted(_GAUSS_TABLE_ERRORS))
def test_profile_is_no_coarser_than_the_gauss_node_table(m, q):
    # reading each coarse panel at 28 points instead of 56 fails 17 of these 25
    # (up to 2.5x the error); away from the positive arc's zero end for small
    # m, the 56 points make the error about 0.61x
    error = np.abs(reconstruct_profile(m, q, 4000).values - _reference_profile(m, q, 4000)).max()
    assert error <= 1.1 * _GAUSS_TABLE_ERRORS[m][_TABLE_QS.index(q)]


def _negative_arc_width(m, q):
    """Width 2*len_neg/half_period of the negative arc, from quadrature alone."""
    res = integrate_endpoint_singular(lambda u2, ln_y: arc_densities(u2, ln_y, m, q)[1], 1e-13)
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
    z, _ = first_integral_coeffs(m, q)
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
    """reconstruct_profile with a boolean mask over the nodes in place of its cut point, kept as a reference."""
    pos, neg = arc_densities(branches._PTS_U2, branches._PTS_LN_Y, m, q)
    pos_cum = branches._arc_cumulative(pos)
    neg_cum = branches._arc_cumulative(neg)
    period = pos_cum[-1] + neg_cum[-1]
    max_point = -1.0 + pos_cum[-1] / period
    zero = -1.0 + 2.0 * pos_cum[-1] / period
    min_point = 1.0 - neg_cum[-1] / period
    x = np.linspace(-1.0, 1.0, n + 2)[1:-1]
    values = np.empty_like(x)
    pos_mask = x <= zero
    values[pos_mask] = np.interp(np.abs(x[pos_mask] - max_point) * period, pos_cum, branches._Y_ALL)
    values[~pos_mask] = -m * np.interp(np.abs(x[~pos_mask] - min_point) * period, neg_cum, branches._Y_ALL)
    return values


def _reconstruct_profile_by_four_pieces(m, q, n):
    """reconstruct_profile as it was: arclength measured from the zero ends of both arcs on reversed tables."""
    pos, neg = arc_densities(branches._PTS_U2, branches._PTS_LN_Y, m, q)
    pos_cum = branches._arc_cumulative(pos)
    neg_cum = branches._arc_cumulative(neg)
    len_pos, len_neg = pos_cum[-1], neg_cum[-1]
    period = len_pos + len_neg
    s_pos = (len_pos - pos_cum)[::-1]
    y_pos = branches._Y_ALL[::-1]
    s_neg = (len_neg - neg_cum)[::-1]
    zero = -1.0 + 2.0 * len_pos / period
    max_point = -1.0 + len_pos / period
    min_point = zero + len_neg / period
    x = np.linspace(-1.0, 1.0, n + 2)[1:-1]
    s = np.select(
        [x <= max_point, x <= zero, x <= min_point], [x + 1.0, zero - x, x - zero], 1.0 - x
    ) * period
    return np.where(x <= zero, np.interp(s, s_pos, y_pos), -np.interp(s, s_neg, m * y_pos))


@pytest.mark.parametrize("n", [100, 101, 4000])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("m", [1e-6, 0.3, 1.0])
def test_profile_cut_points_match_the_masks(m, q, n):
    ref = _reconstruct_profile_by_masks(m, q, n)
    assert reconstruct_profile(m, q, n).values.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [101, 4000])
@pytest.mark.parametrize("q", [1.0, 1.5, 1.95, 2.0])
@pytest.mark.parametrize("m", [1e-9, 1e-3, 0.05, 0.3, 0.7, 0.9, 1.0])
def test_profile_matches_the_four_piece_assembly(m, q, n):
    # measuring from each extremum instead of from the zero ends moves the
    # profile by rounding only (at most 7.3e-16 on this grid)
    ref = _reconstruct_profile_by_four_pieces(m, q, n)
    values = reconstruct_profile(m, q, n).values
    assert np.abs(values - ref).max() <= 1e-14
    assert np.array_equal(values < 0.0, ref < 0.0)


def test_profile_geometry_is_read_only():
    for name in ("_PTS_U2", "_PTS_LN_Y", "_COARSE_PARTIALS", "_FINE_PARTIALS", "_FINE_HALF", "_Y_ALL", "_C_LAST"):
        with pytest.raises(ValueError):
            getattr(branches, name)[0] = 0.0


@pytest.mark.parametrize("m, q", [(1e-20, 1.5), (1e-15, 1.9), (1e-300, 1.99)])
def test_profile_refuses_a_depth_whose_tail_its_tables_miss(m, q):
    # the tables stop at c ~ 1.7e-21, where the rule's tail bound is 5.8e-7
    # and 2.1e-8 of the period at the first two inputs; at the third the
    # rebuild's own period was 132.0 where the tail holds most of the integral
    with pytest.raises(ValueError, match="cannot resolve depth"):
        reconstruct_profile(m, q, 100)


@pytest.mark.parametrize("m, q", [(1e-10, 1.5), (1e-10, 1.9), (1e-10, 1.99), (1e-15, 1.8), (0.05, 1.9), (1.0, 2.0)])
def test_profile_keeps_a_depth_whose_tail_is_negligible(m, q):
    # the tail bound is at most 4.1e-13 of the period at m = 1e-10 and 7.1e-9 at
    # (1e-15, 1.8); the own period then matches the quadrature's within it
    pos, neg = arc_densities(branches._PTS_U2, branches._PTS_LN_Y, m, q)
    own = branches._arc_cumulative(pos)[-1] + branches._arc_cumulative(neg)[-1]
    assert abs(own - half_period(m, q, 1e-12).value) <= 1e-8 * own
    assert np.isfinite(reconstruct_profile(m, q, 100).values).all()


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


def test_q1_eigenvalue_inverts_the_coupling():
    lam = (2.0 * PI / 3.0) ** 2
    assert abs(q1_eigenvalue_of_coupling(q1_coupling_of_eigenvalue(lam)) - lam) <= 1e-11
    for alpha in (0.0, -1.0, PI2 / 2, 6.0, math.nan):
        with pytest.raises(ValueError):
            q1_eigenvalue_of_coupling(alpha)


@pytest.mark.parametrize("alpha", [1e-12, 0.5, 2.5, PI2 / 2 - 1e-12])
def test_q1_eigenvalue_is_bisected_to_the_last_bit(alpha):
    # the coupling map crosses alpha within 4 floats of the eigenvalue on
    # either side; ends fixed 1e-9 inside (pi^2/4, pi^2) missed it by 4.0e-10
    # relative at alpha = 1e-12 and by 1.0e-10 at pi^2/2 - 1e-12
    lam = q1_eigenvalue_of_coupling(alpha)
    below, above = lam, lam
    for _ in range(4):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
    assert q1_coupling_of_eigenvalue(below) < alpha < q1_coupling_of_eigenvalue(above)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5, 4.0, 4.8])
def test_q1_profile_matches_the_solver_minimizer(alpha):
    # measured 2.0e-8 to 9.4e-8 at n = 4000; the gap is O(h^2), 5.2e-6 at
    # n = 400 and alpha = 4.8
    n = 4000
    h = 2.0 / (n + 1)
    u = minimize(ProblemParams(alpha, 1.0), SolverOptions(n=n)).minimizer.values
    y = q1_positive_profile(q1_eigenvalue_of_coupling(alpha), n).values
    y = y / math.sqrt(h * float(y @ y))
    assert math.sqrt(h * float((u - y) @ (u - y))) <= 5e-7


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
