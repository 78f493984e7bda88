import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nleig.core import (
    SIGN_BAND,
    EigenResult,
    GridFunction,
    ProblemParams,
    analyze,
    is_constant_sign,
    nodes,
    q_average,
    rayleigh_quotient,
)
from nleig.branches import q1_flat_family, q1_positive_profile, reconstruct_profile
from nleig.solver import SolverOptions, minimize, saturation_reference, threshold_ascent

PI = math.pi
N = 4000


def grid_sin(k=1, n=N):
    return GridFunction.from_callable(lambda x: np.sin(k * PI * x), n)


def grid_cos(n=N):
    return GridFunction.from_callable(lambda x: np.cos(0.5 * PI * x), n)


# --- rayleigh_quotient -------------------------------------------------------

def test_quotient_of_sine_is_pi_squared():
    u = grid_sin()
    for alpha, q in ((0.0, 1.0), (3.0, 1.3), (-7.0, 2.0)):
        val = rayleigh_quotient(u, ProblemParams(alpha, q))
        assert abs(val - PI**2) <= 1e-6 * PI**2


def test_quotient_of_cosine_at_zero_coupling():
    u = grid_cos()
    for q in (1.0, 1.5, 2.0):
        val = rayleigh_quotient(u, ProblemParams(0.0, q))
        assert abs(val - PI**2 / 4) <= 1e-6 * PI**2 / 4


def test_quotient_of_cosine_q2_adds_coupling_exactly():
    # for a positive function at q = 2 the nonlocal term equals the mass, so
    # the quotient is the zero-coupling quotient plus alpha, exactly
    u = grid_cos()
    base = rayleigh_quotient(u, ProblemParams(0.0, 2.0))
    shifted = rayleigh_quotient(u, ProblemParams(1.0, 2.0))
    assert abs(shifted - (base + 1.0)) <= 1e-12 * abs(shifted)
    assert abs(shifted - (PI**2 / 4 + 1.0)) <= 1e-6 * (PI**2 / 4 + 1.0)


def test_quotient_scaling_invariance():
    u = grid_cos(500)
    params = ProblemParams(2.0, 1.5)
    base = rayleigh_quotient(u, params)
    for c in (-3.0, 0.1, 7.0):
        scaled = GridFunction(c * u.values)
        assert abs(rayleigh_quotient(scaled, params) - base) <= 1e-12 * abs(base)


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(st.floats(-50.0, 50.0), min_size=5, max_size=40),
    c=st.floats(min_value=0.01, max_value=100.0),
    flip=st.booleans(),
)
def test_quotient_scaling_invariance_property(values, c, flip):
    arr = np.asarray(values)
    if not np.max(np.abs(arr)) > 1e-3:  # keep the mass away from underflow
        arr[0] = 1.0
    u = GridFunction(arr)
    params = ProblemParams(1.5, 1.25)
    base = rayleigh_quotient(u, params)
    scale = -c if flip else c
    scaled = rayleigh_quotient(GridFunction(scale * arr), params)
    assert abs(scaled - base) <= 1e-11 * max(1.0, abs(base))


def test_quotient_is_q_independent_at_zero_coupling():
    u = grid_cos(800)
    vals = [rayleigh_quotient(u, ProblemParams(0.0, q)) for q in (1.0, 1.5, 2.0)]
    assert vals[0] == vals[1] == vals[2]


def test_quotient_rejects_degenerate_input():
    u = GridFunction(np.zeros(10))
    with pytest.raises(ValueError, match="degenerate"):
        rayleigh_quotient(u, ProblemParams(0.0, 1.5))


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(np.array([1.0, 2.0]))  # too few nodes
    with pytest.raises(ValueError):
        GridFunction(np.array([1.0, np.nan, 2.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_grid_function_rejects_a_non_finite_value_at_any_node(bad, where):
    v = np.ones(5)
    v[where] = bad
    with pytest.raises(ValueError, match="finite"):
        GridFunction(v)


def test_grid_function_accepts_values_whose_sum_overflows():
    # the finite check looks at each value: a sum of three 1e308 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(GridFunction([1e308] * 3).values, [1e308] * 3)


def test_problem_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(0.0, 0.5)
    with pytest.raises(ValueError):
        ProblemParams(0.0, 2.5)
    with pytest.raises(ValueError):
        ProblemParams(math.nan, 1.5)


# --- q_average ---------------------------------------------------------------

def test_q_average_of_sine_vanishes():
    u = grid_sin()
    for q in (1.0, 1.5, 2.0):
        assert abs(q_average(u, q)) < 1e-12


def test_q_average_of_cosine_q1():
    # antiderivative: int cos(pi x/2) dx over (-1,1) = 4/pi
    assert abs(q_average(grid_cos(), 1.0) - 4 / PI) <= 1e-6


def test_q_average_sign_flip_exact():
    u = grid_cos(700)
    flipped = GridFunction(-u.values)
    for q in (1.0, 1.37, 2.0):
        assert q_average(flipped, q) == -q_average(u, q)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=30), q=st.floats(1.0, 2.0))
def test_q_average_odd_in_u_property(values, q):
    arr = np.asarray(values)
    u = GridFunction(arr)
    assert q_average(GridFunction(-arr), q) == -q_average(u, q)


def test_q_average_rejects_bad_exponent():
    with pytest.raises(ValueError):
        q_average(grid_cos(100), 2.5)


# --- grid size ---------------------------------------------------------------

_GRID_SIZE_ENTRY_POINTS = pytest.mark.parametrize(
    "make",
    [
        lambda n: SolverOptions(n=n),
        lambda n: saturation_reference(n, 1.5),
        lambda n: reconstruct_profile(0.5, 1.5, n),
        lambda n: minimize(ProblemParams(3.0, 1.5), SolverOptions(n=n)),
        lambda n: threshold_ascent(n, 1.5, 9.0),
    ],
    ids=["SolverOptions", "saturation_reference", "reconstruct_profile", "minimize", "threshold_ascent"],
)


@_GRID_SIZE_ENTRY_POINTS
def test_grid_size_rule_is_shared(make):
    # every entry point that takes n applies core.check_n: 100 is the smallest grid
    make(100)
    make(np.int64(100))
    with pytest.raises(ValueError, match="n must be at least 100, got 99"):
        make(99)


@_GRID_SIZE_ENTRY_POINTS
@pytest.mark.parametrize("n", [math.nan, math.inf, 400.0, 400.5])
def test_grid_size_must_be_an_integer(make, n):
    # before: SolverOptions took these, and the solves failed inside numpy with a TypeError
    with pytest.raises(ValueError, match="n must be an integer"):
        make(n)


@pytest.mark.parametrize(
    "make",
    [
        lambda n: q1_flat_family(0.5, n),
        lambda n: q1_positive_profile(5.0, n),
        lambda n: GridFunction.from_callable(np.sin, n),
    ],
    ids=["q1_flat_family", "q1_positive_profile", "from_callable"],
)
def test_sampled_grid_functions_need_an_integral_size(make):
    # before: each failed inside numpy with "TypeError: 'float' object cannot
    # be interpreted as an integer"; a grid function needs only 3 nodes
    assert make(3).n == 3
    for n in (100.5, 100.0, math.nan):
        with pytest.raises(ValueError, match="n must be an integer"):
            make(n)
    with pytest.raises(ValueError, match="n must be at least 3, got 2"):
        make(2)


@pytest.mark.parametrize(
    "f,shape",
    [(lambda x: np.ones(5), "(5,)"), (lambda x: 1.0, "()"), (lambda x: np.ones((2, 100)), "(2, 100)")],
    ids=["short", "scalar", "two_rows"],
)
def test_from_callable_needs_one_value_per_node(f, shape):
    # before: a 5-vector came back as a grid function of n = 5, and a scalar
    # was refused for needing "at least 3 interior nodes"
    with pytest.raises(ValueError, match=re.escape(f"f must return one value per node, shape (100,), got shape {shape}")):
        GridFunction.from_callable(f, 100)


# --- analyze -----------------------------------------------------------------

def test_analyze_sine():
    u = grid_sin()
    prof = analyze(u)
    assert prof.sign_class == "sign_changing"
    assert len(prof.zeros) == 1
    assert abs(prof.zeros[0]) <= u.h
    assert abs(prof.m_bar - 1.0) <= 1e-6
    assert prof.odd_defect < 1e-6


def test_analyze_cosine():
    prof = analyze(grid_cos())
    assert prof.sign_class == "positive"
    assert prof.zeros == ()
    assert prof.m_bar == 0.0
    neg = analyze(GridFunction(-grid_cos().values))
    assert neg == dataclasses.replace(prof, sign_class="negative")


def _two_humps(n, first, second, shift=0.0):
    """Parabolic humps of signed heights first on (-1, shift] and second on (shift, 1), vertices at shift -/+ 1/2."""
    return GridFunction.from_callable(
        lambda x: np.where(x <= shift, first, second) * (1.0 - 4.0 * (np.abs(x - shift) - 0.5) ** 2), n
    )


@pytest.mark.parametrize("n", [100, 101, 4000])
def test_analyze_recovers_the_vertex_of_a_parabola_between_nodes(n):
    # a parabola is its own three-point fit, so each refined extremum is the
    # vertex value itself; the nodal extrema are off by O(h^2)
    prof = analyze(_two_humps(n, 1.0, -0.6, shift=0.37 * 2.0 / (n + 1)))
    assert prof.sign_class == "sign_changing"
    assert abs(prof.m_bar - 0.6) <= 1e-12


@pytest.mark.parametrize("n", [103, 4003])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive_first", "negative_first"])
@pytest.mark.parametrize(
    "first, second, m_bar",
    [
        (1.0, 1.0 + 1e-10, 1.0 / (1.0 + 1e-10)),  # the smaller hump over the larger, however close
        (1.0 + 1e-10, 1.0, 1.0 / (1.0 + 1e-10)),
        (1.0 + 1e-8, 1.0, 1.0 / (1.0 + 1e-8)),
        (1.0, 1.0 + 1e-8, 1.0 / (1.0 + 1e-8)),
        (1.0, 0.6, 0.6),
    ],
)
def test_analyze_orientation_rule(n, sign, first, second, m_bar):
    # vertices on the nodes -1/2 and 1/2, so nodal and refined extrema agree
    prof = analyze(_two_humps(n, sign * first, -sign * second))
    assert prof.sign_class == "sign_changing"
    assert prof.m_bar == pytest.approx(m_bar, rel=1e-13, abs=0.0)


def _offset_humps(n, top, depth, left, right):
    """A hump of height top, vertex at -1/2 + left*h, on x <= 0 and one of height -depth, vertex at 1/2 + right*h, past it."""
    h = 2.0 / (n + 1)

    def f(x):
        pos = top * np.maximum(0.0, 1.0 - 4.0 * (x + 0.5 - left * h) ** 2)
        neg = depth * np.maximum(0.0, 1.0 - 4.0 * (x - 0.5 - right * h) ** 2)
        return np.where(x <= 0.0, pos, -neg)

    return GridFunction.from_callable(f, n).values


def _m_bars(v):
    return {analyze(GridFunction(w)).m_bar.hex() for w in (v, -v, v[::-1], -v[::-1])}


@pytest.mark.parametrize("first_off, second_off", [(0.0, 0.5), (0.5, 0.0)])
def test_analyze_reads_the_refined_ratio_where_the_nodal_ranking_differs(first_off, second_off):
    # the hump of height 1 + 2e-5 has its vertex half a step off the nodes,
    # so its nodal extremum is the smaller one: a nodal ranking read m_bar = 1
    first, second = (1.0, 1.0 + 2e-5) if first_off == 0.0 else (1.0 + 2e-5, 1.0)
    v = _offset_humps(103, first, second, first_off, second_off)
    assert (abs(v.max()) < abs(v.min())) == (first_off > 0.0)
    (m_bar,) = _m_bars(v)
    assert abs(float.fromhex(m_bar) - 1.0 / (1.0 + 2e-5)) <= 1e-15


@pytest.mark.parametrize("n", [100, 101, 4000, 4001])
def test_analyze_reads_one_for_an_exactly_odd_input(n):
    # the fit is symmetric in its two neighbours, so both humps of an odd
    # input refine to the same height
    v = np.sin(PI * nodes(n)[1:-1])
    v = np.concatenate((v[: n // 2], np.zeros(n % 2), -v[: n // 2][::-1]))
    assert analyze(GridFunction(v)).m_bar == 1.0


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(100, 4001),
    top=st.floats(0.1, 1.0),
    ratio=st.one_of(st.floats(1.0 - 2e-9, 1.0 + 2e-9), st.floats(0.05, 20.0)),
    left=st.floats(-1.0, 1.0),
    right=st.floats(-1.0, 1.0),
    k=st.integers(-1000, 1000),
)
def test_analyze_m_bar_is_the_same_for_every_orientation_and_scale(n, top, ratio, left, right, k):
    # m_bar is the smaller refined hump over the larger: sign, order and a
    # power-of-two scale, which are exact, leave its bits alone, also for
    # humps within 1e-9 of each other
    v = _offset_humps(n, top, top * ratio, left, right)
    (m_bar,) = _m_bars(v) | _m_bars(np.ldexp(v, k))
    assert 0.0 < float.fromhex(m_bar) <= 1.0


def test_analyze_interior_zero_of_mixed_profile():
    # profile 0.25*(1+cos(pi x)) - sqrt(0.5)*sin(pi x): its root in (0, 1),
    # located independently by bisection on the closed form
    f = lambda x: 0.25 * (1.0 + np.cos(PI * x)) - math.sqrt(0.5) * np.sin(PI * x)
    lo, hi = 0.0, 0.75
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    u = GridFunction.from_callable(f, N)
    prof = analyze(u)
    assert prof.sign_class == "sign_changing"
    assert len(prof.zeros) == 1
    assert prof.zeros[0] > 0.0
    assert abs(prof.zeros[0] - root) <= 2 * u.h


@pytest.mark.parametrize("k,count", [(1, 1), (2, 3)])
def test_analyze_zero_counts_for_sine_modes(k, count):
    u = grid_sin(k)
    prof = analyze(u)
    assert len(prof.zeros) == count
    # sin(k*pi*x) vanishes at x = j/k inside (-1, 1)
    for x0, j in zip(prof.zeros, range(1 - k, k)):
        assert abs(x0 - j / k) <= u.h


@pytest.mark.parametrize(
    "f",
    [
        lambda x: np.sin(PI * x),
        lambda x: 0.25 * (1.0 + np.cos(PI * x)) - math.sqrt(0.5) * np.sin(PI * x),
    ],
    ids=["odd_tie", "dominant_hump"],
)
def test_analyze_sign_changing_is_flip_invariant(f):
    u = GridFunction.from_callable(f, N)
    prof = analyze(u)
    flipped = analyze(GridFunction(-u.values))
    assert prof.sign_class == flipped.sign_class == "sign_changing"
    assert flipped.m_bar == prof.m_bar
    assert flipped.zeros == prof.zeros


def test_analyze_ignores_roundoff_undershoot():
    u = grid_cos(500)
    v = u.values.copy()
    v[0] = -1e-9 * v.max()  # boundary-adjacent dip below zero, inside the band
    prof = analyze(GridFunction(v))
    assert prof.sign_class == "positive"
    assert prof.zeros == ()


def _constant_sign_cases():
    bump = grid_cos(500).values
    mixed = GridFunction.from_callable(lambda x: 0.25 * (1.0 + np.cos(PI * x)) - math.sqrt(0.5) * np.sin(PI * x), 500)
    cases = [
        pytest.param(bump, True, id="cosine"),
        pytest.param(grid_sin(1, 500).values, False, id="sine"),
        pytest.param(grid_sin(3, 500).values, False, id="sine_k3"),
        pytest.param(mixed.values, False, id="mixed"),
    ]
    # one boundary-adjacent dip of depth band*vmax: inside, on and just past the edge
    for label, depth, expected in (("inside", 0.999, True), ("edge", 1.0, False), ("past", 1.001, False)):
        v = bump.copy()
        v[0] = -depth * SIGN_BAND * v.max()
        cases.append(pytest.param(v, expected, id=f"dip_{label}"))
    return cases


@pytest.mark.parametrize("v,expected", _constant_sign_cases())
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_is_constant_sign_agrees_with_analyze(v, expected, sign):
    w = sign * v
    assert is_constant_sign(w) is expected
    assert (analyze(GridFunction(w)).sign_class != "sign_changing") is expected


def test_analyze_rejects_zero_function():
    with pytest.raises(ValueError, match="degenerate"):
        analyze(GridFunction(np.zeros(8)))


# --- node table and part reflection -------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 101, 4000])
def test_node_table_is_read_only_linspace(n):
    x = nodes(n)
    assert x is nodes(n)
    assert x.tobytes() == np.linspace(-1.0, 1.0, n + 2).tobytes()
    with pytest.raises(ValueError):
        x[0] = 0.0
    assert np.shares_memory(GridFunction(np.ones(n)).x, x)


@pytest.mark.parametrize("s, gamma", [(1e-5, 1e-5 ** (1.0 / 3.0)), (1e-8, 0.0), (0.0, 0.0)])
def test_gamma_of_a_small_average(s, gamma):
    # gamma = S^(2/q - 1), with q = 1.5 the cube root of S; only S at or
    # below 1e-8 stands for the zero average of an odd minimizer
    u = grid_sin()
    res = EigenResult(lam=PI**2, minimizer=u, params=ProblemParams(10.0, 1.5), q_average=s, iterations=0, evaluations=1)
    assert res.gamma == pytest.approx(gamma, rel=1e-14, abs=0.0)


# --- extreme scales -------------------------------------------------------------

def _scaled_inputs():
    """(name, values, scale) of grid functions far outside the normal scale, as the unit-scale shape times 2^k."""
    const = np.ones(101)
    sine = grid_sin(1, 101).values
    mixed = reconstruct_profile(0.5, 1.5, 101).values
    return [
        ("constant 1e-300", const, -997),
        ("constant 1e-310", const, -1030),
        ("sine 1e-310", sine, -1030),
        ("mixed 1e160", mixed, 532),
        ("sine 1e300", sine, 997),
        ("constant 1e300", const, 997),
    ]


@pytest.mark.parametrize("name, shape, k", _scaled_inputs())
def test_analyze_at_an_extreme_scale_matches_the_unit_scale(name, shape, k):
    # before: ZeroDivisionError in odd_defect (1e-300, 1e-310) and
    # OverflowError in the extremum fit (1e160, 1e300); the power-of-two
    # rescale is exact and every field is scale-invariant, so the profile
    # keeps the unit-scale bits
    v = np.ldexp(shape, k)
    ref = analyze(GridFunction(np.ldexp(shape, 3)))
    prof = analyze(GridFunction(v))
    if np.array_equal(np.ldexp(v, -k), shape):  # no subnormal lost a digit
        assert prof == ref
    else:
        assert prof.sign_class == ref.sign_class
        assert len(prof.zeros) == len(ref.zeros)


@pytest.mark.parametrize("name, shape, k", _scaled_inputs())
def test_rayleigh_quotient_at_an_extreme_scale_matches_the_unit_scale(name, shape, k):
    # before: "u is identically zero" at 1e-300 and a matmul overflow warning at 1e160
    params = ProblemParams(2.0, 1.5)
    ref = rayleigh_quotient(GridFunction(shape), params)
    assert rayleigh_quotient(GridFunction(np.ldexp(shape, k)), params) == pytest.approx(ref, rel=1e-13)


def test_q_average_at_a_large_scale():
    # before: an overflow warning from the energy that q_average never read
    shape = grid_sin(1, 101).values + 0.5
    ref = q_average(GridFunction(shape), 1.5)
    assert q_average(GridFunction(np.ldexp(shape, 532)), 1.5) == pytest.approx(2.0 ** (532 * 1.5) * ref, rel=1e-13)
    # at q = 2 the average itself, about 1e320, exceeds float64
    with pytest.raises(ValueError, match="overflows float64"):
        q_average(GridFunction(np.ldexp(shape, 532)), 2.0)
