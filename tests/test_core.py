import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nleig.core import (
    SIGN_BAND,
    GridFunction,
    ProblemParams,
    _part_symmetry_defect,
    analyze,
    is_constant_sign,
    nodes,
    q_average,
    rayleigh_quotient,
)
from nleig.solver import SolverOptions, minimize

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


# --- analyze -----------------------------------------------------------------

def test_analyze_sine():
    u = grid_sin()
    prof = analyze(u)
    assert prof.sign_class == "sign_changing"
    assert len(prof.zeros) == 1
    assert abs(prof.zeros[0]) <= u.h
    # reported in the orientation where the maximum comes first
    assert abs(prof.max_point + 0.5) < 1e-6
    assert abs(prof.min_point - 0.5) < 1e-6
    assert abs(prof.m_bar - 1.0) <= 1e-6
    assert prof.odd_defect < 1e-6
    # the part boundary kink costs O(h) locally under linear interpolation
    assert prof.positive_part_symmetry_defect < 1e-3
    assert prof.negative_part_symmetry_defect < 1e-3


def test_analyze_cosine():
    prof = analyze(grid_cos())
    assert prof.sign_class == "positive"
    assert prof.zeros == ()
    assert abs(prof.max_point) < 1e-6
    assert prof.m_bar == 0.0
    # the extremum on the zero side is the boundary value, not an
    # extrapolation past the endpoint
    assert (prof.min_point, prof.min_value) == (-1.0, 0.0)
    neg = analyze(GridFunction(-grid_cos().values))
    assert neg.sign_class == "negative"
    assert abs(neg.min_point) < 1e-6
    assert (neg.max_point, neg.max_value) == (-1.0, 0.0)


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


def _interp_defect(part, center):
    """The part symmetry defect by np.interp at the mirrored abscissae, kept as the reference."""
    xp = np.linspace(-1.0, 1.0, part.size)
    norm = math.sqrt(float(part @ part))
    if norm == 0.0:
        return 0.0
    diff = part - np.interp(2.0 * center - xp, xp, part, left=0.0, right=0.0)
    return math.sqrt(float(diff @ diff)) / norm


def _reflection_parts(n):
    """Padded sign parts: white noise for small n, smooth random modes and solver minimizers at n >= 101.

    White noise at n = 4000 is left out: there a rounding of the mirror
    position (k near 8000 has an ulp of 9e-13) moves the defect of a vector
    that jumps by O(1) between nodes by up to 2e-13 in both formulas alike,
    against an extended-precision reference.
    """
    rng = np.random.default_rng(n)
    x = nodes(n)
    if n < 100:
        vectors = [rng.standard_normal(n) for _ in range(3)]
    else:
        modes = np.arange(1, 9)
        vectors = [np.sin(np.outer(x[1:-1] + 1.0, 0.5 * PI * modes)) @ rng.standard_normal(8) for _ in range(3)]
        for alpha in (3.0, 9.0):
            vectors.append(minimize(ProblemParams(alpha, 1.5), SolverOptions(n=n)).minimizer.values)
    parts = []
    for v in vectors:
        wp = np.concatenate(([0.0], v, [0.0]))
        parts += [np.maximum(wp, 0.0), np.minimum(wp, 0.0)]
    return x, parts


@pytest.mark.parametrize("n", [3, 4, 101, 4000])
def test_part_reflection_by_index_shift_matches_interp(n):
    x, parts = _reflection_parts(n)
    h = 2.0 / (n + 1)
    # on a node, midway between nodes, a third of the way, and on either zero pad
    centers = [x[1], x[n // 2], x[n // 2] + 0.5 * h, x[n // 3] + h / 3.0, x[n] - 0.7 * h, -1.0, 1.0]
    for part in parts:
        for center in centers:
            assert abs(_part_symmetry_defect(part, float(center)) - _interp_defect(part, float(center))) <= 1e-13
