import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nleig.core import GridFunction, ProblemParams, analyze, q_average, rayleigh_quotient

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
        scaled = GridFunction(c * u.values, u.interval)
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


def test_quotient_rejects_interval_mismatch():
    u = GridFunction(np.ones(10), interval=(0.0, 2.0))
    with pytest.raises(ValueError, match="interval"):
        rayleigh_quotient(u, ProblemParams(0.0, 1.5))


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(np.array([1.0, 2.0]))  # too few nodes
    with pytest.raises(ValueError):
        GridFunction(np.array([1.0, np.nan, 2.0]))
    with pytest.raises(ValueError):
        GridFunction(np.ones(5), interval=(2.0, 1.0))


def test_problem_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(0.0, 0.5)
    with pytest.raises(ValueError):
        ProblemParams(0.0, 2.5)
    with pytest.raises(ValueError):
        ProblemParams(math.nan, 1.5)
    with pytest.raises(ValueError):
        ProblemParams(0.0, 1.5, interval=(1.0, -1.0))


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


def test_analyze_rejects_zero_function():
    with pytest.raises(ValueError, match="degenerate"):
        analyze(GridFunction(np.zeros(8)))
