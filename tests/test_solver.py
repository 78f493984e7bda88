import math

import numpy as np
import pytest

from nleig.core import (
    EigenResult,
    GridFunction,
    ProblemParams,
    analyze,
    apply_stiffness,
    q_average,
    rayleigh_quotient,
)
from nleig.solver import (
    SolverNonconvergence,
    SolverOptions,
    _dirichlet_solve,
    el_residual,
    minimize,
    quotient_and_gradient,
    saturation_reference,
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


def test_first_integral_constant_only_on_sign_changing_branch():
    below = minimize(ProblemParams(1.0, 2.0), FAST)
    assert below.first_integral_constant is None
    above = minimize(ProblemParams(10.0, 2.0), FAST)
    # saturated branch: depth 1, so the constant is lambda/2
    assert above.first_integral_constant == pytest.approx(0.5 * above.lam, rel=1e-6)


def test_nonconvergence_carries_best_iterate():
    # at nonzero coupling the bump start needs more than two descent steps
    with pytest.raises(SolverNonconvergence) as info:
        minimize(ProblemParams(3.0, 1.5), SolverOptions(n=400, max_iterations=2, starts=("positive_bump",)))
    res = info.value.result
    assert not res.converged
    assert res.minimizer.n == 400


@pytest.mark.parametrize("q", [1.4, 1.5, 1.6, 1.7])
def test_top_of_bracket_converges_quickly_to_the_odd_sine_branch(q):
    # alpha = 2*pi^2 is the upper end of the critical search; here the odd
    # start settles within a few dozen steps and the bump start loses
    params = ProblemParams(2.0 * PI2, q)
    res = minimize(params, OPTS)
    assert res.converged
    assert res.iterations <= 100
    assert res.lam == minimize(params, SolverOptions(starts=("odd_sine",))).lam


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(n=50)
    with pytest.raises(ValueError):
        SolverOptions(lambda_tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(starts=("bad_tag",))
    with pytest.raises(ValueError):
        SolverOptions(starts=())


# --- el_residual ----------------------------------------------------------------

def test_residual_small_at_poincare_minimizer():
    params = ProblemParams(0.0, 1.5)
    res = minimize(params, OPTS)
    assert el_residual(res, params) < 1e-3 * res.lam


# at (6.34, 1.25) the odd winner keeps S = 2.4e-10, the largest seen in a scan
# of q in [1.02, 1.98] x alpha in [5, 2*pi^2]; gamma must still read 0
@pytest.mark.parametrize("alpha,q", [(10.0, 2.0), (9.0, 1.8), (7.0, 1.5), (6.34, 1.25)])
def test_residual_small_on_saturated_branch_with_zero_gamma(alpha, q):
    params = ProblemParams(alpha, q)
    res = minimize(params, OPTS)
    assert res.gamma == 0.0
    assert el_residual(res, params) < 1e-3 * res.lam


def test_residual_large_for_arbitrary_function():
    params = ProblemParams(0.0, 1.5)
    converged = minimize(params, FAST)
    rng = np.random.default_rng(1)
    junk = GridFunction(rng.uniform(-1.0, 1.0, FAST.n))
    fake = EigenResult(
        lam=converged.lam,
        minimizer=junk,
        q_average=0.0,
        gamma=0.0,
        first_integral_constant=None,
        iterations=0,
        residual=0.0,
        restarts_used=0,
    )
    assert el_residual(fake, params) > 100.0 * el_residual(converged, params)


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


# --- quotient kernel ---------------------------------------------------------------

@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("alpha", [-3.0, 4.0])
def test_quotient_gradient_matches_finite_differences(q, alpha):
    n = 100
    u = GridFunction.from_callable(lambda x: np.cos(0.5 * math.pi * x) + 0.4 * np.sin(math.pi * x), n)
    v, h = u.values, u.h
    assert q_average(u, q) > 0.1  # S != 0: the nonlocal term enters the gradient
    value, g = quotient_and_gradient(v, h, alpha, q)
    assert value == pytest.approx(rayleigh_quotient(u, ProblemParams(alpha, q)), rel=1e-14)
    rng = np.random.default_rng(7)
    eps = 1e-6
    for _ in range(3):
        e = rng.standard_normal(n)
        fd = (quotient_and_gradient(v + eps * e, h, alpha, q)[0]
              - quotient_and_gradient(v - eps * e, h, alpha, q)[0]) / (2.0 * eps)
        # g is the gradient for the mass h*v.v; the Euclidean one is h*g/(h*v.v)
        exact = float(g @ e) / float(v @ v)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


# --- closed-form Dirichlet solve -------------------------------------------------

@pytest.mark.parametrize("n", [100, 4000])
def test_dirichlet_solve_inverts_stiffness(n):
    rng = np.random.default_rng(n)
    h = 2.0 / (n + 1)
    u = rng.standard_normal(n)
    back = _dirichlet_solve(apply_stiffness(u, h), h)
    assert np.linalg.norm(back - u) <= 1e-10 * np.linalg.norm(u)
    r = rng.standard_normal(n)
    fwd = apply_stiffness(_dirichlet_solve(r, h), h)
    assert np.linalg.norm(fwd - r) <= 1e-10 * np.linalg.norm(r)


def test_dirichlet_solve_matches_dense_solve():
    n = 100
    h = 2.0 / (n + 1)
    stiffness = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h**2
    r = np.random.default_rng(0).standard_normal(n)
    ref = np.linalg.solve(stiffness, r)
    assert np.linalg.norm(_dirichlet_solve(r, h) - ref) <= 1e-12 * np.linalg.norm(ref)


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
