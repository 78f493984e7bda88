import math

import numpy as np
import pytest

from nleig.core import (
    GridFunction,
    ProblemParams,
    analyze,
    apply_stiffness,
    q_average,
    quotient_terms,
    rayleigh_quotient,
)
from nleig import solver
from nleig.solver import (
    SolverNonconvergence,
    SolverOptions,
    _descend,
    _dirichlet_solve,
    _euler_lagrange_residual,
    _grid,
    _S_ROUNDING_BAND,
    _START_TAGS,
    _starts,
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


def test_nonconvergence_carries_best_iterate(monkeypatch):
    # at nonzero coupling the bump start needs more than two descent steps
    monkeypatch.setattr(solver, "_MAX_ITERATIONS", 2)
    with pytest.raises(SolverNonconvergence) as info:
        minimize(ProblemParams(3.0, 1.5), SolverOptions(n=400, starts=("positive_bump",)))
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
        SolverOptions(starts=("bad_tag",))
    with pytest.raises(ValueError):
        SolverOptions(starts=())


# --- Euler-Lagrange residual --------------------------------------------------------

def test_residual_small_at_poincare_minimizer():
    res = minimize(ProblemParams(0.0, 1.5), OPTS)
    assert res.residual < 1e-3 * res.lam


# at (6.34, 1.25) the odd winner keeps S = 2.4e-10, the largest seen in a scan
# of q in [1.02, 1.98] x alpha in [5, 2*pi^2]; gamma must still read 0
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


@pytest.mark.parametrize("q", [1.5, 1.8, 2.0])
def test_rounding_level_average_drops_the_nonlocal_gradient(q):
    # the sampled sine has S = 0 by symmetry; what is left is rounding residue,
    # which must count as the kink S = 0 rather than as a signed average
    u = GridFunction.from_callable(lambda x: np.sin(math.pi * x), 4000)
    v, h = u.values, u.h
    assert 0.0 < abs(q_average(u, q)) <= _S_ROUNDING_BAND
    value, g = quotient_and_gradient(v, h, 8.0, q)
    local = 2.0 * (apply_stiffness(v, h) - value * v)
    assert np.linalg.norm(g - local) <= 1e-12 * np.linalg.norm(apply_stiffness(v, h))


def test_small_real_average_keeps_the_nonlocal_gradient():
    # S of about 1.7e-9 is a real average, of the size odd iterates carry on
    # their way to the odd minimizer: at q = 2 its term alpha*sign(S)*|v| stays
    u = GridFunction.from_callable(lambda x: np.sin(math.pi * x) + 1e-9 * np.cos(0.5 * math.pi * x), 4000)
    v, h, alpha = u.values, u.h, 8.0
    s = q_average(u, 2.0)
    assert 1e-9 < s < 1e-8
    value, g = quotient_and_gradient(v, h, alpha, 2.0)
    full = 2.0 * (apply_stiffness(v, h) + alpha * np.abs(v) - value * v)
    assert np.linalg.norm(g - full) <= 1e-12 * np.linalg.norm(full)


# --- descent work -----------------------------------------------------------------

def _counted_descent(v0, alpha, q, n=4000):
    """Run _descend on the quotient from v0; returns (iterations, evaluations, converged, value)."""
    _, value, iterations, evaluations, converged = _descend(v0, 2.0 / (n + 1), alpha, q)
    return iterations, evaluations, converged, value


@pytest.mark.parametrize("alpha,q", [(8.0, 2.0), (5.0, 1.5), (8.8, 1.8)])
def test_odd_sine_start_above_threshold_is_already_converged(alpha, q):
    # above alpha_q the sampled sine is the exact discrete odd minimizer
    x = np.linspace(-1.0, 1.0, 4002)[1:-1]
    v0 = _starts("odd_sine", x)
    iterations, evaluations, converged, value = _counted_descent(v0, alpha, q)
    assert (iterations, evaluations, converged) == (0, 1, True)
    assert value == saturation_reference(4000, q)


@pytest.mark.parametrize("n", [100, 4000])
@pytest.mark.parametrize("alpha", [-50.0, 0.0, 9.0, 2.0 * PI2, 1e6])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
def test_odd_restart_is_the_descent_it_replaces(q, alpha, n):
    # minimize evaluates the stored sine instead of descending from it; the
    # descent would stop at its first evaluation with the same bits
    sine = _grid(n)[1]["odd_sine"]
    u, value, iterations, evaluations, converged = _descend(sine, 2.0 / (n + 1), alpha, q)
    assert (iterations, evaluations, converged) == (0, 1, True)
    res = minimize(ProblemParams(alpha, q), SolverOptions(n, starts=("odd_sine",)))
    assert (res.lam, res.iterations, res.converged) == (value, 0, True)
    s = quotient_terms(u, 2.0 / (n + 1), q)[2]
    assert np.array_equal(res.minimizer.values, -u if s < 0.0 else u)
    assert res.minimizer.values.flags.writeable  # a copy, not the stored start


@pytest.mark.parametrize("n", [100, 4000, 12345])
def test_stored_sine_has_rounding_level_average(n):
    sine = _grid(n)[1]["odd_sine"]
    for q in (1.0, 1.5, 2.0):
        assert abs(quotient_terms(sine, 2.0 / (n + 1), q)[2]) <= _S_ROUNDING_BAND


@pytest.mark.parametrize(
    "alpha,q,most",
    # without the extrapolation: 6, 10, 7 and 5 steps
    [(3.0, 1.5, 4), (4.99139, 1.0251, 7), (-5.0, 1.2, 4), (7.16, 1.947, 3)],
)
def test_extrapolation_shortens_constant_sign_descents(alpha, q, most):
    iterations, evaluations, converged, _ = _counted_descent(_grid(4000)[1]["positive_bump"], alpha, q)
    assert converged
    assert iterations <= most
    assert evaluations <= 2 * iterations + 1


def test_sign_changing_descent_does_not_extrapolate():
    # the bump restart crosses S = 0 here; secant steps across the kink sent
    # it to the iteration cap, against 18 steps without them
    iterations, _, converged, _ = _counted_descent(_grid(1200)[1]["positive_bump"], 1000.0, 1.65, n=1200)
    assert converged
    assert iterations <= 50


@pytest.mark.parametrize(
    "alpha,q,start",
    [(2.0 * PI2, 2.0, "sine"), (9.0, 1.5, "winner"), (2.0, 1.5, "winner")],
)
def test_descent_started_at_its_minimum_makes_at_most_two_evaluations(alpha, q, start):
    if start == "sine":
        v0 = GridFunction.from_callable(lambda x: np.sin(math.pi * x), 4000).values
    else:
        v0 = minimize(ProblemParams(alpha, q), OPTS).minimizer.values
    _, evaluations, converged, _ = _counted_descent(v0, alpha, q)
    assert converged
    assert evaluations <= 2


@pytest.mark.parametrize("alpha", [2.0, 10.0])
def test_minimize_analyses_only_the_winner(alpha, monkeypatch):
    seen = []
    monkeypatch.setattr("nleig.solver.analyze", lambda u: seen.append(u) or analyze(u))
    res = minimize(ProblemParams(alpha, 2.0), FAST)
    assert len(seen) == 1
    assert seen[0] is res.minimizer


def test_losing_odd_restart_below_threshold_stops_at_once():
    # at (-50, 1.75) the odd start, with S = 0, is a critical point of the
    # quotient that loses to the bump: its restart must stop at once
    assert minimize(ProblemParams(-50.0, 1.75), OPTS).iterations <= 50


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


def _thomas_solve(r, h):
    """Reference: forward elimination and back substitution on tridiag(-1, 2, -1) u = h^2 r."""
    n = len(r)
    diag = [2.0] * n
    rhs = [h * h * float(ri) for ri in r]
    for i in range(1, n):
        m = -1.0 / diag[i - 1]
        diag[i] += m
        rhs[i] -= m * rhs[i - 1]
    u = [0.0] * n
    u[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        u[i] = (rhs[i] + u[i + 1]) / diag[i]
    return np.array(u)


def test_dirichlet_solve_matches_dense_solve():
    n = 100
    h = 2.0 / (n + 1)
    stiffness = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h**2
    r = np.random.default_rng(0).standard_normal(n)
    ref = np.linalg.solve(stiffness, r)
    assert np.linalg.norm(_dirichlet_solve(r, h) - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.linalg.norm(_thomas_solve(r, h) - ref) <= 1e-12 * np.linalg.norm(ref)
    # the production size, against the tridiagonal elimination
    n = 4000
    h = 2.0 / (n + 1)
    r = np.random.default_rng(1).standard_normal(n)
    ref = _thomas_solve(r, h)
    assert np.linalg.norm(_dirichlet_solve(r, h) - ref) <= 1e-10 * np.linalg.norm(ref)


# --- per-grid constants -------------------------------------------------------------

@pytest.mark.parametrize("n", [100, 4000])
def test_grid_constants_are_read_only(n):
    weights, starts = _grid(n)
    assert set(starts) == set(_START_TAGS)
    for a in (weights, *starts.values()):
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
                assert prof.positive_part_symmetry_defect < 1e-3
                assert prof.negative_part_symmetry_defect < 1e-3


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
