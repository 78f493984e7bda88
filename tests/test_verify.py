"""Every verify criterion is seen to fail.

Each fault below perturbs one input of a criterion by a multiple of the
tolerance of the check it reaches (or flips the sign of a quantity that
must be positive); every criterion has one, criteria 3 and 8 one per check
kind.  Twice the tolerance turns the criterion FAIL, with that check's label
in the detail, and ``nleig verify --only k`` exits 3; half of
it leaves the criterion passing.  The solves come from verify's own caches.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

import nleig.cli as cli
from nleig import verify
from nleig.branches import alpha_zero_exact
from nleig.core import GridFunction
from nleig.period import first_integral_coeffs

PI2 = math.pi**2


def _patch(monkeypatch, name, at, change, field=None):
    """Make verify's ``name`` return change(value) where at(*args) holds; ``field`` names the changed attribute."""
    original = getattr(verify, name)

    def patched(*args):
        value = original(*args)
        if not at(*args):
            return value
        if field is None:
            return change(value)
        return dataclasses.replace(value, **{field: change(getattr(value, field))})

    monkeypatch.setattr(verify, name, patched)


def _above_alpha_q(alpha, q):
    return alpha > verify._crit(q).alpha_q


def _with_bump(u, size):
    """u plus a bump of L2 norm size."""
    bump = np.cos(0.5 * np.pi * u.x)
    return GridFunction(u.values + size * bump / math.sqrt(u.h * float(bump @ bump)))


def _fault_c1(mp, k):
    shift = k * verify._GRID_BAND * verify._GRID_LAMBDA
    _patch(mp, "_solve", lambda a, q: (a, q) == (0.0, 1.5), lambda lam: lam + shift, "lam")


def _fault_c2(mp, k):
    _patch(mp, "half_period", lambda m, q: (m, q) == (0.5, 1.0), lambda v: v + k * 1e-9 * math.pi, "value")


def _fault_c3(mp, k):
    _patch(mp, "offset_positivity_margin", lambda m, q: (m, q) == (0.5, 1.5), lambda v: -v)


def _fault_c3_order(mp, k):
    # at y = 0.5, the tenth height, the q = 1.25 density sum rises by k times its gap to the q = 1.5 sum
    original = verify.arc_densities

    def patched(u2, ln_y, m, q):
        pos, neg = original(u2, ln_y, m, q)
        if (m, q) == (0.5, 1.25):
            gap = np.add(*original(u2, ln_y, m, 1.5)) - (pos + neg)
            pos[9] += k * gap[9]
        return pos, neg

    mp.setattr(verify, "arc_densities", patched)


def _fault_c3_margin(mp, k):
    # the value's margin over pi + 10*error shrinks by k times itself
    def change(hv):
        return dataclasses.replace(hv, value=hv.value - k * (hv.value - math.pi - 10.0 * hv.error_estimate))

    _patch(mp, "half_period", lambda m, q: (m, q) == (0.5, 1.5), change)


def _fault_c4(mp, k):
    _patch(mp, "_crit", lambda q: q == 1.0, lambda aq: aq + k * verify._GRID_BAND * aq, "alpha_q")


def _fault_c5(mp, k):
    shift = k * verify._GRID_BAND * verify._grid_spectrum()[2]
    _patch(mp, "_solve", lambda a, q: q == 2.0 and _above_alpha_q(a, q), lambda lam: lam + shift, "lam")


def _fault_c6(mp, k):
    shift = k * verify._GRID_BAND * (verify._GRID_LAMBDA + 4.0)
    _patch(mp, "_solve", lambda a, q: (a, q) == (4.0, 2.0), lambda lam: lam + shift, "lam")


def _fault_c7(mp, k):
    shift = k * verify._GRID_BAND * verify._q1_grid_lambda(2.5)
    _patch(mp, "_solve", lambda a, q: (a, q) == (2.5, 1.0), lambda lam: lam + shift, "lam")


def _fault_c8(mp, k):
    # lambda(6, 1) and lambda(9, 1) are both the saturated odd sine's value
    _patch(mp, "_solve", lambda a, q: (a, q) == (9.0, 1.0), lambda lam: lam - k * 1e-6, "lam")


def _fault_c8_lipschitz(mp, k):
    # slope 2 at q = 1: lambda(9) may exceed lambda(6) by at most 2*3 + 1e-6
    base = verify._solve(6.0, 1.0).lam
    _patch(mp, "_solve", lambda a, q: (a, q) == (9.0, 1.0), lambda lam: base + 6.0 + k * 1e-6, "lam")


def _fault_c9(mp, k):
    _patch(mp, "lower_bound", lambda q: q == 1.5, lambda b: verify._crit(1.5).alpha_q + k * verify._CRIT_TOL)


def _fault_c10(mp, k):
    _patch(mp, "alpha_zero", lambda q, opts: q == 1.5, lambda root: root + k * verify._H**2 * abs(alpha_zero_exact(1.5)))


def _fault_c11(mp, k):
    _patch(mp, "rescale_lambda", lambda a, b, alpha, q, opts: q == 1.0, lambda lam: lam * (1.0 + k * 1e-6))


def _fault_c12(mp, k):
    _patch(mp, "_solve", lambda a, q: q == 1.5 and _above_alpha_q(a, q), lambda u: _with_bump(u, k * verify._H**2), "minimizer")


# (criterion, fault, label of the faulted check, whether the check has a tolerance)
FAULTS = [
    (1, _fault_c1, "lambda(0,1.5) rel dev from the grid's eigenvalue", True),
    (2, _fault_c2, "half_period(0.5,1) rel dev from pi", True),
    (3, _fault_c3, "offset margin(0.5,1.5) positive", False),
    (3, _fault_c3_order, "integrand(m=0.5, y=0.5) at q=1.25 below q=1.5", False),
    (3, _fault_c3_margin, "half_period(0.5,1.5): 10*error below value - pi", True),
    (4, _fault_c4, "alpha_critical(1.0) rel dev from the grid's closed form", True),
    (5, _fault_c5, "q=2.0: lambda at alpha_q+0.5 rel dev from the sine's value", True),
    (6, _fault_c6, "lambda(4.0,2) rel dev from the grid's eigenvalue+alpha", True),
    (7, _fault_c7, "lambda(2.5,1) rel dev from the grid's secular root", True),
    (8, _fault_c8, "q=1.0: lambda(6.0) - 1e-6 vs lambda(9.0)", True),
    (8, _fault_c8_lipschitz, "q=1.0: increment over (6.0,9.0) vs Lipschitz bound + 1e-6", True),
    (9, _fault_c9, "q=1.5: lower bound - tol vs alpha_q", True),
    (10, _fault_c10, "alpha_zero(1.5) rel dev from closed form", True),
    (11, _fault_c11, "q=1.0: rescaled (-2,2) lambda rel dev from closed form", True),
    (12, _fault_c12, "q=1.5: L2 distance of the rebuild from the minimizer", True),
]


def _params(rows):
    return [pytest.param(cid, fault, label, id=fault.__name__[len("_fault_"):]) for cid, fault, label, _ in rows]


def test_every_criterion_has_a_fault():
    assert sorted({cid for cid, _, _, _ in FAULTS}) == [num for num, _, _ in verify.CRITERIA]


@pytest.mark.parametrize("cid, fault, label", _params(FAULTS))
def test_a_fault_at_twice_the_tolerance_fails_its_criterion(monkeypatch, capsys, cid, fault, label):
    fault(monkeypatch, 2.0)
    result = verify.run_criterion(cid)
    assert not result.passed
    assert result.detail.startswith("1 of ")
    assert f"{label}: " in result.detail
    assert cli.main(["verify", "--only", str(cid)]) == 3
    assert "0/1 criteria passed" in capsys.readouterr().out


@pytest.mark.parametrize("cid, fault, label", _params(row for row in FAULTS if row[3]))
def test_a_fault_at_half_the_tolerance_passes(monkeypatch, cid, fault, label):
    fault(monkeypatch, 0.5)
    assert verify.run_criterion(cid).passed


def test_a_nan_fails_its_check(monkeypatch):
    _patch(monkeypatch, "_solve", lambda a, q: (a, q) == (0.0, 1.5), lambda lam: math.nan, "lam")
    result = verify.run_criterion(1)
    assert not result.passed
    assert result.detail.startswith("2 of 4 checks fail: ")
    assert "lambda(0,1.5) rel dev from the grid's eigenvalue: nan > 1e-11" in result.detail
    assert "lambda(0,1.5) rel dev from pi^2/4: nan > 2.4987505e-07" in result.detail


def test_a_strict_check_fails_at_equality(monkeypatch):
    # criterion 5 needs lambda < pi^2 below alpha_q: pi^2 itself fails, the float below it passes
    for lam, passed in ((PI2, False), (math.nextafter(PI2, 0.0), True)):
        _patch(monkeypatch, "_solve", lambda a, q: not _above_alpha_q(a, q), lambda _: lam, "lam")
        assert verify.run_criterion(5).passed is passed
        monkeypatch.undo()


def test_check_counts_per_criterion():
    # criterion 3's two chains (the integrand over q, the gap over y) split
    # into one check per pair or value; criterion 4 with a grid-exact and a
    # continuum row per q, criterion 5 with one continuum row
    counts = {num: len(list(fn())) for num, _, fn in verify.CRITERIA}
    assert counts == {1: 4, 2: 22, 3: 1444, 4: 6, 5: 13, 6: 6, 7: 9, 8: 30, 9: 4, 10: 3, 11: 2, 12: 2}


@pytest.mark.parametrize("n", [100, 101])
def test_q1_grid_lambda_is_the_smallest_eigenvalue_of_the_rank_one_update(n):
    # K + alpha*h*11^T, dense, from below zero through alpha_1 (about 4.93) to
    # the sine's value above it; the dense solver's own error is about
    # eps*|A|, measured at most 1.7 eps*|A|
    h = 2.0 / (n + 1)
    stiffness = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h**2
    for alpha in (-20.0, -5.0, -1.0, 0.0, 1.0, 2.5, 4.0, 4.9, 6.0, 8.0):
        matrix = stiffness + alpha * h * np.ones((n, n))
        dense = np.linalg.eigvalsh(matrix)[0]
        bound = 4.0 * np.finfo(float).eps * np.linalg.norm(matrix, 2)
        assert abs(verify._q1_grid_lambda(alpha, n) - dense) <= bound, alpha


def test_a_pass_detail_names_the_check_nearest_its_bound():
    # the continuum row: 5.14e-8 of h^2, against at most 2.6e-16 of 1e-11 for the grid's eigenvalue
    result = verify.run_criterion(1)
    assert result.passed
    assert result.detail.startswith("4 checks hold, nearest its bound lambda(0,1.5) rel dev from pi^2/4: ")
    assert result.detail.endswith(" <= 2.4987505e-07")


def test_criterion_3_reads_the_integrand_in_one_call_per_depth_and_exponent(monkeypatch):
    # 9 depths by 5 exponents, each call on all 19 heights
    calls = []
    original = verify.arc_densities
    monkeypatch.setattr(verify, "arc_densities", lambda u2, ln_y, m, q: calls.append(u2.size) or original(u2, ln_y, m, q))
    assert verify.run_criterion(3).passed
    assert calls == [19] * 45


def test_criterion_3_orders_the_y_form_integrand():
    # the order checks hold under any positive factor per height, so the
    # values are checked too: against 1/sqrt(t + z*y^q - y^2) + m/sqrt(t - z*m^q*y^q - m^2*y^2)
    rows = [c for c in verify._c3_monotonicity_positivity() if c[0].startswith("integrand(")]
    assert len(rows) == 684
    for label, lhs, _ in rows:
        m, y, q = map(float, re.fullmatch(r"integrand\(m=(.*), y=(.*)\) at q=(.*) below q=.*", label).groups())
        z, t = first_integral_coeffs(m, q)
        direct = 1.0 / math.sqrt(t + z * y**q - y * y) + m / math.sqrt(t - z * m**q * y**q - (m * y) ** 2)
        assert abs(lhs - direct) <= 1e-12 * direct, label


def test_every_criterion_line_ends_with_its_checks_bound(capsys):
    # no elapsed-time field after the bound
    assert cli.main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()[:-1]
    assert len(lines) == len(verify.CRITERIA)
    for line, (_, _, fn) in zip(lines, verify.CRITERIA):
        bounds = {f"{rhs:.8g}" for _, _, rhs in fn()}
        assert line.rsplit(" <= ", 1)[1] in bounds, line


def test_unknown_ids_are_refused():
    with pytest.raises(ValueError, match="unknown criterion id 13"):
        verify.run_criterion(13)
    with pytest.raises(ValueError, match=r"unknown criterion ids \[0, 13\]: valid ids are 1-12"):
        verify.run_all({0, 2, 13})
