import math

import numpy as np
import pytest

from nleig.quadrature import QuadratureNonconvergence, integrate_endpoint_singular


def test_inverse_sqrt_both_factors():
    res = integrate_endpoint_singular(lambda x, c: 1 / (c * (1 + x)) ** 0.5, 1e-12)
    assert abs(res.value - math.pi / 2) <= 1e-12 * math.pi / 2
    assert res.error_estimate >= 0.0
    assert res.evaluations >= 1


def test_inverse_sqrt_right_endpoint():
    res = integrate_endpoint_singular(lambda x, c: 1 / c**0.5, 1e-12)
    assert abs(res.value - 2.0) <= 2e-12


def test_inverse_sqrt_left_endpoint():
    # the rule grades toward x = 1 only: a singularity at x = 0 is not
    # resolved, and must not come back as a value
    with pytest.raises(QuadratureNonconvergence) as info:
        integrate_endpoint_singular(lambda x, c: 1 / x**0.5, 1e-12)
    assert abs(info.value.best.value - 2.0) > 1e-12


def test_strong_right_endpoint_singularity():
    # c**-0.9 puts almost all of its weight within 1e-10 of x = 1, where x
    # itself rounds to 1.0: only the complement c resolves it
    res = integrate_endpoint_singular(lambda x, c: c**-0.9, 1e-12)
    assert abs(res.value - 10.0) <= 1e-12


def test_smooth_integrand_takes_one_call():
    calls = []
    res = integrate_endpoint_singular(lambda x, c: calls.append(x.size) or np.exp(x), 1e-14)
    assert calls == [res.evaluations]
    assert abs(res.value - math.expm1(1.0)) <= 1e-14 * math.expm1(1.0)


def test_constant():
    res = integrate_endpoint_singular(lambda x, c: 1.0, 1e-14)
    assert abs(res.value - 1.0) <= 1e-14


def test_target_range_validated():
    for bad in (1e-15, 1e-3, 0.0, -1.0):
        with pytest.raises(ValueError):
            integrate_endpoint_singular(lambda x, c: 1.0, bad)


def test_linearity():
    target = 1e-10
    f = lambda x, c: x * x
    g = lambda x, c: 1 / (1 + x)
    combined = integrate_endpoint_singular(lambda x, c: 2 * f(x, c) + 3 * g(x, c), target)
    fi = integrate_endpoint_singular(f, target)
    gi = integrate_endpoint_singular(g, target)
    assert abs(combined.value - (2 * fi.value + 3 * gi.value)) <= 10 * target * abs(combined.value)


@pytest.mark.parametrize(
    "f",
    [
        lambda x, c: 1 / (c * (1 + x)) ** 0.5,
        lambda x, c: 1 / c**0.5,
        lambda x, c: 1.0,
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
    with pytest.raises(QuadratureNonconvergence) as info:
        # deliberately divergent: near x = 0, 1/x**2 overflows or divides by zero
        with np.errstate(divide="ignore", over="ignore"):
            integrate_endpoint_singular(lambda x, c: 1 / x**2, 1e-6)
    best = info.value.best
    assert best.evaluations >= 1
    assert best.error_estimate > 0.0


def test_unresolved_tail_raises():
    # c**-0.99 integrates to 100, but about 0.1 of it lies below the deepest
    # panel, c < 2**-1000 ~ 1e-301.  The rule difference settles on the
    # truncated sum (99.90), so only the tail bound catches it, and at 1e-4
    # only with its factor 1/(1 - a) = 100: c0*f(c0) alone is about 1e-3,
    # within the target's 0.01
    for target in (1e-6, 1e-4):
        with pytest.raises(QuadratureNonconvergence) as info:
            integrate_endpoint_singular(lambda x, c: c**-0.99, target)
        assert info.value.best.evaluations >= 1
        assert 99.8 < info.value.best.value < 99.95
