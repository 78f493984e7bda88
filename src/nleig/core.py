"""Domain types and discrete Rayleigh-quotient primitives.

The problem is posed on the reference interval (-1, 1), as in the paper;
``critical.rescale_lambda`` carries an eigenvalue to any other interval.
Functions vanishing at -1 and 1 are represented by their values at the n
interior nodes of a uniform partition.  Energies use second-order
central differences (mass-lumped linear elements) and the composite trapezoid
rule, which keeps every term of the quotient exactly 2-homogeneous and O(h^2)
accurate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# A nodal function counts as constant-sign when min*max > -SIGN_BAND*max|u|^2:
# descent iterates carry roundoff-scale undershoots near the boundary, and
# zero counting ignores sign changes inside the same band.
SIGN_BAND = 1e-6

# discrete stand-in for the exact zero-average case S = 0, where gamma is 0:
# constant-sign minimizers keep S near 1
_GAMMA_ZERO_TOL = 1e-8


def check_q(q: float) -> None:
    """Raise ValueError unless the exponent q lies in [1, 2]; NaN does not."""
    if not 1.0 <= q <= 2.0:
        raise ValueError(f"q must lie in [1, 2], got {q!r}")


# bounded, since analyze, the solver and the profile rebuild each meet a few grid sizes
@functools.lru_cache(maxsize=8)
def nodes(n: int) -> np.ndarray:
    """Read-only abscissae -1 + i*h, i = 0..n+1 with h = 2/(n+1): the n interior nodes and both endpoints."""
    x = np.linspace(-1.0, 1.0, n + 2)
    x.flags.writeable = False
    return x


@dataclass(frozen=True)
class ProblemParams:
    """One problem instance on (-1, 1): nonlocal strength alpha and exponent q."""

    alpha: float
    q: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.q)):
            raise ValueError("alpha and q must be finite")
        check_q(self.q)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Nodal values of a function on (-1, 1) that vanishes at both endpoints.

    ``values[i]`` is the value at -1 + (i+1)*h with h = 2/(n+1); the
    endpoint values are structurally zero and never stored.  Equality and
    hashing are by identity, as for the array it holds.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if v.ndim != 1 or v.size < 3:
            raise ValueError("a grid function needs at least 3 interior nodes")
        if not np.all(np.isfinite(v)):
            raise ValueError("nodal values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def h(self) -> float:
        return 2.0 / (self.n + 1)

    @property
    def x(self) -> np.ndarray:
        """Interior node abscissae (read-only)."""
        return nodes(self.n)[1:-1]

    @classmethod
    def from_callable(cls, f: Callable, n: int) -> "GridFunction":
        return cls(np.asarray(f(nodes(n)[1:-1]), dtype=float))


@dataclass(frozen=True)
class MinimizerProfile:
    """Shape measurements of a grid function (zeros, extrema, symmetry defects).

    Sign-changing inputs are reported in the orientation where the dominant
    hump is positive (ties broken so the maximum comes first); ``m_bar`` is
    |min|/max in that orientation, in [0, 1].  Constant-sign inputs keep
    their sign and have ``m_bar`` = 0; the extremum on their zero side (a
    positive input's minimum, a negative input's maximum) is the endpoint -1
    with value 0, unless a roundoff-band undershoot goes past 0.  Defects are
    relative L2 distances: each sign part against its reflection about its
    own extremum, and the whole function against its odd reflection about the
    midpoint.
    """

    sign_class: str  # "positive" | "negative" | "sign_changing"
    zeros: tuple[float, ...]
    max_point: float
    max_value: float
    min_point: float
    min_value: float
    m_bar: float
    positive_part_symmetry_defect: float
    negative_part_symmetry_defect: float
    odd_defect: float


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Outcome of a variational solve: eigenvalue, minimizer and diagnostics.

    ``minimizer`` is L2-normalized with ``q_average`` = S >= 0, and its
    values are read-only, so the derived values below cannot drift from the
    solve.  ``iterations`` counts the steps of the one descent and
    ``evaluations`` its quotient evaluations plus 1 for the odd sine, whose
    value is evaluated, not descended.

    ``gamma`` (S^(2/q-1), or 0 for a zero-average minimizer: S at most
    _GAMMA_ZERO_TOL), ``profile`` (``analyze(minimizer)``) and ``residual``
    (the RMS residual of -u'' + alpha*gamma*|u|^(q-1) = lam*u on the grid)
    are derived: each is computed on its first read and kept.  A
    sign-changing minimizer's first-integral constant is
    0.5*lam*first_integral_coeffs(profile.m_bar, q).t, the formula behind
    ``branches.branch_point(...).c``.
    Equality and hashing are by identity, as for the minimizer.
    """

    lam: float
    minimizer: GridFunction
    params: ProblemParams
    q_average: float
    iterations: int
    evaluations: int
    converged: bool = True
    degenerate: bool = False

    @functools.cached_property
    def gamma(self) -> float:
        s = self.q_average
        return s ** (2.0 / self.params.q - 1.0) if s > _GAMMA_ZERO_TOL else 0.0

    @functools.cached_property
    def profile(self) -> MinimizerProfile:
        return analyze(self.minimizer)

    @functools.cached_property
    def residual(self) -> float:
        u, p = self.minimizer, self.params
        return _euler_lagrange_residual(u.values, self.lam, self.gamma, p.alpha, p.q, u.h)


def apply_stiffness(v: np.ndarray, h: float) -> np.ndarray:
    """-v'' by the stencil (2*v_i - v_{i-1} - v_{i+1}) / h^2 through the zero endpoint values."""
    out = 2.0 * v
    out[:-1] -= v[1:]
    out[1:] -= v[:-1]
    out /= h**2
    return out


def quotient_terms(v: np.ndarray, h: float, q: float) -> tuple[float, np.ndarray, float]:
    """Dirichlet energy D, power p = |v|^(q-1) and signed q-average S = h*sum(v*p).

    D comes from one first-difference vector plus the two zero endpoint
    differences; the algebraically equal v . (stiffness v) cancels at the
    1e-12 level, which is enough to upset a line search comparing values.
    """
    d = v[1:] - v[:-1]
    energy = (float(d @ d) + v[0] * v[0] + v[-1] * v[-1]) / h
    p = np.abs(v) ** (q - 1.0)
    return energy, p, h * float(v @ p)


def q_average(u: GridFunction, q: float) -> float:
    """Signed average int |u|^(q-1) u dx by the composite trapezoid rule."""
    check_q(q)
    return quotient_terms(u.values, u.h, q)[2]


def _euler_lagrange_residual(
    v: np.ndarray, lam: float, gamma: float, alpha: float, q: float, h: float
) -> float:
    """RMS interior residual of -v'' + alpha*gamma*|v|^(q-1) = lam*v, by the energy's stencil."""
    r = apply_stiffness(v, h)  # the stencil computes -v'' directly
    r += alpha * gamma * np.abs(v) ** (q - 1.0)
    r -= lam * v
    return float(np.sqrt(np.mean(r * r)))


def rayleigh_quotient(u: GridFunction, params: ProblemParams) -> float:
    """( D(u) + alpha*|S(u)|^(2/q) ) / int u^2, exactly invariant under u -> c*u."""
    mass = u.h * float(u.values @ u.values)  # trapezoid rule; the endpoints contribute 0
    if mass == 0.0:
        raise ValueError("degenerate input: u is identically zero")
    energy, _, s = quotient_terms(u.values, u.h, params.q)
    return (energy + params.alpha * abs(s) ** (2.0 / params.q)) / mass


def _refine_extremum(xp: np.ndarray, vp: np.ndarray, i: int) -> tuple[float, float]:
    """Three-point quadratic refinement of the nodal extremum at padded index i.

    An extremum on a zero pad (the far side of a constant-sign function) is
    the endpoint itself, with value 0.
    """
    if i == 0 or i == vp.size - 1:
        return float(xp[i]), 0.0
    a, b, c = vp[i - 1 : i + 2].tolist()
    x, step = float(xp[i]), float(xp[i + 1] - xp[i])
    curv = a - 2.0 * b + c
    if curv == 0.0:
        return x, b
    offset = min(max(0.5 * step * (a - c) / curv, -step), step)
    return x + offset, b - (c - a) ** 2 / (8.0 * curv)


def _part_symmetry_defect(part: np.ndarray, center: float) -> float:
    """Relative L2 distance between a sign part and its reflection about `center`.

    ``part`` holds the values at all N = n + 2 nodes, zero pads included;
    outside [-1, 1] the reflection is 0.  The nodes are uniform, so the
    mirror of node i is the fractional index k - i, k = 2*(center + 1)/h,
    and the reflection interpolates linearly between the nodes k0 - i and
    k0 + 1 - i, k0 = floor(k), with weights 1 - f and f, f = k - k0.  Read
    off the reversed part r (r[j] = part[N - 1 - j]), these are two shifted
    slices, r[i + s] and r[i + s - 1] with s = N - 1 - k0: no search.
    """
    norm = math.sqrt(float(part @ part))
    if norm == 0.0:
        return 0.0
    size = part.size
    k = (center + 1.0) * (size - 1)
    k0 = math.floor(k)
    f = k - k0
    rev = part[::-1]
    diff = part.copy()
    s = size - 1 - k0
    for shift, weight in ((s, 1.0 - f), (s - 1, f)):
        lo, hi = max(0, -shift), min(size, size - shift)
        if lo < hi:
            diff[lo:hi] -= weight * rev[lo + shift : hi + shift]
    return math.sqrt(float(diff @ diff)) / norm


def _keeps_sign(vmax: float, vmin: float) -> bool:
    amax = max(vmax, -vmin)
    return vmin * vmax > -SIGN_BAND * amax * amax


def is_constant_sign(v: np.ndarray) -> bool:
    """Whether nodal values keep one sign up to the roundoff band: min*max > -SIGN_BAND*max|v|^2."""
    return _keeps_sign(float(v.max()), float(v.min()))


def analyze(u: GridFunction) -> MinimizerProfile:
    """Locate zeros, extrema, sign class and symmetry defects of a grid function.

    Zeros are interior sign changes (linearly interpolated, ignoring crossings
    inside the constant-sign roundoff band); extrema come from a 3-point
    quadratic fit around the nodal argmax/argmin.
    """
    v = u.values
    i_max, i_min = int(v.argmax()), int(v.argmin())
    vmax, vmin = float(v[i_max]), float(v[i_min])
    amax = max(vmax, -vmin)
    if amax == 0.0:
        raise ValueError("degenerate input: u is identically zero")
    constant_sign = _keeps_sign(vmax, vmin)

    flip = False
    if constant_sign:
        sign_class = "positive" if vmax >= -vmin else "negative"
    else:
        sign_class = "sign_changing"
        # dominant hump positive; on a tie the maximum comes first
        flip = -vmin > vmax * (1.0 + 1e-9) or (-vmin >= vmax * (1.0 - 1e-9) and i_min < i_max)

    xp = nodes(u.n)
    wp = np.zeros(u.n + 2)
    w = wp[1:-1]
    if flip:
        np.negative(v, out=w)
        i_max, i_min = i_min, i_max  # argmax(-v) is argmin(v), first occurrence and all
    else:
        w[:] = v
    # the padded argmax is the first node of w's maximum, or the pad 0 where
    # that maximum is not above the pad's 0; the same for the minimum
    ip_max = i_max + 1 if w[i_max] > 0.0 else 0
    ip_min = i_min + 1 if w[i_min] < 0.0 else 0
    max_point, max_value = _refine_extremum(xp, wp, ip_max)
    min_point, min_value = _refine_extremum(xp, wp, ip_min)

    zeros: list[float] = []
    if not constant_sign:
        band = SIGN_BAND * amax
        signs = (w > band).view(np.int8) - (w < -band).view(np.int8)
        idx = np.flatnonzero(signs)
        # consecutive out-of-band nodes of opposite sign bracket one zero
        s = signs[idx]
        cross = np.flatnonzero(s[:-1] != s[1:])
        k0, k1 = idx[cross], idx[cross + 1]
        x0, x1 = xp[k0 + 1], xp[k1 + 1]
        w0, w1 = w[k0], w[k1]
        zeros = (x0 + (x1 - x0) * w0 / (w0 - w1)).tolist()
        m_bar = min(max(-min_value / max_value, 0.0), 1.0) if max_value > 0 else 1.0
    else:
        m_bar = 0.0

    # a part whose extremum is the pad 0 is zero throughout, with defect 0
    pos_defect = _part_symmetry_defect(np.maximum(wp, 0.0), max_point) if ip_max else 0.0
    neg_defect = _part_symmetry_defect(np.minimum(wp, 0.0), min_point) if ip_min else 0.0

    odd = w + w[::-1]
    odd_defect = math.sqrt(float(odd @ odd)) / math.sqrt(float(v @ v))

    return MinimizerProfile(
        sign_class=sign_class,
        zeros=tuple(zeros),
        max_point=max_point,
        max_value=max_value,
        min_point=min_point,
        min_value=min_value,
        m_bar=m_bar,
        positive_part_symmetry_defect=pos_defect,
        negative_part_symmetry_defect=neg_defect,
        odd_defect=odd_defect,
    )
