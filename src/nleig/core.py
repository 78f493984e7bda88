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
import numbers
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

# analyze, rayleigh_quotient and q_average rescale a grid function whose
# max|v| lies outside this range by a power of two, which is exact in binary,
# before they form products: squares and sums of n squares then stay normal
# and finite.  Inside it the values are used as given.
_NORMAL_SCALE = (2.0**-256, 2.0**256)


def check_q(q: float) -> None:
    """Raise ValueError unless the exponent q lies in [1, 2]; NaN does not."""
    if not 1.0 <= q <= 2.0:
        raise ValueError(f"q must lie in [1, 2], got {q!r}")


def check_n(n: int, least: int = 100) -> None:
    """Raise ValueError unless the interior grid size n is an integer of at least ``least``."""
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < least:
        raise ValueError(f"n must be at least {least}, got {n}")


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
        if not np.isfinite(v).all():
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
        """f sampled at the n interior nodes; n must be an integer of at least 3, and f return one value per node."""
        check_n(n, 3)
        values = np.asarray(f(nodes(n)[1:-1]), dtype=float)
        if values.shape != (n,):
            raise ValueError(f"f must return one value per node, shape ({n},), got shape {values.shape}")
        return cls(values)


@dataclass(frozen=True)
class MinimizerProfile:
    """Sign class, zeros, depth ratio and odd defect of a grid function.

    ``zeros`` are the interior sign changes, empty for a constant-sign input.
    ``m_bar`` is the depth ratio of a sign-changing input: the smaller of its
    two refined hump heights over the larger.  A constant-sign input has
    ``m_bar`` = 0.  ``odd_defect`` is the relative L2
    distance between the function and its odd reflection about the midpoint.
    """

    sign_class: str  # "positive" | "negative" | "sign_changing"
    zeros: tuple[float, ...]
    m_bar: float
    odd_defect: float


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Outcome of a variational solve: eigenvalue, minimizer and diagnostics.

    ``minimizer`` is L2-normalized with ``q_average`` = S >= 0, and its
    values are read-only, so the derived values below cannot drift from the
    solve.  ``iterations`` counts the steps of the one descent of
    ``solver.minimize``, at min(alpha, 2*pi^2), and ``evaluations`` its
    quotient evaluations plus 1 for the odd sine, whose value is evaluated,
    not descended.  When the sine wins, the descent's steps are those taken
    until it could no longer come within the saturation band of the sine,
    which may be fewer than a run to the stopping tolerance would take.

    ``gamma`` (S^(2/q-1), or 0 for a zero-average minimizer: S at most
    _GAMMA_ZERO_TOL), ``profile`` (``analyze(minimizer)``) and ``residual``
    (the RMS residual of -u'' + alpha*gamma*|u|^(q-1) = lam*u on the grid)
    are derived: each is computed on its first read and kept.  The residual
    has a rounding floor of about 2.2e-16*(n + 1)^2, the stencil's terms
    4/h^2 times the unit roundoff, so only its leading digits are
    determined: a saturated sine or an alpha = 0 solve sits at that floor.  A
    sign-changing minimizer's first-integral constant is 0.5*lam*t with
    (z, t) = first_integral_coeffs(profile.m_bar, q), the formula behind
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


def dirichlet_energy(v: np.ndarray, h: float) -> float:
    """Dirichlet energy D = int |v'|^2 dx by first differences through the zero endpoint values.

    D comes from one first-difference vector plus the two zero endpoint
    differences; the algebraically equal v . (stiffness v) cancels at the
    1e-12 level, which is enough to upset a line search comparing values.
    """
    d = v[1:] - v[:-1]
    return (float(d @ d) + v[0] * v[0] + v[-1] * v[-1]) / h


def signed_average(v: np.ndarray, h: float, q: float) -> float:
    """Signed q-average S = h*sum(v*|v|^(q-1)) of nodal values v."""
    return h * float(v @ np.abs(v) ** (q - 1.0))


def _scale_exponent(amax: float) -> int:
    """0 if max|v| = amax is 0 or lies in _NORMAL_SCALE, else the e that puts amax*2^-e in [1/2, 1)."""
    if amax == 0.0 or _NORMAL_SCALE[0] <= amax <= _NORMAL_SCALE[1]:
        return 0
    return math.frexp(amax)[1]


def _normal_scaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """v*2^-e and e, with e = _scale_exponent(max|v|): v itself inside the normal scale."""
    e = _scale_exponent(float(np.abs(v).max()))
    return (np.ldexp(v, -e) if e else v), e


def q_average(u: GridFunction, q: float) -> float:
    """Signed average int |u|^(q-1) u dx by the composite trapezoid rule.

    Outside the normal scale the average is formed from u*2^-e and scaled
    back by 2^(e*q); a value beyond float64 raises ValueError.
    """
    check_q(q)
    v, e = _normal_scaled(u.values)
    s = signed_average(v, u.h, q)
    if e:
        try:
            s = math.ldexp(s * 2.0 ** (e * q % 1.0), math.floor(e * q))
        except OverflowError:
            raise ValueError(f"the q-average overflows float64 (q = {q!r}, max|u| about 2^{e})") from None
    return s


def _euler_lagrange_residual(
    v: np.ndarray, lam: float, gamma: float, alpha: float, q: float, h: float
) -> float:
    """RMS interior residual of -v'' + alpha*gamma*|v|^(q-1) = lam*v, by the energy's stencil."""
    r = apply_stiffness(v, h)  # the stencil computes -v'' directly
    r += alpha * gamma * np.abs(v) ** (q - 1.0)
    r -= lam * v
    return float(np.sqrt(np.mean(r * r)))


def rayleigh_quotient(u: GridFunction, params: ProblemParams) -> float:
    """( D(u) + alpha*|S(u)|^(2/q) ) / int u^2, exactly invariant under u -> c*u.

    Outside the normal scale it is formed from u*2^-e, which it equals.
    """
    v = _normal_scaled(u.values)[0]
    mass = u.h * float(v @ v)  # trapezoid rule; the endpoints contribute 0
    if mass == 0.0:
        raise ValueError("degenerate input: u is identically zero")
    s = signed_average(v, u.h, params.q)
    return (dirichlet_energy(v, u.h) + params.alpha * abs(s) ** (2.0 / params.q)) / mass


def _refined_extremum(v: np.ndarray, i: int) -> float:
    """Vertex value of the parabola through the nodal values at i - 1, i and i + 1, with 0 past either end."""
    a = float(v[i - 1]) if i > 0 else 0.0
    b = float(v[i])
    c = float(v[i + 1]) if i + 1 < v.size else 0.0
    # symmetric in a and c: a reversed input gives the same bits.  Never 0:
    # analyze calls this at a first or last argmax of a sign-changing v, where a
    # or c is below b (a zero end value too, as max v > 0), or the mirrored argmin
    curv = (a - b) + (c - b)
    return b - (c - a) ** 2 / (8.0 * curv)


def _keeps_sign(vmax: float, vmin: float) -> bool:
    amax = max(vmax, -vmin)
    return vmin * vmax > -SIGN_BAND * amax * amax


def is_constant_sign(v: np.ndarray) -> bool:
    """Whether nodal values keep one sign up to the roundoff band: min*max > -SIGN_BAND*max|v|^2."""
    return _keeps_sign(float(v.max()), float(v.min()))


def analyze(u: GridFunction) -> MinimizerProfile:
    """Sign class, zeros, m_bar and odd defect of a grid function.

    Zeros are interior sign changes, linearly interpolated, ignoring
    crossings inside the constant-sign roundoff band.  m_bar is
    min(top, depth)/max(top, depth) of the two hump heights, the refined
    extrema (3-point quadratic fits) at the nodal argmax and argmin; it keeps
    its bits under u -> -u and under reversal.  Every field is invariant
    under u -> 2^k*u, so outside the normal scale u is analysed as u*2^-e.
    """
    v = u.values
    i_max, i_min = int(v.argmax()), int(v.argmin())
    vmax, vmin = float(v[i_max]), float(v[i_min])
    amax = max(vmax, -vmin)
    if amax == 0.0:
        raise ValueError("degenerate input: u is identically zero")
    e = _scale_exponent(amax)
    if e:
        v = np.ldexp(v, -e)
        vmax, vmin, amax = math.ldexp(vmax, -e), math.ldexp(vmin, -e), math.ldexp(amax, -e)
    odd = v + v[::-1]
    odd_defect = math.sqrt(float(odd @ odd)) / math.sqrt(float(v @ v))
    if _keeps_sign(vmax, vmin):
        sign_class = "positive" if vmax >= -vmin else "negative"
        return MinimizerProfile(sign_class, (), 0.0, odd_defect)

    band = SIGN_BAND * amax
    signs = (v > band).view(np.int8) - (v < -band).view(np.int8)
    idx = np.flatnonzero(signs)
    # consecutive out-of-band nodes of opposite sign bracket one zero
    s = signs[idx]
    cross = np.flatnonzero(s[:-1] != s[1:])
    k0, k1 = idx[cross], idx[cross + 1]
    x = u.x
    x0, x1 = x[k0], x[k1]
    v0, v1 = v[k0], v[k1]
    zeros = tuple((x0 + (x1 - x0) * v0 / (v0 - v1)).tolist())

    # each refined extremum lies beyond its nodal one, so both heights are
    # positive; a nodal extremum held at several nodes is refined at its first
    # and its last, and the farther vertex counts, whichever way v is read
    last_max, last_min = v.size - 1 - int(v[::-1].argmax()), v.size - 1 - int(v[::-1].argmin())
    top = max(_refined_extremum(v, i_max), _refined_extremum(v, last_max))
    depth = -min(_refined_extremum(v, i_min), _refined_extremum(v, last_min))
    return MinimizerProfile("sign_changing", zeros, min(top, depth) / max(top, depth), odd_defect)
