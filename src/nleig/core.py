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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# A nodal function counts as constant-sign when min*max > -SIGN_BAND*max|u|^2:
# descent iterates carry roundoff-scale undershoots near the boundary, and
# zero counting ignores sign changes inside the same band.
SIGN_BAND = 1e-6


@dataclass(frozen=True)
class ProblemParams:
    """One problem instance on (-1, 1): nonlocal strength alpha and exponent q."""

    alpha: float
    q: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.q)):
            raise ValueError("alpha and q must be finite")
        if not 1.0 <= self.q <= 2.0:
            raise ValueError(f"q must lie in [1, 2], got {self.q!r}")


@dataclass(frozen=True)
class GridFunction:
    """Nodal values of a function on (-1, 1) that vanishes at both endpoints.

    ``values[i]`` is the value at -1 + (i+1)*h with h = 2/(n+1); the
    endpoint values are structurally zero and never stored.
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
        """Interior node abscissae."""
        return np.linspace(-1.0, 1.0, self.n + 2)[1:-1]

    @classmethod
    def from_callable(cls, f: Callable, n: int) -> "GridFunction":
        x = np.linspace(-1.0, 1.0, n + 2)[1:-1]
        return cls(np.asarray(f(x), dtype=float))


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


@dataclass(frozen=True)
class EigenResult:
    """Outcome of a variational solve: eigenvalue, minimizer and diagnostics.

    ``minimizer`` is L2-normalized with ``q_average`` = S >= 0, and
    ``profile`` is ``analyze(minimizer)``, measured once by the solver.
    ``gamma`` is S^(2/q-1), or 0 for a zero-average minimizer; ``residual`` is
    the RMS residual of -u'' + alpha*gamma*|u|^(q-1) = lam*u on the grid.
    ``iterations`` sums the descent steps of every restart.  A sign-changing
    minimizer's first-integral constant is 0.5*lam*first_integral_coeffs(
    profile.m_bar, q).t, the formula behind ``branches.branch_point(...).c``.
    """

    lam: float
    minimizer: GridFunction
    profile: MinimizerProfile
    q_average: float
    gamma: float
    iterations: int
    residual: float
    converged: bool = True
    degenerate: bool = False


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
    if not 1.0 <= q <= 2.0:
        raise ValueError(f"q must lie in [1, 2], got {q!r}")
    return quotient_terms(u.values, u.h, q)[2]


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
    a, b, c = vp[i - 1], vp[i], vp[i + 1]
    curv = a - 2.0 * b + c
    if curv == 0.0:
        return float(xp[i]), float(b)
    step = xp[i + 1] - xp[i]
    offset = 0.5 * step * (a - c) / curv
    offset = float(np.clip(offset, -step, step))
    value = b - (c - a) ** 2 / (8.0 * curv)
    return float(xp[i] + offset), float(value)


def _part_symmetry_defect(xp: np.ndarray, part: np.ndarray, center: float) -> float:
    """Relative L2 distance between a sign part and its reflection about `center`."""
    norm = math.sqrt(float(part @ part))
    if norm == 0.0:
        return 0.0
    mirrored = np.interp(2.0 * center - xp, xp, part, left=0.0, right=0.0)
    diff = part - mirrored
    return math.sqrt(float(diff @ diff)) / norm


def is_constant_sign(v: np.ndarray) -> bool:
    """Whether nodal values keep one sign up to the roundoff band: min*max > -SIGN_BAND*max|v|^2."""
    vmax, vmin = float(v.max()), float(v.min())
    amax = max(vmax, -vmin)
    return vmin * vmax > -SIGN_BAND * amax * amax


def analyze(u: GridFunction) -> MinimizerProfile:
    """Locate zeros, extrema, sign class and symmetry defects of a grid function.

    Zeros are interior sign changes (linearly interpolated, ignoring crossings
    inside the constant-sign roundoff band); extrema come from a 3-point
    quadratic fit around the nodal argmax/argmin.
    """
    v = u.values
    vmax, vmin = float(v.max()), float(v.min())
    amax = max(vmax, -vmin)
    if amax == 0.0:
        raise ValueError("degenerate input: u is identically zero")
    constant_sign = is_constant_sign(v)

    if constant_sign:
        sign_class = "positive" if vmax >= -vmin else "negative"
        w = v
    else:
        sign_class = "sign_changing"
        # dominant hump positive; on a tie the maximum comes first
        if -vmin > vmax * (1.0 + 1e-9):
            w = -v
        elif -vmin >= vmax * (1.0 - 1e-9) and np.argmin(v) < np.argmax(v):
            w = -v
        else:
            w = v

    xp = np.linspace(-1.0, 1.0, u.n + 2)
    wp = np.concatenate(([0.0], w, [0.0]))

    max_point, max_value = _refine_extremum(xp, wp, int(np.argmax(wp)))
    min_point, min_value = _refine_extremum(xp, wp, int(np.argmin(wp)))

    zeros: list[float] = []
    if not constant_sign:
        band = SIGN_BAND * amax
        signs = np.where(np.abs(w) <= band, 0.0, np.sign(w))
        idx = np.flatnonzero(signs)
        # consecutive out-of-band nodes of opposite sign bracket one zero
        cross = np.flatnonzero(signs[idx[:-1]] * signs[idx[1:]] < 0.0)
        k0, k1 = idx[cross], idx[cross + 1]
        x0, x1 = xp[k0 + 1], xp[k1 + 1]
        w0, w1 = w[k0], w[k1]
        zeros = (x0 + (x1 - x0) * w0 / (w0 - w1)).tolist()
        m_bar = float(np.clip(-min_value / max_value, 0.0, 1.0)) if max_value > 0 else 1.0
    else:
        m_bar = 0.0

    pos_defect = _part_symmetry_defect(xp, np.maximum(wp, 0.0), max_point)
    neg_defect = _part_symmetry_defect(xp, np.minimum(wp, 0.0), min_point)

    rev = w[::-1]
    wnorm = math.sqrt(float(w @ w))
    odd_defect = math.sqrt(float((w + rev) @ (w + rev))) / wnorm

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
