"""Distributions on [0,1], their quantile functions, and statistical distances.

Everything downstream works with monotone piecewise functions on the unit
interval: full CDFs, sub-CDFs (terminal value below one), and bounded
piecewise-linear densities for ground-truth models. Estimators produce step
functions; linear interpolation exists only so that smooth ground truths can
be represented and compared against. ``StepFunction`` is the one step
primitive: the empirical tail sums of both estimators are step functions with
unconstrained values, and the step branch of ``PiecewiseCdf`` evaluates
through its kernel. Breakpoints are merged by the window grid
(``window_grid``: the distinct points in a window, and its ends, from one sort)
and the staircase builder (``staircase``: a full step CDF from breakpoints in
any order).

Three distances are provided: Kolmogorov (sup norm), Wasserstein-1 (L1 norm of
the CDF difference, by the one-dimensional Kantorovich identity), and Levy
(band distance, in closed form on the graphs rotated by 45 degrees). They
satisfy ``levy <= kolmogorov`` and ``levy <= sqrt(wasserstein1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_number, check_window

STEP = "step"
LINEAR = "linear"

_MONOTONE_TOL = 1e-12


def _as_array(x, name):
    """``x`` as a contiguous float64 array; NaN, infinity, a non-number or a
    ragged nesting raises."""
    try:
        arr = np.asarray(x)
    except ValueError as exc:  # numpy's "inhomogeneous shape"
        raise ValidationError(f"{name} must be finite numbers, not a ragged array") from exc
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite numbers")
    return np.ascontiguousarray(arr, dtype=np.float64)


def _levels(q):
    """Quantile levels as (array of ndim >= 1, scalar flag, min, max).

    One min/max pair serves both the range check, which also rejects NaN,
    and the callers' test of whether any edge rule can fire.
    """
    q = np.asarray(q, dtype=np.float64)
    qv = np.atleast_1d(q)
    qmin, qmax = (qv.min(), qv.max()) if qv.size else (np.inf, -np.inf)
    if not (qmin >= 0.0 and qmax <= 1.0):
        raise ValidationError("quantile levels must lie in [0,1]")
    return qv, q.ndim == 0, qmin, qmax


def _piece_index(keys, q, side):
    """``clip(searchsorted(keys, q, side) - 1, 0, len(keys) - 2)``.

    That is the piece [keys[i], keys[i+1]] a level falls in, clipped to the
    first and the last piece. With at most one piece every level lies in
    piece 0, and the index is the int 0, so that lookups with it give scalars.
    """
    if keys.size <= 2:
        return 0
    idx = _guided_search(keys, q, side)
    idx -= 1
    return idx.clip(0, keys.size - 2, out=idx)


# the most keys one bucket of a guide table may hold before the search falls back
_GUIDE_WIDTH = 8


def _guided_search(keys, q, side):
    """``searchsorted(keys, q, side)`` for levels ``q`` in [0, 1], through a
    guide table of M = 2*len(keys) uniform buckets built for this call (Chen &
    Asau, "On generating random variates from an empirical distribution",
    AIIE Trans. 1974).

    The bucket of x is trunc(x*M) clipped to [0, M], nondecreasing in x in
    floating point too. So a key in a lower bucket than a level lies below it,
    one in a higher bucket above it, and only the keys of the level's own
    bucket, which follow the count of keys in lower buckets, are compared.
    Plain ``searchsorted`` serves unsorted keys and a table with a bucket of
    more than ``_GUIDE_WIDTH`` keys.
    """
    if np.any(keys[1:] < keys[:-1]):
        return np.searchsorted(keys, q, side=side)
    M = 2 * keys.size
    buckets = np.multiply(keys, M).astype(np.intp)
    counts = np.bincount(buckets.clip(0, M, out=buckets), minlength=M + 1)
    width = int(counts.max())
    if width > _GUIDE_WIDTH:
        return np.searchsorted(keys, q, side=side)
    start = np.cumsum(counts)
    start -= counts
    idx = start[np.multiply(q, M).astype(np.intp)]
    # step over the bucket's keys below the level (at or below, side "right");
    # keys past the bucket exceed every level in it, and so does the padding
    padded = np.concatenate([keys, np.full(width, np.inf)])
    below = np.less if side == "left" else np.less_equal
    for _ in range(width):
        idx += below(padded[idx], q)
    return idx


def _step_lookup(breakpoints, values, left_value, x, side):
    """``left_value`` before the first breakpoint, else the value of the last
    breakpoint below ``x`` (side "left") or at or below it (side "right")."""
    idx = np.searchsorted(breakpoints, x, side=side)
    if not values.size:
        return np.full(idx.shape, left_value)
    idx -= 1
    return np.where(idx >= 0, values[np.maximum(idx, 0)], left_value)


def run_ends(ys):
    """True at the last entry of each run of equal values in ascending ``ys``."""
    ends = np.ones(ys.size, dtype=bool)
    ends[:-1] = ys[1:] != ys[:-1]
    return ends


def window_grid(lo, hi, *breakpoints):
    """The distinct points of the ``breakpoints`` arrays that lie in [lo, hi],
    and lo and hi, ascending."""
    pts = np.concatenate([*breakpoints, [lo, hi]])
    return np.unique(pts[(pts >= lo) & (pts <= hi)])


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Right-continuous step function with unconstrained values.

    It equals ``left_value`` below ``breakpoints[0]`` and ``values[i]`` on
    ``[breakpoints[i], breakpoints[i+1])``. The breakpoints are strictly
    ascending and may be empty, for a function that is ``left_value``
    everywhere.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    left_value: float = 0.0

    def __post_init__(self):
        bp = _as_array(self.breakpoints, "breakpoints")
        vals = _as_array(self.values, "values")
        if bp.ndim != 1 or vals.ndim != 1 or bp.shape != vals.shape:
            raise ValidationError("breakpoints and values must be 1-D arrays of equal length")
        if np.any(np.diff(bp) <= 0):
            raise ValidationError("breakpoints must be strictly ascending")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "left_value", float(self.left_value))

    def eval(self, x):
        """Value at scalar or array ``x`` (right-continuous)."""
        return self._lookup(x, "right")

    def eval_left(self, x):
        """Left limit at scalar or array ``x``."""
        return self._lookup(x, "left")

    def _lookup(self, x, side):
        x = np.asarray(x, dtype=np.float64)
        out = _step_lookup(self.breakpoints, self.values, self.left_value,
                           np.atleast_1d(x), side)
        return float(out[0]) if x.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class PiecewiseCdf:
    """A monotone piecewise function on [0,1].

    With ``interpolation="step"`` the function is right-continuous and equals
    ``values[i]`` on ``[breakpoints[i], breakpoints[i+1])``, and 0 below the
    first breakpoint. With ``interpolation="linear"`` it interpolates the
    knot sequence, and is 0 below the first breakpoint too, so that a first
    value above 0 is an atom there, where ``ppf`` draws it. ``eval(x) = 0``
    for x < 0 and ``eval(x) = eval(1)`` for x > 1 by convention.

    ``is_full_cdf=False`` marks a sub-CDF whose terminal value may be < 1.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    interpolation: str = STEP
    is_full_cdf: bool = True

    def __post_init__(self):
        bp = _as_array(self.breakpoints, "breakpoints")
        vals = _as_array(self.values, "values")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if bp.ndim != 1 or vals.ndim != 1 or bp.shape != vals.shape:
            raise ValidationError("breakpoints and values must be 1-D arrays of equal length")
        if bp.size == 0:
            raise ValidationError("at least one breakpoint is required")
        if np.any(np.diff(bp) <= 0):
            raise ValidationError("breakpoints must be strictly ascending")
        if bp[0] < -_MONOTONE_TOL:
            raise ValidationError("breakpoints must lie in [0,1]")
        if np.any(np.diff(vals) < -_MONOTONE_TOL):
            raise ValidationError("values must be nondecreasing")
        if vals[0] < -_MONOTONE_TOL or vals[-1] > 1 + _MONOTONE_TOL:
            raise ValidationError("values must lie in [0,1]")
        if self.interpolation not in (STEP, LINEAR):
            raise ValidationError(f"unknown interpolation {self.interpolation!r}")
        if bp[-1] > 1.0:
            # read as flat at F(1) beyond 1, such a table never reaches its last value
            raise ValidationError(f"a {self.interpolation} CDF's breakpoints must not exceed 1, "
                                  f"and the last is {float(bp[-1])!r}")
        if not isinstance(self.is_full_cdf, (bool, np.bool_)):
            raise ValidationError(f"is_full_cdf must be true or false, not {self.is_full_cdf!r}")
        if self.is_full_cdf and abs(vals[-1] - 1.0) > 1e-9:
            raise ValidationError("a full CDF must reach 1 at its last breakpoint")

    # -- evaluation ---------------------------------------------------------

    def eval(self, x):
        """Evaluate the function at scalar or array ``x`` (right-continuous)."""
        return self._lookup(x, "right")

    def eval_left(self, x):
        """Left limit F(x-) at scalar or array ``x``."""
        return self._lookup(x, "left")

    def _lookup(self, x, side):
        """The value (side "right") or the left limit (side "left") at ``x``."""
        x = np.asarray(x, dtype=np.float64)
        xv = np.atleast_1d(x)
        left = side == "left"
        # flat at F(1) beyond 1: a left limit there counts a breakpoint at 1
        xq = np.minimum(xv, np.nextafter(1.0, 2.0) if left else 1.0)
        if self.interpolation == STEP:
            out = _step_lookup(self.breakpoints, self.values, 0.0, xq, side)
            start = 0.0
        else:
            out = np.interp(xq, self.breakpoints, self.values, left=0.0, right=self.values[-1])
            start = max(self.breakpoints[0], 0.0)
        # zero below 0 and below a linear table, so the left limit is zero there too
        out = np.where(xv <= start if left else xv < start, 0.0, out)
        return float(out[0]) if x.ndim == 0 else out

    def ppf(self, q):
        """Generalized inverse inf{x : F(x) >= q}, vectorized."""
        qv, scalar, qmin, qmax = _levels(q)
        bp, vals = self.breakpoints, self.values
        if self.interpolation == STEP:
            idx = np.searchsorted(vals, qv, side="left")
            out = bp.take(idx, mode="clip")
        else:
            # x0 + clip((q - v0) / dv, 0, 1) * dx on the segment of each level;
            # a flat segment has dv = 1 and dx = 0, so it gives its left end
            lo = _piece_index(vals, qv, "left")
            if bp.size == 1:
                # one knot: dx = -0.0 returns it exactly, even a knot of -0.0
                dv, dx = 1.0, -0.0
            else:
                dv = np.diff(vals)
                rising = dv > 0
                dv, dx = np.where(rising, dv, 1.0)[lo], np.where(rising, np.diff(bp), 0.0)[lo]
            out = np.subtract(qv, vals[lo])
            np.divide(out, dv, out=out)
            out.clip(0.0, 1.0, out=out)
            np.multiply(out, dx, out=out)
            np.add(out, bp[lo], out=out)
        top = vals[-1] + _MONOTONE_TOL
        low = vals[0] if self.interpolation == LINEAR else 0.0
        if qmax > top or qmin <= max(low, 0.0):
            # levels above the terminal value have an empty level set; clamp to 1
            out[qv > top] = 1.0
            if self.interpolation == LINEAR:
                out[qv <= vals[0]] = bp[0] if vals[0] > 0 else 0.0
            out[qv <= 0.0] = 0.0
        return float(out[0]) if scalar else out

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        return {
            "interpolation": self.interpolation,
            "breakpoints": self.breakpoints.tolist(),
            "values": self.values.tolist(),
            "is_full_cdf": bool(self.is_full_cdf),
        }

    @classmethod
    def from_dict(cls, d):
        try:
            return cls(
                breakpoints=d["breakpoints"],
                values=d["values"],
                interpolation=d.get("interpolation", STEP),
                is_full_cdf=d.get("is_full_cdf", True),
            )
        except KeyError as exc:
            raise ValidationError(f"CDF object missing field {exc}") from exc


def sub_cdf(breakpoints, values, interpolation=STEP):
    return PiecewiseCdf(breakpoints, values, interpolation, is_full_cdf=False)


def staircase(breakpoints, values):
    """The full step CDF through breakpoints given in any order: at a repeated
    breakpoint the last value given holds, and each value is raised to the
    running maximum of those at lower breakpoints."""
    bp, idx = np.unique(np.asarray(breakpoints)[::-1], return_index=True)
    return PiecewiseCdf(bp, np.maximum.accumulate(np.asarray(values)[::-1][idx]))


@dataclass(frozen=True, eq=False)
class BoundedDensityModel:
    """Piecewise-linear density on [0,1] with declared bounds.

    ``knots``/``density`` describe f by linear interpolation. The density must
    integrate to one, stay within [alpha_lo, eta_hi] at every knot, and, if a
    Lipschitz constant is declared, every linear piece's slope must respect it.
    The CDF is piecewise quadratic and evaluated exactly.
    """

    knots: np.ndarray
    density: np.ndarray
    alpha_lo: float
    eta_hi: float
    lipschitz: float | None = None
    _cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kn = _as_array(self.knots, "knots")
        de = _as_array(self.density, "density")
        _as_array([self.alpha_lo, self.eta_hi], "alpha_lo and eta_hi")
        if self.lipschitz is not None:
            _as_array(self.lipschitz, "lipschitz")
        object.__setattr__(self, "knots", kn)
        object.__setattr__(self, "density", de)
        if kn.ndim != 1 or de.ndim != 1 or kn.shape != de.shape or kn.size < 2:
            raise ValidationError("knots and density must be 1-D arrays of equal length >= 2")
        if abs(kn[0]) > 1e-12 or abs(kn[-1] - 1.0) > 1e-12:
            raise ValidationError("density knots must span [0,1]")
        if np.any(np.diff(kn) <= 0):
            raise ValidationError("knots must be strictly ascending")
        if np.any(de < self.alpha_lo - 1e-9) or np.any(de > self.eta_hi + 1e-9):
            raise ValidationError("density must respect [alpha_lo, eta_hi] at every knot")
        if self.lipschitz is not None:
            slopes = np.diff(de) / np.diff(kn)
            if np.any(np.abs(slopes) > self.lipschitz + 1e-9):
                raise ValidationError("density slope exceeds the declared Lipschitz constant")
        seg = 0.5 * (de[:-1] + de[1:]) * np.diff(kn)  # exact for linear pieces
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        if abs(cum[-1] - 1.0) > 1e-9:
            raise ValidationError(f"density integrates to {cum[-1]:.12g}, not 1")
        object.__setattr__(self, "_cum", cum)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.interp(np.clip(x, 0.0, 1.0), self.knots, self.density)
        return float(out) if x.ndim == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        scalar = x.ndim == 0
        xq = np.clip(np.atleast_1d(x), 0.0, 1.0)
        idx = np.clip(np.searchsorted(self.knots, xq, side="right") - 1, 0, self.knots.size - 2)
        x0 = self.knots[idx]
        f0 = self.density[idx]
        slope = (self.density[idx + 1] - f0) / (self.knots[idx + 1] - x0)
        dx = xq - x0
        out = self._cum[idx] + f0 * dx + 0.5 * slope * dx * dx
        out = np.where(np.atleast_1d(x) < 0.0, 0.0, np.clip(out, 0.0, 1.0))
        return float(out[0]) if scalar else out

    def ppf(self, q):
        qv, scalar, _, _ = _levels(q)
        kn, cum = self.knots, self._cum
        idx = _piece_index(cum, qv, "right")
        # solve 0.5*s*t^2 + f0*t = rem for t on the piece: a curved piece takes
        # the quadratic root, a flat one (|s| <= 1e-14) the linear solution,
        # which is inf, or nan for rem = 0, on a zero-density piece
        f0 = self.density[:-1]
        s = (self.density[1:] - f0) / np.diff(kn)
        f0, s = f0[idx], s[idx]
        rem = qv - cum[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(np.abs(s) > 1e-14,
                         (np.sqrt(np.maximum(f0 * f0 + 2.0 * s * rem, 0.0)) - f0) / s,
                         rem / f0)
        t += kn[idx]
        # a level equal to the mass up to a zero-density plateau (level 0 on a
        # leading one) lands on the piece after it, and one equal to the total
        # mass, clipped onto a trailing zero piece, gives 0/0; the generalised
        # inverse of either is the first knot where the CDF reaches the level
        first = np.searchsorted(cum, qv, side="left")
        gap = (first < idx) | np.isnan(t)
        t[gap] = kn[first[gap]]
        out = t.clip(0.0, 1.0, out=t)
        return float(out[0]) if scalar else out

    def to_cdf(self):
        """A piecewise-linear PiecewiseCdf approximation on 4,097 evenly spaced
        points of [0, 1] and the knots."""
        # a last knot up to 1e-12 past 1 is read at 1
        xs = np.union1d(np.linspace(0.0, 1.0, 4097), np.minimum(self.knots, 1.0))
        vals = self.cdf(xs)
        vals[-1] = 1.0
        return PiecewiseCdf(xs, vals, interpolation=LINEAR, is_full_cdf=True)

    def to_dict(self):
        return {
            "kind": "density",
            "knots": self.knots.tolist(),
            "density": self.density.tolist(),
            "alpha_lo": float(self.alpha_lo),
            "eta_hi": float(self.eta_hi),
            "lipschitz": None if self.lipschitz is None else float(self.lipschitz),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            knots=d["knots"],
            density=d["density"],
            alpha_lo=d["alpha_lo"],
            eta_hi=d["eta_hi"],
            lipschitz=d.get("lipschitz"),
        )


# -- distances --------------------------------------------------------------


def _differences(F, G, lo, hi):
    """The window grid of F and G, F - G at its points and the left limits of
    F - G at its points after lo (one at lo would read values below lo)."""
    check_window(lo, hi)
    pts = window_grid(lo, hi, F.breakpoints, G.breakpoints)
    return pts, F.eval(pts) - G.eval(pts), F.eval_left(pts[1:]) - G.eval_left(pts[1:])


def _jump_differences(S, L, lo, hi):
    """S - L at S's breakpoints in [lo, hi], read by index, and at lo and hi,
    read by lookup; left limits only at the jumps after lo. ``S`` is a step
    table and ``L`` a nondecreasing linear one.

    L is 0 below its first knot, where ``interp`` reads 0 too, and may jump
    there. Its left limit at that knot is 0, not the atom ``interp`` reads, so
    none is taken at a jump of S there: S's value before the jump meets L = 0
    at the previous point read, lo or a jump. Where hi is no jump, its left
    limit is its value.
    """
    check_window(lo, hi)
    bp, vals = S.breakpoints, S.values
    i0, i1 = bp.searchsorted(lo, "left"), bp.searchsorted(hi, "right")
    jumps = bp[i0:i1]
    at = np.interp(jumps, L.breakpoints, L.values, left=0.0, right=L.values[-1])
    after = (jumps > lo) & (jumps != max(L.breakpoints[0], 0.0))
    below = np.concatenate([[0.0], vals])[i0:i1]
    return vals[i0:i1] - at, below[after] - at[after], S.eval([lo, hi]) - L.eval([lo, hi])


def kolmogorov(F, G, lo=0.0, hi=1.0):
    """sup_{x in [lo,hi]} |F(x) - G(x)|.

    For a step table against a nondecreasing linear one, in either order,
    F - G is monotone between the step side's jumps, so the sup is read at
    those jumps (value and left limit) and at lo and hi: the linear table's
    knots, its atom at the first one included, add nothing. Any other pair
    is read at every point of the window grid of both tables.
    """
    for S, L in ((F, G), (G, F)):
        if (S.interpolation, L.interpolation) == (STEP, LINEAR) \
                and np.all(L.values[1:] >= L.values[:-1]):
            diffs = _jump_differences(S, L, lo, hi)
            break
    else:
        diffs = _differences(F, G, lo, hi)[1:]
    return float(max(np.abs(d).max(initial=0.0) for d in diffs))


def wasserstein1(F, G, lo=0.0, hi=1.0):
    """Integral of |F - G| over [lo,hi], closed form per linear segment."""
    pts, right, db = _differences(F, G, lo, hi)
    w, da = np.diff(pts), right[:-1]
    same = da * db >= 0
    area_same = 0.5 * w * (np.abs(da) + np.abs(db))
    denom = np.abs(da) + np.abs(db)
    with np.errstate(divide="ignore", invalid="ignore"):
        area_cross = 0.5 * w * (da * da + db * db) / np.where(denom > 0, denom, 1.0)
    return float(np.sum(np.where(same, area_same, area_cross)))


def _rotated_graph(F):
    """Knots (u, w) = (x + y, y - x) of F's completed graph: y = 0 below 0, a
    vertical segment up each jump, y = F(1) beyond 1. u never decreases along
    it, so w is a 1-Lipschitz piecewise-linear function of u; the tail knots
    u = -1 and u = 3 lie beyond every other knot of a CDF on [0, 1]."""
    bp, vals = F.breakpoints, F.values
    xs = np.concatenate([[0.0], np.clip(bp, 0.0, 1.0), [1.0]])
    if F.interpolation == STEP and bp[0] > 0.0 and bp[-1] < 1.0:
        # a staircase inside (0, 1): each left limit is the value before it
        left = np.concatenate([[0.0, 0.0], vals])
        right = np.concatenate([[0.0], vals, vals[-1:]])
    else:
        left, right = F.eval_left(xs), F.eval(xs)
    x = np.repeat(xs, 2)
    y = np.column_stack([left, right]).ravel()
    return (np.concatenate([[-1.0], x + y, [3.0]]),
            np.concatenate([[1.0], y - x, [2.0 * y[-1] - 3.0]]))


def levy(F, G):
    """Levy band distance: min e with F(x-e)-e <= G(x) <= F(x+e)+e for all x.

    Shifting a graph by (-e, e) or (e, -e) moves w by 2e at fixed u, so the
    distance is max |w_F - w_G| / 2, reached at a knot of either graph (Gibbs
    & Su, "On choosing and bounding probability metrics", 2002).
    """
    (uF, wF), (uG, wG) = _rotated_graph(F), _rotated_graph(G)
    u = np.concatenate([uF, uG])
    return float(np.abs(np.interp(u, uF, wF) - np.interp(u, uG, wG)).max()) / 2.0


def dkw_band(n, delta):
    """Uniform empirical-CDF deviation bound sqrt(ln(2/delta)/(2n))."""
    check_number("n", n, 1, integer=True)
    check_number("delta", delta, 0.0, 1.0, "()")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def empirical_cdf(xs):
    """Step CDF of a 1-D sample."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        raise ValidationError("empty sample")
    uniq, counts = np.unique(xs, return_counts=True)
    vals = np.cumsum(counts) / xs.size
    vals[-1] = 1.0
    return PiecewiseCdf(uniq, vals, interpolation=STEP, is_full_cdf=True)


def uniform_cdf():
    """The identity CDF on [0,1]."""
    return PiecewiseCdf([0.0, 1.0], [0.0, 1.0], interpolation=LINEAR, is_full_cdf=True)
