"""Lattice-counting dimension estimation and closed-form dimension evaluators.

The counting estimator regresses log ball-count against log radius over a
geometric scale grid, taking the sup over centers from a finite policy (the
densest balls of these digit-generated sets center on points of the set, so
candidate centers are the origin plus generated points; this is a documented
heuristic, the true sup is over all of R^2).  Counting is exact, and each
(point, center) pair is settled once for the whole scale grid on one of three
paths.  Concrete points with coordinates below 2^30 against a concrete center
num/den that keeps den x - nx and den y - ny below 2^31 are counted in int64
numpy columns sorted by y, for every center and scale in one pass, each ball
only over the slab of rows its radius can reach.  With bound =
ceil(den^2 h^2) and X the largest |den x - nx| of any row, the slab's rows
with |den y - ny| <= isqrt(bound - X^2 - 1) lie inside the ball whatever
their x and count without a distance; only the other rows of the slab, its
rim, are squared.  The columns come from ``lattice.folded_columns``, which
hands a prefix's stored columns over as they are, with a kicked prefix's
small kicks folded as its points' values fold them (once per prefix, which
keeps them for its parts); ``treemap.resolve_points`` hands over a
store's columns, and its params, for a prefix, for a list of its own points
(``list(prefix.points)``) and for the parts of ``IntermediateSpec.split``.
Any other pair is first screened by magnitude bounds, computed from the same
columns (``lattice.log2_bound_columns``): when those put point and center
more than the largest scale apart on some axis, the pair is dropped
unexpanded, so the huge coordinates of kicked points are never subtracted or
squared.  A kicked point and a kicked center with the same single kick term
differ by their bases, which settle the pair in int64 or by the screen.  The
pairs left get one exact squared distance, and only their points are built
as ``SymVec``s.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .lattice import (
    KickTerms,
    MatrixParams,
    SymVec,
    folded_columns,
    log2_bound_columns,
    scalar_abs_lt,
    scalar_materialize,
    scalar_parts,
    sym,
    sym_diff,
    value_columns,
)
from .treemap import SpectrumPoint, point_indices, resolve_points

# Concrete coordinates strictly below this in absolute value take the int64
# branch: two differences of them square and add to less than 2^63.
_I64_COORD = 2**30
_I64_MAX = 2**63 - 1
_SMALL_LOG2 = 30.0  # 2^30 bounds every int64-counted coordinate


def _center_parts(center) -> tuple[SymVec, int]:
    """A center as an integer numerator and denominator: center = num / den."""
    if isinstance(center, SpectrumPoint):
        return center.value, 1
    if isinstance(center, SymVec):
        return center, 1
    cx, cy = Fraction(center[0]), Fraction(center[1])
    den = math.lcm(cx.denominator, cy.denominator)
    return sym((int(cx * den), int(cy * den))), den


def _int64_limits(c: SymVec, den: int) -> tuple[int, int] | None:
    """For a concrete center num/den, per axis the largest m such that every
    integer |v| <= m has |den v - num| < 2^31; None when there is no such m.

    For |x| <= mx = (2^31 - 1 - |nx|) // den, |den x - nx| <= den mx + |nx| <=
    2^31 - 1, and den |x| too, and the same on y: so den x - nx, den y - ny
    and (den x - nx)^2 + (den y - ny)^2 <= 2 (2^31 - 1)^2 < 2^63 are exact in
    int64.  den < 2^31 keeps den itself an int64 factor.
    """
    if c.terms or den >= 2**31:
        return None
    mx, my = ((2**31 - 1 - abs(b)) // den for b in c.base)
    return (mx, my) if mx >= 0 and my >= 0 else None


def _max_ball_counts(vecs, centers, scales, p) -> tuple[list[int], dict]:
    """Per scale h, the most points at distance < h from any one of the centers.

    For a center num/den, each point's den^2 |v - center|^2 is compared,
    exactly, with bound = ceil(den^2 h^2), and the count at h is the number
    of points below it.  A pair takes one of three paths, tallied in the
    returned stats:

    * int64: a concrete point with coordinates below 2^30 and a concrete
      center whose den x - nx and den y - ny stay below 2^31 at that point
      (``_int64_limits``), counted in numpy for every center and scale at
      once (``_int64_ball_counts``).  Per ball only the slab of y-sorted
      rows it can reach is read, |y - floor(cy)| < ceil(h) (one more for
      den > 1).  The slab's inner rows, whose |den y - ny| is at most
      Y = isqrt(bound - X^2 - 1) for X the largest |den x - nx| of any row,
      count without a distance; only the rest, the ball's rim, is squared.
      A kicked point and a kicked center with the same single kick term
      take this path too when their bases differ by less than 2^31 on each
      axis: the term cancels, and the bases' difference is the pair's;
    * screened: any other pair whose magnitude bounds (``scalar_log2_bounds``
      from the columns, ``lattice.log2_bound_columns``, shifted by log2 den
      for den * v) put den * v and num more than den times the largest scale
      apart on some axis, or whose shared kick term leaves bases that far
      apart.  A bound only drops a pair that the exact test rejects too, so
      no float decides a count;
    * exact: every pair left, through ``sym_diff`` and ``scalar_abs_lt``.

    Bounds are computed only when some pair is off the int64 path.  ``vecs``
    may be ``lattice.ColumnValues``: the columns are read as they are, and a
    ``SymVec`` is built only for a point that some center sends to the exact
    test.
    """
    n = len(vecs)
    xs, ys, terms = folded_columns(vecs)  # int64, or exact objects past 2^62
    small = (xs > -_I64_COORD) & (xs < _I64_COORD) & (ys > -_I64_COORD) & (ys < _I64_COORD)
    if terms is not None:
        small[terms.index] = False
    rows, off = np.flatnonzero(small), np.flatnonzero(~small)
    built = {}  # the SymVecs of points that face some center exactly

    def point(i):
        v = built.get(i)
        if v is None:
            v = built[i] = vecs[i]
        return v

    h2s = [Fraction(h) ** 2 for h in scales]
    # per den: ceil(den^2 h^2) per scale, as ints and clamped to int64, and
    # den times the largest scale, as it is and rounded up
    bounds = {}
    order = None  # the int64 rows sorted by y, made for the first center that counts them
    # 2^reach_log2 > every scale: a pair further apart on some axis is in no ball
    reach_log2 = float(math.ceil(Fraction(max(scales))).bit_length())
    c_lo = c_hi = lo = hi = None  # magnitude bounds of the centers and the points off int64
    screens = {}  # per den, the point side of the screen
    center_parts = [_center_parts(center) for center in centers]
    # the largest exponent of a center, or of a point: none on the int64 path has a term
    top = max((e for c, _ in center_parts for e, _ in c.terms), default=0)
    stats = {
        "pairs_int64": 0,
        "pairs_screened": 0,
        "pairs_exact": 0,
        "max_exponent": top if terms is None else max(top, int(terms.exponent.max())),
    }
    counts = np.zeros((len(center_parts), len(scales)), dtype=np.int64)
    slabbed = []  # (center, nx, ny, den, mx, my) for each center with int64 rows
    twins = []  # (center, dx, dy) for each point that shares a kicked center's one term
    for ci, (c, den) in enumerate(center_parts):
        if den not in bounds:
            # an integer is below den^2 h^2 exactly when it is below its ceiling
            exact = [-(-h2.numerator * den * den // h2.denominator) for h2 in h2s]
            reach = Fraction(max(scales)) * den
            bounds[den] = (exact, np.array([min(b, _I64_MAX) for b in exact], dtype=np.int64),
                           reach, math.ceil(reach))
        *_, reach, reach_ceil = bounds[den]
        limits = _int64_limits(c, den) if rows.size else None
        n_int64, left = 0, rows  # left: int64 rows not counted in int64
        if limits is not None:
            if order is None:
                order = rows[np.argsort(ys[rows], kind="stable")]
                xs_s, ys_s = (col[order].astype(np.int64, copy=False) for col in (xs, ys))
            mx, my = limits
            if min(mx, my) < _I64_COORD - 1:  # some int64 rows are too far from this center
                left = order[(np.abs(xs_s) > mx) | (np.abs(ys_s) > my)]
            else:
                left = rows[:0]
            n_int64 = len(rows) - len(left)
            if n_int64:
                slabbed.append((ci, *c.base, den, mx, my))
        if not off.size and not left.size:
            rest = []
        else:
            if c_lo is None:
                c_lo, c_hi = log2_bound_columns(*value_columns([c for c, _ in center_parts]), p)
                # every point with a term is off the int64 path: renumber its rows
                off_terms = (None if terms is None else
                             KickTerms(np.searchsorted(off, terms.index), *terms[1:]))
                lo, hi = log2_bound_columns(xs[off], ys[off], off_terms, p)
                alone = _single_terms(off_terms, len(off))
            screen = screens.get(den)
            if screen is None:  # the point side of the screen, per axis, for this den
                # den * v against c: 2^(bit_length - 1) <= den <= 2^up, and 2^r > reach
                up = (den - 1).bit_length()
                r = reach_log2 + up
                screen = screens[den] = (up, r, (lo + (den.bit_length() - 1)).T.copy(),
                                         (np.maximum(hi + up, r) + 1).T.copy())
            up, r, v_lo, v_hi = screen
            # |den v - c| > 2^(lo_v - 1) >= 2^r once lo_v >= max(hi_c, r) + 1
            c_far = np.maximum(c_hi[ci], r) + 1
            near = ~((v_lo[0] >= c_far[0]) | (v_lo[1] >= c_far[1])
                     | (c_lo[ci, 0] >= v_hi[0]) | (c_lo[ci, 1] >= v_hi[1]))
            if len(c.terms) == 1:  # a kicked center, so den = 1
                # v = b + A^e w and c = b_c + A^e w give v - c = b - b_c
                e, w = c.terms[0]
                exps, at, wx, wy = alone
                for j in range(bisect_left(exps, e), bisect_right(exps, e)):
                    i = at[j]
                    if not near[i] or (wx[j], wy[j]) != w:
                        continue
                    dx, dy = int(xs[off[i]]) - c.base[0], int(ys[off[i]]) - c.base[1]
                    d = max(abs(dx), abs(dy))
                    if d < min(reach_ceil, 2**31):
                        twins.append((ci, dx, dy))
                        n_int64 += 1
                    near[i] = reach_ceil > d >= 2**31  # else screened: beyond every ball
            rest = [point(i) for i in off[near].tolist()]
            # the other int64 rows, |den v| < 2^(30 + up), face this center exactly
            if left.size and not (c_lo[ci] >= max(_SMALL_LOG2 + up, r) + 1).any():
                rest += [point(i) for i in left.tolist()]
        stats["pairs_int64"] += n_int64
        stats["pairs_exact"] += len(rest)
        stats["pairs_screened"] += n - len(rest) - n_int64
        if rest:
            d2s = []
            for v in rest:
                if den != 1:
                    v = SymVec((v.base[0] * den, v.base[1] * den),
                               tuple((e, (x * den, y * den)) for e, (x, y) in v.terms))
                d = sym_diff(v, c)
                coords = []
                for axis in (0, 1):
                    b, parts, B = scalar_parts(d, p, axis)
                    if not scalar_abs_lt(b, parts, B, reach):
                        break
                    coords.append(scalar_materialize(b, parts, B))
                else:
                    d2s.append(coords[0] ** 2 + coords[1] ** 2)
            d2s.sort()
            counts[ci] = [bisect_left(d2s, bound) for bound in bounds[den][0]]
    if slabbed:
        at, *cols = np.array(slabbed, dtype=np.int64).T
        limit = np.array([bounds[den][1] for den in cols[2].tolist()])
        counts[at] += _int64_ball_counts(xs_s, ys_s, *cols, limit, scales)
    if twins:
        at, dx, dy = np.array(twins, dtype=np.int64).T
        # |dx|, |dy| < 2^31: the squared distance is exact in int64
        inside = (dx * dx + dy * dy)[:, None] < bounds[1][1]
        hits = (at[:, None] * len(scales) + np.arange(len(scales)))[inside]
        counts += np.bincount(hits, minlength=counts.size).reshape(counts.shape)
    return counts.max(0, initial=0).tolist(), stats


def _single_terms(terms: KickTerms | None, n: int) -> tuple[list, ...]:
    """Of n values, those with exactly one kick term: its exponents in
    increasing order, and per exponent the value's row and the term's x and y."""
    if terms is None:
        return [], [], [], []
    one = np.flatnonzero(np.bincount(terms.index, minlength=n)[terms.index] == 1)
    one = one[np.argsort(terms.exponent[one], kind="stable")]
    return tuple(col[one].tolist() for col in (terms.exponent, terms.index, terms.x, terms.y))


# Rows gathered at once by _int64_ball_counts beyond those of one center: at
# most this many, or the number of rows when that is more
_RIM_ROWS = 2**16


def _int64_ball_counts(xs, ys, nx, ny, den, mx, my, bounds, scales) -> np.ndarray:
    """Per center num/den and scale, the rows (xs, ys), sorted by y, with
    (den x - nx)^2 + (den y - ny)^2 below the bound (int64, clamped at 2^63 - 1).

    Every |x|, |y| < 2^30, and den x - nx, den y - ny stay below 2^31 in
    absolute value at the rows with |x| <= mx and |y| <= my (``_int64_limits``),
    the only rows a center counts.  Returns a centers x scales array.
    """
    k = len(scales)
    # slab radii ceil(|h|), at least 1 so that no slab is an inverted row range;
    # |y - floor(cy)| < 2^30 + 2^31 for every row, so wider slabs are all rows
    radii = np.array([min(max(math.ceil(abs(Fraction(h))), 1), 2**32) for h in scales],
                     dtype=np.int64)
    # the slab of each ball, sorted rows [lo, hi): |y - floor(cy)| < radius, + 1 for den > 1
    cy_floor, wide = (ny // den)[:, None], radii + (den != 1)[:, None]
    lo = np.searchsorted(ys, cy_floor - wide, side="right")
    hi = np.searchsorted(ys, cy_floor + wide, side="left")
    # The inner range.  |den x - nx| <= X at every row.  When bound - X^2 >= 1
    # and Y = isqrt(bound - X^2 - 1), a row with |den y - ny| <= Y has
    # (den x - nx)^2 + (den y - ny)^2 <= X^2 + Y^2 <= bound - 1, so it is in
    # the ball whatever its x.  X < 2^31 for a center whose limits hold every
    # row; one whose limits exclude some rows gets no inner range, so its
    # rim, the whole slab, is checked against its limits row by row.  When
    # the true bound passes 2^63 - 1, the clamped one still gives Y >= 2^31,
    # above every |den y - ny|: every row of the slab is inner either way.
    x_lo, x_hi = xs.min(), xs.max()
    every = (mx >= max(-x_lo, x_hi)) & (my >= max(-ys[0], ys[-1]))
    x_far = np.where(every, np.maximum(np.abs(den * x_lo - nx), np.abs(den * x_hi - nx)), 0)
    room = bounds - (x_far * x_far)[:, None] - 1
    inner = (room >= 0) & every[:, None]
    y_in = np.zeros(room.shape, dtype=np.int64)
    y_in[inner] = [math.isqrt(r) for r in room[inner].tolist()]
    # rows with ceil((ny - Y) / den) <= y <= floor((ny + Y) / den): Y < den h,
    # so these lie within the slab; a ball with no inner range gets [lo, lo)
    y_lo = -((y_in - ny[:, None]) // den[:, None])
    a = np.where(inner, np.searchsorted(ys, y_lo, side="left"), lo)
    b = np.where(inner, np.searchsorted(ys, (ny[:, None] + y_in) // den[:, None], side="right"),
                 lo)
    counts = b - a
    # the rim: rows [lo, a) and [b, hi) of each ball, all balls end to end
    starts = np.stack([lo, b], axis=-1).reshape(len(nx), -1)
    sizes = np.stack([a - lo, hi - b], axis=-1).reshape(len(nx), -1)
    per_center = sizes.sum(axis=1)
    # centers in chunks that gather about max(len(ys), _RIM_ROWS) rows each
    chunk = (np.cumsum(per_center) - per_center) // max(len(ys), _RIM_ROWS)
    cuts = np.flatnonzero(np.diff(chunk)) + 1
    for c0, c1 in zip([0, *cuts.tolist()], [*cuts.tolist(), len(nx)]):
        size = sizes[c0:c1].ravel()
        total = int(size.sum())
        if not total:
            continue
        ends = np.cumsum(size)
        idx = np.arange(total) + np.repeat(starts[c0:c1].ravel() - (ends - size), size)
        ball = np.repeat(np.arange(len(size)) // 2, size)  # (center - c0) * k + scale
        c = ball // k + c0
        x, y = xs[idx], ys[idx]
        dx, dy = x * den[c] - nx[c], y * den[c] - ny[c]
        hit = dx * dx + dy * dy < bounds[c0:c1].ravel()[ball]
        if not every[c0:c1].all():  # rows beyond a center's limits may have wrapped
            hit &= (np.abs(x) <= mx[c]) & (np.abs(y) <= my[c])
        counts[c0:c1] += np.bincount(ball[hit], minlength=len(size) // 2).reshape(-1, k)
    return counts


def count_in_ball(points, center, h, p: MatrixParams | None = None) -> int:
    """Exact number of points at Euclidean distance < h from the center.

    The center is a lattice point or a pair of rationals.  Concrete points
    with coordinates below 2^30 are counted in int64 against a concrete
    center num/den wherever den x - nx and den y - ny stay below 2^31.  A
    point whose magnitude bounds put it beyond h of the center on some axis
    is dropped unexpanded, so huge coordinates are never squared;
    every other point costs one exact distance.
    """
    if h <= 0:
        raise ValueError("radius must be positive")
    _, vecs, p = resolve_points(points, p, need_params=False)
    return _max_ball_counts(vecs, [center], [h], p)[0][0]


@dataclass(frozen=True)
class DimensionEstimate:
    scales: tuple
    counts: tuple[int, ...]
    slope: float
    fit_residual: float
    centers_used: int
    # pairs_int64 + pairs_screened + pairs_exact = points x centers, and the
    # largest symbolic exponent among points and centers; outside == and hash
    stats: dict = field(default_factory=dict, compare=False)

    def __str__(self) -> str:
        return f"dim~{self.slope:.4f} over {len(self.scales)} scales (rms {self.fit_residual:.3f})"


def geometric_scales(p: MatrixParams, j_lo: int, j_hi: int) -> list[int]:
    """The scale grid h = (3*q2)^j for consecutive exponents."""
    if j_lo < 1 or j_hi < j_lo:
        raise ValueError("need 1 <= j_lo <= j_hi")
    return [p.base_y**j for j in range(j_lo, j_hi + 1)]


def _resolve_centers(vecs, policy, seed):
    if policy == "origin":
        return [sym((0, 0))]
    if policy == "points":
        return [sym((0, 0))] + list(vecs)
    if isinstance(policy, str):
        kind, _, n = policy.partition(":")
        if kind != "sample" or not n.isdigit():
            raise ValueError(
                f"centers must be 'origin', 'points' or 'sample:N' with N >= 0, "
                f"got {policy!r}"
            )
        if len(vecs) <= int(n):
            return [sym((0, 0))] + list(vecs)
        # the same draw as rng.sample(list(vecs), n), which reads only len and [i]
        chosen = random.Random(seed).sample(range(len(vecs)), int(n))
        return [sym((0, 0))] + [vecs[i] for i in chosen]
    return list(policy)


def beurling_dim_estimate(
    points,
    scales,
    p: MatrixParams | None = None,
    *,
    centers="sample:64",
    seed: int = 0,
) -> DimensionEstimate:
    """Slope of log max-ball-count against log radius over the scale grid.

    centers: "origin", "points", "sample:N" (origin plus a seeded sample of
    generated points), or an explicit list.  Counting is exact; the regression
    is an estimate whose window the caller controls.  Each (point, center)
    pair is settled once for the whole grid: in int64 when the point's
    coordinates are below 2^30 and those of den * point - num below 2^31,
    for a concrete center num/den; else dropped unexpanded when
    magnitude bounds put the two beyond the largest scale on some axis; else
    by one exact distance.  ``stats`` counts the pairs of
    each path (``pairs_int64``, ``pairs_screened``, ``pairs_exact``) and the
    largest symbolic exponent among points and centers (``max_exponent``).

    The Beurling dimension is a limit as h -> oo, and a finite window is
    biased for sets of dimension zero: counts that grow like log h give a
    slope of about 1/ln h over the window (0.10 over 2^4..2^28 for the powers
    of 2).  A window should therefore reach the set's largest unsaturated
    scales, i.e. those whose densest ball does not yet hold every point.
    """
    _, vecs, p = resolve_points(points, p, need_params=False)
    if not vecs:
        raise ValueError("cannot estimate the dimension of an empty set")
    scales = list(scales)
    if len(scales) < 4:
        raise ValueError("need at least 4 scales")
    if len(set(scales)) != len(scales) or any(h <= 0 for h in scales):
        raise ValueError("scales must be positive and distinct")
    scales.sort()
    center_list = _resolve_centers(vecs, centers, seed)
    counts, stats = _max_ball_counts(vecs, center_list, scales, p)
    if min(counts) < 1:
        raise ValueError("every scale needs a nonempty densest ball; enlarge scales")
    xs = np.array([math.log(h) for h in scales])  # math.log takes ints of any size
    ys = np.log(np.array(counts, dtype=float))
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return DimensionEstimate(
        scales=tuple(scales),
        counts=tuple(counts),
        slope=float(slope),
        fit_residual=resid,
        centers_used=len(center_list),
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Position patterns and the closed-form dimension formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Periodic:
    """Repeating activity bits; position i (1-based) is active iff bits[(i-1) % P]."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if not self.bits or any(b not in (0, 1) for b in self.bits):
            raise ValueError("Periodic needs a nonempty 0/1 bit tuple")

    def active(self, i: int) -> bool:
        return bool(self.bits[(i - 1) % len(self.bits)])

    @property
    def frequency(self) -> float:
        # the prefix frequency converges to the period average
        return sum(self.bits) / len(self.bits)


@dataclass(frozen=True)
class Beatty:
    """Active where floor(i*d) increments; prefix frequency converges to d exactly."""

    density: float

    def __post_init__(self):
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("Beatty density must lie in [0, 1]")

    def active(self, i: int) -> bool:
        d = self.density
        return math.floor(i * d) > math.floor((i - 1) * d)

    @property
    def frequency(self) -> float:
        return self.density


@dataclass(frozen=True)
class Explicit:
    """Caller-supplied activity predicate with a claimed limiting frequency."""

    predicate: object  # Callable[[int], bool]
    claimed_frequency: float

    def active(self, i: int) -> bool:
        return bool(self.predicate(i))

    @property
    def frequency(self) -> float:
        return self.claimed_frequency

    def consistency_check(self, horizon: int = 10_000, tol: float = 0.05) -> None:
        avg = sum(1 for i in range(1, horizon + 1) if self.active(i)) / horizon
        if abs(avg - self.claimed_frequency) > tol:
            raise ValueError(
                f"claimed frequency {self.claimed_frequency} is inconsistent with "
                f"prefix average {avg:.4f} over {horizon} positions"
            )


Pattern = Periodic | Beatty | Explicit


def _pattern_frequency(pattern: Pattern) -> float:
    if isinstance(pattern, Explicit):
        pattern.consistency_check()
    return pattern.frequency


def formula_dim_1d(b: int, digit_set, pattern: Pattern) -> float:
    """Closed-form dimension of a one-dimensional digit-sum set.

    For the set of sums d_1 + d_2 b + ... with digits drawn from D on active
    positions and {0} elsewhere, the dimension is (limsup position frequency)
    times log|D|/log b, provided D sits inside the centered residue alphabet.
    """
    if b < 2:
        raise ValueError("base must be >= 2")
    digits = sorted(set(digit_set))
    if not digits:
        raise ValueError("digit set must be nonempty")
    lo, hi = -(b // 2), b - 1 - b // 2
    for d in digits:
        if not lo <= d <= hi:
            raise ValueError(f"digit {d} outside the centered alphabet [{lo}, {hi}]")
    return _pattern_frequency(pattern) * math.log(len(digits)) / math.log(b)


def formula_dim_2d(a: int, b: int, digit_set, pattern: Pattern) -> float:
    """Closed-form dimension of a planar digit-sum set under diag(a, b), a <= b.

    Requires the y-components of the digits to be distinct and to sit inside
    the centered base-b alphabet: then distinct digit strings give distinct
    y-coordinates, the generated set meets every horizontal level at most once,
    and its dimension equals (frequency) * log|B|/log b.
    """
    if not (1 < a <= b):
        raise ValueError("need 1 < a <= b")
    digits = sorted(set(tuple(d) for d in digit_set))
    if not digits:
        raise ValueError("digit set must be nonempty")
    lo, hi = -(b // 2), b - 1 - b // 2
    ys = [d[1] for d in digits]
    for y in ys:
        if not lo <= y <= hi:
            raise ValueError(f"digit y-component {y} outside [{lo}, {hi}]")
    if len(set(ys)) != len(ys):
        raise ValueError(
            "digit set has colliding y-components; the one-point-per-line "
            "hypothesis of the closed form fails"
        )
    return _pattern_frequency(pattern) * math.log(len(digits)) / math.log(b)


# ---------------------------------------------------------------------------
# Lacunarity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LacunaryReport:
    """Exact growth check |a_{n+1}| >= b |a_n| along both index branches.

    ratio_pass covers the consecutive-ratio clauses; strict_pass additionally
    requires the branch heads to satisfy |a_1| >= b.  lacunary_constant is the
    largest c for which the set is strictly c-lacunary (> 1 forces dimension 0).
    """

    b: float
    ratio_pass: bool
    strict_pass: bool
    min_ratio: float
    head_magnitudes: tuple[float, ...]
    lacunary_constant: float
    branch_sizes: tuple[int, int]

    @property
    def passed(self) -> bool:
        return self.ratio_pass


def lacunary_check(points, b, p: MatrixParams | None = None) -> LacunaryReport:
    """Verify the lacunary growth clauses with exact integer comparisons.

    Points whose every item has an index k, such as a prefix or a ``split``
    part, split into the k>0 and k<0 branches, ordered by |k|; any other
    points (``SymVec``s, pairs) form a single branch ordered by magnitude,
    zero dropped.  All comparisons are performed on exact squared magnitudes.
    """
    if b <= 1:
        raise ValueError("lacunarity constant must exceed 1")
    branches = _magnitude_branches(points, p)
    b2 = Fraction(b) ** 2
    ratio_ok = True
    strict_ok = True
    min_ratio2 = None
    heads = []
    for branch in branches:
        if not branch:
            continue
        heads.append(_float_sqrt(branch[0]))
        if Fraction(branch[0]) < b2:
            strict_ok = False
        for prev, nxt in zip(branch, branch[1:]):
            if prev == 0:
                ratio_ok = False
                continue
            r2 = Fraction(nxt, prev)
            if min_ratio2 is None or r2 < min_ratio2:
                min_ratio2 = r2
            if r2 < b2:
                ratio_ok = False
    strict_ok = strict_ok and ratio_ok
    min_ratio = _float_sqrt_frac(min_ratio2) if min_ratio2 is not None else math.inf
    constant = min([min_ratio, *heads]) if heads else math.inf
    return LacunaryReport(
        b=float(b),
        ratio_pass=ratio_ok,
        strict_pass=strict_ok,
        min_ratio=min_ratio,
        head_magnitudes=tuple(heads),
        lacunary_constant=constant,
        branch_sizes=(len(branches[0]), len(branches[1]) if len(branches) > 1 else 0),
    )


def _magnitude_branches(points, p):
    """Exact squared magnitudes per branch: when every point has an index k,
    the k > 0 and the k < 0 points in order of |k|, verified nondecreasing
    within each; else one branch in order of magnitude, zero dropped."""
    points, values, p = resolve_points(points, p, need_params=False)
    ks = point_indices(points)
    if ks is None:
        mags = sorted(_mag2(v, p) for v in values)
        return [[m for m in mags if m > 0]]
    branches = []
    for sign in (1, -1):
        rows = np.flatnonzero(sign * ks > 0)
        rows = rows[np.argsort(sign * ks[rows], kind="stable")]
        branch = [_mag2(values[i], p) for i in rows.tolist()]
        if any(nxt < prev for prev, nxt in zip(branch, branch[1:])):
            raise ValueError("branch magnitudes are not nondecreasing in |k|; "
                             "lacunary ordering assumption violated")
        branches.append(branch)
    return branches


def _mag2(v: SymVec, p) -> int:
    x, y = (scalar_materialize(*scalar_parts(v, p, axis)) for axis in (0, 1))
    return x * x + y * y


def _float_sqrt(m2: int) -> float:
    if m2.bit_length() > 1000:
        return math.inf
    return math.sqrt(float(m2))


def _float_sqrt_frac(fr: Fraction) -> float:
    if (fr.numerator.bit_length() - fr.denominator.bit_length()) > 1000:
        return math.inf
    try:
        return math.sqrt(float(fr))
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Entropy and support dimensions (closed forms + Monte Carlo)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyDimensions:
    dim_x: float
    dim_mu: float
    lower: float  # log 3 / log 3q2
    upper: float  # log 3 / log 3q1
    strict: bool  # strict chain (q1 < q2) vs equality to the upper end


def entropy_dim_closed_form(p: MatrixParams) -> EntropyDimensions:
    """Closed-form entropy dimensions of the measure and its x-projection.

    dim_x = (2/3 log 2/3 + 1/3 log 1/3) / (-log 3q1);
    dim_mu = (dim_x * log(3q2/3q1) + log 3) / log 3q2, which sits strictly
    between log3/log3q2 and log3/log3q1 when q1 < q2 and hits the upper end
    when q1 = q2.
    """
    dim_x = (2 / 3 * math.log(2 / 3) + 1 / 3 * math.log(1 / 3)) / (-math.log(p.base_x))
    dim_mu = (dim_x * math.log(p.base_y / p.base_x) + math.log(3)) / math.log(p.base_y)
    lower = math.log(3) / math.log(p.base_y)
    upper = math.log(3) / math.log(p.base_x)
    if p.q1 < p.q2:
        if not (lower < dim_mu < upper):
            raise AssertionError("entropy dimension escaped its strict bracket")
        strict = True
    else:
        if abs(dim_mu - upper) > 1e-12:
            raise AssertionError("entropy dimension should equal log3/log3q1 here")
        strict = False
    return EntropyDimensions(dim_x=dim_x, dim_mu=dim_mu, lower=lower, upper=upper, strict=strict)


DIGITS_2D = np.array([(0, 0), (1, 0), (0, 1)], dtype=float)


def entropy_dim_monte_carlo(
    p: MatrixParams, n: int, samples: int, seed: int = 0
) -> float:
    """Plug-in entropy of the sampled measure on the dyadic 2^-n grid, over n log 2.

    Samples are truncated digit sums sum_j A^-j d_j with the truncation depth
    chosen so the dropped tail is below 2^-(n+4) per coordinate.
    """
    if n == 0:
        return 0.0
    if samples < 1:
        raise ValueError("need at least one sample")
    depth = 1
    while 1.0 / (p.base_x**depth * (p.base_x - 1)) >= 2.0 ** -(n + 4):
        depth += 1
    rng = np.random.default_rng(seed)
    choice = rng.integers(0, 3, size=(samples, depth))
    wx = p.base_x ** -np.arange(1.0, depth + 1)
    wy = p.base_y ** -np.arange(1.0, depth + 1)
    x = (choice == 1) @ wx
    y = (choice == 2) @ wy
    cells = np.floor(x * 2**n).astype(np.int64) * (2**n + 3) + np.floor(
        y * 2**n
    ).astype(np.int64)
    _, counts = np.unique(cells, return_counts=True)
    freq = counts / samples
    entropy = float(-np.sum(freq * np.log(freq)))
    return entropy / (n * math.log(2))


def support_hausdorff_dim(p: MatrixParams) -> float:
    """Closed-form Hausdorff dimension log(2^u + 1)/log(3q1), u = log3q1/log3q2."""
    u = math.log(p.base_x) / math.log(p.base_y)
    value = math.log(2**u + 1) / math.log(p.base_x)
    if not value > math.log(3) / math.log(p.base_y) - 1e-12:
        raise AssertionError("support dimension fell below the counting bound")
    return value
