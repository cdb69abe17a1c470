"""Known answers for the benchmark, computed without the code under test.

Canonical spectrum points come from balanced-ternary digits of the index,
ball counts from a brute-force count (numpy int64 when the coordinates fit,
exact Python integers otherwise), symbolic kicked points from a geometric
tail bound of this module's own, slopes from a plain least-squares fit, and
closed forms from their formulas.  Nothing here imports ``sierpspec``: the
benchmark hands this module plain tuples, so a wrong answer from the program
cannot leak into its own reference.
"""

from __future__ import annotations

import contextlib
import math
import sys

import numpy as np

INT64_LIMIT = 2**62  # leaves headroom for squared sums of two coordinates
EXACT_BITS = 4096  # expand B**E exactly up to this size


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


def canonical_points(q1: int, q2: int, index_bound: int) -> np.ndarray:
    """Rows (k, x, y) of the canonical spectrum for |k| <= index_bound.

    lambda_k = sum_j d_j * (q1 * (3 q1)^j, -q2 * (3 q2)^j) over the balanced
    ternary digits d_j of k, least significant first.
    """
    ks = np.arange(-index_bound, index_bound + 1, dtype=np.int64)
    rest = ks.copy()
    x = np.zeros_like(ks)
    y = np.zeros_like(ks)
    px, py = 1, 1
    while np.any(rest):
        r = np.mod(rest, 3)
        d = np.where(r == 2, -1, r)
        x += d * px
        y += d * py
        rest = (rest - d) // 3
        px *= 3 * q1
        py *= 3 * q2
        if max(px, py) > INT64_LIMIT:
            raise ValueError("canonical reference outgrew int64; use fewer points")
    return np.stack([ks, q1 * x, -q2 * y], axis=1)


def expand(base: int, terms, B: int) -> int:
    """base + sum c * B**e as one Python integer."""
    return base + sum(c * B**e for e, c in terms)


# ---------------------------------------------------------------------------
# Ball counts
# ---------------------------------------------------------------------------


def max_ball_counts_int64(xy: np.ndarray, centers: np.ndarray, scales) -> list[int]:
    """Largest count of rows with |p - c|^2 < h^2 over the centers, per scale."""
    xy = np.asarray(xy, dtype=np.int64)
    best = [0] * len(scales)
    for cx, cy in np.asarray(centers, dtype=np.int64):
        dx = xy[:, 0] - cx
        dy = xy[:, 1] - cy
        d2 = dx * dx + dy * dy
        for i, h in enumerate(scales):
            best[i] = max(best[i], int(np.count_nonzero(d2 < h * h)))
    return best


def fits_int64(coords, scales) -> bool:
    bound = max((max(abs(x), abs(y)) for x, y in coords), default=0)
    return (2 * bound) ** 2 * 2 < INT64_LIMIT and max(scales) ** 2 < INT64_LIMIT


def max_ball_counts(points, centers, scales, bases) -> list[int]:
    """Reference counts for points and centers given as (base, terms) pairs.

    base is an (x, y) integer pair and terms a tuple of (e, (vx, vy)) for the
    kick terms A^e v, with A = diag(*bases).  Concrete inputs that fit int64
    take the vectorized path; the rest go pair by pair through ``dist2_within``.
    """
    if all(not t for _, t in points) and all(not t for _, t in centers):
        coords = [b for b, _ in points]
        cents = [b for b, _ in centers]
        if fits_int64(coords + cents, scales):
            return max_ball_counts_int64(
                np.array(coords, dtype=np.int64).reshape(-1, 2),
                np.array(cents, dtype=np.int64).reshape(-1, 2),
                scales,
            )
    hmax = max(scales)
    best = [0] * len(scales)
    for c in centers:
        d2s = [dist2_within(pt, c, hmax, bases) for pt in points]
        for i, h in enumerate(scales):
            n = sum(1 for d2 in d2s if d2 is not None and d2 < h * h)
            best[i] = max(best[i], n)
    return best


def dist2_within(point, center, hmax: int, bases) -> int | None:
    """Exact |point - center|^2, or None when an axis differs by >= hmax.

    Each axis difference is base + sum c_e B^e.  With top exponent E, top
    coefficient C and every lower |c_e| <= M, the lower terms sum to less
    than M B^E / (B - 1), so |C|(B - 1) - M >= 1 gives
    |difference| >= B^(E-1) - |base| >= 2^(E-1) - |base|.  When that already
    reaches hmax the axis is decided without expanding; otherwise it is
    expanded exactly.
    """
    (pb, pt), (cb, ct) = point, center
    d2 = 0
    for axis, B in enumerate(bases):
        coef: dict[int, int] = {}
        for sign, terms in ((1, pt), (-1, ct)):
            for e, v in terms:
                coef[e] = coef.get(e, 0) + sign * v[axis]
        terms = sorted((e, c) for e, c in coef.items() if c)
        base = pb[axis] - cb[axis]
        if terms and _axis_surely_ge(base, terms, B, hmax):
            return None
        value = expand(base, terms, B)
        if abs(value) >= hmax:
            return None
        d2 += value * value
    return d2


def _axis_surely_ge(base: int, terms, B: int, h: int) -> bool:
    top_e, top_c = terms[-1]
    if top_e * B.bit_length() <= EXACT_BITS:
        return False  # cheap to expand exactly
    lower = max((abs(c) for _, c in terms[:-1]), default=0)
    if abs(top_c) * (B - 1) - lower < 1:
        return False
    return top_e - 1 > (abs(base) + h).bit_length()


# ---------------------------------------------------------------------------
# Slopes and closed forms
# ---------------------------------------------------------------------------


def fit_slope(scales, counts) -> float:
    xs = np.log(np.array([float(h) for h in scales]))
    ys = np.log(np.array(counts, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


def upper_bound(q2: int) -> float:
    """log 3 / log(3 q2), the optimal upper bound for spectrum dimensions."""
    return math.log(3) / math.log(3 * q2)


def pattern_dim(bits, q2: int) -> float:
    """Closed form of a periodic digit-sum set with three distinct y-digits."""
    return sum(bits) / len(bits) * math.log(3) / math.log(3 * q2)


def pattern_points(q1: int, q2: int, bits, depth: int, digits) -> set[tuple[int, int]]:
    """All digit sums over active positions j <= depth (position j weighs A^(j-1))."""
    active = [j for j in range(1, depth + 1) if bits[(j - 1) % len(bits)]]
    pts = {(0, 0)}
    for j in active:
        wx, wy = (3 * q1) ** (j - 1), (3 * q2) ** (j - 1)
        pts = {(x + dx * wx, y + dy * wy) for x, y in pts for dx, dy in digits}
    return pts


# ---------------------------------------------------------------------------
# Completeness evidence
# ---------------------------------------------------------------------------


def q_sum_reference(xi, coords, q1: int, q2: int, depth: int = 60) -> float:
    """sum |mu_hat(xi + lambda)|^2 with the product truncated at ``depth``."""
    arr = np.asarray(coords, dtype=float) + np.asarray(xi, dtype=float)
    x, y = arr[:, 0].copy(), arr[:, 1].copy()
    prod = np.ones(len(arr), dtype=complex)
    for _ in range(depth):
        x /= 3 * q1
        y /= 3 * q2
        prod *= (1.0 + np.exp(-2j * np.pi * x) + np.exp(-2j * np.pi * y)) / 3.0
    return float(np.sum(np.abs(prod) ** 2))


# ---------------------------------------------------------------------------
# Files written by the CLI
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def unlimited_int_digits():
    """Allow decimal strings of any length, for this block only."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
