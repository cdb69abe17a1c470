import contextlib
import gc
import itertools
import math
import os
import random
import subprocess
import sys
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sierpspec.construct import build_intermediate_spectrum, pattern_lattice_points
from sierpspec.dimension import (
    Beatty,
    DimensionEstimate,
    Explicit,
    Periodic,
    beurling_dim_estimate,
    count_in_ball,
    entropy_dim_closed_form,
    entropy_dim_monte_carlo,
    formula_dim_1d,
    formula_dim_2d,
    geometric_scales,
    lacunary_check,
    support_hausdorff_dim,
)
from sierpspec.dimension import _int64_limits, _max_ball_counts, _resolve_centers
from sierpspec import dimension, treemap
from sierpspec.lattice import (
    ColumnValues,
    KickTerms,
    MatrixParams,
    SymVec,
    enumerate_digit_sets,
    folded_columns,
    log2_bound_columns,
    scalar_abs_lt,
    scalar_log2_bounds,
    scalar_materialize,
    scalar_parts,
    sym,
    sym_diff,
    value_columns,
)
from sierpspec.treemap import (
    CanonicalMapping,
    KickedMapping,
    SpectrumPoint,
    SpectrumPrefix,
    TableOffsets,
    _ColumnPoints,
    enumerate_spectrum,
    point_values,
    resolve_points,
)

P11 = MatrixParams(1, 1)
P12 = MatrixParams(1, 2)
P48 = MatrixParams(4, 8)


def test_count_in_ball_examples():
    assert count_in_ball([], (0.0, 0.0), 1.0, P11) == 0
    pre = enumerate_spectrum(CanonicalMapping(), P11, level=2)
    assert count_in_ball(pre, (0, 0), 10) == 9
    assert count_in_ball(pre, (0, 0), 0.5) == 1
    assert count_in_ball(pre, (0.25, 0.0), 0.5) == 1  # fractional center stays exact


def test_count_in_ball_monotone_in_radius():
    pre = enumerate_spectrum(CanonicalMapping(), P12, level=4)
    counts = [count_in_ball(pre, (0, 0), 6**j) for j in range(1, 5)]
    assert counts == sorted(counts)


def _exact_point(item, p):
    """Every coordinate expanded, as Fractions."""
    if isinstance(item, SpectrumPoint):
        item = item.value
    if isinstance(item, SymVec):
        item = item.materialize(p)
    return Fraction(item[0]), Fraction(item[1])


def _brute_counts(points, center, scales, p):
    """Oracle: expand every point and compare exact squared distances."""
    cx, cy = _exact_point(center, p)
    d2s = [(x - cx) ** 2 + (y - cy) ** 2 for x, y in (_exact_point(v, p) for v in points)]
    return [sum(1 for d2 in d2s if d2 < Fraction(h) ** 2) for h in scales]


# The ball-counting kernel before magnitude screening, kept verbatim as the
# oracle for the screened one: it sends every pair off the int64 path through
# the exact test.
_I64_COORD = 2**30
_I64_MAX = 2**63 - 1


def _center_parts(center) -> tuple[SymVec, int]:
    """A center as an integer numerator and denominator: center = num / den."""
    if isinstance(center, SpectrumPoint):
        return center.value, 1
    if isinstance(center, SymVec):
        return center, 1
    cx, cy = Fraction(center[0]), Fraction(center[1])
    den = math.lcm(cx.denominator, cy.denominator)
    return sym((int(cx * den), int(cy * den))), den


def _is_small(v: SymVec) -> bool:
    return v.is_concrete and abs(v.base[0]) < _I64_COORD and abs(v.base[1]) < _I64_COORD


def _unscreened_max_ball_counts(vecs, centers, scales, p) -> list[int]:
    """Per scale h, the most points at distance < h from any one of the centers.

    For a center num/den, each point's den^2 |v - center|^2 is worked out once,
    exactly, and the count at h is the number of these below den^2 h^2.
    """
    small, rest = [], []
    for v in vecs:
        (small if _is_small(v) else rest).append(v)
    xs, ys = np.array([v.base for v in small], dtype=np.int64).reshape(-1, 2).T
    h2s = [Fraction(h) ** 2 for h in scales]
    best = [0] * len(scales)
    for center in centers:
        c, den = _center_parts(center)
        reach = Fraction(max(scales)) * den
        fast = den == 1 and _is_small(c)
        d2s = []
        for v in rest if fast else vecs:
            if den != 1:
                v = SymVec((v.base[0] * den, v.base[1] * den),
                           tuple((e, (x * den, y * den)) for e, (x, y) in v.terms))
            d = sym_diff(v, c)
            coords = []
            for axis in (0, 1):
                b, terms, B = scalar_parts(d, p, axis)
                if not scalar_abs_lt(b, terms, B, reach):
                    break
                coords.append(scalar_materialize(b, terms, B))
            else:
                d2s.append(coords[0] ** 2 + coords[1] ** 2)
        d2s.sort()
        if fast:
            dx, dy = xs - c.base[0], ys - c.base[1]
            d2 = dx * dx + dy * dy
        for i, h2 in enumerate(h2s):
            # an integer is below den^2 h^2 exactly when it is below its ceiling
            bound = -(-h2.numerator * den * den // h2.denominator)
            n = bisect_left(d2s, bound)
            if fast:
                n += int(np.count_nonzero(d2 < min(bound, _I64_MAX)))
            best[i] = max(best[i], n)
    return best


def _differential_cases():
    """(id, points, centers, scales, params, brute): brute says whether the
    brute-force oracle can afford to expand every coordinate."""
    rng = random.Random(20231017)
    canon = list(enumerate_spectrum(CanonicalMapping(), P12, level=5).points)
    yield ("canonical", canon, [(0, 0)] + rng.sample(canon, 6),
           geometric_scales(P12, 1, 6), P12, True)
    for t in (0.15, 0.3):
        spec = build_intermediate_spectrum(t, P48)
        f_part, kicked = spec.split(spec.prefix(60))
        centers = [(0, 0), (Fraction(1, 3), Fraction(-7, 2))]
        centers += rng.sample(kicked, 5) + rng.sample(f_part, 2)
        yield (f"kicked t={t}", kicked, centers, geometric_scales(P48, 1, 6), P48, True)
        # coincident points, and scales up to 24^14 > 2^63
        union = f_part + kicked + f_part[:3] + kicked[:3]
        yield (f"union t={t}", union, centers, geometric_scales(P48, 1, 14), P48, True)
    edge = [0, 2**30 - 1, 2**30, 2**30 + 1]
    coords = sorted({s * e for e in edge for s in (1, -1)})
    border = [(x, y) for x in coords for y in coords]
    centers = [(0, 0), (2**30 - 1, 1 - 2**30), (-(2**30), 2**30), (2**30 + 1, 0),
               (Fraction(2**31 - 1, 2), Fraction(-1, 2))]
    yield ("int64 border", border, centers,
           [1, 2**30 - 1, 2**30, 2**31 - 1, 2**31, 2**31 + 1, 2**32, 2**33 + 0.5], P11, True)
    # centers just off the int64 path, next to int64-counted points
    centers = [(2**30, 0), (2**30 + 1, 2**30 - 1), (-(2**30), 1 - 2**30), (2**31, 2**31)]
    yield ("int64 border, small scales", border, centers, [1, 2, 3, 5], P11, True)
    small = [(rng.randint(-1000, 1000), rng.randint(-1000, 1000)) for _ in range(200)]
    mixed = small + small[:20] + [(10**400, -3), (10**400, -3)]
    centers = [(0, 0), small[0], (10**400, 0), (Fraction(1, 2), Fraction(1, 3)), (0.25, -0.75)]
    yield ("mixed", mixed, centers,
           [0.5, Fraction(7, 3), 2.5, 100.25, 1000, 2**70], P11, True)

    # +-k share their kick exponent, so lambda(k) - lambda(-k) keeps it while
    # the differences within a sign branch cancel it
    offsets = TableOffsets({s * k: 60 + 7 * k for k in range(1, 14) for s in (1, -1)})
    pm = list(enumerate_spectrum(KickedMapping(offsets, kick=(1, -2)), P48,
                                 index_bound=13).points)
    kick_e = pm[1].value.terms[-1][0]
    near = [SymVec(base=(x, y), terms=((kick_e, (1, -2)),)) for x, y in ((0, 0), (5, -3), (-24, 7))]
    yield ("same kick exponent", pm + near, [(0, 0)] + pm[1:5] + near[:2],
           geometric_scales(P48, 1, 6), P48, True)

    # the top term all but cancels the base: the value is (1, 1) or nearby
    cancel = []
    for e in (65, 130, 300):
        bx, by = P48.base_x**e, P48.base_y**e
        cancel += [SymVec(base=(1 - bx, 1 - by), terms=((e, (1, 1)),)),
                   SymVec(base=(bx - 3, 2 - by), terms=((e, (-1, 1)),)),
                   SymVec(base=(1 - bx, 5), terms=((e, (1, 0)), (e + 1, (0, 1))))]
        # no single lower piece reaches the top term, but together they cancel it
        bx, by = bx // P48.base_x, by // P48.base_y
        cancel.append(SymVec(base=(1 - bx, 2 - by),
                             terms=((e - 1, (1 - P48.base_x, 1 - P48.base_y)), (e, (1, 1)))))
    centers = [(0, 0), (1, 1), cancel[1], (Fraction(1, 2), 3)]
    yield ("cancelling top term", cancel + [(1, 1), (4, -2)], centers,
           [1, 2, 3, 8, 24**66], P48, True)

    # scales far beyond the float range, against kicked points
    spec = build_intermediate_spectrum(0.15, P48)
    _, kicked = spec.split(spec.prefix(60))
    centers = [(0, 0)] + rng.sample(kicked, 4)
    yield ("huge scales", kicked, centers, [24, 24**10, 6**400, 2**2000], P48, True)

    # rational centers next to symbolic points, and a concrete 10^400 center
    top = kicked[-1].value
    x, y = top.materialize(P48)
    centers = [(Fraction(x, 2), Fraction(y, 3)), (Fraction(2 * x + 1, 2), Fraction(y)),
               (Fraction(-1, 3), Fraction(24**70 + 1, 7)), (x, y), (x + 5, y - 2),
               (10**400, 0), (0, -(10**400)), (10**400, 10**400)]
    yield ("rational and concrete centers", kicked, centers,
           geometric_scales(P48, 1, 8), P48, True)

    # the whole kicked t=0.15 part the benchmark estimates: 600k-bit coordinates
    _, kicked = spec.split(spec.prefix(364))
    centers = [(0, 0), (10**400, 1)] + rng.sample(kicked, 8)
    yield ("kicked t=0.15 |k|<=364", kicked, centers, geometric_scales(P48, 1, 6), P48, False)


@pytest.mark.parametrize("case", list(_differential_cases()), ids=lambda c: c[0])
def test_counts_match_brute_force_oracle(case):
    _, points, centers, scales, p, brute = case
    if brute:
        want = [_brute_counts(points, c, scales, p) for c in centers]
    else:  # the unscreened kernel, checked against brute force on the cases above
        _, vecs, _ = resolve_points(points, p)
        want = [_unscreened_max_ball_counts(vecs, [c], scales, p) for c in centers]
    for c, row in zip(centers, want):
        assert [count_in_ball(points, c, h, p) for h in scales] == row
    est = beurling_dim_estimate(points, scales, p, centers=centers)
    assert list(est.counts) == [max(col) for col in zip(*want)]


@pytest.mark.parametrize("case", list(_differential_cases()), ids=lambda c: c[0])
def test_counts_match_unscreened_kernel(case):
    _, points, centers, scales, p, _ = case
    _, vecs, _ = resolve_points(points, p)
    counts, stats = _max_ball_counts(vecs, centers, scales, p)
    assert counts == _unscreened_max_ball_counts(vecs, centers, scales, p)
    paths = stats["pairs_int64"] + stats["pairs_screened"] + stats["pairs_exact"]
    assert paths == len(vecs) * len(centers)


def test_screening_skips_pairs_and_reports_them():
    spec = build_intermediate_spectrum(0.15, P48)
    f_part, kicked = spec.split(spec.prefix(121))
    scales = geometric_scales(P48, 1, 6)
    est = beurling_dim_estimate(kicked, scales, P48, centers="sample:8")
    st_ = est.stats
    assert st_["pairs_screened"] > 10 * st_["pairs_exact"]
    assert st_["max_exponent"] == max(pt.kick_position - 1 for pt in kicked)
    # stats stay outside == and hash
    twin = DimensionEstimate(est.scales, est.counts, est.slope, est.fit_residual,
                             est.centers_used)
    assert twin == est and hash(twin) == hash(est)
    flat = beurling_dim_estimate(f_part, scales, P48, centers="sample:8")
    assert flat.stats == {"pairs_int64": len(f_part) * 9, "pairs_screened": 0,
                          "pairs_exact": 0, "max_exponent": 0}


def test_rational_centers_are_screened():
    case = next(c for c in _differential_cases() if c[0] == "rational and concrete centers")
    _, points, centers, scales, p, _ = case
    _, vecs, _ = resolve_points(points, p)
    rational = [c for c in centers if _center_parts(c)[1] != 1]
    assert len(rational) == 2
    counts, stats = _max_ball_counts(vecs, rational, scales, p)
    assert counts == _unscreened_max_ball_counts(vecs, rational, scales, p)
    assert stats["pairs_screened"] > 10 * stats["pairs_exact"]
    assert stats["pairs_screened"] + stats["pairs_exact"] == 2 * len(vecs)


def _symbolic_points(draw, p):
    """A few SymVecs sharing exponents 65..400, with mixed signs and bases that
    sometimes cancel their terms down to a small value."""
    pool = draw(st.lists(st.integers(65, 400), min_size=1, max_size=3, unique=True))
    coef = st.integers(-3, 3)
    out = []
    for _ in range(draw(st.integers(1, 7))):
        exps = draw(st.lists(st.sampled_from(pool), max_size=2, unique=True))
        terms = []
        for e in sorted(exps):
            v = (draw(coef), draw(coef))
            if v != (0, 0):
                terms.append((e, v))
        base = []
        for axis, B in enumerate((p.base_x, p.base_y)):
            full = sum(c[axis] * B**e for e, c in terms)
            kind = draw(st.sampled_from(("free", "cancel", "cancel top")))
            if kind == "free":
                base.append(draw(st.integers(-(10**6), 10**6)))
            else:
                part = full if kind == "cancel" else (terms[-1][1][axis] * B ** terms[-1][0]
                                                      if terms else 0)
                base.append(draw(st.integers(-40, 40)) - part)
        out.append(SymVec(base=tuple(base), terms=tuple(terms)))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_screened_counts_property(data):
    p = data.draw(st.sampled_from([P12, P48]))
    vecs = _symbolic_points(data.draw, p)
    vecs += data.draw(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                               max_size=3))
    _, vecs, _ = resolve_points(vecs, p)
    centers = [(0, 0)] + data.draw(st.lists(st.sampled_from(vecs), max_size=3))
    centers += data.draw(st.lists(st.sampled_from([
        (Fraction(1, 2), Fraction(-1, 3)), (10**200, 0), (-40, 40), (2**40, -(2**40)),
    ]), max_size=2))
    js = data.draw(st.lists(st.integers(0, 420), min_size=4, max_size=4, unique=True))
    scales = sorted(p.base_y**j for j in js)
    counts, stats = _max_ball_counts(vecs, centers, scales, p)
    assert counts == _unscreened_max_ball_counts(vecs, centers, scales, p)
    assert counts == [max(col) for col in zip(*(_brute_counts(vecs, c, scales, p)
                                                for c in centers))]
    paths = stats["pairs_int64"] + stats["pairs_screened"] + stats["pairs_exact"]
    assert paths == len(vecs) * len(centers)



# The ball-counting kernel before slab counting, kept as the oracle for it: it
# counts every int64-path point against every int64 center, and reads a
# canonical prefix as the list of SymVecs built from its columns.
_OFF = (_I64_COORD, _I64_COORD)
_SMALL_LOG2 = 30.0


def _oracle_as_symvecs(points, p=None):
    if isinstance(points, SpectrumPrefix):
        pts = points.points  # a canonical prefix's values come from its columns
        # what a canonical prefix's values() returned; kicked prefixes were tuples
        if isinstance(pts, _ColumnPoints) and pts.exps is None:
            vecs = list(map(SymVec, zip(pts.xs.tolist(), pts.ys.tolist())))
        else:
            vecs = [pt.value for pt in pts]
        return vecs, points.params
    out = []
    for item in points:
        if isinstance(item, SpectrumPoint):
            out.append(item.value)
        elif isinstance(item, SymVec):
            out.append(item)
        else:
            x, y = item
            out.append(sym((int(x), int(y))))
    return out, p


def _oracle_small_columns(vecs):
    def columns(bases):
        flat = itertools.chain.from_iterable(bases)
        return np.fromiter(flat, dtype=np.int64, count=2 * len(vecs)).reshape(-1, 2).T

    try:
        xs, ys = columns(v.base if not v.terms else _OFF for v in vecs)
    except OverflowError:  # a concrete coordinate beyond int64
        xs, ys = columns(v.base if _is_small(v) else _OFF for v in vecs)
    small = (xs > -_I64_COORD) & (xs < _I64_COORD) & (ys > -_I64_COORD) & (ys < _I64_COORD)
    return xs[small], ys[small], small


def _oracle_log2_bounds(v, p):
    return [scalar_log2_bounds(*scalar_parts(v, p, axis)) for axis in (0, 1)]


def _oracle_max_ball_counts(vecs, centers, scales, p):
    n = len(vecs)
    xs, ys, small = _oracle_small_columns(vecs)
    off = np.flatnonzero(~small)
    h2s = [Fraction(h) ** 2 for h in scales]
    reach_log2 = float(math.ceil(Fraction(max(scales))).bit_length())
    lo = hi = None
    center_parts = [_center_parts(center) for center in centers]
    maybe_symbolic = [vecs[i] for i in off] + [c for c, _ in center_parts]
    stats = {
        "pairs_int64": 0,
        "pairs_screened": 0,
        "pairs_exact": 0,
        "max_exponent": max((e for v in maybe_symbolic for e, _ in v.terms), default=0),
    }
    best = [0] * len(scales)
    for c, den in center_parts:
        reach = Fraction(max(scales)) * den
        fast = den == 1 and _is_small(c)
        if fast and not off.size:
            rest = []
        else:
            if lo is None:
                bnds = np.array([_oracle_log2_bounds(vecs[i], p) for i in off]).reshape(-1, 2, 2)
                lo, hi = bnds[:, :, 0], bnds[:, :, 1]
            c_lo, c_hi = np.array(_oracle_log2_bounds(c, p)).T
            up = (den - 1).bit_length()
            v_lo, v_hi, r = lo + (den.bit_length() - 1), hi + up, reach_log2 + up
            far = ((v_lo >= np.maximum(c_hi, r) + 1) | (c_lo >= np.maximum(v_hi, r) + 1)).any(1)
            rest = [vecs[i] for i in off[~far]]
            if not fast and not (c_lo >= max(_SMALL_LOG2 + up, r) + 1).any():
                rest += [vecs[i] for i in np.flatnonzero(small)]
        if fast:
            stats["pairs_int64"] += len(xs)
        stats["pairs_exact"] += len(rest)
        stats["pairs_screened"] += n - len(rest) - (len(xs) if fast else 0)
        d2s = []
        for v in rest:
            if den != 1:
                v = SymVec((v.base[0] * den, v.base[1] * den),
                           tuple((e, (x * den, y * den)) for e, (x, y) in v.terms))
            d = sym_diff(v, c)
            coords = []
            for axis in (0, 1):
                b, terms, B = scalar_parts(d, p, axis)
                if not scalar_abs_lt(b, terms, B, reach):
                    break
                coords.append(scalar_materialize(b, terms, B))
            else:
                d2s.append(coords[0] ** 2 + coords[1] ** 2)
        d2s.sort()
        if fast:
            dx, dy = xs - c.base[0], ys - c.base[1]
            d2 = dx * dx + dy * dy
        for i, h2 in enumerate(h2s):
            bound = -(-h2.numerator * den * den // h2.denominator)
            n_in = bisect_left(d2s, bound)
            if fast:
                n_in += int(np.count_nonzero(d2 < min(bound, _I64_MAX)))
            best[i] = max(best[i], n_in)
    return best, stats


def _moved_to_int64(vecs, centers, stats):
    """The oracle kernels' ``stats`` with the pairs that now count in int64: a
    concrete point with coordinates below 2^30 against a concrete center
    num/den, den < 2^31, with den |x| + |nx| < 2^31 and den |y| + |ny| < 2^31.
    The oracles settle those pairs exactly unless the center is an integer
    one below 2^30, whose pairs were int64 already."""
    small = [v.base for v in vecs if _is_small(v)]
    moved = 0
    for center in centers:
        c, den = _center_parts(center)
        if c.terms or den >= 2**31 or (den == 1 and _is_small(c)):
            continue
        nx, ny = map(abs, c.base)
        moved += sum(den * abs(x) + nx < 2**31 and den * abs(y) + ny < 2**31 for x, y in small)
    return {**stats, "pairs_int64": stats["pairs_int64"] + moved,
            "pairs_exact": stats["pairs_exact"] - moved}


def _moved_off_exact(vecs, centers, scales, p, stats):
    """The oracle kernels' ``stats`` with the pairs that a shared kick term now
    settles: a point and a center with the same single term A^e w, which the
    magnitude screen leaves to the exact test.  Their difference is that of
    their bases: below 2^31 and the largest scale on both axes it counts in
    int64, and at the largest scale or beyond on some axis it is screened."""
    reach = Fraction(max(scales))
    r = float(math.ceil(reach).bit_length())
    int64 = screened = 0
    for center in centers:
        c, _ = _center_parts(center)
        if len(c.terms) != 1:
            continue
        c_lo, c_hi = np.array(_oracle_log2_bounds(c, p)).T
        for v in vecs:
            if v.terms != c.terms:
                continue
            v_lo, v_hi = np.array(_oracle_log2_bounds(v, p)).T
            if ((v_lo >= np.maximum(c_hi, r) + 1) | (c_lo >= np.maximum(v_hi, r) + 1)).any():
                continue
            d = max(abs(v.base[0] - c.base[0]), abs(v.base[1] - c.base[1]))
            int64 += d < min(reach, 2**31)
            screened += d >= reach
    return {**stats, "pairs_int64": stats["pairs_int64"] + int64,
            "pairs_screened": stats["pairs_screened"] + screened,
            "pairs_exact": stats["pairs_exact"] - int64 - screened}


P18 = MatrixParams(1, 8)


def _slab_cases():
    """(id, points, centers, scales, params); points may be a canonical prefix."""
    rng = random.Random(20261018)
    for size, span in ((60, 12), (300, 1000), (400, 2**29), (300, 2**31)):
        pts = [(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(size)]
        pts += pts[:15]  # coincident points
        centers = [(0, 0), (span // 3, -span // 2)] + rng.sample(pts, 5)
        scales = sorted(rng.sample(range(1, 3 * span), 5))
        yield (f"random span {span}", pts, centers, scales, P11)
    # the slab edges: |dy| = h - 1, h, ceil(h), ceil(h) + 1 for integer and
    # fractional h, points at distance exactly h, and the widest slab
    cx, cy = 3, -5
    offsets = [(dx, dy) for dx in (-4, -1, 0, 1, 3) for dy in range(-12, 13)]
    offsets += [(3 * s, 4 * t) for s in (1, -1) for t in (1, -1)]  # distance 5
    offsets += [(4 * s, 3 * t) for s in (1, -1) for t in (1, -1)]
    edge = [(cx + dx, cy + dy) for dx, dy in offsets]
    edge += edge[::7]
    centers = [(cx, cy), (0, 0), (cx, -cy), (cx + 1, cy - 10), (Fraction(7, 2), -5),
               (Fraction(6), Fraction(-10, 2)), (Fraction(7, 2), Fraction(-9, 2)),
               (cx, Fraction(-16, 3)), (Fraction(-1, 7), Fraction(-29, 7))]
    yield ("slab edges", edge, centers, [Fraction(9, 2), 5, 7, 7.5, 8, 10], P11)
    yield ("slab edges, reach 11", edge, centers, [1, 3, 5.5, 11], P11)
    # coordinates at +-(2^30 - 1) and +-2^30, slabs wider than any |dy|
    coords = sorted({s * e for e in (0, 1, 2**30 - 2, 2**30 - 1, 2**30) for s in (1, -1)})
    border = [(x, y) for x in coords for y in coords] + [(2**30 - 1, 2**30 - 1)] * 3
    centers = [(0, 0), (2**30 - 1, 1 - 2**30), (1 - 2**30, 0), (2**30, 0),
               (-(2**30), 2**30), (Fraction(2**31 - 1, 2), 0)]
    yield ("int64 border", border, centers, [1, 2, 2**30 - 1, 2**30, 2**31, 2**31 + 1, 2**33],
           P11)
    yield ("int64 border, huge scales", border, centers, [3, 2**62, 2**70, 6**400], P11)
    # partly off the int64 path: |y| up to about 3.2 10^9
    pre = enumerate_spectrum(CanonicalMapping(), P18, level=7)
    centers = [(0, 0), pre.point(5), pre.point(-1000), pre.point(1093), (Fraction(1, 3), 7),
               (2**31, -(2**31)), (10**12, 0)]
    yield ("canonical (1,8) L7", pre, centers, geometric_scales(P18, 1, 7), P18)
    listed = list(enumerate_spectrum(CanonicalMapping(), P18, level=7).points)
    yield ("canonical (1,8) L7 list", listed, centers, geometric_scales(P18, 2, 6), P18)
    # both kicked families, with symbolic and rational centers
    for t in (0.15, 0.3):
        spec = build_intermediate_spectrum(t, P48)
        prefix = spec.prefix(364)
        f_part, kicked = spec.split(prefix)
        centers = [(0, 0), (Fraction(1, 3), Fraction(-7, 2))]
        centers += rng.sample(kicked, 3) + rng.sample(f_part, 3)
        yield (f"kicked family t={t}", prefix, centers, geometric_scales(P48, 1, 6), P48)
    # unsorted, repeated and Fraction scales
    pre = enumerate_spectrum(CanonicalMapping(), P12, level=6)
    centers = [(0, 0), pre.point(40), pre.point(-300), (Fraction(5, 2), Fraction(-1, 3))]
    scales = [216, 6, Fraction(73, 2), 216, 0.75, 1296, Fraction(1, 3), 2**40]
    yield ("unsorted repeated scales", pre, centers, scales, P12)


@pytest.mark.parametrize("case", list(_slab_cases()), ids=lambda c: c[0])
def test_slab_kernel_matches_oracle(case):
    _, points, centers, scales, p = case
    old_vecs, _ = _oracle_as_symvecs(points, p)
    counts, stats = _oracle_max_ball_counts(old_vecs, centers, scales, p)
    stats = _moved_to_int64(old_vecs, centers, stats)
    want = counts, _moved_off_exact(old_vecs, centers, scales, p, stats)
    _, vecs, _ = resolve_points(points, p)
    assert _max_ball_counts(vecs, centers, scales, p) == want  # counts and stats
    assert _max_ball_counts(old_vecs, centers, scales, p) == want
    # a canonical prefix builds no point (the kicked cases were split, which reads them)
    if isinstance(points, SpectrumPrefix) and points.points.exps is None:
        assert points.points._points is None


# (1,8) L7 runs up to 24^6: its points past 2^30 are screened, not expanded,
# against the sampled centers (the slab kernel test expands them)
@pytest.mark.parametrize("p, level, top", [(P12, 6, 6), (P12, 9, 9), (P18, 7, 6),
                                           (MatrixParams(1, 10**7), 3, 4)],
                         ids=["(1,2) L6", "(1,2) L9", "(1,8) L7", "(1,10^7) L3"])
def test_prefix_estimate_equals_list_estimate(p, level, top):
    pre = enumerate_spectrum(CanonicalMapping(), p, level=level)
    n = len(pre)
    scales = geometric_scales(p, 1, top)
    samples = ["sample:5", "sample:12"]
    if n <= 729:  # every point a center
        samples += [f"sample:{n - 1}", f"sample:{n}", f"sample:{n + 4}", "points"]
    # an explicit list and a rational center; a seed picks only sampled centers
    runs = [(c, seed) for c in samples for seed in (0, 11)] + [
        ("origin", 0), ([(0, 0), pre.point(1), pre.point(-7)], 0), ([(Fraction(1, 2), -3)], 0)]
    got = [beurling_dim_estimate(pre, scales, centers=c, seed=s) for c, s in runs]
    balls = [count_in_ball(pre, c, h) for c in ((0, 0), pre.point(-4)) for h in scales]
    balls.append(count_in_ball(pre, (0.5, 1.25), scales[2]))
    assert pre.points._points is None  # no point was built
    pts = list(pre.points)
    for (centers, seed), est in zip(runs, got):
        want = beurling_dim_estimate(pts, scales, p, centers=centers, seed=seed)
        assert est == want
        assert est.stats == want.stats
    want = [count_in_ball(pts, c, h, p) for c in ((0, 0), pts[n // 2 - 4]) for h in scales]
    assert balls == want + [count_in_ball(pts, (0.5, 1.25), scales[2], p)]


def test_store_sequences_count_as_their_copies(store_sequences):
    """A list or tuple of a column store's own points, and a ``split`` part,
    are read from the store's columns, with the estimates, ball counts and
    kernel stats of the same points as fresh copies; look-alikes are read
    item by item."""
    for name, points, copies, p, recognized in store_sequences:
        values = point_values(points)
        assert isinstance(values, ColumnValues) == recognized, name
        assert not isinstance(point_values(copies), ColumnValues), name
        assert list(values) == point_values(copies), name
        scales = geometric_scales(p, 1, 4 if p.q2 > 8 else 5)
        centers = [(0, 0), (Fraction(1, 2), -3), points[len(points) // 3], points[-1]]
        for c, seed in (("sample:6", 1), (centers, 0)):
            est = beurling_dim_estimate(points, scales, p, centers=c, seed=seed)
            want = beurling_dim_estimate(copies, scales, p, centers=c, seed=seed)
            assert est == want and est.stats == want.stats, name
        balls = [count_in_ball(points, c, h, p) for c in centers for h in scales[:2]]
        assert balls == [count_in_ball(copies, c, h, p) for c in centers for h in scales[:2]]
        got = _max_ball_counts(values, centers, scales, p)
        assert got == _max_ball_counts(point_values(copies), centers, scales, p), name


def test_a_list_of_a_prefix_points_reads_the_prefix_columns():
    pre = enumerate_spectrum(CanonicalMapping(), P12, level=6)
    pts = list(pre.points)
    for seq in (pts, tuple(pts)):
        values = point_values(seq)
        assert values.xs is pre.points.xs and values.ys is pre.points.ys
    kicked = build_intermediate_spectrum(0.15, P48).prefix(121)
    values = point_values(list(kicked.points))
    assert values.xs is kicked.points.xs and values.terms is not None
    assert list(values) == [pt.value for pt in kicked.points]
    # a part holds only its own rows
    f_part, part = build_intermediate_spectrum(0.3, P48).split(kicked)
    assert len(point_values(part).xs) == len(part)


def test_store_registry_entry_goes_with_its_store():
    pre = enumerate_spectrum(CanonicalMapping(), P12, level=4)
    store = pre.points
    key = id(store)
    assert key not in treemap._BUILT  # no point built yet
    pts = list(store)
    assert treemap._BUILT[key] is store
    del pre, store
    gc.collect()
    assert key not in treemap._BUILT
    assert not isinstance(point_values(pts), ColumnValues)


def test_import_leaves_interpreter_state_alone():
    code = """if True:
        import decimal, gc, sys, warnings
        import numpy as np

        def state():
            return (gc.isenabled(), gc.get_threshold(), list(gc.callbacks),
                    sys.getrecursionlimit(), sys.get_int_max_str_digits(),
                    sys.getswitchinterval(), repr(decimal.getcontext()),
                    list(warnings.filters), np.geterr(), np.get_printoptions())

        before = state()
        import sierpspec, sierpspec.cli
        assert state() == before, (before, state())
    """
    root = str(Path(dimension.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_beurling_estimate_canonical():
    pre = enumerate_spectrum(CanonicalMapping(), P12, level=11)
    est = beurling_dim_estimate(pre, geometric_scales(P12, 4, 10), centers="sample:32")
    assert abs(est.slope - math.log(3) / math.log(6)) < 0.08
    pre11 = enumerate_spectrum(CanonicalMapping(), P11, level=11)
    est11 = beurling_dim_estimate(pre11, geometric_scales(P11, 4, 10), centers="sample:32")
    assert abs(est11.slope - 1.0) < 0.08


def _oracle_estimate(points, scales, p, centers, seed=0):
    """``beurling_dim_estimate`` as it read its points before ``lattice.value_columns``."""
    vecs, p = _oracle_as_symvecs(points, p)
    scales = sorted(scales)
    center_list = _resolve_centers(vecs, centers, seed)
    counts, stats = _oracle_max_ball_counts(vecs, center_list, scales, p)
    xs = np.array([math.log(h) for h in scales])
    ys = np.log(np.array(counts, dtype=float))
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return DimensionEstimate(tuple(scales), tuple(counts), float(slope), resid,
                             len(center_list), stats)


def test_value_columns_leave_ball_counts_unchanged(value_column_cases):
    """Ball counts and estimates, stats included, as before ``lattice.value_columns``;
    on a canonical or kicked prefix no point is built."""
    for name, points, p, _ in value_column_cases:
        pts = getattr(points, "points", points)
        scales = geometric_scales(p, 1, 6)
        centers = [(0, 0), pts[len(pts) // 3].value, (Fraction(1, 2), -3), pts[-1]]
        runs = [("sample:8", 3), (centers, 0)]
        stored = isinstance(pts, _ColumnPoints)  # canonical and kicked prefixes
        builds = mock.patch.object(_ColumnPoints, "_tuple", side_effect=AssertionError)
        with builds if stored else contextlib.nullcontext():
            got = [beurling_dim_estimate(points, scales, p, centers=c, seed=s) for c, s in runs]
            balls = [count_in_ball(points, c, h, p) for c in centers for h in scales[:3]]
        want = [_oracle_estimate(points, scales, p, c, s) for c, s in runs]
        vecs, _ = _oracle_as_symvecs(points, p)
        assert balls == [_oracle_max_ball_counts(vecs, [c], [h], p)[0][0]
                         for c in centers for h in scales[:3]], name
        for est, ref, (c, s) in zip(got, want, runs):
            center_list = _resolve_centers(vecs, c, s)
            stats = _moved_to_int64(vecs, center_list, ref.stats)
            stats = _moved_off_exact(vecs, center_list, scales, p, stats)
            assert est == ref and est.stats == stats, name


def test_canonical_prefix_counts_without_building_its_points():
    pre = enumerate_spectrum(CanonicalMapping(), P12, level=7)
    scales = geometric_scales(P12, 2, 6)
    with mock.patch.object(_ColumnPoints, "_tuple", side_effect=AssertionError):
        est = beurling_dim_estimate(pre, scales, centers="sample:16", seed=3)
        counts = [count_in_ball(pre, pre.point(40), h) for h in scales]
    pts = list(pre.points)
    assert est == beurling_dim_estimate(pts, scales, P12, centers="sample:16", seed=3)
    assert counts == [count_in_ball(pts, pts[40 + pre.index_bound], h, P12) for h in scales]


# The ball-counting kernel before the int64 balls of all centers were counted
# in one pass, kept verbatim as the oracle for that pass: it squares every row
# of each center's slabs, one center at a time.
def _per_center_max_ball_counts(vecs, centers, scales, p) -> tuple[list[int], dict]:
    """Per scale h, the most points at distance < h from any one of the centers.

    For a center num/den, each point's den^2 |v - center|^2 is worked out once,
    exactly, and the count at h is the number of these below den^2 h^2.  A
    pair takes one of three paths, tallied in the returned stats:

    * int64: a concrete point with coordinates below 2^30 and a concrete
      center whose den x - nx and den y - ny stay below 2^31 at that point
      (``_int64_limits``), counted in numpy.  The columns are sorted by y
      once per call, and per center and scale only the slab of rows that
      the ball can reach is compared: |y - floor(cy)| < ceil(h), one more
      for den > 1;
    * screened: any other pair whose magnitude bounds (``scalar_log2_bounds``
      from the columns, ``lattice.log2_bound_columns``, shifted by log2 den
      for den * v) put den * v and num more than den times the largest scale
      apart on some axis.  A bound only drops a pair that the exact test
      rejects too, so no float decides a count;
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
    # slab radii ceil(|h|), at least 1 so that no slab is an inverted row range;
    # |y - floor(cy)| < 2^30 + 2^31 for an int64-counted point and a center
    # within _int64_limits, so wider slabs are all points
    radii = np.array([min(max(math.ceil(abs(Fraction(h))), 1), 2**32) for h in scales],
                     dtype=np.int64)
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
    best = [0] * len(scales)
    for ci, (c, den) in enumerate(center_parts):
        reach = Fraction(max(scales)) * den
        limits = _int64_limits(c, den) if rows.size else None
        ok, n_int64, left = None, 0, rows  # left: int64 rows not counted in int64
        if limits is not None:
            if order is None:
                order = rows[np.argsort(ys[rows], kind="stable")]
                xs_s, ys_s = (col[order].astype(np.int64, copy=False) for col in (xs, ys))
            mx, my = limits
            if min(mx, my) < _I64_COORD - 1:  # some int64 rows are too far from this center
                ok = (np.abs(xs_s) <= mx) & (np.abs(ys_s) <= my)
                left = order[~ok]
            else:
                left = rows[:0]
            n_int64 = len(rows) - len(left)
        if not off.size and not left.size:
            rest = []
        else:
            if c_lo is None:
                c_lo, c_hi = log2_bound_columns(*value_columns([c for c, _ in center_parts]), p)
                # every point with a term is off the int64 path: renumber its rows
                off_terms = (None if terms is None else
                             KickTerms(np.searchsorted(off, terms.index), *terms[1:]))
                lo, hi = log2_bound_columns(xs[off], ys[off], off_terms, p)
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
            far = ((v_lo[0] >= c_far[0]) | (v_lo[1] >= c_far[1])
                   | (c_lo[ci, 0] >= v_hi[0]) | (c_lo[ci, 1] >= v_hi[1]))
            rest = [point(i) for i in off[~far].tolist()]
            # the other int64 rows, |den v| < 2^(30 + up), face this center exactly
            if left.size and not (c_lo[ci] >= max(_SMALL_LOG2 + up, r) + 1).any():
                rest += [point(i) for i in left.tolist()]
        stats["pairs_int64"] += n_int64
        stats["pairs_exact"] += len(rest)
        stats["pairs_screened"] += n - len(rest) - n_int64
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
        if n_int64:
            cx, cy = c.base
            # slab i holds the rows with |y - floor(cy)| < radii[i] (+ 1 for den > 1),
            # sorted rows [los[i], his[i])
            cy_floor, wide = cy // den, radii + (den != 1)
            los = np.searchsorted(ys_s, cy_floor - wide, side="right").tolist()
            his = np.searchsorted(ys_s, cy_floor + wide, side="left").tolist()
            start, stop = min(los), max(his)
            if den == 1:
                dx, dy = xs_s[start:stop] - cx, ys_s[start:stop] - cy
            else:
                dx, dy = xs_s[start:stop] * den - cx, ys_s[start:stop] * den - cy
            d2 = dx * dx + dy * dy
            if ok is not None:  # the other rows may have wrapped around
                d2[~ok[start:stop]] = _I64_MAX
        for i, h2 in enumerate(h2s):
            # an integer is below den^2 h^2 exactly when it is below its ceiling
            bound = -(-h2.numerator * den * den // h2.denominator)
            n_in = bisect_left(d2s, bound)
            if n_int64:
                slab = d2[los[i] - start:his[i] - start]
                n_in += int(np.count_nonzero(slab < min(bound, _I64_MAX)))
            best[i] = max(best[i], n_in)
    return best, stats


def _rim_cases():
    """(id, points, centers, scales, params) for the one-pass int64 count."""
    rng = random.Random(20261020)
    # every lattice point of a box: rows at d2 = bound - 1 and at bound, and
    # rows on both sides of each inner range and slab edge
    cx, cy = 3, -5
    box = [(x, y) for x in range(cx - 12, cx + 13) for y in range(cy - 17, cy + 18)]
    centers = [(cx, cy), (0, 0), (cx + 10, cy - 12), (Fraction(7, 2), Fraction(-9, 2)),
               (Fraction(1, 3), Fraction(-7, 3)), (Fraction(-20, 3), Fraction(5, 7))]
    yield ("d2 at bound - 1 and bound", box, centers,
           [1, 3, 5, Fraction(21, 2), 9, 13, 14, 15, 16, 17, 2**40], P11)
    # X = 0: the points and the centers on one vertical line
    line = [(-7, y) for y in range(-40, 41)] + [(-7, 3)] * 4
    centers = [(-7, 0), (-7, 40), (-7, Fraction(7, 2)), (Fraction(-21, 3), Fraction(1, 3))]
    yield ("one vertical line", line, centers, [1, 2, 5, 9, 40, 81, 2**40], P11)
    # an x-spread above every scale: no inner range anywhere
    spread = [(s * 2**29, rng.randint(-5000, 5000)) for s in (1, -1) for _ in range(150)]
    spread += [(rng.randint(-5000, 5000), rng.randint(-5000, 5000)) for _ in range(100)]
    centers = [(0, 0), spread[3], spread[200], (Fraction(1, 2), Fraction(-3, 2))]
    yield ("x-spread above every scale", spread, centers, [1, 10, 100, 1000, 2**20], P11)
    # den > 1 with ny not a multiple of den, and a center whose limits exclude
    # rows: den x - nx passes 2^31 for |x| > (2^31 - 1 - |nx|) // den
    edge = 2**30 - 1
    wide = [(rng.randint(-edge, edge), rng.randint(-edge, edge)) for _ in range(200)]
    wide += [(x, y) for x in (-edge, 0, edge) for y in (-edge, 0, edge)]
    wide += [(rng.randint(-300, 300), rng.randint(-300, 300)) for _ in range(200)]
    centers = [(0, 0), (Fraction(1, 3), Fraction(-7, 3)), (Fraction(5, 2), Fraction(3, 2)),
               (2**30 + 5, -17), (-17, 2**30 + 5), (Fraction(2**31 - 9, 2), Fraction(1, 2)),
               (Fraction(1, 2**20), Fraction(-1, 3))]
    yield ("den > 1 and limited centers", wide, centers,
           [1, 7, Fraction(301, 2), 2**20, 2**29, 2**31, 2**40], P11)
    yield ("single point", [(5, -2)], [(0, 0), (5, -2), (Fraction(9, 2), -2)],
           [1, 2, 3, 2**40], P11)
    twice = [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(60)]
    yield ("coincident points", twice * 3, [(0, 0)] + twice[:4], [1, 4, 16, 64, 2**40], P11)


@pytest.mark.parametrize("case", list(_rim_cases()), ids=lambda c: c[0])
def test_one_pass_int64_counts_match_per_center_kernel(case):
    name, points, centers, scales, p = case
    _, vecs, _ = resolve_points(points, p)
    want = _per_center_max_ball_counts(vecs, centers, scales, p)
    assert _max_ball_counts(vecs, centers, scales, p) == want  # counts and stats
    for c in centers:  # every ball, not only the densest
        got = [_max_ball_counts(vecs, [c], [h], p) for h in scales]
        assert got == [_per_center_max_ball_counts(vecs, [c], [h], p) for h in scales]
    if name == "d2 at bound - 1 and bound":
        d2s = {(x - 3) ** 2 + (y + 5) ** 2 for x, y in points}
        assert {8, 9, 80, 81, 288, 289} <= d2s  # h = 3, 9, 17


def test_one_pass_int64_counts_on_canonical_prefixes():
    """Every point of canonical L7 a center, over several chunks of rims, and
    the benchmark's L11 estimate."""
    pre = enumerate_spectrum(CanonicalMapping(), P12, level=7)
    _, vecs, p = resolve_points(pre)
    centers = _resolve_centers(vecs, "points", 0)
    assert len(centers) == 2188
    scales = geometric_scales(P12, 1, 7)
    with mock.patch.object(np, "bincount", wraps=np.bincount) as tally:
        got = _max_ball_counts(vecs, centers, scales, p)
    assert tally.call_count > 1  # the rims took several chunks
    assert got == _per_center_max_ball_counts(vecs, centers, scales, p)
    # every center's own counts, not only the densest balls
    order = np.argsort(pre.points.ys, kind="stable")
    xs, ys = pre.points.xs[order], pre.points.ys[order]
    nx, ny = (np.array([c.base[axis] for c in centers]) for axis in (0, 1))
    ones, limit = np.ones_like(nx), np.full_like(nx, 2**30 - 1)
    bounds = np.array([[h * h for h in scales]] * len(centers))
    want = [[np.count_nonzero((xs - x) ** 2 + (ys - y) ** 2 < b) for b in row]
            for x, y, row in zip(nx, ny, bounds)]
    assert dimension._int64_ball_counts(xs, ys, nx, ny, ones, limit, limit, bounds,
                                        scales).tolist() == want
    pre = enumerate_spectrum(CanonicalMapping(), P12, level=11)
    _, vecs, p = resolve_points(pre)
    centers = _resolve_centers(vecs, "sample:32", 5)
    scales = geometric_scales(P12, 4, 10)
    assert (_max_ball_counts(vecs, centers, scales, p)
            == _per_center_max_ball_counts(vecs, centers, scales, p))


def test_shared_kick_term_pairs_leave_the_exact_test():
    """A point and a kicked center with the same single term differ by their
    bases: such a pair counts in int64 below 2^31 and the largest scale, is
    screened at the largest scale or beyond, and is exact in between."""
    e, w = 70, (1, -2)
    bases = [(0, 0), (3, 4), (-3, 4), (5, 0), (24, 7), (1000, 0), (2**31 + 3, 1),
             (-(2**35), 7), (2**41, 0)]
    kicked = [SymVec(b, ((e, w),)) for b in bases]
    others = [SymVec(b, ((e, (1, 2)),)) for b in bases[:3]]
    others += [SymVec(b, ((e + 1, w),)) for b in bases[:3]] + [SymVec((1, 1)), SymVec((4, 0))]
    vecs = kicked + others
    centers = kicked[:3] + [kicked[6], (0, 0)]
    for scales in ([1, 5, 25, 125], [1, 5, 25, 2**40]):
        for c in centers:  # a distance of 5 stays out of the ball of radius 5
            got, _ = _max_ball_counts(vecs, [c], scales, P48)
            assert got == _brute_counts(vecs, c, scales, P48)
        _, stats = _max_ball_counts(vecs, centers, scales, P48)
        _, old = _oracle_max_ball_counts(vecs, centers, scales, P48)
        want = _moved_off_exact(vecs, centers, scales, P48, _moved_to_int64(vecs, centers, old))
        assert stats == want and want["pairs_exact"] < old["pairs_exact"]


def test_beurling_estimate_guards():
    pre = enumerate_spectrum(CanonicalMapping(), P12, level=3)
    with pytest.raises(ValueError):
        beurling_dim_estimate(pre, [6, 36, 216])  # too few scales
    with pytest.raises(ValueError):
        beurling_dim_estimate(pre, [6, 6, 36, 216])
    with pytest.raises(ValueError):
        beurling_dim_estimate([], geometric_scales(P12, 1, 4), P12)


def test_estimate_monotone_and_stable_under_union():
    lvl4 = enumerate_spectrum(CanonicalMapping(), P12, level=4)
    lvl6 = enumerate_spectrum(CanonicalMapping(), P12, level=6)
    scales = geometric_scales(P12, 1, 4)
    small = beurling_dim_estimate(lvl4, scales, centers="origin")
    big = beurling_dim_estimate(lvl6, scales, centers="origin")
    assert small.slope <= big.slope + 0.02
    union = list(lvl4.points) + [
        pt for pt in lvl6.points if abs(pt.k) > lvl4.index_bound
    ]
    both = beurling_dim_estimate(union, scales, P12, centers="origin")
    assert both.slope >= max(small.slope, big.slope) - 0.02
    assert both.slope <= max(small.slope, big.slope) + 0.05


def test_formula_dim_1d():
    assert formula_dim_1d(6, (0, 1, 2), Periodic((1,))) == pytest.approx(
        math.log(3) / math.log(6)
    )
    assert formula_dim_1d(6, (0, 1, 2), Periodic((0,))) == 0.0
    alt = formula_dim_1d(6, (0, 1, 2), Periodic((1, 0)))
    assert alt == pytest.approx(0.5 * math.log(3) / math.log(6))
    with pytest.raises(ValueError):
        formula_dim_1d(6, (0, 5), Periodic((1,)))  # 5 outside [-3, 2]


def test_formula_dim_1d_oracle_agreement():
    # counting oracle on the generated one-dimensional set, embedded on the x-axis
    pat = Periodic((1, 0))
    depth = 12
    vals = {0}
    for j in range(1, depth + 1):
        if pat.active(j):
            vals = {v + 6 ** (j - 1) * d for v in vals for d in (0, 1, 2)}
    pts = [(v, 0) for v in vals]
    est = beurling_dim_estimate(
        pts, [6**j for j in range(1, depth + 1)], P12, centers="sample:16"
    )
    assert abs(est.slope - formula_dim_1d(6, (0, 1, 2), pat)) < 0.05


def test_formula_dim_2d():
    l_set = enumerate_digit_sets(P12).l_set
    full = formula_dim_2d(3, 6, l_set, Periodic((1,)))
    assert full == pytest.approx(math.log(3) / math.log(6))
    assert formula_dim_2d(3, 6, l_set, Periodic((0,))) == 0.0
    beat = formula_dim_2d(3, 6, l_set, Beatty(0.5))
    assert beat == pytest.approx(0.5 * math.log(3) / math.log(6))
    with pytest.raises(ValueError):
        formula_dim_2d(3, 6, [(0, 0), (1, 0)], Periodic((1,)))  # y-collision
    with pytest.raises(ValueError):
        formula_dim_2d(6, 3, l_set, Periodic((1,)))  # a > b


def test_formula_dim_2d_beatty_oracle():
    pat = Beatty(0.5)
    pts = pattern_lattice_points(P12, pat, depth=12)
    est = beurling_dim_estimate(pts, geometric_scales(P12, 1, 12), P12, centers="sample:16")
    ref = formula_dim_2d(3, 6, enumerate_digit_sets(P12).l_set, pat)
    assert abs(est.slope - ref) < 0.05


def test_explicit_pattern_consistency():
    ok = Explicit(predicate=lambda i: i % 3 == 0, claimed_frequency=1 / 3)
    assert formula_dim_1d(6, (0, 1, 2), ok) == pytest.approx(
        math.log(3) / math.log(6) / 3
    )
    bad = Explicit(predicate=lambda i: i % 3 == 0, claimed_frequency=0.9)
    with pytest.raises(ValueError, match="inconsistent"):
        formula_dim_1d(6, (0, 1, 2), bad)


def test_lacunary_geometric():
    pts = [(2**n, 0) for n in range(1, 20)]
    rep = lacunary_check(pts, 2, P11)
    assert rep.ratio_pass and rep.strict_pass
    assert rep.min_ratio == pytest.approx(2.0)


def test_lacunary_kicked_family():
    p = MatrixParams(4, 4)
    spec = build_intermediate_spectrum(0.0, p)
    pre = spec.prefix(50)
    rep = lacunary_check(pre, 36)
    assert rep.ratio_pass
    assert rep.min_ratio >= 36
    # the branch heads sit below 36, so strict 36-lacunarity fails there,
    # but the family is strictly lacunary for a smaller constant > 1
    assert not rep.strict_pass
    assert rep.lacunary_constant > 1
    strict = lacunary_check(pre, min(rep.lacunary_constant - 0.01, 36))
    assert strict.strict_pass


def test_lacunary_fails_for_dense_prefix():
    pre = enumerate_spectrum(CanonicalMapping(), P12, level=5)
    rep = lacunary_check(pre, 1.5)
    assert not rep.ratio_pass


def test_lacunary_sets_have_tiny_estimate():
    pts = [(0, 0)] + [(2**n, 0) for n in range(1, 40)]
    assert lacunary_check(pts[1:], 1.5, P11).strict_pass
    # Counts grow like log h, which biases a finite-window slope up by about
    # 1/ln h, so the window spans the set's own range, short of saturation.
    est = beurling_dim_estimate(pts, [2**j for j in range(4, 40, 4)], P11,
                                centers="sample:16")
    assert max(est.counts) < len(pts)
    assert est.slope < 0.1


def test_entropy_closed_form():
    e11 = entropy_dim_closed_form(P11)
    assert e11.dim_mu == pytest.approx(1.0)
    e12 = entropy_dim_closed_form(P12)
    assert e12.dim_x == pytest.approx(0.57938, abs=1e-5)
    assert e12.dim_mu == pytest.approx(0.83728, abs=1e-5)
    assert e12.lower < e12.dim_mu < e12.upper
    assert e12.lower == pytest.approx(0.61315, abs=1e-5)


def test_entropy_monte_carlo():
    assert entropy_dim_monte_carlo(P12, 0, 10) == 0.0
    mc11 = entropy_dim_monte_carlo(P11, 8, 100_000, seed=0)
    assert abs(mc11 - 1.0) < 0.1
    mc12 = entropy_dim_monte_carlo(P12, 8, 100_000, seed=0)
    assert abs(mc12 - entropy_dim_closed_form(P12).dim_mu) < 0.1


def test_support_hausdorff():
    assert support_hausdorff_dim(P11) == pytest.approx(1.0)
    val = support_hausdorff_dim(P12)
    u = math.log(3) / math.log(6)
    assert val == pytest.approx(math.log(2**u + 1) / math.log(3))
    assert val > math.log(3) / math.log(6)
