"""Exact orthogonality certification and numerical completeness evidence.

Orthogonality of a candidate spectrum is equivalent to every nonzero pairwise
difference lying in the zero set of the transform: its first nonzero centered
residue mod A must be +-(q1, -q2).  That residue is the difference of the two
points' residues where their A-adic digits first part, so one walk over the
trie of the points' residues decides all n(n-1)/2 pairs exactly, at O(n * depth)
cost at every size, symbolically for huge kicked coordinates.  The walk
runs on the points' value columns, int64 or exact objects, a few numpy
operations per level, and adds each kick term when it reaches the term's
exponent.  It yields the failing nodes' parts and the groups of equal
points, and the violations are listed from those events alone.  The
projection checks run the same walk per axis, and the line check takes
its groups of equal coordinates from that walk's equal-value groups when
some point has a kick term.  Every check takes its points, values and
params from ``treemap.resolve_points``, and reads the coordinates and
kick terms through one call, ``lattice.value_columns``, which hands a
prefix's stored columns over without building a point; a kicked prefix's
kick terms come unfolded, so its bases stay int64.  Unitarity and the
q-sums read them through ``lattice.folded_columns`` instead, which folds
the small kicks as the points' own values do, once per column store.
Level-n unitarity multiplies the Gram matrix out of per-level rank-3
factors, one row block at a time, with no character matrix built.  The q-sums split each level's
phase in two: the points' part e^(-2 pi i (lam mod B^j) / B^j), from exact
remainders, and a scalar per level for the frequency.  A prefix's point
phases are built once, shared with unitarity and kept in the prefix's
``cache`` as long as the prefix lives, so each further frequency costs one
complex multiply-add per point, level and axis.
Completeness is never certified: the quadratic sums of the transform over a
prefix give evidence (bounded by 1, nondecreasing), and maximality is probed
per candidate with three-valued verdicts.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fourier import (
    _residue_walk,
    _step_sign,
    _tail_quotient,
    in_zero_set_sym,
    tail_bound,
)
from .lattice import (
    MatrixParams,
    SymVec,
    folded_columns,
    scalar_parts,
    scalar_sign,
    sym_diff,
    value_columns,
)
from .treemap import SpectrumPoint, SpectrumPrefix, point_label, resolve_points


@dataclass(frozen=True)
class PairViolation:
    """A failing pair; each point named by its index k, or its list position if it has none."""

    k1: int
    k2: int
    difference: SymVec
    reason: str  # "not-in-zero-set" | "coincident"


@dataclass(frozen=True)
class OrthogonalityReport:
    pairs_checked: int
    violations: tuple[PairViolation, ...]
    sampled: bool  # always False: every pair is decided exactly

    @property
    def passed(self) -> bool:
        return not self.violations


def _across(a, b, reason):
    """Pairs (i, j, reason), i < j, with one index in a and one in b, in sorted order."""
    a, b = sorted(a), sorted(b)
    for i, side in heapq.merge(((i, 0) for i in a), ((i, 1) for i in b)):
        other = b if side == 0 else a
        for t in range(bisect.bisect_right(other, i), len(other)):
            yield i, other[t], reason


def _violating_pairs(events, values, step, bases, limit):
    """The first ``limit`` pairs (i, j, reason), i < j, whose difference leaves the zero set.

    ``events`` come from the residue walk (``fourier._residue_walk``).
    Pairs come in itertools.combinations order.  A pair fails when its first
    differing residues differ by anything but +-step, or when it is equal in
    value: "coincident" if the two values are identical, else (such as a
    folded base and a kick term) "not-in-zero-set".
    """
    if limit < 1:
        raise ValueError("max_violations must be >= 1")
    blocks = []
    for _, parts in events:
        if parts[0][0] is None:
            blocks += [
                ((i, j, "coincident" if values[i] == values[j] else "not-in-zero-set")
                 for i, j in itertools.combinations(sorted(m), 2))
                for _, m in parts
            ]
        for (ra, a), (rb, b) in itertools.combinations(parts, 2):
            if ra is None or not _step_sign((ra[0] - rb[0], ra[1] - rb[1]), step, bases):
                blocks.append(_across(a, b, "not-in-zero-set"))
    return list(itertools.islice(heapq.merge(*blocks), limit))


def _pair_rank(i: int, j: int, n: int) -> int:
    """Position of (i, j) in itertools.combinations(range(n), 2)."""
    return i * (2 * n - i - 1) // 2 + j - i - 1


def check_orthogonality(
    prefix: SpectrumPrefix | list[SpectrumPoint],
    p: MatrixParams | None = None,
    *,
    max_violations: int = 100,
) -> OrthogonalityReport:
    """Decide every pairwise difference for zero-set membership, exactly.

    One residue walk (``fourier._residue_walk``) decides all n(n-1)/2 pairs
    at O(n * depth) cost, at every size, and the pairs are listed from its
    events.  The report lists the first ``max_violations`` failing pairs in
    itertools.combinations order; ``pairs_checked`` is n(n-1)/2, or the rank
    of the last listed violation plus one when the list was cut there.
    """
    points, values, p = resolve_points(prefix, p)
    n = len(points)
    step, bases = p.primary_digit, (p.base_x, p.base_y)
    events = _residue_walk(*value_columns(values), step, bases)
    bad = _violating_pairs(events, values, step, bases, max_violations)
    violations = tuple(
        PairViolation(point_label(points, i), point_label(points, j),
                      sym_diff(values[i], values[j]), reason)
        for i, j, reason in bad
    )
    checked = n * (n - 1) // 2
    if len(bad) == max_violations:
        checked = _pair_rank(*bad[-1][:2], n) + 1
    return OrthogonalityReport(pairs_checked=checked, violations=violations, sampled=False)


# ---------------------------------------------------------------------------
# Structural consequences of orthogonality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineReport:
    """Witness pairs per axis; points named by their index k, or list position if they have none."""

    passed: bool
    shared_x: tuple[tuple[int, int], ...]
    shared_y: tuple[tuple[int, int], ...]


def check_distinct_lines(
    prefix: SpectrumPrefix | list[SpectrumPoint], p: MatrixParams | None = None
) -> LineReport:
    """Report any two points sharing an x- or a y-coordinate (exact comparison).

    Per axis each pair of equal neighbours in a stable sort by coordinate is
    a witness.  When no point has a kick term the sort runs on its
    ``value_columns`` (int64, or exact objects past 2^62), and only the
    witnesses' points are read.  Otherwise the groups of equal coordinates
    are the equal-value groups of that axis's residue walk (``_axis_walk``,
    the walk of ``check_projection_orthogonality``), each sorted, and only
    the groups are ordered, by the exact comparator.
    """
    points, values, p = resolve_points(prefix, p)
    xs, ys, terms = value_columns(values)
    shared: dict[int, list[tuple[int, int]]] = {0: [], 1: []}
    for axis, (col, q) in enumerate(((xs, p.q1), (ys, p.q2))):
        if terms is None:
            order = np.argsort(col, kind="stable")
            ties = np.flatnonzero(np.diff(col[order]) == 0)
            shared[axis] = [(point_label(points, order[i]), point_label(points, order[i + 1]))
                            for i in ties]
            continue

        def cmp(a: SymVec, b: SymVec, axis=axis) -> int:
            return scalar_sign(*scalar_parts(sym_diff(a, b), p, axis))

        groups = [sorted(part) for _, parts in _axis_walk(col, terms, axis, q)
                  for r, part in parts if r is None]
        groups.sort(key=functools.cmp_to_key(lambda g, h: cmp(values[g[0]], values[h[0]])))
        for group in groups:
            shared[axis] += [(point_label(points, i), point_label(points, j))
                             for i, j in zip(group, group[1:])]
    return LineReport(
        passed=not shared[0] and not shared[1],
        shared_x=tuple(shared[0]),
        shared_y=tuple(shared[1]),
    )


def _axis_walk(col, terms, axis: int, q: int):
    """The residue walk of one axis's coordinates against the base-3q zero set:
    the coordinate rides in x with y = 0, and so do that axis's kick terms."""
    on_x = terms if terms is None else terms._replace(
        x=terms[2 + axis], y=np.zeros_like(terms.y))
    return _residue_walk(col, np.zeros_like(col), on_x, (q, 0), (3 * q, 3 * q))


@dataclass(frozen=True)
class ProjectionReport:
    """Failing pairs per axis; points named by their index k, or list position if they have none."""

    passed: bool
    x_violations: tuple[tuple[int, int], ...]
    y_violations: tuple[tuple[int, int], ...]


def check_projection_orthogonality(
    prefix: SpectrumPrefix | list[SpectrumPoint],
    p: MatrixParams | None = None,
    *,
    max_violations: int = 100,
) -> ProjectionReport:
    """Pairwise projected differences must lie in the one-dimensional zero sets.

    The x-projections are tested against the base-3*q1 zero set, the
    y-projections against base-3*q2, by the residue walk of
    ``check_orthogonality`` run once per axis, on one of the points'
    ``value_columns`` and that axis's kick terms; exact arithmetic throughout.
    A zero projected difference between distinct points is a violation too.
    Pairs are taken in itertools.combinations order, and the lists stop at
    the first pair where either one reaches ``max_violations``.
    """
    points, values, p = resolve_points(prefix, p)
    n = len(points)
    xs, ys, terms = value_columns(values)
    bad = []
    for axis, (col, q) in enumerate(((xs, p.q1), (ys, p.q2))):
        events = _axis_walk(col, terms, axis, q)
        bad.append(_violating_pairs(events, values, (q, 0), (3 * q, 3 * q), max_violations))
    cut = min(
        (_pair_rank(*pairs[-1][:2], n) for pairs in bad if len(pairs) == max_violations),
        default=math.inf,
    )
    x_bad, y_bad = (
        tuple((point_label(points, i), point_label(points, j))
              for i, j, _ in pairs if _pair_rank(i, j, n) <= cut)
        for pairs in bad
    )
    return ProjectionReport(
        passed=not x_bad and not y_bad, x_violations=x_bad, y_violations=y_bad
    )


# ---------------------------------------------------------------------------
# Finite-level unitarity
# ---------------------------------------------------------------------------

_GRAM_ROWS = 32  # Gram rows per block: three block-sized complex arrays stay in cache


def _level_phases(col, base: int, n: int, first: int = 1) -> Iterator[np.ndarray]:
    """Yield the rows e^(-2 pi i (lam mod B^j) / B^j) for j = first..n, one
    entry per point, each built when it is asked for.

    The remainders are exact, so each quotient is correctly rounded: int64
    while B^j < 2^53, Python ints past that.  At a level where every |lam| <
    B^j / 2, an int64 column takes no remainder: lam / B^j, in (-1/2, 1/2),
    gives the same phase to within a few units of 2^-53 (below 2^-48).
    """
    top = 2 * int(np.max(np.abs(col), initial=0)) if col.dtype == np.int64 else None
    for j in range(first, n + 1):
        den = base**j
        if top is not None and den < 2**53:
            frac = (col % den) / den
        elif top is not None and top < den:
            frac = col * (1 / den)
        else:
            frac = (col.astype(object) % den / den).astype(float)
        yield np.exp(-2j * np.pi * frac)


def _phase_rows(cache, axis: str, col, base: int, n: int) -> Iterable[np.ndarray]:
    """The rows of ``_level_phases(col, base, n)``, ``col`` the ``axis`` column of
    values whose ``cache`` is given (``lattice.ColumnValues.cache``, such as a
    prefix's): its rows are kept there, per axis and base, and extended by
    levels when a call needs more.  With no cache the rows are built afresh,
    one at a time, so a caller that reads them in order holds one row per axis."""
    if cache is None:
        return _level_phases(col, base, n)
    rows = cache.setdefault((axis, base), [])
    if len(rows) < n:
        rows += _level_phases(col, base, n, first=len(rows) + 1)
    return rows[:n]


def _gram_blocks(n: int, cols, p: MatrixParams, cache=None):
    """The upper triangle of the level-n Gram matrix, as (r0, G[r0:r1, r0:]) row blocks.

    G[lam, lam'] = prod_j m(A^-j (lam' - lam)), m the mask, and each factor is
    (1 + conj(ex_j(lam)) ex_j(lam') + conj(ey_j(lam)) ey_j(lam')) / 3 with the
    per-level phases of ``_phase_rows``, kept in ``cache`` when one is given;
    the 1/3 rides on the conjugated row phases.  The lower triangle is the
    conjugate transpose.
    """
    ex, ey = (list(_phase_rows(cache, axis, col, base, n))
              for axis, col, base in zip("xy", cols, (p.base_x, p.base_y)))
    cx, cy = [e.conj() / 3 for e in ex], [e.conj() / 3 for e in ey]
    size = len(cols[0])
    for r0 in range(0, size, _GRAM_ROWS):
        rows = slice(r0, min(r0 + _GRAM_ROWS, size))
        g = np.ones((rows.stop - r0, size - r0), dtype=complex)
        t, u = np.empty_like(g), np.empty_like(g)
        for j in range(n):
            np.multiply(cx[j][rows, None], ex[j][None, r0:], out=t)
            np.multiply(cy[j][rows, None], ey[j][None, r0:], out=u)
            t += u
            t += 1 / 3
            g *= t
        yield r0, g


def gram_unitarity(
    n: int, prefix: SpectrumPrefix | list[SpectrumPoint], p: MatrixParams | None = None
) -> float:
    """Max deviation of the level-n character matrix from unitarity.

    The 3^n atoms are the digit sums sum_j A^-j d_j; against a spectrum slice
    of 3^n points the matrix U[a, lam] = 3^(-n/2) e^(-2 pi i <lam, a>) must be
    unitary.  Its Gram matrix is the product over the levels j = 1..n of
    rank-3 factors (``_gram_blocks``), so neither U nor the atoms are built:
    about 3 n N^2 complex multiply-adds for N = 3^n points, in row blocks of
    O(N) memory, over the upper triangle only (|G - I| is symmetric).
    Phases come from exact remainders, so the returned deviation carries no
    argument-reduction noise.
    """
    _, values, p = resolve_points(prefix, p)
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(values) != 3**n:
        raise ValueError(f"need exactly 3^{n} = {3**n} points, got {len(values)}")
    *cols, terms = folded_columns(values)
    cache = getattr(values, "cache", None)
    if terms is not None:  # kick terms, expanded, into columns that no cache keeps
        *cols, _ = value_columns([SymVec(v.materialize(p)) for v in values])
        cache = None
    dev = 0.0
    for _, g in _gram_blocks(n, cols, p, cache):
        diag = np.arange(len(g))
        g[diag, diag] -= 1
        dev = max(dev, float(np.max(np.abs(g))))
    return dev


# ---------------------------------------------------------------------------
# Quadratic transform sums (completeness evidence)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplingBox:
    """The frequency box |xi_1| <= 3q1/(2(3q1-1)), |xi_2| <= 3q2/(2(3q2-1))."""

    half_width_x: Fraction
    half_width_y: Fraction

    @classmethod
    def for_params(cls, p: MatrixParams) -> "SamplingBox":
        box = cls(
            half_width_x=Fraction(p.base_x, 2 * (p.base_x - 1)),
            half_width_y=Fraction(p.base_y, 2 * (p.base_y - 1)),
        )
        assert Fraction(1, 2) < box.half_width_x <= Fraction(3, 4)
        assert Fraction(1, 2) < box.half_width_y <= Fraction(3, 4)
        return box

    def samples(self, count: int, seed: int = 0) -> list[tuple[float, float]]:
        rng = random.Random(seed)
        wx, wy = float(self.half_width_x), float(self.half_width_y)
        return [
            (rng.uniform(-wx, wx), rng.uniform(-wy, wy)) for _ in range(count)
        ]


@dataclass(frozen=True)
class QSumResult:
    value: float
    error: float
    depth: int
    terms: int


def q_sum_terms(xi, prefix, p: MatrixParams | None = None, tail_target: float = 1e-9):
    """Per-point |transform(xi + lambda)|^2 with certified per-term error bounds.

    Returns (values, errors, depth).  Each level's factor splits as
    (1 + e_x(lam) s_x + e_y(lam) s_y) / 3: the points' phases e_j(lam) from
    exact remainders (``_phase_rows``, kept in a prefix's cache), and
    depth scalar phases s_j = e^(-2 pi i xi / B^j) per axis, so each point
    costs one complex multiply-add per level and axis, and no coordinate is
    rounded before it is reduced.  Points must have float-representable
    coordinates, so kicked points with symbolic terms, or with coordinates
    past the float range, are rejected with a ValueError; xi must be finite
    and tail_target positive and finite.
    """
    if not np.isfinite(np.asarray(xi, dtype=float)).all():
        raise ValueError(f"q_sum needs a finite frequency, got {tuple(xi)}")
    if not 0 < tail_target < math.inf:
        raise ValueError(f"q_sum needs a positive finite tail_target, got {tail_target}")
    _, values, p = resolve_points(prefix, p)
    *cols, terms = folded_columns(values)
    if terms is not None:
        raise ValueError("q_sum needs float-representable points; got a symbolic kick term")
    try:
        arr = np.column_stack(cols).astype(float)
    except OverflowError:
        raise ValueError("q_sum needs float-representable points; got a coordinate "
                         "past the float range") from None
    if arr.size == 0:
        return np.zeros(0), np.zeros(0), 1
    arr = arr + np.asarray(xi, dtype=float)
    xmax = float(np.max(np.abs(arr)))
    depth = _q_sum_depth(xmax, p, tail_target / (3.0 * max(1, len(values))))
    prod = np.ones(len(values), dtype=complex)
    t, u = np.empty_like(prod), np.empty_like(prod)
    bases = (p.base_x, p.base_y)
    cache = getattr(values, "cache", None)
    ex, ey = (_phase_rows(cache, axis, col, base, depth)
              for axis, col, base in zip("xy", cols, bases))
    sx, sy = (_xi_phases(float(x), base, depth) for x, base in zip(xi, bases))
    for e_x, e_y, s_x, s_y in zip(ex, ey, sx, sy):  # one level at a time, into reused buffers
        np.multiply(e_x, s_x, out=t)
        np.multiply(e_y, s_y, out=u)
        t += u
        t += 1 / 3
        prod *= t
    # tail_bound per point, in the same float operations
    s = (2.0 * math.pi / 3.0) * (
        _tail_quotient(np.abs(arr[:, 0]), p.base_x, depth)
        + _tail_quotient(np.abs(arr[:, 1]), p.base_y, depth)
    )
    tails = np.where(s <= 0.5, 2.0 * s, math.inf)
    values = np.abs(prod) ** 2
    errors = tails * (2.0 * np.abs(prod) + tails)
    return values, errors, depth


def _q_sum_depth(xmax: float, p: MatrixParams, per_term: float) -> int:
    """The least depth >= 1 with tail_bound((xmax, xmax), p, depth) <= per_term.

    The bound falls as the depth grows, so the search gallops up from 1 by
    doubling and then bisects: O(log depth) calls of ``tail_bound``.
    """
    def within(depth: int) -> bool:
        return tail_bound((xmax, xmax), p, depth) <= per_term

    lo, hi = 0, 1  # within(hi) is open; every depth <= lo is too shallow
    while not within(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if within(mid) else (mid, hi)
    return hi


def _xi_phases(x: float, base: int, depth: int) -> np.ndarray:
    """e^(-2 pi i x / B^j) / 3 for j = 1..depth; x is reduced mod B^j exactly
    when |x| >= B^j."""
    dens = [base**j for j in range(1, depth + 1)]
    fracs = [x * (1 / den) if abs(x) < den else float(Fraction(x) % den / den) for den in dens]
    return np.exp(-2j * np.pi * np.array(fracs)) / 3


def q_sum(xi, prefix, p: MatrixParams | None = None, tail_target: float = 1e-9) -> QSumResult:
    """Partial quadratic sum over the prefix with accumulated certified error."""
    values, errors, depth = q_sum_terms(xi, prefix, p, tail_target)
    # generous cover for float accumulation on top of the certified tails
    float_slack = 1e-14 * (len(values) + 1) * max(depth, 1)
    return QSumResult(
        value=float(np.sum(values)),
        error=float(np.sum(errors)) + float_slack,
        depth=depth,
        terms=len(values),
    )


# ---------------------------------------------------------------------------
# Maximality probing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeVerdict:
    """``conflict_with`` names the witness by its index k, or its list position if it has none."""

    candidate: tuple[int, int]
    status: str  # "member" | "conflict" | "inconclusive"
    conflict_with: int | None = None


def maximality_probe(
    prefix: SpectrumPrefix | list[SpectrumPoint],
    p: MatrixParams | None = None,
    *,
    box: tuple[int, int],
) -> list[ProbeVerdict]:
    """Per-candidate extension verdicts over an integer box.

    CONFLICT(lambda) certifies the candidate cannot extend the orthogonal
    family (the difference to lambda escapes the zero set, exactly);
    INCONCLUSIVE means no finite certificate exists at this prefix size.
    Maximality itself is never certified from a finite prefix.  The scan
    reads the points' values; only a conflicting point is read, for its label.
    """
    points, values, p = resolve_points(prefix, p)
    values = list(values)  # each value built once
    members = {v.base for v in values if v.is_concrete}
    verdicts = []
    for cand in itertools.product(range(-box[0], box[0] + 1), range(-box[1], box[1] + 1)):
        if cand in members:
            verdicts.append(ProbeVerdict(cand, "member"))
            continue
        c = SymVec(base=cand)
        hit = next((i for i, v in enumerate(values)
                    if in_zero_set_sym(sym_diff(c, v), p) is None), None)
        status = "inconclusive" if hit is None else "conflict"
        label = None if hit is None else point_label(points, hit)
        verdicts.append(ProbeVerdict(cand, status, label))
    return verdicts
