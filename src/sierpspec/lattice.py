"""Exact integer lattice arithmetic for the diagonal expansion matrix A = diag(3*q1, 3*q2).

Everything here is pure and exact: signed-digit radix expansions,
A-adic digit expansions, the residue digit sets used by the spectrum
constructions and the positions they fill (``Beatty``), and a symbolic
vector type that keeps kick terms ``A^e * v`` unexpanded so that
astronomically large coordinates stay cheap to compare.
``value_columns`` is the one place that turns a sequence of such vectors into
the numpy coordinate columns, and the table of kick terms, that every
certifier and the ball counter read.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

Vec = tuple[int, int]

ZERO: Vec = (0, 0)

# Symbolic terms with exponents beyond this are refused by materialize();
# everything the desk-scale suites produce stays far below it.
MATERIALIZE_EXPONENT_LIMIT = 2_000_000


class LatticeError(ValueError):
    """Invalid digit, parameter or symbolic-form input."""


@dataclass(frozen=True)
class MatrixParams:
    """The pair (q1, q2) defining A = diag(3*q1, 3*q2) and all derived digit sets."""

    q1: int
    q2: int

    def __post_init__(self):
        if not (isinstance(self.q1, int) and isinstance(self.q2, int)):
            raise LatticeError("q1, q2 must be integers")
        if not (1 <= self.q1 <= self.q2):
            raise LatticeError(f"require 1 <= q1 <= q2, got ({self.q1}, {self.q2})")

    @property
    def base_x(self) -> int:
        return 3 * self.q1

    @property
    def base_y(self) -> int:
        return 3 * self.q2

    @property
    def primary_digit(self) -> Vec:
        """The generator digit (q1, -q2) of the three-element spectrum digit set."""
        return (self.q1, -self.q2)

    def mul(self, v: Vec) -> Vec:
        return (self.base_x * v[0], self.base_y * v[1])


def centered_mod(x: int, b: int) -> int:
    """Representative of x mod b in [-floor(b/2), b - 1 - floor(b/2)]."""
    h = b // 2
    return (x + h) % b - h


def signed_expansion(k: int, b: int) -> list[int]:
    """Signed-digit expansion of k in base b, little-endian, no trailing zeros.

    Digits lie in [-floor(b/2), b - 1 - floor(b/2)]; the expansion over that
    digit alphabet is unique, and sum(d * b**i) reconstructs k exactly.
    The empty list represents 0.
    """
    if b < 2:
        raise LatticeError("base must be >= 2")
    digits: list[int] = []
    h = b // 2
    while k:
        d = (k + h) % b - h
        digits.append(d)
        k = (k - d) // b
    return digits


def signed_value(digits, b: int) -> int:
    """Inverse of signed_expansion: sum of digits[i] * b**i."""
    acc = 0
    for d in reversed(list(digits)):
        acc = acc * b + d
    return acc


def a_adic_expansion(w: Vec, p: MatrixParams) -> list[Vec]:
    """Digit expansion w = sum A^i * c_i with every c_i in the residue box Gamma.

    Equals the componentwise signed expansions in bases 3*q1 and 3*q2,
    zero-padded to a common length.  Little-endian, no trailing zero digit.
    """
    xs = signed_expansion(w[0], p.base_x)
    ys = signed_expansion(w[1], p.base_y)
    length = max(len(xs), len(ys))
    xs += [0] * (length - len(xs))
    ys += [0] * (length - len(ys))
    return list(zip(xs, ys))


def in_gamma(v: Vec, p: MatrixParams) -> bool:
    bx, by = p.base_x, p.base_y
    return -(bx // 2) <= v[0] < bx - bx // 2 and -(by // 2) <= v[1] < by - by // 2


def in_e_q1(v: Vec, p: MatrixParams) -> bool:
    """Membership in the coset leaders E_q1, without building Gamma."""
    return in_gamma(v, p) and -(p.q1 // 2) <= v[0] < p.q1 - p.q1 // 2


def reconstruct(digits, p: MatrixParams) -> Vec:
    """Evaluate a little-endian Gamma-digit sequence back to the lattice vector.

    Rejects any digit outside Gamma, reporting the offending index.
    """
    seq = list(digits)
    for i, d in enumerate(seq):
        if not in_gamma(d, p):
            raise LatticeError(f"digit {d} at index {i} lies outside Gamma")
    x = y = 0
    for dx, dy in reversed(seq):
        x = x * p.base_x + dx
        y = y * p.base_y + dy
    return (x, y)


def mod_a_reduce(v: Vec, p: MatrixParams) -> Vec:
    """Canonical representative of v mod A*Z^2 inside the residue box Gamma."""
    return (centered_mod(v[0], p.base_x), centered_mod(v[1], p.base_y))


@dataclass(frozen=True)
class DigitSetCatalog:
    """The residue system Gamma and its standard decompositions.

    gamma   -- full residue box, |gamma| = 9*q1*q2
    c_set   -- {(0,0), (q1,-q2), (-q1,q2)}, the three-element coset generator
    e_q1    -- coset leaders with first coordinate in [-q1/2, q1/2)
    e_q2    -- coset leaders with second coordinate in [-q2/2, q2/2)
    l_set   -- the canonical spectrum digit set (equal to c_set as a set)
    """

    gamma: tuple[Vec, ...]
    c_set: tuple[Vec, ...]
    e_q1: tuple[Vec, ...]
    e_q2: tuple[Vec, ...]
    l_set: tuple[Vec, ...]


def _box_range(b: int) -> range:
    return range(-(b // 2), b - b // 2)


@lru_cache(maxsize=None)
def enumerate_digit_sets(p: MatrixParams) -> DigitSetCatalog:
    q1, q2 = p.q1, p.q2
    gamma = tuple((x, y) for x in _box_range(p.base_x) for y in _box_range(p.base_y))
    c_set = ((0, 0), (q1, -q2), (-q1, q2))
    e_q1 = tuple(v for v in gamma if -(q1 // 2) <= v[0] < q1 - q1 // 2)
    e_q2 = tuple(v for v in gamma if -(q2 // 2) <= v[1] < q2 - q2 // 2)
    return DigitSetCatalog(gamma=gamma, c_set=c_set, e_q1=e_q1, e_q2=e_q2, l_set=c_set)


@dataclass(frozen=True)
class ResidueReport:
    """Outcome of the exhaustive coset-partition check of Gamma."""

    passed: bool
    coset_count: int
    collisions: tuple[tuple[Vec, Vec, Vec], ...]  # (leader1, leader2, shared residue)
    missing: tuple[Vec, ...]


def _partition_check(leaders, cosets, gamma, p) -> ResidueReport:
    seen: dict[Vec, Vec] = {}
    collisions = []
    for a in leaders:
        for c in cosets:
            r = mod_a_reduce((a[0] + c[0], a[1] + c[1]), p)
            if r in seen:
                collisions.append((seen[r], a, r))
            else:
                seen[r] = a
    missing = tuple(v for v in gamma if v not in seen)
    return ResidueReport(
        passed=not collisions and not missing,
        coset_count=len(leaders),
        collisions=tuple(collisions),
        missing=missing,
    )


def verify_residue_decomposition(p: MatrixParams) -> tuple[ResidueReport, ResidueReport]:
    """Check Gamma = disjoint union of (a + C mod A) over both leader sets.

    Returns the reports for the e_q1 and the e_q2 decompositions; each lists
    every collision or omission found by exhaustive enumeration.
    """
    cat = enumerate_digit_sets(p)
    return (
        _partition_check(cat.e_q1, cat.c_set, cat.gamma, p),
        _partition_check(cat.e_q2, cat.c_set, cat.gamma, p),
    )


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


# ---------------------------------------------------------------------------
# Symbolic vectors: base + sum of A^e * v terms with possibly huge exponents.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SymVec:
    """Exact lattice vector ``base + sum_i A^{e_i} * v_i`` kept in unexpanded form.

    Kicked spectrum points place a digit at position n + m_k with m_k as large
    as k**2, so materialized coordinates overflow any fixed width and get
    expensive to expand.  ``terms`` is sorted by exponent; exponents are
    distinct and >= 1 and term vectors are nonzero.
    """

    base: Vec
    terms: tuple[tuple[int, Vec], ...] = ()

    @property
    def is_concrete(self) -> bool:
        return not self.terms

    def materialize(self, p: MatrixParams) -> Vec:
        x, y = self.base
        for e, (vx, vy) in self.terms:
            if e > MATERIALIZE_EXPONENT_LIMIT:
                raise LatticeError(f"refusing to expand A^{e} term")
            x += p.base_x**e * vx
            y += p.base_y**e * vy
        return (x, y)


# Value columns are int64 when every base coordinate is below I64_COORD and every
# kick-term component below I64_TERM in absolute value: in fourier's walk a value
# plus a term stays below 2^63, and one level on is back below I64_COORD.
I64_COORD = 2**62
I64_TERM = 2**61

# make_sym adds every term of exponent at most this to the base
FOLD_LIMIT = 64


class ColumnValues(Sequence):
    """Values kept as two base columns and, optionally, a ``KickTerms`` table that
    ``make_sym`` has not folded (``params`` gives its bases).  Reading one builds
    one ``SymVec``, through ``make_sym`` when it has terms; ``value_columns`` hands
    the columns and the unfolded table over as they are.  ``cache``, when given,
    is a dict that holds what is derived from fixed columns: ``folded_columns``
    keeps its result there, and ``verify`` its phase rows."""

    __slots__ = ("xs", "ys", "terms", "params", "cache")

    def __init__(self, xs: np.ndarray, ys: np.ndarray, terms=None, params=None, cache=None):
        self.xs, self.ys, self.terms, self.params, self.cache = xs, ys, terms, params, cache

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, i) -> SymVec:
        base = (int(self.xs[i]), int(self.ys[i]))
        if self.terms is None:
            return SymVec(base)
        i = operator.index(i) % len(self)
        lo, hi = np.searchsorted(self.terms.index, (i, i + 1)).tolist()
        rows = zip(*(c[lo:hi].tolist() for c in self.terms[1:]))
        return make_sym(base, [(e, (x, y)) for e, x, y in rows], self.params)

    def __iter__(self):
        bases = zip(self.xs.tolist(), self.ys.tolist())
        if self.terms is None:
            return map(SymVec, bases)
        index, exps, tx, ty = self.terms
        # make_sym keeps a value's only term as it is when it is past FOLD_LIMIT and
        # nonzero; every other value with terms is read through it
        alone = np.bincount(index, minlength=len(self))[index] == 1
        kept = alone & np.asarray((exps > FOLD_LIMIT) & ((tx != 0) | (ty != 0)), dtype=bool)
        terms: list = [()] * len(self)
        for i, e, x, y in zip(*(c[kept].tolist() for c in self.terms)):
            terms[i] = ((e, (x, y)),)
        for i in index[~kept].tolist():
            terms[i] = None
        return (self[i] if t is None else SymVec(base, t)
                for i, (base, t) in enumerate(zip(bases, terms)))


class KickTerms(NamedTuple):
    """Kick terms as columns, one row per term in value and exponent order: value
    ``index`` carries A^exponent * (x, y).  The exponents are int64 below
    I64_COORD, else exact ints; x and y have the dtype of the base columns."""

    index: np.ndarray
    exponent: np.ndarray
    x: np.ndarray
    y: np.ndarray


def fits_int64(xs, ys, tx=(), ty=()) -> bool:
    """The int64 rule of ``value_columns``: every base coordinate below I64_COORD
    and every term component below I64_TERM in absolute value."""
    bounds = (I64_COORD, I64_COORD, I64_TERM, I64_TERM)
    return all(((np.asarray(c) < b) & (np.asarray(c) > -b)).all()
               for c, b in zip((xs, ys, tx, ty), bounds))


def value_columns(values) -> tuple[np.ndarray, np.ndarray, KickTerms | None]:
    """The x and y columns of the bases of a sequence of SymVecs, and their kick
    terms (None when no value has one).

    A ``ColumnValues`` hands over its stored columns and terms, unfolded.  Other
    values give int64 columns, term components included, within the I64_COORD
    and I64_TERM bounds (``fits_int64``), and object columns of exact Python
    ints otherwise.
    """
    if isinstance(values, ColumnValues):
        return values.xs, values.ys, values.terms
    bases = [v.base for v in values if not v.terms]
    rows = []
    if len(bases) < len(values):  # kick terms
        bases = [v.base for v in values]
        rows = [(i, e, *vec) for i, v in enumerate(values) for e, vec in v.terms]
    index, exps, tx, ty = map(list, zip(*rows)) if rows else ([],) * 4
    try:
        cols = [np.fromiter(map(operator.itemgetter(axis), bases), np.int64, len(bases))
                for axis in (0, 1)] + [np.fromiter(c, np.int64, len(c)) for c in (tx, ty)]
        fits = fits_int64(*cols)
    except OverflowError:  # a coordinate past int64
        fits = False
    if not fits:  # some value failed, so bases is n x 2 with n >= 1
        cols = [*np.array(bases, dtype=object).T, np.array(tx, dtype=object),
                np.array(ty, dtype=object)]
    xs, ys, tx, ty = cols
    if not rows:
        return xs, ys, None
    exps = np.array(exps, dtype=np.int64 if max(exps) < I64_COORD else object)
    return xs, ys, KickTerms(np.array(index, dtype=np.int64), exps, tx, ty)


def folded_columns(values) -> tuple[np.ndarray, np.ndarray, KickTerms | None]:
    """``value_columns(values)`` with a ``ColumnValues``' unfolded terms of exponent
    at most FOLD_LIMIT added to their bases, as ``make_sym`` adds them: the
    columns, and their int64 or object dtype, that ``value_columns`` gives the
    same values read one by one.  Values with a ``cache`` fold once, and keep
    the folded columns there, read-only.  Any other values are handed on as
    they are."""
    xs, ys, terms = value_columns(values)
    if terms is None or not isinstance(values, ColumnValues):
        return xs, ys, terms
    cache = values.cache
    if cache is not None and "folded" in cache:
        return cache["folded"]
    due = np.asarray(terms.exponent <= FOLD_LIMIT, dtype=bool)
    if not due.any():
        return xs, ys, terms
    p = values.params
    xs, ys = xs.astype(object), ys.astype(object)
    for i, e, vx, vy in zip(*(c[due].tolist() for c in terms)):
        xs[i] += p.base_x**e * vx
        ys[i] += p.base_y**e * vy
    index, exps, tx, ty = (c[~due] for c in terms)
    dtype = np.int64 if fits_int64(xs, ys, tx, ty) else object
    xs, ys, tx, ty = (c.astype(dtype) for c in (xs, ys, tx, ty))
    folded = xs, ys, KickTerms(index, exps, tx, ty) if len(index) else None
    if cache is not None:
        xs.flags.writeable = ys.flags.writeable = False
        cache["folded"] = folded
    return folded


def sym(v: Vec) -> SymVec:
    return SymVec(base=v)


def make_sym(base: Vec, raw_terms, p: MatrixParams, fold_limit: int = FOLD_LIMIT) -> SymVec:
    """Normalize (base, terms): merge equal exponents, fold small exponents into base."""
    acc: dict[int, list[int]] = {}
    bx, by = base
    for e, (vx, vy) in raw_terms:
        if e < 0:
            raise LatticeError("term exponents must be >= 0")
        if e == 0:
            bx += vx
            by += vy
            continue
        cur = acc.setdefault(e, [0, 0])
        cur[0] += vx
        cur[1] += vy
    terms = []
    for e in sorted(acc):
        vx, vy = acc[e]
        if vx == 0 and vy == 0:
            continue
        if e <= fold_limit:
            bx += p.base_x**e * vx
            by += p.base_y**e * vy
        else:
            terms.append((e, (vx, vy)))
    return SymVec(base=(bx, by), terms=tuple(terms))


def sym_diff(a: SymVec, b: SymVec) -> SymVec:
    """Exact difference a - b with merged terms (no folding; stays symbolic)."""
    base = (a.base[0] - b.base[0], a.base[1] - b.base[1])
    if not a.terms and not b.terms:
        return SymVec(base=base)
    acc: dict[int, list[int]] = {}
    for sign, sv in ((1, a), (-1, b)):
        for e, (vx, vy) in sv.terms:
            cur = acc.setdefault(e, [0, 0])
            cur[0] += sign * vx
            cur[1] += sign * vy
    terms = tuple(
        (e, (vx, vy)) for e in sorted(acc) for vx, vy in [tuple(acc[e])] if vx or vy
    )
    return SymVec(base=base, terms=terms)


def sym_is_zero(v: SymVec, p: MatrixParams | None = None) -> bool:
    if not v.terms:
        return v.base == (0, 0)
    return (
        scalar_sign(*scalar_parts(v, p, 0)) == 0
        and scalar_sign(*scalar_parts(v, p, 1)) == 0
    )


def scalar_parts(v: SymVec, p: MatrixParams | None, axis: int):
    """Per-coordinate view (b, ((e, c), ...), B) of a SymVec.

    p is only needed when the coordinate actually carries symbolic terms.
    """
    b = v.base[axis]
    terms = tuple((e, vec[axis]) for e, vec in v.terms if vec[axis] != 0)
    if terms:
        if p is None:
            raise LatticeError("params required for symbolic coordinate")
        B = p.base_x if axis == 0 else p.base_y
    else:
        B = 2  # unused
    return b, terms, B


def scalar_materialize(b: int, terms, B: int) -> int:
    for e, c in terms:
        if e > MATERIALIZE_EXPONENT_LIMIT:
            raise LatticeError(f"refusing to expand {B}^{e} term")
        b += B**e * c
    return b


def _sign_int(x: int) -> int:
    return (x > 0) - (x < 0)


def scalar_sign(b: int, terms, B: int) -> int:
    """Exact sign of b + sum(c * B**e) without expanding huge powers when avoidable.

    The top term dominates once B**gap exceeds a small multiple of every lower
    coefficient; since 2**(gap*(bitlen(B)-1)) <= B**gap this becomes an exact
    integer test on bit lengths.  Falls back to full materialization only when
    exponents are small or the surrogate test is inconclusive.
    """
    terms = [(e, c) for e, c in terms if c != 0]
    if not terms:
        return _sign_int(b)
    terms.sort()
    top_e, top_c = terms[-1]
    lower = [(e, abs(c)) for e, c in terms[:-1]]
    if b:
        lower.append((0, abs(b)))
    if not lower:
        return _sign_int(top_c)
    shift = B.bit_length() - 1  # 2**shift <= B
    npieces = len(lower)
    dominated = all(
        (top_e - e) * shift >= (2 * npieces * c).bit_length() for e, c in lower
    )
    if dominated:
        return _sign_int(top_c)
    return _sign_int(scalar_materialize(b, terms, B))


def scalar_log2_bounds(b: int, terms, B: int) -> tuple[float, float]:
    """(lo, hi) with 2**lo <= |b + sum(c * B**e)| < 2**hi, without expanding powers.

    A concrete value gets exact bit-length bounds.  A symbolic one is bounded
    through float logarithms widened by a safety margin far beyond their
    rounding error; lo is -inf unless the top term outweighs everything else
    by a factor of 4, so a cancelling top term never claims a large value.
    """
    terms = [(e, c) for e, c in terms if c != 0]
    if not terms:
        n = abs(b).bit_length()
        return (float(n - 1) if n else -math.inf), float(n)
    terms.sort()
    log_b = math.log2(B)
    top_e, top_c = terms[-1]
    try:
        top = math.log2(abs(top_c)) + top_e * log_b
        lower = [math.log2(abs(c)) + e * log_b for e, c in terms[:-1]]
    except OverflowError:  # an exponent beyond the float range
        return -math.inf, math.inf
    if top == math.inf:  # e log2 B beyond it
        return -math.inf, math.inf
    if b:
        lower.append(math.log2(abs(b)))
    margin = 1e-9 * (1.0 + max(map(abs, [top, *lower])))
    if not lower:
        return top - margin, top + margin
    # the lower pieces sum to less than len(lower) * 2**max(lower)
    rest = max(lower) + math.log2(len(lower)) + margin
    if top - margin >= rest + 2:
        # |rest| <= |top| / 4, so the value lies within [3/4, 5/4] of the top term
        return top - margin + math.log2(0.75), top + margin + math.log2(1.25)
    return -math.inf, max(top + margin, rest) + 1


def _bit_lengths(col: np.ndarray) -> np.ndarray:
    """abs(v).bit_length() of every entry of an int64 or object column, exactly."""
    if col.dtype != np.int64:
        return np.fromiter(map(int.bit_length, map(abs, col.tolist())), np.int64, len(col))
    mag = np.abs(col).view(np.uint64)  # -2^63 included
    n = np.frexp(mag.astype(np.float64))[1].astype(np.int64)
    # rounding to float can carry into the next power of two
    top = np.left_shift(np.uint64(1), np.maximum(n - 1, 0).astype(np.uint64))
    return n - ((n > 0) & (mag < top))


def _floats(col: np.ndarray) -> np.ndarray:
    """float(e) per entry, inf where an exact int is beyond the float range."""
    try:
        return col.astype(np.float64)
    except OverflowError:
        return np.array([e if e.bit_length() < 1024 else math.inf for e in col.tolist()],
                        dtype=np.float64)


def log2_bound_columns(xs: np.ndarray, ys: np.ndarray, terms: KickTerms | None,
                       p: MatrixParams | None) -> tuple[np.ndarray, np.ndarray]:
    """``scalar_log2_bounds`` of every value on both axes, from its columns.

    Returns (lo, hi), each of shape (len(xs), 2) with column 0 for x, equal
    to ``scalar_log2_bounds(*scalar_parts(v, p, axis))`` for each value v
    that the base columns and the unfolded ``terms`` describe (the terms of
    one value in exponent order, as ``value_columns`` gives them).  A
    coordinate with no nonzero term gets its bit length.  For the others,
    the logs are ``math.log2`` of Python scalars (``np.log2`` may differ in
    the last place) and the rest of the formula runs, step for step, in
    float64 arrays.
    """
    lo, hi = np.empty((len(xs), 2)), np.empty((len(xs), 2))
    for axis, col in enumerate((xs, ys)):
        n = _bit_lengths(col)
        lo[:, axis] = np.where(n > 0, n - 1, -np.inf)
        hi[:, axis] = n
        comp = None if terms is None else terms[2 + axis]
        live = np.flatnonzero(comp != 0) if comp is not None else ()
        if not len(live):
            continue
        if p is None:
            raise LatticeError("params required for symbolic coordinate")
        log_b = math.log2(p.base_x if axis == 0 else p.base_y)
        index = terms.index[live]
        # the rows of one value are contiguous and in exponent order: its last is the top
        values, first, count = np.unique(index, return_index=True, return_counts=True)
        last = first + count - 1
        piece = (np.fromiter(map(math.log2, map(abs, comp[live].tolist())), np.float64, len(live))
                 + _floats(terms.exponent[live]) * log_b)
        top = piece[last]
        is_last = np.zeros(len(live), dtype=bool)
        is_last[last] = True
        base = col[values]
        has_base = base != 0
        # log2 |b| >= 0, and -inf for b = 0, which is no piece
        log_base = np.full(len(values), -np.inf)
        log_base[has_base] = list(map(math.log2, map(abs, base[has_base].tolist())))
        n_lower = count - 1 + has_base
        # per value, the largest lower piece and the largest |piece|
        low = np.maximum(np.maximum.reduceat(np.where(is_last, -np.inf, piece), first),
                         log_base)
        big = np.maximum(np.maximum.reduceat(np.where(is_last, -np.inf, np.abs(piece)), first),
                         np.maximum(np.abs(top), log_base))
        log_n = np.array([math.log2(k) if k else 0.0 for k in range(int(n_lower.max()) + 1)])
        with np.errstate(invalid="ignore"):  # inf - inf where an exponent overflows
            margin = 1e-9 * (1.0 + big)
            rest = low + log_n[n_lower] + margin
            alone = n_lower == 0
            dominant = ~alone & (top - margin >= rest + 2)
            v_lo = np.where(alone, top - margin,
                            np.where(dominant, top - margin + math.log2(0.75), -np.inf))
            v_hi = np.where(alone, top + margin,
                            np.where(dominant, top + margin + math.log2(1.25),
                                     np.maximum(top + margin, rest) + 1))
        overflow = top == np.inf  # an exponent beyond the float range
        lo[values, axis] = np.where(overflow, -np.inf, v_lo)
        hi[values, axis] = np.where(overflow, np.inf, v_hi)
    return lo, hi


def scalar_cmp_frac(b: int, terms, B: int, bound: Fraction) -> int:
    """Exact sign of (b + sum c*B^e) - bound for a rational bound."""
    num, den = bound.numerator, bound.denominator
    scaled = [(e, c * den) for e, c in terms]
    return scalar_sign(b * den - num, scaled, B)


def scalar_abs_lt(b: int, terms, B: int, bound: Fraction) -> bool:
    """Exact |b + sum c*B^e| < bound."""
    if bound <= 0:
        return False
    return (
        scalar_cmp_frac(b, terms, B, bound) < 0
        and scalar_cmp_frac(b, terms, B, -bound) > 0
    )
