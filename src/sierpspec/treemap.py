"""Tree mappings on ternary words, the index <-> word codec, and spectrum enumeration.

A tree mapping assigns a digit from the residue box Gamma to every finite word
over {-1, 0, 1}; candidate spectrum points arise as digit sums along branches,
lambda = sum_j A^(j-1) * digit_j.  The canonical mapping reads the digit off
the last letter; kicked mappings additionally place a fixed nonzero digit
("kick") at offset m_k on the trailing-zero tail of the word indexed by k.

Kicked mappings come in two flavours.  ``literal`` applies the kick digit at
the kick node only, which breaks the sibling-coherence rule that all three
children of a node differ by multiples of (q1, -q2) modulo A; ``coherent``
shifts all three children of a kick parent by the kick digit, restoring the
rule (and with it, certified orthogonality of the generated set).

Every prefix is kept as a column store (``_ColumnPoints``): the index k of
each row, the digit sum S(k) without k's own kick term, as two numpy
columns, the exponent n + m_k - 1 of that term, and the kick digit.
``take_rows`` gives a store of any increasing subsequence of those rows, such
as the two parts of ``IntermediateSpec.split``.  The word of k != 0 is
word(h) 0^run sign(k) with head h = k - sign(k) 3^(n-1), n = len(word(k)), so
|h| < |k|, and S(k) is S(h) plus at most two terms (see ``_child``).  A
kicked prefix is filled one word length at a time from its heads, a few
array operations per length; the offsets m_k come from the index column at
once (``SquareOffsets.column``).  A canonical prefix takes lambda(k) =
sum_j d_j(k) A^j (q1, -q2) over the balanced-ternary digits d_j(k) of k.  A
``SpectrumPoint`` is built only when one is read, its value through
``make_sym``, which folds a kick of exponent at most 64 into the base; the
certifiers read the columns with the kick terms unfolded, which keeps every
base of the kicked families in int64.  A store's columns are read-only, so
what readers derive from them, the columns with the small kicks folded and
the q-sum phase rows, is kept in the store's one ``cache`` dict; a store of
some rows of another keeps its own.
"""

from __future__ import annotations

import itertools
import operator
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    I64_COORD,
    ColumnValues,
    KickTerms,
    LatticeError,
    MatrixParams,
    SymVec,
    Vec,
    fits_int64,
    in_e_q1,
    in_gamma,
    make_sym,
    mod_a_reduce,
    signed_expansion,
    signed_value,
)

Word = tuple[int, ...]

MAX_ENUMERATION_POINTS = 10_000_000


class WordError(ValueError):
    """Malformed ternary word."""


class KickError(LatticeError):
    """Inadmissible kick digit for the given parameters."""


def index_to_word(k: int) -> Word:
    """Bijection from integers to ternary words with nonzero last letter (0 <-> empty)."""
    return tuple(signed_expansion(k, 3))


def word_to_index(w: Word) -> int:
    """Inverse codec: k = sum of letters[j] * 3**j.  Rejects trailing-zero words."""
    if w and w[-1] == 0:
        raise WordError(f"index words may not end in 0: {w}")
    if any(letter not in (-1, 0, 1) for letter in w):
        raise WordError(f"letters must lie in {{-1,0,1}}: {w}")
    return signed_value(w, 3)


def _strip_zeros(w: Word) -> tuple[Word, int]:
    """Split w = J 0^l with J empty or ending in a nonzero letter."""
    n = len(w)
    while n and w[n - 1] == 0:
        n -= 1
    return w[:n], len(w) - n


# ---------------------------------------------------------------------------
# Offset rules: k -> m_k (0 means "no kick on branch k")
# ---------------------------------------------------------------------------


class TableOffsets:
    """Finite table of kick offsets; indices absent from the table get 0."""

    def __init__(self, table: dict[int, int]):
        for k, m in table.items():
            if k == 0 or m < 0:
                raise LatticeError("offsets require k != 0 and m >= 0")
        self.table = dict(table)

    def __call__(self, k: int) -> int:
        return self.table.get(k, 0)

    def column(self, bound: int) -> np.ndarray:
        """m_k for k = -bound..bound, in order."""
        m = np.zeros(2 * bound + 1, dtype=np.int64)
        for k, mk in self.table.items():
            if abs(k) <= bound:
                m[k + bound] = mk
        return m


class SquareOffsets:
    """m_k = k**2 (plus an optional variant bit) for every index the predicate kicks.

    ``kicked(k)`` selects which indices receive a kick; bits cycle through
    ``variant_bits`` in the order kicked indices appear along 1, -1, 2, -2, ...
    so distinct bit tuples give point sets differing at the first index whose
    bit differs.  Offsets stay strictly increasing along each sign branch.
    A predicate with a ``mask(ks)`` method, which evaluates it on an index
    column, lets ``column`` make no per-index Python call.
    """

    def __init__(self, kicked, variant_bits: tuple[int, ...] = ()):
        self.kicked = kicked
        self.variant_bits = tuple(int(b) & 1 for b in variant_bits)
        self._rank_cache: dict[int, int] = {}
        self._scan_order: list[int] = []
        self._scan_upto = 0

    def _rank(self, k: int) -> int:
        # rank of k among kicked indices ordered 1, -1, 2, -2, ...
        if k in self._rank_cache:
            return self._rank_cache[k]
        while self._scan_upto < abs(k):
            self._scan_upto += 1
            for cand in (self._scan_upto, -self._scan_upto):
                if self.kicked(cand):
                    self._rank_cache[cand] = len(self._scan_order)
                    self._scan_order.append(cand)
        return self._rank_cache[k]

    def __call__(self, k: int) -> int:
        if k == 0 or not self.kicked(k):
            return 0
        bit = 0
        if self.variant_bits:
            bit = self.variant_bits[self._rank(k) % len(self.variant_bits)]
        return k * k + bit

    def column(self, bound: int) -> np.ndarray:
        """m_k for k = -bound..bound, in order; the variant-bit ranks come from one
        cumulative sum over the kicked flags in the order 1, -1, 2, -2, ..."""
        ks = np.arange(-bound, bound + 1)
        mask = getattr(self.kicked, "mask", None)
        if mask is not None:
            kicked = mask(ks)
        else:
            kicked = np.fromiter(map(self.kicked, ks.tolist()), dtype=bool, count=len(ks))
        kicked[bound] = False
        m = np.where(kicked, ks * ks, 0)
        if self.variant_bits and bound:
            pos, neg = kicked[bound + 1:], kicked[:bound][::-1]  # k = 1, 2, ... and -1, -2, ...
            order = np.empty(2 * bound, dtype=np.int64)
            order[0::2], order[1::2] = pos, neg
            bits = np.array(self.variant_bits)[(np.cumsum(order) - 1) % len(self.variant_bits)]
            m[bound + 1:] += bits[0::2] * pos
            m[:bound] += (bits[1::2] * neg)[::-1]
        return m


# ---------------------------------------------------------------------------
# Mappings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalMapping:
    """tau(word) = (last letter) * (q1, -q2); generates the maximal lattice spectrum."""

    kind: str = field(default="canonical", init=False)


class KickedMapping:
    """Kick-perturbed mapping with per-index offsets and a fixed kick digit.

    kick=None selects the default digit (q1/4, -q2/4), admissible only when
    4 | q1 and 4 | q2; any other digit must come from the coset-leader set
    E_q1 minus the origin.  mode is "coherent" or "literal" (see module doc).
    """

    kind = "kicked"

    def __init__(self, offsets, kick: Vec | None = None, mode: str = "coherent"):
        if mode not in ("coherent", "literal"):
            raise LatticeError(f"unknown kick mode: {mode}")
        self.offsets = offsets
        self.kick = kick
        self.mode = mode
        self._resolved: dict[MatrixParams, Vec] = {}

    def resolve_kick(self, p: MatrixParams) -> Vec:
        cached = self._resolved.get(p)
        if cached is not None:
            return cached
        digit = self._resolve_kick_uncached(p)
        self._resolved[p] = digit
        return digit

    def _resolve_kick_uncached(self, p: MatrixParams) -> Vec:
        if self.kick is None:
            if p.q1 % 4 or p.q2 % 4:
                raise KickError(
                    f"default kick digit (q1/4, -q2/4) is not integral for "
                    f"(q1, q2) = ({p.q1}, {p.q2}); pass an explicit kick digit "
                    "from E_q1 minus the origin"
                )
            return (p.q1 // 4, -(p.q2 // 4))
        if self.kick == (0, 0) or not in_e_q1(self.kick, p):
            raise KickError(
                f"kick digit {self.kick} must lie in E_q1 \\ {{(0,0)}} for "
                f"(q1, q2) = ({p.q1}, {p.q2})"
            )
        return self.kick


Mapping = CanonicalMapping | KickedMapping


def tau_eval(mapping: Mapping, w: Word, p: MatrixParams) -> Vec:
    """The digit tau(w) in Gamma assigned by the mapping to a nonempty word."""
    if not w:
        raise WordError("tau is defined on nonempty words")
    last = w[-1]
    step = p.primary_digit
    if isinstance(mapping, CanonicalMapping):
        return (last * step[0], last * step[1])
    offsets = mapping.offsets
    if last == 0:
        head, run = _strip_zeros(w)
        if head and offsets(word_to_index(head)) == run:
            return mapping.resolve_kick(p)
        return (0, 0)
    if mapping.mode == "coherent":
        parent_head, parent_run = _strip_zeros(w[:-1])
        if parent_head and offsets(word_to_index(parent_head)) == parent_run + 1:
            # child of a kick parent: all siblings shift by the kick digit
            kick = mapping.resolve_kick(p)
            return mod_a_reduce(
                (kick[0] + last * step[0], kick[1] + last * step[1]), p
            )
    return (last * step[0], last * step[1])


@dataclass(frozen=True, slots=True)
class SpectrumPoint:
    """One indexed point of a generated spectrum prefix.

    value keeps the exact coordinates (symbolic when the kick exponent is
    large); kick_position is the digit position n + m_k of the kick, if any.
    """

    k: int
    word: Word
    value: SymVec
    kick_position: int | None = None

    def concrete(self, p: MatrixParams) -> Vec:
        return self.value.materialize(p)


def _child(
    mapping: Mapping,
    p: MatrixParams,
    k: int,
    n: int,
    scale: Vec,
    head: SpectrumPoint,
    head_m: int,
    head_sum: Vec,
) -> tuple[SpectrumPoint, int, Vec]:
    """Point k (word length n) from its head h = k - sign(k) 3^(n-1).

    scale is A^(n-1) as the pair ((3 q1)^(n-1), (3 q2)^(n-1)), head_m the
    offset m_h (0 for the root) and head_sum the digit sum S(h) of h's own
    word without h's kick term (which make_sym may have folded into
    head.value.base).  With word(k) = word(h) 0^run sign(k):

        S(k) = S(h) + A^(len(h)+m_h-1) kick   if 1 <= m_h <= run
                    + A^(n-1) tau(word(k)),

    where tau is kick + sign(k) (q1, -q2) mod A for a child of h's kick
    parent (m_h == run + 1, coherent mode) and sign(k) (q1, -q2) otherwise:
    the same digits ``tau_eval`` assigns.  Returns (point, m_k, S(k)).
    """
    last = 1 if k > 0 else -1
    run = n - 1 - len(head.word)
    word = head.word + (0,) * run + (last,)
    x, y = head_sum
    dx, dy = last * p.q1, -last * p.q2
    if 1 <= head_m <= run:
        kx, ky = mapping.resolve_kick(p)
        e = len(head.word) + head_m - 1
        x += p.base_x**e * kx
        y += p.base_y**e * ky
    elif head_m == run + 1 and mapping.mode == "coherent":
        kx, ky = mapping.resolve_kick(p)
        dx, dy = mod_a_reduce((kx + dx, ky + dy), p)
    x += scale[0] * dx
    y += scale[1] * dy
    m = 0 if isinstance(mapping, CanonicalMapping) else mapping.offsets(k)
    if m == 0:
        return SpectrumPoint(k, word, SymVec((x, y))), 0, (x, y)
    value = make_sym((x, y), [(n + m - 1, mapping.resolve_kick(p))], p)
    return SpectrumPoint(k, word, value, kick_position=n + m), m, (x, y)


_ROOT = SpectrumPoint(k=0, word=(), value=SymVec(base=(0, 0)))


def lambda_of_index(mapping: Mapping, p: MatrixParams, k: int) -> SpectrumPoint:
    """Exact spectrum point lambda_k = sum_j A^(j-1) tau(prefix_j) (+ kick term).

    Walks the chain of heads from the root (one ``_child`` step per nonzero
    letter of k's word), the recurrence ``_kicked_points`` runs on arrays.
    """
    point, m, digit_sum = _ROOT, 0, (0, 0)
    prefix = 0
    for j, letter in enumerate(index_to_word(k)):
        if letter:
            prefix += letter * 3**j
            scale = (p.base_x**j, p.base_y**j)
            point, m, digit_sum = _child(mapping, p, prefix, j + 1, scale, point, m, digit_sum)
    return point


@dataclass(frozen=True)
class SpectrumPrefix:
    """Finite, k-ordered slice of a generated spectrum.

    ``points`` is, for an enumerated prefix, a read-only sequence over
    coordinate columns that builds its points on demand (``_ColumnPoints``),
    or a tuple; either compares and hashes like the tuple of its points.
    """

    params: MatrixParams
    points: Sequence[SpectrumPoint]
    index_bound: int

    def __len__(self) -> int:
        return len(self.points)

    def point(self, k: int) -> SpectrumPoint:
        if abs(k) > self.index_bound:
            raise IndexError(f"index {k} outside the prefix bound |k| <= {self.index_bound}")
        return self.points[k + self.index_bound]


class _ColumnPoints(Sequence):
    """The points lambda(k) of one mapping, for an increasing column of indices
    k, kept as columns.

    ``ks[i]`` is the index of row i, and ``xs[i]``, ``ys[i]`` hold the digit
    sum of that k without k's own kick term: int64 arrays when every
    coordinate is below 2^62 in absolute value, object arrays of Python ints
    otherwise.  A kicked mapping's store also keeps ``exps[i]``, the exponent
    n + m_k - 1 of k's kick term (0 when k has none) and the kick digit; a
    canonical one has none (None).  Every store keeps its params.
    ``point_values`` hands the columns on as
    ``lattice.ColumnValues``, with the kick terms unfolded, the params and the
    store's ``cache``: what readers derive from the fixed columns, the folded
    columns and q-sum phase rows, is kept there as long as the store lives.
    Reading one item builds one ``SpectrumPoint``, its value through
    ``make_sym`` as ``_child`` builds it; the first full
    iteration builds the tuple of all of them once, keeps it, and registers
    the store so that ``point_values`` reads a list of those points from the
    columns.  Compares and hashes like that tuple.
    """

    __slots__ = ("xs", "ys", "ks", "exps", "kick", "params", "cache", "_points",
                 "__weakref__")

    def __init__(self, xs: np.ndarray, ys: np.ndarray, ks: np.ndarray,
                 exps: np.ndarray | None = None, kick: Vec | None = None,
                 params: MatrixParams | None = None):
        for col in (xs, ys, ks) if exps is None else (xs, ys, ks, exps):
            col.flags.writeable = False  # the points must not drift
        self.xs, self.ys, self.ks = xs, ys, ks
        self.exps, self.kick, self.params = exps, kick, params
        self.cache: dict = {}
        self._points: tuple[SpectrumPoint, ...] | None = None

    def __len__(self) -> int:
        return len(self.ks)

    def __getitem__(self, i):
        if isinstance(i, slice) or self._points is not None:
            return self._tuple()[i]
        i = operator.index(i)
        k = int(self.ks[i])  # an IndexError past either end, as a tuple's
        base = (int(self.xs[i]), int(self.ys[i]))
        e = 0 if self.exps is None else int(self.exps[i])
        if not e:
            return SpectrumPoint(k, index_to_word(k), SymVec(base))
        value = make_sym(base, [(e, self.kick)], self.params)
        return SpectrumPoint(k, index_to_word(k), value, kick_position=e + 1)

    def __iter__(self):
        # a generator, so that only the first next() builds the points
        yield from self._tuple()

    def _tuple(self) -> tuple[SpectrumPoint, ...]:
        if self._points is None:
            ks = self.ks.tolist()
            positions = itertools.repeat(None)
            if self.exps is not None:
                positions = [e + 1 if e else None for e in self.exps.tolist()]
            self._points = tuple(map(SpectrumPoint, ks, map(index_to_word, ks),
                                     point_values(self), positions))
            _BUILT[id(self)] = self
        return self._points

    def __eq__(self, other):
        if isinstance(other, (tuple, _ColumnPoints)):
            return self._tuple() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return f"_ColumnPoints(len={len(self)}, dtype={self.xs.dtype})"


def take_rows(points: Sequence[SpectrumPoint], rows) -> Sequence[SpectrumPoint]:
    """The items of points at the increasing positions ``rows`` (an index column
    or a slice): a column store's as a new store of those rows of its columns,
    with its kick digit and params and a cache of its own, building no point;
    any other sequence's as a tuple of those items."""
    if isinstance(points, _ColumnPoints):
        exps = None if points.exps is None else points.exps[rows]
        return _ColumnPoints(points.xs[rows], points.ys[rows], points.ks[rows], exps,
                             points.kick, points.params)
    return tuple(map(points.__getitem__, rows.tolist()))


def central_points(points: Sequence[SpectrumPoint], bound: int) -> Sequence[SpectrumPoint]:
    """The points with |k| <= bound; a column store's as views of its columns."""
    if isinstance(points, _ColumnPoints):
        ks = points.ks
        return take_rows(points, slice(np.searchsorted(ks, -bound),
                                       np.searchsorted(ks, bound, side="right")))
    return [pt for pt in points if abs(pt.k) <= bound]


def resolve_points(points, p: MatrixParams | None = None, *, need_params: bool = True):
    """(points, values, params) for every check and estimator: the items as a
    sequence, their values (``point_values``) and their params.

    ``points`` may be a ``SpectrumPrefix``, a column store (its own, or a part
    of ``IntermediateSpec.split``), a list or tuple of ``SpectrumPoint``s
    (such as ``list(prefix.points)`` or a file's points), ``SymVec``s or integer
    pairs, possibly mixed, a ``lattice.ColumnValues``, or any other iterable
    of these, which is made a list once.  The params come from the prefix,
    else from ``p``, else from the values of a column store, which keep its
    params.  The checks need them (``need_params``: a ValueError when none
    of these gives them); the estimators read them only for a kick term,
    where ``lattice`` raises its LatticeError, a ValueError, without them.
    Reports name an item by ``point_label``."""
    if isinstance(points, SpectrumPrefix):
        points, p = points.points, points.params
    elif not isinstance(points, Sequence):
        points = list(points)
    values = point_values(points)
    if p is None:
        p = getattr(values, "params", None)
    if p is None and need_params:
        raise ValueError("params required: pass p, a prefix or the points of a column store")
    return points, values, p


def point_label(points, i: int) -> int:
    """How a report names item i of points: its index k, or the position i for
    an item with none (a ``SymVec`` or an integer pair)."""
    item = points[i]
    return item.k if isinstance(item, SpectrumPoint) else int(i)


def point_indices(points) -> np.ndarray | None:
    """The indices k of points, as a column, or None when some item has none:
    a column store's own ``ks`` column, without building a point."""
    if isinstance(points, _ColumnPoints):
        return points.ks
    if not all(isinstance(pt, SpectrumPoint) for pt in points):
        return None
    return np.array([pt.k for pt in points], dtype=np.int64)


def point_values(points) -> Sequence[SymVec]:
    """The values of points, ``SpectrumPoint``s, ``SymVec``s or integer pairs, in
    order, as ``lattice.ColumnValues`` over a column store's columns where there
    is one, else as a list.

    A column store, an enumerated prefix's or one that ``take_rows`` made
    (such as a part of ``IntermediateSpec.split``), gives its own columns,
    unfolded kick terms and cache; so does a list or tuple of every point a
    store has built, in order (such as ``list(prefix.points)``), recognized by
    its first item, which must be the store's own object, and then compared
    with the store's points, which identity makes quick; equal copies among
    the rest read the same values.  ``ColumnValues`` are handed on as they are."""
    if isinstance(points, ColumnValues):
        return points
    if isinstance(points, _ColumnPoints):
        return _store_values(points)
    if isinstance(points, (list, tuple)) and points and type(points[0]) is SpectrumPoint:
        values = _own_values(points)
        if values is not None:
            return values
    return [
        item.value if isinstance(item, SpectrumPoint)
        else item if isinstance(item, SymVec)
        else _pair_value(item)
        for item in points
    ]


# The column stores that have built their points, by id, for ``point_values``
# to find.  A WeakSet would hash each store, which hashes like its tuple of
# points, and keep one of two equal stores.
_BUILT: weakref.WeakValueDictionary[int, _ColumnPoints] = weakref.WeakValueDictionary()


def _own_values(points) -> ColumnValues | None:
    """The values of a list or tuple of every point one store has built, in
    order, read from the store's columns, or None when it is not one."""
    for store in _BUILT.values():
        own = store._points
        if own and own[0] is points[0]:
            return _store_values(store) if own == tuple(points) else None
    return None


def _store_values(store: _ColumnPoints) -> ColumnValues:
    """A store's values, with its cache: its own arrays, and the kick terms
    unfolded."""
    xs, ys, exps = store.xs, store.ys, store.exps
    index = () if exps is None else np.flatnonzero(exps)
    if not len(index):
        return ColumnValues(xs, ys, params=store.params, cache=store.cache)
    kick = (np.full(len(index), c, dtype=xs.dtype) for c in store.kick)
    return ColumnValues(xs, ys, KickTerms(index, exps[index], *kick), store.params, store.cache)


def _pair_value(pair) -> SymVec:
    x, y = pair
    return SymVec((int(x), int(y)))


def _canonical_points(p: MatrixParams, bound: int) -> _ColumnPoints:
    """lambda(k) = sum_j d_j(k) A^j (q1, -q2) for all |k| <= bound, one word length at a time.

    |lambda(k)| < (3 q2)^n / 2 per coordinate, n the length of the longest
    word, which decides int64 or exact object columns up front.
    """
    dtype = np.int64 if p.base_y ** len(index_to_word(bound)) < 2 * I64_COORD else object
    return _ColumnPoints(*_canonical_columns(p, bound, dtype), np.arange(-bound, bound + 1),
                         params=p)


def _canonical_columns(p: MatrixParams, bound: int, dtype):
    """The x and y columns of lambda(k), k = -bound..bound in order.

    Write k = 3 r + d_0, d_0 in {-1, 0, 1} its first balanced-ternary letter:
    lambda(k) = A lambda(r) + d_0 (q1, -q2), and k runs through the rows of a
    (2 R + 1) x 3 array, r = -R..R with R = (bound + 1) // 3, in order.  So
    each word length takes three strided additions to the columns of the
    next shorter ones, and the arrays made along the way add up to about
    half the output.
    """
    if bound == 0:
        return np.zeros(1, dtype=dtype), np.zeros(1, dtype=dtype)
    rx, ry = _canonical_columns(p, (bound + 1) // 3, dtype)
    rx *= p.base_x  # A lambda(r), in place: the shorter columns are not kept
    ry *= p.base_y
    xs, ys = np.empty(3 * len(rx), dtype=dtype), np.empty(3 * len(ry), dtype=dtype)
    for j, d0 in enumerate((-1, 0, 1)):
        np.add(rx, d0 * p.q1, out=xs[j::3])
        np.add(ry, -d0 * p.q2, out=ys[j::3])
    middle = slice(len(xs) // 2 - bound, len(xs) // 2 + bound + 1)  # k = 0 sits in the middle
    return xs[middle], ys[middle]


def _kicked_points(mapping: KickedMapping, p: MatrixParams, bound: int) -> _ColumnPoints:
    """A kicked mapping's points |k| <= bound as columns, one word length at a time.

    The heads h = k - sign(k) 3^(n-1) of the words of length n are shorter, so
    their digit sums S(h) are in place, and S(k) follows from S(h) by the two
    cases of ``_child``, on whole arrays: h's kick term lands on k's run of
    zeros when 1 <= m_h <= run, and a child of h's kick parent (m_h = run + 1,
    coherent mode) shifts its last digit by the kick.  Each digit lies in
    Gamma, so |S(k)| < (3/4) (3 q2)^n per coordinate, n the length of the
    longest word: int64 columns when (3 q2)^n < 2^62, else exact objects,
    kept as int64 when every sum fits after all.  The kick is resolved only
    when some index in range is kicked.
    """
    m = _offset_column(mapping.offsets, bound)
    kicks = bool(m.any())
    kx, ky = mapping.resolve_kick(p) if kicks else (0, 0)
    n_max = len(index_to_word(bound))
    dtype = np.int64 if p.base_y**n_max < I64_COORD else object
    xs, ys = np.zeros(len(m), dtype=dtype), np.zeros(len(m), dtype=dtype)
    length = np.zeros(len(m), dtype=np.int64)
    pow_x, pow_y = (np.array([b**j for j in range(n_max)], dtype=dtype)
                    for b in (p.base_x, p.base_y))
    hx, hy = p.base_x // 2, p.base_y // 2
    for n in range(1, n_max + 1):
        top = 3 ** (n - 1)
        lo, hi = (top + 1) // 2, min((3 * top - 1) // 2, bound)
        rows = np.r_[bound - hi:bound + 1 - lo, bound + lo:bound + hi + 1]
        sign = np.where(rows > bound, 1, -1).astype(dtype)
        heads = rows - np.where(rows > bound, top, -top)
        run, head_m = n - 1 - length[heads], m[heads]
        x, y = xs[heads], ys[heads]
        dx, dy = sign * p.q1, sign * -p.q2
        if kicks:
            on_run = (head_m >= 1) & (head_m <= run)
            e = (length[heads] + head_m - 1)[on_run]
            x[on_run] += pow_x[e] * kx
            y[on_run] += pow_y[e] * ky
            if mapping.mode == "coherent":
                shift = head_m == run + 1
                dx[shift] = (dx[shift] + kx + hx) % p.base_x - hx
                dy[shift] = (dy[shift] + ky + hy) % p.base_y - hy
        xs[rows] = x + pow_x[n - 1] * dx
        ys[rows] = y + pow_y[n - 1] * dy
        length[rows] = n
    if dtype is object and fits_int64(xs, ys, (kx,), (ky,)):
        xs, ys = xs.astype(np.int64), ys.astype(np.int64)
    return _ColumnPoints(xs, ys, np.arange(-bound, bound + 1),
                         np.where(m != 0, length + m - 1, 0), (kx, ky), p)


def _offset_column(offsets, bound: int) -> np.ndarray:
    """m_k for k = -bound..bound, in order, m_0 = 0: from the offsets' own
    ``column`` when they have one, else one call per index."""
    column = getattr(offsets, "column", None)
    if column is not None:
        return column(bound)
    return np.array([offsets(k) if k else 0 for k in range(-bound, bound + 1)], dtype=np.int64)


def level_index_bound(level: int) -> int:
    """Words of length <= level correspond exactly to |k| <= (3**level - 1) // 2."""
    if level < 0:
        raise ValueError("level must be >= 0")
    return (3**level - 1) // 2


def enumerate_spectrum(
    mapping: Mapping,
    p: MatrixParams,
    *,
    level: int | None = None,
    index_bound: int | None = None,
) -> SpectrumPrefix:
    """All points with |k| <= bound (or word length <= level), ordered by k.

    Points are kept as numpy columns (``_ColumnPoints``) and built into
    ``SpectrumPoint``s only when read: a canonical mapping's by
    ``_canonical_points``, a kicked one's by ``_kicked_points``, which fills
    them by word length from their heads, a few array operations per length.
    """
    if (level is None) == (index_bound is None):
        raise ValueError("specify exactly one of level / index_bound")
    if level is not None:
        index_bound = level_index_bound(level)
    assert index_bound is not None
    if index_bound < 0:
        raise ValueError("index bound must be >= 0")
    if 2 * index_bound + 1 > MAX_ENUMERATION_POINTS:
        raise ValueError(
            f"refusing to enumerate {2 * index_bound + 1} points "
            f"(limit {MAX_ENUMERATION_POINTS})"
        )
    if isinstance(mapping, CanonicalMapping):
        return SpectrumPrefix(p, _canonical_points(p, index_bound), index_bound)
    return SpectrumPrefix(p, _kicked_points(mapping, p, index_bound), index_bound)


@dataclass(frozen=True)
class TreeMappingViolation:
    node: Word
    clause: str  # "zero-spine" | "sibling-coherence" | "tail"
    detail: str


@dataclass(frozen=True)
class TreeMappingReport:
    depth: int
    nodes_checked: int
    violations: tuple[TreeMappingViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def validate_tree_mapping(mapping: Mapping, p: MatrixParams, depth: int) -> TreeMappingReport:
    """Check the maximal-tree-mapping rules on every node down to the given depth.

    Zero-spine rule: children of 0^j carry (letter) * (q1, -q2) exactly.
    Sibling coherence: children of any other node P satisfy
    tau(Pj) == e_P + j*(q1, -q2) mod A for a single leader e_P in E_q1.
    Tail rule: each branch has finitely many nonzero tail digits in range,
    which is structural here; tail kicks found within depth are counted only.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    step = p.primary_digit
    violations: list[TreeMappingViolation] = []
    nodes = 0
    for length in range(0, depth):
        for parent in itertools.product((-1, 0, 1), repeat=length):
            nodes += 1
            children = {
                j: tau_eval(mapping, parent + (j,), p) for j in (-1, 0, 1)
            }
            for j, digit in children.items():
                if not in_gamma(digit, p):
                    violations.append(
                        TreeMappingViolation(
                            parent + (j,), "sibling-coherence",
                            f"digit {digit} outside Gamma",
                        )
                    )
            if all(letter == 0 for letter in parent):
                for j in (-1, 0, 1):
                    expected = (j * step[0], j * step[1])
                    if children[j] != expected:
                        violations.append(
                            TreeMappingViolation(
                                parent + (j,), "zero-spine",
                                f"tau = {children[j]}, expected {expected}",
                            )
                        )
                continue
            leader = mod_a_reduce(children[0], p)
            ok = in_e_q1(leader, p) and all(
                mod_a_reduce(
                    (children[j][0] - j * step[0], children[j][1] - j * step[1]), p
                )
                == leader
                for j in (-1, 1)
            )
            if not ok:
                violations.append(
                    TreeMappingViolation(
                        parent, "sibling-coherence",
                        f"children {children} fit no single leader in E_q1",
                    )
                )
    return TreeMappingReport(depth=depth, nodes_checked=nodes, violations=tuple(violations))
