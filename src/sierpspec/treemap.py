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

Points are built from their tree parents.  The word of k != 0 is
word(h) 0^run sign(k) with head h = k - sign(k) 3^(n-1) and n = len(word(k)),
so |h| < |k| and the digit sum of k is that of h plus at most two terms
(see ``_child``): a constant number of big-int operations per point, where a
rebuild from the root costs O(n), and O(n^2) for kicked mappings.

Canonical prefixes skip the per-point step altogether: their points are
lambda(k) = sum_j d_j(k) A^j (q1, -q2) over the balanced-ternary digits d_j(k)
of k, computed for every k at once as two numpy columns, and a
``SpectrumPoint`` is built only when one is read.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    I64_COORD,
    ColumnValues,
    LatticeError,
    MatrixParams,
    SymVec,
    Vec,
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

    def describe(self) -> str:
        return "table:" + ",".join(f"{k}:{m}" for k, m in sorted(self.table.items()))


class SquareOffsets:
    """m_k = k**2 (plus an optional variant bit) for every index the predicate kicks.

    ``kicked(k)`` selects which indices receive a kick; bits cycle through
    ``variant_bits`` in the order kicked indices appear along 1, -1, 2, -2, ...
    so distinct bit tuples give point sets differing at the first index whose
    bit differs.  Offsets stay strictly increasing along each sign branch.
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
    letter of k's word), the recurrence ``enumerate_spectrum`` uses.
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

    ``points`` is a tuple, or for a canonical prefix a read-only sequence over
    coordinate columns that builds its points on demand; either compares and
    hashes like the tuple of its points.
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


class _CanonicalPoints(Sequence):
    """The canonical points lambda(k), |k| <= bound, kept as two coordinate columns.

    ``xs[i]``, ``ys[i]`` are the coordinates of lambda(i - bound): int64 arrays
    when every coordinate is below 2^62 in absolute value, object arrays of
    Python ints otherwise; ``point_values`` hands them on as
    ``lattice.ColumnValues``.  Reading one item builds one ``SpectrumPoint``;
    the first full iteration builds the tuple of all of them once and keeps
    it.  Compares and hashes like that tuple.
    """

    __slots__ = ("xs", "ys", "bound", "_points")

    def __init__(self, xs: np.ndarray, ys: np.ndarray, bound: int):
        xs.flags.writeable = ys.flags.writeable = False  # the points must not drift
        self.xs, self.ys, self.bound = xs, ys, bound
        self._points: tuple[SpectrumPoint, ...] | None = None

    def __len__(self) -> int:
        return 2 * self.bound + 1

    def __getitem__(self, i):
        if isinstance(i, slice) or self._points is not None:
            return self._tuple()[i]
        i = operator.index(i)
        j = i + len(self) if i < 0 else i
        if not 0 <= j < len(self):
            raise IndexError(f"point index {i} out of range for {len(self)} points")
        k = j - self.bound
        return SpectrumPoint(k, index_to_word(k), SymVec((int(self.xs[j]), int(self.ys[j]))))

    def __iter__(self):
        # a generator, so that only the first next() builds the points
        yield from self._tuple()

    def _tuple(self) -> tuple[SpectrumPoint, ...]:
        if self._points is None:
            ks = range(-self.bound, self.bound + 1)
            values = map(SymVec, zip(self.xs.tolist(), self.ys.tolist()))
            self._points = tuple(map(SpectrumPoint, ks, map(index_to_word, ks), values))
        return self._points

    def __eq__(self, other):
        if isinstance(other, (tuple, _CanonicalPoints)):
            return self._tuple() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return f"_CanonicalPoints(bound={self.bound}, dtype={self.xs.dtype})"


def central_points(points: Sequence[SpectrumPoint], bound: int) -> Sequence[SpectrumPoint]:
    """The points with |k| <= bound; a canonical prefix's as views of its columns."""
    if isinstance(points, _CanonicalPoints):
        bound = min(bound, points.bound)
        middle = slice(points.bound - bound, points.bound + bound + 1)
        return _CanonicalPoints(points.xs[middle], points.ys[middle], bound)
    return [pt for pt in points if abs(pt.k) <= bound]


def point_values(points) -> Sequence[SymVec]:
    """The values of points, ``SymVec``s or integer pairs, in order: a view over
    a canonical prefix's columns, else a list."""
    if isinstance(points, _CanonicalPoints):
        return ColumnValues(points.xs, points.ys)
    return [
        item.value if isinstance(item, SpectrumPoint)
        else item if isinstance(item, SymVec)
        else _pair_value(item)
        for item in points
    ]


def _pair_value(pair) -> SymVec:
    x, y = pair
    return SymVec((int(x), int(y)))


def _canonical_points(p: MatrixParams, bound: int) -> _CanonicalPoints:
    """lambda(k) = sum_j d_j(k) A^j (q1, -q2) for all |k| <= bound, one word length at a time.

    |lambda(k)| < (3 q2)^n / 2 per coordinate, n the length of the longest
    word, which decides int64 or exact object columns up front.
    """
    dtype = np.int64 if p.base_y ** len(index_to_word(bound)) < 2 * I64_COORD else object
    return _CanonicalPoints(*_canonical_columns(p, bound, dtype), bound)


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

    A canonical mapping gets its points as numpy columns (``_canonical_points``),
    built into ``SpectrumPoint``s only when read.  A kicked mapping fills a
    tuple by word length, each point in one ``_child`` step from its head, so
    the cost is O(1) big-int operations per point.  Only kicked indices keep
    their unfolded digit sum on the side; every other head's sum is its own
    value.base.
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
    # Fill by word length: the head of every k is shorter, so already built.
    # Within a length k ascends, so a walk over the points in k order meets
    # them mostly in the order they were allocated (better cache locality).
    points: list[SpectrumPoint] = [_ROOT] * (2 * index_bound + 1)
    kicked: dict[int, tuple[int, Vec]] = {}  # k -> (m_k, S(k)) for m_k != 0
    n, top = 1, 1  # top = 3^(n-1)
    while (top + 1) // 2 <= index_bound:
        scale = (p.base_x ** (n - 1), p.base_y ** (n - 1))
        lo, hi = (top + 1) // 2, min((3 * top - 1) // 2, index_bound)
        for k in itertools.chain(range(-hi, 1 - lo), range(lo, hi + 1)):
            h = k - top if k > 0 else k + top
            head = points[h + index_bound]
            head_m, head_sum = kicked.get(h) or (0, head.value.base)
            pt, m, digit_sum = _child(mapping, p, k, n, scale, head, head_m, head_sum)
            points[k + index_bound] = pt
            if m:
                kicked[k] = (m, digit_sum)
        n, top = n + 1, 3 * top
    return SpectrumPrefix(params=p, points=tuple(points), index_bound=index_bound)


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
