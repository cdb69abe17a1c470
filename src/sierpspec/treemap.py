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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .lattice import (
    LatticeError,
    MatrixParams,
    SymVec,
    Vec,
    enumerate_digit_sets,
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


def zero_offsets(k: int) -> int:
    return 0


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
        cat = enumerate_digit_sets(p)
        if self.kick == (0, 0) or self.kick not in cat.e_q1:
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


@dataclass(frozen=True)
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


def lambda_of_index(mapping: Mapping, p: MatrixParams, k: int) -> SpectrumPoint:
    """Exact spectrum point lambda_k = sum_j A^(j-1) tau(prefix_j) (+ kick term)."""
    w = index_to_word(k)
    step = p.primary_digit
    if isinstance(mapping, CanonicalMapping) or k == 0:
        x = y = 0
        for letter in reversed(w):
            x = x * p.base_x + letter * step[0]
            y = y * p.base_y + letter * step[1]
        return SpectrumPoint(k=k, word=w, value=SymVec(base=(x, y)))
    x = y = 0
    for j in range(len(w), 0, -1):
        dx, dy = tau_eval(mapping, w[:j], p)
        x = x * p.base_x + dx
        y = y * p.base_y + dy
    m = mapping.offsets(k)
    if m == 0:
        return SpectrumPoint(k=k, word=w, value=SymVec(base=(x, y)))
    kick = mapping.resolve_kick(p)
    exponent = len(w) + m - 1
    value = make_sym((x, y), [(exponent, kick)], p)
    return SpectrumPoint(k=k, word=w, value=value, kick_position=len(w) + m)


@dataclass(frozen=True)
class SpectrumPrefix:
    """Finite, k-ordered slice of a generated spectrum."""

    params: MatrixParams
    points: tuple[SpectrumPoint, ...]
    index_bound: int

    def __len__(self) -> int:
        return len(self.points)

    def point(self, k: int) -> SpectrumPoint:
        return self.points[k + self.index_bound]

    def subset(self, keep) -> tuple[SpectrumPoint, ...]:
        return tuple(pt for pt in self.points if keep(pt.k))


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
    """All points with |k| <= bound (or word length <= level), ordered by k."""
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
    points = tuple(
        lambda_of_index(mapping, p, k) for k in range(-index_bound, index_bound + 1)
    )
    return SpectrumPrefix(params=p, points=points, index_bound=index_bound)


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
    cat = enumerate_digit_sets(p)
    e_q1 = set(cat.e_q1)
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
            ok = leader in e_q1 and all(
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
