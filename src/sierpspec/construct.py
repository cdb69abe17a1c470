"""Intermediate-dimension spectrum construction.

For a target dimension t in [0, log3/log(3*q2)] the construction keeps the
canonical digits on an index family Gamma_t of the right density and kicks
every other branch far out (offset k^2, optionally k^2 + 1 per variant bit).
The unkicked part F_t carries dimension t; the kicked part is lacunary with
dimension zero; their union keeps dimension t while remaining a (candidate)
spectrum.  Distinct variant-bit tuples give distinct point sets, one family
per dimension level.

The position density uses d = t * log(3*q2) / log 3: the y-coordinates expand
in base 3*q2, and the closed form d * log3/log(3*q2) must round-trip to t.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .lattice import Beatty, MatrixParams, Vec, folded_columns
from .treemap import (
    KickedMapping,
    SpectrumPoint,
    SpectrumPrefix,
    SquareOffsets,
    enumerate_spectrum,
    index_to_word,
    point_indices,
    point_values,
    take_rows,
    CanonicalMapping,
)

MAX_PATTERN_POINTS = 10_000_000


def t_max(p: MatrixParams) -> float:
    """The optimal upper bound log3/log(3*q2) for spectrum dimensions."""
    return math.log(3) / math.log(p.base_y)


class _ActiveLetters:
    """k -> every nonzero letter of the word of k sits on an active position of
    the pattern (Gamma_t), or with ``outside`` its complement, the indices the
    construction kicks.  ``mask`` evaluates it on a column of indices at once."""

    def __init__(self, pattern, outside: bool = False):
        self.pattern, self.outside = pattern, outside

    def __call__(self, k: int) -> bool:
        inside = all(
            letter == 0 or self.pattern.active(j)
            for j, letter in enumerate(index_to_word(k), start=1)
        )
        return inside != self.outside

    def mask(self, ks) -> np.ndarray:
        """The predicate on every index of ks.  With H = (3^n - 1) / 2 and n the
        longest word, k + H has the ternary digits letter + 1, so a letter at
        position j is zero exactly when digit j - 1 of k + H is 1."""
        ks = np.asarray(ks)
        n = len(index_to_word(int(np.max(np.abs(ks), initial=0))))
        shifted = ks + (3**n - 1) // 2
        inside = np.ones(len(ks), dtype=bool)
        for j in range(1, n + 1):
            if not self.pattern.active(j):
                inside &= shifted // 3 ** (j - 1) % 3 == 1
        return inside != self.outside


def gamma_t_from_density(t: float, p: MatrixParams):
    """Position pattern and index predicate realizing dimension t.

    Returns (pattern, member) where the Beatty pattern has density
    d = t * log(3*q2)/log 3 and member(k) is True iff every nonzero letter of
    the word of k sits on an active position; ``member.mask(ks)`` evaluates it
    on a column of indices.
    """
    tmax = t_max(p)
    if not -1e-12 <= t <= tmax + 1e-12:
        raise ValueError(f"t must lie in [0, {tmax:.6f}], got {t}")
    d = min(1.0, max(0.0, t * math.log(p.base_y) / math.log(3)))
    pattern = Beatty(density=d)
    return pattern, _ActiveLetters(pattern)


def pattern_lattice_points(
    p: MatrixParams, pattern, depth: int, digit_set=None
) -> list[Vec]:
    """All digit sums over active positions <= depth with digits from the set.

    With the canonical three-element digit set this generates exactly the
    dimension-t sublattice family used by the closed-form oracles.
    """
    if digit_set is None:  # the canonical three digits, without building Gamma
        digit_set = ((0, 0), (p.q1, -p.q2), (-p.q1, p.q2))
    digits = tuple(digit_set)
    active = [j for j in range(1, depth + 1) if pattern.active(j)]
    if len(digits) ** len(active) > MAX_PATTERN_POINTS:
        raise ValueError("pattern set too large to enumerate")
    max_x = max(abs(d[0]) for d in digits) * sum(p.base_x ** (j - 1) for j in active)
    max_y = max(abs(d[1]) for d in digits) * sum(p.base_y ** (j - 1) for j in active)
    if max(max_x, max_y, 1).bit_length() < 62:
        arr = np.zeros((1, 2), dtype=np.int64)
        base = np.array(digits, dtype=np.int64)
        for j in active:
            scaled = base * np.array([p.base_x ** (j - 1), p.base_y ** (j - 1)])
            arr = (arr[:, None, :] + scaled[None, :, :]).reshape(-1, 2)
        # sorted by (x, y); a row equal to the one before it is a repeat
        xs, ys = arr[np.lexsort((arr[:, 1], arr[:, 0]))].T
        keep = np.ones(len(xs), dtype=bool)
        keep[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
        return list(zip(xs[keep].tolist(), ys[keep].tolist()))
    points = set()
    for combo in itertools.product(digits, repeat=len(active)):
        x = y = 0
        for j, (dx, dy) in zip(active, combo):
            x += p.base_x ** (j - 1) * dx
            y += p.base_y ** (j - 1) * dy
        points.add((x, y))
    return sorted(points)


@dataclass
class IntermediateSpec:
    """A finitely-describable kicked mapping targeting dimension t.

    variant_bits cycle over the kicked indices (ordered 1, -1, 2, -2, ...) and
    select the offset k^2 or k^2 + 1; offsets stay strictly increasing along
    each sign branch either way.
    """

    t: float
    params: MatrixParams
    kick: Vec | None = None
    mode: str = "coherent"
    variant_bits: tuple[int, ...] = ()
    density: float = field(init=False)
    pattern: Beatty = field(init=False)

    def __post_init__(self):
        self.pattern, self._member = gamma_t_from_density(self.t, self.params)
        self.density = self.pattern.density
        self.variant_bits = tuple(int(b) & 1 for b in self.variant_bits)
        if self.density < 1.0:
            # fail fast on an inadmissible kick digit (d = 1 never kicks)
            self.mapping().resolve_kick(self.params)

    def gamma_t_contains(self, k: int) -> bool:
        return self._member(k)

    def mapping(self) -> KickedMapping:
        offsets = SquareOffsets(
            kicked=_ActiveLetters(self.pattern, outside=True), variant_bits=self.variant_bits
        )
        return KickedMapping(offsets=offsets, kick=self.kick, mode=self.mode)

    def prefix(self, index_bound: int) -> SpectrumPrefix:
        return enumerate_spectrum(
            self.mapping(), self.params, index_bound=index_bound
        )

    def split(self, prefix: SpectrumPrefix):
        """(F_t part, kicked part): unkicked canonical-digit points vs kicked points,
        by Gamma_t membership over the prefix's index column.

        Each part is ``treemap.take_rows`` of the prefix's points: for an
        enumerated prefix a column store of its rows, in k order, with a cache
        of its own, so ``split`` builds no point and the checks and estimates
        on a part read its columns; for a prefix of a tuple, a tuple."""
        member = self._member.mask(point_indices(prefix.points))
        return (take_rows(prefix.points, np.flatnonzero(member)),
                take_rows(prefix.points, np.flatnonzero(~member)))

    def describe(self) -> dict:
        return {
            "t": self.t,
            "q1": self.params.q1,
            "q2": self.params.q2,
            "density": self.density,
            "kick": self.kick,
            "mode": self.mode,
            "variant_bits": list(self.variant_bits),
        }


def build_intermediate_spectrum(
    t: float,
    p: MatrixParams,
    kick: Vec | None = None,
    mode: str = "coherent",
    variant_bits: tuple[int, ...] = (),
) -> IntermediateSpec:
    """Validated intermediate-dimension spec; raises on inadmissible kick or t."""
    return IntermediateSpec(
        t=t, params=p, kick=kick, mode=mode, variant_bits=tuple(variant_bits)
    )


def family_variants(
    t: float, p: MatrixParams, count: int, seed: int = 0, kick: Vec | None = None
) -> list[IntermediateSpec]:
    """Reproducible list of distinct variant specs at a fixed dimension level.

    Variant 0 is the canonical choice (all offset bits zero); the rest carry
    seeded, pairwise-distinct 16-bit tuples.  Any two variants differ at the
    kicked index whose cycling bit slot first differs, so their point sets
    separate once a prefix covers that index (no kicked indices exist at
    t = t_max, where every variant degenerates to the maximal lattice set).
    """
    if not 1 <= count <= 2**16:
        raise ValueError("count must lie in [1, 65536]")
    rng = random.Random(seed)
    masks: list[int] = [0]
    seen = {0}
    while len(masks) < count:
        m = rng.randrange(1, 2**16)
        if m not in seen:
            seen.add(m)
            masks.append(m)
    specs = []
    for m in masks:
        bits = () if m == 0 else tuple((m >> i) & 1 for i in range(16))
        specs.append(
            IntermediateSpec(t=t, params=p, kick=kick, mode="coherent", variant_bits=bits)
        )
    return specs


def coherent_perturbation_report(spec: IntermediateSpec, prefix: SpectrumPrefix) -> dict:
    """How many base digit strings the coherent completion actually shifted.

    Sibling coherence can only reroute digits on branches that pass through a
    kick parent, and those branches are themselves kicked; the unkicked F_t
    part must come out untouched.  Reported per part for empirical inspection,
    from the prefix's folded columns (its points' bases) and the canonical
    columns at the same k, building no point.
    """
    canonical = enumerate_spectrum(
        CanonicalMapping(), spec.params, index_bound=prefix.index_bound
    ).points
    xs, ys, _ = folded_columns(point_values(prefix.points))
    ks = point_indices(prefix.points)
    rows = ks + prefix.index_bound  # each point's own k in the canonical columns
    changed = np.asarray((xs != canonical.xs[rows]) | (ys != canonical.ys[rows]), dtype=bool)
    member = spec._member.mask(ks)
    return {"f_part_changed": int(np.count_nonzero(changed & member)),
            "kicked_part_changed": int(np.count_nonzero(changed & ~member))}
