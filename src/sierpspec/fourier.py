"""Mask evaluation, certified truncated Fourier transform, and exact zero-set tests.

The measure's transform is the infinite product of the three-point mask along
powers of A^-1.  Orthogonality certification never touches floats: membership
in the zero set is decided by stripping A factors and testing the centered
residue against the two admissible classes, entirely in integer arithmetic,
including for symbolic vectors whose kick terms carry huge exponents.

The residue walk comes in two forms with one event stream.  ``_residue_walk``
walks exact objects (SymVecs with Python-int bases and kick terms) depth
first and yields every node where vectors part.  ``_int64_residue_walk``
walks int64 columns level by level in numpy and yields the same events for
the nodes where some pair fails, and for the groups of equal vectors.
``_residue_events`` reads the vectors' columns through
``lattice.value_columns`` (a canonical prefix's stored columns as they are)
and picks the int64 walk when those are int64, every vector concrete with
coordinates below 2^62, and the node keys fit int64; the object walk
otherwise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .lattice import MatrixParams, SymVec, Vec, value_columns

INF = float("inf")


def mask(x) -> complex:
    """The normalized mask (1 + e^{-2pi i x1} + e^{-2pi i x2}) / 3; |mask| <= 1."""
    x1, x2 = x
    return (1.0 + cmath.exp(-2j * math.pi * x1) + cmath.exp(-2j * math.pi * x2)) / 3.0


@dataclass(frozen=True)
class TruncatedTransform:
    """Finite product approximation of the transform with a certified tail bound.

    The true transform differs from ``value`` by at most ``tail_bound`` in
    absolute value; ``tail_bound`` is +inf when the geometric tail estimate is
    too large to certify anything at the requested depth.
    """

    value: complex
    tail_bound: float
    depth: int


def tail_bound(xi, p: MatrixParams, depth: int) -> float:
    """Certified bound on |true transform - depth-truncated product| at xi.

    Uses |1 - mask(x)| <= (2*pi/3)(|x1| + |x2|) summed geometrically over the
    dropped factors; the product form is bounded via exp(s) - 1 <= 2s for
    s <= 1/2, beyond which +inf is returned.
    """
    s = (2.0 * math.pi / 3.0) * (
        _tail_quotient(abs(xi[0]), p.base_x, depth)
        + _tail_quotient(abs(xi[1]), p.base_y, depth)
    )
    return 2.0 * s if s <= 0.5 else INF


def _tail_quotient(x, base: int, depth: int):
    """x / (base^depth * (base - 1)) for an int, a float or a float array x.

    An int is divided exactly (correctly rounded), a float by the divisor
    converted to float.  A divisor past the float range is cut to its top
    1,000 bits instead, and the quotient scaled back with ldexp.
    """
    den = base**depth * (base - 1)
    if isinstance(x, int):
        return x / den
    try:
        return x / float(den)
    except OverflowError:
        shift = den.bit_length() - 1000
        q = x / float(den >> shift)
        return np.ldexp(q, -shift) if isinstance(q, np.ndarray) else math.ldexp(q, -shift)


def mu_hat(xi, p: MatrixParams, depth: int) -> TruncatedTransform:
    """Depth-truncated transform value at xi with its certified tail bound."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    x1, x2 = float(xi[0]), float(xi[1])
    value = 1.0 + 0.0j
    for _ in range(depth):
        x1 /= p.base_x
        x2 /= p.base_y
        value *= mask((x1, x2))
    return TruncatedTransform(value=value, tail_bound=tail_bound(xi, p, depth), depth=depth)


@dataclass(frozen=True)
class ZeroSetWitness:
    """Level-and-residue certificate that a lattice vector kills the transform.

    level k and class tag mean the vector lies in A^{k-1}(r + A Z^2) with r the
    tagged residue: Q12 for (q1, 2q2) and Q24 for (2q1, 4q2); both are stored
    via their centered representatives (q1, -q2) and (-q1, q2).
    """

    level: int
    residue_class: str  # "Q12" | "Q24"


def _residue_walk(vecs, bases):
    """Walk the trie of centered residues of exact vectors, yielding where they part.

    A SymVec stands for ``base + sum diag(bx, by)^e * v`` over its terms; a
    one-dimensional value rides in x with y = 0.  Each node groups its vectors
    by centered residue mod (bx, by), strips it and descends into each group
    of two or more, jumping to the next kick exponent when a group's bases are
    all zero.  Identical vectors are hashed together and walked once, so the
    cost is O(n * depth).

    Yields ``(level, parts)``, ``parts`` a list of ``(residue, indices)``: two
    vectors in different parts first differ at A^(level-1), by residue_a -
    residue_b.  Residue None marks vectors equal in value, identical inside a
    part.  Every pair of indices is split at exactly one node or shares a None part.
    """
    bx, by = bases
    hx, hy = bx // 2, by // 2
    items: dict[SymVec, list[int]] = {}
    for i, v in enumerate(vecs):
        items.setdefault(v, []).append(i)
    members = list(items.values())
    cur = [v.base for v in items]
    terms = [v.terms for v in items]
    pos = [0] * len(members)  # each vector's first term not yet added to cur
    stack = [(list(range(len(members))), 0)]
    while stack:
        group, shift = stack.pop()
        if len(group) < 2:  # one vector, maybe repeated: nothing left to part
            if group and len(members[group[0]]) > 1:
                yield shift + 1, [(None, members[group[0]])]
            continue
        for g in group:
            t, k = terms[g], pos[g]
            while k < len(t) and t[k][0] == shift:
                cur[g] = (cur[g][0] + t[k][1][0], cur[g][1] + t[k][1][1])
                k += 1
            pos[g] = k
        if not any(cur[g] != (0, 0) for g in group):
            ahead = [terms[g][pos[g]][0] for g in group if pos[g] < len(terms[g])]
            if ahead:
                stack.append((group, min(ahead)))
            else:
                yield shift + 1, [(None, members[g]) for g in group]
            continue
        parts: dict[Vec, list[int]] = {}
        for g in group:
            x, y = cur[g]
            rx = (x + hx) % bx - hx
            ry = (y + hy) % by - hy
            cur[g] = ((x - rx) // bx, (y - ry) // by)
            parts.setdefault((rx, ry), []).append(g)
        if len(parts) > 1:
            yield shift + 1, [
                (r, [i for g in gs for i in members[g]]) for r, gs in parts.items()
            ]
        stack.extend((gs, shift + 1) for gs in parts.values())


def _int64_residue_walk(xs, ys, step: Vec, bases: Vec):
    """``_residue_walk``'s events on int64 columns, breadth first, for failing nodes only.

    Each level takes a few numpy operations on the live points.  A point's
    node and centered residue code give its child node (``np.unique``); a
    node whose m distinct codes hold m(m-1)/2 pairs differing by +-step mod
    diag(bases) is clean, counted as the codes c with c + step also a code
    there (c - c' = step and c' - c = step cannot both hold).  Every other
    node yields ``(level, parts)``, one part per child.  Points still sharing
    a child once all of them reach (0, 0) are identical and yield
    ``(level, [(None, indices)])``; a point alone in its child drops out.
    The caller keeps the node keys n * bx * by below 2^63.
    """
    bx, by = bases
    codes = bx * by
    hx, hy = bx // 2, by // 2
    sx, sy = step
    idx = np.arange(len(xs))
    node = np.zeros(len(xs), dtype=np.int64)
    x, y = xs, ys
    level = 0
    while idx.size:
        level += 1
        x, cx = np.divmod(x + hx, bx)  # cx - hx is x's centered residue
        y, cy = np.divmod(y + hy, by)
        child, inv = np.unique(node * codes + cx * by + cy, return_inverse=True)
        parent, code = np.divmod(child, codes)
        plus = parent * codes + (code // by + sx) % bx * by + (code % by + sy) % by
        hit = child[np.minimum(np.searchsorted(child, plus), len(child) - 1)] == plus
        m = np.bincount(parent)
        failing = (np.bincount(parent[hit], minlength=len(m)) < m * (m - 1) // 2)[parent]
        shared = np.bincount(inv) > 1
        moving = np.bincount(inv, weights=(x != 0) | (y != 0)) > 0
        same = shared & ~moving
        told = (failing | same)[inv]
        if told.any():  # one sort groups the points to report by child
            order = np.argsort(inv[told])
            kids = inv[told][order]
            cuts = np.flatnonzero(np.diff(kids)) + 1
            events = {}
            for kid, part in zip(kids[np.r_[0, cuts]], np.split(idx[told][order], cuts)):
                part = part.tolist()
                if same[kid]:
                    yield level, [(None, part)]
                if failing[kid]:
                    r = (int(code[kid] // by - hx), int(code[kid] % by - hy))
                    events.setdefault(parent[kid], []).append((r, part))
            yield from ((level, parts) for parts in events.values())
        live = (shared & moving)[inv]
        renumber = np.cumsum(shared & moving) - 1
        idx, node, x, y = idx[live], renumber[inv[live]], x[live], y[live]


def _residue_events(vecs, step: Vec, bases: Vec):
    """The residue walk's events on a sequence of SymVecs: on their
    ``value_columns`` when those are int64 and n * bx * by < 2^63, else on
    the vectors themselves."""
    bx, by = bases
    cols = value_columns(vecs)
    if cols is not None and cols[0].dtype == np.int64 and len(vecs) * bx * by < 2**63:
        return _int64_residue_walk(*cols, step, bases)
    return _residue_walk(vecs, bases)


def _step_sign(d: Vec, step: Vec, bases: Vec) -> int:
    """+1 when d = step mod diag(bases), -1 when d = -step, 0 otherwise."""
    (dx, dy), (sx, sy), (bx, by) = d, step, bases
    if (dx - sx) % bx == 0 and (dy - sy) % by == 0:
        return 1
    if (dx + sx) % bx == 0 and (dy + sy) % by == 0:
        return -1
    return 0


def _first_residue(v: SymVec, step: Vec, bases: Vec) -> tuple[int, int] | None:
    """(level, sign) when v's first nonzero residue is sign * step; else None."""
    level, parts = next(_residue_walk([v, SymVec(base=(0, 0))], bases))
    sign = parts[0][0] is not None and _step_sign(parts[0][0], step, bases)  # v's part
    return (level, sign) if sign else None


def in_zero_set(v: Vec, p: MatrixParams) -> ZeroSetWitness | None:
    """Exact zero-set membership for an integer vector; None when the transform is nonzero."""
    return in_zero_set_sym(SymVec(base=tuple(v)), p)


def in_zero_set_sym(v: SymVec, p: MatrixParams) -> ZeroSetWitness | None:
    """Zero-set membership for a symbolic vector, without expanding huge kick terms.

    v lies in the zero set exactly when its first nonzero centered residue
    mod A is (q1, -q2) or (-q1, q2), as found by the residue walk.
    """
    first = _first_residue(v, p.primary_digit, (p.base_x, p.base_y))
    return first and ZeroSetWitness(first[0], "Q12" if first[1] > 0 else "Q24")


def zero_set_1d(v: int, q: int) -> bool:
    """Exact membership of v in the zero set of the base-3q one-dimensional transform.

    That zero set is the union over k >= 1 of (3q)^(k-1) * (+-q + 3q*Z);
    decided by the same residue walk as the planar case.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    return zero_set_1d_sym(v, (), 3 * q, q)


def zero_set_1d_sym(b0: int, terms, B: int, q: int) -> bool:
    """zero_set_1d for a symbolic scalar b0 + sum(c * B**e); B must equal 3q."""
    b = 3 * q
    if B != b and terms:
        raise ValueError("symbolic scalar base must match 3q")
    return _first_residue(_on_x(b0, terms), (q, 0), (b, b)) is not None


def _on_x(b0: int, terms) -> SymVec:
    """The scalar b0 + sum c * B^e as a SymVec riding in x, with y = 0."""
    return SymVec(base=(b0, 0), terms=tuple(sorted((e, (c, 0)) for e, c in terms if c != 0)))
