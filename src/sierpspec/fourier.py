"""Mask evaluation, certified truncated Fourier transform, and exact zero-set tests.

The measure's transform is the infinite product of the three-point mask along
powers of A^-1.  Orthogonality certification never touches floats: membership
in the zero set is decided by stripping A factors and testing the centered
residue against the two admissible classes, entirely in integer arithmetic,
including for symbolic vectors whose kick terms carry huge exponents.

One residue walk, ``_residue_walk``, takes every kind of value: the base
columns and kick-term table of ``lattice.value_columns``, int64 or exact
objects.  It walks the trie of the values' centered residues level by level in
numpy, adding each kick term when its node reaches the term's exponent and
jumping over runs of zero digits, and yields the nodes where some pair fails
and the groups of values equal in value.  ``_first_residue`` runs the same
test on one symbolic vector as a scalar loop.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .lattice import MatrixParams, SymVec, Vec, centered_mod

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


def _residue_walk(xs, ys, terms, step: Vec, bases: Vec):
    """Walk the trie of the values' centered residues mod diag(bases) breadth first,
    yielding the nodes where some pair fails and the groups of values equal in value.

    The values are ``lattice.value_columns`` output; a one-dimensional value
    rides in x with y = 0.  Per level, a node adds the terms due at its shift
    (the exponent of A it has reached), or first jumps to its points' least
    pending exponent when they are all zero; a point's node and centered
    residue code then give its child (``np.unique``).  A node whose m distinct
    codes hold m(m-1)/2 pairs differing by +-step mod diag(bases) is clean,
    counted as the codes c with c + step also a code there (c - c' = step and
    c' - c = step cannot both hold).  Every other node yields ``(level,
    parts)``, one ``(residue, indices)`` part per child: values in different
    parts first differ at A^(level-1), by residue_a - residue_b.  Points
    sharing a child with no term pending, all zero or (every 64th level) all
    equal, are equal in value and yield ``(level, [(None, indices)])``; a
    point alone in its child drops out.  Columns and node keys are int64, or
    exact objects when the columns are or n * bx * by reaches 2^63.
    """
    bx, by = bases
    codes, hx, hy, (sx, sy) = bx * by, bx // 2, by // 2, step
    dtype = np.int64 if xs.dtype == np.int64 and len(xs) * codes < 2**63 else object
    idx, node = np.arange(len(xs)), np.zeros(len(xs), dtype=np.int64)
    x, y = xs.astype(dtype), ys.astype(dtype)  # copies: terms are added in place
    tpos, texp, tx, ty = (np.zeros(0, dtype=np.int64),) * 4 if terms is None else terms
    tx, ty = tx.astype(dtype), ty.astype(dtype)
    shift = np.zeros(1, dtype=texp.dtype)  # per node
    rounds = 0
    while idx.size:
        rounds += 1
        if tpos.size:
            tnode = node[tpos]
            idle = np.bincount(node, weights=(x != 0) | (y != 0), minlength=len(shift)) == 0
            jump = idle[tnode]
            shift[tnode[jump]] = texp[jump]  # one pending exponent, then the least
            np.minimum.at(shift, tnode[jump], texp[jump])
            due = texp == shift[tnode]
            x[tpos[due]] += tx[due]
            y[tpos[due]] += ty[due]
            tpos, texp, tx, ty = tpos[~due], texp[~due], tx[~due], ty[~due]
        x, cx = _divmod(x + hx, bx)  # cx - hx is x's centered residue
        y, cy = _divmod(y + hy, by)
        child, inv = np.unique(node.astype(dtype, copy=False) * codes + cx * by + cy,
                               return_inverse=True)
        parent, code = _divmod(child, codes)
        plus = parent * codes + (code // by + sx) % bx * by + (code % by + sy) % by
        hit = child[np.minimum(np.searchsorted(child, plus), len(child) - 1)] == plus
        parent = parent.astype(np.int64, copy=False)
        m = np.bincount(parent)
        failing = (np.bincount(parent[hit], minlength=len(m)) < m * (m - 1) // 2)[parent]
        shared = np.bincount(inv) > 1
        x0 = y0 = 0
        if rounds % 64 == 0:  # equal points part nowhere, but would walk all their digits
            some = np.empty(len(child), dtype=np.int64)
            some[inv] = np.arange(len(inv))
            x0, y0 = x[some[inv]], y[some[inv]]
        stirs = (x != x0) | (y != y0)
        stirs[tpos] = True  # a point with a term pending moves on
        moving = np.bincount(inv, weights=stirs) > 0
        same = shared & ~moving
        told = (failing | same)[inv]
        if told.any():  # one sort groups the points to report by child
            order = np.argsort(inv[told])
            kids = inv[told][order]
            cuts = np.flatnonzero(np.diff(kids)) + 1
            events = {}
            for kid, part in zip(kids[np.r_[0, cuts]], np.split(idx[told][order], cuts)):
                level = int(shift[parent[kid]]) + 1
                if same[kid]:
                    yield level, [(None, part.tolist())]
                if failing[kid]:
                    r = (int(code[kid] // by - hx), int(code[kid] % by - hy))
                    events.setdefault(parent[kid], (level, []))[1].append((r, part.tolist()))
            yield from events.values()
        kept = shared & moving
        live = kept[inv]
        shift = shift[parent[kept]] + 1
        if tpos.size:
            on = live[tpos]
            tpos, texp, tx, ty = (np.cumsum(live) - 1)[tpos[on]], texp[on], tx[on], ty[on]
        idx, node, x, y = idx[live], (np.cumsum(kept) - 1)[inv[live]], x[live], y[live]


def _divmod(a, b):
    """np.divmod, which object arrays lack."""
    return np.divmod(a, b) if a.dtype != object else (a // b, a % b)


def _step_sign(d: Vec, step: Vec, bases: Vec) -> int:
    """+1 when d = step mod diag(bases), -1 when d = -step, 0 otherwise."""
    (dx, dy), (sx, sy), (bx, by) = d, step, bases
    if (dx - sx) % bx == 0 and (dy - sy) % by == 0:
        return 1
    if (dx + sx) % bx == 0 and (dy + sy) % by == 0:
        return -1
    return 0


def _first_residue(v: SymVec, step: Vec, bases: Vec) -> tuple[int, int] | None:
    """(level, sign) when v's first nonzero residue is sign * step; else None:
    strips one level at a time, adds each term at its exponent and jumps to
    the next exponent while the value is zero."""
    (x, y), (bx, by), terms = v.base, bases, sorted(v.terms, reverse=True)
    shift = 0
    while True:
        while terms and terms[-1][0] == shift:
            _, (vx, vy) = terms.pop()
            x, y = x + vx, y + vy
        if x == 0 and y == 0:
            if not terms:
                return None
            shift = terms[-1][0]
            continue
        rx, ry = centered_mod(x, bx), centered_mod(y, by)
        if rx or ry:
            sign = _step_sign((rx, ry), step, bases)
            return (shift + 1, sign) if sign else None
        x, y, shift = x // bx, y // by, shift + 1


def in_zero_set(v: Vec, p: MatrixParams) -> ZeroSetWitness | None:
    """Exact zero-set membership for an integer vector; None when the transform is nonzero."""
    return in_zero_set_sym(SymVec(base=tuple(v)), p)


def in_zero_set_sym(v: SymVec, p: MatrixParams) -> ZeroSetWitness | None:
    """Zero-set membership for a symbolic vector, without expanding huge kick terms.

    v lies in the zero set exactly when its first nonzero centered residue
    mod A is (q1, -q2) or (-q1, q2), as found by ``_first_residue``.
    """
    first = _first_residue(v, p.primary_digit, (p.base_x, p.base_y))
    return first and ZeroSetWitness(first[0], "Q12" if first[1] > 0 else "Q24")


def zero_set_1d(v: int, q: int) -> bool:
    """Exact membership of v in the zero set of the base-3q one-dimensional transform.

    That zero set is the union over k >= 1 of (3q)^(k-1) * (+-q + 3q*Z);
    decided by the same residue loop as the planar case.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    return zero_set_1d_sym(v, (), 3 * q, q)


def zero_set_1d_sym(b0: int, terms, B: int, q: int) -> bool:
    """zero_set_1d for a symbolic scalar b0 + sum(c * B**e); B must equal 3q."""
    b = 3 * q
    if B != b and terms:
        raise ValueError("symbolic scalar base must match 3q")
    on_x = SymVec((b0, 0), tuple(sorted((e, (c, 0)) for e, c in terms if c != 0)))
    return _first_residue(on_x, (q, 0), (b, b)) is not None
