"""Mask evaluation, certified truncated Fourier transform, and exact zero-set tests.

The measure's transform is the infinite product of the three-point mask along
powers of A^-1.  Orthogonality certification never touches floats: membership
in the zero set is decided by stripping A factors and testing the centered
residue against the two admissible classes, entirely in integer arithmetic,
including for symbolic vectors whose kick terms carry huge exponents.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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
        abs(xi[0]) / (p.base_x**depth * (p.base_x - 1))
        + abs(xi[1]) / (p.base_y**depth * (p.base_y - 1))
    )
    return 2.0 * s if s <= 0.5 else INF


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


def in_zero_set(v: Vec, p: MatrixParams) -> ZeroSetWitness | None:
    """Exact zero-set membership for an integer vector; None when the transform is nonzero."""
    x, y = v
    if x == 0 and y == 0:
        return None
    bx, by = p.base_x, p.base_y
    hx, hy = bx // 2, by // 2
    q1, q2 = p.q1, p.q2
    level = 1
    while True:
        rx = (x + hx) % bx - hx
        ry = (y + hy) % by - hy
        if rx == q1 and ry == -q2:
            return ZeroSetWitness(level, "Q12")
        if rx == -q1 and ry == q2:
            return ZeroSetWitness(level, "Q24")
        if rx or ry:
            return None
        x //= bx
        y //= by
        level += 1


def in_zero_set_sym(v: SymVec, p: MatrixParams) -> ZeroSetWitness | None:
    """Zero-set membership for a symbolic vector, without expanding huge kick terms.

    Strips A factors on the small base part while tracking how far each kick
    term has been pulled down; when the base is exhausted the strip level jumps
    straight to the next kick exponent.  Exact at every step.
    """
    x, y = v.base
    terms = list(v.terms)  # sorted by exponent, nonzero vectors, exponents >= 1
    if not terms:
        return in_zero_set((x, y), p)
    bx, by = p.base_x, p.base_y
    hx, hy = bx // 2, by // 2
    q1, q2 = p.q1, p.q2
    level = 1
    shift = 0
    i = 0
    while True:
        while i < len(terms) and terms[i][0] - shift == 0:
            vx, vy = terms[i][1]
            x += vx
            y += vy
            i += 1
        if x == 0 and y == 0:
            if i == len(terms):
                return None  # the whole vector is zero
            jump = terms[i][0] - shift
            shift += jump
            level += jump
            continue
        rx = (x + hx) % bx - hx
        ry = (y + hy) % by - hy
        if rx == q1 and ry == -q2:
            return ZeroSetWitness(level, "Q12")
        if rx == -q1 and ry == q2:
            return ZeroSetWitness(level, "Q24")
        if rx or ry:
            return None
        x //= bx
        y //= by
        shift += 1
        level += 1


def zero_set_1d(v: int, q: int) -> bool:
    """Exact membership of v in the zero set of the base-3q one-dimensional transform.

    That zero set is the union over k >= 1 of (3q)^(k-1) * (+-q + 3q*Z);
    decided by the same strip-and-test loop as the planar case.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    b = 3 * q
    h = b // 2
    while v:
        r = (v + h) % b - h
        if r == q or r == -q:
            return True
        if r:
            return False
        v //= b
    return False


def zero_set_1d_sym(b0: int, terms, B: int, q: int) -> bool:
    """zero_set_1d for a symbolic scalar b0 + sum(c * B**e); B must equal 3q."""
    b = 3 * q
    if B != b and terms:
        raise ValueError("symbolic scalar base must match 3q")
    h = b // 2
    x = b0
    terms = sorted((e, c) for e, c in terms if c != 0)
    shift = 0
    i = 0
    while True:
        while i < len(terms) and terms[i][0] - shift == 0:
            x += terms[i][1]
            i += 1
        if x == 0:
            if i == len(terms):
                return False
            jump = terms[i][0] - shift
            shift += jump
            continue
        r = (x + h) % b - h
        if r == q or r == -q:
            return True
        if r:
            return False
        x //= b
        shift += 1
