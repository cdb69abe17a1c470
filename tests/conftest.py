"""Inputs shared by the differential tests of ``lattice.value_columns`` and of
``treemap.point_values``' reading of a column store's own points."""

import dataclasses
import gc
import random

import pytest

from sierpspec.construct import build_intermediate_spectrum
from sierpspec.lattice import MatrixParams, SymVec
from sierpspec.treemap import (
    CanonicalMapping,
    KickedMapping,
    SpectrumPoint,
    TableOffsets,
    _ColumnPoints,
    central_points,
    enumerate_spectrum,
)


def _listed(values):
    return [SpectrumPoint(k=i, word=(), value=SymVec(base=v)) for i, v in enumerate(values)]


def _moved(pre, i, dx):
    """The canonical prefix with point i moved by (dx, 0), its points still columns."""
    xs = pre.points.xs.copy()
    xs[i] += dx
    return dataclasses.replace(pre, points=_ColumnPoints(xs, pre.points.ys, pre.index_bound))


@pytest.fixture
def value_column_cases():
    """(id, points, params, (n, slice)) for every kind of value column, built
    afresh per test.

    ``points`` is a prefix or a bare point list, and ``slice`` its middle 3^n
    points, for unitarity.  The canonical prefixes keep their points, and
    their slices, as columns.
    """
    p12, p44, p48 = MatrixParams(1, 2), MatrixParams(4, 4), MatrixParams(4, 8)
    rng = random.Random(20261019)
    pre = enumerate_spectrum(CanonicalMapping(), p12, level=9)
    built = enumerate_spectrum(CanonicalMapping(), p12, level=9)  # pre builds no point
    middle = pre.index_bound + rng.randint(-121, 121)  # inside the unitarity slice
    cases = [
        ("canonical (1,2) L9", pre, p12, 5),
        ("canonical (1,2) L9 bare points",
         enumerate_spectrum(CanonicalMapping(), p12, level=9).points, p12, 5),
        ("canonical (1,2) L9 tuple", dataclasses.replace(built, points=tuple(built.points)),
         p12, 5),
        ("canonical (1,2) L9 moved by 1", _moved(pre, middle, 1), p12, 5),
        ("canonical (1,2) L9 moved by A^6", _moved(pre, middle, p12.base_x**6), p12, 5),
        ("canonical (10^9,10^9) L3 objects",
         enumerate_spectrum(CanonicalMapping(), MatrixParams(10**9, 10**9), level=3),
         MatrixParams(10**9, 10**9), 3),
        ("kicked t=0.15 (4,8) |k|<=364",
         build_intermediate_spectrum(0.15, p48).prefix(364), p48, 5),
        ("literal (4,4) {1:1} L3",
         enumerate_spectrum(KickedMapping(TableOffsets({1: 1}), mode="literal"), p44, level=3),
         p44, 3),
    ]
    canon = [pt.value.base for pt in enumerate_spectrum(CanonicalMapping(), p12, level=3).points]
    cases.append(("coincident points", _listed(canon[:20] + canon[3:10]), p12, 3))
    for top in (2**62 - 1, 2**62):
        coords = (0, top, -top, top - 1, 1 - top)
        vals = [(x, y) for x in coords for y in coords] + [(top, 1), (-1, top)]
        cases.append((f"values at +-{top}", _listed(vals), p12, 3))
    megabit = [tuple(rng.choice((1, -1)) * rng.getrandbits(2**20) for _ in range(2))
               for _ in range(200)]
    cases.append(("200 megabit points", _listed(megabit), p48, 4))  # as cli-roundtrip
    return [(name, points, p, (n, _middle(points, n))) for name, points, p, n in cases]


def _middle(points, n):
    """The middle 3^n of a k-ordered prefix or point list."""
    points = getattr(points, "points", points)
    if isinstance(points, _ColumnPoints):
        return central_points(points, (3**n - 1) // 2)
    start = (len(points) - 3**n) // 2
    return points[start:start + 3**n]


def _fresh_copies(points):
    """The same points as new objects, which no column store holds."""
    copies = [dataclasses.replace(pt) if isinstance(pt, SpectrumPoint) else pt for pt in points]
    return type(points)(copies)


@pytest.fixture
def store_sequences():
    """(id, points, copies, params, recognized): sequences of points that
    ``treemap.point_values`` reads from a column store's columns
    (``recognized``), or item by item, built afresh per test.  ``copies``,
    the oracle, holds the same points as new objects, which no store holds,
    so it is always read item by item."""
    p12, p48, big = MatrixParams(1, 2), MatrixParams(4, 8), MatrixParams(1, 10**7)
    rng = random.Random(20261020)
    cases = []
    prefixes = {name: enumerate_spectrum(CanonicalMapping(), p, level=n)
                for name, p, n in (("(1,2) L6", p12, 6), ("(1,2) L9", p12, 9),
                                   ("(1,10^7) L3", big, 3))}
    for (name, pre), p in zip(prefixes.items(), (p12, p12, big)):
        pts = list(pre.points)
        cases += [(f"canonical {name} list", pts, p, True),
                  (f"canonical {name} tuple", tuple(pts), p, True)]
    kicked_prefixes = []  # a store is found while it lives
    for t in (0.15, 0.3):
        spec = build_intermediate_spectrum(t, p48)
        kicked_prefixes.append(spec.prefix(364))
        f_part, kicked = spec.split(kicked_prefixes[-1])
        cases += [(f"F part t={t}", f_part, p48, True),
                  (f"kicked part t={t}", kicked, p48, True)]
    pts = list(prefixes["(1,2) L6"].points)
    shuffled = pts[:]
    rng.shuffle(shuffled)
    cases.append(("shuffled", shuffled, p12, False))
    i = rng.randrange(1, len(pts))
    copied = pts[:i] + [dataclasses.replace(pts[i])] + pts[i + 1:]
    cases.append(("one equal copy", copied, p12, True))
    x, y = pts[i].value.base
    moved = pts[:i] + [dataclasses.replace(pts[i], value=SymVec((x + 1, y)))] + pts[i + 1:]
    cases.append(("one point moved", moved, p12, False))
    cases.append(("every third point", pts[::3], p12, True))
    third = pts[::3]
    third[7] = dataclasses.replace(third[7], value=SymVec((x, y + 1)))
    cases.append(("every third point, one moved", third, p12, False))
    orphan = list(enumerate_spectrum(CanonicalMapping(), p12, level=5).points)
    gc.collect()  # the store of these points is gone
    cases.append(("store collected", orphan, p12, False))
    mixed = pts[:40] + [pt.value for pt in pts[40:80]] + pts[80:]
    cases.append(("points and SymVecs", mixed, p12, False))
    yield [(name, points, _fresh_copies(points), p, recognized)
           for name, points, p, recognized in cases]
    del prefixes, kicked_prefixes
