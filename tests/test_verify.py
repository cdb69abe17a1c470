import cmath
import collections
import contextlib
import dataclasses
import functools
import gc
import itertools
import math
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from sierpspec import fourier, verify
from sierpspec.construct import build_intermediate_spectrum
from sierpspec.fourier import (
    _first_residue,
    _residue_walk,
    _step_sign,
    in_zero_set,
    in_zero_set_sym,
    tail_bound,
    zero_set_1d,
    zero_set_1d_sym,
)
from sierpspec.lattice import (
    MatrixParams,
    SymVec,
    make_sym,
    scalar_parts,
    scalar_sign,
    sym_diff,
    value_columns,
)
from sierpspec.treemap import (
    CanonicalMapping,
    KickedMapping,
    SpectrumPoint,
    SpectrumPrefix,
    TableOffsets,
    _ColumnPoints,
    central_points,
    enumerate_spectrum,
    point_values,
)
from sierpspec.verify import (
    SamplingBox,
    check_distinct_lines,
    check_orthogonality,
    check_projection_orthogonality,
    gram_unitarity,
    maximality_probe,
    q_sum,
    q_sum_terms,
)

P11 = MatrixParams(1, 1)
P12 = MatrixParams(1, 2)
P23 = MatrixParams(2, 3)


def _points(vals, p=None):
    return [
        SpectrumPoint(k=i, word=(), value=SymVec(base=tuple(v)))
        for i, v in enumerate(vals)
    ]


def test_orthogonality_canonical():
    pre = enumerate_spectrum(CanonicalMapping(), P12, index_bound=364)
    rep = check_orthogonality(pre)
    assert rep.passed and rep.pairs_checked == 364 * 729 and not rep.sampled


def test_orthogonality_violation_and_duplicates():
    rep = check_orthogonality(_points([(0, 0), (1, 0)]), P11)
    assert not rep.passed
    assert rep.violations[0].reason == "not-in-zero-set"
    rep2 = check_orthogonality(_points([(0, 0), (0, 0)]), P11)
    assert rep2.violations[0].reason == "coincident"
    assert check_orthogonality(_points([(0, 0)]), P11).passed


def test_gram_unitarity_small():
    assert gram_unitarity(0, _points([(0, 0)]), P11) == 0.0
    pre = enumerate_spectrum(CanonicalMapping(), P11, level=1)
    assert gram_unitarity(1, pre) < 1e-12
    bad = _points([(0, 0), (1, 0), (2, 0)])
    assert gram_unitarity(1, bad, P11) > 0.1
    with pytest.raises(ValueError):
        gram_unitarity(2, bad, P11)


@pytest.mark.parametrize("p", [P11, P12, P23])
def test_gram_unitarity_levels(p):
    for n in range(1, 6):
        pre = enumerate_spectrum(CanonicalMapping(), p, level=n)
        assert gram_unitarity(n, pre) < 1e-9


def test_sampling_box():
    box = SamplingBox.for_params(P11)
    assert float(box.half_width_x) == pytest.approx(0.75)
    box23 = SamplingBox.for_params(P23)
    assert 0.5 < float(box23.half_width_x) <= 0.75
    assert 0.5 < float(box23.half_width_y) <= 0.75
    pts = box.samples(10, seed=1)
    assert len(pts) == 10
    assert all(abs(x) <= 0.75 and abs(y) <= 0.75 for x, y in pts)


def test_q_sum_examples():
    pre = enumerate_spectrum(CanonicalMapping(), P11, level=4)
    at_zero = q_sum((0.0, 0.0), pre)
    assert abs(at_zero.value - 1.0) <= 1e-9
    box = SamplingBox.for_params(P11)
    for xi in box.samples(5, seed=2):
        res = q_sum(xi, pre)
        assert res.value <= 1 + 1e-9
        assert res.error < 1e-9
    # monotone in the prefix
    res4 = q_sum((0.3, -0.2), pre)
    pre5 = enumerate_spectrum(CanonicalMapping(), P11, level=5)
    res5 = q_sum((0.3, -0.2), pre5)
    assert res5.value >= res4.value - 1e-9


def test_q_sum_rejects_symbolic():
    m = KickedMapping(TableOffsets({1: 400}), kick=(0, 1), mode="coherent")
    pre = enumerate_spectrum(m, MatrixParams(1, 2), level=1)
    with pytest.raises(ValueError, match="symbolic"):
        q_sum((0.0, 0.0), pre)


def test_distinct_lines():
    pre = enumerate_spectrum(CanonicalMapping(), P11, level=4)
    assert check_distinct_lines(pre).passed
    rep = check_distinct_lines(_points([(0, 0), (0, 5)]), P11)
    assert not rep.passed and rep.shared_x == ((0, 1),)


def _comparator_lines(points, p):
    """check_distinct_lines before its int64 path: an exact comparator sort."""
    shared = {0: [], 1: []}
    for axis in (0, 1):
        def cmp(a, b, axis=axis):
            return scalar_sign(*scalar_parts(sym_diff(a.value, b.value), p, axis))

        ordered = sorted(points, key=functools.cmp_to_key(cmp))
        for a, b in zip(ordered, ordered[1:]):
            if cmp(a, b) == 0:
                shared[axis].append((a.k, b.k))
    return verify.LineReport(passed=not shared[0] and not shared[1],
                             shared_x=tuple(shared[0]), shared_y=tuple(shared[1]))


def test_distinct_lines_match_comparator():
    rng = random.Random(7)
    spec = build_intermediate_spectrum(0.15, MatrixParams(4, 8))
    cases = [
        (list(enumerate_spectrum(CanonicalMapping(), P12, level=6).points), P12),
        (list(spec.prefix(40).points), MatrixParams(4, 8)),
        # many ties, coincident points, and coordinates either side of 2^62
        (_points([(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(60)]), P11),
        (_points([(2**62 - 1, 5), (-(2**62) + 1, 5), (2**62 - 1, -5), (0, 5)]), P11),
        (_points([(2**62, 5), (2**62, 1), (-(2**62), 1), (0, 0)]), P11),
    ]
    for points, p in cases:
        rng.shuffle(points)
        assert check_distinct_lines(points, p) == _comparator_lines(points, p)


def _equal_coordinate_groups(values, p, axis, prime=2**61 - 1):
    """The index lists, each ascending, of two or more values sharing a coordinate on
    ``axis``, ordered by that coordinate: how ``check_distinct_lines`` grouped
    values with kick terms before the residue walk, kept as its oracle.

    Every coordinate is keyed by its value mod ``prime`` (equal values, equal
    keys); the exact comparator splits each bucket into groups of equal values
    and orders the groups, so it runs only on values that share a key.
    """
    buckets = {}
    for i, v in enumerate(values):
        b, terms, base = scalar_parts(v, p, axis)
        key = (b + sum(c * pow(base, e, prime) for e, c in terms)) % prime
        buckets.setdefault(key, []).append(i)

    def cmp(a, b):
        return scalar_sign(*scalar_parts(sym_diff(a, b), p, axis))

    groups = []
    for rest in buckets.values():
        while len(rest) > 1:  # split off the values equal to the first
            first = values[rest[0]]
            same = [cmp(first, values[i]) == 0 for i in rest]
            if sum(same) > 1:
                groups.append([i for i, s in zip(rest, same) if s])
            rest = [i for i, s in zip(rest, same) if not s]
    by_value = functools.cmp_to_key(lambda g, h: cmp(values[g[0]], values[h[0]]))
    return sorted(groups, key=by_value)


def _key_lines(points, p, prime=2**61 - 1):
    """``check_distinct_lines`` on values with kick terms before the residue walk."""
    points = list(getattr(points, "points", points))
    values = [pt.value for pt in points]
    shared = {0: [], 1: []}
    for axis in (0, 1):
        for group in _equal_coordinate_groups(values, p, axis, prime):
            shared[axis] += [(points[i].k, points[j].k) for i, j in zip(group, group[1:])]
    return verify.LineReport(not shared[0] and not shared[1],
                             tuple(shared[0]), tuple(shared[1]))


def test_distinct_lines_by_keys_match_comparator():
    """Points off the int64 path: the walk's groups against the comparator sort
    and against key buckets, with a prime so small that every bucket mixes values."""
    rng = random.Random(8)
    p = MatrixParams(4, 8)
    e = 10**6
    big = 2**1_000_000
    sym = SymVec
    cases = [
        # three and more symbolic points sharing a coordinate, some coincident
        _pts([sym((5, y), ((e, (1, 2)),)) for y in (0, 3, 0, 7, 3, 0)] + [sym((5, 0))]),
        # kicked points with equal exponents, equal on one axis only
        _pts([sym((1, 0), ((e, (1, -2)),)), sym((1, 0), ((e, (-1, 2)),)),
              sym((1, 5), ((e, (1, -2)),)), sym((2, 0), ((e, (-1, 2)),)),
              sym((1, 0), ((e - 1, (1, -2)),)), sym((1, 0), ((e, (1, -2)),))]),
        # equal values written apart: 12^70 - 12^71 = -11 * 12^70, and a
        # concrete coordinate equal to a symbolic one
        _pts([sym((0, 0), ((70, (1, 0)), (71, (-1, 0)))), sym((0, 1), ((70, (-11, 0)),)),
              sym((-11 * 12**70, 2), ()), sym((3, 1), ((70, (0, 1)),)),
              sym((3, 1 + 24**70), ())]),
        # megabit concrete coordinates: ties, coincident points, negatives
        _pts([sym((big + 1, 2)), sym((big + 1, -big)), sym((-big, 2)),
              sym((big + 1, 2)), sym((7, -big)), sym((-big, big))]),
    ]
    for _ in range(60):  # small values and spaced exponents: many ties, cheap comparisons
        vals = []
        for _ in range(rng.randint(2, 30)):
            exps = sorted(rng.sample([80, 300, e], rng.randint(0, 2)))
            terms = tuple((x, v) for x in exps
                          for v in [(rng.randint(-1, 1), rng.randint(-1, 1))] if v != (0, 0))
            vals.append(sym((rng.randint(-3, 3), rng.randint(-3, 3)), terms))
        vals += [rng.choice(vals) for _ in range(rng.randint(0, 3))]
        cases.append(_pts(vals))
    cases += [_concrete([(rng.randint(-3, 3) * 2**70, rng.randint(-3, 3)) for _ in range(30)])]
    for points in cases:
        rng.shuffle(points)
        want = _comparator_lines(points, p)
        assert check_distinct_lines(points, p) == want
        assert _key_lines(points, p) == want == _key_lines(points, p, prime=3)
    assert sum(not check_distinct_lines(pts, p).passed for pts in cases) > 30


def _lines_cases(rng):
    """(points, params) on which the line groups are adversarial for the walk."""
    p48, e = MatrixParams(4, 8), 10**6
    sym = SymVec
    twin = make_sym((3, -5), [(40, (1, -2))], p48)  # folded into its base
    cases = [
        # a shared x with different kick terms, and terms that cancel on one axis
        (_pts([sym((7, 0), ((e, (0, 1)),)), sym((7, 1), ((e, (0, -1)),)),
               sym((7, 2), ((80, (0, 1)),)), sym((6, 0), ((80, (1, 0)), (81, (-24, 0)))),
               sym((7, 0)), sym((1, 0), ((70, (1, 0)),)), sym((1, 9), ((70, (1, 0)),))]), p48),
        # a folded value against its unfolded twin, both written both ways
        (_pts([twin, sym((3, -5), ((40, (1, -2)),)), sym(twin.base), twin, sym((3, -5))]), p48),
        # coincident points with and without terms, and equal values written apart
        (_pts([sym((0, 0), ((70, (1, 0)), (71, (-1, 0)))), sym((0, 1), ((70, (-11, 0)),)),
               sym((-11 * 12**70, 1)), sym((0, 1), ((70, (-11, 0)),)), sym((2, 2))] * 2),
         MatrixParams(4, 4)),
    ]
    for t in (0.15, 0.3):  # kicked prefixes: int64 columns with unfolded terms
        spec = build_intermediate_spectrum(t, p48, variant_bits=(1, 0, 1))
        pre = spec.prefix(121)
        pts = list(pre.points)
        pairs = rng.sample([(i, j) for i in range(len(pts)) for j in range(i)], 24)
        for i, j in pairs[:12]:
            pts[i] = dataclasses.replace(pts[i], value=pts[j].value)  # coincident
        # the same ties planted in a store: x (or the whole value) and the kick
        # term of row j copied to row i
        xs, ys, exps = (c.copy() for c in (pre.points.xs, pre.points.ys, pre.points.exps))
        for n, (i, j) in enumerate(pairs[12:]):
            xs[i], exps[i] = xs[j], exps[j]
            if n % 2:
                ys[i] = ys[j]
        planted = _ColumnPoints(xs, ys, pre.index_bound, exps, pre.points.kick, p48)
        cases += [(pre, p48), (pts, p48), (dataclasses.replace(pre, points=planted), p48)]
    big = MatrixParams(10**9, 10**9)  # object columns
    pre = enumerate_spectrum(KickedMapping(TableOffsets({1: 70, -2: 1}), kick=(0, 1)), big,
                             level=3)
    pts = list(pre.points) + [pre.point(1), dataclasses.replace(pre.point(4), k=99)]
    cases += [(pre, big), (_pts([pt.value for pt in pts]), big)]
    literal = enumerate_spectrum(KickedMapping(TableOffsets({1: 1}), mode="literal"),
                                 MatrixParams(4, 4), level=3)
    cases.append((literal, MatrixParams(4, 4)))
    return cases


def test_distinct_lines_walk_matches_key_oracle():
    """The walk's groups give the key-bucket oracle's reports, pair order
    included, on stores with unfolded kick terms and on point lists."""
    rng = random.Random(16)
    for points, p in _lines_cases(rng):
        want = _key_lines(points, p)
        assert check_distinct_lines(points, p) == want == _key_lines(points, p, prime=3)
        listed = list(getattr(points, "points", points))
        assert check_distinct_lines(listed, p) == want == _comparator_lines(listed, p)


def test_projection_orthogonality():
    pre = enumerate_spectrum(CanonicalMapping(), P12, level=3)
    assert check_projection_orthogonality(pre).passed
    assert check_projection_orthogonality(_points([(0, 0)]), P12).passed
    rep = check_projection_orthogonality(_points([(0, 0), (1, 3)]), P12)
    assert not rep.passed and rep.y_violations  # 3 is not in the base-6 zero set
    rep2 = check_projection_orthogonality(_points([(0, 0), (1, 0)]), P11)
    assert not rep2.passed and rep2.y_violations  # zero y-difference


def test_q_sum_rejects_a_non_finite_frequency_or_tail_target():
    # a tail bound of inf at every depth (xi infinite), or a negative target,
    # kept the depth search running forever: the child's timeout turns that
    # into a failure
    code = (
        "import math\n"
        "from sierpspec.lattice import MatrixParams\n"
        "from sierpspec.treemap import CanonicalMapping, enumerate_spectrum\n"
        "from sierpspec.verify import q_sum, q_sum_terms\n"
        "p = MatrixParams(1, 2)\n"
        "pre = enumerate_spectrum(CanonicalMapping(), p, level=2)\n"
        "for xi in ((math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0)):\n"
        "    for points in (pre, list(pre.points)):\n"
        "        try:\n"
        "            q_sum_terms(xi, points, p)\n"
        "        except ValueError as exc:\n"
        "            print('finite frequency' in str(exc))\n"
        "for target in (-1.0, 0.0, math.nan, math.inf):\n"
        "    try:\n"
        "        q_sum((0.1, 0.2), pre, tail_target=target)\n"
        "    except ValueError as exc:\n"
        "        print('tail_target' in str(exc))\n"
    )
    root = str(Path(verify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert res.stdout.split() == ["True"] * 10


def test_maximality_probe():
    pre = enumerate_spectrum(CanonicalMapping(), P11, level=2)
    verdicts = {v.candidate: v for v in maximality_probe(pre, box=(2, 2))}
    assert verdicts[(1, 0)].status == "conflict"
    wk = verdicts[(1, 0)].conflict_with
    assert wk is not None
    assert verdicts[(1, -1)].status == "member"
    assert verdicts[(0, 0)].status == "member"
    # soundness: conflicts carry a real witness
    from sierpspec.fourier import in_zero_set

    for v in verdicts.values():
        if v.status == "conflict":
            lam = pre.point(v.conflict_with).value.base
            d = (v.candidate[0] - lam[0], v.candidate[1] - lam[1])
            assert d == (0, 0) or in_zero_set(d, P11) is None


def test_probe_never_falsely_conflicts_members_of_bigger_spectrum():
    small = enumerate_spectrum(CanonicalMapping(), P11, level=1)
    big = enumerate_spectrum(CanonicalMapping(), P11, level=2)
    members = {pt.value.base for pt in big.points}
    for v in maximality_probe(small, box=(4, 4)):
        if v.candidate in members:
            assert v.status in ("member", "inconclusive")


def test_maximality_probe_reads_values_not_points():
    """On a canonical prefix the probe builds only the conflicting points: with
    the full point build patched to raise, its verdicts equal those on the
    same points as a tuple."""
    for level, box in ((6, (6, 6)), (9, (10, 10))):
        pre = enumerate_spectrum(CanonicalMapping(), P12, level=level)
        built = enumerate_spectrum(CanonicalMapping(), P12, level=level)
        as_tuple = dataclasses.replace(built, points=tuple(built.points))
        with mock.patch.object(_ColumnPoints, "_tuple", side_effect=AssertionError):
            got = maximality_probe(pre, box=box)
        want = maximality_probe(as_tuple, box=box)
        assert got == want
        assert {v.status for v in got} == {"member", "conflict"}


def test_orthogonality_implies_lines_and_projections():
    for p in (P11, P12, P23):
        pre = enumerate_spectrum(CanonicalMapping(), p, level=3)
        assert check_orthogonality(pre).passed
        assert check_distinct_lines(pre).passed
        assert check_projection_orthogonality(pre).passed


# ---------------------------------------------------------------------------
# Differential oracle: the pairwise strip-and-test loops the residue walk
# replaced, kept here as the reference.
# ---------------------------------------------------------------------------


def _oracle_in_zero_set_sym(v, p):
    """(level, class) by stripping A factors from v, jumping to the next kick term."""
    x, y = v.base
    terms = list(v.terms)
    bx, by = p.base_x, p.base_y
    hx, hy = bx // 2, by // 2
    level, shift, i = 1, 0, 0
    while True:
        while i < len(terms) and terms[i][0] - shift == 0:
            x += terms[i][1][0]
            y += terms[i][1][1]
            i += 1
        if x == 0 and y == 0:
            if i == len(terms):
                return None
            jump = terms[i][0] - shift
            shift += jump
            level += jump
            continue
        rx = (x + hx) % bx - hx
        ry = (y + hy) % by - hy
        if (rx, ry) == (p.q1, -p.q2):
            return (level, "Q12")
        if (rx, ry) == (-p.q1, p.q2):
            return (level, "Q24")
        if rx or ry:
            return None
        x //= bx
        y //= by
        shift += 1
        level += 1


def _oracle_zero_set_1d_sym(b0, terms, B, q):
    b = 3 * q
    h = b // 2
    x = b0
    terms = sorted((e, c) for e, c in terms if c != 0)
    shift = i = 0
    while True:
        while i < len(terms) and terms[i][0] - shift == 0:
            x += terms[i][1]
            i += 1
        if x == 0:
            if i == len(terms):
                return False
            shift = terms[i][0]
            continue
        r = (x + h) % b - h
        if r in (q, -q):
            return True
        if r:
            return False
        x //= b
        shift += 1


def _oracle_residue_walk(vecs, bases):
    """The depth-first residue walk over SymVecs that the column walk replaced.

    Each node groups its vectors by centered residue mod (bx, by), strips it
    and descends into each group of two or more, jumping to the next kick
    exponent when a group's bases are all zero.  Identical vectors are hashed
    together and walked once.  Yields ``(level, parts)`` at every node where
    vectors part, and ``(level, [(None, indices), ...])``, one part per form,
    for vectors equal in value.
    """
    bx, by = bases
    hx, hy = bx // 2, by // 2
    items = {}
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
        parts = {}
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


def _oracle_first_residue(v, step, bases):
    """(level, sign) from the oracle walk's first event on [v, 0]."""
    level, parts = next(_oracle_residue_walk([v, SymVec(base=(0, 0))], bases))
    sign = parts[0][0] is not None and _step_sign(parts[0][0], step, bases)  # v's part
    return (level, sign) if sign else None


def _axis_vec(v, p, axis):
    """One coordinate of v as a SymVec riding in x, with y = 0."""
    b, terms, _ = scalar_parts(v, p, axis)
    return SymVec((b, 0), tuple((e, (c, 0)) for e, c in terms))


def _oracle_orthogonality(points, p, max_violations=100):
    violations, checked = [], 0
    for a, b in itertools.combinations(points, 2):
        checked += 1
        d = sym_diff(a.value, b.value)
        if not d.terms and d.base == (0, 0):
            violations.append((a.k, b.k, d, "coincident"))
        elif _oracle_in_zero_set_sym(d, p) is None:
            violations.append((a.k, b.k, d, "not-in-zero-set"))
        if len(violations) >= max_violations:
            break
    return checked, violations


def _oracle_projections(points, p, max_violations=100):
    bad = ([], [])
    for a, b in itertools.combinations(points, 2):
        d = sym_diff(a.value, b.value)
        for axis, q in ((0, p.q1), (1, p.q2)):
            if not _oracle_zero_set_1d_sym(*scalar_parts(d, p, axis), q):
                bad[axis].append((a.k, b.k))
        if len(bad[0]) >= max_violations or len(bad[1]) >= max_violations:
            break
    return tuple(bad[0]), tuple(bad[1])


def _witness(w):
    return None if w is None else (w.level, w.residue_class)


def _int64_columns(points):
    """The points' value columns are int64 and carry no kick term."""
    xs, _, terms = value_columns([pt.value for pt in points])
    return terms is None and xs.dtype == np.int64


def _object_walk_reports(points, p, max_violations=100):
    """Both reports, their events from the depth-first oracle walk."""
    return (
        _old_orthogonality(points, p, max_violations),
        _old_projections(points, p, max_violations),
    )


def _assert_matches_object_walk(points, p, max_violations=100):
    rep = check_orthogonality(points, p, max_violations=max_violations)
    proj = check_projection_orthogonality(points, p, max_violations=max_violations)
    assert (rep, proj) == _object_walk_reports(points, p, max_violations)
    return rep, proj


def _assert_matches_oracle(points, p, max_violations=100):
    rep, proj = _assert_matches_object_walk(points, p, max_violations)
    checked, violations = _oracle_orthogonality(points, p, max_violations)
    assert not rep.sampled
    assert rep.pairs_checked == checked
    assert [(v.k1, v.k2, v.difference, v.reason) for v in rep.violations] == violations
    assert (proj.x_violations, proj.y_violations) == _oracle_projections(
        points, p, max_violations
    )
    for a, b in itertools.islice(itertools.combinations(points, 2), 300):
        d = sym_diff(a.value, b.value)
        assert _witness(in_zero_set_sym(d, p)) == _oracle_in_zero_set_sym(d, p)
        for axis, q in ((0, p.q1), (1, p.q2)):
            parts = scalar_parts(d, p, axis)
            assert zero_set_1d_sym(*parts, q) == _oracle_zero_set_1d_sym(*parts, q)
    return rep


def _pts(values):
    """Points indexed k = -n//2, -n//2 + 1, ... in list order, as a prefix is."""
    return [
        SpectrumPoint(k=i - len(values) // 2, word=(), value=v)
        for i, v in enumerate(values)
    ]


def _kick_terms(rng, p, admissible):
    """Zero to two kick terms, some with exponents near 10^6."""
    step = p.primary_digit
    terms = []
    for _ in range(rng.randint(0, 2)):
        e = rng.choice([rng.randint(65, 90), rng.randint(10**6 - 4, 10**6)])
        if admissible:
            s = rng.choice([1, -1])
            v = (s * step[0], s * step[1])
        else:
            v = (rng.randint(-2, 2), rng.randint(-2, 2))
        terms.append((e, v))
    return terms


def _random_symbolic_set(rng, p):
    n = rng.randint(0, 40)
    if rng.random() < 0.5:  # noise: mostly violations
        vals = [
            make_sym((rng.randint(-40, 40), rng.randint(-40, 40)),
                     _kick_terms(rng, p, admissible=False), p)
            for _ in range(n)
        ]
    else:  # a canonical prefix with kicks: mostly orthogonal
        canon = enumerate_spectrum(CanonicalMapping(), p, level=4).points
        vals = [
            make_sym(pt.value.base, _kick_terms(rng, p, rng.random() < 0.8), p)
            for pt in rng.sample(canon, min(n, len(canon)))
        ]
    for _ in range(rng.randint(0, 3) if vals else 0):
        vals.append(rng.choice(vals))
    rng.shuffle(vals)
    return _pts(vals)


PARAMS = (P11, P12, P23, MatrixParams(4, 8))


def test_walk_matches_pairwise_oracle_on_random_symbolic_sets():
    rng = random.Random(2026)
    for _ in range(150):
        p = rng.choice(PARAMS)
        _assert_matches_oracle(_random_symbolic_set(rng, p), p, rng.choice([1, 7, 100]))


def test_walk_matches_oracle_on_kicked_and_literal_families():
    p48 = MatrixParams(4, 8)
    rng = random.Random(5)
    for t in (0.15, 0.3):
        pts = list(build_intermediate_spectrum(t, p48, variant_bits=(1, 0, 1)).prefix(40).points)
        assert _assert_matches_oracle(pts, p48).passed
        i, j = rng.sample(range(len(pts)), 2)
        pts[i] = dataclasses.replace(pts[i], value=pts[j].value)  # kicked duplicate
        _assert_matches_oracle(pts, p48)
        x, y = pts[i].value.base
        pts[i] = dataclasses.replace(pts[i], value=SymVec((x + 1, y), pts[i].value.terms))
        _assert_matches_oracle(pts, p48)
    literal = enumerate_spectrum(
        KickedMapping(TableOffsets({1: 1}), mode="literal"), MatrixParams(4, 4), level=3
    )
    rep = _assert_matches_oracle(list(literal.points), literal.params)
    assert len(rep.violations) == 18
    for mv in (1, 5):
        _assert_matches_oracle(list(literal.points), literal.params, mv)


def test_walk_matches_oracle_on_coincident_points():
    p = P12
    canon = list(enumerate_spectrum(CanonicalMapping(), p, level=3).points)
    # megabit coordinates, shifted by a multiple of A so the set stays orthogonal
    m = (p.base_x**400_000, p.base_y**400_000)
    big = [
        dataclasses.replace(pt, value=SymVec((pt.value.base[0] + m[0], pt.value.base[1] + m[1])))
        for pt in canon
    ]
    assert _assert_matches_oracle(big, p).passed
    twice = big + [dataclasses.replace(big[4], k=99), dataclasses.replace(big[4], k=100)]
    rep = _assert_matches_oracle(twice, p)
    assert [(v.k1, v.k2, v.reason) for v in rep.violations] == [
        (big[4].k, 99, "coincident"), (big[4].k, 100, "coincident"), (99, 100, "coincident")
    ]
    # equal in value, different in form: a zero difference, not a coincidence
    folded = SymVec((p.base_x**70, 0))
    kicked = SymVec((0, 0), ((70, (1, 0)),))
    rep = _assert_matches_oracle(_pts([folded, kicked, folded]), p)
    assert [v.reason for v in rep.violations] == [
        "not-in-zero-set", "coincident", "not-in-zero-set"
    ]


def test_walk_matches_oracle_past_truncation():
    rng = random.Random(11)
    for p in (P11, P12):
        vals = [SymVec((rng.randint(-9, 9), rng.randint(-9, 9))) for _ in range(60)]
        for mv in (1, 100, 2000):
            rep = _assert_matches_oracle(_pts(vals), p, mv)
            assert len(rep.violations) == mv or rep.pairs_checked == 60 * 59 // 2
        assert len(rep.violations) > 100


def test_zero_set_witnesses_match_oracle():
    rng = random.Random(8)
    for p in PARAMS:
        for _ in range(300):
            v = (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
            if rng.random() < 0.3:  # force a long run of zero digits
                v = (v[0] * p.base_x**5, v[1] * p.base_y**5)
            assert _witness(in_zero_set(v, p)) == _oracle_in_zero_set_sym(SymVec(v), p)
            for axis, q in ((0, p.q1), (1, p.q2)):
                assert zero_set_1d(v[axis], q) == _oracle_zero_set_1d_sym(v[axis], (), 3 * q, q)
    assert in_zero_set((0, 0), P12) is None and not zero_set_1d(0, 2)


def test_level_9_is_certified_exactly():
    pre = enumerate_spectrum(CanonicalMapping(), P12, level=9)
    n = len(pre.points)
    assert n == 19_683
    rep = check_orthogonality(pre)
    assert not rep.sampled and rep.pairs_checked == 193_700_403 and rep.passed
    # one bad point: only its pairs can fail, so the oracle checks just those
    i = random.Random(9).randrange(n)
    pts = list(pre.points)
    x, y = pts[i].value.base
    pts[i] = dataclasses.replace(pts[i], value=SymVec((x + 1, y)))
    want = [
        (min(i, j), max(i, j))
        for j in range(n)
        if j != i and _oracle_in_zero_set_sym(sym_diff(pts[i].value, pts[j].value), P12) is None
    ]
    want.sort()
    assert len(want) > 100
    rep = check_orthogonality(pts, P12, max_violations=n)
    assert [(v.k1, v.k2) for v in rep.violations] == [(pts[a].k, pts[b].k) for a, b in want]
    assert rep.pairs_checked == n * (n - 1) // 2
    cut = check_orthogonality(pts, P12)
    assert [(v.k1, v.k2) for v in cut.violations] == [(pts[a].k, pts[b].k) for a, b in want[:100]]
    a, b = want[99]
    assert cut.pairs_checked == a * (2 * n - a - 1) // 2 + b - a  # rank of want[99], plus 1


# ---------------------------------------------------------------------------
# The int64 walk against the object walk (and, on small sets, the pairwise
# oracle above)
# ---------------------------------------------------------------------------

P35 = MatrixParams(3, 5)
P48 = MatrixParams(4, 8)


def _concrete(values):
    return _pts([SymVec(tuple(v)) for v in values])


def _random_concrete_values(rng, p):
    n = rng.randint(0, 45)
    canon = [pt.value.base for pt in enumerate_spectrum(CanonicalMapping(), p, level=4).points]
    kind = rng.randrange(3)
    if kind == 0:  # noise: mostly violations
        vals = [(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(n)]
    else:  # canonical points, a few moved, some shifted far out by A^e
        vals = rng.sample(canon, min(n, len(canon)))
        for i in rng.sample(range(len(vals)), min(len(vals), rng.randint(0, 3))):
            e = rng.randint(0, 6)
            vals[i] = (vals[i][0] + rng.choice([-1, 1]) * p.base_x**e, vals[i][1])
        if kind == 2:
            e = rng.randint(5, max(e for e in range(64) if p.base_y**e < 2**61))
            vals = [(x + p.base_x**e, y - p.base_y**e) for x, y in vals]
    for _ in range(rng.randint(0, 3) if vals else 0):
        vals.append(rng.choice(vals))
    rng.shuffle(vals)
    return vals


def test_int64_walk_matches_object_walk_on_random_concrete_sets():
    rng = random.Random(606)
    for _ in range(100):
        p = rng.choice(PARAMS + (P35,))
        pts = _concrete(_random_concrete_values(rng, p))
        assert _int64_columns(pts)
        _assert_matches_oracle(pts, p, rng.choice([1, 7, 100]))


def test_int64_walk_at_the_coordinate_border():
    top = 2**62 - 1
    for p in (P11, P12, P35):
        ex = max(e for e in range(64) if p.base_x**e < 2**61)
        ey = max(e for e in range(64) if p.base_y**e < 2**61)
        canon = [pt.value.base for pt in enumerate_spectrum(CanonicalMapping(), p, level=3).points]
        far = [(x + p.base_x**ex, y - p.base_y**ey) for x, y in canon]
        both = far + [(-x, -y) for x, y in far]
        edge = [(top, -top), (-top, top), (top, top), (-top, -top), (0, 0), (top, -top)]
        for vals in (far, both, edge, both + edge):
            pts = _concrete(vals)
            assert _int64_columns(pts)
            _assert_matches_oracle(pts, p)
        assert _assert_matches_oracle(_concrete(far), p).passed
        for past in ((2**62, 0), (0, -(2**62))):  # one value just past the cutoff
            pts = _concrete(edge + [past])
            assert not _int64_columns(pts)
            _assert_matches_oracle(pts, p)
    # node keys n * bx * by past 2^63: object keys
    huge = MatrixParams(10**9, 10**9)
    pts = _concrete([(0, 0), (10**9, -(10**9)), (1, 0), (0, 1), (5, 5), (10**9, -(10**9))])
    bases = (huge.base_x, huge.base_y)
    assert len(pts) * bases[0] * bases[1] >= 2**63 > bases[0] * bases[1]
    _assert_matches_oracle(pts, huge)
    _assert_matches_oracle(pts[:1], huge)


def test_int64_walk_on_coincident_and_value_equal_points():
    p = P12
    canon = [pt.value.base for pt in enumerate_spectrum(CanonicalMapping(), p, level=4).points]
    rng = random.Random(3)
    for copies in (2, 3):
        vals = list(canon)
        for v in rng.sample(canon, 4):
            vals += [v] * (copies - 1)
        vals += [(0, 0)] * (copies - 1)  # the canonical prefix holds (0, 0) once
        rng.shuffle(vals)
        rep, _ = _assert_matches_object_walk(_concrete(vals), p, 10**6)
        assert {v.reason for v in rep.violations} == {"coincident"}
        assert len(rep.violations) == 5 * copies * (copies - 1) // 2
    assert len(_assert_matches_oracle(_concrete([(5, -7)] * 6), p).violations) == 15
    # a duplicate inside a failing node, equal in value but built apart
    vals = canon[:20] + [(canon[3][0] + 1, canon[3][1]), tuple(canon[7])]
    _assert_matches_oracle(_concrete(vals), p)
    # equal in value, different in form: the kicked one carries a term
    folded, kicked = SymVec((p.base_x**30, 0)), SymVec((0, 0), ((30, (1, 0)),))
    assert _int64_columns(_pts([folded, SymVec((0, 0)), folded]))
    _assert_matches_oracle(_pts([folded, SymVec((0, 0)), folded]), p)
    assert not _int64_columns(_pts([folded, kicked, folded]))
    rep = _assert_matches_oracle(_pts([folded, kicked, folded]), p)
    assert [v.reason for v in rep.violations] == [
        "not-in-zero-set", "coincident", "not-in-zero-set"
    ]


def test_int64_walk_on_literal_violations():
    literal = KickedMapping(TableOffsets({1: 1, -4: 2}), mode="literal")
    for level in (3, 6):
        pts = list(enumerate_spectrum(literal, MatrixParams(4, 4), level=level).points)
        assert _int64_columns(pts)
        for mv in (1, 5, 100, 10**6):
            rep, _ = _assert_matches_object_walk(pts, MatrixParams(4, 4), mv)
            assert not rep.passed


def test_int64_walk_on_projections():
    rng = random.Random(17)
    for p in (P12, P48, P35):
        pts = list(enumerate_spectrum(CanonicalMapping(), p, level=5).points)
        assert _int64_columns(pts)
        _, proj = _assert_matches_object_walk(pts, p)
        assert proj.passed
        for _ in range(3):
            i, j = rng.sample(range(len(pts)), 2)
            x, y = pts[i].value.base
            moved = list(pts)
            moved[i] = dataclasses.replace(pts[i], value=SymVec((x + rng.choice([1, 3, 9]), y)))
            moved[j] = dataclasses.replace(pts[j], value=SymVec((pts[j].value.base[0], y)))
            for mv in (1, 100):
                _, proj = _assert_matches_object_walk(moved, p, mv)
                assert not proj.passed
        small = pts[:: len(pts) // 40]
        _assert_matches_oracle(small, p)


def _events(events, step, bases, failing_only=False):
    """Events as a multiset of frozensets of (residue, sorted indices), the
    None parts of an event (one per form) merged; with ``failing_only``, nodes
    whose parts all differ by +-step are left out."""
    out = []
    for _, parts in events:
        if parts[0][0] is None:
            parts = [(None, [i for _, m in parts for i in m])]
        clean = parts[0][0] is not None and all(
            _step_sign((ra[0] - rb[0], ra[1] - rb[1]), step, bases)
            for (ra, _), (rb, _) in itertools.combinations(parts, 2)
        )
        if not (failing_only and clean):
            out.append(frozenset((r, tuple(sorted(m))) for r, m in parts))
    return collections.Counter(out)


def _assert_same_events(vals, p):
    """The walk's events are the oracle walk's failing-node and None events,
    in the plane and on each axis; ``vals`` are SymVecs or integer pairs."""
    vecs = [v if isinstance(v, SymVec) else SymVec(tuple(v)) for v in vals]
    xs, ys, terms = value_columns(vecs)
    walks = [((xs, ys, terms), vecs, p.primary_digit, (p.base_x, p.base_y))]
    for col, axis, q in ((xs, 0, p.q1), (ys, 1, p.q2)):
        on_x = terms if terms is None else terms._replace(x=terms[2 + axis],
                                                          y=np.zeros_like(terms.y))
        walks.append(((col, np.zeros_like(col), on_x),
                      [_axis_vec(v, p, axis) for v in vecs], (q, 0), (3 * q, 3 * q)))
    for cols, axis_vecs, step, bases in walks:
        got = _events(_residue_walk(*cols, step, bases), step, bases)
        assert got == _events(_oracle_residue_walk(axis_vecs, bases), step, bases,
                              failing_only=True)


def test_int64_events_are_the_object_walks_failing_events():
    rng = random.Random(808)
    top = 2**62 - 1
    for _ in range(150):
        p = rng.choice(PARAMS + (P35,))
        vals = _random_concrete_values(rng, p)
        if vals and rng.random() < 0.5:  # moved in the first A-adic digit
            for i in rng.sample(range(len(vals)), rng.randint(1, 3)):
                vals[i] = (vals[i][0] + rng.choice([-1, 1]), vals[i][1] + rng.choice([-1, 0, 1]))
        if rng.random() < 0.3:  # the int64 border, some twice
            edge = [(rng.choice([top, -top, 0]), rng.choice([top, -top, 0])) for _ in range(4)]
            vals += edge + rng.sample(edge, 2)
        for _ in range(rng.randint(0, 3) if vals else 0):
            vals.append(rng.choice(vals))
        _assert_same_events(vals, p)
    _assert_same_events([(5, -7)] * 4, P12)
    _assert_same_events([(0, 0)] * 3 + [(1, -2), (1, -2)], P12)


def _random_kicked_values(rng, p):
    """Up to 30 SymVecs with 0-3 kick terms drawn from four shared exponents
    (small, past the fold limit, near 10^6 and past 2^63), over canonical
    bases or zero, with repeats and value-equal twins whose small term is
    folded into the base."""
    exps = sorted(rng.sample([1, 2, 3, 5, 40, 65, 66, 10**6, 10**6 + 1, 2**64 + 3], 4))
    canon = [pt.value.base for pt in enumerate_spectrum(CanonicalMapping(), p, level=3).points]
    digits = [p.primary_digit, (-p.q1, p.q2), (1, 0), (0, -1), (2, -3)]
    vals = [
        SymVec(rng.choice(canon + [(0, 0)]),
               tuple((e, rng.choice(digits)) for e in sorted(rng.sample(exps, rng.randint(0, 3)))))
        for _ in range(rng.randint(0, 30))
    ]
    for v in rng.sample(vals, min(len(vals), 3)):
        vals.append(v)
        if v.terms and v.terms[0][0] <= 5:  # the same value, its first term folded
            e, (tx, ty) = v.terms[0]
            vals.append(SymVec((v.base[0] + p.base_x**e * tx, v.base[1] + p.base_y**e * ty),
                               v.terms[1:]))
    rng.shuffle(vals)
    return vals


def test_one_walk_matches_the_depth_first_oracle(value_column_cases):
    """The column walk's events are the oracle walk's failing-node and None
    events, in the plane and on each axis, and the reports are equal.  The
    reports on ``value_column_cases`` are compared by
    ``test_value_columns_leave_every_report_unchanged``."""
    walked = []
    for _, points, p, _ in value_column_cases:
        vals = [pt.value for pt in getattr(points, "points", points)]
        if (vals, p) not in walked:  # a prefix, its bare points and its tuple walk alike
            walked.append((vals, p))
            _assert_same_events(vals, p)
    rng = random.Random(1313)
    cases = [(list(build_intermediate_spectrum(t, P48).prefix(3280).points), P48)
             for t in (0.15, 0.3)]
    for _ in range(60):
        p = rng.choice(PARAMS)
        cases.append((_pts(_random_kicked_values(rng, p)), p))
    folded, kicked = SymVec((P12.base_x**70, 0)), SymVec((0, 0), ((70, (1, 0)),))
    far = SymVec((1, -2), ((2**64, (1, -2)),))
    huge = MatrixParams(10**9, 10**9)
    cases += [
        (_pts([folded, kicked, folded, kicked]), P12),
        (_pts([far, SymVec((1, -2)), far, SymVec((1, -2), ((2**64 + 1, (1, -2)),))]), P12),
        (_pts([SymVec((0, 0)), SymVec((10**9, -(10**9))), SymVec((1, 0), ((70, (1, 0)),)),
               SymVec((1, 0), ((70, (1, 0)),)), SymVec(huge.primary_digit)]), huge),
        (_pts([kicked]), P12),
        ([], P12),
    ]
    for pts, p in cases:
        _assert_same_events([pt.value for pt in pts], p)
        for mv in (3, 100):
            _assert_matches_object_walk(pts, p, mv)


def test_first_residue_matches_the_oracle_walk():
    rng = random.Random(1314)
    for p in PARAMS:
        vals = [v for _ in range(20) for v in _random_kicked_values(rng, p)]
        vals += [SymVec((0, 0)), SymVec((0, 0), ((10**6, (4, -8)),)),
                 SymVec((0, 0), ((10**6, (1, -2)),)), SymVec(p.primary_digit, ((10**6, (1, 0)),)),
                 SymVec((-(p.base_x**70), 0), ((70, (1, 0)),))]  # zero in value
        for v in vals:
            walks = [(v, p.primary_digit, (p.base_x, p.base_y))]
            walks += [(_axis_vec(v, p, axis), (q, 0), (3 * q, 3 * q))
                      for axis, q in ((0, p.q1), (1, p.q2))]
            for w, step, bases in walks:
                assert _first_residue(w, step, bases) == _oracle_first_residue(w, step, bases)


@functools.lru_cache(maxsize=1)
def _level_11():
    return enumerate_spectrum(CanonicalMapping(), P12, level=11)


def _assert_moved_point_listed(pts, i, p):
    """Only point i's pairs can fail: the full list and the cut at 100 against the oracle."""
    n = len(pts)
    want = [
        (min(i, j), max(i, j))
        for j in range(n)
        if j != i and _oracle_in_zero_set_sym(sym_diff(pts[i].value, pts[j].value), p) is None
    ]
    want.sort()
    assert len(want) > 100
    rep = check_orthogonality(pts, p, max_violations=n)
    assert [(v.k1, v.k2) for v in rep.violations] == [(pts[a].k, pts[b].k) for a, b in want]
    assert all(v.reason == "not-in-zero-set" for v in rep.violations)
    assert rep.pairs_checked == n * (n - 1) // 2
    cut = check_orthogonality(pts, p)
    assert [(v.k1, v.k2) for v in cut.violations] == [(pts[a].k, pts[b].k) for a, b in want[:100]]
    a, b = want[99]
    assert cut.pairs_checked == a * (2 * n - a - 1) // 2 + b - a  # rank of want[99], plus 1


def test_level_11_is_certified_exactly():
    pre = _level_11()
    n = len(pre.points)
    assert n == 177_147 and _int64_columns(pre.points)
    rep = check_orthogonality(pre)
    assert not rep.sampled and rep.pairs_checked == n * (n - 1) // 2 and rep.passed
    walk = (P12.primary_digit, (P12.base_x, P12.base_y))
    assert list(_residue_walk(*value_columns([pt.value for pt in pre.points]), *walk)) == []
    # one point moved by A^6 (1, 0): only pairs inside its level-7 node change
    i = random.Random(11).randrange(n)
    pts = list(pre.points)
    x, y = pts[i].value.base
    pts[i] = dataclasses.replace(pts[i], value=SymVec((x + P12.base_x**6, y)))
    events = list(_residue_walk(*value_columns([pt.value for pt in pts]), *walk))
    told = {j for _, parts in events for _, part in parts for j in part}
    assert i in told and len(told) <= 3**5  # only that node fails
    _assert_moved_point_listed(pts, i, P12)


def test_level_11_with_a_point_moved_in_its_first_digit():
    # the root node fails, yet the listing sees only the root's parts
    pts = list(_level_11().points)
    i = random.Random(12).randrange(len(pts))
    x, y = pts[i].value.base
    pts[i] = dataclasses.replace(pts[i], value=SymVec((x + 1, y)))
    assert _int64_columns(pts)
    _assert_moved_point_listed(pts, i, P12)


def _moved(pre, i, dx):
    """The canonical prefix with point i moved by (dx, 0), its points still columns."""
    xs = pre.points.xs.copy()
    xs[i] += dx
    return dataclasses.replace(pre, points=_ColumnPoints(xs, pre.points.ys, pre.index_bound))


def _three_reports(prefix, max_violations):
    return (
        check_orthogonality(prefix, max_violations=max_violations),
        check_projection_orthogonality(prefix, max_violations=max_violations),
        check_distinct_lines(prefix),
    )


def test_column_reports_equal_point_reports():
    pre = enumerate_spectrum(CanonicalMapping(), P12, level=9)
    rng = random.Random(9)
    cases = [pre] + [_moved(pre, rng.randrange(len(pre)), dx) for dx in (1, P12.base_x**6)]
    for lazy, clean in zip(cases, (True, False, False)):
        # the stored columns decide; only reported points are built
        with mock.patch.object(_ColumnPoints, "_tuple", side_effect=AssertionError):
            got = {mv: _three_reports(lazy, mv) for mv in (3, 100)}
        plain = dataclasses.replace(lazy, points=tuple(lazy.points))
        for mv, reports in got.items():
            assert reports == _three_reports(plain, mv)
            assert reports[:2] == _object_walk_reports(plain.points, P12, mv)
            assert reports[0].passed == reports[1].passed == clean


# ---------------------------------------------------------------------------
# Unitarity and quadratic sums against the per-entry loops they replaced
# ---------------------------------------------------------------------------


DIGITS = ((0, 0), (1, 0), (0, 1))


def _oracle_gram_matrix(n, points, p):
    """The Gram matrix u.conj().T @ u of the 3^n x 3^n character matrix, entry by entry."""
    denx, deny = p.base_x**n, p.base_y**n
    atoms = []
    for digits in itertools.product(DIGITS, repeat=n):
        ax = ay = 0
        for dx, dy in digits:
            ax = ax * p.base_x + dx
            ay = ay * p.base_y + dy
        atoms.append((ax, ay))
    lams = [pt.concrete(p) for pt in points]
    size = 3**n
    phase = np.empty((size, size), dtype=float)
    for r, (ax, ay) in enumerate(atoms):
        for c, (lx, ly) in enumerate(lams):
            phase[r, c] = ((lx * ax) % denx) / denx + ((ly * ay) % deny) / deny
    u = np.exp(-2j * np.pi * phase) / math.sqrt(size)
    return u.conj().T @ u


def _oracle_gram_unitarity(n, points, p):
    gram = _oracle_gram_matrix(n, points, p)
    return float(np.max(np.abs(gram - np.eye(len(gram)))))


def _gram_matrix(n, points, p):
    """The full Gram matrix from ``verify._gram_blocks``' upper-triangle row blocks,
    on the columns ``gram_unitarity`` reads."""
    if _canonical_store(points):
        cols = points.xs, points.ys
    else:
        cols = [np.array([pt.concrete(p)[axis] for pt in points], dtype=object) for axis in (0, 1)]
    gram = np.zeros((3**n, 3**n), dtype=complex)
    for r0, block in verify._gram_blocks(n, cols, p):
        gram[r0 : r0 + len(block), r0:] = block
    upper = np.triu(np.ones(gram.shape, dtype=bool))
    return np.where(upper, gram, gram.conj().T)


def _gram_error_bound(n):
    """A first-order bound on |product-form G - oracle G| in any entry.

    Unit roundoff u = 2^-53.  Oracle: each phase sum carries <= 4 u, which
    2 pi and exp turn into < 42 u on each entry of U (scaled by 3^(-n/2)),
    < 90 u on each of the 3^n products, and the sum of 3^n terms of modulus
    3^-n adds < 3^n u.  Product form: each level's phase carries < 15 u, each
    rank-3 factor < 30 u, and n factors of modulus <= 1 add < 31 n u.  At
    n <= 6 this is below 1.2e-13, far under the 1e-9 and 0.1 thresholds the
    checks use.
    """
    return (100 + 3**n + 32 * n) * 2.0**-53


def _assert_gram_matches_oracle(n, points, p, gram=None):
    """Every Gram entry within ``_gram_error_bound`` of the oracle's, and
    ``gram_unitarity`` the largest |G - I| over them."""
    gram = _gram_matrix(n, points, p) if gram is None else gram
    pts = list(points)
    assert np.max(np.abs(gram - _oracle_gram_matrix(n, pts, p))) <= _gram_error_bound(n)
    dev = gram_unitarity(n, points, p)
    # numpy's complex abs may round the last bit differently by array layout
    assert math.isclose(dev, np.max(np.abs(gram - np.eye(len(gram)))), rel_tol=1e-15)
    assert abs(dev - _oracle_gram_unitarity(n, pts, p)) <= _gram_error_bound(n)
    return dev


def test_gram_unitarity_matches_loop():
    rng = random.Random(4)
    cases = [(n, enumerate_spectrum(CanonicalMapping(), p, level=n).points, p)
             for p in (P11, P12, P35) for n in range(5)]
    # den^2 >= 2^63 on y, and atom * lam mod den past 2^63: the Python-int phase matrix
    big = MatrixParams(1, 10**7)
    cases.append((2, enumerate_spectrum(CanonicalMapping(), big, level=2).points, big))
    huge = _concrete([(rng.randint(-10**40, 10**40), rng.randint(-10**40, 10**40))
                      for _ in range(9)])
    cases += [(2, huge, P12), (2, huge, big)]
    kicked = build_intermediate_spectrum(0.3, MatrixParams(4, 4)).prefix(4).points
    cases.append((2, kicked, MatrixParams(4, 4)))
    # non-spectra: Gram entries far from 0, on int64 columns and Python ints
    for n, size in ((1, 40), (3, 40), (4, 3000)):
        vals = [(rng.randint(-size, size), rng.randint(-size, size)) for _ in range(3**n)]
        cases.append((n, _concrete(vals), P12))
        cols = [np.array(c, dtype=np.int64) for c in zip(*vals)]
        cases.append((n, _ColumnPoints(*cols, (3**n - 1) // 2), P23))
    devs = [_assert_gram_matches_oracle(n, pts, p) for n, pts, p in cases]
    assert max(devs[:16] + devs[18:19]) < 1e-9  # the canonical and kicked spectra
    assert min(devs[16:18] + devs[19:]) > 0.1  # random points


def test_level_phases_use_correctly_rounded_quotients():
    rng = random.Random(21)
    for base, n, dtype in ((6, 5, np.int64), (300_000, 3, np.int64), (7, 30, object)):
        vals = [rng.randint(-(2**62) + 1, 2**62 - 1) for _ in range(200)] + [0, -1, 1]
        phases = list(verify._level_phases(np.array(vals, dtype=dtype), base, n))
        for j in range(1, n + 1):
            want = [np.exp(-2j * np.pi * ((v % base**j) / base**j)) for v in vals]
            assert phases[j - 1].tolist() == want
    # int64 levels past 2^53 where every |lam| < B^j / 2 take lam / B^j, no remainder.
    # Three roundings of a quotient below 1/2 (lam, 1 / B^j, the product) move the
    # angle by < 10 units of 2^-53, the oracle's own quotient by < 4, exp by a few
    vals = [rng.randint(-(2**60), 2**60) for _ in range(200)] + [0, -1, 1, 2**60, -(2**60)]
    phases = list(verify._level_phases(np.array(vals, dtype=np.int64), 6, 40))
    for j in range(24, 41):  # 2 * 2^60 < 6^24
        want = np.array([cmath.exp(-2j * math.pi * float(Fraction(v % 6**j, 6**j)))
                         for v in vals])
        assert np.max(np.abs(phases[j - 1] - want)) <= 2.0**-48


def test_gram_unitarity_at_level_8_in_a_child_process():
    # 6,561 points; the character-matrix product held three 6,561^2 arrays
    # (over 1.5 GB), the row blocks hold O(32 * 6,561) entries.  The child
    # reports VmHWM, the peak resident set of its own image: its ru_maxrss
    # would also count the test process it was forked from (Linux keeps the
    # larger figure across exec).
    code = (
        "import os\n"
        "from sierpspec.lattice import MatrixParams\n"
        "from sierpspec.treemap import CanonicalMapping, enumerate_spectrum\n"
        "from sierpspec.verify import gram_unitarity\n"
        "pre = enumerate_spectrum(CanonicalMapping(), MatrixParams(1, 2), level=8)\n"
        "dev = gram_unitarity(8, pre)\n"
        "status = '/proc/self/status'\n"
        "peak = [line.split()[1] for line in open(status) if line.startswith('VmHWM:')]"
        " if os.path.exists(status) else []\n"
        "print(dev, *peak)\n"
    )
    root = str(Path(verify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=300, check=True)
    dev, *peak_kib = res.stdout.split()
    assert float(dev) < 1e-9
    for kib in peak_kib:  # where the kernel reports it
        assert int(kib) < 200 * 1024  # the whole child process, numpy included


def _oracle_tail_bound(xi, p, depth):
    """``fourier.tail_bound`` before its divisor went to log space: float / int."""
    s = (2.0 * math.pi / 3.0) * (
        abs(xi[0]) / (p.base_x**depth * (p.base_x - 1))
        + abs(xi[1]) / (p.base_y**depth * (p.base_y - 1))
    )
    return 2.0 * s if s <= 0.5 else math.inf


def test_tail_bound_matches_the_float_division_and_never_overflows():
    rng = random.Random(13)
    same = overflowed = 0
    for _ in range(3000):
        q1 = rng.choice([1, 2, 5])
        p = MatrixParams(q1, rng.choice([q1, 8, 1000, 10**7]))
        depth = rng.randint(1, 90)
        xi = tuple(rng.choice([float(rng.uniform(-1e6, 1e6)), rng.uniform(-1, 1),
                               rng.randint(-10**30, 10**30), 0.0])
                   for _ in range(2))
        got = tail_bound(xi, p, depth)
        try:
            want = _oracle_tail_bound(xi, p, depth)
        except OverflowError:  # a divisor past the float range
            overflowed += 1
            exact = sum(Fraction(abs(c)) / (b**depth * (b - 1))
                        for c, b in zip(xi, (p.base_x, p.base_y)))
            s = (2.0 * math.pi / 3.0) * float(exact)
            if s > 0.5:
                assert got == math.inf
            else:
                assert math.isclose(got, 2.0 * s, rel_tol=1e-12, abs_tol=1e-300)
            continue
        same += 1
        assert got == want
    assert same > 1000 and overflowed > 300
    # the array form used by q_sum_terms gives the same floats as the scalar form
    xs = [rng.uniform(0, 10.0**rng.randint(-5, 300)) for _ in range(200)] + [0.0]
    for base, depth in ((3, 40), (30_000_000, 10), (30_000_000, 60), (24, 300)):
        want = [fourier._tail_quotient(x, base, depth) for x in xs]
        assert fourier._tail_quotient(np.array(xs), base, depth).tolist() == want


def _oracle_q_sum_terms(xi, points, p, tail_target=1e-9, bound=_oracle_tail_bound):
    """The float-division q-sum terms: (values, errors, depth, per-point tails).
    Its depth and tails are the reference; its values lose the low digits of
    coordinates past 2^53."""
    arr = np.array([pt.value.base for pt in points], dtype=float) + np.asarray(xi, dtype=float)
    xmax = float(np.max(np.abs(arr)))
    per_term = tail_target / (3.0 * max(1, len(points)))
    depth = 1
    while bound((xmax, xmax), p, depth) > per_term:
        depth += 1
    prod = np.ones(len(points), dtype=complex)
    x, y = arr[:, 0].copy(), arr[:, 1].copy()
    for _ in range(depth):
        x /= p.base_x
        y /= p.base_y
        prod *= (1.0 + np.exp(-2j * np.pi * x) + np.exp(-2j * np.pi * y)) / 3.0
    tails = np.array([bound((float(c[0]), float(c[1])), p, depth) for c in arr])
    return np.abs(prod) ** 2, tails * (2.0 * np.abs(prod) + tails), depth, tails


def _exact_q_sum_term(xi, lam, p, depth):
    """|prod_j mask((lam + xi) / B^j)|^2 in the standard library: each
    (lam + xi) / B^j reduced mod 1 exactly, then one cmath phase."""
    prod = 1.0
    for j in range(1, depth + 1):
        fx, fy = (float((c + Fraction(x)) / b**j % 1)
                  for c, x, b in zip(lam, xi, (p.base_x, p.base_y)))
        prod *= (1 + cmath.exp(-2j * math.pi * fx) + cmath.exp(-2j * math.pi * fy)) / 3
    return abs(prod) ** 2


def _assert_q_sum_terms_match(got, xi, points, p, tail_target=1e-9, bound=_oracle_tail_bound,
                              sample=None):
    """The depth and per-point tails of ``got`` are the float oracle's, bit for
    bit (errors = tails * (2 |prod| + tails), and sqrt(|prod|^2) = |prod|
    exactly); its values are within depth * 2^-49 of the exact scalar oracle,
    on every point or on ``sample`` of them, drawn at random."""
    values, errors, depth = got
    _, _, want_depth, tails = _oracle_q_sum_terms(xi, points, p, tail_target, bound)
    assert depth == want_depth
    assert errors.tolist() == (tails * (2.0 * np.sqrt(values) + tails)).tolist()
    picks = range(len(points))
    if sample is not None and sample < len(points):
        picks = random.Random(len(points)).sample(picks, sample)
    for i in picks:
        want = _exact_q_sum_term(xi, points[i].value.base, p, depth)
        assert abs(values[i] - want) <= depth * 2.0**-49, (i, values[i], want)


def _linear_q_sum_depth(xmax, p, per_term):
    """The q-sum depth as found before the gallop: one tail_bound per level from 1."""
    depth = 1
    while tail_bound((xmax, xmax), p, depth) > per_term:
        depth += 1
    return depth


def test_q_sum_depth_search_matches_the_linear_search():
    rng = random.Random(42)
    targets = (1e-3, 1e-9, 1e-12, 1e-15, 1e-30)
    for p in (P12, MatrixParams(1, 1000), MatrixParams(10**9, 10**9)):
        xmaxes = [0.0, 1e-300, 0.5, 1.0, 3.0, 1e20, 1e300, float(p.base_y**5)]
        xmaxes += [abs(rng.gauss(0, 1)) * 10.0 ** rng.randint(-5, 40) for _ in range(40)]
        for xmax in xmaxes:
            for target in targets:
                per_term = target / (3.0 * rng.choice([1, 9, 729]))
                calls = []
                with mock.patch.object(verify, "tail_bound",
                                       side_effect=lambda *a: calls.append(a) or tail_bound(*a)):
                    depth = verify._q_sum_depth(xmax, p, per_term)
                want = _linear_q_sum_depth(xmax, p, per_term)
                assert depth == want, (p, xmax, per_term)
                assert len(calls) <= 2 * want.bit_length() + 1
    # q_sum_terms takes that depth at random frequencies, on prefixes and lists
    for p, level in ((P12, 4), (MatrixParams(1, 1000), 3), (MatrixParams(10**9, 10**9), 2)):
        pre = enumerate_spectrum(CanonicalMapping(), p, level=level)
        for xi in SamplingBox.for_params(p).samples(5, seed=7) + [(0.0, 0.0)]:
            for target in targets:
                depth = q_sum_terms(xi, pre, tail_target=target)[2]
                cols = np.array([pt.value.base for pt in pre.points], dtype=float) + xi
                per_term = target / (3.0 * len(pre))
                assert depth == _linear_q_sum_depth(float(np.max(np.abs(cols))), p, per_term)


def test_q_sum_terms_match_per_point_tails():
    rng = random.Random(12)
    for p in (P11, P12, P35):
        pre = enumerate_spectrum(CanonicalMapping(), p, level=4)
        noise = _concrete([(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
                           for _ in range(50)])
        for pts in (pre.points, noise):
            for xi in SamplingBox.for_params(p).samples(4, seed=7) + [(0.0, 0.0)]:
                for target in (1e-9, 1e-3):
                    got = q_sum_terms(xi, pts, p, target)
                    _assert_q_sum_terms_match(got, xi, pts, p, target, sample=20)


def test_q_sums_stay_exact_past_2_to_the_53():
    """Past 2^53 the float-division oracle loses the phases: at (1, 1000)
    level 6 its sums pass 1, which Bessel's inequality forbids on an
    orthogonal set.  The exact remainders keep every sum within 1."""
    p = MatrixParams(1, 1000)
    pre = enumerate_spectrum(CanonicalMapping(), p, level=6)
    pts = list(pre.points)
    old = over = 0
    for xi in SamplingBox.for_params(p).samples(5, seed=0):
        res = q_sum(xi, pre)
        assert res.value <= 1 + 1e-9
        over += res.value > 1
        old = max(old, float(_oracle_q_sum_terms(xi, pts, p)[0].sum()))
        # a frequency far outside the box is reduced exactly too
        far = (xi[0] + 3.0 * 2**60, xi[1] - 2.0**70)
        _assert_q_sum_terms_match(q_sum_terms(far, pre), far, pts, p, sample=10)
    assert old > 1 + 1e-6 and not over


def test_unitarity_and_q_sums_read_a_fresh_prefix_columns():
    # int64 columns, and exact object columns: q2 = 1000 at level 6 and
    # q2 = 10^7 at level 3 pass 2^62.  At q2 = 10^7 the tail divisors pass the
    # float range (the old float division raised OverflowError), and the
    # oracle takes fourier.tail_bound; level 3 there has coordinates past
    # 2^53, where only the exact remainders keep the phases
    big = MatrixParams(1, 10**7)
    cases = [(P12, 4), (P35, 3), (MatrixParams(1, 1000), 6), (big, 2), (big, 3)]
    for p, n in cases:
        pre = enumerate_spectrum(CanonicalMapping(), p, level=n)
        xis = SamplingBox.for_params(p).samples(3, seed=5) + [(0.0, 0.0)]
        dev = gram_unitarity(n, pre)
        gram = _gram_matrix(n, pre.points, p)
        terms = [q_sum_terms(xi, pre) for xi in xis]
        assert pre.points._points is None  # no point was built
        assert (pre.points.xs.dtype == object) == (p.base_y**n >= 2**63)
        pts = list(pre.points)
        assert _assert_gram_matches_oracle(n, pts, p, gram) == dev
        assert dev < 1e-9
        bound = tail_bound if p is big else _oracle_tail_bound
        for xi, got in zip(xis, terms):
            _assert_q_sum_terms_match(got, xi, pts, p, bound=bound, sample=40)
            assert got[0].sum() <= 1 + 1e-9


def test_phase_table_hits_and_misses_agree():
    """A canonical prefix's phase rows are built once, extended by levels when
    a call needs more, and kept in the prefix's cache as they were built:
    every q-sum and unitarity result equals the one on a second table built
    in another order and on a point list of fresh copies, whose rows are
    never kept."""
    for p, level in ((P12, 6), (MatrixParams(1, 1000), 5), (MatrixParams(1, 1000), 6)):
        pre = enumerate_spectrum(CanonicalMapping(), p, level=level)
        cols = pre.points.xs, pre.points.ys
        other = _ColumnPoints(*(c.copy() for c in cols), pre.index_bound)
        listed = [dataclasses.replace(pt) for pt in other]
        xis = SamplingBox.for_params(p).samples(3, seed=2)
        dev = gram_unitarity(level, pre)  # builds `level` rows per axis
        for target in (1e-3, 1e-9, 1e-3):  # a shallow miss, an extension, a hit
            for xi in xis:
                got = q_sum_terms(xi, pre, tail_target=target)
                for want in (q_sum_terms(xi, other, p, target), q_sum_terms(xi, listed, p, target)):
                    assert [a.tolist() for a in got[:2]] == [a.tolist() for a in want[:2]]
                    assert got[2] == want[2]
        assert gram_unitarity(level, pre) == dev == gram_unitarity(level, other, p)
        assert dev == gram_unitarity(level, listed, p)
        assert set(pre.points.cache) == {("x", p.base_x), ("y", p.base_y)}
        for col, axis, base in zip(cols, "xy", (p.base_x, p.base_y)):
            kept = pre.points.cache[axis, base]
            assert len(kept) >= 30
            fresh = verify._level_phases(np.array(col), base, len(kept))
            assert [row.tolist() for row in kept] == [row.tolist() for row in fresh]


def test_phase_table_entry_dies_with_its_columns():
    """A prefix's phase rows live in its cache, and die with it; the rows of
    values with no cache are gone when the q-sum returns."""
    real, refs = verify._level_phases, []

    def watched(*args, **kwargs):
        for row in real(*args, **kwargs):
            refs.append(weakref.ref(row))
            yield row

    pre = enumerate_spectrum(CanonicalMapping(), P12, level=5)
    with mock.patch.object(verify, "_level_phases", watched):
        depth = q_sum((0.1, 0.2), pre).depth
    assert set(pre.points.cache) == {("x", P12.base_x), ("y", P12.base_y)}
    assert len(refs) == 2 * depth and all(ref() is not None for ref in refs)
    del pre
    gc.collect()
    assert all(ref() is None for ref in refs)
    # a point list's rows are never kept
    refs.clear()
    with mock.patch.object(verify, "_level_phases", watched):
        depth = q_sum((0.1, 0.2), _concrete([(1, -2), (3, 5), (-7, 0)]), P12).depth
    assert len(refs) == 2 * depth and all(ref() is None for ref in refs)


def test_a_list_of_a_prefix_points_shares_its_phase_table():
    pre = enumerate_spectrum(CanonicalMapping(), P12, level=6)
    xi = (0.3, -0.2)
    want = q_sum(xi, pre)
    kept = {key: list(rows) for key, rows in pre.points.cache.items()}
    assert set(kept) == {("x", P12.base_x), ("y", P12.base_y)}
    pts = list(pre.points)
    for seq in (pts, tuple(pts)):
        assert point_values(seq).cache is pre.points.cache
        assert q_sum(xi, seq, P12) == want
        for key, rows in kept.items():  # the same rows, none rebuilt
            assert len(pre.points.cache[key]) == len(rows)
            assert all(a is b for a, b in zip(pre.points.cache[key], rows))
    # a split part reads its own rows, which no cache keeps
    kicked = build_intermediate_spectrum(0.3, MatrixParams(4, 8)).prefix(40)
    f_part, _ = build_intermediate_spectrum(0.3, MatrixParams(4, 8)).split(kicked)
    assert point_values(f_part).cache is None
    assert q_sum(xi, f_part, kicked.params) == q_sum(xi, [dataclasses.replace(pt) for pt in f_part],
                                                     kicked.params)
    assert set(kicked.points.cache) <= {"folded"}


def test_store_sequences_report_as_their_copies(store_sequences):
    """Every check reports on a list or tuple of a column store's own points,
    or a split part, read from the store's columns, what it reports on the
    same points as fresh copies, which are read item by item."""
    xis = [(0.0, 0.0), (0.31, -0.27)]
    for name, points, copies, p, _ in store_sequences:
        got, want = [], []
        for seq, out in ((points, got), (copies, want)):
            out += [check_orthogonality(seq, p, max_violations=mv) for mv in (7, 100)]
            out += [check_projection_orthogonality(seq, p), check_distinct_lines(seq, p)]
            out += [_outcome(q_sum, xi, seq, p) for xi in xis]
        assert got == want, name
    # the moved point breaks orthogonality: that list was read item by item
    name, points, copies, p, _ = next(c for c in store_sequences if c[0] == "one point moved")
    assert not check_orthogonality(points, p).passed


def test_point_list_rows_are_built_one_level_at_a_time():
    """A point list's values have no cache, so its rows are built per call; a
    q-sum reads them level by level and holds no more than the rows of two
    levels, not the whole depth x points table.  The points are fresh copies:
    a list of the prefix's own points reads the prefix's table."""
    real, refs, alive = verify._level_phases, [], []

    def watched(*args, **kwargs):
        for row in real(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            refs.append(weakref.ref(row))
            yield row

    pre = enumerate_spectrum(CanonicalMapping(), P12, level=4)
    with mock.patch.object(verify, "_level_phases", watched):
        got = q_sum_terms((0.3, -0.2), [dataclasses.replace(pt) for pt in pre.points], P12)
    assert len(refs) == 2 * got[2] > 40 and max(alive) <= 3
    assert [a.tolist() for a in got[:2]] == [a.tolist() for a in q_sum_terms((0.3, -0.2), pre)[:2]]


def test_gram_unitarity_is_bit_identical_with_the_table():
    """gram_unitarity through the table equals the parent's, on fresh prefixes,
    on prefixes whose table a q-sum has already extended, and on central
    slices.  The rows are the parent's exact rows below 2^53 and on object
    columns; (1, 1000) level 5 has int64 columns read past 2^53 (3000^5 >
    2^53), where a row takes lam / B^j without a remainder."""
    for p, level in ((P11, 5), (P12, 6), (P35, 4), (MatrixParams(1, 1000), 5),
                     (MatrixParams(1, 1000), 6), (MatrixParams(1, 10**7), 3)):
        for warm in (False, True):
            pre = enumerate_spectrum(CanonicalMapping(), p, level=level)
            if warm:
                q_sum((0.3, -0.2), pre)
            for n in range(level + 1):
                middle = central_points(pre.points, (3**n - 1) // 2)
                assert gram_unitarity(n, middle, p) == _parent_gram_unitarity(n, middle, p)
            assert gram_unitarity(level, pre) == _parent_gram_unitarity(level, pre.points, p)


# ---------------------------------------------------------------------------
# The checks as they read their columns before lattice.value_columns, kept as
# the oracle for it: the depth-first walk over the points' own values for
# orthogonality and projections, int64 columns for the line sort only when
# every point is concrete and below 2^62 (a canonical prefix's when int64),
# exact keys for other concrete lines, and a canonical prefix's stored
# columns, else the points' own values, for unitarity and q-sums
# ---------------------------------------------------------------------------


def _canonical_store(points):
    """A canonical prefix's columns, the only column store before kicked prefixes were one."""
    return isinstance(points, _ColumnPoints) and points.exps is None


def _old_points(prefix, p):
    if isinstance(prefix, SpectrumPrefix):
        return prefix.points, prefix.params
    return (prefix if _canonical_store(prefix) else list(prefix)), p


def _old_columns(points):
    if _canonical_store(points):
        return (points.xs, points.ys) if points.xs.dtype == np.int64 else None
    vecs = [pt.value for pt in points]
    if any(v.terms for v in vecs):
        return None
    try:
        flat = itertools.chain.from_iterable(v.base for v in vecs)
        cols = np.fromiter(flat, dtype=np.int64, count=2 * len(vecs)).reshape(-1, 2).T
    except OverflowError:
        return None
    return cols if ((cols < 2**62) & (cols > -(2**62))).all() else None


def _old_orthogonality(prefix, p=None, max_violations=100):
    points, p = _old_points(prefix, p)
    n = len(points)
    step, bases = p.primary_digit, (p.base_x, p.base_y)
    vecs = [pt.value for pt in points]
    bad = verify._violating_pairs(_oracle_residue_walk(vecs, bases), vecs, step, bases,
                                  max_violations)
    violations = tuple(
        verify.PairViolation(points[i].k, points[j].k,
                             sym_diff(points[i].value, points[j].value), reason)
        for i, j, reason in bad
    )
    checked = n * (n - 1) // 2
    if len(bad) == max_violations:
        checked = verify._pair_rank(*bad[-1][:2], n) + 1
    return verify.OrthogonalityReport(checked, violations, False)


def _old_projections(prefix, p=None, max_violations=100):
    points, p = _old_points(prefix, p)
    n = len(points)
    bad = []
    for axis, q in ((0, p.q1), (1, p.q2)):
        step, bases = (q, 0), (3 * q, 3 * q)
        vecs = [_axis_vec(pt.value, p, axis) for pt in points]
        events = _oracle_residue_walk(vecs, bases)
        bad.append(verify._violating_pairs(events, vecs, step, bases, max_violations))
    cut = min((verify._pair_rank(*pairs[-1][:2], n) for pairs in bad
               if len(pairs) == max_violations), default=math.inf)
    x_bad, y_bad = (
        tuple((points[i].k, points[j].k) for i, j, _ in pairs
              if verify._pair_rank(i, j, n) <= cut)
        for pairs in bad
    )
    return verify.ProjectionReport(not x_bad and not y_bad, x_bad, y_bad)


def _old_coordinate_groups(points, p, axis):
    parts = [scalar_parts(pt.value, p, axis) for pt in points]
    exact = not any(terms for _, terms, _ in parts)
    prime = 2**61 - 1
    if exact:
        keys = [b for b, _, _ in parts]
    else:
        keys = [(b + sum(c * pow(base, e, prime) for e, c in terms)) % prime
                for b, terms, base in parts]
    buckets = {}
    for i, key in enumerate(keys):
        buckets.setdefault(key, []).append(i)
    if exact:
        return sorted((m for m in buckets.values() if len(m) > 1), key=lambda m: keys[m[0]])

    def cmp(a, b):
        return scalar_sign(*scalar_parts(sym_diff(a.value, b.value), p, axis))

    groups = []
    for rest in buckets.values():
        while len(rest) > 1:
            same = [cmp(points[rest[0]], points[i]) == 0 for i in rest]
            if sum(same) > 1:
                groups.append([i for i, s in zip(rest, same) if s])
            rest = [i for i, s in zip(rest, same) if not s]
    by_value = functools.cmp_to_key(lambda g, h: cmp(points[g[0]], points[h[0]]))
    return sorted(groups, key=by_value)


def _old_lines(prefix, p=None):
    points, p = _old_points(prefix, p)
    cols = _old_columns(points)
    shared = {0: [], 1: []}
    for axis in (0, 1):
        if cols is not None:
            order = np.argsort(cols[axis], kind="stable")
            ties = np.flatnonzero(np.diff(cols[axis][order]) == 0)
            shared[axis] = [(points[order[i]].k, points[order[i + 1]].k) for i in ties]
            continue
        for group in _old_coordinate_groups(points, p, axis):
            shared[axis] += [(points[i].k, points[j].k) for i, j in zip(group, group[1:])]
    return verify.LineReport(not shared[0] and not shared[1],
                             tuple(shared[0]), tuple(shared[1]))


def _parent_level_phases(col, base, n):
    """``verify._level_phases`` before the phase table: exact remainders at every level."""
    out = np.empty((n, len(col)), dtype=complex)
    for j in range(1, n + 1):
        den = base**j
        if col.dtype == np.int64 and den < 2**53:
            frac = (col % den) / den
        else:
            frac = (col.astype(object) % den / den).astype(float)
        out[j - 1] = np.exp(-2j * np.pi * frac)
    return out


def _parent_gram_blocks(n, cols, p):
    ex, ey = _parent_level_phases(cols[0], p.base_x, n), _parent_level_phases(cols[1], p.base_y, n)
    cx, cy = ex.conj() / 3, ey.conj() / 3
    size = len(cols[0])
    for r0 in range(0, size, 32):
        rows = slice(r0, min(r0 + 32, size))
        g = np.ones((rows.stop - r0, size - r0), dtype=complex)
        t, u = np.empty_like(g), np.empty_like(g)
        for j in range(n):
            np.multiply(cx[j, rows, None], ex[j, None, r0:], out=t)
            np.multiply(cy[j, rows, None], ey[j, None, r0:], out=u)
            t += u
            t += 1 / 3
            g *= t
        yield r0, g


def _old_gram_unitarity(n, prefix, p=None):
    points, p = _old_points(prefix, p)
    if _canonical_store(points):
        cols = points.xs, points.ys
    else:
        lams = [pt.concrete(p) for pt in points]
        cols = [np.array([v[axis] for v in lams], dtype=object) for axis in (0, 1)]
    dev = 0.0
    for _, g in _parent_gram_blocks(n, cols, p):
        diag = np.arange(len(g))
        g[diag, diag] -= 1
        dev = max(dev, float(np.max(np.abs(g))))
    return dev


_parent_gram_unitarity = _old_gram_unitarity


def _old_q_sum_terms(xi, prefix, p=None):
    points, p = _old_points(prefix, p)
    if any(not pt.value.is_concrete for pt in points):
        raise ValueError("q_sum needs float-representable points; got a symbolic kick term")
    return _oracle_q_sum_terms(xi, list(points), p, bound=tail_bound)


def _outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def test_value_columns_leave_every_report_unchanged(value_column_cases):
    """Every check reads its columns through lattice.value_columns with the
    parent's results, to the order of violations and witnesses, and unitarity
    with the parent's exact rows; q-sums raise the parent's errors, or keep
    its depth and tails and stay within depth * 2^-49 of the exact scalar
    oracle.  On a canonical or kicked prefix no check builds a point."""
    xis = [(0.0, 0.0), (0.31, -0.27)]
    for name, points, p, (n, middle) in value_column_cases:
        stored = isinstance(getattr(points, "points", points), _ColumnPoints)
        builds = mock.patch.object(_ColumnPoints, "_tuple", side_effect=AssertionError)
        with builds if stored else contextlib.nullcontext():
            got = [check_orthogonality(points, p, max_violations=mv) for mv in (7, 100)]
            got += [check_projection_orthogonality(points, p, max_violations=mv)
                    for mv in (7, 100)]
            got += [check_distinct_lines(points, p), _outcome(gram_unitarity, n, middle, p)]
            q_sums = [_outcome(q_sum_terms, xi, points, p) for xi in xis]
        want = [_old_orthogonality(points, p, mv) for mv in (7, 100)]
        want += [_old_projections(points, p, mv) for mv in (7, 100)]
        want += [_old_lines(points, p), _outcome(_old_gram_unitarity, n, middle, p)]
        for i, (a, b) in enumerate(zip(got, want)):
            assert a == b, (name, i)
        for xi, got_terms in zip(xis, q_sums):
            want_terms = _outcome(_old_q_sum_terms, xi, points, p)
            if isinstance(want_terms[0], type):  # what it raised
                if want_terms[0] is OverflowError:  # a coordinate past the float range
                    want_terms = (ValueError, "q_sum needs float-representable points; "
                                  "got a coordinate past the float range")
                assert got_terms == want_terms, name
            else:
                pts = list(getattr(points, "points", points))
                _assert_q_sum_terms_match(got_terms, xi, pts, p, bound=tail_bound, sample=30)
