import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from sierpspec.construct import build_intermediate_spectrum
from sierpspec.fourier import in_zero_set, in_zero_set_sym, zero_set_1d, zero_set_1d_sym
from sierpspec.lattice import MatrixParams, SymVec, make_sym, scalar_parts, sym_diff
from sierpspec.treemap import (
    CanonicalMapping,
    KickedMapping,
    SpectrumPoint,
    TableOffsets,
    enumerate_spectrum,
)
from sierpspec.verify import (
    SamplingBox,
    check_distinct_lines,
    check_orthogonality,
    check_projection_orthogonality,
    gram_unitarity,
    maximality_probe,
    q_sum,
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


def test_projection_orthogonality():
    pre = enumerate_spectrum(CanonicalMapping(), P12, level=3)
    assert check_projection_orthogonality(pre).passed
    assert check_projection_orthogonality(_points([(0, 0)]), P12).passed
    rep = check_projection_orthogonality(_points([(0, 0), (1, 3)]), P12)
    assert not rep.passed and rep.y_violations  # 3 is not in the base-6 zero set
    rep2 = check_projection_orthogonality(_points([(0, 0), (1, 0)]), P11)
    assert not rep2.passed and rep2.y_violations  # zero y-difference


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


def _assert_matches_oracle(points, p, max_violations=100):
    rep = check_orthogonality(points, p, max_violations=max_violations)
    checked, violations = _oracle_orthogonality(points, p, max_violations)
    assert not rep.sampled
    assert rep.pairs_checked == checked
    assert [(v.k1, v.k2, v.difference, v.reason) for v in rep.violations] == violations
    proj = check_projection_orthogonality(points, p, max_violations=max_violations)
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
