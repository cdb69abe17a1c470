import dataclasses
import itertools
import pickle
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sierpspec import construct, verify
from sierpspec.construct import build_intermediate_spectrum
from sierpspec.dimension import beurling_dim_estimate, geometric_scales
from sierpspec.lattice import (
    FOLD_LIMIT,
    MatrixParams,
    SymVec,
    enumerate_digit_sets,
    folded_columns,
    make_sym,
    scalar_parts,
    scalar_sign,
    sym_diff,
    value_columns,
)
from sierpspec.treemap import (
    _ROOT,
    CanonicalMapping,
    KickError,
    KickedMapping,
    SpectrumPoint,
    SpectrumPrefix,
    SquareOffsets,
    TableOffsets,
    WordError,
    enumerate_spectrum,
    index_to_word,
    lambda_of_index,
    level_index_bound,
    tau_eval,
    validate_tree_mapping,
    word_to_index,
    _ColumnPoints,
    _child,
    central_points,
    point_values,
    take_rows,
)

P11 = MatrixParams(1, 1)
P12 = MatrixParams(1, 2)
P44 = MatrixParams(4, 4)
P48 = MatrixParams(4, 8)
P35 = MatrixParams(3, 5)


def test_codec_examples():
    assert index_to_word(0) == ()
    assert word_to_index(()) == 0
    assert index_to_word(5) == (-1, -1, 1)
    assert word_to_index((-1, -1, 1)) == 5
    assert index_to_word(4) == (1, 1)
    with pytest.raises(WordError):
        word_to_index((1, 0))


@given(st.integers(min_value=-(10**5), max_value=10**5))
@settings(max_examples=500, deadline=None)
def test_codec_bijection(k):
    assert word_to_index(index_to_word(k)) == k


def test_tau_eval_examples():
    canon = CanonicalMapping()
    assert tau_eval(canon, (1,), P11) == (1, -1)
    assert tau_eval(canon, (1, 0), P11) == (0, 0)
    lit = KickedMapping(TableOffsets({1: 1}), mode="literal")
    assert tau_eval(lit, (1, 0), P44) == (1, -1)  # the kick digit at l = m_1
    coh = KickedMapping(TableOffsets({1: 1}), mode="coherent")
    assert tau_eval(coh, (1, 0), P44) == (1, -1)
    # coherent shifts the nonzero siblings of the kick node as well
    assert tau_eval(coh, (1, 1), P44) == (5, -5)
    assert tau_eval(lit, (1, 1), P44) == (4, -4)


def test_kick_admissibility():
    with pytest.raises(KickError):
        KickedMapping(TableOffsets({1: 1})).resolve_kick(P12)
    assert KickedMapping(TableOffsets({1: 1})).resolve_kick(P44) == (1, -1)
    override = KickedMapping(TableOffsets({1: 1}), kick=(0, 1))
    assert override.resolve_kick(P12) == (0, 1)
    with pytest.raises(KickError):
        KickedMapping(TableOffsets({1: 1}), kick=(0, 0)).resolve_kick(P12)
    with pytest.raises(KickError):
        KickedMapping(TableOffsets({1: 1}), kick=(1, 0)).resolve_kick(P12)


def test_lambda_examples():
    assert lambda_of_index(CanonicalMapping(), P11, 0).value.base == (0, 0)
    assert lambda_of_index(CanonicalMapping(), P11, 4).value.base == (4, -4)
    for mode in ("literal", "coherent"):
        m = KickedMapping(TableOffsets({1: 1}), mode=mode)
        pt = lambda_of_index(m, P44, 1)
        assert pt.value.base == (16, -16)
        assert pt.kick_position == 2


def test_enumerate_examples():
    pre = enumerate_spectrum(CanonicalMapping(), P11, level=1)
    assert {pt.value.base for pt in pre.points} == {(0, 0), (1, -1), (-1, 1)}
    pre2 = enumerate_spectrum(CanonicalMapping(), P12, level=2)
    vals = [pt.value.base for pt in pre2.points]
    assert len(vals) == 9 and len(set(vals)) == 9
    degenerate = KickedMapping(TableOffsets({}), mode="coherent")
    pre3 = enumerate_spectrum(degenerate, P12, level=2)
    assert [pt.value.base for pt in pre3.points] == vals
    with pytest.raises(ValueError):
        enumerate_spectrum(CanonicalMapping(), P11, index_bound=10**8)


def test_prefix_freedom():
    lvl3 = enumerate_spectrum(CanonicalMapping(), P12, level=3)
    lvl2 = enumerate_spectrum(CanonicalMapping(), P12, level=2)
    bound2 = level_index_bound(2)
    restricted = [pt for pt in lvl3.points if abs(pt.k) <= bound2]
    assert restricted == list(lvl2.points)


def test_canonical_equals_lattice_sums():
    pre = enumerate_spectrum(CanonicalMapping(), P11, level=3)
    got = {pt.value.base for pt in pre.points}
    l_set = enumerate_digit_sets(P11).l_set
    brute = set()
    for combo in itertools.product(l_set, repeat=3):
        x = y = 0
        for i, (dx, dy) in enumerate(combo):
            x += 3**i * dx
            y += 3**i * dy
        brute.add((x, y))
    assert got == brute


def test_validate_canonical_and_coherent():
    assert validate_tree_mapping(CanonicalMapping(), P12, 8).passed
    coh = KickedMapping(
        SquareOffsets(kicked=lambda k: abs(k) % 3 != 0), mode="coherent"
    )
    assert validate_tree_mapping(coh, P44, 8).passed


def test_validate_random_coherent_tables():
    rng = random.Random(0)
    for _ in range(20):
        table = {}
        for _ in range(rng.randint(1, 6)):
            k = rng.choice([k for k in range(-13, 14) if k != 0])
            table[k] = rng.randint(1, 5)
        coh = KickedMapping(TableOffsets(table), mode="coherent")
        report = validate_tree_mapping(coh, P44, 8)
        assert report.passed, (table, report.violations[:3])


def test_validate_literal_violation():
    lit = KickedMapping(TableOffsets({1: 1}), mode="literal")
    report = validate_tree_mapping(lit, P44, 4)
    assert not report.passed
    assert any(v.node == (1,) and v.clause == "sibling-coherence" for v in report.violations)


def test_growth_of_kicked_points():
    # provable bound: on a coordinate with nonzero kick component,
    # |lambda| >= B^e |kick_c| - (B/2) (B^n - 1)/(B - 1) with e = n + m_k - 1
    m = KickedMapping(SquareOffsets(kicked=lambda k: True), mode="coherent")
    for k in range(-8, 9):
        if k == 0:
            continue
        pt = lambda_of_index(m, P44, k)
        n = len(pt.word)
        e = n + m.offsets(k) - 1
        x, y = pt.value.materialize(P44)
        b = P44.base_x
        lower = b**e - (b // 2) * (b**n - 1) // (b - 1)
        assert lower > 0
        assert x * x + y * y >= lower * lower, k


def test_symbolic_point_structure():
    offs = SquareOffsets(kicked=lambda k: True)
    m = KickedMapping(offs, mode="coherent")
    pt = lambda_of_index(m, P44, 12)  # m_k = 144, exponent 146 stays symbolic
    assert not pt.value.is_concrete
    (e, vec), = pt.value.terms
    assert e == len(pt.word) + 144 - 1 and vec == (1, -1)
    # k and -k share the kick exponent, so their difference is concrete
    pt2 = lambda_of_index(m, P44, -12)
    d = sym_diff(pt.value, pt2.value)
    assert not d.terms


def test_square_offsets_variant_bits():
    base = SquareOffsets(kicked=lambda k: True)
    flip = SquareOffsets(kicked=lambda k: True, variant_bits=(1,))
    for k in (1, -1, 2, 5):
        assert base(k) == k * k
        assert flip(k) == k * k + 1
    alt = SquareOffsets(kicked=lambda k: True, variant_bits=(0, 1))
    assert alt(1) == 1 and alt(-1) == 2  # ranks 0 and 1 cycle the bits


def test_point_outside_the_bound_raises():
    pre = enumerate_spectrum(CanonicalMapping(), P11, level=2)
    assert pre.point(-4).k == -4 and pre.point(4).k == 4
    for k in (-5, 5, -7, 100):
        with pytest.raises(IndexError, match=r"\|k\| <= 4"):
            pre.point(k)


# ---------------------------------------------------------------------------
# Differential test: the parent recurrence against a rebuild from the root
# ---------------------------------------------------------------------------


def oracle_point(mapping, p, k):
    """lambda_k rebuilt from the root: Horner over tau_eval of every prefix."""
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
    value = make_sym((x, y), [(len(w) + m - 1, kick)], p)
    return SpectrumPoint(k=k, word=w, value=value, kick_position=len(w) + m)


def assert_matches_oracle(mapping, p, bound):
    want = tuple(oracle_point(mapping, p, k) for k in range(-bound, bound + 1))
    pre = enumerate_spectrum(mapping, p, index_bound=bound)
    assert pre.index_bound == bound
    assert pre.points == want
    assert tuple(lambda_of_index(mapping, p, k) for k in range(-bound, bound + 1)) == want


def head_cases(offsets, bound):
    """Which parent-step cases occur among the indices 0 < |k| <= bound."""
    seen = set()
    for k in range(-bound, bound + 1):
        n = len(index_to_word(k))
        h = k - (1 if k > 0 else -1) * 3 ** (n - 1) if k else 0
        if h == 0:
            continue
        hw = index_to_word(h)
        run = n - 1 - len(hw)
        m = offsets(h)
        if 1 <= m <= run:
            seen.add("zero-tail kick")
        elif m == run + 1:
            seen.add("child of kick parent")
        elif m:
            seen.add("folded head" if len(hw) + m - 1 <= 64 else "symbolic head")
    return seen


@pytest.mark.parametrize("p", [P11, P12, P48, P35], ids=str)
@pytest.mark.parametrize("bound", [0, 1, 2, 5, 40, 1000])
def test_canonical_enumeration_matches_oracle(p, bound):
    assert_matches_oracle(CanonicalMapping(), p, bound)


@pytest.mark.parametrize("mode", ["coherent", "literal"])
@pytest.mark.parametrize("t", [0.0, 0.15, 0.3])
@pytest.mark.parametrize("bits", [(), (1, 0, 1, 1)])
def test_square_offsets_enumeration_matches_oracle(mode, t, bits):
    spec = build_intermediate_spectrum(t, P48, mode=mode, variant_bits=bits)
    assert_matches_oracle(spec.mapping(), P48, 400)


# Kicked heads with children in every step case: a kick node on the child's
# zero run (1 at m = 2 under 1 0 0 1), a child of a kick parent (1 0 +-1), and
# plain children of a head whose kick make_sym folds into its base (1 at
# exponent 2 under 1 1) or keeps symbolic (-4 at exponent 71, 3 at 66).
# 13 and -121 sit at level boundaries.
TABLE = {1: 2, -1: 1, 2: 3, 3: 66, 4: 1, -4: 70, 5: 1, 13: 2, -121: 1}


@pytest.mark.parametrize("mode", ["coherent", "literal"])
def test_table_offsets_enumeration_matches_oracle(mode):
    offsets = TableOffsets(TABLE)
    assert head_cases(offsets, 1093) == {
        "zero-tail kick", "child of kick parent", "folded head", "symbolic head",
    }
    assert_matches_oracle(KickedMapping(offsets, mode=mode), P44, 1093)
    # an explicit kick digit from E_q1 at parameters where the default is not integral
    assert_matches_oracle(KickedMapping(offsets, kick=(0, 1), mode=mode), P12, 400)


def test_random_tables_match_oracle():
    rng = random.Random(5)
    for p in (P44, P35, P12):
        leaders = [v for v in enumerate_digit_sets(p).e_q1 if v != (0, 0)]
        for _ in range(6):
            table = {rng.choice([k for k in range(-40, 41) if k]): rng.randint(0, 6)
                     for _ in range(rng.randint(1, 12))}
            for mode in ("coherent", "literal"):
                mapping = KickedMapping(TableOffsets(table), kick=rng.choice(leaders), mode=mode)
                assert_matches_oracle(mapping, p, rng.choice([121, 200, 364]))


def test_empty_table_never_resolves_the_kick():
    # the default kick (q1/4, -q2/4) is not admissible at (1, 2)
    assert_matches_oracle(KickedMapping(TableOffsets({})), P12, 121)
    with pytest.raises(KickError):
        enumerate_spectrum(KickedMapping(TableOffsets({40: 1})), P12, index_bound=40)
    enumerate_spectrum(KickedMapping(TableOffsets({41: 1})), P12, index_bound=40)


# ---------------------------------------------------------------------------
# Differential test: canonical columns against the parent-step enumeration
# ---------------------------------------------------------------------------


def child_enumeration(mapping, p, bound):
    """The points |k| <= bound filled by word length, each in one ``_child`` step
    from its head: the enumeration every prefix used before column stores, kept
    as their oracle (kicked mappings included)."""
    points = [_ROOT] * (2 * bound + 1)
    kicked = {}  # k -> (m_k, S(k)) for m_k != 0
    n, top = 1, 1  # top = 3^(n-1)
    while (top + 1) // 2 <= bound:
        scale = (p.base_x ** (n - 1), p.base_y ** (n - 1))
        lo, hi = (top + 1) // 2, min((3 * top - 1) // 2, bound)
        for k in itertools.chain(range(-hi, 1 - lo), range(lo, hi + 1)):
            h = k - top if k > 0 else k + top
            head = points[h + bound]
            head_m, head_sum = kicked.get(h) or (0, head.value.base)
            pt, m, digit_sum = _child(mapping, p, k, n, scale, head, head_m, head_sum)
            points[k + bound] = pt
            if m:
                kicked[k] = (m, digit_sum)
        n, top = n + 1, 3 * top
    return tuple(points)


def assert_columns_match_child_steps(p, bound):
    want = child_enumeration(CanonicalMapping(), p, bound)
    pre = enumerate_spectrum(CanonicalMapping(), p, index_bound=bound)
    assert isinstance(pre.points, _ColumnPoints)
    rng = random.Random(bound)
    ks = {-bound, 0, bound, *(rng.randint(-bound, bound) for _ in range(20))}
    with mock.patch.object(_ColumnPoints, "_tuple", side_effect=AssertionError):
        assert len(pre) == len(pre.points) == len(want)
        for k in ks:
            assert pre.point(k) == want[k + bound] == pre.points[k + bound]
        assert pre.points[-1] == want[-1]
        for k in (-bound - 1, bound + 1):
            with pytest.raises(IndexError):
                pre.point(k)
        for i in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                pre.points[i]
    assert pre.points == want and want == pre.points
    assert hash(pre.points) == hash(want)
    assert pre == dataclasses.replace(pre, points=want)
    assert list(pre.points) == list(want) and pre.points[1:3] == want[1:3]
    return pre


@pytest.mark.parametrize("p", [P11, P12, MatrixParams(2, 3), P48, P35], ids=str)
def test_canonical_columns_match_child_steps(p):
    for level in range(10):
        pre = assert_columns_match_child_steps(p, level_index_bound(level))
        assert pre.points.xs.dtype == np.int64
    for bound in (3, 7, 59, 365, 2001):
        assert_columns_match_child_steps(p, bound)


def test_canonical_columns_past_int64_are_exact():
    # coordinates past 2^62 take object columns
    pre = assert_columns_match_child_steps(MatrixParams(10**9, 10**9), level_index_bound(3))
    assert pre.points.xs.dtype == pre.points.ys.dtype == object


@pytest.mark.parametrize("p", [P12, MatrixParams(10**9, 10**9)], ids=str)
def test_canonical_columns_are_read_only(p):
    pre = enumerate_spectrum(CanonicalMapping(), p, level=3)
    first = pre.point(1)
    for column in (pre.points.xs, pre.points.ys):
        with pytest.raises(ValueError, match="read-only"):
            column[pre.index_bound + 1] = 0
    assert pre.point(1) == first and pre.points == tuple(pre.points)


def test_empty_kick_table_keeps_the_parent_steps():
    for level in range(7):
        bound = level_index_bound(level)
        pre = enumerate_spectrum(KickedMapping(TableOffsets({})), P12, index_bound=bound)
        want = child_enumeration(CanonicalMapping(), P12, bound)
        assert not pre.points.exps.any() and pre.points == want  # a store with no kick
        assert enumerate_spectrum(CanonicalMapping(), P12, level=level).points == pre.points


def test_points_and_prefixes_pickle_and_replace():
    pre = enumerate_spectrum(CanonicalMapping(), P12, level=4)
    pt = pre.point(7)
    assert not hasattr(pt, "__dict__") and not hasattr(pt.value, "__dict__")
    assert pickle.loads(pickle.dumps(pt)) == pt
    assert pickle.loads(pickle.dumps(pt.value)) == pt.value
    moved = dataclasses.replace(pt, value=dataclasses.replace(pt.value, base=(0, 0)))
    assert moved.k == 7 and moved.value == SymVec((0, 0)) and pt.value.base != (0, 0)
    assert pickle.loads(pickle.dumps(pre)) == pre
    kicked = lambda_of_index(KickedMapping(SquareOffsets(kicked=lambda k: True)), P44, 12)
    assert pickle.loads(pickle.dumps(kicked)) == kicked


# ---------------------------------------------------------------------------
# Differential tests: kicked column stores against the parent-step fill
# ---------------------------------------------------------------------------


# bounds at and next to level boundaries: (3^n - 1) / 2 and one more
BOUNDS = (0, 1, 2, 4, 5, 13, 14, 40, 41, 121, 122, 364, 365)


def _kicked_mappings():
    """(name, mapping, params, bounds) for every kind of kicked mapping."""
    rng = random.Random(16)
    cases = []
    for t in (0.15, 0.3):
        for bits in ((), (1, 0, 1, 1), (0, 1)):
            spec = build_intermediate_spectrum(t, P48, variant_bits=bits)
            cases.append((f"t={t} bits={bits}", spec.mapping(), P48, BOUNDS + (1093,)))
    for mode in ("coherent", "literal"):
        cases.append((f"TABLE {mode}", KickedMapping(TableOffsets(TABLE), mode=mode), P44,
                      BOUNDS + (1093, 1094)))
        cases.append((f"TABLE {mode} kick (0,1)",
                      KickedMapping(TableOffsets(TABLE), kick=(0, 1), mode=mode), P12, BOUNDS))
        cases.append((f"literal {{1:1}} {mode}",
                      KickedMapping(TableOffsets({1: 1}), mode=mode), P44, BOUNDS))
        for p in (P44, P35, P12):
            leaders = [v for v in enumerate_digit_sets(p).e_q1 if v != (0, 0)]
            table = {rng.choice([k for k in range(-40, 41) if k]): rng.randint(0, 6)
                     for _ in range(rng.randint(1, 12))}
            mapping = KickedMapping(TableOffsets(table), kick=rng.choice(leaders), mode=mode)
            cases.append((f"random {table} {mode} at {p}", mapping, p, (40, 121, 364)))
    # a predicate without a column form: one call per index
    cases.append(("square, every index", KickedMapping(SquareOffsets(kicked=lambda k: True)),
                  P44, (13, 40)))
    return cases


def _same_columns(got, want):
    """Equal columns and kick terms, dtypes included."""
    assert (got[2] is None) == (want[2] is None)
    for a, b in zip((*got[:2], *(got[2] or ())), (*want[:2], *(want[2] or ()))):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


@pytest.mark.parametrize("case", _kicked_mappings(), ids=lambda c: c[0])
def test_kicked_store_matches_child_steps(case):
    _, mapping, p, bounds = case
    for bound in bounds:
        want = child_enumeration(mapping, p, bound)
        pre = enumerate_spectrum(mapping, p, index_bound=bound)
        assert isinstance(pre.points, _ColumnPoints)
        with mock.patch.object(_ColumnPoints, "_tuple", side_effect=AssertionError):
            for k in {-bound, 0, bound, bound // 3, -bound // 2}:
                assert pre.point(k) == want[k + bound]
        assert pre.points == want and want == pre.points
        assert hash(pre.points) == hash(want)
        assert list(pre.points) == list(want) and pre.points[1:3] == want[1:3]
        # the columns hold int64 sums whenever today's values do
        _same_columns(folded_columns(point_values(pre.points)),
                      value_columns([pt.value for pt in want]))
        for middle in {0, 1, 4, bound // 2}:
            middle = min(middle, bound)
            assert central_points(pre.points, middle) == want[bound - middle:bound + middle + 1]


@pytest.mark.parametrize("case", _kicked_mappings(), ids=lambda c: c[0])
def test_store_parts_read_the_folded_columns_it_keeps(case):
    """A store of some of a store's rows (``take_rows``) folds its own rows,
    and keeps them in its own cache: the columns, dtypes and terms that
    folding those values alone gives, however often they are read or written
    to.  The whole store folds once, when a kick of exponent at most 64 is
    due, and keeps the folded columns, read-only, in its cache."""
    _, mapping, p, bounds = case
    pre = enumerate_spectrum(mapping, p, index_bound=bounds[-1])
    pts = list(pre.points)
    kicked = [i for i, pt in enumerate(pts) if pt.value.terms or pt.kick_position]
    rng = random.Random(len(pts))
    for rows in (range(len(pts)), kicked, [i for i in range(len(pts)) if i not in kicked],
                 sorted(rng.sample(range(len(pts)), len(pts) // 3)), kicked[-1:], [0]):
        if not rows:
            continue
        part = take_rows(pre.points, np.array(rows, dtype=np.int64))
        want = value_columns([pts[i].value for i in rows])
        for _ in range(2):
            values = point_values(part)
            assert values.cache is part.cache
            got = folded_columns(values)
            _same_columns(got, want)
            for col in got[:2]:
                if col.flags.writeable:  # not the store's: the next read is unchanged
                    col[:] = 0
        assert set(part.cache) <= {"folded"}
        assert list(part) == [pts[i] for i in rows]
    values = point_values(pts)  # every point: the store's own columns and cache
    assert values.cache is pre.points.cache
    _same_columns(folded_columns(values), value_columns([pt.value for pt in pts]))
    folds = any(pt.kick_position and pt.kick_position - 1 <= FOLD_LIMIT for pt in pts)
    assert set(pre.points.cache) == ({"folded"} if folds else set())
    if folds:
        kept = pre.points.cache["folded"]
        assert folded_columns(point_values(pre.points)) is kept
        assert not any(col.flags.writeable for col in kept[:2])


@pytest.mark.parametrize("q2, dtype", [(600_000, np.int64), (10**6, object)])
def test_kicked_store_past_int64(q2, dtype):
    """(3 q2)^3 >= 2^62: the sums are made as exact objects, and kept as int64
    when they fit after all (q2 = 600,000) or as objects when not."""
    p = MatrixParams(4, q2)
    assert p.base_y**3 >= 2**62
    for mapping in (KickedMapping(TableOffsets(TABLE), mode="coherent"),
                    KickedMapping(TableOffsets({2: 1, -4: 70}), mode="literal")):
        pre = enumerate_spectrum(mapping, p, level=3)
        assert pre.points.xs.dtype == pre.points.ys.dtype == dtype
        assert pre.points == child_enumeration(mapping, p, pre.index_bound)


def _reports(points, p):
    """Every check's result, or the type and message of what it raised."""
    def outcome(f, *args, **kwargs):
        try:
            return f(*args, **kwargs)
        except ValueError as exc:
            return type(exc), str(exc)

    got = [verify.check_orthogonality(points, p, max_violations=mv) for mv in (7, 100)]
    got += [verify.check_projection_orthogonality(points, p, max_violations=mv)
            for mv in (7, 100)]
    got.append(verify.check_distinct_lines(points, p))
    for n in (1, 2, 3):
        got.append(outcome(verify.gram_unitarity, n, central_points(points, (3**n - 1) // 2), p))
    for xi in ((0.0, 0.0), (0.31, -0.27)):
        res = outcome(verify.q_sum_terms, xi, points, p)
        got.append(res if isinstance(res[0], type) else [a.tolist() for a in res[:2]] + [res[2]])
        got.append(outcome(verify.q_sum, xi, points, p))
    scales = geometric_scales(p, 1, 5)
    for centers in ("sample:6", [(0, 0), points[len(points) // 3], (Fraction(1, 2), -3)]):
        est = beurling_dim_estimate(points, scales, p, centers=centers, seed=2)
        got += [est, est.stats]
    return got


def test_kicked_store_reports_equal_point_list_reports():
    """Every check, unitarity, q-sum (values and errors) and estimate, stats
    included, reads the same on a store, with its unfolded kick terms, as on
    its points as a list; no point is built on the store."""
    specs = [build_intermediate_spectrum(t, P48, variant_bits=(1, 0, 1)) for t in (0.15, 0.3)]
    cases = [(spec.prefix(364), P48) for spec in specs]
    cases += [
        (enumerate_spectrum(KickedMapping(TableOffsets({1: 1}), mode="literal"), P44, level=3), P44),
        (enumerate_spectrum(KickedMapping(TableOffsets(TABLE), mode="coherent"), P44, level=5), P44),
        (enumerate_spectrum(KickedMapping(TableOffsets(TABLE), mode="literal"),
                            MatrixParams(4, 10**6), level=3), MatrixParams(4, 10**6)),
        (enumerate_spectrum(KickedMapping(TableOffsets({})), P12, level=4), P12),
    ]
    for pre, p in cases:
        with mock.patch.object(_ColumnPoints, "_tuple", side_effect=AssertionError):
            got = _reports(pre.points, p)
        listed = list(pre.points)
        want = _reports(listed, p)
        assert got == want
    # the literal (4,4) {1:1} q-sums read its folded kicks: they do not raise
    literal = _reports(cases[2][0].points, P44)
    assert not any(isinstance(r, tuple) and r[:1] == (ValueError,) for r in literal)


def test_kicked_prefix_makes_no_per_index_call():
    """A Gamma_t family's columns, variant-bit ranks included, come from the
    index column alone: no per-index predicate, offset or parent step runs."""
    spec = build_intermediate_spectrum(0.15, P48, variant_bits=(1, 0, 1, 1))
    no_call = mock.Mock(side_effect=AssertionError)
    with mock.patch.object(construct._ActiveLetters, "__call__", no_call), \
            mock.patch.object(SquareOffsets, "__call__", no_call), \
            mock.patch.object(SquareOffsets, "_rank", no_call), \
            mock.patch("sierpspec.treemap._child", no_call):
        pre = spec.prefix(3280)
        f_part, kicked = spec.split(pre)
    assert len(pre) == 6561 and not no_call.called
    assert pre.points == child_enumeration(spec.mapping(), P48, 3280)
    # split keeps the items of a per-point membership test
    assert list(f_part) == [pt for pt in pre.points if spec.gamma_t_contains(pt.k)]
    assert list(kicked) == [pt for pt in pre.points if not spec.gamma_t_contains(pt.k)]
    assert {pt.k for pt in kicked} == {pt.k for pt in pre.points if pt.kick_position}


def test_gamma_t_mask_matches_the_predicate():
    rng = random.Random(3)
    ks = np.array([0, 1, -1, 4, -13, 121, -364, 3280] + rng.sample(range(-10**6, 10**6), 500))
    for t in (0.0, 0.1, 0.15, 0.3, construct.t_max(P48)):
        spec = build_intermediate_spectrum(t, P48)
        member = spec._member
        assert member.mask(ks).tolist() == [member(k) for k in ks.tolist()]
        outside = construct._ActiveLetters(spec.pattern, outside=True)
        assert outside.mask(ks).tolist() == [not member(k) for k in ks.tolist()]
        listed = list(enumerate_spectrum(spec.mapping(), P48, index_bound=40).points)
        pre = SpectrumPrefix(P48, tuple(rng.sample(listed, 30)), 40)  # any order
        assert tuple(map(list, spec.split(pre))) == tuple(
            [pt for pt in pre.points if member(pt.k) == inside] for inside in (True, False))
