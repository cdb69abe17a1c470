import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from sierpspec.lattice import MatrixParams, enumerate_digit_sets, scalar_parts, scalar_sign, sym_diff
from sierpspec.treemap import (
    CanonicalMapping,
    KickError,
    KickedMapping,
    SpectrumPoint,
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
)

P11 = MatrixParams(1, 1)
P12 = MatrixParams(1, 2)
P44 = MatrixParams(4, 4)


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
