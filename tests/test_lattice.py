import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sierpspec

from sierpspec.lattice import (
    MATERIALIZE_EXPONENT_LIMIT,
    ColumnValues,
    LatticeError,
    MatrixParams,
    SymVec,
    a_adic_expansion,
    enumerate_digit_sets,
    in_e_q1,
    log2_bound_columns,
    mod_a_reduce,
    reconstruct,
    scalar_log2_bounds,
    scalar_materialize,
    scalar_parts,
    signed_expansion,
    signed_value,
    value_columns,
    verify_residue_decomposition,
)

P11 = MatrixParams(1, 1)
P12 = MatrixParams(1, 2)
P22 = MatrixParams(2, 2)


def test_params_validation():
    with pytest.raises(LatticeError):
        MatrixParams(0, 1)
    with pytest.raises(LatticeError):
        MatrixParams(3, 2)
    assert MatrixParams(2, 3).base_x == 6
    assert MatrixParams(2, 3).base_y == 9


def test_signed_expansion_examples():
    assert signed_expansion(0, 3) == []
    assert signed_expansion(2, 3) == [-1, 1]
    assert -1 + 3 * 1 == 2
    assert signed_expansion(-5, 4) == [-1, -1]
    assert -1 + 4 * (-1) == -5


@given(st.integers(min_value=-(10**12), max_value=10**12), st.sampled_from([3, 4, 6, 9, 12]))
@settings(max_examples=300, deadline=None)
def test_signed_expansion_roundtrip_and_range(k, b):
    digits = signed_expansion(k, b)
    assert signed_value(digits, b) == k
    lo, hi = -(b // 2), b - 1 - b // 2
    assert all(lo <= d <= hi for d in digits)
    if digits:
        assert digits[-1] != 0


def test_signed_expansion_uniqueness_exhaustive():
    seen = {}
    for k in range(-10**4, 10**4 + 1):
        key = tuple(signed_expansion(k, 3))
        assert key not in seen
        seen[key] = k


def test_a_adic_examples():
    assert a_adic_expansion((0, 0), P12) == []
    assert a_adic_expansion((4, -7), P12) == [(1, -1), (1, -1)]
    assert reconstruct([(1, -1), (1, -1)], P12) == (4, -7)


def test_a_adic_componentwise_consistency():
    rng = random.Random(1)
    for _ in range(500):
        w = (rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9))
        digits = a_adic_expansion(w, P12)
        xs = [d[0] for d in digits]
        ys = [d[1] for d in digits]
        ex = signed_expansion(w[0], P12.base_x)
        ey = signed_expansion(w[1], P12.base_y)
        assert xs[: len(ex)] == ex and all(d == 0 for d in xs[len(ex):])
        assert ys[: len(ey)] == ey and all(d == 0 for d in ys[len(ey):])
        assert reconstruct(digits, P12) == w


def test_reconstruct_rejects_bad_digit():
    assert reconstruct([], P12) == (0, 0)
    assert reconstruct([(1, -2)], P12) == (1, -2)
    with pytest.raises(LatticeError, match="index 1"):
        reconstruct([(0, 0), (5, 0)], P12)


def test_digit_set_catalog():
    cat = enumerate_digit_sets(P11)
    assert set(cat.gamma) == {(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)}
    assert set(cat.e_q1) == {(0, y) for y in (-1, 0, 1)}
    cat12 = enumerate_digit_sets(P12)
    assert len(cat12.gamma) == 18
    assert len(cat12.e_q1) == 6
    assert len(cat12.e_q2) == 6
    cat22 = enumerate_digit_sets(P22)
    assert set(cat22.c_set) == {(0, 0), (2, -2), (-2, 2)}
    for p in (P11, P12, P22):
        cat = enumerate_digit_sets(p)
        assert len(cat.gamma) == 9 * p.q1 * p.q2
        assert set(cat.l_set) == set(cat.c_set)
        bx, by = p.base_x, p.base_y
        assert all(
            -(bx / 2) <= v[0] < bx / 2 and -(by / 2) <= v[1] < by / 2
            for v in cat.gamma
        )


@pytest.mark.parametrize("q1,q2,cosets", [(1, 1, 3), (1, 2, 6), (4, 4, 48)])
def test_residue_decomposition(q1, q2, cosets):
    r1, r2 = verify_residue_decomposition(MatrixParams(q1, q2))
    assert r1.passed and r1.coset_count == cosets
    assert r2.passed and r2.coset_count == cosets


def test_mod_a_reduce_examples():
    assert mod_a_reduce((0, 0), P12) == (0, 0)
    assert mod_a_reduce((3, 6), P12) == (0, 0)
    assert mod_a_reduce((2, -2), P11) == (-1, 1)


@given(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=-(10**6), max_value=10**6),
)
@settings(max_examples=200, deadline=None)
def test_mod_a_reduce_congruence(ux, uy, vx, vy):
    p = P12
    same_class = (ux - vx) % p.base_x == 0 and (uy - vy) % p.base_y == 0
    assert (mod_a_reduce((ux, uy), p) == mod_a_reduce((vx, vy), p)) == same_class
    r = mod_a_reduce((ux, uy), p)
    assert mod_a_reduce(r, p) == r
    assert (ux - r[0]) % p.base_x == 0 and (uy - r[1]) % p.base_y == 0


def test_log2_bounds_concrete_are_bit_lengths():
    for k in (1, 2, 30, 63, 64, 1100):
        assert scalar_log2_bounds(2**k - 1, (), 6) == (k - 1, k)
        assert scalar_log2_bounds(-(2**k), (), 6) == (k, k + 1)
    assert scalar_log2_bounds(1, (), 6) == (0, 1)
    assert scalar_log2_bounds(0, (), 6) == (-math.inf, 0)
    assert scalar_log2_bounds(0, ((70, 0),), 6) == (-math.inf, 0)  # zero terms drop out


def _assert_encloses(value: int, lo: float, hi: float):
    """2^lo <= |value| < 2^hi, read through the exact log of a big int."""
    assert value != 0
    assert lo <= math.log2(abs(value)) < hi


def test_log2_bounds_symbolic():
    B = 24
    cases = [
        (5, ((70, 1),)),
        (-(10**9), ((70, -3), (200, 2))),
        (0, ((65, 2**1100 + 7),)),  # a coefficient beyond the float range
        (2**1030, ((400, -(2**1025)), (65, 2**1100))),
        (B**99, ((100, -1),)),  # the base trims a twenty-fourth off the top term
    ]
    for b, terms in cases:
        lo, hi = scalar_log2_bounds(b, terms, B)
        _assert_encloses(scalar_materialize(b, terms, B), lo, hi)
        assert hi - lo < 1


def test_log2_bounds_beyond_materialize_limit():
    e = MATERIALIZE_EXPONENT_LIMIT + 10
    top = e * math.log2(24)
    lo, hi = scalar_log2_bounds(-7, ((e, 3), (e - 5, -(2**15))), 24)
    assert lo <= top + math.log2(3) < hi and hi - lo < 1
    # a lower term whose coefficient outweighs the top term: only hi is claimed
    lo, hi = scalar_log2_bounds(-7, ((e, 3), (e - 5, -(2**900))), 24)
    assert lo == -math.inf and (e - 5) * math.log2(24) + 900 < hi
    lo, hi = scalar_log2_bounds(0, ((10**30, 1),), 12)
    assert lo <= 10**30 * math.log2(12) < hi
    assert scalar_log2_bounds(0, ((10**400, 1),), 12) == (-math.inf, math.inf)


def test_log2_bounds_cancelling():
    B, e = 24, 80
    # the base cancels the top term down to 1
    lo, hi = scalar_log2_bounds(-(B**e - 1), ((e, 1),), B)
    assert lo == -math.inf and hi > 0
    # the lower pieces cancel the top term together, none of them alone
    lo, hi = scalar_log2_bounds(1 - B ** (e - 1), ((e - 1, 1 - B), (e, 1)), B)
    assert lo == -math.inf and hi > 0
    # the top term outweighs the rest by less than 4: no lower bound either
    lo, hi = scalar_log2_bounds(B**e // 3, ((e, 1),), B)
    assert lo == -math.inf
    _assert_encloses(B**e + B**e // 3, lo, hi)


@given(
    st.integers(-(10**6), 10**6),
    st.lists(st.tuples(st.integers(65, 400), st.integers(-5, 5)), max_size=3,
             unique_by=lambda t: t[0]),
    st.sampled_from([3, 6, 12, 24]),
    st.sampled_from(["free", "cancel"]),
)
def test_log2_bounds_enclose(b, terms, B, kind):
    if kind == "cancel":
        b -= scalar_materialize(0, terms, B)
    value = scalar_materialize(b, terms, B)
    lo, hi = scalar_log2_bounds(b, terms, B)
    if value == 0:
        assert lo == -math.inf
    else:
        _assert_encloses(value, lo, hi)


def _assert_column_bounds_match(vals, p):
    """log2_bound_columns on the columns of vals equals scalar_log2_bounds of
    every value and axis, to the last bit."""
    lo, hi = log2_bound_columns(*value_columns(vals), p)
    assert lo.shape == hi.shape == (len(vals), 2)
    for i, v in enumerate(vals):
        for axis in (0, 1):
            assert (lo[i, axis], hi[i, axis]) == scalar_log2_bounds(*scalar_parts(v, p, axis)), \
                (i, axis)


def test_log2_bound_columns_match_the_scalar_bounds():
    p = MatrixParams(4, 8)
    B = p.base_x
    rng = random.Random(20261020)
    concrete = [(0, 0), (1, -1), (-1, 1), (0, 1), (2**53 - 1, 2**53 + 1), (-(2**53), 3)]
    edge = [(2**62 - 1, 1 - 2**62), (1 - 2**62, 2**62 - 1), (2**62 - 2, -(2**61))]
    past = [(2**62, -(2**62)), (-(2**62), 0), (2**63, 1 - 2**64)]
    megabit = [tuple(rng.choice((1, -1)) * rng.getrandbits(2**20) for _ in range(2))
               for _ in range(4)] + [(0, -(2**2**20))]
    symbolic = [SymVec((3, -5), ((e, (1, -2)),)) for e in (64, 65, 66, 300, 10**30)]
    symbolic += [SymVec((0, 0), ((e, (2, 0)),)) for e in (65, 10**400)]  # past the float range
    symbolic += [SymVec((7, 7), ((70, (1, 1)), (10**400, (0, -1))))]
    for e in (65, 130, 2000):
        bx, by = B**e, p.base_y**e
        symbolic += [
            SymVec((1 - bx, 1 - by), ((e, (1, 1)),)),  # the base cancels the top term to 1
            SymVec((bx - 3, by // 5), ((e, (-1, 1)),)),
            SymVec((1 - bx // B, 2), ((e - 1, (1 - B, 0)), (e, (1, 0)))),  # together they do
            SymVec((5, -(by // 3)), ((e - 7, (0, 4)), (e - 2, (-3, 0)), (e, (1, 1)))),
            SymVec((0, 9), ((e, (0, 1)), (e + 5, (1, 0)))),  # one component zero per term
            SymVec((2**61, -3), ((e - 1, (2**61 - 1, 1 - 2**61)), (e, (1, -1)))),
        ]
    for batch in (concrete, concrete + edge, concrete + edge + past, megabit, symbolic,
                  [SymVec(v) for v in concrete] + symbolic[:3], symbolic + megabit + edge):
        vals = [v if isinstance(v, SymVec) else SymVec(v) for v in batch]
        _assert_column_bounds_match(vals, p)
    # an exponent past the float range bounds nothing, on its own axis only
    lo, hi = log2_bound_columns(*value_columns(symbolic[6:8]), p)
    assert (lo[0, 0], hi[0, 0], lo[1, 1], hi[1, 1]) == (-math.inf, math.inf) * 2
    assert math.isfinite(lo[1, 0]) and math.isfinite(hi[1, 0])
    lo, hi = log2_bound_columns(*value_columns([]), p)
    assert lo.shape == (0, 2)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_log2_bound_columns_property(data):
    p = data.draw(st.sampled_from([P12, P22, MatrixParams(4, 8)]))
    coef = st.integers(-3, 3)
    vals = []
    for _ in range(data.draw(st.integers(1, 6))):
        exps = sorted(data.draw(st.lists(st.integers(1, 400), max_size=3, unique=True)))
        terms = tuple((e, v) for e in exps for v in [(data.draw(coef), data.draw(coef))]
                      if v != (0, 0))
        base = []
        for axis, B in enumerate((p.base_x, p.base_y)):
            b = data.draw(st.integers(-(10**6), 10**6))
            if terms and data.draw(st.booleans()):  # cancel the top term down to b
                b -= terms[-1][1][axis] * B ** terms[-1][0]
            base.append(b)
        vals.append(SymVec(tuple(base), terms))
    _assert_column_bounds_match(vals, p)


def test_value_columns_at_the_int64_border():
    top = 2**62
    for vals, dtype in (([(top - 1, 1 - top), (0, 5), (0, 5)], np.int64), ([], np.int64),
                        ([(top, 0), (1, 1)], object), ([(0, -top)], object),
                        ([(2**70, 1)], object), ([(-(2**64), 0), (3, -3)], object)):
        xs, ys, terms = value_columns([SymVec(v) for v in vals])
        assert xs.dtype == ys.dtype == dtype and terms is None
        assert list(zip(xs.tolist(), ys.tolist())) == vals
    kicked = SymVec((1, 2), ((70, (1, 0)), (90, (-3, 4))))
    for vals, dtype, exp_dtype in (
        ([SymVec((0, 0)), kicked], np.int64, np.int64),
        ([kicked, SymVec((2**70, 0))], object, np.int64),
        ([SymVec((0, 0), ((5, (2**61 - 1, 1 - 2**61)),))], np.int64, np.int64),
        ([SymVec((0, 0), ((5, (2**61, 0)),)), kicked], object, np.int64),
        ([kicked, SymVec((0, 0), ((2**62, (1, 0)),))], np.int64, object),
    ):
        xs, ys, terms = value_columns(vals)
        assert xs.dtype == ys.dtype == terms.x.dtype == terms.y.dtype == dtype
        assert terms.exponent.dtype == exp_dtype and terms.index.dtype == np.int64
        assert list(zip(xs.tolist(), ys.tolist())) == [v.base for v in vals]
        rows = list(zip(*(c.tolist() for c in terms)))
        assert rows == [(i, e, vx, vy) for i, v in enumerate(vals) for e, (vx, vy) in v.terms]


def test_column_values_hand_over_their_columns():
    for dtype in (np.int64, object):
        xs = np.array([0, -4, 2**40], dtype=dtype)
        ys = np.array([7, 1, -3], dtype=dtype)
        view = ColumnValues(xs, ys)
        got = value_columns(view)
        assert got[0] is xs and got[1] is ys and got[2] is None
        assert len(view) == 3 and list(view) == [SymVec((0, 7)), SymVec((-4, 1)),
                                                 SymVec((2**40, -3))]
        assert view[-1] == SymVec((2**40, -3)) and type(view[1].base[0]) is int


@pytest.mark.parametrize("p", [P11, P12, P22, MatrixParams(3, 7), MatrixParams(4, 8)], ids=str)
def test_e_q1_predicate_matches_the_catalog(p):
    cat = enumerate_digit_sets(p)
    box = range(-p.base_y, p.base_y + 1)
    assert {(x, y) for x in box for y in box if in_e_q1((x, y), p)} == set(cat.e_q1)


def test_module_layering():
    """lattice imports no sibling module and fourier imports only lattice: the
    value columns and the residue walk sit below every check."""
    src = Path(sierpspec.__file__).parent
    siblings = {path.stem for path in src.glob("*.py")} - {"__init__"}

    def imported(name):
        names = set()
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
            if isinstance(node, ast.Import):
                names |= {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom):  # from .x import y, from . import x
                module = node.module or ""
                if node.level and not module or module == "sierpspec":
                    names |= {a.name for a in node.names}
                else:
                    names.add(module)
        return {n.removeprefix("sierpspec.").split(".")[0] for n in names} & siblings

    assert {"lattice", "fourier", "verify", "treemap"} <= siblings
    assert imported("lattice") == set()
    assert imported("fourier") == {"lattice"}
