import math
import random

import pytest

from sierpspec.fourier import (
    _step_sign,
    in_zero_set,
    in_zero_set_sym,
    mask,
    mu_hat,
    zero_set_1d,
    zero_set_1d_sym,
)
from sierpspec.lattice import MatrixParams, SymVec

P11 = MatrixParams(1, 1)
P12 = MatrixParams(1, 2)
P23 = MatrixParams(2, 3)


def test_mask_examples():
    assert mask((0, 0)) == pytest.approx(1.0)
    assert abs(mask((1 / 3, 2 / 3))) < 1e-14
    assert mask((0.5, 0)) == pytest.approx(1 / 3)


def test_mask_bound():
    rng = random.Random(0)
    for _ in range(10_000):
        x = (rng.uniform(-50, 50), rng.uniform(-50, 50))
        assert abs(mask(x)) <= 1 + 1e-12


def test_mu_hat_examples():
    t = mu_hat((0, 0), P12, 10)
    assert t.value == pytest.approx(1.0) and t.tail_bound == 0.0
    z = mu_hat((1, -1), P11, 30)
    assert abs(z.value) < 1e-10
    a20 = mu_hat((0.1, 0.1), P11, 20)
    a40 = mu_hat((0.1, 0.1), P11, 40)
    assert abs(a40.value - a20.value) <= a20.tail_bound


def test_in_zero_set_examples():
    assert in_zero_set((0, 0), P12) is None
    w = in_zero_set((1, 4), P12)
    assert w is not None and w.level == 1 and w.residue_class == "Q12"
    assert in_zero_set((1, 0), P12) is None


def _verify_witness(v, p, w):
    x, y = v
    for _ in range(w.level - 1):
        assert x % p.base_x == 0 and y % p.base_y == 0
        x //= p.base_x
        y //= p.base_y
    expected = (p.q1, -p.q2) if w.residue_class == "Q12" else (-p.q1, p.q2)
    assert (x - expected[0]) % p.base_x == 0
    assert (y - expected[1]) % p.base_y == 0


def test_witness_validity_and_scaling():
    rng = random.Random(7)
    for p in (P11, P12, P23):
        for _ in range(300):
            v = (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
            w = in_zero_set(v, p)
            if w is None:
                continue
            _verify_witness(v, p, w)
            w2 = in_zero_set(p.mul(v), p)
            assert w2 is not None and w2.level == w.level + 1


def test_exact_numeric_agreement():
    rng = random.Random(42)
    for p in (P11, P12, P23):
        for _ in range(1000):
            v = (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
            if v == (0, 0):
                continue
            depth = 1
            while mu_hat(v, p, depth).tail_bound > 1e-10:
                depth += 1
            t = mu_hat(v, p, depth)
            if in_zero_set(v, p) is not None:
                assert abs(t.value) < 1e-9, v
            else:
                assert abs(t.value) > t.tail_bound, v


def test_in_zero_set_sym_matches_concrete():
    rng = random.Random(3)
    p = P12
    for _ in range(400):
        base = (rng.randint(-500, 500), rng.randint(-500, 500))
        e = rng.randint(1, 6)
        term = (rng.randint(-2, 2), rng.randint(-2, 2))
        sv = SymVec(base=base, terms=((e, term),) if term != (0, 0) else ())
        concrete = sv.materialize(p)
        ws = in_zero_set_sym(sv, p)
        wc = in_zero_set(concrete, p) if concrete != (0, 0) else None
        assert (ws is None) == (wc is None)
        if ws is not None:
            assert (ws.level, ws.residue_class) == (wc.level, wc.residue_class)


def test_in_zero_set_sym_huge_exponent():
    p = MatrixParams(4, 8)
    kick = (1, -2)
    # pure kick term: strips straight down to the kick digit
    sv = SymVec(base=(0, 0), terms=((10**6, kick),))
    w = in_zero_set_sym(sv, p)
    assert w is None  # (1, -2) is not +-(q1, -q2)
    sv2 = SymVec(base=(0, 0), terms=((10**6, (4, -8)),))
    w2 = in_zero_set_sym(sv2, p)
    assert w2 is not None and w2.level == 10**6 + 1
    # base dominates the verdict long before the kick exponent comes down
    sv3 = SymVec(base=(4, -8), terms=((10**6, kick),))
    w3 = in_zero_set_sym(sv3, p)
    assert w3 is not None and w3.level == 1


def test_zero_set_1d_examples():
    assert not zero_set_1d(0, 1)
    assert zero_set_1d(1, 1)
    assert not zero_set_1d(3, 2)
    assert zero_set_1d(2, 2)
    assert zero_set_1d(6 * 5 + 2, 2)
    assert zero_set_1d(36 * 4, 2) == zero_set_1d(4, 2)


def test_zero_set_1d_sym():
    q = 2
    b = 3 * q
    for base, e, c in ((5, 3, 1), (0, 4, 2), (-2, 2, -1), (7, 5, 1)):
        concrete = base + b**e * c
        assert zero_set_1d_sym(base, ((e, c),), b, q) == zero_set_1d(concrete, q)


def test_step_sign_matches_its_definition():
    # +1 when d = step mod diag(bases), -1 when d = -step, 0 otherwise; in the
    # plane and on one axis (step (q, 0), bases (3q, 3q)), with big and
    # negative entries
    rng = random.Random(7)
    for q1, q2 in ((1, 1), (1, 2), (4, 8), (3, 5), (10**9, 10**12)):
        bases = (3 * q1, 3 * q2)
        for step, bs in (((q1, -q2), bases), ((q1, 0), (3 * q1, 3 * q1))):
            for _ in range(300):
                sign = rng.choice((1, -1, 0))
                lift = (rng.randint(-5, 5) * bs[0], rng.randint(-(2**70), 2**70) * bs[1])
                d = (sign * step[0] + lift[0], sign * step[1] + lift[1])
                if sign == 0:
                    d = (d[0] + rng.randint(0, bs[0] - 1), d[1] + rng.randint(0, bs[1] - 1))
                want = next(
                    (s for s in (1, -1)
                     if all((x - s * t) % b == 0 for x, t, b in zip(d, step, bs))),
                    0,
                )
                assert _step_sign(d, step, bs) == want
                if sign:
                    assert want == sign
