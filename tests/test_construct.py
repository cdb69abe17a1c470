import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sierpspec.construct import (
    MAX_PATTERN_POINTS,
    build_intermediate_spectrum,
    coherent_perturbation_report,
    family_variants,
    gamma_t_from_density,
    pattern_lattice_points,
    t_max,
)
from sierpspec.dimension import (
    Periodic,
    beurling_dim_estimate,
    geometric_scales,
    lacunary_check,
)
import sierpspec
from sierpspec.lattice import MatrixParams, enumerate_digit_sets, sym_diff, sym_is_zero
from sierpspec.treemap import CanonicalMapping, enumerate_spectrum, validate_tree_mapping
from sierpspec.verify import check_orthogonality

P12 = MatrixParams(1, 2)
P44 = MatrixParams(4, 4)
P48 = MatrixParams(4, 8)


def test_gamma_t_density_mapping():
    tm = t_max(P12)
    pattern, member = gamma_t_from_density(tm, P12)
    assert pattern.density == pytest.approx(1.0)
    assert all(member(k) for k in range(-40, 41))
    pattern0, member0 = gamma_t_from_density(0.0, P12)
    assert pattern0.density == 0.0
    assert member0(0) and not any(member0(k) for k in range(1, 41))
    pattern3, _ = gamma_t_from_density(0.3, P12)
    d = 0.3 * math.log(6) / math.log(3)
    assert pattern3.density == pytest.approx(d)
    horizon = 10_000
    avg = sum(1 for i in range(1, horizon + 1) if pattern3.active(i)) / horizon
    assert abs(avg - d) < 1e-3
    with pytest.raises(ValueError):
        gamma_t_from_density(tm + 0.05, P12)


def test_density_is_affine_in_t():
    tm = t_max(P48)
    ds = [gamma_t_from_density(t, P48)[0].density for t in (0.0, tm / 2, tm)]
    assert ds[0] == 0.0
    assert ds[2] == pytest.approx(1.0)
    assert ds[1] == pytest.approx(0.5, abs=1e-12)


def test_t_max_prefix_equals_canonical():
    spec = build_intermediate_spectrum(t_max(P48), P48)
    pre = spec.prefix(40)
    canon = enumerate_spectrum(CanonicalMapping(), P48, index_bound=40)
    assert [pt.value for pt in pre.points] == [pt.value for pt in canon.points]


def test_all_kicked_lacunary():
    spec = build_intermediate_spectrum(0.0, P44)
    pre = spec.prefix(50)
    rep = lacunary_check(pre, 36)
    assert rep.ratio_pass and rep.min_ratio >= 36


def test_intermediate_orthogonal_and_valid():
    spec = build_intermediate_spectrum(0.3, P44, mode="coherent")
    assert validate_tree_mapping(spec.mapping(), P44, 6).passed
    pre = spec.prefix(121)
    assert check_orthogonality(pre).passed


def test_kick_rejected_with_hint():
    with pytest.raises(Exception, match="E_q1"):
        build_intermediate_spectrum(0.1, P12)
    spec = build_intermediate_spectrum(0.1, P12, kick=(0, 1))
    assert check_orthogonality(spec.prefix(40)).passed


def test_split_parts_and_dimensions():
    spec = build_intermediate_spectrum(0.3, P48)
    pre = spec.prefix(364)
    f_part, kicked = spec.split(pre)
    assert len(f_part) + len(kicked) == len(pre.points)
    assert all(pt.kick_position is None for pt in f_part)
    assert all(pt.kick_position is not None for pt in kicked)
    scales = geometric_scales(P48, 1, 6)
    est_f = beurling_dim_estimate(f_part, scales, P48, centers="sample:32")
    assert abs(est_f.slope - 0.3) < 0.1
    est_k = beurling_dim_estimate(kicked, scales, P48, centers="sample:32")
    assert est_k.slope < 0.1
    est_union = beurling_dim_estimate(pre, scales, centers="sample:32")
    assert abs(est_union.slope - 0.3) < 0.1


def test_f_part_is_sublattice_of_canonical():
    spec = build_intermediate_spectrum(0.3, P48)
    pre = spec.prefix(364)
    f_part, _ = spec.split(pre)
    brute = set(pattern_lattice_points(P48, spec.pattern, depth=6))
    assert {pt.value.base for pt in f_part} <= brute
    report = coherent_perturbation_report(spec, pre)
    assert report["f_part_changed"] == 0


def test_family_variants_distinct():
    specs = family_variants(0.15, P48, count=4, seed=0)
    assert len(specs) == 4
    assert specs[0].variant_bits == ()
    prefixes = [spec.prefix(121) for spec in specs]
    for i in range(4):
        for j in range(i + 1, 4):
            pa, pb = prefixes[i], prefixes[j]
            differs = any(
                not sym_is_zero(sym_diff(a.value, b.value), P48)
                for a, b in zip(pa.points, pb.points)
            )
            assert differs, (i, j)
    # single variant is the canonical choice
    only = family_variants(0.15, P48, count=1, seed=9)
    assert only[0].variant_bits == ()
    with pytest.raises(ValueError):
        family_variants(0.15, P48, count=2**16 + 1)


def test_variants_keep_offsets_increasing():
    spec = family_variants(0.15, P48, count=4, seed=0)[3]
    offs = spec.mapping().offsets
    for branch in (range(1, 30), range(-1, -30, -1)):
        last = -1
        for k in branch:
            m = offs(k)
            if m:
                assert m > last
                last = m


def _oracle_pattern_lattice_points(p, pattern, depth, digit_set=None):
    """``pattern_lattice_points`` before the int64 rows were deduplicated in
    numpy: every row goes through a set of tuples."""
    digits = tuple(digit_set) if digit_set is not None else enumerate_digit_sets(p).l_set
    active = [j for j in range(1, depth + 1) if pattern.active(j)]
    if len(digits) ** len(active) > MAX_PATTERN_POINTS:
        raise ValueError("pattern set too large to enumerate")
    max_x = max(abs(d[0]) for d in digits) * sum(p.base_x ** (j - 1) for j in active)
    max_y = max(abs(d[1]) for d in digits) * sum(p.base_y ** (j - 1) for j in active)
    if max(max_x, max_y, 1).bit_length() < 62:
        arr = np.zeros((1, 2), dtype=np.int64)
        base = np.array(digits, dtype=np.int64)
        for j in active:
            scaled = base * np.array([p.base_x ** (j - 1), p.base_y ** (j - 1)])
            arr = (arr[:, None, :] + scaled[None, :, :]).reshape(-1, 2)
        points = {(int(x), int(y)) for x, y in arr}
    else:
        points = set()
        for combo in itertools.product(digits, repeat=len(active)):
            x = y = 0
            for j, (dx, dy) in zip(active, combo):
                x += p.base_x ** (j - 1) * dx
                y += p.base_y ** (j - 1) * dy
            points.add((x, y))
    return sorted(points)


def _same_points(got, want):
    assert got == want
    assert all(type(x) is int and type(y) is int for x, y in got)


# (period, active positions) of the benchmark's periodic patterns
BENCH_PATTERN_SHAPES = ((2, 1), (3, 2), (4, 3), (6, 3), (6, 4))


@pytest.mark.parametrize("shape", BENCH_PATTERN_SHAPES, ids=str)
def test_pattern_points_match_set_oracle(shape):
    period, count = shape
    for on in itertools.combinations(range(period), count):
        pattern = Periodic(tuple(int(j in on) for j in range(period)))
        for depth in range(1, 13):
            _same_points(pattern_lattice_points(P12, pattern, depth),
                         _oracle_pattern_lattice_points(P12, pattern, depth))


def test_pattern_points_edge_cases_match_set_oracle():
    # no active position: the single empty sum
    for depth in (1, 5):
        got = pattern_lattice_points(P12, Periodic((0,)), depth)
        assert got == [(0, 0)]
        _same_points(got, _oracle_pattern_lattice_points(P12, Periodic((0,)), depth))
    # digit base_x at position j equals digit 1 at position j + 1: sums collide
    for p in (P12, P48):
        digits = [(0, 0), (1, 0), (p.base_x, 0), (0, -1)]
        for bits in ((1,), (1, 1, 0), (0, 1, 1)):
            for depth in (2, 5, 8):
                got = pattern_lattice_points(p, Periodic(bits), depth, digits)
                want = _oracle_pattern_lattice_points(p, Periodic(bits), depth, digits)
                _same_points(got, want)
                active = [j for j in range(1, depth + 1) if Periodic(bits).active(j)]
                if any(j + 1 in active for j in active):
                    assert len(got) < len(digits) ** len(active)
    # coordinates past 2^62: the exact object branch
    big = MatrixParams(1, 1000)
    for bits, depth in (((1,), 7), ((1, 0), 12), ((0, 1, 1), 9)):
        got = pattern_lattice_points(big, Periodic(bits), depth)
        assert max(abs(y) for _, y in got).bit_length() > 62
        _same_points(got, _oracle_pattern_lattice_points(big, Periodic(bits), depth))


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads the child's own size")
def test_digits_of_a_huge_residue_box_never_build_it():
    # Gamma has 9 q1 q2 digits: 9 * 10^7 tuples at (1, 10^7), far past the
    # child's address-space cap, set once numpy and the package are mapped
    code = """
import itertools
import resource
from sierpspec.construct import pattern_lattice_points
from sierpspec.dimension import Periodic
from sierpspec.lattice import MatrixParams
from sierpspec.treemap import (CanonicalMapping, KickError, KickedMapping, TableOffsets,
                               validate_tree_mapping)
cap = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize() + 2**29
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
pts = pattern_lattice_points(MatrixParams(1, 10**7), Periodic((1,)), 4)
digits = ((0, 0), (1, -10**7), (-1, 10**7))
want = {(sum(d[0] * 3**j for j, d in enumerate(c)),
         sum(d[1] * (3 * 10**7) ** j for j, d in enumerate(c)))
        for c in itertools.product(digits, repeat=4)}
assert len(pts) == 81 and set(pts) == want
p = MatrixParams(4, 10**7)
offsets = TableOffsets({1: 1, -4: 2})
for mapping, passed in ((CanonicalMapping(), True), (KickedMapping(offsets), True),
                        (KickedMapping(offsets, kick=(1, 5), mode="literal"), False)):
    assert validate_tree_mapping(mapping, p, 4).passed is passed
try:
    KickedMapping(offsets, kick=(2, 0)).resolve_kick(p)
except KickError:
    print("ok")
"""
    root = str(Path(sierpspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=300)
    assert res.returncode == 0 and res.stdout.split() == ["ok"], res.stderr[-2000:]
