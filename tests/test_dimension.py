import math
import random
from fractions import Fraction

import pytest

from sierpspec.construct import build_intermediate_spectrum, pattern_lattice_points
from sierpspec.dimension import (
    Beatty,
    Explicit,
    Periodic,
    beurling_dim_estimate,
    count_in_ball,
    entropy_dim_closed_form,
    entropy_dim_monte_carlo,
    formula_dim_1d,
    formula_dim_2d,
    geometric_scales,
    lacunary_check,
    relative_density_check,
    support_hausdorff_dim,
)
from sierpspec.lattice import MatrixParams, SymVec, enumerate_digit_sets
from sierpspec.treemap import CanonicalMapping, SpectrumPoint, enumerate_spectrum

P11 = MatrixParams(1, 1)
P12 = MatrixParams(1, 2)
P48 = MatrixParams(4, 8)


def test_count_in_ball_examples():
    assert count_in_ball([], (0.0, 0.0), 1.0, P11) == 0
    pre = enumerate_spectrum(CanonicalMapping(), P11, level=2)
    assert count_in_ball(pre, (0, 0), 10) == 9
    assert count_in_ball(pre, (0, 0), 0.5) == 1
    assert count_in_ball(pre, (0.25, 0.0), 0.5) == 1  # fractional center stays exact


def test_count_in_ball_monotone_in_radius():
    pre = enumerate_spectrum(CanonicalMapping(), P12, level=4)
    counts = [count_in_ball(pre, (0, 0), 6**j) for j in range(1, 5)]
    assert counts == sorted(counts)


def _exact_point(item, p):
    """Every coordinate expanded, as Fractions."""
    if isinstance(item, SpectrumPoint):
        item = item.value
    if isinstance(item, SymVec):
        item = item.materialize(p)
    return Fraction(item[0]), Fraction(item[1])


def _brute_counts(points, center, scales, p):
    """Oracle: expand every point and compare exact squared distances."""
    cx, cy = _exact_point(center, p)
    d2s = [(x - cx) ** 2 + (y - cy) ** 2 for x, y in (_exact_point(v, p) for v in points)]
    return [sum(1 for d2 in d2s if d2 < Fraction(h) ** 2) for h in scales]


def _differential_cases():
    rng = random.Random(20231017)
    canon = list(enumerate_spectrum(CanonicalMapping(), P12, level=5).points)
    yield ("canonical", canon, [(0, 0)] + rng.sample(canon, 6),
           geometric_scales(P12, 1, 6), P12)
    for t in (0.15, 0.3):
        spec = build_intermediate_spectrum(t, P48)
        f_part, kicked = spec.split(spec.prefix(60))
        centers = [(0, 0), (Fraction(1, 3), Fraction(-7, 2))]
        centers += rng.sample(kicked, 5) + rng.sample(f_part, 2)
        yield (f"kicked t={t}", kicked, centers, geometric_scales(P48, 1, 6), P48)
        # coincident points, and scales up to 24^14 > 2^63
        union = f_part + kicked + f_part[:3] + kicked[:3]
        yield (f"union t={t}", union, centers, geometric_scales(P48, 1, 14), P48)
    edge = [0, 2**30 - 1, 2**30, 2**30 + 1]
    coords = sorted({s * e for e in edge for s in (1, -1)})
    border = [(x, y) for x in coords for y in coords]
    centers = [(0, 0), (2**30 - 1, 1 - 2**30), (-(2**30), 2**30), (2**30 + 1, 0),
               (Fraction(2**31 - 1, 2), Fraction(-1, 2))]
    yield ("int64 border", border, centers,
           [1, 2**30 - 1, 2**30, 2**31 - 1, 2**31, 2**31 + 1, 2**32, 2**33 + 0.5], P11)
    small = [(rng.randint(-1000, 1000), rng.randint(-1000, 1000)) for _ in range(200)]
    mixed = small + small[:20] + [(10**400, -3), (10**400, -3)]
    centers = [(0, 0), small[0], (10**400, 0), (Fraction(1, 2), Fraction(1, 3)), (0.25, -0.75)]
    yield ("mixed", mixed, centers,
           [0.5, Fraction(7, 3), 2.5, 100.25, 1000, 2**70], P11)


@pytest.mark.parametrize("case", list(_differential_cases()), ids=lambda c: c[0])
def test_counts_match_brute_force_oracle(case):
    _, points, centers, scales, p = case
    want = [_brute_counts(points, c, scales, p) for c in centers]
    for c, row in zip(centers, want):
        assert [count_in_ball(points, c, h, p) for h in scales] == row
    est = beurling_dim_estimate(points, scales, p, centers=centers)
    assert list(est.counts) == [max(col) for col in zip(*want)]


def test_beurling_estimate_canonical():
    pre = enumerate_spectrum(CanonicalMapping(), P12, level=11)
    est = beurling_dim_estimate(pre, geometric_scales(P12, 4, 10), centers="sample:32")
    assert abs(est.slope - math.log(3) / math.log(6)) < 0.08
    pre11 = enumerate_spectrum(CanonicalMapping(), P11, level=11)
    est11 = beurling_dim_estimate(pre11, geometric_scales(P11, 4, 10), centers="sample:32")
    assert abs(est11.slope - 1.0) < 0.08


def test_beurling_estimate_guards():
    pre = enumerate_spectrum(CanonicalMapping(), P12, level=3)
    with pytest.raises(ValueError):
        beurling_dim_estimate(pre, [6, 36, 216])  # too few scales
    with pytest.raises(ValueError):
        beurling_dim_estimate(pre, [6, 6, 36, 216])
    with pytest.raises(ValueError):
        beurling_dim_estimate([], geometric_scales(P12, 1, 4), P12)


def test_estimate_monotone_and_stable_under_union():
    lvl4 = enumerate_spectrum(CanonicalMapping(), P12, level=4)
    lvl6 = enumerate_spectrum(CanonicalMapping(), P12, level=6)
    scales = geometric_scales(P12, 1, 4)
    small = beurling_dim_estimate(lvl4, scales, centers="origin")
    big = beurling_dim_estimate(lvl6, scales, centers="origin")
    assert small.slope <= big.slope + 0.02
    union = list(lvl4.points) + [
        pt for pt in lvl6.points if abs(pt.k) > lvl4.index_bound
    ]
    both = beurling_dim_estimate(union, scales, P12, centers="origin")
    assert both.slope >= max(small.slope, big.slope) - 0.02
    assert both.slope <= max(small.slope, big.slope) + 0.05


def test_formula_dim_1d():
    assert formula_dim_1d(6, (0, 1, 2), Periodic((1,))) == pytest.approx(
        math.log(3) / math.log(6)
    )
    assert formula_dim_1d(6, (0, 1, 2), Periodic((0,))) == 0.0
    alt = formula_dim_1d(6, (0, 1, 2), Periodic((1, 0)))
    assert alt == pytest.approx(0.5 * math.log(3) / math.log(6))
    with pytest.raises(ValueError):
        formula_dim_1d(6, (0, 5), Periodic((1,)))  # 5 outside [-3, 2]


def test_formula_dim_1d_oracle_agreement():
    # counting oracle on the generated one-dimensional set, embedded on the x-axis
    pat = Periodic((1, 0))
    depth = 12
    vals = {0}
    for j in range(1, depth + 1):
        if pat.active(j):
            vals = {v + 6 ** (j - 1) * d for v in vals for d in (0, 1, 2)}
    pts = [(v, 0) for v in vals]
    est = beurling_dim_estimate(
        pts, [6**j for j in range(1, depth + 1)], P12, centers="sample:16"
    )
    assert abs(est.slope - formula_dim_1d(6, (0, 1, 2), pat)) < 0.05


def test_formula_dim_2d():
    l_set = enumerate_digit_sets(P12).l_set
    full = formula_dim_2d(3, 6, l_set, Periodic((1,)))
    assert full == pytest.approx(math.log(3) / math.log(6))
    assert formula_dim_2d(3, 6, l_set, Periodic((0,))) == 0.0
    beat = formula_dim_2d(3, 6, l_set, Beatty(0.5))
    assert beat == pytest.approx(0.5 * math.log(3) / math.log(6))
    with pytest.raises(ValueError):
        formula_dim_2d(3, 6, [(0, 0), (1, 0)], Periodic((1,)))  # y-collision
    with pytest.raises(ValueError):
        formula_dim_2d(6, 3, l_set, Periodic((1,)))  # a > b


def test_formula_dim_2d_beatty_oracle():
    pat = Beatty(0.5)
    pts = pattern_lattice_points(P12, pat, depth=12)
    est = beurling_dim_estimate(pts, geometric_scales(P12, 1, 12), P12, centers="sample:16")
    ref = formula_dim_2d(3, 6, enumerate_digit_sets(P12).l_set, pat)
    assert abs(est.slope - ref) < 0.05


def test_explicit_pattern_consistency():
    ok = Explicit(predicate=lambda i: i % 3 == 0, claimed_frequency=1 / 3)
    assert formula_dim_1d(6, (0, 1, 2), ok) == pytest.approx(
        math.log(3) / math.log(6) / 3
    )
    bad = Explicit(predicate=lambda i: i % 3 == 0, claimed_frequency=0.9)
    with pytest.raises(ValueError, match="inconsistent"):
        formula_dim_1d(6, (0, 1, 2), bad)


def test_lacunary_geometric():
    pts = [(2**n, 0) for n in range(1, 20)]
    rep = lacunary_check(pts, 2, P11)
    assert rep.ratio_pass and rep.strict_pass
    assert rep.min_ratio == pytest.approx(2.0)


def test_lacunary_kicked_family():
    p = MatrixParams(4, 4)
    spec = build_intermediate_spectrum(0.0, p)
    pre = spec.prefix(50)
    rep = lacunary_check(pre, 36)
    assert rep.ratio_pass
    assert rep.min_ratio >= 36
    # the branch heads sit below 36, so strict 36-lacunarity fails there,
    # but the family is strictly lacunary for a smaller constant > 1
    assert not rep.strict_pass
    assert rep.lacunary_constant > 1
    strict = lacunary_check(pre, min(rep.lacunary_constant - 0.01, 36))
    assert strict.strict_pass


def test_lacunary_fails_for_dense_prefix():
    pre = enumerate_spectrum(CanonicalMapping(), P12, level=5)
    rep = lacunary_check(pre, 1.5)
    assert not rep.ratio_pass


def test_lacunary_sets_have_tiny_estimate():
    pts = [(0, 0)] + [(2**n, 0) for n in range(1, 40)]
    assert lacunary_check(pts[1:], 1.5, P11).strict_pass
    # Counts grow like log h, which biases a finite-window slope up by about
    # 1/ln h, so the window spans the set's own range, short of saturation.
    est = beurling_dim_estimate(pts, [2**j for j in range(4, 40, 4)], P11,
                                centers="sample:16")
    assert max(est.counts) < len(pts)
    assert est.slope < 0.1


def test_entropy_closed_form():
    e11 = entropy_dim_closed_form(P11)
    assert e11.dim_mu == pytest.approx(1.0)
    e12 = entropy_dim_closed_form(P12)
    assert e12.dim_x == pytest.approx(0.57938, abs=1e-5)
    assert e12.dim_mu == pytest.approx(0.83728, abs=1e-5)
    assert e12.lower < e12.dim_mu < e12.upper
    assert e12.lower == pytest.approx(0.61315, abs=1e-5)


def test_entropy_monte_carlo():
    assert entropy_dim_monte_carlo(P12, 0, 10) == 0.0
    mc11 = entropy_dim_monte_carlo(P11, 8, 100_000, seed=0)
    assert abs(mc11 - 1.0) < 0.1
    mc12 = entropy_dim_monte_carlo(P12, 8, 100_000, seed=0)
    assert abs(mc12 - entropy_dim_closed_form(P12).dim_mu) < 0.1


def test_support_hausdorff():
    assert support_hausdorff_dim(P11) == pytest.approx(1.0)
    val = support_hausdorff_dim(P12)
    u = math.log(3) / math.log(6)
    assert val == pytest.approx(math.log(2**u + 1) / math.log(3))
    assert val > math.log(3) / math.log(6)


def test_relative_density():
    assert relative_density_check([(0, 0)], P12, 1) == 0.0
    lvl6 = enumerate_spectrum(CanonicalMapping(), P12, level=6)
    lvl7 = enumerate_spectrum(CanonicalMapping(), P12, level=7)
    s6 = relative_density_check(lvl6, pexp=1)
    s7 = relative_density_check(lvl7, pexp=1)
    assert s6 > 0
    assert abs(s6 - s7) <= 0.1 * max(s6, s7)
