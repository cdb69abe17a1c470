"""Tests of the benchmark itself: seeded inputs, the output oracle, tracing.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import oracle  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

import sierpspec as ss  # noqa: E402


def test_one_seed_gives_identical_inputs():
    a, b = wl.make_inputs(7), wl.make_inputs(7)
    assert a == b
    assert a.centers("x", 1000, 32) == b.centers("x", 1000, 32)


def test_two_seeds_differ_in_bits_centers_frequencies_and_patterns():
    a, b = wl.make_inputs(1), wl.make_inputs(2)
    assert a.bits_015 != b.bits_015 and a.bits_03 != b.bits_03
    assert a.centers("x", 1000, 32) != b.centers("x", 1000, 32)
    assert a.qsum_xi != b.qsum_xi
    assert a.patterns != b.patterns


def test_seeds_keep_pattern_sizes_fixed():
    for seed in range(20):
        pats = wl.make_inputs(seed).patterns
        assert [len(p) for p in pats] == [s[0] for s in wl.PATTERN_SHAPES]
        assert [sum(p) for p in pats] == [s[1] for s in wl.PATTERN_SHAPES]


def _perturbed(prefix, i):
    pts = list(prefix.points)
    x, y = pts[i].value.base
    pts[i] = dataclasses.replace(pts[i], value=ss.SymVec(base=(x + 1, y)))
    return dataclasses.replace(prefix, points=tuple(pts))


def test_perturbed_point_is_an_error_not_a_fast_run():
    prefix = ss.enumerate_spectrum(ss.CanonicalMapping(), wl.P12, level=3)
    bad = _perturbed(prefix, 5)
    n = len(bad)
    run_ = wl.Pass(0)
    run_.call("gen", ("treemap.enumerate_s",), "enumerate", lambda: bad,
              check=wl.check_canonical(wl.P12, 13))
    run_.call("verify", ("verify.orthogonality_s",), "orthogonality",
              lambda: ss.check_orthogonality(bad), check=wl.expect_orthogonal(n))
    # a certifier that skips the work answers quickly and wrongly
    skipped = ss.OrthogonalityReport(pairs_checked=0, violations=(), sampled=False)
    run_.call("verify", ("verify.orthogonality_s",), "skipping certifier",
              lambda: skipped, check=wl.expect_orthogonal(n))
    assert [bool(c.error) for c in run_.calls] == [True, True, True]
    assert "violations" in run_.calls[1].error


def test_raising_call_is_counted_as_failed():
    run_ = wl.Pass(0)

    def boom():
        raise ValueError("no")

    assert run_.call("gen", ("treemap.enumerate_s",), "raises", boom) is None
    assert run_.calls[0].error == "ValueError: no"


def test_wrong_ball_counts_are_flagged():
    prefix = ss.enumerate_spectrum(ss.CanonicalMapping(), wl.P12, level=4)
    pts = list(prefix.points)
    est = wl.Estimate(pts, wl.scales(wl.P12, 1, 4), wl.P12, [3, 17, 40],
                      wl.below(1.0, "test"))
    good = est.run()
    assert est.check(good) is None
    wrong = dataclasses.replace(good, counts=(good.counts[0] + 1,) + good.counts[1:])
    assert "ball counts" in est.check(wrong)


def test_canonical_reference_matches_library():
    for p in (wl.P12, wl.P48):
        prefix = ss.enumerate_spectrum(ss.CanonicalMapping(), p, level=5)
        assert wl.check_canonical(p, 121)(prefix) is None


def test_kicked_check_accepts_library_and_rejects_wrong_bits():
    bits = wl.make_inputs(3).bits_015
    spec = ss.build_intermediate_spectrum(0.15, wl.P48, variant_bits=bits)
    prefix = spec.prefix(40)
    assert wl.check_kicked(wl.P48, 0.15, bits, 40)(prefix) is None
    flipped = tuple(1 - b for b in bits)
    assert wl.check_kicked(wl.P48, 0.15, flipped, 40)(prefix) is not None


def test_symbolic_reference_counts_match_library_on_kicked_points():
    spec = ss.build_intermediate_spectrum(0.3, wl.P48)
    _, kicked = spec.split(spec.prefix(60))
    grid = wl.scales(wl.P48, 1, 5)
    centers = [ss.SymVec(base=(0, 0))] + [kicked[i].value for i in (0, 7, 30)]
    plain = [wl._plain(pt.value) for pt in kicked]
    for c in centers:
        ref = oracle.max_ball_counts(plain, [wl._plain(c)], grid, (12, 24))
        lib = [ss.count_in_ball(kicked, c, h, wl.P48) for h in grid]
        assert ref == lib


def test_far_symbolic_axis_is_decided_without_expanding():
    far = ((0, 0), ((10**6, (1, -2)),))
    assert oracle.dist2_within(far, ((0, 0), ()), 10**9, (12, 24)) is None
    near = ((3, 4), ((10**6, (1, -2)),))
    assert oracle.dist2_within(near, far, 10, (12, 24)) == 25


def test_summary_reports_highest_percentile_with_ten_beyond():
    s = run.summarize([float(i) for i in range(20)])
    assert s["n"] == 20 and s["p"] == 50 and s["p_value"] == 9.0
    assert sum(1 for i in range(20) if i > s["p_value"]) == 10
    assert run.summarize([1.0] * 10)["p"] is None


def test_self_time_subtracts_children():
    tr = Tracer("w", 0)
    with tr.span("outer", "bench", 0) as outer:
        with tr.span("inner", "verify", 0) as inner:
            pass
    own = tr.self_times(0)
    whole = outer["end"] - outer["start"]
    child = inner["end"] - inner["start"]
    assert abs(own["bench"] - (whole - child)) < 1e-12
    assert own["verify"] == child
    assert tr.spans[1]["parent"] == 0
    with tr.span("repeated", "dimension", 1, weight=0.5) as rep:
        pass
    assert tr.self_times(1)["dimension"] == 0.5 * (rep["end"] - rep["start"])


def test_benchmark_without_program_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.E2E_UNITS)
    assert all(m["unit"] == run.E2E_UNITS[m["name"]] for m in spec["end_to_end"])
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    per_layer = {m["name"] for m in spec["per_layer"]}
    expected = set(run.LAYER_TIMES) | set(run.LAYER_COUNTS) | {
        "verify.orthogonality_pairs_per_s", "dimension.triples_per_s",
        "trace.overhead_s"} | {f"{layer}.self_s" for layer in run.LAYERS}
    assert per_layer == expected
