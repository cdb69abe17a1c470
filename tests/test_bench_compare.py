"""tools/bench_compare.py on synthetic bench/run.py reports."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"
spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)

BENCHMARK = {
    "workloads": [{"name": "certify"}, {"name": "dimension"}],
    "end_to_end": [
        {"name": "verify_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
}
ENV = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "platform": "Linux-x86_64",
       "seconds": 40.0, "seed": 0}


def _report(verify_s, rss=90.0, rate=1.0, passes=10, error_rate=0.0, call_s=0.01):
    calls = [{"label": "q_sum at 20 frequencies", "stage": "verify", "layer": "verify",
              "samples": {"median": call_s, "n": passes}},
             {"label": "enumerate", "stage": "gen", "layer": "treemap",
              "samples": {"median": 0.001, "n": 5 * passes}}]
    e2e = {"verify_s": verify_s, "peak_rss_mb": rss, "rate": rate}
    return {"environment": ENV, "passes": passes, "error_rate": error_rate,
            "end_to_end": {k: {"median": v, "n": passes} for k, v in e2e.items()},
            "calls": calls}


def _write(root, side, workload, seed, report):
    out = root / side / ".bench_out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{workload}-seed{seed}-trace0.report.json").write_text(json.dumps(report))
    return out


def _record(tmp_path, parent_runs, change_runs, claim="certify:verify_s", **kw):
    for seed, (p, c) in enumerate(zip(parent_runs, change_runs), start=1):
        pdir = _write(tmp_path, "parent", "certify", seed, p)
        cdir = _write(tmp_path, "change", "certify", seed, c)
    return bench_compare.build_record(pdir, cdir, title="t", parent_commit="abc",
                                      claim_spec=claim, benchmark=BENCHMARK, **kw)


def test_medians_quartiles_pairs_and_a_met_claim(tmp_path):
    parent = [0.100 + 0.001 * i for i in range(10)]
    change = [0.050 + 0.001 * i for i in range(10)]
    rec = _record(tmp_path, [_report(v, call_s=0.03) for v in parent],
                  [_report(v, rss=91.0, call_s=0.008) for v in change])
    row = rec["workloads"]["certify"]["metrics"]["verify_s"]
    q1, med, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    assert row["parent"] == {"median": med, "q1": q1, "q3": q3, "runs": parent}
    assert row["change"]["median"] == statistics.median(change)
    assert row["change_better_pairs"] == 10 and row["pairs"] == 10
    assert row["change_over_parent"] == pytest.approx(0.0545 / 0.1045)
    assert row["unit"] == "s" and row["bound"] == 0.25
    assert rec["claim"] == {
        "workload": "certify", "metric": "verify_s", "rule": bench_compare.CLAIM_RULE,
        "pairs_won": 10, "pairs": 10,
        "median_difference_s": pytest.approx(0.05), "parent_iqr_s": pytest.approx(q3 - q1),
        "met": True,
    }
    rss = rec["workloads"]["certify"]["metrics"]["peak_rss_mb"]
    assert rss["change_better_pairs"] == 0 and rss["change_over_parent"] > 1
    w = rec["workloads"]["certify"]
    assert w["seeds"] == list(range(1, 11))
    assert w["attempted"] == {"parent": 200, "change": 200}  # 10 runs x 10 passes x 2 calls
    assert w["failed"] == {"parent": 0, "change": 0}
    assert w["correct"] == {"parent": True, "change": True}
    assert w["calls"]["q_sum at 20 frequencies"] == {
        "layer": "verify", "parent_median_s": 0.03, "change_median_s": 0.008}
    assert rec["environment"] == {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2,
                                  "platform": "Linux-x86_64"}
    assert rec["command"].endswith("--seconds 40 --trace 0")
    assert "dimension" not in rec["workloads"]  # not run on both sides


def test_claim_needs_nine_of_ten_pairs_and_a_gap_past_the_parent_iqr(tmp_path):
    parent = [0.10] * 10
    lost_two = [0.05] * 8 + [0.11, 0.12]
    rec = _record(tmp_path / "a", [_report(v) for v in parent], [_report(v) for v in lost_two])
    assert rec["claim"]["pairs_won"] == 8 and not rec["claim"]["met"]
    # 10 of 10 pairs, but the medians differ by less than the parent's spread
    wide = [0.08, 0.09, 0.10, 0.11, 0.12, 0.08, 0.09, 0.10, 0.11, 0.12]
    rec = _record(tmp_path / "b", [_report(v) for v in wide],
                  [_report(v - 0.005) for v in wide])
    assert rec["claim"]["pairs_won"] == 10 and not rec["claim"]["met"]
    # too few pairs
    rec = _record(tmp_path / "c", [_report(0.1)] * 5, [_report(0.05)] * 5)
    assert rec["claim"]["pairs_won"] == 5 and not rec["claim"]["met"]


def test_higher_is_better_metrics_and_failed_calls(tmp_path):
    rec = _record(tmp_path, [_report(0.1, rate=2.0) for _ in range(10)],
                  [_report(0.1, rate=3.0, error_rate=0.05) for _ in range(10)],
                  claim="certify:rate")
    assert rec["claim"]["pairs_won"] == 10 and rec["claim"]["met"]
    assert rec["claim"]["median_difference_1/s"] == 1.0
    w = rec["workloads"]["certify"]
    assert w["failed"] == {"parent": 0, "change": 10} and w["correct"]["change"] is False


def test_unpaired_seeds_are_dropped_and_no_pair_is_an_error(tmp_path):
    pdir = _write(tmp_path, "parent", "certify", 1, _report(0.1))
    _write(tmp_path, "parent", "certify", 2, _report(0.1))
    (pdir / "certify-seed3-trace1.report.json").write_text(json.dumps(_report(0.1)))  # traced
    cdir = _write(tmp_path, "change", "certify", 2, _report(0.05))
    _write(tmp_path, "change", "certify", 3, _report(0.05))
    rec = bench_compare.build_record(pdir, cdir, title="t", parent_commit="abc",
                                     benchmark=BENCHMARK)
    assert rec["workloads"]["certify"]["seeds"] == [2] and "claim" not in rec
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError):
        bench_compare.build_record(pdir, empty, title="t", parent_commit="abc",
                                   benchmark=BENCHMARK)


def test_command_line_writes_the_record(tmp_path, capsys):
    for seed in range(1, 11):
        pdir = _write(tmp_path, "parent", "certify", seed, _report(0.1 + seed * 1e-4))
        cdir = _write(tmp_path, "change", "certify", seed, _report(0.05 + seed * 1e-4))
    out, benchmark = tmp_path / "BENCH_99.json", tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps(BENCHMARK))
    flags = ["--benchmark", str(benchmark), "--out", str(out)]
    assert bench_compare.main([str(pdir), str(cdir), "--pr", "99", "--title", "t",
                               "--parent-commit", "abc", "--claim", "certify:verify_s",
                               "--note", "a note", "--note", "odd seeds: parent first",
                               *flags]) == 0
    rec = json.loads(out.read_text())
    assert rec["claim"]["met"] and rec["notes"] == ["a note", "odd seeds: parent first"]
    assert "10/10 pairs, met=True" in capsys.readouterr().out
    assert bench_compare.main([str(pdir), str(tmp_path), "--pr", "99", "--title", "t",
                               "--parent-commit", "abc", *flags]) == 2
