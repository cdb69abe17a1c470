"""Turn paired benchmark runs of a parent and a change into a BENCH_<pr>.json record.

    python3 tools/bench_compare.py PARENT_OUT CHANGE_OUT --pr N \
        --title "..." --parent-commit SHA --claim certify:verify_s --out BENCH_N.json

PARENT_OUT and CHANGE_OUT are the ``.bench_out`` directories of two checkouts,
each holding the ``<workload>-seed<S>-trace0.report.json`` files that
``bench/run.py --trace 0`` wrote.  A run of one side pairs with the run of the
other side on the same workload and seed.  Per workload and end-to-end metric
the record gives each side's runs, their median and inclusive quartiles, the
pairs the change won (read better, in the metric's direction from
BENCHMARK.json) and the ratio of the medians; per call label, the median over
runs of each run's call median.  ``--claim W:M`` names the metric a speed-up
is claimed on; it is met when the change wins at least 9 of every 10 pairs
(and at least 10 pairs ran) and the medians differ, in its favour, by more
than the parent's interquartile range.

A report does not store how many calls a run made.  Every pass makes every
call unless one fails, so ``attempted`` is passes x call labels and
``failed`` the report's error rate times that.  Nor does it store when, or
in which order, the runs were made: give that, and anything else the record
should carry, with ``--note``.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORT = re.compile(r"(?P<workload>.+)-seed(?P<seed>-?\d+)-trace0\.report\.json$")
CLAIM_RULE = ("change better in at least 9 of 10 pairs, and the medians differ by more "
              "than the parent's interquartile range")
METHOD = ("medians and quartiles (inclusive method) over the runs of each side; a pair is "
          "the two sides' runs of one workload and seed, won when the change reads better")


def load_reports(out_dir: str) -> dict[str, dict[int, dict]]:
    """{workload: {seed: report}} from the untraced reports in ``out_dir``."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*.report.json"))):
        m = REPORT.match(os.path.basename(path))
        if m:
            with open(path, encoding="utf-8") as fh:
                runs.setdefault(m["workload"], {})[int(m["seed"])] = json.load(fh)
    return runs


def spread(runs: list[float]) -> dict:
    """Median, inclusive quartiles and the runs themselves."""
    if len(runs) > 1:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = median = q3 = runs[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def call_counts(report: dict) -> tuple[int, int]:
    """(attempted, failed) for one run; see the module docstring."""
    attempted = report["passes"] * len(report["calls"])
    return attempted, round(report["error_rate"] * attempted)


def compare_workload(parent: dict[int, dict], change: dict[int, dict], metrics: dict) -> dict:
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        raise ValueError("no seed was run on both sides")
    sides = {"parent": [parent[s] for s in seeds], "change": [change[s] for s in seeds]}
    out = {"seeds": seeds, "failed": {}, "attempted": {}, "correct": {}, "metrics": {}}
    for side, reports in sides.items():
        counts = [call_counts(r) for r in reports]
        out["attempted"][side] = sum(a for a, _ in counts)
        out["failed"][side] = sum(f for _, f in counts)
        out["correct"][side] = all(r["error_rate"] == 0 for r in reports)
    for name, spec in metrics.items():
        runs = {side: [r["end_to_end"][name]["median"] for r in reports]
                for side, reports in sides.items()}
        sign = 1 if spec["better"] == "lower" else -1
        won = sum(sign * (c - p) < 0 for p, c in zip(runs["parent"], runs["change"]))
        row = {"unit": spec["unit"], "bound": spec["bound"]}
        row.update({side: spread(values) for side, values in runs.items()})
        parent_median = row["parent"]["median"]
        row["change_over_parent"] = (row["change"]["median"] / parent_median
                                     if parent_median else math.nan)
        row["change_better_pairs"] = won
        row["pairs"] = len(seeds)
        out["metrics"][name] = row
    layers = {c["label"]: c["layer"] for r in sides["parent"] + sides["change"]
              for c in r["calls"]}
    out["calls"] = {
        label: {"layer": layer, **{f"{side}_median_s": _call_median(reports, label)
                                   for side, reports in sides.items()}}
        for label, layer in layers.items()
    }
    return out


def _call_median(reports: list[dict], label: str) -> float | None:
    """The median over runs of each run's median time for the call ``label``."""
    medians = [c["samples"]["median"] for r in reports for c in r["calls"]
               if c["label"] == label and c["samples"]]
    return statistics.median(medians) if medians else None


def claim(workloads: dict, workload: str, metric: str, better: str) -> dict:
    row = workloads[workload]["metrics"][metric]
    parent, change = row["parent"], row["change"]
    iqr = parent["q3"] - parent["q1"]
    gain = (parent["median"] - change["median"]) * (1 if better == "lower" else -1)
    pairs, won = row["pairs"], row["change_better_pairs"]
    unit = row["unit"]
    return {
        "workload": workload,
        "metric": metric,
        "rule": CLAIM_RULE,
        "pairs_won": won,
        "pairs": pairs,
        f"median_difference_{unit}": abs(gain),
        f"parent_iqr_{unit}": iqr,
        "met": pairs >= 10 and 10 * won >= 9 * pairs and gain > iqr,
    }


def build_record(parent_dir, change_dir, *, title, parent_commit, benchmark: dict,
                 claim_spec=None, notes=()) -> dict:
    """The record for the runs in two ``.bench_out`` directories; ``benchmark``
    is the parsed BENCHMARK.json, for the workloads and metrics."""
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    parent, change = load_reports(parent_dir), load_reports(change_dir)
    workloads = {}
    for w in [w["name"] for w in benchmark["workloads"]]:
        if w in parent and w in change:
            workloads[w] = compare_workload(parent[w], change[w], metrics)
    if not workloads:
        raise ValueError("no workload was run on both sides")
    first = next(iter(workloads))
    env = change[first][workloads[first]["seeds"][0]]["environment"]
    seconds = env.get("seconds", 40)
    record = {
        "title": title,
        "parent_commit": parent_commit,
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "method": METHOD,
        "environment": {k: env.get(k) for k in ("python", "numpy", "nproc", "platform")},
    }
    if claim_spec:
        workload, metric = claim_spec.split(":")
        record["claim"] = claim(workloads, workload, metric, metrics[metric]["better"])
    record["workloads"] = workloads
    record["notes"] = list(notes)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--title", required=True)
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC")
    ap.add_argument("--note", action="append", default=[],
                    help="a line for the record's notes, such as the run order; repeatable")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    ap.add_argument("--out", help=f"default: BENCH_<pr>.json at {ROOT}")
    args = ap.parse_args(argv)
    try:
        with open(args.benchmark, encoding="utf-8") as fh:
            benchmark = json.load(fh)
        record = build_record(args.parent_dir, args.change_dir, title=args.title,
                              parent_commit=args.parent_commit, benchmark=benchmark,
                              claim_spec=args.claim, notes=args.note)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if "claim" in record:
        c = record["claim"]
        print(f"{c['workload']} {c['metric']}: {c['pairs_won']}/{c['pairs']} pairs, "
              f"met={c['met']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
