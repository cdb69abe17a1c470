"""The three benchmark workloads, their seeded inputs and their output checks.

A workload is a fixed list of calls into the library's public functions (or
``spectra`` processes), issued one after another: each call starts only after
the previous one returned.  One pass runs the whole list once.  Every call is
timed from outside, checked against a known answer from ``oracle`` after it
returned, and counted as failed when it raised or answered wrongly.

The seed picks only the kicked-family variant bits, the centers of each
dimension estimate, the q-sum frequencies and the periodic patterns; all
parameters and sizes are fixed.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import oracle

import sierpspec as ss

P12 = ss.MatrixParams(1, 2)
P44 = ss.MatrixParams(4, 4)
P48 = ss.MatrixParams(4, 8)
KICK_RANGE = 364  # |k| <= 364: all 729 words of length <= 6
CENTERS = 32
PATTERN_CENTERS = 16
PATTERN_DEPTH = 12
# (period, active positions per period): 12 / period * active positions are
# active at depth 12, so the pattern sizes, and so the cost, are fixed
PATTERN_SHAPES = ((2, 1), (3, 2), (4, 3), (6, 3), (6, 4))
QSUM_FREQUENCIES = 20
CLI_RANGE = 100
CLI_CENTERS = 8
CLI_TIMEOUT_S = 150
LITERAL_VIOLATIONS = 18
LITERAL_FIRST = (-11, -8)


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Inputs:
    seed: int
    bits_015: tuple[int, ...]
    bits_03: tuple[int, ...]
    qsum_xi: tuple[tuple[float, float], ...]
    patterns: tuple[tuple[int, ...], ...]

    def centers(self, purpose: str, n: int, count: int) -> list[int]:
        """Seeded, sorted indices of ``count`` centers among ``n`` points."""
        if n <= count:
            return list(range(n))
        return sorted(_rng(self.seed, "centers/" + purpose).sample(range(n), count))


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"sierpspec-bench/{seed}/{purpose}")


def _variant_bits(seed: int, purpose: str) -> tuple[int, ...]:
    mask = _rng(seed, purpose).randrange(1, 2**16)
    return tuple((mask >> i) & 1 for i in range(16))


def make_inputs(seed: int) -> Inputs:
    rng = _rng(seed, "qsum")
    wx, wy = (P12.base_x / (2 * (P12.base_x - 1)), P12.base_y / (2 * (P12.base_y - 1)))
    xis = tuple(
        (rng.uniform(-wx, wx), rng.uniform(-wy, wy)) for _ in range(QSUM_FREQUENCIES)
    )
    patterns = []
    for i, (period, active) in enumerate(PATTERN_SHAPES):
        on = set(_rng(seed, f"pattern/{i}").sample(range(period), active))
        patterns.append(tuple(int(j in on) for j in range(period)))
    return Inputs(
        seed=seed,
        bits_015=_variant_bits(seed, "bits/0.15"),
        bits_03=_variant_bits(seed, "bits/0.3"),
        qsum_xi=xis,
        patterns=tuple(patterns),
    )


# ---------------------------------------------------------------------------
# One pass: timed calls, counts and checks
# ---------------------------------------------------------------------------


@dataclass
class Call:
    stage: str  # "gen" | "verify" | "dim" | "cli"
    metrics: tuple[str, ...]  # per-layer time metrics this call adds to
    label: str
    samples: list[float] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    error: str | None = None

    @property
    def layer(self) -> str:
        return self.metrics[0].split(".")[0]

    @property
    def seconds(self) -> float:
        return statistics.median(self.samples) if self.samples else 0.0


class Pass:
    """Runs calls one at a time, records their times and checks their results."""

    def __init__(self, index: int, tracer=None):
        self.index = index
        self.tracer = tracer
        self.calls: list[Call] = []

    def call(self, stage, metrics, label, fn, *, check=None, counts=None, repeat=1):
        rec = Call(stage=stage, metrics=tuple(metrics), label=label)
        self.calls.append(rec)
        result = span = None
        try:
            for _ in range(repeat):
                if self.tracer is None:
                    t0 = time.perf_counter()
                    result = fn()
                    rec.samples.append(time.perf_counter() - t0)
                else:
                    with self.tracer.span(label, rec.layer, self.index, 1 / repeat) as span:
                        result = fn()
                    rec.samples.append(span["end"] - span["start"])
            if counts is not None:
                rec.counts = counts(result)
                if span is not None:
                    span.update(rec.counts)
            if check is not None:
                rec.error = check(result)
        except Exception as exc:  # a failed call is a result, not the end of the run
            rec.error = f"{type(exc).__name__}: {exc}"
        return None if rec.error else result


# ---------------------------------------------------------------------------
# Counts and checks shared by the workloads
# ---------------------------------------------------------------------------


def _points(obj):
    return list(obj.points) if isinstance(obj, ss.SpectrumPrefix) else list(obj)


def prefix_counts(obj) -> dict[str, int]:
    pts = _points(obj)
    kicked = [pt.kick_position - 1 for pt in pts if pt.kick_position is not None]
    return {
        "treemap.points": len(pts),
        "treemap.kicked_points": len(kicked),
        "treemap.max_kick_exponent": max(kicked, default=0),
    }


def orthogonality_counts(points):
    pts = _points(points)
    n = len(pts)
    concrete = sum(1 for pt in pts if pt.value.is_concrete)
    symbolic_share = 1 - (concrete * (concrete - 1)) / (n * (n - 1)) if n > 1 else 0

    def counts(rep):
        return {
            "verify.orthogonality_pairs": rep.pairs_checked,
            # exact for full checks, the expected number for sampled ones
            "verify.orthogonality_symbolic_pairs": round(rep.pairs_checked * symbolic_share),
            "verify.orthogonality_sampled": int(rep.sampled),
            "verify.violations": len(rep.violations),
        }

    return counts


def expect_orthogonal(n: int):
    def check(rep):
        if rep.violations:
            v = rep.violations[0]
            return f"{len(rep.violations)} violations, first ({v.k1},{v.k2}) {v.reason}"
        full = n * (n - 1) // 2
        if not rep.sampled and rep.pairs_checked != full:
            return f"checked {rep.pairs_checked} of {full} pairs"
        return None

    return check


def expect_literal_violations(rep):
    if len(rep.violations) != LITERAL_VIOLATIONS:
        return f"expected {LITERAL_VIOLATIONS} violations, got {len(rep.violations)}"
    first = (rep.violations[0].k1, rep.violations[0].k2)
    if first != LITERAL_FIRST:
        return f"first violation at {first}, expected {LITERAL_FIRST}"
    return None


def line_counts(rep):
    return {"verify.violations": len(rep.shared_x) + len(rep.shared_y)}


def projection_counts(rep):
    return {"verify.violations": len(rep.x_violations) + len(rep.y_violations)}


def expect_passed(rep):
    return None if rep.passed else f"{type(rep).__name__} failed: {rep}"


def check_canonical(p, index_bound):
    def check(prefix):
        ref = oracle.canonical_points(p.q1, p.q2, index_bound)
        pts = prefix.points
        if len(pts) != len(ref):
            return f"{len(pts)} points, expected {len(ref)}"
        for pt, (k, x, y) in zip(pts, ref.tolist()):
            if pt.k != k or pt.value.terms or pt.value.base != (x, y):
                return f"point k={pt.k} is {pt.value}, expected k={k} at {(x, y)}"
        return None

    return check


def gamma_member(k: int, t: float, p) -> bool:
    """Index k lies in Gamma_t: its nonzero balanced-ternary letters sit on
    positions where floor(j d) increments, d = t log(3 q2) / log 3."""
    d = min(1.0, max(0.0, t * math.log(p.base_y) / math.log(3)))
    j, rest = 1, k
    while rest:
        r = rest % 3
        letter = -1 if r == 2 else r
        if letter and math.floor(j * d) <= math.floor((j - 1) * d):
            return False
        rest = (rest - letter) // 3
        j += 1
    return True


def check_kicked(p, t, bits, index_bound):
    """F_t points keep their canonical coordinates; every other index is
    kicked at position len(word) + k^2 + (variant bit of its rank)."""

    def check(prefix):
        ref = oracle.canonical_points(p.q1, p.q2, index_bound)
        pts = prefix.points
        if [pt.k for pt in pts] != ref[:, 0].tolist():
            return "indices out of order"
        kicked = sorted(
            (pt for pt in pts if not gamma_member(pt.k, t, p)),
            key=lambda pt: (abs(pt.k), pt.k < 0),
        )
        rank = {pt.k: i for i, pt in enumerate(kicked)}
        for pt, (_, x, y) in zip(pts, ref.tolist()):
            if pt.k not in rank:
                if pt.kick_position is not None or pt.value != ss.SymVec(base=(x, y)):
                    return f"F_t point k={pt.k} moved to {pt.value}"
                continue
            want = len(pt.word) + pt.k * pt.k + bits[rank[pt.k] % len(bits)]
            if pt.kick_position != want:
                return f"k={pt.k} kicked at {pt.kick_position}, expected {want}"
        return None

    return check


def expect_digit_sums(want: set):
    def check(got):
        if len(got) != len(want) or set(got) != want:
            return f"{len(got)} points differ from the {len(want)} digit sums"
        return None

    return check


def _plain(vec) -> tuple:
    return (tuple(vec.base), tuple(vec.terms))


class Estimate:
    """A dimension estimate call with explicit seeded centers, and its check."""

    def __init__(self, points, scales, p, center_idx, tolerance, refs=None):
        self.points = points
        self.refs = {} if refs is None else refs  # reference counts by input hash
        self.scales = scales
        self.p = p
        self.centers = [ss.SymVec(base=(0, 0))] + [points[i].value for i in center_idx]
        self.tolerance = tolerance  # slope -> error message or None
        self.symbolic = any(pt.value.terms for pt in points)

    def run(self):
        return ss.beurling_dim_estimate(
            self.points, self.scales, self.p, centers=self.centers
        )

    def metrics(self):
        kind = "symbolic" if self.symbolic else "concrete"
        return ("dimension.estimate_s", f"dimension.estimate_{kind}_s")

    def counts(self, est):
        return {
            "dimension.triples": len(self.points) * len(self.centers) * len(self.scales)
        }

    def check(self, est):
        bases = (self.p.base_x, self.p.base_y)
        points = tuple(_plain(pt.value) for pt in self.points)
        centers = tuple(_plain(c) for c in self.centers)
        # keyed by hash: keeping the inputs alive would grow the heap that the
        # garbage collector walks during the timed calls
        key = hash((points, centers, tuple(self.scales), bases))
        if key not in self.refs:
            self.refs[key] = oracle.max_ball_counts(points, centers, self.scales, bases)
        ref = self.refs[key]
        if list(est.counts) != ref:
            return f"ball counts {list(est.counts)}, reference {ref}"
        slope = oracle.fit_slope(self.scales, ref)
        if abs(est.slope - slope) > 1e-9:
            return f"slope {est.slope} does not fit its counts ({slope})"
        return self.tolerance(est.slope)


def within(target: float, tol: float, what: str):
    def check(slope):
        if abs(slope - target) > tol:
            return f"{what}: slope {slope:.4f} not within {tol} of {target:.4f}"
        return None

    return check


def below(bound: float, what: str):
    def check(slope):
        return None if slope < bound else f"{what}: slope {slope:.4f} >= {bound:.4f}"

    return check


def scales(p, lo, hi):
    return [p.base_y**j for j in range(lo, hi + 1)]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Certify:
    """The library form of ``spectra verify`` with every check, on four inputs."""

    name = "certify"

    def __init__(self, inputs: Inputs, workdir: str):
        self.inputs = inputs
        self.spec = ss.build_intermediate_spectrum(
            0.15, P48, mode="coherent", variant_bits=inputs.bits_015
        )
        self.literal = ss.KickedMapping(ss.TableOffsets({1: 1}), mode="literal")
        self.refs = {}

    def run_pass(self, run: Pass) -> None:
        canon = ss.CanonicalMapping()
        enum = ("treemap.enumerate_s",)
        a = run.call("gen", enum, "enumerate canonical (1,2) level 6",
                     lambda: ss.enumerate_spectrum(canon, P12, level=6),
                     check=check_canonical(P12, 364), counts=prefix_counts, repeat=5)
        b = run.call("gen", enum, "enumerate kicked t=0.15 (4,8) |k|<=364",
                     lambda: self.spec.prefix(KICK_RANGE),
                     check=check_kicked(P48, 0.15, self.inputs.bits_015, KICK_RANGE),
                     counts=prefix_counts, repeat=5)
        c = run.call("gen", enum, "enumerate literal (4,4) {1:1} level 3",
                     lambda: ss.enumerate_spectrum(self.literal, P44, level=3),
                     counts=prefix_counts, repeat=5)
        d = run.call("gen", enum, "enumerate canonical (1,2) level 9",
                     lambda: ss.enumerate_spectrum(canon, P12, level=9),
                     check=check_canonical(P12, 9841), counts=prefix_counts, repeat=5)

        for tag, prefix in (("canonical level 6", a), ("kicked t=0.15", b)):
            if prefix is None:
                continue
            self._structure(run, tag, prefix)
        if a is not None:
            run.call("verify", ("verify.unitarity_s",), "gram_unitarity(6) canonical level 6",
                     lambda: ss.gram_unitarity(6, a),
                     check=lambda dev: None if dev < 1e-9 else f"deviation {dev:.3e}")
            run.call("verify", ("verify.qsum_s",), f"q_sum at {QSUM_FREQUENCIES} frequencies",
                     lambda: [ss.q_sum(xi, a) for xi in self.inputs.qsum_xi],
                     check=self._check_qsums(a))
        if c is not None:
            run.call("verify", ("verify.orthogonality_s",), "orthogonality literal (4,4)",
                     lambda: ss.check_orthogonality(c),
                     check=expect_literal_violations, counts=orthogonality_counts(c))
        if d is not None:
            run.call("verify", ("verify.orthogonality_s",), "orthogonality canonical level 9",
                     lambda: ss.check_orthogonality(d),
                     check=expect_orthogonal(len(d)), counts=orthogonality_counts(d))

        # certified prefixes stay below the optimal upper bound (criterion 04)
        bound = oracle.upper_bound(P12.q2) + 0.08
        for tag, prefix, hi in (("level 6", a, 5), ("level 9", d, 8)):
            if prefix is None:
                continue
            pts = list(prefix.points)
            est = Estimate(pts, scales(P12, 1, hi), P12,
                           self.inputs.centers(f"certify/{tag}", len(pts), CENTERS),
                           below(bound, f"canonical {tag}"), self.refs)
            run.call("dim", est.metrics(), f"estimate canonical {tag} scales 1..{hi}",
                     est.run, check=est.check, counts=est.counts, repeat=9)

    def _structure(self, run, tag, prefix):
        run.call("verify", ("verify.orthogonality_s",), f"orthogonality {tag}",
                 lambda: ss.check_orthogonality(prefix),
                 check=expect_orthogonal(len(prefix)), counts=orthogonality_counts(prefix))
        run.call("verify", ("verify.lines_s",), f"distinct lines {tag}",
                 lambda: ss.check_distinct_lines(prefix),
                 check=expect_passed, counts=line_counts)
        run.call("verify", ("verify.projections_s",), f"projections {tag}",
                 lambda: ss.check_projection_orthogonality(prefix),
                 check=expect_passed, counts=projection_counts)

    def _check_qsums(self, prefix):
        coords = [pt.value.base for pt in prefix.points]

        def check(results):
            for xi, res in zip(self.inputs.qsum_xi, results):
                ref = oracle.q_sum_reference(xi, coords, P12.q1, P12.q2)
                if res.value > 1 + 1e-9 or abs(res.value - ref) > res.error + 1e-9:
                    return f"q_sum{xi} = {res.value} (err {res.error}), reference {ref}"
            return None

        return check


class Dimension:
    """The library form of ``spectra dim``: int64, symbolic and pattern sets."""

    name = "dimension"

    def __init__(self, inputs: Inputs, workdir: str):
        self.inputs = inputs
        self.specs = {
            t: ss.build_intermediate_spectrum(t, P48, mode="coherent", variant_bits=bits)
            for t, bits in ((0.15, inputs.bits_015), (0.3, inputs.bits_03))
        }
        self.patterns = [ss.Periodic(bits) for bits in inputs.patterns]
        self.refs = {}

    def run_pass(self, run: Pass) -> None:
        enum = ("treemap.enumerate_s",)
        big = run.call("gen", enum, "enumerate canonical (1,2) level 11",
                       lambda: ss.enumerate_spectrum(ss.CanonicalMapping(), P12, level=11),
                       check=check_canonical(P12, 88573), counts=prefix_counts)
        prefixes, parts = {}, {}
        for t, spec in self.specs.items():
            prefix = run.call("gen", enum, f"enumerate kicked t={t} (4,8) |k|<=364",
                              lambda: spec.prefix(KICK_RANGE),
                              check=check_kicked(P48, t, spec.variant_bits, KICK_RANGE),
                              counts=prefix_counts)
            if prefix is not None:
                prefixes[t] = prefix
                parts[t] = spec.split(prefix)

        # the estimates below mean something only on orthogonal sets.  The
        # t=0.3 family is certified whole, both parts in one call of about
        # 1.5 s: a call of milliseconds times too unsteadily on a shared
        # machine.  `certify` certifies the t=0.15 family with the same bits.
        if 0.3 in prefixes:
            whole = prefixes[0.3]
            run.call("verify", ("verify.orthogonality_s",), "orthogonality kicked t=0.3",
                     lambda: ss.check_orthogonality(whole),
                     check=expect_orthogonal(len(whole)), counts=orthogonality_counts(whole))

        digits = ((0, 0), (P12.q1, -P12.q2), (-P12.q1, P12.q2))
        pattern_sets = []
        for bits, pattern in zip(self.inputs.patterns, self.patterns):
            want = oracle.pattern_points(P12.q1, P12.q2, bits, PATTERN_DEPTH, digits)
            pts = run.call("dim", ("construct.pattern_s",), f"pattern points {bits}",
                           lambda: ss.pattern_lattice_points(P12, pattern, PATTERN_DEPTH),
                           check=expect_digit_sums(want))
            if pts is not None:
                pattern_sets.append((bits, pts))

        tmax = oracle.upper_bound(P12.q2)
        if big is not None:
            pts = list(big.points)
            self._estimate(run, "canonical level 11", pts, scales(P12, 4, 10), P12,
                           CENTERS, within(tmax, 0.08, "Lambda_max(1,2)"))
        for t, (f_part, kicked) in parts.items():
            self._estimate(run, f"F part t={t}", f_part, scales(P48, 1, 6), P48,
                           CENTERS, within(t, 0.1, f"F part t={t}"))
            self._estimate(run, f"kicked part t={t}", kicked, scales(P48, 1, 6), P48,
                           CENTERS, below(0.1, f"kicked part t={t}"))
        for bits, pts in pattern_sets:
            vecs = [ss.SpectrumPoint(k=i, word=(), value=ss.SymVec(base=v))
                    for i, v in enumerate(pts)]
            self._estimate(run, f"pattern {bits}", vecs,
                           scales(P12, 1, PATTERN_DEPTH), P12, PATTERN_CENTERS,
                           within(oracle.pattern_dim(bits, P12.q2), 0.05, f"pattern {bits}"))

    def _estimate(self, run, tag, points, grid, p, count, tolerance):
        est = Estimate(points, grid, p,
                       self.inputs.centers(f"dimension/{tag}", len(points), count),
                       tolerance, self.refs)
        run.call("dim", est.metrics(), f"estimate {tag}", est.run,
                 check=est.check, counts=est.counts)


class CliRoundtrip:
    """``spectra`` gen -> verify and dim pipelines, one child process at a time."""

    name = "cli-roundtrip"

    def __init__(self, inputs: Inputs, workdir: str):
        self.inputs = inputs
        self.workdir = workdir
        self.points_file = os.path.join(workdir, "points.jsonl")
        self.bits = "".join(str(b) for b in inputs.bits_015)
        self.spec = ss.build_intermediate_spectrum(
            0.15, P48, mode="coherent", variant_bits=inputs.bits_015
        )
        self._reference = None  # exact coordinates of the gen output
        src = os.path.dirname(os.path.dirname(os.path.abspath(ss.__file__)))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, self.env.get("PYTHONPATH")]))

    def spectra(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "sierpspec.cli", *args],
            cwd=self.workdir, env=self.env, capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S, check=False,
        )

    def run_pass(self, run: Pass) -> None:
        q = ("--q1", "4", "--q2", "8")
        run.call("cli", ("cli.startup_s",), "spectra --help",
                 lambda: self.spectra("--help"),
                 check=exit_code(0), counts=exit_mismatch(0))
        run.call("gen", ("cli.gen_s",), "spectra gen t=0.15 --range 100",
                 lambda: self.spectra("gen", *q, "--construct-t", "0.15",
                                      "--range", str(CLI_RANGE),
                                      "--variant-bits", self.bits,
                                      "--output", self.points_file),
                 check=self._check_gen, counts=self._gen_counts)
        run.call("verify", ("cli.verify_s",), "spectra verify --input",
                 lambda: self.spectra("verify", *q, "--input", self.points_file),
                 check=self._check_verify, counts=exit_mismatch(0))
        run.call("dim", ("cli.dim_s",), "spectra dim --input",
                 lambda: self.spectra("dim", *q, "--input", self.points_file,
                                      "--scale-exps", "1:6",
                                      "--centers", f"sample:{CLI_CENTERS}"),
                 check=self._check_dim, counts=exit_mismatch(0))
        run.call("verify", ("cli.verify_s",), "spectra verify literal (4,4)",
                 lambda: self.spectra("verify", "--q1", "4", "--q2", "4",
                                      "--offsets", "1:1", "--mode", "literal",
                                      "--level", "3"),
                 check=self._check_literal, counts=exit_mismatch(1))

    def _read_file(self):
        with open(self.points_file, encoding="utf-8") as fh, oracle.unlimited_int_digits():
            return [(int(r["k"]), tuple(int(s) for s in r["lambda"]))
                    for r in map(json.loads, fh)]

    def reference(self):
        """The gen output's points, expanded by the oracle from the library's
        in-process enumeration of the same spec (computed once per run)."""
        if self._reference is None:
            pts = self.spec.prefix(CLI_RANGE).points
            self._reference = [
                (pt.k, tuple(oracle.expand(pt.value.base[a],
                                           [(e, v[a]) for e, v in pt.value.terms], B)
                             for a, B in enumerate((P48.base_x, P48.base_y))))
                for pt in pts
            ]
        return self._reference

    def _gen_counts(self, proc):
        counts = exit_mismatch(0)(proc)
        counts["cli.file_bytes"] = os.path.getsize(self.points_file)
        with open(self.points_file, encoding="utf-8") as fh:
            digits = max(len(s.lstrip("-")) for r in map(json.loads, fh) for s in r["lambda"])
        counts["cli.max_coord_digits"] = digits
        return counts

    def _check_gen(self, proc):
        err = exit_code(0)(proc)
        if err:
            return err
        if self._read_file() != self.reference():
            return "gen output differs from the library's points"
        return None

    def _check_verify(self, proc):
        err = exit_code(0)(proc)
        want = ("orthogonality: pairs=20100 sampled=False violations=0",
                "distinct-lines: shared_x=0 shared_y=0",
                "projections: x_violations=0 y_violations=0")
        for line in want:
            if err is None and line not in proc.stdout:
                err = f"verify output lacks {line!r}"
        return err

    def _check_dim(self, proc):
        err = exit_code(0)(proc)
        if err:
            return err
        rows = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
        grid = [int(r["h"]) for r in rows[:-1]]
        counts = [r["count"] for r in rows[:-1]]
        slope = rows[-1]["slope"]
        if grid != scales(P48, 1, 6):
            return f"dim used scales {grid}"
        points = self._read_file()
        # the documented policy: the origin plus a sample drawn with --seed,
        # left at its default 0 (see README: centers and cost)
        idx = random.Random(0).sample(range(len(points)), CLI_CENTERS)
        centers = [(0, 0)] + [points[i][1] for i in idx]
        ref = oracle.max_ball_counts([(xy, ()) for _, xy in points],
                                     [(c, ()) for c in centers], grid,
                                     (P48.base_x, P48.base_y))
        if counts != ref:
            return f"ball counts {counts}, reference {ref}"
        if abs(slope - oracle.fit_slope(grid, ref)) > 1e-9:
            return f"slope {slope} does not fit its counts"
        return below(oracle.upper_bound(P48.q2) + 0.08, "cli dim")(slope)

    def _check_literal(self, proc):
        err = exit_code(1)(proc)
        if err:
            return err
        m = re.search(r"violations=(\d+)", proc.stdout)
        first = re.search(r"violation k=(-?\d+),k'=(-?\d+)", proc.stdout)
        got = (int(m.group(1)) if m else None,
               (int(first.group(1)), int(first.group(2))) if first else None)
        if got != (LITERAL_VIOLATIONS, LITERAL_FIRST):
            return f"literal verify reported {got}"
        return None


def exit_code(expected: int):
    def check(proc):
        if proc.returncode != expected:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return f"exit code {proc.returncode}, expected {expected}: {tail[0]}"
        return None

    return check


def exit_mismatch(expected: int):
    def counts(proc):
        return {"cli.exit_code_mismatches": int(proc.returncode != expected)}

    return counts


WORKLOADS = {w.name: w for w in (Certify, Dimension, CliRoundtrip)}
