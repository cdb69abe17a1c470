import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import sierpspec
from sierpspec.cli import main
from sierpspec.treemap import index_to_word

RUN = [sys.executable, "-m", "sierpspec.cli"]

# Child processes import the same sierpspec as this process, from any working
# directory: a relative PYTHONPATH entry (such as "src") stops resolving once a
# test passes its own cwd.
PKG_ROOT = str(Path(sierpspec.__file__).resolve().parents[1])
CHILD_ENV = dict(os.environ)
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(
    filter(None, [PKG_ROOT, os.environ.get("PYTHONPATH")]))


def run_cli(args, **kw):
    return subprocess.run(RUN + args, capture_output=True, text=True,
                          env=CHILD_ENV, **kw)


def test_gen_level1_records():
    res = run_cli(["gen", "--q1", "1", "--q2", "1", "--level", "1"])
    assert res.returncode == 0
    records = [json.loads(line) for line in res.stdout.splitlines()]
    assert len(records) == 3
    by_k = {r["k"]: r for r in records}
    assert by_k[1]["lambda"] == ["1", "-1"]
    assert by_k[0]["lambda"] == ["0", "0"]
    assert [r["k"] for r in records] == sorted(r["k"] for r in records)


def test_gen_level0_single_record():
    res = run_cli(["gen", "--q1", "1", "--q2", "2", "--level", "0"])
    records = [json.loads(line) for line in res.stdout.splitlines()]
    assert len(records) == 1 and records[0]["k"] == 0


def test_gen_verify_roundtrip(tmp_path):
    pts = tmp_path / "pts.jsonl"
    res = run_cli(["gen", "--q1", "1", "--q2", "2", "--level", "3",
                   "--output", str(pts)])
    assert res.returncode == 0
    v1 = run_cli(["verify", "--q1", "1", "--q2", "2", "--input", str(pts)])
    v2 = run_cli(["verify", "--q1", "1", "--q2", "2", "--input", str(pts)])
    assert v1.returncode == 0
    assert v1.stdout == v2.stdout  # byte-stable reports


def test_gen_construct_pipeline(tmp_path):
    pts = tmp_path / "kicked.jsonl"
    res = run_cli(["gen", "--q1", "4", "--q2", "4", "--construct-t", "0.3",
                   "--mode", "coherent", "--range", "40", "--output", str(pts)])
    assert res.returncode == 0
    lines = pts.read_text().splitlines()
    assert len(lines) == 81
    ver = run_cli(["verify", "--q1", "4", "--q2", "4", "--input", str(pts)])
    assert ver.returncode == 0, ver.stdout


def test_gen_csv_format():
    res = run_cli(["gen", "--q1", "1", "--q2", "1", "--level", "1",
                   "--format", "csv"])
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "k,word,x,y,kick_position"
    assert len(lines) == 4


def test_verify_detects_violation(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        json.dumps({"k": 0, "word": [], "lambda": ["0", "0"], "kick_position": None})
        + "\n"
        + json.dumps({"k": 1, "word": [1], "lambda": ["1", "0"], "kick_position": None})
        + "\n"
    )
    res = run_cli(["verify", "--q1", "1", "--q2", "1", "--input", str(bad)])
    assert res.returncode == 1
    assert "violation" in res.stdout


def test_empty_input_is_usage_error(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    res = run_cli(["verify", "--q1", "1", "--q2", "1", "--input", str(empty)])
    assert res.returncode == 2


def test_malformed_input_is_usage_error(tmp_path):
    junk = tmp_path / "junk.jsonl"
    junk.write_text('{"k": 0, "lambda": ["zero", "0"]}\n')
    res = run_cli(["verify", "--q1", "1", "--q2", "1", "--input", str(junk)])
    assert res.returncode == 2
    assert res.returncode != 1


@pytest.mark.parametrize("record", [
    pytest.param('{"k": 0, "lambda": [1.5, 2]}', id="float-coordinate"),
    pytest.param('{"k": 0, "lambda": [true, false]}', id="bool-coordinates"),
    pytest.param('{"k": 0.0, "lambda": ["0", "0"]}', id="float-k"),
    pytest.param('{"k": false, "lambda": ["0", "0"]}', id="bool-k"),
    pytest.param('{"k": 0, "lambda": "12"}', id="string-lambda"),
    pytest.param('{"k": 0, "lambda": ["1_000", "2"]}', id="underscore-digits"),
    pytest.param('{"k": ' + "[" * 100_000 + "]" * 100_000 + ', "lambda": ["0", "0"]}',
                 id="nested-100000-deep"),
])
def test_non_integer_or_deeply_nested_record_is_usage_error(tmp_path, record):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(record + "\n")
    res = run_cli(["verify", "--q1", "1", "--q2", "1", "--input", str(bad)])
    assert res.returncode == 2
    assert "bad record" in res.stderr and "Traceback" not in res.stderr


def test_integer_and_decimal_string_records_are_read(tmp_path):
    good = tmp_path / "good.jsonl"
    good.write_text('{"k": "-1", "lambda": [-1, "1"]}\n{"k": 1, "lambda": ["1", -1]}\n')
    res = run_cli(["verify", "--q1", "1", "--q2", "1", "--input", str(good)])
    assert res.returncode == 0
    assert "orthogonality: pairs=1 sampled=False violations=0" in res.stdout


def test_dim_scales_beyond_float_range():
    res = run_cli(["dim", "--q1", "1", "--q2", "2", "--level", "2", "--scale-exps", "4:400"])
    assert res.returncode == 0, res.stderr
    rows = [json.loads(line) for line in res.stdout.splitlines()]
    assert len(rows) == 398 and int(rows[-2]["h"]) == 6**400  # 6^400 > 1e308
    assert math.isfinite(rows[-1]["slope"])


def test_dim_refuses_a_scale_window_past_the_cap():
    from sierpspec.cli import MAX_SCALES

    assert MAX_SCALES >= 1000  # well above the windows of the tests and the README
    res = run_cli(["dim", "--q1", "1", "--q2", "2", "--level", "1",
                   "--scale-exps", f"1:{MAX_SCALES + 1}"])
    assert res.returncode == 2 and res.stdout == ""
    assert f"spans more than {MAX_SCALES} scales" in res.stderr


def test_usage_error_exit_code():
    assert run_cli(["gen", "--q1", "1", "--q2", "1"]).returncode == 2  # no bound
    assert run_cli(["frobnicate"]).returncode == 2
    assert run_cli(["gen", "--q1", "1"]).returncode == 2
    for centers in ("foo", "12", "sample:-1"):
        res = run_cli(["dim", "--q1", "1", "--q2", "2", "--level", "2",
                       "--centers", centers])
        assert res.returncode == 2
        assert "'origin', 'points' or 'sample:N' with N >= 0" in res.stderr


def test_dim_closed_forms_only():
    res = run_cli(["dim", "--q1", "1", "--q2", "2", "--closed-forms-only"])
    assert res.returncode == 0
    refs = json.loads(res.stdout)["references"]
    assert refs["upper_bound"] == pytest.approx(0.61315, abs=1e-5)
    assert refs["entropy_dim"] == pytest.approx(0.83728, abs=1e-5)


def test_dim_counting_table(tmp_path):
    pts = tmp_path / "pts.jsonl"
    run_cli(["gen", "--q1", "1", "--q2", "2", "--level", "8", "--output", str(pts)])
    args = ["dim", "--q1", "1", "--q2", "2", "--input", str(pts),
            "--scale-exps", "2:6"]
    res = run_cli(args)
    assert res.returncode == 0
    lines = [json.loads(line) for line in res.stdout.splitlines()]
    rows = [l for l in lines if "h" in l]
    summary = [l for l in lines if "slope" in l][-1]
    assert len(rows) == 5
    assert abs(summary["slope"] - 0.6131) < 0.08
    assert run_cli(args).stdout == res.stdout  # byte-stable given config + seed


def test_dim_on_a_generated_prefix_matches_its_file(tmp_path):
    pts = tmp_path / "pts.jsonl"
    run_cli(["gen", "--q1", "1", "--q2", "2", "--level", "6", "--output", str(pts)])
    flags = ["--q1", "1", "--q2", "2", "--scale-exps", "2:5", "--centers", "sample:9"]
    from_file = run_cli(["dim", *flags, "--input", str(pts)])
    generated = run_cli(["dim", *flags, "--level", "6"])
    assert from_file.returncode == generated.returncode == 0
    assert generated.stdout == from_file.stdout



def test_dim_stats_flag_prints_pair_counts_on_stderr():
    flags = ["dim", "--q1", "1", "--q2", "2", "--level", "6", "--scale-exps", "2:5",
             "--centers", "sample:9"]
    plain = run_cli(flags)
    traced = run_cli(flags + ["--stats"])
    assert plain.returncode == traced.returncode == 0
    assert traced.stdout == plain.stdout
    assert not any(line.startswith('{"stats"') for line in plain.stderr.splitlines())
    stats = [json.loads(line)["stats"] for line in traced.stderr.splitlines()
             if line.startswith('{"stats"')]
    assert len(stats) == 1
    paths = stats[0]["pairs_int64"] + stats[0]["pairs_screened"] + stats[0]["pairs_exact"]
    assert paths == 729 * 10  # points x (the origin and 9 sampled centers)
    assert stats[0]["max_exponent"] == 0


def test_dim_counts_a_kicked_family_without_exact_pairs(capsys):
    """The t=0.3 family at |k| <= 3,280: every concrete point, up to 2^49 here,
    counts in int64, so no pair is left to the exact test, and stdout keeps
    the counts and slope it had when 2,916 pairs were exact."""
    flags = ["dim", "--q1", "4", "--q2", "8", "--construct-t", "0.3", "--range", "3280",
             "--scale-exps", "1:6"]
    assert main(flags) == 0
    plain = capsys.readouterr().out
    assert main(flags + ["--stats"]) == 0
    out, err = capsys.readouterr()
    assert out == plain
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["h"], r["count"]) for r in records[:-1]] == [
        (str(24**j), c) for j, c in zip(range(1, 7), (1, 5, 11, 29, 83, 247))]
    assert math.isclose(records[-1]["slope"], 0.3321399312607495, rel_tol=1e-12)
    stats = [json.loads(line)["stats"] for line in err.splitlines()
             if line.startswith('{"stats"')]
    assert len(stats) == 1 and stats[0]["pairs_exact"] == 0
    paths = stats[0]["pairs_int64"] + stats[0]["pairs_screened"] + stats[0]["pairs_exact"]
    assert paths == 6561 * 65  # points x (the origin and 64 sampled centers)

def test_verify_unitarity_and_qsum_flags():
    res = run_cli(["verify", "--q1", "1", "--q2", "1", "--level", "3",
                   "--unitarity", "2", "--qsum", "3"])
    assert res.returncode == 0
    assert "unitarity n=2" in res.stdout
    assert "qsum" in res.stdout


def test_verify_unitarity_reads_the_middle_columns(capsys):
    """--unitarity on a canonical prefix slices its columns: the same stdout as the
    point slice, and no point built."""
    from sierpspec import cli, verify
    from sierpspec.treemap import SpectrumPrefix

    made, sliced = [], []

    def prefix(args, as_tuple):
        pre = real(args)
        made.append(pre)
        return dataclasses.replace(pre, points=tuple(pre.points)) if as_tuple else pre

    def gram(n, points, p):
        sliced.append(tuple(points))  # builds the slice's own points only
        return real_gram(n, points, p)

    real, real_gram = cli._prefix_from_args, verify.gram_unitarity
    for argv in (["--level", "6", "--unitarity", "4", "--qsum", "2"],
                 ["--range", "13", "--unitarity", "3"],
                 ["--range", "12", "--unitarity", "3"],  # too few points: exit 2
                 ["--level", "2", "--unitarity", "0", "--checks", "orthogonality"]):
        outs = []
        for as_tuple in (False, True):
            with mock.patch.object(cli, "_prefix_from_args",
                                   lambda args, t=as_tuple: prefix(args, t)), \
                    mock.patch.object(verify, "gram_unitarity", gram):
                code = main(["verify", "--q1", "1", "--q2", "2", *argv])
            outs.append((code, capsys.readouterr().out))
        assert outs[0] == outs[1] and sliced[-2] == sliced[-1]
        assert isinstance(made[-2], SpectrumPrefix) and made[-2].points._points is None
    assert [o[0] for o in outs] == [0, 0]


def test_verify_unknown_check_is_usage_error(capsys):
    literal = ["verify", "--q1", "4", "--q2", "4", "--offsets", "1:1", "--mode", "literal",
               "--level", "3", "--checks"]
    assert main(literal + ["orthogonality"]) == 1
    assert "violations=18" in capsys.readouterr().out
    for checks in ("orthogonalty", "orthogonality,line", "lines,"):
        assert main(literal + [checks]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "unknown check" in err


def _refused(argv, capsys, message):
    """argv exits 2 with nothing on stdout and one error line, ``message``."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: {message}"]


@pytest.mark.parametrize("command", ["verify", "dim"])
@pytest.mark.parametrize("flag", [["--level", "3"], ["--range", "4"],
                                  ["--construct-t", "0.15"], ["--offsets", "1:1"],
                                  ["--kick", "1,1"], ["--variant-bits", "01"],
                                  ["--mode", "literal"]],
                         ids=lambda flag: flag[0])
def test_input_refuses_generation_flags(tmp_path, capsys, command, flag):
    """A file's points are what they are: a flag that would shape generated
    points is refused next to --input, not ignored."""
    path = tmp_path / "pts.jsonl"
    assert main(["gen", "--q1", "4", "--q2", "8", "--level", "2", "--output", str(path)]) == 0
    capsys.readouterr()
    name = " ".join(flag) if flag[0] == "--mode" else flag[0]
    _refused([command, "--q1", "4", "--q2", "8", "--input", str(path), *flag], capsys,
             f"{name} has no effect with --input")


@pytest.mark.parametrize("command", ["gen", "verify", "dim"])
@pytest.mark.parametrize("flag", [["--kick", "1,1"], ["--mode", "literal"]],
                         ids=lambda flag: flag[0])
def test_kick_and_literal_mode_need_a_kicked_family(tmp_path, capsys, command, flag):
    """A canonical prefix has no kick: --kick and --mode literal are refused
    without --construct-t or --offsets, and taken with --offsets."""
    name = " ".join(flag) if flag[0] == "--mode" else flag[0]
    argv = [command, "--q1", "4", "--q2", "4", "--level", "2", *flag]
    _refused(argv, capsys, f"{name} needs --construct-t or --offsets")
    if command == "gen":
        assert main(argv + ["--offsets", "1:1", "--output", str(tmp_path / "pts")]) == 0


# Run in a child process: the command's exit code and the numpy and sierpspec
# modules it left loaded, as one JSON line on stdout.
LOADS = """if True:
    import contextlib, io, json, sys
    from sierpspec.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(sys.argv[1:])
    print(json.dumps([code, sorted(m for m in sys.modules
                                   if m == "numpy" or m.split(".")[0] == "sierpspec")]))
"""
NONE = {"sierpspec", "sierpspec.cli"}
CORE = NONE | {"numpy", "sierpspec.lattice", "sierpspec.treemap"}


@pytest.mark.parametrize("argv, code, loaded", [
    (["--help"], 0, NONE),
    (["gen", "--q1", "1"], 2, NONE),
    (["gen", "--q1", "1", "--q2", "2", "--level", "2"], 0, CORE),
    (["gen", "--q1", "4", "--q2", "8", "--construct-t", "0.15", "--range", "13"], 0,
     CORE | {"sierpspec.construct"}),
    (["verify", "--q1", "1", "--q2", "2", "--level", "2"], 0,
     CORE | {"sierpspec.fourier", "sierpspec.verify"}),
    (["dim", "--q1", "1", "--q2", "2", "--level", "3", "--scale-exps", "1:4"], 0,
     CORE | {"sierpspec.dimension"}),
], ids=["help", "usage-error", "gen", "gen-construct-t", "verify", "dim"])
def test_each_command_loads_only_the_modules_it_calls(argv, code, loaded):
    proc = subprocess.run([sys.executable, "-c", LOADS, *argv], capture_output=True,
                          text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [code, sorted(loaded)]


def test_verify_tolerance_must_be_finite_and_nonnegative(tmp_path, capsys):
    path = tmp_path / "three.jsonl"
    path.write_text("".join(json.dumps({"k": k, "lambda": [str(x), str(y)]}) + "\n"
                            for k, (x, y) in ((0, (0, 0)), (1, (3, 2)), (-1, (2, 4)))))
    argv = ["verify", "--q1", "1", "--q2", "1", "--input", str(path), "--checks", "lines",
            "--unitarity", "1"]
    assert main(argv) == 1  # a deviation of 5.774e-01
    assert "max deviation 5.774e-01" in capsys.readouterr().out
    assert main(argv + ["--tolerance", "0.6"]) == 0
    assert main(argv + ["--tolerance", "0"]) == 1
    capsys.readouterr()
    for bad in ("nan", "inf", "-inf", "-1e-9"):
        assert main(argv + [f"--tolerance={bad}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--tolerance must be finite and >= 0" in err


def test_generator_flags_that_would_be_ignored_or_misread_are_usage_errors(capsys):
    kicked = ["gen", "--q1", "4", "--q2", "8", "--construct-t", "0.15", "--range", "3"]
    assert main(kicked + ["--variant-bits", "0101"]) == 0
    capsys.readouterr()
    cases = (
        (kicked + ["--variant-bits", "0121"], "0s and 1s"),  # int("2") & 1 read as 0
        (kicked + ["--variant-bits", "01x"], "0s and 1s"),
        (["gen", "--q1", "1", "--q2", "2", "--level", "1", "--range", "5"], "exactly one"),
        (["gen", "--q1", "1", "--q2", "2", "--range", "5", "--variant-bits", "01"],
         "needs --construct-t"),
        (["verify", "--q1", "1", "--q2", "2", "--level", "2", "--variant-bits", "1"],
         "needs --construct-t"),
    )
    for argv, message in cases:
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err


def test_counts_below_one_are_usage_errors(capsys):
    # each of these used to print no check and exit 0
    for argv, flag in ((["verify", "--q1", "1", "--q2", "2", "--level", "2", "--qsum", "-3"],
                        "--qsum"),
                       (["verify", "--q1", "1", "--q2", "2", "--level", "2", "--qsum", "0"],
                        "--qsum"),
                       (["qsum", "--q1", "1", "--q2", "2", "--num-xi", "-1"], "--num-xi"),
                       (["qsum", "--q1", "1", "--q2", "2", "--n-max", "-2"], "--n-max"),
                       (["qsum", "--q1", "1", "--q2", "2", "--n-max", "0"], "--n-max")):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"{flag} must be >= 1" in err
    assert main(["qsum", "--q1", "1", "--q2", "2", "--n-max", "1", "--num-xi", "1"]) == 0


def test_qsum_non_finite_frequency_is_usage_error():
    # the tail bound is inf at every depth, so the depth search used to run forever
    for xi in ("nan,0", "0,inf", "-inf,0.5"):
        res = run_cli(["qsum", "--q1", "1", "--q2", "2", f"--xi={xi}"], timeout=60)
        assert res.returncode == 2 and "finite frequency" in res.stderr


def test_construct_family_descriptors(tmp_path):
    res = run_cli(["construct", "--q1", "4", "--q2", "8", "--t", "0.15",
                   "--count", "3"], cwd=tmp_path)
    assert res.returncode == 0
    descs = [json.loads(line) for line in res.stdout.splitlines()]
    assert len(descs) == 3
    assert descs[0]["variant_bits"] == []
    assert len({tuple(d["variant_bits"]) for d in descs}) == 3


def test_qsum_command():
    res = run_cli(["qsum", "--q1", "1", "--q2", "1", "--n-max", "3",
                   "--num-xi", "2"])
    assert res.returncode == 0
    recs = [json.loads(line) for line in res.stdout.splitlines()]
    assert len(recs) == 6
    assert all(r["q"] <= 1 + 1e-9 for r in recs)


def test_qsum_enumerates_each_level_once(capsys):
    """Each level is enumerated once for every frequency, the previous level
    and its phase rows are gone when the next is built, and the lines, in
    their order, are those of a fresh prefix per (xi, n)."""
    from sierpspec import treemap
    from sierpspec.treemap import CanonicalMapping, enumerate_spectrum
    from sierpspec.lattice import MatrixParams
    from sierpspec.verify import SamplingBox, q_sum

    p = MatrixParams(1, 2)
    built, alive = [], []

    def enumerate_and_watch(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in built))
        prefix = enumerate_spectrum(*args, **kwargs)
        built.append(weakref.ref(prefix.points.xs))
        return prefix

    with mock.patch.object(treemap, "enumerate_spectrum", side_effect=enumerate_and_watch):
        assert main(["qsum", "--q1", "1", "--q2", "2", "--n-max", "4", "--num-xi", "3",
                     "--seed", "5"]) == 0
    assert alive == [0] * 4
    lines = capsys.readouterr().out.splitlines()
    want = []
    for xi in SamplingBox.for_params(p).samples(3, seed=5):
        for n in range(1, 5):
            res = q_sum(xi, enumerate_spectrum(CanonicalMapping(), p, level=n))
            want.append({"xi": list(xi), "n": n, "q": res.value, "gap": 1.0 - res.value,
                         "err": res.error})
    assert [json.loads(line) for line in lines] == want


def test_verify_qsum_stays_within_one_past_2_to_the_53(capsys):
    """At (1, 1000) level 6 the coordinates pass 2^53.  Float division lost
    their low digits, and the sums passed 1 on an orthogonal set (exit 1); the
    exact remainders keep each within Bessel's bound."""
    assert main(["verify", "--q1", "1", "--q2", "1000", "--level", "6",
                 "--checks", "orthogonality", "--qsum", "5"]) == 0
    values = [float(line.split("value=")[1].split()[0])
              for line in capsys.readouterr().out.splitlines() if line.startswith("qsum")]
    assert len(values) == 5
    assert all(v <= 1 + 1e-9 for v in values)


def test_main_callable_directly(capsys):
    assert main(["gen", "--q1", "1", "--q2", "1", "--level", "0"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["k"] == 0


def test_int_string_limit_is_relaxed_only_inside_main(capsys):
    probe = ("import sys; before = sys.get_int_max_str_digits(); "
             "import sierpspec.cli; assert sys.get_int_max_str_digits() == before")
    assert subprocess.run([sys.executable, "-c", probe], env=CHILD_ENV).returncode == 0
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        # kicked coordinates of about 7000 digits need the relaxed limit
        assert main(["gen", "--q1", "4", "--q2", "4", "--construct-t", "0.3",
                     "--range", "80"]) == 0
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(old)
    digits = max(len(x) for line in capsys.readouterr().out.splitlines()
                 for x in json.loads(line)["lambda"])
    assert digits > 4300


def _verify_input(path, capsys):
    code = main(["verify", "--q1", "1", "--q2", "1", "--input", str(path)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("field", [
    pytest.param('"word": [1.5]', id="float-letter"),
    pytest.param('"word": [true]', id="bool-letter"),
    pytest.param('"word": [2]', id="letter-out-of-range"),
    pytest.param('"word": ["1_0"]', id="underscore-letter"),
    pytest.param('"word": "1"', id="string-word"),
    pytest.param('"kick_position": "abc"', id="string-kick-position"),
    pytest.param('"kick_position": 0', id="zero-kick-position"),
    pytest.param('"kick_position": -3', id="negative-kick-position"),
    pytest.param('"kick_position": 1.5', id="float-kick-position"),
    pytest.param('"kick_position": true', id="bool-kick-position"),
])
def test_bad_word_or_kick_position_in_jsonl_is_usage_error(tmp_path, capsys, field):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"k": 1, "lambda": ["1", "-1"], ' + field + "}\n")
    code, err = _verify_input(bad, capsys)
    assert code == 2 and "bad record" in err


@pytest.mark.parametrize("row", [
    pytest.param(" 1_000,1,1,-1,", id="underscore-k"),
    pytest.param("1,1,1_000,-1,", id="underscore-x"),
    pytest.param("1,1,1, -1,", id="space-y"),
    pytest.param("1,1,1.5,-1,", id="float-x"),
    pytest.param("1,1 2,1,-1,", id="letter-out-of-range"),
    pytest.param("1,1 x,1,-1,", id="non-integer-letter"),
    pytest.param("1,1,1,-1,abc", id="string-kick-position"),
    pytest.param("1,1,1,-1,0", id="zero-kick-position"),
    pytest.param("1,1,1,-1,-2", id="negative-kick-position"),
    pytest.param("1,1,1", id="short-row"),
    pytest.param("0,,0,0,,,,", id="extra-fields"),
    pytest.param("1,1,1,-1,,", id="one-extra-empty-field"),
])
def test_bad_csv_record_is_usage_error(tmp_path, capsys, row):
    bad = tmp_path / "bad.csv"
    bad.write_text("k,word,x,y,kick_position\n" + row + "\n")
    code, err = _verify_input(bad, capsys)
    assert code == 2 and "bad record" in err


@pytest.mark.parametrize("head", ["k,word,x,y,kick_position,x", "k,k,word,x,y"])
def test_csv_header_with_a_repeated_column_is_usage_error(tmp_path, capsys, head):
    bad = tmp_path / "bad.csv"
    bad.write_text(head + "\n0,,0,0,\n")
    code, err = _verify_input(bad, capsys)
    assert code == 2 and "bad header" in err and "repeated column" in err


@pytest.mark.parametrize("name, text", [
    pytest.param("bom.jsonl", '{"k": 0, "lambda": ["0", "0"]}\n', id="jsonl"),
    pytest.param("bom.csv", "k,word,x,y,kick_position\n0,,0,0,\n", id="csv"),
])
def test_leading_byte_order_mark_is_named(tmp_path, capsys, name, text):
    bad = tmp_path / name
    bad.write_text(text)
    assert _verify_input(bad, capsys)[0] == 0
    bad.write_text("\ufeff" + text, encoding="utf-8")
    code, err = _verify_input(bad, capsys)
    assert code == 2 and "byte-order mark" in err and "not a point CSV" not in err


ORIGIN_JSONL = '{"k": 0, "word": [], "lambda": ["0", "0"]}'


@pytest.mark.parametrize("name, lines, message", [
    pytest.param("bad.jsonl", ['{"k": 1, "word": [-1, 0, 1], "lambda": ["1", "-1"]}'],
                 "not the word of k=1", id="jsonl-word-of-another-k"),
    pytest.param("bad.jsonl", ['{"k": 5, "word": [], "lambda": ["1", "-1"]}'],
                 "not the word of k=5", id="jsonl-empty-word"),
    pytest.param("bad.jsonl", ['{"k": -1, "word": [1], "lambda": ["1", "-1"]}'],
                 "not the word of k=-1", id="jsonl-negated-word"),
    pytest.param("bad.jsonl", ['{"k": 0, "word": [], "lambda": ["1", "-1"]}'],
                 "k=0 repeats line 1", id="jsonl-repeated-k"),
    pytest.param("bad.csv", ["1,-1 0 1,1,-1,"], "not the word of k=1", id="csv-word-of-another-k"),
    pytest.param("bad.csv", ["5,,1,-1,"], "not the word of k=5", id="csv-empty-word"),
    pytest.param("bad.csv", ["-1,1,1,-1,"], "not the word of k=-1", id="csv-negated-word"),
    pytest.param("bad.csv", ["0,,1,-1,"], "k=0 repeats line 2", id="csv-repeated-k"),
])
def test_word_must_match_k_and_k_must_not_repeat(tmp_path, capsys, name, lines, message):
    bad = tmp_path / name
    head = [ORIGIN_JSONL] if name.endswith(".jsonl") else ["k,word,x,y,kick_position", "0,,0,0,"]
    bad.write_text("\n".join(head + lines) + "\n")
    code, err = _verify_input(bad, capsys)
    assert code == 2 and "bad record" in err and message in err


def test_a_record_without_word_takes_the_word_of_k(tmp_path):
    from sierpspec.cli import _read_points
    from sierpspec.lattice import MatrixParams

    path = tmp_path / "pts.jsonl"
    path.write_text(ORIGIN_JSONL + '\n{"k": -4, "lambda": ["-4", "4"]}\n')
    assert [pt.word for pt in _read_points(str(path), MatrixParams(1, 1))] == [(), (-1, -1)]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_gen_output_reads_back(tmp_path, capsys, fmt):
    from sierpspec.cli import _read_points
    from sierpspec.construct import build_intermediate_spectrum
    from sierpspec.lattice import MatrixParams, SymVec
    from sierpspec.treemap import SpectrumPoint

    p = MatrixParams(4, 4)
    path = tmp_path / f"pts.{fmt}"
    assert main(["gen", "--q1", "4", "--q2", "4", "--construct-t", "0.3",
                 "--range", "40", "--format", fmt, "--output", str(path)]) == 0
    prefix = build_intermediate_spectrum(0.3, p).prefix(40)
    want = [SpectrumPoint(k=pt.k, word=pt.word, value=SymVec(base=pt.concrete(p)),
                          kick_position=pt.kick_position) for pt in prefix.points]
    assert any(pt.kick_position for pt in want) and any(-1 in pt.word for pt in want)
    assert _read_points(str(path), p) == want


def test_megabit_csv_coordinate_is_read(tmp_path, capsys):
    big = "1" + "0" * 200_000  # past the csv module's default field limit
    path = tmp_path / "big.csv"
    limit = csv.field_size_limit()
    # (1, -1) apart: orthogonal at q1 = q2 = 1; (1, 0) apart: not
    for y1, want in ((f"-{big}8", 0), (f"-{big}7", 1)):
        path.write_text(f"k,word,x,y,kick_position\n0,,{big}7,-{big}7,\n1,1,{big}8,{y1},\n")
        code, err = _verify_input(path, capsys)
        assert code == want and "error" not in err
    assert csv.field_size_limit() == limit


# ---------------------------------------------------------------------------
# Both readers under generated input: a malformed record exits 2, never raises
# ---------------------------------------------------------------------------

CSV_HEAD = "k,word,x,y,kick_position"
FUZZ = settings(max_examples=40, deadline=None)


def _verify_text(text):
    """Exit code, stdout and stderr of ``spectra verify --input`` on a file holding text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "points")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--q1", "1", "--q2", "1", "--input", path])
    return code, out.getvalue(), err.getvalue()


def _jsonl(k, word=None, xy=(0, 0), kick=None, as_text=False):
    rec = {"k": str(k) if as_text else k, "lambda": [str(v) for v in xy]}
    if word is not None:
        rec["word"] = list(word)
    if kick is not None:
        rec["kick_position"] = kick
    return json.dumps(rec)


def _csv(k, word=(), xy=(0, 0), kick=None):
    return f"{k},{' '.join(map(str, word))},{xy[0]},{xy[1]},{'' if kick is None else kick}"


def records(min_size=1):
    """Distinct small k, each with arbitrary coordinates."""
    xy = st.tuples(st.integers(-99, 99), st.integers(-99, 99))
    return st.lists(st.integers(-40, 40), min_size=min_size, max_size=4, unique=True).flatmap(
        lambda ks: st.tuples(*(st.tuples(st.just(k), xy) for k in ks)))


@FUZZ
@given(records(), st.data())
def test_truncated_jsonl_line_is_usage_error(recs, data):
    lines = [_jsonl(k, index_to_word(k), xy) for k, xy in recs]
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i] = lines[i][: data.draw(st.integers(1, len(lines[i]) - 1))]
    code, _, err = _verify_text("\n".join(lines) + "\n")
    assert code == 2 and f":{i + 1}: bad record" in err


huge = st.one_of(st.integers(-50, 50), st.integers(-(10**60), 10**60))


@FUZZ
@given(huge, st.one_of(st.none(), huge), st.sampled_from(["own", "other", "none"]),
       st.integers(1, 10**6), st.booleans(), st.booleans())
def test_huge_or_negative_k_and_kick_position(k, kick, word_of, other, as_text, csv_form):
    word = {"own": index_to_word(k), "other": index_to_word(k + other), "none": None}[word_of]
    if csv_form:
        text = CSV_HEAD + "\n" + _csv(k, word or (), kick=kick) + "\n"
        bad = word_of == "other" or (word_of == "none" and k != 0)  # an empty word is ()
    else:
        text = _jsonl(k, word, kick=kick, as_text=as_text) + "\n"
        bad = word_of == "other"
    bad |= kick is not None and kick < 1
    code, _, err = _verify_text(text)
    assert (code == 2) == bad and code in (0, 1, 2)
    assert ("bad record" in err) == bad


not_a_list = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                       st.text(max_size=5), st.dictionaries(st.text(max_size=3),
                                                            st.integers(-1, 1), max_size=2))


@FUZZ
@given(not_a_list, st.sampled_from(["word", "lambda"]), st.text("[]{}ab.:;", min_size=1))
def test_non_list_word_or_lambda_is_usage_error(value, field, junk):
    rec = {"k": 1, "word": [1], "lambda": ["1", "-1"], field: value}
    code, _, err = _verify_text(ORIGIN_JSONL + "\n" + json.dumps(rec) + "\n")
    assert code == 2 and ":2: bad record" in err
    code, _, err = _verify_text(f"{CSV_HEAD}\n0,,0,0,\n1,1 {junk},1,-1,\n")
    assert code == 2 and ":3: bad record" in err


@FUZZ
@given(records(min_size=2), st.data())
def test_mixed_jsonl_and_csv_is_usage_error(recs, data):
    n = len(recs)
    forms = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))  # True: JSONL
    forms[data.draw(st.integers(1, n - 1))] = not forms[0]
    lines = [_jsonl(k, None, xy) if j else _csv(k, index_to_word(k), xy)
             for (k, xy), j in zip(recs, forms)]
    text = "\n".join(lines if forms[0] else [CSV_HEAD] + lines) + "\n"
    code, _, err = _verify_text(text)
    assert code == 2 and "bad record" in err


@FUZZ
@given(records(), st.data())
def test_blank_lines_are_skipped_and_stray_boms_are_usage_errors(recs, data):
    for csv_form in (False, True):
        lines = [_csv(k, index_to_word(k), xy) if csv_form else _jsonl(k, None, xy)
                 for k, xy in recs]
        if csv_form:
            lines.insert(0, CSV_HEAD)
        plain = _verify_text("\n".join(lines) + "\n")
        blank = st.just("") if csv_form else st.sampled_from(["", " ", "\t", "  \t "])
        padded = []
        for line in lines:
            padded += data.draw(st.lists(blank, max_size=2)) + [line]
        assert _verify_text("\n".join(padded) + "\n")[:2] == plain[:2]
        assert plain[0] in (0, 1)
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = "\ufeff" + lines[i]
        code, _, err = _verify_text("\n".join(lines) + "\n")
        assert code == 2 and "error:" in err


# ---------------------------------------------------------------------------
# The writer and the coordinate parser against the forms they replaced
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def unlimited_int_digits():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _point_record_oracle(pt, p):
    x, y = pt.value.materialize(p)
    return {
        "k": pt.k,
        "word": list(pt.word),
        "lambda": [str(x), str(y)],
        "kick_position": pt.kick_position,
    }


def _write_points_oracle(prefix, fmt, out):
    """The writer that built and materialized every point, kept as the oracle."""
    p = prefix.params
    if fmt == "jsonl":
        for pt in prefix.points:
            out.write(json.dumps(_point_record_oracle(pt, p)) + "\n")
        return
    writer = csv.writer(out)
    writer.writerow(["k", "word", "x", "y", "kick_position"])
    for pt in prefix.points:
        x, y = pt.value.materialize(p)
        word = " ".join(str(letter) for letter in pt.word)
        kick = "" if pt.kick_position is None else pt.kick_position
        writer.writerow([pt.k, word, str(x), str(y), kick])


def _written(write, prefix, fmt):
    """(text written, message of the error that stopped it, or None)."""
    from sierpspec.lattice import LatticeError

    out = io.StringIO()
    try:
        with unlimited_int_digits():
            write(prefix, fmt, out)
    except LatticeError as exc:
        return out.getvalue(), str(exc)
    return out.getvalue(), None


def _writer_cases():
    from sierpspec.construct import build_intermediate_spectrum
    from sierpspec.lattice import MatrixParams
    from sierpspec.treemap import CanonicalMapping, KickedMapping, TableOffsets, \
        enumerate_spectrum

    p44, p48 = MatrixParams(4, 4), MatrixParams(4, 8)
    for q in ((1, 1), (1, 2), (4, 8)):
        for level in range(8):
            yield f"canonical {q} L{level}", enumerate_spectrum(
                CanonicalMapping(), MatrixParams(*q), level=level)
    big = MatrixParams(10**9, 10**9)
    yield "canonical (10^9,10^9) L3 objects", enumerate_spectrum(CanonicalMapping(), big, level=3)
    for p in (p48, p44):
        for t in (0.15, 0.3):
            for mode in ("coherent", "literal"):
                for bits in ((), (0, 1, 1)):
                    spec = build_intermediate_spectrum(t, p, mode=mode, variant_bits=bits)
                    for bound in (0, 1, 13, 40):
                        yield (f"t={t} {p.q1},{p.q2} {mode} bits={bits} |k|<={bound}",
                               spec.prefix(bound))
    spec = build_intermediate_spectrum(0.15, p48, variant_bits=(1, 0, 0, 1, 0))
    yield "t=0.15 (4,8) |k|<=100, as cli-roundtrip", spec.prefix(100)
    # coordinates of up to 31,064 digits, B^e of over 20,000: past 1,024 libmpdec words
    yield "t=0.15 (4,8) |k|<=150", spec.prefix(150)
    for table in ({1: 1}, {1: 1, -4: 2}):
        yield f"literal (4,4) {table}", enumerate_spectrum(
            KickedMapping(TableOffsets(table), mode="literal"), p44, level=3)
    offsets = TableOffsets({-7: 90, -2: 3, 5: 70, 9: 1, 11: 200})
    yield "offsets table (4,8)", enumerate_spectrum(KickedMapping(offsets), p48, index_bound=13)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_writer_matches_the_materializing_writer(fmt):
    """Every record is byte-identical to the one the old writer made from the
    materialized point, kicked coordinates of thousands of digits included."""
    from sierpspec.cli import _write_points

    cases = list(_writer_cases())
    assert len(cases) == 94
    for name, prefix in cases:
        got = _written(_write_points, prefix, fmt)
        assert got == _written(_write_points_oracle, prefix, fmt), name
        assert got[1] is None and got[0].count("\n") == len(prefix) + (fmt == "csv"), name


def test_construct_range_files_match_the_materializing_writer(tmp_path, capsys):
    from sierpspec.construct import family_variants
    from sierpspec.lattice import MatrixParams

    stem = str(tmp_path / "fam")
    assert main(["construct", "--q1", "4", "--q2", "8", "--t", "0.15", "--count", "3",
                 "--range", "40", "--points-prefix", stem]) == 0
    for i, spec in enumerate(family_variants(0.15, MatrixParams(4, 8), 3)):
        text, err = _written(_write_points_oracle, spec.prefix(40), "jsonl")
        assert err is None
        assert Path(f"{stem}.variant{i}.jsonl").read_text(encoding="utf-8") == text


def test_a_kicked_coordinate_that_cancels_prints_zero():
    """base + B^e v = 0 prints "0", never "-0", for a folded and an unfolded term."""
    import numpy as np

    from sierpspec.cli import _write_points
    from sierpspec.lattice import MatrixParams
    from sierpspec.treemap import SpectrumPrefix, _ColumnPoints

    p = MatrixParams(4, 4)
    kick = (1, -1)
    for e in (3, 70):
        # k = -1, 0, 1: k = 1 carries A^e kick, and its base is minus that term
        xs = np.array([-4, 0, -(12**e)], dtype=object)
        ys = np.array([4, 0, 12**e], dtype=object)
        exps = np.array([0, 0, e], dtype=np.int64)
        prefix = SpectrumPrefix(p, _ColumnPoints(xs, ys, np.arange(-1, 2), exps, kick, p), 1)
        for fmt in ("jsonl", "csv"):
            got = _written(_write_points, prefix, fmt)
            assert got == _written(_write_points_oracle, prefix, fmt)
            assert "-0" not in got[0]
        assert got[0].splitlines()[-1] == f"1,1,0,0,{e + 1}"


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_writer_stops_at_the_same_record_past_the_exponent_limit(tmp_path, capsys, fmt):
    """A term past MATERIALIZE_EXPONENT_LIMIT stops the writer at the record the
    old writer stopped at, with every earlier record written, the same message
    and exit code 2."""
    from sierpspec import lattice
    from sierpspec.cli import _write_points
    from sierpspec.construct import build_intermediate_spectrum
    from sierpspec.lattice import MatrixParams
    from sierpspec.treemap import KickedMapping, TableOffsets, enumerate_spectrum

    p48 = MatrixParams(4, 8)
    mapping = KickedMapping(TableOffsets({-7: 90, -2: 3, 5: 170, 9: 1, 11: 400}))
    cases = [
        (["--offsets=-7:90,-2:3,5:170,9:1,11:400", "--range", "13"],
         enumerate_spectrum(mapping, p48, index_bound=13)),
        (["--construct-t", "0.15", "--range", "40"],
         build_intermediate_spectrum(0.15, p48).prefix(40)),
    ]
    written = []
    with mock.patch.object(lattice, "MATERIALIZE_EXPONENT_LIMIT", 150):
        for argv, prefix in cases:
            want, message = _written(_write_points_oracle, prefix, fmt)
            assert message is not None
            written.append(want.count("\n") - (fmt == "csv"))
            assert _written(_write_points, prefix, fmt) == (want, message)
            path = tmp_path / f"out.{fmt}"
            code = main(["gen", "--q1", "4", "--q2", "8", *argv, "--format", fmt,
                         "--output", str(path)])
            assert code == 2 and capsys.readouterr().err.endswith(f"error: {message}\n")
            assert path.read_bytes() == want.encode()
    assert written[0] == 18  # k = -13..4, with k = -7's unfolded A^92 term; k = 5 is past


def _decimal_strings():
    import random

    rng = random.Random(1017)
    lengths = [*range(1, 40), *range(1000, 1050), *range(2040, 2060), 3071, 3072, 3073,
               4095, 4096, 4097, 4999, 5000, *rng.sample(range(1, 5001), 60)]
    for n in lengths:
        digits = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(n - 1))
        yield digits
        yield "-" + digits
        yield "+" + digits
    for n in (1023, 1024, 1025, 2047, 2048, 2049):
        yield "0" * n
        yield "-" + "0" * (n - 3) + "123"
        yield "0" * 600 + "9" * (n - 600)
        yield "9" * n
    yield from ("0", "-0", "+0", "00", "-000", "+007")


def test_decimal_parser_matches_int():
    from sierpspec.cli import _json_int

    with unlimited_int_digits():
        for s in _decimal_strings():
            assert _json_int(s) == int(s), s[:40]
        big = "-" + "9" * 100_000 + "0" * 99_999 + "12"  # 200,002 digits
        assert _json_int(big) == int(big)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["", "-", "+"]), st.text("0123456789", min_size=1, max_size=4200))
def test_decimal_parser_property(sign, digits):
    from sierpspec.cli import _json_int

    with unlimited_int_digits():
        assert _json_int(sign + digits) == int(sign + digits)


@pytest.mark.parametrize("count", [1, 4])
def test_file_qsums_share_one_phase_table(tmp_path, capsys, count):
    """``verify --input --qsum N`` with N > 1 hands every q-sum the file's
    values as columns with one cache: one phase table per axis serves all N,
    each row built once.  A single q-sum keeps no table and streams its rows.
    Either way the sums are those of the point list, to the bit."""
    from sierpspec import cli, verify
    from sierpspec.lattice import MatrixParams
    from sierpspec.verify import SamplingBox

    path = tmp_path / "pts.jsonl"
    assert main(["gen", "--q1", "1", "--q2", "2", "--level", "6", "--output", str(path)]) == 0
    p = MatrixParams(1, 2)
    points = cli._read_points(str(path), p)
    real, real_q_sum, built, depths, caches = verify._level_phases, verify.q_sum, [], [], []

    def level_phases(*args, **kwargs):
        for row in real(*args, **kwargs):
            built.append(row)
            yield row

    def q_sum(xi, values, p):
        res = real_q_sum(xi, values, p)
        depths.append(res.depth)
        caches.append(getattr(values, "cache", None))
        return res

    capsys.readouterr()
    with mock.patch.object(verify, "q_sum", q_sum), \
            mock.patch.object(verify, "_level_phases", level_phases):
        assert main(["verify", "--q1", "1", "--q2", "2", "--input", str(path),
                     "--checks", "orthogonality", "--qsum", str(count)]) == 0
    assert len(depths) == count
    if count > 1:
        assert all(cache is caches[0] for cache in caches)
        assert {key: len(rows) for key, rows in caches[0].items()} == {
            ("x", p.base_x): max(depths), ("y", p.base_y): max(depths)}
        assert len(built) == 2 * max(depths)  # each row once
    else:
        assert caches == [None] and len(built) == 2 * depths[0]
    got = [line for line in capsys.readouterr().out.splitlines() if line.startswith("qsum")]
    want = []
    for xi in SamplingBox.for_params(p).samples(count, seed=0):
        res = verify.q_sum(xi, points, p)  # a point list, with no cache: rows built per call
        want.append(f"qsum xi=({xi[0]:+.4f},{xi[1]:+.4f}): value={res.value:.9f} "
                    f"err<{res.error:.2e}")
    assert got == want


def test_qsum_on_a_kicked_file_past_the_float_range_is_usage_error(tmp_path, capsys):
    """The t=0.15 (4,8) family at |k| <= 100 has coordinates past the float
    range: q-sums on its file exit 2 with an error line, as on its prefix,
    where the kicks stay symbolic (this was an OverflowError, exit 1)."""
    path = tmp_path / "kicked.jsonl"
    family = ["--q1", "4", "--q2", "8", "--construct-t", "0.15", "--range", "100"]
    assert main(["gen", *family, "--output", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--q1", "4", "--q2", "8", "--input", str(path), "--qsum", "2"]) == 2
    out, err = capsys.readouterr()
    assert "orthogonality: pairs=20100 sampled=False violations=0" in out
    assert err.splitlines()[-1] == ("error: q_sum needs float-representable points; "
                                    "got a coordinate past the float range")
    assert main(["verify", *family, "--qsum", "2"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: q_sum needs float-representable points; got a symbolic kick term")


def test_verify_kicked_family_whose_kicks_all_fold(capsys):
    """t = 0.3 at (4, 8), |k| <= 6: every kick has exponent at most 64, so the
    q-sums read the store's folded columns, which its cache keeps with the
    phase rows: the second and third q-sums build no row.  The output is
    pinned to that of the fold-per-call code it replaced."""
    from sierpspec import verify

    real, real_q_sum, built, stores = verify._level_phases, verify.q_sum, [], []

    def level_phases(*args, **kwargs):
        for row in real(*args, **kwargs):
            built[-1] += 1
            yield row

    def q_sum(xi, values, p):
        built.append(0)
        stores.append(values.cache)
        return real_q_sum(xi, values, p)

    with mock.patch.object(verify, "q_sum", q_sum), \
            mock.patch.object(verify, "_level_phases", level_phases):
        assert main(["verify", "--q1", "4", "--q2", "8", "--construct-t", "0.3",
                     "--range", "6", "--qsum", "3"]) == 0
    assert capsys.readouterr().out == (
        "orthogonality: pairs=78 sampled=False violations=0\n"
        "distinct-lines: shared_x=0 shared_y=0\n"
        "projections: x_violations=0 y_violations=0\n"
        "qsum xi=(+0.3757,+0.2692): value=0.999776896 err<6.30e-12\n"
        "qsum xi=(-0.0866,-0.2516): value=0.999975458 err<6.30e-12\n"
        "qsum xi=(+0.0123,-0.0992): value=0.999993673 err<6.30e-12\n")
    assert built[0] > 0 and built[1:] == [0, 0]
    assert all(cache is stores[0] for cache in stores) and "folded" in stores[0]


def test_gen_and_verify_leave_the_decimal_context_and_int_limit_alone(tmp_path, capsys):
    import decimal

    ctx = decimal.getcontext()
    state = (repr(ctx), sys.get_int_max_str_digits())
    path = tmp_path / "pts.jsonl"
    assert main(["gen", "--q1", "4", "--q2", "8", "--construct-t", "0.15", "--range", "60",
                 "--variant-bits", "011", "--output", str(path)]) == 0
    assert decimal.getcontext() is ctx
    assert (repr(ctx), sys.get_int_max_str_digits()) == state
    assert main(["verify", "--q1", "4", "--q2", "8", "--input", str(path)]) == 0
    assert decimal.getcontext() is ctx
    assert (repr(ctx), sys.get_int_max_str_digits()) == state
    assert max(len(s) for line in path.read_text().splitlines()
               for s in json.loads(line)["lambda"]) > 4300
