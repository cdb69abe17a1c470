"""Command-line front end: generate, verify, measure and construct spectra.

Subcommands
    gen        emit spectrum points as JSON-lines or CSV (decimal-string coords)
    verify     exact orthogonality / line / projection checks, unitarity, q-sums
    dim        counting-based dimension table plus closed-form references
    construct  describe (and optionally emit) intermediate-dimension variants
    qsum       quadratic transform sums over increasing prefixes

Exit codes: 0 all requested checks pass, 1 mathematical violations found,
2 usage or malformed input.  Coordinates always serialize as decimal strings;
kicked coordinates overflow any float, and run to hundreds of thousands of
digits.  CPython converts between int and decimal text in time quadratic in
the digits, so neither direction goes through that conversion for a long
coordinate.  The writer reads a prefix's columns and sums each kicked
coordinate, base + B^e v, as an exact ``decimal.Decimal``, whose text is
linear in its digits, stepping one power B^e per axis from point to point.
The readers split a decimal string of more than 1,024 digits in two and
join the halves' values as hi * 10^w + lo, so a coordinate of n digits costs
a few big multiplications, about n^1.6.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import io
import json
import math
import re
import sys

from .construct import build_intermediate_spectrum, family_variants, t_max
from .dimension import (
    beurling_dim_estimate,
    entropy_dim_closed_form,
    geometric_scales,
    support_hausdorff_dim,
)
from . import lattice
from .lattice import ColumnValues, LatticeError, MatrixParams, SymVec, value_columns
from .treemap import (
    CanonicalMapping,
    KickedMapping,
    SpectrumPoint,
    SpectrumPrefix,
    TableOffsets,
    central_points,
    enumerate_spectrum,
    index_to_word,
    level_index_bound,
    point_values,
)
from .verify import (
    SamplingBox,
    check_distinct_lines,
    check_orthogonality,
    check_projection_orthogonality,
    gram_unitarity,
    q_sum,
)

USAGE_ERROR = 2
VIOLATION = 1
VERIFY_CHECKS = ("orthogonality", "lines", "projections")
# the widest --scale-exps window: scale j is an exact (3 q2)^j, so a window of
# a million scales holds gigabytes of integers before a ball is counted
MAX_SCALES = 4096

class InputError(Exception):
    """Malformed input file or inconsistent flags (exit code 2)."""


def _params(args) -> MatrixParams:
    return MatrixParams(args.q1, args.q2)


def _parse_vec(text: str) -> tuple[int, int]:
    try:
        x, y = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"expected 'X,Y' integers, got {text!r}") from exc
    return (x, y)


def _parse_offsets(text: str) -> dict[int, int]:
    table = {}
    for chunk in text.split(","):
        try:
            k, m = chunk.split(":")
            table[int(k)] = int(m)
        except ValueError as exc:
            raise InputError(f"expected 'k:m' pairs, got {chunk!r}") from exc
    return table


def _echo_config(args) -> None:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    print("config: " + json.dumps(cfg, default=str), file=sys.stderr)


# ---------------------------------------------------------------------------
# Point generation and (de)serialization
# ---------------------------------------------------------------------------


def _add_gen_flags(sub, require_bound=True):
    sub.add_argument("--q1", type=int, required=True)
    sub.add_argument("--q2", type=int, required=True)
    sub.add_argument("--level", type=int, help="include all words of length <= level")
    sub.add_argument("--range", type=int, dest="index_range", help="include |k| <= range")
    sub.add_argument("--construct-t", type=float, dest="construct_t",
                     help="build the intermediate-dimension family at this t")
    sub.add_argument("--kick", type=str, help="kick digit X,Y (default (q1/4,-q2/4))")
    sub.add_argument("--mode", choices=("coherent", "literal"), default="coherent")
    sub.add_argument("--variant-bits", type=str, default="",
                     help="bit string cycling over kicked indices, e.g. 0101")
    sub.add_argument("--offsets", type=str,
                     help="explicit kick offsets as k:m[,k:m...] (plain kicked mapping)")
    sub.add_argument("--seed", type=int, default=0)


def _prefix_from_args(args) -> SpectrumPrefix:
    p = _params(args)
    if (args.level is None) == (args.index_range is None):
        raise InputError("exactly one of --level / --range is required")
    bound = args.index_range if args.index_range is not None else level_index_bound(args.level)
    kick = _parse_vec(args.kick) if args.kick else None
    if args.variant_bits and args.construct_t is None:
        raise InputError("--variant-bits needs --construct-t")
    if not set(args.variant_bits) <= {"0", "1"}:
        raise InputError(f"--variant-bits takes a string of 0s and 1s, got {args.variant_bits!r}")
    bits = tuple(int(c) for c in args.variant_bits)
    if args.construct_t is not None:
        spec = build_intermediate_spectrum(
            args.construct_t, p, kick=kick, mode=args.mode, variant_bits=bits
        )
        return spec.prefix(bound)
    if args.offsets:
        mapping = KickedMapping(TableOffsets(_parse_offsets(args.offsets)),
                                kick=kick, mode=args.mode)
        return enumerate_spectrum(mapping, p, index_bound=bound)
    return enumerate_spectrum(CanonicalMapping(), p, index_bound=bound)


# Kicked coordinates are summed as exact Decimals, whose str() is linear in the
# digits (that of an int is quadratic); any rounding would raise, not misprint.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                         traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation])


def _coordinate_texts(col, terms, axis: int, base: int):
    """Yield str(col[i] + B^e v) for each value i in order, (e, v) its kick term
    on this axis, if it has one.

    One Decimal power B^e is kept and stepped to each term's exponent, by a
    multiply up or an exact divide_int down: the exponents fall and then rise
    along k, so each step is small.  A term past MATERIALIZE_EXPONENT_LIMIT
    raises as ``SymVec.materialize`` does, when its value is reached.
    """
    rows = {} if terms is None else dict(zip(
        terms.index.tolist(), zip(terms.exponent.tolist(), terms[2 + axis].tolist())))
    b, power, at = decimal.Decimal(base), decimal.Decimal(1), 0
    for i, coord in enumerate(col.tolist()):
        e, v = rows.get(i, (0, 0))
        if e > lattice.MATERIALIZE_EXPONENT_LIMIT:
            raise LatticeError(f"refusing to expand A^{e} term")
        if not v:
            yield str(coord)
            continue
        if e > at:
            power = _EXACT.multiply(power, _EXACT.power(b, e - at))
        elif e < at:
            power = _EXACT.divide_int(power, _EXACT.power(b, at - e))
        at = e
        yield str(_EXACT.fma(v, power, coord))


def _write_points(prefix: SpectrumPrefix, fmt: str, out) -> None:
    """Write an enumerated prefix's points, one record each, from its columns
    (``treemap.point_values``) and exponent column, building no point."""
    points, p, bound = prefix.points, prefix.params, prefix.index_bound
    xs, ys, terms = value_columns(point_values(points))
    exps = [0] * len(xs) if points.exps is None else points.exps.tolist()
    sep = ", " if fmt == "jsonl" else " "
    words = (sep.join(map(str, index_to_word(k))) for k in range(-bound, bound + 1))
    rows = zip(range(-bound, bound + 1), words, _coordinate_texts(xs, terms, 0, p.base_x),
               _coordinate_texts(ys, terms, 1, p.base_y), exps)
    if fmt == "jsonl":  # the records json.dumps makes, kick_position = e + 1
        out.writelines(f'{{"k": {k}, "word": [{w}], "lambda": ["{x}", "{y}"], '
                       f'"kick_position": {e + 1 if e else "null"}}}\n'
                       for k, w, x, y, e in rows)
        return
    writer = csv.writer(out)
    writer.writerow(["k", "word", "x", "y", "kick_position"])
    writer.writerows((k, w, x, y, e + 1 if e else "") for k, w, x, y, e in rows)


def _read_points(path: str, p: MatrixParams) -> list[SpectrumPoint]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(str(exc)) from exc
    text = text.strip()
    if not text:
        raise InputError(f"{path}: empty input")
    if text.startswith("\ufeff"):
        raise InputError(f"{path}: starts with a UTF-8 byte-order mark; save it without one")
    if text.startswith("{"):
        return _read_jsonl(text, path)
    return _read_csv(text, path)


# int() of a decimal string is quadratic in its digits; below this many it is
# still the fastest way
_SPLIT_DIGITS = 1024


def _json_int(value) -> int:
    """A JSON integer or a decimal string; floats, booleans and the rest are refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value):
        n = _decimal_int(value.lstrip("+-"))
        return -n if value[0] == "-" else n
    raise ValueError(f"expected an integer or a decimal string, got {value!r}")


def _decimal_int(digits: str) -> int:
    """int(digits) by divide and conquer: hi * 10^w + lo, w half the digits and
    10^w = 5^w << w; int() below _SPLIT_DIGITS."""
    n = len(digits)
    if n <= _SPLIT_DIGITS:
        return int(digits)
    w = n // 2
    return (_decimal_int(digits[:n - w]) * 5**w << w) + _decimal_int(digits[n - w:])


def _word(letters) -> tuple[int, ...]:
    word = tuple(_json_int(letter) for letter in letters)
    if any(letter not in (-1, 0, 1) for letter in word):
        raise ValueError(f"word letters must lie in {{-1, 0, 1}}, got {list(word)}")
    return word


def _kick_position(value) -> int | None:
    """None for a null or empty field, else a positive integer."""
    if value is None or value == "":
        return None
    position = _json_int(value)
    if position < 1:
        raise ValueError(f"kick_position must be empty or a positive integer, got {value!r}")
    return position


def _checked_point(k, word, xy, kick, first_line: dict, lineno: int) -> SpectrumPoint:
    """The record as a point; a given word must be the word of k, and k must be new."""
    if word is None:
        word = index_to_word(k)
    elif word != index_to_word(k):
        raise ValueError(f"word {list(word)} is not the word of k={k}, "
                         f"{list(index_to_word(k))}")
    if k in first_line:
        raise ValueError(f"k={k} repeats line {first_line[k]}")
    first_line[k] = lineno
    return SpectrumPoint(k=k, word=word, value=SymVec(base=xy), kick_position=kick)


def _read_jsonl(text: str, path: str) -> list[SpectrumPoint]:
    points = []
    first_line: dict[int, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            k = _json_int(rec["k"])
            word = None
            if "word" in rec:
                if not isinstance(rec["word"], list):
                    raise ValueError(f"word must be a list of letters, got {rec['word']!r}")
                word = _word(rec["word"])
            lam = rec["lambda"]
            if not isinstance(lam, list) or len(lam) != 2:
                raise ValueError(f"lambda must be a list [x, y], got {lam!r}")
            xy = tuple(_json_int(s) for s in lam)
            kick = _kick_position(rec.get("kick_position"))
            points.append(_checked_point(k, word, xy, kick, first_line, lineno))
        except RecursionError as exc:
            raise InputError(f"{path}:{lineno}: bad record (nested too deeply)") from exc
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(f"{path}:{lineno}: bad record ({exc})") from exc
    if not points:
        raise InputError(f"{path}: no records")
    return points


def _read_csv(text: str, path: str) -> list[SpectrumPoint]:
    points = []
    first_line: dict[int, int] = {}
    reader = csv.DictReader(io.StringIO(text))
    # megabit coordinates pass the csv module's default field limit; the
    # caller's limit comes back once the file is read
    limit = csv.field_size_limit(sys.maxsize)
    try:
        if reader.fieldnames is None or "x" not in reader.fieldnames:
            raise InputError(f"{path}: not a point CSV (need k,word,x,y header)")
        repeated = sorted({f for f in reader.fieldnames if reader.fieldnames.count(f) > 1})
        if repeated:
            names = ", ".join(map(repr, repeated))
            raise InputError(f"{path}:1: bad header (repeated column {names})")
        for lineno, rec in enumerate(reader, start=2):
            try:
                if None in rec:  # DictReader files the fields past the header under None
                    raise ValueError(f"{len(rec[None])} fields past the header")
                k = _json_int(rec["k"])
                letters = rec.get("word")
                word = None if letters is None else _word(letters.split())
                xy = _json_int(rec["x"]), _json_int(rec["y"])
                kick = _kick_position(rec.get("kick_position"))
                points.append(_checked_point(k, word, xy, kick, first_line, lineno))
            except (ValueError, KeyError, TypeError) as exc:
                raise InputError(f"{path}:{lineno}: bad record ({exc})") from exc
    finally:
        csv.field_size_limit(limit)
    if not points:
        raise InputError(f"{path}: no records")
    return points


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    _echo_config(args)
    prefix = _prefix_from_args(args)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            _write_points(prefix, args.format, out)
    else:
        _write_points(prefix, args.format, sys.stdout)
    return 0


def cmd_verify(args) -> int:
    _echo_config(args)
    p = _params(args)
    checks = args.checks.split(",") if args.checks else list(VERIFY_CHECKS)
    unknown = [name for name in checks if name not in VERIFY_CHECKS]
    if unknown:
        raise InputError(f"unknown check {unknown[0]!r}; choose from {', '.join(VERIFY_CHECKS)}")
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise InputError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    if args.qsum is not None and args.qsum < 1:  # a check of nothing must not pass
        raise InputError(f"--qsum must be >= 1, got {args.qsum}")
    if args.input:
        prefix = points = _read_points(args.input, p)
    else:  # the checks read a canonical prefix's columns, not its points
        prefix = _prefix_from_args(args)
        points = prefix.points
    failed = False
    if "orthogonality" in checks:
        rep = check_orthogonality(prefix, p)
        print(f"orthogonality: pairs={rep.pairs_checked} sampled={rep.sampled} "
              f"violations={len(rep.violations)}")
        for v in rep.violations[:20]:
            print(f"  violation k={v.k1},k'={v.k2} reason={v.reason} diff={v.difference}")
        failed |= not rep.passed
    if "lines" in checks:
        rep = check_distinct_lines(prefix, p)
        print(f"distinct-lines: shared_x={len(rep.shared_x)} shared_y={len(rep.shared_y)}")
        for pair in (list(rep.shared_x) + list(rep.shared_y))[:20]:
            print(f"  shared coordinate between k={pair[0]} and k={pair[1]}")
        failed |= not rep.passed
    if "projections" in checks:
        rep = check_projection_orthogonality(prefix, p)
        print(f"projections: x_violations={len(rep.x_violations)} "
              f"y_violations={len(rep.y_violations)}")
        failed |= not rep.passed
    if args.unitarity is not None:
        n = args.unitarity
        bound = level_index_bound(n)
        dev = gram_unitarity(n, central_points(points, bound), p)
        print(f"unitarity n={n}: max deviation {dev:.3e}")
        failed |= dev > args.tolerance
    if args.qsum:
        values = point_values(points)
        if args.qsum > 1 and not isinstance(values, ColumnValues):
            # a file's points: as columns with a cache, they let the q-sums
            # share one phase table (32 bytes a point per level) instead of
            # each rebuilding it; a single q-sum streams its rows
            values = ColumnValues(*value_columns(values), p, cache={})
        box = SamplingBox.for_params(p)
        for xi in box.samples(args.qsum, seed=args.seed):
            res = q_sum(xi, values, p)
            print(f"qsum xi=({xi[0]:+.4f},{xi[1]:+.4f}): value={res.value:.9f} "
                  f"err<{res.error:.2e}")
            failed |= res.value > 1 + 1e-9
    return VIOLATION if failed else 0


def cmd_dim(args) -> int:
    _echo_config(args)
    p = _params(args)
    ent = entropy_dim_closed_form(p)
    references = {
        "upper_bound": math.log(3) / math.log(p.base_y),
        "entropy_dim": ent.dim_mu,
        "entropy_dim_x": ent.dim_x,
        "support_hausdorff_dim": support_hausdorff_dim(p),
    }
    if args.closed_forms_only:
        print(json.dumps({"references": references}))
        return 0
    try:
        j_lo, j_hi = (int(s) for s in args.scale_exps.split(":"))
    except ValueError as exc:
        raise InputError(f"--scale-exps expects LO:HI, got {args.scale_exps!r}") from exc
    if j_hi - j_lo >= MAX_SCALES:
        raise InputError(f"--scale-exps {args.scale_exps} spans more than {MAX_SCALES} scales")
    if args.input:
        points = _read_points(args.input, p)
    else:  # a canonical prefix hands over its values without building its points
        points = _prefix_from_args(args)
    scales = geometric_scales(p, j_lo, j_hi)
    est = beurling_dim_estimate(points, scales, p, centers=args.centers, seed=args.seed)
    if args.stats:
        print(json.dumps({"stats": est.stats}), file=sys.stderr)
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["h", "count", "log_h", "log_count"])
        for h, c in zip(est.scales, est.counts):
            writer.writerow([h, c, math.log(h), math.log(c)])
        print(f"slope={est.slope:.5f} references={json.dumps(references)}", file=sys.stderr)
    else:
        for h, c in zip(est.scales, est.counts):
            print(json.dumps({"h": str(h), "count": c,
                              "log_h": math.log(h), "log_count": math.log(c)}))
        print(json.dumps({"slope": est.slope, "fit_residual": est.fit_residual,
                          "references": references}))
    return 0


def cmd_construct(args) -> int:
    _echo_config(args)
    p = _params(args)
    kick = _parse_vec(args.kick) if args.kick else None
    specs = family_variants(args.t, p, args.count, seed=args.seed, kick=kick)
    for i, spec in enumerate(specs):
        desc = spec.describe()
        desc["variant"] = i
        desc["t_max"] = t_max(p)
        print(json.dumps(desc))
    if args.index_range is not None:
        for i, spec in enumerate(specs):
            prefix = spec.prefix(args.index_range)
            path = args.points_prefix + f".variant{i}.jsonl"
            with open(path, "w", encoding="utf-8") as out:
                _write_points(prefix, "jsonl", out)
            print(json.dumps({"variant": i, "points_file": path}))
    return 0


def cmd_qsum(args) -> int:
    _echo_config(args)
    p = _params(args)
    for flag, count in (("--num-xi", args.num_xi), ("--n-max", args.n_max)):
        if count < 1:  # a check of nothing must not pass
            raise InputError(f"{flag} must be >= 1, got {count}")
    box = SamplingBox.for_params(p)
    if args.xi:
        xis = [_parse_vec_float(args.xi)]
    else:
        xis = box.samples(args.num_xi, seed=args.seed)
    mapping = CanonicalMapping()
    by_level = []  # [level - 1][xi index]: each level's phase rows serve every xi
    for n in range(1, args.n_max + 1):
        prefix = enumerate_spectrum(mapping, p, level=n)
        by_level.append([q_sum(xi, prefix) for xi in xis])
        del prefix  # with its phase rows, before the next level is built
    failed = False
    for i, xi in enumerate(xis):
        prev = -1.0
        for n, results in enumerate(by_level, 1):
            res = results[i]
            gap = 1.0 - res.value
            print(json.dumps({"xi": list(xi), "n": n, "q": res.value,
                              "gap": gap, "err": res.error}))
            failed |= res.value > 1 + 1e-9 or res.value < prev - 1e-9
            prev = res.value
    return VIOLATION if failed else 0


def _parse_vec_float(text: str) -> tuple[float, float]:
    try:
        x, y = (float(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"expected 'X,Y' floats, got {text!r}") from exc
    return (x, y)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectra",
        description="Construct, certify and measure spectra of Sierpinski-type "
                    "self-affine measures.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate spectrum points")
    _add_gen_flags(gen)
    gen.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    gen.add_argument("--output", type=str)
    gen.set_defaults(func=cmd_gen)

    ver = subs.add_parser("verify", help="exact checks on generated or loaded points")
    _add_gen_flags(ver)
    ver.add_argument("--input", type=str, help="points file from gen (jsonl or csv)")
    ver.add_argument("--checks", type=str,
                     help="comma list: orthogonality,lines,projections")
    ver.add_argument("--unitarity", type=int, metavar="N",
                     help="also check level-N unitarity on the |k| <= (3^N-1)/2 slice")
    ver.add_argument("--qsum", type=int, metavar="COUNT",
                     help="also evaluate q-sums at COUNT sampled frequencies")
    ver.add_argument("--tolerance", type=float, default=1e-9)
    ver.set_defaults(func=cmd_verify)

    dim = subs.add_parser("dim", help="dimension table and closed forms")
    _add_gen_flags(dim)
    dim.add_argument("--input", type=str)
    dim.add_argument("--scale-exps", type=str, default="4:10",
                     help="scale window LO:HI in powers of 3*q2")
    dim.add_argument("--centers", type=str, default="sample:64")
    dim.add_argument("--closed-forms-only", action="store_true")
    dim.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    dim.add_argument("--stats", action="store_true",
                     help="print the estimator's pair counts as one JSON line on stderr")
    dim.set_defaults(func=cmd_dim)

    con = subs.add_parser("construct", help="intermediate-dimension families")
    con.add_argument("--q1", type=int, required=True)
    con.add_argument("--q2", type=int, required=True)
    con.add_argument("--t", type=float, required=True)
    con.add_argument("--count", type=int, default=1)
    con.add_argument("--seed", type=int, default=0)
    con.add_argument("--kick", type=str)
    con.add_argument("--range", type=int, dest="index_range",
                     help="also write per-variant point files up to |k| <= range")
    con.add_argument("--points-prefix", type=str, default="lambda_t")
    con.set_defaults(func=cmd_construct)

    qs = subs.add_parser("qsum", help="quadratic sums over increasing prefixes")
    qs.add_argument("--q1", type=int, required=True)
    qs.add_argument("--q2", type=int, required=True)
    qs.add_argument("--n-max", type=int, default=4)
    qs.add_argument("--num-xi", type=int, default=5)
    qs.add_argument("--xi", type=str, help="single frequency X,Y instead of samples")
    qs.add_argument("--seed", type=int, default=0)
    qs.set_defaults(func=cmd_qsum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    # the writer and the decimal-string readers convert no long int, but
    # json.loads parses a bare JSON integer coordinate, which may run to
    # hundreds of thousands of digits, with int(); the caller's int/str
    # conversion limit comes back when the command returns
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
