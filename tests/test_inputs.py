"""One input contract for every exported check and estimator.

Each resolves its points through ``treemap.resolve_points``: a prefix or its
column store, a list of its points or a part of ``IntermediateSpec.split``,
``SymVec``s or integer pairs, an empty list, kicked values, a generator, a
``ColumnValues`` or a file read by the CLI, with or without params.  Every
call returns or raises ValueError.  Where the three resolvers it replaced,
kept below as the oracle, gave a result, the result is the same; on a part
of ``split``, a column store, it is the result on the list of the prefix's
points that ``split`` returned before.
"""

import contextlib
import dataclasses
import os
import tempfile
from collections.abc import Sequence
from unittest import mock

from hypothesis import example, given, settings, strategies as st

import sierpspec as ss
from sierpspec import cli, dimension, verify
from sierpspec.lattice import MatrixParams, SymVec
from sierpspec.treemap import SpectrumPoint, SpectrumPrefix, point_values

P12, P44, P48 = MatrixParams(1, 2), MatrixParams(4, 4), MatrixParams(4, 8)


# The resolvers that ``resolve_points`` replaced, as they were.

def _old_points_and_params(prefix, p):  # verify._points_and_params
    if isinstance(prefix, SpectrumPrefix):
        prefix, p = prefix.points, prefix.params
    elif p is None:
        raise ValueError("params required when passing a bare point list")
    points = prefix if isinstance(prefix, Sequence) else list(prefix)
    return points, point_values(points), p


def _old_as_symvecs(points, p=None):  # dimension._as_symvecs
    if isinstance(points, SpectrumPrefix):
        points, p = points.points, points.params
    return point_values(points), p


def _old_magnitude_branches(points, p):  # the dispatch of dimension._magnitude_branches
    indexed = None
    if isinstance(points, SpectrumPrefix):
        indexed = points.points
        p = points.params
    elif points and isinstance(points[0], SpectrumPoint):
        indexed = list(points)
    if indexed is not None:
        pos = sorted((pt for pt in indexed if pt.k > 0), key=lambda pt: pt.k)
        neg = sorted((pt for pt in indexed if pt.k < 0), key=lambda pt: -pt.k)
        branches = [[_old_mag2(pt.value, p) for pt in pos], [_old_mag2(pt.value, p) for pt in neg]]
        for branch in branches:
            for prev, nxt in zip(branch, branch[1:]):
                if nxt < prev:
                    raise ValueError("branch magnitudes are not nondecreasing in |k|")
        return branches
    vecs, p = _old_as_symvecs(points, p)
    mags = sorted(_old_mag2(v, p) for v in vecs)
    return [[m for m in mags if m > 0]]


def _old_mag2(v, p):
    x, y = v.materialize(p) if not v.is_concrete else v.base
    return x * x + y * y


@contextlib.contextmanager
def _old_resolvers():
    """verify and dimension as they resolved their points, and labelled them by k."""
    def old_dimension_resolver(points, p, need_params):
        return (points, *_old_as_symvecs(points, p))

    with mock.patch.object(verify, "resolve_points", _old_points_and_params), \
            mock.patch.object(verify, "point_label", lambda points, i: points[i].k), \
            mock.patch.object(dimension, "resolve_points", old_dimension_resolver), \
            mock.patch.object(dimension, "_magnitude_branches", _old_magnitude_branches):
        yield


def _calls(p):
    """Every exported check and estimator, as name -> f(points, params); p is
    the family's params, for the arguments other than the points."""
    scales = ss.geometric_scales(p, 1, 4)
    return {
        "check_orthogonality": lambda pts, q: ss.check_orthogonality(pts, q, max_violations=5),
        "check_distinct_lines": ss.check_distinct_lines,
        "check_projection_orthogonality":
            lambda pts, q: ss.check_projection_orthogonality(pts, q, max_violations=5),
        "gram_unitarity": lambda pts, q: ss.gram_unitarity(4, pts, q),
        "q_sum": lambda pts, q: ss.q_sum((0.31, -0.27), pts, q),
        "maximality_probe": lambda pts, q: ss.maximality_probe(pts, q, box=(1, 1)),
        "beurling_dim_estimate":
            lambda pts, q: ss.beurling_dim_estimate(pts, scales, q, centers="sample:3", seed=1),
        "count_in_ball": lambda pts, q: ss.count_in_ball(pts, (0, 0), p.base_y**2, q),
        "lacunary_check": lambda pts, q: ss.lacunary_check(pts, 2, q),
    }


def _family(name):
    """(prefix, spec or None) of 81 points, built afresh."""
    if name == "canonical (1,2)":
        return ss.enumerate_spectrum(ss.CanonicalMapping(), P12, level=4), None
    if name == "literal (4,4) m_1 = 1":
        mapping = ss.KickedMapping(ss.TableOffsets({1: 1}), mode="literal")
        return ss.enumerate_spectrum(mapping, P44, level=4), None
    spec = ss.build_intermediate_spectrum(float(name.split("=")[1].split()[0]), P48)
    return spec.prefix(40), spec  # the t=0.15 kicks pass the float range


# the kinds that are parts of ``split``, and whether each is the F_t part
PARTS = {"split F part": True, "split kicked part": False}

FAMILIES = ["canonical (1,2)", "literal (4,4) m_1 = 1", "kicked t=0.15 (4,8)",
            "kicked t=0.3 (4,8)"]


def _moved(item):
    """The item one step further along x."""
    if isinstance(item, SpectrumPoint):
        return dataclasses.replace(item, value=_moved(item.value))
    if isinstance(item, SymVec):
        return SymVec((item.base[0] + 1, item.base[1]), item.terms)
    return item[0] + 1, item[1]


def _defective(items, defect, at):
    """items, with item ``at`` repeated at the end or moved, or as they are."""
    items = list(items)
    if defect == "coincident":
        return items + [items[at % len(items)]]
    if defect == "moved":
        items[at % len(items)] = _moved(items[at % len(items)])
    return items


def _inputs(pre, spec, defect, at, folder):
    """Per input kind, a function that makes the input afresh (a generator
    is read once); list-like kinds carry the defect.  The kinds read from a
    column store, which knows its params, are listed apart."""
    p = pre.params
    path = os.path.join(folder, "points.jsonl")
    with open(path, "w", encoding="utf-8") as out:
        cli._write_points(pre, "jsonl", out)
    pts = list(pre.points)
    kinds = {
        "prefix": lambda: pre,
        "store": lambda: pre.points,
        "column values": lambda: point_values(pre.points),
        "list of the prefix's points": lambda: _defective(pts, defect, at),
        "SymVecs": lambda: _defective([pt.value for pt in pts], defect, at),
        "integer pairs": lambda: _defective([pt.concrete(p) for pt in pts], defect, at),
        "empty list": lambda: [],
        "generator": lambda: iter(_defective(pts, defect, at)),
        "file": lambda: _defective(cli._read_points(path, p), defect, at),
    }
    stored = {"prefix", "store", "column values"}
    if defect == "none":
        stored.add("list of the prefix's points")
    if spec is not None:  # column stores of the prefix's rows
        f_part, kicked = spec.split(pre)
        kinds["split F part"] = lambda: f_part
        kinds["split kicked part"] = lambda: kicked
        stored |= set(PARTS)
    return kinds, stored


def _outcome(call, points, q):
    """call(points, q), or ValueError if it raised one."""
    try:
        return call(points, q)
    except ValueError:
        return ValueError


_REJECTED = object()


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(FAMILIES), defect=st.sampled_from(["none", "coincident", "moved"]),
       at=st.integers(0, 80), with_p=st.booleans())
# the kicked parts and lists with no p, generators, a kicked file's q-sum
@example(family="kicked t=0.15 (4,8)", defect="none", at=0, with_p=False)
@example(family="kicked t=0.15 (4,8)", defect="none", at=0, with_p=True)
# failing SymVec and pair lists: orthogonality, projections, shared lines
@example(family="literal (4,4) m_1 = 1", defect="none", at=0, with_p=True)
@example(family="canonical (1,2)", defect="coincident", at=7, with_p=True)
def test_every_check_takes_every_input_kind(family, defect, at, with_p):
    pre, spec = _family(family)
    q = pre.params if with_p else None
    with tempfile.TemporaryDirectory() as folder:
        inputs, stored = _inputs(pre, spec, defect, at, folder)
        for kind, make in inputs.items():
            for name, call in _calls(pre.params).items():
                got = _outcome(call, make(), q)
                if q is None and kind in stored:  # the store gives its params
                    assert got == _outcome(call, make(), pre.params), (kind, name)
                with _old_resolvers():
                    try:
                        want = call(make(), q)
                    except Exception:  # rejected: by a ValueError, or a crash
                        want = _REJECTED
                if want is not _REJECTED:
                    assert got == want, (kind, name)
                    assert getattr(got, "stats", None) == getattr(want, "stats", None)
                if kind in PARTS:  # the part as split gave it before: a list
                    inside = PARTS[kind]
                    listed = [pt for pt in pre.points if spec.gamma_t_contains(pt.k) == inside]
                    want = _outcome(call, listed, pre.params)
                    assert got == want, (kind, name)
                    assert getattr(got, "stats", None) == getattr(want, "stats", None)


def test_reports_name_points_by_k_or_by_position():
    """A report names a point by its index k where it has one, and by its
    position in the list where it has none: the SymVec and pair lists give
    the point list's report with each k read at that position."""
    pre = ss.enumerate_spectrum(ss.KickedMapping(ss.TableOffsets({1: 1}), mode="literal"),
                                P44, level=3)
    pts = list(pre.points)
    pts.append(pts[4])  # a coincident point: shared lines

    def k_of(pairs):
        pairs = list(pairs)
        assert all(0 <= i < len(pts) for pair in pairs for i in pair)
        return tuple((pts[i].k, pts[j].k) for i, j in pairs)

    for items in ([pt.value for pt in pts], [pt.concrete(P44) for pt in pts]):
        got, want = ss.check_orthogonality(items, P44), ss.check_orthogonality(pts, P44)
        assert got.violations and got.pairs_checked == want.pairs_checked
        assert k_of((v.k1, v.k2) for v in got.violations) == tuple(
            (v.k1, v.k2) for v in want.violations)
        assert [(v.difference, v.reason) for v in got.violations] == [
            (v.difference, v.reason) for v in want.violations]
        lines, want = ss.check_distinct_lines(items, P44), ss.check_distinct_lines(pts, P44)
        assert lines.shared_x and lines.shared_y
        assert (k_of(lines.shared_x), k_of(lines.shared_y)) == (want.shared_x, want.shared_y)
        proj = ss.check_projection_orthogonality(items, P44)
        want = ss.check_projection_orthogonality(pts, P44)
        assert proj.x_violations or proj.y_violations
        assert (k_of(proj.x_violations), k_of(proj.y_violations)) == (
            want.x_violations, want.y_violations)
        got, want = ss.maximality_probe(items, P44, box=(2, 2)), ss.maximality_probe(
            pts, P44, box=(2, 2))
        assert any(v.conflict_with is not None for v in got)
        named = [None if v.conflict_with is None else pts[v.conflict_with].k for v in got]
        assert [(v.candidate, v.status) for v in got] == [(v.candidate, v.status) for v in want]
        assert named == [v.conflict_with for v in want]
