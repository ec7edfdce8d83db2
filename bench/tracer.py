"""Span tracing from outside the package, for the traced benchmark run.

``install`` replaces public dvrhom functions where their callers look them
up (``dvrhom.cli.build_complex``, ``dvrhom.homology.invariant_factors``, ...)
with wrappers that record a span per call: name, start, end, parent span and
op id.  Spans are kept in memory; ``write`` saves them at the end of a run.
A span's self time is its duration minus the time its child spans cover,
so the self times of all spans add up to the duration of the root spans.

Spans are only recorded inside an op (between ``begin_op`` and ``end_op``).
``is_simplex`` is called once per candidate simplex, tens of thousands of
times per op, so it is a *leaf*: its calls and time are added up, and its
time is charged to the parent span as covered by a child, but no record is
kept per call.

Names that a later version of the package no longer has are skipped, and
their metrics read 0.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import Counter
from time import thread_time


def _count_accept(counters, args, result):
    counters["complexes.is_simplex_accepted"] += result is not None


def _count_simplices(counters, args, result):
    counters["complexes.simplices"] += len(getattr(result, "index", ()))


def _count_snf(counters, args, result):
    m = args[0]
    counters["matrices.snf_cells"] += getattr(m, "rows", 0) * getattr(m, "cols", 0)
    counters["matrices.snf_nnz"] += len(getattr(m, "entries", ()))
    counters["matrices.nonunit_factors"] += sum(1 for d in result if abs(d) > 1)


def _count_checks(counters, args, result):
    counters["fxmap.certificate_checks"] += result.checks


def _count_samples(counters, args, result):
    counters["fxmap.samples"] += result.samples


# (module, attribute path, span name, leaf, counter)
TARGETS = [
    ("dvrhom.digraph", "Digraph.from_edge_list", "digraph.from_edge_list", False, None),
    ("dvrhom.cli", "build_complex", "complexes.build_complex", False, _count_simplices),
    ("dvrhom.complexes", "is_simplex", "complexes.is_simplex", True, _count_accept),
    ("dvrhom.complexes", "SimplicialComplex.from_simplices",
     "complexes.from_simplices", False, _count_simplices),
    ("dvrhom.homology", "invariant_factors", "matrices.invariant_factors", False,
     _count_snf),
    ("dvrhom.homology", "field_rank", "matrices.field_rank", False, None),
    ("dvrhom.homology", "field_rref", "matrices.field_rref", False, None),
    ("dvrhom.matrices", "field_rref", "matrices.field_rref", False, None),
    ("dvrhom.homology", "field_nullspace", "matrices.field_nullspace", False, None),
    ("dvrhom.homology", "field_solve", "matrices.field_solve", False, None),
    ("dvrhom.homology", "boundary_matrix", "homology.boundary_matrix", False, None),
    ("dvrhom.cli", "homology_integer", "homology.homology_integer", False, None),
    ("dvrhom.cli", "homology_field", "homology.homology_field", False, None),
    ("dvrhom.cli", "relative_homology", "homology.relative_homology", False, None),
    ("dvrhom.cli", "les_exactness_check", "homology.les_exactness_check", False, None),
    ("dvrhom.cli", "abelianization", "homology.abelianization", False, None),
    ("dvrhom.cli", "pi1_presentation", "homology.pi1_presentation", False, None),
    ("dvrhom.cli", "continuity_certificate", "fxmap.continuity_certificate", False,
     _count_checks),
    ("dvrhom.cli", "sampled_continuity_check", "fxmap.sampled_continuity_check",
     False, _count_samples),
]

ROOT = "cli"


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, op id)
        self.calls = {}  # name -> number of calls
        self.self_s = {}  # name -> summed self time
        self.counters = Counter()
        self._stack = []  # open spans: [id, name, start, child time]
        self._next_id = 0
        self._op = None
        self._undo = []

    def _count(self, name, self_time):
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + self_time

    def _open(self, name, leaf):
        span_id = None
        if not leaf:
            span_id = self._next_id
            self._next_id += 1
        frame = [span_id, name, thread_time(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, leaf):
        end = thread_time()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        self._count(name, duration - child)
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if not leaf:
            self.spans.append((span_id, name, start, end, parent, self._op))

    def begin_op(self, op_id):
        self._op = op_id
        return self._open(ROOT, False)

    def end_op(self, frame):
        self._close(frame, False)
        self._op = None

    def _wrap(self, fn, name, leaf, counter):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            frame = tracer._open(name, leaf)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, leaf)
            if counter is not None:
                counter(tracer.counters, args, result)
            return result

        return traced

    def install(self):
        for module_name, path, name, leaf, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                continue
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, leaf, counter))
            else:
                wrapped = self._wrap(original, name, leaf, counter)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path):
        rows = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "op": o}
            for i, n, s, e, p, o in self.spans
        ]
        leaves = {
            name: {"calls": self.calls[name], "self_s": self.self_s[name]}
            for _, _, name, leaf, _ in TARGETS
            if leaf and name in self.calls
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "leaf_totals": leaves}, fh)


def layer_metrics(tracer, op_s, untraced_s):
    """The per-layer metrics of one traced batch.

    ``op_s`` is the summed latency of the traced ops as the harness timed
    them, ``untraced_s`` the same batch untraced.
    """
    calls = tracer.calls.get
    own = tracer.self_s.get
    counter = tracer.counters.__getitem__
    homology_self = sum(
        own(f"homology.{fn}", 0.0)
        for fn in ("homology_integer", "homology_field", "relative_homology",
                   "les_exactness_check", "abelianization")
    )
    is_simplex_calls = calls("complexes.is_simplex", 0)
    accepted = counter("complexes.is_simplex_accepted")
    unattributed = op_s - sum(tracer.self_s.values())
    return {
        "cli.self_s": (own(ROOT, 0.0), "s"),
        "cli.calls": (calls(ROOT, 0), "count"),
        "cli.in_bytes": (counter("cli.in_bytes"), "B"),
        "cli.out_bytes": (counter("cli.out_bytes"), "B"),
        "digraph.from_edge_list_s": (own("digraph.from_edge_list", 0.0), "s"),
        "complexes.build_complex_s": (own("complexes.build_complex", 0.0), "s"),
        "complexes.is_simplex_calls": (is_simplex_calls, "count"),
        "complexes.is_simplex_s": (own("complexes.is_simplex", 0.0), "s"),
        "complexes.witness_accept_ratio": (
            accepted / is_simplex_calls if is_simplex_calls else 0.0, "ratio"),
        "complexes.from_simplices_s": (own("complexes.from_simplices", 0.0), "s"),
        "complexes.simplices": (counter("complexes.simplices"), "count"),
        "matrices.invariant_factors_s": (own("matrices.invariant_factors", 0.0), "s"),
        "matrices.invariant_factors_calls": (
            calls("matrices.invariant_factors", 0), "count"),
        "matrices.snf_cells": (counter("matrices.snf_cells"), "count"),
        "matrices.snf_nnz": (counter("matrices.snf_nnz"), "count"),
        "matrices.nonunit_factors": (counter("matrices.nonunit_factors"), "count"),
        "matrices.field_rank_s": (own("matrices.field_rank", 0.0), "s"),
        "matrices.field_rref_s": (own("matrices.field_rref", 0.0), "s"),
        "matrices.field_nullspace_s": (own("matrices.field_nullspace", 0.0), "s"),
        "matrices.field_solve_s": (own("matrices.field_solve", 0.0), "s"),
        "matrices.field_solve_calls": (calls("matrices.field_solve", 0), "count"),
        "homology.self_s": (homology_self, "s"),
        "homology.boundary_matrix_s": (own("homology.boundary_matrix", 0.0), "s"),
        "homology.pi1_s": (own("homology.pi1_presentation", 0.0), "s"),
        "fxmap.certificate_s": (own("fxmap.continuity_certificate", 0.0), "s"),
        "fxmap.certificate_checks": (counter("fxmap.certificate_checks"), "count"),
        "fxmap.sample_s": (own("fxmap.sampled_continuity_check", 0.0), "s"),
        "fxmap.samples": (counter("fxmap.samples"), "count"),
        "trace.op_s": (op_s, "s"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.overhead_ratio": (op_s / untraced_s, "ratio"),
    }
