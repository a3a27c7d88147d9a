"""Spans around the layers of ``aacohom``, installed from outside the package.

``Tracer.install`` replaces each traced function at every place it is
looked up: the module attribute (which also serves callers inside the
module and ``module.function`` lookups), every consuming module that
imported the name, and tuples of functions such as
``acceptance.CRITERIA``.  Each call then records a span
``(name, start, end, parent, job)`` in memory, and adds to the span's
counters when no span of the same name is already open, so a layer that
calls itself (``lefschetz_matrix`` calling ``_operator_columns``) is
counted once.  ``check`` verifies that no reference to an unwrapped
function survived the installation and that the spans nest inside their
job, so that self times add up to each job's duration.
"""

import gc
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

JOB = "job"


def _once(args, result):
    return 1


def _rows(args, result):
    return len(args[0])


def _cells(args, result):
    matrix = args[0]
    return len(matrix) * len(matrix[0]) if matrix else 0


def _basis_elems(args, result):
    return len(result)


# (module, function, span name, {counter: f(args, result)})
TARGETS = (
    ("cli", "emit", "cli.emit",
     {"cli.emit_bytes": lambda args, out: len(out.encode())}),
    ("ce_complex", "cohomology_basis", "ce_complex.basis",
     {"ce_complex.basis_elems": _basis_elems}),
    ("ce_complex", "lefschetz_target_basis", "ce_complex.basis",
     {"ce_complex.basis_elems": _basis_elems}),
    ("ce_complex", "differential", "ce_complex.differential",
     {"ce_complex.differential_calls": _once}),
    ("ce_complex", "betti_bruteforce", "ce_complex.betti_brute", {}),
    ("exterior_algebra", "wedge", "exterior_algebra.wedge",
     {"exterior_algebra.wedge_calls": _once,
      "exterior_algebra.wedge_terms": lambda args, form: len(form.terms)}),
    ("lefschetz", "lefschetz_matrix", "lefschetz.matrix",
     {"lefschetz.matrix_calls": _once,
      "lefschetz.matrix_dim": lambda args, mat: mat.size}),
    # the user-form route of hard_lefschetz_report builds its columns here
    ("lefschetz", "_operator_columns", "lefschetz.matrix",
     {"lefschetz.matrix_calls": _once,
      "lefschetz.matrix_dim": lambda args, out: len(out[2])}),
    ("lefschetz", "project_to_cohomology", "lefschetz.project", {}),
    ("lefschetz", "check_structure", "lefschetz.structure", {}),
    ("exact_linalg", "det_sparse", "exact_linalg.det",
     {"exact_linalg.det_rows": _rows}),
    ("exact_linalg", "det_bareiss", "exact_linalg.det",
     {"exact_linalg.det_rows": _rows}),
    ("exact_linalg", "rank", "exact_linalg.rank",
     {"exact_linalg.rank_rows": _rows}),
    ("exact_linalg", "rref", "exact_linalg.rref",
     {"exact_linalg.rref_cells": _cells}),
    ("exact_linalg", "matmul_int", "exact_linalg.matmul", {}),
    ("kneser", "adjacency", "kneser.adjacency",
     {"kneser.adjacency_cells": lambda args, rows: len(rows) ** 2}),
    ("kneser", "verify_invertible", "kneser.certificate", {}),
    ("symplectic_hodge", "star", "symplectic_hodge.star",
     {"symplectic_hodge.star_calls": _once}),
    ("symplectic_hodge", "dc", "symplectic_hodge.dc", {}),
    ("symplectic_hodge", "ddc_lemma_check", "symplectic_hodge.ddc_lemma", {}),
    ("symplectic_hodge", "harmonic_representative",
     "symplectic_hodge.harmonic", {}),
    ("lattice", "pell_min_solution", "lattice.pell", {}),
    ("lattice", "hypothesis1_certificate", "lattice.certificate",
     {"lattice.sign_combos": lambda args, cert: 3 ** len(cert.m_list) - 1}),
    ("lattice", "build_lattice", "lattice.build", {}),
    ("lattice", "alt_remark_params", "lattice.alt", {}),
)


def _criteria_targets():
    from aacohom import acceptance

    return [
        (fn, f"acceptance.criterion_{i:02d}", {})
        for i, fn in enumerate(acceptance.CRITERIA, 1)
    ]


def span_names() -> list:
    names = [name for _, _, name, _ in TARGETS]
    names += [name for _, name, _ in _criteria_targets()]
    return list(dict.fromkeys(names))


def counter_names() -> list:
    return list(dict.fromkeys(c for *_, counters in TARGETS for c in counters))


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, job)
        self.counts = defaultdict(int)
        self.job_id = None
        self._stack = []
        self._open = defaultdict(int)  # span name -> open spans of that name
        self._originals = {}  # id(original) -> original
        self._wrappers = {}  # id(original) -> wrapper

    def _enter(self, name):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self._open[name] += 1
        return index, parent

    def _exit(self, name, index, parent, start, end):
        self._stack.pop()
        self._open[name] -= 1
        self.spans[index] = (name, start, end, parent, self.job_id)

    def _wrap(self, fn, name, counters):
        clock = time.perf_counter
        counts = self.counts
        tracer = self

        def traced(*args, **kwargs):
            outermost = not tracer._open[name]
            index, parent = tracer._enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, index, parent, start, clock())
            if outermost:
                for counter, count in counters.items():
                    counts[counter] += count(args, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self):
        """Wrap every target wherever a module of the package binds it."""
        import aacohom.cli  # noqa: F401  (loads every module of the package)

        targets = [
            (getattr(sys.modules[f"aacohom.{module}"], attr), name, counters)
            for module, attr, name, counters in TARGETS
        ] + _criteria_targets()
        for fn, name, counters in targets:
            self._originals[id(fn)] = fn
            self._wrappers[id(fn)] = self._wrap(fn, name, counters)
        # keyed by id: module attributes include unhashable values such as lists
        swap = self._wrappers
        for module in self._package_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in swap:
                    setattr(module, attr, swap[id(value)])
                elif isinstance(value, tuple) and any(
                    id(v) in swap for v in value
                ):
                    setattr(module, attr, tuple(swap.get(id(v), v) for v in value))

    @staticmethod
    def _package_modules():
        return [
            module
            for key, module in sorted(sys.modules.items())
            if key == "aacohom" or key.startswith("aacohom.")
        ]

    @contextmanager
    def job(self, job_id):
        """Root span of one job; every layer span must nest inside one."""
        self.job_id = job_id
        index, parent = self._enter(JOB)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(JOB, index, parent, start, time.perf_counter())
            self.job_id = None

    def missed_sites(self) -> list:
        """Objects other than the tracer's own that still hold an original."""
        ours = {id(self._originals)}
        for wrapper in self._wrappers.values():
            ours.update(id(cell) for cell in wrapper.__closure__)
        return [
            f"{fn.__module__}.{fn.__qualname__} via {type(ref).__name__}"
            for fn in self._originals.values()
            for ref in gc.get_referrers(fn)
            if id(ref) not in ours and not isinstance(ref, types.FrameType)
        ]

    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (end - start) - child[i]
            for i, (name, start, end, _, _) in enumerate(self.spans)
        ]

    def check(self, self_times) -> list:
        """Problems found in the recorded spans (empty when consistent)."""
        problems = [f"unwrapped reference: {m}" for m in self.missed_sites()]
        job_self = defaultdict(float)
        job_span = {}
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            job_self[job] += self_times[i]
            if self_times[i] < -1e-9:  # children overlap or a parent is wrong
                problems.append(f"{name} has negative self time")
            if parent < 0:
                if name != JOB:
                    problems.append(f"{name} ran outside any job")
                else:
                    job_span[job] = end - start
                continue
            p_name, p_start, p_end, _, p_job = self.spans[parent]
            if p_job != job or start < p_start or end > p_end:
                problems.append(f"{name} is not nested inside its parent {p_name}")
        for job, total in job_span.items():
            if abs(job_self[job] - total) > 1e-6 * max(total, 1.0):
                problems.append(
                    f"job {job}: self times sum to {job_self[job]:.9f} s, "
                    f"span lasts {total:.9f} s"
                )
        return problems

    def layer_totals(self, self_times) -> dict:
        """Self seconds per span name, plus counters, summed over the round."""
        totals = {f"{name}_s": 0.0 for name in span_names()}
        totals.update({name: 0 for name in counter_names()})
        for (name, *_), seconds in zip(self.spans, self_times):
            if name != JOB:
                totals[f"{name}_s"] += seconds
        totals.update(self.counts)
        return totals

    def job_breakdown(self, self_times) -> dict:
        """Per job: self seconds per span name, the root's own share included."""
        per_job = defaultdict(lambda: defaultdict(float))
        for (name, _, _, _, job), seconds in zip(self.spans, self_times):
            per_job[job][name] += seconds
        return {job: dict(names) for job, names in per_job.items()}
