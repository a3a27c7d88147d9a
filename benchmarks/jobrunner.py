"""Run one round of a workload's jobs in this (fresh) interpreter.

Reads ``{"jobs": [...], "trace": bool, "spans_path": str|null}`` as JSON
on stdin and prints one JSON line with the round's measurements.  Jobs run
one after another on one thread (a closed loop).  A CLI job is the whole
``aacohom.cli.main(argv)`` call with stdout captured in memory, rendering
included.  A job's time runs from its start to its checked result.  Checks
use the harness's own arithmetic; a failed check is recorded and the round
goes on.

The first thing the interpreter does is time ``import aacohom.cli``, so
that only what Python loads at start-up is already imported.

The CPU's speed is sampled with a fixed pure-Python loop (``reference``):
every ``IMPORT_SAMPLE_EVERY_S`` seconds during the import and every
``SAMPLE_EVERY_S`` seconds during the jobs, from a SIGALRM handler whose
own time is taken out of the measured times.  Each measurement is
reported with the mean speed sampled across it, ``REFERENCE_NOMINAL_S``
over the loop's time; ``run.py`` multiplies the two.
"""

import signal
import sys
import time

REFERENCE_LOOPS = 24_000
REFERENCE_NOMINAL_S = 0.002  # about the loop's time on the baseline machine
IMPORT_SAMPLE_EVERY_S = 0.01  # the import takes about 0.1 s
SAMPLE_EVERY_S = 0.1


def reference():
    """(wall, cpu) seconds of a fixed pure-Python loop."""
    wall, cpu = time.perf_counter(), time.process_time()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - wall, time.process_time() - cpu


def _speed(times) -> float:
    return sum(REFERENCE_NOMINAL_S / t for t in times) / len(times)


class Sampler:
    """Runs ``reference`` on a wall-clock timer while it is started.

    ``spent_wall`` and ``spent_cpu`` add up the handler's own time, so that
    callers can take it out of the intervals they measure.
    """

    def __init__(self):
        self.wall = []
        self.cpu = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._ticking = False

    def _tick(self, signum, frame):
        if self._ticking:  # a late signal ran inside the last tick
            return
        self._ticking = True
        wall, cpu = time.perf_counter(), time.process_time()
        loop_wall, loop_cpu = reference()
        self.wall.append(loop_wall)
        self.cpu.append(loop_cpu)
        self.spent_wall += time.perf_counter() - wall
        self.spent_cpu += time.process_time() - cpu
        self._ticking = False

    def start(self, every):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, every, every)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.wall:  # stopped before the first tick
            self._tick(signal.SIGALRM, None)


def _run_cli(argv):
    import contextlib
    import io

    import aacohom.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = aacohom.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return code, out.getvalue()


def _check_cli(job, outcome):
    import hashlib
    import json

    code, stdout = outcome
    if code != 0:
        return f"exit code {code}"
    if "sha256" in job:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if digest != job["sha256"]:
            return f"stdout sha256 {digest} differs from the pinned output"
    if not job.get("status"):
        return None
    report = json.loads(stdout)
    if report.get("status") != "ok":
        return f"status {report.get('status')!r}"
    if "pell" in job:
        pairs = report["results"]["pell_solutions"]
        if [p["d"] for p in pairs] != job["pell"]:
            return "Pell moduli differ from the drawn ones"
        for p in pairs:
            d, m, k = p["d"], int(p["m"]), int(p["k"])
            if m * m - d * k * k != 4:
                return f"m^2 - d k^2 != 4 for d={d}, m={m}, k={k}"
    if job.get("hodge"):
        checks = report["results"]["checks"]
        if not checks or not all(c["passed"] is True for c in checks):
            return "a hodge check did not pass"
    return None


def _check_hl(job, report):
    from fractions import Fraction

    dets = [Fraction(op.determinant) for op in report.operators]
    if len(dets) != job["n"] + 1:
        return f"{len(dets)} operators for n={job['n']}"
    if any(d.numerator == 0 for d in dets):
        return "a hard-Lefschetz determinant is zero"
    return None


def _prepare(job):
    """(call, check) for a job; inputs are built here, outside the timing."""
    if job["kind"] == "cli":
        argv = list(job["argv"])
        return (lambda: _run_cli(argv)), (lambda out: _check_cli(job, out))
    from aacohom.ce_complex import AlgebraSpec
    from aacohom.lefschetz import hard_lefschetz_report
    from workloads import build_user_form

    spec = AlgebraSpec.ones(job["n"])
    form = build_user_form(spec, job["form"])
    return (
        (lambda: hard_lefschetz_report(spec, form)),
        (lambda report: _check_hl(job, report)),
    )


def main() -> int:
    during_import = Sampler()
    during_import.start(IMPORT_SAMPLE_EVERY_S)
    started = time.perf_counter()
    import aacohom.cli  # noqa: F401  (the set-up every CLI call pays)
    import_s = time.perf_counter() - started - during_import.spent_wall
    during_import.stop()

    import contextlib
    import json
    import resource
    import traceback

    import mpmath

    request = json.load(sys.stdin)
    prepared = [_prepare(job) for job in request["jobs"]]
    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = []
    sampler = Sampler()
    sampler.start(SAMPLE_EVERY_S)
    for job_id, (call, check) in enumerate(prepared):
        span = tracer.job(job_id) if tracer else contextlib.nullcontext()
        spent_wall, spent_cpu = sampler.spent_wall, sampler.spent_cpu
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            with span:
                outcome = call()
            failure = check(outcome)
        except Exception:  # a crash fails the job; the round goes on
            failure = traceback.format_exc(limit=3)
        wall = time.perf_counter() - wall - (sampler.spent_wall - spent_wall)
        cpu = time.process_time() - cpu - (sampler.spent_cpu - spent_cpu)
        jobs.append({"wall_s": wall, "cpu_s": cpu, "ok": failure is None,
                     "failure": failure})
        outcome = None  # free the captured output before the next job
    sampler.stop()
    result = {
        "wall_s": sum(job["wall_s"] for job in jobs),
        "cpu_s": sum(job["cpu_s"] for job in jobs),
        "import_s": import_s,
        "speed": {
            "import": _speed(during_import.wall),
            "wall": _speed(sampler.wall),
            "cpu": _speed(sampler.cpu),
        },
        "reference_s": {"import": during_import.wall, "wall": sampler.wall,
                        "cpu": sampler.cpu},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": jobs,
        "python": sys.version.split()[0],
        "mpmath_backend": mpmath.libmp.BACKEND,
    }
    if tracer:
        self_times = tracer.self_times()
        result["layers"] = tracer.layer_totals(self_times)
        result["span_problems"] = tracer.check(self_times)
        result["span_count"] = len(tracer.spans)
        result["job_self_s"] = tracer.job_breakdown(self_times)
        if request.get("spans_path"):
            with open(request["spans_path"], "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
