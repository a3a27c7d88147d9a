"""Benchmark for aacohom: the time to a verified verdict from the CLI.

    python3 benchmarks/run.py --workload hl-ones --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; nothing needs installing.  The
harness draws the workload's inputs from ``--seed``, then:

1. imports the package once, untimed, so that its bytecode caches exist;
2. runs rounds until ``--seconds`` would be exceeded.  A round is a fresh
   interpreter that times ``import aacohom.cli`` (``setup_s``), then runs
   every job of the workload once and checks it, because CLI users pay the
   import and the package's cold caches on every call.  With ``--trace 1``
   untraced and traced rounds alternate; the traced ones give the
   per-layer self times and counters.

Times are reported in seconds at reference speed: each measured time is
multiplied by the CPU speed that ``jobrunner.py`` sampled across it with a
fixed reference loop.  The CPUs of the machine the baseline was taken on
change speed by up to 2x within seconds and between minutes; the scaling
cancels most of that, and the raw times are kept in the result file and
the summary.

It prints a readable summary, writes every input and raw measurement to
``benchmarks/results/``, and ends with one JSON line holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
named in ``BENCHMARK.json``, each the median over the run's rounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jobrunner import REFERENCE_NOMINAL_S
from workloads import WORKLOADS, job_label, jobs_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

RUN_BUDGET_S = 170.0  # a run must end within 180 s, whatever --seconds says


def _child_env() -> dict:
    # LEFSCHETZ_THREADS > 1 sends criterion 4 down the thread-pool path
    env = {k: v for k, v in os.environ.items() if k != "LEFSCHETZ_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _python(args, stdin, deadline) -> str:
    """Run a fresh interpreter to completion; return its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("the run's time budget is spent")
    proc = subprocess.run(
        [sys.executable, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=_child_env(),
        cwd=ROOT,
        timeout=remaining,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return proc.stdout.strip().splitlines()[-1]


def warm_up(deadline):
    """Import the package once, so that its bytecode caches are written."""
    _python(["-c", "import aacohom.cli; print(0)"], "", deadline)


def measure_rounds(jobs, seconds, trace, deadline, stem) -> list:
    rounds = []
    started = time.monotonic()
    longest = 0.0
    while True:
        traced = trace and len(rounds) % 2 == 1
        spans_path = None
        if traced:
            spans_path = str(RESULTS / f"{stem}-round{len(rounds)}-spans.jsonl")
        request = {"jobs": jobs, "trace": traced, "spans_path": spans_path}
        t = time.monotonic()
        result = json.loads(
            _python([str(BENCH / "jobrunner.py")], json.dumps(request), deadline)
        )
        longest = max(longest, time.monotonic() - t)
        result["traced"] = traced
        rounds.append(result)
        elapsed = time.monotonic() - started
        enough = len(rounds) >= (2 if trace else 1)
        if enough and (
            elapsed + longest > seconds
            or time.monotonic() + longest > deadline
        ):
            return rounds


def _stats(values) -> dict:
    out = {"median": statistics.median(values), "samples": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def _largest_layers(traced_round, jobs) -> list:
    """Per job, the layer with the largest self time and its share."""
    out = []
    for job_id, by_name in sorted(traced_round["job_self_s"].items()):
        total = sum(by_name.values())
        layers = {k: v for k, v in by_name.items() if k != "job"}
        name = max(layers, key=layers.get) if layers else "job"
        out.append({
            "job": job_label(jobs[int(job_id)]),
            "layer": name,
            "self_s": by_name[name],
            "share": by_name[name] / total if total else 0.0,
        })
    return out


def _scaled(round_) -> dict:
    """The round's times in seconds at reference speed."""
    speed = round_["speed"]
    return {
        "setup_s": round_["import_s"] * speed["import"],
        "wall_s": round_["wall_s"] * speed["wall"],
        "cpu_s": round_["cpu_s"] * speed["cpu"],
    }


def summarize(spec, args, jobs, rounds) -> dict:
    for r in rounds:
        r["scaled"] = _scaled(r)
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    attempted = sum(len(r["jobs"]) for r in rounds)
    failures = [
        {"round": i, "job": j, "failure": job["failure"]}
        for i, r in enumerate(rounds)
        for j, job in enumerate(r["jobs"])
        if not job["ok"]
    ]
    span_problems = [p for r in traced for p in r["span_problems"]]
    # every round's interpreter pays the same import; tracing starts later
    end_to_end = {
        "setup_s": _stats([r["scaled"]["setup_s"] for r in rounds]),
        "wall_s": _stats([r["scaled"]["wall_s"] for r in plain]),
        "cpu_s": _stats([r["scaled"]["cpu_s"] for r in plain]),
        "peak_rss_mb": _stats([r["peak_rss_mb"] for r in plain]),
    }
    unscaled = {
        "setup_s": _stats([r["import_s"] for r in rounds]),
        "wall_s": _stats([r["wall_s"] for r in plain]),
        "cpu_s": _stats([r["cpu_s"] for r in plain]),
        "reference_s": _stats(
            [t for r in rounds for t in r["reference_s"]["wall"]]),
    }
    per_layer = {}
    if traced:
        for name in traced[0]["layers"]:
            per_layer[name] = _stats([r["layers"][name] for r in traced])
        per_layer["trace.overhead_s"] = _stats([
            statistics.median(r["scaled"]["wall_s"] for r in traced)
            - end_to_end["wall_s"]["median"]
        ])
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else end_to_end
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        "correct": not failures and not span_problems,
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / attempted,
        "failures": failures,
        "span_problems": span_problems,
        "end_to_end": end_to_end,
        "unscaled": unscaled,
        "per_layer": per_layer,
        "largest_self_time": _largest_layers(traced[-1], jobs) if traced else [],
        "metrics": {
            m["name"]: {"value": values[m["name"]]["median"], "unit": m["unit"]}
            for m in metrics
        },
    }


def _print_summary(spec, args, env, jobs, summary):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  nproc {env['nproc']}  "
          f"mpmath backend {env['mpmath_backend']}  commit {env['commit']}")
    for job in jobs:
        print(f"  job: {job_label(job)}")
    sections = [("end to end (untraced rounds)", "end_to_end")]
    if args.trace:
        sections.append(("per layer (traced rounds)", "per_layer"))
    for title, key in sections:
        print(title)
        for metric in spec[key]:
            s = summary[key][metric["name"]]
            quartiles = (f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                         if "q1" in s else "")
            print(f"  {metric['name']:34s} {s['median']:<14.6g} "
                  f"{metric['unit']:6s} n={s['samples']}{quartiles}")
    print("unscaled (as measured; at reference speed the loop takes "
          f"{REFERENCE_NOMINAL_S} s)")
    for name, s in summary["unscaled"].items():
        print(f"  {name:34s} {s['median']:<14.6g} {'s':6s} n={s['samples']}")
    print(f"  {'failed_ratio':34s} {summary['failed_ratio']:<14.6g} "
          f"{'ratio':6s} ({summary['failed']} of {summary['attempted']} jobs)")
    for item in summary["largest_self_time"]:
        print(f"  largest self time in {item['job']}: {item['layer']} "
              f"{item['self_s']:.4f} s ({100 * item['share']:.1f} %)")
    for failure in summary["failures"]:
        print(f"  FAILED round {failure['round']} job {failure['job']}: "
              f"{failure['failure']}")
    for problem in summary["span_problems"]:
        print(f"  SPAN PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (SRC / "aacohom" / "cli.py").is_file():
        print(f"no aacohom source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    jobs = jobs_for(args.workload, args.seed)
    warm_up(deadline)
    rounds = measure_rounds(jobs, args.seconds, args.trace, deadline, stem)
    env = {
        "python": rounds[0]["python"],
        "nproc": os.cpu_count(),
        "mpmath_backend": rounds[0]["mpmath_backend"],
        "commit": _git_commit(),
        "LEFSCHETZ_THREADS": "unset",
    }
    summary = summarize(spec, args, jobs, rounds)
    record = {
        "args": vars(args),
        "environment": env,
        "jobs": jobs,
        "rounds": rounds,
        **summary,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    _print_summary(spec, args, env, jobs, summary)
    print(json.dumps({
        key: summary[key] for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
