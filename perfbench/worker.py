"""One benchmark worker process: set up a workload, then run its job list.

Started by `run.py`, never by hand.  The worker prints `READY` on stdout as
soon as its set-up is done (the parent times set-up up to that line) and
one JSON object as its last line.

Modes:
  setup    set up and exit.
  measure  run the job list for about `--seconds` (see pass_count), untraced.
  trace    set up traced, run one untraced reference pass, then one traced
           pass; report per-layer metrics and write the spans.
  counts   set up traced and run one traced pass; report the counts only.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_program():
    """Import confalg from this checkout's `src`, and nothing else."""
    if not (SRC / "confalg" / "__init__.py").is_file():
        sys.exit(f"worker: no confalg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import confalg
    if Path(confalg.__file__).resolve().parent != SRC / "confalg":
        sys.exit(f"worker: imported confalg from {confalg.__file__}, not from {SRC}")


# Length of one pass over each job list at the seed commit, in reference
# seconds (2-core Xeon VM, Python 3.11; see speed.py).  A run makes
# round(seconds / this) passes, but at least MIN_PASSES: enough samples that
# the median and the tail each fall among several samples of the same jobs
# (tower: 68 job times, tensor_eqs 44, systems 60).  The count depends on
# nothing measured, so the number of samples, and with it the tail
# percentile, is the same on every commit.
NOMINAL_PASS_S = {"tower": 8.4, "tensor_eqs": 15.6, "systems": 8.1, "cli": 4.9}
MIN_PASSES = {"tower": 4, "tensor_eqs": 2, "systems": 4, "cli": 2}


def build_jobs(workload: str, workdir: str, in_process: bool):
    import workloads
    if workload == "cli":
        return workloads.setup_cli(workdir, str(SRC), str(ROOT), in_process)
    return workloads.SETUPS[workload]()


def pass_count(workload: str, seconds: int) -> int:
    return max(MIN_PASSES[workload], round(seconds / NOMINAL_PASS_S[workload]))


def run_pass(groups, rng, tracer=None, speed=None, cpu_clock=thread_time):
    """Run every job once in a seeded order; observe the outputs afterwards.

    Returns ([(key, seconds, label, residuals)], wall time of the pass).
    Without a speed probe a job's time is its wall time; with one, it is its
    CPU time on `cpu_clock`, scaled to reference speed (see speed.py).
    """
    order = list(groups)
    rng.shuffle(order)
    jobs = [job for group in order for job in group]
    outputs = []
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.begin_job(job.key)
        # Each job starts from a collected heap, so the garbage collector's
        # pauses fall in the same jobs whatever the seeded order.
        gc.collect()
        if speed is not None:
            speed.burst()
        t0, c0 = perf_counter(), cpu_clock()
        try:
            out, error = job.run(), None
        except Exception as exc:  # a raising job is a failed verdict, not a crash
            out, error = None, f"raised {type(exc).__name__}"
        c1, t1 = cpu_clock(), perf_counter()
        if speed is not None:
            speed.burst()
        outputs.append((t0, t1, c1 - c0, out, error))
    end = perf_counter()
    if tracer is not None:
        tracer.uninstall()

    records = []
    for job, (t0, t1, cpu, out, error) in zip(jobs, outputs):
        label, residuals = (error, 0) if error else job.observe(out)
        seconds = speed.scaled(t0, t1, cpu) if speed is not None else t1 - t0
        records.append((job.key, seconds, label, residuals))
    return records, end - start


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "counts"), required=True)
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="gzip JSON-lines file for the spans (trace mode)")
    args = ap.parse_args()

    import_program()
    from speed import SpeedProbe, children_cpu, one_cpu
    tracer = None
    if args.mode in ("trace", "counts"):
        import workloads
        from tracer import Tracer
        tracer = Tracer(callers=[workloads])
        tracer.install()
        tracer.begin_job("setup")
    groups = build_jobs(args.workload, args.workdir, in_process=tracer is not None)
    rng = random.Random(args.seed)
    if tracer is not None:
        tracer.uninstall()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    result: dict = {}
    if args.mode == "measure":
        count = pass_count(args.workload, args.seconds)
        # A cli job is a child process: a timer here would only interrupt
        # it, so its speed comes from the bursts around it, on its CPU.
        children = args.workload == "cli"
        clock = children_cpu if children else thread_time
        with SpeedProbe(timer=not children) as speed, one_cpu() if children else nullcontext():
            passes = [run_pass(groups, rng, speed=speed, cpu_clock=clock) for _ in range(count)]
        result["passes"] = count
        result["pass_wall_s"] = [wall for _, wall in passes]
        result["probe_s"] = statistics.fmean(speed.durations) if speed.durations else None
        result["jobs"] = [rec for records, _ in passes for rec in records]
        result["peak_rss_mb"] = peak_rss_mb(args.workload)
    else:
        from tracer import layer_metrics
        if args.mode == "trace":
            records, _ = run_pass(groups, rng)
            result["reference_s"] = sum(r[1] for r in records)
            if args.workload == "cli":
                result["main_s"] = statistics.median(r[1] for r in records)
        records, _ = run_pass(groups, rng, tracer)
        result["traced_s"] = sum(r[1] for r in records)
        result["jobs"] = records
        result["layers"] = layer_metrics(tracer)
        result["layers"]["report.residuals"] = (sum(r[3] for r in records), "count", len(records))
        if args.mode == "trace" and args.spans:
            tracer.write_spans(args.spans)
            result["spans"] = len(tracer.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    raise SystemExit(main())
