"""Layered known-answer benchmark for confalg.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --compare PARENT.log CHANGE.log

A run prints a few `# ` lines (run metadata, sample counts, per-metric
detail) and, as its last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer metrics.  Compare mode reads two logs of
such runs (stdout appended run after run) and prints, per workload and
end-to-end metric, both sides' medians and quartiles, the share of pairs
the change won, and a verdict.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe, children_cpu, one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("tower", "tensor_eqs", "systems", "cli")

SETUP_SAMPLES = 7
STARTUP_SAMPLES = 5
TAIL_ABOVE = 10
DEADLINE_S = 170.0

# Spawned workers get a fixed hash seed so that hash randomisation does not
# add run-to-run noise; the counts are checked to be independent of it.
HASH_SEED = "0"
OTHER_HASH_SEED = "1"


class BenchError(Exception):
    pass


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- workers ---------------------------------------------------------------------

class Clock:
    """Deadline shared by every process one run starts."""

    def __init__(self, budget: float):
        self.end = perf_counter() + budget

    def left(self) -> float:
        left = self.end - perf_counter()
        if left <= 0:
            raise BenchError("run deadline passed")
        return left


def spawn_worker(clock: Clock, workload: str, seed: int, mode: str, workdir: str,
                 seconds: int = 1, hash_seed: str = HASH_SEED, spans: str | None = None,
                 speed: SpeedProbe | None = None):
    """Start a worker; return (seconds until READY, its final JSON or None).

    With a speed probe, the time is the worker's CPU time at reference
    speed, for a worker that exits at READY.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds), "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env.pop("PYTHONPATH", None)
    if speed is not None:
        speed.burst()
    t0, c0 = perf_counter(), children_cpu()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT))
    try:
        ready = proc.stdout.readline()
        t1 = perf_counter()
        rest, _ = proc.communicate(timeout=clock.left())
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if speed is not None:
        speed.burst()
    # a set-up worker exits right after READY, so its CPU time is its set-up
    ready_s = speed.scaled(t0, t1, children_cpu() - c0) if speed is not None else t1 - t0
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker {mode} for {workload} failed with exit {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def timed_command(clock: Clock, code: str) -> float:
    """Wall time of one fresh `python -c CODE` with this checkout's src on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED)
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=str(ROOT), check=True,
                   timeout=clock.left())
    return perf_counter() - t0


# -- scoring ---------------------------------------------------------------------

def score(jobs: list, expected: dict, workload: str):
    """Count failures against the known answers.

    Returns (attempted, failed, correct, failures).  A job fails when its
    verdict differs from the known answer (an uncaught error or a traceback
    is a verdict of its own).  `correct` is false if any job fails that the
    known-answer file does not list as an open defect.
    """
    answers = expected[workload]
    failed, unexpected, failures = 0, 0, {}
    for key, _, label, _ in jobs:
        if key not in answers:
            raise BenchError(f"no known answer for {workload} job {key!r}")
        want = answers[key]
        if label != want["expect"]:
            failed += 1
            failures[key] = label
            if "open_defect" not in want:
                unexpected += 1
    missing = set(answers) - {key for key, _, _, _ in jobs}
    if missing:
        raise BenchError(f"known answers for jobs that did not run: {sorted(missing)}")
    return len(jobs), failed, unexpected == 0, failures


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_ABOVE samples above it.

    Returns (value, percentile): the (n - TAIL_ABOVE)-th smallest sample,
    which has exactly TAIL_ABOVE samples above it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    k = max(0, n - TAIL_ABOVE - 1)
    return ordered[k], 100.0 * (k + 1) / n


def metadata(seed: int) -> dict:
    meta = {"python": platform.python_version(), "nproc": os.cpu_count(), "seed": seed}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        meta["cpu"] = models[0] if models else platform.processor()
    except OSError:
        meta["cpu"] = platform.processor() or "unknown"
    meta["loadavg_start"] = loadavg()
    return meta


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unknown"


def emit_detail(tag: str, payload) -> None:
    print(f"# {tag} {json.dumps(payload, sort_keys=True)}")


# -- the two kinds of run ------------------------------------------------------------

def untraced_run(clock: Clock, workload: str, seed: int, seconds: int, workdir: str, meta):
    speed = SpeedProbe(timer=False)
    with one_cpu():
        setups = [spawn_worker(clock, workload, seed, "setup", workdir, speed=speed)[0]
                  for _ in range(SETUP_SAMPLES)]
    _, result = spawn_worker(clock, workload, seed, "measure", workdir, seconds=seconds)
    jobs = result["jobs"]
    attempted, failed, correct, failures = score(jobs, load_expected(), workload)
    times = [s for _, s, _, _ in jobs]
    tail_s, tail_pct = tail(times)
    # run_s: the job list once, each job at its median over the passes
    per_job: dict[str, list[float]] = {}
    for key, s, _, _ in jobs:
        per_job.setdefault(key, []).append(s)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (sum(statistics.median(v) for v in per_job.values()), "s"),
        "verdict_s.p50": (statistics.median(times), "s"),
        "verdict_s.tail": (tail_s, "s"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    passes = result["passes"]
    meta.update(passes=passes, jobs_per_pass=len(jobs) // passes, setup_n=len(setups),
                run_s_n=passes, verdict_s_n=len(times), tail_percentile=round(tail_pct, 1),
                fail_ratio=failed / attempted, worker_probe_s=result["probe_s"],
                pass_wall_s=result["pass_wall_s"],
                job_s={key: statistics.median(v) for key, v in sorted(per_job.items())})
    return metrics, attempted, failed, correct, failures


def traced_run(clock: Clock, workload: str, seed: int, workdir: str, meta):
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
    _, main = spawn_worker(clock, workload, seed, "trace", workdir, spans=str(spans))
    _, other = spawn_worker(clock, workload, seed, "counts", workdir,
                            hash_seed=OTHER_HASH_SEED)
    attempted, failed, correct, failures = score(main["jobs"], load_expected(), workload)

    layers = {name: tuple(v) for name, v in main["layers"].items()}
    startup = [timed_command(clock, "pass") for _ in range(STARTUP_SAMPLES)]
    imported = [timed_command(clock, "import confalg") for _ in range(STARTUP_SAMPLES)]
    layers["cli.python_startup_s"] = (statistics.median(startup), "s", len(startup))
    layers["cli.import_s"] = (statistics.median(imported) - statistics.median(startup), "s",
                              len(imported))
    main_s = main.get("main_s", 0.0)
    layers["cli.main_s"] = (main_s, "s", attempted if workload == "cli" else 0)
    layers["trace.overhead"] = (main["traced_s"] / main["reference_s"], "ratio", 1)

    # every count (and every ratio of counts) must not depend on the hash seed
    unstable = {}
    for name, (value, unit, _) in main["layers"].items():
        if unit in ("count", "ratio") and other["layers"][name][0] != value:
            unstable[name] = [value, other["layers"][name][0]]
    if unstable:
        correct = False
    meta.update(traced_s=main["traced_s"], reference_s=main["reference_s"],
                spans=main.get("spans", 0), spans_file=str(spans.relative_to(ROOT)),
                count_mismatch_across_hash_seeds=unstable)
    emit_detail("layers", {name: {"value": v, "unit": u, "n": n}
                           for name, (v, u, n) in sorted(layers.items())})
    metrics = {name: (v, u) for name, (v, u, _) in layers.items()}
    return metrics, attempted, failed, correct, failures


def run(args) -> int:
    bench = load_benchmark()
    if not (SRC / "confalg" / "__init__.py").is_file():
        print(f"run.py: no confalg sources under {SRC}", file=sys.stderr)
        return 2
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    clock = Clock(DEADLINE_S)
    meta = metadata(args.seed)
    meta.update(workload=args.workload, trace=args.trace, seconds=args.seconds)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.trace:
            metrics, attempted, failed, correct, failures = traced_run(
                clock, args.workload, args.seed, workdir, meta)
        else:
            metrics, attempted, failed, correct, failures = untraced_run(
                clock, args.workload, args.seed, args.seconds, workdir, meta)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = set(wanted) - set(metrics)
    if missing:
        print(f"run.py: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    meta["loadavg_end"] = loadavg()
    meta["failures"] = failures
    emit_detail("run", meta)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted},
    }
    print(json.dumps(result))
    return 0


# -- compare mode --------------------------------------------------------------------

def read_log(path: str) -> dict:
    """workload -> list of metric dicts, in run order, from a log of untraced runs."""
    runs: dict = {}
    meta = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# run "):
                meta = json.loads(line[len("# run "):])
            elif line.startswith("{") and meta is not None:
                if not meta.get("trace"):
                    runs.setdefault(meta["workload"], []).append(json.loads(line)["metrics"])
                meta = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple:
    """Regression when the change's median is worse by more than the bound;
    otherwise unresolved when the parent's own spread exceeds the bound and
    not every change run beats every parent run; gain when the change wins
    at least nine tenths of the pairs and the medians differ by more than
    the parent's quartile distance."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    won = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    worse = sign * (cm - pm) / abs(pm) if pm else 0.0
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    if worse > bound:
        state = "regression"
    elif spread > bound and not all_better:
        state = "unresolved"
    elif won >= 0.9 and abs(cm - pm) > (p3 - p1) and sign * (cm - pm) < 0:
        state = "gain"
    else:
        state = "within bound"
    return (p1, pm, p3), (c1, cm, c3), won, len(pairs), spread, state


def compare(parent_log: str, change_log: str) -> int:
    bench = load_benchmark()
    parent, change = read_log(parent_log), read_log(change_log)
    print(f"{'workload':<11} {'metric':<15} {'parent q1/median/q3':<32} "
          f"{'change q1/median/q3':<32} {'won':>9} {'spread':>7}  verdict")
    for workload in WORKLOADS:
        if workload not in parent or workload not in change:
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            p = [r[name]["value"] for r in parent[workload]]
            c = [r[name]["value"] for r in change[workload]]
            (pq, cq, won, n, spread, state) = verdict(p, c, m["better"], m["bound"])
            fmt = "/".join(f"{v:.4g}" for v in pq), "/".join(f"{v:.4g}" for v in cq)
            print(f"{workload:<11} {name:<15} {fmt[0]:<32} {fmt[1]:<32} "
                  f"{won:>5.0%} of {n:<2} {spread:>6.1%}  {state}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_LOG", "CHANGE_LOG"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
