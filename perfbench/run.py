"""homforge benchmark: one workload, one seed, closed loop, known answers.

    python3 perfbench/run.py --workload fd-verify --seed 1 --seconds 24 --trace 0

One client runs the workload's job list in this process, one job after
another, with no threads and no process pool. Whole passes over the list
repeat until --seconds have elapsed (at least one pass). Every verdict is
compared with a known answer from outside homforge; every job's JSON report
is hashed, and a report that changes between passes, or from the first run
of the same seed and homforge source in this checkout, counts as failed.

With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
repeats untraced passes for half of --seconds, then runs as many passes again
with every traced layer wrapped (see layertrace.py), and reports the per-layer
metrics per pass plus trace.overhead_s, the traced minus the untraced time of
one pass.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Records
of the run (stamp, hashes, spans) are written under perfbench/out/.
The package is imported from src/, as the tier-1 tests do.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 9
HASH_SEED = "0"
TAIL_BEYOND = 10  # the tail is the highest time with this many samples above it

# Import homforge in a fresh interpreter; prints the seconds that took. The
# state jobs share is built lazily inside the jobs (the antipode-shared
# quotient builds its components on first use), so it counts in job times.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import homforge.cli
print(time.perf_counter() - start)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "peak_rss_mb": "MB",
    "failed_share": "ratio",
    "inconclusive_share": "ratio",
}
# failed_share and inconclusive_share are 0 when all is well, so they are
# printed but kept out of the JSON metrics, which must never read 0; the
# JSON carries the failed count itself.
JSON_END_TO_END = ["setup_s", "jobs_per_s", "job_s_p50", "job_s_tail", "peak_rss_mb"]


class _Modules:
    """The homforge modules, looked up at call time so tracing sees the calls."""

    def __init__(self):
        for name in ("cli", "expr", "fdalg", "homify", "hombialg", "rationals"):
            setattr(self, name, importlib.import_module(f"homforge.{name}"))


def load_homforge() -> _Modules:
    """Import homforge from the checkout's src/, as the tier-1 tests do."""
    for needed in (ROOT / "src" / "homforge" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            raise FileNotFoundError(
                f"{needed.relative_to(ROOT)} not found; run from a homforge checkout"
            )
    sys.path.insert(0, str(ROOT / "src"))
    return _Modules()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    inconclusive: int = 0
    times: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    hashes: Dict[str, str] = field(default_factory=dict)

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {why}")


def run_job(hf, job: workloads.Job, tally: Tally, tracer=None) -> None:
    """Run one job, time it from call to parsed verdict, and judge it."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.job(job.label) if tracer else contextlib.nullcontext()
    tally.attempted += 1
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            if job.argv is not None:
                code = hf.cli.main(job.argv + ["--json"])
                doc = json.loads(out.getvalue())
                status = doc["status"]
            else:
                code = None
                result = job.call()
                status = result.status
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        tally.times.append(time.perf_counter() - start)
        tally.fail(job.label, f"error {exc!r} {err.getvalue().strip()}")
        return
    tally.times.append(time.perf_counter() - start)

    if job.argv is not None:
        report = out.getvalue()
    else:
        doc = result.to_json()
        report = json.dumps(doc, sort_keys=True)
    digest = hashlib.sha256(report.encode()).hexdigest()
    if tally.hashes.setdefault(job.label, digest) != digest:
        tally.fail(job.label, "report differs from an earlier pass")
        return
    if code is not None and code != workloads.EXIT_OF.get(status):
        tally.fail(job.label, f"exit code {code} for status {status!r}")
    elif status == "inconclusive" and job.may_be_inconclusive:
        tally.inconclusive += 1
    elif status != job.expected:
        tally.fail(job.label, f"verdict {status!r}, known answer {job.expected!r} ({job.reason})")
    elif job.check is not None:
        wrong = job.check(doc)
        if wrong:
            tally.fail(job.label, wrong)


def run_pass(hf, workload: workloads.Workload, tally: Tally, tracer=None) -> float:
    gc.collect()
    start = time.perf_counter()
    workload.new_pass()
    for job in workload.jobs:
        run_job(hf, job, tally, tracer)
    return time.perf_counter() - start


def measure_setup() -> float:
    runs = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(runs)


def tail(times: List[float], per_pass: int):
    """(value, percentile, samples beyond a pass's tail) of the job times.

    Each pass's tail is its highest time with TAIL_BEYOND samples of the pass
    above it (its maximum when a pass has too few jobs); the value is the
    median over passes. Taken per pass so that its percentile does not depend
    on how many passes fit in the run, which varies with the speed of the
    machine.
    """
    if per_pass <= TAIL_BEYOND:
        index, beyond = per_pass - 1, 0
    else:
        index, beyond = per_pass - 1 - TAIL_BEYOND, TAIL_BEYOND
    tails = [sorted(times[i:i + per_pass])[index] for i in range(0, len(times), per_pass)]
    return statistics.median(tails), 100.0 * (index + 1) / per_pass, beyond


def commit() -> str:
    # GIT_DIR keeps git from answering for a repository that merely encloses
    # a checkout without its own .git.
    env = {**os.environ, "GIT_DIR": str(ROOT / ".git")}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def stamp(hf) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "backend": hf.rationals._BACKEND,
        "nproc": nproc,
    }


def source_digest() -> str:
    """SHA-256 prefix of homforge's source files, naming the program version."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "homforge").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def compare_with_earlier_run(name: str, seed: int, tally: Tally) -> None:
    """Reports must be byte-identical to the first run of this seed and source."""
    path = OUT / f"hashes-{name}-seed{seed}-src{source_digest()}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        for label, digest in tally.hashes.items():
            if earlier.get(label, digest) != digest:
                tally.fail(label, f"report differs from an earlier run of seed {seed}")
    else:
        path.write_text(json.dumps(tally.hashes, indent=1, sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        hf = load_homforge()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup()
    workload = workloads.build(args.workload, args.seed, hf, ROOT)
    OUT.mkdir(exist_ok=True)

    tally = Tally()
    # A traced run splits --seconds between the untraced and the traced passes.
    budget = args.seconds / 2 if args.trace else args.seconds
    pass_times = []
    while not pass_times or sum(pass_times) < budget:
        pass_times.append(run_pass(hf, workload, tally))
    untraced_times = list(tally.times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = None
    if args.trace:
        with layertrace.Tracer() as tracer:
            unwrapped = tracer.unwrapped_bindings()
            traced = [run_pass(hf, workload, tally, tracer) for _ in pass_times]
    compare_with_earlier_run(args.workload, args.seed, tally)

    info = stamp(hf)
    passes = len(pass_times)
    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  "
          f"jobs per pass {len(workload.jobs)}  trace {args.trace}")
    print("stamp " + "  ".join(f"{k}={v}" for k, v in info.items()))
    for problem in tally.problems:
        print(f"FAILED {problem}")
    record = {"stamp": info, "workload": args.workload, "seed": args.seed,
              "passes": passes, "jobs_per_pass": len(workload.jobs),
              "problems": tally.problems, "report_sha256": tally.hashes}

    if args.trace:
        metrics = tracer.metrics(passes)
        metrics["trace.overhead_s"] = (sum(traced) - sum(pass_times)) / passes
        units = {name: unit for name, (unit, _, _) in layertrace.METRICS.items()}
        zero = [m for m in layertrace.SHOULD_MOVE[args.workload] if not metrics[m]]
        for name, value in metrics.items():
            print(f"{name} {value} {units[name]}")
        print("wrapper self-test: " + ("ok" if not zero and not unwrapped else
                                       f"FAILED zero={zero} unwrapped={unwrapped}"))
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            fh.write("# span id, parent span id, job, layer, start s, end s\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        value, pct, beyond = tail(untraced_times, len(workload.jobs))
        n = len(workload.jobs)
        metrics = {
            "setup_s": setup_s,
            "jobs_per_s": len(untraced_times) / sum(pass_times),
            # the lower median, so that it is always one job's time, not the
            # mean of two jobs of different cost
            "job_s_p50": statistics.median_low(untraced_times),
            "job_s_tail": value,
            "peak_rss_mb": peak_rss_mb,
            "failed_share": tally.failed / tally.attempted,
            "inconclusive_share": tally.inconclusive / tally.attempted,
        }
        units = END_TO_END_UNITS
        for name, v in metrics.items():
            print(f"{name} {v} {units[name]}")
        print(f"  job_s_tail is p{pct:.1f} of the {n} job times of a pass ({beyond} samples "
              f"beyond it), median over {passes} passes; "
              f"setup_s is the median of {SETUP_RUNS} fresh imports")
        record["tail"] = {"percentile": pct, "samples_per_pass": n, "beyond": beyond}
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    keep = JSON_END_TO_END if not args.trace else list(metrics)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in keep},
    }))
    return 0


if __name__ == "__main__":
    # Set and dict orders follow the string hash seed, and with them, for
    # example, how soon a failing check meets its first witness; some jobs'
    # times moved by 40% between hash seeds. Every run uses the same one.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
