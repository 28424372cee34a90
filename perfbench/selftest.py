"""Self-tests of the benchmark itself (not of homforge).

    python3 perfbench/selftest.py

1. BENCHMARK.json names the metrics the runner reports, with the same units.
2. Every binding of a traced function is wrapped while tracing, including
   names imported by other modules (cli.check_identity and the like).
3. Negative control: with one expected verdict flipped, each workload reports
   that job as failed; an envelope report checked against a wrong oracle
   value fails too.
4. One traced pass of each workload (seed 1) gives a nonzero value for every
   per-layer metric the layer table says should move there.

Takes about a minute on a 2-core machine. Exits 0 when all pass.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FLIP = {"pass": "fail", "fail": "pass"}


def check_manifest() -> list:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = []
    want = {m: run.END_TO_END_UNITS[m] for m in run.JSON_END_TO_END}
    got = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if got != want:
        errors.append(f"end_to_end {got} != runner {want}")
    want = {n: (u, b) for n, (u, b, _) in layertrace.METRICS.items()}
    got = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if got != want:
        errors.append(f"per_layer differs from layertrace.METRICS: {set(got) ^ set(want)}")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        errors.append("workload names differ")
    return errors


def check_bindings(hf) -> list:
    original = hf.fdalg.check_identity
    with layertrace.Tracer() as tracer:
        errors = [f"unwrapped {b}" for b in tracer.unwrapped_bindings()]
        if hf.cli.check_identity is original:
            errors.append("cli.check_identity is not wrapped")
    if hf.cli.check_identity is not original:
        errors.append("cli.check_identity not restored after tracing")
    return errors


def check_negative_control(hf) -> list:
    errors = []
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 1, hf, run.ROOT)
        wl.new_pass()
        job = min(wl.jobs, key=lambda j: (len(j.label), j.label))
        for flipped, want_failed in ((False, 0), (True, 1)):
            probe = dataclasses.replace(job, expected=FLIP[job.expected]) if flipped else job
            tally = run.Tally()
            run.run_job(hf, probe, tally)
            if tally.failed != want_failed:
                errors.append(f"{name}: {probe.label} expecting {probe.expected!r} "
                              f"gave {tally.failed} failed, want {want_failed}")
        if name == "envelope":
            wrong_oracle = workloads.envelope_check(3, 4, {1: 3, 2: 6, 3: 36, 4: 253})
            tally = run.Tally()
            run.run_job(hf, dataclasses.replace(job, check=wrong_oracle), tally)
            if tally.failed != 1:
                errors.append("envelope: a wrong oracle value was not reported")
    return errors


def check_should_move(hf) -> list:
    errors = []
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 1, hf, run.ROOT)
        tally = run.Tally()
        with layertrace.Tracer() as tracer:
            run.run_pass(hf, wl, tally, tracer)
        values = tracer.metrics(1)
        zero = [m for m in layertrace.SHOULD_MOVE[name] if not values[m]]
        if zero or tally.failed:
            errors.append(f"{name}: zero {zero}, {tally.failed} failed")
    return errors


def main() -> int:
    hf = run.load_homforge()
    checks = [
        ("manifest", check_manifest),
        ("bindings", lambda: check_bindings(hf)),
        ("negative control", lambda: check_negative_control(hf)),
        ("should move", lambda: check_should_move(hf)),
    ]
    ok = True
    for label, check in checks:
        errors = check()
        ok = ok and not errors
        print(f"{label}: " + ("ok" if not errors else "FAILED"))
        for e in errors:
            print(f"  {e}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
