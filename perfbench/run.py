#!/usr/bin/env python3
"""The study benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the measuring binary (a package of
its own in this directory) against the repository's crates, then:

* ``--trace 0``: runs round(S / 10) studies of the workload, one process
  each, on consecutive study seeds of a fixed pool chosen by ``--seed``;
  checks every study's report hash against the serial in-memory reference
  pinned in ``references.json``; and reports the end-to-end metrics as
  medians over the studies that passed;
* ``--trace 1``: runs one traced run (analyzer, world and replay passes) of
  the first of those studies and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
are a table: each metric with its unit, sample count, median, quartiles and
the highest percentile with at least ten samples beyond it. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"
WORKLOADS = ("short_window_wide", "scaleout_paged_chaos")
# Every invocation must end well within 180 s; a sample is only started
# while the run stays inside this budget.
RUN_BUDGET_S = 150.0
# Study seeds 1..STUDY_POOL, each with its reference report hash pinned in
# references.json; a run measures consecutive pool seeds chosen by --seed.
STUDY_POOL = 15
# A study takes about this long on a 2-CPU box; a run of S seconds measures
# round(S / STUDY_SECONDS) studies.
STUDY_SECONDS = 10.0
# Set-up is timed in this many separate processes before each study and
# after the last, each pinned to one CPU: on the sandbox this was sized on,
# set-up time jumped between two levels about 1.6x apart, both from process
# to process (unpinned) and from one stretch of seconds to the next.
SETUP_PROCESSES_PER_SLOT = 5


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args()


def build():
    """Build the measuring binary; return its path."""
    for crate in ("atproto", "appview", "feedgen", "labeler", "core", "workload"):
        if not (ROOT / "crates" / crate / "Cargo.toml").is_file():
            fail(f"the study crates are missing (no crates/{crate}); run from a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(command, cwd=ROOT, env=env).returncode != 0:
        fail("building the benchmark failed")
    return target / "release" / "perfbench"


def invoke(binary, *args, timeout, cpu=None):
    """Run the binary (pinned to `cpu` if given); return its last-line JSON
    object, or None if it failed."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        done = subprocess.run([str(binary), *args], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0), preexec_fn=pin)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args[0]} timed out", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: {args[0]} exited with {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def studies(seed, seconds):
    """The study seeds a run measures: round(seconds / STUDY_SECONDS)
    consecutive seeds of the pool, starting at the benchmark seed's slot."""
    count = max(1, round(seconds / STUDY_SECONDS))
    return [1 + (seed + i) % STUDY_POOL for i in range(count)]


def reference_hash(workload, study):
    """The serial in-memory reference report hash of one pool study, as
    pinned in references.json."""
    pinned = json.loads((HERE / "references.json").read_text())
    try:
        return pinned[workload][str(study)]
    except KeyError:
        fail(f"references.json pins no report hash for {workload} study seed {study};"
             f" every seed 1..{STUDY_POOL} of every workload must be pinned")


def summarize(values):
    """Median, quartiles and the highest percentile with at least ten
    samples beyond it (None when there are too few samples); needs two or
    more values."""
    n = len(values)
    ordered = sorted(values)
    q1, _, q3 = statistics.quantiles(ordered, n=4)
    high = None
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - pct / 100) >= 10:
            high = (pct, ordered[min(n - 1, int(n * pct / 100))])
            break
    return statistics.median(ordered), q1, q3, high


def print_table(rows):
    print(f"{'metric':36s} {'unit':6s} {'n':>3s} {'median':>14s} {'q1':>14s} {'q3':>14s}  high percentile")
    for name, unit, values in rows:
        if not values:
            print(f"{name:36s} {unit:6s} {0:3d} {'-':>14s}")
            continue
        if len(values) == 1:
            print(f"{name:36s} {unit:6s} {1:3d} {values[0]:14.6g}")
            continue
        med, q1, q3, high = summarize(values)
        tail = f"p{high[0]:g} = {high[1]:.6g}" if high else "n/a (needs more samples)"
        print(f"{name:36s} {unit:6s} {len(values):3d} {med:14.6g} {q1:14.6g} {q3:14.6g}  {tail}")


def untraced(binary, args, spec, started):
    rows = {m["name"]: [] for m in spec["end_to_end"]}
    attempted = failed = 0
    giveups = fetches = 0
    measured = studies(args.seed, args.seconds)
    cpu = max(os.sched_getaffinity(0))

    def time_setup(study):
        for _ in range(SETUP_PROCESSES_PER_SLOT):
            out = invoke(binary, "setup", "--workload", args.workload, "--seed", str(study),
                         timeout=RUN_BUDGET_S + 20 - (time.monotonic() - started), cpu=cpu)
            if out is not None:
                rows["setup_s"].append(out["setup_s"])

    for study in measured:
        time_setup(study)
        reference = reference_hash(args.workload, study)
        attempted += 1
        out = None
        if time.monotonic() - started < RUN_BUDGET_S:
            out = invoke(binary, "sample", "--workload", args.workload, "--seed", str(study),
                         timeout=RUN_BUDGET_S - (time.monotonic() - started))
        if out is None or out["report_hash"] != reference:
            failed += 1
            if out is not None:
                print(f"perfbench: study {study} report {out['report_hash']} != reference"
                      f" {reference}", file=sys.stderr)
            continue
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            rows[key].append(out[key])
        giveups += out["fetch_giveups"]
        fetches += out["fetch_attempts"]
    time_setup(measured[-1])
    passed = attempted - failed
    rows["completed_run_share"] = [passed / attempted]
    rows["fetch_success_share"] = [1 - giveups / fetches] if fetches else []
    print(f"workload {args.workload}, seed {args.seed}: studies "
          f"{measured}, {failed} of {attempted} failed (failed_run_share "
          f"{failed / attempted:g}), fetch_giveup_share {giveups / fetches if fetches else 0:g}"
          f" ({giveups} of {fetches} fetches)")
    table = [(m["name"], m["unit"], rows[m["name"]]) for m in spec["end_to_end"]]
    print_table(table)
    metrics = {name: {"value": statistics.median(values) if values else None, "unit": unit}
               for name, unit, values in table}
    return failed == 0 and bool(rows["setup_s"]), attempted, failed, metrics


def traced(binary, args, spec, started):
    study = studies(args.seed, args.seconds)[0]
    reference = reference_hash(args.workload, study)
    out = invoke(binary, "trace", "--workload", args.workload, "--seed", str(study),
                 "--expect", reference,
                 timeout=RUN_BUDGET_S + 20 - (time.monotonic() - started))
    if out is None:
        return False, 1, 1, {m["name"]: {"value": None, "unit": m["unit"]}
                             for m in spec["per_layer"]}
    produced = out["metrics"]
    if out["problems"]:
        print(f"perfbench: traced run self-check failed: {out['problems']}", file=sys.stderr)
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in produced]
    if missing:
        print(f"perfbench: traced run lacks {', '.join(missing)}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: traced study {study},"
          f" report {out['report_hash']}")
    print_table([(m["name"], m["unit"],
                  [produced[m["name"]]["value"]] if m["name"] in produced else [])
                 for m in spec["per_layer"]])
    metrics = {m["name"]: {"value": produced.get(m["name"], {}).get("value"), "unit": m["unit"]}
               for m in spec["per_layer"]}
    ok = not out["problems"] and not missing
    return ok, 1, 0 if ok else 1, metrics


def main():
    args = parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json is missing; run from the repository root")
    spec = json.loads(spec_path.read_text())
    binary = build()
    started = time.monotonic()
    try:
        run = traced if args.trace else untraced
        correct, attempted, failed, metrics = run(binary, args, spec, started)
    finally:
        shutil.rmtree(TMP / "spill", ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
