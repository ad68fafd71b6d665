"""Benchmark of the cosetposets library: seeded workloads through its public
functions, every output checked against pins taken at a known-good commit.

    python3 perfbench/run.py --workload {altgen,subgroups,homology} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports ``src/cosetposets``
from there and fails without printing a result if that is missing.

Workloads (each pass is one single-threaded process, started cold):

- ``altgen``: long-cycle sweeps ``check_alternating_claims(n)`` for
  n = 7, 8, 9 and ``sylow2_fixed_point_free_element`` for n = 7, 9, 10, 12.
  Nearly all time is in generation -> groups (Schreier-Sims) -> perm.
- ``subgroups``: subgroup lattices, Moebius function, Hall polynomial and
  the tuple oracle (k = 1, 2) for S4, A5, S5, PSL(2,7), A6; then the A_7
  overgroup census, strong generation, Smith scans on C(A7, A7) and
  C(S7, A7), and the rho checks for t = 1, 2. Mostly lattice time.
- ``homology``: GF(2) reduced Betti numbers of C(G) and of C(G, N) for each
  minimal normal N, over the 44 catalog groups of order 2..60; the five
  Brown join pairs; GF(3) Betti numbers for the 13 groups of order <= 24
  divisible by 3. Mostly complexes time, over ~50 small lattices.

The seed relabels the points of every catalog group (and of each join
pair's N) by a seeded permutation; seed 0 keeps the catalog labelling.
Every pinned value is invariant under relabelling and under the order in
which the library enumerates elements; pins record results, not how much
work was done, which is left to the per-layer counters.

With ``--trace 0`` passes repeat for ``--seconds`` (at least one) and the
end-to-end metrics are medians over passes: ``wall_nominal_s`` and
``cpu_nominal_s`` of a pass, ``peak_rss_mb`` of the pass process, and
``setup_s`` (import, catalog load, input groups) over the pass processes
and, to make at least ``SETUP_SAMPLES``, set-up-only processes. Times are
seconds on the nominal host of ``calibrate.py``: the raw time of the phase
times the host's speed, measured by a fixed kernel run alongside it, so
that runs minutes apart on a shared host compare. The raw medians and the
host's speed are printed too. With ``--trace 1`` one untraced
and one traced pass give the per-layer metrics; the catalog layer's come
from the traced process's set-up, every other layer's from its pass.
Human-readable lines, the run context and any failed checks come first; the
last line is the JSON result. Each run also writes its details, spans
included, under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "cosetposets"
OUT_DIR = HERE / "out"

WORKLOADS = ("altgen", "subgroups", "homology")
# set-ups per run, at least: every pass process sets up once, and set-up-only
# processes make up the rest. A set-up takes a few tenths of a second.
SETUP_SAMPLES = 7
RUN_BUDGET_S = 170  # a run must end within 180 s
# workload parts whose functions take no labelled input
SEED_NOTES = {
    "altgen": "check_alternating_claims(n) and sylow2_fixed_point_free_element(n) take "
              "only n, so the seed changes nothing in this workload",
    "subgroups": "the A_7 census, Smith scans and rho checks use a7.build_environment(), "
                 "which takes no labelled input; the seed relabels only the five lattice groups",
}

# per-layer counters read from the pass, beyond the profile's helper counts
PASS_COUNTERS = ("generation.sweep_tests", "lattice.subgroups", "cosets.vertices",
                 "posets.relations", "complexes.faces")


class BenchError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process for {workload} ran past the run budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise BenchError(f"{mode} process exited with {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def run_context(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
        "src_lines": layers.src_lines(PACKAGE),
    }


def end_to_end(setups: list[dict], passes: list[dict], units: dict) -> tuple[dict, list[str]]:
    """Medians of the metrics (nominal times), and lines that also give the
    raw times and the host's speed."""
    metrics, lines = {}, []
    for name, values in (("wall_nominal_s", [p["wall_nominal_s"] for p in passes]),
                         ("cpu_nominal_s", [p["cpu_nominal_s"] for p in passes]),
                         ("setup_s", [s["setup_nominal_s"] for s in setups]),
                         ("peak_rss_mb", [p["peak_rss_mb"] for p in passes])):
        median = statistics.median(values)
        metrics[name] = {"value": median, "unit": units[name]}
        lines.append(f"{name} = {median:.6g} {units[name]} (median of {len(values)}; "
                     f"min {min(values):.6g}, max {max(values):.6g})")
    for name, values in (("raw wall_s", [p["wall_s"] for p in passes]),
                         ("raw cpu_s", [p["cpu_s"] for p in passes]),
                         ("raw setup_s", [s["setup_s"] for s in setups]),
                         ("host speed in passes", [p["speed"] for p in passes]),
                         ("host speed in set-ups", [s["setup_speed"] for s in setups])):
        lines.append(f"{name} = {statistics.median(values):.6g} (median of {len(values)})")
    return metrics, lines


def per_layer(plain: dict, traced: dict, units: dict) -> tuple[dict, list[str]]:
    values = dict(traced["layers"])
    absent = list(traced["absent"])
    lines_by_layer = layers.src_lines(PACKAGE)
    for layer in layers.LAYERS:
        if layer in lines_by_layer:
            values[f"{layer}.busy_s"] = traced["busy_s"].get(layer, 0.0)
            values[f"{layer}.src_lines"] = lines_by_layer[layer]
        else:
            absent += [f"{layer}.busy_s", f"{layer}.src_lines"]
    for name in PASS_COUNTERS:
        values[name] = traced["counters"].get(name, 0)
    if "lattice.span_calls" in values:
        spans = values["lattice.span_calls"]
        values["lattice.span_yield"] = values["lattice.subgroups"] / spans if spans else 0.0
    else:
        absent.append("lattice.span_yield")
    values["trace_overhead"] = traced["wall_s"] / plain["wall_s"]

    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    lines = [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    if absent:
        lines.append(f"absent (helper renamed or removed): {', '.join(absent)}")
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cosetposets benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no library sources at {PACKAGE}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    context = run_context(args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    try:
        # first import in a fresh checkout compiles bytecode; not measured
        run_worker(args.workload, args.seed, "setup", deadline)
        if args.trace:
            plain = run_worker(args.workload, args.seed, "pass", deadline)
            traced = run_worker(args.workload, args.seed, "traced", deadline)
            passes = [plain, traced]
            metrics, lines = per_layer(plain, traced, units)
            spans = traced.pop("spans")
        else:
            passes = []
            start = time.monotonic()
            while True:
                began = time.monotonic()
                passes.append(run_worker(args.workload, args.seed, "pass", deadline))
                now = time.monotonic()
                if now - start + (now - began) > args.seconds:
                    break
            setups = list(passes)
            while len(setups) < SETUP_SAMPLES:
                setups.append(run_worker(args.workload, args.seed, "setup", deadline))
            metrics, lines = end_to_end(setups, passes, units)
            spans = []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(passes)} pass(es)")
    print("context: " + json.dumps(context))
    if args.workload in SEED_NOTES:
        print(f"seed note: {SEED_NOTES[args.workload]}")
    for line in lines:
        print(line)
    print(f"fail_rate = {failed / attempted:.6g} ({failed} failed of {attempted} checks)")
    for p in passes:
        for key in p["mismatched"]:
            print(f"FAILED check: {key}")
        for item, err in p["errors"].items():
            print(f"ERROR in {item}: {err}")

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"context": context, "metrics": metrics,
                                    "passes": passes, "spans": spans}, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
