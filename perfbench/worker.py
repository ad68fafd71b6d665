"""One benchmark process: set up a workload, then run at most one pass.

``run.py`` starts one of these per pass, so every pass starts cold: nothing
memoized in an earlier pass (``a7.build_environment`` and
``a7._overgroup_census`` are ``lru_cache``d for the life of a process) can
serve a later one. Modes:

- ``setup``: import the library, load the catalog, build the input groups;
- ``pass``: the same, then one untraced pass, checked against the pins;
- ``traced``: ``pass`` with spans around the benchmark's calls into each
  layer, and cProfile over set-up and pass as two separate profiles; the
  catalog layer is reported from set-up, every other layer from the pass.

Set-up and pass of the untraced modes each run under a ``Calibrator``, which
gives their times on the nominal host (``*_nominal_s``) next to the raw
times (``setup_s``, ``wall_s``, ``cpu_s``; the kernel's own time taken off).

The last line of output is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from calibrate import Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "cosetposets"


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no library sources at {PACKAGE}", file=sys.stderr)
        return 2

    traced = args.mode == "traced"
    setup_profile = cProfile.Profile() if traced else None
    if setup_profile:
        setup_profile.enable()
    with nullcontext() if traced else Calibrator() as calib:
        start = time.perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import cosetposets
        if Path(cosetposets.__file__).resolve().parent != PACKAGE.resolve():
            print(f"error: imported cosetposets from {cosetposets.__file__}, not {PACKAGE}",
                  file=sys.stderr)
            return 2
        import workloads

        setup_spans = workloads.Spans(enabled=traced)
        inputs = workloads.setup(args.workload, args.seed, setup_spans)
        setup = time.perf_counter() - start
    if setup_profile:
        setup_profile.disable()
    result: dict = {"setup_s": setup}
    if calib:
        result.update(setup_s=setup - calib.wall_s,
                      setup_nominal_s=calib.nominal(setup, calib.wall_s),
                      setup_speed=calib.speed())
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    spans = workloads.Spans(enabled=traced)
    pass_profile = cProfile.Profile() if traced else None
    if pass_profile:
        pass_profile.enable()
    with nullcontext() if traced else Calibrator() as calib:
        cpu_start = _cpu_seconds()
        pass_start = time.perf_counter()
        outputs, counters, errors, items = workloads.run_pass(args.workload, inputs, spans)
        wall = time.perf_counter() - pass_start
        cpu = _cpu_seconds() - cpu_start
    if pass_profile:
        pass_profile.disable()
    if calib:
        result.update(wall_nominal_s=calib.nominal(wall, calib.wall_s),
                      cpu_nominal_s=calib.nominal(cpu, calib.cpu_s),
                      speed=calib.speed())
        wall, cpu = wall - calib.wall_s, cpu - calib.cpu_s
    pinned = workloads.load_pinned(args.workload)
    mismatched = workloads.check(outputs, pinned)
    result.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=len(pinned) + items,
        failed=len(mismatched) + len(errors),
        mismatched=mismatched,
        errors=errors,
        counters=dict(counters),
    )
    if traced:
        import layers

        setup_metrics, absent = layers.attribute(setup_profile, PACKAGE)
        pass_metrics, _ = layers.attribute(pass_profile, PACKAGE)
        result["layers"] = layers.by_phase(setup_metrics, pass_metrics)
        result["absent"] = absent
        result["busy_s"] = layers.by_phase(setup_spans.busy_by_layer(),
                                           spans.busy_by_layer())
        result["spans"] = {"setup": setup_spans.records, "pass": spans.records}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
