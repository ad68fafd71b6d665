"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench``.

They run a few cheap items of each workload in-process, so they finish in
seconds; the full passes run only through ``run.py``.
"""

from __future__ import annotations

import cProfile
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

CHEAP_ITEMS = {
    "altgen": ["fpf"],
    "subgroups": ["lattice S4", "lattice A5"],
    "homology": ["GF(2) S3", "GF(2) C2xC2", "GF(2) D8", "join S3", "GF(3) S3"],
}


def cheap_pass(workload, seed, spans=None, inputs=None):
    spans = spans or workloads.Spans(enabled=False)
    inputs = inputs or workloads.setup(workload, seed, spans)
    return workloads.run_pass(workload, inputs, spans, only=CHEAP_ITEMS[workload])


def test_cheap_items_match_pins():
    for workload in CHEAP_ITEMS:
        outputs, _, errors, _ = cheap_pass(workload, 0)
        assert not errors
        assert outputs
        assert workloads.check(outputs, workloads.load_pinned(workload), keys=outputs) == []


def test_corrupted_pin_counts_as_failure_without_crashing():
    pinned = workloads.load_pinned("homology")
    outputs = cheap_pass("homology", 0)[0]
    corrupted = dict(pinned, **{"S3.gf2": [0, 0, 9]})
    assert workloads.check(outputs, corrupted, keys=outputs) == ["S3.gf2"]


def test_raising_item_counts_as_failure_and_pass_continues():
    spans = workloads.Spans(enabled=False)
    inputs = workloads.setup("homology", 0, spans)
    inputs["groups"]["S3"] = None
    outputs, _, errors, ran = workloads.run_pass("homology", inputs, spans,
                                                 only=["GF(2) S3", "GF(2) D8"])
    assert list(errors) == ["GF(2) S3"] and ran == 2
    pinned = workloads.load_pinned("homology")
    assert workloads.check(outputs, pinned, keys=["S3.gf2", "D8.gf2"]) == ["S3.gf2"]


def test_pins_hold_for_any_correct_sweep(monkeypatch):
    """Fewer tests, other witnesses or another fixed-point-free element are
    still correct outputs, and must not read as failures."""
    import cosetposets as cp

    real_sweep, real_fpf = cp.check_alternating_claims, cp.sylow2_fixed_point_free_element

    def reduced_sweep(n):
        report = real_sweep(n)
        report.tests = 9
        report.witnesses = report.witnesses[-1:]
        return report

    def last_fpf(n):
        if real_fpf(n) is None:
            return None
        P = cp.sylow_subgroup(cp.alternating_group(n), 2)
        return [g for g in P.elements() if not g.fixed_points()][-1]

    monkeypatch.setattr(cp, "check_alternating_claims", reduced_sweep)
    monkeypatch.setattr(cp, "sylow2_fixed_point_free_element", last_fpf)
    spans = workloads.Spans(enabled=False)
    outputs, counters, errors, _ = workloads.run_pass("altgen", {}, spans,
                                                      only=["A7 sweep", "fpf"])
    assert not errors
    assert counters["generation.sweep_tests"] == 9
    assert outputs["A7.witness_order_set"] == [168]
    assert workloads.check(outputs, workloads.load_pinned("altgen"), keys=outputs) == []


def test_seed_zero_and_another_seed_give_identical_outputs():
    for workload in CHEAP_ITEMS:
        assert cheap_pass(workload, 0)[0] == cheap_pass(workload, 11)[0]


def test_relabelling_moves_points_except_at_seed_zero():
    assert workloads.relabelling(0, 6).is_identity()
    assert not workloads.relabelling(11, 6).is_identity()
    assert workloads.relabelling(11, 6) == workloads.relabelling(11, 6)


def test_traced_and_untraced_passes_agree():
    plain, plain_counters, _, _ = cheap_pass("homology", 3)
    spans = workloads.Spans(enabled=True)
    profile = cProfile.Profile()
    profile.enable()
    traced, traced_counters, _, _ = cheap_pass("homology", 3, spans=spans)
    profile.disable()
    assert traced == plain
    assert traced_counters == plain_counters
    assert spans.busy_by_layer()["complexes"] > 0
    assert all(end >= start for _, start, end, _ in spans.records)
    metrics, absent = layers.attribute(profile, ROOT / "src" / "cosetposets")
    assert absent == []
    assert metrics["complexes.self_s"] > 0
    assert metrics["complexes.calls"] > 0
    assert metrics["lattice.span_calls"] > 0


def test_oracle_and_census_counts_come_from_the_profile():
    profile = cProfile.Profile()
    profile.enable()
    cheap_pass("subgroups", 0)
    profile.disable()
    metrics, _ = layers.attribute(profile, ROOT / "src" / "cosetposets")
    # memoisation leaves far fewer generation tests than |G| + |G|^2 tuples
    assert 0 < metrics["zeta.oracle_tuples"] < 24 + 24**2 + 60 + 60**2
    assert metrics["a7.overgroups"] == 0  # no census in these items


def test_catalog_metrics_come_from_set_up_and_the_rest_from_the_pass():
    setup = {"catalog.self_s": 1.0, "groups.self_s": 5.0}
    passed = {"catalog.self_s": 0.0, "groups.self_s": 2.0}
    assert layers.by_phase(setup, passed) == {"catalog.self_s": 1.0, "groups.self_s": 2.0}
    assert layers.by_phase({"catalog": 0.3, "groups": 0.1}, {"lattice": 2.0}) == {
        "catalog": 0.3, "lattice": 2.0}


def test_renamed_helper_is_reported_absent(tmp_path):
    package = tmp_path / "cosetposets"
    package.mkdir()
    for layer in layers.LAYERS:
        (package / f"{layer}.py").write_text("def public():\n    pass\n")
    (package / "perm.py").write_text("def _mul_bytes(p, q):\n    return p\n")
    profile = cProfile.Profile()
    profile.enable()
    profile.disable()
    metrics, absent = layers.attribute(profile, package)
    assert metrics["perm.mul_calls"] == 0
    assert "perm.inv_calls" in absent and "perm.inv_calls" not in metrics
    assert "lattice.span_calls" in absent


def test_calibrator_samples_the_host_and_restores_the_signal_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Calibrator() as calib:
        end = time.perf_counter() + 3 * calibrate.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    # entry, exit and at least two timer ticks between them
    assert len(calib.samples) >= 4 * calibrate.KERNEL_RUNS
    assert calib.speed() > 0 and 0 < calib.wall_s < 3 * calibrate.INTERVAL_S


def test_nominal_time_scales_the_phase_without_the_kernel_by_mean_speed():
    calib = calibrate.Calibrator()
    calib.samples = [0.5, 1.5, 1.0]
    assert calib.speed() == 1.0
    calib.samples = [0.25, 0.75]
    assert calib.nominal(10.0, 2.0) == 4.0


def test_kernel_is_fixed_work():
    assert calibrate.kernel() == calibrate.kernel()


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bench / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "homology", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
