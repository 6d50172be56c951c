"""Tests of the benchmark itself (not of the simulator).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import common  # noqa: E402
from perfbench.spans import Spans, percentile, self_times, tail_percentile  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- tail percentile ----------------------------------------------------


@pytest.mark.parametrize("count, expected", [(48, 79), (96, 89), (1000, 99), (20, 50)])
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    values = list(range(count))
    tail = percentile(values, expected)
    assert sum(1 for value in values if value > tail) >= 10
    # One percentile higher would leave fewer than ten beyond.
    if expected < 99:
        higher = percentile(values, expected + 1)
        assert sum(1 for value in values if value > higher) < 10


def test_tail_percentile_needs_enough_samples():
    with pytest.raises(ValueError):
        tail_percentile(19)


# -- span self time -----------------------------------------------------


def test_self_time_subtracts_covered_children():
    rows = [
        ["root", 0.0, 10.0, -1, None],
        ["child", 1.0, 4.0, 0, "p"],
        ["child", 3.0, 6.0, 0, "p"],  # overlaps the first child by 1
        ["grandchild", 1.5, 2.0, 1, "p"],
        ["late", 9.0, 12.0, 0, "p"],  # clipped to the root's end
    ]
    selfs = self_times(rows)
    assert selfs["root"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs["child"] == pytest.approx(3.0 - 0.5 + 3.0)
    assert selfs["grandchild"] == pytest.approx(0.5)
    assert selfs["late"] == pytest.approx(3.0)


def test_self_times_of_a_tree_sum_to_its_root():
    ticks = iter(range(100))
    spans = Spans(clock=lambda: float(next(ticks)))
    root = spans.open("root")
    a = spans.open("a", pair="x")
    spans.add("leaf", 1.25, 1.5)
    spans.close(a)
    b = spans.open("b")
    spans.close(b)
    spans.close(root)
    assert [row[4] for row in spans.rows] == [None, "x", "x", None]
    assert sum(spans.self_times().values()) == pytest.approx(spans.rows[0][2] - spans.rows[0][1])


def test_spans_close_out_of_order_is_an_error():
    spans = Spans()
    outer = spans.open("outer")
    spans.open("inner")
    with pytest.raises(RuntimeError):
        spans.close(outer)


# -- output checks ------------------------------------------------------


def _stream_result(seed):
    from repro.core.presets import baseline_mcm_gpu
    from repro.sim.simulator import Simulator
    from repro.workloads.suite import spec_by_name
    from repro.workloads.synthetic import SyntheticWorkload

    config = baseline_mcm_gpu()
    spec = replace(spec_by_name("Stream").scaled_down(0.0625), seed=seed)
    return config, Simulator(config).run(SyntheticWorkload(spec))


def _checker(seed, record=False):
    run = common.Run("unit", seed, trace=False, root=ROOT, record=record)
    return run, common.Checker(run)


def test_perturbed_counter_counts_as_failed(tmp_path, monkeypatch):
    config, result = _stream_result(common.DEFAULT_SEED)
    monkeypatch.setattr(common, "REFERENCE_PATH", tmp_path / "reference.json")
    run, checker = _checker(common.DEFAULT_SEED, record=True)
    checker.pair(result, config)
    checker.save()

    run, checker = _checker(common.DEFAULT_SEED)
    assert checker.pair(result, config)
    perturbed = replace(result, link_bytes=result.link_bytes + 128)
    assert not checker.pair(perturbed, config)
    assert (run.attempted, run.failed) == (2, 1)


def test_perturbed_counter_fails_invariants_at_other_seeds():
    config, result = _stream_result(7)
    run, checker = _checker(7)
    assert checker.pair(result, config)
    broken = replace(result, loads=result.loads + 1)
    assert not checker.pair(broken, config)
    assert (run.attempted, run.failed) == (2, 1)


def test_reference_from_another_model_rev_is_refused(tmp_path, monkeypatch):
    config, result = _stream_result(common.DEFAULT_SEED)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"model_rev": -1, "result_schema": 2, "workloads": {}}))
    monkeypatch.setattr(common, "REFERENCE_PATH", path)
    run, checker = _checker(common.DEFAULT_SEED)
    assert not checker.pair(result, config)
    assert "MODEL_REV" in run.failures[0]


# -- seeds --------------------------------------------------------------


def test_non_default_seed_changes_workload_digests_and_traces():
    from perfbench.paper import suite

    default = suite(common.DEFAULT_SEED)
    other = suite(common.DEFAULT_SEED + 1)
    assert all(a.digest() != b.digest() for a, b in zip(default, other))
    assert [w.name for w in default] == [w.name for w in other]
    kernel_a = next(default[0].kernels())
    kernel_b = next(other[0].kernels())
    assert (kernel_a.trace_fn(0).addrs != kernel_b.trace_fn(0).addrs).any()


def test_sweep_and_serve_inputs_follow_the_seed():
    from perfbench.service import pairs_for
    from perfbench.sweep import make_plan

    for seed in (0, 3):
        plan = make_plan(seed)
        assert all(
            workload.spec.seed == seed for _, rung in plan.rungs for workload in rung
        )
        assert all(workload.spec.seed == seed for workload, _ in pairs_for(seed))


# -- BENCHMARK.json -----------------------------------------------------


def test_metric_names_and_units_match_the_benchmark_file():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == common.PER_LAYER


def test_metric_names_follow_the_pattern():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert common.NAME_PATTERN.fullmatch(name), name
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert common.NAME_PATTERN.fullmatch(metric["unit"].replace("/", "_").replace("%", "_"))


def test_workloads_match_the_benchmark_file():
    from perfbench.run import WORKLOADS

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_isolation_scrubs_inherited_knobs(monkeypatch, tmp_path):
    for name in common.SCRUBBED_ENV:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("REPRO_SIM_PERLINE", "1")
    monkeypatch.setenv("REPRO_PROFILE", "1")
    common.isolate_environment(2, tmp_path, cache=False)
    assert os.environ["REPRO_SIM_PERLINE"] == "0"
    assert os.environ["REPRO_PROFILE"] == "0"
    assert os.environ["REPRO_WORKERS"] == "2"
    assert os.environ["REPRO_CACHE_DIR"] == str(tmp_path)
    assert os.environ["REPRO_NO_CACHE"] == "1"


def test_path_guard_sees_the_reference_path(monkeypatch):
    from perfbench.layers import build_simulator
    from perfbench.paper import expected_path, migrating_config
    from repro.core.presets import baseline_mcm_gpu
    from repro.workloads.suite import spec_by_name
    from repro.workloads.synthetic import SyntheticWorkload

    workload = SyntheticWorkload(spec_by_name("DWT").scaled_down(0.0625))
    for config in (baseline_mcm_gpu(), migrating_config()):
        simulator, guard = build_simulator(config)
        simulator.run(workload)
        assert guard.taken == expected_path(config)
    monkeypatch.setenv("REPRO_SIM_PERLINE", "1")
    simulator, guard = build_simulator(baseline_mcm_gpu())
    simulator.run(workload)
    assert guard.taken == "reference"


def test_compare_refuses_results_from_another_model_rev():
    from perfbench.compare import compare

    base = {
        "provenance": {"model_rev": 8, "result_schema": 2},
        "metrics": {"wall_s": {"value": 2.0, "unit": "s"}},
    }
    new = json.loads(json.dumps(base))
    new["metrics"]["wall_s"]["value"] = 1.0
    assert compare(base, new) == [("wall_s", "s", 2.0, 1.0, 0.5)]
    new["provenance"]["model_rev"] = 9
    with pytest.raises(ValueError):
        compare(base, new)


def test_repeat_runs_at_least_min_reps_then_until_the_deadline():
    calls = []
    assert common.repeat(lambda: calls.append(1) or len(calls), 0.0, min_reps=3) == [1, 2, 3]


def test_median_pairs_takes_each_pairs_median_over_passes():
    passes = [{"a": 2.0, "b": 1.0}, {"a": 1.5, "b": 3.0}, {"a": 9.0, "b": 2.0}]
    assert common.median_pairs(passes) == {"a": 2.0, "b": 2.0}


def test_rounds_timing_takes_the_median_over_rounds():
    run = common.Run("unit", 0, trace=False, root=ROOT)
    quiet = [float(n) for n in range(1, 49)]
    rounds = [quiet, [value * 3 for value in quiet], [value * 2 for value in quiet]]
    run.rounds_timing("hit_ms", rounds, scale=1.0)
    # 48 calls per round: mean 24.5, tail p79 (rank 38); middle round x2.
    assert run.values["hit_ms_mean"] == (49.0, 3)
    assert run.values["hit_ms_tail"] == (76.0, 3)


def test_probe_scale_takes_times_to_reference_speed():
    from perfbench import probe

    # Probes twice the reference time: the host runs at half speed.
    assert probe.factor([2 * probe.REFERENCE_S] * 3) == pytest.approx(0.5)
    ref = probe.REFERENCE_S
    assert probe.between([ref, 3 * ref, ref]) == pytest.approx([0.5, 0.5])


def test_probe_around_uses_the_probes_nearest_an_interval():
    from perfbench import probe

    p = probe.Probe.__new__(probe.Probe)
    ref = probe.REFERENCE_S
    p.taken = [ref, 4 * ref, ref]
    p.stamps = [10.0, 20.0, 30.0]
    assert p.around(19.95, 20.05, slack=0.1) == pytest.approx(0.25)
    # No probe near the interval: every probe since the mark counts.
    assert p.around(50.0, 51.0, slack=0.1, mark=1) == pytest.approx(2 / 5)
