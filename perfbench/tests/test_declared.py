"""Every metric the benchmark emits is declared in BENCHMARK.json, with its unit."""

import json
import os

from perfbench import metrics, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[section]


def test_end_to_end_metrics_are_declared():
    emitted = metrics.end_to_end([4.0, 6.0, 5.0], [2.0, 1.0, 3.0], [0.5], 120.0)
    assert [(k, u) for k, (_, u) in emitted.items()] == [
        (m["name"], m["unit"]) for m in declared("end_to_end")]
    assert emitted["setup_s"][0] == 5.0 and emitted["train_s"][0] == 2.0


def test_per_layer_metrics_are_declared():
    emitted = metrics.per_layer({}, {}, overhead_s=0.1)
    assert [(k, u) for k, (_, u) in emitted.items()] == [
        (m["name"], m["unit"]) for m in declared("per_layer")]


def test_ratios_and_merged_counts():
    counts = metrics.merge({"features.static_kept": 3, "features.static_described": 4},
                           {"features.static_kept": 3, "features.static_described": 4,
                            "smoothing.frames": 8})
    emitted = metrics.per_layer({"smoothing.smooth_sequence": 1.5}, counts, 0.0)
    assert emitted["features.static_kept_ratio"] == (0.75, "ratio")
    assert emitted["features.spacetime_kept_ratio"] == (0.0, "ratio")
    assert emitted["smoothing.frames"] == (8, "count")
    assert emitted["smoothing.smooth_sequence.s"] == (1.5, "s")


def test_workloads_are_declared():
    assert [w["name"] for w in declared("workloads")] == list(workloads.WORKLOADS)


def test_entry_point_runs_the_declared_workloads():
    from perfbench import run
    assert run.NAMES == tuple(w["name"] for w in declared("workloads"))
