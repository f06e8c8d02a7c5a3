"""The benchmark's own tests, on reduced-size workloads.

    python -m pytest perfbench/tests -q
"""

import json
import threading

import pytest
from layers import LAYER_METRICS, UNITS
from run import END_TO_END_UNITS, REPO, measure
from spans import Span, self_times
from workloads import WORKLOADS

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAMES = sorted(WORKLOADS)


@pytest.fixture(scope="module")
def traced():
    """Two reduced-size traced runs per workload."""
    return {name: [measure(name, 1, 0, trace=True, small=True) for _ in range(2)] for name in NAMES}


def test_spec_lists_every_workload_and_metric():
    assert sorted(w["name"] for w in SPEC["workloads"]) == NAMES
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in LAYER_METRICS
    ]
    for _, _, _, _, mechanism, bypass in LAYER_METRICS:
        assert {mechanism, bypass} <= set(NAMES) | {"all"}


@pytest.mark.parametrize("name", NAMES)
def test_smoke_end_to_end(name):
    run = measure(name, 1, 0, trace=False, small=True)
    result = run["result"]
    assert result["correct"], run["notes"]["misses"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == END_TO_END_UNITS[metric]
        assert entry["value"] > 0
    assert run["notes"]["environment"]["nproc"] >= 1


@pytest.mark.parametrize("name", NAMES)
def test_smoke_per_layer(traced, name):
    result = traced[name][0]["result"]
    assert result["correct"], traced[name][0]["notes"]["misses"]
    assert set(result["metrics"]) == set(UNITS)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == UNITS[metric]
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("name", NAMES)
def test_child_spans_lie_inside_parents(traced, name):
    spans = traced[name][0]["spans"]
    by_id = {s.id: s for s in spans}
    assert len(by_id) == len(spans)
    for s in spans:
        assert s.start <= s.end
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.run_id == s.run_id
            assert parent.start <= s.start and s.end <= parent.end
    assert all(t >= 0 for t in self_times(spans).values())


def test_worker_thread_spans_keep_their_parent(traced):
    spans = traced["gpd_experiment"][0]["spans"]
    main = threading.get_ident()
    workers = [s for s in spans if s.thread != main]
    assert workers, "the experiment ran no cell in a worker thread"
    assert all(s.parent is not None for s in workers)
    by_id = {s.id: s for s in spans}
    cells = [s for s in workers if s.name == "semiauto.run_semiauto"]
    assert cells and all(by_id[s.parent].name == "experiment.run_experiment" for s in cells)


@pytest.mark.parametrize("name", NAMES)
def test_call_counts_repeat_exactly(traced, name):
    first, second = (r["result"]["metrics"] for r in traced[name])
    counts = [m for m in UNITS if m.endswith(".calls")]
    assert {m: first[m]["value"] for m in counts} == {m: second[m]["value"] for m in counts}
    assert first["semiauto.run_semiauto.calls"]["value"] >= 1


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(1, None, "parent", 0.0, 10.0, "r", 0),
        Span(2, 1, "child", 1.0, 5.0, "r", 0),
        Span(3, 1, "child", 3.0, 7.0, "r", 1),
        Span(4, 3, "grandchild", 4.0, 6.0, "r", 1),
    ]
    assert self_times(spans) == {1: 4.0, 2: 4.0, 3: 2.0, 4: 2.0}
