import json
import threading
from pathlib import Path

import pytest

import layers
import run
import spans
import workloads


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


def _span(name, start, end, parent=None):
    return [name, start, end, parent, "inv", 1, None]


def test_self_time_of_nested_spans():
    recorded = [
        _span("outer", 0.0, 10.0),
        _span("mid", 1.0, 7.0, parent=0),
        _span("inner", 2.0, 5.0, parent=1),
        _span("mid", 8.0, 9.0, parent=0),
    ]
    assert spans.self_times(recorded) == [3.0, 3.0, 3.0, 1.0]
    summary = spans.summarize(recorded)
    assert summary["mid"]["calls"] == 2
    assert summary["mid"]["self_s"] == 4.0
    assert summary["mid"]["total_s"] == 7.0


def test_tracer_nests_and_counts(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "time", clock)
    tracer = spans.Tracer()

    def inner(x):
        clock.now += 2.0
        return x

    traced_inner = tracer.wrap("inner", inner, lambda a, k, r: {"items": r})

    def outer():
        clock.now += 1.0
        traced_inner(3)
        traced_inner(4)
        clock.now += 1.0

    tracer.wrap("outer", outer)()
    summary = spans.summarize(tracer.spans)
    assert summary["outer"]["self_s"] == 2.0
    assert summary["inner"]["self_s"] == 4.0
    assert summary["inner"]["counts"] == {"items": 7}


def test_span_closes_when_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0][spans.END] is not None
    tracer.wrap("after", lambda: None)()
    assert tracer.spans[1][spans.PARENT] is None


def test_spans_on_two_threads_keep_their_own_parents():
    tracer = spans.Tracer()
    step = threading.Barrier(2, timeout=10)

    def inner():
        step.wait()  # both threads hold an open outer span here

    def outer():
        step.wait()
        tracer.wrap("inner", inner)()

    workers = [threading.Thread(target=tracer.wrap("outer", outer)) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=10)
    assert not any(w.is_alive() for w in workers)

    recorded = tracer.spans
    for span in recorded:
        if span[spans.NAME] == "inner":
            parent = recorded[span[spans.PARENT]]
            assert parent[spans.NAME] == "outer"
            assert parent[spans.THREAD] == span[spans.THREAD]
        else:
            assert span[spans.PARENT] is None
    assert all(t >= 0.0 for t in spans.self_times(recorded))


def test_install_wraps_caller_attributes_and_uninstall_restores():
    import clcoherence.scenarios as scenarios
    import clcoherence.spectra as spectra

    original = spectra.doc_map
    undo, missing = layers.install(spans.Tracer())
    try:
        assert missing == []
        assert scenarios.doc_map is spectra.doc_map
        assert spectra.doc_map is not original
    finally:
        layers.uninstall(undo)
    assert spectra.doc_map is original and scenarios.doc_map is original


def test_layer_metrics_write_time_is_run_scenario_self_time():
    recorded = [
        ["scenarios.run_scenario.detect", 0.0, 10.0, None, "a", 1, None],
        ["detection.noise_floor_terms", 1.0, 5.0, 0, "a", 1, {"pairs": 9}],
        ["scenarios.run_scenario.sweep", 20.0, 21.0, None, "b", 1, None],
    ]
    m = layers.layer_metrics(recorded)
    assert m["scenarios.write_s"] == 7.0
    assert m["detection.noise_floor_terms.pairs"] == 9
    assert m["scenarios.run_scenario.detect.s"] == 10.0
    assert m["oracle.rows_passed_frac"] == 0.0
    assert layers.dominant_layers(recorded)["a"][0] == ("scenarios.write", 6.0)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
