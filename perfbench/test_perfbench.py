"""Tests of the caller-side HTTP benchmark's own arithmetic, checks and runs."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import perf_run  # noqa: E402
from perf_client import percentile  # noqa: E402
from perf_layers import LAYER_MAP, SPAN_TARGETS  # noqa: E402
from perf_tracer import Span, Tracer, install, self_times, totals_by_name  # noqa: E402
from perf_workloads import WORKLOADS, build, check_responses  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- span arithmetic -------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, -1, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 1, "leaf", 2.0, 3.0),
        Span(3, 0, "b", 5.0, 9.0),
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    totals = totals_by_name(spans)
    assert sum(self_s for _, self_s, _ in totals.values()) == pytest.approx(10.0)
    assert totals["a"] == (1, 2.0, 3.0)


def test_recursive_span_counts_once_in_inclusive_total():
    spans = [Span(0, -1, "f", 0.0, 4.0), Span(1, 0, "f", 1.0, 3.0)]
    calls, self_s, inclusive = totals_by_name(spans)["f"]
    assert (calls, self_s, inclusive) == (2, 4.0, 4.0)


def test_tracer_nests_spans_per_thread():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()
    inner()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (outer_span,) = by_name["outer"]
    assert sorted(s.parent for s in by_name["inner"]) == [-1, outer_span.id]


@pytest.fixture
def fake_program():
    """Two throwaway ``repro.*`` modules: one defines, one imports by name."""

    def work(x):
        return x + 1

    class Engine:
        def run(self, x):
            return work(x)

    class Child(Engine):
        pass

    defining = types.ModuleType("repro._perfbench_fake_a")
    defining.work = work
    defining.Engine = Engine
    defining.Child = Child
    caller = types.ModuleType("repro._perfbench_fake_b")
    caller.work = work  # ``from repro._perfbench_fake_a import work``
    sys.modules[defining.__name__] = defining
    sys.modules[caller.__name__] = caller
    yield defining, caller
    del sys.modules[defining.__name__], sys.modules[caller.__name__]


def test_install_wraps_every_binding_and_tolerates_missing_targets(fake_program):
    defining, caller = fake_program
    tracer = Tracer()
    missing = install(
        tracer,
        {
            "work": ("repro._perfbench_fake_a:work",),
            "engine": ("repro._perfbench_fake_a:Child.run", "repro._perfbench_fake_a:Gone.run"),
            "gone": ("repro._perfbench_no_such_module:f",),
        },
    )
    assert sorted(missing) == ["repro._perfbench_fake_a:Gone.run", "repro._perfbench_no_such_module:f"]
    assert caller.work is defining.work and caller.work(1) == 2
    assert defining.Engine().run(1) == 2  # method patched on the defining base class
    totals = totals_by_name(tracer.spans)
    assert totals["work"][0] == 1 and totals["engine"][0] == 1
    assert "gone" not in totals  # reports 0 calls instead of failing
    install(tracer, {"work": ("repro._perfbench_fake_a:work",)})
    tracer.clear()
    caller.work(1)
    assert len(tracer.spans) == 1  # never wrapped twice


# -- percentile rule -------------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    assert percentile(list(range(1, 101)), 90) == 90
    assert percentile(list(range(1, 201)), 90) == 180


def test_p90_is_omitted_below_100_successes():
    metrics = perf_run.end_to_end_metrics(
        [1.0], [0.01] * 99, 1.0, 99, {"cpu_s": 0.0, "maxrss_mb": 1.0}, {"cpu_s": 1.0, "maxrss_mb": 1.0}
    )
    assert "latency_p90_ms" not in metrics
    assert "latency_p50_ms" in metrics


# -- output checks ---------------------------------------------------------------


def _served(workload, doc_index):
    """The server's response to one document, computed in-process."""
    from repro.core.api import QTDAService, request_from_dict

    document = workload.documents[doc_index]
    with QTDAService() as service:
        data = service.run(request_from_dict(json.loads(document.body))).as_dict()
    data["coalesced"] = False
    return data


def _encode(data):
    return json.dumps(data).encode("utf-8")


def test_wrong_payload_is_a_failure():
    workload = build("cloud-exact", seed=5, seconds=0.01, min_requests=2)
    good = _served(workload, 0)
    assert check_responses(workload, [(0, 200, 0.1, _encode(good))]) == [None]

    wrong_betti = json.loads(json.dumps(good))
    wrong_betti["payload"]["exact_betti"] += 1
    changed_repeat = json.loads(json.dumps(good))
    changed_repeat["payload"]["p_zero"] += 0.5
    other_request = _served(workload, 1)
    reasons = check_responses(
        workload,
        [
            (0, 200, 0.1, _encode(wrong_betti)),
            (0, 200, 0.1, _encode(good)),
            (0, 200, 0.1, _encode(changed_repeat)),
            (0, 200, 0.1, _encode(other_request)),
            (0, 200, 0.1, b"{not json"),
            (0, 503, 0.1, b"{}"),
            (0, None, 0.1, b"ConnectionResetError()"),
        ],
    )
    assert reasons[0] is not None and "oracle" in reasons[0]
    assert reasons[1] is None
    assert reasons[2] == "repeat differs from the first response"
    assert reasons[3] == "request echo differs from the document sent"
    assert all(reasons[4:])


def test_workload_inputs_follow_the_seed():
    first = build("service-mix", seed=3, seconds=0.01, min_requests=20)
    again = build("service-mix", seed=3, seconds=0.01, min_requests=20)
    other = build("service-mix", seed=4, seconds=0.01, min_requests=20)
    assert [d.body for d in first.documents] == [d.body for d in again.documents]
    assert first.schedule == again.schedule
    assert [d.body for d in first.documents] != [d.body for d in other.documents]


# -- BENCHMARK.json and tiny runs --------------------------------------------------


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == perf_run.END_TO_END_UNITS
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    assert {f"{name}_ms" for name in SPAN_TARGETS} <= per_layer
    assert set(LAYER_MAP) <= per_layer


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct(workload):
    result = perf_run.run(workload, seed=7, seconds=0.01, trace=False, min_requests=6, setup_repeats=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    expected = set(perf_run.END_TO_END_UNITS) - {"latency_p90_ms"}  # p90 needs 100 successes
    assert set(result["metrics"]) == expected
    assert all(value > 0 for name, value in result["metrics"].items() if name != "server_cpu_ms_per_req")


def test_tiny_traced_run_reports_every_layer_metric():
    result = perf_run.run("service-mix", seed=7, seconds=0.01, trace=True, min_requests=12)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["serve.server_ms.calls"] == 1.0
