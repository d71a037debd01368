"""Tests for the benchmark's own code: generator, stub, oracle and span arithmetic.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import http.client
import json
import threading
from pathlib import Path

import pytest

import corpus
import fakellm
import run
import stub
from spans import Span, SpanTree, Tracer, covered, percentile

from rexgot.backend import Completion
from rexgot.model import Strategy, validate_instance
from rexgot.prompts import PromptKind, render_prompt
from rexgot.reasoner import ReasonerConfig, run_strategy

SHAPE = corpus.Shape(turns=(6, 10), ms=(4, 5), gold_sizes=(1, 2, 3))


def test_generator_is_deterministic_per_seed():
    first = corpus.generate(7, "s", 20, SHAPE)
    assert first == corpus.generate(7, "s", 20, SHAPE)
    assert first != corpus.generate(8, "s", 20, SHAPE)
    assert first != corpus.generate(7, "t", 20, SHAPE)


def test_generator_mix_is_exact():
    records = corpus.generate(3, "mix", 20, SHAPE)
    traits = [
        fakellm.traits(3, r["dialogue"][r["target_index"]]["text"], tuple(r["options"]))
        for r in records
    ]
    assert sum(t.oracle for t in traits) == 16
    assert sum(t.same_step1 for t in traits) == 8
    assert sum(t.flipped is not None for t in traits) == 2
    assert sorted({len(r["options"]) for r in records}) == [4, 5]
    for record in records:
        assert 1 <= len(record["answers"]) < len(record["options"])
        validate_instance(record)


def _prompts(record: dict) -> list[str]:
    instance = validate_instance(record)
    a1 = "Option B does not fit.\nExcluded: B"
    return [
        render_prompt(instance, PromptKind.STEP1_EXCLUSION),
        render_prompt(instance, PromptKind.STEP2_VERDICT, a1=a1, option_index=1),
        render_prompt(
            instance, PromptKind.STEP3_COMBINE, a1=a1, a2={i: "ok" for i in range(instance.m)}
        ),
        render_prompt(instance, PromptKind.STANDARD),
        render_prompt(instance, PromptKind.VANILLA_COT),
        render_prompt(instance, PromptKind.FORWARD_PICK, taken=[0]),
        render_prompt(instance, PromptKind.BACKWARD_PICK, taken=[0, 2]),
    ]


def _requests(records: list[dict]) -> list[dict]:
    requests = []
    for record in records:
        for prompt in _prompts(record):
            for n, temperature in ((1, 0.0), (3, 0.7)):
                requests.append(
                    {
                        "model": "",
                        "messages": [{"role": "user", "content": prompt}],
                        "temperature": temperature,
                        "n": n,
                        "max_tokens": 512,
                    }
                )
    return requests


def test_stub_reads_every_prompt_kind():
    record = corpus.generate(1, "kinds", 1, SHAPE)[0]
    kinds = [fakellm.read_prompt(p).kind for p in _prompts(record)]
    assert kinds == ["step1", "step2", "step3", "standard", "cot", "forward", "backward"]
    views = [fakellm.read_prompt(p) for p in _prompts(record)]
    assert views[1].option_index == 1
    assert views[5].taken == {0} and views[6].taken == {0, 2}
    assert all(v.options == tuple(record["options"]) for v in views)


@pytest.fixture
def server():
    srv = stub.StubServer(seed=5, latency_s=0.001)
    thread = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def _post_all(port: int, requests: list[dict]) -> list[bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    bodies = []
    try:
        for request in requests:
            conn.request(
                "POST", stub.COMPLETIONS_PATH, body=json.dumps(request),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 200
            assert int(response.getheader("X-Stub-Service-Us")) >= 1000
            bodies.append(response.read())
    finally:
        conn.close()
    return bodies


def test_stub_bytes_do_not_depend_on_request_order(server):
    requests = _requests(corpus.generate(5, "order", 3, SHAPE))
    port = server.server_address[1]
    forward = _post_all(port, requests)
    backward = _post_all(port, requests[::-1])[::-1]
    assert forward == backward
    assert forward == [fakellm.reply(r, 5).body for r in requests]
    stats = server.counters.snapshot(reset=True)
    assert stats["requests"] == 2 * len(requests)
    assert stats["connections"] == 2  # keep-alive: one per client connection
    assert stats["max_in_flight"] == 1
    body = json.loads(forward[1])
    assert len(body["choices"]) == 3
    assert body["usage"]["prompt_tokens"] == fakellm.estimate_tokens(
        requests[1]["messages"][0]["content"]
    )


class FakeModelBackend:
    """The simulated model without HTTP, for checking the oracle in-process."""

    def __init__(self, seed: int):
        self.seed = seed

    def complete(self, request):
        body = {
            "messages": [{"role": "user", "content": request.prompt}],
            "n": request.n_samples,
            "temperature": request.temperature,
        }
        choices = json.loads(fakellm.reply(body, self.seed).body)["choices"]
        return [Completion(text=c["message"]["content"]) for c in choices]


@pytest.mark.parametrize("strategy", list(Strategy))
def test_oracle_instances_get_gold_under_every_strategy(strategy):
    records = corpus.generate(9, "oracle", 10, SHAPE)
    backend = FakeModelBackend(9)
    config = ReasonerConfig(k=3)
    oracle = 0
    for record in records:
        gold = corpus.oracle_gold(9, record)
        if gold is None:
            continue
        oracle += 1
        prediction = run_strategy(validate_instance(record), strategy, backend, config)
        assert prediction.chosen == gold
    assert oracle == 8


def test_percentile_interpolates():
    assert percentile([], 50) == 0.0
    assert percentile([5.0], 99) == 5.0
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 100) == 4.0
    assert percentile(range(1, 102), 90) == 91.0
    assert percentile([0.0, 10.0], 99) == pytest.approx(9.9)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(id=1, name="root", start=0.0, end=10.0),
        Span(id=2, name="a", start=1.0, end=4.0, parent=1),
        Span(id=3, name="b", start=3.0, end=6.0, parent=1),
        Span(id=4, name="c", start=8.0, end=12.0, parent=1),  # runs past its parent
        Span(id=5, name="grandchild", start=1.5, end=2.0, parent=2),
        Span(id=6, name="inside", start=2.0, end=3.0, parent=1),  # nested in a
    ]
    tree = SpanTree(spans)
    root, a = spans[0], spans[1]
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0), (2.0, 3.0)]) == 7.0
    assert covered(0.0, 1.0, [(2.0, 3.0)]) == 0.0
    assert tree.self_time(root) == pytest.approx(3.0)
    assert tree.self_time(a) == pytest.approx(2.5)
    assert [k.name for k in tree.kids(root, ["a", "c"])] == ["a", "c"]


def test_tracer_keeps_spans_from_threads_without_parent():
    tracer = Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    traced_leaf = tracer.wrap("leaf", leaf, after=lambda r: {"value": r})

    def root(request_id):
        worker = threading.Thread(target=traced_leaf, args=(2,))
        worker.start()
        worker.join(timeout=10)
        assert traced_leaf(1) == 1
        with pytest.raises(ValueError):
            traced_leaf(-1)

    tracer.wrap("root", root, request=lambda rid: rid)("req-1")
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root_span,) = by_name["root"]
    leaves = sorted(by_name["leaf"], key=lambda s: s.start)
    assert len(leaves) == 3
    assert all(s.parent == root_span.id for s in leaves)
    assert [s.orphan for s in leaves] == [True, False, False]
    assert [s.request for s in leaves] == ["req-1"] * 3
    assert leaves[2].error == "ValueError"
    assert leaves[1].attrs == {"value": 1}


def test_reconcile_reads_misses_off_the_hit_attribute():
    wl = run.WORKLOADS["rex_http_record"]
    spans = [
        # A miss whose inner call ran on another thread: no backend.http child.
        Span(id=1, name="backend.cache", start=0.0, end=1.0, attrs={"hit": False}),
        Span(id=2, name="backend.http", start=0.2, end=0.8, orphan=True),
        Span(id=3, name="backend.cache", start=1.0, end=1.1, attrs={"hit": True}),
    ]
    run.reconcile({"spans": spans, "stub": {"requests": 1}}, wl)
    with pytest.raises(run.CheckFailed, match="HTTPBackend.complete ran 1"):
        run.reconcile({"spans": spans, "stub": {"requests": 2}}, wl)
    spans[2].attrs["hit"] = False
    with pytest.raises(run.CheckFailed, match="2 inner-backend calls were due"):
        run.reconcile({"spans": spans, "stub": {"requests": 1}}, wl)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text("utf-8"))
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
