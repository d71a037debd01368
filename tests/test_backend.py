from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import re
import stat
import sys
import tempfile
import threading
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rexgot.backend import (
    SEGMENT_DIR,
    AuthError,
    CachingBackend,
    Completion,
    CompletionRequest,
    DuplicateScript,
    HTTPBackend,
    ProtocolError,
    RateLimited,
    ReplayMiss,
    ScriptedBackend,
    ScriptMiss,
    TransportError,
    _canonical_request,
    cache_key,
    purge_cache,
)


def request(**overrides):
    base = dict(prompt="what is up?", n_samples=1, temperature=0.0, max_tokens=64, model_name="m")
    base.update(overrides)
    return CompletionRequest(**base)


def test_request_invariants():
    with pytest.raises(ValueError):
        request(n_samples=0)
    with pytest.raises(ValueError):
        request(temperature=-0.1)
    with pytest.raises(ValueError):
        request(max_tokens=0)


def test_cache_key_deterministic():
    assert cache_key(request()) == cache_key(request())


def test_cache_key_sensitive_to_every_field():
    changed = dict(
        prompt="other", n_samples=2, temperature=0.5, max_tokens=65, model_name="m2", seed=3
    )
    assert sorted(changed) == sorted(field.name for field in fields(CompletionRequest))
    base = cache_key(request())
    for name, value in changed.items():
        assert cache_key(request(**{name: value})) != base, name


def test_cache_key_canonical_bytes_pinned():
    # The canonical serialization (and therefore the digest) must never
    # drift across platforms or releases: replay caches depend on it.
    req = CompletionRequest(
        prompt="pinned prompt", n_samples=2, temperature=0.5,
        max_tokens=32, model_name="pinned-model", seed=7,
    )
    assert _canonical_request(req) == (
        b'{"max_tokens":32,"model_name":"pinned-model","n_samples":2,'
        b'"prompt":"pinned prompt","seed":7,"temperature":0.5}'
    )
    assert cache_key(req) == (
        "1d5a374337e4877e1a10f899c035cf74e6610dda1338095d407103cda382705b"
    )
    # A request without a seed keys it as null.
    assert b'"seed":null' in _canonical_request(CompletionRequest(prompt="pinned prompt"))


def test_scripted_returns_registered_responses_in_order():
    backend = ScriptedBackend()
    backend.register_script(responses=["r0", "r1", "r2"], prompt="p")
    texts = [c.text for c in backend.complete(request(prompt="p", n_samples=3, temperature=0.7))]
    assert texts == ["r0", "r1", "r2"]


def test_scripted_cycles_single_response():
    backend = ScriptedBackend()
    backend.register_script(responses=["only"], prompt="p")
    texts = [c.text for c in backend.complete(request(prompt="p", n_samples=3, temperature=0.7))]
    assert texts == ["only", "only", "only"]


def test_temperature_zero_conformance():
    backend = ScriptedBackend()
    backend.register_script(responses=["first", "second"], prompt="p")
    texts = [c.text for c in backend.complete(request(prompt="p", n_samples=2, temperature=0.0))]
    assert texts == ["first", "first"]


def test_script_miss_reports_nearest_digest():
    backend = ScriptedBackend()
    backend.register_script(responses=["x"], prompt="a very specific registered prompt")
    with pytest.raises(ScriptMiss) as err:
        backend.complete(request(prompt="a very specific unregistered prompt"))
    message = str(err.value)
    assert "nearest registered" in message
    assert any(c in "0123456789abcdef" for c in message.split()[-1])


def test_register_script_requires_responses():
    backend = ScriptedBackend()
    with pytest.raises(ValueError):
        backend.register_script(responses=[], prompt="p")
    with pytest.raises(ValueError):
        backend.register_script(responses=["x"])  # neither prompt nor digest


@pytest.mark.parametrize("responses", [[5], "abc", [], ["ok", None], ["ok", "\udcff"]])
def test_scripted_responses_must_be_a_non_empty_list_of_strings(responses):
    with pytest.raises(ValueError):
        ScriptedBackend().register_script(responses=responses, prompt="p")
    with pytest.raises(ValueError):
        ScriptedBackend(default_responses=responses)


def test_register_by_digest():
    from rexgot.backend import prompt_digest

    backend = ScriptedBackend()
    backend.register_script(responses=["via digest"], digest=prompt_digest("p"))
    assert backend.complete(request(prompt="p"))[0].text == "via digest"


def test_duplicate_script_rejected():
    backend = ScriptedBackend()
    backend.register_script(responses=["x"], prompt="p")
    with pytest.raises(DuplicateScript):
        backend.register_script(responses=["y"], prompt="p")


def test_scripted_default_responses():
    backend = ScriptedBackend(default_responses=["fallback"])
    assert backend.complete(request(prompt="anything"))[0].text == "fallback"


def make_http(responses, sleeps):
    """HTTP backend over a canned transport; responses is a list of
    (status, headers, body) or exceptions to raise."""
    calls = []

    def transport(body):
        calls.append(body)
        item = responses[min(len(calls) - 1, len(responses) - 1)]
        if isinstance(item, Exception):
            raise item
        return item

    backend = HTTPBackend(
        base_url="http://example.test", transport=transport, sleeper=sleeps.append
    )
    return backend, calls


def chat_body(texts):
    return json.dumps(
        {
            "choices": [
                {"message": {"content": t}, "finish_reason": "stop"} for t in texts
            ],
            "usage": {"prompt_tokens": 5, "completion_tokens": 7},
        }
    )


def test_http_happy_path_posts_protocol_shape():
    sleeps = []
    backend, calls = make_http([(200, {}, chat_body(["hello"]))], sleeps)
    completions = backend.complete(request(prompt="hi", n_samples=1))
    assert completions[0].text == "hello"
    assert completions[0].usage == {"prompt_tokens": 5, "completion_tokens": 7}
    body = calls[0]
    assert body["messages"] == [{"role": "user", "content": "hi"}]
    assert body["n"] == 1
    assert sleeps == []


def test_http_retries_transport_errors_with_backoff():
    sleeps = []
    backend, calls = make_http(
        [TransportError("boom"), TransportError("boom"), (200, {}, chat_body(["ok"]))],
        sleeps,
    )
    assert backend.complete(request())[0].text == "ok"
    assert len(calls) == 3
    assert sleeps == [1.0, 2.0]


def test_http_gives_up_after_max_retries():
    sleeps = []
    backend, _ = make_http([TransportError("boom")], sleeps)
    with pytest.raises(TransportError):
        backend.complete(request())
    assert len(sleeps) == 3


def test_http_respects_retry_after():
    sleeps = []
    backend, _ = make_http(
        [(429, {"retry-after": "7"}, ""), (200, {}, chat_body(["ok"]))], sleeps
    )
    assert backend.complete(request())[0].text == "ok"
    assert sleeps == [7.0]


@pytest.mark.parametrize("retry_after", ["inf", "1e10", "86401"])
def test_http_out_of_range_retry_after_falls_back_to_default(retry_after):
    sleeps = []
    backend, _ = make_http(
        [(429, {"retry-after": retry_after}, ""), (200, {}, chat_body(["ok"]))], sleeps
    )
    assert backend.complete(request())[0].text == "ok"
    assert sleeps == [1.0]


def test_http_auth_error_never_retried():
    sleeps = []
    backend, calls = make_http([(401, {}, "denied")], sleeps)
    with pytest.raises(AuthError):
        backend.complete(request())
    assert len(calls) == 1
    assert sleeps == []


def test_http_status_that_is_neither_success_nor_error_is_protocol_error():
    backend, calls = make_http([(404, {}, "no such route")], [])
    with pytest.raises(ProtocolError, match="^HTTP 404: no such route$"):
        backend.complete(request())
    assert len(calls) == 1


def test_http_protocol_error_on_bad_body():
    backend, calls = make_http([(200, {}, "not json at all")], [])
    with pytest.raises(ProtocolError):
        backend.complete(request())
    assert len(calls) == 1


@pytest.mark.parametrize(
    "choices",
    [
        pytest.param(
            [{"message": {"content": None}, "finish_reason": "content_filter"}],
            id="null_content",
        ),
        pytest.param([{"message": {"content": 5}}], id="number_content"),
        pytest.param(["x"], id="string_choice"),
        pytest.param("abc", id="string_choices"),
    ],
)
def test_http_protocol_error_on_malformed_choice(choices):
    backend, calls = make_http([(200, {}, json.dumps({"choices": choices}))], [])
    with pytest.raises(ProtocolError):
        backend.complete(request())
    assert len(calls) == 1


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param(
            {"choices": [{"message": {"content": "ok"}, "finish_reason": 5}]},
            id="number_finish_reason",
        ),
        pytest.param(
            {"choices": [{"message": {"content": "ok"}}], "usage": "lots"}, id="string_usage"
        ),
        pytest.param({"choices": [{"message": {"content": "ok"}}], "usage": [1]}, id="list_usage"),
    ],
)
def test_http_protocol_error_on_malformed_finish_reason_or_usage(payload):
    backend, calls = make_http([(200, {}, json.dumps(payload))], [])
    with pytest.raises(ProtocolError):
        backend.complete(request())
    assert len(calls) == 1


LONG_INTEGER = "1" * 5000
DEEP_NESTING = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "usage", [pytest.param(LONG_INTEGER, id="long_integer"), pytest.param(DEEP_NESTING, id="deep")]
)
def test_http_protocol_error_on_usage_json_cannot_hold(usage):
    body = '{"choices": [{"message": {"content": "ok"}}], "usage": %s}' % usage
    backend, calls = make_http([(200, {}, body)], [])
    with pytest.raises(ProtocolError, match="unexpected response shape"):
        backend.complete(request())
    assert len(calls) == 1


def test_http_protocol_error_on_partial_choices():
    backend, _ = make_http([(200, {}, chat_body(["only one"]))], [])
    with pytest.raises(ProtocolError):
        backend.complete(request(n_samples=3, temperature=0.7))


def test_http_5xx_is_transport_error():
    backend, _ = make_http([(500, {}, "oops"), (200, {}, chat_body(["ok"]))], [])
    assert backend.complete(request())[0].text == "ok"


class CountingBackend:
    def __init__(self, response="inner response"):
        self.calls = 0
        self.response = response

    def complete(self, req):
        self.calls += 1
        return [Completion(text=self.response)] * req.n_samples


def segments(cache_dir):
    return sorted((cache_dir / SEGMENT_DIR).glob("*.jsonl"))


def segment_lines(cache_dir):
    return [line for path in segments(cache_dir) for line in path.read_bytes().splitlines(True)]


def test_record_then_replay_hits_cache(tmp_path):
    inner = CountingBackend()
    recorder = CachingBackend(inner, tmp_path / "cache")
    req = request(prompt="cache me")
    first = recorder.complete(req)
    second = recorder.complete(req)
    assert inner.calls == 1
    assert first == second

    replayer = CachingBackend(None, tmp_path / "cache")
    assert replayer.complete(req) == first


def test_replay_never_touches_inner(tmp_path):
    inner = CountingBackend()
    recorded = CachingBackend(inner, tmp_path / "cache").complete(request(prompt="x"))
    assert inner.calls == 1

    replayer = CachingBackend(None, tmp_path / "cache")
    assert replayer.complete(request(prompt="x")) == recorded
    with pytest.raises(ReplayMiss):
        replayer.complete(request(prompt="never recorded"))


def test_replay_of_a_missing_directory_is_refused_at_construction(tmp_path):
    missing = tmp_path / "no-such-dir"
    message = f"replay mode requires an existing cache directory, {str(missing)!r} is missing"
    with pytest.raises(ValueError) as caught:
        CachingBackend(None, missing)
    assert str(caught.value) == message
    assert list(tmp_path.iterdir()) == []


def test_replay_of_a_directory_without_segments_is_refused_at_construction(tmp_path):
    cache_dir = tmp_path / "cache"
    (cache_dir / "ab").mkdir(parents=True)  # the old one-file-per-entry layout
    (cache_dir / SEGMENT_DIR).mkdir()
    message = (
        f"cache directory {str(cache_dir)!r} holds no {SEGMENT_DIR} segments; "
        f"a cache recorded in an older layout must be re-recorded"
    )
    with pytest.raises(ValueError) as caught:
        CachingBackend(None, str(cache_dir))
    assert str(caught.value) == message
    assert sorted(cache_dir.rglob("*")) == [cache_dir / "ab", cache_dir / SEGMENT_DIR]


def test_cache_layout_is_one_segment_per_backend(tmp_path):
    cache_dir = tmp_path / "cache"
    first = [request(), request(prompt="other")]
    recorder = CachingBackend(CountingBackend(), cache_dir)
    for req in first:
        recorder.complete(req)
    # A new key or line format bumps SEGMENT_DIR, the layout's version.
    assert list(cache_dir.iterdir()) == [cache_dir / SEGMENT_DIR]
    [segment] = segments(cache_dir)
    assert re.fullmatch(rf"{os.getpid()}-[0-9a-f]{{16}}\.jsonl", segment.name)
    heads = [line[:77] for line in segment.read_bytes().splitlines(True)]
    assert heads == [f'{{"digest":"{cache_key(req)}",'.encode() for req in first]

    CachingBackend(CountingBackend(), cache_dir).complete(request(prompt="third"))
    assert len(segments(cache_dir)) == 2
    assert segment.read_bytes().count(b"\n") == 2


def test_cache_files_are_diffable_json(tmp_path):
    cache_dir = tmp_path / "cache"
    requests = [request(), request(prompt="line\nbreak \u2028 \u00e9", n_samples=2)]
    recorder = CachingBackend(CountingBackend(), cache_dir)
    for req in requests:
        recorder.complete(req)
    lines = segment_lines(cache_dir)
    assert len(lines) == 2
    for req, line in zip(requests, lines):
        payload = json.loads(line)
        assert payload == {
            "digest": cache_key(req),
            "request": json.loads(_canonical_request(req)),
            "completions": [
                {"text": "inner response", "finish_reason": "stop", "usage": None}
            ] * req.n_samples,
        }
        # One compact line: the digest first, then every other key in sorted order.
        rest = {key: payload[key] for key in ("completions", "request")}
        body = json.dumps(rest, sort_keys=True, separators=(",", ":"))
        assert line == f'{{"digest":"{cache_key(req)}",{body[1:]}\n'.encode("ascii")


@pytest.mark.parametrize("finish_reason", ["stop", "length", "content_filter", "error", None])
def test_finish_reason_survives_record_and_replay(tmp_path, finish_reason):
    usage = {"prompt_tokens": 5, "completion_tokens": 7}
    reply = {"choices": [{"message": {"content": "ok"}, "finish_reason": finish_reason}],
             "usage": usage}
    inner, _ = make_http([(200, {}, json.dumps(reply))], [])
    cache_dir = tmp_path / "cache"
    recorded = CachingBackend(inner, cache_dir).complete(request())
    assert recorded == [Completion(text="ok", finish_reason=finish_reason, usage=usage)]
    [line] = segment_lines(cache_dir)
    assert f'"finish_reason":{json.dumps(finish_reason)},'.encode() in line
    assert CachingBackend(None, cache_dir).complete(request()) == recorded


def test_unknown_finish_reason_in_a_cache_line_is_kept(tmp_path):
    cache_dir = tmp_path / "cache"
    CachingBackend(CountingBackend(), cache_dir).complete(request())
    [segment] = segments(cache_dir)
    segment.write_bytes(segment.read_bytes().replace(b'"stop"', b'"weird"'))
    [completion] = CachingBackend(None, cache_dir).complete(request())
    assert completion.finish_reason == "weird"


def test_concurrent_complete_calls(tmp_path):
    backend = CachingBackend(CountingBackend(), tmp_path / "cache")
    errors = []

    def worker(i):
        try:
            backend.complete(request(prompt=f"p{i % 4}"))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


def test_purge_cache(tmp_path):
    cache_dir = tmp_path / "cache"
    recorders = [CachingBackend(CountingBackend(), cache_dir) for _ in range(2)]
    for recorder in recorders:
        recorder.complete(request(prompt="a"))
    recorders[0].complete(request(prompt="b"))
    # The same entry in a second segment is one cached completion, not two.
    assert len(segments(cache_dir)) == 2
    assert purge_cache(cache_dir) == 2
    assert not (cache_dir / SEGMENT_DIR).exists()
    assert purge_cache(cache_dir) == 0
    CachingBackend(CountingBackend(), cache_dir).complete(request(prompt="c"))
    with pytest.raises(ReplayMiss):
        CachingBackend(None, cache_dir).complete(request(prompt="a"))


class ThreadNameBackend:
    """Answers every request with the name of the thread that asked."""

    def complete(self, req):
        return [Completion(text=threading.current_thread().name)] * req.n_samples


def test_cache_writers_sharing_a_directory_need_no_lock(tmp_path):
    cache_dir = tmp_path / "cache"
    backends = [CachingBackend(ThreadNameBackend(), cache_dir) for _ in range(2)]
    requests = [request(prompt=f"p{n}") for n in range(20)]
    start = threading.Barrier(16)
    errors = []

    def writer(i):
        backend = backends[i // 4 % 2]
        start.wait(timeout=10)
        try:
            for req in requests:  # the same order in every thread, so misses collide
                backend.complete(req)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=writer, args=(i,), name=f"w{i}") for i in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    # Each backend wrote one whole line per digest to a segment of its own.
    digests = sorted(cache_key(req) for req in requests)
    for path in segments(cache_dir):
        entries = [json.loads(line) for line in path.read_bytes().splitlines()]
        assert sorted(entry["digest"] for entry in entries) == digests
    assert len(segments(cache_dir)) == 2
    writers = {f"w{i}" for i in range(16)}
    replayer = CachingBackend(None, cache_dir)
    first = {entry["digest"]: entry for entry in map(json.loads, segment_lines(cache_dir)[:20])}
    for req in requests:
        [served] = replayer.complete(req)
        assert served.text in writers
        assert served.text == first[cache_key(req)]["completions"][0]["text"]
    assert list(cache_dir.rglob("*.tmp")) == []


def test_concurrent_misses_of_one_request_store_one_entry(tmp_path):
    both_asked = threading.Barrier(2, timeout=10)

    class RendezvousBackend:
        def complete(self, req):
            both_asked.wait()
            return [Completion(text=threading.current_thread().name)]

    backend = CachingBackend(RendezvousBackend(), tmp_path / "cache")
    req = request(temperature=0.7)
    threads = [
        threading.Thread(target=backend.complete, args=(req,), name=f"t{i}") for i in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    [line] = segment_lines(tmp_path / "cache")
    [stored] = json.loads(line)["completions"]
    assert backend.complete(req) == [Completion(text=stored["text"])]


def test_store_into_missing_version_dir_creates_it(tmp_path):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    CachingBackend(CountingBackend(), cache_dir).complete(request())
    assert (cache_dir / SEGMENT_DIR).is_dir()
    assert len(segments(cache_dir)) == 1
    # A cache directory that does not exist yet is created too.
    missing = tmp_path / "new" / "cache"
    CachingBackend(CountingBackend(), missing).complete(request())
    assert len(segments(missing)) == 1


def test_cache_entry_mode_follows_umask(tmp_path):
    old = os.umask(0o027)
    try:
        CachingBackend(CountingBackend(), tmp_path / "cache").complete(request())
    finally:
        os.umask(old)
    [segment] = segments(tmp_path / "cache")
    assert stat.S_IMODE(segment.stat().st_mode) == 0o666 & ~0o027


def test_store_leaves_no_temp_file_on_success_or_failure(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    backend = CachingBackend(CountingBackend(), cache_dir)
    backend.complete(request(prompt="kept"))
    [segment] = segments(cache_dir)
    kept_bytes = segment.read_bytes()
    real_write = os.write

    def write_half_then_fail(fd, data):
        if fd != backend._segment:
            return real_write(fd, data)
        real_write(fd, bytes(data[: len(data) // 2]))
        raise OSError("disk full")

    monkeypatch.setattr(os, "write", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        backend.complete(request(prompt="lost"))
    monkeypatch.undo()
    # The cut-off half was taken back, so the next entry starts a line of its own.
    assert segment.read_bytes() == kept_bytes
    backend.complete(request(prompt="after"))
    assert list(cache_dir.rglob("*.tmp")) == []
    assert segments(cache_dir) == [segment]
    replayer = CachingBackend(None, cache_dir)
    assert all(replayer.contains(cache_key(request(prompt=p))) for p in ("kept", "after"))
    assert not replayer.contains(cache_key(request(prompt="lost")))


def test_contains_probes_hits_without_a_lookup(tmp_path):
    cache_dir = tmp_path / "cache"
    inner = CountingBackend()
    recorder = CachingBackend(inner, cache_dir)
    digest = cache_key(request())
    assert not recorder.contains(digest)
    recorder.complete(request())
    assert recorder.contains(digest)
    assert not recorder.contains(cache_key(request(prompt="never recorded")))
    replayer = CachingBackend(None, cache_dir)
    assert replayer.contains(digest)
    assert inner.calls == 1


class EchoBackend:
    def complete(self, req):
        return [Completion(text=req.prompt[::-1])] * req.n_samples


def test_entries_longer_than_a_read_buffer_replay_whole(tmp_path):
    cache_dir = tmp_path / "cache"
    # Lines from a few bytes to well over the scan's 64 KiB reads, so they cross its buffers.
    prompts = [f"{i}:" + "ab\u00e9\n" * size for i, size in enumerate((1, 9000, 40000, 5, 7000))]
    recorder = CachingBackend(EchoBackend(), cache_dir)
    for prompt in prompts:
        recorder.complete(request(prompt=prompt))
    replayer = CachingBackend(None, cache_dir)
    for prompt in prompts:
        assert replayer.complete(request(prompt=prompt)) == [Completion(text=prompt[::-1])]
    assert purge_cache(cache_dir) == len(prompts)


def test_torn_final_line_is_skipped_and_never_served(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    recorder = CachingBackend(CountingBackend(), cache_dir)
    for prompt in ("kept", "torn"):
        recorder.complete(request(prompt=prompt))
    [segment] = segments(cache_dir)
    kept_line, torn_line = segment.read_bytes().splitlines(True)
    segment.write_bytes(kept_line + torn_line[:-2])  # cut off before "}\n"
    replayer = CachingBackend(None, cache_dir)
    assert f"{segment.name}: skipped 1 " in capsys.readouterr().err
    assert replayer.complete(request(prompt="kept")) == [Completion(text="inner response")]
    assert not replayer.contains(cache_key(request(prompt="torn")))
    with pytest.raises(ReplayMiss):
        replayer.complete(request(prompt="torn"))
    # A recorder stores the entry again, in a new segment, not after the cut-off line.
    inner = CountingBackend("again")
    CachingBackend(inner, cache_dir).complete(request(prompt="torn"))
    assert inner.calls == 1
    assert segment.read_bytes() == kept_line + torn_line[:-2]
    again = CachingBackend(None, cache_dir).complete(request(prompt="torn"))
    assert again == [Completion(text="again")]


def test_foreign_lines_are_skipped_and_counted(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    CachingBackend(CountingBackend(), cache_dir).complete(request())
    [segment] = segments(cache_dir)
    [line] = segment.read_bytes().splitlines(True)
    foreign = [b"\n", b'{"digest":"not hex"}\n', line.upper(), b"garbage\n"]
    segment.write_bytes(b"".join(foreign[:2] + [line] + foreign[2:]))
    replayer = CachingBackend(None, cache_dir)
    assert f"cache segment {segment.name}: skipped 4 " in capsys.readouterr().err
    assert replayer.complete(request()) == [Completion(text="inner response")]


def test_replay_picks_the_same_entry_when_segments_disagree(tmp_path):
    cache_dir = tmp_path / "cache"
    recorders = {
        text: CachingBackend(CountingBackend(text), cache_dir)
        for text in ("first", "second")
    }
    for recorder in recorders.values():
        recorder.complete(request())
    # Sorted segment names decide, not the order the segments were written in.
    [segment] = [p for p in segments(cache_dir) if b'"second"' in p.read_bytes()]
    segment.rename(segment.with_name(f"0-{segment.name}"))
    for _ in range(3):
        replayer = CachingBackend(None, cache_dir)
        assert replayer.complete(request()) == [Completion(text="second")]
        replayer.close()


# Prompts of recorded entries: short, non-ASCII, and lines over one and over
# three of the scan's 64 KiB buffers. Each is recorded with two replies.
SCAN_PROMPTS = ["a", "b\u00e9", "c" * 70_000, "d\n" * 70_000]
SCAN_REPLIES = ["reply 0", "reply 1"]


@functools.cache
def recorded_lines():
    """{(prompt index, reply index): the entry line a recorder writes, without its newline}."""
    lines = {}
    with tempfile.TemporaryDirectory() as tmp:
        for r, reply in enumerate(SCAN_REPLIES):
            cache_dir = Path(tmp) / reply
            recorder = CachingBackend(CountingBackend(reply), cache_dir)
            for prompt in SCAN_PROMPTS:
                recorder.complete(request(prompt=prompt))
            recorder.close()
            for p, line in enumerate(segment_lines(cache_dir)):
                lines[p, r] = line.rstrip(b"\n")
    return lines


@st.composite
def segment_items(draw):
    """(prompt index or None, outcome, bytes of one line without its newline).

    The outcome is the reply index an entry serves, "malformed body" for a
    line the scan keeps but no lookup can decode, or None for a line the scan
    must skip.
    """
    p = draw(st.integers(0, len(SCAN_PROMPTS) - 1))
    r = draw(st.integers(0, len(SCAN_REPLIES) - 1))
    line = recorded_lines()[p, r]
    # Whole entries come twice as often as each kind of damage.
    kind = draw(st.sampled_from(["entry", "entry", "torn", "malformed body", "garbage"]))
    if kind == "entry":
        return p, r, line
    if kind == "torn":  # cut off anywhere before its closing brace
        return None, None, line[: draw(st.integers(1, len(line) - 1))].rstrip(b"}")
    if kind == "malformed body":
        return p, kind, line[: line.index(b",") + 1] + b'"completions":oops}'
    foreign = [b"", b"}", b"cut\roff", b'{"digest":"not hex"}', line.upper(), line[:90]]
    garbage = draw(st.one_of(
        st.sampled_from(foreign),
        st.binary(max_size=40).map(lambda b: b.replace(b"\n", b"").rstrip(b"}")),
    ))
    return None, None, garbage


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    contents=st.lists(st.lists(segment_items(), max_size=6), min_size=1, max_size=2),
    final_newlines=st.lists(st.booleans(), min_size=2, max_size=2),
)
def test_segment_scan_keeps_every_whole_entry_and_skips_the_rest(contents, final_newlines):
    served, skipped, digests = {}, {}, set()  # what the segments' lines promise, in order
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(tmp) / "cache"
        (cache_dir / SEGMENT_DIR).mkdir(parents=True)
        for name, items, final_newline in zip("ab", contents, final_newlines):
            lines = [line + b"\n" for _, _, line in items]
            if lines and not final_newline:
                lines[-1] = lines[-1][:-1]
            (cache_dir / SEGMENT_DIR / f"{name}.jsonl").write_bytes(b"".join(lines))
            skipped[name] = 0
            for (p, outcome, _), line in zip(items, lines):
                if outcome is not None and line.endswith(b"\n"):
                    served.setdefault(p, outcome)
                    digests.add(p)
                elif line:
                    skipped[name] += 1
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            replayer = CachingBackend(None, cache_dir)
        try:
            assert err.getvalue() == "".join(
                f"rexgot: cache segment {name}.jsonl: skipped {n} cut-off or malformed line(s)\n"
                for name, n in skipped.items() if n
            )
            for p, prompt in enumerate(SCAN_PROMPTS):
                assert replayer.contains(cache_key(request(prompt=prompt))) == (p in served)
                if p not in served:
                    with pytest.raises(ReplayMiss):
                        replayer.complete(request(prompt=prompt))
                elif served[p] == "malformed body":
                    with pytest.raises(ProtocolError):
                        replayer.complete(request(prompt=prompt))
                else:
                    reply = SCAN_REPLIES[served[p]]
                    assert replayer.complete(request(prompt=prompt)) == [Completion(text=reply)]
        finally:
            replayer.close()
        assert purge_cache(cache_dir) == len(digests)
        assert not (cache_dir / SEGMENT_DIR).exists()


def test_record_of_cache_hits_creates_no_segment(tmp_path):
    cache_dir = tmp_path / "cache"
    CachingBackend(CountingBackend(), cache_dir).complete(request())
    before = segments(cache_dir)
    inner = CountingBackend()
    assert CachingBackend(inner, cache_dir).complete(request())
    assert inner.calls == 0
    assert segments(cache_dir) == before


def test_replay_miss_creates_nothing(tmp_path):
    cache_dir = tmp_path / "cache"
    CachingBackend(CountingBackend(), cache_dir).complete(request(prompt="recorded"))
    before = {path: path.read_bytes() for path in cache_dir.rglob("*") if path.is_file()}
    with pytest.raises(ReplayMiss):
        CachingBackend(None, cache_dir).complete(request())
    after = {path: path.read_bytes() for path in cache_dir.rglob("*") if path.is_file()}
    assert after == before


def test_request_is_serialized_once_per_call(tmp_path, monkeypatch):
    import rexgot.backend as backend_module

    serialized = []
    canonical = backend_module._canonical_request
    monkeypatch.setattr(
        backend_module, "_canonical_request", lambda req: serialized.append(req) or canonical(req)
    )
    backend = CachingBackend(CountingBackend(), tmp_path / "cache")
    req = request(prompt="once")
    backend.complete(req)
    assert len(serialized) == 1
    [line] = segment_lines(tmp_path / "cache")
    stored = json.loads(line)
    assert stored["request"] == json.loads(canonical(req))
