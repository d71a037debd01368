"""Offline end-to-end benchmark for ``rexgot``.

Usage::

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload drives the real ``rexgot run`` path (``rexgot.cli.main``),
each run in a fresh interpreter (``child.py``) with ``--workers 2``, in a
closed loop: the next run starts when the last one has finished. The
``http`` backend talks to ``stub.py``, a fake chat-completions server in
its own process on 127.0.0.1, or replays a cache recorded against it
during set-up. The seed fixes the generated corpora and the stub's
replies; ``rexgot`` sees only those.

With ``--trace 0`` every end-to-end metric is measured with tracing off,
and set-up time also from ``SETUP_PROBES`` extra starts of ``rexgot``
that stop at the first instance; with ``--trace 1`` runs alternate
untraced and traced over the same corpus, and the spans give the
per-layer metrics and the tracing overhead. Every run's outputs are
checked; a failed check makes the result ``"correct": false`` and the
exit status 1. The last line printed is the JSON result; a result file
with the workload's measured properties goes to
``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import corpus
import fakellm
from spans import SpanTree, covered, load, percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKERS = 2
RECORD_WORKERS = 16
SETUP_PROBES = 20  # extra starts of rexgot per run that stop at the first instance
CHILD_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    name: str
    strategies: tuple[str, ...]  # run in turn, one per invocation
    shape: corpus.Shape
    instances: int  # per corpus
    k: int = 3
    cache_mode: str = "off"  # off, record (fresh cache per run) or replay
    max_prompt_tokens: int | None = None
    fixed_invocations: int = 1  # always run; quality is scored over these

    @property
    def round_size(self) -> int:
        """Invocations per round: one of each strategy."""
        return len(self.strategies)


WORKLOADS = {
    # Latency-bound: 1 + K(m+1) = 31 dependent calls per instance, plus retries.
    # Most work in reasoner orchestration, HTTP and cache writes; no trimming.
    "rex_http_record": Workload(
        name="rex_http_record",
        strategies=("rex_got",),
        shape=corpus.Shape(turns=(6, 10), ms=(5,), gold_sizes=(1, 2, 3)),
        instances=20,
        k=5,
        cache_mode="record",
        fixed_invocations=5,  # 100 latency samples, so ten lie beyond p90
    ),
    # Chains of 1..m single-sample calls, no duplicates, no cache: per-call
    # HTTP overhead shows; fan-out and dedup have nothing to act on.
    "baselines_http": Workload(
        name="baselines_http",
        strategies=("standard", "cot", "forward", "backward"),
        shape=corpus.Shape(turns=(6, 10), ms=(4, 5), gold_sizes=(1, 2, 3)),
        instances=80,
        fixed_invocations=4,
    ),
    # CPU-bound replay of long dialogues: prompt trimming, cache reads,
    # parsing and trace/report writing; hiding latency cannot help here.
    # Left out of BENCHMARK.json: on a shared 2-vCPU machine its wall-time
    # figures moved by up to 40 % from run to run with the host's load.
    "rex_replay_long": Workload(
        name="rex_replay_long",
        strategies=("rex_got",),
        shape=corpus.Shape(turns=(36, 44), ms=(5,), gold_sizes=(1, 2, 3)),
        instances=180,
        k=3,
        cache_mode="replay",
        max_prompt_tokens=580,
    ),
}

# (name, unit, better); BENCHMARK.json lists the same metrics in the same order.
END_TO_END = (
    ("instances_per_s", "1/s", "higher"),
    ("instance_ms_p50", "ms", "lower"),
    ("instance_ms_p90", "ms", "lower"),
    ("macro_f1", "ratio", "higher"),
    ("exact_match", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# Printed per workload but kept out of BENCHMARK.json: zero on the replay
# workload (no server calls) or on every workload (no failures), a sample
# count rather than a measurement, or (process CPU time) varying from run
# to run by more than 25 % on a shared 2-vCPU machine.
END_TO_END_EXTRA = (
    ("cpu_ms_per_instance", "ms"),
    ("server_calls_per_instance", "calls"),
    ("prompt_tokens_per_instance", "tokens"),
    ("failure_rate", "ratio"),
    ("latency_samples", "count"),
)
PARSERS = ("parse_exclusions", "parse_verdict", "parse_final_set", "parse_pick")
PER_LAYER = (
    ("backend.http.calls", "calls/inst", "lower"),
    ("backend.http.ms_p50", "ms", "lower"),
    ("backend.http.ms_p99", "ms", "lower"),
    ("backend.http.overhead_ms_p50", "ms", "lower"),
    ("backend.http.retries", "calls/inst", "lower"),
    ("backend.stub.connections_per_request", "ratio", "lower"),
    ("backend.stub.max_in_flight", "count", "higher"),
    ("backend.stub.late_ms_p99", "ms", "lower"),
    ("backend.cache.lookups", "calls/inst", "lower"),
    ("backend.cache.hit_ratio", "ratio", "higher"),
    ("backend.cache.hit_ms_p50", "ms", "lower"),
    ("backend.cache.miss_self_ms_p50", "ms", "lower"),
    ("backend.duplicate_request_ratio", "ratio", "lower"),
    ("backend.unattributed_spans", "count", "lower"),
    ("prompts.render_prompt.calls", "calls/inst", "lower"),
    ("prompts.render_prompt.us_p50", "us", "lower"),
    ("prompts.render_prompt.us_p99", "us", "lower"),
    ("prompts.render_prompt.total_s", "s/inst", "lower"),
    ("prompts.prompt_chars_per_call", "chars", "lower"),
    *(
        (f"parsing.{p}.{m}", u, "lower")
        for p in PARSERS
        for m, u in (("us_p50", "us"), ("calls", "calls/inst"))
    ),
    ("parsing.unparseable_ratio", "ratio", "lower"),
    ("reasoner.run_strategy.ms_p50", "ms", "lower"),
    ("reasoner.self_ms_per_instance", "ms", "lower"),
    ("reasoner.backend_wait_share", "ratio", "lower"),
    ("reasoner.requests_per_instance", "calls/inst", "lower"),
    ("reasoner.build_graph.us_p50", "us", "lower"),
    ("reasoner.build_trace.us_p50", "us", "lower"),
    ("dataset.load_corpus.ms", "ms", "lower"),
    ("evaluation.evaluate.ms", "ms", "lower"),
    ("evaluation.write_report_files.ms", "ms", "lower"),
    ("cli.cmd_run.self_ms_per_instance", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)
BACKEND_SPANS = ("backend.http", "backend.cache")


class CheckFailed(Exception):
    """A run's outputs or counts are not what they must be."""


class Stub:
    """The stub server process, stopped and waited for on exit."""

    def __init__(self, seed: int, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py"), "--seed", str(seed)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub did not start: {line!r}")
        self.port = int(line.split()[1])
        self.url = f"http://127.0.0.1:{self.port}"

    def stats(self) -> dict:
        """Counters since the last call; clears them."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/stats?reset=1")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def child_env() -> dict:
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.lower().endswith("_proxy") and k not in ("PYTHONPATH", "REXGOT_API_KEY")
    }
    env["PYTHONPATH"] = str(SRC)
    env["NO_PROXY"] = "127.0.0.1,localhost"
    return env


class WorkloadRuns:
    """All runs of one workload for one seed."""

    def __init__(self, workload: Workload, seed: int, stub: Stub, work: Path, env: dict):
        self.wl = workload
        self.seed = seed
        self.stub = stub
        self.work = work
        self.env = env
        self.corpora: dict[int, tuple[Path, list[dict]]] = {}
        self.replay_cache: Path | None = None
        self.recorded: dict[str, bytes] = {}
        self.record_stub: dict | None = None

    def corpus(self, stream: int) -> tuple[Path, list[dict]]:
        if stream not in self.corpora:
            records = corpus.generate(self.seed, f"{self.wl.name}-{stream}", self.wl.instances,
                                      self.wl.shape)
            path = self.work / f"corpus-{stream}.jsonl"
            corpus.write_jsonl(records, path)
            self.corpora[stream] = (path, records)
        return self.corpora[stream]

    def argv(self, strategy: str, corpus_path: Path, out: Path, cache_mode: str,
             cache_dir: Path, workers: int) -> list[str]:
        argv = ["run", "--corpus", str(corpus_path), "--strategy", strategy,
                "--backend", "http", "--endpoint", self.stub.url, "--k", str(self.wl.k),
                "--workers", str(workers), "--out", str(out), "--seed", str(self.seed),
                "--cache-mode", cache_mode, "--cache-dir", str(cache_dir)]
        if self.wl.max_prompt_tokens is not None:
            argv += ["--max-prompt-tokens", str(self.wl.max_prompt_tokens)]
        return argv

    def child(self, argv: list[str], tag: str, trace: bool,
              probe: bool = False) -> tuple[dict, list | None]:
        job_dir = self.work / tag
        job_dir.mkdir()
        job = {"src": str(SRC), "argv": argv, "trace": trace, "probe": probe,
               "result": str(job_dir / "result.json"), "spans": str(job_dir / "spans.json")}
        (job_dir / "job.json").write_text(json.dumps(job), "utf-8")
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(job_dir / "job.json")],
            env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise CheckFailed(f"{tag}: child exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads((job_dir / "result.json").read_text("utf-8"))
        if probe:
            return result, None
        if result["exit_code"] != 0:
            raise CheckFailed(f"{tag}: rexgot exited {result['exit_code']}: {proc.stderr[-2000:]}")
        return result, load(job_dir / "spans.json") if trace else None

    def record_replay_cache(self) -> None:
        """Set-up for the replay workload: record the cache against the stub."""
        corpus_path, records = self.corpus(0)
        self.replay_cache = self.work / "replay-cache"
        out = self.work / "record-out"
        argv = self.argv(self.wl.strategies[0], corpus_path, out, "record", self.replay_cache,
                         RECORD_WORKERS)
        self.stub.stats()
        self.child(argv, "record", trace=False)
        self.record_stub = self.stub.stats()
        check_predictions(self.seed, records, out)
        self.recorded = {
            name: (out / name).read_bytes() for name in ("predictions.jsonl", "report.json")
        }

    def cache(self, tag: str) -> tuple[str, Path]:
        """Cache mode and directory of the run ``tag``: fresh unless replaying."""
        if self.wl.cache_mode == "replay":
            return "replay", self.replay_cache
        return self.wl.cache_mode, self.work / tag / "cache"

    def probe_setup(self) -> list[float]:
        """Set-up times of rexgot starts that stop at the first ``run_strategy`` entry."""
        corpus_path, _ = self.corpus(0)
        times = []
        for i in range(SETUP_PROBES):
            tag = f"probe{i}"
            argv = self.argv(self.wl.strategies[0], corpus_path, self.work / tag / "out",
                             *self.cache(tag), WORKERS)
            result, _ = self.child(argv, tag, trace=False, probe=True)
            times.append(result["setup_s"])
            shutil.rmtree(self.work / tag)
        return times

    def invoke(self, index: int, trace: bool) -> dict:
        """One ``rexgot run``: invocation ``index`` of the workload, checked."""
        strategy = self.wl.strategies[index % len(self.wl.strategies)]
        stream = 0 if self.wl.cache_mode == "replay" else index // len(self.wl.strategies)
        corpus_path, records = self.corpus(stream)
        tag = f"run{index}-{'traced' if trace else 'plain'}"
        out = self.work / tag / "out"
        argv = self.argv(strategy, corpus_path, out, *self.cache(tag), WORKERS)
        self.stub.stats()
        result, span_list = self.child(argv, tag, trace)
        stub = self.stub.stats()
        check_predictions(self.seed, records, out)
        if self.wl.cache_mode == "replay":
            for name, recorded in self.recorded.items():
                if (out / name).read_bytes() != recorded:
                    raise CheckFailed(f"{tag}: {name} differs from the recording run")
        report = json.loads((out / "report.json").read_text("utf-8"))
        shutil.rmtree(self.work / tag)
        return {
            "index": index,
            "strategy": strategy,
            "stream": stream,
            "traced": trace,
            "instances": len(records),
            "turns": [len(r["dialogue"]) for r in records],
            "macro_f1": report["macro_f1"],
            "exact_match": report["exact_match"],
            "stub": stub,
            "spans": span_list,
            **result,
        }


def check_predictions(seed: int, records: list[dict], out: Path) -> None:
    """One prediction per corpus id; the gold set wherever the oracle says it is due."""
    lines = (out / "predictions.jsonl").read_text("utf-8").splitlines()
    predictions = [json.loads(line) for line in lines]
    ids = [p["instance_id"] for p in predictions]
    wanted = sorted(r["id"] for r in records)
    if sorted(ids) != wanted:
        raise CheckFailed(f"{out}: predictions do not match the corpus ids one to one")
    chosen = {p["instance_id"]: frozenset(p["chosen"]) for p in predictions}
    for record in records:
        gold = corpus.oracle_gold(seed, record)
        if gold is not None and chosen[record["id"]] != gold:
            raise CheckFailed(
                f"{out}: {record['id']} chose {sorted(chosen[record['id']])}, "
                f"oracle gold is {sorted(gold)}"
            )


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(runs: list[dict], wl: Workload, setup_probes: list[float]) -> dict[str, float]:
    """Rates are medians over rounds; latency percentiles pool every instance;
    set-up is the median over the probes and the runs."""
    runs = sorted(runs, key=lambda r: r["index"])
    instances = sum(r["instances"] for r in runs)
    latencies = [ms for r in runs for ms in r["latencies_ms"]]
    size = wl.round_size
    rounds = [runs[i : i + size] for i in range(0, len(runs), size)]

    def per_round(num: str, den: str) -> float:
        return statistics.median(sum(r[num] for r in rnd) / sum(r[den] for r in rnd)
                                 for rnd in rounds)

    scored = runs[: wl.fixed_invocations]
    return {
        "instances_per_s": per_round("instances", "run_wall_s"),
        "instance_ms_p50": percentile(latencies, 50),
        "instance_ms_p90": percentile(latencies, 90),
        "cpu_ms_per_instance": _ms(per_round("run_cpu_s", "instances")),
        "macro_f1": statistics.fmean(r["macro_f1"] for r in scored),
        "exact_match": statistics.fmean(r["exact_match"] for r in scored),
        "setup_s": statistics.median(setup_probes + [r["setup_s"] for r in runs]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "server_calls_per_instance": sum(r["stub"]["requests"] for r in runs) / instances,
        "prompt_tokens_per_instance": sum(r["stub"]["prompt_tokens"] for r in runs) / instances,
        "failure_rate": sum(r["failures"] or 0 for r in runs) / instances,
        "latency_samples": len(latencies),
    }


def reconcile(run: dict, wl: Workload) -> None:
    """Counts seen by the stub, the HTTP client and the cache must agree."""
    tree = SpanTree(run["spans"])
    http_calls = len(tree.named("backend.http"))
    requests = run["stub"]["requests"]
    if requests != http_calls:
        raise CheckFailed(f"stub saw {requests} requests, HTTPBackend.complete ran {http_calls}")
    if wl.cache_mode != "off":
        lookups = tree.named("backend.cache")
        misses = sum(not s.attrs["hit"] for s in lookups)
        if misses != requests:
            raise CheckFailed(
                f"{len(lookups)} cache lookups with {len(lookups) - misses} hits: "
                f"{misses} inner-backend calls were due, the stub saw {requests}"
            )


def per_layer(traced: list[dict], plain: list[dict]) -> dict[str, float]:
    n = sum(r["instances"] for r in traced)
    durations: dict[str, list[float]] = {}
    render_chars: list[int] = []
    overhead, hit_ms, miss_self = [], [], []
    run_self = cmd_self = wait = run_total = 0.0
    outermost = duplicates = unattributed = unparseable = 0
    for run in traced:
        tree = SpanTree(run["spans"])
        for span in tree.spans:
            durations.setdefault(span.name, []).append(span.duration)
        for span in tree.named("prompts.render_prompt"):
            render_chars.append(span.attrs["chars"])
        unparseable += sum(
            1 for p in PARSERS for s in tree.named(f"parsing.{p}")
            if s.error in ("Unparseable", "EmptySet")
        )
        for span in tree.named("backend.http"):
            service = sum(k.attrs["service_us"] for k in tree.kids(span, ["transport.send"]))
            overhead.append(_ms(span.duration) - service / 1000.0)
        for span in tree.named("backend.cache"):
            if span.attrs["hit"]:
                hit_ms.append(_ms(span.duration))
            else:
                miss_self.append(_ms(tree.self_time(span)))
        seen: dict[str | None, set[str]] = {}
        parents = {s.id: s for s in tree.spans}
        for span in tree.spans:
            if span.name not in BACKEND_SPANS:
                continue
            if span.orphan:
                unattributed += 1
            parent = parents.get(span.parent)
            if parent is not None and parent.name in BACKEND_SPANS:
                continue
            outermost += 1
            digests = seen.setdefault(span.request, set())
            duplicates += span.attrs["digest"] in digests
            digests.add(span.attrs["digest"])
        for span in tree.named("reasoner.run_strategy"):
            run_self += tree.self_time(span)
            run_total += span.duration
            wait += covered(span.start, span.end,
                            ((k.start, k.end) for k in tree.kids(span, BACKEND_SPANS)))
        for span in tree.named("cli.cmd_run"):
            cmd_self += tree.self_time(span)

    def p(name: str, q: float, scale: float) -> float:
        return percentile(durations.get(name, []), q) * scale

    def count(name: str) -> int:
        return len(durations.get(name, []))

    stubs = [r["stub"] for r in traced]
    requests = sum(s["requests"] for s in stubs)
    parse_calls = sum(count(f"parsing.{name}") for name in PARSERS)
    metrics = {
        "backend.http.calls": count("backend.http") / n,
        "backend.http.ms_p50": p("backend.http", 50, 1e3),
        "backend.http.ms_p99": p("backend.http", 99, 1e3),
        "backend.http.overhead_ms_p50": percentile(overhead, 50),
        "backend.http.retries": (requests - count("backend.http")) / n,
        "backend.stub.connections_per_request": _ratio(
            sum(s["connections"] for s in stubs), requests
        ),
        "backend.stub.max_in_flight": max(s["max_in_flight"] for s in stubs),
        "backend.stub.late_ms_p99": percentile([u for s in stubs for u in s["late_us"]], 99) / 1e3,
        "backend.cache.lookups": count("backend.cache") / n,
        "backend.cache.hit_ratio": _ratio(len(hit_ms), count("backend.cache")),
        "backend.cache.hit_ms_p50": percentile(hit_ms, 50),
        "backend.cache.miss_self_ms_p50": percentile(miss_self, 50),
        "backend.duplicate_request_ratio": _ratio(duplicates, outermost),
        "backend.unattributed_spans": unattributed,
        "prompts.render_prompt.calls": count("prompts.render_prompt") / n,
        "prompts.render_prompt.us_p50": p("prompts.render_prompt", 50, 1e6),
        "prompts.render_prompt.us_p99": p("prompts.render_prompt", 99, 1e6),
        "prompts.render_prompt.total_s": sum(durations.get("prompts.render_prompt", [])) / n,
        "prompts.prompt_chars_per_call": _ratio(sum(render_chars), len(render_chars)),
        "parsing.unparseable_ratio": _ratio(unparseable, parse_calls),
        "reasoner.run_strategy.ms_p50": p("reasoner.run_strategy", 50, 1e3),
        "reasoner.self_ms_per_instance": _ms(run_self) / n,
        "reasoner.backend_wait_share": _ratio(wait, run_total),
        "reasoner.requests_per_instance": outermost / n,
        "reasoner.build_graph.us_p50": p("reasoner.build_graph", 50, 1e6),
        "reasoner.build_trace.us_p50": p("reasoner.build_trace", 50, 1e6),
        "dataset.load_corpus.ms": p("dataset.load_corpus", 50, 1e3),
        "evaluation.evaluate.ms": p("evaluation.evaluate", 50, 1e3),
        "evaluation.write_report_files.ms": p("evaluation.write_report_files", 50, 1e3),
        "cli.cmd_run.self_ms_per_instance": _ms(cmd_self) / n,
        "trace.overhead_ratio": sum(r["run_wall_s"] for r in traced)
        / sum(r["run_wall_s"] for r in plain),
    }
    for name in PARSERS:
        metrics[f"parsing.{name}.us_p50"] = p(f"parsing.{name}", 50, 1e6)
        metrics[f"parsing.{name}.calls"] = count(f"parsing.{name}") / n
    return metrics


def workload_properties(runs: list[dict], record_stub: dict | None) -> dict[str, float]:
    """Measured properties of the inputs, from the corpora and the stub."""
    stubs = [record_stub] if record_stub else [r["stub"] for r in runs]
    samples: Counter[str] = Counter()
    for s in stubs:
        samples.update(s["samples"])
    total = lambda key: sum(s[key] for s in stubs)  # noqa: E731
    turns = [t for r in runs for t in r["turns"]]
    return {
        "turns_per_dialogue": statistics.fmean(turns),
        "dialogue_turns_kept_share": _ratio(total("turns_kept"), total("turns_total")),
        "prompt_chars_per_call": _ratio(total("prompt_chars"), total("requests")),
        "identical_step1_share": _ratio(total("step1_identical"), total("step1_multi")),
        "prose_reply_share": _ratio(samples[fakellm.PROSE], sum(samples.values())),
        "unparseable_reply_share": _ratio(samples[fakellm.UNPARSEABLE], sum(samples.values())),
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[bool, dict]:
    """Run one workload; returns (outputs correct, result document)."""
    work = OUT / "work" / f"{wl.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    stub = Stub(seed, env)
    plain: list[dict] = []
    traced: list[dict] = []
    setup_probes: list[float] = []
    problem = None
    try:
        workload_runs = WorkloadRuns(wl, seed, stub, work, env)
        if wl.cache_mode == "replay":
            workload_runs.record_replay_cache()
        if not trace:
            setup_probes = workload_runs.probe_setup()
        started = time.monotonic()
        index = 0
        # Whole rounds only, so every strategy weighs the same in the pooled figures.
        while (index < wl.fixed_invocations or index % wl.round_size
               or time.monotonic() - started < seconds):
            plain.append(workload_runs.invoke(index, trace=False))
            if trace:
                traced.append(workload_runs.invoke(index, trace=True))
                reconcile(traced[-1], wl)
            index += 1
    except CheckFailed as exc:
        problem = str(exc)
    finally:
        stub.close()
        shutil.rmtree(work, ignore_errors=True)
    doc: dict = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
                 "correct": problem is None, "problem": problem}
    runs = plain + traced
    doc["attempted"] = sum(r["instances"] for r in runs) or 1
    doc["failed"] = sum(r["failures"] or 0 for r in runs)
    if problem is None:
        doc["end_to_end"] = end_to_end(plain, wl, setup_probes)
        doc["properties"] = workload_properties(plain, workload_runs.record_stub)
        if trace:
            doc["per_layer"] = per_layer(traced, plain)
    doc["runs"] = [{k: v for k, v in r.items() if k not in ("spans", "stub")} for r in runs]
    doc["setup_probes_s"] = setup_probes
    return problem is None, doc


def report_lines(doc: dict) -> list[str]:
    name = doc["workload"]
    if not doc["correct"]:
        return [f"{name} CHECK FAILED: {doc['problem']}"]
    units = {m: u for m, u, _ in END_TO_END + PER_LAYER} | dict(END_TO_END_EXTRA)
    lines = [f"{name} {m} = {v:.6g} {units[m]}" for m, v in doc["end_to_end"].items()]
    lines += [f"{name} property {m} = {v:.4g}" for m, v in doc["properties"].items()]
    per_layer = sorted(doc.get("per_layer", {}).items())
    lines += [f"{name} {m} = {v:.6g} {units[m]}" for m, v in per_layer]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Offline end-to-end benchmark for rexgot.")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rexgot" / "cli.py").is_file():
        print(f"no rexgot sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    compileall.compile_dir(str(SRC / "rexgot"), quiet=1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metric_names = [m for m, _, _ in (PER_LAYER if args.trace else END_TO_END)]
    units = {m: u for m, u, _ in END_TO_END + PER_LAYER}
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, doc = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n", "utf-8"
        )
        for line in report_lines(doc):
            print(line)
        correct &= ok
        attempted += doc["attempted"]
        failed += doc["failed"]
        if ok:
            values = doc["per_layer"] if args.trace else doc["end_to_end"]
            prefix = f"{name}." if len(names) > 1 else ""
            metrics |= {
                prefix + m: {"value": values[m], "unit": units[m]} for m in metric_names
            }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
