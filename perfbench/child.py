"""One ``rexgot run`` in a fresh interpreter, measured from outside the package.

Usage: ``python3 perfbench/child.py JOB.json``, where the job holds
``src`` (the directory ``rexgot`` must be imported from), ``argv`` (the
``rexgot`` command line), ``trace``, ``probe`` and the ``result`` and
``spans`` paths to write.

Untraced, the only instrument is a span around ``rexgot.cli.run_strategy``:
it gives the per-instance latencies, and its first entry ends the set-up
time (from just before ``import rexgot.cli``) and starts the run phase.
A probe job stops the process at that first entry, so it measures set-up
only. Traced, the public functions of each module are wrapped too, where
their caller looks them up (the package uses ``from ... import``), plus
``requests.Session.send`` for the stub's service-time header, and the
spans are written to ``spans`` at the end.
"""

from __future__ import annotations

import io
import json
import os
import re
import resource
import sys
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

SERVICE_HEADER = "X-Stub-Service-Us"


def install_tracer(tracer, cli) -> None:
    import rexgot.backend as backend
    import rexgot.reasoner as reasoner

    transport_lock = threading.Lock()

    def trace_transport():
        # requests is imported on first use, as rexgot's own transport does,
        # so the import cost stays in the run phase as it is untraced.
        import requests

        with transport_lock:
            if not hasattr(requests.Session.send, "__wrapped__"):
                tracer.patch(
                    requests.Session,
                    "send",
                    "transport.send",
                    after=lambda resp: {"service_us": int(resp.headers[SERVICE_HEADER])},
                )

    def cache_call(cache, request):
        # Hit or miss is read off the cache directory before the lookup,
        # independently of which spans the lookup goes on to open.
        digest = backend.cache_key(request)
        return {"digest": digest, "hit": cache._path(digest).exists()}

    def http_call(_self, request):
        trace_transport()
        return {"digest": backend.cache_key(request)}

    tracer.patch(cli, "cmd_run", "cli.cmd_run")
    tracer.patch(cli, "load_corpus", "dataset.load_corpus")
    tracer.patch(cli, "build_graph", "reasoner.build_graph")
    tracer.patch(cli, "build_trace", "reasoner.build_trace")
    tracer.patch(cli, "evaluate", "evaluation.evaluate")
    tracer.patch(cli, "write_report_files", "evaluation.write_report_files")
    tracer.patch(
        reasoner, "render_prompt", "prompts.render_prompt", after=lambda p: {"chars": len(p)}
    )
    for name in ("parse_exclusions", "parse_verdict", "parse_final_set", "parse_pick"):
        tracer.patch(reasoner, name, f"parsing.{name}")
    tracer.patch(backend.CachingBackend, "complete", "backend.cache", before=cache_call)
    tracer.patch(backend.HTTPBackend, "complete", "backend.http", before=http_call)


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text("utf-8"))
    src = Path(job["src"]).resolve()
    started = time.perf_counter()
    import rexgot.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"rexgot was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    from spans import Tracer

    first: dict[str, float] = {}  # wall and process CPU time at the first run_strategy entry
    first_lock = threading.Lock()

    def enter_run(*args):
        with first_lock:
            if not first:
                first.update(wall=time.perf_counter(), cpu=time.process_time())
                if job["probe"]:
                    Path(job["result"]).write_text(
                        json.dumps({"setup_s": first["wall"] - started}), "utf-8"
                    )
                    os._exit(0)
        return {}

    tracer = Tracer()
    tracer.patch(
        cli,
        "run_strategy",
        "reasoner.run_strategy",
        request=lambda instance, *rest: instance.id,
        before=enter_run,
    )
    if job["trace"]:
        install_tracer(tracer, cli)
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        exit_code = cli.main(job["argv"])
    ended, cpu_end = time.perf_counter(), time.process_time()
    if not first:
        print("rexgot made no run_strategy call", file=sys.stderr)
        return 3
    failures = re.search(r"failures=(\d+)", stdout.getvalue())
    result = {
        "exit_code": exit_code,
        "failures": int(failures.group(1)) if failures else None,
        "setup_s": first["wall"] - started,
        "run_wall_s": ended - first["wall"],
        "run_cpu_s": cpu_end - first["cpu"],
        "latencies_ms": [
            s.duration * 1000.0 for s in tracer.spans if s.name == "reasoner.run_strategy"
        ],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if job["trace"]:
        tracer.dump(job["spans"])
    Path(job["result"]).write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
