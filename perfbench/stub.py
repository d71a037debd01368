"""A fake OpenAI-compatible chat-completions server for the benchmark.

Run it as its own process::

    python3 perfbench/stub.py --seed 1

It binds an ephemeral port on 127.0.0.1, prints ``PORT <n>`` and serves
until it receives SIGTERM or SIGINT. Replies come from
``fakellm.reply``, so they depend only on the request and the seed,
never on call order or concurrency.

* HTTP/1.1 with keep-alive, so a client that reuses connections can.
* Each response (status line, headers and body) goes out in one send.
* Every request is held until ``LATENCY_S`` (20 ms) after it arrived;
  the service time actually taken is reported in ``X-Stub-Service-Us``.
* It never answers 5xx or 429: the client backs off for a second or
  more per retry, which would swamp the timings.

``GET /stats`` returns the counters (requests, connections, peak
in-flight requests, prompt characters and tokens, reply styles, sleep
lateness); ``GET /stats?reset=1`` also clears them.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import fakellm

COMPLETIONS_PATH = "/v1/chat/completions"
LATENCY_S = 0.020  # fixed service time of every completion request


class Counters:
    """Request accounting shared by all handler threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._in_flight = 0
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.connections = 0
        self.max_in_flight = 0
        self.prompt_chars = 0
        self.prompt_tokens = 0
        self.turns_kept = 0
        self.turns_total = 0
        self.samples = dict.fromkeys(fakellm.STYLES, 0)
        self.step1_multi = 0
        self.step1_identical = 0
        self.late_us: list[int] = []

    def new_connection(self) -> None:
        with self._lock:
            self.connections += 1

    def enter(self) -> None:
        with self._lock:
            self._in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self._in_flight)

    def reject(self) -> None:
        with self._lock:
            self._in_flight -= 1

    def leave(self, prompt: str, reply: fakellm.Reply, late_us: int) -> None:
        with self._lock:
            self._in_flight -= 1
            self.requests += 1
            self.prompt_chars += len(prompt)
            self.prompt_tokens += reply.prompt_tokens
            self.turns_kept += reply.view.turns_kept
            self.turns_total += reply.view.turns_total
            for style in reply.styles:
                self.samples[style] += 1
            if reply.view.kind == fakellm.STEP1 and len(reply.styles) > 1:
                self.step1_multi += 1
                if len(set(reply.texts)) == 1:
                    self.step1_identical += 1
            self.late_us.append(late_us)

    def snapshot(self, reset: bool) -> dict:
        with self._lock:
            stats = {
                "requests": self.requests,
                "connections": self.connections,
                "max_in_flight": self.max_in_flight,
                "prompt_chars": self.prompt_chars,
                "prompt_tokens": self.prompt_tokens,
                "turns_kept": self.turns_kept,
                "turns_total": self.turns_total,
                "samples": dict(self.samples),
                "step1_multi": self.step1_multi,
                "step1_identical": self.step1_identical,
                "late_us": list(self.late_us),
            }
            if reset:
                self.reset()
            return stats


class StubServer(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 128

    def __init__(self, seed: int, latency_s: float):
        super().__init__(("127.0.0.1", 0), Handler)
        self.seed = seed
        self.latency_s = latency_s
        self.counters = Counters()


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StubServer

    def setup(self):
        super().setup()
        self._counted = False

    def log_message(self, format, *args):  # noqa: A002 - signature from the base class
        pass

    def _send(self, status: str, body: bytes, extra: str = "") -> None:
        head = (
            f"HTTP/1.1 {status}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}\r\n"
        )
        self.wfile.write(head.encode("ascii") + body)

    def do_GET(self):
        if self.path.split("?", 1)[0] != "/stats":
            self._send("404 Not Found", b"{}")
            return
        stats = self.server.counters.snapshot(reset="reset=1" in self.path)
        self._send("200 OK", json.dumps(stats).encode("utf-8"))

    def do_POST(self):
        arrived = time.perf_counter()
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path != COMPLETIONS_PATH:
            self._send("404 Not Found", b"{}")
            return
        counters = self.server.counters
        if not self._counted:
            self._counted = True
            counters.new_connection()
        counters.enter()
        try:
            request = json.loads(body)
            prompt = request["messages"][-1]["content"]
            reply = fakellm.reply(request, self.server.seed)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            counters.reject()
            self._send("400 Bad Request", json.dumps({"error": str(exc)}).encode("utf-8"))
            return
        due = arrived + self.server.latency_s
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        now = time.perf_counter()
        service_us = int((now - arrived) * 1e6)
        # Count before sending, so that a client that has its reply is counted.
        counters.leave(prompt, reply, int((now - due) * 1e6))
        self._send("200 OK", reply.body, f"X-Stub-Service-Us: {service_us}\r\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    server = StubServer(args.seed, LATENCY_S)

    def stop(signum, frame):
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
