"""Completion backends behind one interface.

Three implementations: an HTTP client speaking the de-facto
``/v1/chat/completions`` JSON protocol, a scripted backend for fully
offline deterministic tests, and a content-addressed record/replay
cache that wraps either; plus a single-flight wrapper that lets
identical greedy requests in flight at the same time share one call.
All backends accept concurrent ``complete`` calls. A conforming backend
returns exactly ``n_samples`` completions or raises; at temperature 0
all samples must be identical.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import logging
import os
import threading
import time
import urllib.parse
from concurrent.futures import Future
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Mapping, Protocol, Sequence

from .model import RexGotError

log = logging.getLogger(__name__)

API_KEY_ENV = "REXGOT_API_KEY"


class BackendError(RexGotError):
    """Base class for completion-backend failures."""


class TransportError(BackendError):
    """Network-level failure or 5xx; retryable."""


class AuthError(BackendError):
    """Credential rejected; never retried."""


class RateLimited(BackendError):
    """Server asked us to back off; retryable after a delay."""

    def __init__(self, message: str, after: float = 1.0):
        super().__init__(message)
        self.after = after


class ProtocolError(BackendError):
    """Response body did not match the expected shape; never retried."""


class ScriptMiss(BackendError):
    """No registered script matched the prompt."""


class DuplicateScript(BackendError):
    """A script was already registered for this matcher."""


class ReplayMiss(BackendError):
    """Replay cache has no entry for the request."""


@dataclass(frozen=True)
class CompletionRequest:
    """One decoding request; ``n_samples`` asks for that many sampled paths."""

    prompt: str
    n_samples: int = 1
    temperature: float = 0.0
    max_tokens: int = 512
    model_name: str = ""
    stop_sequences: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "stop_sequences", tuple(self.stop_sequences))
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")


class FinishReason(Enum):
    STOP = "stop"
    LENGTH = "length"
    ERROR = "error"


@dataclass(frozen=True)
class Completion:
    text: str
    finish_reason: FinishReason = FinishReason.STOP
    usage: Mapping[str, int] | None = None


class Backend(Protocol):
    def complete(self, request: CompletionRequest) -> list[Completion]: ...


def _canonical_request(request: CompletionRequest) -> bytes:
    payload = {
        "prompt": request.prompt,
        "n_samples": request.n_samples,
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
        "model_name": request.model_name,
        "stop_sequences": list(request.stop_sequences),
    }
    return json.dumps(payload, sort_keys=True, ensure_ascii=True, separators=(",", ":")).encode(
        "ascii"
    )


def cache_key(request: CompletionRequest) -> str:
    """Deterministic content digest over all request fields."""
    return hashlib.sha256(_canonical_request(request)).hexdigest()


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class ScriptedBackend:
    """Offline backend returning pre-registered responses.

    Scripts are keyed by the exact prompt string or by its digest.
    Responses cycle to fill ``n_samples``; at temperature 0 the first
    response is repeated instead, as conformance requires.
    """

    def __init__(self, default_responses: Sequence[str] | None = None):
        self._by_digest: dict[str, tuple[str, ...]] = {}
        self._sources: dict[str, str] = {}
        self._default = tuple(default_responses) if default_responses else None

    def register_script(
        self,
        responses: Sequence[str],
        prompt: str | None = None,
        digest: str | None = None,
    ) -> None:
        if (prompt is None) == (digest is None):
            raise ValueError("register exactly one of prompt= or digest=")
        if not responses:
            raise ValueError("responses must be non-empty")
        key = digest if digest is not None else prompt_digest(prompt)  # type: ignore[arg-type]
        if key in self._by_digest:
            raise DuplicateScript(f"script already registered for digest {key[:12]}…")
        self._by_digest[key] = tuple(responses)
        self._sources[key] = prompt if prompt is not None else key

    def complete(self, request: CompletionRequest) -> list[Completion]:
        key = prompt_digest(request.prompt)
        responses = self._by_digest.get(key)
        if responses is None:
            responses = self._default
        if responses is None:
            raise ScriptMiss(
                f"no script for prompt digest {key[:12]}…; "
                f"nearest registered: {self._nearest(request.prompt) or 'none'}"
            )
        if request.temperature == 0:
            texts = [responses[0]] * request.n_samples
        else:
            texts = [responses[i % len(responses)] for i in range(request.n_samples)]
        return [Completion(text=t) for t in texts]

    def _nearest(self, prompt: str) -> str | None:
        best_key, best_score = None, -1.0
        for key, source in sorted(self._sources.items()):
            score = difflib.SequenceMatcher(None, prompt, source).ratio()
            if score > best_score:
                best_key, best_score = key, score
        return best_key


Transport = Callable[..., tuple[int, Mapping[str, str], str]]


class KeepAliveTransport:
    """HTTP/1.1 POST of a JSON body over reused ``http.client`` connections.

    Idle connections are kept per origin and lent to one call at a time,
    so a thread making calls one after another reuses one connection per
    host. A reused connection that the server has closed is replaced
    once. Proxies come from ``http_proxy``, ``https_proxy``, ``all_proxy``
    and ``no_proxy``; HTTPS goes through a ``CONNECT`` tunnel and is
    verified with ``ssl.create_default_context()``. The standard library
    modules this needs are imported on first use, which keeps them out of
    start-up time.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._idle: dict[tuple, list] = {}
        self._ssl_context = None

    def __call__(
        self, url: str, body: dict[str, Any], headers: Mapping[str, str], timeout: float
    ) -> tuple[int, Mapping[str, str], str]:
        import http.client

        parts = urllib.parse.urlsplit(url)
        host = parts.hostname or ""
        port = parts.port or (443 if parts.scheme == "https" else 80)
        proxy = _environment_proxy(parts.scheme, host)
        headers = dict(headers)
        target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
        if proxy is not None and parts.scheme == "http":
            target = url
            headers.update(_proxy_auth(proxy))
        key = (parts.scheme, host, port, proxy, timeout)
        payload = json.dumps(body).encode("utf-8")

        with self._lock:
            idle = self._idle.get(key)
            conn = idle.pop() if idle else None
        reused = conn is not None
        while True:
            if conn is None:
                conn = self._connect(parts.scheme, host, port, proxy, timeout)
            try:
                conn.request("POST", target, body=payload, headers=headers)
                response = conn.getresponse()
                text = response.read().decode("utf-8", "replace")
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                if reused and isinstance(exc, ConnectionError):
                    # The server closed the idle connection; try once afresh.
                    conn, reused = None, False
                    continue
                raise TransportError(f"POST {url} failed: {exc}") from exc
            break
        if response.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.setdefault(key, []).append(conn)
        return response.status, response.headers, text

    def _connect(self, scheme: str, host: str, port: int, proxy: str | None, timeout: float):
        import http.client

        address = (host, port)
        if proxy is not None:
            proxy_parts = urllib.parse.urlsplit(proxy)
            address = (proxy_parts.hostname or "", proxy_parts.port or 80)
        if scheme != "https":
            return http.client.HTTPConnection(*address, timeout=timeout)
        if self._ssl_context is None:
            import ssl

            self._ssl_context = ssl.create_default_context()
        conn = http.client.HTTPSConnection(*address, timeout=timeout, context=self._ssl_context)
        if proxy is not None:
            conn.set_tunnel(host, port, headers=_proxy_auth(proxy))
        return conn

    def close(self) -> None:
        """Close every idle connection."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()


def _environment_proxy(scheme: str, host: str) -> str | None:
    """The proxy URL the environment sets for ``scheme``, unless ``host`` bypasses it."""
    from urllib.request import getproxies, proxy_bypass

    proxies = getproxies()
    proxy = proxies.get(scheme) or proxies.get("all")
    if not proxy or proxy_bypass(host):
        return None
    return proxy if "://" in proxy else f"http://{proxy}"


def _proxy_auth(proxy: str) -> dict[str, str]:
    parts = urllib.parse.urlsplit(proxy)
    if parts.username is None:
        return {}
    import base64

    user = urllib.parse.unquote(parts.username)
    password = urllib.parse.unquote(parts.password or "")
    token = base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")
    return {"Proxy-Authorization": f"Basic {token}"}


class HTTPBackend:
    """Client for OpenAI-compatible chat-completions endpoints.

    The API key is read from the ``REXGOT_API_KEY`` environment variable
    (never from the command line). Transient failures retry up to
    ``max_retries`` times with exponential backoff; auth and protocol
    errors never retry.
    """

    def __init__(
        self,
        base_url: str,
        api_key_env: str = API_KEY_ENV,
        timeout: float = 120.0,
        max_retries: int = 3,
        transport: Transport | None = None,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.api_key = os.environ.get(api_key_env, "")
        self.timeout = timeout
        self.max_retries = max_retries
        self._transport = transport or KeepAliveTransport()
        self._sleep = sleeper

    def close(self) -> None:
        _close(self._transport)

    def complete(self, request: CompletionRequest) -> list[Completion]:
        url = f"{self.base_url}/v1/chat/completions"
        body: dict[str, Any] = {
            "model": request.model_name,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "n": request.n_samples,
            "max_tokens": request.max_tokens,
        }
        if request.stop_sequences:
            body["stop"] = list(request.stop_sequences)
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        attempt = 0
        while True:
            try:
                status, resp_headers, text = self._transport(url, body, headers, self.timeout)
                return self._parse_response(status, resp_headers, text, request.n_samples)
            except (TransportError, RateLimited) as exc:
                if attempt >= self.max_retries:
                    raise
                delay = 2.0**attempt
                if isinstance(exc, RateLimited):
                    delay = max(delay, exc.after)
                log.warning("retrying after %s (attempt %d): %s", delay, attempt + 1, exc)
                self._sleep(delay)
                attempt += 1

    @staticmethod
    def _parse_response(
        status: int, headers: Mapping[str, str], text: str, n_samples: int
    ) -> list[Completion]:
        if status in (401, 403):
            raise AuthError(f"credential rejected (HTTP {status})")
        if status == 429:
            after = 1.0
            retry_after = headers.get("Retry-After") or headers.get("retry-after")
            if retry_after:
                try:
                    after = float(retry_after)
                except ValueError:
                    pass
            raise RateLimited(f"rate limited (HTTP {status})", after=after)
        if status >= 500:
            raise TransportError(f"server error (HTTP {status})")
        if status != 200:
            raise ProtocolError(f"HTTP {status}: {text[:200]}")
        try:
            payload = json.loads(text)
            choices = payload["choices"]
            completions = []
            for choice in choices:
                reason = choice.get("finish_reason", "stop")
                try:
                    finish = FinishReason(reason)
                except ValueError:
                    finish = FinishReason.ERROR
                completions.append(
                    Completion(
                        text=choice["message"]["content"],
                        finish_reason=finish,
                        usage=payload.get("usage"),
                    )
                )
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"unexpected response shape: {text[:200]}") from exc
        if len(completions) != n_samples:
            raise ProtocolError(
                f"asked for {n_samples} samples, got {len(completions)}"
            )
        return completions


CACHE_OFF = "off"
CACHE_RECORD = "record"
CACHE_REPLAY = "replay"
CACHE_MODES = (CACHE_OFF, CACHE_RECORD, CACHE_REPLAY)


class CachingBackend:
    """Content-addressed file cache around another backend.

    Layout: ``<cache_dir>/<2-char shard>/<digest>.json``, one diffable
    JSON file per request digest holding the full completion list.
    ``record`` reads through and stores misses; ``replay`` serves hits
    only and never touches the inner backend, so replayed runs are fully
    offline. Each write goes to a temporary file with a name of its own
    and is then renamed into place, so concurrent writers, in this
    process or others sharing the directory, need no lock, and readers
    see either no entry or a whole one.
    """

    def __init__(self, inner: Backend | None, cache_dir: str | Path, mode: str = CACHE_RECORD):
        if mode not in (CACHE_RECORD, CACHE_REPLAY):
            raise ValueError(f"cache mode must be record or replay, got {mode!r}")
        if mode == CACHE_RECORD and inner is None:
            raise ValueError("record mode needs an inner backend")
        self.inner = inner
        self.cache_dir = Path(cache_dir)
        self.mode = mode

    def _path(self, digest: str) -> Path:
        return self.cache_dir / digest[:2] / f"{digest}.json"

    def complete(self, request: CompletionRequest) -> list[Completion]:
        digest = cache_key(request)
        path = self._path(digest)
        if path.exists():
            return self._load(path)
        if self.mode == CACHE_REPLAY:
            raise ReplayMiss(f"no cached completion for digest {digest}")
        assert self.inner is not None
        completions = self.inner.complete(request)
        self._store(path, request, completions)
        return completions

    def close(self) -> None:
        _close(self.inner)

    @staticmethod
    def _load(path: Path) -> list[Completion]:
        payload = json.loads(path.read_text("utf-8"))
        return [
            Completion(
                text=c["text"],
                finish_reason=FinishReason(c["finish_reason"]),
                usage=c.get("usage"),
            )
            for c in payload["completions"]
        ]

    def _store(
        self, path: Path, request: CompletionRequest, completions: Sequence[Completion]
    ) -> None:
        payload = {
            "request": json.loads(_canonical_request(request).decode("ascii")),
            "completions": [
                {
                    "text": c.text,
                    "finish_reason": c.finish_reason.value,
                    "usage": dict(c.usage) if c.usage is not None else None,
                }
                for c in completions
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.stem}.{os.urandom(8).hex()}.tmp")
        try:
            with tmp.open("x", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


class SingleFlightBackend:
    """Lets identical temperature-0 requests in flight at the same time share one call.

    The first caller of a request (keyed by :func:`cache_key`) calls the
    inner backend; callers that arrive while it runs wait for its result
    or its exception. Nothing is kept once the call returns: a later
    identical request calls the inner backend again, and a failure is
    never reused. Sampled requests (temperature above 0) always pass
    straight through, since their completions are meant to differ.
    """

    def __init__(self, inner: Backend):
        self.inner = inner
        self._lock = threading.Lock()
        self._flights: dict[str, Future] = {}

    def complete(self, request: CompletionRequest) -> list[Completion]:
        if request.temperature != 0:
            return self.inner.complete(request)
        key = cache_key(request)
        with self._lock:
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = self._flights[key] = Future()
        if not leader:
            return list(flight.result())
        try:
            completions = self.inner.complete(request)
        except BaseException as exc:
            self._land(key).set_exception(exc)
            raise
        self._land(key).set_result(completions)
        return list(completions)

    def _land(self, key: str) -> Future:
        # Removed before waiters are woken, so no caller can join a finished flight.
        with self._lock:
            return self._flights.pop(key)

    def close(self) -> None:
        _close(self.inner)


def _close(resource: Any) -> None:
    """Call ``resource.close()`` if it has one."""
    close = getattr(resource, "close", None)
    if close is not None:
        close()


def purge_cache(cache_dir: str | Path) -> int:
    """Delete all cached completion files; returns the number removed."""
    cache_dir = Path(cache_dir)
    removed = 0
    if not cache_dir.exists():
        return 0
    for shard in sorted(cache_dir.iterdir()):
        if not shard.is_dir():
            continue
        for entry in sorted(shard.glob("*.json")):
            entry.unlink()
            removed += 1
        try:
            shard.rmdir()
        except OSError:
            pass
    return removed
