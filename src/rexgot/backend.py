"""Completion backends behind one interface.

Three implementations: an HTTP client speaking the de-facto
``/v1/chat/completions`` JSON protocol, a scripted backend for fully
offline deterministic tests, and a content-addressed record/replay
cache that wraps either. No backend merges requests: the reasoner
asks equal greedy questions of one ``rex_got`` instance only once. All
backends accept concurrent ``complete`` calls. A conforming backend
returns exactly ``n_samples`` completions or raises; at temperature 0
all samples must be identical.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import sys
import threading
import time
import urllib.parse
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterator, Mapping, Protocol, Sequence

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
    """One decoding request for ``n_samples`` paths; ``seed`` tells sampled draws apart."""

    prompt: str
    n_samples: int = 1
    temperature: float = 0.0
    max_tokens: int = 512
    model_name: str = ""
    seed: int | None = None

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")


@dataclass(frozen=True)
class Completion:
    """One sample; ``finish_reason`` and ``usage`` are kept as the server sent them."""

    text: str
    finish_reason: str | None = "stop"
    usage: dict[str, Any] | None = None


class Backend(Protocol):
    def complete(self, request: CompletionRequest) -> list[Completion]: ...


def _canonical_request(request: CompletionRequest) -> bytes:
    """Every field of ``request`` as compact, key-sorted, ASCII JSON: what a cache key hashes."""
    values = {field.name: getattr(request, field.name) for field in fields(request)}
    return json.dumps(values, sort_keys=True, separators=(",", ":")).encode("ascii")


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
        self._default = None if default_responses is None else _responses(default_responses)

    def register_script(
        self,
        responses: Sequence[str],
        prompt: str | None = None,
        digest: str | None = None,
    ) -> None:
        if (prompt is None) == (digest is None):
            raise ValueError("register exactly one of prompt= or digest=")
        if not isinstance(prompt if digest is None else digest, str):
            raise ValueError("prompt= or digest= must be a string")
        if digest is not None and not re.fullmatch("[0-9a-f]{64}", digest):
            # No prompt could ever reach the script: prompt_digest is lowercase hex SHA-256.
            raise ValueError(f"digest must be 64 lowercase hex characters, got {digest!r}")
        texts = _responses(responses)
        key = digest if digest is not None else prompt_digest(prompt)  # type: ignore[arg-type]
        if key in self._by_digest:
            raise DuplicateScript(f"script already registered for digest {key[:12]}…")
        self._by_digest[key] = texts
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
        import difflib

        best_key, best_score = None, -1.0
        for key, source in sorted(self._sources.items()):
            score = difflib.SequenceMatcher(None, prompt, source).ratio()
            if score > best_score:
                best_key, best_score = key, score
        return best_key


def _responses(responses: Sequence[str]) -> tuple[str, ...]:
    texts = tuple(responses) if isinstance(responses, (list, tuple)) else ()
    if not texts or not all(isinstance(text, str) for text in texts):
        raise ValueError(f"responses must be a non-empty list of strings, got {responses!r:.80}")
    # Only a lone surrogate, such as a JSON escape \udcff decodes to, fails here;
    # quoted in a later prompt it could not be encoded.
    try:
        "".join(texts).encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError("responses hold a lone surrogate, which is not UTF-8") from None
    return texts


# POSTs one JSON body to a fixed endpoint: (status, headers by lower-case name, body text).
Transport = Callable[[dict], tuple[int, Mapping[str, str], str]]


class KeepAliveTransport:
    """HTTP/1.1 POSTs of JSON bodies to one URL over reused sockets, framed by hand.

    Construction parses and checks the URL (``http(s)://host[:port]``,
    else :class:`ValueError`, as for a header with CR or LF), reads the
    proxy route from environment variables only (see
    :func:`_environment_proxy`) and builds the request head. A call only
    serializes its body. Idle sockets are lent to one call at a time, so
    a thread making calls one after another reuses one connection. A
    reused socket that the server has closed is replaced once. A
    connection is a ``socket.create_connection`` with ``TCP_NODELAY`` set;
    for HTTPS through a proxy a hand-written ``CONNECT`` opens the tunnel,
    and HTTPS is then wrapped in TLS, verified with
    ``ssl.create_default_context()``. Each request goes out as one
    message, and the response is read straight off the socket: its body
    is delimited by ``Content-Length``, by chunked transfer coding, or by
    the server closing the connection, which is then not reused; a body
    cut short is a :class:`TransportError`, never a shorter text, and a
    200 reply's body that is not UTF-8 is a :class:`ProtocolError`. A socket
    goes back to the idle pool only after an HTTP/1.1 response without
    ``Connection: close``. ``socket`` is imported on the first connection
    and ``ssl`` on the first HTTPS one, which keeps them out of start-up
    time; plain-HTTP runs never load ``ssl``.
    """

    def __init__(self, url: str, headers: Mapping[str, str], timeout: float):
        parts = urllib.parse.urlsplit(url)
        self._url, self._scheme, self._host = url, parts.scheme, parts.hostname or ""
        if self._scheme not in ("http", "https") or not self._host:
            raise ValueError(f"URL must be http(s)://host[:port], got {url!r}")
        default_port = 443 if self._scheme == "https" else 80
        self._port = parts.port or default_port
        self._proxy = _environment_proxy(self._scheme, self._host)
        self._address = (self._host, self._port)
        if self._proxy is not None:
            proxy_parts = urllib.parse.urlsplit(self._proxy)
            self._address = (proxy_parts.hostname or "", proxy_parts.port or 80)
        self._timeout = timeout
        target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
        headers = dict(headers)
        if self._proxy is not None and self._scheme == "http":
            target = url
            headers.update(_proxy_auth(self._proxy))
        fields = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        if fields.count("\n") != len(headers) or fields.count("\r") != len(headers):
            raise ValueError("header names and values must not contain CR or LF")
        if _URL_UNSAFE.search(target):
            raise ValueError(f"URL must not contain spaces or control characters: {url!r}")
        # The request head around its one varying field, the body's length.
        self._head = f"POST {target} HTTP/1.1\r\n".encode("ascii") + (
            f"Host: {_host_header(self._host, self._port, default_port)}\r\n"
            f"Accept-Encoding: identity\r\nContent-Length: "
        ).encode("latin-1")
        self._fields = f"\r\n{fields}\r\n".encode("latin-1")
        self._lock = threading.Lock()
        self._idle: list = []
        self._ssl_context = None

    def __call__(self, body: dict[str, Any]) -> tuple[int, Mapping[str, str], str]:
        payload = json.dumps(body).encode("utf-8")
        message = b"%s%d%s%s" % (self._head, len(payload), self._fields, payload)
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        while True:
            try:
                if conn is None:
                    conn = self._connect()
                conn.sendall(message)
                status, response_headers, raw, keep = _read_response(conn)
            except (OSError, TransportError) as exc:
                if conn is not None:
                    conn.close()
                if reused and isinstance(exc, ConnectionError):
                    # The server closed the idle connection; try once afresh.
                    conn, reused = None, False
                    continue
                raise TransportError(f"POST {self._url} failed: {exc}") from exc
            break
        if keep:
            with self._lock:
                self._idle.append(conn)
        else:
            conn.close()
        try:
            return status, response_headers, raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            if status == 200:  # a reply's text would pass on with the damage replaced
                raise ProtocolError(f"POST {self._url}: reply body is not UTF-8: {exc}") from None
            return status, response_headers, raw.decode("utf-8", "replace")  # quoted in an error

    def _connect(self):
        import socket

        sock = socket.create_connection(self._address, self._timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._scheme == "https":
                if self._proxy is not None:
                    _open_tunnel(sock, self._host, self._port, self._proxy)
                if self._ssl_context is None:
                    import ssl

                    self._ssl_context = ssl.create_default_context()
                sock = self._ssl_context.wrap_socket(sock, server_hostname=self._host)
        except BaseException:
            sock.close()
            raise
        return sock

    def close(self) -> None:
        """Close every idle connection."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


_RECV_BYTES = 4096  # first read of a response; a body is then read by its length
_MAX_RECV_BYTES = 65536
_MAX_HEAD_BYTES = 65536
_URL_UNSAFE = re.compile(r"[\x00-\x20\x7f]")
_HEAD_END = re.compile(rb"\r?\n\r?\n")
_STATUS_LINE = re.compile(r"HTTP/(\d\.\d) (\d{3})(?: .*)?\r?")
_CHUNK_SIZE = re.compile(rb"([0-9a-fA-F]+)[ \t]*(?:;.*)?\r?\n")


class _Reader:
    """Buffered reads of HTTP responses from one socket."""

    def __init__(self, sock):
        self._sock = sock
        self.buffer = bytearray()

    def _fill(self, size: int = _RECV_BYTES) -> bool:
        data = self._sock.recv(size)
        self.buffer += data
        return bool(data)

    def head(self) -> list[str] | None:
        """The lines of the next response head; None if the server closed before it."""
        while (end := _HEAD_END.search(self.buffer)) is None:
            if len(self.buffer) > _MAX_HEAD_BYTES:
                raise TransportError("response head too long")
            if not self._fill():
                if self.buffer:
                    raise TransportError("connection closed inside the response head")
                return None
        head = self.buffer[: end.start()].decode("latin-1")
        del self.buffer[: end.end()]
        return head.split("\n")

    def line(self) -> bytes:
        while (end := self.buffer.find(b"\n")) < 0:
            if len(self.buffer) > _MAX_HEAD_BYTES:
                raise TransportError("response line too long")
            if not self._fill():
                raise TransportError("connection closed inside a chunked body")
        line = bytes(self.buffer[: end + 1])
        del self.buffer[: end + 1]
        return line

    def take(self, size: int) -> bytes:
        while len(self.buffer) < size:
            # Ask for what is missing, so no receive buffer is larger than the body.
            if not self._fill(min(size - len(self.buffer), _MAX_RECV_BYTES)):
                raise TransportError(
                    f"connection closed after {len(self.buffer)} of {size} body bytes"
                )
        data = bytes(self.buffer[:size])
        del self.buffer[:size]
        return data

    def rest(self) -> bytes:
        while self._fill():
            pass
        data = bytes(self.buffer)
        self.buffer.clear()
        return data

    def chunked(self) -> bytes:
        parts = []
        while True:
            line = self.line()
            match = _CHUNK_SIZE.fullmatch(line)
            if match is None:
                raise TransportError(f"bad chunk size line {line[:40]!r}")
            size = int(match.group(1), 16)
            if size == 0:
                break
            parts.append(self.take(size))
            if self.line().rstrip(b"\r\n"):
                raise TransportError("chunk data longer than its size")
        while self.line().rstrip(b"\r\n"):  # trailer fields, up to the blank line
            pass
        return b"".join(parts)


def _read_response(sock) -> tuple[int, dict[str, str], bytes, bool]:
    """One response from ``sock``: status, headers, body and whether ``sock`` may be reused.

    Header names are lower-cased.

    Raises :class:`ConnectionResetError` when the server closes the
    connection before the first byte of a response, and
    :class:`TransportError` for any other response that is malformed or
    cut short.
    """
    reader = _Reader(sock)
    lines = reader.head()
    if lines is None:
        raise ConnectionResetError("server closed the connection without a response")
    while True:
        match = _STATUS_LINE.fullmatch(lines[0])
        if match is None:
            raise TransportError(f"malformed status line {lines[0][:80]!r}")
        status = int(match.group(2))
        if status >= 200:
            break
        lines = reader.head()  # an interim response; the final one follows
        if lines is None:
            raise TransportError("connection closed after an interim response")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if not colon:
            raise TransportError(f"malformed header line {line[:80]!r}")
        headers.setdefault(name.strip().lower(), value.strip())
    connection = headers.get("connection", "").lower().split(",")
    keep = match.group(1) == "1.1" and "close" not in (token.strip() for token in connection)
    encoding = headers.get("transfer-encoding")
    length = headers.get("content-length")
    if status in (204, 304):
        body = b""
    elif encoding is not None:
        if encoding.lower().rsplit(",", 1)[-1].strip() == "chunked":
            body = reader.chunked()
        else:
            body, keep = reader.rest(), False
    elif length is not None:
        if not (length.isascii() and length.isdigit()):
            raise TransportError(f"bad Content-Length {length[:40]!r}")
        body = reader.take(int(length))
    else:
        body, keep = reader.rest(), False
    # Bytes past the response were never asked for; the connection is out of step.
    return status, headers, body, keep and not reader.buffer


def _host_header(host: str, port: int, default_port: int) -> str:
    if not host.isascii():
        host = host.encode("idna").decode("ascii")
    if ":" in host:
        host = f"[{host}]"
    return host if port == default_port else f"{host}:{port}"


def _environment_proxy(scheme: str, host: str) -> str | None:
    """The proxy URL the environment sets for ``scheme``, unless ``host`` bypasses it.

    Only environment variables count: ``<scheme>_proxy`` and
    ``all_proxy`` in any case, with ``no_proxy`` for bypasses. When
    neither proxy variable has a value this is None without importing
    ``urllib.request``, so the system proxy settings of macOS and
    Windows are not read; otherwise ``urllib.request.getproxies`` and
    ``proxy_bypass`` decide.
    """
    wanted = (f"{scheme}_proxy", "all_proxy")
    if not any(value for name, value in os.environ.items() if name.lower() in wanted):
        return None
    from urllib.request import getproxies, proxy_bypass

    proxies = getproxies()
    proxy = proxies.get(scheme) or proxies.get("all")
    if not proxy or proxy_bypass(host):
        return None
    return proxy if "://" in proxy else f"http://{proxy}"


def _open_tunnel(sock, host: str, port: int, proxy: str) -> None:
    """Ask the proxy at the other end of ``sock`` for a tunnel to ``host:port``."""
    authority = _host_header(host, port, default_port=0)  # always with the port
    fields = "".join(f"{name}: {value}\r\n" for name, value in _proxy_auth(proxy).items())
    sock.sendall(
        f"CONNECT {authority} HTTP/1.1\r\nHost: {authority}\r\n{fields}\r\n".encode("ascii")
    )
    reader = _Reader(sock)
    lines = reader.head()
    if lines is None:
        raise TransportError("proxy closed the connection without answering CONNECT")
    match = _STATUS_LINE.fullmatch(lines[0])
    if match is None or match.group(2) != "200":
        raise TransportError(f"proxy refused CONNECT: {lines[0][:80]!r}")
    if reader.buffer:
        raise TransportError("proxy sent bytes after its CONNECT response")


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

    The URL, ``<base_url>/v1/chat/completions``, and the headers, with
    the API key from the ``REXGOT_API_KEY`` environment variable (never
    from the command line), are fixed at construction in the
    :class:`KeepAliveTransport` made then; a ``transport`` passed in
    replaces it and is given only the request bodies. Transient failures
    retry up to ``max_retries`` times with exponential backoff, waiting
    at least a 429's ``Retry-After`` seconds when that is a number in
    [0, 86400]; auth and protocol errors never retry. Each choice's
    ``finish_reason`` and the reply's ``usage`` are kept as sent. A reply
    is a :class:`ProtocolError` unless its choices are objects with a
    string ``message.content`` and a string or null ``finish_reason``,
    its ``usage`` is an object or null, and there are ``n_samples`` choices.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 120.0,
        max_retries: int = 3,
        transport: Transport | None = None,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        self.max_retries = max_retries
        self._sleep = sleeper
        if transport is None:
            headers = {"Content-Type": "application/json"}
            if api_key := os.environ.get(API_KEY_ENV, ""):
                headers["Authorization"] = f"Bearer {api_key}"
            url = f"{base_url.rstrip('/')}/v1/chat/completions"
            transport = KeepAliveTransport(url, headers, timeout)
        self._transport = transport

    def close(self) -> None:
        _close(self._transport)

    def complete(self, request: CompletionRequest) -> list[Completion]:
        body: dict[str, Any] = {
            "model": request.model_name,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "n": request.n_samples,
            "max_tokens": request.max_tokens,
        }
        if request.seed is not None:  # greedy bodies stay as they were
            body["seed"] = request.seed
        attempt = 0
        while True:
            try:
                status, resp_headers, text = self._transport(body)
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
            try:
                seconds = float(headers.get("retry-after", ""))
            except ValueError:
                seconds = -1.0
            # Anything but a finite wait of at most a day counts as absent.
            after = seconds if 0 <= seconds <= 86400 else 1.0
            raise RateLimited(f"rate limited (HTTP {status})", after=after)
        if status >= 500:
            raise TransportError(f"server error (HTTP {status})")
        if status != 200:
            raise ProtocolError(f"HTTP {status}: {text[:200]}")
        try:
            payload = json.loads(text)
            # A choice or message that is not an object fails here with a TypeError.
            samples = [
                (choice["message"]["content"], choice.get("finish_reason", "stop"),
                 payload.get("usage"))
                for choice in payload["choices"]
            ]
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ProtocolError(f"unexpected response shape: {text[:200]}") from exc
        return _decode(samples, n_samples, text)


def _decode(samples: list[tuple[Any, Any, Any]], n_samples: int, source: str) -> list[Completion]:
    """Completions from a reply's or a cache entry's (text, finish_reason, usage) triples.

    Anything malformed is a :class:`ProtocolError` quoting the start of ``source``.
    """
    for text, finish_reason, usage in samples:
        if not isinstance(text, str):
            problem = "choice without text content"
        elif not isinstance(finish_reason, (str, type(None))):
            problem = f"finish_reason {finish_reason!r:.40} is not a string or null"
        elif not isinstance(usage, (dict, type(None))):
            problem = f"usage {usage!r:.40} is not an object or null"
        else:
            continue
        raise ProtocolError(f"{problem}: {source[:200]}")
    if len(samples) != n_samples:
        raise ProtocolError(f"asked for {n_samples} samples, got {len(samples)}: {source[:200]}")
    return [Completion(*sample) for sample in samples]


SEGMENT_DIR = "v4"  # the on-disk format's version; a new format takes a new name
_ENTRY_HEAD = re.compile(rb'\{"digest":"([0-9a-f]{64})",')
_SCAN_BYTES = 65536


class CachingBackend:
    """Content-addressed, append-only file cache around another backend.

    Layout: ``<cache_dir>/v4/<pid>-<random hex>.jsonl`` segments. Each
    backend appends the entries it stores to a segment of its own,
    created on its first store, one line per request digest:
    ``{"digest":"<sha256>",`` then the completion list and the request
    bytes the digest hashes, as compact ASCII JSON with sorted keys. At
    construction every segment is read, a buffer at a time and in sorted
    name order, into an in-memory index of digest to (file, offset,
    length); the first entry for a digest wins, so lookups are
    deterministic, and a lookup is a dict get plus one ``os.pread``. A
    line that is cut off or has a malformed head is skipped, and the
    count is reported on stderr; a line whose body is malformed or holds
    a non-ASCII byte is a :class:`ProtocolError` for the request that
    reads it. With an ``inner`` backend it records: it reads through and
    stores misses. With ``inner=None`` it replays: it serves hits only
    and a miss is a :class:`ReplayMiss`, so replayed runs are fully
    offline; a replay of a directory that is missing or holds no segments
    is refused at construction with a :class:`ValueError`.
    Concurrent writers, in this process or others sharing the directory,
    append to different segments and need no lock between them; entries
    another backend stores after this one was built are not seen by it.
    """

    def __init__(self, inner: Backend | None, cache_dir: str | Path):
        paths = segment_paths(cache_dir)
        if inner is None and not paths:
            if not Path(cache_dir).is_dir():
                raise ValueError(
                    f"replay mode requires an existing cache directory, "
                    f"{str(cache_dir)!r} is missing"
                )
            raise ValueError(
                f"cache directory {str(cache_dir)!r} holds no {SEGMENT_DIR} segments; "
                f"a cache recorded in an older layout must be re-recorded"
            )
        self.inner = inner
        self.cache_dir = Path(cache_dir)
        self._lock = threading.Lock()  # guards appends to the index and the own segment
        self._index: dict[str, tuple[int, int, int]] = {}  # digest -> (fd, offset, length)
        self._fds: list[int] = []
        self._segment: int | None = None  # fd of the own segment, opened on the first store
        self._segment_end = 0
        try:
            for path in paths:
                self._index_segment(path)
        except BaseException:
            self.close()
            raise

    def _index_segment(self, path: Path) -> None:
        try:
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError:  # purged since the directory was listed
            return
        added = skipped = 0
        try:
            for digest, offset, length in _segment_entries(fd):
                if digest is None:
                    skipped += 1
                elif digest not in self._index:
                    self._index[digest] = (fd, offset, length)
                    added += 1
        finally:
            if added:
                self._fds.append(fd)
            else:
                os.close(fd)
        if skipped:
            print(
                f"rexgot: cache segment {path.name}: "
                f"skipped {skipped} cut-off or malformed line(s)",
                file=sys.stderr,
            )

    def contains(self, digest: str) -> bool:
        """Whether a lookup of ``digest`` would hit, without reading the entry."""
        return digest in self._index

    def _path(self, digest: str) -> SimpleNamespace:
        # perfbench/child.py's traced mode probes hits as ``_path(digest).exists()``;
        # this goes once it calls ``contains``.
        return SimpleNamespace(exists=lambda: self.contains(digest))

    def complete(self, request: CompletionRequest) -> list[Completion]:
        canonical = _canonical_request(request)
        digest = hashlib.sha256(canonical).hexdigest()
        entry = self._index.get(digest)
        if entry is not None:
            fd, offset, length = entry
            raw = os.pread(fd, length, offset)
            try:
                line = raw.decode("ascii")  # as written; any other byte is damage
                completions = json.loads(line)["completions"]
                samples = [(c["text"], c["finish_reason"], c["usage"]) for c in completions]
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                quoted = raw[:200].decode("ascii", "replace")
                raise ProtocolError(f"malformed cache entry: {quoted}") from exc
            return _decode(samples, request.n_samples, f"cache entry {line}")
        if self.inner is None:
            raise ReplayMiss(f"no cached completion for digest {digest}")
        completions = self.inner.complete(request)
        self._store(digest, canonical, completions)
        return completions

    def close(self) -> None:
        with self._lock:
            fds, self._fds = self._fds, []
            self._index.clear()  # a closed descriptor's number may be reused
            self._segment = None
        for fd in fds:
            os.close(fd)
        _close(self.inner)

    def _store(self, digest: str, canonical: bytes, completions: Sequence[Completion]) -> None:
        samples = [asdict(c) for c in completions]
        body = json.dumps(samples, sort_keys=True, separators=(",", ":")).encode("ascii")
        line = b'{"digest":"%s","completions":%s,"request":%s}\n' % (
            digest.encode("ascii"), body, canonical
        )
        with self._lock:
            if digest in self._index:  # stored meanwhile by a concurrent miss
                return
            if self._segment is None:
                self._segment = self._open_segment()
                self._fds.append(self._segment)
                self._segment_end = 0
            offset = self._segment_end
            try:
                view = memoryview(line)
                while view:
                    view = view[os.write(self._segment, view) :]
            except BaseException:
                os.ftruncate(self._segment, offset)  # no cut-off line for later appends
                raise
            self._segment_end += len(line)
            self._index[digest] = (self._segment, offset, len(line))

    def _open_segment(self) -> int:
        path = self.cache_dir / SEGMENT_DIR / f"{os.getpid()}-{os.urandom(8).hex()}.jsonl"
        os.makedirs(path.parent, exist_ok=True)
        flags = os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_EXCL
        return os.open(path, flags, 0o666)  # the umask applies, unlike mkstemp's 0600


def segment_paths(cache_dir: str | Path) -> list[Path]:
    """The cache's segment files, in the order their entries take precedence."""
    return sorted((Path(cache_dir) / SEGMENT_DIR).glob("*.jsonl"))


def _segment_entries(fd: int) -> Iterator[tuple[str | None, int, int]]:
    """(digest, offset, length) of each line of the segment open at ``fd``.

    The digest is None for a line that is cut off, a last line without its
    newline too, or malformed. ``fd`` is read through a buffered reader and left open.
    """
    offset = 0
    with open(fd, "rb", buffering=_SCAN_BYTES, closefd=False) as segment:
        for line in segment:
            match = _ENTRY_HEAD.match(line)
            digest = match.group(1).decode("ascii") if match and line.endswith(b"}\n") else None
            yield digest, offset, len(line)
            offset += len(line)


def _close(resource: Any) -> None:
    """Call ``resource.close()`` if it has one."""
    close = getattr(resource, "close", None)
    if close is not None:
        close()


def purge_cache(cache_dir: str | Path) -> int:
    """Delete all cache segments; returns the number of entries they held."""
    digests: set[str | None] = set()
    for path in segment_paths(cache_dir):
        fd = os.open(path, os.O_RDONLY)
        try:
            digests.update(digest for digest, _, _ in _segment_entries(fd))
        finally:
            os.close(fd)
        path.unlink()
    digests.discard(None)
    try:
        (Path(cache_dir) / SEGMENT_DIR).rmdir()
    except OSError:
        pass
    return len(digests)
