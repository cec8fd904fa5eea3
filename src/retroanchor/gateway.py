"""Model gateway: live chat-completion calls, caching, replay, batching.

Every completion is cached under a content-addressed digest before it is
returned, so a live run is replayable byte-for-byte afterwards.  Replay is
a gateway without a backend, so it cannot send.  A cache entry missing in
replay, or unreadable in either, is a classified failure, not a crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from pathlib import Path
from typing import NamedTuple

from retroanchor.prompts import RenderedPrompt
from retroanchor.utils import atomic_write_text, stable_json_dumps

AUTH_FAILURE = "auth_failure"
CACHE_CORRUPT = "cache_corrupt"
CONTEXT_LENGTH = "context_length"
MALFORMED_RESPONSE = "malformed_response"
RETRIES_EXHAUSTED = "retries_exhausted"
REPLAY_MISS = "replay_miss"
REQUEST_REJECTED = "request_rejected"


class GatewayError(Exception):
    """A classified completion failure."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class TransientBackendError(Exception):
    """Timeout, rate limit, or server fault worth retrying."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


# Fixed request settings: the provider's defaults apply to every other sampling setting.
MAX_OUTPUT_TOKENS = 8192
MAX_ATTEMPTS = 4  # backend sends per request, the first included
BACKOFF_S = 1.0  # the longest sleep before the second send; it doubles before each later one
TIMEOUT_S = 120.0  # per connect and per read


class ModelConfig(NamedTuple):
    """One model endpoint, as the model flags of a run stage set it."""

    model_id: str
    endpoint: str = ""
    api_key_env: str = "RETROANCHOR_API_KEY"


class Completion(NamedTuple):
    request_digest: str
    text: str
    finish_reason: str
    latency_ms: int
    token_usage: dict | None = None
    attempts: int = 1
    from_cache: bool = False


class GatewayFailure(NamedTuple):
    request_digest: str
    kind: str
    message: str
    attempts: int = 0


class BackendResult(NamedTuple):
    text: str
    finish_reason: str = "stop"
    token_usage: dict | None = None


# JSON escapes per character and "text" sorts last, so parts are hashed escaped one by one in the
# payload's frame.  Per frame head: the last parts and the states after each, only ever copied.
_DIGEST_MEMO: dict[str, tuple] = {}


def request_digest(prompt: RenderedPrompt, cfg: ModelConfig) -> str:
    """Content address of one request; template edits change the key."""
    payload = {
        "text": "",
        "template_digest": prompt.template_digest,
        "model_id": cfg.model_id,
        "sampling": {"max_output_tokens": MAX_OUTPUT_TOKENS},
    }
    head, tail = stable_json_dumps(payload).rsplit('""', 1)
    memo_parts, states = _DIGEST_MEMO.get(head) or ((), (hashlib.sha256(f'{head}"'.encode()),))
    shared, limit = 0, min(len(prompt.parts), len(memo_parts))
    while shared < limit and prompt.parts[shared] == memo_parts[shared]:
        shared += 1
    states = list(states[: shared + 1])  # reuse the state after the shared leading parts
    for part in prompt.parts[shared:]:
        states.append(states[-1].copy())
        states[-1].update(json.dumps(part, ensure_ascii=False)[1:-1].encode())
    _DIGEST_MEMO[head] = (prompt.parts, tuple(states))
    final = states[-1].copy()
    final.update(f'"{tail}'.encode())
    return final.hexdigest()


class CompletionCache:
    """Directory of content-addressed completion JSON files."""

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.json"

    def get(self, digest: str) -> dict | None:
        """The cached entry, or None on a miss.

        An entry that cannot be replayed raises ``cache_corrupt`` and is
        left on disk as it is, never overwritten.
        """
        path = self._path(digest)
        try:
            entry = json.loads(path.read_bytes().decode("utf-8"))
        except FileNotFoundError:
            return None
        # OSError: a directory or an unreadable file; ValueError: also Unicode and JSON errors.
        except (OSError, ValueError, RecursionError) as exc:
            raise GatewayError(CACHE_CORRUPT, f"unreadable cache entry {path}: {exc}") from exc
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("text"), str)
            and type(entry.get("latency_ms", 0)) is int
            and type(entry.get("attempts", 1)) is int
        ):
            raise GatewayError(
                CACHE_CORRUPT, f"cache entry {path} lacks a string text or integer counts"
            )
        return entry

    def put(self, digest: str, entry: dict) -> None:
        atomic_write_text(self._path(digest), stable_json_dumps(entry))


RETRY_AFTER_CAP_S = 60.0  # the longest Retry-After delay honoured


def _retry_after(response) -> float | None:
    """The capped delay a 429 or 503 reply asks for (RFC 9110 §10.2.3), in
    delta-seconds or as an HTTP-date; None if it names none we can read."""
    from datetime import timezone
    from email.utils import parsedate_to_datetime
    value = response.getheader("Retry-After", "") if response.status in (429, 503) else ""
    try:
        if value.strip().isdigit():
            return min(float(value), RETRY_AFTER_CAP_S)
        date = parsedate_to_datetime(value)
        # A date without a zone, as in the asctime form, is GMT (RFC 9110 §5.6.7).
        delay = date.replace(tzinfo=date.tzinfo or timezone.utc).timestamp() - time.time()
    except (ValueError, OverflowError):  # OverflowError: a year no C integer holds
        return None
    return min(max(delay, 0.0), RETRY_AFTER_CAP_S)


def read_api_key(env: str) -> str:
    """The key the environment variable ``env`` holds.  An unset key, or
    one with a character other than printable ASCII (``http.client``
    raises for CR, LF or a character outside Latin-1), is an
    ``auth_failure`` whose message never shows the key."""
    key = os.environ.get(env, "")
    if not key:
        raise GatewayError(AUTH_FAILURE, f"environment variable {env} is not set")
    if not (key.isascii() and key.isprintable()):
        raise GatewayError(AUTH_FAILURE, f"environment variable {env} holds a character other than printable ASCII")
    return key


class HttpBackend:
    """OpenAI-style chat-completions over stdlib ``http.client``, with one
    keep-alive connection per sending thread (RFC 9112 §9) until ``close``.
    The HTTP modules are imported here, not at module level, so that stages
    which never send a request (replay runs, evaluation) skip them."""

    def __init__(self, cfg: ModelConfig):
        import http.client
        from urllib.parse import urlsplit, urlunsplit
        from urllib.request import getproxies, proxy_bypass
        url = urlsplit(cfg.endpoint)
        try:
            port = url.port  # ValueError unless absent or a number in 0-65535
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ValueError
        except ValueError:
            raise GatewayError(REQUEST_REJECTED, f"not an absolute http(s) URL: {cfg.endpoint!r}") from None
        self.cfg = cfg
        self._connections: dict[int, http.client.HTTPConnection] = {}
        # A proxy from HTTP(S)_PROXY, ALL_PROXY and NO_PROXY relays plain HTTP
        # by absolute URL and tunnels HTTPS through CONNECT.
        proxies = {} if proxy_bypass(url.netloc) else getproxies()
        scheme = url.scheme if url.scheme in proxies else "all"
        proxy = proxies.get(scheme)
        via = urlsplit(proxy if "://" in proxy else f"http://{proxy}") if proxy else None
        https = url.scheme == "https"
        path = urlunsplit(("", "", url.path or "/", url.query, ""))
        self._target = cfg.endpoint if via and not https else path
        self._tunnel = (url.hostname, port) if via and https else None
        try:
            host, port = (via.hostname, via.port or 80) if via else (url.hostname, port)
        except ValueError:
            raise GatewayError(REQUEST_REJECTED, f"its proxy {scheme.upper()}_PROXY has a bad port: {proxy!r}") from None
        kind = http.client.HTTPSConnection if https else http.client.HTTPConnection
        self._dial = lambda: kind(host, port, timeout=TIMEOUT_S)

    def close(self) -> None:
        """Close every thread's connection; a later send dials again."""
        while self._connections:
            self._connections.popitem()[1].close()

    def send(self, text: str) -> BackendResult:
        import http.client
        api_key = read_api_key(self.cfg.api_key_env)
        payload = json.dumps({
            "model": self.cfg.model_id,
            "messages": [{"role": "user", "content": text}],
            "max_tokens": MAX_OUTPUT_TOKENS,
        }).encode()
        headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
        connection = self._connections.get(threading.get_ident())
        if connection is None:
            connection = self._connections[threading.get_ident()] = self._dial()
            if self._tunnel:
                connection.set_tunnel(*self._tunnel)
        try:
            for redial in (connection.sock is not None, False):
                try:
                    connection.request("POST", self._target, payload, headers)
                    response = connection.getresponse()
                    break
                except (BrokenPipeError, ConnectionResetError):
                    connection.close()  # closed by the server while idle: dial again, once
                    if not redial:
                        raise
            status, raw = response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:  # TimeoutError included
            connection.close()
            raise TransientBackendError(f"connection error: {exc!r}") from exc

        reply = raw.decode("utf-8", "replace")
        if status in (401, 403):
            raise GatewayError(AUTH_FAILURE, f"authentication rejected ({status})")
        if status == 413:
            raise GatewayError(CONTEXT_LENGTH, "request body too large")
        if status == 400 and "context" in reply.lower():
            raise GatewayError(CONTEXT_LENGTH, reply[:500])
        if status in (408, 429) or status >= 500:
            raise TransientBackendError(f"status {status}", _retry_after(response))
        if status != 200:
            raise GatewayError(REQUEST_REJECTED, f"status {status}: {reply[:500]}")

        # A reply without text is not worth a retry: the endpoint answered.
        try:
            body = json.loads(raw)
            choice = body["choices"][0]
            text = choice["message"]["content"]
        except (ValueError, LookupError, TypeError, RecursionError) as exc:
            raise GatewayError(
                MALFORMED_RESPONSE, f"reply has no choices[0].message.content: {exc!r}"
            ) from exc
        if not isinstance(text, str):
            raise GatewayError(
                MALFORMED_RESPONSE, f"reply content is {type(text).__name__}, not a string"
            )
        return BackendResult(
            text=text,
            finish_reason=choice.get("finish_reason", "stop"),
            token_usage=body.get("usage"),
        )


class Gateway:
    """Completion front door shared across worker threads.  Without a
    backend it is a replay gateway: it answers from the cache only, in the
    calling thread, and cannot send.  A live retry sleeps a uniform draw
    from ``rng`` up to the doubling backoff step ("full jitter"), or
    exactly the delay a reply's Retry-After asks for."""

    def __init__(
        self,
        cfg: ModelConfig,
        cache_dir: Path | str,
        backend=None,
        sleeper=time.sleep,
        rng: random.Random | None = None,
    ):
        self.cfg = cfg
        self.cache = CompletionCache(cache_dir)
        self.backend = backend
        self._sleep = sleeper
        self._rng = rng or random.Random()

    def _complete(self, prompt: RenderedPrompt) -> Completion | GatewayFailure:
        digest = request_digest(prompt, self.cfg)
        attempts = 0
        try:
            cached = self.cache.get(digest)
            if cached is not None:
                return _completion(digest, cached, from_cache=True)
            if self.backend is None:
                raise GatewayError(REPLAY_MISS, f"no cached completion for {digest}")
            while True:
                attempts += 1
                started = time.monotonic()
                try:
                    result = self.backend.send(prompt.text)
                except TransientBackendError as exc:
                    if attempts >= MAX_ATTEMPTS:
                        raise GatewayError(
                            RETRIES_EXHAUSTED, f"gave up after {attempts} attempts: {exc}"
                        ) from exc
                    step = BACKOFF_S * 2 ** (attempts - 1)
                    self._sleep(self._rng.uniform(0, step) if exc.retry_after is None else exc.retry_after)
                    continue
                latency_ms = int((time.monotonic() - started) * 1000)
                entry = _cache_entry(digest, prompt, self.cfg, result, latency_ms, attempts)
                self.cache.put(digest, entry)
                return _completion(digest, entry, from_cache=False)
        except GatewayError as exc:
            return GatewayFailure(request_digest=digest, kind=exc.kind, message=str(exc), attempts=attempts)

    def run_batch(
        self, prompts: list[RenderedPrompt], parallelism: int
    ) -> list[Completion | GatewayFailure]:
        """Complete every prompt, live sends at most ``parallelism`` at once.

        Output order matches input order; a failed item becomes a
        GatewayFailure in its slot and never aborts the batch.
        """
        if parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if self.backend is None:  # a pool costs more than reading small cache files in turn
            return list(map(self._complete, prompts))
        from concurrent.futures import ThreadPoolExecutor
        try:
            with ThreadPoolExecutor(max_workers=parallelism) as pool:
                return list(pool.map(self._complete, prompts))
        finally:
            if isinstance(self.backend, HttpBackend):
                self.backend.close()


def _cache_entry(
    digest: str,
    prompt: RenderedPrompt,
    cfg: ModelConfig,
    result: BackendResult,
    latency_ms: int,
    attempts: int,
) -> dict:
    """The one cache-file layout, for live completions and seeded ones."""
    return {
        "request_digest": digest,
        "model_id": cfg.model_id,
        "template_name": prompt.template_name,
        "template_digest": prompt.template_digest,
        "sampling": {"max_output_tokens": MAX_OUTPUT_TOKENS},
        "text": result.text,
        "finish_reason": result.finish_reason,
        "latency_ms": latency_ms,
        "token_usage": result.token_usage,
        "attempts": attempts,
    }


def _completion(digest: str, entry: dict, from_cache: bool) -> Completion:
    return Completion(
        request_digest=digest,
        text=entry["text"],
        finish_reason=entry.get("finish_reason", "stop"),
        latency_ms=entry.get("latency_ms", 0),
        token_usage=entry.get("token_usage"),
        attempts=entry.get("attempts", 1),
        from_cache=from_cache,
    )


def seed_cache(cache_dir: Path | str, prompt: RenderedPrompt, cfg: ModelConfig, text: str) -> str:
    """Plant a canned completion for replay runs; returns its digest."""
    digest = request_digest(prompt, cfg)
    entry = _cache_entry(digest, prompt, cfg, BackendResult(text), latency_ms=0, attempts=1)
    CompletionCache(cache_dir).put(digest, entry)
    return digest
