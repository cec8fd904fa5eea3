"""Tests for the completion gateway: cache, retries, batching, replay."""

from __future__ import annotations

import hashlib
import json
import random
import socket
import sys
import threading
import time
from email.utils import formatdate

import pytest

from helpers import golden_fixture_dir, run_golden_pipeline
from loopback import ChatServer, chat_body, without_proxies

import retroanchor.gateway as gateway_module
from retroanchor.gateway import (
    AUTH_FAILURE,
    CACHE_CORRUPT,
    CONTEXT_LENGTH,
    MALFORMED_RESPONSE,
    REPLAY_MISS,
    REQUEST_REJECTED,
    RETRIES_EXHAUSTED,
    BackendResult,
    Completion,
    Gateway,
    GatewayError,
    GatewayFailure,
    HttpBackend,
    ModelConfig,
    TransientBackendError,
    request_digest,
    seed_cache,
)
from retroanchor.prompts import RenderedPrompt
from retroanchor.utils import read_jsonl, stable_json_dumps


def _prompt(text: str, template: str = "position") -> RenderedPrompt:
    return RenderedPrompt(
        template_name=template,
        parts=(text,),
        example_count=0,
        template_digest="deadbeef" * 8,
    )


CFG = ModelConfig(model_id="test-model")
MAX_ATTEMPTS, BACKOFF_S = gateway_module.MAX_ATTEMPTS, gateway_module.BACKOFF_S


def _jittered(seed: int, *retry_after: float | None) -> list[float]:
    """The sleeps a gateway given ``random.Random(seed)`` takes before its
    second, third, ... send, each step's reply asking for ``retry_after``."""
    rng = random.Random(seed)
    return [
        rng.uniform(0, BACKOFF_S * 2**i) if delay is None else delay
        for i, delay in enumerate(retry_after)
    ]


class EchoBackend:
    def send(self, text: str) -> BackendResult:
        return BackendResult(text=f"echo:{text}")


class ProbeBackend:
    """Echo backend that measures peak concurrent in-flight requests."""

    def __init__(self, delay: float = 0.01):
        self._lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0
        self.delay = delay

    def send(self, text: str) -> BackendResult:
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(self.delay)
        with self._lock:
            self.in_flight -= 1
        return BackendResult(text=f"echo:{text}")


class ScriptedBackend:
    """Pops one scripted behavior per call: a result or an exception."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def send(self, text: str) -> BackendResult:
        self.calls += 1
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return BackendResult(text=step)


class TestDigest:
    def test_stable_for_identical_inputs(self):
        assert request_digest(_prompt("hi"), CFG) == request_digest(_prompt("hi"), CFG)

    def test_varies_with_text_model_sampling_and_template(self):
        base = request_digest(_prompt("hi"), CFG)
        assert request_digest(_prompt("bye"), CFG) != base
        assert request_digest(_prompt("hi"), ModelConfig(model_id="other")) != base
        other_template = RenderedPrompt(
            template_name="position",
            parts=("hi",),
            example_count=0,
            template_digest="feedface" * 8,
        )
        assert request_digest(other_template, CFG) != base


def _reference_digest(prompt: RenderedPrompt, cfg: ModelConfig) -> str:
    """The cache-key formula over the whole text, hashed in one piece."""
    payload = {
        "text": "".join(prompt.parts),
        "template_digest": prompt.template_digest,
        "model_id": cfg.model_id,
        "sampling": {"max_output_tokens": 8192},
    }
    return hashlib.sha256(stable_json_dumps(payload).encode("utf-8")).hexdigest()


# Characters JSON escapes (quotes, backslash, control characters) or
# writes as multi-byte UTF-8, plus plain ASCII.
DIGEST_ALPHABET = 'ab Z<>/"\\\n\t\r\b\f\x00\x1f\x7fé漢\u2028🙂'


class TestDigestParts:
    def test_random_splits_match_reference(self):
        rng = random.Random(12)
        cfgs = (CFG, ModelConfig(model_id='othér "m"'))
        template_digests = ("deadbeef" * 8, "feedface" * 8)

        def word(longest):
            return "".join(rng.choice(DIGEST_ALPHABET) for _ in range(rng.randint(0, longest)))

        shared = tuple(word(400) for _ in range(6)) + ("",)
        for round_ in range(400):
            parts = list(shared[: rng.randint(0, len(shared))])
            parts += [word(40) for _ in range(rng.randint(0, 4))]
            prompt = RenderedPrompt(
                template_name="position",
                parts=tuple(parts),
                example_count=0,
                template_digest=template_digests[round_ // 3 % 2],
            )
            cfg = cfgs[round_ % 2]
            expected = _reference_digest(prompt, cfg)
            assert request_digest(prompt, cfg) == expected
            whole = RenderedPrompt("position", (prompt.text,), 0, prompt.template_digest)
            assert request_digest(whole, cfg) == expected

    def test_parallel_batch_over_shared_prefix_matches_reference(self, tmp_path):
        prefix = ("head \"quoted\"\n", "é\\" * 20_000, "\tmiddle\n")
        prompts = [
            RenderedPrompt(
                template_name="position",
                parts=prefix[: 1 + i % 3] + (f"product-{i}", "\x00end"),
                example_count=0,
                template_digest=("deadbeef", "feedface")[i % 2] * 8,
            )
            for i in range(40)
        ]
        gateway = Gateway(CFG, tmp_path, backend=EchoBackend())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the digest as often as possible
        try:
            results = gateway.run_batch(prompts, parallelism=4)
        finally:
            sys.setswitchinterval(interval)
        assert [r.request_digest for r in results] == [_reference_digest(p, CFG) for p in prompts]


class TestCompleteAndCache:
    def test_live_call_writes_cache_then_serves_hits(self, tmp_path):
        gateway = Gateway(CFG, tmp_path, backend=EchoBackend())
        first = gateway.run_batch([_prompt("hello")], 1)[0]
        assert first.text == "echo:hello"
        assert not first.from_cache
        second = gateway.run_batch([_prompt("hello")], 1)[0]
        assert second.from_cache
        assert second.text == first.text
        assert second.latency_ms == first.latency_ms

    def test_live_then_replay_equals_replay_then_replay(self, tmp_path):
        live = Gateway(CFG, tmp_path, backend=EchoBackend())
        live.run_batch([_prompt("alpha")], 1)
        replay_a = Gateway(CFG, tmp_path).run_batch([_prompt("alpha")], 1)[0]
        replay_b = Gateway(CFG, tmp_path).run_batch([_prompt("alpha")], 1)[0]
        assert replay_a.text == replay_b.text == "echo:alpha"
        assert replay_a.request_digest == replay_b.request_digest

    def test_replay_miss_is_classified(self, tmp_path):
        gateway = Gateway(CFG, tmp_path)
        failure = gateway.run_batch([_prompt("never seen")], 1)[0]
        assert isinstance(failure, GatewayFailure)
        assert failure.kind == REPLAY_MISS

    def test_seed_cache_plants_replayable_text(self, tmp_path):
        prompt = _prompt("planted")
        seed_cache(tmp_path, prompt, CFG, '{"disconnections": []}')
        completion = Gateway(CFG, tmp_path).run_batch([prompt], 1)[0]
        assert completion.text == '{"disconnections": []}'


class TestRetries:
    def test_two_transient_faults_then_success(self, tmp_path):
        sleeps: list[float] = []
        backend = ScriptedBackend(
            [TransientBackendError("503"), TransientBackendError("503"), "recovered"]
        )
        gateway = Gateway(CFG, tmp_path, backend=backend, sleeper=sleeps.append, rng=random.Random(3))
        completion = gateway.run_batch([_prompt("flaky")], 1)[0]
        assert completion.text == "recovered"
        assert completion.attempts == 3
        assert sleeps == _jittered(3, None, None)
        entry = gateway.cache.get(completion.request_digest)
        assert entry["attempts"] == 3

    def test_backoff_sleeps_are_drawn_up_to_the_doubling_step(self, tmp_path):
        """Full jitter: each sleep lies in [0, step], and over many requests
        the draws spread across each step rather than sitting at its top."""
        requests = 30
        sleeps: list[float] = []
        backend = ScriptedBackend([TransientBackendError("503")] * (MAX_ATTEMPTS * requests))
        gateway = Gateway(CFG, tmp_path, backend=backend, sleeper=sleeps.append, rng=random.Random(6))
        results = gateway.run_batch([_prompt(f"p{i}") for i in range(requests)], 1)
        assert {r.kind for r in results} == {RETRIES_EXHAUSTED}
        steps = [BACKOFF_S * 2**i for i in range(MAX_ATTEMPTS - 1)]
        by_step = [sleeps[i :: len(steps)] for i in range(len(steps))]
        for step, drawn in zip(steps, by_step):
            assert len(drawn) == requests
            assert all(0 <= sleep <= step for sleep in drawn)
            assert min(drawn) < step / 4 and max(drawn) > 3 * step / 4

    def test_exhausted_retries_classified(self, tmp_path):
        backend = ScriptedBackend([TransientBackendError("x")] * MAX_ATTEMPTS)
        gateway = Gateway(
            CFG, tmp_path, backend=backend, sleeper=lambda _: None
        )
        failure = gateway.run_batch([_prompt("doomed")], 1)[0]
        assert isinstance(failure, GatewayFailure)
        assert failure.kind == RETRIES_EXHAUSTED
        assert backend.calls == MAX_ATTEMPTS

    def test_auth_failure_is_not_retried(self, tmp_path):
        backend = ScriptedBackend([GatewayError(AUTH_FAILURE, "bad key"), "unreached"])
        gateway = Gateway(CFG, tmp_path, backend=backend)
        failure = gateway.run_batch([_prompt("locked")], 1)[0]
        assert isinstance(failure, GatewayFailure)
        assert failure.kind == AUTH_FAILURE
        assert backend.calls == 1

    def test_nothing_cached_on_failure(self, tmp_path):
        backend = ScriptedBackend([TransientBackendError("x")] * MAX_ATTEMPTS)
        gateway = Gateway(CFG, tmp_path, backend=backend, sleeper=lambda _: None)
        failure = gateway.run_batch([_prompt("doomed")], 1)[0]
        assert isinstance(failure, GatewayFailure)
        assert gateway.cache.get(request_digest(_prompt("doomed"), CFG)) is None


class TestRunBatch:
    def test_order_preserved(self, tmp_path):
        gateway = Gateway(CFG, tmp_path, backend=ProbeBackend())
        prompts = [_prompt(f"item-{i}") for i in range(10)]
        results = gateway.run_batch(prompts, parallelism=4)
        assert [r.text for r in results] == [f"echo:item-{i}" for i in range(10)]

    def test_bounded_concurrency(self, tmp_path):
        backend = ProbeBackend(delay=0.02)
        gateway = Gateway(CFG, tmp_path, backend=backend)
        gateway.run_batch([_prompt(f"p{i}") for i in range(12)], parallelism=3)
        assert backend.max_in_flight <= 3
        assert backend.max_in_flight >= 2

    def test_serial_when_parallelism_one(self, tmp_path):
        backend = ProbeBackend(delay=0.005)
        gateway = Gateway(CFG, tmp_path, backend=backend)
        gateway.run_batch([_prompt(f"p{i}") for i in range(6)], parallelism=1)
        assert backend.max_in_flight == 1

    def test_failure_isolation(self, tmp_path):
        class PartialBackend:
            def send(self, text):
                if "poison" in text:
                    raise GatewayError(CONTEXT_LENGTH, "too long")
                return BackendResult(text=f"echo:{text}")

        gateway = Gateway(CFG, tmp_path, backend=PartialBackend())
        prompts = [_prompt("a"), _prompt("poison"), _prompt("c")]
        results = gateway.run_batch(prompts, parallelism=2)
        assert isinstance(results[0], Completion)
        assert isinstance(results[1], GatewayFailure)
        assert results[1].kind == CONTEXT_LENGTH
        assert isinstance(results[2], Completion)

    def test_empty_batch(self, tmp_path):
        gateway = Gateway(CFG, tmp_path)
        assert gateway.run_batch([], parallelism=2) == []

    def test_empty_live_batch_sends_nothing(self, tmp_path):
        backend = ScriptedBackend([])
        assert Gateway(CFG, tmp_path, backend=backend).run_batch([], parallelism=2) == []
        assert backend.calls == 0

    def test_parallelism_below_one_rejected(self, tmp_path):
        gateway = Gateway(CFG, tmp_path)
        with pytest.raises(ValueError, match="parallelism"):
            gateway.run_batch([_prompt("x")], parallelism=0)

    def test_replay_batch_completes_in_the_calling_thread(self, tmp_path, monkeypatch):
        """Without a backend every request is read in the calling thread,
        in order, each failure in its own slot."""
        seed_cache(tmp_path, _prompt("a"), CFG, "text a")
        seed_cache(tmp_path, _prompt("c"), CFG, "text c")
        gateway = Gateway(CFG, tmp_path)
        complete, threads = gateway._complete, []

        def recording(prompt):
            threads.append(threading.get_ident())
            return complete(prompt)

        monkeypatch.setattr(gateway, "_complete", recording)
        prompts = [_prompt(t) for t in ("a", "b", "c", "d")]
        results = gateway.run_batch(prompts, parallelism=4)
        assert threads == [threading.get_ident()] * 4
        assert [r.request_digest for r in results] == [request_digest(p, CFG) for p in prompts]
        assert [getattr(r, "text", None) for r in results] == ["text a", None, "text c", None]
        assert [getattr(r, "kind", None) for r in results] == [None, REPLAY_MISS, None, REPLAY_MISS]

    def test_replay_batch_mixes_hits_and_misses(self, tmp_path):
        seed_cache(tmp_path, _prompt("known"), CFG, "cached text")
        gateway = Gateway(CFG, tmp_path)
        results = gateway.run_batch([_prompt("known"), _prompt("unknown")], parallelism=2)
        assert isinstance(results[0], Completion)
        assert results[0].text == "cached text"
        assert isinstance(results[1], GatewayFailure)
        assert results[1].kind == REPLAY_MISS

    def test_one_digest_per_request(self, tmp_path, monkeypatch):
        calls = []

        def counting_digest(prompt, cfg):
            calls.append(prompt.text)
            return request_digest(prompt, cfg)

        seed_cache(tmp_path / "cache", _prompt("known"), CFG, "cached text")
        gateway = Gateway(CFG, tmp_path / "cache")
        monkeypatch.setattr(gateway_module, "request_digest", counting_digest)
        prompts = [_prompt("known"), _prompt("unknown"), _prompt("other")]
        results = gateway.run_batch(prompts, parallelism=2)

        assert sorted(calls) == sorted(p.text for p in prompts)
        for prompt, result in zip(prompts[1:], results[1:]):
            assert isinstance(result, GatewayFailure)
            assert result.request_digest == request_digest(prompt, CFG)
            assert result.kind == REPLAY_MISS

    def test_failure_attempts_count_backend_sends(self, tmp_path):
        flaky = ScriptedBackend([TransientBackendError("503")] * MAX_ATTEMPTS)
        live = Gateway(CFG, tmp_path, backend=flaky, sleeper=lambda _: None)
        [exhausted] = live.run_batch([_prompt("doomed")], parallelism=1)
        assert exhausted.kind == RETRIES_EXHAUSTED
        assert exhausted.attempts == MAX_ATTEMPTS == flaky.calls

        refused = ScriptedBackend([GatewayError(CONTEXT_LENGTH, "too long")])
        live = Gateway(CFG, tmp_path, backend=refused)
        [rejected] = live.run_batch([_prompt("huge")], parallelism=1)
        assert rejected.kind == CONTEXT_LENGTH
        assert rejected.attempts == 1

        [missed] = Gateway(CFG, tmp_path).run_batch(
            [_prompt("never seen")], parallelism=1
        )
        assert missed.kind == REPLAY_MISS
        assert missed.attempts == 0


def _rewrite_entry(**changes):
    def corrupt(raw: bytes) -> bytes:
        entry = json.loads(raw)
        entry.update(changes)
        return json.dumps(entry).encode("utf-8")

    return corrupt


CORRUPT_ENTRIES = {
    "truncated": lambda raw: raw[:20],
    "empty": lambda raw: b"",
    "not_utf8": lambda raw: b"\xff\xfe" + raw,
    "json_list": lambda raw: b"[1, 2]",
    "json_string": lambda raw: b'"text"',
    "text_null": _rewrite_entry(text=None),
    "text_missing": lambda raw: json.dumps(
        {k: v for k, v in json.loads(raw).items() if k != "text"}
    ).encode("utf-8"),
    "text_number": _rewrite_entry(text=7),
    "latency_string": _rewrite_entry(latency_ms="12"),
    "latency_float": _rewrite_entry(latency_ms=1.5),
    "attempts_null": _rewrite_entry(attempts=None),
    "attempts_bool": _rewrite_entry(attempts=True),
}


@pytest.mark.parametrize("form", ["replay", "live"])
@pytest.mark.parametrize("case", sorted(CORRUPT_ENTRIES))
def test_unreadable_cache_entry_fails_only_its_item(tmp_path, case, form):
    prompts = [_prompt("first"), _prompt("broken"), _prompt("last")]
    for prompt in prompts:
        seed_cache(tmp_path, prompt, CFG, f"cached {prompt.text}")
    path = tmp_path / f"{request_digest(prompts[1], CFG)}.json"
    corrupted = CORRUPT_ENTRIES[case](path.read_bytes())
    path.write_bytes(corrupted)

    # Replay has no backend; live has one whose send would pop from an empty script.
    backend = ScriptedBackend([]) if form == "live" else None
    gateway = Gateway(CFG, tmp_path, backend=backend)
    first, broken, last = gateway.run_batch(prompts, parallelism=2)

    assert (first.text, last.text) == ("cached first", "cached last")
    assert isinstance(broken, GatewayFailure)
    assert (broken.kind, broken.attempts) == (CACHE_CORRUPT, 0)
    assert backend is None or backend.calls == 0
    assert path.read_bytes() == corrupted  # left for inspection, never overwritten


class TestDigestPins:
    def test_golden_digests_match_fixture(self, tmp_path):
        """Request digests are cache keys: a change to prompt bytes or to
        the digest payload orphans every existing cache, so the golden
        run's digests are pinned."""
        paths = run_golden_pipeline(tmp_path)
        pinned = json.loads((golden_fixture_dir() / "request_digests.json").read_text())
        produced = {
            arm: {row["id"]: row["digest"] for row in read_jsonl(paths[f"run_{arm}"] / "outcomes.jsonl")}
            for arm in ("position", "transition")
        }
        assert produced == pinned


@pytest.fixture(autouse=True)
def direct_to_loopback(monkeypatch):
    without_proxies(monkeypatch)


def _http_cfg(endpoint: str) -> ModelConfig:
    return ModelConfig(model_id="m", endpoint=endpoint, api_key_env="TEST_GATEWAY_KEY")


def _send_once(respond, monkeypatch) -> tuple[ChatServer, BackendResult]:
    """One send to a loopback server answering with ``respond``; returns
    the server, with the request it read, and the result."""
    monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
    with ChatServer(respond) as server:
        backend = HttpBackend(_http_cfg(server.endpoint))
        try:
            return server, backend.send("q")
        finally:
            backend.close()


def _send_error(respond, monkeypatch) -> Exception:
    with pytest.raises((GatewayError, TransientBackendError)) as err:
        _send_once(respond, monkeypatch)
    return err.value


class TestHttpBackend:
    def test_success_parses_content_and_usage(self, monkeypatch):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "sk-test")
        with ChatServer([(200, chat_body("answer"), {})]) as server:
            backend = HttpBackend(_http_cfg(server.endpoint))
            result = backend.send("question")
            backend.close()
        assert result.text == "answer"
        assert result.token_usage["completion_tokens"] == 5
        [sent] = server.requests
        assert (sent["method"], sent["path"]) == ("POST", "/v1/chat/completions")
        assert sent["json"]["messages"] == [{"role": "user", "content": "question"}]
        assert sent["headers"]["Authorization"] == "Bearer sk-test"
        assert sent["headers"]["Content-Type"] == "application/json"

    def test_netrc_entry_leaves_bearer_key(self, monkeypatch, tmp_path):
        """A ~/.netrc entry for the endpoint host is not read: the key
        still arrives as a Bearer token, not as Basic auth."""
        (tmp_path / ".netrc").write_text("machine 127.0.0.1 login user password pw\n")
        monkeypatch.setenv("HOME", str(tmp_path))
        server, _ = _send_once(None, monkeypatch)
        assert server.requests[0]["headers"]["Authorization"] == "Bearer k"

    def test_missing_key_is_auth_failure(self, monkeypatch):
        monkeypatch.delenv("TEST_GATEWAY_KEY", raising=False)
        with ChatServer() as server:
            backend = HttpBackend(_http_cfg(server.endpoint))
            with pytest.raises(GatewayError) as err:
                backend.send("q")
        assert err.value.kind == AUTH_FAILURE
        assert server.connections == 0

    @pytest.mark.parametrize("status", [401, 403])
    def test_auth_statuses(self, monkeypatch, status):
        assert _send_error([(status, {}, {})], monkeypatch).kind == AUTH_FAILURE

    def test_context_length_statuses(self, monkeypatch):
        for reply in ((413, {}, {}), (400, b"maximum context length exceeded", {})):
            assert _send_error([reply], monkeypatch).kind == CONTEXT_LENGTH

    @pytest.mark.parametrize("status", [408, 429, 500, 503])
    def test_transient_statuses(self, monkeypatch, status):
        error = _send_error([(status, {}, {})], monkeypatch)
        assert isinstance(error, TransientBackendError)
        assert error.retry_after is None

    def test_timeout_is_transient(self, monkeypatch):
        def slow(request):
            time.sleep(0.5)
            return 200, chat_body(), {}

        monkeypatch.setattr(gateway_module, "TIMEOUT_S", 0.1)
        error = _send_error(slow, monkeypatch)
        assert isinstance(error, TransientBackendError)
        assert "timed out" in str(error)

    def test_refused_connection_is_transient(self, monkeypatch):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        with ChatServer() as server:
            endpoint = server.endpoint
        backend = HttpBackend(_http_cfg(endpoint))  # nothing listens there any more
        with pytest.raises(TransientBackendError, match="connection error"):
            backend.send("q")
        backend.close()

    def test_other_4xx_rejected_without_retry(self, monkeypatch):
        error = _send_error([(404, b"missing", {})], monkeypatch)
        assert (error.kind, str(error)) == (REQUEST_REJECTED, "status 404: missing")

    @pytest.mark.parametrize("status", [301, 302, 307, 308])
    def test_redirect_rejected_not_followed(self, monkeypatch, status):
        server_reply = (status, b"moved", {"Location": "/elsewhere"})
        with ChatServer([server_reply]) as server:
            monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
            backend = HttpBackend(_http_cfg(server.endpoint))
            with pytest.raises(GatewayError) as err:
                backend.send("q")
            backend.close()
        assert (err.value.kind, str(err.value)) == (REQUEST_REJECTED, f"status {status}: moved")
        assert len(server.requests) == 1

    @pytest.mark.parametrize(
        "body",
        [
            {},
            [],
            {"choices": []},
            {"choices": "text"},
            {"choices": [{"finish_reason": "stop"}]},
            {"choices": [{"message": {}}]},
            {"choices": [{"message": {"content": None}}]},
            {"choices": [{"message": {"content": 42}}]},
        ],
    )
    def test_200_without_string_content_is_malformed(self, monkeypatch, body):
        assert _send_error([(200, body, {})], monkeypatch).kind == MALFORMED_RESPONSE

    def test_200_with_non_json_body_is_malformed(self, monkeypatch):
        for body in (b"<html>upstream error</html>", b"\xff\xfe{", b""):
            assert _send_error([(200, body, {})], monkeypatch).kind == MALFORMED_RESPONSE

    def test_malformed_reply_fails_one_item_of_a_batch(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        replies = [
            (200, chat_body("first"), {}),
            (200, {"choices": [{"message": {}}]}, {}),
            (200, chat_body("third"), {}),
        ]
        with ChatServer(replies) as server:
            cfg = _http_cfg(server.endpoint)
            gateway = Gateway(cfg, tmp_path, backend=HttpBackend(cfg))
            results = gateway.run_batch([_prompt("a"), _prompt("b"), _prompt("c")], parallelism=1)
        assert [r.text for r in (results[0], results[2])] == ["first", "third"]
        assert isinstance(results[1], GatewayFailure)
        assert (results[1].kind, results[1].attempts) == (MALFORMED_RESPONSE, 1)
        assert len(server.requests) == 3  # never retried
        assert server.connections == 1  # one keep-alive connection for the batch
        assert gateway.cache.get(request_digest(_prompt("b"), cfg)) is None

    def test_relative_endpoint_rejected(self):
        for endpoint in (
            "/v1/chat", "ftp://host/v1", "http:///v1/chat", "127.0.0.1:80/v1/chat",
            "http://127.0.0.1:abc/v1", "http://127.0.0.1:99999/v1", "http://127.0.0.1:-1/v1",
        ):
            with pytest.raises(GatewayError) as err:
                HttpBackend(ModelConfig(model_id="m", endpoint=endpoint))
            assert err.value.kind == REQUEST_REJECTED

    def test_query_string_is_kept(self, monkeypatch):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        with ChatServer() as server:
            backend = HttpBackend(_http_cfg(server.endpoint + "?api-version=2"))
            backend.send("q")
            backend.close()
        assert server.requests[0]["path"] == "/v1/chat/completions?api-version=2"


class TestKeepAlive:
    def test_one_connection_per_worker_thread(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        with ChatServer() as server:
            cfg = _http_cfg(server.endpoint)
            gateway = Gateway(cfg, tmp_path, backend=HttpBackend(cfg))
            results = gateway.run_batch([_prompt(f"p{i}") for i in range(12)], parallelism=3)
            assert gateway.backend._connections == {}  # closed when the batch ended
        assert all(isinstance(r, Completion) and r.attempts == 1 for r in results)
        assert len(server.requests) == 12
        assert 1 <= server.connections <= 3

    def test_connection_closed_by_server_is_dialled_again(self, monkeypatch, tmp_path):
        """A server that closes each connection after one reply, without
        saying so, costs a fresh connection per request but no attempt."""
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        sleeps: list[float] = []
        with ChatServer(drop_after_reply=True) as server:
            cfg = _http_cfg(server.endpoint)
            gateway = Gateway(cfg, tmp_path, backend=HttpBackend(cfg), sleeper=sleeps.append)
            results = gateway.run_batch([_prompt(f"p{i}") for i in range(6)], parallelism=1)
        assert [r.attempts for r in results] == [1] * 6
        assert sleeps == []
        assert len(server.requests) == server.connections == 6

    def test_fresh_connection_closed_without_reply_is_an_attempt(self, monkeypatch):
        """Only a reused connection is dialled again for free: a fresh one
        that the server closes without replying is a transient fault.

        Which error the client sees depends on whether the server's close
        reaches it before its write (broken pipe) or after (reset, or end
        of stream), so the test pins that no second connection was made."""
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        with socket.create_server(("127.0.0.1", 0)) as listener:
            hang_up = threading.Thread(target=lambda: listener.accept()[0].close())
            hang_up.start()
            port = listener.getsockname()[1]
            monkeypatch.setattr(gateway_module, "TIMEOUT_S", 5)
            backend = HttpBackend(_http_cfg(f"http://127.0.0.1:{port}/v1"))
            with pytest.raises(
                TransientBackendError, match="RemoteDisconnected|ConnectionReset|BrokenPipe"
            ):
                backend.send("q")
            backend.close()
            hang_up.join(timeout=10)
            assert not hang_up.is_alive()
            listener.setblocking(False)
            with pytest.raises(BlockingIOError):  # a redial would wait in the backlog
                listener.accept()[0].close()


class TestProxy:
    @pytest.fixture(autouse=True)
    def api_key(self, monkeypatch):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")

    @pytest.mark.parametrize("variable", ["HTTP_PROXY", "ALL_PROXY"])
    def test_http_goes_through_the_proxy_by_absolute_url(self, monkeypatch, variable):
        endpoint = "http://127.0.0.2:9/v1/chat/completions?v=1"  # never dialled
        with ChatServer() as proxy:
            monkeypatch.setenv(variable, proxy.base.removeprefix("http://"))
            backend = HttpBackend(_http_cfg(endpoint))
            assert backend.send("q").text == "hi"
            backend.close()
        assert proxy.requests[0]["path"] == endpoint
        assert proxy.requests[0]["headers"]["Host"] == "127.0.0.2:9"

    def test_no_proxy_goes_direct(self, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")  # refuses every connection
        monkeypatch.setenv("NO_PROXY", "localhost,127.0.0.1")
        server, result = _send_once(None, monkeypatch)
        assert result.text == "hi"
        assert server.requests[0]["path"] == "/v1/chat/completions"

    def test_https_is_tunnelled(self, monkeypatch):
        with ChatServer() as proxy:
            monkeypatch.setenv("HTTPS_PROXY", proxy.base)
            backend = HttpBackend(_http_cfg("https://127.0.0.2:8443/v1/chat/completions"))
            with pytest.raises(TransientBackendError, match="Tunnel connection failed: 502"):
                backend.send("q")
            backend.close()
        [connect] = proxy.requests
        assert (connect["method"], connect["path"]) == ("CONNECT", "127.0.0.2:8443")


@pytest.fixture
def local_time_behind_utc(monkeypatch):
    monkeypatch.setenv("TZ", "EST5")  # 5 h behind UTC; a POSIX rule needs no zone database
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


class TestRetryAfter:
    @pytest.mark.parametrize(
        "status, value, expected",
        [
            (429, "7", 7.0),
            (503, " 2 ", 2.0),
            (429, "0", 0.0),
            (503, "86400", gateway_module.RETRY_AFTER_CAP_S),
            (429, "soon", None),
            (429, "-5", None),
            (429, "1.5", None),
            (429, "Wed, 21 Oct 2015 07:28:00 GMT", 0.0),  # a date past waits not at all
            (429, "Sun Nov  6 08:49:37 1994", 0.0),  # the asctime form
            (503, "Mon, 01 Jan 99999999999 00:00:00 GMT", None),  # a year no C integer holds
            (500, "7", None),  # only 429 and 503 carry a delay
            (408, "7", None),
        ],
    )
    def test_delay_from_header(self, monkeypatch, status, value, expected):
        error = _send_error([(status, {}, {"Retry-After": value})], monkeypatch)
        assert isinstance(error, TransientBackendError)
        assert error.retry_after == expected

    def test_http_date_in_the_future(self, monkeypatch, local_time_behind_utc):
        """An HTTP-date is GMT (RFC 9110 §5.6.7), also where local time is not."""
        value = formatdate(time.time() + 30, usegmt=True)
        error = _send_error([(503, {}, {"Retry-After": value})], monkeypatch)
        assert 27 <= error.retry_after <= 30

    def test_asctime_date_in_the_future(self, monkeypatch, local_time_behind_utc):
        """The asctime form carries no zone and is GMT too."""
        value = time.asctime(time.gmtime(time.time() + 30))
        error = _send_error([(503, {}, {"Retry-After": value})], monkeypatch)
        assert 27 <= error.retry_after <= 30

    def test_unreadable_date_fails_one_item_not_the_batch(self, monkeypatch, tmp_path):
        """A date too far out for the platform means the backoff step."""
        monkeypatch.setenv("TEST_GATEWAY_KEY", "k")
        far = (503, {}, {"Retry-After": "Mon, 01 Jan 99999999999 00:00:00 GMT"})
        sleeps: list[float] = []
        with ChatServer([far] * MAX_ATTEMPTS + [(200, chat_body("second"), {})]) as server:
            cfg = _http_cfg(server.endpoint)
            gateway = Gateway(cfg, tmp_path, backend=HttpBackend(cfg), sleeper=sleeps.append, rng=random.Random(4))
            first, second = gateway.run_batch([_prompt("a"), _prompt("b")], parallelism=1)
        assert isinstance(first, GatewayFailure)
        assert (first.kind, first.attempts) == (RETRIES_EXHAUSTED, MAX_ATTEMPTS)
        assert second.text == "second"
        assert sleeps == _jittered(4, *[None] * (MAX_ATTEMPTS - 1))

    def test_delay_replaces_the_backoff_step(self, tmp_path):
        sleeps: list[float] = []
        backend = ScriptedBackend(
            [
                TransientBackendError("429", retry_after=7.0),
                TransientBackendError("503"),  # malformed or absent: the step
                "recovered",
            ]
        )
        gateway = Gateway(CFG, tmp_path, backend=backend, sleeper=sleeps.append, rng=random.Random(5))
        completion = gateway.run_batch([_prompt("limited")], 1)[0]
        assert (completion.text, completion.attempts) == ("recovered", 3)
        assert sleeps == _jittered(5, 7.0, None)
