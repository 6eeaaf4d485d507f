"""Wire-contract tests against an in-process stub HTTP server."""

import math
import re

import numpy as np
import pytest

from multirag import transport
from multirag.embedding import RemoteProvider
from multirag.errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyCompletionError,
    LogprobsMissingError,
    TransportError,
    ZeroVectorError,
)
from multirag.generation import DecodeParams, OpenAIChatBackend, TokenStep

from conftest import chat_route, embeddings_route


def reference_parse_step(item: dict, vocab_size: int) -> TokenStep:
    """The per-step wire parser the block parser replaced."""
    if "logprob" not in item or "top_logprobs" not in item:
        raise LogprobsMissingError("token entry omits logprob fields")
    token = item.get("token", "")
    chosen_prob = math.exp(float(item["logprob"]))
    alts = {e["token"]: math.exp(float(e["logprob"])) for e in item["top_logprobs"]}
    alts.setdefault(token, chosen_prob)
    dist = tuple(sorted(alts.items(), key=lambda kv: -kv[1]))
    tail = max(0.0, 1.0 - sum(p for _, p in dist))
    return TokenStep(token=token, prob=min(chosen_prob, 1.0), dist=dist,
                     tail_mass=tail, vocab_size=vocab_size)


ALPHABET = [chr(c) for c in range(ord("a"), ord("a") + 30)]


def random_item(rng) -> dict:
    """A token entry with repeats, ties, -inf and missing chosen tokens mixed in."""
    k = int(rng.integers(0, 25))
    tokens = [str(t) for t in rng.choice(ALPHABET, size=k)]  # repeats happen
    probs = rng.dirichlet([0.6] * k) * rng.uniform(0.4, 1.0) if k else np.empty(0)
    if k >= 2 and rng.random() < 0.4:  # an exact tie
        probs[0] = probs[1] = (probs[0] + probs[1]) / 2
    logprobs = [math.log(p) if p > 0 else -math.inf for p in probs]
    if k and rng.random() < 0.2:
        logprobs[int(rng.integers(0, k))] = -math.inf
    listed = dict(zip(tokens, logprobs))
    if listed and rng.random() < 0.6:
        token = str(rng.choice(list(listed)))
        logprob = listed[token] if rng.random() < 0.8 else logprobs[tokens.index(token)]
    else:  # the chosen token is missing from top_logprobs
        token = "zz" if rng.random() < 0.5 else str(rng.choice(ALPHABET))
        rest = 1.0 - sum(math.exp(lp) for lp in listed.values())
        logprob = math.log(max(rest, 1e-300) * rng.uniform(0.1, 1.0))
    return {"token": token, "logprob": logprob,
            "top_logprobs": [{"token": t, "logprob": lp} for t, lp in zip(tokens, logprobs)]}


def outcome(parse):
    """(token, prob, dist, tail_mass, vocab_size) per step, or the ValueError text."""
    try:
        return [(s.token, s.prob, s.dist, s.tail_mass, s.vocab_size) for s in parse()]
    except ValueError as e:
        return str(e)


class TestBlockParser:
    """The block parser equals the per-step parser it replaced, bit for bit."""

    backend = OpenAIChatBackend("llm-x", endpoint="http://unused", vocab_size=50)

    def test_random_replies(self):
        rng = np.random.default_rng(17)
        errors = 0
        for _ in range(500):
            content = [random_item(rng) for _ in range(int(rng.integers(1, 12)))]
            want = outcome(lambda: [reference_parse_step(i, 50) for i in content])
            assert outcome(lambda: self.backend._parse_steps(content)) == want
            errors += isinstance(want, str)
        assert 0 < errors < 250  # both valid and invalid replies were compared

    def test_rounded_logprob_reads_as_one(self):
        item = {"token": "a", "logprob": 1e-9,
                "top_logprobs": [{"token": "a", "logprob": 1e-9}]}
        step, = self.backend._parse_steps([item])
        assert step.prob == 1.0 and step.dist == (("a", 1.0),) and step.tail_mass == 0.0

    @pytest.mark.parametrize("chosen, listed", [(0.5, -0.1), (-0.1, 0.5), (math.inf, -0.1)])
    def test_positive_logprob_rejected(self, chosen, listed):
        item = {"token": "a", "logprob": chosen,
                "top_logprobs": [{"token": "a", "logprob": listed}]}
        with pytest.raises(ValueError, match=re.escape("token 'a' has logprob")):
            self.backend._parse_steps([item])


class TestEmbeddingsWire:
    def test_request_shape_and_order(self, stub_server):
        stub_server.route("/v1/embeddings", embeddings_route(dim=4))
        provider = RemoteProvider("emb-x", endpoint=stub_server.url, retries=0)
        out = provider.embed(["first", "second"])
        assert len(out) == 2 and out[0].dim == 4
        req = stub_server.requests[-1]
        assert req["path"] == "/v1/embeddings"
        assert req["body"] == {"model": "emb-x", "input": ["first", "second"]}

    def test_batching(self, stub_server):
        stub_server.route("/v1/embeddings", embeddings_route())
        provider = RemoteProvider("emb-x", endpoint=stub_server.url,
                                  batch_size=2, retries=0)
        provider.embed([f"t{i}" for i in range(5)])
        sizes = [len(r["body"]["input"]) for r in stub_server.requests]
        assert sizes == [2, 2, 1]

    def test_bearer_token_from_named_env(self, stub_server, monkeypatch):
        monkeypatch.setenv("STUB_KEY", "secret-token")
        stub_server.route("/v1/embeddings", embeddings_route())
        provider = RemoteProvider("emb-x", endpoint=stub_server.url,
                                  api_key_env="STUB_KEY", retries=0)
        provider.embed(["text"])
        auth = stub_server.requests[-1]["headers"].get("Authorization")
        assert auth == "Bearer secret-token"

    def test_missing_credential_env_fails_fast(self, monkeypatch):
        monkeypatch.delenv("STUB_MISSING", raising=False)
        with pytest.raises(ConfigError):
            RemoteProvider("emb-x", endpoint="http://x", api_key_env="STUB_MISSING")

    def test_mixed_dimensions_fatal(self, stub_server):
        def mixed(body):
            data = [{"embedding": [1.0] * (3 if i % 2 else 4)}
                    for i in range(len(body["input"]))]
            return 200, {"data": data}
        stub_server.route("/v1/embeddings", mixed)
        provider = RemoteProvider("emb-x", endpoint=stub_server.url, retries=0)
        with pytest.raises(DimensionMismatchError):
            provider.embed(["a", "b"])

    def test_zero_vector_fatal(self, stub_server):
        stub_server.route("/v1/embeddings",
                          lambda body: (200, {"data": [{"embedding": [0.0, 0.0]}]}))
        provider = RemoteProvider("emb-x", endpoint=stub_server.url, retries=0)
        with pytest.raises(ZeroVectorError):
            provider.embed(["a"])

    def test_wrong_cardinality_fatal(self, stub_server):
        stub_server.route("/v1/embeddings",
                          lambda body: (200, {"data": [{"embedding": [1.0, 2.0]}]}))
        provider = RemoteProvider("emb-x", endpoint=stub_server.url, retries=0)
        with pytest.raises(DimensionMismatchError):
            provider.embed(["a", "b"])


class TestChatWire:
    def backend(self, server, **kw):
        kw.setdefault("retries", 0)
        kw.setdefault("vocab_size", 100)
        return OpenAIChatBackend("llm-x", endpoint=server.url, **kw)

    def test_request_shape(self, stub_server):
        stub_server.route("/v1/chat/completions", chat_route(tokens=("4", "2")))
        backend = self.backend(stub_server)
        completion, steps = backend.complete(
            "what is 6 times 7", DecodeParams(temperature=0.0, top_logprobs=7))
        body = stub_server.requests[-1]["body"]
        assert body["model"] == "llm-x"
        assert body["messages"] == [{"role": "user", "content": "what is 6 times 7"}]
        assert body["temperature"] == 0.0
        assert body["logprobs"] is True
        assert body["top_logprobs"] == 7
        assert completion == "4 2"
        assert len(steps) == 2

    def test_probabilities_exponentiated(self, stub_server):
        stub_server.route("/v1/chat/completions", chat_route(tokens=("4",)))
        _, steps = self.backend(stub_server).complete("q", DecodeParams())
        step = steps[0]
        assert step.prob == pytest.approx(0.8)
        assert dict(step.dist)["x"] == pytest.approx(0.15)
        assert step.tail_mass == pytest.approx(0.05)
        assert step.vocab_size == 100

    def test_missing_logprobs_fatal(self, stub_server):
        def no_logprobs(body):
            return 200, {"choices": [{"message": {"content": "42"}}]}
        stub_server.route("/v1/chat/completions", no_logprobs)
        with pytest.raises(LogprobsMissingError):
            self.backend(stub_server).complete("q", DecodeParams())

    def test_missing_token_fields_fatal(self, stub_server):
        def partial(body):
            return 200, {"choices": [{
                "message": {"content": "42"},
                "logprobs": {"content": [{"token": "42"}]},
            }]}
        stub_server.route("/v1/chat/completions", partial)
        with pytest.raises(LogprobsMissingError):
            self.backend(stub_server).complete("q", DecodeParams())

    def test_empty_completion_fatal(self, stub_server):
        def empty(body):
            return 200, {"choices": [{"message": {"content": ""},
                                      "logprobs": {"content": []}}]}
        stub_server.route("/v1/chat/completions", empty)
        with pytest.raises(EmptyCompletionError):
            self.backend(stub_server).complete("q", DecodeParams())

    def test_chosen_token_added_to_dist(self, stub_server):
        top = [{"token": "y", "logprob": math.log(0.1)}]
        stub_server.route("/v1/chat/completions", chat_route(tokens=("4",), top=top))
        _, steps = self.backend(stub_server).complete("q", DecodeParams())
        assert "4" in dict(steps[0].dist)

    def test_logprob_rounded_above_zero_keeps_the_model(self, stub_server):
        top = [{"token": "4", "logprob": 1e-9}]
        stub_server.route("/v1/chat/completions", chat_route(tokens=("4",), top=top))
        backend = self.backend(stub_server)
        _, steps = backend.complete("q", DecodeParams())
        assert steps[0].dist == (("4", 1.0),)

    def test_positive_logprob_is_a_clear_error(self, stub_server):
        top = [{"token": "4", "logprob": 0.01}]
        stub_server.route("/v1/chat/completions", chat_route(tokens=("4",), top=top))
        with pytest.raises(ValueError, match="token '4' has logprob 0.01"):
            self.backend(stub_server).complete("q", DecodeParams())


class TestTransport:
    def test_retry_then_success(self, stub_server):
        attempts = {"n": 0}

        def flaky(body):
            attempts["n"] += 1
            if attempts["n"] == 1:
                return 500, {"error": "transient"}
            return embeddings_route()(body)

        stub_server.route("/v1/embeddings", flaky)
        provider = RemoteProvider("emb-x", endpoint=stub_server.url,
                                  retries=2, backoff=0.0)
        provider.embed(["a"])
        assert attempts["n"] == 2

    def test_gives_up_after_retries(self, stub_server):
        stub_server.route("/v1/embeddings", lambda body: (500, {"error": "down"}))
        provider = RemoteProvider("emb-x", endpoint=stub_server.url,
                                  retries=1, backoff=0.0)
        with pytest.raises(TransportError):
            provider.embed(["a"])
        assert len(stub_server.requests) == 2

    def test_client_error_not_retried(self, stub_server):
        stub_server.route("/v1/embeddings", lambda body: (400, {"error": "bad"}))
        provider = RemoteProvider("emb-x", endpoint=stub_server.url,
                                  retries=3, backoff=0.0)
        with pytest.raises(TransportError):
            provider.embed(["a"])
        assert len(stub_server.requests) == 1

    @pytest.fixture
    def sleeps(self, monkeypatch):
        waited = []
        monkeypatch.setattr(transport.time, "sleep", waited.append)
        return waited

    def test_rate_limited_then_success(self, stub_server, sleeps):
        replies = [(429, {"error": "slow down"})]

        def limited(body):
            return replies.pop() if replies else embeddings_route()(body)

        stub_server.route("/v1/embeddings", limited)
        provider = RemoteProvider("emb-x", endpoint=stub_server.url,
                                  retries=2, backoff=0.25)
        assert provider.embed(["a"])[0].dim == 4
        assert len(stub_server.requests) == 2
        assert sleeps == [0.25]

    @pytest.mark.parametrize("status, retry_after, backoff, timeout, wait", [
        (429, "3", 0.5, 30.0, 3.0),     # Retry-After longer than the backoff
        (503, "2", 0.5, 30.0, 2.0),     # honoured on a 5xx as well
        (429, "1", 4.0, 30.0, 4.0),     # never shorter than the backoff
        (429, "600", 0.5, 5.0, 5.0),    # never longer than the call's timeout
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", 0.5, 30.0, 0.5),  # dates ignored
        (429, "\xb2", 0.5, 30.0, 0.5),  # a latin-1 '²' is no integer
    ])
    def test_retry_after_sets_the_wait(self, stub_server, sleeps, status, retry_after,
                                       backoff, timeout, wait):
        replies = [(status, {"error": "busy"}, {"Retry-After": retry_after})]

        def limited(body):
            return replies.pop() if replies else embeddings_route()(body)

        stub_server.route("/v1/embeddings", limited)
        provider = RemoteProvider("emb-x", endpoint=stub_server.url, retries=1,
                                  backoff=backoff, timeout=timeout)
        provider.embed(["a"])
        assert sleeps == [wait]

    @pytest.mark.parametrize("payload", [[], "x", 3, None])
    @pytest.mark.parametrize("path", ["/v1/embeddings", "/v1/chat/completions"])
    def test_non_object_json_is_a_transport_error(self, stub_server, path, payload):
        stub_server.route(path, lambda body: (200, payload))
        provider = RemoteProvider("emb-x", endpoint=stub_server.url, retries=0)
        backend = OpenAIChatBackend("llm-x", endpoint=stub_server.url, retries=0,
                                    vocab_size=100)
        with pytest.raises(TransportError, match="response is not a JSON object"):
            if path == "/v1/embeddings":
                provider.embed(["a"])
            else:
                backend.complete("q", DecodeParams())
        assert len(stub_server.requests) == 1

    def test_client_error_with_retry_after_not_retried(self, stub_server, sleeps):
        stub_server.route("/v1/embeddings",
                          lambda body: (400, {"error": "bad"}, {"Retry-After": "1"}))
        provider = RemoteProvider("emb-x", endpoint=stub_server.url, retries=3)
        with pytest.raises(TransportError):
            provider.embed(["a"])
        assert len(stub_server.requests) == 1
        assert sleeps == []
