"""Wire-contract tests against an in-process stub HTTP server."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest

from multirag import confidence, transport
from multirag.embedding import RemoteProvider
from multirag.errors import (
    ConfigError,
    DimensionMismatchError,
    EmbeddingError,
    EmptyCompletionError,
    GenerationError,
    LogprobsMissingError,
    TransportError,
    ZeroVectorError,
)
from multirag.generation import DecodeParams, OpenAIChatBackend, TokenStep

from conftest import chat_route, embeddings_route


def reference_parse_step(item: dict, vocab_size: int) -> TokenStep:
    """One step by the per-entry rule: every listed alternative is its own
    token, and the chosen token is matched by (token, bytes) when it
    carries bytes, else by (token, logprob), else by token; unmatched, it
    is appended."""
    if "logprob" not in item or "top_logprobs" not in item:
        raise LogprobsMissingError("token entry omits logprob fields")
    token = item.get("token", "")
    chosen_prob = math.exp(float(item["logprob"]))
    entries = item["top_logprobs"]
    if item.get("bytes") is not None:
        listed = any((e["token"], e.get("bytes")) == (token, item["bytes"]) for e in entries)
    else:
        listed = any(e["token"] == token for e in entries)
    dist = [(e["token"], math.exp(float(e["logprob"]))) for e in entries]
    if not listed:
        dist.append((token, chosen_prob))
    dist = tuple(sorted(dist, key=lambda kv: -kv[1]))
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
        rest = 1.0 - sum(math.exp(lp) for lp in logprobs)
        logprob = math.log(max(rest, 1e-300) * rng.uniform(0.1, 1.0))
    return {"token": token, "logprob": logprob,
            "top_logprobs": [{"token": t, "logprob": lp} for t, lp in zip(tokens, logprobs)]}


def with_bytes(item: dict, rng) -> dict:
    """``item`` with every alternative a distinct token: each carries its
    text's bytes plus its own position. The chosen token carries the bytes
    of a listed entry with its text, or, now and then, bytes none carries."""
    entries = [dict(e, bytes=[*e["token"].encode(), j])
               for j, e in enumerate(item["top_logprobs"])]
    same = [e["bytes"] for e in entries if e["token"] == item["token"]]
    key = same[int(rng.integers(0, len(same)))] if same and rng.random() < 0.8 else [255]
    return dict(item, top_logprobs=entries, bytes=key)


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

    def test_random_replies_with_bytes(self):
        rng = np.random.default_rng(29)
        errors = 0
        for _ in range(300):
            content = [with_bytes(random_item(rng), rng) for _ in range(int(rng.integers(1, 12)))]
            want = outcome(lambda: [reference_parse_step(i, 50) for i in content])
            assert outcome(lambda: self.backend._parse_steps(content)) == want
            errors += isinstance(want, str)
        assert 0 < errors < 150

    @staticmethod
    def step(token, logprob, *alternatives, **extra) -> dict:
        return {"token": token, "logprob": math.log(logprob), **extra,
                "top_logprobs": [{"token": t, "logprob": math.log(p), **dict(*e)}
                                 for t, p, *e in alternatives]}

    def test_repeated_strings_are_separate_tokens(self):
        # two byte-level pieces that both render as U+FFFD
        item = self.step("a", 0.5, ("a", 0.5), ("\ufffd", 0.3), ("\ufffd", 0.15))
        backend = OpenAIChatBackend("llm-x", endpoint="http://unused", vocab_size=32000)
        block = backend._parse_steps([item])
        assert [t for t, _ in block[0].dist] == ["a", "\ufffd", "\ufffd"]
        assert block[0].tail_mass == pytest.approx(0.05)
        # the tail is spread over the 31 997 unlisted tokens; collapsed into one
        # entry, the 0.3 went to the tail too and entropy read 4.63
        want = -sum(p * math.log(p) for p in (0.5, 0.3, 0.15)) - 0.05 * math.log(0.05 / 31997)
        assert confidence.entropy(block) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("logprob, extra, at", [
        (0.15, {}, 2),                      # (token, logprob) picks the second
        (0.3, {}, 1),                       # ... or the first
        (0.2, {}, 1),                       # no logprob matches: the first with the text
        (0.3, {"bytes": [0xbf]}, 2),        # bytes outrank an equal logprob
        (0.15, {"bytes": [0xef]}, 1),
        (0.15, {"bytes": None}, 2),         # null bytes are not carried
    ])
    def test_chosen_token_sharing_its_text(self, logprob, extra, at):
        item = self.step("\ufffd", logprob, ("a", 0.5, {"bytes": [97]}),
                         ("\ufffd", 0.3, {"bytes": [0xef]}),
                         ("\ufffd", 0.15, {"bytes": [0xbf]}), **extra)
        block = self.backend._parse_steps([item])
        assert block.chosen.tolist() == [at] and len(block.table) == 3
        assert block.prob[0] == pytest.approx(logprob)

    def test_chosen_bytes_no_entry_carries_are_appended(self):
        item = self.step("\ufffd", 0.1, ("a", 0.5, {"bytes": [97]}),
                         ("\ufffd", 0.3, {"bytes": [0xef]}), bytes=[0xbf])
        block = self.backend._parse_steps([item, self.step("a", 0.5, ("a", 0.5))])
        assert block.table == ("a", "\ufffd", "\ufffd", "a")
        assert block.chosen.tolist() == [2, 3] and block.lens.tolist() == [3, 1]
        assert block[0].tail_mass == pytest.approx(0.1)

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

    def test_integer_values_read_as_floats(self, stub_server):
        stub_server.route("/v1/embeddings",
                          lambda body: (200, {"data": [{"embedding": [1, -2, 0.5]}]}))
        provider = RemoteProvider("emb-x", endpoint=stub_server.url, retries=0)
        (vector,) = provider.embed(["a"])
        assert vector.values.dtype == np.float64 and vector.values.tolist() == [1.0, -2.0, 0.5]

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


def chat_reply(*, choices=None, message=None, top=None, **item) -> dict:
    """A one-step chat reply; each keyword replaces its field."""
    entry = {"token": "4", "logprob": -0.1,
             "top_logprobs": [{"token": "4", "logprob": -0.1}] if top is None else top, **item}
    choice = {"message": {"content": "4"} if message is None else message,
              "logprobs": {"content": [entry]}}
    return {"choices": [choice] if choices is None else choices}


class TestMalformedReplies:
    """A malformed reply raises a package error that names the field."""

    @pytest.mark.parametrize("reply, error, field", [
        (chat_reply(top=[{"logprob": -0.1}]), LogprobsMissingError,
         "top_logprobs[] omits 'token'"),
        (chat_reply(top=[{"token": "4"}]), LogprobsMissingError,
         "top_logprobs[] omits 'logprob'"),
        (chat_reply(top=["4"]), GenerationError, "top_logprobs[] holds a value of type str"),
        (chat_reply(top=[None]), GenerationError, "top_logprobs[] holds a value of type NoneType"),
        (chat_reply(top_logprobs=None), GenerationError,
         "content[].top_logprobs holds a value of type NoneType"),
        (chat_reply(top=[{"token": None, "logprob": -0.1}]), GenerationError,
         "top_logprobs[].token holds a value of type NoneType"),
        (chat_reply(token=None), GenerationError, "content[].token holds a value of type NoneType"),
        (chat_reply(top=[{"token": "4", "logprob": "-0.1"}]), GenerationError,
         "top_logprobs[].logprob holds a value of type str"),
        (chat_reply(logprob="-0.1"), GenerationError,
         "content[].logprob holds a value of type str"),
        (chat_reply(choices="x"), GenerationError, "field choices is str"),
        (chat_reply(choices=[None]), GenerationError, "field choices[0] is NoneType"),
        (chat_reply(message="hi"), GenerationError, "field choices[0].message is str"),
        (chat_reply(message={"content": 42}), GenerationError,
         "choices[0].message.content is int"),
        ({"choices": [{"message": {"content": "4"}, "logprobs": "x"}]}, GenerationError,
         "choices[0].logprobs is str"),
        ({"choices": [{"message": {"content": "4"}, "logprobs": {"content": "x"}}]},
         GenerationError, "choices[0].logprobs.content is str"),
        ({"choices": [{"message": {"content": "4"}, "logprobs": {"content": [3]}}]},
         GenerationError, "logprobs.content[] holds a value of type int"),
        ({"choices": [{"message": {"content": "4"}, "logprobs": {"content": [
            {"logprob": -0.1, "top_logprobs": [{"token": "a", "logprob": -0.1}]}]}}]},
         LogprobsMissingError, "logprobs.content[] omits 'token'"),
        (chat_reply(logprob=False), GenerationError,
         "content[].logprob holds a value of type bool"),
        (chat_reply(top=[{"token": "4", "logprob": -0.1}, {"token": "5", "logprob": True}]),
         GenerationError, "top_logprobs[].logprob holds a value of type bool"),
    ], ids=["alt-no-token", "alt-no-logprob", "alt-str", "alt-null", "top-null",
            "alt-token-null", "token-null", "alt-logprob-str", "logprob-str",
            "choices-str", "choice-null", "message-str", "content-int", "logprobs-str",
            "logprobs-content-str", "content-item-int", "no-token", "logprob-bool",
            "alt-logprob-bool"])
    def test_chat(self, stub_server, reply, error, field):
        stub_server.route("/v1/chat/completions", lambda body: (200, reply))
        backend = OpenAIChatBackend("llm-x", endpoint=stub_server.url, retries=0)
        with pytest.raises(error, match=re.escape(field)):
            backend.complete("q", DecodeParams())

    @pytest.mark.parametrize("item, field", [
        ({"vector": [1.0, 2.0]}, "omits 'embedding'"),
        ([1.0, 2.0], "is not an object"),
        ({"embedding": ["0.5", 0.25]}, "data[].embedding[] holds a value of type str"),
        ({"embedding": [0.5, True]}, "data[].embedding[] holds a value of type bool"),
        ({"embedding": [0.5, None]}, "data[].embedding[] holds a value of type NoneType"),
        ({"embedding": [[0.5], [0.25]]}, "data[].embedding[] holds a value of type list"),
        ({"embedding": "0.5"}, "data[].embedding holds a value of type str, not list"),
        ({"embedding": {"1": 0.5}}, "data[].embedding holds a value of type dict, not list"),
    ], ids=["no-embedding", "item-list", "value-str", "value-bool", "value-null",
            "value-list", "embedding-str", "embedding-object"])
    def test_embeddings(self, stub_server, item, field):
        stub_server.route("/v1/embeddings", lambda body: (200, {"data": [item]}))
        provider = RemoteProvider("emb-x", endpoint=stub_server.url, retries=0)
        with pytest.raises(EmbeddingError, match=re.escape(field)):
            provider.embed(["a"])


def number_text(rng, negative: bool) -> str:
    """A JSON number: a shortest repr, 25 significant digits, a subnormal,
    40 decimal digits, or an integer beyond 64 bits."""
    kind = int(rng.integers(0, 5))
    if kind == 0:
        text = repr(float(rng.exponential(3.0)))
    elif kind == 1:
        text = "%.24e" % rng.exponential(3.0)
    elif kind == 2:
        text = "%.30e" % (rng.uniform(0.0, 1.0) * 2.2250738585072014e-308)
    elif kind == 3:
        text = "0." + "".join(map(str, rng.integers(0, 10, size=40)))
    else:
        digits = rng.integers(0, 10, size=int(rng.integers(20, 60)))
        text = str(int(rng.integers(1, 10))) + "".join(map(str, digits))
    return "-" + text if negative or rng.random() < 0.5 else text


def numbers(obj):
    """Every number in ``obj`` in document order, and its non-numbers."""
    if isinstance(obj, dict):
        return numbers([*obj.items()])
    if isinstance(obj, (list, tuple)):
        parts = [numbers(v) for v in obj]
        return [n for ns, _ in parts for n in ns], [o for _, o in parts]
    if type(obj) in (int, float):
        return [obj], None
    return [], obj


def bits(values) -> list[int]:
    """Each value as the client reads it: float64 through numpy, as its bits."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestDecode:
    """Replies are decoded by orjson, and by requests where orjson refuses."""

    def test_orjson_values_equal_stdlib_values(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            content = [random_item(rng) for _ in range(int(rng.integers(1, 6)))]
            lps = [number_text(rng, negative=True) for item in content
                   for _ in range(1 + len(item["top_logprobs"]))]
            text = json.dumps({"choices": [{"logprobs": {"content": content}}]})
            # every logprob of the reply, finite or not, becomes a generated number
            text = re.sub(r"-Infinity|-?\d[-+.\deE]*(?=[,}])", lambda m: lps.pop(0), text)
            assert not lps
            vector = ",".join(number_text(rng, negative=False) for _ in range(16))
            body = f'{{"data": [{{"embedding": [{vector}]}}], "reply": {text}}}'.encode()
            fast, slow = numbers(orjson.loads(body)), numbers(json.loads(body))
            assert bits(fast[0]) == bits(slow[0]) and fast[1] == slow[1]

    def test_client_reads_the_same_arrays(self, stub_server):
        rng = np.random.default_rng(43)
        backend = OpenAIChatBackend("llm-x", endpoint=stub_server.url, retries=0,
                                    vocab_size=50)
        provider = RemoteProvider("emb-x", endpoint=stub_server.url, retries=0)
        vectors = [",".join(number_text(rng, negative=False) for _ in range(8))
                   for _ in range(3)]
        data = ("{\"data\": [" + ",".join(f'{{"embedding": [{v}]}}' for v in vectors)
                + "]}").encode()
        stub_server.route("/v1/embeddings", lambda body: (200, data))
        want = [np.asarray(i["embedding"], dtype=np.float64) for i in json.loads(data)["data"]]
        got = provider.embed_matrix(["a", "b", "c"])
        assert bits(got) == bits(want)

        text = json.dumps(chat_reply(logprob=-1.0, top=[
            {"token": "4", "logprob": -1.0},
            {"token": "5", "logprob": -123456789012345678901234567890},
            {"token": "6", "logprob": -2.0}]))
        text = text.replace("-1.0", "-2.22507385850720113605740979670913197593481954635e-308")
        text = text.replace("-2.0", "-40.123456789012345678901234567")
        stub_server.route("/v1/chat/completions", lambda body: (200, text.encode()))
        _, block = backend.complete("q", DecodeParams())
        content = json.loads(text)["choices"][0]["logprobs"]["content"]
        ref = backend._parse_steps(content)
        for name in ("prob", "probs", "tails"):
            assert bits(getattr(block, name)) == bits(getattr(ref, name))

    @pytest.mark.parametrize("data, headers, want", [
        (b'{"lp": -Infinity, "top": [{"lp": NaN}]}', {},
         {"lp": -math.inf, "top": [{"lp": math.nan}]}),
        (b'{"token": "\\ud800"}', {}, {"token": "\ud800"}),
        (b'{"token": "a\xffb"}', {}, {"token": "a\ufffdb"}),
        (b'{"v": 1e400}', {}, {"v": math.inf}),
        (b'\xef\xbb\xbf{"v": 1}', {"Content-Type": None}, {"v": 1}),
        ('{"v": "\xe9"}'.encode("utf-16"), {"Content-Type": None}, {"v": "\xe9"}),
        ('{"v": "\xe9"}'.encode("utf-32"), {"Content-Type": None}, {"v": "\xe9"}),
        ('{"v": "\xe9"}'.encode("latin-1"),
         {"Content-Type": "application/json; charset=iso-8859-1"}, {"v": "\xe9"}),
    ], ids=["nan-inf", "lone-surrogate", "invalid-utf8", "overflow", "bom", "utf16",
            "utf32", "latin1"])
    def test_fallback_gives_the_stdlib_result(self, stub_server, data, headers, want):
        """What orjson refuses, requests' decode reads as it always did."""
        stub_server.route("/x", lambda body: (200, data, headers))
        got = transport.post_json(f"{stub_server.url}/x", {}, {}, retries=0)
        assert repr(got) == repr(want)  # repr, so that NaN equals NaN
        assert len(stub_server.requests) == 1

    def test_nonfinite_logprobs_read_as_before(self, stub_server):
        backend = OpenAIChatBackend("llm-x", endpoint=stub_server.url, retries=0,
                                    vocab_size=50)
        top = [{"token": "4", "logprob": -0.1}, {"token": "5", "logprob": -math.inf}]
        data = json.dumps(chat_reply(top=top)).encode()  # Python writes -Infinity
        stub_server.route("/v1/chat/completions", lambda body: (200, data))
        _, steps = backend.complete("q", DecodeParams())
        assert steps[0].dist == (("4", math.exp(-0.1)), ("5", 0.0))

        data = json.dumps(chat_reply(top=top, logprob=math.nan)).encode()
        stub_server.route("/v1/chat/completions", lambda body: (200, data))
        with pytest.raises(ValueError, match=re.escape("chosen-token probability nan")):
            backend.complete("q", DecodeParams())

    @pytest.mark.parametrize("data, headers, message", [
        (b"<html>busy</html>", {}, "Expecting value: line 1 column 1 (char 0)"),
        (b"", {}, "Expecting value: line 1 column 1 (char 0)"),
        (b'\xef\xbb\xbf{"v": 1}', {}, "Unexpected UTF-8 BOM"),
        ('{"v": 1}'.encode("utf-16"), {}, "Expecting value"),
    ], ids=["html", "empty", "bom-declared-utf8", "utf16-declared-utf8"])
    def test_neither_decoder_accepts(self, stub_server, data, headers, message):
        stub_server.route("/x", lambda body: (200, data, headers))
        with pytest.raises(TransportError, match=re.escape(f"response is not JSON: {message}")):
            transport.post_json(f"{stub_server.url}/x", {}, {}, retries=0)
        assert len(stub_server.requests) == 1

    def test_deeply_nested_fallback_body(self, stub_server):
        """orjson refuses the NaN, and the stdlib decoder the depth."""
        data = b"[" * 5000 + b"NaN" + b"]" * 5000
        stub_server.route("/x", lambda body: (200, data))
        with pytest.raises(TransportError,
                           match="response is not JSON: maximum recursion depth exceeded"):
            transport.post_json(f"{stub_server.url}/x", {}, {}, retries=0)

    @pytest.mark.parametrize("opening, closing, depth", [
        (b"[", b"]", 200_000), (b'{"a":', b"}", 100_000),
    ], ids=["arrays", "objects"])
    def test_a_deeply_nested_reply_is_an_error_not_a_crash(self, stub_server, opening,
                                                           closing, depth):
        # run in a child process, on a worker thread as the remote clients'
        # pools are: a decoder with no depth limit would kill it, not raise
        data = opening * depth + b"1" + closing * depth
        stub_server.route("/x", lambda body: (200, data))
        script = ("import sys, threading\n"
                  "from multirag import transport\n"
                  "from multirag.errors import TransportError\n"
                  "def ask():\n"
                  "    try:\n"
                  "        transport.post_json(sys.argv[1], {}, {}, retries=0)\n"
                  "    except TransportError as e:\n"
                  "        print(e)\n"
                  "worker = threading.Thread(target=ask)\n"
                  "worker.start()\n"
                  "worker.join()\n")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-c", script, f"{stub_server.url}/x"],
                              timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True)
        assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
        assert proc.stdout.startswith(
            f"{stub_server.url}/x: response is not JSON: maximum recursion depth exceeded")

    def test_a_reply_with_more_brackets_than_the_bound_is_read_by_the_stdlib(
            self, stub_server, monkeypatch):
        # an integer beyond 64 bits tells the decoders apart
        data = b'{"v": 18446744073709551616, "w": [[1], [2], {"x": 3}]}'
        stub_server.route("/x", lambda body: (200, data))
        brackets = data.count(b"[") + data.count(b"{")
        assert transport._brackets(data) == brackets
        assert transport._brackets(bytes(range(256)) * 3) == 6
        for bound, want in ((brackets, 2.0 ** 64), (brackets - 1, 2 ** 64),
                            (len(data), 2.0 ** 64)):
            monkeypatch.setattr(transport, "_ORJSON_MAX_BRACKETS", bound)
            got = transport.post_json(f"{stub_server.url}/x", {}, {}, retries=0)
            assert type(got["v"]) is type(want) and got["v"] == want
            assert got["w"] == [[1], [2], {"x": 3}]

    def test_declared_charset_yields_to_valid_utf8(self, stub_server):
        """A departure from requests' decode: UTF-8 wins over the declared charset."""
        data = '{"v": "\xe9"}'.encode("utf-8")
        stub_server.route("/x", lambda body: (
            200, data, {"Content-Type": "application/json; charset=iso-8859-1"}))
        assert transport.post_json(f"{stub_server.url}/x", {}, {}, retries=0) == {"v": "\xe9"}

    def test_integer_beyond_64_bits_reads_as_float(self, stub_server):
        """A departure from the stdlib decode, invisible to the client's float64 reads."""
        data = b'{"v": 18446744073709551616, "w": 18446744073709551615}'
        stub_server.route("/x", lambda body: (200, data))
        got = transport.post_json(f"{stub_server.url}/x", {}, {}, retries=0)
        assert got == {"v": 2.0 ** 64, "w": 2 ** 64 - 1}
        assert type(got["v"]) is float and type(got["w"]) is int
