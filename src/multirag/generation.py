"""LLM backends and the per-token probability records they must produce.

A completion is a sequence of ``TokenStep``s: the chosen token, its
probability, and the (possibly truncated) distribution over the
vocabulary at that position. The mock backend emits *full* distributions
(tail mass zero) so confidence metrics can be checked against exact
oracles without a GPU; the remote backend speaks the OpenAI
chat-completions wire format and yields top-K truncated distributions.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import transport
from .errors import EmptyCompletionError, LogprobsMissingError

log = logging.getLogger(__name__)

_SUM_TOL = 1e-6


@dataclass(frozen=True)
class TokenStep:
    token: str
    prob: float  # probability of the chosen token
    dist: tuple[tuple[str, float], ...]  # top alternatives, descending prob
    tail_mass: float
    vocab_size: int

    def __post_init__(self):
        if not (0.0 < self.prob <= 1.0):
            raise ValueError(f"chosen-token probability {self.prob} outside (0, 1]")
        if not self.dist:
            raise ValueError("step distribution is empty")
        if self.vocab_size < len(self.dist):
            raise ValueError(
                f"vocab size {self.vocab_size} smaller than distribution size {len(self.dist)}")
        probs = [p for _, p in self.dist]
        if any(not (0.0 <= p <= 1.0) for p in probs):
            raise ValueError("distribution probability outside [0, 1]")
        if any(probs[i] < probs[i + 1] for i in range(len(probs) - 1)):
            raise ValueError("distribution must be sorted by descending probability")
        if not math.isfinite(self.tail_mass) or self.tail_mass < -_SUM_TOL:
            raise ValueError(f"tail mass {self.tail_mass} is negative or not finite")
        total = sum(probs) + self.tail_mass
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"distribution plus tail sums to {total}, not 1")
        if all(t != self.token for t, _ in self.dist):
            raise ValueError(f"chosen token {self.token!r} not present in distribution")
        object.__setattr__(self, "tail_mass", max(self.tail_mass, 0.0))


@dataclass
class GenerationRecord:
    question_id: str
    combination: str      # tag of the model subset this run belongs to
    embedding_model: str  # embedding model id ("" for bare-LLM runs)
    prompt: str
    completion: str
    steps: list[TokenStep]
    confidence: dict = field(default_factory=dict)  # metric name -> ConfidenceScore


@dataclass(frozen=True)
class DecodeParams:
    temperature: float = 0.0
    max_tokens: int = 256
    top_logprobs: int = 20
    seed: int = 0


def generate(backend, prompt: str, params: DecodeParams,
             question_id: str = "", combination: str = "",
             embedding_model: str = "") -> GenerationRecord:
    """Run the backend once and validate the step invariants it returns."""
    completion, steps = backend.complete(prompt, params)
    if not completion or not steps:
        raise EmptyCompletionError("backend returned an empty completion")
    return GenerationRecord(
        question_id=question_id, combination=combination,
        embedding_model=embedding_model, prompt=prompt,
        completion=completion, steps=list(steps))


def derive_seed(master: int, *parts: str) -> int:
    """Stable per-(question, model) seed derived from the master seed."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(master).encode())
    for p in parts:
        h.update(b"\x00")
        h.update(p.encode("utf-8"))
    return int.from_bytes(h.digest(), "big")


_MOCK_WORDS = (
    "the total comes to adding both parts we get so each share is "
    "then take half now count what remains that gives the answer"
).split()
_MOCK_VOCAB = tuple(dict.fromkeys(_MOCK_WORDS)) + tuple("0123456789") + ("####",)


class MockBackend:
    """Deterministic in-process backend with full per-step distributions.

    The completion is a pure function of (backend seed, decode seed,
    prompt): a few reasoning words, then "####" and a final number
    emitted digit by digit so every chosen token is in the vocabulary.
    Pass ``script`` (a list of (token, probability-vector) pairs over the
    vocabulary) to pin exact distributions, or ``answer_fn`` to control
    the final number per prompt.
    """

    def __init__(self, seed: int = 0, vocab: tuple[str, ...] = _MOCK_VOCAB,
                 script=None, answer_fn=None, sharpness: float = 2.0):
        self.seed = seed
        self.vocab = tuple(vocab)
        self.script = script
        self.answer_fn = answer_fn
        self.sharpness = sharpness
        self.call_count = 0

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def complete(self, prompt: str, params: DecodeParams) -> tuple[str, list[TokenStep]]:
        self.call_count += 1
        if self.script is not None:
            steps = [self._step_from_probs(tok, np.asarray(p, dtype=np.float64))
                     for tok, p in self.script]
            return self._render(steps), steps

        rng = np.random.default_rng(derive_seed(self.seed, str(params.seed), prompt))
        n_body = int(rng.integers(3, 9))
        index = {t: i for i, t in enumerate(self.vocab)}
        body_tokens = [t for t in self.vocab if t != "####"]
        steps = []
        for _ in range(min(n_body, max(params.max_tokens - 2, 1))):
            logits = rng.normal(0.0, self.sharpness, size=len(self.vocab))
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            # greedy over non-marker tokens so "####" only ever starts the answer
            chosen = max(body_tokens, key=lambda t: (probs[index[t]], -index[t]))
            steps.append(self._step_from_probs(chosen, probs))
        if self.answer_fn is not None:
            answer = str(self.answer_fn(prompt))
        else:
            answer = str(int(rng.integers(0, 100)))
        for tok in ("####", *answer):
            peak = float(rng.uniform(0.55, 0.95))
            probs = np.full(len(self.vocab), (1.0 - peak) / (len(self.vocab) - 1))
            probs[index[tok]] = peak
            steps.append(self._step_from_probs(tok, probs))
        return self._render(steps), steps

    def _step_from_probs(self, token: str, probs: np.ndarray) -> TokenStep:
        if probs.shape[0] != len(self.vocab):
            raise ValueError("scripted distribution does not cover the vocabulary")
        order = np.argsort(-probs, kind="stable")
        dist = tuple((self.vocab[i], float(probs[i])) for i in order)
        chosen = dict(dist)[token]
        return TokenStep(token=token, prob=float(chosen), dist=dist,
                         tail_mass=0.0, vocab_size=len(self.vocab))

    @staticmethod
    def _render(steps: list[TokenStep]) -> str:
        body: list[str] = []
        answer: list[str] = []
        seen_marker = False
        for s in steps:
            if s.token == "####" and not seen_marker:
                seen_marker = True
            elif seen_marker:
                answer.append(s.token)
            else:
                body.append(s.token)
        if seen_marker:
            return " ".join(body + ["####", "".join(answer)]).rstrip()
        return " ".join(body)


class OpenAIChatBackend:
    """OpenAI-compatible ``/v1/chat/completions`` client with logprobs.

    Requests carry {"model", "messages", "temperature", "logprobs": true,
    "top_logprobs": K}. Per-token data is read from
    ``choices[0].logprobs.content[i]``; log-domain values are converted by
    exponentiation and the untransmitted remainder becomes tail mass. A
    response without logprobs means the serving stack is misconfigured
    and is fatal rather than silently degrading every confidence score.
    """

    def __init__(self, model: str, endpoint: str, api_key_env: str | None = None,
                 vocab_size: int = 32000, timeout: float = 120.0,
                 retries: int = 2, backoff: float = 0.5):
        self.model = model
        self.endpoint = endpoint.rstrip("/")
        self.vocab_size = vocab_size
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._headers = transport.bearer_headers(api_key_env)
        self.call_count = 0

    def complete(self, prompt: str, params: DecodeParams) -> tuple[str, list[TokenStep]]:
        self.call_count += 1
        body = transport.post_json(
            f"{self.endpoint}/v1/chat/completions",
            {
                "model": self.model,
                "messages": [{"role": "user", "content": prompt}],
                "temperature": params.temperature,
                "max_tokens": params.max_tokens,
                "logprobs": True,
                "top_logprobs": params.top_logprobs,
                "seed": params.seed,
            },
            headers=self._headers, timeout=self.timeout,
            retries=self.retries, backoff=self.backoff)
        choices = body.get("choices") or []
        if not choices:
            raise EmptyCompletionError("response has no choices")
        choice = choices[0]
        completion = (choice.get("message") or {}).get("content") or ""
        logprobs = choice.get("logprobs")
        content = (logprobs or {}).get("content")
        if logprobs is None or content is None:
            raise LogprobsMissingError(
                "backend response omits logprobs; enable logprobs on the serving side")
        steps = [self._parse_step(item) for item in content]
        if not completion.strip() or not steps:
            raise EmptyCompletionError("backend returned an empty completion")
        return completion, steps

    def _parse_step(self, item: dict) -> TokenStep:
        if "logprob" not in item or "top_logprobs" not in item:
            raise LogprobsMissingError("token entry omits logprob fields")
        token = item.get("token", "")
        chosen_prob = math.exp(float(item["logprob"]))
        alts = {e["token"]: math.exp(float(e["logprob"])) for e in item["top_logprobs"]}
        alts.setdefault(token, chosen_prob)
        dist = tuple(sorted(alts.items(), key=lambda kv: -kv[1]))
        tail = max(0.0, 1.0 - sum(p for _, p in dist))
        return TokenStep(token=token, prob=min(chosen_prob, 1.0), dist=dist,
                         tail_mass=tail, vocab_size=self.vocab_size)
