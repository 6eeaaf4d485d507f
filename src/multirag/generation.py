"""LLM backends and the per-token probability records they must produce.

A completion is a sequence of token steps: the chosen token, its
probability, and the (possibly truncated) distribution over the
vocabulary at that position. Both backends build one ``StepBlock`` per
completion, the whole sequence as arrays validated in one pass; reading
``block[i]`` gives the step as a ``TokenStep``. The mock backend emits
*full* distributions (tail mass zero) so confidence metrics can be
checked against exact oracles without a GPU; the remote backend speaks
the OpenAI chat-completions wire format and yields top-K truncated
distributions.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

import numpy as np

from . import transport
from .errors import EmptyCompletionError, GenerationError, LogprobsMissingError

_SUM_TOL = 1e-6


@dataclass(frozen=True)
class TokenStep:
    token: str
    prob: float  # probability of the chosen token
    dist: tuple[tuple[str, float], ...]  # top alternatives, descending prob
    tail_mass: float
    vocab_size: int

    def __post_init__(self):
        StepBlock.from_steps([self])  # raises on the first broken rule
        object.__setattr__(self, "tail_mass", max(self.tail_mass, 0.0))


def _row_sums(probs: np.ndarray) -> np.ndarray:
    """Each row summed left to right, as Python's ``sum`` over a list does."""
    return np.cumsum(probs, axis=1)[:, -1] if probs.shape[1] else np.zeros(len(probs))


def _check(table, chosen, prob, codes, probs, lens, tails, vocabs) -> None:
    """Hold every step of a block to ``TokenStep``'s rules.

    Reports the first rule the first broken step breaks, in this order:
    chosen probability in (0, 1]; a non-empty row no longer than the
    vocabulary; listed probabilities in [0, 1] (NaN fails) and sorted
    descending; a finite tail mass >= -tol; listed mass plus tail within
    tol of 1 (summed left to right); the chosen token listed in its row.
    """
    listed = np.arange(probs.shape[1]) < lens[:, None]
    totals = _row_sums(probs) + tails
    rules = (
        (~((prob > 0.0) & (prob <= 1.0)),
         lambda i: f"chosen-token probability {prob[i]} outside (0, 1]"),
        (lens == 0, lambda i: "step distribution is empty"),
        (vocabs < lens, lambda i:
         f"vocab size {vocabs[i]} smaller than distribution size {lens[i]}"),
        ((listed & ~((probs >= 0.0) & (probs <= 1.0))).any(axis=1),
         lambda i: "distribution probability outside [0, 1]"),
        ((listed[:, 1:] & (probs[:, :-1] < probs[:, 1:])).any(axis=1),
         lambda i: "distribution must be sorted by descending probability"),
        (~np.isfinite(tails) | (tails < -_SUM_TOL),
         lambda i: f"tail mass {tails[i]} is negative or not finite"),
        (np.abs(totals - 1.0) > _SUM_TOL,
         lambda i: f"distribution plus tail sums to {totals[i]}, not 1"),
        (~(listed & (codes == chosen[:, None])).any(axis=1),
         lambda i: f"chosen token {table[chosen[i]]!r} not present in distribution"),
    )
    broken = rules[0][0].copy()
    for bad, _ in rules[1:]:
        broken |= bad
    if broken.any():
        i = int(broken.argmax())
        raise ValueError(next(message(i) for bad, message in rules if bad[i]))


def _pad(lens, values) -> tuple[np.ndarray, np.ndarray]:
    """Row entries given flat, in listed order, as (codes, probs) matrices.

    Row i holds flat entries ``sum(lens[:i])`` onwards; an entry's code is
    its flat position. The (n, max(lens)) matrices are padded with code -1
    and probability 0.
    """
    lens = np.asarray(lens, dtype=np.int64)
    listed = np.arange(lens.max() if len(lens) else 0) < lens[:, None]
    codes = np.full(listed.shape, -1, dtype=np.int64)
    codes[listed] = np.arange(listed.sum())
    probs = np.zeros(listed.shape)
    probs[listed] = values
    return codes, probs


class StepBlock:
    """All token steps of one completion as arrays, validated once.

      table   tuple[str]        token strings; the codes below index it
      chosen  (n,)      int64   chosen token of each step
      prob    (n,)      float64 probability of the chosen token
      codes   (n, kmax) int64   listed tokens, row i valid up to lens[i]
      probs   (n, kmax) float64 listed probabilities, descending per row,
                                0 beyond lens[i]; kmax = max(lens)
      lens    (n,)      int64   number of listed entries per step
      tails   (n,)      float64 probability mass not listed (clamped to >= 0)
      vocabs  (n,)      int64   vocabulary size per step (>= lens[i])

    The block behaves as a read-only sequence of ``TokenStep``s: ``len``,
    iteration, indexing and ``==`` build the steps only when read.
    """

    __slots__ = ("table", "chosen", "prob", "codes", "probs", "lens", "tails", "vocabs")

    def __init__(self, table, chosen, prob, codes, probs, lens, tails, vocabs):
        arrays = {
            "chosen": np.asarray(chosen, dtype=np.int64),
            "prob": np.asarray(prob, dtype=np.float64),
            "codes": np.asarray(codes, dtype=np.int64),
            "probs": np.asarray(probs, dtype=np.float64),
            "lens": np.asarray(lens, dtype=np.int64),
            "tails": np.asarray(tails, dtype=np.float64),
            "vocabs": np.asarray(vocabs, dtype=np.int64),
        }
        table = tuple(table)
        _check(table, **arrays)
        arrays["tails"] = np.maximum(arrays["tails"], 0.0)
        self.table = table
        for name, arr in arrays.items():
            arr.flags.writeable = False
            setattr(self, name, arr)

    @classmethod
    def from_steps(cls, steps) -> "StepBlock":
        """Pack ``TokenStep``s into a block.

        The token table is every listed token in order, then each chosen
        token its row does not list.
        """
        steps = list(steps)
        table = [t for s in steps for t, _ in s.dist]
        chosen, start = [], 0
        for s in steps:
            row = [t for t, _ in s.dist]
            if s.token in row:
                chosen.append(start + row.index(s.token))
            else:
                chosen.append(len(table))
                table.append(s.token)
            start += len(row)
        lens = [len(s.dist) for s in steps]
        codes, probs = _pad(lens, [p for s in steps for _, p in s.dist])
        return cls(table, chosen, [s.prob for s in steps], codes, probs, lens,
                   [s.tail_mass for s in steps], [s.vocab_size for s in steps])

    @property
    def tokens(self) -> list[str]:
        """The chosen token of each step."""
        return [self.table[c] for c in self.chosen.tolist()]

    def __len__(self) -> int:
        return len(self.lens)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]
        n = int(self.lens[i])
        dist = tuple(zip([self.table[c] for c in self.codes[i, :n].tolist()],
                         self.probs[i, :n].tolist()))
        return TokenStep(token=self.table[self.chosen[i]], prob=float(self.prob[i]),
                         dist=dist, tail_mass=float(self.tails[i]),
                         vocab_size=int(self.vocabs[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, (StepBlock, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"StepBlock({len(self)} steps, kmax {self.probs.shape[1]})"


@dataclass
class GenerationRecord:
    question_id: str
    combination: str      # tag of the model subset this run belongs to
    embedding_model: str  # embedding model id ("" for bare-LLM runs)
    prompt: str
    completion: str
    steps: StepBlock      # a list of TokenSteps is packed into a block
    confidence: dict = field(default_factory=dict)  # metric name -> ConfidenceScore

    def __post_init__(self):
        if not isinstance(self.steps, StepBlock):
            self.steps = StepBlock.from_steps(self.steps)


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
        completion=completion, steps=steps)


def derive_seed(master: int, *parts: str) -> int:
    """Stable per-(question, model) seed derived from the master seed.

    A part may hold a lone surrogate, as a gold id read from a ``\\ud800``
    escape does; "surrogatepass" encodes it, and leaves every other
    string's UTF-8 bytes, and so its seed, as they were.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(master).encode())
    for p in parts:
        h.update(b"\x00")
        h.update(p.encode("utf-8", "surrogatepass"))
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
        self._index = {t: i for i, t in enumerate(self.vocab)}
        # greedy body picks skip "####" so it only ever starts the answer
        self._marker = np.array([t == "####" for t in self.vocab])

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def complete(self, prompt: str, params: DecodeParams) -> tuple[str, StepBlock]:
        self.call_count += 1
        size = len(self.vocab)
        if self.script is not None:
            rows = [np.asarray(p, dtype=np.float64) for _, p in self.script]
            if any(r.shape != (size,) for r in rows):
                raise ValueError("scripted distribution does not cover the vocabulary")
            chosen = [self._index[tok] for tok, _ in self.script]
            return self._block(np.array(chosen, dtype=np.int64),
                               np.array(rows).reshape(len(rows), size))

        rng = np.random.default_rng(derive_seed(self.seed, str(params.seed), prompt))
        n_body = min(int(rng.integers(3, 9)), max(params.max_tokens - 2, 1))
        logits = rng.normal(0.0, self.sharpness, size=(n_body, size))
        body = np.exp(logits - logits.max(axis=1, keepdims=True))
        body /= body.sum(axis=1, keepdims=True)
        picks = np.where(self._marker, -np.inf, body).argmax(axis=1)  # lowest index on ties
        if self.answer_fn is not None:
            answer = str(self.answer_fn(prompt))
        else:
            answer = str(int(rng.integers(0, 100)))
        marked = [self._index[tok] for tok in ("####", *answer)]
        peaks = rng.uniform(0.55, 0.95, size=len(marked))
        tail = np.repeat(((1.0 - peaks) / (size - 1))[:, None], size, axis=1)
        tail[np.arange(len(marked)), marked] = peaks
        return self._block(np.concatenate([picks, marked]), np.vstack([body, tail]))

    def _block(self, chosen: np.ndarray, full: np.ndarray) -> tuple[str, StepBlock]:
        """(completion, block) for full distributions ``full`` over the vocabulary."""
        n, size = full.shape
        order = np.argsort(-full, axis=1, kind="stable")
        rows = np.arange(n)
        block = StepBlock(self.vocab, chosen, full[rows, chosen], order,
                          full[rows[:, None], order], np.full(n, size), np.zeros(n),
                          np.full(n, size))
        return self._render(block.tokens), block

    @staticmethod
    def _render(tokens: list[str]) -> str:
        body: list[str] = []
        answer: list[str] = []
        seen_marker = False
        for t in tokens:
            if t == "####" and not seen_marker:
                seen_marker = True
            elif seen_marker:
                answer.append(t)
            else:
                body.append(t)
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

    def complete(self, prompt: str, params: DecodeParams) -> tuple[str, StepBlock]:
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
        choices = _typed(body.get("choices") or [], list, "choices")
        if not choices:
            raise EmptyCompletionError("response has no choices")
        choice = _typed(choices[0], dict, "choices[0]")
        message = _typed(choice.get("message") or {}, dict, "choices[0].message")
        completion = _typed(message.get("content") or "", str, "choices[0].message.content")
        logprobs = _typed(choice.get("logprobs") or {}, dict, "choices[0].logprobs")
        content = logprobs.get("content")
        if content is None:
            raise LogprobsMissingError(
                "backend response omits logprobs; enable logprobs on the serving side")
        steps = self._parse_steps(_typed(content, list, "choices[0].logprobs.content"))
        if not completion.strip() or not steps:
            raise EmptyCompletionError("backend returned an empty completion")
        return completion, steps

    def _parse_steps(self, content: list[dict]) -> StepBlock:
        """One reply's ``logprobs.content`` as a block, in one pass.

        Each listed alternative is its own token, even where two share a
        string. The chosen token is the entry with its (``token``,
        ``bytes``) when it carries ``bytes``; otherwise the first entry
        with its (``token``, ``logprob``), else the first with its
        ``token``. A chosen token no entry matches is appended to its row.
        Each row is sorted by descending probability (stable), and its
        tail is ``max(0, 1 - listed sum)``, summed left to right. A
        positive logprob up to ``_SUM_TOL`` is rounding and reads as
        probability 1; a larger one is an error. A missing field is a
        ``LogprobsMissingError`` and a field of the wrong type a
        ``GenerationError``, each naming the field.
        """
        chosen_lps = transport.floats(_field(content, "logprob", "logprobs.content[]"),
                                      "logprobs.content[].logprob", GenerationError)
        tokens = _strs(_field(content, "token", "logprobs.content[]"), "logprobs.content[].token")
        tops = _field(content, "top_logprobs", "logprobs.content[]")
        if not set(map(type, tops)) <= {list}:
            raise transport.type_error(tops, (list,), "logprobs.content[].top_logprobs",
                                       GenerationError)
        entries = list(chain.from_iterable(tops))
        names = _strs(_field(entries, "token", "top_logprobs[]"), "top_logprobs[].token")
        lps = transport.floats(_field(entries, "logprob", "top_logprobs[]"),
                               "top_logprobs[].logprob", GenerationError)
        lens = list(map(len, tops))
        chosen: list[int] = []  # flat position of each chosen token
        appended: list[tuple[int, int]] = []  # (flat position, step) of unlisted chosen tokens
        start = 0
        for i, n in enumerate(lens):
            at = _chosen_at(content[i], tokens[i], chosen_lps[i], names, lps, entries,
                            start, start + n)
            if at < 0:
                appended.append((start + n, i))
                chosen.append(start + n + len(appended) - 1)
                lens[i] += 1
            else:  # each earlier appended token shifts this row one place on
                chosen.append(at + len(appended))
            start += n
        for at, i in reversed(appended):
            names.insert(at, tokens[i])
            lps.insert(at, chosen_lps[i])
        prob = _probabilities([names[i] for i in chosen], chosen_lps)
        codes, probs = _pad(lens, _probabilities(names, lps))
        listed = codes >= 0
        order = np.argsort(np.where(listed, -probs, np.nan), axis=1, kind="stable")
        rows = np.arange(len(lens))[:, None]
        probs, codes = probs[rows, order], codes[rows, order]
        rest = 1.0 - _row_sums(probs)
        return StepBlock(names, chosen, prob, codes, probs, lens,
                         np.where(rest > 0.0, rest, 0.0), np.full(len(lens), self.vocab_size))


def _typed(value, kind: type, where: str):
    """``value`` if its type is exactly ``kind``, else a GenerationError naming the field."""
    if type(value) is not kind:
        raise GenerationError(
            f"response field {where} is {type(value).__name__}, not {kind.__name__}")
    return value


def _field(objects: list[dict], key: str, where: str) -> list:
    """``object[key]`` of each JSON object, in one C-level pass; a missing key
    is a LogprobsMissingError and a value that is not an object a
    GenerationError, each naming the field."""
    try:
        return list(map(itemgetter(key), objects))
    except KeyError:
        raise LogprobsMissingError(f"response field {where} omits {key!r}") from None
    except TypeError:  # only a value that is not an object refuses a str key
        raise transport.type_error(objects, (dict,), where, GenerationError) from None


def _strs(values: list, where: str) -> list[str]:
    """``values`` if each is a str: ``join`` checks them in one C-level pass."""
    try:
        "".join(values)
    except TypeError:
        raise transport.type_error(values, (str,), where, GenerationError) from None
    return values


def _chosen_at(item: dict, token: str, logprob: float, names: list[str], lps: array,
               entries: list[dict], start: int, end: int) -> int:
    """Flat position in ``names[start:end]`` of the step's chosen token, or -1."""
    try:
        first = names.index(token, start, end)
    except ValueError:
        return -1
    key = item.get("bytes")
    if key is not None:
        return next((j for j in range(first, end)
                     if names[j] == token and entries[j].get("bytes") == key), -1)
    if lps[first] == logprob:
        return first
    return next((j for j in range(first + 1, end)
                 if names[j] == token and lps[j] == logprob), first)


def _probabilities(tokens: list[str], logprobs: array) -> np.ndarray:
    """``math.exp`` of each logprob; a positive one up to ``_SUM_TOL`` reads as 1."""
    lps = np.frombuffer(logprobs, dtype=np.float64)
    too_big = np.flatnonzero(lps > _SUM_TOL)
    if len(too_big):
        i = int(too_big[0])
        raise ValueError(
            f"token {tokens[i]!r} has logprob {lps[i]} > 0, not a log probability")
    out = np.fromiter(map(math.exp, logprobs), dtype=np.float64, count=len(lps))
    out[lps > 0.0] = 1.0
    return out
