"""The three question-answering flows: vanilla, mixture, confident.

vanilla    retrieve with one embedding model, prompt, generate once.
mixture    retrieve with every model in the subset, fuse the candidate
           lists on standardized similarity, prompt once, generate once.
confident  run vanilla once per model in the subset, score each answer's
           confidence, keep the answer with the highest oriented score.

Every generation derives its decode seed from the master seed and a
stable key (question id plus the model subset), so results do not depend
on subset order or scheduling, and a rerun with the same config
reproduces them exactly.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from . import confidence, retrieval
from .corpus import Chunk, Corpus
from .errors import StageError
from .generation import DecodeParams, derive_seed, generate
from .retrieval import PromptTemplate

log = logging.getLogger(__name__)


@dataclass
class PipelineConfig:
    providers: list  # embedding providers; list position defines model index
    backend: object
    template: PromptTemplate
    k: int = 4
    quotas: dict[str, int] | None = None
    metric: str = "self-certainty"
    decode: DecodeParams = field(default_factory=DecodeParams)
    seed: int = 0
    concurrency: int = 1

    def __post_init__(self):
        ids = [p.model_id for p in self.providers]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate embedding model ids")
        confidence.orientation(self.metric)  # validates the metric name

    @property
    def model_ids(self) -> list[str]:
        return [p.model_id for p in self.providers]

    def provider(self, model_id: str):
        for p in self.providers:
            if p.model_id == model_id:
                return p
        raise ValueError(f"embedding model {model_id!r} is not configured")

    def model_index(self, model_id: str) -> int:
        return self.model_ids.index(model_id)


@dataclass
class QuestionResult:
    question_id: str
    pipeline: str
    answer: str
    winner_index: int | None
    records: list  # GenerationRecord, in model-index order
    retrieved: dict[str, list[str]]  # model id (or combo tag) -> chunk ids


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as e:  # noqa: BLE001 - annotate every stage failure
        raise StageError(name, e) from e


def map_concurrent(fn, items: list, concurrency: int) -> list:
    """``[fn(x) for x in items]``, on up to ``concurrency`` threads when above 1."""
    if concurrency > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=min(concurrency, len(items))) as ex:
            return list(ex.map(fn, items))
    return [fn(x) for x in items]


# the memo entry holding the answers a collecting memo has not scored yet
_UNSCORED = ("unscored",)


def collecting_memo(unscored: list) -> dict:
    """A memo (see ``run_vanilla``) whose flows add each answer they
    generate to ``unscored`` instead of scoring it at once.

    ``score_collected`` scores the collected answers together;
    ``run_confident`` calls it before it reads a score. Memos for flows
    under different configs may share one list.
    """
    return {_UNSCORED: unscored}


def score_collected(memo: dict | None) -> None:
    """Score, in one stacked pass, every answer ``memo`` has collected and
    not yet scored; a memo that collects nothing is left as it is."""
    unscored = memo.get(_UNSCORED) if memo is not None else None
    if unscored:
        _stage("confidence", confidence.score_records, unscored)
        unscored.clear()


def _row(question_id: str, question: str, model_id: str, corpus: Corpus,
         config: PipelineConfig, memo: dict | None, select=None):
    """The question's similarity row for one model, scored once per ``memo``.

    ``select`` is the one selection the caller reads. It is passed on to
    ``score_all`` only where it can help: with no memo to share the row
    with other flows, and a store that may hold a float32 copy.
    """
    row = memo.get(("row", model_id)) if memo is not None else None
    if row is None:
        only = {"select": select} if memo is None and corpus.store is not None else {}
        row = _stage("retrieval", lambda: retrieval.score_all(
            config.provider(model_id), question, corpus, question_id=question_id, **only))
        if memo is not None:
            memo[("row", model_id)] = row
    return row


def run_vanilla(question_id: str, question: str, model_id: str,
                corpus: Corpus, config: PipelineConfig,
                memo: dict | None = None) -> QuestionResult:
    """Single-model RAG; k = 0 degenerates to the bare-question LLM.

    ``memo`` is one question's scratch dict, shared by the flows run on
    that question under one config: it keeps each model's similarity row
    and vanilla result, so each is computed once however many flows ask.
    The answer is scored at once, unless ``memo`` is a ``collecting_memo``.
    """
    if memo is not None and ("vanilla", model_id) in memo:
        return memo[("vanilla", model_id)]
    if config.k == 0:
        ids, positions = [], []
    else:
        row = _row(question_id, question, model_id, corpus, config, memo,
                   select=config.quotas or config.k)
        if config.quotas:
            ids = retrieval.top_k_by_kind(row, config.quotas)
            positions = row.by_kind(config.quotas)
        else:
            ids = retrieval.top_k(row, config.k)
            positions = row.top(config.k)
    # the row caches its selection: read the chunks by position, not by id
    references = [corpus.chunk_at(p) for p in positions]
    result = _answer(question_id, question, "vanilla", model_id, ids, references, config,
                     memo)
    if memo is not None:
        memo[("vanilla", model_id)] = result
    return result


def run_mixture(question_id: str, question: str, model_ids: list[str],
                corpus: Corpus, config: PipelineConfig,
                memo: dict | None = None) -> QuestionResult:
    """Fused multi-model retrieval feeding a single generation.

    ``memo`` is shared with other flows on the same question as in
    ``run_vanilla``.
    """
    if not model_ids:
        raise ValueError("mixture requires at least one model")
    _reject_repeats(model_ids)
    combo = ",".join(model_ids)
    if config.k > 0:
        fused_rows = [_row(question_id, question, mid, corpus, config, memo)
                      for mid in model_ids]
        candidates = _stage("fusion", retrieval.fuse, fused_rows, config.k,
                            quotas=config.quotas or None)
        ids = [c.chunk_id for c in candidates]
    else:
        ids = []
    references = [corpus.get(cid) for cid in ids]
    return _answer(question_id, question, "mixture", combo, ids, references, config, memo)


def _reject_repeats(model_ids: list[str]) -> None:
    """A model listed twice would only repeat its run, so it is an error."""
    seen: set[str] = set()
    for mid in model_ids:
        if mid in seen:
            raise ValueError(f"embedding model {mid!r} is listed more than once")
        seen.add(mid)


def _answer(question_id: str, question: str, pipeline: str, tag: str, ids: list[str],
            references: list[Chunk], config: PipelineConfig,
            memo: dict | None) -> QuestionResult:
    """Prompt with ``references``, the retrieved chunks of ``ids``, generate
    once, score the answer (or leave it to a collecting ``memo``).

    ``tag`` names the run (a model id for vanilla, the joined subset for
    mixture): it keys the decode seed, the record and ``retrieved``.
    """
    prompt = _stage("prompt", retrieval.assemble_prompt,
                    config.template, question, references)
    params = replace(config.decode,
                     seed=derive_seed(config.seed, "gen", question_id, tag))
    record = _stage("generation", generate, config.backend, prompt, params,
                    question_id=question_id, combination=tag,
                    embedding_model=tag)
    unscored = memo.get(_UNSCORED) if memo is not None else None
    if unscored is None:
        _stage("confidence", confidence.score_record, record)
    else:
        unscored.append(record)
    return QuestionResult(
        question_id=question_id, pipeline=pipeline, answer=record.completion,
        winner_index=None, records=[record], retrieved={tag: ids})


def run_confident(question_id: str, question: str, model_ids: list[str],
                  corpus: Corpus, config: PipelineConfig,
                  memo: dict | None = None) -> QuestionResult:
    """One vanilla run per model; the highest-confidence answer wins.

    A single failed generation is dropped (with a log line) instead of
    sinking the whole question; at least one run must survive. Runs found
    in ``memo`` (see ``run_vanilla``) are reused, and threads start only
    when more than one run is left to do. A collecting ``memo``'s answers
    are scored before the winner is picked.
    """
    if not model_ids:
        raise ValueError("confident requires at least one model")
    _reject_repeats(model_ids)
    ordered = sorted(model_ids, key=config.model_index)

    def one(mid: str):
        try:
            return run_vanilla(question_id, question, mid, corpus, config, memo)
        except StageError as e:
            log.warning("dropping model %s for question %s: %s", mid, question_id, e)
            return e

    fresh = [mid for mid in ordered if memo is None or ("vanilla", mid) not in memo]
    outcomes = map_concurrent(one, ordered, config.concurrency if len(fresh) > 1 else 1)
    survivors = [(mid, r) for mid, r in zip(ordered, outcomes)
                 if isinstance(r, QuestionResult)]
    if not survivors:
        raise StageError("confident", outcomes[0])

    score_collected(memo)
    records = [r.records[0] for _, r in survivors]
    winner, index = confidence.select_most_confident(records, config.metric)
    return QuestionResult(
        question_id=question_id, pipeline="confident", answer=winner.completion,
        winner_index=index, records=records,
        retrieved={mid: r.retrieved[mid] for mid, r in survivors})
