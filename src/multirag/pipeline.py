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
from .corpus import Corpus
from .errors import StageError
from .generation import DecodeParams, GenerationRecord, derive_seed, generate
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


def _row(question_id: str, question: str, model_id: str, corpus: Corpus,
         config: PipelineConfig, rows: dict | None):
    """The question's similarity row for one model, scored once per ``rows``."""
    row = rows.get(model_id) if rows is not None else None
    if row is None:
        row = _stage("retrieval", lambda: retrieval.score_all(
            config.provider(model_id), question, corpus, question_id=question_id))
        if rows is not None:
            rows[model_id] = row
    return row


def run_vanilla(question_id: str, question: str, model_id: str,
                corpus: Corpus, config: PipelineConfig,
                rows: dict | None = None) -> QuestionResult:
    """Single-model RAG; k = 0 degenerates to the bare-question LLM.

    ``rows`` (model id -> similarity row of this question) supplies rows
    already scored and receives the ones scored here, so callers running
    several flows on one question score each model once.
    """
    if config.k == 0:
        ids = []
    else:
        row = _row(question_id, question, model_id, corpus, config, rows)
        if config.quotas:
            ids = retrieval.top_k_by_kind(row, config.quotas)
        else:
            ids = retrieval.top_k(row, config.k)
    return _answer(question_id, question, "vanilla", model_id, ids, corpus, config)


def run_mixture(question_id: str, question: str, model_ids: list[str],
                corpus: Corpus, config: PipelineConfig,
                rows: dict | None = None) -> QuestionResult:
    """Fused multi-model retrieval feeding a single generation.

    ``rows`` is shared with other flows on the same question as in
    ``run_vanilla``.
    """
    if not model_ids:
        raise ValueError("mixture requires at least one model")
    _reject_repeats(model_ids)
    combo = ",".join(model_ids)
    if config.k > 0:
        fused_rows = [_row(question_id, question, mid, corpus, config, rows)
                      for mid in model_ids]
        candidates = _stage("fusion", retrieval.fuse, fused_rows, config.k,
                            quotas=config.quotas or None)
        ids = [c.chunk_id for c in candidates]
    else:
        ids = []
    return _answer(question_id, question, "mixture", combo, ids, corpus, config)


def _reject_repeats(model_ids: list[str]) -> None:
    """A model listed twice would only repeat its run, so it is an error."""
    seen: set[str] = set()
    for mid in model_ids:
        if mid in seen:
            raise ValueError(f"embedding model {mid!r} is listed more than once")
        seen.add(mid)


def _answer(question_id: str, question: str, pipeline: str, tag: str,
            ids: list[str], corpus: Corpus, config: PipelineConfig) -> QuestionResult:
    """Prompt with the retrieved chunks, generate once, score the answer.

    ``tag`` names the run (a model id for vanilla, the joined subset for
    mixture): it keys the decode seed, the record and ``retrieved``.
    """
    references = [corpus.get(cid) for cid in ids]
    prompt = _stage("prompt", retrieval.assemble_prompt,
                    config.template, question, references)
    params = replace(config.decode,
                     seed=derive_seed(config.seed, "gen", question_id, tag))
    record = _stage("generation", generate, config.backend, prompt, params,
                    question_id=question_id, combination=tag,
                    embedding_model=tag)
    _stage("confidence", confidence.score_record, record)
    return QuestionResult(
        question_id=question_id, pipeline=pipeline, answer=record.completion,
        winner_index=None, records=[record], retrieved={tag: ids})


def run_confident(question_id: str, question: str, model_ids: list[str],
                  corpus: Corpus, config: PipelineConfig) -> QuestionResult:
    """One vanilla run per model; the highest-confidence answer wins.

    A single failed generation is dropped (with a log line) instead of
    sinking the whole question; at least one run must survive.
    """
    if not model_ids:
        raise ValueError("confident requires at least one model")
    _reject_repeats(model_ids)
    ordered = sorted(model_ids, key=config.model_index)

    def one(mid: str):
        try:
            return run_vanilla(question_id, question, mid, corpus, config)
        except StageError as e:
            log.warning("dropping model %s for question %s: %s", mid, question_id, e)
            return e

    if config.concurrency > 1 and len(ordered) > 1:
        with ThreadPoolExecutor(max_workers=min(config.concurrency, len(ordered))) as ex:
            outcomes = list(ex.map(one, ordered))
    else:
        outcomes = [one(mid) for mid in ordered]

    survivors = [(mid, r) for mid, r in zip(ordered, outcomes)
                 if isinstance(r, QuestionResult)]
    if not survivors:
        raise StageError("confident", outcomes[0])

    return confident_from_records(
        question_id, [r.records[0] for _, r in survivors], config.metric,
        {mid: r.retrieved[mid] for mid, r in survivors})


def confident_from_records(question_id: str, records: list[GenerationRecord],
                           metric: str,
                           retrieved: dict[str, list[str]]) -> QuestionResult:
    """Assemble a confident-mode result from already-scored vanilla records."""
    winner, index = confidence.select_most_confident(records, metric)
    return QuestionResult(
        question_id=question_id, pipeline="confident", answer=winner.completion,
        winner_index=index, records=records, retrieved=retrieved)
