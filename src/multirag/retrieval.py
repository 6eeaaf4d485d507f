"""Per-model retrieval, Z-score standardization, cross-model fusion, prompts.

A ``SimilarityRow`` holds one model's scores for one question as an
array aligned with a ``ChunkIndex``: position ``i`` scores the chunk
ingested ``i``-th, and every tie-break below ("ingestion order") means
that position. Scoring a question against a corpus is one matrix-vector
product with the index's unit-norm chunk matrix. Every selection ranks
by (score descending, ingestion order ascending) but sorts only the
chunks that can make its cut: ``np.partition`` finds the score of the
q-th best, and every chunk scoring at least that, ties included, is
stable-sorted. Each row caches its selections and Z-scores, so a row
shared by several model combinations is processed once.

Fusion pools each model's top candidates, deduplicates chunk ids keeping
the strongest standardized score, and re-sorts globally: (standardized
score descending, ingestion order ascending), with dedup ties going to
the lowest model index.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .corpus import KINDS, Chunk, ChunkIndex, Corpus
from .errors import TemplateError


class ScoreMap(Mapping):
    """Read-only ``{chunk id: score}`` view of an array aligned with an index."""

    def __init__(self, index: ChunkIndex, array: np.ndarray):
        self.index = index
        self.array = array

    def __getitem__(self, chunk_id: str) -> float:
        return float(self.array[self.index.position[chunk_id]])

    def __iter__(self):
        return iter(self.index.ids)

    def __len__(self) -> int:
        return len(self.index.ids)


class _RowScores(ScoreMap):
    """A row's raw scores; a write drops the selections and Z-scores cached from them."""

    def __init__(self, row: SimilarityRow):
        super().__init__(row.index, row.values)
        self._row = row

    def __setitem__(self, chunk_id: str, score: float) -> None:
        if not math.isfinite(score):
            raise ValueError(f"non-finite similarity for chunk {chunk_id!r}")
        self.array[self.index.position[chunk_id]] = score
        self._row._cache.clear()


class SimilarityRow:
    """One model's raw cosine similarity of one question to every indexed chunk.

    ``SimilarityRow(model_id, question_id, {chunk id: score})`` builds a row
    over an index of those ids in mapping order; ``score_all`` passes the
    corpus index and an aligned score array instead.
    """

    def __init__(self, model_id: str, question_id: str, scores,
                 index: ChunkIndex | None = None):
        if index is None:
            index = ChunkIndex(list(scores))
            scores = np.fromiter(scores.values(), dtype=np.float64, count=len(index))
        values = np.asarray(scores, dtype=np.float64)
        if values.shape != (len(index),):
            raise ValueError("similarity row does not align with its index")
        if not values.size:
            raise ValueError("similarity row must contain at least one score")
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(
                f"non-finite similarity for chunk {index.ids[int(np.argmin(finite))]!r}")
        self.model_id = model_id
        self.question_id = question_id
        self.index = index
        self.values = values
        self._cache: dict = {}

    @property
    def scores(self) -> ScoreMap:
        """Chunk id -> raw score, in ingestion order; assignable per chunk."""
        return _RowScores(self)

    def zscores(self) -> np.ndarray:
        """Read-only Z-scores (population standard deviation) per position.

        A zero-spread row standardizes to all zeros: it carries no ranking
        information and dividing by zero would poison fusion.
        """
        if "z" not in self._cache:
            v = self.values
            # zero spread means max == min; testing sigma == 0.0 would miss rows of
            # identical values whose float mean lands a rounding error away
            z = np.zeros_like(v) if v.max() == v.min() else (v - v.mean()) / v.std()
            z.flags.writeable = False
            self._cache["z"] = z
        return self._cache["z"]

    def top(self, k: int) -> np.ndarray:
        """Positions of the ``k`` best chunks, in rank order."""
        key = ("top", k)
        if key not in self._cache:
            self._cache[key] = _best(self.values, k)
        return self._cache[key]

    def by_kind(self, quotas: dict[str, int]) -> np.ndarray:
        """Positions of the top ``quotas[kind]`` chunks of each kind, in rank order."""
        key = ("kind", tuple(quotas.items()))
        if key not in self._cache:
            if self.index.kind_codes is None:
                raise ValueError("per-kind quotas require an index with chunk kinds")
            empty = np.empty(0, dtype=np.intp)
            picks = []
            for kind, quota in quotas.items():
                positions = self.index.kind_positions.get(kind, empty)
                picks.append(positions[_best(self.values[positions], quota)])
            p = np.concatenate(picks) if picks else empty
            # each kind's picks are in rank order; merge them into the row's
            self._cache[key] = p[np.lexsort((p, -self.values[p]))]
        return self._cache[key]


def _best(values: np.ndarray, q: int) -> np.ndarray:
    """Indices of the ``q`` best of ``values`` by (value descending, index ascending).

    Only the entries at or above the q-th best value, ties included, are
    sorted; a stable sort of those ascending indices ranks them exactly as a
    stable sort of the whole array would.
    """
    if q < 0:
        raise ValueError(f"cannot select {q} chunks: k and quotas must be >= 0")
    n = len(values)
    if q == 0:
        return np.empty(0, dtype=np.intp)
    if q < n:
        cut = np.partition(values, n - q)[n - q]
        candidates = np.flatnonzero(values >= cut)
    else:
        candidates = np.arange(n)
    return candidates[np.argsort(-values[candidates], kind="stable")[:q]]


def _first_per_kind(codes: np.ndarray, quotas: dict[str, int]) -> np.ndarray:
    """Indices of the first ``quotas[kind]`` entries of each kind in ``codes``,
    kind codes as ``ChunkIndex.kind_codes`` holds them, ascending."""
    picks = [np.flatnonzero(codes == KINDS.index(kind))[:quota]
             for kind, quota in quotas.items() if kind in KINDS]
    return np.sort(np.concatenate(picks)) if picks else np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class RetrievalCandidate:
    model_id: str
    chunk_id: str
    standardized: float


def score_all(provider, question: str, corpus: Corpus,
              question_id: str = "") -> SimilarityRow:
    """Cosine-score the question against every corpus chunk."""
    if not len(corpus):
        raise ValueError("cannot score a question against an empty corpus")
    index = corpus.index()
    query = provider.embed([question])[0].values
    scores = index.product(provider, query / np.linalg.norm(query))
    np.clip(scores, -1.0, 1.0, out=scores)
    return SimilarityRow(provider.model_id, question_id, scores, index)


def top_k(row: SimilarityRow, k: int) -> list[str]:
    """The k highest-scoring chunk ids, ties broken by ingestion order."""
    ids = row.index.ids
    return [ids[i] for i in row.top(k)]


def top_k_by_kind(row: SimilarityRow, quotas: dict[str, int]) -> list[str]:
    """Per-kind top selection from the row's index kinds, in global score order."""
    ids = row.index.ids
    return [ids[i] for i in row.by_kind(quotas)]


def standardize(row: SimilarityRow) -> ScoreMap:
    """Z-scores over all scores in the row (population standard deviation).

    A zero-spread row standardizes to all zeros.
    """
    return ScoreMap(row.index, row.zscores())


def fuse(rows: list[SimilarityRow], k: int,
         quotas: dict[str, int] | None = None) -> list[RetrievalCandidate]:
    """Merge per-model candidate lists into one deduplicated ranking.

    Each row contributes its own top selection (k, or per-kind quotas),
    scored by Z-standardized similarity so models with different score
    ranges are comparable. Duplicated chunks keep the maximum
    standardized score (ties: lowest model index); the pooled survivors
    are ranked by (standardized desc, ingestion order asc) and cut to k
    or to the per-kind quotas.
    """
    if not rows:
        raise ValueError("fuse requires at least one row")
    if k < 0:
        raise ValueError("k must be >= 0")
    index = rows[0].index
    for row in rows[1:]:
        if row.index is not index and row.index.ids != index.ids:
            raise ValueError("rows score different corpora or different chunk orders")

    selected = [row.top(k) if quotas is None else row.by_kind(quotas)
                for row in rows]
    positions = np.concatenate(selected)
    z = np.concatenate([row.zscores()[sel] for row, sel in zip(rows, selected)])
    model = np.repeat(np.arange(len(rows)), [len(sel) for sel in selected])

    # per position, the first entry by (z desc, model asc) survives
    by_position = np.lexsort((model, -z, positions))
    kept = by_position[np.unique(positions[by_position], return_index=True)[1]]
    # survivors are in ingestion order, so a stable sort ranks them like a row
    kept = kept[np.argsort(-z[kept], kind="stable")]
    if quotas is None:
        kept = kept[:k]
    else:
        kept = kept[_first_per_kind(index.kind_codes[positions[kept]], quotas)]
    return [RetrievalCandidate(model_id=rows[m].model_id, chunk_id=index.ids[p],
                               standardized=score)
            for m, p, score in zip(model[kept].tolist(), positions[kept].tolist(),
                                   z[kept].tolist())]


_PLACEHOLDER = re.compile(r"\{\{(question|references)\}\}")


# one numbered reference, and the section that wraps the joined references
_REFERENCE_FORMAT = "[{index}] {text}"
_SECTION_FORMAT = "References:\n{blocks}\n\n"


@dataclass(frozen=True)
class PromptTemplate:
    """Prompt text with {{question}} and {{references}} placeholders.

    The references section collapses to the empty string when there are
    no references (vanilla-LLM mode).
    """

    text: str

    def __post_init__(self):
        found = [m.group(1) for m in _PLACEHOLDER.finditer(self.text)]
        for name in ("question", "references"):
            if found.count(name) != 1:
                raise TemplateError(
                    f"template must contain exactly one {{{{{name}}}}} placeholder")


def assemble_prompt(template: PromptTemplate, question: str,
                    references: list[Chunk]) -> str:
    """Deterministic montage of the question and ordered references."""
    if references:
        blocks = "\n".join(
            _REFERENCE_FORMAT.format(index=i, text=chunk.text)
            for i, chunk in enumerate(references, start=1))
        section = _SECTION_FORMAT.format(blocks=blocks)
    else:
        section = ""
    mapping = {"question": question, "references": section}
    return _PLACEHOLDER.sub(lambda m: mapping[m.group(1)], template.text)
