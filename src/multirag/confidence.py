"""Token-distribution confidence metrics and most-confident answer selection.

Five metrics are computed from a completion's per-step distributions:

  avg-log-p       mean log probability of the chosen tokens
  gini            mean sum of squared probabilities (peakedness)
  entropy         mean Shannon entropy (natural log)
  dp              mean of exp(per-step entropy), a distribution-wide
                  perplexity; the exponential sits inside the step average
  self-certainty  mean KL-style divergence from the uniform distribution,
                  -(1/(n|v|)) sum log(|v| * p)

Truncated distributions are completed by spreading tail mass uniformly
over the unlisted tokens; probabilities are floored at EPSILON before
any logarithm so one-hot distributions stay finite. Entropy and dp read
"lower is confident", so their oriented score is the negated raw value:
a greater oriented score always means a more confident answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generation import GenerationRecord, StepBlock, TokenStep

EPSILON = 1e-12

METRICS = ("avg-log-p", "self-certainty", "gini", "entropy", "dp")
LOWER_IS_CONFIDENT = frozenset({"entropy", "dp"})


@dataclass(frozen=True)
class ConfidenceScore:
    metric: str
    raw: float
    oriented: float


def orientation(metric: str) -> str:
    _check_metric(metric)
    return "lower-is-confident" if metric in LOWER_IS_CONFIDENT else "higher-is-confident"


def orient(metric: str, raw: float) -> ConfidenceScore:
    _check_metric(metric)
    if not math.isfinite(raw):
        raise ValueError(f"non-finite raw score for {metric}: {raw}")
    oriented = -raw if metric in LOWER_IS_CONFIDENT else raw
    return ConfidenceScore(metric=metric, raw=raw, oriented=oriented)


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def raw_scores(steps: StepBlock | list[TokenStep]) -> dict[str, float]:
    """The five raw metrics of one completion, keyed by metric name: the
    batch of one of ``stacked_raw_scores``."""
    return stacked_raw_scores([steps])[0]


# the arrays of a StepBlock that the metrics read, in _row_metrics' order
_ROW_ARRAYS = ("prob", "probs", "lens", "tails", "vocabs")


def stacked_raw_scores(blocks: list[StepBlock | list[TokenStep]]) -> list[dict[str, float]]:
    """The five raw metrics of each completion in ``blocks``, in one pass.

    Blocks of equal row width (``probs.shape[1]``) are stacked, each
    per-step quantity is computed once over a group's rows, and each
    completion's means are ``.sum() / n`` over its own contiguous rows.
    So every completion gets the bits ``raw_scores`` gives it alone: a
    row's sum depends on the row's width, so rows of other widths are not
    padded to join a group, and a lone block is used without a copy. A
    list of steps is packed into a block first.
    """
    blocks = [b if isinstance(b, StepBlock) else StepBlock.from_steps(b) for b in blocks]
    by_width: dict[int, list[int]] = {}
    for i, block in enumerate(blocks):
        if not len(block):
            raise ValueError("confidence metrics require at least one step")
        by_width.setdefault(block.probs.shape[1], []).append(i)
    scores: list[dict[str, float]] = [{} for _ in blocks]
    for members in by_width.values():
        group = [blocks[i] for i in members]
        rows = np.stack(_row_metrics(
            *(_stack([getattr(b, name) for b in group]) for name in _ROW_ARRAYS)))
        end = 0
        for i, block in zip(members, group):
            n = len(block)
            start, end = end, end + n
            # each metric's row slice is summed on its own, as x.sum() would;
            # x.sum() / n has the bits of x.mean(), without its call overhead
            scores[i] = dict(zip(METRICS, (rows[:, start:end].sum(axis=1) / n).tolist()))
    return scores


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _row_metrics(prob, probs, lens, tails, vocabs) -> tuple[np.ndarray, ...]:
    """Each step's term of every metric, in ``METRICS`` order.

    Reads truncated-distribution rows (see ``StepBlock``): listed
    probabilities ``probs`` valid up to ``lens``, the unlisted mass
    ``tails`` and the vocabulary sizes ``vocabs``. Each step's tail mass
    is spread uniformly over its ``vocabs[i] - lens[i]`` unlisted tokens
    (``u`` per token).
    """
    kmax = probs.shape[1]
    mask = np.arange(kmax)[None, :] < lens[:, None]
    p = np.where(mask, probs, 0.0)
    unlisted = vocabs - lens
    u = np.where(unlisted > 0, tails / np.maximum(unlisted, 1), 0.0)

    terms = np.where(p > 0.0, -p * np.log(np.maximum(p, EPSILON)), 0.0)
    ents = terms.sum(axis=1) + np.where(
        u > 0.0, -u * np.log(np.maximum(u, EPSILON)) * unlisted, 0.0)
    ginis = (p * p).sum(axis=1) + u * u * unlisted
    v = vocabs.astype(np.float64)
    listed = np.where(mask, np.log(np.maximum(probs, EPSILON) * v[:, None]), 0.0).sum(axis=1)
    tail = unlisted * np.log(v * np.maximum(u, EPSILON))
    certainties = -(listed + np.where(unlisted > 0, tail, 0.0)) / v
    return np.log(np.maximum(prob, EPSILON)), certainties, ginis, ents, np.exp(ents)


def avg_log_p(steps: StepBlock | list[TokenStep]) -> float:
    return raw_scores(steps)["avg-log-p"]


def gini(steps: StepBlock | list[TokenStep]) -> float:
    return raw_scores(steps)["gini"]


def entropy(steps: StepBlock | list[TokenStep]) -> float:
    return raw_scores(steps)["entropy"]


def dp(steps: StepBlock | list[TokenStep]) -> float:
    return raw_scores(steps)["dp"]


def self_certainty(steps: StepBlock | list[TokenStep]) -> float:
    return raw_scores(steps)["self-certainty"]


def score_record(record: GenerationRecord) -> GenerationRecord:
    """Fill record.confidence with all five metrics (raw and oriented)."""
    return score_records([record])[0]


def score_records(records: list[GenerationRecord]) -> list[GenerationRecord]:
    """``score_record`` of each record, in one ``stacked_raw_scores`` pass."""
    for record, raws in zip(records, stacked_raw_scores([r.steps for r in records])):
        record.confidence = {m: orient(m, raws[m]) for m in METRICS}
    return records


def select_most_confident(records: list[GenerationRecord],
                          metric: str) -> tuple[GenerationRecord, int]:
    """Argmax of the oriented metric; ties go to the earliest record.

    Records arrive in embedding-model index order, so "earliest" is the
    lowest model index.
    """
    _check_metric(metric)
    if not records:
        raise ValueError("cannot select from an empty record list")
    best_index = 0
    best_score = None
    for i, record in enumerate(records):
        score = record.confidence.get(metric)
        if score is None:
            raise ValueError(
                f"record {i} ({record.embedding_model!r}) has no {metric!r} score")
        if best_score is None or score.oriented > best_score:
            best_score = score.oriented
            best_index = i
    return records[best_index], best_index
