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
    if not np.isfinite(raw):
        raise ValueError(f"non-finite raw score for {metric}: {raw}")
    oriented = -raw if metric in LOWER_IS_CONFIDENT else raw
    return ConfidenceScore(metric=metric, raw=raw, oriented=oriented)


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def raw_scores(steps: StepBlock | list[TokenStep]) -> dict[str, float]:
    """The five raw metrics of one completion, keyed by metric name.

    Reads the block's truncated-distribution arrays (a list of steps is
    packed into a block first): listed probabilities ``probs`` valid up
    to ``lens``, the unlisted mass ``tails`` and the vocabulary sizes
    ``vocabs`` (see ``StepBlock``). Each step's tail mass is spread
    uniformly over its ``vocabs[i] - lens[i]`` unlisted tokens (``u``
    per token).
    """
    block = steps if isinstance(steps, StepBlock) else StepBlock.from_steps(steps)
    if not len(block):
        raise ValueError("confidence metrics require at least one step")
    probs, lens, tails, vocabs = block.probs, block.lens, block.tails, block.vocabs
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
    n = len(block)  # x.sum() / n has the bits of x.mean(), without its call overhead
    return {
        "avg-log-p": float(np.log(np.maximum(block.prob, EPSILON)).sum() / n),
        "self-certainty": float(certainties.sum() / n),
        "gini": float(ginis.sum() / n),
        "entropy": float(ents.sum() / n),
        "dp": float(np.exp(ents).sum() / n),
    }


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
    raws = raw_scores(record.steps)
    record.confidence = {m: orient(m, raws[m]) for m in METRICS}
    return record


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
