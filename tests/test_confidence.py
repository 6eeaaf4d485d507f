import math

import numpy as np
import pytest

from multirag import confidence
from multirag.confidence import (
    METRICS,
    avg_log_p,
    dp,
    entropy,
    gini,
    orient,
    orientation,
    score_record,
    select_most_confident,
    self_certainty,
)
from multirag.generation import DecodeParams, GenerationRecord, MockBackend, StepBlock, generate

from oracles import METRIC_CASES, ORACLES, argmax_oracle, make_step

COMPUTE = {
    "avg-log-p": avg_log_p,
    "gini": gini,
    "entropy": entropy,
    "dp": dp,
    "self-certainty": self_certainty,
}


@pytest.mark.parametrize("metric,build,expected,tol",
                         METRIC_CASES,
                         ids=[f"{m}-{i}" for i, (m, _, _, _) in enumerate(METRIC_CASES)])
def test_closed_form_cases(metric, build, expected, tol):
    steps = build()
    assert COMPUTE[metric](steps) == pytest.approx(expected, abs=tol)


def test_tail_spread_zero_unlisted():
    # fully listed distribution: a rounding tail has no token to go to
    steps = [make_step([0.5, 0.5], tail=1e-7, vocab=2)]
    assert entropy(steps) == pytest.approx(np.log(2), abs=1e-12)


def random_full_steps(rng, n_steps=None, vocab=None):
    n_steps = n_steps or int(rng.integers(1, 9))
    vocab = vocab or int(rng.integers(2, 20))
    alpha = float(rng.uniform(0.2, 3.0))
    return [make_step(rng.dirichlet([alpha] * vocab)) for _ in range(n_steps)]


def random_truncated_steps(rng, n_steps=None):
    n_steps = n_steps or int(rng.integers(1, 9))
    steps = []
    for _ in range(n_steps):
        vocab = int(rng.integers(6, 30))
        listed = int(rng.integers(2, vocab))
        full = rng.dirichlet([0.7] * vocab)
        top = sorted(full, reverse=True)[:listed]
        steps.append(make_step(top, tail=max(0.0, 1.0 - sum(top)), vocab=vocab))
    return steps


class TestOracleEquivalence:
    def test_full_distributions(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            steps = random_full_steps(rng)
            for metric, fn in COMPUTE.items():
                assert fn(steps) == pytest.approx(ORACLES[metric](steps), abs=1e-9)

    def test_truncated_distributions(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            steps = random_truncated_steps(rng)
            for metric, fn in COMPUTE.items():
                assert fn(steps) == pytest.approx(ORACLES[metric](steps), abs=1e-9)

    def test_ragged_step_sizes(self):
        # steps of different dist lengths inside one record
        steps = [make_step([0.9, 0.1]),
                 make_step([0.3, 0.3, 0.2, 0.1], tail=0.1, vocab=10),
                 make_step([1.0])]
        for metric, fn in COMPUTE.items():
            assert fn(steps) == pytest.approx(ORACLES[metric](steps), abs=1e-9)


class TestBounds:
    def test_ranges_on_random_full_distributions(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            steps = random_full_steps(rng)
            assert avg_log_p(steps) <= 1e-12
            assert 0.0 <= entropy(steps) <= math.log(max(s.vocab_size for s in steps)) + 1e-9
            assert 1.0 - 1e-9 <= dp(steps) <= max(s.vocab_size for s in steps) + 1e-9
            assert self_certainty(steps) >= -1e-12
            g = gini(steps)
            assert min(1.0 / s.vocab_size for s in steps) - 1e-12 <= g <= 1.0 + 1e-12

    def test_single_step_dp_equals_exp_entropy(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            steps = random_full_steps(rng, n_steps=1)
            assert dp(steps) == pytest.approx(math.exp(entropy(steps)), abs=1e-9)

    def test_jensen_dp_at_least_exp_entropy(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            steps = random_full_steps(rng)
            assert dp(steps) >= math.exp(entropy(steps)) - 1e-9

    def test_self_certainty_zero_iff_uniform(self):
        for v in (2, 3, 7, 16, 49):
            steps = [make_step([1.0 / v] * v)]
            assert abs(self_certainty(steps)) <= 1e-9


class TestPeakingMonotonicity:
    def test_moving_mass_to_peak(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            steps = random_full_steps(rng, n_steps=3)
            probs = [p for _, p in steps[1].dist]
            # move mass from a lower-probability token onto the peak
            j = int(rng.integers(1, len(probs)))
            delta = probs[j] * float(rng.uniform(0.1, 1.0))
            peaked = list(probs)
            peaked[0] += delta
            peaked[j] -= delta
            new_steps = [steps[0], make_step(peaked), steps[2]]
            assert gini(new_steps) >= gini(steps) - 1e-12
            assert self_certainty(new_steps) >= self_certainty(steps) - 1e-12
            assert entropy(new_steps) <= entropy(steps) + 1e-12
            assert dp(new_steps) <= dp(steps) + 1e-12


class TestOrientation:
    def test_enum(self):
        assert orientation("entropy") == "lower-is-confident"
        assert orientation("dp") == "lower-is-confident"
        for m in ("avg-log-p", "gini", "self-certainty"):
            assert orientation(m) == "higher-is-confident"

    def test_orient_values(self):
        assert orient("entropy", 1.2).oriented == -1.2
        assert orient("self-certainty", 2.0).oriented == 2.0
        assert orient("dp", 4.0).oriented == -4.0
        assert orient("avg-log-p", -0.5).oriented == -0.5

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            orient("perplexity", 1.0)

    def test_non_finite_raw(self):
        with pytest.raises(ValueError):
            orient("gini", float("inf"))


def record_with_scores(oriented: dict[str, float], tag=""):
    rec = GenerationRecord(question_id="q", combination=tag, embedding_model=tag,
                           prompt="", completion=f"answer {tag}", steps=[])
    rec.confidence = {
        m: confidence.ConfidenceScore(
            metric=m, raw=-v if m in confidence.LOWER_IS_CONFIDENT else v, oriented=v)
        for m, v in oriented.items()
    }
    return rec


class TestSelection:
    def test_argmax(self):
        records = [record_with_scores({"dp": s}, tag=str(i))
                   for i, s in enumerate([0.2, 0.9, 0.5])]
        _, index = select_most_confident(records, "dp")
        assert index == 1

    def test_tie_goes_to_first(self):
        records = [record_with_scores({"gini": 0.5}, tag=str(i)) for i in range(2)]
        _, index = select_most_confident(records, "gini")
        assert index == 0

    def test_lower_entropy_wins(self):
        a = score_record(GenerationRecord(
            "q", "a", "a", "", "x", [make_step([0.5, 0.5, 0.0, 0.0])]))
        b = score_record(GenerationRecord(
            "q", "b", "b", "", "y", [make_step([0.97, 0.01, 0.01, 0.01])]))
        winner, index = select_most_confident([a, b], "entropy")
        assert index == 1 and winner is b

    def test_empty_records(self):
        with pytest.raises(ValueError):
            select_most_confident([], "dp")

    def test_missing_score(self):
        rec = record_with_scores({"dp": 0.1})
        with pytest.raises(ValueError):
            select_most_confident([rec], "gini")

    def test_permutation_keeps_winner_identity(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            scores = rng.uniform(0, 1, size=n)
            records = [record_with_scores({"self-certainty": float(s)}, tag=str(i))
                       for i, s in enumerate(scores)]
            winner, _ = select_most_confident(records, "self-certainty")
            perm = list(rng.permutation(n))
            shuffled = [records[i] for i in perm]
            winner2, _ = select_most_confident(shuffled, "self-certainty")
            if len(set(scores)) == n:  # unique argmax
                assert winner2 is winner

    def test_matches_argmax_oracle(self):
        rng = np.random.default_rng(28)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            scores = [float(x) for x in rng.uniform(-2, 2, size=n)]
            records = [record_with_scores({"avg-log-p": s}, tag=str(i))
                       for i, s in enumerate(scores)]
            _, index = select_most_confident(records, "avg-log-p")
            assert index == argmax_oracle(scores)


class TestScoreRecord:
    def test_populates_all_metrics(self):
        record = generate(MockBackend(seed=4), "p", DecodeParams(seed=2))
        score_record(record)
        assert set(record.confidence) == set(METRICS)
        for m, score in record.confidence.items():
            expected = ORACLES[m](record.steps)
            assert score.raw == pytest.approx(expected, abs=1e-9)
            sign = -1 if m in confidence.LOWER_IS_CONFIDENT else 1
            assert score.oriented == sign * score.raw

    def test_empty_steps_rejected(self):
        for fn in COMPUTE.values():
            with pytest.raises(ValueError):
                fn([])


def reference_raw_scores(block: StepBlock) -> dict[str, float]:
    """One block's raw metrics with each mean a 1-D ``.sum() / n``: the
    single-block formula whose bits the stacked pass must keep."""
    probs, lens, tails, vocabs = block.probs, block.lens, block.tails, block.vocabs
    mask = np.arange(probs.shape[1])[None, :] < lens[:, None]
    p = np.where(mask, probs, 0.0)
    unlisted = vocabs - lens
    u = np.where(unlisted > 0, tails / np.maximum(unlisted, 1), 0.0)
    terms = np.where(p > 0.0, -p * np.log(np.maximum(p, confidence.EPSILON)), 0.0)
    ents = terms.sum(axis=1) + np.where(
        u > 0.0, -u * np.log(np.maximum(u, confidence.EPSILON)) * unlisted, 0.0)
    ginis = (p * p).sum(axis=1) + u * u * unlisted
    v = vocabs.astype(np.float64)
    listed = np.where(mask, np.log(np.maximum(probs, confidence.EPSILON) * v[:, None]),
                      0.0).sum(axis=1)
    tail = unlisted * np.log(v * np.maximum(u, confidence.EPSILON))
    certainties = -(listed + np.where(unlisted > 0, tail, 0.0)) / v
    n = len(block)
    return {
        "avg-log-p": float(np.log(np.maximum(block.prob, confidence.EPSILON)).sum() / n),
        "self-certainty": float(certainties.sum() / n),
        "gini": float(ginis.sum() / n),
        "entropy": float(ents.sum() / n),
        "dp": float(np.exp(ents).sum() / n),
    }


def wire_step(rng, one_hot=False, appended=False):
    """A step as the chat client parses it: 20 listed alternatives out of a
    32 000-token vocabulary, plus the chosen token when no entry matched."""
    if one_hot:
        return make_step([1.0] + [0.0] * 19, vocab=int(rng.choice([20, 32_000])))
    full = np.sort(rng.dirichlet([0.3] * 40))[::-1]
    listed = list(full[:21 if appended else 20])
    return make_step(listed, tail=max(0.0, 1.0 - sum(listed)), vocab=32_000,
                     chosen_index=20 if appended else 0)


def stacking_blocks(rng) -> list[StepBlock]:
    """Blocks of widths 34 (the mock), 20 and 21 (chat replies, 21 where a
    chosen token was appended), 1 to 12 steps each, some all one-hot."""
    blocks = [generate(MockBackend(seed=s), f"prompt {s}", DecodeParams(seed=s)).steps
              for s in range(6)]
    for n in range(1, 13):
        blocks.append(StepBlock.from_steps([wire_step(rng) for _ in range(n)]))
        blocks.append(StepBlock.from_steps(
            [wire_step(rng, appended=i == n // 2) for i in range(n)]))
        blocks.append(StepBlock.from_steps(
            [wire_step(rng, one_hot=rng.random() < 0.5) for _ in range(n)]))
    blocks.append(StepBlock.from_steps([wire_step(rng, one_hot=True) for _ in range(9)]))
    order = rng.permutation(len(blocks))  # interleave the widths
    return [blocks[i] for i in order]


def hexes(scores: dict[str, float]) -> dict[str, str]:
    return {m: v.hex() for m, v in scores.items()}  # tells -0.0 from 0.0


class TestStackedScores:
    def test_each_block_keeps_its_own_bits(self):
        blocks = stacking_blocks(np.random.default_rng(33))
        assert {b.probs.shape[1] for b in blocks} == {20, 21, 34}
        assert {len(b) for b in blocks} >= set(range(1, 13))
        assert any(float(b.tails.max()) > 0.0 for b in blocks)
        stacked = confidence.stacked_raw_scores(blocks)
        assert len(stacked) == len(blocks)
        for block, got in zip(blocks, stacked):
            assert got == confidence.raw_scores(block)
            assert hexes(got) == hexes(confidence.raw_scores(block)) \
                == hexes(reference_raw_scores(block))

    def test_one_hot_entropy_keeps_its_sign(self):
        block = StepBlock.from_steps([make_step([1.0, 0.0, 0.0])] * 3)
        alone = confidence.raw_scores(block)
        assert alone["entropy"].hex() == reference_raw_scores(block)["entropy"].hex()
        other = StepBlock.from_steps([make_step([0.5, 0.5, 0.0])] * 2)
        assert hexes(confidence.stacked_raw_scores([other, block])[1]) == hexes(alone)

    def test_a_lone_block_is_not_copied(self, monkeypatch):
        record = generate(MockBackend(seed=5), "p", DecodeParams(seed=5))
        want = reference_raw_scores(record.steps)

        def no_copy(*args, **kwargs):
            raise AssertionError("a lone block was concatenated")

        monkeypatch.setattr(confidence.np, "concatenate", no_copy)
        assert confidence.raw_scores(record.steps) == want

    def test_score_records_equals_score_record(self):
        backend = MockBackend(seed=6)
        records = [generate(backend, f"p{i}", DecodeParams(seed=i)) for i in range(5)]
        records.append(GenerationRecord("q", "w", "w", "", "x",
                                        [wire_step(np.random.default_rng(1))]))
        alone = [score_record(GenerationRecord(r.question_id, r.combination,
                                               r.embedding_model, r.prompt, r.completion,
                                               r.steps)).confidence for r in records]
        assert confidence.score_records(records) is records
        assert [r.confidence for r in records] == alone

    def test_an_empty_block_is_rejected_in_a_batch(self):
        good = StepBlock.from_steps([make_step([0.6, 0.4])])
        with pytest.raises(ValueError, match="at least one step"):
            confidence.stacked_raw_scores([good, []])
