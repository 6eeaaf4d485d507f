import re

import numpy as np
import pytest

from multirag.errors import EmptyCompletionError
from multirag.generation import (
    DecodeParams,
    MockBackend,
    StepBlock,
    TokenStep,
    derive_seed,
    generate,
)


def reference_mock(backend: MockBackend, prompt: str, params: DecodeParams):
    """The per-step mock loop the block replaced, as (token, prob, dist, tail) tuples."""
    def step(token, probs):
        assert probs.shape[0] == len(backend.vocab)
        order = np.argsort(-probs, kind="stable")
        dist = tuple((backend.vocab[i], float(probs[i])) for i in order)
        return token, float(dict(dist)[token]), dist, 0.0

    if backend.script is not None:
        return [step(tok, np.asarray(p, dtype=np.float64)) for tok, p in backend.script]
    rng = np.random.default_rng(derive_seed(backend.seed, str(params.seed), prompt))
    n_body = int(rng.integers(3, 9))
    index = {t: i for i, t in enumerate(backend.vocab)}
    body_tokens = [t for t in backend.vocab if t != "####"]
    steps = []
    for _ in range(min(n_body, max(params.max_tokens - 2, 1))):
        logits = rng.normal(0.0, backend.sharpness, size=len(backend.vocab))
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        chosen = max(body_tokens, key=lambda t: (probs[index[t]], -index[t]))
        steps.append(step(chosen, probs))
    if backend.answer_fn is not None:
        answer = str(backend.answer_fn(prompt))
    else:
        answer = str(int(rng.integers(0, 100)))
    for tok in ("####", *answer):
        peak = float(rng.uniform(0.55, 0.95))
        probs = np.full(len(backend.vocab), (1.0 - peak) / (len(backend.vocab) - 1))
        probs[index[tok]] = peak
        steps.append(step(tok, probs))
    return steps


def as_tuples(steps):
    return [(s.token, s.prob, s.dist, s.tail_mass) for s in steps]


class TestTokenStepInvariants:
    def good(self, **kw):
        base = dict(token="a", prob=0.6,
                    dist=(("a", 0.6), ("b", 0.4)), tail_mass=0.0, vocab_size=4)
        base.update(kw)
        return TokenStep(**base)

    def test_valid_step(self):
        step = self.good()
        assert step.prob == 0.6

    def test_probability_sum_enforced(self):
        with pytest.raises(ValueError):
            self.good(dist=(("a", 0.6), ("b", 0.6)))

    def test_tail_mass_counts_toward_sum(self):
        step = self.good(dist=(("a", 0.6), ("b", 0.2)), tail_mass=0.2)
        assert step.tail_mass == 0.2

    def test_sorted_descending_required(self):
        with pytest.raises(ValueError):
            self.good(dist=(("b", 0.4), ("a", 0.6)))

    def test_chosen_token_must_be_listed(self):
        with pytest.raises(ValueError):
            self.good(token="zz")

    def test_vocab_smaller_than_dist_rejected(self):
        with pytest.raises(ValueError):
            self.good(vocab_size=1)

    def test_zero_chosen_prob_rejected(self):
        with pytest.raises(ValueError):
            self.good(prob=0.0)

    def test_negative_tail_rejected(self):
        with pytest.raises(ValueError):
            self.good(dist=(("a", 0.8), ("b", 0.4)), tail_mass=-0.2)

    def test_nan_tail_rejected(self):
        with pytest.raises(ValueError):
            self.good(prob=1.0, dist=(("a", 1.0),), tail_mass=float("nan"), vocab_size=2)


class TestStepBlockRules:
    """Each TokenStep rule, raised from a block with its message."""

    def block(self, **kw):
        base = dict(table=("a", "b", "z"), chosen=[0], prob=[0.6], codes=[[0, 1]],
                    probs=[[0.6, 0.4]], lens=[2], tails=[0.0], vocabs=[4])
        base.update(kw)
        return StepBlock(**base)

    def test_valid(self):
        block = self.block(probs=[[0.6, 0.2]], tails=[0.2])
        assert len(block) == 1
        assert block[0] == TokenStep("a", 0.6, (("a", 0.6), ("b", 0.2)), 0.2, 4)

    @pytest.mark.parametrize("kw, message", [
        (dict(prob=[0.0]), "chosen-token probability 0.0 outside (0, 1]"),
        (dict(prob=[1.5]), "chosen-token probability 1.5 outside (0, 1]"),
        (dict(prob=[float("nan")]), "chosen-token probability nan outside (0, 1]"),
        (dict(prob=[1.0], codes=np.empty((1, 0)), probs=np.empty((1, 0)), lens=[0],
              tails=[1.0]), "step distribution is empty"),
        (dict(vocabs=[1]), "vocab size 1 smaller than distribution size 2"),
        (dict(probs=[[1.2, -0.2]]), "distribution probability outside [0, 1]"),
        (dict(probs=[[float("nan"), 0.4]]), "distribution probability outside [0, 1]"),
        (dict(prob=[0.4], probs=[[0.4, 0.6]]),
         "distribution must be sorted by descending probability"),
        (dict(probs=[[0.8, 0.4]], tails=[-0.2]), "tail mass -0.2 is negative or not finite"),
        (dict(tails=[float("nan")]), "tail mass nan is negative or not finite"),
        (dict(tails=[float("inf")]), "tail mass inf is negative or not finite"),
        (dict(probs=[[0.6, 0.6]]), "distribution plus tail sums to 1.2, not 1"),
        (dict(chosen=[2]), "chosen token 'z' not present in distribution"),
    ])
    def test_rule(self, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self.block(**kw)

    def test_first_broken_step_then_first_rule(self):
        # step 1 breaks the tail rule; step 2 breaks the earlier chosen-prob rule
        with pytest.raises(ValueError, match="tail mass"):
            self.block(chosen=[0, 0, 0], prob=[0.6, 0.6, 0.0],
                       codes=[[0, 1]] * 3, probs=[[0.6, 0.4], [0.8, 0.4], [0.6, 0.4]],
                       lens=[2] * 3, tails=[0.0, -0.2, 0.0], vocabs=[4] * 3)

    def test_padding_is_not_listed(self):
        # a padded second row: only its first entry is listed
        block = self.block(chosen=[0, 1], prob=[0.6, 1.0], codes=[[0, 1], [1, -1]],
                           probs=[[0.6, 0.4], [1.0, 0.0]], lens=[2, 1],
                           tails=[0.0, 0.0], vocabs=[4, 4])
        assert block[1].dist == (("b", 1.0),)

    def test_rounding_tail_clamped(self):
        block = self.block(tails=[-1e-7])
        assert block.tails[0] == 0.0 and block[0].tail_mass == 0.0

    def test_arrays_read_only(self):
        with pytest.raises(ValueError):
            self.block().probs[0, 0] = 0.5


class TestStepBlockSequence:
    def steps(self):
        return [TokenStep("a", 0.6, (("a", 0.6), ("b", 0.4)), 0.0, 4),
                TokenStep("c", 0.5, (("c", 0.5),), 0.5, 10),
                TokenStep("b", 0.2, (("a", 0.7), ("b", 0.2)), 0.1, 3)]

    def test_from_steps_round_trip(self):
        steps = self.steps()
        block = StepBlock.from_steps(steps)
        assert len(block) == 3
        assert list(block) == steps
        assert block[-1] == steps[-1]
        assert block[1:] == steps[1:]
        assert block.tokens == ["a", "c", "b"]
        assert block.probs.shape == (3, 2)
        with pytest.raises(IndexError):
            block[3]

    def test_equality(self):
        steps = self.steps()
        assert StepBlock.from_steps(steps) == StepBlock.from_steps(steps)
        assert StepBlock.from_steps(steps) == steps
        assert StepBlock.from_steps(steps) != StepBlock.from_steps(steps[:2])

    def test_empty(self):
        block = StepBlock.from_steps([])
        assert len(block) == 0 and not block and list(block) == []

    def test_record_packs_a_list(self):
        from multirag.generation import GenerationRecord
        record = GenerationRecord("q", "", "", "p", "c", self.steps())
        assert isinstance(record.steps, StepBlock)
        assert list(record.steps) == self.steps()


class TestMockMatchesPerStepLoop:
    """The block mock equals the per-step loop it replaced, bit for bit."""

    def test_seeded_prompts(self):
        rng = np.random.default_rng(5)
        backends = [MockBackend(seed=s) for s in (0, 1, 7)]
        backends.append(MockBackend(seed=3, answer_fn=lambda prompt: len(prompt) * 37))
        backends.append(MockBackend(seed=4, sharpness=0.01))
        backends.append(MockBackend(seed=6, sharpness=0.0))  # every body step a full tie
        for i in range(500):
            backend = backends[i % len(backends)]
            prompt = f"prompt {i} " + "x" * int(rng.integers(0, 40))
            params = DecodeParams(seed=int(rng.integers(0, 1000)),
                                  max_tokens=int(rng.choice([1, 3, 5, 256])))
            completion, block = backend.complete(prompt, params)
            assert as_tuples(block) == reference_mock(backend, prompt, params)
            assert completion == MockBackend._render([s[0] for s in
                                                      reference_mock(backend, prompt, params)])

    def test_scripts(self):
        rng = np.random.default_rng(6)
        vocab = ("x", "y", "z", "w")
        for _ in range(100):
            rows = rng.dirichlet([0.5] * len(vocab), size=int(rng.integers(1, 6)))
            rows[:, 1] = rows[:, 0]  # exact ties keep vocabulary order
            rows /= rows.sum(axis=1, keepdims=True)
            script = [(vocab[int(np.argmax(r))], r.tolist()) for r in rows]
            backend = MockBackend(vocab=vocab, script=script)
            _, block = backend.complete("p", DecodeParams())
            assert as_tuples(block) == reference_mock(backend, "p", DecodeParams())

    def test_script_must_cover_the_vocabulary(self):
        backend = MockBackend(vocab=("x", "y"), script=[("x", [1.0, 0.0, 0.0])])
        with pytest.raises(ValueError, match="does not cover the vocabulary"):
            backend.complete("p", DecodeParams())


class TestMockBackend:
    def test_deterministic(self):
        params = DecodeParams(seed=5)
        r1 = generate(MockBackend(seed=1), "prompt text", params)
        r2 = generate(MockBackend(seed=1), "prompt text", params)
        assert r1.completion == r2.completion
        assert r1.steps == r2.steps
        assert r1.steps != generate(MockBackend(seed=2), "prompt text", params).steps

    def test_prompt_changes_completion(self):
        backend = MockBackend(seed=1)
        params = DecodeParams(seed=5)
        a = generate(backend, "first prompt", params)
        b = generate(backend, "another prompt entirely", params)
        assert a.completion != b.completion

    def test_decode_seed_changes_completion(self):
        backend = MockBackend(seed=1)
        a = generate(backend, "prompt", DecodeParams(seed=1))
        b = generate(backend, "prompt", DecodeParams(seed=2))
        assert a.completion != b.completion

    def test_step_count_matches_script(self):
        probs = [0.0, 0.0, 1.0]
        probs_uniform = [1 / 3] * 3
        backend = MockBackend(vocab=("x", "y", "z"),
                              script=[("z", probs), ("x", probs_uniform),
                                      ("y", probs_uniform)])
        record = generate(backend, "p", DecodeParams())
        assert len(record.steps) == 3

    def test_one_hot_script_has_prob_one(self):
        backend = MockBackend(vocab=("x", "y"), script=[("x", [1.0, 0.0])] * 4)
        record = generate(backend, "p", DecodeParams())
        assert all(s.prob == 1.0 for s in record.steps)
        assert all(s.tail_mass == 0.0 for s in record.steps)

    def test_full_distributions_sum_to_one(self):
        record = generate(MockBackend(seed=3), "p", DecodeParams(seed=9))
        for step in record.steps:
            assert sum(p for _, p in step.dist) == pytest.approx(1.0, abs=1e-9)
            assert step.vocab_size == len(step.dist)

    def test_completion_carries_answer_marker(self):
        record = generate(MockBackend(seed=3), "p", DecodeParams(seed=9))
        assert "####" in record.completion

    def test_answer_fn_controls_final_answer(self):
        backend = MockBackend(seed=3, answer_fn=lambda prompt: 57)
        record = generate(backend, "p", DecodeParams(seed=9))
        assert record.completion.endswith("#### 57")

    def test_call_counter(self):
        backend = MockBackend(seed=1)
        for _ in range(3):
            generate(backend, "p", DecodeParams())
        assert backend.call_count == 3


class TestGenerate:
    def test_empty_completion_rejected(self):
        class Empty:
            def complete(self, prompt, params):
                return "", []

        with pytest.raises(EmptyCompletionError):
            generate(Empty(), "p", DecodeParams())

    def test_record_fields(self):
        record = generate(MockBackend(seed=2), "the prompt", DecodeParams(seed=1),
                          question_id="q7", combination="a,b", embedding_model="a")
        assert record.question_id == "q7"
        assert record.combination == "a,b"
        assert record.embedding_model == "a"
        assert record.prompt == "the prompt"
        assert len(record.steps) >= 1
        assert record.confidence == {}


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_part_boundaries_matter(self):
        assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")

    def test_master_seed_matters(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")
