import pytest

from multirag.errors import EmptyCompletionError
from multirag.generation import (
    DecodeParams,
    MockBackend,
    TokenStep,
    derive_seed,
    generate,
)


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


class TestMockBackend:
    def test_deterministic(self):
        params = DecodeParams(seed=5)
        r1 = generate(MockBackend(seed=1), "prompt text", params)
        r2 = generate(MockBackend(seed=1), "prompt text", params)
        assert r1.completion == r2.completion
        assert r1.steps == r2.steps

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
