import logging

import pytest

from multirag import pipeline
from multirag.confidence import LOWER_IS_CONFIDENT, METRICS
from multirag.embedding import DeterministicProvider
from multirag.errors import StageError
from multirag.generation import DecodeParams, MockBackend, derive_seed
from multirag.pipeline import (
    PipelineConfig,
    run_confident,
    run_mixture,
    run_vanilla,
)
from multirag.retrieval import PromptTemplate, assemble_prompt, score_all

from oracles import ORACLES, argmax_oracle, topk_oracle

TEMPLATE = PromptTemplate(
    text="Solve it.\n\n{{references}}Question: {{question}}\nEnd with #### and a number.")


def make_config(models=("det-a", "det-b", "det-c"), k=4, quotas=None, seed=0,
                metric="self-certainty", backend=None, concurrency=1):
    return PipelineConfig(
        providers=[DeterministicProvider(m, dim=16) for m in models],
        backend=backend or MockBackend(seed=seed),
        template=TEMPLATE, k=k, quotas=quotas, metric=metric,
        decode=DecodeParams(), seed=seed, concurrency=concurrency)


QUESTION = "Rosa has 5 boxes with 4 pens each. How many pens?"


class TestVanilla:
    def test_k_zero_gives_bare_prompt(self, corpus):
        config = make_config(k=0)
        res = run_vanilla("q1", QUESTION, "det-a", corpus, config)
        record = res.records[0]
        assert record.prompt == assemble_prompt(TEMPLATE, QUESTION, [])
        assert "References" not in record.prompt
        assert res.retrieved == {"det-a": []}

    def test_deterministic(self, corpus):
        a = run_vanilla("q1", QUESTION, "det-a", corpus, make_config(seed=3))
        b = run_vanilla("q1", QUESTION, "det-a", corpus, make_config(seed=3))
        assert a.answer == b.answer
        assert a.records[0].steps == b.records[0].steps
        assert a.retrieved == b.retrieved

    def test_retrieved_ids_match_topk_oracle(self, corpus):
        config = make_config(k=3, quotas=None)
        res = run_vanilla("q1", QUESTION, "det-b", corpus, config)
        row = score_all(DeterministicProvider("det-b", dim=16), QUESTION, corpus)
        want = topk_oracle(list(row.scores.items()), 3)
        assert res.retrieved["det-b"] == want

    def test_quota_selection(self, corpus):
        config = make_config(quotas={"qa": 3, "textbook": 1})
        res = run_vanilla("q1", QUESTION, "det-a", corpus, config)
        kinds = [corpus.get(c).kind for c in res.retrieved["det-a"]]
        assert kinds.count("qa") == 3 and kinds.count("textbook") == 1

    def test_confidence_scored(self, corpus):
        res = run_vanilla("q1", QUESTION, "det-a", corpus, make_config())
        record = res.records[0]
        assert len(record.confidence) == 5
        for metric, score in record.confidence.items():
            assert score.raw == pytest.approx(ORACLES[metric](record.steps), abs=1e-9)

    def test_one_generation(self, corpus):
        backend = MockBackend(seed=0)
        run_vanilla("q1", QUESTION, "det-a", corpus, make_config(backend=backend))
        assert backend.call_count == 1


class TestMixture:
    def test_single_model_equals_vanilla(self, corpus):
        config = make_config(seed=11)
        v = run_vanilla("q1", QUESTION, "det-a", corpus, config)
        m = run_mixture("q1", QUESTION, ["det-a"], corpus, config)
        assert m.answer == v.answer
        assert m.records[0].prompt == v.records[0].prompt

    def test_references_come_from_both_models(self, corpus):
        config = make_config(k=4, quotas=None)
        res = run_mixture("q1", QUESTION, ["det-a", "det-b"], corpus, config)
        ids = next(iter(res.retrieved.values()))
        # compare against an independent fuse over freshly scored rows
        from multirag.retrieval import fuse
        rows = [score_all(DeterministicProvider(m, dim=16), QUESTION, corpus)
                for m in ("det-a", "det-b")]
        want = fuse(rows, 4)
        assert ids == [c.chunk_id for c in want]
        assert {c.model_id for c in want} == {"det-a", "det-b"}

    def test_duplicate_candidates_appear_once(self, corpus):
        config = make_config(k=6, quotas=None)
        res = run_mixture("q1", QUESTION, ["det-a", "det-b", "det-c"], corpus, config)
        ids = next(iter(res.retrieved.values()))
        assert len(ids) == len(set(ids))
        prompt = res.records[0].prompt
        for i, cid in enumerate(ids, start=1):
            assert prompt.count(f"[{i}] {corpus.get(cid).text}") == 1

    def test_one_generation(self, corpus):
        backend = MockBackend(seed=0)
        run_mixture("q1", QUESTION, ["det-a", "det-b"], corpus,
                    make_config(backend=backend))
        assert backend.call_count == 1

    def test_empty_subset_rejected(self, corpus):
        with pytest.raises(ValueError):
            run_mixture("q1", QUESTION, [], corpus, make_config())


class Counting(DeterministicProvider):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.embeds = 0

    def embed(self, texts):
        self.embeds += 1
        return super().embed(texts)


@pytest.mark.parametrize("run", [run_mixture, run_confident])
def test_repeated_model_rejected_before_any_work(corpus, run):
    backend = MockBackend(seed=0)
    config = PipelineConfig(
        providers=[Counting(m, dim=16) for m in ("det-a", "det-b", "det-c")],
        backend=backend, template=TEMPLATE)
    with pytest.raises(ValueError, match="'det-b' is listed more than once"):
        run("q1", QUESTION, ["det-b", "det-a", "det-b"], corpus, config)
    assert backend.call_count == 0
    assert [p.embeds for p in config.providers] == [0, 0, 0]


class TestConfident:
    def test_single_model_equals_vanilla(self, corpus):
        config = make_config(seed=13)
        v = run_vanilla("q1", QUESTION, "det-b", corpus, config)
        c = run_confident("q1", QUESTION, ["det-b"], corpus, config)
        assert c.answer == v.answer

    def test_exactly_n_generations(self, corpus):
        backend = MockBackend(seed=0)
        run_confident("q1", QUESTION, ["det-a", "det-b", "det-c"], corpus,
                      make_config(backend=backend))
        assert backend.call_count == 3

    def test_winner_matches_argmax_recomputation(self, corpus):
        for metric in ("self-certainty", "dp", "avg-log-p"):
            config = make_config(seed=17, metric=metric)
            res = run_confident("q1", QUESTION, ["det-a", "det-b", "det-c"],
                                corpus, config)
            sign = -1 if metric in LOWER_IS_CONFIDENT else 1
            oriented = [sign * ORACLES[metric](r.steps) for r in res.records]
            assert res.winner_index == argmax_oracle(oriented)
            assert res.answer == res.records[res.winner_index].completion

    def test_subset_order_does_not_matter(self, corpus):
        config = make_config(seed=19)
        a = run_confident("q1", QUESTION, ["det-a", "det-b", "det-c"], corpus, config)
        b = run_confident("q1", QUESTION, ["det-c", "det-a", "det-b"], corpus, config)
        assert a.answer == b.answer
        assert [r.embedding_model for r in a.records] == \
            [r.embedding_model for r in b.records]

    def drop_det_b(self, corpus, caplog, memo):
        # fail exactly one model, identified by its derived decode seed
        bad_seed = derive_seed(0, "gen", "q1", "det-b")

        class FailOne(MockBackend):
            def complete(self, prompt, params):
                if params.seed == bad_seed:
                    self.call_count += 1
                    raise RuntimeError("backend down")
                return super().complete(prompt, params)

        backend = FailOne(seed=0)
        config = make_config(backend=backend)
        with caplog.at_level(logging.WARNING, logger="multirag.pipeline"):
            res = run_confident("q1", QUESTION, ["det-a", "det-b", "det-c"], corpus, config,
                                memo)
        assert [r.embedding_model for r in res.records] == ["det-a", "det-c"]
        assert all(set(r.confidence) == set(METRICS) for r in res.records)
        assert [r.getMessage() for r in caplog.records] == [
            "dropping model det-b for question q1: "
            "stage 'generation' failed: backend down"]

    def test_failed_generation_dropped(self, corpus, caplog):
        self.drop_det_b(corpus, caplog, None)

    def test_failed_generation_dropped_from_a_collecting_memo(self, corpus, caplog):
        self.drop_det_b(corpus, caplog, pipeline.collecting_memo([]))

    def test_all_failed_raises_stage_error(self, corpus):
        class Dead(MockBackend):
            def complete(self, prompt, params):
                raise RuntimeError("backend down")

        with pytest.raises(StageError):
            run_confident("q1", QUESTION, ["det-a", "det-b"], corpus,
                          make_config(backend=Dead()))

    def test_concurrent_fanout_matches_sequential(self, corpus):
        seq = run_confident("q1", QUESTION, ["det-a", "det-b", "det-c"], corpus,
                            make_config(seed=23, concurrency=1))
        par = run_confident("q1", QUESTION, ["det-a", "det-b", "det-c"], corpus,
                            make_config(seed=23, concurrency=4))
        assert seq.answer == par.answer
        assert [r.completion for r in seq.records] == \
            [r.completion for r in par.records]

    def test_memoized_runs_are_reused_without_threads(self, corpus, monkeypatch):
        backend = MockBackend(seed=29)
        config = make_config(backend=backend, concurrency=4)
        memo: dict = {}
        runs = [run_vanilla("q1", QUESTION, mid, corpus, config, memo)
                for mid in ("det-a", "det-b", "det-c")]

        def no_threads(*args, **kwargs):
            raise AssertionError("a memoized run started a thread pool")

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_threads)
        res = run_confident("q1", QUESTION, ["det-c", "det-a", "det-b"], corpus, config, memo)
        assert backend.call_count == 3
        assert [id(r) for r in res.records] == [id(r.records[0]) for r in runs]

    def test_a_plain_memo_scores_each_answer_at_once(self, corpus):
        config = make_config(seed=31)
        memo: dict = {}
        runs = [run_vanilla("q1", QUESTION, "det-a", corpus, config, memo),
                run_mixture("q1", QUESTION, ["det-a", "det-b"], corpus, config, memo)]
        assert all(set(r.records[0].confidence) == set(METRICS) for r in runs)

    def test_a_collecting_memo_scores_when_asked(self, corpus):
        config = make_config(seed=31)
        unscored: list = []
        memo = pipeline.collecting_memo(unscored)
        runs = [run_vanilla("q1", QUESTION, "det-a", corpus, config, memo),
                run_mixture("q1", QUESTION, ["det-a", "det-b"], corpus, config, memo)]
        assert unscored == [r.records[0] for r in runs]
        assert all(not r.records[0].confidence for r in runs)
        pipeline.score_collected(memo)
        assert unscored == []
        fresh = run_mixture("q1", QUESTION, ["det-a", "det-b"], corpus, make_config(seed=31))
        assert runs[1].records[0].confidence == fresh.records[0].confidence
        confident = run_confident("q1", QUESTION, ["det-a", "det-b"], corpus, config, memo)
        assert set(confident.records[1].confidence) == set(METRICS) and unscored == []

    def test_generate_calls_match_the_backend_count(self, corpus, monkeypatch):
        """A traced benchmark counts ``pipeline.generate`` calls against the backend's."""
        from multirag import evaluation

        calls = []
        generate = pipeline.generate

        def counting(*args, **kwargs):
            calls.append(kwargs["embedding_model"])
            return generate(*args, **kwargs)

        monkeypatch.setattr(pipeline, "generate", counting)
        config = make_config(models=("det-a", "det-b", "det-c", "det-d"))
        item = evaluation.QAItem("q1", QUESTION, "20")
        evaluation.run_sweep(corpus, [item], config, ["vanilla", "mixture", "confident"],
                             [2, 3, 4])
        assert len(calls) == config.backend.call_count == 16
        ask = make_config(models=("det-a", "det-b", "det-c", "det-d"))
        run_confident("cli-question", QUESTION, ask.model_ids, corpus, ask)
        assert len(calls) - 16 == ask.backend.call_count == 4

    def test_unknown_model_is_stage_annotated(self, corpus):
        with pytest.raises(StageError):
            run_vanilla("q1", QUESTION, "det-zz", corpus, make_config())
