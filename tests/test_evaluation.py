import csv
import json

import numpy as np
import pytest

from multirag import retrieval
from multirag.confidence import METRICS, ConfidenceScore
from multirag.embedding import DeterministicProvider
from multirag.evaluation import (
    QAItem,
    _gaussian_smooth,
    aggregate,
    cdf_report,
    empirical_cdf,
    extract_answer,
    gold_value,
    is_correct,
    load_gold,
    model_combinations,
    render_tables,
    run_sweep,
    vanilla_records_with_correctness,
    write_report_files,
)
from multirag.generation import DecodeParams, GenerationRecord, MockBackend
from multirag.pipeline import (
    PipelineConfig,
    QuestionResult,
    run_confident,
    run_mixture,
    run_vanilla,
)
from multirag.retrieval import PromptTemplate

from conftest import build_corpus


class TestExtractAnswer:
    def test_marker(self):
        assert extract_answer("so the total is 42. #### 42") == "42"

    def test_last_marker_wins(self):
        assert extract_answer("#### 1 no wait #### 7") == "7"

    def test_last_numeric_literal(self):
        assert extract_answer("The answer is 3.5 apples") == "3.5"

    def test_no_answer(self):
        assert extract_answer("no numbers here") is None

    def test_commas_stripped(self):
        assert extract_answer("#### 1,234") == "1234"
        assert extract_answer("totals 12,345 overall") == "12345"

    def test_marker_with_empty_tail(self):
        assert extract_answer("dangling marker ####   ") is None

    def test_negative_number(self):
        assert extract_answer("the delta is -7 degrees") == "-7"


class TestIsCorrect:
    def test_exact(self):
        assert is_correct("42", "42")

    def test_relative_tolerance(self):
        assert is_correct("42.0000001", "42")
        assert not is_correct("42.1", "42")

    def test_wrong(self):
        assert not is_correct("41", "42")

    def test_none_is_incorrect(self):
        assert not is_correct(None, "42")

    def test_string_fallback(self):
        assert is_correct("north", " north ")
        assert not is_correct("north", "south")

    def test_gold_value_extracts_marker(self):
        item = QAItem(id="x", question="?", answer="reasoning ... #### 12")
        assert gold_value(item) == "12"


def result_with_answer(qid, pipeline, answer, model="m1"):
    rec = GenerationRecord(question_id=qid, combination=model, embedding_model=model,
                           prompt="", completion=answer, steps=[])
    return QuestionResult(question_id=qid, pipeline=pipeline, answer=answer,
                          winner_index=None, records=[rec], retrieved={model: []})


def gold(n):
    return [QAItem(id=f"q{i}", question=f"Q{i}", answer=str(i)) for i in range(n)]


class TestAggregate:
    def test_simple_accuracy(self):
        items = gold(4)
        results = [result_with_answer(f"q{i}", "vanilla",
                                      f"#### {i if i < 3 else 99}") for i in range(4)]
        report = aggregate(results, items)
        assert report.vanilla_rag["per_model"]["m1"] == pytest.approx(0.75)

    def test_missing_gold_rejected(self):
        with pytest.raises(ValueError):
            aggregate([result_with_answer("nope", "vanilla", "#### 1")], gold(2))

    def test_avg_by_n(self):
        items = gold(1)
        results = []
        for combo, correct in (("a,b", True), ("c,d", False)):
            answer = "#### 0" if correct else "#### 9"
            rec_a = GenerationRecord("q0", combo, combo.split(",")[0], "", answer, [])
            rec_b = GenerationRecord("q0", combo, combo.split(",")[1], "", answer, [])
            results.append(QuestionResult("q0", "mixture", answer, None,
                                          [rec_a, rec_b], {combo: []}))
        # patch the records so the combo tag resolves
        report = aggregate(results, items)
        assert report.mixture["avg_by_n"]["2"] == pytest.approx(0.5)
        assert report.mixture["per_combination"] == {"a,b": 1.0, "c,d": 0.0}

    def test_unknown_pipeline_rejected(self):
        res = result_with_answer("q0", "bogus", "#### 0")
        with pytest.raises(ValueError):
            aggregate([res], gold(1))


def sweep_setup(n_questions=6, models=("det-a", "det-b", "det-c"), seed=0):
    corpus = build_corpus()
    config = PipelineConfig(
        providers=[DeterministicProvider(m, dim=16) for m in models],
        backend=MockBackend(seed=seed),
        template=PromptTemplate(text="{{references}}Q: {{question}}"),
        k=2, quotas=None, metric="self-certainty",
        decode=DecodeParams(), seed=seed)
    items = [QAItem(id=f"q{i}", question=f"Morgan counts {i} and {i + 1} stones.",
                    answer=str(2 * i + 1)) for i in range(n_questions)]
    return corpus, config, items


class TestSweep:
    def test_result_shape(self):
        corpus, config, items = sweep_setup(n_questions=3)
        results = run_sweep(corpus, items, config,
                            pipelines=["vanilla", "mixture", "confident"],
                            sizes=[2, 3])
        combos = model_combinations(config.model_ids, [2, 3])
        per_question = 1 + 3 + len(combos) + len(combos)
        assert len(results) == 3 * per_question

    def test_combination_enumeration_order(self):
        combos = model_combinations(["a", "b", "c", "d"], [2, 3, 4])
        tags = [",".join(c) for c in combos]
        assert tags[:6] == ["a,b", "a,c", "a,d", "b,c", "b,d", "c,d"]
        assert tags[6:10] == ["a,b,c", "a,b,d", "a,c,d", "b,c,d"]
        assert tags[-1] == "a,b,c,d"

    def test_confident_reuse_equals_fresh_run(self):
        corpus, config, items = sweep_setup(n_questions=2)
        results = run_sweep(corpus, items, config,
                            pipelines=["vanilla", "confident"], sizes=[2])
        fresh = run_confident(items[0].id, items[0].question,
                              ["det-a", "det-b"], corpus, config)
        reused = [r for r in results
                  if r.pipeline == "confident" and r.question_id == items[0].id
                  and [rec.embedding_model for rec in r.records] == ["det-a", "det-b"]]
        assert len(reused) == 1
        assert reused[0].answer == fresh.answer
        assert reused[0].winner_index == fresh.winner_index

    def test_concurrency_is_result_invariant(self):
        corpus, config, items = sweep_setup(n_questions=4)
        seq = run_sweep(corpus, items, config,
                        pipelines=["vanilla"], sizes=[2])
        config.concurrency = 4
        par = run_sweep(corpus, items, config,
                        pipelines=["vanilla"], sizes=[2])
        assert [r.answer for r in seq] == [r.answer for r in par]

    def test_aggregate_structure(self):
        corpus, config, items = sweep_setup(n_questions=4)
        results = run_sweep(corpus, items, config,
                            pipelines=["vanilla", "mixture", "confident"],
                            sizes=[2, 3])
        report = aggregate(results, items)
        assert report.vanilla_llm is not None
        assert set(report.vanilla_rag["per_model"]) == set(config.model_ids)
        assert report.vanilla_rag["vs_vanilla_llm"] == pytest.approx(
            report.vanilla_rag["avg"] - report.vanilla_llm)
        assert set(report.confident) == set(METRICS)
        for metric_section in report.confident.values():
            assert metric_section["vs_vanilla_rag"] == pytest.approx(
                metric_section["avg"] - report.vanilla_rag["avg"])
        # overall avg is the mean over every combination, all sizes pooled
        for section in [report.mixture, *report.confident.values()]:
            assert section["avg"] == pytest.approx(
                sum(section["per_combination"].values())
                / len(section["per_combination"]))
        assert len(report.questions) == 4

    @pytest.mark.parametrize("quotas", [None, {"qa": 2, "textbook": 1}])
    def test_rows_scored_once_and_shared(self, monkeypatch, quotas):
        corpus, config, items = sweep_setup(n_questions=3)
        config.quotas = quotas
        calls = []
        score_all = retrieval.score_all

        def counting(provider, question, corpus, question_id=""):
            calls.append((question_id, provider.model_id))
            return score_all(provider, question, corpus, question_id=question_id)

        monkeypatch.setattr(retrieval, "score_all", counting)
        results = run_sweep(corpus, items, config, pipelines=["vanilla", "mixture"],
                            sizes=[2, 3], include_vanilla_llm=False)
        assert sorted(calls) == sorted(
            (item.id, mid) for item in items for mid in config.model_ids)

        combos = model_combinations(config.model_ids, [2, 3])
        fresh = []
        for item in items:
            fresh += [run_vanilla(item.id, item.question, mid, corpus, config)
                      for mid in config.model_ids]
            fresh += [run_mixture(item.id, item.question, list(c), corpus, config)
                      for c in combos]
        assert [(r.question_id, r.pipeline, r.retrieved, r.records[0].prompt, r.answer)
                for r in results] == [
               (r.question_id, r.pipeline, r.retrieved, r.records[0].prompt, r.answer)
               for r in fresh]

    def test_concurrent_report_byte_identical(self, tmp_path):
        def report_bytes(concurrency):
            corpus, config, items = sweep_setup(n_questions=6)
            config.concurrency = concurrency
            results = run_sweep(corpus, items, config,
                                pipelines=["vanilla", "mixture", "confident"], sizes=[2, 3])
            outdir = tmp_path / f"c{concurrency}"
            write_report_files(outdir, aggregate(results, items), {}, config.model_ids)
            return (outdir / "report.json").read_bytes()

        assert report_bytes(2) == report_bytes(1)

    def test_detail_supports_recount(self):
        corpus, config, items = sweep_setup(n_questions=5)
        results = run_sweep(corpus, items, config, pipelines=["vanilla"], sizes=[])
        report = aggregate(results, items)
        for mid in config.model_ids:
            flags = [q["vanilla"][mid]["correct"] for q in report.questions]
            assert report.vanilla_rag["per_model"][mid] == pytest.approx(
                sum(flags) / len(flags))


class TestCdf:
    def records(self, scores, metric="self-certainty"):
        out = []
        for i, s in enumerate(scores):
            rec = GenerationRecord(f"q{i}", "m", "m", "", "#### 1", [])
            rec.confidence = {metric: ConfidenceScore(metric, float(s), float(s))}
            out.append(rec)
        return out

    def test_single_record(self):
        table = cdf_report(self.records([2.5]), "self-certainty")
        assert list(table.thresholds) == [2.5]
        assert list(table.raw) == [1.0]

    def test_known_fractions(self):
        fractions = empirical_cdf(np.array([1.0, 2.0, 3.0]),
                                  np.array([1.0, 2.0, 3.0]))
        assert fractions == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_nondecreasing_terminal_one(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            table = cdf_report(self.records(rng.normal(size=n)), "self-certainty")
            assert np.all(np.diff(table.raw) >= 0)
            assert table.raw[-1] == 1.0
            assert abs(table.smoothed[-1] - 1.0) <= 1e-6

    def test_csv_round_trip(self, tmp_path):
        table = cdf_report(self.records([0.1, 0.9, 0.4, 0.4], metric="dp"), "dp")
        path = tmp_path / "cdf_dp.csv"
        table.write_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["threshold", "raw_cdf", "smoothed_cdf"]
        parsed = [(float(a), float(b), float(c)) for a, b, c in rows[1:]]
        assert parsed == table.rows()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cdf_report([], "dp")

    def test_smoothing_sigma_zero_is_raw(self):
        table = cdf_report(self.records([1.0, 2.0, 5.0], metric="gini"),
                           "gini", sigma=0.0)
        assert np.array_equal(table.raw, table.smoothed)

    # repr of scipy.ndimage.gaussian_filter1d(x, sigma, mode="nearest") (scipy
    # 1.17.1); the σ = 2 case has a kernel radius of 8 on 5 points
    SCIPY_PINS = [
        (0.5, [0.0, 0.125, 0.375, 0.5, 0.875, 1.0],
         "[0.013405295902725448, 0.13837231276738327, 0.3617266366386432, "
         "0.52664567612874, 0.8482883576005755, 0.9865617209619324]"),
        (1.0, [0.05, 0.1, 0.1, 0.35, 0.6, 0.65, 0.9, 0.95, 1.0, 1.0],
         "[0.06620129398341276, 0.1007609062426323, 0.18710517253194386, "
         "0.35384767096342745, 0.540122631547842, 0.697481150682391, "
         "0.8387194662182946, 0.9350990528152765, 0.9808976311582427, "
         "0.9968104167483466]"),
        (1.7, [0.0, 0.1, 0.2, 0.2, 0.3, 0.45, 0.5, 0.7, 0.8, 0.9, 1.0, 1.0],
         "[0.059206239778191574, 0.10982092017042194, 0.17360132489492458, "
         "0.24822708878760624, 0.3355901600932848, 0.43704147479158084, "
         "0.5495578914505999, 0.6657160957511341, 0.7749636591253507, "
         "0.8664005637128027, 0.9324936948258518, 0.9721011285530696]"),
        (2.0, [0.2, 0.4, 0.6, 0.8, 1.0],
         "[0.3532417022961427, 0.46549326892006515, 0.6000000000000001, "
         "0.7345067310799349, 0.8467582977038575]"),
    ]

    @pytest.mark.parametrize("sigma,x,expected", SCIPY_PINS)
    def test_smoother_matches_pinned_scipy_bits(self, sigma, x, expected):
        assert repr(_gaussian_smooth(np.array(x), sigma).tolist()) == expected

    def test_report_smooths_with_the_kernel(self):
        table = cdf_report(self.records([0.3, 1.0, 1.2, 2.9, 3.0]), "self-certainty",
                           sigma=1.7)
        assert np.array_equal(table.smoothed, _gaussian_smooth(table.raw, 1.7))


class TestGoldLoader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(json.dumps({"id": "q1", "question": "?", "answer": "3"}) + "\n")
        items = load_gold(path)
        assert items == [QAItem(id="q1", question="?", answer="3")]

    def test_bad_line(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text("{}\n")
        from multirag.errors import MalformedLineError
        with pytest.raises(MalformedLineError):
            load_gold(path)

    def test_repeated_id_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        rows = [{"id": "q0", "question": "One?", "answer": "1"},
                {"id": "q0", "question": "Two?", "answer": "2"},
                {"id": "q1", "question": "Three?", "answer": "3"}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        from multirag.errors import MalformedLineError
        with pytest.raises(MalformedLineError) as exc:
            load_gold(path)
        assert exc.value.line_no == 2
        assert "duplicate gold id 'q0'" in str(exc.value)

    @pytest.mark.parametrize("question", [5, None, "", "  ", ["x"], {"q": "x"}])
    def test_question_must_be_a_non_empty_string(self, tmp_path, question):
        path = tmp_path / "gold.jsonl"
        path.write_text(json.dumps({"id": "q1", "question": "?", "answer": "3"}) + "\n"
                        + json.dumps({"id": "q2", "question": question, "answer": "4"}) + "\n")
        from multirag.errors import MalformedLineError
        with pytest.raises(MalformedLineError) as exc:
            load_gold(path)
        assert exc.value.line_no == 2
        assert "gold question for 'q2' must be a non-empty string" in str(exc.value)


class TestRenderTables:
    def test_sections_present(self):
        corpus, config, items = sweep_setup(n_questions=3)
        results = run_sweep(corpus, items, config,
                            pipelines=["vanilla", "mixture", "confident"], sizes=[2])
        report = aggregate(results, items).to_dict()
        text = render_tables(report, config.model_ids)
        assert "Emb1 = det-a" in text
        assert "Vanilla LLM and vanilla RAG" in text
        assert "Mixture-embedding RAG" in text
        assert "Confident RAG" in text
        assert "vs Vanilla RAG" in text

    def test_vanilla_records_helper(self):
        corpus, config, items = sweep_setup(n_questions=2)
        results = run_sweep(corpus, items, config, pipelines=["vanilla"], sizes=[])
        scored = vanilla_records_with_correctness(results, items)
        assert len(scored) == 2 * len(config.model_ids)
        assert all(isinstance(flag, bool) for _, flag in scored)
