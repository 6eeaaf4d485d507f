import csv
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest

from multirag import confidence, pipeline, retrieval
from multirag.confidence import METRICS, ConfidenceScore, select_most_confident
from multirag.embedding import DeterministicProvider
from multirag.evaluation import (
    QAItem,
    _gaussian_smooth,
    _gold_columns,
    aggregate,
    cdf_report,
    empirical_cdf,
    extract_answer,
    gold_value,
    grade,
    is_correct,
    json_bytes,
    load_gold,
    model_combinations,
    render_tables,
    run_sweep,
    vanilla_records_with_correctness,
    write_report_files,
)
from multirag.corpus import decode_text, jsonl_values, read_bytes
from multirag.errors import MalformedLineError, StageError
from multirag.generation import DecodeParams, GenerationRecord, MockBackend, derive_seed
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


def graded_answer(prompt: str) -> str:
    """A final number that is right for some prompts and wrong for others.

    The gold answer of "Morgan counts i and i + 1 stones." is 2i + 1. The
    answer is right when i plus the pears of the retrieved qa chunks
    ("Sam had n pears") is even, so it depends on the question and on what
    each model retrieved.
    """
    i = int(re.search(r"Morgan counts (\d+) and", prompt).group(1))
    pears = sum(map(int, re.findall(r"Sam had (\d+) pears", prompt)))
    return str(2 * i + 1 if (i + pears) % 2 == 0 else 2 * i + 2)


def sweep_setup(n_questions=6, models=("det-a", "det-b", "det-c"), seed=0, answer_fn=None):
    corpus = build_corpus()
    config = PipelineConfig(
        providers=[DeterministicProvider(m, dim=16) for m in models],
        backend=MockBackend(seed=seed, answer_fn=answer_fn),
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
                            pipelines=["vanilla", "confident"], sizes=[1, 2, 3])
        reused = [r for r in results if r.pipeline == "confident"]
        combos = model_combinations(config.model_ids, [1, 2, 3])
        assert len(reused) == len(items) * len(combos)
        for res, (item, combo) in zip(reused, [(i, c) for i in items for c in combos]):
            fresh = run_confident(item.id, item.question, list(combo), corpus, config)
            assert res.question_id == item.id
            assert res.answer == fresh.answer
            assert res.winner_index == fresh.winner_index
            assert res.retrieved == fresh.retrieved
            assert [r.embedding_model for r in res.records] == list(combo)
            for got, want in zip(res.records, fresh.records, strict=True):
                assert got.completion == want.completion
                assert got.steps == want.steps

    @pytest.mark.parametrize("pipelines", [["confident"], ["vanilla", "mixture", "confident"]])
    def test_failed_generation_aborts_the_sweep(self, pipelines):
        # run_confident alone would drop the failed model; the sweep must not
        corpus, config, items = sweep_setup(n_questions=3)
        bad_seed = derive_seed(config.seed, "gen", items[1].id, "det-b")

        class FailOne(MockBackend):
            def complete(self, prompt, params):
                if params.seed == bad_seed:
                    raise RuntimeError("backend down")
                return super().complete(prompt, params)

        config.backend = FailOne(seed=0)
        with pytest.raises(StageError) as exc:
            run_sweep(corpus, items, config, pipelines=pipelines, sizes=[2, 3])
        assert exc.value.stage == "generation"

    @pytest.mark.parametrize("pipelines, per_question", [
        (["vanilla", "mixture", "confident"], 16), (["mixture"], 12), (["confident"], 5),
    ], ids=["all", "mixture", "confident"])
    def test_each_question_is_scored_in_one_pass(self, monkeypatch, pipelines, per_question):
        models = ("det-a", "det-b", "det-c", "det-d")
        passes, singles = [], []
        score_records, score_record = confidence.score_records, confidence.score_record

        def one_pass(records):
            assert all(not r.confidence for r in records)
            passes.append(len(records))
            return score_records(records)

        def single(record):
            singles.append(record)
            return score_record(record)

        def facts(results):
            return [(r.question_id, r.pipeline, r.answer, r.winner_index, r.retrieved,
                     [(rec.embedding_model, rec.completion, rec.confidence)
                      for rec in r.records]) for r in results]

        monkeypatch.setattr(confidence, "score_records", one_pass)
        monkeypatch.setattr(confidence, "score_record", single)
        corpus, config, items = sweep_setup(n_questions=3, models=models)
        results = run_sweep(corpus, items, config, pipelines=pipelines, sizes=[2, 3, 4])
        assert passes == [per_question] * 3 and singles == []
        assert all(set(rec.confidence) == set(METRICS) for r in results for rec in r.records)

        # the parent's order of work: a plain memo scores each answer at once
        monkeypatch.setattr(pipeline, "collecting_memo", lambda unscored: {})
        passes.clear()
        corpus, config, items = sweep_setup(n_questions=3, models=models)
        at_once = run_sweep(corpus, items, config, pipelines=pipelines, sizes=[2, 3, 4])
        assert len(singles) == 3 * per_question and passes == [1] * (3 * per_question)
        assert facts(results) == facts(at_once)

    @pytest.mark.parametrize("fail_at", [1, 2, 6, 9, 16, 21, 40])
    def test_a_failed_generation_aborts_after_the_same_calls(self, monkeypatch, fail_at):
        """Scoring later calls no backend: the same call fails, after as many calls."""
        class FailAt(MockBackend):
            def complete(self, prompt, params):
                if self.call_count + 1 == fail_at:
                    self.call_count += 1
                    raise RuntimeError(f"backend down at call {fail_at}")
                return super().complete(prompt, params)

        def abort():
            corpus, config, items = sweep_setup(n_questions=3, models=("det-a", "det-b",
                                                                       "det-c", "det-d"))
            config.backend = FailAt(seed=0)
            with pytest.raises(StageError) as exc:
                run_sweep(corpus, items, config,
                          pipelines=["vanilla", "mixture", "confident"], sizes=[2, 3, 4])
            return exc.value.stage, str(exc.value), config.backend.call_count

        collected = abort()
        monkeypatch.setattr(pipeline, "collecting_memo", lambda unscored: {})
        assert collected == abort() == (
            "generation", f"stage 'generation' failed: backend down at call {fail_at}",
            fail_at)

    def test_one_generation_per_question_and_flow(self):
        models = ("det-a", "det-b", "det-c", "det-d")
        corpus, config, items = sweep_setup(n_questions=3, models=models)
        run_sweep(corpus, items, config,
                  pipelines=["vanilla", "mixture", "confident"], sizes=[2, 3, 4])
        combos = model_combinations(config.model_ids, [2, 3, 4])
        assert 1 + len(models) + len(combos) == 16
        assert config.backend.call_count == len(items) * 16

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

    @pytest.mark.parametrize("include_llm", [False, True], ids=["rag", "llm"])
    @pytest.mark.parametrize("pipelines", [
        ["vanilla"], ["mixture"], ["confident"], ["vanilla", "mixture", "confident"],
    ], ids=["vanilla", "mixture", "confident", "all"])
    def test_detail_supports_recount(self, pipelines, include_llm):
        corpus, config, items = sweep_setup(n_questions=5, answer_fn=graded_answer)
        results = run_sweep(corpus, items, config, pipelines=pipelines, sizes=[2, 3],
                            include_vanilla_llm=include_llm)
        report = aggregate(results, items)
        qs = report.questions
        assert [q["id"] for q in qs] == sorted(item.id for item in items)

        # every section grades some answers right and some wrong, so a flag
        # taken from the wrong record or result shows in the counts below
        sections = {"vanilla_llm": [q["vanilla_llm"] for q in qs if q["vanilla_llm"]]}
        for name in ("vanilla", "mixture"):
            sections[name] = [cell for q in qs for cell in q[name].values()]
        for metric in METRICS:
            sections[metric] = [cells[metric] for q in qs for cells in q["confident"].values()]
        for name, cells in sections.items():
            if cells:
                assert {cell["correct"] for cell in cells} == {True, False}, name

        def mean(flags):
            flags = list(flags)
            return sum(flags) / len(flags)

        def close(got, want):
            assert (got is None) == (want is None)
            if want is not None:
                assert abs(got - want) <= 1e-12

        def delta(acc, base):
            return None if base is None else acc - base

        llm = mean(q["vanilla_llm"]["correct"] for q in qs) if include_llm else None
        assert report.vanilla_llm == llm
        assert all((q["vanilla_llm"] is None) != include_llm for q in qs)

        rag = None
        if "vanilla" in pipelines:
            per_model = {mid: mean(q["vanilla"][mid]["correct"] for q in qs)
                         for mid in config.model_ids}
            assert report.vanilla_rag["per_model"] == per_model
            rag = mean(per_model.values())
            close(report.vanilla_rag["avg"], rag)
            close(report.vanilla_rag["vs_vanilla_llm"], delta(rag, llm))
        else:
            assert report.vanilla_rag is None
            assert all(q["vanilla"] == {} for q in qs)

        tags = [",".join(c) for c in model_combinations(config.model_ids, [2, 3])]

        def check_combo(section, cell):
            per_combo = {t: mean(cell(q, t)["correct"] for q in qs) for t in tags}
            assert section["per_combination"] == per_combo
            assert sorted(section["avg_by_n"]) == ["2", "3"]
            for n, acc in section["avg_by_n"].items():
                close(acc, mean(a for t, a in per_combo.items()
                                if len(t.split(",")) == int(n)))
            overall = mean(per_combo.values())
            close(section["avg"], overall)
            close(section["vs_vanilla_llm"], delta(overall, llm))
            close(section["vs_vanilla_rag"], delta(overall, rag))

        if "mixture" in pipelines:
            check_combo(report.mixture, lambda q, t: q["mixture"][t])
        else:
            assert report.mixture is None
            assert all(q["mixture"] == {} for q in qs)
        if "confident" in pipelines:
            assert set(report.confident) == set(METRICS)
            for metric in METRICS:
                check_combo(report.confident[metric],
                            lambda q, t, metric=metric: q["confident"][t][metric])
        else:
            assert report.confident is None
            assert all(q["confident"] == {} for q in qs)

        # each cell's flag is its own result graded once, or the confident winner's
        by_id = {item.id: item for item in items}
        detail = {q["id"]: q for q in qs}
        for res in results:
            q, item = detail[res.question_id], by_id[res.question_id]
            tag = ",".join(r.embedding_model for r in res.records)
            if res.pipeline != "confident":
                cell = (q["vanilla_llm"] if res.pipeline == "vanilla-llm"
                        else q[res.pipeline][tag])
                assert cell["correct"] == grade(res.answer, item)
                assert cell["answer_value"] == extract_answer(res.records[0].completion)
                continue
            for metric in METRICS:
                cell = q["confident"][tag][metric]
                winner, index = select_most_confident(res.records, metric)
                assert (cell["winner_index"], cell["winner_model"]) == (
                    index, winner.embedding_model)
                assert cell["correct"] == grade(winner.completion, item)
                assert cell["answer_value"] == extract_answer(winner.completion)


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

    @pytest.mark.parametrize("sigma", [100.5, 1e7, 1e308, float("inf"), float("nan"), -0.5])
    def test_sigma_out_of_range_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            cdf_report(self.records([1.0, 2.0]), "self-certainty", sigma=sigma)

    def test_largest_sigma_keeps_the_terminal_one(self):
        table = cdf_report(self.records([1.0, 2.0, 5.0]), "self-certainty", sigma=100)
        assert len(table.thresholds) == 101 + 401  # the tail outspans the 400-step radius
        assert abs(table.smoothed[-1] - 1.0) <= 1e-6

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


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def same(got, want) -> bool:
    """``got`` is ``want`` as JSON reads it back: a tuple as a list, and a
    float with its bits."""
    if isinstance(want, float):
        return type(got) is float and struct.pack("<d", got) == struct.pack("<d", want)
    if isinstance(want, (list, tuple)):
        return type(got) is list and len(got) == len(want) and all(map(same, got, want))
    if isinstance(want, dict):
        return (type(got) is dict and got.keys() == want.keys()
                and all(same(got[key], value) for key, value in want.items()))
    return type(got) is type(want) and got == want


def keys_sorted(value) -> bool:
    if isinstance(value, dict):
        return list(value) == sorted(value) and all(map(keys_sorted, value.values()))
    return not isinstance(value, list) or all(map(keys_sorted, value))


class TestReportWriter:
    """``json_bytes`` writes what reads back to its input, with sorted keys,
    and the text of ``json.dumps(indent=2, sort_keys=True)`` where orjson
    refuses the input."""

    ALPHABET = ["a", "Z", "0", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f",
                "é", "ß", "中", "\u2028", "😀", "\ud800"]
    FLOATS = [0.0, -0.0, 1.5, -2.25e-300, 1e308, 0.1 + 0.2, 5e-324, 1e-7, 1e-05, 1e16,
              -1.5e22, np.float64(0.3), np.float64(-1e-300)]

    def text(self, rng):
        return "".join(rng.choice(self.ALPHABET, size=int(rng.integers(0, 6))).tolist())

    def value(self, rng, depth):
        pick = int(rng.integers(0, 9 if depth < 4 else 6))
        if pick == 0:
            return self.text(rng)
        if pick == 1:
            return self.FLOATS[int(rng.integers(0, len(self.FLOATS)))]
        if pick == 2:
            return [True, False, None][int(rng.integers(0, 3))]
        if pick == 3:
            return int(rng.integers(-10**6, 10**6)) * 10**int(rng.integers(0, 30))
        if pick == 4:
            return float(rng.normal())
        if pick == 5:
            return [{}, [], ()][int(rng.integers(0, 3))]
        items = [self.value(rng, depth + 1) for _ in range(int(rng.integers(0, 5)))]
        if pick == 6:
            return items
        if pick == 7:
            return tuple(items)
        return {self.text(rng): item for item in items}

    def test_random_nested_values(self):
        rng = np.random.default_rng(51)
        paths = {"orjson": 0, "fallback": 0}
        for _ in range(400):
            obj = self.value(rng, 0)
            got = json_bytes(obj)
            back = json.loads(got)
            assert same(back, obj) and keys_sorted(back), got
            try:
                orjson.dumps(obj)
                paths["orjson"] += 1
            except orjson.JSONEncodeError:  # a lone surrogate, or an int beyond 64 bits
                paths["fallback"] += 1
                assert got == (dumps(obj) + "\n").encode("ascii")
        assert min(paths.values()) >= 50, paths

    def test_special_values(self):
        """json.dumps' text, but for the three documented departures."""
        for obj in [True, False, None, {}, [], (), "", 0, -1, 2**63, -2**63, 2**64 - 1,
                    2**70, -(10**35), -0.0, 1e-4, 0.1 + 0.2, 1e15, 1e-12, "\ud800",
                    {"": [[], {}, ()]}, {"k": {"nested": [None, True, -0.0]}},
                    {"k": {1: "int key"}}, {"\udfff": np.float64(0.3)}]:
            assert json_bytes(obj) == (dumps(obj) + "\n").encode("ascii"), obj
        assert json_bytes({"k": "é中😀\u2028"}) == '{\n  "k": "é中😀\u2028"\n}\n'.encode()
        assert json_bytes([1e-7, 1e-05, 1e16, 1.5e300]) == (
            b"[\n  1e-7,\n  0.00001,\n  1e16,\n  1.5e300\n]\n")
        assert json_bytes([math.nan, math.inf, -math.inf]) == b"[\n  null,\n  null,\n  null\n]\n"

    def test_sweep_report(self):
        corpus, config, items = sweep_setup(n_questions=5)
        results = run_sweep(corpus, items, config,
                            pipelines=["vanilla", "mixture", "confident"], sizes=[2, 3])
        report = aggregate(results, items).to_dict()
        assert json_bytes(report) == (dumps(report) + "\n").encode("ascii")

    @pytest.mark.parametrize("obj", [{1, 2}, b"x", np.int64(3), np.bool_(True),
                                     object(), [np.array([1.0])]])
    def test_unsupported_types_raise(self, obj):
        with pytest.raises(TypeError):
            json_bytes(obj)


def reference_load_gold(path) -> list[QAItem]:
    """The gold loader as it was before the orjson path: one stdlib
    ``json.loads`` and one rule check per line."""
    items = []
    seen: set[str] = set()
    path = Path(path)
    for line_no, obj in jsonl_values(decode_text(read_bytes(path), path), path):
        if not isinstance(obj, dict):
            raise MalformedLineError(str(path), line_no, "expected a JSON object")
        for key in ("id", "question", "answer"):
            if key not in obj:
                raise MalformedLineError(str(path), line_no, f"missing {key!r}")
        try:
            qid, answer = obj["id"], obj["answer"]
            if isinstance(qid, bool) or not isinstance(qid, (str, int)) or qid == "":
                raise ValueError(f"gold id {qid!r} must be a non-empty string or an integer")
            if (isinstance(answer, bool) or not isinstance(answer, (str, int, float))
                    or isinstance(answer, float) and not math.isfinite(answer)):
                raise ValueError(
                    f"gold answer for {qid!r} must be a string or a number, not {answer!r}")
            item = QAItem(id=str(qid), question=obj["question"], answer=str(answer))
        except ValueError as e:
            raise MalformedLineError(str(path), line_no, str(e)) from e
        if item.id in seen:
            raise MalformedLineError(str(path), line_no, f"duplicate gold id {item.id!r}")
        seen.add(item.id)
        items.append(item)
    return items


def gold_outcome(load, path):
    """The items ``load`` reads from ``path``, or its error's type, line and text."""
    try:
        return load(path)
    except MalformedLineError as e:
        return type(e), e.line_no, str(e)


BIG = 2 ** 64  # orjson reads an integer from here on (or below -2 ** 63) as a float
# (JSON text, whether the stdlib reads it as a valid id / answer) per value
GOLD_IDS = [("7", True), ("1234567890123456789", True), (str(BIG - 1), True),
            (str(BIG), True), (str(-BIG * 3 - 5), True), (str(2 ** 63), True),
            (str(-(2 ** 63) - 1), True), ("true", False), ('""', False), ("1.5", False),
            ("null", False), ('"q\\ud800"', True)]
GOLD_ANSWERS = [("12", True), (str(BIG + 7), True), (str(-BIG - 1), True),
                (str(10 ** 30), True), ("0.5", True), ("-2.25", True), ("1e-7", True),
                ("18446744073709551616.0", True), ("NaN", False), ("Infinity", False),
                ("-Infinity", False), ("1e999", False), ("false", False), ('""', False),
                ('"\\udfff"', True), ("[3]", False)]
GOLD_QUESTIONS = [('"How many?"', True), ('"  "', False), ("5", False),
                  ('"lone \\ud83d surrogate?"', True)]


def gold_line(rng: np.random.Generator, n: int, ids: list[str]) -> str:
    """One generated gold line, mostly valid; about one line in six holds a
    value the stdlib refuses, a missing or repeated key, or is blank or not
    an object."""
    def pick(values):
        valid = [text for text, ok in values if ok]
        if rng.random() < 0.06:
            return values[int(rng.integers(len(values)))][0]
        return valid[int(rng.integers(len(valid)))] if rng.random() < 0.15 else None

    odd = rng.random()
    if odd < 0.03:
        return "   "  # blank: skipped
    if odd < 0.05:
        return ["[1, 2]", '"q"', "3", "null", '{"id": 1'][int(rng.integers(5))]
    qid = pick(GOLD_IDS) or f'"q{n}"'
    if rng.random() < 0.02 and ids:
        qid = ids[int(rng.integers(len(ids)))]  # a repeated id
    ids.append(qid)
    fields = [("id", qid), ("question", pick(GOLD_QUESTIONS) or f'"Question {n}?"'),
              ("answer", pick(GOLD_ANSWERS) or f'"{n}"')]
    if rng.random() < 0.03:
        fields.pop(int(rng.integers(3)))  # a missing key
    if rng.random() < 0.05:
        key = fields[int(rng.integers(len(fields)))][0]
        fields.insert(0, (key, '"shadowed"'))  # a repeated key: the last one counts
    order = rng.permutation(len(fields))
    return "{" + ", ".join(f'"{fields[i][0]}": {fields[i][1]}' for i in order) + "}"


class TestGoldLoader:
    def test_matches_the_line_by_line_loader(self, tmp_path):
        """The orjson path gives the stdlib loop's items, or its error, on
        generated files: integers beyond 64 bits, float and non-finite
        answers, lone surrogate escapes, repeated keys and ids, missing keys,
        non-object and blank lines, CRLF line ends."""
        rng = np.random.default_rng(18)
        seen = {"items": 0, "errors": 0, "fast": 0, "big answer read exactly": 0}
        for f in range(400):
            ids: list[str] = []
            lines = [gold_line(rng, n, ids) for n in range(int(rng.integers(1, 9)))]
            end = ["\n", "\r\n"][f % 2]
            path = tmp_path / f"gold-{f}.jsonl"
            path.write_bytes((end.join(lines) + end * int(rng.integers(0, 2))).encode("utf-8"))
            got = gold_outcome(load_gold, path)
            assert got == gold_outcome(reference_load_gold, path), path.read_text()
            if isinstance(got, list):
                seen["items"] += 1
                seen["fast"] += _gold_columns(decode_text(path.read_bytes(), path)) is not None
                seen["big answer read exactly"] += any(
                    item.answer.lstrip("-").isdigit() and abs(int(item.answer)) >= BIG
                    for item in got)
            else:
                seen["errors"] += 1
        # every outcome the comparison relies on is reached often enough
        assert min(seen.values()) >= 30, seen

    @pytest.mark.parametrize("workload", ["sweep-5k", "ask-cold-20k", "ask-remote"])
    def test_benchmark_gold_files(self, tmp_path, monkeypatch, workload):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
        from perfbench.inputs import write_inputs

        path = write_inputs(workload, 5, tmp_path)["gold"]
        assert _gold_columns(Path(path).read_text(encoding="utf-8")) is not None
        assert load_gold(path) == reference_load_gold(path)

    def test_float_answers_stay_on_the_column_path(self, tmp_path, monkeypatch):
        from multirag import evaluation

        def line_by_line(*args):
            raise AssertionError("the gold file went through the line-by-line loader")

        path = tmp_path / "gold.jsonl"
        answers = [0.5, -2.25, 1e-7, 1e18, -0.0, 5e-324, 2.0 ** 63 - 1024,
                   -(2.0 ** 63) + 1024, 3, "4"]
        path.write_text("".join(
            json.dumps({"id": f"q{i}", "question": "How many?", "answer": answer}) + "\n"
            for i, answer in enumerate(answers)))
        want = reference_load_gold(path)
        monkeypatch.setattr(evaluation, "_gold_lines", line_by_line)
        assert load_gold(path) == want

    @pytest.mark.parametrize("answer", [-(2 ** 63) - 1, 2 ** 64, -(2 ** 64), 10 ** 30])
    def test_integer_answers_beyond_64_bits_are_read_exactly(self, tmp_path, answer):
        """orjson reads these as floats of magnitude 2**63 or more, which the
        column path leaves to the stdlib."""
        path = tmp_path / "gold.jsonl"
        path.write_text(json.dumps({"id": "q1", "question": "How many?", "answer": answer}))
        assert _gold_columns(path.read_text()) is None
        assert load_gold(path) == [QAItem(id="q1", question="How many?", answer=str(answer))]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(json.dumps({"id": "q1", "question": "?", "answer": "3"}) + "\n")
        items = load_gold(path)
        assert items == [QAItem(id="q1", question="?", answer="3")]

    def test_bad_line(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text("{}\n")
        with pytest.raises(MalformedLineError):
            load_gold(path)

    def test_repeated_id_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        rows = [{"id": "q0", "question": "One?", "answer": "1"},
                {"id": "q0", "question": "Two?", "answer": "2"},
                {"id": "q1", "question": "Three?", "answer": "3"}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(MalformedLineError) as exc:
            load_gold(path)
        assert exc.value.line_no == 2
        assert "duplicate gold id 'q0'" in str(exc.value)

    @pytest.mark.parametrize("question", [5, None, "", "  ", ["x"], {"q": "x"}])
    def test_question_must_be_a_non_empty_string(self, tmp_path, question):
        path = tmp_path / "gold.jsonl"
        path.write_text(json.dumps({"id": "q1", "question": "?", "answer": "3"}) + "\n"
                        + json.dumps({"id": "q2", "question": question, "answer": "4"}) + "\n")
        with pytest.raises(MalformedLineError) as exc:
            load_gold(path)
        assert exc.value.line_no == 2
        assert "gold question for 'q2' must be a non-empty string" in str(exc.value)

    @pytest.mark.parametrize("field,value", [
        ("answer", None), ("answer", True), ("answer", False), ("answer", ["3"]),
        ("answer", {"v": 3}), ("id", None), ("id", True), ("id", ""), ("id", 1.5),
        ("id", ["q2"]), ("id", {"q": 2}), ("answer", float("nan")),
        ("answer", float("inf")), ("answer", float("-inf")),
    ])
    def test_id_and_answer_must_have_meaningful_types(self, tmp_path, field, value):
        path = tmp_path / "gold.jsonl"
        row = {"id": "q2", "question": "Two?", "answer": "4", field: value}
        path.write_text(json.dumps({"id": "q1", "question": "?", "answer": "3"}) + "\n"
                        + json.dumps(row) + "\n")
        with pytest.raises(MalformedLineError) as exc:
            load_gold(path)
        assert exc.value.line_no == 2
        rule = ("must be a non-empty string or an integer" if field == "id"
                else "gold answer for 'q2' must be a string or a number")
        assert rule in str(exc.value)

    @pytest.mark.parametrize("line,message", [
        ('["q2", "Two?", "4"]', "expected a JSON object"),
        ('"q2"', "expected a JSON object"),
        ('{"question": "Two?", "answer": "4"}', "missing 'id'"),
        ('{"id": "q2", "answer": "4"}', "missing 'question'"),
        ('{"id": "q2", "question": "Two?"}', "missing 'answer'"),
        ('{"id": "q2", "question": "Two?", "answer": 1e999}',
         "gold answer for 'q2' must be a string or a number, not inf"),
    ])
    def test_malformed_line_is_named_at_its_line(self, tmp_path, line, message):
        path = tmp_path / "gold.jsonl"
        path.write_text(json.dumps({"id": "q1", "question": "?", "answer": "3"}) + "\n"
                        + line + "\n")
        with pytest.raises(MalformedLineError) as exc:
            load_gold(path)
        assert exc.value.line_no == 2
        assert str(exc.value).endswith(f":2: {message}")

    def test_integer_id_and_numeric_answers(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        rows = [{"id": 7, "question": "Seven?", "answer": 7},
                {"id": "q8", "question": "Half?", "answer": 0.5}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert load_gold(path) == [QAItem(id="7", question="Seven?", answer="7"),
                                   QAItem(id="q8", question="Half?", answer="0.5")]

    @pytest.mark.parametrize("sep", ["\u0085", "\u2028", "\u2029"])
    def test_lines_end_at_newline_only(self, tmp_path, sep):
        path = tmp_path / "gold.jsonl"
        question = f"How many stones?{sep}Count them all."
        path.write_text(json.dumps({"id": "q1", "question": question, "answer": "3"},
                                   ensure_ascii=False) + "\n", encoding="utf-8")
        assert load_gold(path) == [QAItem(id="q1", question=question, answer="3")]

    def test_a_deeply_nested_line_is_named_not_fatal(self, tmp_path):
        # run in a child process: a decoder with no depth limit would kill it, not raise
        path = tmp_path / "gold.jsonl"
        depth = 300_000
        path.write_text(json.dumps({"id": "q1", "question": "?", "answer": "3"}) + "\n"
                        + '{"id": "q2", "question": "?", "answer": ' + "[" * depth
                        + "]" * depth + "}\n")
        script = ("import sys\n"
                  "from multirag.errors import MalformedLineError\n"
                  "from multirag.evaluation import load_gold\n"
                  "try:\n"
                  "    load_gold(sys.argv[1])\n"
                  "except MalformedLineError as e:\n"
                  "    print(e)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-c", script, str(path)], timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True)
        assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
        assert proc.stdout.startswith(f"{path}:2: invalid JSON: maximum recursion depth")

    def test_long_lines_are_read_by_the_stdlib(self, tmp_path, monkeypatch):
        from multirag import evaluation
        path = tmp_path / "gold.jsonl"
        question = "How many? " * 1000
        path.write_text(json.dumps({"id": "q1", "question": question, "answer": 3}) + "\n")
        assert _gold_columns(path.read_text()) is None
        assert load_gold(path) == [QAItem(id="q1", question=question, answer="3")]
        monkeypatch.setattr(evaluation, "_ORJSON_MAX_LINE", len(path.read_text()))
        assert _gold_columns(path.read_text()) == load_gold(path)

    def test_missing_file_is_unreadable(self, tmp_path):
        with pytest.raises(MalformedLineError) as exc:
            load_gold(tmp_path / "missing.jsonl")
        assert exc.value.line_no == 0
        assert "unreadable file" in str(exc.value)


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
