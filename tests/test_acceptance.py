"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Random cases use fixed seeds, so every run checks the
same instances.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from multirag import kernels
from multirag.cli import main
from multirag.confidence import (
    LOWER_IS_CONFIDENT,
    METRICS,
    ConfidenceScore,
    dp,
    entropy,
    self_certainty,
)
from multirag.embedding import DeterministicProvider, RemoteProvider
from multirag.errors import DimensionMismatchError, LogprobsMissingError
from multirag.evaluation import cdf_report, empirical_cdf
from multirag.generation import (
    DecodeParams,
    GenerationRecord,
    MockBackend,
    OpenAIChatBackend,
    derive_seed,
    generate,
)
from multirag.pipeline import PipelineConfig, run_confident, run_mixture, run_vanilla
from multirag.retrieval import (
    PromptTemplate,
    SimilarityRow,
    assemble_prompt,
    fuse,
    standardize,
    top_k,
)

from conftest import build_corpus, chat_route, embeddings_route
from oracles import (
    METRIC_CASES,
    ORACLES,
    argmax_oracle,
    fuse_oracle,
    make_step,
    topk_oracle,
)


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"C{number} took {elapsed:.2f}s, budget {budget}s"
    print(f"\n[PASS] C{number:02d} {label} ({elapsed:.2f}s)")


def random_full_steps(rng, n_steps, vocab=None):
    vocab = vocab or int(rng.integers(2, 24))
    alpha = float(rng.uniform(0.2, 3.0))
    return [make_step(rng.dirichlet([alpha] * vocab)) for _ in range(n_steps)]


def test_c01_metric_closed_form_suite():
    from multirag.confidence import avg_log_p, gini
    compute = {"avg-log-p": avg_log_p, "gini": gini, "entropy": entropy,
               "dp": dp, "self-certainty": self_certainty}
    built = [(metric, build(), expected, tol)
             for metric, build, expected, tol in METRIC_CASES]
    assert len(built) == 15
    with criterion(1, "metric closed-form suite (15 cases)", budget=1.0):
        for metric, steps, expected, tol in built:
            got = compute[metric](steps)
            assert abs(got - expected) <= tol, \
                f"{metric}: got {got!r}, want {expected!r} +- {tol}"


def test_c02_dp_entropy_identities():
    rng = np.random.default_rng(101)
    singles = [random_full_steps(rng, 1) for _ in range(1000)]
    multis = [random_full_steps(rng, int(rng.integers(2, 9))) for _ in range(1000)]
    with criterion(2, "dp = exp(entropy) single-step; Jensen multi-step", budget=5.0):
        for steps in singles:
            assert abs(dp(steps) - math.exp(entropy(steps))) <= 1e-9
        for steps in multis:
            assert dp(steps) >= math.exp(entropy(steps)) - 1e-9


def test_c03_self_certainty_nonnegative():
    rng = np.random.default_rng(102)
    cases = [random_full_steps(rng, int(rng.integers(1, 9))) for _ in range(1000)]
    uniforms = [[make_step([1.0 / v] * v)] for v in (2, 3, 4, 7, 16, 49, 257)]
    with criterion(3, "self-certainty nonnegativity and uniform zero"):
        for steps in cases:
            assert self_certainty(steps) >= 0.0
        for steps in uniforms:
            assert abs(self_certainty(steps)) <= 1e-9


def _random_fusion_instance(rng):
    n_models = int(rng.integers(1, 5))
    m = int(rng.integers(3, 51))
    ids = [f"c{i}" for i in range(m)]
    rows = []
    for model in range(n_models):
        scores = {cid: float(rng.uniform(-1, 1)) for cid in ids}
        rows.append(SimilarityRow(f"g{model}", "q", scores))
    mode = int(rng.integers(0, 3))
    if mode == 1 and n_models > 1:  # forced duplicate: identical model rows
        rows[-1] = SimilarityRow(rows[-1].model_id, "q", dict(rows[0].scores))
    if mode == 2:  # forced ties: copy scores inside a row
        target = rows[int(rng.integers(0, n_models))]
        for _ in range(int(rng.integers(1, m))):
            i, j = rng.integers(0, m, size=2)
            target.scores[ids[i]] = target.scores[ids[j]]
    k = int(rng.integers(0, 9))
    return rows, k


def test_c04_fusion_matches_bruteforce_oracle():
    rng = np.random.default_rng(103)
    instances = [_random_fusion_instance(rng) for _ in range(1000)]
    with criterion(4, "fusion == pool/dedup/sort oracle on 1000 instances",
                   budget=10.0):
        for rows, k in instances:
            got = fuse(rows, k)
            want = fuse_oracle([r.scores for r in rows], k)
            assert [c.chunk_id for c in got] == [w[0] for w in want]
            assert [c.model_id for c in got] == [rows[w[2]].model_id for w in want]
            for c, w in zip(got, want):
                assert abs(c.standardized - w[1]) <= 1e-9


def test_c05_zscore_affine_invariance():
    rng = np.random.default_rng(104)
    with criterion(5, "Z-score affine invariance over 500 rows"):
        for _ in range(500):
            n_models = int(rng.integers(1, 4))
            m = int(rng.integers(3, 40))
            ids = [f"c{i}" for i in range(m)]
            rows, scaled_rows = [], []
            for model in range(n_models):
                scores = {cid: float(rng.uniform(-1, 1)) for cid in ids}
                a, b = float(rng.uniform(0.1, 5.0)), float(rng.uniform(-10, 10))
                rows.append(SimilarityRow(f"g{model}", "q", scores))
                scaled_rows.append(SimilarityRow(
                    f"g{model}", "q", {c: a * w + b for c, w in scores.items()}))
            for row, srow in zip(rows, scaled_rows):
                zs, szs = standardize(row), standardize(srow)
                for cid in zs:
                    assert abs(zs[cid] - szs[cid]) <= 1e-9
            k = int(rng.integers(1, 9))
            got = [(c.chunk_id, c.model_id) for c in fuse(rows, k)]
            scaled = [(c.chunk_id, c.model_id) for c in fuse(scaled_rows, k)]
            assert got == scaled


def test_c06_topk_matches_sort_oracle():
    rng = np.random.default_rng(105)
    with criterion(6, "top-k == full-sort-prefix on 1000 random corpora"):
        for _ in range(1000):
            m = int(rng.integers(1, 201))
            d = int(rng.integers(2, 65))
            matrix = rng.normal(size=(m, d))
            for _ in range(int(rng.integers(0, 1 + m // 4))):
                i, j = rng.integers(0, m, size=2)
                matrix[i] = matrix[j]  # duplicated vectors force exact ties
            query = rng.normal(size=d)
            scores = kernels.cosine_scores(query, matrix)
            row = SimilarityRow("g", "q",
                                {f"c{i}": float(s) for i, s in enumerate(scores)})
            k = int(rng.integers(0, m + 3))
            assert top_k(row, k) == topk_oracle(list(row.scores.items()), k)


TEMPLATE = PromptTemplate(
    text="Work it out.\n\n{{references}}Question: {{question}}\n"
         "Finish with #### and the number.")


def _config(models=("det-a", "det-b", "det-c"), seed=0, metric="self-certainty",
            k=3, backend=None):
    return PipelineConfig(
        providers=[DeterministicProvider(m, dim=16) for m in models],
        backend=backend or MockBackend(seed=seed), template=TEMPLATE,
        k=k, quotas=None, metric=metric, decode=DecodeParams(), seed=seed)


def test_c07_confident_selection_oracle():
    corpus = build_corpus(n_qa=8, n_textbook=2)
    models = ["det-a", "det-b", "det-c"]
    rng = np.random.default_rng(106)
    with criterion(7, "confident winner == argmax oracle on 500 questions"):
        checked_permutations = 0
        for i in range(500):
            metric = METRICS[i % len(METRICS)]
            config = _config(seed=1000 + i, metric=metric)
            qid = f"q{i}"
            question = (f"Avery packs {i % 13} crates with {i % 7 + 1} jars "
                        f"each, run {i}. How many jars?")
            result = run_confident(qid, question, models, corpus, config)
            sign = -1.0 if metric in LOWER_IS_CONFIDENT else 1.0
            oriented = [sign * ORACLES[metric](r.steps) for r in result.records]
            want = argmax_oracle(oriented)
            assert result.winner_index == want
            assert result.answer == result.records[want].completion
            unique = len({round(v, 15) for v in oriented}) == len(oriented)
            if unique and i % 10 == 0:
                order = list(rng.permutation(len(models)))
                permuted = run_confident(qid, question, [models[j] for j in order],
                                         corpus, config)
                assert permuted.answer == result.answer
                checked_permutations += 1
        assert checked_permutations >= 40


def test_c08_degenerate_pipeline_equalities():
    corpus = build_corpus()
    with criterion(8, "degenerate pipelines collapse to vanilla"):
        config = _config(seed=31)
        q = "A team of 9 splits into trios. How many trios?"
        vanilla = run_vanilla("q0", q, "det-b", corpus, config)
        confident1 = run_confident("q0", q, ["det-b"], corpus, config)
        mixture1 = run_mixture("q0", q, ["det-b"], corpus, config)
        assert confident1.answer == vanilla.answer
        assert mixture1.answer == vanilla.answer
        assert mixture1.records[0].prompt == vanilla.records[0].prompt

        bare_config = _config(seed=31, k=0)
        bare = run_vanilla("q0", q, "det-b", corpus, bare_config)
        expected_prompt = assemble_prompt(TEMPLATE, q, [])
        assert bare.records[0].prompt == expected_prompt
        independent = generate(
            MockBackend(seed=31), expected_prompt,
            DecodeParams(seed=derive_seed(31, "gen", "q0", "det-b")))
        assert bare.answer == independent.completion


def test_c09_cdf_report_properties(tmp_path):
    rng = np.random.default_rng(107)
    with criterion(9, "CDF nondecreasing, terminal 1.0, CSV round-trip"):
        for case in range(200):
            n = int(rng.integers(1, 80))
            records = []
            for i, s in enumerate(rng.normal(scale=rng.uniform(0.1, 5), size=n)):
                rec = GenerationRecord(f"q{i}", "m", "m", "", "#### 1", [])
                rec.confidence = {"dp": ConfidenceScore("dp", -float(s), float(s))}
                records.append(rec)
            table = cdf_report(records, "dp")
            assert np.all(np.diff(table.raw) >= 0)
            assert table.raw[-1] == 1.0
            assert abs(table.smoothed[-1] - 1.0) <= 1e-6
        # single-record jump plus exact-threshold fractions
        assert list(cdf_report(records[:1], "dp").raw) == [1.0]
        fractions = empirical_cdf(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
        assert fractions == pytest.approx([1 / 3, 2 / 3, 1.0])

        import csv as csv_mod
        path = tmp_path / "cdf_dp.csv"
        table.write_csv(path)
        with open(path) as fh:
            rows = list(csv_mod.reader(fh))
        assert rows[0] == ["threshold", "raw_cdf", "smoothed_cdf"]
        parsed = [(float(a), float(b), float(c)) for a, b, c in rows[1:]]
        assert parsed == table.rows()


def _eval_workspace(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    rows = [{"id": f"c{i}", "kind": "qa",
             "text": f"Jo stores {i} beads in each of {i + 1} jars. "
                     f"#### {i * (i + 1)}"} for i in range(10)]
    rows.append({"id": "tb0", "kind": "textbook",
                 "text": "Multiplying group size by group count gives the total."})
    corpus_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    gold_path = tmp_path / "gold.jsonl"
    gold = [{"id": f"q{i}", "question": f"Lee fills {i + 2} bags of {i + 1} rolls.",
             "answer": str((i + 2) * (i + 1))} for i in range(6)]
    gold_path.write_text("\n".join(json.dumps(r) for r in gold) + "\n")
    config = {
        "embedding": {"models": ["det-a", "det-b", "det-c"]},
        "retrieval": {"k": 3, "quotas": None},
        "eval": {"combination_sizes": [2, 3]},
        "corpus": [{"path": str(corpus_path), "kind": "qa"}],
        "gold_path": str(gold_path),
        "output_dir": str(tmp_path / "out"),
        "seed": 12,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    return config_path


def test_c10_eval_rerun_byte_identical(tmp_path):
    config_path = _eval_workspace(tmp_path)
    with criterion(10, "two eval runs produce byte-identical reports"):
        assert main(["eval", "--config", str(config_path),
                     "--out", str(tmp_path / "r1")]) == 0
        assert main(["eval", "--config", str(config_path),
                     "--out", str(tmp_path / "r2")]) == 0
        names = ["report.json", "tables.txt"] + \
            [f"cdf_{m}.csv" for m in METRICS]
        for name in names:
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"


def test_c11_wire_contract(stub_server, monkeypatch):
    with criterion(11, "wire contracts for embeddings and chat completions"):
        monkeypatch.setenv("ACCEPT_KEY", "tok-123")
        stub_server.route("/v1/embeddings", embeddings_route(dim=6))
        provider = RemoteProvider("emb-1", endpoint=stub_server.url,
                                  api_key_env="ACCEPT_KEY", retries=0)
        vectors = provider.embed(["alpha", "beta"])
        req = stub_server.requests[-1]
        assert req["path"] == "/v1/embeddings"
        assert req["body"] == {"model": "emb-1", "input": ["alpha", "beta"]}
        assert req["headers"]["Authorization"] == "Bearer tok-123"
        assert [v.dim for v in vectors] == [6, 6]

        stub_server.route("/v1/chat/completions", chat_route(tokens=("1", "2")))
        backend = OpenAIChatBackend("llm-1", endpoint=stub_server.url,
                                    vocab_size=500, retries=0)
        completion, steps = backend.complete("Q?", DecodeParams(top_logprobs=9))
        body = stub_server.requests[-1]["body"]
        assert body["model"] == "llm-1"
        assert body["messages"] == [{"role": "user", "content": "Q?"}]
        assert body["temperature"] == 0.0
        assert body["logprobs"] is True
        assert body["top_logprobs"] == 9
        assert completion == "1 2" and len(steps) == 2

        def no_logprobs(request_body):
            return 200, {"choices": [{"message": {"content": "42"}}]}
        stub_server.route("/v1/chat/completions", no_logprobs)
        with pytest.raises(LogprobsMissingError):
            backend.complete("Q?", DecodeParams())

        def mixed_dims(request_body):
            return 200, {"data": [{"embedding": [1.0] * (3 if i else 5)}
                                  for i in range(len(request_body["input"]))]}
        stub_server.route("/v1/embeddings", mixed_dims)
        fresh = RemoteProvider("emb-2", endpoint=stub_server.url, retries=0)
        with pytest.raises(DimensionMismatchError):
            fresh.embed(["a", "b"])
