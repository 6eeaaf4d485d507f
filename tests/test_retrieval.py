import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from multirag.corpus import Chunk, ChunkIndex, Corpus
from multirag.embedding import DeterministicProvider
from multirag.errors import TemplateError
from multirag.retrieval import (
    PromptTemplate,
    SimilarityRow,
    assemble_prompt,
    fuse,
    score_all,
    standardize,
    top_k,
    top_k_by_kind,
)

from oracles import cosine_oracle, fuse_oracle, standardize_oracle, topk_oracle


def row(scores: dict, model="m", question="q"):
    return SimilarityRow(model_id=model, question_id=question, scores=scores)


def with_kinds(rows, kinds: dict):
    """The same rows over one shared index that also holds each chunk's kind."""
    ids = rows[0].index.ids
    index = ChunkIndex(ids, [kinds[cid] for cid in ids])
    return [SimilarityRow(r.model_id, r.question_id, r.values, index) for r in rows]


class TestScoreAll:
    def test_one_score_per_chunk(self, corpus):
        r = score_all(DeterministicProvider("det-a"), "what is 2+2", corpus)
        assert len(r.scores) == len(corpus)
        assert list(r.scores.keys()) == corpus.ids()

    def test_identical_text_scores_one(self, corpus):
        text = corpus.get("qa3").text
        r = score_all(DeterministicProvider("det-a"), text, corpus)
        assert r.scores["qa3"] == pytest.approx(1.0, abs=1e-12)
        assert r.scores["qa3"] == max(r.scores.values())

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        corpus = Corpus()
        for i in range(50):
            words = rng.choice(["sum", "count", "angle", "area", "prime"], size=4)
            corpus.add(Chunk(id=f"c{i}", kind="qa", text=f"{i} " + " ".join(words)))
        provider = DeterministicProvider("det-a", dim=24)
        question = "what is the area of a prime count"
        r = score_all(provider, question, corpus)
        qv = provider.embed([question])[0].values
        for chunk in corpus:
            cv = provider.embed([chunk.text])[0].values
            assert abs(r.scores[chunk.id] - cosine_oracle(qv, cv)) <= 1e-12

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            score_all(DeterministicProvider("det-a"), "q", Corpus())

    def test_duplicated_texts_score_bit_identical(self):
        # copies of one text at many offsets, so they land in every block
        # and remainder position of the matrix-vector product
        corpus = Corpus()
        for i in range(203):
            text = "the shared fact" if i % 7 in (0, 3) else f"fact number {i}"
            corpus.add(Chunk(id=f"c{i}", kind="qa", text=text))
        r = score_all(DeterministicProvider("det-a", dim=37), "the shared fact", corpus)
        copies = [cid for cid in r.scores if corpus.get(cid).text == "the shared fact"]
        assert len({r.scores[cid] for cid in copies}) == 1
        assert top_k(r, len(copies)) == copies

    def test_chunk_added_after_retrieval_is_scored(self, corpus):
        provider = DeterministicProvider("det-a")
        question = "a question asked twice"
        before = score_all(provider, question, corpus)
        corpus.add(Chunk(id="late", kind="textbook", text=question))
        after = score_all(provider, question, corpus)
        assert list(after.scores) == list(before.scores) + ["late"]
        assert top_k(after, 1) == ["late"]
        assert top_k_by_kind(after, {"textbook": 1}) == ["late"]

    def test_index_built_once_under_concurrency(self, corpus):
        calls = []

        class Counting(DeterministicProvider):
            def embed_matrix(self, texts):
                calls.append(list(texts))
                return super().embed_matrix(texts)

        provider = Counting("det-a")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as ex:
                futures = [ex.submit(score_all, provider, f"q{i}", corpus)
                           for i in range(32)]
                rows = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        # the question texts go through embed(); the corpus block only once
        assert calls.count([c.text for c in corpus]) == 1
        assert len({id(r.index) for r in rows}) == 1


class TestTopK:
    def test_k_zero(self):
        assert top_k(row({"a": 0.9}), 0) == []

    def test_basic_order(self):
        assert top_k(row({"a": 0.9, "b": 0.1, "c": 0.5}), 2) == ["a", "c"]

    def test_tie_goes_to_earlier_ingested(self):
        assert top_k(row({"x": 0.5, "y": 0.5}), 1) == ["x"]

    def test_k_larger_than_row(self):
        assert top_k(row({"a": 0.1, "b": 0.9}), 10) == ["b", "a"]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            m = int(rng.integers(1, 40))
            scores = {f"c{i}": float(rng.integers(0, 10)) / 10 for i in range(m)}
            k = int(rng.integers(0, m + 2))
            assert top_k(row(scores), k) == topk_oracle(list(scores.items()), k)

    def test_negative_k(self):
        with pytest.raises(ValueError):
            top_k(row({"a": 1.0}), -1)


def full_sort_top(values, k):
    """The selection before partitioning: rank every score, keep a prefix."""
    return np.argsort(-values, kind="stable")[:k]


def full_sort_by_kind(values, kinds, quotas):
    """The selection before partitioning: the first quota of each kind in the
    full ranking."""
    order = np.argsort(-values, kind="stable")
    labels = np.asarray(kinds)[order]
    picks = [np.flatnonzero(labels == kind)[:quota] for kind, quota in quotas.items()]
    return order[np.sort(np.concatenate(picks))]


class TestSelectionMatchesFullSort:
    """``top`` and ``by_kind`` against a stable sort of the whole row, on rows
    drawn from about 8 distinct values so that most cuts fall inside a tie."""

    @staticmethod
    def tie_heavy_row(rng, n, kinds):
        levels = np.array([-0.5, -0.0, 0.0, 0.25, 0.25, 0.5, 0.75, 1.0])
        values = levels[rng.integers(0, len(levels), size=n)]
        return SimilarityRow("m", "q", values, ChunkIndex([f"c{i}" for i in range(n)], kinds))

    def test_random_rows(self):
        rng = np.random.default_rng(21)
        for trial in range(150):
            n = int(rng.integers(1, 20_001)) if trial % 10 == 0 else int(rng.integers(1, 60))
            kinds = np.where(rng.random(n) < 0.9, "qa", "textbook").tolist()
            r = self.tie_heavy_row(rng, n, kinds)
            for k in (0, 1, int(rng.integers(0, n + 1)), n, n + 3):
                assert r.top(k).tolist() == full_sort_top(r.values, k).tolist()
            quotas = {"qa": int(rng.integers(0, 6)), "textbook": int(rng.integers(0, 3))}
            want = full_sort_by_kind(r.values, kinds, quotas)
            assert r.by_kind(quotas).tolist() == want.tolist()

    def test_signed_zeros_tie_by_ingestion_order(self):
        r = row({"a": 0.0, "b": -0.0, "c": 0.0, "d": -0.0})
        assert top_k(r, 3) == ["a", "b", "c"]
        [r] = with_kinds([r], {"a": "qa", "b": "textbook", "c": "qa", "d": "textbook"})
        assert top_k_by_kind(r, {"textbook": 1, "qa": 1}) == ["a", "b"]

    def test_quota_edges(self):
        kinds = ["qa"] * 5
        r = self.tie_heavy_row(np.random.default_rng(22), 5, kinds)
        for quotas in ({"qa": 0}, {"qa": 9}, {"textbook": 2}, {"qa": 2, "textbook": 2}, {}):
            want = full_sort_by_kind(r.values, kinds, quotas) if quotas else []
            assert r.by_kind(quotas).tolist() == list(want)
        with pytest.raises(ValueError):
            r.by_kind({"qa": -1})

    def test_write_after_use_refreshes_selection(self):
        rng = np.random.default_rng(23)
        kinds = np.where(rng.random(500) < 0.9, "qa", "textbook").tolist()
        r = self.tie_heavy_row(rng, 500, kinds)
        quotas = {"qa": 3, "textbook": 1}
        r.top(4), r.by_kind(quotas)
        for cid in ("c7", "c499"):
            r.scores[cid] = 2.0
            assert r.top(4).tolist() == full_sort_top(r.values, 4).tolist()
            assert r.by_kind(quotas).tolist() == full_sort_by_kind(r.values, kinds, quotas).tolist()


class TestRowCaches:
    def test_write_after_use_refreshes_ranking_selection_and_zscores(self):
        kinds = {"a": "qa", "b": "textbook", "c": "qa", "d": "textbook"}
        [r] = with_kinds([row({"a": 0.9, "b": 0.1, "c": 0.5, "d": 0.3})], kinds)
        assert top_k(r, 2) == ["a", "c"]
        assert top_k_by_kind(r, {"textbook": 1}) == ["d"]
        z_before = standardize(r)["b"]
        r.scores["b"] = 1.0
        assert r.scores["b"] == 1.0
        assert top_k(r, 2) == ["b", "a"]
        assert top_k_by_kind(r, {"textbook": 1}) == ["b"]
        assert standardize(r)["b"] > z_before
        want = standardize_oracle([0.9, 1.0, 0.5, 0.3])
        assert [standardize(r)[c] for c in "abcd"] == pytest.approx(want, abs=1e-12)

    def test_index_selection_cached_and_refreshed(self, corpus):
        r = score_all(DeterministicProvider("det-a"), "subtraction", corpus)
        quotas = {"qa": 2, "textbook": 1}
        first = top_k_by_kind(r, quotas)
        assert r.by_kind(quotas) is r.by_kind(quotas)
        assert [corpus.get(c).kind for c in first].count("qa") == 2
        r.scores["qa7"] = 2.0
        assert top_k_by_kind(r, quotas)[0] == "qa7"

    def test_rejects_non_finite_scores(self):
        with pytest.raises(ValueError):
            row({"a": 0.1, "b": float("nan")})
        r = row({"a": 0.1})
        with pytest.raises(ValueError):
            r.scores["a"] = float("inf")
        with pytest.raises(KeyError):
            r.scores["new"] = 0.5

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError):
            row({})


class TestStandardize:
    def test_frozen_example(self):
        zs = standardize(row({"a": 1.0, "b": 2.0, "c": 3.0}))
        assert zs["a"] == pytest.approx(-1.224744871391589, abs=1e-9)
        assert zs["b"] == pytest.approx(0.0, abs=1e-9)
        assert zs["c"] == pytest.approx(1.224744871391589, abs=1e-9)

    def test_constant_row_maps_to_zero(self):
        assert standardize(row({"a": 0.7, "b": 0.7, "c": 0.7})) == {
            "a": 0.0, "b": 0.0, "c": 0.0}

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = int(rng.integers(2, 30))
            w = [round(float(rng.uniform(-1, 1)), 6) for _ in range(m)]
            a, b = float(rng.uniform(0.1, 5)), float(rng.uniform(-10, 10))
            base = standardize(row({f"c{i}": w[i] for i in range(m)}))
            moved = standardize(row({f"c{i}": a * w[i] + b for i in range(m)}))
            for cid in base:
                assert abs(base[cid] - moved[cid]) <= 1e-9

    def test_matches_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m = int(rng.integers(1, 20))
            w = [float(rng.uniform(-1, 1)) for _ in range(m)]
            zs = standardize(row({f"c{i}": w[i] for i in range(m)}))
            oracle = standardize_oracle(w)
            for i in range(m):
                assert abs(zs[f"c{i}"] - oracle[i]) <= 1e-12


def random_rows(rng, n_models=None, m=None, tie_heavy=False):
    """Random similarity rows; ties are forced via exact copies only.

    Cross-model score relationships that are equal *mathematically* but
    computed from different bits (e.g. every 2-chunk row standardizes to
    z = +-1) order unstably at the last ulp, so rows keep m >= 3 and
    continuous scores; forced ties duplicate values or whole rows
    bit-for-bit, which both the implementation and the oracle resolve
    identically.
    """
    n_models = n_models or int(rng.integers(1, 5))
    m = m or int(rng.integers(3, 51))
    ids = [f"c{i}" for i in range(m)]
    rows = []
    for model in range(n_models):
        scores = {cid: float(rng.uniform(-1, 1)) for cid in ids}
        if tie_heavy and m >= 2:
            for _ in range(int(rng.integers(1, m))):
                i, j = rng.integers(0, m, size=2)
                scores[ids[i]] = scores[ids[j]]
        rows.append(row(scores, model=f"g{model}"))
    if tie_heavy and n_models > 1:
        rows[-1] = row(dict(rows[0].scores), model=rows[-1].model_id)
    return rows


class TestFuse:
    def test_single_row_identity(self):
        r = row({"a": 0.9, "b": 0.1, "c": 0.5})
        out = fuse([r], 2)
        assert [c.chunk_id for c in out] == top_k(r, 2)
        zs = standardize(r)
        assert all(c.standardized == zs[c.chunk_id] for c in out)

    def test_dedup_keeps_strongest(self):
        # post-standardization: A ranks c1 on top (z=1.41); B ranks c2 (z=0.93)
        # above c3; the duplicate c2 must survive via B, its stronger source
        a = row({"c1": 10.0, "c2": 1.0, "c3": 0.0}, model="A")
        b = row({"c1": 0.0, "c2": 5.0, "c3": 4.0}, model="B")
        za, zb = standardize(a), standardize(b)
        assert za["c1"] > zb["c2"] > zb["c3"] > za["c2"]
        out = fuse([a, b], 2)
        assert [c.chunk_id for c in out] == ["c1", "c2"]
        assert out[0].model_id == "A" and out[0].standardized == za["c1"]
        assert out[1].model_id == "B" and out[1].standardized == zb["c2"]

    def test_k_exhausts_distinct_chunks(self):
        rows = random_rows(np.random.default_rng(11), n_models=3, m=6)
        out = fuse(rows, 50)
        assert sorted(c.chunk_id for c in out) == sorted(rows[0].scores)
        zs = [c.standardized for c in out]
        assert zs == sorted(zs, reverse=True)

    def test_no_repetition(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            out = fuse(random_rows(rng), 8)
            ids = [c.chunk_id for c in out]
            assert len(ids) == len(set(ids))

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(13)
        for trial in range(300):
            rows = random_rows(rng, tie_heavy=trial % 3 == 0)
            k = int(rng.integers(0, 9))
            got = [(c.chunk_id, c.standardized, c.model_id) for c in fuse(rows, k)]
            want = fuse_oracle([r.scores for r in rows], k)
            assert [g[0] for g in got] == [w[0] for w in want]
            assert [g[2] for g in got] == [rows[w[2]].model_id for w in want]
            for g, w in zip(got, want):
                assert abs(g[1] - w[1]) <= 1e-9

    def test_quota_mode_matches_oracle(self):
        rng = np.random.default_rng(14)
        for trial in range(100):
            rows = random_rows(rng, m=int(rng.integers(4, 30)), tie_heavy=trial % 3 == 0)
            kinds = {cid: ("qa" if rng.random() < 0.7 else "textbook")
                     for cid in rows[0].scores}
            quotas = {"qa": 3, "textbook": 1}
            got = [(c.chunk_id, c.model_id, c.standardized)
                   for c in fuse(with_kinds(rows, kinds), 4, quotas=quotas)]
            want = fuse_oracle([r.scores for r in rows], 4, quotas=quotas, kinds=kinds)
            assert [g[0] for g in got] == [w[0] for w in want]
            assert [g[1] for g in got] == [rows[w[2]].model_id for w in want]
            for g, w in zip(got, want):
                assert abs(g[2] - w[1]) <= 1e-9

    def test_quotas_need_an_index_with_kinds(self):
        with pytest.raises(ValueError):
            fuse([row({"a": 0.9, "b": 0.1, "c": 0.5})], 2, quotas={"qa": 1})

    def test_mismatched_corpora_rejected(self):
        a = row({"c1": 0.1, "c2": 0.2}, model="A")
        b = row({"c1": 0.1, "c9": 0.2}, model="B")
        with pytest.raises(ValueError):
            fuse([a, b], 2)

    def test_affine_rescaling_does_not_change_output(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            rows = random_rows(rng, n_models=3)
            k = int(rng.integers(1, 7))
            base = [(c.chunk_id, c.model_id) for c in fuse(rows, k)]
            scaled_rows = []
            for r in rows:
                a, b = float(rng.uniform(0.1, 4)), float(rng.uniform(-5, 5))
                scaled_rows.append(row({c: a * w + b for c, w in r.scores.items()},
                                       model=r.model_id))
            scaled = [(c.chunk_id, c.model_id) for c in fuse(scaled_rows, k)]
            assert base == scaled


class TestQuotaSelection:
    def test_quota_counts_respected(self, corpus):
        r = score_all(DeterministicProvider("det-a"), "subtraction", corpus)
        ids = top_k_by_kind(r, {"qa": 3, "textbook": 1})
        kinds = [corpus.get(c).kind for c in ids]
        assert kinds.count("qa") == 3 and kinds.count("textbook") == 1

    def test_output_in_global_score_order(self, corpus):
        r = score_all(DeterministicProvider("det-a"), "pears", corpus)
        ids = top_k_by_kind(r, {"qa": 2, "textbook": 1})
        scores = [r.scores[c] for c in ids]
        assert scores == sorted(scores, reverse=True)


class TestPromptAssembly:
    def template(self):
        return PromptTemplate(text="Intro.\n\n{{references}}Q: {{question}}\nGo.")

    def test_no_references_bare_question(self):
        prompt = assemble_prompt(self.template(), "how many?", [])
        assert "how many?" in prompt
        assert "References" not in prompt
        assert "[1]" not in prompt

    def test_three_numbered_blocks_in_order(self):
        chunks = [Chunk(id=f"c{i}", kind="qa", text=f"fact {i}") for i in range(3)]
        prompt = assemble_prompt(self.template(), "q?", chunks)
        i1, i2, i3 = prompt.index("[1] fact 0"), prompt.index("[2] fact 1"), \
            prompt.index("[3] fact 2")
        assert i1 < i2 < i3

    def test_deterministic(self):
        chunks = [Chunk(id="c", kind="qa", text="fact")]
        a = assemble_prompt(self.template(), "q?", chunks)
        b = assemble_prompt(self.template(), "q?", chunks)
        assert a == b

    def test_question_appears_once(self):
        prompt = assemble_prompt(self.template(), "UNIQUE-TOKEN", [])
        assert prompt.count("UNIQUE-TOKEN") == 1

    def test_missing_placeholder_rejected(self):
        with pytest.raises(TemplateError):
            PromptTemplate(text="no placeholders at all")
        with pytest.raises(TemplateError):
            PromptTemplate(text="{{question}} only")
        with pytest.raises(TemplateError):
            PromptTemplate(text="{{question}} {{question}} {{references}}")

    def test_question_with_placeholder_text_is_not_expanded(self):
        prompt = assemble_prompt(self.template(), "evil {{references}} question", [])
        assert "evil {{references}} question" in prompt
