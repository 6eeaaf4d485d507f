import hashlib
import logging

import numpy as np
import pytest

from multirag import embedding, kernels
from multirag.embedding import DeterministicProvider, EmbeddingVector
from multirag.errors import DimensionMismatchError, ZeroVectorError

from oracles import cosine_oracle


def vec(*values, model="m"):
    return EmbeddingVector(values=np.array(values, dtype=float), model_id=model)


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine of two embeddings through the reference scorer."""
    return float(kernels.cosine_scores(a.values, b.values[None, :])[0])


class TestDeterministicProvider:
    def test_same_text_identical_vectors(self):
        p = DeterministicProvider("det-a", dim=16)
        a, b = p.embed(["hello", "hello"])
        assert np.array_equal(a.values, b.values)

    def test_pure_across_instances(self):
        a = DeterministicProvider("det-a", dim=16).embed(["text"])[0]
        b = DeterministicProvider("det-a", dim=16).embed(["text"])[0]
        assert np.array_equal(a.values, b.values)

    def test_batch_shape(self):
        p = DeterministicProvider("det-a", dim=8)
        out = p.embed(["one", "two", "three"])
        assert len(out) == 3
        assert {v.dim for v in out} == {8}

    def test_distinct_models_distinct_vectors(self):
        a = DeterministicProvider("det-a", dim=16).embed(["text"])[0]
        b = DeterministicProvider("det-b", dim=16).embed(["text"])[0]
        assert not np.array_equal(a.values, b.values)

    def test_never_zero(self):
        p = DeterministicProvider("det-a", dim=4)
        for i in range(50):
            v = p.embed([f"text {i}"])[0]
            assert np.linalg.norm(v.values) > 0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            DeterministicProvider("det-a").embed([])

    def test_matrix_equals_per_text_reference(self):
        def reference(model_id, dim, text):
            digest = hashlib.blake2b(f"{model_id}\x00{text}".encode("utf-8"),
                                     digest_size=8).digest()
            vec = np.random.default_rng(int.from_bytes(digest, "big")).standard_normal(dim)
            if np.linalg.norm(vec) < 1e-9:
                vec[0] += 1.0
            return vec

        texts = [f"chunk {i}: " + "w" * (i % 13) for i in range(300)]
        provider = DeterministicProvider("det-a", dim=24)
        provider.batch_size = 128
        matrix = provider.embed_matrix(texts)
        want = np.array([reference("det-a", 24, t) for t in texts])
        assert (matrix == want).all()

    def test_zero_vector_shifted_per_block(self, monkeypatch):
        p = DeterministicProvider("det-a", dim=3)
        real, drawn = p._vector, p._batch_vectors

        def with_zero(texts):
            block = drawn(texts)
            block[[t == "zero" for t in texts]] = 0.0
            return block

        monkeypatch.setattr(p, "_batch_vectors", with_zero)
        matrix = p.embed_matrix(["one", "zero", "two"] + [f"pad {i}" for i in range(p.BATCH_MIN)])
        assert matrix[1].tolist() == [1.0, 0.0, 0.0]
        assert (matrix[[0, 2]] == np.array([real("one"), real("two")])).all()


class TestVectorBits:
    """The bytes a text's vector is seeded from are its UTF-8, so the
    vectors, and every stored matrix keyed by VECTOR_VERSION, stay as they were."""

    def test_an_ordinary_text(self):
        vector = DeterministicProvider("det-a", dim=8)._vector("Ann has 3 coins. How many coins?")
        assert vector.tolist() == [
            0.40055595151324913, 1.1664410213662209, -0.7796469945497265, 0.15680014378328255,
            0.4998027471746311, 0.7654360978848359, 0.24282362031100768, -0.5811533234441957]

    def test_a_non_ascii_text(self):
        vector = DeterministicProvider("det-b", dim=384)._vector("café ☕ 7")
        assert hashlib.sha256(vector.tobytes()).hexdigest() == (
            "a99a4e9e800be1490c76d899b3d527b457f32eeb429ff11a571e3a7c61356f93")

    def test_a_lone_surrogate(self):
        provider = DeterministicProvider("det-a", dim=8)
        (vector,) = provider.embed(["How \ud800 many?"])
        assert vector.values.shape == (8,)
        assert not np.array_equal(vector.values, provider._vector("How \udc00 many?"))


def reference_vector(model_id: str, dim: int, text: str) -> np.ndarray:
    """A text's vector as ``default_rng`` of its digest draws it, zero-shifted."""
    digest = hashlib.blake2b(f"{model_id}\x00{text}".encode("utf-8", "surrogatepass"),
                             digest_size=8).digest()
    vector = np.random.default_rng(int.from_bytes(digest, "big")).standard_normal(dim)
    if np.linalg.norm(vector) < 1e-9:
        vector[0] += 1.0
    return vector


class TestBatchPath:
    """A batch of at least BATCH_MIN texts seeds one generator per text from
    states derived for the whole batch, and gives ``_vector``'s bits."""

    def test_states_equal_seed_sequence(self):
        edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        drawn = np.random.default_rng(25).integers(0, 2**64, size=10_000, dtype=np.uint64)
        seeds = np.concatenate([np.array(edges, dtype=np.uint64), drawn])
        want = np.array([np.random.SeedSequence(int(s)).generate_state(4, np.uint64)
                         for s in seeds])
        got = embedding.seed_states(seeds)
        assert got.dtype == np.uint64 and got.shape == (len(seeds), 4)
        assert (got == want).all()

    @pytest.mark.parametrize("dim", [1, 32, 384])
    def test_matrix_equals_default_rng_reference(self, dim, caplog):
        texts = [f"chunk {i}: Ann has {i % 7} coins" for i in range(4990)]
        texts += ["How \ud800 many?", "café ☕ 7", "a\x00b", "x" * 10_000, "", "日本語のテキスト"]
        texts += texts[:7]  # duplicates, the first in another batch than its twin
        assert len(texts) == 5003
        provider = DeterministicProvider("det-a", dim=dim)
        provider.batch_size = 1000  # five batch passes, then three texts by _vector
        with caplog.at_level(logging.WARNING, logger="multirag.embedding"):
            matrix = provider.embed_matrix(texts)
        assert not caplog.records  # the batch path's own bits, not the per-text fallback's
        want = np.array([reference_vector("det-a", dim, t) for t in texts])
        assert matrix.tobytes() == want.tobytes()

    def test_a_question_embed_never_enters_the_batch_path(self, monkeypatch):
        provider = DeterministicProvider("det-a", dim=8)
        batches = []
        drawn = provider._batch_vectors
        monkeypatch.setattr(provider, "_batch_vectors",
                            lambda texts: batches.append(len(texts)) or drawn(texts))
        (vector,) = provider.embed(["How many coins does Ann have?"])
        small = provider.embed_matrix([f"t{i}" for i in range(provider.BATCH_MIN - 1)])
        assert batches == []
        assert vector.values.tobytes() == provider._vector("How many coins does Ann have?").tobytes()
        large = provider.embed_matrix([f"t{i}" for i in range(provider.BATCH_MIN)])
        assert batches == [provider.BATCH_MIN]
        assert large[:-1].tobytes() == small.tobytes()

    def test_a_wrong_derivation_warns_once_and_keeps_the_bits(self, monkeypatch, caplog):
        derive = embedding.seed_states
        monkeypatch.setattr(embedding, "seed_states", lambda seeds: derive(seeds) ^ np.uint64(1))
        provider = DeterministicProvider("det-a", dim=16)
        provider.batch_size = 100
        texts = [f"chunk {i}" for i in range(250)]
        with caplog.at_level(logging.WARNING, logger="multirag.embedding"):
            matrix = provider.embed_matrix(texts)
            again = provider.embed_matrix(texts[::-1])
        assert len(caplog.records) == 1
        assert "per text" in caplog.records[0].getMessage()
        want = np.array([reference_vector("det-a", 16, t) for t in texts])
        assert matrix.tobytes() == want.tobytes()
        assert again.tobytes() == want[::-1].tobytes()

    def test_a_matrix_peaks_below_1_6_times_its_bytes(self):
        import tracemalloc

        texts = [f"chunk {i}: Ann has {i % 7} coins" for i in range(4133)]
        provider = DeterministicProvider("det-a", dim=64)
        provider.batch_size = 1024
        provider.embed_matrix(texts[:64])  # first-use allocations stay out of the peak
        tracemalloc.start()
        try:
            matrix = provider.embed_matrix(texts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * matrix.nbytes


class TestCheckedBatch:
    """``_checked`` stacks a list of vectors and keeps a float64 array batch as it is."""

    def test_a_list_of_vectors_is_stacked(self):
        provider = DeterministicProvider("det-a", dim=3)
        rows = [np.array([1.0, 2.0, 2.0]), np.array([0.0, 3.0, 4.0])]
        block = provider._checked(rows)
        assert block.dtype == np.float64 and block.tolist() == [[1, 2, 2], [0, 3, 4]]
        assert not any(np.shares_memory(block, row) for row in rows)

    def test_a_float64_array_batch_is_not_copied(self):
        provider = DeterministicProvider("det-a", dim=3)
        batch = np.array([[1.0, 2.0, 2.0], [0.0, 3.0, 4.0]])
        assert provider._checked(batch) is batch
        assert provider._checked(batch.astype(np.float32)).dtype == np.float64

    def test_an_array_batch_is_checked_by_its_shape_not_row_by_row(self):
        class NoRows(np.ndarray):
            def __iter__(self):
                raise AssertionError("the batch was walked row by row")

        provider = DeterministicProvider("det-a", dim=3)
        batch = np.array([[1.0, 2.0, 2.0], [0.0, 3.0, 4.0]])
        assert provider._checked(batch.view(NoRows)).tolist() == batch.tolist()
        for bad in (np.ones(3), np.ones((2, 0)), np.ones((2, 3, 1))):
            with pytest.raises(ValueError, match="non-empty 1-D vector"):
                provider._checked(bad)
        with pytest.raises(DimensionMismatchError, match=r"mixed dimensions \[3, 4\]"):
            provider._checked(np.ones((2, 4)))


class TestCosine:
    """Properties of ``kernels.cosine_scores``, the reference scorer for retrieval."""

    def test_self_similarity(self):
        assert cosine(vec(3, 4), vec(3, 4)) == 1.0

    def test_orthogonal(self):
        assert cosine(vec(1, 0), vec(0, 1)) == 0.0

    def test_45_degrees(self):
        assert abs(cosine(vec(1, 0), vec(1, 1)) - 0.7071067811865476) <= 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(2, 16))
            a = vec(*rng.normal(size=d))
            b = vec(*rng.normal(size=d))
            lam = float(rng.uniform(0.01, 100))
            scaled = vec(*(lam * b.values))
            assert abs(cosine(a, scaled) - cosine(a, b)) <= 1e-9

    def test_symmetry_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            d = int(rng.integers(2, 16))
            a, b = vec(*rng.normal(size=d)), vec(*rng.normal(size=d))
            assert cosine(a, b) == cosine(b, a)

    def test_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            d = int(rng.integers(2, 8))
            s = cosine(vec(*rng.normal(size=d)), vec(*rng.normal(size=d)))
            assert -1.0 <= s <= 1.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            d = int(rng.integers(2, 32))
            a, b = rng.normal(size=d), rng.normal(size=d)
            assert abs(cosine(vec(*a), vec(*b)) - cosine_oracle(a, b)) <= 1e-12


class TestVectorValidation:
    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            vec(0, 0, 0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            vec(1.0, float("nan"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingVector(values=np.array([]), model_id="m")


class TestProviderCache:
    def test_compute_called_once_per_text(self):
        calls = []

        class Counting(DeterministicProvider):
            def _compute_batch(self, texts):
                calls.append(list(texts))
                return super()._compute_batch(texts)

        p = Counting("det-a", dim=4)
        p.embed(["a", "b"])
        p.embed(["b", "a", "a"])
        assert calls == [["a", "b"]]

    def test_mixed_dimension_batch_is_fatal(self):
        class Broken(DeterministicProvider):
            def _compute_batch(self, texts):
                return [np.ones(3) if i % 2 else np.ones(4)
                        for i in range(len(texts))]

        with pytest.raises(DimensionMismatchError):
            Broken("bad", dim=4).embed(["a", "b"])


class Fixed(DeterministicProvider):
    """Provider whose batches are given rows, one per text."""

    def __init__(self, rows, batch_size=1024):
        super().__init__("fixed", dim=2)
        self.rows = [np.asarray(r, dtype=float) for r in rows]
        self.batch_size = batch_size
        self.calls = []

    def _compute_batch(self, texts):
        self.calls.append(list(texts))
        return [self.rows[int(t)] for t in texts]


class TestBlockValidation:
    """embed_matrix holds a whole block to EmbeddingVector's rules."""

    @pytest.mark.parametrize("rows, error", [
        ([[1.0, 2.0], [0.0, 0.0]], ZeroVectorError),
        ([[1.0, 2.0], [1.0, float("nan")]], ValueError),
        ([[1.0, 2.0], [float("inf"), 1.0]], ValueError),
        ([[1.0, 2.0], [1.0, 2.0, 3.0]], DimensionMismatchError),
        ([[1.0, 2.0], []], ValueError),
    ])
    def test_bad_row_rejected(self, rows, error):
        with pytest.raises(error):
            Fixed(rows).embed_matrix([str(i) for i in range(len(rows))])

    def test_dimension_checked_across_batches_and_calls(self):
        rows = [[1.0, 2.0], [3.0, 4.0], [1.0, 2.0, 3.0]]
        with pytest.raises(DimensionMismatchError):
            Fixed(rows, batch_size=2).embed_matrix(["0", "1", "2"])
        provider = Fixed(rows)
        provider.embed(["0"])
        with pytest.raises(DimensionMismatchError):
            provider.embed_matrix(["2"])

    def test_matrix_matches_embed_and_bypasses_cache(self):
        rows = [[float(i + 1), float(-i)] for i in range(5)]
        provider = Fixed(rows, batch_size=2)
        texts = ["3", "0", "4", "1", "2"]
        matrix = provider.embed_matrix(texts)
        assert provider.calls == [["3", "0"], ["4", "1"], ["2"]]
        assert np.array_equal(matrix, np.array([rows[int(t)] for t in texts]))
        assert np.array_equal(provider.embed(["4"])[0].values, matrix[2])
        assert provider.calls[-1] == ["4"]  # computed again: the block was not cached

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DeterministicProvider("det-a").embed_matrix([])
