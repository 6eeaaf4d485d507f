"""The coarse path of a selection: a stored matrix's float32 copy is scanned,
and float64 rows are read only where its error bound cannot rank them.

Every selection it serves must equal the one ranked from the whole
float64 row, which ``score_all`` without ``select`` gives, bit for bit.
"""

import json
import logging
import os
import re
import sys
import threading

import numpy as np
import pytest

from multirag import corpus as corpus_module
from multirag.cli import main
from multirag.corpus import COARSE_MIN_STEPS, STEP_ROWS, Chunk, Corpus, coarse_bounds
from multirag.embedding import DeterministicProvider
from multirag.retrieval import score_all, top_k, top_k_by_kind

from oracles import topk_by_kind_oracle, topk_oracle

QUESTION = "How many coins does Ann have?"
ROWS = COARSE_MIN_STEPS * STEP_ROWS + 37  # the fewest steps the coarse path takes
DIM = 16


class Planted(DeterministicProvider):
    """Deterministic vectors, except for the texts in ``planted``."""

    def __init__(self, planted: dict[str, np.ndarray], model_id="det-a", dim=DIM, tag=0):
        super().__init__(model_id, dim=dim)
        self.planted, self.tag = planted, tag
        self.built = 0  # corpus matrices embedded

    def embed_matrix(self, texts):
        if len(texts) > 1:
            self.built += 1
        return super().embed_matrix(texts)

    def fingerprint(self) -> dict:
        return {**super().fingerprint(), "planted": self.tag}

    def _compute_batch(self, texts):
        block = super()._compute_batch(texts)
        for i, text in enumerate(texts):
            if text in self.planted:
                block[i] = self.planted[text]
        return block


def text(i: int) -> str:
    return f"chunk {i} holds {i % 7} coins"


def kind(i: int) -> str:
    return "textbook" if i % 10 == 0 else "qa"


def make_corpus(store, rows=ROWS) -> Corpus:
    corpus = Corpus(store=store)
    for i in range(rows):
        corpus.add(Chunk(id=f"c{i}", text=text(i), kind=kind(i)))
    return corpus


def at_cosine(q: np.ndarray, c: float, rng) -> np.ndarray:
    """A unit vector whose cosine with the unit vector ``q`` is ``c``."""
    w = rng.standard_normal(len(q))
    w -= (w @ q) * q
    return c * q + np.sqrt(1.0 - c * c) * w / np.linalg.norm(w)


def tie_heavy(seed: int, dim=DIM) -> dict[str, np.ndarray]:
    """Near-ties around the cuts, exactly eps and 2 eps apart, and exact
    duplicates of the question at cosine 1.0 within one step and across
    steps."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(dim)
    q /= np.linalg.norm(q)
    eps = coarse_bounds(dim).eps
    planted = {QUESTION: q}
    for i in (101, 103, 700, 3000, ROWS - 2):  # qa rows; 101 and 103 share a step
        planted[text(i)] = q
    positions = rng.permutation(np.arange(1, ROWS))
    for j, c in enumerate(0.9 + eps * np.array([0, 0, 1, -1, 2, -2, 3, -3, 4, 0.5])):
        planted[text(int(positions[j]))] = at_cosine(q, c, rng)
    textbook = [i for i in positions.tolist() if i % 10 == 0]
    for j, c in enumerate(0.8 + eps * np.array([0, 1, -1, 2, -2, 2])):
        planted[text(textbook[j])] = at_cosine(q, c, rng)
    return planted


SELECTIONS = [1, 2, 3, 5, 6, 8, 12, 17,
              {"qa": 3, "textbook": 1}, {"qa": 7, "textbook": 2},
              {"textbook": 4}, {"qa": 1, "textbook": 0}]


def want(select, whole) -> list[str]:
    """The brute-force oracle over the whole float64 row."""
    pairs = list(zip(whole.index.ids, whole.values.tolist()))
    if isinstance(select, dict):
        return topk_by_kind_oracle(pairs, select, {f"c{i}": kind(i) for i in range(ROWS)})
    return topk_oracle(pairs, select)


def selected(row, select) -> list[str]:
    return top_k_by_kind(row, select) if isinstance(select, dict) else top_k(row, select)


def store_with_copy(store, provider_of):
    """A store holding the float64 matrix and its copy, which the first
    selection writes."""
    score_all(provider_of(), QUESTION, make_corpus(store), select=1)
    (path,) = [p for p in store.iterdir() if p.name.endswith(".npy")
               and not p.name.endswith(".f32.npy")]
    return path, path.with_suffix(".f32.npy")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_selection_equals_the_oracle_over_the_whole_row(tmp_path, caplog, seed):
    planted = tie_heavy(seed)
    store_with_copy(tmp_path, lambda: Planted(planted, tag=seed))
    whole = score_all(Planted(planted, tag=seed), QUESTION, make_corpus(None))
    assert whole.values.max() == 1.0 and (whole.values == 1.0).sum() >= 5
    caplog.set_level(logging.DEBUG, logger="multirag.corpus")
    recomputed = 0
    for select in SELECTIONS:
        caplog.clear()
        row = score_all(Planted(planted, tag=seed), QUESTION, make_corpus(tmp_path),
                        select=select)
        (line,) = [r.getMessage() for r in caplog.records if "coarse path" in r.getMessage()]
        recomputed += int(line.split(" steps recomputed")[0].rsplit(" ", 1)[1])
        assert selected(row, select) == want(select, whole), select
    assert recomputed > 0  # the duplicates at cosine 1.0 could not be ranked from the gather


def test_exact_duplicates_across_steps_keep_ingestion_order(tmp_path):
    planted = tie_heavy(0)
    store_with_copy(tmp_path, lambda: Planted(planted))
    row = score_all(Planted(planted), QUESTION, make_corpus(tmp_path), select=5)
    assert top_k(row, 5) == ["c101", "c103", "c700", "c3000", f"c{ROWS - 2}"]


def perturbed(block: np.ndarray, vector: np.ndarray, shifts: dict[int, float]) -> np.ndarray:
    """``block`` in float32, with each row ``i`` of ``shifts`` moved so that
    its score against ``vector`` moves by ``shifts[i]``, its norm by a
    second-order amount only."""
    copy = block.astype(np.float32)
    for i, shift in shifts.items():
        x = block[i]
        s = x @ vector
        copy[i] = x + shift / (1.0 - s * s) * (vector - s * x)
    return copy


def test_a_copy_off_by_almost_eps_still_ranks_exactly(tmp_path, caplog):
    # Row a scores 0.1 eps below row b, but the copy moves a up and b down by
    # 0.8 eps each: a leads the coarse scan by about 1.5 eps, and b is kept
    # only because the shortlist reaches 2 eps below the cut. A shortlist of
    # 1 eps would drop b, and a bound of half eps would reject the copy.
    dim = 256
    eps = coarse_bounds(dim).eps
    rng = np.random.default_rng(5)
    q = rng.standard_normal(dim)
    q /= np.linalg.norm(q)
    a, b = 1203, 2999
    planted = {QUESTION: q, text(a): at_cosine(q, 0.9 - 0.1 * eps, rng),
               text(b): at_cosine(q, 0.9, rng)}
    path, copy_path = store_with_copy(tmp_path, lambda: Planted(planted, dim=dim))
    block = np.load(path)
    np.save(copy_path, perturbed(block, q, {a: 0.8 * eps, b: -0.8 * eps}))
    coarse = np.load(copy_path) @ q.astype(np.float32)
    assert 1.3 * eps < coarse[a] - coarse[b] < 1.7 * eps
    caplog.set_level(logging.DEBUG, logger="multirag.corpus")
    row = score_all(Planted(planted, dim=dim), QUESTION, make_corpus(tmp_path), select=1)
    assert "coarse path: shortlist of 2 rows gathered" in caplog.text
    assert top_k(row, 1) == [f"c{b}"]
    assert "full pass" not in caplog.text


@pytest.mark.parametrize("dim", [1, 16, 256, 384, 4096])
def test_the_bounds_follow_the_rounding_error_analysis(dim):
    # gamma(n) = n u / (1 - n u) per dot product; the rounding of both unit
    # vectors to float32 adds 2 u32; norms of 1 + 1e-9 and 1 + gamma64(dim + 2)
    u32, u64 = 2.0 ** -24, 2.0 ** -53
    g32, g64 = dim * u32 / (1 - dim * u32), dim * u64 / (1 - dim * u64)
    norms = (1 + 1e-9) * (1 + (dim + 2) * u64 / (1 - (dim + 2) * u64))
    bound = coarse_bounds(dim)
    assert bound.eps == pytest.approx((g32 * (1 + u32) ** 2 + 2 * u32 + u32 ** 2 + g64) * norms,
                                      rel=1e-12)
    assert bound.eta == pytest.approx(2 * g64 * norms, rel=1e-12)
    assert bound.norm_tol == pytest.approx(1e-9 + 2 * u32 + g32, rel=1e-12)


def test_the_bounds_at_the_benchmark_dimension():
    bound = coarse_bounds(384)
    assert 2.29e-5 < bound.eps < 2.31e-5
    assert 8.5e-14 < bound.eta < 8.6e-14
    assert bound.eps < bound.norm_tol < 2.4e-5


def test_gathered_values_within_2_eta_are_replaced_by_the_stepped_ones():
    # A gathered product may round differently from the stepped one, by up
    # to eta. Rows 3 and 600 are duplicates, so their stepped scores tie and
    # ingestion order ranks 3 first; gathered values eta apart in the other
    # order must not decide, nor may a neighbour 1.5 eta away (row 1200).
    rng = np.random.default_rng(0)
    block = rng.standard_normal((1600, DIM))
    block /= np.linalg.norm(block, axis=1, keepdims=True)
    block[600] = block[3]
    vector = block[3] + 0.1 * block[9]
    vector /= np.linalg.norm(vector)
    bounds = corpus_module._step_bounds(len(block))
    stepped = np.empty(len(block))
    corpus_module._row_steps(block, vector, stepped, None, bounds)
    eta = coarse_bounds(DIM).eta
    positions = np.array([3, 600, 1200, 1500])
    values = stepped[positions] + np.array([-eta / 2, eta / 2, 0.0, 0.0])
    values[2] = values[0] - 1.5 * eta
    recomputed = corpus_module._resolve(block, vector, bounds, positions, values, eta)
    assert recomputed == 3  # one step each for rows 3, 600 and 1200
    assert values.tobytes() == np.clip(stepped[positions], -1, 1).tobytes()


def _missing(copy_path, block):
    copy_path.unlink()


def _truncated(copy_path, block):
    data = copy_path.read_bytes()
    copy_path.write_bytes(data[:len(data) // 2])


def _wrong_dtype(copy_path, block):
    np.save(copy_path, block)


def _wrong_shape(copy_path, block):
    np.save(copy_path, block[:-1].astype(np.float32))


def _nan(copy_path, block):
    copy = block.astype(np.float32)
    copy[5, 2] = np.nan
    np.save(copy_path, copy)


def _not_unit(copy_path, block):
    copy = block.astype(np.float32)
    copy[7] *= 1.001
    np.save(copy_path, copy)


def _stale(copy_path, block):
    # unit-norm rows, so only the float64 rows gathered show it is not this matrix's copy
    np.save(copy_path, block[::-1].astype(np.float32))


@pytest.mark.parametrize("corrupt, reason", [
    (_missing, "no float32 copy"),
    (_truncated, "float32 copy rejected ("),
    (_wrong_dtype, "float32 copy rejected (a header other than that of <f4"),
    (_wrong_shape, f"float32 copy rejected ({128 + (ROWS - 1) * DIM * 4} bytes, want 128 plus"),
    (_nan, "float32 copy rejected (non-finite entries)"),
    (_not_unit, "float32 copy rejected (rows that are not unit-norm)"),
    (_stale, "float32 copy incoherent (row "),
], ids=lambda v: getattr(v, "__name__", "")[1:])
def test_a_bad_copy_takes_the_full_pass_and_is_rewritten(tmp_path, caplog, corrupt, reason):
    planted = tie_heavy(3)
    path, copy_path = store_with_copy(tmp_path, lambda: Planted(planted))
    block = np.load(path)
    corrupt(copy_path, block)
    whole = score_all(Planted(planted), QUESTION, make_corpus(None))
    caplog.set_level(logging.DEBUG, logger="multirag.corpus")
    provider = Planted(planted)
    select = {"qa": 3, "textbook": 1}
    row = score_all(provider, QUESTION, make_corpus(tmp_path), select=select)
    assert provider.built == 0  # the float64 file was loaded, not rebuilt
    (line,) = [r.getMessage() for r in caplog.records if "full pass" in r.getMessage()]
    assert line.startswith(f"loaded the {ROWS} x {DIM} corpus matrix of 'det-a'")
    assert f"; full pass: {reason}" in line
    assert "coarse path" not in caplog.text
    assert selected(row, select) == want(select, whole)
    assert row.values.tobytes() == whole.values.tobytes()  # a whole row already
    assert np.load(copy_path).tobytes() == block.astype(np.float32).tobytes()
    caplog.clear()
    row = score_all(Planted(planted), QUESTION, make_corpus(tmp_path), select=select)
    assert "coarse path" in caplog.text
    assert selected(row, select) == want(select, whole)


def test_a_bad_float64_row_read_by_the_gather_is_rebuilt(tmp_path, caplog):
    planted = tie_heavy(4)
    path, copy_path = store_with_copy(tmp_path, lambda: Planted(planted))
    block = np.load(path)
    whole = score_all(Planted(planted), QUESTION, make_corpus(None))
    top = int(top_k(whole, 1)[0][1:])
    bad = block.copy()
    bad[top] *= 1.0 + 1e-6
    np.save(path, bad)
    caplog.set_level(logging.DEBUG, logger="multirag.corpus")
    row = score_all(Planted(planted), QUESTION, make_corpus(tmp_path), select=3)
    assert "float64 rows that are not unit-norm among the rows gathered" in caplog.text
    assert "rejected the stored corpus matrix" in caplog.text
    assert top_k(row, 3) == want(3, whole)
    assert np.load(path).tobytes() == block.tobytes()
    assert np.load(copy_path).tobytes() == block.astype(np.float32).tobytes()


@pytest.mark.parametrize("select", [3, {"qa": 3, "textbook": 1}])
def test_a_completed_row_equals_the_whole_row_bit_for_bit(tmp_path, caplog, select):
    planted = tie_heavy(1)
    store_with_copy(tmp_path, lambda: Planted(planted))
    whole = score_all(Planted(planted), QUESTION, make_corpus(None))
    for use in ("values", "scores", "zscores", "other selection"):
        caplog.set_level(logging.DEBUG, logger="multirag.corpus")
        caplog.clear()
        row = score_all(Planted(planted), QUESTION, make_corpus(tmp_path), select=select)
        assert "coarse path" in caplog.text and "full pass" not in caplog.text
        if use == "values":
            assert row.values.tobytes() == whole.values.tobytes()
        elif use == "scores":
            assert list(row.scores.items()) == list(whole.scores.items())
        elif use == "zscores":
            assert row.zscores().tobytes() == whole.zscores().tobytes()
        else:
            assert top_k(row, 9) == top_k(whole, 9)
        (line,) = [r.getMessage() for r in caplog.records if "full pass" in r.getMessage()]
        assert line.endswith("; full pass: whole row needed")
        assert row.values.tobytes() == whole.values.tobytes()
        assert selected(row, select) == selected(whole, select)


def test_small_matrices_and_whole_rows_keep_the_full_pass(tmp_path, caplog):
    planted = tie_heavy(0)
    small = COARSE_MIN_STEPS * STEP_ROWS - 1
    caplog.set_level(logging.DEBUG, logger="multirag.corpus")
    for _ in range(2):
        score_all(Planted(planted), QUESTION, make_corpus(tmp_path, rows=small), select=2)
    assert caplog.text.count(f"full pass: a matrix of fewer than {COARSE_MIN_STEPS} steps") == 2
    assert not list(tmp_path.glob("*.f32.npy"))
    caplog.clear()
    score_all(Planted(planted), QUESTION, make_corpus(None), select=2)
    assert "full pass: no store" in caplog.text
    caplog.clear()
    store_with_copy(tmp_path / "big", lambda: Planted(planted))
    score_all(Planted(planted), QUESTION, make_corpus(tmp_path / "big"))
    assert "full pass: whole row needed" in caplog.text


def test_a_warm_index_serves_later_selections_from_the_copy(tmp_path, caplog, monkeypatch):
    planted = tie_heavy(2)
    store_with_copy(tmp_path, lambda: Planted(planted))
    whole = score_all(Planted(planted), QUESTION, make_corpus(None))
    corpus = make_corpus(tmp_path)
    provider = Planted(planted)
    calls = []
    load = corpus_module._map_exact

    def counting(*args):
        calls.append(args[1])
        return load(*args)

    monkeypatch.setattr(corpus_module, "_map_exact", counting)
    for select in SELECTIONS:
        assert selected(score_all(provider, QUESTION, corpus, select=select),
                        select) == want(select, whole)
    assert calls == ["<f8", "<f4"]  # mapped once, then held


def test_concurrent_confident_run_takes_the_coarse_path_as_the_serial_one(tmp_path, caplog):
    from multirag.config import default_template_text
    from multirag.generation import MockBackend
    from multirag.pipeline import PipelineConfig, run_confident
    from multirag.retrieval import PromptTemplate
    models = ["det-a", "det-b", "det-c", "det-d"]
    planted = tie_heavy(6)

    def run(concurrency, quotas):
        cfg = PipelineConfig(
            providers=[Planted(planted, model_id=m) for m in models],
            backend=MockBackend(seed=3), template=PromptTemplate(text=default_template_text()),
            k=4, quotas=quotas, concurrency=concurrency)
        result = run_confident("q", QUESTION, models, make_corpus(tmp_path), cfg)
        return (result.answer, result.winner_index, result.retrieved,
                [(r.embedding_model, r.prompt, r.completion) for r in result.records])

    for quotas in (None, {"qa": 3, "textbook": 1}):
        cold = run(1, quotas)
        caplog.set_level(logging.DEBUG, logger="multirag.corpus")
        caplog.clear()
        concurrent = run(4, quotas)
        assert caplog.text.count("coarse path") == len(models)
        assert "full pass" not in caplog.text
        assert concurrent == run(1, quotas) == cold
        assert all(len(ids) == 4 for ids in cold[2].values())


def test_threads_share_one_warm_index(tmp_path):
    planted = tie_heavy(7)
    store_with_copy(tmp_path, lambda: Planted(planted))
    whole = score_all(Planted(planted), QUESTION, make_corpus(None))
    corpus, provider = make_corpus(tmp_path), Planted(planted)
    results, errors = [], []

    def worker(select):
        try:
            for _ in range(5):
                row = score_all(provider, QUESTION, corpus, select=select)
                results.append(selected(row, select) == want(select, whole))
        except Exception as e:  # surfaced by the assertion below
            errors.append(e)

    threads = [threading.Thread(target=worker, args=(s,)) for s in SELECTIONS[:6]]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(results) == 30 and all(results)


def cli_config(tmp_path, **fields):
    """A CLI config of det-a and det-b at dimension 8 over ROWS chunks
    written to a corpus file, with ``fields`` added."""
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("".join(json.dumps({"id": f"c{i}", "text": text(i), "kind": kind(i)})
                                   + "\n" for i in range(ROWS)))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "embedding": {"models": ["det-a", "det-b"], "dimension": 8},
        "eval": {"combination_sizes": [2]},
        "corpus": [{"path": str(corpus_path), "kind": "qa"}],
        "output_dir": str(tmp_path / "out"), "seed": 7, **fields}))
    return cfg


def test_ask_verbose_shows_which_path_each_load_took(tmp_path, caplog):
    cfg = cli_config(tmp_path)
    caplog.set_level(logging.DEBUG, logger="multirag.corpus")
    for _ in range(2):
        assert main(["ask", QUESTION, "--config", str(cfg), "--verbose"]) == 0
    lines = [r.getMessage() for r in caplog.records if "corpus matrix of" in r.getMessage()]
    assert [line.split(" corpus matrix of ")[1][:7] for line in lines] == [
        "'det-a'", "'det-b'", "'det-a'", "'det-b'"]
    assert all(line.endswith("full pass: no stored matrix") for line in lines[:2])
    assert all(f"{ROWS} x 8 corpus matrix" in line and "coarse path: shortlist of " in line
               and " steps recomputed (map " in line for line in lines[2:])


def test_no_matrix_pass_starts_a_thread_at_concurrency_1(tmp_path, caplog, monkeypatch):
    """Every pass over a corpus matrix runs on the calling thread: a cold
    ask that builds and writes the files, a warm ask on the coarse path, an
    eval that loads the float64 files and a tie-heavy ask whose near-ties
    recompute steps start no thread."""
    gold_path = tmp_path / "gold.jsonl"
    gold_path.write_text(json.dumps({"id": "q0", "question": QUESTION, "answer": "3"}) + "\n")
    cfg = cli_config(tmp_path, gold_path=str(gold_path), concurrency=1,
                     eval={"pipelines": ["vanilla", "confident"], "combination_sizes": [2]})
    models = ["det-a", "det-b"]
    ties = confident_config(models, quotas={"qa": 3, "textbook": 1}, planted=tie_heavy(12))
    confident(make_corpus(tmp_path / "ties"), ties, models)  # builds the tie-heavy store
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    caplog.set_level(logging.DEBUG, logger="multirag.corpus")

    def ask():
        assert main(["ask", QUESTION, "--config", str(cfg)]) == 0

    def evaluate():
        assert main(["eval", "--config", str(cfg)]) == 0

    def tie_heavy_ask():
        confident(make_corpus(tmp_path / "ties"), ties, models)

    runs = [("cold ask", ask, "built the "), ("warm ask", ask, "coarse path"),
            ("eval", evaluate, "loaded the "), ("tie-heavy ask", tie_heavy_ask, "coarse path")]
    for name, run, path_taken in runs:
        caplog.clear()
        run()
        assert path_taken in caplog.text, name
        assert started == [], name
    recomputed = [int(n) for n in re.findall(r"(\d+) steps recomputed", caplog.text)]
    assert len(recomputed) == len(models) and sum(recomputed) > 0


def confident_config(models, concurrency=1, quotas=None, planted=None, dim=DIM,
                     provider=Planted):
    from multirag.config import default_template_text
    from multirag.generation import MockBackend
    from multirag.pipeline import PipelineConfig
    from multirag.retrieval import PromptTemplate
    providers = [provider(planted or {}, model_id=m, dim=dim) for m in models]
    return PipelineConfig(
        providers=providers, backend=MockBackend(seed=3),
        template=PromptTemplate(text=default_template_text()),
        k=4, quotas=quotas, concurrency=concurrency)


def confident(corpus, cfg, models):
    from multirag.pipeline import run_confident
    result = run_confident("q", QUESTION, models, corpus, cfg)
    return (result.answer, result.winner_index, result.retrieved,
            [(r.embedding_model, r.prompt, r.completion) for r in result.records])


def test_a_built_matrix_is_dropped_and_then_served_from_its_files(tmp_path, caplog,
                                                                   monkeypatch):
    planted = tie_heavy(8)
    whole = score_all(Planted(planted), QUESTION, make_corpus(None))
    corpus, provider = make_corpus(tmp_path), Planted(planted)
    select = {"qa": 3, "textbook": 1}
    caplog.set_level(logging.DEBUG, logger="multirag.corpus")
    first = score_all(provider, QUESTION, corpus, select=select)
    assert provider.built == 1 and "full pass: no stored matrix" in caplog.text
    assert first.values.tobytes() == whole.values.tobytes()
    assert "serving 'det-a' from the stored files " in caplog.text
    slot = corpus.index()._matrices[provider]
    assert slot.block is None and slot.coarse is None
    path = corpus.index().stored_path(provider)
    copy_path = path.with_suffix(".f32.npy")
    block = np.load(path)

    def replace_both(rows):  # by a rename, as README asks; unit-norm rows pass the checks
        for name, data in ((path, rows), (copy_path, rows.astype(np.float32))):
            np.save(tmp_path / "replacement.npy", data)
            os.replace(tmp_path / "replacement.npy", name)

    # files that fail their checks before the next use are caught and rebuilt
    replace_both(2 * block)
    caplog.clear()
    assert selected(score_all(provider, QUESTION, corpus, select=select),
                    select) == want(select, whole)
    assert provider.built == 2 and "float32 copy rejected" in caplog.text
    assert slot.block is None and slot.coarse is None
    maps, passes = [], []
    map_exact, row_steps = corpus_module._map_exact, corpus_module._row_steps
    every_step = corpus_module._step_bounds(ROWS)

    def counting_map(*args):
        maps.append(args)
        return map_exact(*args)

    def counting_pass(block, vector, scores, squares, bounds):
        if bounds == every_step:  # a scan, not a step _resolve recomputes
            passes.append((block.dtype.str, squares is None))
        return row_steps(block, vector, scores, squares, bounds)

    monkeypatch.setattr(corpus_module, "_map_exact", counting_map)
    monkeypatch.setattr(corpus_module, "_row_steps", counting_pass)
    held = score_all(provider, QUESTION, corpus, select=select)
    # the warm coarse path: both files mapped, the copy's norms checked in its scan
    assert len(maps) == 2 and passes == [("<f4", False)]
    again = score_all(provider, QUESTION, corpus, select=select)
    assert len(maps) == 2 and passes[1:] == [("<f4", True)]
    warm = score_all(Planted(planted), QUESTION, make_corpus(tmp_path), select=select)
    assert selected(held, select) == selected(again, select) == selected(warm, select) == (
        want(select, whole))
    # files renamed over the mapped ones leave the held engine's selections unchanged
    replace_both(block[::-1])
    for select in SELECTIONS:
        assert selected(score_all(provider, QUESTION, corpus, select=select),
                        select) == want(select, whole), select
    row = score_all(provider, QUESTION, corpus, select=3)
    assert row.values.tobytes() == whole.values.tobytes()
    assert provider.built == 2
    assert top_k(score_all(Planted(planted), QUESTION, make_corpus(tmp_path), select=3),
                 3) != top_k(whole, 3)  # the files on disk did change


def test_each_build_says_whether_the_store_serves_it_from_then_on(tmp_path, caplog):
    planted = tie_heavy(9)
    caplog.set_level(logging.DEBUG, logger="multirag.corpus")

    def keep_lines(store, select, rows=ROWS):
        caplog.clear()
        score_all(Planted(planted), QUESTION, make_corpus(store, rows=rows), select=select)
        return [r.getMessage() for r in caplog.records
                if r.getMessage().startswith(("keeping the built", "serving "))]

    def one_file(store, rows=ROWS):
        (path,) = store.glob("*.npy")
        return [f"serving 'det-a' from the stored file {path.name}; releasing the "
                f"{rows * DIM * 8 / 1e6:.1f} MB matrix it built"]

    assert keep_lines(None, 3) == ["keeping the built matrix of 'det-a' in memory: no store"]
    assert keep_lines(tmp_path / "whole", None) == one_file(tmp_path / "whole")
    small = COARSE_MIN_STEPS * STEP_ROWS - 1
    assert keep_lines(tmp_path / "small", 3, rows=small) == one_file(tmp_path / "small", small)
    blocked = tmp_path / "blocked"
    blocked.write_text("a file where the store should be")
    assert keep_lines(blocked / "index", 3) == [
        "keeping the built matrix of 'det-a' in memory: write failed"]
    (line,) = keep_lines(tmp_path / "coarse", 3)
    (path,) = [p for p in (tmp_path / "coarse").glob("*.npy") if ".f32" not in p.name]
    assert line == (f"serving 'det-a' from the stored files {path.name} and "
                    f"{path.stem}.f32.npy; releasing the {ROWS * DIM * 8 / 1e6:.1f} MB "
                    "matrix it built")
    assert "corpus matrix of" not in line  # the load lines' count stays theirs
    assert keep_lines(tmp_path / "coarse", 3) == []  # a load, not a build


def test_an_unwritable_store_warns_once_per_coarse_matrix(tmp_path, caplog):
    models = ["det-a", "det-b"]
    planted = tie_heavy(10)
    quotas = {"qa": 3, "textbook": 1}
    want_result = confident(make_corpus(None), confident_config(models, quotas=quotas,
                                                                planted=planted), models)
    blocked = tmp_path / "blocked"
    blocked.write_text("a file where the store's parent directory should be")
    caplog.set_level(logging.WARNING, logger="multirag.corpus")
    got = confident(make_corpus(blocked / "index"),
                    confident_config(models, quotas=quotas, planted=planted), models)
    assert got == want_result
    # the float32 copy is neither converted nor written once its matrix failed to store
    assert [r.getMessage().split(" at ")[0] for r in caplog.records] == [
        "could not store the corpus matrix"] * len(models)
    assert blocked.read_text().startswith("a file")


class SmallBatches(DeterministicProvider):
    """``DeterministicProvider`` under ``confident_config``'s provider
    signature, in batches small enough that a batch's temporaries are a
    small part of a corpus matrix (a vector does not depend on its batch)."""

    batch_size = 128

    def __init__(self, planted, model_id, dim):
        super().__init__(model_id, dim=dim)


def test_a_cold_confident_run_with_a_store_holds_one_built_matrix_at_a_time(tmp_path):
    import tracemalloc
    models = ["det-a", "det-b", "det-c", "det-d"]
    dim = 64
    matrix_bytes = ROWS * dim * 8

    def peak(store):
        corpus = make_corpus(store)
        corpus.index()
        cfg = confident_config(models, quotas={"qa": 3, "textbook": 1}, dim=dim,
                               provider=SmallBatches)
        tracemalloc.start()
        try:
            result = confident(corpus, cfg, models)
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    stored, result = peak(tmp_path)
    control, want_result = peak(None)
    assert result == want_result
    assert control > len(models) * matrix_bytes  # without a store all four stay held
    assert stored < 2 * matrix_bytes


def test_a_cold_sweep_with_a_store_holds_one_built_matrix_at_a_time(tmp_path):
    """``eval``'s flows score whole rows: with a store each build is written
    and dropped as well, so a cold sweep holds one at a time."""
    import tracemalloc
    from multirag.evaluation import QAItem, run_sweep
    models = ["det-a", "det-b", "det-c", "det-d"]
    dim = 64
    matrix_bytes = ROWS * dim * 8

    def peak(store):
        corpus = make_corpus(store)
        corpus.index()
        cfg = confident_config(models, dim=dim, provider=SmallBatches)
        items = [QAItem(id="q0", question=QUESTION, answer="3")]
        tracemalloc.start()
        try:
            results = run_sweep(corpus, items, cfg, pipelines=["vanilla", "mixture"],
                                sizes=[2, 4])
            return tracemalloc.get_traced_memory()[1], [
                (r.pipeline, r.answer, r.retrieved) for r in results]
        finally:
            tracemalloc.stop()

    stored, results = peak(tmp_path)
    control, want_results = peak(None)
    assert results == want_results and len(results) == 1 + 4 + 7
    assert control > len(models) * matrix_bytes  # without a store all four stay held
    assert stored < 2 * matrix_bytes


def test_a_cold_concurrent_confident_run_equals_the_serial_one(tmp_path, caplog):
    models = ["det-a", "det-b", "det-c", "det-d"]
    planted = tie_heavy(11)
    caplog.set_level(logging.DEBUG, logger="multirag.corpus")
    for quotas in (None, {"qa": 3, "textbook": 1}):
        runs = {}
        for concurrency in (1, 4):
            store = tmp_path / f"{concurrency}-{quotas is None}"
            corpus = make_corpus(store)
            cfg = confident_config(models, concurrency, quotas, planted)
            caplog.clear()
            runs[concurrency] = [confident(corpus, cfg, models)]
            assert caplog.text.count("serving 'det-") == len(models)
            runs[concurrency].append(confident(corpus, cfg, models))  # the held engine
            assert all(p.built == 1 for p in cfg.providers)
        assert runs[4] == runs[1] and runs[1][0] == runs[1][1]
