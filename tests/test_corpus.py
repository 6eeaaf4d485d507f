import json
import logging
import mmap
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from multirag import corpus as corpus_module
from multirag.corpus import STEP_ROWS, Chunk, ChunkIndex, Corpus, _unit_rows
from multirag.embedding import DeterministicProvider, RemoteProvider
from multirag.errors import (
    DimensionMismatchError,
    DuplicateChunkError,
    MalformedLineError,
    UnknownChunkError,
)
from multirag.retrieval import score_all


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


def test_ingest_jsonl_counts_lines(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [
        {"id": "a", "text": "one"},
        {"id": "b", "text": "two"},
        {"id": "c", "text": "three"},
    ])
    corpus = Corpus()
    assert corpus.ingest(path, kind="qa") == 3
    assert len(corpus) == 3


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert Corpus().ingest(path, kind="qa") == 0


def test_duplicate_id_names_the_id(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [
        {"id": "a", "text": "one"},
        {"id": "a", "text": "two"},
    ])
    with pytest.raises(DuplicateChunkError) as exc:
        Corpus().ingest(path, kind="qa")
    assert "'a'" in str(exc.value)


def test_duplicate_across_files_is_atomic(tmp_path):
    first = write_jsonl(tmp_path / "one.jsonl", [{"id": "a", "text": "one"}])
    second = write_jsonl(tmp_path / "two.jsonl", [
        {"id": "b", "text": "two"},
        {"id": "a", "text": "again"},
    ])
    corpus = Corpus()
    corpus.ingest(first, kind="qa")
    with pytest.raises(DuplicateChunkError):
        corpus.ingest(second, kind="qa")
    # nothing from the failing file may have been stored
    assert len(corpus) == 1
    with pytest.raises(UnknownChunkError):
        corpus.get("b")


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a", "text": "one"}\nnot json\n')
    with pytest.raises(MalformedLineError) as exc:
        Corpus().ingest(path, kind="qa")
    assert exc.value.line_no == 2


def test_missing_text_rejected(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [{"id": "a"}])
    with pytest.raises(MalformedLineError):
        Corpus().ingest(path, kind="qa")


def test_unreadable_file(tmp_path):
    with pytest.raises(MalformedLineError):
        Corpus().ingest(tmp_path / "missing.jsonl", kind="qa")


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085"])
def test_jsonl_lines_end_at_newline_only(tmp_path, sep):
    text = f"one line{sep}still the same line"
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({"id": "a", "text": text}, ensure_ascii=False) + "\n"
                    + json.dumps({"id": "b", "text": "two"}) + "\n", encoding="utf-8")
    corpus = Corpus()
    assert corpus.ingest(path, kind="qa") == 2
    assert corpus.get("a").text == text


def test_get_round_trip(tmp_path):
    text = "x é café  \n two lines"
    path = write_jsonl(tmp_path / "c.jsonl", [
        {"id": "a", "text": text}, {"id": "b", "text": "y"}])
    corpus = Corpus()
    corpus.ingest(path, kind="qa")
    assert corpus.get("a").text == text
    assert corpus.get("b").text == "y"


def test_get_unknown_id():
    with pytest.raises(UnknownChunkError):
        Corpus().get("missing")


def test_plain_text_blank_line_chunks(tmp_path):
    path = tmp_path / "notes.txt"
    path.write_text("first chunk\nstill first\n\nsecond chunk\n\n\nthird\n")
    corpus = Corpus()
    assert corpus.ingest(path, kind="textbook") == 3
    assert corpus.ids() == ["chunk-0", "chunk-1", "chunk-2"]
    assert corpus.get("chunk-0").text == "first chunk\nstill first"
    assert all(c.kind == "textbook" for c in corpus)


def test_jsonl_kind_field_overrides_default(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [
        {"id": "a", "text": "one", "kind": "textbook"},
        {"id": "b", "text": "two"},
    ])
    corpus = Corpus()
    corpus.ingest(path, kind="qa")
    assert corpus.get("a").kind == "textbook"
    assert corpus.get("b").kind == "qa"


def test_invalid_kind_in_line(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [{"id": "a", "text": "x", "kind": "web"}])
    with pytest.raises(MalformedLineError):
        Corpus().ingest(path, kind="qa")


def test_kind_index_partitions_corpus(tmp_path):
    qa = write_jsonl(tmp_path / "qa.jsonl",
                     [{"id": f"q{i}", "text": f"t{i}"} for i in range(5)])
    tb = tmp_path / "tb.txt"
    tb.write_text("a\n\nb\n")
    corpus = Corpus()
    corpus.ingest(qa, kind="qa")
    corpus.ingest(tb, kind="textbook")
    counts = corpus.kind_counts()
    assert sum(counts.values()) == len(corpus) == 7
    assert counts == {"qa": 5, "textbook": 2}


def test_iteration_order_is_ingestion_order(tmp_path):
    rows = [{"id": f"c{i}", "text": f"t{i}"} for i in range(10)]
    path = write_jsonl(tmp_path / "c.jsonl", rows)
    corpus = Corpus()
    corpus.ingest(path, kind="qa")
    assert [c.id for c in corpus] == [r["id"] for r in rows]
    assert [corpus.position(r["id"]) for r in rows] == list(range(10))


def test_chunk_validation():
    with pytest.raises(ValueError):
        Chunk(id="a", text="   ", kind="qa")
    with pytest.raises(ValueError):
        Chunk(id="a", text="x", kind="web")
    with pytest.raises(ValueError):
        Chunk(id="", text="x", kind="qa")


@pytest.mark.parametrize("raw_id", [0, False, [], {}, 5, 1.5, ["a"], {"a": 1}, True])
def test_jsonl_id_that_is_not_a_string_is_rejected(tmp_path, raw_id):
    path = write_jsonl(tmp_path / "c.jsonl", [{"id": "a", "text": "one"},
                                              {"id": raw_id, "text": "two"}])
    corpus = Corpus()
    with pytest.raises(MalformedLineError) as exc:
        corpus.ingest(path, kind="qa")
    assert exc.value.line_no == 2
    assert str(exc.value).endswith(":2: 'id' must be a string")
    assert len(corpus) == 0


def test_jsonl_absent_null_or_empty_id_is_auto_assigned(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [
        {"text": "one"}, {"id": None, "text": "two"}, {"id": "", "text": "three"},
        {"id": "x", "text": "four"}])
    corpus = Corpus()
    corpus.ingest(path, kind="qa")
    assert corpus.ids() == ["chunk-0", "chunk-1", "chunk-2", "x"]


@pytest.mark.parametrize("source", [None, 3, ["s"], {"s": 1}, False])
def test_jsonl_source_must_be_a_string(tmp_path, source):
    path = write_jsonl(tmp_path / "c.jsonl", [{"id": "a", "text": "one", "source": source}])
    with pytest.raises(MalformedLineError) as exc:
        Corpus().ingest(path, kind="qa")
    assert str(exc.value).endswith(":1: 'source' must be a string")


def test_jsonl_source_defaults_to_the_path(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [{"id": "a", "text": "one"},
                                              {"id": "b", "text": "two", "source": "web"}])
    corpus = Corpus()
    corpus.ingest(path, kind="qa")
    assert [c.source for c in corpus] == [str(path), "web"]


# ---------------------------------------------------------------------------
# the column store against a per-Chunk reference ingest
# ---------------------------------------------------------------------------

class ReferenceCorpus:
    """Per-``Chunk`` ingestion, the design the column store replaced: every
    line becomes a ``Chunk`` that is checked and added on its own. It
    applies the same id, source and duplicate rules."""

    def __init__(self):
        self.chunks: list[Chunk] = []
        self.by_id: dict[str, Chunk] = {}

    def fresh_id(self, taken: set[str]) -> str:
        n = len(self.chunks) + len(taken)
        while True:
            cand = f"chunk-{n}"
            if cand not in self.by_id and cand not in taken:
                return cand
            n += 1

    def ingest(self, path: Path, kind: str) -> int:
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError as e:
            raise MalformedLineError(str(path), 0, f"unreadable file: {e}") from e
        if path.suffix.lower() == ".jsonl":
            pending = self.parse_jsonl(str(path), raw, kind)
        else:
            pending = self.parse_plain(raw, kind, str(path))
        seen: set[str] = set()
        for chunk in pending:
            if chunk.id in self.by_id or chunk.id in seen:
                raise DuplicateChunkError(chunk.id)
            seen.add(chunk.id)
        for chunk in pending:
            self.chunks.append(chunk)
            self.by_id[chunk.id] = chunk
        return len(pending)

    def parse_jsonl(self, path: str, raw: str, default_kind: str) -> list[Chunk]:
        chunks: list[Chunk] = []
        assigned: set[str] = set()
        for line_no, line in enumerate(raw.split("\n"), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise MalformedLineError(path, line_no, f"invalid JSON: {e.msg}") from e
            if not isinstance(obj, dict):
                raise MalformedLineError(path, line_no, "expected a JSON object")
            text = obj.get("text")
            if not isinstance(text, str) or not text.strip():
                raise MalformedLineError(path, line_no, "missing or empty 'text'")
            kind = obj.get("kind", default_kind)
            if kind not in ("qa", "textbook"):
                raise MalformedLineError(path, line_no, f"unknown kind {kind!r}")
            chunk_id = obj.get("id")
            if chunk_id in (None, ""):
                chunk_id = self.fresh_id(assigned)
            if not isinstance(chunk_id, str):
                raise MalformedLineError(path, line_no, "'id' must be a string")
            source = obj.get("source", path)
            if not isinstance(source, str):
                raise MalformedLineError(path, line_no, "'source' must be a string")
            assigned.add(chunk_id)
            chunks.append(Chunk(id=chunk_id, text=text, kind=kind, source=source))
        return chunks

    def parse_plain(self, raw: str, kind: str, source: str) -> list[Chunk]:
        chunks: list[Chunk] = []
        assigned: set[str] = set()
        for block in raw.split("\n\n"):
            text = block.strip()
            if text:
                chunk_id = self.fresh_id(assigned)
                assigned.add(chunk_id)
                chunks.append(Chunk(id=chunk_id, text=text, kind=kind, source=source))
        return chunks


RANDOM_IDS = [None, "", "a", "b", "c", "chunk-0", "chunk-1", "chunk-2", "chunk-4", " "]
RANDOM_TEXTS = ["one", "two words", "  padded  ", "café ünïcode", "line\nbreak", "#### 7"]


def random_jsonl_line(rng) -> str:
    roll = rng.random()
    if roll < 0.08:
        return rng.choice(["", "   ", "\t"])
    if roll < 0.10:
        return rng.choice(["[1]", "5", '"text"', "null", "true"])
    if roll < 0.12:
        return rng.choice(["{", "not json", '{"text": "x"} trailing', '{"text": "x",}',
                           "\ufeff{}"])
    obj = {}
    if rng.random() < 0.97:
        obj["text"] = rng.choice(RANDOM_TEXTS + ["", " ", 5] if rng.random() < 0.04
                                 else RANDOM_TEXTS)
    if rng.random() < 0.7:
        obj["id"] = (rng.choice([0, False, [], {}, 5]) if rng.random() < 0.02
                     else rng.choice(RANDOM_IDS + [f"id-{rng.randrange(40)}"] * 6))
    if rng.random() < 0.4:
        obj["kind"] = rng.choice(["web", None, 5] if rng.random() < 0.05
                                 else ["qa", "textbook"])
    if rng.random() < 0.3:
        obj["source"] = rng.choice([None, 3] if rng.random() < 0.05 else ["s1", ""])
    line = json.dumps(obj, ensure_ascii=rng.random() < 0.5)
    return rng.choice(["  ", "", ""]) + line + rng.choice(["\t", "", ""])


def random_file(rng, directory: Path, n: int) -> Path:
    if rng.random() < 0.75:
        path = directory / f"f{n}.jsonl"
        lines = [random_jsonl_line(rng) for _ in range(rng.randrange(12))]
        path.write_text("\n".join(lines) + rng.choice(["\n", ""]), encoding="utf-8")
    else:
        path = directory / f"f{n}.txt"
        blocks = [rng.choice(RANDOM_TEXTS + ["", "  "]) for _ in range(rng.randrange(8))]
        path.write_text(rng.choice(["\n\n", "\n\n\n"]).join(blocks), encoding="utf-8")
    return path


def outcome(ingest, path: Path, kind: str):
    try:
        return ingest(path, kind)
    except (DuplicateChunkError, MalformedLineError) as e:
        return type(e), str(e)


def test_column_store_matches_the_per_chunk_reference(tmp_path):
    import random
    seen = {"added": 0, DuplicateChunkError: 0, MalformedLineError: 0}
    for case in range(400):
        rng = random.Random(case)
        corpus, reference = Corpus(), ReferenceCorpus()
        for n in range(rng.randrange(1, 4)):
            path = random_file(rng, tmp_path, n)
            kind = rng.choice(["qa", "textbook"])
            got = outcome(corpus.ingest, path, kind)
            assert got == outcome(reference.ingest, path, kind), (case, n)
            seen["added" if isinstance(got, int) else got[0]] += 1
            rows = [(c.id, c.text, c.kind, c.source) for c in reference.chunks]
            assert [(c.id, c.text, c.kind, c.source) for c in corpus] == rows, (case, n)
            assert corpus.chunks == reference.chunks
            assert corpus.ids() == [c.id for c in reference.chunks]
            assert all(corpus.get(c.id) == c and corpus.position(c.id) == i
                       for i, c in enumerate(reference.chunks))
            assert corpus.kind_counts() == {
                k: sum(c.kind == k for c in reference.chunks) for k in ("qa", "textbook")}
    # the generator reaches every outcome often enough to compare them
    assert min(seen.values()) >= 40, seen


def test_index_is_a_snapshot_of_the_columns(tmp_path):
    corpus = Corpus()
    corpus.add(Chunk(id="a", text="one", kind="qa"))
    first = corpus.index()
    corpus.add(Chunk(id="b", text="two", kind="textbook"))
    assert first.ids == ["a"] and len(first) == 1 and list(first.kinds) == ["qa"]
    assert corpus.index().ids == ["a", "b"] and list(corpus.index().kinds) == ["qa", "textbook"]


def test_index_shares_the_columns_until_the_next_add():
    corpus = Corpus()
    ids, position = corpus._ids, corpus._position
    corpus.add(Chunk(id="a", text="one", kind="qa"))
    # no index shares them yet, so they grow in place: a loop of adds stays linear
    assert corpus._ids is ids and corpus._position is position
    first = corpus.index()
    assert first.ids is corpus._ids and first.position is corpus._position
    corpus.add(Chunk(id="b", text="two", kind="textbook"))
    assert first.ids == ["a"] and first.position == {"a": 0} and first._texts == ["one"]
    second = corpus.index()
    assert second.ids == ["a", "b"] and second.position == {"a": 0, "b": 1}
    assert second.ids is corpus._ids and second.position is corpus._position
    assert ChunkIndex(["x", "y"]).position == {"x": 0, "y": 1}


def test_index_holds_kind_codes_and_reads_labels_from_them():
    index = ChunkIndex(["a", "b", "c"], ["textbook", "qa", "textbook"])
    assert index.kind_codes.tolist() == [1, 0, 1]
    assert {kind: p.tolist() for kind, p in index.kind_positions.items()} == {
        "qa": [1], "textbook": [0, 2]}
    assert index.kinds.tolist() == ["textbook", "qa", "textbook"]
    assert ChunkIndex(["a"]).kinds is None
    with pytest.raises(ValueError, match="unknown chunk kind 'poem'"):
        ChunkIndex(["a"], ["poem"])


# ---------------------------------------------------------------------------
# the on-disk matrix store
# ---------------------------------------------------------------------------

TEXTS = [f"Ann has {i} coins and finds {i + 1} more. #### {2 * i + 1}" for i in range(12)]


class Counting(DeterministicProvider):
    """Deterministic provider that records every batch it computes."""

    def __init__(self, model_id="det-a", dim=8):
        super().__init__(model_id, dim=dim)
        self.batches = 0

    def _compute_batch(self, texts):
        self.batches += 1
        return super()._compute_batch(texts)


def stored_corpus(store, texts=TEXTS) -> Corpus:
    corpus = Corpus(store=store)
    for i, text in enumerate(texts):
        corpus.add(Chunk(id=f"c{i}", text=text, kind="qa"))
    return corpus


def build(store, provider=None) -> np.ndarray:
    return stored_corpus(store).index().matrix(provider or Counting())


def stored_files(store: Path) -> list[Path]:
    return sorted(store.iterdir())


def mapped(block: np.ndarray):
    """The memory map behind ``block``, or None for an array in memory."""
    while block is not None and not isinstance(block, mmap.mmap):
        block = getattr(block, "base", None)
    return block


@pytest.mark.parametrize("rows", [1, STEP_ROWS // 2 - 1, STEP_ROWS // 2, STEP_ROWS - 1,
                                  STEP_ROWS, STEP_ROWS + 3, 2 * STEP_ROWS + 3])
def test_unit_rows_in_steps_equals_one_norm_over_the_block(rows):
    block = np.random.default_rng(rows).standard_normal((rows, 48)) * 7.5
    want = block / np.linalg.norm(block, axis=1, keepdims=True)
    got = _unit_rows(block)
    assert got is block
    assert got.tobytes() == want.tobytes()


class TestMatrixStore:
    def test_loaded_matrix_equals_built_bit_for_bit(self, tmp_path):
        store = tmp_path / "index"
        in_memory = stored_corpus(None).index().matrix(Counting())
        built = build(store)
        (path,) = stored_files(store)
        assert path.suffix == ".npy"
        provider = Counting()
        loaded = build(store, provider)
        assert provider.batches == 0
        for block in (built, loaded):
            assert block.dtype == in_memory.dtype and block.shape == in_memory.shape
            assert block.tobytes() == in_memory.tobytes()

    def test_loaded_matrix_is_a_read_only_map_of_the_file(self, tmp_path):
        built = build(tmp_path)
        assert built.flags.writeable and mapped(built) is None
        loaded = build(tmp_path)
        assert not loaded.flags.writeable and mapped(loaded) is not None
        assert type(loaded) is np.ndarray
        assert loaded.tobytes() == built.tobytes()
        with pytest.raises(ValueError):
            loaded[0, 0] = 0.0

    def test_replacing_the_file_leaves_a_mapped_matrix_unchanged(self, tmp_path):
        built = build(tmp_path)
        (path,) = stored_files(tmp_path)
        loaded = build(tmp_path)
        replacement = tmp_path / "replacement.npy"
        np.save(replacement, built[::-1])  # unit-norm rows, so a later load accepts it
        os.replace(replacement, path)
        assert loaded.tobytes() == built.tobytes()
        provider = Counting()
        assert build(tmp_path, provider).tobytes() == built[::-1].tobytes()
        assert provider.batches == 0

    @pytest.mark.parametrize("descr", ["<f8", "<f4"])
    @pytest.mark.parametrize("rows", [1, STEP_ROWS, 2 * STEP_ROWS + 37])
    def test_the_stepwise_writer_writes_what_np_save_writes(self, tmp_path, descr, rows):
        # so a store written by np.save keeps hitting, and the files stay np.load-readable
        block = np.random.default_rng(rows).standard_normal((rows, 24))
        assert corpus_module._write_npy(tmp_path / "stepped.npy", block, descr)
        np.save(tmp_path / "saved.npy", block.astype(descr))
        written = (tmp_path / "stepped.npy").read_bytes()
        assert written == (tmp_path / "saved.npy").read_bytes()
        assert np.load(tmp_path / "stepped.npy", allow_pickle=False).tobytes() == (
            block.astype(descr).tobytes())

    @pytest.mark.parametrize("use", ["product", "matrix"])
    def test_a_written_build_is_served_from_its_file_from_then_on(self, tmp_path,
                                                                  monkeypatch, use):
        provider, vector = Counting(), unit_vector(8)
        index = stored_corpus(tmp_path).index()
        want = stored_corpus(None).index().product(Counting(), vector)

        def run():
            return index.product(provider, vector) if use == "product" else (
                index.matrix(provider) @ vector)

        first = run()
        slot = index._matrices[provider]
        assert slot.block is None and slot.coarse is None  # written, so not held
        maps, passes = [], []
        map_exact, row_steps = corpus_module._map_exact, corpus_module._row_steps

        def counting_map(*args):
            maps.append(args)
            return map_exact(*args)

        def counting_pass(block, vector, scores, squares, bounds):
            if squares is not None:  # the load's check, not a product of the held matrix
                passes.append(bounds)
            return row_steps(block, vector, scores, squares, bounds)

        monkeypatch.setattr(corpus_module, "_map_exact", counting_map)
        monkeypatch.setattr(corpus_module, "_row_steps", counting_pass)
        later = [run() for _ in range(3)]
        assert len(maps) == 1 and len(passes) == 1  # mapped and checked once, then held
        assert mapped(slot.block) is not None
        assert provider.batches == 1  # embedded once
        assert all(np.array_equal(scores, want) for scores in [first] + later)

    def test_load_and_build_are_logged(self, tmp_path, caplog):
        caplog.set_level(logging.DEBUG, logger="multirag.corpus")
        build(tmp_path)
        assert "built the 12 x 8 corpus matrix of 'det-a'" in caplog.text
        caplog.clear()
        build(tmp_path)
        assert "loaded the 12 x 8 corpus matrix of 'det-a'" in caplog.text

    def test_without_a_store_nothing_is_written(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        stored_corpus(None).index().matrix(Counting())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("provider, texts", [
        (DeterministicProvider("det-b", dim=8), TEXTS),
        (DeterministicProvider("det-a", dim=16), TEXTS),
        (DeterministicProvider("det-a", dim=8), TEXTS[:-1] + ["Ann has no coins."]),
        (DeterministicProvider("det-a", dim=8), TEXTS[::-1]),
        (DeterministicProvider("det-a", dim=8), TEXTS[:-1]),
    ], ids=["model", "dim", "text", "order", "count"])
    def test_key_covers_provider_and_texts(self, tmp_path, provider, texts):
        ids = [f"c{i}" for i in range(len(TEXTS))]
        base = ChunkIndex(ids, texts=TEXTS, store=tmp_path)
        changed = ChunkIndex(ids[:len(texts)], texts=texts, store=tmp_path)
        same = base.stored_path(DeterministicProvider("det-a", dim=8))
        assert ChunkIndex(ids, texts=list(TEXTS), store=tmp_path).stored_path(
            DeterministicProvider("det-a", dim=8)) == same
        assert changed.stored_path(provider) != same

    def test_key_covers_the_endpoint_but_not_credentials(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EMB_TOKEN", "secret")
        index = ChunkIndex(["c0"], texts=["t"], store=tmp_path)
        here = RemoteProvider("emb-x", endpoint="http://127.0.0.1:1")
        there = RemoteProvider("emb-x", endpoint="http://127.0.0.1:2")
        keyed = RemoteProvider("emb-x", endpoint="http://127.0.0.1:1", api_key_env="EMB_TOKEN")
        assert index.stored_path(here) != index.stored_path(there)
        assert index.stored_path(here) == index.stored_path(keyed)
        assert "secret" not in json.dumps(keyed.fingerprint())

    @staticmethod
    def _truncated(path, built):
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])

    @staticmethod
    def _header_only(path, built):
        path.write_bytes(path.read_bytes()[:64])

    @staticmethod
    def _wrong_shape(path, built):
        np.save(path, built[:-1])

    @staticmethod
    def _wrong_dtype(path, built):
        np.save(path, built.astype(np.float32))

    @staticmethod
    def _nan(path, built):
        bad = built.copy()
        bad[3, 2] = np.nan
        np.save(path, bad)

    @staticmethod
    def _not_unit(path, built):
        bad = built.copy()
        bad[5] *= 1.0 + 1e-6
        np.save(path, bad)

    @staticmethod
    def _pickled_objects(path, built):
        np.save(path, np.array([{"rows": 12}, "x"], dtype=object), allow_pickle=True)

    @staticmethod
    def _not_npy(path, built):
        path.write_text("not an array")

    @pytest.mark.parametrize("corrupt", [
        "_truncated", "_header_only", "_wrong_shape", "_wrong_dtype", "_nan", "_not_unit",
        "_pickled_objects", "_not_npy"])
    def test_invalid_file_is_rejected_and_rebuilt(self, tmp_path, caplog, corrupt):
        built = build(tmp_path)
        (path,) = stored_files(tmp_path)
        getattr(self, corrupt)(path, built)
        caplog.set_level(logging.WARNING, logger="multirag.corpus")
        provider = Counting()
        rebuilt = build(tmp_path, provider)
        assert provider.batches == 1
        assert "rejected the stored corpus matrix" in caplog.text
        assert rebuilt.tobytes() == built.tobytes()
        # the rebuild overwrote the bad file with a good one
        assert stored_files(tmp_path) == [path]
        assert np.load(path, allow_pickle=False).tobytes() == built.tobytes()

    def test_loaded_dimension_must_agree_with_the_provider(self, tmp_path):
        build(tmp_path)
        (path,) = stored_files(tmp_path)
        rows = np.random.default_rng(0).standard_normal((len(TEXTS), 4))
        np.save(path, rows / np.linalg.norm(rows, axis=1, keepdims=True))
        with pytest.raises(DimensionMismatchError):
            build(tmp_path)

    def test_loaded_dimension_binds_a_remote_provider(self, tmp_path):
        provider = RemoteProvider("emb-x", endpoint="http://127.0.0.1:1")
        index = ChunkIndex(["c0", "c1"], texts=["a", "b"], store=tmp_path)
        np.save(index.stored_path(provider), np.eye(2, 3))
        assert index.matrix(provider).shape == (2, 3)
        with pytest.raises(DimensionMismatchError):
            provider.hold_dims({4})

    def test_unwritable_store_still_answers(self, tmp_path, caplog):
        from multirag.config import default_template_text
        from multirag.generation import MockBackend
        from multirag.pipeline import PipelineConfig, run_confident
        from multirag.retrieval import PromptTemplate
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the store's parent directory should be")
        corpus = stored_corpus(blocked / "index")
        cfg = PipelineConfig(
            providers=[Counting("det-a"), Counting("det-b")], backend=MockBackend(seed=3),
            template=PromptTemplate(text=default_template_text()),
            k=2, quotas=None)
        caplog.set_level(logging.WARNING, logger="multirag.corpus")
        result = run_confident("q", "How many coins?", ["det-a", "det-b"], corpus, cfg)
        assert result.answer and len(result.records) == 2
        assert caplog.text.count("could not store the corpus matrix") == 2
        assert blocked.read_text().startswith("a file")

    def test_threads_building_one_key(self, tmp_path):
        workers = 4  # more than the cores of a small machine
        gate = threading.Barrier(workers, timeout=10)

        class Racing(Counting):
            def _compute_batch(self, texts):
                gate.wait()  # every thread is inside the build at once
                return super()._compute_batch(texts)

        results, errors = [None] * workers, []

        def worker(slot):
            try:
                results[slot] = build(tmp_path, Racing())
            except Exception as e:  # surfaced by the assertion below
                errors.append(e)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads) and errors == []
        (path,) = stored_files(tmp_path)
        assert all(r.tobytes() == results[0].tobytes() for r in results)
        assert np.load(path, allow_pickle=False).tobytes() == results[0].tobytes()

    def test_two_processes_building_one_key(self, tmp_path):
        script = (
            "import sys\n"
            "from multirag.corpus import Chunk, Corpus\n"
            "from multirag.embedding import DeterministicProvider\n"
            "corpus = Corpus(store=sys.argv[1])\n"
            "for i in range(3000):\n"
            "    corpus.add(Chunk(id=f'c{i}', text=f'chunk number {i}', kind='qa'))\n"
            "corpus.index().matrix(DeterministicProvider('det-a', dim=16))\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        procs = [subprocess.Popen([sys.executable, "-c", script, str(tmp_path)], env=env,
                                  stderr=subprocess.PIPE, text=True) for _ in range(2)]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        (path,) = stored_files(tmp_path)
        corpus = Corpus()
        for i in range(3000):
            corpus.add(Chunk(id=f"c{i}", text=f"chunk number {i}", kind="qa"))
        want = corpus.index().matrix(DeterministicProvider("det-a", dim=16))
        assert np.load(path, allow_pickle=False).tobytes() == want.tobytes()


def unit_vector(dim: int, seed: int = 0) -> np.ndarray:
    v = np.random.default_rng(seed).standard_normal(dim)
    return v / np.linalg.norm(v)


QUESTION = "How many coins does Ann have?"
STEPPED_ROWS = 1537  # three steps of a product, the last taking the remainder


def stepped_index(store, rows=STEPPED_ROWS) -> ChunkIndex:
    ids = [f"c{i}" for i in range(rows)]
    texts = [f"chunk {i} holds {i % 7} coins" for i in range(rows)]
    return ChunkIndex(ids, texts=texts, store=store)


class TestOverlappedLoad:
    """``ChunkIndex.product``: a stored matrix's first product and its
    unit-norm check are one pass over the file, on the calling thread."""

    @pytest.mark.parametrize("rows, dim", [(1, 3), (5, 32), (257, 384), (5003, 32)])
    def test_loaded_product_equals_built_product_bit_for_bit(self, tmp_path, caplog,
                                                              rows, dim):
        vector = unit_vector(dim, seed=rows)
        want = stepped_index(None, rows).matrix(Counting(dim=dim)) @ vector
        stepped_index(tmp_path, rows).matrix(Counting(dim=dim))
        caplog.set_level(logging.DEBUG, logger="multirag.corpus")
        provider = Counting(dim=dim)
        index = stepped_index(tmp_path, rows)
        got = index.product(provider, vector)
        assert provider.batches == 0
        assert f"loaded the {rows} x {dim} corpus matrix" in caplog.text
        assert "(one pass " in caplog.text
        assert np.array_equal(got, want)
        assert np.array_equal(index.product(provider, vector), want)  # the in-memory hit
        assert np.array_equal(index.matrix(provider) @ vector, want)

    @pytest.mark.parametrize("rows, dim", [(1537, 384), (2000, 384), (513, 32)])
    def test_loaded_steps_equal_built_steps_bit_for_bit(self, tmp_path, caplog, rows, dim):
        # Every product of these matrices takes more than one step. At 1537 x 384
        # a BLAS with two or more threads splits a product among them, and one
        # full product can differ from the steps in a score's last bit; the
        # built, written, loaded and held products all take the same steps.
        vector = unit_vector(dim, seed=rows)
        want = stepped_index(None, rows).product(Counting(dim=dim), vector)
        assert np.array_equal(stepped_index(tmp_path, rows).product(Counting(dim=dim), vector),
                              want)
        caplog.set_level(logging.DEBUG, logger="multirag.corpus")
        provider = Counting(dim=dim)
        index = stepped_index(tmp_path, rows)
        got = index.product(provider, vector)
        assert provider.batches == 0
        assert f"loaded the {rows} x {dim} corpus matrix" in caplog.text
        assert "(one pass " in caplog.text
        assert np.array_equal(got, want)
        assert np.array_equal(index.product(provider, vector), want)  # the in-memory hit
        # a row split differently by BLAS differs from one full product by a rounding step
        assert np.allclose(got, index.matrix(provider) @ vector, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rows", [513, 1025, 1100])
    def test_steps_equal_one_full_product_where_blas_runs_one_thread(self, rows):
        # rows x 8 is below the size at which BLAS splits a product among
        # threads; a one-row last step would be a dot product and differ
        index = stepped_index(None, rows)
        vector = unit_vector(8)
        assert np.array_equal(index.product(Counting(), vector),
                              index.matrix(Counting()) @ vector)

    def test_the_calling_thread_takes_every_step_in_one_pass(self, tmp_path, monkeypatch):
        stepped_index(tmp_path).matrix(Counting())
        calls = []
        steps = corpus_module._row_steps

        def recording(block, vector, scores, squares, bounds):
            calls.append((threading.current_thread(), bounds))
            steps(block, vector, scores, squares, bounds)

        monkeypatch.setattr(corpus_module, "_row_steps", recording)
        stepped_index(tmp_path).product(Counting(), unit_vector(8))
        assert calls == [(threading.current_thread(), [0, 512, 1024, STEPPED_ROWS])]

    def test_an_error_in_the_pass_leaves_the_slot_empty(self, tmp_path, caplog, monkeypatch):
        built = stepped_index(tmp_path).matrix(Counting())

        def failing(block, vector, scores, squares, bounds):
            raise RuntimeError("the pass broke")

        monkeypatch.setattr(corpus_module, "_row_steps", failing)
        index = stepped_index(tmp_path)
        provider = Counting()
        vector = unit_vector(8)
        with pytest.raises(RuntimeError, match="the pass broke"):
            index.product(provider, vector)
        assert index._matrices[provider].block is None
        monkeypatch.undo()
        # the slot stayed empty, so the next use loads the file again
        caplog.set_level(logging.DEBUG, logger="multirag.corpus")
        assert np.array_equal(index.product(provider, vector), built @ vector)
        assert f"loaded the {STEPPED_ROWS} x 8 corpus matrix of 'det-a'" in caplog.text
        assert provider.batches == 0

    @pytest.mark.parametrize("row", [100, STEPPED_ROWS - 200], ids=["first", "last"])
    @pytest.mark.parametrize("corrupt, problem", [
        ("_nan", "non-finite entries"), ("_not_unit", "rows that are not unit-norm")])
    def test_a_bad_row_in_either_half_is_rebuilt(self, tmp_path, caplog, row, corrupt,
                                                  problem):
        built = stepped_index(tmp_path).matrix(Counting())
        (path,) = stored_files(tmp_path)
        bad = built.copy()
        if corrupt == "_nan":
            bad[row, 2] = np.nan
        else:
            bad[row] *= 1.0 + 1e-6
        np.save(path, bad)
        caplog.set_level(logging.WARNING, logger="multirag.corpus")
        provider = Counting()
        vector = unit_vector(8)
        scores = stepped_index(tmp_path).product(provider, vector)
        assert provider.batches > 0  # embedded again
        (warning,) = [r.getMessage() for r in caplog.records if r.name == "multirag.corpus"]
        assert warning == (f"rejected the stored corpus matrix {path} ({problem}, "
                           f"want {STEPPED_ROWS} float64 rows); rebuilding it")
        assert np.array_equal(scores, built @ vector)
        assert np.load(path, allow_pickle=False).tobytes() == built.tobytes()

    def test_cold_and_warm_rows_are_equal(self, tmp_path):
        for model_id in ("det-a", "det-b"):
            rows = []
            for store in (None, tmp_path, tmp_path):
                provider = Counting(model_id)
                rows.append(score_all(provider, QUESTION, stored_corpus(store)).values)
            assert provider.batches == 1  # the warm row embeds the question only
            assert all(np.array_equal(row, rows[0]) for row in rows)

    @pytest.mark.parametrize("corrupt, problem", [
        ("_nan", "non-finite entries"),
        ("_not_unit", "rows that are not unit-norm"),
        ("_wrong_dtype", "a header other than that of <f8 with 12 rows in a file of 512 bytes: "
                         "\"\\x93NUMPY\\x01\\x00v\\x00{'descr': '<f4', 'fortran_order': False, "
                         "'shape': (12, 8), }\""),
        ("_wrong_shape", "832 bytes, want 128 plus a positive multiple of 96"),
        ("_truncated", None),
    ])
    def test_invalid_file_is_rebuilt_and_scored_as_built(self, tmp_path, caplog,
                                                          corrupt, problem):
        built = build(tmp_path)
        (path,) = stored_files(tmp_path)
        getattr(TestMatrixStore, corrupt)(path, built)
        if problem is None:  # half the file is left: the reason gives its size
            problem = f"{path.stat().st_size} bytes, want 128 plus a positive multiple of 96"
        caplog.set_level(logging.WARNING, logger="multirag.corpus")
        provider = Counting()
        vector = unit_vector(8)
        scores = stored_corpus(tmp_path).index().product(provider, vector)
        assert provider.batches == 1
        (warning,) = [r.getMessage() for r in caplog.records if r.name == "multirag.corpus"]
        assert warning == (f"rejected the stored corpus matrix {path} ({problem}, "
                           "want 12 float64 rows); rebuilding it")
        assert np.array_equal(scores, built @ vector)
        assert stored_files(tmp_path) == [path]
        assert np.load(path, allow_pickle=False).tobytes() == built.tobytes()

    def test_valid_file_of_another_dimension_raises(self, tmp_path):
        build(tmp_path)
        (path,) = stored_files(tmp_path)
        rows = np.random.default_rng(0).standard_normal((len(TEXTS), 4))
        np.save(path, rows / np.linalg.norm(rows, axis=1, keepdims=True))
        with pytest.raises(DimensionMismatchError):
            score_all(Counting(), QUESTION, stored_corpus(tmp_path))

    @pytest.mark.parametrize("use", ["matrix", "score_all"])
    def test_invalid_file_of_another_dimension_is_rebuilt(self, tmp_path, caplog, use):
        built = build(tmp_path)
        (path,) = stored_files(tmp_path)
        np.save(path, np.random.default_rng(0).standard_normal((len(TEXTS), 4)))
        caplog.set_level(logging.WARNING, logger="multirag.corpus")
        provider = Counting()
        if use == "matrix":
            assert stored_corpus(tmp_path).index().matrix(provider).tobytes() == built.tobytes()
        else:
            row = score_all(provider, QUESTION, stored_corpus(tmp_path))
            assert np.array_equal(row.values, score_all(Counting(), QUESTION,
                                                        stored_corpus(None)).values)
        assert "rows that are not unit-norm" in caplog.text
        assert np.load(path, allow_pickle=False).tobytes() == built.tobytes()

    def test_a_product_compares_the_header_and_parses_only_another_form(self, tmp_path,
                                                                      monkeypatch):
        """A product on a stored matrix compares the header ``np.save``
        writes instead of parsing it; a header written another way (version
        2.0) is not parsed either, but rejected, rebuilt and rewritten, and
        gives the same scores."""
        vector = unit_vector(8, seed=5)
        want = stepped_index(None).product(Counting(), vector)
        built = stepped_index(tmp_path).matrix(Counting())
        path = stepped_index(tmp_path).stored_path(Counting())
        written = path.read_bytes()

        def refused(*args, **kwargs):
            raise AssertionError("np.load was called")

        monkeypatch.setattr(corpus_module.np, "load", refused)
        provider = Counting()
        assert np.array_equal(stepped_index(tmp_path).product(provider, vector), want)
        assert provider.batches == 0
        with open(tmp_path / "v2.tmp", "wb") as f:
            np.lib.format.write_array(f, built, version=(2, 0))
        os.replace(tmp_path / "v2.tmp", path)
        assert np.array_equal(stepped_index(tmp_path).product(provider, vector), want)
        assert provider.batches > 0  # embedded again
        assert path.read_bytes() == written  # rewritten with the version 1.0 header

    def test_threads_map_stored_files_one_at_a_time(self, tmp_path, monkeypatch):
        """Threads that ask a warm store for its matrices at once each get
        the stored bytes, mapped, and no header is parsed."""
        providers = [Counting(m) for m in ("det-a", "det-b", "det-c", "det-d")]
        built = {p.model_id: build(tmp_path, p) for p in providers}

        def refused(*args, **kwargs):
            raise AssertionError("np.load was called")

        monkeypatch.setattr(corpus_module.np, "load", refused)
        index = stored_corpus(tmp_path).index()
        gate = threading.Barrier(len(providers), timeout=10)
        scored, errors = {}, []

        def score(provider):
            try:
                gate.wait()  # every thread asks at once
                scored[provider.model_id] = index.matrix(provider)
            except Exception as e:  # surfaced by the assertion below
                errors.append(e)

        threads = [threading.Thread(target=score, args=(p,)) for p in providers]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert all(mapped(scored[m]) is not None and scored[m].tobytes() == built[m].tobytes()
                   for m in built)
        assert all(p.batches == 1 for p in providers)  # built once above, then loaded

    def test_threads_loading_stepped_matrices_at_once(self, tmp_path):
        providers = [Counting(m) for m in ("det-a", "det-b", "det-c", "det-d")]
        vector = unit_vector(8)
        want = {p.model_id: stepped_index(None).product(p, vector) for p in providers}
        for provider in providers:
            stepped_index(tmp_path).matrix(provider)
        index = stepped_index(tmp_path)
        scored, errors = {}, []

        def score(provider):
            try:
                scored[provider.model_id] = index.product(provider, vector)
            except Exception as e:  # surfaced by the assertion below
                errors.append(e)

        threads = [threading.Thread(target=score, args=(p,)) for p in providers]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert all(np.array_equal(scored[m], want[m]) for m in want)

    def test_concurrent_confident_run_on_a_warm_store_equals_the_serial_one(self, tmp_path,
                                                                            caplog):
        from multirag.config import default_template_text
        from multirag.generation import MockBackend
        from multirag.pipeline import PipelineConfig, run_confident
        from multirag.retrieval import PromptTemplate
        models = ["det-a", "det-b", "det-c", "det-d"]

        def run(concurrency):
            cfg = PipelineConfig(
                providers=[Counting(m) for m in models], backend=MockBackend(seed=3),
                template=PromptTemplate(text=default_template_text()),
                k=3, quotas=None, concurrency=concurrency)
            result = run_confident("q", QUESTION, models, stored_corpus(tmp_path), cfg)
            return (result.answer, result.winner_index, result.retrieved,
                    [(r.embedding_model, r.prompt, r.completion) for r in result.records])

        cold = run(1)
        caplog.set_level(logging.DEBUG, logger="multirag.corpus")
        concurrent = run(4)
        assert caplog.text.count("(one pass ") == len(models)
        assert concurrent == run(1) == cold
