"""The corpus snapshot behind ``config.load_corpus``.

``Corpus.from_files`` keeps the validated columns of its files in
``<store>/<key>.corpus.json``. A later load with the same files, paths,
kinds and order reads them back without parsing; anything else parses
the files again, and every parse error is the one ``ingest`` raises.
"""

import hashlib
import json
import logging
from pathlib import Path

import numpy as np
import pytest

from multirag import config
from multirag.corpus import Chunk, ChunkIndex, Corpus, decode_text
from multirag.embedding import DeterministicProvider
from multirag.errors import MalformedLineError

ROWS = [
    {"id": "a", "text": "Ann has 3 apples. #### 3", "kind": "qa"},
    {"text": "Ben has 4 pears. #### 4", "source": "shelf"},
    {"id": "", "text": "Counting adds one at a time.", "kind": "textbook"},
]
PLAIN = "Chapter one: counting.\n\nChapter two: adding.\n"


@pytest.fixture
def files(tmp_path):
    jsonl = tmp_path / "rows.jsonl"
    jsonl.write_text("\n".join(json.dumps(r) for r in ROWS) + "\n")
    plain = tmp_path / "book.txt"
    plain.write_text(PLAIN)
    return [(str(jsonl), "qa"), (str(plain), "textbook")]


@pytest.fixture
def parses(monkeypatch):
    """The number of files parsed so far."""
    count = [0]
    ingest = Corpus._ingest

    def counting(self, path, data, kind):
        count[0] += 1
        return ingest(self, path, data, kind)

    monkeypatch.setattr(Corpus, "_ingest", counting)
    return count


def ingested(entries) -> list[Chunk]:
    corpus = Corpus()
    for path, kind in entries:
        corpus.ingest(path, kind=kind)
    return list(corpus)


def snapshots(store: Path) -> list[Path]:
    return sorted(store.glob("*.corpus.json"))


def test_second_load_hits(files, tmp_path, monkeypatch):
    store = tmp_path / "index"
    first = list(Corpus.from_files(files, store))
    jsonl, plain = files[0][0], files[1][0]
    assert first == [
        Chunk("a", ROWS[0]["text"], "qa", jsonl),
        Chunk("chunk-1", ROWS[1]["text"], "qa", "shelf"),
        Chunk("chunk-2", ROWS[2]["text"], "textbook", jsonl),
        Chunk("chunk-3", "Chapter one: counting.", "textbook", plain),
        Chunk("chunk-4", "Chapter two: adding.", "textbook", plain),
    ]
    assert first == ingested(files)
    (snapshot,) = snapshots(store)

    def no_parse(*args, **kwargs):
        raise AssertionError("a snapshot hit parsed a file")

    monkeypatch.setattr(Corpus, "_ingest", no_parse)
    assert list(Corpus.from_files(files, store)) == first
    assert snapshots(store) == [snapshot]


def _byte_in_rows(files, tmp_path):
    path = Path(files[0][0])
    path.write_bytes(path.read_bytes().replace(b"3 apples", b"5 apples"))
    return files


def _byte_in_book(files, tmp_path):
    path = Path(files[1][0])
    path.write_bytes(path.read_bytes().replace(b"one:", b"One:"))
    return files


def _reordered(files, tmp_path):
    return files[::-1]


def _renamed(files, tmp_path):
    moved = tmp_path / "moved.txt"
    moved.write_bytes(Path(files[1][0]).read_bytes())
    return [files[0], (str(moved), "textbook")]


def _kind_changed(files, tmp_path):
    return [files[0], (files[1][0], "qa")]


@pytest.mark.parametrize("change", [
    _byte_in_rows, _byte_in_book, _reordered, _renamed, _kind_changed],
    ids=lambda f: f.__name__.strip("_"))
def test_each_key_part_misses(files, tmp_path, parses, change):
    store = tmp_path / "index"
    Corpus.from_files(files, store)
    assert parses[0] == 2
    entries = change(files, tmp_path)
    got = list(Corpus.from_files(entries, store))
    assert parses[0] == 4
    assert got == ingested(entries)
    assert len(snapshots(store)) == 2


def _truncated(raw):
    return raw[:len(raw) // 2]


def _not_an_object(raw):
    return b"[]"


_truncated.reason = "Unterminated string"
_not_an_object.reason = "not an object of the columns"


def _edited(reason):
    """An edit of the snapshot's columns that the check rejects for ``reason``."""
    def edited(edit):
        def apply(raw):
            columns = json.loads(raw)
            edit(columns)
            return json.dumps(columns).encode("utf-8")
        apply.__name__, apply.reason = edit.__name__, reason
        return apply
    return edited


@_edited("columns of unequal length")
def _unequal_lengths(c):
    c["kinds"] = c["kinds"][:-1]


@_edited("an id or text that is not a string")
def _non_string_item(c):
    c["texts"][1] = 7


@_edited("an id or text that is not a string")
def _list_as_id(c):
    c["ids"][0] = ["a"]


@_edited("an empty text")
def _empty_text(c):
    c["texts"][2] = " \n "


@_edited("an unknown kind code")
def _unknown_kind(c):
    c["kinds"] = "7" + c["kinds"][1:]


@_edited("an empty or duplicate id")
def _duplicate_id(c):
    c["ids"][1] = c["ids"][0]


@_edited("not an object of the columns")
def _missing_column(c):
    del c["sources"]


@_edited("a column of the wrong type")
def _kinds_as_labels(c):
    c["kinds"] = ["qa" if d == "0" else "textbook" for d in c["kinds"]]


@_edited("a source that is not a string")
def _source_not_a_string(c):
    c["sources"][1][0] = 7


@_edited("a source count that is not an integer of at least 1")
def _zero_count(c):
    c["sources"].insert(1, ["extra", 0])


@_edited("a source count that is not an integer of at least 1")
def _bool_count(c):
    c["sources"][0][1] = True  # True == 1, so the counts still sum to the row count


@_edited("a source count that is not an integer of at least 1")
def _float_count(c):
    c["sources"][0][1] = 1.0


@_edited("source counts that do not sum to the row count")
def _counts_short_of_the_rows(c):
    c["sources"][-1][1] -= 1


@_edited("source counts that do not sum to the row count")
def _counts_past_the_rows(c):
    c["sources"][-1][1] += 1


@_edited("sources that are not [source, count] pairs")
def _source_not_a_pair(c):
    c["sources"][0].append(1)


@_edited("sources that are not [source, count] pairs")
def _source_as_a_string(c):
    c["sources"][0] = c["sources"][0][0]


@pytest.mark.parametrize("corrupt", [
    _truncated, _not_an_object, _unequal_lengths, _non_string_item, _list_as_id,
    _empty_text, _unknown_kind, _duplicate_id, _missing_column, _kinds_as_labels,
    _source_not_a_string, _zero_count, _bool_count, _float_count,
    _counts_short_of_the_rows, _counts_past_the_rows, _source_not_a_pair,
    _source_as_a_string],
    ids=lambda f: f.__name__.strip("_"))
def test_edited_snapshot_is_rejected_and_rewritten(files, tmp_path, caplog, parses,
                                                   corrupt):
    store = tmp_path / "index"
    want = list(Corpus.from_files(files, store))
    (snapshot,) = snapshots(store)
    good = snapshot.read_bytes()
    snapshot.write_bytes(corrupt(good))
    caplog.set_level(logging.WARNING, logger="multirag.corpus")
    assert list(Corpus.from_files(files, store)) == want
    assert parses[0] == 4
    assert f"rejected the corpus snapshot {snapshot} ({corrupt.reason}" in caplog.text
    assert snapshot.read_bytes() == good


@pytest.mark.parametrize("data, line_no, reason", [
    (b'{"text": "fine"}\n{"text": ""}\n', 2, "missing or empty 'text'"),
    (b'{"text": "fine"}\r\n\r\nnot json\r\n', 3, "invalid JSON: Expecting value"),
    (b'{"text": "fine"}\r{"text": "ok", "kind": "poem"}\r', 2, "unknown kind 'poem'"),
    (b'{"text": "fine"}\n{"text": "caf\xe9 au lait"}\n', 2,
     "not valid UTF-8: byte 0xe9 at offset 30 (invalid continuation byte)"),
], ids=["empty-text", "crlf-json", "cr-kind", "utf8"])
def test_bad_file_raises_the_ingest_error_and_gets_no_snapshot(tmp_path, data, line_no,
                                                               reason):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(data)
    store = tmp_path / "index"
    with pytest.raises(MalformedLineError) as loaded:
        Corpus.from_files([(str(bad), "qa")], store)
    with pytest.raises(MalformedLineError) as direct:
        Corpus().ingest(bad)
    assert str(loaded.value) == str(direct.value) == f"{bad}:{line_no}: {reason}"
    assert not store.exists()


def test_an_earlier_bad_file_is_reported_before_a_missing_one(files, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"text": "fine"}\n[1]\n')
    missing = tmp_path / "missing.jsonl"
    with pytest.raises(MalformedLineError) as exc:
        Corpus.from_files([files[0], (str(bad), "qa"), (str(missing), "qa")],
                          tmp_path / "index")
    assert str(exc.value) == f"{bad}:2: expected a JSON object"
    with pytest.raises(MalformedLineError) as exc:
        Corpus.from_files([files[0], (str(missing), "qa")], tmp_path / "index")
    assert str(exc.value).startswith(f"{missing}:0: unreadable file: ")
    assert snapshots(tmp_path / "index") == []


def test_decode_matches_read_text(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_bytes(b"a\r\nb\rc\n\r\n\xc3\xa9\xe2\x80\xa8d\r\r\n\xc2\x85\n\xef\xbb\xbfe\r")
    assert decode_text(path.read_bytes(), path) == path.read_text(encoding="utf-8")


def test_load_corpus_and_ingest_share_one_store_key(files, tmp_path):
    cfg = config.load_config(overrides={
        "corpus": [{"path": path, "kind": kind} for path, kind in files],
        "output_dir": str(tmp_path / "out")})
    store = tmp_path / "out" / "index"
    provider = DeterministicProvider("det-a", dim=8)
    cold = config.load_corpus(cfg).index().stored_path(provider)
    warm = config.load_corpus(cfg).index().stored_path(provider)
    direct = Corpus(store=store)
    for path, kind in files:
        direct.ingest(path, kind=kind)
    assert direct.index().stored_path(provider) == cold == warm
    # the key holds the sha256 of the snapshot's bytes
    (snapshot,) = snapshots(store)
    key = json.dumps([provider.fingerprint(),
                      hashlib.sha256(snapshot.read_bytes()).hexdigest()], sort_keys=True)
    assert cold.name == hashlib.sha256(key.encode("utf-8")).hexdigest() + ".npy"


def test_a_chunk_added_after_loading_changes_the_key(files, tmp_path):
    provider = DeterministicProvider("det-a", dim=8)
    corpus = Corpus.from_files(files, tmp_path / "index")
    before = corpus.index().stored_path(provider)
    extra = Chunk("z", "Zed has 9 figs.", "qa")
    corpus.add(extra)
    direct = Corpus(store=tmp_path / "index")
    for path, kind in files:
        direct.ingest(path, kind=kind)
    direct.add(extra)
    assert corpus.index().stored_path(provider) == direct.index().stored_path(provider)
    assert corpus.index().stored_path(provider) != before


def test_unwritable_store_still_loads(files, tmp_path, caplog):
    blocked = tmp_path / "blocked"
    blocked.write_text("a file where the store's parent directory should be")
    caplog.set_level(logging.WARNING, logger="multirag.corpus")
    for _ in range(2):
        assert list(Corpus.from_files(files, blocked / "index")) == ingested(files)
    assert caplog.text.count("could not store the corpus snapshot") == 2
    assert blocked.read_text().startswith("a file")


def test_snapshot_holds_kind_digits_and_source_runs(files, tmp_path):
    Corpus.from_files(files, tmp_path / "index")
    (snapshot,) = snapshots(tmp_path / "index")
    columns = json.loads(snapshot.read_bytes())
    jsonl, plain = files[0][0], files[1][0]
    assert columns["kinds"] == "00111"
    assert columns["sources"] == [[jsonl, 1], ["shelf", 1], [jsonl, 1], [plain, 2]]


def test_many_runs_round_trip_against_ingest(tmp_path):
    entries = []
    for n in range(3):
        path = tmp_path / f"part{n}.jsonl"
        path.write_text("".join(
            json.dumps({"text": f"part {n} line {i}", "kind": ("qa", "textbook")[i % 3 == 0],
                        **({"source": f"s{i // 2}"} if i % 5 else {})}) + "\n"
            for i in range(40)))
        entries.append((str(path), ("qa", "textbook")[n % 2]))
    direct = Corpus(store=tmp_path / "index")
    for path, kind in entries:
        direct.ingest(path, kind=kind)
    cold = Corpus.from_files(entries, tmp_path / "index")
    warm = Corpus.from_files(entries, tmp_path / "index")
    (snapshot,) = snapshots(tmp_path / "index")
    assert len(json.loads(snapshot.read_bytes())["sources"]) > 60
    provider = DeterministicProvider("det-a", dim=8)
    for corpus in (cold, warm):
        assert list(corpus) == list(direct)
        assert corpus.ids() == direct.ids() and corpus.kind_counts() == direct.kind_counts()
        assert corpus.index().stored_path(provider) == direct.index().stored_path(provider)
        assert np.array_equal(corpus.index().kind_codes, direct.index().kind_codes)
        assert list(corpus.index().kinds) == [c.kind for c in direct]


def test_a_bare_index_gets_a_digest(tmp_path):
    provider = DeterministicProvider("det-a", dim=8)
    ids, texts = ["a", "b"], ["one", "two"]
    paths = {ChunkIndex(ids, texts=texts, store=tmp_path).stored_path(provider),
             ChunkIndex(ids, ["qa", "textbook"], texts, store=tmp_path).stored_path(provider),
             ChunkIndex(ids, ["qa", "qa"], texts, store=tmp_path).stored_path(provider)}
    assert len(paths) == 3
    index = ChunkIndex(ids, ["qa", "textbook"], texts, store=tmp_path)
    assert index.matrix(provider).shape == (2, 8)
    assert index.stored_path(provider).exists()
