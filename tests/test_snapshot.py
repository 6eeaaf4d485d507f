"""The corpus snapshot behind ``config.load_corpus``.

``Corpus.from_files`` keeps the validated columns of its files in
``<store>/<key>.corpus.bin``, snapshot format 3. A later load with the same files, paths,
kinds and order reads them back without parsing; anything else parses
the files again, and every parse error is the one ``ingest`` raises.
"""

import hashlib
import json
import logging
import re
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

from multirag import config
from multirag import corpus as corpus_module
from multirag.corpus import Chunk, ChunkIndex, Corpus, decode_text
from multirag.embedding import DeterministicProvider
from multirag.errors import DuplicateChunkError, MalformedLineError
from multirag.generation import MockBackend
from multirag.pipeline import PipelineConfig, run_confident
from multirag.retrieval import PromptTemplate

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
    return sorted(store.glob("*.corpus.bin"))


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


# the format-3 layout, read and written here independently of the package
MAGIC, HEAD, COUNTS = b"MRAGCOR3", 40, 5


def _split(blob: bytes, ends: list[int]) -> list[bytes]:
    return [blob[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _ends(items: list[bytes]) -> list[int]:
    out, at = [], 0
    for item in items:
        at += len(item)
        out.append(at)
    return out


def sections(raw: bytes) -> dict:
    """A snapshot's payload sections: the counts, the offset and count
    arrays, the kind digits and the UTF-8 items of each string column."""
    at = HEAD
    counts = list(struct.unpack_from(f"<{COUNTS}Q", raw, at))
    at += 8 * COUNTS
    rows, id_bytes, text_bytes, runs, source_bytes = counts
    out = {"counts": counts}
    for name, n in (("id_ends", rows), ("text_ends", rows), ("run_counts", runs),
                    ("source_ends", runs)):
        out[name] = list(struct.unpack_from(f"<{n}Q", raw, at))
        at += 8 * n
    for name, n in (("kinds", rows), ("id_blob", id_bytes), ("text_blob", text_bytes),
                    ("source_blob", source_bytes)):
        out[name] = raw[at:at + n]
        at += n
    assert at == len(raw)
    for column in ("id", "text", "source"):
        out[column + "s"] = _split(out[column + "_blob"], out[column + "_ends"])
    return out


def with_items(s: dict, column: str, items: list[bytes]) -> None:
    """Replace a string column's items, their offsets and byte count."""
    s[column + "_ends"], s[column + "_blob"] = _ends(items), b"".join(items)
    s["counts"][{"id": 1, "text": 2, "source": 4}[column]] = len(s[column + "_blob"])


def packed(s: dict, digest: bytes | None = None) -> bytes:
    """The file of sections ``s``, under ``digest`` or their own sha256."""
    payload = b"".join([
        struct.pack(f"<{COUNTS}Q", *s["counts"]),
        *(struct.pack(f"<{len(s[name])}Q", *(v % 2 ** 64 for v in s[name]))
          for name in ("id_ends", "text_ends", "run_counts", "source_ends")),
        s["kinds"], s["id_blob"], s["text_blob"], s["source_blob"]])
    return MAGIC + (digest or hashlib.sha256(payload).digest()) + payload


def _truncated(raw):
    return raw[:len(raw) // 2]


def _not_an_object(raw):
    return b"[]"


_truncated.reason = "sha256 mismatch"
_not_an_object.reason = "not a format 3 snapshot"


def _edited(reason, resealed):
    """An edit of the snapshot's sections that the load rejects for
    ``reason``; a ``resealed`` file holds the sha256 of its edited payload,
    so a check after the digest's has to catch it."""
    def edited(edit):
        def apply(raw):
            s = sections(raw)
            edit(s)
            return packed(s, None if resealed else raw[len(MAGIC):HEAD])
        apply.__name__, apply.reason = edit.__name__, reason
        return apply
    return edited


MISMATCH = "sha256 mismatch"
SIZES = "section sizes that disagree with the file's size"
RUN_COUNT = "a source count below 1 or above the row count"
RUN_SUM = "source counts that do not sum to the row count"


@_edited(SIZES, resealed=True)
def _unequal_lengths(s):
    s["kinds"] = s["kinds"][:-1]


@_edited(MISMATCH, resealed=False)
def _non_string_item(s):
    with_items(s, "text", [s["texts"][0], b"\xff\xfe", *s["texts"][2:]])


@_edited(MISMATCH, resealed=False)
def _list_as_id(s):
    with_items(s, "id", [b'["a"]', *s["ids"][1:]])


@_edited(MISMATCH, resealed=False)
def _empty_text(s):
    with_items(s, "text", [*s["texts"][:2], b" \n ", *s["texts"][3:]])


@_edited("an unknown kind digit", resealed=True)
def _unknown_kind(s):
    s["kinds"] = b"7" + s["kinds"][1:]


@_edited(MISMATCH, resealed=False)
def _duplicate_id(s):
    with_items(s, "id", [s["ids"][0], *s["ids"][:1], *s["ids"][2:]])


@_edited(RUN_SUM, resealed=True)
def _missing_column(s):
    s["run_counts"], s["counts"][3] = [], 0
    with_items(s, "source", [])


@_edited(SIZES, resealed=True)
def _kinds_as_labels(s):
    s["kinds"] = b",".join(b"qa" if d == ord("0") else b"textbook" for d in s["kinds"])


@_edited(MISMATCH, resealed=False)
def _source_not_a_string(s):
    with_items(s, "source", [s["sources"][0], b"\xff", *s["sources"][2:]])


@_edited(RUN_COUNT, resealed=True)
def _zero_count(s):
    s["run_counts"].insert(1, 0)
    s["counts"][3] += 1
    with_items(s, "source", [s["sources"][0], b"extra", *s["sources"][1:]])


@_edited(RUN_COUNT, resealed=True)
def _bool_count(s):
    # two counts 2**63 too high: their sum wraps around 64 bits to the row count
    s["run_counts"][0] += 2 ** 63
    s["run_counts"][-1] += 2 ** 63


@_edited(RUN_COUNT, resealed=True)
def _float_count(s):
    s["run_counts"][0] = struct.unpack("<Q", struct.pack("<d", 1.0))[0]


@_edited(RUN_SUM, resealed=True)
def _counts_short_of_the_rows(s):
    s["run_counts"][-1] -= 1


@_edited(RUN_SUM, resealed=True)
def _counts_past_the_rows(s):
    s["run_counts"][-1] += 1


@_edited(RUN_COUNT, resealed=True)
def _count_beyond_64_bits(s):
    s["run_counts"][-1] = 2 ** 64 - 1


@_edited(SIZES, resealed=True)
def _source_not_a_pair(s):
    s["counts"][3] += 1  # a run the file does not hold


@_edited("source offsets out of order or past the source bytes", resealed=True)
def _source_as_a_string(s):
    ends = s["source_ends"]
    ends[0], ends[1] = ends[1], ends[0]


@_edited(MISMATCH, resealed=False)
def _changed_letter(s):
    s["text_blob"] = s["text_blob"].replace(b"3 apples", b"3 Apples")


@_edited(MISMATCH, resealed=False)
def _swapped_ids(s):
    with_items(s, "id", [s["ids"][1], s["ids"][0], *s["ids"][2:]])


@_edited("id offsets out of order or past the id bytes", resealed=True)
def _offsets_past_the_blob(s):
    s["id_ends"][-1] += 5


@_edited("text offsets out of order or past the text bytes", resealed=True)
def _an_empty_text_by_its_offsets(s):
    s["text_ends"][1] = s["text_ends"][0]


@pytest.mark.parametrize("corrupt", [
    _truncated, _not_an_object, _unequal_lengths, _non_string_item, _list_as_id,
    _empty_text, _unknown_kind, _duplicate_id, _missing_column, _kinds_as_labels,
    _source_not_a_string, _zero_count, _bool_count, _float_count,
    _counts_short_of_the_rows, _counts_past_the_rows, _count_beyond_64_bits,
    _source_not_a_pair, _source_as_a_string, _changed_letter, _swapped_ids,
    _offsets_past_the_blob, _an_empty_text_by_its_offsets],
    ids=lambda f: f.__name__.strip("_"))
def test_edited_snapshot_is_rejected_and_rewritten(files, tmp_path, caplog, parses,
                                                   corrupt):
    store = tmp_path / "index"
    want = list(Corpus.from_files(files, store))
    (snapshot,) = snapshots(store)
    good = snapshot.read_bytes()
    assert packed(sections(good)) == good  # the layout above is the file's
    snapshot.write_bytes(corrupt(good))
    caplog.set_level(logging.WARNING, logger="multirag.corpus")
    assert list(Corpus.from_files(files, store)) == want
    assert parses[0] == 4
    assert want == ingested(files)
    assert f"rejected the corpus snapshot {snapshot} ({corrupt.reason})" in caplog.text
    assert snapshot.read_bytes() == good


def test_a_forged_snapshot_with_its_digest_recomputed_is_used(files, tmp_path, parses):
    """Unique ids and non-blank texts are checked when the files are parsed
    and the snapshot written; a hit relies on the digest for them, so a
    file edited and resealed on purpose is read as it stands."""
    store = tmp_path / "index"
    Corpus.from_files(files, store)
    (snapshot,) = snapshots(store)
    s = sections(snapshot.read_bytes())
    with_items(s, "id", [s["ids"][0], *s["ids"][:1], *s["ids"][2:]])
    snapshot.write_bytes(packed(s))
    forged = Corpus.from_files(files, store)
    assert parses[0] == 2
    assert forged.ids() == ["a", "a", "chunk-2", "chunk-3", "chunk-4"]


def test_a_lone_surrogate_text_still_hits(tmp_path, parses):
    """A lone surrogate, which the stdlib decodes from a JSON escape, is
    stored by "surrogatepass" and read back; the second load still hits."""
    rows = tmp_path / "rows.jsonl"
    rows.write_text('{"id": "s", "text": "half a pair: \\ud83d"}\n{"text": "whole"}\n')
    store = tmp_path / "index"
    first = Corpus.from_files([(str(rows), "qa")], store)
    second = Corpus.from_files([(str(rows), "qa")], store)
    assert parses[0] == 1
    assert second._texts[0] == "half a pair: \ud83d"
    want = Corpus()
    want.ingest(rows)
    for corpus in first, second:
        assert (corpus._ids, corpus._texts, corpus._kinds, corpus._sources, corpus._position) \
            == (want._ids, want._texts, want._kinds, want._sources, want._position)
    (snapshot,) = snapshots(store)
    assert second._digest == hashlib.sha256(snapshot.read_bytes()[HEAD:]).hexdigest()


@pytest.mark.parametrize("threaded", [False, True], ids=["inline", "threaded"])
def test_a_hit_digests_the_snapshot_bytes(files, tmp_path, parses, threaded):
    """Loaded on the caller's thread or on a worker thread, a hit's digest
    is the sha256 of the payload bytes, which the header holds, and the
    load starts no thread of its own, on a hit and on a rejection."""
    store = tmp_path / "index"
    cold = Corpus.from_files(files, store)
    (snapshot,) = snapshots(store)
    raw = snapshot.read_bytes()

    def check():
        threads = threading.active_count()
        hit = Corpus.from_files(files, store)
        assert threading.active_count() == threads and parses[0] == 2
        assert hit._digest == cold._digest == hashlib.sha256(raw[HEAD:]).hexdigest()
        assert raw[len(MAGIC):HEAD].hex() == hit._digest
        snapshot.write_bytes(raw[:-1])
        assert list(Corpus.from_files(files, store)) == list(hit)
        assert threading.active_count() == threads and parses[0] == 4

    if not threaded:
        check()
        return
    failures = []

    def run():
        try:
            check()
        except BaseException as failure:
            failures.append(failure)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    if failures:
        raise failures[0]


def test_a_hit_says_what_it_read(files, tmp_path, caplog):
    store = tmp_path / "index"
    Corpus.from_files(files, store)
    (snapshot,) = snapshots(store)
    caplog.set_level(logging.DEBUG, logger="multirag.corpus")
    Corpus.from_files(files, store)
    assert re.search(rf"loaded 5 chunks from the corpus snapshot {re.escape(str(snapshot))} "
                     rf"\(format 3, sha256 matched, {snapshot.stat().st_size} bytes read in "
                     rf"\d+\.\d\d ms\)", caplog.text)


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
    # the key holds the sha256 of the snapshot's payload
    (snapshot,) = snapshots(store)
    key = json.dumps([provider.fingerprint(),
                      hashlib.sha256(snapshot.read_bytes()[HEAD:]).hexdigest()], sort_keys=True)
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
    s = sections(snapshot.read_bytes())
    jsonl, plain = files[0][0], files[1][0]
    assert s["kinds"] == b"00111"
    assert s["sources"] == [jsonl.encode(), b"shelf", jsonl.encode(), plain.encode()]
    assert s["run_counts"] == [1, 1, 1, 2]
    assert s["ids"] == [b"a", b"chunk-1", b"chunk-2", b"chunk-3", b"chunk-4"]
    assert s["counts"] == [5, sum(map(len, s["ids"])), sum(map(len, s["texts"])), 4,
                           sum(map(len, s["sources"]))]


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
    assert len(sections(snapshot.read_bytes())["run_counts"]) > 60
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


def public_reads(corpus: Corpus) -> dict:
    ids = corpus.ids()
    return {"chunks": corpus.chunks, "iterated": list(corpus), "ids": ids,
            "qa": corpus.ids("qa"), "textbook": corpus.ids("textbook"),
            "got": [corpus.get(cid) for cid in ids],
            "positions": [corpus.position(cid) for cid in ids],
            "kind_counts": corpus.kind_counts(), "len": len(corpus),
            "index_ids": list(corpus.index().ids),
            "index_position": dict(corpus.index().position)}


def test_every_public_read_of_a_loaded_corpus_equals_ingest(tmp_path):
    """Lone surrogates (a pair's halves apart and in reverse), non-ASCII ids
    and texts, a NUL and many source runs read back as ingest reads them,
    item by item before the columns are decoded whole, and after an add."""
    lines = [{"id": "é-1", "text": "café ☕ 7 \U0001F600"},
             {"id": "s", "text": "half a pair: \ud83d", "source": "a"},
             {"text": "reversed halves \ude00\ud83d and a NUL \x00", "source": "b"},
             {"id": "\ud800", "text": "an id that is a lone surrogate", "kind": "textbook"}]
    lines += [{"text": f"line {i} 数 {i}", "source": f"s{i // 3}",
               "kind": ("qa", "textbook")[i % 4 == 0]} for i in range(90)]
    entries = []
    for n in range(2):
        path = tmp_path / f"part{n}.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines[n::2]),
                        encoding="utf-8")
        entries.append((str(path), ("qa", "textbook")[n]))
    direct = Corpus(store=tmp_path / "index")
    for path, kind in entries:
        direct.ingest(path, kind=kind)
    Corpus.from_files(entries, tmp_path / "index")
    loaded = Corpus.from_files(entries, tmp_path / "index")
    (snapshot,) = snapshots(tmp_path / "index")
    assert len(sections(snapshot.read_bytes())["run_counts"]) > 40
    assert [loaded.chunk_at(i) for i in (0, 1, 3, -1)] == [
        direct.chunk_at(i) for i in (0, 1, 3, -1)]
    assert loaded._ids._list is None and loaded._texts._list is None
    assert public_reads(loaded) == public_reads(direct)
    assert loaded.index().stored_path(DeterministicProvider("det-a", dim=8)) == \
        direct.index().stored_path(DeterministicProvider("det-a", dim=8))
    extra = Chunk("zed", "Zed has 9 figs. \udfff", "textbook", "late")
    for corpus in (loaded, direct):
        corpus.add(extra)
        with pytest.raises(DuplicateChunkError):
            corpus.add(extra)
    assert public_reads(loaded) == public_reads(direct)
    assert loaded.ids()[-1] == "zed" and loaded.position("zed") == len(lines)


def test_a_warm_confident_run_decodes_only_the_selected_chunks(tmp_path, monkeypatch):
    """A warm ask reads the chunks it prompts with by position: it decodes
    those ids and texts alone, never a whole column, and builds no id ->
    position dict."""
    rows = tmp_path / "rows.jsonl"
    rows.write_text("".join(json.dumps({"text": f"Ann has {i} coins. #### {i}"}) + "\n"
                            for i in range(60)))
    store = tmp_path / "index"
    config = PipelineConfig(
        providers=[DeterministicProvider(m, dim=16) for m in ("det-a", "det-b", "det-c")],
        backend=MockBackend(seed=0), template=PromptTemplate(
            text="{{references}}Question: {{question}}"), k=3)
    question = "How many coins has Ann?"
    cold = run_confident("q", question, config.model_ids, Corpus.from_files(
        [(str(rows), "qa")], store), config)
    corpus = Corpus.from_files([(str(rows), "qa")], store)
    read = []
    item = corpus_module._Strings.__getitem__

    def spied(self, i):
        read.append(("ids" if self is corpus._ids else "texts", i))
        return item(self, i)

    def whole(self):
        raise AssertionError("a warm run decoded a whole column")

    monkeypatch.setattr(corpus_module._Strings, "__getitem__", spied)
    monkeypatch.setattr(corpus_module._Strings, "_decoded", whole)
    warm = run_confident("q", question, config.model_ids, corpus, config)
    monkeypatch.undo()
    assert corpus._positions is None and corpus.index()._position is None
    assert (warm.answer, warm.winner_index, warm.retrieved) == (
        cold.answer, cold.winner_index, cold.retrieved)
    selected = {corpus.position(cid) for ids in warm.retrieved.values() for cid in ids}
    assert {i for column, i in read if column == "texts"} == selected
    assert {i for column, i in read if column == "ids"} == selected
    assert len(read) <= 3 * 3 * 3  # per model: k ids to list, k ids and k texts to prompt
