"""External knowledge corpus: chunk storage, JSONL/plain-text ingestion, and
the array index retrieval scores against.

Chunks are write-once: ingestion is single-writer, reads are free after
it completes. Iteration order is ingestion order and is what every
tie-breaking rule downstream refers to.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import threading
import time
import weakref
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DuplicateChunkError, MalformedLineError, UnknownChunkError

log = logging.getLogger(__name__)

KINDS = ("qa", "textbook")
# part of every snapshot key: bump it when a parse rule changes a file's columns
SNAPSHOT_VERSION = 1
_COLUMNS = ("ids", "texts", "kinds", "sources")
UNIT_NORM_TOL = 1e-9  # a stored row's norm may differ from 1 by this much
# rows normalised per step: np.linalg.norm allocates two temporaries the size
# of its input, so a step over the whole matrix briefly triples its memory
NORM_ROWS = 256


@dataclass(frozen=True)
class Chunk:
    id: str
    text: str
    kind: str
    source: str = ""

    def __post_init__(self):
        if not self.id:
            raise ValueError("chunk id must be non-empty")
        if not self.text.strip():
            raise ValueError(f"chunk {self.id!r}: text is empty")
        if self.kind not in KINDS:
            raise ValueError(f"chunk {self.id!r}: unknown kind {self.kind!r}")


class ChunkIndex:
    """Chunk ids, their kinds and vector matrices, all in ingestion order.

    ``matrix(provider)`` embeds every chunk text once per provider, as one
    block that bypasses the provider's per-text cache, and keeps the rows
    L2-normalised: that matrix is the only long-lived copy of the corpus
    vectors, and a question is scored with one matrix-vector product.
    An index built from ids alone (``kinds`` and ``texts`` omitted) serves
    similarity rows given as plain ``{chunk id: score}`` mappings.

    With a ``store`` directory, a matrix is first looked for there as
    ``<key>.npy``, the key being a hash of the provider's fingerprint and
    ``digest``, the corpus digest (see ``snapshot_bytes``); an index given
    no digest digests its own ids, kinds and texts by the same rule. A
    missing or invalid file is built as without a store and then written.
    A stored matrix is memory-mapped read-only, so processes that load one
    file share its page-cache copy; a built one stays in memory.
    """

    def __init__(self, ids: list[str], kinds: list[str] | None = None,
                 texts: list[str] | None = None, store: str | Path | None = None,
                 digest: str | None = None):
        self.ids = ids
        self.position = {cid: i for i, cid in enumerate(ids)}
        self.kinds = None if kinds is None else np.array(kinds)
        # each kind's positions in ascending order, so per-kind selection
        # reads them instead of comparing every chunk's label
        self.kind_positions = None if kinds is None else {
            kind: np.flatnonzero(self.kinds == kind) for kind in dict.fromkeys(kinds)}
        self._texts = texts
        self._store = None if store is None else Path(store)
        if store is not None and digest is None:
            digest = _sha256(snapshot_bytes(ids, texts, kinds, []))
        self._digest = digest
        self._lock = threading.Lock()
        # provider -> [lock, matrix]; the lock makes concurrent first uses build once
        self._matrices: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def __len__(self) -> int:
        return len(self.ids)

    def matrix(self, provider) -> np.ndarray:
        """(chunks, dim) unit-norm vectors of every chunk under ``provider``."""
        with self._lock:
            slot = self._matrices.setdefault(provider, [threading.Lock(), None])
        with slot[0]:
            if slot[1] is None:
                if self._texts is None:
                    raise ValueError("this index holds no chunk texts to embed")
                path = None if self._store is None else self.stored_path(provider)
                block = None if path is None else _load_matrix(path, len(self._texts), provider)
                if block is None:
                    t0 = time.perf_counter()
                    block = _unit_rows(provider.embed_matrix(self._texts))
                    log.debug("built the %d x %d corpus matrix of %r in %.3f s",
                              *block.shape, provider.model_id, time.perf_counter() - t0)
                    if path is not None:
                        _write_atomic(path, lambda f: np.save(f, block, allow_pickle=False),
                                      "corpus matrix")
                slot[1] = block
            return slot[1]

    def stored_path(self, provider) -> Path:
        """``<store>/<key>.npy``: the key hashes the provider's fingerprint and
        the corpus digest."""
        key = json.dumps([provider.fingerprint(), self._digest], sort_keys=True)
        return self._store / f"{_sha256(key.encode('utf-8'))}.npy"


def _unit_rows(block: np.ndarray) -> np.ndarray:
    """Divide each row of ``block`` by its L2 norm, in place, NORM_ROWS rows
    at a time.

    A row's norm does not depend on the other rows in the step, so the
    result is bit-identical to one ``np.linalg.norm`` over the whole block.
    Keeping the temporaries smaller than the block also keeps them from
    raising glibc's mmap threshold to the block's size: if they did, the
    next model's matrix would land in the brk heap, and how much of it the
    heap gives back once it is freed would vary from run to run.
    """
    for start in range(0, len(block), NORM_ROWS):
        rows = block[start:start + NORM_ROWS]
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return block


def _load_matrix(path: Path, rows: int, provider) -> np.ndarray | None:
    """The stored matrix at ``path``, mapped read-only, if it passes every rule a
    built one does, else None.

    A dimension that disagrees with the provider's raises
    ``DimensionMismatchError``, as a freshly embedded block would.
    """
    try:
        block = np.load(path, mmap_mode="r", allow_pickle=False)
    except FileNotFoundError:
        return None
    except (OSError, ValueError, EOFError) as e:
        log.warning("rejected the stored corpus matrix %s (%s); rebuilding it", path, e)
        return None
    if (not isinstance(block, np.ndarray) or block.dtype != np.float64 or block.ndim != 2
            or block.shape[0] != rows or block.shape[1] == 0):
        problem = (f"{getattr(block, 'dtype', type(block).__name__)} "
                   f"of shape {getattr(block, 'shape', None)}")
    # a non-finite entry makes its row's sum of squares inf or nan, failing this too
    elif not (np.abs(np.sqrt(np.einsum("ij,ij->i", block, block)) - 1.0)
              <= UNIT_NORM_TOL).all():
        problem = ("non-finite entries" if not np.isfinite(block).all()
                   else "rows that are not unit-norm")
    else:
        provider.hold_dims({block.shape[1]})
        log.debug("loaded the %d x %d corpus matrix of %r from %s",
                  *block.shape, provider.model_id, path)
        return block.view(np.ndarray)
    log.warning("rejected the stored corpus matrix %s (%s, want %d float64 rows); "
                "rebuilding it", path, problem, rows)
    return None


def _write_atomic(path: Path, write, what: str) -> None:
    """Write ``path`` through ``write(file)`` into a temp file, then rename it
    into place; a failure is logged as ``what``, not raised.

    A stored file is only ever replaced by a rename, never rewritten in
    place: a process may hold the old one memory-mapped or half read.
    """
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
        with os.fdopen(fd, "wb") as f:
            write(f)
        os.replace(tmp, path)
        log.debug("stored the %s at %s", what, path)
    except OSError as e:
        log.warning("could not store the %s at %s: %s", what, path, e)
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def snapshot_bytes(ids, texts, kinds, sources) -> bytes:
    """The JSON of the four corpus columns: a snapshot file's bytes.

    Their sha256 is the corpus digest that keys the matrix store, whether
    a snapshot was read, written or never made.
    """
    return json.dumps(dict(zip(_COLUMNS, (ids, texts, kinds, sources)))).encode("utf-8")


def _snapshot_columns(raw: bytes) -> tuple[list[str], ...]:
    """The columns a snapshot's bytes hold, held to every rule ingestion
    keeps; a ValueError names the first rule broken.

    Each check is one C-level pass (``map``, ``set``), not a generator.
    """
    obj = json.loads(raw)
    if type(obj) is not dict or obj.keys() != set(_COLUMNS):
        raise ValueError(f"not an object of the columns {_COLUMNS}")
    columns = tuple(obj[name] for name in _COLUMNS)
    if {type(column) for column in columns} != {list}:
        raise ValueError("a column is not a list")
    if len(set(map(len, columns))) != 1:
        raise ValueError("columns of unequal length")
    if not {str}.issuperset(map(type, chain.from_iterable(columns))):
        raise ValueError("an item that is not a string")
    ids, texts, kinds, _ = columns
    if not all(ids) or len(set(ids)) != len(ids):
        raise ValueError("an empty or duplicate id")
    if not all(map(str.strip, texts)):
        raise ValueError("an empty text")
    if not set(kinds) <= set(KINDS):
        raise ValueError("an unknown kind")
    return columns


def _read_snapshot(path: Path) -> tuple[bytes, tuple[list[str], ...]] | None:
    """The bytes and columns of the snapshot at ``path`` if it passes every
    check, else None."""
    try:
        raw = path.read_bytes()
        return raw, _snapshot_columns(raw)
    except FileNotFoundError:
        return None
    except (OSError, ValueError, RecursionError) as e:
        log.warning("rejected the corpus snapshot %s (%s); rewriting it", path, e)
        return None


def read_bytes(path: Path) -> bytes:
    """A file's bytes; a file that cannot be read is malformed at line 0."""
    try:
        return path.read_bytes()
    except OSError as e:
        raise MalformedLineError(str(path), 0, f"unreadable file: {e}") from e


def _newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def decode_text(data: bytes, path: Path) -> str:
    """``data`` decoded as ``path.read_text(encoding="utf-8")`` decodes it:
    "\r\n" and a lone "\r" become "\n".

    Bytes that are not UTF-8 make the file malformed at the line holding
    the first of them.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line_no = _newlines(data[:e.start].decode("utf-8")).count("\n") + 1
        raise MalformedLineError(
            str(path), line_no,
            f"not valid UTF-8: byte 0x{data[e.start]:02x} at offset {e.start} ({e.reason})",
        ) from e
    return _newlines(text)


def jsonl_values(text: str, path: Path):
    """Yield ``(line number, value)`` for each non-blank line of JSONL text
    read from ``path``.

    Lines end at "\n" only (``decode_text`` turns "\r\n" into it): U+0085,
    U+2028 and U+2029 may stand raw inside a JSON string, and
    ``str.splitlines`` would cut the line there.
    """
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            value = json.loads(line)
        except json.JSONDecodeError as e:
            raise MalformedLineError(str(path), line_no, f"invalid JSON: {e.msg}") from e
        yield line_no, value


def read_jsonl(path: Path):
    """``jsonl_values`` of the UTF-8 file at ``path``."""
    return jsonl_values(decode_text(read_bytes(path), path), path)


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown chunk kind {kind!r}")


class Corpus:
    """Ordered, immutable-after-ingestion chunk store, held as columns.

    Chunk ids, texts, kinds and sources are parallel lists in ingestion
    order; a ``Chunk`` is built only when one is read (``get``, iteration,
    ``chunks``). ``store`` is a directory for the index's corpus matrices
    (see ``ChunkIndex``) and for ``from_files``' snapshots; without it the
    matrices live in memory only.
    """

    def __init__(self, store: str | Path | None = None):
        self.store = store
        self._ids: list[str] = []
        self._texts: list[str] = []
        self._kinds: list[str] = []
        self._sources: list[str] = []
        self._position: dict[str, int] = {}
        self._index: ChunkIndex | None = None
        self._index_lock = threading.Lock()
        # sha256 of snapshot_bytes(columns), known after from_files, else computed on first use
        self._digest: str | None = None

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self):
        return map(Chunk, self._ids, self._texts, self._kinds, self._sources)

    @property
    def chunks(self) -> list[Chunk]:
        return list(self)

    def ids(self, kind: str | None = None) -> list[str]:
        if kind is None:
            return list(self._ids)
        return [cid for cid, k in zip(self._ids, self._kinds) if k == kind]

    def position(self, chunk_id: str) -> int:
        """Ingestion ordinal of a chunk (the tie-break order)."""
        try:
            return self._position[chunk_id]
        except KeyError:
            raise UnknownChunkError(chunk_id) from None

    def get(self, chunk_id: str) -> Chunk:
        i = self.position(chunk_id)
        return Chunk(self._ids[i], self._texts[i], self._kinds[i], self._sources[i])

    def index(self) -> ChunkIndex:
        """The retrieval index of every chunk added so far, built on first use."""
        with self._index_lock:
            if self._index is None:
                if self.store is not None and self._digest is None:
                    self._digest = _sha256(snapshot_bytes(
                        self._ids, self._texts, self._kinds, self._sources))
                # copies: a later add must not grow the lists an index was built on
                self._index = ChunkIndex(list(self._ids), list(self._kinds),
                                         list(self._texts), store=self.store,
                                         digest=self._digest)
            return self._index

    def add(self, chunk: Chunk) -> None:
        self._append([chunk.id], [chunk.text], [chunk.kind], [chunk.source])

    def _append(self, ids: list[str], texts: list[str], kinds: list[str],
                sources: list[str]) -> None:
        """Append validated columns in one step; a duplicate id adds nothing."""
        start = len(self._ids)
        fresh = dict(zip(ids, range(start, start + len(ids))))
        if len(fresh) != len(ids) or not self._position.keys().isdisjoint(fresh):
            seen: set[str] = set()
            for cid in ids:  # name the first duplicate in ingestion order
                if cid in self._position or cid in seen:
                    raise DuplicateChunkError(cid)
                seen.add(cid)
        with self._index_lock:
            self._ids += ids
            self._texts += texts
            self._kinds += kinds
            self._sources += sources
            self._position.update(fresh)
            self._index = None
            self._digest = None

    def _fresh_id(self, taken: set[str]) -> str:
        n = len(self._ids) + len(taken)
        while True:
            cand = f"chunk-{n}"
            if cand not in self._position and cand not in taken:
                return cand
            n += 1

    def ingest(self, path: str | Path, kind: str = "qa") -> int:
        """Load chunks from a file and return the number added.

        ``*.jsonl`` files hold one JSON object per line
        (``{"id"?, "text", "kind"?, "source"?}``; the ``kind`` argument is
        the default for lines that omit it). An absent, null or empty
        ``id`` is auto-assigned as ``chunk-<ordinal>``; any other id, and a
        present ``source``, must be a string. Any other extension is read
        as plain text with blank-line-delimited chunks, ids auto-assigned.
        The whole file is validated before anything is stored, so a bad
        line adds nothing.
        """
        path = Path(path)
        _check_kind(kind)
        return self._ingest(path, read_bytes(path), kind)

    def _ingest(self, path: Path, data: bytes, kind: str) -> int:
        """``ingest`` of the file at ``path`` whose bytes are ``data``."""
        text = decode_text(data, path)
        if path.suffix.lower() == ".jsonl":
            columns = self._parse_jsonl(text, path, kind)
        else:
            columns = self._parse_plain(text, kind, source=str(path))
        self._append(*columns)
        return len(columns[0])

    @classmethod
    def from_files(cls, entries: list[tuple[str, str]], store: str | Path) -> Corpus:
        """The corpus ``ingest`` builds from ``entries``, (path, kind) pairs
        in order, kept as a snapshot under ``store``.

        The snapshot ``<store>/<key>.corpus.json`` holds the validated
        columns (``snapshot_bytes``). Its key hashes ``SNAPSHOT_VERSION``
        and each entry's path as given, kind and file sha256, in order: a
        line without ``source`` takes the path as its source, and an
        auto-assigned id counts the chunks ingested before it. A snapshot
        is used only if it passes ``_snapshot_columns``' checks; anything
        else is a miss, which parses the very bytes that were hashed and
        writes the snapshot. A file that fails to parse gets none.
        """
        for _, kind in entries:
            _check_kind(kind)
        corpus = cls(store=store)
        blobs: list[bytes] = []
        for path, kind in entries:
            try:
                blobs.append(read_bytes(Path(path)))
            except MalformedLineError:
                # the files before it come first, so their errors do too, as with ingest
                for (earlier, earlier_kind), data in zip(entries, blobs):
                    corpus._ingest(Path(earlier), data, earlier_kind)
                raise
        key = json.dumps([SNAPSHOT_VERSION, [[os.fspath(path), kind, _sha256(data)]
                                             for (path, kind), data in zip(entries, blobs)]])
        snapshot = Path(store) / f"{_sha256(key.encode('utf-8'))}.corpus.json"
        found = _read_snapshot(snapshot)
        if found is None:
            for (path, kind), data in zip(entries, blobs):
                corpus._ingest(Path(path), data, kind)
            raw = snapshot_bytes(corpus._ids, corpus._texts, corpus._kinds, corpus._sources)
            _write_atomic(snapshot, lambda f: f.write(raw), "corpus snapshot")
        else:
            raw, columns = found
            corpus._append(*columns)
            log.debug("loaded %d chunks from the corpus snapshot %s", len(corpus), snapshot)
        corpus._digest = _sha256(raw)
        return corpus

    def _parse_jsonl(self, text: str, file: Path, default_kind: str) -> tuple[list[str], ...]:
        path = str(file)
        ids: list[str] = []
        texts: list[str] = []
        kinds: list[str] = []
        sources: list[str] = []
        assigned: set[str] = set()
        for line_no, obj in jsonl_values(text, file):
            if not isinstance(obj, dict):
                raise MalformedLineError(path, line_no, "expected a JSON object")
            text = obj.get("text")
            if not isinstance(text, str) or not text.strip():
                raise MalformedLineError(path, line_no, "missing or empty 'text'")
            kind = obj.get("kind", default_kind)
            if kind not in KINDS:
                raise MalformedLineError(path, line_no, f"unknown kind {kind!r}")
            chunk_id = obj.get("id")
            if chunk_id is None or chunk_id == "":
                chunk_id = self._fresh_id(assigned)
            elif not isinstance(chunk_id, str):
                raise MalformedLineError(path, line_no, "'id' must be a string")
            source = obj.get("source", path)
            if not isinstance(source, str):
                raise MalformedLineError(path, line_no, "'source' must be a string")
            assigned.add(chunk_id)
            ids.append(chunk_id)
            texts.append(text)
            kinds.append(kind)
            sources.append(source)
        return ids, texts, kinds, sources

    def _parse_plain(self, raw: str, kind: str, source: str) -> tuple[list[str], ...]:
        ids: list[str] = []
        texts: list[str] = []
        assigned: set[str] = set()
        for block in raw.split("\n\n"):
            text = block.strip()
            if not text:
                continue
            chunk_id = self._fresh_id(assigned)
            assigned.add(chunk_id)
            ids.append(chunk_id)
            texts.append(text)
        return ids, texts, [kind] * len(ids), [source] * len(ids)

    def kind_counts(self) -> dict[str, int]:
        return {k: self._kinds.count(k) for k in KINDS}
