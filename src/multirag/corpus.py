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
from pathlib import Path

import numpy as np

from .errors import DuplicateChunkError, MalformedLineError, UnknownChunkError

log = logging.getLogger(__name__)

KINDS = ("qa", "textbook")
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
    the chunk texts in ingestion order; a missing or invalid file is built
    as without a store and then written. A stored matrix is memory-mapped
    read-only, so processes that load one file share its page-cache copy;
    a built one stays in memory.
    """

    def __init__(self, ids: list[str], kinds: list[str] | None = None,
                 texts: list[str] | None = None, store: str | Path | None = None):
        self.ids = ids
        self.position = {cid: i for i, cid in enumerate(ids)}
        self.kinds = None if kinds is None else np.array(kinds)
        self._texts = texts
        self._store = None if store is None else Path(store)
        self._texts_digest: str | None = None
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
                        _save_matrix(path, block)
                slot[1] = block
            return slot[1]

    def stored_path(self, provider) -> Path:
        """``<store>/<key>.npy``: the key hashes the provider's fingerprint and
        the chunk texts in ingestion order, each encoded as JSON."""
        if self._texts_digest is None:
            self._texts_digest = hashlib.sha256(
                json.dumps(self._texts).encode("utf-8")).hexdigest()
        key = json.dumps([provider.fingerprint(), self._texts_digest], sort_keys=True)
        return self._store / f"{hashlib.sha256(key.encode('utf-8')).hexdigest()}.npy"


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


def _save_matrix(path: Path, block: np.ndarray) -> None:
    """Write ``block`` to ``path`` atomically; a failure is logged, not raised.

    The file is only ever replaced by a rename, never rewritten in place:
    a process may hold the old one memory-mapped.
    """
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
        with os.fdopen(fd, "wb") as f:
            np.save(f, block, allow_pickle=False)
        os.replace(tmp, path)
        log.debug("stored the corpus matrix at %s", path)
    except OSError as e:
        log.warning("could not store the corpus matrix at %s: %s", path, e)
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


_DECODER = json.JSONDecoder()


def _json_value(line: str):
    """``json.loads(line)``, skipping its whitespace scans when none is needed."""
    try:
        value, end = _DECODER.raw_decode(line)
        if end == len(line):
            return value
    except json.JSONDecodeError:
        pass
    return json.loads(line)  # surrounding whitespace, or the error json.loads reports


class Corpus:
    """Ordered, immutable-after-ingestion chunk store, held as columns.

    Chunk ids, texts, kinds and sources are parallel lists in ingestion
    order; a ``Chunk`` is built only when one is read (``get``, iteration,
    ``chunks``). ``store`` is a directory for the index's corpus matrices
    (see ``ChunkIndex``); without it they live in memory only.
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
                # copies: a later add must not grow the lists an index was built on
                self._index = ChunkIndex(list(self._ids), list(self._kinds),
                                         list(self._texts), store=self.store)
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
        if kind not in KINDS:
            raise ValueError(f"unknown chunk kind {kind!r}")
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError as e:
            raise MalformedLineError(str(path), 0, f"unreadable file: {e}") from e

        if path.suffix.lower() == ".jsonl":
            columns = self._parse_jsonl(str(path), raw, kind)
        else:
            columns = self._parse_plain(raw, kind, source=str(path))
        self._append(*columns)
        return len(columns[0])

    def _parse_jsonl(self, path: str, raw: str, default_kind: str) -> tuple[list[str], ...]:
        ids: list[str] = []
        texts: list[str] = []
        kinds: list[str] = []
        sources: list[str] = []
        assigned: set[str] = set()
        for line_no, line in enumerate(raw.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = _json_value(line)
            except json.JSONDecodeError as e:
                raise MalformedLineError(path, line_no, f"invalid JSON: {e.msg}") from e
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
