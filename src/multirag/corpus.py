"""External knowledge corpus: chunk storage, JSONL/plain-text ingestion, and
the array index retrieval scores against.

Chunks are write-once: ingestion is single-writer, reads are free after
it completes. Iteration order is ingestion order and is what every
tie-breaking rule downstream refers to.
"""

from __future__ import annotations

import json
import threading
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DuplicateChunkError, MalformedLineError, UnknownChunkError

KINDS = ("qa", "textbook")


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
    """

    def __init__(self, ids: list[str], kinds: list[str] | None = None,
                 texts: list[str] | None = None):
        self.ids = ids
        self.position = {cid: i for i, cid in enumerate(ids)}
        self.kinds = None if kinds is None else np.array(kinds)
        self._texts = texts
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
                block = provider.embed_matrix(self._texts)
                block /= np.linalg.norm(block, axis=1, keepdims=True)
                slot[1] = block
            return slot[1]


class Corpus:
    """Ordered, immutable-after-ingestion chunk store with a kind index."""

    def __init__(self):
        self._chunks: list[Chunk] = []
        self._by_id: dict[str, Chunk] = {}
        self._position: dict[str, int] = {}
        self._by_kind: dict[str, list[str]] = {k: [] for k in KINDS}
        self._index: ChunkIndex | None = None
        self._index_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._chunks)

    def __iter__(self):
        return iter(self._chunks)

    @property
    def chunks(self) -> list[Chunk]:
        return list(self._chunks)

    def ids(self, kind: str | None = None) -> list[str]:
        if kind is None:
            return [c.id for c in self._chunks]
        return list(self._by_kind[kind])

    def position(self, chunk_id: str) -> int:
        """Ingestion ordinal of a chunk (the tie-break order)."""
        try:
            return self._position[chunk_id]
        except KeyError:
            raise UnknownChunkError(chunk_id) from None

    def get(self, chunk_id: str) -> Chunk:
        try:
            return self._by_id[chunk_id]
        except KeyError:
            raise UnknownChunkError(chunk_id) from None

    def index(self) -> ChunkIndex:
        """The retrieval index of every chunk added so far, built on first use."""
        with self._index_lock:
            if self._index is None:
                chunks = self._chunks
                self._index = ChunkIndex([c.id for c in chunks], [c.kind for c in chunks],
                                         [c.text for c in chunks])
            return self._index

    def add(self, chunk: Chunk) -> None:
        if chunk.id in self._by_id:
            raise DuplicateChunkError(chunk.id)
        self._position[chunk.id] = len(self._chunks)
        self._chunks.append(chunk)
        self._by_id[chunk.id] = chunk
        self._by_kind[chunk.kind].append(chunk.id)
        with self._index_lock:
            self._index = None

    def _fresh_id(self, taken: set[str]) -> str:
        n = len(self._chunks) + len(taken)
        while True:
            cand = f"chunk-{n}"
            if cand not in self._by_id and cand not in taken:
                return cand
            n += 1

    def ingest(self, path: str | Path, kind: str = "qa") -> int:
        """Load chunks from a file and return the number added.

        ``*.jsonl`` files hold one JSON object per line
        (``{"id"?, "text", "kind"?, "source"?}``; the ``kind`` argument is
        the default for lines that omit it). Any other extension is read
        as plain text with blank-line-delimited chunks, ids auto-assigned
        as ``chunk-<ordinal>``. The whole file is validated before
        anything is stored, so a bad line adds nothing.
        """
        path = Path(path)
        if kind not in KINDS:
            raise ValueError(f"unknown chunk kind {kind!r}")
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError as e:
            raise MalformedLineError(str(path), 0, f"unreadable file: {e}") from e

        if path.suffix.lower() == ".jsonl":
            pending = self._parse_jsonl(str(path), raw, kind)
        else:
            pending = self._parse_plain(raw, kind, source=str(path))

        seen: set[str] = set()
        for chunk in pending:
            if chunk.id in self._by_id or chunk.id in seen:
                raise DuplicateChunkError(chunk.id)
            seen.add(chunk.id)
        for chunk in pending:
            self.add(chunk)
        return len(pending)

    def _parse_jsonl(self, path: str, raw: str, default_kind: str) -> list[Chunk]:
        chunks: list[Chunk] = []
        assigned: set[str] = set()
        for line_no, line in enumerate(raw.splitlines(), start=1):
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
            if kind not in KINDS:
                raise MalformedLineError(path, line_no, f"unknown kind {kind!r}")
            chunk_id = obj.get("id") or self._fresh_id(assigned)
            if not isinstance(chunk_id, str):
                raise MalformedLineError(path, line_no, "'id' must be a string")
            assigned.add(chunk_id)
            chunks.append(Chunk(id=chunk_id, text=text, kind=kind,
                                source=obj.get("source", path)))
        return chunks

    def _parse_plain(self, raw: str, kind: str, source: str) -> list[Chunk]:
        chunks: list[Chunk] = []
        assigned: set[str] = set()
        for block in raw.split("\n\n"):
            text = block.strip()
            if not text:
                continue
            chunk_id = self._fresh_id(assigned)
            assigned.add(chunk_id)
            chunks.append(Chunk(id=chunk_id, text=text, kind=kind, source=source))
        return chunks

    def kind_counts(self) -> dict[str, int]:
        return {k: len(v) for k, v in self._by_kind.items()}
