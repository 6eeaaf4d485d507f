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
from functools import cached_property
from itertools import chain, groupby, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import DuplicateChunkError, MalformedLineError, UnknownChunkError

log = logging.getLogger(__name__)

KINDS = ("qa", "textbook")
# A chunk's kind is held, and written to a snapshot, as one ASCII digit: its
# index in KINDS (so at most ten kinds). Changing KINDS changes what a stored
# digit means, so it needs a SNAPSHOT_VERSION bump.
_KIND_DIGIT = {kind: ord(str(code)) for code, kind in enumerate(KINDS)}
_DIGIT_KIND = {digit: kind for kind, digit in _KIND_DIGIT.items()}
_KIND_CHARS = frozenset(map(chr, _DIGIT_KIND))
# part of every snapshot key: bump it when a parse rule or the format changes a file's bytes
SNAPSHOT_VERSION = 2
_COLUMNS = ("ids", "texts", "kinds", "sources")
UNIT_NORM_TOL = 1e-9  # a stored row's norm may differ from 1 by this much
# rows normalised per step: np.linalg.norm allocates two temporaries the size
# of its input, so a step over the whole matrix briefly triples its memory
NORM_ROWS = 256
# rows per step of a corpus matrix product and of a stored matrix's check;
# numpy releases the GIL only in a loop of more than 500 rows, which the
# load's two threads need (see _load_matrix)
STEP_ROWS = 512
# np.load parses a .npy header with ast.literal_eval, and CPython 3.11's AST
# constructor keeps its recursion depth in state all threads share: two threads
# loading at once can fail with "AST constructor recursion depth mismatch"
_NPY_LOAD_LOCK = threading.Lock()


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
    ``kinds`` holds each chunk's kind in one of two forms. ``Corpus.index``
    passes the kind digits the corpus holds, so an engine never converts
    labels; library code that builds an index by hand passes labels from
    ``KINDS``, as this constructor always took. The index keeps them as
    ``kind_codes``, a uint8 array of indices into ``KINDS``, and builds
    ``kinds``, the labels as an array, on first read.
    ``position``, the id -> ordinal dict of ``ids``, is built when not given;
    the index keeps the lists and the dict it is given, not copies.

    With a ``store`` directory, a matrix is first looked for there as
    ``<key>.npy``, the key being a hash of the provider's fingerprint and
    ``digest``, the corpus digest (see ``snapshot_bytes``); an index given
    no digest digests its own ids, kinds and texts by the same rule. A
    missing or invalid file is built as without a store and then written.
    A stored matrix is memory-mapped read-only, so processes that load one
    file share its page-cache copy; a built one stays in memory.
    ``product(provider, vector)`` is ``matrix(provider) @ vector``, taken
    in steps of ``STEP_ROWS`` rows; on a stored matrix's first use the same
    pass also checks the file (see ``_load_matrix``).
    """

    def __init__(self, ids: list[str], kinds: list[str] | bytes | None = None,
                 texts: list[str] | None = None, store: str | Path | None = None,
                 digest: str | None = None, position: dict[str, int] | None = None):
        self.ids = ids
        self.position = {cid: i for i, cid in enumerate(ids)} if position is None else position
        if kinds is not None and not isinstance(kinds, (bytes, bytearray)):
            try:
                kinds = bytes(map(_KIND_DIGIT.__getitem__, kinds))
            except KeyError as e:
                raise ValueError(f"unknown chunk kind {e.args[0]!r}") from None
        self.kind_codes = None if kinds is None else np.frombuffer(kinds, np.uint8) - ord("0")
        # each kind's positions in ascending order, so per-kind selection
        # reads them instead of comparing every chunk's label
        self.kind_positions = None if kinds is None else {
            kind: np.flatnonzero(self.kind_codes == code) for code, kind in enumerate(KINDS)}
        self._texts = texts
        self._store = None if store is None else Path(store)
        if store is not None and digest is None:
            digest = _sha256(snapshot_bytes(ids, texts, None if kinds is None else kinds.decode(),
                                            []))
        self._digest = digest
        self._lock = threading.Lock()
        # provider -> [lock, matrix]; the lock makes concurrent first uses build once
        self._matrices: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def kinds(self) -> np.ndarray | None:
        """Each chunk's kind label, in ingestion order."""
        return None if self.kind_codes is None else np.array(KINDS)[self.kind_codes]

    def matrix(self, provider) -> np.ndarray:
        """(chunks, dim) unit-norm vectors of every chunk under ``provider``."""
        return self._filled(provider)[0]

    def product(self, provider, vector: np.ndarray) -> np.ndarray:
        """``matrix(provider) @ vector``, in steps of ``STEP_ROWS`` rows.

        A row's score is the same whether the matrix was built, loaded or
        already held, whatever BLAS threading each step gets. It equals one
        full ``matrix @ vector`` bit for bit where BLAS runs the product on
        one thread; where BLAS splits it among threads, a row can differ
        from the full product in its last bit (see ``_step_bounds``).
        """
        block, scores = self._filled(provider, vector)
        if scores is None:
            scores = np.empty(len(block))
            _row_steps(block, vector, scores, None, _step_bounds(len(block)))
        return scores

    def _filled(self, provider, vector: np.ndarray | None = None):
        """The provider's matrix, loaded or built on first use, and its
        product with ``vector`` if loading it computed one, else None."""
        with self._lock:
            slot = self._matrices.setdefault(provider, [threading.Lock(), None])
        with slot[0]:
            if slot[1] is not None:
                return slot[1], None
            if self._texts is None:
                raise ValueError("this index holds no chunk texts to embed")
            path = None if self._store is None else self.stored_path(provider)
            block, scores = (None, None) if path is None else _load_matrix(
                path, len(self._texts), provider, vector)
            if block is None:
                t0 = time.perf_counter()
                block = _unit_rows(provider.embed_matrix(self._texts))
                log.debug("built the %d x %d corpus matrix of %r in %.3f s",
                          *block.shape, provider.model_id, time.perf_counter() - t0)
                if path is not None:
                    _write_atomic(path, lambda f: np.save(f, block, allow_pickle=False),
                                  "corpus matrix")
            slot[1] = block
            return block, scores

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


def _step_bounds(rows: int) -> list[int]:
    """The row bounds of a matrix's steps: ``STEP_ROWS`` rows each, the last
    step taking the remainder too.

    Every product of a matrix takes these steps, so a row's score never
    depends on whether the matrix was loaded or built: a BLAS may split a
    call among its threads, and a row computed at such a split can differ
    in its last bit from the same row computed mid-block. Folding the
    remainder into the last step keeps a single-row step, which numpy
    computes as a dot product, off every matrix of more than one row.
    """
    return [step * STEP_ROWS for step in range(max(1, rows // STEP_ROWS))] + [rows]


def _row_steps(block: np.ndarray, vector: np.ndarray | None, scores: np.ndarray | None,
               squares: np.ndarray | None, bounds: list[int]) -> None:
    """For each step between ``bounds``, write ``block @ vector`` into
    ``scores`` and each row's sum of squares into ``squares`` while the
    step's rows are still in cache; a None output is skipped.

    It calls numpy only: the load runs it on a second thread, and
    perfbench's tracer wraps package functions with a span stack that is
    not thread-safe.
    """
    for start, stop in zip(bounds, bounds[1:]):
        rows = block[start:stop]
        if scores is not None:
            np.matmul(rows, vector, out=scores[start:stop])
        if squares is not None:
            # a batch of 1 x dim by dim x 1 products: as fast as a row-wise
            # dot kernel, and it releases the GIL for a step of STEP_ROWS rows
            np.matmul(rows[:, None, :], rows[:, :, None],
                      out=squares[start:stop, None, None])


def _load_matrix(path: Path, rows: int, provider,
                 vector: np.ndarray | None = None) -> tuple[np.ndarray | None, ...]:
    """``(matrix, matrix @ vector)`` for the stored matrix at ``path``, mapped
    read-only, if it passes every rule a built one does, else ``(None, None)``.

    One pass reads the file once: each step of ``STEP_ROWS`` rows gives its
    rows' scores and sums of squares while it is in cache. This thread
    takes the first half of the steps and a second thread the rest (numpy
    releases the GIL in both products); a matrix of one step is read on
    this thread alone. The thread has ended when this returns or raises,
    and an error on it is raised here. When ``vector`` does not fit the
    matrix, the pass computes the squares only and the product is None.
    The scores are kept only if every row is unit-norm. A dimension that
    disagrees with the provider's raises ``DimensionMismatchError``, as a
    freshly embedded block would, but only once the check has passed: an
    invalid file is rebuilt.
    """
    block = _map_matrix(path, rows)
    if block is None:
        return None, None
    t0 = time.perf_counter()
    if vector is not None and block.shape[1] != len(vector):
        vector = None
    scores = None if vector is None else np.empty(rows)
    squares = np.empty(rows)
    bounds = _step_bounds(rows)
    half = len(bounds) // 2
    errors: list[BaseException] = []

    def helper():
        try:
            _row_steps(block, vector, scores, squares, bounds[half:])
        except BaseException as e:  # raised again on the caller's thread
            errors.append(e)

    thread = None
    if len(bounds) > 2:
        thread = threading.Thread(target=helper, name="multirag-matrix-load")
        thread.start()
    try:
        _row_steps(block, vector, scores, squares, bounds if thread is None else bounds[:half + 1])
    finally:
        if thread is not None:
            thread.join()
    if errors:
        raise errors[0]
    problem = _norm_problem(block, squares)
    if problem is not None:
        _reject(path, problem, rows)
        return None, None
    provider.hold_dims({block.shape[1]})
    log.debug("loaded the %d x %d corpus matrix of %r from %s (one pass %.1f ms)",
              *block.shape, provider.model_id, path, (time.perf_counter() - t0) * 1e3)
    return block, scores


def _map_matrix(path: Path, rows: int) -> np.ndarray | None:
    """The header step of ``_load_matrix``: the file at ``path`` mapped
    read-only if it holds a float64 matrix of ``rows`` rows and at least one
    column, else None."""
    try:
        with _NPY_LOAD_LOCK:
            block = np.load(path, mmap_mode="r", allow_pickle=False)
    except FileNotFoundError:
        return None
    except (OSError, ValueError, EOFError) as e:
        log.warning("rejected the stored corpus matrix %s (%s); rebuilding it", path, e)
        return None
    if (not isinstance(block, np.ndarray) or block.dtype != np.float64 or block.ndim != 2
            or block.shape[0] != rows or block.shape[1] == 0):
        _reject(path, f"{getattr(block, 'dtype', type(block).__name__)} "
                      f"of shape {getattr(block, 'shape', None)}", rows)
        return None
    return block.view(np.ndarray)


def _norm_problem(block: np.ndarray, squares: np.ndarray) -> str | None:
    """Why ``block``'s rows, whose sums of squares are ``squares``, are not
    all unit-norm, or None if they are."""
    # a non-finite entry makes its row's sum of squares inf or nan, failing this too
    if (np.abs(np.sqrt(squares) - 1.0) <= UNIT_NORM_TOL).all():
        return None
    return ("non-finite entries" if not np.isfinite(block).all()
            else "rows that are not unit-norm")


def _reject(path: Path, problem: str, rows: int) -> None:
    log.warning("rejected the stored corpus matrix %s (%s, want %d float64 rows); "
                "rebuilding it", path, problem, rows)


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

    ``kinds`` is one string of kind digits (see ``KINDS``) and ``sources``
    the ``[source, count]`` runs of equal adjacent sources
    (``_source_runs``). Their sha256 is the corpus digest that keys the
    matrix store, whether a snapshot was read, written or never made.
    """
    return json.dumps(dict(zip(_COLUMNS, (ids, texts, kinds, sources)))).encode("utf-8")


def _source_runs(sources: list[str]) -> list[list]:
    return [[source, len(list(run))] for source, run in groupby(sources)]


def _snapshot_columns(raw: bytes) -> tuple[tuple, dict[str, int]]:
    """The columns a snapshot's bytes hold, decoded as ``Corpus`` holds
    them, and the id -> position dict of their ids, all held to every rule
    ingestion keeps; a ValueError names the first rule broken.

    Each check is one C-level pass (``map``, ``set``, ``dict``), not a
    generator.
    """
    obj = json.loads(raw)
    if type(obj) is not dict or obj.keys() != set(_COLUMNS):
        raise ValueError(f"not an object of the columns {_COLUMNS}")
    ids, texts, kinds, runs = (obj[name] for name in _COLUMNS)
    if tuple(map(type, (ids, texts, kinds, runs))) != (list, list, str, list):
        raise ValueError("a column of the wrong type")
    if not len(ids) == len(texts) == len(kinds):
        raise ValueError("columns of unequal length")
    if not {str}.issuperset(map(type, chain(ids, texts))):
        raise ValueError("an id or text that is not a string")
    position = dict(zip(ids, range(len(ids))))
    if not all(ids) or len(position) != len(ids):
        raise ValueError("an empty or duplicate id")
    if not all(map(str.strip, texts)):
        raise ValueError("an empty text")
    if not _KIND_CHARS.issuperset(kinds):
        raise ValueError("an unknown kind code")
    if not {list}.issuperset(map(type, runs)) or not {2}.issuperset(map(len, runs)):
        raise ValueError("sources that are not [source, count] pairs")
    names, counts = list(map(itemgetter(0), runs)), list(map(itemgetter(1), runs))
    if not {str}.issuperset(map(type, names)):
        raise ValueError("a source that is not a string")
    # type(True) is bool, so a bool count fails this too
    if not {int}.issuperset(map(type, counts)) or min(counts, default=1) < 1:
        raise ValueError("a source count that is not an integer of at least 1")
    if sum(counts) != len(ids):
        raise ValueError("source counts that do not sum to the row count")
    sources = list(chain.from_iterable(map(repeat, names, counts)))
    return (ids, texts, kinds.encode("ascii"), sources), position


def _read_snapshot(path: Path) -> tuple[bytes, tuple, dict[str, int]] | None:
    """The bytes of the snapshot at ``path`` and what ``_snapshot_columns``
    makes of them if they pass every check, else None."""
    try:
        raw = path.read_bytes()
        return raw, *_snapshot_columns(raw)
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

    Chunk ids, texts and sources are parallel lists in ingestion order, and
    kinds one ``bytearray`` of kind digits (see ``KINDS``); a ``Chunk`` is
    built only when one is read (``get``, iteration, ``chunks``). ``store``
    is a directory for the index's corpus matrices (see ``ChunkIndex``) and
    for ``from_files``' snapshots; without it the matrices live in memory
    only.
    """

    def __init__(self, store: str | Path | None = None):
        self.store = store
        self._ids: list[str] = []
        self._texts: list[str] = []
        self._kinds = bytearray()
        self._sources: list[str] = []
        self._position: dict[str, int] = {}
        self._index: ChunkIndex | None = None
        self._index_lock = threading.Lock()
        # sha256 of _snapshot_bytes(), known after from_files, else computed on first use
        self._digest: str | None = None

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self):
        return map(Chunk, self._ids, self._texts, map(_DIGIT_KIND.__getitem__, self._kinds),
                   self._sources)

    @property
    def chunks(self) -> list[Chunk]:
        return list(self)

    def ids(self, kind: str | None = None) -> list[str]:
        if kind is None:
            return list(self._ids)
        digit = _KIND_DIGIT.get(kind)
        return [cid for cid, d in zip(self._ids, self._kinds) if d == digit]

    def position(self, chunk_id: str) -> int:
        """Ingestion ordinal of a chunk (the tie-break order)."""
        try:
            return self._position[chunk_id]
        except KeyError:
            raise UnknownChunkError(chunk_id) from None

    def get(self, chunk_id: str) -> Chunk:
        i = self.position(chunk_id)
        return Chunk(self._ids[i], self._texts[i], _DIGIT_KIND[self._kinds[i]], self._sources[i])

    def index(self) -> ChunkIndex:
        """The retrieval index of every chunk added so far, built on first use."""
        with self._index_lock:
            if self._index is None:
                if self.store is not None and self._digest is None:
                    self._digest = _sha256(self._snapshot_bytes())
                # shared, not copied: _append copies a column an index shares before growing it
                self._index = ChunkIndex(self._ids, self._kinds, self._texts,
                                         store=self.store, digest=self._digest,
                                         position=self._position)
            return self._index

    def _snapshot_bytes(self) -> bytes:
        return snapshot_bytes(self._ids, self._texts, self._kinds.decode("ascii"),
                              _source_runs(self._sources))

    def add(self, chunk: Chunk) -> None:
        self._append([chunk.id], [chunk.text], bytes([_KIND_DIGIT[chunk.kind]]), [chunk.source])

    def _append(self, ids: list[str], texts: list[str], kinds: bytes, sources: list[str],
                fresh: dict[str, int] | None = None) -> None:
        """Append validated columns in one step; a duplicate id adds nothing.

        ``fresh`` maps ``ids`` to their positions once appended; it is built
        when not given.
        """
        start = len(self._ids)
        if fresh is None:
            fresh = dict(zip(ids, range(start, start + len(ids))))
        if len(fresh) != len(ids) or not self._position.keys().isdisjoint(fresh):
            seen: set[str] = set()
            for cid in ids:  # name the first duplicate in ingestion order
                if cid in self._position or cid in seen:
                    raise DuplicateChunkError(cid)
                seen.add(cid)
        with self._index_lock:
            if self._index is not None:
                # the index shares these columns: it keeps them, and they grow as copies
                self._ids, self._texts = self._ids[:], self._texts[:]
                self._position = self._position.copy()
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
            raw = corpus._snapshot_bytes()
            _write_atomic(snapshot, lambda f: f.write(raw), "corpus snapshot")
        else:
            raw, columns, position = found
            corpus._append(*columns, fresh=position)
            log.debug("loaded %d chunks from the corpus snapshot %s", len(corpus), snapshot)
        corpus._digest = _sha256(raw)
        return corpus

    def _parse_jsonl(self, text: str, file: Path, default_kind: str) -> tuple:
        path = str(file)
        ids: list[str] = []
        texts: list[str] = []
        kinds = bytearray()
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
            kinds.append(_KIND_DIGIT[kind])
            sources.append(source)
        return ids, texts, kinds, sources

    def _parse_plain(self, raw: str, kind: str, source: str) -> tuple:
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
        return ids, texts, bytes([_KIND_DIGIT[kind]]) * len(ids), [source] * len(ids)

    def kind_counts(self) -> dict[str, int]:
        return {k: self._kinds.count(_KIND_DIGIT[k]) for k in KINDS}
