"""External knowledge corpus: chunk storage, JSONL/plain-text ingestion, and
the array index retrieval scores against.

Chunks are write-once: ingestion is single-writer, reads are free after
it completes. Iteration order is ingestion order and is what every
tie-breaking rule downstream refers to.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import mmap
import operator
import os
import tempfile
import threading
import time
import weakref
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DuplicateChunkError, MalformedLineError, UnknownChunkError

log = logging.getLogger(__name__)

KINDS = ("qa", "textbook")
# A chunk's kind is held, and written to a snapshot, as one ASCII digit: its
# index in KINDS (so at most ten kinds). Changing KINDS changes what a stored
# digit means, so it needs a SNAPSHOT_VERSION bump.
_KIND_DIGIT = {kind: ord(str(code)) for code, kind in enumerate(KINDS)}
_DIGIT_KIND = {digit: kind for kind, digit in _KIND_DIGIT.items()}
# the kind digits as bytes: bytes.translate deletes them, and a kinds column
# is valid when nothing is left
_KIND_DIGITS = bytes(_DIGIT_KIND)
# part of every snapshot key: bump it when a parse rule or the format changes a file's bytes
SNAPSHOT_VERSION = 3
# a snapshot file starts with these bytes and then the sha256 of its payload
_SNAPSHOT_MAGIC = b"MRAGCOR3"
_SNAPSHOT_HEAD = len(_SNAPSHOT_MAGIC) + 32
# the payload starts with five <u8 counts: rows, id bytes, text bytes, source
# runs and source bytes (see snapshot_payload)
_COUNTS = 5
UNIT_NORM_TOL = 1e-9  # a stored row's norm may differ from 1 by this much
# rows per step of every pass over a corpus matrix: its normalisation, its
# products and a stored matrix's check, the writer and _resolve's recomputed
# steps. The product's steps fix every score's bits whatever BLAS threading
# each step gets (see _step_bounds); another size could move a score's last bit.
STEP_ROWS = 512
# a stored matrix of fewer steps is never read through its float32 copy: below
# this the coarse path's fixed costs (a second file header, the shortlist, the
# gather and any step recomputed) outweigh reading half the bytes
COARSE_MIN_STEPS = 8
# unit roundoff of float32 and of float64
_U32, _U64 = 2.0 ** -24, 2.0 ** -53
# the bytes of the .npy header np.save writes for any 2-D shape below 10**20
# rows or columns: version 1.0, padded to a multiple of 64 bytes
_NPY_HEAD = 128
# what opening a stored file raises where there is none: a path under a
# regular file, such as an unwritable store's, holds no file either
_NO_FILE = (FileNotFoundError, NotADirectoryError)


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
    ``position``, the id -> ordinal dict of ``ids``, is built on first use
    when not given; the index keeps the sequences and the dict it is given,
    not copies, so a snapshot's lazy columns stay lazy (see ``_Strings``).

    With a ``store`` directory, a matrix is first looked for there as
    ``<key>.npy``, the key being a hash of the provider's fingerprint and
    ``digest``, the corpus digest (see ``snapshot_payload``); an index given
    no digest digests its own ids, kinds and texts by the same rule. A
    missing or invalid file is built as without a store and then written
    (``_write_npy``). A stored matrix is memory-mapped read-only
    (``_map_exact``), so processes that load one file share its page-cache
    copy. A build that was written is returned for its one use and not
    held, so the block is freed once that use returns, and later uses map
    and check the file as a warm index does; only a build with no store,
    or whose write failed, stays in memory.
    ``product(provider, vector)`` is ``matrix(provider) @ vector``, taken
    in steps of ``STEP_ROWS`` rows; on a stored matrix's first use the same
    pass also checks the file (see ``_load_matrix``).

    ``shortlist`` serves a selection from the stored matrix's float32 copy,
    ``<key>.f32.npy``, reading float64 rows only where the copy's error
    bound cannot rank them (see ``shortlist`` and ``coarse_bounds``); the
    copy is written with a matrix built for a selection that can take that
    path, and wherever that path finds none, or a bad one.
    """

    def __init__(self, ids: Sequence[str], kinds: list[str] | bytes | None = None,
                 texts: Sequence[str] | None = None, store: str | Path | None = None,
                 digest: str | None = None, position: dict[str, int] | None = None):
        self.ids = ids
        self._position = position
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
            # no kinds hash as an empty column, which no snapshot of these rows holds
            digest = _sha256(snapshot_payload(ids, texts or [], kinds or b"", []))
        self._digest = digest
        self._lock = threading.Lock()
        # provider -> _Slot; its lock makes concurrent first uses build once
        self._matrices: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def position(self) -> dict[str, int]:
        """Chunk id -> ingestion ordinal, built on first use when not given."""
        if self._position is None:
            self._position = dict(zip(self.ids, range(len(self.ids))))
        return self._position

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
        return self.shortlist(provider, vector, None)[1]

    def shortlist(self, provider, vector: np.ndarray,
                  groups: list[tuple[np.ndarray | None, int]] | None):
        """``(positions, values)`` that rank the best ``quota`` rows of each
        ``(positions or None for every row, quota)`` in ``groups`` exactly as
        ``product(provider, vector)`` does, or ``(None, that product)``.

        The coarse path serves the first form. It takes a stored matrix of
        at least ``COARSE_MIN_STEPS`` steps that this index holds no
        float64 copy of, and reads its float32 copy: ``positions`` are
        ascending and hold each group's shortlist, every row whose coarse
        score is at least the group's quota-th coarse score minus 2 eps;
        ``values`` holds their scores clipped to [-1, 1], each either the
        stepped product's or within eta of it and farther than 2 eta from
        every other (see ``coarse_bounds`` and ``_resolve``). Sorting by
        value, then position, gives the product's order of these rows; the
        rows outside them score below each group's cut. Any other case takes
        the full pass, which writes the copy if the coarse path found none
        or rejected it.
        """
        block, scores, found = self._filled(provider, vector, groups)
        if found is not None:
            return found
        if scores is None:
            scores = np.empty(len(block))
            _row_steps(block, vector, scores, None, _step_bounds(len(block)))
        return None, scores

    def _filled(self, provider, vector: np.ndarray | None = None,
                groups: list[tuple[np.ndarray | None, int]] | None = None):
        """``(matrix, product, None)``: the provider's matrix, loaded or built
        on first use, and its product with ``vector`` if loading it computed
        one, else None; or ``(None, None, shortlist)`` where the coarse path
        served ``groups``. A build is held only if it could not be stored:
        with no store, or where a write failed."""
        with self._lock:
            slot = self._matrices.setdefault(provider, _Slot())
        with slot.lock:
            if slot.block is not None:
                return slot.block, None, None
            if self._texts is None:
                raise ValueError("this index holds no chunk texts to embed")
            t0 = time.perf_counter()
            rows = len(self._texts)
            path = None if self._store is None else self.stored_path(provider)
            coarse = groups is not None and path is not None and (
                rows // STEP_ROWS >= COARSE_MIN_STEPS)
            if slot.coarse is not None:
                mapped = slot.coarse[1]
            elif path is None:
                mapped = None
            else:
                mapped = _map_exact(path, "<f8", rows)
                if isinstance(mapped, str):
                    _reject(path, mapped, rows)
                    mapped = None
            if coarse:
                found = "no stored matrix" if mapped is None else self._coarse(
                    slot, path, mapped, provider, vector, groups, t0)
                if not isinstance(found, str):
                    return None, None, found
                reason = found
            elif groups is None:
                reason = "whole row needed"
            else:
                reason = ("no store" if path is None
                          else f"a matrix of fewer than {COARSE_MIN_STEPS} steps")
            block, scores = (None, None) if mapped is None else _load_matrix(
                path, mapped, provider, vector, reason)
            if block is not None:
                if coarse:
                    _write_npy(_copy_path(path), block, "<f4")
                slot.block, slot.coarse = block, None
                return block, scores, None
            t0 = time.perf_counter()
            block = _unit_rows(provider.embed_matrix(self._texts))
            log.debug("built the %d x %d corpus matrix of %r in %.3f s; full pass: %s",
                      *block.shape, provider.model_id, time.perf_counter() - t0, reason)
            slot.block = slot.coarse = None
            if path is None:
                kept = "no store"
            elif not (_write_npy(path, block, "<f8")
                      and (not coarse or _write_npy(_copy_path(path), block, "<f4"))):
                kept = "write failed"
            else:
                # later uses map and check the files as a warm engine does
                log.debug("serving %r from the stored %s; releasing the %.1f MB matrix it "
                          "built", provider.model_id,
                          f"files {path.name} and {_copy_path(path).name}" if coarse
                          else f"file {path.name}", block.nbytes / 1e6)
                return block, None, None
            log.debug("keeping the built matrix of %r in memory: %s", provider.model_id, kept)
            slot.block = block
            return block, None, None

    def _coarse(self, slot: _Slot, path: Path, mapped: np.ndarray, provider,
                vector: np.ndarray, groups: list[tuple[np.ndarray | None, int]],
                started: float):
        """``shortlist``'s coarse path over ``mapped``, the float64 file at
        ``path`` mapped since ``started``, or why it cannot serve.

        The first use maps the float32 copy and checks its header and, in
        the scan's one pass, that every row is unit-norm within the bound's
        tolerance (a non-finite entry fails that too); the slot then holds
        both maps, and a later use scans the copy only. Every float64 row
        read is held to ``UNIT_NORM_TOL``, and every gathered score must lie
        within eps + eta of its coarse score, or the copy is dropped.
        """
        rows, dim = mapped.shape
        if dim != len(vector):
            return f"a query of dimension {len(vector)} for rows of {dim}"
        first = slot.coarse is None
        copy = _map_exact(_copy_path(path), "<f4", rows) if first else slot.coarse[0]
        if copy is None:
            return "no float32 copy"
        if isinstance(copy, str):
            return _reject_copy(_copy_path(path), copy)
        if copy.shape[1] != dim:
            return _reject_copy(_copy_path(path), f"{copy.shape[1]} columns for rows of {dim}")
        bound = coarse_bounds(dim)
        bounds = _step_bounds(rows)
        t1 = time.perf_counter()
        coarse = np.empty(rows, dtype=np.float32)
        squares = np.empty(rows, dtype=np.float32) if first else None
        _row_steps(copy, vector.astype(np.float32), coarse, squares, bounds)
        if first:
            problem = _norm_problem(copy, squares, bound.norm_tol)
            if problem is not None:
                return _reject_copy(_copy_path(path), problem)
        t2 = time.perf_counter()
        positions = _shortlist(coarse, groups, bound.eps)
        t3 = time.perf_counter()
        try:
            values = _gather(mapped, vector, positions, coarse[positions], bound)
            t4 = time.perf_counter()
            recomputed = _resolve(mapped, vector, bounds, positions, values, bound.eta)
        except _Unranked as e:
            log.warning("dropped the float32 copy %s (%s); rewriting it", _copy_path(path), e)
            slot.coarse = None
            return str(e)
        if first:
            provider.hold_dims({dim})
            slot.coarse = (copy, mapped)
            log.debug("scanned the float32 copy of the %d x %d corpus matrix of %r from %s; "
                      "coarse path: shortlist of %d rows gathered, %d steps recomputed "
                      "(map %.2f ms, scan %.2f ms, shortlist %.2f ms, gather %.2f ms, "
                      "recompute %.2f ms)", rows, dim, provider.model_id, path,
                      len(positions), recomputed, (t1 - started) * 1e3, (t2 - t1) * 1e3,
                      (t3 - t2) * 1e3, (t4 - t3) * 1e3, (time.perf_counter() - t4) * 1e3)
        return positions, values

    def stored_path(self, provider) -> Path:
        """``<store>/<key>.npy``: the key hashes the provider's fingerprint and
        the corpus digest."""
        key = json.dumps([provider.fingerprint(), self._digest], sort_keys=True)
        return self._store / f"{_sha256(key.encode('utf-8'))}.npy"


def _unit_rows(block: np.ndarray) -> np.ndarray:
    """Divide each row of ``block`` by its L2 norm, in place, STEP_ROWS rows
    at a time.

    A row's norm does not depend on the other rows in the step, so the
    result is bit-identical to one ``np.linalg.norm`` over the whole block,
    whose two temporaries the size of its input would briefly triple the
    matrix's memory. Keeping them smaller than the block also keeps them from
    raising glibc's mmap threshold to the block's size: if they did, the
    next model's matrix would land in the brk heap, and how much of it the
    heap gives back once it is freed would vary from run to run.
    """
    for start in range(0, len(block), STEP_ROWS):
        rows = block[start:start + STEP_ROWS]
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
    step's rows are still in cache; a None output is skipped."""
    for start, stop in zip(bounds, bounds[1:]):
        rows = block[start:stop]
        if scores is not None:
            np.matmul(rows, vector, out=scores[start:stop])
        if squares is not None:
            # a batch of 1 x dim by dim x 1 products: as fast as a row-wise dot kernel
            np.matmul(rows[:, None, :], rows[:, :, None],
                      out=squares[start:stop, None, None])


def _load_matrix(path: Path, block: np.ndarray, provider, vector: np.ndarray | None,
                 reason: str) -> tuple[np.ndarray | None, ...]:
    """``(block, block @ vector)`` for ``block``, the stored matrix at
    ``path`` as ``_map_exact`` mapped it, if it passes every rule a built
    one does, else ``(None, None)``; ``reason`` says why no coarse path.

    One pass (``_row_steps``) reads the file once: each step of
    ``STEP_ROWS`` rows gives its rows' scores and sums of squares while it
    is in cache. When ``vector`` does not fit the matrix, the pass computes
    the squares only and the product is None. The scores are kept only if
    every row is unit-norm. A dimension that disagrees with the provider's
    raises ``DimensionMismatchError``, as a freshly embedded block would,
    but only once the check has passed: an invalid file is rebuilt.
    """
    t0 = time.perf_counter()
    rows = len(block)
    if vector is not None and block.shape[1] != len(vector):
        vector = None
    scores = None if vector is None else np.empty(rows)
    squares = np.empty(rows)
    _row_steps(block, vector, scores, squares, _step_bounds(rows))
    problem = _norm_problem(block, squares)
    if problem is not None:
        _reject(path, problem, rows)
        return None, None
    provider.hold_dims({block.shape[1]})
    log.debug("loaded the %d x %d corpus matrix of %r from %s (one pass %.1f ms); "
              "full pass: %s", *block.shape, provider.model_id, path,
              (time.perf_counter() - t0) * 1e3, reason)
    return block, scores


def _norm_problem(block: np.ndarray, squares: np.ndarray,
                  tol: float = UNIT_NORM_TOL) -> str | None:
    """Why ``block``'s rows, whose sums of squares are ``squares``, are not
    all unit-norm within ``tol``, or None if they are."""
    # a non-finite entry makes its row's sum of squares inf or nan, failing this too
    if (np.abs(np.sqrt(squares, dtype=np.float64) - 1.0) <= tol).all():
        return None
    return ("non-finite entries" if not np.isfinite(block).all()
            else "rows that are not unit-norm")


class _Slot:
    """One provider's matrix in a ``ChunkIndex``: ``block``, the stored
    matrix once mapped and checked, or a build that could not be stored;
    else ``coarse``, the float32 copy and the float64 file that the coarse
    path has mapped and checked, or None."""

    __slots__ = ("lock", "block", "coarse")

    def __init__(self):
        self.lock = threading.Lock()
        self.block: np.ndarray | None = None
        self.coarse: tuple[np.ndarray, np.ndarray] | None = None


class CoarseBounds(NamedTuple):
    eps: float       # |float32 coarse score - float64 stepped score|, any row
    eta: float       # |gathered float64 score - float64 stepped score|, any row
    norm_tol: float  # how far a float32 copy row's computed norm may be from 1


def coarse_bounds(dim: int) -> CoarseBounds:
    """Rounding-error bounds of the coarse path for rows of ``dim`` columns.

    A float64 row x that passes its check has |x| <= 1 + UNIT_NORM_TOL, and
    a query q normalised in float64 has |q| <= 1 + gamma64(dim + 2). The
    copy x32 and the float32 query q32 round each entry by a factor within
    1 +- u, u = 2**-24, and any summation order of an n-term dot product in
    a precision of unit roundoff u is within gamma(n) * sum |x_i q_i| <=
    gamma(n) |x| |q| of the exact one, gamma(n) = n u / (1 - n u) (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2002, section 3.1;
    gamma64 takes u = 2**-53). So the float32 score and the float64 stepped
    score differ by at most

        eps = gamma32(dim) |x32| |q32| + (2u + u**2) |x| |q| + gamma64(dim) |x| |q|,

    and two float64 dot products of the same rows, such as a gathered one
    and a stepped one, by at most eta = 2 gamma64(dim) |x| |q|. A copy row
    whose float32 sum of squares has a square root within norm_tol of 1
    may be the rounding of a checked row: the entries' rounding, the sum's
    and the square root's add up to less than that.
    """
    def gamma(n: int, u: float) -> float:
        return n * u / (1.0 - n * u)

    g32, g64 = gamma(dim, _U32), gamma(dim, _U64)
    row = 1.0 + UNIT_NORM_TOL
    query = 1.0 + gamma(dim + 2, _U64)
    eps = (g32 * row * query * (1.0 + _U32) ** 2
           + (2.0 * _U32 + _U32 ** 2) * row * query + g64 * row * query)
    return CoarseBounds(eps=eps, eta=2.0 * g64 * row * query,
                        norm_tol=UNIT_NORM_TOL + 2.0 * _U32 + g32)


def _copy_path(path: Path) -> Path:
    """``<key>.f32.npy``, the float32 copy of the matrix at ``<key>.npy``."""
    return path.with_suffix(".f32.npy")


def _npy_header(descr: str, shape: tuple[int, ...]) -> bytes:
    """The header ``np.save`` writes before a C-order array of ``descr`` and ``shape``."""
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buffer, {"descr": descr, "fortran_order": False, "shape": shape})
    return buffer.getvalue()


def _map_exact(path: Path, descr: str, rows: int) -> np.ndarray | str | None:
    """The .npy file at ``path`` mapped read-only as a ``(rows, dim)`` array
    of ``descr``, None if there is no file, else why not.

    ``dim`` follows from the file's size past the ``_NPY_HEAD`` header
    bytes, so a size that gives no whole ``dim`` of at least 1 is rejected
    as such. The file must then start with exactly the header ``_write_npy``
    writes for that shape: it is compared, never parsed, so a header written
    any other way is rejected, its text quoted.
    """
    try:
        with open(path, "rb") as f:
            head = f.read(_NPY_HEAD)
            size = os.fstat(f.fileno()).st_size
            column = max(rows, 1) * np.dtype(descr).itemsize
            dim, rest = divmod(size - _NPY_HEAD, column)
            if rest or dim < 1:
                return f"{size} bytes, want {_NPY_HEAD} plus a positive multiple of {column}"
            if head != _npy_header(descr, (rows, dim)):
                return (f"a header other than that of {descr} with {rows} rows in a file "
                        f"of {size} bytes: {head.decode('latin-1').rstrip()!r}")
            data = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    except _NO_FILE:
        return None
    except (OSError, ValueError) as e:
        return str(e)
    return np.ndarray((rows, dim), descr, buffer=data, offset=_NPY_HEAD)


def _reject_copy(path: Path, problem: str) -> str:
    log.warning("rejected the float32 copy %s (%s); rewriting it", path, problem)
    return f"float32 copy rejected ({problem})"


def _write_npy(path: Path, block: np.ndarray, descr: str) -> bool:
    """Write ``block`` to ``path`` as ``np.save`` writes it in ``descr``, the
    header and then ``STEP_ROWS`` rows at a time, each step converted on its
    own so that no full-size temporary exists, and say whether it was
    stored."""
    def write(f):
        f.write(_npy_header(descr, block.shape))
        for start in range(0, len(block), STEP_ROWS):
            f.write(block[start:start + STEP_ROWS].astype(descr, copy=False))

    return _write_atomic(path, write, "corpus matrix" if descr == "<f8"
                         else "float32 copy of the corpus matrix")


def _shortlist(coarse: np.ndarray, groups: list[tuple[np.ndarray | None, int]],
               eps: float) -> np.ndarray:
    """Ascending positions of every row whose coarse score, clipped to
    [-1, 1], is at least its group's quota-th best minus 2 ``eps``.

    Each group is ``(positions, quota)``, positions None for every row.
    Scores are clipped, as ``score_all`` clips them, before they are ranked:
    a row left out scores, exactly, below each of the quota rows with the
    best coarse scores, since each score is within ``eps`` of its coarse
    one and clipping keeps that.
    """
    scores = np.clip(coarse.astype(np.float64), -1.0, 1.0)
    picks = []
    for positions, quota in groups:
        values = scores if positions is None else scores[positions]
        if quota >= len(values):
            kept = np.arange(len(values))
        elif quota > 0:
            cut = np.partition(values, len(values) - quota)[len(values) - quota]
            kept = np.flatnonzero(values >= cut - 2.0 * eps)
        else:
            continue
        picks.append(kept if positions is None else positions[kept])
    return np.unique(np.concatenate(picks)) if picks else np.empty(0, dtype=np.intp)


class _Unranked(Exception):
    """Float64 rows that the coarse path read break a rule: the copy is dropped."""


def _gather(block: np.ndarray, vector: np.ndarray, positions: np.ndarray,
            coarse: np.ndarray, bound: CoarseBounds) -> np.ndarray:
    """The float64 scores of the rows at ``positions``, clipped to [-1, 1]:
    one gathered product, within eta of the stepped one.

    Each row read must be unit-norm within ``UNIT_NORM_TOL``, and each score
    within eps + eta of ``coarse``, the rows' coarse scores; else
    ``_Unranked`` is raised.
    """
    rows = block[positions]
    scores = rows @ vector
    problem = _norm_problem(rows, np.einsum("ij,ij->i", rows, rows))
    if problem is not None:
        raise _Unranked(f"float64 {problem} among the rows gathered")
    gap = np.abs(scores - coarse)
    if not (gap <= bound.eps + bound.eta).all():
        worst = int(np.argmax(gap))  # the rows and the copy passed their checks: finite
        raise _Unranked(f"float32 copy incoherent (row {int(positions[worst])} scores "
                        f"{float(coarse[worst])!r}, its float64 row {float(scores[worst])!r})")
    return np.clip(scores, -1.0, 1.0, out=scores)


def _resolve(block: np.ndarray, vector: np.ndarray, bounds: list[int],
             positions: np.ndarray, values: np.ndarray, eta: float) -> int:
    """Replace ``values`` of the rows at ``positions`` that their gathered
    values cannot order with the stepped product's, and return how many
    steps that recomputed.

    Sorted by value, two neighbours farther apart than 2 ``eta`` keep
    their order whatever the stepped scores within eta of them are, so only
    a run of neighbours each within 2 eta of the next, such as exact
    duplicates, needs the stepped scores: each step holding a row of such a
    run is recomputed whole by ``_row_steps``, as the full pass computes
    it, and its rows held to ``UNIT_NORM_TOL``.
    """
    order = np.argsort(-values, kind="stable")
    close = np.diff(values[order]) >= -2.0 * eta
    if not close.any():
        return 0
    unsure = np.zeros(len(order), dtype=bool)
    unsure[:-1] |= close
    unsure[1:] |= close
    steps = np.unique(np.searchsorted(bounds, positions[order[unsure]], side="right") - 1)
    for step in steps.tolist():
        start, stop = bounds[step], bounds[step + 1]
        scores, squares = np.empty(stop - start), np.empty(stop - start)
        _row_steps(block[start:stop], vector, scores, squares, [0, stop - start])
        problem = _norm_problem(block[start:stop], squares)
        if problem is not None:
            raise _Unranked(f"float64 {problem} in a step recomputed")
        inside = (positions >= start) & (positions < stop)
        values[inside] = np.clip(scores[positions[inside] - start], -1.0, 1.0)
    return len(steps)


def _reject(path: Path, problem: str, rows: int) -> None:
    log.warning("rejected the stored corpus matrix %s (%s, want %d float64 rows); "
                "rebuilding it", path, problem, rows)


def _write_atomic(path: Path, write, what: str) -> bool:
    """Write ``path`` through ``write(file)`` into a temp file, then rename it
    into place, and say whether it was stored; a failure is logged as
    ``what``, not raised.

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
        return True
    except OSError as e:
        log.warning("could not store the %s at %s: %s", what, path, e)
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return False


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Strings(Sequence):
    """A column of strings held as the UTF-8 (``surrogatepass``) ``blob`` of
    them all and ``ends``, each item's end offset in it.

    Reading item ``i`` decodes that item alone. Iterating, slicing or
    comparing decodes the whole column once, in C-level passes, and keeps
    the list. A snapshot's checks (``_snapshot_columns``) make every item's
    bytes lie inside ``blob``.
    """

    __slots__ = ("_ends", "_blob", "_list")

    def __init__(self, ends: np.ndarray, blob: memoryview):
        self._ends = ends
        self._blob = blob
        self._list: list[str] | None = None

    def __len__(self) -> int:
        return len(self._ends)

    def __getitem__(self, i):
        if self._list is not None or isinstance(i, slice):
            return self._decoded()[i]
        n = len(self._ends)
        i = operator.index(i)
        if not -n <= i < n:
            raise IndexError("column index out of range")
        i %= n
        start = int(self._ends[i - 1]) if i else 0
        return str(self._blob[start:int(self._ends[i])], "utf-8", "surrogatepass")

    def __iter__(self):
        return iter(self._decoded())

    def __eq__(self, other):
        return self._decoded() == (other._decoded() if isinstance(other, _Strings) else other)

    __hash__ = None

    def _decoded(self) -> list[str]:
        if self._list is None:
            ends = self._ends.tolist()
            pieces = map(self._blob.__getitem__, map(slice, [0] + ends[:-1], ends))
            self._list = list(map(str, pieces, repeat("utf-8"), repeat("surrogatepass")))
        return self._list


def _encoded(strings: Sequence[str]) -> tuple[np.ndarray, bytes]:
    """The end offsets (``<u8``) and the UTF-8 (``surrogatepass``) blob of
    ``strings``, as ``_Strings`` reads them."""
    blob = "".join(strings).encode("utf-8", "surrogatepass")
    # a blob as long as the text is ASCII, so each item's bytes are its characters
    lengths = map(len, strings)
    if len(blob) != sum(map(len, strings)):
        lengths = map(len, map(str.encode, strings, repeat("utf-8"), repeat("surrogatepass")))
    return np.cumsum(np.fromiter(lengths, np.uint64, len(strings)), dtype="<u8"), blob


def snapshot_payload(ids: Sequence[str], texts: Sequence[str], kinds: bytes,
                     runs: list[tuple[str, int]]) -> bytes:
    """The payload of a format-3 snapshot file: the corpus columns in binary.

    In order: five ``<u8`` counts (rows, id bytes, text bytes, source runs,
    source bytes); the ``<u8`` end offsets of the ids, of the texts, then
    each run's count and the end offsets of the runs' sources; the kind
    digits, one byte per row (see ``KINDS``); then the UTF-8
    (``surrogatepass``) bytes of the ids, the texts and the sources.
    ``runs`` are the ``(source, count)`` runs of equal adjacent sources
    (``_source_runs``). The offsets come before the byte columns, so each
    ``<u8`` array starts 8-byte aligned in the file.

    Its sha256 is the corpus digest that keys the matrix store, whether a
    snapshot was read, written or never made.
    """
    id_ends, id_blob = _encoded(ids)
    text_ends, text_blob = _encoded(texts)
    source_ends, source_blob = _encoded([source for source, _ in runs])
    counts = np.array([len(ids), len(id_blob), len(text_blob), len(runs), len(source_blob)],
                      dtype="<u8")
    run_counts = np.array([count for _, count in runs], dtype="<u8")
    return b"".join([counts.tobytes(), id_ends.tobytes(), text_ends.tobytes(),
                     run_counts.tobytes(), source_ends.tobytes(), bytes(kinds),
                     id_blob, text_blob, source_blob])


def _source_runs(sources: list[str]) -> list[tuple[str, int]]:
    return [(source, len(list(run))) for source, run in groupby(sources)]


def _ends_fit(ends: np.ndarray, size: int, strict: bool) -> bool:
    """Whether ``ends`` rise from 0 to ``size`` (strictly: no empty item)."""
    if not len(ends):
        return size == 0
    steps = ends[1:] > ends[:-1] if strict else ends[1:] >= ends[:-1]
    return int(ends[-1]) == size and (int(ends[0]) > 0 or not strict) and bool(steps.all())


def _snapshot_columns(raw: bytes) -> tuple[str, tuple]:
    """The corpus digest a format-3 snapshot's bytes hold and its columns,
    as ``Corpus`` holds them; a ValueError names the first check failed.

    The sha256 of the payload must equal the header's before any column is
    used. Then only the checks that lazy access needs remain, each a numpy
    or C-level pass: the sizes add up to the file's, each offset column
    rises to the end of its bytes (ids and texts strictly, so none is
    empty), every kind digit is known, and every run count lies between 1
    and the row count, the counts summing to it. The other ingestion rules
    (unique ids, non-blank texts, valid UTF-8) were checked when the file
    was written, and rest on the digest.
    """
    if len(raw) < _SNAPSHOT_HEAD + 8 * _COUNTS or not raw.startswith(_SNAPSHOT_MAGIC):
        raise ValueError("not a format 3 snapshot")
    digest = hashlib.sha256(memoryview(raw)[_SNAPSHOT_HEAD:])
    if digest.digest() != raw[len(_SNAPSHOT_MAGIC):_SNAPSHOT_HEAD]:
        raise ValueError("sha256 mismatch")
    at = _SNAPSHOT_HEAD
    rows, id_bytes, text_bytes, runs, source_bytes = np.frombuffer(
        raw, "<u8", _COUNTS, at).tolist()
    at += 8 * _COUNTS
    if at + 17 * rows + 16 * runs + id_bytes + text_bytes + source_bytes != len(raw):
        raise ValueError("section sizes that disagree with the file's size")
    arrays = []
    for count in (rows, rows, runs, runs):
        arrays.append(np.frombuffer(raw, "<u8", count, at))
        at += 8 * count
    id_ends, text_ends, run_counts, source_ends = arrays
    # views, not copies: the offset arrays keep ``raw`` alive anyway
    blobs = []
    for size in (rows, id_bytes, text_bytes, source_bytes):
        blobs.append(memoryview(raw)[at:at + size])
        at += size
    kinds, id_blob, text_blob, source_blob = blobs
    if not _ends_fit(id_ends, id_bytes, strict=True):
        raise ValueError("id offsets out of order or past the id bytes")
    if not _ends_fit(text_ends, text_bytes, strict=True):
        raise ValueError("text offsets out of order or past the text bytes")
    if not _ends_fit(source_ends, source_bytes, strict=False):
        raise ValueError("source offsets out of order or past the source bytes")
    kinds = bytearray(kinds)
    if kinds.translate(None, _KIND_DIGITS):
        raise ValueError("an unknown kind digit")
    if ((run_counts < 1) | (run_counts > rows)).any():
        raise ValueError("a source count below 1 or above the row count")
    # at most rows counts of at most rows each: their sum fits 64 bits
    if runs > rows or int(run_counts.sum()) != rows:
        raise ValueError("source counts that do not sum to the row count")
    sources = list(chain.from_iterable(map(repeat, _Strings(source_ends, source_blob),
                                           run_counts.tolist())))
    return digest.hexdigest(), (_Strings(id_ends, id_blob), _Strings(text_ends, text_blob),
                                kinds, sources)


def _read_snapshot(path: Path) -> tuple[str, tuple] | None:
    """``_snapshot_columns`` of the snapshot at ``path`` if it passes every
    check, else None; a rejection is logged with its reason and a hit with
    the bytes read and the time taken."""
    t0 = time.perf_counter()
    try:
        raw = path.read_bytes()
        found = _snapshot_columns(raw)
    except _NO_FILE:
        return None
    except (OSError, ValueError) as e:
        log.warning("rejected the corpus snapshot %s (%s); rewriting it", path, e)
        return None
    log.debug("loaded %d chunks from the corpus snapshot %s (format %d, sha256 matched, "
              "%d bytes read in %.2f ms)", len(found[1][0]), path, SNAPSHOT_VERSION, len(raw),
              (time.perf_counter() - t0) * 1e3)
    return found


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
        except RecursionError as e:  # the stdlib decoder's depth limit, about 1000 levels
            raise MalformedLineError(str(path), line_no, f"invalid JSON: {e}") from e
        yield line_no, value


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown chunk kind {kind!r}")


class Corpus:
    """Ordered, immutable-after-ingestion chunk store, held as columns.

    Chunk ids, texts and sources are parallel sequences in ingestion order,
    and kinds one ``bytearray`` of kind digits (see ``KINDS``); a ``Chunk``
    is built only when one is read (``get``, ``chunk_at``, iteration,
    ``chunks``). A corpus read from a snapshot holds its ids and texts as
    lazy ``_Strings`` and builds the id -> position dict on first use, so a
    question that reads chunks by position decodes only those. ``store``
    is a directory for the index's corpus matrices (see ``ChunkIndex``) and
    for ``from_files``' snapshots; without it the matrices live in memory
    only.
    """

    def __init__(self, store: str | Path | None = None):
        self.store = store
        self._ids: Sequence[str] = []
        self._texts: Sequence[str] = []
        self._kinds = bytearray()
        self._sources: list[str] = []
        self._positions: dict[str, int] | None = {}
        self._index: ChunkIndex | None = None
        self._index_lock = threading.Lock()
        # sha256 of _snapshot_payload(), known after from_files, else computed on first use
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

    @property
    def _position(self) -> dict[str, int]:
        """Chunk id -> ingestion ordinal, built on first use."""
        if self._positions is None:
            self._positions = dict(zip(self._ids, range(len(self._ids))))
        return self._positions

    def position(self, chunk_id: str) -> int:
        """Ingestion ordinal of a chunk (the tie-break order)."""
        try:
            return self._position[chunk_id]
        except KeyError:
            raise UnknownChunkError(chunk_id) from None

    def get(self, chunk_id: str) -> Chunk:
        return self.chunk_at(self.position(chunk_id))

    def chunk_at(self, position: int) -> Chunk:
        """The chunk ingested ``position``-th."""
        return Chunk(self._ids[position], self._texts[position],
                     _DIGIT_KIND[self._kinds[position]], self._sources[position])

    def index(self) -> ChunkIndex:
        """The retrieval index of every chunk added so far, built on first use."""
        with self._index_lock:
            if self._index is None:
                if self.store is not None and self._digest is None:
                    self._digest = _sha256(self._snapshot_payload())
                # shared, not copied: _append copies a column an index shares before growing it
                self._index = ChunkIndex(self._ids, self._kinds, self._texts,
                                         store=self.store, digest=self._digest,
                                         position=self._positions)
            return self._index

    def _snapshot_payload(self) -> bytes:
        return snapshot_payload(self._ids, self._texts, self._kinds,
                                _source_runs(self._sources))

    def add(self, chunk: Chunk) -> None:
        self._append([chunk.id], [chunk.text], bytes([_KIND_DIGIT[chunk.kind]]), [chunk.source])

    def _append(self, ids: list[str], texts: list[str], kinds: bytes,
                sources: list[str]) -> None:
        """Append validated columns in one step; a duplicate id adds nothing."""
        start = len(self._ids)
        position = self._position
        fresh = dict(zip(ids, range(start, start + len(ids))))
        if len(fresh) != len(ids) or (position and not position.keys().isdisjoint(fresh)):
            seen: set[str] = set()
            for cid in ids:  # name the first duplicate in ingestion order
                if cid in position or cid in seen:
                    raise DuplicateChunkError(cid)
                seen.add(cid)
        with self._index_lock:
            if self._index is not None or not isinstance(self._ids, list):
                # an index shares these columns, or they are a snapshot's lazy
                # ones: the index keeps them, and they grow as lists
                self._ids, self._texts = list(self._ids), list(self._texts)
                self._positions = position = position.copy()
            self._ids += ids
            self._texts += texts
            self._kinds += kinds
            self._sources += sources
            position.update(fresh)
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

        The snapshot ``<store>/<key>.corpus.bin`` holds the validated
        columns: a header with the sha256 of its payload, then the payload
        (``snapshot_payload``). Its key hashes ``SNAPSHOT_VERSION`` and each
        entry's path as given, kind and file sha256, in order: a line
        without ``source`` takes the path as its source, and an
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
        snapshot = Path(store) / f"{_sha256(key.encode('utf-8'))}.corpus.bin"
        found = _read_snapshot(snapshot)
        if found is None:
            for (path, kind), data in zip(entries, blobs):
                corpus._ingest(Path(path), data, kind)
            payload = corpus._snapshot_payload()
            digest = hashlib.sha256(payload)
            _write_atomic(snapshot, lambda f: f.writelines(
                (_SNAPSHOT_MAGIC, digest.digest(), payload)), "corpus snapshot")
            corpus._digest = digest.hexdigest()
        else:
            corpus._digest, (corpus._ids, corpus._texts, corpus._kinds, corpus._sources) = found
            corpus._positions = None
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
