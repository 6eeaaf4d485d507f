"""Embedding providers.

Two provider modes exist: a deterministic test provider (seeded hash of
model id and text, expanded to a fixed-dimension vector) and a remote
client for OpenAI-compatible ``/v1/embeddings`` endpoints. ``embed``
caches by text — legal because every provider promises that identical
input text yields an identical vector within one instance — while
``embed_matrix`` returns a whole corpus as one validated matrix and
caches none of it. A provider's ``fingerprint()`` names everything its
vectors depend on besides the text, so a corpus matrix stored on disk can
be keyed by it.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import transport
from .errors import DimensionMismatchError, EmbeddingError, ZeroVectorError

log = logging.getLogger(__name__)

# numpy's SeedSequence hash constants (pool of 4 words; NEP 19)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_MASK128 = (1 << 128) - 1


def _hash_keys(init: int, mult: int, n: int) -> list[tuple[np.uint32, np.uint32]]:
    """The (xor, multiplier) pairs of a SeedSequence hash's first ``n`` calls:
    the hash constant moves on by ``mult`` at every call, whatever it hashes."""
    keys, const = [], init
    for _ in range(n):
        nxt = const * mult & 0xFFFFFFFF
        keys.append((np.uint32(const), np.uint32(nxt)))
        const = nxt
    return keys


_MIX_KEYS = _hash_keys(_INIT_A, _MULT_A, 4 + 4 * 3)  # 4 words in, then 12 cross mixes
_STATE_KEYS = _hash_keys(_INIT_B, _MULT_B, 8)  # 4 uint64 words out


def _hashed(words: np.ndarray, key: tuple[np.uint32, np.uint32]) -> np.ndarray:
    xor, mult = key
    words = (words ^ xor) * mult
    return words ^ (words >> np.uint32(16))


def _mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    words = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return words ^ (words >> np.uint32(16))


def seed_states(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` of every uint64 seed
    ``s``, as one (n, 4) array computed in uint32 passes over all seeds.

    A seed enters the pool as its low and high 32-bit words. A seed below
    2**32 is one word, but the pool hashes 0 in place of a missing word, so
    a zero high word hashes as the missing word does.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    zeros = np.zeros(len(seeds), dtype=np.uint32)
    words = [seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32), zeros, zeros]
    keys = iter(_MIX_KEYS)
    pool = [_hashed(w, next(keys)) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mixed(pool[dst], _hashed(pool[src], next(keys)))
    state = np.empty((len(seeds), 8), dtype="<u4")
    for i, key in enumerate(_STATE_KEYS):
        state[:, i] = _hashed(pool[i % 4], key)
    return state.view("<u8").astype(np.uint64)


@dataclass(frozen=True)
class EmbeddingVector:
    values: np.ndarray
    model_id: str

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("embedding must be a non-empty 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("embedding contains non-finite entries")
        if np.linalg.norm(arr) == 0.0:
            raise ZeroVectorError(f"zero-norm embedding from {self.model_id!r}")
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])


class _CachingProvider:
    """Shared embedding plumbing: batch dispatch, block validation, per-text cache.

    ``embed`` serves texts such as questions and caches every vector it
    returns. ``embed_matrix`` serves whole corpora: it returns one
    validated matrix and caches nothing, so the caller's matrix is the only
    copy of those vectors.
    """

    model_id: str
    batch_size: int = 1024  # texts per _compute_batch call

    def __init__(self, dim: int | None = None):
        self._cache: dict[str, EmbeddingVector] = {}
        self._lock = threading.Lock()
        self._dim = dim  # the one vector dimension, once known

    def fingerprint(self) -> dict:
        """JSON-able identity of this provider's vectors, without credentials."""
        raise NotImplementedError

    def _compute_batch(self, texts: list[str]) -> list[np.ndarray] | np.ndarray:
        """One vector per text: a list of vectors or a 2-D array of rows."""
        raise NotImplementedError

    def hold_dims(self, dims: set[int]) -> None:
        """The dimension rule: every vector of a provider, computed or loaded
        from a stored matrix, has the one dimension recorded here."""
        with self._lock:
            if self._dim is not None:
                dims = dims | {self._dim}
            if len(dims) > 1:
                raise DimensionMismatchError(
                    f"provider {self.model_id!r} returned mixed dimensions {sorted(dims)}")
            (self._dim,) = dims

    def _checked(self, raw: list[np.ndarray] | np.ndarray) -> np.ndarray:
        """Stack one computed batch, holding it to ``EmbeddingVector``'s rules."""
        # an array batch's rows share its shape; a list's vectors are each checked
        shapes = {raw.shape[1:]} if isinstance(raw, np.ndarray) else {np.shape(v) for v in raw}
        if any(len(shape) != 1 or shape[0] == 0 for shape in shapes):
            raise ValueError("embedding must be a non-empty 1-D vector")
        self.hold_dims({shape[0] for shape in shapes})
        block = np.asarray(raw, dtype=np.float64)  # a float64 array batch is not copied
        if not np.isfinite(block).all():
            raise ValueError("embedding contains non-finite entries")
        # the zero-norm test of np.linalg.norm, without materialising block * block
        if not np.einsum("ij,ij->i", block, block).all():
            raise ZeroVectorError(f"zero-norm embedding from {self.model_id!r}")
        return block

    def embed_matrix(self, texts: list[str]) -> np.ndarray:
        """(len(texts), dim) matrix of validated vectors, bypassing the cache."""
        if not texts:
            raise ValueError("embed_matrix() requires at least one text")
        out = None
        for start in range(0, len(texts), self.batch_size):
            block = self._checked(self._compute_batch(texts[start:start + self.batch_size]))
            if out is None:
                out = np.empty((len(texts), block.shape[1]))
            out[start:start + len(block)] = block
            del block  # the next batch is computed without this one held
        return out

    def embed(self, texts: list[str]) -> list[EmbeddingVector]:
        if not texts:
            raise ValueError("embed() requires at least one text")
        with self._lock:
            missing = [t for t in dict.fromkeys(texts) if t not in self._cache]
        if missing:
            vectors = {text: EmbeddingVector(values=row, model_id=self.model_id)
                       for text, row in zip(missing, self.embed_matrix(missing))}
            with self._lock:
                self._cache.update(vectors)
        with self._lock:
            return [self._cache[t] for t in texts]


class DeterministicProvider(_CachingProvider):
    """Pure test provider: vector = seeded-hash expansion of (model id, text).

    ``_vector`` defines a text's vector. A batch of at least ``BATCH_MIN``
    texts reproduces those bits in ``_batch_vectors``, which seeds one reused
    generator per text instead of building one; below that, building one
    per text costs less than the batch path's set-up.
    """

    VECTOR_VERSION = 1  # bump when _vector or _compute_batch changes its output
    BATCH_MIN = 24  # texts from which _batch_vectors is faster than _vector per text

    def __init__(self, model_id: str, dim: int = 32):
        if dim <= 0:
            raise ValueError("dimension must be positive")
        super().__init__(dim)
        self.model_id = model_id
        self.dim = dim
        self._batch_path = True  # until a batch's first row differs from _vector's

    def fingerprint(self) -> dict:
        # a numpy release may change the Generator streams behind _vector
        return {"kind": "deterministic", "model": self.model_id, "dim": self.dim,
                "numpy": np.__version__, "vector": self.VECTOR_VERSION}

    def _compute_batch(self, texts: list[str]) -> np.ndarray:
        block = None
        if self._batch_path and len(texts) >= self.BATCH_MIN:
            block = self._batch_vectors(texts)
            if block[0].tobytes() != self._vector(texts[0]).tobytes():
                self._batch_path, block = False, None
                log.warning("the batch vectors of %r differ from its per-text vectors under "
                            "numpy %s; computing every vector per text", self.model_id,
                            np.__version__)
        if block is None:
            block = np.empty((len(texts), self.dim))
            for j, text in enumerate(texts):
                block[j] = self._vector(text)
        # shift away from the (astronomically unlikely) zero vector; the row
        # norms without np.linalg.norm's block-sized temporary
        block[np.sqrt(np.einsum("ij,ij->i", block, block)) < 1e-9, 0] += 1.0
        return block

    def _seed(self, text: str) -> int:
        # "surrogatepass", as derive_seed: the loaders keep a lone surrogate that a
        # "\ud800" escape spells, and every other text encodes as before
        digest = hashlib.blake2b(f"{self.model_id}\x00{text}".encode("utf-8", "surrogatepass"),
                                 digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def _vector(self, text: str) -> np.ndarray:
        return np.random.default_rng(self._seed(text)).standard_normal(self.dim)

    def _batch_vectors(self, texts: list[str]) -> np.ndarray:
        """``_vector`` of every text, as rows of one block.

        ``default_rng(seed)`` builds a PCG64 from ``SeedSequence(seed)``'s
        ``generate_state(4, np.uint64)``: words 0-1 are ``initstate`` and
        words 2-3 ``initseq``, high word first, and PCG64's set-seq seeding
        makes ``inc = initseq << 1 | 1`` and ``state = (inc + initstate) * M
        + inc`` (mod 2**128). So every text's generator state is derived for
        the whole batch at once, and one generator, built for this call
        alone, is set to each state in turn and draws straight into its row.
        """
        seeds = np.fromiter(map(self._seed, texts), dtype=np.uint64, count=len(texts))
        bits = np.random.PCG64(0)
        generator = np.random.Generator(bits)
        value = bits.state
        pcg = value["state"]
        block = np.empty((len(texts), self.dim))
        for row, (s_hi, s_lo, q_hi, q_lo) in zip(block, seed_states(seeds).tolist()):
            inc = (q_hi << 65 | q_lo << 1 | 1) & _MASK128
            pcg["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
            pcg["inc"] = inc
            bits.state = value
            generator.standard_normal(out=row)
        return block


class RemoteProvider(_CachingProvider):
    """OpenAI-compatible embeddings client.

    POST {endpoint}/v1/embeddings with {"model", "input"}; the response
    ``data[i].embedding`` is taken in input order. A batch mixing vector
    dimensions or containing a zero vector is a provider misconfiguration
    and is fatal.
    """

    def __init__(self, model_id: str, endpoint: str, api_key_env: str | None = None,
                 batch_size: int = 64, timeout: float = 30.0,
                 retries: int = 2, backoff: float = 0.5):
        super().__init__()
        self.model_id = model_id
        self.endpoint = endpoint.rstrip("/")
        self.batch_size = batch_size
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._headers = transport.bearer_headers(api_key_env)

    def fingerprint(self) -> dict:
        # the server's weights are trusted to stay fixed per (endpoint, model)
        return {"kind": "remote", "endpoint": self.endpoint, "model": self.model_id}

    def _compute_batch(self, texts: list[str]) -> list[np.ndarray]:
        body = transport.post_json(
            f"{self.endpoint}/v1/embeddings",
            {"model": self.model_id, "input": texts},
            headers=self._headers, timeout=self.timeout,
            retries=self.retries, backoff=self.backoff)
        data = body.get("data")
        if not isinstance(data, list) or len(data) != len(texts):
            raise DimensionMismatchError(
                f"provider {self.model_id!r}: expected {len(texts)} embeddings, "
                f"got {len(data) if isinstance(data, list) else type(data).__name__}")
        try:
            vectors = list(map(itemgetter("embedding"), data))
        except KeyError:
            raise EmbeddingError(
                f"provider {self.model_id!r}: an item of data omits 'embedding'") from None
        except TypeError:  # only an item that is not an object refuses a str key
            raise EmbeddingError(
                f"provider {self.model_id!r}: an item of data is not an object") from None
        if not set(map(type, vectors)) <= {list}:
            raise transport.type_error(vectors, (list,), "data[].embedding", EmbeddingError)
        return [np.frombuffer(transport.floats(v, "data[].embedding[]", EmbeddingError))
                for v in vectors]
