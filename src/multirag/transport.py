"""Small HTTP JSON helper shared by the remote embedding and LLM clients,
with the type rules both apply to the fields of a reply."""

from __future__ import annotations

import logging
import os
import time
from array import array

import numpy as np

from .errors import ConfigError, MultiragError, TransportError

log = logging.getLogger(__name__)

# the most brackets a reply body handed to orjson may hold. orjson 3.8 has no
# depth limit: with an 8 MB stack, on the main thread or a worker, it
# overflows the stack and kills the process at about 52 000 nested objects
# or 131 000 nested arrays. A body nests no deeper than its count of "[" and
# "{", and one with more goes to the stdlib, which stops at its recursion
# limit. A 128-token chat reply with 20 alternatives per step holds about
# 2 800 brackets, or 5 500 with each alternative's bytes.
_ORJSON_MAX_BRACKETS = 20_000


def bearer_headers(api_key_env: str | None) -> dict[str, str]:
    """Build auth headers from the environment variable named in config."""
    headers = {"Content-Type": "application/json"}
    if api_key_env:
        token = os.environ.get(api_key_env)
        if not token:
            raise ConfigError(f"credential environment variable {api_key_env!r} is not set")
        headers["Authorization"] = f"Bearer {token}"
    return headers


def _retry_after(resp) -> float | None:
    """Seconds asked for by an integer ``Retry-After`` header, else None."""
    value = resp.headers.get("Retry-After", "").strip()
    # isdigit() alone also accepts non-ASCII digits such as '²', which float() rejects
    return float(value) if value.isascii() and value.isdigit() else None


def post_json(url: str, payload: dict, headers: dict[str, str],
              timeout: float = 30.0, retries: int = 2, backoff: float = 0.5) -> dict:
    """POST JSON and return the decoded JSON object.

    Connection failures, 5xx responses and 429 (rate limited) responses
    are retried with exponential backoff; other 4xx responses are fatal
    immediately. A retried response carrying an integer ``Retry-After``
    is waited out for that many seconds instead, but never for less than
    the backoff nor for longer than ``timeout``.

    A reply body is read as UTF-8 JSON by ``orjson``, whatever charset
    the reply declares (RFC 8259), and an integer beyond 64 bits comes
    back as a float. A body ``orjson`` rejects, or one holding more than
    ``_ORJSON_MAX_BRACKETS`` brackets, is decoded by requests'
    ``Response.json()`` instead, which accepts ``NaN`` and ``Infinity``
    literals, lone surrogate escapes, a BOM, UTF-16 and UTF-32, replaces
    invalid UTF-8 and refuses a body nested too deep. A body it refuses is
    a ``TransportError``.
    """
    import requests

    last: Exception | None = None
    for attempt in range(retries + 1):
        asked = None
        try:
            resp = requests.post(url, json=payload, headers=headers, timeout=timeout)
        except (requests.ConnectionError, requests.Timeout) as e:
            last = e
        else:
            if resp.status_code < 400:
                body = _decode(resp, url)
                if not isinstance(body, dict):
                    raise TransportError(f"{url}: response is not a JSON object")
                return body
            if resp.status_code < 500 and resp.status_code != 429:
                raise TransportError(f"{url}: HTTP {resp.status_code}: {resp.text[:200]}")
            last = TransportError(f"{url}: HTTP {resp.status_code}")
            asked = _retry_after(resp)
        if attempt < retries:
            delay = backoff * (2 ** attempt)
            if asked is not None:
                delay = max(delay, min(asked, timeout))
            log.warning("retrying %s after failure (%s), attempt %d", url, last, attempt + 2)
            if delay > 0:
                time.sleep(delay)
    raise TransportError(f"{url}: giving up after {retries + 1} attempts: {last}")


def _decode(resp, url: str):
    """The JSON value of a reply body, read as ``post_json`` describes."""
    import orjson  # imported here, as requests is, so that loading the package stays light

    content = resp.content
    # a body shorter than the bound cannot hold more brackets than it
    if len(content) <= _ORJSON_MAX_BRACKETS or _brackets(content) <= _ORJSON_MAX_BRACKETS:
        try:
            return orjson.loads(content)
        except orjson.JSONDecodeError:
            pass
    try:
        return resp.json()
    except (ValueError, RecursionError) as e:
        raise TransportError(f"{url}: response is not JSON: {e}") from e


def _brackets(content: bytes) -> int:
    """``content.count(b"[") + content.count(b"{")`` in one numpy pass, about
    8 times faster: "[" (0x5B) and "{" (0x7B) differ only in bit 0x20."""
    return int(np.count_nonzero((np.frombuffer(content, np.uint8) | 0x20) == 0x7B))


def type_error(values: list, kinds: tuple[type, ...], where: str,
               error: type[MultiragError]) -> MultiragError:
    """The ``error`` for the first of ``values`` whose type is none of ``kinds``
    (exactly: a bool is not an int here)."""
    bad = next(type(v) for v in values if type(v) not in kinds)
    names = " or ".join(k.__name__ for k in kinds)
    return error(f"response field {where} holds a value of type {bad.__name__}, not {names}")


def floats(values: list, where: str, error: type[MultiragError]) -> array:
    """``values`` as float64s, refusing strings, nulls and lists in the same
    pass; ``array`` reads a bool as 0 or 1, so one type pass refuses booleans."""
    try:
        out = array("d", values)
    except TypeError:
        out = None
    if out is None or not {bool}.isdisjoint(map(type, values)):
        raise type_error(values, (float, int), where, error)
    return out
