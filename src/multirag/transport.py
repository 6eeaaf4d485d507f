"""Small HTTP JSON helper shared by the remote embedding and LLM clients,
with the type rules both apply to the fields of a reply."""

from __future__ import annotations

import logging
import os
import time
from array import array

from .errors import ConfigError, MultiragError, TransportError

log = logging.getLogger(__name__)


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
    back as a float. A body ``orjson`` rejects is decoded by requests'
    ``Response.json()`` instead, which accepts ``NaN`` and ``Infinity``
    literals, lone surrogate escapes, a BOM, UTF-16 and UTF-32, and
    replaces invalid UTF-8. A body neither accepts is a ``TransportError``.
    """
    import orjson  # imported here, as requests is, so that loading the package stays light
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
                try:
                    body = orjson.loads(resp.content)
                except orjson.JSONDecodeError:
                    try:
                        body = resp.json()
                    except (ValueError, RecursionError) as e:
                        raise TransportError(f"{url}: response is not JSON: {e}") from e
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
