"""OpenAI-compatible stub serving ``/v1/embeddings`` and ``/v1/chat/completions``.

Run it as its own process::

    python3 perfbench/stub.py --seed 7

It binds an ephemeral port on 127.0.0.1 and prints the port number as its
first line of output. Every reply is a pure function of (seed, request):

- an embedding is one of ``POOL_VECTORS`` pre-serialised vectors, picked
  by a hash of (seed, model, text);
- a chat reply is one of ``CHAT_POOL`` pre-serialised completions of
  ``REPLY_TOKENS`` tokens with ``TOP_LOGPROBS`` alternatives each, picked
  by a hash of (seed, prompt).

Answering from pools keeps the stub's own CPU cost small and constant, so
the client's parsing and validation dominate. The benchmark imports the
same functions to compute the expected vectors and distributions.

Fault schedule: while faults are on, chat request number ``k`` (counted
from the last reset) is answered 503 when ``k % FAULT_STRIDE`` equals one
seeded offset and 429 when it equals another, both with ``Retry-After``.
The offsets are at least two apart, so the retry that follows a 503 is
never itself a fault. ``POST /bench/reset`` zeroes the counters and sets
the fault switch; ``GET /bench/stats`` returns the counters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np

DIM = 384
POOL_VECTORS = 2048
CHAT_POOL = 64
REPLY_TOKENS = 128
TOP_LOGPROBS = 20
FAULT_STRIDE = 250
RETRY_AFTER_S = 1
MAX_LIFETIME_S = 900.0  # a stub whose benchmark never stopped it still exits

_WORDS = tuple(
    " " + w for w in (
        "the total comes to adding both parts we get so each share is then take half "
        "now count what remains that gives answer first second next left right more "
        "less equal groups of packs friends items in all per one two three four five "
        "six seven eight nine ten times plus minus split ways step result check value"
    ).split()
) + tuple(f" {n}" for n in range(100))


def stable_hash(*parts) -> int:
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(str(p).encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "big")


def pool_vectors(seed: int) -> np.ndarray:
    return np.random.default_rng(stable_hash("vectors", seed)).standard_normal(
        (POOL_VECTORS, DIM))


def vector_index(seed: int, model: str, text: str) -> int:
    return stable_hash("embed", seed, model, text) % POOL_VECTORS


def reply_index(seed: int, prompt: str) -> int:
    return stable_hash("chat", seed, prompt) % CHAT_POOL


def chat_replies(seed: int) -> list[dict]:
    """The reply pool: content plus per-step (token, logprob, alternatives)."""
    rng = np.random.default_rng(stable_hash("replies", seed))
    replies = []
    for _ in range(CHAT_POOL):
        answer = f" {int(rng.integers(0, 100))}"
        steps = []
        for i in range(REPLY_TOKENS):
            picks = rng.choice(len(_WORDS), size=TOP_LOGPROBS, replace=False)
            tokens = [_WORDS[j] for j in picks]
            forced = " ####" if i == REPLY_TOKENS - 2 else answer if i == REPLY_TOKENS - 1 else None
            if forced is not None and forced not in tokens:
                tokens[0] = forced
            listed_mass = float(rng.uniform(0.6, 0.97))
            logits = rng.normal(0.0, 2.0, size=TOP_LOGPROBS)
            probs = np.exp(logits - logits.max())
            probs = np.sort(probs / probs.sum() * listed_mass)[::-1]
            if forced is not None:  # the forced token must be the greedy choice
                k = tokens.index(forced)
                tokens[0], tokens[k] = tokens[k], tokens[0]
            alts = [(t, math.log(float(p))) for t, p in zip(tokens, probs)]
            steps.append((alts[0][0], alts[0][1], alts))
        replies.append({"content": "".join(t for t, _, _ in steps), "steps": steps})
    return replies


def fault_offsets(seed: int) -> tuple[int, int]:
    """(ordinal of the 503, ordinal of the 429) within each FAULT_STRIDE block."""
    off503 = stable_hash("503", seed) % FAULT_STRIDE
    off429 = (off503 + 2 + stable_hash("429", seed) % (FAULT_STRIDE - 3)) % FAULT_STRIDE
    return off503, off429


def _chat_body(reply: dict, model: str) -> bytes:
    content = [{"token": t, "logprob": lp,
                "top_logprobs": [{"token": a, "logprob": alp} for a, alp in alts]}
               for t, lp, alts in reply["steps"]]
    return json.dumps({
        "object": "chat.completion",
        "model": model,
        "choices": [{"index": 0, "finish_reason": "stop",
                     "message": {"role": "assistant", "content": reply["content"]},
                     "logprobs": {"content": content}}],
    }).encode()


class StubState:
    def __init__(self, seed: int):
        self.seed = seed
        self.vector_json = [json.dumps(v.tolist()).encode() for v in pool_vectors(seed)]
        self.chat_bytes = [_chat_body(r, "stub-llm") for r in chat_replies(seed)]
        self.off503, self.off429 = fault_offsets(seed)
        self.reset(faults=False)

    def reset(self, faults: bool) -> None:
        self.faults = faults
        self.counts = {"embeddings": 0, "chat": 0, "chat_503": 0, "chat_429": 0}

    def next_chat_status(self) -> int:
        k = self.counts["chat"]
        self.counts["chat"] += 1
        status = 200
        if self.faults and k % FAULT_STRIDE == self.off503:
            status = 503
        elif self.faults and k % FAULT_STRIDE == self.off429:
            status = 429
        if status != 200:
            self.counts[f"chat_{status}"] += 1
        return status

    def embeddings(self, body: dict) -> bytes:
        self.counts["embeddings"] += 1
        model = body["model"]
        items = b",".join(
            b'{"object":"embedding","index":%d,"embedding":%s}'
            % (i, self.vector_json[vector_index(self.seed, model, text)])
            for i, text in enumerate(body["input"]))
        return b'{"object":"list","data":[' + items + b"]}"


class _Handler(BaseHTTPRequestHandler):
    server: "StubServer"

    def _send(self, status: int, data: bytes, retry_after: bool = False) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if retry_after:
            self.send_header("Retry-After", str(RETRY_AFTER_S))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        state = self.server.state
        if self.path != "/bench/stats":
            return self._send(404, b'{"error":"no route"}')
        self._send(200, json.dumps(state.counts).encode())

    def do_POST(self):
        state = self.server.state
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        if self.path == "/v1/embeddings":
            self._send(200, state.embeddings(body))
        elif self.path == "/v1/chat/completions":
            status = state.next_chat_status()
            if status != 200:
                return self._send(status, b'{"error":{"message":"injected fault"}}',
                                  retry_after=True)
            prompt = body["messages"][-1]["content"]
            self._send(200, state.chat_bytes[reply_index(state.seed, prompt)])
        elif self.path == "/bench/reset":
            state.reset(faults=bool(body.get("faults")))
            self._send(200, b"{}")
        else:
            self._send(404, b'{"error":"no route"}')

    def log_message(self, *args):
        pass


class StubServer(HTTPServer):
    """Serves one request at a time: the benchmark is its only client and
    waits for every reply, so a thread per connection would only add cost."""

    def __init__(self, state: StubState):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.state = state


def _exit_with_parent() -> None:
    """Stop when the benchmark process is gone or the lifetime cap is reached."""
    parent = os.getppid()
    deadline = time.monotonic() + MAX_LIFETIME_S
    while os.getppid() == parent and time.monotonic() < deadline:
        time.sleep(0.5)
    os._exit(0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    server = StubServer(StubState(args.seed))
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
