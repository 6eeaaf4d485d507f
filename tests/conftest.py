from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from multirag.corpus import Chunk, Corpus


def build_corpus(n_qa: int = 8, n_textbook: int = 2) -> Corpus:
    corpus = Corpus()
    for i in range(n_qa):
        corpus.add(Chunk(
            id=f"qa{i}", kind="qa",
            text=f"Sam had {i + 2} pears and ate {i}. How many are left? #### 2"))
    for i in range(n_textbook):
        corpus.add(Chunk(
            id=f"tb{i}", kind="textbook",
            text=f"Section {i}: subtraction removes a count from a total."))
    return corpus


@pytest.fixture
def corpus():
    return build_corpus()


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        self.server.requests.append({
            "path": self.path,
            "headers": dict(self.headers),
            "body": body,
        })
        handler = self.server.routes.get(self.path)
        # a route returns (status, payload) or (status, payload, extra headers);
        # a bytes payload is sent as it is, and a header set to None is left out
        reply = (404, {"error": "no route"}) if handler is None else handler(body)
        status, payload, *extra = reply
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json", **(extra[0] if extra else {})}
        self.send_response(status)
        for name, value in headers.items():
            if value is not None:
                self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # keep pytest output clean
        pass


class StubServer:
    def __init__(self):
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        self.server.requests = []
        self.server.routes = {}
        # a short poll keeps shutdown() in close() from waiting out the 0.5 s default
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.01}, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    @property
    def requests(self) -> list[dict]:
        return self.server.requests

    def route(self, path: str, handler) -> None:
        self.server.routes[path] = handler

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def stub_server(monkeypatch):
    # stop any proxy configuration from intercepting localhost calls
    for var in ("HTTP_PROXY", "HTTPS_PROXY", "http_proxy", "https_proxy"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1,localhost")
    server = StubServer()
    yield server
    server.close()


def embeddings_route(dim: int = 4):
    """Stub /v1/embeddings handler: distinct deterministic vectors."""
    def handler(body):
        data = []
        for text in body["input"]:
            base = float(sum(text.encode()) % 97 + 1)
            data.append({"embedding": [base + j for j in range(dim)]})
        return 200, {"data": data}
    return handler


def chat_route(tokens=("4", "2"), top=None):
    """Stub /v1/chat/completions handler emitting fixed tokens with logprobs."""
    import math
    def handler(body):
        content = []
        for tok in tokens:
            entry = {
                "token": tok,
                "logprob": math.log(0.8),
                "top_logprobs": top if top is not None else [
                    {"token": tok, "logprob": math.log(0.8)},
                    {"token": "x", "logprob": math.log(0.15)},
                ],
            }
            content.append(entry)
        return 200, {
            "choices": [{
                "message": {"role": "assistant", "content": " ".join(tokens)},
                "logprobs": {"content": content},
            }]
        }
    return handler
