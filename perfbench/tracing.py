"""Span recorder that wraps the package's public functions from outside.

Each wrapped call records a span: name, start, end, parent span, and the
phase (set-up or timed) and question id current when it started. Spans stay in memory and are
written out when the run ends. A span's self time is its duration minus
the time its direct children cover; calls are single-threaded here, so
children never overlap and self times partition the root spans.

Attributes are wrapped where the callers look them up, so every call is
seen: ``pipeline.generate`` and ``retrieval.cosine_scores`` because they
are imported by name, ``retrieval.top_k_by_kind`` and
``retrieval.standardize`` as module globals (which also catches the calls
from ``fuse``), ``_CachingProvider.embed`` and ``Corpus.ingest`` on their
classes, and ``requests.post`` to count transport attempts. An attribute
a later version of the package no longer has is skipped and its metrics
read zero.
"""

from __future__ import annotations

import json
import weakref
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, phase, question id]
        self.counts: dict[str, Counter] = defaultdict(Counter)  # phase -> counters
        self.phase = ""
        self.question = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen_texts: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._rows: set = set()

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None, on_error=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, self.question]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                span[2] = perf_counter()
                stack.pop()
                if on_error is not None:
                    on_error(e)
                raise
            span[2] = perf_counter()
            stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, after=None, on_error=None) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after, on_error))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> "Tracer":
        """Wrap every layer boundary of the package; undo with ``uninstall``."""
        import requests

        from multirag import config, confidence, corpus, embedding, evaluation
        from multirag import pipeline, retrieval, transport

        def count(key: str, n: int = 1) -> None:
            self.counts[self.phase][key] += n

        def embed_done(args, kwargs, result):
            provider, texts = args[0], args[1]
            seen = self._seen_texts.setdefault(provider, set())
            count("embed_texts", len(texts))
            for t in texts:
                if t in seen:
                    count("embed_hits")
                else:
                    seen.add(t)

        def cosine_done(args, kwargs, result):
            query, matrix = args[0], args[1]
            count("cosine_bytes", query.nbytes + matrix.nbytes + result.nbytes)

        def score_all_done(args, kwargs, result):
            row = (self.question, args[0].model_id)
            if row not in self._rows:
                self._rows.add(row)
                count("score_all_rows")

        def generate_done(args, kwargs, result):
            count("generation_steps", len(result.steps))

        def post_failed(error):
            if isinstance(error, transport.TransportError):
                count("transport_failed")

        def confident_done(args, kwargs, result):
            count("models_dropped", len(args[2]) - len(result.records))

        self.patch(config, "load_config", "config.load")
        self.patch(config, "build_pipeline_config", "config.build")
        self.patch(corpus.Corpus, "ingest", "corpus.ingest")
        self.patch(embedding._CachingProvider, "embed", "embedding.embed", after=embed_done)
        self.patch(retrieval, "cosine_scores", "kernels.cosine", after=cosine_done)
        self.patch(retrieval, "score_all", "retrieval.score_all", after=score_all_done)
        self.patch(retrieval, "top_k", "retrieval.select")
        self.patch(retrieval, "top_k_by_kind", "retrieval.select")
        self.patch(retrieval, "standardize", "retrieval.standardize")
        self.patch(retrieval, "fuse", "retrieval.fuse")
        self.patch(retrieval, "assemble_prompt", "retrieval.prompt")
        self.patch(pipeline, "generate", "generation.generate", after=generate_done)
        self.patch(transport, "post_json", "transport.post", on_error=post_failed)
        self.patch(requests, "post", "transport.attempt")
        self.patch(confidence, "score_record", "confidence.score")
        self.patch(confidence, "select_most_confident", "confidence.select")
        self.patch(pipeline, "run_vanilla", "pipeline.vanilla")
        self.patch(pipeline, "run_mixture", "pipeline.mixture")
        self.patch(pipeline, "run_confident", "pipeline.confident", after=confident_done)
        self.patch(evaluation, "run_sweep", "evaluation.sweep")
        self.patch(evaluation, "aggregate", "evaluation.aggregate")
        self.patch(evaluation, "cdf_report", "evaluation.cdf")
        self.patch(evaluation, "write_report_files", "evaluation.write")
        return self

    # -- analysis ----------------------------------------------------------

    def start_phase(self, phase: str) -> None:
        """Label the spans and counters that follow; rows seen restart per phase."""
        self.phase = self.question = phase
        self._rows.clear()

    def summary(self, phase: str) -> dict:
        """Per span name: calls, total seconds and self seconds within one phase."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, span_phase, _) in enumerate(self.spans):
            if span_phase != phase:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "phase", "question")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counts": {k: dict(v) for k, v in self.counts.items()},
                       "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
