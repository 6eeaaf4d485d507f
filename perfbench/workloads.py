"""The three workloads: the eval sweep, a cold CLI ask, and a warm remote ask.

Each workload is a closed loop with one client: the next question starts
when the previous one has been answered. A workload has a set-up, which
the benchmark times several times and reports as a median, and a timed
phase that answers questions until its deadline passes. Inputs are
written before any timer starts and reach the program only as files.

sweep-5k      the ``multirag eval`` path (the calls ``cmd_eval`` makes) on
              5 000 chunks, 4 deterministic models at dim 32, the mock
              backend, all three pipelines and combination sizes {2, 3, 4}.
              Retrieval dominates and the embedding cache is read-mostly.
ask-cold-20k  ``multirag ask --pipeline confident`` with a fresh engine per
              question, as each CLI call has, on 20 000 chunks at dim 384.
              Filling the embedding cache dominates; fusion is absent.
ask-remote    ``run_confident`` on a warm engine over four remote embedding
              models and the OpenAI-compatible chat backend, all served by
              the stub in its own process, with seeded 503 and 429 replies.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from . import checks as oracle
from . import inputs, stub

METRIC_NAMES = ("avg-log-p", "self-certainty", "gini", "entropy", "dp")
QUOTAS = {"textbook": 1, "qa": 3}  # the package's default retrieval quotas
SWEEP_BATCH = 5  # questions per eval (run_sweep, aggregate, reports)


@dataclass
class Phase:
    """What one timed phase did; every count covers exactly this phase."""
    latencies: list[float] = field(default_factory=list)  # seconds per question
    wall_s: float = 0.0
    llm_calls: int = 0
    ops: int = 0          # operations attempted (see each workload)
    ops_failed: int = 0
    questions_failed: int = 0
    aborted: str = ""     # set when the run had to stop early
    winners: list = field(default_factory=list)   # checks.winner_facts of every answer
    samples: dict = field(default_factory=dict)   # full results kept for the oracles
    served: dict = field(default_factory=dict)    # stub counters, remote only

    @property
    def questions(self) -> int:
        return len(self.latencies)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    name = ""
    setup_repeats = 7
    op_unit = "questions"
    # per-question counts of today's call structure, printed by traced runs
    call_structure = {"generation.calls": 4.0}

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.root, self.workdir, self.seed = root, workdir, seed
        self.paths = inputs.write_inputs(self.name, seed, workdir)
        self.chunks, self.gold = self.paths["chunks"], self.paths["questions"]
        self.chunk_index = {c["id"]: i for i, c in enumerate(self.chunks)}
        self.chunk_kinds = [c["kind"] for c in self.chunks]
        self.chunk_texts = {c["text"] for c in self.chunks}
        self.config_path = inputs.write_config(self.name, seed, self.paths)
        self.tracer = None

    def close(self) -> None:
        pass

    def mark(self, question: str) -> None:
        if self.tracer is not None:
            self.tracer.question = question

    def setup(self):
        raise NotImplementedError

    def timed_setup(self):
        """(engine, seconds) for one set-up."""
        gc.collect()  # start every sample from the same heap state
        t0 = time.perf_counter()
        engine = self.setup()
        return engine, time.perf_counter() - t0

    def run(self, engine, deadline: float, limit: int | None = None) -> Phase:
        """Answer questions until ``deadline``, or exactly ``limit`` of them."""
        raise NotImplementedError

    def replay(self, engine, phase: Phase) -> float:
        """Wall time of the same questions again (for the tracing overhead)."""
        raise NotImplementedError

    def check(self, engine, phase: Phase, checks: oracle.Checks) -> None:
        raise NotImplementedError

    def check_trace(self, tracer, phase: Phase, checks: oracle.Checks) -> None:
        """Workload-specific checks that the wrappers saw every call."""

    def retrieval_rows(self, vector_of, model: str, question: str):
        """Oracle cosine scores of one question against every chunk."""
        rows = vector_of(model, [c["text"] for c in self.chunks])
        return oracle.cosine_scores(vector_of(model, [question])[0], rows)

    def check_selection(self, checks: oracle.Checks, scores, got_ids: list[str],
                        label: str) -> None:
        """One model's retrieved ids against the oracle's per-kind top selection."""
        want = oracle.select_by_kind(scores, self.chunk_kinds, QUOTAS)
        got = [self.chunk_index.get(cid, -1) for cid in got_ids]
        checks.expect(oracle.same_ranking(got, want, lambda i: float(scores[i]) if i >= 0 else None),
                      "retrieval", f"{label}: got {got_ids} want "
                      f"{[self.chunks[i]['id'] for i in want]}")


def _provider_vectors(pipeline_cfg):
    def vector_of(model: str, texts: list[str]):
        return [v.values for v in pipeline_cfg.provider(model).embed(texts)]
    return vector_of


# ---------------------------------------------------------------------------
# sweep-5k
# ---------------------------------------------------------------------------

class Sweep(Workload):
    """Operation = one question; a sweep that aborts fails every question."""

    name = "sweep-5k"
    setup_repeats = 41  # a set-up takes tens of milliseconds; the median spans a few seconds
    call_structure = {"retrieval.score_all_calls": 32.0, "retrieval.row_reuse_ratio": 0.125,
                      "generation.calls": 16.0}

    def setup(self):
        from multirag import config, evaluation
        cfg = config.load_config(self.config_path)
        pc = config.build_pipeline_config(cfg)
        outdir = Path(cfg["output_dir"])
        outdir.mkdir(parents=True, exist_ok=True)
        manifest = config.build_manifest(cfg, pc)
        (outdir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        corpus = config.load_corpus(cfg)
        items = evaluation.load_gold(cfg["gold_path"])
        return {"cfg": cfg, "pc": pc, "corpus": corpus, "items": items, "outdir": outdir,
                "batches": 0}

    def _eval_batch(self, engine, batch: list, phase: Phase) -> bool:
        """One eval over ``batch``: sweep per question, then aggregate and write."""
        from multirag import evaluation
        from multirag.errors import StageError
        cfg, pc, corpus = engine["cfg"], engine["pc"], engine["corpus"]
        ev = cfg["eval"]
        results = []
        start = time.perf_counter()
        for item in batch:
            self.mark(item.id)
            t0 = time.perf_counter()
            try:
                results.extend(evaluation.run_sweep(
                    corpus, [item], pc, pipelines=ev["pipelines"],
                    sizes=ev["combination_sizes"],
                    include_vanilla_llm=ev["include_vanilla_llm"]))
            except StageError as e:
                phase.aborted = f"sweep aborted at {item.id}: {e}"
                phase.latencies.append(time.perf_counter() - t0)
                phase.wall_s += time.perf_counter() - start
                return False
            phase.latencies.append(time.perf_counter() - t0)
        self.mark("report")
        report = evaluation.aggregate(results, batch)
        scored = evaluation.vanilla_records_with_correctness(results, batch)
        records = [r for r, _ in scored]
        tables = {m: evaluation.cdf_report(records, m, sigma=ev["cdf_sigma"])
                  for m in METRIC_NAMES} if records else {}
        outdir = engine["outdir"] / f"batch-{engine['batches']:04d}"
        engine["batches"] += 1
        evaluation.write_report_files(outdir, report, tables, model_ids=pc.model_ids)
        phase.wall_s += time.perf_counter() - start
        phase.samples.setdefault("reports", []).append(outdir)
        for res in results:
            if res.pipeline == "confident":
                phase.winners.append(oracle.winner_facts(res, pc.metric))
        # full results of the first question, and of the latest one whose text
        # is a duplicated chunk, so that its top hit is an exact tie
        phase.samples.setdefault("first", [r for r in results if r.question_id == batch[0].id])
        ties = [i.id for i in batch if i.question in self.chunk_texts]
        if ties:
            phase.samples["tie"] = [r for r in results if r.question_id == ties[-1]]
        return True

    def run(self, engine, deadline: float, limit: int | None = None) -> Phase:
        phase = Phase()
        items, pc = engine["items"], engine["pc"]
        calls_before = pc.backend.call_count
        end = len(items) if limit is None else limit
        pos = 0
        while pos < end and (limit is not None or time.perf_counter() < deadline):
            batch = items[pos:min(pos + SWEEP_BATCH, end)]
            pos += len(batch)
            if not self._eval_batch(engine, batch, phase):
                break
        phase.llm_calls = pc.backend.call_count - calls_before
        phase.ops = phase.questions
        if phase.aborted:
            phase.ops_failed = phase.questions_failed = phase.questions
        return phase

    def replay(self, engine, phase: Phase) -> float:
        return self.run(engine, 0.0, limit=phase.questions).wall_s

    def check(self, engine, phase: Phase, checks: oracle.Checks) -> None:
        pc = engine["pc"]
        model_ids = pc.model_ids
        for outdir in phase.samples.get("reports", []):
            report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
            oracle.check_report(checks, report, model_ids, METRIC_NAMES)
        for facts in phase.winners:
            oracle.check_winner(checks, facts)
        vector_of = _provider_vectors(pc)
        questions = {i.id: i.question for i in engine["items"]}
        for key in ("first", "tie"):
            results = phase.samples.get(key)
            if not results:
                continue
            qid = results[0].question_id
            rows = {m: self.retrieval_rows(vector_of, m, questions[qid]) for m in model_ids}
            for res in results:
                for rec in res.records:
                    oracle.check_confidence(checks, oracle.record_facts(rec),
                                            oracle.metrics(oracle.steps_of(rec)))
                if res.pipeline == "vanilla":
                    mid = res.records[0].embedding_model
                    self.check_selection(checks, rows[mid], res.retrieved[mid], f"{qid}/{mid}")
                elif res.pipeline == "mixture":
                    (tag, got_ids), = res.retrieved.items()
                    want, z_of = oracle.fuse([rows[m] for m in tag.split(",")],
                                             self.chunk_kinds, QUOTAS)
                    got = [self.chunk_index.get(cid, -1) for cid in got_ids]
                    checks.expect(oracle.same_ranking(got, want, z_of.get), "fusion",
                                  f"{qid}/{tag}: got {got_ids} want "
                                  f"{[self.chunks[i]['id'] for i in want]}")


# ---------------------------------------------------------------------------
# ask-cold-20k
# ---------------------------------------------------------------------------

_IMPORT_TIMER = ("import time; t = time.perf_counter(); import multirag.cli; "
                 "print(repr(time.perf_counter() - t))")


class AskCold(Workload):
    """Operation = one (question, embedding model) generation."""

    name = "ask-cold-20k"
    op_unit = "generations"

    def timed_setup(self):
        """The package import every CLI call pays, timed in a fresh interpreter.

        Each question builds its own engine, so config, ingest and engine
        construction are part of its latency, as they are for the CLI.
        """
        env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        out = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], cwd=self.root, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        return None, float(out.stdout.strip().splitlines()[-1])

    def _ask(self, item):
        from multirag import config, pipeline
        from multirag.errors import MultiragError
        cfg = config.load_config(self.config_path)
        pc = config.build_pipeline_config(cfg)
        corpus = config.load_corpus(cfg)
        models = list(cfg["embedding"]["models"])
        for mid in models:
            pc.provider(mid)
        try:
            result = pipeline.run_confident("cli-question", item["question"], models, corpus, pc)
        except MultiragError:
            result = None
        config.build_manifest(cfg, pc, pipeline="confident")
        return pc, result

    def run(self, engine, deadline: float, limit: int | None = None) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        for n, item in enumerate(self.gold):
            if (limit is None and time.perf_counter() >= deadline) or n == limit:
                break
            # one engine alive at a time, as in one CLI process
            phase.samples.pop("last", None)
            pc = result = None
            self.mark(item["id"])
            t0 = time.perf_counter()
            pc, result = self._ask(item)
            phase.latencies.append(time.perf_counter() - t0)
            phase.llm_calls += pc.backend.call_count
            phase.ops += len(pc.model_ids)
            if result is None:
                phase.ops_failed += len(pc.model_ids)
                phase.questions_failed += 1
            else:
                phase.ops_failed += len(pc.model_ids) - len(result.records)
                phase.winners.append(oracle.winner_facts(result, pc.metric))
            phase.samples["last"] = (pc, item, result)
        phase.wall_s = time.perf_counter() - start
        return phase

    def replay(self, engine, phase: Phase) -> float:
        return self.run(engine, 0.0, limit=phase.questions).wall_s

    def check(self, engine, phase: Phase, checks: oracle.Checks) -> None:
        for facts in phase.winners:
            oracle.check_winner(checks, facts)
        pc, item, result = phase.samples.pop("last", (None, None, None))
        if result is None:
            return
        vector_of = _provider_vectors(pc)
        for rec in result.records:
            mid = rec.embedding_model
            scores = self.retrieval_rows(vector_of, mid, item["question"])
            self.check_selection(checks, scores, result.retrieved[mid], f"{item['id']}/{mid}")
            oracle.check_confidence(checks, oracle.record_facts(rec),
                                    oracle.metrics(oracle.steps_of(rec)))


# ---------------------------------------------------------------------------
# ask-remote
# ---------------------------------------------------------------------------

VOCAB_SIZE = 32_000  # backend.vocab_size in the ask-remote config
WARM_UP_QUESTION = "Warm-up: Mia buys 3 packs of 4 stickers. How many stickers does Mia have?"


class AskRemote(Workload):
    """Operation = one (question, embedding model) generation."""

    name = "ask-remote"
    setup_repeats = 3
    op_unit = "generations"

    def __init__(self, root: Path, workdir: Path, seed: int):
        super().__init__(root, workdir, seed)
        # Client and stub take turns (the client waits on every request), so
        # one CPU serves both: a reply wakes the other process on the same
        # CPU instead of waking an idle one, which on a virtual machine costs
        # a variable delay per request. The stub inherits the affinity.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(stub.__file__).resolve()), "--seed", str(seed)],
            cwd=root, stdout=subprocess.PIPE, text=True)
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise RuntimeError("stub server did not report its port")
        self.url = f"http://127.0.0.1:{port}"
        self.config_path = inputs.write_config(self.name, seed, self.paths, endpoint=self.url)
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def _control(self, path: str, body: dict | None = None) -> dict:
        data = None if body is None else json.dumps(body).encode()
        req = urllib.request.Request(self.url + path, data=data,
                                     headers={"Content-Type": "application/json"})
        with self._opener.open(req, timeout=30) as resp:
            return json.loads(resp.read())

    def setup(self):
        from multirag import config, evaluation, pipeline
        self._control("/bench/reset", {"faults": False})
        cfg = config.load_config(self.config_path)
        pc = config.build_pipeline_config(cfg)
        corpus = config.load_corpus(cfg)
        items = evaluation.load_gold(cfg["gold_path"])
        models = list(cfg["embedding"]["models"])
        pipeline.run_confident("warm-up", WARM_UP_QUESTION, models, corpus, pc)
        return {"pc": pc, "corpus": corpus, "items": items, "models": models}

    def run(self, engine, deadline: float, limit: int | None = None) -> Phase:
        from multirag import pipeline
        from multirag.errors import MultiragError
        phase = Phase()
        pc, corpus, models = engine["pc"], engine["corpus"], engine["models"]
        self._control("/bench/reset", {"faults": True})
        calls_before = pc.backend.call_count
        start = time.perf_counter()
        for n, item in enumerate(engine["items"]):
            if (limit is None and time.perf_counter() >= deadline) or n == limit:
                break
            self.mark(item.id)
            t0 = time.perf_counter()
            try:
                result = pipeline.run_confident(item.id, item.question, models, corpus, pc)
            except MultiragError:
                result = None
            phase.latencies.append(time.perf_counter() - t0)
            phase.ops += len(models)
            if result is None:
                phase.ops_failed += len(models)
                phase.questions_failed += 1
            else:
                phase.ops_failed += len(models) - len(result.records)
                phase.winners.append(oracle.winner_facts(result, pc.metric))
                # records hold every token distribution; keep only what the oracles read
                sample = (item.id, result.retrieved,
                          [oracle.record_facts(r) for r in result.records] if n % 10 == 0 else [])
                if n % 10 == 0:
                    phase.samples.setdefault("every-10th", []).append(sample)
                phase.samples["last"] = sample
        phase.wall_s = time.perf_counter() - start
        phase.llm_calls = pc.backend.call_count - calls_before
        phase.served = self._control("/bench/stats")
        return phase

    def replay(self, engine, phase: Phase) -> float:
        return self.run(engine, 0.0, limit=phase.questions).wall_s

    def check(self, engine, phase: Phase, checks: oracle.Checks) -> None:
        served = phase.served
        injected = served.get("chat_429", 0) + served.get("chat_503", 0)
        checks.expect(phase.ops_failed <= injected, "failures-injected",
                      f"{phase.ops_failed} generations failed but the stub injected "
                      f"only {injected} faults")
        checks.expect(phase.llm_calls <= served.get("chat", 0) <= phase.llm_calls + injected,
                      "stub-chat-count", f"stub served {served} for {phase.llm_calls} calls")
        predicted = served.get("chat_429", 0)
        print(f"  stub served {served}; today's retry rule (503 retried, 429 fatal) "
              f"predicts {predicted} failed generations, observed {phase.ops_failed}: "
              + ("holds" if predicted == phase.ops_failed else "DIFFERS"))
        for facts in phase.winners:
            oracle.check_winner(checks, facts)
        if "last" not in phase.samples:
            return
        replies = stub.chat_replies(self.seed)
        pool = stub.pool_vectors(self.seed)

        def vector_of(model: str, texts: list[str]):
            return [pool[stub.vector_index(self.seed, model, t)] for t in texts]

        questions = {i.id: i.question for i in engine["items"]}
        sampled = phase.samples.get("every-10th", [])
        for _, _, records in sampled:
            for rec in records:
                reply = replies[stub.reply_index(self.seed, rec["prompt"])]
                checks.expect(rec["completion"] == reply["content"], "wire-completion",
                              rec["label"])
                steps = []
                for _, lp, alts in reply["steps"]:
                    listed = [math.exp(a) for _, a in alts]
                    steps.append((math.exp(lp), listed, max(0.0, 1.0 - math.fsum(listed)),
                                  VOCAB_SIZE))
                oracle.check_confidence(checks, rec, oracle.metrics(steps))
        for qid, retrieved, _ in sampled[:1] + [phase.samples["last"]]:
            for mid, got_ids in retrieved.items():
                scores = self.retrieval_rows(vector_of, mid, questions[qid])
                self.check_selection(checks, scores, got_ids, f"{qid}/{mid}")

    def check_trace(self, tracer, phase: Phase, checks: oracle.Checks) -> None:
        served = phase.served
        attempts = tracer.summary("timed")["transport.attempt"]["calls"]
        checks.expect(attempts == served["embeddings"] + served["chat"], "trace-transport-attempts",
                      f"wrapper saw {attempts} requests.post calls, stub served {served}")
        failed = tracer.counts["timed"]["transport_failed"]
        dropped = tracer.counts["timed"]["models_dropped"]
        checks.expect(failed == dropped == phase.ops_failed, "trace-failures",
                      f"transport.failed {failed}, models_dropped {dropped}, "
                      f"failed generations {phase.ops_failed}")


WORKLOADS = {w.name: w for w in (Sweep, AskCold, AskRemote)}
