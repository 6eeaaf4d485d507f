"""End-to-end benchmark for multirag.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-5k --seed 1 --seconds 32 --trace 0

Workloads: sweep-5k, ask-cold-20k, ask-remote (see ``workloads.py``).

With ``--trace 0`` the run times the workload's set-up several times,
answers questions in a closed loop for ``--seconds`` seconds, checks the
outputs against independent oracles, times the set-up several times more
and prints every end-to-end metric. With ``--trace 1`` it wraps each module's public functions
(``tracing.py``), answers questions for half of ``--seconds``, replays the
same questions untraced to measure the tracing overhead, and prints the
per-layer metrics. Either way the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``, with the
metric names and units declared in ``BENCHMARK.json``.

The program is imported from ``src/`` of the checkout; without it the run
exits with a non-zero code before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _import_package() -> None:
    src = ROOT / "src"
    if not (src / "multirag" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'multirag'} not found; run from a multirag checkout")
    sys.path[:1] = [str(ROOT), str(src)]  # drop the script directory, add the checkout
    import multirag
    if Path(multirag.__file__).resolve().parent != src / "multirag":
        sys.exit(f"error: imported multirag from {multirag.__file__}, not from {src}")


def tail(latencies: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, samples beyond): the highest ladder percentile
    that still has at least ten samples beyond it (nearest rank)."""
    n = len(latencies)
    ordered = sorted(latencies)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return None


def end_to_end(w, setup_samples: list[float], phase, rss_mb: float) -> dict:
    answered = phase.questions - phase.questions_failed
    out = {
        "setup_s": statistics.median(setup_samples),
        "questions_per_s": answered / phase.wall_s if phase.wall_s > 0 else 0.0,
        "latency_p50_ms": 1000.0 * statistics.median(phase.latencies),
        "llm_calls_per_question": phase.llm_calls / answered if answered else 0.0,
        "ok_frac": 1.0 - phase.ops_failed / phase.ops if phase.ops else 0.0,
        "peak_rss_mb": rss_mb,
    }
    print(f"  setup        median of {len(setup_samples)}: "
          + " ".join(f"{s:.4f}" for s in setup_samples) + " s")
    print(f"  timed phase  {phase.questions} questions in {phase.wall_s:.3f} s, "
          f"{phase.llm_calls} backend generation calls")
    t = tail(phase.latencies)
    if t is None:
        print(f"  latency_tail_ms  n/a: {phase.questions} samples leave no percentile "
              f"with 10 beyond it")
    else:
        p, value, beyond = t
        print(f"  latency_tail_ms  {1000.0 * value:.3f} ms (p{p:g} of {phase.questions} "
              f"samples, {beyond} beyond it)")
    failed_frac = phase.ops_failed / phase.ops if phase.ops else 1.0
    print(f"  failed_frac  {failed_frac:.6f} ratio ({phase.ops_failed} failed of "
          f"{phase.ops} {w.op_unit})")
    return out


def per_layer(tracer, phase, setup_s: float, untraced_wall: float) -> dict:
    """Per-layer metrics of a traced run.

    Layer times are shares of the traced wall time in percent, so that
    machine speed drifts cancel out; multiply by ``trace.wall_s`` for
    seconds per question. Counts are per question of the timed phase;
    config and ingest are seconds per engine built.
    """
    timed, setup = tracer.summary("timed"), tracer.summary("setup")
    counts = tracer.counts["timed"]
    q, wall = phase.questions, phase.wall_s

    def calls(name):
        return timed[name]["calls"] / q

    def pct(name, kind="total_s"):
        return 100.0 * timed[name][kind] / wall

    engines = timed["config.build"]["calls"] + setup["config.build"]["calls"]
    both = lambda name: timed[name]["total_s"] + setup[name]["total_s"]  # noqa: E731
    embeds = counts["embed_texts"]
    score_alls = timed["retrieval.score_all"]["calls"]
    served = phase.served
    return {
        "config.build_s": (both("config.load") + both("config.build")) / engines if engines else 0.0,
        "corpus.ingest_s": both("corpus.ingest") / engines if engines else 0.0,
        "embedding.setup_pct": 100.0 * setup["embedding.embed"]["total_s"] / setup_s,
        "embedding.embed_calls": calls("embedding.embed"),
        "embedding.embed_self_pct": pct("embedding.embed", "self_s"),
        "embedding.texts_requested": embeds / q,
        "embedding.cache_hit_ratio": counts["embed_hits"] / embeds if embeds else 0.0,
        "kernels.cosine_calls": calls("kernels.cosine"),
        "kernels.cosine_pct": pct("kernels.cosine"),
        "kernels.cosine_bytes": counts["cosine_bytes"] / q,
        "retrieval.score_all_calls": score_alls / q,
        "retrieval.score_all_self_pct": pct("retrieval.score_all", "self_s"),
        "retrieval.row_reuse_ratio": counts["score_all_rows"] / score_alls if score_alls else 0.0,
        "retrieval.select_pct": pct("retrieval.select"),
        "retrieval.standardize_pct": pct("retrieval.standardize"),
        "retrieval.fuse_self_pct": pct("retrieval.fuse", "self_s"),
        "retrieval.prompt_pct": pct("retrieval.prompt"),
        "generation.calls": calls("generation.generate"),
        "generation.pct": pct("generation.generate"),
        "generation.steps": counts["generation_steps"] / q,
        "transport.post_calls": calls("transport.post"),
        "transport.post_pct": pct("transport.post"),
        "transport.attempts": calls("transport.attempt"),
        "transport.failed": counts["transport_failed"] / q,
        "confidence.score_calls": calls("confidence.score"),
        "confidence.score_pct": pct("confidence.score"),
        "confidence.select_pct": pct("confidence.select"),
        "pipeline.vanilla_self_pct": pct("pipeline.vanilla", "self_s"),
        "pipeline.mixture_self_pct": pct("pipeline.mixture", "self_s"),
        "pipeline.confident_self_pct": pct("pipeline.confident", "self_s"),
        "pipeline.models_dropped": counts["models_dropped"] / q,
        "evaluation.sweep_self_pct": pct("evaluation.sweep", "self_s"),
        "evaluation.aggregate_pct": pct("evaluation.aggregate"),
        "evaluation.cdf_pct": pct("evaluation.cdf"),
        "evaluation.write_pct": pct("evaluation.write"),
        "stub.requests": (served.get("embeddings", 0) + served.get("chat", 0)) / q,
        "trace.questions": q,
        "trace.spans": sum(v["calls"] for v in timed.values()) / q,
        "trace.wall_s": wall / q,
        "trace.untraced_wall_s": untraced_wall / q,
        "trace.overhead_s": (wall - untraced_wall) / q,
    }


def count_checks(w, tracer, phase, m: dict, checks) -> None:
    """Hard checks that the wrappers saw every call, then today's call counts."""
    timed = tracer.summary("timed")
    self_sum = sum(v["self_s"] for v in timed.values())
    checks.expect(self_sum <= phase.wall_s + 1e-6, "trace-self-time",
                  f"self times sum to {self_sum:.6f} s > traced wall {phase.wall_s:.6f} s")
    gen_calls = timed["generation.generate"]["calls"]
    checks.expect(gen_calls == phase.llm_calls, "trace-generation-calls",
                  f"wrapper saw {gen_calls}, backends counted {phase.llm_calls}")
    w.check_trace(tracer, phase, checks)
    for name, want in w.call_structure.items():
        verdict = "holds" if math.isclose(m[name], want) else "DIFFERS"
        print(f"  count {name} = {m[name]:g} per question over {phase.questions}; "
              f"today's call structure gives {want:g}: {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="multirag end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread. Each question calls matrix @ vector a few times; with
    # more threads a BLAS worker wakes for each call and then spins for a
    # while, taking CPU from the client's own thread (and, on ask-remote,
    # from the stub), so the run would measure the scheduler.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _import_package()
    from perfbench import checks as oracle
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, peak_rss_mb

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]

    # the stub is on localhost; no proxy may sit between it and the clients
    for var in ("HTTP_PROXY", "HTTPS_PROXY", "http_proxy", "https_proxy", "ALL_PROXY", "all_proxy"):
        os.environ.pop(var, None)
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    checks = oracle.Checks()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    w = None
    try:
        w = WORKLOADS[args.workload](ROOT, workdir, args.seed)
        if args.trace:
            tracer = Tracer().install()
            w.tracer = tracer
            try:
                tracer.start_phase("setup")
                engine, setup_s = w.timed_setup()
                tracer.start_phase("timed")
                gc.collect()
                phase = w.run(engine, perf_counter() + args.seconds / 2)
            finally:
                tracer.uninstall()
                w.tracer = None
            w.check(engine, phase, checks)
            del engine
            untraced_wall = w.replay(w.timed_setup()[0], phase)
            metrics = per_layer(tracer, phase, setup_s, untraced_wall)
            count_checks(w, tracer, phase, metrics, checks)
            trace_path = ROOT / ".perfbench-work" / "traces" / f"{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path)
            print(f"  spans written to {trace_path.relative_to(ROOT)}")
            print(f"  tracing overhead {metrics['trace.overhead_s'] * phase.questions:.4f} s "
                  f"over {phase.questions} questions ({phase.wall_s:.4f} s traced, "
                  f"{untraced_wall:.4f} s untraced)")
        else:
            # half the set-ups before the timed phase and half after it, so
            # that their median spans two moments of the host's load
            setups = []
            after = w.setup_repeats // 2
            for _ in range(w.setup_repeats - after):
                engine = None  # release the previous engine before building the next
                engine, seconds = w.timed_setup()
                setups.append(seconds)
            gc.collect()
            phase = w.run(engine, perf_counter() + args.seconds)
            rss = peak_rss_mb()
            w.check(engine, phase, checks)
            for _ in range(after):
                engine = None
                engine, seconds = w.timed_setup()
                setups.append(seconds)
            engine = None
            metrics = end_to_end(w, setups, phase, rss)
    finally:
        if w is not None:
            w.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if phase.aborted:
        checks.expect(False, "run", phase.aborted)
    for name in wanted:
        print(f"  {name:28s} {metrics[name]:.6g} {units[name]}")
    print("  checks passed: " + ", ".join(f"{k} {v}" for k, v in sorted(checks.passed.items())))
    for failure in checks.failures:
        print(f"  CHECK FAILED {failure}")
    print(json.dumps({
        "correct": checks.ok,
        "attempted": phase.questions,
        "failed": phase.questions_failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
