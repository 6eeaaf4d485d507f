"""Command-line entry point: ingest, ask, eval, report."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import config as config_mod
from . import evaluation, pipeline
from .confidence import METRICS
from .corpus import Corpus
from .errors import MultiragError, StageError

log = logging.getLogger("multirag")


def _parse_quota(pair: str) -> tuple[str, int]:
    """argparse ``type`` for one ``--quota KIND=COUNT``."""
    kind, _, count = pair.partition("=")
    try:
        return kind, int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--quota expects kind=count, got {pair!r}") from None


def _overrides_from_args(args) -> dict:
    overrides = {}
    if getattr(args, "k", None) is not None:
        overrides["retrieval.k"] = args.k
    if getattr(args, "quota", None):
        overrides["retrieval.quotas"] = dict(args.quota)
    if getattr(args, "metric", None):
        overrides["confidence.metric"] = args.metric
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out", None):
        overrides["output_dir"] = args.out
    return overrides


def cmd_ingest(args) -> int:
    cfg = config_mod.load_config(args.config, overrides=_overrides_from_args(args))
    corpus = Corpus()
    entries = [{"path": p, "kind": args.kind} for p in args.paths]
    if not entries:
        entries = cfg["corpus"]
    for entry in entries:
        added = corpus.ingest(entry["path"], kind=entry.get("kind", "qa"))
        print(f"{entry['path']}: {added} chunk(s) ingested")
    for kind, count in corpus.kind_counts().items():
        print(f"kind {kind}: {count}")
    print(f"total: {len(corpus)}")
    return 0


def _models_or_default(args, cfg) -> list[str]:
    if args.models:
        return [m.strip() for m in args.models.split(",") if m.strip()]
    return list(cfg["embedding"]["models"])


def cmd_ask(args) -> int:
    cfg = config_mod.load_config(args.config, overrides=_overrides_from_args(args))
    pipeline_cfg = config_mod.build_pipeline_config(cfg)
    corpus = config_mod.load_corpus(cfg)
    if pipeline_cfg.k > 0 and len(corpus) == 0:
        print("error: corpus is empty; ingest chunks or pass --k 0", file=sys.stderr)
        return 1
    models = _models_or_default(args, cfg)
    for mid in models:
        pipeline_cfg.provider(mid)  # validates the ids before any work

    qid = "cli-question"
    if args.pipeline == "vanilla":
        if len(models) != 1:
            print("error: vanilla expects exactly one model (--models)", file=sys.stderr)
            return 1
        result = pipeline.run_vanilla(qid, args.question, models[0], corpus, pipeline_cfg)
    elif args.pipeline == "mixture":
        result = pipeline.run_mixture(qid, args.question, models, corpus, pipeline_cfg)
    else:
        result = pipeline.run_confident(qid, args.question, models, corpus, pipeline_cfg)

    manifest = config_mod.build_manifest(cfg, pipeline_cfg, pipeline=args.pipeline)
    if args.verbose:
        for record in result.records:
            print(f"--- model {record.embedding_model or '(none)'}")
            for mid, ids in result.retrieved.items():
                if mid == record.embedding_model:
                    print(f"    retrieved: {ids}")
            for metric, score in sorted(record.confidence.items()):
                print(f"    {metric}: raw={score.raw:.6f} oriented={score.oriented:.6f}")
        if result.winner_index is not None:
            print(f"--- winner index: {result.winner_index} "
                  f"(metric {pipeline_cfg.metric})")
        print("--- manifest")
        print(json.dumps(manifest, indent=2, sort_keys=True))
    if args.out:
        outdir = Path(cfg["output_dir"])
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        (outdir / "answer.json").write_text(json.dumps({
            "question": args.question,
            "pipeline": args.pipeline,
            "answer": result.answer,
            "answer_value": evaluation.extract_answer(result.answer),
            "winner_index": result.winner_index,
        }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(result.answer)
    return 0


def cmd_eval(args) -> int:
    cfg = config_mod.load_config(args.config, overrides=_overrides_from_args(args))
    if not cfg["gold_path"]:
        print("error: config needs gold_path for eval", file=sys.stderr)
        return 1
    pipeline_cfg = config_mod.build_pipeline_config(cfg)
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)

    # the manifest goes first so partial failures still leave a record
    manifest = config_mod.build_manifest(cfg, pipeline_cfg)
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    corpus = config_mod.load_corpus(cfg)
    if pipeline_cfg.k > 0 and len(corpus) == 0:
        print("error: corpus is empty; configure corpus files or set k=0",
              file=sys.stderr)
        return 1
    items = evaluation.load_gold(cfg["gold_path"])
    ev = cfg["eval"]
    if ev["max_questions"] is not None:
        items = items[:ev["max_questions"]]

    results = evaluation.run_sweep(
        corpus, items, pipeline_cfg,
        pipelines=ev["pipelines"], sizes=ev["combination_sizes"],
        include_vanilla_llm=ev["include_vanilla_llm"])
    report = evaluation.aggregate(results, items)

    scored = evaluation.vanilla_records_with_correctness(results, items)
    cdf_tables = {}
    if scored:
        records = [r for r, _ in scored]
        for metric in METRICS:
            cdf_tables[metric] = evaluation.cdf_report(
                records, metric, sigma=ev["cdf_sigma"])

    written = evaluation.write_report_files(
        outdir, report, cdf_tables, model_ids=pipeline_cfg.model_ids)
    for path in [outdir / "manifest.json"] + written:
        print(f"wrote {path}")
    return 0


def cmd_report(args) -> int:
    report_path = Path(args.report)
    if not report_path.exists():
        print(f"error: {report_path} not found", file=sys.stderr)
        return 1
    report = json.loads(report_path.read_text(encoding="utf-8"))
    model_ids = args.models.split(",") if args.models else _legend_from_report(report)
    text = evaluation.render_tables(report, model_ids)
    print(text)
    if args.outdir:
        out = Path(args.outdir) / "tables.txt"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    return 0


def _legend_from_report(report: dict) -> list[str]:
    vanilla = report.get("vanilla_rag") or {}
    return list((vanilla.get("per_model") or {}).keys())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multirag",
        description="Multi-embedding RAG engine with confidence-based answer selection")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--verbose", action="store_true", help="chatty output")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p_ingest = sub.add_parser("ingest", help="validate and count corpus chunks")
    p_ingest.add_argument("paths", nargs="*", help="JSONL or plain-text chunk files")
    p_ingest.add_argument("--kind", default="qa", choices=("qa", "textbook"))
    p_ingest.add_argument("--config", default=None)
    p_ingest.set_defaults(func=cmd_ingest)

    p_ask = sub.add_parser("ask", help="answer one question")
    p_ask.add_argument("question")
    p_ask.add_argument("--config", default=None)
    p_ask.add_argument("--pipeline", default="confident",
                       choices=("vanilla", "mixture", "confident"))
    p_ask.add_argument("--metric", default=None)
    p_ask.add_argument("--models", default=None,
                       help="comma-separated embedding model ids")
    p_ask.add_argument("--k", type=int, default=None)
    p_ask.add_argument("--quota", action="append", default=None, metavar="KIND=COUNT",
                       type=_parse_quota)
    p_ask.add_argument("--seed", type=int, default=None)
    p_ask.add_argument("--out", default=None,
                       help="output directory (overrides output_dir); "
                            "also writes manifest.json and answer.json there")
    p_ask.set_defaults(func=cmd_ask)

    p_eval = sub.add_parser("eval", help="run the accuracy sweep and write reports")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--metric", default=None)
    p_eval.add_argument("--k", type=int, default=None)
    p_eval.add_argument("--quota", action="append", default=None, metavar="KIND=COUNT",
                       type=_parse_quota)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--out", default=None,
                        help="output directory (overrides output_dir)")
    p_eval.set_defaults(func=cmd_eval)

    p_report = sub.add_parser("report", help="re-render tables from report.json")
    p_report.add_argument("report", help="path to report.json")
    p_report.add_argument("--models", default=None,
                          help="model-id legend, comma separated")
    p_report.add_argument("--out", dest="outdir", default=None)
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except StageError as e:
        print(f"error in stage {e.stage!r}: {e.cause}", file=sys.stderr)
        return 1
    except (MultiragError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
