"""Answer grading, sweep orchestration, accuracy tables, and CDF reports.

Grading is numeric-first: the canonical answer is whatever follows the
last "####" marker (the math-word-problem convention), else the last
numeric literal in the completion; two numbers match within 1e-6
relative tolerance, anything else falls back to exact string match.

The sweep runs, per question: one bare-LLM generation (k = 0), one
vanilla run per embedding model, and one mixture run per model
combination. Each (question, model) similarity row is scored once and
shared by that question's vanilla and mixture runs, together with its
cached ranking, per-kind selection and Z-scores. Confident results reuse
the per-model vanilla records — decode seeds depend only on (master
seed, question, model), so a fresh ``run_confident`` would produce
byte-identical records; both equivalences are covered by tests.
"""

from __future__ import annotations

import csv
import json
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from . import confidence, pipeline
from .corpus import Corpus
from .errors import MalformedLineError
from .generation import GenerationRecord
from .pipeline import PipelineConfig, QuestionResult

_NUMBER = re.compile(r"-?\d[\d,]*(?:\.\d+)?")


@dataclass(frozen=True)
class QAItem:
    id: str
    question: str
    answer: str

    def __post_init__(self):
        if not isinstance(self.question, str) or not self.question.strip():
            raise ValueError(f"gold question for {self.id!r} must be a non-empty string")
        if not self.answer.strip():
            raise ValueError(f"gold answer for {self.id!r} is empty")


def load_gold(path: str | Path) -> list[QAItem]:
    """Read a JSONL gold file: one {"id", "question", "answer"} per line.

    Ids must be unique: the report keys each question by its id.
    """
    items = []
    seen: set[str] = set()
    path = Path(path)
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise MalformedLineError(str(path), line_no, f"invalid JSON: {e.msg}") from e
        try:
            item = QAItem(id=str(obj["id"]), question=obj["question"],
                          answer=str(obj["answer"]))
        except (KeyError, TypeError, ValueError) as e:
            raise MalformedLineError(str(path), line_no, str(e)) from e
        if item.id in seen:
            raise MalformedLineError(str(path), line_no, f"duplicate gold id {item.id!r}")
        seen.add(item.id)
        items.append(item)
    return items


def extract_answer(completion: str) -> str | None:
    """Canonical final answer of a completion, or None when there is none."""
    if "####" in completion:
        tail = completion.rsplit("####", 1)[1].strip().replace(",", "")
        return tail or None
    matches = _NUMBER.findall(completion)
    if matches:
        return matches[-1].replace(",", "")
    return None


def _parse_number(text: str) -> float | None:
    try:
        return float(text.replace(",", "").strip())
    except (ValueError, AttributeError):
        return None


def is_correct(extracted: str | None, gold: str) -> bool:
    if extracted is None:
        return False
    a, b = _parse_number(extracted), _parse_number(gold)
    if a is not None and b is not None:
        return math.isclose(a, b, rel_tol=1e-6, abs_tol=0.0)
    return extracted.strip() == gold.strip()


def gold_value(item: QAItem) -> str:
    """Gold answers may be bare values or full solutions ending in '#### x'."""
    if "####" in item.answer:
        return extract_answer(item.answer) or item.answer.strip()
    return item.answer.strip()


def grade(completion: str, item: QAItem) -> bool:
    return is_correct(extract_answer(completion), gold_value(item))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def model_combinations(model_ids: list[str], sizes: list[int]) -> list[tuple[str, ...]]:
    """All subsets of each requested size, in lexicographic index order."""
    combos = []
    for n in sorted(set(sizes)):
        if 1 <= n <= len(model_ids):
            combos.extend(combinations(model_ids, n))
    return combos


def run_sweep(corpus: Corpus, items: list[QAItem], config: PipelineConfig,
              pipelines: list[str], sizes: list[int],
              include_vanilla_llm: bool = True) -> list[QuestionResult]:
    """Run the configured pipelines over every question; returns flat results.

    Every question scores each embedding model's similarity row once and
    hands it to all of that question's vanilla and mixture runs.
    """
    model_ids = config.model_ids
    combos = model_combinations(model_ids, sizes)
    bare_config = replace(config, k=0)

    def one_question(item: QAItem) -> list[QuestionResult]:
        out: list[QuestionResult] = []
        rows: dict = {}  # model id -> this question's similarity row
        if include_vanilla_llm:
            res = pipeline.run_vanilla(item.id, item.question, "", corpus, bare_config)
            res.pipeline = "vanilla-llm"
            out.append(res)
        by_model: dict[str, QuestionResult] = {}
        need_vanilla = "vanilla" in pipelines or "confident" in pipelines
        if need_vanilla:
            for mid in model_ids:
                by_model[mid] = pipeline.run_vanilla(
                    item.id, item.question, mid, corpus, config, rows=rows)
            if "vanilla" in pipelines:
                out.extend(by_model.values())
        if "mixture" in pipelines:
            for combo in combos:
                out.append(pipeline.run_mixture(
                    item.id, item.question, list(combo), corpus, config, rows=rows))
        if "confident" in pipelines:
            for combo in combos:
                records = [by_model[mid].records[0] for mid in combo]
                retrieved = {mid: by_model[mid].retrieved[mid] for mid in combo}
                out.append(pipeline.confident_from_records(
                    item.id, records, config.metric, retrieved=retrieved))
        return out

    if config.concurrency > 1:
        with ThreadPoolExecutor(max_workers=config.concurrency) as ex:
            per_question = list(ex.map(one_question, items))
    else:
        per_question = [one_question(item) for item in items]
    return [res for batch in per_question for res in batch]


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _combo_tag(result: QuestionResult) -> str:
    return ",".join(r.embedding_model for r in result.records)


@dataclass
class AccuracyReport:
    vanilla_llm: float | None
    vanilla_rag: dict | None
    mixture: dict | None
    confident: dict | None
    questions: list[dict]
    manifest_ref: str = "manifest.json"

    def to_dict(self) -> dict:
        return {
            "manifest_ref": self.manifest_ref,
            "vanilla_llm": {"accuracy": self.vanilla_llm}
                           if self.vanilla_llm is not None else None,
            "vanilla_rag": self.vanilla_rag,
            "mixture": self.mixture,
            "confident": self.confident,
            "questions": self.questions,
        }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


def aggregate(results: list[QuestionResult], gold: list[QAItem]) -> AccuracyReport:
    """Accuracy per (pipeline, combination, metric) cell plus baseline deltas."""
    by_id = {item.id: item for item in gold}
    for res in results:
        if res.question_id not in by_id:
            raise ValueError(f"no gold item for question {res.question_id!r}")

    llm_flags: dict[str, bool] = {}
    vanilla_flags: dict[str, dict[str, bool]] = {}
    mixture_flags: dict[str, dict[str, bool]] = {}
    confident_results: dict[str, dict[str, QuestionResult]] = {}
    detail: dict[str, dict] = {}

    for res in results:
        item = by_id[res.question_id]
        q = detail.setdefault(res.question_id, {
            "id": res.question_id, "gold": gold_value(item),
            "vanilla_llm": None, "vanilla": {}, "mixture": {}, "confident": {}})
        correct = grade(res.answer, item)
        if res.pipeline == "vanilla-llm":
            llm_flags[res.question_id] = correct
            q["vanilla_llm"] = _record_detail(res.records[0], correct)
        elif res.pipeline == "vanilla":
            mid = res.records[0].embedding_model
            vanilla_flags.setdefault(mid, {})[res.question_id] = correct
            q["vanilla"][mid] = _record_detail(res.records[0], correct)
        elif res.pipeline == "mixture":
            tag = _combo_tag(res)
            mixture_flags.setdefault(tag, {})[res.question_id] = correct
            q["mixture"][tag] = _record_detail(res.records[0], correct)
        elif res.pipeline == "confident":
            tag = _combo_tag(res)
            confident_results.setdefault(tag, {})[res.question_id] = res
        else:
            raise ValueError(f"unknown pipeline tag {res.pipeline!r}")

    llm_acc = _mean(llm_flags.values()) if llm_flags else None

    vanilla_section = None
    rag_baseline = None
    if vanilla_flags:
        per_model = {mid: _mean(flags.values()) for mid, flags in vanilla_flags.items()}
        rag_baseline = _mean(per_model.values())
        vanilla_section = {
            "per_model": per_model,
            "avg": rag_baseline,
            "vs_vanilla_llm": rag_baseline - llm_acc if llm_acc is not None else None,
        }

    mixture_section = None
    if mixture_flags:
        mixture_section = _combo_section(
            {tag: _mean(flags.values()) for tag, flags in mixture_flags.items()},
            llm_acc, rag_baseline)

    confident_section = None
    if confident_results:
        confident_section = {}
        for metric in confidence.METRICS:
            per_combo: dict[str, float] = {}
            for tag, by_q in confident_results.items():
                flags = []
                for qid, res in by_q.items():
                    winner, index = confidence.select_most_confident(res.records, metric)
                    ok = grade(winner.completion, by_id[qid])
                    flags.append(ok)
                    detail[qid]["confident"].setdefault(tag, {})[metric] = {
                        "winner_index": index,
                        "winner_model": winner.embedding_model,
                        "answer_value": extract_answer(winner.completion),
                        "correct": ok,
                    }
                per_combo[tag] = _mean(flags)
            confident_section[metric] = _combo_section(per_combo, llm_acc, rag_baseline)

    questions = [detail[qid] for qid in sorted(detail)]
    return AccuracyReport(
        vanilla_llm=llm_acc, vanilla_rag=vanilla_section,
        mixture=mixture_section, confident=confident_section, questions=questions)


def _record_detail(record: GenerationRecord, correct: bool) -> dict:
    return {
        "answer_value": extract_answer(record.completion),
        "correct": correct,
        "confidence": {
            m: {"raw": s.raw, "oriented": s.oriented}
            for m, s in sorted(record.confidence.items())
        },
    }


def _combo_section(per_combo: dict[str, float], llm_acc: float | None,
                   rag_baseline: float | None) -> dict:
    by_size: dict[int, list[float]] = {}
    for tag, acc in per_combo.items():
        by_size.setdefault(len(tag.split(",")), []).append(acc)
    avg_by_n = {str(n): _mean(vals) for n, vals in sorted(by_size.items())}
    overall = _mean(per_combo.values())
    return {
        "per_combination": per_combo,
        "avg_by_n": avg_by_n,
        "avg": overall,
        "vs_vanilla_llm": overall - llm_acc if llm_acc is not None else None,
        "vs_vanilla_rag": overall - rag_baseline if rag_baseline is not None else None,
    }


def vanilla_records_with_correctness(
        results: list[QuestionResult], gold: list[QAItem]
) -> list[tuple[GenerationRecord, bool]]:
    """Per-model vanilla generation records paired with their correctness."""
    by_id = {item.id: item for item in gold}
    out = []
    for res in results:
        if res.pipeline == "vanilla":
            record = res.records[0]
            out.append((record, grade(record.completion, by_id[res.question_id])))
    return out


# ---------------------------------------------------------------------------
# CDF report
# ---------------------------------------------------------------------------

@dataclass
class CdfTable:
    metric: str
    thresholds: np.ndarray
    raw: np.ndarray
    smoothed: np.ndarray

    def rows(self) -> list[tuple[float, float, float]]:
        return [(float(t), float(r), float(s))
                for t, r, s in zip(self.thresholds, self.raw, self.smoothed)]

    def write_csv(self, path: str | Path) -> None:
        # repr() is the shortest exact float form, so readers round-trip bit-for-bit
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["threshold", "raw_cdf", "smoothed_cdf"])
            for t, r, s in self.rows():
                writer.writerow([repr(t), repr(r), repr(s)])


def empirical_cdf(scores: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Fraction of scores <= each threshold."""
    scores = np.sort(np.asarray(scores, dtype=np.float64))
    return np.searchsorted(scores, thresholds, side="right") / scores.size


def _gaussian_smooth(x: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian filter of ``x`` truncated at 4σ, with nearest-edge padding.

    The taps are ``exp(-k²/2σ²)`` for ``|k| <= int(4σ + 0.5)``, normalised
    to sum 1. The sum starts at the centre tap and then adds each mirrored
    pair from the outermost inwards; the reports' bits depend on that order.
    """
    r = int(4.0 * sigma + 0.5)
    k = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * k ** 2)
    w = w / w.sum()
    n = x.size
    padded = np.pad(x, r, mode="edge")
    out = x * w[r]
    for j in range(r, 0, -1):
        out += (padded[r - j:r - j + n] + padded[r + j:r + j + n]) * w[r + j]
    return out


def cdf_report(records: list[GenerationRecord], metric: str,
               sigma: float = 1.0, grid_points: int = 101) -> CdfTable:
    """Empirical CDF of oriented confidence scores, raw and Gaussian-smoothed.

    The grid spans the observed score range and continues a few steps
    past the maximum, where the CDF is flat at 1.0; with nearest-edge
    padding the Gaussian filter then leaves the terminal value at 1.0.
    """
    if not records:
        raise ValueError("cdf_report requires at least one record")
    scores = np.array([r.confidence[metric].oriented for r in records])
    lo, hi = float(scores.min()), float(scores.max())
    if lo == hi:
        return CdfTable(metric, np.array([lo]), np.array([1.0]), np.array([1.0]))
    # one step past the max the CDF is exactly 1.0; the tail must outspan the
    # filter's kernel radius so the terminal value stays untouched
    kernel_radius = int(4.0 * sigma + 0.5)
    flat_tail = kernel_radius + 1
    step = (hi - lo) / (grid_points - 1)
    thresholds = lo + step * np.arange(grid_points + flat_tail)
    raw = empirical_cdf(scores, thresholds)
    smoothed = _gaussian_smooth(raw, sigma) if sigma > 0 else raw.copy()
    return CdfTable(metric, thresholds, raw, smoothed)


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def write_report_files(outdir: str | Path, report: AccuracyReport,
                       cdf_tables: dict[str, CdfTable],
                       model_ids: list[str]) -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    report_dict = report.to_dict()
    report_path = outdir / "report.json"
    report_path.write_text(
        json.dumps(report_dict, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    written.append(report_path)

    tables_path = outdir / "tables.txt"
    tables_path.write_text(render_tables(report_dict, model_ids), encoding="utf-8")
    written.append(tables_path)

    for metric, table in sorted(cdf_tables.items()):
        path = outdir / f"cdf_{metric}.csv"
        table.write_csv(path)
        written.append(path)
    return written


def _pct(x) -> str:
    return "-" if x is None or (isinstance(x, float) and math.isnan(x)) else f"{100 * x:.1f}%"


def _delta(x) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "-"
    return f"{100 * x:+.1f}%"


def _format_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(headers), sep] + [fmt(r) for r in rows])


def _index_tag(tag: str, model_ids: list[str]) -> str:
    ids = tag.split(",")
    try:
        return ",".join(str(model_ids.index(m) + 1) for m in ids)
    except ValueError:
        return tag


def render_tables(report: dict, model_ids: list[str]) -> str:
    """Aligned-text accuracy tables (vanilla / mixture / confident shapes)."""
    lines = []
    lines.append("Embedding model legend")
    for i, mid in enumerate(model_ids, start=1):
        lines.append(f"  Emb{i} = {mid}")
    lines.append("")

    vanilla = report.get("vanilla_rag")
    llm = report.get("vanilla_llm")
    llm_acc = llm["accuracy"] if llm else None
    if vanilla or llm:
        headers = ["Vanilla LLM"]
        row = [_pct(llm_acc)]
        if vanilla:
            for i, mid in enumerate(model_ids, start=1):
                headers.append(f"Emb{i}")
                row.append(_pct(vanilla["per_model"].get(mid)))
            headers += ["Avg", "Improvement"]
            row += [_pct(vanilla["avg"]), _delta(vanilla["vs_vanilla_llm"])]
        lines.append("Vanilla LLM and vanilla RAG")
        lines.append(_format_table(headers, [row]))
        lines.append("")

    mixture = report.get("mixture")
    if mixture:
        sizes = sorted(mixture["avg_by_n"])
        headers = [f"{n} Embs" for n in sizes] + ["Avg", "vs Vanilla LLM", "vs Vanilla RAG"]
        row = [_pct(mixture["avg_by_n"][n]) for n in sizes]
        row += [_pct(mixture["avg"]), _delta(mixture["vs_vanilla_llm"]),
                _delta(mixture["vs_vanilla_rag"])]
        lines.append("Mixture-embedding RAG")
        lines.append(_format_table(headers, [row]))
        lines.append("")

    confident = report.get("confident")
    if confident:
        metrics = list(confidence.METRICS)
        headers = ["Combination"] + metrics
        tags = sorted(next(iter(confident.values()))["per_combination"],
                      key=lambda t: (len(t.split(",")),
                                     [model_ids.index(m) if m in model_ids else 0
                                      for m in t.split(",")]))
        rows = []
        last_n = None
        for tag in tags:
            n = len(tag.split(","))
            if last_n is not None and n != last_n:
                rows.append([f"Avg (n={last_n})"] + [
                    _pct(confident[m]["avg_by_n"].get(str(last_n))) for m in metrics])
            rows.append([_index_tag(tag, model_ids)] + [
                _pct(confident[m]["per_combination"][tag]) for m in metrics])
            last_n = n
        if last_n is not None:
            rows.append([f"Avg (n={last_n})"] + [
                _pct(confident[m]["avg_by_n"].get(str(last_n))) for m in metrics])
        rows.append(["Avg (all)"] + [_pct(confident[m]["avg"]) for m in metrics])
        rows.append(["vs Vanilla RAG"] + [_delta(confident[m]["vs_vanilla_rag"])
                                          for m in metrics])
        rows.append(["vs Vanilla LLM"] + [_delta(confident[m]["vs_vanilla_llm"])
                                          for m in metrics])
        lines.append("Confident RAG (answer selected per confidence metric)")
        lines.append(_format_table(headers, rows))
        lines.append("")
    return "\n".join(lines)
