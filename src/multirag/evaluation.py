"""Answer grading, sweep orchestration, accuracy tables, and CDF reports.

Grading is numeric-first: the canonical answer is whatever follows the
last "####" marker (the math-word-problem convention), else the last
numeric literal in the completion; two numbers match within 1e-6
relative tolerance, anything else falls back to exact string match.

The sweep runs, per question: one bare-LLM generation (k = 0), one
vanilla run per embedding model, and one mixture run and one confident
run per model combination. All of a question's flows share one memo:
each (question, model) similarity row is scored once, with its cached
ranking, per-kind selection and Z-scores, and each model's vanilla answer
is generated once. So every confident run picks among the question's
vanilla records without generating again, through the same
``pipeline.run_confident`` that ``ask`` runs. The memo collects the
question's answers unscored, and the first confident run, or the end of
the question, scores them in one stacked pass, before any score is read.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, replace
from itertools import combinations
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import confidence, pipeline
from .corpus import Corpus, decode_text, jsonl_values, read_bytes
from .errors import MalformedLineError
from .generation import GenerationRecord
from .pipeline import PipelineConfig, QuestionResult

_NUMBER = re.compile(r"-?\d[\d,]*(?:\.\d+)?")


@dataclass(frozen=True, init=False)
class QAItem:
    id: str
    question: str
    answer: str

    # written out, not generated: every run builds its whole gold set, and the
    # generated frozen __init__, which sets each field through
    # object.__setattr__ and then calls __post_init__, takes twice as long
    def __init__(self, id: str, question: str, answer: str):
        if not isinstance(question, str) or not question.strip():
            raise ValueError(f"gold question for {id!r} must be a non-empty string")
        if not answer.strip():
            raise ValueError(f"gold answer for {id!r} is empty")
        fields = self.__dict__
        fields["id"], fields["question"], fields["answer"] = id, question, answer


_GOLD_KEYS = ("id", "question", "answer")
# the longest gold line handed to orjson, which has no depth limit: a deeply
# nested line overflows the C stack and kills the process. A line nests no
# deeper than its length, and the stdlib reads a longer one, raising at its
# own depth limit instead.
_ORJSON_MAX_LINE = 10_000


def load_gold(path: str | Path) -> list[QAItem]:
    """Read a JSONL gold file: one {"id", "question", "answer"} per line.

    An id is a non-empty string or an integer, an answer a string or a
    finite number: no completion can match NaN or infinity. Ids must be
    unique: the report keys each question by its id.

    orjson decodes the lines and the rules are checked column by column
    (``_gold_columns``). A file with a line orjson rejects or may read
    differently from the stdlib, a line too long to hand to orjson, or any
    broken rule is read again line by line through the stdlib
    (``_gold_lines``), which names the first error.
    """
    path = Path(path)
    text = decode_text(read_bytes(path), path)
    items = _gold_columns(text)
    return _gold_lines(text, path) if items is None else items


def _gold_columns(text: str) -> list[QAItem] | None:
    """The items of the gold file ``text`` if no line is longer than
    ``_ORJSON_MAX_LINE``, orjson reads every non-blank line and every rule
    holds, else None.

    orjson reads an integer beyond 64 bits as a float, whose magnitude is
    then 2**63 or more. So a float id, or a float answer that large, is
    left to the stdlib too; a smaller float answer came from a float
    literal, and ``str`` of it is what the stdlib path stores. Each rule
    but that bound, which runs only on a file with a float answer, is one
    C-level pass.
    """
    import orjson

    lines = text.split("\n")
    if max(map(len, lines)) > _ORJSON_MAX_LINE:
        return None
    try:
        values = list(map(orjson.loads, filter(str.strip, lines)))
        # a line that is not an object raises TypeError, a missing key KeyError
        ids, questions, answers = (list(map(itemgetter(key), values)) for key in _GOLD_KEYS)
    except (orjson.JSONDecodeError, TypeError, KeyError):
        return None
    # type(True) is bool, so a bool id or answer fails these too
    answer_types = set(map(type, answers))
    if not {str, int}.issuperset(map(type, ids)) or not {str, int, float}.issuperset(answer_types):
        return None
    if float in answer_types and not all(abs(a) < 2 ** 63 for a in answers if type(a) is float):
        return None
    ids = list(map(str, ids))
    unique = set(ids)
    if len(unique) != len(ids) or "" in unique:
        return None
    try:
        return list(map(QAItem, ids, questions, map(str, answers)))
    except ValueError:  # a question or answer QAItem refuses
        return None


def _gold_lines(text: str, path: Path) -> list[QAItem]:
    """``load_gold`` of ``text``, read line by line through the stdlib."""
    items = []
    seen: set[str] = set()
    for line_no, obj in jsonl_values(text, path):
        if not isinstance(obj, dict):
            raise MalformedLineError(str(path), line_no, "expected a JSON object")
        for key in _GOLD_KEYS:
            if key not in obj:
                raise MalformedLineError(str(path), line_no, f"missing {key!r}")
        try:
            qid, answer = obj["id"], obj["answer"]
            if isinstance(qid, bool) or not isinstance(qid, (str, int)) or qid == "":
                raise ValueError(f"gold id {qid!r} must be a non-empty string or an integer")
            if (isinstance(answer, bool) or not isinstance(answer, (str, int, float))
                    or isinstance(answer, float) and not math.isfinite(answer)):
                raise ValueError(
                    f"gold answer for {qid!r} must be a string or a number, not {answer!r}")
            item = QAItem(id=str(qid), question=obj["question"], answer=str(answer))
        except ValueError as e:
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

    The flows on one question share one memo (see ``pipeline.run_vanilla``),
    so each model's similarity row is scored, and its vanilla answer
    generated, once per question. The memo is a ``pipeline.collecting_memo``:
    the question's answers, the bare LLM's too, are scored together, before
    the first confident run reads a score and before the question's
    results are returned.
    """
    combos = [list(c) for c in model_combinations(config.model_ids, sizes)]
    bare_config = replace(config, k=0)

    def one_question(item: QAItem) -> list[QuestionResult]:
        out: list[QuestionResult] = []
        unscored: list = []
        memo = pipeline.collecting_memo(unscored)
        if include_vanilla_llm:
            # a memo of its own, since its config differs, collecting into the same list
            res = pipeline.run_vanilla(item.id, item.question, "", corpus, bare_config,
                                       pipeline.collecting_memo(unscored))
            res.pipeline = "vanilla-llm"
            out.append(res)
        if "vanilla" in pipelines or "confident" in pipelines:
            # run before any confident flow, so that a failed generation
            # aborts the eval instead of being dropped from a combination
            vanilla = [pipeline.run_vanilla(item.id, item.question, mid, corpus,
                                            config, memo) for mid in config.model_ids]
            if "vanilla" in pipelines:
                out.extend(vanilla)
        for name, flow in (("mixture", pipeline.run_mixture),
                           ("confident", pipeline.run_confident)):
            if name in pipelines:
                out.extend(flow(item.id, item.question, combo, corpus, config, memo)
                           for combo in combos)
        pipeline.score_collected(memo)
        return out

    per_question = pipeline.map_concurrent(one_question, items, config.concurrency)
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
    """Accuracy per (pipeline, combination, metric) cell plus baseline deltas.

    Every cell is computed from the per-question detail: each result is
    graded once into its question's entry, and each accuracy is the mean of
    that cell's ``correct`` flags over the questions that hold it. A
    completion is graded once per question, however many cells it wins.
    """
    by_id = {item.id: item for item in gold}
    detail: dict[str, dict] = {}
    grades: dict[tuple[str, str], tuple[str | None, bool]] = {}

    def graded(q: dict, completion: str) -> tuple[str | None, bool]:
        """(answer value, correct) of ``completion`` to the question of ``q``."""
        key = (q["id"], completion)
        if key not in grades:
            value = extract_answer(completion)
            grades[key] = value, is_correct(value, q["gold"])
        return grades[key]

    for res in results:
        item = by_id.get(res.question_id)
        if item is None:
            raise ValueError(f"no gold item for question {res.question_id!r}")
        q = detail.setdefault(res.question_id, {
            "id": res.question_id, "gold": gold_value(item),
            "vanilla_llm": None, "vanilla": {}, "mixture": {}, "confident": {}})
        if res.pipeline == "confident":
            q["confident"][_combo_tag(res)] = {
                metric: _winner_detail(res.records, metric, q, graded)
                for metric in confidence.METRICS}
            continue
        cell = _record_detail(res.records[0], *graded(q, res.answer))
        if res.pipeline == "vanilla-llm":
            q["vanilla_llm"] = cell
        elif res.pipeline == "vanilla":
            q["vanilla"][res.records[0].embedding_model] = cell
        elif res.pipeline == "mixture":
            q["mixture"][_combo_tag(res)] = cell
        else:
            raise ValueError(f"unknown pipeline tag {res.pipeline!r}")

    questions = [detail[qid] for qid in sorted(detail)]
    llm_acc = _accuracy(("", q["vanilla_llm"]) for q in questions
                        if q["vanilla_llm"] is not None).get("")
    per_model = _accuracy(cell for q in questions for cell in q["vanilla"].items())
    vanilla_section = rag_baseline = None
    if per_model:
        rag_baseline = _mean(per_model.values())
        vanilla_section = {
            "per_model": per_model,
            "avg": rag_baseline,
            "vs_vanilla_llm": rag_baseline - llm_acc if llm_acc is not None else None,
        }
    mixture = _accuracy(cell for q in questions for cell in q["mixture"].items())
    confident = None
    if any(q["confident"] for q in questions):
        confident = {metric: _combo_section(
            _accuracy((tag, cells[metric]) for q in questions
                      for tag, cells in q["confident"].items()),
            llm_acc, rag_baseline) for metric in confidence.METRICS}
    return AccuracyReport(
        vanilla_llm=llm_acc, vanilla_rag=vanilla_section,
        mixture=_combo_section(mixture, llm_acc, rag_baseline) if mixture else None,
        confident=confident, questions=questions)


def _accuracy(cells) -> dict[str, float]:
    """Mean ``correct`` flag per key of ``(key, cell)`` pairs, keys in first-seen order."""
    flags: dict[str, list[bool]] = {}
    for key, cell in cells:
        flags.setdefault(key, []).append(cell["correct"])
    return {key: _mean(values) for key, values in flags.items()}


def _record_detail(record: GenerationRecord, answer_value: str | None, correct: bool) -> dict:
    return {
        "answer_value": answer_value,
        "correct": correct,
        "confidence": {
            m: {"raw": s.raw, "oriented": s.oriented}
            for m, s in sorted(record.confidence.items())
        },
    }


def _winner_detail(records: list[GenerationRecord], metric: str, q: dict, graded) -> dict:
    winner, index = confidence.select_most_confident(records, metric)
    answer_value, correct = graded(q, winner.completion)
    return {
        "winner_index": index,
        "winner_model": winner.embedding_model,
        "answer_value": answer_value,
        "correct": correct,
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

# the default grid spans the observed scores in 100 steps; a wider kernel
# only flattens the whole curve, and the grid's tail and the smoothing
# loop both grow with sigma
MAX_CDF_SIGMA = 100.0


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
    ``sigma`` is in grid steps, from 0 (no smoothing) to ``MAX_CDF_SIGMA``.
    """
    if not records:
        raise ValueError("cdf_report requires at least one record")
    if not 0 <= sigma <= MAX_CDF_SIGMA:
        raise ValueError(f"cdf sigma must be in [0, {MAX_CDF_SIGMA:g}], got {sigma!r}")
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
    report_path.write_bytes(json_bytes(report_dict))
    written.append(report_path)

    tables_path = outdir / "tables.txt"
    tables_path.write_text(render_tables(report_dict, model_ids), encoding="utf-8")
    written.append(tables_path)

    for metric, table in sorted(cdf_tables.items()):
        path = outdir / f"cdf_{metric}.csv"
        table.write_csv(path)
        written.append(path)
    return written


def json_bytes(obj) -> bytes:
    """``obj`` as indented, key-sorted JSON text with a final newline: the
    one way the program writes a JSON file.

    orjson writes it. Its text equals ``json.dumps(obj, indent=2,
    sort_keys=True) + "\n"`` but in three cases. Non-ASCII text stays
    UTF-8, and a float that ``repr`` writes with an exponent may take
    another form (``1e-7``, ``0.00001`` and ``1e16`` for ``1e-07``,
    ``1e-05`` and ``1e+16``): both read back the same. A non-finite float
    is written as ``null``. What orjson refuses, a lone surrogate or an
    integer beyond 64 bits, gets exactly that ``json.dumps`` text; what
    neither takes raises ``TypeError``.
    """
    import orjson  # imported here, as in load_gold, so that loading the package stays light

    try:
        return orjson.dumps(
            obj, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE)
    except orjson.JSONEncodeError:
        return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("ascii")


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
