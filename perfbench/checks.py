"""Independent oracles the benchmark checks every run's outputs against.

Nothing here calls the package's retrieval, confidence or evaluation
code. The oracles are written from the documented rules, so a correct
optimisation that changes float bits still passes:

- retrieval: brute-force cosine, top-k per kind quota, and Z-score fusion
  with ties going to the higher score, then the lower model index, then
  the earlier ingested chunk;
- confidence: the five metrics in closed form, with the tail mass spread
  uniformly over the unlisted vocabulary and the 1e-12 floor before every
  logarithm;
- selection: the confident winner is the first argmax of the oriented
  score;
- reports: every accuracy cell of ``report.json`` recounts from its own
  per-question detail.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

EPS = 1e-12
LOWER_IS_CONFIDENT = ("entropy", "dp")
# Scores closer than this may come out in either order after a change in
# float evaluation order. Exactly equal scores (identical vectors) must
# still follow the tie rule.
NEAR_TIE = 1e-9
METRIC_RTOL = 1e-9


class Checks:
    """Collects pass counts per check and a message per failure."""

    def __init__(self):
        self.passed: Counter = Counter()
        self.failures: list[str] = []

    def expect(self, ok: bool, check: str, detail: str = "") -> None:
        if ok:
            self.passed[check] += 1
        else:
            self.failures.append(f"{check}: {detail}")

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------

def cosine_scores(query: np.ndarray, rows, block: int = 2048) -> np.ndarray:
    """Row-wise cosine, computed so identical rows give identical scores."""
    q = np.asarray(query, dtype=np.float64)
    qn = math.sqrt(float((q * q).sum()))
    out = []
    for start in range(0, len(rows), block):
        m = np.array(rows[start:start + block], dtype=np.float64)
        out.append((m * q).sum(axis=1) / (np.sqrt((m * m).sum(axis=1)) * qn))
    return np.clip(np.concatenate(out), -1.0, 1.0)


def ranked(scores) -> list[int]:
    """Indices by descending score, ties by ascending index (ingestion order)."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def select_by_kind(scores, kinds: list[str], quotas: dict[str, int]) -> list[int]:
    taken = {kind: 0 for kind in quotas}
    out = []
    for i in ranked(scores):
        kind = kinds[i]
        if kind in quotas and taken[kind] < quotas[kind]:
            taken[kind] += 1
            out.append(i)
            if len(out) == sum(quotas.values()):
                break
    return out


def zscores(scores: np.ndarray) -> np.ndarray:
    if scores.max() == scores.min():
        return np.zeros_like(scores)
    mu = math.fsum(scores) / len(scores)
    sigma = math.sqrt(math.fsum((scores - mu) ** 2) / len(scores))
    return (scores - mu) / sigma


def fuse(score_rows: list[np.ndarray], kinds: list[str],
         quotas: dict[str, int]) -> tuple[list[int], dict[int, float]]:
    """Fused chunk indices in output order, and the pooled Z-score of each."""
    pooled: dict[int, tuple[float, int]] = {}
    for model_index, scores in enumerate(score_rows):
        z = zscores(scores)
        for i in select_by_kind(scores, kinds, quotas):
            if i not in pooled or z[i] > pooled[i][0]:
                pooled[i] = (float(z[i]), model_index)
    z_of = {i: z for i, (z, _) in pooled.items()}
    merged = sorted(z_of, key=lambda i: (-z_of[i], i))
    taken = {kind: 0 for kind in quotas}
    out = []
    for i in merged:
        if kinds[i] in quotas and taken[kinds[i]] < quotas[kinds[i]]:
            taken[kinds[i]] += 1
            out.append(i)
    return out, z_of


def same_ranking(got: list[int], want: list[int], score) -> bool:
    """Equal lists, except that near-tied (not exactly tied) entries may swap."""
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if g == w:
            continue
        sg, sw = score(g), score(w)
        if sg is None or sw is None or sg == sw or abs(sg - sw) > NEAR_TIE:
            return False
    return True


# ---------------------------------------------------------------------------
# confidence
# ---------------------------------------------------------------------------

def metrics(steps) -> dict[str, float]:
    """Raw metric values for steps given as (chosen p, listed probs, tail, vocab)."""
    n = len(steps)
    log_p, gini, ent, dp, sc = [], [], [], [], []
    for chosen, listed, tail, vocab in steps:
        unlisted = vocab - len(listed)
        u = tail / unlisted if unlisted > 0 else 0.0
        log_p.append(math.log(max(chosen, EPS)))
        gini.append(math.fsum(p * p for p in listed) + unlisted * u * u)
        h = math.fsum(-p * math.log(max(p, EPS)) for p in listed if p > 0)
        if u > 0:
            h += unlisted * -u * math.log(max(u, EPS))
        ent.append(h)
        dp.append(math.exp(h))
        s = math.fsum(math.log(vocab * max(p, EPS)) for p in listed)
        if unlisted > 0:
            s += unlisted * math.log(vocab * max(u, EPS))
        sc.append(-s / vocab)
    return {"avg-log-p": math.fsum(log_p) / n, "gini": math.fsum(gini) / n,
            "entropy": math.fsum(ent) / n, "dp": math.fsum(dp) / n,
            "self-certainty": math.fsum(sc) / n}


def steps_of(record) -> list[tuple]:
    return [(s.prob, [p for _, p in s.dist], s.tail_mass, s.vocab_size)
            for s in record.steps]


def record_facts(record) -> dict:
    """What the confidence check needs from a record, without its token steps."""
    return {"label": f"{record.question_id}/{record.embedding_model}",
            "prompt": record.prompt, "completion": record.completion,
            "scores": {m: (s.raw, s.oriented) for m, s in record.confidence.items()}}


def check_confidence(checks: Checks, facts: dict, expected: dict[str, float]) -> None:
    for metric, want in expected.items():
        if metric not in facts["scores"]:
            checks.expect(False, "confidence", f"{facts['label']} {metric} missing")
            continue
        raw, oriented = facts["scores"][metric]
        ok = math.isclose(raw, want, rel_tol=METRIC_RTOL, abs_tol=EPS)
        want_oriented = -want if metric in LOWER_IS_CONFIDENT else want
        ok = ok and math.isclose(oriented, want_oriented, rel_tol=METRIC_RTOL, abs_tol=EPS)
        checks.expect(ok, "confidence", f"{facts['label']} {metric}: got {raw!r} want {want!r}")


def argmax(values) -> int:
    best = 0
    for i, v in enumerate(values):
        if v > values[best]:
            best = i
    return best


def winner_facts(result, metric: str) -> tuple:
    """What the winner check needs from a confident result, without its records."""
    return (result.question_id, result.winner_index,
            [r.confidence[metric].oriented for r in result.records],
            result.answer, [r.completion for r in result.records])


def check_winner(checks: Checks, facts: tuple) -> None:
    question_id, winner_index, oriented, answer, completions = facts
    want = argmax(oriented)
    checks.expect(winner_index == want and answer == completions[want], "confident-winner",
                  f"{question_id}: got {winner_index} want {want}")


# ---------------------------------------------------------------------------
# report recount
# ---------------------------------------------------------------------------

def _mean(flags) -> float:
    flags = list(flags)
    return sum(flags) / len(flags)


def _number(text):
    try:
        return float(str(text).replace(",", ""))
    except ValueError:
        return None


def _graded(detail: dict, gold: str) -> bool:
    got, want = _number(detail["answer_value"]), _number(gold)
    if got is not None and want is not None:
        return math.isclose(got, want, rel_tol=1e-6, abs_tol=0.0)
    return detail["answer_value"] is not None and detail["answer_value"].strip() == gold.strip()


def _close(a, b) -> bool:
    return a is not None and b is not None and math.isclose(a, b, rel_tol=0, abs_tol=1e-12)


def check_report(checks: Checks, report: dict, model_ids: list[str], metric_names) -> None:
    """Recount every accuracy cell of report.json from its per-question detail."""
    qs = report["questions"]
    for q in qs:
        cells = [q["vanilla_llm"], *q["vanilla"].values(), *q["mixture"].values()]
        for cell in cells:
            checks.expect(cell["correct"] == _graded(cell, q["gold"]), "report-grading",
                          f"{q['id']}: {cell['answer_value']!r} vs gold {q['gold']!r}")
        for tag, per_metric in q["confident"].items():
            members = tag.split(",")
            for m in metric_names:
                oriented = [q["vanilla"][mid]["confidence"][m]["oriented"] for mid in members]
                want = argmax(oriented)
                got = per_metric[m]
                ok = (got["winner_index"] == want and got["winner_model"] == members[want]
                      and got["correct"] == q["vanilla"][members[want]]["correct"])
                checks.expect(ok, "report-confident-winner", f"{q['id']} {tag} {m}")

    llm = _mean(q["vanilla_llm"]["correct"] for q in qs)
    checks.expect(_close(report["vanilla_llm"]["accuracy"], llm), "report-cells", "vanilla_llm")
    per_model = {mid: _mean(q["vanilla"][mid]["correct"] for q in qs) for mid in model_ids}
    rag = _mean(per_model.values())
    vr = report["vanilla_rag"]
    ok = all(_close(vr["per_model"][mid], acc) for mid, acc in per_model.items())
    ok = ok and _close(vr["avg"], rag) and _close(vr["vs_vanilla_llm"], rag - llm)
    checks.expect(ok, "report-cells", "vanilla_rag")

    def combo_section(section: dict, per_combo: dict, name: str) -> None:
        by_n: dict[int, list] = {}
        for tag, acc in per_combo.items():
            by_n.setdefault(len(tag.split(",")), []).append(acc)
        overall = _mean(per_combo.values())
        ok = set(section["per_combination"]) == set(per_combo)
        ok = ok and all(_close(section["per_combination"][t], a) for t, a in per_combo.items())
        ok = ok and all(_close(section["avg_by_n"][str(n)], _mean(v)) for n, v in by_n.items())
        ok = ok and _close(section["avg"], overall)
        ok = ok and _close(section["vs_vanilla_llm"], overall - llm)
        ok = ok and _close(section["vs_vanilla_rag"], overall - rag)
        checks.expect(ok, "report-cells", name)

    tags = list(qs[0]["mixture"])
    combo_section(report["mixture"],
                  {t: _mean(q["mixture"][t]["correct"] for q in qs) for t in tags}, "mixture")
    for m in metric_names:
        combo_section(report["confident"][m],
                      {t: _mean(q["confident"][t][m]["correct"] for q in qs)
                       for t in qs[0]["confident"]}, f"confident/{m}")
