"""Seeded input generator: corpus JSONL, gold JSONL and run config per workload.

The same seed writes the same files. Generation happens before any timer
starts; the program under test only ever sees the written files, which
it reads through ``Corpus.ingest`` and ``load_gold`` like any user input.

Two properties are built in on purpose:

- about 1 % of chunks repeat the text of an earlier chunk under a new id,
  so identical vectors produce exact score ties and the ingestion-order
  tie rule is exercised;
- every fifth question is the exact text of such a duplicated chunk, so
  its top hit is a tie at cosine 1.0 between the copies.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("Mia", "Sam", "Ava", "Leo", "Zoe", "Eli", "Ivy", "Max", "Ana", "Ben",
         "Kai", "Nia", "Omar", "Lena", "Raj", "Tess", "Hugo", "Yara", "Finn", "Dina")
ITEMS = ("stickers", "apples", "pencils", "marbles", "cookies", "books",
         "coins", "shells", "cards", "beads")


TEXTBOOK_EVERY = 10  # one chunk in ten is textbook, so both kind quotas bind
DUPLICATE_EVERY = 100


@dataclass(frozen=True)
class Sizes:
    chunks: int
    questions: int


SIZES = {
    "sweep-5k": Sizes(chunks=5_000, questions=1_000),
    "ask-cold-20k": Sizes(chunks=20_000, questions=200),
    "ask-remote": Sizes(chunks=2_000, questions=5_000),
}


def _qa_problem(rng: random.Random) -> tuple[str, int]:
    name, item = rng.choice(NAMES), rng.choice(ITEMS)
    a, b = rng.randint(2, 60), rng.randint(2, 40)
    form = rng.randrange(4)
    if form == 0:
        return f"{name} buys {a} packs of {b} {item}. How many {item} does {name} have?", a * b
    if form == 1:
        a += b
        return (f"{name} had {a} {item} and gave away {b}. "
                f"How many {item} are left?", a - b)
    if form == 2:
        return (f"{name} shares {a * b} {item} equally among {b} friends. "
                f"How many {item} does each friend get?", a)
    return f"{name} has {a} {item} and finds {b} more. How many {item} now?", a + b


def _textbook(rng: random.Random, n: int) -> str:
    a, b = rng.randint(2, 30), rng.randint(2, 30)
    form = rng.randrange(3)
    if form == 0:
        return f"Section {n}: multiplication counts equal groups; {a} groups of {b} make {a * b}."
    if form == 1:
        return (f"Section {n}: subtraction removes a part from a total; "
                f"{a + b} minus {b} leaves {a}.")
    return f"Section {n}: division splits a total into equal shares; {a * b} split {b} ways is {a}."


def make_corpus(rng: random.Random, sizes: Sizes) -> tuple[list[dict], list[str]]:
    """Chunk records in ingestion order, plus the qa texts that were duplicated."""
    chunks: list[dict] = []
    duplicated: list[str] = []
    for i in range(sizes.chunks):
        if i % DUPLICATE_EVERY == DUPLICATE_EVERY - 1:
            source = chunks[rng.randrange(len(chunks))]
            chunks.append({"id": f"c{i:06d}", "text": source["text"], "kind": source["kind"]})
            if source["kind"] == "qa":
                duplicated.append(source["text"])
            continue
        if i % TEXTBOOK_EVERY == 0:
            chunks.append({"id": f"c{i:06d}", "text": _textbook(rng, i), "kind": "textbook"})
        else:
            text, answer = _qa_problem(rng)
            chunks.append({"id": f"c{i:06d}", "text": f"{text} #### {answer}", "kind": "qa"})
    return chunks, duplicated


def make_gold(rng: random.Random, sizes: Sizes, duplicated: list[str]) -> list[dict]:
    gold = []
    for i in range(sizes.questions):
        if i % 5 == 4 and duplicated:
            text = rng.choice(duplicated)
            answer = text.rsplit("####", 1)[1].strip()
            gold.append({"id": f"q{i:05d}", "question": text, "answer": answer})
        else:
            text, answer = _qa_problem(rng)
            gold.append({"id": f"q{i:05d}", "question": text, "answer": str(answer)})
    return gold


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def write_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Write corpus.jsonl and gold.jsonl for one workload.

    Returns their paths and, for the oracles, the rows written.
    """
    sizes = SIZES[workload]
    rng = random.Random(f"{workload}:{seed}")
    chunks, duplicated = make_corpus(rng, sizes)
    gold = make_gold(rng, sizes, duplicated)
    workdir.mkdir(parents=True, exist_ok=True)
    corpus_path, gold_path = workdir / "corpus.jsonl", workdir / "gold.jsonl"
    _write_jsonl(corpus_path, chunks)
    _write_jsonl(gold_path, gold)
    return {"corpus": str(corpus_path), "gold": str(gold_path), "workdir": workdir,
            "chunks": chunks, "questions": gold}


def write_config(workload: str, seed: int, paths: dict,
                 endpoint: str | None = None) -> str:
    """Run config in the package's JSON schema; remote workloads need the stub URL."""
    cfg = {
        "corpus": [{"path": paths["corpus"], "kind": "qa"}],
        "gold_path": paths["gold"],
        "output_dir": str(paths["workdir"] / "out"),
        "seed": seed,
    }
    if workload == "sweep-5k":
        cfg["embedding"] = {"mode": "deterministic", "dimension": 32,
                            "models": ["det-a", "det-b", "det-c", "det-d"]}
        cfg["eval"] = {"pipelines": ["vanilla", "mixture", "confident"],
                       "combination_sizes": [2, 3, 4]}
    elif workload == "ask-cold-20k":
        cfg["embedding"] = {"mode": "deterministic", "dimension": 384,
                            "models": ["det-a", "det-b", "det-c", "det-d"]}
    else:
        cfg["embedding"] = {"mode": "remote", "endpoint": endpoint, "batch_size": 64,
                            "models": ["emb-a", "emb-b", "emb-c", "emb-d"]}
        cfg["backend"] = {"mode": "remote", "endpoint": endpoint, "model": "stub-llm",
                          "vocab_size": 32_000, "top_logprobs": 20}
    path = paths["workdir"] / "config.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)
