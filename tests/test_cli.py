import ast
import json
import logging
import re
import subprocess
import sys
from pathlib import Path

import pytest

from multirag.cli import main


def write_corpus(tmp_path: Path, n=8) -> Path:
    path = tmp_path / "corpus.jsonl"
    rows = [{"id": f"c{i}", "text": f"Ann kept {i} coins and found {i + 2} more. "
                                    f"#### {2 * i + 2}", "kind": "qa"}
            for i in range(n)]
    rows.append({"id": "tb0", "text": "Addition combines counts.", "kind": "textbook"})
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


def write_gold(tmp_path: Path, n=6) -> Path:
    path = tmp_path / "gold.jsonl"
    rows = [{"id": f"q{i}", "question": f"Ben saw {i} birds and then {i + 3} more.",
             "answer": str(2 * i + 3)} for i in range(n)]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


def write_config(tmp_path: Path, **extra) -> Path:
    cfg = {
        "embedding": {"models": ["det-a", "det-b", "det-c"]},
        "retrieval": {"k": 2, "quotas": None},
        "eval": {"combination_sizes": [2, 3]},
        "corpus": [{"path": str(write_corpus(tmp_path)), "kind": "qa"}],
        "gold_path": str(write_gold(tmp_path)),
        "output_dir": str(tmp_path / "out"),
        "seed": 7,
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


class TestIngest:
    def test_valid_file_prints_counts(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        assert main(["ingest", str(corpus), "--kind", "qa"]) == 0
        out = capsys.readouterr().out
        assert "9 chunk(s) ingested" in out
        assert "total: 9" in out

    def test_bad_line_nonzero_exit_with_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "ok"}\n{broken\n')
        assert main(["ingest", str(path)]) == 1
        err = capsys.readouterr().err
        assert ":2:" in err

    def test_two_files_per_kind_totals(self, tmp_path, capsys):
        qa = write_corpus(tmp_path)
        tb = tmp_path / "book.txt"
        tb.write_text("chapter one\n\nchapter two\n")
        assert main(["ingest", str(qa), str(tb), "--kind", "qa"]) == 0
        out = capsys.readouterr().out
        # the .txt file takes the --kind default; jsonl lines carry their own
        assert "kind qa: 10" in out
        assert "kind textbook: 1" in out


class TestAsk:
    def test_stable_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["ask", "Cora has 2 bags of 3 apples.", "--config", str(cfg),
                     "--pipeline", "confident"]) == 0
        first = capsys.readouterr().out
        assert main(["ask", "Cora has 2 bags of 3 apples.", "--config", str(cfg),
                     "--pipeline", "confident"]) == 0
        assert capsys.readouterr().out == first
        assert "####" in first

    def test_manifest_honors_flags(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        outdir = tmp_path / "ask-out"
        assert main(["ask", "How many?", "--config", str(cfg),
                     "--pipeline", "confident", "--metric", "dp",
                     "--out", str(outdir)]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["pipeline"] == "confident"
        assert manifest["metric"] == "dp"
        answer = json.loads((outdir / "answer.json").read_text())
        assert answer["pipeline"] == "confident"

    def test_out_is_the_output_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        hashes = []
        for name in ("d1", "d2"):
            outdir = tmp_path / name
            assert main(["ask", "How many?", "--config", str(cfg), "--out", str(outdir)]) == 0
            manifest = json.loads((outdir / "manifest.json").read_text())
            assert json.loads((outdir / "answer.json").read_text())["pipeline"] == "confident"
            assert len(list((outdir / "index").glob("*.npy"))) == 3  # one per model
            hashes.append(manifest["config_hash"])
        assert hashes[0] != hashes[1]  # output_dir is part of the hashed config
        assert not (tmp_path / "out").exists()

    def test_out_writes_what_the_cli_built(self, tmp_path, capsys, monkeypatch):
        """manifest.json and answer.json read back to the dicts the CLI
        built; non-ASCII text is written as UTF-8, and --verbose prints the
        manifest file's text."""
        from multirag import evaluation

        built = []
        write = evaluation.json_bytes
        monkeypatch.setattr(evaluation, "json_bytes", lambda obj: built.append(obj) or write(obj))
        cfg = write_config(tmp_path)
        outdir = tmp_path / "ask-out"
        question = "Zoë hat 3 Äpfel und 4 Birnen – wie viele Früchte? 中 \u2028 😀"
        assert main(["ask", question, "--config", str(cfg), "--out", str(outdir),
                     "--verbose"]) == 0
        printed, manifest, answer = built
        assert printed is manifest
        assert answer["question"] == question and manifest["pipeline"] == "confident"
        for name, obj in (("manifest.json", manifest), ("answer.json", answer)):
            assert json.loads((outdir / name).read_bytes()) == obj
        assert question.encode("utf-8") in (outdir / "answer.json").read_bytes()
        text = (outdir / "manifest.json").read_text(encoding="utf-8")
        assert f"--- manifest\n{text}" in capsys.readouterr().out

    def test_verbose_shows_index_build_then_load(self, tmp_path, capsys, caplog):
        cfg = write_config(tmp_path)
        caplog.set_level(logging.DEBUG, logger="multirag.corpus")
        args = ["ask", "How many?", "--config", str(cfg), "--verbose"]
        assert main(args) == 0
        assert caplog.text.count("built the 9 x 32 corpus matrix") == 3
        caplog.clear()
        assert main(args) == 0
        assert caplog.text.count("loaded the 9 x 32 corpus matrix") == 3
        assert "built the" not in caplog.text

    def test_unwritable_output_dir_still_answers(self, tmp_path, capsys, caplog):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the output directory should be")
        cfg = write_config(tmp_path, output_dir=str(blocked))
        assert main(["ask", "How many?", "--config", str(cfg)]) == 0
        assert "####" in capsys.readouterr().out
        assert "could not store the corpus matrix" in caplog.text

    def test_k_zero_is_bare_llm(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["ask", "Just the question.", "--config", str(cfg),
                     "--pipeline", "vanilla", "--models", "det-a", "--k", "0",
                     "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "retrieved: []" in out

    def test_malformed_quota_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["ask", "q", "--config", str(cfg), "--k", "0", "--quota", "qa=x"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--quota expects kind=count, got 'qa=x'" in err
        assert "Traceback" not in err

    def test_quotas_reach_the_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        outdir = tmp_path / "ask-out"
        assert main(["ask", "How many?", "--config", str(cfg), "--pipeline", "vanilla",
                     "--models", "det-a", "--quota", "qa=1", "--quota", "textbook=1",
                     "--verbose", "--out", str(outdir)]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["quotas"] == {"qa": 1, "textbook": 1}

    def test_missing_template_is_a_config_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        cfg = write_config(tmp_path, retrieval={"k": 2, "template_path": str(missing)})
        assert main(["ask", "How many?", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: retrieval.template_path {str(missing)!r} cannot be read")

    def test_vanilla_needs_single_model(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["ask", "q", "--config", str(cfg),
                     "--pipeline", "vanilla"]) == 1

    def test_unknown_model_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["ask", "q", "--config", str(cfg),
                     "--pipeline", "mixture", "--models", "not-there"]) == 1

    @pytest.mark.parametrize("pipeline", ["mixture", "confident"])
    def test_repeated_model_rejected(self, tmp_path, capsys, pipeline):
        cfg = write_config(tmp_path)
        assert main(["ask", "q", "--config", str(cfg), "--pipeline", pipeline,
                     "--models", "det-a,det-a"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: embedding model 'det-a' is listed more than once\n"

    def test_verbose_prints_scores_and_winner(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["ask", "Dara folds 4 cranes per day for 2 days.",
                     "--config", str(cfg), "--pipeline", "confident",
                     "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "winner index" in out
        assert "self-certainty: raw=" in out


class TestEval:
    def test_full_run_writes_all_files(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["eval", "--config", str(cfg)]) == 0
        outdir = tmp_path / "out"
        report = json.loads((outdir / "report.json").read_text())
        assert report["vanilla_llm"]["accuracy"] is not None
        assert (outdir / "tables.txt").read_text()
        assert json.loads((outdir / "manifest.json").read_text())["seed"] == 7
        for metric in ("avg-log-p", "self-certainty", "gini", "entropy", "dp"):
            assert (outdir / f"cdf_{metric}.csv").exists()

    def test_cdf_reports_take_the_records_ungraded(self, tmp_path, monkeypatch):
        """aggregate grades every record; the CDF reports must not grade again."""
        from multirag import evaluation

        def graded_twice(*args):
            raise AssertionError("vanilla records graded a second time")

        monkeypatch.setattr(evaluation, "vanilla_records_with_correctness", graded_twice)
        cfg = write_config(tmp_path)
        assert main(["eval", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "cdf_dp.csv").read_text().count("\n") > 1

    def test_lone_surrogate_id_takes_the_stdlib_writer(self, tmp_path, capsys):
        """orjson refuses a lone surrogate, so report.json is json.dumps' text,
        and it reads back with the id and renders the same tables."""
        cfg = write_config(tmp_path)
        gold = Path(json.loads(cfg.read_text())["gold_path"])
        rows = [json.loads(line) for line in gold.read_text().splitlines()]
        rows[1]["id"] = "q\ud800"
        gold.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert main(["eval", "--config", str(cfg)]) == 0
        outdir = tmp_path / "out"
        data = (outdir / "report.json").read_bytes()
        report = json.loads(data)
        assert data == (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("ascii")
        assert "q\ud800" in [q["id"] for q in report["questions"]]
        assert main(["report", str(outdir / "report.json"),
                     "--out", str(tmp_path / "again")]) == 0
        assert ((tmp_path / "again" / "tables.txt").read_bytes()
                == (outdir / "tables.txt").read_bytes())

    def test_a_lone_surrogate_question_is_embedded(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        gold = Path(json.loads(cfg.read_text())["gold_path"])
        rows = [json.loads(line) for line in gold.read_text().splitlines()]
        rows[2]["question"] = "How \ud800 many?"
        gold.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert main(["eval", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["questions"]) == len(rows)
        assert main(["ask", "How \ud800 many?", "--config", str(cfg)]) == 0

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["eval", "--config", str(cfg), "--out",
                     str(tmp_path / "r1")]) == 0
        assert main(["eval", "--config", str(cfg), "--out",
                     str(tmp_path / "r2")]) == 0
        for name in ["report.json", "tables.txt", "cdf_dp.csv",
                     "cdf_self-certainty.csv"]:
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b, f"{name} differs between reruns"

    def test_rerun_into_one_output_dir_loads_the_index(self, tmp_path, caplog):
        cfg = write_config(tmp_path)
        outdir = tmp_path / "out"
        names = ["report.json", "tables.txt"] + [
            f"cdf_{m}.csv" for m in ("avg-log-p", "self-certainty", "gini", "entropy", "dp")]
        caplog.set_level(logging.DEBUG, logger="multirag.corpus")
        assert main(["eval", "--config", str(cfg)]) == 0
        first = {name: (outdir / name).read_bytes() for name in names}
        assert caplog.text.count("built the") == 3
        caplog.clear()
        assert main(["eval", "--config", str(cfg)]) == 0
        assert caplog.text.count("loaded the") == 3 and "built the" not in caplog.text
        for name in names:
            assert (outdir / name).read_bytes() == first[name], f"{name} differs on rerun"

    def test_accuracy_cells_match_recount(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["eval", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        for mid, acc in report["vanilla_rag"]["per_model"].items():
            flags = [q["vanilla"][mid]["correct"] for q in report["questions"]]
            assert acc == pytest.approx(sum(flags) / len(flags))
        for metric, section in report["confident"].items():
            for tag, acc in section["per_combination"].items():
                flags = [q["confident"][tag][metric]["correct"]
                         for q in report["questions"]]
                assert acc == pytest.approx(sum(flags) / len(flags))

    def test_gold_required(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gold_path=None)
        assert main(["eval", "--config", str(cfg)]) == 1

    def test_missing_gold_file_is_an_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gold_path=str(tmp_path / "missing.jsonl"))
        assert main(["eval", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.jsonl:0: unreadable file" in err

    @pytest.mark.parametrize("section,key,value", [
        ("eval", "cdf_sigma", "1"), ("eval", "cdf_sigma", True),
        ("eval", "cdf_sigma", -0.5), ("eval", "cdf_sigma", float("nan")),
        ("eval", "cdf_sigma", float("inf")), ("eval", "cdf_sigma", 100.5),
        ("eval", "cdf_sigma", 1e7), ("eval", "cdf_sigma", 1e308),
        ("retrieval", "k", 2.5), ("retrieval", "k", "3"), ("retrieval", "k", True),
        ("embedding", "dimension", "8"), ("embedding", "dimension", 0),
        ("embedding", "dimension", 8.0), ("embedding", "dimension", True),
        ("eval", "max_questions", -1), ("eval", "max_questions", 0),
        ("eval", "max_questions", 2.5), ("eval", "max_questions", True),
        ("embedding", "models", [""]), ("embedding", "models", ["a,b", "c", "d"]),
        ("embedding", "models", "abc"), ("embedding", "models", [["a"], "b"]),
        ("embedding", "models", ["a", "b", "a"]),
        ("eval", "combination_sizes", 2), ("eval", "pipelines", 5),
        ("eval", "pipelines", "vanilla"), ("eval", "include_vanilla_llm", "no"),
        ("eval", "include_vanilla_llm", 1), ("retrieval", "quotas", [1]),
        ("retrieval", "template_path", 5), ("backend", "max_tokens", "x"),
        ("backend", "max_tokens", 0), ("backend", "vocab_size", "abc"),
        ("backend", "vocab_size", 0), ("backend", "top_logprobs", -1),
        ("backend", "top_logprobs", 2.0), ("backend", "temperature", -0.5),
        ("backend", "temperature", "0"), ("backend", "temperature", float("nan")),
        ("backend", "temperature", float("inf")), ("embedding", "batch_size", 0),
        ("embedding", "batch_size", "64"),
    ])
    def test_bad_number_rejected_before_any_work(self, tmp_path, capsys,
                                                 section, key, value):
        cfg = write_config(tmp_path)
        data = json.loads(cfg.read_text())
        data.setdefault(section, {})[key] = value
        cfg.write_text(json.dumps(data))
        assert main(["eval", "--config", str(cfg)]) == 1
        assert f"error: {section}.{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value,rule", [
        ("corpus", 5, "corpus must be a list"),
        ("corpus", {"path": "corpus.jsonl"}, "corpus must be a list"),
        ("corpus", [{"path": 5}], "corpus entry 'path' must be a non-empty string"),
        ("output_dir", 5, "output_dir must be a non-empty string"),
        ("output_dir", "", "output_dir must be a non-empty string"),
        ("gold_path", 5, "gold_path must be null or a string"),
        ("gold_path", ["gold.jsonl"], "gold_path must be null or a string"),
    ])
    def test_bad_top_level_value_rejected_before_any_work(self, tmp_path, capsys,
                                                          key, value, rule):
        cfg = write_config(tmp_path, **{key: value})
        assert main(["eval", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {rule}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "corpus.jsonl", "gold.jsonl"]

    def test_gold_line_without_answer_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps({"id": "q0", "question": "Ben saw 2 birds."}) + "\n")
        assert main(["eval", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {gold}:1: missing 'answer'\n"

    def test_question_limit_and_integer_sigma(self, tmp_path):
        cfg = write_config(tmp_path)
        data = json.loads(cfg.read_text())
        data["eval"].update(max_questions=2, cdf_sigma=2)
        cfg.write_text(json.dumps(data))
        assert main(["eval", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [q["id"] for q in report["questions"]] == ["q0", "q1"]

    def test_largest_sigma_accepted(self, tmp_path):
        cfg = write_config(tmp_path)
        data = json.loads(cfg.read_text())
        data["eval"].update(max_questions=2, cdf_sigma=100)
        cfg.write_text(json.dumps(data))
        assert main(["eval", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "cdf_dp.csv").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seeed": 3}))
        assert main(["eval", "--config", str(path)]) == 1
        assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["corpus", "gold", "template"])
def test_non_utf8_file_is_named(tmp_path, capsys, which):
    cfg = write_config(tmp_path)
    data = json.loads(cfg.read_text())
    path = Path(data["corpus"][0]["path"] if which == "corpus" else data["gold_path"])
    if which == "template":
        path = tmp_path / "template.txt"
        path.write_text("Answer briefly.\r\n{{references}}\r\nQ: {{question}}\r\n")
        data["retrieval"]["template_path"] = str(path)
        cfg.write_text(json.dumps(data))
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b" ", b" \xe9", 1)  # latin-1 for "é"
    path.write_bytes(b"\n".join(lines))
    command = "eval" if which == "gold" else "ask"
    args = [command, "How many?"] if command == "ask" else [command]
    assert main([*args, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    if which == "template":
        assert err.startswith(f"error: retrieval.template_path {str(path)!r} is not valid UTF-8")
    else:
        assert err.startswith(f"error: {path}:3: not valid UTF-8: byte 0xe9 at offset ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["ask", "eval"])
def test_non_utf8_config_is_named(tmp_path, capsys, command):
    cfg = write_config(tmp_path)
    cfg.write_bytes(cfg.read_bytes().replace(b"det-a", b"d\xe9t-a", 1))
    args = [command, "How many?"] if command == "ask" else [command]
    assert main([*args, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg} is not valid UTF-8: ")
    assert "0xe9" in err and "Traceback" not in err


DEEP = "[" * 5000 + "]" * 5000  # beyond the stdlib decoder's depth, about 1000


@pytest.mark.parametrize("command, which", [("ingest", "corpus"), ("ask", "corpus"),
                                            ("eval", "corpus"), ("eval", "gold")])
def test_deeply_nested_line_is_named(tmp_path, capsys, command, which):
    cfg = write_config(tmp_path)
    data = json.loads(cfg.read_text())
    path = Path(data["corpus"][0]["path"] if which == "corpus" else data["gold_path"])
    lines = path.read_text().splitlines()
    lines[2] = DEEP
    path.write_text("\n".join(lines) + "\n")
    args = {"ingest": ["ingest", str(path)],
            "ask": ["ask", "How many?", "--config", str(cfg)],
            "eval": ["eval", "--config", str(cfg)]}[command]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:3: invalid JSON: maximum recursion depth exceeded")
    assert "Traceback" not in err


class TestReport:
    def test_rerender_tables(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["eval", "--config", str(cfg)]) == 0
        capsys.readouterr()
        report_path = tmp_path / "out" / "report.json"
        assert main(["report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "Vanilla LLM and vanilla RAG" in out
        rendered = (tmp_path / "out" / "tables.txt").read_text()
        assert out.strip().splitlines()[0] == rendered.strip().splitlines()[0]

    def test_missing_report(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("text", [
        "[]", '{"vanilla_rag": 5}', '{"mixture": "x"}', '{"confident": {"dp": 3}}',
        '{"vanilla_rag": {"per_model": []}}', '{"vanilla_llm": {}, "vanilla_rag": {"avg": 1}}'])
    def test_a_report_of_another_shape(self, tmp_path, capsys, text):
        path = tmp_path / "report.json"
        path.write_text(text)
        assert main(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not a multirag report (")
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_a_report_path_that_is_a_directory(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot read {tmp_path}: Is a directory\n"

    def test_deeply_nested_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(DEEP)
        assert main(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not valid JSON: maximum recursion depth")
        assert "Traceback" not in err


def test_cli_import_skips_scipy_and_requests():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, multirag.cli; "
            "print(sorted(m for m in ('scipy', 'requests', 'orjson') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"


def test_eval_never_imports_scipy(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    cfg = write_config(tmp_path)
    code = ("import sys; from multirag.cli import main; "
            f"rc = main(['eval', '--config', {str(cfg)!r}]); "
            "print(rc, 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(src)}).stdout
    assert out.strip().splitlines()[-1] == "0 False"


def test_dependencies_name_exactly_the_imported_third_party_modules():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[\s<>=!~\[;]", req, maxsplit=1)[0].lower().replace("-", "_")
                for req in project["dependencies"]}
    imported = set()
    for path in (root / "src" / "multirag").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"multirag"}
    assert declared == third_party
