"""The 120-question sweep-5k ``eval`` writes pinned bytes.

The inputs are the benchmark's own: ``perfbench.inputs`` writes the
sweep-5k corpus, gold set and config at seed 7, and the eval is cut to
120 questions, and run twice into one output directory: on a cold store,
then on a warm one that holds the corpus snapshot and every matrix.
Every report file is pinned by its sha256, so any change
to a number, a key or the formatting of ``report.json``, ``tables.txt``
or a ``cdf_*.csv`` fails here. The digests were measured with numpy
2.4.6; a numpy upgrade or a change to ``perfbench.inputs`` that moves them
calls for re-pinning once the new bytes are understood.
"""

import hashlib
import json
import logging
from pathlib import Path

from multirag.cli import main

ROOT = Path(__file__).resolve().parent.parent

PINNED = {
    "report.json": "cb576220a56e10a091edcc414183de0386dc6b4a736392231aa1c28f4bd15086",
    "tables.txt": "9a831092c2adc2013fdb824ef77c12744a94338718ba5a004eac91930ea0731c",
    "cdf_avg-log-p.csv": "7487c77e13bf4d6040c61ee57f2539354a56b7d6445a800638cc5823ca4091ea",
    "cdf_dp.csv": "9516a93c332e1b1c57ad9d35c33c3341672975689c20e4f5e268909e7f4f7ccf",
    "cdf_entropy.csv": "fbcf39c9f466d6ed217bb712c4d42fa1cc9582ecd5b2418abfc17641af74f1a8",
    "cdf_gini.csv": "6a5a108e418d3c53d3559dcd9f3af52fe590a02c4dd3671a7aaf9bb1abcf131c",
    "cdf_self-certainty.csv":
        "f4b0cbed9acc1019bf288fbefb870de7d2378507bded979500e2c0b8f00b8014",
}


def test_sweep_5k_eval_writes_pinned_bytes(tmp_path, monkeypatch, capsys, caplog):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.inputs import write_config, write_inputs

    paths = write_inputs("sweep-5k", 7, tmp_path)
    config = Path(write_config("sweep-5k", 7, paths))
    data = json.loads(config.read_text(encoding="utf-8"))
    data["eval"]["max_questions"] = 120
    config.write_text(json.dumps(data), encoding="utf-8")
    outdir = tmp_path / "report"
    caplog.set_level(logging.DEBUG, logger="multirag.corpus")
    # the second eval reads the corpus snapshot and the stored matrices
    for state in ("cold", "warm"):
        caplog.clear()
        assert main(["eval", "--config", str(config), "--out", str(outdir)]) == 0
        if state == "warm":
            assert "from the corpus snapshot" in caplog.text
            assert "built the" not in caplog.text
        for name, pinned in PINNED.items():
            digest = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            assert digest == pinned, (
                f"{name} has sha256 {digest} on a {state} store, pinned {pinned}. If "
                f"numpy or perfbench.inputs changed, re-pin; otherwise the eval's "
                f"output changed.")
