"""The benchmark's start-up probes run against this tree.

``perfbench/run.py`` runs ``ENV_PROBE`` and ``SETUP_PROBE`` in a fresh
interpreter before a workload's first operation; if either fails, every
operation of the run is lost.  They are read from the harness's source,
not imported, so this checks exactly the text the harness runs.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cfdetox.cli import main

ROOT = Path(__file__).resolve().parents[1]


def probe(name: str) -> str:
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/run.py defines no {name}")


def run_probe(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", probe(name), *args],
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    data = tmp_path_factory.mktemp("data")
    run = data / "run"
    assert main(["gen", "--seed", "1", "--out", str(data), "--n-train", "20", "--n-test", "5"]) == 0
    # 18 training examples in one batch: a 1-step checkpoint
    assert main(["train", "--data", str(data), "--out", str(run), "--epochs", "1", "--batch-size", "18",
                 "--hidden", "4", "--embed-dim", "4"]) == 0
    return data, run


def test_env_probe_reports_the_pure_backend():
    proc = run_probe("ENV_PROBE")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["backend"] == "pure"


def test_setup_probe_loads_a_corpus_and_checkpoint(tiny_run):
    data, run = tiny_run
    splits = [str(data / name) for name in ("test_flipped.jsonl", "test_iid.jsonl")]
    proc = run_probe("SETUP_PROBE", str(data / "lexicon.csv"), str(run), *splits)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "10"
