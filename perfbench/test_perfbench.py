"""Self-tests of the benchmark:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aggregate
import inputs
import run
import tracer

HERE = Path(__file__).resolve().parent


def _cli(args: list[str], cwd: Path, trace_prefix: Path | None = None) -> None:
    if trace_prefix is None:
        argv = [sys.executable, "-c", run.CLI, *args]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(trace_prefix), "--", *args]
    subprocess.run(argv, cwd=cwd, env=run.child_env(), check=True, capture_output=True, timeout=300)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("corpus") / "data"
    _cli(["gen", "--seed", "3", "--out", str(out), "--n-train", "120", "--n-test", "30"], out.parent)
    return out


def _patched_attributes():
    """Every (owner, attribute) the tracer patches, found by installing it."""
    t = tracer.Tracer()
    tracer.install(t)
    patched = list(t._patched)
    t.restore()
    return patched


def test_tracer_restores_every_patched_attribute():
    before = {(id(owner), attr): raw for owner, attr, raw in _patched_attributes()}
    t = tracer.Tracer()
    tracer.install(t)
    try:
        assert len(t._patched) == len(before) > 60
        for owner, attr, raw in t._patched:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert current is not raw, f"{owner.__name__}.{attr} was not patched"
    finally:
        t.restore()
    for owner, attr, _ in _patched_attributes():
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is before[(id(owner), attr)], f"{owner.__name__}.{attr} not restored"
    for module in [m for name, m in sys.modules.items() if name.startswith("cfdetox")]:
        for name, value in vars(module).items():
            assert not hasattr(value, "__wrapped__"), f"{module.__name__}.{name} is still wrapped"


def test_traced_and_untraced_runs_write_the_same_checkpoint(small_corpus, tmp_path):
    flags = ["--epochs", "1", "--lx", "16", "--hidden", "16", "--embed-dim", "8"]
    _cli(["train", "--data", str(small_corpus), "--out", str(tmp_path / "plain"), *flags], tmp_path)
    _cli(["train", "--data", str(small_corpus), "--out", str(tmp_path / "traced"), *flags], tmp_path,
         trace_prefix=tmp_path / "spans")
    plain = (tmp_path / "plain" / "model.bin").read_bytes()
    assert plain == (tmp_path / "traced" / "model.bin").read_bytes()
    spans = aggregate.SpanFile.load(tmp_path / "spans")
    assert spans.rows("optim.adamw_step").sum() == 14  # ceil(108 / 8) steps
    assert spans.counters["autodiff.closures"] > 0


def test_long_corpus_is_deterministic_and_in_range(small_corpus, tmp_path):
    inputs.lengthen_corpus(small_corpus, tmp_path / "a", seed=5)
    inputs.lengthen_corpus(small_corpus, tmp_path / "b", seed=5)
    inputs.lengthen_corpus(small_corpus, tmp_path / "c", seed=6)
    for split in inputs.SPLITS:
        a = (tmp_path / "a" / f"{split}.jsonl").read_bytes()
        assert a == (tmp_path / "b" / f"{split}.jsonl").read_bytes()
        assert a != (tmp_path / "c" / f"{split}.jsonl").read_bytes()

    fillers = set(inputs.filler_words())
    assert len(fillers) == inputs.LONG_FILLER_WORDS == 3000
    stock_rows = inputs.read_jsonl(small_corpus / "train.jsonl")
    long_rows = inputs.read_jsonl(tmp_path / "a" / "train.jsonl")
    stock_words = {w for row in stock_rows for w in row["text"].split()}
    assert not stock_words & fillers
    lo, hi = inputs.LONG_FILLER_COUNT
    for stock, long in zip(stock_rows, long_rows):
        words = long["text"].split()
        n_filler = sum(w in fillers for w in words)
        assert lo <= n_filler <= hi
        assert sorted(w for w in words if w not in fillers) == sorted(stock["text"].split())
        assert long["label"] == stock["label"]
        assert len(words) <= 128  # fits the stock lx, so truncation never drops a context word


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == aggregate.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_self_time_and_rollup_from_hand_made_spans(tmp_path):
    names = ["cli.main", "model.encode", "autodiff.affine", "autodiff.affine.bwd", "optim.adamw_step"]
    enc, other, opt = (tracer.BUCKETS.index(b) for b in ("encoder", "other", "optimizer"))
    spans = np.array([
        [0, 0, 100, -1, other],     # cli.main: 100 ns, self 100 - 60 - 20 - 10 = 10
        [1, 10, 70, 0, enc],        # model.encode: 60 ns, self 60 - 40 = 20
        [2, 20, 60, 1, enc],        # affine forward: 40 ns
        [3, 70, 90, 0, enc],        # affine backward, charged to the encoder: 20 ns
        [4, 90, 100, 0, opt],       # optimizer step: 10 ns
    ])
    np.save(tmp_path / "s.npy", spans)
    (tmp_path / "s.json").write_text(json.dumps({"names": names, "counters": {}, "wall_ns": 125}))
    f = aggregate.SpanFile.load(tmp_path / "s")
    assert f.self_times().tolist() == pytest.approx([10e-9, 20e-9, 40e-9, 20e-9, 10e-9])
    out = aggregate.per_layer([f], {}, traced_wall_s=2.0, untraced_wall_s=1.6)
    assert out["rollup.encoder.s"] == pytest.approx(80e-9)
    assert out["rollup.optimizer.s"] == pytest.approx(10e-9)
    assert out["rollup.other.s"] == pytest.approx(10e-9)
    assert out["rollup.backward.s"] == 0
    assert out["model.encode.s"] == pytest.approx(60e-9)
    assert out["autodiff.affine.fwd_s"] == pytest.approx(40e-9)
    assert out["autodiff.affine.bwd_s"] == pytest.approx(20e-9)
    assert out["optim.adamw_step.s"] == pytest.approx(10e-9)
    assert out["trace.coverage"] == pytest.approx(100 / 125)
    assert out["trace.overhead"] == pytest.approx(0.25)


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-stock", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60, env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
