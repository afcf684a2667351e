import argparse
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfdetox
from cfdetox import cli
from cfdetox import data as D
from cfdetox import training as T
from cfdetox.checkpoint import load_arrays, save_arrays
from cfdetox.cli import _load_checkpoint, _parse_config_file, main
from cfdetox.data import SEP_ID, UNK_ID, CorpusEncoder, Vocab, encode_batch, load_jsonl
from cfdetox.errors import CfDetoxError
from cfdetox.lexicon import Lexicon, load_lexicon, match_biased_tokens
from cfdetox.metrics import Confusion
from helpers import checkpoint_bytes, sentences_of


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main(["gen", "--seed", "3", "--out", str(out),
               "--spurious-rate", "0.9", "--n-train", "120", "--n-test", "40"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("runs") / "run"
    rc = main(["train", "--data", str(corpus_dir), "--out", str(out),
               "--epochs", "1", "--batch-size", "4", "--learning-rate", "1e-3",
               "--hidden", "8", "--embed-dim", "8", "--lx", "12", "--lb", "4",
               "--eval-every-steps", "10", "--seed", "1"])
    assert rc == 0
    return out


def test_gen_writes_five_files(corpus_dir):
    for name in ("train.jsonl", "valid.jsonl", "test_iid.jsonl", "test_flipped.jsonl", "lexicon.csv"):
        assert (corpus_dir / name).exists()
    train = load_jsonl(corpus_dir / "train.jsonl")
    valid = load_jsonl(corpus_dir / "valid.jsonl")
    assert len(train) == 108 and len(valid) == 12  # 10% valid carve
    assert len(load_jsonl(corpus_dir / "test_iid.jsonl")) == 40
    assert load_lexicon(corpus_dir / "lexicon.csv").entries


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen", "--seed", "9", "--out", str(out),
                     "--n-train", "50", "--n-test", "10"]) == 0
    for name in ("train.jsonl", "valid.jsonl", "test_iid.jsonl", "test_flipped.jsonl", "lexicon.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_rejects_out_of_range_rate(tmp_path, capsys):
    rc = main(["gen", "--out", str(tmp_path / "x"), "--spurious-rate", "1.2"])
    assert rc == 1
    assert "spurious_rate" in capsys.readouterr().err


def test_gen_reports_cooccurrence_near_half(tmp_path, capsys):
    assert main(["gen", "--seed", "2", "--out", str(tmp_path / "h"),
                 "--spurious-rate", "0.5", "--n-train", "2000", "--n-test", "10"]) == 0
    out = capsys.readouterr().out
    train_line = [l for l in out.splitlines() if l.strip().startswith("train:")][0]
    rate = float(train_line.rsplit("=", 1)[1])
    assert 0.45 <= rate <= 0.55


def _run_cli(*argv, cwd, **env_vars):
    env = dict(os.environ, PYTHONPATH=str(Path(cfdetox.__file__).parents[1]), **env_vars)
    return subprocess.run([sys.executable, "-m", "cfdetox.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True)



def test_training_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 110 filler words per sentence give the encoder's weight gradient about
    # 8 x 115 rows per step, a reduction OpenBLAS splits differently on one
    # thread than on two unless it is summed in short in-order products
    assert _run_cli("gen", "--seed", "5", "--out", "data", "--n-train", "40", "--n-test", "10",
                    cwd=tmp_path).returncode == 0
    rng = np.random.default_rng(0)
    words = np.array(["".join(w) for w in itertools.product("bdfgklmnpr", "aeiou", "stvz")])
    for path in (tmp_path / "data").glob("*.jsonl"):
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        for row in rows:
            tokens = row["text"].split() + list(rng.choice(words, size=110))
            rng.shuffle(tokens)
            row["text"] = " ".join(tokens)
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    checkpoints = []
    for threads in ("1", "2"):
        proc = _run_cli("train", "--data", "data", "--out", f"run{threads}", "--epochs", "1",
                        cwd=tmp_path, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        checkpoints.append((tmp_path / f"run{threads}" / "model.bin").read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_gen_split_without_toxic_example_prints_na(tmp_path):
    # a one-example test split holds no toxic example: P(bias | toxic) is undefined
    proc = _run_cli("gen", "--out", "d", "--n-train", "20", "--n-test", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "P(zorp | toxic) = n/a" in proc.stdout


def test_gen_rejects_too_small_train_split(tmp_path):
    for flag, value, message in (("--n-train", "1", "error: --n-train must be >= 2"),
                                 ("--n-test", "0", "error: --n-test must be >= 1, got 0")):
        proc = _run_cli("gen", "--out", "d", flag, value, cwd=tmp_path)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(message), proc.stderr
        assert not (tmp_path / "d").exists()


def test_stats_table(corpus_dir, capsys):
    rc = main(["stats", "--data", str(corpus_dir / "train.jsonl"),
               "--lexicon", str(corpus_dir / "lexicon.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Token" in out and "Ratio (%)" in out
    assert "zorp" in out


def test_stats_row_values(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    rows = [{"text": "t here", "label": 1}] * 3 + [{"text": "t there", "label": 0}]
    data.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    lex = tmp_path / "lex.csv"
    lex.write_text("t,OnI\nabsent,nOI\n", encoding="utf-8")
    assert main(["stats", "--data", str(data), "--lexicon", str(lex)]) == 0
    out = capsys.readouterr().out
    row = [l for l in out.splitlines() if l.startswith("t ")][0].split()
    assert row == ["t", "3", "1", "75.00"]
    assert "1 lexicon token(s) with no occurrences omitted" in out


def test_stats_missing_file_is_io_error(tmp_path, capsys):
    rc = main(["stats", "--data", str(tmp_path / "nope.jsonl"), "--lexicon", str(tmp_path / "nope.csv")])
    assert rc == 2


def test_train_writes_run_artifacts(run_dir):
    assert (run_dir / "model.bin").exists()
    assert (run_dir / "vocab.txt").exists()
    assert (run_dir / "loss.csv").exists()
    config = (run_dir / "config.txt").read_text(encoding="utf-8")
    assert "mode=ccdf" in config and "learning_rate=0.001" in config
    assert len(config.splitlines()) == 12  # one line per train flag
    header = (run_dir / "loss.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "step,loss_f,loss_e,loss_x,loss_b,val_f1"


def test_train_loss_csv_lines_end_in_newline_only(run_dir):
    raw = (run_dir / "loss.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n") and raw.count(b"\n") > 1


def test_train_unknown_mode_usage_error(corpus_dir, tmp_path, capsys):
    rc = main(["train", "--data", str(corpus_dir), "--out", str(tmp_path / "r"),
               "--mode", "bogus"])
    assert rc == 1
    err = capsys.readouterr().err
    for mode in ("ccdf", "masking", "lmixin", "vanilla"):
        assert mode in err


def test_train_config_file_and_flag_precedence(corpus_dir, tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("epochs=1\nbatch_size=4\nhidden=8\nembed_dim=8\nlx=12\nlb=4\n"
                   "eval_every_steps=50\nlearning_rate=0.01\n", encoding="utf-8")
    out = tmp_path / "run"
    rc = main(["train", "--data", str(corpus_dir), "--out", str(out),
               "--config", str(cfg), "--learning-rate", "1e-3"])
    assert rc == 0
    echoed = (out / "config.txt").read_text(encoding="utf-8")
    assert "learning_rate=0.001" in echoed  # flag beat the file
    assert "epochs=1" in echoed


def test_config_file_skips_leading_byte_order_mark(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("\ufeffepochs=2\n", encoding="utf-8")
    assert _parse_config_file(cfg) == {"epochs": 2}


def test_train_config_key_given_twice_is_validation_error(corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("epochs=1\n# again\nepochs=2\n", encoding="utf-8")
    out = tmp_path / "r"
    rc = main(["train", "--data", str(corpus_dir), "--out", str(out), "--config", str(cfg), *TINY_TRAIN[2:]])
    assert rc == 1
    _assert_one_line_error(capsys, f"{cfg}:3: config key 'epochs' repeats line 1")
    assert not out.exists()


def test_train_unknown_config_key(corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("warp_speed=9\n", encoding="utf-8")
    rc = main(["train", "--data", str(corpus_dir), "--out", str(tmp_path / "r"),
               "--config", str(cfg)])
    assert rc == 1
    assert "warp_speed" in capsys.readouterr().err


TINY_TRAIN = ["--epochs", "1", "--batch-size", "4", "--hidden", "8", "--embed-dim", "8",
              "--lx", "12", "--lb", "4", "--eval-every-steps", "50"]


@pytest.mark.parametrize("line", [
    "learning_rate=nan", "learning_rate=inf",
    "beta1=1.0", "beta1=-0.1", "beta2=1.0", "beta2=nan",
    "eps=-1", "eps=0", "eps=inf",
    "weight_decay=nan", "weight_decay=inf", "weight_decay=-0.01",
])
def test_train_rejects_bad_optimizer_config(corpus_dir, tmp_path, capsys, line):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n", encoding="utf-8")
    rc = main(["train", "--data", str(corpus_dir), "--out", str(tmp_path / "r"),
               "--config", str(cfg), *TINY_TRAIN])
    assert rc == 1
    err = capsys.readouterr().err
    key, value = line.split("=")
    if key in cli.RETIRED_KEYS:  # AdamW's constants load only at their fixed values
        expected = f"error: {cfg}:1: config key {key}={value!r}: AdamW's {key} is fixed at "
    else:
        expected = "error: " + key
    assert len(err.splitlines()) == 1 and err.startswith(expected)


@pytest.mark.parametrize("flag,value", [
    ("--learning-rate", "nan"), ("--learning-rate", "inf"),
    ("--weight-decay", "nan"), ("--weight-decay", "-1"),
])
def test_train_rejects_bad_optimizer_flag(corpus_dir, tmp_path, capsys, flag, value):
    rc = main(["train", "--data", str(corpus_dir), "--out", str(tmp_path / "r"),
               *TINY_TRAIN, flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: " + flag[2:].replace("-", "_"))


def test_eval_writes_report_and_table(run_dir, corpus_dir, capsys):
    rc = main(["eval", "--checkpoint", str(run_dir / "model.bin"),
               "--data", str(corpus_dir / "test_iid.jsonl"),
               "--lexicon", str(corpus_dir / "lexicon.csv"),
               "--inference", "tie"])
    assert rc == 0
    out = capsys.readouterr().out
    report_path = run_dir / "report-tie.json"
    assert report_path.exists()
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["inference"] == "tie"
    assert report["dataset_size"] == 40
    # rendered table shows the same rounded accuracy
    assert f"{100 * report['accuracy']:.2f}" in out


def test_eval_te_and_factual_rules(run_dir, corpus_dir):
    for rule in ("te", "factual"):
        rc = main(["eval", "--checkpoint", str(run_dir / "model.bin"),
                   "--data", str(corpus_dir / "test_iid.jsonl"),
                   "--lexicon", str(corpus_dir / "lexicon.csv"),
                   "--inference", rule])
        assert rc == 0
        assert (run_dir / f"report-{rule}.json").exists()


def test_eval_per_example_records(run_dir, corpus_dir, tmp_path):
    records_path = tmp_path / "records.jsonl"
    rc = main(["eval", "--checkpoint", str(run_dir / "model.bin"),
               "--data", str(corpus_dir / "test_iid.jsonl"),
               "--lexicon", str(corpus_dir / "lexicon.csv"),
               "--records", str(records_path)])
    assert rc == 0
    lines = records_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 40
    record = json.loads(lines[0])
    assert set(record) == {"fused_factual", "fused_counterfactual", "tie",
                           "te_label", "tie_label", "factual_label", "categories"}
    tie = np.asarray(record["fused_factual"]) - np.asarray(record["fused_counterfactual"])
    assert record["tie"] == pytest.approx(tie)
    # the file holds exactly the records each example gives scored alone
    params, config, vocab = _load_checkpoint(str(run_dir / "model.bin"))
    lexicon = load_lexicon(corpus_dir / "lexicon.csv")
    corpus = load_jsonl(corpus_dir / "test_iid.jsonl")
    encoder, sentences = CorpusEncoder(corpus, lexicon, vocab, config.lx, config.lb), sentences_of(corpus)
    expected = []
    for i, (tokens, _) in enumerate(sentences):
        r = T.predict_batch(params, encode_batch(encoder, [i]), config.spec)[0]
        r["categories"] = sorted(set(map(lexicon.category, match_biased_tokens(tokens, lexicon))))
        expected.append(json.dumps(r) + "\n")
    assert records_path.read_text(encoding="utf-8") == "".join(expected)


@pytest.mark.parametrize("mode", ["ccdf", "vanilla"])
def test_eval_records_are_the_infer_records_byte_for_byte(corpus_dir, tmp_path, capsys, mode):
    # a record is a function of its example: at the stock model's widths,
    # every sentence of a split with mixed lengths and bias sequences gets
    # from eval --records the bytes infer prints for it alone
    out = tmp_path / mode
    assert main(["train", "--data", str(corpus_dir), "--out", str(out), "--mode", mode, "--epochs", "1",
                 "--learning-rate", "1e-3"]) == 0
    flags = ["--checkpoint", str(out / "model.bin"), "--lexicon", str(corpus_dir / "lexicon.csv")]
    records_path = tmp_path / "records.jsonl"
    assert main(["eval", *flags, "--data", str(corpus_dir / "test_flipped.jsonl"), "--inference",
                 T.MODE_SPECS[mode].selection_rule, "--records", str(records_path)]) == 0
    lines = records_path.read_text(encoding="utf-8").splitlines()
    texts = [json.loads(line)["text"] for line in (corpus_dir / "test_flipped.jsonl").read_text().splitlines()]
    encoder = CorpusEncoder(load_jsonl(corpus_dir / "test_flipped.jsonl"), load_lexicon(corpus_dir / "lexicon.csv"),
                            Vocab.load(out / "vocab.txt"), 128, 16)
    batch = encode_batch(encoder, range(len(lines)))
    assert len({(int((x != 0).sum()), int((b != 0).sum())) for x, b in zip(batch.x_ids, batch.b_ids)}) > 4
    capsys.readouterr()
    for text, line in zip(texts, lines, strict=True):
        assert main(["infer", *flags, "--text", text]) == 0
        printed = json.loads(capsys.readouterr().out)
        keys = list(json.loads(line))
        assert list(printed)[: len(keys)] == keys
        assert json.dumps({k: printed[k] for k in keys}) == line


@pytest.mark.parametrize("mode", ["masking", "lmixin", "vanilla"])
def test_baseline_checkpoint_scores_through_eval_records_and_infer(corpus_dir, tmp_path, capsys, mode):
    out = tmp_path / mode
    assert main(["train", "--data", str(corpus_dir), "--out", str(out), "--mode", mode,
                 "--epochs", "1", "--hidden", "8", "--embed-dim", "8", "--lx", "12"]) == 0
    flags = ["--checkpoint", str(out / "model.bin"), "--lexicon", str(corpus_dir / "lexicon.csv")]
    data = ["--data", str(corpus_dir / "test_iid.jsonl")]
    records_path, report_path = tmp_path / "records.jsonl", tmp_path / "report.json"
    assert main(["eval", *flags, *data, "--inference", "factual",
                 "--records", str(records_path), "--out", str(report_path)]) == 0
    records = [json.loads(line) for line in records_path.read_text(encoding="utf-8").splitlines()]
    assert [list(r) for r in records] == [["factual_label", "categories"]] * 40
    labels = load_jsonl(corpus_dir / "test_iid.jsonl").labels.tolist()
    confusion = Confusion.from_pairs([r["factual_label"] for r in records], labels)
    assert json.loads(report_path.read_text(encoding="utf-8"))["confusion"] == asdict(confusion)
    capsys.readouterr()
    assert main(["infer", *flags, "--text", "the zorp was dreadful today"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == ["factual_label", "categories", "text", "biased_tokens"]
    assert main(["eval", *flags, *data, "--inference", "tie"]) == 1
    _assert_one_line_error(capsys, "requires a ccdf checkpoint")


def test_eval_that_fails_writes_no_report(run_dir, corpus_dir, tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = main(["eval", "--checkpoint", str(run_dir / "model.bin"),
               "--data", str(corpus_dir / "test_iid.jsonl"),
               "--lexicon", str(corpus_dir / "lexicon.csv"),
               "--out", str(report), "--records", str(tmp_path / "missing" / "records.jsonl")])
    assert rc == 2
    _assert_one_line_error(capsys, "No such file or directory")
    assert not report.exists()


@pytest.mark.parametrize("records, report, message", [
    pytest.param("records.jsonl", "missing/report.json", "No such file or directory: '{report}'",
                 id="report-dir-missing"),
    pytest.param("taken", "report.json", "Is a directory: '{records}'", id="records-path-is-a-directory"),
])
def test_eval_that_fails_writes_no_output(run_dir, corpus_dir, tmp_path, capsys, records, report, message):
    (tmp_path / "taken").mkdir()
    records, report = tmp_path / records, tmp_path / report
    rc = main(["eval", "--checkpoint", str(run_dir / "model.bin"),
               "--data", str(corpus_dir / "test_iid.jsonl"),
               "--lexicon", str(corpus_dir / "lexicon.csv"),
               "--records", str(records), "--out", str(report)])
    assert rc == 2
    _assert_one_line_error(capsys, message.format(records=records, report=report))
    assert [p.name for p in tmp_path.rglob("*")] == ["taken"]


def test_eval_rejects_records_at_the_report_path(run_dir, corpus_dir, tmp_path, capsys):
    rc = main(["eval", "--checkpoint", str(run_dir / "model.bin"),
               "--data", str(corpus_dir / "test_iid.jsonl"),
               "--lexicon", str(corpus_dir / "lexicon.csv"),
               "--records", str(tmp_path / "." / "out.json"), "--out", str(tmp_path / "out.json")])
    assert rc == 1
    _assert_one_line_error(capsys, "same file")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--out", "--records"])
@pytest.mark.parametrize("target", ["model.bin", "vocab.txt", "config.txt",
                                    "test_iid.jsonl", "test_flipped.jsonl", "lexicon.csv"])
def test_eval_rejects_an_output_at_an_input_path(run_dir, corpus_dir, tmp_path, capsys, flag, target):
    for name in ("model.bin", "vocab.txt", "config.txt"):
        shutil.copy(run_dir / name, tmp_path)
    for name in ("test_iid.jsonl", "test_flipped.jsonl", "lexicon.csv"):
        shutil.copy(corpus_dir / name, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    rc = main(["eval", "--checkpoint", str(tmp_path / "model.bin"),
               "--data", str(tmp_path / "test_iid.jsonl"),
               "--ood-data", str(tmp_path / "test_flipped.jsonl"),
               "--lexicon", str(tmp_path / "lexicon.csv"),
               flag, str(tmp_path / "." / target)])
    assert rc == 1
    _assert_one_line_error(capsys, "is an input of this eval")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_eval_with_ood_column(run_dir, corpus_dir, capsys):
    rc = main(["eval", "--checkpoint", str(run_dir / "model.bin"),
               "--data", str(corpus_dir / "test_iid.jsonl"),
               "--lexicon", str(corpus_dir / "lexicon.csv"),
               "--ood-data", str(corpus_dir / "test_flipped.jsonl")])
    assert rc == 0
    report = json.loads((run_dir / "report-tie.json").read_text(encoding="utf-8"))
    assert report["ood"]["dataset_size"] == 40


def test_eval_empty_dataset_is_validation_error(run_dir, corpus_dir, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    rc = main(["eval", "--checkpoint", str(run_dir / "model.bin"),
               "--data", str(empty),
               "--lexicon", str(corpus_dir / "lexicon.csv")])
    assert rc == 1
    assert "empty" in capsys.readouterr().err


def test_eval_checkpoint_vocab_mismatch(run_dir, corpus_dir, tmp_path, capsys):
    clone = tmp_path / "clone"
    clone.mkdir()
    for name in ("model.bin", "config.txt"):
        (clone / name).write_bytes((run_dir / name).read_bytes())
    vocab_lines = (run_dir / "vocab.txt").read_text(encoding="utf-8").splitlines()
    (clone / "vocab.txt").write_text("\n".join(vocab_lines + ["extraword"]) + "\n", encoding="utf-8")
    rc = main(["eval", "--checkpoint", str(clone / "model.bin"),
               "--data", str(corpus_dir / "test_iid.jsonl"),
               "--lexicon", str(corpus_dir / "lexicon.csv")])
    assert rc == 1
    assert "mismatch" in capsys.readouterr().err


def _clone_run(run_dir, dest):
    dest.mkdir()
    for name in ("model.bin", "config.txt", "vocab.txt"):
        (dest / name).write_bytes((run_dir / name).read_bytes())
    return dest


def test_eval_non_numeric_checkpoint_config_is_validation_error(run_dir, corpus_dir, tmp_path, capsys):
    clone = _clone_run(run_dir, tmp_path / "clone")
    config = (clone / "config.txt").read_text(encoding="utf-8").replace("lx=12", "lx=abc")
    (clone / "config.txt").write_text(config, encoding="utf-8")
    for argv in (["eval", "--data", str(corpus_dir / "test_iid.jsonl")], ["infer", "--text", "hi"]):
        rc = main([*argv, "--checkpoint", str(clone / "model.bin"),
                   "--lexicon", str(corpus_dir / "lexicon.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "lx='abc'" in err
        assert len(err.strip().splitlines()) == 1


RETIRED_LINES = ["beta1=0.9", "beta2=0.999", "eps=1e-08"]  # as train wrote them while they were keys


def _with_retired_keys(run_dir, dest):
    """A copy of ``run_dir`` whose config.txt is the 15 lines train wrote
    while AdamW's constants were config keys; returns the clone and its lines."""
    clone = _clone_run(run_dir, dest)
    lines = sorted((clone / "config.txt").read_text(encoding="utf-8").splitlines() + RETIRED_LINES)
    (clone / "config.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return clone, lines


def test_run_directory_naming_the_retired_adamw_keys_scores_the_same(run_dir, corpus_dir, tmp_path, capsys):
    old, lines = _with_retired_keys(run_dir, tmp_path / "old")
    assert len(lines) == 15
    outputs = []
    for run in (run_dir, old):
        assert main(["eval", "--checkpoint", str(run / "model.bin"),
                     "--data", str(corpus_dir / "test_flipped.jsonl"),
                     "--ood-data", str(corpus_dir / "test_iid.jsonl"),
                     "--lexicon", str(corpus_dir / "lexicon.csv"),
                     "--out", str(tmp_path / "report.json"), "--records", str(tmp_path / "records.jsonl")]) == 0
        capsys.readouterr()
        assert main(["infer", "--checkpoint", str(run / "model.bin"),
                     "--lexicon", str(corpus_dir / "lexicon.csv"), "--text", "the zorp was dreadful"]) == 0
        outputs.append(((tmp_path / "report.json").read_bytes(), (tmp_path / "records.jsonl").read_bytes(),
                        capsys.readouterr().out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("bad,message", [
    ("beta1=0.5", "config key beta1='0.5': AdamW's beta1 is fixed at 0.9"),
    ("eps=abc", "config key eps='abc': could not convert string to float"),
    ("eps=1e-08", "config key 'eps' repeats line"),
])
@pytest.mark.parametrize("command", ["eval", "infer"])
def test_retired_adamw_key_loads_only_at_its_fixed_value(run_dir, corpus_dir, tmp_path, capsys,
                                                         command, bad, message):
    clone, lines = _with_retired_keys(run_dir, tmp_path / "clone")
    if bad in lines:
        lines.append(bad)  # the key again, at its fixed value
    else:
        lines = [bad if line.split("=")[0] == bad.split("=")[0] else line for line in lines]
    (clone / "config.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    argv = ["--data", str(corpus_dir / "test_iid.jsonl")] if command == "eval" else ["--text", "hi"]
    rc = main([command, *argv, "--checkpoint", str(clone / "model.bin"),
               "--lexicon", str(corpus_dir / "lexicon.csv")])
    assert rc == 1
    line_no = len(lines) - lines[::-1].index(bad)
    _assert_one_line_error(capsys, f"{clone / 'config.txt'}:{line_no}: {message}")


def _drop_lx_and_dropout(lines):
    return [line for line in lines if not line.startswith(("lx=", "dropout="))], ": missing config keys: ['dropout', 'lx']"


def _repeat_lx(lines):
    first = next(i for i, line in enumerate(lines, start=1) if line.startswith("lx="))
    return lines + ["lx=12\n"], f":{len(lines) + 1}: config key 'lx' repeats line {first}"


@pytest.mark.parametrize("edit", [_drop_lx_and_dropout, _repeat_lx])
@pytest.mark.parametrize("command", ["eval", "infer"])
def test_checkpoint_config_must_name_each_key_once(run_dir, corpus_dir, tmp_path, capsys, command, edit):
    # a key left out would load its default, not the value the run trained with
    clone = _clone_run(run_dir, tmp_path / "clone")
    lines, suffix = edit((clone / "config.txt").read_text(encoding="utf-8").splitlines(keepends=True))
    (clone / "config.txt").write_text("".join(lines), encoding="utf-8")
    argv = ["--data", str(corpus_dir / "test_iid.jsonl")] if command == "eval" else ["--text", "hi"]
    rc = main([command, *argv, "--checkpoint", str(clone / "model.bin"),
               "--lexicon", str(corpus_dir / "lexicon.csv")])
    assert rc == 1
    _assert_one_line_error(capsys, f"{clone / 'config.txt'}{suffix}")


def test_eval_truncated_checkpoint_is_validation_error(run_dir, corpus_dir, tmp_path, capsys):
    clone = _clone_run(run_dir, tmp_path / "clone")
    (clone / "model.bin").write_bytes((run_dir / "model.bin").read_bytes()[:500])
    rc = main(["eval", "--checkpoint", str(clone / "model.bin"),
               "--data", str(corpus_dir / "test_iid.jsonl"),
               "--lexicon", str(corpus_dir / "lexicon.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "truncated" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["eval", "infer"])
def test_non_finite_checkpoint_value_is_validation_error(run_dir, corpus_dir, tmp_path, capsys, command):
    clone = _clone_run(run_dir, tmp_path / "clone")
    arrays = load_arrays(clone / "model.bin")
    arrays["branch.b.b2"][1] = np.nan
    save_arrays(clone / "model.bin", arrays)
    extra = ["--data", str(corpus_dir / "test_flipped.jsonl")] if command == "eval" else ["--text", "zorp"]
    rc = main([command, "--checkpoint", str(clone / "model.bin"),
               "--lexicon", str(corpus_dir / "lexicon.csv"), *extra])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {clone / 'model.bin'}:1: parameter 'branch.b.b2' holds nan at index (1,)\n"


def test_infer_checkpoint_with_a_repeated_record_is_validation_error(run_dir, corpus_dir, tmp_path, capsys):
    # the later copy of the record used to replace the first without a word
    clone = _clone_run(run_dir, tmp_path / "clone")
    arrays = load_arrays(clone / "model.bin")
    records = sorted([*arrays.items(), ("branch.b.b2", arrays["branch.b.b2"] + 1.0)], key=lambda r: r[0])
    (clone / "model.bin").write_bytes(checkpoint_bytes(records))
    rc = main(["infer", "--checkpoint", str(clone / "model.bin"),
               "--lexicon", str(corpus_dir / "lexicon.csv"), "--text", "zorp"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {clone / 'model.bin'}:1: record 'branch.b.b2' follows 'branch.b.b2': "
                   "names must be unique and sorted\n")



def _twin_response_run(run_dir, dest, c_x_shift=0.0, keep_c=False):
    """A copy of ``run_dir`` in the format written before the model had one
    invariant response: ``const.c`` stored as ``const.c_e`` and ``const.c_x``."""
    clone = _clone_run(run_dir, dest)
    arrays = load_arrays(clone / "model.bin")
    c = arrays["const.c"] if keep_c else arrays.pop("const.c")
    arrays["const.c_e"], arrays["const.c_x"] = c.copy(), c + c_x_shift
    save_arrays(clone / "model.bin", arrays)
    return clone


def test_eval_of_a_twin_response_run_is_byte_identical(run_dir, corpus_dir, tmp_path, capsys):
    # bit-equal c_e and c_x give tanh(c_e) * tanh(c_x) = tanh(c) * tanh(c), so the old
    # format scores exactly as the one-response checkpoint it loads as
    twin = _twin_response_run(run_dir, tmp_path / "twin")
    outputs = []
    for ckpt in (run_dir, twin):
        out, records = tmp_path / f"{ckpt.name}-report.json", tmp_path / f"{ckpt.name}-records.jsonl"
        assert main(["eval", "--checkpoint", str(ckpt / "model.bin"),
                     "--data", str(corpus_dir / "test_flipped.jsonl"),
                     "--ood-data", str(corpus_dir / "test_iid.jsonl"),
                     "--lexicon", str(corpus_dir / "lexicon.csv"),
                     "--out", str(out), "--records", str(records)]) == 0
        outputs.append((out.read_bytes(), records.read_bytes()))
    capsys.readouterr()
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["eval", "infer"])
@pytest.mark.parametrize("case", ["unequal", "beside_c"])
def test_twin_responses_that_are_not_one_response_are_validation_errors(
        run_dir, corpus_dir, tmp_path, capsys, command, case):
    twin = _twin_response_run(run_dir, tmp_path / "twin", c_x_shift=1e-12 if case == "unequal" else 0.0,
                              keep_c=case == "beside_c")
    extra = ["--data", str(corpus_dir / "test_flipped.jsonl")] if command == "eval" else ["--text", "zorp"]
    rc = main([command, "--checkpoint", str(twin / "model.bin"),
               "--lexicon", str(corpus_dir / "lexicon.csv"), *extra])
    assert rc == 1
    _assert_one_line_error(capsys, f"error: {twin / 'model.bin'}:1: invariant responses")


@pytest.mark.parametrize("command", ["eval", "infer"])
@pytest.mark.parametrize("case", ["directory", "directory_beside_run_files", "missing"])
def test_checkpoint_errors_name_the_path_given(run_dir, corpus_dir, tmp_path, capsys, command, case):
    # vocab.txt and config.txt beside the checkpoint used to be read first, so a
    # directory or missing checkpoint was reported as a missing vocab.txt
    if case == "directory_beside_run_files":
        checkpoint = _clone_run(run_dir, tmp_path / "clone") / "stock"
    else:
        checkpoint = tmp_path / "stock"
    if case != "missing":
        checkpoint.mkdir()
    extra = ["--data", str(corpus_dir / "test_flipped.jsonl")] if command == "eval" else ["--text", "zorp"]
    rc = main([command, "--checkpoint", str(checkpoint), "--lexicon", str(corpus_dir / "lexicon.csv"), *extra])
    assert rc == 2
    reason = "No such file or directory" if case == "missing" else "Is a directory"
    _assert_one_line_error(capsys, f"{reason}: '{checkpoint}'")


def test_infer_record(run_dir, corpus_dir, capsys):
    rc = main(["infer", "--checkpoint", str(run_dir / "model.bin"),
               "--lexicon", str(corpus_dir / "lexicon.csv"),
               "--text", "the zorp was dreadful today"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["biased_tokens"] == [{"token": "zorp", "category": "nOI"}]
    assert set(record) >= {"fused_factual", "fused_counterfactual", "tie",
                           "te_label", "tie_label", "categories", "text"}


def test_infer_no_match_keeps_te_and_tie_equal(run_dir, corpus_dir, capsys):
    rc = main(["infer", "--checkpoint", str(run_dir / "model.bin"),
               "--lexicon", str(corpus_dir / "lexicon.csv"),
               "--text", "the sunny garden was mellow"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["biased_tokens"] == []
    assert record["te_label"] == record["tie_label"]
    assert record["tie"] == pytest.approx(
        np.asarray(record["fused_factual"]) - np.asarray(record["fused_counterfactual"]))


def test_infer_reserved_surface_reads_as_unknown_word(run_dir, corpus_dir, capsys):
    for text in ("<pad>", "the <nobias> <sep> was dreadful"):
        rc = main(["infer", "--checkpoint", str(run_dir / "model.bin"),
                   "--lexicon", str(corpus_dir / "lexicon.csv"), "--text", text])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["biased_tokens"] == []
        assert record["te_label"] == record["tie_label"]


def test_infer_leaves_numpy_ma_unimported(run_dir, corpus_dir, tmp_path):
    # np.unique imports numpy.ma on first call, about 30 ms of an infer
    # process; scoring collects its distinct ids without it
    script = ("import sys; from cfdetox.cli import main; rc = main(sys.argv[1:]); "
              "print('numpy.ma' in sys.modules, file=sys.stderr); sys.exit(rc)")
    env = dict(os.environ, PYTHONPATH=str(Path(cfdetox.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, "infer",
                           "--checkpoint", str(run_dir / "model.bin"),
                           "--lexicon", str(corpus_dir / "lexicon.csv"),
                           "--text", "the zorp was dreadful today"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["biased_tokens"] == [{"token": "zorp", "category": "nOI"}]
    assert proc.stderr == "False\n"


def test_infer_deterministic(run_dir, corpus_dir, capsys):
    args = ["infer", "--checkpoint", str(run_dir / "model.bin"),
            "--lexicon", str(corpus_dir / "lexicon.csv"),
            "--text", "zorp zorp dreadful"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_infer_empty_text(run_dir, corpus_dir, capsys):
    rc = main(["infer", "--checkpoint", str(run_dir / "model.bin"),
               "--lexicon", str(corpus_dir / "lexicon.csv"), "--text", "   "])
    assert rc == 1


def test_help_lists_defaults(capsys):
    assert main(["gen", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--spurious-rate" in out and "0.95" in out
    assert main(["train", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    defaults = T.TrainConfig().as_dict()
    flags = argparse.ArgumentParser()
    cli._add_train_flags(flags)
    assert set(vars(flags.parse_args([]))) == set(defaults) and len(defaults) == 12
    for name in defaults:
        option = out.rsplit(f"--{name.replace('_', '-')} ", 1)[1].split(" --", 1)[0]
        assert f"(default: {defaults[name]})" in option, name


@pytest.mark.parametrize("command", ["gen", "stats", "train", "eval", "infer"])
def test_help_shows_a_default_only_where_one_exists(command, capsys):
    assert main([command, "--help"]) == 0
    assert "default: None" not in " ".join(capsys.readouterr().out.split())


# ---------------------------------------------------------------------------
# text loaders: bad bytes and seeds are one-line validation errors
# ---------------------------------------------------------------------------

NOT_UTF8 = b"\xff\xfe oops\n"


def _assert_one_line_error(capsys, *needles):
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    for needle in needles:
        assert needle in err, err


def test_stats_non_utf8_dataset_names_file_and_line(corpus_dir, tmp_path, capsys):
    data = tmp_path / "bad.jsonl"
    data.write_bytes(b'{"text": "a", "label": 0}\n' + NOT_UTF8)
    rc = main(["stats", "--data", str(data), "--lexicon", str(corpus_dir / "lexicon.csv")])
    assert rc == 1
    _assert_one_line_error(capsys, f"{data}:2:", "UTF-8")


@pytest.mark.parametrize("line", [
    pytest.param("[" * 100000, id="nested-past-recursion-limit"),
    pytest.param('{"text": "a", "label": ' + "1" * 5000 + "}", id="integer-past-digit-limit"),
])
def test_stats_undecodable_json_line_names_file_and_line(corpus_dir, tmp_path, capsys, line):
    data = tmp_path / "deep.jsonl"
    data.write_text('{"text": "a", "label": 0}\n' + line + "\n", encoding="utf-8")
    rc = main(["stats", "--data", str(data), "--lexicon", str(corpus_dir / "lexicon.csv")])
    assert rc == 1
    _assert_one_line_error(capsys, f"{data}:2:", "invalid JSON")


def test_stats_non_utf8_lexicon_names_file_and_line(corpus_dir, tmp_path, capsys):
    lexicon = tmp_path / "lexicon.csv"
    lexicon.write_bytes(b"zorp,nOI\n" + NOT_UTF8)
    rc = main(["stats", "--data", str(corpus_dir / "train.jsonl"), "--lexicon", str(lexicon)])
    assert rc == 1
    _assert_one_line_error(capsys, f"{lexicon}:2:", "UTF-8")


def test_stats_lexicon_surface_with_edge_punctuation_is_validation_error(corpus_dir, tmp_path, capsys):
    lexicon = tmp_path / "lexicon.csv"
    lexicon.write_text("grax,OI\nzorp!,nOI\n", encoding="utf-8")
    rc = main(["stats", "--data", str(corpus_dir / "train.jsonl"), "--lexicon", str(lexicon)])
    assert rc == 1
    _assert_one_line_error(capsys, f"{lexicon}:2:", "'zorp!' starts or ends with punctuation")


@pytest.mark.parametrize("name", ["vocab.txt", "config.txt"])
def test_eval_non_utf8_checkpoint_text_file_names_file_and_line(run_dir, corpus_dir, tmp_path, capsys, name):
    clone = _clone_run(run_dir, tmp_path / "clone")
    lines = (clone / name).read_bytes().splitlines(keepends=True)
    (clone / name).write_bytes(lines[0] + NOT_UTF8 + b"".join(lines[1:]))
    rc = main(["eval", "--checkpoint", str(clone / "model.bin"),
               "--data", str(corpus_dir / "test_iid.jsonl"),
               "--lexicon", str(corpus_dir / "lexicon.csv")])
    assert rc == 1
    _assert_one_line_error(capsys, f"{clone / name}:2:", "UTF-8")


def test_train_non_utf8_config_file_names_file_and_line(corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(b"epochs=1\n" + NOT_UTF8)
    out = tmp_path / "run"
    rc = main(["train", "--data", str(corpus_dir), "--out", str(out), "--config", str(cfg)])
    assert rc == 1
    _assert_one_line_error(capsys, f"{cfg}:2:", "UTF-8")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--seed", "-1"],
    ["--seed", str(2**64)],  # the dropout key seed << 64 would leave 128 bits
])
def test_train_rejects_out_of_range_seed_before_writing(corpus_dir, tmp_path, capsys, argv):
    out = tmp_path / "run"
    rc = main(["train", "--data", str(corpus_dir), "--out", str(out), *TINY_TRAIN, *argv])
    assert rc == 1
    _assert_one_line_error(capsys, "seed must be in [0, 2**64)")
    assert not out.exists()


def test_train_accepts_largest_seed(corpus_dir, tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--data", str(corpus_dir), "--out", str(out), *TINY_TRAIN,
                 "--seed", str(2**64 - 1)]) == 0
    assert f"seed={2**64 - 1}" in (out / "config.txt").read_text(encoding="utf-8")


def test_gen_rejects_negative_seed_before_writing(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["gen", "--seed", "-3", "--out", str(out), "--n-train", "20", "--n-test", "5"]) == 1
    _assert_one_line_error(capsys, "seed must be >= 0")
    assert not out.exists()


# random bytes, plus fragments that reach past decoding into each parser
_FRAGMENTS = [b'{"text": ', b'"a b"', b', "label": ', b"0", b"1", b"2", b"}", b"[", b"]", b",",
              b"=", b"#", b"\n", b"\r", b" ", b"\xff", b"\xc3", b"\xc3\xa9", b"nOI", b"zorp",
              b"<pad>", b"<unk>", b"<sep>", b"<nobias>", b"epochs", b"seed", b"mode", b"nan", b"1e9"]
FUZZ_BYTES = st.one_of(st.binary(max_size=64),
                       st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map(b"".join))
LOADERS = {
    "load_jsonl": load_jsonl,
    "load_lexicon": load_lexicon,
    "Vocab.load": Vocab.load,
    "_parse_config_file": _parse_config_file,
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("loader", list(LOADERS))
@settings(max_examples=150, deadline=None)
@given(blob=FUZZ_BYTES)
def test_text_loaders_return_or_raise_package_errors(fuzz_dir, loader, blob):
    # cli.main maps every CfDetoxError to exit 1 with one line; anything
    # else would escape as a traceback
    path = fuzz_dir / f"{loader}.txt"
    path.write_bytes(blob)
    try:
        LOADERS[loader](path)
    except CfDetoxError:
        pass


# ---------------------------------------------------------------------------
# splits are read as token-id corpora
# ---------------------------------------------------------------------------

def test_train_reads_no_example(corpus_dir, tmp_path, monkeypatch):
    # a split has one in-memory form: load_jsonl reads it once, straight into a corpus
    assert not hasattr(D, "Example")
    read = []
    load = D.load_jsonl

    def recording(path):
        corpus = load(path)
        read.append((Path(path).name, type(corpus)))
        return corpus

    monkeypatch.setattr(D, "load_jsonl", recording)
    assert main(["train", "--data", str(corpus_dir), "--out", str(tmp_path / "run"), *TINY_TRAIN]) == 0
    assert read == [("train.jsonl", D.Corpus), ("valid.jsonl", D.Corpus)]


def _split_dir(corpus_dir, out, split, content):
    shutil.copytree(corpus_dir, out)
    if content is None:
        (out / split).unlink()
    else:
        (out / split).write_bytes(content)
    return out


@pytest.mark.parametrize("split, content, code, needle", [
    ("train.jsonl", b'{"text": "a", "label": 0}\n{oops\n', 1, "train.jsonl:2: invalid JSON"),
    ("valid.jsonl", b'{"text": "a", "label": 0.5}\n', 1, "valid.jsonl:1: 'label' must be 0 or 1"),
    ("train.jsonl", NOT_UTF8, 1, "train.jsonl:1: not valid UTF-8"),
    ("valid.jsonl", None, 2, "No such file or directory"),
])
def test_train_split_errors_keep_their_exit_codes(corpus_dir, tmp_path, capsys, split, content, code, needle):
    data = _split_dir(corpus_dir, tmp_path / "data", split, content)
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"), *TINY_TRAIN]) == code
    _assert_one_line_error(capsys, needle)


def test_train_non_finite_loss_exits_3(corpus_dir, tmp_path, capsys, monkeypatch):
    init = T.M.init_params

    def poisoned(*args, **kwargs):
        params = init(*args, **kwargs)
        params["encoder.embed"].data[:] = np.nan
        return params

    monkeypatch.setattr(T.M, "init_params", poisoned)
    assert main(["train", "--data", str(corpus_dir), "--out", str(tmp_path / "run"), *TINY_TRAIN]) == 3
    _assert_one_line_error(capsys, "non-finite")


@pytest.mark.parametrize("exc, needle", [
    (MemoryError("Unable to allocate 9.31 TiB for an array with shape (10000000000, 128) and data type float64"),
     "error: Unable to allocate 9.31 TiB"),
    (MemoryError(), "error: out of memory"),
])
def test_train_allocation_the_machine_cannot_make_is_a_one_line_error(corpus_dir, tmp_path, capsys, monkeypatch,
                                                                      exc, needle):
    # what numpy raises for an oversized --hidden or --embed-dim, raised
    # here without the allocation, which could exhaust the machine
    def oversized(*args, **kwargs):
        raise exc

    monkeypatch.setattr(T.M, "init_params", oversized)
    assert main(["train", "--data", str(corpus_dir), "--out", str(tmp_path / "run"), *TINY_TRAIN]) == 1
    _assert_one_line_error(capsys, needle)


def test_train_default_run_directory_is_never_reused(corpus_dir, tmp_path, capsys, monkeypatch):
    # two runs started in the same second get the same default name: the
    # second is refused before it writes anything, while --out may reuse one
    strftime, started = time.strftime, time.strptime("2026-01-02 03:04:05", "%Y-%m-%d %H:%M:%S")
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: strftime(fmt, started))
    monkeypatch.chdir(tmp_path)
    train = ["train", "--data", str(corpus_dir), *TINY_TRAIN]
    assert main(train) == 0
    run = Path("runs") / "train-20260102-030405"
    written = {p.name: p.read_bytes() for p in run.iterdir()}
    assert set(written) == {"config.txt", "vocab.txt", "model.bin", "loss.csv"}
    capsys.readouterr()
    assert main([*train, "--seed", "5"]) == 2
    _assert_one_line_error(capsys, "File exists", str(run))
    assert {p.name: p.read_bytes() for p in run.iterdir()} == written
    assert main([*train, "--seed", "5", "--out", str(run)]) == 0
    assert "seed=5" in (run / "config.txt").read_text(encoding="utf-8")


def test_train_that_diverges_prints_only_its_one_line_error(tmp_path):
    # overflow in the forward pass and in AdamW's update warns nothing: the
    # finite checks report the divergence, once
    assert main(["gen", "--seed", "3", "--n-train", "120", "--n-test", "30", "--out", str(tmp_path / "d")]) == 0
    proc = _run_cli("train", "--data", "d", "--out", "run", "--learning-rate", "1e300", cwd=tmp_path)
    assert proc.returncode == 3
    assert proc.stderr == ("error: non-finite values in the forward pass at step 3: "
                           "softmax input contains non-finite entries\n")


@pytest.mark.parametrize("content, code, needle", [
    (b'{"text": "a", "label": 0}\n{"text": 3, "label": 0}\n', 1, "d.jsonl:2: 'text' must be a string"),
    (b"", 1, "is empty"),
    (None, 2, "No such file or directory"),
])
def test_eval_split_errors_keep_their_exit_codes(run_dir, corpus_dir, tmp_path, capsys, content, code, needle):
    data = tmp_path / "d.jsonl"
    if content is not None:
        data.write_bytes(content)
    rc = main(["eval", "--checkpoint", str(run_dir / "model.bin"), "--data", str(data),
               "--lexicon", str(corpus_dir / "lexicon.csv"), "--out", str(tmp_path / "report.json")])
    assert rc == code
    _assert_one_line_error(capsys, needle)


class _CountingEntries(dict):
    """Lexicon entries that count membership tests: one per lookup."""

    lookups = 0

    def __contains__(self, surface):
        type(self).lookups += 1
        return super().__contains__(surface)


def test_infer_looks_each_token_up_once(run_dir, corpus_dir, monkeypatch, capsys):
    # biased_tokens, categories and the batch's bias ids come from one match
    real_load = cli.load_lexicon
    monkeypatch.setattr(cli, "load_lexicon", lambda path: Lexicon(_CountingEntries(real_load(path).entries)))
    monkeypatch.setattr(_CountingEntries, "lookups", 0)
    batches = []
    predict = T.predict_batch
    monkeypatch.setattr(T, "predict_batch", lambda params, batch, spec: batches.append(batch) or predict(
        params, batch, spec))
    assert main(["infer", "--checkpoint", str(run_dir / "model.bin"), "--lexicon", str(corpus_dir / "lexicon.csv"),
                 "--text", "The zorp was dreadful, the ZORP grax today"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert _CountingEntries.lookups == 6  # the, zorp, was, dreadful, grax, today
    assert record["biased_tokens"] == [{"token": "zorp", "category": "nOI"}, {"token": "zorp", "category": "nOI"},
                                       {"token": "grax", "category": "OI"}]
    assert record["categories"] == ["OI", "nOI"]
    vocab = Vocab.load(run_dir / "vocab.txt")
    zorp, grax = vocab.id("zorp"), vocab.id("grax")
    assert batches[0].b_ids.tolist() == [[zorp, SEP_ID, zorp, SEP_ID]]  # lb 4 keeps four of five
    assert grax != UNK_ID


# ---------------------------------------------------------------------------
# the benchmark's tracer sees the functions it patches called
# ---------------------------------------------------------------------------

def _traced_cli(*argv, cwd):
    """(span names, counters) of one CLI call under perfbench/tracer.py."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    env = dict(os.environ, PYTHONPATH=str(Path(cfdetox.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(tracer), str(cwd / "spans"), "--", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    meta = json.loads((cwd / "spans.json").read_text(encoding="utf-8"))
    spans = np.load(cwd / "spans.npy")
    return {meta["names"][i] for i in spans[:, 0].tolist()}, meta["counters"]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_traced_batches_and_reads_are_seen(run_dir, corpus_dir, tmp_path, command):
    # every batch comes from data.encode_batch and every split from
    # data.load_jsonl, the names the tracer patches
    if command == "train":
        argv = ["train", "--data", str(corpus_dir), "--out", str(tmp_path / "run"), *TINY_TRAIN]
    else:
        argv = ["eval", "--checkpoint", str(run_dir / "model.bin"), "--data", str(corpus_dir / "test_iid.jsonl"),
                "--lexicon", str(corpus_dir / "lexicon.csv"), "--out", str(tmp_path / "report.json")]
    names, counters = _traced_cli(*argv, cwd=tmp_path)
    assert {"data.encode_batch", "data.load_jsonl"} <= names
    if command == "eval":  # the per-layer scoring metrics read these spans
        assert {"training.predict_batch", "effects.inference_records"} <= names
    assert counters.get("data.x_slots", 0) > 0
