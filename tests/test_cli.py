import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfdetox
from cfdetox import training as T
from cfdetox.cli import _load_checkpoint, _parse_config_file, main
from cfdetox.data import Vocab, encode_batch, load_jsonl
from cfdetox.errors import CfDetoxError
from cfdetox.lexicon import load_lexicon, match_biased_tokens


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


def _run_cli(*argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(cfdetox.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "cfdetox.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True)


def test_gen_split_without_toxic_example_prints_na(tmp_path):
    # a one-example test split holds no toxic example: P(bias | toxic) is undefined
    proc = _run_cli("gen", "--out", "d", "--n-train", "20", "--n-test", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "P(zorp | toxic) = n/a" in proc.stdout


def test_gen_rejects_too_small_train_split(tmp_path):
    proc = _run_cli("gen", "--out", "d", "--n-train", "1", cwd=tmp_path)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: --n-train must be >= 2")
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
    assert len(err.splitlines()) == 1 and err.startswith("error: " + line.split("=")[0])


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
    # the file holds exactly the records a batch-by-batch predict_batch sweep gives
    params, config, vocab = _load_checkpoint(str(run_dir / "model.bin"))
    lexicon = load_lexicon(corpus_dir / "lexicon.csv")
    examples = load_jsonl(corpus_dir / "test_iid.jsonl")
    expected = []
    for start in range(0, len(examples), T.EVAL_BATCH_SIZE):
        chunk = examples[start : start + T.EVAL_BATCH_SIZE]
        batch = encode_batch(chunk, lexicon, vocab, config.lx, config.lb)
        for r, ex in zip(T.predict_batch(params, batch, config.spec), chunk):
            r["categories"] = sorted(match_biased_tokens(ex.tokens, lexicon).categories)
            expected.append(json.dumps(r) + "\n")
    assert records_path.read_text(encoding="utf-8") == "".join(expected)


def test_eval_records_need_ccdf_checkpoint(corpus_dir, tmp_path, capsys):
    out = tmp_path / "vanilla"
    assert main(["train", "--data", str(corpus_dir), "--out", str(out), "--mode", "vanilla",
                 "--epochs", "1", "--hidden", "8", "--embed-dim", "8", "--lx", "12"]) == 0
    rc = main(["eval", "--checkpoint", str(out / "model.bin"),
               "--data", str(corpus_dir / "test_iid.jsonl"),
               "--lexicon", str(corpus_dir / "lexicon.csv"),
               "--inference", "factual", "--records", str(tmp_path / "records.jsonl")])
    assert rc == 1
    assert "ccdf" in capsys.readouterr().err
    assert not (tmp_path / "records.jsonl").exists()


def test_eval_that_fails_writes_no_report(run_dir, corpus_dir, tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = main(["eval", "--checkpoint", str(run_dir / "model.bin"),
               "--data", str(corpus_dir / "test_iid.jsonl"),
               "--lexicon", str(corpus_dir / "lexicon.csv"),
               "--out", str(report), "--records", str(tmp_path / "missing" / "records.jsonl")])
    assert rc == 2
    _assert_one_line_error(capsys, "No such file or directory")
    assert not report.exists()


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
    out = capsys.readouterr().out
    for needle in ("default: 3", "default: 8", "default: 1e-05", "default: 0.1",
                   "default: 256", "default: 128", "default: 16", "default: 1000"):
        assert needle in out, needle


def test_runs_aggregator(corpus_dir, tmp_path, capsys):
    out = tmp_path / "multi"
    rc = main(["train", "--data", str(corpus_dir), "--out", str(out), "--runs", "2",
               "--epochs", "1", "--batch-size", "4", "--hidden", "8", "--embed-dim", "8",
               "--lx", "12", "--lb", "4", "--eval-every-steps", "50", "--seed", "5"])
    assert rc == 0
    assert (out / "run00" / "model.bin").exists()
    assert (out / "run01" / "model.bin").exists()
    text = capsys.readouterr().out
    assert "mean" in text and "s.d." in text


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
    ["--seed", str(2**64 - 2), "--runs", "3"],  # the last run's seed is 2**64
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
