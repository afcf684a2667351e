import json

import numpy as np
import pytest

from cfdetox import training as T
from cfdetox.cli import _load_checkpoint, main
from cfdetox.data import encode_batch, load_jsonl
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


def test_train_unknown_config_key(corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("warp_speed=9\n", encoding="utf-8")
    rc = main(["train", "--data", str(corpus_dir), "--out", str(tmp_path / "r"),
               "--config", str(cfg)])
    assert rc == 1
    assert "warp_speed" in capsys.readouterr().err


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
        cats = [sorted(match_biased_tokens(ex.tokens, lexicon).categories) for ex in chunk]
        expected.extend(json.dumps(r) + "\n" for r in T.predict_batch(params, batch, "ccdf", "tie", cats))
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
