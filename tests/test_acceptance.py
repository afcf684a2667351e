"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The synthetic debiasing experiment (gen seed 7, spurious rate
0.95, 4000/1000 splits, stock training defaults) runs once in a shared
fixture and backs the experiment, neutrality, and runtime criteria.
"""

import json
import math
import time

import numpy as np
import pytest

from cfdetox import autodiff as A
from cfdetox import data as D
from cfdetox import effects as E
from cfdetox import model as M
from cfdetox import training as T
from cfdetox.cli import main
from cfdetox.data import CorpusEncoder, encode_batch
from cfdetox.lexicon import load_lexicon, match_biased_tokens
from cfdetox.metrics import Confusion, accuracy, f1_binary, fpr
from helpers import ccdf_scenarios, gradcheck, graph_effects, harmonic_fusion, make_batch, sentences_of, total_loss


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared synthetic experiment (criteria: experiment, neutrality)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    root = tmp_path_factory.mktemp("experiment")
    data_dir, run_dir = root / "data", root / "run"
    t0 = time.time()
    assert main(["gen", "--seed", "7", "--out", str(data_dir),
                 "--spurious-rate", "0.95", "--n-train", "4000", "--n-test", "1000"]) == 0
    assert main(["train", "--data", str(data_dir), "--out", str(run_dir)]) == 0
    reports = {}
    for split in ("test_iid", "test_flipped"):
        for rule in ("tie", "te"):
            out = run_dir / f"report-{split}-{rule}.json"
            assert main(["eval", "--checkpoint", str(run_dir / "model.bin"),
                         "--data", str(data_dir / f"{split}.jsonl"),
                         "--lexicon", str(data_dir / "lexicon.csv"),
                         "--inference", rule, "--out", str(out)]) == 0
            reports[(split, rule)] = json.loads(out.read_text(encoding="utf-8"))
    elapsed = time.time() - t0
    return {"data_dir": data_dir, "run_dir": run_dir, "reports": reports, "elapsed": elapsed}


def _fpr(report_dict) -> float:
    c = report_dict["confusion"]
    return c["fp"] / (c["fp"] + c["tn"])


def test_synthetic_debiasing_experiment(experiment):
    reports = experiment["reports"]
    fpr_tie = _fpr(reports[("test_flipped", "tie")])
    fpr_te = _fpr(reports[("test_flipped", "te")])
    acc_tie = reports[("test_iid", "tie")]["accuracy"]
    acc_te = reports[("test_iid", "te")]["accuracy"]
    elapsed = experiment["elapsed"]
    ok = (fpr_tie <= 0.5 * fpr_te) and (acc_te - acc_tie <= 0.02) and (elapsed < 600)
    report(
        "synthetic debiasing experiment",
        ok,
        f"flipped FPR tie={fpr_tie:.3f} vs te={fpr_te:.3f} (need tie <= {0.5 * fpr_te:.3f}); "
        f"iid acc tie={acc_tie:.3f} vs te={acc_te:.3f} (degradation {acc_te - acc_tie:+.3f} <= 0.02); "
        f"runtime {elapsed:.0f}s < 600s",
    )


def test_nobias_neutrality(experiment):
    from cfdetox.cli import _load_checkpoint

    params, config, vocab = _load_checkpoint(str(experiment["run_dir"] / "model.bin"))
    lexicon = load_lexicon(experiment["data_dir"] / "lexicon.csv")
    checked = mismatches = 0
    for split in ("test_iid.jsonl", "test_flipped.jsonl"):
        corpus = D.load_jsonl(experiment["data_dir"] / split)
        encoder = CorpusEncoder(corpus, lexicon, vocab, config.lx, config.lb)
        empty_b = [i for i, (tokens, _) in enumerate(sentences_of(corpus))
                   if not match_biased_tokens(tokens, lexicon)]
        for start in range(0, len(empty_b), 64):
            chunk = empty_b[start : start + 64]
            batch = encode_batch(encoder, chunk)
            records = T.predict_batch(params, batch, config.spec)
            checked += len(records)
            mismatches += sum(1 for r in records if r["tie_label"] != r["te_label"])
    report("NOBIAS neutrality", checked > 0 and mismatches == 0,
           f"{checked} empty-bias examples, {mismatches} tie/te label mismatches")


# ---------------------------------------------------------------------------
# fusion exactness
# ---------------------------------------------------------------------------

def test_fusion_exactness():
    score = math.atanh(0.5)
    fused = M.fuse(*(A.const(np.full(2, score)) for _ in range(3))).data
    target = math.log(0.125 / 1.125)
    err_main = np.abs(fused - target).max()

    guarded = M.fuse(A.const([-1.0, 1.0]), A.const([1.0, 1.0]), A.const([1.0, 1.0])).data[0]
    guard_target = math.log(1e-12 / (1 + 1e-12))
    err_guard = abs(guarded - guard_target)
    report("fusion exactness", err_main <= 1e-6 and err_guard <= 1e-9,
           f"|fused - {target:.4f}| = {err_main:.2e} <= 1e-6; guard err {err_guard:.2e} <= 1e-9")


# ---------------------------------------------------------------------------
# causal identity: tie = te - nde
# ---------------------------------------------------------------------------

def test_causal_identity():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(1000):
        # full model: real forward passes under random parameters and inputs
        if trial % 5 == 0:
            cfg = M.ModelConfig(vocab_size=9, embed_dim=4, hidden=5)
            params = M.init_params(cfg, rng)
            for v in params.values():
                v.data = v.data + rng.normal(0, 0.5, v.data.shape)
            batch = make_batch(rng, n=1, vocab_size=9, lx=5, lb=3)
            bundle = E.effects(*ccdf_scenarios(params, batch))
        else:
            y_e, y_x, y_b, c_e, c_x, y_b_star = (rng.normal(size=2) * 2 for _ in range(6))
            bundle = graph_effects((y_e, y_x), (c_e, c_x), y_b, y_b_star)
        worst = max(worst, np.abs(bundle.tie - (bundle.te - bundle.nde)).max())
        for variant in ("no_Fe", "no_Fx"):
            y_live, y_b, c_blk, y_b_star = (rng.normal(size=2) * 2 for _ in range(4))
            bundle = graph_effects((y_live,), (c_blk,), y_b, y_b_star)
            direct = harmonic_fusion([y_live, y_b]) - harmonic_fusion([c_blk, y_b])
            worst = max(worst, np.abs(bundle.tie - (bundle.te - bundle.nde)).max())
            worst = max(worst, np.abs(bundle.tie - direct).max())
    report("causal identity tie = te - nde", worst <= 1e-12,
           f"worst |tie - (te - nde)| = {worst:.2e} over 1000 parameterizations x 3 variants")


# ---------------------------------------------------------------------------
# counterfactual invariance
# ---------------------------------------------------------------------------

def test_counterfactual_x_invariance():
    rng = np.random.default_rng(1)
    cfg = M.ModelConfig(vocab_size=14, embed_dim=6, hidden=8)
    params = M.init_params(cfg, rng)
    for v in params.values():
        v.data = v.data + rng.normal(0, 0.3, v.data.shape)
    exact = 0
    for _ in range(100):
        a = make_batch(rng, n=1, vocab_size=14, lx=7, lb=4)
        b = make_batch(rng, n=1, vocab_size=14, lx=7, lb=4)
        b = type(b)(x_ids=b.x_ids, b_ids=a.b_ids, labels=b.labels)
        fa, fb = (M.counterfactual_logits(params, M.ccdf_forward(params, batch).y_b).data
                  for batch in (a, b))
        exact += int((fa == fb).all())
    report("counterfactual X-invariance", exact == 100,
           f"{exact}/100 sentence pairs sharing the bias tokens match bit-exactly")


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------

def test_gradient_checks(monkeypatch):
    # lift the bias head's gradient stop so the analytic gradient equals
    # the true derivative of the loss
    monkeypatch.setattr(A, "stop_gradient", lambda x: x)
    t0 = time.time()
    checked = skipped = 0
    worst = 0.0
    seed = 0
    while checked < 100:
        seed += 1
        rng = np.random.default_rng(seed)
        cfg = M.ModelConfig(vocab_size=10, embed_dim=4, hidden=6)
        params = M.init_params(cfg, rng)
        for v in params.values():
            v.data = v.data + rng.normal(0, 0.4, v.data.shape)
        batch = make_batch(rng, n=2, vocab_size=10, lx=5, lb=3)

        logits = M.ccdf_forward(params, batch)
        z = np.tanh(logits.y_e.data) * np.tanh(logits.y_x.data) * np.tanh(logits.y_b.data)
        z_cf = (np.tanh(params["const.c"].data) * np.tanh(params["const.c"].data)
                * np.tanh(logits.y_b.data))
        if min(np.abs(z).min(), np.abs(z_cf).min()) < 1e-3:
            skipped += 1  # a +-1e-5 probe could cross the fusion guard's kink
            continue

        def build():
            logits = M.ccdf_forward(params, batch)
            loss = total_loss(logits, batch.labels)
            fused_cf = M.counterfactual_logits(params, logits.y_b)
            return A.add(loss, A.cross_entropy(fused_cf, batch.labels))

        worst = max(worst, gradcheck(build, list(params.values()),
                                     max_entries_per_leaf=3, rng=np.random.default_rng(seed)))
        checked += 1
    elapsed = time.time() - t0
    report("gradient checks", worst < 1e-4 and elapsed < 60,
           f"worst rel err {worst:.2e} < 1e-4 over {checked} seeds "
           f"({skipped} resampled near the guard kink), {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# gradient stop
# ---------------------------------------------------------------------------

def test_gradient_stop():
    rng = np.random.default_rng(2)
    cfg = M.ModelConfig(vocab_size=12, embed_dim=5, hidden=7)
    params = M.init_params(cfg, rng)
    for v in params.values():
        v.data = v.data + rng.normal(0, 0.3, v.data.shape)
    encoder_names = [n for n in params if n.startswith("encoder.")]
    worst = 0.0
    min_bias_grad = np.inf
    for _ in range(20):
        batch = make_batch(rng, n=4, vocab_size=12)

        A.zero_grads(params.values())
        terms = T.loss_terms(M.ccdf_forward(params, batch), batch.labels)
        loss = terms["f"]
        for k in ("e", "x", "b"):
            loss = A.add(loss, terms[k])
        A.backward(loss)
        full = {n: params[n].grad.copy() for n in encoder_names}
        bias_own = max(np.abs(params[f"branch.b.{p}"].grad).max() for p in ("w1", "b1", "w2", "b2"))
        min_bias_grad = min(min_bias_grad, bias_own)

        A.zero_grads(params.values())
        terms = T.loss_terms(M.ccdf_forward(params, batch), batch.labels)
        loss = terms["f"]
        for k in ("e", "x"):
            loss = A.add(loss, terms[k])
        A.backward(loss)
        for n in encoder_names:
            worst = max(worst, np.abs(full[n] - params[n].grad).max())
    report("gradient stop", worst <= 1e-12 and min_bias_grad > 0,
           f"max encoder-grad difference {worst:.2e} <= 1e-12; "
           f"bias-head own grads >= {min_bias_grad:.2e} > 0")


# ---------------------------------------------------------------------------
# metric oracle
# ---------------------------------------------------------------------------

def test_metric_oracle():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        preds = rng.integers(0, 2, n).tolist()
        labels = rng.integers(0, 2, n).tolist()
        tp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 1)
        fp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 0)
        tn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 0)
        fn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 1)
        c = Confusion.from_pairs(preds, labels)
        assert (c.tp, c.fp, c.tn, c.fn) == (tp, fp, tn, fn)
        assert accuracy(c) == (tp + tn) / n
        if tp + fp == 0 or tp + fn == 0:
            assert f1_binary(c) is None
        else:
            precision, recall = tp / (tp + fp), tp / (tp + fn)
            expected = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
            assert f1_binary(c) == expected
        if fp + tn == 0:
            assert fpr(c) is None
        else:
            assert fpr(c) == fp / (fp + tn)
        checked += 1
    report("metric oracle", checked == 1000,
           f"Acc/F1/FPR equal the brute-force confusion counts on {checked} random vectors")


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_training_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert main(["gen", "--seed", "11", "--out", str(data_dir),
                 "--n-train", "200", "--n-test", "20"]) == 0
    blobs = []
    for name in ("a", "b"):
        run = tmp_path / name
        assert main(["train", "--data", str(data_dir), "--out", str(run),
                     "--epochs", "1", "--batch-size", "8", "--hidden", "16",
                     "--embed-dim", "16", "--lx", "16", "--lb", "4",
                     "--eval-every-steps", "10", "--seed", "13"]) == 0
        blobs.append((run / "model.bin").read_bytes())
    report("training determinism", blobs[0] == blobs[1],
           f"two identically-configured runs produced byte-identical checkpoints "
           f"({len(blobs[0])} bytes)")
