import math

import numpy as np
import pytest

import cfdetox.training as T
from cfdetox import autodiff as A
from cfdetox import model as M
from cfdetox.checkpoint import save_params
from cfdetox.data import Vocab, encode_batch, generate_synthetic_corpus, synthetic_lexicon
from cfdetox.effects import inference_records
from cfdetox.errors import ContractError, NumericsError, ValidationError
from cfdetox.model import ScenarioLogits, ccdf_forward
from cfdetox.training import (
    MODE_SPECS,
    TrainConfig,
    evaluate,
    invariant_response_loss,
    lmixin_forward,
    loss_terms,
    mode_forward,
    predict_batch,
    sentence_branch_forward,
    train,
)
from helpers import ccdf_scenarios, examples_from, make_batch, total_loss


def small_config(**overrides):
    base = dict(epochs=1, batch_size=4, learning_rate=1e-3, dropout=0.1,
                hidden=8, lx=12, lb=4, eval_every_steps=5, seed=0,
                mode="ccdf", embed_dim=8)
    base.update(overrides)
    return TrainConfig(**base)


def small_corpus(seed=0, n=48):
    train_set, test_iid, _ = generate_synthetic_corpus(seed, n, max(8, n // 4), 0.9)
    return train_set, test_iid, synthetic_lexicon()


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def zero_logits(n=2):
    zero = A.const(np.zeros((n, 2)))
    return ScenarioLogits(y_e=zero, y_x=zero, y_b=zero, fused=zero, scenario="factual")


def test_total_loss_uniform_scores_is_four_ln_two():
    labels = np.array([0, 1])
    loss = total_loss(zero_logits(), labels)
    assert float(loss.data) == pytest.approx(4 * math.log(2), abs=1e-12)


def test_total_loss_rejects_bad_labels():
    with pytest.raises(ValidationError):
        total_loss(zero_logits(), np.array([0, 2]))


def test_total_loss_needs_factual_scenario(tiny_params):
    batch = make_batch(np.random.default_rng(0), n=2)
    logits = M.counterfactual_logits(tiny_params, ccdf_forward(tiny_params, batch).y_b)
    with pytest.raises(ContractError):
        total_loss(logits, batch.labels)


def test_encoder_gradient_sees_no_bias_loss(tiny_params):
    rng = np.random.default_rng(1)
    batch = make_batch(rng, n=4)
    encoder_names = [n for n in tiny_params if n.startswith("encoder.")]

    def encoder_grads(include_bias_term):
        A.zero_grads(tiny_params.values())
        terms = loss_terms(ccdf_forward(tiny_params, batch), batch.labels)
        keys = ("f", "e", "x", "b") if include_bias_term else ("f", "e", "x")
        loss = terms[keys[0]]
        for k in keys[1:]:
            loss = A.add(loss, terms[k])
        A.backward(loss)
        return {n: tiny_params[n].grad.copy() for n in encoder_names}

    full = encoder_grads(True)
    partial = encoder_grads(False)
    for name in encoder_names:
        assert np.abs(full[name] - partial[name]).max() <= 1e-12


def test_bias_head_still_trains(tiny_params):
    rng = np.random.default_rng(2)
    for v in tiny_params.values():  # leave the zero-weight init point
        v.data = v.data + rng.normal(0, 0.3, v.data.shape)
    batch = make_batch(rng, n=4)
    A.zero_grads(tiny_params.values())
    terms = loss_terms(ccdf_forward(tiny_params, batch), batch.labels)
    A.backward(terms["b"])
    assert np.abs(tiny_params["branch.b.w1"].grad).max() > 0
    assert np.abs(tiny_params["branch.b.b2"].grad).max() > 0
    for name in tiny_params:
        if name.startswith("encoder."):
            assert tiny_params[name].grad is None


def test_invariant_response_loss_reaches_only_the_responses(tiny_params):
    rng = np.random.default_rng(3)
    batch = make_batch(rng, n=4)
    A.zero_grads(tiny_params.values())
    logits = ccdf_forward(tiny_params, batch)
    A.backward(invariant_response_loss(logits, tiny_params, batch.labels))
    touched = {n for n, v in tiny_params.items() if v.grad is not None and np.abs(v.grad).max() > 0}
    assert touched <= {"const.c_e", "const.c_x"}
    assert "const.c_e" in touched


# ---------------------------------------------------------------------------
# mode wiring
# ---------------------------------------------------------------------------

def test_branches_per_mode():
    table = {mode: (spec.branches, spec.invariant_responses, spec.rules, spec.selection_rule, spec.mask_bias)
             for mode, spec in MODE_SPECS.items()}
    assert table == {
        "ccdf": (("e", "x", "b"), True, ("tie", "te", "factual"), "tie", False),
        "lmixin": (("x", "b"), False, ("factual",), "factual", False),
        "vanilla": (("x",), False, ("factual",), "factual", False),
        "masking": (("x",), False, ("factual",), "factual", True),
    }


def test_mode_forward_loss_terms_per_mode(tiny_params):
    batch = make_batch(np.random.default_rng(9), n=3)
    keys = {mode: list(loss_terms(mode_forward(spec, tiny_params, batch), batch.labels))
            for mode, spec in MODE_SPECS.items()}
    assert keys == {"ccdf": ["f", "e", "x", "b"], "lmixin": ["f", "x", "b"],
                    "masking": ["x"], "vanilla": ["x"]}
    # every mode's sentence head is the same function of the sentence
    y_x = sentence_branch_forward(tiny_params, batch).data
    for spec in MODE_SPECS.values():
        assert (mode_forward(spec, tiny_params, batch).y_x.data == y_x).all()
    # and both modes with a bias head share it
    y_b = [mode_forward(MODE_SPECS[mode], tiny_params, batch).y_b.data for mode in ("ccdf", "lmixin")]
    assert (y_b[0] == y_b[1]).all()


def test_config_rejects_unknown_mode():
    with pytest.raises(ValidationError, match="ccdf"):
        small_config(mode="secret")


def test_lmixin_forward_has_no_ensemble(tiny_params):
    batch = make_batch(np.random.default_rng(4), n=2)
    y_x, y_b, fused = lmixin_forward(tiny_params, batch)
    z = np.tanh(y_x.data) * np.tanh(y_b.data)
    expected = np.log(np.maximum(z, 1e-12)) - np.log(1 + np.maximum(z, 1e-12))
    assert fused.data == pytest.approx(expected, abs=1e-12)


def test_lmixin_bias_path_detached_from_encoder(tiny_params):
    batch = make_batch(np.random.default_rng(5), n=3)
    A.zero_grads(tiny_params.values())
    _, y_b, _ = lmixin_forward(tiny_params, batch)
    A.backward(A.cross_entropy(y_b, batch.labels))
    assert tiny_params["encoder.embed"].grad is None


def test_sentence_branch_ignores_bias_input(tiny_params):
    rng = np.random.default_rng(6)
    batch = make_batch(rng, n=2)
    other = type(batch)(x_ids=batch.x_ids, b_ids=np.roll(batch.b_ids, 1, axis=1),
                        x_mask=batch.x_mask, b_mask=batch.b_mask, labels=batch.labels)
    a = sentence_branch_forward(tiny_params, batch)
    b = sentence_branch_forward(tiny_params, other)
    assert (a.data == b.data).all()


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_train_is_deterministic(tmp_path):
    train_set, _, lexicon = small_corpus()
    valid = train_set[-8:]
    results = []
    for run in range(2):
        res = train(small_config(), train_set[:-8], valid, lexicon)
        path = tmp_path / f"ck{run}.bin"
        save_params(path, res.params)
        results.append(path.read_bytes())
    assert results[0] == results[1]


def test_train_rejects_empty_split():
    train_set, _, lexicon = small_corpus()
    with pytest.raises(ValidationError):
        train(small_config(), [], train_set[:4], lexicon)
    with pytest.raises(ValidationError):
        train(small_config(), train_set[:4], [], lexicon)


@pytest.mark.parametrize("eval_every_steps,n_validations", [
    (4, 7),  # 4 divides the last step: 28 / 4 calls, no second call at the end
    (5, 6),  # steps 5, 10, 15, 20, 25 and the last step
    (100, 1),  # the last step only
])
def test_train_selects_first_best_validated_step(monkeypatch, eval_every_steps, n_validations):
    train_set, _, lexicon = small_corpus(n=64)
    calls = []
    original = T.evaluate

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(T, "evaluate", counting)
    cfg = small_config(epochs=2, eval_every_steps=eval_every_steps)
    res = train(cfg, train_set[:-8], train_set[-8:], lexicon)  # 2 epochs of 14 steps
    last_step = 28
    assert [log.step for log in res.history] == list(range(1, last_step + 1))
    validated = [log for log in res.history if log.step % eval_every_steps == 0 or log.step == last_step]
    steps = {log.step for log in validated}
    assert all(log.val_f1 is None for log in res.history if log.step not in steps)
    assert len(calls) == len(validated) == n_validations
    scores = [log.val_f1 or 0.0 for log in validated]
    first_best = validated[scores.index(max(scores))]
    assert (res.best_step, res.best_val_f1) == (first_best.step, first_best.val_f1)


def test_train_aborts_on_non_finite_loss(monkeypatch):
    train_set, _, lexicon = small_corpus()

    original = M.init_params

    def poisoned(cfg, rng, branches=M.BRANCHES, consts=True):
        params = original(cfg, rng, branches=branches, consts=consts)
        params["encoder.embed"].data[0, 0] = np.nan
        return params

    monkeypatch.setattr(T.M, "init_params", poisoned)
    with pytest.raises(NumericsError, match="step 1"):
        train(small_config(), train_set[:-8], train_set[-8:], lexicon)


def test_train_masking_mode_masks_training_batches_only(monkeypatch):
    train_set, test_set, lexicon = small_corpus()
    seen_flags = []
    original = T.encode_batch

    def recording(*args, **kwargs):
        seen_flags.append(kwargs.get("mask_bias", False))
        return original(*args, **kwargs)

    monkeypatch.setattr(T, "encode_batch", recording)
    cfg = small_config(mode="masking", eval_every_steps=1000)
    res = train(cfg, train_set[:-8], train_set[-8:], lexicon)
    # training batches masked, validation batches (inside evaluate) not
    assert True in seen_flags and False in seen_flags

    seen_flags.clear()
    evaluate(res.params, cfg, test_set, lexicon, res.vocab, "factual")
    assert set(seen_flags) == {False}


def test_mode_parameter_sets():
    train_set, _, lexicon = small_corpus()
    for mode, expected_heads in (("ccdf", {"e", "x", "b"}), ("lmixin", {"x", "b"}),
                                 ("vanilla", {"x"}), ("masking", {"x"})):
        res = train(small_config(mode=mode, epochs=1), train_set[:16], train_set[-8:], lexicon)
        heads = {n.split(".")[1] for n in res.params if n.startswith("branch.")}
        assert heads == expected_heads
        assert ("const.c_e" in res.params) == (mode == "ccdf")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_reports_requested_rule_and_all_rules():
    train_set, test_set, lexicon = small_corpus(n=64)
    cfg = small_config()
    res = train(cfg, train_set[:-8], train_set[-8:], lexicon)
    report = evaluate(res.params, cfg, test_set, lexicon, res.vocab, "tie")
    assert report.inference == "tie"
    assert set(report.by_rule) == {"tie", "te", "factual"}
    assert report.dataset_size == len(test_set)
    assert report.confusion.size == len(test_set)


def test_evaluate_empty_set_is_error(tiny_lexicon):
    train_set, _, lexicon = small_corpus()
    cfg = small_config()
    res = train(cfg, train_set[:16], train_set[-8:], lexicon)
    with pytest.raises(ValidationError):
        evaluate(res.params, cfg, [], lexicon, res.vocab, "tie")


def test_single_branch_checkpoint_rejects_tie_inference():
    train_set, test_set, lexicon = small_corpus()
    cfg = small_config(mode="vanilla")
    res = train(cfg, train_set[:16], train_set[-8:], lexicon)
    with pytest.raises(ValidationError, match="requires a ccdf checkpoint"):
        evaluate(res.params, cfg, test_set, lexicon, res.vocab, "tie")


def test_predict_batch_reuses_the_factual_bias_score():
    # the NOBIAS reference built from the bias head alone must give the
    # records of the reference built from a full factual pass, bit for bit
    rng = np.random.default_rng(10)
    for _ in range(20):
        cfg = M.ModelConfig(vocab_size=11, embed_dim=5, hidden=6)
        params = M.init_params(cfg, rng)
        for v in params.values():
            v.data = v.data + rng.normal(0, 0.5, v.data.shape)
        batch = make_batch(rng, n=int(rng.integers(1, 9)), vocab_size=11, lx=7, lb=4)
        expected = inference_records(*ccdf_scenarios(params, batch))
        assert predict_batch(params, batch, MODE_SPECS["ccdf"]) == expected


@pytest.mark.parametrize("mode", ["ccdf", "vanilla"])
def test_predict_batch_records_no_graph(monkeypatch, mode):
    # inference on trainable parameters must not allocate a single
    # backward closure; the same forward in training does
    spec = MODE_SPECS[mode]
    cfg = M.ModelConfig(vocab_size=11, embed_dim=5, hidden=6)
    params = M.init_params(cfg, np.random.default_rng(12), spec.branches, spec.invariant_responses)
    batch = make_batch(np.random.default_rng(13), n=3, vocab_size=11)
    nodes = []
    make_node = A._node

    def recording_node(*args):
        nodes.append(make_node(*args))
        return nodes[-1]

    monkeypatch.setattr(A, "_node", recording_node)
    mode_forward(spec, params, batch)
    assert any(n._backward_fn is not None for n in nodes)
    nodes.clear()
    assert len(predict_batch(params, batch, spec)) == 3
    assert nodes
    assert [n.op for n in nodes if n._backward_fn is not None] == []


@pytest.mark.parametrize("mode, rule, message", [
    pytest.param("ccdf", "oracle", "unknown inference rule", id="unknown-rule"),
    pytest.param("vanilla", "tie", "requires a ccdf checkpoint", id="rule-needs-ccdf"),
])
def test_evaluate_rejects_rule_before_encoding(monkeypatch, tiny_params, tiny_lexicon, mode, rule, message):
    examples = examples_from([("black hoe text", 1), ("plain words", 0)])
    encoded = []
    monkeypatch.setattr(T, "encode_batch", lambda *args, **kwargs: encoded.append(args))
    with pytest.raises(ValidationError, match=message):
        evaluate(tiny_params, small_config(mode=mode), examples, tiny_lexicon, Vocab.build(examples), rule)
    assert len(encoded) == 0


def test_evaluate_records_end_with_sorted_categories(tiny_params, tiny_lexicon):
    # predict_batch returns model output only; evaluate appends the
    # matched lexicon categories as each record's last key
    examples = examples_from([("black hoe text", 1), ("plain words", 0)])
    config = small_config(embed_dim=5, hidden=7, lx=6, lb=4)
    records = evaluate(tiny_params, config, examples, tiny_lexicon, Vocab.build(examples), "tie").records
    assert [list(r)[-1] for r in records] == ["categories", "categories"]
    assert records[0]["categories"] == ["OnI", "nOI"]
    assert records[1]["categories"] == []
