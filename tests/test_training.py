import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

import cfdetox.training as T
from cfdetox import autodiff as A
from cfdetox import model as M
from cfdetox.checkpoint import save_params
from cfdetox.data import (
    NOBIAS_ID,
    RESERVED,
    SEP_ID,
    EncodedBatch,
    Vocab,
    generate_synthetic_corpus,
    synthetic_lexicon,
)
from cfdetox.errors import NumericsError, ValidationError, VocabularyError
from cfdetox.lexicon import Lexicon
from cfdetox.model import ScenarioLogits, ccdf_forward
from cfdetox.optim import AdamWState
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
from helpers import corpus_from, encode_reference, make_batch, records_alone, total_loss


def small_config(**overrides):
    base = dict(epochs=1, batch_size=4, learning_rate=1e-3, dropout=0.1,
                hidden=8, lx=12, lb=4, eval_every_steps=5, seed=0,
                mode="ccdf", embed_dim=8)
    base.update(overrides)
    return TrainConfig(**base)


def corpora(*splits):
    """Each list of (text, label) records as the corpus ``train`` and ``evaluate`` read."""
    return [corpus_from(split) for split in splits]


def small_corpus(seed=0, n=48):
    train_set, test_iid, _ = generate_synthetic_corpus(seed, n, max(8, n // 4), 0.9)
    return train_set, test_iid, synthetic_lexicon()


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def zero_logits(n=2):
    zero = A.const(np.zeros((n, 2)))
    return ScenarioLogits(y_e=zero, y_x=zero, y_b=zero, fused=zero)


def test_total_loss_uniform_scores_is_four_ln_two():
    labels = np.array([0, 1])
    loss = total_loss(zero_logits(), labels)
    assert float(loss.data) == pytest.approx(4 * math.log(2), abs=1e-12)


def test_total_loss_rejects_bad_labels():
    with pytest.raises(ValidationError):
        total_loss(zero_logits(), np.array([0, 2]))


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


@pytest.mark.parametrize("labels, shown", [([0, 2, 1], "[0, 1, 2]"), ([0.5, 1.0, 0.0], "[0.0, 0.5, 1.0]"),
                                           ([-1, 0, 0], "[-1, 0]")])
def test_losses_reject_labels_other_than_0_and_1(tiny_params, labels, shown):
    logits = ccdf_forward(tiny_params, make_batch(np.random.default_rng(3), n=3))
    for loss in (lambda: loss_terms(logits, np.array(labels)),
                 lambda: invariant_response_loss(logits, tiny_params, np.array(labels))):
        with pytest.raises(ValidationError, match=rf"^labels must be 0/1, got values {re.escape(shown)}$"):
            loss()


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
    assert touched == {"const.c"}


# ---------------------------------------------------------------------------
# mode wiring
# ---------------------------------------------------------------------------

def test_branches_per_mode():
    # the middle column is whether the mode's parameters hold the invariant response
    table = {mode: (spec.branches, "const.c" in M.param_shapes(TrainConfig(mode=mode).model_config(20)),
                    spec.rules, spec.selection_rule, spec.mask_bias)
             for mode, spec in MODE_SPECS.items()}
    assert table == {
        "ccdf": (("e", "x", "b"), True, ("tie", "te", "factual"), "tie", False),
        "lmixin": (("x", "b"), False, ("factual",), "factual", False),
        "vanilla": (("x",), False, ("factual",), "factual", False),
        "masking": (("x",), False, ("factual",), "factual", True),
    }


@pytest.mark.parametrize("mode", list(MODE_SPECS))
def test_model_config_carries_the_modes_schema(mode):
    # one ModelConfig names the heads, so the schema a run is loaded against
    # is the one it was trained with, const.c included iff the mode has tie
    spec = MODE_SPECS[mode]
    cfg = TrainConfig(mode=mode, embed_dim=4, hidden=3).model_config(9)
    assert cfg.branches == spec.branches
    shapes = M.param_shapes(cfg)
    params = M.init_params(cfg, np.random.default_rng(0))
    assert list(shapes.items()) == [(name, p.data.shape) for name, p in params.items()]
    assert ("const.c" in shapes) == ("tie" in spec.rules)
    heads = [name for name in shapes if name.startswith("branch.")]
    assert heads == [f"branch.{br}.{w}" for br in spec.branches for w in ("w1", "b1", "w2", "b2")]


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
    other = type(batch)(x_ids=batch.x_ids, b_ids=np.roll(batch.b_ids, 1, axis=1), labels=batch.labels)
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
        res = train(small_config(), *corpora(train_set[:-8], valid), lexicon)
        path = tmp_path / f"ck{run}.bin"
        save_params(path, res.params)
        results.append(path.read_bytes())
    assert results[0] == results[1]


def test_train_rejects_empty_split():
    train_set, _, lexicon = small_corpus()
    with pytest.raises(ValidationError):
        train(small_config(), *corpora([], train_set[:4]), lexicon)
    with pytest.raises(ValidationError):
        train(small_config(), *corpora(train_set[:4], []), lexicon)


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
    res = train(cfg, *corpora(train_set[:-8], train_set[-8:]), lexicon)  # 2 epochs of 14 steps
    last_step = 28
    assert [log.step for log in res.history] == list(range(1, last_step + 1))
    validated = [log for log in res.history if log.step % eval_every_steps == 0 or log.step == last_step]
    steps = {log.step for log in validated}
    assert all(log.val_f1 is None for log in res.history if log.step not in steps)
    assert len(calls) == len(validated) == n_validations
    scores = [log.val_f1 or 0.0 for log in validated]
    first_best = validated[scores.index(max(scores))]
    assert (res.best_step, res.best_val_f1) == (first_best.step, first_best.val_f1)


def test_train_releases_each_step_graph_before_the_next_forward(monkeypatch):
    train_set, _, lexicon = small_corpus()
    fused, alive_at_forward = [], []
    original = T.mode_forward

    def recording(*args, **kwargs):
        alive_at_forward.append(any(ref() is not None for ref in fused))
        logits = original(*args, **kwargs)
        fused.append(weakref.ref(logits.fused.data))  # Value has no weakref slot; its array dies with it
        return logits

    monkeypatch.setattr(T, "mode_forward", recording)
    res = train(small_config(), *corpora(train_set[:-8], train_set[-8:]), lexicon)
    assert len(fused) == len(res.history) > 1
    assert not any(alive_at_forward)


def test_train_aborts_on_non_finite_loss(monkeypatch):
    train_set, _, lexicon = small_corpus()

    original = M.init_params

    def poisoned(cfg, rng):
        params = original(cfg, rng)
        params["encoder.embed"].data[0, 0] = np.nan
        return params

    monkeypatch.setattr(T.M, "init_params", poisoned)
    with pytest.raises(NumericsError, match="step 1"):
        train(small_config(), *corpora(train_set[:-8], train_set[-8:]), lexicon)


def test_train_masking_mode_masks_training_batches_only(monkeypatch):
    train_set, test_set, lexicon = small_corpus()
    seen_flags = []
    original = T.CorpusEncoder

    def recording(*args, **kwargs):
        seen_flags.append(kwargs.get("mask_bias", False))
        return original(*args, **kwargs)

    monkeypatch.setattr(T, "CorpusEncoder", recording)
    cfg = small_config(mode="masking", eval_every_steps=1000)
    res = train(cfg, *corpora(train_set[:-8], train_set[-8:]), lexicon)
    # training batches masked, validation batches (inside evaluate) not
    assert True in seen_flags and False in seen_flags

    seen_flags.clear()
    evaluate(res.params, cfg, corpus_from(test_set), lexicon, res.vocab, "factual")
    assert set(seen_flags) == {False}


def test_mode_parameter_sets():
    train_set, _, lexicon = small_corpus()
    for mode, expected_heads in (("ccdf", {"e", "x", "b"}), ("lmixin", {"x", "b"}),
                                 ("vanilla", {"x"}), ("masking", {"x"})):
        res = train(small_config(mode=mode, epochs=1), *corpora(train_set[:16], train_set[-8:]), lexicon)
        heads = {n.split(".")[1] for n in res.params if n.startswith("branch.")}
        assert heads == expected_heads
        assert ("const.c" in res.params) == (mode == "ccdf")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_reports_requested_rule_and_all_rules():
    train_set, test_set, lexicon = small_corpus(n=64)
    cfg = small_config()
    res = train(cfg, *corpora(train_set[:-8], train_set[-8:]), lexicon)
    report, _ = evaluate(res.params, cfg, corpus_from(test_set), lexicon, res.vocab, "tie")
    assert report.inference == "tie"
    assert set(report.by_rule) == {"tie", "te", "factual"}
    assert report.dataset_size == len(test_set)
    assert report.confusion.size == len(test_set)


def test_evaluate_empty_set_is_error(tiny_lexicon):
    train_set, _, lexicon = small_corpus()
    cfg = small_config()
    res = train(cfg, *corpora(train_set[:16], train_set[-8:]), lexicon)
    with pytest.raises(ValidationError):
        evaluate(res.params, cfg, corpus_from([]), lexicon, res.vocab, "tie")


def test_single_branch_checkpoint_rejects_tie_inference():
    train_set, test_set, lexicon = small_corpus()
    cfg = small_config(mode="vanilla")
    res = train(cfg, *corpora(train_set[:16], train_set[-8:]), lexicon)
    with pytest.raises(ValidationError, match="requires a ccdf checkpoint"):
        evaluate(res.params, cfg, corpus_from(test_set), lexicon, res.vocab, "tie")


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
        assert predict_batch(params, batch, MODE_SPECS["ccdf"]) == records_alone(params, batch)


@pytest.mark.parametrize("mode", ["ccdf", "vanilla"])
def test_predict_batch_records_no_graph(monkeypatch, mode):
    # inference on trainable parameters must not allocate a single
    # backward closure; the same forward in training does
    spec = MODE_SPECS[mode]
    cfg = TrainConfig(mode=mode, embed_dim=5, hidden=6).model_config(11)
    params = M.init_params(cfg, np.random.default_rng(12))
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
    corpus = corpus_from([("black hoe text", 1), ("plain words", 0)])
    encoded = []
    monkeypatch.setattr(T, "CorpusEncoder", lambda *args, **kwargs: encoded.append(args))
    with pytest.raises(ValidationError, match=message):
        evaluate(tiny_params, small_config(mode=mode), corpus, tiny_lexicon, Vocab.build(corpus), rule)
    assert len(encoded) == 0


def test_evaluate_records_end_with_sorted_categories(tiny_params, tiny_lexicon):
    # predict_batch returns model output only; evaluate appends the
    # matched lexicon categories as each record's last key
    corpus = corpus_from([("black hoe text", 1), ("plain words", 0)])
    config = small_config(embed_dim=5, hidden=7, lx=6, lb=4)
    _, records = evaluate(tiny_params, config, corpus, tiny_lexicon, Vocab.build(corpus), "tie")
    assert [list(r)[-1] for r in records] == ["categories", "categories"]
    assert records[0]["categories"] == ["OnI", "nOI"]
    assert records[1]["categories"] == []


@pytest.mark.parametrize("n, length, embed_dim", [(1, 2, 5), (3, 7, 5), (64, 20, 128), (2, 115, 128)])
def test_encode_through_scoring_rows_is_the_per_slot_encoder_bit_for_bit(n, length, embed_dim):
    # scoring gathers each id's row from one encoder call over the distinct
    # ids; on multi-row batches that must be the per-slot encoder's bits,
    # pad slots (signed zeros included) too
    rng = np.random.default_rng(n * length)
    params = M.init_params(M.ModelConfig(vocab_size=300, embed_dim=embed_dim, hidden=4), rng)
    batch = make_batch(rng, n=n, vocab_size=300, lx=length, lb=4)
    scoring = T.scoring_params(params, batch)
    for ids in (batch.x_ids, batch.b_ids):
        gathered = M.encode(ids, scoring).data
        assert gathered.tobytes() == M.encode(ids, params).data.tobytes()


@pytest.mark.parametrize("n_ids", [2, 256, 257, 258, 513, 600])
def test_scoring_rows_are_one_per_marked_id_with_the_vocabulary_wide_bits(n_ids):
    # the compact table, filled in chunks, against the rows one encoder
    # call over every marked id gave when the table spanned the vocabulary
    rng = np.random.default_rng(n_ids)
    params = M.init_params(M.ModelConfig(vocab_size=700, embed_dim=128, hidden=4), rng)
    params["encoder.mix.b"].data = rng.normal(0.0, 0.3, 128)
    words = rng.choice(np.arange(NOBIAS_ID + 1, 700), n_ids - 1, replace=False)
    batch = EncodedBatch(x_ids=words[None, :], b_ids=np.array([[NOBIAS_ID]]), labels=np.array([0]))
    scoring = T.scoring_params(params, batch)
    marked = np.sort(np.append(words, NOBIAS_ID))
    assert scoring[M.ENCODED_INDEX].data[marked].tolist() == list(range(n_ids))
    assert scoring[M.ENCODED_ROWS].data.shape == (n_ids, 128)
    assert scoring[M.ENCODED_ROWS].data.tobytes() == encode_reference(marked, params).data.tobytes()


def _lines(records):
    """Records as the JSON lines ``eval --records`` writes, one per record."""
    return [json.dumps(record) for record in records]


def _scoring_model(rng):
    """The stock model's shapes over 200 ids, with output weights that are not zero."""
    params = M.init_params(M.ModelConfig(vocab_size=200, embed_dim=128, hidden=256), rng)
    for branch in ("e", "x", "b"):
        params[f"branch.{branch}.w2"].data = rng.normal(0.0, 0.5, (256, 2))
    return params


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 15, 16, 17, 18, 19, 20, 33, 50, 63, 64])
def test_scoring_in_blocks_gives_the_one_pass_records_byte_for_byte(n):
    # any block gives each row the bits of one pass over that row alone:
    # the padded width enters softmax and pooling sums, and OpenBLAS gives
    # the tail rows of the heads' [256, 2] product other bits than the
    # same rows inside a 4-row panel
    rng = np.random.default_rng(100 + n)
    params = _scoring_model(rng)
    batch = make_batch(rng, n=n, vocab_size=200, lx=24, lb=4)
    scoring = T.scoring_params(params, batch)
    assert _lines(predict_batch(params, batch, MODE_SPECS["ccdf"])) == _lines(records_alone(scoring, batch))


def test_scoring_blocks_fill_the_slot_budget_at_each_rows_own_width():
    # four widths over 1200 rows: each group fills blocks of up to
    # SCORING_SLOTS sentence slots (256 rows at Lx 8) and leaves a
    # remainder; every row keeps the bits it has scored alone
    rng = np.random.default_rng(30)
    params = _scoring_model(rng)
    n = 1200
    x_ids = rng.integers(NOBIAS_ID + 1, 200, (n, 9))
    x_ids[rng.random(n) < 0.5, 8] = 0
    b_ids = rng.integers(NOBIAS_ID + 1, 200, (n, 3))
    b_ids[:, 1] = SEP_ID
    b_ids[rng.random(n) < 0.3, 1:] = 0
    batch = EncodedBatch(x_ids, b_ids, rng.integers(0, 2, n))
    blocks = list(T._scoring_blocks(batch))
    assert sorted(np.concatenate([rows for rows, _ in blocks]).tolist()) == list(range(n))
    for rows, block in blocks:
        size, lx = block.x_ids.shape
        assert size % 4 == 0 and size * lx <= T.SCORING_SLOTS and size - len(rows) < 4
        assert (block.x_ids != 0).all() and (block.b_ids != 0).all()  # each row at exactly its width
        assert (block.x_ids[len(rows):] == batch.x_ids[rows[-1], :lx]).all()
    assert max(len(rows) for rows, _ in blocks) == 256
    scoring = T.scoring_params(params, batch)
    assert _lines(predict_batch(params, batch, MODE_SPECS["ccdf"])) == _lines(records_alone(scoring, batch))


def test_scoring_one_example_with_a_train_long_sized_model_stays_small(tiny_lexicon):
    # a vocabulary-wide rows table alone would be 3023 x 128 doubles
    words = [f"w{i}" for i in range(3019)]
    vocab = Vocab(list(RESERVED) + words)
    cfg = small_config(embed_dim=128, hidden=256, lx=128)
    params = M.init_params(cfg.model_config(len(vocab)), np.random.default_rng(25))
    corpus = corpus_from([(" ".join(words[:110] + ["black"]), 1)])
    tracemalloc.start()
    try:
        evaluate(params, cfg, corpus, tiny_lexicon, vocab, "tie")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_evaluating_a_train_long_shaped_split_peaks_below_the_64_row_batches():
    # 200 sentences of 100-115 ids from 3019 words: scored as 64-row
    # batches at their padded width, evaluate peaked at 5.52 MiB
    # (5,785,470 and 5,795,871 B in two runs); grouped by width, at 4.75
    rng = np.random.default_rng(28)
    words = [f"w{i}" for i in range(3019)]
    vocab = Vocab(list(RESERVED) + words)
    texts = [" ".join(list(rng.choice(words, rng.integers(100, 116))) + ["black", "zorp"][: rng.integers(0, 3)])
             for _ in range(200)]
    corpus = corpus_from([(text, i % 2) for i, text in enumerate(texts)])
    cfg = TrainConfig(embed_dim=128, hidden=256, lx=128)
    params = M.init_params(cfg.model_config(len(vocab)), np.random.default_rng(29))
    tracemalloc.start()
    try:
        evaluate(params, cfg, corpus, Lexicon({"hoe": "OnI", "black": "nOI", "zorp": "OI"}), vocab, "tie")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 2**20


def test_train_step_holds_no_vocabulary_sized_gradient():
    # a train-long-sized model and batch: a dense [3023, 128] table gradient
    # (2.95 MiB) takes this step's peak to 9.8 MiB; the row-sparse one, to 6.9
    cfg = small_config(embed_dim=128, hidden=256, lx=128)
    params = M.init_params(cfg.model_config(3023), np.random.default_rng(26))
    opt = AdamWState(lr=1e-3, weight_decay=0.01)

    def batch(rng):
        b_ids = rng.integers(len(RESERVED), 3023, (8, 4))
        b_ids[:, 2:] = 0
        return EncodedBatch(x_ids=rng.integers(len(RESERVED), 3023, (8, 120)), b_ids=b_ids,
                            labels=rng.integers(0, 2, 8))

    rng = np.random.default_rng(27)
    T._train_step(cfg, params, opt, batch(rng), 1)  # allocates AdamW's moments
    tracemalloc.start()
    try:
        T._train_step(cfg, params, opt, batch(rng), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_evaluate_runs_the_mixing_layer_once_per_call(monkeypatch):
    # every distinct id goes through the encoder's mixing layer once,
    # whatever the number of blocks
    train_set, test_set, lexicon = small_corpus(n=48)
    test_set = test_set * 12
    cfg = small_config()
    vocab = Vocab.build(corpus_from(train_set))
    params = M.init_params(cfg.model_config(len(vocab)), np.random.default_rng(3))
    mixing = []
    mix = A.mix

    def counting_mix(x, w, b, *args, **kwargs):
        if w.op == "encoder.mix.w":
            mixing.append(x.data.shape)
        return mix(x, w, b, *args, **kwargs)

    monkeypatch.setattr(A, "mix", counting_mix)
    blocks = []
    factual_pass = M.ccdf_forward
    monkeypatch.setattr(M, "ccdf_forward", lambda params, block: blocks.append(block) or factual_pass(params, block))
    _, records = evaluate(params, cfg, corpus_from(test_set), lexicon, vocab, "tie")
    assert len(records) == len(test_set)
    assert len(blocks) > 2
    assert len(mixing) == 1


@pytest.mark.parametrize("mode", ["ccdf", "vanilla"])
def test_evaluate_leaves_the_caller_params_unchanged(mode):
    # scoring rows live in evaluate's own dict, so nothing new can reach
    # save_params or adamw_step
    train_set, test_set, lexicon = small_corpus()
    cfg = small_config(mode=mode)
    res = train(cfg, *corpora(train_set[:16], train_set[-8:]), lexicon)
    values = dict(res.params)
    arrays = {name: v.data for name, v in res.params.items()}
    copies = {name: a.copy() for name, a in arrays.items()}
    evaluate(res.params, cfg, corpus_from(test_set), lexicon, res.vocab, cfg.spec.selection_rule)
    assert M.ENCODED_ROWS not in res.params
    assert res.params == values
    for name, v in res.params.items():
        assert v.data is arrays[name]
        assert np.array_equal(v.data, copies[name])


@pytest.mark.parametrize("bad_id", [-1, 11])
def test_predict_batch_rejects_out_of_range_ids(bad_id):
    cfg = M.ModelConfig(vocab_size=11, embed_dim=5, hidden=6)
    params = M.init_params(cfg, np.random.default_rng(12))
    batch = make_batch(np.random.default_rng(13), n=3, vocab_size=11)
    batch.x_ids[1, 0] = bad_id
    with pytest.raises(VocabularyError, match="token id out of range"):
        predict_batch(params, batch, MODE_SPECS["ccdf"])


def test_predict_batch_makes_no_copy_of_the_sentence_tensor():
    # scoring a 64-row batch of train-long-sized sentences (100-125 real
    # tokens, lb 4) holds the gathered [B, Lx, d] tensor once: masking and
    # pooling must read it in place, not build float64 copies of it
    rng = np.random.default_rng(14)
    n, lx, lb, cfg = 64, 125, 4, M.ModelConfig(vocab_size=3023, embed_dim=128, hidden=256)
    x_ids, b_ids = rng.integers(4, cfg.vocab_size, (n, lx)), rng.integers(4, cfg.vocab_size, (n, lb))
    x_ids[np.arange(lx) >= rng.integers(100, lx + 1, (n, 1))] = 0
    b_ids[np.arange(lb) >= rng.integers(1, lb + 1, (n, 1))] = 0
    batch = EncodedBatch(x_ids=x_ids, b_ids=b_ids, labels=rng.integers(0, 2, n))
    params = M.init_params(cfg, rng)
    tracemalloc.start()
    try:
        predict_batch(params, batch, MODE_SPECS["ccdf"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * lx * cfg.embed_dim * 8
