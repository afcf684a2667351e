import numpy as np
import pytest

from cfdetox import effects as E
from cfdetox.data import encode_batch, nobias_batch, Vocab
from cfdetox.errors import ContractError
from helpers import ccdf_scenarios, examples_from, graph_effects, harmonic_fusion, make_batch, scenario_logits as fake_logits


# ---------------------------------------------------------------------------
# TE
# ---------------------------------------------------------------------------

def test_total_effect_self_difference_is_zero():
    f = fake_logits([[-1.0, 2.0]], "factual")
    r = fake_logits([[-1.0, 2.0]], "counterfactual")
    assert E.effects(f, r, r).te.tolist() == [[0.0, 0.0]]


def test_total_effect_arithmetic():
    f = fake_logits([-1.0, -2.0], "factual")
    cf = fake_logits([-2.5, -2.5], "counterfactual")
    r = fake_logits([-3.0, -3.0], "counterfactual")
    bundle = E.effects(f, cf, r)
    assert bundle.te.tolist() == [2.0, 1.0]
    assert bundle.nde.tolist() == [0.5, 0.5]
    assert bundle.tie.tolist() == [1.5, 0.5]


def test_total_effect_scenario_contract():
    f = fake_logits([0.0, 0.0], "factual")
    r = fake_logits([0.0, 0.0], "counterfactual")
    with pytest.raises(ContractError, match="reference"):
        E.effects(f, r, f)
    with pytest.raises(ContractError, match="factual"):
        E.effects(r, r, r)


def test_effects_shape_contract():
    f = fake_logits([[0.0, 1.0]], "factual")
    r = fake_logits([0.0, 1.0], "counterfactual")
    with pytest.raises(ContractError, match="shape"):
        E.effects(f, r, r)
    with pytest.raises(ContractError, match="shape"):
        E.effects(f, fake_logits([[0.0, 1.0]], "counterfactual"), r)


# ---------------------------------------------------------------------------
# NDE
# ---------------------------------------------------------------------------

def test_nde_zero_when_bias_equals_reference(tiny_params):
    rng = np.random.default_rng(0)
    batch = make_batch(rng, n=3)
    ref_batch = nobias_batch(batch)
    f, cf, ref = ccdf_scenarios(tiny_params, ref_batch)
    assert (E.effects(f, cf, ref).nde == 0).all()


def test_nde_rejects_factual_logits():
    f = fake_logits([0.0, 0.0], "factual")
    r = fake_logits([0.0, 0.0], "counterfactual")
    with pytest.raises(ContractError, match="counterfactual"):
        E.effects(f, f, r)


def test_nde_depends_only_on_bias_tokens(tiny_params):
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = make_batch(rng, n=1)
        b = make_batch(rng, n=1)
        b = type(b)(x_ids=b.x_ids, b_ids=a.b_ids, x_mask=b.x_mask, b_mask=a.b_mask, labels=b.labels)
        nde = []
        for batch in (a, b):
            f, cf, ref = ccdf_scenarios(tiny_params, batch)
            nde.append(E.effects(f, cf, ref).nde)
        assert (nde[0] == nde[1]).all()


def test_nde_recomputed_from_fusion_definition():
    # hand-set branch outputs, recompute through the plain formula
    y_b = np.array([0.8, -0.3])
    y_b_star = np.array([0.1, 0.2])
    c_e = np.array([0.5, 0.5])
    c_x = np.array([0.4, 0.6])
    y_e = np.array([0.9, -0.2])
    y_x = np.array([0.3, 0.7])
    got = graph_effects((y_e, y_x), (c_e, c_x), y_b, y_b_star).nde
    def h(z):
        z = max(z, 1e-12)
        return np.log(z) - np.log(1 + z)
    expected = [
        h(np.tanh(c_e[c]) * np.tanh(c_x[c]) * np.tanh(y_b[c]))
        - h(np.tanh(c_e[c]) * np.tanh(c_x[c]) * np.tanh(y_b_star[c]))
        for c in range(2)
    ]
    assert got == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# debiased prediction (tie)
# ---------------------------------------------------------------------------

def test_uniform_counterfactual_shift_preserves_argmax():
    rng = np.random.default_rng(2)
    for _ in range(30):
        fused = rng.normal(size=2)
        k = rng.normal()
        f = fake_logits(fused, "factual")
        cf = fake_logits([k, k], "counterfactual")
        ref = fake_logits(rng.normal(size=2), "counterfactual")
        assert E.argmax_label(E.effects(f, cf, ref).tie) == E.argmax_label(fused)


def test_tie_break_toward_nontoxic():
    f = fake_logits([0.7, 0.7], "factual")
    cf = fake_logits([0.7, 0.7], "counterfactual")
    tie = E.effects(f, cf, cf).tie
    assert tie.tolist() == [0.0, 0.0]
    assert E.argmax_label(tie) == 0


def test_debiased_prediction_scenario_contract():
    f = fake_logits([0.0, 1.0], "factual")
    cf = fake_logits([0.0, 1.0], "counterfactual")
    with pytest.raises(ContractError):
        E.effects(cf, f, cf)


def test_tie_equals_te_minus_nde_through_model(tiny_params):
    rng = np.random.default_rng(3)
    for _ in range(50):
        batch = make_batch(rng, n=1)
        f, cf, ref = ccdf_scenarios(tiny_params, batch)
        bundle = E.effects(f, cf, ref)
        assert (bundle.tie == f.fused.data - cf.fused.data).all()
        assert np.abs(bundle.te - bundle.nde - bundle.tie).max() <= 1e-12


# ---------------------------------------------------------------------------
# ablated graphs: one context head dropped from the fusion
# ---------------------------------------------------------------------------

def test_ablated_no_fx_nde_vanishes_on_nobias():
    rng = np.random.default_rng(4)
    y_e = rng.normal(size=2)
    c_e = rng.normal(size=2)
    y_b_star = rng.normal(size=2)
    bundle = graph_effects((y_e,), (c_e,), y_b_star, y_b_star)
    assert (bundle.nde == 0).all()
    assert bundle.tie == pytest.approx(bundle.te, abs=1e-15)


def test_ablated_identity_te_minus_nde():
    rng = np.random.default_rng(5)
    for _variant in ("no_Fe", "no_Fx"):
        for _ in range(100):
            y_live, y_b, c_blocked, y_b_star = (rng.normal(size=2) for _ in range(4))
            bundle = graph_effects((y_live,), (c_blocked,), y_b, y_b_star)
            assert np.abs(bundle.tie - (bundle.te - bundle.nde)).max() <= 1e-12


def test_ablated_no_fe_matches_two_branch_pipeline():
    # the ablated graph's tie equals the generic factual-minus-blocked
    # difference once the ensemble head is dropped from the product
    rng = np.random.default_rng(6)
    for _ in range(50):
        y_x, y_b, c_x, y_b_star = (rng.normal(size=2) for _ in range(4))
        bundle = graph_effects((y_x,), (c_x,), y_b, y_b_star)
        direct = harmonic_fusion([y_x, y_b]) - harmonic_fusion([c_x, y_b])
        assert np.abs(bundle.tie - direct).max() <= 1e-12


def test_full_effects_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        y_e, y_x, y_b, c_e, c_x, y_b_star = (rng.normal(size=2) for _ in range(6))
        bundle = graph_effects((y_e, y_x), (c_e, c_x), y_b, y_b_star)
        assert np.abs(bundle.tie - (bundle.te - bundle.nde)).max() <= 1e-12


# ---------------------------------------------------------------------------
# batch records
# ---------------------------------------------------------------------------

def test_inference_records_schema(tiny_params, tiny_lexicon):
    examples = examples_from([("black hoe text", 1), ("plain words", 0)])
    vocab = Vocab.build(examples)
    batch = encode_batch(examples, tiny_lexicon, vocab, 6, 4)
    f, cf, ref = ccdf_scenarios(tiny_params, batch)
    records = E.inference_records(f, cf, ref)
    assert len(records) == 2
    for rec in records:
        assert set(rec) == {"fused_factual", "fused_counterfactual", "tie",
                            "te_label", "tie_label", "factual_label"}


def test_argmax_shift_invariance():
    rng = np.random.default_rng(8)
    for _ in range(100):
        f = rng.normal(size=2)
        cf = rng.normal(size=2)
        shift = rng.normal()
        base = E.argmax_label(f - cf)
        shifted = E.argmax_label(f - (cf + shift))
        assert base == shifted
