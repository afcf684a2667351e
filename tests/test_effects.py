import numpy as np
import pytest

from cfdetox import data as D
from cfdetox import effects as E
from cfdetox.data import encode_batch, nobias_batch, Vocab
from cfdetox.errors import ContractError, ValidationError
from cfdetox.model import ModelConfig, ScenarioLogits, ccdf_forward, init_params
from cfdetox import autodiff as A
from helpers import examples_from, make_batch


def fake_logits(fused, scenario):
    v = A.const(np.asarray(fused, dtype=np.float64))
    return ScenarioLogits(y_e=None, y_x=None, y_b=v, fused=v, scenario=scenario)


def random_model(seed, vocab=10):
    cfg = ModelConfig(vocab_size=vocab, embed_dim=4, hidden=6)
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    for v in params.values():
        v.data = v.data + rng.normal(0, 0.5, v.data.shape)
    return params, rng


# ---------------------------------------------------------------------------
# TE
# ---------------------------------------------------------------------------

def test_total_effect_self_difference_is_zero():
    f = fake_logits([[-1.0, 2.0]], "factual")
    r = fake_logits([[-1.0, 2.0]], "counterfactual")
    assert E.total_effect(f, r).tolist() == [[0.0, 0.0]]


def test_total_effect_arithmetic():
    f = fake_logits([-1.0, -2.0], "factual")
    r = fake_logits([-3.0, -3.0], "counterfactual")
    assert E.total_effect(f, r).tolist() == [2.0, 1.0]


def test_total_effect_scenario_contract():
    f = fake_logits([0.0, 0.0], "factual")
    with pytest.raises(ContractError):
        E.total_effect(f, f)
    r = fake_logits([0.0, 0.0], "counterfactual")
    with pytest.raises(ContractError):
        E.total_effect(r, r)


# ---------------------------------------------------------------------------
# NDE
# ---------------------------------------------------------------------------

def test_nde_zero_when_bias_equals_reference(tiny_params):
    rng = np.random.default_rng(0)
    batch = make_batch(rng, n=3)
    ref_batch = nobias_batch(batch)
    cf = ccdf_forward(tiny_params, ref_batch, "counterfactual")
    ref = ccdf_forward(tiny_params, nobias_batch(ref_batch), "counterfactual")
    assert (E.natural_direct_effect(cf, ref) == 0).all()


def test_nde_rejects_factual_logits():
    f = fake_logits([0.0, 0.0], "factual")
    r = fake_logits([0.0, 0.0], "counterfactual")
    with pytest.raises(ContractError):
        E.natural_direct_effect(f, r)


def test_nde_depends_only_on_bias_tokens(tiny_params):
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = make_batch(rng, n=1)
        b = make_batch(rng, n=1)
        b = type(b)(x_ids=b.x_ids, b_ids=a.b_ids, x_mask=b.x_mask, b_mask=a.b_mask, labels=b.labels)
        ref_a = ccdf_forward(tiny_params, nobias_batch(a), "counterfactual")
        ref_b = ccdf_forward(tiny_params, nobias_batch(b), "counterfactual")
        cf_a = ccdf_forward(tiny_params, a, "counterfactual")
        cf_b = ccdf_forward(tiny_params, b, "counterfactual")
        nde_a = E.natural_direct_effect(cf_a, ref_a)
        nde_b = E.natural_direct_effect(cf_b, ref_b)
        assert (nde_a == nde_b).all()


def test_nde_recomputed_from_fusion_definition():
    # hand-set branch outputs, recompute through the plain formula
    y_b = np.array([0.8, -0.3])
    y_b_star = np.array([0.1, 0.2])
    c_e = np.array([0.5, 0.5])
    c_x = np.array([0.4, 0.6])
    cf = fake_logits(E.harmonic_fusion([c_e, c_x, y_b]), "counterfactual")
    ref = fake_logits(E.harmonic_fusion([c_e, c_x, y_b_star]), "counterfactual")
    got = E.natural_direct_effect(cf, ref)
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
# debiased prediction
# ---------------------------------------------------------------------------

def test_uniform_counterfactual_shift_preserves_argmax():
    rng = np.random.default_rng(2)
    for _ in range(30):
        fused = rng.normal(size=2)
        k = rng.normal()
        f = fake_logits(fused, "factual")
        cf = fake_logits([k, k], "counterfactual")
        _, label = E.debiased_prediction(f, cf)
        assert label == E.argmax_label(fused)


def test_tie_break_toward_nontoxic():
    f = fake_logits([0.7, 0.7], "factual")
    cf = fake_logits([0.7, 0.7], "counterfactual")
    tie, label = E.debiased_prediction(f, cf)
    assert tie.tolist() == [0.0, 0.0]
    assert label == 0


def test_debiased_prediction_scenario_contract():
    f = fake_logits([0.0, 1.0], "factual")
    cf = fake_logits([0.0, 1.0], "counterfactual")
    with pytest.raises(ContractError):
        E.debiased_prediction(cf, f)


def test_tie_equals_te_minus_nde_through_model(tiny_params):
    rng = np.random.default_rng(3)
    for _ in range(50):
        batch = make_batch(rng, n=1)
        f = ccdf_forward(tiny_params, batch, "factual")
        cf = ccdf_forward(tiny_params, batch, "counterfactual")
        ref = ccdf_forward(tiny_params, nobias_batch(batch), "counterfactual")
        te = E.total_effect(f, ref)
        nde = E.natural_direct_effect(cf, ref)
        tie, _ = E.debiased_prediction(
            fake_logits(f.fused.data[0], "factual"), fake_logits(cf.fused.data[0], "counterfactual")
        )
        assert np.abs((te - nde)[0] - tie).max() <= 1e-12


# ---------------------------------------------------------------------------
# ablated variants
# ---------------------------------------------------------------------------

def test_ablated_no_fx_nde_vanishes_on_nobias():
    rng = np.random.default_rng(4)
    y_e = rng.normal(size=2)
    c_e = rng.normal(size=2)
    y_b_star = rng.normal(size=2)
    bundle = E.ablated_effects("no_Fx", y_e, y_b_star, c_e, y_b_star)
    assert (bundle.nde == 0).all()
    assert bundle.tie == pytest.approx(bundle.te, abs=1e-15)


def test_ablated_identity_te_minus_nde():
    rng = np.random.default_rng(5)
    for variant in ("no_Fe", "no_Fx"):
        for _ in range(100):
            args = [rng.normal(size=2) for _ in range(4)]
            bundle = E.ablated_effects(variant, *args)
            assert np.abs(bundle.tie - (bundle.te - bundle.nde)).max() <= 1e-12
            assert bundle.variant == variant


def test_ablated_no_fe_matches_two_branch_pipeline():
    # the variant's algebra equals the generic factual-minus-blocked
    # difference once the ensemble head is dropped from the product
    rng = np.random.default_rng(6)
    for _ in range(50):
        y_x, y_b, c_x, y_b_star = (rng.normal(size=2) for _ in range(4))
        bundle = E.ablated_effects("no_Fe", y_x, y_b, c_x, y_b_star)
        direct = E.harmonic_fusion([y_x, y_b]) - E.harmonic_fusion([c_x, y_b])
        assert np.abs(bundle.tie - direct).max() <= 1e-12


def test_ablated_unknown_variant():
    z = np.zeros(2)
    with pytest.raises(ValidationError):
        E.ablated_effects("no_Fb", z, z, z, z)


def test_full_effects_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        args = [rng.normal(size=2) for _ in range(6)]
        bundle = E.full_effects(*args)
        assert np.abs(bundle.tie - (bundle.te - bundle.nde)).max() <= 1e-12
        assert bundle.variant == "full"


# ---------------------------------------------------------------------------
# batch records
# ---------------------------------------------------------------------------

def test_inference_records_schema(tiny_params, tiny_lexicon):
    examples = examples_from([("black hoe text", 1), ("plain words", 0)])
    vocab = Vocab.build(examples)
    batch = encode_batch(examples, tiny_lexicon, vocab, 6, 4)
    f = ccdf_forward(tiny_params, batch, "factual")
    cf = ccdf_forward(tiny_params, batch, "counterfactual")
    ref = ccdf_forward(tiny_params, nobias_batch(batch), "counterfactual")
    records = E.inference_records(f, cf, ref, [["nOI", "OnI"], []])
    assert len(records) == 2
    for rec in records:
        assert set(rec) == {"fused_factual", "fused_counterfactual", "tie",
                            "te_label", "tie_label", "factual_label", "categories"}
    assert records[0]["categories"] == ["OnI", "nOI"] or records[0]["categories"] == ["nOI", "OnI"]
    assert records[1]["categories"] == []


def test_argmax_shift_invariance():
    rng = np.random.default_rng(8)
    for _ in range(100):
        f = rng.normal(size=2)
        cf = rng.normal(size=2)
        shift = rng.normal()
        base = E.argmax_label(f - cf)
        shifted = E.argmax_label(f - (cf + shift))
        assert base == shifted
