"""The suite can fail: each mutant breaks one rule the claim rests on, and
the tests named beside it must catch it.

A mutant is a file under ``src/``, an exact text that must occur in it
once, the text that replaces it, and the test ids that must then fail.
The test copies ``src/`` to a temporary directory, applies the mutant
there and runs those ids in a fresh interpreter against the copy.  An
anchor text that no longer occurs fails the test, so a refactor that
moves the code must carry its mutant along.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # path under src/cfdetox/
    old: str
    new: str
    caught_by: tuple[str, ...]  # test ids, each of which must fail


MUTANTS = (
    Mutant("adamw-second-moment-order", "kernels.py",
           "np.multiply(gb, gb, out=a)\n        a *= c2",
           "np.multiply(gb, c2, out=a)\n        a *= gb",
           ("tests/test_kernels.py::test_pure_adamw_matches_whole_array_formula[16384-0.0]",)),
    Mutant("scatter-drops-duplicate-ids", "kernels.py",
           "np.add.at(out.reshape(-1), flat_ids.reshape(-1), rows.reshape(-1))",
           "out.reshape(-1)[flat_ids.reshape(-1)] += rows.reshape(-1)",
           ("tests/test_kernels.py::test_scatter_accumulates_duplicates",
            "tests/test_kernels.py::test_pure_scatter_matches_row_add_at[700]")),
    Mutant("tie-is-factual", "effects.py",
           "tie=factual - counterfactual)",
           "tie=factual)",
           ("tests/test_effects.py::test_tie_break_toward_nontoxic",
            "tests/test_effects.py::test_tie_equals_te_minus_nde_through_model")),
    Mutant("attention-ignores-sentence-mask", "model.py",
           "A.softmax(scores, axis=-1, mask=np.expand_dims(x_mask, -2))",
           "A.softmax(scores, axis=-1)",
           ("tests/test_model.py::test_cross_attention_respects_sentence_mask",)),
    # the counterfactual is a function of the bias tokens alone: a bias head
    # fed the encoded sentence makes it depend on the sentence
    Mutant("bias-head-reads-the-sentence", "model.py",
           '    y_b = bias_head(bh, b_mask, params, drop)\n    xh = encode(batch.x_ids, params, drop, site="enc_x")\n',
           '    xh = encode(batch.x_ids, params, drop, site="enc_x")\n    y_b = bias_head(xh, x_mask, params, drop)\n',
           ("tests/test_acceptance.py::test_counterfactual_x_invariance",
            "tests/test_training.py::test_predict_batch_reuses_the_factual_bias_score")),
    Mutant("bias-head-without-gradient-stop", "model.py",
           'mlp(A.stop_gradient(A.mean_pool(bh, b_mask, axis=1)), "b", params, drop)',
           'mlp(A.mean_pool(bh, b_mask, axis=1), "b", params, drop)',
           ("tests/test_acceptance.py::test_gradient_stop",
            "tests/test_training.py::test_lmixin_bias_path_detached_from_encoder")),
    # ties keep the earlier validated step; a later fix that flips this
    # compare on purpose carries the anchor with it
    Mutant("selection-keeps-the-later-tie", "training.py",
           "(f1 or 0.0) > (best_f1 or 0.0)",
           "(f1 or 0.0) >= (best_f1 or 0.0)",
           ("tests/test_training.py::test_train_selects_first_best_validated_step[4-7]",
            "tests/test_training.py::test_train_selects_first_best_validated_step[5-6]")),
    Mutant("dropout-key-ignores-the-step", "autodiff.py",
           "key = (int(seed) << 64) | (int(step) << 8) | DROPOUT_SITES[site]",
           "key = (int(seed) << 64) | DROPOUT_SITES[site]",
           ("tests/test_autodiff.py::test_dropout_deterministic_per_key",
            "tests/test_autodiff.py::test_dropout_bits_match_mask_then_scale")),
    Mutant("checkpoint-loads-infinities", "checkpoint.py",
           "if not np.isfinite(arr).all():",
           "if np.isnan(arr).any():",
           ("tests/test_checkpoint.py::test_non_finite_value_is_parse_error_naming_the_parameter",)),
    Mutant("lexicon-keeps-case", "lexicon.py",
           "surface, category = parts[0].strip().lower(), parts[1].strip()",
           "surface, category = parts[0].strip(), parts[1].strip()",
           ("tests/test_lexicon.py::test_load_uppercase_surface_is_lowercased",)),
)


def mutated_source(mutant: Mutant, dest: Path) -> Path:
    """A copy of ``src/`` under ``dest`` with ``mutant`` applied."""
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "cfdetox" / mutant.file
    text = path.read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1, f"{mutant.name}: anchor text not found once in {mutant.file}"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return src


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_is_caught(mutant, tmp_path):
    src = mutated_source(mutant, tmp_path)
    # the ini file's ``pythonpath`` would put the unmutated src/ first; no
    # target needs the benchmark or hypothesis plugins (``@given`` runs
    # without its plugin), whose loading is most of a run's start-up
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "no:benchmark",
         "-p", "no:hypothesispytest", "-o", f"pythonpath={src}", *mutant.caught_by],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert f"{len(mutant.caught_by)} failed" in proc.stdout.splitlines()[-1], proc.stdout[-2000:]
