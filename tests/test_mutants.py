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
    # target uses the benchmark or hypothesis plugins, whose loading is most
    # of a run's start-up
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "no:benchmark",
         "-p", "no:hypothesispytest", "-o", f"pythonpath={src}", *mutant.caught_by],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert f"{len(mutant.caught_by)} failed" in proc.stdout.splitlines()[-1], proc.stdout[-2000:]
