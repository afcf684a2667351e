"""The two kernels against whole-array reference formulas, bit for bit, and
the names the trainer looks them up under."""

import numpy as np
import pytest

import cfdetox.kernels as K
from cfdetox import autodiff as A
from cfdetox import optim as O
from cfdetox.data import generate_synthetic_corpus, synthetic_lexicon
from cfdetox.errors import ContractError
from cfdetox.kernels import BLOCK
from cfdetox.training import TrainConfig, train
from helpers import adamw_update_reference, corpus_from, scatter_add_rows_reference


def test_backend_selected():
    assert K.BACKEND == "pure"


def test_scatter_accumulates_duplicates():
    out = np.zeros((3, 2))
    ids = np.array([1, 1, 0], dtype=np.int64)
    rows = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    K.scatter_add_rows(out, ids, rows)
    assert out.tolist() == [[5.0, 6.0], [4.0, 6.0], [0.0, 0.0]]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def special_gradient(rng: np.random.Generator, n: int) -> np.ndarray:
    """Normal gradient with signed zeros, subnormals and an all-zero stretch."""
    g = rng.normal(size=n)
    g[rng.random(n) < 0.05] = 0.0
    g[rng.random(n) < 0.05] = -0.0
    sub = rng.random(n) < 0.05
    g[sub] = rng.choice([5e-324, -5e-324, 2.5e-310, -1e-315], size=int(sub.sum()))
    start = int(rng.integers(0, n))
    g[start:start + n // 3] = 0.0
    return g


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, 387_456])
def test_pure_adamw_matches_whole_array_formula(n, weight_decay):
    rng = np.random.default_rng(n)
    p1 = rng.normal(size=n)
    p1[:: max(1, n // 7)] = -0.0
    p2 = p1.copy()
    m1 = np.zeros(n); m2 = np.zeros(n)
    v1 = np.zeros(n); v2 = np.zeros(n)
    for t in range(1, 11):
        g = special_gradient(rng, n)
        args = (1e-3, 0.9, 0.999, 1e-8, weight_decay, 1 - 0.9 ** t, 1 - 0.999 ** t)
        K.adamw_update(p1, g, m1, v1, *args)
        adamw_update_reference(p2, g, m2, v2, *args)
    assert same_bits(p1, p2)
    assert same_bits(m1, m2)
    assert same_bits(v1, v2)


@pytest.mark.parametrize("n_ids", [0, 1, 700])
def test_pure_scatter_matches_row_add_at(n_ids):
    rng = np.random.default_rng(n_ids)
    # mostly PAD (row 0), the rest duplicates among a few rows
    ids = np.where(rng.random(n_ids) < 0.7, 0, rng.integers(1, 5, size=n_ids)).astype(np.int64)
    rows = rng.normal(size=(n_ids, 6))
    rows[rng.random(rows.shape) < 0.1] = -0.0
    a = rng.normal(size=(9, 6))
    a[3] = -0.0
    b = a.copy()
    K.scatter_add_rows(a, ids, rows)
    scatter_add_rows_reference(b, ids, rows)
    assert same_bits(a, b)


@pytest.mark.parametrize("case", ["column-slice", "float32", "vector", "rows-shape", "ids-matrix"])
def test_pure_scatter_refuses_mismatched_input(case):
    table = np.zeros((5, 8))
    out = table
    ids = np.array([1, 1, 3], dtype=np.int64)
    rows = np.ones((3, 8))
    if case == "column-slice":
        out, rows = table[:, :4], np.ones((3, 4))
    elif case == "float32":
        out = np.zeros((5, 8), dtype=np.float32)
    elif case == "vector":
        out = np.zeros(40)
    elif case == "rows-shape":
        rows = np.ones((2, 8))
    elif case == "ids-matrix":
        ids = ids.reshape(3, 1)
    with pytest.raises(ContractError):
        K.scatter_add_rows(out, ids, rows)
    assert not table.any()


def test_training_calls_both_kernels_where_the_trainer_looks_them_up(monkeypatch):
    """A few ccdf steps with dropout reach the kernels through
    ``autodiff.scatter_add_rows`` and ``optim.adamw_update``, the names the
    tracer patches to count them."""
    train_set, valid, _ = map(corpus_from, generate_synthetic_corpus(0, 24, 8, 0.9))
    config = TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3, dropout=0.1,
                         hidden=8, lx=12, lb=4, eval_every_steps=1000, seed=0,
                         mode="ccdf", embed_dim=8)
    calls = []

    def counted(name):
        fn = getattr(K, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(A, "scatter_add_rows", counted("scatter_add_rows"))
    monkeypatch.setattr(O, "adamw_update", counted("adamw_update"))
    train(config, train_set, valid, synthetic_lexicon())
    assert set(calls) == {"scatter_add_rows", "adamw_update"}
