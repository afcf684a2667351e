"""Backend parity: the compiled kernels must match the pure-numpy fallback
bit for bit (training determinism must not depend on the build).

The compiled module is built by ``setup.py build_ext`` from the tracked
``_fast.c`` into a temporary directory, so the parity tests run wherever a
C compiler and the Python headers exist, with or without Cython.
"""

import importlib.util
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

import cfdetox.kernels as K
from cfdetox import autodiff as A
from cfdetox import optim as O
from cfdetox.data import generate_synthetic_corpus, synthetic_lexicon
from cfdetox.errors import ContractError
from cfdetox.kernels import pure
from cfdetox.kernels.pure import BLOCK
from cfdetox.training import TrainConfig, train
from helpers import adamw_update_reference, scatter_add_rows_reference

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    include = sysconfig.get_paths()["include"]
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) to build the kernel extension")
    if not Path(include, "Python.h").exists():
        pytest.skip(f"Python headers missing ({include}/Python.h)")
    tmp = tmp_path_factory.mktemp("kernels")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(tmp / "lib"), "--build-temp", str(tmp / "tmp")],
        cwd=ROOT, capture_output=True, text=True,
    )
    built = sorted((tmp / "lib").glob("cfdetox/kernels/_fast*.so"))
    if build.returncode != 0 or not built:
        pytest.fail(f"setup.py build_ext built no extension:\n{build.stdout}\n{build.stderr}")
    spec = importlib.util.spec_from_file_location("cfdetox.kernels._fast", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_backend_selected():
    assert K.BACKEND in ("compiled", "pure")


def test_scatter_accumulates_duplicates():
    out = np.zeros((3, 2))
    ids = np.array([1, 1, 0], dtype=np.int64)
    rows = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    K.scatter_add_rows(out, ids, rows)
    assert out.tolist() == [[5.0, 6.0], [4.0, 6.0], [0.0, 0.0]]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_scatter_parity(compiled, seed):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 3000, size=4000).astype(np.int64)
    rows = rng.normal(size=(4000, 8))
    a = np.zeros((3000, 8))  # 24,000 elements, more than BLOCK
    b = np.zeros((3000, 8))
    compiled.scatter_add_rows(a, ids, rows)
    pure.scatter_add_rows(b, ids, rows)
    assert (a == b).all()


@pytest.mark.parametrize("seed", range(5))
def test_adamw_parity_over_steps(compiled, seed):
    rng = np.random.default_rng(seed)
    n = 2 * BLOCK + 257
    p1 = rng.normal(size=n); p2 = p1.copy()
    m1 = np.zeros(n); m2 = np.zeros(n)
    v1 = np.zeros(n); v2 = np.zeros(n)
    for t in range(1, 12):
        g = rng.normal(size=n)
        bc1, bc2 = 1 - 0.9 ** t, 1 - 0.999 ** t
        compiled.adamw_update(p1, g, m1, v1, 1e-3, 0.9, 0.999, 1e-8, 0.01, bc1, bc2)
        pure.adamw_update(p2, g, m2, v2, 1e-3, 0.9, 0.999, 1e-8, 0.01, bc1, bc2)
    assert (p1 == p2).all()
    assert (m1 == m2).all()
    assert (v1 == v2).all()


def test_adamw_parity_zero_decay(compiled):
    p1 = np.array([1.0, -1.0]); p2 = p1.copy()
    m1 = np.zeros(2); m2 = np.zeros(2)
    v1 = np.zeros(2); v2 = np.zeros(2)
    g = np.array([0.5, -0.25])
    compiled.adamw_update(p1, g, m1, v1, 0.1, 0.9, 0.999, 1e-8, 0.0, 0.1, 0.001)
    pure.adamw_update(p2, g, m2, v2, 0.1, 0.9, 0.999, 1e-8, 0.0, 0.1, 0.001)
    assert (p1 == p2).all()


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
        pure.adamw_update(p1, g, m1, v1, *args)
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
    pure.scatter_add_rows(a, ids, rows)
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
        pure.scatter_add_rows(out, ids, rows)
    assert not table.any()


def test_training_parity_across_backends(compiled, monkeypatch):
    """A few ccdf steps with dropout write the same parameter bytes on either
    backend; the kernels are swapped where the trainer looks them up."""
    train_set, valid, _ = generate_synthetic_corpus(0, 24, 8, 0.9)
    config = TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3, dropout=0.1,
                         hidden=8, lx=12, lb=4, eval_every_steps=1000, seed=0,
                         mode="ccdf", embed_dim=8)

    def run(backend):
        calls = []

        def counted(name):
            fn = getattr(backend, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(A, "scatter_add_rows", counted("scatter_add_rows"))
        monkeypatch.setattr(O, "adamw_update", counted("adamw_update"))
        res = train(config, train_set, valid, synthetic_lexicon())
        assert set(calls) == {"scatter_add_rows", "adamw_update"}
        return {name: p.data.tobytes() for name, p in res.params.items()}

    via_pure = run(pure)
    via_compiled = run(compiled)
    assert via_pure.keys() == via_compiled.keys()
    assert [n for n in via_pure if via_pure[n] != via_compiled[n]] == []
