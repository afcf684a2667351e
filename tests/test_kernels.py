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
from cfdetox.kernels import pure

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


@pytest.mark.parametrize("seed", range(5))
def test_scatter_parity(compiled, seed):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 20, size=300).astype(np.int64)
    rows = rng.normal(size=(300, 8))
    a = np.zeros((20, 8))
    b = np.zeros((20, 8))
    compiled.scatter_add_rows(a, ids, rows)
    pure.scatter_add_rows(b, ids, rows)
    assert (a == b).all()


@pytest.mark.parametrize("seed", range(5))
def test_adamw_parity_over_steps(compiled, seed):
    rng = np.random.default_rng(seed)
    n = 257
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
