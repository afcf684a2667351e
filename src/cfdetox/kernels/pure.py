"""Pure-numpy reference kernels.

These are the fallback (and the semantic definition) for the compiled
versions in ``_fast.pyx``.  Both backends must produce bit-identical
results: keep the per-element operation order in sync with the .pyx file.
The AdamW step is evaluated in place, block by block, through two
block-sized scratch arrays; each element still sees the same sequence of
operations, so blocking changes no bits, only the memory traffic.
"""

from __future__ import annotations

import numpy as np

from cfdetox.errors import ContractError

# elements per AdamW block: 2 x 128 KiB of scratch, small enough for L2
BLOCK = 16384


def scatter_add_rows(out: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """Accumulate ``rows[k]`` into ``out[ids[k]]`` in index order, in place.

    Args:
        out: C-contiguous float64 matrix [V, d], modified in place.
        ids: int64 vector [N] of row indices into ``out``.
        rows: float64 matrix [N, d] of addends.

    Raises:
        ContractError: when ``out`` is not a C-contiguous float64 matrix
            (its flat view would be a copy and the sums would be lost) or
            ``ids``/``rows`` do not match it.
    """
    if out.ndim != 2 or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ContractError(
            f"scatter_add_rows: out must be a C-contiguous float64 matrix, "
            f"got {out.dtype} {out.shape}"
        )
    d = out.shape[1]
    if ids.ndim != 1 or rows.shape != (ids.shape[0], d):
        raise ContractError(
            f"scatter_add_rows: rows {rows.shape} do not match ids {ids.shape} and out {out.shape}"
        )
    # 1-D ufunc.at takes numpy's fast path; element (i, j) still receives
    # its addends in the order of ids
    flat_ids = ids[:, None] * d + np.arange(d)
    np.add.at(out.reshape(-1), flat_ids.reshape(-1), rows.reshape(-1))


def adamw_update(
    p: np.ndarray,
    g: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
    weight_decay: float,
    bias_c1: float,
    bias_c2: float,
) -> None:
    """Decoupled-weight-decay Adam step on flat float64 arrays, in place.

    Decay is applied multiplicatively before the moment-based step; the
    moment estimates are bias-corrected with the precomputed factors
    ``bias_c1 = 1 - beta1**t`` and ``bias_c2 = 1 - beta2**t``.  Per
    element: ``m = m*beta1 + (1-beta1)*g``, ``v = v*beta2 + (1-beta2)*(g*g)``,
    ``p -= lr * ((m/bias_c1) / (sqrt(v/bias_c2) + eps))``.
    """
    decay_mul = 1.0 - lr * weight_decay
    c1 = 1.0 - beta1
    c2 = 1.0 - beta2
    n = p.shape[0]
    size = min(n, BLOCK)
    a_buf = np.empty(size)
    b_buf = np.empty(size)
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
        a, b = a_buf[: hi - lo], b_buf[: hi - lo]
        if weight_decay != 0.0:
            pb *= decay_mul
        mb *= beta1
        np.multiply(gb, c1, out=a)
        mb += a
        vb *= beta2
        np.multiply(gb, gb, out=a)
        a *= c2
        vb += a
        np.divide(vb, bias_c2, out=a)
        np.sqrt(a, out=a)
        a += eps
        np.divide(mb, bias_c1, out=b)
        b /= a
        b *= lr
        pb -= b
