"""AdamW with decoupled weight decay, over named Value parameters."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from cfdetox.autodiff import Value
from cfdetox.errors import ContractError
from cfdetox.kernels import BLOCK, adamw_update


@dataclass
class AdamWState:
    """Optimizer state: per-parameter moments plus the shared step counter.

    Moments are zero-initialized on first use; ``step`` starts at 0 and
    increments once per :func:`adamw_step` call.  ``beta1``, ``beta2`` and
    ``eps`` are AdamW's fixed constants (Loshchilov & Hutter 2019).
    """

    lr: float
    weight_decay: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(params: dict[str, Value], state: AdamWState) -> None:
    """One decoupled-weight-decay Adam update, in place.

    Parameters with no accumulated gradient are treated as having zero
    gradient (their moments still decay and weight decay still applies).
    A row-sparse gradient (``Value.row_grad``) is made dense one kernel
    ``BLOCK`` of rows at a time, so every row still gets the update with
    +0.0 where no row was touched, and no ``[V, d]`` gradient is built.
    Gradients are left untouched; the caller zeroes them.
    """
    state.step += 1
    hyper = (state.lr, state.beta1, state.beta2, state.eps, state.weight_decay,
             1.0 - state.beta1 ** state.step, 1.0 - state.beta2 ** state.step)
    for name, p in params.items():
        if not p.requires_grad:
            raise ContractError(f"adamw_step: parameter {name!r} is not trainable")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        if p.row_grad is None:
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            adamw_update(p.data.reshape(-1), np.ascontiguousarray(grad.reshape(-1)),
                         m.reshape(-1), v.reshape(-1), *hyper)
            continue
        ids, rows = p.row_grad
        n_rows = max(1, BLOCK // p.data.shape[1])  # one kernel block per call at any width
        block = np.empty((min(n_rows, len(p.data)), p.data.shape[1]))
        for lo in range(0, len(p.data), n_rows):
            hi = min(lo + n_rows, len(p.data))
            k0, k1 = np.searchsorted(ids, (lo, hi))
            g = block[: hi - lo]
            g.fill(0.0)
            g[ids[k0:k1] - lo] = rows[k0:k1]
            adamw_update(p.data[lo:hi].reshape(-1), g.reshape(-1),
                         m[lo:hi].reshape(-1), v[lo:hi].reshape(-1), *hyper)
