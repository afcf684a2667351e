"""AdamW with decoupled weight decay, over named Value parameters."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from cfdetox.autodiff import Value
from cfdetox.errors import ContractError
from cfdetox.kernels import adamw_update

# table rows per dense gradient block of a row-sparse parameter: 128 rows of
# a 128-wide embedding are the AdamW kernel's 16,384-element BLOCK
ROW_BLOCK = 128


@dataclass
class AdamWState:
    """Optimizer state: per-parameter moments plus the shared step counter.

    Moments are zero-initialized on first use; ``step`` starts at 0 and
    increments once per :func:`adamw_step` call.
    """

    lr: float
    beta1: float
    beta2: float
    eps: float
    weight_decay: float
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(params: dict[str, Value], state: AdamWState) -> None:
    """One decoupled-weight-decay Adam update, in place.

    Parameters with no accumulated gradient are treated as having zero
    gradient (their moments still decay and weight decay still applies).
    A row-sparse gradient (``Value.row_grad``) is made dense one block of
    :data:`ROW_BLOCK` rows at a time, so every row still gets the update
    with +0.0 where no row was touched, and no ``[V, d]`` gradient is built.
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
        block = np.empty((min(ROW_BLOCK, len(p.data)), p.data.shape[1]))
        for lo in range(0, len(p.data), ROW_BLOCK):
            hi = min(lo + ROW_BLOCK, len(p.data))
            k0, k1 = np.searchsorted(ids, (lo, hi))
            g = block[: hi - lo]
            g.fill(0.0)
            g[ids[k0:k1] - lo] = rows[k0:k1]
            adamw_update(p.data[lo:hi].reshape(-1), g.reshape(-1),
                         m[lo:hi].reshape(-1), v[lo:hi].reshape(-1), *hyper)
