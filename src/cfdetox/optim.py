"""AdamW with decoupled weight decay, over named Value parameters."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from cfdetox.autodiff import Value
from cfdetox.errors import ContractError
from cfdetox.kernels import adamw_update


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
    Gradients are left untouched; the caller zeroes them.
    """
    state.step += 1
    bias_c1 = 1.0 - state.beta1 ** state.step
    bias_c2 = 1.0 - state.beta2 ** state.step
    for name, p in params.items():
        if not p.requires_grad:
            raise ContractError(f"adamw_step: parameter {name!r} is not trainable")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        adamw_update(
            p.data.reshape(-1),
            np.ascontiguousarray(grad.reshape(-1)),
            state.m[name].reshape(-1),
            state.v[name].reshape(-1),
            state.lr,
            state.beta1,
            state.beta2,
            state.eps,
            state.weight_decay,
            bias_c1,
            bias_c2,
        )
