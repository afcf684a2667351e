"""Minimal reverse-mode differentiation over float64 numpy arrays.

A forward pass records a DAG of :class:`Value` nodes; :func:`backward`
walks it once in reverse topological order and accumulates gradients into
every reachable parameter.  The op set is exactly what the classifier
needs: embedding lookup, affine maps, (batched) matmul, masked softmax,
tanh, log, masked mean-pooling, elementwise arithmetic, dropout,
softmax cross-entropy, and a gradient stop.

Everything is 64-bit; the models are tiny, so precision is cheaper than
debugging.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from cfdetox.errors import (
    ContractError,
    DomainError,
    ShapeError,
    VocabularyError,
)
from cfdetox.kernels import scatter_add_rows


class Value:
    """One node of the recorded computation graph.

    Attributes:
        data: float64 array (scalars have shape ``()``).
        grad: same-shape gradient array, allocated lazily by backward().
        op: provenance tag, useful in error messages and debugging.
        requires_grad: whether backward() should reach this node.
    """

    __slots__ = ("data", "grad", "op", "requires_grad", "_parents", "_backward_fn")

    def __init__(
        self,
        data: np.ndarray,
        parents: tuple["Value", ...] = (),
        op: str = "leaf",
        requires_grad: bool = False,
        backward_fn: Callable[[np.ndarray], None] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.op = op
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward_fn = backward_fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # one pass, same bits as zero-fill-then-add (-0.0 + 0.0 is +0.0),
            # into an array shaped and laid out like ``data``
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Value(op={self.op!r}, shape={self.data.shape})"


def param(data: np.ndarray, op: str = "param") -> Value:
    """A trainable leaf."""
    return Value(np.array(data, dtype=np.float64), op=op, requires_grad=True)


def const(data: np.ndarray, op: str = "const") -> Value:
    """A non-trainable leaf."""
    return Value(np.asarray(data, dtype=np.float64), op=op)


def _as_value(x) -> Value:
    return x if isinstance(x, Value) else const(x)


def _node(data, parents, op, backward_fn) -> Value:
    requires = any(p.requires_grad for p in parents)
    return Value(data, parents=parents, op=op,
                 requires_grad=requires,
                 backward_fn=backward_fn if requires else None)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# forward ops
# ---------------------------------------------------------------------------

def embed(ids: np.ndarray, table: Value) -> Value:
    """Row lookup: ids [...] into table [V, d] -> [..., d]."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ContractError(f"embed ids must be integers, got {ids.dtype}")
    vocab_size = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise VocabularyError(
            f"token id out of range: ids span [{ids.min()}, {ids.max()}], table has {vocab_size} rows"
        )
    out_data = table.data[ids]

    def backward_fn(g: np.ndarray) -> None:
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        flat_ids = np.ascontiguousarray(ids.reshape(-1), dtype=np.int64)
        rows = np.ascontiguousarray(g.reshape(-1, table.data.shape[1]))
        scatter_add_rows(table.grad, flat_ids, rows)

    return _node(out_data, (table,), "embed", backward_fn)


def affine(x: Value, w: Value, b: Value) -> Value:
    """x [..., d_in] @ w [d_in, d_out] + b [d_out]."""
    d_in = x.data.shape[-1]
    if w.data.ndim != 2 or w.data.shape[0] != d_in:
        raise ShapeError(f"affine: x {x.data.shape} incompatible with w {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"affine: b {b.data.shape} incompatible with w {w.data.shape}")
    lead = x.data.shape[:-1]
    x2 = x.data.reshape(-1, d_in)
    out_data = (x2 @ w.data + b.data).reshape(*lead, w.data.shape[1])

    def backward_fn(g: np.ndarray) -> None:
        g2 = g.reshape(-1, w.data.shape[1])
        if x.requires_grad:
            x.accumulate((g2 @ w.data.T).reshape(x.data.shape))
        if w.requires_grad:
            w.accumulate(x2.T @ g2)
        if b.requires_grad:
            b.accumulate(g2.sum(axis=0))

    return _node(out_data, (x, w, b), "affine", backward_fn)


def matmul(a: Value, b: Value, transpose_b: bool = False) -> Value:
    """Matrix product on the last two axes; leading axes broadcast."""
    b_data = np.swapaxes(b.data, -1, -2) if transpose_b else b.data
    if a.data.shape[-1] != b_data.shape[-2]:
        raise ShapeError(
            f"matmul: {a.data.shape} @ {b.data.shape}"
            f"{' (transposed)' if transpose_b else ''} do not align"
        )
    out_data = a.data @ b_data

    def backward_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            ga = g @ np.swapaxes(b_data, -1, -2)
            a.accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            if transpose_b:
                gb = np.swapaxes(gb, -1, -2)
            b.accumulate(_unbroadcast(gb, b.data.shape))

    return _node(out_data, (a, b), "matmul", backward_fn)


def softmax(x: Value, axis: int = -1, mask: np.ndarray | None = None) -> Value:
    """Softmax along ``axis``; positions where ``mask`` is 0 get weight 0.

    ``mask`` is a plain (broadcastable) 0/1 array, not a Value.  Raises
    ContractError when a slice has no active position.
    """
    if not np.isfinite(x.data).all():
        raise DomainError("softmax input contains non-finite entries")
    if mask is None:
        shifted = x.data - x.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
    else:
        mask = np.broadcast_to(np.asarray(mask, dtype=np.float64), x.data.shape)
        if (mask.sum(axis=axis) == 0).any():
            raise ContractError("softmax: a slice is fully masked")
        neg = np.where(mask > 0, x.data, -np.inf)
        shifted = neg - neg.max(axis=axis, keepdims=True)
        e = np.where(mask > 0, np.exp(shifted), 0.0)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g: np.ndarray) -> None:
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        x.accumulate((g - inner) * out_data)

    return _node(out_data, (x,), "softmax", backward_fn)


def tanh(x: Value) -> Value:
    out_data = np.tanh(x.data)

    def backward_fn(g: np.ndarray) -> None:
        x.accumulate(g * (1.0 - out_data * out_data))

    return _node(out_data, (x,), "tanh", backward_fn)


def log(x: Value) -> Value:
    """Natural log; raises DomainError on non-positive entries."""
    if (x.data <= 0).any():
        raise DomainError("log: input has non-positive entries (callers must guard)")
    out_data = np.log(x.data)

    def backward_fn(g: np.ndarray) -> None:
        x.accumulate(g / x.data)

    return _node(out_data, (x,), "log", backward_fn)


def mean_pool(x: Value, mask: np.ndarray, axis: int) -> Value:
    """Mean of ``x`` over ``axis`` restricted to positions with mask 1.

    ``mask`` must match ``x``'s shape up to trailing feature axes and have
    at least one active position per pooled slice.
    """
    mask = np.asarray(mask, dtype=np.float64)
    m = mask.reshape(mask.shape + (1,) * (x.data.ndim - mask.ndim))
    m = np.broadcast_to(m, x.data.shape)
    counts = m.sum(axis=axis)
    if (counts == 0).any():
        raise ContractError("mean_pool: a pooled slice is fully masked")
    out_data = (x.data * m).sum(axis=axis) / counts

    def backward_fn(g: np.ndarray) -> None:
        ge = np.expand_dims(g / counts, axis)
        x.accumulate(ge * m)

    return _node(out_data, (x,), "mean_pool", backward_fn)


def mul(a: Value, b) -> Value:
    """Elementwise product with numpy broadcasting."""
    b = _as_value(b)
    out_data = a.data * b.data

    def backward_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), "mul", backward_fn)


def add(a: Value, b) -> Value:
    """Elementwise sum with numpy broadcasting; ``b`` may be a plain array/scalar."""
    b = _as_value(b)
    out_data = a.data + b.data

    def backward_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), "add", backward_fn)


def sub(a: Value, b) -> Value:
    b = _as_value(b)
    out_data = a.data - b.data

    def backward_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g, b.data.shape))

    return _node(out_data, (a, b), "sub", backward_fn)


def clamp_min(x: Value, floor: float) -> Value:
    """max(x, floor); gradient passes only where x > floor."""
    out_data = np.maximum(x.data, floor)
    pass_mask = x.data > floor

    def backward_fn(g: np.ndarray) -> None:
        x.accumulate(g * pass_mask)

    return _node(out_data, (x,), "clamp_min", backward_fn)


def tile_rows(v: Value, n: int) -> Value:
    """Repeat a vector [k] into a matrix [n, k]; gradient sums over rows."""
    if v.data.ndim != 1:
        raise ShapeError(f"tile_rows expects a vector, got shape {v.data.shape}")
    out_data = np.broadcast_to(v.data, (n, v.data.shape[0])).copy()

    def backward_fn(g: np.ndarray) -> None:
        v.accumulate(g.sum(axis=0))

    return _node(out_data, (v,), "tile_rows", backward_fn)


# dropout mask streams: one sub-key per call site so masks never collide
DROPOUT_SITES = {
    "enc_x": 0,
    "enc_b": 1,
    "branch_e": 2,
    "branch_x": 3,
    "branch_b": 4,
}


def dropout(x: Value, p: float, seed: int = 0, step: int = 0, site: str = "enc_x") -> Value:
    """Inverted dropout with a counter-based mask.

    The mask stream is a Philox generator keyed by (seed, step, site), so a
    given (seed, step, site) always yields the same mask regardless of
    execution history.  Identity when ``p`` == 0; inference passes no
    dropout context to the model, so it never reaches this op.
    """
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    key = (int(seed) << 64) | (int(step) << 8) | DROPOUT_SITES[site]
    rng = np.random.Generator(np.random.Philox(key=key))
    # keep is 0 or 1, so x * (keep * scale) has the bits of (x * keep) * scale
    keep_scaled = (rng.random(x.data.shape) >= p) * (1.0 / (1.0 - p))
    out_data = x.data * keep_scaled

    def backward_fn(g: np.ndarray) -> None:
        x.accumulate(g * keep_scaled)

    return _node(out_data, (x,), "dropout", backward_fn)


def cross_entropy(logits: Value, labels: np.ndarray) -> Value:
    """Mean softmax cross-entropy of logits [B, C] against int labels [B]."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects [batch, classes], got {logits.data.shape}")
    n, c = logits.data.shape
    if labels.shape != (n,):
        raise ShapeError(f"cross_entropy: labels {labels.shape} do not match logits {logits.data.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ContractError(f"labels must be in [0, {c}), got range [{labels.min()}, {labels.max()}]")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + logits.data.max(axis=1)
    out_data = np.asarray((lse - logits.data[np.arange(n), labels]).mean())

    def backward_fn(g: np.ndarray) -> None:
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(n), labels] -= 1.0
        logits.accumulate(probs * (float(g) / n))

    return _node(out_data, (logits,), "cross_entropy", backward_fn)


def stop_gradient(x: Value) -> Value:
    """A constant leaf over ``x``'s data: the forward value passes, no
    gradient flows back into ``x``."""
    return const(x.data, op="stop_grad")


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def backward(loss: Value) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable requires_grad leaf.

    ``loss`` must be scalar-shaped.  Grads accumulate across calls; callers
    zero them between optimizer steps (:func:`zero_grads`).
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    # iterative topological sort: recursion depth scales with graph depth
    order: list[Value] = []
    visited: set[int] = set()
    stack: list[tuple[Value, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    loss.accumulate(np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward_fn is None or node.grad is None:
            continue
        node._backward_fn(node.grad)
    # intermediate grads are not part of the contract; free them
    for node in order:
        if node is not loss and node._parents:
            node.grad = None


def zero_grads(values: Iterable[Value]) -> None:
    for v in values:
        v.grad = None

