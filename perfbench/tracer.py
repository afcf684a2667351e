"""Span tracer for one cfdetox CLI call, installed from outside the package.

    python3 perfbench/tracer.py OUT_PREFIX -- <cfdetox arguments>

Imports ``cfdetox.cli`` inside a span, wraps the public functions of each
package module at every place they are called from (a function imported
by name is patched in the importing module too), runs
``cfdetox.cli.main(argv)``, restores every original and writes
``OUT_PREFIX.npy`` (one row per span: name id, start ns, end ns, parent
row or -1, rollup bucket id) and ``OUT_PREFIX.json`` (names, buckets,
counters, exit code, and the wall time from the tracer's start to main's
return).  Spans stay in memory until main returns.

Every op in ``cfdetox.autodiff`` is wrapped, and so is the backward
closure of each ``Value`` it returns: the closure's span is named
``autodiff.<op>.bwd`` and charged to the rollup bucket that was current
when the closure was created, so backward time lands on the model part
that built the node.  Wrapping changes no arithmetic.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

BUCKETS = ("other", "data", "encoder", "ensemble", "heads", "fusion", "loss", "backward", "optimizer")
OTHER, DATA, ENCODER, ENSEMBLE, HEADS, FUSION, LOSS, BACKWARD, OPTIMIZER = range(len(BUCKETS))

AUTODIFF_OPS = (
    "embed", "affine", "matmul", "softmax", "tanh", "log", "mean_pool",
    "mul", "add", "sub", "clamp_min", "tile_rows", "dropout", "cross_entropy",
)
CLI_COMMANDS = ("train", "eval", "infer")  # the commands the benchmark traces


# counters kept at the call boundary; each gets (counters, args, kwargs, result)

def _count_encode_batch(c, args, kwargs, batch) -> None:
    c["data.x_real_slots"] += int(batch.x_mask.sum())
    c["data.x_slots"] += batch.x_mask.size
    c["data.b_real_slots"] += int(batch.b_mask.sum())
    c["data.b_slots"] += batch.b_mask.size


def _count_encode(c, args, kwargs, result) -> None:
    c["model.encode.slots"] += args[0].size


def _count_ccdf_forward(c, args, kwargs, result) -> None:
    c[f"model.ccdf_forward.calls.{result.scenario}"] += 1


def _count_scatter(c, args, kwargs, result) -> None:
    ids, rows = args[1], args[2]
    c["kernels.scatter_add_rows.rows"] += ids.size
    # ids and addends read once, target rows read and written once
    c["kernels.scatter_add_rows.bytes"] += ids.nbytes + 3 * rows.nbytes


def _count_adamw(c, args, kwargs, result) -> None:
    p = args[0]
    c["kernels.adamw_update.elements"] += p.size
    # p, g, m, v read once; p, m, v written once
    c["kernels.adamw_update.bytes"] += 7 * p.nbytes


class Tracer:
    """Records spans around patched callables; ``restore`` undoes every patch."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str, bucket: int | None = None) -> list[int]:
        """Start a span by hand; close it with :meth:`close`."""
        parent = self.stack[-1] if self.stack else -1
        if bucket is None:
            bucket = self.spans[parent][4] if parent >= 0 else OTHER
        rec = [self.name_id(name), 0, 0, parent, bucket]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def close(self, rec: list[int]) -> None:
        rec[2] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, fn, name: str, bucket: int | None = None, count=None, op: bool = False):
        """``fn`` inside a span.  ``bucket`` None inherits the caller's
        bucket; ``op`` marks an autodiff op, whose bucket falls back to
        ``loss`` outside any model span and whose backward closure is
        wrapped too."""
        nid = self.name_id(name)
        bwd_nid = self.name_id(name + ".bwd") if op else -1
        spans, stack, counters, clock = self.spans, self.stack, self.counters, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            b = bucket
            if b is None:
                b = spans[parent][4] if parent >= 0 else OTHER
                if op and b == OTHER:
                    b = LOSS
            rec = [nid, 0, 0, parent, b]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            if op and result._backward_fn is not None:
                counters["autodiff.closures"] += 1
                result._backward_fn = self._wrap_backward(result._backward_fn, bwd_nid, b)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_backward(self, fn, nid: int, charge: int):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def backward_fn(g):
            rec = [nid, 0, 0, stack[-1] if stack else -1, charge]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                fn(g)
            finally:
                rec[2] = clock()
                stack.pop()

        return backward_fn

    def patch(self, owner, attr: str, name: str, bucket: int | None = None, count=None, op: bool = False) -> None:
        """Replace ``owner.attr`` by a wrapped version; a classmethod stays
        a classmethod."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, bucket, count, op))
        else:
            new = self.wrap(raw, name, bucket, count, op)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)


def install(tracer: Tracer) -> None:
    """Patch every traced call site of the cfdetox package."""
    import cfdetox.autodiff as A
    import cfdetox.checkpoint as ckpt
    import cfdetox.cli as cli
    import cfdetox.data as D
    import cfdetox.effects as E
    import cfdetox.lexicon as L
    import cfdetox.metrics as MET
    import cfdetox.model as M
    import cfdetox.optim as O
    import cfdetox.training as T

    p = tracer.patch
    p(cli, "main", "cli.main")
    for cmd in CLI_COMMANDS:
        p(cli, f"cmd_{cmd}", f"cli.cmd_{cmd}")

    for owner in (D, T):
        p(owner, "encode_batch", "data.encode_batch", DATA, _count_encode_batch)
        p(owner, "nobias_batch", "data.nobias_batch", DATA)
    for attr in ("load_jsonl", "save_jsonl"):
        p(D, attr, f"data.{attr}", DATA)
    for attr in ("build", "load", "save"):
        p(D.Vocab, attr, f"data.Vocab.{attr}", DATA)
    for owner in (L, D, T, cli):
        p(owner, "match_biased_tokens", "lexicon.match_biased_tokens", DATA)
    for owner in (L, cli):
        p(owner, "load_lexicon", "lexicon.load_lexicon", DATA)

    p(M, "init_params", "model.init_params", OTHER)
    p(M, "encode", "model.encode", ENCODER, _count_encode)
    p(M, "cross_attention_ensemble", "model.cross_attention_ensemble", ENSEMBLE)
    p(M, "mlp", "model.mlp", HEADS)
    p(M, "fuse", "model.fuse", FUSION)
    p(M, "branch_forward", "model.branch_forward", HEADS)
    p(M, "ccdf_forward", "model.ccdf_forward", ENCODER, _count_ccdf_forward)

    for op in AUTODIFF_OPS:
        p(A, op, f"autodiff.{op}", op=True)
    p(A, "backward", "autodiff.backward", BACKWARD)
    p(A, "zero_grads", "autodiff.zero_grads", BACKWARD)

    p(A, "scatter_add_rows", "kernels.scatter_add_rows", count=_count_scatter)
    p(O, "adamw_update", "kernels.adamw_update", count=_count_adamw)
    for owner in (O, T):
        p(owner, "adamw_step", "optim.adamw_step", OPTIMIZER)

    p(T, "train", "training.train", OTHER)
    p(T, "evaluate", "training.evaluate", OTHER)
    p(T, "predict_batch", "training.predict_batch", OTHER)
    p(T, "loss_terms", "training.loss_terms", LOSS)
    p(T, "invariant_response_loss", "training.invariant_response_loss", LOSS)
    p(T, "sentence_branch_forward", "training.sentence_branch_forward", ENCODER)
    p(T, "lmixin_forward", "training.lmixin_forward", ENCODER)

    for owner in (E, T):
        p(owner, "inference_records", "effects.inference_records", OTHER)
    for owner in (MET, T):
        p(owner, "build_report", "metrics.build_report", OTHER)
    p(MET.Confusion, "from_pairs", "metrics.Confusion.from_pairs", OTHER)
    p(cli, "render_table", "metrics.render_table", OTHER)

    p(ckpt, "load_params", "checkpoint.load_params", OTHER)
    p(ckpt, "save_params", "checkpoint.save_params", OTHER)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT_PREFIX -- <cfdetox arguments>", file=sys.stderr)
        return 64
    out_prefix, cli_argv = argv[0], argv[2:]
    begin = time.perf_counter_ns()
    tracer = Tracer()
    rec = tracer.open("cli.import", OTHER)
    import cfdetox.cli

    tracer.close(rec)
    install(tracer)
    try:
        code = cfdetox.cli.main(cli_argv)
    finally:
        wall_ns = time.perf_counter_ns() - begin
        tracer.restore()

    import numpy as np

    np.save(f"{out_prefix}.npy", np.array(tracer.spans, dtype=np.int64).reshape(-1, 5))
    with open(f"{out_prefix}.json", "w", encoding="utf-8") as fh:
        json.dump({"names": tracer.names, "buckets": list(BUCKETS),
                   "counters": dict(tracer.counters), "wall_ns": wall_ns, "exit_code": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
