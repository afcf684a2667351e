"""Per-layer metrics from the span files that ``tracer.py`` writes.

A span's self time is its duration minus the durations of its direct
children.  ``<name>.s`` is the summed duration of the spans of that name
(no traced function calls itself, so nothing is counted twice), except
where the name says ``self_s`` or the definition below says self time.
See README.md for every definition.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import AUTODIFF_OPS, BUCKETS, CLI_COMMANDS

MODES = ("ccdf", "lmixin", "masking", "vanilla")

# (name, unit, better), in the order BENCHMARK.json lists them
PER_LAYER: list[tuple[str, str, str]] = [
    ("data.encode_batch.s", "s", "lower"),
    ("data.encode_batch.calls", "count", "lower"),
    ("data.x_useful_ratio", "ratio", "higher"),
    ("data.b_useful_ratio", "ratio", "higher"),
    ("data.load_jsonl.s", "s", "lower"),
    ("lexicon.match_biased_tokens.s", "s", "lower"),
    ("lexicon.match_biased_tokens.calls", "count", "lower"),
    ("model.encode.s", "s", "lower"),
    ("model.encode.calls", "count", "lower"),
    ("model.encode.slots", "count", "lower"),
    ("model.cross_attention_ensemble.s", "s", "lower"),
    ("model.mlp.s", "s", "lower"),
    ("model.fuse.s", "s", "lower"),
    ("model.ccdf_forward.calls.factual", "count", "lower"),
    ("model.ccdf_forward.calls.counterfactual", "count", "lower"),
    *[(f"autodiff.{op}.{phase}", "s", "lower") for op in AUTODIFF_OPS for phase in ("fwd_s", "bwd_s")],
    ("autodiff.backward.s", "s", "lower"),
    ("autodiff.closures", "count", "lower"),
    ("kernels.scatter_add_rows.s", "s", "lower"),
    ("kernels.scatter_add_rows.rows", "count", "lower"),
    ("kernels.scatter_add_rows.bytes", "B", "lower"),
    ("kernels.adamw_update.s", "s", "lower"),
    ("kernels.adamw_update.elements", "count", "lower"),
    ("kernels.adamw_update.bytes", "B", "lower"),
    ("kernels.share", "ratio", "lower"),
    ("optim.adamw_step.s", "s", "lower"),
    ("training.step_ms.p50", "ms", "lower"),
    ("training.step_ms.p90", "ms", "lower"),
    *[(f"training.step_ms.p50.{mode}", "ms", "lower") for mode in MODES],
    ("training.evaluate.s", "s", "lower"),
    ("training.predict_batch.s", "s", "lower"),
    ("training.predict_batch.calls", "count", "lower"),
    ("training.loss_terms.s", "s", "lower"),
    ("effects.inference_records.s", "s", "lower"),
    ("metrics.build_report.s", "s", "lower"),
    ("checkpoint.load_params.s", "s", "lower"),
    ("checkpoint.save_params.s", "s", "lower"),
    ("cli.import.s", "s", "lower"),
    *[(f"cli.cmd_{cmd}.self_s", "s", "lower") for cmd in CLI_COMMANDS],
    *[(f"rollup.{bucket}.s", "s", "lower") for bucket in BUCKETS],
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
]

# metrics that are self time although their name ends in ``.s``
_SELF_TIME = {"optim.adamw_step.s": "optim.adamw_step", "autodiff.backward.s": "autodiff.backward"}
_TIMED = ("data.encode_batch", "data.load_jsonl", "lexicon.match_biased_tokens", "model.encode",
          "model.cross_attention_ensemble", "model.mlp", "model.fuse",
          "kernels.scatter_add_rows", "kernels.adamw_update", "training.evaluate",
          "training.predict_batch", "training.loss_terms", "effects.inference_records",
          "metrics.build_report", "checkpoint.load_params", "checkpoint.save_params", "cli.import")
_CALLS = ("data.encode_batch", "lexicon.match_biased_tokens", "model.encode", "training.predict_batch")
_COUNTERS = ("model.encode.slots", "model.ccdf_forward.calls.factual",
             "model.ccdf_forward.calls.counterfactual", "autodiff.closures",
             "kernels.scatter_add_rows.rows", "kernels.scatter_add_rows.bytes",
             "kernels.adamw_update.elements", "kernels.adamw_update.bytes")


@dataclass
class SpanFile:
    """One traced process: its spans, names and counters."""

    spans: np.ndarray  # int64 [n, 5]: name id, start ns, end ns, parent row, bucket id
    names: list[str]
    counters: dict[str, int]
    wall_s: float  # tracer start to main's return, inside the process

    @classmethod
    def load(cls, prefix: Path) -> "SpanFile":
        meta = json.loads(Path(f"{prefix}.json").read_text(encoding="utf-8"))
        spans = np.load(f"{prefix}.npy").reshape(-1, 5)
        return cls(spans=spans, names=meta["names"], counters=meta["counters"], wall_s=meta["wall_ns"] / 1e9)

    def durations(self) -> np.ndarray:
        return (self.spans[:, 2] - self.spans[:, 1]) / 1e9

    def self_times(self) -> np.ndarray:
        dur = self.durations()
        parents = self.spans[:, 3]
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - child

    def rows(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.spans), dtype=bool)
        return self.spans[:, 0] == self.names.index(name)

    def step_intervals_ms(self) -> list[float]:
        """Intervals between the starts of successive optimizer steps."""
        starts = self.spans[self.rows("optim.adamw_step"), 1]
        return (np.diff(starts) / 1e6).tolist()


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method), 0 with no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(files: list[SpanFile], probes: dict[str, list[SpanFile]],
              traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Every PER_LAYER metric over the traced session ``files``.

    ``probes`` maps a training mode to the span files of its short probe
    run; they feed only ``training.step_ms.p50.<mode>``.  The walls are
    process walls of the same CLI calls, traced and untraced, and give
    ``trace.overhead``; ``trace.coverage`` divides by the in-process wall.
    """
    total: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    counts: dict[str, int] = {}
    buckets = dict.fromkeys(BUCKETS, 0.0)
    counters: dict[str, int] = {}
    steps: list[float] = []
    self_sum = in_process_wall = 0.0
    for f in files:
        dur, self_t = f.durations(), f.self_times()
        ids = f.spans[:, 0]
        for i, name in enumerate(f.names):
            sel = ids == i
            total[name] = total.get(name, 0.0) + float(dur[sel].sum())
            self_by_name[name] = self_by_name.get(name, 0.0) + float(self_t[sel].sum())
            counts[name] = counts.get(name, 0) + int(sel.sum())
        for b, name in enumerate(BUCKETS):
            buckets[name] += float(self_t[f.spans[:, 4] == b].sum())
        for key, value in f.counters.items():
            counters[key] = counters.get(key, 0) + value
        steps.extend(f.step_intervals_ms())
        self_sum += float(self_t.sum())
        in_process_wall += f.wall_s

    out: dict[str, float] = {}
    for name in _TIMED:
        out[f"{name}.s"] = total.get(name, 0.0)
    for metric, name in _SELF_TIME.items():
        out[metric] = self_by_name.get(name, 0.0)
    for name in _CALLS:
        out[f"{name}.calls"] = counts.get(name, 0)
    for key in _COUNTERS:
        out[key] = counters.get(key, 0)
    x_slots, b_slots = counters.get("data.x_slots", 0), counters.get("data.b_slots", 0)
    out["data.x_useful_ratio"] = counters.get("data.x_real_slots", 0) / x_slots if x_slots else 0.0
    out["data.b_useful_ratio"] = counters.get("data.b_real_slots", 0) / b_slots if b_slots else 0.0
    for op in AUTODIFF_OPS:
        out[f"autodiff.{op}.fwd_s"] = total.get(f"autodiff.{op}", 0.0)
        out[f"autodiff.{op}.bwd_s"] = total.get(f"autodiff.{op}.bwd", 0.0)
    kernel_self = sum(self_by_name.get(k, 0.0) for k in ("kernels.scatter_add_rows", "kernels.adamw_update"))
    out["kernels.share"] = kernel_self / self_sum if self_sum else 0.0
    out["training.step_ms.p50"] = _quantile(steps, 50)
    out["training.step_ms.p90"] = _quantile(steps, 90)
    for mode in MODES:
        mode_steps = [ms for f in probes.get(mode, []) for ms in f.step_intervals_ms()]
        out[f"training.step_ms.p50.{mode}"] = _quantile(mode_steps, 50)
    for cmd in CLI_COMMANDS:
        out[f"cli.cmd_{cmd}.self_s"] = self_by_name.get(f"cli.cmd_{cmd}", 0.0)
    for bucket in BUCKETS:
        out[f"rollup.{bucket}.s"] = buckets[bucket]
    out["trace.coverage"] = self_sum / in_process_wall if in_process_wall else 0.0
    out["trace.overhead"] = traced_wall_s / untraced_wall_s - 1.0 if untraced_wall_s else 0.0
    return {name: out[name] for name, _, _ in PER_LAYER}
