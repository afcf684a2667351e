"""Detection and fairness metrics.

Degenerate denominators yield ``None`` ("absent"), never a silent 0: a
model that never predicts toxic has no defined precision, and a subset
with no true negatives has no defined false-positive rate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from cfdetox.errors import ValidationError
from cfdetox.lexicon import CATEGORIES


@dataclass(frozen=True)
class Confusion:
    """Binary confusion counts with toxic (label 1) as the positive class."""

    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @classmethod
    def from_pairs(cls, predictions: Sequence[int], labels: Sequence[int]) -> "Confusion":
        if len(predictions) != len(labels):
            raise ValidationError(
                f"predictions ({len(predictions)}) and labels ({len(labels)}) differ in length"
            )
        tp = fp = tn = fn = 0
        for p, y in zip(predictions, labels):
            if p not in (0, 1) or y not in (0, 1):
                raise ValidationError(f"predictions and labels must be 0/1, got ({p}, {y})")
            if p == 1 and y == 1:
                tp += 1
            elif p == 1 and y == 0:
                fp += 1
            elif p == 0 and y == 0:
                tn += 1
            else:
                fn += 1
        return cls(tp=tp, fp=fp, tn=tn, fn=fn)

    @property
    def size(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def as_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn}


def accuracy(c: Confusion) -> float | None:
    if c.size == 0:
        return None
    return (c.tp + c.tn) / c.size


def f1_binary(c: Confusion) -> float | None:
    """F1 with toxic as positive; absent when precision or recall is 0/0."""
    if c.tp + c.fp == 0 or c.tp + c.fn == 0:
        return None
    precision = c.tp / (c.tp + c.fp)
    recall = c.tp / (c.tp + c.fn)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def f1_nontoxic(c: Confusion) -> float | None:
    """F1 of the negative class (roles swapped)."""
    return f1_binary(Confusion(tp=c.tn, fp=c.fn, tn=c.tp, fn=c.fp))


def fpr(c: Confusion) -> float | None:
    """FP / (FP + TN); absent when the subset has no true negatives at all."""
    if c.fp + c.tn == 0:
        return None
    return c.fp / (c.fp + c.tn)


def f1_weighted(per_class_f1: Sequence[float | None], supports: Sequence[int]) -> float | None:
    """Support-weighted mean of per-class F1 (class order 0, 1).

    Classes with zero support are skipped; a supported class with an
    absent F1 makes the weighted value absent too.
    """
    total = sum(supports)
    if total == 0:
        return None
    out = 0.0
    for f1, support in zip(per_class_f1, supports):
        if support == 0:
            continue
        if f1 is None:
            return None
        out += (support / total) * f1
    return out


@dataclass
class CategoryReport:
    size: int
    confusion: Confusion
    f1: float | None
    fpr: float | None

    def as_dict(self) -> dict:
        return {
            "size": self.size,
            "confusion": self.confusion.as_dict(),
            "f1": self.f1,
            "fpr": self.fpr,
        }


@dataclass
class EvalReport:
    """Full evaluation: overall metrics plus one block per lexicon category.

    ``by_rule`` (present for checkpoints that support several inference
    rules) carries overall accuracy/F1 under each rule for comparison.
    ``records`` holds the per-example inference records the report was
    built from; it is not part of the serialized report.
    """

    dataset_size: int
    mode: str
    inference: str
    confusion: Confusion
    accuracy: float | None
    f1_binary: float | None
    f1_weighted: float | None
    per_category: dict[str, CategoryReport] = field(default_factory=dict)
    by_rule: dict[str, dict] = field(default_factory=dict)
    records: list[dict] = field(default_factory=list, repr=False)

    def as_dict(self) -> dict:
        return {
            "dataset_size": self.dataset_size,
            "mode": self.mode,
            "inference": self.inference,
            "confusion": self.confusion.as_dict(),
            "accuracy": self.accuracy,
            "f1_binary": self.f1_binary,
            "f1_weighted": self.f1_weighted,
            "per_category": {k: v.as_dict() for k, v in self.per_category.items()},
            "by_rule": self.by_rule,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


def build_report(
    predictions: Sequence[int],
    labels: Sequence[int],
    categories: Sequence[Sequence[str]],
    mode: str,
    inference: str,
) -> EvalReport:
    """Assemble an EvalReport from per-example predictions.

    ``categories[i]`` lists the lexicon categories matched in example i; an
    example may belong to several per-category subsets at once.
    """
    if len(predictions) == 0:
        raise ValidationError("cannot evaluate an empty set of predictions")
    overall = Confusion.from_pairs(predictions, labels)
    per_category: dict[str, CategoryReport] = {}
    for cat in CATEGORIES:
        idx = [i for i, cats in enumerate(categories) if cat in cats]
        if not idx:
            continue
        sub = Confusion.from_pairs([predictions[i] for i in idx], [labels[i] for i in idx])
        per_category[cat] = CategoryReport(size=len(idx), confusion=sub, f1=f1_binary(sub), fpr=fpr(sub))
    return EvalReport(
        dataset_size=len(predictions),
        mode=mode,
        inference=inference,
        confusion=overall,
        accuracy=accuracy(overall),
        f1_binary=f1_binary(overall),
        f1_weighted=f1_weighted(
            [f1_nontoxic(overall), f1_binary(overall)],
            [overall.tn + overall.fp, overall.tp + overall.fn],
        ),
        per_category=per_category,
    )


def _pct(value: float | None) -> str:
    return "-" if value is None else f"{100.0 * value:.2f}"


def render_table(report: EvalReport, ood_report: EvalReport | None = None) -> str:
    """Plain-text table: Test (Acc, F1) / nOI / OI / OnI (F1, FPR) / OOD (Acc, wF1).

    Every displayed number is round(100 * json_value, 2); absent metrics
    show as '-'.
    """
    group_header = ["Method", f"Test ({report.dataset_size})", ""]
    metric_header = ["", "Acc", "F1"]
    row = [f"{report.mode}/{report.inference}", _pct(report.accuracy), _pct(report.f1_binary)]
    for cat in CATEGORIES:
        sub = report.per_category.get(cat)
        group_header += [f"{cat} ({sub.size if sub else 0})", ""]
        metric_header += ["F1", "FPR"]
        row += [_pct(sub.f1) if sub else "-", _pct(sub.fpr) if sub else "-"]
    group_header += [f"OOD ({ood_report.dataset_size if ood_report else 0})", ""]
    metric_header += ["Acc", "wF1"]
    if ood_report is not None:
        row += [_pct(ood_report.accuracy), _pct(ood_report.f1_weighted)]
    else:
        row += ["-", "-"]
    table = [group_header, metric_header, row]
    widths = [max(len(r[i]) for r in table) for i in range(len(row))]
    lines = ["  ".join(c.rjust(widths[i]) for i, c in enumerate(r)) for r in table[:2]]
    lines.append("  ".join("-" * w for w in widths))
    lines.append("  ".join(c.rjust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)
