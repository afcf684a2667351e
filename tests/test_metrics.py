import json

import numpy as np
import pytest

from cfdetox.errors import ValidationError
from cfdetox.metrics import (
    Confusion,
    EvalReport,
    accuracy,
    build_report,
    f1_binary,
    f1_nontoxic,
    f1_weighted,
    fpr,
    render_table,
)


def test_confusion_hand_counted():
    c = Confusion.from_pairs([1, 1, 0, 0], [1, 0, 0, 0])
    assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 2, 0)
    assert accuracy(c) == 0.75
    assert fpr(c) == pytest.approx(1 / 3)


def test_confusion_rejects_non_binary():
    with pytest.raises(ValidationError):
        Confusion.from_pairs([2], [0])
    with pytest.raises(ValidationError):
        Confusion.from_pairs([0, 1], [0])


def test_f1_symmetric_case():
    assert f1_binary(Confusion(tp=2, fp=1, tn=0, fn=1)) == pytest.approx(2 / 3)


def test_fpr_zero_when_no_false_positives():
    assert fpr(Confusion(tp=3, fp=0, tn=5, fn=1)) == 0.0


def test_f1_absent_on_degenerate_denominator():
    # never predicted positive and no positives recovered: precision is 0/0
    assert f1_binary(Confusion(tp=0, fp=0, tn=2, fn=3)) is None
    # no actual positives: recall is 0/0
    assert f1_binary(Confusion(tp=0, fp=2, tn=2, fn=0)) is None


def test_f1_zero_when_positive_class_fully_missed():
    assert f1_binary(Confusion(tp=0, fp=2, tn=2, fn=3)) == 0.0


def test_fpr_absent_without_negatives():
    assert fpr(Confusion(tp=3, fp=0, tn=0, fn=1)) is None


def test_weighted_f1_support_weighting():
    assert f1_weighted([0.9, 0.5], [90, 10]) == pytest.approx(0.86)


def test_weighted_f1_skips_zero_support_class():
    assert f1_weighted([None, 0.8], [0, 10]) == pytest.approx(0.8)


def test_weighted_f1_absent_when_supported_class_absent():
    assert f1_weighted([None, 0.8], [5, 10]) is None
    assert f1_weighted([0.9, 0.5], [0, 0]) is None


def test_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        preds = rng.integers(0, 2, n).tolist()
        labels = rng.integers(0, 2, n).tolist()

        # independent oracle: explicit loops over the four cells
        tp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 1)
        fp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 0)
        tn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 0)
        fn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 1)

        c = Confusion.from_pairs(preds, labels)
        assert (c.tp, c.fp, c.tn, c.fn) == (tp, fp, tn, fn)
        assert accuracy(c) == (tp + tn) / n

        if tp + fp == 0 or tp + fn == 0:
            assert f1_binary(c) is None
        else:
            precision = tp / (tp + fp)
            recall = tp / (tp + fn)
            expected = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
            assert f1_binary(c) == expected

        if fp + tn == 0:
            assert fpr(c) is None
        else:
            assert fpr(c) == fp / (fp + tn)


def test_f1_nontoxic_swaps_roles():
    c = Confusion(tp=1, fp=2, tn=3, fn=4)
    swapped = Confusion(tp=3, fp=4, tn=1, fn=2)
    assert f1_nontoxic(c) == f1_binary(swapped)


def test_build_report_per_category_subsets():
    preds = [1, 1, 0, 0]
    labels = [1, 0, 0, 0]
    cats = [["nOI"], ["nOI", "OnI"], [], ["OnI"]]
    report = build_report(preds, labels, cats, mode="ccdf", inference="tie")
    assert report.dataset_size == 4
    assert set(report.per_category) == {"nOI", "OnI"}
    noi = report.per_category["nOI"]
    assert noi.size == 2
    assert (noi.confusion.tp, noi.confusion.fp) == (1, 1)
    oni = report.per_category["OnI"]
    assert oni.size == 2
    assert oni.fpr == pytest.approx(0.5)


def test_build_report_empty_is_error():
    with pytest.raises(ValidationError):
        build_report([], [], [], mode="ccdf", inference="tie")


def test_all_correct_has_zero_fpr_everywhere():
    preds = [1, 0, 1, 0]
    labels = [1, 0, 1, 0]
    cats = [["nOI"], ["OI"], ["OnI"], ["nOI"]]
    report = build_report(preds, labels, cats, mode="ccdf", inference="tie")
    for cat_report in report.per_category.values():
        assert cat_report.fpr in (0.0, None)
    assert fpr(report.confusion) == 0.0


def test_render_table_round_trips_displayed_fields():
    preds = [1, 1, 0, 0, 1]
    labels = [1, 0, 0, 0, 1]
    cats = [["nOI"], ["nOI"], [], ["OnI"], []]
    report = build_report(preds, labels, cats, mode="ccdf", inference="tie")
    text = render_table(report)
    row = text.splitlines()[-1].split()
    assert row[0] == "ccdf/tie"
    assert row[1] == f"{100 * report.accuracy:.2f}"
    assert row[2] == f"{100 * report.f1_binary:.2f}"
    noi = report.per_category["nOI"]
    assert row[3] == f"{100 * noi.f1:.2f}"
    assert row[4] == f"{100 * noi.fpr:.2f}"
    # absent OI block renders as dashes
    assert row[5] == "-" and row[6] == "-"


def test_report_json_round_trip():
    report = build_report([1, 0], [1, 1], [["OI"], []], mode="vanilla", inference="factual")
    payload = report.as_dict()
    assert payload["mode"] == "vanilla"
    assert payload["confusion"] == {"tp": 1, "fp": 0, "tn": 0, "fn": 1}
    assert payload["per_category"]["OI"]["size"] == 1
    assert json.loads(json.dumps(payload)) == payload
