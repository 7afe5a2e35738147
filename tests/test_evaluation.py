import math
import random

import pytest

from wikicat.evaluation import (
    EvalInstance,
    EvalReport,
    accuracy,
    evaluate,
    evaluate_grouped,
    load_eval,
    macro_f1,
    resolve_golds,
    write_eval,
)
from wikicat.exceptions import ConfigurationError


def test_accuracy_basic_cases():
    assert accuracy(["a", "b"], [["a"], ["b"]]) == 1.0
    assert accuracy(["a", "b"], [["a"], ["c"]]) == 0.5
    # membership in a multi-label gold set counts as a hit
    assert accuracy(["a"], [["a", "b"]]) == 1.0
    assert accuracy(["b"], [["a", "b"]]) == 1.0
    assert accuracy(["c"], [["a", "b"]]) == 0.0


def test_accuracy_validation():
    with pytest.raises(ConfigurationError):
        accuracy(["a"], [["a"], ["b"]])
    with pytest.raises(ConfigurationError):
        accuracy([], [])
    with pytest.raises(ConfigurationError):
        accuracy(["a"], [[]])


def test_resolve_golds_prefers_prediction_then_first():
    assert resolve_golds(["a", "a"], [["b", "a"], ["b", "c"]]) == ["a", "b"]


def test_macro_f1_hand_confusion_matrix():
    # preds [A, A] vs golds [{A}, {B}]: class A has tp=1 fp=1 fn=0 so
    # P=1/2 R=1 F1=2/3; class B has tp=0 fn=1 so F1=0; macro = 1/3.
    assert macro_f1(["A", "A"], [["A"], ["B"]]) == pytest.approx(1 / 3)


def test_macro_f1_adds_the_class_f1s_left_to_right():
    # F1s 1/2, 2/3, 2/5 added left to right give 1.5666666666666664, and the
    # correctly rounded sum, which ``sum`` gives from Python 3.12 on, is
    # 1.5666666666666667: macro-F1 0.5222222222222221, not ...223.  The
    # report is the same on every version.
    report = evaluate(list("bbacaa"), [[gold] for gold in "cbccac"])
    f1s = [row["f1"] for row in report.per_class.values()]
    assert f1s == [0.5, 2 / 3, 0.4]
    assert math.fsum(f1s) / 3 == 0.5222222222222223
    assert report.macro_f1 == 0.5222222222222221


def test_macro_f1_trivial_cases():
    assert macro_f1(["a", "b"], [["a"], ["b"]]) == 1.0
    assert macro_f1(["a", "a"], [["a"], ["a"]]) == 1.0
    # resolving a multi-label hit to the prediction keeps it perfect
    assert macro_f1(["b"], [["a", "b"]]) == 1.0


def test_macro_f1_ignores_classes_never_in_gold():
    # "z" appears only as a wrong prediction; it costs recall on "a" but
    # contributes no class of its own to the average.
    score = macro_f1(["z", "a"], [["a"], ["a"]])
    # class a: tp=1 fp=0 fn=1 -> P=1 R=1/2 F1=2/3; only class counted
    assert score == pytest.approx(2 / 3)


def test_metrics_permutation_invariant():
    rng = random.Random(11)
    preds = [rng.choice("abc") for _ in range(40)]
    golds = [[rng.choice("abc")] for _ in range(40)]
    order = list(range(40))
    rng.shuffle(order)
    shuffled_preds = [preds[i] for i in order]
    shuffled_golds = [golds[i] for i in order]
    assert accuracy(preds, golds) == pytest.approx(
        accuracy(shuffled_preds, shuffled_golds)
    )
    assert macro_f1(preds, golds) == pytest.approx(
        macro_f1(shuffled_preds, shuffled_golds)
    )


def test_evaluate_report_fields():
    report = evaluate(["a", "a"], [["a"], ["b"]], group="g")
    assert isinstance(report, EvalReport)
    assert report.n == 2
    assert report.group == "g"
    assert report.accuracy == 0.5
    assert report.macro_f1 == pytest.approx(1 / 3)
    assert report.per_class["a"]["precision"] == 0.5
    assert report.per_class["a"]["recall"] == 1.0
    assert report.per_class["b"]["f1"] == 0.0
    assert report.per_class["b"]["support"] == 1.0
    doc = report.to_dict()
    assert set(doc) == {"accuracy", "macro_f1", "per_class", "n", "group"}
    assert 0.0 <= doc["accuracy"] <= 1.0 and 0.0 <= doc["macro_f1"] <= 1.0


def test_evaluate_none_prediction_and_multi_label_miss():
    # A None prediction is a miss and adds no class; the miss on {b, c}
    # resolves to its first gold label b.
    report = evaluate([None, "a", "a"], [["a"], ["b", "c"], ["a", "c"]])
    assert report.accuracy == 1 / 3
    assert set(report.per_class) == {"a", "b"}
    assert report.per_class["a"] == {
        "precision": 0.5, "recall": 0.5, "f1": 0.5, "support": 2.0,
    }
    assert report.per_class["b"] == {
        "precision": 0.0, "recall": 0.0, "f1": 0.0, "support": 1.0,
    }
    assert report.macro_f1 == 0.25
    assert accuracy([None], [["a"]]) == 0.0
    assert macro_f1([None], [["a"]]) == 0.0


def _grouped_fixture():
    # Three parents, four classes each, eight instances per parent.  The
    # model reads the label off the first token, and per parent the
    # second instance of classes 2..4 is poisoned to predict class 1:
    # 5 of 8 correct per parent.
    instances = []
    models = {}
    for p in ("p1", "p2", "p3"):
        models[p] = lambda texts: [text.split()[0] for text in texts]
        for k in range(1, 5):
            cls = f"{p}_c{k}"
            instances.append(EvalInstance(f"{cls} doc", (cls,), parent=p))
            first = f"{p}_c1" if k > 1 else cls
            instances.append(EvalInstance(f"{first} doc", (cls,), parent=p))
    return instances, models


def test_evaluate_grouped_hand_scored_fixture():
    instances, models = _grouped_fixture()
    assert len(instances) == 24
    reports, pooled = evaluate_grouped(instances, models)
    assert set(reports) == {"p1", "p2", "p3"}
    for parent, report in reports.items():
        assert report.n == 8
        assert report.group == parent
        assert report.accuracy == pytest.approx(5 / 8)
        # class 1: P=2/5 R=1 F1=4/7; classes 2..4: P=1 R=1/2 F1=2/3
        assert report.macro_f1 == pytest.approx((4 / 7 + 3 * (2 / 3)) / 4)
        assert report.per_class[f"{parent}_c1"]["f1"] == pytest.approx(4 / 7)
    assert pooled.n == 24
    assert pooled.group == "pooled"
    assert pooled.accuracy == pytest.approx(5 / 8)
    # disjoint label spaces with identical structure: same macro as each group
    assert pooled.macro_f1 == pytest.approx((4 / 7 + 3 * (2 / 3)) / 4)
    assert len(pooled.per_class) == 12


def test_evaluate_grouped_accuracy_pools_by_weight():
    instances = [
        EvalInstance("a", ("a",), parent="small"),
        EvalInstance("a", ("b",), parent="small"),
    ]
    instances += [EvalInstance("c", ("c",), parent="big") for _ in range(6)]
    models = {
        "small": lambda texts: ["a"] * len(texts),
        "big": lambda texts: ["c"] * len(texts),
    }
    reports, pooled = evaluate_grouped(instances, models)
    assert reports["small"].accuracy == 0.5
    assert reports["big"].accuracy == 1.0
    assert pooled.accuracy == pytest.approx((2 * 0.5 + 6 * 1.0) / 8)


def test_evaluate_grouped_single_parent_matches_plain_evaluation():
    instances = [
        EvalInstance("a x", ("a",), parent="only"),
        EvalInstance("b x", ("a",), parent="only"),
    ]
    models = {"only": lambda texts: [text.split()[0] for text in texts]}
    reports, pooled = evaluate_grouped(instances, models)
    flat = evaluate(["a", "b"], [["a"], ["a"]])
    assert reports["only"].accuracy == flat.accuracy
    assert reports["only"].macro_f1 == flat.macro_f1
    assert pooled.accuracy == flat.accuracy


def test_evaluate_grouped_calls_each_model_once_and_keeps_instance_order():
    # parents interleave, so pooling must put each prediction back in place
    instances = [
        EvalInstance("a", ("a",), parent="p"),
        EvalInstance("b", ("b",), parent="q"),
        EvalInstance("c", ("a",), parent="p"),
        EvalInstance("d", ("d",), parent="q"),
    ]
    batches = []

    def model(texts):
        batches.append(list(texts))
        return list(texts)

    reports, pooled = evaluate_grouped(instances, {"p": model, "q": model})
    assert batches == [["a", "c"], ["b", "d"]]
    assert reports["p"].accuracy == 0.5 and reports["q"].accuracy == 1.0
    flat = evaluate(["a", "b", "c", "d"], [inst.gold for inst in instances])
    assert pooled.to_dict() == {**flat.to_dict(), "group": "pooled"}
    with pytest.raises(ConfigurationError, match="differ in length"):
        evaluate_grouped(instances, {"p": model, "q": lambda texts: ["b"]})


def test_evaluate_grouped_unknown_parent_errors():
    instances = [EvalInstance("x", ("a",), parent="ghost")]
    with pytest.raises(ConfigurationError, match="ghost"):
        evaluate_grouped(instances, {"real": lambda texts: ["a"] * len(texts)})
    with pytest.raises(ConfigurationError, match="None"):
        evaluate_grouped(
            [EvalInstance("x", ("a",))], {"real": lambda texts: ["a"] * len(texts)}
        )


def test_eval_instances_round_trip(tmp_path):
    instances = [
        EvalInstance("some text", ("a", "b"), parent="p"),
        EvalInstance("more text", ("c",), parent=None),
    ]
    path = tmp_path / "eval.jsonl"
    write_eval(instances, path)
    assert load_eval(path) == instances
    # rewriting produces identical bytes
    blob = path.read_bytes()
    write_eval(load_eval(path), path)
    assert path.read_bytes() == blob


@pytest.mark.parametrize(
    "row",
    [
        '{"text": 5, "labels": ["a"], "parent": null}',
        '{"text": "x", "labels": [], "parent": null}',
        '{"text": "x", "labels": "a", "parent": null}',
        '{"text": "x", "labels": ["a"], "parent": 7}',
        "[1, 2]",
        "{broken",
    ],
)
def test_load_eval_rejects_malformed_rows(tmp_path, row):
    path = tmp_path / "eval.jsonl"
    path.write_text(row + "\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="eval.jsonl:1"):
        load_eval(path)


def test_load_eval_checks_labels_against_taxonomy(tmp_path):
    path = tmp_path / "eval.jsonl"
    path.write_text(
        '{"text": "x", "labels": ["a", "ghost"], "parent": null}\n',
        encoding="utf-8",
    )
    with pytest.raises(ConfigurationError, match="ghost"):
        load_eval(path, valid_labels=["a", "b"])
    assert load_eval(path, valid_labels=["a", "ghost"])[0].gold == ("a", "ghost")


def test_load_eval_rejects_empty_file(tmp_path):
    path = tmp_path / "eval.jsonl"
    path.write_text("\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="no instances"):
        load_eval(path)
