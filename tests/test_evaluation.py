import json
from pathlib import Path

import pytest

from lmdst.corpus import BeliefState, Ontology
from lmdst import corpus as corpus_mod
from lmdst.evaluation import (ERROR_CLASSES, TurnPrediction, classify_error,
                              format_length_table, format_metrics_table,
                              format_taxonomy_table, joint_accuracy, length_report,
                              read_predictions, round2, slot_accuracy,
                              taxonomy_report, write_jsonl, write_predictions)

PAIRS = [("hotel", "area"), ("hotel", "stars"), ("train", "day"),
         ("restaurant", "food"), ("taxi", "leaveat")]
VALUES = ["east", "west", "4", "monday", "cheap", "expensive"]
ONTOLOGY = Ontology(PAIRS)


def bs(entries):
    s = BeliefState()
    for (d, sl), v in entries.items():
        s.set(d, sl, v)
    return s


def random_state(rng):
    s = BeliefState()
    for pair in PAIRS:
        if rng.random() < 0.45:
            s.set(*pair, VALUES[int(rng.integers(0, len(VALUES)))])
    return s


def random_predictions(rng, n):
    preds = []
    for i in range(n):
        gold = random_state(rng)
        pred = gold.copy() if rng.random() < 0.4 else random_state(rng)
        preds.append(TurnPrediction(f"d{i}", 0, int(rng.integers(0, 500)), pred, gold))
    return preds


# ---------------------------------------------------------------------------
# brute-force recount oracles
# ---------------------------------------------------------------------------

def oracle_classify(pred, gold):
    p, g = pred.entries(), gold.entries()
    shared_mismatch = False
    for k in set(p) & set(g):
        if p[k] != g[k]:
            shared_mismatch = True
    missing = set(g) - set(p)
    extra = set(p) - set(g)
    if not missing and not extra and not shared_mismatch:
        return "correct"
    if shared_mismatch:
        return "false_prediction"
    if missing:
        return "partial_prediction"
    return "over_prediction"


def test_metrics_match_recount_oracles_on_1000_fixtures(rng):
    preds = random_predictions(rng, 1000)

    joint_count = sum(1 for p in preds if p.predicted.entries() == p.gold.entries())
    assert joint_accuracy(preds) == round2(joint_count / len(preds))

    slot_hits = 0
    for p in preds:
        for pair in PAIRS:
            a = p.predicted.entries().get(pair, "none")
            b = p.gold.entries().get(pair, "none")
            slot_hits += a == b
    assert slot_accuracy(preds, ONTOLOGY) == round2(slot_hits / (len(preds) * len(PAIRS)))

    counts = taxonomy_report(preds)
    oracle_counts = {c: 0 for c in ERROR_CLASSES}
    for p in preds:
        oracle_counts[oracle_classify(p.predicted, p.gold)] += 1
    assert counts == oracle_counts
    assert sum(counts.values()) == len(preds)

    report = length_report(preds)
    for label, bounds in (("0-99", (0, 100)), ("100-199", (100, 200)),
                          ("200-299", (200, 300)), (">=300", (300, 10 ** 9))):
        rows = [p for p in preds if bounds[0] <= p.context_length < bounds[1]]
        assert report[label]["total"] == len(rows)
        correct = sum(1 for p in rows if p.predicted.entries() == p.gold.entries())
        assert report[label]["correct"] == correct
        if rows:
            assert report[label]["joint_accuracy"] == round2(correct / len(rows))


def test_taxonomy_partitions_on_random_state_pairs(rng):
    for _ in range(1000):
        pred, gold = random_state(rng), random_state(rng)
        assert classify_error(pred, gold) in ERROR_CLASSES
    preds = random_predictions(rng, 300)
    assert sum(taxonomy_report(preds).values()) == 300


# ---------------------------------------------------------------------------
# spec-level examples
# ---------------------------------------------------------------------------

def test_joint_accuracy_all_correct():
    state = bs({("hotel", "area"): "east"})
    preds = [TurnPrediction("d", 0, 10, state.copy(), state.copy()) for _ in range(7)]
    assert joint_accuracy(preds) == 100.00


def test_joint_accuracy_bucket_value():
    preds = []
    good = bs({("hotel", "area"): "east"})
    bad = bs({("hotel", "area"): "west"})
    for i in range(2940):
        pred = good.copy() if i < 2115 else bad.copy()
        preds.append(TurnPrediction(f"d{i}", 0, 50, pred, good.copy()))
    assert joint_accuracy(preds) == 71.94


def test_joint_accuracy_empty_errors():
    with pytest.raises(ValueError):
        joint_accuracy([])


def test_slot_accuracy_perfect_and_one_wrong():
    path = Path(corpus_mod.__file__).parent / "data" / "multiwoz_ontology.txt"
    ontology30 = Ontology.load(path)
    assert len(ontology30) == 30
    gold = bs({("hotel", "area"): "east"})
    assert slot_accuracy([TurnPrediction("d", 0, 1, gold.copy(), gold.copy())],
                         ontology30) == 100.00
    wrong = bs({("hotel", "area"): "west"})
    assert slot_accuracy([TurnPrediction("d", 0, 1, wrong, gold)], ontology30) == 96.67


def test_slot_accuracy_empty_ontology_errors():
    """No slot accuracy has an empty ontology: it is rejected where it is built."""
    with pytest.raises(ValueError, match="^ontology lists no slot$"):
        Ontology([])


def test_classify_error_spec_examples():
    gold = bs({("hotel", "area"): "east"})
    over = bs({("hotel", "area"): "east", ("hotel", "stars"): "4"})
    assert classify_error(over, gold) == "over_prediction"

    gold2 = bs({("hotel", "area"): "east", ("hotel", "stars"): "4"})
    part = bs({("hotel", "area"): "east"})
    assert classify_error(part, gold2) == "partial_prediction"

    false = bs({("hotel", "area"): "west"})
    assert classify_error(false, gold) == "false_prediction"


def test_classify_error_precedence():
    gold = bs({("hotel", "area"): "east", ("hotel", "stars"): "4"})
    # mismatch beats both missing and extra entries
    mixed = bs({("hotel", "area"): "west", ("train", "day"): "monday"})
    assert classify_error(mixed, gold) == "false_prediction"
    # missing + extra without mismatch -> partial
    swap = bs({("hotel", "area"): "east", ("train", "day"): "monday"})
    assert classify_error(swap, gold) == "partial_prediction"


def test_classify_identity_is_correct(rng):
    for _ in range(50):
        s = random_state(rng)
        assert classify_error(s, s.copy()) == "correct"
    assert classify_error(BeliefState(), BeliefState()) == "correct"


def test_rounding_is_half_up():
    assert round2(13 / 32) == 40.63  # bankers' rounding would say 40.62
    assert round2(1.0) == 100.00
    assert round2(0.71938775) == 71.94


# ---------------------------------------------------------------------------
# the reference-numbers fixture
# ---------------------------------------------------------------------------

def test_table_fixture_reproduces_printed_numbers(table_fixture_predictions):
    preds = table_fixture_predictions
    assert len(preds) == 7368

    report = length_report(preds)
    assert [report[b]["total"] for b in ("0-99", "100-199", "200-299", ">=300")] == \
        [2940, 2466, 1494, 468]
    assert [report[b]["correct"] for b in ("0-99", "100-199", "200-299", ">=300")] == \
        [2115, 1028, 356, 57]
    assert [report[b]["joint_accuracy"] for b in ("0-99", "100-199", "200-299", ">=300")] == \
        [71.94, 41.69, 23.83, 12.18]

    counts = taxonomy_report(preds)
    assert counts == {"correct": 3556, "over_prediction": 791,
                      "partial_prediction": 1480, "false_prediction": 1541}
    assert sum(counts.values()) == 7368


def test_reference_bucket_accuracy_rounding():
    """The improved-model bucket counts from the reference breakdown round to
    the printed accuracies (formatting check; the counts are fixtures)."""
    for total, correct, printed in ((2940, 2190, 74.49), (2466, 1129, 45.78),
                                    (1494, 445, 29.79), (468, 70, 14.96)):
        assert round2(correct / total) == printed


def test_overall_joint_is_weighted_mean_of_buckets(table_fixture_predictions, rng):
    for preds in (table_fixture_predictions, random_predictions(rng, 400)):
        report = length_report(preds)
        total = sum(r["total"] for r in report.values())
        weighted = sum(r["joint_accuracy"] * r["total"] for r in report.values()) / total
        assert abs(joint_accuracy(preds) - weighted) <= 0.011  # within rounding


def test_slot_accuracy_at_least_joint(rng):
    for _ in range(20):
        preds = random_predictions(rng, 50)
        assert slot_accuracy(preds, ONTOLOGY) >= joint_accuracy(preds)


# ---------------------------------------------------------------------------
# dump io and report formatting
# ---------------------------------------------------------------------------

def test_dump_roundtrip(tmp_path, rng):
    preds = random_predictions(rng, 40)
    path = tmp_path / "dump.jsonl"
    write_predictions(path, preds)
    again = read_predictions(path)
    assert len(again) == len(preds)
    for a, b in zip(preds, again):
        assert (a.dialogue_id, a.turn_index, a.context_length) == \
            (b.dialogue_id, b.turn_index, b.context_length)
        assert a.predicted == b.predicted and a.gold == b.gold


def test_dump_write_is_deterministic(tmp_path, rng):
    preds = random_predictions(rng, 20)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_predictions(p1, preds)
    write_predictions(p2, preds)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_jsonl_one_sorted_key_object_per_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"b": 1, "a": [2, 3]}, {"z": None, "c": "é"}])
    assert path.read_bytes() == b'{"a": [2, 3], "b": 1}\n{"c": "\\u00e9", "z": null}\n'
    write_jsonl(path, [])
    assert path.read_bytes() == b""


def test_malformed_dump_line_reported(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"dialogue_id": "d", "turn_index": 0}\n')
    with pytest.raises(ValueError) as exc:
        read_predictions(path)
    assert "line 1" in str(exc.value)


def test_malformed_slot_name_in_dump_names_the_line(tmp_path):
    """A dump key without a slot part is an error naming its line, not a
    pair with an empty slot."""
    good = {"dialogue_id": "d", "turn_index": 0, "context_length": 3,
            "predicted": {"hotel-area": "east"}, "gold": {"hotel-area": "east"}}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(good) + "\n"
                    + json.dumps({**good, "predicted": {"hotel": "east"}}) + "\n")
    with pytest.raises(ValueError, match="prediction dump line 2: slot name 'hotel'"):
        read_predictions(path)


@pytest.mark.parametrize("field", ["turn_index", "context_length"])
@pytest.mark.parametrize("value", [1.9, True, False, float("nan")])
def test_non_integer_field_in_dump_names_the_line(tmp_path, field, value):
    """A boolean or a non-integral number is an error naming its line, not
    the integer ``int`` truncates it to; a numeric string reads as one."""
    good = {"dialogue_id": "d", "turn_index": 0, "context_length": 3,
            "predicted": {}, "gold": {}}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
    with pytest.raises(ValueError) as exc:
        read_predictions(path)
    assert str(exc.value) == (f"prediction dump line 2: {field} must be an integer, "
                              f"got {json.dumps(value)}")
    path.write_text(json.dumps({**good, field: "4"}) + "\n")
    assert getattr(read_predictions(path)[0], field) == 4


@pytest.mark.parametrize("field", ["predicted", "gold"])
@pytest.mark.parametrize("value, kind", [([], "list"), ("east", "str"), (None, "NoneType")])
def test_non_object_state_in_dump_names_the_line(tmp_path, field, value, kind):
    good = {"dialogue_id": "d", "turn_index": 0, "context_length": 3,
            "predicted": {"hotel-area": "east"}, "gold": {"hotel-area": "east"}}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
    with pytest.raises(ValueError) as exc:
        read_predictions(path)
    assert str(exc.value) == f"prediction dump line 2: belief state is {kind}, not a JSON object"


def test_report_formatting(table_fixture_predictions):
    text = format_length_table(length_report(table_fixture_predictions))
    assert "2,940" in text and "71.94" in text and ">=300" in text
    tax = format_taxonomy_table(taxonomy_report(table_fixture_predictions))
    assert "3,556" in tax and "791" in tax and "1,480" in tax and "1,541" in tax
    metrics = format_metrics_table(52.04, 97.26)
    assert "52.04" in metrics and "97.26" in metrics


def test_negative_context_length_rejected():
    with pytest.raises(ValueError):
        TurnPrediction("d", 0, -1, BeliefState(), BeliefState())
