"""Joint/slot accuracy, context-length breakdown, and the error taxonomy
(correct / over / partial / false prediction), all computed from prediction
dumps.

A dump is UTF-8 JSON lines, one record per (dialogue, turn):

    {"dialogue_id": ..., "turn_index": ..., "context_length": ...,
     "predicted": {"domain-slot": "value", ...}, "gold": {...}}

``context_length`` counts the untagged context, so bucket populations are
comparable across tagging ablations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .context import BUCKET_LABELS, length_bucket
from .corpus import BeliefState, Ontology, int_field

ERROR_CLASSES = ("correct", "over_prediction", "partial_prediction", "false_prediction")


@dataclass
class TurnPrediction:
    dialogue_id: str
    turn_index: int
    context_length: int
    predicted: BeliefState
    gold: BeliefState

    def __post_init__(self):
        if self.context_length < 0:
            raise ValueError("context_length must be non-negative")


def round2(fraction: float) -> float:
    """Percentage with two decimals, rounded half-up (73.555% -> 73.56)."""
    return float(Decimal(repr(fraction * 100)).quantize(Decimal("0.01"),
                                                        rounding=ROUND_HALF_UP))


def joint_accuracy(predictions: list[TurnPrediction]) -> float:
    """Percent of turns whose predicted state equals gold exactly."""
    if not predictions:
        raise ValueError("joint_accuracy: empty prediction list")
    correct = sum(1 for p in predictions if p.predicted == p.gold)
    return round2(correct / len(predictions))


def slot_accuracy(predictions: list[TurnPrediction], ontology: Ontology) -> float:
    """Percent of (turn, ontology slot) pairs with matching values, counting
    absence as the value "none" on both sides."""
    if not predictions:
        raise ValueError("slot_accuracy: empty prediction list")
    correct = 0
    for p in predictions:
        pred = p.predicted.entries()
        gold = p.gold.entries()
        for pair in ontology.domain_slots:
            if pred.get(pair, "none") == gold.get(pair, "none"):
                correct += 1
    return round2(correct / (len(predictions) * len(ontology)))


def classify_error(predicted: BeliefState, gold: BeliefState) -> str:
    """Total, mutually exclusive classification of one turn.

    Precedence false > partial > over: a value mismatch on any shared slot
    is a false prediction; otherwise missing gold entries make it partial
    (even when extra entries exist too); otherwise extra entries make it an
    over prediction.
    """
    p, g = predicted.entries(), gold.entries()
    if p == g:
        return "correct"
    if any(k in g and p[k] != g[k] for k in p):
        return "false_prediction"
    if not set(g) <= set(p):
        return "partial_prediction"
    return "over_prediction"


def taxonomy_report(predictions: list[TurnPrediction]) -> dict[str, int]:
    """Counts per error class; always partitions the turn count."""
    counts = {c: 0 for c in ERROR_CLASSES}
    for p in predictions:
        counts[classify_error(p.predicted, p.gold)] += 1
    return counts


def length_report(predictions: list[TurnPrediction]) -> dict[str, dict]:
    """Per-bucket {total, correct, joint_accuracy}; empty buckets have 0.0."""
    report = {label: {"total": 0, "correct": 0} for label in BUCKET_LABELS}
    for p in predictions:
        row = report[length_bucket(p.context_length)]
        row["total"] += 1
        if p.predicted == p.gold:
            row["correct"] += 1
    for row in report.values():
        row["joint_accuracy"] = round2(row["correct"] / row["total"]) if row["total"] else 0.0
    return report


# ---------------------------------------------------------------------------
# dump io
# ---------------------------------------------------------------------------

def write_jsonl(path, records) -> None:
    """Write each record as one JSON object with sorted keys per line."""
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True) + "\n")


def write_predictions(path, predictions: list[TurnPrediction]) -> None:
    write_jsonl(path, ({**vars(p), "predicted": p.predicted.to_json(), "gold": p.gold.to_json()}
                       for p in predictions))


def read_predictions(path) -> list[TurnPrediction]:
    out = []
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                r = json.loads(line)
                out.append(TurnPrediction(
                    str(r["dialogue_id"]), int_field(r, "turn_index"),
                    int_field(r, "context_length"),
                    BeliefState.from_json(r["predicted"]), BeliefState.from_json(r["gold"])))
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"prediction dump line {line_no}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# plain-text reports
# ---------------------------------------------------------------------------

def format_metrics_table(joint: float, slot: float, label: str = "ours") -> str:
    lines = [f"{'model':<12} {'joint accuracy':>14} {'slot accuracy':>14}",
             f"{label:<12} {joint:>14.2f} {slot:>14.2f}"]
    return "\n".join(lines)


def format_length_table(report: dict[str, dict]) -> str:
    lines = [f"{'length':<10} {'total':>8} {'correct':>8} {'joint accuracy':>15}"]
    for label in BUCKET_LABELS:
        row = report[label]
        lines.append(f"{label:<10} {row['total']:>8,} {row['correct']:>8,} "
                     f"{row['joint_accuracy']:>15.2f}")
    return "\n".join(lines)


def format_taxonomy_table(counts: dict[str, int]) -> str:
    total = sum(counts.values())
    lines = [f"{'total':<10} {'correct':>8} {'over pred.':>11} "
             f"{'partial pred.':>14} {'false pred.':>12}",
             f"{total:<10,} {counts['correct']:>8,} {counts['over_prediction']:>11,} "
             f"{counts['partial_prediction']:>14,} {counts['false_prediction']:>12,}"]
    return "\n".join(lines)
