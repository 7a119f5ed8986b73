"""Shared fixtures: tiny corpora, the printed-numbers fixture dump that
mirrors the reference length/error breakdown tables, a traced-memory
probe and a straight-line numpy GRU."""

import tracemalloc

import numpy as np
import pytest

from lmdst.corpus import BeliefState
from lmdst.evaluation import TurnPrediction

# (bucket label, representative length, total turns, correct turns)
TABLE_BUCKETS = [("0-99", 50, 2940, 2115),
                 ("100-199", 150, 2466, 1028),
                 ("200-299", 250, 1494, 356),
                 (">=300", 350, 468, 57)]
# error-class counts among the 3,812 incorrect turns
TABLE_ERRORS = {"over_prediction": 791, "partial_prediction": 1480,
                "false_prediction": 1541}


def peak_traced_mib(fn) -> float:
    """Peak of the memory ``fn()`` allocates while it runs, in MiB.

    Only allocations made inside ``fn`` are traced: memory that was live
    before it (a forward graph built beforehand, say) counts as 0, and
    ``fn`` freeing it does not lower the count. Trace the code that
    allocates what ``fn`` frees to see that saving.
    """
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


GRU_WEIGHTS = ("w_zr", "u_zr", "b_zr", "w_h", "u_h", "b_h")  # a GruCell's parameters


def numpy_gru(cell, xs, reverse=False):
    """States of ``cell`` over the rows of ``xs`` from a zero start, one
    straight-line numpy step at a time (read last to first if ``reverse``)."""
    d = cell.hidden_dim
    h = np.zeros(d)
    out = np.zeros((len(xs), d))
    order = range(len(xs) - 1, -1, -1) if reverse else range(len(xs))
    for t in order:
        zr = 1 / (1 + np.exp(-(xs[t] @ cell.w_zr.value + cell.b_zr.value
                               + h @ cell.u_zr.value)))
        z, r = zr[:d], zr[d:]
        c = np.tanh(xs[t] @ cell.w_h.value + cell.b_h.value + (r * h) @ cell.u_h.value)
        h = (1 - z) * h + z * c
        out[t] = h
    return out


def _state(**kv):
    s = BeliefState()
    for key, value in kv.items():
        domain, slot = key.split("__")
        s.set(domain, slot, value)
    return s


def incorrect_pair(error_class):
    gold = _state(hotel__area="east", hotel__stars="4")
    if error_class == "over_prediction":
        pred = _state(hotel__area="east", hotel__stars="4", train__day="monday")
    elif error_class == "partial_prediction":
        pred = _state(hotel__area="east")
    else:
        pred = _state(hotel__area="west", hotel__stars="4")
    return pred, gold


def build_table_fixture():
    """7,368 predictions reproducing the reference length and error tables."""
    error_stream = ([("over_prediction",)] * TABLE_ERRORS["over_prediction"]
                    + [("partial_prediction",)] * TABLE_ERRORS["partial_prediction"]
                    + [("false_prediction",)] * TABLE_ERRORS["false_prediction"])
    preds = []
    cursor = 0
    for label, length, total, correct in TABLE_BUCKETS:
        for i in range(total):
            if i < correct:
                gold = _state(hotel__area="east")
                pred = gold.copy()
            else:
                (error_class,) = error_stream[cursor]
                cursor += 1
                pred, gold = incorrect_pair(error_class)
            preds.append(TurnPrediction(f"{label}-{i}", 0, length, pred, gold))
    assert cursor == len(error_stream)
    return preds


@pytest.fixture(scope="session")
def table_fixture_predictions():
    return build_table_fixture()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
