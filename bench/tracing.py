"""Span tracing for the benchmark's traced mode.

The tracer wraps public functions of the lmdst layers from outside the
package: while installed, each call records a span (id, parent span, op id,
name, start, end, attributes). Spans stay in memory and are written out
when the run ends. Nothing here is imported, and nothing is wrapped, in an
untraced run.

A span's self time is its duration minus the durations of its child spans;
children of one parent run one after another, so their durations do not
overlap.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

from lmdst import autodiff as ad
from lmdst import context as lm_context
from lmdst import model as lm_model
from lmdst import training as lm_training
from lmdst.embeddings import CompositeEmbedding

# Span fields, in record order.
ID, PARENT, OP, NAME, START, END, ATTRS = range(7)


def _graph_size(root) -> int:
    """Nodes reachable from ``root`` through graph parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None            # op id stamped on new spans
        self.cell_kind: dict[int, str] = {}  # id(GruCell) -> "lm" | "enc"
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        rec = [len(self.spans), parent, self.op, name, time.perf_counter(), None, None]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, op=None):
        """A span opened by the benchmark itself; ``op`` sets the op id of
        this span and everything under it."""
        outer = self.op
        if op is not None:
            self.op = op
        rec = self.open(name)
        try:
            yield rec
        finally:
            self.close(rec)
            self.op = outer

    # -- wrappers ------------------------------------------------------------

    def _traced(self, name: str, fn, attrs=None):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if attrs is not None:
                rec[ATTRS] = attrs(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, name: str, attrs=None, classmethod_=False):
        original = owner.__dict__.get(attr)
        if original is None:  # layer renamed or removed: its metrics read 0
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._saved.append((owner, attr, original))
        if classmethod_:
            traced = self._traced(name, original.__func__, attrs)
            setattr(owner, attr, classmethod(traced))
        else:
            setattr(owner, attr, self._traced(name, original, attrs))

    def install(self) -> None:
        if self._saved:
            return
        self.missing.clear()
        kind = self.cell_kind

        def gru_attrs(args, kwargs, out):
            lengths = [int(n) for n in (args[2] if len(args) > 2 else kwargs["lengths"])]
            return {"kind": kind.get(id(args[0]), "other"), "rows": sum(lengths),
                    "cells": len(lengths) * max(lengths)}

        def batch_attrs(args, kwargs, out):
            return {"turns": len(out.contexts),
                    "tokens": sum(len(c.tokens) for c in out.contexts)}

        self._patch(CompositeEmbedding, "table", "embeddings.table")
        self._patch(ad, "gru_sequence_batch", "gru_sequence_batch", gru_attrs)
        self._patch(ad.GruCell, "step", "decoder.step",
                    lambda args, kwargs, out: {"rows": args[1].shape[0]})
        self._patch(lm_model.DstModel, "prepare_batch", "model.prepare_batch", batch_attrs)
        self._patch(lm_model.DstModel, "batch_loss", "model.batch_loss")
        self._patch(lm_model.DstModel, "predict_states", "model.predict_states")
        self._patch(lm_model.DstModel, "save", "checkpoint.save")
        self._patch(lm_model.DstModel, "load", "checkpoint.load", classmethod_=True)
        # build_context is looked up in lmdst.context by training.py's local
        # imports and in lmdst.model by prepare_batch.
        self._patch(lm_context, "build_context", "context.build_context")
        self._patch(lm_model, "build_context", "context.build_context")
        self._patch(lm_training.Trainer, "micro_batch_loss", "training.forward")
        self._patch(ad, "backward", "autodiff.backward",
                    lambda args, kwargs, out: {"nodes": _graph_size(args[0])})
        self._patch(lm_training.Adam, "step", "training.adam")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps({"id": rec[ID], "parent": rec[PARENT], "op": rec[OP],
                                    "name": rec[NAME], "start": rec[START], "end": rec[END],
                                    "attrs": rec[ATTRS]}) + "\n")


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child_total: dict[int, float] = defaultdict(float)
    for rec in spans:
        if rec[PARENT] is not None:
            child_total[rec[PARENT]] += rec[END] - rec[START]
    return {rec[ID]: rec[END] - rec[START] - child_total[rec[ID]] for rec in spans}


def layer_metrics(tracer: Tracer, traced_ops: list[int], char_table_mib: float) -> dict:
    """Per-layer metrics from the spans: setup spans give medians over the
    set-up builds, op spans give means per traced op."""
    spans = tracer.spans
    selfs = self_times(spans)
    ops = set(traced_ops)
    n_ops = max(1, len(ops))

    def dur(rec):
        return rec[END] - rec[START]

    def in_ops(name, kind=None):
        return [r for r in spans if r[OP] in ops and r[NAME] == name
                and (kind is None or r[ATTRS]["kind"] == kind)]

    def per_op(recs):
        return sum(dur(r) for r in recs) / n_ops

    def setup_median(name):
        values = [dur(r) for r in spans if isinstance(r[OP], str) and r[NAME] == name]
        return statistics.median(values) if values else 0.0

    grus = in_ops("gru_sequence_batch")
    lm_grus = in_ops("gru_sequence_batch", "lm")
    batches = in_ops("model.prepare_batch")
    steps = in_ops("decoder.step")
    backwards = in_ops("autodiff.backward")
    # The decoder is what batch_loss / predict_states do besides prepare_batch.
    prepare_dur = defaultdict(float)
    for r in batches:
        prepare_dur[r[PARENT]] += dur(r)
    heads = in_ops("model.batch_loss") + in_ops("model.predict_states")
    cells = sum(r[ATTRS]["cells"] for r in grus)

    return {
        "corpus.generate_s": (setup_median("corpus.generate"), "s"),
        "context.build_context_s": (per_op(in_ops("context.build_context")), "s/op"),
        "context.build_context.calls": (len(in_ops("context.build_context")) / n_ops, "calls/op"),
        "context.tokens_per_turn": (sum(r[ATTRS]["tokens"] for r in batches)
                                    / max(1, sum(r[ATTRS]["turns"] for r in batches)),
                                    "tokens/turn"),
        "context.pad_frac": (1.0 - sum(r[ATTRS]["rows"] for r in grus) / cells
                             if cells else 0.0, "frac"),
        "embeddings.table_s": (per_op(in_ops("embeddings.table")), "s/op"),
        "embeddings.table.calls": (len(in_ops("embeddings.table")) / n_ops, "calls/op"),
        "embeddings.char_table_mib": (char_table_mib, "MiB"),
        "lm.recurrence_s": (per_op(lm_grus), "s/op"),
        "lm.rows": (sum(r[ATTRS]["rows"] for r in lm_grus) / n_ops, "rows/op"),
        "model.encoder.recurrence_s": (per_op(in_ops("gru_sequence_batch", "enc")), "s/op"),
        "model.prepare_batch_s": (per_op(batches), "s/op"),
        "model.prepare_batch.self_s": (sum(selfs[r[ID]] for r in batches) / n_ops, "s/op"),
        "model.decoder_s": (sum(dur(r) - prepare_dur[r[ID]] for r in heads) / n_ops, "s/op"),
        "model.decoder.gru_steps": (len(steps) / n_ops, "steps/op"),
        "model.decoder.rows_per_step": (sum(r[ATTRS]["rows"] for r in steps)
                                        / max(1, len(steps)), "rows/step"),
        "autodiff.backward_s": (per_op(backwards), "s/op"),
        "autodiff.graph_nodes": (sum(r[ATTRS]["nodes"] for r in backwards) / n_ops, "nodes/op"),
        "autodiff.checkpoint_save_s": (setup_median("checkpoint.save"), "s"),
        "autodiff.checkpoint_load_s": (setup_median("checkpoint.load"), "s"),
        "training.forward_s": (per_op(in_ops("training.forward")), "s/op"),
        "training.adam_s": (per_op(in_ops("training.adam")), "s/op"),
        "training.updates": (len(in_ops("training.adam")) / n_ops, "updates/op"),
        "trace.ops": (len(ops), "count"),
        "trace.spans": (len(spans), "count"),
    }

