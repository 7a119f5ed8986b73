"""The benchmark's workloads: set-up, one op, and the output checks.

Each workload builds its inputs from the workload seed alone, and the
program sees only those inputs. ``build`` is one complete set-up (corpus,
vocabulary, model, checkpoint round-trip); ``prepare`` and ``check`` run
outside the timed region around each ``op``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os

import numpy as np

from lmdst import DstModel, SynthConfig, build_context, build_vocabulary, generate_synthetic
from lmdst import autodiff as ad
from lmdst.training import (TrainConfig, Trainer, _length_sorted_batches, predict_instances,
                            split_corpus, turn_instances)

import wozgen


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _char_table_mib(model: DstModel) -> float:
    """Size of the dense |V| x n-gram averaging table the embedding builds."""
    n_grams = max(1, len(model.embedding.ngram_ids))
    return len(model.vocab) * n_grams * ad.default_dtype().itemsize / 2**20


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def _cell_kinds(model: DstModel) -> dict[int, str]:
    """Recurrence cells by identity, so traced GRU calls split into LM and
    encoder time."""
    return {id(model.lm.fwd): "lm", id(model.lm.bwd): "lm",
            id(model.encoder.fwd): "enc", id(model.encoder.bwd): "enc"}


def _save(model: DstModel, path: str):
    """Save ``model``; returns what ``_load_checked`` compares against."""
    model.save(path)
    return {p.name: p.value for p in model.store.parameters()}, model.meta()


def _load_checked(path: str, saved) -> DstModel:
    """Load a checkpoint like ``lmdst predict`` does and check that every
    parameter and the metadata came back bit-identical."""
    params, meta = saved
    loaded = DstModel.load(path)
    os.remove(path)
    if loaded.meta() != meta:
        raise RuntimeError("checkpoint round-trip changed the model metadata")
    for p in loaded.store.parameters():
        if not _same_bits(p.value, params[p.name]):
            raise RuntimeError(f"checkpoint round-trip changed parameter {p.name}")
    return loaded


class TrainWorkload:
    """``Trainer.train_step`` micro-steps over the batches ``fit`` forms,
    epoch after epoch, on the acceptance corpus (``SynthConfig()``)."""

    prefix_ops = 40  # timed micro-steps in the fixed prefix (digests, loss_end, RSS)

    def __init__(self, dim: int, seed: int, checkpoint_path: str):
        self.config = TrainConfig(hidden_dim=dim, embedding_dim=dim,
                                  learning_rate=0.003, seed=seed)
        self.block = self.config.delay_update_steps  # trace whole update windows
        self.checkpoint_path = checkpoint_path
        self.losses: list[float] = []

    def build(self, tracer) -> None:
        cfg = self.config
        self.model = self.trainer = self.batches = None
        with _span(tracer, "corpus.generate"):
            dialogues, ontology = generate_synthetic(SynthConfig())
        # Same split, vocabulary, model, trainer and rng seeding as fit().
        train_dlgs, _ = split_corpus(dialogues, cfg.val_fraction)
        vocab = build_vocabulary(train_dlgs, cfg.min_count)
        model = DstModel(
            vocab, ontology, hidden_dim=cfg.hidden_dim, embedding_dim=cfg.embedding_dim,
            tagging=cfg.tagging_enabled, lm_enabled=cfg.lm_enabled,
            dropout=cfg.dropout, word_dropout=cfg.word_dropout,
            max_value_len=cfg.max_value_len,
            freeze_word_embeddings=cfg.freeze_embeddings, seed=cfg.seed)
        _load_checked(self.checkpoint_path, _save(model, self.checkpoint_path))
        self.model = model  # train the original, as fit() does
        self.trainer = Trainer(self.model, cfg)
        order_rng = np.random.default_rng(cfg.seed + 1)
        instances = turn_instances(train_dlgs)
        lengths = [build_context(d, i, cfg.tagging_enabled).length for d, i in instances]
        self.batches = self._epochs(instances, lengths, order_rng)

    def _epochs(self, instances, lengths, order_rng):
        cfg = self.config
        while True:
            yield from _length_sorted_batches(instances, lengths, cfg.batch_size, order_rng)
            if self.trainer.micro_step % cfg.delay_update_steps:
                self.trainer.apply_accumulated()  # fit flushes a partial window

    def cell_kinds(self) -> dict[int, str]:
        return _cell_kinds(self.model)

    def warmup_ops(self) -> int:
        return 1

    def prepare(self, i):
        batch = next(self.batches)
        update = (self.trainer.micro_step + 1) % self.config.delay_update_steps == 0
        snapshot = None if update else [p.value.copy() for p in self.model.store.parameters()]
        return batch, snapshot

    def op(self, prepared):
        batch, _ = prepared
        return len(batch), self.trainer.train_step(batch)

    def check(self, i, prepared, out) -> str | None:
        _, snapshot = prepared
        dst, lm = out
        self.losses.append(dst + self.config.alpha * lm)
        if not (np.isfinite(dst) and np.isfinite(lm)):
            return f"non-finite loss (dst {dst}, lm {lm})"
        if snapshot is not None:
            for p, before in zip(self.model.store.parameters(), snapshot):
                if not _same_bits(p.value, before):
                    return f"parameter {p.name} changed on a non-update micro-step"
        return None

    def finish(self) -> dict[int, str]:
        return {}

    def summary(self) -> dict:
        prefix = self.losses[:self.warmup_ops() + self.prefix_ops]
        # the last complete update window (micro-steps 4k-3 .. 4k) in the prefix
        delay = self.config.delay_update_steps
        end = len(prefix) // delay * delay
        window = prefix[max(0, end - delay):end]
        return {
            "loss_end": sum(window) / len(window) if window else float("nan"),
            "loss_prefix_steps": len(prefix),
            "loss_digest": _digest([x.hex() for x in prefix]),
            "vocab_size": len(self.model.vocab),
            "params": sum(p.value.size for p in self.model.store.parameters()),
        }

    def char_table_mib(self) -> float:
        return _char_table_mib(self.model)


class InferWorkload:
    """Repeated ``predict_instances`` calls at the 400-dim defaults over fixed
    16-turn groups of a MultiWOZ-shaped corpus; the model is seed-initialised
    and round-tripped through save/load."""

    prefix_ops = 4  # timed calls in the fixed prefix (digest, sampled checks, RSS)
    block = 1
    sampled_turns = 2  # turns re-predicted alone to check batch independence

    def __init__(self, seed: int, checkpoint_path: str):
        self.seed = seed
        self.checkpoint_path = checkpoint_path
        self.predictions: list[tuple[int, list]] = []

    def build(self, tracer) -> None:
        self.model = None  # free the previous build's n-gram table first
        with _span(tracer, "corpus.generate"):
            self.dialogues, ontology, self.groups = wozgen.generate(self.seed)
        self.population = wozgen.bucket_population(self.dialogues)
        vocab = build_vocabulary(self.dialogues)
        model = DstModel(vocab, ontology, seed=self.seed)
        saved = _save(model, self.checkpoint_path)
        del model  # so two dense n-gram tables never coexist
        self.model = _load_checked(self.checkpoint_path, saved)
        self.ontology = set(self.model.ontology.domain_slots)

    def cell_kinds(self) -> dict[int, str]:
        return _cell_kinds(self.model)

    def warmup_ops(self) -> int:
        return 1

    def prepare(self, i):
        # The warm-up (i < 0) uses the last group; timed ops cycle from 0.
        return self.groups[i % len(self.groups)]

    def op(self, group):
        preds = predict_instances(self.model, group)
        return len(preds), preds

    def check(self, i, group, preds) -> str | None:
        want = [(d.id, t) for d in group for t in range(len(d.turns))]
        got = [(p.dialogue_id, p.turn_index) for p in preds]
        if got != want:
            return f"predicted turns {got[:3]}... do not match the {len(want)} requested"
        for p in preds:
            unknown = set(p.predicted.entries()) - self.ontology
            if unknown:
                return f"predicted slots {sorted(unknown)} are not in the ontology"
        if 0 <= i < self.prefix_ops:
            self.predictions.append((i, preds))
        return None

    def finish(self) -> dict[int, str]:
        """Re-predict a few sampled turns one at a time; each must equal the
        batched prediction (the model's batch-independence contract)."""
        failures: dict[int, str] = {}
        if not self.predictions:
            return failures
        by_id = {d.id: d for d in self.dialogues}
        rng = np.random.default_rng(self.seed)
        for _ in range(self.sampled_turns):
            i, preds = self.predictions[int(rng.integers(0, len(self.predictions)))]
            p = preds[int(rng.integers(0, len(preds)))]
            alone = self.model.predict_state(by_id[p.dialogue_id], p.turn_index)
            if alone != p.predicted:
                failures[i] = (f"{p.dialogue_id} turn {p.turn_index}: predicted alone "
                               f"{alone.to_json()} but {p.predicted.to_json()} in its batch")
        return failures

    def summary(self) -> dict:
        prefix = [[p.dialogue_id, p.turn_index, p.predicted.to_json()]
                  for _, preds in self.predictions for p in preds]
        return {
            "prediction_digest": _digest(prefix),
            "prediction_prefix_turns": len(prefix),
            "vocab_size": len(self.model.vocab),
            "ngrams": len(self.model.embedding.ngram_ids),
            "params": sum(p.value.size for p in self.model.store.parameters()),
            "length_buckets": self.population,
        }

    def char_table_mib(self) -> float:
        return _char_table_mib(self.model)


def make(name: str, seed: int, checkpoint_path: str):
    if name == "train-synth128":
        return TrainWorkload(128, seed, checkpoint_path)
    if name == "train-synth400":
        return TrainWorkload(400, seed, checkpoint_path)
    if name == "infer-woz":
        return InferWorkload(seed, checkpoint_path)
    raise ValueError(f"unknown workload {name!r}")
