"""Multi-task training (the objective is :meth:`Trainer.micro_batch_loss`),
with micro-batching, delayed (accumulated) parameter updates, early stopping
on validation joint accuracy, and the alpha/delay sweep.

Defaults reproduce the best-performing setting: alpha 0.9, 4 delay-update
steps, batch size 8, 400-dim hidden states and embeddings.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import context
from .corpus import Dialogue, Ontology
from .evaluation import TurnPrediction, joint_accuracy, slot_accuracy
from .model import DstModel

log = logging.getLogger("lmdst.training")

PREDICT_CHUNK = 16  # turns per predict_instances batch


@dataclass(frozen=True)
class TrainConfig:
    """Checked when built; ``dataclasses.replace`` makes a checked copy."""

    alpha: float = 0.9
    delay_update_steps: int = 4
    batch_size: int = 8
    hidden_dim: int = 400
    embedding_dim: int = 400
    learning_rate: float = 0.001
    max_epochs: int = 30
    patience: int = 6
    seed: int = 13
    tagging_enabled: bool = True
    lm_enabled: bool = True
    dropout: float = 0.2
    word_dropout: float = 0.15
    min_count: int = 1
    val_fraction: float = 0.1
    max_value_len: int = 10
    freeze_embeddings: bool = False  # freeze the pretrained word part

    def __post_init__(self) -> None:
        if not 0 <= self.alpha < np.inf:  # with the LM off, 0 * alpha must stay 0
            raise ValueError("alpha must be finite and non-negative")
        if self.delay_update_steps < 1 or self.batch_size < 1:
            raise ValueError("delay_update_steps and batch_size must be positive")
        if not 0 <= self.dropout < 1 or not 0 <= self.word_dropout < 1:
            raise ValueError("dropout rates must be in [0, 1)")
        if self.max_epochs < 1 or self.patience < 1:
            raise ValueError("max_epochs and patience must be positive")
        if not 0 < self.val_fraction < 1:
            raise ValueError("val_fraction must be in (0, 1)")
        if self.max_value_len < 1:
            raise ValueError("max_value_len must be positive")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if self.embedding_dim < 2:
            raise ValueError("embedding_dim must be >= 2")
        if self.hidden_dim != self.embedding_dim:
            raise ValueError(f"hidden_dim must equal embedding_dim; got {self.hidden_dim} "
                             f"vs {self.embedding_dim}")


def load_config_file(path) -> TrainConfig:
    """Parse a "key = value" config file onto the default TrainConfig."""
    types = {f.name: type(f.default) for f in fields(TrainConfig)}
    overrides, key_lines = {}, {}
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in types:
                raise ValueError(f"config line {line_no}: unknown key {key!r}")
            if key in key_lines:
                raise ValueError(f"config line {line_no}: key {key!r} repeats line "
                                 f"{key_lines[key]}")
            key_lines[key] = line_no
            try:
                overrides[key] = _parse_value(types[key], value)
            except ValueError as exc:
                raise ValueError(f"config line {line_no}: {key}: {exc}") from None
    return TrainConfig(**overrides)


def _parse_value(kind: type, raw: str):
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"{raw!r} is not a boolean")
    return kind(raw)


def save_config_file(path, cfg: TrainConfig) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for fld in fields(TrainConfig):
            f.write(f"{fld.name} = {getattr(cfg, fld.name)}\n")


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adaptive-moment optimizer: learning rate ``lr`` and the fixed moment
    decays ``ADAM_BETA1`` / ``ADAM_BETA2`` and ``ADAM_EPS``."""

    def __init__(self, store: ad.ParameterStore, lr: float):
        self.store = store
        self.lr = lr
        self.t = 0
        self._m = {p.name: np.zeros_like(p.value) for p in store.parameters()}
        self._v = {p.name: np.zeros_like(p.value) for p in store.parameters()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for p in self.store.parameters():
            g = p.grad
            if g is None:
                continue
            m = self._m[p.name]
            v = self._v[p.name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p.value -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


class Trainer:
    """Owns the accumulate-then-update cycle around a model.

    Gradients of each micro-batch accumulate in the parameters' grad
    buffers; parameters change only every ``delay_update_steps`` micro-steps
    and are bit-identical in between. Micro-step k draws its dropout masks
    from the k-th child of ``SeedSequence(config.seed)``: they depend on the
    seed, k and the batch only, not on earlier micro-steps or the init stream.
    """

    def __init__(self, model: DstModel, config: TrainConfig):
        self.model = model
        self.config = config
        self.optimizer = Adam(model.store, lr=config.learning_rate)
        self.micro_step = 0

    def micro_batch_loss(self, batch: list[tuple[Dialogue, int]]) -> tuple[ad.Node, float, float]:
        """The training objective: the mean over the batch of each turn's
        dst + alpha * lm (``TrainConfig`` keeps alpha finite and
        non-negative), with training-time dropout drawn for the current
        micro-step; also returns the two mean raw loss values for reporting.
        Without the LM, lm is the constant 0."""
        rng = np.random.default_rng(
            np.random.SeedSequence(self.config.seed, spawn_key=(self.micro_step,)))
        dst_sum, lm_sum = self.model.batch_loss(batch, rng)
        mean = ad.elementwise_mul(
            ad.add(dst_sum, ad.elementwise_mul(lm_sum, self.config.alpha)), 1.0 / len(batch))
        return mean, float(dst_sum.value) / len(batch), float(lm_sum.value) / len(batch)

    def train_step(self, batch: list[tuple[Dialogue, int]]) -> tuple[float, float]:
        """One micro-batch: backward into the accumulator, update every
        ``delay_update_steps`` micro-steps. Returns (dst, lm) mean values."""
        loss, dst, lm = self.micro_batch_loss(batch)
        ad.backward(loss)
        self.micro_step += 1
        if self.micro_step % self.config.delay_update_steps == 0:
            self.apply_accumulated()
        return dst, lm

    def apply_accumulated(self) -> None:
        self.optimizer.step()
        self.model.store.zero_grad()


@dataclass
class EpochStats:
    epoch: int
    train_dst: float
    train_lm: float
    val_joint: float
    val_slot: float


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_val_joint: float = 0.0
    checkpoint_path: str | None = None
    wall_clock_sec: float = 0.0
    ablation: str = "full"


def split_corpus(dialogues: list[Dialogue], val_fraction: float) -> tuple[list[Dialogue], list[Dialogue]]:
    """Deterministic tail split; at least one dialogue on each side."""
    if len(dialogues) < 2:
        raise ValueError("need at least 2 dialogues to split train/validation")
    n_val = max(1, int(round(len(dialogues) * val_fraction)))
    n_val = min(n_val, len(dialogues) - 1)
    return dialogues[:-n_val], dialogues[-n_val:]


def turn_instances(dialogues: list[Dialogue]) -> list[tuple[Dialogue, int]]:
    return [(d, i) for d in dialogues for i in range(len(d.turns))]


def _length_sorted_batches(instances, lengths, batch_size, rng) -> list[list]:
    """Shuffle, then group near-equal context lengths into each micro-batch
    (the stacked recurrences run as many steps as the longest context, so
    this cuts the steps that only a few rows take), then shuffle batch order.
    Deterministic for a given rng state."""
    perm = rng.permutation(len(instances))
    by_len = sorted(perm, key=lambda i: lengths[i])
    batches = [[instances[i] for i in by_len[lo:lo + batch_size]]
               for lo in range(0, len(by_len), batch_size)]
    rng.shuffle(batches)
    return batches


def predict_instances(model: DstModel, dialogues: list[Dialogue]) -> list[TurnPrediction]:
    """Greedy predictions for every turn, in dialogue and turn order.

    Turns are grouped into chunks of PREDICT_CHUNK near-equal context
    lengths (each chunk costs its longest context in recurrence steps);
    within a chunk they keep their corpus order, so a corpus of one chunk
    runs as a single batch in that order. Every chunk reads one embedding
    table, built here and dropped on return, since training updates the
    parameters in place. The LM's forward direction is shared only between
    turns of one dialogue in one chunk, which the length sort rarely gives
    (256 MultiWOZ-shaped turns ran 56,001 forward rows, one per context row);
    a call whose turns fit in one chunk gets it.
    """
    instances = turn_instances(dialogues)
    contexts = [context.build_context(d, i, model.tagging) for d, i in instances]
    by_len = sorted(range(len(instances)), key=lambda j: contexts[j].length)
    states: list = [None] * len(instances)
    with ad.no_grad():
        table = model.embedding.table()
    for lo in range(0, len(by_len), PREDICT_CHUNK):
        part = sorted(by_len[lo:lo + PREDICT_CHUNK])
        for j, state in zip(part, model.predict_states([instances[j] for j in part], table)):
            states[j] = state
    return [TurnPrediction(d.id, i, c.untagged_length, state, d.turns[i].gold_state)
            for (d, i), c, state in zip(instances, contexts, states)]


def ablation_name(config: TrainConfig) -> str:
    parts = []
    if not config.lm_enabled:
        parts.append("-LM")
    if not config.tagging_enabled:
        parts.append("-Tagging")
    return " ".join(parts) if parts else "full"


def fit(dialogues: list[Dialogue], ontology: Ontology, config: TrainConfig,
        checkpoint_path=None, vectors_path=None,
        progress: bool = False) -> tuple[DstModel, TrainReport]:
    """Train on a corpus with early stopping on validation joint accuracy.

    Deterministic for a fixed config seed, from which every random draw
    derives: the initial parameter values from ``default_rng(seed)``, the
    batch order of the whole run from ``default_rng(seed + 1)``, and each
    micro-step's dropout masks from its own child of ``SeedSequence(seed)``
    (see :class:`Trainer`). An epoch is the new best when its rounded
    validation joint accuracy beats every earlier epoch's (epoch 1 always
    is). Training stops after ``config.patience`` epochs without a new
    best, or at once when the best reads 100.00, which no epoch can beat;
    ``report.epochs`` then ends there. The best model is restored at the end
    and optionally persisted. If ``vectors_path`` names a GloVe-format file,
    covered word rows start from it (and stay frozen under
    ``config.freeze_embeddings``).
    """
    start = time.monotonic()
    train_dlgs, val_dlgs = split_corpus(dialogues, config.val_fraction)
    vocab = context.build_vocabulary(train_dlgs, config.min_count)
    model = DstModel.from_config(vocab, ontology, config)
    if vectors_path is not None:
        coverage = model.embedding.load_pretrained_vectors(vectors_path)
        log.info("pretrained vectors cover %.1f%% of the vocabulary", coverage * 100)
        if progress:
            print(f"pretrained vector coverage: {coverage:.3f}", flush=True)
    trainer = Trainer(model, config)
    order_rng = np.random.default_rng(config.seed + 1)

    train_inst = turn_instances(train_dlgs)
    inst_lengths = [context.build_context(d, i, model.tagging).length
                    for d, i in train_inst]
    report = TrainReport(ablation=ablation_name(config))

    for epoch in range(1, config.max_epochs + 1):
        batches = _length_sorted_batches(train_inst, inst_lengths,
                                         config.batch_size, order_rng)
        losses = [trainer.train_step(batch) for batch in batches]
        if trainer.micro_step % config.delay_update_steps != 0:
            trainer.apply_accumulated()  # flush a partial window at epoch end

        preds = predict_instances(model, val_dlgs)
        stats = EpochStats(epoch, sum(dst for dst, _ in losses) / len(losses),
                           sum(lm for _, lm in losses) / len(losses),
                           joint_accuracy(preds), slot_accuracy(preds, ontology))
        report.epochs.append(stats)
        if progress:
            print(f"epoch {epoch:3d}  dst {stats.train_dst:8.4f}  lm {stats.train_lm:10.4f}"
                  f"  val joint {stats.val_joint:6.2f}  val slot {stats.val_slot:6.2f}",
                  flush=True)
        log.info("epoch %d: dst %.4f lm %.4f val joint %.2f slot %.2f",
                 epoch, stats.train_dst, stats.train_lm, stats.val_joint, stats.val_slot)

        if report.best_epoch == 0 or stats.val_joint > report.best_val_joint:
            report.best_epoch, report.best_val_joint = epoch, stats.val_joint
            best_state = model.store.state_dict()
        ceiling = report.best_val_joint == 100.0  # no rounded score can beat it
        if ceiling or epoch - report.best_epoch >= config.patience:
            log.info("stop at epoch %d (best epoch %d): %s", epoch, report.best_epoch,
                     "validation joint reads 100.00" if ceiling else "patience ran out")
            break

    model.store.load_state_dict(best_state)
    report.wall_clock_sec = time.monotonic() - start
    if checkpoint_path is not None:
        model.save(checkpoint_path)
        report.checkpoint_path = str(checkpoint_path)
    return model, report


def sweep(alpha_values, delay_values, dialogues: list[Dialogue], ontology: Ontology,
          base_config: TrainConfig) -> list[dict]:
    """fit() per (alpha, delay) grid cell; rows are plot-ready dicts."""
    if not alpha_values or not delay_values:
        raise ValueError("sweep grids must be non-empty")
    # A bad cell raises here, before any earlier cell trains.
    cells = [replace(base_config, alpha=alpha, delay_update_steps=delay)
             for alpha in alpha_values for delay in delay_values]
    rows = []
    for cfg in cells:
        _, report = fit(dialogues, ontology, cfg)
        rows.append({
            "alpha": cfg.alpha,
            "delay_update_steps": cfg.delay_update_steps,
            "val_joint_accuracy": report.best_val_joint,
            "epochs": len(report.epochs),
        })
    return rows
