"""Utterance encoder, per-slot gate, and copy-augmented value generator.

Prediction runs the pipeline context -> embed -> (optional LM fusion) ->
bi-GRU encoder -> per-slot decoding in ontology order. Each decode step
mixes a vocabulary softmax (tied to the embedding table) with the attention
distribution over context positions, weighted by a learned p_gen. Tokens
that are out of vocabulary but present in the context get temporary
extended ids (one per distinct surface form), so copying can emit surface
forms the vocabulary has never seen.

Turn instances of a micro-batch run through stacked graphs purely for
throughput: one embedding table build, batched recurrences over the stacked
contexts, and a decoder over the (example, slot) rows. Attention reads the
encoder states zero-padded to (B, t_max, d) under a length mask, grouped by
example. Training is teacher-forced, so every decoder input is known up
front: the decoder GRU runs once over all rows as sequences of their own
target lengths, attention and the output heads run once over every step of
every row, and one log-space loss scores each target
(:func:`lmdst.autodiff.copy_nll_rows`). Greedy prediction decodes only what
it reads, one step at a time: the first step computes every row's gate, and
from then on only the ptr rows that have not emitted EOS step.
Each step's argmax compares a row's best generation column with its few
context columns (:func:`copy_argmax`) instead of building the full mixture.
Results equal those of a batch of one up to float rounding only: BLAS may
sum stacked rows in another order for another batch shape (a turn's gate
probabilities move by 5.6e-17 between a 1- and a 2-turn batch), and padding
changes the summation blocks of a softmax, so an exact tie in a greedy
argmax can resolve differently. Slots never interact either:
to the same rounding, each row of the decode batch depends only on its own
example and slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .context import EOS, UNK, Vocabulary, build_context, tokenize
from .corpus import BeliefState, Dialogue, Ontology
from .embeddings import CompositeEmbedding
from .lm import LanguageModel

GATE_CLASSES = ("ptr", "none", "dontcare")
GATE_PTR, GATE_NONE, GATE_DONTCARE = 0, 1, 2

# Constructor arguments a checkpoint records, beside the vocabulary and the
# ontology. Dropout, word dropout, the embedding freeze and the seed (whose
# initial values the stored arrays replace) shape only training, so a loaded
# model takes their defaults.
CHECKPOINT_FIELDS = ("hidden_dim", "embedding_dim", "tagging", "lm_enabled",
                     "max_value_len")


@dataclass
class SlotGateDecision:
    probs: np.ndarray  # over GATE_CLASSES, sums to 1

    @property
    def label(self) -> str:
        return GATE_CLASSES[int(np.argmax(self.probs))]


@dataclass
class TurnContext:
    """Everything decoding needs for one (dialogue, turn) instance."""

    tokens: list[str]
    oov_surfaces: list[str]  # distinct OOV surfaces, first-appearance order

    @property
    def n_oov(self) -> int:
        return len(self.oov_surfaces)


@dataclass
class BatchContext:
    contexts: list[TurnContext]
    table: ad.Node       # |V| x emb
    table_t: ad.Node     # emb x |V|
    final_all: ad.Node   # B x d_h, one encoder final state per example
    hiddens: ad.Node     # B x t_max x d_h encoder states, zero-padded
    ids: np.ndarray      # vocabulary ids of all contexts, stacked
    lengths: list[int]   # context lengths, in stacking order
    lm_states: tuple[ad.Node, ad.Node] | None  # LM (forward, backward) states
    # one row per (example, slot) decoder row, example-major, t_max wide:
    row_mask: np.ndarray     # True at the row's context positions
    row_ext_ids: np.ndarray  # extended id per position (0 in the padding)


class DecodeStep(NamedTuple):
    """Decoder steps of (example, slot) rows; every node has one row per
    entry of ``rows``. Greedy decoding holds one step of the rows it ran;
    the teacher-forced loss holds every step of every row, a row's steps in
    order and back to back."""

    rows: np.ndarray       # decoder row (example * |slots| + slot) of each entry, ascending
    x: ad.Node             # the decoder inputs
    h: ad.Node             # the decoder states they step to
    attn_logits: ad.Node   # rows x t_max, 0 outside the row's context
    attn: ad.Node          # masked softmax of ``attn_logits``
    context_vec: ad.Node   # attention-weighted encoder states

    def take(self, keep: np.ndarray) -> "DecodeStep":
        """The entries at positions ``keep``."""
        return DecodeStep(self.rows[keep],
                          *(ad.embedding_lookup(node, keep) for node in self[1:]))


def extend_context_ids(vocab: Vocabulary, tokens: list[str]):
    """Vocabulary ids plus per-surface extended ids for OOV context tokens."""
    unk = vocab.id(UNK)
    ids, ext_ids, surfaces = [], [], []
    ext_of: dict[str, int] = {}
    for tok in tokens:
        if tok in vocab:
            i = vocab.id(tok)
            ids.append(i)
            ext_ids.append(i)
        else:
            ids.append(unk)
            if tok not in ext_of:
                ext_of[tok] = len(vocab) + len(surfaces)
                surfaces.append(tok)
            ext_ids.append(ext_of[tok])
    return np.array(ids, dtype=np.intp), np.array(ext_ids, dtype=np.intp), surfaces


def copy_mixture(vocab_probs: ad.Node, context_probs: ad.Node, p_gen: ad.Node,
                 context_ext_ids, vocab_size: int, n_oov: int) -> ad.Node:
    """p_gen * vocab distribution + (1 - p_gen) * scattered copy distribution.

    ``context_ext_ids`` holds one extended id per context position, shared
    by all rows or one row of ids per row. The result has
    ``vocab_size + n_oov`` columns and sums to 1 per row for any inputs
    that are themselves simplexes and any p_gen in [0, 1].
    """
    gen = ad.elementwise_mul(vocab_probs, p_gen)
    if n_oov:
        gen = ad.concat(gen, ad.Node(np.zeros((gen.shape[0], n_oov))), axis=1)
    copy = ad.scatter_cols(context_probs, context_ext_ids, vocab_size + n_oov)
    keep = ad.add(ad.scale(p_gen, -1.0), ad.Node(1.0))
    return ad.add(gen, ad.elementwise_mul(copy, keep))


def copy_grouping(context_ext_ids, context_mask) -> np.ndarray:
    """For each row and context position, the first position of the row
    that holds the same extended id; a position outside ``context_mask``
    points at itself. Fixed for a batch, so greedy decoding builds it once."""
    ids = np.asarray(context_ext_ids, dtype=np.intp)
    n, t = ids.shape
    width = ids.max(initial=0) + 1 + t
    # one key per (row, id); a padding position gets a key of its own
    keys = np.arange(n)[:, None] * width + np.where(context_mask, ids, width - t + np.arange(t))
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first[inverse].reshape(n, t) % t


def copy_argmax(vocab_logits: np.ndarray, context_probs: np.ndarray, p_gen: np.ndarray,
                context_ext_ids, context_mask, grouping=None) -> np.ndarray:
    """``np.argmax(copy_mixture(softmax(vocab_logits), context_probs, p_gen,
    context_ext_ids, |V|, n_oov).value, axis=1)`` for per-row ids, exactly,
    ties to the lowest id, without building the rows x (|V| + n_oov) mixture.

    The mixture is ``p_gen * softmax`` plus copy mass, which only a row's
    context columns hold. So the row's best column is its best generation
    column or one of its few context columns, compared at their exact
    mixture values (an extended id no position holds is 0, never the
    maximum of a row that sums to 1). Those values come from the float
    operations ``copy_mixture`` does: the copy mass of a column sums its
    positions in position order. ``context_probs`` is 0 outside
    ``context_mask``; ``grouping`` is :func:`copy_grouping` of the ids and
    mask, computed here when not given.
    """
    v = vocab_logits
    ids = np.asarray(context_ext_ids, dtype=np.intp)
    keep_pos = np.asarray(context_mask, dtype=bool)
    slots = copy_grouping(ids, keep_pos) if grouping is None else grouping
    n, t = ids.shape
    rows = np.arange(n)
    # p_gen * softmax(v), in one buffer, as softmax and copy_mixture compute it
    gen = v - v.max(axis=1, keepdims=True)
    np.exp(gen, out=gen)
    gen /= gen.sum(axis=1, keepdims=True)
    gen *= p_gen
    best_gen = gen.argmax(axis=1)
    # each column's copy mass, accumulated at its first position
    copy = np.zeros((n, t), dtype=gen.dtype)
    np.add.at(copy.reshape(-1), (rows[:, None] * t + slots).ravel(), context_probs.ravel())
    in_vocab = ids < v.shape[1]
    gen_at = np.take_along_axis(gen, np.where(in_vocab, ids, 0), axis=1)
    mixed = (np.where(in_vocab, gen_at, 0.0)
             + np.take_along_axis(copy, slots, axis=1) * (1.0 - p_gen))
    mixed[~keep_pos] = -np.inf
    values = np.concatenate([gen[rows, best_gen][:, None], mixed], axis=1)
    cols = np.concatenate([best_gen[:, None], ids], axis=1)
    top = values == values.max(axis=1, keepdims=True)
    return np.where(top, cols, np.iinfo(np.intp).max).min(axis=1)


class Encoder:
    """Bi-GRU utterance encoder over the (fused) embedded context."""

    def __init__(self, store: ad.ParameterStore, input_dim: int, hidden_dim: int):
        self.fwd = ad.GruCell(store, "enc.fwd", input_dim, hidden_dim)
        self.bwd = ad.GruCell(store, "enc.bwd", input_dim, hidden_dim)

    def forward(self, xs: ad.Node, lengths) -> tuple[ad.Node, ad.Node]:
        """(forward + backward states, one final state per sequence).

        ``xs`` holds the sequences back to back (see
        :func:`lmdst.autodiff.gru_sequence_batch`); the final state of
        sequence i is its last forward state plus its first backward state.
        """
        lens = np.asarray(lengths, dtype=np.intp)
        offsets = np.cumsum(lens) - lens
        f = ad.gru_sequence_batch(self.fwd, xs, lengths)
        b = ad.gru_sequence_batch(self.bwd, xs, lengths, reverse=True)
        hiddens = ad.add(f, b)
        finals = ad.add(ad.embedding_lookup(f, offsets + lens - 1),
                        ad.embedding_lookup(b, offsets))
        return hiddens, finals


class DstModel:
    """TRADE-style state generator with optional tagging and LM fusion."""

    def __init__(self, vocab: Vocabulary, ontology: Ontology, *,
                 hidden_dim: int = 400, embedding_dim: int = 400,
                 tagging: bool = True, lm_enabled: bool = True,
                 dropout: float = 0.2, word_dropout: float = 0.15,
                 max_value_len: int = 10,
                 freeze_word_embeddings: bool = False, seed: int = 0):
        if hidden_dim != embedding_dim:
            raise ValueError("hidden_dim must equal embedding_dim (states are summed "
                             f"with embeddings); got {hidden_dim} vs {embedding_dim}")
        self.vocab = vocab
        self.ontology = ontology
        self.hidden_dim = hidden_dim
        self.embedding_dim = embedding_dim
        self.tagging = tagging
        self.lm_enabled = lm_enabled
        self.dropout = dropout
        self.word_dropout = word_dropout
        self.max_value_len = max_value_len

        self.store = ad.ParameterStore(seed)
        self.embedding = CompositeEmbedding(
            self.store, vocab, embedding_dim=embedding_dim, hidden_dim=hidden_dim,
            freeze_word=freeze_word_embeddings)
        self.lm = LanguageModel(self.store, embedding_dim, hidden_dim, len(vocab))
        self.encoder = Encoder(self.store, embedding_dim, hidden_dim)
        self.decoder_cell = ad.GruCell(self.store, "dec", embedding_dim, hidden_dim)
        bound = 1.0 / np.sqrt(hidden_dim)
        self.w_gate = self.store.new("dec.w_gate", (hidden_dim, 3), bound)
        self.b_gate = self.store.new("dec.b_gate", (3,), bound)
        self.w_pgen = self.store.new("dec.w_pgen", (2 * hidden_dim + embedding_dim, 1), bound)
        self.b_pgen = self.store.new("dec.b_pgen", (1,), bound)

        # Row s averages the embedding rows of slot s's domain and slot-name
        # tokens (so the first decoder input is domain emb + slot emb).
        m = np.zeros((len(ontology), len(vocab)))
        for s, (domain, slot) in enumerate(ontology.domain_slots):
            for name in (domain, slot):
                ids = vocab.encode(tokenize(name))
                for i in ids:
                    m[s, i] += 1.0 / len(ids)
        self._slot_token_avg = m

    @classmethod
    def from_config(cls, vocab: Vocabulary, ontology: Ontology, config) -> "DstModel":
        """The model a :class:`lmdst.training.TrainConfig` describes."""
        return cls(vocab, ontology,
                   hidden_dim=config.hidden_dim, embedding_dim=config.embedding_dim,
                   tagging=config.tagging_enabled, lm_enabled=config.lm_enabled,
                   dropout=config.dropout, word_dropout=config.word_dropout,
                   max_value_len=config.max_value_len,
                   freeze_word_embeddings=config.freeze_embeddings, seed=config.seed)

    # -- forward pieces ----------------------------------------------------

    def prepare_batch(self, instances: list[tuple[Dialogue, int]],
                      rng: np.random.Generator | None = None) -> BatchContext:
        """Context -> embeddings -> optional LM -> encoder for a batch.

        Passing ``rng`` enables training-time dropout (embedding rows,
        encoder outputs) and word dropout on the embedding input ids.
        """
        if not instances:
            raise ValueError("prepare_batch: empty instance list")
        tokens_per: list[list[str]] = []
        ids_per, ext_per, oov_per = [], [], []
        for dialogue, turn in instances:
            seq = build_context(dialogue, turn, self.tagging)
            if not seq.tokens:
                raise ad.ShapeError(
                    f"empty context for dialogue {dialogue.id} turn {turn}")
            ids, ext_ids, oov = extend_context_ids(self.vocab, seq.tokens)
            tokens_per.append(seq.tokens)
            ids_per.append(ids)
            ext_per.append(ext_ids)
            oov_per.append(oov)
        lengths = [len(t) for t in tokens_per]
        ids_all = np.concatenate(ids_per)

        input_ids = ids_all
        if rng is not None and self.word_dropout > 0:
            drop = rng.random(ids_all.size) < self.word_dropout
            if drop.any():
                input_ids = np.where(drop, self.vocab.id(UNK), ids_all)

        table = self.embedding.table()
        table_t = ad.transpose(table)
        emb = ad.embedding_lookup(table, input_ids)
        if rng is not None and self.dropout > 0:
            mask = (rng.random(emb.shape) >= self.dropout) / (1.0 - self.dropout)
            emb = ad.elementwise_mul(emb, ad.Node(mask))

        lm_states = self.lm.forward(emb, lengths) if self.lm_enabled else None
        fused = emb if lm_states is None else ad.add(emb, ad.add(*lm_states))

        hiddens_all, final_all = self.encoder.forward(fused, lengths)
        if rng is not None and self.dropout > 0:
            mask = (rng.random(hiddens_all.shape) >= self.dropout) / (1.0 - self.dropout)
            hiddens_all = ad.elementwise_mul(hiddens_all, ad.Node(mask))

        n_s = len(self.ontology)
        in_context = np.arange(max(lengths)) < np.array(lengths)[:, None]
        ext_ids = np.zeros(in_context.shape, dtype=np.intp)
        ext_ids[in_context] = np.concatenate(ext_per)
        return BatchContext(
            contexts=[TurnContext(t, oov) for t, oov in zip(tokens_per, oov_per)],
            table=table, table_t=table_t, final_all=final_all,
            hiddens=ad.pad_sequences(hiddens_all, lengths), ids=ids_all, lengths=lengths,
            lm_states=lm_states, row_mask=np.repeat(in_context, n_s, axis=0),
            row_ext_ids=np.repeat(ext_ids, n_s, axis=0))

    def _decoder_init(self, batch: BatchContext):
        """Stacked first inputs (slot embeddings) and initial states (tiled
        encoder finals) for every ontology slot of every example, example-major."""
        n_b, n_s = len(batch.contexts), len(self.ontology)
        x = ad.embedding_lookup(ad.matmul(ad.Node(self._slot_token_avg), batch.table),
                                np.tile(np.arange(n_s), n_b))
        h = ad.embedding_lookup(batch.final_all, np.repeat(np.arange(n_b), n_s))
        return x, h

    def _attend(self, batch: BatchContext, x: ad.Node, h: ad.Node,
                rows: np.ndarray) -> DecodeStep:
        """Attention of the decoder states ``h`` (stepped from the inputs
        ``x``) over each one's own context, grouped by example: ``rows``
        holds the decoder row (example * |slots| + slot) of each state,
        ascending. The gate and the output heads read the result
        (:meth:`_gate_logits`, :meth:`_output_logits`)."""
        per_example = np.bincount(rows // len(self.ontology), minlength=len(batch.contexts))
        attn_logits = ad.bmm(h, batch.hiddens, transpose_b=True, group_rows=per_example)
        attn = ad.masked_softmax(attn_logits, batch.row_mask[rows])
        context_vec = ad.bmm(attn, batch.hiddens, group_rows=per_example)
        return DecodeStep(rows, x, h, attn_logits, attn, context_vec)

    def _gate_logits(self, context_vec: ad.Node) -> ad.Node:
        """The rows x 3 gate logits from each row's first-step context vector."""
        return ad.add(ad.matmul(context_vec, self.w_gate), self.b_gate)

    def _output_logits(self, batch: BatchContext, step: DecodeStep) -> tuple[ad.Node, ad.Node]:
        """(rows x |V| vocabulary logits, rows x 1 p_gen logits; p_gen = sigmoid)."""
        gen_logits = ad.add(
            ad.matmul(ad.concat(ad.concat(step.h, step.context_vec, axis=1), step.x, axis=1),
                      self.w_pgen),
            self.b_pgen)
        return ad.matmul(step.h, batch.table_t), gen_logits

    def _feed(self, batch: BatchContext, ids: np.ndarray) -> ad.Node:
        """Next decoder inputs; an extended (copied OOV) id feeds UNK back."""
        ids = np.where(ids >= len(self.vocab), self.vocab.id(UNK), ids)
        return ad.embedding_lookup(batch.table, ids)

    # -- training ----------------------------------------------------------

    def gate_label(self, gold: BeliefState, domain: str, slot: str) -> int:
        value = gold.get(domain, slot)
        if value is None:
            return GATE_NONE
        return GATE_DONTCARE if value == "dontcare" else GATE_PTR

    def _target_ids(self, ctx: TurnContext, gold: BeliefState):
        """Teacher-forcing targets per ontology slot: value tokens + EOS for
        ptr slots, ["dontcare", EOS] for dontcare, [EOS] for absent. Returns
        (one id list per slot, one gate label per slot)."""
        ext_of = {s: len(self.vocab) + i for i, s in enumerate(ctx.oov_surfaces)}
        unk, eos = self.vocab.id(UNK), self.vocab.id(EOS)
        seqs, gates = [], []
        for domain, slot in self.ontology.domain_slots:
            gate = self.gate_label(gold, domain, slot)
            gates.append(gate)
            if gate == GATE_NONE:
                words = []
            elif gate == GATE_DONTCARE:
                words = ["dontcare"]
            else:
                words = tokenize(gold.get(domain, slot))
            ids = [self.vocab.id(t) if t in self.vocab else ext_of.get(t, unk)
                   for t in words]
            seqs.append((ids + [eos])[:self.max_value_len])
        return seqs, gates

    def batch_loss(self, instances: list[tuple[Dialogue, int]],
                   rng: np.random.Generator | None = None) -> tuple[ad.Node, ad.Node]:
        """(sum of per-turn state-tracking losses, sum of per-turn LM losses).

        Per turn, the state-tracking term is the summed token cross entropy
        plus the gate cross entropy, averaged over the turn's slot instances;
        the LM term is the per-sequence sum. Callers divide by the batch size.
        The decoder is teacher-forced: each (example, slot) row is a sequence
        of its own target length, whose step 0 reads the slot embedding and
        step j > 0 target j - 1. One recurrence runs every row to its end,
        one :func:`lmdst.autodiff.copy_nll_rows` scores every target, and one
        cross entropy scores the gates on each row's first step.
        """
        batch = self.prepare_batch(instances, rng)
        seqs, gates = [], []
        for ctx, (dialogue, turn) in zip(batch.contexts, instances):
            slot_seqs, slot_gates = self._target_ids(ctx, dialogue.turns[turn].gold_state)
            seqs += slot_seqs
            gates += slot_gates
        lens = np.array([len(s) for s in seqs], dtype=np.intp)
        targets = np.concatenate(seqs)
        starts = np.cumsum(lens) - lens
        rows = np.repeat(np.arange(lens.size), lens)
        # Step 0 of row r reads row r of the slot embeddings; step j > 0 reads
        # target j - 1, fed row pos - r - 1 (a row's last target is never fed).
        x0, h0 = self._decoder_init(batch)
        fed = self._feed(batch, np.delete(targets, starts + lens - 1))
        pos = np.arange(targets.size)
        x = ad.embedding_lookup(ad.concat(x0, fed),
                                np.where(pos == starts[rows], rows, lens.size + pos - rows - 1))
        step = self._attend(batch, x, ad.gru_sequence_batch(self.decoder_cell, x, lens, h0=h0),
                            rows)
        gate_total = ad.cross_entropy_rows(
            self._gate_logits(ad.embedding_lookup(step.context_vec, starts)), gates)
        vocab_logits, gen_logits = self._output_logits(batch, step)
        token_total = ad.copy_nll_rows(vocab_logits, step.attn_logits, gen_logits, targets,
                                       batch.row_ext_ids[rows], batch.row_mask[rows])
        dst_sum = ad.scale(ad.add(token_total, gate_total), 1.0 / len(self.ontology))
        if batch.lm_states is None:
            return dst_sum, ad.Node(0.0)
        return dst_sum, self.lm.loss(*batch.lm_states, batch.ids, batch.lengths)

    # -- inference ---------------------------------------------------------

    def _token_for(self, ctx: TurnContext, idx: int) -> str:
        if idx < len(self.vocab):
            return self.vocab.token(idx)
        return ctx.oov_surfaces[idx - len(self.vocab)]

    def _greedy_decode(self, batch: BatchContext):
        """Greedy decoding of every ontology slot for every example in the batch.

        Returns per-example ([SlotGateDecision, ...], [token list, ...]), one
        entry per slot in ontology order. The first step runs the GRU step,
        attention and the gate for every (example, slot) row. Only the rows
        whose gate is ptr go on to the output heads, and a row leaves when it
        emits EOS, so each step runs only the ptr rows still decoding. A none
        or dontcare slot returns no words. Argmax ties break toward the
        lowest token id.
        """
        n_b, n_s = len(batch.contexts), len(self.ontology)
        eos = self.vocab.id(EOS)
        x, h = self._decoder_init(batch)
        step = self._attend(batch, x, self.decoder_cell.step(x, h), np.arange(n_b * n_s))
        probs = ad.softmax(self._gate_logits(step.context_vec), axis=1).value
        gates = [[SlotGateDecision(p.copy()) for p in turn]
                 for turn in probs.reshape(n_b, n_s, -1)]
        words: list[list[list[str]]] = [[[] for _ in range(n_s)] for _ in range(n_b)]
        # the same tie-break as SlotGateDecision.label
        step = step.take(np.flatnonzero(probs.argmax(axis=1) == GATE_PTR))
        # every slot row of an example shares its context ids: group per example
        grouping = copy_grouping(batch.row_ext_ids[::n_s], batch.row_mask[::n_s])
        for j in range(self.max_value_len):
            if not step.rows.size:
                break
            vocab_logits, gen_logits = self._output_logits(batch, step)
            choice = copy_argmax(vocab_logits.value, step.attn.value,
                                 ad.sigmoid(gen_logits).value, batch.row_ext_ids[step.rows],
                                 batch.row_mask[step.rows], grouping[step.rows // n_s])
            going = np.flatnonzero(choice != eos)
            for r, c in zip(step.rows[going].tolist(), choice[going].tolist()):
                i, s = divmod(r, n_s)
                words[i][s].append(self._token_for(batch.contexts[i], c))
            if not going.size or j + 1 == self.max_value_len:
                break
            x = self._feed(batch, choice[going])
            h = self.decoder_cell.step(x, ad.embedding_lookup(step.h, going))
            step = self._attend(batch, x, h, step.rows[going])
        return gates, words

    def _assemble_state(self, gates: list[SlotGateDecision],
                        words: list[list[str]]) -> BeliefState:
        state = BeliefState()
        for (domain, slot), gate, toks in zip(self.ontology.domain_slots, gates, words):
            label = gate.label
            if label == "none":
                continue
            if label == "dontcare":
                state.set(domain, slot, "dontcare")
                continue
            value = " ".join(toks)
            if value and value != "none":
                state.set(domain, slot, value)
        return state

    def predict_states(self, instances: list[tuple[Dialogue, int]]) -> list[BeliefState]:
        """Greedy predictions for a batch of turns (all slots, fixed order)."""
        with ad.no_grad():
            batch = self.prepare_batch(instances)
            gates, words = self._greedy_decode(batch)
        return [self._assemble_state(g, w) for g, w in zip(gates, words)]

    def predict_state(self, dialogue: Dialogue, turn: int) -> BeliefState:
        """Greedy prediction for one turn."""
        return self.predict_states([(dialogue, turn)])[0]

    # -- persistence -------------------------------------------------------

    def meta(self) -> dict:
        return {
            "vocab": self.vocab.content_tokens(),
            "ontology": [f"{d}-{s}" for d, s in self.ontology.domain_slots],
            **{name: getattr(self, name) for name in CHECKPOINT_FIELDS},
        }

    def save(self, path) -> None:
        ad.save_checkpoint(path, self.store.state_dict(), self.meta())

    @classmethod
    def load(cls, path) -> "DstModel":
        arrays, meta = ad.load_checkpoint(path)
        missing = [k for k in ("vocab", "ontology", *CHECKPOINT_FIELDS) if k not in meta]
        if missing:
            raise ad.CheckpointError(f"checkpoint {path} missing metadata {missing}")
        vocab = Vocabulary(meta["vocab"])
        pairs = []
        for key in meta["ontology"]:
            domain, _, slot = key.partition("-")
            pairs.append((domain, slot))
        model = cls(vocab, Ontology(pairs), **{k: meta[k] for k in CHECKPOINT_FIELDS})
        model.store.load_state_dict(arrays)
        return model
