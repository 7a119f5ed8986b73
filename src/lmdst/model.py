"""Utterance encoder, per-slot gate, and copy-augmented value generator.

Prediction runs the pipeline context -> embed -> (optional LM fusion) ->
bi-GRU encoder -> per-slot decoding in ontology order. The LM and the
encoder are each a :class:`lmdst.lm.BiGru`; the encoder's states are the
sum of its two directions, and a context's final state is its last forward
plus its first backward state. Each decode step mixes a vocabulary softmax
(tied to the embedding table) with the attention distribution over context
positions, weighted by a learned p_gen. Tokens
that are out of vocabulary but present in the context get temporary
extended ids (one per distinct surface form), so copying can emit surface
forms the vocabulary has never seen. Each direction of that mapping has one
implementation: :func:`extend_context_ids` (token -> extended id, for the
context and the gold values), :meth:`DstModel._input_ids` (extended id ->
embedding-table id, UNK for a copied surface) and
:meth:`DstModel._token_for` (extended id -> surface).

Turn instances of a micro-batch run through stacked graphs purely for
throughput: one embedding table build, batched recurrences over the stacked
contexts, and a decoder over the (example, slot) rows. ``decode`` is the
caller's one signal: a training batch carries the LM loss; prediction's
decode batch builds none and shares prefixes: a turn's context is the first
rows of its dialogue's longest context in the batch, so its dialogue is its
LM prefix group: the LM's forward direction runs once per dialogue and each
turn reads its forward states from those rows (the backward direction and
the encoder read later rows and run per turn). No batch keeps the LM states
once they are fused into the encoder input.
Attention reads the encoder states zero-padded to (B, t_max, d), grouped by
example; its logits carry ``MASKED_LOGIT`` outside each context, so the
softmax, the copy loss and the greedy argmax read no mask. Training is
teacher-forced, so every decoder input is known up front: the decoder GRU
runs once over all rows as sequences of their own target lengths,
attention and the output heads run once over every step of every row, and
one log-space loss scores each target
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

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .context import EOS, UNK, ContextSequence, Vocabulary, build_context, tokenize
from .corpus import BeliefState, Dialogue, Ontology, split_slot_key
from .embeddings import CompositeEmbedding
from .lm import BiGru, LanguageModel

GATE_PTR, GATE_NONE, GATE_DONTCARE = 0, 1, 2  # the gate logits' column order

# Constructor arguments a checkpoint records, with their types, beside the
# vocabulary and the ontology. Dropout, word dropout, the embedding freeze and
# the seed (whose initial values the stored arrays replace) shape only
# training, so a loaded model takes their defaults.
CHECKPOINT_FIELDS = {"hidden_dim": int, "embedding_dim": int, "tagging": bool,
                     "lm_enabled": bool, "max_value_len": int}

# The attention logit of a position outside a row's context, added once in
# DstModel._attend; every reader of the logits or their softmax takes no mask.
# Finite, so backward's finiteness check still names the first op whose value
# is non-finite (with -inf it would name the mask's add); and exp underflows
# it to exactly 0, so every sum reads the same bits as with -inf.
MASKED_LOGIT = -1e30


@dataclass
class BatchContext:
    """A micro-batch's encoded contexts, one entry per example in instance
    order. ``ext_ids[mask]`` lists every context's extended ids back to back
    in that order; their :meth:`DstModel._input_ids` are the embedding input
    and the LM targets."""

    contexts: list[ContextSequence]  # the built contexts, in stacking order
    oov: list[list[str]]  # per example, its distinct OOV surfaces, first-appearance order
    table: ad.Node       # |V| x emb
    final_all: ad.Node   # B x d_h, one encoder final state per example
    hiddens: ad.Node     # B x t_max x d_h encoder states, zero-padded
    lm_loss: ad.Node | None  # summed LM loss (0 with the LM off); None in a decode batch
    # one row per example, t_max wide; every slot row of an example reads it:
    mask: np.ndarray     # True at the example's context positions; only _attend reads it
    ext_ids: np.ndarray  # extended id per position (0 in the padding)

    @functools.cached_property
    def table_t(self) -> ad.Node:
        """The emb x |V| transposed table the vocabulary head multiplies by,
        copied on first use, so it is not held while the LM and the encoder
        run. A copy, not a view: the head's GEMMs round by operand layout."""
        return ad.transpose(self.table)


class DecodeStep(NamedTuple):
    """Decoder steps of (example, slot) rows; every node has one row per
    entry of ``rows``. Greedy decoding holds one step of the rows it ran;
    the teacher-forced loss holds every step of every row, a row's steps in
    order and back to back."""

    rows: np.ndarray       # decoder row (example * |slots| + slot) of each entry, ascending
    x: ad.Node             # the decoder inputs
    h: ad.Node             # the decoder states they step to
    attn_logits: ad.Node   # rows x t_max, MASKED_LOGIT outside the row's context
    attn: ad.Node          # softmax of ``attn_logits``: 0 outside the row's context
    context_vec: ad.Node   # attention-weighted encoder states

    def take(self, keep: np.ndarray) -> "DecodeStep":
        """The entries at positions ``keep``."""
        return DecodeStep(self.rows[keep],
                          *(ad.embedding_lookup(node, keep) for node in self[1:]))


def extend_context_ids(vocab: Vocabulary, tokens: list[str], surfaces: list[str]) -> np.ndarray:
    """The extended id of each token: ``|V| + i`` for ``surfaces[i]`` (a
    context's distinct OOV tokens), else its vocabulary id, which is UNK
    for any other token the vocabulary lacks."""
    ext_of = {s: len(vocab) + i for i, s in enumerate(surfaces)}
    return np.array([ext_of.get(t, vocab.id(t)) for t in tokens], dtype=np.intp)


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
    keep = ad.add(ad.elementwise_mul(p_gen, -1.0), ad.Node(1.0))
    return ad.add(gen, ad.elementwise_mul(copy, keep))


def copy_grouping(context_ext_ids) -> np.ndarray:
    """For each row and position, the first position of the row that holds
    the same extended id. Fixed for a batch, so greedy decoding builds it
    once."""
    ids = np.asarray(context_ext_ids, dtype=np.intp)
    n, t = ids.shape
    keys = np.arange(n)[:, None] * (ids.max(initial=0) + 1) + ids  # one key per (row, id)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first[inverse].reshape(n, t) % t


def copy_argmax(vocab_logits: np.ndarray, context_probs: np.ndarray, p_gen: np.ndarray,
                context_ext_ids, grouping) -> np.ndarray:
    """``np.argmax(copy_mixture(softmax(vocab_logits), context_probs, p_gen,
    context_ext_ids, |V|, n_oov).value, axis=1)`` for per-row ids, exactly,
    ties to the lowest id, without building the rows x (|V| + n_oov) mixture.

    The mixture is ``p_gen * softmax`` plus copy mass, which only a row's
    context columns hold. So the row's best column is its best generation
    column or one of its few context columns, compared at their exact
    mixture values (an extended id no position holds is 0, never the
    maximum of a row that sums to 1). Those values come from the float
    operations ``copy_mixture`` does: the copy mass of a column sums its
    positions in position order. A position outside a row's context has
    probability exactly 0, so it adds +0.0 to its column's sum, and as a
    candidate it carries its column's true mixture value, whatever id it
    holds: no mask is needed. ``grouping`` is :func:`copy_grouping` of the
    ids, built once per batch.
    """
    v = vocab_logits
    ids = np.asarray(context_ext_ids, dtype=np.intp)
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
    np.add.at(copy.reshape(-1), (rows[:, None] * t + grouping).ravel(), context_probs.ravel())
    in_vocab = ids < v.shape[1]
    gen_at = np.take_along_axis(gen, np.where(in_vocab, ids, 0), axis=1)
    mixed = (np.where(in_vocab, gen_at, 0.0)
             + np.take_along_axis(copy, grouping, axis=1) * (1.0 - p_gen))
    values = np.concatenate([gen[rows, best_gen][:, None], mixed], axis=1)
    cols = np.concatenate([best_gen[:, None], ids], axis=1)
    top = values == values.max(axis=1, keepdims=True)
    return np.where(top, cols, np.iinfo(np.intp).max).min(axis=1)


class DstModel:
    """TRADE-style state generator with optional tagging and LM fusion."""

    def __init__(self, vocab: Vocabulary, ontology: Ontology, *,
                 hidden_dim: int = 400, embedding_dim: int = 400,
                 tagging: bool = True, lm_enabled: bool = True,
                 dropout: float = 0.2, word_dropout: float = 0.15,
                 max_value_len: int = 10,
                 freeze_word_embeddings: bool = False, seed: int = 0,
                 state: dict[str, np.ndarray] | None = None):
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

        # with ``state`` (a checkpoint's arrays), the parameters are those
        # arrays, and ``seed`` draws nothing
        self.store = ad.ParameterStore(seed, state)
        self.embedding = CompositeEmbedding(self.store, vocab, embedding_dim=embedding_dim,
                                            freeze_word=freeze_word_embeddings)
        self.lm = LanguageModel(self.store, embedding_dim, len(vocab))
        self.encoder = BiGru(self.store, "enc", embedding_dim)
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
                ids = [vocab.id(t) for t in tokenize(name)]
                for i in ids:
                    m[s, i] += 1.0 / len(ids)
        self._slot_token_avg = m
        if state is not None:
            self.store.load_state_dict(state)  # names and shapes must match

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
                      rng: np.random.Generator | None = None,
                      table: ad.Node | None = None, *, decode: bool = False) -> BatchContext:
        """Context -> embeddings -> optional LM -> encoder for a batch.

        Passing ``rng`` enables training-time dropout (embedding rows,
        encoder outputs) and word dropout on the embedding input ids.
        ``table`` is the embedding table to read, built here when not given.
        ``decode`` is the caller's one signal of what it reads. Without it
        the LM's forward direction runs over every example, so gradients
        keep their summation order, and the batch carries the LM loss on
        the ids before word dropout. With it (prediction, no ``rng``) no LM
        loss is built, and a turn's embedded rows, which depend only on its
        tokens, are the first rows of every later turn of the same
        :class:`Dialogue` object (:func:`build_context`): the dialogue is the
        LM's prefix group, and its forward direction runs once per dialogue.
        Either way the LM states are dropped once fused.
        """
        if not instances:
            raise ValueError("prepare_batch: empty instance list")
        contexts, oov = [], []
        for dialogue, turn in instances:
            seq = build_context(dialogue, turn, self.tagging)
            if not seq.tokens:
                raise ad.ShapeError(
                    f"empty context for dialogue {dialogue.id} turn {turn}")
            contexts.append(seq)
            oov.append(list(dict.fromkeys(t for t in seq.tokens if t not in self.vocab)))
        lengths = [seq.length for seq in contexts]
        in_context = np.arange(max(lengths)) < np.array(lengths)[:, None]
        ext_ids = np.zeros(in_context.shape, dtype=np.intp)
        ext_ids[in_context] = np.concatenate(
            [extend_context_ids(self.vocab, seq.tokens, s) for seq, s in zip(contexts, oov)])
        input_ids = lm_ids = self._input_ids(ext_ids[in_context])
        if rng is not None and self.word_dropout > 0:
            drop = rng.random(input_ids.size) < self.word_dropout
            input_ids = np.where(drop, self.vocab.id(UNK), input_ids)

        table = self.embedding.table() if table is None else table
        emb = ad.embedding_lookup(table, input_ids)
        if rng is not None and self.dropout > 0:
            mask = (rng.random(emb.shape) >= self.dropout) / (1.0 - self.dropout)
            emb = ad.elementwise_mul(emb, ad.Node(mask))

        lm_loss = None if decode else ad.Node(0.0)
        fused = emb
        if self.lm_enabled:
            groups = [id(dialogue) for dialogue, _ in instances] if decode else None
            states = self.lm.forward(emb, lengths, groups)
            if not decode:
                lm_loss = self.lm.loss(*states, lm_ids, lengths)
            fused = ad.add(emb, ad.add(*states))
            del states  # without a graph, nothing holds these while the encoder runs
        del emb  # nor this

        ends = np.cumsum(lengths)
        f, b = self.encoder.forward(fused, lengths)
        hiddens_all = ad.add(f, b)
        final_all = ad.add(ad.embedding_lookup(f, ends - 1),
                           ad.embedding_lookup(b, ends - lengths))
        del f, b  # nor these while the states are padded
        if rng is not None and self.dropout > 0:
            mask = (rng.random(hiddens_all.shape) >= self.dropout) / (1.0 - self.dropout)
            hiddens_all = ad.elementwise_mul(hiddens_all, ad.Node(mask))

        return BatchContext(
            contexts=contexts, oov=oov, table=table, final_all=final_all,
            hiddens=ad.pad_sequences(hiddens_all, lengths),
            lm_loss=lm_loss, mask=in_context, ext_ids=ext_ids)

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
        ``x``) over each one's own context: ``rows`` holds the decoder row
        (example * |slots| + slot) of each state, ascending, so the states
        of example ``rows // |slots|`` form one group of ``bmm`` rows. The
        logits outside the example's context are :data:`MASKED_LOGIT`, the
        one place the batch's ``mask`` is applied. The gate and the output
        heads read the result (:meth:`_gate_logits`, :meth:`_output_logits`)."""
        ex = rows // len(self.ontology)
        per_example = np.bincount(ex, minlength=len(batch.contexts))
        attn_logits = ad.add(ad.bmm(h, batch.hiddens, per_example, transpose_b=True),
                             ad.Node(np.where(batch.mask[ex], 0.0, MASKED_LOGIT)))
        attn = ad.softmax(attn_logits)
        context_vec = ad.bmm(attn, batch.hiddens, per_example)
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

    def _input_ids(self, ext: np.ndarray) -> np.ndarray:
        """Embedding-table ids of extended ids: a copied OOV surface reads UNK."""
        return np.where(ext >= len(self.vocab), self.vocab.id(UNK), ext)

    def _feed(self, batch: BatchContext, ext: np.ndarray) -> ad.Node:
        """Next decoder inputs for the extended ids ``ext``."""
        return ad.embedding_lookup(batch.table, self._input_ids(ext))

    # -- training ----------------------------------------------------------

    def _target_ids(self, surfaces: list[str], gold: BeliefState):
        """Teacher-forcing targets per ontology slot: the gold value's tokens
        + EOS, so [EOS] for an absent slot and ["dontcare", EOS] for dontcare.
        A token is its extended id in a context whose OOV surfaces are
        ``surfaces``. Returns (one id list per slot, one gate id per slot)."""
        eos = self.vocab.id(EOS)
        seqs, gates = [], []
        for domain, slot in self.ontology.domain_slots:
            value = gold.get(domain, slot)
            gates.append(GATE_NONE if value is None
                         else GATE_DONTCARE if value == "dontcare" else GATE_PTR)
            ids = extend_context_ids(self.vocab, tokenize(value or ""), surfaces).tolist()
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
        for surfaces, (dialogue, turn) in zip(batch.oov, instances):
            slot_seqs, slot_gates = self._target_ids(surfaces, dialogue.turns[turn].gold_state)
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
                                       batch.ext_ids[rows // len(self.ontology)])
        dst_sum = ad.elementwise_mul(ad.add(token_total, gate_total), 1.0 / len(self.ontology))
        return dst_sum, batch.lm_loss

    # -- inference ---------------------------------------------------------

    def _token_for(self, surfaces: list[str], idx: int) -> str:
        """The token of extended id ``idx`` in a context whose OOV surfaces
        are ``surfaces``."""
        if idx < len(self.vocab):
            return self.vocab.token(idx)
        return surfaces[idx - len(self.vocab)]

    def _greedy_decode(self, batch: BatchContext):
        """Greedy decoding of every ontology slot for every example in the batch.

        Returns (gate probabilities, words): an (examples, slots, 3) array
        over the ``GATE_*`` columns, and per example one token list per slot
        in ontology order. The first step runs the GRU step, attention and
        the gate for every (example, slot) row. Only the rows whose most
        probable gate is ptr go on to the output heads, and a row leaves when
        it emits EOS, so each step runs only the ptr rows still decoding. A
        none or dontcare slot returns no words. Argmax ties break toward the
        lowest token id.
        """
        n_b, n_s = len(batch.contexts), len(self.ontology)
        eos = self.vocab.id(EOS)
        x, h = self._decoder_init(batch)
        step = self._attend(batch, x, self.decoder_cell.step(x, h), np.arange(n_b * n_s))
        probs = ad.softmax(self._gate_logits(step.context_vec)).value
        words: list[list[list[str]]] = [[[] for _ in range(n_s)] for _ in range(n_b)]
        step = step.take(np.flatnonzero(probs.argmax(axis=1) == GATE_PTR))
        grouping = copy_grouping(batch.ext_ids)
        for j in range(self.max_value_len):
            if not step.rows.size:
                break
            vocab_logits, gen_logits = self._output_logits(batch, step)
            ex = step.rows // n_s
            choice = copy_argmax(vocab_logits.value, step.attn.value,
                                 ad.sigmoid(gen_logits).value, batch.ext_ids[ex], grouping[ex])
            going = np.flatnonzero(choice != eos)
            for r, c in zip(step.rows[going].tolist(), choice[going].tolist()):
                i, s = divmod(r, n_s)
                words[i][s].append(self._token_for(batch.oov[i], c))
            if not going.size or j + 1 == self.max_value_len:
                break
            x = self._feed(batch, choice[going])
            h = self.decoder_cell.step(x, ad.embedding_lookup(step.h, going))
            step = self._attend(batch, x, h, step.rows[going])
        return probs.reshape(n_b, n_s, -1), words

    def _assemble_state(self, probs: np.ndarray, words: list[list[str]]) -> BeliefState:
        """One example's state from its (slots, 3) gate probabilities and
        its decoded words per slot."""
        state = BeliefState()
        for (domain, slot), gate, toks in zip(self.ontology.domain_slots,
                                              probs.argmax(axis=1), words):
            value = "dontcare" if gate == GATE_DONTCARE else " ".join(toks)
            if gate != GATE_NONE and value and value != "none":
                state.set(domain, slot, value)
        return state

    def predict_states(self, instances: list[tuple[Dialogue, int]],
                       table: ad.Node | None = None) -> list[BeliefState]:
        """Greedy predictions for a batch of turns (all slots, fixed order);
        ``table`` is an embedding table built from the current parameters,
        built here when not given. It is the one caller of a decode batch:
        no LM loss, and the LM's forward direction shared per dialogue."""
        with ad.no_grad():
            batch = self.prepare_batch(instances, table=table, decode=True)
            probs, words = self._greedy_decode(batch)
        return [self._assemble_state(p, w) for p, w in zip(probs, words)]

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
        for name in ("vocab", "ontology"):
            if not (isinstance(meta[name], list) and all(isinstance(t, str) for t in meta[name])):
                raise ad.CheckpointError(f"checkpoint {path}: {name} is not a list of strings")
        for name, kind in CHECKPOINT_FIELDS.items():
            if type(meta[name]) is not kind:  # exact: a bool is an int too
                raise ad.CheckpointError(f"checkpoint {path}: {name} is "
                                         f"{type(meta[name]).__name__}, not {kind.__name__}")
        try:
            ontology = Ontology([split_slot_key(key) for key in meta["ontology"]])
        except ValueError as exc:
            raise ad.CheckpointError(f"checkpoint {path}: {exc}") from exc
        return cls(Vocabulary(meta["vocab"]), ontology,
                   **{k: meta[k] for k in CHECKPOINT_FIELDS}, state=arrays)
