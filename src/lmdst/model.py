"""Utterance encoder, per-slot gate, and copy-augmented value generator.

Prediction runs the pipeline context -> embed -> (optional LM fusion) ->
bi-GRU encoder -> per-slot decoding in ontology order. Each decode step
mixes a vocabulary softmax (tied to the embedding table) with the attention
distribution over context positions, weighted by a learned p_gen. Tokens
that are out of vocabulary but present in the context get temporary
extended ids (one per distinct surface form), so copying can emit surface
forms the vocabulary has never seen.

Turn instances of a micro-batch run through stacked graphs (one embedding
table build, batched recurrences over the stacked contexts, one decoder GRU
step for all slots of all examples) purely for throughput; attention, copy mixtures and
losses stay per example. Results equal those of a batch of one up to float
rounding only: BLAS may sum stacked rows in another order for another batch
shape (a turn's gate probabilities move by 5.6e-17 between a 1- and a 2-turn
batch), so an exact tie in a greedy argmax can resolve differently. Slots
never interact either: to the same rounding, each row of the decode batch
depends only on its own example and slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .context import EOS, UNK, Vocabulary, build_context, tokenize
from .corpus import BeliefState, Dialogue, Ontology
from .embeddings import CompositeEmbedding
from .lm import LanguageModel

GATE_CLASSES = ("ptr", "none", "dontcare")
GATE_PTR, GATE_NONE, GATE_DONTCARE = 0, 1, 2

DEFAULT_MAX_VALUE_LEN = 10


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
    ext_ids: np.ndarray      # extended ids (OOV -> |V| + surface index)
    oov_surfaces: list[str]  # distinct OOV surfaces, first-appearance order
    hiddens: ad.Node         # T x d_h encoder states (forward + backward)
    hiddens_t: ad.Node       # cached transpose of ``hiddens``

    @property
    def n_oov(self) -> int:
        return len(self.oov_surfaces)


@dataclass
class BatchContext:
    contexts: list[TurnContext]
    table: ad.Node       # |V| x emb
    table_t: ad.Node     # emb x |V|
    final_all: ad.Node   # B x d_h, one encoder final state per example
    ids: np.ndarray      # vocabulary ids of all contexts, stacked
    lengths: list[int]   # context lengths, in stacking order
    lm_states: tuple[ad.Node, ad.Node] | None  # LM (forward, backward) states


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

    The result has ``vocab_size + n_oov`` columns and sums to 1 per row for
    any inputs that are themselves simplexes and any p_gen in [0, 1].
    """
    gen = ad.elementwise_mul(vocab_probs, p_gen)
    if n_oov:
        gen = ad.pad_cols(gen, n_oov)
    copy = ad.scatter_cols(context_probs, context_ext_ids, vocab_size + n_oov)
    keep = ad.add(ad.scale(p_gen, -1.0), ad.Node(1.0))
    return ad.add(gen, ad.elementwise_mul(copy, keep))


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
        offsets = np.concatenate([[0], np.cumsum(lengths)])[:-1]
        f = ad.gru_sequence_batch(self.fwd, xs, lengths)
        b = ad.gru_sequence_batch(self.bwd, xs, lengths, reverse=True)
        hiddens = ad.add(f, b)
        last_rows = np.array([off + n - 1 for off, n in zip(offsets, lengths)], dtype=np.intp)
        first_rows = offsets.astype(np.intp)
        finals = ad.add(ad.embedding_lookup(f, last_rows), ad.embedding_lookup(b, first_rows))
        return hiddens, finals


class DstModel:
    """TRADE-style state generator with optional tagging and LM fusion."""

    def __init__(self, vocab: Vocabulary, ontology: Ontology, *,
                 hidden_dim: int = 400, embedding_dim: int = 400,
                 tagging: bool = True, lm_enabled: bool = True,
                 dropout: float = 0.2, word_dropout: float = 0.15,
                 max_value_len: int = DEFAULT_MAX_VALUE_LEN,
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
        offsets = np.concatenate([[0], np.cumsum(lengths)])[:-1]
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

        batch = BatchContext([], table, table_t, final_all, ids_all, lengths, lm_states)
        for i, (off, n) in enumerate(zip(offsets, lengths)):
            hiddens = ad.slice_rows(hiddens_all, int(off), int(off + n))
            batch.contexts.append(TurnContext(
                tokens_per[i], ext_per[i], oov_per[i], hiddens, ad.transpose(hiddens)))
        return batch

    def _decoder_init(self, batch: BatchContext):
        """Stacked first inputs (slot embeddings) and initial states (tiled
        encoder finals) for every ontology slot of every example, example-major."""
        n_b, n_s = len(batch.contexts), len(self.ontology)
        x = ad.embedding_lookup(ad.matmul(ad.Node(self._slot_token_avg), batch.table),
                                np.tile(np.arange(n_s), n_b))
        h = ad.embedding_lookup(batch.final_all, np.repeat(np.arange(n_b), n_s))
        return x, h

    def _decode_step(self, batch: BatchContext, x: ad.Node, h: ad.Node, first: bool):
        """One copy-augmented step for all slot rows (example-major ``x``, ``h``).

        The GRU step and the vocabulary softmax run over all rows; attention,
        p_gen and the copy mixture per example. Returns the new states and per
        example the gate logits (``first`` step only) and the S x (|V| + n_oov)
        final distribution.
        """
        n_s = x.shape[0] // len(batch.contexts)
        h = self.decoder_cell.step(x, h)
        vocab_probs_all = ad.softmax(ad.matmul(h, batch.table_t), axis=1)
        gate_logits, finals = [], []
        for i, ctx in enumerate(batch.contexts):
            h_i = ad.slice_rows(h, i * n_s, (i + 1) * n_s)
            x_i = ad.slice_rows(x, i * n_s, (i + 1) * n_s)
            vocab_probs = ad.slice_rows(vocab_probs_all, i * n_s, (i + 1) * n_s)
            attn = ad.softmax(ad.matmul(h_i, ctx.hiddens_t), axis=1)
            context_vec = ad.matmul(attn, ctx.hiddens)
            p_gen = ad.sigmoid(ad.add(
                ad.matmul(ad.concat(ad.concat(h_i, context_vec, axis=1), x_i, axis=1),
                          self.w_pgen),
                self.b_pgen))
            finals.append(copy_mixture(vocab_probs, attn, p_gen, ctx.ext_ids,
                                       len(self.vocab), ctx.n_oov))
            if first:
                gate_logits.append(ad.add(ad.matmul(context_vec, self.w_gate),
                                          self.b_gate))
        return h, gate_logits, finals

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
        ptr slots, ["dontcare", EOS] for dontcare, [EOS] for absent."""
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
        max_len = max(len(s) for s in seqs)
        n = len(seqs)
        targets = np.zeros((n, max_len), dtype=np.intp)
        mask = np.zeros((n, max_len))
        for i, s in enumerate(seqs):
            targets[i, :len(s)] = s
            mask[i, :len(s)] = 1.0
        return targets, mask, np.array(gates, dtype=np.intp)

    def batch_loss(self, instances: list[tuple[Dialogue, int]],
                   rng: np.random.Generator | None = None) -> tuple[ad.Node, ad.Node]:
        """(sum of per-turn state-tracking losses, sum of per-turn LM losses).

        Per turn, the state-tracking term is the summed token cross entropy
        plus the gate cross entropy, averaged over the turn's slot instances;
        the LM term is the per-sequence sum. Callers divide by the batch size.
        """
        batch = self.prepare_batch(instances, rng)
        n_b, n_s = len(instances), len(self.ontology)
        per_example = [self._target_ids(ctx, dialogue.turns[turn].gold_state)
                       for ctx, (dialogue, turn) in zip(batch.contexts, instances)]
        max_len = max(targets.shape[1] for targets, _, _ in per_example)

        x, h = self._decoder_init(batch)
        eos = self.vocab.id(EOS)
        token_total: ad.Node | None = None
        gate_total: ad.Node | None = None
        for j in range(max_len):
            h, gate_logits, finals = self._decode_step(batch, x, h, j == 0)
            prev_ids = np.full(n_b * n_s, eos, dtype=np.intp)
            for i, (targets, mask, gates) in enumerate(per_example):
                if j == 0:
                    ce = ad.cross_entropy_rows(gate_logits[i], gates)
                    gate_total = ce if gate_total is None else ad.add(gate_total, ce)
                if j < targets.shape[1]:
                    nll = ad.nll_rows(finals[i], targets[:, j], mask[:, j])
                    token_total = nll if token_total is None else ad.add(token_total, nll)
                    prev_ids[i * n_s:(i + 1) * n_s] = targets[:, j]
            if j + 1 < max_len:
                x = self._feed(batch, prev_ids)
        dst_sum = ad.scale(ad.add(token_total, gate_total), 1.0 / n_s)
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
        entry per slot in ontology order. Argmax ties break toward the lowest
        token id.
        """
        n_b, n_s = len(batch.contexts), len(self.ontology)
        eos = self.vocab.id(EOS)
        x, h = self._decoder_init(batch)
        gates: list[list[SlotGateDecision]] = [[] for _ in range(n_b)]
        words: list[list[list[str]]] = [[[] for _ in range(n_s)] for _ in range(n_b)]
        done = np.zeros((n_b, n_s), dtype=bool)
        for j in range(self.max_value_len):
            h, gate_logits, finals = self._decode_step(batch, x, h, j == 0)
            prev_ids = np.full(n_b * n_s, eos, dtype=np.intp)
            for i, ctx in enumerate(batch.contexts):
                if j == 0:
                    probs = ad.softmax(gate_logits[i], axis=1).value
                    gates[i] = [SlotGateDecision(p.copy()) for p in probs]
                choice = np.argmax(finals[i].value, axis=1)
                for s in range(n_s):
                    if done[i, s]:
                        continue
                    c = int(choice[s])
                    if c == eos:
                        done[i, s] = True
                    else:
                        words[i][s].append(self._token_for(ctx, c))
                        prev_ids[i * n_s + s] = c
            if done.all():
                break
            x = self._feed(batch, prev_ids)
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
            "hidden_dim": self.hidden_dim,
            "embedding_dim": self.embedding_dim,
            "tagging": self.tagging,
            "lm_enabled": self.lm_enabled,
            "max_value_len": self.max_value_len,
        }

    def save(self, path) -> None:
        ad.save_checkpoint(path, self.store.state_dict(), self.meta())

    @classmethod
    def load(cls, path) -> "DstModel":
        arrays, meta = ad.load_checkpoint(path)
        required = {"vocab", "ontology", "hidden_dim", "embedding_dim",
                    "tagging", "lm_enabled", "max_value_len"}
        if not required <= set(meta):
            raise ad.CheckpointError(f"checkpoint {path} missing metadata "
                                     f"{sorted(required - set(meta))}")
        vocab = Vocabulary(meta["vocab"])
        pairs = []
        for key in meta["ontology"]:
            domain, _, slot = key.partition("-")
            pairs.append((domain, slot))
        model = cls(vocab, Ontology(pairs),
                    hidden_dim=meta["hidden_dim"], embedding_dim=meta["embedding_dim"],
                    tagging=meta["tagging"], lm_enabled=meta["lm_enabled"],
                    max_value_len=meta["max_value_len"])
        model.store.load_state_dict(arrays)
        return model
