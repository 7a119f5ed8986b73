"""The bi-GRU layer of the LM and the encoder, and the LM's loss.

:class:`BiGru` runs a forward and a backward GRU over sequences stacked back
to back, one batched recurrence per direction. The model runs two: the
language model, and the utterance encoder over the LM-fused embeddings.
The LM's forward states predict the next word, its backward states the
previous word, each through its own softmax head. The loss of one sequence
is the sum of both negative log-likelihood chains:

    loss = - sum_{t=1}^{T-1} log P(w_{t+1} | forward state t)
           - sum_{t=2}^{T}   log P(w_{t-1} | backward state t)

(1-indexed; a length-1 sequence has loss exactly 0, and no begin-of-sequence
token is prepended). The LM is an auxiliary training task: prediction reads
only its states, which the model fuses with the embeddings. The two passes
are therefore separate: :meth:`BiGru.forward` returns the directional
states, and :meth:`LanguageModel.loss` scores the two |V|-wide heads on
them and sums the loss over the sequences; every batch but a decode one does.
Each head is one :func:`lmdst.autodiff.linear_cross_entropy`, which builds
its logits a block of rows at a time and again in backward, so the loss
holds no rows x |V| array: only each row's log-sum-exp and target logit.
A single sequence is the batch ``lengths=[T]``; sequences named as one
prefix group share one forward run (:meth:`BiGru.forward`).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


class BiGru:
    """A forward and a backward GRU, ``{prefix}.fwd`` and ``{prefix}.bwd``,
    whose states are as wide as their inputs (``dim``)."""

    def __init__(self, store: ad.ParameterStore, prefix: str, dim: int):
        self.fwd = ad.GruCell(store, f"{prefix}.fwd", dim, dim)
        self.bwd = ad.GruCell(store, f"{prefix}.bwd", dim, dim)

    def forward(self, xs: ad.Node, lengths, prefix_groups=None) -> tuple[ad.Node, ad.Node]:
        """(forward states, backward states) for stacked sequences.

        ``xs`` holds the sequences back to back: rows ``offset_i ..
        offset_i + lengths[i]`` belong to sequence i. ``prefix_groups``, if
        given, holds one key per sequence; equal keys promise that each
        sequence's rows are the first rows of its group's longest sequence,
        the carrier (the first of equal lengths). A forward state reads only
        the rows up to its own, so the forward direction then runs once over
        the carriers' rows and each sequence gathers its states from its
        carrier's first rows (one ``embedding_lookup``); the backward
        direction reads each sequence's later rows and runs over every
        sequence. Without keys, or with distinct ones, both directions run
        over every sequence.
        """
        lens = np.asarray(lengths, dtype=np.intp)
        keys = range(lens.size) if prefix_groups is None else prefix_groups
        if len(keys) != lens.size:
            raise ad.ShapeError(f"bi-gru forward: {len(keys)} prefix groups "
                                f"for {lens.size} sequences")
        carrier: dict = {}  # each group's carrier
        for i, key in enumerate(keys):
            if lens[i] > lens[carrier.setdefault(key, i)]:
                carrier[key] = i
        if len(carrier) == lens.size:  # every sequence carries itself
            f = ad.gru_sequence_batch(self.fwd, xs, lengths)
        else:
            carriers = np.array([carrier[key] for key in keys], dtype=np.intp)
            starts = np.cumsum(lens) - lens
            own = np.unique(carriers)  # the carriers, in stacked order
            own_lens = lens[own]
            own_starts = np.cumsum(own_lens) - own_lens
            rows = np.repeat(starts[own] - own_starts, own_lens) + np.arange(own_lens.sum())
            f_own = ad.gru_sequence_batch(self.fwd, ad.embedding_lookup(xs, rows),
                                          own_lens.tolist())
            at = np.zeros_like(lens)
            at[own] = own_starts  # each carrier's first row in f_own
            f = ad.embedding_lookup(
                f_own, np.repeat(at[carriers] - starts, lens) + np.arange(lens.sum()))
        return f, ad.gru_sequence_batch(self.bwd, xs, lengths, reverse=True)


class LanguageModel(BiGru):
    """The ``lm`` bi-GRU with next-word and previous-word softmax heads."""

    def __init__(self, store: ad.ParameterStore, dim: int, vocab_size: int):
        super().__init__(store, "lm", dim)
        bound = 1.0 / np.sqrt(dim)
        self.w_f = store.new("lm.w_f", (dim, vocab_size), bound)
        self.w_b = store.new("lm.w_b", (dim, vocab_size), bound)

    def loss(self, f: ad.Node, b: ad.Node, token_ids, lengths) -> ad.Node:
        """Next-word and previous-word loss on :meth:`forward`'s states.

        ``token_ids`` holds the vocabulary ids in the stacked layout of the
        states. The loss is a sum over sequences, not a mean; the trainer
        averages over the batch.
        """
        ids = np.asarray(token_ids, dtype=np.intp)
        if ids.shape != (f.shape[0],):
            raise ad.ShapeError(f"lm loss: {ids.shape} token ids for {f.shape[0]} rows")
        # every stacked row but each sequence's last
        rows_f = np.delete(np.arange(ids.size), np.cumsum(lengths) - 1)
        if not rows_f.size:
            return ad.Node(0.0)
        next_ce = ad.linear_cross_entropy(f, rows_f, self.w_f, ids[rows_f + 1])
        prev_ce = ad.linear_cross_entropy(b, rows_f + 1, self.w_b, ids[rows_f])
        return ad.add(next_ce, prev_ce)
