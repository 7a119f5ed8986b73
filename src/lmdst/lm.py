"""Bi-directional GRU language model over the embedded dialogue context.

Forward hidden states predict the next word, backward states the previous
word, each through its own softmax projection. The loss of one sequence is
the sum of both negative log-likelihood chains:

    loss = - sum_{t=1}^{T-1} log P(w_{t+1} | forward state t)
           - sum_{t=2}^{T}   log P(w_{t-1} | backward state t)

(1-indexed; a length-1 sequence has loss exactly 0, and no begin-of-sequence
token is prepended). The LM is an auxiliary training task: prediction reads
only its states, which the model fuses with the embeddings. The two passes
are therefore separate. :meth:`LanguageModel.forward` runs a micro-batch of
sequences stacked back to back through one batched recurrence per
direction and returns the directional states; :meth:`LanguageModel.loss`
builds the two |V|-wide heads on those states and sums the loss over the
sequences, and only the training loss calls it. A single sequence is the
batch ``lengths=[T]``.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


class LanguageModel:
    """Shared bi-GRU with next-word and previous-word softmax heads."""

    def __init__(self, store: ad.ParameterStore, input_dim: int, hidden_dim: int,
                 vocab_size: int):
        self.hidden_dim = hidden_dim
        self.vocab_size = vocab_size
        self.fwd = ad.GruCell(store, "lm.fwd", input_dim, hidden_dim)
        self.bwd = ad.GruCell(store, "lm.bwd", input_dim, hidden_dim)
        bound = 1.0 / np.sqrt(hidden_dim)
        self.w_f = store.new("lm.w_f", (hidden_dim, vocab_size), bound)
        self.w_b = store.new("lm.w_b", (hidden_dim, vocab_size), bound)

    def forward(self, xs: ad.Node, lengths) -> tuple[ad.Node, ad.Node]:
        """(forward states, backward states) for stacked sequences.

        ``xs`` holds the embedded sequences back to back: rows ``offset_i ..
        offset_i + lengths[i]`` belong to sequence i.
        """
        return (ad.gru_sequence_batch(self.fwd, xs, lengths),
                ad.gru_sequence_batch(self.bwd, xs, lengths, reverse=True))

    def loss(self, f: ad.Node, b: ad.Node, token_ids, lengths) -> ad.Node:
        """Next-word and previous-word loss on :meth:`forward`'s states.

        ``token_ids`` holds the vocabulary ids in the stacked layout of the
        states. The loss is a sum over sequences, not a mean; the trainer
        averages over the batch.
        """
        ids = np.asarray(token_ids, dtype=np.intp)
        if ids.shape != (f.shape[0],):
            raise ad.ShapeError(f"lm loss: {ids.shape} token ids for {f.shape[0]} rows")
        offsets = np.concatenate([[0], np.cumsum(lengths)])[:-1]
        rows_f = np.concatenate([off + np.arange(n - 1)
                                 for off, n in zip(offsets, lengths)]).astype(np.intp)
        if not rows_f.size:
            return ad.Node(0.0)
        next_ce = ad.cross_entropy_rows(
            ad.matmul(ad.embedding_lookup(f, rows_f), self.w_f), ids[rows_f + 1])
        prev_ce = ad.cross_entropy_rows(
            ad.matmul(ad.embedding_lookup(b, rows_f + 1), self.w_b), ids[rows_f])
        return ad.add(next_ce, prev_ce)
