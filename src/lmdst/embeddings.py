"""Composed token embeddings: a pretrained-or-random word part concatenated
with a character-n-gram part. Default split 300 + 100 = 400.

The char part of a token sums the vectors of its distinct n-grams (n in
{2, 3} over ^token$, with boundary markers), each weighted 1 / (number of
n-grams, repeats included). That is the mean over the token's n-grams when
none repeats; a repeated n-gram (``aa`` in ``aaa``) counts once, so the
weights of such a token sum to less than 1. The table is built sparsely, by
one gather and one segment sum over the n-gram rows (as fastText builds its
subword vectors), with no |V| x n-grams matrix.

Reserved symbols (<pad>, <unk>, tags, ...) have a zero character part; the
<pad> row therefore keeps the documented all-zero char half.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .context import RESERVED_TOKENS, Vocabulary


class VectorFileError(ValueError):
    """Pretrained-vector file problem (message names the line number)."""


def char_ngrams(token: str) -> list[str]:
    """Bigrams and trigrams of ^token$ in order."""
    s = f"^{token}$"
    grams = [s[i:i + 2] for i in range(len(s) - 1)]
    grams += [s[i:i + 3] for i in range(len(s) - 2)]
    return grams


def split_dims(embedding_dim: int) -> tuple[int, int]:
    """Word/char split: char part is a quarter of the total (400 -> 300+100)."""
    if embedding_dim < 2:
        raise ValueError("embedding_dim must be >= 2")
    char_dim = max(1, embedding_dim // 4)
    return embedding_dim - char_dim, char_dim


class CompositeEmbedding:
    """Trainable table of concat(word_vector, weighted char-n-gram sum)."""

    def __init__(self, store: ad.ParameterStore, vocab: Vocabulary,
                 embedding_dim: int, freeze_word: bool):
        self.vocab = vocab
        self.embedding_dim = embedding_dim
        self.word_dim, self.char_dim = split_dims(embedding_dim)

        grams = sorted({g for t in vocab.content_tokens() for g in char_ngrams(t)})
        self.ngram_ids = {g: i for i, g in enumerate(grams)}

        # Row i: token i's distinct n-gram ids and its weight (see the module
        # docstring); reserved rows have no n-grams and stay zero.
        n_reserved = len(RESERVED_TOKENS)
        ids: list[int] = []
        counts = np.zeros(len(vocab), dtype=np.intp)
        self._ngram_weights = np.zeros(len(vocab))
        for i, token in enumerate(vocab.tokens()):
            if i < n_reserved:
                continue
            token_grams = char_ngrams(token)
            distinct = sorted({self.ngram_ids[g] for g in token_grams})
            ids.extend(distinct)
            counts[i] = len(distinct)
            self._ngram_weights[i] = 1.0 / len(token_grams)
        self._ngram_index = np.array(ids, dtype=np.intp)
        self._ngram_offsets = np.concatenate([[0], np.cumsum(counts)])
        self._ngram_grouping = ad.segment_grouping(self._ngram_index, self._ngram_offsets)

        bound = 1.0 / np.sqrt(embedding_dim)
        self.word = store.new("embedding.word", (len(vocab), self.word_dim), bound)
        self.word.requires_grad = not freeze_word
        self.char = store.new("embedding.char", (max(1, len(grams)), self.char_dim), bound)

    def table(self) -> ad.Node:
        """The full |V| x embedding_dim table as a graph node (rebuilt per use)."""
        char_part = ad.gather_segment_sum(self.char, self._ngram_index, self._ngram_offsets,
                                          self._ngram_weights, self._ngram_grouping)
        return ad.concat(self.word, char_part, axis=1)

    def load_pretrained_vectors(self, path) -> float:
        """Overwrite word rows from a GloVe-format text file.

        Returns the fraction of content tokens (reserved symbols excluded)
        that the file covered; uncovered rows stay randomly initialized and
        trainable.
        """
        content = self.vocab.content_tokens()
        covered: set[str] = set()
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, start=1):
                parts = line.rstrip("\n").split(" ")
                if len(parts) <= 1 and not parts[0]:
                    continue
                token, values = parts[0], parts[1:]
                if len(values) != self.word_dim:
                    raise VectorFileError(
                        f"line {line_no}: expected {self.word_dim} values, got {len(values)}")
                if token in self.vocab:
                    try:
                        vec = np.array([float(v) for v in values])
                    except ValueError as exc:
                        raise VectorFileError(f"line {line_no}: {exc}") from exc
                    if not np.isfinite(vec).all():
                        raise VectorFileError(f"line {line_no}: non-finite value for {token!r}")
                    self.word.value[self.vocab.id(token)] = vec
                    if token not in RESERVED_TOKENS:
                        covered.add(token)
        return len(covered) / len(content) if content else 0.0
