"""Composed token embeddings: a pretrained-or-random word part concatenated
with a character-n-gram part (n in {2, 3} with ^/$ boundary markers, mean
over the token's n-gram vectors). Default split 300 + 100 = 400.

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
    """Trainable table of concat(word_vector, mean char-n-gram vector)."""

    def __init__(self, store: ad.ParameterStore, vocab: Vocabulary,
                 embedding_dim: int = 400, hidden_dim: int = 400,
                 freeze_word: bool = False):
        self.vocab = vocab
        self.embedding_dim = embedding_dim
        self.word_dim, self.char_dim = split_dims(embedding_dim)
        self.freeze_word = freeze_word

        grams = sorted({g for t in vocab.content_tokens() for g in char_ngrams(t)})
        self.ngram_ids = {g: i for i, g in enumerate(grams)}

        # Row i averages token i's n-gram vectors; reserved rows stay zero.
        n_reserved = len(RESERVED_TOKENS)
        avg = np.zeros((len(vocab), max(1, len(grams))))
        for i, token in enumerate(vocab.tokens()):
            if i < n_reserved:
                continue
            ids = [self.ngram_ids[g] for g in char_ngrams(token)]
            avg[i, ids] += 1.0 / len(ids)
        self._char_avg = avg

        bound = 1.0 / np.sqrt(hidden_dim)
        self.word = store.new("embedding.word", (len(vocab), self.word_dim), bound)
        self.char = store.new("embedding.char", (avg.shape[1], self.char_dim), bound)

    def table(self) -> ad.Node:
        """The full |V| x embedding_dim table as a graph node (rebuilt per use)."""
        word = self.word if not self.freeze_word else ad.Node(self.word.value)
        char_part = ad.matmul(ad.Node(self._char_avg), self.char)
        return ad.concat(word, char_part, axis=1)

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
                    self.word.value[self.vocab.id(token)] = vec
                    if token not in RESERVED_TOKENS:
                        covered.add(token)
        return len(covered) / len(content) if content else 0.0
