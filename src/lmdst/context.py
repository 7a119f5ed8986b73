"""Dialogue-context construction: tokenization, speaker tags, vocabulary,
and the context-length statistics used by the analysis reports.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .corpus import Dialogue

PAD, UNK, SOS, EOS = "<pad>", "<unk>", "<sos>", "<eos>"
SYS_TAG, USR_TAG = "[sys]", "[usr]"

# Reserved block, in id order. [sys]/[usr] are ordinary vocabulary symbols
# and are present even when tagging is disabled, so ids are stable across
# ablations.
RESERVED_TOKENS = (PAD, UNK, SOS, EOS, SYS_TAG, USR_TAG)

BUCKET_LABELS = ("0-99", "100-199", "200-299", ">=300")

_TERMINAL_PUNCT = set(".,!?;:")


def tokenize(utterance: str) -> list[str]:
    """Lowercase, split on whitespace, peel terminal punctuation into its
    own tokens. Idempotent on its own joined output."""
    out: list[str] = []
    for chunk in utterance.lower().split():
        tail: list[str] = []
        while len(chunk) > 1 and chunk[-1] in _TERMINAL_PUNCT:
            tail.append(chunk[-1])
            chunk = chunk[:-1]
        if chunk:
            out.append(chunk)
        out.extend(reversed(tail))
    return out


@dataclass
class ContextSequence:
    """Concatenated prior utterances as tokens, with tag bookkeeping."""

    tokens: list[str]
    tag_positions: list[int] = field(default_factory=list)

    @property
    def length(self) -> int:
        return len(self.tokens)

    @property
    def untagged_length(self) -> int:
        return len(self.tokens) - len(self.tag_positions)

    def strip_tags(self) -> "ContextSequence":
        drop = set(self.tag_positions)
        return ContextSequence([t for i, t in enumerate(self.tokens) if i not in drop])


def build_context(dialogue: Dialogue, up_to_turn: int, tagging: bool) -> ContextSequence:
    """Concatenate (system, user) utterances for turns 0..up_to_turn.

    Empty utterances are skipped entirely (in particular the empty system
    utterance at turn 0, so no dangling [sys] tag appears). With tagging,
    each included system utterance is preceded by [sys] and each user
    utterance by [usr].
    """
    if not 0 <= up_to_turn < len(dialogue.turns):
        raise IndexError(
            f"turn {up_to_turn} out of range for dialogue {dialogue.id} "
            f"({len(dialogue.turns)} turns)")
    tokens: list[str] = []
    tag_positions: list[int] = []
    for turn in dialogue.turns[:up_to_turn + 1]:
        for tag, utterance in ((SYS_TAG, turn.system_utterance), (USR_TAG, turn.user_utterance)):
            words = tokenize(utterance)
            if not words:
                continue
            if tagging:
                tag_positions.append(len(tokens))
                tokens.append(tag)
            tokens.extend(words)
    return ContextSequence(tokens, tag_positions)


class Vocabulary:
    """Token <-> id map with a fixed reserved block (see RESERVED_TOKENS)."""

    def __init__(self, tokens: list[str] | None = None):
        # A repeated token keeps its first id.
        self._id_to_token: list[str] = list(dict.fromkeys([*RESERVED_TOKENS, *(tokens or [])]))
        self._token_to_id: dict[str, int] = {t: i for i, t in enumerate(self._id_to_token)}

    def id(self, token: str) -> int:
        return self._token_to_id.get(token, self._token_to_id[UNK])

    def token(self, idx: int) -> str:
        return self._id_to_token[idx]

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def __len__(self) -> int:
        return len(self._id_to_token)

    def tokens(self) -> list[str]:
        return list(self._id_to_token)

    def content_tokens(self) -> list[str]:
        return self._id_to_token[len(RESERVED_TOKENS):]


def build_vocabulary(dialogues: list[Dialogue], min_count: int = 1) -> Vocabulary:
    """Vocabulary over utterance tokens and gold-value tokens.

    Each dialogue contributes each distinct (domain, slot, value) triple
    once, so cumulative states do not inflate counts. Content tokens are
    ordered by descending frequency, ties alphabetical.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: Counter[str] = Counter()
    for d in dialogues:
        for t in d.turns:
            counts.update(tokenize(t.system_utterance))
            counts.update(tokenize(t.user_utterance))
        triples = {(pair, value) for t in d.turns for pair, value in t.gold_state.entries().items()}
        for _, value in triples:
            counts.update(tokenize(value))
    kept = sorted((t for t, c in counts.items() if c >= min_count and t not in RESERVED_TOKENS),
                  key=lambda t: (-counts[t], t))
    return Vocabulary(kept)


def length_bucket(length: int) -> str:
    """Half-open context-length buckets [0,100), [100,200), [200,300), [300,inf)."""
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return BUCKET_LABELS[min(length // 100, len(BUCKET_LABELS) - 1)]


def context_length_stats(dialogues: list[Dialogue]) -> dict:
    """Untagged context-length statistics over all per-turn instances."""
    lengths = [build_context(d, i, tagging=False).length
               for d in dialogues for i in range(len(d.turns))]
    buckets = {label: 0 for label in BUCKET_LABELS}
    for n in lengths:
        buckets[length_bucket(n)] += 1
    total = len(lengths)
    return {
        "instances": total,
        "max_length": max(lengths) if lengths else 0,
        "fraction_ge_200": (sum(1 for n in lengths if n >= 200) / total) if total else 0.0,
        "bucket_counts": buckets,
    }
