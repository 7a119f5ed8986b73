"""Seeded MultiWOZ-shaped corpus for the ``infer-woz`` workload.

MultiWOZ-scale traffic (TRADE, Wu et al. 2019) has a vocabulary of about
6k words, 15 informable slots in five domains and contexts that pass 300
tokens. The acceptance corpus from ``generate_synthetic`` never gets there
(|V| about 200, mean context 25 tokens), so this module writes its own
dialogues with the public ``Dialogue``/``DialogueTurn``/``BeliefState``
types: random-letter words, one new slot value per user turn, and filler
long enough that the untagged contexts of one dialogue fill all four
``length_bucket`` ranges.

Dialogues come in fixed groups whose turns add up to one ``predict_instances``
chunk (16 turns), so every timed call does the same amount of work.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from lmdst import (BeliefState, Dialogue, DialogueTurn, Ontology, build_context,
                   length_bucket)
from lmdst.context import BUCKET_LABELS, RESERVED_TOKENS, tokenize

DOMAIN_SLOTS = (
    ("hotel", "pricerange"), ("hotel", "area"), ("hotel", "stars"),
    ("restaurant", "food"), ("restaurant", "area"), ("restaurant", "booktime"),
    ("train", "departure"), ("train", "destination"), ("train", "leaveat"),
    ("attraction", "type"), ("attraction", "name"), ("attraction", "area"),
    ("taxi", "departure"), ("taxi", "destination"), ("taxi", "arriveby"),
)
USER_TEMPLATES = ("i want {v} for the {s} .", "the {s} should be {v} .",
                  "i need {v} {s} please .")
SYSTEM_TEMPLATES = ("okay , {v} for the {s} ?", "so the {s} is {v} ?")
LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))

N_DIALOGUES = 96
TURNS_PER_DIALOGUE = 8
DIALOGUES_PER_GROUP = 2   # 2 x 8 turns = one predict_instances chunk of 16
WORD_POOL = 5940          # random-letter words; |V| lands near 6k
VALUES_PER_SLOT = 24
USER_FILLER = (14, 22)    # filler words per utterance, half-open ranges;
SYSTEM_FILLER = (16, 24)  # about 44 tokens a turn, so turn 7 passes 300


def _template_words() -> set[str]:
    words = set(RESERVED_TOKENS) | {"none", "dontcare"}
    for text in USER_TEMPLATES + SYSTEM_TEMPLATES:
        words.update(tokenize(text.format(v="", s="")))
    for domain, slot in DOMAIN_SLOTS:
        words.update((domain, slot))
    return words


def _word_pool(rng: np.random.Generator, size: int) -> list[str]:
    """``size`` distinct lowercase words of 3-8 random letters, in random
    order; template, slot and reserved words are never drawn."""
    banned = _template_words()
    seen: set[str] = set()
    pool: list[str] = []
    while len(pool) < size:
        word = "".join(rng.choice(LETTERS, int(rng.integers(3, 9))))
        if word not in banned and word not in seen:
            seen.add(word)
            pool.append(word)
    return pool


def generate(seed: int):
    """Returns (dialogues, ontology, groups); ``groups`` lists the dialogues
    of each fixed group in order. Same seed, same corpus."""
    rng = np.random.default_rng(seed)
    pool = _word_pool(rng, WORD_POOL)
    ontology = Ontology(list(DOMAIN_SLOTS))

    # Slot values: one or two pool words, distinct within a slot.
    values: dict[tuple[str, str], list[str]] = {}
    for pair in DOMAIN_SLOTS:
        chosen: list[str] = []
        while len(chosen) < VALUES_PER_SLOT:
            n_words = int(rng.integers(1, 3))
            value = " ".join(pool[int(i)] for i in rng.integers(0, len(pool), n_words))
            if value not in chosen:
                chosen.append(value)
        values[pair] = chosen

    # Filler is dealt from the shuffled pool in turn, so every pool word
    # occurs and the vocabulary size is set by WORD_POOL.
    cursor = 0

    def filler(bounds: tuple[int, int]) -> list[str]:
        nonlocal cursor
        n = int(rng.integers(*bounds))
        words = [pool[(cursor + k) % len(pool)] for k in range(n)]
        cursor += n
        return words

    dialogues: list[Dialogue] = []
    for d_i in range(N_DIALOGUES):
        order = rng.permutation(len(DOMAIN_SLOTS))[:TURNS_PER_DIALOGUE]
        state = BeliefState()
        turns: list[DialogueTurn] = []
        last: tuple[str, str, str] | None = None
        for t_i, slot_i in enumerate(order):
            system = ""
            if t_i:
                words = filler(SYSTEM_FILLER)
                tmpl = SYSTEM_TEMPLATES[int(rng.integers(0, len(SYSTEM_TEMPLATES)))]
                system = " ".join(words) + " . " + tmpl.format(v=last[2], s=last[1])
            domain, slot = DOMAIN_SLOTS[int(slot_i)]
            slot_values = values[(domain, slot)]
            value = slot_values[int(rng.integers(0, len(slot_values)))]
            state.set(domain, slot, value)
            tmpl = USER_TEMPLATES[int(rng.integers(0, len(USER_TEMPLATES)))]
            user = " ".join(filler(USER_FILLER)) + " . " + tmpl.format(v=value, s=slot)
            turns.append(DialogueTurn(t_i, system, user, state.copy()))
            last = (domain, slot, value)
        dialogues.append(Dialogue(f"woz{d_i:04d}", state.domains(), turns))

    k = DIALOGUES_PER_GROUP
    groups = [dialogues[lo:lo + k] for lo in range(0, len(dialogues) - k + 1, k)]
    return dialogues, ontology, groups


def bucket_population(dialogues: list[Dialogue]) -> dict[str, int]:
    """Turn instances per untagged context-length bucket; raises if a
    bucket is empty, since then the corpus misses a length regime."""
    counts = Counter(length_bucket(build_context(d, t, tagging=False).length)
                     for d in dialogues for t in range(len(d.turns)))
    population = {label: counts.get(label, 0) for label in BUCKET_LABELS}
    empty = [label for label, n in population.items() if n == 0]
    if empty:
        raise ValueError(f"woz corpus leaves length buckets {empty} empty: {population}")
    return population
