"""Dialogue corpus handling: loading, domain filtering, synthetic generation.

The on-disk dataset format is the per-turn annotated one (see README):
a JSON array of dialogues, each with "dialogue_idx" and a "dialogue" array
of turns carrying "turn_idx", "system_transcript", "transcript" and a
cumulative "belief_state". Values are normalized to lowercase with collapsed
whitespace; a value of "none" encodes absence and is never stored.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass

import numpy as np

log = logging.getLogger("lmdst.corpus")

DEFAULT_EXCLUDED_DOMAINS = frozenset({"hospital", "police"})

_WS = re.compile(r"\s+")


class CorpusFormatError(ValueError):
    """Malformed dataset record (message carries dialogue id and turn index)."""


def normalize_value(value: str) -> str:
    return _WS.sub(" ", str(value).strip().lower())


def split_slot_key(key: str) -> tuple[str, str]:
    """``(domain, slot)`` of a ``domain-slot`` name, split at the first ``-``.

    The dataset, the ontology file, the prediction dump and a checkpoint's
    metadata all name a slot this way; both parts must be non-empty.
    """
    domain, _, slot = key.partition("-")
    if not domain or not slot:
        raise ValueError(f"slot name {key!r} is not 'domain-slot'")
    return domain, slot


class BeliefState:
    """Map from (domain, slot) to a normalized value string.

    Absence encodes the value "none"; storing "none" or an empty value is an
    error so that equality between states is well-defined.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: dict[tuple[str, str], str] | None = None):
        self._entries: dict[tuple[str, str], str] = {}
        if entries:
            for (domain, slot), value in entries.items():
                self.set(domain, slot, value)

    def set(self, domain: str, slot: str, value: str) -> None:
        value = normalize_value(value)
        if not value or value == "none":
            raise ValueError(f"belief state value for ({domain}, {slot}) must be a real value")
        self._entries[(domain, slot)] = value

    def get(self, domain: str, slot: str) -> str | None:
        return self._entries.get((domain, slot))

    def entries(self) -> dict[tuple[str, str], str]:
        return dict(self._entries)

    def domains(self) -> set[str]:
        return {domain for domain, _ in self._entries}

    def without_domains(self, domains) -> "BeliefState":
        out = BeliefState()
        for (domain, slot), value in self._entries.items():
            if domain not in domains:
                out._entries[(domain, slot)] = value
        return out

    def copy(self) -> "BeliefState":
        out = BeliefState()
        out._entries = dict(self._entries)
        return out

    def to_json(self) -> dict[str, str]:
        return {f"{domain}-{slot}": value for (domain, slot), value in sorted(self._entries.items())}

    @classmethod
    def from_json(cls, obj: dict[str, str]) -> "BeliefState":
        if not isinstance(obj, dict):
            raise TypeError(f"belief state is {type(obj).__name__}, not a JSON object")
        return cls({split_slot_key(key): value for key, value in obj.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, BeliefState) and self._entries == other._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        return f"BeliefState({self._entries!r})"


@dataclass
class DialogueTurn:
    turn_index: int
    system_utterance: str
    user_utterance: str
    gold_state: BeliefState  # cumulative up to and including this turn


@dataclass
class Dialogue:
    id: str
    domains: set[str]
    turns: list[DialogueTurn]


@dataclass
class Ontology:
    """Ordered (domain, slot) list; order is the decoder's iteration order.
    An ontology lists at least one slot."""

    domain_slots: list[tuple[str, str]]

    def __post_init__(self):
        if not self.domain_slots:
            raise ValueError("ontology lists no slot")
        if len(set(self.domain_slots)) != len(self.domain_slots):
            domain, slot = next(pair for i, pair in enumerate(self.domain_slots)
                                if pair in self.domain_slots[:i])
            raise ValueError(f"ontology lists slot '{domain}-{slot}' twice")

    def __len__(self) -> int:
        return len(self.domain_slots)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for domain, slot in self.domain_slots:
                f.write(f"{domain}-{slot}\n")

    @classmethod
    def load(cls, path) -> "Ontology":
        line_of: dict[tuple[str, str], int] = {}  # each pair's line, in file order
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    pair = split_slot_key(line)
                except ValueError as exc:
                    raise ValueError(f"ontology {path} line {line_no}: {exc}") from exc
                if pair in line_of:
                    raise ValueError(f"ontology {path} line {line_no}: slot '{line}' "
                                     f"repeats line {line_of[pair]}")
                line_of[pair] = line_no
        if not line_of:
            raise ValueError(f"ontology {path} lists no slot")
        return cls(list(line_of))


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def load_multiwoz(path, ontology: Ontology | None = None) -> list[Dialogue]:
    """Load a per-turn annotated dataset file (order follows the file).

    Belief-state entries naming a (domain, slot) outside ``ontology`` are
    skipped, each with a warning, and a last warning gives their count;
    structural problems, a slot name that is not ``domain-slot`` among them,
    raise :class:`CorpusFormatError` naming the dialogue and turn, and so
    does a first turn without any utterance, whose context would be empty.
    """
    with open(path, encoding="utf-8") as f:
        content = f.read().strip()
    if not content:
        return []
    raw = json.loads(content)
    if not isinstance(raw, list):
        raise CorpusFormatError("dataset root must be a JSON array of dialogues")

    valid = set(ontology.domain_slots) if ontology is not None else None
    dialogues: list[Dialogue] = []
    skipped = 0
    for d_pos, d in enumerate(raw):
        if not isinstance(d, dict):
            raise CorpusFormatError(f"dialogue #{d_pos}: not an object")
        did = str(d.get("dialogue_idx", f"#{d_pos}"))
        turns_raw = d.get("dialogue")
        if not isinstance(turns_raw, list) or not turns_raw:
            raise CorpusFormatError(f"dialogue {did}: missing or empty turn list")
        turns: list[DialogueTurn] = []
        prev_idx = -1
        for t_pos, t in enumerate(turns_raw):
            if not isinstance(t, dict):
                raise CorpusFormatError(f"dialogue {did}, turn {t_pos}: not an object")
            try:
                turn_idx = int(t["turn_idx"])
                system = str(t.get("system_transcript", ""))
                user = str(t["transcript"])
                pairs = [(split_slot_key(str(name)), value) for entry in t["belief_state"]
                         for name, value in entry.get("slots", [])]
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise CorpusFormatError(f"dialogue {did}, turn {t_pos}: {exc}") from exc
            if turn_idx <= prev_idx:
                raise CorpusFormatError(
                    f"dialogue {did}, turn {t_pos}: turn_idx {turn_idx} not increasing")
            prev_idx = turn_idx
            state = BeliefState()
            for (domain, slot), value in pairs:
                value = normalize_value(value)
                if not value or value == "none":
                    continue
                if valid is not None and (domain, slot) not in valid:
                    skipped += 1
                    log.warning("dialogue %s turn %s: unknown slot %s-%s skipped",
                                did, turn_idx, domain, slot)
                    continue
                state.set(domain, slot, value)
            turns.append(DialogueTurn(turn_idx, normalize_value(system),
                                      normalize_value(user), state))
        if not (turns[0].system_utterance or turns[0].user_utterance):  # every context has turn 0
            raise CorpusFormatError(f"dialogue {did}, turn 0: no system or user utterance")
        listed = d.get("domains", [])
        if not isinstance(listed, list) or not all(isinstance(x, str) for x in listed):
            raise CorpusFormatError(f"dialogue {did}: domains must be a list of strings, "
                                    f"got {listed!r}")
        domains = set(listed) or {dom for t in turns for dom in t.gold_state.domains()}
        dialogues.append(Dialogue(did, domains, turns))
    if skipped:
        log.warning("%d belief-state entries skipped (unknown domain/slot)", skipped)
    return dialogues


def save_dialogues(path, dialogues: list[Dialogue]) -> None:
    """Write dialogues back out in the dataset format (normalized)."""
    out = []
    for d in dialogues:
        out.append({
            "dialogue_idx": d.id,
            "domains": sorted(d.domains),
            "dialogue": [
                {
                    "turn_idx": t.turn_index,
                    "system_transcript": t.system_utterance,
                    "transcript": t.user_utterance,
                    "belief_state": [
                        {"slots": [[f"{domain}-{slot}", value]], "act": "inform"}
                        for (domain, slot), value in sorted(t.gold_state.entries().items())
                    ],
                }
                for t in d.turns
            ],
        })
    with open(path, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1, sort_keys=True)


def mean_speaker_turns(dialogues: list[Dialogue]) -> float:
    """Average number of speaker utterances per dialogue (empty ones excluded)."""
    if not dialogues:
        return 0.0
    total = sum(
        sum(1 for t in d.turns if t.system_utterance) + sum(1 for t in d.turns if t.user_utterance)
        for d in dialogues)
    return total / len(dialogues)


# ---------------------------------------------------------------------------
# domain filtering
# ---------------------------------------------------------------------------

def filter_domains(dialogues: list[Dialogue], excluded=DEFAULT_EXCLUDED_DOMAINS) -> list[Dialogue]:
    """Drop dialogues touching an excluded domain; scrub stray state entries.

    Idempotent and pure: input dialogues are not mutated.
    """
    excluded = set(excluded)
    kept: list[Dialogue] = []
    for d in dialogues:
        if d.domains & excluded:
            continue
        turns = [DialogueTurn(t.turn_index, t.system_utterance, t.user_utterance,
                              t.gold_state.without_domains(excluded))
                 for t in d.turns]
        kept.append(Dialogue(d.id, set(d.domains) - excluded, turns))
    return kept


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    n_dialogues: int = 500
    n_domains: int = 5
    n_slots_per_domain: int = 3
    vocab_size: int = 150  # size of the value-word pool
    max_turns: int = 4
    seed: int = 13
    dontcare_rate: float = 0.0  # "dontcare" values are gate-level, not copyable

    def __post_init__(self) -> None:
        for name in ("n_dialogues", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("n_domains", "n_slots_per_domain", "vocab_size", "max_turns"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.dontcare_rate < 1.0:
            raise ValueError("dontcare_rate must be in [0, 1)")
        n_slots = self.n_domains * self.n_slots_per_domain
        if self.vocab_size < n_slots:  # each slot needs a value word of its own
            raise ValueError(f"vocab_size {self.vocab_size} too small to cover {n_slots} slots")


_DOMAIN_WORDS = ["hotel", "restaurant", "train", "attraction", "taxi",
                 "flight", "museum", "bus", "cinema", "hospitality"]
_SLOT_WORDS = ["price", "area", "food", "stars", "parking", "day", "time",
               "people", "type", "name", "internet", "postcode", "phone",
               "address", "departure", "destination", "rating", "duration",
               "distance", "category"]
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

_USER_TEMPLATES = [
    "i want {v} {s} .",
    "i need {v} {s} .",
    "i would like {v} {s} please .",
    "give me {v} {s} .",
]
_SYSTEM_CONFIRM = [
    "you want {v} {s} ?",
    "okay {v} {s} .",
    "so {v} {s} then ?",
]
_SYSTEM_FILLER = ["anything else ?", "how can i help ?", "what else do you need ?"]
_USER_FILLER = ["that is all thank you .", "no that is everything ."]


def _value_word(index: int) -> str:
    """Deterministic pronounceable pseudo-word for a pool index."""
    n_c, n_v = len(_CONSONANTS), len(_VOWELS)
    i = index
    a = _CONSONANTS[i % n_c]; i //= n_c
    b = _VOWELS[i % n_v]; i //= n_v
    c = _CONSONANTS[i % n_c]; i //= n_c
    d = _VOWELS[i % n_v]; i //= n_v
    word = a + b + c + d
    while i:
        word += _CONSONANTS[i % n_c]
        i //= n_c
    return word


def _slot_name(flat_index: int) -> str:
    if flat_index < len(_SLOT_WORDS):
        return _SLOT_WORDS[flat_index]
    return f"slot{flat_index}"


def _domain_name(index: int) -> str:
    if index < len(_DOMAIN_WORDS):
        return _DOMAIN_WORDS[index]
    return f"domain{index}"


def _value_pools(config: SynthConfig) -> dict[tuple[str, str], list[str]]:
    """Each (domain, slot)'s synthetic value words, in ontology order."""
    n_slots = config.n_domains * config.n_slots_per_domain
    # "none" is how belief states spell an absent value, never a value word
    reserved = {"none"} | set(_DOMAIN_WORDS[:config.n_domains]) | {
        _slot_name(i) for i in range(n_slots)}
    pool: list[str] = []
    i = 0
    while len(pool) < config.vocab_size:
        w = _value_word(i)
        i += 1
        if w not in reserved:
            pool.append(w)

    per_slot = config.vocab_size // n_slots
    return {(_domain_name(flat // config.n_slots_per_domain), _slot_name(flat)):
            pool[flat * per_slot:(flat + 1) * per_slot] for flat in range(n_slots)}


def generate_synthetic(config: SynthConfig) -> tuple[list[Dialogue], Ontology]:
    """Deterministic template corpus where every gold value is copyable.

    Users introduce new slot values ("i want <value> <slot> ."), systems
    confirm previously given ones, and states accumulate monotonically, so
    each turn's gold values all appear in its concatenated context.
    """
    rng = np.random.default_rng(config.seed)
    pools = _value_pools(config)
    ontology = Ontology(list(pools))

    dialogues: list[Dialogue] = []
    for dlg_i in range(config.n_dialogues):
        n_dlg_domains = int(rng.integers(1, min(2, config.n_domains) + 1))
        dlg_domain_idx = rng.choice(config.n_domains, size=n_dlg_domains, replace=False)
        open_slots = [pair for pair in ontology.domain_slots
                      if pair[0] in {_domain_name(int(i)) for i in dlg_domain_idx}]
        rng.shuffle(open_slots)
        n_turns = int(rng.integers(min(2, config.max_turns), config.max_turns + 1))

        state = BeliefState()
        turns: list[DialogueTurn] = []
        for turn_i in range(n_turns):
            if turn_i == 0:
                system = ""
            elif len(state) and rng.random() < 0.8:
                (domain, slot), value = sorted(state.entries().items())[
                    int(rng.integers(0, len(state)))]
                system = _SYSTEM_CONFIRM[int(rng.integers(0, len(_SYSTEM_CONFIRM)))].format(
                    v=value, s=slot)
            else:
                system = _SYSTEM_FILLER[int(rng.integers(0, len(_SYSTEM_FILLER)))]

            n_new = int(rng.integers(1, 3)) if open_slots else 0
            mentions = []
            for _ in range(min(n_new, len(open_slots))):
                domain, slot = open_slots.pop()
                if config.dontcare_rate and rng.random() < config.dontcare_rate:
                    state.set(domain, slot, "dontcare")
                    mentions.append(f"any {slot} is fine , i dont mind .")
                else:
                    values = pools[(domain, slot)]
                    value = values[int(rng.integers(0, len(values)))]
                    state.set(domain, slot, value)
                    tmpl = _USER_TEMPLATES[int(rng.integers(0, len(_USER_TEMPLATES)))]
                    mentions.append(tmpl.format(v=value, s=slot))
            if mentions:
                user = " ".join(mentions)
            else:
                user = _USER_FILLER[int(rng.integers(0, len(_USER_FILLER)))]
            turns.append(DialogueTurn(turn_i, system, user, state.copy()))

        dialogues.append(Dialogue(
            f"synth{dlg_i:05d}",
            {_domain_name(int(i)) for i in dlg_domain_idx},
            turns))
    return dialogues, ontology
