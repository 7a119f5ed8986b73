import json
from pathlib import Path

import pytest

from lmdst import corpus
from lmdst.corpus import (BeliefState, CorpusFormatError, Dialogue, DialogueTurn,
                          Ontology, SynthConfig, filter_domains, generate_synthetic,
                          load_multiwoz)
from lmdst.context import build_context

FIXTURE = Path(__file__).parent / "data" / "fixture_dialogues.json"


def make_dialogue(did, domains, entries_per_turn):
    turns = []
    for i, entries in enumerate(entries_per_turn):
        state = BeliefState()
        for (domain, slot), value in entries.items():
            state.set(domain, slot, value)
        turns.append(DialogueTurn(i, "" if i == 0 else "ok .", f"turn {i} .", state))
    return Dialogue(did, set(domains), turns)


# ---------------------------------------------------------------------------
# BeliefState
# ---------------------------------------------------------------------------

def test_belief_state_normalizes_values():
    s = BeliefState()
    s.set("hotel", "area", "  East   Side ")
    assert s.get("hotel", "area") == "east side"


def test_belief_state_rejects_none_and_empty():
    s = BeliefState()
    with pytest.raises(ValueError):
        s.set("hotel", "area", "none")
    with pytest.raises(ValueError):
        s.set("hotel", "area", "   ")


def test_belief_state_json_roundtrip():
    s = BeliefState({("hotel", "area"): "east", ("train", "day"): "monday"})
    assert BeliefState.from_json(s.to_json()) == s


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def test_load_fixture_matches_hand_written_object():
    dialogues = load_multiwoz(FIXTURE)
    assert len(dialogues) == 1
    d = dialogues[0]
    assert d.id == "FIX0001.json"
    assert d.domains == {"hotel"}
    assert len(d.turns) == 2

    t0, t1 = d.turns
    assert t0.turn_index == 0
    assert t0.system_utterance == ""
    assert t0.user_utterance == "i need a hotel in the east."
    assert t0.gold_state == BeliefState({("hotel", "area"): "east"})

    assert t1.turn_index == 1
    assert t1.system_utterance == "what price range do you want?"  # whitespace collapsed
    assert t1.gold_state == BeliefState({("hotel", "area"): "east",
                                         ("hotel", "pricerange"): "cheap"})


def test_load_empty_file_gives_empty_list(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("")
    assert load_multiwoz(p) == []


def test_load_order_follows_file(tmp_path):
    data = [
        {"dialogue_idx": f"D{i}", "dialogue": [
            {"turn_idx": 0, "system_transcript": "", "transcript": "hi .",
             "belief_state": []}]}
        for i in (3, 1, 2)
    ]
    p = tmp_path / "d.json"
    p.write_text(json.dumps(data))
    assert [d.id for d in load_multiwoz(p)] == ["D3", "D1", "D2"]


@pytest.mark.parametrize("bad_turn", [
    {"turn_idx": 1, "system_transcript": "x"},
    {"turn_idx": 1, "transcript": "x", "belief_state": ["x"]},
    {"turn_idx": 1, "transcript": "x", "belief_state": None},
    {"turn_idx": 1, "transcript": "x", "belief_state": [{"slots": [["hotel-area"]]}]},
    {"turn_idx": 1, "transcript": "x",
     "belief_state": [{"slots": [["hotel-area", "east", "west"]]}]},
], ids=["no-transcript", "belief-entry-not-object", "belief-state-null", "slot-pair-of-one",
        "slot-pair-of-three"])
def test_malformed_turn_names_dialogue_and_turn(tmp_path, bad_turn):
    data = [{"dialogue_idx": "BAD42", "dialogue": [
        {"turn_idx": 0, "system_transcript": "", "transcript": "hi .", "belief_state": []},
        bad_turn,
    ]}]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    with pytest.raises(CorpusFormatError) as exc:
        load_multiwoz(p)
    assert "BAD42" in str(exc.value) and "turn 1" in str(exc.value)


@pytest.mark.parametrize("turn_idx", [0.5, 1.7, True, float("inf")],
                         ids=["half", "fraction", "true", "infinity"])
def test_non_integer_turn_idx_names_dialogue_and_turn(tmp_path, turn_idx):
    """A boolean or a non-integral turn_idx is an error, not the index
    ``int`` truncates it to; an integer or a numeric string reads as one."""
    turns = [{"turn_idx": turn_idx, "system_transcript": "", "transcript": "hi .",
              "belief_state": []},
             {"turn_idx": 5, "system_transcript": "x .", "transcript": "y .", "belief_state": []}]
    p = tmp_path / "d.json"
    p.write_text(json.dumps([{"dialogue_idx": "N1", "dialogue": turns}]))
    with pytest.raises(CorpusFormatError) as exc:
        load_multiwoz(p)
    assert str(exc.value) == (f"dialogue N1, turn 0: turn_idx must be an integer, "
                              f"got {json.dumps(turn_idx)}")
    turns[0]["turn_idx"], turns[1]["turn_idx"] = "1", 2.0
    p.write_text(json.dumps([{"dialogue_idx": "N1", "dialogue": turns}]))
    (dialogue,) = load_multiwoz(p)
    assert [t.turn_index for t in dialogue.turns] == [1, 2]


def test_empty_first_turn_names_dialogue(tmp_path):
    """Turn 0 without any utterance would give an empty context; a turn 0
    with only a system utterance loads."""
    p = tmp_path / "d.json"
    turns = [{"turn_idx": 0, "system_transcript": " ", "transcript": "  ", "belief_state": []},
             {"turn_idx": 1, "system_transcript": "x .", "transcript": "y .", "belief_state": []}]
    p.write_text(json.dumps([{"dialogue_idx": "E1", "dialogue": turns}]))
    with pytest.raises(CorpusFormatError) as exc:
        load_multiwoz(p)
    assert str(exc.value) == "dialogue E1, turn 0: no system or user utterance"
    turns[0]["system_transcript"] = "Hello ."
    p.write_text(json.dumps([{"dialogue_idx": "E1", "dialogue": turns}]))
    (dialogue,) = load_multiwoz(p)
    assert (dialogue.turns[0].system_utterance, dialogue.turns[0].user_utterance) == ("hello .", "")
    assert build_context(dialogue, 0, True).tokens == ["[sys]", "hello", "."]


@pytest.mark.parametrize("domains", [5, "hotel"], ids=["number", "string"])
def test_domains_not_a_list_of_strings_names_dialogue(tmp_path, domains):
    data = [{"dialogue_idx": "BAD7", "domains": domains, "dialogue": [
        {"turn_idx": 0, "system_transcript": "", "transcript": "hi .", "belief_state": []},
    ]}]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    with pytest.raises(CorpusFormatError, match="BAD7.*domains"):
        load_multiwoz(p)


def test_turn_list_under_another_key_names_dialogue(tmp_path):
    """The turn list is read from "dialogue" only; an undocumented alias such
    as "turns" is a format error naming the dialogue."""
    data = [{"dialogue_idx": "ALIAS3", "turns": [
        {"turn_idx": 0, "system_transcript": "", "transcript": "hi .", "belief_state": []},
    ]}]
    p = tmp_path / "alias.json"
    p.write_text(json.dumps(data))
    with pytest.raises(CorpusFormatError, match="ALIAS3.*turn list"):
        load_multiwoz(p)


@pytest.mark.parametrize("with_ontology", [False, True], ids=["no-ontology", "ontology"])
@pytest.mark.parametrize("name", ["hotelarea", "hotel-", "-area"])
def test_malformed_slot_name_names_dialogue_and_turn(tmp_path, name, with_ontology):
    """A slot name that is not 'domain-slot' is an error, not a rewritten
    key, whether or not an ontology is given."""
    data = [{"dialogue_idx": "D1", "dialogue": [
        {"turn_idx": 0, "system_transcript": "", "transcript": "hi .",
         "belief_state": [{"slots": [[name, "east"]]}]},
    ]}]
    p = tmp_path / "d.json"
    p.write_text(json.dumps(data))
    ontology = Ontology([("hotel", "area")]) if with_ontology else None
    with pytest.raises(CorpusFormatError) as exc:
        load_multiwoz(p, ontology)
    assert str(exc.value) == f"dialogue D1, turn 0: slot name {name!r} is not 'domain-slot'"


def skipped_entries(caplog) -> int:
    """The count in :func:`load_multiwoz`'s closing warning, 0 without one."""
    return sum(int(r.getMessage().split()[0]) for r in caplog.records
               if r.getMessage().endswith("entries skipped (unknown domain/slot)"))


def test_slot_name_with_a_dash_roundtrips(tmp_path, caplog):
    """A slot whose own name holds '-' reads back as the same pair from the
    dataset, the ontology file and a belief state's JSON."""
    pair = ("hotel", "book-day")
    state = BeliefState({pair: "monday"})
    assert state.to_json() == {"hotel-book-day": "monday"}
    assert BeliefState.from_json(state.to_json()) == state
    ontology = Ontology([pair, ("hotel", "area")])
    ontology.save(tmp_path / "ont.txt")
    assert Ontology.load(tmp_path / "ont.txt").domain_slots == ontology.domain_slots
    corpus.save_dialogues(tmp_path / "d.json",
                          [make_dialogue("D0", {"hotel"}, [{pair: "monday"}])])
    with caplog.at_level("WARNING", logger="lmdst.corpus"):
        dialogues = load_multiwoz(tmp_path / "d.json", ontology)
    assert skipped_entries(caplog) == 0 and dialogues[0].turns[0].gold_state == state


def test_belief_state_from_json_rejects_a_malformed_name():
    with pytest.raises(ValueError, match="slot name 'hotel' is not 'domain-slot'"):
        BeliefState.from_json({"hotel": "x"})


def test_ontology_load_rejects_a_malformed_line(tmp_path):
    p = tmp_path / "ont.txt"
    p.write_text("hotel-area\nhotelstars\n")
    with pytest.raises(ValueError) as exc:
        Ontology.load(p)
    assert str(exc.value) == f"ontology {p} line 2: slot name 'hotelstars' is not 'domain-slot'"


def test_repeated_ontology_slot_is_named():
    with pytest.raises(ValueError, match="^ontology lists slot 'hotel-area' twice$"):
        Ontology([("hotel", "area"), ("hotel", "stars"), ("hotel", "area")])


def test_ontology_load_names_a_repeated_slot_and_its_lines(tmp_path):
    p = tmp_path / "ont.txt"
    p.write_text("hotel-area\n# comment\nhotel-stars\nhotel-area\n")
    with pytest.raises(ValueError) as exc:
        Ontology.load(p)
    assert str(exc.value) == f"ontology {p} line 4: slot 'hotel-area' repeats line 1"


def test_ontology_load_names_a_file_without_slots(tmp_path):
    p = tmp_path / "ont.txt"
    p.write_text("# comment\n\n")
    with pytest.raises(ValueError) as exc:
        Ontology.load(p)
    assert str(exc.value) == f"ontology {p} lists no slot"

def test_unknown_slot_skipped_and_counted(tmp_path, caplog):
    data = [{"dialogue_idx": "D0", "dialogue": [
        {"turn_idx": 0, "system_transcript": "", "transcript": "hi .",
         "belief_state": [{"slots": [["hotel-area", "east"], ["spaceport-gate", "g7"]]}]},
    ]}]
    p = tmp_path / "d.json"
    p.write_text(json.dumps(data))
    ontology = Ontology([("hotel", "area")])
    with caplog.at_level("WARNING", logger="lmdst.corpus"):
        dialogues = load_multiwoz(p, ontology)
    assert skipped_entries(caplog) == 1
    assert dialogues[0].turns[0].gold_state == BeliefState({("hotel", "area"): "east"})
    assert any("spaceport-gate" in r.getMessage() for r in caplog.records)


def test_none_values_encode_absence(tmp_path):
    data = [{"dialogue_idx": "D0", "dialogue": [
        {"turn_idx": 0, "system_transcript": "", "transcript": "hi .",
         "belief_state": [{"slots": [["hotel-area", "none"]]}]},
    ]}]
    p = tmp_path / "d.json"
    p.write_text(json.dumps(data))
    assert len(load_multiwoz(p)[0].turns[0].gold_state) == 0


def test_save_load_roundtrip(tmp_path):
    dialogues = load_multiwoz(FIXTURE)
    out = tmp_path / "rt.json"
    corpus.save_dialogues(out, dialogues)
    again = load_multiwoz(out)
    assert [d.id for d in again] == [d.id for d in dialogues]
    assert again[0].turns[1].gold_state == dialogues[0].turns[1].gold_state


# ---------------------------------------------------------------------------
# domain filtering
# ---------------------------------------------------------------------------

def test_filter_drops_excluded_domain_dialogues():
    ds = [make_dialogue("a", {"police"}, [{("police", "name"): "station"}]),
          make_dialogue("b", {"hotel"}, [{("hotel", "area"): "east"}])]
    kept = filter_domains(ds)
    assert [d.id for d in kept] == ["b"]


def test_filter_scrubs_stray_entries():
    d = make_dialogue("a", {"hotel"}, [{("hotel", "area"): "east",
                                        ("hospital", "department"): "icu"}])
    kept = filter_domains([d])
    assert kept[0].turns[0].gold_state == BeliefState({("hotel", "area"): "east"})
    # input untouched
    assert ("hospital", "department") in d.turns[0].gold_state


def test_filter_empty_exclusion_is_identity():
    ds = [make_dialogue("a", {"police"}, [{("police", "name"): "station"}])]
    kept = filter_domains(ds, excluded=set())
    assert len(kept) == 1 and kept[0].turns[0].gold_state == ds[0].turns[0].gold_state


def test_filter_idempotent():
    ds = [make_dialogue("a", {"hotel", "police"}, [{("hotel", "area"): "east"}]),
          make_dialogue("b", {"train"}, [{("train", "day"): "monday"}])]
    once = filter_domains(ds)
    twice = filter_domains(once)
    assert [d.id for d in once] == [d.id for d in twice]
    assert all(x.turns[0].gold_state == y.turns[0].gold_state for x, y in zip(once, twice))


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

def synth(**kw):
    return generate_synthetic(SynthConfig(**kw))


def test_synth_deterministic():
    a, _ = synth(n_dialogues=20, seed=7)
    b, _ = synth(n_dialogues=20, seed=7)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.id == y.id and x.domains == y.domains
        for tx, ty in zip(x.turns, y.turns):
            assert (tx.system_utterance, tx.user_utterance) == (ty.system_utterance, ty.user_utterance)
            assert tx.gold_state == ty.gold_state


def test_synth_different_seed_differs():
    a, _ = synth(n_dialogues=20, seed=7)
    b, _ = synth(n_dialogues=20, seed=8)
    assert any(x.turns[-1].user_utterance != y.turns[-1].user_utterance for x, y in zip(a, b))


def test_synth_every_gold_value_copyable():
    """Scan oracle: every gold value token occurs in the turn's context."""
    dialogues, _ = synth(n_dialogues=40, seed=3)
    for d in dialogues:
        for i, turn in enumerate(d.turns):
            ctx = set(build_context(d, i, tagging=False).tokens)
            for value in turn.gold_state.entries().values():
                for tok in value.split():
                    assert tok in ctx, (d.id, i, value)


def test_synth_states_monotone():
    dialogues, _ = synth(n_dialogues=30, seed=5)
    for d in dialogues:
        prev = {}
        for t in d.turns:
            cur = t.gold_state.entries()
            assert all(cur.get(k) == v for k, v in prev.items())
            prev = cur


def test_synth_zero_dialogues():
    dialogues, ontology = synth(n_dialogues=0, seed=1)
    assert dialogues == []
    assert len(ontology) == 15


def test_synth_value_pool_skips_none():
    """Pool word 1519 spells "none", which encodes absence in belief states;
    the generator must skip it rather than fail to store it."""
    config = SynthConfig(vocab_size=1600, seed=15)
    dialogues, _ = generate_synthetic(config)
    values = {v for d in dialogues for t in d.turns for v in t.gold_state.entries().values()}
    assert dialogues and "none" not in values
    assert all("none" not in pool for pool in corpus._value_pools(config).values())


def test_synth_vocab_too_small():
    """Every slot needs a value word of its own; the config says so when built."""
    with pytest.raises(ValueError, match="^vocab_size 10 too small to cover 15 slots$"):
        SynthConfig(vocab_size=10)
    assert SynthConfig(vocab_size=15).vocab_size == 15


def test_synth_config_checked_when_built():
    with pytest.raises(ValueError, match="max_turns"):
        SynthConfig(max_turns=0)


def test_synth_ontology_consistent():
    config = SynthConfig(n_dialogues=25, seed=11)
    dialogues, ontology = generate_synthetic(config)
    pools = corpus._value_pools(config)
    assert list(pools) == ontology.domain_slots
    for d in dialogues:
        for t in d.turns:
            for pair, value in t.gold_state.entries().items():
                assert pair in pools
                assert value in pools[pair] or value == "dontcare"


def test_synth_dontcare_rate():
    dialogues, _ = synth(n_dialogues=60, seed=2, dontcare_rate=0.3)
    values = [v for d in dialogues for t in d.turns for v in t.gold_state.entries().values()]
    assert "dontcare" in values


def test_mean_speaker_turns():
    d = make_dialogue("a", {"hotel"}, [{}, {}])  # sys empty at turn 0
    assert corpus.mean_speaker_turns([d]) == pytest.approx(3.0)
    assert corpus.mean_speaker_turns([]) == 0.0


def test_ontology_file_roundtrip(tmp_path):
    ontology = Ontology([("hotel", "area"), ("hotel", "book stay"), ("train", "day")])
    p = tmp_path / "ont.txt"
    ontology.save(p)
    again = Ontology.load(p)
    assert again.domain_slots == ontology.domain_slots


def test_packaged_multiwoz_ontology():
    path = Path(corpus.__file__).parent / "data" / "multiwoz_ontology.txt"
    ontology = Ontology.load(path)
    assert 30 <= len(ontology) <= 35
    assert {d for d, _ in ontology.domain_slots} == {"attraction", "hotel", "restaurant",
                                                     "taxi", "train"}
    keys = [f"{d}-{s}" for d, s in ontology.domain_slots]
    assert keys == sorted(keys)
