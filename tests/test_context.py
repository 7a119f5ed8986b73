from pathlib import Path

import pytest

from lmdst import context as ctx
from lmdst.context import (BUCKET_LABELS, Vocabulary, build_context,
                           build_vocabulary, length_bucket, tokenize)
from lmdst.corpus import BeliefState, Dialogue, DialogueTurn, SynthConfig, generate_synthetic, load_multiwoz

FIXTURE = Path(__file__).parent / "data" / "fixture_dialogues.json"


def dialogue_from_utterances(utts):
    turns = [DialogueTurn(i, sys, usr, BeliefState()) for i, (sys, usr) in enumerate(utts)]
    return Dialogue("d", {"hotel"}, turns)


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------

def test_tokenize_basic():
    assert tokenize("I need a Hotel.") == ["i", "need", "a", "hotel", "."]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_misc():
    assert tokenize("what area ?") == ["what", "area", "?"]
    assert tokenize("really?!") == ["really", "?", "!"]
    assert tokenize("...") == [".", ".", "."]
    assert tokenize("don't stop") == ["don't", "stop"]


def test_tokenize_idempotent_on_corpus_strings():
    dialogues, _ = generate_synthetic(SynthConfig(n_dialogues=15, seed=4))
    utterances = [u for d in dialogues for t in d.turns
                  for u in (t.system_utterance, t.user_utterance)]
    utterances += ["Hello there!!", "a,b", "one. two. three?"]
    for u in utterances:
        once = tokenize(u)
        assert tokenize(" ".join(once)) == once


# ---------------------------------------------------------------------------
# build_context
# ---------------------------------------------------------------------------

def test_build_context_tagged_inserts_speaker_tags():
    d = dialogue_from_utterances([("", "i need a hotel"),
                                  ("what area ?", "the east please")])
    seq = build_context(d, 1, tagging=True)
    assert seq.tokens == ["[usr]", "i", "need", "a", "hotel",
                          "[sys]", "what", "area", "?",
                          "[usr]", "the", "east", "please"]
    assert seq.tag_positions == [0, 5, 9]


def test_build_context_untagged():
    d = dialogue_from_utterances([("", "i need a hotel"),
                                  ("what area ?", "the east please")])
    seq = build_context(d, 1, tagging=False)
    assert seq.tokens == "i need a hotel what area ? the east please".split()
    assert seq.tag_positions == []


def test_build_context_turn_range():
    d = dialogue_from_utterances([("", "hi")])
    with pytest.raises(IndexError):
        build_context(d, 1, tagging=False)
    with pytest.raises(IndexError):
        build_context(d, -1, tagging=False)


def test_strip_tags_roundtrip_and_length_accounting():
    dialogues, _ = generate_synthetic(SynthConfig(n_dialogues=25, seed=9))
    for d in dialogues:
        for i in range(len(d.turns)):
            tagged = build_context(d, i, tagging=True)
            untagged = build_context(d, i, tagging=False)
            assert tagged.strip_tags().tokens == untagged.tokens
            n_utts = sum(1 for t in d.turns[:i + 1]
                         for u in (t.system_utterance, t.user_utterance) if tokenize(u))
            assert tagged.length == untagged.length + n_utts
            assert tagged.untagged_length == untagged.length


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

def test_empty_corpus_vocabulary_is_exactly_reserved():
    v = build_vocabulary([])
    assert v.tokens() == list(ctx.RESERVED_TOKENS)


def test_vocabulary_fixture_hand_enumeration():
    dialogues = load_multiwoz(FIXTURE)
    v = build_vocabulary(dialogues, min_count=1)
    expected = {"i", "need", "a", "hotel", "in", "the", "east", ".",
                "what", "price", "range", "do", "you", "want", "?",
                "cheap", "please"}
    assert set(v.content_tokens()) == expected


def test_vocabulary_min_count():
    dialogues = load_multiwoz(FIXTURE)
    v = build_vocabulary(dialogues, min_count=2)
    # "east" and "cheap" both occur once in text but also once as gold values
    assert "east" in v and "cheap" in v
    assert "please" not in v  # single occurrence
    with pytest.raises(ValueError):
        build_vocabulary(dialogues, min_count=0)


def test_tags_present_regardless_of_corpus():
    v = build_vocabulary(load_multiwoz(FIXTURE))
    assert ctx.SYS_TAG in v and ctx.USR_TAG in v


def test_vocabulary_ids_and_unk():
    v = Vocabulary(["alpha", "beta"])
    assert v.id("alpha") == len(ctx.RESERVED_TOKENS)
    assert v.id("missing") == v.id(ctx.UNK) == 1
    assert [v.id(t) for t in ["beta", "zzz"]] == [len(ctx.RESERVED_TOKENS) + 1, 1]
    assert v.token(0) == ctx.PAD


def test_vocabulary_order_deterministic():
    dialogues = load_multiwoz(FIXTURE)
    a = build_vocabulary(dialogues).tokens()
    b = build_vocabulary(dialogues).tokens()
    assert a == b


# ---------------------------------------------------------------------------
# buckets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("length,label", [
    (0, "0-99"), (99, "0-99"), (100, "100-199"), (199, "100-199"),
    (200, "200-299"), (299, "200-299"), (300, ">=300"), (881, ">=300"),
])
def test_length_bucket(length, label):
    assert length_bucket(length) == label


def test_length_bucket_negative():
    with pytest.raises(ValueError):
        length_bucket(-1)


def test_bucket_labels_cover_table_rows():
    assert BUCKET_LABELS == ("0-99", "100-199", "200-299", ">=300")


def test_context_length_stats():
    d = dialogue_from_utterances([("", " ".join(["w"] * 10)),
                                  (" ".join(["w"] * 150), "ok")])
    stats = ctx.context_length_stats([d])
    assert stats["instances"] == 2
    assert stats["max_length"] == 161
    assert stats["bucket_counts"]["0-99"] == 1
    assert stats["bucket_counts"]["100-199"] == 1
    assert stats["fraction_ge_200"] == 0.0
