import gc
import hashlib
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from lmdst import autodiff as ad
from lmdst.context import EOS, UNK, Vocabulary, build_context, build_vocabulary
from lmdst.corpus import BeliefState, Dialogue, DialogueTurn, Ontology
from lmdst.lm import BiGru
from lmdst.model import (CHECKPOINT_FIELDS, GATE_DONTCARE, GATE_NONE, GATE_PTR, MASKED_LOGIT,
                         DstModel,
                         copy_argmax, copy_grouping, copy_mixture, extend_context_ids)
from lmdst.training import TrainConfig, Trainer, predict_instances, turn_instances

from conftest import numpy_gru, peak_traced_mib
from test_embeddings import dense_char_avg

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def tiny_ontology():
    return Ontology([("hotel", "area"), ("hotel", "price")])


def tiny_dialogue():
    turns = [
        DialogueTurn(0, "", "i want east area .",
                     BeliefState({("hotel", "area"): "east"})),
        DialogueTurn(1, "you want east area ?", "i want cheap price .",
                     BeliefState({("hotel", "area"): "east",
                                  ("hotel", "price"): "cheap"})),
    ]
    return Dialogue("toy0", {"hotel"}, turns)


def tiny_vocab():
    return Vocabulary(["i", "want", "east", "area", ".", "you", "?",
                       "cheap", "price", "hotel", "west", "dear"])


def tiny_model(**kw):
    defaults = dict(hidden_dim=8, embedding_dim=8, dropout=0.0, word_dropout=0.0, seed=5)
    defaults.update(kw)
    return DstModel(tiny_vocab(), tiny_ontology(), **defaults)


def force_gate(model, gate):
    """Every slot of every turn takes gate ``gate``."""
    model.w_gate.value = np.zeros_like(model.w_gate.value)
    model.b_gate.value = np.where(np.arange(3) == gate, 50.0, -50.0)



# ---------------------------------------------------------------------------
# encoder: a BiGru, whose two directions prepare_batch sums
# ---------------------------------------------------------------------------

def test_encoder_shapes():
    enc = BiGru(ad.ParameterStore(0), "enc", 6)
    for rows, lengths in ((9, [9]), (11, [9, 2])):
        f, b = enc.forward(ad.Node(np.random.default_rng(0).normal(size=(rows, 6))), lengths)
        assert f.shape == b.shape == (rows, 6)


def test_encoder_t1_final_equals_hidden():
    """A one-token context's final state is its one encoder state."""
    model = tiny_model(tagging=False, lm_enabled=False)
    d = Dialogue("one", {"hotel"}, [DialogueTurn(0, "", "east", BeliefState())])
    batch = model.prepare_batch([(d, 0)])
    assert batch.hiddens.shape == (1, 1, 8)
    np.testing.assert_array_equal(batch.final_all.value[0], batch.hiddens.value[0, 0])


def test_encoder_matches_scalar_recomputation():
    """The encoder states and the final state of every example in a batch
    equal a straight-line recomputation over its own embedded context."""
    model = tiny_model(lm_enabled=False)
    d = tiny_dialogue()
    batch = model.prepare_batch([(d, 0), (d, 1)])
    for i, seq in enumerate(batch.contexts):
        xs = batch.table.value[[model.vocab.id(t) for t in seq.tokens]]
        f, b = numpy_gru(model.encoder.fwd, xs), numpy_gru(model.encoder.bwd, xs, reverse=True)
        np.testing.assert_allclose(batch.hiddens.value[i, :seq.length], f + b, atol=1e-12)
        np.testing.assert_array_equal(batch.hiddens.value[i, seq.length:], 0.0)
        np.testing.assert_allclose(batch.final_all.value[i], f[-1] + b[0], atol=1e-12)


def test_encoder_rejects_empty():
    enc = BiGru(ad.ParameterStore(0), "enc", 4)
    with pytest.raises(ad.ShapeError):
        enc.forward(ad.Node(np.zeros((0, 4))), [0])


# ---------------------------------------------------------------------------
# copy mixture
# ---------------------------------------------------------------------------

def random_mixture_inputs(rng, s=3, t=5, v=7, n_oov=0):
    vocab_probs = ad.softmax(ad.Node(rng.normal(size=(s, v))))
    attn = ad.softmax(ad.Node(rng.normal(size=(s, t))))
    p_gen = ad.sigmoid(ad.Node(rng.normal(size=(s, 1))))
    ids = rng.integers(0, v + n_oov, size=t)
    return vocab_probs, attn, p_gen, ids


def test_mixture_pgen_one_is_vocab_distribution():
    rng = np.random.default_rng(0)
    vocab_probs, attn, _, ids = random_mixture_inputs(rng)
    p1 = ad.Node(np.ones((3, 1)))
    out = copy_mixture(vocab_probs, attn, p1, ids, 7, 0)
    np.testing.assert_allclose(out.value, vocab_probs.value, atol=1e-15)


def test_mixture_pgen_zero_single_source_token():
    vocab = tiny_vocab()
    east = vocab.id("east")
    vocab_probs = ad.Node(np.full((1, len(vocab)), 1.0 / len(vocab)))
    attn = ad.Node(np.ones((1, 1)))  # single context position
    p0 = ad.Node(np.zeros((1, 1)))
    out = copy_mixture(vocab_probs, attn, p0, np.array([east]), len(vocab), 0)
    assert out.value[0, east] == 1.0
    assert out.value.sum() == pytest.approx(1.0)


def test_mixture_simplex_over_1000_parameterizations():
    rng = np.random.default_rng(42)
    for i in range(1000):
        s = int(rng.integers(1, 4))
        t = int(rng.integers(1, 7))
        v = int(rng.integers(2, 9))
        n_oov = int(rng.integers(0, 3))
        vocab_probs, attn, p_gen, ids = random_mixture_inputs(rng, s, t, v, n_oov)
        out = copy_mixture(vocab_probs, attn, p_gen, ids, v, n_oov).value
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-10)


def test_mixture_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    store = ad.ParameterStore(7)
    logits = store.new("logits", (2, 5), 1.0)
    scores = store.new("scores", (2, 4), 1.0)
    gate = store.new("gate", (2, 1), 1.0)
    logits.value = rng.normal(size=(2, 5))
    scores.value = rng.normal(size=(2, 4))
    gate.value = rng.normal(size=(2, 1))
    ids = rng.integers(0, 7, size=(2, 4))  # one row of column ids per row
    weights = ad.Node(rng.normal(size=(2, 7)))

    def loss():
        out = copy_mixture(ad.softmax(logits),
                           ad.softmax(scores),
                           ad.sigmoid(gate), ids, 5, 2)
        return ad.sum_all(ad.elementwise_mul(out, weights))

    assert ad.grad_check(loss, store.parameters(), eps=1e-5) < 1e-4


def test_greedy_argmax_matches_dense_mixture():
    """copy_argmax equals the argmax of the dense copy_mixture exactly, ties
    to the lowest id: padded rows with repeated and extended ids, planted
    exact ties and p_gen of exactly 0 and 1. It takes no mask: the padding
    has probability 0, whether it holds id 0 or arbitrary ids."""
    rng = np.random.default_rng(21)
    v, n_oov, t = 9, 3, 7
    lengths = np.array([7, 4, 1, 7, 5, 7, 3, 6])
    n = len(lengths)
    keep = np.arange(t) < lengths[:, None]
    for trial in range(200):
        vocab_logits = rng.normal(scale=2.0, size=(n, v))
        copy_logits = rng.normal(scale=2.0, size=(n, t))
        gen_logits = rng.normal(scale=2.0, size=(n, 1))
        ids = rng.integers(0, v + n_oov, size=(n, t))
        ids[:, 1] = ids[:, 0]  # a column held by two positions
        # planted ties, each row a different kind
        gen_logits[0:3] = 1e4    # p_gen exactly 1: context values equal generation ones
        gen_logits[3:5] = -1e4   # p_gen exactly 0: the copy mass alone
        vocab_logits[0, [2, 5]] = 8.0  # a context column against a generation column
        ids[0, :2], ids[0, 2:] = 5, v
        vocab_logits[1, [6, 3]] = 8.0  # the same with the lower id off the context
        ids[1, :4] = 6
        vocab_logits[2, [4, 7]] = 8.0  # two generation columns, no context column tied
        ids[2, 0] = v + 1
        copy_logits[3, [0, 2]] = 9.0   # two context columns with equal copy mass
        ids[3] = [v + 2, v + 1, 2, 3, 4, 5, 6]
        vocab_logits[5, [1, 8]] = 9.0  # two generation columns at a fractional p_gen
        gen_logits[5] = 3.0
        ids[5] = 0
        if trial % 2:  # half the trials share one row of ids, as one example does
            ids[6] = ids[7]
        p_gen = ad.sigmoid(ad.Node(gen_logits))
        attn = ad.softmax(ad.add(ad.Node(copy_logits),
                                 ad.Node(np.where(keep, 0.0, MASKED_LOGIT))))
        assert (attn.value[~keep] == 0.0).all()
        mixture = copy_mixture(ad.softmax(ad.Node(vocab_logits)), attn, p_gen,
                               ids, v, n_oov).value
        want = np.argmax(mixture, axis=1)
        # the padding as prepare_batch fills it (column 0), and as drawn
        for pad_ids in (np.where(keep, ids, 0), ids):
            got = copy_argmax(vocab_logits, attn.value, p_gen.value, pad_ids,
                              copy_grouping(pad_ids))
            np.testing.assert_array_equal(got, want)
        top = mixture == mixture.max(axis=1, keepdims=True)
        assert p_gen.value[0, 0] == 1.0 and p_gen.value[3, 0] == 0.0
        assert top[0, [2, 5]].all() and top[1, [3, 6]].all() and top[2, [4, 7]].all()
        assert top[3, [2, v + 2]].all() and top[5, [1, 8]].all()
        assert list(want[:4]) == [2, 3, 4, 2] and want[5] == 1


def test_oov_context_ids():
    """Token -> extended id (extend_context_ids, for the context and through
    _target_ids for gold values), extended id -> table id (_input_ids) and
    extended id -> token (_token_for)."""
    model = tiny_model()
    vocab = model.vocab
    unk, eos, v = vocab.id(UNK), vocab.id(EOS), len(vocab)
    tokens = ["i", "want", "flurb", "area", "zork", "flurb"]
    surfaces = ["flurb", "zork"]
    ext = extend_context_ids(vocab, tokens, surfaces).tolist()
    assert ext == [vocab.id("i"), vocab.id("want"), v, vocab.id("area"), v + 1, v]
    assert model._input_ids(np.array(ext)).tolist() == [
        vocab.id("i"), vocab.id("want"), unk, vocab.id("area"), unk, unk]
    assert [model._token_for(surfaces, i) for i in ext] == tokens
    # prepare_batch finds the same surfaces, and its ids map back to the context
    d = tiny_dialogue()
    d.turns[0].user_utterance = " ".join(tokens)
    batch = model.prepare_batch([(d, 0)])
    assert batch.oov == [surfaces]
    assert [model._token_for(surfaces, i) for i in batch.ext_ids[batch.mask].tolist()] \
        == batch.contexts[0].tokens
    # a gold token outside both the vocabulary and the context becomes UNK
    gold = BeliefState({("hotel", "area"): "zork east", ("hotel", "price"): "blorp"})
    seqs, _ = model._target_ids(surfaces, gold)
    assert seqs == [[v + 1, vocab.id("east"), eos], [unk, eos]]


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def test_greedy_decode_returns_gate_and_tokens():
    model = tiny_model()
    batch = model.prepare_batch([(tiny_dialogue(), 1)])
    [gates], [words] = model._greedy_decode(batch)
    assert len(gates) == len(words) == len(model.ontology)
    for gate, tokens in zip(gates, words):
        assert gate.shape == (3,)
        assert gate.sum() == pytest.approx(1.0, abs=1e-12)
        assert gate.argmax() in (GATE_PTR, GATE_NONE, GATE_DONTCARE)
        assert len(tokens) <= model.max_value_len
        assert EOS not in tokens


# Per slot of a five-slot model: its gate, and the step at which a ptr row
# emits EOS, i.e. how many words it decodes (99: never, the length cap ends it).
MIXED_PLAN = [(GATE_PTR, 1), (GATE_NONE, 0), (GATE_PTR, 3), (GATE_DONTCARE, 0), (GATE_PTR, 99)]


def mixed_model():
    ontology = Ontology([("hotel", "area"), ("hotel", "price"), ("hotel", "stars"),
                         ("hotel", "name"), ("hotel", "type")])
    return DstModel(tiny_vocab(), ontology, hidden_dim=8, embedding_dim=8, dropout=0.0,
                    word_dropout=0.0, max_value_len=5, seed=5)


def rig_decoder(model, plan):
    """Bias the model's gate logits so that slot s takes gate ``plan[s][0]``,
    and its output logits so that a ptr row of slot s emits EOS exactly at
    step ``plan[s][1]`` (the EOS logit raised by 1000 and p_gen saturated at
    1 there, the EOS logit lowered by 1000 elsewhere). Both follow the slot
    alone, so a turn decodes alike in any batch."""
    n_s = len(model.ontology)
    gates = np.array([g for g, _ in plan])
    stops = np.array([k for _, k in plan])
    eos = model.vocab.id(EOS)
    gate_logits, output_logits = model._gate_logits, model._output_logits
    j = 0  # the decoder step: output-head calls since the decode's gate

    def rigged_gate(context_vec):
        nonlocal j
        j = 0
        # greedy decoding reads the gate of every row, in row order
        slots = np.arange(context_vec.shape[0]) % n_s
        bias = np.where(np.arange(3) == gates[slots][:, None], 100.0, -100.0)
        return ad.add(gate_logits(context_vec), ad.Node(bias))

    def rigged_output(batch, step):
        nonlocal j
        vocab_logits, gen_logits = output_logits(batch, step)
        stop = stops[step.rows % n_s] == j
        j += 1
        bias = np.zeros(vocab_logits.shape)
        bias[:, eos] = np.where(stop, 1e3, -1e3)
        return (ad.add(vocab_logits, ad.Node(bias)),
                ad.add(gen_logits, ad.Node(np.where(stop, 1e4, 0.0)[:, None])))

    model._gate_logits, model._output_logits = rigged_gate, rigged_output


def test_greedy_decode_batch_matches_single():
    d = tiny_dialogue()
    mixed = mixed_model()
    rig_decoder(mixed, MIXED_PLAN)
    for model in (tiny_model(), mixed):
        gates, words = model._greedy_decode(model.prepare_batch([(d, 0), (d, 1)]))
        for turn in range(2):
            [want_gates], [want_words] = model._greedy_decode(model.prepare_batch([(d, turn)]))
            for gate, want_gate in zip(gates[turn], want_gates, strict=True):
                np.testing.assert_allclose(gate, want_gate, atol=1e-12)
            assert words[turn] == want_words
    # the rigged case mixes all three gates, and its ptr rows end at three steps
    for turn_gates, turn_words in zip(gates, words):
        assert turn_gates.argmax(axis=1).tolist() == [g for g, _ in MIXED_PLAN]
        assert [len(w) for w in turn_words] == [1, 0, 3, 0, 5]


def count_decoder_rows(monkeypatch, model):
    """Rows per call through GruCell.step and through the model's output
    heads (the vocabulary logits and p_gen)."""
    gru_rows, head_rows = [], []
    gru_step, output_logits = ad.GruCell.step, model._output_logits

    def counting_step(cell, x, h):
        gru_rows.append(x.shape[0])
        return gru_step(cell, x, h)

    def counting_heads(batch, step):
        head_rows.append(step.rows.size)
        return output_logits(batch, step)

    monkeypatch.setattr(ad.GruCell, "step", counting_step)
    model._output_logits = counting_heads
    return gru_rows, head_rows


def test_greedy_decode_steps_only_live_rows(monkeypatch):
    """After the first step, which computes every row's gate, the decoder
    steps only the ptr rows that have not emitted EOS, and no other row
    reaches the vocabulary head."""
    d = tiny_dialogue()
    for gate in (GATE_NONE, GATE_DONTCARE):
        model = tiny_model()
        force_gate(model, gate)
        gru_rows, head_rows = count_decoder_rows(monkeypatch, model)
        gates, words = model._greedy_decode(model.prepare_batch([(d, 0), (d, 1)]))
        assert gru_rows == [4] and sum(head_rows) == 0
        assert (gates.argmax(axis=2) == gate).all()
        assert words == [[[], []], [[], []]]

    model = mixed_model()
    rig_decoder(model, MIXED_PLAN)
    gru_rows, head_rows = count_decoder_rows(monkeypatch, model)
    gates, words = model._greedy_decode(model.prepare_batch([(d, 0), (d, 1)]))
    ptr_lengths = [len(w) for turn_gates, turn_words in zip(gates, words)
                   for g, w in zip(turn_gates, turn_words) if g.argmax() == GATE_PTR]
    assert sorted(ptr_lengths) == [1, 1, 3, 3, 5, 5]
    # a ptr row is live from step 0 through the step that emits its EOS (or the cap)
    live = [sum(n >= j for n in ptr_lengths) for j in range(model.max_value_len)]
    assert head_rows == live == [6, 6, 4, 4, 2]
    assert gru_rows == [10] + live[1:]


def full_width_decode(model, batch):
    """Reference greedy decode: every (example, slot) row steps until all
    rows have emitted EOS (or the length cap), and each step takes the
    argmax of the dense copy_mixture over all rows."""
    n_b, n_s = len(batch.contexts), len(model.ontology)
    eos = model.vocab.id(EOS)
    n_oov = max(len(surfaces) for surfaces in batch.oov)
    rows = np.arange(n_b * n_s)
    x, h = model._decoder_init(batch)
    words = [[[] for _ in range(n_s)] for _ in range(n_b)]
    done = np.zeros(rows.size, dtype=bool)
    for j in range(model.max_value_len):
        step = model._attend(batch, x, model.decoder_cell.step(x, h), rows)
        if j == 0:
            probs = ad.softmax(model._gate_logits(step.context_vec)).value
        vocab_logits, gen_logits = model._output_logits(batch, step)
        mixture = copy_mixture(ad.softmax(vocab_logits), step.attn,
                               ad.sigmoid(gen_logits), batch.ext_ids[rows // n_s],
                               len(model.vocab), n_oov)
        choice = np.argmax(mixture.value, axis=1)
        for r in rows[~done & (choice != eos)]:
            i, s = divmod(int(r), n_s)
            words[i][s].append(model._token_for(batch.oov[i], int(choice[r])))
        done |= choice == eos
        if done.all():
            break
        x, h = model._feed(batch, np.where(done, eos, choice)), step.h
    return probs.reshape(n_b, n_s, -1), words


@pytest.mark.parametrize("seed", [1, 2])
def test_prediction_matches_full_width_decode_on_infer_woz(monkeypatch, seed):
    """On one group of the benchmark's MultiWOZ-shaped corpus (|V| ~ 6k,
    400-dim, untrained), predict_instances equals the full-width reference
    decode."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import wozgen

    dialogues, ontology, groups = wozgen.generate(seed)
    model = DstModel(build_vocabulary(dialogues), ontology, seed=seed)
    group = groups[0]
    predicted = [p.predicted for p in predict_instances(model, group)]
    with ad.no_grad():  # predict_instances runs a 16-turn group as one batch
        gates, words = full_width_decode(model, model.prepare_batch(turn_instances(group)))
    assert predicted == [model._assemble_state(g, w) for g, w in zip(gates, words)]


def test_batch_copies_the_transposed_table_only_for_the_heads():
    """A batch holds no transposed copy of the table while the LM and the
    encoder run: the vocabulary head makes it on first use, once, in the
    row-major layout its GEMMs have always read. Decoding with no ptr row
    never makes it."""
    d = tiny_dialogue()
    model = tiny_model()
    force_gate(model, GATE_NONE)
    with ad.no_grad():
        batch = model.prepare_batch([(d, 0), (d, 1)])
        assert "table_t" not in vars(batch)
        model._greedy_decode(batch)
        assert "table_t" not in vars(batch)
        force_gate(model, GATE_PTR)
        model._greedy_decode(batch)
    table_t = vars(batch)["table_t"]
    assert batch.table_t is table_t and table_t.value.flags.c_contiguous
    np.testing.assert_array_equal(table_t.value, batch.table.value.T)


def test_batch_freed_without_cycle_collection():
    """A batch and its graph go away by reference counting alone as soon as
    the caller drops them; a reference cycle would keep every step's graph
    alive until the next full collection."""
    model = tiny_model()
    d = tiny_dialogue()
    gc.collect()
    gc.disable()
    try:
        batch = model.prepare_batch([(d, 0), (d, 1)], np.random.default_rng(0))
        model._greedy_decode(batch)
        ref = weakref.ref(batch)
        del batch
        assert ref() is None
    finally:
        gc.enable()


def record_mixtures(model):
    """Collect the copy_mixture of every decoder step greedy decoding runs,
    built from the step's outputs: one (live rows x (|V| + n_oov)) matrix
    per step."""
    mixtures = []
    output_logits = model._output_logits

    def recording(batch, step):
        vocab_logits, gen_logits = output_logits(batch, step)
        mixtures.append(copy_mixture(
            ad.softmax(vocab_logits), step.attn, ad.sigmoid(gen_logits),
            batch.ext_ids[step.rows // len(model.ontology)], len(model.vocab),
            max(len(surfaces) for surfaces in batch.oov)))
        return vocab_logits, gen_logits

    model._output_logits = recording
    return mixtures


def test_generator_steps_are_simplexes_for_arbitrary_parameters():
    for seed in range(3):
        model = tiny_model(seed=seed)
        force_gate(model, GATE_PTR)  # only ptr rows reach the output heads
        finals = record_mixtures(model)
        batch = model.prepare_batch([(tiny_dialogue(), 1)])
        model._greedy_decode(batch)
        assert finals
        for step_final in finals:
            final = step_final.value
            assert (final >= 0).all()
            np.testing.assert_allclose(final.sum(axis=1), 1.0, atol=1e-10)


def test_predict_state_all_none_gate_gives_empty_state():
    model = tiny_model()
    # rig the gate to always say "none"
    model.w_gate.value = np.zeros_like(model.w_gate.value)
    model.b_gate.value = np.array([-50.0, 50.0, -50.0])
    assert len(model.predict_state(tiny_dialogue(), 1)) == 0


def test_predict_state_dontcare_gate():
    model = tiny_model()
    model.w_gate.value = np.zeros_like(model.w_gate.value)
    model.b_gate.value = np.array([-50.0, -50.0, 50.0])
    state = model.predict_state(tiny_dialogue(), 1)
    assert state.get("hotel", "area") == "dontcare"
    assert state.get("hotel", "price") == "dontcare"


def test_predict_state_never_contains_eos():
    for seed in range(4):
        model = tiny_model(seed=seed)
        model.w_gate.value = np.zeros_like(model.w_gate.value)
        model.b_gate.value = np.array([50.0, -50.0, -50.0])  # force ptr
        state = model.predict_state(tiny_dialogue(), 1)
        for value in state.entries().values():
            assert EOS not in value.split()


def test_copy_path_emits_oov_surface_token():
    """With generation suppressed, greedy decoding emits the surface form of
    an out-of-vocabulary context token via its extended id."""
    model = tiny_model()
    model.b_pgen.value = np.array([-1e4])  # sigmoid -> exactly 0: copy only
    model.w_pgen.value = np.zeros_like(model.w_pgen.value)
    d = tiny_dialogue()
    d.turns[1].user_utterance = "i want flurb price ."
    batch = model.prepare_batch([(d, 1)])
    ctx = batch.contexts[0]
    assert batch.oov[0] == ["flurb"]
    finals = record_mixtures(model)
    [gates], [words] = model._greedy_decode(batch)
    assert gates.argmax(axis=1).tolist() == [GATE_PTR, GATE_PTR]
    emitted = set(words[model.ontology.domain_slots.index(("hotel", "price"))])
    assert emitted <= set(ctx.tokens)  # copy-only can emit context tokens only
    assert finals
    for step_final in finals:
        final = step_final.value
        assert final.shape[1] == len(model.vocab) + 1
        np.testing.assert_allclose(final.sum(axis=1), 1.0, atol=1e-10)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_gate_term_zero_when_prediction_matches_onehot():
    # the other classes sit 1000 below: their probabilities are exactly 0
    logits = ad.Node(np.array([[0.0, -1e3, -1e3], [-1e3, 0.0, -1e3]]))
    loss = ad.cross_entropy_rows(logits, [0, 1])
    assert float(loss.value) == 0.0


def test_uniform_token_term_is_log_vocab():
    # p_gen saturated at 1 and a target no context position holds
    loss = ad.copy_nll_rows(np.zeros((1, 4)), np.zeros((1, 3)), [[1e4]], [2], [[0, 1, 3]])
    assert float(loss.value) == pytest.approx(math.log(4), abs=1e-12)


def copy_nll_case(rng, n=5, t=6, v=7, n_oov=2):
    """Logits for ``n`` rows over |V| = ``v`` plus ``n_oov`` extended ids,
    with rows 1 and 3 padded to 4 and 2 context positions (their copy logits
    masked), and targets that cover a vocabulary id held only by generation,
    an in-context id (row 1's is also held by its padding) and an extended
    (copy-only) id."""
    vocab_logits = rng.normal(size=(n, v))
    copy_logits = rng.normal(size=(n, t))
    gen_logits = rng.normal(size=(n, 1))
    lengths = np.array([t, 4, t, 2, t])[:n]
    keep = np.arange(t) < lengths[:, None]
    ids = rng.integers(0, v + n_oov, size=(n, t))
    ids[:, 0] = v           # every row holds extended id |V| in context
    ids[:, 1] = 0
    ids[~keep] = 0          # padding: column 0, as prepare_batch fills it
    copy_logits[~keep] = MASKED_LOGIT
    targets = np.array([v, 0, 1, v, 0])[:n]
    targets[2] = next(i for i in range(v) if i not in ids[2][keep[2]])
    return vocab_logits, copy_logits, gen_logits, targets, ids


def test_copy_nll_rows_is_minus_log_of_the_mixture():
    rng = np.random.default_rng(12)
    v, n_oov = 7, 2
    for _ in range(20):
        vl, cl, gl, targets, ids = copy_nll_case(rng, v=v, n_oov=n_oov)
        kept = np.flatnonzero(rng.integers(0, 2, size=len(targets)))  # the rows scored
        mixture = copy_mixture(ad.softmax(ad.Node(vl)), ad.softmax(ad.Node(cl)),
                               ad.sigmoid(ad.Node(gl)), ids, v, n_oov).value
        want = -np.log(mixture[kept, targets[kept]]).sum()
        got = float(ad.copy_nll_rows(vl[kept], cl[kept], gl[kept], targets[kept],
                                     ids[kept]).value)
        assert got == pytest.approx(want, rel=1e-12)


def test_copy_nll_rows_survives_underflow():
    """Two rows whose target probability is exactly 0 in float64, so a loss
    that takes log of the mixture is inf (and backward raises GraphError):
    (a) the target's vocabulary logit is 800 below the others (its softmax
    entry underflows) with p_gen saturated at 1, so copying adds nothing;
    (b) p_gen saturated at 0 and no context position holds the target, so
    the copy mass is exactly 0. In log space both are finite, with finite
    gradients and an exactly-zero gradient on the copy logits of (b)."""
    store = ad.ParameterStore(0)
    vocab = store.new("vocab", (2, 5), 1.0)
    copy = store.new("copy", (2, 3), 1.0)
    gen = store.new("gen", (2, 1), 1.0)
    vocab.value = np.zeros((2, 5))
    vocab.value[0, 2] = -800.0
    copy.value = np.array([[0.5, -0.5, 1.0], [0.2, 0.1, -0.3]])
    gen.value = np.array([[1e4], [-1e4]])
    targets, ids = [2, 4], np.array([[0, 1, 3], [0, 1, 3]])

    mixture = copy_mixture(ad.softmax(vocab), ad.softmax(copy),
                           ad.sigmoid(gen), ids, 5, 0).value
    assert mixture[0, 2] == 0.0 and mixture[1, 4] == 0.0

    loss = ad.copy_nll_rows(vocab, copy, gen, targets, ids)
    assert np.isfinite(loss.value)
    assert float(loss.value) == pytest.approx(800.0 + math.log(4) + 1e4 + math.log(5),
                                              rel=1e-12)
    ad.backward(loss)
    for p in (vocab, copy, gen):
        assert np.isfinite(p.grad).all()
    assert (copy.grad == 0.0).all()  # (a) copies with weight 0, (b) has no copy term
    assert vocab.grad[0, 2] == pytest.approx(-1.0)


def numpy_turn_loss(model, dialogue, turn):
    """Independent straight-line numpy recomputation of (dst, lm) for one turn.

    Reuses only parameter values and static index tables from the model;
    every computation is redone here from the written-down equations.
    """
    def softmax_rows(x):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    vocab = model.vocab
    seq = build_context(dialogue, turn, model.tagging)
    oov = list(dict.fromkeys(t for t in seq.tokens if t not in vocab))
    ids = np.array([vocab.id(t) for t in seq.tokens])
    ext_ids = extend_context_ids(vocab, seq.tokens, oov)
    table = np.concatenate(
        [model.embedding.word.value,
         dense_char_avg(model.embedding) @ model.embedding.char.value],
        axis=1)
    emb = table[ids]

    lm_total = 0.0
    if model.lm_enabled:
        f = numpy_gru(model.lm.fwd, emb)
        b = numpy_gru(model.lm.bwd, emb, reverse=True)
        for t in range(len(ids) - 1):
            p = softmax_rows(f[t] @ model.lm.w_f.value)
            lm_total += -math.log(p[ids[t + 1]])
            p = softmax_rows(b[t + 1] @ model.lm.w_b.value)
            lm_total += -math.log(p[ids[t]])
        fused = emb + f + b
    else:
        fused = emb

    ef = numpy_gru(model.encoder.fwd, fused)
    eb = numpy_gru(model.encoder.bwd, fused, reverse=True)
    hiddens = ef + eb
    final = ef[-1] + eb[0]

    gold = dialogue.turns[turn].gold_state
    ext_of = {s: len(vocab) + i for i, s in enumerate(oov)}
    eos, unk = vocab.id(EOS), vocab.id(UNK)
    seqs, gates = [], []
    for domain, slot in model.ontology.domain_slots:
        value = gold.get(domain, slot)
        if value is None:
            gates.append(1)
            words = []
        elif value == "dontcare":
            gates.append(2)
            words = ["dontcare"]
        else:
            gates.append(0)
            words = value.split()
        seqs.append([vocab.id(w) if w in vocab else ext_of.get(w, unk)
                     for w in words] + [eos])

    n_slots = len(seqs)
    cell = model.decoder_cell
    d = cell.hidden_dim
    token_total = gate_total = 0.0
    for s in range(n_slots):
        h = final.copy()
        x = model._slot_token_avg[s] @ table
        for j, target in enumerate(seqs[s]):
            zr = 1 / (1 + np.exp(-(x @ cell.w_zr.value + cell.b_zr.value
                                   + h @ cell.u_zr.value)))
            z, r = zr[:d], zr[d:]
            c = np.tanh(x @ cell.w_h.value + cell.b_h.value + (r * h) @ cell.u_h.value)
            h = (1 - z) * h + z * c
            attn = softmax_rows(hiddens @ h)
            ctx_vec = attn @ hiddens
            if j == 0:
                gate_p = softmax_rows(ctx_vec @ model.w_gate.value + model.b_gate.value)
                gate_total += -math.log(gate_p[gates[s]])
            p_gen = 1 / (1 + math.exp(-(np.concatenate([h, ctx_vec, x])
                                        @ model.w_pgen.value[:, 0]
                                        + model.b_pgen.value[0])))
            vocab_p = softmax_rows(h @ table.T)
            full = np.zeros(len(vocab) + len(oov))
            full[:len(vocab)] = p_gen * vocab_p
            np.add.at(full, ext_ids, (1 - p_gen) * attn)
            token_total += -math.log(full[target])
            x = table[target] if target < len(vocab) else table[unk]
    return (token_total + gate_total) / n_slots, lm_total


def test_turn_loss_matches_independent_numpy_oracle():
    model = tiny_model()
    d = tiny_dialogue()
    dst, lm = model.batch_loss([(d, 1)])
    assert dst.shape == () and lm.shape == ()
    want_dst, want_lm = numpy_turn_loss(model, d, 1)
    assert abs(float(dst.value) - want_dst) < 1e-9
    assert abs(float(lm.value) - want_lm) < 1e-9


def test_batch_loss_is_sum_of_turn_losses():
    model = tiny_model()
    d = tiny_dialogue()
    dst_b, lm_b = model.batch_loss([(d, 0), (d, 1)])
    dst_0, lm_0 = model.batch_loss([(d, 0)])
    dst_1, lm_1 = model.batch_loss([(d, 1)])
    assert abs(float(dst_b.value) - (float(dst_0.value) + float(dst_1.value))) < 1e-10
    assert abs(float(lm_b.value) - (float(lm_0.value) + float(lm_1.value))) < 1e-10


def graph_size(*roots):
    return len({id(node) for root in roots for node in ad._topo(root)})


def test_batch_loss_graph_size_is_independent_of_batch():
    """The decoder runs once over all (example, slot) rows and all their
    steps, so four turns build exactly as many graph nodes as one turn
    alone: no per-example or per-step loop."""
    model = tiny_model()
    d = tiny_dialogue()
    one = graph_size(*model.batch_loss([(d, 1)]))
    four = graph_size(*model.batch_loss([(d, 0), (d, 1), (d, 1), (d, 0)]))
    assert one == four


def test_batch_loss_runs_the_decoder_as_one_sequence(monkeypatch):
    """Teacher forcing knows every decoder input up front: batch_loss runs
    the decoder GRU once, each (example, slot) row to its own target length,
    and takes no single GRU step."""
    model = tiny_model()
    d = tiny_dialogue()
    calls, steps = [], []
    gru, gru_step = ad.gru_sequence_batch, ad.GruCell.step

    def counting(cell, xs, lengths, *args, **kwargs):
        calls.append((cell, list(lengths)))
        return gru(cell, xs, lengths, *args, **kwargs)

    def counting_step(cell, x, h):
        steps.append(cell)
        return gru_step(cell, x, h)

    monkeypatch.setattr(ad, "gru_sequence_batch", counting)
    monkeypatch.setattr(ad.GruCell, "step", counting_step)
    model.batch_loss([(d, 0), (d, 1)])
    assert steps == []
    # turn 0: area "east" + EOS, price absent (EOS); turn 1: both valued
    assert [lengths for cell, lengths in calls if cell is model.decoder_cell] == [[2, 1, 2, 2]]


def oov_dialogue():
    """Targets of 1 (absent), 2 (dontcare) and 3 (two words) tokens, one of
    the words copied from a context token the vocabulary lacks."""
    turns = [
        DialogueTurn(0, "", "i want flurb cheap price .",
                     BeliefState({("hotel", "price"): "flurb cheap"})),
        DialogueTurn(1, "you want flurb cheap price ?", "any area .",
                     BeliefState({("hotel", "area"): "dontcare",
                                  ("hotel", "price"): "flurb cheap"})),
    ]
    return Dialogue("toy1", {"hotel"}, turns)


def stepwise_dst_loss(model, instances, rng):
    """Reference teacher-forced state-tracking loss, one decoder step at a
    time: decoder_cell.step and _attend over the rows still running, one
    copy_nll_rows per step, the gate cross entropy on the first step.
    Returns the loss and each row's target ids."""
    batch = model.prepare_batch(instances, rng)
    seqs, gates = [], []
    for surfaces, (dialogue, turn) in zip(batch.oov, instances):
        slot_seqs, slot_gates = model._target_ids(surfaces, dialogue.turns[turn].gold_state)
        seqs += slot_seqs
        gates += slot_gates
    x, h = model._decoder_init(batch)
    rows = np.arange(len(seqs))
    total = None
    for j in range(max(len(seq) for seq in seqs)):
        step = model._attend(batch, x, model.decoder_cell.step(x, h), rows)
        if j == 0:
            total = ad.cross_entropy_rows(model._gate_logits(step.context_vec), gates)
        targets = np.array([seqs[r][j] for r in rows])
        vocab_logits, gen_logits = model._output_logits(batch, step)
        ex = rows // len(model.ontology)
        total = ad.add(total, ad.copy_nll_rows(vocab_logits, step.attn_logits, gen_logits,
                                               targets, batch.ext_ids[ex]))
        going = np.flatnonzero([len(seqs[r]) > j + 1 for r in rows])
        rows = rows[going]
        x, h = model._feed(batch, targets[going]), ad.embedding_lookup(step.h, going)
    return ad.elementwise_mul(total, 1.0 / len(model.ontology)), seqs


def test_batch_loss_matches_stepwise_reference():
    """The one-sequence decoder gives the loss and every parameter gradient
    of stepping the live rows one step at a time, with dropout on (the same
    seed on both sides), mixed target lengths and an OOV copy target."""
    model = tiny_model(dropout=0.3, word_dropout=0.2)
    instances = [(oov_dialogue(), 0), (oov_dialogue(), 1)]
    params = model.store.parameters()

    def gradients(loss):
        model.store.zero_grad()
        ad.backward(loss)
        return [p.grad for p in params]

    want, seqs = stepwise_dst_loss(model, instances, np.random.default_rng(3))
    got = model.batch_loss(instances, np.random.default_rng(3))[0]
    assert sorted({len(seq) for seq in seqs}) == [1, 2, 3]
    assert any(t >= len(model.vocab) for seq in seqs for t in seq)  # a copied OOV
    assert got.value != model.batch_loss(instances)[0].value  # dropout is on
    assert float(got.value) == pytest.approx(float(want.value), rel=1e-12)
    want_grads, got_grads = gradients(want), gradients(got)
    for p, g, w in zip(params, got_grads, want_grads, strict=True):
        assert (g is None) == (w is None), p.name
        if g is not None:
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=p.name)


def test_batched_prediction_matches_single():
    model = tiny_model()
    d = tiny_dialogue()
    batched = model.predict_states([(d, 0), (d, 1)])
    assert batched[0] == model.predict_state(d, 0)
    assert batched[1] == model.predict_state(d, 1)


def three_turn_dialogue(dialogue_id="toy3", last_user="i want dear price ."):
    turns = [
        *tiny_dialogue().turns,
        DialogueTurn(2, "you want cheap price ?", last_user,
                     BeliefState({("hotel", "area"): "east", ("hotel", "price"): "dear"})),
    ]
    return Dialogue(dialogue_id, {"hotel"}, turns)


def record_lm_forward_lengths(monkeypatch, model):
    """The ``lengths`` of every LM forward-direction recurrence, in call order."""
    seen = []
    gru = ad.gru_sequence_batch

    def recording(cell, xs, lengths, *args, **kwargs):
        if cell is model.lm.fwd:
            seen.append([int(n) for n in lengths])
        return gru(cell, xs, lengths, *args, **kwargs)

    monkeypatch.setattr(ad, "gru_sequence_batch", recording)
    return seen


def test_prediction_runs_the_lm_forward_direction_once_per_dialogue(monkeypatch):
    """In a decode batch a turn's context is a prefix of its dialogue's
    longest context in the batch, so the LM's forward direction runs one
    sequence per dialogue and each turn reads its states from the first
    rows: they equal the turn's states run alone."""
    model = tiny_model()
    d, other = three_turn_dialogue(), tiny_dialogue()
    instances = [(d, 0), (other, 1), (d, 2), (other, 0), (d, 1)]
    lengths = [build_context(dlg, t, True).length for dlg, t in instances]
    seen = record_lm_forward_lengths(monkeypatch, model)
    states = []
    lm_forward = model.lm.forward

    def lm_recording(*args, **kwargs):
        states.append(lm_forward(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(model.lm, "forward", lm_recording)
    with ad.no_grad():
        model.prepare_batch(instances, decode=True)
        assert seen == [[lengths[1], lengths[2]]]  # the carriers, in stacked order
        offsets = np.cumsum(lengths) - lengths
        for i, (dlg, turn) in enumerate(instances):
            model.prepare_batch([(dlg, turn)], decode=True)
            for got, want in zip(states[0], states[-1]):
                np.testing.assert_allclose(got.value[offsets[i]:offsets[i] + lengths[i]],
                                           want.value, rtol=0, atol=1e-12)


def test_lm_forward_runs_every_example_with_dropout_or_a_graph(monkeypatch):
    """Outside a decode batch the forward direction is the one recurrence
    over every example: with ``rng`` (training), with a graph, and without
    one (``batch_loss`` under ``no_grad``, as grad_check runs it)."""
    model = tiny_model()
    d = three_turn_dialogue()
    instances = [(d, 0), (d, 1), (d, 2)]
    lengths = [build_context(d, t, True).length for t in range(3)]
    seen = record_lm_forward_lengths(monkeypatch, model)
    model.prepare_batch(instances, np.random.default_rng(0))
    model.batch_loss(instances)
    with ad.no_grad():
        model.batch_loss(instances)
    assert seen == [lengths, lengths, lengths]


def test_lm_forward_shares_only_within_one_dialogue_object(monkeypatch):
    """A second Dialogue object with the same id but another utterance is
    not a carrier."""
    model = tiny_model()
    d = three_turn_dialogue()
    edited = three_turn_dialogue(last_user="i want west area .")
    seen = record_lm_forward_lengths(monkeypatch, model)
    with ad.no_grad():
        model.prepare_batch([(d, 1), (edited, 2)], decode=True)
    assert seen == [[build_context(d, 1, True).length, build_context(edited, 2, True).length]]


def test_batched_prediction_over_two_dialogues_matches_single():
    """The batch-vs-single contract with the forward direction shared:
    every turn of two dialogues predicted in one batch equals each turn
    predicted alone, with values decoded."""
    model = tiny_model()
    force_gate(model, GATE_PTR)
    d, other = three_turn_dialogue(), oov_dialogue()
    instances = [(dlg, t) for dlg in (d, other) for t in range(len(dlg.turns))]
    batched = model.predict_states(instances)
    assert all(len(state) for state in batched)
    assert batched == [model.predict_state(dlg, t) for dlg, t in instances]


def test_prediction_skips_lm_heads(monkeypatch):
    """Prediction reads only the LM states: with the LM loss made to raise,
    predictions come back equal to decoding a batch whose LM loss was built
    and thrown away. Training still reaches the loss."""
    model = tiny_model()
    model.w_gate.value = np.zeros_like(model.w_gate.value)
    model.b_gate.value = np.array([50.0, -50.0, -50.0])  # force ptr: values decode
    d = tiny_dialogue()
    instances = [(d, 0), (d, 1)]
    with ad.no_grad():
        batch = model.prepare_batch(instances)
        assert batch.lm_loss.value > 0
        gates, words = model._greedy_decode(batch)
    want = [model._assemble_state(g, w) for g, w in zip(gates, words)]
    assert all(len(state) for state in want)

    def refuse(*args, **kwargs):
        raise RuntimeError("LM loss built")

    monkeypatch.setattr(model.lm, "loss", refuse)
    assert model.predict_states(instances) == want
    with pytest.raises(RuntimeError, match="LM loss built"):
        model.batch_loss(instances)


def test_prediction_frees_the_lm_states_before_the_encoder_runs(monkeypatch):
    """prepare_batch drops the LM states once they are fused into the
    encoder input, so neither direction's array is alive while the encoder
    runs in predict_states. batch_loss under ``no_grad`` (grad_check's
    finite differences) gets the LM term it gets with a graph, bit for bit:
    only ``decode`` leaves it out, not the missing graph."""
    model = tiny_model()
    d = three_turn_dialogue()
    instances = [(d, 0), (d, 2), (tiny_dialogue(), 1)]
    refs, checked = [], []
    lm_forward, encoder_forward = model.lm.forward, model.encoder.forward

    def lm_recording(*args, **kwargs):
        states = lm_forward(*args, **kwargs)
        refs[:] = [weakref.ref(node.value) for node in states]
        return states

    def encoder_checking(*args, **kwargs):
        checked.append([ref() is None for ref in refs])
        return encoder_forward(*args, **kwargs)

    monkeypatch.setattr(model.lm, "forward", lm_recording)
    monkeypatch.setattr(model.encoder, "forward", encoder_checking)
    model.predict_states(instances)
    assert checked == [[True, True]]

    _, lm_graph = model.batch_loss(instances)
    with ad.no_grad():
        _, lm_no_grad = model.batch_loss(instances)
    assert lm_graph.value > 0
    np.testing.assert_array_equal(lm_no_grad.value, lm_graph.value)


def test_prediction_peak_on_infer_woz_leaves_out_the_lm_states(monkeypatch):
    """One predict_states call over group 0 of the benchmark's seed-1
    MultiWOZ-shaped corpus (16 turns, 3,481 context rows, 400-dim, table
    built beforehand) peaks while the encoder runs. In units of rows x d
    float64 (10.6 MiB) its traced peak was 8.17 while the batch held both
    LM directions through the encoder, and is 6.41 with them dropped once
    fused (8.08 and 6.31 on later calls of the same model). At 64-dim
    decoding is the peak, and the drop does not show (11.69 units both)."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import wozgen

    dialogues, ontology, groups = wozgen.generate(1)
    model = DstModel(build_vocabulary(dialogues), ontology, seed=1)
    instances = turn_instances(groups[0])
    with ad.no_grad():
        table = model.embedding.table()
    rows = sum(build_context(d, t, model.tagging).length for d, t in instances)
    unit = rows * model.hidden_dim * 8 / 2**20
    assert peak_traced_mib(lambda: model.predict_states(instances, table)) < 7 * unit


def test_dst_loss_empty_batch_errors():
    with pytest.raises(ValueError):
        tiny_model().batch_loss([])


@pytest.mark.parametrize("decode", [False, True], ids=["train", "decode"])
def test_prepare_batch_rejects_an_empty_context(decode):
    """A turn whose context has no token is rejected by name, beside a turn
    that has one: no attention row without a context position reaches the
    softmax, which takes no mask and would read only masked logits."""
    empty = Dialogue("mute7", {"hotel"}, [DialogueTurn(0, "", " ", BeliefState())])
    with pytest.raises(ad.ShapeError, match="dialogue mute7 turn 0"):
        tiny_model().prepare_batch([(tiny_dialogue(), 1), (empty, 0)], decode=decode)


@pytest.fixture
def float32():
    """Nodes built in the test are float32; float64 is restored after it."""
    ad.set_default_dtype("float32")
    try:
        yield
    finally:
        ad.set_default_dtype("float64")


def test_float32_training_step_and_prediction(float32, monkeypatch):
    """One micro-step, with dropout, padding and an OOV copy target, keeps
    every graph node value and every gradient backward passes float32, and
    prediction runs: ``MASKED_LOGIT`` is finite in float32 too."""
    f32 = np.dtype("float32")
    model = tiny_model(dropout=0.3, word_dropout=0.2)
    passed = []
    accumulate = ad.Node.accumulate

    def spy(node, g):
        passed.append(np.asarray(g).dtype)
        accumulate(node, g)

    monkeypatch.setattr(ad.Node, "accumulate", spy)
    loss, _, _ = Trainer(model, TrainConfig()).micro_batch_loss(
        [(oov_dialogue(), 0), (oov_dialogue(), 1), (tiny_dialogue(), 0)])
    nodes = ad._topo(loss)
    assert {node.value.dtype for node in nodes} == {f32}
    assert all(np.isfinite(node.value).all() for node in nodes)
    ad.backward(loss)
    assert passed and set(passed) == {f32}
    grads = [p.grad for p in model.store.parameters() if p.grad is not None]
    assert len(grads) > 20 and {g.dtype for g in grads} == {f32}
    preds = predict_instances(model, [tiny_dialogue(), oov_dialogue()])
    assert [(p.dialogue_id, p.turn_index) for p in preds] == [
        ("toy0", 0), ("toy0", 1), ("toy1", 0), ("toy1", 1)]


def test_gradients_reach_encoder_from_both_loss_terms():
    model = tiny_model()
    d = tiny_dialogue()

    def total():
        dst, lm = model.batch_loss([(d, 1)])
        return ad.add(dst, ad.elementwise_mul(lm, 0.9))

    model.store.zero_grad()
    ad.backward(total())
    for name in ("enc.fwd.w_zr", "enc.bwd.u_h", "embedding.word", "dec.w_gate",
                 "dec.w_pgen", "lm.w_f"):
        assert np.abs(model.store[name].grad).sum() > 0, name

    err = ad.grad_check(total, model.store.parameters(),
                        eps=1e-5, max_entries_per_param=3, seed=0)
    assert err < 1e-4


def test_hidden_must_match_embedding_dim():
    with pytest.raises(ValueError):
        DstModel(tiny_vocab(), tiny_ontology(), hidden_dim=8, embedding_dim=12)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

# Every parameter of a model, in creation order: the order of the initial
# draws, so of every seeded run and every checkpoint's arrays.
PARAMETER_NAMES = [
    "embedding.word", "embedding.char",
    "lm.fwd.w_zr", "lm.fwd.u_zr", "lm.fwd.b_zr", "lm.fwd.w_h", "lm.fwd.u_h", "lm.fwd.b_h",
    "lm.bwd.w_zr", "lm.bwd.u_zr", "lm.bwd.b_zr", "lm.bwd.w_h", "lm.bwd.u_h", "lm.bwd.b_h",
    "lm.w_f", "lm.w_b",
    "enc.fwd.w_zr", "enc.fwd.u_zr", "enc.fwd.b_zr", "enc.fwd.w_h", "enc.fwd.u_h", "enc.fwd.b_h",
    "enc.bwd.w_zr", "enc.bwd.u_zr", "enc.bwd.b_zr", "enc.bwd.w_h", "enc.bwd.u_h", "enc.bwd.b_h",
    "dec.w_zr", "dec.u_zr", "dec.b_zr", "dec.w_h", "dec.u_h", "dec.b_h",
    "dec.w_gate", "dec.b_gate", "dec.w_pgen", "dec.b_pgen",
]


def test_parameter_names_and_initial_values_are_pinned():
    """A refactor that renames a parameter or reorders the draws fails here,
    not only as different criterion-9 bytes or an unreadable checkpoint."""
    model = DstModel(Vocabulary(["hotel", "east"]), Ontology([("hotel", "area")]),
                     hidden_dim=4, embedding_dim=4, seed=3)
    assert model.store.names() == PARAMETER_NAMES
    digest = hashlib.sha256()
    for name in PARAMETER_NAMES:
        digest.update(name.encode())
        digest.update(np.asarray(model.store[name].value, dtype=np.float64).tobytes())
    assert digest.hexdigest() == (
        "945f528107ee15dd85d0d1f5d0b79cdc402cb47987c3e94df40703681813a9b9")


def test_model_save_load_roundtrip(tmp_path):
    model = tiny_model()
    d = tiny_dialogue()
    before = model.predict_state(d, 1)
    path = tmp_path / "model.npz"
    model.save(path)
    loaded = DstModel.load(path)
    assert loaded.predict_state(d, 1) == before
    for name in model.store.names():
        assert (loaded.store[name].value == model.store[name].value).all()


def test_model_save_load_roundtrip_non_default_fields(tmp_path):
    model = tiny_model(tagging=False, lm_enabled=False, max_value_len=3)
    d = tiny_dialogue()
    path = tmp_path / "model.npz"
    model.save(path)
    loaded = DstModel.load(path)
    assert sorted(model.meta()) == ["embedding_dim", "hidden_dim", "lm_enabled",
                                    "max_value_len", "ontology", "tagging", "vocab"]
    for name in CHECKPOINT_FIELDS:
        assert getattr(loaded, name) == getattr(model, name), name
    assert (loaded.tagging, loaded.lm_enabled, loaded.max_value_len) == (False, False, 3)
    assert loaded.meta() == model.meta()
    for turn in range(len(d.turns)):
        assert loaded.predict_state(d, turn) == model.predict_state(d, turn)


def test_model_load_holds_one_copy_of_the_parameters(tmp_path):
    """Load builds each parameter from the checkpoint's array: no random
    initial values are drawn and then replaced, which would peak at about
    twice the parameter bytes."""
    model = DstModel(tiny_vocab(), tiny_ontology(), hidden_dim=400, embedding_dim=400)
    param_mib = sum(p.value.nbytes for p in model.store.parameters()) / 2**20
    path = tmp_path / "model.npz"
    model.save(path)
    del model
    assert peak_traced_mib(lambda: DstModel.load(path)) <= 1.3 * param_mib


def test_loaded_model_trains(tmp_path):
    """The adopted arrays are writeable: a loaded model takes a micro-step
    and an Adam update in place."""
    path = tmp_path / "model.npz"
    tiny_model().save(path)
    model = DstModel.load(path)
    before = {p.name: p.value.copy() for p in model.store.parameters()}
    trainer = Trainer(model, TrainConfig(hidden_dim=8, embedding_dim=8, dropout=0.0,
                                         word_dropout=0.0, delay_update_steps=1))
    trainer.train_step([(tiny_dialogue(), 1)])
    assert all(p.value.flags.writeable for p in model.store.parameters())
    assert any((p.value != before[p.name]).any() for p in model.store.parameters())


def test_model_save_load_roundtrip_without_npz_suffix(tmp_path):
    """The checkpoint is written to the path as given, so the same path
    loads it back."""
    model = tiny_model()
    path = tmp_path / "model.ckpt"
    model.save(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
    loaded = DstModel.load(path)
    for name in model.store.names():
        np.testing.assert_array_equal(loaded.store[name].value, model.store[name].value)


@pytest.mark.parametrize("corrupt, message", [
    (lambda s: s.pop("dec.b_gate"), r"missing: \['dec.b_gate'\], unexpected: \[\]"),
    (lambda s: s.update({"dec.extra": np.zeros(3)}),
     r"missing: \[\], unexpected: \['dec.extra'\]"),
    (lambda s: s.update({"dec.b_gate": np.zeros(4)}),
     r"parameter dec.b_gate: checkpoint shape \(4,\) vs model \(3,\)"),
], ids=["missing", "unexpected", "shape"])
def test_model_load_names_a_mismatched_parameter(tmp_path, corrupt, message):
    model = tiny_model()
    state = model.store.state_dict()
    corrupt(state)
    path = tmp_path / "model.npz"
    ad.save_checkpoint(path, state, model.meta())
    with pytest.raises(ad.CheckpointError, match=message):
        DstModel.load(path)


@pytest.mark.parametrize("key", ["hotel", "hotel-", "-area"])
def test_model_load_rejects_a_malformed_ontology_key(tmp_path, key):
    """A ``_meta`` ontology key that is not 'domain-slot' is a checkpoint
    error naming the path and the key, not a slot with an empty name."""
    model = tiny_model()
    meta = model.meta()
    meta["ontology"][0] = key
    path = tmp_path / "model.npz"
    ad.save_checkpoint(path, model.store.state_dict(), meta)
    with pytest.raises(ad.CheckpointError) as exc:
        DstModel.load(path)
    assert str(exc.value) == f"checkpoint {path}: slot name {key!r} is not 'domain-slot'"


@pytest.mark.parametrize("field, value, message", [
    ("ontology", [5], "ontology is not a list of strings"),
    ("ontology", "hotel-area", "ontology is not a list of strings"),
    ("vocab", ["i", 3], "vocab is not a list of strings"),
    ("vocab", {"i": 0}, "vocab is not a list of strings"),
    ("hidden_dim", "8", "hidden_dim is str, not int"),
    ("max_value_len", True, "max_value_len is bool, not int"),
    ("tagging", 1, "tagging is int, not bool"),
], ids=["ontology-int", "ontology-str", "vocab-int", "vocab-dict", "hidden-str",
        "max-len-bool", "tagging-int"])
def test_model_load_rejects_a_mistyped_field(tmp_path, field, value, message):
    """Each metadata field a checkpoint records must have its type; a wrong
    one is a checkpoint error naming the path and the field."""
    model = tiny_model()
    meta = model.meta()
    meta[field] = value
    path = tmp_path / "model.npz"
    ad.save_checkpoint(path, model.store.state_dict(), meta)
    with pytest.raises(ad.CheckpointError) as exc:
        DstModel.load(path)
    assert str(exc.value) == f"checkpoint {path}: {message}"


@pytest.mark.parametrize("meta", [5, "hidden_dim vocab ontology"], ids=["number", "string"])
def test_model_load_rejects_metadata_that_is_not_an_object(tmp_path, meta):
    """Metadata that parses to a number or a string is a checkpoint error
    naming the path, not a ``TypeError`` or a substring search."""
    path = tmp_path / "model.npz"
    ad.save_checkpoint(path, tiny_model().store.state_dict(), meta)
    with pytest.raises(ad.CheckpointError) as exc:
        DstModel.load(path)
    assert str(exc.value) == f"checkpoint {path}: metadata is not a JSON object"


def test_model_load_keeps_a_dash_in_a_slot_name(tmp_path):
    ontology = Ontology([("hotel", "book-day"), ("hotel", "area")])
    model = DstModel(tiny_vocab(), ontology, hidden_dim=8, embedding_dim=8, seed=5)
    model.save(tmp_path / "model.npz")
    assert model.meta()["ontology"] == ["hotel-book-day", "hotel-area"]
    assert DstModel.load(tmp_path / "model.npz").ontology.domain_slots == ontology.domain_slots


@pytest.mark.parametrize("field", CHECKPOINT_FIELDS)
def test_checkpoint_missing_field_is_named(tmp_path, field):
    model = tiny_model()
    meta = model.meta()
    del meta[field]
    path = tmp_path / "model.npz"
    ad.save_checkpoint(path, model.store.state_dict(), meta)
    with pytest.raises(ad.CheckpointError, match=field):
        DstModel.load(path)
