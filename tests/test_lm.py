import math

import numpy as np
import pytest

from lmdst import autodiff as ad
from lmdst.lm import LanguageModel

from conftest import GRU_WEIGHTS, numpy_gru
from test_model import tiny_dialogue, tiny_model


def make_lm(dim=4, vocab=6, seed=0):
    store = ad.ParameterStore(seed)
    return LanguageModel(store, dim, vocab), store


def numpy_bigru_lm(emb, ids, lm):
    """Independent straight-line recomputation of the bi-GRU LM loss."""
    f = numpy_gru(lm.fwd, emb)
    b = numpy_gru(lm.bwd, emb, reverse=True)

    def nll(hiddens, w, targets):
        total = 0.0
        for h, t in zip(hiddens, targets):
            logits = h @ w
            logits = logits - logits.max()
            total += np.log(np.exp(logits).sum()) - logits[t]
        return total

    t_len = len(ids)
    loss = 0.0
    if t_len > 1:
        loss += nll(f[:-1], lm.w_f.value, ids[1:])
        loss += nll(b[1:], lm.w_b.value, ids[:-1])
    return f, b, loss




def run_lm(lm, emb, ids):
    """(summed states, loss) of one sequence: the batch ``lengths=[T]``."""
    f, b = lm.forward(ad.Node(emb), [len(ids)])
    return ad.add(f, b), lm.loss(f, b, ids, [len(ids)])


def test_distributions_sum_to_one():
    """The next-word and previous-word heads are normalized distributions.

    With the other head's projection zeroed its term is exactly log |V|, so
    at T=2 the loss gives one head's probability of each possible target.
    """
    rng = np.random.default_rng(5)
    emb = rng.normal(size=(2, 4))
    for zeroed, varied in (("w_b", 1), ("w_f", 0)):
        lm, _ = make_lm(seed=5)
        getattr(lm, zeroed).value = np.zeros_like(getattr(lm, zeroed).value)
        probs = []
        for v in range(6):
            ids = [3, 3]
            ids[varied] = v
            _, loss = run_lm(lm, emb, ids)
            probs.append(math.exp(math.log(6) - float(loss.value)))
        assert min(probs) >= 0
        assert abs(sum(probs) - 1.0) < 1e-12


def test_zero_projection_gives_uniform():
    lm, _ = make_lm(vocab=5, seed=1)
    lm.w_f.value = np.zeros_like(lm.w_f.value)
    lm.w_b.value = np.zeros_like(lm.w_b.value)
    _, loss = run_lm(lm, np.random.default_rng(1).normal(size=(4, 4)), [0, 4, 2, 1])
    # 2 * (T - 1) predictions, each of probability 1/|V|
    assert abs(math.exp(-float(loss.value) / 6) - 0.2) < 1e-15


def test_forward_matches_scalar_recomputation():
    lm, _ = make_lm(dim=3, vocab=4, seed=2)
    rng = np.random.default_rng(2)
    emb = rng.normal(size=(3, 3))
    ids = [1, 3, 0]
    got_f, got_b = lm.forward(ad.Node(emb), [3])
    got = lm.loss(got_f, got_b, ids, [3])
    f, b, loss = numpy_bigru_lm(emb, ids, lm)
    np.testing.assert_allclose(got_f.value, f, atol=1e-12)
    np.testing.assert_allclose(got_b.value, b, atol=1e-12)
    assert abs(float(got.value) - loss) < 1e-12

    # the same sequence stacked between two others: its rows and its share
    # of the summed loss are unchanged
    others = [(rng.normal(size=(2, 3)), [2, 2]), (rng.normal(size=(4, 3)), [0, 1, 3, 1])]
    stacked_f, stacked_b = lm.forward(
        ad.Node(np.concatenate([others[0][0], emb, others[1][0]])), [2, 3, 4])
    stacked_loss = lm.loss(stacked_f, stacked_b, others[0][1] + ids + others[1][1],
                           [2, 3, 4])
    np.testing.assert_allclose(stacked_f.value[2:5], f, atol=1e-12)
    np.testing.assert_allclose(stacked_b.value[2:5], b, atol=1e-12)
    want = loss + sum(numpy_bigru_lm(e, i, lm)[2] for e, i in others)
    assert abs(float(stacked_loss.value) - want) < 1e-12


def test_loss_t1_is_zero():
    lm, _ = make_lm()
    _, loss = run_lm(lm, np.random.default_rng(0).normal(size=(1, 4)), [2])
    assert float(loss.value) == 0.0


def test_loss_uniform_t3_v4():
    lm, _ = make_lm(vocab=4, seed=3)
    lm.w_f.value = np.zeros_like(lm.w_f.value)
    lm.w_b.value = np.zeros_like(lm.w_b.value)
    _, loss = run_lm(lm, np.random.default_rng(3).normal(size=(3, 4)), [0, 1, 2])
    assert abs(float(loss.value) - 4 * math.log(4)) < 1e-12


def test_loss_seeded_t5_v12_matches_oracle():
    lm, _ = make_lm(dim=5, vocab=12, seed=7)
    rng = np.random.default_rng(7)
    emb = rng.normal(size=(5, 5))
    ids = rng.integers(0, 12, size=5)
    _, got = run_lm(lm, emb, ids)
    _, _, want = numpy_bigru_lm(emb, ids.tolist(), lm)
    assert abs(float(got.value) - want) < 1e-9


def test_loss_nonnegative_random():
    rng = np.random.default_rng(9)
    for seed in range(5):
        lm, _ = make_lm(vocab=7, seed=seed)
        t_len = int(rng.integers(1, 7))
        emb = rng.normal(size=(t_len, 4))
        ids = rng.integers(0, 7, size=t_len)
        assert float(run_lm(lm, emb, ids)[1].value) >= 0.0


def test_reversal_swaps_directional_roles():
    """Reversing the sequence (and swapping W_f/W_b plus the two GRUs) swaps
    the forward and backward loss terms. Each term is isolated by zeroing
    the other head's projection, which makes that head's term (T-1) log |V|."""
    rng = np.random.default_rng(11)
    emb = rng.normal(size=(4, 3))
    ids = rng.integers(0, 5, size=4)
    for zeroed in ("w_b", "w_f"):
        lm, _ = make_lm(dim=3, vocab=5, seed=11)
        getattr(lm, zeroed).value = np.zeros_like(getattr(lm, zeroed).value)
        term = float(run_lm(lm, emb, ids)[1].value) - 3 * math.log(5)

        mirrored, _ = make_lm(dim=3, vocab=5, seed=99)
        for mine, theirs in ((mirrored.fwd, lm.bwd), (mirrored.bwd, lm.fwd)):
            for w in GRU_WEIGHTS:
                getattr(mine, w).value = getattr(theirs, w).value.copy()
        mirrored.w_f.value = lm.w_b.value.copy()
        mirrored.w_b.value = lm.w_f.value.copy()
        rev_term = float(run_lm(mirrored, emb[::-1].copy(), ids[::-1])[1].value) - 3 * math.log(5)
        assert abs(rev_term - term) < 1e-9


def test_fuse_identity_when_hiddens_zero():
    """All-zero LM GRU weights give all-zero states, so fusion leaves the
    embeddings, and everything the encoder computes from them, unchanged."""
    fused_model = tiny_model()
    for cell in (fused_model.lm.fwd, fused_model.lm.bwd):
        for p in (getattr(cell, w) for w in GRU_WEIGHTS):
            p.value = np.zeros_like(p.value)
    rng = np.random.default_rng(4)
    states, _ = run_lm(fused_model.lm, rng.normal(size=(5, 8)), rng.integers(0, 12, size=5))
    np.testing.assert_array_equal(states.value, 0.0)

    plain_model = tiny_model(lm_enabled=False)
    d = tiny_dialogue()
    fused = fused_model.prepare_batch([(d, 0), (d, 1)])
    plain = plain_model.prepare_batch([(d, 0), (d, 1)])
    np.testing.assert_array_equal(fused.final_all.value, plain.final_all.value)
    np.testing.assert_array_equal(fused.hiddens.value, plain.hiddens.value)


def test_fuse_shape_and_dim_check():
    """States are fused with the embeddings by addition, so the LM has one
    width, its input's: an LM of another width refuses the embedded rows."""
    emb = ad.Node(np.random.default_rng(6).normal(size=(5, 4)))
    ids = np.arange(5)
    lm, _ = make_lm(dim=4, vocab=5, seed=6)
    states, _ = run_lm(lm, emb.value, ids)
    assert ad.add(emb, states).shape == (5, 4)

    bad_lm, _ = make_lm(dim=3, vocab=5, seed=6)
    with pytest.raises(ad.ShapeError):
        run_lm(bad_lm, emb.value, ids)


def test_lm_gradient_matches_finite_differences():
    lm, store = make_lm(dim=3, vocab=5, seed=8)
    rng = np.random.default_rng(8)
    emb_p = store.new("emb", (6, 3), 1.0)
    emb_p.value = rng.normal(size=(6, 3))
    ids = rng.integers(0, 5, size=6)

    def loss():
        return lm.loss(*lm.forward(emb_p, [4, 2]), ids, [4, 2])

    err = ad.grad_check(loss, store.parameters(), eps=1e-5)
    assert err < 1e-4


def test_empty_sequence_rejected():
    lm, _ = make_lm()
    with pytest.raises(ad.ShapeError):
        lm.forward(ad.Node(np.zeros((0, 4))), [0])
    f, b = lm.forward(ad.Node(np.zeros((3, 4))), [3])
    with pytest.raises(ad.ShapeError):
        lm.loss(f, b, [1, 2], [3])


def test_forward_with_prefix_groups_reads_the_carrier_rows():
    """A sequence whose rows are the first rows of its group's carrier reads
    its forward states from the carrier's run, which equal its own up to
    rounding; the backward states run per sequence and do not change.
    Gradients flow through the gathers."""
    lm, store = make_lm(dim=3, vocab=5, seed=12)
    rng = np.random.default_rng(12)
    carrier, other = rng.normal(size=(5, 3)), rng.normal(size=(2, 3))
    # sequence 0 is the first 3 rows of sequence 2, sequence 1 is alone
    emb_p = store.new("emb", (10, 3), 1.0)
    emb_p.value = np.concatenate([carrier[:3], other, carrier])
    lengths, groups = [3, 2, 5], [2, 1, 2]
    plain_f, plain_b = lm.forward(emb_p, lengths)
    f, b = lm.forward(emb_p, lengths, groups)
    np.testing.assert_allclose(f.value, plain_f.value, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(b.value, plain_b.value)

    ids = rng.integers(0, 5, size=10)
    err = ad.grad_check(lambda: lm.loss(*lm.forward(emb_p, lengths, groups), ids, lengths),
                        store.parameters(), eps=1e-5)
    assert err < 1e-4


def record_fwd_lengths(monkeypatch, lm):
    """The ``lengths`` of every forward-direction recurrence, in call order."""
    seen = []
    gru = ad.gru_sequence_batch

    def recording(cell, xs, lengths, *args, **kwargs):
        if cell is lm.fwd:
            seen.append([int(n) for n in lengths])
        return gru(cell, xs, lengths, *args, **kwargs)

    monkeypatch.setattr(ad, "gru_sequence_batch", recording)
    return seen


def test_prefix_group_carrier_need_not_be_last(monkeypatch):
    """A group's longest sequence carries wherever it stands: the forward
    direction runs the carriers, in stacked order."""
    lm, _ = make_lm(dim=3, vocab=5, seed=13)
    rng = np.random.default_rng(13)
    carrier, other = rng.normal(size=(5, 3)), rng.normal(size=(2, 3))
    xs = ad.Node(np.concatenate([carrier, other, carrier[:3]]))
    lengths = [5, 2, 3]
    plain_f, _ = lm.forward(xs, lengths)
    seen = record_fwd_lengths(monkeypatch, lm)
    f, _ = lm.forward(xs, lengths, ["d", "e", "d"])
    assert seen == [[5, 2]]
    np.testing.assert_allclose(f.value, plain_f.value, rtol=0, atol=1e-12)


def test_prefix_group_first_of_equal_lengths_carries(monkeypatch):
    """Among sequences of equal length the first carries: the second reads
    the first's states (its own rows are never run forward)."""
    lm, _ = make_lm(dim=3, vocab=5, seed=14)
    rng = np.random.default_rng(14)
    first, second = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    xs = ad.Node(np.concatenate([first, second]))
    alone, _ = lm.forward(ad.Node(first), [3])
    seen = record_fwd_lengths(monkeypatch, lm)
    f, _ = lm.forward(xs, [3, 3], ["d", "d"])
    assert seen == [[3]]
    np.testing.assert_array_equal(f.value, np.concatenate([alone.value, alone.value]))


@pytest.mark.parametrize("carriers", [[0, 1], [2, 1, 2, 2], [], [0]])
def test_forward_rejects_carriers_that_do_not_carry(carriers):
    """One prefix-group key per sequence: with fewer keys some sequence has no
    carrier, with more a key names no sequence."""
    lm, _ = make_lm(dim=3, vocab=5)
    with pytest.raises(ad.ShapeError,
                       match=f"{len(carriers)} prefix groups for 3 sequences"):
        lm.forward(ad.Node(np.zeros((10, 3))), [3, 2, 5], carriers)
