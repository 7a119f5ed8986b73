import json
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from conftest import GRU_WEIGHTS, peak_traced_mib
from lmdst import autodiff as ad
from lmdst.training import Adam


def make_param(store, name, shape, rng):
    p = store.new(name, shape, 1.0)
    p.value = rng.normal(size=shape)
    return p


def test_softmax_uniform_logits():
    out = ad.softmax(ad.Node(np.zeros(3)))
    np.testing.assert_allclose(out.value, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.normal(scale=5.0, size=(rng.integers(1, 6), rng.integers(1, 9)))
        p = ad.softmax(ad.Node(x)).value
        assert (p >= 0).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_softmax_empty_axis_errors():
    with pytest.raises(ad.ShapeError):
        ad.softmax(ad.Node(np.zeros((2, 0))))


def test_sigmoid_at_zero():
    assert ad.sigmoid(ad.Node(np.zeros(1))).value[0] == 0.5


def test_shape_error_names_both_shapes():
    a = ad.Node(np.zeros((2, 3)))
    b = ad.Node(np.zeros((4, 5)))
    with pytest.raises(ad.ShapeError) as exc:
        ad.matmul(a, b)
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_forward_passes_bit_identical():
    rng = np.random.default_rng(11)
    x = ad.Node(rng.normal(size=(4, 5)))
    w = ad.Node(rng.normal(size=(5, 3)))

    def run():
        return ad.softmax(ad.sigmoid(ad.matmul(x, w))).value.copy()

    first, second = run(), run()
    assert (first == second).all()


# ---------------------------------------------------------------------------
# finite differences over every primitive (>= 100 random shape/seed cases)
# ---------------------------------------------------------------------------

def _fd_case(build_loss, params, seed, tol=1e-4):
    err = ad.grad_check(build_loss, params, eps=1e-5, seed=seed)
    assert err < tol, f"finite-difference mismatch: {err}"


@pytest.mark.parametrize("seed", range(12))
def test_fd_add_sub_mul(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 6, size=2))
    store = ad.ParameterStore(seed)
    a = make_param(store, "a", shape, rng)
    b = make_param(store, "b", shape, rng)
    c = make_param(store, "c", (1, shape[1]), rng)  # broadcast operand

    def loss():
        return ad.sum_all(ad.elementwise_mul(ad.add(a, c), b))

    _fd_case(loss, [a, b, c], seed)


@pytest.mark.parametrize("seed", range(12))
def test_fd_matmul(seed):
    rng = np.random.default_rng(100 + seed)
    m, k, n = rng.integers(1, 6, size=3)
    store = ad.ParameterStore(seed)
    a = make_param(store, "a", (m, k), rng)
    b = make_param(store, "b", (k, n), rng)

    def loss():
        return ad.sum_all(ad.matmul(a, b))

    err = ad.grad_check(loss, [a, b], eps=1e-5, seed=seed)
    assert err < 1e-6


@pytest.mark.parametrize("seed", range(12))
def test_fd_activations_softmax(seed):
    rng = np.random.default_rng(200 + seed)
    shape = (int(rng.integers(1, 5)), int(rng.integers(2, 7)))
    store = ad.ParameterStore(seed)
    a = make_param(store, "a", shape, rng)

    def loss():
        s = ad.softmax(ad.sigmoid(a))
        return ad.sum_all(ad.elementwise_mul(s, a))

    _fd_case(loss, [a], seed)


@pytest.mark.parametrize("seed", range(10))
def test_fd_concat_transpose_slice(seed):
    rng = np.random.default_rng(300 + seed)
    store = ad.ParameterStore(seed)
    a = make_param(store, "a", (3, 4), rng)
    b = make_param(store, "b", (3, 2), rng)

    def loss():
        cat = ad.concat(a, b, axis=1)
        t = ad.transpose(cat)
        part = ad.embedding_lookup(t, [1, 2, 3])  # the row slice 1:4
        return ad.sum_all(ad.elementwise_mul(part, part))

    _fd_case(loss, [a, b], seed)


@pytest.mark.parametrize("seed", range(10))
def test_fd_embedding_lookup(seed):
    rng = np.random.default_rng(400 + seed)
    store = ad.ParameterStore(seed)
    table = make_param(store, "table", (7, 4), rng)
    idx = rng.integers(0, 7, size=9)  # repeated rows accumulate

    def loss():
        emb = ad.embedding_lookup(table, idx)
        return ad.sum_all(ad.elementwise_mul(emb, emb))

    _fd_case(loss, [table], seed)


@pytest.mark.parametrize("seed", range(10))
def test_fd_cross_entropy(seed):
    rng = np.random.default_rng(500 + seed)
    store = ad.ParameterStore(seed)
    logits = make_param(store, "logits", (1, 6), rng)  # a single row
    t = int(rng.integers(0, 6))

    def loss():
        return ad.cross_entropy_rows(logits, [t])

    _fd_case(loss, [logits], seed)


@pytest.mark.parametrize("seed", range(10))
def test_fd_cross_entropy_rows_and_nll(seed):
    rng = np.random.default_rng(600 + seed)
    store = ad.ParameterStore(seed)
    logits = make_param(store, "logits", (5, 7), rng)
    targets = rng.integers(0, 7, size=5)
    kept = np.flatnonzero(rng.integers(0, 2, size=5))  # the rows scored, maybe none
    copy_logits = make_param(store, "copy_logits", (5, 3), rng)
    gen_logits = make_param(store, "gen_logits", (5, 1), rng)
    copy_ids = np.tile(targets[:, None], 3)
    copy_ids[:, 1] = rng.integers(0, 7, size=5)

    def loss():
        rows = ad.embedding_lookup(logits, kept)
        ce = ad.cross_entropy_rows(rows, targets[kept])
        nll = ad.copy_nll_rows(rows, ad.embedding_lookup(copy_logits, kept),
                               ad.embedding_lookup(gen_logits, kept), targets[kept],
                               copy_ids[kept], np.ones((kept.size, 3), dtype=bool))
        return ad.add(ce, nll)

    _fd_case(loss, [logits], seed)


@pytest.mark.parametrize("seed", range(10))
def test_fd_scatter_pad_tile(seed):
    rng = np.random.default_rng(700 + seed)
    store = ad.ParameterStore(seed)
    w = make_param(store, "w", (3, 6), rng)
    v = make_param(store, "v", (1, 4), rng)
    ids = rng.integers(0, 5, size=6)

    row_ids = rng.integers(0, 5, size=(3, 6))  # column ids per row

    def loss():
        sc = ad.scatter_cols(ad.softmax(w), ids, 5)
        sc_rows = ad.scatter_cols(ad.sigmoid(w), row_ids, 5)
        tiled = ad.embedding_lookup(v, np.zeros(3, dtype=np.intp))  # row repeated 3x
        padded = ad.concat(tiled, ad.Node(np.zeros((3, 1))), axis=1)
        return ad.sum_all(ad.elementwise_mul(ad.add(sc, sc_rows), padded))

    _fd_case(loss, [w, v], seed)


@pytest.mark.parametrize("seed", range(8))
def test_fd_bmm(seed):
    rng = np.random.default_rng(720 + seed)
    store = ad.ParameterStore(seed)
    rows = make_param(store, "rows", (6, 4), rng)    # 3 groups of 2 rows
    stack = make_param(store, "stack", (6, 4), rng)  # 3 groups of 2 rows
    b = make_param(store, "b", (3, 5, 4), rng)
    c = make_param(store, "c", (3, 4, 2), rng)
    uneven = make_param(store, "uneven", (4, 4), rng)  # groups of 3, 0 and 1 rows

    def loss():
        scores = ad.bmm(rows, b, [2, 2, 2], transpose_b=True)  # (6, 5)
        out = ad.bmm(stack, c, [2, 2, 2])                      # (6, 2)
        picked = ad.bmm(uneven, b, [3, 0, 1], transpose_b=True)  # (4, 5)
        return ad.add(ad.add(ad.sum_all(ad.elementwise_mul(scores, scores)),
                             ad.sum_all(ad.elementwise_mul(out, ad.sigmoid(out)))),
                      ad.sum_all(ad.elementwise_mul(picked, ad.sigmoid(picked))))

    _fd_case(loss, store.parameters(), seed)


def test_bmm_matches_per_group_matmul():
    rng = np.random.default_rng(725)
    a, b = rng.normal(size=(6, 4)), rng.normal(size=(3, 5, 4))
    out = ad.bmm(a, b, [2, 2, 2], transpose_b=True).value
    assert out.shape == (6, 5)
    for i in range(3):
        np.testing.assert_allclose(out[2 * i:2 * i + 2], a[2 * i:2 * i + 2] @ b[i].T,
                                   rtol=0, atol=1e-14)
    with pytest.raises(ad.ShapeError):
        ad.bmm(a, b, [2, 2, 2])  # k = 5 does not match a's 4 columns
    with pytest.raises(ad.ShapeError):
        ad.bmm(rng.normal(size=(7, 4)), b, [2, 2, 2], transpose_b=True)  # 7 rows, 6 counted
    with pytest.raises(ad.ShapeError):
        ad.bmm(a.reshape(3, 2, 4), b, [2, 2, 2], transpose_b=True)  # a must be 2-d rows
    # uneven groups: the same product on each group's own rows, bit for bit
    # equal to another grouping where the counts agree
    counts = [1, 0, 3]
    out = ad.bmm(a[:4], b, counts, transpose_b=True).value
    assert out.shape == (4, 5)
    np.testing.assert_array_equal(out[:1], a[:1] @ b[0].T)
    np.testing.assert_array_equal(out[1:], a[1:4] @ b[2].T)
    np.testing.assert_array_equal(ad.bmm(a, b, [2, 2, 2], transpose_b=True).value[2:4],
                                  ad.bmm(a[2:4], b, [0, 2, 0], transpose_b=True).value)
    for bad in ([1, 1, 1], [2, 3, -1], [4]):
        with pytest.raises(ad.ShapeError):
            ad.bmm(a[:4], b, bad, transpose_b=True)


def test_softmax_all_true_mask_is_the_plain_softmax():
    """``mask`` of all True gives softmax's value and gradient bit for bit."""
    rng = np.random.default_rng(736)
    x, g = rng.normal(scale=4.0, size=(4, 6)), rng.normal(size=(4, 6))
    values, grads = [], []
    for mask in (None, np.ones((4, 6), dtype=bool)):
        a = ad.Node(x.copy(), requires_grad=True)
        p = ad.softmax(a, mask=mask)
        ad.backward(ad.sum_all(ad.elementwise_mul(p, ad.Node(g))))
        values.append(p.value)
        grads.append(a.grad)
    np.testing.assert_array_equal(values[0], values[1])
    np.testing.assert_array_equal(grads[0], grads[1])


@pytest.mark.parametrize("seed", range(8))
def test_fd_masked_softmax(seed):
    rng = np.random.default_rng(730 + seed)
    store = ad.ParameterStore(seed)
    a = make_param(store, "a", (4, 5), rng)
    keep = np.arange(5) < np.array([5, 2, 1, 4])[:, None]  # padded rows, one of length 1
    w = ad.Node(rng.normal(size=(4, 5)))

    def loss():
        p = ad.softmax(a, mask=keep)
        return ad.sum_all(ad.elementwise_mul(ad.elementwise_mul(p, w), ad.sigmoid(a)))

    _fd_case(loss, [a], seed)


def test_masked_softmax_zeroes_the_padding():
    rng = np.random.default_rng(735)
    x = rng.normal(scale=5.0, size=(3, 6))
    keep = np.arange(6) < np.array([6, 3, 1])[:, None]
    p = ad.softmax(ad.Node(x), mask=keep).value
    assert (p[~keep] == 0.0).all()
    for row, n in zip(range(3), (6, 3, 1)):
        np.testing.assert_allclose(p[row, :n], ad.softmax(ad.Node(x[row, :n])).value,
                                   rtol=0, atol=1e-15)
    with pytest.raises(ad.ShapeError):
        ad.softmax(ad.Node(x), mask=np.zeros((3, 6), dtype=bool))


@pytest.mark.parametrize("seed", range(8))
def test_fd_copy_nll_rows(seed):
    """Padded rows, an extended (copy-only) target, a vocabulary target no
    position holds, and a subset of the rows scored."""
    rng = np.random.default_rng(740 + seed)
    store = ad.ParameterStore(seed)
    vocab = make_param(store, "vocab", (5, 6), rng)
    copy = make_param(store, "copy", (5, 4), rng)
    gen = make_param(store, "gen", (5, 1), rng)
    keep = np.arange(4) < np.array([4, 2, 3, 1, 4])[:, None]
    ids = np.array([[6, 1, 6, 2], [6, 3, 0, 0], [1, 7, 6, 0], [6, 0, 0, 0], [2, 2, 5, 6]])
    targets = np.array([6, 3, 4, 6, 2])  # row 2: 4 is held by no position
    kept = np.arange(5 if seed % 2 else 4)  # odd seeds score the last row too

    def loss():
        return ad.copy_nll_rows(*(ad.embedding_lookup(p, kept) for p in (vocab, copy, gen)),
                                targets[kept], ids[kept], keep[kept])

    _fd_case(loss, store.parameters(), seed)


@pytest.mark.parametrize("seed", range(4))
def test_fd_pad_sequences(seed):
    rng = np.random.default_rng(745 + seed)
    store = ad.ParameterStore(seed)
    xs = make_param(store, "xs", (7, 3), rng)
    w = ad.Node(rng.normal(size=(3, 4, 3)))

    def loss():
        padded = ad.pad_sequences(xs, [4, 1, 2])
        return ad.sum_all(ad.elementwise_mul(ad.elementwise_mul(padded, padded), w))

    _fd_case(loss, [xs], seed)
    padded = ad.pad_sequences(xs, [4, 1, 2]).value
    np.testing.assert_array_equal(padded[1, 0], xs.value[4])
    assert (padded[1, 1:] == 0).all() and (padded[2, 2:] == 0).all()


@pytest.mark.parametrize("seed", range(10))
def test_fd_gather_segment_sum(seed):
    rng = np.random.default_rng(750 + seed)
    store = ad.ParameterStore(seed)
    table = make_param(store, "table", (6, 3), rng)
    counts = [0, 3, 1, 0, 4, 2]  # empty segments give zero rows
    # table rows shared across segments, one repeated within a segment
    idx = np.concatenate([rng.choice(6, size=3, replace=False), [2],
                          [0, 5, 5, 1], rng.choice(6, size=2, replace=False)])
    offsets = np.concatenate([[0], np.cumsum(counts)])
    weights = rng.uniform(0.1, 1.0, size=6)

    def loss():
        out = ad.gather_segment_sum(table, idx, offsets, weights,
                                    ad.segment_grouping(idx, offsets))
        return ad.sum_all(ad.elementwise_mul(out, out))

    _fd_case(loss, [table], seed)


def test_gather_segment_sum_matches_dense_product():
    rng = np.random.default_rng(760)
    table = rng.normal(size=(5, 3))
    idx, offsets, weights = [4, 0, 0, 2, 1], [0, 0, 3, 5], [2.0, 0.5, -1.0]
    dense = np.zeros((3, 5))
    np.add.at(dense, (np.repeat(np.arange(3), np.diff(offsets)), idx), 1.0)
    dense *= np.array(weights)[:, None]
    out = ad.gather_segment_sum(table, idx, offsets, weights,
                                ad.segment_grouping(idx, offsets)).value
    np.testing.assert_allclose(out, dense @ table, rtol=0, atol=1e-12)
    assert (out[0] == 0).all()


def test_gather_segment_sum_precomputed_grouping():
    """A grouping built once gives the table gradient of the dense product."""
    rng = np.random.default_rng(770)
    idx, offsets, weights = [4, 0, 0, 2, 1, 4], [0, 0, 3, 5, 6], [2.0, 0.5, -1.0, 3.0]
    g = rng.normal(size=(4, 3))
    table = ad.Node(rng.normal(size=(5, 3)), requires_grad=True)
    out = ad.gather_segment_sum(table, idx, offsets, weights, ad.segment_grouping(idx, offsets))
    ad.backward(ad.sum_all(ad.elementwise_mul(out, ad.Node(g))))
    dense = np.zeros((4, 5))
    np.add.at(dense, (np.repeat(np.arange(4), np.diff(offsets)), idx), 1.0)
    dense *= np.array(weights)[:, None]
    np.testing.assert_allclose(table.grad, dense.T @ g, rtol=0, atol=1e-12)
    assert [a.size for a in ad.segment_grouping([], [0, 0])] == [0, 0, 0]


def test_gather_segment_sum_bytes_equal_the_row_reduction():
    """Reducing along the contiguous axis of the transposed gather gives the
    bytes of the plain row form, ``np.add.reduceat(table[idx], starts,
    axis=0)``, forward and backward: empty segments, segments of 1-7 and of
    8-128 entries, and a table row that more than 128 entries read."""
    rng = np.random.default_rng(780)
    n_table, dim = 300, 37
    counts = np.concatenate([[0, 0], np.arange(1, 8), rng.integers(8, 129, size=20), [0],
                             rng.integers(0, 6, size=40)])
    offsets = np.concatenate([[0], np.cumsum(counts)])
    idx = rng.integers(1, n_table, size=offsets[-1])
    idx[rng.choice(idx.size, size=200, replace=False)] = 0  # one group of 200 entries
    weights = rng.uniform(0.05, 1.0, size=counts.size)
    table = ad.Node(rng.normal(size=(n_table, dim)), requires_grad=True)
    g = rng.normal(size=(counts.size, dim))

    rows, first, table_rows = grouping = ad.segment_grouping(idx, offsets)
    out = ad.gather_segment_sum(table, idx, offsets, weights, grouping)
    ad.backward(ad.sum_all(ad.elementwise_mul(out, ad.Node(g))))

    starts, filled = offsets[:-1], counts > 0
    want = np.zeros_like(out.value)
    want[filled] = (np.add.reduceat(table.value[idx], starts[filled], axis=0)
                    * weights[filled, None])
    assert np.diff(np.append(first, idx.size)).max() == 200
    want_grad = np.zeros_like(table.value)
    want_grad[table_rows] += np.add.reduceat((g * weights[:, None])[rows], first, axis=0)
    assert out.value.tobytes() == want.tobytes()
    assert table.grad.tobytes() == want_grad.tobytes()


def test_gather_segment_sum_rejects_bad_segments():
    table = np.zeros((4, 2))
    for idx, offsets, weights in (([0, 1], [0, 1], [1.0]),          # last offset short
                                  ([0, 1], [0, 2, 1, 2], [1.0] * 3),  # decreasing
                                  ([0, 4], [0, 2], [1.0]),          # index out of range
                                  ([0, 1], [0, 2], [1.0, 1.0])):    # weight per segment
        with pytest.raises(ad.ShapeError):  # before the grouping is read
            ad.gather_segment_sum(table, idx, offsets, weights, None)


@pytest.mark.parametrize("seed", range(8))
def test_fd_gru_cell_and_sequence(seed):
    rng = np.random.default_rng(800 + seed)
    d_in, d_h, t_len = int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(2, 6))
    store = ad.ParameterStore(seed)
    cell = ad.GruCell(store, "gru", d_in, d_h)
    xs = make_param(store, "xs", (t_len, d_in), rng)

    def loss():
        h = ad.gru_sequence_batch(cell, xs, [t_len], reverse=bool(seed % 2))
        return ad.sum_all(ad.elementwise_mul(h, h))

    _fd_case(loss, store.parameters(), seed)


# ---------------------------------------------------------------------------
# GRU semantics
# ---------------------------------------------------------------------------

def _zero_cell(d_in, d_h):
    store = ad.ParameterStore(0)
    cell = ad.GruCell(store, "g", d_in, d_h)
    for p in store.parameters():
        p.value = np.zeros_like(p.value)
    return cell


def test_gru_zero_weights_halves_state():
    cell = _zero_cell(3, 4)
    h_prev = np.array([[1.0, -2.0, 0.5, 3.0]])
    out = cell.step(ad.Node(np.ones((1, 3))), ad.Node(h_prev))
    np.testing.assert_allclose(out.value, 0.5 * h_prev, atol=1e-15)


def test_gru_zero_input_zero_weights():
    cell = _zero_cell(2, 3)
    h_prev = np.array([[0.2, -0.4, 1.0]])
    out = cell.step(ad.Node(np.zeros((1, 2))), ad.Node(h_prev))
    np.testing.assert_allclose(out.value, 0.5 * h_prev, atol=1e-15)


def scalar_gru_step(x, h, w_zr, u_zr, b_zr, w_h, u_h, b_h):
    """Independent plain-python recomputation of one GRU step."""
    d = h.shape[0]
    z = [0.0] * d
    r = [0.0] * d
    for j in range(d):
        az = b_zr[j] + sum(x[i] * w_zr[i][j] for i in range(len(x)))
        az += sum(h[i] * u_zr[i][j] for i in range(d))
        ar = b_zr[d + j] + sum(x[i] * w_zr[i][d + j] for i in range(len(x)))
        ar += sum(h[i] * u_zr[i][d + j] for i in range(d))
        z[j] = 1.0 / (1.0 + math.exp(-az))
        r[j] = 1.0 / (1.0 + math.exp(-ar))
    out = [0.0] * d
    for j in range(d):
        ac = b_h[j] + sum(x[i] * w_h[i][j] for i in range(len(x)))
        ac += sum(r[i] * h[i] * u_h[i][j] for i in range(d))
        c = math.tanh(ac)
        out[j] = (1.0 - z[j]) * h[j] + z[j] * c
    return np.array(out)


def test_gru_matches_scalar_oracle():
    rng = np.random.default_rng(17)
    store = ad.ParameterStore(17)
    cell = ad.GruCell(store, "g", 3, 4)
    x = rng.normal(size=3)
    h = rng.normal(size=4)
    got = cell.step(ad.Node(x[None, :]), ad.Node(h[None, :])).value[0]
    want = scalar_gru_step(
        x.tolist(), h, cell.w_zr.value.tolist(), cell.u_zr.value.tolist(),
        cell.b_zr.value.tolist(), cell.w_h.value.tolist(), cell.u_h.value.tolist(),
        cell.b_h.value.tolist())
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_gru_sequence_matches_stepwise_composition():
    rng = np.random.default_rng(23)
    store = ad.ParameterStore(23)
    cell = ad.GruCell(store, "g", 3, 5)
    xs = rng.normal(size=(6, 3))

    fused = ad.gru_sequence_batch(cell, ad.Node(xs), [6]).value
    h = ad.Node(np.zeros((1, 5)))
    stepped = []
    for t in range(6):
        h = cell.step(ad.Node(xs[t:t + 1]), h)
        stepped.append(h.value[0])
    np.testing.assert_allclose(fused, np.array(stepped), rtol=0, atol=1e-12)

    rev = ad.gru_sequence_batch(cell, ad.Node(xs), [6], reverse=True).value
    h = ad.Node(np.zeros((1, 5)))
    stepped_rev = [None] * 6
    for t in range(5, -1, -1):
        h = cell.step(ad.Node(xs[t:t + 1]), h)
        stepped_rev[t] = h.value[0]
    np.testing.assert_allclose(rev, np.array(stepped_rev), rtol=0, atol=1e-12)


def test_gru_sequence_gradients_match_composed_path():
    rng = np.random.default_rng(29)
    store = ad.ParameterStore(29)
    cell = ad.GruCell(store, "g", 2, 3)
    xs = store.new("xs", (5, 2), 1.0)
    xs.value = rng.normal(size=(5, 2))

    store.zero_grad()
    loss = ad.sum_all(ad.elementwise_mul(ad.gru_sequence_batch(cell, xs, [5]),
                                         ad.gru_sequence_batch(cell, xs, [5])))
    ad.backward(loss)
    fused_grads = {p.name: p.grad.copy() for p in store.parameters()}

    store.zero_grad()
    h = ad.Node(np.zeros((1, 3)))
    rows = []
    for t in range(5):
        h = cell.step(ad.embedding_lookup(xs, [t]), h)
        rows.append(h)
    acc = None
    for r in rows:
        sq = ad.sum_all(ad.elementwise_mul(r, r))
        acc = sq if acc is None else ad.add(acc, sq)
    ad.backward(acc)
    for p in store.parameters():
        np.testing.assert_allclose(p.grad, fused_grads[p.name], rtol=0, atol=1e-12)


@pytest.mark.parametrize("reverse", [False, True])
def test_gru_sequence_batch_matches_per_example(reverse):
    """Stacked multi-sequence runs must equal one-sequence runs, values and
    gradients both (the batching is a pure performance measure). The lengths
    are unsorted and tied, so the kernel's length sort permutes the
    sequences and their start states."""
    rng = np.random.default_rng(31)
    store = ad.ParameterStore(31)
    cell = ad.GruCell(store, "g", 3, 4)
    lengths = [5, 1, 3, 5]
    xs_parts = [rng.normal(size=(n, 3)) for n in lengths]
    stacked = store.new("xs", (sum(lengths), 3), 1.0)
    stacked.value = np.concatenate(xs_parts)
    h0 = make_param(store, "h0", (len(lengths), 4), rng)

    store.zero_grad()
    out = ad.gru_sequence_batch(cell, stacked, lengths, reverse=reverse, h0=h0)
    ad.backward(ad.sum_all(ad.elementwise_mul(out, out)))
    batched_grads = {p.name: p.grad.copy() for p in store.parameters()}
    batched_out = out.value.copy()

    store.zero_grad()
    offset = 0
    total = None
    singles = []
    for i, part in enumerate(xs_parts):
        rows = np.arange(offset, offset + len(part))
        h = ad.gru_sequence_batch(cell, ad.embedding_lookup(stacked, rows), [len(part)],
                                  reverse=reverse, h0=ad.embedding_lookup(h0, [i]))
        singles.append(h.value.copy())
        sq = ad.sum_all(ad.elementwise_mul(h, h))
        total = sq if total is None else ad.add(total, sq)
        offset += len(part)
    ad.backward(total)

    np.testing.assert_allclose(batched_out, np.concatenate(singles), atol=1e-12)
    for p in store.parameters():
        np.testing.assert_allclose(batched_grads[p.name], p.grad, atol=1e-11)


@pytest.mark.parametrize("d_in, d_h, lengths, with_h0", [
    (8, 8, [49, 23, 12, 47], False),
    (8, 8, [49, 23, 12, 47], True),
    (3, 5, [1, 4, 4, 2, 1, 3], True),
    (400, 400, [21, 5, 13], True),
])
def test_gru_reverse_is_forward_over_flipped_rows(d_in, d_h, lengths, with_h0):
    """A reverse run is the forward loop over each sequence's rows read last
    to first: its states, input gradient and start-state gradient equal a
    forward run on the flipped rows bit for bit. Only the weight gradients,
    GEMMs over the rows in another order, may differ by rounding."""
    rng = np.random.default_rng(sum(lengths) + d_h)
    store = ad.ParameterStore(d_h)
    cell = ad.GruCell(store, "g", d_in, d_h)
    xs = make_param(store, "xs", (sum(lengths), d_in), rng)
    h0 = make_param(store, "h0", (len(lengths), d_h), rng) if with_h0 else None
    weights = rng.normal(size=(sum(lengths), d_h))
    starts = np.cumsum(lengths) - lengths
    flip = np.concatenate([s + np.arange(n)[::-1] for s, n in zip(starts, lengths)])

    def run(x, w, reverse):
        store.zero_grad()
        out = ad.gru_sequence_batch(cell, x, lengths, reverse=reverse, h0=h0)
        ad.backward(ad.sum_all(ad.elementwise_mul(out, ad.Node(w))))
        return out.value, {p.name: p.grad.copy() for p in store.parameters()}

    rev_out, rev_grads = run(xs, weights, True)
    fwd_out, fwd_grads = run(ad.embedding_lookup(xs, flip), weights[flip], False)
    np.testing.assert_array_equal(rev_out, fwd_out[flip])
    np.testing.assert_array_equal(rev_grads["xs"], fwd_grads["xs"])
    if with_h0:
        np.testing.assert_array_equal(rev_grads["h0"], fwd_grads["h0"])
    for name in (f"g.{w}" for w in GRU_WEIGHTS):
        np.testing.assert_allclose(rev_grads[name], fwd_grads[name], rtol=0, atol=1e-12)


def test_no_grad_gru_sequence_batch_stashes_nothing():
    """Under ``no_grad`` the kernel keeps no backward stash: its traced
    peak is the gate and candidate work buffers (3 units of rows x d here,
    float64), the states it returns (1 unit) and the step temporaries, about
    4.2 units. Staging the states in packed order and gathering them at the
    end would add a unit."""
    store = ad.ParameterStore(43)
    lengths = [300] * 4
    d = 64
    cell = ad.GruCell(store, "g", d, d)
    xs = ad.Node(np.random.default_rng(43).normal(size=(sum(lengths), d)))
    unit = sum(lengths) * d * 8 / 2**20

    def run():
        with ad.no_grad():
            ad.gru_sequence_batch(cell, xs, lengths, reverse=True)

    assert peak_traced_mib(run) < 4.6 * unit


def test_recorded_gru_sequence_batch_keeps_one_copy_of_its_states():
    """A recorded call holds its gates (2 units of rows x d here, float64),
    its candidates and its output (1 unit each) between forward and
    backward, 4.07 units in all: backward reads each row's previous state
    from the output. A second copy of the states, shifted one step, held
    5.06 units, and forward plus backward peaked at 16.08 units with it;
    without it the peak is 15.10 units, so building the previous states
    from a concatenated copy of ``h0`` and the output would not fit."""
    store = ad.ParameterStore(43)
    lengths = [300] * 4
    d = 64
    cell = ad.GruCell(store, "g", d, d)
    xs = ad.Node(np.random.default_rng(43).normal(size=(sum(lengths), d)),
                 requires_grad=True)
    g = np.random.default_rng(44).normal(size=xs.shape)
    unit = sum(lengths) * d * 8 / 2**20

    tracemalloc.start()
    try:
        out = ad.gru_sequence_batch(cell, xs, lengths, reverse=True)
        live, _ = tracemalloc.get_traced_memory()
        out._backward(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live / 2**20 < 4.5 * unit
    assert peak / 2**20 < 15.6 * unit


def test_gru_sequence_batch_has_no_padded_staging():
    """One long sequence among many one-step ones: a padded (t_max, B, d)
    layout would stage 200 x 201 rows per activation array (a peak of about
    21 MB over forward and backward); the packed rows need 400 (under 1 MB)."""
    rng = np.random.default_rng(37)
    store = ad.ParameterStore(37)
    cell = ad.GruCell(store, "g", 8, 8)
    lengths = [200] + [1] * 200
    xs = make_param(store, "xs", (sum(lengths), 8), rng)

    def run():
        out = ad.gru_sequence_batch(cell, xs, lengths)
        ad.backward(ad.sum_all(ad.elementwise_mul(out, out)))

    assert peak_traced_mib(run) < 4


@pytest.mark.parametrize("seed", range(8))
def test_fd_gru_sequence_batch(seed):
    rng = np.random.default_rng(900 + seed)
    lengths = [int(n) for n in rng.integers(1, 5, size=int(rng.integers(1, 4)))]
    d_in, d_h = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    store = ad.ParameterStore(seed)
    cell = ad.GruCell(store, "g", d_in, d_h)
    if seed >= 4:  # a start state per sequence, one of them a single step
        lengths.append(1)
    xs = make_param(store, "xs", (sum(lengths), d_in), rng)
    h0 = make_param(store, "h0", (len(lengths), d_h), rng) if seed >= 4 else None

    def loss():
        h = ad.gru_sequence_batch(cell, xs, lengths, reverse=bool(seed % 2), h0=h0)
        return ad.sum_all(ad.elementwise_mul(h, h))

    _fd_case(loss, store.parameters(), seed)


def test_gru_sequence_batch_rejects_bad_lengths():
    store = ad.ParameterStore(0)
    cell = ad.GruCell(store, "g", 2, 2)
    xs = ad.Node(np.zeros((4, 2)))
    with pytest.raises(ad.ShapeError):
        ad.gru_sequence_batch(cell, xs, [2, 3])
    with pytest.raises(ad.ShapeError):
        ad.gru_sequence_batch(cell, xs, [4, 0])
    with pytest.raises(ad.ShapeError):
        ad.gru_sequence_batch(cell, xs, [2, 2], h0=ad.Node(np.zeros((1, 2))))


def test_gru_saturated_gates_do_not_warn():
    """Gate pre-activations of -800 overflow exp(-a); the kernel's sigmoid
    must still give exactly 0 without a RuntimeWarning, like ``ad.sigmoid``."""
    store = ad.ParameterStore(3)
    cell = ad.GruCell(store, "g", 2, 3)
    cell.b_zr.value = np.full(6, -800.0)
    xs = ad.Node(np.random.default_rng(3).normal(size=(4, 2)))
    h0 = np.random.default_rng(4).normal(size=(2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.gru_sequence_batch(cell, xs, [3, 1], h0=ad.Node(h0)).value
        gate = ad.sigmoid(ad.Node(np.array([-800.0]))).value
    # z = 0: every state keeps its sequence's start state
    np.testing.assert_array_equal(out, h0[[0, 0, 0, 1]])
    assert gate[0] == 0.0


# ---------------------------------------------------------------------------
# backward contracts
# ---------------------------------------------------------------------------

def test_backward_of_sum_is_ones():
    store = ad.ParameterStore(0)
    x = make_param(store, "x", (3, 4), np.random.default_rng(0))
    loss = ad.sum_all(x)
    ad.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))
    assert float(loss.grad) == 1.0


def test_unused_parameter_gets_zero_gradient():
    """An unreached leaf keeps ``grad`` None: Adam skips it bit for bit, and
    grad_check reads its analytic gradient as zeros without writing one."""
    store = ad.ParameterStore(0)
    rng = np.random.default_rng(1)
    x = make_param(store, "x", (2, 2), rng)
    unused = make_param(store, "unused", (3,), rng)
    before = unused.value.copy()
    ad.backward(ad.sum_all(x))
    assert unused.grad is None
    Adam(store).step()
    np.testing.assert_array_equal(unused.value.view(np.uint8), before.view(np.uint8))
    err = ad.grad_check(lambda: ad.sum_all(ad.elementwise_mul(x, x)), [x, unused])
    assert err < 1e-6
    assert unused.grad is None


def test_backward_twice_errors():
    store = ad.ParameterStore(0)
    x = make_param(store, "x", (2,), np.random.default_rng(2))
    loss = ad.sum_all(x)
    ad.backward(loss)
    with pytest.raises(ad.GraphError):
        ad.backward(loss)


def test_backward_rejects_non_scalar():
    x = ad.Node(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ad.GraphError):
        ad.backward(ad.add(x, x))


def test_backward_reports_nonfinite_op():
    store = ad.ParameterStore(0)
    x = store.new("x", (2,), 1.0)
    x.value = np.array([1e308, 1e308])
    with np.errstate(over="ignore"):
        loss = ad.sum_all(ad.elementwise_mul(x, x))  # inf
    with pytest.raises(ad.GraphError) as exc:
        ad.backward(loss)
    assert "mul" in str(exc.value)


def test_backward_releases_interior_nodes():
    """Once backward returns, with the loss still held, the graph behind it
    is gone: an interior value nothing else holds is freed, an interior node
    still held has no grad, and only the leaves and the root keep theirs."""
    store = ad.ParameterStore(0)
    x = make_param(store, "x", (3, 4), np.random.default_rng(5))
    squares = ad.elementwise_mul(x, x)
    gates = ad.sigmoid(squares)
    gates_value = weakref.ref(gates.value)
    loss = ad.sum_all(ad.elementwise_mul(gates, gates))
    expected = 2 * gates.value * gates.value * (1 - gates.value) * 2 * x.value
    del gates
    ad.backward(loss)
    assert gates_value() is None
    np.testing.assert_allclose(x.grad, expected, rtol=1e-12, atol=0)
    assert squares.grad is None
    assert float(loss.grad) == 1.0


def test_backward_through_released_node_errors():
    """A second loss that shares a subgraph with a differentiated one cannot
    pass its gradient through that subgraph any more; backward says so
    instead of leaving the shared part out of the leaves' gradients."""
    store = ad.ParameterStore(0)
    x = make_param(store, "x", (2, 3), np.random.default_rng(6))
    shared = ad.elementwise_mul(x, x)
    first = ad.sum_all(shared)
    second = ad.sum_all(ad.sigmoid(shared))
    ad.backward(first)
    grad = x.grad.copy()
    with pytest.raises(ad.GraphError, match="already differentiated"):
        ad.backward(second)
    np.testing.assert_array_equal(x.grad, grad)


def test_backward_peak_above_forward_is_bounded():
    """Four stacked 400-dim recurrences (8 sequences of 60 rows, directions
    alternating) under sum(h*h), parameters held as in training. Backward
    frees each node's stash and gradient once it has run, so a whole step
    peaks about 23 MiB above the forward pass alone. Holding every stash and
    interior gradient until the loss is dropped peaks about 53 MiB above it."""
    store = ad.ParameterStore(41)
    lengths = [60] * 8
    xs = store.new("xs", (sum(lengths), 400), 1.0)
    cells = [ad.GruCell(store, f"g{layer}", 400, 400) for layer in range(4)]

    def forward():
        h = xs
        for layer, cell in enumerate(cells):
            h = ad.gru_sequence_batch(cell, h, lengths, reverse=bool(layer % 2))
        return ad.sum_all(ad.elementwise_mul(h, h))

    rise = peak_traced_mib(lambda: ad.backward(forward())) - peak_traced_mib(forward)
    assert rise < 38


def test_gradients_accumulate_across_graphs():
    store = ad.ParameterStore(0)
    x = make_param(store, "x", (3,), np.random.default_rng(3))
    ad.backward(ad.sum_all(x))
    ad.backward(ad.sum_all(x))
    np.testing.assert_array_equal(x.grad, 2 * np.ones(3))


def test_no_grad_builds_detached_nodes():
    store = ad.ParameterStore(0)
    x = make_param(store, "x", (2, 2), np.random.default_rng(4))
    with ad.no_grad():
        out = ad.sum_all(ad.elementwise_mul(x, x))
    assert not out.requires_grad and out._backward is None


# ---------------------------------------------------------------------------
# parameters and checkpointing
# ---------------------------------------------------------------------------

def test_dtype_build_switch():
    assert ad.default_dtype() == np.dtype("float64")  # tests run in 64-bit
    try:
        ad.set_default_dtype("float32")
        node = ad.Node([1.0, 2.0])
        assert node.value.dtype == np.dtype("float32")
        out = ad.sigmoid(node)
        assert out.value.dtype == np.dtype("float32")
    finally:
        ad.set_default_dtype("float64")
    with pytest.raises(ValueError):
        ad.set_default_dtype("float16")


def test_parameter_names_unique():
    store = ad.ParameterStore(0)
    store.new("w", (2,), 0.1)
    with pytest.raises(ValueError):
        store.new("w", (2,), 0.1)


def test_parameter_init_bound_and_seeding():
    a = ad.ParameterStore(5).new("w", (50, 50), 0.25)
    b = ad.ParameterStore(5).new("w", (50, 50), 0.25)
    assert (a.value == b.value).all()
    assert abs(a.value).max() <= 0.25
    assert abs(a.value).max() > 0.2  # actually spread over the interval


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    store = ad.ParameterStore(7)
    rng = np.random.default_rng(7)
    for i in range(4):
        make_param(store, f"layer{i}.w", (5, 3), rng)
    path = tmp_path / "ckpt.npz"
    meta = {"hidden": 3, "note": "fixture"}
    ad.save_checkpoint(path, store.state_dict(), meta)
    arrays, got_meta = ad.load_checkpoint(path)
    assert got_meta == meta
    for name, p in zip(store.names(), store.parameters()):
        assert (arrays[name] == p.value).all()

    fresh = ad.ParameterStore(99)
    for i in range(4):
        fresh.new(f"layer{i}.w", (5, 3), 1.0)
    fresh.load_state_dict(arrays)
    for name in fresh.names():
        assert (fresh[name].value == store[name].value).all()


def test_npz_checkpoint_bytes_are_those_of_savez(tmp_path, monkeypatch):
    """Writing through an open file gives the bytes ``np.savez`` writes to
    a ``.npz`` path (the zip members' times pinned, since they record the
    clock)."""
    monkeypatch.setattr("zipfile.time.time", lambda: 1.6e9)
    store = ad.ParameterStore(3)
    store.new("w", (4, 3), 0.5)
    store.new("b", (3,), 0.5)
    meta = {"hidden": 3}
    ad.save_checkpoint(tmp_path / "ours.npz", store.state_dict(), meta)
    np.savez(tmp_path / "savez.npz", _meta=np.array(json.dumps(meta, sort_keys=True)),
             **store.state_dict())
    assert (tmp_path / "ours.npz").read_bytes() == (tmp_path / "savez.npz").read_bytes()


def test_store_on_a_state_adopts_its_arrays():
    """A store opened on a state takes each array as the parameter's value,
    with no copy and no draw from its rng."""
    state = {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(3)}
    store = ad.ParameterStore(0, state)
    w, b = store.new("w", (2, 3), 1.0), store.new("b", (3,), 1.0)
    store.load_state_dict(state)
    assert w.value is state["w"] and b.value is state["b"]
    assert store.rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_checkpoint_shape_mismatch_errors(tmp_path):
    store = ad.ParameterStore(0)
    store.new("w", (2, 2), 0.1)
    path = tmp_path / "ckpt.npz"
    ad.save_checkpoint(path, store.state_dict(), {})
    arrays, _ = ad.load_checkpoint(path)

    other = ad.ParameterStore(0)
    other.new("w", (3, 2), 0.1)
    with pytest.raises(ad.CheckpointError):
        other.load_state_dict(arrays)

    third = ad.ParameterStore(0)
    third.new("v", (2, 2), 0.1)
    with pytest.raises(ad.CheckpointError):
        third.load_state_dict(arrays)
