import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lmdst import autodiff as ad
from lmdst.training import Adam


def make_param(store, name, shape, rng):
    p = store.new(name, shape, 1.0)
    p.value = rng.normal(size=shape)
    return p


def test_softmax_uniform_logits():
    out = ad.softmax(ad.Node(np.zeros(3)), axis=0)
    np.testing.assert_allclose(out.value, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.normal(scale=5.0, size=(rng.integers(1, 6), rng.integers(1, 9)))
        p = ad.softmax(ad.Node(x), axis=1).value
        assert (p >= 0).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_softmax_empty_axis_errors():
    with pytest.raises(ad.ShapeError):
        ad.softmax(ad.Node(np.zeros((2, 0))), axis=1)


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
        return ad.softmax(ad.sigmoid(ad.matmul(x, w)), axis=1).value.copy()

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
        s = ad.softmax(ad.sigmoid(a), axis=1)
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
        part = ad.slice_rows(t, 1, 4)
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
    mask = rng.integers(0, 2, size=5).astype(float)

    def loss():
        ce = ad.cross_entropy_rows(logits, targets, mask)
        probs = ad.softmax(logits, axis=1)
        return ad.add(ce, ad.nll_rows(probs, targets, mask))

    _fd_case(loss, [logits], seed)


@pytest.mark.parametrize("seed", range(10))
def test_fd_scatter_pad_tile(seed):
    rng = np.random.default_rng(700 + seed)
    store = ad.ParameterStore(seed)
    w = make_param(store, "w", (3, 6), rng)
    v = make_param(store, "v", (1, 4), rng)
    ids = rng.integers(0, 5, size=6)

    def loss():
        sc = ad.scatter_cols(ad.softmax(w, axis=1), ids, 5)
        tiled = ad.embedding_lookup(v, np.zeros(3, dtype=np.intp))  # row repeated 3x
        padded = ad.pad_cols(tiled, 1)
        return ad.sum_all(ad.elementwise_mul(sc, padded))

    _fd_case(loss, [w, v], seed)


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
        out = ad.gather_segment_sum(table, idx, offsets, weights)
        return ad.sum_all(ad.elementwise_mul(out, out))

    _fd_case(loss, [table], seed)


def test_gather_segment_sum_matches_dense_product():
    rng = np.random.default_rng(760)
    table = rng.normal(size=(5, 3))
    idx, offsets, weights = [4, 0, 0, 2, 1], [0, 0, 3, 5], [2.0, 0.5, -1.0]
    dense = np.zeros((3, 5))
    np.add.at(dense, (np.repeat(np.arange(3), np.diff(offsets)), idx), 1.0)
    dense *= np.array(weights)[:, None]
    out = ad.gather_segment_sum(table, idx, offsets, weights).value
    np.testing.assert_allclose(out, dense @ table, rtol=0, atol=1e-12)
    assert (out[0] == 0).all()


def test_gather_segment_sum_precomputed_grouping():
    """A grouping built once gives the table gradient of the dense product,
    bit for bit what the op computes without it."""
    rng = np.random.default_rng(770)
    idx, offsets, weights = [4, 0, 0, 2, 1, 4], [0, 0, 3, 5, 6], [2.0, 0.5, -1.0, 3.0]
    g = rng.normal(size=(4, 3))
    grads = []
    for grouping in (None, ad.segment_grouping(idx, offsets)):
        table = ad.Node(rng.normal(size=(5, 3)), requires_grad=True)
        out = ad.gather_segment_sum(table, idx, offsets, weights, grouping)
        ad.backward(ad.sum_all(ad.elementwise_mul(out, ad.Node(g))))
        grads.append(table.grad)
    np.testing.assert_array_equal(grads[0], grads[1])
    dense = np.zeros((4, 5))
    np.add.at(dense, (np.repeat(np.arange(4), np.diff(offsets)), idx), 1.0)
    dense *= np.array(weights)[:, None]
    np.testing.assert_allclose(grads[1], dense.T @ g, rtol=0, atol=1e-12)
    assert [a.size for a in ad.segment_grouping([], [0, 0])] == [0, 0, 0]


def test_gather_segment_sum_rejects_bad_segments():
    table = np.zeros((4, 2))
    for idx, offsets, weights in (([0, 1], [0, 1], [1.0]),          # last offset short
                                  ([0, 1], [0, 2, 1, 2], [1.0] * 3),  # decreasing
                                  ([0, 4], [0, 2], [1.0]),          # index out of range
                                  ([0, 1], [0, 2], [1.0, 1.0])):    # weight per segment
        with pytest.raises(ad.ShapeError):
            ad.gather_segment_sum(table, idx, offsets, weights)


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
        h = cell.step(ad.slice_rows(xs, t, t + 1), h)
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
        h = ad.gru_sequence_batch(cell, ad.slice_rows(stacked, offset, offset + len(part)),
                                  [len(part)], reverse=reverse, h0=ad.slice_rows(h0, i, i + 1))
        singles.append(h.value.copy())
        sq = ad.sum_all(ad.elementwise_mul(h, h))
        total = sq if total is None else ad.add(total, sq)
        offset += len(part)
    ad.backward(total)

    np.testing.assert_allclose(batched_out, np.concatenate(singles), atol=1e-12)
    for p in store.parameters():
        np.testing.assert_allclose(batched_grads[p.name], p.grad, atol=1e-11)


def test_gru_sequence_batch_has_no_padded_staging():
    """One long sequence among many one-step ones: a padded (t_max, B, d)
    layout would stage 200 x 201 rows per activation array (a peak of about
    21 MB over forward and backward); the packed rows need 400 (under 1 MB)."""
    rng = np.random.default_rng(37)
    store = ad.ParameterStore(37)
    cell = ad.GruCell(store, "g", 8, 8)
    lengths = [200] + [1] * 200
    xs = make_param(store, "xs", (sum(lengths), 8), rng)
    tracemalloc.start()
    try:
        out = ad.gru_sequence_batch(cell, xs, lengths)
        ad.backward(ad.sum_all(ad.elementwise_mul(out, out)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


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
