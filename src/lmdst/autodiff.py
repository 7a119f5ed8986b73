"""Minimal reverse-mode autodiff engine backing every model component.

Values are dense numpy arrays, float64 unless switched via
:func:`set_default_dtype` ("float32" is supported as a build-time switch;
the test suite runs in float64 so finite-difference checks are decisive).

Graphs are built eagerly per example (define-by-run) and differentiated at
most once: :func:`backward` releases each interior node as soon as its
gradient has been passed on, so the graph's stashes do not outlive the pass.
Parameters are long-lived leaf nodes whose ``grad`` buffers accumulate
across graphs; delayed-update training relies on exactly that.
A graph and its nodes belong to one thread; parameters may move between
threads only between optimizer steps.
"""

from __future__ import annotations

import contextlib
import json
from typing import Callable, Sequence

import numpy as np

# A "tensor" in this package is a dense numpy float array.
Tensor = np.ndarray

_DEFAULT_DTYPE = np.dtype("float64")

_grad_enabled = True


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class GraphError(RuntimeError):
    """Graph misuse: non-scalar loss, repeated backward, non-finite values."""


class CheckpointError(RuntimeError):
    """Checkpoint file does not match the model it is loaded into."""


def set_default_dtype(name: str) -> None:
    """Switch the value dtype for newly created nodes ("float64"/"float32")."""
    global _DEFAULT_DTYPE
    if name not in ("float64", "float32"):
        raise ValueError(f"unsupported dtype {name!r}")
    _DEFAULT_DTYPE = np.dtype(name)


def default_dtype() -> np.dtype:
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (inference / finite-difference passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Node:
    """A value in the computation graph.

    ``grad`` is allocated lazily and accumulates; leaves keep accumulating
    across graphs until explicitly reset, which is the gradient-accumulation
    mechanism used by the trainer.

    An interior node (one built by an op, with parents) lives only until
    :func:`backward` has run its ``_backward``: then it drops its parents,
    its backward closure with everything that closure stashed, and its
    ``grad`` (the root keeps its ``grad`` of 1). Its ``value`` stays while
    the caller holds the node. A released node is consumed: no later
    backward may reach it.
    """

    __slots__ = ("value", "grad", "requires_grad", "op", "_parents", "_backward", "_consumed")

    def __init__(self, value, requires_grad: bool = False, op: str = "leaf"):
        self.value = np.asarray(value, dtype=_DEFAULT_DTYPE)
        self.grad: Tensor | None = None
        self.requires_grad = requires_grad
        self.op = op
        self._parents: tuple[Node, ...] = ()
        self._backward: Callable[[Tensor], None] | None = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def accumulate(self, g: Tensor) -> None:
        if self.grad is None:
            # an owned copy, never ``g`` itself: later gradients add in place
            self.grad = np.empty_like(self.value)
            self.grad[...] = g
        else:
            self.grad += g

    @property
    def name(self) -> str:
        """A parameter's name: its ``param:<name>`` op label without the prefix."""
        return self.op.removeprefix("param:")

    def __repr__(self) -> str:
        return f"Node(op={self.op!r}, shape={self.shape})"


def as_node(x) -> Node:
    return x if isinstance(x, Node) else Node(x)


def _op(name: str, value: Tensor, parents: Sequence[Node], backward) -> Node:
    out = Node(value, op=name)
    if _grad_enabled and any(p.requires_grad for p in parents):  # joins the graph
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


def _unbroadcast(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def add(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    try:
        value = a.value + b.value
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.shape))

    return _op("add", value, (a, b), backward)


def elementwise_mul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    try:
        value = a.value * b.value
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.value, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.value, b.shape))

    return _op("mul", value, (a, b), backward)


def matmul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    value = a.value @ b.value

    def backward(g):
        if a.requires_grad:
            a.accumulate(g @ b.value.T)
        if b.requires_grad:
            b.accumulate(a.value.T @ g)

    return _op("matmul", value, (a, b), backward)


def bmm(a, b, group_rows, transpose_b: bool = False) -> Node:
    """Grouped matmul: ``a``'s rows of group i times ``b[i]`` (or ``b[i].T``).

    ``b`` is a (G, k, n) stack (G, n, k with ``transpose_b``). ``a`` holds
    the (R, k) rows of every group, group-major: group i owns the next
    ``group_rows[i]`` of them (G counts summing to R, 0 allowed). The result
    is (R, n).

    Each group is one 2-d product on row blocks. BLAS takes a transposed 2-d
    view as it is; ``np.matmul`` on a stack whose matrices are transposed
    views can fall back to a much slower non-BLAS loop (attention over 16
    contexts of 405 positions: 24 ms against 2.6 ms on a 2-vCPU Xeon).
    """
    a, b = as_node(a), as_node(b)
    counts = np.asarray(group_rows, dtype=np.intp)
    if (a.value.ndim != 2 or b.value.ndim != 3
            or a.shape[1] != b.shape[2 if transpose_b else 1]
            or counts.shape != (b.shape[0],) or (counts < 0).any()
            or counts.sum() != a.shape[0]):
        raise ShapeError(f"bmm: shapes {a.shape} and {b.shape} do not conform"
                         f"{' (b transposed)' if transpose_b else ''}"
                         f" in groups of {counts.tolist()} rows")
    b3 = b.value.swapaxes(1, 2) if transpose_b else b.value
    ends = np.cumsum(counts)
    blocks = [(i, int(end - n), int(end)) for i, (n, end) in enumerate(zip(counts, ends)) if n]
    value = np.empty((a.shape[0], b3.shape[2]), dtype=np.result_type(a.value, b3))
    for i, lo, hi in blocks:
        np.matmul(a.value[lo:hi], b3[i], out=value[lo:hi])

    def backward(g):
        if a.requires_grad:
            ga = np.empty(a.shape, dtype=value.dtype)
            for i, lo, hi in blocks:
                np.matmul(g[lo:hi], b3[i].T, out=ga[lo:hi])
            a.accumulate(ga)
        if b.requires_grad:
            gb = np.zeros((counts.size, *b3.shape[1:]), dtype=value.dtype)
            for i, lo, hi in blocks:
                np.matmul(a.value[lo:hi].T, g[lo:hi], out=gb[i])
            b.accumulate(gb.swapaxes(1, 2) if transpose_b else gb)

    return _op("bmm", value, (a, b), backward)


def transpose(a) -> Node:
    a = as_node(a)
    if a.value.ndim != 2:
        raise ShapeError(f"transpose: expected a matrix, got shape {a.shape}")

    def backward(g):
        if a.requires_grad:
            a.accumulate(g.T)

    return _op("transpose", a.value.T.copy(), (a,), backward)


def concat(a, b, axis: int = 0) -> Node:
    a, b = as_node(a), as_node(b)
    if a.value.ndim != b.value.ndim:
        raise ShapeError(f"concat: ranks differ, shapes {a.shape} and {b.shape}")
    try:
        value = np.concatenate([a.value, b.value], axis=axis)
    except ValueError:
        raise ShapeError(f"concat: shapes {a.shape} and {b.shape} on axis {axis}") from None
    split = a.shape[axis]

    def backward(g):
        ga, gb = np.split(g, [split], axis=axis)
        if a.requires_grad:
            a.accumulate(ga)
        if b.requires_grad:
            b.accumulate(gb)

    return _op("concat", value, (a, b), backward)


def _sigmoid(x: Tensor) -> Tensor:
    """1 / (1 + exp(-x)); a large negative x overflows exp to inf, giving 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a) -> Node:
    a = as_node(a)
    value = _sigmoid(a.value)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * value * (1.0 - value))

    return _op("sigmoid", value, (a,), backward)


def softmax(a, mask=None) -> Node:
    """Softmax along the last axis. With ``mask`` (boolean, the shape of
    ``a``), only the entries where it is true take part and the others get
    exactly 0; every slice along the last axis must keep at least one entry."""
    a = as_node(a)
    if a.value.ndim == 0 or a.value.shape[-1] == 0:
        raise ShapeError(f"softmax: empty last axis on shape {a.shape}")
    x = a.value
    if mask is not None:
        keep = np.asarray(mask, dtype=bool)
        if keep.shape != a.shape:
            raise ShapeError(f"softmax: mask {keep.shape} for shape {a.shape}")
        if not keep.any(axis=-1).all():
            raise ShapeError(f"softmax: a slice of shape {a.shape} along the last axis "
                             "has no unmasked entry")
        x = np.where(keep, x, -np.inf)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    value = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if a.requires_grad:
            dot = (g * value).sum(axis=-1, keepdims=True)
            a.accumulate((g - dot) * value)

    return _op("softmax", value, (a,), backward)


def embedding_lookup(table, indices) -> Node:
    """Gather rows of ``table`` (a |V| x d node) by integer index."""
    table = as_node(table)
    idx = np.asarray(indices, dtype=np.intp)
    if table.value.ndim != 2:
        raise ShapeError(f"embedding_lookup: table must be 2-d, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(f"embedding_lookup: index out of range for table {table.shape}")
    value = table.value[idx]

    def backward(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros(table.shape, dtype=table.value.dtype)
            np.add.at(table.grad, idx, g)

    return _op("embedding_lookup", value, (table,), backward)


def cross_entropy_rows(logits, targets) -> Node:
    """Sum of per-row cross entropies for a matrix of logits; ``targets``
    holds one class id per row, and every row counts."""
    logits = as_node(logits)
    if logits.value.ndim != 2:
        raise ShapeError(f"cross_entropy_rows: expected 2-d logits, got {logits.shape}")
    t = np.asarray(targets, dtype=np.intp)
    if t.shape != (logits.shape[0],):
        raise ShapeError(f"cross_entropy_rows: {t.shape} targets for logits {logits.shape}")
    x = logits.value
    mx = x.max(axis=1, keepdims=True)
    lse = mx[:, 0] + np.log(np.exp(x - mx).sum(axis=1))
    rows = np.arange(x.shape[0])
    value = (lse - x[rows, t]).sum()

    def backward(g):
        if logits.requires_grad:
            p = np.exp(x - lse[:, None])
            p[rows, t] -= 1.0
            logits.accumulate(g * p)

    return _op("cross_entropy_rows", value, (logits,), backward)


def copy_nll_rows(vocab_logits, copy_logits, gen_logits, targets, copy_ids,
                  copy_mask) -> Node:
    """Sum over rows of -log p(target) under a pointer-generator mixture,
    computed in log space from the logits.

    Row i mixes ``softmax(vocab_logits[i])`` over the vocabulary ids with
    weight p_gen = sigmoid(gen_logits[i, 0]) and, with weight 1 - p_gen, the
    copy distribution ``softmax(copy_logits[i])`` over the positions t where
    ``copy_mask[i, t]`` holds, position t voting for the (extended) id
    ``copy_ids[i, t]``. With g the p_gen logit, v and e the two logit rows:

        log p(y) = logaddexp(log sigmoid(g) + log_softmax(v)[y],
                             log sigmoid(-g) + LSE_{t: id_t = y}(e_t) - LSE_t(e_t))

    Only the target is scored: no mixture row is built. A target beyond the
    vocabulary (an extended id) has no generation term, and a target no
    position votes for has no copy term: that term is -inf, with a gradient
    weight of exactly 0. Neither term underflows the way a probability does.
    Every row counts: a caller scores a subset by passing only its rows.
    """
    vocab_logits, copy_logits = as_node(vocab_logits), as_node(copy_logits)
    gen_logits = as_node(gen_logits)
    v, e = vocab_logits.value, copy_logits.value
    y = np.asarray(targets, dtype=np.intp)
    ids = np.asarray(copy_ids, dtype=np.intp)
    keep = np.asarray(copy_mask, dtype=bool)
    n = v.shape[0] if v.ndim == 2 else -1
    if (n < 0 or e.ndim != 2 or e.shape[0] != n or gen_logits.shape != (n, 1)
            or y.shape != (n,) or ids.shape != e.shape or keep.shape != e.shape):
        raise ShapeError(f"copy_nll_rows: vocab logits {v.shape}, copy logits {e.shape}, "
                         f"gen logits {gen_logits.shape}, {y.shape} targets, "
                         f"{ids.shape} copy ids, {keep.shape} copy mask")
    if not keep.any(axis=1).all():
        raise ShapeError("copy_nll_rows: a row has no copy position")
    rows = np.arange(n)
    g = gen_logits.value[:, 0]

    # log 0 = -inf is a term's legitimate value; a NaN input propagates to the
    # loss, where backward's finiteness check names this op
    with np.errstate(divide="ignore", invalid="ignore"):
        # generation: log sigmoid(g) + log_softmax(v)[y]
        v_max = v.max(axis=1, keepdims=True)
        v_exp = np.exp(v - v_max)
        v_sum = v_exp.sum(axis=1)
        in_vocab = y < v.shape[1]
        v_y = v[rows, np.where(in_vocab, y, 0)] - v_max[:, 0]
        gen = np.where(in_vocab, v_y - np.log(v_sum) - np.logaddexp(0.0, -g), -np.inf)
        # copy: log sigmoid(-g) + LSE over the target's positions - LSE over all
        e_all = np.where(keep, e, -np.inf)
        e_max = e_all.max(axis=1, keepdims=True)
        e_exp = np.exp(e_all - e_max)
        e_sum = e_exp.sum(axis=1)
        hit = keep & (ids == y[:, None])
        has = hit.any(axis=1)
        e_hit = np.where(hit, e, -np.inf)
        h_max = np.where(has, e_hit.max(axis=1), 0.0)
        h_exp = np.exp(e_hit - h_max[:, None])
        h_sum = h_exp.sum(axis=1)
        copy = (h_max + np.log(h_sum)) - (e_max[:, 0] + np.log(e_sum)) - np.logaddexp(0.0, g)
        log_p = np.logaddexp(gen, copy)
    value = -log_p.sum()

    def backward(grad):
        # each term's share of p(y)
        w_gen = np.exp(gen - log_p)
        w_copy = np.exp(copy - log_p)
        if vocab_logits.requires_grad:
            gv = v_exp / v_sum[:, None]
            gv[rows[in_vocab], y[in_vocab]] -= 1.0
            vocab_logits.accumulate((grad * w_gen)[:, None] * gv)
        if copy_logits.requires_grad:
            attn = e_exp / e_sum[:, None]
            hit_attn = h_exp / np.where(has, h_sum, 1.0)[:, None]
            copy_logits.accumulate((grad * w_copy)[:, None] * (attn - hit_attn))
        if gen_logits.requires_grad:
            gen_logits.accumulate((grad * (_sigmoid(g) - w_gen))[:, None])

    return _op("copy_nll_rows", value, (vocab_logits, copy_logits, gen_logits), backward)


def sum_all(a) -> Node:
    a = as_node(a)

    def backward(g):
        if a.requires_grad:
            a.accumulate(np.full_like(a.value, float(g)))

    return _op("sum", a.value.sum(), (a,), backward)


def pad_sequences(xs, lengths) -> Node:
    """Sequences stacked back to back (the layout of
    :func:`gru_sequence_batch`) as a zero-padded (B, t_max, d) stack."""
    xs = as_node(xs)
    lens = np.asarray(lengths, dtype=np.intp)
    if (xs.value.ndim != 2 or lens.ndim != 1 or not lens.size or lens.min() < 1
            or lens.sum() != xs.shape[0]):
        raise ShapeError(f"pad_sequences: lengths {lens.tolist()} for rows {xs.shape}")
    keep = np.arange(lens.max()) < lens[:, None]
    value = np.zeros((lens.size, lens.max(), xs.shape[1]), dtype=xs.value.dtype)
    value[keep] = xs.value

    def backward(g):
        if xs.requires_grad:
            xs.accumulate(g[keep])

    return _op("pad_sequences", value, (xs,), backward)


def scatter_cols(weights, col_ids, width: int) -> Node:
    """Scatter-add weights (S x T) onto columns of an S x width matrix.

    ``col_ids`` holds the column of each of the T positions, shared by all
    rows (shape (T,)) or per row (shape (S, T)). Duplicate column ids
    accumulate, which is what maps a distribution over context positions
    onto a distribution over token ids.
    """
    weights = as_node(weights)
    ids = np.asarray(col_ids, dtype=np.intp)
    if weights.value.ndim != 2 or ids.shape not in ((weights.shape[1],), weights.shape):
        raise ShapeError(f"scatter_cols: weights {weights.shape} with {ids.shape} ids")
    if ids.size and (ids.min() < 0 or ids.max() >= width):
        raise ShapeError(f"scatter_cols: column id out of range for width {width}")
    s = weights.shape[0]
    flat = (np.arange(s)[:, None] * width + ids).ravel()  # row-major entry of each weight
    value = np.zeros((s, width), dtype=weights.value.dtype)
    np.add.at(value.reshape(-1), flat, weights.value.ravel())

    def backward(g):
        if weights.requires_grad:
            weights.accumulate(g.reshape(-1)[flat].reshape(weights.shape))

    return _op("scatter_cols", value, (weights,), backward)


def segment_grouping(indices, offsets) -> tuple[Tensor, Tensor, Tensor]:
    """The backward grouping of :func:`gather_segment_sum` for fixed indices.

    Returns ``(rows, first, table_rows)``: the entries stably sorted by table
    row give, per entry, its output row (``rows``); the sorted entries split
    into groups of one table row each, starting at ``first``, and group j
    adds into ``table_rows[j]``. Build it once where the indices never change.
    """
    idx = np.asarray(indices, dtype=np.intp)
    off = np.asarray(offsets, dtype=np.intp)
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    rows = np.repeat(np.arange(off.size - 1), np.diff(off))[order]
    first = np.flatnonzero(np.diff(sorted_idx, prepend=-1))
    return rows, first, sorted_idx[first]


def gather_segment_sum(table, indices, offsets, weights, grouping) -> Node:
    """Weighted sums of gathered table rows, one per segment of ``indices``.

    Output row r is ``weights[r] * table[indices[offsets[r]:offsets[r + 1]]]
    .sum(axis=0)``; an empty segment gives a zero row. This is ``A @ table``
    for the sparse matrix A whose row r holds ``weights[r]`` at those columns,
    without building A: forward and backward are each one gather and one
    ``np.add.reduceat``. Both gather columns of the transposed rows and
    reduce along the contiguous axis, which is faster than reducing rows
    and gives the same bits. ``grouping`` is :func:`segment_grouping` of the
    same indices and offsets, built once by the caller.
    """
    table = as_node(table)
    idx = np.asarray(indices, dtype=np.intp)
    off = np.asarray(offsets, dtype=np.intp)
    if table.value.ndim != 2:
        raise ShapeError(f"gather_segment_sum: table must be 2-d, got {table.shape}")
    if (off.ndim != 1 or off.size < 1 or off[0] != 0 or off[-1] != idx.size
            or np.any(np.diff(off) < 0)):
        raise ShapeError(f"gather_segment_sum: offsets do not segment {idx.size} indices")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(f"gather_segment_sum: index out of range for table {table.shape}")
    n_rows = off.size - 1
    w = np.asarray(weights, dtype=table.value.dtype)
    if w.shape != (n_rows,):
        raise ShapeError(f"gather_segment_sum: {w.shape} weights for {n_rows} segments")
    starts = off[:-1]
    filled = off[1:] > starts
    value = np.zeros((n_rows, table.shape[1]), dtype=table.value.dtype)
    if idx.size:
        value[filled] = (np.add.reduceat(np.take(table.value.T, idx, axis=1),
                                         starts[filled], axis=1).T * w[filled, None])

    def backward(g):
        if table.requires_grad and idx.size:
            # each group of entries sums the weighted gradients of its output rows
            rows, first, table_rows = grouping
            sums = np.add.reduceat(np.take((g * w[:, None]).T, rows, axis=1), first, axis=1).T
            if table.grad is None:
                table.grad = np.zeros(table.shape, dtype=table.value.dtype)
            table.grad[table_rows] += sums

    return _op("gather_segment_sum", value, (table,), backward)


# ---------------------------------------------------------------------------
# GRU cell and fused sequence op
# ---------------------------------------------------------------------------

class GruCell:
    """Standard GRU: z = sigmoid(Wz x + Uz h + bz), r likewise,
    candidate = tanh(Wh x + Uh (r*h) + bh), h' = (1-z)*h + z*candidate.

    The z and r gates share fused weight matrices (columns 0:d and d:2d).
    The cell only holds the weights: every recurrence, a single step
    included, runs through :func:`gru_sequence_batch`.
    """

    def __init__(self, store: "ParameterStore", prefix: str, input_dim: int, hidden_dim: int):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        bound = 1.0 / np.sqrt(hidden_dim)
        self.w_zr = store.new(f"{prefix}.w_zr", (input_dim, 2 * hidden_dim), bound)
        self.u_zr = store.new(f"{prefix}.u_zr", (hidden_dim, 2 * hidden_dim), bound)
        self.b_zr = store.new(f"{prefix}.b_zr", (2 * hidden_dim,), bound)
        self.w_h = store.new(f"{prefix}.w_h", (input_dim, hidden_dim), bound)
        self.u_h = store.new(f"{prefix}.u_h", (hidden_dim, hidden_dim), bound)
        self.b_h = store.new(f"{prefix}.b_h", (hidden_dim,), bound)

    def step(self, x: Node, h: Node) -> Node:
        """One step on a batch of row vectors (B x input_dim, B x hidden_dim)."""
        return gru_sequence_batch(self, x, [1] * x.shape[0], h0=h)


def gru_sequence_batch(cell: GruCell, xs, lengths: Sequence[int],
                       reverse: bool = False, h0=None) -> Node:
    """Run the recurrence over several stacked sequences at once.

    ``xs`` holds the sequences back to back, example-major: rows
    ``offset_i .. offset_i + lengths[i]`` belong to example i. The output has
    the same arrangement with hidden states aligned to input positions. Each
    sequence (with ``reverse``, read from its last row back to its first)
    starts from row i of ``h0`` (a node, one row per sequence, which
    receives the gradient of the start states) or, without ``h0``, from
    zeros. The LM and the encoder run whole sequences from zeros, the
    teacher-forced decoder from the encoder's final states; greedy decoding
    runs one step as length-1 sequences from its previous states. A forward
    state reads only the rows up to its own, so a sequence that is the first
    rows of another needs no run of its own: in prediction the LM runs its
    forward direction once per dialogue and each turn gathers its states
    from those rows (:meth:`lmdst.lm.BiGru.forward`). States
    equal those of running a sequence alone up to float rounding only: BLAS
    may sum stacked rows in another order for another batch shape, so an
    exact tie downstream can resolve differently.

    One fused op over packed rows (the variable-length layout of cuDNN and
    of PyTorch's ``PackedSequence``). The sequences are stably sorted by
    length, longest first, and laid out time-major: step t holds the k_t
    sequences longer than t, which are a prefix of the sorted order, at
    their t-th row in reading order. A reverse sequence is read last to
    first, so ``reverse`` only flips the time index of each row and the one
    loop runs either direction: every sequence starts from its ``h0`` row at
    step 0, and finished sequences drop off the end of the prefix. Backward
    is hand-rolled BPTT on the same prefixes over the kept gates and
    candidates, reading each row's previous state from the output (or from
    ``h0`` at a sequence's first row in reading order); a call that records
    no graph (under :func:`no_grad`, or with no input that needs a
    gradient) stashes nothing. The input projections
    are GEMMs over the rows gathered into packed order, each step writes its
    states straight to their stacked rows, and the weight gradients are
    GEMMs over the stacked rows. Batching
    exists purely so the recurrent weight matrices stream from memory once
    per step instead of once per step per sequence.
    """
    xs = as_node(xs)
    lengths = [int(n) for n in lengths]
    if xs.value.ndim != 2 or xs.shape[1] != cell.input_dim:
        raise ShapeError(f"gru_sequence_batch: input {xs.shape} vs input_dim {cell.input_dim}")
    if min(lengths, default=0) < 1 or sum(lengths) != xs.shape[0]:
        raise ShapeError(f"gru_sequence_batch: lengths {lengths} do not cover {xs.shape[0]} rows")
    n_batch, t_max, d = len(lengths), max(lengths), cell.hidden_dim
    h0 = Node(np.zeros((n_batch, d))) if h0 is None else as_node(h0)
    if h0.shape != (n_batch, d):
        raise ShapeError(f"gru_sequence_batch: h0 {h0.shape} for {n_batch} sequences "
                         f"of hidden_dim {d}")
    # Packed layout: sequences sorted by length (descending, stable); step t
    # holds rows lo[t] .. lo[t] + ks[t], the ks[t] sorted sequences longer than t.
    lens = np.asarray(lengths)
    perm = np.argsort(-lens, kind="stable")
    rank = np.empty(n_batch, dtype=np.intp)
    rank[perm] = np.arange(n_batch)
    ks = n_batch - np.cumsum(np.bincount(lens, minlength=t_max + 1))[:t_max]
    lo = np.cumsum(ks) - ks
    # packed row of each stacked row, and the stacked row of each packed row
    starts = np.cumsum(lens) - lens
    t_idx = np.arange(xs.shape[0]) - np.repeat(starts, lens)
    if reverse:  # read each sequence last row first
        t_idx = np.repeat(lens, lens) - 1 - t_idx
    packed = lo[t_idx] + np.repeat(rank, lens)
    stacked = np.empty_like(packed)
    stacked[packed] = np.arange(packed.size)
    w_zr, u_zr, b_zr = cell.w_zr, cell.u_zr, cell.b_zr
    w_h, u_h, b_h = cell.w_h, cell.u_h, cell.b_h
    parents = (xs, w_zr, u_zr, b_zr, w_h, u_h, b_h, h0)

    x = xs.value
    # Input projections of the rows gathered into packed order, the bias
    # added in place; the loop overwrites them with the gates and the
    # candidates.
    xp = x[stacked]
    zrs = xp @ w_zr.value
    zrs += b_zr.value
    cands = xp @ w_h.value
    cands += b_h.value
    del xp
    h0s = h0.value[perm]

    steps = [(int(lo[t]), int(ks[t])) for t in range(t_max)]
    out = np.empty_like(cands)  # each step's states go to their stacked rows

    h = h0s
    uzr_v, uh_v = u_zr.value, u_h.value
    for a, k in steps:
        h = h[:k]  # finished sequences drop off the end of the prefix
        zr = zrs[a:a + k]
        zr[:] = _sigmoid(zr + h @ uzr_v)
        z, r = zr[:, :d], zr[:, d:]
        c = cands[a:a + k]
        c[:] = np.tanh(c + (r * h) @ uh_v)
        h = h + z * (c - h)
        out[stacked[a:a + k]] = h

    def backward(g):
        # each stacked row's previous state in reading order, or its h0 row
        hp_flat = np.roll(out, -1 if reverse else 1, axis=0)
        hp_flat[t_idx == 0] = h0.value
        gp = g[stacked]
        dxzr = np.empty((packed.size, 2 * d), dtype=x.dtype)
        dxh = np.empty((packed.size, d), dtype=x.dtype)
        gh = gp[:0]
        uzr_t, uh_t = uzr_v.T, uh_v.T
        for a, k in reversed(steps):
            gt = gp[a:a + k]
            gt[:len(gh)] += gh
            zr, c, hp = zrs[a:a + k], cands[a:a + k], hp_flat[stacked[a:a + k]]
            z, r = zr[:, :d], zr[:, d:]
            dz = gt * (c - hp)
            dcpre = gt * z * (1.0 - c * c)
            dxh[a:a + k] = dcpre
            drh = dcpre @ uh_t
            dr = drh * hp
            dxzr[a:a + k, :d] = dz * z * (1.0 - z)
            dxzr[a:a + k, d:] = dr * r * (1.0 - r)
            gh = gt * (1.0 - z) + drh * r + dxzr[a:a + k] @ uzr_t
        # big gemms on the rows unpacked to stacked order
        dxzr_flat = dxzr[packed]
        dxh_flat = dxh[packed]
        rhp_flat = zrs[packed, d:] * hp_flat
        if xs.requires_grad:
            xs.accumulate(dxzr_flat @ w_zr.value.T + dxh_flat @ w_h.value.T)
        if w_zr.requires_grad:
            w_zr.accumulate(x.T @ dxzr_flat)
        if u_zr.requires_grad:
            u_zr.accumulate(hp_flat.T @ dxzr_flat)
        if b_zr.requires_grad:
            b_zr.accumulate(dxzr_flat.sum(axis=0))
        if w_h.requires_grad:
            w_h.accumulate(x.T @ dxh_flat)
        if u_h.requires_grad:
            u_h.accumulate(rhp_flat.T @ dxh_flat)
        if b_h.requires_grad:
            b_h.accumulate(dxh_flat.sum(axis=0))
        if h0.requires_grad:
            h0.accumulate(gh[rank])  # the BPTT carry past each sequence's first step

    return _op("gru_sequence_batch", out, parents, backward)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def _topo(root: Node) -> list[Node]:
    order: list[Node] = []
    visited = {id(root)}
    stack: list[tuple[Node, int]] = [(root, 0)]
    while stack:
        node, i = stack[-1]
        if i < len(node._parents):
            stack[-1] = (node, i + 1)
            parent = node._parents[i]
            if id(parent) not in visited:
                visited.add(id(parent))
                stack.append((parent, 0))
        else:
            order.append(node)
            stack.pop()
    return order


def _first_nonfinite(order: list[Node]) -> str | None:
    for node in order:
        if not np.all(np.isfinite(node.value)):
            return node.op
    return None


def backward(loss: Node) -> None:
    """Populate ``grad`` on every reachable requires_grad leaf.

    Nodes run in reverse topological order, each popped off that order; once
    an interior node has passed its gradient to its parents it is released
    (see :class:`Node`), so its stashes and its gradient are freed as the
    pass goes instead of when the caller drops the loss. Leaves keep their
    ``grad`` and the root keeps its ``grad`` of 1; every other ``grad`` in
    the graph is ``None`` afterwards.

    A graph is differentiated once: a backward that reaches a node released
    by an earlier one (its own root included) is an error, since the
    released subgraph can no longer pass its gradient on. Rebuild the graph
    instead (accumulation across rebuilt graphs is the supported contract).
    """
    if loss.shape != ():
        raise GraphError(f"backward: loss must be scalar, got shape {loss.shape}")
    order = _topo(loss)
    released = next((node for node in order if node._consumed), None)
    if released is not None:
        raise GraphError(f"backward: reaches op {released.op!r} of a graph already "
                         "differentiated; rebuild it first")
    loss._consumed = True
    if not np.isfinite(loss.value):
        bad = _first_nonfinite(order)
        raise GraphError(f"backward: non-finite loss (first non-finite op: {bad})")
    loss.grad = np.asarray(1.0, dtype=loss.value.dtype)
    while order:
        node = order.pop()
        if node._backward is None:  # a leaf: it keeps its grad
            continue
        if node.grad is not None:
            if not np.all(np.isfinite(node.grad)):
                raise GraphError(f"backward: non-finite gradient at op {node.op!r}")
            node._backward(node.grad)
        node._backward, node._parents, node._consumed = None, (), True
        if node is not loss:
            node.grad = None


# ---------------------------------------------------------------------------
# parameters and checkpointing
# ---------------------------------------------------------------------------

class ParameterStore:
    """Registry of uniquely named parameter leaves with seeded initialization.

    A parameter is the leaf :class:`Node` itself (``name`` from its op
    label). Mutate its ``value`` in place between optimizer steps only.

    A store opened on ``state`` (a checkpoint's arrays by name) draws no
    initial values: :meth:`new` adopts the array of that name as the
    parameter's value, so a loaded model holds one copy of each. A name the
    state lacks or holds at another shape gets zeros, and the caller's
    :meth:`load_state_dict` of the same state then reports it.
    """

    def __init__(self, seed: int = 0, state: dict[str, Tensor] | None = None):
        self._params: dict[str, Node] = {}
        self.rng = np.random.default_rng(seed)
        self._state = state

    def new(self, name: str, shape: tuple[int, ...], bound: float) -> Node:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        if name.startswith("_"):
            raise ValueError(f"parameter names must not start with '_': {name!r}")
        if self._state is None:
            value = self.rng.uniform(-bound, bound, size=shape).astype(_DEFAULT_DTYPE, copy=False)
        elif name in self._state and np.shape(self._state[name]) == shape:
            value = self._state[name]
        else:
            value = np.zeros(shape)
        node = Node(value, requires_grad=True, op=f"param:{name}")
        self._params[name] = node
        return node

    def parameters(self) -> list[Node]:
        return list(self._params.values())

    def names(self) -> list[str]:
        return list(self._params)

    def __getitem__(self, name: str) -> Node:
        return self._params[name]

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None

    def state_dict(self) -> dict[str, Tensor]:
        return {name: p.value.copy() for name, p in self._params.items()}

    def load_state_dict(self, state: dict[str, Tensor]) -> None:
        """Set every parameter to the array of its name in ``state`` (an
        adopted array stays as it is); a store opened on a state lets go of
        it here."""
        self._state = None
        missing = set(self._params) - set(state)
        extra = set(state) - set(self._params)
        if missing or extra:
            raise CheckpointError(
                f"parameter names do not match (missing: {sorted(missing)[:3]}, "
                f"unexpected: {sorted(extra)[:3]})")
        for name, p in self._params.items():
            v = np.asarray(state[name], dtype=_DEFAULT_DTYPE)
            if v.shape != p.value.shape:
                raise CheckpointError(
                    f"parameter {name}: checkpoint shape {v.shape} vs model {p.value.shape}")
            p.value = v


def save_checkpoint(path, params: dict[str, Tensor], meta: dict | None = None) -> None:
    """Write a checkpoint: numpy .npz, one array per parameter name in the
    default dtype, plus a '_meta' JSON string. Round-trips bit-exactly.

    The file is ``path`` exactly, whatever its suffix (``np.savez`` given a
    file name would append ``.npz`` to one that lacks it).
    """
    with open(path, "wb") as f:
        np.savez(f, _meta=np.array(json.dumps(meta or {}, sort_keys=True)), **params)


def load_checkpoint(path) -> tuple[dict[str, Tensor], dict]:
    try:
        with np.load(path, allow_pickle=False) as f:
            meta = json.loads(str(f["_meta"])) if "_meta" in f else {}
            params = {k: f[k] for k in f.files if k != "_meta"}
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return params, meta


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------

def grad_check(build: Callable[[], Node], params: Sequence[Node],
               eps: float = 1e-5, max_entries_per_param: int | None = None,
               seed: int = 0) -> float:
    """Compare analytic gradients of ``build()`` against central differences.

    ``build`` must be a pure, deterministic function of the parameter values.
    Returns the max relative error, |a - n| / max(|a|, |n|, 1). A parameter
    the loss does not reach has an analytic gradient of zero.
    """
    rng = np.random.default_rng(seed)
    for p in params:
        p.grad = None
    loss = build()
    backward(loss)
    analytic = [np.zeros_like(p.value) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.value.reshape(-1)
        a_flat = a.reshape(-1)
        n = flat.size
        if max_entries_per_param is not None and n > max_entries_per_param:
            idxs = rng.choice(n, size=max_entries_per_param, replace=False)
        else:
            idxs = np.arange(n)
        for i in idxs:
            orig = flat[i]
            with no_grad():
                flat[i] = orig + eps
                lo_hi = float(build().value)
                flat[i] = orig - eps
                lo_lo = float(build().value)
            flat[i] = orig
            numeric = (lo_hi - lo_lo) / (2.0 * eps)
            rel = abs(a_flat[i] - numeric) / max(abs(a_flat[i]), abs(numeric), 1.0)
            if rel > worst:
                worst = rel
    return worst
