"""Numeric core: finite-difference oracles and tape behaviour."""

from __future__ import annotations

import contextlib
import os
import threading
import time
import tracemalloc
import types
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from test_model import make_sample, small_config
from test_train import openblas

from momentkit import autograd as ag
from momentkit.fdcheck import check_gradients
from momentkit.losses import LossWeights, build_targets
from momentkit.model import MomentModel
from momentkit.train import sample_loss

STEP = 1e-5
TOL = 1e-6
FLOOR = 1e-3  # below this magnitude, compare absolutely


def fd_check(loss_fn, params, **kw):
    report = check_gradients(loss_fn, params, step=STEP, floor=FLOOR, **kw)
    assert report.ok(TOL), f"max rel err {report.max_rel_err:.3e} at {report.worst_param}[{report.worst_index}]"
    return report


def test_matmul_forward_matches_numpy():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 6))
    b = rng.normal(size=(6, 3))
    out = ag.matmul(ag.Tensor(a), ag.Tensor(b))
    np.testing.assert_allclose(out.data, a @ b, rtol=1e-12)


def test_matmul_gradients():
    rng = np.random.default_rng(1)
    a = ag.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    b = ag.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = ag.Tensor(rng.normal(size=(5, 3)))  # fixed mixing so the loss is not symmetric

    def loss():
        return ag.sum_(ag.mul(ag.matmul(a, b), w))

    fd_check(loss, [("a", a), ("b", b)])


def test_matmul_shape_errors():
    with pytest.raises(ag.ShapeError):
        ag.matmul(ag.Tensor(np.zeros((2, 3))), ag.Tensor(np.zeros((4, 2))))
    with pytest.raises(ag.ShapeError):
        ag.matmul(ag.Tensor(np.zeros(3)), ag.Tensor(np.zeros((3, 2))))
    with pytest.raises(ag.ShapeError, match="2-D"):
        ag.matmul(ag.Tensor(np.zeros((2, 2, 3))), ag.Tensor(np.zeros((2, 3, 2))))
    with pytest.raises(ag.ShapeError, match="2-D"):
        ag.matmul(ag.Tensor(np.zeros((2, 3))), ag.Tensor(np.zeros((2, 3, 2))))


def test_mac_counter_counts_forward_only():
    ag.reset_mac_count()
    a = ag.Tensor(np.ones((3, 4)), requires_grad=True)
    b = ag.Tensor(np.ones((4, 5)), requires_grad=True)
    out = ag.matmul(a, b)
    assert ag.mac_count() == 3 * 4 * 5
    ag.backward(ag.sum_(out))
    assert ag.mac_count() == 3 * 4 * 5  # backward matmuls are raw numpy, not tallied


def attend_softmax(x):
    """Row softmax of finite ``x`` through ``attend``: with identity keys and values, its output is its weights."""
    eye = ag.Tensor(np.eye(x.shape[1])[None])
    return ag.attend(ag.Tensor(x[None]), eye, eye, 1, 1.0).data[0]


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    for trial in range(20):
        s = attend_softmax(rng.normal(size=(4, 7)) * rng.uniform(0.1, 50.0))
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(4), atol=1e-12)
        assert np.all(s >= 0.0)


def test_softmax_is_shift_invariant_and_stable():
    x = np.array([[1000.0, 1000.5, 999.0]])
    s = attend_softmax(x)
    np.testing.assert_allclose(s, attend_softmax(x - 1000.0), atol=1e-15)
    assert np.all(np.isfinite(s))


@pytest.mark.parametrize("n_heads,scale", [(1, 1.0), (1, 0.5), (4, 1.0), (4, 0.5)])
def test_attend_gradients(n_heads, scale):
    rng = np.random.default_rng(40 + n_heads)
    q = ag.Tensor(rng.normal(size=(3, 8))[None], requires_grad=True)
    k = ag.Tensor(rng.normal(size=(5, 8))[None], requires_grad=True)
    v = ag.Tensor(rng.normal(size=(5, 8))[None], requires_grad=True)
    w = ag.Tensor(rng.normal(size=(3, 8))[None])

    def loss():
        return ag.sum_(ag.mul(ag.attend(q, k, v, n_heads, scale), w))

    fd_check(loss, [("q", q), ("k", k), ("v", v)])


def test_attend_is_softmax_of_scaled_scores_per_head():
    rng = np.random.default_rng(44)
    q, k, v = rng.normal(size=(3, 8)), rng.normal(size=(5, 8)), rng.normal(size=(5, 8))
    out = ag.attend(ag.Tensor(q[None]), ag.Tensor(k[None]), ag.Tensor(v[None]), 2, 0.5).data[0]
    for cols in (slice(0, 4), slice(4, 8)):
        scores = 0.5 * (q[:, cols] @ k[:, cols].T)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(out[:, cols], weights @ v[:, cols], rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_attend_rejects_non_finite_scores(bad):
    for n_s in (1, 3):  # a lone sample, and a stack where only sample 1's keys are bad
        q = np.ones((n_s, 2, 4))
        k = np.ones((n_s, 3, 4))
        k[n_s // 2, 1, 2] = bad  # reaches every score of that sample's second head, second column
        with pytest.raises(ag.NumericError):
            ag.attend(ag.Tensor(q), ag.Tensor(k), ag.Tensor(np.ones((n_s, 3, 4))), 2, 1.0)
        with ag.no_grad(), pytest.raises(ag.NumericError):
            ag.attend(ag.Tensor(q, requires_grad=True), ag.Tensor(k), ag.Tensor(np.ones((n_s, 3, 4))), 2, 1.0)


def test_attend_counts_both_products_and_checks_shapes():
    ag.reset_mac_count()
    ag.attend(ag.Tensor(np.ones((1, 3, 8))), ag.Tensor(np.ones((1, 5, 8))), ag.Tensor(np.ones((1, 5, 8))), 4, 1.0)
    assert ag.mac_count() == 2 * 3 * 5 * 8
    ones = ag.Tensor(np.ones((1, 5, 8)))
    flat = ag.Tensor(np.ones((5, 8)))
    for q, k, v, heads in [(np.ones((1, 3, 8)), ones, ones, 3), (np.ones((1, 3, 6)), ones, ones, 2),
                           (np.ones((1, 3, 8)), ones, ag.Tensor(np.ones((1, 4, 8))), 2), (np.ones(8), ones, ones, 2),
                           (np.ones((3, 8)), flat, flat, 2), (np.ones((2, 3, 8)), ones, ones, 2)]:
        with pytest.raises(ag.ShapeError):
            ag.attend(ag.Tensor(q), k, v, heads, 1.0)


def test_layer_norm_output_statistics():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 16)) * 3.0 + 2.0
    g = ag.Tensor(np.ones(16))
    b = ag.Tensor(np.zeros(16))
    out = ag.layer_norm(ag.Tensor(x), g, b)
    np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(5), atol=1e-12)
    np.testing.assert_allclose(out.data.var(axis=-1), np.ones(5), atol=1e-4)  # eps shifts variance slightly


def test_layer_norm_gradients():
    rng = np.random.default_rng(5)
    x = ag.Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    g = ag.Tensor(rng.normal(size=8), requires_grad=True)
    b = ag.Tensor(rng.normal(size=8), requires_grad=True)
    w = ag.Tensor(rng.normal(size=(4, 8)))

    def loss():
        return ag.sum_(ag.mul(ag.layer_norm(x, g, b), w))

    fd_check(loss, [("x", x), ("gain", g), ("bias", b)])


def test_layer_norm_shape_validation():
    with pytest.raises(ag.ShapeError):
        ag.layer_norm(ag.Tensor(np.zeros((2, 4))), ag.Tensor(np.zeros(3)), ag.Tensor(np.zeros(4)))


def test_dropout_eval_is_identity_and_consumes_no_randomness():
    rng = ag.RngState(7)
    x = ag.Tensor(np.arange(12.0).reshape(3, 4))
    assert ag.dropout(x, 0.5, None) is x
    assert ag.dropout(x, 0.0, rng) is x
    assert rng.position == 0


def test_dropout_training_scales_survivors():
    rng = ag.RngState(8)
    x = ag.Tensor(np.ones((2000,)))
    out = ag.dropout(x, 0.25, rng)
    kept = out.data != 0.0
    np.testing.assert_allclose(out.data[kept], 1.0 / 0.75)
    assert abs(kept.mean() - 0.75) < 0.05
    assert rng.position == 1


def test_dropout_rejects_bad_rate():
    rng = ag.RngState(0)
    with pytest.raises(ValueError):
        ag.dropout(ag.Tensor(np.ones(3)), 1.0, rng)
    with pytest.raises(ValueError):
        ag.dropout(ag.Tensor(np.ones(3)), -0.1, rng)


@pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
def test_dropout_matches_the_float_mask_reference(rate):
    """The boolean keep-mask times 1/(1-rate) equals ``a * ((r >= rate) / (1 - rate))`` bit for bit."""
    rng = np.random.default_rng(31)
    base, upstream = rng.normal(size=(6, 7)), rng.normal(size=(6, 7))
    x = ag.Tensor(base, requires_grad=True)
    stream = ag.RngState(5)
    out = ag.dropout(x, rate, stream)
    ag.backward(ag.sum_(ag.mul(out, upstream)))
    mask = (ag.RngState(5).random(base.shape) >= rate) / (1.0 - rate)
    assert out.data.tobytes() == (base * mask).tobytes()  # signed zeros included
    assert x.grad.tobytes() == (upstream * mask).tobytes()
    assert stream.position == 1


def _leaf_run(build, arrays, seed):
    """Forward and leaf-gradient bytes, stream position and MACs of ``build`` on fresh leaves."""
    leaves = [ag.Tensor(a, requires_grad=True) for a in arrays]
    stream = ag.RngState(seed) if seed is not None else None
    ag.reset_mac_count()
    out = build(*leaves, stream)
    macs = ag.mac_count()
    upstream = np.random.default_rng(32).normal(size=out.shape)
    ag.backward(ag.sum_(ag.mul(out, upstream)))
    return (out.data.tobytes(), [t.grad.tobytes() for t in leaves],
            stream.position if stream is not None else None, macs)


def test_linear_is_bitwise_the_sum_of_matmul_and_bias():
    rng = np.random.default_rng(33)
    arrays = [rng.normal(size=(9, 5)), rng.normal(size=(5, 4)), rng.normal(size=(4,)), rng.normal(size=(9, 5))]

    # the input is interior, so its gradient passes through the node
    def fused(x0, w, b, shift, _):
        return ag.linear(ag.add(x0, shift), w, b)

    def reference(x0, w, b, shift, _):
        return ag.add(ag.matmul(ag.add(x0, shift), w), b)

    assert _leaf_run(fused, arrays, None) == _leaf_run(reference, arrays, None)
    with pytest.raises(ag.ShapeError):
        ag.linear(ag.Tensor(arrays[0]), ag.Tensor(arrays[1]), ag.Tensor(np.zeros(5)))


def test_linear_skips_the_gradient_of_a_constant_input():
    rng = np.random.default_rng(37)
    x, g = rng.normal(size=(9, 5)), rng.normal(size=(9, 4))
    w, b = ag.Tensor(rng.normal(size=(5, 4)), requires_grad=True), ag.Tensor(rng.normal(size=4), requires_grad=True)
    out = ag.linear(ag.Tensor(x), w, b)
    assert out._node._backward_fn(g)[0] is None
    ag.backward(ag.sum_(ag.mul(out, g)))
    assert w.grad.tobytes() == (x.T @ g).tobytes()
    assert b.grad.tobytes() == g.sum(0).tobytes()


@pytest.mark.parametrize("rate", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("seed", [None, 7])
def test_residual_dropout_is_bitwise_add_of_dropout(rate, seed):
    rng = np.random.default_rng(34)
    arrays = [rng.normal(size=(8, 6)), rng.normal(size=(6, 6)), rng.normal(size=(8, 6))]

    def fused(h, w, res, stream):
        return ag.residual_dropout(res, ag.matmul(h, w), rate, stream)

    def reference(h, w, res, stream):
        return ag.add(res, ag.dropout(ag.matmul(h, w), rate, stream))

    got, want = _leaf_run(fused, arrays, seed), _leaf_run(reference, arrays, seed)
    assert got == want
    assert got[2] == (None if seed is None else int(rate > 0.0))
    with pytest.raises(ValueError, match="rate"):
        ag.residual_dropout(ag.Tensor(arrays[2]), ag.Tensor(arrays[2]), 1.0, None)


def test_dropout_gradients_with_reseeded_stream():
    base = np.random.default_rng(9).normal(size=(4, 5))
    x = ag.Tensor(base, requires_grad=True)

    def loss():
        rng = ag.RngState(123)  # identical mask on every evaluation
        return ag.sum_(ag.dropout(x, 0.4, rng))

    fd_check(loss, [("x", x)])


@pytest.mark.parametrize("seed", range(5))
def test_elementwise_op_gradients(seed):
    rng = np.random.default_rng(100 + seed)
    x = ag.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = ag.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = ag.Tensor(rng.normal(size=(3, 4)))

    def loss():
        t = ag.add(ag.mul(ag.relu(x), w), ag.sigmoid(x))
        t = ag.add(t, ag.softplus(x))
        t = ag.add(t, ag.mul(y, y))
        return ag.sum_(ag.mul(t, w))

    fd_check(loss, [("x", x), ("y", y)])


def test_broadcast_add_and_mul_gradients():
    rng = np.random.default_rng(12)
    x = ag.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    row = ag.Tensor(rng.normal(size=(1, 6)), requires_grad=True)
    scalar = ag.Tensor(1.7, requires_grad=True)

    def loss():
        return ag.sum_(ag.mul(ag.add(x, row), scalar))

    fd_check(loss, [("x", x), ("row", row), ("scalar", scalar)])


def test_slice_rows_gradients():
    rng = np.random.default_rng(13)
    x = ag.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    w = ag.Tensor(rng.normal(size=(4, 4)))

    def loss():
        return ag.sum_(ag.mul(ag.slice_rows(x, 1, 5), w))

    fd_check(loss, [("x", x)])
    for a, b in ((0, 2), (2, 6), (3, 3)):
        np.testing.assert_array_equal(ag.slice_rows(x, a, b).data, x.data[a:b])


def test_broadcast_to_and_unstack_gradients():
    rng = np.random.default_rng(15)
    x = ag.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = ag.Tensor(rng.normal(size=(2, 3, 4)))
    rows = rng.normal(size=(2, 3, 4))

    def loss():
        first, second = ag.unstack(ag.mul(ag.broadcast_to(x, (2, 3, 4)), w))
        return ag.add(ag.sum_(ag.mul(first, rows[0])), ag.sum_(ag.mul(ag.mul(second, second), rows[1])))

    fd_check(loss, [("x", x)])
    pieces = ag.unstack(ag.broadcast_to(x, (2, 3, 4)))
    assert [p.data.tobytes() for p in pieces] == [x.data.tobytes()] * 2

    # a trailing axis of size 1 is dropped: (B, N, 1) heads split into (N,) rows
    heads = ag.Tensor(rng.normal(size=(2, 3, 1)), requires_grad=True)

    def head_loss():
        first, second = ag.unstack(ag.mul(heads, heads))
        return ag.add(ag.sum_(ag.mul(first, rows[0, :, 0])), ag.sum_(ag.mul(second, rows[1, :, 1])))

    fd_check(head_loss, [("heads", heads)])
    pieces = ag.unstack(heads)
    assert [p.shape for p in pieces] == [(3,)] * 2
    assert [p.data.tobytes() for p in pieces] == [heads.data[i, :, 0].tobytes() for i in range(2)]


def test_a_stack_equals_its_samples_one_by_one():
    """Stacked linear, matmul, broadcast add and layer norm give each sample its own values, and
    gradients that sum the samples' to rounding: a weight's gradient is one product over all rows."""
    rng = np.random.default_rng(16)
    n_s, n, d = 3, 5, 8
    w, wq = (ag.Tensor(rng.normal(size=(d, d)), requires_grad=True) for _ in range(2))
    b, gain, bias = (ag.Tensor(rng.normal(size=d), requires_grad=True) for _ in range(3))
    pos = ag.Tensor(rng.normal(size=(n, d)), requires_grad=True)
    params = [("w", w), ("wq", wq), ("b", b), ("gain", gain), ("bias", bias), ("pos", pos)]
    xs, mix = rng.normal(size=(n_s, n, d)), rng.normal(size=(n_s, n, d))

    def block(x):
        return ag.matmul(ag.layer_norm(ag.add(ag.linear(x, w, b), pos), gain, bias), wq)

    stacked = block(ag.Tensor(xs))
    ag.backward(ag.sum_(ag.mul(stacked, mix)))
    got = {name: p.grad for name, p in params}
    for _, p in params:
        p.zero_grad()
    for i in range(n_s):
        out = block(ag.Tensor(xs[i]))
        np.testing.assert_allclose(out.data, stacked.data[i], rtol=1e-13, atol=1e-13)
        ag.backward(ag.sum_(ag.mul(out, mix[i])))
    for name, p in params:
        assert np.abs(got[name] - p.grad).max() <= 1e-12 * np.abs(p.grad).max(), name


def test_stacked_attention_runs_each_samples_float_ops():
    """Taped or not, a stack gives each sample the bytes of its own stack of one, gradients included."""
    rng = np.random.default_rng(17)
    n_s, n_q, n_k, d = 3, 5, 4, 8
    q = ag.Tensor(rng.normal(size=(n_s, n_q, d)), requires_grad=True)
    k, v = (ag.Tensor(rng.normal(size=(n_s, n_k, d)), requires_grad=True) for _ in range(2))
    mix = rng.normal(size=(n_s, n_q, d))
    out = ag.attend(q, k, v, 2, 0.5)
    ag.backward(ag.sum_(ag.mul(out, mix)))
    with ag.no_grad():
        assert ag.attend(q, k, v, 2, 0.5).data.tobytes() == out.data.tobytes()
    for i in range(n_s):
        alone = [ag.Tensor(t.data[i:i + 1], requires_grad=True) for t in (q, k, v)]
        got = ag.attend(*alone, 2, 0.5)
        assert got.data.tobytes() == out.data[i].tobytes()
        with ag.no_grad():
            assert ag.attend(*alone, 2, 0.5).data.tobytes() == out.data[i].tobytes()
        ag.backward(ag.sum_(ag.mul(got, mix[i:i + 1])))
        for t, stacked in zip(alone, (q, k, v)):
            assert t.grad.tobytes() == stacked.grad[i].tobytes()


class CountingWorker(ThreadPoolExecutor):
    """The one worker thread, counting the parts handed to it."""

    def __init__(self):
        super().__init__(1)
        self.parts = 0

    def submit(self, fn, /, *args, **kwargs):
        self.parts += 1
        return super().submit(fn, *args, **kwargs)


@contextlib.contextmanager
def split_mode(monkeypatch, mode):
    """``whole``: no op splits; ``inline``: ops split, both parts on the caller; ``worker``: split on a worker."""
    worker = CountingWorker() if mode == "worker" else False
    with monkeypatch.context() as m:
        m.setattr(ag, "_worker", worker)
        if mode == "whole":
            m.setattr(ag, "_SPLIT_WORK", 2**62)
        try:
            yield worker
        finally:
            if worker:
                worker.shutdown()


def _attend_and_product(n_s, n_q, n_k, taped):
    """Bytes of d256/h8 ``attend`` and of an (n_s, n_q, 256) x (256, 1024) product, their gradients, and the MACs."""
    rng = np.random.default_rng(n_s * 10007 + n_q * 101 + n_k)
    d = 256
    q, x, mix_a = (rng.normal(size=(n_s, n_q, d)) for _ in range(3))
    k, v = (rng.normal(size=(n_s, n_k, d)) for _ in range(2))
    w, mix_p = rng.normal(size=(d, 4 * d)), rng.normal(size=(n_s, n_q, 4 * d))
    leaves = [ag.Tensor(a, requires_grad=True) for a in (q, k, v, x, w)]
    macs = ag.mac_count()
    with contextlib.nullcontext() if taped else ag.no_grad():
        att = ag.attend(*leaves[:3], 8, d ** -0.5)
        prod = ag.matmul(*leaves[3:])
    macs = ag.mac_count() - macs
    out = [att.data, prod.data]
    if taped:
        ag.backward(ag.add(ag.sum_(ag.mul(att, mix_a)), ag.sum_(ag.mul(prod, mix_p))))
        out += [t.grad for t in leaves]
    return [a.tobytes() for a in out], macs


# (stack, queries, keys, taped, parts the worker runs): d256 self-attention at
# 512 clips, both taped and served, and served at 333 clips, whose scores a cut
# at a multiple of 16 rather than 24 would round differently on SkylakeX;
# training stacks; a bottleneck compress (4 tokens over 160 clips); the query
# generator (512 clips over 20 text tokens)
SPLIT_CASES = [
    (1, 512, 512, True, 4), (1, 512, 512, False, 2), (1, 333, 333, False, 2), (3, 160, 160, True, 2),
    (4, 75, 75, True, 2), (2, 128, 128, True, 2), (3, 4, 160, True, 1), (1, 512, 20, True, 2),
]


@pytest.fixture
def one_blas_thread():
    """BLAS on one thread, as perfbench runs it.

    A threaded OpenBLAS rounds some products by how it shares them among its
    threads (d256 scores at 333 clips, say), so their bytes follow the BLAS
    thread count whether or not an op splits.
    """
    get, set_ = openblas("get_num_threads"), openblas("set_num_threads")
    if get is None or set_ is None:
        pytest.skip("cannot set the BLAS thread count")
    before = get()
    set_(1)
    yield
    set_(before)


@pytest.mark.parametrize("n_s, n_q, n_k, taped, parts", SPLIT_CASES)
def test_a_split_op_keeps_the_bytes_of_the_whole_op(n_s, n_q, n_k, taped, parts, monkeypatch, one_blas_thread):
    """Whole, split inline and split on the worker: every output, gradient and MAC count is equal."""
    with split_mode(monkeypatch, "whole"):
        whole = _attend_and_product(n_s, n_q, n_k, taped)
    with split_mode(monkeypatch, "inline"):
        inline = _attend_and_product(n_s, n_q, n_k, taped)
    with split_mode(monkeypatch, "worker") as worker:
        split = _attend_and_product(n_s, n_q, n_k, taped)
    assert worker.parts == parts
    assert inline == whole
    assert split == whole


def _half_bad_scores(bad):
    """Scores over 96 queries that are non-finite only in row 3, inside the worker's first 48 rows."""
    rng = np.random.default_rng(29)
    q, k, v = rng.normal(size=(1, 96, 8)), rng.normal(size=(1, 64, 8)), rng.normal(size=(1, 64, 8))
    q[0, 3, 0] = bad
    return q, k, v


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scores_in_the_workers_half_raise_on_the_caller(bad, monkeypatch):
    q, k, v = _half_bad_scores(bad)
    monkeypatch.setattr(ag, "_SPLIT_WORK", 1)  # so these small shapes split
    made = []
    real_make = ag._make
    monkeypatch.setattr(ag, "_make", lambda *a: made.append(a) or real_make(*a))
    with split_mode(monkeypatch, "worker") as worker:
        for grad_mode in (contextlib.nullcontext, ag.no_grad):
            with grad_mode(), pytest.raises(ag.NumericError, match="softmax requires finite input"):
                ag.attend(ag.Tensor(q, requires_grad=True), ag.Tensor(k), ag.Tensor(v), 2, 1.0)
        assert worker.parts == 2 and not made
        q[0, 3, 0] = 0.0
        after = ag.attend(ag.Tensor(q), ag.Tensor(k), ag.Tensor(v), 2, 1.0).data
        assert worker.parts == 3
    with split_mode(monkeypatch, "whole"):
        assert after.tobytes() == ag.attend(ag.Tensor(q), ag.Tensor(k), ag.Tensor(v), 2, 1.0).data.tobytes()


def _split_product():
    rng = np.random.default_rng(31)
    return ag.matmul(ag.Tensor(rng.normal(size=(96, 256))), ag.Tensor(rng.normal(size=(256, 256)))).data


def test_one_cpu_starts_no_worker_thread(monkeypatch):
    monkeypatch.setattr(ag, "_worker", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    threads = threading.active_count()
    with split_mode(monkeypatch, "whole"):
        expected = _split_product()
    monkeypatch.setattr(ag, "_worker", None)
    assert _split_product().tobytes() == expected.tobytes()
    assert ag._worker is False and threading.active_count() == threads


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_splits_without_the_parents_worker(monkeypatch):
    with split_mode(monkeypatch, "worker") as worker:
        expected = _split_product()
        assert worker.parts == 1  # the parent's worker thread is running
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # forking with a live thread
            pid = os.fork()
        if pid == 0:
            ok = False
            try:
                ok = _split_product().tobytes() == expected.tobytes()
            finally:
                os._exit(0 if ok else 1)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child waited on its parent's worker thread")
        assert os.waitstatus_to_exitcode(done[1]) == 0


def test_backward_requires_scalar():
    x = ag.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ag.backward(ag.mul(x, 2.0))


def test_backward_twice_is_an_error():
    x = ag.Tensor(np.ones(3), requires_grad=True)
    loss = ag.sum_(x)
    ag.backward(loss)
    with pytest.raises(RuntimeError):
        ag.backward(loss)


def test_backward_fills_leaf_gradients():
    x = ag.Tensor(np.ones(3), requires_grad=True)
    y = ag.Tensor(np.full(3, 2.0), requires_grad=True)
    assert ag.backward(ag.sum_(ag.mul(x, y))) is None
    np.testing.assert_array_equal(x.grad, y.data)
    np.testing.assert_array_equal(y.grad, x.data)


def test_backward_releases_interior_gradients():
    x = ag.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    hidden = ag.mul(x, x)
    loss = ag.sum_(ag.add(hidden, x))
    ag.backward(loss)
    assert hidden.grad is None and loss.grad is None
    np.testing.assert_array_equal(x.grad, 2.0 * x.data + 1.0)


def test_backward_through_a_consumed_subgraph_is_an_error():
    x = ag.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    shared = ag.mul(x, x)
    first = ag.sum_(shared)
    second = ag.sum_(ag.add(shared, x))
    ag.backward(first)
    with pytest.raises(RuntimeError):
        ag.backward(second)
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)  # the refused call changed nothing


def _interior(x):
    return ag.sum_(ag.mul(x, 3.0))


def _no_grad_constant(x):
    with ag.no_grad():
        return _interior(x)


def _consumed_root(x):
    root = _interior(x)
    ag.backward(root)
    return root


def _consumed_subgraph(x):
    shared = ag.mul(x, 3.0)
    ag.backward(ag.sum_(shared))
    return ag.sum_(ag.add(ag.mul(x, x), shared))


# root kind: (root built over a leaf x = 2 whose .grad already holds 4,
#             x.grad after each of two backward calls, or RuntimeError where the call is refused)
ROOT_KINDS = {
    "interior": (_interior, (7.0, RuntimeError)),
    "leaf": (lambda x: x, (5.0, 6.0)),  # the root's 1 adds into the gradient it already holds
    "no-grad constant": (_no_grad_constant, (4.0, 4.0)),
    "consumed root": (_consumed_root, (RuntimeError, RuntimeError)),  # building it added 3
    "consumed shared subgraph": (_consumed_subgraph, (RuntimeError, RuntimeError)),
}


@pytest.mark.parametrize("kind", list(ROOT_KINDS))
def test_backward_by_root_kind(kind):
    build, after = ROOT_KINDS[kind]
    x = ag.Tensor(np.array([2.0]), requires_grad=True)
    ag.backward(ag.sum_(ag.mul(x, x)))
    root = build(x)
    for want in after:
        x_grad, root_grad = x.grad.copy(), root.grad
        if want is RuntimeError:
            with pytest.raises(RuntimeError):
                ag.backward(root)
            assert root.grad is root_grad  # the refused call changed no gradient
            np.testing.assert_array_equal(x.grad, x_grad)
        else:
            ag.backward(root)
            np.testing.assert_array_equal(x.grad, [want])


def test_backward_frees_interior_arrays_while_the_loss_is_held():
    x = ag.Tensor(np.random.default_rng(35).normal(size=(128, 128)), requires_grad=True)
    nbytes = x.data.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        h = x
        for _ in range(8):
            h = ag.mul(ag.relu(h), 1.5)
        loss = ag.sum_(h)
        del h
        built = tracemalloc.get_traced_memory()[0] - base
        ag.backward(loss)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # the chain holds the 8 one-byte ReLU masks: ``mul`` keeps no ReLU output for the constant 1.5
    assert nbytes <= built < 2 * nbytes
    assert kept < 2 * nbytes, f"{kept} bytes still held after backward; x.grad is {nbytes}"
    assert x.grad.shape == x.shape


def _captured(fn):
    """Everything a backward closure reaches through its cells, nested closures and tuples included."""
    stack = [cell.cell_contents for cell in fn.__closure__ or ()]
    while stack:
        obj = stack.pop()
        yield obj
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())


def test_an_output_no_backward_reads_is_freed_with_its_handle():
    rng = np.random.default_rng(36)
    x = ag.Tensor(rng.normal(size=(128, 128)), requires_grad=True)
    c = rng.normal(size=(128, 128))
    nbytes = x.data.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        h = x
        for _ in range(8):
            h = ag.add(h, c)
        loss = ag.sum_(h)
        del h
        built = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert built < nbytes, f"{built} bytes held by 8 sums whose backward reads only shapes"
    ag.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones_like(x.data))
    # relu's node keeps the 1-byte mask of its input, not the float64 input
    arrays = [o for o in _captured(ag.relu(x)._node._backward_fn) if isinstance(o, np.ndarray)]
    assert [(a.dtype, a.shape) for a in arrays] == [(np.dtype(bool), x.shape)]


def test_a_product_keeps_nothing_for_an_operand_that_needs_no_gradient():
    """The node of ``mul(relu(h), 1.5)`` keeps the ReLU mask only, and ``matmul`` by a constant keeps the constant."""
    rng = np.random.default_rng(37)
    h = ag.Tensor(rng.normal(size=(16, 8)), requires_grad=True)
    r = ag.relu(h)
    out = ag.mul(r, 1.5)
    held = [o for fn in (r._node._backward_fn, out._node._backward_fn) for o in _captured(fn)
            if isinstance(o, np.ndarray) and o.size > 1]
    assert [(a.dtype, a.shape) for a in held] == [(np.dtype(bool), h.shape)]
    assert out._node._backward_fn(np.ones(h.shape))[1] is None
    c = rng.normal(size=(4, 16))
    w_grads = ag.matmul(c, h)._node._backward_fn(np.ones((4, 8)))
    assert w_grads[0] is None and w_grads[1].shape == h.shape
    held = [o for o in _captured(ag.matmul(c, h)._node._backward_fn) if isinstance(o, np.ndarray)]
    assert [a.shape for a in held] == [c.shape]


def test_no_backward_closure_holds_an_op_output():
    """Closures hold arrays, shapes and scalars only: no tape node and no tensor, parameters included."""
    model = MomentModel(small_config(), seed=4)
    sample = make_sample(seed=5)
    targets = build_targets(sample.moments, sample.saliency, sample.n_clips)
    loss, _ = sample_loss(model, sample, targets, LossWeights(), ag.RngState(11))
    closures = [fn for fn in (getattr(v, "_backward_fn", None) for v in ag._topo_order(loss)) if fn is not None]
    assert len(closures) > 100
    for fn in closures:
        held = [o for o in _captured(fn) if isinstance(o, (ag.Tensor, ag._Node))]
        assert not held, f"{fn.__qualname__} holds {len(held)} tensor(s) or tape node(s)"


def test_gradients_accumulate_across_reuse():
    x = ag.Tensor(np.array([3.0]), requires_grad=True)
    loss = ag.sum_(ag.add(ag.mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
    ag.backward(loss)
    np.testing.assert_allclose(x.grad, np.array([7.0]))


def test_no_grad_suppresses_tape():
    x = ag.Tensor(np.ones(3), requires_grad=True)
    with ag.no_grad():
        out = ag.mul(x, 2.0)
    assert not out.requires_grad
    assert out._parents == ()


def test_rng_state_is_reproducible_and_tracks_position():
    a = ag.RngState(42)
    b = ag.RngState(42)
    np.testing.assert_array_equal(a.normal((3, 3)), b.normal((3, 3)))
    np.testing.assert_array_equal(a.random(5), b.random(5))
    assert a.position == b.position == 2
    c = ag.RngState(43)
    assert not np.array_equal(a.uniform(-1, 1, 4), c.uniform(-1, 1, 4))


def test_tensor_item():
    x = ag.Tensor(2.0, requires_grad=True)
    y = ag.Tensor(3.0, requires_grad=True)
    out = ag.mul(ag.add(ag.mul(x, y), x), 0.5)
    assert out.item() == pytest.approx((2.0 * 3.0 + 2.0) / 2.0)
    with pytest.raises(ag.ShapeError):
        ag.Tensor(np.ones(2)).item()


# ---------------------------------------------------------------------------
# extra hand-checked values
# ---------------------------------------------------------------------------

def test_layer_norm_hand_cases():
    gain2, bias2 = ag.Tensor(np.ones(2)), ag.Tensor(np.zeros(2))
    out = ag.layer_norm(ag.Tensor(np.array([1.0, -1.0])), gain2, bias2)
    np.testing.assert_allclose(out.data, np.array([1.0, -1.0]) / np.sqrt(1.0 + 1e-5), atol=1e-14)
    gain3, bias3 = ag.Tensor(np.ones(3)), ag.Tensor(np.zeros(3))
    const = ag.layer_norm(ag.Tensor(np.array([3.0, 3.0, 3.0])), gain3, bias3)
    np.testing.assert_allclose(const.data, np.zeros(3), atol=1e-12)


def test_softmax_symmetry_and_extreme_logits():
    np.testing.assert_allclose(attend_softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]], atol=1e-15)
    out = attend_softmax(np.array([[1000.0, 0.0], [0.0, -1000.0]]))
    assert out[0, 0] > 1.0 - 1e-12 and out[0, 1] < 1e-12 and out[1, 1] < 1e-12 and np.all(np.isfinite(out))


def test_dropout_empirical_rate_large_sample():
    rng = ag.RngState(100)
    out = ag.dropout(ag.Tensor(np.ones(1_000_000)), 0.1, rng)
    zero_fraction = float((out.data == 0.0).mean())
    assert abs(zero_fraction - 0.1) < 0.01


def test_dropout_checks_rate_without_rng():
    with pytest.raises(ValueError, match="rate"):
        ag.dropout(ag.Tensor(np.ones(4)), 1.5, None)


def test_backward_hand_examples():
    x = ag.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    ag.backward(ag.sum_(ag.mul(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, 4.0])
    y = ag.Tensor(np.array([5.0, -3.0, 0.5]), requires_grad=True)
    ag.backward(ag.sum_(y))
    np.testing.assert_allclose(y.grad, np.ones(3))


def test_matmul_identity_cases():
    a = ag.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(ag.matmul(a, ag.Tensor(np.eye(2))).data, a.data)
    col = ag.Tensor(np.array([[5.0], [7.0]]))
    np.testing.assert_array_equal(ag.matmul(ag.Tensor(np.eye(2)), col).data, col.data)
