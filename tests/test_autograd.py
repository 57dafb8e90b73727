"""Numeric core: finite-difference oracles and tape behaviour."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from momentkit import autograd as ag
from momentkit.fdcheck import check_gradients

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


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    for trial in range(20):
        x = rng.normal(size=(4, 7)) * rng.uniform(0.1, 50.0)
        s = ag.softmax(ag.Tensor(x), axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(4), atol=1e-12)
        assert np.all(s.data >= 0.0)


def test_softmax_is_shift_invariant_and_stable():
    x = np.array([[1000.0, 1000.5, 999.0]])
    s = ag.softmax(ag.Tensor(x), axis=-1)
    t = ag.softmax(ag.Tensor(x - 1000.0), axis=-1)
    np.testing.assert_allclose(s.data, t.data, atol=1e-15)
    assert np.all(np.isfinite(s.data))


def test_softmax_rejects_non_finite():
    with pytest.raises(ag.NumericError):
        ag.softmax(ag.Tensor(np.array([1.0, np.inf])))
    with pytest.raises(ag.NumericError):
        ag.softmax(ag.Tensor(np.array([np.nan, 0.0])))
    with pytest.raises(ag.NumericError):  # -inf never sets a row maximum; the global minimum catches it
        ag.softmax(ag.Tensor(np.array([[0.0, 1.0], [2.0, -np.inf]])))


def test_softmax_gradients():
    rng = np.random.default_rng(3)
    x = ag.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    w = ag.Tensor(rng.normal(size=(3, 6)))

    def loss():
        return ag.sum_(ag.mul(ag.softmax(x, axis=-1), w))

    fd_check(loss, [("x", x)])

    def scaled_loss():
        return ag.sum_(ag.mul(ag.softmax(x, axis=-1, scale=0.37), w))

    fd_check(scaled_loss, [("x", x)])
    np.testing.assert_array_equal(ag.softmax(x, scale=0.37).data, ag.softmax(ag.mul(x, 0.37)).data)


@pytest.mark.parametrize("n_heads,scale", [(1, 1.0), (1, 0.5), (4, 1.0), (4, 0.5)])
def test_attend_gradients(n_heads, scale):
    rng = np.random.default_rng(40 + n_heads)
    q = ag.Tensor(rng.normal(size=(3, 8)), requires_grad=True)
    k = ag.Tensor(rng.normal(size=(5, 8)), requires_grad=True)
    v = ag.Tensor(rng.normal(size=(5, 8)), requires_grad=True)
    w = ag.Tensor(rng.normal(size=(3, 8)))

    def loss():
        return ag.sum_(ag.mul(ag.attend(q, k, v, n_heads, scale), w))

    fd_check(loss, [("q", q), ("k", k), ("v", v)])


def test_attend_is_softmax_of_scaled_scores_per_head():
    rng = np.random.default_rng(44)
    q, k, v = rng.normal(size=(3, 8)), rng.normal(size=(5, 8)), rng.normal(size=(5, 8))
    out = ag.attend(ag.Tensor(q), ag.Tensor(k), ag.Tensor(v), 2, 0.5).data
    for cols in (slice(0, 4), slice(4, 8)):
        weights = ag.softmax(ag.Tensor(q[:, cols] @ k[:, cols].T), scale=0.5).data
        np.testing.assert_allclose(out[:, cols], weights @ v[:, cols], rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_attend_rejects_non_finite_scores(bad):
    q = np.ones((2, 4))
    k = np.ones((3, 4))
    k[1, 2] = bad  # reaches every score of the second head's second column
    with pytest.raises(ag.NumericError):
        ag.attend(ag.Tensor(q), ag.Tensor(k), ag.Tensor(np.ones((3, 4))), 2, 1.0)
    with ag.no_grad(), pytest.raises(ag.NumericError):
        ag.attend(ag.Tensor(q, requires_grad=True), ag.Tensor(k), ag.Tensor(np.ones((3, 4))), 2, 1.0)


def test_attend_counts_both_products_and_checks_shapes():
    ag.reset_mac_count()
    ag.attend(ag.Tensor(np.ones((3, 8))), ag.Tensor(np.ones((5, 8))), ag.Tensor(np.ones((5, 8))), 4, 1.0)
    assert ag.mac_count() == 2 * 3 * 5 * 8
    ones = ag.Tensor(np.ones((5, 8)))
    for q, k, v, heads in [(np.ones((3, 8)), ones, ones, 3), (np.ones((3, 6)), ones, ones, 2),
                           (np.ones((3, 8)), ones, ag.Tensor(np.ones((4, 8))), 2), (np.ones(8), ones, ones, 2)]:
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
    y = ag.Tensor(rng.normal(size=(3, 4)) + 3.5, requires_grad=True)  # positive shift for log
    w = ag.Tensor(rng.normal(size=(3, 4)))

    def loss():
        t = ag.add(ag.mul(ag.relu(x), w), ag.sigmoid(x))
        t = ag.add(t, ag.log(y))
        t = ag.add(t, ag.softplus(x))
        t = ag.add(t, ag.power(y, 2.0))
        return ag.mean(ag.mul(t, w))

    fd_check(loss, [("x", x), ("y", y)])


def test_abs_and_clip_gradients_away_from_kinks():
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(4, 4))
    raw[np.abs(raw) < 0.3] = 0.5  # keep coordinates off the non-differentiable points
    x = ag.Tensor(raw, requires_grad=True)

    def loss():
        return ag.sum_(ag.add(ag.absolute(x), ag.clip(x, -0.9, 0.9)))

    fd_check(loss, [("x", x)])


def test_clip_zeroes_gradient_outside_range():
    x = ag.Tensor(np.array([-2.0, 0.0, 2.0]), requires_grad=True)
    out = ag.sum_(ag.clip(x, -1.0, 1.0))
    ag.backward(out)
    np.testing.assert_array_equal(x.grad, np.array([0.0, 1.0, 0.0]))


def test_log_rejects_nonpositive():
    with pytest.raises(ag.NumericError):
        ag.log(ag.Tensor(np.array([1.0, 0.0])))


def test_broadcast_add_and_mul_gradients():
    rng = np.random.default_rng(12)
    x = ag.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    row = ag.Tensor(rng.normal(size=(1, 6)), requires_grad=True)
    scalar = ag.Tensor(1.7, requires_grad=True)

    def loss():
        return ag.sum_(ag.mul(ag.add(x, row), scalar))

    fd_check(loss, [("x", x), ("row", row), ("scalar", scalar)])


def test_gather_rows_accumulates_repeats():
    x = ag.Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    out = ag.sum_(ag.gather_rows(x, [1, 1, 3]))
    ag.backward(out)
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_array_equal(x.grad, expected)


def test_slice_rows_gradients():
    rng = np.random.default_rng(13)
    x = ag.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    w = ag.Tensor(rng.normal(size=(4, 4)))

    def loss():
        return ag.sum_(ag.mul(ag.slice_rows(x, 1, 5), w))

    fd_check(loss, [("x", x)])
    for a, b in ((0, 2), (2, 6), (3, 3)):
        np.testing.assert_array_equal(ag.slice_rows(x, a, b).data, x.data[a:b])


def test_reshape_mean_gradients():
    rng = np.random.default_rng(14)
    x = ag.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = ag.Tensor(rng.normal(size=(2, 3, 4)))

    def loss():
        return ag.mean(ag.reshape(ag.mul(x, w), (24,)))

    fd_check(loss, [("x", x)])


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


def test_backward_returns_leaf_gradient_map():
    x = ag.Tensor(np.ones(3), requires_grad=True)
    y = ag.Tensor(np.full(3, 2.0), requires_grad=True)
    leaves = ag.backward(ag.sum_(ag.mul(x, y)))
    assert set(leaves) == {x, y}
    np.testing.assert_array_equal(leaves[x], y.data)
    np.testing.assert_array_equal(leaves[y], x.data)


def test_backward_releases_interior_gradients():
    x = ag.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    hidden = ag.mul(x, x)
    loss = ag.sum_(ag.add(hidden, x))
    leaves = ag.backward(loss)
    assert hidden.grad is None and loss.grad is None
    np.testing.assert_array_equal(x.grad, 2.0 * x.data + 1.0)
    assert leaves[x] is x.grad


def test_backward_through_a_consumed_subgraph_is_an_error():
    x = ag.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    shared = ag.mul(x, x)
    first = ag.sum_(shared)
    second = ag.sum_(ag.add(shared, x))
    ag.backward(first)
    with pytest.raises(RuntimeError):
        ag.backward(second)
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)  # the refused call changed nothing


def test_backward_on_a_leaf_leaves_it_usable():
    x = ag.Tensor(np.array([2.0]), requires_grad=True)
    assert set(ag.backward(x)) == {x}
    leaves = ag.backward(ag.sum_(ag.mul(x, x)))
    np.testing.assert_array_equal(leaves[x], np.array([5.0]))  # 1 from the first call, 2x from the second


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
    assert built >= 16 * nbytes
    assert kept < 2 * nbytes, f"{kept} bytes still held after backward; x.grad is {nbytes}"
    assert x.grad.shape == x.shape


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
    np.testing.assert_allclose(ag.softmax(ag.Tensor(np.array([0.0, 0.0]))).data, [0.5, 0.5], atol=1e-15)
    out = ag.softmax(ag.Tensor(np.array([1000.0, 0.0]))).data
    assert out[0] > 1.0 - 1e-12 and out[1] < 1e-12 and np.all(np.isfinite(out))


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
