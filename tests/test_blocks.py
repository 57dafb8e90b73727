"""Attention wirings against naive per-position reference implementations."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from momentkit import autograd as ag
from momentkit import blocks
from momentkit.autograd import ShapeError, Tensor
from momentkit.fdcheck import check_gradients

ORACLE_TOL = 1e-10


def naive_attention(w_q, w_k, w_v, w_z, q_in, k_in, v_in, residual, n_heads, q_pos=None, k_pos=None):
    """Reference: explicit loops over heads, query positions, and key positions; scores scaled by 1/sqrt(head_dim)."""
    if q_pos is not None:
        q_in = q_in + q_pos
    if k_pos is not None:
        k_in = k_in + k_pos
    dim = w_q.shape[0]
    head_dim = dim // n_heads
    nq, nk = q_in.shape[0], k_in.shape[0]
    merged = np.zeros((nq, dim))
    for h in range(n_heads):
        cols = slice(h * head_dim, (h + 1) * head_dim)
        for i in range(nq):
            qi = q_in[i] @ w_q
            scores = np.empty(nk)
            for j in range(nk):
                kj = k_in[j] @ w_k
                scores[j] = qi[cols] @ kj[cols]
            scores = scores / math.sqrt(head_dim)
            weights = np.exp(scores) / np.exp(scores).sum()
            acc = np.zeros(head_dim)
            for j in range(nk):
                acc += weights[j] * (v_in[j] @ w_v)[cols]
            merged[i, cols] = acc
    return residual + merged @ w_z


def make_params(dim, n_heads, seed):
    return blocks.AttentionParams(dim, n_heads, np.random.default_rng(seed))


@pytest.mark.parametrize("wiring", ["self", "compress", "expand"])
def test_attention_wirings_match_naive_oracle(wiring):
    matched = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        dim = 8
        n_heads = int(rng.choice([1, 2, 4]))
        n_x = int(rng.integers(1, 8))
        n_z = int(rng.integers(1, 5))
        params = make_params(dim, n_heads, seed=2000 + trial)
        x = rng.normal(size=(n_x, dim))
        z = rng.normal(size=(n_z, dim))
        use_pos = trial % 2 == 0
        pos = rng.normal(size=(n_x, dim)) if use_pos else None
        pos_t = Tensor(pos) if use_pos else None
        w = {k: getattr(params, k).data for k in ("w_q", "w_k", "w_v", "w_z")}

        if wiring == "self":
            got = blocks.self_attention(Tensor(x[None]), params, pos=pos_t)
            want = naive_attention(w["w_q"], w["w_k"], w["w_v"], w["w_z"],
                                   x, x, x, residual=x, n_heads=n_heads,
                                   q_pos=pos, k_pos=pos)
        elif wiring == "compress":
            got = blocks.compress(Tensor(x[None]), Tensor(z[None]), params, pos=pos_t)
            want = naive_attention(w["w_q"], w["w_k"], w["w_v"], w["w_z"],
                                   z, x, x, residual=z, n_heads=n_heads,
                                   q_pos=None, k_pos=pos)
        else:
            got = blocks.expand(Tensor(x[None]), Tensor(z[None]), params, pos=pos_t)
            want = naive_attention(w["w_q"], w["w_k"], w["w_v"], w["w_z"],
                                   x, z, z, residual=x, n_heads=n_heads,
                                   q_pos=pos, k_pos=None)
        err = np.max(np.abs(got.data[0] - want))
        assert err < ORACLE_TOL, f"trial {trial}: max abs err {err:.3e}"
        matched += 1
    assert matched == 100


def test_uniform_weights_reduce_to_neighbourhood_mean():
    # w_q = w_k = 0 makes every score zero, so attention averages the values;
    # with identity value/output maps the block is x_i + mean_j x_j exactly.
    dim = 4
    params = make_params(dim, 1, seed=3)
    params.w_q.data[:] = 0.0
    params.w_k.data[:] = 0.0
    params.w_v.data[:] = np.eye(dim)
    params.w_z.data[:] = np.eye(dim)
    x = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    out = blocks.self_attention(Tensor(x[None]), params)
    np.testing.assert_allclose(out.data[0], x + x.mean(axis=0), atol=1e-14)


def test_positions_never_reach_the_value_path():
    # with zeroed query/key maps the attention weights are uniform no matter
    # what the positional encodings are, so pos must not change the output
    dim = 6
    params = make_params(dim, 2, seed=4)
    params.w_q.data[:] = 0.0
    params.w_k.data[:] = 0.0
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, dim))
    huge_pos = Tensor(rng.normal(size=(5, dim)) * 1e3)
    plain = blocks.self_attention(Tensor(x[None]), params)
    shifted = blocks.self_attention(Tensor(x[None]), params, pos=huge_pos)
    np.testing.assert_array_equal(plain.data, shifted.data)


def test_score_scale_equals_query_weights_rescaled_by_inverse_sqrt_head_dim():
    dim, n_heads = 8, 2
    head_dim = dim // n_heads
    params = make_params(dim, n_heads, seed=6)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, dim))
    scaled_out = blocks.self_attention(Tensor(x[None]), params)
    unscaled = make_params(dim, n_heads, seed=6)
    unscaled.scale = 1.0
    unscaled.w_q.data[:] = unscaled.w_q.data / math.sqrt(head_dim)
    manual = blocks.self_attention(Tensor(x[None]), unscaled)
    np.testing.assert_allclose(scaled_out.data, manual.data, atol=1e-12)


def test_zero_output_projection_is_identity():
    params = make_params(8, 4, seed=8)
    params.w_z.data[:] = 0.0
    x = np.random.default_rng(9).normal(size=(3, 8))
    out = blocks.self_attention(Tensor(x[None]), params)
    np.testing.assert_array_equal(out.data[0], x)


def test_attention_gradients_all_wirings():
    dim, n_heads = 8, 2
    rng = np.random.default_rng(10)
    params = make_params(dim, n_heads, seed=11)
    norm_x, norm_z = blocks.LayerNorm(dim), blocks.LayerNorm(dim)
    x = Tensor(rng.normal(size=(4, dim))[None], requires_grad=True)
    z = Tensor(rng.normal(size=(2, dim))[None], requires_grad=True)
    pos = Tensor(rng.normal(size=(4, dim)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, dim))[None])

    def loss():
        h = blocks.self_attention(x, params, pos=pos, norm=norm_x)
        h = blocks.expand(h, blocks.compress(h, z, params, pos=pos, norm_x=norm_x, norm_z=norm_z),
                          params, pos=pos, norm_x=norm_x, norm_z=norm_z)
        return ag.sum_(ag.mul(h, w))

    checked = [("x", x), ("z", z), ("pos", pos),
               ("w_q", params.w_q), ("w_k", params.w_k), ("w_v", params.w_v), ("w_z", params.w_z),
               ("ln_gain", norm_x.gain), ("ln_bias", norm_x.bias)]
    report = check_gradients(loss, checked, step=1e-5, floor=1e-3,
                             max_coords_per_param=20, rng=np.random.default_rng(12))
    assert report.ok(1e-6), f"max rel err {report.max_rel_err:.3e} at {report.worst_param}[{report.worst_index}]"


def test_feed_forward_gradients_and_residual():
    dim = 6
    ff = blocks.FeedForward(dim, np.random.default_rng(13), drop_rate=0.0)
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(3, dim)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, dim)))
    norm = blocks.LayerNorm(dim)

    def loss():
        return ag.sum_(ag.mul(ff(x, norm=norm), w))

    report = check_gradients(loss, [("x", x), ("w1", ff.lin1.weight), ("b2", ff.lin2.bias)],
                             step=1e-5, floor=1e-3,
                             max_coords_per_param=20, rng=np.random.default_rng(15))
    assert report.ok(1e-6), f"max rel err {report.max_rel_err:.3e} at {report.worst_param}[{report.worst_index}]"
    # zeroing the second layer leaves only the residual path
    ff.lin2.weight.data[:] = 0.0
    ff.lin2.bias.data[:] = 0.0
    np.testing.assert_array_equal(ff(x).data, x.data)


def test_feed_forward_hidden_width_is_four_x():
    ff = blocks.FeedForward(16, np.random.default_rng(16))
    assert ff.lin1.weight.shape == (16, 64)
    assert ff.lin2.weight.shape == (64, 16)


def test_linear_init_within_fan_in_bound():
    lin = blocks.Linear(25, 10, np.random.default_rng(17))
    bound = 1.0 / math.sqrt(25)
    assert np.all(np.abs(lin.weight.data) <= bound)
    assert np.all(np.abs(lin.bias.data) <= bound)


def test_attention_params_rejects_indivisible_heads():
    with pytest.raises(ShapeError):
        blocks.AttentionParams(10, 3, np.random.default_rng(18))


def looped_attention(params, q_in, kv_in, residual, q_pos=None, k_pos=None):
    """Reference: one head at a time, with the float operations of batched attention in the same order."""
    q_in = q_in + q_pos if q_pos is not None else q_in
    k_in = kv_in + k_pos if k_pos is not None else kv_in
    q_full, k_full, v_full = q_in @ params.w_q.data, k_in @ params.w_k.data, kv_in @ params.w_v.data
    outs = []
    for h in range(params.n_heads):
        cols = slice(h * params.head_dim, (h + 1) * params.head_dim)
        scores = np.ascontiguousarray(q_full[:, cols]) @ np.ascontiguousarray(k_full[:, cols].T)
        scores = scores * (1.0 / math.sqrt(params.head_dim))
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        outs.append((e / e.sum(axis=-1, keepdims=True)) @ np.ascontiguousarray(v_full[:, cols]))
    return residual + np.concatenate(outs, axis=1) @ params.w_z.data


@pytest.mark.parametrize("dim,n_heads,n_q,n_k", [(8, 1, 5, 3), (16, 4, 7, 7), (64, 8, 4, 33), (64, 8, 40, 40)])
def test_batched_heads_equal_the_per_head_loop_bitwise(dim, n_heads, n_q, n_k):
    rng = np.random.default_rng(dim + n_q)
    q, kv, q_pos, k_pos = (rng.normal(size=(n, dim)) for n in (n_q, n_k, n_q, n_k))
    params = make_params(dim, n_heads, seed=n_k)
    got = blocks.attention(params, Tensor(q[None]), Tensor(kv[None]), residual=Tensor(q[None]),
                           q_pos=Tensor(q_pos), k_pos=Tensor(k_pos))
    np.testing.assert_array_equal(got.data[0], looped_attention(params, q, kv, q, q_pos, k_pos))


def test_attention_tape_size_does_not_depend_on_head_count():
    x = Tensor(np.random.default_rng(0).normal(size=(5, 8))[None], requires_grad=True)
    z = Tensor(np.random.default_rng(1).normal(size=(2, 8))[None], requires_grad=True)
    counts = {
        heads: (len(ag._topo_order(blocks.self_attention(x, make_params(8, heads, seed=1)))),
                len(ag._topo_order(blocks.compress(x, z, make_params(8, heads, seed=1)))))
        for heads in (1, 8)
    }
    assert counts[1] == counts[8]


def test_inference_attention_holds_one_head_of_scores_at_a_time():
    # 8 heads: d256 at 512 clips, and a stack of four d64 samples of 256 clips;
    # the (heads, B, N, N) scores alone are 16 MB in both cases, one head's 2 MB
    for n_s, n, dim in ((1, 512, 256), (4, 256, 64)):
        params = make_params(dim, 8, seed=2)
        x = Tensor(np.random.default_rng(3).normal(size=(n_s, n, dim)))
        tracemalloc.start()
        try:
            with ag.no_grad():
                blocks.self_attention(x, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"{(n_s, n, dim)}: peak {peak / 2**20:.1f} MB"


def test_positional_table_capacity_enforced():
    pe = blocks.PositionalEncoding(8, 4, np.random.default_rng(19))
    assert pe.rows(8).shape == (8, 4)
    with pytest.raises(ShapeError):
        pe.rows(9)


def test_named_parameters_is_deterministic_and_complete():
    class Stack(blocks.Module):
        def __init__(self):
            self.layers = [blocks.Linear(4, 4, np.random.default_rng(20)),
                           blocks.Linear(4, 4, np.random.default_rng(21))]
            self.norm = blocks.LayerNorm(4)
            self.pos = blocks.PositionalEncoding(6, 4, np.random.default_rng(22))

    names = [n for n, _ in Stack().named_parameters()]
    assert names == [
        "layers.0.weight", "layers.0.bias",
        "layers.1.weight", "layers.1.bias",
        "norm.gain", "norm.bias",
        "pos.table",
    ]


def test_attention_dropout_only_active_in_training():
    params = blocks.AttentionParams(8, 2, np.random.default_rng(23), drop_rate=0.5)
    x = Tensor(np.random.default_rng(24).normal(size=(4, 8))[None])
    eval_out = blocks.self_attention(x, params)
    eval_again = blocks.self_attention(x, params, streams=None)
    np.testing.assert_array_equal(eval_out.data, eval_again.data)
    train_a = blocks.self_attention(x, params, streams=[np.random.default_rng(1)])
    train_b = blocks.self_attention(x, params, streams=[np.random.default_rng(2)])
    assert not np.array_equal(train_a.data, train_b.data)


# ---------------------------------------------------------------------------
# closed-form and symmetry properties
# ---------------------------------------------------------------------------

def test_single_token_self_attention_closed_form():
    # one position: the softmax weight is exactly 1, so x' = x + (x Wv) Wz
    params = make_params(6, 2, seed=30)
    x = np.random.default_rng(31).normal(size=(1, 6))
    out = blocks.self_attention(Tensor(x[None]), params)
    want = x + (x @ params.w_v.data) @ params.w_z.data
    np.testing.assert_allclose(out.data[0], want, atol=1e-12)


def test_compress_over_identical_values_closed_form():
    # every value row equals c, so any convex combination is c per head
    params = make_params(6, 3, seed=32)
    rng = np.random.default_rng(33)
    c = rng.normal(size=6)
    x = np.tile(c, (5, 1))
    z = rng.normal(size=(2, 6))
    out = blocks.compress(Tensor(x[None]), Tensor(z[None]), params)
    want = z + (c @ params.w_v.data) @ params.w_z.data
    np.testing.assert_allclose(out.data[0], want, atol=1e-12)


def test_expand_single_token_set_closed_form():
    params = make_params(4, 1, seed=34)
    rng = np.random.default_rng(35)
    x = rng.normal(size=(3, 4))
    z = rng.normal(size=(1, 4))
    out = blocks.expand(Tensor(x[None]), Tensor(z[None]), params)
    want = x + np.tile((z @ params.w_v.data) @ params.w_z.data, (3, 1))
    np.testing.assert_allclose(out.data[0], want, atol=1e-12)


def test_permutation_equivariance_without_positions():
    params = make_params(8, 2, seed=36)
    rng = np.random.default_rng(37)
    x = rng.normal(size=(6, 8))
    perm = rng.permutation(6)
    a = blocks.self_attention(Tensor(x[None]), params).data[0]
    b = blocks.self_attention(Tensor(x[perm][None]), params).data[0]
    np.testing.assert_allclose(a[perm], b, atol=1e-12)
    z = rng.normal(size=(3, 8))
    ea = blocks.expand(Tensor(x[None]), Tensor(z[None]), params).data[0]
    eb = blocks.expand(Tensor(x[perm][None]), Tensor(z[None]), params).data[0]
    np.testing.assert_allclose(ea[perm], eb, atol=1e-12)


def test_positions_break_permutation_equivariance():
    params = make_params(8, 2, seed=38)
    rng = np.random.default_rng(39)
    pos = blocks.PositionalEncoding(8, 8, np.random.default_rng(40))
    x = rng.normal(size=(6, 8))
    perm = np.array([5, 0, 1, 2, 3, 4])
    a = blocks.self_attention(Tensor(x[None]), params, pos=pos.rows(6)).data[0]
    b = blocks.self_attention(Tensor(x[perm][None]), params, pos=pos.rows(6)).data[0]
    assert not np.allclose(a[perm], b)


def test_feed_forward_hand_computed_single_position():
    ff = blocks.FeedForward(2, np.random.default_rng(41))
    x = np.array([[0.5, -1.0]])
    h = np.maximum(x @ ff.lin1.weight.data + ff.lin1.bias.data, 0.0)
    want = x + (h @ ff.lin2.weight.data + ff.lin2.bias.data)
    np.testing.assert_allclose(ff(Tensor(x)).data, want, atol=1e-12)


def test_feed_forward_is_positionwise():
    ff = blocks.FeedForward(5, np.random.default_rng(42))
    rng = np.random.default_rng(43)
    x = rng.normal(size=(7, 5))
    perm = rng.permutation(7)
    np.testing.assert_allclose(ff(Tensor(x)).data[perm], ff(Tensor(x[perm])).data, atol=1e-12)
