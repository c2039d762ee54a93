import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from conftest import central_difference, grad_close
from ppst import nn
from ppst.adapters import AdapterBlock, AdapterConfig
from ppst.errors import ConfigurationError
from ppst.lm import CausalTransformerLM, LmConfig, batch_loss, shifted_batch
from ppst.mapper import MapperConfig, PrefixMapper
from ppst.tokenizer import WordTokenizer


def check_param_gradients(layer, forward_loss, rng, samples=6):
    """Compare accumulated analytic grads against central differences."""
    for p in layer.params("x").values():
        p.zero_grad()
    forward_loss(backward=True)
    for name, p in layer.params("x").items():
        flat = p.value.reshape(-1)
        grad = p.grad.reshape(-1)
        for i in rng.choice(flat.size, size=min(samples, flat.size), replace=False):
            fd = central_difference(lambda: forward_loss(backward=False), flat, i)
            assert grad_close(fd, grad[i], rel_tol=1e-5), name


def quadratic_loss(y):
    return 0.5 * float((y * y).sum()), y


def test_linear_gradients():
    rng = np.random.default_rng(0)
    layer = nn.Linear(5, 4, rng)
    x = rng.standard_normal((3, 5))

    def run(backward):
        y, cache = layer.forward(x)
        loss, dy = quadratic_loss(y)
        if backward:
            layer.backward(dy, cache)
        return loss

    check_param_gradients(layer, run, rng)


def test_layernorm_gradients_params_and_input():
    rng = np.random.default_rng(1)
    layer = nn.LayerNorm(6)
    layer.gain.value[:] = rng.standard_normal(6)
    layer.bias.value[:] = rng.standard_normal(6)
    x = rng.standard_normal((2, 4, 6))

    def run(backward):
        y, cache = layer.forward(x)
        loss, dy = quadratic_loss(y)
        if backward:
            return layer.backward(dy, cache), loss
        return loss

    check_param_gradients(layer, lambda backward: run(backward) if not backward
                          else run(True)[1], rng)
    dx, _ = run(True)
    for idx in [(0, 0, 0), (1, 3, 5), (0, 2, 3)]:
        fd = central_difference(lambda: run(False), x, idx)
        assert grad_close(fd, dx[idx], rel_tol=1e-5)


def test_attention_gradients():
    rng = np.random.default_rng(2)
    layer = nn.CausalSelfAttention(8, 2, rng)
    x = rng.standard_normal((2, 5, 8))

    def run(backward):
        y, cache = layer.forward(x)
        loss, dy = quadratic_loss(y)
        if backward:
            layer.backward(dy, cache, x)
        return loss

    check_param_gradients(layer, run, rng)


def test_attention_is_causal():
    rng = np.random.default_rng(3)
    layer = nn.CausalSelfAttention(8, 2, rng)
    x = rng.standard_normal((1, 6, 8))
    y1, _ = layer.forward(x)
    x2 = x.copy()
    x2[0, 4] += 10.0          # perturb a late position
    y2, _ = layer.forward(x2)
    assert np.allclose(y1[0, :4], y2[0, :4])
    assert not np.allclose(y1[0, 4:], y2[0, 4:])


def test_transformer_block_gradients():
    rng = np.random.default_rng(4)
    block = nn.TransformerBlock(8, 2, 16, rng)
    x = rng.standard_normal((2, 4, 8))

    def run(backward):
        y, cache = block.forward(x)
        loss, dy = quadratic_loss(y)
        if backward:
            block.backward(dy, cache)
        return loss

    check_param_gradients(block, run, rng)


@pytest.mark.parametrize("name", ["tanh", "relu", "gelu"])
def test_activation_gradients(name):
    """The slope is dy/dx; without backward, or written into x, y has the same bytes."""
    act = nn.get_activation(name)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(64) + 0.05   # keep relu away from the kink
    y, slope = act(x)
    for i in range(0, 64, 9):
        fd = central_difference(lambda: float(act(x)[0].sum()), x, i)
        assert grad_close(fd, slope[i], rel_tol=1e-5)
    y_only, none = act(x, backward=False)
    assert none is None and y_only.tobytes() == y.tobytes()
    in_place, in_place_slope = act(x, out=x)
    assert in_place is x and x.tobytes() == y.tobytes()
    assert np.array_equal(in_place_slope, slope)


def test_unknown_activation():
    with pytest.raises(ConfigurationError):
        nn.get_activation("sigmoidish")


def test_masked_cross_entropy_ignores_masked_labels():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal((2, 4, 5))
    targets = rng.integers(0, 5, size=(2, 4))
    mask = np.ones((2, 4))
    mask[0, 1] = 0.0
    loss_a, _ = nn.masked_cross_entropy(logits, targets, mask)
    targets2 = targets.copy()
    targets2[0, 1] = (targets[0, 1] + 3) % 5
    loss_b, _ = nn.masked_cross_entropy(logits, targets2, mask)
    assert loss_a == loss_b


def test_masked_cross_entropy_is_mean_of_per_example_means():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal((3, 5, 4))
    targets = rng.integers(0, 4, size=(3, 5))
    mask = (rng.random((3, 5)) > 0.4).astype(float)
    mask[:, 0] = 1.0
    batch_loss, _ = nn.masked_cross_entropy(logits, targets, mask)
    singles = [nn.masked_cross_entropy(logits[i:i + 1], targets[i:i + 1],
                                       mask[i:i + 1])[0] for i in range(3)]
    assert abs(batch_loss - np.mean(singles)) < 1e-12


def test_masked_cross_entropy_gradient():
    rng = np.random.default_rng(8)
    logits = rng.standard_normal((2, 3, 4))
    targets = rng.integers(0, 4, size=(2, 3))
    mask = np.ones((2, 3))
    _, dlogits = nn.masked_cross_entropy(logits, targets, mask)
    flat = logits.reshape(-1)
    for i in range(0, flat.size, 5):
        fd = central_difference(
            lambda: nn.masked_cross_entropy(logits, targets, mask)[0], flat, i)
        assert grad_close(fd, dlogits.reshape(-1)[i], rel_tol=1e-5)


def test_adam_reduces_quadratic():
    rng = np.random.default_rng(9)
    p = nn.Param(rng.standard_normal(10))
    target = rng.standard_normal(10)
    opt = nn.Adam({"p": p}, lr=0.05)
    first = float(((p.value - target) ** 2).sum())
    for _ in range(200):
        opt.zero_grad()
        p.grad += 2 * (p.value - target)
        opt.step()
    assert float(((p.value - target) ** 2).sum()) < 0.01 * first


def test_freeze_params_blocks_writes():
    p = nn.Param(np.zeros(3))
    p.zero_grad()
    grad = p.grad
    with nn.freeze_params({"p": p}):
        with pytest.raises(ValueError):
            p.value += 1.0
        assert p.grad is None    # a frozen param has no gradient
    p.value += 1.0           # writable again afterwards
    assert p.value[0] == 1.0
    assert p.grad is grad    # and its gradient is back


def test_adam_rejects_frozen_and_non_contiguous_params():
    rng = np.random.default_rng(10)
    live, frozen = nn.Param(rng.standard_normal(4)), nn.Param(rng.standard_normal(4))
    live.zero_grad()
    live.grad += 1.0
    before = live.value.copy()
    opt = nn.Adam({"live.w": live, "frozen.w": frozen})
    with nn.freeze_params({"frozen.w": frozen}):
        with pytest.raises(ConfigurationError, match="'frozen.w' has no gradient"):
            opt.step()
    assert np.array_equal(live.value, before) and opt.t == 0    # nothing was updated
    strided = nn.Param(rng.standard_normal((3, 4)).T)
    strided.zero_grad()
    with pytest.raises(ConfigurationError, match="'strided.w' is not C-contiguous"):
        nn.Adam({"strided.w": strided}).step()
    bad_grad = nn.Param(rng.standard_normal((4, 3)))
    bad_grad.grad = np.zeros((3, 4)).T
    with pytest.raises(ConfigurationError, match="'bad_grad.w' is not C-contiguous"):
        nn.Adam({"bad_grad.w": bad_grad}).step()


def test_zero_grad_allocates_the_buffer_once():
    p = nn.Param(np.ones((2, 3)))
    assert p.grad is None                 # a param holds no gradient until trained
    p.zero_grad()
    grad = p.grad
    assert grad.shape == (2, 3) and grad.flags.c_contiguous and not grad.any()
    grad += 1.0
    p.zero_grad()
    assert p.grad is grad and not grad.any()    # zeroed in place after that


@pytest.mark.parametrize("trained", [False, True])
def test_zero_grad_refuses_a_frozen_param(trained):
    p = nn.Param(np.ones(3))
    if trained:
        p.zero_grad()
    grad = p.grad
    with nn.freeze_params({"p": p}):
        with pytest.raises(ConfigurationError, match="frozen"):
            p.zero_grad()
        with pytest.raises(ConfigurationError, match="Adam: param 'p' is frozen"):
            nn.Adam({"p": p}).zero_grad()
        assert p.grad is None             # no buffer was allocated: still frozen
    assert p.grad is grad


def test_building_an_lm_allocates_no_gradient_memory():
    """Building a model allocates its parameter values and little else."""
    tok = WordTokenizer([f"w{i}" for i in range(40)])
    cfg = LmConfig(vocab_size=tok.vocab_size, n_layer=4, n_head=4, d_model=128,
                   max_seq_len=128)
    tracemalloc.start()
    try:
        lm = CausalTransformerLM(cfg, tok, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * nn.param_count(lm.params())    # float64 values
    assert all(p.grad is None for p in lm.params().values())


def test_mlp_backward_allocates_no_hidden_array():
    """Backward makes no (B, T, d_ff) array: dy @ W_out.T goes into the cached GELU
    output once out's weight gradient has read it, and the slope is multiplied in
    there. What it does allocate is dx, (B, T, d_model), a quarter of one such
    array at d_ff = 4 * d_model, and a (d_model, d_ff) weight-gradient product, an
    eighth of one at B * T = 8 * d_model, so the peak stays below 3/8 of one."""
    b, t, d, d_ff = 4, 64, 32, 128
    rng = np.random.default_rng(19)
    mlp = nn.Mlp(d, d_ff, rng)
    for p in mlp.params("x").values():
        p.zero_grad()
    x = rng.standard_normal((b, t, d))
    _, cache = mlp.forward(x)
    dy = rng.standard_normal((b, t, d))
    tracemalloc.start()
    try:
        mlp.backward(dy, cache, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.375 * 8 * b * t * d_ff
    assert cache == []      # the GELU output and slope are released


def second_backward(layer):
    """A backward through `layer`'s fresh training cache, to be called twice."""
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, 3, 8))
    if layer in ("mlp", "block"):
        block = nn.TransformerBlock(8, 2, 32, rng)
        if layer == "mlp":
            _, cache = block.mlp.forward(x)
            return lambda: block.mlp.backward(x, cache, x)
        _, cache = block.forward(x)
        return lambda: block.backward(x, cache)
    if layer == "adapter":
        adapter = AdapterBlock(8, AdapterConfig(bottleneck_dim=3, activation="gelu"), rng)
        _, cache = adapter.forward(x)
        return lambda: adapter.backward(x, cache)
    if layer == "mapper":
        mapper = PrefixMapper(MapperConfig(input_dim=8, lm_embed_dim=4, hidden_dim=6,
                                           prefix_length=2))
        prefix, cache = mapper.forward_batch(x[0])
        return lambda: mapper.backward_batch(prefix, cache)
    lm = CausalTransformerLM(LmConfig(vocab_size=12, n_layer=2, d_model=8),
                             WordTokenizer([f"w{i}" for i in range(8)]), seed=2)
    logits, cache = lm.forward_embeds(x)
    return lambda: lm.backward(np.ones_like(logits), cache)


@pytest.mark.parametrize("layer", ["mlp", "block", "lm", "adapter", "mapper"])
def test_a_training_cache_serves_one_backward(layer):
    """Backward overwrites the `Mlp`'s cached activation output, so a second
    backward on the same cache (the MLP's, a block's, the LM's, an adapter's or
    the mapper's) must raise, not return wrong gradients."""
    backward = second_backward(layer)
    backward()
    with pytest.raises(ConfigurationError, match="consumed"):
        backward()


def test_lm_training_step_holds_the_lower_caches_and_one_working_set():
    """The peak of one full-parameter `batch_loss` through a 4-layer LM, with
    u = 8 * B * T * d_model bytes, A = 8 * B * n_head * T * T and d_ff = 4 * d_model.
    It comes in the top block's GELU, when the forward holds:
      the three lower blocks' caches, 13u + A + 16 * B * T each (see
      test_cache_rebuild.py);
      the top block's LayerNorm and attention caches, 5u + A + 16 * B * T;
      its input, its residual and ln2's output, u each;
      the fc product, erf's cdf and the slope, 4u each;
      the input embeddings, u;
    L * (13u + A + 16 * B * T) + 8u in all, below the bound of L * (13u + A +
    16 * B * T) + 10u. A forward that kept the MLP's pre-activation, the
    LayerNorm outputs and the context, and a backward that made a fresh
    (B, T, d_ff) gradient beside the GELU output, peaked 5.9u above the bound."""
    b, t, d, n_head, n_layer = 4, 32, 32, 2, 4
    tok = WordTokenizer([f"w{i}" for i in range(8)])
    lm = CausalTransformerLM(LmConfig(vocab_size=tok.vocab_size, n_layer=n_layer,
                                      n_head=n_head, d_model=d, max_seq_len=64), tok, seed=1)
    for p in lm.params().values():
        p.zero_grad()
    rng = np.random.default_rng(22)
    batch = shifted_batch([tok.bos_id], rng.integers(4, tok.vocab_size, (b, t)).tolist(),
                          tok.pad_id)
    u = 8 * b * t * d
    tracemalloc.start()
    try:
        batch_loss(lm, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_layer * (13 * u + 8 * b * n_head * t * t + 16 * b * t) + 10 * u


# ---------------------------------------------------------------------------
# bit-for-bit pins: the in-place layers against their textbook expressions


def test_adam_is_bit_equal_to_textbook_update():
    rng = np.random.default_rng(11)
    block = nn.Adam.BLOCK
    shapes = {"one": (1,), "short": (block - 1,), "long": (block + 1,),
              "matrix": (129, 512)}      # 2-D, over two blocks
    params = {k: nn.Param(rng.standard_normal(shape)) for k, shape in shapes.items()}
    want = {k: p.value.copy() for k, p in params.items()}
    m = {k: np.zeros(shape) for k, shape in shapes.items()}
    v = {k: np.zeros(shape) for k, shape in shapes.items()}
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    opt = nn.Adam(params, lr=lr)
    for t in range(1, 4):
        opt.zero_grad()
        for k, p in params.items():
            p.grad += rng.standard_normal(p.value.shape)
            g = p.grad
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * g * g
            mhat = m[k] / (1.0 - b1 ** t)
            vhat = v[k] / (1.0 - b2 ** t)
            want[k] = want[k] - lr * mhat / (np.sqrt(vhat) + eps)
        opt.step()
        for k, p in params.items():
            assert np.array_equal(p.value, want[k]), (k, t)
            assert np.array_equal(opt.m[k], m[k]) and np.array_equal(opt.v[k], v[k]), (k, t)


def test_gelu_is_bit_equal_to_textbook():
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.standard_normal(500) * 3, [0.0, -0.0, 1e-300, 9.0, -9.0, 40.0]])
    y, slope = nn.get_activation("gelu")(x)
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    assert np.array_equal(y, 0.5 * x * (1.0 + erf(x / math.sqrt(2.0))))
    assert np.array_equal(slope, cdf + x * pdf)


def test_layernorm_is_bit_equal_to_textbook():
    rng = np.random.default_rng(13)
    layer = nn.LayerNorm(48)
    layer.gain.value[:] = rng.standard_normal(48)
    layer.bias.value[:] = rng.standard_normal(48)
    x = rng.standard_normal((3, 7, 48)) * 2 + 0.5
    dy = rng.standard_normal(x.shape)
    for p in layer.params("x").values():
        p.zero_grad()
    y, cache = layer.forward(x)
    dx = layer.backward(dy, cache)

    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + layer.eps)
    xhat = xc * inv
    assert np.array_equal(y, xhat * layer.gain.value + layer.bias.value)
    dxhat = dy * layer.gain.value
    mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
    assert np.array_equal(dx, inv * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat))
    assert np.array_equal(layer.gain.grad, (dy * xhat).reshape(-1, 48).sum(axis=0))
    assert np.array_equal(layer.bias.grad, dy.reshape(-1, 48).sum(axis=0))


def textbook_attention(layer, x, past=None):
    """Forward of `CausalSelfAttention` as plain expressions: y and what
    backward needs."""
    b, t, d = x.shape
    h, dh = layer.n_head, layer.d_head
    qkv = x @ layer.qkv.w.value + layer.qkv.b.value
    q, k, v = (a.reshape(b, t, h, dh).transpose(0, 2, 1, 3)
               for a in np.split(qkv, 3, axis=-1))
    if past is not None:
        k = np.concatenate([past[0], k], axis=2)
        v = np.concatenate([past[1], v], axis=2)
    s = k.shape[2]
    scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh)
    scores[..., np.triu(np.ones((t, s), dtype=bool), k=s - t + 1)] = -np.inf
    scores -= scores.max(axis=-1, keepdims=True)
    attn = np.exp(scores)
    attn /= attn.sum(axis=-1, keepdims=True)
    ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(b, t, d)
    return ctx @ layer.proj.w.value + layer.proj.b.value, (q, k, v, attn, ctx)


def test_attention_is_bit_equal_to_textbook():
    rng = np.random.default_rng(14)
    layer = nn.CausalSelfAttention(32, 4, rng)
    x = rng.standard_normal((3, 9, 32))
    dy = rng.standard_normal(x.shape)
    for p in layer.params("x").values():
        p.zero_grad()
    y, cache = layer.forward(x)
    dx = layer.backward(dy, cache, x)

    want, (q, k, v, attn, ctx) = textbook_attention(layer, x)
    assert np.array_equal(y, want)
    b, t, d = x.shape
    dctx = (dy @ layer.proj.w.value.T).reshape(b, t, 4, 8).transpose(0, 2, 1, 3)
    dattn = dctx @ v.transpose(0, 1, 3, 2)
    dv = attn.transpose(0, 1, 3, 2) @ dctx
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dq = dscores @ k / math.sqrt(8)
    dk = dscores.transpose(0, 1, 3, 2) @ q / math.sqrt(8)
    dqkv = np.concatenate([a.transpose(0, 2, 1, 3).reshape(b, t, d) for a in (dq, dk, dv)],
                          axis=-1)
    assert np.array_equal(dx, dqkv @ layer.qkv.w.value.T)
    assert np.array_equal(layer.qkv.w.grad, x.reshape(-1, d).T @ dqkv.reshape(-1, 3 * d))
    assert np.array_equal(layer.qkv.b.grad, dqkv.reshape(-1, 3 * d).sum(axis=0))
    assert np.array_equal(layer.proj.w.grad, ctx.reshape(-1, d).T @ dy.reshape(-1, d))
    assert np.array_equal(layer.proj.b.grad, dy.reshape(-1, d).sum(axis=0))


def test_attention_step_with_past_is_bit_equal_to_textbook():
    rng = np.random.default_rng(15)
    layer = nn.CausalSelfAttention(32, 4, rng)
    _, (_, past_k, past_v, _) = layer.forward(rng.standard_normal((5, 6, 32)))
    # buffers with a spare row and spare positions, NaN wherever nothing was written
    k_buf, v_buf = np.full((2, 7, 4, 10, 8), np.nan)
    k_buf[:5, :, :6], v_buf[:5, :, :6] = past_k, past_v
    x = rng.standard_normal((5, 1, 32))
    y, (_, k, v, _) = layer.forward(x, (k_buf, v_buf, 6))
    want, (_, want_k, want_v, _, _) = textbook_attention(layer, x, (past_k, past_v))
    assert np.array_equal(y, want)
    assert np.array_equal(k, want_k) and np.array_equal(v, want_v)
    assert np.array_equal(k_buf[:5, :, :7], want_k) and np.array_equal(v_buf[:5, :, :7], want_v)
    assert np.isnan(k_buf[5:]).all() and np.isnan(k_buf[:, :, 7:]).all()
    assert np.isnan(v_buf[5:]).all() and np.isnan(v_buf[:, :, 7:]).all()


def test_attention_prefill_into_buffers_is_bit_equal_to_textbook():
    rng = np.random.default_rng(16)
    layer = nn.CausalSelfAttention(32, 4, rng)
    x = rng.standard_normal((1, 6, 32))
    k_buf, v_buf = np.full((2, 1, 4, 10, 8), np.nan)
    y, _ = layer.forward(x, (k_buf, v_buf, 0))
    want, (_, want_k, want_v, _, _) = textbook_attention(layer, x)
    assert np.array_equal(y, want)
    assert np.array_equal(k_buf[:, :, :6], want_k) and np.array_equal(v_buf[:, :, :6], want_v)


def test_mlp_forward_without_slope_is_bit_equal_and_caches_none():
    rng = np.random.default_rng(17)
    mlp = nn.Mlp(16, 32, rng)
    x = rng.standard_normal((3, 1, 16))
    y, cache = mlp.forward(x)
    y_decode, decode_cache = mlp.forward(x, backward=False)
    assert np.array_equal(y_decode, y)
    assert cache[1] is not None and decode_cache[1] is None


def test_mlp_backward_is_bit_equal_to_textbook():
    rng = np.random.default_rng(18)
    mlp = nn.Mlp(16, 64, rng)
    x = rng.standard_normal((3, 5, 16))
    dy = rng.standard_normal(x.shape)
    for p in mlp.params("x").values():
        p.zero_grad()
    y, cache = mlp.forward(x)
    dx = mlp.backward(dy, cache, x)

    fc, out = mlp.fc, mlp.out
    h = x @ fc.w.value + fc.b.value
    a = 0.5 * h * (1.0 + erf(h / math.sqrt(2.0)))
    cdf = 0.5 * (1.0 + erf(h / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi)
    slope = cdf + h * pdf
    assert np.array_equal(y, a @ out.w.value + out.b.value)
    dh = (dy @ out.w.value.T) * slope
    assert np.array_equal(dx, dh @ fc.w.value.T)
    assert np.array_equal(out.w.grad, a.reshape(-1, 64).T @ dy.reshape(-1, 16))
    assert np.array_equal(out.b.grad, dy.reshape(-1, 16).sum(axis=0))
    assert np.array_equal(fc.w.grad, x.reshape(-1, 16).T @ dh.reshape(-1, 64))
    assert np.array_equal(fc.b.grad, dh.reshape(-1, 64).sum(axis=0))
