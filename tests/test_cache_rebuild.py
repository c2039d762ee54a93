"""Backward rebuilds the LayerNorm outputs and the attention context bit for bit.

The reference is tests/cache_oracle.py, the same layers with caches that keep
those arrays. Every output, input gradient and parameter gradient must have the
same bytes, and a block's training cache must be the smaller one.
"""

import numpy as np
import pytest

import cache_oracle
from conftest import make_tiny_lm
from ppst import nn
from ppst.adapters import AdapterConfig, StyleAdapterSet


def scrambled_lm_and_adapters(activation):
    """A 2-layer LM and one adapter set, every param drawn at random, so no
    LayerNorm is the identity and no adapter starts at zero."""
    lm = make_tiny_lm(n_words=12, n_layer=2, n_head=2, d_model=16, d_ff=64, seed=3)
    adapters = StyleAdapterSet(
        "romance", lm, AdapterConfig(bottleneck_dim=4, activation=activation), seed=4)
    rng = np.random.default_rng(5)
    for p in (*lm.params().values(), *adapters.params().values()):
        p.value[...] = rng.standard_normal(p.value.shape) * 0.5
    return lm, adapters


def assert_same_bytes(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def run(forward, backward, trained, embeds, dlogits):
    """(logits, d embeds, {name: grad}) of one forward and backward."""
    for p in trained.values():
        p.zero_grad()
    logits, cache = forward(embeds)
    dembeds = backward(dlogits, cache)
    return logits, dembeds, {name: p.grad.copy() for name, p in trained.items()}


@pytest.mark.parametrize("t", [1, 9])
@pytest.mark.parametrize("with_adapters, activation", [
    (False, "relu"), (True, "relu"), (True, "gelu"), (True, "tanh")])
@pytest.mark.parametrize("lm_frozen", [True, False], ids=["lm-frozen", "lm-trained"])
def test_lm_backward_is_bit_equal_to_the_caching_reference(t, with_adapters, activation,
                                                           lm_frozen):
    lm, adapter_set = scrambled_lm_and_adapters(activation)
    adapters = adapter_set.blocks if with_adapters else None
    rng = np.random.default_rng(6)
    embeds = rng.standard_normal((3, t, lm.config.d_model))
    dlogits = rng.standard_normal((3, t, lm.config.vocab_size))
    trained = dict(adapter_set.params()) if with_adapters else {}
    if not lm_frozen:
        trained.update(lm.params())
    with nn.freeze_params(lm.params() if lm_frozen else {}):
        got = run(lambda x: lm.forward_embeds(x, adapters), lm.backward,
                  trained, embeds, dlogits)
        want = run(lambda x: cache_oracle.lm_forward(lm, x, adapters),
                   lambda dy, cache: cache_oracle.lm_backward(lm, dy, cache),
                   trained, embeds, dlogits)
    assert_same_bytes(got[0], want[0], "logits")
    assert_same_bytes(got[1], want[1], "d embeds")
    assert got[2].keys() == want[2].keys() == trained.keys()
    for name in trained:
        assert_same_bytes(got[2][name], want[2][name], name)


@pytest.mark.parametrize("t", [1, 6])
def test_block_layers_are_bit_equal_to_the_caching_reference(t):
    """The block and, on their own, attention and the MLP, each given its input
    as backward's `x`."""
    rng = np.random.default_rng(7)
    block = nn.TransformerBlock(16, 4, 64, rng)
    for p in block.params("b").values():
        p.value[...] = rng.standard_normal(p.value.shape) * 0.5
    x = rng.standard_normal((2, t, 16))
    dy = rng.standard_normal(x.shape)
    layers = [
        (block, block.forward, block.backward,
         lambda x: cache_oracle.block_forward(block, x),
         lambda dy, cache: cache_oracle.block_backward(block, dy, cache)),
        (block.attn, block.attn.forward, lambda dy, cache: block.attn.backward(dy, cache, x),
         lambda x: cache_oracle.attention_forward(block.attn, x),
         lambda dy, cache: cache_oracle.attention_backward(block.attn, dy, cache)),
        (block.mlp, block.mlp.forward, lambda dy, cache: block.mlp.backward(dy, cache, x),
         lambda x: cache_oracle.mlp_forward(block.mlp, x),
         lambda dy, cache: cache_oracle.mlp_backward(block.mlp, dy, cache)),
    ]
    for layer, forward, backward, ref_forward, ref_backward in layers:
        trained = layer.params("x")
        got = run(forward, backward, trained, x, dy)
        want = run(ref_forward, ref_backward, trained, x, dy)
        for i, what in enumerate(("y", "dx")):
            assert_same_bytes(got[i], want[i], f"{type(layer).__name__} {what}")
        for name in trained:
            assert_same_bytes(got[2][name], want[2][name], name)


def cache_bytes(cache):
    """Bytes of the arrays a cache keeps alive, each counted once at its base
    array (q, k and v are views of one qkv product)."""
    bases = {}

    def walk(item):
        if isinstance(item, np.ndarray):
            while item.base is not None:
                item = item.base
            bases[id(item)] = item.nbytes
        elif isinstance(item, (tuple, list)):
            for part in item:
                walk(part)

    walk(cache)
    return sum(bases.values())


def test_block_training_cache_is_13u_plus_the_attention_weights():
    """With u = 8 * B * T * d_model bytes (one float64 (B, T, d_model) array),
    A = 8 * B * n_head * T * T (the attention weights) and d_ff = 4 * d_model,
    a training block's cache keeps:
      ln1: xhat (u) and 1/std (8 * B * T);
      attention: the qkv product that q, k and v view (3u) and the weights (A);
      ln2: xhat (u) and 1/std (8 * B * T);
      MLP: the GELU output (4u, out's input) and its slope (4u);
    13u + A + 16 * B * T in all. The caching reference also keeps ln1's output
    (qkv's input), the context (proj's input) and ln2's output (fc's input),
    16u + A + 16 * B * T, so it must fail the bound."""
    b, t, d, n_head = 3, 10, 32, 4
    rng = np.random.default_rng(8)
    block = nn.TransformerBlock(d, n_head, 4 * d, rng)
    x = rng.standard_normal((b, t, d))
    u = 8 * b * t * d
    bound = 13 * u + 8 * b * n_head * t * t + 2 * 8 * b * t
    assert cache_bytes(block.forward(x)[1]) <= bound
    assert cache_bytes(cache_oracle.block_forward(block, x)[1]) == bound + 3 * u
