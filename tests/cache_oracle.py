"""Training forward and backward that cache every array backward reads.

The reference for the layers that rebuild arrays in backward: each function
here is one layer's training forward or backward with a cache that keeps
the LayerNorm outputs that feed a Linear (the attention and MLP inputs, the
LM head input and the adapter's down-projection input) and the attention
context (the proj input). It calls the same `Linear`, `LayerNorm.forward` and
`LayerNorm.backward` as the package, so any difference from the package's
layers comes from the rebuilt arrays or the activations. Its activations are
its own `(forward, backward)` pairs, each backward a fresh `dy * f'(x)`, not
the package's in-place slopes. Training only: no `past`, which is decode.
"""

import math

import numpy as np

from ppst.nn import erf


def _gelu_fwd(x):
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    return x * cdf, cdf + x * (np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))


# name: (x -> (y, cache), (dy, cache) -> dx)
ACTIVATIONS = {
    "tanh": (lambda x: (np.tanh(x),) * 2, lambda dy, y: dy * (1.0 - y * y)),
    "relu": (lambda x: (np.maximum(x, 0.0), x), lambda dy, x: dy * (x > 0.0)),
    "gelu": (_gelu_fwd, lambda dy, slope: dy * slope),
}


def attention_forward(attn, x):
    b, t, d = x.shape
    qkv, qkv_cache = attn.qkv.forward(x)
    q, k, v = qkv.reshape(b, t, 3, attn.n_head, attn.d_head).transpose(2, 0, 3, 1, 4)
    weights = q @ k.transpose(0, 1, 3, 2)
    weights /= math.sqrt(attn.d_head)
    if t > 1:
        np.copyto(weights, -np.inf, where=np.triu(np.ones((t, t), dtype=bool), k=1))
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    ctx = (weights @ v).transpose(0, 2, 1, 3).reshape(b, t, d)
    y, proj_cache = attn.proj.forward(ctx)
    return y, (qkv_cache, q, k, v, weights, proj_cache)


def attention_backward(attn, dy, cache):
    qkv_cache, q, k, v, weights, proj_cache = cache
    b, h, t, dh = q.shape
    dctx = attn.proj.backward(dy, proj_cache).reshape(b, t, h, dh).transpose(0, 2, 1, 3)
    dqkv = np.empty((b, t, 3 * h * dh))
    dq, dk, dv = dqkv.reshape(b, t, 3, h, dh).transpose(2, 0, 3, 1, 4)
    dv[...] = weights.transpose(0, 1, 3, 2) @ dctx
    dscores = dctx @ v.transpose(0, 1, 3, 2)
    dscores -= (dscores * weights).sum(axis=-1, keepdims=True)
    dscores *= weights
    dq[...] = dscores @ k
    dq /= math.sqrt(dh)
    dk[...] = dscores.transpose(0, 1, 3, 2) @ q
    dk /= math.sqrt(dh)
    return attn.qkv.backward(dqkv, qkv_cache)


def mlp_forward(mlp, x):
    h, fc_cache = mlp.fc.forward(x)
    a, act_cache = ACTIVATIONS[mlp.activation][0](h)
    y, out_cache = mlp.out.forward(a)
    return y, (fc_cache, act_cache, out_cache)


def mlp_backward(mlp, dy, cache):
    fc_cache, act_cache, out_cache = cache
    da = mlp.out.backward(dy, out_cache)
    dh = ACTIVATIONS[mlp.activation][1](da, act_cache)
    return mlp.fc.backward(dh, fc_cache)


def block_forward(block, x):
    n1, ln1_cache = block.ln1.forward(x)
    a, attn_cache = attention_forward(block.attn, n1)
    h = x + a
    n2, ln2_cache = block.ln2.forward(h)
    m, mlp_cache = mlp_forward(block.mlp, n2)
    return h + m, (ln1_cache, attn_cache, ln2_cache, mlp_cache)


def block_backward(block, dy, cache):
    ln1_cache, attn_cache, ln2_cache, mlp_cache = cache
    dn2 = mlp_backward(block.mlp, dy, mlp_cache)
    dh = dy + block.ln2.backward(dn2, ln2_cache)
    dn1 = attention_backward(block.attn, dh, attn_cache)
    return dh + block.ln1.backward(dn1, ln1_cache)


def adapter_forward(adapter, h):
    n, ln_cache = adapter.ln.forward(h)
    u, mlp_cache = mlp_forward(adapter.mlp, n)
    return h + u, (ln_cache, mlp_cache)


def adapter_backward(adapter, dy, cache):
    ln_cache, mlp_cache = cache
    dn = mlp_backward(adapter.mlp, dy, mlp_cache)
    return dy + adapter.ln.backward(dn, ln_cache)


def lm_forward(lm, embeds, adapters=None):
    """`CausalTransformerLM.forward_embeds(embeds, adapters)` from position 0."""
    h = embeds + lm.pos_emb.value[:embeds.shape[1]]
    caches = []
    for i, block in enumerate(lm.blocks):
        h, c = block_forward(block, h)
        ac = None
        if adapters is not None:
            h, ac = adapter_forward(adapters[i], h)
        caches.append((c, ac))
    hn, ln_cache = lm.ln_f.forward(h)
    logits, head_cache = lm.head.forward(hn)
    return logits, (caches, ln_cache, head_cache, adapters)


def lm_backward(lm, dlogits, cache):
    caches, ln_cache, head_cache, adapters = cache
    dh = lm.ln_f.backward(lm.head.backward(dlogits, head_cache), ln_cache)
    for i in reversed(range(len(lm.blocks))):
        block_cache, adapter_cache = caches[i]
        if adapters is not None:
            dh = adapter_backward(adapters[i], dh, adapter_cache)
        dh = block_backward(lm.blocks[i], dh, block_cache)
    if lm.pos_emb.grad is not None:
        lm.pos_emb.grad[: dh.shape[1]] += dh.sum(axis=0)
    return dh
