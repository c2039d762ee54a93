"""The mapper's caption batches against the layout builder they replaced.

`reference_build_prefix_batch` is the former `mapper.build_prefix_batch`, kept
as the oracle: zero-padded embeddings, the prefix in rows 0..P-1, and caption
token i as the target of position P-1+i. `prefix_batch_loss` now takes its
ids, targets and mask from `lm.shifted_batch`, the text trainers' layout, with
the prefix written over the bos slots. Its padded inputs hold the pad token's
embedding instead of zeros; nothing else may differ.
"""

import numpy as np

from conftest import make_tiny_lm
from test_mapper import small_mapper
from ppst import nn
from ppst.mapper import prefix_batch_loss
from ppst.nn import masked_cross_entropy


def reference_build_prefix_batch(prefixes, caption_ids, lm):
    """Assemble (inputs_embeds, targets, mask) for prefix-conditioned captions.

    prefixes: (B, P, d); caption_ids: list of id lists, each ending in eos.
    Position P-1+i predicts caption token i; prefix positions carry no loss.
    """
    b, p, d = prefixes.shape
    t_cap = max(len(c) for c in caption_ids)
    embeds = np.zeros((b, p + t_cap - 1, d))
    embeds[:, :p, :] = prefixes
    targets = np.zeros((b, p + t_cap - 1), dtype=np.intp)
    mask = np.zeros((b, p + t_cap - 1))
    for i, cap in enumerate(caption_ids):
        if len(cap) > 1:
            embeds[i, p: p + len(cap) - 1, :] = lm.embed_tokens(cap[:-1])
        targets[i, p - 1: p - 1 + len(cap)] = cap
        mask[i, p - 1: p - 1 + len(cap)] = 1.0
    return embeds, targets, mask


def reference_prefix_batch_loss(mapper, lm, embeddings, caption_ids, backward=False):
    prefixes, mcache = mapper.forward_batch(embeddings)
    embeds, targets, mask = reference_build_prefix_batch(prefixes, caption_ids, lm)
    logits, cache = lm.forward_embeds(embeds)
    loss, dlogits = masked_cross_entropy(logits, targets, mask)
    if backward:
        dembeds = lm.backward(dlogits, cache)
        mapper.backward_batch(dembeds[:, : prefixes.shape[1], :], mcache)
    return loss


def setting():
    """A tiny LM, a 3-row prefix mapper and captions as `train_mapper` cuts
    them: mixed lengths, one cut before its eos, one of a single token."""
    lm = make_tiny_lm(n_words=8, d_model=8, d_ff=16, max_seq_len=12, seed=3)
    mapper = small_mapper(input_dim=4, lm_embed_dim=8, hidden=6, prefix_length=3)
    eos = lm.tokenizer.eos_id
    captions = [[4, 5, 6, 7, eos], [8, eos], [9, 10, 11, 4, 5], [6], [eos]]
    embeddings = np.random.default_rng(2).standard_normal((len(captions), 4))
    return lm, mapper, embeddings, captions


def test_mapper_batch_matches_the_former_layout(monkeypatch):
    lm, mapper, embeddings, captions = setting()
    seen = {}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] = args
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lm, "forward_embeds", recording("embeds", lm.forward_embeds))
    monkeypatch.setattr(nn, "masked_cross_entropy", recording("loss", masked_cross_entropy))
    with nn.freeze_params(lm.params()):
        prefix_batch_loss(mapper, lm, embeddings, captions)
        prefixes, _ = mapper.forward_batch(embeddings)
        ref_embeds, ref_targets, ref_mask = reference_build_prefix_batch(prefixes, captions, lm)
    (embeds, _), (_, targets, mask) = seen["embeds"], seen["loss"]
    assert targets.dtype == ref_targets.dtype and targets.tobytes() == ref_targets.tobytes()
    assert mask.dtype == ref_mask.dtype and mask.tobytes() == ref_mask.tobytes()
    assert embeds.shape == ref_embeds.shape
    for i, cap in enumerate(captions):
        length = 3 + len(cap) - 1
        assert np.array_equal(embeds[i, :length], ref_embeds[i, :length]), i
    # the one layout difference: padding holds the pad embedding, not zeros
    pad = lm.embed_tokens([lm.tokenizer.pad_id])
    assert np.array_equal(embeds[3, 3:], np.repeat(pad, 4, axis=0))


def test_mapper_loss_and_gradients_are_bit_equal_to_the_former_layout():
    lm, mapper, embeddings, captions = setting()
    results = []
    with nn.freeze_params(lm.params()):
        for batch_loss in (reference_prefix_batch_loss, prefix_batch_loss):
            for p in mapper.params().values():
                p.zero_grad()
            loss = batch_loss(mapper, lm, embeddings, captions, backward=True)
            results.append((loss, {n: p.grad.copy() for n, p in mapper.params().items()}))
    (ref_loss, ref_grads), (loss, grads) = results
    assert loss == ref_loss
    for name, grad in ref_grads.items():
        assert grad.any() and grads[name].tobytes() == grad.tobytes(), name
