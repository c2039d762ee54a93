import json

import numpy as np
import pytest

from conftest import central_difference, grad_close
from ppst import nn
from ppst.errors import CompatibilityError, ConfigurationError
from ppst.adapters import AdapterConfig, StyleAdapterSet, StyledLanguageModel
from ppst.lm import (LmConfig, batch_loss, pad_batch, sequence_nll, shifted_batch,
                     teacher_forced_batch)


def test_forward_shapes(tiny_lm):
    ids = np.array([[4, 5, 6, 7]])
    logits, _ = tiny_lm.forward_embeds(tiny_lm.embed_tokens(ids))
    assert logits.shape == (1, 4, tiny_lm.config.vocab_size)


def test_context_length_guard(tiny_lm):
    ids = np.zeros((1, tiny_lm.config.max_seq_len + 1), dtype=int)
    with pytest.raises(ConfigurationError):
        tiny_lm.forward_embeds(tiny_lm.embed_tokens(ids))


def test_lm_is_causal(tiny_lm):
    ids = np.array([[4, 5, 6, 7, 8]])
    logits1, _ = tiny_lm.forward_embeds(tiny_lm.embed_tokens(ids))
    ids2 = ids.copy()
    ids2[0, 3] = 9
    logits2, _ = tiny_lm.forward_embeds(tiny_lm.embed_tokens(ids2))
    assert np.allclose(logits1[0, :3], logits2[0, :3])
    assert not np.allclose(logits1[0, 3:], logits2[0, 3:])


def test_pad_batch():
    ids, lengths = pad_batch([[4, 5], [6]], pad_id=0)
    assert ids.tolist() == [[4, 5], [6, 0]]
    assert lengths.tolist() == [2, 1]


def test_teacher_forced_batch_layout(tiny_lm):
    tok = tiny_lm.tokenizer
    inputs, targets, mask = teacher_forced_batch([[5, 6, 7], [8]], tok, max_seq_len=16)
    assert inputs[0].tolist() == [tok.bos_id, 5, 6, 7]
    assert targets[0].tolist() == [5, 6, 7, tok.eos_id]
    assert mask[0].tolist() == [1, 1, 1, 1]
    assert inputs[1].tolist() == [tok.bos_id, 8, tok.pad_id, tok.pad_id]
    assert targets[1].tolist() == [8, tok.eos_id, tok.pad_id, tok.pad_id]
    assert mask[1].tolist() == [1, 1, 0, 0]


def test_teacher_forced_batch_truncates(tiny_lm):
    tok = tiny_lm.tokenizer
    inputs, targets, _ = teacher_forced_batch([[5] * 50], tok, max_seq_len=8)
    assert inputs.shape[1] == 7
    assert targets[0, -1] == tok.eos_id


def test_full_model_gradients(tiny_lm):
    rng = np.random.default_rng(0)
    ids = rng.integers(4, tiny_lm.config.vocab_size, size=(2, 5))
    targets = rng.integers(4, tiny_lm.config.vocab_size, size=(2, 5))
    mask = np.ones((2, 5))

    def loss_fn(backward=False):
        return batch_loss(tiny_lm, (ids, targets, mask), backward=backward)[0]

    params = tiny_lm.params()
    for p in params.values():
        p.zero_grad()
    loss_fn(backward=True)
    for name, p in params.items():
        flat = p.value.reshape(-1)
        grad = p.grad.reshape(-1)
        for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            fd = central_difference(lambda: loss_fn(), flat, i)
            assert grad_close(fd, grad[i]), name


@pytest.mark.parametrize("adapter_activation", [None, "gelu"])
def test_validation_forwards_compute_no_gelu_slope(tiny_lm, monkeypatch, adapter_activation):
    """`sequence_nll` and `batch_loss(..., backward=False)` run forward only, with
    the logits of a training forward, through the LM's MLPs and GELU adapters alike."""
    adapters = None
    if adapter_activation:
        adapter_set = StyleAdapterSet("romance", tiny_lm, AdapterConfig(activation="gelu"))
        rng = np.random.default_rng(3)
        for p in adapter_set.params().values():     # away from the zero-init identity
            p.value[...] = rng.standard_normal(p.value.shape) * 0.5
        adapters = adapter_set.blocks
    embeds = tiny_lm.embed_tokens([[4, 5, 6], [7, 8, 9]])
    logits, cache = tiny_lm.forward_embeds(embeds, adapters)
    forward_only, none = tiny_lm.forward_embeds(embeds, adapters, backward=False)
    assert np.array_equal(forward_only, logits) and cache is not None and none is None
    slopes = []
    gelu = nn.ACTIVATIONS["gelu"]

    def recording(x, backward=True, out=None):
        slopes.append(backward)
        return gelu(x, backward, out)

    monkeypatch.setitem(nn.ACTIVATIONS, "gelu", recording)
    sequence_nll(tiny_lm, [[4, 5, 6], [7, 8]], adapters)
    batch_loss(tiny_lm, teacher_forced_batch([[4, 5]], tiny_lm.tokenizer, 8), adapters,
               backward=False)
    gelus = tiny_lm.config.n_layer * (1 + (adapters is not None))
    assert slopes == [False] * 2 * gelus


def test_batch_loss_gradients_with_a_prefix(tiny_lm):
    """With a prefix over the anchor slots, `batch_loss` returns the prefix rows'
    gradient and gives `tok_emb` only the other inputs' gradient (none to bos)."""
    rng = np.random.default_rng(5)
    tok = tiny_lm.tokenizer
    batch = shifted_batch([tok.bos_id] * 2, [[4, 5, 6, tok.eos_id], [7, tok.eos_id]],
                          tok.pad_id)
    prefix = rng.standard_normal((2, 2, tiny_lm.config.d_model))

    def loss_fn():
        return batch_loss(tiny_lm, batch, prefix=prefix, backward=False)[0]

    for p in tiny_lm.params().values():
        p.zero_grad()
    loss, dprefix = batch_loss(tiny_lm, batch, prefix=prefix)
    assert loss == loss_fn() and dprefix.shape == prefix.shape
    flat, grad = prefix.reshape(-1), dprefix.reshape(-1)
    for i in rng.choice(flat.size, size=6, replace=False):
        assert grad_close(central_difference(loss_fn, flat, i), grad[i])
    tok_emb = tiny_lm.tok_emb
    assert not tok_emb.grad[tok.bos_id].any()
    for row in (4, 5, 6, 7):
        assert tok_emb.grad[row].any()
        for j in range(0, tiny_lm.config.d_model, 3):
            fd = central_difference(loss_fn, tok_emb.value[row], j)
            assert grad_close(fd, tok_emb.grad[row, j]), (row, j)


def test_checksum_tracks_parameter_bits(tiny_lm):
    before = tiny_lm.checksum()
    tiny_lm.forward_embeds(tiny_lm.embed_tokens([[4, 5]]))
    assert tiny_lm.checksum() == before
    tiny_lm.head.b.value[0] += 1e-12
    assert tiny_lm.checksum() != before


def test_save_load_round_trip(tmp_path, tiny_lm):
    tiny_lm.save(tmp_path / "lm")
    loaded = type(tiny_lm).load(tmp_path / "lm")
    assert loaded.fingerprint() == tiny_lm.fingerprint()
    assert loaded.lm_id == tiny_lm.lm_id
    assert loaded.tokenizer.itos == tiny_lm.tokenizer.itos
    ids = np.array([[4, 5, 6]])
    a, _ = tiny_lm.forward_embeds(tiny_lm.embed_tokens(ids))
    b, _ = loaded.forward_embeds(loaded.embed_tokens(ids))
    assert np.allclose(a, b, atol=1e-5)   # float32 storage
    # a second save/load is bit-stable
    loaded.save(tmp_path / "lm2")
    again = type(tiny_lm).load(tmp_path / "lm2")
    assert again.checksum() == loaded.checksum()


def test_d_model_must_be_a_multiple_of_n_head(tmp_path, tiny_lm):
    with pytest.raises(ConfigurationError, match="d_model must be a multiple of"):
        LmConfig(vocab_size=8, d_model=18, n_head=4)
    tiny_lm.save(tmp_path / "lm")
    manifest = json.loads((tmp_path / "lm" / "manifest.json").read_text())
    manifest["config"]["n_head"] = 3        # d_model 8
    (tmp_path / "lm" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CompatibilityError, match="d_model must be a multiple of"):
        type(tiny_lm).load(tmp_path / "lm")


def test_perplexity_positive_and_finite(tiny_lm):
    token_lists = [[4, 5, 6], [7, 8]]
    ppl = StyledLanguageModel(tiny_lm).perplexity(token_lists)
    assert np.isfinite(ppl) and ppl > 1.0
