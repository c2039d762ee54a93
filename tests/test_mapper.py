import hashlib
import math
import re
import weakref

import numpy as np
import pytest
from scipy.special import erf

from conftest import (central_difference, grad_close, grads_unfrozen_and_frozen,
                      make_tiny_lm)
from ppst.corpus import ImageCaptionPair
from ppst.encoding import EmbeddingCache
from ppst.errors import CompatibilityError, ConfigurationError
from ppst.lm import CausalTransformerLM, shifted_batch
from ppst.mapper import (MapperConfig, MapperTrainConfig, PrefixMapper, prefix_batch_loss,
                         train_mapper)
from ppst.nn import masked_cross_entropy


class StubEncoder:
    """Deterministic embedding per image_ref, no file IO."""

    def __init__(self, embed_dim=4):
        self.embed_dim = embed_dim
        self.model_id = f"stub-{embed_dim}"
        self.max_text_tokens = 16

    def encode_image(self, image_ref):
        digest = hashlib.blake2b(str(image_ref).encode(), digest_size=8).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "little"))
        return rng.standard_normal(self.embed_dim)


def small_mapper(input_dim=4, lm_embed_dim=8, hidden=6, prefix_length=3, seed=0):
    cfg = MapperConfig(input_dim=input_dim, lm_embed_dim=lm_embed_dim,
                       hidden_dim=hidden, prefix_length=prefix_length)
    return PrefixMapper(cfg, seed=seed)


def test_default_prefix_length_is_10():
    cfg = MapperConfig(input_dim=16, lm_embed_dim=8)
    mapper = PrefixMapper(cfg, seed=0)
    emb = np.ones(16)
    assert mapper.map_prefix(emb).shape == (10, 8)


def test_zero_input_zero_bias_gives_zero_prefix():
    mapper = small_mapper()
    mapper.mlp.fc.b.value[...] = 0.0
    mapper.mlp.out.b.value[...] = 0.0
    emb = np.zeros(4)
    assert np.array_equal(mapper.map_prefix(emb), np.zeros((3, 8)))


def test_dimension_mismatch_rejected():
    mapper = small_mapper(input_dim=4)
    with pytest.raises(ConfigurationError):
        mapper.map_prefix(np.ones(5))


def test_row_major_reshape():
    mapper = small_mapper()
    flat = np.arange(3 * 8, dtype=float)
    mapper.mlp.out.w.value[...] = 0.0
    mapper.mlp.out.b.value[...] = flat
    emb = np.zeros(4)
    assert np.array_equal(mapper.map_prefix(emb), flat.reshape(3, 8))


def textbook_activation(name, h):
    """(act(h), act'(h)) as plain expressions."""
    if name == "tanh":
        return np.tanh(h), 1.0 - np.tanh(h) * np.tanh(h)
    if name == "relu":
        return np.maximum(h, 0.0), (h > 0.0).astype(np.float64)
    cdf = 0.5 * (1.0 + erf(h / math.sqrt(2.0)))
    return h * cdf, cdf + h * (np.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi))


@pytest.mark.parametrize("activation", ["tanh", "relu", "gelu"])
def test_mapper_is_bit_equal_to_textbook(activation):
    """The prefix, the input gradient and the four parameter gradients equal a
    textbook x @ W1 + b1 -> act -> @ W2 + b2 chain, byte for byte."""
    cfg = MapperConfig(input_dim=12, lm_embed_dim=8, hidden_dim=40, prefix_length=3,
                       activation=activation)
    mapper = PrefixMapper(cfg, seed=4)
    rng = np.random.default_rng(5)
    for p in mapper.params().values():
        p.value[...] = rng.standard_normal(p.value.shape)
        p.zero_grad()
    x = rng.standard_normal((5, 12))
    dprefix = rng.standard_normal((5, 3, 8))
    prefix, cache = mapper.forward_batch(x)
    dx = mapper.backward_batch(dprefix, cache)

    params = {name: p.value for name, p in mapper.params().items()}
    w1, b1, w2, b2 = (params[k] for k in ("fc1.w", "fc1.b", "fc2.w", "fc2.b"))
    h = x @ w1 + b1
    a, slope = textbook_activation(activation, h)
    assert prefix.tobytes() == (a @ w2 + b2).reshape(5, 3, 8).tobytes()
    dy = dprefix.reshape(5, 24)
    dh = (dy @ w2.T) * slope
    grads = {name: p.grad for name, p in mapper.params().items()}
    assert dx.tobytes() == (dh @ w1.T).tobytes()
    assert grads["fc2.w"].tobytes() == (a.T @ dy).tobytes()
    assert grads["fc2.b"].tobytes() == dy.sum(axis=0).tobytes()
    assert grads["fc1.w"].tobytes() == (x.T @ dh).tobytes()
    assert grads["fc1.b"].tobytes() == dh.sum(axis=0).tobytes()


def test_mapper_gradients_through_frozen_lm():
    # 4-dim toy configuration, checked against central finite differences
    lm = make_tiny_lm(n_words=6, d_model=8, d_ff=16, max_seq_len=16, seed=3)
    mapper = small_mapper(input_dim=4, lm_embed_dim=8, hidden=6, prefix_length=3)
    rng = np.random.default_rng(0)
    embeddings = rng.standard_normal((2, 4))
    captions = [[4, 5, lm.tokenizer.eos_id], [6, lm.tokenizer.eos_id]]

    def loss_fn(backward=False):
        for p in list(mapper.params().values()) + list(lm.params().values()):
            p.zero_grad()
        return prefix_batch_loss(mapper, lm, embeddings, captions, backward=backward)

    loss_fn(backward=True)
    grads = {name: p.grad.copy() for name, p in mapper.params().items()}
    checked = 0
    for name, p in mapper.params().items():
        flat = p.value.reshape(-1)
        grad = grads[name].reshape(-1)
        for i in range(flat.size):
            fd = central_difference(lambda: loss_fn(), flat, i)
            assert grad_close(fd, grad[i], rel_tol=1e-4), (name, i)
            checked += 1
    assert checked == 4 * 6 + 6 + 6 * 24 + 24


def test_freezing_the_lm_leaves_mapper_gradients_bit_equal():
    lm = make_tiny_lm(n_words=6, d_model=8, d_ff=16, max_seq_len=16, seed=3)
    mapper = small_mapper(input_dim=4, lm_embed_dim=8, hidden=6, prefix_length=3)
    embeddings = np.random.default_rng(0).standard_normal((2, 4))
    captions = [[4, 5, lm.tokenizer.eos_id], [6, lm.tokenizer.eos_id]]
    unfrozen, frozen = grads_unfrozen_and_frozen(lm, mapper.params(), lambda: (
        prefix_batch_loss(mapper, lm, embeddings, captions, backward=True)))
    for name, grad in unfrozen.items():
        assert grad.any() and np.array_equal(frozen[name], grad), name


def test_prefix_positions_carry_no_loss():
    lm = make_tiny_lm(seed=4)
    mapper = small_mapper(input_dim=4, lm_embed_dim=8, prefix_length=3)
    rng = np.random.default_rng(1)
    embeddings = rng.standard_normal((1, 4))
    captions = [[4, 5, lm.tokenizer.eos_id]]
    prefixes, _ = mapper.forward_batch(embeddings)
    ids, targets, mask = shifted_batch([lm.tokenizer.bos_id] * 3, captions, lm.tokenizer.pad_id)
    embeds = lm.embed_tokens(ids)
    embeds[:, :3] = prefixes                    # the prefix in the bos slots
    assert mask[0, : 3 - 1].sum() == 0          # positions before the first target
    logits, _ = lm.forward_embeds(embeds)
    loss_a, _ = masked_cross_entropy(logits, targets, mask)
    targets2 = targets.copy()
    targets2[0, 0] = 5                          # perturb a prefix-position "label"
    loss_b, _ = masked_cross_entropy(logits, targets2, mask)
    assert loss_a == loss_b


def test_batch_loss_equals_mean_of_singles():
    lm = make_tiny_lm(seed=5)
    mapper = small_mapper(input_dim=4, lm_embed_dim=8, prefix_length=2)
    rng = np.random.default_rng(2)
    embeddings = rng.standard_normal((3, 4))
    captions = [[4, 5, 6, lm.tokenizer.eos_id], [7, lm.tokenizer.eos_id],
                [5, 5, lm.tokenizer.eos_id]]
    batch = prefix_batch_loss(mapper, lm, embeddings, captions)
    singles = [prefix_batch_loss(mapper, lm, embeddings[i:i + 1], captions[i:i + 1])
               for i in range(3)]
    assert abs(batch - np.mean(singles)) < 1e-5


def test_train_mapper_freezes_lm_and_learns():
    lm = make_tiny_lm(n_words=12, d_model=8, d_ff=16, max_seq_len=24, seed=6)
    encoder = StubEncoder(embed_dim=4)
    rng = np.random.default_rng(3)
    word_ids = [w for w in lm.tokenizer.itos if w.startswith("w")]
    pairs = []
    for i in range(500):
        text = " ".join(rng.choice(word_ids, size=int(rng.integers(2, 6))))
        pairs.append(ImageCaptionPair(f"ref{i % 50}", text))
    cfg = MapperTrainConfig(max_epochs=3, batch_size=16, max_seq_len=16, seed=0)
    mapper_cfg = MapperConfig(input_dim=4, lm_embed_dim=8, hidden_dim=8, prefix_length=2)
    checksum = lm.checksum()
    mapper, log = train_mapper(pairs, encoder, lm, cfg, mapper_cfg)
    assert lm.checksum() == checksum            # frozen-LM contract
    assert len(log) == 3
    assert log[2]["train_loss"] < log[0]["train_loss"]


def test_train_mapper_rejects_empty_dataset(tiny_lm):
    with pytest.raises(ConfigurationError):
        train_mapper([], StubEncoder(), tiny_lm, MapperTrainConfig())


def test_train_mapper_refuses_another_encoders_cache(tiny_lm):
    encoder = StubEncoder(4)
    cache = EmbeddingCache("stub-8")
    pairs = [ImageCaptionPair(f"r{i}", "w4 w5") for i in range(4)]
    with pytest.raises(CompatibilityError, match="stub-8"):
        train_mapper(pairs, encoder, tiny_lm,
                     MapperTrainConfig(max_epochs=1, batch_size=4, max_seq_len=16),
                     MapperConfig(input_dim=4, lm_embed_dim=8, hidden_dim=4, prefix_length=2),
                     embedding_cache=cache)
    assert cache.entries == {}


def test_train_mapper_aborts_on_non_finite_loss(tiny_lm):
    import warnings
    from ppst.errors import TrainingDiverged
    tiny_lm.head.b.value[:] = np.inf          # poisoned LM -> nan loss immediately
    pairs = [ImageCaptionPair(f"r{i}", "w4 w5") for i in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")       # inf arithmetic is the point here
        with pytest.raises(TrainingDiverged,
                           match=re.escape("mapper: non-finite loss at epoch 0, batch 0")):
            train_mapper(pairs, StubEncoder(4), tiny_lm,
                         MapperTrainConfig(max_epochs=1, batch_size=4, max_seq_len=16),
                         MapperConfig(input_dim=4, lm_embed_dim=8, hidden_dim=4,
                                      prefix_length=2))


def test_train_mapper_holds_one_batch_at_a_time(tiny_lm, monkeypatch):
    """When a batch's forward starts, the previous batch's logits and forward
    cache are gone."""
    forward = CausalTransformerLM.forward_embeds
    earlier = []
    forwards = []

    def tracked(self, embeds, *args, **kwargs):
        assert all(ref() is None for ref in earlier), "an earlier batch is still alive"
        logits, cache = forward(self, embeds, *args, **kwargs)
        _, (ln_f_xhat, _), _ = cache
        earlier[:] = [weakref.ref(logits), weakref.ref(ln_f_xhat)]
        forwards.append(len(embeds))
        return logits, cache

    monkeypatch.setattr(CausalTransformerLM, "forward_embeds", tracked)
    pairs = [ImageCaptionPair(f"r{i}", "w4 w5 w6") for i in range(7)]
    train_mapper(pairs, StubEncoder(4), tiny_lm,
                 MapperTrainConfig(max_epochs=2, batch_size=3, max_seq_len=16),
                 MapperConfig(input_dim=4, lm_embed_dim=8, hidden_dim=4, prefix_length=2))
    assert forwards == [3, 3, 1] * 2    # two epochs of 3 + 3 + 1 pairs


def test_checkpoint_round_trip(tmp_path):
    mapper = small_mapper()
    mapper.save(tmp_path / "ck", extra_manifest={"encoder_model_id": "stub-4",
                                                 "lm_id": "toy", "final_loss": 1.5})
    loaded = PrefixMapper.load(tmp_path / "ck")
    assert loaded.config == mapper.config
    emb = np.ones(4)
    assert np.allclose(loaded.map_prefix(emb), mapper.map_prefix(emb),
                       atol=1e-6)
    from ppst.artifacts import read_manifest
    manifest = read_manifest(tmp_path / "ck")
    assert manifest["encoder_model_id"] == "stub-4"
    assert manifest["lm_id"] == "toy"
