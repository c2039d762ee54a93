import re
import warnings
import weakref

import numpy as np
import pytest

from conftest import grads_unfrozen_and_frozen, make_tiny_lm
from test_mapper import StubEncoder
from ppst.adapters import (AdapterBlock, AdapterConfig, AdapterTrainConfig,
                           StyleAdapterSet, StyledLanguageModel, attach, train_adapter,
                           train_full_finetune)
from ppst.corpus import ImageCaptionPair, StyledPassage
from ppst.errors import CompatibilityError, ConfigurationError, TrainingDiverged
from ppst.generation import DecodeConfig, generate
from ppst.lm import CausalTransformerLM
from ppst.mapper import MapperConfig, MapperTrainConfig, PrefixMapper, train_mapper
from ppst.synthetic import make_style_passages


def fresh_block(dim=8, bottleneck=3, seed=0, activation="relu"):
    rng = np.random.default_rng(seed)
    return AdapterBlock(dim, AdapterConfig(bottleneck_dim=bottleneck,
                                           activation=activation), rng)


def test_adapter_forward_matches_direct_formula():
    block = fresh_block(dim=8, bottleneck=3, seed=1)
    rng = np.random.default_rng(2)
    # give every parameter a nonzero value, then evaluate the published formula
    block.mlp.out.w.value[...] = rng.standard_normal(block.mlp.out.w.value.shape)
    block.mlp.out.b.value[...] = rng.standard_normal(8)
    block.ln.gain.value[...] = rng.standard_normal(8)
    block.ln.bias.value[...] = rng.standard_normal(8)
    h = rng.standard_normal(8)

    mu = h.mean()
    var = ((h - mu) ** 2).mean()
    normed = (h - mu) / np.sqrt(var + 1e-5) * block.ln.gain.value + block.ln.bias.value
    down = normed @ block.mlp.fc.w.value + block.mlp.fc.b.value
    up = np.maximum(down, 0.0) @ block.mlp.out.w.value + block.mlp.out.b.value
    expected = h + up

    assert np.allclose(block.forward(h)[0], expected, atol=1e-6)


def test_zero_up_projection_is_exact_identity():
    block = fresh_block()
    h = np.random.default_rng(3).standard_normal((4, 8))
    assert np.array_equal(block.forward(h)[0], h)


def test_zero_input_zero_biases_gives_zero():
    block = fresh_block()
    block.mlp.fc.b.value[...] = 0.0
    assert np.array_equal(block.forward(np.zeros(8))[0], np.zeros(8))


def test_bottleneck_must_be_smaller_than_hidden():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        AdapterBlock(8, AdapterConfig(bottleneck_dim=8), rng)


def test_default_bottleneck_is_an_eighth():
    assert StyleAdapterSet("x", make_tiny_lm(d_model=64)).config.bottleneck_dim == 8
    assert StyleAdapterSet("x", make_tiny_lm(d_model=4)).config.bottleneck_dim == 1
    config = AdapterConfig(activation="gelu")
    adapter_set = StyleAdapterSet("x", make_tiny_lm(d_model=64), config)
    assert config.bottleneck_dim == 0 and adapter_set.config.bottleneck_dim == 8
    assert adapter_set.config.activation == "gelu"
    assert adapter_set.blocks[0].mlp.fc.w.value.shape == (64, 8)


# ---------------------------------------------------------------------------
# composition


def random_prompts(lm, n, rng):
    return [list(rng.integers(4, lm.config.vocab_size, size=rng.integers(1, 8)))
            for _ in range(n)]


def test_attach_detach_restores_plain_logits(tiny_lm):
    adapter_set = StyleAdapterSet("romance", tiny_lm, seed=1)
    for p in adapter_set.params().values():    # make the adapters non-trivial
        p.value[...] = np.random.default_rng(4).standard_normal(p.value.shape) * 0.1
    prompts = random_prompts(tiny_lm, 20, np.random.default_rng(5))
    before = [StyledLanguageModel(tiny_lm, None, "plain").next_token_logits(None, ids)
              for ids in prompts]
    styled = attach(tiny_lm, adapter_set)
    detached = StyledLanguageModel(styled.base_lm, None, "plain")
    for ids, want in zip(prompts, before):
        assert not np.array_equal(styled.next_token_logits(None, ids), want)
        assert np.array_equal(detached.next_token_logits(None, ids), want)


def test_zero_init_set_equals_plain_lm(tiny_lm):
    styled = attach(tiny_lm, StyleAdapterSet("romance", tiny_lm, seed=2))
    plain = StyledLanguageModel(tiny_lm, None, "plain")
    rng = np.random.default_rng(6)
    for ids in random_prompts(tiny_lm, 20, rng):
        a = styled.next_token_logits(None, ids)
        b = plain.next_token_logits(None, ids)
        assert np.max(np.abs(a - b)) <= 1e-5


def test_fingerprint_mismatch_rejected(tiny_lm):
    other = make_tiny_lm(seed=99)
    adapter_set = StyleAdapterSet("romance", other, seed=0)
    with pytest.raises(CompatibilityError):
        attach(tiny_lm, adapter_set)


def test_two_styles_concurrent_views_match_isolation(tiny_lm):
    rng = np.random.default_rng(7)
    set_a = StyleAdapterSet("romance", tiny_lm, seed=1)
    set_b = StyleAdapterSet("horror", tiny_lm, seed=2)
    for s in (set_a, set_b):
        for p in s.params().values():
            p.value[...] = rng.standard_normal(p.value.shape) * 0.05
    view_a, view_b = attach(tiny_lm, set_a), attach(tiny_lm, set_b)
    prompts = random_prompts(tiny_lm, 10, rng)
    interleaved = [(view_a.next_token_logits(None, ids),
                    view_b.next_token_logits(None, ids)) for ids in prompts]
    for ids, (got_a, got_b) in zip(prompts, interleaved):
        assert np.array_equal(got_a, attach(tiny_lm, set_a).next_token_logits(None, ids))
        assert np.array_equal(got_b, attach(tiny_lm, set_b).next_token_logits(None, ids))


def test_mode_validation(tiny_lm):
    with pytest.raises(ConfigurationError):
        StyledLanguageModel(tiny_lm, None, "adapter")
    with pytest.raises(ConfigurationError):
        StyledLanguageModel(tiny_lm, StyleAdapterSet("teen", tiny_lm), "plain")
    with pytest.raises(ConfigurationError):
        StyledLanguageModel(tiny_lm, None, "styled")


# ---------------------------------------------------------------------------
# training


def two_style_setup(n=300, d_model=16):
    romance = make_style_passages("romance", n, seed=1)
    action = make_style_passages("action", n, seed=2)
    from ppst.lm import CausalTransformerLM, LmConfig
    from ppst.tokenizer import WordTokenizer
    tok = WordTokenizer.build([p.text for p in romance + action])
    lm = CausalTransformerLM(LmConfig(vocab_size=tok.vocab_size, n_layer=2, n_head=2,
                                      d_model=d_model, d_ff=2 * d_model,
                                      max_seq_len=72), tok, seed=0)
    cfg = AdapterTrainConfig(max_epochs=1, batch_size=16, max_seq_len=72, seed=0,
                             val_fraction=0.0)
    base, _ = train_full_finetune(romance + action, lm, cfg)
    return romance, action, base


def test_train_adapter_freezes_lm_and_specializes():
    romance, action, base = two_style_setup()
    checksum = base.checksum()
    cfg = AdapterTrainConfig(max_epochs=2, batch_size=16, max_seq_len=72, seed=0,
                             val_fraction=0.1)
    adapter_set, log = train_adapter(romance, base, cfg)
    assert base.checksum() == checksum
    assert adapter_set.style_id == "romance"
    assert log[-1]["train_loss"] <= log[0]["train_loss"]

    holdout_rom = [base.tokenizer.encode(p.text)
                   for p in make_style_passages("romance", 100, seed=9)]
    holdout_act = [base.tokenizer.encode(p.text)
                   for p in make_style_passages("action", 100, seed=10)]
    styled = attach(base, adapter_set)
    plain = StyledLanguageModel(base, None, "plain")
    assert styled.perplexity(holdout_rom) < plain.perplexity(holdout_rom)
    assert styled.perplexity(holdout_act) >= styled.perplexity(holdout_rom)


def test_freezing_the_lm_leaves_adapter_gradients_bit_equal(tiny_lm):
    adapter_set = StyleAdapterSet("romance", tiny_lm, AdapterConfig(bottleneck_dim=3))
    rng = np.random.default_rng(4)
    for block in adapter_set.blocks:     # away from the zero-init identity
        block.mlp.out.w.value[...] = rng.standard_normal(block.mlp.out.w.value.shape)
        block.mlp.out.b.value[...] = rng.standard_normal(block.mlp.out.b.value.shape)
    ids = rng.integers(0, tiny_lm.config.vocab_size, size=(2, 6))
    dlogits = rng.standard_normal((2, 6, tiny_lm.config.vocab_size))

    def backward():
        _, cache = tiny_lm.forward_embeds(tiny_lm.embed_tokens(ids), adapter_set.blocks)
        tiny_lm.backward(dlogits, cache)

    unfrozen, frozen = grads_unfrozen_and_frozen(tiny_lm, adapter_set.params(), backward)
    for name, grad in unfrozen.items():
        assert grad.any() and np.array_equal(frozen[name], grad), name


def test_train_adapter_validates_style_membership(tiny_lm):
    passages = [StyledPassage(text=" ".join(["w4"] * 30), word_count=30,
                              genres=["horror"], source_title="x")]
    with pytest.raises(ConfigurationError):
        train_adapter(passages, tiny_lm, AdapterTrainConfig(max_epochs=1), style="teen")
    with pytest.raises(ConfigurationError):
        train_adapter([], tiny_lm, AdapterTrainConfig(max_epochs=1))


def test_adapter_parameter_count_is_small():
    lm = make_tiny_lm(n_words=40, d_model=32, d_ff=64, n_layer=2)
    adapter_set = StyleAdapterSet("romance", lm)
    from ppst.nn import param_count
    assert param_count(adapter_set.params()) < 0.05 * param_count(lm.params())


def test_full_finetune_zero_epochs_is_identity(tiny_lm):
    passages = make_style_passages("romance", 5, seed=0)
    tuned, log = train_full_finetune(passages, tiny_lm,
                                     AdapterTrainConfig(max_epochs=0))
    assert tuned.checksum() == tiny_lm.checksum()
    assert log == []


def test_full_finetune_learns_and_keeps_base_untouched():
    romance, _, base = two_style_setup(n=120)
    checksum = base.checksum()
    cfg = AdapterTrainConfig(max_epochs=3, batch_size=16, max_seq_len=72, seed=0,
                             val_fraction=0.0)
    tuned, log = train_full_finetune(romance, base, cfg)
    assert base.checksum() == checksum           # a copy, not in-place
    assert log[2]["train_loss"] < log[0]["train_loss"]
    ids = [base.tokenizer.encode(romance[0].text)[0]]
    a = StyledLanguageModel(base, None, "plain").next_token_logits(None, ids)
    b = StyledLanguageModel(tuned, None, "full_finetune").next_token_logits(None, ids)
    assert not np.allclose(a, b)


def test_full_finetune_tunes_a_copy_sharing_no_array(tiny_lm):
    checksum = tiny_lm.checksum()
    tuned, _ = train_full_finetune(make_style_passages("romance", 5, seed=0), tiny_lm,
                                   AdapterTrainConfig(max_epochs=1, val_fraction=0.0))
    assert tiny_lm.checksum() == checksum and tuned.checksum() != checksum
    base_arrays = [a for p in tiny_lm.params().values() for a in (p.value, p.grad)]
    for name, p in tuned.params().items():
        for a in (p.value, p.grad):
            assert not any(np.shares_memory(a, b) for b in base_arrays), name


def test_loads_and_decode_views_hold_no_gradient_buffer(tmp_path, tiny_lm):
    tiny_lm.save(tmp_path / "lm")
    lm = CausalTransformerLM.load(tmp_path / "lm")
    StyleAdapterSet("romance", lm, seed=0).save(tmp_path / "ad")
    adapter_set = StyleAdapterSet.load(tmp_path / "ad", lm)
    PrefixMapper(MapperConfig(input_dim=4, lm_embed_dim=8, prefix_length=2),
                 seed=0).save(tmp_path / "mapper")
    mapper = PrefixMapper.load(tmp_path / "mapper")
    generate(mapper.map_prefix(np.ones(4)), attach(lm, adapter_set),
             DecodeConfig(beam_size=2, min_length=2, max_length=6))
    for params in (tiny_lm.params(), lm.params(), adapter_set.params(), mapper.params()):
        assert all(p.grad is None for p in params.values())


def test_trainers_give_gradient_buffers_to_trained_params_only(tiny_lm):
    passages = make_style_passages("romance", 5, seed=0)
    cfg = AdapterTrainConfig(max_epochs=1, val_fraction=0.0)
    adapter_set, _ = train_adapter(passages, tiny_lm, cfg)
    tuned, _ = train_full_finetune(passages, tiny_lm, cfg)
    pairs = [ImageCaptionPair(f"ref{i}", "w1 w2 w3") for i in range(4)]
    mapper, _ = train_mapper(pairs, StubEncoder(4), tiny_lm, MapperTrainConfig(max_epochs=1),
                             MapperConfig(input_dim=4, lm_embed_dim=8, prefix_length=2))
    assert all(p.grad is None for p in tiny_lm.params().values())
    for params in (adapter_set.params(), tuned.params(), mapper.params()):
        assert all(p.grad is not None and p.grad.shape == p.value.shape
                   for p in params.values())


def test_adapter_checkpoint_round_trip(tmp_path, tiny_lm):
    adapter_set = StyleAdapterSet("teen", tiny_lm, seed=3)
    rng = np.random.default_rng(8)
    for p in adapter_set.params().values():
        p.value[...] = rng.standard_normal(p.value.shape) * 0.1
    adapter_set.save(tmp_path / "ad", extra_manifest={"final_loss": 2.0})
    loaded = StyleAdapterSet.load(tmp_path / "ad", tiny_lm)
    assert loaded.style_id == "teen"
    styled = attach(tiny_lm, loaded)             # fingerprint verified on attach
    ids = [4, 5]
    want = attach(tiny_lm, adapter_set).next_token_logits(None, ids)
    assert np.allclose(styled.next_token_logits(None, ids), want, atol=1e-6)


@pytest.mark.parametrize("patience", [0, -1])
def test_patience_below_one_is_rejected(patience):
    with pytest.raises(ConfigurationError, match="patience must be >= 1"):
        AdapterTrainConfig(patience=patience)


def test_early_stopping_respects_patience():
    romance = make_style_passages("romance", 60, seed=4)
    from ppst.lm import CausalTransformerLM, LmConfig
    from ppst.tokenizer import WordTokenizer
    tok = WordTokenizer.build([p.text for p in romance])
    lm = CausalTransformerLM(LmConfig(vocab_size=tok.vocab_size, n_layer=1, n_head=1,
                                      d_model=8, d_ff=16, max_seq_len=72), tok, seed=0)
    cfg = AdapterTrainConfig(max_epochs=10, batch_size=16, max_seq_len=72, seed=0,
                             val_fraction=0.3, patience=2, learning_rate=0.5)
    _, log = train_adapter(romance, lm, cfg)     # huge lr forces val to stall
    assert len(log) < 10


def test_text_trainer_holds_one_batch_at_a_time(tiny_lm, monkeypatch):
    """When a batch's forward starts, the previous batch's logits and forward
    cache are gone, in training and in the validation pass."""
    forward = CausalTransformerLM.forward_embeds
    earlier = []
    forwards = []

    def tracked(self, embeds, adapters=None, **kwargs):
        assert all(ref() is None for ref in earlier), "an earlier batch is still alive"
        logits, cache = forward(self, embeds, adapters, **kwargs)
        kept = [logits] if cache is None else [logits, cache[1][0]]    # validation: no cache
        earlier[:] = [weakref.ref(array) for array in kept]
        forwards.append(len(embeds))
        return logits, cache

    monkeypatch.setattr(CausalTransformerLM, "forward_embeds", tracked)
    passages = [StyledPassage(text=" ".join(f"w{(i + j) % 8}" for j in range(30)),
                              word_count=30, genres=["romance"], source_title="x")
                for i in range(10)]
    cfg = AdapterTrainConfig(max_epochs=2, batch_size=3, max_seq_len=16,
                             val_fraction=0.3, patience=5)
    train_adapter(passages, tiny_lm, cfg, style="romance")
    train_full_finetune(passages, tiny_lm, cfg)
    assert len(forwards) == 2 * 2 * (3 + 1)    # two trainers, two epochs, 3 + 1 batches


@pytest.mark.parametrize("trainer, label", [(train_adapter, "adapter[romance]"),
                                            (train_full_finetune, "full-finetune")],
                         ids=["adapter", "full-finetune"])
def test_text_trainers_abort_on_non_finite_loss(tiny_lm, trainer, label):
    tiny_lm.head.b.value[:] = np.inf          # poisoned LM -> nan loss immediately
    passages = make_style_passages("romance", 4, seed=0)
    cfg = AdapterTrainConfig(max_epochs=1, batch_size=4, val_fraction=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")       # inf arithmetic is the point here
        with pytest.raises(TrainingDiverged, match=re.escape(f"{label}: non-finite loss")):
            trainer(passages, tiny_lm, cfg)
