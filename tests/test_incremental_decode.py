"""KV-cached, beam-batched decoding against the stateless full re-forward.

`StyledLanguageModel.prefill` and `.step` must give the logits that
`next_token_logits` computes by re-running anchor and story through every
layer, at every step and for every beam, whatever the beam reordering.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import StatelessLM, make_tiny_lm
from ppst import nn
from ppst.adapters import AdapterConfig, StyleAdapterSet, StyledLanguageModel, attach
from ppst.errors import ConfigurationError
from ppst.generation import DecodeConfig, generate
from ppst.lm import CausalTransformerLM

TOL = 1e-10
# parent beam of each new row, per step: widen from the anchor to three beams,
# then keep, permute, and duplicate one beam while dropping another
PARENTS = [[0, 0, 0], [0, 1, 2], [2, 0, 0], [1, 2, 0], [0, 0, 1], [2, 1, 1],
           [0, 1, 2], [1, 1, 0]]
# the beam count shrinks, grows past its earlier peak, and shrinks again
SHRINK_GROW_PARENTS = [[0, 0, 0, 0], [3, 1, 0, 2], [2, 0], [1, 1, 0], [0], [0, 0, 0, 0, 0],
                       [4, 3, 2, 1, 0], [1, 1], [0, 1, 1, 0, 1, 0]]


def make_model(with_adapters, seed=0, activation="relu"):
    lm = make_tiny_lm(n_words=12, n_layer=2, n_head=2, d_model=8, d_ff=16,
                      max_seq_len=32, seed=seed + 1)
    if not with_adapters:
        return StyledLanguageModel(lm, None, "plain")
    adapter_set = StyleAdapterSet("romance", lm, AdapterConfig(activation=activation), seed)
    rng = np.random.default_rng(seed)
    for block in adapter_set.blocks:     # away from the zero-init identity
        block.mlp.out.w.value[...] = rng.standard_normal(block.mlp.out.w.value.shape) * 0.5
        block.mlp.out.b.value[...] = rng.standard_normal(block.mlp.out.b.value.shape) * 0.1
    return attach(lm, adapter_set)


def make_prefix(model, with_prefix, rows=4):
    if not with_prefix:
        return None
    return np.random.default_rng(7).standard_normal((rows, model.embed_dim))


class FullReforward(StatelessLM):
    """The same model through the stateless step API: `generate` re-runs it
    per beam, and its records carry the model's style and manifest."""

    def __init__(self, model):
        self.next_token_logits, self.decode = model.next_token_logits, model.decode
        self.manifest, self.style = model.manifest, model.style
        self.eos_id, self.context_limit = model.eos_id, model.context_limit


@pytest.mark.parametrize("with_adapters", [False, True])
@pytest.mark.parametrize("with_prefix", [False, True])
def test_incremental_logits_match_full_reforward(with_adapters, with_prefix):
    model = make_model(with_adapters)
    prefix = make_prefix(model, with_prefix)
    rng = np.random.default_rng(3)
    vocab = model.base_lm.config.vocab_size

    logits, past = model.prefill(prefix)
    assert logits.shape == (1, vocab)
    assert np.abs(logits[0] - model.next_token_logits(prefix, [])).max() <= TOL
    beams = [()]
    for parents in PARENTS:
        tokens = [int(t) for t in rng.integers(0, vocab, size=len(parents))]
        beams = [beams[p] + (tok,) for p, tok in zip(parents, tokens)]
        logits, past = model.step(tokens, past, parents)
        assert logits.shape == (len(beams), vocab)
        for row, ids in zip(logits, beams):
            want = model.next_token_logits(prefix, list(ids))
            assert np.abs(row - want).max() <= TOL


@pytest.mark.parametrize("with_adapters", [False, True])
@pytest.mark.parametrize("with_prefix", [False, True])
def test_incremental_logits_match_full_reforward_as_beams_shrink_and_grow(
        with_adapters, with_prefix):
    model = make_model(with_adapters, seed=2)
    prefix = make_prefix(model, with_prefix)
    rng = np.random.default_rng(4)
    vocab = model.base_lm.config.vocab_size

    logits, past = model.prefill(prefix)
    beams = [()]
    for parents in SHRINK_GROW_PARENTS:
        tokens = [int(t) for t in rng.integers(0, vocab, size=len(parents))]
        beams = [beams[p] + (tok,) for p, tok in zip(parents, tokens)]
        logits, past = model.step(tokens, past, parents)
        assert logits.shape == (len(beams), vocab)
        for row, ids in zip(logits, beams):
            want = model.next_token_logits(prefix, list(ids))
            assert np.abs(row - want).max() <= TOL


@pytest.mark.parametrize("with_adapters", [False, True])
@pytest.mark.parametrize("with_prefix", [False, True])
def test_incremental_logits_match_full_reforward_as_beams_shrink_onto_high_rows(
        with_adapters, with_prefix):
    """After a permuting step, the two surviving beams' rows lie at or past the new
    beam count, so both are copied down."""
    model = make_model(with_adapters, seed=3)
    prefix = make_prefix(model, with_prefix)
    rng = np.random.default_rng(6)
    vocab = model.base_lm.config.vocab_size

    logits, past = model.prefill(prefix)
    beams = [()]
    for parents in [[0, 0, 0, 0], [3, 2, 1, 0], [0, 1], [1, 0, 1]]:
        if len(parents) == 2:
            assert past[2][parents].min() >= 2
        tokens = [int(t) for t in rng.integers(0, vocab, size=len(parents))]
        beams = [beams[p] + (tok,) for p, tok in zip(parents, tokens)]
        logits, past = model.step(tokens, past, parents)
        for row, ids in zip(logits, beams):
            assert np.abs(row - model.next_token_logits(prefix, list(ids))).max() <= TOL


def test_step_copies_a_parents_past_only_for_its_second_child():
    model = make_model(False)
    _, past = model.prefill(make_prefix(model, True))
    _, past = model.step([1, 2, 3, 4, 5], past, [0] * 5)
    kv, start, rows = past
    lm = model.base_lm
    assert kv.shape == (len(lm.blocks), 2, 5, lm.blocks[0].attn.n_head,
                        lm.config.max_seq_len, lm.blocks[0].attn.d_head)
    kv[:, :, rows, :, :start] = np.arange(5.0)[:, None, None, None]    # beam i's sentinel
    before = kv[..., :start, :].copy()
    _, (after, _, rows) = model.step([6, 7, 8, 9, 10], past, [0, 0, 1, 2, 3])
    assert after is kv              # the beam count did not grow: no new array
    changed = {r for r in range(5)
               if not np.array_equal(kv[:, :, r, :, :start], before[:, :, r])}
    assert changed == {rows[1]}     # only beam 0's second child is copied
    assert (kv[:, :, rows, :, :start] == np.array([0, 0, 1, 2, 3.0])[:, None, None, None]).all()


@pytest.mark.parametrize("adapter_activation", ["relu", "gelu"])
def test_decode_forwards_compute_no_gelu_slope(monkeypatch, adapter_activation):
    """Neither the LM's MLPs nor GELU adapters compute a slope in prefill or step."""
    model = make_model(True, activation=adapter_activation)
    gelus = 2 * (1 + (adapter_activation == "gelu"))     # per forward, over two layers
    slopes = []
    gelu = nn.ACTIVATIONS["gelu"]

    def recording(x, backward=True, out=None):
        slopes.append(backward)
        return gelu(x, backward, out)

    monkeypatch.setitem(nn.ACTIVATIONS, "gelu", recording)
    _, past = model.prefill(make_prefix(model, True))
    model.step([1, 2], past, [0, 0])
    assert slopes == [False] * 2 * gelus          # in prefill and in one step
    model.base_lm.forward_embeds(model.base_lm.embed_tokens([[1, 2]]), model.adapters)
    assert slopes[2 * gelus:] == [True] * gelus   # a forward that backward may follow


def test_step_allocates_far_less_than_the_past():
    """A step at story position >= 100 (d128x4, 5 beams) writes its k and v in
    place: its peak allocation stays below half the bytes of the whole past."""
    lm = make_tiny_lm(n_words=40, n_layer=4, n_head=4, d_model=128, d_ff=512,
                      max_seq_len=128)
    model = StyledLanguageModel(lm, None, "plain")
    rng = np.random.default_rng(5)
    vocab = lm.config.vocab_size
    _, past = model.prefill(rng.standard_normal((10, 128)))
    parents = [0] * 5
    for _ in range(95):
        _, past = model.step(rng.integers(0, vocab, size=len(parents)), past,
                             parents)
        parents = rng.integers(0, 5, size=5)
    kv, start, _ = past
    assert start >= 100
    past_bytes = kv[:, :, :5, :, :start].nbytes
    tokens = rng.integers(0, vocab, size=5)
    tracemalloc.start()
    try:
        model.step(tokens, past, [4, 4, 0, 1, 2])       # one parent twice: one row copied
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < past_bytes / 2


@pytest.mark.parametrize("with_adapters", [False, True])
@pytest.mark.parametrize("with_prefix", [False, True])
def test_cached_generate_matches_full_reforward(with_adapters, with_prefix):
    model = make_model(with_adapters, seed=1)
    prefix = make_prefix(model, with_prefix)
    cfg = DecodeConfig(beam_size=3, top_k=5, min_length=6, max_length=12,
                       length_decay_start=4)
    cached = generate(prefix, model, cfg)
    reference = generate(prefix, FullReforward(model), cfg)
    assert cached.token_ids == reference.token_ids
    assert abs(cached.cumulative_log_prob - reference.cumulative_log_prob) <= TOL
    assert cached.to_json_line() == reference.to_json_line()


def test_one_batched_forward_per_step(monkeypatch):
    model = make_model(True)
    prefix = make_prefix(model, True, rows=4)
    calls = []
    forward = CausalTransformerLM.forward_embeds

    def counting(lm, embeds, *args, **kwargs):
        calls.append(embeds.shape[:2])
        return forward(lm, embeds, *args, **kwargs)

    monkeypatch.setattr(CausalTransformerLM, "forward_embeds", counting)
    cfg = DecodeConfig(beam_size=3, top_k=5, min_length=100, max_length=10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")       # max_length < min_length is intended
        record = generate(prefix, model, cfg)
    assert record.token_count == 10
    # the prefix once, then one row per live beam and step, none after the last
    assert calls[0] == (1, 4)
    assert len(calls) == 10
    assert all(t == 1 and 1 <= b <= 3 for b, t in calls[1:])


def test_forward_embeds_past_beyond_max_seq_len_raises():
    lm = make_tiny_lm(max_seq_len=8)
    rng = np.random.default_rng(0)
    attn = lm.blocks[0].attn
    kv = np.empty((len(lm.blocks), 2, 2, attn.n_head, 8, attn.d_head))
    lm.forward_embeds(rng.standard_normal((2, 5, 8)), past=(kv, 0))
    lm.forward_embeds(rng.standard_normal((2, 3, 8)), past=(kv, 5))    # 5 + 3 fits
    with pytest.raises(ConfigurationError, match="max_seq_len"):
        lm.forward_embeds(rng.standard_normal((2, 4, 8)), past=(kv, 5))
