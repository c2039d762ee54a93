"""`nn.train_loop` against the two loops it replaced.

`reference_train_mapper` and `reference_train_text_model` are the former
`mapper.train_mapper` loop and `adapters._train_text_model`, kept as the oracle:
every trainer must give the same loss log, key order included, and bit-equal
trained parameters. The oracle scores its batches itself, as those loops did,
not through `lm.batch_loss`.
"""

import copy
import math
import re

import numpy as np
import pytest

from conftest import make_tiny_lm
from test_mapper import StubEncoder
from test_prefix_layout import reference_prefix_batch_loss
from ppst import nn
from ppst.adapters import (AdapterTrainConfig, StyleAdapterSet, train_adapter,
                           train_full_finetune, train_on_texts)
from ppst.artifacts import strict_checksum
from ppst.corpus import ImageCaptionPair, StyledPassage
from ppst.errors import ConfigurationError, TrainingDiverged
from ppst.lm import sequence_nll, teacher_forced_batch
from ppst.mapper import MapperConfig, MapperTrainConfig, PrefixMapper, train_mapper
from ppst.nn import masked_cross_entropy


def reference_train_mapper(pairs, encoder, base_lm, cfg, mapper_config):
    mapper = PrefixMapper(mapper_config, seed=cfg.seed)
    p = mapper_config.prefix_length
    max_total = min(cfg.max_seq_len, base_lm.config.max_seq_len)
    embeddings = np.zeros((len(pairs), encoder.embed_dim))
    captions = []
    for i, pair in enumerate(pairs):
        embeddings[i] = encoder.encode_image(pair.image_ref)
        cap = base_lm.tokenizer.encode(pair.caption_text, add_eos=True)
        captions.append(cap[: max_total - p])

    optimizer = nn.Adam(mapper.params(), lr=cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    loss_log = []
    with nn.freeze_params(base_lm.params()):
        for epoch in range(cfg.max_epochs):
            order = rng.permutation(len(pairs))
            epoch_losses = []
            for start in range(0, len(order), cfg.batch_size):
                idx = order[start: start + cfg.batch_size]
                optimizer.zero_grad()
                loss = reference_prefix_batch_loss(mapper, base_lm, embeddings[idx],
                                                   [captions[i] for i in idx], backward=True)
                if not math.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite mapper loss at epoch {epoch}, batch {start}")
                optimizer.step()
                epoch_losses.append(loss)
            loss_log.append({"epoch": epoch, "train_loss": float(np.mean(epoch_losses))})
    return mapper, loss_log


def reference_train_text_model(token_lists, lm, trainable_params, adapters, cfg, label):
    """Verbatim, except that `sequence_nll` now returns the mean NLL per token
    that the loop computed from its (total, count), and that the LM's former
    `forward_tokens` and `backward_tokens` are written out."""
    rng = np.random.default_rng(cfg.seed)
    n_val = int(len(token_lists) * cfg.val_fraction)
    order = rng.permutation(len(token_lists))
    val = [token_lists[i] for i in order[:n_val]]
    train = [token_lists[i] for i in order[n_val:]]
    if not train:
        raise ConfigurationError(f"{label}: no training sequences left")

    max_len = min(cfg.max_seq_len, lm.config.max_seq_len)
    optimizer = nn.Adam(trainable_params, lr=cfg.learning_rate)
    loss_log = []
    best_val = math.inf
    stale = 0
    for epoch in range(cfg.max_epochs):
        epoch_losses = []
        for start in range(0, len(train), cfg.batch_size):
            chunk = train[start: start + cfg.batch_size]
            inputs, targets, mask = teacher_forced_batch(chunk, lm.tokenizer, max_len)
            optimizer.zero_grad()
            logits, cache = lm.forward_embeds(lm.embed_tokens(inputs), adapters)
            loss, dlogits = masked_cross_entropy(logits, targets, mask)
            del logits
            if not math.isfinite(loss):
                raise TrainingDiverged(f"{label}: non-finite loss at epoch {epoch}")
            dembeds = lm.backward(dlogits, cache)
            if lm.tok_emb.grad is not None:
                np.add.at(lm.tok_emb.grad, inputs, dembeds)
            del cache, dlogits, dembeds
            optimizer.step()
            epoch_losses.append(loss)
        entry = {"epoch": epoch, "train_loss": float(np.mean(epoch_losses))}
        if val:
            entry["val_loss"] = sequence_nll(lm, val, adapters, cfg.batch_size)
            if entry["val_loss"] < best_val - 1e-9:
                best_val = entry["val_loss"]
                stale = 0
            else:
                stale += 1
        loss_log.append(entry)
        if val and stale >= cfg.patience:
            break
    return loss_log


def assert_same_training(got, want):
    """Equal loss logs, keys in the same order, and bit-equal parameters."""
    (got_params, got_log), (want_params, want_log) = got, want
    assert [list(e.items()) for e in got_log] == [list(e.items()) for e in want_log]
    assert strict_checksum(got_params) == strict_checksum(want_params)


def passages(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        count = int(rng.integers(30, 41))
        out.append(StyledPassage(text=" ".join(f"w{w}" for w in rng.integers(0, 8, count)),
                                 word_count=count, genres=["romance"], source_title="x"))
    return out


def test_train_mapper_matches_reference_over_two_epochs():
    pairs = [ImageCaptionPair(f"r{i}", " ".join(f"w{(i + j) % 8}" for j in range(1 + i % 5)))
             for i in range(7)]
    cfg = MapperTrainConfig(max_epochs=2, batch_size=3, max_seq_len=16, seed=3,
                            learning_rate=0.01)
    mapper_config = MapperConfig(input_dim=4, lm_embed_dim=8, hidden_dim=6, prefix_length=2)
    mapper, log = train_mapper(pairs, StubEncoder(4), make_tiny_lm(), cfg, mapper_config)
    ref_mapper, ref_log = reference_train_mapper(pairs, StubEncoder(4), make_tiny_lm(), cfg,
                                                 mapper_config)
    assert len(log) == 2
    assert_same_training((mapper.params(), log), (ref_mapper.params(), ref_log))


def test_train_adapter_matches_reference_when_stopping_early():
    cfg = AdapterTrainConfig(max_epochs=8, batch_size=4, max_seq_len=16, seed=3,
                             val_fraction=0.3, patience=1, learning_rate=2.0)
    adapter_set, log = train_adapter(passages(20, seed=5), make_tiny_lm(), cfg)
    lm = make_tiny_lm()
    ref_set = StyleAdapterSet("romance", lm, seed=cfg.seed)
    token_lists = [lm.tokenizer.encode(p.text) for p in passages(20, seed=5)]
    with nn.freeze_params(lm.params()):
        ref_log = reference_train_text_model(token_lists, lm, ref_set.params(),
                                             ref_set.blocks, cfg, "adapter[romance]")
    assert 1 < len(log) < cfg.max_epochs and "val_loss" in log[-1]    # stopped early
    assert_same_training((adapter_set.params(), log), (ref_set.params(), ref_log))


def test_train_full_finetune_matches_reference():
    cfg = AdapterTrainConfig(max_epochs=2, batch_size=3, max_seq_len=16, seed=4,
                             val_fraction=0.0)
    tuned, log = train_full_finetune(passages(10, seed=6), make_tiny_lm(), cfg)
    ref = copy.deepcopy(make_tiny_lm())
    ref_log = reference_train_text_model(
        [ref.tokenizer.encode(p.text) for p in passages(10, seed=6)], ref, ref.params(),
        None, cfg, "full-finetune")
    assert_same_training((tuned.params(), log), (ref.params(), ref_log))


def test_train_on_texts_with_no_epochs_matches_reference():
    cfg = AdapterTrainConfig(max_epochs=0, batch_size=3, max_seq_len=16, val_fraction=0.2)
    texts = [p.text for p in passages(6, seed=7)]
    lm = make_tiny_lm()
    log = train_on_texts(texts, lm, cfg)
    ref = make_tiny_lm()
    ref_log = reference_train_text_model([ref.tokenizer.encode(t) for t in texts], ref,
                                         ref.params(), None, cfg, "text-corpus")
    assert log == [] and all(p.grad is None for p in lm.params().values())
    assert_same_training((lm.params(), log), (ref.params(), ref_log))


def test_train_loop_raises_before_stepping_a_non_finite_loss():
    p = nn.Param(np.zeros(3))
    losses = iter([1.0, 2.0, 3.0, math.nan])

    def batch_loss(batch):
        p.grad += 1.0
        return next(losses)

    cfg = AdapterTrainConfig(max_epochs=3, batch_size=2, learning_rate=0.1)
    with pytest.raises(TrainingDiverged,
                       match=re.escape("toy: non-finite loss at epoch 1, batch 1")):
        nn.train_loop({"p": p}, cfg, lambda: [0, 1, 2, 3], batch_loss, "toy")
    q = nn.Param(np.zeros(3))
    optimizer = nn.Adam({"q": q}, lr=0.1)
    for _ in range(3):     # the three finite batches step; the fourth does not
        q.zero_grad()
        q.grad += 1.0
        optimizer.step()
    assert np.array_equal(p.value, q.value)
