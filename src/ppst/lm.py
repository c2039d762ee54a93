"""A small causal transformer language model in numpy.

Decoder-only, pre-norm, learned absolute positions, untied output head.
Backward passes are hand-written (see nn.py) so that training the prefix
mapper or adapters against a *frozen* copy of this model is exact and
finite-difference checkable. Adapter blocks, when supplied, run on top of
each transformer block's output. Every trainer's batch (base-LM pretraining,
the mapper, the style adapters, the fine-tune) goes through `batch_loss`.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import nn
from .artifacts import (load_checkpoint, save_checkpoint, strict_checksum,
                        tensors_fingerprint)
from .errors import ConfigurationError
from .tokenizer import WordTokenizer


@dataclass
class LmConfig:
    vocab_size: int
    n_layer: int = 2
    n_head: int = 2
    d_model: int = 32
    d_ff: int = 0          # 0 -> 4 * d_model
    max_seq_len: int = 128

    def __post_init__(self):
        if self.d_ff == 0:
            self.d_ff = 4 * self.d_model
        for field in ("vocab_size", "n_layer", "n_head", "d_model", "d_ff", "max_seq_len"):
            if getattr(self, field) < 1:
                raise ConfigurationError(f"LmConfig.{field} must be positive")
        if self.d_model % self.n_head:
            raise ConfigurationError("LmConfig.d_model must be a multiple of LmConfig.n_head")


class CausalTransformerLM:
    def __init__(self, config: LmConfig, tokenizer: WordTokenizer, seed=0, lm_id=None):
        if tokenizer.vocab_size != config.vocab_size:
            raise ConfigurationError(
                f"tokenizer vocab {tokenizer.vocab_size} != config vocab {config.vocab_size}")
        self.config = config
        self.tokenizer = tokenizer
        self.seed = seed
        self.lm_id = lm_id or f"causal-lm-{config.n_layer}x{config.d_model}-s{seed}"
        rng = np.random.default_rng(seed)
        d = config.d_model
        self.tok_emb = nn.Param(nn.fan_in_uniform(rng, (config.vocab_size, d), d))
        self.pos_emb = nn.Param(nn.fan_in_uniform(rng, (config.max_seq_len, d), d))
        self.blocks = [nn.TransformerBlock(d, config.n_head, config.d_ff, rng)
                       for _ in range(config.n_layer)]
        self.ln_f = nn.LayerNorm(d)
        self.head = nn.Linear(d, config.vocab_size, rng)

    # -- parameters ---------------------------------------------------------

    def params(self):
        out = {"tok_emb": self.tok_emb, "pos_emb": self.pos_emb}
        for i, block in enumerate(self.blocks):
            out.update(block.params(f"block{i}"))
        out.update(self.ln_f.params("ln_f"))
        out.update(self.head.params("head"))
        return out

    def checksum(self):
        """Strict byte-level checksum of the in-memory parameters."""
        return strict_checksum(self.params())

    def fingerprint(self):
        """Canonical float32 fingerprint, stable across save/load round trips."""
        return tensors_fingerprint(self.params())

    @property
    def eos_id(self):
        return self.tokenizer.eos_id

    # -- forward / backward -------------------------------------------------

    def embed_tokens(self, ids):
        return self.tok_emb.value[np.asarray(ids, dtype=np.intp)]

    def forward_embeds(self, embeds, adapters=None, past=None, backward=True):
        """embeds: (B, T, d_model) already in input-embedding space.

        `past=(kv, S)`, kv one (layers, 2, rows >= B, H, max_seq_len, d_head) array
        whose kv[i] is layer i's K and V buffers holding S positions (see
        nn.CausalSelfAttention), puts the embeds at positions S..S+T-1 (decode only):
        the logits equal one call over all S + T positions. Backward needs
        `past=None`, which starts at position 0, and `backward=True`; otherwise no
        block or adapter computes an activation slope or keeps a cache, and the
        forward returns None for it. The cache records the adapters that ran, so
        backward goes through the same ones.
        """
        backward = backward and past is None
        b, t, d = embeds.shape
        start = 0 if past is None else past[1]
        if start + t > self.config.max_seq_len:
            raise ConfigurationError(
                f"sequence length {start + t} exceeds max_seq_len {self.config.max_seq_len}")
        if adapters is not None and len(adapters) != len(self.blocks):
            raise ConfigurationError("one adapter block per transformer layer required")
        h = embeds + self.pos_emb.value[start:start + t]
        caches = []
        for i, block in enumerate(self.blocks):
            layer_past = None if past is None else (*past[0][i], start)
            h, c = block.forward(h, layer_past, backward)
            if adapters is not None:
                h, ac = adapters[i].forward(h, backward)
            else:
                ac = None
            if backward:
                caches.append((c, ac))
        hn, ln_cache = self.ln_f.forward(h)
        logits, _ = self.head.forward(hn)    # backward rebuilds hn from ln_cache
        return logits, (caches, ln_cache, adapters) if backward else None

    def backward(self, dlogits, cache):
        caches, ln_cache, adapters = cache
        dhn = self.head.backward(dlogits, self.ln_f.affine(ln_cache[0]))
        dh = self.ln_f.backward(dhn, ln_cache)
        for i in reversed(range(len(self.blocks))):
            block_cache, adapter_cache = caches[i]
            if adapters is not None:
                dh = adapters[i].backward(dh, adapter_cache)
            dh = self.blocks[i].backward(dh, block_cache)
        # gradient w.r.t. the raw input embeddings (pos_emb grad accumulated here)
        if self.pos_emb.grad is not None:
            self.pos_emb.grad[: dh.shape[1]] += dh.sum(axis=0)
        return dh

    # -- persistence ---------------------------------------------------------

    def save(self, directory):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.tokenizer.save(directory / "vocab.json")
        return save_checkpoint(directory, "causal_lm", self.params(), {
            "lm_id": self.lm_id, "seed": self.seed, "config": asdict(self.config),
            "fingerprint": self.fingerprint()})

    @classmethod
    def load(cls, directory):
        directory = Path(directory)
        return load_checkpoint(directory, "causal_lm", lambda manifest: cls(
            LmConfig(**manifest["config"]), WordTokenizer.load(directory / "vocab.json"),
            seed=manifest.get("seed", 0), lm_id=manifest["lm_id"]))


# ---------------------------------------------------------------------------
# batching and evaluation helpers


def pad_batch(sequences, pad_id):
    """Right-pad variable-length id lists; returns (ids, lengths) arrays."""
    t = max(len(s) for s in sequences)
    ids = np.full((len(sequences), t), pad_id, dtype=np.intp)
    for i, s in enumerate(sequences):
        ids[i, : len(s)] = s
    lengths = np.array([len(s) for s in sequences])
    return ids, lengths


def shifted_batch(anchor, sequences, pad_id):
    """(input ids, target ids, loss mask): inputs are the anchor ids, then each
    sequence less its last id; targets are the sequences from the anchor's last
    position on, and the mask covers exactly each row's targets."""
    start = len(anchor) - 1
    inputs, ends = pad_batch([list(anchor) + list(s[:-1]) for s in sequences], pad_id)
    targets, _ = pad_batch([[pad_id] * start + list(s) for s in sequences], pad_id)
    positions = np.arange(inputs.shape[1])[None, :]
    mask = (positions >= start) & (positions < ends[:, None])
    return inputs, targets, mask.astype(np.float64)


def teacher_forced_batch(token_lists, tokenizer, max_seq_len):
    """bos + tokens + eos, truncated; returns (input ids, target ids, loss mask)."""
    sequences = [list(t)[: max_seq_len - 2] + [tokenizer.eos_id] for t in token_lists]
    return shifted_batch([tokenizer.bos_id], sequences, tokenizer.pad_id)


def batch_loss(lm, batch, adapters=None, prefix=None, backward=True):
    """Next-token loss of a `shifted_batch` through `lm` and `adapters`: (loss, the
    gradient of the `prefix` rows). A (B, P, d) `prefix` replaces the embeddings of
    the first P inputs. Backward accumulates into every param with a gradient buffer,
    `tok_emb` at the other inputs' ids."""
    ids, targets, mask = batch
    p = 0 if prefix is None else prefix.shape[1]
    embeds = lm.embed_tokens(ids)
    if p:
        embeds[:, :p] = prefix
    logits, cache = lm.forward_embeds(embeds, adapters, backward=backward)
    loss, dlogits = nn.masked_cross_entropy(logits, targets, mask)
    if not backward:
        return loss, None
    del logits    # with the cache, which dies with this frame: one batch is alive at a time
    dembeds = lm.backward(dlogits, cache)
    if lm.tok_emb.grad is not None:
        np.add.at(lm.tok_emb.grad, ids[:, p:], dembeds[:, p:])
    return loss, dembeds[:, :p]


def sequence_nll(lm, token_lists, adapters=None, batch_size=16):
    """Mean next-token negative log-likelihood per token over sequences."""
    total_nll = 0.0
    total_tokens = 0
    for start in range(0, len(token_lists), batch_size):
        chunk = token_lists[start: start + batch_size]
        inputs, targets, mask = teacher_forced_batch(chunk, lm.tokenizer,
                                                     lm.config.max_seq_len)
        logp = nn.log_softmax(   # the logits die here, before the next batch's forward
            lm.forward_embeds(lm.embed_tokens(inputs), adapters, backward=False)[0])
        nll = -np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
        total_nll += float((nll * mask).sum())
        total_tokens += int(mask.sum())
    return total_nll / max(total_tokens, 1)
