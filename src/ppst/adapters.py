"""Residual style adapters over a frozen base LM, plus the full fine-tune variant.

One adapter block sits on top of each transformer layer:

    out = h + up_proj(act(down_proj(layernorm(h))))

The bottleneck is an `nn.Mlp`, whose fc and out a checkpoint names `down` and
`up`. The up projection starts at zero, so a fresh adapter set is exactly the
identity and the composed model reproduces the plain LM. A forward that no
backward follows (decode, validation) computes no activation slope. Training
one set per genre on style-filtered passages gives a swappable, plug-and-play
stylistic LM; the base weights are never touched. `train_full_finetune` covers the
non-styled comparison system (all LM parameters trained, no adapters). The adapters,
the fine-tune, the mapper and base-LM pretraining all train through `nn.train_loop`
and score their batches with `lm.batch_loss`. A set sizes its bottleneck to its LM
(`AdapterConfig.sized`).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import nn
from .artifacts import load_checkpoint, save_checkpoint, tensors_fingerprint
from .errors import CompatibilityError, ConfigurationError
from .lm import CausalTransformerLM, batch_loss, sequence_nll, teacher_forced_batch


@dataclass
class AdapterConfig:
    bottleneck_dim: int = 0      # 0 -> the LM's d_model // 8 (at least 1)
    activation: str = "relu"

    def __post_init__(self):
        if self.bottleneck_dim < 0:
            raise ConfigurationError("AdapterConfig.bottleneck_dim must be >= 0")
        nn.get_activation(self.activation)

    def sized(self, d_model):
        """This config for an LM of width `d_model`, whose bottleneck must be narrower:
        a 0 bottleneck becomes max(1, d_model // 8)."""
        config = replace(self, bottleneck_dim=self.bottleneck_dim or max(1, d_model // 8))
        if config.bottleneck_dim >= d_model:
            raise ConfigurationError(f"AdapterConfig.bottleneck_dim {config.bottleneck_dim} "
                                     f"must be < the LM's d_model {d_model}")
        return config


class AdapterBlock:
    def __init__(self, lm_hidden_dim, config: AdapterConfig, rng):
        config = config.sized(lm_hidden_dim)
        self.ln = nn.LayerNorm(lm_hidden_dim)
        self.mlp = nn.Mlp(lm_hidden_dim, config.bottleneck_dim, rng,
                          activation=config.activation)
        self.mlp.out.w.value[...] = 0.0   # start as the identity map
        self.mlp.out.b.value[...] = 0.0

    def forward(self, h, backward=True):
        n, ln_cache = self.ln.forward(h)
        u, mlp_cache = self.mlp.forward(n, backward)    # backward rebuilds n from ln_cache
        u += h
        return u, (ln_cache, mlp_cache) if backward else None

    def backward(self, dy, cache):
        ln_cache, mlp_cache = cache
        dn = self.mlp.backward(dy, mlp_cache, self.ln.affine(ln_cache[0]))
        return dy + self.ln.backward(dn, ln_cache)

    def params(self, prefix):
        return {**self.ln.params(f"{prefix}.ln"),
                **self.mlp.fc.params(f"{prefix}.down"),
                **self.mlp.out.params(f"{prefix}.up")}


class StyleAdapterSet:
    """One adapter block per LM layer, trained for a single style."""

    def __init__(self, style_id, base_lm, config=None, seed=0, lm_fingerprint=None):
        """Fresh blocks sized for `base_lm` (`AdapterConfig.sized`), trained against it
        or, as loaded, against the LM of `lm_fingerprint`."""
        d = base_lm.config.d_model
        self.config = (config or AdapterConfig()).sized(d)
        self.style_id = style_id
        rng = np.random.default_rng(seed)
        self.blocks = [AdapterBlock(d, self.config, rng) for _ in base_lm.blocks]
        self.lm_fingerprint = base_lm.fingerprint() if lm_fingerprint is None else lm_fingerprint
        self.seed = seed

    def params(self):
        out = {}
        for i, block in enumerate(self.blocks):
            out.update(block.params(f"adapter{i}"))
        return out

    def save(self, directory, extra_manifest=None):
        return save_checkpoint(directory, "style_adapter_set", self.params(), {
            "style_id": self.style_id, "lm_fingerprint": self.lm_fingerprint,
            "seed": self.seed, "n_blocks": len(self.blocks),
            "config": asdict(self.config), **(extra_manifest or {})})

    @classmethod
    def load(cls, directory, base_lm):
        # str: a null fingerprint matches no LM, rather than meaning `base_lm`. An older
        # config also holds "init": "zero_up_projection", the one init there was.
        return load_checkpoint(directory, "style_adapter_set", lambda manifest: cls(
            manifest["style_id"], base_lm, AdapterConfig(**{
                key: value for key, value in manifest["config"].items()
                if (key, value) != ("init", "zero_up_projection")}),
            manifest.get("seed", 0), str(manifest["lm_fingerprint"])))


@dataclass
class StyledLanguageModel:
    """Lightweight view composing a base LM with at most one adapter set. Its
    `manifest()` fingerprints the weights once, when the view is made."""

    base_lm: CausalTransformerLM
    adapter_set: StyleAdapterSet = None
    mode: str = "plain"          # adapter | full_finetune | plain

    def __post_init__(self):
        if self.mode not in ("adapter", "full_finetune", "plain"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        lm_fingerprint = self.base_lm.fingerprint()
        if self.mode == "adapter":
            if self.adapter_set is None:
                raise ConfigurationError("adapter mode requires an adapter set")
            if self.adapter_set.lm_fingerprint != lm_fingerprint:
                raise CompatibilityError(
                    "adapter set was trained against a different base LM "
                    f"({self.adapter_set.lm_fingerprint[:12]} != {lm_fingerprint[:12]})")
        elif self.adapter_set is not None:
            raise ConfigurationError(f"mode {self.mode!r} does not take an adapter set")
        self._manifest = {"lm_id": self.base_lm.lm_id, "lm_fingerprint": lm_fingerprint,
                          "mode": self.mode, "style": self.style}
        if self.mode == "adapter":
            self._manifest["adapter_fingerprint"] = tensors_fingerprint(
                self.adapter_set.params())

    @property
    def adapters(self):
        return self.adapter_set.blocks if self.mode == "adapter" else None

    @property
    def style(self):
        if self.mode == "adapter":
            return self.adapter_set.style_id
        return "non-styled" if self.mode == "full_finetune" else "plain"

    @property
    def eos_id(self):
        return self.base_lm.eos_id

    @property
    def embed_dim(self):
        return self.base_lm.config.d_model

    @property
    def context_limit(self):
        return self.base_lm.config.max_seq_len

    def _anchor(self, prefix_matrix):
        """The visual prefix, or without one the bos embedding (how text-only
        training sequences start). The one check of a prefix's shape and values."""
        if prefix_matrix is None:
            return self.base_lm.embed_tokens([self.base_lm.tokenizer.bos_id])
        prefix_matrix = np.asarray(prefix_matrix, dtype=np.float64)
        if (prefix_matrix.ndim != 2 or prefix_matrix.shape[0] == 0
                or prefix_matrix.shape[1] != self.embed_dim):
            raise ConfigurationError(
                f"prefix shape {prefix_matrix.shape} is not (rows >= 1, {self.embed_dim})")
        if not np.isfinite(prefix_matrix).all():
            raise ConfigurationError("prefix contains non-finite entries")
        return prefix_matrix

    def next_token_logits(self, prefix_matrix, token_ids):
        """Logits for the next token given an optional visual prefix.

        Stateless full re-forward: the reference for `prefill` and `step`.
        """
        rows = [self._anchor(prefix_matrix)]
        if len(token_ids):
            rows.append(self.base_lm.embed_tokens(list(token_ids)))
        embeds = np.concatenate(rows, axis=0)[None, :, :]
        logits, _ = self.base_lm.forward_embeds(embeds, self.adapters)
        return logits[0, -1]

    def prefill(self, prefix_matrix):
        """Run the anchor once: (logits (1, vocab) for the first token, past). The
        past `(kv, S, rows)` holds one array kv (layers, 2, rows, H, max_seq_len,
        dh), whose kv[i] is layer i's K and V, and, per beam, the kv row that holds it."""
        anchor = self._anchor(prefix_matrix)[None]
        attn = self.base_lm.blocks[0].attn
        kv = np.empty((len(self.base_lm.blocks), 2, 1, attn.n_head, self.context_limit,
                       attn.d_head))
        logits, _ = self.base_lm.forward_embeds(anchor, self.adapters, (kv, 0))
        return logits[:, -1], (kv, anchor.shape[1], np.zeros(1, dtype=np.intp))

    def step(self, token_ids, past, parents):
        """Append token_ids[i] to beam parents[i] of `past`: returns (logits (beams,
        vocab) for each new beam's next token, the new past). In place: a parent's first
        child keeps its kv row; a further child, or one whose parent's row lies past
        the new beam count, copies that row into a row that no parent holds. The batch
        runs in row order; kv regrows when the beam count passes its rows."""
        kv, start, rows = past
        src = rows[np.asarray(parents, dtype=np.intp)].tolist()    # each parent's row
        n = len(src)
        if n > kv.shape[2]:
            grown = np.empty(kv.shape[:2] + (n,) + kv.shape[3:])
            grown[:, :, :kv.shape[2], :, :start] = kv[..., :start, :]
            kv = grown
        moved = [i for i, row in enumerate(src) if row >= n or row in src[:i]]
        free = sorted(set(range(n)) - set(src))    # rows that no parent holds
        rows = np.array(src)
        rows[moved] = free
        for child, dst in zip(moved, free):
            kv[:, :, dst, :, :start] = kv[:, :, src[child], :, :start]
        embeds = self.base_lm.embed_tokens(np.asarray(token_ids)[np.argsort(rows)])
        logits, _ = self.base_lm.forward_embeds(embeds[:, None], self.adapters, (kv, start))
        return logits[rows, -1], (kv, start + 1, rows)

    def perplexity(self, token_lists):
        """exp(mean NLL per token); lower is a better fit."""
        return float(np.exp(sequence_nll(self.base_lm, token_lists, self.adapters)))

    def decode(self, token_ids):
        return self.base_lm.tokenizer.decode(token_ids)

    def manifest(self):
        return dict(self._manifest)


def attach(base_lm, adapter_set):
    """Compose base LM + adapter set into a stylistic LM view (non-destructive)."""
    return StyledLanguageModel(base_lm, adapter_set, "adapter")


# ---------------------------------------------------------------------------
# training


@dataclass
class AdapterTrainConfig:
    max_epochs: int = 10
    learning_rate: float = 1e-3
    batch_size: int = 8
    max_seq_len: int = 512
    seed: int = 0
    val_fraction: float = 0.1
    patience: int = 2            # early stop after this many non-improving epochs

    def __post_init__(self):
        for field, low in (("max_epochs", 0), ("batch_size", 1), ("max_seq_len", 2),
                           ("patience", 1)):
            if getattr(self, field) < low:
                raise ConfigurationError(f"AdapterTrainConfig.{field} must be >= {low}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigurationError("AdapterTrainConfig.learning_rate must be positive and finite")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ConfigurationError("AdapterTrainConfig.val_fraction must be in [0, 1)")


def _train_text_model(texts, lm, trainable_params, adapters, cfg, label):
    """`nn.train_loop` on a seeded split that holds `val_fraction` of the texts out."""
    token_lists = [lm.tokenizer.encode(t) for t in texts]
    rng = np.random.default_rng(cfg.seed)
    n_val = int(len(token_lists) * cfg.val_fraction)
    order = rng.permutation(len(token_lists))
    val = [token_lists[i] for i in order[:n_val]]
    train = [token_lists[i] for i in order[n_val:]]
    if not train:
        raise ConfigurationError(f"{label}: no training sequences left")
    max_len = min(cfg.max_seq_len, lm.config.max_seq_len)
    validate = (lambda: sequence_nll(lm, val, adapters, cfg.batch_size)) if val else None

    def loss(chunk):
        return batch_loss(lm, teacher_forced_batch(chunk, lm.tokenizer, max_len), adapters)[0]

    return nn.train_loop(trainable_params, cfg, lambda: train, loss, label, validate)


def train_adapter(passages, base_lm, cfg: AdapterTrainConfig, style=None,
                  adapter_config=None):
    """Train one style's adapter set on its passages; base LM stays frozen.

    `style` defaults to the first genre of the first passage. Every passage
    must carry the style within its first three genre labels.
    """
    if not passages:
        raise ConfigurationError("train_adapter requires a non-empty passage set")
    style = style or passages[0].genres[0]
    for p in passages:
        if style not in p.genres[:3]:
            raise ConfigurationError(
                f"passage from {p.source_title!r} does not carry style {style!r} "
                "in its first three genres")

    adapter_set = StyleAdapterSet(style, base_lm, adapter_config, seed=cfg.seed)
    with nn.freeze_params(base_lm.params()):
        return adapter_set, _train_text_model([p.text for p in passages], base_lm,
                                              adapter_set.params(), adapter_set.blocks, cfg,
                                              f"adapter[{style}]")


def train_full_finetune(passages, base_lm, cfg: AdapterTrainConfig):
    """Fine-tune every LM parameter on the whole book collection (non-styled).

    Works on a deep copy; the given base LM is left untouched. Returns
    (tuned_lm, loss_log).
    """
    if not passages:
        raise ConfigurationError("train_full_finetune requires a non-empty passage set")
    tuned = copy.deepcopy(base_lm)
    tuned.lm_id = f"{base_lm.lm_id}+book-finetune"
    return tuned, train_on_texts([p.text for p in passages], tuned, cfg, "full-finetune")


def train_on_texts(texts, lm, cfg: AdapterTrainConfig, label="text-corpus"):
    """Causal-LM training of every parameter of `lm` on raw texts, in place.

    Gives a fresh toy LM its base language knowledge (passage and caption
    text) before mapper or adapter training; `train_full_finetune` runs it
    on a deep copy.
    """
    return _train_text_model(texts, lm, lm.params(), None, cfg, label)
