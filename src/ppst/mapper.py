"""Trainable mapping network: image embedding -> fixed-length LM prefix.

An `nn.Mlp` (fc1 -> activation -> fc2, as a checkpoint names its fc and out)
projects the frozen encoder's d_e-dimensional embedding to prefix_length rows
in the LM's input-embedding space; `map_prefix` runs it forward only. Training
maximizes caption likelihood through the frozen LM, updating only the mapper.
Its batches are the text trainers' layout (`lm.shifted_batch`) with the prefix
in the bos slot, so only caption positions carry loss, scored by their
`lm.batch_loss`. It trains through `nn.train_loop`, as do base-LM pretraining,
the style adapters and the fine-tune.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import nn
from .artifacts import load_checkpoint, save_checkpoint
from .errors import ConfigurationError
from .lm import batch_loss, shifted_batch


@dataclass
class MapperConfig:
    input_dim: int
    lm_embed_dim: int
    hidden_dim: int = 512
    prefix_length: int = 10
    activation: str = "tanh"

    def __post_init__(self):
        for field in ("input_dim", "lm_embed_dim", "hidden_dim", "prefix_length"):
            if getattr(self, field) < 1:
                raise ConfigurationError(f"MapperConfig.{field} must be positive")
        nn.get_activation(self.activation)


@dataclass
class MapperTrainConfig:
    max_epochs: int = 10
    learning_rate: float = 1e-3
    batch_size: int = 8
    max_seq_len: int = 512
    seed: int = 0

    def __post_init__(self):
        for field, low in (("max_epochs", 1), ("batch_size", 1), ("max_seq_len", 2)):
            if getattr(self, field) < low:
                raise ConfigurationError(f"MapperTrainConfig.{field} must be >= {low}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigurationError("MapperTrainConfig.learning_rate must be positive and finite")


class PrefixMapper:
    def __init__(self, config: MapperConfig, seed=0):
        self.config = config
        self.seed = seed
        self.mlp = nn.Mlp(config.input_dim, config.hidden_dim, np.random.default_rng(seed),
                          config.prefix_length * config.lm_embed_dim, config.activation)

    def params(self):
        return {**self.mlp.fc.params("fc1"), **self.mlp.out.params("fc2")}

    def forward_batch(self, x, backward=True):
        """(B, input_dim) -> (B, prefix_length, lm_embed_dim), row-major reshape."""
        flat, mlp_cache = self.mlp.forward(x, backward)
        prefix = flat.reshape(x.shape[0], self.config.prefix_length,
                              self.config.lm_embed_dim)
        return prefix, (x, mlp_cache)

    def backward_batch(self, dprefix, cache):
        x, mlp_cache = cache
        return self.mlp.backward(dprefix.reshape(dprefix.shape[0], -1), mlp_cache, x)

    def map_prefix(self, embedding: np.ndarray) -> np.ndarray:
        """The (prefix_length, lm_embed_dim) prefix of one (input_dim,) embedding."""
        if np.shape(embedding) != (self.config.input_dim,):
            raise ConfigurationError(f"embedding shape {np.shape(embedding)} != "
                                     f"mapper input ({self.config.input_dim},)")
        prefix, _ = self.forward_batch(np.asarray(embedding)[None, :], backward=False)
        return prefix[0]

    def save(self, directory, extra_manifest=None):
        return save_checkpoint(directory, "prefix_mapper", self.params(), {
            "seed": self.seed, "config": asdict(self.config), **(extra_manifest or {})})

    @classmethod
    def load(cls, directory):
        return load_checkpoint(directory, "prefix_mapper", lambda manifest: cls(
            MapperConfig(**manifest["config"]), seed=manifest.get("seed", 0)))


# ---------------------------------------------------------------------------
# training


def prefix_batch_loss(mapper, lm, embeddings, caption_ids, backward=False):
    """Loss of one batch; optionally backprop into the mapper parameters. The
    batch is the text trainers' layout, `shifted_batch`, with the prefix in the bos slot."""
    prefixes, mcache = mapper.forward_batch(embeddings, backward)
    tok = lm.tokenizer
    batch = shifted_batch([tok.bos_id] * prefixes.shape[1], caption_ids, tok.pad_id)
    loss, dprefixes = batch_loss(lm, batch, prefix=prefixes, backward=backward)
    if backward:
        mapper.backward_batch(dprefixes, mcache)
    return loss


def train_mapper(pairs, encoder, base_lm, cfg: MapperTrainConfig,
                 mapper_config: MapperConfig = None, embedding_cache=None):
    """Train the mapping network on image-caption pairs with the LM frozen.

    Returns (mapper, loss_log); loss_log has one {"epoch", "train_loss"} entry
    per epoch. Raises TrainingDiverged on a non-finite loss.
    """
    if not pairs:
        raise ConfigurationError("train_mapper requires a non-empty dataset")
    if mapper_config is None:
        mapper_config = MapperConfig(input_dim=encoder.embed_dim,
                                     lm_embed_dim=base_lm.config.d_model)
    if mapper_config.input_dim != encoder.embed_dim:
        raise ConfigurationError(
            f"mapper input_dim {mapper_config.input_dim} != encoder dim {encoder.embed_dim}")
    if mapper_config.lm_embed_dim != base_lm.config.d_model:
        raise ConfigurationError(
            f"mapper lm_embed_dim {mapper_config.lm_embed_dim} != LM d_model "
            f"{base_lm.config.d_model}")

    mapper = PrefixMapper(mapper_config, seed=cfg.seed)
    p = mapper_config.prefix_length
    max_total = min(cfg.max_seq_len, base_lm.config.max_seq_len)
    if max_total <= p:
        raise ConfigurationError("max_seq_len leaves no room for caption tokens")

    embeddings = np.zeros((len(pairs), encoder.embed_dim))
    captions = []
    for i, pair in enumerate(pairs):
        if embedding_cache is not None:
            embeddings[i] = embedding_cache.image_embedding(encoder, pair.image_ref)
        else:
            embeddings[i] = encoder.encode_image(pair.image_ref)
        cap = base_lm.tokenizer.encode(pair.caption_text, add_eos=True)
        captions.append(cap[: max_total - p])

    rng = np.random.default_rng(cfg.seed)

    def loss(idx):
        return prefix_batch_loss(mapper, base_lm, embeddings[idx],
                                 [captions[i] for i in idx], backward=True)

    with nn.freeze_params(base_lm.params()):
        return mapper, nn.train_loop(mapper.params(), cfg,
                                     lambda: rng.permutation(len(pairs)), loss, "mapper")
