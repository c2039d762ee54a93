"""Constrained beam-search story generation.

Per step, the raw next-token logits pass through a fixed processor stack:

    temperature division -> repetition penalty -> n-gram blocking
    -> min-length eos mask -> eos length-decay boost -> top-k truncation

followed by log-softmax normalization and beam expansion by cumulative
log-probability. The order is pinned because it changes results.

Conventions (documented, configurable where noted):
  * repetition penalty p multiplies positive logits of already-generated
    tokens by p and divides negative ones by p, so p < 1 always discounts
    repeats;
  * the "decaying length penalty" (start, factor) adds
    (length - start) * ln(factor) to the eos logit past `start`, i.e. eos
    odds grow by `factor` per token, steering stories to wrap up;
  * finished beams are set aside as they appear; search stops once beam_size
    finished beams can no longer be beaten by any live beam (per-step
    log-probs are <= 0, so live scores only decrease) or at max_length;
  * the winner is the best finished beam by cumulative log-probability, or
    the best live beam when nothing finished by max_length;
  * if every candidate of a beam is masked (n-gram saturation), its n-gram
    block is lifted for that single step and a warning is recorded.

The live beams are a (beams, step) token-id matrix and a (beams,) score
vector. A step is one processor pass over (beams, vocab) logits, and one
stable argsort of the finite flattened scores ranks the candidates: flat
index beam * vocab + token, so ties go to the lower beam, then the lower token.

The model is driven through its step API only (see StyledLanguageModel):
`prefill(prefix)` runs the anchor once, then each step calls
`step(newest tokens, past, parents)` with the parent beam of every live
row. The past is opaque here: the model extends it in place and keeps its own
map from beams to buffer rows, so a step copies only what a second child needs.
"""

from __future__ import annotations

import json
import math
import time
import warnings as _warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from . import nn
from .errors import ConfigurationError

NEG_INF = -np.inf


@dataclass
class DecodeConfig:
    beam_size: int = 5
    temperature: float = 0.8
    top_k: int = 10
    repetition_penalty: float = 0.7
    no_repeat_ngram: int = 3
    length_decay_factor: float = 1.7
    length_decay_start: int = 20
    min_length: int = 750
    max_length: int = None       # None -> min_length + 256
    seed: int = 0

    def __post_init__(self):
        if self.max_length is None:
            self.max_length = self.min_length + 256
        for field in ("temperature", "repetition_penalty", "length_decay_factor"):
            if not math.isfinite(getattr(self, field)):
                raise ConfigurationError(f"DecodeConfig.{field} must be finite")
        for field, low in (("beam_size", 1), ("top_k", 1), ("no_repeat_ngram", 2),
                           ("length_decay_factor", 1), ("min_length", 0), ("max_length", 1)):
            if not getattr(self, field) >= low:
                raise ConfigurationError(f"DecodeConfig.{field} must be >= {low}")
        for field in ("temperature", "repetition_penalty"):
            if not getattr(self, field) > 0:
                raise ConfigurationError(f"DecodeConfig.{field} must be > 0")


@dataclass
class GenerationRecord:
    image_ref: str
    style: str
    story_text: str
    token_ids: tuple
    token_count: int
    cumulative_log_prob: float
    finished: bool
    config: dict
    model_manifest: dict
    wall_time_s: float
    warnings: list = field(default_factory=list)

    def to_json_line(self):
        """Persisted record line. Wall time is volatile, so it is written as
        null to keep record files byte-identical across reruns; real timings
        go to a sidecar (see cli.py)."""
        return json.dumps({
            "image_ref": self.image_ref,
            "style": self.style,
            "story": self.story_text,
            "token_count": self.token_count,
            "config": self.config,
            "seed": self.config.get("seed"),
            "model_manifest": self.model_manifest,
            "wall_time_s": None,
        }, sort_keys=True, ensure_ascii=False)


# ---------------------------------------------------------------------------
# logit processors over (..., vocab) logits and (..., length) token histories


def _token_mask(shape, ids):
    """Boolean (..., vocab) mask of the ids in each row; id `vocab` is dropped."""
    mask = np.zeros(shape[:-1] + (shape[-1] + 1,), dtype=bool)
    np.put_along_axis(mask, np.asarray(ids, dtype=np.intp), True, axis=-1)
    return mask[..., :-1]


def apply_temperature(logits, t):
    """Elementwise division by t (t > 0)."""
    return logits / t


def apply_repetition_penalty(logits, generated_token_ids, p):
    """Discount tokens already generated in each row's history.

    Positive logits are multiplied by p, non-positive ones divided by p, so
    any p < 1 makes repeats strictly less likely (p = 1 is the identity).
    """
    seen = _token_mask(logits.shape, generated_token_ids)
    return np.where(seen, np.where(logits > 0, logits * p, logits / p), logits)


def block_ngrams(logits, token_ids, n):
    """Mask every token that would complete an n-gram already in token_ids."""
    ids = np.asarray(token_ids, dtype=np.intp)
    starts = ids.shape[-1] - n + 1        # n-grams in the history
    if starts < 1:
        return logits
    # an n-gram repeats the last n - 1 tokens when its first n - 1 do
    match = np.ones(ids.shape[:-1] + (starts,), dtype=bool)
    for j in range(n - 1):
        match &= ids[..., j: j + starts] == ids[..., starts + j: starts + j + 1]
    blocked = np.where(match, ids[..., n - 1:], logits.shape[-1])
    return np.where(_token_mask(logits.shape, blocked), NEG_INF, logits)


def mask_min_length(logits, current_length, min_length, eos_id):
    """Forbid eos while fewer than min_length tokens have been generated."""
    if current_length >= min_length:
        return logits
    out = logits.copy()
    out[..., eos_id] = NEG_INF
    return out


def eos_length_decay(logits, current_length, start, factor, eos_id):
    """Add (current_length - start) * ln(factor) to the eos logit past start."""
    if current_length <= start:
        return logits
    out = logits.copy()
    out[..., eos_id] += (current_length - start) * math.log(factor)
    return out


def top_k_filter(logits, k):
    """Keep the k best logits (ties to the lower token id), mask the rest."""
    if k >= logits.shape[-1]:
        return logits
    kth = np.partition(logits, -k, axis=-1)[..., -k, None]     # the k-th best value
    above = logits > kth
    tied = logits == kth       # the lowest ids among these fill the k
    tied &= np.cumsum(tied, axis=-1) <= k - np.count_nonzero(above, axis=-1)[..., None]
    return np.where(above | tied, logits, NEG_INF)


def rank_candidates(scores):
    """Indices of the finite scores, best first, ties to the lower index."""
    live = np.flatnonzero(np.isfinite(scores))
    return live[np.argsort(-scores[live], kind="stable")]


def step_log_probs(raw_logits, token_ids, cfg, eos_id):
    """Processed per-token log-probabilities for one step of every beam.

    raw_logits is (..., vocab) and token_ids the (..., length) histories.
    Returns (log_probs, relaxed) where relaxed counts the beams whose n-gram
    block was lifted because it masked every candidate.
    """
    raw_logits = np.asarray(raw_logits, dtype=np.float64)
    token_ids = np.asarray(token_ids, dtype=np.intp)
    x = apply_temperature(raw_logits, cfg.temperature)
    x = apply_repetition_penalty(x, token_ids, cfg.repetition_penalty)
    current = token_ids.shape[-1]

    def finish(y):
        y = mask_min_length(y, current, cfg.min_length, eos_id)
        y = eos_length_decay(y, current, cfg.length_decay_start,
                             cfg.length_decay_factor, eos_id)
        return top_k_filter(y, cfg.top_k)

    processed = finish(block_ngrams(x, token_ids, cfg.no_repeat_ngram))
    dead = ~np.isfinite(processed).any(axis=-1)
    if dead.any():                 # lift the n-gram block for these beams
        processed = np.where(dead[..., None], finish(x), processed)
    finite = np.isfinite(processed)
    if not finite.any(axis=-1).all():
        raise ConfigurationError("no viable token after masking")
    log_probs = nn.log_softmax(np.where(finite, processed, NEG_INF))
    return log_probs, int(np.count_nonzero(dead))


# ---------------------------------------------------------------------------
# beam search


def generate(prefix, model, cfg: DecodeConfig, image_ref="") -> GenerationRecord:
    """Beam-search a story from a visual prefix through a (styled) LM.

    `prefix` is a (rows >= 1, embed_dim) matrix, or None for bos-anchored
    text-only generation; the model checks it. The model needs `prefill`,
    `step`, `eos_id`, `context_limit`, `style`, `manifest` and `decode`; see
    StyledLanguageModel.
    """
    started = time.perf_counter()
    raw, past = model.prefill(prefix)          # the anchor runs once
    run_warnings = []
    max_length = cfg.max_length
    if max_length < cfg.min_length:
        run_warnings.append(
            f"max_length {max_length} < min_length {cfg.min_length}: "
            "sequences may finish short")
    prefix_rows = 1 if prefix is None else len(prefix)
    if prefix_rows + max_length > model.context_limit:
        max_length = model.context_limit - prefix_rows
        run_warnings.append(f"max_length clipped to {max_length} by model context")
    if max_length < 1:
        raise ConfigurationError("no room to generate any token")

    eos_id = model.eos_id
    ids = np.zeros((1, 0), dtype=np.intp)     # live beams' tokens, one row each
    scores = np.zeros(1)
    finished = []                              # (token ids, score)

    for step in range(max_length):
        if step:                               # each beam's newest token, one batch
            raw, past = model.step(ids[:, -1], past, parents)
        log_probs, relaxed = step_log_probs(raw, ids, cfg, eos_id)
        run_warnings += [f"n-gram block lifted at step {step}"] * relaxed
        flat = (scores[:, None] + log_probs).ravel()
        order = rank_candidates(flat)
        beam, tok = np.divmod(order, log_probs.shape[1])
        eos = tok == eos_id
        finished += [(tuple(ids[b].tolist()) + (eos_id,), s)
                     for b, s in zip(beam[eos], flat[order[eos]])]
        keep = np.flatnonzero(~eos)[:cfg.beam_size]
        if not keep.size:
            break
        parents = beam[keep]
        ids = np.concatenate([ids[parents], tok[keep, None]], axis=1)
        scores = flat[order[keep]]
        if len(finished) >= cfg.beam_size:
            kth_best = sorted((s for _, s in finished), reverse=True)[cfg.beam_size - 1]
            if kth_best >= scores.max():
                break

    pool = finished or [(tuple(row), s) for row, s in zip(ids.tolist(), scores)]
    token_ids, score = min(pool, key=lambda b: (-b[1], len(b[0]), b[0]))
    record = GenerationRecord(
        image_ref=str(image_ref),
        style=model.style,
        story_text=model.decode(list(token_ids)),
        token_ids=token_ids,
        token_count=len(token_ids) - bool(finished),
        cumulative_log_prob=score,
        finished=bool(finished),
        config=asdict(cfg),
        model_manifest=model.manifest(),
        wall_time_s=time.perf_counter() - started,
        warnings=run_warnings,
    )
    for message in run_warnings:
        _warnings.warn(message, RuntimeWarning, stacklevel=2)
    return record
