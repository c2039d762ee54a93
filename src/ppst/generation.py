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
  * if every candidate is masked (n-gram saturation), the n-gram block is
    lifted for that single step and a warning is recorded.

Decoding is incremental for models with the step API (`prefill`, `step`;
see StyledLanguageModel). Their past is one (k, v) pair per layer, each
(beams, heads, positions, head dim), with row i for live beam i.
"""

from __future__ import annotations

import json
import math
import time
import warnings as _warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigurationError
from .mapper import VisualPrefix

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
        if self.beam_size < 1:
            raise ConfigurationError("beam_size must be >= 1")
        if self.top_k < 1:
            raise ConfigurationError("top_k must be >= 1")
        if self.no_repeat_ngram < 2:
            raise ConfigurationError("no_repeat_ngram must be >= 2")
        if self.temperature <= 0:
            raise ConfigurationError("temperature must be > 0")
        if self.repetition_penalty <= 0:
            raise ConfigurationError("repetition_penalty must be > 0")
        if self.length_decay_factor < 1:
            raise ConfigurationError("length_decay_factor must be >= 1")
        if self.min_length < 0 or (self.max_length is not None and self.max_length < 1):
            raise ConfigurationError("lengths must be non-negative")

    @property
    def resolved_max_length(self):
        return self.max_length if self.max_length is not None else self.min_length + 256

    def to_dict(self):
        out = asdict(self)
        out["max_length"] = self.resolved_max_length
        return out


@dataclass
class BeamState:
    token_ids: tuple
    cumulative_log_prob: float
    finished: bool = False


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

    def to_json_line(self, include_wall_time=False):
        """Persisted record line. Wall time is volatile, so it is written as
        null by default to keep record files byte-identical across reruns;
        real timings go to a sidecar (see cli.py)."""
        return json.dumps({
            "image_ref": self.image_ref,
            "style": self.style,
            "story": self.story_text,
            "token_count": self.token_count,
            "config": self.config,
            "seed": self.config.get("seed"),
            "model_manifest": self.model_manifest,
            "wall_time_s": self.wall_time_s if include_wall_time else None,
        }, sort_keys=True, ensure_ascii=False)


# ---------------------------------------------------------------------------
# logit processors


def apply_temperature(logits, t):
    """Elementwise division by t (t > 0)."""
    if t <= 0:
        raise ConfigurationError("temperature must be > 0")
    return logits / t


def apply_repetition_penalty(logits, generated_token_ids, p):
    """Discount tokens already generated in this beam.

    Positive logits are multiplied by p, non-positive ones divided by p, so
    any p < 1 makes repeats strictly less likely (p = 1 is the identity).
    """
    if p <= 0:
        raise ConfigurationError("repetition_penalty must be > 0")
    out = logits.copy()
    for tok in set(generated_token_ids):
        if out[tok] > 0:
            out[tok] *= p
        else:
            out[tok] /= p
    return out


def block_ngrams(logits, token_ids, n):
    """Mask every token that would complete an n-gram already in token_ids."""
    if n < 2:
        raise ConfigurationError("no_repeat_ngram must be >= 2")
    out = logits.copy()
    if len(token_ids) < n - 1:
        return out
    token_ids = tuple(token_ids)
    tail = token_ids[-(n - 1):] if n > 1 else ()
    for i in range(len(token_ids) - n + 1):
        if token_ids[i: i + n - 1] == tail:
            out[token_ids[i + n - 1]] = NEG_INF
    return out


def mask_min_length(logits, current_length, min_length, eos_id):
    """Forbid eos while fewer than min_length tokens have been generated."""
    out = logits.copy()
    if current_length < min_length:
        out[eos_id] = NEG_INF
    return out


def eos_length_decay(logits, current_length, start, factor, eos_id):
    """Add (current_length - start) * ln(factor) to the eos logit past start."""
    if factor < 1:
        raise ConfigurationError("length_decay_factor must be >= 1")
    out = logits.copy()
    if current_length > start and np.isfinite(out[eos_id]):
        out[eos_id] += (current_length - start) * math.log(factor)
    return out


def top_k_filter(logits, k):
    """Keep the k best logits (ties to the lower token id), mask the rest."""
    if k < 1:
        raise ConfigurationError("top_k must be >= 1")
    out = logits.copy()
    if k < out.shape[0]:
        keep = np.argsort(-out, kind="stable")[:k]
        masked = np.full_like(out, NEG_INF)
        masked[keep] = out[keep]
        out = masked
    return out


def _log_softmax(x):
    finite = np.isfinite(x)
    if not finite.any():
        raise ConfigurationError("no viable token after masking")
    m = x[finite].max()
    z = np.log(np.exp(np.where(finite, x - m, NEG_INF)).sum())
    return np.where(finite, x - m - z, NEG_INF)


def step_log_probs(raw_logits, token_ids, cfg, eos_id):
    """Processed per-token log-probabilities for one step of one beam.

    Returns (log_probs, relaxed) where relaxed marks the n-gram block having
    been lifted because it masked every candidate.
    """
    raw_logits = np.asarray(raw_logits, dtype=np.float64)
    x = apply_temperature(raw_logits, cfg.temperature)
    x = apply_repetition_penalty(x, token_ids, cfg.repetition_penalty)
    current = len(token_ids)

    def finish(y):
        y = mask_min_length(y, current, cfg.min_length, eos_id)
        y = eos_length_decay(y, current, cfg.length_decay_start,
                             cfg.length_decay_factor, eos_id)
        return top_k_filter(y, cfg.top_k)

    processed = finish(block_ngrams(x, token_ids, cfg.no_repeat_ngram))
    relaxed = False
    if not np.isfinite(processed).any():
        processed = finish(x)      # lift the n-gram block for this step
        relaxed = True
    return _log_softmax(processed), relaxed


# ---------------------------------------------------------------------------
# beam search


def _beam_logits(model, prefix_matrix):
    """A function (live beams, parent of each) -> raw next-token logits per beam.

    With the step API the anchor runs once; each later call reorders the past
    rows by parent beam and runs every live beam's newest token as one batch.
    Other models are asked `next_token_logits` once per live beam.
    """
    if not hasattr(model, "prefill"):
        return lambda live, parents: [
            model.next_token_logits(prefix_matrix, list(beam.token_ids)) for beam in live]
    past = None

    def beam_logits(live, parents):
        nonlocal past
        if past is None:
            logits, past = model.prefill(prefix_matrix)
        else:
            past = [(np.take(k, parents, axis=0), np.take(v, parents, axis=0))
                    for k, v in past]
            logits, past = model.step([beam.token_ids[-1] for beam in live], past)
        return logits

    return beam_logits


def generate(prefix, model, cfg: DecodeConfig, image_ref="") -> GenerationRecord:
    """Beam-search a story from a visual prefix through a (styled) LM.

    `prefix` is a VisualPrefix, a raw (length >= 1, embed_dim) matrix, or None
    for bos-anchored text-only generation. The model needs `eos_id`, `decode`
    and either the step API or `next_token_logits`; see StyledLanguageModel.
    """
    started = time.perf_counter()
    prefix_matrix = prefix.matrix if isinstance(prefix, VisualPrefix) else prefix
    prefix_rows = 1
    if prefix_matrix is not None:
        prefix_matrix = np.asarray(prefix_matrix, dtype=np.float64)
        embed_dim = getattr(model, "embed_dim", None)
        if (prefix_matrix.ndim != 2 or prefix_matrix.shape[0] == 0
                or embed_dim not in (None, prefix_matrix.shape[1])):
            raise ConfigurationError(
                f"prefix shape {prefix_matrix.shape} is not "
                f"(rows >= 1, {embed_dim or 'embed_dim'})")
        prefix_rows = prefix_matrix.shape[0]

    run_warnings = []
    max_length = cfg.resolved_max_length
    if max_length < cfg.min_length:
        run_warnings.append(
            f"max_length {max_length} < min_length {cfg.min_length}: "
            "sequences may finish short")
    context_limit = getattr(model, "context_limit", None)
    if context_limit is not None and prefix_rows + max_length > context_limit:
        max_length = context_limit - prefix_rows
        run_warnings.append(f"max_length clipped to {max_length} by model context")
    if max_length < 1:
        raise ConfigurationError("no room to generate any token")

    eos_id = model.eos_id
    beam_logits = _beam_logits(model, prefix_matrix)
    live = [BeamState((), 0.0)]
    parents = None
    finished = []

    for step in range(max_length):
        candidates = []
        for beam_idx, (beam, raw) in enumerate(zip(live, beam_logits(live, parents))):
            log_probs, relaxed = step_log_probs(raw, beam.token_ids, cfg, eos_id)
            if relaxed:
                run_warnings.append(f"n-gram block lifted at step {step}")
            for tok in np.flatnonzero(np.isfinite(log_probs)):
                candidates.append((beam.cumulative_log_prob + log_probs[tok],
                                   beam_idx, int(tok)))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        next_live = []
        parents = []
        for score, beam_idx, tok in candidates:
            seq = live[beam_idx].token_ids + (tok,)
            if tok == eos_id:
                finished.append(BeamState(seq, score, True))
            elif len(next_live) < cfg.beam_size:
                next_live.append(BeamState(seq, score))
                parents.append(beam_idx)
        live = next_live
        if not live:
            break
        if len(finished) >= cfg.beam_size:
            kth_best = sorted((f.cumulative_log_prob for f in finished),
                              reverse=True)[cfg.beam_size - 1]
            if kth_best >= max(b.cumulative_log_prob for b in live):
                break

    pool = finished if finished else live
    winner = min(pool, key=lambda b: (-b.cumulative_log_prob, len(b.token_ids),
                                      b.token_ids))
    content = winner.token_ids[:-1] if winner.finished else winner.token_ids
    record = GenerationRecord(
        image_ref=str(image_ref),
        style=getattr(model, "style", "plain"),
        story_text=model.decode(list(winner.token_ids)),
        token_ids=winner.token_ids,
        token_count=len(content),
        cumulative_log_prob=winner.cumulative_log_prob,
        finished=winner.finished,
        config=cfg.to_dict(),
        model_manifest=getattr(model, "manifest", dict)(),
        wall_time_s=time.perf_counter() - started,
        warnings=run_warnings,
    )
    for message in run_warnings:
        _warnings.warn(message, RuntimeWarning, stacklevel=2)
    return record
