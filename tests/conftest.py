import math

import numpy as np
import pytest

from ppst import nn
from ppst.lm import CausalTransformerLM, LmConfig
from ppst.tokenizer import WordTokenizer


def make_tiny_lm(n_words=8, n_layer=2, n_head=2, d_model=8, d_ff=16,
                 max_seq_len=32, seed=1):
    tok = WordTokenizer([f"w{i}" for i in range(n_words)])
    cfg = LmConfig(vocab_size=tok.vocab_size, n_layer=n_layer, n_head=n_head,
                   d_model=d_model, d_ff=d_ff, max_seq_len=max_seq_len)
    return CausalTransformerLM(cfg, tok, seed=seed)


@pytest.fixture
def tiny_lm():
    return make_tiny_lm()


def grads_unfrozen_and_frozen(lm, trainable, backward):
    """The grads of `trainable` after one `backward()` with `lm` unfrozen, then
    after one inside `nn.freeze_params(lm.params())`.

    Also checks that the freeze hides every LM gradient and puts the same
    arrays, with the same values, back on exit.
    """
    def run():
        for p in trainable.values():
            p.zero_grad()
        backward()
        return {name: p.grad.copy() for name, p in trainable.items()}

    for p in lm.params().values():
        p.zero_grad()
    unfrozen = run()
    lm_grads = {name: (p.grad, p.grad.copy()) for name, p in lm.params().items()}
    assert any(g.any() for g, _ in lm_grads.values())
    with nn.freeze_params(lm.params()):
        frozen = run()
        assert all(p.grad is None for p in lm.params().values())
    for name, p in lm.params().items():
        assert p.grad is lm_grads[name][0] and np.array_equal(p.grad, lm_grads[name][1])
    return unfrozen, frozen


def central_difference(loss_fn, array, index, h=1e-6):
    """Two-point central finite difference of loss_fn wrt array[index]."""
    old = array[index]
    array[index] = old + h
    up = loss_fn()
    array[index] = old - h
    down = loss_fn()
    array[index] = old
    return (up - down) / (2 * h)


def relative_error(a, b, floor=1e-8):
    return abs(a - b) / max(abs(a), abs(b), floor)


def grad_close(fd, analytic, rel_tol=1e-4, abs_tol=1e-7):
    """Combined tolerance; abs_tol sits above central-difference rounding noise
    so exact-zero gradients (e.g. attention key bias under softmax
    shift-invariance) compare cleanly."""
    return abs(fd - analytic) <= rel_tol * max(abs(fd), abs(analytic)) + abs_tol


class StatelessLM:
    """The step API over `next_token_logits(prefix, token_ids)`: every step
    re-runs each live beam in full, and the past holds each beam's token ids.
    The reference decode path for toy models and the KV-cache parity tests."""

    style = "plain"
    context_limit = math.inf

    def manifest(self):
        return {}

    def prefill(self, prefix):
        return self.next_token_logits(prefix, [])[None], (prefix, [[]])

    def step(self, token_ids, past, parents):
        prefix, rows = past
        rows = [rows[p] + [int(t)] for p, t in zip(parents, token_ids)]
        return np.stack([self.next_token_logits(prefix, r) for r in rows]), (prefix, rows)


class RandomTableLM(StatelessLM):
    """Deterministic toy model: next-token logits depend on (position, last token)."""

    def __init__(self, vocab, max_len, rng, spread=1.0, eos_id=0):
        self.table = rng.standard_normal((max_len + 1, vocab, vocab)) * spread
        self.eos_id = eos_id
        self.vocab = vocab

    def next_token_logits(self, prefix, token_ids):
        last = token_ids[-1] if len(token_ids) else 0
        return self.table[len(token_ids), last].copy()

    def decode(self, token_ids):
        return " ".join(str(t) for t in token_ids if t != self.eos_id)
