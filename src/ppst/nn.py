"""Minimal neural-network layers on numpy arrays with explicit backward passes.

Every layer exposes ``forward(x) -> (y, cache)`` and ``backward(dy, cache) -> dx``;
``backward`` accumulates into the ``grad`` of every param that has a gradient. A param
owns a gradient buffer only after its first ``zero_grad``; one never trained, or frozen
by ``freeze_params``, has none (``grad`` is None), so backward skips its products and
only carries ``dx`` through. Caches are passed explicitly so forward-only inference is
stateless and safe to run concurrently. A cache holds what backward reads and cannot
rebuild cheaply: a Linear's input, LayerNorm's (xhat, 1/std), an activation's slope, and
attention's q, k, v and weights. Backward rebuilds the rest with the forward's own
operations, bit for bit: a LayerNorm output that feeds a Linear from xhat
(``LayerNorm.affine``; it is the ``x`` of attention's and the MLP's
``backward(dy, cache, x)``), and attention's context from its weights and v. ``Mlp``
(fc -> activation -> out) is the transformer block's MLP, the style adapter's bottleneck
and the prefix mapper; each activation returns its output and, if backward follows, its
slope. Layers and ``Adam.step`` work in place on their own arrays and on the cache that
their backward consumes (never on an input), in the operation order of the textbook
expressions, so results are bit-equal to those (pinned in tests/test_nn.py). A training
cache thus serves one backward: the MLP's writes its hidden gradient over the cached
activation output, multiplies the slope in and empties the cache; a second raises. A
training step holds the lower blocks' caches and one block's working set. A block
forward with ``backward=False`` computes no slope and returns no cache, so no backward
may follow; one given a ``past`` (attention's k/v buffers, decode only) writes k and v
into them in place. Every model trains through ``train_loop``: per batch it zeroes the
gradients, runs the batch forward and backward, checks the loss is finite and steps
Adam; after each epoch it writes one log entry, {"epoch", "train_loss"[, "val_loss"]},
and may stop early on the validation loss. All math runs in float64; checkpoints store
float32. The GELU's ``erf`` is scipy's own ufunc, loaded from its compiled module
without importing ``scipy.special``.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import math
import sys

import numpy as np

from .errors import ConfigurationError, TrainingDiverged


class Param:
    """A tensor and its accumulated gradient. ``grad`` is None until the first
    ``zero_grad`` allocates it, so a model that is not trained holds none, and
    while frozen: ``zero_grad`` refuses a read-only param rather than unfreeze it."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None

    def zero_grad(self, name="param"):
        if not self.value.flags.writeable:
            raise ConfigurationError(f"{name} is frozen: zero_grad would give it a gradient")
        if self.grad is None:
            self.grad = np.zeros(self.value.shape)
        else:
            self.grad[...] = 0.0

    @property
    def size(self):
        return self.value.size


def fan_in_uniform(rng, shape, fan_in):
    """Standard fan-in-scaled uniform init, U(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _mean(x):
    """`x.mean(axis=-1, keepdims=True)` bit for bit, without np.mean's Python layer."""
    m = np.add.reduce(x, axis=-1, keepdims=True)
    m /= x.shape[-1]
    return m


# ---------------------------------------------------------------------------
# activations


def _scipy_erf():
    """scipy's erf, not ``import scipy.special``'s 270 modules (25.6 MiB of RSS, scipy 1.17)."""
    name = "scipy.special._special_ufuncs"
    if name not in sys.modules and "scipy.special" not in sys.modules:
        special = importlib.util.find_spec("scipy.special").submodule_search_locations
        spec = importlib.machinery.PathFinder.find_spec(name, special)
        if spec is not None:      # registered, so a later import of scipy.special reuses it
            sys.modules[name] = module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
    erf = getattr(sys.modules.get(name), "erf", None)
    return erf or importlib.import_module("scipy.special").erf     # older scipy has none


erf = _scipy_erf()


def _tanh(x, backward=True, out=None):
    y = np.tanh(x, out=out)
    return y, (1.0 - y * y if backward else None)


def _relu(x, backward=True, out=None):
    y = np.maximum(x, 0.0, out=out)
    return y, (y > 0.0 if backward else None)


def _gelu(x, backward=True, out=None):
    """x * cdf(x), with slope cdf(x) + x * pdf(x) if backward follows."""
    cdf = x / math.sqrt(2.0)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = cdf if out is None else out
    if not backward:
        return np.multiply(x, cdf, out=out), None
    slope = np.multiply(x, -0.5)
    slope *= x
    np.exp(slope, out=slope)
    slope /= math.sqrt(2.0 * math.pi)
    slope *= x
    slope += cdf
    return np.multiply(x, cdf, out=out), slope


# act(x, backward=True, out=None) -> (y into `out`, which may be x; dy/dx or None)
ACTIVATIONS = {"tanh": _tanh, "relu": _relu, "gelu": _gelu}


def get_activation(name):
    if name not in ACTIVATIONS:
        raise ConfigurationError(f"unknown activation {name!r}; known: {sorted(ACTIVATIONS)}")
    return ACTIVATIONS[name]


# ---------------------------------------------------------------------------
# layers


class Linear:
    def __init__(self, d_in, d_out, rng):
        self.w = Param(fan_in_uniform(rng, (d_in, d_out), d_in))
        self.b = Param(np.zeros(d_out))

    def forward(self, x):
        y = x @ self.w.value
        y += self.b.value
        return y, x

    def backward(self, dy, x, out=None):
        d_in, d_out = self.w.value.shape
        if self.w.grad is not None:
            self.w.grad += x.reshape(-1, d_in).T @ dy.reshape(-1, d_out)
        if self.b.grad is not None:
            self.b.grad += dy.reshape(-1, d_out).sum(axis=0)
        return np.matmul(dy, self.w.value.T, out=out)    # `out` may be x, read above

    def params(self, prefix):
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


class LayerNorm:
    eps = 1e-5

    def __init__(self, dim):
        self.gain = Param(np.ones(dim))
        self.bias = Param(np.zeros(dim))

    def forward(self, x):
        xhat = x - _mean(x)
        y = np.multiply(xhat, xhat)
        inv = 1.0 / np.sqrt(_mean(y) + self.eps)
        xhat *= inv
        return self.affine(xhat, out=y), (xhat, inv)

    def affine(self, xhat, out=None):
        """xhat * gain + bias: forward's output, or the same array rebuilt from its cache."""
        y = np.multiply(xhat, self.gain.value, out=out)
        y += self.bias.value
        return y

    def backward(self, dy, cache):
        xhat, inv = cache
        d = xhat.shape[-1]
        t = np.empty_like(xhat)
        if self.gain.grad is not None:
            self.gain.grad += np.multiply(dy, xhat, out=t).reshape(-1, d).sum(axis=0)
        if self.bias.grad is not None:
            self.bias.grad += dy.reshape(-1, d).sum(axis=0)
        dx = dy * self.gain.value
        mean_dx_xhat = _mean(np.multiply(dx, xhat, out=t))
        dx -= _mean(dx)
        dx -= np.multiply(xhat, mean_dx_xhat, out=t)
        dx *= inv
        return dx

    def params(self, prefix):
        return {f"{prefix}.gain": self.gain, f"{prefix}.bias": self.bias}


def _context(attn, v):
    """The heads' outputs side by side, (B, T, d_model): attention's proj input."""
    b, h, t, _ = attn.shape
    if t == 1:    # decode: (B, H, 1, dh) is already the (B, 1, H, dh) layout
        return (attn @ v).reshape(b, t, -1)
    ctx = np.empty((b, t, h, v.shape[-1]))
    np.matmul(attn, v, out=ctx.transpose(0, 2, 1, 3))    # no transposed copy
    return ctx.reshape(b, t, -1)


class CausalSelfAttention:
    """Multi-head self-attention with a causal mask, no dropout."""

    def __init__(self, d_model, n_head, rng):
        self.n_head = n_head
        self.d_head = d_model // n_head
        self.qkv = Linear(d_model, 3 * d_model, rng)
        self.proj = Linear(d_model, d_model, rng)

    def forward(self, x, past=None):
        """`past=(K, V, S)`, buffers whose first B rows hold positions ..S - 1, puts x
        at S.. (decode only): x's k and v are written there; attention reads
        [:B, :, :S + T]."""
        b, t, _ = x.shape
        qkv, _ = self.qkv.forward(x)
        q, k, v = qkv.reshape(b, t, 3, self.n_head, self.d_head).transpose(2, 0, 3, 1, 4)
        if past is not None:
            k_buf, v_buf, start = past
            k_buf[:b, :, start:start + t], v_buf[:b, :, start:start + t] = k, v
            k, v = k_buf[:b, :, :start + t], v_buf[:b, :, :start + t]
        s = k.shape[2]
        attn = q @ k.transpose(0, 1, 3, 2)
        attn /= math.sqrt(self.d_head)
        if t > 1:    # one new position sees every earlier one: no mask
            np.copyto(attn, -np.inf, where=np.triu(np.ones((t, s), dtype=bool), k=s - t + 1))
        attn -= attn.max(axis=-1, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        y, _ = self.proj.forward(_context(attn, v))
        return y, (q, k, v, attn)

    def backward(self, dy, cache, x):
        q, k, v, attn = cache
        b, h, t, dh = q.shape
        dctx = self.proj.backward(dy, _context(attn, v))
        dctx = dctx.reshape(b, t, h, dh).transpose(0, 2, 1, 3)
        dqkv = np.empty((b, t, 3 * h * dh))
        dq, dk, dv = dqkv.reshape(b, t, 3, h, dh).transpose(2, 0, 3, 1, 4)
        dv[...] = attn.transpose(0, 1, 3, 2) @ dctx
        dscores = dctx @ v.transpose(0, 1, 3, 2)
        dscores -= (dscores * attn).sum(axis=-1, keepdims=True)
        dscores *= attn
        dq[...] = dscores @ k
        dq /= math.sqrt(dh)
        dk[...] = dscores.transpose(0, 1, 3, 2) @ q
        dk /= math.sqrt(dh)
        return self.qkv.backward(dqkv, x)

    def params(self, prefix):
        return {**self.qkv.params(f"{prefix}.qkv"), **self.proj.params(f"{prefix}.proj")}


class Mlp:
    """fc -> activation -> out; `activation` names an `ACTIVATIONS` entry."""

    def __init__(self, d_in, d_hidden, rng, d_out=None, activation="gelu"):
        self.fc = Linear(d_in, d_hidden, rng)
        self.out = Linear(d_hidden, d_in if d_out is None else d_out, rng)
        self.activation = activation

    def forward(self, x, backward=True):
        h, _ = self.fc.forward(x)
        a, slope = ACTIVATIONS[self.activation](h, backward, out=h)    # a replaces h
        y, _ = self.out.forward(a)
        return y, [a, slope]

    def backward(self, dy, cache, x):
        if not cache:    # an earlier backward overwrote its activation output
            raise ConfigurationError("Mlp.backward: cache already consumed by a backward")
        da = self.out.backward(dy, cache[0], out=cache.pop(0))    # over the activation output
        da *= cache.pop()    # the slope, in place; the cache is now empty
        return self.fc.backward(da, x)

    def params(self, prefix):
        return {**self.fc.params(f"{prefix}.fc"), **self.out.params(f"{prefix}.out")}


class TransformerBlock:
    """Pre-norm block: x + attn(ln1(x)), then + mlp(ln2(.))."""

    def __init__(self, d_model, n_head, d_ff, rng):
        self.ln1 = LayerNorm(d_model)
        self.attn = CausalSelfAttention(d_model, n_head, rng)
        self.ln2 = LayerNorm(d_model)
        self.mlp = Mlp(d_model, d_ff, rng)

    def forward(self, x, past=None, backward=True):
        n1, ln1_cache = self.ln1.forward(x)
        h, attn_cache = self.attn.forward(n1, past)
        del n1
        h += x    # x + a, in place on attention's output
        n2, ln2_cache = self.ln2.forward(h)
        m, mlp_cache = self.mlp.forward(n2, backward)
        h += m
        return h, (ln1_cache, attn_cache, ln2_cache, mlp_cache) if backward else None

    def backward(self, dy, cache):
        ln1_cache, attn_cache, ln2_cache, mlp_cache = cache
        dn2 = self.mlp.backward(dy, mlp_cache, self.ln2.affine(ln2_cache[0]))
        dh = dy + self.ln2.backward(dn2, ln2_cache)
        dn1 = self.attn.backward(dh, attn_cache, self.ln1.affine(ln1_cache[0]))
        return dh + self.ln1.backward(dn1, ln1_cache)

    def params(self, prefix):
        return {
            **self.ln1.params(f"{prefix}.ln1"),
            **self.attn.params(f"{prefix}.attn"),
            **self.ln2.params(f"{prefix}.ln2"),
            **self.mlp.params(f"{prefix}.mlp"),
        }


# ---------------------------------------------------------------------------
# loss


def log_softmax(logits):
    """Log-probabilities over the last axis, shifted by the row max for stability."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def masked_cross_entropy(logits, targets, mask):
    """Next-token cross-entropy, averaged per example then over examples.

    The batch loss is the mean over examples of each example's mean CE across
    its supervised positions (mask > 0). Examples with no supervised position
    are excluded from the mean. Returns (loss, dloss/dlogits).
    """
    b, t, v = logits.shape
    logp = log_softmax(logits)
    safe_targets = np.clip(targets, 0, v - 1)
    nll = -np.take_along_axis(logp, safe_targets[..., None], axis=-1)[..., 0]

    mask = mask.astype(np.float64)
    per_row = mask.sum(axis=1)
    live = per_row > 0
    n_live = int(live.sum())
    if n_live == 0:
        raise ConfigurationError("cross-entropy batch has no supervised positions")
    weights = np.zeros_like(mask)
    weights[live] = mask[live] / per_row[live, None] / n_live
    loss = float((nll * weights).sum())

    probs = np.exp(logp)
    dlogits = probs * weights[..., None]
    np.subtract.at(dlogits, (np.arange(b)[:, None], np.arange(t)[None, :], safe_targets),
                   weights)
    return loss, dlogits


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam with the usual betas and eps; updates only the params it was given,
    in place, over flat blocks of BLOCK elements through two scratch blocks."""

    BLOCK = 32768
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=1e-3):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros(p.value.shape) for k, p in self.params.items()}
        self.v = {k: np.zeros(p.value.shape) for k, p in self.params.items()}
        self.scratch = (np.empty(self.BLOCK), np.empty(self.BLOCK))

    def zero_grad(self):
        for k, p in self.params.items():
            p.zero_grad(f"Adam: param {k!r}")

    def step(self):
        for k, p in self.params.items():    # all checked before any is updated
            if p.grad is None:
                raise ConfigurationError(f"Adam: param {k!r} has no gradient "
                                         "(frozen, or zero_grad was not called)")
            if not (p.value.flags.c_contiguous and p.grad.flags.c_contiguous):
                raise ConfigurationError(f"Adam: param {k!r} is not C-contiguous")
        self.t += 1
        b1c = 1.0 - self.BETA1 ** self.t
        b2c = 1.0 - self.BETA2 ** self.t
        for k, p in self.params.items():
            flat = [arr.reshape(-1) for arr in (p.value, p.grad, self.m[k], self.v[k])]
            for start in range(0, p.value.size, self.BLOCK):
                value, g, m, v = (arr[start: start + self.BLOCK] for arr in flat)
                a, b = (scratch[: g.size] for scratch in self.scratch)
                m *= self.BETA1
                np.multiply(g, 1.0 - self.BETA1, out=a)
                m += a
                v *= self.BETA2
                np.multiply(g, 1.0 - self.BETA2, out=a)
                a *= g
                v += a
                np.divide(m, b1c, out=a)
                a *= self.lr
                np.divide(v, b2c, out=b)
                np.sqrt(b, out=b)
                b += self.EPS
                a /= b
                value -= a


def train_loop(params, cfg, epoch_order, batch_loss, label, validate=None):
    """Adam over `params`, `cfg.max_epochs` epochs of `cfg.batch_size` slices of
    `epoch_order()`; `cfg.patience` epochs without a better `validate()` stop it."""
    optimizer = Adam(params, lr=cfg.learning_rate)
    loss_log = []
    best_val = math.inf
    best_epoch = -1
    for epoch in range(cfg.max_epochs):
        order = epoch_order()
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            optimizer.zero_grad()
            loss = batch_loss(order[start: start + cfg.batch_size])
            if not math.isfinite(loss):
                raise TrainingDiverged(f"{label}: non-finite loss at epoch {epoch}, "
                                       f"batch {start // cfg.batch_size}")
            optimizer.step()
            epoch_losses.append(loss)
        entry = {"epoch": epoch, "train_loss": float(np.mean(epoch_losses))}
        loss_log.append(entry)
        if validate is not None:
            entry["val_loss"] = validate()
            if entry["val_loss"] < best_val - 1e-9:
                best_val = entry["val_loss"]
                best_epoch = epoch
            if epoch - best_epoch >= cfg.patience:
                break
    return loss_log


def param_count(params):
    return sum(p.size for p in params.values())


@contextlib.contextmanager
def freeze_params(params):
    """Freeze params in the enclosed block: each value is read-only (any in-place
    update raises) and has no gradient; both are restored on exit."""
    saved = [(p, p.value.flags.writeable, p.grad) for p in params.values()]
    for p, _, _ in saved:
        p.value.flags.writeable = False
        p.grad = None
    try:
        yield
    finally:
        for p, writeable, grad in saved:
            p.value.flags.writeable = writeable
            p.grad = grad
