import numpy as np
import pytest

from conftest import central_difference, grad_close
from ppst import nn
from ppst.errors import ConfigurationError


def check_param_gradients(layer, forward_loss, rng, samples=6):
    """Compare accumulated analytic grads against central differences."""
    for p in layer.params("x").values():
        p.zero_grad()
    forward_loss(backward=True)
    for name, p in layer.params("x").items():
        flat = p.value.reshape(-1)
        grad = p.grad.reshape(-1)
        for i in rng.choice(flat.size, size=min(samples, flat.size), replace=False):
            fd = central_difference(lambda: forward_loss(backward=False), flat, i)
            assert grad_close(fd, grad[i], rel_tol=1e-5), name


def quadratic_loss(y):
    return 0.5 * float((y * y).sum()), y


def test_linear_gradients():
    rng = np.random.default_rng(0)
    layer = nn.Linear(5, 4, rng)
    x = rng.standard_normal((3, 5))

    def run(backward):
        y, cache = layer.forward(x)
        loss, dy = quadratic_loss(y)
        if backward:
            layer.backward(dy, cache)
        return loss

    check_param_gradients(layer, run, rng)


def test_layernorm_gradients_params_and_input():
    rng = np.random.default_rng(1)
    layer = nn.LayerNorm(6)
    layer.gain.value[:] = rng.standard_normal(6)
    layer.bias.value[:] = rng.standard_normal(6)
    x = rng.standard_normal((2, 4, 6))

    def run(backward):
        y, cache = layer.forward(x)
        loss, dy = quadratic_loss(y)
        if backward:
            return layer.backward(dy, cache), loss
        return loss

    check_param_gradients(layer, lambda backward: run(backward) if not backward
                          else run(True)[1], rng)
    dx, _ = run(True)
    for idx in [(0, 0, 0), (1, 3, 5), (0, 2, 3)]:
        fd = central_difference(lambda: run(False), x, idx)
        assert grad_close(fd, dx[idx], rel_tol=1e-5)


def test_attention_gradients():
    rng = np.random.default_rng(2)
    layer = nn.CausalSelfAttention(8, 2, rng)
    x = rng.standard_normal((2, 5, 8))

    def run(backward):
        y, cache = layer.forward(x)
        loss, dy = quadratic_loss(y)
        if backward:
            layer.backward(dy, cache)
        return loss

    check_param_gradients(layer, run, rng)


def test_attention_is_causal():
    rng = np.random.default_rng(3)
    layer = nn.CausalSelfAttention(8, 2, rng)
    x = rng.standard_normal((1, 6, 8))
    y1, _ = layer.forward(x)
    x2 = x.copy()
    x2[0, 4] += 10.0          # perturb a late position
    y2, _ = layer.forward(x2)
    assert np.allclose(y1[0, :4], y2[0, :4])
    assert not np.allclose(y1[0, 4:], y2[0, 4:])


def test_transformer_block_gradients():
    rng = np.random.default_rng(4)
    block = nn.TransformerBlock(8, 2, 16, rng)
    x = rng.standard_normal((2, 4, 8))

    def run(backward):
        y, cache = block.forward(x)
        loss, dy = quadratic_loss(y)
        if backward:
            block.backward(dy, cache)
        return loss

    check_param_gradients(block, run, rng)


@pytest.mark.parametrize("name", ["tanh", "relu", "gelu"])
def test_activation_gradients(name):
    fwd, bwd = nn.get_activation(name)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(64) + 0.05   # keep relu away from the kink
    y, cache = fwd(x)
    g = bwd(np.ones_like(y), cache)
    for i in range(0, 64, 9):
        fd = central_difference(lambda: float(fwd(x)[0].sum()), x, i)
        assert grad_close(fd, g[i], rel_tol=1e-5)


def test_unknown_activation():
    with pytest.raises(ConfigurationError):
        nn.get_activation("sigmoidish")


def test_masked_cross_entropy_ignores_masked_labels():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal((2, 4, 5))
    targets = rng.integers(0, 5, size=(2, 4))
    mask = np.ones((2, 4))
    mask[0, 1] = 0.0
    loss_a, _ = nn.masked_cross_entropy(logits, targets, mask)
    targets2 = targets.copy()
    targets2[0, 1] = (targets[0, 1] + 3) % 5
    loss_b, _ = nn.masked_cross_entropy(logits, targets2, mask)
    assert loss_a == loss_b


def test_masked_cross_entropy_is_mean_of_per_example_means():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal((3, 5, 4))
    targets = rng.integers(0, 4, size=(3, 5))
    mask = (rng.random((3, 5)) > 0.4).astype(float)
    mask[:, 0] = 1.0
    batch_loss, _ = nn.masked_cross_entropy(logits, targets, mask)
    singles = [nn.masked_cross_entropy(logits[i:i + 1], targets[i:i + 1],
                                       mask[i:i + 1])[0] for i in range(3)]
    assert abs(batch_loss - np.mean(singles)) < 1e-12


def test_masked_cross_entropy_gradient():
    rng = np.random.default_rng(8)
    logits = rng.standard_normal((2, 3, 4))
    targets = rng.integers(0, 4, size=(2, 3))
    mask = np.ones((2, 3))
    _, dlogits = nn.masked_cross_entropy(logits, targets, mask)
    flat = logits.reshape(-1)
    for i in range(0, flat.size, 5):
        fd = central_difference(
            lambda: nn.masked_cross_entropy(logits, targets, mask)[0], flat, i)
        assert grad_close(fd, dlogits.reshape(-1)[i], rel_tol=1e-5)


def test_adam_reduces_quadratic():
    rng = np.random.default_rng(9)
    p = nn.Param(rng.standard_normal(10))
    target = rng.standard_normal(10)
    opt = nn.Adam({"p": p}, lr=0.05)
    first = float(((p.value - target) ** 2).sum())
    for _ in range(200):
        opt.zero_grad()
        p.grad += 2 * (p.value - target)
        opt.step()
    assert float(((p.value - target) ** 2).sum()) < 0.01 * first


def test_freeze_params_blocks_writes():
    p = nn.Param(np.zeros(3))
    grad = p.grad
    with nn.freeze_params({"p": p}):
        with pytest.raises(ValueError):
            p.value += 1.0
        assert p.grad is None    # a frozen param has no gradient
    p.value += 1.0           # writable again afterwards
    assert p.value[0] == 1.0
    assert p.grad is grad    # and its gradient is back
