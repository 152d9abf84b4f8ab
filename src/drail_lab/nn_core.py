"""Dense-network substrate shared by every model in the lab.

Parameters live in one flat float64 vector laid out by the net's layer
specs, so optimizers, checkpoints, and gradient checks all see the same layout.
Gradients are exact reverse-mode (no autograd framework, no approximation).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .fileio import atomic_write

ACTIVATIONS = ("tanh", "relu", "identity")

_ACT_CODE = {name: code for code, name in enumerate(ACTIVATIONS)}
_ACT_NAME = {code: name for name, code in _ACT_CODE.items()}

# rows per block of a large forward-only walk, give or take 63 (see
# _blocks): 1 MB per activation at width 64, so a block stays in L2
_FORWARD_BLOCK = 2048

CHECKPOINT_MAGIC = b"DRLP"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class LayerSpec:
    """One affine layer: out = act(W @ x + b)."""

    in_dim: int
    out_dim: int
    activation: str = "tanh"

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError(f"layer dims must be >= 1, got {self.in_dim}x{self.out_dim}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def size(self) -> int:
        # weights (out x in) plus bias (out)
        return self.out_dim * (self.in_dim + 1)


@dataclass(frozen=True)
class ParamStore:
    """Immutable flat parameter vector laid out by its layers ``specs``:
    each layer's weights (out x in, row-major), then its bias.

    ``values`` is marked read-only; use :meth:`with_values` to produce an
    updated snapshot.
    """

    values: np.ndarray
    specs: tuple[LayerSpec, ...]

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        specs = tuple(self.specs)
        object.__setattr__(self, "specs", specs)
        total = sum(spec.size for spec in specs)
        if v.ndim != 1 or v.size != total:
            raise ValueError(f"parameter vector length {v.size} != layer total {total}")
        if not np.all(np.isfinite(v)):
            raise ValueError("parameter vector contains non-finite entries")
        if not specs:
            raise ValueError("at least one layer required")
        for a, b in zip(specs, specs[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(f"chain mismatch: {a.out_dim} -> {b.in_dim}")

    def __len__(self) -> int:
        return self.values.size

    def weights(self, k: int) -> np.ndarray:
        return _layers(self.values, self.specs)[k][0]

    def bias(self, k: int) -> np.ndarray:
        return _layers(self.values, self.specs)[k][1]

    def with_values(self, values: np.ndarray) -> "ParamStore":
        return replace(self, values=np.array(values, dtype=np.float64))


def mlp_specs(dims: tuple[int, ...], hidden_act: str) -> tuple[LayerSpec, ...]:
    """Layers of widths dims[0] -> ... -> dims[-1]: ``hidden_act`` on every
    hidden layer, identity on the output layer."""
    return tuple(
        LayerSpec(a, b, hidden_act if k < len(dims) - 2 else "identity")
        for k, (a, b) in enumerate(zip(dims, dims[1:]))
    )


def init_params(specs: list[LayerSpec] | tuple[LayerSpec, ...], seed: int) -> ParamStore:
    """Seeded init: weights uniform in +-sqrt(6/(in+out)), biases zero."""
    rng = np.random.default_rng(seed)
    values = np.zeros(sum(spec.size for spec in specs))
    for weights, *_ in _layers(values, specs):
        bound = math.sqrt(6.0 / sum(weights.shape))
        weights[...] = rng.uniform(-bound, bound, size=weights.shape)
    return ParamStore(values, specs)


def _as_batch(x: np.ndarray, width: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != width:
        raise ValueError(f"{what} must have width {width}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} contains non-finite entries")
    return x


# The unchecked core below is shared by the checked public functions and
# by the package's hot loops (rollout, evaluation, PPO), which validate
# their inputs once per call instead of once per row or minibatch.


def _layers(values: np.ndarray, specs: tuple[LayerSpec, ...]) -> tuple:
    """Per layer (weights, bias, activation, offset), the arrays being
    views into the flat vector ``values`` laid out by ``specs`` as a
    ParamStore's is."""
    out = []
    offset = 0
    for spec in specs:
        n_w = spec.out_dim * spec.in_dim
        weights = values[offset : offset + n_w].reshape(spec.out_dim, spec.in_dim)
        out.append((weights, values[offset + n_w : offset + spec.size], spec.activation, offset))
        offset += spec.size
    return tuple(out)


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    """The activation applied in place on the pre-activation rows ``z``."""
    if activation == "tanh":
        np.tanh(z, out=z)
    elif activation == "relu":
        np.maximum(z, 0.0, out=z)
    return z


def _activation_backward(g: np.ndarray, h: np.ndarray, activation: str) -> np.ndarray:
    """``g`` times the activation's derivative, taken from its output ``h``
    (identity's is 1). Neither ``g`` nor ``h`` is written."""
    if activation == "tanh":
        d = h * h
        np.subtract(1.0, d, out=d)
        return np.multiply(g, d, out=d)
    if activation == "relu":
        return g * (h > 0.0)
    return g


def _input_gradient(g: np.ndarray, weights: np.ndarray, h: np.ndarray, activation: str, consume: bool) -> np.ndarray:
    """_activation_backward(g @ weights, h, activation): the gradient of a
    layer's output ``g`` carried back through its weights to its input
    ``h`` and through the activation whose output ``h`` is. Given
    ``consume``, the result is written into the buffer of ``h`` once its
    derivative terms are taken; otherwise ``h`` is not written."""
    out = h if consume else None
    if activation == "tanh":
        d = np.multiply(h, h, out=out)
        np.subtract(1.0, d, out=d)
        return np.multiply(g @ weights, d, out=d)
    if activation == "relu":
        mask = h > 0.0
        x = np.matmul(g, weights, out=out)
        return np.multiply(x, mask, out=x)
    return np.matmul(g, weights, out=out)


def _forward(layers: tuple, x: np.ndarray, hs: list | None = None) -> np.ndarray:
    """Unchecked layer walk over a (n, in_dim) batch; returns the output.
    Given a list ``hs``, it also collects [x, h_1, ..., h_out] there, the
    activations _backward takes; otherwise no intermediate outlives its layer."""
    if hs is not None:
        hs.append(x)
    for weights, bias, activation, _ in layers:
        # one fresh array per layer: affine map, bias and activation in place
        x = x @ weights.T
        x += bias
        _activate(x, activation)
        if hs is not None:
            hs.append(x)
    return x


def _backward(
    layers: tuple,
    hs: list[np.ndarray],
    g: np.ndarray,
    grad: np.ndarray,
    input_activation: str | None = None,
    consume: bool = False,
) -> np.ndarray | None:
    """Reverse pass over the activations ``hs`` of a forward walk; ``g`` is
    the (n, out_dim) upstream gradient and is not written. Writes every
    entry of ``grad``, the flat gradient (or a slice of a longer buffer),
    at the layers' offsets.

    Given ``input_activation``, the activation whose output the walk's
    input hs[0] is, returns the gradient with respect to that
    activation's input; otherwise None. Given ``consume``, each layer's
    input gradient is written into the buffer of that layer's input once
    its weight gradient and its derivative terms are taken, so the pass
    keeps no activation-sized array of its own beside ``hs``, and hs[1:-1]
    (and hs[0], given ``input_activation`` and a layer) end holding
    gradients; otherwise ``hs`` is not written."""
    top = len(layers) - 1
    if top < 0:
        return None if input_activation is None else _activation_backward(g, hs[0], input_activation)
    g = _activation_backward(g, hs[-1], layers[top][2])
    for k in range(top, -1, -1):
        weights, _, _, offset = layers[k]
        n_out, n_in = weights.shape
        n_w = n_out * n_in
        np.matmul(g.T, hs[k], out=grad[offset : offset + n_w].reshape(n_out, n_in))
        np.sum(g, axis=0, out=grad[offset + n_w : offset + n_w + n_out])
        below = layers[k - 1][2] if k > 0 else input_activation
        if below is not None:
            g = _input_gradient(g, weights, hs[k], below, consume)
    return None if input_activation is None else g


def _blocks(n: int) -> list[tuple[int, int]]:
    """The (lo, hi) row ranges of a forward-only walk over n rows in
    ceil(n / _FORWARD_BLOCK) blocks of near-equal size, so that no block
    is a small remainder, each inner bound rounded down to a multiple of
    64 rows. Every block but the last then holds whole 64-row groups and
    the last ends where the batch does, so each row keeps its place in
    its group: BLAS rounds a row alike in a call of about 1,000 rows or
    more only there (an unaligned even split changed 3 of 12,221 rows of
    a one-wide output by 1 ulp, each the last row of its block)."""
    count = -(-n // _FORWARD_BLOCK)
    bounds = [n * b // count // 64 * 64 for b in range(count)] + [n]
    return list(zip(bounds, bounds[1:]))


def forward_batch(
    params: ParamStore, specs: tuple[LayerSpec, ...], inputs: np.ndarray, hs: list | None = None
) -> np.ndarray:
    """Evaluate the network on a (n, in_dim) batch; returns (n, out_dim).

    Given a list ``hs``, the walk also collects its activations there for
    :func:`backward_activations`. Without it, batches of more than
    _FORWARD_BLOCK rows are walked a block at a time, so the hidden
    activations of a large batch never coexist (see _blocks)."""
    x = _as_batch(inputs, specs[0].in_dim, "input")
    layers = _layers(params.values, specs)
    n = x.shape[0]
    if hs is not None or n <= _FORWARD_BLOCK:
        return _forward(layers, x, hs)
    out = np.empty((n, specs[-1].out_dim))
    for lo, hi in _blocks(n):
        out[lo:hi] = _forward(layers, x[lo:hi])
    return out


def forward(params: ParamStore, specs: tuple[LayerSpec, ...], x: np.ndarray) -> np.ndarray:
    """Single-vector forward pass."""
    return forward_batch(params, specs, np.asarray(x)[None, :])[0]


def backward_activations(
    params: ParamStore,
    specs: tuple[LayerSpec, ...],
    hs: list[np.ndarray],
    upstream: np.ndarray,
) -> np.ndarray:
    """:func:`backward_batch` on the activations ``hs`` that a
    ``forward_batch(params, specs, inputs, hs)`` call collected, so the
    forward is not walked a second time."""
    g = _as_batch(upstream, specs[-1].out_dim, "upstream")
    if g.shape[0] != hs[0].shape[0]:
        raise ValueError(f"upstream rows {g.shape[0]} != input rows {hs[0].shape[0]}")
    grad = np.empty(len(params))
    _backward(_layers(params.values, specs), hs, g, grad)
    return grad


def backward_batch(
    params: ParamStore,
    specs: tuple[LayerSpec, ...],
    inputs: np.ndarray,
    upstream: np.ndarray,
) -> np.ndarray:
    """Gradient of sum_i upstream_i . output_i w.r.t. the flat parameters.

    ``upstream`` has shape (n, out_dim). Exact reverse mode; matches central
    finite differences to f64 roundoff on these layer types.
    """
    hs: list[np.ndarray] = []
    forward_batch(params, specs, inputs, hs)
    return backward_activations(params, specs, hs, upstream)


def backward(
    params: ParamStore,
    specs: tuple[LayerSpec, ...],
    x: np.ndarray,
    upstream: np.ndarray,
) -> np.ndarray:
    """Single-vector form of :func:`backward_batch` (gradient of upstream . output)."""
    return backward_batch(params, specs, np.asarray(x)[None, :], np.asarray(upstream)[None, :])


_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8  # Adam's defaults (Kingma & Ba 2015)


@dataclass(frozen=True)
class AdamState:
    """Adam moments for one ParamStore; immutable like the store itself."""

    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float

    @classmethod
    def fresh(cls, n: int, lr: float) -> "AdamState":
        if lr < 0:
            raise ValueError("learning rate must be >= 0")
        return cls(m=np.zeros(n), v=np.zeros(n), step=0, lr=lr)


def _adam_apply(
    state: AdamState, step: int, values: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray, lr_scale: float
) -> None:
    """Unchecked bias-corrected Adam step number ``step`` with the
    learning rate of ``state``, in place on the flat vector ``values``
    and the moments ``m`` and ``v``, through two scratch arrays. The
    operations and their order are those of the textbook expression
    values -= lr * m_hat / (sqrt(v_hat) + epsilon)."""
    a = np.multiply(g, 1.0 - _BETA1)
    m *= _BETA1
    m += a
    np.multiply(g, 1.0 - _BETA2, out=a)
    a *= g
    v *= _BETA2
    v += a
    np.divide(m, 1.0 - _BETA1**step, out=a)
    a *= state.lr * lr_scale
    b = np.divide(v, 1.0 - _BETA2**step)
    np.sqrt(b, out=b)
    b += _EPSILON
    a /= b
    values -= a


def adam_step(
    state: AdamState,
    params: ParamStore,
    grads: np.ndarray,
    lr_scale: float = 1.0,
) -> tuple[ParamStore, AdamState]:
    """One bias-corrected Adam update; returns fresh (params, state) copies.

    ``lr_scale`` multiplies the stored learning rate for this step only
    (used for the policy's linear decay schedule).
    """
    g = np.asarray(grads, dtype=np.float64)
    if g.shape != (len(params),):
        raise ValueError(f"gradient length {g.shape} != parameter length {len(params)}")
    bad = np.flatnonzero(~np.isfinite(g))
    if bad.size:
        raise ValueError(f"non-finite gradient at index {bad[0]}")
    new_values, m, v = params.values.copy(), state.m.copy(), state.v.copy()
    step = state.step + 1
    _adam_apply(state, step, new_values, m, v, g, lr_scale)
    # the store takes the fresh array without a copy
    return replace(params, values=new_values), replace(state, m=m, v=v, step=step)


# --- checkpoint format -------------------------------------------------
#
# Core block: magic "DRLP", version u32 LE, n_layers u32 LE, per layer
# (name_len u32, name UTF-8, in_dim u32, out_dim u32, activation u8),
# then the raw f64 LE parameter values. Callers may append trailer bytes
# (policy log_std, discriminator kind tag + metadata).


def params_to_bytes(params: ParamStore, specs: tuple[LayerSpec, ...]) -> bytes:
    out = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(specs))]
    for k, spec in enumerate(specs):
        name = f"layer{k}".encode("utf-8")
        out.append(struct.pack("<I", len(name)))
        out.append(name)
        out.append(struct.pack("<IIB", spec.in_dim, spec.out_dim, _ACT_CODE[spec.activation]))
    out.append(params.values.astype("<f8").tobytes())
    return b"".join(out)


def params_from_bytes(buf: bytes) -> tuple[ParamStore, tuple[LayerSpec, ...], bytes]:
    """Parse a core block; returns (params, specs, trailing bytes)."""

    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if len(buf) - pos < n:
            raise ValueError(f"truncated checkpoint: expected {n} more bytes for {what}, got {len(buf) - pos}")
        pos += n
        return buf[pos - n : pos]

    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise ValueError("bad magic: not a DRLP checkpoint")
    version, n_layers = struct.unpack("<II", take(8, "header"))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    specs = []
    for _ in range(n_layers):
        (name_len,) = struct.unpack("<I", take(4, "layer name length"))
        # a name must be UTF-8 but is not kept: writers name layer k "layer{k}"
        take(name_len, "layer name").decode("utf-8")
        in_dim, out_dim, act = struct.unpack("<IIB", take(9, "layer dims"))
        if act not in _ACT_NAME:
            raise ValueError(f"unknown activation code {act}")
        specs.append(LayerSpec(in_dim, out_dim, _ACT_NAME[act]))
    raw = take(sum(spec.size for spec in specs) * 8, "parameter values")
    params = ParamStore(np.frombuffer(raw, dtype="<f8").astype(np.float64), specs)
    return params, params.specs, buf[pos:]


def save_params(path: str, params: ParamStore, specs: tuple[LayerSpec, ...], trailer: bytes = b"") -> None:
    atomic_write(path, params_to_bytes(params, specs) + trailer)


def load_params(path: str) -> tuple[ParamStore, tuple[LayerSpec, ...], bytes]:
    with open(path, "rb") as fh:
        return params_from_bytes(fh.read())
