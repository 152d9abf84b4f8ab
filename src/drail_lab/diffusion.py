"""Denoising-diffusion machinery for state-action pairs.

A cosine noise schedule corrupts a concatenated (state, action) vector, and
a small MLP predicts the injected noise given the corrupted vector and a
time feature. A conditioned denoiser ends in one output head per condition
label ("real", then "fake"), and the label picks the head; a label-blind
one has a single head. The squared prediction error for a single random
(t, eps) draw is the training loss; discriminators build classifiers out
of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import nn_core
from .nn_core import ParamStore

# frequency span of the sinusoidal time features
_MAX_FREQ = 1000.0

# rows of folded time terms added to the first layer's pre-activation at
# a time (128 KB of gathered terms at width 64)
_TIME_CHUNK = 256


@dataclass(frozen=True)
class NoiseSchedule:
    """Precomputed cumulative signal levels alpha_bar[0..T]."""

    T: int
    alpha_bar: np.ndarray
    s_offset: float

    def __post_init__(self) -> None:
        ab = np.asarray(self.alpha_bar, dtype=np.float64)
        ab.flags.writeable = False
        object.__setattr__(self, "alpha_bar", ab)
        if ab.shape != (self.T + 1,):
            raise ValueError(f"alpha_bar must have length T+1={self.T + 1}, got {ab.shape}")
        if ab[0] != 1.0:
            raise ValueError("alpha_bar[0] must be exactly 1")
        if np.any(np.diff(ab) >= 0.0):
            raise ValueError("alpha_bar must be strictly decreasing")
        if ab[-1] <= 0.0 or np.any(ab > 1.0):
            raise ValueError("alpha_bar entries must lie in (0, 1]")


def build_cosine_schedule(T: int, s_offset: float = 0.008) -> NoiseSchedule:
    """Cosine schedule: squared-cosine falloff with per-step caps at 0.999."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if not 0.0 < s_offset < 1.0:
        raise ValueError("s_offset must lie in (0, 1)")
    t = np.arange(T + 1, dtype=np.float64)
    f = np.cos(((t / T + s_offset) / (1.0 + s_offset)) * (math.pi / 2.0)) ** 2
    raw = f / f[0]
    beta = np.minimum(1.0 - raw[1:] / raw[:-1], 0.999)
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - beta)])
    return NoiseSchedule(T=T, alpha_bar=alpha_bar, s_offset=s_offset)


def noising(x0: np.ndarray, t: int, eps: np.ndarray, schedule: NoiseSchedule) -> np.ndarray:
    """Corrupt x0 to level t: sqrt(ab_t) * x0 + sqrt(1 - ab_t) * eps.

    t=0 is allowed (returns x0 exactly); tests use that edge.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != x0.shape:
        raise ValueError(f"eps shape {eps.shape} != x0 shape {x0.shape}")
    if not 0 <= t <= schedule.T:
        raise ValueError(f"t={t} outside [0, {schedule.T}]")
    return _noised(schedule, x0[None], np.asarray([t]), eps[None])[0]


def time_embedding(t: int, T: int, dim: int) -> np.ndarray:
    """Sinusoidal features of t/T at dim/2 geometric frequencies."""
    if dim < 2 or dim % 2 != 0:
        raise ValueError("time embedding dim must be even and >= 2")
    return _time_embedding_batch(np.asarray([t], dtype=np.float64), T, dim)[0]


def _time_embedding_batch(ts: np.ndarray, T: int, dim: int) -> np.ndarray:
    half = dim // 2
    if half == 1:
        freqs = np.ones(1)
    else:
        freqs = _MAX_FREQ ** (np.arange(half) / (half - 1))
    angles = (ts / T)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


@functools.lru_cache(maxsize=16)
def _time_table(T: int, dim: int) -> np.ndarray:
    """Read-only sinusoidal features of every timestep 0..T, one row each;
    a row equals _time_embedding_batch's row for that t bit for bit."""
    table = _time_embedding_batch(np.arange(T + 1, dtype=np.float64), T, dim)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class ConditionLabel:
    """Binary condition label, real=all ones, fake=all zeros; it picks the
    denoiser's output head."""

    kind: str
    embedding: np.ndarray

    def __post_init__(self) -> None:
        emb = np.asarray(self.embedding, dtype=np.float64)
        emb.flags.writeable = False
        object.__setattr__(self, "embedding", emb)
        if self.kind not in ("real", "fake"):
            raise ValueError(f"label kind must be real or fake, got {self.kind!r}")
        want = 1.0 if self.kind == "real" else 0.0
        if emb.size and not np.all(emb == want):
            raise ValueError(f"{self.kind} label must be all {want:g}")


def real_label(label_dim: int) -> ConditionLabel:
    return ConditionLabel("real", np.ones(label_dim))


def fake_label(label_dim: int) -> ConditionLabel:
    return ConditionLabel("fake", np.zeros(label_dim))


def _check_timesteps(ts: np.ndarray, T: int) -> None:
    # a table gather would wrap a negative t silently
    if ts.size and not (0 <= ts.min() and ts.max() <= T):
        raise ValueError(f"timestep outside [0, {T}]")


@dataclass(frozen=True)
class Denoiser:
    """Noise-prediction MLP over [noised (state, action) | time features]:
    with label_dim > 0 its output holds a real and a fake head, each
    data_dim wide; with label_dim 0, one head."""

    params: ParamStore
    state_dim: int
    action_dim: int
    label_dim: int
    time_embed_dim: int
    schedule: NoiseSchedule

    def __post_init__(self) -> None:
        for name in ("label_dim", "time_embed_dim"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.time_embed_dim % 2 != 0:
            raise ValueError("sinusoidal time embedding dim must be even")
        want_in = self.data_dim + self.time_embed_dim
        if self.specs[0].in_dim != want_in:
            raise ValueError(f"denoiser input width {self.specs[0].in_dim} != {want_in}")
        if self.specs[-1].out_dim != _heads(self.label_dim) * self.data_dim:
            raise ValueError("denoiser output width must be one state_dim + action_dim head per label")

    specs = property(lambda self: self.params.specs)

    @property
    def data_dim(self) -> int:
        return self.state_dim + self.action_dim

    def with_params(self, params: ParamStore) -> "Denoiser":
        return replace(self, params=params)

    def time_features(self, ts: np.ndarray) -> np.ndarray:
        """Feature rows of integer timesteps ts, each in [0, T]."""
        ts = np.asarray(ts)
        _check_timesteps(ts, self.schedule.T)
        return _time_table(self.schedule.T, self.time_embed_dim)[ts]


def build_denoiser(
    state_dim: int,
    action_dim: int,
    label_dim: int,
    hidden: tuple[int, ...] = (64, 64),
    time_embed_dim: int = 16,
    T: int = 1000,
    s_offset: float = 0.008,
    seed: int = 0,
) -> Denoiser:
    """Denoiser with relu hidden layers and an identity output layer."""
    d = state_dim + action_dim
    specs = nn_core.mlp_specs((d + time_embed_dim, *hidden, _heads(label_dim) * d), "relu")
    return Denoiser(
        params=nn_core.init_params(specs, seed),
        state_dim=state_dim,
        action_dim=action_dim,
        label_dim=label_dim,
        time_embed_dim=time_embed_dim,
        schedule=build_cosine_schedule(T, s_offset),
    )


def _heads(label_dim: int) -> int:
    """Output heads of a denoiser: real and fake when it is conditioned."""
    return 2 if label_dim else 1


def _noised(schedule: NoiseSchedule, x0_rows: np.ndarray, ts: np.ndarray, eps_rows: np.ndarray) -> np.ndarray:
    """Rows corrupted to their levels: sqrt(ab_t) * x0 + sqrt(1 - ab_t) * eps."""
    ab = schedule.alpha_bar[ts]
    return np.sqrt(ab)[:, None] * x0_rows + np.sqrt(1.0 - ab)[:, None] * eps_rows


def _time_terms(model: Denoiser, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first layer's time and bias terms, folded once per distinct
    timestep of a call: returns (P, lookup), where row P[lookup[t]] is
    features(t) @ W_t.T + b for each timestep t in ts. P has one row per
    distinct timestep, so it is no longer than the call's draws however
    long the schedule is; lookup has T + 1 entries."""
    T = model.schedule.T
    _check_timesteps(ts, T)
    present = np.zeros(T + 1, dtype=bool)
    present[ts] = True
    distinct = np.flatnonzero(present)
    lookup = np.empty(T + 1, dtype=np.intp)
    lookup[distinct] = np.arange(distinct.size)
    weights = model.params.weights(0)
    terms = _time_table(T, model.time_embed_dim)[distinct] @ weights[:, model.data_dim :].T
    terms += model.params.bias(0)
    return terms, lookup


def _head_predictions(model: Denoiser, noised: np.ndarray, terms: np.ndarray, term_rows: np.ndarray,
                      hs: list | None = None) -> np.ndarray:
    """The network's noise predictions for the noised data rows ``noised``
    under each of its heads; returns (heads, rows, data_dim), a view of the
    walk's (rows, heads * data_dim) output.

    The first layer's pre-activation noised @ W_x.T + terms[term_rows] is
    computed once per row (``terms`` holds the folded time and bias terms
    of each distinct timestep, ``term_rows`` each row's index into it, see
    _time_terms), the terms added _TIME_CHUNK rows at a time so that no
    rows x width gather is made; each row walks the layers above once.
    Given a list ``hs``, that walk's activations [h_1, ..., out] are
    collected there for _trunk_gradient."""
    layers = nn_core._layers(model.params.values, model.specs)
    weights, _, activation, _ = layers[0]
    d = model.data_dim
    z = noised @ weights[:, :d].T
    for lo in range(0, z.shape[0], _TIME_CHUNK):
        z[lo : lo + _TIME_CHUNK] += terms[term_rows[lo : lo + _TIME_CHUNK]]
    out = nn_core._forward(layers[1:], nn_core._activate(z, activation), hs)
    return out.reshape(noised.shape[0], -1, d).transpose(1, 0, 2)


def _trunk_gradient(model: Denoiser, hs: list, noised: np.ndarray, ts: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Exact gradient, with respect to the flat parameters, of
    sum(upstream * outputs) over the (rows, heads * data_dim) outputs of
    the _head_predictions walk whose activations are ``hs``; the walk's
    activations are consumed (see nn_core._backward).

    Layers 1 and up go through nn_core._backward, which also carries the
    gradient through the first layer's activation. The first layer's
    gradient comes from G, the gradient of its pre-activation: G.T @ noised
    for the data columns, G.T @ features(ts) for the time columns and
    colsum(G) for the bias."""
    layers = nn_core._layers(model.params.values, model.specs)
    weights, _, activation, offset = layers[0]
    width, n_in = weights.shape
    d = model.data_dim
    grad = np.empty(len(model.params))
    g = nn_core._backward(layers[1:], hs, upstream, grad, activation, consume=True)
    d_weights = grad[offset : offset + width * n_in].reshape(width, n_in)
    d_weights[:, :d] = g.T @ noised
    # ts passed the _time_terms check of the walk that collected hs
    d_weights[:, d:] = g.T @ _time_table(model.schedule.T, model.time_embed_dim)[ts]
    np.sum(g, axis=0, out=grad[offset + width * n_in : offset + width * (n_in + 1)])
    return grad


def _row_predictions(model: Denoiser, noised: np.ndarray, ts: np.ndarray, label_rows: np.ndarray) -> np.ndarray:
    """Noise predictions for noised rows, each with its own timestep and
    label row; a label row is a real (all ones) or fake (all zeros) label's
    embedding and picks that label's head."""
    n = noised.shape[0]
    if label_rows.shape != (n, model.label_dim):
        raise ValueError(f"label rows must have shape ({n}, {model.label_dim}), got {label_rows.shape}")
    if not np.isfinite(noised).all():
        raise ValueError("non-finite denoiser inputs")
    real, fake = np.all(label_rows == 1.0, axis=1), np.all(label_rows == 0.0, axis=1)
    if not np.all(real | fake):
        raise ValueError("each label row must be all ones (real) or all zeros (fake)")
    terms, lookup = _time_terms(model, ts)
    # a label-blind denoiser's one head serves both labels
    head = (fake & (model.label_dim > 0)).astype(np.intp)
    return _head_predictions(model, noised, terms, lookup[ts])[head, np.arange(n)]


def batched_inputs(
    model: Denoiser,
    x0_rows: np.ndarray,
    ts: np.ndarray,
    eps_rows: np.ndarray,
) -> np.ndarray:
    """Assemble the explicit network input rows [noised(x0) | time
    features], the rows whose first-layer product the fold stands for."""
    ts = np.asarray(ts)
    features = model.time_features(ts)
    noised = _noised(model.schedule, np.asarray(x0_rows, dtype=np.float64), ts, np.asarray(eps_rows, dtype=np.float64))
    return np.concatenate([noised, features], axis=1)


def batched_losses(
    model: Denoiser,
    x0_rows: np.ndarray,
    ts: np.ndarray,
    eps_rows: np.ndarray,
    label_rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row single-draw losses; returns (losses, inputs, predictions).

    Loss is the mean over coordinates of the squared noise-prediction
    error, so its scale does not grow with the data dimension. The network
    runs the first-layer fold of _head_predictions; each label row is a
    ConditionLabel's embedding and picks its head, whose predictions are
    returned. ``inputs`` are the explicit rows the fold stands for
    (batched_inputs), for nn_core.backward_batch.
    """
    eps_rows = np.asarray(eps_rows, dtype=np.float64)
    label_rows = np.asarray(label_rows, dtype=np.float64)
    inputs = batched_inputs(model, x0_rows, ts, eps_rows)
    preds = _row_predictions(model, inputs[:, : model.data_dim], np.asarray(ts), label_rows)
    losses = np.mean((preds - eps_rows) ** 2, axis=1)
    return losses, inputs, preds


def loss_grad_upstream(preds: np.ndarray, eps_rows: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Upstream rows for backward_batch when the scalar objective is
    sum_i coeffs[i] * loss_i with loss_i = mean((pred_i - eps_i)^2). The
    leading axes of preds and coeffs may also be (heads, rows), with
    eps_rows shared by the heads."""
    d = preds.shape[-1]
    return coeffs[..., None] * (2.0 / d) * (preds - eps_rows)


def predict_noise(
    model: Denoiser,
    s: np.ndarray,
    a: np.ndarray,
    x_t: np.ndarray,
    t: int,
    label: ConditionLabel,
) -> np.ndarray:
    """Noise prediction for one corrupted (state, action) vector."""
    x_t = np.asarray(x_t, dtype=np.float64)
    if np.shape(s) != (model.state_dim,) or np.shape(a) != (model.action_dim,):
        raise ValueError("state/action dims do not match the model")
    if x_t.shape != (model.data_dim,):
        raise ValueError(f"x_t must have length {model.data_dim}")
    return _row_predictions(model, x_t[None, :], np.asarray([t]), label.embedding[None, :])[0]


def diffusion_loss_single(
    model: Denoiser,
    s: np.ndarray,
    a: np.ndarray,
    label: ConditionLabel,
    t: int,
    eps: np.ndarray,
) -> float:
    """Single-draw loss: mean squared error between predicted and injected noise."""
    if not 1 <= t <= model.schedule.T:
        raise ValueError(f"t={t} outside [1, {model.schedule.T}]")
    x0 = np.concatenate([np.asarray(s, dtype=np.float64), np.asarray(a, dtype=np.float64)])
    return float(batched_losses(model, x0[None, :], np.asarray([t]), np.asarray(eps)[None, :],
                                label.embedding[None, :])[0][0])
