"""Reward-providing discriminators.

Three ways to score how expert-like a state-action pair is:

* drail: a conditioned denoiser with a "real" and a "fake" output head
  over one trunk; the logit is the loss gap L_fake - L_real under a
  shared noise draw, so the classifier compares the pair's fit under the
  two hypotheses instead of thresholding a raw loss value.
* gail: a sigmoid MLP over the concatenated pair; the reward is the raw
  logit.
* diffail: an unconditional denoiser whose single-draw loss L is mapped to
  a probability exp(-L), which puts the decision boundary at the fixed
  value ln 2.

All losses are the binary cross-entropy with expert pairs as the positive
class, written in softplus form for numerical stability.

Each class carries what its kind decides (name, checkpoint code, update,
raw reward, one-draw probability, checkpoint trailer), so callers never
ask which kind they hold.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from . import diffusion, nn_core
from .diffusion import Denoiser, build_cosine_schedule, build_denoiser
from .nn_core import AdamState, LayerSpec, ParamStore, adam_step

# floor applied to the diffail loss before the log in its reward, plus the
# reward floor for the opposite limit
DIFFAIL_LOSS_FLOOR = 1e-7
DIFFAIL_REWARD_FLOOR = -20.0

# Discriminator files are the nn-core block plus a trailer: the class's
# kind code (u8), then kind-specific metadata (dims, schedule parameters,
# draw count, learning rate), packed little-endian.
_GAIL_META = struct.Struct("<IId")
_DIFFUSION_META = struct.Struct("<IIIIBIdId")
# the largest schedule length and draw count a checkpoint may declare: the
# schedule and its time-feature table grow with T, and the draws with the
# cells x sample_count of a reward map. Scored in nn_core._blocks of about
# nn_core._FORWARD_BLOCK draws, a 128-draw 101x121 map peaks near 101 MB
# resident, most of it the draws and their losses
MAX_SCHEDULE_STEPS = 100_000
MAX_SAMPLE_COUNT = 128


def sigmoid(x):
    """Stable logistic function (exact for any finite magnitude)."""
    return np.exp(-np.logaddexp(0.0, -np.asarray(x, dtype=np.float64)))


def softplus(x):
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


def _check_batch(batch: tuple[np.ndarray, np.ndarray], state_dim: int, action_dim: int, who: str):
    states = nn_core._as_batch(batch[0], state_dim, f"{who} states")
    actions = nn_core._as_batch(batch[1], action_dim, f"{who} actions")
    if states.shape[0] == 0:
        raise ValueError(f"empty {who} batch")
    if actions.shape[0] != states.shape[0]:
        raise ValueError(f"{who} batch has {states.shape[0]} states but {actions.shape[0]} actions")
    return states, actions


def _loss_batch(disc, expert_batch, agent_batch) -> tuple[np.ndarray, np.ndarray, int]:
    """The checked expert pairs, then the agent pairs, as one batch;
    returns (states, actions, number of expert rows)."""
    se, ae = _check_batch(expert_batch, disc.state_dim, disc.action_dim, "expert")
    sa, aa = _check_batch(agent_batch, disc.state_dim, disc.action_dim, "agent")
    return np.concatenate([se, sa]), np.concatenate([ae, aa]), se.shape[0]


def _logit_xent(z: np.ndarray, n_e: int) -> tuple[float, np.ndarray]:
    """Binary cross-entropy of logits whose first n_e rows are expert pairs:
    mean softplus(-z) on expert rows + mean softplus(z) on agent rows.
    Returns (loss, d loss / dz)."""
    n_a = z.size - n_e
    loss = float(np.mean(softplus(-z[:n_e])) + np.mean(softplus(z[n_e:])))
    dz = np.empty(n_e + n_a)
    dz[:n_e] = -sigmoid(-z[:n_e]) / n_e
    dz[n_e:] = sigmoid(z[n_e:]) / n_a
    return loss, dz


# --- the denoiser-based kinds ---------------------------------------------


@dataclass(frozen=True)
class _DenoisingDiscriminator:
    """What drail and diffail share: a denoiser, its optimizer, and
    sample_count draws averaged per evaluation."""

    denoiser: Denoiser
    optimizer: AdamState
    sample_count: int = 1

    stochastic = True

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")

    @property
    def state_dim(self) -> int:
        return self.denoiser.state_dim

    @property
    def action_dim(self) -> int:
        return self.denoiser.action_dim

    def with_sample_count(self, sample_count: int):
        return replace(self, sample_count=sample_count)

    def _losses(self, states: np.ndarray, actions: np.ndarray, rng, hs: list | None = None):
        """Mean denoiser loss of each pair under each of the denoiser's
        heads (real, then fake; a label-blind one has one), sample_count
        draws per pair, each draw shared by the heads.

        The draws run over the pairs, then a pair's sample_count draws. A
        draw's noised row walks the network once and every head reads that
        walk (see diffusion._head_predictions). Without ``hs`` the draws
        are scored in the blocks of nn_core._blocks, so the activations of
        no more than about nn_core._FORWARD_BLOCK rows coexist and each row
        is rounded as in one walk of all draws. Given a list ``hs``, all draws
        are one block whose activations are collected there.

        Returns (losses of shape (heads, n), (ts, eps), noised, preds):
        the draw, then the noised rows and the (heads, rows, data_dim)
        predictions of the last block.
        """
        n, m = states.shape[0], self.sample_count
        den = self.denoiser
        x0 = np.concatenate([states, actions], axis=1)
        ts = rng.integers(1, den.schedule.T + 1, size=n * m)
        eps = rng.standard_normal((n * m, den.data_dim))
        time_terms, lookup = diffusion._time_terms(den, ts)
        losses = np.empty((diffusion._heads(den.label_dim), n * m))
        for lo, hi in [(0, n * m)] if hs is not None else nn_core._blocks(n * m):
            noised = diffusion._noised(den.schedule, x0[np.arange(lo, hi) // m], ts[lo:hi], eps[lo:hi])
            preds = diffusion._head_predictions(den, noised, time_terms, lookup[ts[lo:hi]], hs)
            losses[:, lo:hi] = np.mean((preds - eps[lo:hi]) ** 2, axis=2)
        if not np.all(np.isfinite(losses)):
            raise ValueError("non-finite denoiser output")
        return losses.reshape(-1, n, m).mean(axis=2), (ts, eps), noised, preds

    def _gradient(self, hs: list, draw: tuple, noised: np.ndarray, preds: np.ndarray, coeffs: np.ndarray):
        """Parameter gradient of sum over h, i of coeffs[h, i] times the
        loss of draw i under head h, for a one-block _losses call that
        collected ``hs``; the activations in ``hs`` are consumed."""
        ts, eps = draw
        upstream = diffusion.loss_grad_upstream(preds, eps, coeffs)
        return diffusion._trunk_gradient(self.denoiser, hs, noised, ts,
                                         upstream.transpose(1, 0, 2).reshape(eps.shape[0], -1))

    def _adam_step(self, grad: np.ndarray):
        """The snapshot after one Adam step of the denoiser along ``grad``."""
        params, opt = adam_step(self.optimizer, self.denoiser.params, grad)
        return replace(self, denoiser=self.denoiser.with_params(params), optimizer=opt)

    def describe(self) -> str:
        return (f"state_dim={self.state_dim}, action_dim={self.action_dim}, label_dim={self.denoiser.label_dim}, "
                f"T={self.denoiser.schedule.T}, sample_count={self.sample_count}")

    def checkpoint(self) -> tuple[ParamStore, tuple[LayerSpec, ...], bytes]:
        """The net and the trailer that save_discriminator writes."""
        den = self.denoiser
        return den.params, den.specs, bytes([self.code]) + _DIFFUSION_META.pack(
            den.state_dim,
            den.action_dim,
            den.label_dim,
            den.time_embed_dim,
            0,  # the time-mode byte: sinusoidal time features, the only encoding
            den.schedule.T,
            den.schedule.s_offset,
            self.sample_count,
            self.optimizer.lr,
        )

    @classmethod
    def from_checkpoint(cls, params: ParamStore, meta: bytes):
        if len(meta) != _DIFFUSION_META.size:
            raise ValueError(f"corrupt {cls.kind} checkpoint trailer")
        s_dim, a_dim, label_dim, te_dim, tm, T, s_offset, m, lr = _DIFFUSION_META.unpack(meta)
        if tm != 0:
            raise ValueError(f"corrupt {cls.kind} checkpoint trailer: unknown time_mode code {tm}")
        for name, value, limit in (("T", T, MAX_SCHEDULE_STEPS), ("sample_count", m, MAX_SAMPLE_COUNT)):
            if value > limit:
                raise ValueError(f"corrupt {cls.kind} checkpoint trailer: {name}={value} exceeds {limit}")
        den = Denoiser(
            params=params,
            state_dim=s_dim,
            action_dim=a_dim,
            label_dim=label_dim,
            time_embed_dim=te_dim,
            schedule=build_cosine_schedule(T, s_offset),
        )
        return cls(den, AdamState.fresh(len(params), lr), m)


# --- drail ----------------------------------------------------------------


@dataclass(frozen=True)
class DrailClassifier(_DenoisingDiscriminator):
    """Conditioned denoiser + optimizer; sample_count draws are averaged
    per logit evaluation, with each draw shared by the real and fake heads."""

    kind = "drail"
    code = 2

    def update(self, expert_batch, agent_batch, rng):
        return drail_update(self, expert_batch, agent_batch, rng)

    def raw_rewards(self, states: np.ndarray, actions: np.ndarray, rng) -> tuple[np.ndarray, int]:
        return drail_logit_batch(self, states, actions, rng), 0

    def draw_probs(self, states: np.ndarray, actions: np.ndarray, rng) -> np.ndarray:
        return sigmoid(drail_logit_batch(self, states, actions, rng))


def build_drail(
    state_dim: int,
    action_dim: int,
    label_dim: int = 10,
    hidden: tuple[int, ...] = (64, 64),
    time_embed_dim: int = 16,
    T: int = 1000,
    s_offset: float = 0.008,
    lr: float = 1e-3,
    sample_count: int = 1,
    seed: int = 0,
) -> DrailClassifier:
    den = build_denoiser(state_dim, action_dim, label_dim, hidden, time_embed_dim, T, s_offset, seed)
    return DrailClassifier(den, AdamState.fresh(len(den.params), lr), sample_count)


def _loss_gap(losses: np.ndarray) -> np.ndarray:
    """L_fake - L_real from _losses' per-head losses: the last head's minus
    the first's, so a label-blind net's one head gives exactly 0."""
    return losses[-1] - losses[0]


def drail_logit_batch(clf: DrailClassifier, states: np.ndarray, actions: np.ndarray, rng) -> np.ndarray:
    """Loss gaps L_fake - L_real for a batch, one shared draw set per pair."""
    states, actions = _check_batch((states, actions), clf.state_dim, clf.action_dim, "input")
    return _loss_gap(clf._losses(states, actions, rng)[0])


def drail_logit(clf: DrailClassifier, s: np.ndarray, a: np.ndarray, rng):
    """Single-pair logit; returns (delta, (ts, eps)) so the draw can be replayed."""
    states, actions = _check_batch((s, a), clf.state_dim, clf.action_dim, "input")
    losses, draw, *_ = clf._losses(states, actions, rng)
    return float(_loss_gap(losses)[0]), draw


def drail_prob(delta: float) -> float:
    """Probability the pair is expert: logistic of the loss gap."""
    if not np.isfinite(delta):
        raise ValueError("delta must be finite")
    return float(sigmoid(delta))


def drail_reward(clf: DrailClassifier, s: np.ndarray, a: np.ndarray, rng) -> float:
    """Log-odds reward. Algebraically log D - log(1 - D) collapses back to
    the loss gap itself, so the gap is returned directly (no sigmoid/log
    round trip, no saturation)."""
    return drail_logit(clf, s, a, rng)[0]


def drail_disc_loss(
    clf: DrailClassifier,
    expert_batch: tuple[np.ndarray, np.ndarray],
    agent_batch: tuple[np.ndarray, np.ndarray],
    rng,
) -> tuple[float, np.ndarray]:
    """Binary cross-entropy over the two batches and its exact parameter
    gradient: mean softplus(-delta) on expert pairs + mean softplus(delta)
    on agent pairs."""
    states, actions, n_e = _loss_batch(clf, expert_batch, agent_batch)
    hs: list[np.ndarray] = []
    losses, draw, noised, preds = clf._losses(states, actions, rng, hs)
    loss, dd = _logit_xent(_loss_gap(losses), n_e)
    # d loss / d delta_i, spread over the per-draw rows of each head (each
    # of the M draws contributes 1/M of the sample's delta); the real head
    # carries -1, the fake head +1, and a label-blind net's one head both
    m = clf.sample_count
    per_row = np.repeat(dd / m, m)
    coeffs = np.zeros((len(losses), per_row.size))
    coeffs[0] -= per_row
    coeffs[-1] += per_row
    return loss, clf._gradient(hs, draw, noised, preds, coeffs)


def drail_update(
    clf: DrailClassifier,
    expert_batch: tuple[np.ndarray, np.ndarray],
    agent_batch: tuple[np.ndarray, np.ndarray],
    rng,
) -> tuple[DrailClassifier, float]:
    """One Adam step on the classifier loss; returns (new snapshot, loss)."""
    loss, grad = drail_disc_loss(clf, expert_batch, agent_batch, rng)
    return clf._adam_step(grad), loss


# --- gail -------------------------------------------------------------------


@dataclass(frozen=True)
class GailDiscriminator:
    """Sigmoid MLP over [state | action]; single real output."""

    params: ParamStore
    optimizer: AdamState
    state_dim: int
    action_dim: int

    kind = "gail"
    code = 0
    # a deterministic logit: one probability per point, whatever the draws
    stochastic = False

    specs = property(lambda self: self.params.specs)

    def __post_init__(self) -> None:
        if self.specs[-1].out_dim != 1:
            raise ValueError("discriminator output must be a single real")
        if self.specs[0].in_dim != self.state_dim + self.action_dim:
            raise ValueError("discriminator input width must be state_dim + action_dim")

    def update(self, expert_batch, agent_batch, rng):
        """One Adam step; gail draws nothing from rng."""
        return gail_update(self, expert_batch, agent_batch)

    def raw_rewards(self, states: np.ndarray, actions: np.ndarray, rng) -> tuple[np.ndarray, int]:
        return gail_logit_batch(self, states, actions), 0

    def draw_probs(self, states: np.ndarray, actions: np.ndarray, rng) -> np.ndarray:
        return sigmoid(gail_logit_batch(self, states, actions))

    def with_sample_count(self, sample_count: int) -> "GailDiscriminator":
        return self

    def describe(self) -> str:
        return f"state_dim={self.state_dim}, action_dim={self.action_dim}"

    def checkpoint(self) -> tuple[ParamStore, tuple[LayerSpec, ...], bytes]:
        trailer = bytes([self.code]) + _GAIL_META.pack(self.state_dim, self.action_dim, self.optimizer.lr)
        return self.params, self.specs, trailer

    @classmethod
    def from_checkpoint(cls, params: ParamStore, meta: bytes):
        if len(meta) != _GAIL_META.size:
            raise ValueError("corrupt gail checkpoint trailer")
        state_dim, action_dim, lr = _GAIL_META.unpack(meta)
        return cls(params, AdamState.fresh(len(params), lr), state_dim, action_dim)


def build_gail(
    state_dim: int,
    action_dim: int,
    hidden: tuple[int, ...] = (64, 64),
    lr: float = 1e-3,
    seed: int = 0,
) -> GailDiscriminator:
    specs = nn_core.mlp_specs((state_dim + action_dim, *hidden, 1), "tanh")
    params = nn_core.init_params(specs, seed)
    return GailDiscriminator(params, AdamState.fresh(len(params), lr), state_dim, action_dim)


def gail_logit_batch(disc: GailDiscriminator, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    states, actions = _check_batch((states, actions), disc.state_dim, disc.action_dim, "input")
    rows = np.concatenate([states, actions], axis=1)
    return nn_core.forward_batch(disc.params, disc.specs, rows)[:, 0]


def gail_prob(disc: GailDiscriminator, s: np.ndarray, a: np.ndarray) -> float:
    return float(sigmoid(gail_logit_batch(disc, s, a)[0]))


def gail_reward(disc: GailDiscriminator, s: np.ndarray, a: np.ndarray) -> float:
    """Log-odds reward: for a sigmoid head, log D - log(1 - D) is the raw logit."""
    return float(gail_logit_batch(disc, s, a)[0])


def gail_disc_loss(
    disc: GailDiscriminator,
    expert_batch: tuple[np.ndarray, np.ndarray],
    agent_batch: tuple[np.ndarray, np.ndarray],
) -> tuple[float, np.ndarray]:
    states, actions, n_e = _loss_batch(disc, expert_batch, agent_batch)
    hs: list[np.ndarray] = []
    z = nn_core.forward_batch(disc.params, disc.specs, np.concatenate([states, actions], axis=1), hs)[:, 0]
    loss, dz = _logit_xent(z, n_e)
    grad = nn_core.backward_activations(disc.params, disc.specs, hs, dz[:, None])
    return loss, grad


def gail_update(
    disc: GailDiscriminator,
    expert_batch: tuple[np.ndarray, np.ndarray],
    agent_batch: tuple[np.ndarray, np.ndarray],
) -> tuple[GailDiscriminator, float]:
    loss, grad = gail_disc_loss(disc, expert_batch, agent_batch)
    params, opt = adam_step(disc.optimizer, disc.params, grad)
    return replace(disc, params=params, optimizer=opt), loss


# --- diffail ------------------------------------------------------------------


@dataclass(frozen=True)
class DiffailDiscriminator(_DenoisingDiscriminator):
    """Unconditional denoiser; probability exp(-L), boundary at L = ln 2."""

    kind = "diffail"
    code = 1

    def __post_init__(self) -> None:
        if self.denoiser.label_dim != 0:
            raise ValueError("diffail denoiser must be unconditional (label_dim 0)")
        super().__post_init__()

    def update(self, expert_batch, agent_batch, rng):
        return diffail_update(self, expert_batch, agent_batch, rng)

    def raw_rewards(self, states: np.ndarray, actions: np.ndarray, rng) -> tuple[np.ndarray, int]:
        """Rewards and how many losses hit the floor."""
        return diffail_reward_from_loss(diffail_loss_batch(self, states, actions, rng))

    def draw_probs(self, states: np.ndarray, actions: np.ndarray, rng) -> np.ndarray:
        return np.exp(-diffail_loss_batch(self, states, actions, rng))


def build_diffail(
    state_dim: int,
    action_dim: int,
    hidden: tuple[int, ...] = (64, 64),
    time_embed_dim: int = 16,
    T: int = 1000,
    s_offset: float = 0.008,
    lr: float = 1e-3,
    sample_count: int = 1,
    seed: int = 0,
) -> DiffailDiscriminator:
    den = build_denoiser(state_dim, action_dim, 0, hidden, time_embed_dim, T, s_offset, seed)
    return DiffailDiscriminator(den, AdamState.fresh(len(den.params), lr), sample_count)


def diffail_loss_batch(disc: DiffailDiscriminator, states: np.ndarray, actions: np.ndarray, rng) -> np.ndarray:
    states, actions = _check_batch((states, actions), disc.state_dim, disc.action_dim, "input")
    return disc._losses(states, actions, rng)[0][0]


def diffail_prob(disc: DiffailDiscriminator, s: np.ndarray, a: np.ndarray, rng) -> tuple[float, float]:
    """Returns (probability, L). Probability is exp(-L), in (0, 1]."""
    L = float(diffail_loss_batch(disc, s, a, rng)[0])
    return float(np.exp(-L)), L


def diffail_reward_from_loss(L: np.ndarray) -> tuple[np.ndarray, int]:
    """Log-odds reward -L - log(1 - exp(-L)) with the documented guards.

    L is floored at DIFFAIL_LOSS_FLOOR (else the reward diverges to +inf);
    the opposite limit is floored at DIFFAIL_REWARD_FLOOR. Returns the
    rewards and how many entries hit the loss floor (saturation count).
    """
    L = np.asarray(L, dtype=np.float64)
    saturated = int(np.sum(L < DIFFAIL_LOSS_FLOOR))
    Lc = np.maximum(L, DIFFAIL_LOSS_FLOOR)
    r = -Lc - np.log(-np.expm1(-Lc))
    return np.maximum(r, DIFFAIL_REWARD_FLOOR), saturated


def diffail_reward(disc: DiffailDiscriminator, s: np.ndarray, a: np.ndarray, rng) -> float:
    return float(diffail_reward_from_loss(diffail_loss_batch(disc, s, a, rng))[0][0])


def diffail_disc_loss(
    disc: DiffailDiscriminator,
    expert_batch: tuple[np.ndarray, np.ndarray],
    agent_batch: tuple[np.ndarray, np.ndarray],
    rng,
) -> tuple[float, np.ndarray]:
    """Cross-entropy on D = exp(-L): expert term is L itself, agent term is
    -log(1 - exp(-L)) with the loss floor applied."""
    states, actions, n_e = _loss_batch(disc, expert_batch, agent_batch)
    n_a = states.shape[0] - n_e
    hs: list[np.ndarray] = []
    (L,), draw, noised, preds = disc._losses(states, actions, rng, hs)
    La = np.maximum(L[n_e:], DIFFAIL_LOSS_FLOOR)
    loss = float(np.mean(L[:n_e]) - np.mean(np.log(-np.expm1(-La))))
    dL = np.empty(n_e + n_a)
    dL[:n_e] = 1.0 / n_e
    # d/dL of -log(1 - exp(-L)) is -1/(exp(L) - 1), -0.0 once exp(L)
    # overflows (L above about 709.8)
    with np.errstate(over="ignore"):
        dL[n_e:] = -1.0 / np.expm1(La) / n_a
    coeffs = np.repeat(dL / disc.sample_count, disc.sample_count)
    return loss, disc._gradient(hs, draw, noised, preds, coeffs[None, :])


def diffail_update(
    disc: DiffailDiscriminator,
    expert_batch: tuple[np.ndarray, np.ndarray],
    agent_batch: tuple[np.ndarray, np.ndarray],
    rng,
) -> tuple[DiffailDiscriminator, float]:
    loss, grad = diffail_disc_loss(disc, expert_batch, agent_batch, rng)
    return disc._adam_step(grad), loss


# --- kind-blind entry points ----------------------------------------------


def discriminator_probs(disc, points: np.ndarray, rng, samples_per_point: int = 1) -> np.ndarray:
    """Mean expert-probability per (state | action) row over samples_per_point
    probabilities, each made from disc.sample_count draws (gail: one, no draws)."""
    points = np.asarray(points, dtype=np.float64)
    states = points[:, : disc.state_dim]
    actions = points[:, disc.state_dim :]
    draws = samples_per_point if disc.stochastic else 1
    acc = np.zeros(points.shape[0])
    for _ in range(draws):
        acc += disc.draw_probs(states, actions, rng)
    return acc / draws


def reward_for(disc, states: np.ndarray, actions: np.ndarray, rng) -> tuple[np.ndarray, int]:
    """Method-specific raw rewards plus a saturation count (diffail only)."""
    return disc.raw_rewards(states, actions, rng)


def save_discriminator(path: str, disc) -> None:
    nn_core.save_params(path, *disc.checkpoint())


_BY_CODE = {cls.code: cls for cls in (GailDiscriminator, DiffailDiscriminator, DrailClassifier)}


def load_discriminator(path: str):
    params, _, trailer = nn_core.load_params(path)
    if not trailer:
        raise ValueError("not a discriminator checkpoint: missing kind tag")
    cls = _BY_CODE.get(trailer[0])
    if cls is None:
        raise ValueError(f"unknown discriminator kind {trailer[0]}")
    return cls.from_checkpoint(params, trailer[1:])
