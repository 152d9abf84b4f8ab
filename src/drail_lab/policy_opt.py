"""Gaussian MLP policy, value critic, advantage estimation, and the
clipped-surrogate policy update.

The policy is a diagonal Gaussian with a state-independent learnable
log-std vector. Updates are plain Adam on exact, hand-derived gradients:
the clipped surrogate passes gradient only through samples whose
unclipped branch is active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import nn_core
from .errors import NumericalAbort
from .nn_core import AdamState, LayerSpec, ParamStore

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
MAX_GRAD_NORM = 0.5
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianPolicy:
    """Mean network plus a per-dimension log-std vector."""

    mean_params: ParamStore
    specs: tuple[LayerSpec, ...]
    log_std: np.ndarray

    def __post_init__(self) -> None:
        ls = np.asarray(self.log_std, dtype=np.float64)
        # clipping would keep a NaN and turn an infinity into a bound
        if not np.isfinite(ls).all():
            raise ValueError(f"log_std must be finite, got {ls}")
        ls = np.clip(ls, LOG_STD_MIN, LOG_STD_MAX)
        ls.flags.writeable = False
        object.__setattr__(self, "log_std", ls)
        if ls.shape != (self.action_dim,):
            raise ValueError("log_std length must equal action_dim")

    @property
    def state_dim(self) -> int:
        return self.specs[0].in_dim

    @property
    def action_dim(self) -> int:
        return self.specs[-1].out_dim


def build_policy(
    state_dim: int,
    action_dim: int,
    hidden: tuple[int, ...] = (64, 64),
    seed: int = 0,
    init_log_std: float = 0.0,
) -> GaussianPolicy:
    specs = nn_core.mlp_specs((state_dim, *hidden, action_dim), "tanh")
    return GaussianPolicy(nn_core.init_params(specs, seed), specs, np.full(action_dim, init_log_std))


def policy_mean_batch(policy: GaussianPolicy, states: np.ndarray) -> np.ndarray:
    return nn_core.forward_batch(policy.mean_params, policy.specs, states)


def _logp_rows(means: np.ndarray, actions: np.ndarray, inv_var: np.ndarray, log_std_sum) -> np.ndarray:
    """Row log-densities, given exp(-2 log_std) and sum(log_std); callers in
    hot loops compute those two once per call."""
    return _logp_from_sq((actions - means) ** 2 * inv_var, log_std_sum)


def _logp_from_sq(sq: np.ndarray, log_std_sum) -> np.ndarray:
    """Row log-densities from the scaled squared deviations
    (a - mean)^2 * exp(-2 log_std)."""
    return -0.5 * sq.sum(axis=1) - log_std_sum - 0.5 * sq.shape[1] * _LOG_2PI


def _draw_rows(layers: tuple, std: np.ndarray, x: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """The mean rows of the mean-net walk ``layers`` on the checked rows
    ``x``, and one action per row: mean + std * N(0, 1), or without ``rng``
    the mean itself."""
    means = nn_core._forward(layers, x)
    if not np.isfinite(means).all():
        raise NumericalAbort("policy mean is non-finite")
    return means, means if rng is None else means + std * rng.standard_normal(means.shape)


def policy_sample(policy: GaussianPolicy, s: np.ndarray, rng) -> tuple[np.ndarray, float]:
    """Draw one action and its exact log-density."""
    layers = nn_core._layers(policy.mean_params.values, policy.mean_params.layout, policy.specs)
    x = nn_core._as_batch(np.asarray(s)[None, :], policy.state_dim, "input")
    means, actions = _draw_rows(layers, np.exp(policy.log_std), x, rng)
    return actions[0], float(_logp_rows(means, actions, np.exp(-2.0 * policy.log_std), np.sum(policy.log_std))[0])


def _entropy(log_std: np.ndarray) -> float:
    return float(0.5 * np.sum(1.0 + _LOG_2PI + 2.0 * log_std))


def policy_entropy(policy: GaussianPolicy) -> float:
    """Closed-form entropy: 0.5 * sum(1 + log 2 pi + 2 log_std)."""
    return _entropy(policy.log_std)


def policy_logp_entropy(policy: GaussianPolicy, s: np.ndarray, a: np.ndarray) -> tuple[float, float]:
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (policy.action_dim,):
        raise ValueError(f"action must have length {policy.action_dim}")
    return float(logp_batch(policy, np.asarray(s)[None, :], a[None, :])[0]), policy_entropy(policy)


def logp_batch(policy: GaussianPolicy, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    actions = np.asarray(actions, dtype=np.float64)
    return _logp_rows(policy_mean_batch(policy, states), actions, np.exp(-2.0 * policy.log_std), np.sum(policy.log_std))


def policy_theta(policy: GaussianPolicy) -> np.ndarray:
    """Flat parameter vector [mean net | log_std] used by the optimizer."""
    return np.concatenate([policy.mean_params.values, policy.log_std])


def policy_with_theta(policy: GaussianPolicy, theta: np.ndarray) -> GaussianPolicy:
    n = len(policy.mean_params)
    return replace(
        policy,
        mean_params=policy.mean_params.with_values(theta[:n]),
        log_std=theta[n:],
    )


def _logp_grad_rows(layers: tuple, hs: list, w: np.ndarray, scaled: np.ndarray, sq: np.ndarray, grad) -> None:
    """Write sum_i w_i * d logp_i / d[mean net | log_std] into ``grad`` for the rows of a mean-net walk that
    collected ``hs``, with ``scaled`` = (a - mean) * exp(-2 log_std) and ``sq`` = (a - mean)**2 * exp(-2 log_std)."""
    nn_core._backward(layers, hs, w[:, None] * scaled, grad)
    grad[grad.size - sq.shape[1]:] = w @ (sq - 1.0)


def logp_grad(policy: GaussianPolicy, s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Gradient of the log-density w.r.t. [mean net | log_std], ppo_update's gradient on one row."""
    hs: list[np.ndarray] = []
    diff = np.asarray(a, dtype=np.float64) - nn_core.forward_batch(policy.mean_params, policy.specs, s, hs)
    inv_var = np.exp(-2.0 * policy.log_std)
    grad = np.empty(len(policy.mean_params) + policy.action_dim)
    layers = nn_core._layers(policy.mean_params.values, policy.mean_params.layout, policy.specs)
    _logp_grad_rows(layers, hs, np.ones(1), diff * inv_var, diff**2 * inv_var, grad)
    return grad


# --- value function -----------------------------------------------------


@dataclass(frozen=True)
class ValueFn:
    params: ParamStore
    specs: tuple[LayerSpec, ...]


def build_value_fn(state_dim: int, hidden: tuple[int, ...] = (64, 64), seed: int = 0) -> ValueFn:
    specs = nn_core.mlp_specs((state_dim, *hidden, 1), "tanh")
    return ValueFn(nn_core.init_params(specs, seed), specs)


def value_batch(vf: ValueFn, states: np.ndarray) -> np.ndarray:
    return nn_core.forward_batch(vf.params, vf.specs, states)[:, 0]


def value_single(vf: ValueFn, s: np.ndarray) -> float:
    return float(nn_core.forward(vf.params, vf.specs, s)[0])


# --- rollouts and advantages ----------------------------------------------


@dataclass
class RolloutBuffer:
    """Per-step arrays for one rollout of one or more envs; advantages and
    returns are filled by compute_gae and must be normalized before the
    policy update.

    The rows are env-major: with E envs, env e's steps fill rows
    [e*n/E, (e+1)*n/E) in time order, and ``bootstrap_value`` holds the E
    values of the envs' last observations (zero after a done).
    """

    states: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    values: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    bootstrap_value: np.ndarray
    advantages: np.ndarray | None = None
    returns: np.ndarray | None = None

    def __len__(self) -> int:
        return self.states.shape[0]

    def __post_init__(self) -> None:
        n = self.states.shape[0]
        for name in ("actions", "log_probs", "values", "rewards", "dones"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"buffer field {name} has mismatched length")
        self.bootstrap_value = np.atleast_1d(np.asarray(self.bootstrap_value, dtype=np.float64))
        if self.bootstrap_value.ndim != 1 or n % self.bootstrap_value.size:
            raise ValueError(f"{self.bootstrap_value.size} bootstrap values do not split {n} rows into envs")


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    gamma: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Backward-recursion advantage estimates and value targets.

    ``values`` carries one trailing bootstrap entry (length n+1). A done
    flag cuts both the TD residual and the recursion.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    dones = np.asarray(dones, dtype=bool)
    values = np.asarray(values, dtype=np.float64)
    n = rewards.shape[0]
    if values.shape != (n + 1,):
        raise ValueError(f"values must have length {n + 1} (bootstrap included), got {values.shape}")
    if dones.shape != (n,):
        raise ValueError("dones must align with rewards")
    adv = np.empty(n)
    carry = 0.0
    for t in range(n - 1, -1, -1):
        nonterminal = 0.0 if dones[t] else 1.0
        delta = rewards[t] + gamma * nonterminal * values[t + 1] - values[t]
        carry = delta + gamma * lam * nonterminal * carry
        adv[t] = carry
    return adv, adv + values[:n]


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    adv = np.asarray(adv, dtype=np.float64)
    return (adv - adv.mean()) / (adv.std() + 1e-8)


# --- ppo ------------------------------------------------------------------


@dataclass(frozen=True)
class PpoConfig:
    """PPO settings. Four epochs per rollout, not ten: a default run takes
    40-50% less wall time and still imitates (``ppo.epochs=10`` restores the
    old work). Minibatches of 256 rows at lr 2e-4, not 64 at 1e-4: PPO costs
    per minibatch step, so an iteration takes 32 Adam steps, not 128, and the
    lr grows by sqrt(4) with the 4x batch, whose gradient averages 4x the
    rows. With trainer's 64 lockstep envs (16 before) a drail run is about
    1.25-1.5x faster. Mean held-out success of 1-trajectory drail runs (README
    has the setup; ``ppo.minibatch_size=64``, ``ppo.lr=1e-4`` restore the old
    steps):

    =====================  ==================  ==================
    minibatch, lr, envs    131,072 steps       262,144 steps
    =====================  ==================  ==================
    64, 1e-4, 16           0.685 (seeds 0-15)  0.944 (seeds 0-7)
    256, 1e-4, 16          0.674 (seeds 0-15)  0.855 (seeds 0-7)
    256, 2e-4, 64          0.694 (seeds 0-15)  0.950 (seeds 0-7)
    =====================  ==================  ==================

    The class constants are the PPO paper's (Schulman et al. 2017)."""

    entropy_coef: float = 0.001
    epochs: int = 4
    minibatch_size: int = 256
    rollout_steps: int = 2048
    lr: float = 2e-4
    clip: ClassVar[float] = 0.2
    gamma: ClassVar[float] = 0.99
    gae_lambda: ClassVar[float] = 0.95
    value_coef: ClassVar[float] = 0.5

    def __post_init__(self) -> None:
        for name in ("epochs", "minibatch_size", "rollout_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.lr >= 0.0:
            raise ValueError("lr must be >= 0")


def clipped_surrogate(ratio: np.ndarray, adv: np.ndarray, clip: float) -> np.ndarray:
    """Per-sample pessimistic surrogate min(r*A, clip(r)*A)."""
    ratio = np.asarray(ratio, dtype=np.float64)
    adv = np.asarray(adv, dtype=np.float64)
    return np.minimum(ratio * adv, np.clip(ratio, 1.0 - clip, 1.0 + clip) * adv)


def _clip_norm_inplace(g: np.ndarray, max_norm: float) -> None:
    # the sum np.linalg.norm computes for a vector
    norm = math.sqrt(g.dot(g))
    if norm > max_norm:
        g *= max_norm / norm


def ppo_update(
    policy: GaussianPolicy,
    vf: ValueFn,
    buffer: RolloutBuffer,
    cfg: PpoConfig,
    rng,
    opt: AdamState | None = None,
    lr_scale: float = 1.0,
) -> tuple[GaussianPolicy, ValueFn, AdamState, dict]:
    """Epochs of shuffled-minibatch updates on the clipped surrogate plus
    value regression and an entropy bonus. Returns fresh snapshots, the
    advanced Adam moments ``opt`` (fresh when None) and per-update stats.
    Their ``approx_kl`` is the mean of logp_old - logp_new over the last
    epoch's rows, each row's logp_new taken before its minibatch's step."""
    if buffer.advantages is None or buffer.returns is None:
        raise ValueError("buffer advantages must be computed before ppo_update")
    adv = buffer.advantages
    # normalized advantages have mean ~0 and std ~1 (0 in degenerate buffers)
    if abs(float(adv.mean())) > 1e-6 or float(adv.std()) > 1.5:
        raise ValueError("buffer advantages must be normalized before ppo_update")
    states, actions = buffer.states, buffer.actions
    logp_old, returns = buffer.log_probs, buffer.returns
    if states.shape[1:] != (policy.state_dim,) or actions.shape[1:] != (policy.action_dim,):
        raise ValueError(f"buffer states/actions of shape {states.shape}/{actions.shape} do not match "
                         f"the policy dims ({policy.state_dim}, {policy.action_dim})")
    for name, arr in (("states", states), ("actions", actions), ("log_probs", logp_old),
                      ("advantages", adv), ("returns", returns)):
        if not np.all(np.isfinite(arr)):
            raise NumericalAbort(f"buffer {name} is non-finite")
    n = len(buffer)
    n_mean = len(policy.mean_params)
    n_pol = n_mean + policy.action_dim
    if opt is None:
        opt = AdamState.fresh(n_pol + len(vf.params), cfg.lr)
    # one flat [mean net | log_std | critic] vector with its layer views, a
    # gradient buffer of the same layout and the Adam moments, all updated
    # in place; the snapshots are built once, after the last minibatch
    params = np.concatenate([policy.mean_params.values, policy.log_std, vf.params.values])
    if opt.m.shape != params.shape:
        raise ValueError(f"optimizer length {opt.m.size} != policy and critic length {params.size}")
    m, v, step = opt.m.copy(), opt.v.copy(), opt.step
    log_std = params[n_mean:n_pol]
    p_layers = nn_core._layers(params, policy.mean_params.layout, policy.specs)
    v_layers = nn_core._layers(params[n_pol:], vf.params.layout, vf.specs)
    grad = np.empty_like(params)
    g_ls, g_policy, g_value = grad[n_mean:n_pol], grad[:n_pol], grad[n_pol:]

    ratio_sum = 0.0
    clip_count = 0
    loss_sum = 0.0
    initial_ratio_err = None

    for _ in range(cfg.epochs):
        kl_sum = 0.0  # the stats keep the last epoch's
        order = rng.permutation(n)
        epoch = (states[order], actions[order], adv[order], returns[order], logp_old[order])
        for start in range(0, n, cfg.minibatch_size):
            S, A, adv_mb, ret_mb, old_mb = (a[start : start + cfg.minibatch_size] for a in epoch)
            nb = S.shape[0]

            p_hs: list[np.ndarray] = []
            means = nn_core._forward(p_layers, S, p_hs)
            inv_var = np.exp(-2.0 * log_std)
            diff = A - means
            sq = diff**2 * inv_var
            log_ratio = _logp_from_sq(sq, np.sum(log_std)) - old_mb
            ratio = np.exp(log_ratio)
            kl_sum -= float(np.sum(log_ratio))
            if initial_ratio_err is None:
                initial_ratio_err = float(np.max(np.abs(ratio - 1.0)))
            unclipped = ratio * adv_mb
            clipped = np.clip(ratio, 1.0 - cfg.clip, 1.0 + cfg.clip) * adv_mb
            entropy = _entropy(log_std)

            v_hs: list[np.ndarray] = []
            values = nn_core._forward(v_layers, S, v_hs)[:, 0]
            value_loss = cfg.value_coef * float(np.mean((values - ret_mb) ** 2))
            total_loss = -float(np.mean(np.minimum(unclipped, clipped))) + value_loss - cfg.entropy_coef * entropy

            # gradient flows only where the unclipped branch attains the min
            dsurr_dlogp = np.where(unclipped <= clipped, unclipped, 0.0) / nb
            _logp_grad_rows(p_layers, p_hs, -dsurr_dlogp, diff * inv_var, sq, g_policy)
            g_ls -= cfg.entropy_coef
            _clip_norm_inplace(g_policy, MAX_GRAD_NORM)
            dv = (2.0 * cfg.value_coef / nb) * (values - ret_mb)
            nn_core._backward(v_layers, v_hs, dv[:, None], g_value)
            _clip_norm_inplace(g_value, MAX_GRAD_NORM)

            step += 1
            nn_core._adam_apply(opt, step, params, m, v, grad, lr_scale)
            # the bounds GaussianPolicy puts on log_std, kept on the flat vector
            np.clip(log_std, LOG_STD_MIN, LOG_STD_MAX, out=log_std)
            if not (math.isfinite(total_loss) and np.all(np.isfinite(params))):
                raise NumericalAbort("ppo loss or parameters are non-finite")

            ratio_sum += float(np.sum(ratio))
            clip_count += int(np.sum(np.abs(ratio - 1.0) > cfg.clip))
            loss_sum += total_loss

    policy = replace(policy, mean_params=policy.mean_params.with_values(params[:n_mean]), log_std=log_std)
    vf = replace(vf, params=vf.params.with_values(params[n_pol:]))
    batch_count = cfg.epochs * math.ceil(n / cfg.minibatch_size)
    stats = {
        "ppo_loss": loss_sum / batch_count,
        "mean_ratio": ratio_sum / (cfg.epochs * n),
        "clip_frac": clip_count / (cfg.epochs * n),
        "entropy": policy_entropy(policy),
        "initial_ratio_err": initial_ratio_err,
        "approx_kl": kl_sum / n,
        "epochs": cfg.epochs,
    }
    return policy, vf, replace(opt, m=m, v=v, step=step), stats


# --- checkpoints --------------------------------------------------------------


def save_policy(path: str, policy: GaussianPolicy) -> None:
    """Core parameter block plus the raw log_std vector appended."""
    trailer = policy.log_std.astype("<f8").tobytes()
    nn_core.save_params(path, policy.mean_params, policy.specs, trailer)


def load_policy(path: str) -> GaussianPolicy:
    params, specs, trailer = nn_core.load_params(path)
    action_dim = specs[-1].out_dim
    if len(trailer) != 8 * action_dim:
        raise ValueError(
            f"policy checkpoint trailer must hold {action_dim} log-std values, got {len(trailer)} bytes"
        )
    log_std = np.frombuffer(trailer, dtype="<f8").astype(np.float64)
    return GaussianPolicy(params, specs, log_std)
