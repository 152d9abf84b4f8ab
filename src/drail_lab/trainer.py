"""Alternating adversarial-imitation training loop.

Each iteration collects an on-policy rollout, fits the discriminator on
expert-vs-rollout minibatches, labels the rollout with the method's
log-odds reward, and takes a clipped-surrogate policy step. Also houses
the supervised behavior-cloning baseline, deterministic evaluation, and
reward-landscape export over the sine world.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import envs, nn_core
from .discriminators import (MAX_SAMPLE_COUNT, MAX_SCHEDULE_STEPS, build_diffail, build_drail, build_gail,
                             discriminator_probs, reward_for)
from .envs import ExpertDataset, Grid, dataset_load, make_env, truncate_trajectories
from .errors import NumericalAbort
from .policy_opt import (
    GaussianPolicy,
    PpoConfig,
    RolloutBuffer,
    ValueFn,
    _draw_rows,
    _logp_rows,
    build_policy,
    build_value_fn,
    compute_gae,
    normalize_advantages,
    policy_mean_batch,
    ppo_update,
)

METHODS = ("drail", "gail", "diffail", "bc")

REWARD_CLAMP = 20.0
# lockstep envs of a training run: math.gcd(rollout_steps, _N_ENVS), so
# every env fills the same number of rollout rows. 64, not 16: a 2,048-step
# rollout takes 32 batched steps instead of 128; with PpoConfig's minibatch
# 256 at lr 2e-4 (at lr 1e-4, 64 envs learned less) a drail run is about
# 1.25-1.5x faster
_N_ENVS = 64

METRICS_HEADER = (
    "env_steps",
    "iter",
    "disc_loss",
    "ppo_loss",
    "mean_reward",
    "success_rate",
    "mean_return",
    "clip_frac",
    "clamped_rewards",
)


# --- configuration ---------------------------------------------------------


_TUPLE_FIELDS = ("disc_hidden", "policy_hidden", "value_hidden")


@dataclass(frozen=True)
class TrainConfig:
    """Fully materialized run description; everything a run needs flows
    from these fields plus the single seed."""

    method: str = "drail"
    env: str = "point_reach"
    expert_path: str = ""
    total_env_steps: int = 300_000
    seed: int = 0
    noise_scale: float = 1.0
    horizon: int = envs.DEFAULT_HORIZON
    wall: bool = False
    max_expert_trajectories: int | None = None
    # discriminator
    disc_lr: float = 1e-3
    disc_hidden: tuple[int, ...] = (64, 64)
    disc_batch: int = 128
    schedule_steps: int = 1000
    sample_count: int = 1
    reward_sample_count: int = 4
    # policy and critic
    ppo: PpoConfig = PpoConfig()
    policy_hidden: tuple[int, ...] = (64, 64)
    value_hidden: tuple[int, ...] = (64, 64)
    # behavior cloning
    bc_epochs: int = 200
    bc_lr: float = 1e-3
    # evaluation
    eval_interval: int = 50_000
    eval_episodes: int = 50
    eval_stochastic: bool = False
    max_expert_transitions: ClassVar[None] = None
    label_dim: ClassVar[int] = 10
    time_embed_dim: ClassVar[int] = 16
    s_offset: ClassVar[float] = 0.008
    init_log_std: ClassVar[float] = -0.5
    bc_batch: ClassVar[int] = 64

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; valid methods: {', '.join(METHODS)}")
        if self.env not in envs.ENV_NAMES:
            raise ValueError(f"unknown env {self.env!r}; valid envs: {', '.join(envs.ENV_NAMES)}")
        if self.method != "bc" and self.total_env_steps < self.ppo.rollout_steps:
            raise ValueError("total_env_steps must cover at least one rollout")
        for name in ("horizon", "disc_batch", "schedule_steps", "sample_count", "reward_sample_count",
                     "eval_interval", "eval_episodes", "bc_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # a run never writes a checkpoint it cannot load, and labeling allocates all its draws up front
        for name, limit in (("schedule_steps", MAX_SCHEDULE_STEPS), ("sample_count", MAX_SAMPLE_COUNT),
                            ("reward_sample_count", MAX_SAMPLE_COUNT), ("noise_scale", envs._MAX_NOISE_SCALE)):
            if getattr(self, name) > limit:
                raise ValueError(f"{name} must be <= {limit}")
        if self.max_expert_trajectories is not None and self.max_expert_trajectories < 1:
            raise ValueError("max_expert_trajectories must be >= 1")
        for name in ("seed", "noise_scale", "disc_lr", "bc_lr"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0")
        for name in _TUPLE_FIELDS:
            widths = tuple(int(w) for w in getattr(self, name))
            if min(widths, default=1) < 1:
                raise ValueError(f"{name} widths must be >= 1, got {list(widths)}")
            object.__setattr__(self, name, widths)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# what a JSON config value must be, by the field's annotation
_JSON_TYPES = {
    "int": (_is_int, "an integer"),
    # abs, not math.isfinite, which raises OverflowError on an int past the float range
    "float": (lambda v: (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "int | None": (lambda v: v is None or _is_int(v), "an integer or null"),
    "tuple[int, ...]": (lambda v: isinstance(v, list) and all(_is_int(w) for w in v), "a list of integers"),
}


def config_to_dict(cfg: TrainConfig) -> dict:
    """The config as JSON data (JSON writes the width tuples as lists)."""
    return dataclasses.asdict(cfg)


def _config_kwargs(cls, data: dict, prefix: str = "") -> dict:
    """Type-checked constructor arguments for ``cls`` from decoded JSON; errors
    name the offending key. A class constant's key passes only at its value."""
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        name = prefix + key
        if key not in fields:
            if key not in cls.__annotations__:
                raise ValueError(f"unknown config key {name!r}")
            if (fixed := json.dumps(getattr(cls, key))) != json.dumps(value):
                raise ValueError(f"config key {name!r} is fixed at {fixed}, got {value!r}")
            continue
        if fields[key] == "PpoConfig":
            if not isinstance(value, dict):
                raise ValueError(f"config key {name!r} must be a JSON object, got {value!r}")
            ppo_kwargs = _config_kwargs(PpoConfig, value, name + ".")
            try:
                kwargs[key] = PpoConfig(**ppo_kwargs)
            except ValueError as e:
                # PpoConfig's range errors name the field without its block
                raise ValueError(f"{name}.{e}") from None
            continue
        accepts, expected = _JSON_TYPES[fields[key]]
        if not accepts(value):
            raise ValueError(f"config key {name!r} must be {expected}, got {value!r}")
        kwargs[key] = value
    return kwargs


def config_from_dict(data: dict) -> TrainConfig:
    return TrainConfig(**_config_kwargs(TrainConfig, data))


# --- evaluation --------------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    """Exact success accounting over deterministic-policy episodes."""

    success_rate: float
    mean_return: float
    episodes: int
    per_seed: tuple[tuple[int, float], ...]


def policy_actor(policy: GaussianPolicy, stochastic: bool = False, rng=None):
    """Observation rows -> action rows closure (one observation gives one
    action); the default is the mean action."""
    if stochastic and rng is None:
        raise ValueError("stochastic actor needs an rng")
    # policy_mean_batch and policy_sample, with the layer views built once
    layers = nn_core._layers(policy.mean_params.values, policy.mean_params.layout, policy.specs)
    std = np.exp(policy.log_std)

    def act(obs):
        x = nn_core._as_batch(obs, policy.state_dim, "input")
        actions = _draw_rows(layers, std, x, rng if stochastic else None)[1]
        return actions[0] if np.ndim(obs) == 1 else actions

    return act


def evaluate(
    policy,
    env_name: str,
    n_episodes: int,
    seed: int,
    noise_scale: float = 1.0,
    horizon: int = envs.DEFAULT_HORIZON,
    wall: bool = False,
    stochastic: bool = False,
    n_seeds: int = 1,
) -> EvalReport:
    """Run episodes split across n_seeds eval streams and count successes.

    A stream runs all its episodes at once as lockstep envs whose start
    states are drawn in episode order from the stream's seed. A policy acts
    on all running episodes in one batch; a callable actor is called on one
    observation at a time. The per-episode return is the env's success
    label (1.0 on success), so mean_return never involves the learned reward.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    if n_seeds < 1 or n_seeds > n_episodes:
        raise ValueError("n_seeds must lie in [1, n_episodes]")
    per_seed = []
    total_wins = 0
    base, extra = divmod(n_episodes, n_seeds)
    for i in range(n_seeds):
        sub_seed = seed + i
        episodes_here = base + (1 if i < extra else 0)
        env = make_env(env_name, seed=sub_seed, noise_scale=noise_scale, horizon=horizon, wall=wall,
                       n_envs=episodes_here)
        if callable(policy):
            def act(obs):
                return np.array([policy(o) for o in obs])
        else:
            if (policy.state_dim, policy.action_dim) != (env.state_dim, env.action_dim):
                raise ValueError(f"policy state/action widths ({policy.state_dim}, {policy.action_dim}) do not "
                                 f"match env {env_name!r} widths ({env.state_dim}, {env.action_dim})")
            # its own stream: make_env draws the start states from default_rng(sub_seed)
            act = policy_actor(policy, stochastic, np.random.default_rng([sub_seed, 1]))
        wins = sum(int(np.count_nonzero(success)) for *_, success in envs._run_episodes(env, act))
        per_seed.append((sub_seed, wins / episodes_here))
        total_wins += wins
    rate = total_wins / n_episodes
    return EvalReport(rate, rate, n_episodes, tuple(per_seed))


# --- rollouts and reward labeling -------------------------------------------


def collect_rollout(env, policy: GaussianPolicy, vf: ValueFn, n_steps: int, rng) -> RolloutBuffer:
    """Sample n_steps on-policy transitions, n_steps / env.n_envs from each
    of the env's lockstep rows, with one value and one policy forward of
    all rows per step.

    Each row carries its open episode over from the previous call (a row
    without one starts an episode) and starts a new episode when one ends.
    Rewards stay zero; the discriminator labels them afterwards. The buffer
    is env-major, with one bootstrap value per env: the value of its last
    observation, or zero after a done.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    n_envs = env.n_envs
    if n_steps % n_envs:
        raise ValueError(f"n_steps {n_steps} is not a multiple of the {n_envs} envs")
    # value_single and policy_sample on all rows, with the layer views and
    # the log-std terms built once; the env's own rows need no check
    width = env.state_dim
    for what, in_dim in (("value", vf.specs[0].in_dim), ("policy", policy.state_dim)):
        if in_dim != width:
            raise ValueError(f"{what} input width {in_dim} != env state_dim {width}")
    v_layers = nn_core._layers(vf.params.values, vf.params.layout, vf.specs)
    p_layers = nn_core._layers(policy.mean_params.values, policy.mean_params.layout, policy.specs)
    std = np.exp(policy.log_std)
    inv_var = np.exp(-2.0 * policy.log_std)
    log_std_sum = np.sum(policy.log_std)
    steps = n_steps // n_envs
    states = np.empty((n_envs, steps, width))
    actions = np.empty((n_envs, steps, env.action_dim))
    log_probs = np.empty((n_envs, steps))
    values = np.empty((n_envs, steps))
    dones = np.empty((n_envs, steps), dtype=bool)
    obs = env.reset_rows(np.flatnonzero(~env.open))
    for t in range(steps):
        states[:, t] = obs
        values[:, t] = nn_core._forward(v_layers, obs)[:, 0]
        means, action = _draw_rows(p_layers, std, obs, rng)
        log_probs[:, t] = _logp_rows(means, action, inv_var, log_std_sum)
        actions[:, t] = action
        obs, done, _ = env.step_rows(action)
        dones[:, t] = done
        if done.any():
            obs = env.reset_rows(np.flatnonzero(done))
    last = nn_core._forward(v_layers, obs)[:, 0]
    bootstrap = np.where(dones[:, -1], 0.0, last)
    return RolloutBuffer(states.reshape(n_steps, width), actions.reshape(n_steps, -1), log_probs.ravel(),
                         values.ravel(), np.zeros(n_steps), dones.ravel(), bootstrap)


def label_rewards(buffer: RolloutBuffer, disc, rng) -> tuple[RolloutBuffer, dict]:
    """Fill buffer.rewards with the clamped method reward, scored in one
    call on ``rng``."""
    raw, saturated = reward_for(disc, buffer.states, buffer.actions, rng)
    if not np.all(np.isfinite(raw)):
        raise NumericalAbort("non-finite reward from the discriminator")
    clamped = int(np.sum(np.abs(raw) > REWARD_CLAMP))
    buffer.rewards = np.clip(raw, -REWARD_CLAMP, REWARD_CLAMP)
    stats = {
        "mean_reward": float(buffer.rewards.mean()),
        "clamped": clamped,
        "saturated": int(saturated),
    }
    return buffer, stats


# --- behavior cloning --------------------------------------------------------


def bc_loss(policy: GaussianPolicy, dataset: ExpertDataset) -> float:
    pred = policy_mean_batch(policy, dataset.states)
    return float(np.mean((pred - dataset.actions) ** 2))


def bc_train(
    dataset: ExpertDataset,
    policy: GaussianPolicy,
    epochs: int,
    lr: float,
    rng,
    batch_size: int = 64,
) -> GaussianPolicy:
    """Minimize mean squared error between the policy mean and expert
    actions with shuffled-minibatch Adam; log_std is left untouched."""
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    n = len(dataset)
    d_out = dataset.action_dim
    opt = nn_core.AdamState.fresh(len(policy.mean_params), lr)
    params = policy.mean_params
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            S = dataset.states[idx]
            A = dataset.actions[idx]
            hs: list[np.ndarray] = []
            pred = nn_core.forward_batch(params, policy.specs, S, hs)
            upstream = (2.0 / (idx.size * d_out)) * (pred - A)
            grad = nn_core.backward_activations(params, policy.specs, hs, upstream)
            params, opt = nn_core.adam_step(opt, params, grad)
    return replace(policy, mean_params=params)


# --- reward landscape ---------------------------------------------------------


@dataclass(frozen=True)
class RewardGrid:
    """Discriminator probability D over an (s, a) lattice, row-major in s."""

    s_axis: np.ndarray
    a_axis: np.ndarray
    values: np.ndarray
    method: str

    def __post_init__(self) -> None:
        if self.values.shape != (self.s_axis.size, self.a_axis.size):
            raise ValueError("values must have shape (len(s_axis), len(a_axis))")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")


def reward_map(disc, grid: Grid, rng, samples_per_cell: int = 4) -> RewardGrid:
    """Mean discriminator probability per lattice cell over samples_per_cell
    probabilities, each made from disc.sample_count draws."""
    if samples_per_cell < 1:
        raise ValueError("samples_per_cell must be >= 1")
    if disc.state_dim + disc.action_dim != 2:
        raise ValueError("reward_map expects a 1-D state, 1-D action discriminator")
    probs = discriminator_probs(disc, grid.points, rng, samples_per_cell)
    values = probs.reshape(grid.s_axis.size, grid.a_axis.size)
    return RewardGrid(grid.s_axis, grid.a_axis, values, disc.kind)


def grid_to_csv(grid: RewardGrid) -> str:
    """First row holds the a-axis, first column the s-axis, cells hold D."""
    lines = ["," + ",".join(_fmt(a) for a in grid.a_axis)]
    for i, s in enumerate(grid.s_axis):
        lines.append(_fmt(s) + "," + ",".join(_fmt(v) for v in grid.values[i]))
    return "\n".join(lines) + "\n"


# --- the training loop ---------------------------------------------------------


@dataclass
class TrainResult:
    policy: GaussianPolicy
    discriminator: object | None
    metrics: list[dict]
    csv_text: str
    counters: dict
    final_eval: EvalReport | None


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def metrics_to_csv(rows: list[dict]) -> str:
    lines = [",".join(METRICS_HEADER)]
    for row in rows:
        lines.append(",".join(_fmt(row[k]) for k in METRICS_HEADER))
    return "\n".join(lines) + "\n"


@contextmanager
def _abort_scope(iteration: int, stage: str):
    # train checks its config, expert dataset and widths before the first stage,
    # so a value a stage rejects is one the run made: a numerical abort
    try:
        yield
    except (NumericalAbort, ValueError) as e:
        raise NumericalAbort(f"iteration {iteration}, {stage}: {e}") from None


def _load_expert(cfg: TrainConfig) -> ExpertDataset:
    dataset = dataset_load(cfg.expert_path)
    if cfg.max_expert_trajectories is not None:
        dataset = truncate_trajectories(dataset, cfg.max_expert_trajectories)
    return dataset


def _build_discriminator(cfg: TrainConfig, state_dim: int, action_dim: int, seed: int):
    if cfg.method == "gail":
        return build_gail(state_dim, action_dim, cfg.disc_hidden, cfg.disc_lr, seed)
    # drail and diffail differ only in the condition label
    kw = dict(
        hidden=cfg.disc_hidden,
        time_embed_dim=cfg.time_embed_dim,
        T=cfg.schedule_steps,
        s_offset=cfg.s_offset,
        lr=cfg.disc_lr,
        sample_count=cfg.sample_count,
        seed=seed,
    )
    if cfg.method == "drail":
        return build_drail(state_dim, action_dim, label_dim=cfg.label_dim, **kw)
    return build_diffail(state_dim, action_dim, **kw)


def _counters(n: int, cfg: TrainConfig) -> dict:
    """What n iterations of the loop ran: each count is fixed by n and cfg."""
    ppo = cfg.ppo
    return {"iterations": n, "rollouts": n, "labelings": n, "gae_passes": n, "ppo_passes": n * ppo.epochs,
            "disc_minibatches": n * math.ceil(ppo.rollout_steps / cfg.disc_batch),
            "ppo_minibatches": n * ppo.epochs * math.ceil(ppo.rollout_steps / ppo.minibatch_size),
            "lockstep_steps": n * ppo.rollout_steps // _lockstep_envs(cfg)}


def _lockstep_envs(cfg: TrainConfig) -> int:
    return math.gcd(cfg.ppo.rollout_steps, _N_ENVS)


def train(cfg: TrainConfig) -> TrainResult:
    """Run the full alternating loop (or the supervised bc branch) and
    return final nets plus the metrics log. Deterministic given cfg."""
    dataset = _load_expert(cfg)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(10)
    (env_seed, policy_seed, value_seed, disc_seed, rollout_seed,
     batch_seed, label_seed, ppo_seed, eval_seed, bc_seed) = (int(s) for s in seeds)

    env = make_env(cfg.env, seed=env_seed, noise_scale=cfg.noise_scale, horizon=cfg.horizon, wall=cfg.wall,
                   n_envs=_lockstep_envs(cfg))
    if dataset.state_dim != env.state_dim or dataset.action_dim != env.action_dim:
        raise ValueError(
            f"expert dataset dims ({dataset.state_dim}, {dataset.action_dim}) do not match "
            f"env {cfg.env!r} dims ({env.state_dim}, {env.action_dim})"
        )
    policy = build_policy(env.state_dim, env.action_dim, cfg.policy_hidden, policy_seed, cfg.init_log_std)
    vf = build_value_fn(env.state_dim, cfg.value_hidden, value_seed)

    def run_eval(pol: GaussianPolicy, iteration: int) -> EvalReport:
        with _abort_scope(iteration, "evaluation"):
            return evaluate(
                pol,
                cfg.env,
                cfg.eval_episodes,
                eval_seed,
                noise_scale=cfg.noise_scale,
                horizon=cfg.horizon,
                wall=cfg.wall,
                stochastic=cfg.eval_stochastic,
            )

    if cfg.method == "bc":
        with _abort_scope(1, "behavior cloning"):
            policy = bc_train(dataset, policy, cfg.bc_epochs, cfg.bc_lr,
                              np.random.default_rng(bc_seed), cfg.bc_batch)
            final_loss = bc_loss(policy, dataset)
        report = run_eval(policy, 1)
        rows = [{
            "env_steps": 0, "iter": 1, "disc_loss": None, "ppo_loss": final_loss,
            "mean_reward": None, "success_rate": report.success_rate,
            "mean_return": report.mean_return, "clip_frac": None, "clamped_rewards": None,
        }]
        return TrainResult(policy, None, rows, metrics_to_csv(rows), _counters(0, cfg), report)

    disc = _build_discriminator(cfg, env.state_dim, env.action_dim, disc_seed)
    rollout_rng = np.random.default_rng(rollout_seed)
    batch_rng = np.random.default_rng(batch_seed)
    label_rng = np.random.default_rng(label_seed)
    ppo_rng = np.random.default_rng(ppo_seed)
    opt: nn_core.AdamState | None = None

    rows: list[dict] = []
    report: EvalReport | None = None
    rollout_len = cfg.ppo.rollout_steps
    n_iterations = math.ceil(cfg.total_env_steps / rollout_len)
    for iteration in range(1, n_iterations + 1):
        steps_done = iteration * rollout_len
        with _abort_scope(iteration, "rollout"):
            buffer = collect_rollout(env, policy, vf, rollout_len, rollout_rng)

        disc_losses = []
        with _abort_scope(iteration, "discriminator update"):
            order = batch_rng.permutation(rollout_len)
            for start in range(0, rollout_len, cfg.disc_batch):
                idx = order[start : start + cfg.disc_batch]
                e_idx = batch_rng.integers(0, len(dataset), size=idx.size)
                expert_batch = (dataset.states[e_idx], dataset.actions[e_idx])
                agent_batch = (buffer.states[idx], buffer.actions[idx])
                disc, loss = disc.update(expert_batch, agent_batch, batch_rng)
                disc_losses.append(loss)

        with _abort_scope(iteration, "reward labeling"):
            label_disc = disc.with_sample_count(cfg.reward_sample_count)
            buffer, label_stats = label_rewards(buffer, label_disc, label_rng)

        with _abort_scope(iteration, "advantage estimation"):
            # one recursion per env over its rows of the env-major buffer
            adv = np.empty(rollout_len)
            rets = np.empty(rollout_len)
            per_env = rollout_len // env.n_envs
            for e, bootstrap in enumerate(buffer.bootstrap_value):
                seg = slice(e * per_env, (e + 1) * per_env)
                adv[seg], rets[seg] = compute_gae(
                    buffer.rewards[seg], np.append(buffer.values[seg], bootstrap), buffer.dones[seg],
                    cfg.ppo.gamma, cfg.ppo.gae_lambda)
            buffer.advantages = normalize_advantages(adv)
            buffer.returns = rets

        lr_scale = 1.0 - (steps_done - rollout_len) / cfg.total_env_steps
        with _abort_scope(iteration, "policy update"):
            policy, vf, opt, ppo_stats = ppo_update(policy, vf, buffer, cfg.ppo, ppo_rng, opt, lr_scale)

        eval_due = iteration == n_iterations or (steps_done // cfg.eval_interval) > ((steps_done - rollout_len) // cfg.eval_interval)
        if eval_due:
            report = run_eval(policy, iteration)
        rows.append({
            "env_steps": steps_done,
            "iter": iteration,
            "disc_loss": float(np.mean(disc_losses)),
            "ppo_loss": ppo_stats["ppo_loss"],
            "mean_reward": label_stats["mean_reward"],
            "success_rate": report.success_rate if eval_due else None,
            "mean_return": report.mean_return if eval_due else None,
            "clip_frac": ppo_stats["clip_frac"],
            "clamped_rewards": label_stats["clamped"],
        })
    return TrainResult(policy, disc, rows, metrics_to_csv(rows), _counters(n_iterations, cfg), report)
