import copy
import dataclasses
import json

import numpy as np
import pytest

from drail_lab import envs, trainer
from drail_lab.discriminators import DrailClassifier, build_drail, build_gail, drail_update, reward_for
from drail_lab.envs import SineWorldSpec, dataset_save, gen_expert_dataset, make_env, sine_expert_sample, sine_grid
from drail_lab.errors import NumericalAbort
from drail_lab.policy_opt import (
    PpoConfig,
    build_policy,
    build_value_fn,
    policy_mean_batch,
    value_single,
)
from drail_lab.trainer import (
    TrainConfig,
    bc_loss,
    bc_train,
    collect_rollout,
    config_from_dict,
    config_to_dict,
    evaluate,
    grid_to_csv,
    label_rewards,
    metrics_to_csv,
    reward_map,
    train,
)

from oracles import evaluate_reference, policy_sample_reference


@pytest.fixture(scope="module")
def sine_expert_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sine.drld"
    ds = sine_expert_sample(SineWorldSpec(), 1000, np.random.default_rng(0))
    dataset_save(ds, str(path))
    return str(path)


@pytest.fixture(scope="module")
def point_expert_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "point.drld"
    ds = gen_expert_dataset(40, np.random.default_rng(0))
    dataset_save(ds, str(path))
    return str(path)


def _tiny_cfg(expert_path, **overrides):
    base = dict(
        method="drail",
        env="sine",
        expert_path=expert_path,
        total_env_steps=64,
        seed=1,
        disc_hidden=(16, 16),
        disc_batch=32,
        schedule_steps=16,
        policy_hidden=(16, 16),
        value_hidden=(16, 16),
        eval_interval=1_000_000,
        eval_episodes=4,
        ppo=PpoConfig(rollout_steps=64, minibatch_size=32, epochs=2),
    )
    base.update(overrides)
    return TrainConfig(**base)


# --- config ------------------------------------------------------------------


def test_config_json_roundtrip():
    cfg = TrainConfig(
        method="diffail",
        env="sine",
        expert_path="e.drld",
        total_env_steps=4096,
        seed=7,
        disc_hidden=(32, 16),
        ppo=PpoConfig(lr=3e-4, rollout_steps=512),
    )
    blob = json.dumps(config_to_dict(cfg))
    assert config_from_dict(json.loads(blob)) == cfg


def test_config_unknown_keys_are_named():
    with pytest.raises(ValueError, match="unknown config key 'frobnicate'"):
        config_from_dict({"frobnicate": 1})
    with pytest.raises(ValueError, match="unknown config key 'ppo.clips'"):
        config_from_dict({"ppo": {"clips": 0.3}})


def test_retired_keys_at_their_fixed_values_change_nothing(sine_expert_file):
    # the ten keys a manifest could carry before they became class constants
    retired = {"max_expert_transitions": None, "label_dim": 10, "time_embed_dim": 16, "s_offset": 0.008,
               "init_log_std": -0.5, "bc_batch": 64}
    retired_ppo = {"clip": 0.2, "gamma": 0.99, "gae_lambda": 0.95, "value_coef": 0.5}
    data = json.loads(json.dumps(config_to_dict(_tiny_cfg(sine_expert_file))))
    assert not (set(retired) & set(data) or set(retired_ppo) & set(data["ppo"]))
    old = dict(data, **retired, ppo=dict(data["ppo"], **retired_ppo))
    a, b = train(config_from_dict(data)), train(config_from_dict(old))
    assert a.csv_text == b.csv_text
    for pa, pb in ((a.policy.mean_params.values, b.policy.mean_params.values), (a.policy.log_std, b.policy.log_std)):
        assert pa.tobytes() == pb.tobytes()


def test_config_validation():
    with pytest.raises(ValueError, match="valid methods"):
        TrainConfig(method="dqn")
    with pytest.raises(ValueError, match="valid envs"):
        TrainConfig(env="atari")
    with pytest.raises(ValueError, match="at least one rollout"):
        TrainConfig(total_env_steps=100, ppo=PpoConfig(rollout_steps=2048))
    # bc has no env budget to check
    TrainConfig(method="bc", total_env_steps=0)


# --- rollout collection -----------------------------------------------------


def test_collect_rollout_single_step():
    env = make_env("sine", seed=0)
    policy = build_policy(1, 1, hidden=(8,), seed=0)
    vf = build_value_fn(1, hidden=(8,), seed=1)
    buf = collect_rollout(env, policy, vf, 1, np.random.default_rng(0))
    assert len(buf) == 1
    assert buf.dones[0]  # sine episodes are one step
    assert buf.bootstrap_value == 0.0
    assert np.all(buf.rewards == 0.0)


def test_collect_rollout_deterministic():
    policy = build_policy(6, 2, hidden=(8,), seed=0)
    vf = build_value_fn(6, hidden=(8,), seed=1)
    bufs = []
    for _ in range(2):
        env = make_env("point_reach", seed=5)
        bufs.append(collect_rollout(env, policy, vf, 40, np.random.default_rng(7)))
    a, b = bufs
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.log_probs, b.log_probs)
    assert a.bootstrap_value == b.bootstrap_value


def test_collect_rollout_episode_boundaries():
    env = make_env("point_reach", seed=2, horizon=3)
    policy = build_policy(6, 2, hidden=(8,), seed=0)
    vf = build_value_fn(6, hidden=(8,), seed=1)
    buf = collect_rollout(env, policy, vf, 9, np.random.default_rng(3))
    assert np.array_equal(np.flatnonzero(buf.dones), [2, 5, 8])
    assert buf.bootstrap_value == 0.0  # last step closed an episode


def test_collect_rollout_bootstrap_mid_episode():
    env = make_env("point_reach", seed=2, horizon=50)
    policy = build_policy(6, 2, hidden=(8,), seed=0)
    vf = build_value_fn(6, hidden=(8,), seed=1)
    buf = collect_rollout(env, policy, vf, 10, np.random.default_rng(3))
    assert not buf.dones[-1]
    assert buf.bootstrap_value != 0.0


def _reference_rollout(env_seed, policy, vf, n_steps, rng, horizon, wall):
    """collect_rollout spelled out with value_single, policy_sample_reference and point_step."""
    env_rng = np.random.default_rng(env_seed)
    states, actions, log_probs, values, dones = [], [], [], [], []
    state = envs.point_reset(1.0, env_rng)
    done = False
    for _ in range(n_steps):
        if done:
            state = envs.point_reset(1.0, env_rng)
        obs = envs.observe(state)
        states.append(obs)
        values.append(value_single(vf, obs))
        action, logp = policy_sample_reference(policy, obs, rng)
        actions.append(action)
        log_probs.append(logp)
        state, _, done, _ = envs.point_step(state, action, horizon, wall)
        dones.append(done)
    bootstrap = 0.0 if done else value_single(vf, envs.observe(state))
    return np.array(states), np.array(actions), np.array(log_probs), np.array(values), np.array(dones), bootstrap


@pytest.mark.parametrize("wall", [False, True])
def test_collect_rollout_matches_reference_loop_bitwise(wall):
    policy = build_policy(6, 2, hidden=(32, 32), seed=3, init_log_std=0.5)
    vf = build_value_fn(6, hidden=(32, 32), seed=4)
    env = make_env("point_reach", seed=9, horizon=37, wall=wall)
    buf = collect_rollout(env, policy, vf, 1000, np.random.default_rng(5))
    ref = _reference_rollout(9, policy, vf, 1000, np.random.default_rng(5), 37, wall)
    for got, want in zip((buf.states, buf.actions, buf.log_probs, buf.values, buf.dones), ref):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.float64(buf.bootstrap_value).tobytes() == np.float64(ref[5]).tobytes()
    assert buf.dones.sum() >= 20  # several episodes, so resets are covered


def test_collect_rollout_carries_open_episodes_into_the_next_rollout():
    # 4 lockstep envs, 10 steps each per rollout, horizon 15: the first
    # episodes are open at the end of the first rollout and go on in the
    # second (an untrained policy does not reach the goal in 15 steps)
    env = make_env("point_reach", seed=6, horizon=15, n_envs=4)
    policy = build_policy(6, 2, hidden=(8,), seed=0)
    vf = build_value_fn(6, hidden=(8,), seed=1)
    rng = np.random.default_rng(2)
    first = collect_rollout(env, policy, vf, 40, rng)
    second = collect_rollout(env, policy, vf, 40, rng)
    assert first.bootstrap_value.shape == (4,) and not first.dones.any()
    for e in range(4):
        last, nxt = 10 * e + 9, 10 * e  # env e's last row, and its first row of the next rollout
        # the bootstrap is the value of the state the next rollout starts from
        assert first.bootstrap_value[e].tobytes() == second.values[nxt].tobytes()
        state = envs.PointReachState(first.states[last, :2], first.states[last, 2:4], first.states[last, 4:], 0)
        stepped, _, _, _ = envs.point_step(state, first.actions[last], horizon=15)
        assert second.states[nxt].tobytes() == envs.observe(stepped).tobytes()
        # the step count carried over too: the episode ends at its 15th step
        assert np.flatnonzero(second.dones[nxt : nxt + 10])[0] == 4


def test_collect_rollout_rerun_gives_the_same_bytes():
    policy = build_policy(6, 2, hidden=(16,), seed=4, init_log_std=0.3)
    vf = build_value_fn(6, hidden=(16,), seed=5)
    runs = []
    for _ in range(2):
        env = make_env("point_reach", seed=3, horizon=30, wall=True, n_envs=16)
        rng = np.random.default_rng(9)
        bufs = [collect_rollout(env, policy, vf, 256, rng) for _ in range(3)]
        runs.append(b"".join(a.tobytes() for b in bufs for a in (b.states, b.actions, b.log_probs, b.values,
                                                                   b.dones, b.bootstrap_value)))
    assert runs[0] == runs[1]


def test_deterministic_actor_matches_policy_mean_bitwise():
    policy = build_policy(6, 2, hidden=(32, 32), seed=6)
    actor = trainer.policy_actor(policy)
    for obs in np.random.default_rng(7).uniform(-1, 1, (200, 6)):
        assert actor(obs).tobytes() == policy_mean_batch(policy, obs[None, :])[0].tobytes()
    with pytest.raises(ValueError, match="non-finite"):
        actor(np.full(6, np.nan))


# --- reward labeling ----------------------------------------------------------


def _random_buffer(n, state_dim, action_dim, seed=0):
    rng = np.random.default_rng(seed)
    from drail_lab.policy_opt import RolloutBuffer

    return RolloutBuffer(
        rng.uniform(-1, 1, (n, state_dim)),
        rng.uniform(-1, 1, (n, action_dim)),
        np.zeros(n),
        np.zeros(n),
        np.zeros(n),
        np.ones(n, dtype=bool),
        0.0,
    )


def test_label_rewards_uninformed_drail_is_zero():
    clf = build_drail(1, 1, label_dim=0, hidden=(16, 16), T=20, seed=0)
    buf = _random_buffer(100, 1, 1)
    buf, stats = label_rewards(buf, clf, np.random.default_rng(0))
    assert np.all(buf.rewards == 0.0)  # both condition branches coincide
    assert stats["clamped"] == 0


def test_label_rewards_clamps_and_counts():
    disc = build_gail(1, 1, hidden=(4,), seed=0)
    vals = np.zeros(len(disc.params))
    vals[-1] = 30.0  # constant logit 30 via the output bias
    disc = type(disc)(disc.params.with_values(vals), disc.optimizer, 1, 1)
    buf = _random_buffer(50, 1, 1)
    buf, stats = label_rewards(buf, disc, np.random.default_rng(0))
    assert np.all(buf.rewards == 20.0)
    assert stats["clamped"] == 50


def test_label_rewards_bounded():
    clf = build_drail(2, 1, hidden=(8, 8), T=10, seed=3)
    buf = _random_buffer(64, 2, 1, seed=4)
    buf, _ = label_rewards(buf, clf, np.random.default_rng(5))
    assert np.all(np.abs(buf.rewards) <= 20.0)


def test_label_rewards_scores_the_rollout_in_one_call():
    # 1100 rows, once three 512-row label chunks with seeds of their own;
    # at 4 draws a row they span two of the denoiser walk's 4096-draw blocks
    clf = build_drail(2, 1, hidden=(8, 8), T=10, sample_count=4, seed=3)
    buf = _random_buffer(1100, 2, 1, seed=6)
    rng = np.random.default_rng(7)
    ref_rng = copy.deepcopy(rng)
    expected, _ = reward_for(clf, buf.states, buf.actions, ref_rng)
    buf, _ = label_rewards(buf, clf, rng)
    assert np.array_equal(buf.rewards, np.clip(expected, -20.0, 20.0))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_trained_classifier_prefers_expert_pairs():
    # wide schedules keep a few near-noiseless draws in the mix, which is
    # where the expert band is separable at all; see the batch/draw choices
    rng = np.random.default_rng(0)
    spec = SineWorldSpec()
    expert = sine_expert_sample(spec, 2000, rng)
    clf = build_drail(1, 1, hidden=(32, 32), T=1000, lr=6e-3, sample_count=4, seed=0)
    for _ in range(400):
        e = rng.integers(0, len(expert), size=128)
        agent = (rng.uniform(0, 1, (128, 1)), rng.uniform(-1.5, 1.5, (128, 1)))
        clf, _ = drail_update(clf, (expert.states[e], expert.actions[e]), agent, rng)
    eval_clf = dataclasses.replace(clf, sample_count=16)
    r_expert, _ = reward_for(eval_clf, expert.states[:500], expert.actions[:500], np.random.default_rng(1))
    r_agent, _ = reward_for(
        eval_clf, rng.uniform(0, 1, (500, 1)), rng.uniform(-1.5, 1.5, (500, 1)), np.random.default_rng(2)
    )
    assert r_expert.mean() > r_agent.mean() + 0.1


# --- behavior cloning --------------------------------------------------------


def test_bc_zero_epochs_is_noop():
    ds = sine_expert_sample(SineWorldSpec(), 50, np.random.default_rng(0))
    policy = build_policy(1, 1, hidden=(8,), seed=0)
    out = bc_train(ds, policy, 0, 1e-3, np.random.default_rng(1))
    assert out.mean_params.values.tobytes() == policy.mean_params.values.tobytes()


def test_bc_single_pair_regression():
    s = np.tile([[0.3]], (8, 1))
    a = np.tile([[0.55]], (8, 1))
    ds = envs.ExpertDataset(s, a, np.ones(8, dtype=bool))
    policy = build_policy(1, 1, hidden=(16,), seed=2)
    policy = bc_train(ds, policy, 400, 1e-2, np.random.default_rng(3))
    assert abs(float(policy_mean_batch(policy, s[:1])[0, 0]) - 0.55) < 1e-2


def test_bc_loss_decreases():
    ds = sine_expert_sample(SineWorldSpec(), 200, np.random.default_rng(4))
    policy = build_policy(1, 1, hidden=(32,), seed=5)
    before = bc_loss(policy, ds)
    policy = bc_train(ds, policy, 50, 1e-3, np.random.default_rng(6))
    assert bc_loss(policy, ds) < before


# --- evaluation --------------------------------------------------------------


def test_evaluate_scripted_expert():
    report = evaluate(envs.scripted_actor, "point_reach", 100, seed=0)
    assert report.success_rate >= 0.99
    assert report.episodes == 100
    assert report.mean_return == report.success_rate


def test_evaluate_immobile_policy_fails():
    report = evaluate(lambda obs: np.zeros(2), "point_reach", 20, seed=1)
    assert report.success_rate == 0.0


def test_evaluate_per_seed_breakdown():
    report = evaluate(envs.scripted_actor, "point_reach", 10, seed=3, n_seeds=2)
    assert len(report.per_seed) == 2
    assert report.per_seed[0][0] == 3 and report.per_seed[1][0] == 4
    # totals aggregate the per-seed counts exactly
    assert report.success_rate == pytest.approx(np.mean([r for _, r in report.per_seed]))


def _pd_like_policy():
    """A 6-2-2 mean net near the scripted PD law: a hidden tanh layer of
    0.1 times the law's gains, read out at 10x."""
    policy = build_policy(6, 2, hidden=(2,), seed=0)
    gains = np.hstack([-envs.PD_KP * np.eye(2), -envs.PD_KD * np.eye(2), envs.PD_KP * np.eye(2)])
    values = np.concatenate([(0.1 * gains).ravel(), np.zeros(2), (10.0 * np.eye(2)).ravel(), np.zeros(2)])
    return dataclasses.replace(policy, mean_params=policy.mean_params.with_values(values))


@pytest.mark.parametrize("n_seeds", [1, 3])
@pytest.mark.parametrize("wall, horizon", [(False, 12), (True, 18)])  # short enough that some episodes fail
@pytest.mark.parametrize("actor", ["scripted", "policy"])
def test_evaluate_matches_reference_episode_loop(actor, wall, horizon, n_seeds):
    policy = envs.scripted_actor if actor == "scripted" else _pd_like_policy()
    one_row = policy if actor == "scripted" else (lambda obs: policy_mean_batch(policy, obs[None, :])[0])
    report = evaluate(policy, "point_reach", 30, seed=5, horizon=horizon, wall=wall, n_seeds=n_seeds)
    assert list(report.per_seed) == evaluate_reference(one_row, 30, 5, horizon, wall, n_seeds)
    assert 0.0 < report.success_rate < 1.0


def test_evaluate_deterministic():
    policy = build_policy(6, 2, hidden=(8,), seed=0)
    r1 = evaluate(policy, "point_reach", 5, seed=2)
    r2 = evaluate(policy, "point_reach", 5, seed=2)
    assert r1 == r2


def test_evaluate_stochastic_actor_has_its_own_stream(monkeypatch):
    # each eval stream's action noise must not replay the words that drew
    # its start states
    env_rngs, actor_rngs = [], []
    real_actor = trainer.policy_actor

    def spy_env(*args, **kw):
        env = make_env(*args, **kw)
        env_rngs.append(copy.deepcopy(env._rng))
        return env

    def spy_actor(policy, stochastic, rng):
        actor_rngs.append(copy.deepcopy(rng))
        return real_actor(policy, stochastic, rng)

    monkeypatch.setattr(trainer, "make_env", spy_env)
    monkeypatch.setattr(trainer, "policy_actor", spy_actor)
    policy = build_policy(6, 2, hidden=(8,), seed=0)
    evaluate(policy, "point_reach", 4, seed=7, stochastic=True, n_seeds=2)
    assert len(env_rngs) == len(actor_rngs) == 2
    for sub_seed, env_rng, actor_rng in zip((7, 8), env_rngs, actor_rngs):
        env_draws = env_rng.standard_normal(8)
        assert np.array_equal(env_draws, np.random.default_rng(sub_seed).standard_normal(8))
        assert not np.any(actor_rng.standard_normal(8) == env_draws)


# --- reward landscape ---------------------------------------------------------


def test_reward_map_uninformed_is_half():
    clf = build_drail(1, 1, label_dim=0, hidden=(16, 16), T=20, seed=3)
    grid = sine_grid(5, 7)
    rm = reward_map(clf, grid, np.random.default_rng(0), samples_per_cell=2)
    assert rm.values.shape == (5, 7)
    assert np.all(rm.values == 0.5)
    assert rm.method == "drail"


def test_reward_map_deterministic_given_seed():
    clf = build_drail(1, 1, hidden=(8, 8), T=10, seed=4)
    grid = sine_grid(4, 5)
    a = reward_map(clf, grid, np.random.default_rng(7), 3)
    b = reward_map(clf, grid, np.random.default_rng(7), 3)
    assert np.array_equal(a.values, b.values)
    assert grid_to_csv(a) == grid_to_csv(b)


def test_reward_map_rejects_wrong_dims():
    disc = build_gail(6, 2, hidden=(8,), seed=0)
    with pytest.raises(ValueError, match="1-D state"):
        reward_map(disc, sine_grid(3, 3), np.random.default_rng(0))


def test_grid_csv_layout():
    clf = build_drail(1, 1, label_dim=0, hidden=(8, 8), T=10, seed=0)
    rm = reward_map(clf, sine_grid(3, 4), np.random.default_rng(0))
    lines = grid_to_csv(rm).strip().split("\n")
    assert len(lines) == 4  # header + 3 s-rows
    assert lines[0].startswith(",")
    for line in lines:
        assert len(line.split(",")) == 5  # axis column + 4 a-cells


# --- metrics formatting --------------------------------------------------------


def test_metrics_csv_format():
    rows = [
        {
            "env_steps": 2048, "iter": 1, "disc_loss": 1.25, "ppo_loss": -0.5,
            "mean_reward": 0.1, "success_rate": None, "mean_return": None,
            "clip_frac": 0.0, "clamped_rewards": 3,
        }
    ]
    text = metrics_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "env_steps,iter,disc_loss,ppo_loss,mean_reward,success_rate,mean_return,clip_frac,clamped_rewards"
    assert lines[1] == "2048,1,1.25,-0.5,0.1,,,0.0,3"


# --- the training loop ----------------------------------------------------------


@pytest.mark.parametrize("overrides, n, minibatches", [
    ({}, 1, 2),  # 64-step rollout / 32-sample batches
    ({"total_env_steps": 128, "disc_batch": 24}, 2, 6),  # ceil(64 / 24) = 3 batches per iteration
], ids=["one_iteration", "ragged_batches"])
def test_train_single_iteration_counters(sine_expert_file, monkeypatch, overrides, n, minibatches):
    # the counts are derived from n and cfg; the spy checks them against the updates run
    updates = []
    real_update = DrailClassifier.update
    monkeypatch.setattr(DrailClassifier, "update", lambda *a: updates.append(1) or real_update(*a))
    result = train(_tiny_cfg(sine_expert_file, **overrides))
    c = result.counters
    assert len(updates) == minibatches
    assert c["iterations"] == n
    assert c["rollouts"] == n and c["labelings"] == n and c["gae_passes"] == n
    assert c["disc_minibatches"] == minibatches
    assert c["ppo_passes"] == 2 * n  # epochs=2 per iteration
    assert len(result.metrics) == n
    row = result.metrics[-1]
    assert row["env_steps"] == 64 * n and row["iter"] == n
    # the final iteration always evaluates
    assert row["success_rate"] is not None
    assert result.final_eval is not None


def test_train_determinism(sine_expert_file):
    cfg = _tiny_cfg(sine_expert_file, total_env_steps=128)
    a = train(cfg)
    b = train(cfg)
    assert a.csv_text == b.csv_text
    assert a.policy.mean_params.values.tobytes() == b.policy.mean_params.values.tobytes()


def test_train_metrics_increasing_and_eval_gaps(sine_expert_file):
    cfg = _tiny_cfg(sine_expert_file, total_env_steps=192)
    result = train(cfg)
    steps = [row["env_steps"] for row in result.metrics]
    assert steps == sorted(steps) and len(set(steps)) == len(steps)
    assert [row["iter"] for row in result.metrics] == [1, 2, 3]
    # eval_interval is huge: only the final row carries eval columns
    assert [row["success_rate"] is None for row in result.metrics] == [True, True, False]
    for line in result.csv_text.strip().split("\n")[1:3]:
        assert line.split(",")[5] == ""


def test_train_eval_every_iteration(sine_expert_file):
    cfg = _tiny_cfg(sine_expert_file, total_env_steps=128, eval_interval=64)
    result = train(cfg)
    assert all(row["success_rate"] is not None for row in result.metrics)


def test_train_gail_and_diffail_run(sine_expert_file):
    for method in ("gail", "diffail"):
        result = train(_tiny_cfg(sine_expert_file, method=method))
        assert result.counters["iterations"] == 1
        assert result.discriminator is not None


def test_train_gae_runs_per_env_column(point_expert_file, monkeypatch):
    # train splits the env-major buffer into its _N_ENVS env columns of 4
    # rows, one compute_gae call each with that env's bootstrap value
    k = trainer._N_ENVS
    gae_calls, buffers = [], []
    real_gae, real_ppo = trainer.compute_gae, trainer.ppo_update

    def gae_spy(*args):
        out = real_gae(*args)
        gae_calls.append((args, out))
        return out

    def ppo_spy(policy, vf, buffer, *args):
        buffers.append(buffer)
        return real_ppo(policy, vf, buffer, *args)

    monkeypatch.setattr(trainer, "compute_gae", gae_spy)
    monkeypatch.setattr(trainer, "ppo_update", ppo_spy)
    cfg = _tiny_cfg(point_expert_file, env="point_reach", horizon=3,
                    total_env_steps=8 * k, ppo=PpoConfig(rollout_steps=4 * k, minibatch_size=32, epochs=1))
    train(cfg)
    assert len(buffers) == 2 and len(gae_calls) == 2 * k
    for it, buf in enumerate(buffers):
        advs = []
        for e in range(k):
            (rewards, values, dones, gamma, lam), (adv, rets) = gae_calls[k * it + e]
            seg = slice(4 * e, 4 * e + 4)
            assert rewards.tobytes() == buf.rewards[seg].tobytes()
            assert values.tobytes() == np.append(buf.values[seg], buf.bootstrap_value[e]).tobytes()
            assert dones.tobytes() == buf.dones[seg].tobytes()
            assert (gamma, lam) == (cfg.ppo.gamma, cfg.ppo.gae_lambda)
            assert rets.tobytes() == buf.returns[seg].tobytes()
            advs.append(adv)
        assert buf.advantages.tobytes() == trainer.normalize_advantages(np.concatenate(advs)).tobytes()
        # rows of one env follow each other in time: each row is the
        # previous row stepped, unless the previous step ended an episode
        for e in range(k):
            for t in range(4 * e + 1, 4 * e + 4):
                if buf.dones[t - 1]:
                    continue
                prev = buf.states[t - 1]
                state = envs.PointReachState(prev[:2], prev[2:4], prev[4:], 0)
                stepped, _, _, _ = envs.point_step(state, buf.actions[t - 1])
                assert buf.states[t].tobytes() == envs.observe(stepped).tobytes()
    assert any(buf.dones.any() for buf in buffers)


def test_train_bc_branch(sine_expert_file):
    cfg = _tiny_cfg(sine_expert_file, method="bc", total_env_steps=0, bc_epochs=20)
    result = train(cfg)
    assert result.counters["iterations"] == 0
    assert result.discriminator is None
    assert len(result.metrics) == 1
    row = result.metrics[0]
    assert row["env_steps"] == 0 and row["disc_loss"] is None
    assert isinstance(row["ppo_loss"], float)  # the supervised loss
    assert row["success_rate"] is not None


def test_train_dim_mismatch(sine_expert_file):
    cfg = _tiny_cfg(sine_expert_file, env="point_reach", noise_scale=1.0)
    with pytest.raises(ValueError, match="do not match"):
        train(cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_nan_aborts_with_context(sine_expert_file):
    cfg = _tiny_cfg(
        sine_expert_file,
        total_env_steps=128,
        ppo=PpoConfig(rollout_steps=64, minibatch_size=32, epochs=2, lr=1e300),
    )
    with pytest.raises(NumericalAbort, match="iteration"):
        train(cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("method", ["drail", "gail", "diffail"])
def test_train_non_finite_rollout_aborts_in_the_discriminator_update(sine_expert_file, monkeypatch, method, bad):
    collect = trainer.collect_rollout

    def poisoned(*args, **kwargs):
        buffer = collect(*args, **kwargs)
        buffer.states[5, 0] = bad
        return buffer

    monkeypatch.setattr(trainer, "collect_rollout", poisoned)
    with pytest.raises(NumericalAbort, match="iteration 1, discriminator update: .*non-finite"):
        train(_tiny_cfg(sine_expert_file, method=method))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_bc_nan_aborts(sine_expert_file):
    cfg = _tiny_cfg(sine_expert_file, method="bc", bc_epochs=3, bc_lr=1e308)
    with pytest.raises(NumericalAbort, match="behavior cloning"):
        train(cfg)


def _reject(*args, **kwargs):
    raise ValueError("rejected")


def test_train_stage_rejection_is_a_numerical_abort_whatever_its_text(sine_expert_file, monkeypatch):
    # the config, the dataset and the widths are checked before the first
    # stage, so a value a stage rejects is one the run made
    monkeypatch.setattr(trainer, "compute_gae", _reject)
    with pytest.raises(NumericalAbort, match="^iteration 1, advantage estimation: rejected$"):
        train(_tiny_cfg(sine_expert_file))


@pytest.mark.parametrize("method, iteration", [("drail", 2), ("bc", 1)])
def test_train_evaluation_runs_in_an_abort_scope(sine_expert_file, monkeypatch, method, iteration):
    monkeypatch.setattr(trainer, "evaluate", _reject)
    cfg = _tiny_cfg(sine_expert_file, method=method, total_env_steps=128, bc_epochs=1)
    with pytest.raises(NumericalAbort, match=f"^iteration {iteration}, evaluation: rejected$"):
        train(cfg)


def test_train_point_reach_smoke(point_expert_file):
    cfg = _tiny_cfg(point_expert_file, env="point_reach", total_env_steps=256,
                    ppo=PpoConfig(rollout_steps=256, minibatch_size=64, epochs=2))
    result = train(cfg)
    assert result.counters["iterations"] == 1
    assert result.metrics[0]["clamped_rewards"] >= 0
