import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drail_lab import policy_opt as po
from drail_lab.errors import NumericalAbort
from drail_lab.policy_opt import (
    GaussianPolicy,
    PpoConfig,
    RolloutBuffer,
    build_policy,
    build_value_fn,
    clipped_surrogate,
    compute_gae,
    load_policy,
    logp_grad,
    normalize_advantages,
    policy_logp_entropy,
    policy_sample,
    policy_theta,
    ppo_update,
    save_policy,
    value_batch,
)

from oracles import fd_grad, gae_brute_force, gaussian_logp_by_hand, policy_sample_reference, rel_err

LOG_2PI = math.log(2.0 * math.pi)


# --- sampling and densities ---------------------------------------------


def test_policy_sample_tight_std():
    policy = build_policy(2, 2, hidden=(8,), seed=0, init_log_std=-5.0)
    s = np.array([0.1, -0.2])
    mean = po.policy_mean_batch(policy, s[None, :])[0]
    action, _ = policy_sample(policy, s, np.random.default_rng(0))
    assert np.all(np.abs(action - mean) < 5.0 * math.exp(-5.0))


def test_policy_sample_deterministic_given_seed():
    policy = build_policy(2, 1, hidden=(8,), seed=1)
    s = np.array([0.3, 0.4])
    a1, l1 = policy_sample(policy, s, np.random.default_rng(7))
    a2, l2 = policy_sample(policy, s, np.random.default_rng(7))
    assert np.array_equal(a1, a2) and l1 == l2
    # the same bytes as the expression written out in full
    a3, l3 = policy_sample_reference(policy, s, np.random.default_rng(7))
    assert a1.tobytes() == a3.tobytes() and l1 == l3


def test_logp_of_mean_action():
    policy = build_policy(3, 2, hidden=(8,), seed=2, init_log_std=0.0)
    s = np.array([0.1, 0.2, 0.3])
    mean = po.policy_mean_batch(policy, s[None, :])[0]
    logp, _ = policy_logp_entropy(policy, s, mean)
    assert logp == pytest.approx(-LOG_2PI, abs=1e-12)


def test_sample_mean_monte_carlo():
    policy = build_policy(1, 1, hidden=(8,), seed=3, init_log_std=0.0)
    s = np.array([0.5])
    mean = po.policy_mean_batch(policy, s[None, :])[0, 0]
    rng = np.random.default_rng(11)
    n = 10_000
    samples = np.array([policy_sample(policy, s, rng)[0][0] for _ in range(n)])
    assert abs(samples.mean() - mean) < 4.0 / math.sqrt(n)


def test_logp_matches_hand_formula():
    policy = build_policy(2, 3, hidden=(8,), seed=4, init_log_std=-0.3)
    s = np.array([0.7, -0.1])
    a = np.array([0.2, -0.5, 1.1])
    mean = po.policy_mean_batch(policy, s[None, :])[0]
    logp, _ = policy_logp_entropy(policy, s, a)
    assert logp == pytest.approx(gaussian_logp_by_hand(mean, policy.log_std, a), abs=1e-12)


def test_entropy_closed_form():
    policy = build_policy(1, 1, hidden=(4,), seed=0, init_log_std=0.0)
    _, entropy = policy_logp_entropy(policy, np.zeros(1), np.zeros(1))
    assert entropy == pytest.approx(0.5 * (1.0 + LOG_2PI), abs=1e-12)


def test_entropy_doubles_std_adds_log2_per_dim():
    p1 = build_policy(1, 3, hidden=(4,), seed=0, init_log_std=0.0)
    p2 = build_policy(1, 3, hidden=(4,), seed=0, init_log_std=math.log(2.0))
    assert po.policy_entropy(p2) - po.policy_entropy(p1) == pytest.approx(3.0 * math.log(2.0), abs=1e-12)


def test_entropy_matches_monte_carlo():
    policy = build_policy(1, 2, hidden=(6,), seed=5, init_log_std=0.2)
    s = np.array([0.4])
    rng = np.random.default_rng(3)
    n = 10_000
    neg_logps = []
    for _ in range(n):
        _, logp = policy_sample(policy, s, rng)
        neg_logps.append(-logp)
    neg_logps = np.array(neg_logps)
    se = neg_logps.std() / math.sqrt(n)
    assert abs(neg_logps.mean() - po.policy_entropy(policy)) < 3.0 * se


def test_logp_gradient_matches_fd():
    policy = build_policy(2, 2, hidden=(6,), seed=6, init_log_std=-0.2)
    s = np.array([0.3, -0.4])
    a = np.array([0.5, 0.1])
    grad = logp_grad(policy, s, a)

    def scalar(theta):
        return policy_logp_entropy(po.policy_with_theta(policy, theta), s, a)[0]

    assert rel_err(grad, fd_grad(scalar, policy_theta(policy))) < 1e-6


def test_log_std_clamped():
    policy = build_policy(1, 2, hidden=(4,), seed=0, init_log_std=9.0)
    assert np.all(policy.log_std == po.LOG_STD_MAX)
    policy = build_policy(1, 2, hidden=(4,), seed=0, init_log_std=-9.0)
    assert np.all(policy.log_std == po.LOG_STD_MIN)


# --- GAE ------------------------------------------------------------------


def test_gae_two_step_example():
    adv, rets = compute_gae(np.array([1.0, 1.0]), np.zeros(3), np.array([False, False]), 1.0, 1.0)
    assert np.allclose(adv, [2.0, 1.0])
    assert np.allclose(rets, [2.0, 1.0])


def test_gae_lambda_zero_is_td_residual():
    rng = np.random.default_rng(0)
    rewards = rng.normal(size=8)
    values = rng.normal(size=9)
    dones = rng.random(8) < 0.25
    adv, _ = compute_gae(rewards, values, dones, 0.9, 0.0)
    for t in range(8):
        nt = 0.0 if dones[t] else 1.0
        assert adv[t] == pytest.approx(rewards[t] + 0.9 * nt * values[t + 1] - values[t], abs=1e-12)


def test_gae_matches_brute_force_10_steps():
    rng = np.random.default_rng(1)
    rewards = rng.normal(size=10)
    values = rng.normal(size=11)
    dones = np.zeros(10, dtype=bool)
    dones[4] = True
    adv, _ = compute_gae(rewards, values, dones, 0.99, 0.95)
    want = gae_brute_force(rewards, values, dones, 0.99, 0.95)
    assert np.max(np.abs(adv - want)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 32),
    seed=st.integers(0, 10_000),
    gamma=st.floats(0.5, 1.0),
    lam=st.floats(0.0, 1.0),
)
def test_gae_brute_force_property(n, seed, gamma, lam):
    rng = np.random.default_rng(seed)
    rewards = rng.normal(size=n)
    values = rng.normal(size=n + 1)
    dones = rng.random(n) < 0.2
    adv, rets = compute_gae(rewards, values, dones, gamma, lam)
    want = gae_brute_force(rewards, values, dones, gamma, lam)
    assert np.max(np.abs(adv - want)) < 1e-12
    assert np.allclose(rets, adv + values[:n], atol=1e-12)


def test_gae_rounds_as_the_float64_scalar_recursion_bitwise():
    # every product and sum of the recursion in its written order, on numpy
    # float64 scalars: the golden runs' advantages hang on this association.
    # 64 lockstep columns of 32 steps, with dones mid-column and on the last
    # step of some columns
    rng = np.random.default_rng(12)
    rewards, values = rng.normal(size=(64, 32)), rng.normal(size=(64, 33))
    dones = rng.random((64, 32)) < 0.1
    dones[::3, -1] = True
    assert dones[:, 1:-1].any() and dones[:, -1].any() and not dones[:, -1].all()
    gamma, lam = 0.99, 0.95
    for r, v, d in zip(rewards, values, dones):
        want = np.empty(32)
        carry = np.float64(0.0)
        for t in range(31, -1, -1):
            nonterminal = np.float64(0.0 if d[t] else 1.0)
            delta = r[t] + gamma * nonterminal * v[t + 1] - v[t]
            carry = delta + gamma * lam * nonterminal * carry
            want[t] = carry
        adv, rets = compute_gae(r, v, d, gamma, lam)
        assert adv.tobytes() == want.tobytes()
        assert rets.tobytes() == (want + v[:32]).tobytes()


def test_gae_length_mismatch():
    with pytest.raises(ValueError, match="bootstrap"):
        compute_gae(np.zeros(3), np.zeros(3), np.zeros(3, dtype=bool), 0.99, 0.95)


def test_normalize_advantages_shift_invariant():
    rng = np.random.default_rng(2)
    adv = rng.normal(size=100)
    a = normalize_advantages(adv)
    b = normalize_advantages(adv + 13.7)
    assert np.allclose(a, b, atol=1e-9)
    assert abs(a.mean()) < 1e-12
    assert a.std() == pytest.approx(1.0, abs=1e-6)


# --- PPO --------------------------------------------------------------------


def test_clip_arithmetic():
    assert clipped_surrogate(np.array([1.5]), np.array([1.0]), 0.2)[0] == pytest.approx(1.2)
    assert clipped_surrogate(np.array([0.5]), np.array([-1.0]), 0.2)[0] == pytest.approx(-0.8)
    assert clipped_surrogate(np.array([1.0]), np.array([0.7]), 0.2)[0] == pytest.approx(0.7)


def _make_buffer(policy, vf, rng, n=128, state_dim=1, reward_fn=None):
    states = rng.uniform(-1, 1, size=(n, state_dim))
    actions = np.empty((n, policy.action_dim))
    logps = np.empty(n)
    for i in range(n):
        actions[i], logps[i] = policy_sample(policy, states[i], rng)
    rewards = np.zeros(n) if reward_fn is None else reward_fn(states, actions)
    values = value_batch(vf, states)
    dones = np.ones(n, dtype=bool)  # one-step episodes
    buffer = RolloutBuffer(states, actions, logps, values, rewards, dones, 0.0)
    adv, rets = compute_gae(rewards, np.append(values, 0.0), dones, 0.99, 0.95)
    buffer.advantages = normalize_advantages(adv)
    buffer.returns = rets
    return buffer


def test_ppo_requires_normalized_advantages():
    policy = build_policy(1, 1, hidden=(8,), seed=0)
    vf = build_value_fn(1, hidden=(8,), seed=1)
    rng = np.random.default_rng(0)
    buffer = _make_buffer(policy, vf, rng, n=32)
    buffer.advantages = buffer.advantages * 10.0 + 3.0
    with pytest.raises(ValueError, match="normalized"):
        ppo_update(policy, vf, buffer, PpoConfig(minibatch_size=16, epochs=1), rng)


def test_ppo_first_ratio_is_one_and_stats_sane():
    policy = build_policy(1, 1, hidden=(8,), seed=0)
    vf = build_value_fn(1, hidden=(8,), seed=1)
    rng = np.random.default_rng(1)
    buffer = _make_buffer(policy, vf, rng, n=64, reward_fn=lambda s, a: -(a[:, 0] ** 2))
    _, _, _, stats = ppo_update(policy, vf, buffer, PpoConfig(minibatch_size=32, epochs=2, lr=1e-3), rng)
    assert stats["initial_ratio_err"] < 1e-9
    assert 0.0 <= stats["clip_frac"] <= 1.0
    assert math.isfinite(stats["ppo_loss"])


def test_ppo_approx_kl_is_the_last_epochs_mean_log_ratio():
    # one minibatch of all rows, drawn from the policy: epoch 1 scores the
    # rows before any step, so its KL is 0; epoch 2 scores them with the
    # policy after epoch 1's single step, which an epochs=1 update from the
    # same rng state returns
    policy = build_policy(2, 1, hidden=(8,), seed=3)
    vf = build_value_fn(2, hidden=(8,), seed=4)
    buffer = _make_buffer(policy, vf, np.random.default_rng(5), n=48, state_dim=2,
                          reward_fn=lambda s, a: -(a[:, 0] ** 2))
    one = PpoConfig(minibatch_size=48, epochs=1, lr=1e-2)
    p1, _, _, stats = ppo_update(policy, vf, buffer, one, np.random.default_rng(6))
    assert abs(stats["approx_kl"]) <= 1e-12 and stats["epochs"] == 1
    _, _, _, stats = ppo_update(policy, vf, buffer, replace(one, epochs=2), np.random.default_rng(6))
    want = float(np.mean(buffer.log_probs - po.logp_batch(p1, buffer.states, buffer.actions)))
    assert abs(want) > 1e-6  # the step moved the policy
    assert stats["approx_kl"] == pytest.approx(want, abs=1e-12)
    assert stats["epochs"] == 2


def test_ppo_bandit_converges_to_optimum():
    # one-state bandit, reward -(a - 0.7)^2: the optimum action is 0.7
    policy = build_policy(1, 1, hidden=(16,), seed=3, init_log_std=-0.5)
    vf = build_value_fn(1, hidden=(16,), seed=4)
    cfg = PpoConfig(minibatch_size=64, epochs=4, lr=0.01, entropy_coef=0.0)
    opt = None
    rng = np.random.default_rng(5)

    def reward_fn(states, actions):
        return -((actions[:, 0] - 0.7) ** 2)

    for _ in range(200):
        buffer = _make_buffer(policy, vf, rng, n=128, reward_fn=reward_fn)
        policy, vf, opt, _ = ppo_update(policy, vf, buffer, cfg, rng, opt)

    probe = np.linspace(-1, 1, 9)[:, None]
    means = po.policy_mean_batch(policy, probe)
    assert np.all(np.abs(means - 0.7) < 0.05)


def test_ppo_nan_aborts():
    policy = build_policy(1, 1, hidden=(8,), seed=0)
    vf = build_value_fn(1, hidden=(8,), seed=1)
    rng = np.random.default_rng(0)
    buffer = _make_buffer(policy, vf, rng, n=32)
    buffer.returns = buffer.returns.copy()
    buffer.returns[3] = np.nan
    with pytest.raises(NumericalAbort):
        ppo_update(policy, vf, buffer, PpoConfig(minibatch_size=32, epochs=1), rng)


def test_ppo_surrogate_gradient_matches_fd():
    # single minibatch, no clipping active: check the assembled policy
    # gradient against finite differences of the surrogate objective
    policy = build_policy(2, 1, hidden=(6,), seed=7, init_log_std=-0.1)
    rng = np.random.default_rng(8)
    n = 16
    states = rng.uniform(-1, 1, size=(n, 2))
    actions = np.empty((n, 1))
    logps = np.empty(n)
    for i in range(n):
        actions[i], logps[i] = policy_sample(policy, states[i], rng)
    adv = normalize_advantages(rng.normal(size=n))

    def objective(theta):
        trial = po.policy_with_theta(policy, theta)
        logp_new = po.logp_batch(trial, states, actions)
        ratio = np.exp(logp_new - logps)
        return float(np.mean(clipped_surrogate(ratio, adv, 0.2)))

    theta0 = policy_theta(policy)
    # analytic gradient at theta0: ratios are exactly 1, surrogate unclipped
    means = po.policy_mean_batch(policy, states)
    inv_var = np.exp(-2.0 * policy.log_std)
    dsurr_dlogp = adv / n
    from drail_lab import nn_core

    g_net = nn_core.backward_batch(policy.mean_params, policy.specs, states, dsurr_dlogp[:, None] * (actions - means) * inv_var)
    g_ls = dsurr_dlogp @ ((actions - means) ** 2 * inv_var - 1.0)
    grad = np.concatenate([g_net, g_ls])
    assert rel_err(grad, fd_grad(objective, theta0)) < 1e-5


# --- checkpoints -------------------------------------------------------------


def test_policy_checkpoint_roundtrip(tmp_path):
    policy = build_policy(6, 2, hidden=(16, 16), seed=9, init_log_std=-0.7)
    path = str(tmp_path / "policy.drlp")
    save_policy(path, policy)
    loaded = load_policy(path)
    assert loaded.state_dim == 6 and loaded.action_dim == 2
    assert np.array_equal(loaded.log_std, policy.log_std)
    assert loaded.mean_params.values.tobytes() == policy.mean_params.values.tobytes()


def test_policy_checkpoint_bad_trailer(tmp_path):
    policy = build_policy(2, 1, hidden=(4,), seed=0)
    path = str(tmp_path / "policy.drlp")
    save_policy(path, policy)
    with open(path, "ab") as fh:
        fh.write(b"xx")
    with pytest.raises(ValueError, match="log-std"):
        load_policy(path)
