"""Acceptance gate: ten numbered end-to-end checks, one verdict line each.

Each test prints `criterion NN: PASS/FAIL | <measured values>` before
asserting, so a plain `pytest tests/test_acceptance.py -v -rA` shows all
ten verdicts with their numbers. Checks 6 through 9 train real models and
dominate the runtime (budget 15 to 20 minutes for the file).
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from drail_lab import diffusion, nn_core
from drail_lab import policy_opt as po
from drail_lab.diffusion import build_cosine_schedule, build_denoiser, diffusion_loss_single, fake_label, real_label
from drail_lab.discriminators import (
    build_diffail,
    build_drail,
    build_gail,
    diffail_disc_loss,
    diffail_loss_batch,
    diffail_update,
    discriminator_probs,
    drail_disc_loss,
    drail_logit,
    drail_logit_batch,
    drail_prob,
    drail_update,
    gail_disc_loss,
    gail_logit_batch,
    gail_update,
    load_discriminator,
    reward_for,
    save_discriminator,
)
from drail_lab.envs import (
    SineWorldSpec,
    dataset_load,
    dataset_save,
    expert_curve,
    gen_expert_dataset,
    sine_expert_sample,
)
from drail_lab.policy_opt import (
    PpoConfig,
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
    policy_with_theta,
    save_policy,
)
from drail_lab.trainer import TrainConfig, train

from oracles import cosine_alpha_bar_by_hand, fd_grad, gae_brute_force, rel_err

SPEC = SineWorldSpec()
LOG2 = math.log(2.0)


def _verdict(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} | {detail}"
    print(line)
    return line


class _FixedDraws:
    """Generator stand-in replaying one pinned (t, eps) draw set, so a loss
    can be re-evaluated at wiggled parameters under identical noise."""

    def __init__(self, ts: np.ndarray, eps: np.ndarray):
        self._ts = np.asarray(ts)
        self._eps = np.asarray(eps)

    def integers(self, low, high, size):
        assert size == self._ts.size
        return self._ts.copy()

    def standard_normal(self, shape):
        assert shape == self._eps.shape
        return self._eps.copy()


def _uniform_pairs(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    return rng.uniform(0.0, 1.0, (n, 1)), rng.uniform(-1.5, 1.5, (n, 1))


def _chunked(score, states: np.ndarray, actions: np.ndarray, seed: int, size: int = 250) -> np.ndarray:
    # many-draw eval in point chunks keeps the row blow-up off the heap
    parts = [
        score(states[i : i + size], actions[i : i + size], np.random.default_rng((seed, i)))
        for i in range(0, states.shape[0], size)
    ]
    return np.concatenate(parts)


def _with_denoiser_theta(disc, theta: np.ndarray):
    den = disc.denoiser
    return dataclasses.replace(disc, denoiser=den.with_params(den.params.with_values(theta)))


# --- 1: reward identity ------------------------------------------------------


def test_criterion_01_reward_equals_classifier_log_odds():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst, n_total = 0.0, 0
    for _ in range(20):
        clf = build_drail(
            2,
            1,
            label_dim=int(rng.choice([4, 10])),
            hidden=(8, 8),
            time_embed_dim=8,
            T=int(rng.choice([8, 100, 1000])),
            sample_count=int(rng.choice([1, 2, 4])),
            seed=int(rng.integers(0, 2**31)),
        )
        states = rng.uniform(-1.0, 1.0, (50, 2))
        actions = rng.uniform(-1.0, 1.0, (50, 1))
        seed = int(rng.integers(0, 2**31))
        # two independent code paths, draws shared through the seed
        rewards, _ = reward_for(clf, states, actions, np.random.default_rng(seed))
        probs = discriminator_probs(clf, np.column_stack([states, actions]), np.random.default_rng(seed))
        log_odds = np.log(probs) - np.log1p(-probs)
        worst = max(worst, float(np.max(np.abs(rewards - log_odds))))
        n_total += 50
    dt = time.perf_counter() - t0
    ok = n_total == 1000 and worst < 1e-9 and dt < 5.0
    _verdict(1, ok, f"{n_total} instances, max |reward - log-odds| {worst:.2e} (tol 1e-9), {dt:.2f}s")
    assert ok


# --- 2: decision boundaries --------------------------------------------------


def test_criterion_02_decision_boundaries():
    rng = np.random.default_rng(202)

    drail_agree = 0
    for model in range(5):
        clf = build_drail(
            1,
            1,
            label_dim=int(rng.choice([4, 10])),
            hidden=(8, 8),
            time_embed_dim=8,
            T=64,
            sample_count=int(rng.choice([1, 2])),
            seed=int(rng.integers(0, 2**31)),
        )
        m, dim = clf.sample_count, clf.denoiser.label_dim
        for i in range(100):
            s, a = rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)
            delta, (ts, eps) = drail_logit(clf, s, a, np.random.default_rng(10_000 + 100 * model + i))
            # replay the same draws through each label branch separately
            x0 = np.repeat(np.concatenate([s, a])[None, :], m, axis=0)
            loss_real = diffusion.batched_losses(clf.denoiser, x0, ts, eps, np.ones((m, dim)))[0].mean()
            loss_fake = diffusion.batched_losses(clf.denoiser, x0, ts, eps, np.zeros((m, dim)))[0].mean()
            drail_agree += (drail_prob(delta) > 0.5) == (loss_real < loss_fake)

    diffail_agree = 0
    for model in range(5):
        disc = build_diffail(1, 1, hidden=(8, 8), time_embed_dim=8, T=64, seed=int(rng.integers(0, 2**31)))
        states, actions = rng.uniform(-1, 1, (100, 1)), rng.uniform(-1, 1, (100, 1))
        seed = int(rng.integers(0, 2**31))
        losses = diffail_loss_batch(disc, states, actions, np.random.default_rng(seed))
        probs = discriminator_probs(disc, np.column_stack([states, actions]), np.random.default_rng(seed))
        diffail_agree += int(np.sum((probs > 0.5) == (losses < LOG2)))

    ok = drail_agree == 500 and diffail_agree == 500
    _verdict(2, ok, f"relative boundary {drail_agree}/500, fixed ln2 boundary {diffail_agree}/500")
    assert ok


# --- 3: gradient suite -------------------------------------------------------


def test_criterion_03_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    errs = {}

    # denoiser noise-prediction loss under each label; a label's loss reads
    # its own head, so the other head's upstream columns are zero
    den = build_denoiser(1, 1, 2, hidden=(8,), time_embed_dim=4, seed=13)
    s, a = np.array([0.31]), np.array([-0.44])
    t, eps = 40, np.array([0.5, -1.1])
    for head, label in enumerate((real_label(2), fake_label(2))):
        _, inputs, preds = diffusion.batched_losses(
            den, np.concatenate([s, a])[None, :], np.array([t]), eps[None, :], label.embedding[None, :]
        )
        upstream = np.zeros((1, 4))
        upstream[:, 2 * head : 2 * head + 2] = diffusion.loss_grad_upstream(preds, eps[None, :], np.ones(1))
        grad = nn_core.backward_batch(den.params, den.specs, inputs, upstream)
        errs[f"denoiser-{label.kind}"] = rel_err(
            grad,
            fd_grad(
                lambda th: diffusion_loss_single(den.with_params(den.params.with_values(th)), s, a, label, t, eps),
                den.params.values,
            ),
        )

    se, ae = rng.uniform(-1, 1, (6, 2)), rng.uniform(-1, 1, (6, 1))
    sa, aa = rng.uniform(-1, 1, (6, 2)), rng.uniform(-1, 1, (6, 1))

    clf = build_drail(2, 1, label_dim=4, hidden=(32, 32), time_embed_dim=8, T=50, sample_count=2, seed=3)
    draws = _FixedDraws(rng.integers(1, 51, size=24), rng.standard_normal((24, 3)))
    _, grad = drail_disc_loss(clf, (se, ae), (sa, aa), draws)
    errs["drail"] = rel_err(
        grad,
        fd_grad(
            lambda th: drail_disc_loss(_with_denoiser_theta(clf, th), (se, ae), (sa, aa), draws)[0],
            clf.denoiser.params.values,
        ),
    )

    disc = build_diffail(2, 1, hidden=(32, 32), time_embed_dim=8, T=50, seed=4)
    draws = _FixedDraws(rng.integers(1, 51, size=12), rng.standard_normal((12, 3)))
    _, grad = diffail_disc_loss(disc, (se, ae), (sa, aa), draws)
    errs["diffail"] = rel_err(
        grad,
        fd_grad(
            lambda th: diffail_disc_loss(_with_denoiser_theta(disc, th), (se, ae), (sa, aa), draws)[0],
            disc.denoiser.params.values,
        ),
    )

    gail = build_gail(2, 1, hidden=(32, 32), seed=5)
    _, grad = gail_disc_loss(gail, (se, ae), (sa, aa))
    errs["gail"] = rel_err(
        grad,
        fd_grad(
            lambda th: gail_disc_loss(
                dataclasses.replace(gail, params=gail.params.with_values(th)), (se, ae), (sa, aa)
            )[0],
            gail.params.values,
        ),
    )

    policy = build_policy(2, 1, hidden=(32,), seed=7, init_log_std=-0.1)
    s1, a1 = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 1)
    errs["logp"] = rel_err(
        logp_grad(policy, s1, a1),
        fd_grad(lambda th: policy_logp_entropy(policy_with_theta(policy, th), s1, a1)[0], policy_theta(policy)),
    )

    # ppo surrogate at the on-policy point: ratios are exactly 1, unclipped
    n = 16
    states = rng.uniform(-1, 1, (n, 2))
    actions, logps = np.empty((n, 1)), np.empty(n)
    for i in range(n):
        actions[i], logps[i] = policy_sample(policy, states[i], rng)
    adv = normalize_advantages(rng.normal(size=n))

    def surrogate(theta):
        trial = policy_with_theta(policy, theta)
        ratio = np.exp(po.logp_batch(trial, states, actions) - logps)
        return float(np.mean(clipped_surrogate(ratio, adv, 0.2)))

    means = po.policy_mean_batch(policy, states)
    inv_var = np.exp(-2.0 * policy.log_std)
    coeff = (adv / n)[:, None]
    g_net = nn_core.backward_batch(policy.mean_params, policy.specs, states, coeff * (actions - means) * inv_var)
    g_ls = (adv / n) @ ((actions - means) ** 2 * inv_var - 1.0)
    errs["surrogate"] = rel_err(np.concatenate([g_net, g_ls]), fd_grad(surrogate, policy_theta(policy)))

    dt = time.perf_counter() - t0
    worst = max(errs.values())
    ok = worst < 1e-5 and dt < 60.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in errs.items())
    _verdict(3, ok, f"max rel err {worst:.2e} (tol 1e-5): {detail}; {dt:.1f}s")
    assert ok


# --- 4: advantage recursion oracle -------------------------------------------


def test_criterion_04_gae_matches_brute_force():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 33))
        rewards = rng.normal(size=n)
        values = rng.normal(size=n + 1)
        dones = rng.random(n) < 0.15
        gamma, lam = float(rng.uniform(0.9, 0.999)), float(rng.uniform(0.8, 1.0))
        adv, _ = compute_gae(rewards, values, dones, gamma, lam)
        worst = max(worst, float(np.max(np.abs(adv - gae_brute_force(rewards, values, dones, gamma, lam)))))
    ok = worst < 1e-12
    _verdict(4, ok, f"200 episodes, max |recursion - explicit sum| {worst:.2e} (tol 1e-12)")
    assert ok


# --- 5: uninformed baselines -------------------------------------------------


def test_criterion_05_uninformed_baselines():
    rng = np.random.default_rng(505)
    log4 = 2.0 * LOG2
    se, ae = rng.uniform(-1, 1, (8, 2)), rng.uniform(-1, 1, (8, 1))
    sa, aa = rng.uniform(-1, 1, (8, 2)), rng.uniform(-1, 1, (8, 1))

    # zeroed nets sit at the symmetric point D = 1/2 of each loss
    gail = build_gail(2, 1, hidden=(16, 16), seed=1)
    gail0 = dataclasses.replace(gail, params=gail.params.with_values(np.zeros(len(gail.params))))
    loss_g = gail_disc_loss(gail0, (se, ae), (sa, aa))[0]

    clf = build_drail(2, 1, label_dim=10, hidden=(16, 16), time_embed_dim=8, T=32, seed=2)
    clf0 = _with_denoiser_theta(clf, np.zeros(len(clf.denoiser.params)))
    loss_d = drail_disc_loss(clf0, (se, ae), (sa, aa), np.random.default_rng(6))[0]

    # zero predictions plus noise of squared norm ln2 per coordinate puts
    # the per-pair diffusion loss exactly on the fixed boundary
    disc = build_diffail(2, 1, hidden=(16, 16), time_embed_dim=8, T=32, seed=3)
    disc0 = _with_denoiser_theta(disc, np.zeros(len(disc.denoiser.params)))
    draws = _FixedDraws(np.full(16, 7), np.full((16, 3), math.sqrt(LOG2)))
    loss_f = diffail_disc_loss(disc0, (se, ae), (sa, aa), draws)[0]

    dev = max(abs(x - log4) for x in (loss_g, loss_d, loss_f))

    # a label-blind classifier cannot tell its branches apart: reward 0, D 1/2
    peak = 0.0
    for k in range(5):
        blind = build_drail(
            2,
            1,
            label_dim=0,
            hidden=(16, 16),
            time_embed_dim=8,
            T=64,
            sample_count=int(rng.integers(1, 5)),
            seed=int(rng.integers(0, 2**31)),
        )
        rewards, _ = reward_for(blind, rng.uniform(-2, 2, (200, 2)), rng.uniform(-2, 2, (200, 1)), np.random.default_rng(900 + k))
        peak = max(peak, float(np.max(np.abs(rewards))))

    ok = dev < 1e-6 and peak < 0.5
    _verdict(5, ok, f"losses off 2ln2 by {dev:.2e} (tol 1e-6), peak |reward| {peak:.2e} (tol 0.5)")
    assert ok


# --- 6 and 7: sine discrimination --------------------------------------------


@pytest.fixture(scope="module")
def sine_suite():
    """Trains all three sine discriminators once; checks 6 and 7 share it."""
    rng = np.random.default_rng(2026)
    expert = sine_expert_sample(SPEC, 5000, rng)
    se, ae = expert.states, expert.actions
    sa, aa = _uniform_pairs(5000, rng)
    held_e = sine_expert_sample(SPEC, 1000, rng)
    held_s, held_a = _uniform_pairs(1000, rng)
    out = {}

    clf = build_drail(1, 1, hidden=(64, 64), T=1000, lr=6e-3, sample_count=4, seed=0)
    step_rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    for _ in range(2000):
        ie, ia = step_rng.integers(0, 5000, size=512), step_rng.integers(0, 5000, size=512)
        clf, _ = drail_update(clf, (se[ie], ae[ie]), (sa[ia], aa[ia]), step_rng)
    eval_clf = dataclasses.replace(clf, sample_count=256)
    d_e = _chunked(lambda s_, a_, r: drail_logit_batch(eval_clf, s_, a_, r), held_e.states, held_e.actions, 1)
    d_a = _chunked(lambda s_, a_, r: drail_logit_batch(eval_clf, s_, a_, r), held_s, held_a, 2)
    out["drail"] = (0.5 * (np.mean(d_e > 0) + np.mean(d_a <= 0)), time.perf_counter() - t0)
    out["drail_model"] = eval_clf

    disc = build_diffail(1, 1, hidden=(64, 64), T=1000, lr=1e-3, sample_count=4, seed=0)
    t0 = time.perf_counter()
    for _ in range(6000):
        ie, ia = step_rng.integers(0, 5000, size=512), step_rng.integers(0, 5000, size=512)
        disc, _ = diffail_update(disc, (se[ie], ae[ie]), (sa[ia], aa[ia]), step_rng)
    eval_disc = dataclasses.replace(disc, sample_count=256)
    l_e = _chunked(lambda s_, a_, r: diffail_loss_batch(eval_disc, s_, a_, r), held_e.states, held_e.actions, 3)
    l_a = _chunked(lambda s_, a_, r: diffail_loss_batch(eval_disc, s_, a_, r), held_s, held_a, 4)
    out["diffail"] = (0.5 * (np.mean(l_e < LOG2) + np.mean(l_a >= LOG2)), time.perf_counter() - t0)

    gail = build_gail(1, 1, hidden=(64, 64, 64), lr=3e-3, seed=0)
    t0 = time.perf_counter()
    for _ in range(60_000):
        ie, ia = step_rng.integers(0, 5000, size=256), step_rng.integers(0, 5000, size=256)
        gail, _ = gail_update(gail, (se[ie], ae[ie]), (sa[ia], aa[ia]))
    g_e = gail_logit_batch(gail, held_e.states, held_e.actions)
    g_a = gail_logit_batch(gail, held_s, held_a)
    out["gail"] = (0.5 * (np.mean(g_e > 0) + np.mean(g_a <= 0)), time.perf_counter() - t0)
    return out


def test_criterion_06_sine_discriminator_accuracy(sine_suite):
    acc_d, t_d = sine_suite["drail"]
    acc_f, t_f = sine_suite["diffail"]
    acc_g, t_g = sine_suite["gail"]
    ok = acc_d >= 0.95 and acc_f >= 0.90 and acc_g >= 0.90 and max(t_d, t_f, t_g) < 180.0
    _verdict(
        6,
        ok,
        f"held-out accuracy drail {acc_d:.3f}/0.95 ({t_d:.0f}s), "
        f"diffail {acc_f:.3f}/0.90 ({t_f:.0f}s), gail {acc_g:.3f}/0.90 ({t_g:.0f}s)",
    )
    assert ok


def test_criterion_07_probability_decays_off_expert_curve(sine_suite):
    clf = sine_suite["drail_model"]
    s = np.linspace(0.0, 1.0, 201)
    base = expert_curve(SPEC, s)
    rng = np.random.default_rng(11)
    means = []
    for d in (0.0, 0.25, 0.5, 1.0):
        rows = []
        for sign in (1.0, -1.0):
            a = base + sign * d
            keep = np.abs(a) <= 1.5  # stay on the evaluation rectangle
            if np.any(keep):
                rows.append(np.column_stack([s[keep], a[keep]]))
            if d == 0.0:
                break
        pts = np.vstack(rows)
        probs = np.concatenate(
            [discriminator_probs(clf, pts[i : i + 250], rng) for i in range(0, pts.shape[0], 250)]
        )
        means.append(float(np.mean(probs)))
    monotone = all(means[i + 1] <= means[i] + 0.02 for i in range(3))
    drop = means[0] - means[-1]
    ok = monotone and drop >= 0.2
    profile = "[" + ", ".join(f"{m:.3f}" for m in means) + "]"
    _verdict(7, ok, f"mean D at distances (0, 0.25, 0.5, 1.0) = {profile}, drop {drop:.3f} (need 0.2)")
    assert ok


# --- 8 and 9: end-to-end imitation -------------------------------------------


@pytest.fixture(scope="module")
def point_expert(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("acceptance") / "expert.drld")
    dataset_save(gen_expert_dataset(100, np.random.default_rng(12345)), path)
    return path


def test_criterion_08_point_reach_imitation(point_expert):
    t0 = time.perf_counter()
    drail_rates, gail_rates = [], []
    for seed in (0, 1, 2):
        res = train(TrainConfig(method="drail", env="point_reach", expert_path=point_expert, seed=seed))
        drail_rates.append(res.final_eval.success_rate)
    for seed in (0, 1, 2):
        res = train(TrainConfig(method="gail", env="point_reach", expert_path=point_expert, seed=seed))
        gail_rates.append(res.final_eval.success_rate)
    minutes = (time.perf_counter() - t0) / 60.0
    mean_d = float(np.mean(drail_rates))
    ok = mean_d >= 0.90 and minutes <= 45.0
    _verdict(
        8,
        ok,
        f"drail success {mean_d:.3f}/0.90 (seeds {[f'{r:.2f}' for r in drail_rates]}), "
        f"gail completed at {[f'{r:.2f}' for r in gail_rates]}, {minutes:.1f} min/45",
    )
    assert ok


def test_criterion_09_ten_trajectory_imitation(point_expert):
    rates = []
    for seed in (0, 1, 2):
        res = train(
            TrainConfig(
                method="drail",
                env="point_reach",
                expert_path=point_expert,
                seed=seed,
                max_expert_trajectories=10,
            )
        )
        rates.append(res.final_eval.success_rate)
    mean_d = float(np.mean(rates))
    ok = mean_d >= 0.75
    _verdict(9, ok, f"drail success with 10 trajectories {mean_d:.3f}/0.75 (seeds {[f'{r:.2f}' for r in rates]})")
    assert ok


# --- 10: determinism and formats ---------------------------------------------


def test_criterion_10_determinism_and_formats(tmp_path):
    sine_path = str(tmp_path / "sine.drld")
    dataset_save(sine_expert_sample(SPEC, 256, np.random.default_rng(9)), sine_path)
    cfg = TrainConfig(
        method="drail",
        env="sine",
        expert_path=sine_path,
        seed=5,
        total_env_steps=512,
        disc_hidden=(16, 16),
        schedule_steps=16,
        reward_sample_count=2,
        ppo=PpoConfig(rollout_steps=256, minibatch_size=64, epochs=2),
        policy_hidden=(16, 16),
        value_hidden=(16, 16),
        eval_interval=10**6,
        eval_episodes=4,
    )
    csv_ok = train(cfg).csv_text == train(cfg).csv_text

    ds = gen_expert_dataset(4, np.random.default_rng(10))
    p1, p2 = str(tmp_path / "d1.drld"), str(tmp_path / "d2.drld")
    dataset_save(ds, p1)
    back = dataset_load(p1)
    dataset_save(back, p2)
    data_ok = (
        open(p1, "rb").read() == open(p2, "rb").read()
        and np.array_equal(ds.states, back.states)
        and np.array_equal(ds.actions, back.actions)
        and np.array_equal(ds.dones, back.dones)
    )

    pol = build_policy(3, 2, hidden=(8, 8), seed=5, init_log_std=-0.3)
    p1, p2 = str(tmp_path / "p1.drlp"), str(tmp_path / "p2.drlp")
    save_policy(p1, pol)
    save_policy(p2, load_policy(p1))
    ckpt_ok = open(p1, "rb").read() == open(p2, "rb").read()
    for disc in (
        build_gail(2, 1, hidden=(8,), seed=1),
        build_diffail(2, 1, hidden=(8,), time_embed_dim=4, T=8, seed=2),
        build_drail(2, 1, label_dim=4, hidden=(8,), time_embed_dim=4, T=8, seed=3),
    ):
        save_discriminator(p1, disc)
        save_discriminator(p2, load_discriminator(p1))
        ckpt_ok = ckpt_ok and open(p1, "rb").read() == open(p2, "rb").read()

    sched_ok = True
    for T in (4, 100, 1000):
        sched = build_cosine_schedule(T)
        hand = np.array(cosine_alpha_bar_by_hand(T, 0.008))
        ratios = sched.alpha_bar[1:] / sched.alpha_bar[:-1]
        sched_ok = sched_ok and (
            sched.alpha_bar[0] == 1.0
            and sched.alpha_bar[-1] > 0.0
            and bool(np.all(np.diff(sched.alpha_bar) < 0.0))
            and bool(np.all(ratios >= 0.001 - 1e-12))  # per-step shrink capped at 0.999
            and float(np.max(np.abs(sched.alpha_bar - hand))) < 1e-12
        )

    ok = csv_ok and data_ok and ckpt_ok and sched_ok
    _verdict(
        10,
        ok,
        f"metrics rerun identical {csv_ok}, dataset round trip {data_ok}, "
        f"checkpoint round trips {ckpt_ok}, schedule endpoints/monotone {sched_ok}",
    )
    assert ok
