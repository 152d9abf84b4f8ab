"""Independent numerical oracles shared by the test suite.

Everything here is deliberately written against simpler, slower definitions
(finite differences, explicit loops) rather than the library's own code
paths, so tests compare two independent routes to each quantity.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from drail_lab import diffusion, envs, nn_core
from drail_lab.errors import NumericalAbort


def fd_grad(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2.0 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max relative error with an absolute floor for near-zero entries."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-4)
    return float(np.max(np.abs(a - b) / scale))


def mlp_by_hand(weights: list[np.ndarray], biases: list[np.ndarray], acts: list[str], x: np.ndarray) -> np.ndarray:
    """Explicit loop-based MLP evaluation (no shared code with nn_core)."""
    h = np.asarray(x, dtype=np.float64)
    for W, b, act in zip(weights, biases, acts):
        z = np.empty(W.shape[0])
        for r in range(W.shape[0]):
            acc = b[r]
            for c in range(W.shape[1]):
                acc += W[r, c] * h[c]
            z[r] = acc
        if act == "tanh":
            h = np.tanh(z)
        elif act == "relu":
            h = np.maximum(z, 0.0)
        else:
            h = z
    return h


def cosine_alpha_bar_by_hand(T: int, s: float) -> list[float]:
    """Scalar-math cosine schedule: raw f(t)/f(0), per-step clip, re-product."""

    def f(t: float) -> float:
        return math.cos(((t / T + s) / (1.0 + s)) * math.pi / 2.0) ** 2

    raw = [f(t) / f(0) for t in range(T + 1)]
    alpha_bar = [1.0]
    for t in range(1, T + 1):
        beta = 1.0 - raw[t] / raw[t - 1]
        beta = min(beta, 0.999)
        alpha_bar.append(alpha_bar[-1] * (1.0 - beta))
    return alpha_bar


def gae_brute_force(
    rewards: np.ndarray, values: np.ndarray, dones: np.ndarray, gamma: float, lam: float
) -> np.ndarray:
    """Advantages as the explicit sum over future TD residuals.

    A_t = sum_l (gamma*lam)^l * delta_{t+l}, truncated at the first done
    after t (the done step's residual still counts, later ones do not).
    """
    n = len(rewards)
    deltas = np.empty(n)
    for t in range(n):
        nonterminal = 0.0 if dones[t] else 1.0
        deltas[t] = rewards[t] + gamma * nonterminal * values[t + 1] - values[t]
    adv = np.zeros(n)
    for t in range(n):
        coef = 1.0
        for l in range(t, n):
            adv[t] += coef * deltas[l]
            if dones[l]:
                break
            coef *= gamma * lam
    return adv


def gaussian_logp_by_hand(mean: np.ndarray, log_std: np.ndarray, a: np.ndarray) -> float:
    """Diagonal Gaussian log-density, term by term."""
    total = 0.0
    for mu, ls, ai in zip(mean, log_std, a):
        sigma = math.exp(ls)
        total += -0.5 * ((ai - mu) / sigma) ** 2 - ls - 0.5 * math.log(2.0 * math.pi)
    return total


def policy_sample_reference(policy, s: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """One action and its log-density on one state, as first written: the
    mean net's forward pass, a finiteness check, one standard-normal draw per
    action dimension scaled by exp(log_std), and the Gaussian log-density
    summed in the order the library sums its rows."""
    mean = nn_core.forward(policy.mean_params, policy.specs, s)
    if not np.all(np.isfinite(mean)):
        raise NumericalAbort("policy mean is non-finite")
    action = mean + np.exp(policy.log_std) * rng.standard_normal(policy.action_dim)
    sq = (action - mean) ** 2 * np.exp(-2.0 * policy.log_std)
    logp = -0.5 * sq.sum() - np.sum(policy.log_std) - 0.5 * sq.size * math.log(2.0 * math.pi)
    return action, float(logp)


def point_step_reference(position, velocity, goal, action, wall: bool):
    """The point-mass step on 2-vectors with numpy clips and np.linalg.norm,
    as first written; returns (position', velocity', success)."""
    a = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
    velocity = np.clip(velocity + 0.05 * a, -0.2, 0.2)
    new_position = np.clip(position + velocity, -1.0, 1.0)
    if wall and new_position[1] < 0.4:
        lo, hi = sorted((float(position[0]), float(new_position[0])))
        if lo < 0.05 and hi > -0.05:
            old_x = float(position[0])
            if abs(old_x) >= 0.05:
                old_x = math.copysign(0.05, old_x)
            new_position = np.array([old_x, new_position[1]])
            velocity = np.array([0.0, velocity[1]])
    success = bool(np.linalg.norm(new_position - goal) < 0.1)
    return new_position, velocity, success


def expert_dataset_reference(n: int, rng: np.random.Generator, noise_scale: float, horizon: int, wall: bool):
    """The scripted PD expert rolled one episode after another on
    point_step_reference until n episodes reach the goal or 10n attempts
    are spent; failed episodes are dropped. Returns (states, actions,
    dones, successes, attempts) as float and bool arrays plus two counts."""
    states, actions, dones = [], [], []
    successes = 0
    attempts = 0
    while successes < n and attempts < 10 * n:
        attempts += 1
        position = np.array([-0.7, -0.7]) + noise_scale * rng.uniform(-0.2, 0.2, size=2)
        goal = np.array([0.7, 0.7]) + noise_scale * rng.uniform(-0.2, 0.2, size=2)
        velocity = np.zeros(2)
        episode = []
        steps = 0
        success = False
        while not success and steps < horizon:
            action = np.clip(4.0 * (goal - position) - 6.0 * velocity, -1.0, 1.0)
            episode.append((np.concatenate([position, velocity, goal]), action))
            position, velocity, success = point_step_reference(position, velocity, goal, action, wall)
            steps += 1
        if success:
            successes += 1
            states += [s for s, _ in episode]
            actions += [a for _, a in episode]
            dones += [False] * (len(episode) - 1) + [True]
    return (np.array(states).reshape(-1, 6), np.array(actions).reshape(-1, 2), np.array(dones, dtype=bool),
            successes, attempts)


def evaluate_reference(actor: Callable, n_episodes: int, seed: int, horizon: int, wall: bool, n_seeds: int):
    """point_reach evaluation one episode after another: the episodes are
    split over n_seeds streams of seeds seed, seed + 1, ... (the first
    n_episodes % n_seeds streams get one more), each stream draws its start
    states with point_reset on default_rng(its seed) in episode order, and
    each episode steps ``actor`` (one observation -> one action) on
    point_step_reference until it reaches the goal or the horizon. Returns
    [(seed, success rate)] per stream."""
    per_seed = []
    base, extra = divmod(n_episodes, n_seeds)
    for i in range(n_seeds):
        rng = np.random.default_rng(seed + i)
        count = base + (1 if i < extra else 0)
        wins = 0
        for _ in range(count):
            start = envs.point_reset(1.0, rng)
            position, velocity, goal = start.position, start.velocity, start.goal
            for _ in range(horizon):
                action = actor(np.concatenate([position, velocity, goal]))
                position, velocity, success = point_step_reference(position, velocity, goal, action, wall)
                if success:
                    wins += 1
                    break
        per_seed.append((seed + i, wins / count))
    return per_seed


def predict_noise_reference(model, x_t: np.ndarray, t: int, label) -> np.ndarray:
    """The denoiser's output for one corrupted vector, as one explicit
    input row [x_t | time features] through the whole network, sliced to
    the label's head: real first, then fake; a label-blind net has one."""
    row = np.concatenate([x_t, model.time_features(np.asarray([t]))[0]])
    head = 1 if model.label_dim and label.kind == "fake" else 0
    return nn_core.forward(model.params, model.specs, row)[head * model.data_dim : (head + 1) * model.data_dim]


def diffusion_loss_reference(model, s: np.ndarray, a: np.ndarray, label, t: int, eps: np.ndarray) -> float:
    """Single-draw loss on one explicit row: the mean squared error between
    the noise predicted for the corrupted pair and the injected noise."""
    x_t = diffusion.noising(np.concatenate([s, a]), t, eps, model.schedule)
    return float(np.mean((predict_noise_reference(model, x_t, t, label) - eps) ** 2))


def draw_like_losses(disc, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The (ts, eps) draw a drail or diffail discriminator takes from rng
    for n pairs: sample_count draws per pair, pair by pair."""
    den = disc.denoiser
    ts = rng.integers(1, den.schedule.T + 1, size=n * disc.sample_count)
    return ts, rng.standard_normal((ts.size, den.data_dim))


def explicit_denoiser_rows(disc, states: np.ndarray, actions: np.ndarray, rng: np.random.Generator):
    """The explicit input rows [noised | time features], one per draw, for
    the draw the discriminator takes from rng; returns (inputs, eps rows
    of the same order)."""
    ts, eps = draw_like_losses(disc, states.shape[0], rng)
    x0 = np.repeat(np.concatenate([states, actions], axis=1), disc.sample_count, axis=0)
    return diffusion.batched_inputs(disc.denoiser, x0, ts, eps), eps


def head_losses(outputs: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Per-draw losses of each head from the (rows, heads * data_dim)
    network outputs; returns shape (heads, rows)."""
    return np.mean((outputs.reshape(eps.shape[0], -1, eps.shape[1]) - eps[:, None, :]) ** 2, axis=2).T


def denoiser_losses_one_piece(disc, states: np.ndarray, actions: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A drail or diffail discriminator's mean loss per head and pair, its
    folded first-layer rows built in one piece: the noised rows of every
    draw through the data columns, plus the time and bias terms of each
    distinct timestep; then the layers above walk all rows at once.
    Returns shape (heads, pairs)."""
    n, m = states.shape[0], disc.sample_count
    den = disc.denoiser
    d = den.data_dim
    ts, eps = draw_like_losses(disc, n, rng)
    x0 = np.repeat(np.concatenate([states, actions], axis=1), m, axis=0)
    ab = den.schedule.alpha_bar[ts]
    noised = np.sqrt(ab)[:, None] * x0 + np.sqrt(1.0 - ab)[:, None] * eps
    weights, bias = den.params.weights(0), den.params.bias(0)
    distinct, inverse = np.unique(ts, return_inverse=True)
    terms = den.time_features(distinct) @ weights[:, d:].T + bias
    h = np.maximum(noised @ weights[:, :d].T + terms[inverse], 0.0)
    out = nn_core._forward(nn_core._layers(den.params.values, den.specs)[1:], h)
    return head_losses(out, eps).reshape(-1, n, m).mean(axis=2)
