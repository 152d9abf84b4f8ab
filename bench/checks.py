"""Correctness checks run inside every benchmark round.

Each check tests a property of the method, or compares the lab's output
with a value computed here apart from the lab. None compares with stored
output of an earlier run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from drail_lab import discriminators as dm

# README "File formats": the fixed metrics.csv header
METRICS_HEADER = "env_steps,iter,disc_loss,ppo_loss,mean_reward,success_rate,mean_return,clip_frac,clamped_rewards"
ROLLOUT_STEPS = 2048  # PpoConfig default, README "Quick start" runs
REWARD_CLAMP = 20.0  # README "Methods": rewards clamped to +-20
DIFFAIL_LOSS_FLOOR = 1e-7
TWO_LN2 = 2.0 * math.log(2.0)
# sine world, README "Environments"
SINE_SUPPORT = ((0.0, 0.2), (0.3, 0.5), (0.6, 0.8))
SINE_NOISE = 0.05
HELD_OUT = 1000
# a fitted model must beat chance on 2 x 1000 held-out pairs by more than
# four standard errors of a coin (0.5 +- 0.011)
ACCURACY_FLOOR = 0.55


class Checks:
    """Collects named pass/fail results with the numbers behind them."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_digests(run_dir: str) -> tuple[str, ...]:
    return tuple(sha256(os.path.join(run_dir, f)) for f in ("metrics.csv", "policy.drlp", "discriminator.drlp"))


def check_metrics_csv(checks: Checks, path: str, total_steps: int) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    n_iter = math.ceil(total_steps / ROLLOUT_STEPS)
    steps_ok = [int(r[0]) for r in rows] == [ROLLOUT_STEPS * (k + 1) for k in range(n_iter)]
    iters_ok = [int(r[1]) for r in rows] == list(range(1, n_iter + 1))
    rewards = np.array([float(r[4]) for r in rows])
    clip = np.array([float(r[7]) for r in rows])
    ok = (header == METRICS_HEADER and steps_ok and iters_ok
          and np.all(np.abs(rewards) <= REWARD_CLAMP) and np.all((clip >= 0.0) & (clip <= 1.0)))
    checks.add("metrics.csv", ok, f"{len(rows)} rows, env_steps by {ROLLOUT_STEPS}, "
               f"max |mean_reward| {np.max(np.abs(rewards)):.3f}, clip_frac in [{clip.min():.3f}, {clip.max():.3f}]")


def check_eval(checks: Checks, stdout: str, floor: float) -> None:
    report = json.loads(stdout.strip().splitlines()[-1])
    rate = report["success_rate"]
    checks.add("eval success on held-out seeds", rate >= floor,
               f"{rate:.2f} over {report['episodes']} episodes (floor {floor})")


def read_map(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    a_axis = np.array([float(x) for x in lines[0].split(",")[1:]])
    body = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return body[:, 0], a_axis, body[:, 1:]


def check_map(checks: Checks, kind: str, path: str, res: tuple[int, int]) -> None:
    s_axis, a_axis, values = read_map(path)
    # sine_grid's lattice: inclusive endpoints over [0, 1] x [-1.5, 1.5]
    axes_ok = (np.array_equal(s_axis, np.linspace(0.0, 1.0, res[0]))
               and np.array_equal(a_axis, np.linspace(-1.5, 1.5, res[1])))
    in_range = values.shape == res and bool(np.all((values > 0.0) & (values <= 1.0)))
    checks.add(f"reward-map {kind}", axes_ok and in_range,
               f"{values.shape[0]}x{values.shape[1]} cells in [{values.min():.4f}, {values.max():.4f}], axes match")


def check_blind_map(checks: Checks, path: str) -> None:
    _, _, values = read_map(path)
    checks.add("label-blind drail map is 0.5", bool(np.all(values == 0.5)),
               f"{values.size} cells, {int(np.sum(values != 0.5))} differ from 0.5")


def held_out_pairs(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Expert pairs on the sine curve and uniform pairs, drawn here."""
    rng = np.random.default_rng([seed, 3])
    widths = np.array([hi - lo for lo, hi in SINE_SUPPORT])
    which = rng.choice(len(SINE_SUPPORT), size=HELD_OUT, p=widths / widths.sum())
    s = np.array([lo for lo, _ in SINE_SUPPORT])[which] + widths[which] * rng.random(HELD_OUT)
    a = np.sin(20.0 * math.pi * s) + SINE_NOISE * rng.standard_normal(HELD_OUT)
    expert = np.column_stack([s, a])
    agent = np.column_stack([rng.uniform(0.0, 1.0, HELD_OUT), rng.uniform(-1.5, 1.5, HELD_OUT)])
    return expert, agent


def _probs(disc, points: np.ndarray, seed: int, samples: int) -> np.ndarray:
    # chunks keep the draw blow-up small
    return np.concatenate([
        dm.discriminator_probs(disc, points[i : i + 250], np.random.default_rng([seed, i]), samples)
        for i in range(0, points.shape[0], 250)
    ])


def check_fitted(checks: Checks, kind: str, path: str, seed: int) -> None:
    disc = dm.load_discriminator(path)
    expert, agent = held_out_pairs(seed)
    p_e, p_a = _probs(disc, expert, seed, 8), _probs(disc, agent, seed + 1, 8)
    acc = 0.5 * (np.mean(p_e > 0.5) + np.mean(p_a <= 0.5))
    # binary cross-entropy of one draw set per pair, the fit objective
    q_e, q_a = _probs(disc, expert, seed + 2, 1), _probs(disc, agent, seed + 3, 1)
    bce = float(-np.mean(np.log(q_e)) - np.mean(np.log1p(-q_a)))
    checks.add(f"fitted {kind} beats chance", acc >= ACCURACY_FLOOR and bce < TWO_LN2,
               f"held-out accuracy {acc:.3f} (floor {ACCURACY_FLOOR}), loss {bce:.4f} (< 2 ln 2 = {TWO_LN2:.4f})")

    # reward is the log-odds of the probability under the same draws
    pts = np.vstack([expert[:250], agent[:250]])
    rewards, _ = dm.reward_for(disc, pts[:, :1], pts[:, 1:], np.random.default_rng([seed, 4]))
    probs = dm.discriminator_probs(disc, pts, np.random.default_rng([seed, 4]), 1)
    log_odds = np.log(probs) - np.log1p(-probs)
    # rows at the reward clamp or diffail's loss floor are excepted
    free = (np.abs(rewards) < REWARD_CLAMP) & (probs < math.exp(-DIFFAIL_LOSS_FLOOR))
    err = float(np.max(np.abs(rewards - log_odds)[free]))
    checks.add(f"{kind} reward is log D - log(1 - D)", free.sum() >= 0.9 * pts.shape[0] and err < 1e-8,
               f"{int(free.sum())}/{pts.shape[0]} rows, max error {err:.2e} (tol 1e-8)")


def check_gae(checks: Checks, captured: tuple) -> None:
    """Compare one compute_gae call with an explicit discounted sum of
    future TD residuals, cut at episode ends."""
    (rewards, values, dones, gamma, lam), (adv, rets) = captured
    n = rewards.size
    nonterminal = 1.0 - dones.astype(np.float64)
    delta = rewards + gamma * nonterminal * values[1:] - values[:-1]
    worst = 0.0
    for t in range(n):
        total, weight = 0.0, 1.0
        for k in range(t, n):
            total += weight * delta[k]
            if dones[k]:
                break
            weight *= gamma * lam
        worst = max(worst, abs(total - adv[t]), abs(total + values[t] - rets[t]))
    # the two summation orders round differently in proportion to the sums
    scale = max(1.0, float(np.max(np.abs(rets))))
    checks.add("GAE equals the explicit sum", worst <= 1e-12 * scale,
               f"{n} steps, max error {worst:.2e} (tol 1e-12 x {scale:.1f})")
