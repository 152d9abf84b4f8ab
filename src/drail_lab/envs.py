"""Desk-scale environments and expert data.

Two tasks: a one-step sine world where expert actions trace a sine
curve over a gapped subset of the state axis, and a 2-D point-mass
reach task with position/velocity/goal observations. Both come with
scripted experts and share a binary on-disk trajectory format.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .fileio import atomic_write

DATASET_MAGIC = b"DRLD"
DATASET_VERSION = 1
_HEADER = struct.Struct("<4sIIIQ")

ENV_NAMES = ("sine", "point_reach")

SINE_FREQUENCY = 20.0 * math.pi
DEFAULT_SUPPORT = ((0.0, 0.2), (0.3, 0.5), (0.6, 0.8))

ARENA_LIMIT = 1.0
ACCEL_GAIN = 0.05
MAX_SPEED = 0.2
SUCCESS_RADIUS = 0.1
DEFAULT_HORIZON = 200
PD_KP = 4.0
PD_KD = 6.0
# single-wall variant: a slab around x=0 reaching up to y=0.4
_WALL_HALF_WIDTH = 0.05
_WALL_TOP = 0.4


# --- datasets ---------------------------------------------------------------


@dataclass(frozen=True)
class Transition:
    """One (state, action) pair plus its trajectory-end flag."""

    state: np.ndarray
    action: np.ndarray
    done: bool


@dataclass(frozen=True)
class ExpertDataset:
    """Struct-of-arrays demonstration store.

    Trajectory boundaries are implied by the done flags; the final
    transition always closes a trajectory.
    """

    states: np.ndarray
    actions: np.ndarray
    dones: np.ndarray

    def __post_init__(self) -> None:
        states = np.ascontiguousarray(np.asarray(self.states, dtype=np.float64))
        actions = np.ascontiguousarray(np.asarray(self.actions, dtype=np.float64))
        dones = np.ascontiguousarray(np.asarray(self.dones, dtype=bool))
        if states.ndim != 2 or actions.ndim != 2 or dones.ndim != 1:
            raise ValueError("states/actions must be 2-D, dones 1-D")
        n = states.shape[0]
        if n == 0:
            raise ValueError("dataset must hold at least one transition")
        if actions.shape[0] != n or dones.shape[0] != n:
            raise ValueError("states, actions, and dones must have equal length")
        if not (np.all(np.isfinite(states)) and np.all(np.isfinite(actions))):
            raise ValueError("dataset values must be finite")
        if not dones[-1]:
            raise ValueError("last transition must close a trajectory (done=true)")
        for name, arr in (("states", states), ("actions", actions), ("dones", dones)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def state_dim(self) -> int:
        return self.states.shape[1]

    @property
    def action_dim(self) -> int:
        return self.actions.shape[1]

    @property
    def num_trajectories(self) -> int:
        return int(np.sum(self.dones))

    def transition(self, i: int) -> Transition:
        return Transition(self.states[i], self.actions[i], bool(self.dones[i]))


def truncate_trajectories(dataset: ExpertDataset, max_trajectories: int) -> ExpertDataset:
    """Keep the first ``max_trajectories`` whole trajectories."""
    if max_trajectories < 1:
        raise ValueError("max_trajectories must be >= 1")
    ends = np.flatnonzero(dataset.dones)
    if max_trajectories >= ends.size:
        return dataset
    stop = int(ends[max_trajectories - 1]) + 1
    return ExpertDataset(dataset.states[:stop], dataset.actions[:stop], dataset.dones[:stop])


def truncate_transitions(dataset: ExpertDataset, max_transitions: int) -> ExpertDataset:
    """Largest whole-trajectory prefix holding at most ``max_transitions``."""
    if max_transitions < 1:
        raise ValueError("max_transitions must be >= 1")
    ends = np.flatnonzero(dataset.dones)
    fitting = ends[ends < max_transitions]
    if fitting.size == 0:
        raise ValueError(
            f"first trajectory has {int(ends[0]) + 1} transitions, over the limit {max_transitions}"
        )
    stop = int(fitting[-1]) + 1
    if stop == len(dataset):
        return dataset
    return ExpertDataset(dataset.states[:stop], dataset.actions[:stop], dataset.dones[:stop])


def _transition_dtype(state_dim: int, action_dim: int) -> np.dtype:
    return np.dtype(
        [("state", "<f8", (state_dim,)), ("action", "<f8", (action_dim,)), ("done", "u1")]
    )


def dataset_save(dataset: ExpertDataset, path: str) -> None:
    header = _HEADER.pack(
        DATASET_MAGIC, DATASET_VERSION, dataset.state_dim, dataset.action_dim, len(dataset)
    )
    rec = np.empty(len(dataset), dtype=_transition_dtype(dataset.state_dim, dataset.action_dim))
    rec["state"] = dataset.states
    rec["action"] = dataset.actions
    rec["done"] = dataset.dones
    atomic_write(path, header + rec.tobytes())


def dataset_load(path: str) -> ExpertDataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ValueError(f"truncated dataset header: expected {_HEADER.size} bytes, got {len(blob)}")
    magic, version, state_dim, action_dim, num = _HEADER.unpack_from(blob)
    if magic != DATASET_MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {DATASET_MAGIC!r}")
    if version != DATASET_VERSION:
        raise ValueError(f"unsupported dataset version {version}")
    if state_dim == 0 or action_dim == 0 or num == 0:
        raise ValueError("dataset header declares empty dimensions")
    expected = _HEADER.size + num * ((state_dim + action_dim) * 8 + 1)
    if len(blob) != expected:
        raise ValueError(f"dataset size mismatch: expected {expected} bytes, got {len(blob)}")
    rec = np.frombuffer(blob, dtype=_transition_dtype(state_dim, action_dim), count=num, offset=_HEADER.size)
    if np.any(rec["done"] > 1):
        raise ValueError("done flags must be 0 or 1")
    return ExpertDataset(rec["state"], rec["action"], rec["done"].astype(bool))


# --- sine world ------------------------------------------------------------


@dataclass(frozen=True)
class SineWorldSpec:
    """One-step world: expert action is sin(frequency*s) plus noise, with
    demonstrations available only on disjoint sub-intervals of [0, 1]."""

    frequency: float = SINE_FREQUENCY
    noise_std: float = 0.05
    support: tuple[tuple[float, float], ...] = DEFAULT_SUPPORT

    def __post_init__(self) -> None:
        if len(self.support) == 0:
            raise ValueError("support must contain at least one interval")
        prev_hi = -math.inf
        for lo, hi in self.support:
            if not 0.0 <= lo < hi <= 1.0:
                raise ValueError(f"interval ({lo}, {hi}) must satisfy 0 <= lo < hi <= 1")
            if lo < prev_hi:
                raise ValueError("support intervals must be disjoint and sorted")
            prev_hi = hi
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be >= 0")

    @property
    def measure(self) -> float:
        return float(sum(hi - lo for lo, hi in self.support))

    def contains(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=np.float64)
        inside = np.zeros(s.shape, dtype=bool)
        for lo, hi in self.support:
            inside |= (s >= lo) & (s <= hi)
        return inside


def expert_curve(spec: SineWorldSpec, s: np.ndarray) -> np.ndarray:
    """Noise-free expert action at state s."""
    return np.sin(spec.frequency * np.asarray(s, dtype=np.float64))


def sine_expert_sample(spec: SineWorldSpec, n: int, rng: np.random.Generator) -> ExpertDataset:
    """Draw n expert pairs, states uniform over the support union; each
    pair is its own one-step trajectory."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lengths = np.array([hi - lo for lo, hi in spec.support])
    lows = np.array([lo for lo, _ in spec.support])
    cum = np.cumsum(lengths)
    u = rng.random(n) * cum[-1]
    idx = np.searchsorted(cum, u, side="right")
    s = lows[idx] + (u - (cum[idx] - lengths[idx]))
    a = expert_curve(spec, s) + spec.noise_std * rng.standard_normal(n)
    return ExpertDataset(s[:, None], a[:, None], np.ones(n, dtype=bool))


@dataclass(frozen=True)
class Grid:
    """Inclusive-endpoint lattice over the (s, a) plane."""

    s_axis: np.ndarray
    a_axis: np.ndarray

    @property
    def points(self) -> np.ndarray:
        # row-major with s as the outer axis
        s = np.repeat(self.s_axis, self.a_axis.size)
        a = np.tile(self.a_axis, self.s_axis.size)
        return np.column_stack([s, a])


def sine_grid(
    s_resolution: int,
    a_resolution: int,
    s_range: tuple[float, float] = (0.0, 1.0),
    a_range: tuple[float, float] = (-1.5, 1.5),
) -> Grid:
    if s_resolution < 2 or a_resolution < 2:
        raise ValueError("grid resolution must be >= 2 per axis")
    return Grid(
        np.linspace(s_range[0], s_range[1], s_resolution),
        np.linspace(a_range[0], a_range[1], a_resolution),
    )


# --- point-mass reach task ----------------------------------------------------


@dataclass(frozen=True)
class PointReachState:
    """Position, velocity, and goal in the [-1, 1]^2 arena."""

    position: np.ndarray
    velocity: np.ndarray
    goal: np.ndarray
    steps: int = 0

    def __post_init__(self) -> None:
        for name in ("position", "velocity", "goal"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (2,):
                raise ValueError(f"{name} must be a 2-vector")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def observe(state: PointReachState) -> np.ndarray:
    """Flat 6-D observation [position, velocity, goal]."""
    return np.concatenate([state.position, state.velocity, state.goal])


def point_reset(noise_scale: float, rng: np.random.Generator) -> PointReachState:
    """Start near (-0.7, -0.7), goal near (0.7, 0.7); noise_scale multiplies
    the spread of both draws (zero gives the midpoints exactly)."""
    if noise_scale < 0.0:
        raise ValueError("noise_scale must be >= 0")
    start = np.array([-0.7, -0.7]) + noise_scale * rng.uniform(-0.2, 0.2, size=2)
    goal = np.array([0.7, 0.7]) + noise_scale * rng.uniform(-0.2, 0.2, size=2)
    return PointReachState(start, np.zeros(2), goal, 0)


def _checked_action(action) -> tuple[float, float]:
    a = np.asarray(action, dtype=np.float64)
    if a.shape != (2,):
        raise ValueError("action must be a 2-vector")
    ax, ay = a.tolist()
    if not (math.isfinite(ax) and math.isfinite(ay)):
        raise ValueError("action must be finite")
    return ax, ay


def _point_dynamics(
    obs: tuple[float, ...], steps: int, ax: float, ay: float, horizon: int, wall: bool
) -> tuple[tuple[float, ...], int, bool, bool]:
    """One step of the dynamics on the flat observation (px, py, vx, vy, gx, gy)
    as Python floats: clamped double integrator, wall slab, success radius.
    Returns (obs', steps', done, success)."""
    px, py, vx, vy, gx, gy = obs
    ax = min(max(ax, -1.0), 1.0)
    ay = min(max(ay, -1.0), 1.0)
    nvx = min(max(vx + ACCEL_GAIN * ax, -MAX_SPEED), MAX_SPEED)
    nvy = min(max(vy + ACCEL_GAIN * ay, -MAX_SPEED), MAX_SPEED)
    npx = min(max(px + nvx, -ARENA_LIMIT), ARENA_LIMIT)
    npy = min(max(py + nvy, -ARENA_LIMIT), ARENA_LIMIT)
    if wall and npy < _WALL_TOP:
        lo, hi = sorted((px, npx))
        if lo < _WALL_HALF_WIDTH and hi > -_WALL_HALF_WIDTH:
            # the step enters or crosses the slab: stop at the near face
            # (segment test, not endpoint test, so fast steps cannot tunnel)
            npx = px
            if abs(npx) >= _WALL_HALF_WIDTH:
                npx = math.copysign(_WALL_HALF_WIDTH, npx)
            nvx = 0.0
    steps += 1
    # np.linalg.norm's own sum: a dot product, which may fuse the multiply-add
    # and so differs from sqrt(dx*dx + dy*dy) in the last bit
    d = np.array((npx - gx, npy - gy))
    success = math.sqrt(d.dot(d)) < SUCCESS_RADIUS
    done = success or steps >= horizon
    return (npx, npy, nvx, nvy, gx, gy), steps, done, success


def point_step(
    state: PointReachState,
    action: np.ndarray,
    horizon: int = DEFAULT_HORIZON,
    wall: bool = False,
) -> tuple[PointReachState, float, bool, bool]:
    """Clamped double-integrator step; the env reward is a placeholder 0
    (learned rewards are filled in later). Returns (state', 0.0, done, success)."""
    ax, ay = _checked_action(action)
    obs, steps, done, success = _point_dynamics(tuple(observe(state).tolist()), state.steps, ax, ay, horizon, wall)
    next_state = PointReachState(np.array(obs[0:2]), np.array(obs[2:4]), state.goal, steps)
    return next_state, 0.0, done, success


def scripted_expert(state: PointReachState) -> np.ndarray:
    """PD controller toward the goal, clamped to the action box."""
    raw = PD_KP * (state.goal - state.position) - PD_KD * state.velocity
    return np.clip(raw, -1.0, 1.0)


def scripted_actor(obs: np.ndarray) -> np.ndarray:
    """Observation-vector adapter around scripted_expert."""
    raw = PD_KP * (obs[4:6] - obs[0:2]) - PD_KD * obs[2:4]
    return np.clip(raw, -1.0, 1.0)


def gen_expert_dataset(
    n_trajectories: int,
    rng: np.random.Generator,
    noise_scale: float = 1.0,
    horizon: int = DEFAULT_HORIZON,
    wall: bool = False,
) -> ExpertDataset:
    """Roll the scripted expert until n successful trajectories are stored.

    Failed episodes are discarded. A success rate under 50% (or running
    out of the 10n attempt budget) aborts: the controller is misconfigured
    for these dynamics.
    """
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be >= 1")
    states: list[np.ndarray] = []
    actions: list[np.ndarray] = []
    dones: list[bool] = []
    successes = 0
    attempts = 0
    max_attempts = 10 * n_trajectories
    while successes < n_trajectories and attempts < max_attempts:
        attempts += 1
        state = point_reset(noise_scale, rng)
        ep_states, ep_actions, ep_dones = [], [], []
        done = False
        success = False
        while not done:
            action = scripted_expert(state)
            ep_states.append(observe(state))
            ep_actions.append(action)
            state, _, done, success = point_step(state, action, horizon, wall)
            ep_dones.append(done)
        if success:
            successes += 1
            states.extend(ep_states)
            actions.extend(ep_actions)
            dones.extend(ep_dones)
    if successes < n_trajectories or 2 * successes < attempts:
        raise RuntimeError(
            f"scripted expert success rate too low: {successes}/{attempts} attempts succeeded"
        )
    return ExpertDataset(np.array(states), np.array(actions), np.array(dones))


# --- env classes -------------------------------------------------------------


class SineWorld:
    """One-step episodes: observe s, emit an action, get graded against
    the sine curve within success_tol."""

    state_dim = 1
    action_dim = 1

    def __init__(
        self,
        seed: int = 0,
        spec: SineWorldSpec | None = None,
        success_tol: float = 0.1,
        state_range: tuple[float, float] = (0.0, 1.0),
    ) -> None:
        self.spec = spec if spec is not None else SineWorldSpec()
        self.success_tol = float(success_tol)
        self.state_range = (float(state_range[0]), float(state_range[1]))
        self._rng = np.random.default_rng(seed)
        self._s: float | None = None

    def reset(self) -> np.ndarray:
        self._s = float(self._rng.uniform(*self.state_range))
        return np.array([self._s])

    def step(self, action: np.ndarray) -> tuple[np.ndarray, float, bool, bool]:
        if self._s is None:
            raise RuntimeError("reset the env before stepping")
        a = float(np.asarray(action).reshape(-1)[0])
        if not math.isfinite(a):
            raise ValueError("action must be finite")
        target = float(expert_curve(self.spec, self._s))
        success = abs(a - target) < self.success_tol
        obs = np.array([self._s])
        self._s = None
        return obs, 0.0, True, success


class PointReach:
    """Auto-stepping wrapper around the point-mass dynamics with an
    internal reset stream."""

    state_dim = 6
    action_dim = 2

    def __init__(
        self,
        seed: int = 0,
        noise_scale: float = 1.0,
        horizon: int = DEFAULT_HORIZON,
        wall: bool = False,
    ) -> None:
        if noise_scale < 0.0:
            raise ValueError("noise_scale must be >= 0")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.noise_scale = float(noise_scale)
        self.horizon = int(horizon)
        self.wall = bool(wall)
        self._rng = np.random.default_rng(seed)
        # the current observation as floats, and the episode's step count
        self._obs: tuple[float, ...] | None = None
        self._steps = 0

    @property
    def state(self) -> PointReachState | None:
        if self._obs is None:
            return None
        obs = self._obs
        return PointReachState(np.array(obs[0:2]), np.array(obs[2:4]), np.array(obs[4:6]), self._steps)

    @state.setter
    def state(self, state: PointReachState | None) -> None:
        self._obs = None if state is None else tuple(observe(state).tolist())
        self._steps = 0 if state is None else state.steps

    def reset(self) -> np.ndarray:
        obs = observe(point_reset(self.noise_scale, self._rng))
        self._obs = tuple(obs.tolist())
        self._steps = 0
        return obs

    def step(self, action: np.ndarray) -> tuple[np.ndarray, float, bool, bool]:
        if self._obs is None:
            raise RuntimeError("reset the env before stepping")
        ax, ay = _checked_action(action)
        self._obs, self._steps, done, success = _point_dynamics(
            self._obs, self._steps, ax, ay, self.horizon, self.wall)
        return np.array(self._obs), 0.0, done, success


def make_env(
    name: str,
    seed: int = 0,
    noise_scale: float = 1.0,
    horizon: int = DEFAULT_HORIZON,
    wall: bool = False,
):
    if name == "sine":
        return SineWorld(seed=seed)
    if name == "point_reach":
        return PointReach(seed=seed, noise_scale=noise_scale, horizon=horizon, wall=wall)
    raise ValueError(f"unknown env {name!r}; valid envs: {', '.join(ENV_NAMES)}")
