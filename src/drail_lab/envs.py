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
# reset draws: start and goal midpoints, each offset uniformly within
# +-_RESET_SPREAD per axis (times noise_scale)
_START_MID = (-0.7, -0.7)
_GOAL_MID = (0.7, 0.7)
_RESET_SPREAD = 0.2
# the largest noise_scale a run, an expert or an eval may ask for: goals
# then land up to 20 from the arena, and every point_reach train still
# computes finite values (at 1e3 a diffail update overflows expm1)
_MAX_NOISE_SCALE = 100.0
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


def sine_grid(s_resolution: int, a_resolution: int) -> Grid:
    """The lattice over [0, 1] x [-1.5, 1.5]."""
    if s_resolution < 2 or a_resolution < 2:
        raise ValueError("grid resolution must be >= 2 per axis")
    return Grid(np.linspace(0.0, 1.0, s_resolution), np.linspace(-1.5, 1.5, a_resolution))


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
    the spread of both draws (zero gives the midpoints exactly). Draws from
    rng what a 1-wide PointReach reset draws."""
    obs = PointReach(seed=rng, noise_scale=noise_scale).reset()
    return PointReachState(obs[0:2], obs[2:4], obs[4:6], 0)


# rows whose distance to the goal lies this close to the success radius are
# measured again with a dot product
_RADIUS_BAND = 1e-12


def _point_step_rows(
    obs: np.ndarray, steps: np.ndarray, actions: np.ndarray, horizon: int, wall: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One step of the dynamics on rows of flat observations
    [position | velocity | goal] and their step counts: clamped double
    integrator, wall slab, success radius. Returns (obs', steps', done, success)."""
    position, goal = obs[:, 0:2], obs[:, 4:6]
    velocity = np.clip(obs[:, 2:4] + ACCEL_GAIN * np.clip(actions, -1.0, 1.0), -MAX_SPEED, MAX_SPEED)
    new_position = np.clip(position + velocity, -ARENA_LIMIT, ARENA_LIMIT)
    if wall:
        # the step enters or crosses the slab (segment test, not endpoint
        # test, so fast steps cannot tunnel)
        px, npx = position[:, 0], new_position[:, 0]
        hit = ((new_position[:, 1] < _WALL_TOP) & (np.minimum(px, npx) < _WALL_HALF_WIDTH)
               & (np.maximum(px, npx) > -_WALL_HALF_WIDTH))
        if hit.any():
            # stop at the near face of the slab
            x = px[hit]
            new_position[hit, 0] = np.where(np.abs(x) >= _WALL_HALF_WIDTH,
                                            np.copysign(_WALL_HALF_WIDTH, x), x)
            velocity[hit, 0] = 0.0
    steps = steps + 1
    d = new_position - goal
    dist = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    # near the radius the last bit decides: take np.linalg.norm's own sum, a
    # dot product, which may fuse the multiply-add and so differs from
    # sqrt(dx*dx + dy*dy) in the last bit
    for i in np.flatnonzero(np.abs(dist - SUCCESS_RADIUS) <= _RADIUS_BAND):
        dist[i] = math.sqrt(d[i].dot(d[i]))
    success = dist < SUCCESS_RADIUS
    new_obs = np.concatenate([new_position, velocity, goal], axis=1)
    return new_obs, steps, success | (steps >= horizon), success


def point_step(
    state: PointReachState,
    action: np.ndarray,
    horizon: int = DEFAULT_HORIZON,
    wall: bool = False,
) -> tuple[PointReachState, float, bool, bool]:
    """Clamped double-integrator step; the env reward is a placeholder 0
    (learned rewards are filled in later). Returns (state', 0.0, done, success)."""
    a = np.asarray(action, dtype=np.float64)
    if a.shape != (2,):
        raise ValueError("action must be a 2-vector")
    if not np.isfinite(a).all():
        raise ValueError("action must be finite")
    obs, steps, done, success = _point_step_rows(observe(state)[None], np.array([state.steps]), a[None],
                                                 horizon, wall)
    next_state = PointReachState(obs[0, 0:2], obs[0, 2:4], state.goal, int(steps[0]))
    return next_state, 0.0, bool(done[0]), bool(success[0])


def scripted_actor(obs: np.ndarray) -> np.ndarray:
    """PD controller toward the goal on observation rows
    [position | velocity | goal], clamped to the action box."""
    raw = PD_KP * (obs[..., 4:6] - obs[..., 0:2]) - PD_KD * obs[..., 2:4]
    return np.clip(raw, -1.0, 1.0)


def scripted_expert(state: PointReachState) -> np.ndarray:
    """scripted_actor on the state's observation."""
    return scripted_actor(observe(state))


def _run_episodes(env, actor):
    """Run one episode per row of ``env`` in lockstep, started in row order,
    until all are done, with ``actor`` mapping observation rows to action
    rows. Yields each step's episode ids, observations, actions and success
    flags; a success ends its episode, so each episode flags at most once."""
    rows = np.arange(env.n_envs)  # the episode each env row runs
    obs = env.reset_rows(rows)
    while rows.size:
        action = actor(obs)
        next_obs, done, success = env.step_rows(action)
        yield rows, obs, action, success
        left = np.flatnonzero(~done)
        env.keep_rows(left)
        rows, obs = rows[left], next_obs[left]


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

    Each round runs as many attempts as trajectories are missing (within
    the budget) as lockstep PointReach rows that reset from rng in attempt
    order, so the episodes, the attempt count and rng's draws are those of
    one attempt after another.
    """
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be >= 1")
    kept = []
    successes = 0
    attempts = 0
    max_attempts = 10 * n_trajectories
    while successes < n_trajectories and attempts < max_attempts:
        k = min(n_trajectories - successes, max_attempts - attempts)
        attempts += k
        env = PointReach(seed=rng, noise_scale=noise_scale, horizon=horizon, wall=wall, n_envs=k)
        ids, states, actions, won = (np.concatenate(parts) for parts in zip(*_run_episodes(env, scripted_actor)))
        # the successful attempts in attempt order, each episode in step order
        order = np.argsort(ids, kind="stable")
        order = order[np.isin(ids[order], ids[won])]
        dones = np.diff(ids[order], append=-1) != 0
        kept.append((states[order], actions[order], dones))
        successes += int(won.sum())
    if successes < n_trajectories or 2 * successes < attempts:
        raise RuntimeError(
            f"scripted expert success rate too low: {successes}/{attempts} attempts succeeded"
        )
    return ExpertDataset(*(np.concatenate(parts) for parts in zip(*kept)))


# --- env classes -------------------------------------------------------------
#
# Each env class is a vector env: n_envs copies of the task stepped in
# lockstep, their state kept as arrays with one row per copy, and one reset
# stream (from a seed, or a caller's Generator drawn from directly) that
# draws the start states of the rows it resets in row order.
# The 1-wide case keeps the single-env protocol reset() -> obs and
# step(action) -> (obs, 0.0, done, success).


class _VectorEnv:
    """Shared row bookkeeping. Subclasses name their per-row state arrays in
    _FIELDS and provide _start(rows), _observe() and _advance(actions)."""

    _FIELDS: tuple[str, ...] = ()
    state_dim = 0
    action_dim = 0

    def __init__(self, seed: int | np.random.Generator, n_envs: int) -> None:
        if n_envs < 1:
            raise ValueError("n_envs must be >= 1")
        self.n_envs = int(n_envs)
        self._rng = np.random.default_rng(seed)
        # rows with an episode in progress; a done step closes its row
        self.open = np.zeros(self.n_envs, dtype=bool)

    def reset_rows(self, rows: np.ndarray) -> np.ndarray:
        """Start a new episode in each of ``rows`` (indices, drawn in the
        order given); returns every row's observation."""
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size:
            self._start(rows)
            self.open[rows] = True
        return self._observe()

    def step_rows(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Step every row, all of which must be open; returns the new
        observations, the done flags and the success flags per row."""
        a = np.asarray(actions, dtype=np.float64)
        if a.shape != (self.n_envs, self.action_dim):
            raise ValueError(f"actions must have shape ({self.n_envs}, {self.action_dim}), got {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("action must be finite")
        if not self.open.all():
            raise RuntimeError("reset the env before stepping")
        done, success = self._advance(a)
        self.open = ~done
        return self._observe(), done, success

    def keep_rows(self, rows: np.ndarray) -> None:
        """Drop every row but ``rows``, which keep their state in this order."""
        for name in (*self._FIELDS, "open"):
            setattr(self, name, getattr(self, name)[rows])
        self.n_envs = self.open.size

    # the single-env protocol; each subclass defines its own reset() and
    # step() over these, so that a wrapper set on one class (the benchmark's
    # tracer does this) sees only that class's calls

    def _single(self) -> None:
        if self.n_envs != 1:
            raise ValueError(f"reset() and step() drive a 1-wide env; this one has {self.n_envs} rows")

    def _reset_single(self) -> np.ndarray:
        self._single()
        return self.reset_rows(np.zeros(1, dtype=np.intp))[0]

    def _step_single(self, action) -> tuple[np.ndarray, float, bool, bool]:
        self._single()
        obs, done, success = self.step_rows(np.asarray(action, dtype=np.float64).reshape(1, -1))
        return obs[0], 0.0, bool(done[0]), bool(success[0])


class SineWorld(_VectorEnv):
    """One-step episodes: observe s, emit an action, get graded against
    the sine curve within success_tol."""

    _FIELDS = ("_s",)
    state_dim = 1
    action_dim = 1
    spec = SineWorldSpec()
    success_tol = 0.1

    def __init__(self, seed: int = 0, n_envs: int = 1) -> None:
        super().__init__(seed, n_envs)
        self._s = np.zeros(self.n_envs)

    def reset(self) -> np.ndarray:
        return self._reset_single()

    def step(self, action: np.ndarray) -> tuple[np.ndarray, float, bool, bool]:
        return self._step_single(action)

    def _start(self, rows: np.ndarray) -> None:
        self._s[rows] = self._rng.uniform(0.0, 1.0, size=rows.size)

    def _observe(self) -> np.ndarray:
        return self._s[:, None].copy()

    def _advance(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        success = np.abs(actions[:, 0] - expert_curve(self.spec, self._s)) < self.success_tol
        return np.ones(self.n_envs, dtype=bool), success


class PointReach(_VectorEnv):
    """Point-mass reach task; each row's state is its observation
    [position | velocity | goal] and its episode's step count."""

    _FIELDS = ("_obs", "_steps")
    state_dim = 6
    action_dim = 2

    def __init__(
        self,
        seed: int | np.random.Generator = 0,
        noise_scale: float = 1.0,
        horizon: int = DEFAULT_HORIZON,
        wall: bool = False,
        n_envs: int = 1,
    ) -> None:
        if not 0.0 <= noise_scale <= _MAX_NOISE_SCALE:  # NaN fails too
            raise ValueError(f"noise_scale must be >= 0 and <= {_MAX_NOISE_SCALE:g}, got {noise_scale}")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        super().__init__(seed, n_envs)
        self.noise_scale = float(noise_scale)
        self.horizon = int(horizon)
        self.wall = bool(wall)
        self._obs = np.zeros((self.n_envs, self.state_dim))
        self._steps = np.zeros(self.n_envs, dtype=np.int64)

    @property
    def state(self) -> PointReachState:
        """The state of the single row of a 1-wide env."""
        self._single()
        obs = self._obs[0].copy()
        return PointReachState(obs[0:2], obs[2:4], obs[4:6], int(self._steps[0]))

    @state.setter
    def state(self, state: PointReachState) -> None:
        self._single()
        self._obs[0] = observe(state)
        self._steps[0] = state.steps
        self.open[0] = True

    def reset(self) -> np.ndarray:
        return self._reset_single()

    def step(self, action: np.ndarray) -> tuple[np.ndarray, float, bool, bool]:
        return self._step_single(action)

    def _start(self, rows: np.ndarray) -> None:
        # start offset then goal offset, row after row
        u = self._rng.uniform(-_RESET_SPREAD, _RESET_SPREAD, size=(rows.size, 2, 2))
        self._obs[rows, 0:2] = np.array(_START_MID) + self.noise_scale * u[:, 0]
        self._obs[rows, 2:4] = 0.0
        self._obs[rows, 4:6] = np.array(_GOAL_MID) + self.noise_scale * u[:, 1]
        self._steps[rows] = 0

    def _observe(self) -> np.ndarray:
        return self._obs.copy()

    def _advance(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self._obs, self._steps, done, success = _point_step_rows(self._obs, self._steps, actions,
                                                                 self.horizon, self.wall)
        return done, success


def make_env(
    name: str,
    seed: int = 0,
    noise_scale: float = 1.0,
    horizon: int = DEFAULT_HORIZON,
    wall: bool = False,
    n_envs: int = 1,
):
    """The named task as a vector env of n_envs rows."""
    if name == "sine":
        return SineWorld(seed=seed, n_envs=n_envs)
    if name == "point_reach":
        return PointReach(seed=seed, noise_scale=noise_scale, horizon=horizon, wall=wall, n_envs=n_envs)
    raise ValueError(f"unknown env {name!r}; valid envs: {', '.join(ENV_NAMES)}")
