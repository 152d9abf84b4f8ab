import math

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drail_lab import envs
from drail_lab.envs import (
    ExpertDataset,
    Grid,
    PointReachState,
    SineWorldSpec,
    dataset_load,
    dataset_save,
    expert_curve,
    gen_expert_dataset,
    make_env,
    observe,
    point_reset,
    point_step,
    scripted_actor,
    scripted_expert,
    sine_expert_sample,
    sine_grid,
    truncate_trajectories,
)


def _toy_dataset(traj_lengths=(3, 2, 4), state_dim=2, action_dim=1, seed=0):
    rng = np.random.default_rng(seed)
    n = sum(traj_lengths)
    dones = np.zeros(n, dtype=bool)
    stop = 0
    for length in traj_lengths:
        stop += length
        dones[stop - 1] = True
    return ExpertDataset(rng.normal(size=(n, state_dim)), rng.normal(size=(n, action_dim)), dones)


# --- dataset container and format ----------------------------------------


def test_dataset_requires_final_done():
    with pytest.raises(ValueError, match="done"):
        ExpertDataset(np.zeros((2, 1)), np.zeros((2, 1)), np.array([True, False]))


def test_dataset_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError, match="at least one"):
        ExpertDataset(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros(0, dtype=bool))
    with pytest.raises(ValueError, match="finite"):
        ExpertDataset(np.array([[np.nan]]), np.zeros((1, 1)), np.array([True]))


def test_dataset_counters():
    ds = _toy_dataset((3, 2, 4))
    assert len(ds) == 9
    assert ds.num_trajectories == 3
    assert ds.state_dim == 2 and ds.action_dim == 1
    assert ds.dones.tolist() == [False, False, True, False, True, False, False, False, True]


def test_dataset_roundtrip_bit_exact(tmp_path):
    ds = _toy_dataset((5, 1, 7), state_dim=6, action_dim=2)
    p1 = tmp_path / "a.drld"
    p2 = tmp_path / "b.drld"
    dataset_save(ds, str(p1))
    loaded = dataset_load(str(p1))
    assert loaded.states.tobytes() == ds.states.tobytes()
    assert loaded.actions.tobytes() == ds.actions.tobytes()
    assert np.array_equal(loaded.dones, ds.dones)
    dataset_save(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_file_size_law(tmp_path):
    ds = _toy_dataset((4, 4), state_dim=3, action_dim=2)
    path = tmp_path / "c.drld"
    dataset_save(ds, str(path))
    assert path.stat().st_size == 24 + len(ds) * (3 + 2) * 8 + len(ds)


def test_dataset_truncated_file_error(tmp_path):
    ds = _toy_dataset((3,))
    path = tmp_path / "d.drld"
    dataset_save(ds, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(ValueError, match=rf"expected {len(blob)} bytes, got {len(blob) - 5}"):
        dataset_load(str(path))


def test_dataset_bad_magic_and_version(tmp_path):
    ds = _toy_dataset((2,))
    path = tmp_path / "e.drld"
    dataset_save(ds, str(path))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="bad magic"):
        dataset_load(str(path))
    blob[:4] = envs.DATASET_MAGIC
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="version"):
        dataset_load(str(path))


def test_truncate_trajectories():
    ds = _toy_dataset((3, 2, 4))
    cut = truncate_trajectories(ds, 2)
    assert len(cut) == 5 and cut.num_trajectories == 2
    assert truncate_trajectories(ds, 3) is ds
    assert truncate_trajectories(ds, 99) is ds


@settings(max_examples=30, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 6), min_size=1, max_size=6),
    keep=st.integers(1, 6),
    seed=st.integers(0, 1000),
)
def test_truncation_preserves_validity(lengths, keep, seed):
    ds = _toy_dataset(tuple(lengths), seed=seed)
    cut = truncate_trajectories(ds, keep)
    assert cut.dones[-1]
    assert cut.num_trajectories == min(keep, len(lengths))


# --- sine world -------------------------------------------------------------


def test_sine_spec_validation():
    with pytest.raises(ValueError, match="disjoint"):
        SineWorldSpec(support=((0.0, 0.3), (0.2, 0.5)))
    with pytest.raises(ValueError, match="at least one"):
        SineWorldSpec(support=())
    with pytest.raises(ValueError, match="lo < hi"):
        SineWorldSpec(support=((0.4, 0.4),))
    with pytest.raises(ValueError, match="lo < hi"):
        SineWorldSpec(support=((-0.1, 0.5),))


def test_sine_curve_quarter_period():
    # state 0.025 sits a quarter period in: sin(pi/2) = 1
    spec = SineWorldSpec()
    assert expert_curve(spec, 0.025) == pytest.approx(1.0, abs=1e-12)


def test_sine_zero_noise_lies_on_curve():
    spec = SineWorldSpec(noise_std=0.0)
    ds = sine_expert_sample(spec, 500, np.random.default_rng(0))
    assert np.array_equal(ds.actions[:, 0], expert_curve(spec, ds.states[:, 0]))


def test_sine_sample_std_matches_noise():
    spec = SineWorldSpec()
    n = 100_000
    ds = sine_expert_sample(spec, n, np.random.default_rng(1))
    resid = ds.actions[:, 0] - expert_curve(spec, ds.states[:, 0])
    se = spec.noise_std / math.sqrt(2 * n)
    assert abs(resid.std() - spec.noise_std) < 3 * se


def test_sine_states_stay_on_support():
    spec = SineWorldSpec()
    ds = sine_expert_sample(spec, 10_000, np.random.default_rng(2))
    assert np.all(spec.contains(ds.states[:, 0]))
    assert np.all(ds.dones)  # every pair is a one-step trajectory


def test_sine_support_weighting():
    # intervals weighted by length: the 0.3-long interval gets ~75% of mass
    spec = SineWorldSpec(support=((0.0, 0.3), (0.5, 0.6)))
    ds = sine_expert_sample(spec, 40_000, np.random.default_rng(3))
    frac = np.mean(ds.states[:, 0] < 0.4)
    assert abs(frac - 0.75) < 0.01


def test_sine_band_containment():
    spec = SineWorldSpec()
    ds = sine_expert_sample(spec, 100_000, np.random.default_rng(4))
    resid = np.abs(ds.actions[:, 0] - expert_curve(spec, ds.states[:, 0]))
    assert np.mean(resid < 5 * spec.noise_std) >= 0.9999


def test_sine_grid_corners_and_count():
    g = sine_grid(2, 2)
    assert np.allclose(g.points, [[0.0, -1.5], [0.0, 1.5], [1.0, -1.5], [1.0, 1.5]])
    g2 = sine_grid(101, 121)
    assert g2.points.shape == (12_221, 2)


def test_sine_grid_spacing_uniform():
    g = sine_grid(7, 11)
    for axis in (g.s_axis, g.a_axis):
        gaps = np.diff(axis)
        assert np.max(np.abs(gaps - gaps[0])) < 1e-12


def test_sine_grid_row_major_s_outer():
    g = sine_grid(3, 2)
    assert np.array_equal(g.points[:2, 0], [g.s_axis[0]] * 2)
    assert np.array_equal(g.points[:2, 1], g.a_axis)


def test_sine_grid_resolution_validation():
    with pytest.raises(ValueError, match=">= 2"):
        sine_grid(1, 5)


# --- point-mass reach --------------------------------------------------------


def test_point_reset_zero_noise_is_midpoints():
    s = point_reset(0.0, np.random.default_rng(0))
    assert np.array_equal(s.position, [-0.7, -0.7])
    assert np.array_equal(s.goal, [0.7, 0.7])
    assert np.array_equal(s.velocity, [0.0, 0.0])
    assert s.steps == 0


def test_point_reset_scale_one_support():
    rng = np.random.default_rng(1)
    for _ in range(500):
        s = point_reset(1.0, rng)
        assert np.all(s.position >= -0.9) and np.all(s.position <= -0.5)
        assert np.all(s.goal >= 0.5) and np.all(s.goal <= 0.9)


def test_point_reset_spread_scales_linearly():
    rng = np.random.default_rng(2)
    starts1 = np.array([point_reset(1.0, rng).position for _ in range(20_000)])
    starts2 = np.array([point_reset(2.0, rng).position for _ in range(20_000)])
    ratio = starts2.std(axis=0) / starts1.std(axis=0)
    assert np.all(np.abs(ratio - 2.0) < 0.1)


def test_point_reset_negative_noise_error():
    with pytest.raises(ValueError, match=">= 0"):
        point_reset(-0.5, np.random.default_rng(0))


def test_point_step_fixed_point():
    s = PointReachState(np.array([0.1, -0.2]), np.zeros(2), np.array([0.9, 0.9]))
    s2, reward, done, success = point_step(s, np.zeros(2))
    assert np.array_equal(s2.position, s.position)
    assert reward == 0.0 and not done and not success
    assert s2.steps == 1


def test_point_step_clamps_velocity_and_position():
    s = PointReachState(np.array([0.95, 0.0]), np.array([0.2, 0.0]), np.array([-0.9, -0.9]))
    s2, _, _, _ = point_step(s, np.array([5.0, 0.0]))  # action clamped to 1 first
    assert s2.velocity[0] == 0.2
    assert s2.position[0] == 1.0


def test_point_step_success_radius():
    goal = np.array([0.5, 0.5])
    s = PointReachState(goal + np.array([0.05, 0.0]), np.zeros(2), goal)
    _, _, done, success = point_step(s, np.zeros(2))
    assert done and success


def test_point_step_nonfinite_action_error():
    s = PointReachState(np.zeros(2), np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match="finite"):
        point_step(s, np.array([np.nan, 0.0]))


def test_point_step_horizon_cutoff():
    s = PointReachState(np.array([-0.7, -0.7]), np.zeros(2), np.array([0.7, 0.7]))
    done = False
    for k in range(200):
        s, _, done, success = point_step(s, np.zeros(2))
    assert done and not success and s.steps == 200


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_point_step_never_leaves_bounds(seed):
    rng = np.random.default_rng(seed)
    s = PointReachState(rng.uniform(-1, 1, 2), rng.uniform(-0.2, 0.2, 2), rng.uniform(-1, 1, 2))
    for _ in range(5):
        s, _, _, _ = point_step(s, rng.uniform(-3, 3, 2))
        assert np.all(np.abs(s.velocity) <= 0.2)
        assert np.all(np.abs(s.position) <= 1.0)


def _random_point_steps(rng, n):
    """(state, action) draws: a third uniform over the arena with actions
    outside the box, a third near the success radius, and a third that stays
    put exactly on it, where a differently rounded distance flips success."""
    draws = []
    for k in range(n):
        goal = rng.uniform(-0.85, 0.85, 2)
        angle = rng.uniform(0, 2 * math.pi)
        on_circle = goal + 0.1 * np.array([math.cos(angle), math.sin(angle)])
        steps = int(rng.integers(0, 10))
        if k % 3 == 0:
            state = PointReachState(rng.uniform(-1, 1, 2), rng.uniform(-0.2, 0.2, 2), goal, steps)
            action = rng.uniform(-3, 3, 2)
        elif k % 3 == 1:
            state = PointReachState(on_circle + rng.uniform(-0.02, 0.02, 2), rng.uniform(-0.01, 0.01, 2), goal, steps)
            action = rng.uniform(-0.2, 0.2, 2)
        else:
            state = PointReachState(on_circle, np.zeros(2), goal, steps)
            action = np.zeros(2)
        draws.append((state, action))
    return draws


@pytest.mark.parametrize("wall", [False, True])
def test_point_reach_step_matches_point_step_bitwise(wall):
    # the env keeps its state as floats; it must agree bit for bit with
    # point_step plus observe, and both with the numpy reference
    rng = np.random.default_rng(17 + wall)
    env = make_env("point_reach", seed=0, horizon=8, wall=wall)
    successes = 0
    for s, action in _random_point_steps(rng, 12_000):
        env.state = s
        obs, reward, done, success = env.step(action)
        s2, reward2, done2, success2 = point_step(s, action, horizon=8, wall=wall)
        assert obs.tobytes() == observe(s2).tobytes()
        assert (reward, done, success, env.state.steps) == (reward2, done2, success2, s2.steps)
        position, velocity, success3 = oracles.point_step_reference(s.position, s.velocity, s.goal, action, wall)
        assert s2.position.tobytes() == position.tobytes() and s2.velocity.tobytes() == velocity.tobytes()
        assert success2 == success3
        successes += success
    assert 1000 < successes < 11_000  # the radius test is exercised on both sides


def _load_rows(env, states):
    # put the given PointReachStates into the rows of a vector env
    env._obs[:] = [observe(s) for s in states]
    env._steps[:] = [s.steps for s in states]
    env.open[:] = True


@pytest.mark.parametrize("wall", [False, True])
def test_vector_point_step_rows_match_point_step_bitwise(wall):
    # lockstep rows take the vectorized dynamics; each must agree bit for
    # bit with point_step, on the success radius and at the horizon too
    rng = np.random.default_rng(23 + wall)
    n = 16
    env = make_env("point_reach", seed=0, horizon=8, wall=wall, n_envs=n)
    draws = _random_point_steps(rng, 6000)
    successes = horizon_ends = 0
    for lo in range(0, len(draws) - n + 1, n):
        chunk = draws[lo : lo + n]
        _load_rows(env, [s for s, _ in chunk])
        obs, done, success = env.step_rows(np.array([a for _, a in chunk]))
        for i, (s, action) in enumerate(chunk):
            s2, _, done2, success2 = point_step(s, action, horizon=8, wall=wall)
            assert obs[i].tobytes() == observe(s2).tobytes()
            assert (bool(done[i]), bool(success[i])) == (done2, success2)
            successes += success2
            horizon_ends += done2 and not success2
    assert 500 < successes < 5500 and horizon_ends > 100
    assert np.array_equal(env.open, ~done)


def test_vector_sine_rows_match_the_single_env_grading():
    n = 16
    env = make_env("sine", seed=4, n_envs=n)
    rng = np.random.default_rng(5)
    spec = env.spec
    for _ in range(50):
        s = env.reset_rows(np.arange(n))[:, 0]
        targets = np.array([float(expert_curve(spec, float(x))) for x in s])
        actions = targets + rng.uniform(-0.15, 0.15, n)
        obs, done, success = env.step_rows(actions[:, None])
        assert obs[:, 0].tobytes() == s.tobytes() and done.all()
        assert [bool(x) for x in success] == [abs(float(a) - t) < env.success_tol for a, t in zip(actions, targets)]
    with pytest.raises(RuntimeError, match="reset"):
        env.step_rows(actions[:, None])  # every row closed its one-step episode


@pytest.mark.parametrize("name", ["point_reach", "sine"])
def test_vector_reset_draws_rows_in_order_from_one_stream(name):
    # a k-wide reset draws the start states of k single-env resets in turn
    wide = make_env(name, seed=8, n_envs=12).reset_rows(np.arange(12))
    single = make_env(name, seed=8)
    assert wide.tobytes() == np.array([single.reset() for _ in range(12)]).tobytes()
    if name == "point_reach":
        rng = np.random.default_rng(8)
        assert wide.tobytes() == np.array([observe(point_reset(1.0, rng)) for _ in range(12)]).tobytes()


def test_vector_env_keeps_and_resets_chosen_rows():
    env = make_env("point_reach", seed=1, n_envs=5)
    obs = env.reset_rows(np.arange(5))
    env.keep_rows(np.array([4, 1]))
    assert env.n_envs == 2 and np.array_equal(env.reset_rows(np.array([], dtype=int)), obs[[4, 1]])
    fresh = env.reset_rows(np.array([1]))
    assert np.array_equal(fresh[0], obs[4]) and not np.array_equal(fresh[1], obs[1])
    with pytest.raises(ValueError, match="shape"):
        env.step_rows(np.zeros((3, 2)))
    with pytest.raises(ValueError, match="finite"):
        env.step_rows(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="1-wide"):
        env.reset()


def test_wall_blocks_horizontal_crossing():
    s = PointReachState(np.array([-0.2, 0.0]), np.zeros(2), np.array([0.9, 0.0]))
    for _ in range(30):
        s, _, _, _ = point_step(s, np.array([1.0, 0.0]), wall=True)
    assert s.position[0] <= -0.05


def test_scripted_expert_at_goal_is_idle():
    goal = np.array([0.3, -0.4])
    s = PointReachState(goal.copy(), np.zeros(2), goal)
    assert np.array_equal(scripted_expert(s), [0.0, 0.0])


def test_scripted_expert_points_at_goal():
    s = PointReachState(np.array([0.0, 0.0]), np.zeros(2), np.array([0.5, 0.0]))
    a = scripted_expert(s)
    assert a[0] > 0 and a[1] == 0.0
    assert np.array_equal(scripted_actor(observe(s)), a)


def test_scripted_expert_reaches_goal_from_midpoints():
    s = point_reset(0.0, np.random.default_rng(0))
    done = success = False
    steps = 0
    while not done:
        s, _, done, success = point_step(s, scripted_expert(s))
        steps += 1
    assert success and steps <= 200


def test_scripted_expert_success_rate():
    rng = np.random.default_rng(5)
    wins = 0
    for _ in range(1000):
        s = point_reset(1.0, rng)
        done = success = False
        while not done:
            s, _, done, success = point_step(s, scripted_expert(s))
        wins += success
    assert wins >= 990


def test_gen_expert_single_trajectory():
    ds = gen_expert_dataset(1, np.random.default_rng(0))
    assert ds.num_trajectories == 1
    assert ds.dones[-1] and not np.any(ds.dones[:-1])
    assert ds.state_dim == 6 and ds.action_dim == 2


def test_gen_expert_census():
    ds = gen_expert_dataset(100, np.random.default_rng(1))
    assert ds.num_trajectories == 100
    assert 1000 <= len(ds) <= 10_000


@pytest.mark.parametrize("n", [1, 7, 60])
@pytest.mark.parametrize("noise", [0.0, 1.0])
# at horizons 15 (open arena) and 18 (wall) about a quarter of the noisy
# episodes fail, so the missing trajectories are retried over several
# rounds; at 17 with the wall about two thirds fail, and at 5 all do
@pytest.mark.parametrize("wall, horizon", [(False, 200), (True, 200), (False, 15), (True, 18), (True, 17), (False, 5)])
def test_gen_expert_matches_episode_by_episode_reference(n, noise, wall, horizon):
    rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
    states, actions, dones, successes, attempts = oracles.expert_dataset_reference(n, ref_rng, noise, horizon, wall)
    if successes < n or 2 * successes < attempts:
        with pytest.raises(RuntimeError, match=f"success rate too low: {successes}/{attempts} attempts"):
            gen_expert_dataset(n, rng, noise_scale=noise, horizon=horizon, wall=wall)
    else:
        ds = gen_expert_dataset(n, rng, noise_scale=noise, horizon=horizon, wall=wall)
        assert ds.states.tobytes() == states.tobytes() and ds.actions.tobytes() == actions.tobytes()
        assert ds.dones.tobytes() == dones.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_gen_expert_error_on_hopeless_horizon():
    with pytest.raises(RuntimeError, match="success rate too low: 0/20 attempts"):
        gen_expert_dataset(2, np.random.default_rng(0), horizon=5)


# --- env wrappers ------------------------------------------------------------


def test_make_env_unknown_name():
    with pytest.raises(ValueError, match="sine, point_reach"):
        make_env("nosuch")


def test_sine_env_grades_against_curve():
    env = make_env("sine", seed=0)
    obs = env.reset()
    assert obs.shape == (1,)
    target = float(expert_curve(env.spec, obs[0]))
    _, reward, done, success = env.step(np.array([target]))
    assert done and success and reward == 0.0
    env.reset()
    _, _, done, success = env.step(np.array([target + 5.0]))
    assert done and not success


def test_point_env_protocol_and_determinism():
    e1 = make_env("point_reach", seed=3)
    e2 = make_env("point_reach", seed=3)
    assert np.array_equal(e1.reset(), e2.reset())
    obs, reward, done, success = e1.step(np.array([1.0, 1.0]))
    assert obs.shape == (6,) and reward == 0.0 and not done and not success
    # second resets also agree: the reset stream is internal to each env
    assert np.array_equal(e1.reset(), e2.reset())


def test_env_step_before_reset_errors():
    env = make_env("point_reach", seed=0)
    with pytest.raises(RuntimeError, match="reset"):
        env.step(np.zeros(2))
