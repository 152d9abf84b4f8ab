import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drail_lab import diffusion, nn_core
from drail_lab.diffusion import (
    NoiseSchedule,
    build_cosine_schedule,
    build_denoiser,
    diffusion_loss_single,
    fake_label,
    noising,
    predict_noise,
    real_label,
    time_embedding,
)

from oracles import cosine_alpha_bar_by_hand, diffusion_loss_reference, fd_grad, rel_err


# --- schedule -----------------------------------------------------------


def test_schedule_starts_at_one():
    for T, s in [(1, 0.008), (17, 0.1), (1000, 0.008)]:
        assert build_cosine_schedule(T, s).alpha_bar[0] == 1.0


def test_schedule_T1000_shape():
    sched = build_cosine_schedule(1000, 0.008)
    ab = sched.alpha_bar
    assert np.all(np.diff(ab) < 0.0)
    assert ab[-1] < 1e-4
    assert np.all(ab > 0.0) and np.all(ab <= 1.0)


def test_schedule_T4_matches_hand_table():
    got = build_cosine_schedule(4, 0.008).alpha_bar
    want = cosine_alpha_bar_by_hand(4, 0.008)
    assert np.allclose(got, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("T", [4, 100, 1000])
def test_schedule_beta_caps(T):
    ab = build_cosine_schedule(T).alpha_bar
    beta = 1.0 - ab[1:] / ab[:-1]
    assert np.all(beta > 0.0)
    assert np.all(beta <= 0.999 + 1e-12)


def test_schedule_rejects_bad_args():
    with pytest.raises(ValueError):
        build_cosine_schedule(0)
    with pytest.raises(ValueError):
        build_cosine_schedule(10, 0.0)


@settings(max_examples=20, deadline=None)
@given(T=st.integers(1, 400), s=st.floats(1e-4, 0.5))
def test_schedule_invariants_property(T, s):
    ab = build_cosine_schedule(T, s).alpha_bar
    assert ab[0] == 1.0
    assert np.all(np.diff(ab) < 0.0)
    assert ab[-1] > 0.0


# --- noising --------------------------------------------------------------


def test_noising_t0_returns_x0():
    sched = build_cosine_schedule(10)
    x0 = np.array([0.3, -1.2])
    out = noising(x0, 0, np.array([5.0, 5.0]), sched)
    assert np.array_equal(out, x0)


def test_noising_full_noise_limit():
    sched = build_cosine_schedule(1000)
    eps = np.array([1.5, -0.5])
    out = noising(np.array([1.0, 1.0]), 1000, eps, sched)
    # alpha_bar_T < 1e-4, so the output is eps to within ~1%
    assert np.allclose(out, eps, atol=0.02)


def test_noising_quarter_signal():
    sched = NoiseSchedule(T=1, alpha_bar=np.array([1.0, 0.25]), s_offset=0.008)
    out = noising(np.array([1.0]), 1, np.array([0.0]), sched)
    assert out[0] == pytest.approx(0.5, abs=1e-15)


def test_noising_zero_eps_linearity():
    sched = build_cosine_schedule(50)
    x0 = np.array([2.0, -3.0, 0.5])
    for t in [0, 1, 25, 50]:
        out = noising(x0, t, np.zeros(3), sched)
        assert np.array_equal(out, math.sqrt(sched.alpha_bar[t]) * x0)


def test_noising_range_and_shape_errors():
    sched = build_cosine_schedule(10)
    with pytest.raises(ValueError, match="outside"):
        noising(np.zeros(2), 11, np.zeros(2), sched)
    with pytest.raises(ValueError, match="shape"):
        noising(np.zeros(2), 1, np.zeros(3), sched)


# --- time embedding -------------------------------------------------------


def test_time_embedding_t0():
    emb = time_embedding(0, 1000, 8)
    assert np.all(emb[:4] == 0.0)
    assert np.all(emb[4:] == 1.0)


def test_time_embedding_deterministic():
    assert np.array_equal(time_embedding(37, 1000, 16), time_embedding(37, 1000, 16))


def test_time_embedding_distinguishes_endpoints():
    a = time_embedding(1, 1000, 16)
    b = time_embedding(1000, 1000, 16)
    assert np.max(np.abs(a - b)) > 0.1


def test_time_embedding_rejects_odd_dim():
    with pytest.raises(ValueError):
        time_embedding(1, 10, 7)


@pytest.mark.parametrize("T, dim", [(1000, 16), (10, 16), (8, 4), (100, 2), (1000, 8)])
def test_time_features_table_equals_per_row_features_bitwise(T, dim):
    model = build_denoiser(1, 1, 0, hidden=(4,), time_embed_dim=dim, T=T)
    # batches of other sizes and orders take other SIMD paths through sin/cos
    rng = np.random.default_rng(T + dim)
    for n in (1, 3, 17, 39, 511, 4096):
        draw = rng.integers(0, T + 1, size=n)
        got = model.time_features(draw)
        assert got.tobytes() == diffusion._time_embedding_batch(draw.astype(np.float64), T, dim).tobytes()
    for t in range(T + 1):
        one = diffusion._time_embedding_batch(np.array([float(t)]), T, dim)
        assert model.time_features(np.array([t])).tobytes() == one.tobytes()


def test_time_features_reject_timesteps_outside_the_schedule():
    model = build_denoiser(1, 1, 0, hidden=(4,), T=10)
    for bad in ([-1], [11], [3, -1, 4], [0, 11]):
        with pytest.raises(ValueError, match="outside"):
            model.time_features(np.array(bad))


# --- denoiser -------------------------------------------------------------


def test_denoiser_shapes():
    model = build_denoiser(state_dim=2, action_dim=1, label_dim=10, hidden=(16,), time_embed_dim=8)
    # no label columns in: the label picks one of a real and a fake head out
    assert model.specs[0].in_dim == 2 + 1 + 8
    assert model.specs[-1].out_dim == 2 * 3
    assert build_denoiser(2, 1, 0, hidden=(16,), time_embed_dim=8).specs[-1].out_dim == 3
    assert model.specs[0].activation == "relu"
    assert model.specs[-1].activation == "identity"


def test_denoiser_rejects_negative_dims():
    # the input width stays positive, so only the dims check stops these
    with pytest.raises(ValueError, match="label_dim"):
        build_denoiser(1, 1, -1)
    with pytest.raises(ValueError, match="time_embed_dim"):
        build_denoiser(2, 1, 2, time_embed_dim=-2)


def test_predict_noise_zero_net():
    model = build_denoiser(1, 1, 4, hidden=(8,), time_embed_dim=4)
    model = model.with_params(model.params.with_values(np.zeros(len(model.params))))
    out = predict_noise(model, np.array([0.2]), np.array([0.4]), np.array([0.1, 0.1]), 3, real_label(4))
    assert np.all(out == 0.0)
    assert out.shape == (2,)


def test_predict_noise_matches_explicit_concat():
    model = build_denoiser(2, 1, 3, hidden=(8,), time_embed_dim=4, seed=5)
    s = np.array([0.1, -0.2])
    a = np.array([0.7])
    x_t = np.array([0.5, 0.5, 0.5])
    t = 7
    # the first layer is folded (data and time terms apart), so the
    # explicit row's one product agrees to rounding, not bit for bit; the
    # label picks the real (first) or the fake (second) head
    out = nn_core.forward(model.params, model.specs, np.concatenate([x_t, time_embedding(t, model.schedule.T, 4)]))
    for label, want in ((real_label(3), out[:3]), (fake_label(3), out[3:])):
        got = predict_noise(model, s, a, x_t, t, label)
        assert np.max(np.abs(got - want)) <= 1e-12
    assert np.any(out[:3] != out[3:])


def test_predict_noise_dim_mismatch():
    model = build_denoiser(2, 1, 3, hidden=(8,))
    with pytest.raises(ValueError):
        predict_noise(model, np.zeros(3), np.zeros(1), np.zeros(3), 1, real_label(3))
    with pytest.raises(ValueError):
        predict_noise(model, np.zeros(2), np.zeros(1), np.zeros(3), 1, real_label(5))


# --- single-draw loss -------------------------------------------------------


def _zero_net(model):
    return model.with_params(model.params.with_values(np.zeros(len(model.params))))


def test_loss_zero_for_perfect_prediction():
    model = _zero_net(build_denoiser(1, 1, 2, hidden=(4,)))
    # zero net predicts 0 everywhere, so eps = 0 is predicted exactly
    loss = diffusion_loss_single(model, np.array([0.3]), np.array([0.7]), real_label(2), 5, np.zeros(2))
    assert loss == 0.0


def test_loss_one_for_unit_offset():
    model = build_denoiser(1, 1, 2, hidden=(4,))
    values = np.zeros(len(model.params))
    # zero weights, output bias 1: prediction is (1, 1) for any input
    values[-model.specs[-1].out_dim :] = 1.0
    model = model.with_params(model.params.with_values(values))
    loss = diffusion_loss_single(model, np.array([0.3]), np.array([0.7]), real_label(2), 5, np.zeros(2))
    assert loss == pytest.approx(1.0, abs=1e-15)


def test_loss_monte_carlo_mean():
    # zero net: loss per draw is mean(eps^2) over d=3 coordinates, E = 1
    model = _zero_net(build_denoiser(2, 1, 2, hidden=(4,), T=100))
    rng = np.random.default_rng(0)
    n = 10_000
    ts = rng.integers(1, 101, size=n)
    eps = rng.standard_normal((n, 3))
    losses, _, _ = diffusion.batched_losses(
        model, np.tile(np.array([0.1, 0.2, 0.3]), (n, 1)), ts, eps, np.zeros((n, 2))
    )
    se = math.sqrt(2.0 / 3.0 / n)
    assert abs(float(np.mean(losses)) - 1.0) < 3.0 * se


def test_loss_nonnegative_property():
    model = build_denoiser(1, 1, 2, hidden=(6,), seed=3)
    rng = np.random.default_rng(1)
    for _ in range(50):
        loss = diffusion_loss_single(
            model,
            rng.normal(size=1),
            rng.normal(size=1),
            real_label(2) if rng.random() < 0.5 else fake_label(2),
            int(rng.integers(1, model.schedule.T + 1)),
            rng.standard_normal(2),
        )
        assert loss >= 0.0


def test_loss_rejects_bad_inputs():
    model = build_denoiser(1, 1, 2, hidden=(4,))
    with pytest.raises(ValueError, match="non-finite"):
        diffusion_loss_single(model, np.array([np.nan]), np.array([0.0]), real_label(2), 1, np.zeros(2))
    with pytest.raises(ValueError, match="outside"):
        diffusion_loss_single(model, np.array([0.0]), np.array([0.0]), real_label(2), 0, np.zeros(2))


def test_loss_gradient_matches_finite_differences():
    model = build_denoiser(1, 1, 2, hidden=(8,), time_embed_dim=4, seed=13)
    s = np.array([0.31])
    a = np.array([-0.44])
    t = 40
    eps = np.array([0.5, -1.1])

    # each label's loss reads its own head: the other head's upstream is zero
    for head, label in enumerate((real_label(2), fake_label(2))):
        losses, inputs, preds = diffusion.batched_losses(
            model, np.array([np.concatenate([s, a])]), np.array([t]), np.array([eps]), label.embedding[None, :]
        )
        upstream = np.zeros((1, 4))
        upstream[:, 2 * head : 2 * head + 2] = diffusion.loss_grad_upstream(preds, np.array([eps]), np.ones(1))
        grad = nn_core.backward_batch(model.params, model.specs, inputs, upstream)

        def scalar(theta):
            return diffusion_loss_single(model.with_params(model.params.with_values(theta)), s, a, label, t, eps)

        assert rel_err(grad, fd_grad(scalar, model.params.values)) < 1e-5


def test_batched_losses_match_single():
    model = build_denoiser(2, 1, 4, hidden=(8,), time_embed_dim=4, seed=9)
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(6, 3))
    ts = rng.integers(1, model.schedule.T + 1, size=6)
    eps = rng.standard_normal((6, 3))
    labels = np.vstack([np.ones((3, 4)), np.zeros((3, 4))])
    losses, _, _ = diffusion.batched_losses(model, x0, ts, eps, labels)
    for i in range(6):
        label = real_label(4) if i < 3 else fake_label(4)
        single = diffusion_loss_reference(model, x0[i, :2], x0[i, 2:], label, int(ts[i]), eps[i])
        assert losses[i] == pytest.approx(single, abs=1e-12)
        wrapped = diffusion_loss_single(model, x0[i, :2], x0[i, 2:], label, int(ts[i]), eps[i])
        assert wrapped == pytest.approx(single, abs=1e-12)
