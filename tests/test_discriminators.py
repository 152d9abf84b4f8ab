import math

import numpy as np
import pytest

from drail_lab import discriminators as disc_mod
from drail_lab import nn_core
from drail_lab.diffusion import Denoiser, NoiseSchedule, batched_losses, loss_grad_upstream
from drail_lab.discriminators import (
    DIFFAIL_LOSS_FLOOR,
    DIFFAIL_REWARD_FLOOR,
    DiffailDiscriminator,
    DrailClassifier,
    GailDiscriminator,
    build_diffail,
    build_drail,
    build_gail,
    diffail_disc_loss,
    diffail_loss_batch,
    diffail_prob,
    diffail_reward,
    diffail_reward_from_loss,
    diffail_update,
    drail_disc_loss,
    drail_logit,
    drail_logit_batch,
    drail_prob,
    drail_reward,
    drail_update,
    gail_disc_loss,
    gail_prob,
    gail_reward,
    gail_update,
    load_discriminator,
    save_discriminator,
)
from drail_lab.nn_core import AdamState, LayerSpec, ParamStore

from oracles import denoiser_losses_one_piece, explicit_denoiser_rows, fd_grad, head_losses, rel_err

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def _identity_denoiser(values, alpha_bar=(1.0, 1e-30)):
    """One identity layer from [x_t | time(2)] to a real and a fake head,
    two outputs each, hand-set weights."""
    specs = (LayerSpec(2 + 2, 4, "identity"),)
    params = ParamStore(np.asarray(values, dtype=np.float64), nn_core.layout_for(specs))
    return Denoiser(
        params=params,
        specs=specs,
        state_dim=1,
        action_dim=1,
        label_dim=1,
        time_embed_dim=2,
        schedule=NoiseSchedule(T=1, alpha_bar=np.asarray(alpha_bar), s_offset=0.008),
    )


def _constant_gap_classifier():
    """x0=0 and alpha_bar_1 ~ 0 make x_t = eps exactly; both heads of the
    identity layer copy it, and the fake head adds bias b. With mean(b^2) =
    ln 3 the loss gap is exactly ln 3."""
    b = math.sqrt(LN3)
    w = np.zeros((4, 4))
    w[0, 0] = w[1, 1] = w[2, 0] = w[3, 1] = 1.0  # copy x_t into each head
    values = np.concatenate([w.ravel(), [0.0, 0.0, b, b]])
    den = _identity_denoiser(values)
    return DrailClassifier(den, AdamState.fresh(len(den.params), 1e-3), sample_count=1)


def _sign_separating_classifier():
    """Scaling the x_t copy path by 1/sqrt(1-ab) makes the injected noise
    cancel exactly out of the loss gap, leaving a linear function of x0
    that is +20 on state +1 and -20 on state -1: the heads differ only in
    the first coordinate's bias, -10 sqrt(3) real and +10 sqrt(3) fake."""
    scale = 1.0 / math.sqrt(0.75)
    w = np.zeros((4, 4))
    w[0, 0] = w[1, 1] = w[2, 0] = w[3, 1] = scale
    values = np.concatenate([w.ravel(), [-10.0 * math.sqrt(3.0), 0.0, 10.0 * math.sqrt(3.0), 0.0]])
    den = _identity_denoiser(values, alpha_bar=(1.0, 0.25))
    return DrailClassifier(den, AdamState.fresh(len(den.params), 1e-3), sample_count=1)


# --- drail logits, probs, rewards -----------------------------------------


def test_build_drail_rejects_negative_label_dim():
    # its checkpoint packs label_dim as u32; the build fails before any run
    with pytest.raises(ValueError, match="label_dim"):
        build_drail(1, 1, label_dim=-1)


def test_drail_logit_zero_for_unconditional_model():
    clf = build_drail(1, 1, label_dim=0, hidden=(8,), T=20, seed=4)
    delta, draw = drail_logit(clf, np.array([0.3]), np.array([-0.5]), np.random.default_rng(0))
    assert delta == 0.0
    assert draw[0].shape == (1,) and draw[1].shape == (1, 2)


def test_drail_logit_constructed_gap():
    clf = _constant_gap_classifier()
    delta, _ = drail_logit(clf, np.array([0.0]), np.array([0.0]), np.random.default_rng(3))
    assert delta == pytest.approx(LN3, abs=1e-12)


def test_drail_logit_reproducible():
    clf = build_drail(2, 1, label_dim=4, hidden=(8,), T=50, seed=7)
    s, a = np.array([0.1, 0.2]), np.array([0.3])
    d1, _ = drail_logit(clf, s, a, np.random.default_rng(99))
    d2, _ = drail_logit(clf, s, a, np.random.default_rng(99))
    assert d1 == d2


def test_drail_prob_values():
    assert drail_prob(0.0) == 0.5
    assert drail_prob(LN3) == pytest.approx(0.75, abs=1e-15)
    assert drail_prob(-LN3) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        drail_prob(float("nan"))


def test_drail_prob_extreme_logits():
    assert drail_prob(700.0) == 1.0
    assert drail_prob(-700.0) > 0.0


def test_drail_reward_is_logit():
    clf = _constant_gap_classifier()
    r = drail_reward(clf, np.array([0.0]), np.array([0.0]), np.random.default_rng(0))
    assert r == pytest.approx(LN3, abs=1e-12)
    # explicit log-odds route through D = 0.75
    assert r == pytest.approx(math.log(0.75) - math.log(0.25), abs=1e-12)


def test_drail_reward_dual_path_equivalence():
    clf = build_drail(2, 1, label_dim=6, hidden=(12,), T=100, seed=1)
    rng_states = np.random.default_rng(5)
    for i in range(100):
        s = rng_states.normal(size=2)
        a = rng_states.normal(size=1)
        delta = drail_reward(clf, s, a, np.random.default_rng(1000 + i))
        prob = drail_prob(delta)
        explicit = math.log(prob) - math.log(1.0 - prob)
        assert abs(delta - explicit) < 1e-9


def test_drail_relative_boundary():
    clf = build_drail(1, 1, label_dim=4, hidden=(10,), T=50, seed=2)
    rng = np.random.default_rng(8)
    for i in range(200):
        delta, _ = drail_logit(clf, rng.normal(size=1), rng.normal(size=1), np.random.default_rng(i))
        # predicted expert (prob > 1/2) exactly when the real-label loss is lower
        assert (drail_prob(delta) > 0.5) == (delta > 0.0)


# --- drail loss and update ---------------------------------------------------


def test_drail_loss_symmetric_model_is_two_ln2():
    clf = build_drail(1, 1, label_dim=0, hidden=(8,), T=20, seed=3)
    expert = (np.array([[0.5]]), np.array([[0.1]]))
    agent = (np.array([[-0.5]]), np.array([[-0.1]]))
    loss, grad = drail_disc_loss(clf, expert, agent, np.random.default_rng(0))
    assert loss == pytest.approx(2.0 * LN2, abs=1e-12)


def test_drail_loss_saturated_separation():
    clf = _sign_separating_classifier()
    expert = (np.ones((3, 1)), np.zeros((3, 1)))
    agent = (-np.ones((3, 1)), np.zeros((3, 1)))
    loss, _ = drail_disc_loss(clf, expert, agent, np.random.default_rng(0))
    assert loss < 1e-8


def test_drail_loss_gradient_matches_fd():
    clf = build_drail(1, 1, label_dim=3, hidden=(8,), time_embed_dim=4, T=30, seed=6, sample_count=2)
    expert = (np.array([[0.4], [0.6]]), np.array([[0.9], [1.1]]))
    agent = (np.array([[-0.4], [0.2]]), np.array([[-0.9], [0.0]]))
    loss, grad = drail_disc_loss(clf, expert, agent, np.random.default_rng(11))

    def scalar(theta):
        trial = DrailClassifier(
            clf.denoiser.with_params(clf.denoiser.params.with_values(theta)), clf.optimizer, clf.sample_count
        )
        return drail_disc_loss(trial, expert, agent, np.random.default_rng(11))[0]

    assert rel_err(grad, fd_grad(scalar, clf.denoiser.params.values)) < 1e-5


def test_drail_loss_rejects_empty_batch():
    clf = build_drail(1, 1, label_dim=2, hidden=(4,), T=10)
    with pytest.raises(ValueError, match="empty"):
        drail_disc_loss(clf, (np.zeros((0, 1)), np.zeros((0, 1))), (np.zeros((1, 1)), np.zeros((1, 1))), np.random.default_rng(0))


def test_drail_update_descends():
    expert = (np.array([[0.5], [0.7], [0.3], [0.6]]), np.full((4, 1), 0.8))
    agent = (np.array([[-0.5], [-0.7], [-0.3], [-0.6]]), np.full((4, 1), -0.8))
    for seed in range(20):
        clf = build_drail(1, 1, label_dim=4, hidden=(12,), T=30, lr=1e-4, seed=seed)
        before, _ = drail_disc_loss(clf, expert, agent, np.random.default_rng(42))
        clf2, _ = drail_update(clf, expert, agent, np.random.default_rng(42))
        after, _ = drail_disc_loss(clf2, expert, agent, np.random.default_rng(42))
        assert after < before


def test_drail_update_zero_lr_noop():
    clf = build_drail(1, 1, label_dim=2, hidden=(6,), T=10, lr=0.0)
    expert = (np.array([[0.5]]), np.array([[0.8]]))
    agent = (np.array([[-0.5]]), np.array([[-0.8]]))
    clf2, _ = drail_update(clf, expert, agent, np.random.default_rng(0))
    assert np.array_equal(clf2.denoiser.params.values, clf.denoiser.params.values)


def test_drail_trains_to_separate_1d_batch():
    rng = np.random.default_rng(0)
    expert = (rng.uniform(-1, 1, size=(64, 1)), rng.normal(0.8, 0.05, size=(64, 1)))
    agent = (rng.uniform(-1, 1, size=(64, 1)), rng.normal(-0.8, 0.05, size=(64, 1)))
    clf = build_drail(1, 1, label_dim=4, hidden=(32,), time_embed_dim=8, T=50, lr=1e-3, seed=1)
    train_rng = np.random.default_rng(2)
    for _ in range(500):
        clf, _ = drail_update(clf, expert, agent, train_rng)
    held_expert = (rng.uniform(-1, 1, size=(100, 1)), rng.normal(0.8, 0.05, size=(100, 1)))
    held_agent = (rng.uniform(-1, 1, size=(100, 1)), rng.normal(-0.8, 0.05, size=(100, 1)))
    eval_clf = DrailClassifier(clf.denoiser, clf.optimizer, sample_count=16)
    eval_rng = np.random.default_rng(3)
    de = disc_mod.drail_logit_batch(eval_clf, held_expert[0], held_expert[1], eval_rng)
    da = disc_mod.drail_logit_batch(eval_clf, held_agent[0], held_agent[1], eval_rng)
    accuracy = (np.sum(de > 0) + np.sum(da <= 0)) / 200.0
    assert accuracy >= 0.95


# --- gail -------------------------------------------------------------------


def _zeroed(disc):
    return GailDiscriminator(
        disc.params.with_values(np.zeros(len(disc.params))), disc.specs, disc.optimizer, disc.state_dim, disc.action_dim
    )


def test_gail_zero_net_is_uninformed():
    disc = _zeroed(build_gail(2, 1, hidden=(16,)))
    assert gail_prob(disc, np.zeros(2), np.zeros(1)) == 0.5
    assert gail_reward(disc, np.array([3.0, -2.0]), np.array([1.0])) == 0.0


def test_gail_loss_at_uninformed_point():
    disc = _zeroed(build_gail(1, 1, hidden=(8,)))
    loss, _ = gail_disc_loss(disc, (np.ones((5, 1)), np.ones((5, 1))), (np.zeros((5, 1)), np.zeros((5, 1))))
    assert loss == pytest.approx(2.0 * LN2, abs=1e-15)


def test_gail_loss_gradient_matches_fd():
    disc = build_gail(2, 1, hidden=(8,), seed=3)
    rng = np.random.default_rng(1)
    expert = (rng.normal(size=(3, 2)), rng.normal(size=(3, 1)))
    agent = (rng.normal(size=(3, 2)), rng.normal(size=(3, 1)))
    loss, grad = gail_disc_loss(disc, expert, agent)

    def scalar(theta):
        trial = GailDiscriminator(disc.params.with_values(theta), disc.specs, disc.optimizer, 2, 1)
        return gail_disc_loss(trial, expert, agent)[0]

    assert rel_err(grad, fd_grad(scalar, disc.params.values)) < 1e-5


def test_gail_reward_is_logit_of_prob():
    disc = build_gail(1, 1, hidden=(8,), seed=9)
    s, a = np.array([0.4]), np.array([-0.3])
    p = gail_prob(disc, s, a)
    r = gail_reward(disc, s, a)
    assert r == pytest.approx(math.log(p) - math.log(1 - p), abs=1e-9)


def test_gail_update_descends():
    rng = np.random.default_rng(4)
    expert = (rng.uniform(-1, 1, (32, 1)), np.full((32, 1), 0.7))
    agent = (rng.uniform(-1, 1, (32, 1)), np.full((32, 1), -0.7))
    disc = build_gail(1, 1, hidden=(16,), lr=1e-3, seed=0)
    before, _ = gail_disc_loss(disc, expert, agent)
    for _ in range(50):
        disc, _ = gail_update(disc, expert, agent)
    after, _ = gail_disc_loss(disc, expert, agent)
    assert after < before


# --- diffail ------------------------------------------------------------------


def test_diffail_fixed_boundary_point():
    rewards, saturated = diffail_reward_from_loss(np.array([LN2]))
    assert rewards[0] == pytest.approx(0.0, abs=1e-12)
    assert saturated == 0
    assert math.exp(-LN2) == pytest.approx(0.5)


def test_diffail_reward_floor():
    rewards, _ = diffail_reward_from_loss(np.array([100.0]))
    assert rewards[0] == DIFFAIL_REWARD_FLOOR


def test_diffail_saturation_counter():
    rewards, saturated = diffail_reward_from_loss(np.array([1e-9, 0.5]))
    assert saturated == 1
    expected = -DIFFAIL_LOSS_FLOOR - math.log(-math.expm1(-DIFFAIL_LOSS_FLOOR))
    assert rewards[0] == pytest.approx(expected, rel=1e-12)


def test_diffail_boundary_equivalence():
    rng = np.random.default_rng(0)
    L = rng.uniform(1e-6, 3.0, size=1000)
    probs = np.exp(-L)
    assert np.array_equal(probs > 0.5, L < LN2)


def test_diffail_prob_matches_loss():
    disc = build_diffail(1, 1, hidden=(8,), T=20, seed=5)
    p, L = diffail_prob(disc, np.array([0.2]), np.array([0.4]), np.random.default_rng(1))
    assert p == pytest.approx(math.exp(-L), rel=1e-12)
    assert 0.0 < p <= 1.0


def test_diffail_loss_gradient_matches_fd():
    disc = build_diffail(1, 1, hidden=(8,), time_embed_dim=4, T=30, seed=2, sample_count=2)
    expert = (np.array([[0.3], [0.5]]), np.array([[0.7], [0.6]]))
    agent = (np.array([[-0.3], [0.1]]), np.array([[-0.7], [0.2]]))
    loss, grad = diffail_disc_loss(disc, expert, agent, np.random.default_rng(21))

    def scalar(theta):
        trial = DiffailDiscriminator(
            disc.denoiser.with_params(disc.denoiser.params.with_values(theta)), disc.optimizer, disc.sample_count
        )
        return diffail_disc_loss(trial, expert, agent, np.random.default_rng(21))[0]

    assert rel_err(grad, fd_grad(scalar, disc.denoiser.params.values)) < 1e-5


def test_diffail_update_descends():
    rng = np.random.default_rng(6)
    expert = (rng.uniform(-1, 1, (16, 1)), np.full((16, 1), 0.6))
    agent = (rng.uniform(-1, 1, (16, 1)), np.full((16, 1), -0.6))
    disc = build_diffail(1, 1, hidden=(16,), T=30, lr=1e-3, seed=1)
    before, _ = diffail_disc_loss(disc, expert, agent, np.random.default_rng(7))
    for _ in range(50):
        disc, _ = diffail_update(disc, expert, agent, np.random.default_rng(7))
    after, _ = diffail_disc_loss(disc, expert, agent, np.random.default_rng(7))
    assert after < before


# --- uninformed losses across all three --------------------------------------


def test_all_losses_at_uninformed_point_equal_two_ln2():
    rng = np.random.default_rng(0)
    expert = (rng.normal(size=(4, 1)), rng.normal(size=(4, 1)))
    agent = (rng.normal(size=(4, 1)), rng.normal(size=(4, 1)))

    drail = build_drail(1, 1, label_dim=0, hidden=(8,), T=10, seed=0)
    l1, _ = drail_disc_loss(drail, expert, agent, np.random.default_rng(1))

    gail = _zeroed(build_gail(1, 1, hidden=(8,)))
    l2, _ = gail_disc_loss(gail, expert, agent)

    # zero-weight diffail predicts 0; feed eps with mean square ln 2 by hand
    diffail = build_diffail(1, 1, hidden=(8,), T=10, seed=0)
    diffail = DiffailDiscriminator(
        diffail.denoiser.with_params(diffail.denoiser.params.with_values(np.zeros(len(diffail.denoiser.params)))),
        diffail.optimizer,
    )
    eps = np.full(2, math.sqrt(LN2))
    losses, _, _ = batched_losses(diffail.denoiser, np.zeros((1, 2)), np.array([5]), eps[None, :], np.zeros((1, 0)))
    L = float(losses[0])
    l3 = L - math.log(-math.expm1(-L))

    for loss in (l1, l2, l3):
        assert loss == pytest.approx(2.0 * LN2, abs=1e-9)


# --- dispatch helpers ---------------------------------------------------------


def test_reward_for_dispatch():
    rng = np.random.default_rng(0)
    S, A = np.zeros((3, 1)), np.zeros((3, 1))
    drail = build_drail(1, 1, label_dim=2, hidden=(4,), T=10)
    gail = build_gail(1, 1, hidden=(4,))
    diffail = build_diffail(1, 1, hidden=(4,), T=10)
    for disc in (drail, gail, diffail):
        rewards, saturated = disc_mod.reward_for(disc, S, A, rng)
        assert rewards.shape == (3,)
        assert saturated >= 0


def test_discriminator_probs_shapes_and_range():
    rng = np.random.default_rng(0)
    pts = np.column_stack([np.linspace(0, 1, 5), np.linspace(-1, 1, 5)])
    for disc in (
        build_drail(1, 1, label_dim=2, hidden=(4,), T=10),
        build_gail(1, 1, hidden=(4,)),
        build_diffail(1, 1, hidden=(4,), T=10),
    ):
        probs = disc_mod.discriminator_probs(disc, pts, rng, samples_per_point=3)
        assert probs.shape == (5,)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)


# --- checkpoints --------------------------------------------------------------


@pytest.mark.parametrize("kind", ["drail", "gail", "diffail"])
def test_discriminator_checkpoint_roundtrip(tmp_path, kind):
    if kind == "drail":
        disc = build_drail(2, 1, label_dim=5, hidden=(8,), T=40, lr=2e-3, sample_count=3, seed=11)
    elif kind == "gail":
        disc = build_gail(2, 1, hidden=(8,), lr=5e-4, seed=11)
    else:
        disc = build_diffail(2, 1, hidden=(8,), T=40, lr=2e-3, sample_count=2, seed=11)
    path = str(tmp_path / f"{kind}.drlp")
    save_discriminator(path, disc)
    loaded = load_discriminator(path)
    assert type(loaded) is type(disc)
    S, A = np.array([[0.1, 0.2]]), np.array([[0.3]])
    if kind == "gail":
        assert gail_reward(loaded, S[0], A[0]) == gail_reward(disc, S[0], A[0])
    elif kind == "drail":
        assert loaded.sample_count == 3
        r1 = drail_reward(disc, S[0], A[0], np.random.default_rng(5))
        r2 = drail_reward(loaded, S[0], A[0], np.random.default_rng(5))
        assert r1 == r2
    else:
        assert loaded.sample_count == 2
        r1 = diffail_reward(disc, S[0], A[0], np.random.default_rng(5))
        r2 = diffail_reward(loaded, S[0], A[0], np.random.default_rng(5))
        assert r1 == r2


def test_load_discriminator_rejects_bare_checkpoint(tmp_path):
    specs = (LayerSpec(2, 1, "identity"),)
    params = nn_core.init_params(specs, 0)
    path = str(tmp_path / "bare.drlp")
    nn_core.save_params(path, params, specs)
    with pytest.raises(ValueError, match="kind"):
        load_discriminator(path)


def _gradient_case(kind):
    if kind == "gail":
        return build_gail(2, 1, hidden=(16, 16), seed=1)
    if kind == "drail":
        return build_drail(2, 1, label_dim=4, hidden=(16, 16), T=50, sample_count=3, seed=1)
    return build_diffail(2, 1, hidden=(16, 16), T=50, sample_count=3, seed=1)


@pytest.mark.parametrize("kind", ["gail", "drail", "diffail"])
def test_disc_loss_gradient_is_backward_batch_bitwise(kind, monkeypatch):
    # gail walks the net once and hands that walk's activations to the
    # backward: its gradient is backward_batch's on the same rows, bit for
    # bit. The denoiser's layers above the first walk the folded rows and
    # go through nn_core._backward: bit for bit backward_batch's on the
    # walked activations. Its first layer's gradient is built from the
    # folded rows' gradient and agrees with backward_batch on the explicit
    # rows to 1e-12.
    calls = []
    spied = "backward_activations" if kind == "gail" else "_backward"
    walked = getattr(nn_core, spied)

    def spy(*args, **kwargs):
        out = walked(*args, **kwargs)
        hs, upstream = args[2:4] if kind == "gail" else args[1:3]
        calls.append((hs[0].copy(), np.array(upstream, copy=True), out))
        return out

    monkeypatch.setattr(nn_core, spied, spy)
    rng = np.random.default_rng(31)
    expert = (rng.uniform(-1, 1, (24, 2)), rng.uniform(-1, 1, (24, 1)))
    agent = (rng.uniform(-1, 1, (20, 2)), rng.uniform(-1, 1, (20, 1)))
    disc = _gradient_case(kind)
    if kind == "gail":
        _, grad = gail_disc_loss(disc, expert, agent)
        [(inputs, upstream, got)] = calls
        assert got is grad
        assert grad.tobytes() == nn_core.backward_batch(disc.params, disc.specs, inputs, upstream).tobytes()
        return
    loss_fn = drail_disc_loss if kind == "drail" else diffail_disc_loss
    _, grad = loss_fn(disc, expert, agent, np.random.default_rng(5))
    [(h1, upstream, _)] = calls
    den = disc.denoiser
    first = den.params.layout[0].size
    above = ParamStore(den.params.values[first:], nn_core.layout_for(den.specs[1:]))
    assert grad[first:].tobytes() == nn_core.backward_batch(above, den.specs[1:], h1, upstream).tobytes()
    states, actions = np.concatenate([expert[0], agent[0]]), np.concatenate([expert[1], agent[1]])
    inputs, _ = explicit_denoiser_rows(disc, states, actions, np.random.default_rng(5))
    explicit = nn_core.backward_batch(den.params, den.specs, inputs, upstream)
    assert rel_err(grad[:first], explicit[:first]) <= 1e-12


def test_conditioned_drail_walks_each_draw_row_once(monkeypatch):
    # the label picks an output head, so the layers above the first walk
    # n x sample_count draw rows per _losses call, not one copy per label
    walked = []
    forward = nn_core._forward

    def spy(layers, x, hs=None):
        walked.append(x.shape[0])
        return forward(layers, x, hs)

    monkeypatch.setattr(nn_core, "_forward", spy)
    clf = build_drail(2, 1, label_dim=10, hidden=(16, 16), T=50, sample_count=3, seed=0)
    rng = np.random.default_rng(2)
    states, actions = rng.uniform(-1, 1, (7, 2)), rng.uniform(-1, 1, (7, 1))
    clf._losses(states, actions, rng)
    clf._losses(states, actions, rng, [])
    assert walked == [7 * 3, 7 * 3]


# denoiser rows per call: one pair, exactly one block, and 3.5 blocks. A
# block holds nn_core._FORWARD_BLOCK draws, each walked once for every
# head; the one-piece reference walks all rows in one call. BLAS
# rounds a row alike in any call of a few thousand rows, but not in small
# calls: on the sine maps' 1-D state and action, scoring in blocks of 512
# rows instead of 8192 changes bytes.
@pytest.mark.parametrize("rows", [1, nn_core._FORWARD_BLOCK, 7 * nn_core._FORWARD_BLOCK // 2])
@pytest.mark.parametrize("sample_count", [1, 4])
@pytest.mark.parametrize("kind", ["drail", "drail_unlabeled", "diffail"])
def test_block_scoring_equals_one_piece_losses_bitwise(kind, sample_count, rows):
    if kind == "diffail":
        disc = build_diffail(1, 1, hidden=(32, 32), T=50, sample_count=sample_count, seed=3)
    else:
        label_dim = 0 if kind == "drail_unlabeled" else 4
        disc = build_drail(1, 1, label_dim=label_dim, hidden=(32, 32), T=50, sample_count=sample_count, seed=3)
    n = max(1, rows // sample_count)
    rng = np.random.default_rng(8)
    states, actions = rng.uniform(-1, 1, (n, 1)), rng.uniform(-1, 1, (n, 1))
    want = denoiser_losses_one_piece(disc, states, actions, np.random.default_rng(4))
    if kind == "diffail":
        got = diffail_loss_batch(disc, states, actions, np.random.default_rng(4))
        assert got.tobytes() == want[0].tobytes()
        return
    got = drail_logit_batch(disc, states, actions, np.random.default_rng(4))
    assert got.tobytes() == (want[-1] - want[0]).tobytes()
    if kind == "drail_unlabeled":
        assert np.all(got == 0.0)


# the fold against the explicit rows [noised | time features] through the
# whole network, sliced into its heads: drail with label_dim 0 (one head),
# 4 and 10 (a real and a fake head) and diffail, one and four draws, sine's 1-D and point_reach's 6+2 dims; the
# ids name the sinusoidal time features every case runs with
_FOLD_KINDS = [("drail", 0), ("drail", 4), ("drail", 10), ("diffail", 0)]


@pytest.mark.parametrize("dims", [(1, 1), (6, 2)])
@pytest.mark.parametrize("sample_count", [1, 4])
@pytest.mark.parametrize("kind, label_dim", _FOLD_KINDS, ids=[f"{k}-{d}-sinusoidal" for k, d in _FOLD_KINDS])
def test_folded_first_layer_matches_explicit_rows(kind, label_dim, sample_count, dims):
    state_dim, action_dim = dims
    kw = dict(hidden=(16, 16), time_embed_dim=8, T=60, sample_count=sample_count, seed=7)
    if kind == "drail":
        disc = build_drail(state_dim, action_dim, label_dim=label_dim, **kw)
    else:
        disc = build_diffail(state_dim, action_dim, **kw)
    rng = np.random.default_rng(12)
    expert = (rng.uniform(-1, 1, (9, state_dim)), rng.uniform(-1, 1, (9, action_dim)))
    agent = (rng.uniform(-1, 1, (7, state_dim)), rng.uniform(-1, 1, (7, action_dim)))
    states, actions = np.concatenate([expert[0], agent[0]]), np.concatenate([expert[1], agent[1]])
    n, m, n_e = states.shape[0], sample_count, 9
    den = disc.denoiser
    inputs, eps = explicit_denoiser_rows(disc, states, actions, np.random.default_rng(3))
    preds = nn_core.forward_batch(den.params, den.specs, inputs)
    losses = head_losses(preds, eps).reshape(-1, n, m).mean(axis=2)
    assert losses.shape[0] == (2 if label_dim else 1)

    if kind == "drail":
        logits = drail_logit_batch(disc, states, actions, np.random.default_rng(3))
        assert np.max(np.abs(logits - (losses[-1] - losses[0]))) <= 1e-12
        if label_dim == 0:
            assert np.all(logits == 0.0)
        want_loss, dz = disc_mod._logit_xent(losses[-1] - losses[0], n_e)
        per_row = np.repeat(dz / m, m)
        # real head -1, fake head +1; a label-blind net's one head gets both
        coeffs = np.stack([-per_row, per_row]) if label_dim else np.zeros((1, n * m))
        loss, grad = drail_disc_loss(disc, expert, agent, np.random.default_rng(3))
    else:
        L = losses[0]
        assert np.max(np.abs(diffail_loss_batch(disc, states, actions, np.random.default_rng(3)) - L)) <= 1e-12
        La = np.maximum(L[n_e:], DIFFAIL_LOSS_FLOOR)
        want_loss = float(np.mean(L[:n_e]) - np.mean(np.log(-np.expm1(-La))))
        dL = np.concatenate([np.full(n_e, 1.0 / n_e), -1.0 / np.expm1(La) / (n - n_e)])
        coeffs = np.repeat(dL / m, m)[None, :]
        loss, grad = diffail_disc_loss(disc, expert, agent, np.random.default_rng(3))
    assert abs(loss - want_loss) <= 1e-12
    rows = preds.shape[0]
    upstream = loss_grad_upstream(preds.reshape(rows, -1, den.data_dim), eps[:, None, :], coeffs.T).reshape(rows, -1)
    assert rel_err(grad, nn_core.backward_batch(den.params, den.specs, inputs, upstream)) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["states", "actions"])
@pytest.mark.parametrize("kind", ["drail", "gail", "diffail"])
def test_non_finite_pairs_are_rejected_at_the_boundary(kind, where, bad):
    disc = {"drail": build_drail(2, 1, label_dim=2, hidden=(4,), T=10),
            "gail": build_gail(2, 1, hidden=(4,)),
            "diffail": build_diffail(2, 1, hidden=(4,), T=10)}[kind]
    states, actions = np.zeros((3, 2)), np.zeros((3, 1))
    (states if where == "states" else actions)[1, 0] = bad
    clean = (np.zeros((3, 2)), np.zeros((3, 1)))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="non-finite"):
        disc_mod.reward_for(disc, states, actions, rng)
    with pytest.raises(ValueError, match="non-finite"):
        disc_mod.discriminator_probs(disc, np.column_stack([states, actions]), rng, samples_per_point=2)
    for expert, agent in (((states, actions), clean), (clean, (states, actions))):
        with pytest.raises(ValueError, match="non-finite"):
            disc.update(expert, agent, rng)
