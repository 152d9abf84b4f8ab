import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drail_lab import nn_core
from drail_lab.nn_core import AdamState, LayerSpec, ParamStore, adam_step, backward, backward_batch, forward, forward_batch, init_params

from oracles import fd_grad, mlp_by_hand, rel_err


def test_init_shapes_and_zero_bias():
    store = init_params([LayerSpec(2, 3, "tanh")], seed=7)
    assert len(store) == 2 * 3 + 3 == 9
    assert np.all(store.bias(0) == 0.0)
    bound = np.sqrt(6.0 / (2 + 3))
    assert np.all(np.abs(store.weights(0)) <= bound)


def test_init_deterministic_bytes():
    a = init_params([LayerSpec(4, 8), LayerSpec(8, 2)], seed=123)
    b = init_params([LayerSpec(4, 8), LayerSpec(8, 2)], seed=123)
    assert a.values.tobytes() == b.values.tobytes()
    c = init_params([LayerSpec(4, 8), LayerSpec(8, 2)], seed=124)
    assert a.values.tobytes() != c.values.tobytes()


def test_init_chain_mismatch():
    with pytest.raises(ValueError, match="chain mismatch"):
        init_params([LayerSpec(2, 3), LayerSpec(4, 1)], seed=0)


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        LayerSpec(0, 3)
    with pytest.raises(ValueError):
        LayerSpec(2, 3, "sigmoid")


def test_param_store_rejects_layers_that_do_not_chain():
    specs = (LayerSpec(2, 3), LayerSpec(4, 1))
    with pytest.raises(ValueError, match="chain mismatch: 3 -> 4"):
        ParamStore(np.zeros(specs[0].size + specs[1].size), specs)


def test_param_store_rejects_nonfinite():
    specs = (LayerSpec(2, 1, "identity"),)
    with pytest.raises(ValueError, match="non-finite"):
        ParamStore(np.array([1.0, np.nan, 0.0]), specs)


def test_forward_identity_map():
    specs = (LayerSpec(2, 2, "identity"),)
    store = init_params(specs, seed=0).with_values(np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]))
    out = forward(store, specs, np.array([1.0, 2.0]))
    assert np.allclose(out, [1.0, 2.0])


def test_forward_tanh_zero_net():
    specs = (LayerSpec(3, 4, "tanh"),)
    store = init_params(specs, seed=1).with_values(np.zeros(16))
    out = forward(store, specs, np.array([0.3, -0.7, 2.0]))
    assert np.all(out == 0.0)


def test_forward_matches_hand_unrolled():
    specs = (LayerSpec(2, 4, "tanh"), LayerSpec(4, 1, "identity"))
    store = init_params(specs, seed=42)
    x = np.array([0.3, -0.7])
    expected = mlp_by_hand(
        [store.weights(0).copy(), store.weights(1).copy()],
        [store.bias(0).copy(), store.bias(1).copy()],
        ["tanh", "identity"],
        x,
    )
    assert np.allclose(forward(store, specs, x), expected, atol=1e-14)


def test_forward_rejects_bad_input():
    specs = (LayerSpec(2, 1, "identity"),)
    store = init_params(specs, seed=0)
    with pytest.raises(ValueError):
        forward(store, specs, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="non-finite"):
        forward(store, specs, np.array([1.0, np.inf]))


def test_backward_linear_layer_closed_form():
    specs = (LayerSpec(3, 2, "identity"),)
    store = init_params(specs, seed=5)
    x = np.array([0.5, -1.0, 2.0])
    u = np.array([1.5, -0.25])
    grad = backward(store, specs, x, u)
    # d(u . (Wx + b))/dW = outer(u, x), /db = u
    assert np.allclose(grad[:6], np.outer(u, x).ravel())
    assert np.allclose(grad[6:], u)


def test_backward_zero_upstream():
    specs = (LayerSpec(3, 3, "tanh"), LayerSpec(3, 2, "identity"))
    store = init_params(specs, seed=9)
    grad = backward(store, specs, np.array([0.1, 0.2, 0.3]), np.zeros(2))
    assert np.all(grad == 0.0)


def test_backward_matches_finite_differences():
    specs = (LayerSpec(3, 6, "tanh"), LayerSpec(6, 5, "relu"), LayerSpec(5, 2, "identity"))
    store = init_params(specs, seed=11)
    rng = np.random.default_rng(3)
    x = rng.normal(size=3)
    u = rng.normal(size=2)
    grad = backward(store, specs, x, u)

    def scalar(theta: np.ndarray) -> float:
        return float(u @ forward(store.with_values(theta), specs, x))

    assert rel_err(grad, fd_grad(scalar, store.values)) < 1e-6


def test_backward_batch_is_sum_of_singles():
    specs = (LayerSpec(2, 4, "tanh"), LayerSpec(4, 3, "identity"))
    store = init_params(specs, seed=21)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(5, 2))
    U = rng.normal(size=(5, 3))
    batch = backward_batch(store, specs, X, U)
    singles = sum(backward(store, specs, X[i], U[i]) for i in range(5))
    assert np.allclose(batch, singles, atol=1e-12)


def test_forward_batch_shape():
    specs = (LayerSpec(3, 2, "tanh"),)
    store = init_params(specs, seed=2)
    out = forward_batch(store, specs, np.zeros((7, 3)))
    assert out.shape == (7, 2)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dims=st.lists(st.integers(1, 5), min_size=2, max_size=4),
    act=st.sampled_from(["tanh", "relu", "identity"]),
)
def test_gradient_exactness_property(seed, dims, act):
    specs = tuple(LayerSpec(a, b, act) for a, b in zip(dims, dims[1:]))
    store = init_params(specs, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=dims[0]) + 0.05
    u = rng.normal(size=dims[-1])
    if act == "relu":
        # finite differences are invalid at the relu kink; skip draws where
        # any pre-activation sits within the probe step of zero
        h = np.asarray(x)
        for k in range(len(specs)):
            z = store.weights(k) @ h + store.bias(k)
            assume(float(np.min(np.abs(z))) > 1e-3)
            h = np.maximum(z, 0.0)
    grad = backward(store, specs, x, u)

    def scalar(theta: np.ndarray) -> float:
        return float(u @ forward(store.with_values(theta), specs, x))

    assert rel_err(grad, fd_grad(scalar, store.values)) < 1e-5


def test_adam_first_step_hand_evaluated():
    specs = (LayerSpec(2, 2, "identity"),)
    store = init_params(specs, seed=0)
    state = AdamState.fresh(len(store), lr=1e-3)
    new, state2 = adam_step(state, store, np.ones(len(store)))
    # bias correction makes m_hat = v_hat = 1 on step one, so the move is
    # lr / (1 + eps) for every coordinate
    expected = 1e-3 / (1.0 + 1e-8)
    assert np.allclose(store.values - new.values, expected, atol=1e-15)
    assert state2.step == 1


def test_adam_zero_gradient_noop():
    specs = (LayerSpec(3, 1, "tanh"),)
    store = init_params(specs, seed=8)
    state = AdamState.fresh(len(store), lr=1e-2)
    new, state2 = adam_step(state, store, np.zeros(len(store)))
    assert np.array_equal(new.values, store.values)
    assert state2.step == 1


def test_adam_deterministic():
    specs = (LayerSpec(3, 2, "relu"),)
    store = init_params(specs, seed=8)
    state = AdamState.fresh(len(store), lr=1e-2)
    g = np.linspace(-1, 1, len(store))
    a1, s1 = adam_step(state, store, g)
    a2, s2 = adam_step(state, store, g)
    assert np.array_equal(a1.values, a2.values)
    assert np.array_equal(s1.m, s2.m) and s1.step == s2.step


def test_adam_rejects_nonfinite_gradient():
    specs = (LayerSpec(2, 1, "identity"),)
    store = init_params(specs, seed=0)
    state = AdamState.fresh(len(store), lr=1e-3)
    g = np.zeros(len(store))
    g[2] = np.nan
    with pytest.raises(ValueError, match="index 2"):
        adam_step(state, store, g)


def test_adam_lr_scale():
    specs = (LayerSpec(2, 1, "identity"),)
    store = init_params(specs, seed=0)
    state = AdamState.fresh(len(store), lr=1e-3)
    half, _ = adam_step(state, store, np.ones(len(store)), lr_scale=0.5)
    full, _ = adam_step(state, store, np.ones(len(store)), lr_scale=1.0)
    assert np.allclose(store.values - half.values, (store.values - full.values) * 0.5)


def test_adam_preserves_finiteness():
    specs = (LayerSpec(4, 4, "tanh"), LayerSpec(4, 1, "identity"))
    store = init_params(specs, seed=3)
    state = AdamState.fresh(len(store), lr=1e-2)
    rng = np.random.default_rng(0)
    for _ in range(50):
        store, state = adam_step(state, store, rng.normal(size=len(store)) * 100.0)
    assert np.all(np.isfinite(store.values))


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    specs = (LayerSpec(3, 5, "relu"), LayerSpec(5, 2, "tanh"))
    store = init_params(specs, seed=77)
    path = str(tmp_path / "net.drlp")
    nn_core.save_params(path, store, specs)
    loaded, loaded_specs, trailer = nn_core.load_params(path)
    assert loaded_specs == specs
    assert loaded.values.tobytes() == store.values.tobytes()
    assert trailer == b""


def test_checkpoint_layer_names_are_read_but_not_kept(tmp_path):
    # a reader takes any UTF-8 layer names; a writer names layer k "layer{k}"
    specs = (LayerSpec(3, 5, "relu"), LayerSpec(5, 2, "identity"))
    store = init_params(specs, seed=4)
    blob = [nn_core.CHECKPOINT_MAGIC, struct.pack("<II", 1, 2)]
    for name, (spec, code) in zip(("trunk", "\u03bc-head"), ((specs[0], 1), (specs[1], 2))):
        encoded = name.encode("utf-8")
        blob += [struct.pack("<I", len(encoded)), encoded, struct.pack("<IIB", spec.in_dim, spec.out_dim, code)]
    path = tmp_path / "named.drlp"
    path.write_bytes(b"".join(blob) + store.values.astype("<f8").tobytes())
    loaded, loaded_specs, trailer = nn_core.load_params(str(path))
    assert loaded_specs == specs and trailer == b""
    assert loaded.values.tobytes() == store.values.tobytes()
    assert nn_core.params_to_bytes(loaded, loaded_specs) == nn_core.params_to_bytes(store, specs)


def test_checkpoint_trailer_passthrough(tmp_path):
    specs = (LayerSpec(2, 1, "identity"),)
    store = init_params(specs, seed=1)
    path = str(tmp_path / "net.drlp")
    nn_core.save_params(path, store, specs, trailer=b"\x02extra")
    _, _, trailer = nn_core.load_params(path)
    assert trailer == b"\x02extra"


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.drlp"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="bad magic"):
        nn_core.load_params(str(path))


def test_checkpoint_truncation_reports_bytes(tmp_path):
    specs = (LayerSpec(3, 5, "relu"),)
    store = init_params(specs, seed=5)
    blob = nn_core.params_to_bytes(store, specs)
    path = tmp_path / "short.drlp"
    path.write_bytes(blob[:-7])
    with pytest.raises(ValueError, match="expected .* bytes"):
        nn_core.load_params(str(path))


def test_forward_batch_walks_large_batches_in_blocks_with_the_same_bytes():
    specs = (LayerSpec(3, 16, "relu"), LayerSpec(16, 16, "tanh"), LayerSpec(16, 2, "identity"))
    params = init_params(specs, seed=2)
    x = np.random.default_rng(0).normal(size=(2 * nn_core._FORWARD_BLOCK + 5, 3))
    one_walk = nn_core._forward(nn_core._layers(params.values, specs), x)
    assert forward_batch(params, specs, x).tobytes() == one_walk.tobytes()
    hs = []
    assert forward_batch(params, specs, x, hs).tobytes() == one_walk.tobytes()
    assert len(hs) == 4 and hs[0].shape == x.shape  # collected in one walk


# a sine-gail-shaped net (the gail 101x121 map walks 12,221 rows a call):
# blocks whose inner bounds fall on a multiple of 64 rows keep every row
# of a one-wide output bit for bit, where an even split of these rows
# changed some by 1 ulp, each the last row of its block. Run under one
# BLAS thread, the lab's byte contract: a one-piece walk split over BLAS
# threads rounds the rows next to its own split point differently.
_ALIGNED_BLOCKS_PROBE = """
import numpy as np
from drail_lab import nn_core
specs = nn_core.mlp_specs((2, 64, 64, 64, 1), "tanh")
params = nn_core.init_params(specs, 0)
for n in (12221, 4101):
    x = np.random.default_rng(0).normal(size=(n, 2))
    one_walk = nn_core._forward(nn_core._layers(params.values, specs), x)
    print(int(np.sum(nn_core.forward_batch(params, specs, x) != one_walk)))
"""


def test_forward_batch_blocks_keep_each_row_in_its_64_row_group():
    for n in (12221, 4101):
        assert all(lo % 64 == 0 for lo, _ in nn_core._blocks(n))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nn_core.__file__)), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _ALIGNED_BLOCKS_PROBE], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["0", "0"]


def test_backward_activations_checks_upstream():
    specs = (LayerSpec(3, 4, "tanh"), LayerSpec(4, 2, "identity"))
    params = init_params(specs, seed=0)
    hs = []
    forward_batch(params, specs, np.zeros((5, 3)), hs)
    with pytest.raises(ValueError, match="rows"):
        nn_core.backward_activations(params, specs, hs, np.zeros((4, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        nn_core.backward_activations(params, specs, hs, np.full((5, 2), np.nan))


@pytest.mark.parametrize("hidden_act", ["tanh", "relu", "identity"])
def test_consuming_backward_matches_the_one_that_keeps_activations_bitwise(hidden_act):
    # writing each input gradient into the buffer of the activation it
    # replaces changes no float operation: the parameter gradient and the
    # gradient through the input's relu keep every bit
    specs = (LayerSpec(3, 8, hidden_act), LayerSpec(8, 8, hidden_act), LayerSpec(8, 2, "identity"))
    params = init_params(specs, seed=6)
    layers = nn_core._layers(params.values, specs)
    rng = np.random.default_rng(2)
    x, upstream = np.maximum(rng.normal(size=(17, 3)), 0.0), rng.normal(size=(17, 2))
    results = []
    for consume in (False, True):
        hs = []
        nn_core._forward(layers, x.copy(), hs)
        grad = np.empty(len(params))
        through_input = nn_core._backward(layers, hs, upstream, grad, "relu", consume)
        results.append((grad.tobytes(), through_input.tobytes()))
    assert results[0] == results[1]


@pytest.mark.parametrize("out_act", ["tanh", "relu", "identity"])
def test_walks_leave_inputs_upstream_and_activations_unchanged(out_act):
    # the walks compute in place on their own arrays only; the caller's
    # rows, upstream gradient and collected activations keep their bytes
    specs = (LayerSpec(3, 8, "relu"), LayerSpec(8, 8, "tanh"), LayerSpec(8, 2, out_act))
    params = init_params(specs, seed=6)
    rng = np.random.default_rng(1)
    x, upstream = rng.normal(size=(17, 3)), rng.normal(size=(17, 2))
    x_bytes, upstream_bytes = x.tobytes(), upstream.tobytes()
    runs = []
    for _ in range(2):
        hs = []
        out = forward_batch(params, specs, x, hs)
        hs_bytes = [h.tobytes() for h in hs]
        walked = nn_core.backward_activations(params, specs, hs, upstream)
        assert [h.tobytes() for h in hs] == hs_bytes
        grad = backward_batch(params, specs, x, upstream)
        assert x.tobytes() == x_bytes and upstream.tobytes() == upstream_bytes
        assert walked.tobytes() == grad.tobytes()
        runs.append((out.tobytes(), grad.tobytes(), hs_bytes))
    assert runs[0] == runs[1]
