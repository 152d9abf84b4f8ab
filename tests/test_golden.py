"""Golden bytes: sha256 of the run artifacts of small fixed training runs.

A change that keeps the float operations, RNG draws and checks of the
training loop keeps these hashes. A change that moves them on purpose
(a new RNG stream, a reordered sum) updates the table in the same change
and says why. The hashes hold for one machine and numpy/BLAS build.
"""

import hashlib
import json
import os

import pytest

from drail_lab import cli

ARTIFACTS = ("metrics.csv", "policy.drlp", "discriminator.drlp", "final_eval.json")

_SMALL = {
    "total_env_steps": 1024,
    "seed": 11,
    "disc_hidden": [32, 32],
    "schedule_steps": 50,
    "eval_interval": 512,
    "eval_episodes": 5,
    "ppo": {"rollout_steps": 512, "minibatch_size": 64, "epochs": 3},
}

# name -> (expert env, config); gail adds the wall, diffail a stochastic eval
CASES = {
    "drail-point_reach": ("point_reach", dict(_SMALL, method="drail", env="point_reach")),
    "gail-point_reach": ("point_reach", dict(_SMALL, method="gail", env="point_reach", wall=True)),
    "diffail-point_reach": ("point_reach", dict(_SMALL, method="diffail", env="point_reach",
                                                eval_stochastic=True)),
    "bc-point_reach": ("point_reach", {"method": "bc", "env": "point_reach", "seed": 11,
                                       "bc_epochs": 20, "eval_episodes": 5}),
    "drail-sine": ("sine", dict(_SMALL, method="drail", env="sine", eval_episodes=20,
                                ppo={"rollout_steps": 256, "minibatch_size": 64, "epochs": 3})),
}

# The drail and diffail runs were last re-recorded when reward labeling
# began to score a rollout in one call on the label stream, where it had
# drawn each 512-row chunk from a seed of its own: their label draws, and
# so every artifact but final_eval.json, moved. The gail runs, whose
# rewards draw nothing, the bc run and the expert datasets did not move.
GOLDEN = {
    "bc-point_reach": {
        "metrics.csv": "9096cfd4aa728bb45e5d43d268156923b0e3165a529380484f7cde47b584d41e",
        "policy.drlp": "170b2e62760a7b7748c153efe05f27df89e09f460b94ca04a7d3cc57c766c42d",
        "final_eval.json": "b98cf1ebb3bcc69678e2b2ee2caacd3853c2e7d3fdf66ae06f2da33593c149de",
    },
    "diffail-point_reach": {
        "metrics.csv": "39be882fdf434d37ed5a0daf62f36c934735f97213a87c4ed3101e9f3dddb083",
        "policy.drlp": "f68d93ee80f1acde2d02ee013f6025ef38c80cb16b47b2df32133e1fbb3283cf",
        "discriminator.drlp": "238f500b9a1711258c950a4e5d2f881f8e611da0a5f13a7728be87ab2fde59b0",
        "final_eval.json": "482df8cfa60aebe0d5debc8311d1f226ef8c1f3e364c4e6938a6e56264c12f68",
    },
    "drail-point_reach": {
        "metrics.csv": "45c99dfeb9714eaedcf960d85cdb3f8b0206bde80016cc6b41c1cfbf5e0b5687",
        "policy.drlp": "5ab3295e39798c8fa31707b6d049134a508046f10e71eeba18ae547f42bb7750",
        "discriminator.drlp": "432a7daf4e3ef264f7dd05cdfd6b105054fd45e88cff43b1ef7674a953ac2eff",
        "final_eval.json": "482df8cfa60aebe0d5debc8311d1f226ef8c1f3e364c4e6938a6e56264c12f68",
    },
    "drail-sine": {
        "metrics.csv": "801a639e7131a5d2c5a34eca656a14fd6f8c68401f6ee5a3002a707a6bffabea",
        "policy.drlp": "06b998e17d963fa53b8aaedb021490c23b7817890f57bbde7d7220eaac5a861d",
        "discriminator.drlp": "7f5a3d6c15e615cc4a8e2c5d466da155ebf7a43d648ca38e6babddedc92a66fa",
        "final_eval.json": "c8e8b9918ae39e3cf8baf0ef762b9b4aa35c027c9bab1824e6393753285195e4",
    },
    "gail-point_reach": {
        "metrics.csv": "e2b0aca25bcdf7726e0b99f6f7bd08146b98b722e65aac8ee1c36f539312a9dd",
        "policy.drlp": "a08b9a2f24f5a4df43bb1a083f1d9a1a4d511f0c75eb9c6728b41a47822c616c",
        "discriminator.drlp": "904f879fec92a20f1832e7bc82a80b762d3d372745038ade7b36092b072523c4",
        "final_eval.json": "482df8cfa60aebe0d5debc8311d1f226ef8c1f3e364c4e6938a6e56264c12f68",
    },
}


# sha256 of `gen-expert --env point_reach --n 100 --seed 4`, without and
# with the wall
EXPERT_DATASETS = {
    False: "4e15d6b9da137441eaab0618c48227ba8b58e5c55c465d787c21ac3a3db50931",
    True: "785c185f57299956c5b3e686cc3660759e604e7f840928cc4c5b63a070acb366",
}


@pytest.fixture(scope="module")
def experts(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-experts")
    paths = {"point_reach": str(root / "point.drld"), "sine": str(root / "sine.drld")}
    assert cli.main(["gen-expert", "--env", "point_reach", "--n", "20", "--seed", "3",
                     "-o", paths["point_reach"]]) == 0
    assert cli.main(["gen-expert", "--env", "sine", "--n", "500", "--seed", "2", "-o", paths["sine"]]) == 0
    return paths


def run_digests(run_dir: str) -> dict:
    out = {}
    for name in ARTIFACTS:
        path = os.path.join(run_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def train_case(name: str, experts: dict, tmp_path) -> dict:
    env, config = CASES[name]
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(dict(config, expert_path=experts[env])))
    run_dir = str(tmp_path / name)
    assert cli.main(["train", "--config", str(cfg_path), "-o", run_dir]) == 0
    return run_digests(run_dir)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_run_bytes(name, experts, tmp_path):
    assert train_case(name, experts, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("wall", [False, True])
def test_golden_expert_dataset_bytes(wall, tmp_path):
    path = str(tmp_path / "expert.drld")
    args = ["gen-expert", "--env", "point_reach", "--n", "100", "--seed", "4", "-o", path]
    assert cli.main(args + ["--wall"] * wall) == 0
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == EXPERT_DATASETS[wall]
