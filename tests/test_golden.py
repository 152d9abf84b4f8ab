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

GOLDEN = {
    "bc-point_reach": {
        "metrics.csv": "9096cfd4aa728bb45e5d43d268156923b0e3165a529380484f7cde47b584d41e",
        "policy.drlp": "170b2e62760a7b7748c153efe05f27df89e09f460b94ca04a7d3cc57c766c42d",
        "final_eval.json": "b98cf1ebb3bcc69678e2b2ee2caacd3853c2e7d3fdf66ae06f2da33593c149de",
    },
    "diffail-point_reach": {
        "metrics.csv": "84ffa890ee5db6f10f6db6b16c8224d9f22fc1fc02a2486390d7cbbebfc625c1",
        "policy.drlp": "719f34f4d1b608eea27107414fb6fcf9b4238c5c0e2d1755033445193fb10c4b",
        "discriminator.drlp": "a63649883dd7961ff694decf69cec17be41e7ebdef67ab5a4a483e41e07105f5",
        "final_eval.json": "482df8cfa60aebe0d5debc8311d1f226ef8c1f3e364c4e6938a6e56264c12f68",
    },
    "drail-point_reach": {
        "metrics.csv": "2426020b08673a2e2a5fa2aa08c0aff9def97cfcc437844b9794bd2ec1995c55",
        "policy.drlp": "ec1db35e5262c43a3c041ef7be2b2d02e8515e0c1bec81737143f414fcb41b38",
        "discriminator.drlp": "4dc5cf9d841ccac27825416ca7df090b331b649268585f2815399c1bf2a23eca",
        "final_eval.json": "482df8cfa60aebe0d5debc8311d1f226ef8c1f3e364c4e6938a6e56264c12f68",
    },
    "drail-sine": {
        "metrics.csv": "787c3fb5a1f02d30b5e8026b8a03ac36ace570a5cdaea6a8a04036aba0a1466b",
        "policy.drlp": "5b94f0fa931cf737feb5981d7c0d96919a731125a71bfa2c5c283fb435dd59d9",
        "discriminator.drlp": "b60c287a502e7f52598d5462489b862148b0266520c0af25924b1c21af4c9899",
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
