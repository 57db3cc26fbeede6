"""Byte identity of the whole CLI pipeline.

``gen-data → fit-risk → train --episodes 3 → run --baseline → run → compare``
runs through ``cli.main`` on the default config (200 sessions on 4 ports) at
seeds 0-3, and every file it writes must hash to the digest pinned here.  A
change that only makes the program faster or smaller must leave them all as
they are; a change that means to move an output re-pins it and says why.

The four ``model.json`` digests were re-pinned when the model file became
``ramals-model-v4``, which stores each vector as base64 of its float64
bytes instead of a JSON list of numbers.  The values are the same bit for
bit, so every other output, the policy run's included, kept its digest.

They were re-pinned again for ``ramals-model-v5``, which drops the carry
each port ended training with: a replay now starts every port from a zero
carry, as training does.  The parameters are the same bit for bit, so the
session, risk, training-log and baseline files kept their digests.  The
policy run moved at two seeds.  At seed 0 it starts some sessions one or
more 15-minute steps later but serves the same 57 with the same energy, so
only ``policy.jsonl`` moved, and its report and the comparison did not.  At
seed 1 it serves 60 sessions instead of 58, so ``policy.jsonl``,
``policy.csv`` and ``compare.csv`` moved.  At seeds 2 and 3 the policy run
kept its digests.

``FLEET_PINNED`` runs the same pipeline at seed 0 on 2000 sessions over 40
ports under a 1500 kW feed, the site of ``perfbench``'s fleet workload.
There a policy step stacks about 20 ports' rows, where the default
config's steps stack two or three, so it pins the replay at the stack
sizes a fleet replay runs at.

``TRAINING_PINNED`` holds one longer training run: 100 episodes at width 64
on the default seed-0 batch, Adam steps 1-400, the training that one pass of
``perfbench/run.py --workload paper-200x4`` times at seed 0.
"""

import hashlib

import pytest

from ramals import cli, estimate_risk, generate_synthetic, learner
from ramals.cli import main

# seed -> {output file -> sha256}
PINNED = {
    0: {
        "baseline.csv": "ce29d4bd50ba4f787390d6086689a621ec7e18a0323b2d3cd13a87f2ed8192b7",
        "baseline.jsonl": "339ec60047d3adb9ef70d4678edb9146b6739ec4783ea9d498b5c5953d1cc035",
        "compare.csv": "0a824f2e0225d67e8f54ec62a4c3bcedac4a6044f8fa28dc5eac1c75feeb669a",
        "model.json": "a9f462445fa80007b247bd8aad2cd52694ef582354c331ac995c1ad433702c0c",
        "policy.csv": "358213b7096d3a12b80654cd69df9e540d30e4041a04b4e23da60e49830614c1",
        "policy.jsonl": "f0ad87352d001bdb0b88777d472cf05f441f5ce471cfefbd47d0c85a7fca9c54",
        "risk.json": "d2d04779cde6296fbbd230b5e141f86459db8f38c97af09980ff5fcd763b5245",
        "sessions.json": "32f4df76aa24926d5f3a51bc76c44f692cfcb7507722e7ffe56756b8fd9e6857",
        "train.csv": "1a272a9f5d8f68d6c0e1f4658268cdaa3974185ebb2966ba38ea1defed7d0918",
    },
    1: {
        "baseline.csv": "0986b47d68e648728a7c3f0aa81c8859c71cc8a4497f11c8ba83cade88ee7f37",
        "baseline.jsonl": "ed4fc6e18335dff000300a41317d1402740a6b26ec7d403ac772514faee8d421",
        "compare.csv": "53de0b5fd7d7777889eee09f32d1259736a1a315120a8b6e47830d88998d4f00",
        "model.json": "ae56063b48f04936a1f7e2911e831ec19947d99e1802bfbb4e24fba7d746229a",
        "policy.csv": "ed67befc1dafa5797009ae7d85986572b7a860f0cea6b1413c01f08302344f1f",
        "policy.jsonl": "669bc138624558a6663b658a976445932cad81e4947685ad1f88215f6b56cd1e",
        "risk.json": "b8b4bcc2f0c84840bdd6d122167e112d4f883d8ff75809d12d80653cfec1a919",
        "sessions.json": "f773946851aeae9c1019cc056cd22aa8037b79e24456f2759f689bd78b9d0162",
        "train.csv": "8f775362fc3cd078168e667f9b6c0faacc160758b56219d12289178a0b4df810",
    },
    2: {
        "baseline.csv": "57251f54f189a1f19738119399c0b3f704895af5595340bb6105d37b1f3c3afd",
        "baseline.jsonl": "4839b499b85d184d4ee01d6431130e6d23136592fb6c6340516dce5ae4da41c2",
        "compare.csv": "59f2bc02c3d4afe9c52a825bc3fd57672ea627e55213e73ce9e60a58d087fe55",
        "model.json": "b2fc4679acce9527d4b773914e619f23fabddd2625b71676c624b670a623b228",
        "policy.csv": "bdfc118d46d75dd16e6c20bb275e68be23cea62b2cb16def937f371d79162341",
        "policy.jsonl": "429257b57886b89da1f59926e0fcaca19b394d52dcd72234560fe5a8385c7f7e",
        "risk.json": "9263bf89979991d6a034359e5298baaae365e9dec37baf0e51f39bbe7012ac35",
        "sessions.json": "b05974a33197cf1943f21b029ea5548ff8d8e304c2645b7648ae9c9ac28fa881",
        "train.csv": "b00cfe7bc1bda5a922a5538a47b69ea1ee93b8b6c1500363a46dd7823dad840b",
    },
    3: {
        "baseline.csv": "bbc9106b968d7ca7ec1164405070cb4e0c1c8a0084f65c8d84a0760e09106375",
        "baseline.jsonl": "edd4c693531404eab8d854899c76e0f1dfa616b66aea929d0ff6db3aebdb1b23",
        "compare.csv": "92b743050eba206b537c1f3bfd6f45c9be1b7a1984e5606a05c5e0e293465142",
        "model.json": "29cfe349c5c7924af3f49c0b19f74b852a73bdfaca496761fa2f01ad0f8df2a3",
        "policy.csv": "dba50c88aec1c9db19453f559e5391e8e9914209d35129610db5d57ff3981d3d",
        "policy.jsonl": "ebfa4fb13c234e26a350110938fb53a363eae441f13d057a692edcb3f46e7b43",
        "risk.json": "d3ae5218d27efadf9487198dbc1f680f225f10f564dbc5a4227f79bfffee1387",
        "sessions.json": "4642f142cf6981a4c1efc0ebc42d3d303ac228cfda4285983ea031320d5e5ff3",
        "train.csv": "1c8d7a808874ea6272671c864c4d95f61d5b2aba59748d725e5f05446e92a4e1",
    },
}


FLEET_CONFIG = "evse_count = 40\ndso_capacity_kw = 1500\nn_sessions = 2000\n"
FLEET_PINNED = {
    "baseline.csv": "28663cbe796b84981fa3ddc166018bbc8ad92a865c8b275dc859e02c47d69699",
    "baseline.jsonl": "50eb4caee91ed4d363b2df7b6dd04c100889b14a210bd22a6d0f5fd0fca43bfb",
    "compare.csv": "26828df3a3808775ad8cdb412beca4162b6ec1ac64de49e8a3ae424cb8875665",
    "model.json": "c8c9b0f15abd9797a2639b3a2e83a756d8a6ebe9ae5473b17722e72ac69532af",
    "policy.csv": "18b64dd10c2867a4ac719755d106518dd6c844390fa996c0b30505a81b96f940",
    "policy.jsonl": "c189a89a67469a570362a9b1a3cabe0df4089caa5c37ef588e7a4e52ecc6cc3f",
    "risk.json": "bb63f08e72455fa60350b694c729fed5f7015686f7ef971c13c57647b24bb857",
    "sessions.json": "fd9bbdf10f777b3dd66b554a8b8e9bbf224a338c8f92149640652017410b162f",
    "train.csv": "2f97e4eb29fc1d1168d349d213ca0c0a43cd39b378b9431c5231526d2df1a8d4",
}


# SHA-256 of the coordinator's parameters and Adam moments, each as
# little-endian float64 bytes, and of the training log
TRAINING_PINNED = {
    "flat": "d19f998c625b57a4107c220d90bd15fa474af7f78436d9e536f46bb0238cafb7",
    "m": "96f02069f482f0c6d38d09927f2a7d26a6a2ec75e37a4bac47b3428aa1786745",
    "v": "665ce0dbc54967ec26d1ad0ea9faa88c414bd68ca0bf8c13d916735225ef9949",
    "log": "3d18faad3f6b8f4c5efb5a014406f6487c55de0c476e7786d69f5fd486f701c5",
}


def pipeline_digests(workdir, seed: int, config: str | None = None) -> dict[str, str]:
    """The digest of every file the pipeline writes into ``workdir``, on the
    default config or on one whose text is ``config``."""
    def out(name):
        return str(workdir / name)

    site = []
    if config is not None:
        (workdir.parent / "site.cfg").write_text(config)
        site = ["--config", str(workdir.parent / "site.cfg")]
    commands = [
        ["gen-data", *site, "--seed", str(seed), "--out", out("sessions.json")],
        ["fit-risk", *site, "--sessions", out("sessions.json"), "--out", out("risk.json")],
        ["train", *site, "--sessions", out("sessions.json"), "--risk", out("risk.json"),
         "--seed", str(seed), "--episodes", "3", "--out", out("model.json"),
         "--log", out("train.csv")],
        ["run", *site, "--baseline", "--sessions", out("sessions.json"),
         "--out", out("baseline.jsonl"), "--report", out("baseline.csv")],
        ["run", *site, "--model", out("model.json"), "--sessions", out("sessions.json"),
         "--out", out("policy.jsonl"), "--report", out("policy.csv")],
        ["compare", f"baseline={out('baseline.csv')}", f"policy={out('policy.csv')}",
         "--out", out("compare.csv")],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(workdir.iterdir())}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_pipeline_outputs_are_pinned(tmp_path, capsys, seed):
    assert pipeline_digests(tmp_path, seed) == PINNED[seed]


def test_fleet_stacking_outputs_are_pinned(tmp_path, capsys):
    workdir = tmp_path / "out"
    workdir.mkdir()
    assert pipeline_digests(workdir, 0, FLEET_CONFIG) == FLEET_PINNED


def test_paper_training_is_pinned():
    """The parameters, Adam moments and log of ``train --episodes 100 --seed 0``
    on ``gen-data --seed 0``'s batch at the risk ``fit-risk`` gives it, on the
    default config."""
    cfg = cli.load_config(None)
    batch = generate_synthetic(cli.generator_from_config(cfg), cli.stage_seed(0, "gen"))
    model, logs = learner.train(batch, cli.site_from_config(cfg),
                                cli.train_config_from(cfg, cli.stage_seed(0, "train"), 100),
                                estimate_risk(batch, cfg["alpha"]).cvar_normalized)
    digests = {name: hashlib.sha256(getattr(model.coordinator, name).astype("<f8").tobytes())
               .hexdigest() for name in ("flat", "m", "v")}
    digests["log"] = hashlib.sha256(learner.training_log_csv(logs).encode()).hexdigest()
    assert digests == TRAINING_PINNED
