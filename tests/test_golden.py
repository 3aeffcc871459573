"""Golden digests: sha256 of every file that small `algorithms=all` training
runs write (CSV, .policy, summary.json, *_diagnostic.json).

The digests pin the exact bytes of the training loop's output, so a refactor
or a speed-up that should not change results is checked here to the bit. A
change that is meant to alter the outputs re-pins them, in a change of its
own, with `PYTHONPATH=src python tests/test_golden.py`, which prints the
DIGESTS table for the current code.
"""
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest

from npghm.harness import build_train_spec, train_experiment

COMMON = {"algorithms": "all", "seeds": "0,1", "run.eval_interval": "4"}

CASES = {
    "chain5-exact": {"env": "chain5", "run.big_t": "25", "subproblem.kind": "exact"},
    "random4x3-exact": {"env": "random4x3@1", "run.big_t": "25", "subproblem.kind": "exact"},
    "pointmass-sgd": {"env": "pointmass", "run.big_t": "6", "subproblem.kind": "sgd_average"},
    # every cell of every algorithm leaves float range and writes a diagnostic
    "chain3-abort": {
        "env": "chain3", "run.big_t": "12", "run.alpha0": "1.7e308",
        "subproblem.kind": "identity",
    },
}

DIGESTS = {
    'chain3-abort': {
        'harpg_seed0.csv': 'd2aa7bd355909a3839703d293da805cf70398bd7a54838540aab8cd5f8249507',
        'harpg_seed0_diagnostic.json': '914070d4466de158e379e4a927ac766758e869b25748faa2bb1dadca7cbe7be4',
        'harpg_seed1.csv': 'd2aa7bd355909a3839703d293da805cf70398bd7a54838540aab8cd5f8249507',
        'harpg_seed1_diagnostic.json': '1f71f2b89f462f2f007e60e932c54aedffd0658f80da449f82a9dc75f55a1add',
        'mnpg_seed0.csv': '3c929686303702fcab5cfec198ad57067183c4ee554c6e4cc777882ce8c80167',
        'mnpg_seed0_diagnostic.json': '24d9aaca25557e16aabf8683f68600c8a4531153b215b4c50452ee4789e66525',
        'mnpg_seed1.csv': 'd2aa7bd355909a3839703d293da805cf70398bd7a54838540aab8cd5f8249507',
        'mnpg_seed1_diagnostic.json': '3854e5f94a36ca34b8ea85a01b4e25d48b35b4bb578951b01d31768d68738b36',
        'npg-hm_seed0.csv': 'd2aa7bd355909a3839703d293da805cf70398bd7a54838540aab8cd5f8249507',
        'npg-hm_seed0_diagnostic.json': '4e5e1d624b944698674923d33ee5e1609544e3fc1931078c026a62275a5f5116',
        'npg-hm_seed1.csv': 'd2aa7bd355909a3839703d293da805cf70398bd7a54838540aab8cd5f8249507',
        'npg-hm_seed1_diagnostic.json': '2ac09e7ebb29865f3691e255ce3f04d33cde319909eec86b2e27522fc8f5763a',
        'pg_seed0.csv': 'd2aa7bd355909a3839703d293da805cf70398bd7a54838540aab8cd5f8249507',
        'pg_seed0_diagnostic.json': '76e12a44be53de145f26ffc697360db9840e1450edf2368dfb1a495df966c590',
        'pg_seed1.csv': 'd2aa7bd355909a3839703d293da805cf70398bd7a54838540aab8cd5f8249507',
        'pg_seed1_diagnostic.json': 'dcd21505730d38068ceee361a4bfa71348a674954a48301168668eb0eda35a73',
        'summary.json': '6ab57e2a234e70a4256de06aff933eaf7de1508e0456a081c61ea3f61abd8af9',
    },
    'chain5-exact': {
        'harpg_seed0.csv': 'f017460012728a02d384fcff987861bba01d9eb4ec82f8b303b4ebea24c94b6f',
        'harpg_seed0.policy': '559c908ff1aaec63f96c6f8493813015e6951cbd8da3c082a3ea77539b0c70d6',
        'harpg_seed1.csv': 'd1df4c47bb8e449ddb5da6b661def6175652b61272143cc480792b7b32c319e3',
        'harpg_seed1.policy': '228b68dd1bd3686a03e99f568d27e9b9e57a67b2fb57867a3a88aa699296e9e3',
        'mnpg_seed0.csv': '12a1d3800b9e1ee8664ec1ec651d2c3ac6bb059b55dd9d8870cd5fe506a85802',
        'mnpg_seed0.policy': '28f2ff44d58abe6c0905091158ff2ce924b3548c8f29e62e9289d76a567b55ee',
        'mnpg_seed1.csv': '7c219f71ca746791faca793db10ae2ec900c1d57690332e5fcba726d73572520',
        'mnpg_seed1.policy': 'a32357914986307ff3f545078ef5fde72093b9aa8f620c02f406c9e216448326',
        'npg-hm_seed0.csv': 'd1a925b5a335a2ad18f9df8e05b6472dee6832973e2af518f5888fea82cc520e',
        'npg-hm_seed0.policy': 'd0ac1284b261e1df5ad6000d090d86dda6b4ba9f9f225f2d39a6a0c33d8d5140',
        'npg-hm_seed1.csv': '13490e4ed9100070c19a75445e3737dd8815a00f6cf7e3d825b6895d901249fa',
        'npg-hm_seed1.policy': '77ad652415203a87e743de7dac5652ab58949ced1b676722b2489eb9b61844dd',
        'pg_seed0.csv': 'dd315a87581cff0acd0ef05cc2fb40823825a3f2149d8c40b3953c2ebe90a552',
        'pg_seed0.policy': 'd8149b1715c9eb88106cf221139ef976c0726866fe48ab6add1c0569789fdb26',
        'pg_seed1.csv': '5fe8fc85d3b8602e6f2e67b7d4e011eb3ccd56c6d23585d8d024915b653a2365',
        'pg_seed1.policy': '5beab6021ddca4dd70ded8e050df227be57b23a79ea20e58852492a483ed6543',
        'summary.json': '090804a9a5a2c7d6caf7677f674d3864410d162746e19262d77998765f138c82',
    },
    'pointmass-sgd': {
        'harpg_seed0.csv': 'b5a3e3216e13af34d08c35877bc15f747ccadc1ead9768a6e6fdc5bf0a29b0d0',
        'harpg_seed0.policy': '80d6c7a8235df503cd2a2ab989080752efa8ea7e50e8851bdf13a84b141dac8c',
        'harpg_seed1.csv': '4b711370efaa81aa5d0932b18a8c8b59fd82d9db865d0be2de8b5781dfdfa808',
        'harpg_seed1.policy': 'cea49169ed1da53073cc6d01a0057ac0b970482c6b47d0f2e2a794f51634c821',
        'mnpg_seed0.csv': '626dadd4cb2962e840984983fef91d83faff13845ce566f964df42b234e43d2b',
        'mnpg_seed0.policy': '4046850e4ca03a69e379cf8c584567d6e6849b1f8a40652bd551d7eb224677d0',
        'mnpg_seed1.csv': 'e8e4c12d9dd2c688fa4d145c7b967defeaaa42ded49a28fb94472992f03853e2',
        'mnpg_seed1.policy': '0a4f9a82f1e50a71aae5e0d88c96841ec2e85c633a776e587b4d32d680fca66a',
        'npg-hm_seed0.csv': 'a0fb33dc3745db5d1a3c9665ae9820887154cf0e6af1ab61bdcaca46912ebc8e',
        'npg-hm_seed0.policy': 'd60fbdb93d2716a0416073ed41c57e93133ce017258eedd29f1d6a72c9976f01',
        'npg-hm_seed1.csv': '65c77d195d4ffce1e0e18046f38ad3103cc358efeb7c438da357a450a22b24c9',
        'npg-hm_seed1.policy': '2c94245395faff743c0cfe447bfa3602980ad8f0393c38507cf3342445310fad',
        'pg_seed0.csv': '1859e9a26429a95622d48d14c92f08709fc5f9b830fa0ba3b68d700b651302f8',
        'pg_seed0.policy': '8fa720ca9e7f99b0fc252d265e3bbd4d40219593c93ba606346744c3a8e7c9a8',
        'pg_seed1.csv': 'ead88a3879f9bb6fa7a7839bf7ef6acf5f027fc0b03ed2c69bb11d9aff7b399e',
        'pg_seed1.policy': '7f7f32cd6280c51668da7b599dc8455ec231857ec0031f03ad31c8c5418bac5b',
        'summary.json': 'f496d2af8f6fdd665743ccb2f0f9fca291e76aed6a44283d4a4a5c774e14697f',
    },
    'random4x3-exact': {
        'harpg_seed0.csv': 'a4c737fbeff452b67b1e7b23e2cbab52d5bd8922aa02541743afb95ae8682e72',
        'harpg_seed0.policy': '80f030953811b7898f7c89ecd77fcc34a79b02a5c40e00ec834233a01adc4753',
        'harpg_seed1.csv': 'f28b039a6715f149b82705820e177c90123f82450e934145f8d1db89ef0e7d25',
        'harpg_seed1.policy': 'c6093c3e2323d9102d1011aa224ad073570b20f747f54ca8d1bf42bf36a5939f',
        'mnpg_seed0.csv': 'f2261aa231d17ef54439660bef216c58a2c49ab372a2cd7bb48638b31ae4be6e',
        'mnpg_seed0.policy': '23c471a4a3642203a2307fc87f32501793ce3a1262183cc2ccc94f04805c1cd5',
        'mnpg_seed1.csv': '6cfa8d5b20d06eea035fc30291ac7865fe5727a0dbd671df4ffaf90532529a61',
        'mnpg_seed1.policy': 'd3ea8e6fdbf266fbb65c470cfa887092f27f693266d84fed6cd15f95a5e5fb64',
        'npg-hm_seed0.csv': '78ddfb284e4b8449233671febf8b7631080d25ccc9bf67246ba9a727df8491df',
        'npg-hm_seed0.policy': '71052af5378a8fa1e9479bef94ab3e76869feb9412c1bdce3d967e320998330c',
        'npg-hm_seed1.csv': 'e68586e8100a2c09c668d704acb90347d8076e45cea0cffd0ca3366173376d9f',
        'npg-hm_seed1.policy': '9ba36f6b6621be45ebb8f7249138a790b30e2d13dff5a0f940b378ec6dc08370',
        'pg_seed0.csv': 'c8df4c19b9760b2dc851ba3ea9142633b689d51c3147f0c475ed515e0b4dcd22',
        'pg_seed0.policy': '83b86ab6eeeba22eeebd44c39f7556402a02eaab35685691cf519b144e945805',
        'pg_seed1.csv': 'e6c7c237a4403dd46745c46232ee7c150ec94fb1dd1fbeab1833d4ee7e1f17ef',
        'pg_seed1.policy': '3a7eff87e09de9e9f395ce7f49463cb0bdd6d6c7f9c8f4e4fda581b8905eed54',
        'summary.json': '6c9360591801101e2066162d79942f25ab5bf7b154ae2b13de28d1e1fb120c30',
    },
}


def output_digests(case: str, out_dir: Path) -> dict:
    """Train one case into out_dir; file name -> sha256 of its bytes."""
    spec = build_train_spec({**COMMON, **CASES[case]}, out_dir=out_dir)
    with np.errstate(over="ignore", invalid="ignore"):
        train_experiment(spec)
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case, tmp_path):
    assert output_digests(case, tmp_path) == DIGESTS[case]


if __name__ == "__main__":
    print("DIGESTS = {")
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {case!r}: {{")
            for name, digest in output_digests(case, Path(tmp)).items():
                print(f"        {name!r}: {digest!r},")
            print("    },")
    print("}")
