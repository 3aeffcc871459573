"""Golden digests: sha256 of every file that small `algorithms=all` training
runs write (CSV, .policy, summary.json, *_diagnostic.json), and the final
theta of every cell that writes a .policy file, as hex floats.

The digests pin the exact bytes of the training loop's output, so a refactor
or a speed-up that should not change results is checked here to the bit. A
change that is meant to alter the outputs re-pins them, in a change of its
own, with `PYTHONPATH=src python tests/test_golden.py`, which prints the
DIGESTS table for the current code and rewrites tests/golden_theta.json.
`PYTHONPATH=src python tests/test_golden.py CASE [CASE ...]` does so for the
named cases only, which is how a new case is pinned on the commit before the
change it guards. Both the re-pin and a failing test report the largest
relative move ||theta - theta_pinned|| / ||theta_pinned|| of a final theta,
so a re-pin can quote its tolerance from this file's own output.

Each case trains in its own process with BLAS on one thread unless the
caller sets the count (perfbench pins one thread too). The exact solve runs
in closed form, with no threaded LAPACK call, so the wide d=200 exact case
also writes its pinned bytes at two threads; a test checks that. Digests
still depend on the BLAS kernel (OPENBLAS_CORETYPE).
"""
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    for key, value in BLAS_ONE_THREAD.items():  # before numpy loads its BLAS
        os.environ.setdefault(key, value)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from npghm.harness import build_train_spec, train_experiment  # noqa: E402
from npghm.policies import load_policy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
THETA_PATH = Path(__file__).with_name("golden_theta.json")

COMMON = {"algorithms": "all", "seeds": "0,1", "run.eval_interval": "4"}

CASES = {
    "chain5-exact": {"env": "chain5", "run.big_t": "25", "subproblem.kind": "exact"},
    "random4x3-exact": {"env": "random4x3@1", "run.big_t": "25", "subproblem.kind": "exact"},
    "pointmass-sgd": {"env": "pointmass", "run.big_t": "6", "subproblem.kind": "sgd_average"},
    # the sub-solver's discounted (s, a) draws walk step/sample_action on a tabular MDP
    "random4x3-sgd": {"env": "random4x3@1", "run.big_t": "12", "subproblem.kind": "sgd_average"},
    # alpha0=theory estimates its bounds from discounted draws on the bounds stream
    "chain5-theory": {"env": "chain5", "run.big_t": "12", "run.alpha0": "theory"},
    # every cell of every algorithm leaves float range and writes a diagnostic
    "chain3-abort": {
        "env": "chain3", "run.big_t": "12", "run.alpha0": "1.7e308",
        "subproblem.kind": "identity",
    },
    # beta_t = 1: every momentum estimate collapses to the fresh gradient
    "chain5-beta1": {"env": "chain5", "run.big_t": "12", "run.force_beta": "1"},
    # a constant beta_t < 1 with the warm-started sampled sub-solver
    "random4x3-beta03-warm": {
        "env": "random4x3@1", "run.big_t": "12", "run.force_beta": "0.3",
        "subproblem.kind": "sgd_average", "subproblem.warm_start": "true",
    },
    # the benchmark's wide exact case: a d=200 Fisher of 40 state blocks
    "random40x5-exact": {"env": "random40x5@1", "run.big_t": "8", "subproblem.kind": "exact"},
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
    'chain5-beta1': {
        'harpg_seed0.csv': '53db6233435c4e8f798c01ae758c73b2334f33a6800a28a4f051063ce921d485',
        'harpg_seed0.policy': '59f092f5eea2a906a68a774c07e3a891a7cffdd2ec7a2e94d4700c21b78af038',
        'harpg_seed1.csv': '994fd986ce521c951a9e113121af109d26156b7ea9f1a51bb43dde7333c311d8',
        'harpg_seed1.policy': 'cfba1f7a06bf1015809edbdc19e9ed4142bbdd0d29d517be7e15e8e43774e5dd',
        'mnpg_seed0.csv': '4e8caf72f43f6ea40b9504e8bfc11e3b364fa014252bccccff37dd7dc55fb6bf',
        'mnpg_seed0.policy': 'a8f951a3464ec3a77436ce7f03a0ebe410c47f94a59cb2726d3a30ebb20964cf',
        'mnpg_seed1.csv': '82cdb75c55fa0c76f458e75fac1ab3040788b8c4c513db5002e9033625b5f301',
        'mnpg_seed1.policy': '46ce19f9d0d962c10fb10c4cd0078af8c9bcd01d9c66cc1590bc19f2d8ba3f70',
        'npg-hm_seed0.csv': '88457e220457d2874f1fdf877bdc9598fee7c30a7c452f94992b245bbf8cb26a',
        'npg-hm_seed0.policy': '82a34880ea7d62465ddc52603e356efd7f400aba59cc8231d374680436b1e64c',
        'npg-hm_seed1.csv': 'ee45c407f54cc2d58a258f46dcafab5e9e2af0872aa793a91578cae4959dcae3',
        'npg-hm_seed1.policy': 'd76ee1b462e13380530748b07f205ebccd357d43061ac5ecf34b01f1bb4e6d96',
        'pg_seed0.csv': 'adef2dae8765698d954bd4b1cf27094d12d07d805228324054b4e942a7f31ecd',
        'pg_seed0.policy': '29bf54401bf535a23427fab582875abeb86d528f48b1f3bf050ea0ffb52442e3',
        'pg_seed1.csv': '3a8a8367a6728fcef2d55df5593fb816fcc398e9884d21f02d5c9dc28e605fd3',
        'pg_seed1.policy': 'ce47dc03aaa3917bbe93eacf3ce51c1a4e6d7d63874a90bd4d6011bff104e26b',
        'summary.json': 'dbdcb3ad741a49a8ecc745af4b5727f929cdb7c8eca7b1d792735e852af07e4a',
    },
    'chain5-exact': {
        'harpg_seed0.csv': 'f017460012728a02d384fcff987861bba01d9eb4ec82f8b303b4ebea24c94b6f',
        'harpg_seed0.policy': '559c908ff1aaec63f96c6f8493813015e6951cbd8da3c082a3ea77539b0c70d6',
        'harpg_seed1.csv': 'e62a47a92f473737b8afbc41b89e70863643b9b8fc6016fdd1dcbea3daa5e39c',
        'harpg_seed1.policy': '228b68dd1bd3686a03e99f568d27e9b9e57a67b2fb57867a3a88aa699296e9e3',
        'mnpg_seed0.csv': 'c60be161259422e336faf841f39aded7807916ddc56586512be6f376ecf5bb72',
        'mnpg_seed0.policy': '74bda44800c9d1e93ec7316887124d492e48518c3a2866f96799e57947974b09',
        'mnpg_seed1.csv': 'd5a5b9dc8f333f2053618be6c82a3ab0c88ecfe2dbfe387dbcca5dfeebf26c70',
        'mnpg_seed1.policy': '537307fd93fb9c53c775f4d10c205cac1f368b21126337b99ce18db0d4900d7b',
        'npg-hm_seed0.csv': '9cfa920a2e08ef4f44ba5c62987ca7755a0de3736c43a2735c461232df9f7d16',
        'npg-hm_seed0.policy': 'f35dd07ed91c59a7705f429dbdd982270f4abaf2fa306b873fb6a7578a7013a6',
        'npg-hm_seed1.csv': '3b33a334778103ee790e8bcf105c6d5451cca6230177ef9f0cadf8315f242cd3',
        'npg-hm_seed1.policy': 'c9b7c54c58f48140d106a9d09c25792412c1d627770ead71751325bd461f3365',
        'pg_seed0.csv': '7272ffada7d7f0b114731fb0929194c9a03921aa98ef5b180dba0a6d611e2ce3',
        'pg_seed0.policy': 'd8149b1715c9eb88106cf221139ef976c0726866fe48ab6add1c0569789fdb26',
        'pg_seed1.csv': '1311aef4639d5840a746a6eb9c716481323539885d62166d943b65be0e348064',
        'pg_seed1.policy': '5beab6021ddca4dd70ded8e050df227be57b23a79ea20e58852492a483ed6543',
        'summary.json': 'a0cacfa3d960b4b6d6fe0f0f155178f4b0ba72366a3aa6d2a9dd085257b513b4',
    },
    'chain5-theory': {
        'harpg_seed0.csv': '9d6efac8e3d11c4ab2d1c374dfea6811222e1c382b614298b4a8a04f6467088b',
        'harpg_seed0.policy': '7acd4943363ee18232298649d842caca5058d7c00c96d3217a736a9137a3d6c3',
        'harpg_seed1.csv': '60e3b05258b96b0c26abf739a68003b29ec4c85005fc1e1f88d73752fee59299',
        'harpg_seed1.policy': 'c0d92105070240e7475782eb53581f2da36f072fe689ee119801c88f240b1d22',
        'mnpg_seed0.csv': '7e95338fc8f46fe35ee64fa0ef4d05bdbab54d86413363577925513d584dca82',
        'mnpg_seed0.policy': '036c5bc854c4688de5cba69068dca1cb6d3f8bbf23aa81592918afe804df5cc4',
        'mnpg_seed1.csv': '36eca70e9822d96c1ccb76c99143702815009634e6521878dfb44018667bfd15',
        'mnpg_seed1.policy': '225678075148912d1a0f4b48972abe91f4d511d0831bef45d30dce023cba18c3',
        'npg-hm_seed0.csv': '74214a51f5143beb31a3f3e8a99c53048cd71b122bd7cd7186cc3af49218534d',
        'npg-hm_seed0.policy': '3a99b544e330bc04ace0bd2badcd52cf77c841f0715d495bd019884cbe7e840f',
        'npg-hm_seed1.csv': 'd3f627b4b5252a1db515f95de1beac58166630d399a9b2b06693b22cae03a01d',
        'npg-hm_seed1.policy': 'a0435b177b31001983ea6a0bc4de7e0d22dc3ea38eaba340d3d51c2db73fb2a0',
        'pg_seed0.csv': '8427e09ef1fc064398a7657ba96ece8e70246ca0aee8e405d1e13a0d9eb361c0',
        'pg_seed0.policy': 'b1b1cf2413c50d6509941abe898d0c602b51c94f8cb7c5c88cc1c8cf0a5cfa83',
        'pg_seed1.csv': '77b0512c073017bdd51d918cdaa2c0dfbdcd4aa12b2cffd6d886a716b85f5b38',
        'pg_seed1.policy': '7c2777f3a745452b8afe2721ae2b245de22b149a8ba3804bc7cea77d89eca2f4',
        'summary.json': 'f0fae547985b42f72e1b0753be3ad93d7d0f6e997f8caae80bb8e49d367fa9ce',
    },
    'pointmass-sgd': {
        'harpg_seed0.csv': '6f52a34e7c69a7271110a71874bec9d7b31154f107df6648bc47822818e5a19b',
        'harpg_seed0.policy': 'd9231878985cdfcaf35881c536b11975d9465472d01457d446bd9994831fb83a',
        'harpg_seed1.csv': '4b711370efaa81aa5d0932b18a8c8b59fd82d9db865d0be2de8b5781dfdfa808',
        'harpg_seed1.policy': 'cea49169ed1da53073cc6d01a0057ac0b970482c6b47d0f2e2a794f51634c821',
        'mnpg_seed0.csv': '621d8278b3f715eb2026ddf58a891009ade6ef1fa96196d85395bc6dad868bef',
        'mnpg_seed0.policy': '4046850e4ca03a69e379cf8c584567d6e6849b1f8a40652bd551d7eb224677d0',
        'mnpg_seed1.csv': 'ec1f1fe0ba4e9063386dd62a879af373b34d2fee377049e7c2ee6827bf0e000f',
        'mnpg_seed1.policy': '9562f2e78a03eb2f10b0ac1b25486dfd82fdb3bca3d2e156dc64c3dcd4906ed8',
        'npg-hm_seed0.csv': '2c14507854ee2e758da7d8a40757c021aa72b9842a371879a31083ef7af2c085',
        'npg-hm_seed0.policy': 'c33fa087183a3fd0e498c308eaa286388fdc16ec1b53251c14875f5fa75dae5d',
        'npg-hm_seed1.csv': 'fb8870aa46a3bbe6e13a3efc3027e11ff69ada5b6ba9628b383464c3918192c1',
        'npg-hm_seed1.policy': '2c94245395faff743c0cfe447bfa3602980ad8f0393c38507cf3342445310fad',
        'pg_seed0.csv': '5f2803dd57e612ee2f2ccbf58aeeb3b8d38ea327f2b9ba8ec46cb9e8324d668a',
        'pg_seed0.policy': '8fa720ca9e7f99b0fc252d265e3bbd4d40219593c93ba606346744c3a8e7c9a8',
        'pg_seed1.csv': '261dd7df068de76040c2bb00cced4c8b364eda6038c34d6326abe28c3e395d6a',
        'pg_seed1.policy': '245a2762577adc6d4dbafecebfd0347fa539b6e56817ffee7bea1d881731c05f',
        'summary.json': 'd4e70cbb2eeaee529c3c9595bad75aba63009acb7a62f4d3a08c08927b007995',
    },
    'random40x5-exact': {
        'harpg_seed0.csv': '8deb73c909261c4a9d86be7141674bb999ac07b066ba493d5f6194dcf4978c76',
        'harpg_seed0.policy': '3ccaa038c88832cbb48613c9bbf6bad7e19ea2afb690400a2b3fea4898267dcf',
        'harpg_seed1.csv': 'ae3ce08f6912b1606ec53e4ad7ba2a2e8a8a1d64b642bde7f6b86be37b57f7b8',
        'harpg_seed1.policy': '4434e264bddc2c10c7ce2e11e1dfe9462393ed26926e54b3b21738697ac5362c',
        'mnpg_seed0.csv': '7431c77d7f10653df0b6bafff3090ec0feb6598d3da58a2f1811a1e88a360c27',
        'mnpg_seed0.policy': 'aad7329fa459f461e0ec70a13dee444f3873ff264312d64e4d08c3a8a1f0166d',
        'mnpg_seed1.csv': '93f2d83a3194a4f148491bc25049eb49ab2e3421159bd09f93aa2f9f771520b0',
        'mnpg_seed1.policy': '289baa28c35bead267b36845b5c6734c2eaead16f1dd74514c7257315368368f',
        'npg-hm_seed0.csv': '581a9a08b883467cde57cfb2c202130e8d0236d19550fe54235e7e33b897483b',
        'npg-hm_seed0.policy': '077f5ffa646c57f23d30325c4e09a4bff8f93d9d1f89d05cd3baa8f57cf0ca94',
        'npg-hm_seed1.csv': '8f4ef2ab8841bac532d486e206d29e81ea4d67c9207e411ae1e6fe648a496e9c',
        'npg-hm_seed1.policy': '6d8e0af2687520efbc83bb850156df32221b37903a2c1f973f1a774e8e8c5067',
        'pg_seed0.csv': '6d5b593c8f257085dff27b987efc9069a3ac058e6bedb6b0dcaa3db87402025d',
        'pg_seed0.policy': '18731d978f66a72ba8d5f531872a7e8afd000cb89ab03fdf6589fc48ae80bcce',
        'pg_seed1.csv': '68bcd1d85c95cc9bac5b9ae65fbb51e1cac251de4a946883230f8e3f3e80b402',
        'pg_seed1.policy': '15b15ec8f5513dfefac828c5d74f3e18d8e373ceae72c45da1a264e8b224d70c',
        'summary.json': '055aeb9d033ea1a1cc00243a6e8d8208b1d8ad581f0c89f18f8bc64954733308',
    },
    'random4x3-beta03-warm': {
        'harpg_seed0.csv': '9885fce9dd1717e0132d8641b94946029872cef1de8052146ff3aaf705d6d042',
        'harpg_seed0.policy': '20e178e25d05681016d9677f2c6d3417c8397c4c4fd543ae382e55caab4e9a47',
        'harpg_seed1.csv': '880f1e7a2dd7760f45133465ee7fc2303433fc6eebfa512dc25bd20c8f71013a',
        'harpg_seed1.policy': 'e0ea7ee154c4629ebe22dc906bceb93a88dd2c3e41d2c23c7642b4bac9932a34',
        'mnpg_seed0.csv': 'b9157f5387efc0193b6284bf4e04d8dda31d56c057d853bb07b567b174b9056a',
        'mnpg_seed0.policy': '8e57dd20016d9aaeefff183bab5ac79cefc05fe0705343222af621f33faa86b5',
        'mnpg_seed1.csv': 'c2deac88272269f81ced117dce47f30031342ee54af1cdfdba64ce5617a25276',
        'mnpg_seed1.policy': 'b369b4ca3fee895534c7bcf624698616fd53bb96b2e58da0362b206f3222566c',
        'npg-hm_seed0.csv': '7c5be6cb3c471ee0c42a9a2b5c1f49f7086a71314f623863525f33bff879bca3',
        'npg-hm_seed0.policy': '944508419a99d3a1a5ac41c44a172c9e8eb069b589c796c795630aed51f15c46',
        'npg-hm_seed1.csv': 'ee1dfcb4eae90182b71bdb212db82c211d90868214672d135eb46995359bad1d',
        'npg-hm_seed1.policy': 'cb76ba8c22c09b86ebd4e646631afbdf3ef5c703af91aeb8867682a2cac44ed6',
        'pg_seed0.csv': '9321bedf1894fa5210d6419a4427303def738391f979f8958038ea6b364949f4',
        'pg_seed0.policy': '73199431c213082c693a8293310a320efb2877023d59d2f9b141ef1089b686d3',
        'pg_seed1.csv': '09c01df9b6ef91e5dfe2afdcfe4b49a2a293e9e53a13eb2c6408d67c24f39316',
        'pg_seed1.policy': '1f46058bc9f4d1a8f261d761255ea6d32803c7bc35c03815bc31c02a06baa05f',
        'summary.json': 'd63cc685bae30c23490cdee1a1c63aba52e84bab9cdb4453a78db36db6a3d4f8',
    },
    'random4x3-exact': {
        'harpg_seed0.csv': 'a4c737fbeff452b67b1e7b23e2cbab52d5bd8922aa02541743afb95ae8682e72',
        'harpg_seed0.policy': '80f030953811b7898f7c89ecd77fcc34a79b02a5c40e00ec834233a01adc4753',
        'harpg_seed1.csv': 'f28b039a6715f149b82705820e177c90123f82450e934145f8d1db89ef0e7d25',
        'harpg_seed1.policy': 'c6093c3e2323d9102d1011aa224ad073570b20f747f54ca8d1bf42bf36a5939f',
        'mnpg_seed0.csv': '1474ee924e4213bc4c6fcbd2b9530effcd802c2a7cb194a4e7c66b07b38a9bb8',
        'mnpg_seed0.policy': '5669925f92b9116ae828073c209e7995e975deb74520b60c542f8ce26e14130e',
        'mnpg_seed1.csv': '0888ed456ea93ab5f6b4343f4eebd15f1c2d8a93a552a855b15c28f286ea0c44',
        'mnpg_seed1.policy': '4bff510bc9883df53a9a24bcc854f77670f9e33b8248bd1dbf96e30e8ceb19cd',
        'npg-hm_seed0.csv': '6b1da809997be56b62ef1d981fc432f24a73f69d0847a596d68759b991b96337',
        'npg-hm_seed0.policy': '85f2c745a0ce28352685d5aec171d604ac95cfc9daec3b8fa17862d50482816d',
        'npg-hm_seed1.csv': 'e31652362898f0622717037fcbccd2717b9e8a1b41c5086855d218a0f6eae676',
        'npg-hm_seed1.policy': 'c2393be0f82c00f4dad5d0ec3379040970fe3657c195a3ade9e9aa920ee2466e',
        'pg_seed0.csv': 'c8df4c19b9760b2dc851ba3ea9142633b689d51c3147f0c475ed515e0b4dcd22',
        'pg_seed0.policy': '83b86ab6eeeba22eeebd44c39f7556402a02eaab35685691cf519b144e945805',
        'pg_seed1.csv': 'e6c7c237a4403dd46745c46232ee7c150ec94fb1dd1fbeab1833d4ee7e1f17ef',
        'pg_seed1.policy': '3a7eff87e09de9e9f395ce7f49463cb0bdd6d6c7f9c8f4e4fda581b8905eed54',
        'summary.json': '549ca92839ff14a995d335c2ff819275053e996627fdf1628d53719b94cc6b0e',
    },
    'random4x3-sgd': {
        'harpg_seed0.csv': '445cc413608670e239bdc21a618e7235f1fa9851ad7c53f40fff453719c6d4a9',
        'harpg_seed0.policy': '006ef75e87b6407c4d6a25cc688f292ee2558d00846037d2279eda48a78f16e6',
        'harpg_seed1.csv': '2048f1b311d2d4f83afa31d4ee36050f3b9f3b916e1c2be6905a0f3d110694fb',
        'harpg_seed1.policy': 'e83898bfeec90da55ec925a3fea2194840ac98d104425eb6cba36dd665b8d6cb',
        'mnpg_seed0.csv': '4bf4b1efe099e0b4392b0644b97e06ddc1b6e983e8569043a0a7945d9066229f',
        'mnpg_seed0.policy': '50e1cec347b09a6382e69be7410f9186f4e21bc5bc006dfefd6d4525c4d5573a',
        'mnpg_seed1.csv': '3177e89aa52dfb593d4e3fa690aa832fda3fd69b3477407cc63959e5ba5a697b',
        'mnpg_seed1.policy': '6c64ed07496aadc0d12990882468ff37906ffbeb0bcca5e9274fcbc1fd24de31',
        'npg-hm_seed0.csv': '4692b57a7b31de9e97b91b287609443c1ce371a26c1e1883abb4cfcff1c7eca6',
        'npg-hm_seed0.policy': 'dc395f9caa6fe655348c096497ffbffd8f17eff92eba135c6ddf6950308e8bd1',
        'npg-hm_seed1.csv': 'd90a1688fc7844c1d644457788dc3424a0c7ff83a4b0fb4c756d5b3cbf3d825f',
        'npg-hm_seed1.policy': '561171e922a9c25ed781fc4da168040787ca075042f93eda6c94ddacbb0b8fdb',
        'pg_seed0.csv': '231b94a0a4cd9a5e03455f12c76b472493ecfea2ddd9edef17ab217eb11d8c88',
        'pg_seed0.policy': 'f833d0e2d46ec7eaceff76552a208f5b1dfcc93fa03f30985fea7ef7fef775ca',
        'pg_seed1.csv': 'ee16b9860ddf9998695c99628d757a334d9dc7174c3101c22edd7c7c7cefaa1d',
        'pg_seed1.policy': 'b1bbb8e554611b9863766705e6be14f287fefe9b7dcccfe42774c95aea806805',
        'summary.json': '6201761d16cc68c6ae33a46295e8aa514d2b503ec48c25c0a4c6f04b90b7d01a',
    },
}


PINNED_THETA = json.loads(THETA_PATH.read_text(encoding="utf-8"))


def train_case(case: str, out_dir: Path) -> None:
    spec = build_train_spec({**COMMON, **CASES[case]}, out_dir=out_dir)
    with np.errstate(over="ignore", invalid="ignore"):
        train_experiment(spec)


def file_digests(out_dir: Path) -> dict:
    """File name -> sha256 of its bytes."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def final_thetas(out_dir: Path) -> dict:
    """Cell (file stem) -> final theta as hex floats, from each .policy file."""
    return {  # the Gaussian's state_radius does not enter its stored theta
        p.stem: [x.hex() for x in load_policy(p, state_radius=1.0).theta.tolist()]
        for p in sorted(out_dir.glob("*.policy"))
    }


def largest_theta_move(thetas: dict, pinned: dict) -> str:
    """The largest relative move of a final theta from its pin, over the
    cells both have."""
    moves = {}
    for cell in sorted(thetas.keys() & pinned.keys()):
        new, old = (np.array([float.fromhex(x) for x in t]) for t in (thetas[cell], pinned[cell]))
        moves[cell] = float(np.linalg.norm(new - old) / max(np.linalg.norm(old), np.finfo(float).tiny))
    if not moves:
        return "no pinned final theta to compare"
    cell = max(moves, key=moves.get)
    return f"largest relative move of a final theta: {moves[cell]:.3g} ({cell})"


def child_train(case: str, out_dir: Path, blas_threads: int = 1) -> None:
    """train_case in this file run as a script, with BLAS on blas_threads threads."""
    env = {**os.environ, **{key: str(blas_threads) for key in BLAS_ONE_THREAD}}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__, "--out", str(out_dir), case],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr


def check_case(case: str, out_dir: Path, blas_threads: int = 1) -> None:
    child_train(case, out_dir, blas_threads)
    thetas = final_thetas(out_dir)
    move = largest_theta_move(thetas, PINNED_THETA[case])
    assert file_digests(out_dir) == DIGESTS[case], move
    assert thetas == PINNED_THETA[case], move


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case, tmp_path):
    check_case(case, tmp_path)


def test_wide_exact_case_is_the_same_at_two_blas_threads(tmp_path):
    # a threaded LAPACK call on the exact training path (such as the dense
    # solve at d=200) rounds differently at two threads and moves these bytes
    check_case("random40x5-exact", tmp_path, blas_threads=2)


def repin(cases) -> None:
    """Print the DIGESTS entries of the cases, report how far each case's
    final thetas moved on stderr, and write their thetas to THETA_PATH."""
    for case in cases:
        with tempfile.TemporaryDirectory() as tmp:
            train_case(case, Path(tmp))
            print(f"    {case!r}: {{")
            for name, digest in file_digests(Path(tmp)).items():
                print(f"        {name!r}: {digest!r},")
            print("    },")
            thetas = final_thetas(Path(tmp))
        print(f"{case}: {largest_theta_move(thetas, PINNED_THETA.get(case, {}))}", file=sys.stderr)
        PINNED_THETA[case] = thetas
    THETA_PATH.write_text(json.dumps(PINNED_THETA, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    named = sys.argv[1:]
    out_dir = None
    if named[:1] == ["--out"]:  # the tests' child: train one case into a directory
        out_dir, named = Path(named[1]), named[2:]
    unknown = [case for case in named if case not in CASES]
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}; known: {', '.join(sorted(CASES))}")
    if out_dir is not None:
        (case,) = named
        train_case(case, out_dir)
    elif named:
        repin(named)
    else:
        print("DIGESTS = {")
        repin(sorted(CASES))
        print("}")
