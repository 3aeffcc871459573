"""Golden digests: sha256 of every file that small `algorithms=all` training
runs write (CSV, .policy, summary.json, *_diagnostic.json).

The digests pin the exact bytes of the training loop's output, so a refactor
or a speed-up that should not change results is checked here to the bit. A
change that is meant to alter the outputs re-pins them, in a change of its
own, with `PYTHONPATH=src python tests/test_golden.py`, which prints the
DIGESTS table for the current code. `PYTHONPATH=src python tests/test_golden.py
CASE [CASE ...]` prints the entries of the named cases only, which is how a
new case is pinned on the commit before the change it guards.

Each case trains in its own process with BLAS on one thread unless the
caller sets the count (perfbench pins one thread too). The exact solve runs
in closed form, with no threaded LAPACK call, so the wide d=200 exact case
also writes its pinned bytes at two threads; a test checks that. Digests
still depend on the BLAS kernel (OPENBLAS_CORETYPE).
"""
import ast
import hashlib
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

ROOT = Path(__file__).resolve().parent.parent

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
        'harpg_seed0.csv': '74c07bccdb47f360c78476ff74437f70252caa119c849b1288ca5b104849b176',
        'harpg_seed0.policy': '59f092f5eea2a906a68a774c07e3a891a7cffdd2ec7a2e94d4700c21b78af038',
        'harpg_seed1.csv': '994fd986ce521c951a9e113121af109d26156b7ea9f1a51bb43dde7333c311d8',
        'harpg_seed1.policy': 'cfba1f7a06bf1015809edbdc19e9ed4142bbdd0d29d517be7e15e8e43774e5dd',
        'mnpg_seed0.csv': '1d93037583a431a82255ca09b7a658e86bc4d5c8da12f43c274cbcaeff4c7d1f',
        'mnpg_seed0.policy': '791e4265698ecd2e51e80b334a47789af99b851e2d511971eac5e3854dd5af3d',
        'mnpg_seed1.csv': 'dc51204c82944c93d6eed3f941eeb4fd954f2039a87a771670f85b914869acb2',
        'mnpg_seed1.policy': 'd4001b6dab6723a3004fefdd75edb63325d9271863010b3212f1c03c30af1acc',
        'npg-hm_seed0.csv': '353fc4d839f227e7ce208f2abdf342d1080db22cd9a0ed8225909a877334a16a',
        'npg-hm_seed0.policy': 'fb194be251193025b95afa5faa294d6b8869049b05597cd91f00ff0c801583ab',
        'npg-hm_seed1.csv': '374bc9656c3f24fda31670ee06d5c70cf0a28e29f549d92bc6cd3ee888cece67',
        'npg-hm_seed1.policy': '01b1d6ec22668bd1fe5e9a2230da50655a12fbc65a076d993be2d2b8c22d7186',
        'pg_seed0.csv': '2837b26e3348a6fc9c2a21444de4992092f07fd9fa3b989e8bc3f43829fe9478',
        'pg_seed0.policy': '29bf54401bf535a23427fab582875abeb86d528f48b1f3bf050ea0ffb52442e3',
        'pg_seed1.csv': 'ee0e27312fe07d55e6465dbac597c839769cbd77d29cb64ed092535592ffa64e',
        'pg_seed1.policy': 'ce47dc03aaa3917bbe93eacf3ce51c1a4e6d7d63874a90bd4d6011bff104e26b',
        'summary.json': '57e0c9322416e0a6ee8ea94356c9ceeb0412ff4368c35f9f2599f49d19cb6d08',
    },
    'chain5-exact': {
        'harpg_seed0.csv': 'f017460012728a02d384fcff987861bba01d9eb4ec82f8b303b4ebea24c94b6f',
        'harpg_seed0.policy': '559c908ff1aaec63f96c6f8493813015e6951cbd8da3c082a3ea77539b0c70d6',
        'harpg_seed1.csv': 'd1df4c47bb8e449ddb5da6b661def6175652b61272143cc480792b7b32c319e3',
        'harpg_seed1.policy': '228b68dd1bd3686a03e99f568d27e9b9e57a67b2fb57867a3a88aa699296e9e3',
        'mnpg_seed0.csv': '80816861d2f37ed89b468e2aa970e16bd21de7c6fbece9706e9a9c5163aacc23',
        'mnpg_seed0.policy': '855f0d2773ff94a63a46a1011640c0d62d8bfdb68b7fa2259ebcc71c2eadcf0f',
        'mnpg_seed1.csv': 'ebf156fdbf248fee18d3d19848b24f6854aa0706f445de07d630b36b540f7452',
        'mnpg_seed1.policy': 'aded80ec57a05b46f8c6e46244b0be2128865f7663b5cb1631652730ae70dfa2',
        'npg-hm_seed0.csv': 'c645c853e423c660358d8b3ca466bf9c498f215c504abf0fa778ff565f0a8059',
        'npg-hm_seed0.policy': 'a0221139aeeb8b5269436b85a1455b917cf411d5a95435340c5e61b982db3053',
        'npg-hm_seed1.csv': 'c1ee3a33452186373f3c64ba72b6626bbefef0eace232fd9b119240da1aae683',
        'npg-hm_seed1.policy': 'c5d9bddcd77dfab648af30374a9fde6e41dd0301271971ee0475dd1e9c0f8b30',
        'pg_seed0.csv': 'dd315a87581cff0acd0ef05cc2fb40823825a3f2149d8c40b3953c2ebe90a552',
        'pg_seed0.policy': 'd8149b1715c9eb88106cf221139ef976c0726866fe48ab6add1c0569789fdb26',
        'pg_seed1.csv': '5fe8fc85d3b8602e6f2e67b7d4e011eb3ccd56c6d23585d8d024915b653a2365',
        'pg_seed1.policy': '5beab6021ddca4dd70ded8e050df227be57b23a79ea20e58852492a483ed6543',
        'summary.json': 'c2d8f958c975629d081a697aab3d16dce542272104a35e5090781dc56e9ad1aa',
    },
    'chain5-theory': {
        'harpg_seed0.csv': '78d5ea278d12fe35da5997e5384cbfa0834e3be253243cdf98fe1adc273bc87c',
        'harpg_seed0.policy': '7acd4943363ee18232298649d842caca5058d7c00c96d3217a736a9137a3d6c3',
        'harpg_seed1.csv': '60e3b05258b96b0c26abf739a68003b29ec4c85005fc1e1f88d73752fee59299',
        'harpg_seed1.policy': 'c0d92105070240e7475782eb53581f2da36f072fe689ee119801c88f240b1d22',
        'mnpg_seed0.csv': '38bb48a492e1a0c55adb8d91a9016ef3ba7f669ee8c53d1aa2a54b77996d93ab',
        'mnpg_seed0.policy': 'a02e88ac9e635c09d905f8b577981f44f4689c87f707f6a0b3020f40203c22e8',
        'mnpg_seed1.csv': 'b93181bbae6de03d2f1c60d63a91022c51ae7f3e8d2df06ac766c2491c351602',
        'mnpg_seed1.policy': 'ae5f730434b946ace9b850bc5432b4b7becc2445ffe58d43344b7c2b668b549f',
        'npg-hm_seed0.csv': '7d6bcc78be98af549f6e8cdee431ae31cf2a9657543f4ad4b7ddcb99e6df5d4d',
        'npg-hm_seed0.policy': 'b9a21ec49d540960f89e68a85e69fd4a474c22b7be48415b868de3341f156ca6',
        'npg-hm_seed1.csv': '9a3a814f25d862b8d3b9beb8f5156324eaeabc24d4c70be20757a4dd3cc8d0ae',
        'npg-hm_seed1.policy': 'f433c09a16bc236ad5921e7d846e4c2d09c02f733da5bdcfb550d33fb3ce7b68',
        'pg_seed0.csv': 'f403b7de6e284fafccdef09591c633b3a18fce29dddba47ca958f9a5f1d12fe9',
        'pg_seed0.policy': 'b1b1cf2413c50d6509941abe898d0c602b51c94f8cb7c5c88cc1c8cf0a5cfa83',
        'pg_seed1.csv': 'b23a0f1e78a37bead70d0770dd34649669f9cd05e23e551f856bac8bd031c576',
        'pg_seed1.policy': '7c2777f3a745452b8afe2721ae2b245de22b149a8ba3804bc7cea77d89eca2f4',
        'summary.json': '2eddfcc20596b735b5a0a5f8d364b5ded704a02acbb17e55654f45a174f0a117',
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


def output_digests(case: str, out_dir: Path) -> dict:
    """Train one case into out_dir; file name -> sha256 of its bytes."""
    spec = build_train_spec({**COMMON, **CASES[case]}, out_dir=out_dir)
    with np.errstate(over="ignore", invalid="ignore"):
        train_experiment(spec)
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def child_digests(case: str, blas_threads: int = 1) -> dict:
    """output_digests of one case, computed by this file run as a script
    with BLAS on blas_threads threads."""
    env = {**os.environ, **{key: str(blas_threads) for key in BLAS_ONE_THREAD}}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__, case],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval("{" + proc.stdout + "}")[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case):
    assert child_digests(case) == DIGESTS[case]


def test_wide_exact_case_is_the_same_at_two_blas_threads():
    # a threaded LAPACK call on the exact training path (such as the dense
    # solve at d=200) rounds differently at two threads and moves these bytes
    assert child_digests("random40x5-exact", blas_threads=2) == DIGESTS["random40x5-exact"]


def print_digests(cases) -> None:
    for case in cases:
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {case!r}: {{")
            for name, digest in output_digests(case, Path(tmp)).items():
                print(f"        {name!r}: {digest!r},")
            print("    },")


if __name__ == "__main__":
    named = sys.argv[1:]
    unknown = [case for case in named if case not in CASES]
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}; known: {', '.join(sorted(CASES))}")
    if named:
        print_digests(named)
    else:
        print("DIGESTS = {")
        print_digests(sorted(CASES))
        print("}")
