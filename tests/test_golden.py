"""Golden digests: seeded CLI outputs pinned byte for byte.

Each case runs the `laff` CLI in process and compares the sha256 of what it
writes (a match trace CSV, the solve and benchmark stdout, a regret CSV, the
tournament and replicator CSVs) with the digest in ``GOLDEN``.  A refactor must leave every
digest unchanged.  A deliberate behaviour change regenerates the table with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which digests changed and why.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from laff.cli import main

KINDS = ("laff", "bully", "ftft", "qlearn", "fp", "manipulator", "egal",
         "maximin", "fixed:0")
GAMES = ("chicken", "cyclic", "rect3x2")
RECT = {"name": "rect3x2",
        "R1": [[0.512, 0.95], [0.144, 0.949], [0.312, 0.423]],
        "R2": [[0.828, 0.409], [0.55, 0.028], [0.754, 0.538]]}
# player 2's two rows tie exactly under FP's uniform prior:
# (1/3 + 0.1 + 0.1) / 3 = (1/3 + 0.2 + 0) / 3, so its first action is 0
FP_TIE = {"name": "fp_tie", "R1": [[0.7, 0.2], [0.7, 0.1], [0, 0]],
          "R2": [[1 / 3, 1 / 3], [0.1, 0.2], [0.1, 0]]}
# player 2 has one action, so LAFF's switch slack in seat 1 takes its r = -inf limit
COLUMN = {"name": "col2x1", "R1": [[0.2], [0.9]], "R2": [[0.5], [0.5]]}
JSON_GAMES = {"rect3x2": RECT, "fp_tie": FP_TIE, "col2x1": COLUMN}
MATCH_T = 300
# non-default parameters, so that their plumbing is pinned too
PARAM_MATCHES = (
    ("qlearn", "ftft", None, {"p": 0.5}),
    ("manipulator", "qlearn", {"eps_prime": 0.0, "p_switch": 0.5}, None),
    ("fixed:1", "laff", {"weight": 0.5}, None),
)
BENCH_OPPONENTS = ("bully", "ftft", "egal", "maximin", "fixed:0", "fixed:1")
# (game, p2, opponent class, extra flags) for `laff regret --p1 laff`
REGRET_RUNS = (
    ("chicken", "qlearn", "follower_unconditional", []),
    ("cyclic", "ftft", "bounded_memory", ["--K", "2", "--stride", "7"]),
)


def _match_cases():
    """Each kind in both seats: self-play plus one step around the ring."""
    pairs = [(KINDS[i], KINDS[(i + d) % len(KINDS)], None, None)
             for d in (0, 1) for i in range(len(KINDS))]
    return pairs + list(PARAM_MATCHES)


def _case_id(p1, p2, params1=None, params2=None):
    parts = [p1]
    if params1:
        parts.append(json.dumps(params1, sort_keys=True))
    parts.append(p2)
    if params2:
        parts.append(json.dumps(params2, sort_keys=True))
    return " ".join(parts)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def _game_arg(game, work: Path) -> str:
    if game not in JSON_GAMES:
        return game
    path = work / f"{game}.json"
    if not path.exists():
        path.write_text(json.dumps(JSON_GAMES[game]))
    return str(path)


def match_digests(game, K, work: Path) -> dict:
    out = {}
    for p1, p2, params1, params2 in _match_cases():
        trace = work / "trace.csv"
        argv = ["match", "--game", _game_arg(game, work), "--K", str(K),
                "--T", str(MATCH_T), "--seed", "11", "--p1", p1, "--p2", p2,
                "--trace", str(trace)]
        if params1:
            argv += ["--p1-params", json.dumps(params1)]
        if params2:
            argv += ["--p2-params", json.dumps(params2)]
        _run(argv)
        out[_case_id(p1, p2, params1, params2)] = _sha(trace.read_bytes())
    return out


def fp_tie_digests(work: Path) -> dict:
    """FP against itself on `FP_TIE`, where the lowest-index tie rule decides."""
    trace = work / "trace.csv"
    _run(["match", "--game", _game_arg("fp_tie", work), "--p1", "fp", "--p2", "fp",
          "--T", "3000", "--seed", "4", "--trace", str(trace)])
    return {"fp fp": _sha(trace.read_bytes())}


def single_action_digests(work: Path) -> dict:
    """LAFF on `COLUMN` against player 2's one action, leaving slot 1 at t=44."""
    trace = work / "trace.csv"
    _run(["match", "--game", _game_arg("col2x1", work), "--p1", "laff",
          "--p2", "fixed:0", "--T", "2000", "--seed", "1", "--trace", str(trace)])
    return {"laff fixed:0": _sha(trace.read_bytes())}


def benchmark_digests(work: Path) -> dict:
    out = {}
    for game in GAMES:
        for K in (1, 2):
            for opp in BENCH_OPPONENTS:
                stdout = _run(["benchmark", "--game", _game_arg(game, work),
                               "--K", str(K), "--opponent", opp])
                out[f"{game} K={K} {opp}"] = _sha(stdout.encode())
    return out


def benchmark_k3_digests() -> dict:
    """The K=3 benchmark on the 2x2 games, where the induced MDP is largest."""
    return {f"{game} K=3 {opp}": _sha(_run(["benchmark", "--game", game, "--K", "3",
                                             "--opponent", opp]).encode())
            for game in GAMES[:2] for opp in BENCH_OPPONENTS}


def solve_digests(work: Path) -> dict:
    return {f"{game} K={K}": _sha(_run(["solve", "--game", _game_arg(game, work),
                                        "--K", str(K)]).encode())
            for game in GAMES for K in (1, 2)}


def regret_digests(work: Path) -> dict:
    out = {}
    for game, p2, opp_class, extra in REGRET_RUNS:
        _run(["regret", "--game", game, "--p1", "laff", "--p2", p2,
              "--opp-class", opp_class, "--T", "400", "--seeds", "2",
              "--seed", "5", "--out", str(work), *extra])
        name = f"regret_{game}_{p2}.csv"
        out[name] = _sha((work / name).read_bytes())
    return out


def population_digests(work: Path) -> dict:
    _run(["tournament", "--algorithms", "laff,bully,qlearn,fp",
          "--games", "chicken,asym_biased", "--trials", "2", "--T", "200",
          "--seed", "3", "--out", str(work)])
    pop = work / "population.csv"
    _run(["replicator", "--input", str(work / "pair_game_trial.csv"),
          "--generations", "30", "--runs", "5", "--seed", "4",
          "--out", str(pop)])
    return {name: _sha((work / name).read_bytes())
            for name in ("learning_game.csv", "pair_game_trial.csv",
                         "population.csv")}


GOLDEN = {
    'match chicken K=1': {
        'laff laff':
            'aeeeb5735d203d8d9f8deda5fc6512cbdf15d4218e83fa2f6904f00c93cbd780',
        'bully bully':
            'c1c40fdb104392e5a7987f06cecde9ccb57a699aaedf2f532e52da5c2368e9d4',
        'ftft ftft':
            'a33e0f509cbbc744276bbb8a5c8a62749c446f177e8239ab43744bf978316b3f',
        'qlearn qlearn':
            '2c27d643d0d15c4941b1f42843bbff52a50c5d6114e4572c40480eb807c7cad9',
        'fp fp':
            '7566e1c1262ade232b608c30096242e2fd3937aadf396109795abe05e5bb3237',
        'manipulator manipulator':
            '576df75a28f3d4dd6fb9eb3c1ff9674b43a07eb0087d10735f820f241d4653de',
        'egal egal':
            'a33e0f509cbbc744276bbb8a5c8a62749c446f177e8239ab43744bf978316b3f',
        'maximin maximin':
            '13b2f5e09064bd2fd352620f408ce24bd5042e335def9e747f2cd755b1d36a94',
        'fixed:0 fixed:0':
            '13b2f5e09064bd2fd352620f408ce24bd5042e335def9e747f2cd755b1d36a94',
        'laff bully':
            '31ae65e7e0e3307439fba663e08aa4ff4b92f8e62b95669d1216472f415f1ed6',
        'bully ftft':
            '71b154c5437fdea19f6cf0c8b1df41520798f8a6e16bae5b5a8f34509d2d1f1b',
        'ftft qlearn':
            '1c81117ddfdadf420978ff93a8ae76ba63d885e124bbe45c35ba5c7ab3e2fa8c',
        'qlearn fp':
            '4e4601a951ec1394c11198e4d4c0752a3c503015af47d7121ab2ee250f11dd63',
        'fp manipulator':
            '0b56c78011a8c3f9029aa1e124a5aa5d559b132db0ba5965174ecc5323ffa37b',
        'manipulator egal':
            '71b154c5437fdea19f6cf0c8b1df41520798f8a6e16bae5b5a8f34509d2d1f1b',
        'egal maximin':
            '14d3a4ff8d92ba8088d35cbbbf17f70d6982598ef33b9e89702108db613fa93f',
        'maximin fixed:0':
            '13b2f5e09064bd2fd352620f408ce24bd5042e335def9e747f2cd755b1d36a94',
        'fixed:0 laff':
            '72d67dbec124a406eb2676c5963828f9b50c507d086c6b03161f01e2c9421582',
        'qlearn ftft {"p": 0.5}':
            'e7d0e757886ec732b562bbfa6f6e9cf2a41fe6e77bf92726ce606d3a7ba7d6c0',
        'manipulator {"eps_prime": 0.0, "p_switch": 0.5} qlearn':
            'afb95cd9bb3f2d821ed1b79f5149c11770b31ff4238f046cc0da9e24bbaa0fad',
        'fixed:1 {"weight": 0.5} laff':
            '8558d9b91acb2774b50f99a6cb002a2e2ea22b066606df82c21eebad82f19fa0',
    },
    'match chicken K=2': {
        'laff laff':
            'eeb213b456c9c146de2253be077924dd136465287e2d50de51fdd0e7adf8a52b',
        'bully bully':
            '18f6885e21dadd5b20bc512446c04e3ad61d2f58dff479981ea09f92ef7d06f1',
        'ftft ftft':
            '4afc2a65046036cd0471ba6533ac0a8bf88661b45feecca7a474f08a73517ff0',
        'qlearn qlearn':
            '43932b055200714e9d2d4c0ba3578554c37d38f2077392b1fef64f8d164af57c',
        'fp fp':
            '3c3ca737b18e65fc0f13b7df21a47f1b51a364982868bfd4764658d43484d2b7',
        'manipulator manipulator':
            'f058f9f1ca07491bb071e6fa0918d690f4b8e0653cc96623a6e2fca28f915d35',
        'egal egal':
            '4afc2a65046036cd0471ba6533ac0a8bf88661b45feecca7a474f08a73517ff0',
        'maximin maximin':
            'bc3e7fecf62b2eecad48237a9937072f8e65242e8080bc08d74353b560171e0b',
        'fixed:0 fixed:0':
            'bc3e7fecf62b2eecad48237a9937072f8e65242e8080bc08d74353b560171e0b',
        'laff bully':
            '4887fc9d933861fe7ca9bcf1fa6fbc95bcc7bd124587d9711a751c66534da1a9',
        'bully ftft':
            'db71c22049b41ba2df15b647958fe87243bd3eb1f49dc0e3e01e321fe5bea7ea',
        'ftft qlearn':
            '33d86b08dc6ddee10a256a5a53f73cce4fd6e6bb83bcb5a50efb7e12572dfba5',
        'qlearn fp':
            'ff0603e3bb427db78c09fc8908b0ad22bd6d53a7d6e1b1299eb5766b6c87f5cc',
        'fp manipulator':
            'f7a910907b8e1f2ed857ae4ecb815c8a5951cfdc572f21ae408ab682f0e71b4d',
        'manipulator egal':
            'db71c22049b41ba2df15b647958fe87243bd3eb1f49dc0e3e01e321fe5bea7ea',
        'egal maximin':
            '509101636a9ba9cdeacc723d8f91a70d0d97e2747ee9c13f1ff338195c0a9ca3',
        'maximin fixed:0':
            'bc3e7fecf62b2eecad48237a9937072f8e65242e8080bc08d74353b560171e0b',
        'fixed:0 laff':
            'a8d08e49364b41888a06270c95a603c102afc047e882c84273d81c2853ca424c',
        'qlearn ftft {"p": 0.5}':
            '498777230402f0115c33d2360c0cb5266fb29bbcce7d91d17a80ac2c86f4b64c',
        'manipulator {"eps_prime": 0.0, "p_switch": 0.5} qlearn':
            '8b0f4a7f06996b21ebe02f877aeeb8f7af3326f5f6062990e625654a0aa1204d',
        'fixed:1 {"weight": 0.5} laff':
            '1bd1951a12b3902458f779b61d2dab5f09732b71ba6c9022f93a318a22707468',
    },
    'match cyclic K=1': {
        'laff laff':
            '396b68f1691bcca7f654730e0d4e2c770d69fd16a2810ab5e5de262c90dcfed6',
        'bully bully':
            '2adc441463937fd7ba3e1c7353546248862a3c348f6dbddb5446f077c58a74f8',
        'ftft ftft':
            '71f8d9e5e13ef62ee138dc681c9b8303d8781fa9e2310b1d0e584891f3306b06',
        'qlearn qlearn':
            'c2a5f31e680ad60c4cda52f7be5a845da7d50e82608a31825e2159c889cfd007',
        'fp fp':
            'bec4f6795e64ed871c601a24763eb72c5690b909cb2ffa41222775e566f20eb6',
        'manipulator manipulator':
            '88eb0ba0ca0608d742756522a0b442f7c51fbd9bd613c18e6f5ed5126f5b4eaf',
        'egal egal':
            '71f8d9e5e13ef62ee138dc681c9b8303d8781fa9e2310b1d0e584891f3306b06',
        'maximin maximin':
            '844f6dfa7a45f90249ccf460f99da9641eeba6bce34c81f50e6d297349664424',
        'fixed:0 fixed:0':
            '773556c0054b9115ee8e30a8395480a8c3244814ec5187e23e2d1e81d926902e',
        'laff bully':
            '34aadfabfff680d7da3bee11679611910bb5f64c68ca760487862c00f56ca898',
        'bully ftft':
            '967bf7f249283a145fb7289c6db8296269e8e511afa287fc217e287e9aa6aea5',
        'ftft qlearn':
            '8ee488d7946df3e6e66c5bd7060e63cebddb47fd580bd6356eb15eb0c49f4c34',
        'qlearn fp':
            '04a860ccb05d69f0b018effefe6c44598ca113e83d7c2264e6ec3f0d1f379caf',
        'fp manipulator':
            'f2da223d1c95689678a9260ef3cd3ded395a5d3d62e50dea1896b4a25d41da80',
        'manipulator egal':
            '967bf7f249283a145fb7289c6db8296269e8e511afa287fc217e287e9aa6aea5',
        'egal maximin':
            '6496a10a138d7821107103ee778434c99790c8e1949a2c698749fc87811d2dae',
        'maximin fixed:0':
            'cf8565419ad8683c78ad7060d65619d06169af341c31046a9a235ce50aee15f2',
        'fixed:0 laff':
            'a2297350759744d942baa8f0b161e35400123bc083032dedd59ff6cdaf2cbeab',
        'qlearn ftft {"p": 0.5}':
            'a1c01a549c378949df3ba8e87a91850440ab91bdeadd5f302af3aa0b1a08278f',
        'manipulator {"eps_prime": 0.0, "p_switch": 0.5} qlearn':
            '3250f81ed3bd4a75d24aba88c9941292431d773e726c639bc0b849653845d477',
        'fixed:1 {"weight": 0.5} laff':
            '87245634ad65018b207b8073a1bc6aa38d5ba3dc0d6269e9eced1d3c12d4ce42',
    },
    'match cyclic K=2': {
        'laff laff':
            '73677d55baa73e96053c33ef56ccd1e60140b74bbc733fd4cb8919feeed1949f',
        'bully bully':
            'a83fa3f568975bb9bf5174fcfaa61c1af89bb9892816002dc4f007ca5c65cd07',
        'ftft ftft':
            '443724734f46c92f10deae90b152544fbd6a8e35ab8268c1183f13a278683d52',
        'qlearn qlearn':
            'e6ee1ad266885922ffcfcc63840bdce7ab8d4141584075121a3c82a59cdbe15b',
        'fp fp':
            'f4d9c869bb95e3d77c6699b1a90aa90a8b685e34c709a1e0abe134036e6b0e2c',
        'manipulator manipulator':
            '1c1ad441ac049843e5a1f1c13a2d8e8d17935c550ee8eee1878dc5c01f016167',
        'egal egal':
            '443724734f46c92f10deae90b152544fbd6a8e35ab8268c1183f13a278683d52',
        'maximin maximin':
            '685f8d8ed1e1ab0cbb4f6140027e191b86d07120c286bf4697355d8f0b300bb3',
        'fixed:0 fixed:0':
            '41b367c2c7ec2a331ba00849c5e17c7ea403ed8d0f76ccf13672112ebf7aa363',
        'laff bully':
            '2cc80e3a07b6b23aff42a9f0d2f4922787fc5602123f7e9ebbd7a31ce548dedd',
        'bully ftft':
            '5b9415904c9d0977a77ab0cbad9b43f5301b4fe94afda8179c3ddbd38c4c46f2',
        'ftft qlearn':
            'd1529c77460fee782d5fe852b7919b531b3db2707dbe7a81edac49c91362a810',
        'qlearn fp':
            'bbde7572daa421d7e792f0a53cc9ec6526e78993fac235e11b7df0633bd05946',
        'fp manipulator':
            '1d8bf1f975a7ce99f93b625317df98557441f84ceb1c06b3ef63324b9f47b254',
        'manipulator egal':
            'b44a0af18ffd7711305ef329f6fbcf251b0b217864468bc78b851bc41faa2221',
        'egal maximin':
            'a00fa44bf500ceedddead521f39233d0aeddeadc569b6f5d3c06cc1ded590ddd',
        'maximin fixed:0':
            'a0a139468028d5e6644356739c28ae707d137c91c0ef850b779d59a3e42867c8',
        'fixed:0 laff':
            '4a9b58b549875315e1bdf7adc5b5e99facbfd4a94b97cce544e8bd6e00393524',
        'qlearn ftft {"p": 0.5}':
            '8c71db5deaee79da6cbf77767690cc1f56f79fc0c7f3fed971ec04b198d493d1',
        'manipulator {"eps_prime": 0.0, "p_switch": 0.5} qlearn':
            'a8657adc738e658de48a31c5a14d6150f6baa2df1e14f3467e1fc7be635ec6d6',
        'fixed:1 {"weight": 0.5} laff':
            'b2323f671b2bae6239c3d2c557eb85ff46faa5aa50c224ff4bb0e47fcddeb596',
    },
    'match rect3x2 K=1': {
        'laff laff':
            '428a345499f5b02629024569957a1c67339b080739fe65ab7267167c17a13016',
        'bully bully':
            'fca65f7f01bd71103483615d91047114a3b59b80a470866819f1e0afc1a056a0',
        'ftft ftft':
            '1a15f27d9d95deda87954e461b45fd23a712bd638eada0b36f77581631b6a86f',
        'qlearn qlearn':
            'cdd2993ecc8140031003f2202540e5034e20c4cdb5173cf71c891d639c4322e3',
        'fp fp':
            'b2e9187c7d11070657c46d9cd99096b1fdebf67ae6383469b669d55ab5ae763b',
        'manipulator manipulator':
            'fca65f7f01bd71103483615d91047114a3b59b80a470866819f1e0afc1a056a0',
        'egal egal':
            '1a15f27d9d95deda87954e461b45fd23a712bd638eada0b36f77581631b6a86f',
        'maximin maximin':
            'b2e9187c7d11070657c46d9cd99096b1fdebf67ae6383469b669d55ab5ae763b',
        'fixed:0 fixed:0':
            'b2e9187c7d11070657c46d9cd99096b1fdebf67ae6383469b669d55ab5ae763b',
        'laff bully':
            '861420819abaf1b146b2a95f0e111f795737ee72c3df55587ac7e70774c07917',
        'bully ftft':
            '1a15f27d9d95deda87954e461b45fd23a712bd638eada0b36f77581631b6a86f',
        'ftft qlearn':
            '65bb2cdd9b8adc8a66052ad4ff7dc186fca0b31b1870099fbd5668bf6cef464c',
        'qlearn fp':
            '63ab7e5987fb06c06cd16eafcf76a69637c39c2c9e65a324f2f35866185e5707',
        'fp manipulator':
            'f0766dc39b42a9607b660a56923000c19b1d7e38eaa086e7e31db0b97176fb9d',
        'manipulator egal':
            '1a15f27d9d95deda87954e461b45fd23a712bd638eada0b36f77581631b6a86f',
        'egal maximin':
            'fae164b081c458a662194c03888c2e0d3b0ccd709637568363dde37ba9825d64',
        'maximin fixed:0':
            'b2e9187c7d11070657c46d9cd99096b1fdebf67ae6383469b669d55ab5ae763b',
        'fixed:0 laff':
            '555388bc6bf06d689bb0cf254ef58ada009a9be69d48c849f3122115e4fa82af',
        'qlearn ftft {"p": 0.5}':
            'e4235708608aceead2996027b981a4a30592cf0c264dc41ca07304dc8bcd9d27',
        'manipulator {"eps_prime": 0.0, "p_switch": 0.5} qlearn':
            '65bb2cdd9b8adc8a66052ad4ff7dc186fca0b31b1870099fbd5668bf6cef464c',
        'fixed:1 {"weight": 0.5} laff':
            'de3f4963877cb7a998b8ff18ea089a9b93f6e0dbd8002348b4df3dd3ca293360',
    },
    'match rect3x2 K=2': {
        'laff laff':
            'aeb6263af2345a5248fc15419a0f25479b207a47fac8792b5b3f00971f2bd3fa',
        'bully bully':
            '7065bf81310c18a0075763474af44781c3bb184787cfa1a83f4e3d9d319a5940',
        'ftft ftft':
            '4f6bb5830fa0f771b30e289396f1746b9d7454f9b16208c1f8eef74dc2d4134a',
        'qlearn qlearn':
            '7de0b87f1d7d93524a3b979ad6fb80ab6b0b633fc34595a01fa6761f2330821e',
        'fp fp':
            '76fd5d8a3cf0b2a200d363e3b0125fbd5ea26150e296fc22fb5c2c331b32a4d5',
        'manipulator manipulator':
            '7ce02372673f66e4d6d97436812a01afb3bb2ab4b48c60d9450f58d08ba7aed9',
        'egal egal':
            '808a8c69fcaf8c0b682d532138cac61fdd21931ca0a60062f9fbbdd44f4afc56',
        'maximin maximin':
            '76fd5d8a3cf0b2a200d363e3b0125fbd5ea26150e296fc22fb5c2c331b32a4d5',
        'fixed:0 fixed:0':
            '76fd5d8a3cf0b2a200d363e3b0125fbd5ea26150e296fc22fb5c2c331b32a4d5',
        'laff bully':
            '716ac7a23b1acfea5ef76ee18dbfa2e4238cb589b7cf9da12edc31ffe751f8fd',
        'bully ftft':
            'c8993a3d45b813b94fd388d2711a7fe5da45a2d7e2af248b9a5b3747d0534737',
        'ftft qlearn':
            '5437127e4626e64c6d951650d644eabf31e09cca99776afeef7b68eab43b3736',
        'qlearn fp':
            '50dab800610b4b3b12c875f899bb92b3c06f915744729fa020fc86cc9d8f8b1d',
        'fp manipulator':
            'a8f5aa8cbdcfc594aea70b392057fae0053c90c660da97d82deb47300c7c55f9',
        'manipulator egal':
            'cce6563d9f2822845317d8e309d6a0079db3d764a882ec9af13eb07db3efe5e5',
        'egal maximin':
            '18f19e54b4080226ef37af238e258aa71b85b7ed977f5c394243461d17c30d0a',
        'maximin fixed:0':
            '76fd5d8a3cf0b2a200d363e3b0125fbd5ea26150e296fc22fb5c2c331b32a4d5',
        'fixed:0 laff':
            '2e908c058813e6320469381731a2631ea4f6de9930ed03183e23783f4285dc9d',
        'qlearn ftft {"p": 0.5}':
            '549cb9ecf70d785edd5fb7d905cb1a61f8e69c31b203b8af080bb3311f444daf',
        'manipulator {"eps_prime": 0.0, "p_switch": 0.5} qlearn':
            '8dd414770c3396c231866ddb8614b650a75c2f65599a3eb27bb60d39bdfdc6ad',
        'fixed:1 {"weight": 0.5} laff':
            '09abc6e813a7430ab1b6f6a0ca0adaa916fe1a9b6d238a2d85906fbc8e59707d',
    },
    'match fp_tie K=1': {
        'fp fp':
            '7e4846bbeb8d64b16af804b023c717583682c55beb746341fa895a3ed205ca03',
    },
    'match col2x1 K=1': {
        'laff fixed:0':
            '9bdef36258580790cc8c90db64d7f53126616b27275ad649da36a4b0d5c914fa',
    },
    'benchmark': {
        'chicken K=1 bully':
            '5e9dadc597d872a34aeae63565a4bbbd47cbb7d411fc76628cba7f541fd071a0',
        'chicken K=1 ftft':
            'fcf122b02fd9a175ef31906721b49a3a7fa86e0622cc4568a1235b5ae5613efc',
        'chicken K=1 egal':
            '24a6d792c77f445a8628e86e2ea171714107d96e94cac103c2049078c2470454',
        'chicken K=1 maximin':
            '9887a31d6fd63a6e6f99113709d5e105048493b5f8de9aba1b78338da29c3a1c',
        'chicken K=1 fixed:0':
            '5d7c804fee717f907ee5e18a7e506712d03df8b46cfb4266118660675deaca71',
        'chicken K=1 fixed:1':
            '82ccaab3db9ea6c10e821f7d151b8682335d6eac5415d811518ab2200e66463a',
        'chicken K=2 bully':
            '5e9dadc597d872a34aeae63565a4bbbd47cbb7d411fc76628cba7f541fd071a0',
        'chicken K=2 ftft':
            'fcf122b02fd9a175ef31906721b49a3a7fa86e0622cc4568a1235b5ae5613efc',
        'chicken K=2 egal':
            '24a6d792c77f445a8628e86e2ea171714107d96e94cac103c2049078c2470454',
        'chicken K=2 maximin':
            '9887a31d6fd63a6e6f99113709d5e105048493b5f8de9aba1b78338da29c3a1c',
        'chicken K=2 fixed:0':
            '5d7c804fee717f907ee5e18a7e506712d03df8b46cfb4266118660675deaca71',
        'chicken K=2 fixed:1':
            '82ccaab3db9ea6c10e821f7d151b8682335d6eac5415d811518ab2200e66463a',
        'cyclic K=1 bully':
            '4cb345506641265a8b2982a1eff7d146d086e19b60086f4449810785cde5bee9',
        'cyclic K=1 ftft':
            '74016dbc504b524d10f4f25d1f909e5484e75ca3cb825f858f11eecde416cd27',
        'cyclic K=1 egal':
            'b3a2a937c5caf45ca420dcac9e8407a64e15f6e765e37de1e06883b33ef852a8',
        'cyclic K=1 maximin':
            '73423a4686714cb2d87f849f36d4258c56e8bce32112049784a6f0cef478a51e',
        'cyclic K=1 fixed:0':
            '968c77097613f4224881ab799f98924cf4c658ef64c13566cf4e553bd7166d09',
        'cyclic K=1 fixed:1':
            '438106716f77dc47b1afe0118b9b2498053019be5d884b5636134ea291cda7d4',
        'cyclic K=2 bully':
            '621dbc55a370bd4dcc75a43cba23062746b2828dfa9c44fb90be6a6a05e8655d',
        'cyclic K=2 ftft':
            '8f538e7f04fa0ef1953eb9db7ff7e8dfbeea3ca064c3251bb625a42e667e3e8d',
        'cyclic K=2 egal':
            '22977be71ff3eab324fb3bae3f6e127320bcdfd1f18fa42e1b98f46978880713',
        'cyclic K=2 maximin':
            '33ab82e0f16115b360eeece9049759c9c3f2fce8e65e30e296a536e6651fec2c',
        'cyclic K=2 fixed:0':
            '45f4cd8c57c7b863ae2246555f704370ccee28fa807a8d70989f39bb14d507f9',
        'cyclic K=2 fixed:1':
            '3a40fb8418ca211c792f6960d490ff51623d522d94f602bf73e974acc7a11e13',
        'rect3x2 K=1 bully':
            '432d6a78f562ab238530a0d5b3118810daa6e36d4976fa4d6895fe814e5ab62a',
        'rect3x2 K=1 ftft':
            '6be3f9b6583337dbc06b9741e29033f8d41122eb652c24efbb39d2fca59cd2c3',
        'rect3x2 K=1 egal':
            'c6c79e1e026319c4cdfcc2270c076eb20fb7ca016299be5b52011cab78d4f593',
        'rect3x2 K=1 maximin':
            '3a4c85521aa6e3bf62318073f37f7e0bc0e1acb2cf6ca248ef321f1d398ad23f',
        'rect3x2 K=1 fixed:0':
            '8729bc0472d250b9f1c9dec9cb1029c2407657a272183243e92ddbf5cf9616ee',
        'rect3x2 K=1 fixed:1':
            '35a05b6b70fe5bd07591f9b8196e1d516d2af7ad61c66bb8d6d585338b8c6944',
        'rect3x2 K=2 bully':
            '84e99344b586b8d19c6e22a26cf4eb4fd8c1c0a1cb2e55a9a275c4cea8fca62d',
        'rect3x2 K=2 ftft':
            '612e8fc1b864e1fbf20196df4520e8b5ce8603cf44b5f9bb773e7e0c95cf985e',
        'rect3x2 K=2 egal':
            'cd3b14c6cfd2f3eafc42358d229bd5f7e52aeb3a0528215686d82ba6b6abe486',
        'rect3x2 K=2 maximin':
            '6ac007859a6eb96992c128fb75e478f87dceb07efb357d31082a75dbc85cc8a0',
        'rect3x2 K=2 fixed:0':
            '82484dcd05bac04279d237f26c4a7960aee62b810f61ea6d0987f660987deaaa',
        'rect3x2 K=2 fixed:1':
            '4ec87884c123639d8d3b3c83da3835a7fd57cd0f60bef8870a55eba755fa78d9',
    },
    'benchmark K=3': {
        'chicken K=3 bully':
            '5e9dadc597d872a34aeae63565a4bbbd47cbb7d411fc76628cba7f541fd071a0',
        'chicken K=3 ftft':
            'fcf122b02fd9a175ef31906721b49a3a7fa86e0622cc4568a1235b5ae5613efc',
        'chicken K=3 egal':
            '24a6d792c77f445a8628e86e2ea171714107d96e94cac103c2049078c2470454',
        'chicken K=3 maximin':
            '9887a31d6fd63a6e6f99113709d5e105048493b5f8de9aba1b78338da29c3a1c',
        'chicken K=3 fixed:0':
            '5d7c804fee717f907ee5e18a7e506712d03df8b46cfb4266118660675deaca71',
        'chicken K=3 fixed:1':
            '82ccaab3db9ea6c10e821f7d151b8682335d6eac5415d811518ab2200e66463a',
        'cyclic K=3 bully':
            'b78ecae093a7211f4fbf43f0fa18718e2797a7e38758e7d13f8c52aa1381b0db',
        'cyclic K=3 ftft':
            '3ea836126b99de023eb97ddf3a01b0a38d057647622a1ecd20bd9c72931f7293',
        'cyclic K=3 egal':
            '2d86f4a4945edd1097baa7e6083fd51dbe378ff9f8c72a2e4e9df2e1bcc1e68b',
        'cyclic K=3 maximin':
            'a2b04ff92c80065f51e64ea9a7a061e210be6e900161c9ebe6ccce2bf9d0fd6d',
        'cyclic K=3 fixed:0':
            '8760a47494f8cfefc252963c6454961a30cc27752327df5039b3dbddb4eebad0',
        'cyclic K=3 fixed:1':
            '379ea0f98fb68497775e5413135585857e289a82567c58e4985b34a85dc4e11e',
    },
    'solve': {
        'chicken K=1':
            '63f6164a90e0f3ae89c4d00551c25df42bf6cabd333fc60009ce25c0b047e8ed',
        'chicken K=2':
            'ffc8bd8376d715ed3432dbd242df688666d436ba13a2d91c2383299137fabe7c',
        'cyclic K=1':
            'a474daa1573a8d53256ff6faf7ac5251766984adc5afeb47e9f0a696dae5dbff',
        'cyclic K=2':
            'b82ea50c9b0ac6b679e9b8d2e00c3627e5385cf079fb6428ccfb5993403a7e53',
        'rect3x2 K=1':
            '0ff89317c808eb6b0c54c11a8060e3b20d1bd85ada9e136f0bcb749f49441561',
        'rect3x2 K=2':
            '7bf9c9be028213fcc2d72fba475202656685c4b7f5751c9d520e27d9766ed275',
    },
    'regret': {
        'regret_chicken_qlearn.csv':
            'bbdb50a3b65af8b16501c2121ff9c2c1eae868f9b66782a5743a51a9649a6b61',
        'regret_cyclic_ftft.csv':
            '621b26256a72d7c27f4d923fb724b705b11cec40649ba5d5e2f93f1238549772',
    },
    'population': {
        'learning_game.csv':
            'fb91e88f2e52ad0e513bea52cbe1b692e0e3a6ea7822cb45b80811544bacd0f4',
        'pair_game_trial.csv':
            '8294d2eb39d1c011281c0295de8e442c0baee58b4d2090e16ceed9fafa45f345',
        'population.csv':
            'bcd0bde517f32b8b27dd2dbc55ef10c04f2790a084342290c1d3ef0e06b427eb',
    },
}


@pytest.mark.parametrize("game", GAMES)
@pytest.mark.parametrize("K", (1, 2))
def test_match_trace_digests(game, K, tmp_path):
    assert match_digests(game, K, tmp_path) == GOLDEN[f"match {game} K={K}"]


def test_fp_tie_trace_digest(tmp_path):
    assert fp_tie_digests(tmp_path) == GOLDEN["match fp_tie K=1"]


def test_single_action_opponent_trace_digest(tmp_path):
    assert single_action_digests(tmp_path) == GOLDEN["match col2x1 K=1"]


def test_benchmark_stdout_digests(tmp_path):
    assert benchmark_digests(tmp_path) == GOLDEN["benchmark"]


def test_benchmark_k3_stdout_digests():
    assert benchmark_k3_digests() == GOLDEN["benchmark K=3"]


def test_solve_stdout_digests(tmp_path):
    assert solve_digests(tmp_path) == GOLDEN["solve"]


def test_regret_csv_digests(tmp_path):
    assert regret_digests(tmp_path) == GOLDEN["regret"]


def test_tournament_and_replicator_digests(tmp_path):
    assert population_digests(tmp_path) == GOLDEN["population"]


def _current(work: Path) -> dict:
    table = {f"match {g} K={K}": match_digests(g, K, work)
             for g in GAMES for K in (1, 2)}
    table["match fp_tie K=1"] = fp_tie_digests(work)
    table["match col2x1 K=1"] = single_action_digests(work)
    table["benchmark"] = benchmark_digests(work)
    table["benchmark K=3"] = benchmark_k3_digests()
    table["solve"] = solve_digests(work)
    table["regret"] = regret_digests(work)
    table["population"] = population_digests(work)
    return table


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = _current(Path(tmp))
    sys.stdout.write("GOLDEN = {\n")
    for group, digests in table.items():
        sys.stdout.write(f"    {group!r}: {{\n")
        for case, digest in digests.items():
            sys.stdout.write(f"        {case!r}:\n            {digest!r},\n")
        sys.stdout.write("    },\n")
    sys.stdout.write("}\n")
