"""Golden SHA-256 digests of the figure outputs, a 5-qubit sweep, the
counterexample search, every verification summary and the stdout of the CLI's
JSON and text commands.

Any change to these bytes is a change to the published figure data and must
be explained, never hidden by re-pinning. The CLI runs with the test's
temporary directory as the working directory and a relative ``--out``,
because the provenance block in the ``.meta.json`` sidecar echoes the path.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monolab
from monolab import cli, states, verify
from monolab.measures import Measure, MeasureKind
from monolab.states import EnsembleSpec

GOLDEN = {
    1: {
        "fig1.csv": "86d4fca2b5151a7a44082c54e563fcd2b704b524bd6a14605035a4f18af95982",
        "fig1.meta.json": "aba19bd68026b0871a74d354f877f2ceaf2507f8f385920cb567acff35af8255",
    },
    2: {
        "fig2.csv": "2c57122272d71b5e40ebf3a196dfe871512c8f1d654cb967f17e239eae1c459c",
        "fig2.meta.json": "2b4e0287bf41a3f89a51c4f035b3621c711383933ea0a386aff7c2a90b1e5267",
    },
    3: {
        "fig3.csv": "c31e8ffd155bb9904cf8987d8c7f7c7beaa55b4d9590de509bce90ef6f3ccab3",
        "fig3.meta.json": "bab3e8991a87edc2d6671e86fe8a34a2b3be71060d34fd88a8a473a303272337",
    },
}


@pytest.mark.parametrize("figure", sorted(GOLDEN))
def test_figure_outputs_match_golden_digests(figure, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["figure", str(figure), "--out", f"fig{figure}.csv"]) == cli.EXIT_OK
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN[figure]
    }
    assert digests == GOLDEN[figure]


def test_reproduce_figures_script_writes_the_golden_figures(tmp_path):
    root = Path(__file__).resolve().parents[1]
    src = str(Path(monolab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_figures.py"), "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for figure, digests in GOLDEN.items():
        csv = (tmp_path / f"figure{figure}.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == digests[f"fig{figure}.csv"]


SWEEP_ARGV = [
    "sweep", "--measure", "negativity", "--state", "random-mixed", "--dims", "2,2,2,2,2",
    "--rank", "3", "--seed", "4", "--p-grid", "0:1:11", "--r-grid", "1,2", "--out", "sweep.csv",
]
SWEEP_CSV = "b55b1b49b2aaee18805f65d46bdd2ebc859477aedf985328aaa4c16160cd56bf"


def test_five_qubit_sweep_matches_golden_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(SWEEP_ARGV) == cli.EXIT_OK
    assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == SWEEP_CSV


# the three shapes of the hill-climb benchmark, 2 restarts x 60 steps, seed 5
SEARCH = [
    (Measure.LOG_NEGATIVITY, 1.0, (2, 2, 2),
     "91862f0588b75c30506f080224a9ef3b90e01e6fec8747e1e21578adce02e808"),
    (Measure.CONCURRENCE, 2.0, (2, 2, 2),
     "3ee536d9ddb72b2cb28a92924c6f4e9eb5a6e616e35a834c930cdddcff4ef615"),
    (Measure.LOG_NEGATIVITY, 1.0, (2, 2, 2, 2),
     "0e2d1e49ea1eac3d1fb99fd9fd4c18b6af9c8b7cb6f2a0be58f3cd1f9620464d"),
]


@pytest.mark.parametrize("tag,r,dims,golden", SEARCH,
                         ids=[f"{t.value}-r{r:g}-{len(d)}q" for t, r, d, _ in SEARCH])
def test_counterexample_search_matches_golden_digest(tag, r, dims, golden):
    summary = verify.counterexample_search(MeasureKind(tag), r, dims, 2, 5, 60).to_json()
    assert hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest() == golden



# every sampled suite, both scalar audits and the probe's empty ensemble, on
# small seeded ensembles; each digest covers the whole summary (an empty
# exponent list is a ValueError, see test_verify.py)
_CONC = MeasureKind(Measure.CONCURRENCE, True)
_PURE3 = EnsembleSpec("haar_pure", (2, 2, 2), 6)
_MIXED3 = EnsembleSpec("random_mixed", (2, 2, 2), 6)
_RANK2 = EnsembleSpec("random_mixed", (2, 2, 2), 6, ranks=(2,))
_PURE4 = EnsembleSpec("haar_pure", (2, 2, 2, 2), 3)
_W3_NOISE = EnsembleSpec("named", name="w3", p_grid=(0.0, 0.5))

SUITES = {
    "lemmas": (lambda: verify.check_scalar_lemmas(1000, 3), "f13d906d0c2ae57425f286bcc5afcabfd35a881c133829314a3f0f27f4fb5618"),
    "decreasing-concave": (lambda: verify.check_decreasing_concave_family(1000, 3), "4ecd347b3ca7b22f3ca475648181d703e919ac5ff529e422af4a72210be58fc0"),
    "raising": (lambda: verify.verify_raising(_CONC, _PURE3, 2.0, (2.5, 3.0), 3), "845c22fbd76e02ef7141e3245eeb76df32b5a74f336af45ecdbbfa3ea6940c7c"),
    "raising-rank2": (lambda: verify.verify_raising(_CONC, _RANK2, 2.0, (2.5, 4.0), 3), "5338de2952864c102394273310ca04934660901c55656fce4246ec3dc46468dc"),
    "lowering": (
        lambda: verify.verify_lowering(Measure.LOG_NEGATIVITY, _MIXED3, 1.0, (0.5, 0.8), 3), "a4d27bc22eb09c0d997ebbb15b1fd30a25f6b40dc8de3d63aaa4ad7d11ae9b37"
    ),
    "lowering-w3-noise": (
        lambda: verify.verify_lowering(Measure.LOG_NEGATIVITY, _W3_NOISE, 1.0, (0.5,), 3), "e9480077b6481e37001b30bbe2716c2281d69ffc8747adca903b2ab9b5300f3a"
    ),
    "functional-pure": (lambda: verify.verify_functional_lift(_PURE3, 2.0, 3), "6eea14c0bc88124d9b9e657b255f8b1c2a5fefe4a4a7d4008defd132c87983a7"),
    "functional-rank2": (lambda: verify.verify_functional_lift(_RANK2, 2.0, 3), "9a7885f472c764d1df4059fd9cb2e138822f827ec916d60ebc6c324c78086767"),
    "functional-explicit": (
        lambda: verify.verify_functional_lift([states.ghz(3), states.w(3)], 2.0, 3), "4e730f643532c45935c6cbbcfd5355b758b90d91ae9b61f09bdeb7686883cbe4"
    ),
    "mixed": (lambda: verify.verify_mixed_lifting(Measure.NEGATIVITY, _MIXED3, 3), "003468781b306b600dc77a0b1dc56bfaab76104211ba18066106aed5eebe5f15"),
    "probe": (lambda: verify.probe_high_power_mixed((2.0, 3.0, 4.0), _MIXED3, 3), "115f4c6727235c5a2c7942ee1c123e8258175429bd541dbb0478bc2952ad4302"),
    "probe-empty-ensemble": (lambda: verify.probe_high_power_mixed((2.0, 3.0), [], 3), "90f2d018320bb45c1d292dc7d9bc22698c2fe1840753b5d5315f466fcc6232cc"),
    "strong": (lambda: verify.verify_strong_chain(_CONC, _PURE4, 2.0, 3), "51792d1d7487bad00917b0b1bb649d0c98fc4a8372d05a62a675399aeb0fbd00"),
    "hierarchy": (lambda: verify.verify_hierarchy_chain(_CONC, _PURE4, 2.0, 3), "8cc6c5dc521140193975acfb65352d29589fb58fce51aa401d7d6ea005add7a1"),
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_verification_summaries_match_golden_digests(name):
    run, golden = SUITES[name]
    summary = run().to_json()
    assert hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest() == golden


# stdout of each command that writes through the CLI's provenance wrapper:
# every verify tag on a tiny ensemble, a JSON sweep, rstar as text and JSON,
# and a random state export
CLI_STDOUT = {
    "verify-lemmas": (("verify", "lemmas", "--samples", "200", "--seed", "3"),
                      "ed984e89505a1aff705050c2233e86b94228a540edc1a8e88e62704c15824b21"),
    "verify-raising": (("verify", "raising", "--measure", "concurrence", "--normalized", "--r", "2",
                        "--alpha", "2.5,3", "--count", "3", "--seed", "3"),
                       "09a08d73eddc7cb3258410b09f4bb70759a381c89bf39b70c347b2c8690d0223"),
    "verify-lowering": (("verify", "lowering", "--state", "w3", "--p-grid", "0,0.5", "--alpha", "0.5"),
                        "abde04510ca0db1acdff74a835a79f222cebfe4aa7fca67baaf8b782fd959241"),
    "verify-functional": (("verify", "functional", "--state", "random-mixed", "--rank", "2",
                           "--count", "3", "--seed", "3"),
                          "db0e5849511b061c2f344c96f11d6633b108a272e475d4dba69088ff6ddc4c95"),
    "verify-mixed": (("verify", "mixed", "--count", "3", "--seed", "3"),
                     "a90cbce34ebc99eca74b03fb9654a4edec045b0b638bb08cb3ea70c82dcbc1ed"),
    "verify-strong": (("verify", "strong", "--dims", "2,2,2,2", "--focus", "1", "--count", "2",
                       "--seed", "3"),
                      "55f748903c55328f18ba9f7d48dc511dcae816449b87360fbbdf7333960ba150"),
    "verify-hierarchy": (("verify", "hierarchy", "--alpha", "2", "--count", "3", "--seed", "3"),
                         "35cfdb1897a4a9dfe373ec8f43258817fb5b8d34229ad4348a10205cbbf0538b"),
    "verify-probe-high-power": (("verify", "probe-high-power", "--r-grid", "2,3", "--rank", "2",
                                 "--count", "3", "--seed", "3"),
                                "a89c1fed1c1cb685dede44185be7266765f8c3040063b26738f6d95fb0343905"),
    "verify-search": (("verify", "search", "--dims", "2,2,2", "--count", "1", "--seed", "3"),
                      "36828b2104ff4ff1e22ce94d78cb84ac2daba3da1e5ffad46087a89994b0060a"),
    "sweep-json": (("sweep", "--measure", "negativity", "--state", "w3", "--p-grid", "0:1:3",
                    "--r-grid", "1,2", "--format", "json"),
                   "872cc94e48aaee5f22dac7a6fcbb9e4b619e12e583501bf3e6d7dae8d56b0c95"),
    "rstar-text": (("rstar", "--measure", "lognegativity", "--state", "w3", "--bracket", "1,2"),
                   "2482c09b0db54a8bcb0caf7a24460dde5ef940b14e0d7c138673f0aad6dfb990"),
    "rstar-json": (("rstar", "--measure", "lognegativity", "--state", "w3", "--bracket", "1,2",
                    "--tol", "1e-3", "--format", "json"),
                   "8295ebd693658133157092eb7feeb46c7d93cf3b892819c83cf42a07fcba83f4"),
    "state-export": (("state-export", "--state", "random-mixed", "--rank", "2", "--seed", "3"),
                     "345f6139ae4238b2c87d0a00e312e984e7b04540523fb7716f07c845008c14fb"),
}


@pytest.mark.parametrize("name", sorted(CLI_STDOUT))
def test_cli_stdout_matches_golden_digests(name, capsys):
    argv, golden = CLI_STDOUT[name]
    assert cli.main(list(argv)) == cli.EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == golden
