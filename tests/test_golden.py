"""Golden SHA-256 digests of the figure outputs, 5- and 6-qubit sweeps, the
counterexample search, every verification summary and the stdout of the CLI's
JSON and text commands.

Any change to these bytes is a change to the published figure data and must
be explained, never hidden by re-pinning. The CLI runs with the test's
temporary directory as the working directory and a relative ``--out``,
because the provenance block in the ``.meta.json`` sidecar echoes the path.
"""

import hashlib
import json

import pytest

from monolab import cli, states, verify
from monolab.measures import Measure, MeasureKind
from monolab.states import EnsembleSpec

GOLDEN = {
    1: {
        "fig1.csv": "86d4fca2b5151a7a44082c54e563fcd2b704b524bd6a14605035a4f18af95982",
        "fig1.meta.json": "aba19bd68026b0871a74d354f877f2ceaf2507f8f385920cb567acff35af8255",
    },
    2: {
        "fig2.csv": "7d990eaba1c8371159b76cd39e4e91d255e7b015bba5a020feb6f23288548373",
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


def test_figure_all_writes_the_golden_figures_as_figure_n_does(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["figure", "all", "--out", "figs"]) == cli.EXIT_OK
    written = {p.name: p.read_bytes() for p in (tmp_path / "figs").iterdir()}
    assert len(written) == 6
    for figure, digests in GOLDEN.items():
        csv = written[f"figure{figure}.csv"]
        assert hashlib.sha256(csv).hexdigest() == digests[f"fig{figure}.csv"]
        # the sidecar echoes the path, so figure N rewrites the same one
        assert cli.main(["figure", str(figure), "--out", f"figs/figure{figure}.csv"]) == cli.EXIT_OK
    assert {p.name: p.read_bytes() for p in (tmp_path / "figs").iterdir()} == written


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
     "4cde8879f6c39cd41b17d9495a168ba5ed51b6fa25e7813c370be7591baea525"),
    (Measure.CONCURRENCE, 2.0, (2, 2, 2),
     "1c60ac3be09329071b07161b9e219ff5c087f75559baeb11957af484a56240c4"),
    (Measure.LOG_NEGATIVITY, 1.0, (2, 2, 2, 2),
     "0ac144ddfcc21c1674c802dade2fe70bdce03e5f7652b33cdc9c09d0699f4a0b"),
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
    "raising": (lambda: verify.verify_raising(_CONC, _PURE3, 2.0, (2.5, 3.0), 3), "7f4a6145536ab42d87e54d23204d8bfc9f657d7bdac0367563e6407f2ff1a711"),
    "raising-rank2": (lambda: verify.verify_raising(_CONC, _RANK2, 2.0, (2.5, 4.0), 3), "5644d59a5d880d071dbf8c80d93bc46cdbafccde94da6610beb3e5621313153a"),
    "lowering": (
        lambda: verify.verify_lowering(Measure.LOG_NEGATIVITY, _MIXED3, 1.0, (0.5, 0.8), 3), "a4d27bc22eb09c0d997ebbb15b1fd30a25f6b40dc8de3d63aaa4ad7d11ae9b37"
    ),
    "lowering-w3-noise": (
        lambda: verify.verify_lowering(Measure.LOG_NEGATIVITY, _W3_NOISE, 1.0, (0.5,), 3), "e9480077b6481e37001b30bbe2716c2281d69ffc8747adca903b2ab9b5300f3a"
    ),
    "functional-pure": (lambda: verify.verify_functional_lift(_PURE3, 2.0, 3), "0c14f1369e5a543cdd4b0f547c9140a49c64c61e92333fa034c574cd94a2ffbd"),
    "functional-rank2": (lambda: verify.verify_functional_lift(_RANK2, 2.0, 3), "9a7885f472c764d1df4059fd9cb2e138822f827ec916d60ebc6c324c78086767"),
    "functional-explicit": (
        lambda: verify.verify_functional_lift([states.ghz(3), states.w(3)], 2.0, 3), "4e730f643532c45935c6cbbcfd5355b758b90d91ae9b61f09bdeb7686883cbe4"
    ),
    "mixed": (lambda: verify.verify_mixed_lifting(Measure.NEGATIVITY, _MIXED3, 3), "003468781b306b600dc77a0b1dc56bfaab76104211ba18066106aed5eebe5f15"),
    "probe": (lambda: verify.probe_high_power_mixed((2.0, 3.0, 4.0), _MIXED3, 3), "115f4c6727235c5a2c7942ee1c123e8258175429bd541dbb0478bc2952ad4302"),
    "probe-empty-ensemble": (lambda: verify.probe_high_power_mixed((2.0, 3.0), [], 3), "90f2d018320bb45c1d292dc7d9bc22698c2fe1840753b5d5315f466fcc6232cc"),
    "strong": (lambda: verify.verify_strong_chain(_CONC, _PURE4, 2.0, 3), "c5a3d4d8e04e1174567b1ebea19a721f1bac6f3b97b232aec0d8ab4c7983fec4"),
    "hierarchy": (lambda: verify.verify_hierarchy_chain(_CONC, _PURE4, 2.0, 3), "19534adf65dc9c63363d3b7ed5f7127ba34994cd0a6c992bd23ccad565607f5c"),
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_verification_summaries_match_golden_digests(name):
    run, golden = SUITES[name]
    summary = run().to_json()
    assert hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest() == golden


# stdout of each command that writes through the CLI's provenance wrapper:
# every verify tag on a tiny ensemble, a JSON sweep, two 6-qubit sweeps,
# rstar as text and JSON, and a random state export
CLI_STDOUT = {
    "verify-lemmas": (("verify", "lemmas", "--samples", "200", "--seed", "3"),
                      "ed984e89505a1aff705050c2233e86b94228a540edc1a8e88e62704c15824b21"),
    "verify-raising": (("verify", "raising", "--measure", "concurrence", "--normalized", "--r", "2",
                        "--alpha", "2.5,3", "--count", "3", "--seed", "3"),
                       "fcbbc23c8d00bfb002ab35653b9b959c3dca3776d59452c48a3a2f8c59fe1985"),
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
                         "ce1904b95b1a27c37b6dda2195991fb8d5a5d77c7366188c43cea5154f90a6ad"),
    "verify-probe-high-power": (("verify", "probe-high-power", "--r-grid", "2,3", "--rank", "2",
                                 "--count", "3", "--seed", "3"),
                                "a89c1fed1c1cb685dede44185be7266765f8c3040063b26738f6d95fb0343905"),
    "verify-search": (("verify", "search", "--dims", "2,2,2", "--count", "1", "--seed", "3"),
                      "cf09177af9ca5796cf1d0ad421589316876caf81f5b5d9d7503152a5ceffacad"),
    "sweep-json": (("sweep", "--measure", "negativity", "--state", "w3", "--p-grid", "0:1:3",
                    "--r-grid", "1,2", "--format", "json"),
                   "ad1fc906379a59fdb0400cf737f541ac781e5bcb1194fa48d84ae5706bbc3f8a"),
    # 6 qubits: a real 64x64 matrix path (w6) and a complex one (rank 17)
    "sweep-w6-csv": (("sweep", "--measure", "negativity", "--state", "w6", "--p-grid", "0:1:5",
                      "--r-grid", "1,2"),
                     "3e999d28a4518fa668bf884ed9e7bfeae09bbdeed63a9b12c7403a9a652af728"),
    "sweep-random-mixed-6q-json": (("sweep", "--measure", "lognegativity", "--state", "random-mixed",
                                    "--dims", "2,2,2,2,2,2", "--rank", "17", "--seed", "5",
                                    "--p-grid", "0:1:5", "--r-grid", "1,2", "--format", "json"),
                                   "935033063cd6218466307472936ad708266f36de1f6dfc2efc7e237e84bf679c"),
    "rstar-text": (("rstar", "--measure", "lognegativity", "--state", "w3", "--bracket", "1,2"),
                   "8bb04561dfe63f0a71b172873e614261eb9a1ac27598ac20cd0bd757ce8ea24d"),
    "rstar-json": (("rstar", "--measure", "lognegativity", "--state", "w3", "--bracket", "1,2",
                    "--tol", "1e-3", "--format", "json"),
                   "d26611f38508d212f89c438298e829adaf2bd106500f72c9764b405c85942993"),
    "state-export": (("state-export", "--state", "random-mixed", "--rank", "2", "--seed", "3"),
                     "345f6139ae4238b2c87d0a00e312e984e7b04540523fb7716f07c845008c14fb"),
}


@pytest.mark.parametrize("name", sorted(CLI_STDOUT))
def test_cli_stdout_matches_golden_digests(name, capsys):
    argv, golden = CLI_STDOUT[name]
    assert cli.main(list(argv)) == cli.EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == golden
