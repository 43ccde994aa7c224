"""Golden SHA-256 digests of the figure outputs, a 5-qubit sweep and the
counterexample search.

Any change to these bytes is a change to the published figure data and must
be explained, never hidden by re-pinning. The CLI runs with the test's
temporary directory as the working directory and a relative ``--out``,
because the provenance block in the ``.meta.json`` sidecar echoes the path.
"""

import hashlib
import json

import pytest

from monolab import cli, verify
from monolab.measures import Measure, MeasureKind

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
     "94186ed8db51cca21550eaaa67cf4d823da60ade5ee543114f64ea5dff8682ff"),
    (Measure.CONCURRENCE, 2.0, (2, 2, 2),
     "51eefdec18817594c092e9c3412c62a8a66cafa58b2e92149e837410cf6a4b9f"),
    (Measure.LOG_NEGATIVITY, 1.0, (2, 2, 2, 2),
     "42621f8cff51a60002bd71d814157039dd58c39fdf888628df0fd1f8c7662d86"),
]


@pytest.mark.parametrize("tag,r,dims,golden", SEARCH,
                         ids=[f"{t.value}-r{r:g}-{len(d)}q" for t, r, d, _ in SEARCH])
def test_counterexample_search_matches_golden_digest(tag, r, dims, golden):
    summary = verify.counterexample_search(MeasureKind(tag), r, dims, 2, 5, 60).to_json()
    assert hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest() == golden
