import csv
import json
import math

import numpy as np
import pytest

from monolab import cli, states
from monolab.cli import EXIT_BRACKET, EXIT_CONFIG, EXIT_MEASURE, EXIT_OK


def run(*args):
    return cli.main(list(args))


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_row_arithmetic(rows):
    for row in rows:
        parts = [float(v) for k, v in row.items() if k.startswith("part_")]
        whole = float(row["whole"])
        delta = float(row["delta"])
        assert whole >= -1e-12
        assert all(p >= -1e-12 for p in parts)
        assert abs(delta - (whole - sum(parts))) <= 1e-12


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_ghz_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(
        "sweep", "--measure", "negativity", "--state", "ghz3",
        "--p-grid", "0:1:11", "--r-grid", "1,2", "--out", str(out),
    )
    assert code == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 22
    assert list(rows[0]) == ["p", "r", "measure", "whole", "part_1", "part_2", "delta"]
    check_row_arithmetic(rows)
    first = rows[0]
    assert abs(float(first["delta"]) - 0.5) < 1e-9  # p = 0, r = 1
    assert all(float(r["delta"]) >= -1e-9 for r in rows)


def test_sweep_single_point(tmp_path):
    out = tmp_path / "one.csv"
    assert run(
        "sweep", "--measure", "negativity", "--state", "ghz3",
        "--p-grid", "0", "--r-grid", "1", "--out", str(out),
    ) == EXIT_OK
    assert len(read_rows(out)) == 1


def test_sweep_w3_lognegativity_nonmonogamous_row(tmp_path):
    out = tmp_path / "w.csv"
    assert run(
        "sweep", "--measure", "lognegativity", "--state", "w3",
        "--p-grid", "0", "--r-grid", "1", "--out", str(out),
    ) == EXIT_OK
    row = read_rows(out)[0]
    assert float(row["delta"]) < 0.0


def test_sweep_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "sweep", "--measure", "negativity", "--state", "w3", "--seed", "3",
        "--p-grid", "0:1:6", "--r-grid", "1,2",
    ]
    assert run(*args, "--out", str(a)) == EXIT_OK
    assert run(*args, "--out", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_sweep_json_format_has_provenance(tmp_path):
    out = tmp_path / "sweep.json"
    assert run(
        "sweep", "--measure", "negativity", "--state", "ghz3",
        "--p-grid", "0,0.5", "--r-grid", "1", "--format", "json", "--out", str(out),
    ) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["provenance"]["artifact"] == "monolab"
    assert payload["provenance"]["config"]["seed"] == 0
    assert len(payload["rows"]) == 2


def test_sweep_config_errors(tmp_path):
    # unsorted grid
    assert run(
        "sweep", "--measure", "negativity", "--state", "ghz3",
        "--p-grid", "1,0", "--r-grid", "1",
    ) == EXIT_CONFIG
    # both state sources
    f = tmp_path / "s.json"
    states.save_state(states.ghz(3), f)
    assert run(
        "sweep", "--measure", "negativity", "--state", "ghz3",
        "--state-file", str(f), "--p-grid", "0", "--r-grid", "1",
    ) == EXIT_CONFIG
    # no state source
    assert run(
        "sweep", "--measure", "negativity", "--p-grid", "0", "--r-grid", "1",
    ) == EXIT_CONFIG
    # unknown measure
    assert run(
        "sweep", "--measure", "tangle", "--state", "ghz3",
        "--p-grid", "0", "--r-grid", "1",
    ) == EXIT_CONFIG


SWEEP_W3 = ("sweep", "--measure", "negativity", "--state", "w3")
RSTAR_W3 = ("rstar", "--measure", "lognegativity", "--state", "w3")


@pytest.mark.parametrize(
    "argv",
    [
        (*SWEEP_W3, "--p-grid", "0", "--r-grid", "nan"),
        (*SWEEP_W3, "--p-grid", "0", "--r-grid", "1,inf"),
        (*SWEEP_W3, "--p-grid", "0:nan:3", "--r-grid", "1"),
        (*RSTAR_W3, "--bracket", "1,inf"),
        (*RSTAR_W3, "--bracket", "1,2", "--tol", "nan"),
        (*RSTAR_W3, "--bracket", "1,2", "--tol", "inf"),
        (*RSTAR_W3, "--bracket", "1,2", "--tol", "0"),
        ("verify", "raising", "--state", "w3", "--r", "1", "--alpha", "2,nan"),
        ("verify", "raising", "--state", "w3", "--r", "nan"),
        ("verify", "raising", "--count", "0"),
        ("verify", "lemmas", "--samples", "0"),
        ("sweep", "--measure", "negativity", "--state", "random-mixed", "--rank", "0",
         "--p-grid", "0", "--r-grid", "1"),
        ("verify", "raising", "--state", "w3", "--r", "1", "--alpha", ","),
        # an empty value reaches its parser instead of falling back to the default
        ("verify", "functional", "--alpha=", "--count", "2"),
        ("verify", "search", "--dims=", "--count", "1"),
        ("verify", "search", "--count", "1", "--p-grid="),
        # --format only where it is read, and no seed for the figures
        ("verify", "lemmas", "--samples", "10", "--format", "csv"),
        ("state-export", "--state", "ghz3", "--format", "csv"),
        (*RSTAR_W3, "--bracket", "1,2", "--format", "csv"),  # rstar writes text or JSON
        ("figure", "1", "--seed", "7"),
        # figures 1-2 read --p-grid only, figure 3 --r-grid only
        ("figure", "1", "--r-grid", "nan"),
        ("figure", "2", "--r-grid", "1,2,3"),
        ("figure", "3", "--p-grid", "0.5"),
    ],
)
def test_config_rejects_non_finite_and_zero_values(argv, tmp_path):
    # config errors: no NaN output and no substituted default
    assert run(*argv, "--out", str(tmp_path / "out")) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "search", "--dims", "2,2,,2", "--count", "1"),
        ("verify", "search", "--dims", "2,,2", "--count", "1"),
        ("verify", "search", "--dims", "2,2,2,", "--count", "1"),
        (*SWEEP_W3, "--p-grid", "0,,1", "--r-grid", "1"),
        (*SWEEP_W3, "--p-grid", "0", "--r-grid", "1,"),
        ("verify", "raising", "--state", "w3", "--r", "1", "--alpha", ",2"),
    ],
)
def test_a_comma_list_with_an_empty_item_is_a_config_error(argv, tmp_path, capsys):
    # an empty item is not skipped: the list as written is what runs
    assert run(*argv, "--out", str(tmp_path / "out")) == EXIT_CONFIG
    assert "cannot parse" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        (*SWEEP_W3, "--focus", "7", "--p-grid", "0", "--r-grid", "1"),
        (*SWEEP_W3, "--p-grid", "1.5", "--r-grid", "1"),
    ],
)
def test_library_value_errors_exit_2(argv, capsys):
    assert run(*argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


QUTRITS = ("--measure", "lognegativity", "--state", "random-pure", "--dims", "3,3,3")


@pytest.mark.parametrize(
    "argv",
    [
        # qutrit log-negativity reaches 1.47 here: a power of 2000 leaves the float range
        ("sweep", *QUTRITS, "--p-grid", "0", "--r-grid", "2000"),
        ("rstar", *QUTRITS, "--bracket", "1,2000"),
        ("verify", "strong", *QUTRITS, "--alpha", "3000", "--count", "1"),
    ],
)
def test_an_overflowing_power_exits_2(argv, tmp_path, capsys):
    assert run(*argv, "--out", str(tmp_path / "out")) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflows a float" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("state-export", "--state", "w3"),
        (*SWEEP_W3, "--p-grid", "0", "--r-grid", "1"),
    ],
)
def test_out_in_missing_directory_exits_2(argv, tmp_path, capsys):
    assert run(*argv, "--out", str(tmp_path / "missing-dir" / "x.out")) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: cannot write ")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "raising", "--state", "w3", "--dims", "2,2,2,2", "--count", "3"),
        ("verify", "raising", "--rank", "2", "--count", "2"),
        ("verify", "mixed", "--state", "classical", "--rank", "2"),
        (*SWEEP_W3, "--dims", "2,2,2", "--p-grid", "0", "--r-grid", "1"),
        ("sweep", "--measure", "negativity", "--state", "random-pure", "--rank", "2",
         "--p-grid", "0", "--r-grid", "1"),
        ("state-export", "--state-file", "w3.json", "--dims", "2,2,2"),
        ("state-export", "--state-file", "w3.json", "--rank", "2"),
    ],
)
def test_dims_and_rank_rejected_where_ignored(argv, tmp_path, capsys):
    """--dims goes with random-pure and random-mixed, --rank with random-mixed."""
    states.save_state(states.w(3), tmp_path / "w3.json")
    argv = [str(tmp_path / a) if a == "w3.json" else a for a in argv]
    assert run(*argv, "--out", str(tmp_path / "out")) == EXIT_CONFIG
    assert "applies to random-" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("state", ["w3", "ghz4", "classical"])
def test_count_rejected_for_a_named_state(state, tmp_path, capsys):
    """A named ensemble holds one state, so --count would be ignored."""
    out = tmp_path / "out"
    assert run("verify", "raising", "--measure", "concurrence", "--state", state,
               "--count", "5", "--out", str(out)) == EXIT_CONFIG
    assert f"--count applies to random-pure or random-mixed only, not {state}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_measure_undefined_exit(tmp_path):
    # mixed EoF on the 2x4 whole cut has no exact expression
    assert run(
        "sweep", "--measure", "eof", "--state", "ghz3",
        "--p-grid", "0.5", "--r-grid", "1", "--out", str(tmp_path / "x.csv"),
    ) == EXIT_MEASURE


# ---------------------------------------------------------------------------
# rstar
# ---------------------------------------------------------------------------

def test_rstar_w3_text_and_json(tmp_path):
    out = tmp_path / "r.json"
    code = run(
        "rstar", "--measure", "lognegativity", "--state", "w3",
        "--bracket", "1,2", "--tol", "1e-4", "--format", "json", "--out", str(out),
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert 1.05 <= payload["r_star"] <= 1.07
    assert payload["score_lo"] < 0.0 < payload["score_hi"]
    assert len(payload["trace"]) >= 10  # bisection trace included

    txt = tmp_path / "r.txt"
    assert run(
        "rstar", "--measure", "lognegativity", "--state", "w3",
        "--bracket", "1,2", "--out", str(txt),
    ) == EXIT_OK
    assert txt.read_text().startswith("r_star = 1.05")


def test_rstar_unbracketed_exit_code():
    assert run(
        "rstar", "--measure", "negativity", "--state", "ghz3", "--bracket", "1,2",
    ) == EXIT_BRACKET


def test_rstar_from_state_file_matches_closed_form(tmp_path):
    f = tmp_path / "w3.json"
    states.save_state(states.w(3), f)
    out = tmp_path / "r.json"
    assert run(
        "rstar", "--measure", "lognegativity", "--state-file", str(f),
        "--bracket", "1,2", "--tol", "1e-5", "--format", "json", "--out", str(out),
    ) == EXIT_OK
    ln_whole = math.log2(1.0 + 2.0 * math.sqrt(2.0) / 3.0)
    ln_pair = math.log2((2.0 + math.sqrt(5.0)) / 3.0)
    expected = math.log(2.0) / math.log(ln_whole / ln_pair)
    assert abs(json.loads(out.read_text())["r_star"] - expected) <= 1e-5


def test_rstar_bad_bracket():
    assert run(
        "rstar", "--measure", "negativity", "--state", "w3", "--bracket", "2,1",
    ) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_lemmas(tmp_path):
    out = tmp_path / "lemmas.json"
    assert run("verify", "lemmas", "--samples", "20000", "--out", str(out)) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["summary"]["violations"] == 0
    assert payload["provenance"]["config"]["fmt"] == "json"  # summaries are always JSON


def test_verify_raising_w3_vacuous(tmp_path):
    out = tmp_path / "raise.json"
    code = run(
        "verify", "raising", "--measure", "lognegativity", "--state", "w3",
        "--r", "1", "--alpha", "1.5,2", "--out", str(out),
    )
    assert code == EXIT_OK
    summary = json.loads(out.read_text())["summary"]
    assert summary["skipped"] == 1
    assert summary["violations"] == 0


def test_verify_strong_random_pure(tmp_path):
    out = tmp_path / "strong.json"
    code = run(
        "verify", "strong", "--state", "random-pure", "--dims", "2,2,2,2",
        "--measure", "concurrence", "--normalized", "--alpha", "2",
        "--count", "25", "--out", str(out),
    )
    assert code == EXIT_OK
    summary = json.loads(out.read_text())["summary"]
    assert summary["count"] == 25 and summary["violations"] == 0


def test_verify_mixed_and_probe(tmp_path):
    out = tmp_path / "mixed.json"
    assert run(
        "verify", "mixed", "--dims", "2,2,2", "--count", "30", "--out", str(out),
    ) == EXIT_OK
    assert json.loads(out.read_text())["summary"]["violations"] == 0
    out2 = tmp_path / "probe.json"
    assert run(
        "verify", "probe-high-power", "--dims", "2,2,2", "--count", "20",
        "--r-grid", "2,3,4", "--out", str(out2),
    ) == EXIT_OK


def test_verify_search_exit_zero_even_with_witness(tmp_path):
    out = tmp_path / "search.json"
    assert run(
        "verify", "search", "--measure", "lognegativity", "--r", "1",
        "--dims", "2,2,2", "--count", "4", "--out", str(out),
    ) == EXIT_OK
    summary = json.loads(out.read_text())["summary"]
    assert summary["worst_margin"] < 0.0  # witness found, still exit 0


def test_verify_lowering_harvest_roundtrip(tmp_path):
    out = tmp_path / "lower.json"
    assert run(
        "verify", "lowering", "--measure", "lognegativity", "--state", "w3",
        "--r", "1", "--alpha", "0.5,0.8", "--out", str(out),
    ) == EXIT_OK
    summary = json.loads(out.read_text())["summary"]
    assert summary["violations"] == 0 and summary["skipped"] == 0


def test_verify_probe_honours_measure(tmp_path):
    out = tmp_path / "probe.json"
    assert run(
        "verify", "probe-high-power", "--measure", "lognegativity", "--dims", "2,2,2",
        "--count", "3", "--out", str(out),
    ) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["provenance"]["config"]["measure"] == "lognegativity"
    assert payload["summary"]["extra"]["measure"] == "lognegativity"


@pytest.mark.parametrize(
    "args,measure",
    [
        (("mixed",), "negativity"),
        (("raising", "--measure", "concurrence"), "concurrence"),
    ],
    ids=["mixed", "raising-concurrence"],
)
def test_verify_reports_the_normalisation_that_ran(tmp_path, args, measure):
    """Both suites coerce the measure to its normalized variant, whatever
    --normalized says."""
    out = tmp_path / "suite.json"
    assert run("verify", *args, "--count", "2", "--out", str(out)) == EXIT_OK
    extra = json.loads(out.read_text())["summary"]["extra"]
    assert (extra["measure"], extra["normalized"]) == (measure, True)


def test_search_reports_the_normalisation_that_ran(tmp_path):
    """The search runs the measure as given, so --normalized changes both
    its margin (2x for negativity) and what its extra records."""
    got = {}
    for flag in ((), ("--normalized",)):
        out = tmp_path / "search.json"
        assert run("verify", "search", "--measure", "negativity", "--r", "1", "--dims", "2,2,2",
                   "--count", "1", *flag, "--out", str(out)) == EXIT_OK
        summary = json.loads(out.read_text())["summary"]
        got[bool(flag)] = summary["worst_margin"], summary["extra"]
    assert got[False][1]["normalized"] is False and got[True][1]["normalized"] is True
    assert got[False][1]["measure"] == got[True][1]["measure"] == "negativity"
    assert abs(got[True][0] - 2.0 * got[False][0]) < 1e-12


def test_verify_mixed_default_ensemble_honours_rank(tmp_path):
    out = tmp_path / "mixed.json"
    assert run("verify", "mixed", "--rank", "2", "--count", "3", "--out", str(out)) == EXIT_OK
    assert json.loads(out.read_text())["summary"]["ensemble"]["ranks"] == [2]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "functional", "--measure", "negativity"),
        ("verify", "lemmas", "--r", "2"),
        ("verify", "search", "--p-grid", "0,0.5"),
        ("verify", "raising", "--r-grid", "2,3"),
        ("verify", "probe-high-power", "--alpha", "2"),
        ("verify", "lemmas", "--normalized"),
        ("verify", "functional", "--normalized"),
        # only strong and hierarchy take a focus; the other suites score focus 0
        *[("verify", tag, "--focus", "2", "--count", "1") for tag in (
            "raising", "lowering", "functional", "mixed", "probe-high-power", "search")],
        ("verify", "lemmas", "--samples", "10", "--count", "5"),
        ("verify", "raising", "--count", "1", "--samples", "5"),
        ("verify", "search", "--count", "1", "--samples", "5"),
        ("verify", "lemmas", "--samples", "10", "--state", "w3"),
        ("verify", "lemmas", "--samples", "10", "--dims", "2,2,2"),
        ("verify", "lemmas", "--samples", "10", "--rank", "2"),
        ("verify", "lemmas", "--samples", "10", "--state-file", "w3.json"),
        ("verify", "search", "--count", "1", "--state", "w3"),
        ("verify", "search", "--count", "1", "--rank", "2"),
        ("verify", "search", "--count", "1", "--state-file", "w3.json"),
        ("verify", "raising", "--count", "1", "--state-file", "w3.json"),
        # a flag set to its RunConfig default is still a flag the suite does not read
        ("verify", "raising", "--focus", "0", "--count", "1"),
        ("verify", "lemmas", "--samples", "10", "--count", "100"),
        ("state-export", "--state", "w3", "--focus", "2"),
    ],
)
def test_verify_flag_the_suite_does_not_read_exits_2(argv, capsys):
    assert run(*argv) == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        # --r would abbreviate --rank on commands without --r
        (("state-export", "--state", "random-mixed", "--dims", "2,2", "--r", "2"),
         "unrecognized arguments: --r 2"),
        (("rstar", "--measure", "negativity", "--state", "random-mixed", "--r", "2",
          "--bracket", "1,3"), "unrecognized arguments: --r 2"),
        (("sweep", "--meas", "negativity", "--state", "w3", "--p-grid", "0", "--r-grid", "1"),
         "the following arguments are required: --measure"),
        (("sweep", "--measure", "negativity", "--state", "w3", "--p-grid", "0",
          "--r-grid", "1", "--foc", "1"), "unrecognized arguments: --foc 1"),
        (("figure", "3", "--r-g", "1,2"), "unrecognized arguments: --r-g 1,2"),
        (("--vers",), "the following arguments are required: command"),
    ],
)
def test_abbreviated_flags_exit_2(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # figure writes to the working directory
    assert run(*argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("tag", ["functional", "strong", "hierarchy"])
def test_verify_single_exponent_tags_reject_several_alpha(tag, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run("verify", tag, "--alpha", "2,3", "--count", "2", "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("name,dims", [("w4", [2, 2, 2, 2]), ("ghz5", [2] * 5),
                                       ("classical", [2, 2, 2])])
def test_verify_named_ensemble_records_the_state_dims(name, dims, tmp_path):
    out = tmp_path / "out.json"
    assert run("verify", "raising", "--state", name, "--out", str(out)) == EXIT_OK
    assert json.loads(out.read_text())["summary"]["ensemble"]["dims"] == dims


def test_verify_unknown_theorem_is_parse_error():
    assert run("verify", "bogus") == EXIT_CONFIG


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------

def test_figure_1(tmp_path):
    out = tmp_path / "fig1.csv"
    assert run("figure", "1", "--out", str(out)) == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 51 * 2 * 2  # p-grid x {neg, logneg} x {r=1, r=2}
    check_row_arithmetic(rows)
    assert all(float(r["delta"]) >= -1e-9 for r in rows)
    meta = json.loads((tmp_path / "fig1.meta.json").read_text())
    assert meta["conventions"]["negativity_normalized"] is False
    assert meta["conventions"]["log_base"] == 2


def test_figure_2_w_state(tmp_path):
    out = tmp_path / "fig2.csv"
    assert run("figure", "2", "--out", str(out)) == EXIT_OK
    rows = read_rows(out)
    neg = [r for r in rows if r["measure"] == "negativity"]
    logneg = [r for r in rows if r["measure"] == "lognegativity"]
    assert all(float(r["delta"]) >= -1e-9 for r in neg)
    start = [r for r in logneg if float(r["p"]) == 0.0 and float(r["r"]) == 1.0]
    assert float(start[0]["delta"]) < 0.0
    at_two = [r for r in logneg if float(r["r"]) == 2.0]
    assert all(float(r["delta"]) >= -1e-9 for r in at_two)
    # p = 1 is the maximally mixed state: scores vanish for both measures
    end_rows = [r for r in rows if float(r["p"]) == 1.0]
    assert all(float(r["delta"]) == 0.0 for r in end_rows)


def test_figure_3_crossing(tmp_path):
    out = tmp_path / "fig3.csv"
    assert run("figure", "3", "--out", str(out)) == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 101
    signs = [(float(r["r"]), float(r["delta"])) for r in rows]
    crossings = [
        (lo[0], hi[0]) for lo, hi in zip(signs, signs[1:]) if lo[1] < 0.0 <= hi[1]
    ]
    assert len(crossings) == 1
    assert 1.05 <= crossings[0][0] and crossings[0][1] <= 1.07


def test_figure_unknown_id_exit_2():
    assert run("figure", "7") == EXIT_CONFIG


# ---------------------------------------------------------------------------
# state-export
# ---------------------------------------------------------------------------

def test_state_export_roundtrip(tmp_path):
    out = tmp_path / "ghz3.json"
    assert run("state-export", "--state", "ghz3", "--out", str(out)) == EXIT_OK
    loaded = states.load_state(out)
    assert loaded.dims == (2, 2, 2)
    # exported file feeds back into other commands
    assert run(
        "sweep", "--measure", "negativity", "--state-file", str(out),
        "--p-grid", "0", "--r-grid", "1", "--out", str(tmp_path / "s.csv"),
    ) == EXIT_OK


def test_state_export_random_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(
            "state-export", "--state", "random-mixed", "--dims", "2,2",
            "--rank", "2", "--seed", "9", "--out", str(path),
        ) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_sweep_scores_a_state_within_the_hermiticity_rule(tmp_path):
    # the defect is 9e-11; the (0, 1) marginal sums two of them, 1.8e-10,
    # but a matrix derived from a checked state is not checked again
    rho = np.eye(8, dtype=complex) / 8
    for k in (0, 1):
        rho[k, 2 + k] = rho[2 + k, k] = 4.5e-11j
    path = tmp_path / "edge.json"
    states.save_state(states.MultipartiteState(rho, (2, 2, 2)), path)
    assert run(
        "sweep", "--measure", "negativity", "--state-file", str(path),
        "--p-grid", "0", "--r-grid", "1", "--out", str(tmp_path / "s.csv"),
    ) == EXIT_OK


@pytest.mark.parametrize("argv", [
    ("verify", "raising", "--count", "1"),
    ("state-export", "--state", "random-pure"),
])
def test_a_negative_seed_exits_2_with_its_own_message(argv, capsys):
    assert run(*argv, "--seed", "-1") == EXIT_CONFIG
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("defect", ["nan-entry", "null-rho-im"])
@pytest.mark.parametrize(
    "argv",
    [("sweep", "--measure", "negativity", "--p-grid", "0", "--r-grid", "1"), ("state-export",)],
    ids=["sweep", "state-export"],
)
def test_non_finite_state_file_exits_2(defect, argv, tmp_path, capsys):
    """A NaN entry or a null rho_im fails the Hermiticity check, before any
    eigensolve, whose handling of NaN depends on the LAPACK build; otherwise
    a sweep can print a row of zeros and state-export write NaN, which is
    not JSON."""
    obj = states.state_to_json(states.classical_corr_state())
    if defect == "nan-entry":
        obj["rho_re"][0][0] = math.nan
    else:
        obj["rho_im"] = None
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    assert run(*argv, "--state-file", str(path), "--out", str(tmp_path / "out")) == EXIT_CONFIG
    assert "not Hermitian" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text",
    ['{"dims": 3, "rho_re": [[1.0]], "rho_im": [[0.0]]}', "[1, 2]"],
    ids=["integer-dims", "top-level-array"],
)
def test_malformed_state_file_exits_2(text, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(text)
    assert run("state-export", "--state-file", str(path)) == EXIT_CONFIG
    assert "cannot load state file" in capsys.readouterr().err


def test_unknown_command_exits_2():
    assert run("frobnicate") == EXIT_CONFIG
