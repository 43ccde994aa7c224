"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""

import csv
import json
import time

import oracles
from monolab import cli, states, tensor
from monolab.measures import (
    Cut,
    Measure,
    MeasureKind,
    classical_correlation,
    concurrence_two_qubit,
    eof_two_qubit,
    negativity,
)
from monolab.monogamy import strong_monogamy_report
from monolab.states import EnsembleSpec, state_from_json
from monolab.verify import (
    check_scalar_lemmas,
    counterexample_search,
    verify_functional_lift,
    verify_hierarchy_chain,
    verify_lowering,
    verify_mixed_lifting,
    verify_raising,
    verify_strong_chain,
)

STATE_TOL = 1e-9


def report(num, name, ok, detail, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail}) [{elapsed:.2f}s/{limit:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num}: runtime {elapsed:.2f}s exceeds {limit}s"


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_criterion_01_rstar_w_log_negativity(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "rstar.json"
    code = cli.main([
        "rstar", "--state", "w3", "--measure", "lognegativity",
        "--bracket", "1,2", "--tol", "1e-4", "--format", "json", "--out", str(out),
    ])
    r_star = json.loads(out.read_text())["r_star"]
    elapsed = time.perf_counter() - t0
    ok = code == 0 and 1.05 <= r_star <= 1.07
    report(1, "w3 lognegativity critical exponent", ok, f"r* = {r_star:.4f}", elapsed, 5.0)


def test_criterion_02_figure1_ghz_noise(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "fig1.csv"
    code = cli.main(["figure", "1", "--out", str(out)])
    rows = read_rows(out)
    deltas = [float(r["delta"]) for r in rows]
    at_origin = [
        float(r["delta"])
        for r in rows
        if r["measure"] == "negativity" and float(r["p"]) == 0.0 and float(r["r"]) == 1.0
    ]
    elapsed = time.perf_counter() - t0
    ok = (
        code == 0
        and len(rows) == 51 * 4
        and min(deltas) >= -STATE_TOL
        and abs(at_origin[0] - 0.5) <= STATE_TOL
    )
    report(2, "ghz3 noise sweep", ok,
           f"min delta = {min(deltas):.2e}, delta(0,1) = {at_origin[0]:.12f}", elapsed, 5.0)


def test_criterion_03_figure2_w_noise(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "fig2.csv"
    code = cli.main(["figure", "2", "--out", str(out)])
    rows = read_rows(out)
    neg = [float(r["delta"]) for r in rows if r["measure"] == "negativity"]
    ln_r2 = [
        float(r["delta"])
        for r in rows
        if r["measure"] == "lognegativity" and float(r["r"]) == 2.0
    ]
    ln_origin = [
        float(r["delta"])
        for r in rows
        if r["measure"] == "lognegativity" and float(r["p"]) == 0.0 and float(r["r"]) == 1.0
    ]
    elapsed = time.perf_counter() - t0
    ok = (
        code == 0
        and min(neg) >= -STATE_TOL
        and ln_origin[0] < 0.0
        and min(ln_r2) >= -STATE_TOL
    )
    report(3, "w3 noise sweep", ok,
           f"min neg delta = {min(neg):.2e}, logneg delta(0,1) = {ln_origin[0]:.4f}",
           elapsed, 10.0)


def test_criterion_04_raising_transfer():
    t0 = time.perf_counter()
    kind = MeasureKind(Measure.CONCURRENCE, normalized=True)
    s3 = verify_raising(kind, EnsembleSpec("haar_pure", (2, 2, 2), 1000), 2.0,
                        (2.5, 3.0, 4.0), seed=101)
    s4 = verify_raising(kind, EnsembleSpec("haar_pure", (2, 2, 2, 2), 200), 2.0,
                        (2.5, 3.0, 4.0), seed=102)
    elapsed = time.perf_counter() - t0
    ok = s3.violations == 0 and s4.violations == 0
    report(4, "power raising (concurrence)", ok,
           f"3q worst = {s3.worst_margin:.2e}, 4q worst = {s4.worst_margin:.2e}",
           elapsed, 60.0)


def test_criterion_05_lowering_on_harvested_states():
    t0 = time.perf_counter()
    harvested = {}
    for tag in (Measure.EOF, Measure.LOG_NEGATIVITY):
        search = counterexample_search(tag, 1.0, (2, 2, 2), restarts=70, seed=55,
                                       max_steps=250)
        found = [
            state_from_json(b["state"])
            for b in search.extra["restart_bests"]
            if b["score"] < -1e-6
        ]
        harvested[tag] = found
    summaries = {
        tag: verify_lowering(tag, found, 1.0, (0.5, 0.8), seed=0)
        for tag, found in harvested.items()
    }
    elapsed = time.perf_counter() - t0
    counts = {tag.value: len(found) for tag, found in harvested.items()}
    ok = all(len(found) >= 50 for found in harvested.values()) and all(
        s.violations == 0 and s.skipped == 0 for s in summaries.values()
    )
    report(5, "power lowering on harvested states", ok,
           f"harvested = {counts}", elapsed, 120.0)


def test_criterion_06_squared_eof():
    t0 = time.perf_counter()
    pure = verify_functional_lift(EnsembleSpec("haar_pure", (2, 2, 2), 500), 2.0, seed=61)
    mixed = verify_functional_lift(
        EnsembleSpec("random_mixed", (2, 2, 2), 500, ranks=(2,)), 2.0, seed=62
    )
    elapsed = time.perf_counter() - t0
    ok = pure.violations == 0 and mixed.violations == 0
    report(6, "squared EoF monogamy", ok,
           f"pure worst = {pure.worst_margin:.2e}, mixed worst = {mixed.worst_margin:.2e}",
           elapsed, 120.0)


def test_criterion_07_squared_negativity_mixed():
    t0 = time.perf_counter()
    spec = EnsembleSpec("random_mixed", (2, 2, 2), 500, ranks=tuple(range(1, 9)))
    summary = verify_mixed_lifting(Measure.NEGATIVITY, spec, seed=77)
    elapsed = time.perf_counter() - t0
    ok = summary.violations == 0 and summary.count == 500
    report(7, "squared negativity on mixed states", ok,
           f"worst = {summary.worst_margin:.2e}", elapsed, 60.0)


def test_criterion_08_strong_monogamy():
    t0 = time.perf_counter()
    kind = MeasureKind(Measure.CONCURRENCE, normalized=True)
    summary = verify_strong_chain(kind, EnsembleSpec("haar_pure", (2, 2, 2, 2), 200),
                                  2.0, seed=88)
    collapse = strong_monogamy_report(kind, states.w(3), 0, 2.0)
    elapsed = time.perf_counter() - t0
    ok = (
        summary.violations == 0
        and summary.count == 200
        and collapse.subset_average == collapse.pair_sum
    )
    report(8, "strong monogamy chain", ok,
           f"worst gap = {summary.worst_margin:.2e}, n=2 collapse exact", elapsed, 60.0)


def test_criterion_09_hierarchy():
    t0 = time.perf_counter()
    kind = MeasureKind(Measure.CONCURRENCE, normalized=True)
    summary = verify_hierarchy_chain(kind, EnsembleSpec("haar_pure", (2, 2, 2, 2), 200),
                                     2.0, seed=99)
    elapsed = time.perf_counter() - t0
    ok = summary.violations == 0 and summary.count == 200
    report(9, "hierarchical monogamy chain", ok,
           f"worst = {summary.worst_margin:.2e}", elapsed, 60.0)


def test_criterion_10_scalar_lemmas():
    t0 = time.perf_counter()
    summary = check_scalar_lemmas(1_000_000, seed=10)
    elapsed = time.perf_counter() - t0
    ok = summary.violations == 0 and summary.worst_margin >= -1e-12
    report(10, "scalar lemma audit", ok,
           f"worst = {summary.worst_margin:.2e} over {summary.count} draws", elapsed, 10.0)


def test_criterion_11_classical_correlation_contrast():
    t0 = time.perf_counter()
    ccs = {}
    for trial in range(2):  # repeated preparation must reproduce the values
        s = states.classical_corr_state()
        for keep in ((0, 1), (0, 2)):
            marg = tensor.partial_trace(s.rho, s.dims, keep)
            for side in ("a", "b"):
                ccs.setdefault((keep, side), []).append(classical_correlation(marg, side))
    flat = [v for vals in ccs.values() for v in vals]
    stable = all(abs(vals[0] - vals[1]) <= 1e-3 for vals in ccs.values())
    unity = all(abs(v - 1.0) <= 1e-3 for v in flat)
    cc_ab = ccs[((0, 1), "a")][0]
    cc_ac = ccs[((0, 2), "a")][0]
    contrast_ok = True
    for r in (1.0, 2.0, 5.0, 10.0):
        delta = 1.0**r - cc_ab**r - cc_ac**r
        contrast_ok &= delta < 0.0 and abs(delta + 1.0) <= 0.05
    elapsed = time.perf_counter() - t0
    ok = stable and unity and contrast_ok
    report(11, "classical correlation is power-insensitive", ok,
           f"cc values within {max(abs(v - 1.0) for v in flat):.2e} of 1", elapsed, 60.0)


def test_criterion_12_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        st = states.random_mixed((2, 2), rank=i % 4 + 1, seed=120, index=i)
        cut = Cut((0,), (1,))
        worst = max(worst, abs(concurrence_two_qubit(st.rho) - oracles.concurrence(st.rho)))
        worst = max(worst, abs(negativity(st, cut) - oracles.negativity(st.rho, (2, 2), [0])))
        entropy = float(tensor._entropies(tensor._density_eig(st.rho)[1]))
        worst = max(worst, abs(entropy - oracles.entropy(st.rho)))
        worst = max(worst, abs(eof_two_qubit(st.rho) - oracles.eof(st.rho)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8
    report(12, "oracle equivalence", ok, f"max deviation = {worst:.2e}", elapsed, 60.0)
