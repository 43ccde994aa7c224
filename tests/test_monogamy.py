import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monolab
import oracles
from monolab import states
from monolab.measures import Cut, Measure, MeasureKind, evaluate
from monolab.monogamy import (
    BracketError,
    bisect_score_crossing,
    critical_exponent,
    hierarchy_chain,
    monogamy_score,
    power_sweep,
    share_sum,
    strong_monogamy_report,
)
from monolab.verify import STATE_TOL

seeds = st.integers(min_value=0, max_value=2**32 - 1)

NEG = MeasureKind(Measure.NEGATIVITY)
LOGNEG = MeasureKind(Measure.LOG_NEGATIVITY)
CONC = MeasureKind(Measure.CONCURRENCE)

# exact endpoint values for the W state (Schmidt weights 2/3 and 1/3)
W_LN_WHOLE = math.log2(1.0 + 2.0 * math.sqrt(2.0) / 3.0)
W_LN_PAIR = math.log2((2.0 + math.sqrt(5.0)) / 3.0)
W_RSTAR = math.log(2.0) / math.log(W_LN_WHOLE / W_LN_PAIR)


def product_state():
    psi = np.zeros(8)
    psi[0] = 1.0
    return states.MultipartiteState.from_vector(psi, (2, 2, 2))


# ---------------------------------------------------------------------------
# monogamy_score
# ---------------------------------------------------------------------------

def test_score_ghz_negativity():
    rep = monogamy_score(NEG, states.ghz(3), 0, 1.0)
    assert abs(rep.whole - 0.5) < 1e-12
    assert rep.parts == (0.0, 0.0)
    assert abs(rep.score - 0.5) < 1e-12
    assert rep.score == rep.whole - sum(rep.parts)


def test_score_w_squared_concurrence_saturates():
    rep = monogamy_score(CONC, states.w(3), 0, 2.0)
    assert abs(rep.whole - 8.0 / 9.0) < 1e-12
    assert all(abs(p - 4.0 / 9.0) < 1e-12 for p in rep.parts)
    assert abs(rep.score) < 1e-9


def test_score_product_state_everywhere_zero():
    for kind in (NEG, LOGNEG, CONC):
        for r in (0.5, 1.0, 3.0):
            assert monogamy_score(kind, product_state(), 0, r).score == 0.0


def test_score_nonzero_focus():
    rep = monogamy_score(NEG, states.ghz(3), 2, 1.0)
    assert abs(rep.score - 0.5) < 1e-12


def test_score_rejects_bad_input():
    with pytest.raises(ValueError):
        monogamy_score(NEG, states.ghz(3), 0, 0.0)
    with pytest.raises(ValueError):
        monogamy_score(NEG, states.ghz(3), 0, -1.0)
    with pytest.raises(ValueError):
        monogamy_score(NEG, states.ghz(2), 0, 1.0)
    with pytest.raises(ValueError):
        monogamy_score(NEG, states.ghz(3), 5, 1.0)


def permute_parties(state, order):
    """The state with party k of the result being party order[k] of ``state``."""
    n = state.n_subsystems
    t = state.rho.reshape(state.dims * 2).transpose(list(order) + [n + i for i in order])
    return states.MultipartiteState(t.reshape(state.rho.shape), tuple(state.dims[i] for i in order))


@given(seed=seeds, perm=st.permutations([1, 2, 3]),
       tag=st.sampled_from([Measure.NEGATIVITY, Measure.LOG_NEGATIVITY, Measure.CONCURRENCE, Measure.EOF]))
@settings(max_examples=20, deadline=None)
def test_score_invariant_under_permuting_non_focus_parties(seed, perm, tag):
    base = states.haar_pure((2, 2, 2, 2), seed)
    mixed = states.random_mixed((2, 2, 3, 2), 3, seed)
    cases = [base] + ([mixed] if tag in (Measure.NEGATIVITY, Measure.LOG_NEGATIVITY) else [])
    order = (0, *perm)
    for state in cases:
        a = monogamy_score(MeasureKind(tag), state, 0, 2.0)
        b = monogamy_score(MeasureKind(tag), permute_parties(state, order), 0, 2.0)
        assert abs(a.whole - b.whole) < 1e-10
        assert all(abs(b.parts[k] - a.parts[order[k + 1] - 1]) < 1e-10 for k in range(3))
        assert abs(a.score - b.score) < 1e-10


def rotate_locally(state, rng):
    """U rho U^dag for U a tensor product of random one-party unitaries."""
    u = np.eye(1)
    for d in state.dims:
        u = np.kron(u, oracles.gram_schmidt_unitary(d, rng))
    return states.MultipartiteState(u @ state.rho @ u.conj().T, state.dims)


MIXED_TAGS = (Measure.NEGATIVITY, Measure.LOG_NEGATIVITY)
PURE_TAGS = (Measure.CONCURRENCE, Measure.EOF)


@given(seed=seeds, n=st.sampled_from([3, 4]), tag=st.sampled_from(MIXED_TAGS + PURE_TAGS),
       normalized=st.booleans(), r=st.floats(min_value=0.5, max_value=3.0))
@settings(max_examples=25, deadline=None)
def test_score_invariant_under_local_unitaries(seed, n, tag, normalized, r):
    """The negativity family on rank-3 mixed states, concurrence and EoF on
    pure states."""
    dims = (2,) * n
    state = states.random_mixed(dims, 3, seed) if tag in MIXED_TAGS else states.haar_pure(dims, seed)
    kind, focus = MeasureKind(tag, normalized), seed % n
    a = monogamy_score(kind, state, focus, r)
    b = monogamy_score(kind, rotate_locally(state, np.random.default_rng(seed)), focus, r)
    assert abs(a.whole - b.whole) < 1e-9
    assert all(abs(x - y) < 1e-9 for x, y in zip(a.parts, b.parts))
    assert abs(a.score - b.score) < 1e-9


R_GRID = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 4.0)


@given(seed=seeds, n=st.sampled_from([3, 4]), tag=st.sampled_from(MIXED_TAGS + PURE_TAGS),
       p=st.floats(min_value=0.0, max_value=0.3))
@settings(max_examples=30, deadline=None)
def test_transfer_theorems_hold_on_sampled_states(seed, n, tag, p):
    """Raising: delta(r) >= -tol gives delta(s) >= -tol for every s >= r.
    Lowering: delta(r) <= tol gives delta(s) <= tol for every s <= r. Pure
    states, with white noise mixed in for the negativity family; many of them
    change sign on the grid."""
    state = states.haar_pure((2,) * n, seed)
    if tag in MIXED_TAGS:
        state = states.white_noise_mix(state, p)
    deltas = [rep.score for rep in power_sweep(MeasureKind(tag, True), state, 0, R_GRID)]
    for i, delta in enumerate(deltas):
        if delta >= -STATE_TOL:
            assert all(d >= -STATE_TOL for d in deltas[i + 1:])
        if delta <= STATE_TOL:
            assert all(d <= STATE_TOL for d in deltas[:i])


# ---------------------------------------------------------------------------
# power_sweep
# ---------------------------------------------------------------------------

def test_sweep_reexponentiates_shared_bases():
    reports = power_sweep(LOGNEG, states.w(3), 0, (1.0, 2.0))
    assert abs(reports[1].whole - reports[0].whole ** 2) < 1e-15
    assert reports[0].score < 0.0 < reports[1].score


def test_sweep_squares_shrink_below_one():
    reports = power_sweep(NEG, states.ghz(3), 0, (1.0, 2.0))
    assert reports[1].score <= reports[0].score


def test_sweep_rejects_bad_grids():
    with pytest.raises(ValueError):
        power_sweep(NEG, states.ghz(3), 0, ())
    with pytest.raises(ValueError):
        power_sweep(NEG, states.ghz(3), 0, (1.0, -2.0))


# ---------------------------------------------------------------------------
# critical exponent
# ---------------------------------------------------------------------------

def test_rstar_w_log_negativity():
    res = critical_exponent(LOGNEG, states.w(3), 0, (1.0, 2.0), 1e-4)
    assert 1.05 <= res.r_star <= 1.07
    assert abs(res.r_star - W_RSTAR) <= 1e-4
    assert res.score_lo < 0.0 < res.score_hi


def test_rstar_straddles_zero_within_tol():
    res = critical_exponent(LOGNEG, states.w(3), 0, (1.0, 2.0), 1e-4)
    lo = monogamy_score(LOGNEG, states.w(3), 0, res.r_star - res.tol).score
    hi = monogamy_score(LOGNEG, states.w(3), 0, res.r_star + res.tol).score
    assert lo <= 0.0 <= hi


def test_rstar_rejects_unbracketed():
    with pytest.raises(BracketError):
        critical_exponent(NEG, states.ghz(3), 0, (1.0, 2.0), 1e-4)
    with pytest.raises(BracketError):
        critical_exponent(NEG, states.w(3), 0, (1.0, 1.5), 1e-4)


def test_bisection_matches_closed_form():
    # whole^r = 2 * 0.8^r crosses at r = log(2) / log(0.9/0.8)
    res = bisect_score_crossing(0.9, (0.8, 0.8), (4.0, 8.0), 1e-6)
    expected = math.log(2.0) / math.log(0.9 / 0.8)
    assert abs(res.r_star - expected) <= 1e-6
    assert res.steps  # bisection trace is recorded
    lo, hi, mid, score = res.steps[0]
    assert lo == 4.0 and hi == 8.0 and mid == 6.0


def test_bisection_terminates_below_float_spacing():
    # tol is below the bracket's float spacing; the call runs in a child
    # process so that a loop that never ends fails by timeout, not by hanging
    code = (
        "from monolab.monogamy import bisect_score_crossing as b\n"
        "res = b(0.9, (0.5, 0.5), (1, 2), 1e-300)\n"
        "print(repr(res.r_star), len(res.steps))\n"
    )
    src = str(Path(monolab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    r_star, steps = proc.stdout.split()
    assert abs(float(r_star) - math.log(2.0) / math.log(1.8)) <= 1e-12  # 0.9^r = 2 * 0.5^r
    assert int(steps) <= 64


# ---------------------------------------------------------------------------
# strong monogamy
# ---------------------------------------------------------------------------

def test_strong_collapses_at_two_parties():
    rep = strong_monogamy_report(CONC, states.w(3), 0, 2.0)
    assert rep.n == 2
    assert rep.subset_average == rep.pair_sum  # divisor 2^(n-1)-1 = 1
    assert [m for m, _ in rep.subset_terms] == [1, 2]


def test_strong_ghz4_chain():
    rep = strong_monogamy_report(CONC, states.ghz(4), 0, 2.0)
    assert rep.n == 3
    assert abs(rep.whole - 1.0) < 1e-12
    assert rep.pair_sum == 0.0
    assert rep.subset_average == 0.0  # all marginal cuts are separable
    assert len(rep.subset_terms) == 6
    assert rep.whole >= rep.subset_average >= rep.pair_sum


@given(seed=seeds)
@settings(max_examples=10, deadline=None)
def test_strong_chain_on_random_four_qubit_states(seed):
    s = states.haar_pure((2, 2, 2, 2), seed)
    rep = strong_monogamy_report(MeasureKind(Measure.CONCURRENCE, True), s, 0, 2.0)
    assert rep.whole >= rep.subset_average - 1e-9
    assert rep.subset_average >= rep.pair_sum - 1e-9


def test_strong_rejects_bad_input():
    with pytest.raises(ValueError):
        strong_monogamy_report(CONC, states.ghz(3), 0, 0.5)  # alpha < 1
    with pytest.raises(ValueError):
        strong_monogamy_report(CONC, states.ghz(2), 0, 2.0)  # n < 2


# ---------------------------------------------------------------------------
# hierarchy chain
# ---------------------------------------------------------------------------

def test_hierarchy_three_party_single_level():
    rep = hierarchy_chain(CONC, states.w(3), 0, 1, 2.0)
    pair_sum = monogamy_score(CONC, states.w(3), 0, 2.0)
    assert len(rep.levels) == 1
    assert abs(rep.levels[0] - sum(pair_sum.parts)) < 1e-12


def test_hierarchy_ghz4_levels_below_whole():
    rep = hierarchy_chain(CONC, states.ghz(4), 0, 1, 2.0)
    whole = monogamy_score(CONC, states.ghz(4), 0, 2.0).whole
    assert len(rep.levels) == 2
    for lvl in rep.levels:
        assert lvl <= whole + 1e-9


@given(seed=seeds)
@settings(max_examples=10, deadline=None)
def test_hierarchy_levels_monotone_for_squared_concurrence(seed):
    s = states.haar_pure((2, 2, 2, 2), seed)
    rep = hierarchy_chain(MeasureKind(Measure.CONCURRENCE, True), s, 0, 1, 2.0)
    whole = monogamy_score(MeasureKind(Measure.CONCURRENCE, True), s, 0, 2.0).whole
    for lvl in rep.levels:
        assert lvl <= whole + 1e-9
    for earlier, later in zip(rep.levels, rep.levels[1:]):
        assert later <= earlier + 1e-9


def test_hierarchy_rejects_bad_partner():
    with pytest.raises(ValueError):
        hierarchy_chain(CONC, states.ghz(3), 0, 0, 2.0)
    with pytest.raises(ValueError):
        hierarchy_chain(CONC, states.ghz(2), 0, 1, 2.0)  # nothing beyond focus+partner


# ---------------------------------------------------------------------------
# share_sum
# ---------------------------------------------------------------------------

def test_share_sum_values():
    assert share_sum(CONC, product_state(), 0) == 0.0
    assert abs(share_sum(CONC, states.w(3), 0) - 4.0 / 3.0) < 1e-12
    assert share_sum(NEG, states.classical_corr_state(), 0) == 0.0


def test_share_sum_uses_normalized_measure():
    # normalized negativity doubles the raw pair values
    s = states.w(3)
    raw = sum(
        evaluate(MeasureKind(Measure.NEGATIVITY), s, Cut((0,), (j,))) for j in (1, 2)
    )
    assert abs(share_sum(NEG, s, 0) - 2.0 * raw) < 1e-12


@given(seed=seeds)
@settings(max_examples=15, deadline=None)
def test_share_sum_tabulates_bounded_values(seed):
    s = states.haar_pure((2, 2, 2), seed)
    total = share_sum(CONC, s, 0)
    assert -1e-12 <= total <= 2.0  # n = 2 pair terms, each normalized to [0, 1]
