import itertools
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
    _delta,
    base_values,
    bisect_score_crossing,
    critical_exponent,
    hierarchy_chain,
    monogamy_score,
    power_sweep,
    share_sum,
    strong_monogamy_report,
)
from monolab.verify import (
    STATE_TOL,
    counterexample_search,
    probe_high_power_mixed,
    verify_functional_lift,
    verify_hierarchy_chain,
    verify_lowering,
    verify_raising,
    verify_strong_chain,
)

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


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rstar_of_eof_on_the_w_tail_state_is_the_closed_form(n):
    # (|0>|0..0> + |1>|W_{n-1}>)/sqrt 2: the sharpest EoF exponent found by search
    s = states.MultipartiteState.from_vector(oracles.w_tail_vector(n), (2,) * n)
    res = critical_exponent(MeasureKind(Measure.EOF), s, 0, (1.0, 2.0), 1e-4)
    assert abs(res.r_star - oracles.eof_sharp_exponent(n)) <= 1e-14  # the root, not the tol


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


def test_root_matches_closed_form():
    # whole^r = 2 * 0.8^r crosses at r = log(2) / log(0.9/0.8)
    res = bisect_score_crossing(0.9, (0.8, 0.8), (4.0, 8.0), 1e-6)
    expected = math.log(2.0) / math.log(0.9 / 0.8)
    assert abs(res.r_star - expected) <= 1e-14 * expected
    assert res.steps  # the Newton iterates are recorded
    r, score = res.steps[-1]
    assert r == res.r_star and score == _delta(0.9, (0.8, 0.8), r)


def test_newton_iterates_climb_to_the_root():
    # unequal parts: g(r) = log sum_j (p_j / w)^r is not a line, so Newton takes several steps
    res = bisect_score_crossing(1.0, (0.9, 0.5, 0.1), (0.5, 20.0), 1e-3)
    rs = [r for r, _ in res.steps]
    assert len(rs) > 1 and rs == sorted(set(rs)) and rs[-1] == res.r_star
    # below the root the state is not monogamous; the last iterates round to it
    assert res.steps[0][1] < 0.0 and all(score <= 1e-15 for _, score in res.steps)
    assert abs(math.fsum(p ** res.r_star for p in (0.9, 0.5, 0.1)) - 1.0) <= 1e-15


def _bisection(whole, parts, lo, hi, tol):
    """A plain bisection of delta(r) = whole^r - sum parts^r, down to tol."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if _delta(whole, parts, mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("measure", [Measure.LOG_NEGATIVITY, Measure.EOF, Measure.CONCURRENCE])
def test_root_matches_a_fine_bisection_on_haar_states(measure):
    crossings = 0
    for i in range(40):
        whole, parts = base_values(MeasureKind(measure), states.haar_pure((2, 2, 2, 2), 17, i), 0)
        try:
            res = bisect_score_crossing(whole, parts, (0.05, 40.0), 1e-4)
        except BracketError:
            continue
        crossings += 1
        exact = _bisection(whole, parts, 0.05, 40.0, 1e-15)
        assert abs(res.r_star - exact) <= 1e-13 * exact
        assert len(res.steps) <= 10
    assert crossings >= 20


@pytest.mark.parametrize("whole, parts", [
    (0.9, (0.5, 0.0, 0.0)),  # one nonzero part: delta > 0 at every r
    (0.9, (0.9, 0.3)),  # a part equal to the whole: delta < 0 at every r
    (0.9, (1.2, 0.3)),  # a part above the whole
    (0.0, (0.5, 0.5)),  # w = 0
    (0.9, (0.8, 0.8)),  # a crossing at 5.88, outside the window
])
def test_no_crossing_in_the_window_is_a_bracket_error(whole, parts):
    with pytest.raises(BracketError, match="^no bracketed crossing"):
        bisect_score_crossing(whole, parts, (1.0, 2.0), 1e-4)


DISCORD = MeasureKind(Measure.DISCORD)


def test_discord_and_classical_correlation_scores_on_w3_and_ghz3():
    # W_3: S(A) = h(1/3) = 0.91830 on the whole cut, discord 0.55005 on each pair
    assert abs(monogamy_score(DISCORD, states.w(3), 0, 1.0).score + 0.18180) <= 1e-4
    assert abs(monogamy_score(DISCORD, states.ghz(3), 0, 1.0).score - 1.0) <= 1e-12
    cc = MeasureKind(Measure.CLASSICAL_CORRELATION)
    assert abs(monogamy_score(cc, states.w(3), 0, 1.0).score - 0.18180) <= 1e-4
    # the W_3 discord crossing, with the pair values' 1e-4 accuracy
    assert abs(critical_exponent(DISCORD, states.w(3), 0, (1.0, 2.0), 1e-4).r_star - 1.35244) <= 1e-4


def test_bisection_terminates_below_float_spacing():
    # tol is below the window's float spacing, and it is only recorded; the
    # call runs in a child process so that a loop that never ends fails by
    # timeout, not by hanging
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


# ---------------------------------------------------------------------------
# exponent and tolerance checks, overflow
# ---------------------------------------------------------------------------

# concurrence is undefined on every cut of this state, so a check that ran
# after an evaluation would raise MeasureUndefinedError, a ValueError subclass
UNDEFINED = states.random_mixed((2, 2, 2), 8, 0)
PROBE = MeasureKind(Measure.NEGATIVITY, True)

# name -> (call with the checked value x, the lower bound of x)
EXPONENT_ARGS = {
    "monogamy_score": (lambda x: monogamy_score(CONC, UNDEFINED, 0, x), 0.0),
    "power_sweep": (lambda x: power_sweep(CONC, UNDEFINED, 0, (1.0, x)), 0.0),
    "bisect_score_crossing-lo": (lambda x: bisect_score_crossing(1.0, (0.5,), (x, 2.0), 1e-3), 0.0),
    "bisect_score_crossing-hi": (lambda x: bisect_score_crossing(1.0, (0.5,), (1.0, x), 1e-3), 1.0),
    "bisect_score_crossing-tol": (lambda x: bisect_score_crossing(1.0, (0.5,), (1.0, 2.0), x), 0.0),
    "critical_exponent-lo": (lambda x: critical_exponent(CONC, UNDEFINED, 0, (x, 2.0), 1e-3), 0.0),
    "critical_exponent-hi": (lambda x: critical_exponent(CONC, UNDEFINED, 0, (1.0, x), 1e-3), 1.0),
    "critical_exponent-tol": (lambda x: critical_exponent(CONC, UNDEFINED, 0, (1.0, 2.0), x), 0.0),
    "strong_monogamy_report": (lambda x: strong_monogamy_report(CONC, UNDEFINED, 0, x), 1.0),
    "hierarchy_chain": (lambda x: hierarchy_chain(CONC, UNDEFINED, 0, 1, x), 0.0),
    "verify_raising-r": (lambda x: verify_raising(CONC, [UNDEFINED], x, (2.0,), 0), 0.0),
    "verify_raising-alpha": (lambda x: verify_raising(CONC, [UNDEFINED], 1.0, (2.0, x), 0), 1.0),
    "verify_lowering-r": (lambda x: verify_lowering(CONC, [UNDEFINED], x, (0.5,), 0), 0.0),
    "verify_lowering-alpha": (lambda x: verify_lowering(CONC, [UNDEFINED], 1.0, (0.5, x), 0), 0.0),
    "verify_functional_lift": (lambda x: verify_functional_lift([UNDEFINED], x, 0), 0.0),
    "probe_high_power_mixed": (lambda x: probe_high_power_mixed((2.0, x), [UNDEFINED], 0, PROBE), 2.0),
    "verify_strong_chain": (lambda x: verify_strong_chain(CONC, [UNDEFINED], x, 0), 1.0),
    "verify_hierarchy_chain": (lambda x: verify_hierarchy_chain(CONC, [UNDEFINED], x, 0), 0.0),
    # with no state to score, only the suite itself can check its exponent
    "verify_strong_chain-empty": (lambda x: verify_strong_chain(CONC, [], x, 0), 1.0),
    "verify_hierarchy_chain-empty": (lambda x: verify_hierarchy_chain(CONC, [], x, 0), 0.0),
    # concurrence is undefined on the 3x4 whole cut of every (3, 2, 2) state
    "counterexample_search": (lambda x: counterexample_search(CONC, x, (3, 2, 2), 1, 0, 0), 0.0),
}


# values that are not real numbers; float() once read the first three as numbers
NOT_REAL = {"True": True, "'2'": "2", "b'2'": b"2", "None": None, "2j": 2j}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "below", *NOT_REAL])
@pytest.mark.parametrize("name", sorted(EXPONENT_ARGS))
def test_every_exponent_and_tol_is_checked_before_any_measure_runs(name, value):
    call, bound = EXPONENT_ARGS[name]
    if value in NOT_REAL:
        x = NOT_REAL[value]
    else:
        x = math.nextafter(bound, -math.inf) if value == "below" else float(value)
    with pytest.raises(ValueError, match="must lie in") as err:
        call(x)
    assert type(err.value) is ValueError  # not MeasureUndefinedError or BracketError
    assert str(err.value).endswith(f", got {x!r}")  # the value as given, not a coerced one


@pytest.mark.parametrize("whole, parts", [(-0.5, (0.1,)), (math.nan, (0.1,)), (0.5, (math.inf,))])
def test_bisect_score_crossing_rejects_a_negative_or_non_finite_value(whole, parts):
    with pytest.raises(ValueError, match="measure value must lie in") as err:
        bisect_score_crossing(whole, parts, (1.0, 2.5), 1e-3)
    assert type(err.value) is ValueError  # not TypeError or BracketError


@pytest.mark.parametrize("bracket, message", [
    ((1.0,), r"^bracket must be one pair lo, hi, got \(1\.0,\)$"),
    ((1.0, 2.0, 0.5), r"^bracket must be one pair lo, hi, got \(1\.0, 2\.0, 0\.5\)$"),
    ("12", r"^bracket start must lie in \(0\.0, inf\), got '1'$"),
    (1.5, r"^bracket end list must be iterable, got 1\.5$"),
])
def test_a_bracket_is_exactly_one_pair_of_reals(bracket, message):
    # the bisection once read "12" as (1, 2), dropped a third end, and
    # indexed past a single one
    for call in (lambda: critical_exponent(CONC, UNDEFINED, 0, bracket, 1e-3),
                 lambda: bisect_score_crossing(1.0, (0.5,), bracket, 1e-3)):
        with pytest.raises(ValueError, match=message) as err:
            call()
        assert type(err.value) is ValueError


def test_lowering_rejects_an_alpha_above_r():
    with pytest.raises(ValueError, match=r"alpha must lie in \(0.0, 1.0\]"):
        verify_lowering(CONC, [UNDEFINED], 1.0, (math.nextafter(1.0, 2.0),), 0)


def test_an_overflowing_power_or_sum_is_a_value_error():
    with pytest.raises(ValueError, match=r"^2\^2000 overflows a float"):
        bisect_score_crossing(2.0, (1.0,), (1.0, 2000.0), 1e-3)
    big = math.sqrt(1.2e308)  # big^2 is a float, twice it is not
    with pytest.raises(ValueError, match="a sum of powers at exponent 2 overflows a float"):
        bisect_score_crossing(1.0, (big, big), (1.0, 2.0), 1e-3)


def test_an_overflowing_hierarchy_level_is_a_value_error():
    # party 0 holds two qutrits: one maximally entangled with the qutrit party
    # 1, the other with a 3-dimensional subspace of the qubit parties 2 and 3.
    # Both Q(0:1) and Q(0:23) are log2(3), so level 0 = log2(3)^alpha twice
    # leaves the float range while each power and each sum of powers stays in it
    psi = np.zeros(108)
    for a, b in itertools.product(range(3), repeat=2):
        psi[(3 * (3 * a + b) + a) * 4 + b] = 1.0 / 3.0
    state = states.MultipartiteState.from_vector(psi, (9, 3, 2, 2))
    assert math.isfinite(hierarchy_chain(LOGNEG, state, 0, 1, 1530.0).levels[0])
    with pytest.raises(ValueError, match="hierarchy level at exponent 1540.5 overflows"):
        hierarchy_chain(LOGNEG, state, 0, 1, 1540.5)
