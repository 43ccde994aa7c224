import math

import numpy as np
import pytest

from monolab import states, tensor
from monolab.measures import Measure, MeasureKind
from monolab.monogamy import monogamy_score, power_sweep
from monolab.states import EnsembleSpec, state_from_json
from monolab.verify import (
    check_decreasing_concave_family,
    check_scalar_lemmas,
    counterexample_search,
    probe_high_power_mixed,
    verify_functional_lift,
    verify_hierarchy_chain,
    verify_lowering,
    verify_mixed_lifting,
    verify_raising,
    verify_strong_chain,
)

PURE3 = EnsembleSpec("haar_pure", (2, 2, 2), 60)
MIXED3 = EnsembleSpec("random_mixed", (2, 2, 2), 60)
W3 = EnsembleSpec("named", name="w3")


def product_state():
    psi = np.zeros(8)
    psi[0] = 1.0
    return states.MultipartiteState.from_vector(psi, (2, 2, 2))


# ---------------------------------------------------------------------------
# scalar lemmas
# ---------------------------------------------------------------------------

def test_scalar_lemma_edge_cases():
    # equality edges of the raising lemma
    for t in (1.0, 2.0, 3.5):
        assert (1.0 + 0.0) ** t == 1.0 + 0.0**t
    assert (1.0 + 1.0) ** 2 >= 1.0 + 1.0**2  # 4 >= 2


def test_scalar_lemmas_no_violations():
    summary = check_scalar_lemmas(50_000, seed=1)
    assert summary.violations == 0
    assert summary.worst_margin >= -1e-12
    assert set(summary.extra) == {
        "raise_binomial",
        "raise_power_sum",
        "lower_binomial",
        "cauchy_schwarz",
    }


def test_scalar_lemmas_deterministic():
    a = check_scalar_lemmas(10_000, seed=9).to_json()
    b = check_scalar_lemmas(10_000, seed=9).to_json()
    assert a == b


def test_decreasing_concave_family_audit():
    summary = check_decreasing_concave_family(50_000, seed=2)
    assert summary.violations == 0
    assert 0.0 <= summary.extra["side_condition_holds_fraction"] <= 1.0


# ---------------------------------------------------------------------------
# raising / lowering
# ---------------------------------------------------------------------------

def test_raising_squared_concurrence():
    summary = verify_raising(Measure.CONCURRENCE, PURE3, 2.0, (2.5, 3.0, 4.0), seed=5)
    assert summary.count == 60
    assert summary.violations == 0
    assert summary.skipped == 0  # squared concurrence is monogamous on qubit states
    assert summary.worst_margin >= -1e-9


def test_raising_skips_states_not_satisfying_hypothesis():
    summary = verify_raising(Measure.LOG_NEGATIVITY, W3, 1.0, (1.5, 2.0), seed=0)
    assert summary.count == 1
    assert summary.skipped == 1
    assert summary.violations == 0


def test_raising_ghz_noise_family_negativity():
    spec = EnsembleSpec("named", name="ghz3", p_grid=tuple(i / 10 for i in range(11)))
    summary = verify_raising(Measure.NEGATIVITY, spec, 1.0, (2.0,), seed=0)
    assert summary.count == 11
    assert summary.violations == 0
    assert summary.skipped == 0  # the whole family is monogamous at r = 1


def test_raising_validates_alphas():
    with pytest.raises(ValueError):
        verify_raising(Measure.CONCURRENCE, PURE3, 2.0, (1.5,), seed=0)


def test_raising_deterministic():
    a = verify_raising(Measure.CONCURRENCE, PURE3, 2.0, (3.0,), seed=11).to_json()
    b = verify_raising(Measure.CONCURRENCE, PURE3, 2.0, (3.0,), seed=11).to_json()
    assert a == b


def test_lowering_w_log_negativity():
    summary = verify_lowering(Measure.LOG_NEGATIVITY, W3, 1.0, (0.5, 0.8), seed=0)
    assert summary.count == 1
    assert summary.skipped == 0
    assert summary.violations == 0
    assert summary.worst_margin > 0.0  # delta(alpha) strictly negative for W


def test_lowering_w_eof():
    summary = verify_lowering(Measure.EOF, W3, 1.0, (0.5,), seed=0)
    assert summary.violations == 0
    assert summary.skipped == 0


def test_lowering_zero_score_edge_passes():
    for suite, alphas in ((verify_lowering, (0.5,)), (verify_raising, (2.0,))):
        summary = suite(Measure.NEGATIVITY, [product_state()], 1.0, alphas, seed=0)
        assert summary.passes == 1
        assert summary.violations == 0
        # every score is exactly zero; the JSON must say 0.0, not -0.0
        assert math.copysign(1.0, summary.worst_margin) == 1.0


# ---------------------------------------------------------------------------
# functional lift (squared entanglement of formation)
# ---------------------------------------------------------------------------

def test_functional_lift_ghz_and_w():
    summary = verify_functional_lift([states.ghz(3), states.w(3)], 2.0, seed=0)
    assert summary.violations == 0
    # GHZ: whole EoF^2 = 1 against zero pair terms; its side condition is
    # exactly 0, which is also the worst slack over the two states
    assert summary.worst_margin == 0.0
    w_score = monogamy_score(MeasureKind(Measure.EOF), states.w(3), 0, 2.0).score
    assert w_score > 0.0


def test_functional_lift_w_score_positive():
    # delta for EoF^2 on W: h(1/3)^2 - 2 h((1 + sqrt(5)/3)/2)^2 > 0
    from monolab.tensor import binary_entropy

    expected = binary_entropy(1 / 3) ** 2 - 2 * binary_entropy((1 + math.sqrt(5) / 3) / 2) ** 2
    assert expected > 0
    rep = monogamy_score(MeasureKind(Measure.EOF), states.w(3), 0, 2.0)
    assert abs(rep.score - expected) < 1e-12


def test_functional_lift_product_state():
    summary = verify_functional_lift([product_state()], 2.0, seed=0)
    assert summary.violations == 0
    assert summary.worst_margin == 0.0


def test_functional_lift_mixed_states_restricted():
    spec = EnsembleSpec("random_mixed", (2, 2, 2), 40, ranks=(2,))
    summary = verify_functional_lift(spec, 2.0, seed=3)
    assert summary.violations == 0
    assert summary.extra["mixed_restricted"] == 40  # no exact mixed whole-cut EoF


def test_functional_lift_rejects_non_qubit_parties():
    with pytest.raises(ValueError):
        verify_functional_lift(EnsembleSpec("haar_pure", (2, 3, 2), 2), 2.0, seed=0)


def test_functional_lift_rejects_a_single_qubit():
    # one party has no pair terms and no whole cut to score
    with pytest.raises(ValueError):
        verify_functional_lift([states.haar_pure((2,), 0)], 2.0, seed=0)


def test_functional_lift_counts_w3_below_its_critical_exponent_as_a_violation():
    # W_3's EoF critical exponent is 1.352: at m = 1.3 the score
    # h(1/3)^m - 2 h((1 + sqrt(5)/3)/2)^m is negative
    from monolab.tensor import binary_entropy

    m = 1.3
    expected = binary_entropy(1 / 3) ** m - 2 * binary_entropy((1 + math.sqrt(5) / 3) / 2) ** m
    summary = verify_functional_lift([states.w(3)], m, 0)
    assert (summary.count, summary.passes, summary.violations) == (1, 0, 1)
    assert abs(summary.worst_margin - expected) < 1e-12 and expected < -0.024
    offender = state_from_json(summary.offender)
    assert offender.dims == (2, 2, 2)
    assert verify_functional_lift([offender], m, 0).worst_margin == summary.worst_margin
    assert verify_functional_lift([states.w(3)], 1.4, 0).violations == 0


# ---------------------------------------------------------------------------
# mixed lifting and the high-power probe
# ---------------------------------------------------------------------------

def test_mixed_lifting_squared_negativity():
    summary = verify_mixed_lifting(Measure.NEGATIVITY, MIXED3, seed=7)
    assert summary.count == 60
    assert summary.violations == 0
    assert summary.worst_margin >= -1e-9
    assert "r1_scores" in summary.extra


def test_mixed_lifting_rank_one_matches_pure_claim():
    spec = EnsembleSpec("random_mixed", (2, 2, 2), 20, ranks=(1,))
    summary = verify_mixed_lifting(Measure.NEGATIVITY, spec, seed=1)
    assert summary.violations == 0


def test_mixed_lifting_rejects_non_mixed_computable():
    with pytest.raises(ValueError):
        verify_mixed_lifting(Measure.EOF, MIXED3, seed=0)


def test_probe_high_power_r2_control_matches_mixed_lifting():
    probe = probe_high_power_mixed((2.0, 3.0), MIXED3, seed=7)
    lift = verify_mixed_lifting(Measure.NEGATIVITY, MIXED3, seed=7)
    assert probe.violations == 0  # exploratory, asserts nothing
    assert abs(probe.extra["worst_margin_per_r"]["2"] - lift.worst_margin) < 1e-15
    assert probe.extra["implication_violations"] == 0


def test_probe_ghz_noise_family_no_implication_violations():
    spec = EnsembleSpec("named", name="ghz3", p_grid=tuple(i / 10 for i in range(11)))
    probe = probe_high_power_mixed((2.0, 3.0), spec, seed=0)
    assert probe.extra["implication_violations"] == 0
    assert probe.extra["worst_margin_per_r"]["3"] >= -1e-9


def test_probe_product_states_zero_at_every_power():
    probe = probe_high_power_mixed((2.0, 3.0, 5.0), [product_state()], seed=0)
    for v in probe.extra["worst_margin_per_r"].values():
        assert v == 0.0


def test_probe_rejects_low_exponents():
    with pytest.raises(ValueError):
        probe_high_power_mixed((1.5,), MIXED3, seed=0)


def test_probe_keeps_one_margin_per_exponent():
    # "{:g}" once printed 2.0000001 and 2.0000002 as "2", and one margin overwrote the other
    probe = probe_high_power_mixed((2.0000001, 2.0000002, 3.0), [states.random_mixed((2, 2, 2), 2, 0)], 0)
    per_r = probe.extra["worst_margin_per_r"]
    assert list(per_r) == [format(r, ".17g") for r in probe.extra["r_values"]]
    assert list(per_r) == ["2.0000000999999998", "2.0000002000000001", "3"]
    assert per_r["2.0000000999999998"] > per_r["2.0000002000000001"] > per_r["3"]
    with pytest.raises(ValueError, match=r"^probe exponents must be distinct, got \[2.0, 3.0, 2.0\]$"):
        probe_high_power_mixed((2.0, 3.0, 2.0), MIXED3, seed=0)


@pytest.mark.parametrize("xs,rule", [("empty", "must be nonempty"), (3.0, "must be iterable, got 3.0")])
@pytest.mark.parametrize("call,what", [
    pytest.param(lambda xs: verify_raising(Measure.CONCURRENCE, PURE3, 2.0, xs, 0), "alpha", id="raising"),
    pytest.param(lambda xs: verify_lowering(Measure.NEGATIVITY, MIXED3, 1.0, xs, 0), "alpha", id="lowering"),
    pytest.param(lambda xs: probe_high_power_mixed(xs, MIXED3, 0), "probe exponent", id="probe"),
    pytest.param(lambda xs: power_sweep(Measure.NEGATIVITY, states.w(3), 0, xs), "exponent", id="power_sweep"),
])
def test_every_exponent_list_must_be_a_nonempty_list(call, what, xs, rule):
    # the probe once counted every state as a pass, with r_values: []
    with pytest.raises(ValueError, match=f"^{what} list {rule}$"):
        call(iter(()) if xs == "empty" else xs)


# ---------------------------------------------------------------------------
# strong / hierarchy suites
# ---------------------------------------------------------------------------

def test_strong_chain_suite():
    spec = EnsembleSpec("haar_pure", (2, 2, 2, 2), 30)
    summary = verify_strong_chain(MeasureKind(Measure.CONCURRENCE, True), spec, 2.0, seed=4)
    assert summary.count == 30
    assert summary.violations == 0


def test_hierarchy_chain_suite():
    spec = EnsembleSpec("haar_pure", (2, 2, 2, 2), 30)
    summary = verify_hierarchy_chain(MeasureKind(Measure.CONCURRENCE, True), spec, 2.0, seed=4)
    assert summary.count == 30
    assert summary.violations == 0


# ---------------------------------------------------------------------------
# counterexample search
# ---------------------------------------------------------------------------

def test_search_squared_concurrence_finds_nothing():
    summary = counterexample_search(Measure.CONCURRENCE, 2.0, (2, 2, 2), restarts=6, seed=3, max_steps=150)
    assert summary.worst_margin >= -1e-9


def test_search_log_negativity_finds_witness():
    summary = counterexample_search(Measure.LOG_NEGATIVITY, 1.0, (2, 2, 2), restarts=6, seed=3, max_steps=150)
    assert summary.worst_margin < -1e-3
    assert summary.offender is not None


def test_search_zero_steps_returns_restart_baseline():
    summary = counterexample_search(Measure.LOG_NEGATIVITY, 1.0, (2, 2, 2), restarts=4, seed=8, max_steps=0)
    kind = MeasureKind(Measure.LOG_NEGATIVITY)
    expected = min(
        monogamy_score(kind, states.haar_pure((2, 2, 2), 8, index=i), 0, 1.0).score
        for i in range(4)
    )
    assert abs(summary.worst_margin - expected) < 1e-12


def test_search_checks_its_dims():
    # int() truncation used to search (2, 2, 2) and record dims [2, 2, 2]
    with pytest.raises(ValueError, match="^subsystem dimension must be an integer >= 2, got 2.5$"):
        counterexample_search(Measure.NEGATIVITY, 1.0, (2.5, 2, 2), 1, 0, max_steps=0)
    summary = counterexample_search(Measure.NEGATIVITY, 1.0, np.array([2, 2, 2]), 1, 0, max_steps=0)
    dims = summary.to_json()["ensemble"]["dims"]
    assert dims == [2, 2, 2] and all(type(d) is int for d in dims)


@pytest.mark.parametrize("kwargs,message", [
    (dict(restarts=2.7), "restarts must be >= 1 and an integer, got 2.7"),
    (dict(restarts=True), "restarts must be >= 1 and an integer, got True"),
    (dict(restarts=0), "restarts must be >= 1 and an integer, got 0"),
    (dict(max_steps=2.5), "max_steps must be >= 0 and an integer, got 2.5"),
    (dict(max_steps=-3), "max_steps must be >= 0 and an integer, got -3"),
    (dict(seed=-1), "seed must be a non-negative integer, got -1"),
    (dict(seed=2.7), "seed must be a non-negative integer, got 2.7"),
])
def test_search_checks_its_integer_arguments(kwargs, message):
    # int() used to run restarts=2.7 as 2 and max_steps=2.5 as 3 evaluations
    args = dict(restarts=1, seed=0, max_steps=2) | kwargs
    with pytest.raises(ValueError, match=f"^{message}$"):
        counterexample_search(Measure.NEGATIVITY, 1.0, (2, 2, 2), **args)
    ok = counterexample_search(Measure.NEGATIVITY, 1.0, (2, 2, 2), np.int64(2), np.uint8(1), np.int32(3))
    assert ok.count == 2 and ok.extra["max_steps"] == 3 and type(ok.ensemble["seed"]) is int


@pytest.mark.parametrize("audit", [check_scalar_lemmas, check_decreasing_concave_family])
def test_scalar_audits_check_their_integer_arguments(audit):
    for samples in (2.7, True, 0):
        with pytest.raises(ValueError, match=f"^samples must be >= 1 and an integer, got {samples}$"):
            audit(samples, 3)
    for seed in (-1, 2.7):
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed}$"):
            audit(10, seed)
    assert audit(np.int64(10), np.uint8(3)).to_json() == audit(10, 3).to_json()


@pytest.mark.parametrize("ensemble", [[states.ghz(3)], [], EnsembleSpec("named", name="w3")])
def test_every_suite_checks_its_seed(ensemble):
    # an explicit or named ensemble draws nothing, so the seed used to be
    # recorded as int(seed) without a check
    for seed in (2.7, -1, True):
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed}$"):
            verify_raising(Measure.NEGATIVITY, ensemble, 1.0, (2.0,), seed)
    assert verify_raising(Measure.NEGATIVITY, ensemble, 1.0, (2.0,), np.int64(4)).ensemble["seed"] == 4


@pytest.mark.parametrize("tag,dims", [(Measure.CONCURRENCE, (2, 2, 2)), (Measure.LOG_NEGATIVITY, (2, 2, 2, 2))])
def test_search_checks_each_candidate_by_its_vector(monkeypatch, tag, dims):
    # one construction per evaluation, the start and the final state of each
    # restart, each checked by its unit vector: no validation eigensolve
    d = math.prod(dims)
    built, checked = [], []
    post_init = states.MultipartiteState.__post_init__
    density_eig = tensor._density_eig

    def counting_post_init(self):
        built.append(self)
        return post_init(self)

    def recording_density_eig(m, vectors=False):
        checked.append(np.shape(m)[-1])
        return density_eig(m, vectors)

    monkeypatch.setattr(states.MultipartiteState, "__post_init__", counting_post_init)
    monkeypatch.setattr(tensor, "_density_eig", recording_density_eig)
    counterexample_search(tag, 1.0, dims, restarts=2, seed=4, max_steps=5)
    assert len(built) == 2 * (5 + 2)
    assert all(s._psi is not None and s.dim == d for s in built)
    assert d not in checked


def test_search_deterministic():
    a = counterexample_search(Measure.EOF, 1.0, (2, 2, 2), restarts=3, seed=5, max_steps=80).to_json()
    b = counterexample_search(Measure.EOF, 1.0, (2, 2, 2), restarts=3, seed=5, max_steps=80).to_json()
    assert a == b


def test_search_offender_reproduces_margin():
    summary = counterexample_search(Measure.LOG_NEGATIVITY, 1.0, (2, 2, 2), restarts=5, seed=2, max_steps=150)
    state = state_from_json(summary.offender)
    score = monogamy_score(MeasureKind(Measure.LOG_NEGATIVITY), state, 0, 1.0).score
    assert abs(score - summary.worst_margin) < 1e-12


def test_lowering_admits_by_the_ratio_of_parts_to_whole():
    # cos s|000> + sin s|11>(cos t|0> + sin t|1>): delta(1) = +7.98e-10 is
    # below 1e-9 only because the whole is 0.01, while h(1) - 1 = -7.97e-8.
    # The state is monogamous at r = 1, outside the lowering hypothesis
    s, t = math.asin(0.00696) / 2, 4e-4
    psi = np.zeros(8)
    psi[0], psi[6], psi[7] = math.cos(s), math.sin(s) * math.cos(t), math.sin(s) * math.sin(t)
    state = states.MultipartiteState.from_vector(psi, (2, 2, 2))
    summary = verify_lowering(Measure.LOG_NEGATIVITY, [state], 1.0, (0.5, 0.8), 0)
    assert summary.skipped == 1 and summary.violations == 0 and summary.passes == 0


def test_lowering_skips_when_hypothesis_fails():
    # W is monogamous in log-negativity at r = 1.2 (above the crossing), so
    # the non-monogamy hypothesis is unmet and the state is skipped, not
    # asserted against
    summary = verify_lowering(Measure.LOG_NEGATIVITY, W3, 1.2, (1.1,), seed=0)
    assert summary.skipped == 1
    assert summary.violations == 0 and summary.passes == 0
