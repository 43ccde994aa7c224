"""The stacked path scores a whole ensemble one cut at a time; it must give
exactly what a loop over the states gives, value for value and error for
error.

Equality here is exact (==), not within a tolerance: a stacked numpy call
runs the same operations in the same order on each matrix, so any last-bit
difference is a defect.
"""

import math

import numpy as np
import pytest

from monolab import states, tensor, verify
from monolab.measures import (
    Cut,
    Measure,
    MeasureKind,
    MeasureUndefinedError,
    _evaluate_stack,
    concurrence_two_qubit,
    eof_from_concurrence,
    eof_pure_cut,
    eof_two_qubit,
    evaluate,
)
from monolab.monogamy import _base_values_stack, _delta, base_values


def ensemble(family, n, count=12, seed=5):
    """Haar states, or random_mixed states cycling through ranks 1..8."""
    if family == "haar":
        return states.sample_states(states.EnsembleSpec("haar_pure", (2,) * n, count), seed)
    spec = states.EnsembleSpec("random_mixed", (2,) * n, count, ranks=tuple(range(1, 9)))
    return states.sample_states(spec, seed)


def per_state(kind, sts, focus):
    """What the suites computed before stacking: base_values state by state."""
    return [base_values(kind, s, focus) for s in sts]


def raised_by(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return type(info.value), str(info.value)


# (kind, ensemble family, qubits, focus); each row exercises the named branch
BRANCHES = [
    (MeasureKind(Measure.NEGATIVITY), "mixed", 3, 0),
    (MeasureKind(Measure.NEGATIVITY, normalized=True), "haar", 4, 2),
    (MeasureKind(Measure.LOG_NEGATIVITY), "mixed", 4, 0),
    (MeasureKind(Measure.LOG_NEGATIVITY), "haar", 3, 1),
    (MeasureKind(Measure.CONCURRENCE), "haar", 3, 0),  # Wootters pairs, pure-cut whole
    (MeasureKind(Measure.CONCURRENCE, normalized=True), "haar", 4, 3),
    (MeasureKind(Measure.EOF), "haar", 3, 0),  # Wootters pairs, entanglement-entropy whole
    (MeasureKind(Measure.EOF), "haar", 4, 1),
]


@pytest.mark.parametrize("kind,family,n,focus", BRANCHES,
                         ids=[f"{k.label()}-{f}{n}q-focus{c}" for k, f, n, c in BRANCHES])
def test_base_values_stack_equals_the_per_state_loop(kind, family, n, focus):
    sts = ensemble(family, n)
    assert _base_values_stack(kind, sts, focus) == per_state(kind, sts, focus)


def test_rank2_roof_and_pure_cut_mix_in_one_stack():
    # ranks 1 and 2 only: the whole cut takes the pure-cut formula on some
    # rows and the rank-2 roof on the others, inside one stacked call
    spec = states.EnsembleSpec("random_mixed", (2, 2, 2), 10, ranks=(1, 2))
    sts = states.sample_states(spec, 3)
    kind = MeasureKind(Measure.CONCURRENCE)
    assert _base_values_stack(kind, sts, 0) == per_state(kind, sts, 0)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("family", ["haar", "mixed"])
def test_every_cut_of_a_stack_equals_evaluate(family, n):
    sts = ensemble(family, n, count=8)
    rho = np.stack([s.rho for s in sts])
    dims = (2,) * n
    cuts = [Cut((0,), (1,)), Cut((n - 1,), (0,)), Cut((0,), tuple(range(1, n))),
            Cut((1,), (0, n - 1)), Cut((0, 1), tuple(range(2, n)))]
    kinds = [MeasureKind(Measure.NEGATIVITY), MeasureKind(Measure.LOG_NEGATIVITY),
             MeasureKind(Measure.CONCURRENCE), MeasureKind(Measure.EOF)]
    for kind in kinds:
        for cut in cuts:
            try:
                want = [evaluate(kind, s, cut) for s in sts]
            except MeasureUndefinedError:
                want = raised_by(lambda: [evaluate(kind, s, cut) for s in sts])
                assert raised_by(lambda: _evaluate_stack(kind, rho, dims, cut)) == want
                continue
            assert _evaluate_stack(kind, rho, dims, cut) == want, (kind, cut)


def test_empty_ensemble():
    assert _base_values_stack(Measure.NEGATIVITY, [], 0) == []
    summary = verify.verify_mixed_lifting(Measure.NEGATIVITY, [], 0)
    assert summary.count == 0 and summary.ok


def test_explicit_list_mixing_dims():
    sts = [states.haar_pure((2, 2, 2), 1), states.haar_pure((2, 2, 2, 2), 1),
           states.random_mixed((2, 2, 2), 2, 1), states.w(4), states.ghz(3),
           states.random_mixed((2, 3, 2), 4, 2), states.random_mixed((2, 2, 2, 2), 5, 2)]
    for kind in (Measure.NEGATIVITY, Measure.LOG_NEGATIVITY):
        assert _base_values_stack(kind, sts, 0) == per_state(kind, sts, 0)
    summary = verify.verify_mixed_lifting(Measure.NEGATIVITY, sts, 0)
    one_by_one = [verify.verify_mixed_lifting(Measure.NEGATIVITY, [s], 0) for s in sts]
    assert summary.count == len(sts)
    assert summary.worst_margin == min(s.worst_margin for s in one_by_one)


@pytest.mark.parametrize("sts", [
    # rank-3 whole cuts: the first failing state is in the first dims group
    [states.haar_pure((2, 2, 2), 1), states.random_mixed((2, 2, 2), 3, 1),
     states.random_mixed((2, 2, 2), 4, 2)],
    # the first failing state (index 1) has dims that appear after index 0's
    # group, which also fails later on (index 2): the loop's error is index 1's
    [states.haar_pure((2, 2, 2), 1), states.random_mixed((2, 2, 2, 2), 3, 1),
     states.random_mixed((2, 2, 2), 3, 2)],
    # a two-party state fails the monogamy check itself
    [states.haar_pure((2, 2, 2), 1), states.ghz(2)],
], ids=["rank3", "second-group-first", "two-parties"])
def test_undefined_raises_what_the_loop_raises(sts):
    kind = MeasureKind(Measure.CONCURRENCE)
    want = raised_by(lambda: per_state(kind, sts, 0))
    assert raised_by(lambda: _base_values_stack(kind, sts, 0)) == want


def test_undefined_message_names_the_first_failing_state():
    sts = [states.random_mixed((2, 2, 2), 3, 7), states.random_mixed((2, 2, 2), 4, 8)]
    first = raised_by(lambda: base_values(Measure.CONCURRENCE, sts[0], 0))
    assert raised_by(lambda: _base_values_stack(Measure.CONCURRENCE, sts, 0)) == first
    assert first[0] is MeasureUndefinedError


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_kernels_on_a_stack_equal_one_matrix_at_a_time(rank):
    sts = [states.random_mixed((2, 2, 2), rank, 11, index=i) for i in range(6)]
    rho = np.stack([s.rho for s in sts]).reshape(2, 3, 8, 8)  # two stack axes
    pairs = tensor.partial_trace(rho, (2, 2, 2), (0, 2))
    for i, j in np.ndindex(2, 3):
        one = rho[i, j]
        assert np.array_equal(pairs[i, j], tensor.partial_trace(one, (2, 2, 2), (0, 2)))
        assert np.array_equal(tensor.partial_transpose(rho, (2, 2, 2), (1,))[i, j],
                              tensor.partial_transpose(one, (2, 2, 2), (1,)))
        assert tensor.trace_norm_hermitian(rho)[i, j] == tensor.trace_norm_hermitian(one)
        assert tensor.purity(rho)[i, j] == tensor.purity(one)
        assert tensor.von_neumann_entropy(rho)[i, j] == tensor.von_neumann_entropy(one)
        assert concurrence_two_qubit(pairs)[i, j] == concurrence_two_qubit(pairs[i, j])
        assert eof_two_qubit(pairs)[i, j] == eof_two_qubit(pairs[i, j])
    # a stack of one (1, d, d): an array of one value, equal to the float of
    # the matrix on its own
    one, pair = rho[1, 2], pairs[1, 2]
    assert np.array_equal(tensor.partial_trace(one[None], (2, 2, 2), (0, 2)), pair[None])
    assert np.array_equal(tensor.partial_transpose(one[None], (2, 2, 2), (1,)),
                          tensor.partial_transpose(one, (2, 2, 2), (1,))[None])
    for kernel, m in [(tensor.trace_norm_hermitian, one), (tensor.purity, one),
                      (tensor.von_neumann_entropy, one), (concurrence_two_qubit, pair),
                      (eof_two_qubit, pair)]:
        value, stacked = kernel(m), kernel(m[None])
        assert type(value) is float
        assert isinstance(stacked, np.ndarray) and stacked.shape == (1,)
        assert stacked[0] == value, kernel.__name__


W3_PAIR, W3_WHOLE = Cut((0,), (1,)), Cut((0,), (1, 2))
RANK2 = states.random_mixed((2, 2, 2), 2, 3)


@pytest.mark.parametrize("kind,state,cut", [
    (Measure.NEGATIVITY, states.w(3), W3_WHOLE),
    (Measure.LOG_NEGATIVITY, states.w(3), W3_PAIR),
    (Measure.CONCURRENCE, states.w(3), W3_PAIR),  # Wootters
    (Measure.CONCURRENCE, states.w(3), W3_WHOLE),  # pure cut
    (Measure.CONCURRENCE, RANK2, W3_WHOLE),  # rank-2 roof
    (Measure.EOF, states.w(3), W3_WHOLE),  # entanglement entropy
    (Measure.EOF, states.w(3), W3_PAIR),  # Wootters
    (Measure.DISCORD, RANK2, W3_PAIR),
    (Measure.CLASSICAL_CORRELATION, RANK2, W3_PAIR),
], ids=["negativity", "lognegativity", "wootters", "pure", "roof2", "entropy", "eof-wootters",
        "discord", "classical"])
def test_evaluate_returns_a_python_float_on_every_branch(kind, state, cut):
    assert state is not RANK2 or not RANK2.is_pure()  # the roof, not the pure-cut identity
    value = evaluate(kind, state, cut)
    assert type(value) is float and value > 0.0


def test_stack_checks_reject_any_bad_matrix():
    good = states.w(3).rho
    bad = good.copy()
    bad[0, 1] += 1e-6  # not Hermitian
    with pytest.raises(ValueError, match="not Hermitian"):
        tensor.require_hermitian(np.stack([good, bad]))
    infinite = good.copy()
    infinite[2, 2] = np.inf  # inf - inf on the diagonal would warn before the check
    with pytest.raises(ValueError, match="not Hermitian: it has a non-finite entry"):
        tensor.require_hermitian(np.stack([good, infinite]))
    with pytest.raises(ValueError, match="trace"):
        tensor.require_density(np.stack([good, 2.0 * good]))
    with pytest.raises(ValueError, match="square"):
        tensor.partial_trace(np.zeros((2, 8, 4)), (2, 2, 2), (0,))


def test_strong_and_hierarchy_still_score_state_by_state(monkeypatch):
    calls = {"strong": 0, "score": 0, "chain": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(verify, "strong_monogamy_report",
                        counting("strong", verify.strong_monogamy_report))
    monkeypatch.setattr(verify, "monogamy_score", counting("score", verify.monogamy_score))
    monkeypatch.setattr(verify, "hierarchy_chain", counting("chain", verify.hierarchy_chain))
    spec = states.EnsembleSpec("haar_pure", (2, 2, 2, 2), 3)
    kind = MeasureKind(Measure.CONCURRENCE, True)
    assert verify.verify_strong_chain(kind, spec, 2.0, 1).count == 3
    assert verify.verify_hierarchy_chain(kind, spec, 2.0, 1).count == 3
    assert calls == {"strong": 3, "score": 3, "chain": 3}


def test_functional_lift_on_two_qubits_keeps_the_entanglement_entropy():
    # on two qubits the whole cut is the pair cut, and evaluate(EOF) would
    # take Wootters' formula there; the lift's whole-cut value stays S(rho_A)
    s = states.haar_pure((2, 2), 4)
    cut = Cut((0,), (1,))
    c = evaluate(Measure.CONCURRENCE, s, cut)
    eofs = [eof_from_concurrence(c)]
    want = min(_delta(eof_pure_cut(s, cut), eofs, 2.0),
               _delta(eof_from_concurrence(math.sqrt(min(c * c, 1.0))), eofs, 2.0))
    assert verify.verify_functional_lift([s], 2.0, 0).worst_margin == want
