"""A state that carries its unit vector (``MultipartiteState._psi``) is
scored from that vector: whole cuts from its Schmidt coefficients, other
cuts from the marginal F F^dag. It must take the same branch, raise the
same errors and give the same values within 1e-12 as the matrix path of
the same state built by ``from_vector``, and every stacked route to the
vector path must give ``evaluate``'s bits.
"""

import functools

import numpy as np
import pytest

from monolab import states
from monolab.measures import (
    Cut,
    Measure,
    MeasureKind,
    MeasureUndefinedError,
    _score_stack,
    concurrence_pure_cut,
    eof_pure_cut,
    evaluate,
)
from monolab.monogamy import _cut_table, _hierarchy_cuts, _monogamy_cuts, _strong_cuts

KINDS = [MeasureKind(Measure.NEGATIVITY), MeasureKind(Measure.NEGATIVITY, normalized=True),
         MeasureKind(Measure.LOG_NEGATIVITY), MeasureKind(Measure.CONCURRENCE), MeasureKind(Measure.EOF),
         MeasureKind(Measure.DISCORD), MeasureKind(Measure.CLASSICAL_CORRELATION)]
DIMS = [(2, 2, 2), (2, 2, 2, 2), (3, 2, 2)]


def report_cuts(n: int) -> list[Cut]:
    """Every cut of the monogamy, strong and hierarchy reports of n parties."""
    cuts = []
    for focus in range(n):
        cuts += [*_monogamy_cuts(n, focus), *_strong_cuts(n, focus)]
        cuts += [c for partner in range(n) if partner != focus for c in _hierarchy_cuts(n, focus, partner)]
    return list(dict.fromkeys(cuts))


def outcome(fn):
    """fn()'s value, or the type and message of the ValueError it raises."""
    try:
        return fn()
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("dims", DIMS, ids=lambda d: "x".join(map(str, d)))
def test_vector_and_matrix_paths_agree(dims):
    cuts = report_cuts(len(dims))
    for i in range(3):
        vector = states.haar_pure(dims, 21, i)
        matrix = states.MultipartiteState.from_vector(vector._psi, dims)
        assert vector._psi is not None and matrix._psi is None
        for kind in KINDS:
            for cut in cuts:
                got = outcome(lambda: evaluate(kind, vector, cut))
                want = outcome(lambda: evaluate(kind, matrix, cut))
                if isinstance(want, tuple):
                    assert got == want, (kind, cut)
                else:
                    assert abs(got - want) < 1e-12, (kind, cut, got, want)
        for fn in (concurrence_pure_cut, eof_pure_cut):
            for cut in cuts:
                got, want = outcome(lambda: fn(vector, cut)), outcome(lambda: fn(matrix, cut))
                assert got == want if isinstance(want, tuple) else abs(got - want) < 1e-12, (fn, cut)


def test_a_two_qubit_whole_cut_keeps_the_matrix_branches():
    # Wootters, the two-qubit EoF and the Bloch form see the matrix itself
    vector = states.haar_pure((2, 2), 22)
    matrix = states.MultipartiteState.from_vector(vector._psi, (2, 2))
    for kind in KINDS:
        assert evaluate(kind, vector, Cut((0,), (1,))) == evaluate(kind, matrix, Cut((0,), (1,)))


def test_the_whole_cut_of_a_vector_state_takes_the_schmidt_identities():
    s = states.haar_pure((2, 2, 2), 23)
    schmidt = np.linalg.svd(s._psi.reshape(2, 4), compute_uv=False)
    whole = Cut((0,), (1, 2))
    assert evaluate(Measure.NEGATIVITY, s, whole) == 0.5 * (schmidt.sum() ** 2 - 1.0)
    assert evaluate(Measure.CONCURRENCE, s, whole) == 2.0 * schmidt[0] * schmidt[1]
    p = schmidt**2
    assert abs(evaluate(Measure.EOF, s, whole) + (p * np.log2(p)).sum()) < 1e-15


@pytest.mark.parametrize("cuts_of", [report_cuts, lambda n: _monogamy_cuts(n, 1)], ids=["reports", "focus1"])
def test_the_cut_table_gives_evaluate_bits_on_vector_states(cuts_of):
    # vector states of three dims, with matrix states of the same dims among them
    sts = [s for dims in DIMS for s in states.sample_states(states.EnsembleSpec("haar_pure", dims, 3), 24)]
    sts[1:1] = [states.ghz(3), states.random_mixed((3, 2, 2), 1, 24),
                states.MultipartiteState.from_vector(sts[0]._psi, (2, 2, 2))]
    for kind in KINDS:
        want = outcome(lambda: [tuple(evaluate(kind, s, c) for c in cuts_of(s.n_subsystems)) for s in sts])
        got = outcome(lambda: _cut_table(functools.partial(_score_stack, kind), sts, cuts_of))
        assert got == want, kind


@pytest.mark.parametrize("dims", DIMS + [(2,) * 6], ids=lambda d: "x".join(map(str, d)))
def test_a_bulk_draw_carries_haar_pures_vector(dims):
    drawn = states.sample_states(states.EnsembleSpec("haar_pure", dims, 5), 25)
    for i, s in enumerate(drawn):
        one = states.haar_pure(dims, 25, i)
        assert s._psi.tobytes() == one._psi.tobytes() and s.rho.tobytes() == one.rho.tobytes()
        assert not s._psi.flags.writeable
    mixed = states.sample_states(states.EnsembleSpec("random_mixed", dims, 3, ranks=(1,)), 25)
    assert all(s._psi is None for s in mixed)
    kind = MeasureKind(Measure.LOG_NEGATIVITY)
    cut = Cut((0,), tuple(range(1, len(dims))))
    assert [evaluate(kind, s, cut) for s in drawn] == [evaluate(kind, states.haar_pure(dims, 25, i), cut)
                                                       for i in range(5)]


def test_undefined_cuts_raise_the_matrix_paths_message_on_vectors():
    s = states.haar_pure((3, 2, 2), 26)
    message = "^concurrence undefined on a 3x4 cut with a non-qubit A side$"
    with pytest.raises(MeasureUndefinedError, match=message):
        evaluate(Measure.CONCURRENCE, s, Cut((0,), (1, 2)))
    with pytest.raises(MeasureUndefinedError, match="^discord defined only on 2x2 cuts, requested 2x6$"):
        evaluate(Measure.DISCORD, s, Cut((1,), (0, 2)))
