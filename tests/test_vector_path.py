"""A state that carries its unit vector (``MultipartiteState._psi``) is
scored from that vector: whole cuts from its Schmidt coefficients, other
cuts from the vector form F, whose marginal and partial transpose one
einsum builds, exactly Hermitian. It must take the same branch, raise the
same errors and give the same values within 1e-12 as the matrix path of
the same state built by ``from_vector``, and every stacked route to the
vector path must give ``evaluate``'s bits.
"""

import functools
import itertools

import numpy as np
import oracles
import pytest

from monolab import states
from monolab.measures import (
    Cut,
    Measure,
    MeasureKind,
    MeasureUndefinedError,
    _marginal,
    _reduced,
    _score_stack,
    concurrence_pure_cut,
    eof_pure_cut,
    evaluate,
    tangle_rank2,
)
from monolab.monogamy import _cut_table, _hierarchy_cuts, _monogamy_cuts, _strong_cuts

KINDS = [MeasureKind(Measure.NEGATIVITY), MeasureKind(Measure.NEGATIVITY, normalized=True),
         MeasureKind(Measure.LOG_NEGATIVITY), MeasureKind(Measure.CONCURRENCE), MeasureKind(Measure.EOF),
         MeasureKind(Measure.DISCORD), MeasureKind(Measure.CLASSICAL_CORRELATION)]
DIMS = [(2, 2, 2), (2, 2, 2, 2), (3, 2, 2)]


def report_cuts(n: int) -> list[Cut]:
    """Every cut of the monogamy, strong and hierarchy reports of n parties,
    then two cuts whose sides interleave among the kept subsystems."""
    cuts = []
    for focus in range(n):
        cuts += [*_monogamy_cuts(n, focus), *_strong_cuts(n, focus)]
        cuts += [c for partner in range(n) if partner != focus for c in _hierarchy_cuts(n, focus, partner)]
    cuts += [Cut((0, 2), (1,)), Cut((1,), (0, 2))]
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


@pytest.mark.parametrize("cuts_of", [report_cuts, lambda n: _monogamy_cuts(n, 1), lambda n: _monogamy_cuts(n, 2)],
                         ids=["reports", "focus1", "focus2"])
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


@pytest.mark.parametrize("dims", DIMS + [(2, 3, 2, 2)], ids=lambda d: "x".join(map(str, d)))
def test_every_marginal_of_the_vector_form_is_exactly_hermitian(dims):
    psi = np.stack([s._psi for s in states.sample_states(states.EnsembleSpec("haar_pure", dims, 4), 27)])
    rho = psi[:, :, None] * psi.conj()[:, None, :]
    forms = 0
    for cut in report_cuts(len(dims)):
        f = _reduced(rho, dims, cut, psi)[0]
        if f.ndim != 4:  # a whole cut: Schmidt coefficients or the matrix
            continue
        forms += 1
        for transposed in (False, True):
            m = _marginal(f, transposed)
            assert m.shape == (4, f.shape[1] * f.shape[2], f.shape[1] * f.shape[2])
            assert np.array_equal(m, m.conj().swapaxes(-1, -2)), (cut, transposed)
    assert forms > 0


def test_the_vector_form_puts_side_a_first_and_contracts_to_the_marginal():
    # side A sits at position 1 of the kept subsystems (1, 2); F holds it first
    s = states.haar_pure((2, 3, 2), 28)
    f, rdims, a_pos, b_pos, da, db = _reduced(s.rho[None], s.dims, Cut((2,), (1,)), s._psi[None])
    assert f.shape == (1, 2, 3, 2) and (rdims, a_pos, b_pos, da, db) == ((2, 3), (0,), (1,), 2, 3)
    g = s._psi.reshape(2, 3, 2).transpose(2, 1, 0).reshape(6, 2)  # (a b, traced)
    rho = g @ g.conj().T
    assert np.allclose(_marginal(f)[0], rho, rtol=0, atol=1e-15)
    pt = rho.reshape(2, 3, 2, 3).transpose(2, 1, 0, 3).reshape(6, 6)
    assert np.allclose(_marginal(f, True)[0], pt, rtol=0, atol=1e-15)


def qubit_cuts(n: int) -> list[Cut]:
    """Every cut focus : X of n qubits with two or more parties in X and at
    least one party traced: the cuts that take the vector form's svd."""
    return [Cut((f,), x) for f in range(n) for size in range(2, n - 1)
            for x in itertools.combinations([j for j in range(n) if j != f], size)]


@pytest.mark.parametrize("n", [4, 5])
def test_the_vector_form_roof_is_tangle_rank2_of_its_marginal(n):
    # one svd of F against the eigensolve of the marginal: the same roof
    # within 1e-14, or the matrix path's error, text and all (the 5-qubit
    # focus : {j, k} marginals have rank 4)
    roofs = undefined = 0
    for i in range(3):
        vector = states.haar_pure((2,) * n, 29, i)
        matrix = states.MultipartiteState.from_vector(vector._psi, vector.dims)
        for cut in qubit_cuts(n):
            assert _reduced(vector.rho[None], vector.dims, cut, vector._psi[None])[0].ndim == 4
            got = outcome(lambda: evaluate(Measure.CONCURRENCE, vector, cut) ** 2)
            keep = sorted(cut.side_a + cut.side_b)
            rho = vector.marginal(keep).rho  # a checked matrix
            want = outcome(lambda: tangle_rank2(rho, (2,) * len(keep), keep.index(cut.side_a[0])))
            if isinstance(want, tuple):
                assert want[0] is MeasureUndefinedError and "rank > 2" in want[1]
                assert got == want == outcome(lambda: evaluate(Measure.CONCURRENCE, matrix, cut) ** 2), cut
                undefined += 1
            else:
                assert 0.0 < got and abs(got - want) < 1e-14, (cut, got, want)
                roofs += 1
    assert roofs > 0 and (undefined > 0) == (n == 5)


def test_the_chords_bound_the_vector_form_roof():
    # every two-point decomposition of the marginal bounds its convex roof
    for i in range(3):
        s = states.haar_pure((2, 2, 2, 2), 30, i)
        for cut in (Cut((0,), (1, 2)), Cut((3,), (0, 2))):
            tau = evaluate(Measure.CONCURRENCE, s, cut) ** 2
            keep = sorted(cut.side_a + cut.side_b)
            rho = s.marginal(keep).rho
            chord = oracles.tangle_roof_chords(rho, (2, 2, 2), keep.index(cut.side_a[0]), directions=1500, seed=i)
            assert tau <= chord + 1e-12
            assert chord - tau < 3e-3  # random-direction scan converges quadratically
