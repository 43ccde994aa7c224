import dataclasses
import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolab import states, tensor

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def swap_qubits(rho, n, i, j):
    perm = list(range(n))
    perm[i], perm[j] = perm[j], perm[i]
    t = rho.reshape((2,) * (2 * n))
    t = np.transpose(t, perm + [p + n for p in perm])
    return t.reshape(2**n, 2**n)


# ---------------------------------------------------------------------------
# named states
# ---------------------------------------------------------------------------

def test_ghz2_is_bell_state():
    phi_plus = np.zeros(4)
    phi_plus[0] = phi_plus[3] = 1 / math.sqrt(2)
    assert np.abs(states.ghz(2).rho - np.outer(phi_plus, phi_plus)).max() < 1e-15


def test_ghz3_marginals():
    g = states.ghz(3)
    one = tensor.partial_trace(g.rho, g.dims, [1])
    assert np.abs(one - np.eye(2) / 2).max() < 1e-15
    two = tensor.partial_trace(g.rho, g.dims, [0, 2])
    assert np.abs(two - np.diag([0.5, 0.0, 0.0, 0.5])).max() < 1e-15


def test_w2_definition():
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2)
    assert np.abs(states.w(2).rho - np.outer(psi, psi)).max() < 1e-15


def test_w3_reduced_spectrum():
    marg = states.w(3).marginal([0])
    lam = tensor._density_eig(marg.rho)[1]
    assert np.abs(lam - np.array([1 / 3, 2 / 3])).max() < 1e-12


def test_named_state_rejects_small_n():
    with pytest.raises(ValueError):
        states.ghz(1)
    with pytest.raises(ValueError):
        states.w(1)
    with pytest.raises(ValueError):
        states.named_state("bogus")
    with pytest.raises(ValueError, match="^unknown named state 3 "):
        states.named_state(3)


@pytest.mark.parametrize("maker,n", [(states.ghz, 3), (states.w, 3), (states.ghz, 4), (states.w, 4)])
def test_permutation_symmetry(maker, n):
    rho = maker(n).rho
    for i, j in itertools.combinations(range(n), 2):
        assert np.abs(swap_qubits(rho, n, i, j) - rho).max() < 1e-12


# ---------------------------------------------------------------------------
# white noise
# ---------------------------------------------------------------------------

def test_white_noise_endpoints():
    g = states.ghz(3)
    assert np.abs(states.white_noise_mix(g, 0.0).rho - g.rho).max() == 0.0
    assert np.abs(states.white_noise_mix(g, 1.0).rho - np.eye(8) / 8).max() < 1e-15


def test_white_noise_half_spectrum():
    mixed = states.white_noise_mix(states.ghz(3), 0.5)
    lam = tensor._density_eig(mixed.rho)[1][::-1]
    expected = np.array([0.5 + 0.5 / 8] + [0.5 / 8] * 7)
    assert np.abs(lam - expected).max() < 1e-12


def test_white_noise_rejects_bad_p():
    with pytest.raises(ValueError):
        states.white_noise_mix(states.ghz(3), -0.1)
    with pytest.raises(ValueError):
        states.white_noise_mix(states.ghz(3), 1.1)
    with pytest.raises(ValueError, match=r"^noise weight p must lie in \[0\.0, 1\.0\], got True$"):
        states.white_noise_mix(states.w(3), True)  # once the maximally mixed state


@given(p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_white_noise_composes_affinely(p, q):
    base = states.w(3)
    twice = states.white_noise_mix(states.white_noise_mix(base, p), q)
    once = states.white_noise_mix(base, 1.0 - (1.0 - p) * (1.0 - q))
    assert np.abs(twice.rho - once.rho).max() < 1e-12


# ---------------------------------------------------------------------------
# classical correlation state
# ---------------------------------------------------------------------------

def test_classical_state_diagonal():
    rho = states.classical_corr_state().rho
    assert np.abs(np.diag(rho) - np.array([0.5, 0, 0, 0, 0, 0, 0, 0.5])).max() == 0.0
    assert np.abs(rho - np.diag(np.diag(rho))).max() == 0.0


def test_classical_state_two_party_marginals():
    s = states.classical_corr_state()
    for keep in ([0, 1], [0, 2], [1, 2]):
        marg = tensor.partial_trace(s.rho, s.dims, keep)
        assert np.abs(marg - np.diag([0.5, 0.0, 0.0, 0.5])).max() < 1e-15


# ---------------------------------------------------------------------------
# random ensembles
# ---------------------------------------------------------------------------

def test_haar_pure_is_pure_and_reproducible():
    s1 = states.haar_pure((2, 2, 2), seed=42)
    s2 = states.haar_pure((2, 2, 2), seed=42)
    assert abs(s1.purity() - 1.0) < 1e-10
    assert np.array_equal(s1.rho, s2.rho)
    s3 = states.haar_pure((2, 2, 2), seed=43)
    assert not np.array_equal(s1.rho, s3.rho)


def test_a_state_with_its_vector_is_pure_without_a_purity_product(monkeypatch):
    pure = states.haar_pure((2, 2, 2), seed=42)
    mixed = states.random_mixed((2, 2, 2), rank=2, seed=42)
    monkeypatch.setattr(tensor, "purity", lambda rho: pytest.fail("purity computed"))
    assert pure.is_pure()
    with pytest.raises(pytest.fail.Exception, match="purity computed"):
        mixed.is_pure()


def test_haar_pure_marginal_concentrates_on_maximally_mixed():
    total = np.zeros((2, 2), dtype=complex)
    n = 10_000
    for i in range(n):
        s = states.haar_pure((2, 2, 2), seed=7, index=i)
        total += tensor.partial_trace(s.rho, s.dims, [0])
    assert np.abs(total / n - np.eye(2) / 2).max() < 0.02


def test_random_mixed_rank_and_trace():
    pure = states.random_mixed((2, 2, 2), rank=1, seed=5)
    assert abs(pure.purity() - 1.0) < 1e-10
    full = states.random_mixed((2, 2, 2), rank=8, seed=5)
    lam = tensor._density_eig(full.rho)[1]
    assert lam[0] > 0.0
    for i in range(10):
        s = states.random_mixed((2, 2, 2), rank=i % 8 + 1, seed=11, index=i)
        assert abs(np.trace(s.rho) - 1.0) < 1e-10
        lam = tensor._density_eig(s.rho)[1][::-1]
        assert lam[i % 8 + 1 :].max(initial=0.0) < 1e-12  # rank bounded


def test_random_mixed_rejects_bad_rank():
    with pytest.raises(ValueError):
        states.random_mixed((2, 2), 0, seed=1)
    with pytest.raises(ValueError):
        states.random_mixed((2, 2), 5, seed=1)
    with pytest.raises(ValueError, match=r"^rank must be an integer in 1\.\.4, got 2\.7$"):
        states.random_mixed((2, 2), 2.7, seed=1)  # once drew rank 2


@given(seed=seeds)
@settings(max_examples=15, deadline=None)
def test_constructors_satisfy_state_invariants(seed):
    # construction itself validates Hermiticity, trace, and positivity
    states.haar_pure((2, 2, 2), seed)
    states.random_mixed((2, 2, 2), rank=int(seed % 8 + 1), seed=seed)
    states.white_noise_mix(states.w(3), (seed % 100) / 100.0)


def test_box_muller_moments():
    rng = states.generator(123)
    z = states.box_muller(rng, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


@pytest.mark.parametrize("draw,bad", [
    pytest.param(lambda n: states.box_muller(states.generator(0), n), bad, id=f"box_muller-{bad!r}")
    for bad in (-1, 0, True, 2.0, "2", None)
] + [
    pytest.param(lambda n: states.haar_vector(n, states.generator(0)), bad, id=f"haar_vector-{bad!r}")
    for bad in (-1, 0, False, 3.0, "3")
])
def test_every_count_of_variates_is_an_integer_of_at_least_one(draw, bad):
    # -1 and 0 once gave empty arrays, True one variate, 2.0 a bare TypeError
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        draw(bad)
    assert len(draw(np.int64(3))) == 3


def test_the_search_step_draws_box_mullers_variate_bit_for_bit():
    scalar, array = states.generator(5, 1), states.generator(5, 1)
    for _ in range(20_000):
        z = states._normal(scalar)
        assert type(z) is float and z == states.box_muller(array, 1)[0]
    assert scalar.random() == array.random()  # both consumed the same uniforms


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e308, 1e-200, 1e-320])
def test_the_unit_vector_keeps_np_linalg_norms_bits(scale):
    rng = np.random.default_rng(31)
    for d in (1, 2, 8, 64):
        psi = (rng.normal(size=d) + 1j * rng.normal(size=d)) * 0.5 * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = states._unit_vector(psi)
        with np.errstate(all="ignore"):
            norm = np.linalg.norm(psi)
        if 2.0**-500 < norm < 2.0**500:
            assert got.tobytes() == (psi / norm).tobytes()
        else:  # rescaled by its largest part first
            scaled = (psi.view(float) / np.abs(psi.view(float)).max()).view(complex)
            assert got.tobytes() == (scaled / np.linalg.norm(scaled)).tobytes()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_state_json_roundtrip(tmp_path):
    for s in (states.haar_pure((2, 2, 2), seed=9), states.random_mixed((2, 3), 3, 4)):
        obj = states.state_to_json(s)
        assert set(obj) == {"dims", "rho_re", "rho_im"}
        back = states.state_from_json(obj)
        assert back.dims == s.dims
        assert back.rho.tobytes() == s.rho.tobytes()
        path = tmp_path / "state.json"
        states.save_state(s, path)
        loaded = states.load_state(path)
        assert loaded.dims == s.dims
        assert loaded.rho.tobytes() == s.rho.tobytes()
        # the file is plain JSON with the documented keys
        raw = json.loads(path.read_text())
        assert raw["dims"] == list(s.dims)


@pytest.mark.parametrize("rho_im", [0, [0.0], [[0.0] * 8], np.zeros((4, 16))],
                         ids=["scalar", "one-entry", "one-row", "other-shape"])
def test_state_from_json_broadcasts_neither_part(rho_im):
    obj = {**states.state_to_json(states.ghz(3)), "rho_im": rho_im}
    shapes = rf"\(8, 8\) and {re.escape(str(np.shape(rho_im)))}"
    with pytest.raises(ValueError, match=rf"^rho_re and rho_im must have one square shape, got {shapes}$"):
        states.state_from_json(obj)
    obj = {"dims": [2], "rho_re": [[0.5, 0.5]] * 2 + [[0.0, 0.0]], "rho_im": [[0.0, 0.0]] * 3}
    with pytest.raises(ValueError, match=r"one square shape, got \(3, 2\) and \(3, 2\)$"):
        states.state_from_json(obj)


@pytest.mark.parametrize("key,entry", [("rho_re", True), ("rho_re", "1"), ("rho_im", False), ("rho_im", "0"),
                                       ("rho_re", None), ("rho_im", math.inf)],
                         ids=["true", "string-one", "false", "string-zero", "null", "inf"])
def test_state_from_json_reads_each_entry_by_the_real_rule(key, entry, tmp_path):
    # |00><00| with its first entry spelled as a value numpy would read as
    # the same number; the dims rule rejects "2" in dims the same way
    obj = {"dims": [2, 2], "rho_re": np.diag([1.0, 0.0, 0.0, 0.0]).tolist(), "rho_im": [[0.0] * 4] * 4}
    obj[key] = [[entry, *row[1:]] if i == 0 else row for i, row in enumerate(obj[key])]
    message = rf"^{key} entry must lie in \(-inf, inf\), got {re.escape(repr(entry))}$"
    with pytest.raises(ValueError, match=message):
        states.state_from_json(obj)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=message):
        states.load_state(path)


def test_state_invariant_rejections():
    with pytest.raises(ValueError):
        states.MultipartiteState(np.diag([0.6, 0.6]), (2,))  # trace
    with pytest.raises(ValueError):
        states.MultipartiteState(np.array([[0.5, 0.5], [-0.5, 0.5]]), (2,))  # hermiticity
    with pytest.raises(ValueError):
        states.MultipartiteState(np.diag([1.5, -0.5]), (2,))  # positivity
    with pytest.raises(ValueError):
        states.MultipartiteState(np.eye(4) / 4, (2, 3))  # dims mismatch
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(1, 3\)$"):
        states.MultipartiteState([[1, 2, 3]], (3,))
    # non-finite entries: every comparison with NaN is false
    for rho in (np.full((2, 2), np.nan), np.diag([np.nan, 1.0]), np.diag([np.inf, -np.inf])):
        with pytest.raises(ValueError, match="not Hermitian"):
            states.MultipartiteState(rho, (2,))
    for psi in ([1.0, np.nan, 0.0, 0.0], [1.0, np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="positive and finite"):
            states.MultipartiteState.from_vector(psi, (2, 2))
    with pytest.raises(ValueError, match="too large to check"):
        states.MultipartiteState(np.array([[0.5, 1e308], [1e308, 0.5]]), (2,))


@pytest.mark.parametrize("build", [
    lambda dims: states.MultipartiteState(np.eye(4) / 4, dims),
    lambda dims: states.MultipartiteState.from_vector([1.0, 0.0, 0.0, 0.0], dims),
    lambda dims: states.MultipartiteState._pure([1.0, 0.0, 0.0, 0.0], dims),
    lambda dims: states.state_from_json({"dims": list(dims), "rho_re": np.eye(4) / 4, "rho_im": np.zeros((4, 4))}),
])
def test_every_constructor_checks_its_dims(build):
    # int() truncation used to build these on (2, 2); (2.0, 2) hashes like
    # (2, 2), so a cached check of (2, 2) must not let it through either
    assert build((2, 2)).dims == (2, 2)
    for dims, bad in [((2.5, 2), "2.5"), ((2.9, 2), "2.9"), ((2.6, 2), "2.6"), ((2.0, 2), "2.0"),
                      (("2", "2"), "'2'"), ((2, True), "True"), ((4, 1), "1")]:
        with pytest.raises(ValueError, match=f"^subsystem dimension must be an integer >= 2, got {bad}$"):
            build(dims)
    with pytest.raises(ValueError, match="dims must be nonempty"):
        build(())
    state = build((np.int64(2), np.uint8(2)))
    assert state.dims == (2, 2) and all(type(d) is int for d in state.dims)


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2), (2,) * 6])
def test_every_constructor_stores_an_exactly_hermitian_read_only_matrix(dims):
    # rho == rho^dag bit for bit: the marginals and partial transposes of
    # a state are then exactly Hermitian too, and nothing symmetrizes them
    d = math.prod(dims)
    rng = np.random.default_rng(d)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    mixed = states.random_mixed(dims, 3, 1)
    skewed = mixed.rho + 1e-11j * np.triu(np.ones((d, d)), 1)  # a Hermiticity defect within 1e-10
    built = [
        states.MultipartiteState.from_vector(psi, dims),
        states.haar_pure(dims, 1),
        mixed,
        states.white_noise_mix(mixed, 0.4),
        states.state_from_json({"dims": list(dims), "rho_re": skewed.real, "rho_im": skewed.imag}),
        mixed.marginal((0,)),
        mixed.marginal((1, 0)),
    ]
    for family in ("haar_pure", "random_mixed"):
        for p_grid in (None, (0.0, 0.3, 1.0)):
            built += states.sample_states(states.EnsembleSpec(family, dims, 3, p_grid=p_grid), 2)
    if dims == (2, 2, 2):
        built += [states.ghz(3), states.w(3), states.classical_corr_state()]
    if dims == (2,) * 6:
        built += [states.ghz(6), states.w(6), states.white_noise_mix(states.w(6), 0.3)]
    for state in built:
        assert np.array_equal(state.rho, state.rho.conj().T)
        assert not state.rho.flags.writeable


def test_a_real_state_is_stored_as_float64_and_any_other_as_complex128():
    # realness is decided once, when a checked state is built: an imaginary
    # part that is all zero, -0.0 included, leaves a float64 matrix
    dims = (2, 2, 2)
    zero = [[0.0] * 8] * 8
    real_rho = states.white_noise_mix(states.w(3), 0.3).rho.tolist()
    named = [states.ghz(3), states.w(3), states.classical_corr_state()]
    real = [
        *named,
        *(states.white_noise_mix(s, 0.3) for s in named),
        states.ghz(4).marginal((2, 0)),
        states.MultipartiteState.from_vector(np.arange(8.0), dims),
        states.state_from_json({"dims": dims, "rho_re": real_rho, "rho_im": zero}),
        states.state_from_json({"dims": dims, "rho_re": real_rho, "rho_im": [[-0.0] * 8] * 8}),
    ]
    complex_ = [
        states.haar_pure(dims, 1),
        states.random_mixed(dims, 3, 1),
        *states.sample_states(states.EnsembleSpec("haar_pure", dims, 2), 1),
        *states.sample_states(states.EnsembleSpec("random_mixed", dims, 2), 1),
        # the counterexample search's states, even on a real vector
        states.MultipartiteState._pure(np.arange(8.0), dims),
    ]
    assert [s.rho.dtype for s in real] == [np.float64] * len(real)
    assert [s.rho.dtype for s in complex_] == [np.complex128] * len(complex_)
    # the JSON of a real state is the one a complex128 matrix wrote: rho_im is 0.0
    text = json.dumps(states.state_to_json(states.white_noise_mix(states.w(2), 0.3)))
    assert text == (
        '{"dims": [2, 2], "rho_re": [[0.075, 0.0, 0.0, 0.0], [0.0, 0.42500000000000004, '
        '0.35000000000000003, 0.0], [0.0, 0.35000000000000003, 0.42500000000000004, 0.0], '
        '[0.0, 0.0, 0.0, 0.075]], "rho_im": [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], '
        '[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]}'
    )
    for state in real:
        im = states.state_to_json(state)["rho_im"]
        assert not np.any(im) and "-0.0" not in json.dumps(im)


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e308, 1e-320])
def test_from_vector_normalizes_huge_and_tiny_vectors(scale):
    # the norm of such a vector over- or underflows; it is rescaled first
    psi = np.array([1.0, 1.0j, 0.0, 1.0])
    expected = states.MultipartiteState.from_vector(psi, (2, 2)).rho
    rho = states.MultipartiteState.from_vector(scale * psi, (2, 2)).rho
    assert np.abs(rho - expected).max() < 1e-15


# ---------------------------------------------------------------------------
# vector-checked states
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2), (3, 2, 2)])
def test_a_vector_checked_state_is_from_vectors_state(dims):
    d = math.prod(dims)
    rng = np.random.default_rng(d)
    vectors = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(20)]
    vectors += [1e200 * vectors[0], np.eye(d)[d - 1]]
    for psi in vectors:
        want = states.MultipartiteState.from_vector(psi, dims)
        got = states.MultipartiteState._pure(psi, dims)
        # a real vector's checked state is stored as float64, the real part
        # of the vector-checked state's complex128 matrix, whose imaginary part is zero
        same = got.rho if want.rho.dtype == complex else got.rho.real
        assert same.tobytes() == want.rho.tobytes() and got.dims == want.dims == dims
        assert got.rho.dtype == complex and (want.rho.dtype == complex or not got.rho.imag.any())
        assert not got.rho.flags.writeable and want._psi is None
        assert np.array_equal(got._psi[:, None] @ got._psi.conj()[None, :], got.rho)
    for i in range(5):
        got = states.haar_pure(dims, 6, i)
        want = states.MultipartiteState.from_vector(states.haar_vector(d, states.generator(6, i)), dims)
        assert got.rho.tobytes() == want.rho.tobytes() and got._psi is not None


def test_a_vector_checked_state_keeps_the_vector_read_only():
    state = states.haar_pure((2, 2), 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        state._psi = np.zeros(4, dtype=complex)
    with pytest.raises(ValueError, match="read-only"):
        state._psi[0] = 1.0
    assert "_psi" not in repr(state)
    for psi in ([0.0, 0.0, 0.0, 0.0], [1.0, np.nan, 0.0, 0.0]):
        with pytest.raises(ValueError, match="positive and finite"):
            states.MultipartiteState._pure(psi, (2, 2))
    with pytest.raises(ValueError, match="do not multiply to 4"):
        states.MultipartiteState._pure([1.0, 0.0, 0.0, 0.0], (2, 3))


def test_replacing_the_matrix_of_a_vector_checked_state_checks_it():
    state = states.haar_pure((2, 2), 0)
    with pytest.raises(ValueError, match="eigenvalue"):
        dataclasses.replace(state, rho=np.diag([1.5, -0.5, 0.0, 0.0]))
    other = dataclasses.replace(state, rho=np.eye(4) / 4)
    assert other._psi is None and np.array_equal(other.rho, np.eye(4) / 4)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def test_sample_states_deterministic_and_indexed():
    spec = states.EnsembleSpec("haar_pure", (2, 2), count=5)
    a = states.sample_states(spec, seed=3)
    b = states.sample_states(spec, seed=3)
    assert all(np.array_equal(x.rho, y.rho) for x, y in zip(a, b))
    # per-index substreams: sample i matches a direct draw at the same index
    direct = states.haar_pure((2, 2), seed=3, index=2)
    assert np.array_equal(a[2].rho, direct.rho)


def test_sample_states_families():
    mixed = states.sample_states(states.EnsembleSpec("random_mixed", (2, 2), 4, ranks=(2,)), 1)
    assert len(mixed) == 4
    named = states.sample_states(
        states.EnsembleSpec("named", name="ghz3", p_grid=(0.0, 0.5)), 0
    )
    assert len(named) == 2
    assert abs(named[0].purity() - 1.0) < 1e-10
    with pytest.raises(ValueError):
        states.sample_states(states.EnsembleSpec("bogus"), 0)


@pytest.mark.parametrize("kwargs,message", [
    (dict(family="named"), "needs a state name"),
    (dict(family="haar_pure", count=0), "count must be >= 1"),
    (dict(family="random_mixed", count=-1), "count must be >= 1"),
    (dict(family="haar_pure", count=2.5), "count must be >= 1 and an integer, got 2.5"),
    (dict(family="haar_pure", count=True), "count must be >= 1 and an integer, got True"),
    (dict(family="random_mixed", ranks=()), "ranks must be nonempty"),
    (dict(family="random_mixed", ranks=(2.7,)), r"rank must be an integer in 1\.\.8, got 2\.7"),
    (dict(family="random_mixed", ranks=(9,)), r"rank must be an integer in 1\.\.8, got 9"),
    (dict(family="haar_pure", dims=(2.5, 2)), "dimension must be an integer >= 2, got 2.5"),
    (dict(family="haar_pure", dims=()), "dims must be nonempty"),
    (dict(family="haar_pure", p_grid=()), "^noise weight p list must be nonempty$"),
    (dict(family="haar_pure", p_grid=(0.5, 1.5)), r"noise weight p must lie in \[0\.0, 1\.0\], got 1\.5"),
    (dict(family="haar_pure", p_grid=(-0.1,)), r"noise weight p must lie in \[0\.0, 1\.0\], got -0\.1"),
    (dict(family="haar_pure", p_grid=(0.2, math.nan)), r"noise weight p must lie in \[0\.0, 1\.0\], got nan"),
    (dict(family="haar_pure", p_grid=(math.inf,)), r"noise weight p must lie in \[0\.0, 1\.0\], got inf"),
    (dict(family="named", name="w3", p_grid=("0.5", True)), r"p must lie in \[0\.0, 1\.0\], got '0\.5'"),
    (dict(family="haar_pure", p_grid=(0.5, True)), r"noise weight p must lie in \[0\.0, 1\.0\], got True"),
    (dict(family="haar_pure", p_grid=0.5), r"^noise weight p list must be iterable, got 0\.5$"),
    (dict(family="random_mixed", ranks=2), "^rank list must be iterable, got 2$"),
    (dict(family="haar_pure", dims=2), "^subsystem dimension list must be iterable, got 2$"),
    (dict(family="named", name=3), "^unknown named state 3 "),
    (dict(family="named", name="w3", ranks=(2,)), "ranks apply to random_mixed only, not named"),
    (dict(family="named", name="ghz2", dims=(3, 3), ranks=(2,)), "ranks apply to random_mixed only"),
    (dict(family="haar_pure", ranks=(2,)), "ranks apply to random_mixed only, not haar_pure"),
    (dict(family="named", name="w4", dims=(2, 2, 2)),
     r"named ensemble 'w4' is one state on dims \[2, 2, 2, 2\], got dims \[2, 2, 2\] and count 1"),
    (dict(family="named", name="w3", count=100), r"got dims \[2, 2, 2\] and count 100"),
    (dict(family="named", name="bogus"), "unknown named state 'bogus'"),
])
def test_ensemble_spec_checks_itself(kwargs, message):
    with pytest.raises(ValueError, match=message):
        states.EnsembleSpec(**kwargs)


def test_ensemble_spec_records_what_it_draws():
    spec = states.EnsembleSpec("random_mixed", [np.int64(2), 3], np.int64(4), ranks=[np.int8(2)])
    assert json.dumps(spec.describe()) == json.dumps(
        {"family": "random_mixed", "dims": [2, 3], "count": 4, "name": None, "ranks": [2],
         "p_grid": None})
    assert [s.dims for s in states.sample_states(spec, 0)] == [(2, 3)] * 4
    noisy = states.EnsembleSpec("haar_pure", (2, 2), 1, p_grid=[0, np.float32(0.5), 1])
    assert noisy.p_grid == (0.0, 0.5, 1.0)
    assert all(type(p) is float for p in noisy.p_grid)
    assert json.dumps(noisy.describe()["p_grid"]) == "[0.0, 0.5, 1.0]"


@pytest.mark.parametrize("name,dims", [("w4", [2, 2, 2, 2]), ("ghz2", [2, 2]), ("classical", [2, 2, 2])])
def test_a_named_ensemble_records_its_one_state(name, dims):
    spec = states.EnsembleSpec("named", name=name)
    assert spec.describe() == {"family": "named", "dims": dims, "count": 1, "name": name,
                               "ranks": None, "p_grid": None}
    assert states.EnsembleSpec("named", dims, 1, name=name) == spec
    drawn = states.sample_states(spec, 0)
    assert [list(s.dims) for s in drawn] == [dims] and len(drawn) == spec.count
    assert states.EnsembleSpec("haar_pure").describe()["dims"] == [2, 2, 2]
    assert states.EnsembleSpec("random_mixed").count == 100


@pytest.mark.parametrize("draw", [
    lambda dims: states.haar_pure(dims, 0),
    lambda dims: states.random_mixed(dims, 2, 0),
    lambda dims: states.sample_states(states.EnsembleSpec("haar_pure", dims, 1), 0),
])
def test_every_sampler_checks_its_dims(draw):
    # int() truncation used to turn 2.5 into 2 and draw on the wrong dims
    for dims, bad in [((2.5, 2), "2.5"), ((2, 1), "1"), ((2, True), "True"), ((2, "3"), "'3'")]:
        with pytest.raises(ValueError, match=f"^subsystem dimension must be an integer >= 2, got {bad}$"):
            draw(dims)
    with pytest.raises(ValueError, match="dims must be nonempty"):
        draw(())
    state = states.haar_pure((np.int64(2), np.uint8(3)), 0)
    assert state.dims == (2, 3) and all(type(d) is int for d in state.dims)


def draw_on_its_own(dims, rank, seed, index):
    """One sample's density matrix from its own substream and its own
    Box-Muller transform (rank None: a Haar pure state), as the state stores
    it: a pure state's exactly Hermitian rank-1 product, or the mixed
    state's product symmetrized as its check does."""
    d = math.prod(dims)
    v = states.haar_vector(d * (rank or 1), states.generator(seed, index))
    if rank is None:
        v = v / np.linalg.norm(v)  # from_vector normalises once more
        return v[:, None] @ v.conj()[None, :]
    v = v.reshape(d, rank)
    return tensor._hermitian(v @ v.conj().T)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3), (2, 2, 2, 2)])
def test_sampled_states_are_the_checked_draws_bit_for_bit(dims):
    # sample_states skips the validation eigensolve and runs one Box-Muller
    # transform per rank (3 samples each here); each draw must still equal
    # the public constructor's state and pass the density rule
    d = math.prod(dims)
    for seed in range(20):
        pure = states.sample_states(states.EnsembleSpec("haar_pure", dims, 3 * d), seed)
        mixed = states.sample_states(
            states.EnsembleSpec("random_mixed", dims, 3 * d, ranks=tuple(range(1, d + 1))), seed)
        checked = [states.haar_pure(dims, seed, index=i) for i in range(3 * d)]
        checked += [states.random_mixed(dims, i % d + 1, seed, index=i) for i in range(3 * d)]
        alone = [draw_on_its_own(dims, None, seed, i) for i in range(3 * d)]
        alone += [draw_on_its_own(dims, i % d + 1, seed, i) for i in range(3 * d)]
        for got, want, own in zip(pure + mixed, checked, alone, strict=True):
            assert got.rho.tobytes() == want.rho.tobytes() == own.tobytes()
            assert got.dims == want.dims == dims
            assert not got.rho.flags.writeable
            tensor._density_eig(got.rho)


@pytest.mark.parametrize("rank", [None, 64])
def test_a_six_qubit_draw_keeps_its_bits(rank):
    # rank 64 draws Haar vectors of length 4096: the stacked normalisation
    # must sum each row in np.linalg.norm's order at that length too
    dims = (2,) * 6
    spec = (states.EnsembleSpec("haar_pure", dims, 2) if rank is None
            else states.EnsembleSpec("random_mixed", dims, 2, ranks=(rank,)))
    for i, got in enumerate(states.sample_states(spec, 4)):
        want = states.haar_pure(dims, 4, i) if rank is None else states.random_mixed(dims, rank, 4, i)
        assert got.rho.tobytes() == want.rho.tobytes() == draw_on_its_own(dims, rank, 4, i).tobytes()


KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**130 + 3]
KEY_INDICES = [0, 99, 2**32 - 1, 2**32, 2**70]


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_bulk_keys_are_the_seed_sequence_keys(seed):
    # one call for indices of one, two and three 32-bit words, in any order
    indices = KEY_INDICES + KEY_INDICES[::-1]
    keys = states._keys(seed, indices)
    assert keys.shape == (len(indices), 2) and keys.dtype == np.uint64
    for i, key in zip(indices, keys):
        want = np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(2, np.uint64)
        assert key.tolist() == want.tolist(), (seed, i)
    assert states._keys(seed, []).shape == (0, 2)


@pytest.mark.parametrize("seed,indices,message", [
    (-1, [0], "seed must be a non-negative integer, got -1"),
    (2.7, [0], "seed must be a non-negative integer, got 2.7"),
    (True, [0], "seed must be a non-negative integer, got True"),
    (0, [0, -1], "stream must be a non-negative integer, got -1"),
    (0, [2.0], "stream must be a non-negative integer, got 2.0"),
    (0, [False], "stream must be a non-negative integer, got False"),
])
def test_bulk_keys_check_their_inputs_first(seed, indices, message):
    # a negative seed never reaches the hash, whose word loop would not end
    with pytest.raises(ValueError, match=f"^{message}$"):
        states._keys(seed, indices)


@pytest.mark.parametrize("draw,bad", [
    (lambda: states.generator(2.7), "2.7"),
    (lambda: states.generator(-1), "-1"),
    (lambda: states.generator(True), "True"),
    (lambda: states.haar_pure((2, 2), seed=-1), "-1"),
    (lambda: states.sample_states(states.EnsembleSpec("haar_pure", (2, 2), 2), 2.7), "2.7"),
])
def test_seed_must_be_a_non_negative_integer(draw, bad):
    with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {bad}$"):
        draw()


def test_stream_must_be_a_non_negative_integer():
    with pytest.raises(ValueError, match="^stream must be a non-negative integer, got -1$"):
        states.random_mixed((2, 2), 2, seed=0, index=-1)
    a = states.generator(np.uint32(3), np.int64(1)).random(4)
    assert np.array_equal(a, states.generator(3, 1).random(4))
