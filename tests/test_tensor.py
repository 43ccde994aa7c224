import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from monolab import measures, monogamy, states, tensor

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_density(dim, rng, rank=None):
    rank = rank or dim
    m = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


PLAN_DIMS = [(2, 3), (3, 3), (2, 3, 2), (2, 2, 2, 2)]


def index_forms(idx):
    """One index set as an unsorted list, a set, a tuple with duplicates and
    numpy integers: every form must select the same plan."""
    return [
        list(reversed(idx)),
        set(idx),
        tuple(idx) + tuple(idx[:1]),
        np.array(idx, dtype=np.int64),
        [np.int32(i) for i in idx],
    ]


def sequential_loops_trace(rho, dims, keep):
    """oracles.loops_partial_trace run one traced subsystem at a time, highest
    index first: the summation order partial_trace keeps."""
    dims = list(dims)
    for i in sorted(set(range(len(dims))) - set(keep), reverse=True):
        rho = oracles.loops_partial_trace(rho, dims, [j for j in range(len(dims)) if j != i])
        del dims[i]
    return rho


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_classical_mixture():
    rho = states.classical_corr_state().rho
    got = tensor.partial_trace(rho, (2, 2, 2), [0, 1])
    expected = np.diag([0.5, 0.0, 0.0, 0.5])
    assert np.abs(got - expected).max() < 1e-15


def test_partial_trace_ghz_single_qubit():
    rho = states.ghz(3).rho
    got = tensor.partial_trace(rho, (2, 2, 2), [0])
    assert np.abs(got - np.eye(2) / 2).max() < 1e-15


@given(seed=seeds, dims=st.sampled_from(PLAN_DIMS), data=st.data())
@settings(max_examples=30, deadline=None)
def test_partial_trace_matches_loop_oracle(seed, dims, data):
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    keep = data.draw(st.lists(st.integers(0, len(dims) - 1), min_size=1, unique=True))
    want = sequential_loops_trace(rho, dims, keep)
    assert np.abs(want - oracles.loops_partial_trace(rho, dims, keep)).max() < 1e-13
    for form in index_forms(keep):
        assert np.array_equal(tensor.partial_trace(rho, dims, form), want)


@given(seed=seeds)
@settings(max_examples=20, deadline=None)
def test_partial_trace_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(8, rng)
    for keep in ([0], [0, 1], [2], [1, 2]):
        red = tensor.partial_trace(rho, (2, 2, 2), keep)
        assert abs(np.trace(red) - np.trace(rho)) < 1e-12


@given(seed=seeds)
@settings(max_examples=20, deadline=None)
def test_partial_trace_sequential_equals_joint(seed):
    rng = np.random.default_rng(seed)
    dims = (2, 2, 2, 2)
    rho = random_density(16, rng)
    joint = tensor.partial_trace(rho, dims, [0, 2])
    step1 = tensor.partial_trace(rho, dims, [0, 2, 3])
    step2 = tensor.partial_trace(step1, (2, 2, 2), [0, 1])
    assert np.abs(joint - step2).max() < 1e-12


@pytest.mark.parametrize("stack", [False, True], ids=["matrix", "stack"])
def test_partial_trace_keeping_every_subsystem_returns_a_copy(stack):
    rho = states.w(3).rho.copy()
    if stack:
        rho = np.stack([rho, states.ghz(3).rho])
    before = rho.copy()
    out = tensor.partial_trace(rho, (2, 2, 2), (2, 0, 1))
    assert np.array_equal(out, rho)
    assert not np.shares_memory(out, rho)
    out[..., 0, 0] = 7.0
    assert np.array_equal(rho, before)


def test_partial_trace_errors():
    rho = np.eye(4) / 4
    with pytest.raises(ValueError):
        tensor.partial_trace(rho, (2, 2), [])
    with pytest.raises(ValueError):
        tensor.partial_trace(rho, (2, 2), [2])
    with pytest.raises(ValueError):
        tensor.partial_trace(rho, (2, 3), [0])


# ---------------------------------------------------------------------------
# partial transpose
# ---------------------------------------------------------------------------

def test_partial_transpose_product_invariance():
    rng = np.random.default_rng(7)
    rho_a = random_density(2, rng)
    rho_a = 0.5 * (rho_a + rho_a.T)  # make the A factor real symmetric
    rho_b = random_density(3, rng)
    rho = np.kron(rho_a.astype(complex), rho_b)
    got = tensor.partial_transpose(rho, (2, 3), [0])
    assert np.abs(got - rho).max() < 1e-14


@given(seed=seeds)
@settings(max_examples=20, deadline=None)
def test_partial_transpose_involution(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(8, rng)
    pt = tensor.partial_transpose(rho, (2, 2, 2), [1])
    back = tensor.partial_transpose(pt, (2, 2, 2), [1])
    assert np.abs(back - rho).max() <= 1e-14


def test_partial_transpose_singlet_spectrum():
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    rho = np.outer(psi, psi)
    pt = tensor.partial_transpose(rho, (2, 2), [0])
    lam = np.sort(oracles.jacobi_eigvals(pt))
    assert np.abs(lam - np.array([-0.5, 0.5, 0.5, 0.5])).max() < 1e-14


@given(seed=seeds, dims=st.sampled_from(PLAN_DIMS + [(2, 2, 3)]), data=st.data())
@settings(max_examples=30, deadline=None)
def test_partial_transpose_matches_loop_oracle(seed, dims, data):
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    tset = data.draw(st.lists(st.integers(0, len(dims) - 1), unique=True))
    want = oracles.loops_partial_transpose(rho, dims, tset)
    for form in index_forms(tset):
        assert np.array_equal(tensor.partial_transpose(rho, dims, form), want)


@pytest.mark.parametrize(
    "fn,dims,idx",
    [
        (tensor.partial_trace, (2, 3), []),
        (tensor.partial_trace, (2, 3), [2]),
        (tensor.partial_trace, (2, 3), [-1, 0]),
        (tensor.partial_trace, (2, 2), [0]),
        (tensor.partial_transpose, (2, 3), [2]),
        (tensor.partial_transpose, (2, 3), {0, -1}),
        (tensor.partial_transpose, (3, 3), [0]),
    ],
)
def test_invalid_input_raises_on_every_call(fn, dims, idx):
    """Plans are cached only once built, so bad input never becomes a hit."""
    rho = np.eye(6) / 6

    def message():
        with pytest.raises(ValueError) as exc:
            fn(rho, dims, idx)
        return str(exc.value)

    first = message()
    assert message() == first
    fn(rho, (2, 3), [0])
    assert message() == first


# ---------------------------------------------------------------------------
# the checked eigensolve and density-matrix contracts
# ---------------------------------------------------------------------------

def density_eigvals(rho):
    """Ascending eigenvalues from the eigensolve that checks a density matrix."""
    return tensor._density_eig(rho)[1]


def entropy(rho):
    """The von Neumann entropy in bits of a checked density matrix."""
    return float(tensor._entropies(density_eigvals(rho)))


def test_density_eig_diagonal():
    lam = density_eigvals(np.diag([0.5, 0.2, 0.3]))
    assert np.allclose(lam, [0.2, 0.3, 0.5])


def test_density_eig_pauli_x():
    lam = density_eigvals((np.eye(2) + X) / 2)
    assert np.allclose(lam, [0.0, 1.0])


@given(seed=seeds)
@settings(max_examples=20, deadline=None)
def test_density_eig_trace_identity(seed):
    rng = np.random.default_rng(seed)
    h = random_density(8, rng)
    lam = density_eigvals(h)
    assert abs(lam.sum() - np.real(np.trace(h))) < 1e-10


@given(seed=seeds)
@settings(max_examples=15, deadline=None)
def test_density_eig_recovers_known_spectrum(seed):
    rng = np.random.default_rng(seed)
    spectrum = np.sort(rng.random(6))
    spectrum /= spectrum.sum()
    u = oracles.gram_schmidt_unitary(6, rng)
    h = (u * spectrum) @ u.conj().T
    lam = density_eigvals(h)
    assert np.abs(lam - spectrum).max() < 1e-9


def test_density_eig_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    for kernel in (tensor.require_hermitian, tensor._density_eig):
        for m in (bad, np.stack([np.eye(2), bad])):
            with pytest.raises(ValueError, match="not Hermitian"):
                kernel(m)


def test_private_cores_give_the_checked_bits():
    # the scoring path runs the cores on derived matrices without the check:
    # _hermitian symmetrizes as the check does, so the spectra agree too
    rng = np.random.default_rng(5)
    for dims in [(2, 2), (2, 3), (2, 2, 2)]:
        rho = np.stack([random_density(int(np.prod(dims)), rng) for _ in range(4)])
        pt = tensor.partial_transpose(rho, dims, [0])
        ra = tensor.partial_trace(rho, dims, [0])
        assert tensor._hermitian(pt).tobytes() == tensor.require_hermitian(pt).tobytes()
        assert np.linalg.eigvalsh(tensor._hermitian(ra)).tobytes() == density_eigvals(ra).tobytes()
        h = tensor._hermitian(rho)
        assert h.tobytes() == tensor.require_hermitian(rho).tobytes()
        assert tensor._hermitian(h).tobytes() == h.tobytes()


def test_require_density_checks_and_symmetrizes():
    rho = np.array([[0.5, 0.25 + 3e-11j], [0.25, 0.5]])
    assert np.array_equal(tensor.require_density(rho), 0.5 * (rho + rho.conj().T))
    with pytest.raises(ValueError, match="not Hermitian"):
        tensor.require_density(np.array([[0.5, 1e-9], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        tensor.require_density(np.diag([0.5, 0.5 + 2e-9]))


@pytest.mark.parametrize("m", [
    [[1, 1e308], [-1e308, 1]],  # M - M^dag overflows
    [[1, 1e308], [1e308, 1]],  # Hermitian, but M + M^dag overflows
    [[1, 1e308j], [-1e308j, 1]],
])
def test_require_hermitian_rejects_huge_entries_without_a_warning(m):
    # pytest turns every warning into an error, so an overflow warning fails here
    with pytest.raises(ValueError, match="too large to check"):
        tensor.require_hermitian(m)


def test_require_density_rejects_an_overflowing_trace_without_a_warning():
    with pytest.raises(ValueError, match="density matrix trace inf != 1"):
        tensor.require_density(np.diag([8e307] * 4))


# ---------------------------------------------------------------------------
# trace norm
# ---------------------------------------------------------------------------

def test_trace_norm_density_matrix_is_one():
    rng = np.random.default_rng(3)
    assert abs(tensor._trace_norm(random_density(6, rng)) - 1.0) < 1e-12


def test_trace_norm_singlet_partial_transpose():
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    pt = tensor.partial_transpose(np.outer(psi, psi), (2, 2), [0])
    assert abs(tensor._trace_norm(pt) - 2.0) < 1e-12


def test_trace_norm_zero_matrix():
    assert tensor._trace_norm(np.zeros((4, 4))) == 0.0


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_trace_norm_partial_transpose_at_least_one(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(4, rng, rank=int(rng.integers(1, 5)))
    pt = tensor.partial_transpose(rho, (2, 2), [0])
    assert tensor._trace_norm(pt) >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_pure_state():
    psi = np.array([1.0, 1j]) / np.sqrt(2)
    assert abs(entropy(np.outer(psi, psi.conj()))) < 1e-12


def test_entropy_maximally_mixed():
    assert abs(entropy(np.eye(2) / 2) - 1.0) < 1e-12
    assert abs(entropy(np.eye(8) / 8) - 3.0) < 1e-12


@given(seed=seeds)
@settings(max_examples=20, deadline=None)
def test_entropy_additive_on_products(seed):
    rng = np.random.default_rng(seed)
    rho_a = random_density(2, rng)
    rho_b = random_density(3, rng)
    s_ab = entropy(np.kron(rho_a, rho_b))
    s_a = entropy(rho_a)
    s_b = entropy(rho_b)
    assert abs(s_ab - s_a - s_b) < 1e-9


def test_entropy_clamps_tiny_negative_eigenvalues():
    assert entropy(np.diag([1.0, -5e-11])) == 0.0
    assert abs(entropy(np.diag([1.0 + 5e-11, -5e-11]))) < 1e-9


def test_entropy_rejects_bad_inputs():
    with pytest.raises(ValueError):
        entropy(np.diag([0.5, 0.4]))  # trace != 1
    with pytest.raises(ValueError):
        entropy(np.diag([1.1, -0.1]))  # genuinely negative


@pytest.mark.parametrize("dims,rule", [((2.5, 2), "must be an integer >= 2, got 2.5"),
                                       (("2", 2.9), "must be an integer >= 2, got '2'"),
                                       ((2, 2.0), "must be an integer >= 2, got 2.0"),
                                       ((True, 4), "must be an integer >= 2, got True"),
                                       ((1, 4), "must be an integer >= 2, got 1"),
                                       (4, "list must be iterable, got 4")])
def test_every_kernel_applies_the_dims_rule_ahead_of_its_cache(dims, rule):
    # the plans of (2, 2) and (2, 4) are cached first; (2.0, 2) hashes like
    # (2, 2), so a check inside the cache would return the cached plan
    rho = np.eye(4) / 4
    tensor.partial_trace(rho, (2, 2), [0]), tensor.partial_transpose(rho, (2, 2), [0])
    message = f"^subsystem dimension {rule}$"
    calls = (lambda: tensor.check_dims(4, dims), lambda: tensor.partial_trace(rho, dims, [0]),
             lambda: tensor.partial_transpose(rho, dims, [0]), lambda: states.MultipartiteState(rho, dims),
             lambda: states.haar_pure(dims, 0), lambda: states.MultipartiteState.from_vector(np.ones(4), dims),
             lambda: states.state_from_json(dict(states.state_to_json(states.ghz(2)), dims=dims)))
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_the_dims_rule_takes_numpy_integers_as_ints():
    got = tensor.check_dims(8, [np.int64(2), np.int32(2), 2])
    assert got == (2, 2, 2) and all(type(d) is int for d in got)
    rho = np.eye(4) / 4
    assert np.array_equal(tensor.partial_trace(rho, np.array([2, 2]), [1]), np.eye(2) / 2)
    with pytest.raises(ValueError, match="^dims must be nonempty$"):
        tensor.check_dims(1, ())


# ---------------------------------------------------------------------------
# the index rule
# ---------------------------------------------------------------------------

_W3 = states.w(3)
_NEG = measures.MeasureKind(measures.Measure.NEGATIVITY)

# every site that takes a subsystem index of w(3), called with index i; 1 is valid everywhere
INDEX_SITES = {
    "partial_trace": lambda i: tensor.partial_trace(_W3.rho, (2, 2, 2), [i]),
    "partial_transpose": lambda i: tensor.partial_transpose(_W3.rho, (2, 2, 2), [0, i]),
    "marginal": lambda i: _W3.marginal([i]),
    "Cut": lambda i: measures.evaluate(_NEG, _W3, measures.Cut((0,), (i,))),
    "tangle_rank2": lambda i: measures.tangle_rank2(_W3.rho, (2, 2, 2), i),
    "monogamy_score focus": lambda i: monogamy.monogamy_score(_NEG, _W3, i, 1.0),
    "strong focus": lambda i: monogamy.strong_monogamy_report(_NEG, _W3, i, 1.0),
    "share_sum focus": lambda i: monogamy.share_sum(_NEG, _W3, i),
    "hierarchy focus": lambda i: monogamy.hierarchy_chain(_NEG, _W3, i, 0, 2.0),
    "hierarchy partner": lambda i: monogamy.hierarchy_chain(_NEG, _W3, 0, i, 2.0),
}


def same(a, b):
    if isinstance(a, states.MultipartiteState):
        return np.array_equal(a.rho, b.rho) and a.dims == b.dims
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("site", sorted(INDEX_SITES))
@pytest.mark.parametrize("bad", [0.7, 1.5, 1.9, 1.0, True, -1, 3, "1", None])
def test_every_site_applies_the_index_rule_whatever_its_caches_hold(site, bad):
    # 1.0 and True hash like 1, so a cache keyed on the index would return the entry of 1
    call = INDEX_SITES[site]

    def message():
        with pytest.raises(ValueError, match="index must be .*integer") as exc:
            call(bad)
        return str(exc.value)

    first = message()
    want = call(1)
    assert message() == first
    for good in (np.int64(1), np.int32(1), np.uint8(1)):
        assert same(call(good), want)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: tensor.partial_trace(_W3.rho, (2, 2, 2), 0), id="partial_trace"),
    pytest.param(lambda: tensor.partial_transpose(_W3.rho, (2, 2, 2), 0), id="partial_transpose"),
    pytest.param(lambda: _W3.marginal(0), id="marginal"),
    pytest.param(lambda: measures.Cut(0, 1), id="Cut"),
    pytest.param(lambda: measures.Cut((0,), 1), id="Cut side_b"),
])
def test_an_index_where_an_index_list_belongs_is_a_value_error(call):
    with pytest.raises(ValueError, match=r"^(subsystem|cut) index list must be iterable, got [01]$"):
        call()


def test_cut_sides_are_plain_ints():
    cut = measures.Cut((np.int64(0),), (np.int32(2), 1))
    assert cut.side_a == (0,) and cut.side_b == (2, 1)
    assert all(type(i) is int for i in cut.side_a + cut.side_b)
    for sides in [((0.9,), (1.5,)), ((True,), (2,)), ((0,), (-1,))]:
        with pytest.raises(ValueError, match="^cut index must be an integer >= 0, got "):
            measures.Cut(*sides)


def test_an_index_out_of_range_names_the_range():
    with pytest.raises(ValueError, match=r"^subsystem index must be an integer in 0\.\.2, got 3$"):
        tensor.partial_trace(_W3.rho, (2, 2, 2), [0, 3])
    with pytest.raises(ValueError, match="^invalid partner 0: it is the focus$"):
        monogamy.hierarchy_chain(_NEG, _W3, np.int64(0), 0, 2.0)
