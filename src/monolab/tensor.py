"""Dense complex linear algebra for small multipartite Hilbert spaces.

States and operators are plain ``numpy`` complex128 square matrices; the
subsystem structure travels separately as a tuple of dimensions. Subsystem 0
is the leftmost tensor factor, i.e. the most significant digit of the basis
index (the standard Kronecker-product convention).

The public kernels (partial trace and transpose, the Hermiticity and
density checks, purity) also take a stack of matrices of shape (..., d, d)
and then return one result per matrix, and so do the private cores below.
A stack runs the same numpy operations in the same order as a loop over its
matrices, so every result is bit-identical to that matrix's own call, while
the Python and numpy call overhead is paid once for the whole stack. A
number-valued kernel gives a float for one matrix and an array for a stack;
the scoring code in ``measures`` passes stacks only, so it gets arrays.

A density matrix is Hermitian within 1e-10, has unit trace within 1e-9 and
has no eigenvalue below -1e-9 (``POSITIVITY_TOL``). ``_density_eig`` is the
one check of this rule, shared by the state constructor and every public
kernel of ``measures`` that takes a density matrix; the entropies
(``_entropies``) clamp eigenvalues in [-1e-9, 0) to 0. A matrix is checked
once, where it enters the library: the partial traces and transposes
``measures`` derives from checked states go unchecked to the private cores
``_hermitian`` and ``_trace_norm``, and the symmetrization of ``_hermitian``
is that of the check, so both paths give the same bits.

Index plans are cached per shape: the dimension check, and the reshape and
axis bookkeeping of the partial trace and transpose, are worked out once per
(array shape, dimensions, subsystem set) and reused, so repeated calls on one
shape do only the array work. A plan holds tuples of ints, never arrays, and
invalid input raises on every call, because a plan is cached only once it is
built. Two integer rules run on every call ahead of the caches, because a
cache key does not tell 2.0 from 2 or True from 1: the dims rule (``_dims``:
integers >= 2) and the index rule (``_indices``: integers in 0..n-1 for n
subsystems). Both apply ``_integer`` to each element; numpy integers pass,
and bools, floats and strings fail.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-9


def as_matrix(m) -> np.ndarray:
    """Coerce input to a square complex128 matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def as_matrices(m) -> np.ndarray:
    """Coerce input to complex128 square matrices: one (d, d) matrix or a
    stack (..., d, d)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def _number_or_stack(x: np.ndarray):
    """A public kernel's result: a float for one matrix, else the array."""
    return float(x) if x.ndim == 0 else x


def _integer(x, what: str, lo: int, hi: float = math.inf) -> int:
    """``x`` as an int in lo..hi, else ValueError; bools and non-integers fail."""
    try:
        n = operator.index(x)
    except TypeError:
        n = None
    if n is None or isinstance(x, bool) or not lo <= n <= hi:
        raise ValueError(f"{what}, got {x!r}")
    return n


def _integers(xs, what: str, lo: int, hi: float = math.inf) -> tuple[int, ...]:
    """``xs`` as a tuple of ints in lo..hi, else ValueError: ``_integer`` on
    each element, the one element-wise integer rule of dims and indices. The
    message ``what`` is formatted with ``lo`` and ``hi`` on failure only."""
    out = tuple(xs)
    for x in out:  # the fast test; _integer converts, or names the culprit
        if type(x) is not int or not lo <= x <= hi:
            return tuple(_integer(x, what.format(lo=lo, hi=hi), lo, hi) for x in out)
    return out


def _dims(dims) -> tuple[int, ...]:
    """``dims`` as a nonempty tuple of integers >= 2, else ValueError: the one
    dims rule of the package. It runs ahead of every cached plan."""
    out = _integers(dims, "subsystem dimension must be an integer >= {lo}", 2)
    if not out:
        raise ValueError("dims must be nonempty")
    return out


def _indices(indices, n: int) -> tuple[int, ...]:
    """``indices`` as a tuple of subsystem indices of an n-party system, ints
    in 0..n-1, else ValueError: the one index rule of the package. It runs
    ahead of every cache keyed on indices."""
    return _integers(indices, "subsystem index must be an integer in {lo}..{hi}", 0, n - 1)


@functools.lru_cache(maxsize=256)
def _checked_dims(dim: int, dims: tuple[int, ...]) -> tuple[int, ...]:
    """Dims that passed ``_dims``, checked against the total dimension."""
    if math.prod(dims) != dim:
        raise ValueError(f"subsystem dimensions {dims} do not multiply to {dim}")
    return dims


def check_dims(dim: int, dims) -> tuple[int, ...]:
    """Validate subsystem dimensions against the total Hilbert-space dimension."""
    return _checked_dims(dim, _dims(dims))


def require_hermitian(m, what: str = "matrix") -> np.ndarray:
    """Check Hermiticity within 1e-10 and return the symmetrized matrix. A NaN
    or infinite entry fails, and so does an entry so large that the check
    overflows, without a floating-point warning. A stack fails on its largest
    defect."""
    m = as_matrices(m)
    m_dag = m.conj().swapaxes(-1, -2)
    try:  # the errstate costs less than an isfinite test of every entry
        with np.errstate(over="raise", invalid="raise"):
            defect = float(np.abs(m - m_dag).max())
            h = 0.5 * (m + m_dag)
    except FloatingPointError:  # inf - inf, inf * 0, or a sum beyond the float range
        defect = math.nan
    if defect <= HERMITICITY_TOL:  # false for NaN
        return h
    if not np.isfinite(m).all():
        raise ValueError(f"{what} is not Hermitian: it has a non-finite entry")
    if defect > HERMITICITY_TOL:
        raise ValueError(f"{what} is not Hermitian: max|M - M^dag| = {defect:.3e}")
    raise ValueError(f"{what} has an entry too large to check: its arithmetic overflows")


def require_density(m) -> np.ndarray:
    """Check Hermiticity within 1e-10 and unit trace within 1e-9, and return
    the symmetrized matrix; positivity needs the eigensolve of _density_eig."""
    h = require_hermitian(m, "density matrix")
    # Python sums: a trace beyond the float range is inf, not a numpy warning
    for tr in map(sum, h.diagonal(0, -2, -1).real.reshape(-1, h.shape[-1]).tolist()):
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr:.12g} != 1")
    return h


@functools.lru_cache(maxsize=256)
def _trace_plan(shape: tuple, dims: tuple, keep: tuple):
    """(tensor shape, axis pairs to trace in order, output shape) for an
    array of ``shape`` (..., d, d): the traced subsystems go one at a time,
    highest index first."""
    lead, dim = shape[:-2], shape[-1]
    dims = _checked_dims(dim, dims)
    n = len(dims)
    keep_idx = sorted(set(keep))
    if not keep_idx:
        raise ValueError("keep set must be nonempty")
    traced = sorted(set(range(n)) - set(keep_idx), reverse=True)
    b = len(lead)
    axes = tuple((b + i, b + i + n - k) for k, i in enumerate(traced))  # n - k subsystems left
    d = math.prod(dims[i] for i in keep_idx)
    return lead + dims + dims, axes, lead + (d, d)


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``, of one matrix or of
    each matrix of a stack.

    Kept subsystems stay in their original relative order, and the trace of
    the input is preserved. The result is a new array, also when ``keep``
    names every subsystem.
    """
    rho, dims = as_matrices(rho), _dims(dims)
    shape, axes, out = _trace_plan(rho.shape, dims, _indices(keep, len(dims)))
    t = rho.reshape(shape)
    for i, j in axes:
        t = t.trace(0, i, j)
    return np.ascontiguousarray(t.reshape(out)) if axes else rho.copy()


@functools.lru_cache(maxsize=256)
def _transpose_plan(shape: tuple, dims: tuple, transposed: tuple):
    """(tensor shape, axis permutation swapping row and column index of
    every transposed subsystem) for an array of ``shape`` (..., d, d)."""
    lead, dim = shape[:-2], shape[-1]
    dims = _checked_dims(dim, dims)
    n = len(dims)
    perm = list(range(2 * n))
    for i in transposed:  # a repeated index sets the same two entries again
        perm[i], perm[i + n] = i + n, i
    b = len(lead)
    return lead + dims + dims, tuple(range(b)) + tuple(b + p for p in perm)


def partial_transpose(rho, dims, transposed) -> np.ndarray:
    """Transpose the listed subsystems only, of one matrix or of each matrix
    of a stack. Applying it twice is the identity."""
    rho, dims = as_matrices(rho), _dims(dims)
    shape, perm = _transpose_plan(rho.shape, dims, _indices(transposed, len(dims)))
    return np.ascontiguousarray(rho.reshape(shape).transpose(perm).reshape(rho.shape))


def _hermitian(m: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2 of a matrix or stack, unchecked: the symmetrization of
    require_hermitian, for matrices derived from a checked state. Applied to
    its own output it returns the same values."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _trace_norm(m: np.ndarray) -> np.ndarray:
    """Trace norms of the symmetrized matrices of a stack, unchecked."""
    return np.abs(np.linalg.eigvalsh(_hermitian(m))).sum(-1)


def purity(rho):
    """tr(rho^2) of a matrix, or of each matrix of a stack."""
    rho = as_matrices(rho)
    return _number_or_stack(np.real(np.trace(rho @ rho, axis1=-2, axis2=-1)))


def _density_eig(m, vectors: bool = False):
    """(h, evals, evecs or None): the symmetrized density matrix (or stack)
    from require_density, its ascending eigenvalues and, with ``vectors``,
    its eigenvectors. The one positivity test: no eigenvalue below -1e-9."""
    h = require_density(m)
    # numpy.linalg is read at call time, so a rebinding of eigh or eigvalsh is seen
    evals, evecs = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    lam_min = min(evals[..., 0].ravel().tolist(), default=0.0)
    if lam_min < -POSITIVITY_TOL:
        raise ValueError(f"density matrix has eigenvalue {lam_min:.3e} < -1e-9")
    return h, evals, evecs


def _entropies(lam: np.ndarray) -> np.ndarray:
    """_spectral_entropy of each spectrum of a stack (..., d). The spectra
    are summed one by one: the kept eigenvalues differ in number, and
    numpy's summation order depends on it."""
    s = [_spectral_entropy(row) for row in lam.reshape(-1, lam.shape[-1])]
    return np.array(s).reshape(lam.shape[:-1])


def _spectral_entropy(lam: np.ndarray) -> float:
    """-sum(lam log2 lam) of a checked spectrum, negative eigenvalues clamped to 0."""
    lam = lam[lam > 0.0]
    if lam.size == 0:
        return 0.0
    return float(-(lam * np.log2(lam)).sum())


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit, h(x) = -x log2 x - (1-x) log2(1-x)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))
