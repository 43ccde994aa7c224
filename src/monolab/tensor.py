"""Dense complex linear algebra for small multipartite Hilbert spaces.

States and operators are plain ``numpy`` complex128 square matrices; the
subsystem structure travels separately as a tuple of dimensions. Subsystem 0
is the leftmost tensor factor, i.e. the most significant digit of the basis
index (the standard Kronecker-product convention).

The kernels below (partial trace and transpose, the Hermiticity and density
checks, eigenvalues, trace norm, purity and entropy) also take a stack of
matrices of shape (..., d, d) and then return one result per matrix. A stack
runs the same numpy operations in the same order as a loop over its
matrices, so every result is bit-identical to that matrix's own call, while
the Python and numpy call overhead is paid once for the whole stack. One
matrix gives a float where the result is a number.

Index plans are cached per shape: the dimension check, and the reshape and
axis bookkeeping of the partial trace and transpose, are worked out once per
(array shape, dimensions, subsystem set) and reused, so repeated calls on one
shape do only the array work. A plan holds tuples of ints, never arrays, and
invalid input raises on every call, because a plan is cached only once it is
built.
"""

from __future__ import annotations

import functools
import math

import numpy as np

HERMITICITY_TOL = 1e-10
EIGENVALUE_CLAMP = 1e-10
TRACE_TOL = 1e-9


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
    """A float for the result of one matrix, the array for a stack."""
    return float(x) if x.ndim == 0 else x


def _per_matrix(values: list, lead: tuple):
    """Values computed matrix by matrix, as a kernel returns them: a float
    for one matrix (``lead == ()``), else an array of the stack's shape."""
    return np.array(values).reshape(lead) if lead else values[0]


def _values(x) -> list:
    """A kernel's result as a flat list: the values of an array, or [x] for
    a number. Plain floats are cheaper than numpy on the few values of a
    small stack."""
    return x.ravel().tolist() if isinstance(x, np.ndarray) else [x]


@functools.lru_cache(maxsize=256)
def _checked_dims(dim: int, dims: tuple) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out or any(d < 2 for d in out):
        raise ValueError(f"subsystem dimensions must all be >= 2, got {out}")
    if math.prod(out) != dim:
        raise ValueError(f"subsystem dimensions {out} do not multiply to {dim}")
    return out


def check_dims(dim: int, dims) -> tuple[int, ...]:
    """Validate subsystem dimensions against the total Hilbert-space dimension."""
    return _checked_dims(dim, tuple(dims))


def require_hermitian(m, what: str = "matrix") -> np.ndarray:
    """Check Hermiticity within 1e-10 and return the symmetrized matrix. A NaN
    or infinite entry fails too: it makes the defect NaN (or infinite). A
    stack fails on its largest defect."""
    m = as_matrices(m)
    m_dag = m.conj().swapaxes(-1, -2)
    defect = float(np.abs(m - m_dag).max())
    if not defect <= HERMITICITY_TOL:
        raise ValueError(f"{what} is not Hermitian: max|M - M^dag| = {defect:.3e}")
    return 0.5 * (m + m_dag)


def require_density(m) -> np.ndarray:
    """Check Hermiticity within 1e-10 and unit trace within 1e-9, and return
    the symmetrized matrix; positivity is left to the caller's eigensolve."""
    h = require_hermitian(m, "density matrix")
    for tr in _values(np.trace(h, axis1=-2, axis2=-1)):
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
    keep_idx = sorted({int(k) for k in keep})
    if not keep_idx:
        raise ValueError("keep set must be nonempty")
    if keep_idx[0] < 0 or keep_idx[-1] >= n:
        raise ValueError(f"keep indices {keep_idx} out of range for {n} subsystems")
    traced = sorted(set(range(n)) - set(keep_idx), reverse=True)
    b = len(lead)
    axes = tuple((b + i, b + i + n - k) for k, i in enumerate(traced))  # n - k subsystems left
    d = math.prod(dims[i] for i in keep_idx)
    return lead + dims + dims, axes, lead + (d, d)


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``, of one matrix or of
    each matrix of a stack.

    Kept subsystems stay in their original relative order, and the trace of
    the input is preserved.
    """
    rho = as_matrices(rho)
    shape, axes, out = _trace_plan(rho.shape, tuple(dims), tuple(keep))
    t = rho.reshape(shape)
    for i, j in axes:
        t = t.trace(0, i, j)
    return np.ascontiguousarray(t.reshape(out))


@functools.lru_cache(maxsize=256)
def _transpose_plan(shape: tuple, dims: tuple, transposed: tuple):
    """(tensor shape, axis permutation swapping row and column index of
    every transposed subsystem) for an array of ``shape`` (..., d, d)."""
    lead, dim = shape[:-2], shape[-1]
    dims = _checked_dims(dim, dims)
    n = len(dims)
    tset = sorted({int(i) for i in transposed})
    if tset and (tset[0] < 0 or tset[-1] >= n):
        raise ValueError(f"transpose indices {tset} out of range for {n} subsystems")
    perm = list(range(2 * n))
    for i in tset:
        perm[i], perm[i + n] = i + n, i
    b = len(lead)
    return lead + dims + dims, tuple(range(b)) + tuple(b + p for p in perm)


def partial_transpose(rho, dims, transposed) -> np.ndarray:
    """Transpose the listed subsystems only, of one matrix or of each matrix
    of a stack. Applying it twice is the identity."""
    rho = as_matrices(rho)
    shape, perm = _transpose_plan(rho.shape, tuple(dims), tuple(transposed))
    return np.ascontiguousarray(rho.reshape(shape).transpose(perm).reshape(rho.shape))


def eigvals_hermitian(h) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (or of each matrix of a
    stack), symmetrized as (H + H^dag)/2 after the Hermiticity check."""
    return np.linalg.eigvalsh(require_hermitian(h))


def trace_norm_hermitian(h):
    """Trace norm (sum of absolute eigenvalues) of a Hermitian matrix."""
    return _number_or_stack(np.abs(eigvals_hermitian(h)).sum(-1))


def purity(rho):
    """tr(rho^2) of a matrix, or of each matrix of a stack."""
    rho = as_matrices(rho)
    return _number_or_stack(np.real(np.trace(rho @ rho, axis1=-2, axis2=-1)))


def von_neumann_entropy(rho):
    """Spectral entropy -sum(lam log2 lam) in bits, with 0 log 0 := 0.

    Requires unit trace within 1e-9 and positive semidefiniteness within
    -1e-10. Eigenvalues in [-1e-10, 0) are clamped to zero; anything more
    negative is an error, not a clamp. A stack is diagonalised in one call
    and summed matrix by matrix: the kept eigenvalues differ in number, and
    numpy's summation order depends on it.
    """
    lam = np.linalg.eigvalsh(require_density(rho))
    rows = lam.reshape(-1, lam.shape[-1])
    return _per_matrix([_spectral_entropy(row) for row in rows], lam.shape[:-1])


def _spectral_entropy(lam: np.ndarray) -> float:
    """-sum(lam log2 lam) of an ascending spectrum, with von_neumann_entropy's
    clamp of [-1e-10, 0) to zero and error below it."""
    if lam[0] < -EIGENVALUE_CLAMP:
        raise ValueError(f"not positive semidefinite: min eigenvalue {lam[0]:.3e}")
    lam = lam[lam > 0.0]
    if lam.size == 0:
        return 0.0
    return float(-(lam * np.log2(lam)).sum())


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit, h(x) = -x log2 x - (1-x) log2(1-x)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))
