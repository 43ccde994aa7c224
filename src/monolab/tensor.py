"""Dense complex linear algebra for small multipartite Hilbert spaces.

States and operators are plain ``numpy`` complex128 square matrices; the
subsystem structure travels separately as a tuple of dimensions. Subsystem 0
is the leftmost tensor factor, i.e. the most significant digit of the basis
index (the standard Kronecker-product convention).

Index plans are cached per shape: the dimension check, and the reshape and
axis bookkeeping of the partial trace and transpose, are worked out once per
(dimensions, subsystem set) and reused, so repeated calls on one shape do only
the array work. A plan holds tuples of ints, never arrays, and invalid input
raises on every call, because a plan is cached only once it is built.
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
    or infinite entry fails too: it makes the defect NaN (or infinite)."""
    m = as_matrix(m)
    m_dag = m.conj().T
    defect = float(np.abs(m - m_dag).max())
    if not defect <= HERMITICITY_TOL:
        raise ValueError(f"{what} is not Hermitian: max|M - M^dag| = {defect:.3e}")
    return 0.5 * (m + m_dag)


def require_density(m) -> np.ndarray:
    """Check Hermiticity within 1e-10 and unit trace within 1e-9, and return
    the symmetrized matrix; positivity is left to the caller's eigensolve."""
    h = require_hermitian(m, "density matrix")
    tr = np.trace(h)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr:.12g} != 1")
    return h


@functools.lru_cache(maxsize=256)
def _trace_plan(dim: int, dims: tuple, keep: tuple):
    """(tensor shape, axis pairs to trace in order, output dimension): the
    traced subsystems go one at a time, highest index first."""
    dims = _checked_dims(dim, dims)
    n = len(dims)
    keep_idx = sorted({int(k) for k in keep})
    if not keep_idx:
        raise ValueError("keep set must be nonempty")
    if keep_idx[0] < 0 or keep_idx[-1] >= n:
        raise ValueError(f"keep indices {keep_idx} out of range for {n} subsystems")
    traced = sorted(set(range(n)) - set(keep_idx), reverse=True)
    axes = tuple((i, i + n - k) for k, i in enumerate(traced))  # n - k subsystems left
    return dims + dims, axes, math.prod(dims[i] for i in keep_idx)


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    Kept subsystems stay in their original relative order, and the trace of
    the input is preserved.
    """
    rho = as_matrix(rho)
    shape, axes, d = _trace_plan(rho.shape[0], tuple(dims), tuple(keep))
    t = rho.reshape(shape)
    for i, j in axes:
        t = t.trace(0, i, j)
    return np.ascontiguousarray(t.reshape(d, d))


@functools.lru_cache(maxsize=256)
def _transpose_plan(dim: int, dims: tuple, transposed: tuple):
    """(tensor shape, axis permutation swapping row and column index of
    every transposed subsystem)."""
    dims = _checked_dims(dim, dims)
    n = len(dims)
    tset = sorted({int(i) for i in transposed})
    if tset and (tset[0] < 0 or tset[-1] >= n):
        raise ValueError(f"transpose indices {tset} out of range for {n} subsystems")
    perm = list(range(2 * n))
    for i in tset:
        perm[i], perm[i + n] = i + n, i
    return dims + dims, tuple(perm)


def partial_transpose(rho, dims, transposed) -> np.ndarray:
    """Transpose the listed subsystems only. Applying it twice is the identity."""
    rho = as_matrix(rho)
    shape, perm = _transpose_plan(rho.shape[0], tuple(dims), tuple(transposed))
    return np.ascontiguousarray(rho.reshape(shape).transpose(perm).reshape(rho.shape))


def eigvals_hermitian(h) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, symmetrized as
    (H + H^dag)/2 after the Hermiticity check."""
    return np.linalg.eigvalsh(require_hermitian(h))


def trace_norm_hermitian(h) -> float:
    """Trace norm (sum of absolute eigenvalues) of a Hermitian matrix."""
    return float(np.abs(eigvals_hermitian(h)).sum())


def purity(rho) -> float:
    rho = as_matrix(rho)
    return float(np.real(np.trace(rho @ rho)))


def von_neumann_entropy(rho) -> float:
    """Spectral entropy -sum(lam log2 lam) in bits, with 0 log 0 := 0.

    Requires unit trace within 1e-9 and positive semidefiniteness within
    -1e-10. Eigenvalues in [-1e-10, 0) are clamped to zero; anything more
    negative is an error, not a clamp.
    """
    return _spectral_entropy(np.linalg.eigvalsh(require_density(rho)))


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
