"""Independent brute-force implementations used as test oracles.

Nothing here touches the library's computational path: the eigensolver is a
hand-rolled cyclic Jacobi iteration (numpy appears only for array storage and
elementwise arithmetic, never ``np.linalg``), tensor reshuffles are explicit
index loops, and the measurement optimization is a dense grid scan over the
projector form of the conditional states.

The one exception is the reference at the end of this file: a former
library kernel, np.linalg included, with its last step made accurate, to
check the current kernel against a second route to the same values.
"""

import itertools
import math

import numpy as np

SY2 = np.kron(np.array([[0.0, -1j], [1j, 0.0]]), np.array([[0.0, -1j], [1j, 0.0]]))


def jacobi_eigh(h, tol=1e-13, max_sweeps=100):
    """Cyclic Jacobi eigendecomposition for complex Hermitian matrices.

    Returns (eigenvalues ascending, eigenvector columns). Converges when the
    off-diagonal Frobenius mass drops below tol (relative to the matrix norm).
    """
    a = np.array(h, dtype=complex)
    a = 0.5 * (a + a.conj().T)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    scale = max(1.0, math.sqrt(float((np.abs(a) ** 2).sum())))
    for _ in range(max_sweeps):
        off = math.sqrt(max(float((np.abs(a) ** 2).sum() - (np.abs(np.diag(a)) ** 2).sum()), 0.0))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                r = abs(a[p, q])
                if r <= 1e-300:
                    continue
                phase = a[p, q] / r
                tau = float(np.real(a[q, q] - a[p, p])) / (2.0 * r)
                if tau == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                # columns: A <- A J, V <- V J
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(phase) * col_q
                a[:, q] = s * phase * col_p + c * col_q
                # rows: A <- J^dag A
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * np.conj(phase) * row_p + c * row_q
                col_p = v[:, p].copy()
                col_q = v[:, q].copy()
                v[:, p] = c * col_p - s * np.conj(phase) * col_q
                v[:, q] = s * phase * col_p + c * col_q
    diag = np.real(np.diag(a))
    order = np.argsort(diag, kind="stable")
    return diag[order], v[:, order]


def jacobi_eigvals(h):
    return jacobi_eigh(h)[0]


def sqrtm_psd(h):
    """Matrix square root of a PSD Hermitian matrix via the Jacobi solver."""
    lam, vec = jacobi_eigh(h)
    lam = np.sqrt(np.clip(lam, 0.0, None))
    return (vec * lam) @ vec.conj().T


# ---------------------------------------------------------------------------
# loop-based tensor operations
# ---------------------------------------------------------------------------

def loops_kron(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for k in range(b.shape[0]):
                for l in range(b.shape[1]):
                    out[i * b.shape[0] + k, j * b.shape[1] + l] = a[i, j] * b[k, l]
    return out


def _flat(digits, dims):
    idx = 0
    for i, d in enumerate(dims):
        idx = idx * d + digits[i]
    return idx


def loops_partial_trace(rho, dims, keep):
    dims = tuple(dims)
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    kdims = [dims[i] for i in keep]
    dk = math.prod(kdims)
    out = np.zeros((dk, dk), dtype=complex)
    for row in itertools.product(*[range(d) for d in dims]):
        for col in itertools.product(*[range(d) for d in dims]):
            if any(row[i] != col[i] for i in traced):
                continue
            ri = _flat([row[i] for i in keep], kdims)
            ci = _flat([col[i] for i in keep], kdims)
            out[ri, ci] += rho[_flat(row, dims), _flat(col, dims)]
    return out


def loops_partial_transpose(rho, dims, transposed):
    dims = tuple(dims)
    tset = set(transposed)
    d = math.prod(dims)
    out = np.zeros((d, d), dtype=complex)
    for row in itertools.product(*[range(x) for x in dims]):
        for col in itertools.product(*[range(x) for x in dims]):
            new_row = tuple(col[i] if i in tset else row[i] for i in range(len(dims)))
            new_col = tuple(row[i] if i in tset else col[i] for i in range(len(dims)))
            out[_flat(new_row, dims), _flat(new_col, dims)] = rho[_flat(row, dims), _flat(col, dims)]
    return out


# ---------------------------------------------------------------------------
# measure oracles
# ---------------------------------------------------------------------------

def entropy(rho):
    lam = jacobi_eigvals(rho)
    total = 0.0
    for x in lam:
        if x > 1e-15:
            total -= x * math.log2(x)
    return total


def concurrence(rho):
    """Wootters concurrence via the Hermitian sqrt(rho) route."""
    s = sqrtm_psd(rho)
    m = s @ SY2 @ np.conj(rho) @ SY2 @ s
    lam_sq = np.clip(jacobi_eigvals(m), 0.0, None)[::-1]
    lam_sq[lam_sq < 1e-13 * max(lam_sq[0], 1e-300)] = 0.0  # solver-noise zeros
    lam = np.sqrt(lam_sq)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def negativity(rho, dims, side_a):
    pt = loops_partial_transpose(rho, dims, side_a)
    lam = jacobi_eigvals(pt)
    return (float(np.abs(lam).sum()) - 1.0) / 2.0


def eof(rho):
    c = concurrence(rho)
    x = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c)))
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def three_tangle(psi):
    """Three-tangle of a pure 3-qubit state, 4 |Cayley hyperdeterminant| of
    its normalised amplitudes a_ijk (Coffman, Kundu and Wootters, PRA 61,
    052306 (2000)): a closed form in the amplitudes, with no eigensolver."""
    a = np.asarray(psi, dtype=complex).reshape(2, 2, 2)
    a = a / math.sqrt(float((np.abs(a) ** 2).sum()))
    a000, a001, a010, a011, a100, a101, a110, a111 = a.ravel().tolist()
    d1 = (a000 * a111) ** 2 + (a001 * a110) ** 2 + (a010 * a101) ** 2 + (a100 * a011) ** 2
    d2 = (a000 * a111 * (a011 * a100 + a101 * a010 + a110 * a001)
          + a011 * a100 * (a101 * a010 + a110 * a001) + a101 * a010 * a110 * a001)
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    return 4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3)


def conditional_entropy_sum(rho, measured, theta, phi):
    """sum_k p_k S(other | outcome k) for projective measurements on the
    measured qubit along the direction(s) (theta, phi), built from the
    projectors |v><v| and I - |v><v| with v = (cos theta/2, e^{i phi} sin theta/2)
    and the closed-form eigenvalues of each unnormalized 2x2 conditional state.
    """
    t4 = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)  # [a, b, a', b']
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    v = np.stack([np.cos(theta / 2.0) + 0j, np.exp(1j * phi) * np.sin(theta / 2.0)])
    p0 = np.einsum("ag,bg->gab", v, v.conj())
    total = np.zeros(theta.shape[0])
    for proj in (p0, np.eye(2)[None, :, :] - p0):
        if measured == "a":
            # M[b,b'] = sum_{a,x} P[a,x] T[x,b,a,b']
            m = np.einsum("gax,xbay->gby", proj, t4)
        else:
            # M[a,a'] = sum_{b,x} P[b,x] T[a,x,a',b]
            m = np.einsum("gbx,axyb->gay", proj, t4)
        tr = np.real(m[:, 0, 0] + m[:, 1, 1])
        det = np.real(m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0])
        disc = np.sqrt(np.clip(tr * tr - 4.0 * det, 0.0, None))
        lam = np.stack([0.5 * (tr + disc), 0.5 * (tr - disc)])
        # p S(M/p) = -sum_i lam_i log2(lam_i / p), safe at lam = 0 or p = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            contrib = np.where(lam > 1e-18, lam * np.log2(lam / np.maximum(tr, 1e-300)), 0.0)
        total -= contrib.sum(axis=0)
    return total


def classical_correlation(rho, measured, grid=241):
    """Dense-grid maximization of S(other) - sum_k p_k S(other | k)."""
    rho = np.asarray(rho, dtype=complex)
    other = loops_partial_trace(rho, (2, 2), [1] if measured == "a" else [0])
    theta, phi = np.meshgrid(
        np.linspace(0.0, math.pi, grid),
        np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False),
        indexing="ij",
    )
    best = float(conditional_entropy_sum(rho, measured, theta.ravel(), phi.ravel()).min())
    return max(entropy(other) - best, 0.0)


def _xlog2x(x):
    return x * math.log2(x) if x > 0.0 else 0.0


def bell_diagonal(c):
    """rho = (I + sum_i c_i sigma_i x sigma_i) / 4 with Luo's closed forms
    (PRA 77, 042303 (2008)) for its classical correlation and discord, which
    are the same whichever qubit is measured. Returns (rho, classical, discord).
    """
    paulis = (
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1j], [1j, 0.0]]),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    )
    rho = np.eye(4, dtype=complex)
    for ci, s in zip(c, paulis):
        rho = rho + ci * loops_kron(s, s)
    rho = rho / 4.0
    c1, c2, c3 = c
    cmax = max(abs(ci) for ci in c)
    classical = 0.5 * (_xlog2x(1.0 - cmax) + _xlog2x(1.0 + cmax))
    mutual = 0.25 * sum(
        _xlog2x(x)
        for x in (1 - c1 - c2 - c3, 1 - c1 + c2 + c3, 1 + c1 - c2 + c3, 1 + c1 + c2 - c3)
    )
    return rho, classical, mutual - classical


def tangle_roof_chords(rho, dims, a_index, directions=2000, seed=0):
    """Upper bound on the convex-roof squared concurrence of a rank-2 state
    from all two-point chord decompositions of the support Bloch ball."""
    lam, vec = jacobi_eigh(rho)
    lam0, lam1 = float(lam[-1]), float(max(lam[-2], 0.0))
    support = vec[:, -2:][:, ::-1]
    m = np.array([0.0, 0.0, lam0 - lam1])

    def tau_pure(n_vec):
        th = math.acos(min(max(n_vec[2], -1.0), 1.0))
        ph = math.atan2(n_vec[1], n_vec[0])
        amp = np.array([math.cos(th / 2.0), math.sin(th / 2.0) * np.exp(1j * ph)])
        psi = support @ amp
        red = loops_partial_trace(np.outer(psi, psi.conj()), dims, [a_index])
        return float(np.real(2.0 * (1.0 - np.trace(red @ red))))

    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(directions):
        u = rng.normal(size=3)
        u /= math.sqrt(float((u * u).sum()))
        b = float(m @ u)
        disc = b * b - float(m @ m) + 1.0
        t1 = -b + math.sqrt(disc)
        t2 = -b - math.sqrt(disc)
        n1, n2 = m + t1 * u, m + t2 * u
        q1 = -t2 / (t1 - t2)
        val = q1 * tau_pure(n1) + (1.0 - q1) * tau_pure(n2)
        best = min(best, val)
    return best


def gram_schmidt_unitary(dim, rng):
    """Random unitary from Gaussian columns orthonormalized by hand."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for j in range(dim):
        v = m[:, j]
        for k in range(j):
            v = v - (m[:, k].conj() @ v) * m[:, k]
        m[:, j] = v / math.sqrt(float((np.abs(v) ** 2).sum()))
    return m


# ---------------------------------------------------------------------------
# reference: a former library kernel with an accurate last step
# ---------------------------------------------------------------------------

def wootters_by_spin_flip_products(rho):
    """The Wootters kernel of ``measures.concurrence_two_qubit`` as it was
    before the l_i became singular values of F^T (sy x sy) F: the Hermitian
    square root of rho, the spin flip as products with sy x sy, the clamps
    as np.clip and the 1e-13 cutoff on the l_i^2. Only its last step is
    changed: it took the l_i as square roots of the eigenvalues of
    sqrt(rho) rho~ sqrt(rho), which lose about eps / l_i on a small l_i
    (1.4e-13 of concurrence at l_4 = 1e-4, against a 60-digit mpmath run);
    here they are the singular values of X = sqrt(rho) (sy x sy) sqrt(rho)*,
    since X X^dag = sqrt(rho) rho~ sqrt(rho). Takes a stack (m, 4, 4) of
    density matrices and returns a list of m concurrences."""
    rho = np.asarray(rho, dtype=complex)
    h = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    evals, evecs = np.linalg.eigh(h)
    root = np.sqrt(np.clip(evals, 0.0, None))[:, None, :]
    sqrt_rho = (evecs * root) @ evecs.conj().swapaxes(-1, -2)
    x = sqrt_rho @ SY2 @ sqrt_rho.conj()
    out = []
    for row in np.linalg.svd(x, compute_uv=False).tolist():
        cutoff = 1e-13 * max(row[0] ** 2, 1e-300)
        l1, l2, l3, l4 = (0.0 if s * s < cutoff else s for s in row)
        c = min(max(l1 - l2 - l3 - l4, 0.0), 1.0)
        out.append(0.0 if abs(c) < 1e-12 else c)
    return out
