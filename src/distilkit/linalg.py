"""Dense linear-algebra helpers used across the toolkit.

Everything here works on plain numpy arrays; the physical index order
(pair-major, A factor before B factor inside a pair) is imposed by the
callers, this module only reshuffles whatever factor list it is given.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def herm_residual(m: np.ndarray) -> float:
    """Frobenius norm of the anti-Hermitian part of ``m``, an upper bound on its
    operator norm; ``inf`` when an entry is not finite, so tolerance tests reject it."""
    r = float(np.linalg.norm((m - dagger(m)) / 2.0))
    return r if np.isfinite(r) else np.inf


def hermitize(m: np.ndarray) -> np.ndarray:
    return (m + dagger(m)) / 2.0


def psd_proved(h: np.ndarray) -> bool:
    """True only if the exact Hermitian part H of ``h`` is proved positive
    semidefinite; False means "not proved", and a singular H is never proved.

    A floating Cholesky of M - cI, M = [[Re g, -Im g], [Im g, Re g]] (size N = 2n)
    the real embedding of g = fl((h + h^dag)/2), that ends with a finite factor
    gives lambda_min(M - cI) >= -alpha tr M, alpha = (N+1)u / (1 - 2(N+1)u) (Higham,
    Thm 10.3; Rump, BIT 46, 433 (2006)).  So H >= 0 with the shift
    c = 2 [(2 alpha + u) s + 2u |g|_F + 4(N+1)(2(N+1) + 2s) eta], s = sum_i |g_ii|,
    u = 2^-53, eta = 2^-1074: 2u |g|_F covers the rounding of g, u s that of the
    shifted diagonal, the eta term underflow and the factor 2 the rounding of c."""
    g = hermitize(np.asarray(h, dtype=complex))
    n1, u, eta = 2 * len(g) + 1, 2.0 ** -53, 2.0 ** -1074
    s = float(np.abs(g.diagonal()).sum())
    alpha = n1 * u / (1 - 2 * n1 * u)
    c = 2 * ((2 * alpha + u) * s + 2 * u * np.linalg.norm(g) + 4 * n1 * (2 * n1 + 2 * s) * eta)
    m = np.block([[g.real, -g.imag], [g.imag, g.real]])
    m[np.diag_indices_from(m)] -= c
    try:  # numpy does not raise on a NaN pivot, so the factor is checked as well
        return bool(np.isfinite(np.linalg.cholesky(m)).all())
    except np.linalg.LinAlgError:
        return False


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values; for Hermitian input the sum of |eigenvalues|."""
    return float(np.abs(np.linalg.eigvalsh(hermitize(m))).sum())


def min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitize(m))[0])


def permute_factors(mat: np.ndarray, dims: tuple[int, ...], perm: tuple[int, ...]) -> np.ndarray:
    """Conjugate ``mat`` by the unitary that reorders tensor factors ``dims`` by ``perm``.

    ``perm[j]`` is the old position of the factor that ends up at position ``j``.
    """
    n = len(dims)
    if sorted(perm) != list(range(n)):
        raise ParameterError(f"not a permutation of {n} factors: {perm}")
    full = mat.reshape(dims + dims)
    axes = tuple(perm) + tuple(n + p for p in perm)
    new_dims = tuple(dims[p] for p in perm)
    side = int(np.prod(new_dims))
    return full.transpose(axes).reshape(side, side)


def psd_project(h: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix (eigenvalue clipping)."""
    w, v = np.linalg.eigh(hermitize(h))
    w = np.clip(w, 0.0, None)
    return (v * w) @ dagger(v)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitize(g)


def random_pure(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, n: int, ancilla: int | None = None) -> np.ndarray:
    """Random density matrix from the induced Ginibre measure.

    ``ancilla = n`` (the default) is the Hilbert-Schmidt measure; larger
    ancilla dimensions concentrate the draws around the maximally mixed state.
    """
    k = n if ancilla is None else ancilla
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_isometry_cols(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """n x k matrix with orthonormal columns, Haar-distributed column span."""
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r).real)
