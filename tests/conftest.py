"""Shared fixtures and independent reference implementations (oracles).

The reference routines here deliberately use plain index loops or separate
algebraic routes so that library outputs are checked against code that does
not share their implementation.
"""

import math

import numpy as np
import pytest

from distilkit import BipartiteState, permutation_operator
from distilkit.symmetry import all_permutations


def pt_reference(mat: np.ndarray, dimA: int, dimB: int) -> np.ndarray:
    """Partial transpose on B of a single-pair operator, by explicit loops."""
    out = np.zeros_like(np.asarray(mat, dtype=complex))
    for a in range(dimA):
        for b in range(dimB):
            for ap in range(dimA):
                for bp in range(dimB):
                    out[a * dimB + b, ap * dimB + bp] = mat[a * dimB + bp, ap * dimB + b]
    return out


def partial_trace_reference(mat: np.ndarray, dims, keep_axis: int) -> np.ndarray:
    """Single-pair marginal of a two-pair operator by explicit contraction."""
    m = dims
    out = np.zeros((m, m), dtype=complex)
    if keep_axis == 0:
        for i in range(m):
            for j in range(m):
                out[i, j] = sum(mat[i * m + t, j * m + t] for t in range(m))
    else:
        for i in range(m):
            for j in range(m):
                out[i, j] = sum(mat[t * m + i, t * m + j] for t in range(m))
    return out


def explicit_twirl(mat: np.ndarray, pair_dim: int, k: int) -> np.ndarray:
    """1/k! sum_pi P_pi M P_pi^T with every dense pair-permutation matrix built."""
    acc = np.zeros(mat.shape, dtype=complex)
    for perm in all_permutations(k):
        p = permutation_operator(perm, pair_dim)
        acc += p @ mat @ p.T
    return acc / math.factorial(k)


def per_entry_pairs(a) -> list:
    """The [[re, im], ...] JSON encoding written one entry at a time (format reference)."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(a).reshape(-1)]


def signed_zero_matrix(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    """Random complex n x m matrix with signed zeros and extreme magnitudes mixed in."""
    mat = rng.standard_normal((n, m or n)) + 1j * rng.standard_normal((n, m or n))
    flat = mat.reshape(-1)
    flat[:4] = [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 3.0),
                complex(1e-300, -1e300)]
    return mat


def random_state(rng: np.random.Generator, dimA: int, dimB: int, pairs: int = 1) -> BipartiteState:
    n = (dimA * dimB) ** pairs
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return BipartiteState(rho / np.trace(rho).real, dimA, dimB, pairs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
