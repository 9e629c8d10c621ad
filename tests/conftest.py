"""Shared fixtures and independent reference implementations (oracles).

The reference routines here deliberately use plain index loops or separate
algebraic routes so that library outputs are checked against code that does
not share their implementation.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from distilkit import BipartiteState, Frame, distillability, linalg
from distilkit.errors import NumericalError, ParameterError
from distilkit.states import power_dim, to_global_cut


@dataclass(frozen=True)
class Permutation:
    """Bijection on pair slots 1..k, stored as the image tuple (1-based)."""

    k: int
    mapping: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.mapping) != list(range(1, self.k + 1)):
            raise ParameterError(f"mapping {self.mapping} is not a bijection on 1..{self.k}")

    def inverse(self) -> "Permutation":
        inv = [0] * self.k
        for src, dst in enumerate(self.mapping, start=1):
            inv[dst - 1] = src
        return Permutation(self.k, tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """(self . other)(j) = self(other(j))."""
        if self.k != other.k:
            raise ParameterError("permutation sizes differ")
        return Permutation(self.k, tuple(self.mapping[other.mapping[j] - 1] for j in range(self.k)))


def permutation_operator(perm: Permutation, pair_dim: int) -> np.ndarray:
    """Unitary 0/1 matrix permuting whole pairs.

    P |i_1 ... i_k> = |i_{perm^{-1}(1)} ... i_{perm^{-1}(k)}>, which gives the
    homomorphism P_a P_b = P_{a.compose(b)}; it is the identity with its row
    factors reordered by perm^{-1}.
    """
    k = perm.k
    size = power_dim(pair_dim, k)
    rows = tuple(i - 1 for i in perm.inverse().mapping)
    eye = np.eye(size).reshape((pair_dim,) * (2 * k))
    return eye.transpose(rows + tuple(range(k, 2 * k))).reshape(size, size)


def all_permutations(k: int):
    for tup in itertools.permutations(range(1, k + 1)):
        yield Permutation(k, tup)


def transposition_sweeps(t: np.ndarray, slots: range) -> np.ndarray:
    """Sum of conjugations by all permutations of the factors ``slots`` of the
    ``dims + dims`` tensor view ``t``, by the Jucys-Murphy factorisation
    sum_{sigma in S_k} sigma = prod_{j=2}^{k} (1 + sum_{i<j} (i j)):
    k(k-1)/2 axis swaps of a row and a column factor pair, not one gather per sigma."""
    n = t.ndim // 2
    for pos, j in enumerate(slots[1:], start=1):
        views = []
        for i in slots[:pos]:
            axes = list(range(2 * n))
            axes[i], axes[j], axes[n + i], axes[n + j] = j, i, n + j, n + i
            views.append(t.transpose(axes))
        acc = t + views[0]
        for view in views[1:]:
            acc += view
        t = acc
    return t


def sweep_twirl(mat: np.ndarray, pair_dim: int, k: int) -> np.ndarray:
    """1/k! sum_pi P_pi M P_pi^T by transposition sweeps over the pair slots."""
    t = np.asarray(mat, dtype=complex).reshape((pair_dim,) * (2 * k))
    return transposition_sweeps(t, range(k)).reshape(pair_dim ** k, -1) / math.factorial(k)


def sweep_double_twirl(mat: np.ndarray, dimA: int, dimB: int, k: int) -> np.ndarray:
    """Average over independent A-side and B-side pair permutations by one sweep
    over the A factors and one over the B factors (the two groups commute)."""
    t = np.asarray(mat, dtype=complex).reshape((dimA, dimB) * (2 * k))
    for slots in (range(0, 2 * k, 2), range(1, 2 * k, 2)):
        t = transposition_sweeps(t, slots)
    return t.reshape(mat.shape) / math.factorial(k) ** 2


def global_cut_pt_reference(mat: np.ndarray, dimA: int, dimB: int, pairs: int) -> np.ndarray:
    """rho^Gamma on the global A|B cut of a k-pair operator, entry by entry: with
    a, a' the A digits and b, b' the B digits of a row and a column, entry
    [(a b), (a' b')] is mat[(a1 b1' ... ak bk'), (a1' b1 ... ak' bk)] in the
    pair-major order."""
    dims = (dimA, dimB) * pairs

    def pair_major(a, b):
        return np.ravel_multi_index(tuple(itertools.chain(*zip(a, b))), dims)

    cut = [(a, b) for a in itertools.product(range(dimA), repeat=pairs)
           for b in itertools.product(range(dimB), repeat=pairs)]
    out = np.zeros((len(cut), len(cut)), dtype=complex)
    for r, (a, b) in enumerate(cut):
        for c, (ap, bp) in enumerate(cut):
            out[r, c] = mat[pair_major(a, bp), pair_major(ap, b)]
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


PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def lorentz_f2(state: BipartiteState) -> float:
    """Filtered singlet fraction of a 2x2 state in closed form, from its Lorentz
    normal form (Verstraete-Dehaene-De Moor, PRA 64, 010101(R) (2001);
    Verstraete-Verschelde, PRL 90, 097901 (2003)).

    R_ij = tr[rho sigma_i (x) sigma_j]; the eigenvalues of R eta R^T eta, with
    eta = diag(1, -1, -1, -1), are the squared Lorentz singular values
    s_0 >= s_1 >= s_2 >= s_3.  Local filters take rho to the Bell-diagonal state
    of correlations c_i = s_i / s_0, with c_3 carrying the sign of det R, and
    f2 = max(1/2, its largest Bell weight (1 + e . c) / 4, e in {(+-+), (-++), (++-), (---)}).
    """
    basis = np.array([np.kron(a, b) for a in PAULI for b in PAULI])
    r = np.real(np.einsum("ab,iba->i", state.data, basis)).reshape(4, 4)
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    s = np.sqrt(np.clip(np.sort(np.linalg.eigvals(r @ eta @ r.T @ eta).real)[::-1], 0.0, None))
    c = s[1:] / s[0]
    c[2] *= np.sign(np.linalg.det(r))
    signs = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]])
    return max(0.5, float((1.0 + signs @ c).max()) / 4.0)


def seesaw_reference(state: BipartiteState, t: int, restarts: int, iters: int = 500,
                     tol: float = 1e-9, seed=None) -> dict:
    """The phi_t see-saw run one restart after another, each to its own stop, with
    single-filter half-steps: the loop the stacked see-saw replaced.  Same child
    seeds, starts and re-draw rule; returns the chosen value and restart with the
    per-restart values, sweep counts and re-draws."""
    dA, dB = state.dimA ** state.pairs, state.dimB ** state.pairs
    rho4 = to_global_cut(state).reshape(dA, dB, dA, dB)
    child = np.random.default_rng(seed).integers(0, 2 ** 63 - 1, size=restarts)

    def random_filters(r):
        A = r.standard_normal((t, dA)) + 1j * r.standard_normal((t, dA))
        B = r.standard_normal((t, dB)) + 1j * r.standard_normal((t, dB))
        return A / np.linalg.norm(A, 2), B / np.linalg.norm(B, 2)

    def start(idx, r):
        if idx == 0:
            return np.eye(t, dA, dtype=complex), np.eye(t, dB, dtype=complex)
        if idx == 1:  # rank-1 floor: top eigenvector of rho_A, then of <a|rho|a>
            a = np.linalg.eigh(linalg.hermitize(np.trace(rho4, axis1=1, axis2=3)))[1][:, -1]
            cond = np.einsum("a,abcd,c->bd", a.conj(), rho4, a)
            b = np.linalg.eigh(linalg.hermitize(cond))[1][:, -1]
            A, B = np.zeros((t, dA), complex), np.zeros((t, dB), complex)
            A[0], B[0] = a.conj(), b.conj()
            return A, B
        return random_filters(r)

    def run(A, B):
        value = -np.inf
        for sweep in range(1, iters + 1):
            A, _ = distillability._rayleigh_step(rho4, B, t, "A")
            B, new_val = distillability._rayleigh_step(rho4, A, t, "B")
            if new_val < value + tol:
                return max(value, new_val), (A, B), sweep
            value = new_val
        return value, (A, B), iters

    values, filters, sweeps, redraws = [], [], [], []
    for idx in range(restarts):
        r = np.random.default_rng(child[idx])
        init, out, fails = start(idx, r), (None, None, 0), 0
        while fails < 4:
            try:
                distillability.apply_filter_pair(state, distillability.FilterPair(*init))
                out = run(*init)
                break
            except (NumericalError, np.linalg.LinAlgError):
                fails += 1
                init = random_filters(r)
        values.append(out[0])
        filters.append(out[1])
        sweeps.append(out[2])
        redraws.append(fails)
    alive = [v for v in values if v is not None]
    best = next(i for i, v in enumerate(values) if v is not None and v >= max(alive) - 1e-12)
    overlap, weight = distillability.filter_ratio(state, distillability.FilterPair(*filters[best]))
    return {"value": overlap / weight, "best_restart": best, "values": values,
            "iterations": sweeps, "redraws": redraws}


def pairing_by_matrix_units(sigma: BipartiteState, z: np.ndarray) -> np.ndarray:
    """M with tr[sigma (rho^T (x) z)] = tr[rho^T M], entry by entry: M[b, a] is the
    pairing of the matrix unit |a><b| (x) z, woven into A2 A3 B2 B3 by kron."""
    d = sigma.dimA // 2
    m = np.zeros((d * d, d * d), dtype=complex)
    for a, b in itertools.product(range(d * d), repeat=2):
        unit = np.zeros((d * d, d * d))
        unit[a, b] = 1.0
        op = linalg.permute_factors(np.kron(unit, z), (d, d, 2, 2), (0, 2, 1, 3))
        m[b, a] = np.trace(sigma.data @ op)
    return m


def protocol_by_filters(rho: BipartiteState, sigma: BipartiteState) -> np.ndarray:
    """The activation protocol as it is run: the pair rho (x) sigma by ``np.kron``,
    in the factor order A1 B1 (A2 A3) (B2 B3), conjugated by the local filters
    F = vec(I_d)^T (x) I_2 on A1 (A2 A3) and on B1 (B2 B3), built with ``np.kron``;
    F (x) F is permuted to the pair's factor order.  Returns the unnormalized
    two-qubit output."""
    d = rho.dimA
    f = np.kron(np.eye(d).reshape(1, -1), np.eye(2))  # (2, d * 2d), <i|_A1 <i|_A2 (x) I_A3
    ff = np.kron(f, f).reshape(4, d, 2 * d, d, 2 * d)  # columns A1 (A2 A3) B1 (B2 B3)
    op = ff.transpose(0, 1, 3, 2, 4).reshape(4, -1)  # columns A1 B1 (A2 A3) (B2 B3)
    return op @ np.kron(rho.data, sigma.data) @ op.conj().T


def jam_check(rho: BipartiteState, sigma: BipartiteState, trials: int = 20,
              seed: int | None = None) -> tuple[float, float]:
    """Induced-map proportionality tr[out Z] = c tr[sigma (rho^T (x) Z)] over random
    positive Z, with ``out`` the physical protocol's output (``protocol_by_filters``)
    and the right side paired by matrix units; returns (c, largest relative
    deviation across Z)."""
    rng = np.random.default_rng(seed)
    out = protocol_by_filters(rho, sigma)
    ratios = []
    for _ in range(trials):
        z = linalg.random_density(rng, 4) * (1.0 + 3.0 * rng.random())
        den = np.trace(rho.data.T @ pairing_by_matrix_units(sigma, z)).real
        if abs(den) >= 1e-14:
            ratios.append(np.trace(out @ z).real / den)
    if not ratios:
        raise NumericalError("all probe operators were degenerate")
    c = float(np.mean(ratios))
    return c, float(max(abs(r - c) for r in ratios) / max(abs(c), 1e-300))


def product_frame(a: Frame, b: Frame) -> Frame:
    """The tensor-product POVM of two local frames, one ``np.kron`` per joint
    outcome (k, l), flattened as k * b.n_outcomes + l: the (m^2, m, m) stacks that
    the library's local contractions never form."""
    return Frame(np.array([np.kron(x, y) for x in a.elements for y in b.elements]),
                 np.array([np.kron(x, y) for x in a.duals for y in b.duals]))


def born_by_product_frame(state: BipartiteState, frame: Frame) -> np.ndarray:
    """tr[M_kl rho] for each product element, clipped and renormalized as the library does."""
    p = np.clip([np.real(np.trace(e @ state.data)) for e in frame.elements], 0.0, None)
    return p / p.sum()


def reconstruct_by_product_frame(probs: np.ndarray, frame: Frame) -> np.ndarray:
    """sum_kl p_kl (D_k (x) G_l) over the product duals."""
    return linalg.hermitize(np.tensordot(probs, frame.duals, axes=1))


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
