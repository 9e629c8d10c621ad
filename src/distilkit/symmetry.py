"""The pair-permutation symmetrization channels, finite de Finetti arithmetic,
and finite-support mixtures of product powers."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, states
from .errors import ParameterError
from .states import BipartiteState


@dataclass(frozen=True)
class Ensemble:
    """Probability-weighted finite list of single-pair states with equal dimensions."""

    weights: tuple[float, ...]
    members: tuple[BipartiteState, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if len(self.members) != w.size or w.size == 0:
            raise ParameterError("need one weight per member")
        if not (w.min() >= -states.EXACT_TOL and abs(w.sum() - 1.0) <= states.EXACT_TOL):
            raise ParameterError("weights must be nonnegative and sum to 1")
        dims = {(s.dimA, s.dimB, s.pairs) for s in self.members}
        if len(dims) != 1 or next(iter(dims))[2] != 1:
            raise ParameterError("members must be single-pair states with equal dimensions")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    def average(self) -> BipartiteState:
        return mixture_of_powers(self, 1)


@functools.lru_cache(maxsize=8)
def _orbit_table(dims: tuple[int, ...], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbit labels of the entries of a matrix on (C^d_1 (x) ... (x) C^d_f)^(x k),
    row-major, under S_k^f, whose copy c permutes factor c of the k slots; and
    the orbit sizes.  Both arrays are read-only.

    Under one copy, the orbit of entry (I, J) is fixed by the multiset of the
    slots' digit pairs q_s = i_s d + j_s.  Sorted ascending, the combinatorial
    number system ranks it densely as sum_s C(q_s + s, s + 1), in
    [0, C(d^2 + k - 1, k)).  The copies act independently, so an orbit of S_k^f
    is a tuple of one-copy orbits, labelled in mixed radix.  Row blocks of about
    2^16 entries keep the build's temporaries small.
    """
    f = len(dims)
    side = math.prod(dims) ** k
    digits = np.array(np.unravel_index(np.arange(side), dims * k))  # (k f, side), slot-major
    binom = [np.array([[math.comb(q + s, s + 1) for q in range(d * d)] for s in range(k)])
             for d in dims]
    radix = [math.comb(d * d + k - 1, k) for d in dims]
    labels = np.empty(side * side, dtype=np.intp)
    rows = max(1, 2 ** 16 // side)
    for r0 in range(0, side, rows):
        r = slice(r0, min(side, r0 + rows))
        block = 0
        for c, d in enumerate(dims):
            q = np.stack([digits[s * f + c, r, None] * d + digits[s * f + c] for s in range(k)])
            q.sort(axis=0)
            block = block * radix[c] + sum(binom[c][s][q[s]] for s in range(k))
        labels[r.start * side:r.stop * side] = block.reshape(-1)
    sizes = np.bincount(labels).astype(float)
    labels.setflags(write=False)
    sizes.setflags(write=False)
    return labels, sizes


def _partitions(k: int, largest: int | None = None):
    """Partitions of k with no part above ``largest`` (default k), largest part
    first, in reverse lexicographic order: (k), (k-1, 1), ..., (1, ..., 1)."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest or k), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def _semistandard_tableaux(shape: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    """Semistandard tableaux of ``shape`` with entries in range(m), each as its
    entries read row by row: rows weakly increase, columns strictly increase."""
    cells = [(i, j) for i, r in enumerate(shape) for j in range(r)]
    at = {cell: n for n, cell in enumerate(cells)}
    out = []

    def fill(prefix):
        if len(prefix) == len(cells):
            out.append(tuple(prefix))
            return
        i, j = cells[len(prefix)]
        lo = max(prefix[at[i, j - 1]] if j else 0, prefix[at[i - 1, j]] + 1 if i else 0)
        for v in range(lo, m):
            fill(prefix + [v])

    fill([])
    return out


def _signed_group_sum(x: np.ndarray, axes: list[int], sign: int) -> np.ndarray:
    """The sum of ``x`` with its ``axes`` permuted in every order, each term
    times the order's parity when ``sign`` is -1.  Every permutation of S_j is
    (i j) sigma for one i <= j and one sigma of S_{j-1}, so the sum is the
    product T_r ... T_2 with T_j = 1 + sign sum_{i<j} (i j): r(r-1)/2 axis
    swaps in place of r! permutations."""
    for n, j in enumerate(axes[1:], 1):
        acc = x.copy()
        for i in axes[:n]:
            acc += sign * x.swapaxes(i, j)
        x = acc
    return x


@functools.lru_cache(maxsize=8)
def _young_bases(pair_dim: int, k: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Orthonormal real bases B_lambda of the ranges of the Young symmetrizers
    a_lambda b_lambda of the canonical tableaux (slots numbered row by row), one
    per partition lambda of k with at most pair_dim rows, in the order of
    :func:`_partitions`: side by side as one read-only ``(pair_dim^k, sum d)``
    array, and the widths d_lambda.

    Each range is one copy of the GL(pair_dim) irrep lambda, of dimension
    d_lambda(pair_dim) (hook-content formula), and every operator that commutes
    with the pair permutations maps it into itself; so the blocks B^T S B of such
    an S carry all of its eigenvalues.  The range is spanned by the images of the
    d_lambda semistandard-tableau basis tensors under the column antisymmetrizer
    b_lambda and then the row symmetrizer a_lambda, each applied factored as axis
    swaps (:func:`_signed_group_sum`); one QR per partition orthonormalizes them.
    """
    blocks = []
    for shape in _partitions(k):
        if len(shape) > pair_dim:
            continue
        # axis 0 of x runs over the tableaux, so slot s is axis s + 1
        ends = np.cumsum(shape)
        rows = [list(range(end - r + 1, end + 1)) for r, end in zip(shape, ends)]
        cols = [[row[j] for row in rows if j < len(row)] for j in range(shape[0])]
        tableaux = np.array(_semistandard_tableaux(shape, pair_dim))
        x = np.zeros((len(tableaux),) + (pair_dim,) * k)
        x[(np.arange(len(tableaux)),) + tuple(tableaux.T)] = 1.0
        for axes in cols:
            x = _signed_group_sum(x, axes, -1)
        for axes in rows:
            x = _signed_group_sum(x, axes, 1)
        blocks.append(np.linalg.qr(x.reshape(len(tableaux), -1).T)[0])
    basis = np.hstack(blocks)
    basis.setflags(write=False)
    return basis, tuple(b.shape[1] for b in blocks)


def _orbit_average(mat: np.ndarray, dims: tuple[int, ...], k: int) -> np.ndarray:
    """Group average of a square matrix over S_k^f (see :func:`_orbit_table`), as a
    complex array; one slot (k = 1), or slots of dimension 1, return the input.

    (1/|G|) sum_g P_g M P_g^T takes entry (I, J) to the mean of M over the orbit
    of (I, J), by orbit-stabiliser: two bincount sums (real and imaginary
    parts) over the cached labels, and one gather."""
    if k == 1 or math.prod(dims) == 1:
        return np.asarray(mat, dtype=complex)
    labels, sizes = _orbit_table(dims, k)
    mat = np.asarray(mat)
    mean = np.zeros(sizes.size, dtype=complex)
    np.divide(np.bincount(labels, mat.real.reshape(-1)), sizes, out=mean.real)
    if np.iscomplexobj(mat):
        np.divide(np.bincount(labels, mat.imag.reshape(-1)), sizes, out=mean.imag)
    return mean[labels].reshape(mat.shape)


def symmetrize_matrix(mat: np.ndarray, pair_dim: int, k: int) -> np.ndarray:
    """Group average P_pi M P_pi^dag over all k! pair permutations of a raw
    (pair_dim^k, pair_dim^k) matrix."""
    if pair_dim < 1 or k < 1:
        raise ParameterError("need pair_dim >= 1 and k >= 1")
    mat = np.asarray(mat)
    if mat.shape != (states.power_dim(pair_dim, k),) * 2:
        raise ParameterError(f"matrix shape {mat.shape} does not match pair_dim**k = {pair_dim}**{k}")
    return _orbit_average(mat, (pair_dim,), k)


def symmetrize(state: BipartiteState) -> BipartiteState:
    """Group average over all k! pair permutations (a unital, trace-preserving
    channel): each entry becomes the mean of its orbit."""
    avg = symmetrize_matrix(state.data, state.pair_dim, state.pairs)
    return BipartiteState._own(avg, state.dimA, state.dimB, state.pairs)


def double_symmetrize(state: BipartiteState) -> BipartiteState:
    """Average over independent A-side and B-side pair permutations (k!^2 terms).

    An orbit of S_k x S_k is a pair of one-sided orbits, so its label is
    label_A n_B + label_B and the average is again one orbit mean per entry.
    """
    avg = _orbit_average(state.data, (state.dimA, state.dimB), state.pairs)
    return BipartiteState._own(avg, state.dimA, state.dimB, state.pairs)


def definetti_bound(d: int, k: int, n: int) -> float:
    """Trace-norm (unhalved) approximation bound 4 d^4 k / n for k-pair marginals
    of n-pair permutation-symmetric states by mixtures of product powers."""
    if d < 2 or k < 1 or n < 1:
        raise ParameterError("need d >= 2 and k, n >= 1")
    if k > n:
        raise ParameterError(f"k = {k} exceeds n = {n}")
    try:
        bound = 4.0 * d ** 4 * k / n
    except OverflowError:  # an integer that no float can hold
        bound = math.inf
    if not math.isfinite(bound):
        raise ParameterError("4 d^4 k / n overflows a float")
    return bound


def mixture_of_powers(ensemble: Ensemble, k: int) -> BipartiteState:
    """sum_i w_i rho_i^(x k): a permutation-symmetric extension whose every
    single-pair marginal equals the ensemble average.

    For k >= 2 it is one matrix product over the member axis i, by
    mix[(a b), (c d)] = sum_i (w_i rho_i)[a, c] (rho_i^(x (k-1)))[b, d]:
    the weighted members as (a, 1, c, i) times the (k-1)-fold powers as
    (1, b, i, d) broadcast to (a, b, c, d), which is already the row-major
    layout of the k-pair matrix, so it reshapes without a transposed copy and
    no weighted k-pair temporary is formed.  k = 1 is the ordered sum
    0 + w_0 rho_0 + w_1 rho_1 + ...."""
    m = ensemble.members[0]
    side = states.power_dim(m.pair_dim, k)  # the cap, before anything is allocated
    if k == 1:
        acc = 0
        for w, member in zip(ensemble.weights, ensemble.members):
            acc += w * member.data
        return BipartiteState._own(acc, m.dimA, m.dimB, 1)
    stack = np.stack([member.data for member in ensemble.members])
    head = np.asarray(ensemble.weights)[:, None, None] * stack
    rest = states.kron_power(stack, k - 1)
    mix = np.matmul(head.transpose(1, 2, 0)[:, None], rest.transpose(1, 0, 2)[None])
    return BipartiteState._own(mix.reshape(side, side), m.dimA, m.dimB, k)


# ---------------------------------------------------------------------------
# Upper bound on the distance to the mixture-of-powers set
# ---------------------------------------------------------------------------

def _realignment_candidates(state: BipartiteState, limit: int) -> list[np.ndarray]:
    """Member guesses from the realigned two-pair marginal with its second pair
    transposed, the Hermitian PSD sum_i w_i vec(rho_i) vec(rho_i)^dag: its top
    eigenvectors are the members when these are Hilbert-Schmidt orthogonal."""
    m = state.pair_dim
    two = states.partial_trace(state, {1, 2})
    realigned = two.data.reshape(m, m, m, m).transpose(0, 2, 3, 1).reshape(m * m, m * m)
    w, v = np.linalg.eigh(linalg.hermitize(realigned))
    out = []
    for idx in np.argsort(w)[::-1][:limit]:
        if w[idx] <= 1e-12:
            break
        cand = v[:, idx].reshape(m, m)
        tr = np.trace(cand)
        if abs(tr) > 1e-9:
            cand = cand * (tr.conjugate() / abs(tr))
        cand = linalg.psd_project(cand)
        t = np.trace(cand).real
        if t > 1e-12:
            out.append(cand / t)
    return out


#: weight-step iteration cap; it stops early once no weight moves by WEIGHT_TOL
WEIGHT_ITERS = 500
WEIGHT_TOL = 1e-15


def _simplex_projection(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (Duchi et al., ICML 2008)."""
    u = np.sort(v)[::-1]
    css = u.cumsum() - 1.0
    r = np.count_nonzero(u * np.arange(1, v.size + 1) > css)
    return np.maximum(v - css[r - 1] / r, 0.0)


def _weight_step(target: np.ndarray, powers: list[np.ndarray], w0: np.ndarray) -> np.ndarray:
    """Convex step: least-squares fit of the mixture to the target over the
    probability simplex, by accelerated projected gradient with adaptive restart
    started from ``w0``.  The projection ignores shifts along (1, ..., 1), so the
    step is 1/lambda_max of the Gram matrix restricted to sum-zero directions."""
    stack = np.stack([p.reshape(-1) for p in powers])
    gram = np.real(stack.conj() @ stack.T)
    rhs = np.real(stack.conj() @ target.reshape(-1))
    lam = np.linalg.eigvalsh(gram - gram.mean(0) - gram.mean(1)[:, None] + gram.mean())[-1]
    step = 1.0 / lam if lam > 0 else 0.0
    w = y = np.asarray(w0, dtype=float)
    theta = 1.0
    for _ in range(WEIGHT_ITERS):
        w_prev, w = w, _simplex_projection(y - step * (gram @ y - rhs))
        theta_new = (1.0 + np.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
        if (y - w) @ (w - w_prev) > 0:  # momentum points uphill: restart it
            theta_new, y = 1.0, w
        else:
            y = w + (theta - 1.0) / theta_new * (w - w_prev)
        theta = theta_new
        if abs(w - w_prev).max() < WEIGHT_TOL:
            break
    return w


def best_product_mixture_distance(
    state: BipartiteState,
    restarts: int = 4,
    iters: int = 40,
    seed: int | None = None,
    support: int | None = None,
) -> tuple[float, Ensemble]:
    """Upper bound on the trace distance from a symmetric k-pair state to the
    set of mixtures of k-fold product powers.

    Alternates a convex weight step with randomized member perturbations;
    member pools are seeded with the single-pair marginal and realignment
    guesses.  Single powers rho^(x k) and mixtures of Hilbert-Schmidt-orthogonal
    members (with distinct w_i tr rho_i^2) resolve exactly, to ~0 distance, at
    any k >= 2; other inputs get an upper bound only.
    """
    k = state.pairs
    if k < 2:
        raise ParameterError("need at least 2 pairs")
    if restarts < 1:
        raise ParameterError("need restarts >= 1")
    if iters < 0:
        raise ParameterError("need iters >= 0")
    sym = symmetrize(state)
    if states.trace_distance(sym, state) > 1e-9:
        raise ParameterError("input is not permutation-symmetric; symmetrize first")
    m = state.pair_dim
    if support is None:
        support = k * m * m
    target = state.data
    marginal = states.partial_trace(state, {1}).data
    base_pool = [marginal] + _realignment_candidates(state, m * m)

    rng_root = np.random.default_rng(seed)
    child_seeds = rng_root.integers(0, 2 ** 63 - 1, size=restarts)

    def run(restart_idx: int) -> tuple[float, list[np.ndarray], np.ndarray]:
        rng = np.random.default_rng(child_seeds[restart_idx])
        members = [mat.copy() for mat in base_pool]
        while len(members) < support:
            members.append(linalg.random_density(rng, m))
        members = members[:support]
        powers = [states.kron_power(mat, k) for mat in members]
        w = np.full(len(members), 1.0 / len(members))
        w = _weight_step(target, powers, w)

        def objective(wv, pw):
            mix = sum(x * p for x, p in zip(wv, pw))
            return 0.5 * linalg.trace_norm(target - mix)

        best = objective(w, powers)
        step = 0.15
        for _ in range(iters):
            if best < 1e-9:
                break
            order = np.argsort(w)[::-1]
            improved = False
            for idx in order[: max(3, len(order) // 4)]:
                cand = linalg.psd_project(members[idx] + step * linalg.random_hermitian(rng, m))
                t = np.trace(cand).real
                if t < 1e-12:
                    continue
                cand /= t
                trial_powers = list(powers)
                trial_powers[idx] = states.kron_power(cand, k)
                w_trial = _weight_step(target, trial_powers, w)
                val = objective(w_trial, trial_powers)
                if val < best - 1e-12:
                    members[idx] = cand
                    powers = trial_powers
                    w, best = w_trial, val
                    improved = True
            if not improved:
                step *= 0.5
                if step < 1e-4:
                    break
        return best, members, w

    results = [run(i) for i in range(restarts)]
    best_val = min(r[0] for r in results)
    for r in results:  # first restart attaining the best value within 1e-12
        if r[0] <= best_val + 1e-12:
            best_val, members, w = r
            break
    keep = w > 1e-12
    w_kept = w[keep] / w[keep].sum()
    ens = Ensemble(
        tuple(w_kept),
        tuple(BipartiteState(members[i], state.dimA, state.dimB) for i in np.nonzero(keep)[0]),
    )
    return float(best_val), ens


# ---------------------------------------------------------------------------
# Ensemble JSON: {"weights": [...], "members": [inline state or file path]}
# ---------------------------------------------------------------------------

def ensemble_to_dict(ensemble: Ensemble) -> dict:
    return {
        "weights": list(ensemble.weights),
        "members": [states.state_to_dict(s) for s in ensemble.members],
    }


def ensemble_from_dict(payload: dict) -> Ensemble:
    try:
        weights = payload["weights"]
        raw_members = payload["members"]
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"malformed ensemble payload: {exc}") from exc
    if not isinstance(weights, list) or not all(type(w) in (int, float) for w in weights):
        raise ParameterError("ensemble weights must be a list of JSON numbers")
    if not isinstance(raw_members, list) or not all(isinstance(m, (str, dict)) for m in raw_members):
        raise ParameterError("ensemble members must be a list of state objects or file paths")
    members = [states.load_state(m) if isinstance(m, str) else states.state_from_dict(m)
               for m in raw_members]
    return Ensemble(tuple(float(w) for w in weights), tuple(members))


def save_ensemble(ensemble: Ensemble, path) -> None:
    states.write_json(path, ensemble_to_dict(ensemble))


def load_ensemble(path) -> Ensemble:
    return ensemble_from_dict(states.read_json(path))
