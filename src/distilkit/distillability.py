"""Singlet-fraction see-saw optimization, distillability certificates, PPT
checks, and dual-cone positivity utilities.

All searches are one-sided: a negative certificate proves distillability,
while "no violation found within budget" never claims undistillability.

The dual-cone utilities decide whether the pair symmetrization S(Q) of a
witness is positive semidefinite.  S(Q) commutes with every pair permutation,
so by Schur-Weyl duality its spectrum is the union of the spectra of one small
block per partition of the pair count: S(Q) restricted to the range of that
partition's Young symmetrizer, whose real orthonormal basis is cached per
(pair dimension, pairs) in ``symmetry``.  No eigensolve of the whole S(Q) is
made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg, states, symmetry
from .errors import NumericalError, OptimizationError, ParameterError
from .states import BipartiteState, phi_projector, to_global_cut

#: see-saw defaults (converge on all two-qubit benchmarks well under a second)
DEFAULT_RESTARTS = 32
DEFAULT_ITERS = 500
DEFAULT_TOL = 1e-9

#: denominator regularization for the generalized eigenproblem; a post-selection
#: whose success weight does not exceed it is degenerate
DENOM_REG = 1e-14

#: an expectation below this counts as a violation certificate
VIOLATION_TOL = 1e-9


@dataclass(frozen=True)
class FilterPair:
    """Local filter pair; each factor maps a local space onto a low-dimensional image."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=complex))
        object.__setattr__(self, "B", np.asarray(self.B, dtype=complex))

    def normalized(self) -> "FilterPair":
        """Spectral norm 1 and one phase gauge: the first row-major entry whose
        modulus is at least half the largest is real and positive.  Rounding cannot
        move that entry, so filters equal up to phase give equal certificates."""
        def gauge(f):
            mod = np.abs(f.reshape(-1))
            lead = f.reshape(-1)[np.argmax(mod >= mod.max() / 2)]
            return f * (abs(lead) / lead) / np.linalg.norm(f, 2)

        return FilterPair(gauge(self.A), gauge(self.B))

    def to_dict(self) -> dict:
        return {"type": "filter_pair", "A": states.encode_matrix(self.A),
                "B": states.encode_matrix(self.B)}


@dataclass
class WitnessReport:
    """Scalar verdict plus the certificate that produced it."""

    value: float
    certificate: object
    budget_exhausted: bool = False
    seed: Optional[int] = None
    restarts: int = 0
    #: search diagnostics, in restart order: sweeps run (of the last start, when a
    #: see-saw start was re-drawn), degenerate see-saw re-draws, and the restart that
    #: gave ``value``; the Schmidt-rank-2 search counts its attempts as restarts
    iterations: Optional[list] = None
    redraws: Optional[list] = None
    best_restart: Optional[int] = None

    def to_dict(self) -> dict:
        cert = self.certificate
        if isinstance(cert, FilterPair):
            payload = cert.to_dict()
        elif cert is None:
            payload = None
        else:
            payload = {"type": "schmidt_rank2_vector", "vector": states.encode_complex(cert)}
        return {
            "value": float(self.value),
            "certificate": payload,
            "budget_exhausted": bool(self.budget_exhausted),
            "seed": self.seed,
            "restarts": int(self.restarts),
            "iterations": self.iterations,
            "redraws": self.redraws,
            "best_restart": self.best_restart,
        }


def _success_weights(rho4: np.ndarray, A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Success weights tr[(A (x) B) rho (A (x) B)^dag] of filter pairs, one or a
    stack ``(..., t, dA)``, ``(..., t, dB)``, on ``rho4`` ``(dA, dB, dA, dB)``, and
    whether each post-selection is sound: a weight not above ``DENOM_REG`` is
    degenerate.  The weight is tr[rho (A^dag A (x) B^dag B)]."""
    gram_a, gram_b = A.swapaxes(-1, -2) @ A.conj(), B.swapaxes(-1, -2) @ B.conj()  # (A^dag A)^T
    outer = states.kron(gram_a, gram_b)
    weight = (outer.reshape(outer.shape[:-2] + (-1,)) @ rho4.reshape(-1)).real
    return weight, weight > DENOM_REG


def apply_filter_pair(state: BipartiteState, fp: FilterPair) -> tuple[np.ndarray, float]:
    """(A (x) B) rho (A (x) B)^dag across the aggregated A|B cut (unnormalized) and
    its trace, the success weight.  A weight not above ``DENOM_REG`` is a degenerate
    post-selection and raises NumericalError."""
    rho4 = to_global_cut(state)
    dA, dB = rho4.shape[:2]
    if fp.A.shape[1] != dA or fp.B.shape[1] != dB:
        raise ParameterError("filter shapes do not match the state's A|B cut")
    weight, sound = _success_weights(rho4, fp.A, fp.B)
    if not sound:
        raise NumericalError("degenerate post-selection: the filters annihilate the state")
    op = states.kron(fp.A, fp.B)
    return op @ rho4.reshape(dA * dB, -1) @ linalg.dagger(op), float(weight)


def filter_ratio(state: BipartiteState, fp: FilterPair) -> tuple[float, float]:
    """(overlap with phi_t, success weight) of the filtered state; t from filter rows.
    Their ratio is the phi_t fidelity of the post-selected state."""
    out, weight = apply_filter_pair(state, fp)
    overlap = float(np.real(np.trace(out @ phi_projector(fp.A.shape[0]))))
    return overlap, weight


def _rayleigh_step(rho4: np.ndarray, other: np.ndarray, t: int, side: str) -> tuple[np.ndarray, np.ndarray]:
    """Maximize the filtered phi_t overlap ratio over one filter with the other fixed.

    Both the overlap and the success weight are quadratic forms in the free
    filter (flattened row-major), so the optimum is the top generalized
    eigenvector of (numerator, denominator) matrices.  ``other`` is one filter
    ``(t, d)`` or a stack ``(..., t, d)`` of them; each slice is solved on its
    own, giving filters ``(..., t, d_free)`` and values ``(...)``.

    - Numerator: the outer product conj(other_x) (x) other_y of the fixed filter's
      rows, times ``rho4`` rearranged as a ``(d_other^2, d_free^2)`` matrix: one
      matmul for the whole stack.
    - Denominator: I_t (x) D^T with D^T = t sum_x num[x, :, x, :]; the diagonal block
      t num[x, :, x, :] is the success-weight form of the fixed filter's row x, so
      the weight needs no second contraction of ``rho4``.
    - Whitening: one Cholesky factor L of D^T + DENOM_REG I turns the generalized
      problem into a standard one (Golub-Van Loan 8.7).  L^-1 acts blockwise on the
      ``(t, d)`` axes, and the eigenvector V maps back as V conj(L^-1).
      LinAlgError if the denominator is not positive definite.
    - Normalization: the ratio does not depend on scale, so the new filter is
      scaled to unit Frobenius norm; callers spectral-normalize a returned
      certificate (``FilterPair.normalized``).
    """
    if side == "A":
        rearranged = rho4.transpose(3, 1, 2, 0)  # [b, d, a, c] = rho4[c, d, a, b]
    else:
        rearranged = rho4.transpose(2, 0, 3, 1)  # [a, c, b, d] = rho4[c, d, a, b]
    batch, d_other = other.shape[:-2], other.shape[-1]
    d_loc = rearranged.shape[-1]
    n = t * d_loc
    outer = states.kron(other.conj(), other)
    scaled = (outer.reshape(-1, d_other * d_other) @ rearranged.reshape(d_other * d_other, -1)
              ).reshape(batch + (t, t, d_loc, d_loc)).swapaxes(-3, -2)  # t num[x, a, y, c]
    den = np.einsum("...xaxc->...ac", scaled)
    num = linalg.hermitize(scaled.reshape(batch + (n, n)) / t)
    chol = np.linalg.cholesky(linalg.hermitize(den) + DENOM_REG * np.eye(d_loc))
    inv = np.linalg.inv(chol)
    # L^-1 from the left on each of the t row blocks, L^-dag from the right on
    # each column block: the rows and column blocks share one matmul
    white = (inv[..., None, :, :] @ num.reshape(batch + (t, d_loc, n))).reshape(batch + (n * t, d_loc))
    w, v = np.linalg.eigh((white @ linalg.dagger(inv)).reshape(batch + (n, n)))
    new = v[..., -1].reshape(batch + (t, d_loc)) @ inv.conj()
    return new / np.linalg.norm(new, axis=(-2, -1), keepdims=True), w[..., -1]


def _fd_seesaw(
    state: BipartiteState,
    t: int,
    restarts: int,
    iters: int,
    tol: float,
    seed: Optional[int],
) -> WitnessReport:
    if restarts < 1:
        raise ParameterError("need restarts >= 1")
    if iters < 1:
        raise ParameterError("need iters >= 1")
    if not 0 <= tol < np.inf:
        raise ParameterError("need a finite tol >= 0")
    rho4 = to_global_cut(state)
    dA, dB = rho4.shape[:2]
    child = np.random.default_rng(seed).integers(0, 2 ** 63 - 1, size=restarts)
    gens = [np.random.default_rng(c) for c in child]

    def rank1_floor():
        # A = |0><a|, B = |0><b| reaches exactly 1/t whenever <ab|rho|ab> > 0
        redA = np.trace(rho4, axis1=1, axis2=3)  # tr_B -> (dA, dA)
        a = np.linalg.eigh(linalg.hermitize(redA))[1][:, -1]
        cond = np.einsum("a,abcd,c->bd", a.conj(), rho4, a)
        b = np.linalg.eigh(linalg.hermitize(cond))[1][:, -1]
        A = np.zeros((t, dA), dtype=complex)
        B = np.zeros((t, dB), dtype=complex)
        A[0, :] = a.conj()
        B[0, :] = b.conj()
        return A, B

    def random_filters(rows):
        """Random starts for ``rows``, each drawn from the row's own generator and
        scaled to spectral norm 1 by one stacked SVD per side."""
        draws = [(g.standard_normal((t, dA)) + 1j * g.standard_normal((t, dA)),
                  g.standard_normal((t, dB)) + 1j * g.standard_normal((t, dB)))
                 for g in (gens[i] for i in rows)]
        return tuple(f / np.linalg.svd(f, compute_uv=False)[:, :1, None]
                     for f in map(np.array, zip(*draws)))

    # one row per restart: the embedding |i><i| (i < min(t, d)), the rank-1 floor,
    # then random filters; all active rows advance together, one stacked half-step each
    A = np.zeros((restarts, t, dA), dtype=complex)
    B = np.zeros((restarts, t, dB), dtype=complex)
    A[0], B[0] = np.eye(t, dA), np.eye(t, dB)
    if restarts > 1:
        A[1], B[1] = rank1_floor()
    if restarts > 2:
        A[2:], B[2:] = random_filters(range(2, restarts))
    value = np.full(restarts, -np.inf)
    sweeps = np.zeros(restarts, dtype=int)
    redraws = np.zeros(restarts, dtype=int)
    capped = np.zeros(restarts, dtype=bool)  # stopped by iters, still gaining tol or more
    active = _success_weights(rho4, A, B)[1]

    def redraw(i):
        """Re-draw row i after a degenerate start or a failed half-step, from the
        row's own generator; a row that fails four times is dropped (stays inactive)."""
        value[i], sweeps[i], active[i] = -np.inf, 0, False
        redraws[i] += 1
        while redraws[i] < 4:
            A[i:i + 1], B[i:i + 1] = random_filters([i])
            if _success_weights(rho4, A[i], B[i])[1]:
                active[i] = True
                return
            redraws[i] += 1

    for i in np.flatnonzero(~active):
        redraw(i)

    def sweep(idx):
        """One A then B half-step on rows idx.  A row stops once a sweep gains less
        than tol (keeping the larger value) or after iters sweeps."""
        newA, _ = _rayleigh_step(rho4, B[idx], t, "A")
        newB, new_val = _rayleigh_step(rho4, newA, t, "B")
        A[idx], B[idx] = newA, newB
        sweeps[idx] += 1
        done = new_val < value[idx] + tol
        value[idx] = np.where(done, np.maximum(value[idx], new_val), new_val)
        capped[idx] = ~done & (sweeps[idx] >= iters)
        active[idx[done | capped[idx]]] = False

    while active.any():
        idx = np.flatnonzero(active)
        try:
            sweep(idx)
        except np.linalg.LinAlgError:
            # a denominator that is not positive definite fails the whole stack:
            # sweep the rows one at a time and re-draw the ones that fail
            for i in idx:
                try:
                    sweep(np.array([i]))
                except np.linalg.LinAlgError:
                    redraw(i)

    alive = redraws < 4
    if not alive.any():
        raise OptimizationError("all see-saw restarts degenerated")
    best = int(np.flatnonzero(alive & (value >= value[alive].max() - 1e-12))[0])
    fp = FilterPair(A[best], B[best]).normalized()
    try:
        overlap, weight = filter_ratio(state, fp)
        result = overlap / weight
    except NumericalError:
        result = value[best]
    return WitnessReport(value=float(result), certificate=fp, budget_exhausted=bool(capped.any()),
                         seed=seed, restarts=restarts, iterations=sweeps.tolist(),
                         redraws=redraws.tolist(), best_restart=best)


def f2(
    state: BipartiteState,
    *,
    restarts: int = DEFAULT_RESTARTS,
    iters: int = DEFAULT_ITERS,
    tol: float = DEFAULT_TOL,
    seed: Optional[int] = None,
) -> WitnessReport:
    """Lower bound on the filtered two-qubit singlet fraction with its achieving filters.

    Alternates exact Rayleigh-quotient maximizations over A and B; each
    half-step is a generalized Hermitian eigenproblem, so the value never
    decreases along iterations.  Values above 1/2 certify single-copy
    distillability.  The restarts are batched: all running restarts take
    each half-step together as one stack, and each stops on its own.  The
    report's ``iterations`` and ``redraws`` give each restart's sweeps and
    degenerate re-draws, and ``best_restart`` the restart that gave the value.
    ``budget_exhausted`` is set when a restart stopped at ``iters`` sweeps while
    still gaining ``tol`` or more, so that its value could still rise.
    The search options ``restarts``, ``iters``, ``tol`` and ``seed`` are
    keyword-only.
    """
    return _fd_seesaw(state, 2, restarts, iters, tol, seed)


def fD(
    state: BipartiteState,
    D: int,
    *,
    restarts: int = DEFAULT_RESTARTS,
    iters: int = DEFAULT_ITERS,
    tol: float = DEFAULT_TOL,
    seed: Optional[int] = None,
) -> WitnessReport:
    """Lower bound on the filtered phi_D fraction (target of output dimension D).

    The search options are keyword-only, in the order of :func:`f2`."""
    if D < 2:
        raise ParameterError("need D >= 2")
    return _fd_seesaw(state, D, restarts, iters, tol, seed)


# ---------------------------------------------------------------------------
# Schmidt-rank-2 negativity search (single-copy distillability)
# ---------------------------------------------------------------------------

def _subspace_step(pt4, basis, side):
    """Exact minimum of <psi|PT|psi> over psi supported on one fixed local 2-space."""
    if side == "B":
        m = np.einsum("abcd,bx,dy->axcy", pt4, basis.conj(), basis)
    else:
        m = np.einsum("abcd,ax,cy->xbyd", pt4, basis.conj(), basis)
    n = m.shape[0] * m.shape[1]
    w, v = np.linalg.eigh(linalg.hermitize(m.reshape(n, n)))
    return float(w[0]), v[:, 0]


#: sweep cap of one Schmidt-rank-2 attempt; it stops early once a sweep gains < 1e-13
SCHMIDT_ITERS = 60


def single_copy_distillable(
    state: BipartiteState,
    budget: int = 20,
    seed: Optional[int] = None,
) -> WitnessReport:
    """Search for a Schmidt-rank-2 vector with negative partial-transpose expectation.

    Alternates exact eigensolves over "vectors inside A (x) span(f1,f2)" and
    "span(e1,e2) (x) B" slices of the transposed state; the local 2-spaces are
    refreshed from the SVD of the current best vector.  A negative value is a
    distillability certificate; otherwise the verdict is only "no violation
    found within budget".  The search stops at the first violating attempt;
    the report's ``iterations`` gives the sweeps of each attempt run and
    ``best_restart`` the attempt that gave the value.
    """
    if budget < 1:
        raise ParameterError("need budget >= 1")
    dA, dB = state.dimA ** state.pairs, state.dimB ** state.pairs
    pt4 = states.partial_transpose(state).reshape(dA, dB, dA, dB)

    rng = np.random.default_rng(seed)
    best_val, best_vec, best_attempt, sweeps = np.inf, None, None, []
    for attempt in range(budget):
        fbasis = linalg.random_isometry_cols(rng, dB, min(2, dB))
        val, vec = np.inf, None
        for sweep in range(1, SCHMIDT_ITERS + 1):
            prev = val
            lam_b, coeff = _subspace_step(pt4, fbasis, "B")
            c = coeff.reshape(dA, fbasis.shape[1]) @ fbasis.T
            if lam_b < val:
                val, vec = lam_b, c.reshape(-1) / np.linalg.norm(c)
            ebasis = np.linalg.svd(c)[0][:, : min(2, dA)]
            lam_a, coeff2 = _subspace_step(pt4, ebasis, "A")
            c = ebasis @ coeff2.reshape(ebasis.shape[1], dB)
            if lam_a < val:
                val, vec = lam_a, c.reshape(-1) / np.linalg.norm(c)
            fbasis = np.linalg.svd(c)[2][: min(2, dB), :].conj().T
            if prev - val < 1e-13:
                break
        sweeps.append(sweep)
        if val < best_val:
            best_val, best_vec, best_attempt = val, vec, attempt
        if best_val < -VIOLATION_TOL:
            break
    return WitnessReport(float(best_val), best_vec, budget_exhausted=best_val >= -VIOLATION_TOL,
                         seed=seed, restarts=len(sweeps), iterations=sweeps,
                         best_restart=best_attempt)


def n_copy_distillable(
    state: BipartiteState,
    n: int,
    budget: int = 20,
    seed: Optional[int] = None,
) -> WitnessReport:
    """Run the Schmidt-rank-2 search on the n-fold tensor power."""
    power = states.tensor_power(state, n)
    return single_copy_distillable(power, budget=budget, seed=seed)


def is_ppt(state: BipartiteState) -> tuple[bool, float]:
    """(min PT eigenvalue >= -1e-9, that eigenvalue) across the global A|B cut."""
    lo = linalg.min_eig(states.partial_transpose(state))
    return lo >= -states.STATE_TOL, lo


def evaluate_schmidt_certificate(state: BipartiteState, vector: np.ndarray) -> float:
    """Re-evaluate a Schmidt-rank-2 certificate: <psi| rho^T_B |psi> on the global cut."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    return float(np.real(v.conj() @ states.partial_transpose(state) @ v))


def schmidt_rank2_filters(vector: np.ndarray, dA: int, dB: int) -> FilterPair:
    """Filters (A, B) with (A^dag (x) B^T)|psi-minus> equal to the given vector.

    With these filters tr[(A(x)B) rho (A(x)B)^dag (I/2 - phi_2)] equals
    <psi| rho^T_B |psi>, turning a negativity certificate into an explicit
    two-qubit distillation filter.
    """
    c = np.asarray(vector, dtype=complex).reshape(dA, dB)
    u, s, vh = np.linalg.svd(c)
    if s[1] < 1e-14:
        s[1] = 0.0
    A = np.zeros((2, dA), dtype=complex)
    B = np.zeros((2, dB), dtype=complex)
    A[0, :] = np.sqrt(2.0) * s[0] * u[:, 0].conj()
    A[1, :] = np.sqrt(2.0) * s[1] * u[:, 1].conj()
    B[1, :] = vh[0, :]
    B[0, :] = -vh[1, :]
    return FilterPair(A, B)


# ---------------------------------------------------------------------------
# Dual-cone utilities
# ---------------------------------------------------------------------------

def _symmetrized_dual(q: np.ndarray, dimA: int, dimB: int, pairs: int) -> np.ndarray:
    """The pair symmetrization S(Q), after the checks both dual-cone utilities
    share: positive integer dimensions and pair count, Q of shape
    ((dimA dimB)^pairs,)*2 (checked by ``symmetrize_matrix``), and Q Hermitian
    to 1e-9."""
    if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1
               for n in (dimA, dimB, pairs)):
        raise ParameterError("dimA, dimB and pairs must be positive integers")
    sq = symmetry.symmetrize_matrix(q, dimA * dimB, pairs)
    if linalg.herm_residual(np.asarray(q)) > 1e-9:
        raise ParameterError("Q must be Hermitian")
    return sq


def _weyl_blocks(sq: np.ndarray, pair_dim: int, pairs: int):
    """(B, Hermitian part of B^T S B) for each Young basis B of
    ``symmetry._young_bases``: S commutes with every pair permutation, so the
    blocks' spectra together are the spectrum of S (Schur-Weyl duality).  The
    bases are real, so all the B^T S are one real product, with S read as
    interleaved (re, im) pairs."""
    basis, widths = symmetry._young_bases(pair_dim, pairs)
    left = (basis.T @ np.ascontiguousarray(sq).view(float)).view(complex)
    start = 0
    for width in widths:
        cols = slice(start, start + width)
        yield basis[:, cols], linalg.hermitize(left[cols] @ basis[:, cols])
        start += width


def symmetric_dual_positive(
    q: np.ndarray,
    dimA: int,
    dimB: int,
    pairs: int,
) -> tuple[bool, float]:
    """Test whether the pair-symmetrization of a Hermitian Q is positive semidefinite.

    A True verdict means tr[Q omega] >= 0 for every permutation-symmetric
    state omega, since tr[Q omega] = tr[S(Q) omega] for the symmetrization S.
    The value is the least eigenvalue of S(Q), the least over one Hermitian
    eigensolve per partition lambda of ``pairs`` with at most dimA dimB rows:
    S(Q) restricted to the range of the Young symmetrizer of lambda, of
    dimension d_lambda(dimA dimB) by the hook-content formula.  For 2x2 pairs
    the blocks are 10 + 6 in place of 16 at 2 pairs, 20 + 20 + 4 in place of
    64 at 3, and 56 + 84 + 60 + 36 + 20 + 4 in place of 1024 at 5.
    """
    sq = _symmetrized_dual(q, dimA, dimB, pairs)
    lo = min(np.linalg.eigvalsh(block)[0] for _, block in _weyl_blocks(sq, dimA * dimB, pairs))
    return lo >= -states.STATE_TOL, float(lo)


def negative_symmetric_witness(q: np.ndarray, dimA: int, dimB: int, pairs: int) -> BipartiteState:
    """Symmetric state with tr[Q omega] < 0 when the symmetrized Q is not PSD.

    omega is the symmetrization of |v><v|, with v = B u for the least eigenvector
    u of the block that holds the least eigenvalue (see
    :func:`symmetric_dual_positive`), so tr[Q omega] = <v|S(Q)|v> is that
    eigenvalue."""
    sq = _symmetrized_dual(q, dimA, dimB, pairs)
    lo, v = np.inf, None
    for basis, block in _weyl_blocks(sq, dimA * dimB, pairs):
        w, u = np.linalg.eigh(block)
        if w[0] < lo:
            lo, v = w[0], basis @ u[:, 0]
    if lo >= -states.STATE_TOL:
        raise ParameterError("symmetrized Q is positive, no witness exists")
    proj = np.outer(v, v.conj())
    return BipartiteState(symmetry.symmetrize_matrix(proj, dimA * dimB, pairs),
                          dimA, dimB, pairs)
