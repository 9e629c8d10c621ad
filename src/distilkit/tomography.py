"""Minimal informationally complete POVMs, dual-frame linear inversion,
multinomial sampling with a Chernoff-type tail bound, trace-norm projection
onto the state set, and the estimate-then-distill pipeline.

Norm conventions, stated once and used everywhere: the trace norm is the
unhalved sum of singular values; trace *distance* between states is half of
it.  Distribution deviations fed to the tail bound are unhalved l1 sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from . import distillability, linalg, states
from .errors import FrameError, NumericalError, ParameterError
from .states import BipartiteState
from .symmetry import Ensemble


@dataclass(frozen=True)
class Frame:
    """Informationally complete POVM with its dual frame, as two ``(K, m, m)`` stacks.

    ``elements`` are K = m^2 PSD operators on C^m summing to the identity;
    ``duals`` invert the linear map X -> (tr[A_i X])_i, i.e.
    X = sum_i tr[A_i X] duals[i] for every operator X.
    """

    elements: np.ndarray
    duals: np.ndarray

    def __post_init__(self):
        for name in ("elements", "duals"):
            arr = np.asarray(getattr(self, name), dtype=complex).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def _own(cls, elements: np.ndarray, duals: np.ndarray) -> "Frame":
        """The frame of two fresh complex stacks that no caller keeps, made
        read-only in place of the constructor's defensive copies."""
        elements.setflags(write=False)
        duals.setflags(write=False)
        frame = object.__new__(cls)
        frame.__dict__.update(elements=elements, duals=duals)
        return frame

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.elements.shape[0]


@dataclass(frozen=True)
class OutcomeCounts:
    counts: tuple[int, ...]
    shots: int

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ParameterError("counts must be nonnegative")
        if sum(self.counts) != self.shots:
            raise ParameterError("counts must sum to shots")

    def frequencies(self) -> np.ndarray:
        if self.shots == 0:
            raise ParameterError("no shots recorded")
        return np.asarray(self.counts, dtype=float) / self.shots

    def to_dict(self) -> dict:
        """The counts record that :func:`load_counts` reads; outcome k is list index k."""
        return {"counts": list(self.counts)}


def dual_frame(elements: np.ndarray) -> np.ndarray:
    """Duals of a minimal frame: the columns of M^-1, where row i of the
    measurement matrix M is vec(A_i^T), so that M vec(X) = (tr[A_i X])_i."""
    a = np.asarray(elements, dtype=complex)
    k, m = a.shape[:2]
    if k != m * m:
        raise FrameError(f"need exactly {m * m} elements for a minimal frame, got {k}")
    mat = a.transpose(0, 2, 1).reshape(k, k)
    if np.linalg.matrix_rank(mat, tol=1e-10) < k:
        raise FrameError("elements do not span the operator space")
    return np.linalg.inv(mat).T.reshape(k, m, m)


def minimal_ic_povm(m: int) -> Frame:
    """Minimal IC-POVM from the rank-1 family |e_j>, (|e_j>+|e_k>)/sqrt2,
    (|e_j>+i|e_k>)/sqrt2 (j<k), rescaled into a resolution of the identity
    by S^(-1/2) . S^(-1/2) where S >= I is the family sum.  The m^2 x m^2
    measurement matrix that ``dual_frame`` inverts is capped before anything
    is allocated."""
    if m < 2:
        raise ParameterError("need dimension m >= 2")
    states.power_dim(m, 2)
    eye = np.eye(m, dtype=complex)
    j, k = np.triu_indices(m, 1)
    pairs = np.stack([eye[j] + eye[k], eye[j] + 1j * eye[k]], axis=1) / np.sqrt(2)
    kets = np.concatenate([eye, pairs.reshape(-1, m)])
    projs = kets[:, :, None] * kets[:, None, :].conj()
    w, v = np.linalg.eigh(projs.sum(axis=0))
    s_inv_half = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    elements = linalg.hermitize(s_inv_half @ projs @ s_inv_half)
    return Frame._own(elements, dual_frame(elements))


def local_frame(state: BipartiteState) -> tuple[Frame, Frame]:
    """The minimal IC-POVMs on A and on B that measure one pair of ``state``.  The
    joint outcome table, (dimA * dimB)^2 entries, is capped before either is built."""
    states.power_dim(state.pair_dim, 2)
    return minimal_ic_povm(state.dimA), minimal_ic_povm(state.dimB)


def born_probabilities(state: BipartiteState, frames: tuple[Frame, Frame]) -> np.ndarray:
    """Outcome distribution p_kl = tr[(E_k (x) F_l) rho] of the local frames (E, F),
    flattened as k * K_B + l, clipped of negatives down to -STATE_TOL and renormalized:
    two contractions p_kl = sum E_k[c, a] F_l[d, b] rho[(a b), (c d)]."""
    fa, fb = frames
    if state.pairs != 1 or (fa.dim, fb.dim) != (state.dimA, state.dimB):
        raise ParameterError("frame dimensions do not match the pair")
    rho = state.data.reshape(fa.dim, fb.dim, fa.dim, fb.dim)
    half = np.tensordot(fa.elements, rho, axes=([1, 2], [2, 0]))  # (k, b, d)
    p = np.tensordot(half, fb.elements, axes=([1, 2], [2, 1])).real.reshape(-1)
    if p.min() < -states.STATE_TOL:
        raise NumericalError(f"Born probability {p.min()} below clipping tolerance")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if abs(total - 1.0) > 1e-8:
        raise NumericalError(f"probability mass {total} deviates from 1 beyond 1e-8")
    return p / total


def simulate_measurements(
    state: BipartiteState, frames: tuple[Frame, Frame], shots: int, seed: Optional[int]
) -> OutcomeCounts:
    """Multinomial sample of i.i.d. outcomes; deterministic for a fixed seed."""
    if not 0 <= shots <= np.iinfo(np.int64).max:
        raise ParameterError(f"shots must be in [0, {np.iinfo(np.int64).max}]")
    counts = np.random.default_rng(seed).multinomial(shots, born_probabilities(state, frames))
    return OutcomeCounts(tuple(int(c) for c in counts), shots)


def reconstruct(counts: OutcomeCounts, frames: tuple[Frame, Frame]) -> np.ndarray:
    """Linear-inversion estimate sum_kl freq_kl * D_k (x) G_l.

    Hermitian with unit trace (every dual has unit trace thanks to
    biorthogonality), but possibly non-positive for finite samples.
    """
    return reconstruct_from_probabilities(counts.frequencies(), frames)


def reconstruct_from_probabilities(probs: np.ndarray, frames: tuple[Frame, Frame]) -> np.ndarray:
    """Linear inversion X = sum_kl f_kl D_k (x) G_l on exact outcome probabilities
    (infinite-shot limit), with D and G the local duals: one contraction over l,
    then one over k."""
    fa, fb = frames
    if len(probs) != fa.n_outcomes * fb.n_outcomes:
        raise ParameterError("probability vector length does not match the frames")
    half = np.tensordot(np.reshape(probs, (fa.n_outcomes, -1)), fb.duals, axes=1)  # (k, b, d)
    x = np.tensordot(fa.duals, half, axes=([0], [0])).transpose(0, 2, 1, 3)  # (a, b, c, d)
    return linalg.hermitize(x.reshape(fa.dim * fb.dim, -1))


def closest_state(x: np.ndarray, dimA: int, dimB: int) -> BipartiteState:
    """Density operator minimizing the trace norm ||sigma - X||_1.

    A minimizer commuting with X always exists (pinching in X's eigenbasis is
    trace-norm contractive), so the problem reduces to the eigenvalue vector:
    pick s with 0 <= s_i <= max(x_i, 0), sum s = 1.  Among those minimizers the
    entropy-maximizing one is the water-filling s_i = min(max(x_i, 0), t).
    """
    x = np.asarray(x, dtype=complex)
    if linalg.herm_residual(x) > 1e-9:
        raise ParameterError("input must be Hermitian")
    tr = np.trace(x)
    if abs(tr - 1.0) > 1e-9:
        raise ParameterError(f"input trace {tr} deviates from 1 beyond 1e-9")
    w, v = np.linalg.eigh(linalg.hermitize(x))
    pos = np.clip(w, 0.0, None)
    s = _water_fill(pos, 1.0)
    sigma = (v * s) @ v.conj().T
    return BipartiteState(sigma, dimA, dimB)


def _water_fill(caps: np.ndarray, total: float) -> np.ndarray:
    """Maximize entropy of s subject to 0 <= s <= caps, sum s = total <= sum caps."""
    if caps.sum() < total - 1e-12:
        raise ParameterError("caps cannot accommodate the requested total")
    # t is the first candidate at which every entry below index j is capped
    # and the rest sit at t; if none fits, t is the largest cap
    c = np.sort(caps)
    n = len(c)
    prefix = np.concatenate(([0.0], np.cumsum(c)[:-1]))
    t_try = (total - prefix) / (n - np.arange(n))
    fits = np.flatnonzero(t_try <= c + 1e-15)
    t = t_try[fits[0]] if fits.size else c[-1]
    return np.minimum(caps, t)


class ChernoffBound(NamedTuple):
    reported: float
    raw: float
    exponent: float


def chernoff_tail(delta: float, n: int, cardinality: int) -> ChernoffBound:
    """Tail bound 2^(-n (delta^2/(2 ln 2) - |X| log2(n+1)/n)) on the probability
    that the empirical distribution of n i.i.d. draws deviates from the truth
    by more than delta in unhalved l1 norm; reported value clipped to [0, 1]."""
    if not (0 < delta < math.inf) or n < 1 or cardinality < 1:
        raise ParameterError("need finite delta > 0, n >= 1, cardinality >= 1")
    try:
        exponent = -n * (delta ** 2 / (2.0 * math.log(2.0)) - cardinality * math.log2(n + 1) / n)
    except OverflowError:  # an integer that no float can hold, or delta ** 2
        exponent = math.nan
    if not math.isfinite(exponent):
        raise ParameterError("the tail exponent overflows a float")
    if exponent > 1024:
        raw = math.inf
    else:
        raw = 2.0 ** exponent
    return ChernoffBound(float(min(max(raw, 0.0), 1.0)), float(raw), float(exponent))


# ---------------------------------------------------------------------------
# Estimate-then-distill pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineReport:
    sigma_m: BipartiteState
    verdict: str
    f_m: float
    chernoff: float
    surrogate: bool
    observed_deviation: float
    certificate: Optional[distillability.FilterPair]
    shots: int
    n: int
    seed: Optional[int]

    def to_dict(self) -> dict:
        """The fields in order, with the state and the certificate as their JSON records."""
        cert = None if self.certificate is None else self.certificate.to_dict()
        return {**vars(self), "sigma_m": states.state_to_dict(self.sigma_m), "certificate": cert}


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        exc.args = (f"[stage={name}] {exc}",) + exc.args[1:]
        raise


def estimation_pipeline(
    source: Union[BipartiteState, Ensemble],
    n: int = 1,
    m_shots: int = 10_000,
    budget: int = 20,
    seed: Optional[int] = None,
) -> PipelineReport:
    """Measure, reconstruct, project, decide, and (when distillable) filter.

    Single pairs are sampled i.i.d. from the source's single-pair marginal
    with the local IC-POVMs on A and B; the linear-inversion estimate is projected
    to the closest state sigma_m, which is then tested for n-copy
    distillability.  On a violation, the certificate's filters are applied to
    the true n-pair power and the post-selected (normalized) expectation
    against I/2 - phi_2 is reported; otherwise the discard branch reports 0.
    The trace-preserving optimum is replaced by this stochastic filter, which
    preserves the sign structure; every report is flagged ``surrogate``.
    """
    if m_shots < 1:
        raise ParameterError("the pipeline needs at least one shot")
    marginal = source.average() if isinstance(source, Ensemble) else states.partial_trace(source, {1})
    frames = local_frame(marginal)

    rng = np.random.default_rng(seed)
    sample_seed, distill_seed = (int(s) for s in rng.integers(0, 2 ** 63 - 1, size=2))

    counts = _stage("sampling", simulate_measurements, marginal, frames, m_shots, sample_seed)
    x_m = _stage("reconstruction", reconstruct, counts, frames)
    sigma_m = _stage("projection", closest_state, x_m, marginal.dimA, marginal.dimB)
    verdict_report = _stage(
        "distillability", distillability.n_copy_distillable, sigma_m, n,
        budget, distill_seed,
    )

    p_true = born_probabilities(marginal, frames)
    observed = float(np.abs(counts.frequencies() - p_true).sum())
    chern = chernoff_tail(observed, m_shots, len(p_true)).reported if observed > 0 else 0.0

    if verdict_report.value < -distillability.VIOLATION_TOL:
        power = states.tensor_power(marginal, n)
        dA, dB = marginal.dimA ** n, marginal.dimB ** n
        fp = distillability.schmidt_rank2_filters(verdict_report.certificate, dA, dB).normalized()
        overlap, weight = _stage("evaluation", distillability.filter_ratio, power, fp)
        f_m = 0.5 - overlap / weight
        verdict = "distillable"
        certificate = fp
    else:
        f_m = 0.0
        verdict = "no_violation"
        certificate = None

    return PipelineReport(
        sigma_m=sigma_m,
        verdict=verdict,
        f_m=float(f_m),
        chernoff=float(chern),
        surrogate=True,
        observed_deviation=observed,
        certificate=certificate,
        shots=int(m_shots),
        n=int(n),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Counts file: {"counts": [c_0, ..., c_{K-1}], "meta": {...}}, as tomo-sim writes it
# ---------------------------------------------------------------------------

def load_counts(path) -> OutcomeCounts:
    """Read a counts record written from :meth:`OutcomeCounts.to_dict`; a missing
    or malformed file is a ParameterError naming it."""
    payload = states.read_json(path)
    counts = payload.get("counts") if isinstance(payload, dict) else None
    if not isinstance(counts, list) or not all(type(c) is int and c >= 0 for c in counts):
        raise ParameterError(f'{path}: expected {{"counts": [nonnegative JSON integers]}}')
    return OutcomeCounts(tuple(counts), sum(counts))
