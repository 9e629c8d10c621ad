"""Minimal informationally complete POVMs, dual-frame linear inversion,
multinomial sampling with a Chernoff-type tail bound, trace-norm projection
onto the state set, and the estimate-then-distill pipeline.

Norm conventions, stated once and used everywhere: the trace norm is the
unhalved sum of singular values; trace *distance* between states is half of
it.  Distribution deviations fed to the tail bound are unhalved l1 sums.
"""

from __future__ import annotations

import csv
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
    """Informationally complete POVM with its dual frame.

    ``elements`` are m^2 PSD operators on C^m summing to the identity;
    ``duals`` invert the linear map X -> (tr[A_i X])_i, i.e.
    X = sum_i tr[A_i X] duals[i] for every operator X.
    """

    dim: int
    elements: tuple[np.ndarray, ...]
    duals: tuple[np.ndarray, ...]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


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


def dual_frame(elements: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Dual operators via inversion of the frame superoperator in a Hermitian basis."""
    m = elements[0].shape[0]
    if len(elements) != m * m:
        raise FrameError(f"need exactly {m * m} elements for a minimal frame, got {len(elements)}")
    basis = linalg.hermitian_basis(m)
    mat = np.array([[np.real(np.trace(a @ h)) for h in basis] for a in elements])
    if np.linalg.matrix_rank(mat, tol=1e-10) < m * m:
        raise FrameError("elements do not span the operator space")
    inv = np.linalg.inv(mat)
    duals = []
    for i in range(m * m):
        duals.append(sum(inv[alpha, i] * basis[alpha] for alpha in range(m * m)))
    return tuple(duals)


def make_frame(elements: list[np.ndarray]) -> Frame:
    """Validate a POVM element list and attach its dual frame."""
    m = elements[0].shape[0]
    total = sum(elements)
    if np.max(np.abs(total - np.eye(m))) > 1e-10:
        raise FrameError("elements do not sum to the identity")
    for a in elements:
        if linalg.min_eig(a) < -1e-10:
            raise FrameError("element is not positive semidefinite")
    duals = dual_frame(list(elements))
    frozen = []
    for a in elements:
        arr = np.asarray(a, dtype=complex).copy()
        arr.setflags(write=False)
        frozen.append(arr)
    return Frame(m, tuple(frozen), duals)


def minimal_ic_povm(m: int) -> Frame:
    """Minimal IC-POVM from the rank-1 family |e_j>, (|e_j>+|e_k>)/sqrt2,
    (|e_j>+i|e_k>)/sqrt2 (j<k), rescaled into a resolution of the identity
    by S^(-1/2) . S^(-1/2) where S is the family sum."""
    if m < 2:
        raise ParameterError("need dimension m >= 2")
    eye = np.eye(m, dtype=complex)
    kets = [eye[j] for j in range(m)]
    for j in range(m):
        for k in range(j + 1, m):
            kets.append((eye[j] + eye[k]) / np.sqrt(2))
            kets.append((eye[j] + 1j * eye[k]) / np.sqrt(2))
    projs = [np.outer(v, v.conj()) for v in kets]
    s = sum(projs)
    w, v = np.linalg.eigh(linalg.hermitize(s))
    if w[0] <= 1e-12:
        raise FrameError("frame sum is singular")
    s_inv_half = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    elements = [linalg.hermitize(s_inv_half @ p @ s_inv_half) for p in projs]
    return make_frame(elements)


def product_frame(a: Frame, b: Frame) -> Frame:
    """Tensor-product POVM; joint outcome (i, j) is flattened as i * b.n_outcomes + j."""
    elements = [np.kron(x, y) for x in a.elements for y in b.elements]
    duals = tuple(np.kron(x, y) for x in a.duals for y in b.duals)
    frozen = []
    for e in elements:
        arr = e.copy()
        arr.setflags(write=False)
        frozen.append(arr)
    return Frame(a.dim * b.dim, tuple(frozen), duals)


def local_frame(state: BipartiteState) -> Frame:
    """Product of the minimal IC-POVMs on A and on B: the frame for one pair of ``state``."""
    return product_frame(minimal_ic_povm(state.dimA), minimal_ic_povm(state.dimB))


def born_probabilities(state: BipartiteState, frame: Frame) -> np.ndarray:
    """Outcome distribution tr[M_k rho], clipped of tiny negatives and renormalized."""
    if frame.dim != state.dim:
        raise ParameterError("frame dimension does not match the state")
    p = np.array([np.real(np.trace(e @ state.data)) for e in frame.elements])
    if p.min() < -1e-12:
        raise NumericalError(f"Born probability {p.min()} below clipping tolerance")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if abs(total - 1.0) > 1e-8:
        raise NumericalError(f"probability mass {total} deviates from 1 beyond 1e-8")
    return p / total


def simulate_measurements(
    state: BipartiteState, frame: Frame, shots: int, seed: Optional[int]
) -> OutcomeCounts:
    """Multinomial sample of i.i.d. outcomes; deterministic for a fixed seed."""
    if shots < 0:
        raise ParameterError("shots must be nonnegative")
    p = born_probabilities(state, frame)
    if shots == 0:
        return OutcomeCounts(tuple(0 for _ in p), 0)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, p)
    return OutcomeCounts(tuple(int(c) for c in counts), shots)


def reconstruct(counts: OutcomeCounts, frame: Frame) -> np.ndarray:
    """Linear-inversion estimate sum_k freq_k * dual_k.

    Hermitian with unit trace (every dual has unit trace thanks to
    biorthogonality), but possibly non-positive for finite samples.
    """
    if len(counts.counts) != frame.n_outcomes:
        raise ParameterError("counts length does not match the frame")
    freq = counts.frequencies()
    x = sum(f * d for f, d in zip(freq, frame.duals))
    return linalg.hermitize(x)


def reconstruct_from_probabilities(probs: np.ndarray, frame: Frame) -> np.ndarray:
    """Linear inversion on exact outcome probabilities (infinite-shot limit)."""
    if len(probs) != frame.n_outcomes:
        raise ParameterError("probability vector length does not match the frame")
    return linalg.hermitize(sum(p * d for p, d in zip(probs, frame.duals)))


def closest_state(
    x: np.ndarray, dimA: int, dimB: int, pairs: int = 1
) -> BipartiteState:
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
    return BipartiteState(sigma, dimA, dimB, pairs)


def _water_fill(caps: np.ndarray, total: float) -> np.ndarray:
    """Maximize entropy of s subject to 0 <= s <= caps, sum s = total <= sum caps."""
    if caps.sum() < total - 1e-12:
        raise ParameterError("caps cannot accommodate the requested total")
    order = np.argsort(caps)
    sorted_caps = caps[order]
    n = len(caps)
    prefix = 0.0
    t = None
    for j in range(n):
        # candidate: all entries below index j are capped, the rest sit at t
        t_try = (total - prefix) / (n - j)
        if t_try <= sorted_caps[j] + 1e-15:
            t = t_try
            break
        prefix += sorted_caps[j]
    if t is None:
        t = sorted_caps[-1]
    return np.minimum(caps, t)


class ChernoffBound(NamedTuple):
    reported: float
    raw: float
    exponent: float


def chernoff_tail(delta: float, n: int, cardinality: int) -> ChernoffBound:
    """Tail bound 2^(-n (delta^2/(2 ln 2) - |X| log2(n+1)/n)) on the probability
    that the empirical distribution of n i.i.d. draws deviates from the truth
    by more than delta in unhalved l1 norm; reported value clipped to [0, 1]."""
    if delta <= 0 or n < 1 or cardinality < 1:
        raise ParameterError("need delta > 0, n >= 1, cardinality >= 1")
    exponent = -n * (delta ** 2 / (2.0 * math.log(2.0)) - cardinality * math.log2(n + 1) / n)
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
        cert = None
        if self.certificate is not None:
            cert = {
                "A": states.encode_matrix(self.certificate.A),
                "B": states.encode_matrix(self.certificate.B),
            }
        return {
            "sigma_m": states.state_to_dict(self.sigma_m),
            "verdict": self.verdict,
            "f_m": float(self.f_m),
            "chernoff": float(self.chernoff),
            "surrogate": bool(self.surrogate),
            "observed_deviation": float(self.observed_deviation),
            "certificate": cert,
            "shots": int(self.shots),
            "n": int(self.n),
            "seed": self.seed,
        }


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
    with a local product IC-POVM; the linear-inversion estimate is projected
    to the closest state sigma_m, which is then tested for n-copy
    distillability.  On a violation, the certificate's filters are applied to
    the true n-pair power and the post-selected (normalized) expectation
    against I/2 - phi_2 is reported; otherwise the discard branch reports 0.
    The trace-preserving optimum is replaced by this stochastic filter, which
    preserves the sign structure; every report is flagged ``surrogate``.
    """
    if m_shots < 1:
        raise ParameterError("the pipeline needs at least one shot")
    if isinstance(source, Ensemble):
        marginal = source.average()
    else:
        marginal = source if source.pairs == 1 else states.partial_trace(source, {1})
    frame = local_frame(marginal)

    rng = np.random.default_rng(seed)
    sample_seed, distill_seed = (int(s) for s in rng.integers(0, 2 ** 63 - 1, size=2))

    counts = _stage("sampling", simulate_measurements, marginal, frame, m_shots, sample_seed)
    x_m = _stage("reconstruction", reconstruct, counts, frame)
    sigma_m = _stage("projection", closest_state, x_m, marginal.dimA, marginal.dimB)
    verdict_report = _stage(
        "distillability", distillability.n_copy_distillable, sigma_m, n,
        budget, distill_seed,
    )

    p_true = born_probabilities(marginal, frame)
    observed = float(np.abs(counts.frequencies() - p_true).sum())
    chern = chernoff_tail(observed, m_shots, frame.n_outcomes).reported if observed > 0 else 0.0

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
        shots=m_shots,
        n=n,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Counts CSV: rows of "outcome_index,count"
# ---------------------------------------------------------------------------

def save_counts(counts: OutcomeCounts, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["outcome_index", "count"])
        for idx, c in enumerate(counts.counts):
            writer.writerow([idx, c])


def load_counts(path) -> OutcomeCounts:
    rows = []
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    if next(reader, None) != ["outcome_index", "count"]:
        raise ParameterError("bad counts header")
    for idx, c in reader:
        rows.append((int(idx), int(c)))
    rows.sort()
    if [idx for idx, _ in rows] != list(range(len(rows))):
        raise ParameterError("outcome indices must be exactly 0..K-1, each once")
    counts = tuple(c for _, c in rows)
    return OutcomeCounts(counts, sum(counts))
