"""Single-copy activation protocol: local maximally-entangled projections on
an activator-target pair, the induced-map proportionality check, the
activation sign witness, and its exact minimum over all activators.

Space layout: the activator rho lives on C^d (x) C^d (systems A1|B1); the
target sigma is a single-pair state with local dimension 2d per side, read as
(C^d (x) C^2) = A2 (x) A3 on Alice's side and B2 (x) B3 on Bob's side, index
order A2-major (a2 * 2 + a3).  All transposes are taken in this stored
computational product basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg, states
from .distillability import VIOLATION_TOL, FilterPair, apply_filter_pair, filter_ratio
from .errors import NumericalError, ParameterError
from .states import BipartiteState, phi_projector


@dataclass(frozen=True)
class ActivationInstance:
    rho: BipartiteState
    sigma: BipartiteState
    d: int

    def __post_init__(self):
        if self.rho.pairs != 1 or self.sigma.pairs != 1:
            raise ParameterError("activator and target must be single-pair states")
        if self.rho.dimA != self.d or self.rho.dimB != self.d:
            raise ParameterError("activator must be d x d bipartite")
        if self.sigma.dimA != 2 * self.d or self.sigma.dimB != 2 * self.d:
            raise ParameterError("target local dimension must be 2d = d x 2 per side")


def pair_product(tau: BipartiteState, kappa: BipartiteState) -> BipartiteState:
    """Assemble a target from a d x d factor on A2B2 and a 2 x 2 factor on A3B3."""
    if kappa.dimA != 2 or kappa.dimB != 2 or kappa.pairs != 1 or tau.pairs != 1:
        raise ParameterError("need a single-pair d x d factor and a single-pair qubit factor")
    d = tau.dimA
    if tau.dimB != d:
        raise ParameterError("A2B2 factor must be square (d x d)")
    raw = np.kron(tau.data, kappa.data)  # order A2 B2 A3 B3
    mat = linalg.permute_factors(raw, (d, d, 2, 2), (0, 2, 1, 3))  # -> A2 A3 B2 B3
    return BipartiteState(mat, 2 * d, 2 * d)


def activation_filters(d: int) -> FilterPair:
    """Projections onto the unnormalized |phi> = sum_i |ii> on A1A2 (resp. B1B2),
    acting as the identity on A3 (resp. B3); A A^dag = d * I."""
    if d < 2:
        raise ParameterError("need d >= 2")
    a = np.zeros((2, 2 * d * d), dtype=complex)
    for i in range(d):
        for beta in range(2):
            a[beta, i * (2 * d) + i * 2 + beta] = 1.0
    return FilterPair(a, a.copy())


def _joint_state(instance: ActivationInstance) -> BipartiteState:
    """rho (x) sigma as one pair (A1 A2A3 | B1 B2B3) of local dimension 2d^2."""
    d = instance.d
    raw = np.kron(instance.rho.data, instance.sigma.data)  # A1 B1 (A2A3) (B2B3)
    joint = linalg.permute_factors(raw, (d, d, 2 * d, 2 * d), (0, 2, 1, 3))
    return BipartiteState(joint, 2 * d * d, 2 * d * d)


def apply_activation(instance: ActivationInstance) -> tuple[np.ndarray, float]:
    """Post-selected two-qubit operator (unnormalized) and its success weight;
    NumericalError when the projection annihilates the state."""
    return apply_filter_pair(_joint_state(instance), activation_filters(instance.d))


def _pairing_matrix(sigma: BipartiteState, z: np.ndarray) -> np.ndarray:
    """M = tr_{A3B3}[sigma (I (x) z)] in A2B2 order, so that
    tr[sigma (rho^T (x) z)] = tr[rho^T M] for every activator rho."""
    d = sigma.dimA // 2
    s = sigma.data.reshape((d, 2) * 4)  # (a2, a3, b2, b3; a2', a3', b2', b3')
    m = np.einsum("ipjqkrls,rspq->ijkl", s, z.reshape(2, 2, 2, 2)).reshape(d * d, d * d)
    return (m + m.conj().T) / 2


def target_pairing(rho: BipartiteState, sigma: BipartiteState, z: np.ndarray) -> float:
    """tr[sigma (rho^T (x) Z)], the induced-map side of the proportionality identity."""
    if sigma.dimA != 2 * rho.dimA or sigma.dimB != 2 * rho.dimB:
        raise ParameterError("target local dimensions must equal 2d")
    return float(np.real(np.trace(rho.data.T @ _pairing_matrix(sigma, z))))


def jam_check(
    instance: ActivationInstance, trials: int = 20, seed: Optional[int] = None
) -> tuple[float, float]:
    """Verify tr[(A(x)B)(rho(x)sigma)(A(x)B)^dag Z] = c * tr[sigma (rho^T (x) Z)]
    over random positive Z; returns (c, max relative deviation across Z)."""
    if trials < 1:
        raise ParameterError("need trials >= 1")
    rng = np.random.default_rng(seed)
    out, _ = apply_activation(instance)
    ratios = []
    for _ in range(trials):
        z = linalg.random_density(rng, 4) * (1.0 + 3.0 * rng.random())
        num = float(np.real(np.trace(out @ z)))
        den = target_pairing(instance.rho, instance.sigma, z)
        if abs(den) < 1e-14:
            continue
        ratios.append(num / den)
    if not ratios:
        raise NumericalError("all probe operators were degenerate")
    c = float(np.mean(ratios))
    dev = float(max(abs(r - c) for r in ratios) / max(abs(c), 1e-300))
    if c <= 0:
        raise NumericalError(f"proportionality constant {c} is not positive")
    return c, dev


_WITNESS_Z = np.eye(4) / 2.0 - phi_projector(2)


def activation_witness(rho: BipartiteState, sigma: BipartiteState) -> float:
    """tr[sigma (rho^T (x) (I/2 - phi_2))]; negative exactly when the filtered
    two-qubit output has maximally-entangled fidelity above 1/2."""
    return target_pairing(rho, sigma, _WITNESS_Z)


def evaluate_activation(rho: BipartiteState, sigma: BipartiteState) -> tuple[float, float, float]:
    """(witness, filtered phi_2 fidelity, success weight) of activator rho on target
    sigma; the fidelity exceeds 1/2 exactly when the witness is negative.
    NumericalError when the projection annihilates the state."""
    witness = activation_witness(rho, sigma)
    instance = ActivationInstance(rho, sigma, rho.dimA)
    overlap, weight = filter_ratio(_joint_state(instance), activation_filters(instance.d))
    return witness, overlap / weight, weight


@dataclass
class ActivationSearchReport:
    rho: BipartiteState
    witness: float
    fidelity: Optional[float]
    success_weight: Optional[float]
    budget_exhausted: bool
    gap: float

    def to_dict(self) -> dict:
        return {
            "witness": float(self.witness),
            "fidelity": None if self.fidelity is None else float(self.fidelity),
            "success_weight": None if self.success_weight is None else float(self.success_weight),
            "rho": states.state_to_dict(self.rho),
            "budget_exhausted": bool(self.budget_exhausted),
            "gap": float(self.gap),
        }


def search_activator(sigma: BipartiteState) -> ActivationSearchReport:
    """The activator with the least activation witness, by one eigensolve.

    The witness is linear in the activator, tr[rho^T M] with M the pairing
    matrix of I/2 - phi_2, so its minimum over all states is the least
    eigenvalue of M, attained at rho = (|v><v|)^T for a bottom eigenvector v.
    ``gap`` is the distance to the next eigenvalue; zero means the optimal
    activator is not unique.  A nonnegative minimum rules out activation by
    this projection protocol only; a negative one says nothing about the
    target's own distillability.
    """
    d = sigma.dimA // 2
    if sigma.pairs != 1 or sigma.dimA != sigma.dimB or sigma.dimA != 2 * d or d < 2:
        raise ParameterError("target must be one pair of local dimension 2d >= 4 (d x 2 per side)")
    if not np.isfinite(sigma.data).all():  # eigh does not reject NaN or inf
        raise ParameterError("target entries must be finite")
    evals, evecs = np.linalg.eigh(_pairing_matrix(sigma, _WITNESS_Z))
    v = evecs[:, 0]
    rho = BipartiteState(np.outer(v, v.conj()).T, d, d)
    try:
        _, fidelity, weight = evaluate_activation(rho, sigma)
    except NumericalError:
        fidelity = weight = None
    return ActivationSearchReport(rho, float(evals[0]), fidelity, weight,
                                  budget_exhausted=not evals[0] < -VIOLATION_TOL,
                                  gap=float(evals[1] - evals[0]))
