"""Single-copy activation protocol: local maximally-entangled projections on
an activator-target pair, the activation sign witness, and its exact minimum
over all activators.

The protocol projects A1A2 and B1B2 onto |phi> = sum_i |ii>.  Its unnormalized
two-qubit output is the induced map out = tr_A2B2[(rho^T (x) I) sigma], one
contraction, so the pair rho (x) sigma (dimension 4 d^4) is never formed.  The
witness tr[sigma (rho^T (x) Z)], Z = I/2 - phi_2, is tr[out Z].  The tests check
the induced map against the protocol run on rho (x) sigma; no runtime path does.

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
from .distillability import DENOM_REG, VIOLATION_TOL
from .errors import NumericalError, ParameterError
from .states import BipartiteState, phi_projector


def _activator_dim(rho: BipartiteState, sigma: BipartiteState) -> int:
    """Local dimension d of a d x d activator whose target is one 2d x 2d pair."""
    d = rho.dimA
    if rho.pairs != 1 or sigma.pairs != 1:
        raise ParameterError("activator and target must be single-pair states")
    if rho.dimB != d:
        raise ParameterError("activator must be d x d bipartite")
    if sigma.dimA != 2 * d or sigma.dimB != 2 * d:
        raise ParameterError("target local dimension must be 2d = d x 2 per side")
    return d


def pair_product(tau: BipartiteState, kappa: BipartiteState) -> BipartiteState:
    """Assemble a target from a d x d factor on A2B2 and a 2 x 2 factor on A3B3,
    as one pair (A2A3 | B2B3); the cap is checked before the product."""
    if kappa.dimA != 2 or kappa.dimB != 2 or kappa.pairs != 1 or tau.pairs != 1:
        raise ParameterError("need a single-pair d x d factor and a single-pair qubit factor")
    if tau.dimB != tau.dimA:
        raise ParameterError("A2B2 factor must be square (d x d)")
    states.power_dim(tau.dim * kappa.dim, 1)
    raw = states.kron(tau.data, kappa.data)  # order A2 B2 A3 B3
    mat = linalg.permute_factors(raw, (tau.dimA, tau.dimB, 2, 2), (0, 2, 1, 3))
    return BipartiteState(mat, 2 * tau.dimA, 2 * tau.dimB)


def apply_activation(rho: BipartiteState, sigma: BipartiteState) -> tuple[np.ndarray, float]:
    """Post-selected two-qubit operator (unnormalized) and its trace, the success weight:
    out[(a3 b3), (a3' b3')] = sum rho[(i j), (k l)] sigma[(i a3 j b3), (k a3' l b3')].
    NumericalError when the projection annihilates the pair."""
    d = _activator_dim(rho, sigma)
    out = np.einsum("ijkl,iajbkcle->abce", rho.data.reshape((d,) * 4),
                    sigma.data.reshape((d, 2) * 4)).reshape(4, 4)
    weight = float(np.real(np.trace(out)))
    if not weight > DENOM_REG:
        raise NumericalError("degenerate post-selection: the filters annihilate the state")
    return out, weight


def _pairing_matrix(sigma: BipartiteState, z: np.ndarray) -> np.ndarray:
    """M = tr_{A3B3}[sigma (I (x) z)] in A2B2 order, so that
    tr[sigma (rho^T (x) z)] = tr[rho^T M] for every activator rho."""
    d = sigma.dimA // 2
    s = sigma.data.reshape((d, 2) * 4)  # (a2, a3, b2, b3; a2', a3', b2', b3')
    m = np.einsum("ipjqkrls,rspq->ijkl", s, z.reshape(2, 2, 2, 2)).reshape(d * d, d * d)
    return linalg.hermitize(m)


_PHI2 = phi_projector(2)
_WITNESS_Z = np.eye(4) / 2.0 - _PHI2


def activation_witness(rho: BipartiteState, sigma: BipartiteState) -> float:
    """tr[sigma (rho^T (x) (I/2 - phi_2))]; negative exactly when the filtered
    two-qubit output has maximally-entangled fidelity above 1/2."""
    _activator_dim(rho, sigma)
    return float(np.real(np.trace(rho.data.T @ _pairing_matrix(sigma, _WITNESS_Z))))


def evaluate_activation(rho: BipartiteState, sigma: BipartiteState) -> tuple[float, float, float]:
    """(witness, filtered phi_2 fidelity, success weight) of activator rho on target
    sigma; the fidelity exceeds 1/2 exactly when the witness is negative.
    NumericalError when the projection annihilates the pair."""
    witness = activation_witness(rho, sigma)
    out, weight = apply_activation(rho, sigma)
    return witness, float(np.real(np.trace(out @ _PHI2))) / weight, weight


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
        out, weight = apply_activation(rho, sigma)
        fidelity = float(np.real(np.trace(out @ _PHI2))) / weight
    except NumericalError:  # a degenerate post-selection
        fidelity = weight = None
    return ActivationSearchReport(rho, float(evals[0]), fidelity, weight,
                                  budget_exhausted=not evals[0] < -VIOLATION_TOL,
                                  gap=float(evals[1] - evals[0]))
