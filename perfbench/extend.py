"""Workload ``extend``: permutation-symmetric extensions, in process.

Each item is one task at pair dimension 4 (2x2 pairs) with k pairs:
``symmetrize``; ``double_symmetrize`` for k <= 4; ``mixture_of_powers``
with its marginals taken by ``partial_trace``; ``symmetric_dual_positive``
for k <= 3; and ``best_product_mixture_distance`` on exactly representable
k = 2 inputs (single powers and mixtures of real members with orthogonal
supports; other mixtures do not resolve, see CHANGES.md).

All other matrices are drawn from the workload seed: the work of those calls
is fixed by k alone, so the seed changes values, not cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from distilkit import distillability, states, symmetry
from distilkit.states import BipartiteState

import checks

IN_PROCESS = True

#: items per round for each k.  k = 5 items carry 120-gather twirls and k = 4
#: items 576-gather double twirls, so those twelve set items_per_s and the
#: tail; the positive dual-cone verdicts (with their 100-sample self-check)
#: sit at k = 3; the 23 light items (all of k = 2, k = 3 with negative Q)
#: set the median.
COMPOSITION = {2: 18, 3: 10, 4: 10, 5: 2}
MEMBERS = 3
BPMD_RESTARTS = 1
BPMD_ITERS = 40
BPMD_INPUT_SEED = 2024


def exact_product_mixture(rng: np.random.Generator, orthogonal: bool):
    """(weights, members) with sum_i w_i rho_i^(x2) exactly representable.

    The mixtures have real members on orthogonal supports: complex members
    do not resolve (see CHANGES.md).
    """
    if not orthogonal:
        return (1.0,), (checks.random_density(rng, 4),)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    members = []
    for cols in ((0, 1), (2, 3)):
        w = rng.uniform(0.2, 1.0, size=2)
        v = q[:, cols]
        members.append((v * (w / w.sum())) @ v.conj().T)
    a = float(rng.uniform(0.3, 0.7))
    return (a, 1.0 - a), tuple(members)


@dataclass
class Item:
    label: str
    k: int
    rho: BipartiteState
    ensemble: symmetry.Ensemble
    q: np.ndarray | None
    q_psd: bool
    target: BipartiteState | None
    seed: int

    def run(self) -> dict:
        k = self.k
        out = {"sym": symmetry.symmetrize(self.rho)}
        if k <= 4:
            out["dbl"] = symmetry.double_symmetrize(self.rho)
        mix = symmetry.mixture_of_powers(self.ensemble, k)
        out["mix"] = mix
        out["marg"] = [states.partial_trace(mix, {j}) for j in range(1, k + 1)]
        if self.q is not None:
            out["dual"] = distillability.symmetric_dual_positive(self.q, 2, 2, k)
        if self.target is not None:
            out["bpmd"] = symmetry.best_product_mixture_distance(
                self.target, restarts=BPMD_RESTARTS, iters=BPMD_ITERS, seed=self.seed)
        return out

    def check(self, out: dict) -> list[str]:
        k = self.k
        errs = checks.check_twirl(self.rho.data, out["sym"].data, 4, k)
        if "dbl" in out:
            errs += checks.check_double_twirl(out["dbl"].data, 2, 2, k)
        errs += checks.check_mixture([m.data for m in out["marg"]], out["mix"].data,
                                     self.ensemble.weights,
                                     [m.data for m in self.ensemble.members], 2, 2, k)
        if "dual" in out:
            errs += checks.check_dual(out["dual"][0], self.q_psd)
        if "bpmd" in out:
            dist, ens = out["bpmd"]
            errs += checks.check_product_mixture(dist, self.target.data, ens.weights,
                                                 [m.data for m in ens.members], 2)
        return errs


def build(seed: int, workdir) -> list[Item]:
    rng = np.random.default_rng([seed, 2])
    items = []
    for k, count in COMPOSITION.items():
        for i in range(count):
            rho = BipartiteState(checks.random_density(rng, 4 ** k), 2, 2, k)
            if i % 2 == 0:
                members = [checks.random_ppt_pair(rng) for _ in range(MEMBERS)]
            else:
                members = [checks.random_density(rng, 4) for _ in range(MEMBERS)]
            w = rng.dirichlet(np.ones(MEMBERS))
            w[-1] = 1.0 - w[:-1].sum()
            ensemble = symmetry.Ensemble(tuple(w), tuple(BipartiteState(m, 2, 2) for m in members))
            q, q_psd = None, False
            if k <= 3:
                # the 100-sample self-check runs only on a positive verdict
                q_psd = k == 3 and i % 2 == 0
                if q_psd:
                    q = checks.random_density(rng, 4 ** k)
                else:
                    q = -checks.symmetric_projector(4, k)
            target = None
            if k == 2 and i < 2:
                # fixed inputs: the optimizer's cost varies threefold between draws
                fixed = np.random.default_rng([BPMD_INPUT_SEED, i])
                weights, mats = exact_product_mixture(fixed, orthogonal=i == 1)
                target = BipartiteState(sum(a * np.kron(m, m) for a, m in zip(weights, mats)), 2, 2, 2)
            items.append(Item(f"k{k}-{i}", k, rho, ensemble, q, q_psd, target, seed=1000 * k + i))
    return items
