"""Workload ``certify``: single-state distillability certificates, in process.

Each item certifies one fixed state: ``is_ppt``, ``f2`` with 32 restarts,
``single_copy_distillable`` with budget 5, plus ``n_copy_distillable`` with
n = 2 on 2x2 states and ``fD`` with D = 3 on the odd-seed 3x3 random PPT
states.

The random states and every algorithm seed are fixed.  See-saw work per
state is heavy-tailed (two-qubit PPT seed 21 takes 29,126 Rayleigh
half-steps against a median of 649 over seeds 0-39), so drawing states from
the workload seed would make runs differ in work rather than in speed.  The
workload seed orders the items of each round.
"""

from __future__ import annotations

from dataclasses import dataclass

from distilkit import distillability, states
from distilkit.states import Family, StateFamilySpec

import checks

IN_PROCESS = True

RESTARTS = 32
BUDGET = 5
FD_DIM = 3

#: (family, local dimension, weights); thresholds are p = 1/2 for Werner and
#: p = 1/(d + 1) for isotropic states: two points on each side
FAMILY_POINTS = [
    ("werner", 2, (0.2, 0.4, 0.6, 0.8)), ("isotropic", 2, (0.1, 0.25, 0.5, 0.7)),
    ("werner", 3, (0.2, 0.4, 0.6, 0.8)), ("isotropic", 3, (0.1, 0.2, 0.4, 0.7)),
]

#: (family, local dimension, construct_state seeds)
RANDOM_POINTS = [
    ("random_ppt", 2, range(8)), ("random_mixed", 2, range(8)),
    ("random_ppt", 3, range(4)), ("random_mixed", 3, range(4)),
]


@dataclass
class Item:
    label: str
    state: states.BipartiteState
    seed: int
    ncopy: bool
    fd: bool
    f2_closed_form: float | None = None

    def run(self) -> dict:
        s, seed = self.state, self.seed
        out = {
            "ppt": distillability.is_ppt(s),
            "f2": distillability.f2(s, restarts=RESTARTS, seed=seed),
            "sc": distillability.single_copy_distillable(s, budget=BUDGET, seed=seed),
        }
        if self.ncopy:
            out["n2"] = distillability.n_copy_distillable(s, 2, budget=BUDGET, seed=seed)
        if self.fd:
            out["fD"] = distillability.fD(s, FD_DIM, restarts=RESTARTS, seed=seed)
        return out

    def check(self, out: dict) -> list[str]:
        plain = {"ppt": out["ppt"]}
        for key in ("f2", "fD"):
            if key in out:
                rep = out[key]
                plain[key] = (rep.value, rep.certificate.A, rep.certificate.B)
        for key in ("sc", "n2"):
            if key in out:
                plain[key] = (out[key].value, out[key].certificate)
        return checks.check_certify(self.state.data, self.state.dimA, self.state.dimB, plain,
                                    self.f2_closed_form)


def _two_qubit_f2(family: str, p: float) -> float:
    """Bell-diagonal states are in filtering normal form: f2 = max(F, 1/2)
    with F the largest Bell weight (Werner: p; isotropic: p + (1 - p)/4)."""
    fidelity = p if family == "werner" else p + (1 - p) / 4
    return max(fidelity, 0.5)


def build(seed: int, workdir) -> list[Item]:
    items = []
    for family, d, weights in FAMILY_POINTS:
        for p in weights:
            state = states.construct_state(StateFamilySpec(Family(family), d=d, params={"p": p}))
            items.append(Item(f"{family}-d{d}-p{p}", state, seed=7, ncopy=d == 2, fd=False,
                              f2_closed_form=_two_qubit_f2(family, p) if d == 2 else None))
    for family, d, seeds in RANDOM_POINTS:
        for s in seeds:
            state = states.construct_state(StateFamilySpec(Family(family), d=d), seed=s)
            items.append(Item(f"{family}-d{d}-s{s}", state, seed=s, ncopy=d == 2,
                              fd=family == "random_ppt" and d == 3 and s % 2 == 1))
    return items
