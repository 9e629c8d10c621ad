"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import contextlib
import time

import numpy as np
import pytest

import distilkit as dk
from distilkit import linalg, tomography
from distilkit.symmetry import all_permutations

from conftest import random_state
from test_tomography import pg_closest_state


@contextlib.contextmanager
def criterion(number, label, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:2d} ({label}): PASS [{elapsed:.1f}s]")
    if budget_s is not None:
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"


def phi_state(d=2):
    return dk.construct_state(dk.StateFamilySpec(dk.Family.MAX_ENTANGLED, d))


def test_criterion_01_partial_transpose_spectrum():
    with criterion(1, "phi_d partial-transpose spectrum", budget_s=1.0):
        for d in (2, 3, 4):
            eigs = np.sort(np.linalg.eigvalsh(dk.partial_transpose(phi_state(d))))
            n_minus = d * (d - 1) // 2
            n_plus = d * (d + 1) // 2
            assert np.max(np.abs(eigs[:n_minus] + 1.0 / d)) <= 1e-12
            assert np.max(np.abs(eigs[n_minus:] - 1.0 / d)) <= 1e-12
            assert n_minus + n_plus == d * d


def test_criterion_02_ppt_states_show_no_singlet_boost():
    with criterion(2, "PPT implies no singlet boost", budget_s=300.0):
        for d in (2, 3):
            for seed in range(100):
                state = dk.construct_state(
                    dk.StateFamilySpec(dk.Family.RANDOM_PPT, d), seed=seed)
                rep = dk.f2(state, restarts=32, seed=seed)
                assert rep.value <= 0.5 + 1e-6
                search = dk.single_copy_distillable(state, budget=5, seed=seed)
                assert search.value >= -1e-9
                assert search.budget_exhausted


def test_criterion_03_werner_threshold():
    with criterion(3, "two-qubit Werner threshold", budget_s=60.0):
        for i, p in enumerate(np.linspace(0.55, 1.0, 10)):
            w = dk.werner_state(2, float(p))
            val = dk.f2(w, restarts=32, seed=i).value
            assert val > 0.5 + 1e-4
            assert not dk.is_ppt(w)[0]
        for i, p in enumerate(np.linspace(0.0, 0.45, 10)):
            w = dk.werner_state(2, float(p))
            val = dk.f2(w, restarts=32, seed=100 + i).value
            assert val <= 0.5 + 1e-6
            assert dk.is_ppt(w)[0]


def test_criterion_04_symmetrization_channel():
    with criterion(4, "symmetrization channel"):
        rng = np.random.default_rng(404)
        perms = list(all_permutations(3))
        ops = [dk.permutation_operator(p, 4) for p in perms]
        for _ in range(50):
            omega = random_state(rng, 2, 2, pairs=3)
            sym = dk.symmetrize(omega)
            assert np.max(np.abs(dk.symmetrize(sym).data - sym.data)) <= 1e-12
            for u in ops:
                assert np.max(np.abs(u @ sym.data @ u.T - sym.data)) <= 1e-12
            margs = [dk.partial_trace(sym, {k}).data for k in (1, 2, 3)]
            assert np.max(np.abs(margs[0] - margs[1])) <= 1e-12
            assert np.max(np.abs(margs[0] - margs[2])) <= 1e-12


def test_criterion_05_mixture_of_powers_extensions():
    with criterion(5, "mixture-of-powers extensions"):
        rng = np.random.default_rng(505)
        for trial in range(20):
            ppt_members = trial % 2 == 1
            if ppt_members:
                members = tuple(
                    dk.construct_state(dk.StateFamilySpec(dk.Family.RANDOM_PPT, 2),
                                       seed=1000 + 3 * trial + j)
                    for j in range(3))
            else:
                members = tuple(random_state(rng, 2, 2) for _ in range(3))
            w = rng.random(3)
            ens = dk.Ensemble(tuple(w / w.sum()), members)
            avg = ens.average().data
            for k in (2, 3):
                pi_k = dk.mixture_of_powers(ens, k)
                assert dk.trace_distance(dk.symmetrize(pi_k), pi_k) <= 1e-12
                for pos in range(1, k + 1):
                    marg = dk.partial_trace(pi_k, {pos}).data
                    assert np.max(np.abs(marg - avg)) <= 1e-12
                if ppt_members:
                    assert linalg.min_eig(dk.partial_transpose(pi_k)) >= -1e-9


def test_criterion_06_definetti_bound_formula():
    with criterion(6, "de Finetti bound formula"):
        assert dk.definetti_bound(2, 1, 100) == 0.64
        ks = list(range(1, 11))
        vals_k = [dk.definetti_bound(2, k, 100) for k in ks]
        assert all(a < b for a, b in zip(vals_k, vals_k[1:]))
        ns = [100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200]
        vals_n = [dk.definetti_bound(2, 5, n) for n in ns]
        assert all(a > b for a, b in zip(vals_n, vals_n[1:]))


def test_criterion_07_frame_roundtrip():
    with criterion(7, "frame roundtrip and product reconstruction"):
        rng = np.random.default_rng(707)
        for m in (2, 3, 4):
            fr = dk.minimal_ic_povm(m)
            for _ in range(100):
                x = linalg.random_hermitian(rng, m)
                rec = sum(np.real(np.trace(e @ x)) * d for e, d in zip(fr.elements, fr.duals))
                assert np.linalg.norm(rec - x, 2) <= 1e-9
        fr2 = dk.minimal_ic_povm(2)
        pf = dk.product_frame(fr2, fr2)
        probs = dk.born_probabilities(phi_state(), pf)
        rec = dk.reconstruct_from_probabilities(probs, pf)
        assert np.linalg.norm(rec - phi_state().data, 2) <= 1e-9


def test_criterion_08_tomography_convergence():
    with criterion(8, "tomography convergence and tail bound", budget_s=600.0):
        w = dk.werner_state(2, 0.75)
        fr = dk.minimal_ic_povm(2)
        pf = dk.product_frame(fr, fr)
        born = dk.born_probabilities(w, pf)
        shot_grid = (100, 1_000, 10_000, 100_000)
        medians = []
        for shots in shot_grid:
            dists, failures = [], 0
            for seed in range(50):
                counts = dk.simulate_measurements(w, pf, shots, seed=seed)
                sigma = dk.closest_state(dk.reconstruct(counts, pf), 2, 2)
                dists.append(dk.trace_distance(sigma, w))
                if np.abs(counts.frequencies() - born).sum() > 0.1:
                    failures += 1
            medians.append(float(np.median(dists)))
            bound = dk.chernoff_tail(0.1, shots, 16).reported
            if bound < 1.0:
                assert failures / 50 <= bound
        assert medians[-1] <= 0.05
        assert all(b <= a + 1e-12 for a, b in zip(medians, medians[1:]))


def test_criterion_09_pipeline_sign_correctness():
    with criterion(9, "pipeline sign correctness"):
        ppt = dk.construct_state(dk.StateFamilySpec(dk.Family.RANDOM_PPT, 2), seed=0)
        assert dk.is_ppt(ppt)[1] > 0.05  # away from the boundary
        rep = dk.estimation_pipeline(ppt, n=1, m_shots=100_000, seed=9)
        assert rep.verdict == "no_violation" and rep.f_m == 0.0
        for source, seed in ((phi_state(), 10), (dk.werner_state(2, 0.75), 11)):
            direct = 0.5 - dk.f2(source, restarts=16, seed=seed).value
            rep = dk.estimation_pipeline(source, n=1, m_shots=100_000, seed=seed)
            assert rep.verdict == "distillable"
            assert abs(rep.f_m - direct) <= 0.02


def test_criterion_10_jamiolkowski_identity():
    with criterion(10, "induced-map proportionality identity"):
        rng = np.random.default_rng(1010)
        for d in (2, 3):
            for i in range(25):
                rho = random_state(rng, d, d)
                sigma = random_state(rng, 2 * d, 2 * d)
                inst = dk.ActivationInstance(rho, sigma, d)
                c, dev = dk.jam_check(inst, trials=4, seed=100 * d + i)
                assert c > 0
                assert dev <= 1e-9


def test_criterion_11_activation_sign_equivalence():
    with criterion(11, "activation sign equivalence"):
        rng = np.random.default_rng(1111)
        checked = 0
        for _ in range(100):
            rho = random_state(rng, 2, 2)
            sigma = random_state(rng, 4, 4)
            wit = dk.activation_witness(rho, sigma)
            if abs(wit) <= 1e-9:
                continue
            out, weight = dk.apply_activation(dk.ActivationInstance(rho, sigma, 2))
            fid = float(np.real(np.trace(out @ dk.phi_projector(2)))) / weight
            assert (wit < 0) == (fid > 0.5)
            checked += 1
        assert checked >= 90
        target = dk.pair_product(phi_state(), phi_state())
        rep = dk.search_activator(target)
        assert rep.fidelity >= 1 - 1e-9


def test_criterion_12_closest_state_optimality():
    with criterion(12, "trace-norm projection optimality"):
        rng = np.random.default_rng(1212)
        for _ in range(100):
            x = linalg.random_hermitian(rng, 4)
            x += np.eye(4) * (1 - np.trace(x).real) / 4
            ours = linalg.trace_norm(dk.closest_state(x, 2, 2).data - x)
            oracle = linalg.trace_norm(pg_closest_state(x) - x)
            assert abs(ours - oracle) <= 1e-6
