"""Activation protocol: filters, induced-map proportionality, sign witness,
and activator search."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import distilkit as dk
from distilkit import linalg
from distilkit.errors import NumericalError, ParameterError

from conftest import random_state

PHI2 = dk.phi_projector(2)


def phi_state(d=2):
    return dk.construct_state(dk.StateFamilySpec(dk.Family.MAX_ENTANGLED, d))


def protocol_output_reference(rho: np.ndarray, sigma: np.ndarray, d: int) -> np.ndarray:
    """Unnormalized two-qubit output by explicit index contraction (oracle)."""
    out = np.zeros((4, 4), dtype=complex)
    for alpha, beta, alphap, betap in itertools.product(range(2), repeat=4):
        acc = 0.0 + 0.0j
        for i, j, ip, jp in itertools.product(range(d), repeat=4):
            srow = (i * 2 + alpha) * 2 * d + (j * 2 + beta)
            scol = (ip * 2 + alphap) * 2 * d + (jp * 2 + betap)
            acc += rho[i * d + j, ip * d + jp] * sigma[srow, scol]
        out[alpha * 2 + beta, alphap * 2 + betap] = acc
    return out


def separable_product_target(rng, d=2, terms=4) -> dk.BipartiteState:
    """Mixture of fully product terms a2 (x) a3 (x) b2 (x) b3 (no internal
    A2A3 or B2B3 entanglement); no activator can beat fidelity 1/2 on these."""
    acc = np.zeros((16 * d * d // 4, 16 * d * d // 4), dtype=complex)
    size = 2 * d
    acc = np.zeros((size * size, size * size), dtype=complex)
    for _ in range(terms):
        a2, a3 = linalg.random_pure(rng, d), linalg.random_pure(rng, 2)
        b2, b3 = linalg.random_pure(rng, d), linalg.random_pure(rng, 2)
        va = np.kron(a2, a3)
        vb = np.kron(b2, b3)
        v = np.kron(va, vb)
        acc += np.outer(v, v.conj()) / terms
    return dk.BipartiteState(acc, size, size)


class TestActivationFilters:
    def test_shape_and_normalization(self):
        fp = dk.activation_filters(2)
        assert fp.A.shape == (2, 8)
        assert np.max(np.abs(fp.A @ fp.A.conj().T - 2 * np.eye(2))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_bra_phi_construction(self, d):
        # reference: A = sum_i <i|_{A1} <i|_{A2} (x) I_{A3} with index (a1, a2, a3)
        fp = dk.activation_filters(d)
        ref = np.zeros((2, 2 * d * d), dtype=complex)
        for i in range(d):
            for beta in range(2):
                ref[beta, i * (2 * d) + i * 2 + beta] = 1.0
        assert np.array_equal(fp.A, ref)


class TestApplyActivation:
    def test_matches_contraction_oracle(self, rng):
        d = 2
        rho = random_state(rng, d, d)
        sigma = random_state(rng, 2 * d, 2 * d)
        out, weight = dk.apply_activation(dk.ActivationInstance(rho, sigma, d))
        ref = protocol_output_reference(rho.data, sigma.data, d)
        assert np.max(np.abs(out - ref)) < 1e-12
        assert abs(weight - np.trace(ref).real) < 1e-12

    def test_maximally_entangled_activator_teleports(self, rng):
        d = 2
        kappa = random_state(rng, 2, 2)
        tau = random_state(rng, d, d)
        sigma = dk.pair_product(tau, kappa)
        out, weight = dk.apply_activation(dk.ActivationInstance(phi_state(d), sigma, d))
        assert np.max(np.abs(out / weight - kappa.data)) < 1e-12

    def test_identity_composition_gives_phi2(self):
        d = 2
        sigma = dk.pair_product(phi_state(d), phi_state(2))
        out, weight = dk.apply_activation(dk.ActivationInstance(phi_state(d), sigma, d))
        fid = np.real(np.trace(out @ PHI2)) / weight
        assert abs(fid - 1.0) < 1e-12

    def test_product_activator_weights_target_block(self, rng):
        # rho = x (x) y: the output is sigma's A3B3 block contracted with x^T, y^T
        d = 2
        x, y = linalg.random_density(rng, d), linalg.random_density(rng, d)
        rho = dk.BipartiteState(np.kron(x, y), d, d)
        sigma = random_state(rng, 2 * d, 2 * d)
        out, _ = dk.apply_activation(dk.ActivationInstance(rho, sigma, d))
        ref = protocol_output_reference(rho.data, sigma.data, d)
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_degenerate_postselection(self):
        d = 2
        # sigma orthogonal to the projected subspace: A2 fixed at |1> while
        # rho pins A1 = |0>, so <phi| never matches
        rho = dk.construct_state(dk.StateFamilySpec(dk.Family.PRODUCT_PURE, d, {"i": 0, "j": 0}))
        a2 = np.zeros(d)
        a2[1] = 1.0
        v = np.kron(np.kron(a2, [1, 0]), np.kron(a2, [1, 0]))
        sigma = dk.BipartiteState(np.outer(v, v), 2 * d, 2 * d)
        with pytest.raises(NumericalError):
            dk.apply_activation(dk.ActivationInstance(rho, sigma, d))


class TestJamCheck:
    @pytest.mark.parametrize("d", [2, 3])
    def test_proportionality_holds(self, d, rng):
        rho = random_state(rng, d, d)
        sigma = random_state(rng, 2 * d, 2 * d)
        c, dev = dk.jam_check(dk.ActivationInstance(rho, sigma, d), trials=25, seed=3)
        assert c > 0
        assert dev <= 1e-9

    def test_identity_probe_matches_weight(self, rng):
        d = 2
        rho = random_state(rng, d, d)
        sigma = random_state(rng, 2 * d, 2 * d)
        inst = dk.ActivationInstance(rho, sigma, d)
        c, _ = dk.jam_check(inst, trials=10, seed=1)
        _, weight = dk.apply_activation(inst)
        den = dk.activation.target_pairing(rho, sigma, np.eye(4))
        assert abs(weight / den - c) < 1e-9

    def test_trials_below_one_rejected(self, rng):
        inst = dk.ActivationInstance(random_state(rng, 2, 2), random_state(rng, 4, 4), 2)
        with pytest.raises(ParameterError, match="trials"):
            dk.jam_check(inst, trials=0)

    def test_scaling_probe_invariance(self, rng):
        d = 2
        rho = random_state(rng, d, d)
        sigma = random_state(rng, 2 * d, 2 * d)
        inst = dk.ActivationInstance(rho, sigma, d)
        out, _ = dk.apply_activation(inst)
        z = linalg.random_density(rng, 4)
        r1 = np.real(np.trace(out @ z)) / dk.activation.target_pairing(rho, sigma, z)
        r3 = np.real(np.trace(out @ (3 * z))) / dk.activation.target_pairing(rho, sigma, 3 * z)
        assert abs(r1 - r3) < 1e-12


class TestEvaluateActivation:
    @pytest.mark.parametrize("d", [2, 3])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_identity_route(self, d, seed):
        # weight = tr[sigma (rho^T (x) I)], fidelity = tr[sigma (rho^T (x) phi_2)] / weight,
        # computed on the target's side without forming the filtered state
        rng = np.random.default_rng(seed)
        rho = random_state(rng, d, d)
        sigma = random_state(rng, 2 * d, 2 * d)
        witness, fidelity, weight = dk.evaluate_activation(rho, sigma)
        ref_weight = dk.activation.target_pairing(rho, sigma, np.eye(4))
        ref_fidelity = dk.activation.target_pairing(rho, sigma, PHI2) / ref_weight
        assert abs(weight - ref_weight) < 1e-12
        assert abs(fidelity - ref_fidelity) < 1e-12
        assert witness == dk.activation_witness(rho, sigma)

    def test_degenerate_postselection_raises(self):
        rho = dk.construct_state(dk.StateFamilySpec(dk.Family.PRODUCT_PURE, 2, {"i": 0, "j": 1}))
        sigma = dk.pair_product(phi_state(2), phi_state(2))
        with pytest.raises(NumericalError, match="degenerate post-selection"):
            dk.evaluate_activation(rho, sigma)


class TestActivationWitness:
    def test_embedded_phi2_is_negative(self):
        d = 2
        sigma = dk.pair_product(phi_state(d), phi_state(2))
        w = dk.activation_witness(phi_state(d), sigma)
        assert w < -0.4  # fidelity 1 > 1/2 via apply_activation
        out, weight = dk.apply_activation(dk.ActivationInstance(phi_state(d), sigma, d))
        assert np.real(np.trace(out @ PHI2)) / weight > 0.5

    def test_separable_target_nonnegative_on_ppt_activators(self, rng):
        d = 2
        sigma = separable_product_target(rng, d, terms=5)
        for seed in range(10):
            rho = dk.construct_state(dk.StateFamilySpec(dk.Family.RANDOM_PPT, d), seed=seed)
            assert dk.activation_witness(rho, sigma) >= -1e-9

    def test_maximally_mixed_activator_value(self):
        # the pairing factorizes through the A3B3 marginal; with sigma maximally
        # mixed it equals (1/d^2) tr[(I_4/4)(I/2 - phi_2)] = 1/(4 d^2)
        d = 2
        rho = dk.BipartiteState(np.eye(d * d) / (d * d), d, d)
        sigma = dk.BipartiteState(np.eye(4 * d * d) / (4 * d * d), 2 * d, 2 * d)
        w = dk.activation_witness(rho, sigma)
        marg = np.eye(4) / 4
        expect = (1 / d ** 2) * np.real(np.trace(marg @ (np.eye(4) / 2 - PHI2)))
        assert abs(w - expect) < 1e-12
        assert abs(w - 1 / (4 * d * d)) < 1e-12
        assert w >= 0

    def test_sign_equivalence_with_fidelity(self, rng):
        d = 2
        agreements = 0
        checked = 0
        for _ in range(40):
            rho = random_state(rng, d, d)
            sigma = random_state(rng, 2 * d, 2 * d)
            w = dk.activation_witness(rho, sigma)
            if abs(w) <= 1e-9:
                continue
            out, weight = dk.apply_activation(dk.ActivationInstance(rho, sigma, d))
            fid = np.real(np.trace(out @ PHI2)) / weight
            checked += 1
            agreements += (w < 0) == (fid > 0.5)
        assert checked > 0 and agreements == checked

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ParameterError):
            dk.activation_witness(random_state(rng, 2, 2), random_state(rng, 3, 3))


class TestSearchActivator:
    def test_embedded_phi2_found_immediately(self):
        d = 2
        sigma = dk.pair_product(phi_state(d), phi_state(2))
        rep = dk.search_activator(sigma, budget=5, seed=1)
        assert not rep.budget_exhausted
        assert rep.witness < -0.4
        assert rep.fidelity >= 1 - 1e-9
        assert np.max(np.abs(rep.rho.data - phi_state(d).data)) < 1e-12

    def test_npt_correlated_target_activated(self):
        # entangled target correlating the teleported block with the output qubits
        d = 2
        sigma_data = 0.6 * dk.pair_product(phi_state(d), phi_state(2)).data \
            + 0.4 * np.eye(16) / 16
        sigma = dk.BipartiteState(sigma_data, 2 * d, 2 * d)
        assert not dk.is_ppt(sigma)[0]
        rep = dk.search_activator(sigma, budget=10_000, seed=2)
        assert not rep.budget_exhausted
        assert rep.witness < -1e-9
        # certificate re-evaluates to the reported value
        assert abs(dk.activation_witness(rep.rho, sigma) - rep.witness) < 1e-9

    def test_separable_target_exhausts_budget(self, rng):
        sigma = separable_product_target(rng, 2, terms=4)
        rep = dk.search_activator(sigma, budget=300, seed=3)
        assert rep.budget_exhausted
        assert rep.witness >= -1e-9

    def test_degenerate_best_candidate_reports_no_fidelity(self):
        # target |01><01| (x) |01><01|: every witness is rho_{01,01} / 2 >= 0, the first
        # candidate phi_2 attains 0, and its projection annihilates the target
        ket01 = dk.construct_state(dk.StateFamilySpec(dk.Family.PRODUCT_PURE, 2, {"i": 0, "j": 1}))
        rep = dk.search_activator(dk.pair_product(ket01, ket01), budget=40, seed=0)
        assert np.array_equal(rep.rho.data, phi_state(2).data)
        assert rep.witness == 0.0 and rep.budget_exhausted
        assert rep.fidelity is None and rep.success_weight is None
        assert rep.to_dict()["fidelity"] is None

    def test_budget_below_one_rejected(self):
        sigma = dk.pair_product(phi_state(2), phi_state(2))
        with pytest.raises(ParameterError, match="budget"):
            dk.search_activator(sigma, budget=0)

    def test_non_finite_target_rejected(self):
        sigma = dk.BipartiteState(np.full((16, 16), np.nan), 4, 4)
        with pytest.raises(ParameterError, match="finite"):
            dk.search_activator(sigma, budget=30, seed=0)

    def test_report_serializable(self):
        d = 2
        sigma = dk.pair_product(phi_state(d), phi_state(2))
        rep = dk.search_activator(sigma, budget=3, seed=1)
        payload = rep.to_dict()
        assert set(payload) >= {"witness", "fidelity", "success_weight", "rho"}
