"""Activation protocol: the induced map against the physical protocol and the
index-contraction oracle, induced-map proportionality (against the oracle in
conftest), sign witness, and activator search."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import distilkit as dk
from distilkit import linalg
from distilkit.distillability import DENOM_REG
from distilkit.errors import NumericalError, ParameterError

from conftest import jam_check, pairing_by_matrix_units, protocol_by_filters, random_state

PHI2 = dk.phi_projector(2)


def pairing(rho: dk.BipartiteState, sigma: dk.BipartiteState, z: np.ndarray) -> float:
    """tr[sigma (rho^T (x) z)] by the matrix-unit route."""
    return np.trace(rho.data.T @ pairing_by_matrix_units(sigma, z)).real


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


class TestApplyActivation:
    def test_matches_contraction_oracle(self, rng):
        d = 2
        rho = random_state(rng, d, d)
        sigma = random_state(rng, 2 * d, 2 * d)
        out, weight = dk.apply_activation(rho, sigma)
        ref = protocol_output_reference(rho.data, sigma.data, d)
        assert np.max(np.abs(out - ref)) < 1e-12
        assert abs(weight - np.trace(ref).real) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_the_physical_protocol(self, d, rng):
        rho, sigma = random_state(rng, d, d), random_state(rng, 2 * d, 2 * d)
        out, weight = dk.apply_activation(rho, sigma)
        ref = protocol_by_filters(rho, sigma)
        assert np.max(np.abs(out - ref)) <= 1e-13
        assert abs(weight - np.trace(ref).real) <= 1e-13

    @pytest.mark.parametrize("d", [6, 8])
    def test_above_the_merged_cap(self, d, rng):
        # rho (x) sigma would be one pair of dimension 4 d^4 (5184, 16384), above the
        # cap; the induced map never forms it
        tau = random_state(rng, d, d)
        noisy = dk.BipartiteState(0.6 * dk.pair_product(tau, phi_state(2)).data
                                  + 0.4 * np.eye(4 * d * d) / (4 * d * d), 2 * d, 2 * d)
        signs = set()
        for sigma in (random_state(rng, 2 * d, 2 * d), noisy):
            for rho in (random_state(rng, d, d), phi_state(d), dk.search_activator(sigma).rho):
                out, weight = dk.apply_activation(rho, sigma)
                ref = protocol_output_reference(rho.data, sigma.data, d)
                assert np.max(np.abs(out - ref)) <= 1e-13
                witness, fidelity, w = dk.evaluate_activation(rho, sigma)
                assert w == weight and np.isfinite(fidelity)
                if abs(witness) > 1e-9:
                    assert (witness < 0) == (fidelity > 0.5)
                    signs.add(witness < 0)
        assert signs == {True, False}

    def test_maximally_entangled_activator_teleports(self, rng):
        d = 2
        kappa = random_state(rng, 2, 2)
        tau = random_state(rng, d, d)
        sigma = dk.pair_product(tau, kappa)
        out, weight = dk.apply_activation(phi_state(d), sigma)
        assert np.max(np.abs(out / weight - kappa.data)) < 1e-12

    def test_identity_composition_gives_phi2(self):
        d = 2
        sigma = dk.pair_product(phi_state(d), phi_state(2))
        out, weight = dk.apply_activation(phi_state(d), sigma)
        fid = np.real(np.trace(out @ PHI2)) / weight
        assert abs(fid - 1.0) < 1e-12

    def test_product_activator_weights_target_block(self, rng):
        # rho = x (x) y: the output is sigma's A3B3 block contracted with x^T, y^T
        d = 2
        x, y = linalg.random_density(rng, d), linalg.random_density(rng, d)
        rho = dk.BipartiteState(np.kron(x, y), d, d)
        sigma = random_state(rng, 2 * d, 2 * d)
        out, _ = dk.apply_activation(rho, sigma)
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
            dk.apply_activation(rho, sigma)


class TestJamCheck:
    @pytest.mark.parametrize("d", [2, 3])
    def test_proportionality_holds(self, d, rng):
        rho = random_state(rng, d, d)
        sigma = random_state(rng, 2 * d, 2 * d)
        c, dev = jam_check(rho, sigma, trials=25, seed=3)
        assert abs(c - 1.0) < 1e-9  # the constant 1 of the module docstring
        assert dev <= 1e-9

    def test_identity_probe_matches_weight(self, rng):
        d = 2
        rho = random_state(rng, d, d)
        sigma = random_state(rng, 2 * d, 2 * d)
        c, _ = jam_check(rho, sigma, trials=10, seed=1)
        _, weight = dk.apply_activation(rho, sigma)
        assert abs(weight / pairing(rho, sigma, np.eye(4)) - c) < 1e-9

    def test_scaling_probe_invariance(self, rng):
        d = 2
        rho = random_state(rng, d, d)
        sigma = random_state(rng, 2 * d, 2 * d)
        out, _ = dk.apply_activation(rho, sigma)
        z = linalg.random_density(rng, 4)
        r1 = np.real(np.trace(out @ z)) / pairing(rho, sigma, z)
        r3 = np.real(np.trace(out @ (3 * z))) / pairing(rho, sigma, 3 * z)
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
        ref_weight = pairing(rho, sigma, np.eye(4))
        ref_fidelity = pairing(rho, sigma, PHI2) / ref_weight
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
        out, weight = dk.apply_activation(phi_state(d), sigma)
        assert np.real(np.trace(out @ PHI2)) / weight > 0.5

    def test_separable_target_nonnegative_on_ppt_activators(self, rng):
        d = 2
        sigma = separable_product_target(rng, d, terms=5)
        for seed in range(10):
            rho = dk.construct_state(dk.StateFamilySpec(dk.Family.RANDOM_PPT, d), seed=seed)
            assert dk.activation_witness(rho, sigma) >= -1e-9

    @pytest.mark.parametrize("d", [2, 3])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_ppt_activator_on_ppt_target_is_nonnegative(self, d, seed):
        # PPT (x) PPT stays PPT and the local projections keep it PPT, so the two-qubit
        # output is PPT and its phi_2 fidelity at most 1/2 (Horodecki, PRL 80, 5239)
        activators = (dk.werner_state(d, 0.5), dk.isotropic_state(d, 1 / (d + 1)))
        target = dk.construct_state(dk.StateFamilySpec(dk.Family.RANDOM_PPT, 2 * d), seed=seed)
        boundary = dk.pair_product(dk.isotropic_state(d, 1 / (d + 1)), dk.isotropic_state(2, 1 / 3))
        for rho in activators:
            assert dk.is_ppt(rho)[0]
            assert dk.activation_witness(rho, target) >= -1e-9
            # the qubit factor has phi_2 fidelity exactly 1/2, so the witness is 0
            assert abs(dk.activation_witness(rho, boundary)) <= 1e-15

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
            out, weight = dk.apply_activation(rho, sigma)
            fid = np.real(np.trace(out @ PHI2)) / weight
            checked += 1
            agreements += (w < 0) == (fid > 0.5)
        assert checked > 0 and agreements == checked

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ParameterError):
            dk.activation_witness(random_state(rng, 2, 2), random_state(rng, 3, 3))

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 3, 1)])
    def test_activator_shape_rejected(self, rng, shape):
        # a two-pair or a non-square activator whose dimA still matches the target
        # is a ParameterError on every route, not a reshape error from numpy
        dA, dB, pairs = shape
        rho = random_state(rng, dA, dB, pairs=pairs)
        sigma = random_state(rng, 2 * dA, 2 * dA)
        for route in (dk.activation_witness, dk.apply_activation, dk.evaluate_activation):
            with pytest.raises(ParameterError, match="activator"):
                route(rho, sigma)


def old_sweep(d):
    """The fixed candidates of the former sampled search."""
    return [phi_state(d)] + [make(d, float(p)) for make in (dk.isotropic_state, dk.werner_state)
                             for p in np.linspace(0.2, 1.0, 9)]


class TestPairingMatrix:
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_matrix_unit_route(self, d, rng):
        sigma = random_state(rng, 2 * d, 2 * d)
        for z in (np.eye(4), PHI2, linalg.random_density(rng, 4)):
            ref = pairing_by_matrix_units(sigma, z)
            assert np.max(np.abs(dk.activation._pairing_matrix(sigma, z) - ref)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_witness_matches_matrix_unit_route(self, d, rng):
        z = np.eye(4) / 2 - PHI2
        for _ in range(5):
            rho, sigma = random_state(rng, d, d), random_state(rng, 2 * d, 2 * d)
            assert abs(dk.activation_witness(rho, sigma) - pairing(rho, sigma, z)) < 1e-12


class TestMergeCap:
    """rho (x) sigma would be one pair of dimension 4 d^4, above the cap from d = 6 on;
    the activation never forms it."""

    @staticmethod
    def pair(rng, d):
        return random_state(rng, d, d), random_state(rng, 2 * d, 2 * d)

    def test_cap_applies_to_the_merged_pair(self):
        # a d = 6 target is small; only its merge with an activator passes the cap
        assert dk.pair_product(phi_state(6), phi_state(2)).dim == 144

    def test_search_above_the_cap_keeps_the_exact_witness(self, rng):
        _, sigma = self.pair(rng, 6)
        rep = dk.search_activator(sigma)
        ref = protocol_output_reference(rep.rho.data, sigma.data, 6)
        weight = np.trace(ref).real
        assert weight > DENOM_REG and abs(rep.success_weight - weight) < 1e-12
        assert abs(rep.fidelity - np.trace(ref @ PHI2).real / weight) < 1e-12
        evals = np.linalg.eigvalsh(pairing_by_matrix_units(sigma, np.eye(4) / 2 - dk.phi_projector(2)))
        assert abs(rep.witness - evals[0]) < 1e-12 and abs(rep.gap - (evals[1] - evals[0])) < 1e-12
        assert abs(dk.activation_witness(rep.rho, sigma) - rep.witness) < 1e-12


class TestSearchActivator:
    def test_embedded_phi2_found_immediately(self):
        for d in (2, 3):
            rep = dk.search_activator(dk.pair_product(phi_state(d), phi_state(2)))
            assert not rep.budget_exhausted
            assert abs(rep.witness + 0.5) < 1e-12
            assert abs(rep.gap - 0.5) < 1e-12
            assert abs(rep.fidelity - 1.0) < 1e-12
            assert np.max(np.abs(rep.rho.data - phi_state(d).data)) < 1e-12

    def test_npt_correlated_target_activated(self):
        # entangled target correlating the teleported block with the output qubits
        d = 2
        sigma_data = 0.6 * dk.pair_product(phi_state(d), phi_state(2)).data \
            + 0.4 * np.eye(16) / 16
        sigma = dk.BipartiteState(sigma_data, 2 * d, 2 * d)
        assert not dk.is_ppt(sigma)[0]
        rep = dk.search_activator(sigma)
        assert not rep.budget_exhausted
        assert rep.witness < -1e-9
        # certificate re-evaluates to the reported value
        assert abs(dk.activation_witness(rep.rho, sigma) - rep.witness) < 1e-9

    def test_noisy_target_missed_by_sampling(self):
        # q (tau (x) phi_2) + (1 - q) I/36 at d = 3, q = 0.2: 2000 sampled candidates
        # all gave a positive witness here, but the exact minimum is negative
        tau = dk.BipartiteState(linalg.random_density(np.random.default_rng(1), 9), 3, 3)
        data = 0.2 * dk.pair_product(tau, phi_state(2)).data + 0.8 * np.eye(36) / 36
        rep = dk.search_activator(dk.BipartiteState(data, 6, 6))
        assert abs(rep.witness + 1.736e-2) < 1e-6
        assert not rep.budget_exhausted
        assert rep.fidelity > 0.5

    @pytest.mark.parametrize("d", [2, 3])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_minimum_lies_below_every_activator(self, d, seed):
        rng = np.random.default_rng(seed)
        sigma = random_state(rng, 2 * d, 2 * d)
        rep = dk.search_activator(sigma)
        assert rep.gap >= 0
        assert abs(dk.activation_witness(rep.rho, sigma) - rep.witness) < 1e-12
        for rho in [random_state(rng, d, d) for _ in range(5)] + old_sweep(d):
            assert rep.witness <= dk.activation_witness(rho, sigma) + 1e-12

    def test_separable_target_exhausts_budget(self, rng):
        sigma = separable_product_target(rng, 2, terms=4)
        rep = dk.search_activator(sigma)
        assert rep.budget_exhausted
        assert rep.witness >= -1e-9

    def test_degenerate_best_candidate_reports_no_fidelity(self):
        # target |01><01| (x) |01><01|: every witness is rho_{01,01} / 2 >= 0, the
        # minimum 0 is threefold, and every minimizer's projection annihilates the target
        ket01 = dk.construct_state(dk.StateFamilySpec(dk.Family.PRODUCT_PURE, 2, {"i": 0, "j": 1}))
        rep = dk.search_activator(dk.pair_product(ket01, ket01))
        assert rep.witness == 0.0 and rep.gap == 0.0 and rep.budget_exhausted
        assert rep.fidelity is None and rep.success_weight is None
        assert rep.to_dict()["fidelity"] is None

    def test_activation_of_a_separable_target(self):
        # phi_{A2A3} (x) phi_{B2B3} is a product across Alice | Bob, yet the NPT activator
        # phi_2 swaps its entanglement onto A3B3: a negative minimum says nothing about
        # the target's own distillability
        sigma = dk.BipartiteState(np.kron(PHI2, PHI2), 4, 4)
        assert dk.is_ppt(sigma)[0]
        rep = dk.search_activator(sigma)
        assert abs(rep.witness + 1 / 8) < 1e-12
        assert abs(rep.gap - 1 / 4) < 1e-12
        assert abs(rep.fidelity - 1.0) < 1e-12
        assert np.max(np.abs(rep.rho.data - PHI2)) < 1e-12
        assert not dk.is_ppt(rep.rho)[0]

    @pytest.mark.parametrize("dims", [(2, 2, 1), (6, 4, 1), (5, 5, 1), (4, 4, 2)])
    def test_target_shape_rejected(self, dims):
        dimA, dimB, pairs = dims
        size = (dimA * dimB) ** pairs
        sigma = dk.BipartiteState(np.eye(size) / size, dimA, dimB, pairs)
        with pytest.raises(ParameterError, match="local dimension 2d"):
            dk.search_activator(sigma)

    def test_non_finite_target_rejected(self):
        sigma = dk.BipartiteState(np.full((16, 16), np.nan), 4, 4)
        with pytest.raises(ParameterError, match="finite"):
            dk.search_activator(sigma)

    def test_report_serializable(self):
        d = 2
        sigma = dk.pair_product(phi_state(d), phi_state(2))
        payload = dk.search_activator(sigma).to_dict()
        assert set(payload) == {"witness", "fidelity", "success_weight", "rho",
                                "budget_exhausted", "gap"}
