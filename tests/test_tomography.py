"""IC-POVM frames, linear inversion, sampling, state projection, tail bound,
and the estimate-then-distill pipeline."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import distilkit as dk
from distilkit import linalg, tomography
from distilkit.cli import run
from distilkit.errors import FrameError, NumericalError, ParameterError

from conftest import (born_by_product_frame, product_frame, random_state,
                      reconstruct_by_product_frame)


def hermitian_basis(m):
    """Orthonormal basis of Hermitian m x m matrices (Hilbert-Schmidt inner product)."""
    basis = [np.eye(m, dtype=complex) / np.sqrt(m)]
    for l in range(1, m):
        d = np.zeros(m)
        d[:l] = 1.0
        d[l] = -l
        basis.append(np.diag(d).astype(complex) / np.sqrt(l * (l + 1)))
    for j in range(m):
        for k in range(j + 1, m):
            e = np.zeros((m, m), dtype=complex)
            e[j, k] = 1.0
            basis.append((e + e.T) / np.sqrt(2))
            basis.append((1j * e + (1j * e).conj().T) / np.sqrt(2))
    return basis


def reconstruct_by_lstsq(probs, frame):
    """Independent inversion: solve the linear system tr[A_i X] = p_i directly."""
    basis = hermitian_basis(frame.dim)
    mat = np.array([[np.real(np.trace(a @ h)) for h in basis] for a in frame.elements])
    coeff, *_ = np.linalg.lstsq(mat, probs, rcond=None)
    return sum(c * h for c, h in zip(coeff, basis))


def water_fill_loop(caps, total):
    """The sequential water-filling scan: the first t at which every entry below
    index j is capped and the rest sit at t, else the largest cap."""
    order = np.argsort(caps)
    sorted_caps = caps[order]
    n = len(caps)
    prefix = 0.0
    t = None
    for j in range(n):
        t_try = (total - prefix) / (n - j)
        if t_try <= sorted_caps[j] + 1e-15:
            t = t_try
            break
        prefix += sorted_caps[j]
    if t is None:
        t = sorted_caps[-1]
    return np.minimum(caps, t)


def simplex_project(w):
    """Euclidean projection of each vector along the last axis onto the simplex."""
    u = np.sort(w, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    fits = u * np.arange(1, w.shape[-1] + 1) > (css - 1.0)
    rho = w.shape[-1] - 1 - np.argmax(fits[..., ::-1], axis=-1)  # the last index that fits
    theta = (np.take_along_axis(css, rho[..., None], -1) - 1.0) / (rho[..., None] + 1.0)
    return np.clip(w - theta, 0.0, None)


def pg_closest_state(x, stages=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8), iters=300):
    """Independent convex oracle: annealed smoothed projected gradient (FISTA),
    on one matrix or on a stack of them, each its own problem."""
    def dag(a):
        return np.swapaxes(a.conj(), -1, -2)

    def proj_density(h):
        w, v = np.linalg.eigh((h + dag(h)) / 2)
        return (v * simplex_project(w)[..., None, :]) @ dag(v)

    sigma = proj_density(x)
    for mu in stages:
        y, prev, t = sigma, sigma, 1.0
        for _ in range(iters):
            d = y - x
            w, v = np.linalg.eigh((d + dag(d)) / 2)
            g = (v * np.clip(w / mu, -1, 1)[..., None, :]) @ dag(v)
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

    @pytest.mark.parametrize("ma,mb", [pytest.param(2, None, id="2"), pytest.param(3, None, id="3"),
                                       (2, 2), (2, 3)])
    def test_roundtrip_against_lstsq(self, ma, mb, rng):
        fr = dk.minimal_ic_povm(ma)
        if mb is not None:
            fr = product_frame(fr, dk.minimal_ic_povm(mb))
        m = fr.dim
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

    def test_stacks_are_read_only_copies(self):
        fr = dk.minimal_ic_povm(2)
        elements = np.array(fr.elements)
        frame = tomography.Frame(elements, fr.duals)
        elements[0] = 0.0
        assert np.array_equal(frame.elements, fr.elements)
        for stack in (frame.elements, frame.duals):
            assert stack.shape == (4, 2, 2) and not stack.flags.writeable

    def test_library_frame_owns_its_stacks(self):
        # the stacks minimal_ic_povm builds are kept, not copied: 81.4 bytes per m^4
        # at the peak with a copy of both, 65.8 without
        m = 24
        assert traced_peak(lambda: dk.minimal_ic_povm(m)) < 72 * m ** 4 / 2 ** 20
        fr = dk.minimal_ic_povm(2)
        assert not fr.elements.flags.writeable and not fr.duals.flags.writeable


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


PAIRS = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (6, 6)]


class TestProductFrame:
    """The product measurement on a pair by contractions with its two local stacks,
    against the product frame built one np.kron at a time (the conftest oracle)."""

    def test_sixteen_elements_sum_to_identity(self):
        pf = product_frame(*tomography.local_frame(phi_state()))
        assert pf.n_outcomes == 16
        assert np.max(np.abs(sum(pf.elements) - np.eye(4))) < 1e-10

    def test_born_matches_per_element_trace(self, rng):
        for dA, dB in PAIRS:
            frames = tomography.local_frame(random_state(rng, dA, dB))
            oracle = product_frame(*frames)
            for _ in range(3):
                s = random_state(rng, dA, dB)
                p = dk.born_probabilities(s, frames)
                assert p.shape == (oracle.n_outcomes,)
                assert np.max(np.abs(p - born_by_product_frame(s, oracle))) <= 1e-15

    def test_reconstruction_matches_per_element_kron(self, rng):
        for dA, dB in PAIRS:
            s = random_state(rng, dA, dB)
            frames = tomography.local_frame(s)
            oracle = product_frame(*frames)
            born = dk.born_probabilities(s, frames)
            for probs in (born, rng.dirichlet(np.ones(oracle.n_outcomes))):
                rec = dk.reconstruct_from_probabilities(probs, frames)
                assert np.max(np.abs(rec - reconstruct_by_product_frame(probs, oracle))) <= 1e-15
            assert np.max(np.abs(dk.reconstruct_from_probabilities(born, frames) - s.data)) < 1e-12

    def test_seven_by_seven_pair_stays_small(self, rng):
        # the product frame of a 7x7 pair is two (2401, 49, 49) stacks, about 352 MiB
        s = random_state(rng, 7, 7)
        frames = tomography.local_frame(s)
        peak = traced_peak(lambda: dk.reconstruct_from_probabilities(
            dk.born_probabilities(s, frames), frames))
        assert peak < 4.0

    def test_mismatched_frames_rejected(self, rng):
        fr2, fr3 = dk.minimal_ic_povm(2), dk.minimal_ic_povm(3)
        with pytest.raises(ParameterError, match="do not match the pair"):
            dk.born_probabilities(random_state(rng, 2, 3), (fr3, fr2))
        with pytest.raises(ParameterError, match="do not match the pair"):
            dk.born_probabilities(random_state(rng, 2, 2, pairs=2), (fr2, fr2))
        with pytest.raises(ParameterError, match="does not match the frames"):
            dk.reconstruct_from_probabilities(np.full(16, 1 / 16), (fr2, fr3))

    def test_product_state_reconstruction(self, rng):
        fr = dk.minimal_ic_povm(2)
        a, b = linalg.random_density(rng, 2), linalg.random_density(rng, 2)
        s = dk.BipartiteState(np.kron(a, b), 2, 2)
        probs = dk.born_probabilities(s, (fr, fr))
        rec = dk.reconstruct_from_probabilities(probs, (fr, fr))
        assert np.max(np.abs(rec - s.data)) < 1e-9

    def test_entangled_state_needs_no_entangled_measurements(self):
        fr = dk.minimal_ic_povm(2)
        probs = dk.born_probabilities(phi_state(), (fr, fr))
        rec = dk.reconstruct_from_probabilities(probs, (fr, fr))
        assert np.max(np.abs(rec - phi_state().data)) < 1e-9


def traced_peak(call) -> float:
    """Peak traced allocation of ``call()`` in MiB."""
    tracemalloc.start()
    try:
        call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak / 2 ** 20


class TestFrameCap:
    """A frame of side m holds m^2 operators of size m x m, about 66 m^4 bytes at its
    peak at m = 24; m^2 above DIM_CAP is a CapacityError before anything of that size exists.
    A pair's joint outcome table, (dimA * dimB)^2 entries, has the same cap, checked
    before either local frame is built."""

    def test_minimal_frame_over_the_cap(self):
        def build():
            with pytest.raises(dk.CapacityError, match="65\\*\\*2 exceeds cap 4096"):
                dk.minimal_ic_povm(65)
        assert traced_peak(build) < 2.0

    def test_local_frame_of_a_pair_over_the_cap(self):
        state = dk.BipartiteState(np.eye(72) / 72, 9, 8)
        def build():
            with pytest.raises(dk.CapacityError, match="72\\*\\*2 exceeds cap 4096"):
                tomography.local_frame(state)
        assert traced_peak(build) < 2.0

    def test_tomo_sim_over_the_cap_is_exit_3(self, capsys, tmp_path):
        spath, out = tmp_path / "s.json", tmp_path / "c.json"
        dk.save_state(dk.BipartiteState(np.eye(72) / 72, 9, 8), spath)
        codes = []
        peak = traced_peak(lambda: codes.append(run(["tomo-sim", "--state", str(spath),
                                                     "--shots", "10", "--seed", "1",
                                                     "--out", str(out)])))
        assert codes == [3] and peak < 2.0 and not out.exists()
        assert capsys.readouterr().err == "error: result dimension 72**2 exceeds cap 4096\n"


class TestSimulation:
    def test_zero_shots(self):
        fr = dk.minimal_ic_povm(2)
        frames = (fr, fr)
        counts = dk.simulate_measurements(phi_state(), frames, 0, seed=1)
        assert counts.shots == 0 and all(c == 0 for c in counts.counts)

    def test_frequencies_approach_born(self):
        fr = dk.minimal_ic_povm(2)
        frames = (fr, fr)
        w = dk.werner_state(2, 0.75)
        counts = dk.simulate_measurements(w, frames, 100_000, seed=5)
        p = dk.born_probabilities(w, frames)
        assert np.max(np.abs(counts.frequencies() - p)) < 0.02

    def test_deterministic_for_fixed_seed(self):
        fr = dk.minimal_ic_povm(2)
        frames = (fr, fr)
        c1 = dk.simulate_measurements(phi_state(), frames, 500, seed=9)
        c2 = dk.simulate_measurements(phi_state(), frames, 500, seed=9)
        assert c1.counts == c2.counts

    def test_dimension_mismatch(self):
        fr = dk.minimal_ic_povm(3)
        with pytest.raises(ParameterError):
            dk.simulate_measurements(phi_state(), (fr, fr), 10, seed=0)

    @pytest.mark.parametrize("state,seed,shots,expect", [
        pytest.param(lambda: dk.werner_state(2, 0.75), 3, 1000,
                     (20, 116, 62, 74, 116, 22, 75, 74, 69, 58, 14, 65, 79, 67, 66, 23),
                     id="werner-2x2"),
        pytest.param(lambda: dk.construct_state(
            dk.StateFamilySpec(dk.Family.RANDOM_MIXED, 2, {"dB": 3}), seed=1), 11, 500,
            (11, 7, 9, 9, 5, 6, 7, 3, 8, 16, 27, 37, 29, 20, 13, 21, 21, 35, 16, 14, 17, 17, 12,
             4, 21, 17, 5, 9, 5, 12, 12, 10, 5, 17, 7, 16), id="random-2x3"),
    ])
    def test_tomo_sim_counts_pinned(self, tmp_path, state, seed, shots, expect):
        # outcome (k, l) sits at k * K_B + l and the seed stream is unchanged: these
        # counts were written by the product-frame route
        spath, out = tmp_path / "s.json", tmp_path / "c.json"
        dk.save_state(state(), spath)
        assert run(["tomo-sim", "--state", str(spath), "--shots", str(shots),
                    "--seed", str(seed), "--out", str(out)]) == 0
        assert tomography.load_counts(out).counts == expect

    def test_large_deviation_rate_below_tail_bound(self):
        # 200 trials at a shot count where the bound is nonvacuous; the
        # empirical l1-deviation failure rate must not exceed it
        fr = dk.minimal_ic_povm(2)
        frames = (fr, fr)
        w = dk.werner_state(2, 0.75)
        born = dk.born_probabilities(w, frames)
        shots = 100_000
        bound = dk.chernoff_tail(0.1, shots, 16).reported
        assert bound < 1.0
        failures = 0
        for seed in range(200):
            counts = dk.simulate_measurements(w, frames, shots, seed=seed)
            if np.abs(counts.frequencies() - born).sum() > 0.1:
                failures += 1
        assert failures / 200 <= bound


class TestReconstruct:
    def test_exact_probabilities_reproduce_state(self, rng):
        fr = dk.minimal_ic_povm(2)
        frames = (fr, fr)
        s = random_state(rng, 2, 2)
        rec = dk.reconstruct_from_probabilities(dk.born_probabilities(s, frames), frames)
        assert np.max(np.abs(rec - s.data)) < 1e-9

    def test_finite_samples_may_go_negative(self):
        fr = dk.minimal_ic_povm(2)
        frames = (fr, fr)
        counts = dk.simulate_measurements(phi_state(), frames, 100, seed=3)
        x = dk.reconstruct(counts, frames)
        assert linalg.herm_residual(x) < 1e-12
        assert abs(np.trace(x).real - 1.0) < 1e-9
        # negativity is allowed (and typical) at 100 shots; it must not raise

    def test_werner_accuracy_at_many_shots(self):
        # distances in the halved (trace-distance) convention; the raw
        # trace-norm reading is not met by the pinned frame construction
        fr = dk.minimal_ic_povm(2)
        frames = (fr, fr)
        w = dk.werner_state(2, 0.75)
        hits = 0
        for seed in range(50):
            counts = dk.simulate_measurements(w, frames, 100_000, seed=seed)
            x = dk.reconstruct(counts, frames)
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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=16),
           st.floats(0.0, 1.0))
    def test_water_fill_matches_sequential_scan(self, caps, fraction):
        caps = np.array(caps)
        total = fraction * caps.sum()
        assert np.array_equal(tomography._water_fill(caps, total), water_fill_loop(caps, total))


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

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ParameterError, match="finite delta"):
            dk.chernoff_tail(delta, 10, 4)

    @pytest.mark.parametrize("delta,n,cardinality", [(0.1, 10 ** 400, 4), (0.1, 10, 10 ** 400),
                                                     (1e200, 10, 4), (0.1, 10 ** 300, 10 ** 306)])
    def test_exponent_beyond_a_float_rejected(self, delta, n, cardinality):
        # an integer no float can hold, delta ** 2 past the float range, or an
        # infinite exponent: each is a ParameterError, not an OverflowError or inf
        with pytest.raises(ParameterError, match="overflows a float"):
            dk.chernoff_tail(delta, n, cardinality)


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
        # one filter-pair record, shared with the see-saw reports
        assert payload["certificate"] == rep.certificate.to_dict()
        assert payload["certificate"]["type"] == "filter_pair"
        assert dataclasses.replace(rep, surrogate=False).to_dict()["surrogate"] is False


class TestCountsFile:
    @pytest.mark.parametrize("text", [
        pytest.param("outcome_index,count\n0,5\n", id="csv-table"),
        pytest.param("[5, 3]", id="top-level-list"),
        pytest.param('{"meta": {}}', id="no-counts"),
        pytest.param('{"counts": 5}', id="counts-not-a-list"),
        pytest.param('{"counts": [5, true]}', id="bool"),
        pytest.param('{"counts": [5, 1.5]}', id="float"),
        pytest.param('{"counts": [5, "3"]}', id="string"),
        pytest.param('{"counts": [5, -3]}', id="negative"),
        pytest.param(None, id="no-file"),
    ])
    def test_malformed_record_rejected(self, tmp_path, text):
        path = tmp_path / "c.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ParameterError, match="c.json"):
            tomography.load_counts(path)

    def test_negative_counts_rejected(self):
        with pytest.raises(ParameterError):
            tomography.OutcomeCounts((5, 5, -3), 7)

    def test_roundtrip(self, tmp_path):
        # tomo-sim writes the counts record; the reader leaves its "meta" aside
        state_path, path = tmp_path / "phi.json", tmp_path / "c.json"
        dk.save_state(phi_state(), state_path)
        assert run(["tomo-sim", "--state", str(state_path), "--shots", "1000", "--seed", "2",
                    "--out", str(path)]) == 0
        counts = dk.simulate_measurements(phi_state(), tomography.local_frame(phi_state()), 1000, 2)
        back = tomography.load_counts(path)
        assert back.counts == counts.counts and back.shots == counts.shots
