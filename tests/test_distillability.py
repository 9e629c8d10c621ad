"""See-saw singlet fraction, Schmidt-rank-2 searches, PPT, dual-cone checks."""

import contextlib
import inspect
import json
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st
from scipy import optimize

import distilkit as dk
from distilkit import linalg
from distilkit.distillability import (
    DEFAULT_ITERS,
    DEFAULT_TOL,
    DENOM_REG,
    FilterPair,
    WitnessReport,
    _fd_seesaw,
    _rayleigh_step,
    evaluate_schmidt_certificate,
    filter_ratio,
    schmidt_rank2_filters,
)
from distilkit.errors import OptimizationError, ParameterError
from distilkit.states import state_from_dict, state_to_dict, to_global_cut
from distilkit.symmetry import symmetrize_matrix

from conftest import (Permutation, exact_psd, exact_quadratic_form, exact_real_embedding,
                      explicit_twirl, global_cut_pt_reference, lorentz_f2, per_entry_pairs,
                      permutation_operator, random_state, seesaw_reference, signed_zero_matrix,
                      tiles_state)

PHI2 = dk.phi_projector(2)
SEEDS = st.integers(0, 2 ** 32 - 1)


def filter_ratio_raw(params, rho):
    """Explicit filtered-overlap ratio for raw 2x2 filter parameters (oracle path)."""
    a = (params[:4] + 1j * params[4:8]).reshape(2, 2)
    b = (params[8:12] + 1j * params[12:16]).reshape(2, 2)
    op = np.kron(a, b)
    out = op @ rho @ op.conj().T
    den = np.trace(out).real
    if den < 1e-12:
        return 0.0
    return float(np.real(np.trace(out @ PHI2)) / den)


def oracle_f2_two_qubits(rho, seed, n_random=3000, polish=10):
    """Independent brute-force + Nelder-Mead search over parameterized filters."""
    rng = np.random.default_rng(seed)
    cands = sorted(
        ((filter_ratio_raw(p, rho), p) for p in rng.standard_normal((n_random, 16))),
        key=lambda t: -t[0],
    )
    best = cands[0][0]
    for _, p0 in cands[:polish]:
        res = optimize.minimize(lambda p: -filter_ratio_raw(p, rho), p0,
                                method="Nelder-Mead",
                                options={"maxiter": 6000, "xatol": 1e-12, "fatol": 1e-14})
        best = max(best, -res.fun)
    return best


def phi_state(d=2):
    return dk.construct_state(dk.StateFamilySpec(dk.Family.MAX_ENTANGLED, d))


class TestF2:
    def test_phi2_reaches_one(self):
        rep = dk.f2(phi_state(), restarts=4, seed=1)
        assert abs(rep.value - 1.0) < 1e-9

    def test_product_ground_state_is_half(self):
        prod = dk.construct_state(dk.StateFamilySpec(dk.Family.PRODUCT_PURE, 2))
        rep = dk.f2(prod, restarts=4, seed=1)
        assert abs(rep.value - 0.5) < 1e-9

    def test_werner_075_matches_grid_oracle(self):
        w = dk.werner_state(2, 0.75)
        oracle = oracle_f2_two_qubits(w.data, seed=3)
        rep = dk.f2(w, restarts=16, seed=1)
        assert abs(rep.value - oracle) < 1e-4
        assert abs(rep.value - 0.75) < 1e-6  # frozen from the oracle run

    def test_value_range_and_certificate(self, rng):
        cases = [
            dk.BipartiteState(np.eye(4) / 4, 2, 2),
            dk.werner_state(2, 0.2),
            random_state(rng, 2, 2),
            dk.construct_state(dk.StateFamilySpec(dk.Family.RANDOM_PPT, 2), seed=4),
        ]
        for state in cases:
            rep = dk.f2(state, restarts=8, seed=2)
            assert 0.5 - 1e-9 <= rep.value <= 1.0 + 1e-9
            overlap, weight = filter_ratio(state, rep.certificate)
            assert abs(overlap / weight - rep.value) < 1e-9

    def test_monotone_under_tensoring(self, rng):
        for i in range(3):
            a, b = random_state(rng, 2, 2), random_state(rng, 2, 2)
            fa = dk.f2(a, restarts=12, seed=i).value
            fb = dk.f2(b, restarts=12, seed=i + 50).value
            fab = dk.f2(dk.tensor(a, b), restarts=24, seed=i + 100).value
            assert fab >= max(fa, fb) - 1e-6

    def test_werner_grid_nondecreasing(self):
        vals = [dk.f2(dk.werner_state(2, 0.1 * i), restarts=8, seed=7 + i).value
                for i in range(11)]
        assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))

    def test_restart_validation(self):
        with pytest.raises(ParameterError):
            dk.f2(phi_state(), restarts=0)

    @pytest.mark.parametrize("iters", [0, -1])
    def test_empty_seesaw_rejected(self, iters):
        # no sweep would leave the unoptimized embedding start as the result
        w = dk.werner_state(2, 0.7)
        with pytest.raises(ParameterError, match="iters"):
            dk.f2(w, iters=iters, seed=0)
        with pytest.raises(ParameterError, match="iters"):
            dk.fD(w, 3, iters=iters, seed=0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        # a NaN tol never stops a restart; it would run all iters
        w = dk.werner_state(2, 0.7)
        with pytest.raises(ParameterError, match="tol"):
            dk.f2(w, tol=tol, seed=0)
        with pytest.raises(ParameterError, match="tol"):
            dk.fD(w, 3, tol=tol, seed=0)

    def test_search_options_are_keyword_only_in_one_order(self):
        # a positional call could swap the seed and the tolerance between the two
        w = dk.werner_state(2, 0.7)
        with pytest.raises(TypeError):
            dk.f2(w, 4)
        with pytest.raises(TypeError):
            dk.fD(w, 3, 4)
        options = ["restarts", "iters", "tol", "seed"]
        for fn, head in ((dk.f2, ["state"]), (dk.fD, ["state", "D"])):
            params = inspect.signature(fn).parameters
            assert list(params) == head + options
            assert all(params[name].kind is inspect.Parameter.KEYWORD_ONLY for name in options)

    def test_annihilating_first_start_restarts(self):
        # |22><22| lies outside the embedding start's span{0, 1} (x) span{0, 1}; the
        # restart draws fresh filters and reaches the product-state value 1/2
        state = dk.construct_state(dk.StateFamilySpec(dk.Family.PRODUCT_PURE, 3, {"i": 2, "j": 2}))
        with pytest.raises(dk.NumericalError, match="degenerate post-selection"):
            dk.distillability.apply_filter_pair(state, FilterPair(np.eye(2, 3), np.eye(2, 3)))
        rep = dk.f2(state, restarts=1, seed=0)
        assert abs(rep.value - 0.5) < 1e-9

    def test_deterministic_given_seed(self):
        w = dk.werner_state(2, 0.8)
        v1 = dk.f2(w, restarts=6, seed=9).value
        v2 = dk.f2(w, restarts=6, seed=9).value
        assert v1 == v2


class TestStackedSeesaw:
    """The stacked see-saw against the per-restart reference loop in conftest.  The
    comparisons call the search itself, ``_fd_seesaw``, so that it keeps its
    coverage on PPT states, where ``f2`` and ``fD`` return the proved floor."""

    @staticmethod
    def states():
        for d in (2, 3):
            for s in range(3):
                for family in (dk.Family.RANDOM_MIXED, dk.Family.RANDOM_PPT):
                    yield dk.construct_state(dk.StateFamilySpec(family, d=d), seed=10 + s)

    @staticmethod
    def check(rep, ref):
        assert abs(rep.value - ref["value"]) < 1e-12
        assert rep.iterations == ref["iterations"]
        assert rep.redraws == ref["redraws"]
        assert rep.best_restart == ref["best_restart"]

    def test_f2_matches_per_restart_loop(self):
        for i, state in enumerate(self.states()):
            self.check(_fd_seesaw(state, 2, 6, DEFAULT_ITERS, DEFAULT_TOL, i),
                       seesaw_reference(state, 2, 6, seed=i))

    def test_fd_matches_per_restart_loop(self):
        for i, state in enumerate(self.states()):
            if state.dimA == 3:
                self.check(_fd_seesaw(state, 3, 5, DEFAULT_ITERS, DEFAULT_TOL, i),
                           seesaw_reference(state, 3, 5, seed=i))

    @pytest.mark.parametrize("dA,dB", [(2, 3), (3, 2)])
    def test_rectangular_cuts_match_per_restart_loop(self, dA, dB):
        for s in range(3):
            state = dk.BipartiteState(linalg.random_density(np.random.default_rng(40 + s), dA * dB),
                                      dA, dB)
            self.check(dk.f2(state, restarts=6, seed=s), seesaw_reference(state, 2, 6, seed=s))
            self.check(dk.fD(state, 3, restarts=5, seed=s), seesaw_reference(state, 3, 5, seed=s))

    def test_certificates_have_unit_spectral_norm(self, rng):
        # the half-step scales by the Frobenius norm; the returned certificate is
        # spectral-normalized once
        cases = [(s, 2) for s in self.states()] + [(s, 3) for s in self.states() if s.dimA == 3]
        cases += [(random_state(rng, 2, 3), 2), (random_state(rng, 2, 2, pairs=2), 3)]
        for i, (state, t) in enumerate(cases):
            rep = dk.f2(state, restarts=4, seed=i) if t == 2 else dk.fD(state, t, restarts=4, seed=i)
            for filt in (rep.certificate.A, rep.certificate.B):
                assert abs(np.linalg.norm(filt, 2) - 1.0) < 1e-12

    def test_iteration_cap_and_tolerance_per_restart(self):
        state = dk.construct_state(dk.StateFamilySpec(dk.Family.RANDOM_PPT, d=2), seed=21)
        for iters, tol in ((3, 1e-9), (40, 1e-6)):
            rep = _fd_seesaw(state, 2, 5, iters, tol, 1)
            self.check(rep, seesaw_reference(state, 2, 5, iters=iters, tol=tol, seed=1))
            assert max(rep.iterations) <= iters

    def test_degenerate_start_in_a_mixed_stack(self):
        # the embedding start annihilates |22><22| and is re-drawn; the rank-1
        # floor and the random starts join the stack as they are
        state = dk.construct_state(dk.StateFamilySpec(dk.Family.PRODUCT_PURE, 3, {"i": 2, "j": 2}))
        rep = dk.f2(state, restarts=3, seed=0)
        assert rep.redraws[0] >= 1 and rep.redraws[1:] == [0, 0]
        assert abs(rep.value - 0.5) < 1e-9
        self.check(rep, seesaw_reference(state, 2, 3, seed=0))

    def test_failing_slice_leaves_other_restarts_alone(self, monkeypatch):
        # a LinAlgError raised for one restart's filter fails the whole stack; that
        # restart is re-drawn and the others keep the values of an undisturbed run
        state = dk.construct_state(dk.StateFamilySpec(dk.Family.RANDOM_MIXED, d=3), seed=4)
        clean = dk.f2(state, restarts=5, seed=2)
        step, poison = dk.distillability._rayleigh_step, []

        def failing_step(rho4, other, t, side):
            if not poison:
                poison.append(other.reshape(-1, *other.shape[-2:])[3].copy())
            if any(np.array_equal(o, poison[0]) for o in other.reshape(-1, *other.shape[-2:])):
                raise np.linalg.LinAlgError("poisoned filter")
            return step(rho4, other, t, side)

        monkeypatch.setattr(dk.distillability, "_rayleigh_step", failing_step)
        rep = dk.f2(state, restarts=5, seed=2)
        assert rep.redraws == [0, 0, 0, 1, 0]
        assert [n for i, n in enumerate(rep.iterations) if i != 3] == \
            [n for i, n in enumerate(clean.iterations) if i != 3]
        self.check(rep, seesaw_reference(state, 2, 5, seed=2))

    def test_report_fields(self):
        rep = dk.f2(dk.werner_state(2, 0.8), restarts=4, seed=3)
        assert len(rep.iterations) == len(rep.redraws) == 4
        assert 0 <= rep.best_restart < 4 and all(n >= 1 for n in rep.iterations)
        payload = rep.to_dict()
        assert payload["iterations"] == rep.iterations and payload["best_restart"] == rep.best_restart


def filter_forms(state, other, t, side):
    """(overlap, weight + DENOM_REG I) Hermitian forms in the free filter, one
    matrix unit at a time: entry (i, j) is tr[(E_i (x) B) rho (E_j (x) B)^dag X]
    for side A (X = phi_t or I), mirrored for side B."""
    d = state.dimA if side == "A" else state.dimB
    rho, phi = state.data, dk.phi_projector(t)
    units = [np.eye(t * d)[i].reshape(t, d) for i in range(t * d)]
    ops = [np.kron(e, other) if side == "A" else np.kron(other, e) for e in units]
    num = np.array([[np.trace(a @ rho @ b.conj().T @ phi) for b in ops] for a in ops])
    den = np.array([[np.trace(a @ rho @ b.conj().T) for b in ops] for a in ops])
    return num, den + DENOM_REG * np.eye(t * d)


def haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestRayleighStepOracle:
    """The whitened half-step against scipy's generalized Hermitian eigensolver."""

    @staticmethod
    def check(state, other, t, side):
        d = state.dimA
        new, value = _rayleigh_step(state.data.reshape(d, d, d, d), other, t, side)
        num, den = filter_forms(state, other, t, side)
        assert abs(value - scipy.linalg.eigh(num, den, eigvals_only=True)[-1]) < 1e-12
        # the returned filter attains the value up to the DENOM_REG / weight shift
        overlap, weight = filter_ratio(state, FilterPair(new, other) if side == "A"
                                       else FilterPair(other, new))
        assert abs(overlap / weight - value) < 1e-9

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("d", [2, 3])
    def test_random_states(self, rng, d, t, side):
        for _ in range(3):
            state = random_state(rng, d, d)
            other = rng.standard_normal((t, d)) + 1j * rng.standard_normal((t, d))
            self.check(state, other / np.linalg.norm(other, 2), t, side)

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("d", [2, 3])
    def test_stack_matches_slice_by_slice(self, rng, d, t, side):
        state = random_state(rng, d, d)
        others = rng.standard_normal((5, t, d)) + 1j * rng.standard_normal((5, t, d))
        others /= np.linalg.norm(others, 2, axis=(1, 2), keepdims=True)
        new, values = _rayleigh_step(state.data.reshape(d, d, d, d), others, t, side)
        assert new.shape == (5, t, d) and values.shape == (5,)
        for other, filt, value in zip(others, new, values):
            num, den = filter_forms(state, other, t, side)
            assert abs(value - scipy.linalg.eigh(num, den, eigvals_only=True)[-1]) < 1e-12
            overlap, weight = filter_ratio(state, FilterPair(filt, other) if side == "A"
                                           else FilterPair(other, filt))
            assert abs(overlap / weight - value) < 1e-9

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("d", [2, 3])
    def test_near_singular_denominator(self, rng, d, t, side):
        # the free side's marginal is 1e-3 away from rank one, so the d x d block D
        # has condition ~1e3; the top eigenvalue's own sensitivity grows as 1/lambda_min(D)
        a = linalg.random_pure(rng, d)
        low = np.kron(np.outer(a, a.conj()), linalg.random_density(rng, d))
        if side == "B":
            low = linalg.permute_factors(low, (d, d), (1, 0))
        state = dk.BipartiteState(0.999 * low + 1e-3 * linalg.random_density(rng, d * d), d, d)
        other = rng.standard_normal((t, d)) + 1j * rng.standard_normal((t, d))
        other /= np.linalg.norm(other, 2)
        num, den = filter_forms(state, other, t, side)
        assert np.linalg.eigvalsh(den)[0] < 2e-3 * np.linalg.eigvalsh(den)[-1]
        self.check(state, other, t, side)


class TestRayleighStepCuts:
    """The half-step's index rearrangements where dA != dB, and on the global cut of
    a two-pair state, single and stacked, against scipy's generalized eigensolver."""

    @staticmethod
    def cut(rng, name):
        """(state, rho4, the global-cut matrix as a one-pair state for filter_forms)."""
        if name == "2x2 two pairs":
            state = random_state(rng, 2, 2, pairs=2)
            flat = dk.BipartiteState(to_global_cut(state).reshape(16, 16), 4, 4)
        else:
            state = flat = random_state(rng, *map(int, name.split("x")))
        return state, flat.data.reshape(flat.dimA, flat.dimB, flat.dimA, flat.dimB), flat

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("name", ["2x3", "3x2", "2x2 two pairs"])
    def test_single_and_stacked(self, rng, name, t, side):
        state, rho4, flat = self.cut(rng, name)
        d_other, d_free = (flat.dimB, flat.dimA) if side == "A" else (flat.dimA, flat.dimB)
        others = rng.standard_normal((4, t, d_other)) + 1j * rng.standard_normal((4, t, d_other))
        others /= np.linalg.norm(others, 2, axis=(1, 2), keepdims=True)
        stacked = _rayleigh_step(rho4, others, t, side)
        assert stacked[0].shape == (4, t, d_free) and stacked[1].shape == (4,)
        for other, filt, value in zip(others, *stacked):
            single = _rayleigh_step(rho4, other, t, side)
            assert single[0].shape == (t, d_free) and np.ndim(single[1]) == 0
            num, den = filter_forms(flat, other, t, side)
            top = scipy.linalg.eigh(num, den, eigvals_only=True)[-1]
            for new, val in (single, (filt, value)):
                assert abs(val - top) < 1e-12
                overlap, weight = filter_ratio(state, FilterPair(new, other) if side == "A"
                                               else FilterPair(other, new))
                assert abs(overlap / weight - val) < 1e-9


class TestTwoQubitRoutes:
    """Independent routes for 2x2 states, where Schmidt rank <= 2 always holds."""

    @staticmethod
    def draw(seed):
        rng = np.random.default_rng(seed)
        return rng, dk.BipartiteState(linalg.random_density(rng, 4, ancilla=(2, 4, 8)[seed % 3]), 2, 2)

    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS)
    def test_schmidt_search_is_exact_pt_minimum(self, seed):
        _, rho = self.draw(seed)
        lam = np.linalg.eigvalsh(dk.partial_transpose(rho))[0]
        assert abs(dk.single_copy_distillable(rho, budget=1, seed=seed).value - lam) < 1e-9

    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS)
    def test_f2_above_half_iff_npt(self, seed):
        # Horodecki, PRL 78, 574 (1997): a 2x2 state is distillable iff it is NPT
        _, rho = self.draw(seed)
        lam = np.linalg.eigvalsh(dk.partial_transpose(rho))[0]
        assume(abs(lam) > 1e-3)
        value = dk.f2(rho, restarts=4, seed=seed, tol=1e-12).value
        assert (value > 0.5 + 1e-9) == (lam < 0)
        assert value >= np.real(np.trace(rho.data @ PHI2)) - 1e-12

    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS)
    @example(seed=117916)
    def test_f2_local_unitary_invariance(self, seed):
        # the two runs agree once every restart has converged.  At 500 sweeps seed
        # 117916 stopped three of four restarts early, 3.5e-9 apart.  5000 sweeps
        # converge on all of seeds 0-3999 but the near-PPT draws 674, 1475, 2552
        # and 3937, whose slowest restarts need up to ~25,000; a draw with a
        # restart at the cap says nothing about invariance and is discarded
        rng, rho = self.draw(seed)
        u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
        turned = dk.BipartiteState(u @ rho.data @ u.conj().T, 2, 2)
        reps = [dk.f2(s, restarts=4, iters=5000, seed=seed, tol=1e-12) for s in (rho, turned)]
        assume(all(max(rep.iterations) < 5000 for rep in reps))
        assert abs(reps[0].value - reps[1].value) < 1e-9


    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS)
    @example(seed=1475)
    @example(seed=2552)
    def test_f2_never_exceeds_the_lorentz_closed_form(self, seed):
        # the see-saw value is attained by filters, so it is a lower bound on f2
        _, rho = self.draw(seed)
        assert dk.f2(rho, restarts=4, seed=seed, tol=1e-12).value <= lorentz_f2(rho) + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS)
    def test_f2_reaches_the_lorentz_closed_form(self, seed):
        _, rho = self.draw(seed)
        assume(abs(np.linalg.eigvalsh(dk.partial_transpose(rho))[0]) > 1e-3)
        assert abs(dk.f2(rho, restarts=4, seed=seed, tol=1e-12).value - lorentz_f2(rho)) < 1e-9

    def test_budget_flag_marks_a_restart_stopped_at_the_cap(self):
        # draw 1475 is near-PPT (least PT eigenvalue -1.7e-5): three restarts are
        # still rising at 500 sweeps and need up to ~25,000 to converge
        _, rho = self.draw(1475)
        rep = dk.f2(rho, restarts=4, seed=1475, tol=1e-12)
        assert rep.iterations == [500, 2, 500, 500]
        assert rep.budget_exhausted and rep.to_dict()["budget_exhausted"] is True
        assert 0.5 < rep.value <= lorentz_f2(rho) + 1e-12

    def test_budget_flag_clear_when_the_last_sweep_converges(self):
        # draw 7 converges in [9, 2, 10, 10] sweeps: a restart that stops on the
        # tol test at the cap is not flagged; one sweep less leaves two still rising
        _, rho = self.draw(7)
        for iters, flagged in ((500, False), (10, False), (9, True)):
            rep = dk.f2(rho, restarts=4, iters=iters, seed=7, tol=1e-12)
            assert rep.iterations == [min(n, iters) for n in (9, 2, 10, 10)]
            assert rep.budget_exhausted is flagged


class TestFD:
    def test_phi_d_any_lambda(self):
        rep = dk.fD(phi_state(3), 3, restarts=6, seed=2)
        assert abs(rep.value - 1.0) < 1e-9

    def test_product_state_hits_separable_ceiling(self):
        prod = dk.construct_state(dk.StateFamilySpec(dk.Family.PRODUCT_PURE, 3), seed=9)
        rep = dk.fD(prod, 3, restarts=8, seed=2)
        assert abs(rep.value - 1.0 / 3.0) < 1e-6

    def test_phi2_against_dimension_four_target(self):
        # Schmidt rank 2 < 4 bounds the overlap by 2/4; see-saw plateaus there
        rep = dk.fD(phi_state(2), 4, restarts=8, seed=2)
        assert abs(rep.value - 0.5) < 1e-6

    def test_lambda_validation(self):
        with pytest.raises(ParameterError):
            dk.fD(phi_state(2), 1)


def random_ppt(d, seed):
    return dk.construct_state(dk.StateFamilySpec(dk.Family.RANDOM_PPT, d=d), seed=seed)


class TestPptProofRoute:
    """f2 / fD return the rank-1 floor row when rho^Gamma >= 0 is proved, checked
    against routes that share no code with the proof."""

    def test_two_qubit_value_is_the_lorentz_closed_form(self):
        for seed in range(12):
            state = random_ppt(2, seed)
            rep = dk.f2(state, seed=seed)
            assert rep.route == "ppt_proof"
            assert abs(rep.value - lorentz_f2(state)) < 1e-9

    def test_qutrit_fd_is_one_third(self):
        for seed in range(6):
            rep = dk.fD(random_ppt(3, seed), 3, seed=seed)
            assert rep.route == "ppt_proof" and abs(rep.value - 1 / 3) < 1e-15

    def test_certificate_re_evaluates_and_the_report_names_one_row(self):
        cases = [(random_ppt(d, s), t) for d in (2, 3) for s in range(4) for t in (2, 3, 4)]
        cases += [(dk.werner_state(3, 0.2), 2), (dk.isotropic_state(2, 0.25), 2)]
        for state, t in cases:
            rep = dk.fD(state, t, restarts=2, seed=5)
            assert rep.route == "ppt_proof" and abs(rep.value - 1 / t) < 1e-15
            overlap, weight = filter_ratio(state, rep.certificate)
            assert abs(overlap / weight - rep.value) < 1e-15
            assert (rep.restarts, rep.iterations, rep.redraws, rep.best_restart) == (1, [0], [0], 0)
            assert not rep.budget_exhausted and rep.seed == 5
            payload = rep.to_dict()
            assert payload["route"] == "ppt_proof" and payload["iterations"] == [0]

    def test_one_restart_runs_the_search(self):
        # the floor is the search's second row: with one restart it is not run
        rep = dk.f2(random_ppt(2, 0), restarts=1, seed=0)
        assert rep.route == "search" and rep.iterations[0] >= 1

    @staticmethod
    def unproved():
        yield "npt_by_5e-10", dk.werner_state(2, 0.5000000005)
        yield "werner_half", dk.werner_state(2, 0.5)  # PPT with a singular rho^Gamma
        yield "tiles", tiles_state()[1]  # PPT entangled, singular rho^Gamma

    def test_never_fires_without_a_proof(self):
        for name, state in self.unproved():
            assert not linalg.psd_proved(dk.partial_transpose(state)), name
            rep = dk.f2(state, seed=1)
            assert rep.route == "search" and rep.restarts == len(rep.iterations) == 32, name
            if name == "tiles":  # PPT: no filter pair beats 1/2
                assert rep.value <= 0.5 + 1e-6

    def test_tiles_closed_form_is_ppt_and_entangled(self):
        exact, state = tiles_state()
        pt = [[exact[3 * (i // 3) + j % 3][3 * (j // 3) + i % 3] for j in range(9)] for i in range(9)]
        assert sum(exact[i][i] for i in range(9)) == 1 and exact_psd(exact) and exact_psd(pt)
        # realignment R[(a, a'), (b, b')] = rho[(a, b), (a', b')]: a norm above 1
        # proves entanglement (Chen-Wu; Rudolph)
        realigned = state.data.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(9, 9)
        assert np.linalg.svd(realigned, compute_uv=False).sum() > 1.08

    @pytest.mark.parametrize("opts", [{"restarts": 0}, {"iters": 0}, {"tol": -1e-9},
                                      {"tol": np.nan}, {"tol": np.inf}])
    def test_invalid_options_rejected_on_a_ppt_state(self, opts):
        state = dk.werner_state(2, 0.3)
        with pytest.raises(ParameterError):
            dk.f2(state, **opts)
        with pytest.raises(ParameterError):
            dk.fD(state, 3, **opts)


class TestNonFiniteStates:
    """numpy's Cholesky does not raise on a NaN pivot, but no NaN reaches the see-saw's:
    load_state rejects non-finite entries, and a NaN state built in code has NaN success
    weights, which never exceed DENOM_REG, so no restart is admitted."""

    def test_state_file_with_nan_is_rejected(self):
        payload = state_to_dict(dk.werner_state(2, 0.3))
        payload["matrix"][0] = [float("nan"), 0.0]
        with pytest.raises(ParameterError):
            state_from_dict(payload)

    @pytest.mark.parametrize("restarts", [1, 2, 32])
    @pytest.mark.parametrize("d", [2, 3])
    def test_nan_state_raises_and_never_returns_nan(self, d, restarts):
        data = np.full((d * d, d * d), np.nan, dtype=complex)
        data[0, 1] = 0.5
        state = dk.BipartiteState(data, d, d)
        # one restart is the see-saw alone, which admits none; with two or more, the
        # rank-1 floor's eigensolve comes first and may itself fail to converge
        raised = OptimizationError if restarts == 1 else (OptimizationError, np.linalg.LinAlgError)
        with pytest.raises(raised):
            dk.f2(state, restarts=restarts, seed=1)
        with pytest.raises(raised):
            dk.fD(state, 3, restarts=restarts, seed=1)


class TestPsdProved:
    """Soundness of ``linalg.psd_proved`` against exact rational arithmetic."""

    @staticmethod
    def draw(rng, n, delta, real, top=1.0):
        """A random Hermitian matrix with eigenvalues uniform in [0, top] but one set
        to -delta, and the real embedding of its computed least eigenvector."""
        g = rng.standard_normal((n, n)) + (0 if real else 1j * rng.standard_normal((n, n)))
        q = np.linalg.qr(g)[0]
        w = rng.uniform(0.0, top, n)
        w[0] = -delta
        h = linalg.hermitize((q * w) @ q.conj().T)
        x = np.linalg.eigh(h)[1][:, 0]
        return h, np.concatenate([x.real, x.imag])

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("delta", [1e-15, 1e-12, 1e-9])
    def test_false_on_a_negative_eigenvalue(self, rng, delta, real):
        for n in (4, 7, 12, 18):
            h, y = self.draw(rng, n, delta, real)
            # rounding moves the least eigenvalue by about 1e-16: a diagonal shift puts
            # the exact Rayleigh quotient at y back at -delta
            r = exact_quadratic_form(exact_real_embedding(h), y) / sum(Fraction(v) ** 2 for v in y)
            h = h - (float(r) + delta) * np.eye(n)
            assert exact_quadratic_form(exact_real_embedding(h), y) < 0
            assert not linalg.psd_proved(h)

    def test_false_where_an_unshifted_cholesky_succeeds(self, rng):
        # [[a, b], [b, c]] with c the float just below b^2/a is not PSD (a c < b^2
        # exactly), yet a floating factorization often ends on a positive pivot: each
        # draw on which numpy's unshifted Cholesky succeeds stays unproved
        found = 0
        for _ in range(400):
            a, b = rng.uniform(0.5, 2.0, 2)
            c = np.nextafter(float(Fraction(b) ** 2 / Fraction(a)), 0.0)
            assert Fraction(a) * Fraction(c) < Fraction(b) ** 2
            h = np.array([[a, b], [b, c]])
            with contextlib.suppress(np.linalg.LinAlgError):
                np.linalg.cholesky(np.kron(np.eye(2), h))  # the real embedding of h
                found += 1
                assert not linalg.psd_proved(h)
        assert found >= 5, found

    def test_false_on_non_finite_entries(self):
        # numpy's Cholesky runs through a NaN pivot without raising
        assert not linalg.psd_proved(np.full((3, 3), np.nan))
        h = np.eye(4, dtype=complex)
        h[1, 2] = h[2, 1] = np.nan
        assert not linalg.psd_proved(h)

    def test_every_proved_certify_state_is_psd_exactly(self):
        states = [random_ppt(d, s) for d in (2, 3) for s in range(8)]
        states += [dk.werner_state(d, p) for d in (2, 3) for p in (0.2, 0.4)]
        states += [dk.isotropic_state(2, p) for p in (0.1, 0.25)]
        states += [dk.isotropic_state(3, p) for p in (0.1, 0.2)]
        for state in states:
            assert linalg.psd_proved(dk.partial_transpose(state))
            pt = global_cut_pt_reference(state.data, state.dimA, state.dimB, 1)
            assert exact_psd(exact_real_embedding(pt))


class TestSingleCopy:
    def test_phi2_certificate(self):
        rep = dk.single_copy_distillable(phi_state(), budget=4, seed=0)
        assert abs(rep.value + 0.5) < 1e-9
        assert not rep.budget_exhausted
        assert abs(evaluate_schmidt_certificate(phi_state(), rep.certificate) - rep.value) < 1e-9

    def test_budget_below_one_rejected(self):
        with pytest.raises(ParameterError, match="budget"):
            dk.single_copy_distillable(phi_state(), budget=0)
        with pytest.raises(ParameterError, match="budget"):
            dk.n_copy_distillable(phi_state(), 2, budget=0)

    def test_diagnostics_name_the_attempts_run(self):
        ppt = [dk.construct_state(dk.StateFamilySpec(dk.Family.RANDOM_PPT, d), seed=s)
               for d, s in ((2, 3), (3, 0))]
        cases = [(ppt[0], 5, 0), (dk.werner_state(3, 0.55), 4, 1), (dk.werner_state(2, 0.7), 4, 2),
                 (dk.construct_state(dk.StateFamilySpec(dk.Family.RANDOM_MIXED, 3), seed=2), 6, 3),
                 (ppt[1], 5, 0)]  # the last attempt wins here
        for state, budget, seed in cases:
            rep = dk.single_copy_distillable(state, budget=budget, seed=seed)
            assert rep.redraws is None
            assert len(rep.iterations) == rep.restarts
            assert all(1 <= n <= dk.distillability.SCHMIDT_ITERS for n in rep.iterations)
            assert rep.restarts == (budget if rep.budget_exhausted else rep.best_restart + 1)
            # the attempts share one generator, so the winning attempt's prefix of the
            # budget reproduces the value and the sweeps bit for bit
            k = rep.best_restart + 1
            prefix = dk.single_copy_distillable(state, budget=k, seed=seed)
            assert prefix.value == rep.value and np.array_equal(prefix.certificate, rep.certificate)
            assert prefix.iterations == rep.iterations[:k]
            if k > 1:
                assert dk.single_copy_distillable(state, budget=k - 1, seed=seed).value > rep.value

    def test_ppt_state_never_violates(self):
        for seed in range(3):
            s = dk.construct_state(dk.StateFamilySpec(dk.Family.RANDOM_PPT, 2), seed=seed)
            rep = dk.single_copy_distillable(s, budget=4, seed=1)
            assert rep.value >= -1e-9
            assert rep.budget_exhausted

    def test_werner_sign_agrees_with_f2(self):
        w = dk.werner_state(2, 0.6)
        rep = dk.single_copy_distillable(w, budget=4, seed=0)
        assert rep.value < -1e-9
        assert dk.f2(w, restarts=8, seed=0).value > 0.5 + 1e-6

    @pytest.mark.parametrize("p", [0.7, 0.8])
    def test_qutrit_werner_closed_form(self, p):
        # oracle: min over Schmidt-rank-2 vectors of <psi|PT|psi> for Werner
        # states is a + 2b with a, b the PT spectrum coefficients
        w3 = dk.werner_state(3, p)
        a = p / 6 + (1 - p) / 12
        b = -p / 6 + (1 - p) / 12
        rep = dk.single_copy_distillable(w3, budget=6, seed=0)
        assert abs(rep.value - (a + 2 * b)) < 1e-9

    def test_sign_agreement_on_random_states(self, rng):
        mismatches = 0
        for i in range(50):
            rho = dk.BipartiteState(linalg.random_density(rng, 4), 2, 2)
            viol = dk.single_copy_distillable(rho, budget=4, seed=i).value < -1e-9
            boost = dk.f2(rho, restarts=12, seed=i).value > 0.5 + 1e-6
            mismatches += viol != boost
        assert mismatches == 0


class TestGlobalCutPartialTranspose:
    @pytest.mark.parametrize("pairs", [1, 2])
    def test_matches_transpose_then_reorder(self, rng, pairs):
        # reference route: every B factor transposed and the factors reordered to
        # (A1..Ak, B1..Bk), entry by entry
        s = random_state(rng, 2, 3, pairs=pairs)
        ref = global_cut_pt_reference(s.data, 2, 3, pairs)
        n = s.dim
        assert np.array_equal(dk.partial_transpose(s), ref)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert abs(evaluate_schmidt_certificate(s, v) - np.real(v.conj() @ ref @ v)) < 1e-12


class TestNCopy:
    def test_phi2_two_copies(self):
        rep = dk.n_copy_distillable(phi_state(), 2, budget=4, seed=0)
        assert rep.value < -1e-9

    def test_report_carries_search_diagnostics(self):
        rep = dk.n_copy_distillable(dk.werner_state(2, 0.6), 2, budget=3, seed=1)
        assert rep.restarts == len(rep.iterations) and 0 <= rep.best_restart < rep.restarts
        payload = rep.to_dict()
        assert payload["iterations"] == rep.iterations and payload["redraws"] is None

    def test_ppt_tensor_stability(self):
        s = dk.construct_state(dk.StateFamilySpec(dk.Family.RANDOM_PPT, 2), seed=8)
        for n in (1, 2, 3):
            rep = dk.n_copy_distillable(s, n, budget=3, seed=1)
            assert rep.value >= -1e-9

    def test_slightly_npt_qutrit_werner_recorded(self):
        # p = 0.55 is NPT yet below the single-copy threshold p > 0.6
        w3 = dk.werner_state(3, 0.55)
        assert not dk.is_ppt(w3)[0]
        values = []
        for seed in (0, 1):
            reps = [dk.n_copy_distillable(w3, n, budget=4, seed=seed) for n in (1, 2)]
            assert all(r.value >= -1e-9 for r in reps)
            values.append(tuple(r.value for r in reps))
        assert all(abs(a - b) < 1e-6 for a, b in zip(values[0], values[1]))

    def test_capacity_guard(self):
        with pytest.raises(dk.CapacityError):
            dk.n_copy_distillable(phi_state(), 7, budget=1, seed=0)


class TestIsPpt:
    def test_product_state(self, rng):
        a, b = linalg.random_density(rng, 2), linalg.random_density(rng, 2)
        flag, lo = dk.is_ppt(dk.BipartiteState(np.kron(a, b), 2, 2))
        assert flag and lo >= -1e-12

    def test_phi2(self):
        flag, lo = dk.is_ppt(phi_state())
        assert not flag and abs(lo + 0.5) < 1e-12

    def test_werner_boundary(self):
        flag, lo = dk.is_ppt(dk.werner_state(2, 0.5))
        assert abs(lo) < 1e-9


class TestSymmetricDualPositive:
    def test_positive_operator(self, rng):
        q = linalg.random_density(rng, 16) * 4
        flag, lo = dk.symmetric_dual_positive(q, 2, 2, 2)
        assert flag and lo >= -1e-12

    def test_antisymmetric_part_annihilated(self, rng):
        x = linalg.random_hermitian(rng, 16)
        swap = permutation_operator(Permutation(2, (2, 1)), 4)
        q = x - swap @ x @ swap.T
        flag, lo = dk.symmetric_dual_positive(q, 2, 2, 2)
        assert flag
        assert abs(lo) < 1e-12

    def test_negative_symmetrization_with_witness(self, rng):
        # oracle: the negative eigenvector's symmetrized projector pairs negatively
        for _ in range(5):
            q = linalg.random_hermitian(rng, 16)
            flag, lo = dk.symmetric_dual_positive(q, 2, 2, 2)
            if flag:
                continue
            omega = dk.negative_symmetric_witness(q, 2, 2, 2)
            assert dk.validate_state(omega.data, 2, 2, 2).ok
            assert np.trace(q @ omega.data).real < -1e-12
            break
        else:
            pytest.fail("no negative example sampled")

    @pytest.mark.parametrize("pairs", [2, 3])
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_positive_verdict_pairs_nonnegatively_with_symmetric_states(self, pairs, seed):
        # Q = R + 5 (X - P X P^T) is far from PSD, but S(Q) = S(R) is PSD; the
        # symmetric states come from the explicit group average, not the library twirl
        rng = np.random.default_rng(seed)
        n = 4 ** pairs
        x = linalg.random_hermitian(rng, n)
        p = permutation_operator(Permutation(pairs, (2, 1) + tuple(range(3, pairs + 1))), 4)
        q = linalg.random_density(rng, n) * n + 5.0 * (x - p @ x @ p.T)
        assert np.linalg.eigvalsh(q)[0] < 0
        flag, lo = dk.symmetric_dual_positive(q, 2, 2, pairs)
        assert flag
        for _ in range(20):
            omega = explicit_twirl(linalg.random_density(rng, n), 4, pairs)
            assert np.real(np.trace(q @ omega)) >= -1e-9

    def test_invariant_under_presymmetrization(self, rng):
        q = linalg.random_hermitian(rng, 16)
        flag1, _ = dk.symmetric_dual_positive(q, 2, 2, 2)
        flag2, _ = dk.symmetric_dual_positive(symmetrize_matrix(q, 4, 2), 2, 2, 2)
        assert flag1 == flag2


class TestDualBlocksAgainstDense:
    """The block route of the dual-cone test against dense eigensolves of the
    group average: ``explicit_twirl`` builds every permutation matrix and shares
    no code with the library; at 5 pairs numpy's dense solve of the library's
    average stands in for it."""

    @staticmethod
    def check(q, dimA, dimB, pairs, reference):
        ref = np.linalg.eigvalsh(reference)[0]
        flag, lo = dk.symmetric_dual_positive(q, dimA, dimB, pairs)
        assert abs(lo - ref) < 1e-12
        assert flag == (ref >= -1e-9)

    @pytest.mark.parametrize("dimA,dimB,pairs", [(1, 1, 3), (2, 1, 4), (2, 2, 1), (2, 2, 2),
                                                 (2, 2, 3), (2, 2, 4), (3, 1, 3), (2, 3, 2)])
    def test_value_and_verdict_match_the_explicit_twirl(self, rng, dimA, dimB, pairs):
        m = dimA * dimB
        q = linalg.random_hermitian(rng, m ** pairs)
        twirl = explicit_twirl(q, m, pairs)
        lo = np.linalg.eigvalsh(twirl)[0]
        for shift in (0.0, 0.5 - lo):  # both verdicts
            eye = np.eye(m ** pairs)
            self.check(q + shift * eye, dimA, dimB, pairs, twirl + shift * eye)

    def test_five_pairs_match_the_dense_solve(self, rng):
        q = linalg.random_hermitian(rng, 4 ** 5)
        sq = symmetrize_matrix(q, 4, 5)
        lo = np.linalg.eigvalsh(sq)[0]
        for shift in (0.0, 0.5 - lo):
            self.check(q + shift * np.eye(4 ** 5), 2, 2, 5, sq + shift * np.eye(4 ** 5))

    @pytest.mark.parametrize("pairs", [3, 4])
    def test_witness_pairs_to_the_least_eigenvalue(self, rng, pairs):
        q = linalg.random_hermitian(rng, 4 ** pairs)
        lo = np.linalg.eigvalsh(explicit_twirl(q, 4, pairs))[0]
        omega = dk.negative_symmetric_witness(q, 2, 2, pairs)
        assert abs(np.trace(q @ omega.data).real - lo) < 1e-12


DUAL_UTILITIES = [dk.symmetric_dual_positive, dk.negative_symmetric_witness]


class TestDualInputs:
    """Both dual-cone utilities share one input check, which raises ParameterError."""

    @pytest.mark.parametrize("fn", DUAL_UTILITIES)
    def test_shape_mismatch_rejected(self, fn):
        with pytest.raises(ParameterError, match="shape"):
            fn(-np.eye(20), 2, 2, 2)

    @pytest.mark.parametrize("fn", DUAL_UTILITIES)
    def test_non_hermitian_rejected(self, rng, fn):
        q = linalg.random_hermitian(rng, 16) - np.eye(16)
        q[0, 1] += 1e-6
        with pytest.raises(ParameterError, match="Hermitian"):
            fn(q, 2, 2, 2)

    @pytest.mark.parametrize("fn", DUAL_UTILITIES)
    def test_non_hermitian_rejected_before_it_is_averaged(self, rng, fn, monkeypatch):
        # the check reads Q itself: the pair average is never formed
        def no_average(*args):
            raise AssertionError("symmetrize_matrix ran on a non-Hermitian Q")

        monkeypatch.setattr(dk.symmetry, "symmetrize_matrix", no_average)
        q = linalg.random_hermitian(rng, 64)
        q[2, 5] += 1e-6
        with pytest.raises(ParameterError, match="Hermitian"):
            fn(q, 2, 2, 3)

    @pytest.mark.parametrize("fn", DUAL_UTILITIES)
    def test_zero_pairs_rejected(self, fn):
        with pytest.raises(ParameterError, match="positive integers"):
            fn(-np.eye(1), 2, 2, 0)

    @pytest.mark.parametrize("fn", DUAL_UTILITIES)
    def test_negative_pairs_rejected(self, fn):
        with pytest.raises(ParameterError, match="positive integers"):
            fn(-np.eye(16), 2, 2, -1)

    @pytest.mark.parametrize("fn", DUAL_UTILITIES)
    @pytest.mark.parametrize("dims", [(-2, -2, 1), (0, 4, 1), (2.0, 2, 1), (True, 4, 1)])
    def test_dimensions_must_be_positive_integers(self, fn, dims):
        # (-2) (-2) = 4 matches the shape of a 4x4 Q, and used to pass
        with pytest.raises(ParameterError, match="positive integers"):
            fn(-np.eye(4), *dims)


class TestWitnessPairing:
    """tr[X rho] for the singlet witness X = I/2 - phi_2, computed inline."""

    def test_identity(self, rng):
        s = random_state(rng, 2, 2)
        assert abs(np.trace(np.eye(4) @ s.data).real - 1.0) < 1e-12

    def test_singlet_witness_on_phi2(self):
        x = np.eye(4) / 2 - PHI2
        assert abs(np.trace(x @ phi_state().data).real + 0.5) < 1e-12

    def test_nonnegative_on_sampled_separable_states(self, rng):
        # oracle: minimum over a sampled separable ensemble stays >= 0
        x = np.eye(4) / 2 - PHI2
        vals = []
        for _ in range(200):
            a = linalg.random_pure(rng, 2)
            b = linalg.random_pure(rng, 2)
            v = np.kron(a, b)
            vals.append(np.trace(x @ dk.BipartiteState(np.outer(v, v.conj()), 2, 2).data).real)
        assert min(vals) >= -1e-12


class TestCertificateConversion:
    def test_filters_reproduce_negativity(self, rng):
        w = dk.werner_state(2, 0.75)
        rep = dk.single_copy_distillable(w, budget=4, seed=0)
        fp = schmidt_rank2_filters(rep.certificate, 2, 2)
        overlap, weight = filter_ratio(w, fp)
        assert abs((0.5 * weight - overlap) - rep.value) < 1e-9

    def test_normalized_fixes_norm_and_phase(self, rng):
        for shape_a, shape_b in [((2, 2), (2, 2)), ((2, 3), (2, 4)), ((3, 3), (3, 2))]:
            A = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
            B = rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b)
            ref = FilterPair(A, B).normalized()
            for alpha, beta in rng.uniform(-np.pi, np.pi, (5, 2)):
                out = FilterPair(np.exp(1j * alpha) * 3.0 * A, -np.exp(1j * beta) * B).normalized()
                assert np.abs(out.A - ref.A).max() < 1e-15
                assert np.abs(out.B - ref.B).max() < 1e-15
            for filt in (ref.A, ref.B):
                assert abs(np.linalg.norm(filt, 2) - 1.0) < 1e-12
                flat = filt.reshape(-1)
                lead = flat[np.flatnonzero(np.abs(flat) >= np.abs(flat).max() / 2)[0]]
                assert abs(lead.imag) < 1e-15 and lead.real > 0

    def test_normalized_keeps_a_gauged_pair_bitwise(self):
        fp = FilterPair(np.eye(2, 3), np.diag([0.5, 1.0]))
        out = fp.normalized()
        assert np.array_equal(out.A, fp.A) and np.array_equal(out.B, fp.B)

    def test_filter_pair_encoding_matches_per_entry_format(self, rng):
        fp = FilterPair(signed_zero_matrix(rng, 2, 3), signed_zero_matrix(rng, 2, 4))
        rep = WitnessReport(0.7, fp, seed=3, restarts=4)
        cert = {"type": "filter_pair",
                "A": {"shape": [2, 3], "entries": per_entry_pairs(fp.A)},
                "B": {"shape": [2, 4], "entries": per_entry_pairs(fp.B)}}
        reference = {"value": 0.7, "certificate": cert, "budget_exhausted": False,
                     "seed": 3, "restarts": 4, "iterations": None, "redraws": None,
                     "best_restart": None, "route": "search"}
        assert json.dumps(rep.to_dict()) == json.dumps(reference)

    def test_vector_encoding_matches_per_entry_format(self, rng):
        vector = signed_zero_matrix(rng, 1, 6).reshape(-1)
        rep = WitnessReport(-0.1, vector, budget_exhausted=True, seed=None, restarts=2)
        cert = {"type": "schmidt_rank2_vector", "vector": per_entry_pairs(vector)}
        reference = {"value": -0.1, "certificate": cert, "budget_exhausted": True,
                     "seed": None, "restarts": 2, "iterations": None, "redraws": None,
                     "best_restart": None, "route": "search"}
        assert json.dumps(rep.to_dict()) == json.dumps(reference)

    def test_report_serialization(self):
        rep = dk.single_copy_distillable(phi_state(), budget=2, seed=0)
        payload = rep.to_dict()
        assert payload["certificate"]["type"] == "schmidt_rank2_vector"
        assert payload["value"] < -0.4
        rep2 = dk.f2(phi_state(), restarts=2, seed=0)
        payload2 = rep2.to_dict()
        assert payload2["certificate"]["type"] == "filter_pair"
