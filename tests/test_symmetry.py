"""Permutation operators, symmetrization channels, de Finetti arithmetic,
mixtures of product powers, and the product-mixture distance bound."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

import distilkit as dk
from distilkit import linalg
from distilkit.errors import CapacityError, ParameterError
from distilkit.symmetry import _orbit_table, _weight_step, _young_bases, symmetrize_matrix

from conftest import (Permutation, all_permutations, explicit_twirl, permutation_operator,
                      random_state, sweep_double_twirl, sweep_twirl)

SEEDS = st.integers(0, 2 ** 32 - 1)


def random_matrix(rng, n, kind):
    """Twirl inputs: PSD, Hermitian with negative eigenvalues, non-Hermitian, real."""
    if kind == "real":
        return rng.standard_normal((n, n))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "psd":
        return g @ g.conj().T / n
    if kind == "hermitian":
        h = linalg.hermitize(g)
        assert np.linalg.eigvalsh(h)[0] < 0
        return h
    return g


def explicit_double_twirl(mat, dimA, dimB, k):
    """Average over all k!^2 pairs (A permutation, B permutation), one factor
    reordering each."""
    dims = (dimA, dimB) * k
    acc = np.zeros(mat.shape, dtype=complex)
    for pa in itertools.permutations(range(k)):
        for pb in itertools.permutations(range(k)):
            fine = tuple(x for j in range(k) for x in (2 * pa[j], 2 * pb[j] + 1))
            acc += linalg.permute_factors(mat, dims, fine)
    return acc / math.factorial(k) ** 2


def perm(k, *mapping):
    return Permutation(k, tuple(mapping))


class TestPermutationOperator:
    def test_identity(self):
        p = permutation_operator(perm(2, 1, 2), 4)
        assert np.array_equal(p, np.eye(16))

    def test_swap_exchanges_factors(self, rng):
        a, b = random_state(rng, 2, 2), random_state(rng, 2, 2)
        p = permutation_operator(perm(2, 2, 1), 4)
        lhs = p @ np.kron(a.data, b.data) @ p.T
        assert np.max(np.abs(lhs - np.kron(b.data, a.data))) < 1e-12

    def test_three_cycle_structure(self):
        # oracle: construct the operator by mapping basis kets one at a time
        cyc = perm(3, 2, 3, 1)  # 1 -> 2 -> 3 -> 1
        p = permutation_operator(cyc, 4)
        assert np.array_equal(np.sort(p, axis=1)[:, :-1], np.zeros((64, 63)))
        assert np.all(p.sum(axis=0) == 1) and np.all(p.sum(axis=1) == 1)
        ref = np.zeros((64, 64))
        for i1, i2, i3 in itertools.product(range(4), repeat=3):
            src = (i1 * 4 + i2) * 4 + i3
            # slot j of the image holds the ket from slot cyc^{-1}(j)
            dst = (i3 * 4 + i1) * 4 + i2
            ref[dst, src] = 1.0
        assert np.array_equal(p, ref)

    def test_homomorphism(self, rng):
        k = 3
        perms = list(all_permutations(k))
        for _ in range(5):
            pa, pb = perms[rng.integers(len(perms))], perms[rng.integers(len(perms))]
            lhs = permutation_operator(pa, 2) @ permutation_operator(pb, 2)
            rhs = permutation_operator(pa.compose(pb), 2)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_bad_mapping_rejected(self):
        with pytest.raises(ParameterError):
            perm(2, 1, 1)


class TestSymmetrize:
    def test_power_is_fixed_point(self, rng):
        rho = random_state(rng, 2, 2)
        power = dk.tensor(rho, rho)
        out = dk.symmetrize(power)
        assert np.max(np.abs(out.data - power.data)) < 1e-12

    def test_two_pair_definition(self, rng):
        a, b = random_state(rng, 2, 2), random_state(rng, 2, 2)
        out = dk.symmetrize(dk.tensor(a, b))
        expect = (np.kron(a.data, b.data) + np.kron(b.data, a.data)) / 2
        assert np.max(np.abs(out.data - expect)) < 1e-14

    def test_idempotent_matches_group_average(self, rng):
        # oracle: explicit S_3 average using dense permutation operators
        omega = random_state(rng, 2, 2, pairs=3)
        out = dk.symmetrize(omega)
        twice = dk.symmetrize(out)
        assert np.max(np.abs(out.data - twice.data)) < 1e-12
        assert np.max(np.abs(out.data - explicit_twirl(omega.data, 4, 3))) < 1e-12

    def test_channel_properties(self, rng):
        omega = random_state(rng, 2, 2, pairs=3)
        out = dk.symmetrize(omega)
        assert abs(np.trace(out.data).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out.data)[0] >= -1e-9
        for p in all_permutations(3):
            u = permutation_operator(p, 4)
            conj = dk.BipartiteState(u @ out.data @ u.T, 2, 2, 3)
            assert dk.trace_distance(out, conj) <= 1e-12


class TestOnePair:
    """One pair is one slot: every group average is the identity on it."""

    def test_group_averages_return_their_input(self, rng):
        rho = random_state(rng, 2, 3)
        for out in (dk.symmetrize(rho), dk.double_symmetrize(rho)):
            assert (out.dimA, out.dimB, out.pairs) == (2, 3, 1)
            assert out.data.tobytes() == rho.data.tobytes()
        mat = random_matrix(rng, 6, "general")
        assert symmetrize_matrix(mat, 6, 1).tobytes() == mat.astype(complex).tobytes()


class TestSymmetrizeMatrixInputs:
    @pytest.mark.parametrize("pair_dim,k", [(4, 0), (4, -1), (0, 2), (-4, 2)])
    def test_nonpositive_pair_dim_or_k_rejected(self, pair_dim, k):
        with pytest.raises(ParameterError, match="k >= 1"):
            symmetrize_matrix(np.eye(16), pair_dim, k)

    @pytest.mark.parametrize("shape", [(16, 16), (64, 16), (64,), (8, 8, 1)])
    def test_shape_must_be_the_k_pair_square(self, shape):
        with pytest.raises(ParameterError, match="does not match"):
            symmetrize_matrix(np.zeros(shape), 4, 3)

    @pytest.mark.parametrize("k", [2, 100, 10 ** 20])
    def test_slots_of_dimension_one_return_their_input(self, k):
        # the group acts trivially; no orbit table of k slots is built
        assert symmetrize_matrix(np.array([[-2.0]]), 1, k).tolist() == [[-2.0 + 0j]]


class TestTwirlOracles:
    @pytest.mark.parametrize("pair_dim,k", [(4, 2), (4, 3), (4, 4), (9, 2), (9, 3)])
    @pytest.mark.parametrize("kind", ["psd", "hermitian", "general", "real"])
    @settings(max_examples=3, deadline=None)
    @given(seed=SEEDS)
    def test_symmetrize_matrix_matches_explicit_average(self, pair_dim, k, kind, seed):
        mat = random_matrix(np.random.default_rng(seed), pair_dim ** k, kind)
        out = symmetrize_matrix(mat, pair_dim, k)
        assert np.max(np.abs(out - explicit_twirl(mat, pair_dim, k))) < 1e-12

    @pytest.mark.parametrize("dimA,dimB,k", [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 3)])
    @settings(max_examples=5, deadline=None)
    @given(seed=SEEDS)
    def test_double_symmetrize_matches_explicit_enumeration(self, dimA, dimB, k, seed):
        omega = random_state(np.random.default_rng(seed), dimA, dimB, pairs=k)
        out = dk.double_symmetrize(omega)
        assert np.max(np.abs(out.data - explicit_double_twirl(omega.data, dimA, dimB, k))) < 1e-12

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_symmetrized_mixture_of_powers(self, rng, k):
        members = tuple(random_state(rng, 2, 2) for _ in range(3))
        mix = dk.mixture_of_powers(dk.Ensemble((0.2, 0.3, 0.5), members), k)
        out = dk.symmetrize(mix)
        assert np.max(np.abs(out.data - explicit_twirl(mix.data, 4, k))) < 1e-12
        assert np.max(np.abs(out.data - mix.data)) < 1e-12

    @pytest.mark.parametrize("k", [2, 3])
    def test_negative_symmetric_witness(self, rng, k):
        q = linalg.random_hermitian(rng, 4 ** k)
        w, v = np.linalg.eigh(explicit_twirl(q, 4, k))
        assert w[0] < 0
        expect = explicit_twirl(np.outer(v[:, 0], v[:, 0].conj()), 4, k)
        out = dk.negative_symmetric_witness(q, 2, 2, k)
        assert np.max(np.abs(out.data - expect)) < 1e-12


def swap_factors(mat, dims, i, j):
    """Conjugation of ``mat`` by the swap of tensor factors i and j."""
    order = list(range(len(dims)))
    order[i], order[j] = j, i
    return linalg.permute_factors(mat, dims, tuple(order))


class TestOrbitSums:
    """The orbit-mean averages against the Jucys-Murphy transposition sweeps, a
    route that sums the group by k(k-1)/2 axis swaps and shares no code with them."""

    @pytest.mark.parametrize("pair_dim,k", [(4, 5), (6, 3)])
    @pytest.mark.parametrize("kind", ["general", "hermitian", "real"])
    def test_symmetrize_matrix_matches_the_sweeps(self, rng, pair_dim, k, kind):
        mat = random_matrix(rng, pair_dim ** k, kind)
        out = symmetrize_matrix(mat, pair_dim, k)
        assert out.dtype == complex and out.shape == mat.shape
        assert np.max(np.abs(out - sweep_twirl(mat, pair_dim, k))) < 1e-12
        for j in range(k - 1):  # adjacent transpositions generate S_k
            assert np.array_equal(swap_factors(out, (pair_dim,) * k, j, j + 1), out)

    @pytest.mark.parametrize("dimA,dimB,k", [(2, 2, 4), (2, 3, 3)])
    def test_double_symmetrize_matches_the_sweeps(self, rng, dimA, dimB, k):
        omega = random_state(rng, dimA, dimB, pairs=k)
        out = dk.double_symmetrize(omega).data
        assert np.max(np.abs(out - sweep_double_twirl(omega.data, dimA, dimB, k))) < 1e-12
        dims = (dimA, dimB) * k
        for j in range(k - 1):
            for side in (0, 1):  # A-only, then B-only
                assert np.array_equal(swap_factors(out, dims, 2 * j + side, 2 * j + 2 + side), out)

    @pytest.mark.parametrize("dims,k", [((4,), 3), ((3,), 4), ((2, 3), 3)])
    def test_labels_are_dense_orbits(self, dims, k):
        # one label per multiset of digit pairs per factor, each orbit of size
        # k! / prod(multiplicities!) per factor
        labels, sizes = _orbit_table(dims, k)
        assert sizes.size == math.prod(math.comb(d * d + k - 1, k) for d in dims)
        assert labels.min() == 0 and sizes.min() >= 1 and sizes.sum() == labels.size
        assert sizes.max() == math.factorial(k) ** len(dims)
        assert _orbit_table(dims, k)[0] is labels and not labels.flags.writeable


def shapes_of(k, rows):
    """Partitions of k with at most ``rows`` parts, in reverse lexicographic order."""
    found = {tuple(sorted(c, reverse=True)) for n in range(1, min(k, rows) + 1)
             for c in itertools.product(range(1, k + 1), repeat=n) if sum(c) == k}
    return sorted(found, reverse=True)


def hooks(shape):
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    return [(r - j - 1) + (cols[j] - i - 1) + 1 for i, r in enumerate(shape) for j in range(r)]


def hook_content_dim(shape, m):
    """d_lambda(m) = prod over cells (m + j - i) / hook(i, j)."""
    num = math.prod(m + j - i for i, r in enumerate(shape) for j in range(r))
    return num // math.prod(hooks(shape))


def hook_length_count(shape):
    """f_lambda = k! / prod of hooks, the dimension of the S_k irrep."""
    return math.factorial(sum(shape)) // math.prod(hooks(shape))


def young_blocks(m, k):
    """The cached bases split into one (m^k, d_lambda) block per partition."""
    basis, widths = _young_bases(m, k)
    return np.split(basis, np.cumsum(widths)[:-1], axis=1)


class TestYoungBases:
    """The Young-symmetrizer bases against the hook formulas and the GL(m) action."""

    CASES = [(1, 3), (2, 4), (3, 3), (4, 2), (4, 3), (4, 4), (4, 5), (6, 2), (3, 5)]

    @pytest.mark.parametrize("m,k", CASES)
    def test_dimensions_follow_the_hook_formulas(self, m, k):
        shapes = shapes_of(k, m)
        dims = [hook_content_dim(s, m) for s in shapes]
        assert [b.shape for b in young_blocks(m, k)] == [(m ** k, d) for d in dims]
        assert sum(d * hook_length_count(s) for s, d in zip(shapes, dims)) == m ** k

    @pytest.mark.parametrize("k,sizes", [(2, (10, 6)), (3, (20, 20, 4)),
                                         (4, (35, 45, 20, 15, 1)), (5, (56, 84, 60, 36, 20, 4))])
    def test_block_sizes_of_2x2_pairs(self, k, sizes):
        assert _young_bases(4, k)[1] == sizes

    @pytest.mark.parametrize("m,k", CASES)
    def test_orthonormal_read_only_and_cached(self, m, k):
        basis, widths = _young_bases(m, k)
        assert basis.dtype == float and not basis.flags.writeable
        for b in young_blocks(m, k):
            assert not b.flags.writeable
            assert np.max(np.abs(b.T @ b - np.eye(b.shape[1]))) < 1e-13
        assert _young_bases(m, k)[0] is basis

    @pytest.mark.parametrize("m,k", [(2, 4), (3, 3), (4, 3)])
    def test_ranges_are_orthogonal_gl_modules(self, rng, m, k):
        # U^(x k) maps each range into itself; distinct shapes are orthogonal
        u = linalg.random_isometry_cols(rng, m, m)
        power = u
        for _ in range(k - 1):
            power = np.kron(power, u)
        blocks = young_blocks(m, k)
        for i, b in enumerate(blocks):
            moved = power @ b
            assert np.max(np.abs(moved - b @ (b.T @ moved))) < 1e-12
            for other in blocks[i + 1:]:
                assert np.max(np.abs(b.T @ other)) < 1e-13

    def test_build_forms_no_full_size_matrix(self):
        # the bases take 2 MiB; a dense 1024 x 1024 float symmetrizer alone would take 8
        tracemalloc.start()
        try:
            _young_bases.__wrapped__(4, 5)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20


class TestOwnership:
    """Library results own their fresh arrays; the public constructor copies."""

    def test_owned_results_are_read_only(self, rng):
        rho = random_state(rng, 2, 2, pairs=2)
        ens = dk.Ensemble((0.4, 0.6), (random_state(rng, 2, 2), random_state(rng, 2, 2)))
        for out in (dk.symmetrize(rho), dk.double_symmetrize(rho), ens.average(),
                    dk.mixture_of_powers(ens, 3)):
            assert out.data.dtype == complex and out.data.flags.c_contiguous
            assert not out.data.flags.writeable
            with pytest.raises(ValueError):
                out.data[0, 0] = 1.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tensor_power_owns_its_result(self, rng, n):
        # the np.kron chain bit for bit, read-only; n = 1 shares the input's read-only buffer
        rho = random_state(rng, 2, 3)
        out = dk.tensor_power(rho, n)
        ref = rho.data
        for _ in range(n - 1):
            ref = np.kron(ref, rho.data)
        assert (out.dimA, out.dimB, out.pairs) == (2, 3, n) and out.data.tobytes() == ref.tobytes()
        assert out.data.dtype == complex and out.data.flags.c_contiguous
        assert not out.data.flags.writeable
        assert (out.data is rho.data) == (n == 1)

    def test_public_constructor_copies(self, rng):
        mat = random_state(rng, 2, 2).data.copy()
        state = dk.BipartiteState(mat, 2, 2)
        assert not np.shares_memory(state.data, mat) and mat.flags.writeable
        owned = dk.symmetrize(random_state(rng, 2, 2, pairs=2))
        again = dk.BipartiteState(owned.data, 2, 2, 2)
        assert not np.shares_memory(again.data, owned.data)
        assert again.data.tobytes() == owned.data.tobytes()


class TestDoubleSymmetrize:
    def test_k1_identity(self, rng):
        s = random_state(rng, 2, 2)
        assert np.array_equal(dk.double_symmetrize(s).data, s.data)

    def test_product_power_of_product_state_unchanged(self, rng):
        a = linalg.random_density(rng, 2)
        b = linalg.random_density(rng, 2)
        rho = dk.BipartiteState(np.kron(a, b), 2, 2)
        power = dk.tensor(rho, rho)
        out = dk.double_symmetrize(power)
        assert np.max(np.abs(out.data - power.data)) < 1e-12

    def test_invariance_under_all_four_operators(self, rng):
        # oracle: explicit 4-term average over S_2 x S_2; the swap unitaries are
        # built by permuting the row factors of the identity
        omega = random_state(rng, 2, 2, pairs=2)
        out = dk.double_symmetrize(omega)
        swapA = np.eye(16).reshape(2, 2, 2, 2, 16).transpose(2, 1, 0, 3, 4).reshape(16, 16)
        swapB = np.eye(16).reshape(2, 2, 2, 2, 16).transpose(0, 3, 2, 1, 4).reshape(16, 16)
        terms = [omega.data,
                 swapA @ omega.data @ swapA.T,
                 swapB @ omega.data @ swapB.T,
                 swapA @ swapB @ omega.data @ swapB.T @ swapA.T]
        assert np.max(np.abs(out.data - sum(terms) / 4)) < 1e-12
        for u in (swapA, swapB, swapA @ swapB):
            assert np.max(np.abs(u @ out.data @ u.T - out.data)) < 1e-12

    def test_refines_symmetrize(self, rng):
        omega = random_state(rng, 2, 2, pairs=2)
        out = dk.double_symmetrize(omega)
        assert dk.trace_distance(dk.symmetrize(out), out) < 1e-12


class TestDeFinettiBound:
    def test_paper_values(self):
        assert dk.definetti_bound(2, 1, 100) == 0.64
        assert abs(dk.definetti_bound(3, 2, 10_000) - 0.0648) < 1e-15

    def test_vacuous_endpoint(self):
        assert dk.definetti_bound(2, 5, 5) == 4 * 2 ** 4 > 2

    def test_monotonicity_grid(self):
        for d in (2, 3):
            for n in (10, 100, 1000):
                vals = [dk.definetti_bound(d, k, n) for k in range(1, min(n, 8))]
                assert all(x < y for x, y in zip(vals, vals[1:]))
            for k in (1, 2):
                vals = [dk.definetti_bound(d, k, n) for n in (4, 8, 16, 32)]
                assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(ParameterError):
            dk.definetti_bound(2, 5, 4)

    @pytest.mark.parametrize("d,k,n", [(10 ** 400, 1, 2), (2, 1, 10 ** 400),
                                       (2, 10 ** 400, 10 ** 401), (10 ** 77, 10, 10)])
    def test_bound_beyond_a_float_rejected(self, d, k, n):
        # an integer no float can hold, or a bound that rounds to inf
        with pytest.raises(ParameterError, match="overflows a float"):
            dk.definetti_bound(d, k, n)


def two_member_orthogonal_ensemble(w0=0.5):
    a = dk.construct_state(dk.StateFamilySpec(dk.Family.PRODUCT_PURE, 2, {"i": 0, "j": 0}))
    b = dk.construct_state(dk.StateFamilySpec(dk.Family.PRODUCT_PURE, 2, {"i": 1, "j": 1}))
    return dk.Ensemble((w0, 1 - w0), (a, b))


def complex_orthogonal_ensemble(rng, w0=0.35):
    """Two complex 2x2 members on orthogonal supports (Hilbert-Schmidt orthogonal)."""
    q = linalg.random_isometry_cols(rng, 4, 4)
    members = []
    for cols in ((0, 1), (2, 3)):
        p = rng.uniform(0.2, 1.0, size=2)
        members.append(dk.BipartiteState((q[:, cols] * (p / p.sum())) @ q[:, cols].conj().T, 2, 2))
    return dk.Ensemble((w0, 1 - w0), tuple(members))


def mismatch(target, powers, w):
    diff = target - sum(x * p for x, p in zip(w, powers))
    return float(np.real(np.vdot(diff, diff)))


def slsqp_weights(target, powers, w0):
    """Reference least-squares fit over the simplex by SLSQP."""
    n = len(powers)
    cons = ({"type": "eq", "fun": lambda w: w.sum() - 1.0, "jac": lambda w: np.ones(n)},)
    res = optimize.minimize(lambda w: mismatch(target, powers, w), w0, bounds=[(0.0, 1.0)] * n,
                            constraints=cons, method="SLSQP",
                            options={"maxiter": 300, "ftol": 1e-16})
    w = np.clip(res.x, 0.0, None)
    return w / w.sum()


class TestWeightStep:
    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS, n=st.integers(1, 8), near_mixture=st.booleans())
    def test_simplex_fit_matches_slsqp(self, seed, n, near_mixture):
        rng = np.random.default_rng(seed)
        members = [linalg.random_density(rng, 4) for _ in range(n)]
        powers = [np.kron(m, m) for m in members]
        target = linalg.random_density(rng, 16)
        if near_mixture:
            mix = sum(x * p for x, p in zip(rng.dirichlet(np.ones(n)), powers))
            target = (mix + 0.01 * target) / 1.01
        w0 = np.full(n, 1.0 / n)
        w = _weight_step(target, powers, w0)
        assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12
        assert mismatch(target, powers, w) <= mismatch(target, powers, slsqp_weights(target, powers, w0)) + 1e-12

    def test_exact_mixture_recovered(self, rng):
        members = [linalg.random_density(rng, 4) for _ in range(4)]
        powers = [np.kron(m, m) for m in members]
        w_true = np.array([0.1, 0.0, 0.6, 0.3])
        w = _weight_step(sum(x * p for x, p in zip(w_true, powers)), powers, np.full(4, 0.25))
        assert np.max(np.abs(w - w_true)) < 1e-9


class TestMixtureOfPowers:
    def test_singleton(self, rng):
        rho = random_state(rng, 2, 2)
        ens = dk.Ensemble((1.0,), (rho,))
        out = dk.mixture_of_powers(ens, 3)
        assert np.max(np.abs(out.data - dk.tensor_power(rho, 3).data)) < 1e-12

    def test_orthogonal_pure_members(self):
        ens = two_member_orthogonal_ensemble()
        out = dk.mixture_of_powers(ens, 2)
        assert dk.trace_distance(dk.symmetrize(out), out) < 1e-12
        marg = dk.partial_trace(out, {2})
        assert np.max(np.abs(marg.data - ens.average().data)) < 1e-12

    def test_random_three_member_marginals(self, rng):
        members = tuple(random_state(rng, 2, 2) for _ in range(3))
        w = rng.random(3)
        ens = dk.Ensemble(tuple(w / w.sum()), members)
        out = dk.mixture_of_powers(ens, 2)
        # oracle: direct construction + both marginals
        expect = sum(ww * np.kron(m.data, m.data) for ww, m in zip(ens.weights, members))
        assert np.max(np.abs(out.data - expect)) < 1e-14
        avg = ens.average().data
        for keep in ({1}, {2}):
            assert np.max(np.abs(dk.partial_trace(out, keep).data - avg)) < 1e-12
        assert dk.validate_state(out.data, 2, 2, 2).ok

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_matches_explicit_kron_chains_at_every_k_within_the_cap(self, rng, dims):
        # oracle: rows of sum_i w_i rho_i^(x k), each row the np.kron chain of the
        # members' rows; all rows up to dimension 1296, 64 sampled rows at 4096
        m = dims[0] * dims[1]
        members = tuple(random_state(rng, *dims) for _ in range(3))
        ens = dk.Ensemble((0.2, 0.3, 0.5), members)
        k = 1
        while m ** k <= dk.DIM_CAP:
            out = dk.mixture_of_powers(ens, k)
            assert (out.dimA, out.dimB, out.pairs) == (*dims, k)
            rows = range(m ** k) if m ** k <= 1296 else rng.choice(m ** k, 64, replace=False)
            for r in rows:
                expect = 0
                for w, member in zip(ens.weights, members):
                    chain = np.ones(1)
                    for digit in np.unravel_index(r, (m,) * k):
                        chain = np.kron(chain, member.data[digit])
                    expect = expect + w * chain
                assert np.max(np.abs(out.data[r] - expect)) <= 1e-15
            k += 1
        assert k == {4: 7, 6: 5, 9: 4}[m]

    @pytest.mark.parametrize("n", [1, 12])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_member_axis_product_matches_summed_kron_powers(self, rng, n, k):
        # oracle: sum_i w_i rho_i^(x k) by np.kron chains of complex 2x3 members
        members = tuple(random_state(rng, 2, 3) for _ in range(n))
        ens = dk.Ensemble(tuple(rng.dirichlet(np.ones(n))), members)
        expect = 0
        for w, member in zip(ens.weights, members):
            power = member.data
            for _ in range(k - 1):
                power = np.kron(power, member.data)
            expect = expect + w * power
        out = dk.mixture_of_powers(ens, k)
        assert (out.dimA, out.dimB, out.pairs) == (2, 3, k)
        assert np.max(np.abs(out.data - expect)) <= 1e-15

    def test_every_one_pair_marginal_is_the_average(self, rng):
        members = tuple(random_state(rng, 2, 2) for _ in range(4))
        ens = dk.Ensemble((0.1, 0.2, 0.3, 0.4), members)
        out = dk.mixture_of_powers(ens, 5)
        avg = ens.average().data
        for j in range(1, 6):
            assert np.max(np.abs(dk.partial_trace(out, {j}).data - avg)) <= 1e-12

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_result_is_complex_c_ordered_and_read_only(self, rng, k):
        ens = dk.Ensemble((0.5, 0.5), (random_state(rng, 2, 2), random_state(rng, 2, 2)))
        data = dk.mixture_of_powers(ens, k).data
        assert data.dtype == complex and data.shape == (4 ** k, 4 ** k)
        assert data.flags.c_contiguous and not data.flags.writeable

    def test_no_transposed_copy_at_k5(self, rng):
        # the product lands in the k-pair layout: the traced peak is the output
        # plus the stacked (k-1)-fold powers, with 1 MB to spare
        n, k = 3, 5
        ens = dk.Ensemble((0.2, 0.3, 0.5), tuple(random_state(rng, 2, 2) for _ in range(n)))
        output = 16 * 4 ** (2 * k)
        rest = 16 * n * 4 ** (2 * (k - 1))
        tracemalloc.start()
        try:
            out = dk.mixture_of_powers(ens, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.data.nbytes == output
        assert peak <= output + rest + 2 ** 20

    def test_average_is_the_ordered_sum(self, rng):
        members = tuple(random_state(rng, 2, 3) for _ in range(4))
        w = rng.random(4)
        ens = dk.Ensemble(tuple(w / w.sum()), members)
        expect = 0
        for weight, member in zip(ens.weights, members):
            expect = expect + weight * member.data
        assert ens.average().data.tobytes() == expect.tobytes()  # bit for bit

    def test_cap_checked_before_allocation(self, rng):
        ens = dk.Ensemble((0.5, 0.5), (random_state(rng, 2, 2), random_state(rng, 2, 2)))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=r"4\*\*7 exceeds cap"):
                dk.mixture_of_powers(ens, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_weight_validation(self, rng):
        with pytest.raises(ParameterError):
            dk.Ensemble((0.5, 0.6), (random_state(rng, 2, 2), random_state(rng, 2, 2)))


class TestBestProductMixtureDistance:
    def test_exact_power(self, rng):
        rho = random_state(rng, 2, 2)
        val, ens = dk.best_product_mixture_distance(dk.tensor(rho, rho), restarts=1,
                                                    iters=5, seed=1, support=6)
        assert 0 <= val <= 1e-6

    def test_exact_mixture(self):
        ens_in = two_member_orthogonal_ensemble(w0=0.3)
        target = dk.mixture_of_powers(ens_in, 2)
        val, _ = dk.best_product_mixture_distance(target, restarts=2, iters=10, seed=2,
                                                  support=8)
        assert 0 <= val <= 1e-6

    @pytest.mark.parametrize("k", [3, 4])
    def test_exact_power_higher_k(self, rng, k):
        target = dk.tensor_power(random_state(rng, 2, 2), k)
        val, ens = dk.best_product_mixture_distance(target, restarts=1, iters=5, seed=1)
        assert 0 <= val <= 1e-9
        assert dk.trace_distance(dk.mixture_of_powers(ens, k), target) <= 1e-9

    @pytest.mark.parametrize("k", [2, 3])
    def test_complex_orthogonal_mixture(self, rng, k):
        target = dk.mixture_of_powers(complex_orthogonal_ensemble(rng), k)
        val, ens = dk.best_product_mixture_distance(target, restarts=1, iters=5, seed=3)
        assert 0 <= val <= 1e-9
        assert dk.trace_distance(dk.mixture_of_powers(ens, k), target) <= 1e-9

    def test_seed_reproducibility_on_symmetrized_input(self):
        singlet = dk.werner_state(2, 1.0)
        target = dk.symmetrize(dk.tensor(singlet, singlet))
        vals = []
        for seed in (11, 12):
            v, _ = dk.best_product_mixture_distance(target, restarts=2, iters=8,
                                                    seed=seed, support=8)
            vals.append(v)
        assert all(v >= 0 for v in vals)
        assert abs(vals[0] - vals[1]) <= 1e-3

    def test_rejects_non_symmetric(self, rng):
        a, b = random_state(rng, 2, 2), random_state(rng, 2, 2)
        with pytest.raises(ParameterError):
            dk.best_product_mixture_distance(dk.tensor(a, b), restarts=1, iters=1, seed=0)

    @pytest.mark.parametrize("restarts,iters,match", [(0, 4, "restarts"), (-1, 4, "restarts"),
                                                      (1, -1, "iters")])
    def test_empty_search_rejected(self, rng, restarts, iters, match):
        rho = random_state(rng, 2, 2)
        with pytest.raises(ParameterError, match=match):
            dk.best_product_mixture_distance(dk.tensor(rho, rho), restarts=restarts,
                                             iters=iters, seed=0)

    def test_zero_perturbation_rounds_keep_the_weight_step(self, rng):
        # iters counts perturbation rounds after the weight step; the marginal
        # guess alone resolves an exact power
        rho = random_state(rng, 2, 2)
        val, _ = dk.best_product_mixture_distance(dk.tensor(rho, rho), restarts=1, iters=0,
                                                  seed=1, support=6)
        assert 0 <= val <= 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_perturbation_rounds_lower_the_distance(self, seed):
        # symmetrized random two-pair states are no mixture of powers, so the rounds
        # after the weight step run; the reported distance is the ensemble's own
        target = dk.symmetrize(random_state(np.random.default_rng(seed), 2, 2, pairs=2))
        start, _ = dk.best_product_mixture_distance(target, restarts=1, iters=0, seed=1)
        val, ens = dk.best_product_mixture_distance(target, restarts=1, iters=5, seed=1)
        assert val < start - 1e-6
        assert abs(dk.trace_distance(target, dk.mixture_of_powers(ens, 2)) - val) < 1e-12


class TestEnsembleJson:
    def test_roundtrip(self, tmp_path, rng):
        members = tuple(random_state(rng, 2, 2) for _ in range(2))
        ens = dk.Ensemble((0.25, 0.75), members)
        path = tmp_path / "e.json"
        dk.save_ensemble(ens, path)
        back = dk.load_ensemble(path)
        assert back.weights == ens.weights
        for m, n in zip(back.members, ens.members):
            assert np.max(np.abs(m.data - n.data)) < 1e-15

    def test_member_by_reference(self, tmp_path, rng):
        s = random_state(rng, 2, 2)
        spath = tmp_path / "m.json"
        dk.save_state(s, spath)
        payload = {"weights": [1.0], "members": [str(spath)]}
        ens = dk.symmetry.ensemble_from_dict(payload)
        assert np.max(np.abs(ens.members[0].data - s.data)) < 1e-15

    @pytest.mark.parametrize("weights", [["1"], [True], [None], "1", 1.0])
    def test_weights_must_be_json_numbers(self, rng, weights):
        payload = {"weights": weights, "members": [dk.states.state_to_dict(random_state(rng, 2, 2))]}
        with pytest.raises(ParameterError, match="JSON numbers"):
            dk.symmetry.ensemble_from_dict(payload)

    @pytest.mark.parametrize("members", [5, "abc", {"a": 1}, None, [5], [None], [[1.0]], [True]])
    def test_members_must_be_states_or_paths(self, members):
        with pytest.raises(ParameterError, match="members must be a list"):
            dk.symmetry.ensemble_from_dict({"weights": [1.0], "members": members})

    def test_integer_weights_load(self, rng):
        payload = {"weights": [1, 0], "members": [dk.states.state_to_dict(random_state(rng, 2, 2))] * 2}
        assert dk.symmetry.ensemble_from_dict(payload).weights == (1.0, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weights_rejected(self, rng, bad):
        members = (random_state(rng, 2, 2),) * 2
        with pytest.raises(ParameterError):
            dk.Ensemble((bad, 1.0), members)

    def test_malformed_file_names_path(self, tmp_path):
        bad = tmp_path / "bad_ens.json"
        bad.write_text('{"weights": [1.0], "members": [')
        with pytest.raises(ParameterError, match="bad_ens.json"):
            dk.load_ensemble(bad)
        with pytest.raises(ParameterError, match="no_ens.json"):
            dk.load_ensemble(tmp_path / "no_ens.json")
