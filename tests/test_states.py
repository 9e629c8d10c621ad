"""State families, tensor algebra, partial trace/transpose, validation, JSON I/O."""

import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import distilkit as dk
from distilkit import linalg
from distilkit.errors import CapacityError, ParameterError, SamplingError
from distilkit.states import kron, kron_power

from conftest import (
    global_cut_pt_reference,
    partial_trace_reference,
    per_entry_pairs,
    random_state,
    signed_zero_matrix,
)


def spec(family, d=2, **params):
    return dk.StateFamilySpec(dk.Family(family), d=d, params=params)


class TestFamilies:
    def test_max_entangled_overlap(self):
        phi = dk.construct_state(spec("max_entangled", d=2))
        assert abs(np.trace(phi.data @ dk.phi_projector(2)).real - 1.0) < 1e-12

    def test_werner_p1_is_singlet_projector(self):
        w = dk.construct_state(spec("werner", d=2, p=1.0))
        psi = np.zeros(4, dtype=complex)
        psi[1], psi[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        assert np.max(np.abs(w.data - np.outer(psi, psi.conj()))) < 1e-12
        assert abs(np.trace(w.data @ w.data).real - 1.0) < 1e-12  # pure
        assert np.linalg.eigvalsh(global_cut_pt_reference(w.data, 2, 2, 1))[0] < -0.4  # entangled

    def test_werner_075_is_npt(self):
        # oracle: eigendecomposition of the explicitly-built 4x4 partial transpose
        w = dk.construct_state(spec("werner", d=2, p=0.75))
        lo = np.linalg.eigvalsh(global_cut_pt_reference(w.data, 2, 2, 1))[0]
        assert lo < -1e-6
        assert abs(lo - (1 - 2 * 0.75) / 2) < 1e-12

    def test_isotropic_endpoints(self):
        iso = dk.isotropic_state(3, 1.0)
        assert np.max(np.abs(iso.data - dk.phi_projector(3))) < 1e-12
        iso0 = dk.isotropic_state(3, 0.0)
        assert np.max(np.abs(iso0.data - np.eye(9) / 9)) < 1e-12

    def test_product_pure_default_is_00(self):
        s = dk.construct_state(spec("product_pure", d=2))
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert np.max(np.abs(s.data - expect)) < 1e-15

    def test_random_families_require_seed(self):
        with pytest.raises(ParameterError):
            dk.construct_state(spec("random_mixed", d=2))
        with pytest.raises(ParameterError):
            dk.construct_state(spec("random_ppt", d=2))

    def test_random_mixed_is_valid(self):
        s = dk.construct_state(spec("random_mixed", d=3), seed=5)
        assert dk.validate_state(s.data, 3, 3).ok

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_ppt_passes_is_ppt(self, d):
        for seed in range(3):
            s = dk.construct_state(spec("random_ppt", d=d), seed=seed)
            flag, lo = dk.is_ppt(s)
            assert flag and lo >= -1e-9

    def test_random_ppt_attempt_cap(self):
        with pytest.raises(SamplingError):
            dk.construct_state(spec("random_ppt", d=3, attempt_cap=1), seed=0)

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            dk.construct_state(spec("werner", d=2, p=1.5))
        with pytest.raises(ParameterError):
            dk.construct_state(spec("isotropic", d=2, p=-0.1))

    @pytest.mark.parametrize("family,params,unread", [
        ("max_entangled", {"p": 0.3}, "p"), ("product_pure", {"p": 0.3}, "p"),
        ("random_mixed", {"p": 0.3}, "p"), ("random_ppt", {"p": 0.3}, "p"),
        ("werner", {"p": 0.3, "dB": 3}, "dB"), ("max_entangled", {"dB": 3}, "dB"),
        ("random_ppt", {"dB": 3}, "dB"), ("werner", {"p": 0.3, "i": 1}, "i"),
        ("random_mixed", {"j": 1}, "j"), ("isotropic", {"p": 0.3, "attempt_cap": 5}, "attempt_cap"),
        ("product_pure", {"attempt_cap": 5}, "attempt_cap"), ("max_entangled", {"q": 1}, "q"),
        # seeded, product_pure draws random kets, so the basis indices are unread
        ("product_pure", {"i": 1}, "i"), ("product_pure", {"j": 1}, "j"),
    ])
    def test_unread_parameter_rejected(self, family, params, unread):
        with pytest.raises(ParameterError, match=f"family {family} does not take {unread}$"):
            dk.construct_state(spec(family, d=2, **params), seed=1)

    @pytest.mark.parametrize("family", ["werner", "isotropic"])
    def test_weight_is_required(self, family):
        with pytest.raises(ParameterError, match="requires the weight p"):
            dk.construct_state(spec(family, d=2))

    @pytest.mark.parametrize("family,params", [("werner", {"p": 0.5}), ("isotropic", {"p": 0.5}),
                                               ("max_entangled", {}), ("product_pure", {}),
                                               ("random_mixed", {}), ("random_ppt", {})])
    @pytest.mark.parametrize("d", [65, 1000])
    def test_dimension_cap_before_allocation(self, family, params, d):
        # d = 65 gives 4225 > 4096, a state that load_state would reject; at d = 1000
        # the family matrix alone would take terabytes
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="exceeds cap 4096"):
                dk.construct_state(spec(family, d=d, **params), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("family", ["product_pure", "random_mixed"])
    def test_dimension_cap_counts_the_b_side(self, family):
        assert dk.construct_state(spec(family, d=2, dB=3), seed=1).dim == 6
        with pytest.raises(CapacityError, match="4098"):
            dk.construct_state(spec(family, d=2, dB=2049), seed=1)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_swap_operator_flips_the_factors(self, d):
        f = np.zeros((d * d, d * d))
        for i in range(d):
            for j in range(d):
                f[j * d + i, i * d + j] = 1.0  # F |i j> = |j i>
        assert dk.swap_operator(d).tobytes() == f.tobytes()


class TestTensor:
    def test_trace_one(self, rng):
        rho = random_state(rng, 2, 2)
        out = dk.tensor(rho, rho)
        assert out.dim == 16 and out.pairs == 2
        assert abs(np.trace(out.data).real - 1.0) < 1e-12

    def test_product_of_ground_states(self):
        s = dk.construct_state(spec("product_pure", d=2))
        out = dk.tensor(s, s)
        expect = np.zeros((16, 16))
        expect[0, 0] = 1.0
        assert np.max(np.abs(out.data - expect)) < 1e-15

    def test_spectrum_product_law(self):
        # oracle: eigenvalues of a tensor product are all pairwise products
        w = dk.werner_state(2, 0.5)
        out = dk.tensor(w, w)
        single = np.linalg.eigvalsh(w.data)
        expect = np.sort(np.outer(single, single).reshape(-1))
        got = np.sort(np.linalg.eigvalsh(out.data))
        assert np.max(np.abs(expect - got)) < 1e-12

    def test_capacity_error(self):
        w = dk.werner_state(2, 0.5)
        with pytest.raises(CapacityError):
            dk.tensor_power(w, 7)  # 4^7 > 4096

    @pytest.mark.parametrize("n", [14, 100, 10 ** 20])
    def test_huge_exponent_rejected_without_the_power(self, n):
        # d**n is never computed: at n = 10**20 it would not fit in memory
        with pytest.raises(CapacityError, match=rf"4\*\*{n} exceeds cap 4096"):
            kron_power(np.eye(4), n)
        with pytest.raises(CapacityError, match=rf"4\*\*{n} exceeds cap"):
            dk.tensor_power(dk.werner_state(2, 0.5), n)

    @pytest.mark.parametrize("shapes", [((3, 3), (2, 2)), ((2, 3), (4, 1)), ((1, 4), (3, 2))])
    def test_kron_is_np_kron_bit_for_bit(self, rng, shapes):
        a, b = (rng.standard_normal(sh) + 1j * rng.standard_normal(sh) for sh in shapes)
        got, ref = kron(a, b), np.kron(a, b)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_kron_broadcasts_over_leading_axes(self, rng):
        a = rng.standard_normal((3, 1, 2, 3)) + 1j * rng.standard_normal((3, 1, 2, 3))
        b = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
        out = kron(a, b)
        assert out.shape == (3, 4, 6, 6)
        for i, j in itertools.product(range(3), range(4)):
            assert out[i, j].tobytes() == np.kron(a[i, 0], b[j]).tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_kron_power_of_a_stack_is_the_kron_chain_of_each_slice(self, rng, d):
        stack = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
        for n in range(1, 6):
            out = kron_power(stack, n)
            assert out.shape == (3, d ** n, d ** n)
            for mat, got in zip(stack, out):
                chain = mat
                for _ in range(n - 1):
                    chain = np.kron(chain, mat)
                assert got.tobytes() == chain.tobytes()  # bit for bit


class TestPartialTrace:
    def test_iid_marginal(self, rng):
        rho = random_state(rng, 2, 2)
        out = dk.partial_trace(dk.tensor(rho, rho), {1})
        assert np.max(np.abs(out.data - rho.data)) < 1e-12

    def test_identity_case(self):
        phi = dk.construct_state(spec("max_entangled", d=2))
        out = dk.partial_trace(phi, {1})
        assert np.max(np.abs(out.data - phi.data)) < 1e-15

    def test_symmetric_state_marginals_match_reference(self, rng):
        two = dk.symmetrize(dk.tensor(random_state(rng, 2, 2), random_state(rng, 2, 2)))
        m1 = dk.partial_trace(two, {1}).data
        m2 = dk.partial_trace(two, {2}).data
        ref1 = partial_trace_reference(two.data, 4, 0)
        ref2 = partial_trace_reference(two.data, 4, 1)
        assert np.max(np.abs(m1 - ref1)) < 1e-12
        assert np.max(np.abs(m2 - ref2)) < 1e-12
        assert np.max(np.abs(m1 - m2)) < 1e-12

    @pytest.mark.parametrize("dims,pairs", [((2, 2), 1), ((2, 2), 2), ((2, 3), 2),
                                            ((2, 2), 3), ((2, 3), 3), ((2, 2), 4)])
    def test_every_keep_set_matches_sequential_traces(self, rng, dims, pairs):
        # oracle: one np.trace per traced pair, last pair first
        m = dims[0] * dims[1]
        state = random_state(rng, *dims, pairs)
        for r in range(1, pairs + 1):
            for keep in itertools.combinations(range(1, pairs + 1), r):
                full = state.data.reshape((m,) * (2 * pairs))
                for p in sorted(set(range(1, pairs + 1)) - set(keep), reverse=True):
                    full = np.trace(full, axis1=p - 1, axis2=p - 1 + full.ndim // 2)
                side = m ** len(keep)
                got = dk.partial_trace(state, set(keep))
                assert got.pairs == len(keep)
                assert np.max(np.abs(got.data - full.reshape(side, side))) <= 1e-15

    def test_trace_one_and_errors(self, rng):
        three = dk.tensor_power(random_state(rng, 2, 2), 3)
        for keep in ({1}, {2}, {3}, {1, 3}):
            out = dk.partial_trace(three, keep)
            assert abs(np.trace(out.data).real - 1.0) < 1e-12
        with pytest.raises(ParameterError):
            dk.partial_trace(three, set())
        with pytest.raises(ParameterError):
            dk.partial_trace(three, {4})


class TestPartialTranspose:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_phi_d_gives_swap_over_d(self, d):
        phi = dk.construct_state(spec("max_entangled", d=d))
        pt = dk.partial_transpose(phi)
        assert np.max(np.abs(pt - dk.swap_operator(d) / d)) < 1e-12

    def test_product_state_stays_positive(self, rng):
        a = linalg.random_density(rng, 2)
        b = linalg.random_density(rng, 3)
        s = dk.BipartiteState(np.kron(a, b), 2, 3)
        assert np.linalg.eigvalsh(dk.partial_transpose(s))[0] > -1e-12

    def test_werner_sign_change_at_half(self):
        # oracle: PT spectrum in closed form; a = bulk eigenvalue (multiplicity
        # d^2 - 1), a + b d on the maximally entangled direction, a + b d = (1-2p)/d
        for d in (2, 3):
            for p in np.linspace(0, 1, 11):
                w = dk.werner_state(d, float(p))
                lo = np.linalg.eigvalsh(dk.partial_transpose(w))[0]
                a = p / (d * d - d) + (1 - p) / (d * d + d)
                expect = min(a, (1 - 2 * p) / d)
                assert abs(lo - expect) < 1e-12
                assert (lo < -1e-12) == (p > 0.5)

    def test_involution_is_exact(self, rng):
        s = random_state(rng, 2, 3, pairs=1)
        pt = dk.partial_transpose(s)
        back = dk.partial_transpose(dk.BipartiteState(pt, 2, 3))
        assert np.array_equal(back, s.data)

    def test_matches_reference_on_multi_pair(self, rng):
        # reference: rho^Gamma on the global cut (A1 A2 | B1 B2), entry by entry
        s = random_state(rng, 2, 2, pairs=2)
        assert np.array_equal(dk.partial_transpose(s), global_cut_pt_reference(s.data, 2, 2, 2))


class TestTraceDistance:
    def test_zero_for_equal(self, rng):
        s = random_state(rng, 2, 2)
        assert dk.trace_distance(s, s) == 0

    def test_orthogonal_pure_states(self):
        a = dk.construct_state(spec("product_pure", d=2, i=0, j=0))
        b = dk.construct_state(spec("product_pure", d=2, i=1, j=1))
        assert abs(dk.trace_distance(a, b) - 1.0) < 1e-12

    def test_werner_closed_form(self):
        # difference is (p1-p2)(anti - sym): trace distance equals |p1 - p2|
        a, b = dk.werner_state(2, 0.3), dk.werner_state(2, 0.7)
        assert abs(dk.trace_distance(a, b) - 0.4) < 1e-12

    def test_triangle_inequality(self, rng):
        for _ in range(10):
            x, y, z = (random_state(rng, 2, 2) for _ in range(3))
            assert dk.trace_distance(x, z) <= dk.trace_distance(x, y) + dk.trace_distance(y, z) + 1e-9

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ParameterError):
            dk.trace_distance(random_state(rng, 2, 2), random_state(rng, 3, 3))


class TestValidation:
    def test_accepts_werner(self):
        w = dk.werner_state(2, 0.4)
        report = dk.validate_state(w.data, 2, 2)
        assert report.ok and report.state is not None

    def test_flags_negativity(self):
        bad = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        report = dk.validate_state(bad, 2, 2)
        assert not report.ok
        assert any(v.invariant == "positivity" for v in report.violations)

    def test_tolerance_boundary(self):
        w = dk.werner_state(2, 0.4)
        report = dk.validate_state(w.data * (1 + 5e-10), 2, 2)
        assert report.ok

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
           kind=st.sampled_from(["generic", "rank1_skew", "hermitian"]),
           scale=st.sampled_from([1e-9, 1.0, 1e6]))
    def test_herm_residual_bounds_operator_norm(self, seed, n, kind, scale):
        # the tolerance test on herm_residual must reject whatever the
        # operator norm of the anti-Hermitian part rejects
        rng = np.random.default_rng(seed)
        m = linalg.random_hermitian(rng, n)
        if kind == "generic":
            m = m + rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        elif kind == "rank1_skew":
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            m = m + 1j * np.outer(v, v.conj())
        m = scale * m
        spectral = np.linalg.norm((m - m.conj().T) / 2, 2)
        assert linalg.herm_residual(m) >= spectral * (1 - 1e-14)

    def test_herm_residual_non_finite_is_rejected(self):
        m = np.eye(4) / 4
        m[0, 1] = np.nan
        assert linalg.herm_residual(m) == np.inf

    def test_flags_hermiticity(self, rng):
        w = dk.werner_state(2, 0.4).data.copy()
        w[0, 1] += 1e-3
        report = dk.validate_state(w, 2, 2)
        assert not report.ok
        assert any(v.invariant == "hermiticity" for v in report.violations)


class TestJson:
    @pytest.mark.parametrize("dimA,dimB,pairs", [(2, 2, 1), (2, 3, 1), (3, 3, 1), (2, 2, 2)])
    def test_encoding_matches_per_entry_format(self, rng, dimA, dimB, pairs):
        n = (dimA * dimB) ** pairs
        s = dk.BipartiteState(signed_zero_matrix(rng, n), dimA, dimB, pairs)
        reference = {"dimA": dimA, "dimB": dimB, "pairs": pairs,
                     "matrix": per_entry_pairs(s.data)}
        assert json.dumps(dk.states.state_to_dict(s)) == json.dumps(reference)

    def test_save_state_writes_compact_json(self, tmp_path, rng):
        s = random_state(rng, 2, 3)
        path = tmp_path / "s.json"
        dk.save_state(s, path)
        assert path.read_text() == json.dumps(dk.states.state_to_dict(s))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_write_json_rejects_non_finite_numbers_before_opening(self, tmp_path, bad):
        path = tmp_path / "r.json"
        with pytest.raises(ParameterError, match="r.json"):
            dk.states.write_json(path, {"value": 1.0, "nested": [[0.5, bad]]})
        assert not path.exists()
        path.write_text("kept")
        with pytest.raises(ParameterError):
            dk.states.write_json(path, {"value": bad})
        assert path.read_text() == "kept"

    def test_decode_inverts_encode_bitwise(self, rng):
        m = signed_zero_matrix(rng, 5)
        back = dk.states.decode_complex(dk.states.encode_complex(m), 25)
        assert np.array_equal(back.view(float), m.reshape(-1).view(float))
        assert np.signbit(back[0].real) and np.signbit(back[1].imag)

    def test_decode_accepts_integers(self):
        back = dk.states.decode_complex([[1, 0], [0.5, -2]], 2)
        assert np.array_equal(back, np.array([1, 0.5 - 2j]))

    @pytest.mark.parametrize("entries", [
        [["0.25", 0.0]] * 4,  # string
        [[True, 0.0]] + [[0.25, 0.0]] * 3,  # boolean
        [[1, False]] + [[0.25, 0.0]] * 3,  # boolean among integers
        [[None, 0.0]] * 4,  # null
        [[0.25, 0.0]] * 3 + [[0.25]],  # ragged row
        [[0.25, 0.0, 0.0]] * 4,  # three-wide rows
        [[0.25, 0.0]] * 3,  # too few entries
        [[0.25, 0.0]] * 5,  # too many entries
        [0.25] * 8,  # flat list
        [[float("nan"), 0.0]] * 4,  # not finite
        "[[0.25, 0.0]]",  # not a list
    ])
    def test_decoder_rejects_malformed_entries(self, entries):
        with pytest.raises(ParameterError):
            dk.states.decode_complex(entries, 4)
        payload = {"dimA": 2, "dimB": 1, "pairs": 1, "matrix": entries}
        with pytest.raises(ParameterError):
            dk.states.state_from_dict(payload)

    @pytest.mark.parametrize("field", ["dimA", "dimB", "pairs"])
    @pytest.mark.parametrize("value", [2.9, 2.0, "2", True, None])
    def test_dimensions_must_be_json_integers(self, field, value):
        payload = dk.states.state_to_dict(dk.werner_state(2, 0.3))
        payload[field] = value
        with pytest.raises(ParameterError, match="JSON integers"):
            dk.states.state_from_dict(payload)

    @pytest.mark.parametrize("field,value,message", [
        ("pairs", -1, "must be positive"), ("dimA", 0, "must be positive"),
        ("pairs", 13, "at most 12"), ("pairs", 3000, "at most 12"),
        ("pairs", 10 ** 4000, "at most 12"), ("dimB", 10 ** 4000, "exceeds the dimension cap"),
        ("dimA", 2049, "exceeds the dimension cap"),
    ])
    def test_dimensions_checked_before_decoding(self, field, value, message):
        # the matrix is a single entry: the bound must fail before the entries are counted
        payload = {"dimA": 2, "dimB": 2, "pairs": 1, "matrix": [[1.0, 0.0]], field: value}
        with pytest.raises(ParameterError, match=message):
            dk.states.state_from_dict(payload)

    def test_pairs_bounded_even_when_one_dimensional(self):
        # the dimension stays 1, but 10**30 pairs made the CLI fail with OverflowError
        payload = {"dimA": 1, "dimB": 1, "pairs": 12, "matrix": [[1.0, 0.0]]}
        assert dk.states.state_from_dict(payload).dim == 1
        with pytest.raises(ParameterError, match="at most 12"):
            dk.states.state_from_dict(dict(payload, pairs=10 ** 30))

    @pytest.mark.parametrize("entry", [[1e308, 0.0], [0.0, -1e308], [1.0, 1.0]])
    def test_entries_above_unit_modulus_rejected(self, entry):
        payload = dk.states.state_to_dict(dk.werner_state(2, 0.3))
        payload["matrix"][5] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="modulus at most 1"):
                dk.states.state_from_dict(payload)

    def test_invariants_checked_after_the_modulus_bound(self):
        payload = dk.states.state_to_dict(dk.werner_state(2, 0.5))
        payload["matrix"][0] = [0.9, 0.0]  # within modulus 1, breaks the trace
        with pytest.raises(ParameterError, match="violates invariants"):
            dk.states.state_from_dict(payload)

    def test_pure_product_state_loads(self):
        # a diagonal entry of 1 is the largest modulus a state can have
        payload = {"dimA": 2, "dimB": 2, "pairs": 1, "matrix": [[1.0, 0.0]] + [[0.0, 0.0]] * 15}
        assert dk.states.state_from_dict(payload).data[0, 0] == 1.0

    def test_malformed_file_names_path(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bad')
        with pytest.raises(ParameterError, match="bad.json"):
            dk.load_state(bad)
        with pytest.raises(ParameterError, match="missing.json"):
            dk.load_state(tmp_path / "missing.json")

    def test_roundtrip(self, tmp_path, rng):
        s = random_state(rng, 2, 3)
        path = tmp_path / "s.json"
        dk.save_state(s, path)
        back = dk.load_state(path)
        assert back.dimA == 2 and back.dimB == 3 and back.pairs == 1
        assert np.max(np.abs(back.data - s.data)) < 1e-15

    def test_loader_verifies_invariants(self, tmp_path):
        payload = dk.states.state_to_dict(dk.werner_state(2, 0.5))
        payload["matrix"][0] = [5.0, 0.0]  # breaks trace and positivity
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParameterError):
            dk.load_state(path)
