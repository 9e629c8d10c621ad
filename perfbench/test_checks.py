"""Tests of the benchmark itself: every output check passes on the program's
real output and rejects a deliberately corrupted one; the tracer's self
times add up; BENCHMARK.json names what the benchmark prints.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import cliwork  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from distilkit import cli, distillability, states, symmetry  # noqa: E402
from distilkit.states import BipartiteState  # noqa: E402


def rejects(errs, fragment):
    assert any(fragment in e for e in errs), errs


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def certify_outputs(state, ncopy=False, fd=False, seed=3):
    f2 = distillability.f2(state, restarts=8, seed=seed)
    sc = distillability.single_copy_distillable(state, budget=5, seed=seed)
    out = {"ppt": distillability.is_ppt(state),
           "f2": (f2.value, f2.certificate.A, f2.certificate.B),
           "sc": (sc.value, sc.certificate)}
    if ncopy:
        n2 = distillability.n_copy_distillable(state, 2, budget=5, seed=seed)
        out["n2"] = (n2.value, n2.certificate)
    if fd:
        rep = distillability.fD(state, 3, restarts=8, seed=seed)
        out["fD"] = (rep.value, rep.certificate.A, rep.certificate.B)
    return out


@pytest.fixture(scope="module")
def werner_npt():
    state = states.werner_state(2, 0.8)
    return state, certify_outputs(state, ncopy=True)


@pytest.fixture(scope="module")
def werner_ppt():
    state = states.werner_state(2, 0.3)
    return state, certify_outputs(state, ncopy=True)


def run_certify(state, out, closed=None):
    return checks.check_certify(state.data, state.dimA, state.dimB, out, closed)


def test_certify_accepts_program_output(werner_npt, werner_ppt):
    assert run_certify(*werner_npt, closed=0.8) == []
    assert run_certify(*werner_ppt, closed=0.5) == []
    state = states.construct_state(states.StateFamilySpec(states.Family.RANDOM_PPT, d=3), seed=1)
    assert run_certify(state, certify_outputs(state, fd=True)) == []


def test_certify_rejects_wrong_ppt_flag_and_eigenvalue(werner_npt):
    state, out = werner_npt
    flag, lo = out["ppt"]
    rejects(run_certify(state, {**out, "ppt": (not flag, lo)}), "is_ppt flag")
    rejects(run_certify(state, {**out, "ppt": (flag, lo + 1e-10)}), "is_ppt eigenvalue")


def test_certify_rejects_wrong_f2(werner_npt):
    state, out = werner_npt
    value, a, b = out["f2"]
    rejects(run_certify(state, {**out, "f2": (value + 1e-6, a, b)}, 0.8), "f2 filter value")
    rejects(run_certify(state, {**out, "f2": (value, a, b)}, 0.81), "f2 closed form")
    swapped = np.eye(2)[::-1] @ a
    rejects(run_certify(state, {**out, "f2": (value, swapped, b)}), "f2 filter value")


def test_certify_rejects_bad_schmidt_vectors(werner_npt):
    state, out = werner_npt
    value, vec = out["sc"]
    rejects(run_certify(state, {**out, "sc": (value - 1e-6, vec)}), "single-copy vector expectation")
    value2, vec2 = out["n2"]
    rank4 = np.eye(4).reshape(-1) / 2.0
    rejects(run_certify(state, {**out, "n2": (value2, rank4)}), "Schmidt rank > 2")
    rejects(run_certify(state, {**out, "n2": (value2 + 1e-6, vec2)}), "two-copy vector expectation")


def test_certify_rejects_ppt_violations(werner_ppt):
    state, out = werner_ppt
    value, a, b = out["f2"]
    errs = run_certify(state, {**out, "f2": (0.6, a, b)})
    rejects(errs, "PPT input has f2")
    rejects(errs, "Horodecki")
    _, vec = out["sc"]
    rejects(run_certify(state, {**out, "sc": (-0.1, vec)}), "single-copy violation")
    _, vec2 = out["n2"]
    rejects(run_certify(state, {**out, "n2": (-0.1, vec2)}), "two-copy violation")


def test_certify_rejects_two_qubit_search_off_minimum(werner_npt):
    state, out = werner_npt
    # a genuine vector whose expectation is not the minimum eigenvalue
    vec = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    pt = checks.partial_transpose(state.data, 2, 2)
    value = float(np.real(vec.conj() @ pt @ vec))
    rejects(run_certify(state, {**out, "sc": (value, vec)}), "2x2 search minimum")


def test_certify_rejects_wrong_fd():
    state = states.construct_state(states.StateFamilySpec(states.Family.RANDOM_PPT, d=3), seed=1)
    out = certify_outputs(state, fd=True)
    value, a, b = out["fD"]
    rejects(run_certify(state, {**out, "fD": (value + 1e-6, a, b)}), "fD filter value")
    rejects(run_certify(state, {**out, "fD": (0.5, a, b)}), "above 1/D")


# ---------------------------------------------------------------------------
# extend
# ---------------------------------------------------------------------------

def random_state(k, seed=0):
    return BipartiteState(checks.random_density(np.random.default_rng(seed), 4 ** k), 2, 2, k)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_twirl_accepts_program_output_and_rejects_corruptions(k):
    rho = random_state(k)
    out = symmetry.symmetrize(rho).data
    assert checks.check_twirl(rho.data, out, 4, k) == []
    bump = np.zeros_like(out)
    bump[1, 1], bump[4, 4] = 1e-9, -1e-9  # |0..01> and |0..10>: breaks the last-pair swap
    rejects(checks.check_twirl(rho.data, out + bump, 4, k), f"transposition ({k - 1} {k})")
    rejects(checks.check_twirl(rho.data, 1.001 * out, 4, k), "marginal of pair 1")


def test_twirl_rejects_symmetric_operator_that_is_not_the_average():
    rho = random_state(3)
    out = symmetry.symmetrize(rho).data
    sym = checks.symmetric_projector(4, 3)
    wrong = out + 1e-9 * (sym / np.trace(sym) - np.eye(64) / 64)
    errs = checks.check_twirl(rho.data, wrong, 4, 3)
    rejects(errs, "permutation-matrix average")
    assert not any("transposition" in e for e in errs)


def test_double_twirl_rejects_one_sided_asymmetry():
    rho = random_state(3)
    out = symmetry.double_symmetrize(rho).data
    assert checks.check_double_twirl(out, 2, 2, 3) == []
    swapped_b = checks.swap_slots(rho.data, (2, 2) * 3, 1, 3)
    rejects(checks.check_double_twirl(out + 1e-6 * (rho.data - swapped_b), 2, 2, 3),
            "B-side transposition")
    swapped_a = checks.swap_slots(rho.data, (2, 2) * 3, 0, 2)
    rejects(checks.check_double_twirl(out + 1e-6 * (rho.data - swapped_a), 2, 2, 3),
            "A-side transposition")


def test_mixture_rejects_wrong_marginals_and_npt_mixture():
    rng = np.random.default_rng(4)
    members = [checks.random_ppt_pair(rng) for _ in range(2)]
    ens = symmetry.Ensemble((0.3, 0.7), tuple(BipartiteState(m, 2, 2) for m in members))
    mix = symmetry.mixture_of_powers(ens, 2)
    margs = [states.partial_trace(mix, {j}).data for j in (1, 2)]
    assert checks.check_mixture(margs, mix.data, ens.weights, members, 2, 2, 2) == []
    rejects(checks.check_mixture([margs[0], margs[0] * 1.001], mix.data, ens.weights, members,
                                 2, 2, 2), "marginal of pair 2")
    npt = np.kron(checks.phi(2), checks.phi(2))
    rejects(checks.check_mixture(margs, npt, ens.weights, members, 2, 2, 2),
            "PPT members give a mixture")


def test_dual_check_rejects_flipped_verdicts():
    psd = checks.random_density(np.random.default_rng(5), 16)
    flag, _ = distillability.symmetric_dual_positive(psd, 2, 2, 2, samples=3)
    assert checks.check_dual(flag, True) == []
    neg, _ = distillability.symmetric_dual_positive(-checks.symmetric_projector(4, 2), 2, 2, 2)
    assert checks.check_dual(neg, False) == []
    rejects(checks.check_dual(not flag, True), "want True")
    rejects(checks.check_dual(not neg, False), "want False")


def test_product_mixture_check_rejects_distance_and_wrong_ensemble():
    rho = checks.random_density(np.random.default_rng(6), 4)
    target = BipartiteState(np.kron(rho, rho), 2, 2, 2)
    dist, ens = symmetry.best_product_mixture_distance(target, restarts=1, iters=5, seed=0)
    members = [m.data for m in ens.members]
    assert checks.check_product_mixture(dist, target.data, ens.weights, members, 2) == []
    rejects(checks.check_product_mixture(0.1, target.data, ens.weights, members, 2),
            "product-mixture distance")
    other = [checks.random_density(np.random.default_rng(7), 4)]
    rejects(checks.check_product_mixture(dist, target.data, (1.0,), other, 2),
            "returned ensemble")


# ---------------------------------------------------------------------------
# cli: verbs run in process here, artifacts checked as the workload does
# ---------------------------------------------------------------------------

def verb(tmp_path, capsys, argv, out=None):
    full = argv + (["--out", str(tmp_path / out)] if out else [])
    code = cli.run(full)
    line = capsys.readouterr().out.strip()
    art = json.loads((tmp_path / out).read_text()) if out else None
    return code, line, art


def test_cli_state_and_ppt_checks(tmp_path, capsys):
    for p in (0.2, 0.4, 0.8):
        code, line, art = verb(tmp_path, capsys, ["state", "--family", "werner", "--d", "3",
                                                  "--p", repr(p)], "w.json")
        check = cliwork.check_state(checks.werner(3, p))
        assert check(code, line, art) == []
        bad = dict(art, matrix=(np.asarray(art["matrix"]) * 1.001).tolist())
        rejects(check(code, line, bad), "closed form")
        code, line, art = verb(tmp_path, capsys, ["ppt", "--state", str(tmp_path / "w.json")],
                               "ppt.json")
        check = cliwork.check_ppt(3, p)
        assert check(code, line, art) == []
        rejects(check(code, line, dict(art, min_eigenvalue=art["min_eigenvalue"] + 1e-9)),
                "closed form")
        rejects(check(1 - code, line, art), "exit code")


def test_cli_f2_and_ncopy_checks(tmp_path, capsys):
    verb(tmp_path, capsys, ["state", "--family", "werner", "--d", "2", "--p", "0.8"], "w.json")
    w = checks.werner(2, 0.8)
    code, line, art = verb(tmp_path, capsys, ["f2", "--state", str(tmp_path / "w.json"),
                                              "--restarts", "8", "--seed", "1"], "f2.json")
    check = cliwork.check_f2(w, 0.8)
    assert check(code, line, art) == []
    rejects(check(code, line, dict(art, value=art["value"] + 1e-6)), "closed form")
    rejects(check(0, line, art), "exit code")
    rejects(check(code, line.replace("True", "False"), art), "stdout")
    code, line, art = verb(tmp_path, capsys, ["ncopy", "--state", str(tmp_path / "w.json"),
                                              "--n", "2", "--seed", "1"], "nc.json")
    check = cliwork.check_ncopy(w, 2)
    assert check(code, line, art) == []
    rejects(check(code, line, dict(art, value=art["value"] - 1e-6)), "vector expectation")
    rejects(check(0, line, art), "exit code")


def test_cli_tomography_and_activation_checks(tmp_path, capsys):
    verb(tmp_path, capsys, ["state", "--family", "werner", "--d", "2", "--p", "0.75"], "w.json")
    code, line, art = verb(tmp_path, capsys, ["tomo-pipeline", "--state", str(tmp_path / "w.json"),
                                              "--shots", "100000", "--seed", "5"], "t.json")
    assert cliwork.check_tomo(code, line, art) == []
    rejects(cliwork.check_tomo(code, line, dict(art, f_m=art["f_m"] + 0.05)), "f_m")
    rejects(cliwork.check_tomo(0, line, art), "exit code")

    sigma = checks.swap_slots(np.kron(checks.phi(2), checks.phi(2)), (2, 2, 2, 2), 1, 2)
    cliwork.write_json(tmp_path / "s.json", checks.matrix_to_payload(sigma, 4, 4))
    code, line, art = verb(tmp_path, capsys, ["activate-search", "--sigma",
                                              str(tmp_path / "s.json"), "--budget", "5"], "a.json")
    assert cliwork.check_activate(code, line, art) == []
    rejects(cliwork.check_activate(code, line, dict(art, fidelity=0.9)), "fidelity")


def test_cli_symmetric_artifact_checks(tmp_path, capsys):
    rng = np.random.default_rng(8)
    big = checks.random_density(rng, 256)
    cliwork.write_json(tmp_path / "big.json", checks.matrix_to_payload(big, 2, 2, 4))
    code, line, art = verb(tmp_path, capsys, ["symmetrize", "--state", str(tmp_path / "big.json")],
                           "sym.json")
    check = cliwork.check_twirl(big, 4)
    assert check(code, line, art) == []
    bad = checks.matrix_from_payload(art)
    bad[1, 1] += 1e-9
    bad[4, 4] -= 1e-9
    rejects(check(code, line, checks.matrix_to_payload(bad, 2, 2, 4)), "transposition")

    echo = checks.matrix_to_payload(checks.random_density(rng, 16), 4, 4)
    cliwork.write_json(tmp_path / "echo.json", echo)
    code, line, art = verb(tmp_path, capsys, ["symmetrize", "--state", str(tmp_path / "echo.json")],
                           "echo-out.json")
    check = cliwork.check_echo(echo)
    assert check(code, line, art) == []
    art["matrix"][3][0] = float(np.nextafter(art["matrix"][3][0], 1.0))
    rejects(check(code, line, art), "bit-exact")

    members = [checks.random_ppt_pair(rng) for _ in range(2)]
    cliwork.write_json(tmp_path / "ens.json", {
        "weights": [0.25, 0.75], "members": [checks.matrix_to_payload(m, 2, 2) for m in members]})
    code, line, art = verb(tmp_path, capsys, ["mixpow", "--ensemble", str(tmp_path / "ens.json"),
                                              "--k", "3"], "mix.json")
    check = cliwork.check_mixpow([0.25, 0.75], members, 3)
    assert check(code, line, art) == []
    rejects(check(code, line, dict(art, matrix=(np.asarray(art["matrix"]) * 1.01).tolist())),
            "marginal")


def test_cli_bound_check(tmp_path, capsys):
    code, line, _ = verb(tmp_path, capsys, ["definetti-bound", "--d", "3", "--k", "2", "--n", "97"])
    check = cliwork.check_bound(3, 2, 97)
    assert check(code, line, None) == []
    rejects(check(code, f"{float(line) * 1.001:.12g}", None), "4 d^4 k / n")
    rejects(check(2, line, None), "exit code")


# ---------------------------------------------------------------------------
# tracer and metric definitions
# ---------------------------------------------------------------------------

def test_self_times_add_up_to_the_outer_span():
    tr = tracer.Tracer()

    def inner(x):
        return sum(range(x))

    wrapped_inner = tr.wrap("m.inner", inner)

    def outer(x):
        return wrapped_inner(x) + wrapped_inner(x)

    tr.item = "a"
    tr.wrap("m.outer", outer)(100_000)
    own = tracer.self_times(tr.spans)
    root = tr.spans[0]
    assert [s[tracer.PARENT] for s in tr.spans] == [None, 0, 0]
    assert sum(own) == pytest.approx(root[tracer.END] - root[tracer.START], abs=1e-12)
    totals = tracer.layer_totals(tr.spans)
    assert totals["m.inner"]["calls"] == 2 and totals["m.outer"]["calls"] == 1
    assert tracer.item_self_sums(tr.spans)["a"][1] == 3


def test_install_restores_the_program():
    original = distillability.single_copy_distillable
    tr = tracer.Tracer()
    tr.install()
    tr.install(tracer.COUNTERS, count=True)
    try:
        rep = distillability.n_copy_distillable(states.werner_state(2, 0.8), 2, budget=2, seed=1)
    finally:
        tr.uninstall()
    assert distillability.single_copy_distillable is original
    totals = tracer.layer_totals(tr.spans)
    assert totals["distillability.single_copy_distillable"]["attempts"] == rep.restarts
    assert totals["distillability.single_copy_distillable"]["violations"] == 1
    assert totals["states.tensor_power"]["calls"] == 1


def test_tail_has_ten_items_beyond_it():
    times = [[float(i)] for i in range(40)]
    summary = worker.summarize(times)
    assert summary["item_tail_s"] == 29.0
    assert summary["item_p50_s"] == 19.5


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in worker.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"items_per_s", "item_p50_s", "item_tail_s", "peak_rss_mb", "setup_s"}
    assert [w["name"] for w in spec["workloads"]] == list(worker.MODULES)
