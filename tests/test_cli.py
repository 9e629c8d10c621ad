"""CLI grammar, exit codes, artifact metadata, and sweep behavior."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import distilkit as dk
from distilkit import tomography
from distilkit.cli import run


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def read_json(path):
    """Parse an artifact as RFC 8259 JSON: NaN, Infinity and -Infinity are errors."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def read_sweep_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# meta: ")
    meta = json.loads(lines[0][len("# meta: "):])
    rows = list(csv.DictReader(lines[1:]))
    return meta, rows


@pytest.fixture
def werner_file(tmp_path):
    path = tmp_path / "w.json"
    assert run(["state", "--family", "werner", "--d", "2", "--p", "0.75",
                "--out", str(path)]) == 0
    return str(path)


class TestStateAndVerdicts:
    def test_state_writes_valid_file(self, werner_file):
        state = dk.load_state(werner_file)
        assert state.dim == 4
        meta = read_json(werner_file)["meta"]
        assert meta["command"] == "state" and meta["version"] == dk.__version__

    def test_f2_verdict_exit_code(self, tmp_path, werner_file):
        out = tmp_path / "r.json"
        code = run(["f2", "--state", werner_file, "--restarts", "16", "--seed", "7",
                    "--out", str(out)])
        assert code == 1  # value > 1/2: distillable verdict
        payload = read_json(out)
        assert payload["value"] > 0.5 + 1e-4
        assert payload["meta"]["seed"] == 7

    def test_f2_separable_exits_zero(self, tmp_path):
        spath = tmp_path / "s.json"
        run(["state", "--family", "werner", "--d", "2", "--p", "0.3", "--out", str(spath)])
        assert run(["f2", "--state", str(spath), "--restarts", "8", "--seed", "1"]) == 0

    def test_ppt_exit_codes(self, tmp_path, werner_file):
        assert run(["ppt", "--state", werner_file]) == 1
        spath = tmp_path / "sep.json"
        run(["state", "--family", "werner", "--d", "2", "--p", "0.2", "--out", str(spath)])
        assert run(["ppt", "--state", str(spath)]) == 0

    def test_undistill1_and_ncopy(self, tmp_path, werner_file):
        assert run(["undistill1", "--state", werner_file, "--seed", "1"]) == 1
        assert run(["ncopy", "--state", werner_file, "--n", "2", "--seed", "1",
                    "--budget", "4"]) == 1

    def test_schmidt_search_artifacts_carry_diagnostics(self, capsys, tmp_path, werner_file):
        capsys.readouterr()
        for verb in (["undistill1"], ["ncopy", "--n", "2"]):
            out = tmp_path / f"{verb[0]}.json"
            assert run(verb + ["--state", werner_file, "--seed", "1", "--budget", "4",
                               "--out", str(out)]) == 1
            payload = read_json(out)
            assert len(payload["iterations"]) == payload["restarts"]
            assert 0 <= payload["best_restart"] < payload["restarts"]
            assert payload["redraws"] is None
            assert capsys.readouterr().out.count("\n") == 1

    def test_fd(self, tmp_path):
        spath = tmp_path / "phi.json"
        run(["state", "--family", "max_entangled", "--d", "3", "--out", str(spath)])
        assert run(["fd", "--state", str(spath), "--D", "3", "--lam", "0.9",
                    "--restarts", "6", "--seed", "2"]) == 1

    @pytest.mark.parametrize("lam", ["0.1", "1.0"])
    def test_fd_lambda_out_of_range_is_usage_error(self, capsys, tmp_path, lam):
        spath = tmp_path / "phi.json"
        run(["state", "--family", "max_entangled", "--d", "3", "--out", str(spath)])
        assert run(["fd", "--state", str(spath), "--D", "3", "--lam", lam]) == 2
        assert "lambda must lie in [1/3, 1)" in capsys.readouterr().err

    def test_fd_dimension_below_two_is_usage_error(self, capsys, werner_file):
        assert run(["fd", "--state", werner_file, "--D", "0"]) == 2
        assert "need D >= 2" in capsys.readouterr().err


class TestScalarCommands:
    def test_definetti_bound_prints_value(self, capsys):
        assert run(["definetti-bound", "--d", "2", "--k", "1", "--n", "100"]) == 0
        assert capsys.readouterr().out.strip() == "0.64"

    def test_definetti_usage_error(self):
        assert run(["definetti-bound", "--d", "2", "--k", "5", "--n", "4"]) == 2

    def test_chernoff(self, capsys):
        assert run(["chernoff", "--delta", "0.1", "--n", "1000000",
                    "--cardinality", "16"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_chernoff_overflow_writes_null(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["chernoff", "--delta", "0.001", "--n", "1000000", "--cardinality", "100",
                    "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["raw"] is None and payload["reported"] == 1.0

    @pytest.mark.parametrize("verb", [["undistill1", "--state", "S", "--budget", "0"],
                                      ["ncopy", "--state", "S", "--n", "2", "--budget", "0"],
                                      ["jam-check", "--rho", "S", "--sigma", "T", "--trials", "0"]])
    def test_budget_below_one_is_usage_error(self, capsys, tmp_path, werner_file, verb):
        target = tmp_path / "t.json"
        dk.save_state(dk.BipartiteState(np.eye(16) / 16, 4, 4), target)
        out = tmp_path / "o.json"
        argv = [{"S": werner_file, "T": str(target)}.get(a, a) for a in verb]
        capsys.readouterr()  # drop the fixture's summary line
        assert run(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and ">= 1" in captured.err and not out.exists()

    @pytest.mark.parametrize("verb", [
        ["f2", "--state", "S", "--iters", "0"], ["f2", "--state", "S", "--iters", "-1"],
        ["fd", "--state", "S", "--D", "3", "--iters", "0"],
        ["sweep", "--task", "f2", "--param", "p", "--values", "0.7", "--iters", "0"],
        ["defclose", "--state", "P", "--restarts", "0"],
        ["defclose", "--state", "P", "--iters", "-1"]])
    def test_empty_search_is_usage_error(self, capsys, tmp_path, werner_file, verb):
        power = tmp_path / "p2.json"
        dk.save_state(dk.tensor_power(dk.werner_state(2, 0.8), 2), power)
        out = tmp_path / "o.csv"
        argv = [{"S": werner_file, "P": str(power)}.get(a, a) for a in verb]
        capsys.readouterr()  # drop the fixture's summary line
        assert run(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert ">= " in captured.err

    @pytest.mark.parametrize("field,value", [("dimA", 2.9), ("dimB", "2"), ("pairs", True)])
    def test_non_integer_state_dimensions_are_usage_errors(self, capsys, tmp_path, field, value):
        payload = dk.states.state_to_dict(dk.werner_state(2, 0.3))
        payload[field] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        assert run(["ppt", "--state", str(path)]) == 2
        assert "must be JSON integers" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["0.5", True])
    def test_non_numeric_ensemble_weight_is_usage_error(self, capsys, tmp_path, weight):
        payload = dk.symmetry.ensemble_to_dict(
            dk.Ensemble((0.5, 0.5), (dk.werner_state(2, 0.2), dk.werner_state(2, 0.9))))
        payload["weights"][0] = weight
        path = tmp_path / "e.json"
        path.write_text(json.dumps(payload))
        assert run(["mixpow", "--ensemble", str(path), "--k", "2"]) == 2
        assert "must be a list of JSON numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("members", [5, "abc", [5]])
    def test_malformed_ensemble_members_are_usage_errors(self, capsys, tmp_path, members):
        path = tmp_path / "e.json"
        path.write_text(json.dumps({"weights": [1.0], "members": members}))
        assert run(["mixpow", "--ensemble", str(path), "--k", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "members" in err and err.count("\n") == 1

    @pytest.mark.parametrize("field,value", [("pairs", -1), ("pairs", 3000), ("pairs", 100000),
                                             ("entry", 1e308)])
    def test_out_of_range_state_file_is_one_error_line(self, tmp_path, field, value):
        # a fresh interpreter, so that a numpy RuntimeWarning would reach stderr
        payload = dk.states.state_to_dict(dk.werner_state(2, 0.3))
        if field == "entry":
            payload["matrix"][0] = payload["matrix"][5] = [value, 0.0]
        else:
            payload[field] = value
        path = tmp_path / "s.json"
        path.write_text(json.dumps(payload))
        done = run_fresh(["ppt", "--state", str(path)])
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert len(done.stderr) < 200

    def test_unknown_option_rejected(self):
        assert run(["definetti-bound", "--d", "2", "--k", "1", "--n", "100",
                    "--bogus", "3"]) == 2

    def test_malformed_state_json_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"data": [')
        assert run(["ppt", "--state", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name,text", [("bad.json", '{"bad'), ("missing.json", None)])
    def test_unreadable_state_file_is_named(self, capsys, tmp_path, name, text):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        assert run(["ppt", "--state", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and err.count("\n") == 1

    @pytest.mark.parametrize("first", [["0.5", 0.0], [True, 0.0], [None, 0.0], [0.5], [0.5, 0, 0]])
    def test_malformed_matrix_entries_are_usage_errors(self, capsys, tmp_path, first):
        payload = dk.states.state_to_dict(dk.werner_state(2, 0.3))
        payload["matrix"][0] = first
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        assert run(["ppt", "--state", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("family", ["werner", "isotropic"])
    def test_family_weight_is_required(self, capsys, family):
        assert run(["state", "--family", family, "--d", "2"]) == 2
        assert "requires the weight p" in capsys.readouterr().err

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.json"
        assert run(["state", "--family", "werner", "--d", "2", "--p", "0.3",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_linalg_failure_is_numeric_error(self, capsys, monkeypatch, werner_file):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(dk.distillability, "is_ppt", fail)
        assert run(["ppt", "--state", werner_file]) == 3
        assert capsys.readouterr().err == "error: eigenvalues did not converge\n"

    def test_single_summary_line(self, capsys, tmp_path):
        run(["state", "--family", "isotropic", "--d", "2", "--p", "0.5",
             "--out", str(tmp_path / "i.json")])
        out = capsys.readouterr().out
        assert out.count("\n") == 1


class TestSymmetryCommands:
    def test_symmetrize_roundtrip(self, tmp_path):
        a = dk.werner_state(2, 0.6)
        b = dk.isotropic_state(2, 0.4)
        two = dk.tensor(a, b)
        spath = tmp_path / "two.json"
        dk.save_state(two, spath)
        out = tmp_path / "sym.json"
        assert run(["symmetrize", "--state", str(spath), "--out", str(out)]) == 0
        sym = dk.load_state(out)
        assert dk.trace_distance(sym, dk.symmetrize(two)) < 1e-12

    def test_mixpow(self, tmp_path):
        ens = dk.Ensemble((0.5, 0.5), (dk.werner_state(2, 0.2), dk.isotropic_state(2, 0.3)))
        epath = tmp_path / "e.json"
        dk.save_ensemble(ens, epath)
        out = tmp_path / "pi.json"
        assert run(["mixpow", "--ensemble", str(epath), "--k", "2", "--out", str(out)]) == 0
        state = dk.load_state(out)
        assert state.pairs == 2
        marg = dk.partial_trace(state, {1})
        assert dk.trace_distance(marg, ens.average()) < 1e-12

    def test_defclose(self, tmp_path):
        rho = dk.werner_state(2, 0.8)
        power = dk.tensor(rho, rho)
        spath = tmp_path / "p.json"
        dk.save_state(power, spath)
        out = tmp_path / "d.json"
        assert run(["defclose", "--state", str(spath), "--restarts", "1",
                    "--iters", "4", "--seed", "3", "--out", str(out)]) == 0
        assert read_json(out)["distance"] <= 1e-6

    def test_defclose_three_pairs(self, tmp_path):
        spath = tmp_path / "p3.json"
        dk.save_state(dk.tensor_power(dk.werner_state(2, 0.8), 3), spath)
        out = tmp_path / "d.json"
        assert run(["defclose", "--state", str(spath), "--restarts", "1",
                    "--iters", "4", "--seed", "3", "--out", str(out)]) == 0
        assert read_json(out)["distance"] <= 1e-9


class TestTomographyCommands:
    def test_tomo_frame(self, tmp_path):
        out = tmp_path / "f.json"
        assert run(["tomo-frame", "--m", "2", "--out", str(out)]) == 0
        payload = read_json(out)
        assert len(payload["elements"]) == 4

    def test_tomo_sim_counts_csv(self, tmp_path, werner_file):
        out = tmp_path / "c.csv"
        assert run(["tomo-sim", "--state", werner_file, "--shots", "1000",
                    "--seed", "3", "--out", str(out)]) == 0
        counts = tomography.load_counts(out)
        assert counts.shots == 1000

    def test_tomo_pipeline_verdict(self, tmp_path, werner_file):
        out = tmp_path / "p.json"
        code = run(["tomo-pipeline", "--state", werner_file, "--shots", "20000",
                    "--seed", "5", "--out", str(out)])
        assert code == 1
        payload = read_json(out)
        assert payload["verdict"] == "distillable"
        assert payload["surrogate"] is True


class TestActivationCommands:
    def test_jam_check(self, tmp_path):
        d = 2
        rho = tmp_path / "r.json"
        sig = tmp_path / "s.json"
        run(["state", "--family", "random_mixed", "--d", "2", "--seed", "4",
             "--out", str(rho)])
        dk.save_state(dk.BipartiteState(np.eye(16) / 16, 4, 4), sig)
        assert run(["jam-check", "--rho", str(rho), "--sigma", str(sig),
                    "--trials", "10", "--seed", "1"]) == 0

    def test_activate_search_embedded_phi2(self, capsys, tmp_path):
        phi2 = dk.construct_state(dk.StateFamilySpec(dk.Family.MAX_ENTANGLED, 2))
        sigma = dk.pair_product(phi2, phi2)
        sig = tmp_path / "s.json"
        dk.save_state(sigma, sig)
        out = tmp_path / "a.json"
        code = run(["activate-search", "--sigma", str(sig), "--seed", "1", "--out", str(out)])
        assert code == 1
        line = capsys.readouterr().out
        fields = dict(kv.split("=") for kv in line.split())
        assert set(fields) == {"witness", "found", "gap"} and fields["found"] == "True"
        # the hidden --budget is accepted and ignored
        assert run(["activate-search", "--sigma", str(sig), "--budget", "5"]) == 1
        assert capsys.readouterr().out == line
        payload = read_json(out)
        assert payload["fidelity"] >= 1 - 1e-9
        assert set(payload) == {"witness", "fidelity", "success_weight", "rho",
                                "budget_exhausted", "gap", "meta"}
        assert abs(payload["witness"] + 0.5) < 1e-12 and abs(payload["gap"] - 0.5) < 1e-12

    def test_activate_check(self, tmp_path):
        phi2 = dk.construct_state(dk.StateFamilySpec(dk.Family.MAX_ENTANGLED, 2))
        sigma = dk.pair_product(phi2, phi2)
        rho, sig = tmp_path / "r.json", tmp_path / "s.json"
        dk.save_state(phi2, rho)
        dk.save_state(sigma, sig)
        assert run(["activate-check", "--rho", str(rho), "--sigma", str(sig),
                    "--seed", "2"]) == 1

    def test_activation_artifacts_carry_no_constant(self, tmp_path):
        phi2 = dk.construct_state(dk.StateFamilySpec(dk.Family.MAX_ENTANGLED, 2))
        rho, sig = tmp_path / "r.json", tmp_path / "s.json"
        dk.save_state(phi2, rho)
        dk.save_state(dk.pair_product(phi2, phi2), sig)
        check, search = tmp_path / "check.json", tmp_path / "search.json"
        assert run(["activate-check", "--rho", str(rho), "--sigma", str(sig),
                    "--out", str(check)]) == 1
        assert run(["activate-search", "--sigma", str(sig), "--out", str(search)]) == 1
        for path in (check, search):
            payload = read_json(path)
            assert abs(payload["fidelity"] - 1.0) < 1e-12
            assert "c" not in payload

    def test_activate_check_degenerate_postselection_is_numeric_error(self, capsys, tmp_path):
        # rho = |01><01| is orthogonal to the projection's phi_2 on A1A2 | B1B2
        phi2 = dk.construct_state(dk.StateFamilySpec(dk.Family.MAX_ENTANGLED, 2))
        rho = dk.construct_state(dk.StateFamilySpec(dk.Family.PRODUCT_PURE, 2, {"i": 0, "j": 1}))
        rpath, spath, out = tmp_path / "r.json", tmp_path / "s.json", tmp_path / "a.json"
        dk.save_state(rho, rpath)
        dk.save_state(dk.pair_product(phi2, phi2), spath)
        assert run(["activate-check", "--rho", str(rpath), "--sigma", str(spath),
                    "--out", str(out)]) == 3
        assert "degenerate post-selection" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_f2_sweep_monotone(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--task", "f2", "--param", "p", "--start", "0",
                    "--stop", "1", "--step", "0.1", "--family", "werner", "--d", "2",
                    "--restarts", "8", "--seed", "7", "--out", str(out)])
        assert code == 0
        meta, rows = read_sweep_csv(out)
        assert meta["command"] == "sweep" and meta["seed"] == 7
        vals = [float(r["value"]) for r in rows]
        assert len(vals) == 11
        assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))

    def test_empty_range_usage_error(self):
        assert run(["sweep", "--task", "f2", "--param", "p", "--start", "1",
                    "--stop", "0", "--step", "0.1"]) == 2

    def test_shots_sweep_trace_distance_nonincreasing(self, tmp_path, werner_file):
        out = tmp_path / "shots.csv"
        code = run(["sweep", "--task", "tomo-pipeline", "--param", "shots",
                    "--values", "100,1000,10000,100000", "--state", werner_file,
                    "--repeats", "20", "--seed", "11", "--out", str(out)])
        assert code == 0
        _, rows = read_sweep_csv(out)
        dists = [float(r["trace_distance"]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))

    def test_reproducible_scalars(self, tmp_path, werner_file):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run(["sweep", "--task", "f2", "--param", "p", "--values", "0.7,0.9",
                 "--family", "werner", "--restarts", "6", "--seed", "3",
                 "--out", str(out)])
            _, rows = read_sweep_csv(out)
            outs.append([r["value"] for r in rows])
        assert outs[0] == outs[1]


def fresh_python(code, *args):
    """Run ``python -c code args`` in a fresh interpreter that imports this distilkit."""
    src = str(Path(dk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)


def run_fresh(argv):
    return fresh_python("import sys; from distilkit.cli import run; sys.exit(run(sys.argv[1:]))", *argv)


def test_cli_import_loads_no_scipy():
    """numpy is the only runtime dependency: a fresh interpreter that imports the
    CLI has no scipy module loaded."""
    code = "import sys, distilkit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = fresh_python(code)
    assert done.returncode == 0 and done.stdout.strip() == "[]"
