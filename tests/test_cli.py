"""CLI grammar, exit codes and artifact metadata."""

import argparse
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import distilkit as dk
from distilkit import tomography
from distilkit.cli import build_parser, run
from distilkit.distillability import DEFAULT_ITERS, DEFAULT_TOL, DENOM_REG


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def read_json(path):
    """Parse an artifact as RFC 8259 JSON: NaN, Infinity and -Infinity are errors."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


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

    def test_meta_records_command_and_seed_once(self, tmp_path, werner_file):
        out = tmp_path / "r.json"
        assert run(["f2", "--state", werner_file, "--restarts", "4", "--seed", "7",
                    "--out", str(out)]) == 1
        meta = read_json(out)["meta"]
        assert meta["command"] == "f2" and meta["seed"] == 7
        assert meta["options"] == {"state": werner_file, "restarts": 4,
                                   "iters": DEFAULT_ITERS, "tol": DEFAULT_TOL}
        meta = read_json(werner_file)["meta"]
        assert meta["command"] == "state" and meta["seed"] is None  # a seeded verb, no --seed
        assert not {"command", "seed"} & set(meta["options"])

    def test_f2_separable_exits_zero(self, tmp_path):
        spath = tmp_path / "s.json"
        run(["state", "--family", "werner", "--d", "2", "--p", "0.3", "--out", str(spath)])
        assert run(["f2", "--state", str(spath), "--restarts", "8", "--seed", "1"]) == 0

    def test_ppt_exit_codes(self, tmp_path, werner_file):
        assert run(["ppt", "--state", werner_file]) == 1
        spath = tmp_path / "sep.json"
        run(["state", "--family", "werner", "--d", "2", "--p", "0.2", "--out", str(spath)])
        assert run(["ppt", "--state", str(spath)]) == 0

    def test_ncopy_one_and_two_copies(self, tmp_path, werner_file):
        out = tmp_path / "n1.json"
        assert run(["ncopy", "--state", werner_file, "--seed", "1", "--out", str(out)]) == 1
        # --n defaults to 1: the single-copy search on the state itself
        direct = dk.single_copy_distillable(dk.load_state(werner_file), budget=20, seed=1)
        payload = read_json(out)
        assert payload.pop("meta")["options"]["n"] == 1
        assert payload == json.loads(json.dumps(direct.to_dict()))
        assert run(["ncopy", "--state", werner_file, "--n", "2", "--seed", "1",
                    "--budget", "4"]) == 1
        assert run(["undistill1", "--state", werner_file]) == 2

    def test_schmidt_search_artifacts_carry_diagnostics(self, capsys, tmp_path, werner_file):
        capsys.readouterr()
        for n in ("1", "2"):
            verb = ["ncopy", "--n", n]
            out = tmp_path / f"n{n}.json"
            assert run(verb + ["--state", werner_file, "--seed", "1", "--budget", "4",
                               "--out", str(out)]) == 1
            payload = read_json(out)
            assert len(payload["iterations"]) == payload["restarts"]
            assert 0 <= payload["best_restart"] < payload["restarts"]
            assert payload["redraws"] is None
            assert capsys.readouterr().out.count("\n") == 1

    def test_f2_artifact_flags_a_restart_at_the_cap(self, tmp_path):
        # a near-PPT 2x2 draw whose slowest restarts still rise at 500 sweeps: the
        # artifact says so, and the verdict still follows the value
        rho = dk.linalg.random_density(np.random.default_rng(1475), 4, ancilla=8)
        spath, out = tmp_path / "near.json", tmp_path / "f2.json"
        dk.save_state(dk.BipartiteState(rho, 2, 2), spath)
        assert run(["f2", "--state", str(spath), "--restarts", "4", "--seed", "1475",
                    "--tol", "1e-12", "--out", str(out)]) == 1
        payload = read_json(out)
        assert payload["iterations"] == [500, 2, 500, 500] and payload["budget_exhausted"] is True

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

    def test_fd_takes_tol_like_f2(self, capsys, tmp_path, werner_file):
        # --tol reaches fD: at tol 10 every restart stops on its second sweep; a
        # negative or non-finite tol is a usage error, as for f2
        out = tmp_path / "fd.json"
        assert run(["fd", "--state", werner_file, "--D", "2", "--restarts", "3", "--seed", "1",
                    "--tol", "10", "--out", str(out)]) == 1
        payload = read_json(out)
        assert payload["iterations"] == [2, 2, 2] and payload["meta"]["options"]["tol"] == 10.0
        for tol in ("nan", "inf", "-1e-9"):
            capsys.readouterr()
            assert run(["fd", "--state", werner_file, "--D", "3", f"--tol={tol}",
                        "--out", str(tmp_path / "bad.json")]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: need a finite tol")
        assert not (tmp_path / "bad.json").exists()

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

    @pytest.mark.parametrize("verb", [["ncopy", "--state", "S", "--budget", "0"],
                                      ["ncopy", "--state", "S", "--n", "2", "--budget", "0"],
                                      ["tomo-pipeline", "--state", "S", "--budget", "0"]])
    def test_budget_below_one_is_usage_error(self, capsys, tmp_path, werner_file, verb):
        out = tmp_path / "o.json"
        argv = [{"S": werner_file}.get(a, a) for a in verb]
        capsys.readouterr()  # drop the fixture's summary line
        assert run(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and ">= 1" in captured.err and not out.exists()

    @pytest.mark.parametrize("verb", [
        ["f2", "--state", "S", "--iters", "0"], ["f2", "--state", "S", "--iters", "-1"],
        ["fd", "--state", "S", "--D", "3", "--iters", "0"],
        ["defclose", "--state", "P", "--restarts", "0"],
        ["defclose", "--state", "P", "--iters", "-1"],
        ["f2", "--state", "S", "--tol", "nan"], ["f2", "--state", "S", "--tol=-1e-9"],
        ["f2", "--state", "S", "--tol", "inf"]])
    def test_empty_search_is_usage_error(self, capsys, tmp_path, werner_file, verb):
        power = tmp_path / "p2.json"
        dk.save_state(dk.tensor_power(dk.werner_state(2, 0.8), 2), power)
        out = tmp_path / "o.json"
        argv = [{"S": werner_file, "P": str(power)}.get(a, a) for a in verb]
        capsys.readouterr()  # drop the fixture's summary line
        assert run(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert ">= " in captured.err

    @pytest.mark.parametrize("verb", [["mixpow", "--ensemble", "E", "--k"],
                                      ["ncopy", "--state", "S", "--n"],
                                      ["tomo-pipeline", "--state", "S", "--shots", "100", "--n"]])
    @pytest.mark.parametrize("n", ["14", "100", "99999999999999999999"])
    def test_huge_exponent_is_capacity_error(self, capsys, tmp_path, werner_file, verb, n):
        # the cap is checked without computing 4**n, so every n returns at once
        ens = tmp_path / "e.json"
        dk.save_ensemble(dk.Ensemble((1.0,), (dk.werner_state(2, 0.2),)), ens)
        out = tmp_path / "o.json"
        argv = [{"S": werner_file, "E": str(ens)}.get(a, a) for a in verb]
        capsys.readouterr()  # drop the fixture's summary line
        assert run(argv + [n, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        # tomo-pipeline names the failing stage after "error: "
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.err.endswith(f"result dimension 4**{n} exceeds cap 4096\n")

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

    @pytest.mark.parametrize("verb,message", [
        (["chernoff", "--delta", "nan", "--n", "10", "--cardinality", "4"], "finite delta"),
        (["chernoff", "--delta", "inf", "--n", "10", "--cardinality", "4"], "finite delta"),
        (["chernoff", "--delta", "0.1", "--n", str(10 ** 400), "--cardinality", "4"], "overflows"),
        (["definetti-bound", "--d", str(10 ** 400), "--k", "1", "--n", "2"], "overflows"),
        (["definetti-bound", "--d", "2", "--k", "1", "--n", str(10 ** 400)], "overflows"),
        (["tomo-sim", "--state", "S", "--shots", str(2 ** 63), "--seed", "1"], "shots"),
        (["tomo-pipeline", "--state", "S", "--shots", str(2 ** 63), "--seed", "1"], "shots")])
    def test_unrepresentable_number_is_usage_error(self, capsys, tmp_path, werner_file, verb,
                                                   message):
        out = tmp_path / "o.json"
        capsys.readouterr()  # drop the fixture's summary line
        assert run([{"S": werner_file}.get(a, a) for a in verb] + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    def test_non_finite_report_leaves_no_artifact(self, capsys, monkeypatch, werner_file):
        monkeypatch.setattr(dk.distillability, "is_ppt", lambda state: (False, float("nan")))
        out = Path(werner_file).with_name("ppt.json")
        capsys.readouterr()  # drop the fixture's summary line
        assert run(["ppt", "--state", werner_file, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_no_verb_takes_a_format_option(self, werner_file):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert len(sub.choices) == 15
        assert all("--format" not in p._option_string_actions for p in sub.choices.values())
        assert run(["f2", "--state", werner_file, "--format", "csv"]) == 2

    def test_only_random_verbs_take_a_seed(self, capsys, tmp_path, werner_file):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        seeded = {name for name, p in sub.choices.items() if "--seed" in p._option_string_actions}
        # activate-search keeps an ignored --seed that the benchmark chains still pass
        assert seeded == {"state", "f2", "fd", "ncopy", "defclose", "tomo-sim", "tomo-pipeline",
                          "activate-search"}
        out = tmp_path / "o.json"
        capsys.readouterr()  # drop the fixture's summary line
        assert run(["ppt", "--state", werner_file, "--seed", "1", "--out", str(out)]) == 2
        assert not out.exists()
        # a sweep is a shell loop over seeded verbs; sweep is an unknown verb, exit 2
        assert run(["sweep", "--task", "ppt", "--values", "0.3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice: 'sweep'" in captured.err
        assert not out.exists()
        meta = read_json(Path(werner_file))["meta"]
        assert "seed" in meta
        assert run(["ppt", "--state", werner_file, "--out", str(out)]) == 1
        assert "seed" not in read_json(out)["meta"]

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

    @pytest.mark.parametrize("argv,unread", [
        (["--family", "random_mixed", "--d", "2", "--p", "0.3", "--seed", "1"], "p"),
        (["--family", "max_entangled", "--d", "2", "--dB", "3"], "dB"),
    ])
    def test_family_rejects_an_unread_option(self, capsys, tmp_path, argv, unread):
        out = tmp_path / "s.json"
        assert run(["state"] + argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.endswith(f"does not take {unread}\n")

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.json"
        assert run(["state", "--family", "werner", "--d", "2", "--p", "0.3",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("d", ["65", "1000"])
    def test_family_state_over_the_cap_is_capacity_error(self, capsys, tmp_path, d):
        # d = 1000 would ask for terabytes; the cap is checked before any allocation
        out = tmp_path / "w.json"
        assert run(["state", "--family", "werner", "--d", d, "--p", "0.5", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.count("exceeds cap 4096") == 1
        assert not out.exists()

    def test_memory_error_is_numeric_error(self, capsys, monkeypatch, werner_file):
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 4.00 GiB")

        monkeypatch.setattr(dk.distillability, "is_ppt", fail)
        assert run(["ppt", "--state", werner_file]) == 3
        assert capsys.readouterr().err == "error: Unable to allocate 4.00 GiB\n"

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

VALID_STATE = dk.states.state_to_dict(dk.werner_state(2, 0.3))
VALID_ENSEMBLE = dk.symmetry.ensemble_to_dict(
    dk.Ensemble((0.5, 0.5), (dk.werner_state(2, 0.2), dk.werner_state(2, 0.9))))

# every value here is wrong where it is put: no payload field takes a bare
# scalar, a dict, or a short list of integers in place of a list of states;
# as member file paths, the strings name no file in the working directory
JUNK = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                 st.sampled_from(["", "x", "1"]), st.lists(st.integers(), max_size=2),
                 st.dictionaries(st.sampled_from(["a", "dimA"]), st.integers(), max_size=1))
NOT_A_NUMBER = st.one_of(st.none(), st.booleans(), st.sampled_from(["0.5", "x"]),
                         st.lists(st.floats(), max_size=2))
BAD_ENTRY = st.one_of(
    st.lists(st.floats(allow_nan=False), max_size=1),
    st.lists(st.floats(allow_nan=False), min_size=3, max_size=3),
    st.tuples(NOT_A_NUMBER, st.floats()).map(list),
    st.tuples(st.sampled_from([float("nan"), float("inf"), -float("inf")]), st.floats()).map(list),
)
# a change of at least 1e-3 breaks the unit trace (diagonal real part), the
# unit weight sum, or hermiticity (any other part), far beyond STATE_TOL
SHIFT = st.tuples(st.floats(1e-3, 10.0), st.sampled_from([1.0, -1.0])).map(lambda t: t[0] * t[1])


@st.composite
def malformed_state(draw, payload=VALID_STATE):
    d = copy.deepcopy(payload)
    kind = draw(st.sampled_from(["drop", "retype", "resize", "matrix", "entry", "shift",
                                 "count", "top"]))
    key = draw(st.sampled_from(["dimA", "dimB", "pairs"]))
    if kind == "drop":
        del d[draw(st.sampled_from(["dimA", "dimB", "pairs", "matrix"]))]
    elif kind == "retype":
        d[key] = draw(st.one_of(JUNK.filter(lambda v: type(v) is not int), NOT_A_NUMBER))
    elif kind == "resize":  # any other integer changes (dimA*dimB)**pairs
        d[key] = draw(st.integers().filter(lambda v: v != payload[key]))
    elif kind == "matrix":
        d["matrix"] = draw(JUNK)
    elif kind == "entry":
        d["matrix"][draw(st.integers(0, 15))] = draw(BAD_ENTRY)
    elif kind == "shift":
        d["matrix"][draw(st.integers(0, 15))][draw(st.integers(0, 1))] += draw(SHIFT)
    elif kind == "count":
        d["matrix"] = d["matrix"][:-1] if draw(st.booleans()) else d["matrix"] + [[0.0, 0.0]]
    else:
        return draw(JUNK.filter(lambda v: not isinstance(v, dict)))
    return d


@st.composite
def malformed_ensemble(draw):
    e = copy.deepcopy(VALID_ENSEMBLE)
    kind = draw(st.sampled_from(["drop", "weights", "weight", "shift", "count", "members",
                                 "member", "top"]))
    idx = draw(st.integers(0, 1))
    if kind == "drop":
        del e[draw(st.sampled_from(["weights", "members"]))]
    elif kind == "weights":
        e["weights"] = draw(JUNK.filter(lambda v: not isinstance(v, list)))
    elif kind == "weight":
        e["weights"][idx] = draw(NOT_A_NUMBER)
    elif kind == "shift":
        e["weights"][idx] += draw(SHIFT)
    elif kind == "count":
        part = draw(st.sampled_from(["weights", "members"]))
        e[part] = e[part][:1] if draw(st.booleans()) else e[part] + [e[part][0]]
    elif kind == "members":
        e["members"] = draw(JUNK)
    elif kind == "member":
        e["members"][idx] = draw(malformed_state(VALID_ENSEMBLE["members"][idx]))
    else:
        return draw(JUNK.filter(lambda v: not isinstance(v, dict)))
    return e


@st.composite
def malformed_file(draw, valid, payloads):
    """Bytes of a file that no verb may accept: a mutated payload, or valid JSON
    truncated, with trailing garbage, or not UTF-8."""
    text = json.dumps(valid)
    kind = draw(st.sampled_from(["payload", "payload", "truncate", "trail", "encoding"]))
    if kind == "payload":
        return json.dumps(draw(payloads())).encode()
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))].encode()
    if kind == "trail":
        return (text + draw(st.sampled_from(["x", "}", ",", "]", "{}", "\x00"]))).encode()
    return b"\xff" + text.encode()


# M is the malformed file, S a valid single-pair state
STATE_VERBS = [
    ["ppt", "--state", "M"], ["f2", "--state", "M"], ["fd", "--state", "M", "--D", "2"],
    ["ncopy", "--state", "M"], ["ncopy", "--state", "M", "--n", "1"],
    ["symmetrize", "--state", "M"], ["defclose", "--state", "M"],
    ["tomo-sim", "--state", "M", "--shots", "10"], ["tomo-pipeline", "--state", "M"],
    ["activate-check", "--rho", "M", "--sigma", "S"], ["activate-check", "--rho", "S", "--sigma", "M"],
    ["activate-search", "--sigma", "M"],
]
ENSEMBLE_VERBS = [["mixpow", "--ensemble", "M", "--k", "2"], ["tomo-pipeline", "--ensemble", "M"]]


class TestMalformedFiles:
    """Every verb that reads a file meets malformed input with exit code 2 or 3,
    no stdout, no artifact and one ``error:`` line: never the verdict code 1,
    a traceback, or a warning."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("malformed")
        (path / "s.json").write_text(json.dumps(VALID_STATE))
        return path

    def check(self, workdir, verb, content):
        bad, out = workdir / "m.json", workdir / "out"
        bad.write_bytes(content)
        out.unlink(missing_ok=True)
        argv = [{"M": str(bad), "S": str(workdir / "s.json")}.get(a, a) for a in verb]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv + ["--out", str(out)])
        err = stderr.getvalue()
        assert code in (2, 3), (verb, content, err)
        assert stdout.getvalue() == "" and not out.exists()
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert not caught, [str(w.message) for w in caught]

    @settings(max_examples=400, deadline=None)
    @given(verb=st.sampled_from(STATE_VERBS), content=malformed_file(VALID_STATE, malformed_state))
    def test_malformed_state_files(self, workdir, verb, content):
        self.check(workdir, verb, content)

    @settings(max_examples=150, deadline=None)
    @given(verb=st.sampled_from(ENSEMBLE_VERBS), content=malformed_file(VALID_ENSEMBLE, malformed_ensemble))
    def test_malformed_ensemble_files(self, workdir, verb, content):
        self.check(workdir, verb, content)


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

    def test_tomo_sim_counts_json(self, tmp_path, werner_file):
        out = tmp_path / "c.json"
        assert run(["tomo-sim", "--state", werner_file, "--shots", "1000",
                    "--seed", "3", "--out", str(out)]) == 0
        payload = read_json(out)
        assert set(payload) == {"counts", "meta"} and len(payload["counts"]) == 16
        assert payload["meta"]["command"] == "tomo-sim" and payload["meta"]["seed"] == 3
        counts = tomography.load_counts(out)
        assert counts.shots == 1000 and list(counts.counts) == payload["counts"]

    def test_tomo_pipeline_verdict(self, tmp_path, werner_file):
        out = tmp_path / "p.json"
        code = run(["tomo-pipeline", "--state", werner_file, "--shots", "20000",
                    "--seed", "5", "--out", str(out)])
        assert code == 1
        payload = read_json(out)
        assert payload["verdict"] == "distillable"
        assert payload["surrogate"] is True

    def test_zero_second_frame_is_usage_error(self, capsys, tmp_path):
        # a pair is measured by its two local frames, which tomo-sim builds; the
        # product frame's --m2 is an unknown option, exit 2, whatever its value
        out = tmp_path / "f.json"
        for m2 in ("0", "2"):
            assert run(["tomo-frame", "--m", "2", "--m2", m2, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert f"unrecognized arguments: --m2 {m2}" in captured.err


class TestActivationCommands:
    def test_jam_check(self, capsys, tmp_path):
        # the induced-map identity holds for every valid input, so it is checked by the
        # tests (conftest.jam_check); like undistill1, jam-check is an unknown verb, exit 2
        rho, sig, out = tmp_path / "r.json", tmp_path / "s.json", tmp_path / "j.json"
        run(["state", "--family", "random_mixed", "--d", "2", "--seed", "4",
             "--out", str(rho)])
        dk.save_state(dk.BipartiteState(np.eye(16) / 16, 4, 4), sig)
        capsys.readouterr()
        assert run(["jam-check", "--rho", str(rho), "--sigma", str(sig),
                    "--trials", "10", "--seed", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice: 'jam-check'" in captured.err
        assert not out.exists()

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
        assert run(["activate-check", "--rho", str(rho), "--sigma", str(sig)]) == 1

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

    def test_activation_above_the_cap(self, tmp_path):
        # d = 6: rho (x) sigma would be one pair of dimension 4 * 6**4 = 5184 > 4096,
        # which the induced map never forms
        rng = np.random.default_rng(3)
        rho, sig, out = tmp_path / "r.json", tmp_path / "s.json", tmp_path / "a.json"
        dk.save_state(dk.construct_state(dk.StateFamilySpec(dk.Family.MAX_ENTANGLED, 6)), rho)
        dk.save_state(dk.BipartiteState(dk.linalg.random_density(rng, 144), 12, 12), sig)
        for argv in (["activate-check", "--rho", str(rho)], ["activate-search"]):
            code = run(argv + ["--sigma", str(sig), "--out", str(out)])
            payload = read_json(out)
            assert payload["success_weight"] > DENOM_REG and 0 <= payload["fidelity"] <= 1
            assert code == (1 if payload["witness"] < -1e-9 else 0)
        assert payload["gap"] >= 0

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
