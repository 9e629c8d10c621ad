"""Workload ``cli``: chains of ``distilkit`` verbs, one subprocess at a time.

A round runs ``CHAINS`` chains of 14 verbs in a fixed order; later verbs
read the JSON artifacts earlier ones wrote, the way a batch user chains
them.  Inputs that no verb can make (ensembles, the activation target, the
dimension-256 states) are written by the benchmark's own JSON writer, so the
set-up does not import distilkit.  Werner weights, random matrices and the
de Finetti arguments are drawn from the workload seed.

Each item is timed from process spawn to exit; exit code 1 is a verdict,
not a failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import checks

IN_PROCESS = False

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACED_CLI = HERE / "traced_cli.py"

CHAINS = 3
SHOTS = 100_000
TOMO_P = 0.75
CHILD_TIMEOUT_S = 120.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], env: dict, cwd: Path, timeout: float = CHILD_TIMEOUT_S):
    """Run one process; returns (exit code, stdout, peak RSS in KiB, start, end).

    ``os.wait4`` gives this child's own resource usage, and a blocking wait
    timestamps the exit without polling delay.
    """
    with open(cwd / "stderr.log", "ab") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            end = perf_counter()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout.decode(errors="replace").strip(), usage.ru_maxrss, start, end


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))  # one string: json.dump's chunked writes are 4x slower


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# per-verb checks: each gets (exit code, stdout line, artifact payload or None)
# ---------------------------------------------------------------------------

def check_state(expected: np.ndarray):
    def check(code, line, art):
        errs = checks.check_exit(code, None)
        dev = float(np.abs(checks.matrix_from_payload(art) - expected).max())
        if dev > checks.EXACT:
            errs.append(f"state artifact differs from the closed form by {dev:.3e}")
        return errs
    return check


def check_ppt(d: int, p: float):
    lam = checks.werner_pt_min(d, p)

    def check(code, line, art):
        flag = checks.stdout_fields(line).get("ppt") == "True"
        errs = checks.check_exit(code, not flag)
        if flag != (lam >= -checks.CERT) or bool(art["ppt"]) != flag:
            errs.append(f"ppt verdict {flag} for closed-form eigenvalue {lam!r}")
        if not abs(art["min_eigenvalue"] - lam) <= checks.EXACT:
            errs.append(f"ppt eigenvalue {art['min_eigenvalue']!r}, closed form {lam!r}")
        return errs
    return check


def check_f2(mat: np.ndarray, p: float):
    def check(code, line, art):
        value = art["value"]
        verdict = value > 0.5 + checks.F2_MARGIN
        errs = checks.check_exit(code, verdict)
        if checks.stdout_fields(line).get("distillable") != str(verdict):
            errs.append(f"f2 stdout {line!r} disagrees with value {value!r}")
        errs += checks.close("f2 closed form max(p, 1/2)", value, max(p, 0.5), checks.CERT)
        cert = art["certificate"]
        errs += checks.check_filter_value("f2", mat, value, checks.filter_from_payload(cert["A"]),
                                          checks.filter_from_payload(cert["B"]))
        return errs
    return check


def check_ncopy(mat: np.ndarray, d: int):
    pt2 = checks.global_cut(checks.partial_transpose(np.kron(mat, mat), d, d, 2), d, d, 2)
    ppt = checks.min_eig(checks.partial_transpose(mat, d, d)) >= -checks.CERT

    def check(code, line, art):
        value = art["value"]
        found = value < -checks.CERT
        errs = checks.check_exit(code, found)
        if checks.stdout_fields(line).get("violation") != str(found):
            errs.append(f"ncopy stdout {line!r} disagrees with value {value!r}")
        vec = np.asarray(art["certificate"]["vector"], dtype=float)
        errs += checks.check_schmidt_certificate("ncopy", pt2, d * d, d * d, value,
                                                 vec[:, 0] + 1j * vec[:, 1])
        if ppt and found:
            errs.append(f"PPT input has a two-copy violation {value!r}")
        return errs
    return check


def check_tomo(code, line, art):
    errs = checks.check_exit(code, art["verdict"] == "distillable")
    if art["verdict"] != "distillable" or checks.stdout_fields(line).get("verdict") != "distillable":
        errs.append(f"tomo-pipeline on Werner p = {TOMO_P} gave {line!r}")
    errs += checks.close("tomo-pipeline f_m", art["f_m"], 0.5 - TOMO_P, 0.02)
    return errs


def check_activate(code, line, art):
    found = checks.stdout_fields(line).get("found") == "True"
    errs = checks.check_exit(code, found)
    if not found or not art["witness"] < -checks.CERT:
        errs.append(f"no activator found for phi_2 (x) phi_2: {line!r}")
    if not (art["fidelity"] or 0.0) >= 1 - 1e-9:
        errs.append(f"activated fidelity {art['fidelity']!r} < 1 - 1e-9")
    return errs


def check_twirl(rho: np.ndarray, k: int):
    def check(code, line, art):
        return checks.check_exit(code, None) + checks.check_twirl(
            rho, checks.matrix_from_payload(art), 4, k)
    return check


def check_echo(payload: dict):
    expected = np.asarray(payload["matrix"])

    def check(code, line, art):
        errs = checks.check_exit(code, None)
        if not np.array_equal(np.asarray(art["matrix"]), expected):
            errs.append("state artifact did not read back bit-exact")
        return errs
    return check


def check_mixpow(weights, members, k: int):
    def check(code, line, art):
        mix = checks.matrix_from_payload(art)
        margs = [checks.pair_marginal(mix, 4, k, j) for j in range(k)]
        return checks.check_exit(code, None) + checks.check_mixture(
            margs, mix, weights, members, 2, 2, k)
    return check


def check_bound(d: int, k: int, n: int):
    want = 4.0 * d ** 4 * k / n

    def check(code, line, art):
        errs = checks.check_exit(code, None)
        if not abs(float(line) - want) <= 1e-11 * want:
            errs.append(f"definetti-bound printed {line!r}, 4 d^4 k / n = {want!r}")
        return errs
    return check


# ---------------------------------------------------------------------------
# items
# ---------------------------------------------------------------------------

@dataclass
class Item:
    label: str
    argv: list[str]
    out: str | None
    verify: Callable
    workdir: Path

    def run(self, traced: bool = False) -> dict:
        env = child_env()
        if traced:
            spans_path = self.workdir / "spans.json"
            env["PERFBENCH_SPANS"] = str(spans_path)
            cmd = [sys.executable, str(TRACED_CLI), *self.argv]
        else:
            cmd = [sys.executable, "-m", "distilkit.cli", *self.argv]
        code, line, rss_kb, start, end = run_child(cmd, env, self.workdir)
        res = {"code": code, "line": line, "rss_kb": rss_kb, "start": start, "end": end,
               "elapsed": end - start}
        if traced:
            res["child"] = read_json(spans_path)
            res["bytes"] = (self.workdir / self.out).stat().st_size if self.out else 0
        return res

    def check(self, res: dict) -> list[str]:
        art = read_json(self.workdir / self.out) if self.out else None
        return self.verify(res["code"], res["line"], art)


def _werner_point(rng: np.random.Generator, entangled: bool) -> float:
    return float(rng.uniform(0.55, 0.9) if entangled else rng.uniform(0.1, 0.45))


def _chain(c: int, rng: np.random.Generator, wd: Path) -> list[Item]:
    pre = f"c{c}-"
    seed = str(int(rng.integers(0, 2 ** 31)))

    def item(label, argv, out, verify):
        return Item(f"{pre}{label}", argv + (["--out", pre + out] if out else []),
                    pre + out if out else None, verify, wd)

    p2 = _werner_point(rng, entangled=c != 1)
    p3 = _werner_point(rng, entangled=c == 1)
    w2, w3, w75 = checks.werner(2, p2), checks.werner(3, p3), checks.werner(2, TOMO_P)

    # correlated copies: Werner members whose average is Werner(TOMO_P)
    pa, pb = rng.uniform(0.8, 1.0), rng.uniform(0.2, 0.7)
    wa = (TOMO_P - pb) / (pa - pb)
    write_json(wd / f"{pre}ens.json", {
        "weights": [wa, 1.0 - wa],
        "members": [checks.matrix_to_payload(checks.werner(2, x), 2, 2) for x in (pa, pb)]})

    # target phi_2 (x) phi_2 on A2 A3 | B2 B3 (activator dimension d = 2)
    raw = np.kron(checks.phi(2), checks.phi(2))  # A2 B2 A3 B3
    sigma = checks.swap_slots(raw, (2, 2, 2, 2), 1, 2)  # A2 A3 B2 B3
    write_json(wd / f"{pre}sigma.json", checks.matrix_to_payload(sigma, 4, 4))

    big = checks.random_density(rng, 256)
    write_json(wd / f"{pre}big.json", checks.matrix_to_payload(big, 2, 2, 4))
    echo = checks.matrix_to_payload(checks.random_density(rng, 256), 16, 16)
    write_json(wd / f"{pre}echo.json", echo)

    members = [checks.random_ppt_pair(rng) if c == 0 else checks.random_density(rng, 4)
               for _ in range(3)]
    mw = rng.dirichlet(np.ones(3))
    mw[-1] = 1.0 - mw[:-1].sum()
    write_json(wd / f"{pre}ens4.json", {
        "weights": mw.tolist(), "members": [checks.matrix_to_payload(m, 2, 2) for m in members]})

    d, k = int(rng.integers(2, 4)), int(rng.integers(1, 5))
    n = int(rng.integers(k, 500))

    return [
        item("state-w2", ["state", "--family", "werner", "--d", "2", "--p", repr(p2)], "w2.json",
             check_state(w2)),
        item("ppt-w2", ["ppt", "--state", pre + "w2.json"], "ppt2.json", check_ppt(2, p2)),
        item("f2", ["f2", "--state", pre + "w2.json", "--restarts", "32", "--seed", seed],
             "f2.json", check_f2(w2, p2)),
        item("ncopy", ["ncopy", "--state", pre + "w2.json", "--n", "2", "--seed", seed],
             "ncopy.json", check_ncopy(w2, 2)),
        item("state-w3", ["state", "--family", "werner", "--d", "3", "--p", repr(p3)], "w3.json",
             check_state(w3)),
        item("ppt-w3", ["ppt", "--state", pre + "w3.json"], "ppt3.json", check_ppt(3, p3)),
        item("state-w75", ["state", "--family", "werner", "--d", "2", "--p", repr(TOMO_P)],
             "w75.json", check_state(w75)),
        item("tomo-state", ["tomo-pipeline", "--state", pre + "w75.json", "--shots", str(SHOTS),
                            "--seed", seed], "tomo-state.json", check_tomo),
        item("tomo-ensemble", ["tomo-pipeline", "--ensemble", pre + "ens.json", "--shots",
                               str(SHOTS), "--seed", seed], "tomo-ens.json", check_tomo),
        item("activate-search", ["activate-search", "--sigma", pre + "sigma.json", "--seed", seed],
             "act.json", check_activate),
        item("symmetrize", ["symmetrize", "--state", pre + "big.json"], "sym.json",
             check_twirl(big, 4)),
        item("symmetrize-echo", ["symmetrize", "--state", pre + "echo.json"], "echo-out.json",
             check_echo(echo)),
        item("mixpow", ["mixpow", "--ensemble", pre + "ens4.json", "--k", "4"], "mixpow.json",
             check_mixpow(mw, members, 4)),
        item("definetti-bound", ["definetti-bound", "--d", str(d), "--k", str(k), "--n", str(n)],
             None, check_bound(d, k, n)),
    ]


def build(seed: int, workdir: Path) -> list[Item]:
    items = []
    for c in range(CHAINS):
        items += _chain(c, np.random.default_rng([seed, 3, c]), workdir)
    return items
