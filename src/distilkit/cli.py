"""Batch command-line front end.

One verb per library operation; every invocation writes at most one output
artifact, prints a single summary line on stdout, and embeds
``{"seed", "version", "command", "options"}`` in the artifact so runs can be
reproduced.  Exit codes: 0 success, 1 domain verdict (violation/activator
found), 2 usage or input error, 3 numerical/capacity error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__, activation, distillability, states, symmetry, tomography
from .errors import DistilKitError, ParameterError
from .states import BipartiteState, Family, StateFamilySpec

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

F2_VERDICT_TOL = 1e-6


def _meta(args: argparse.Namespace) -> dict:
    options = {k: v for k, v in vars(args).items() if k not in ("func", "out") and v is not None}
    return {
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "command": args.command,
        "options": options,
    }


def _write_json(args, payload: dict, structured: bool = False) -> None:
    """Write the single output artifact in the requested format.

    CSV output is available for flat scalar reports only; structured payloads
    (states, frames, ensembles) must stay JSON.
    """
    if not getattr(args, "out", None):
        return
    fmt = getattr(args, "format", None) or "json"
    if fmt == "json":
        payload = dict(payload)
        payload["meta"] = _meta(args)
        with open(args.out, "w") as fh:
            json.dump(payload, fh)
        return
    if structured:
        raise ParameterError("csv format is not available for structured artifacts")
    scalars = {k: v for k, v in payload.items()
               if isinstance(v, (int, float, bool, str)) or v is None}
    if not scalars:
        raise ParameterError("csv format is not available for structured reports")
    _write_csv(args, list(scalars), [list(scalars.values())])


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_csv(args, header: list[str], rows: list[list]) -> None:
    if not getattr(args, "out", None):
        return
    with open(args.out, "w", newline="") as fh:
        fh.write("# meta: " + json.dumps(_meta(args)) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _family_state(args) -> BipartiteState:
    params = {}
    if getattr(args, "p", None) is not None:
        params["p"] = args.p
    if getattr(args, "dB", None) is not None:
        params["dB"] = args.dB
    spec = StateFamilySpec(Family(args.family), d=args.d, params=params)
    return states.construct_state(spec, seed=getattr(args, "seed", None))


# --------------------------------------------------------------------------
# subcommand handlers (each returns the exit code)
# --------------------------------------------------------------------------

def cmd_state(args) -> int:
    state = _family_state(args)
    payload = states.state_to_dict(state)
    _write_json(args, payload, structured=True)
    print(f"state family={args.family} d={args.d} dim={state.dim} -> {args.out or '-'}")
    return EXIT_OK


def cmd_f2(args) -> int:
    state = states.load_state(args.state)
    rep = distillability.f2(state, restarts=args.restarts, iters=args.iters,
                            tol=args.tol, seed=args.seed)
    _write_json(args, rep.to_dict())
    verdict = rep.value > 0.5 + F2_VERDICT_TOL
    print(f"f2={_fmt(rep.value)} distillable={verdict}")
    return EXIT_VERDICT if verdict else EXIT_OK


def cmd_fd(args) -> int:
    state = states.load_state(args.state)
    if args.D < 2:
        raise ParameterError("need D >= 2")
    lam = args.lam if args.lam is not None else 1.0 / args.D
    if not 1.0 / args.D <= lam < 1.0:
        raise ParameterError(f"lambda must lie in [1/{args.D}, 1)")
    rep = distillability.fD(state, args.D, restarts=args.restarts,
                            iters=args.iters, seed=args.seed)
    payload = rep.to_dict()
    payload["D"] = args.D
    payload["lambda"] = lam
    _write_json(args, payload)
    verdict = rep.value > lam + F2_VERDICT_TOL
    print(f"fD={_fmt(rep.value)} D={args.D} lambda={_fmt(lam)} beats={verdict}")
    return EXIT_VERDICT if verdict else EXIT_OK


def cmd_ppt(args) -> int:
    state = states.load_state(args.state)
    flag, lo = distillability.is_ppt(state)
    _write_json(args, {"ppt": flag, "min_eigenvalue": lo})
    print(f"ppt={flag} min_eigenvalue={_fmt(lo)}")
    return EXIT_OK if flag else EXIT_VERDICT


def cmd_undistill1(args) -> int:
    state = states.load_state(args.state)
    rep = distillability.single_copy_distillable(state, budget=args.budget, seed=args.seed)
    _write_json(args, rep.to_dict())
    found = rep.value < -distillability.VIOLATION_TOL
    print(f"value={_fmt(rep.value)} violation={found} budget_exhausted={rep.budget_exhausted}")
    return EXIT_VERDICT if found else EXIT_OK


def cmd_ncopy(args) -> int:
    state = states.load_state(args.state)
    rep = distillability.n_copy_distillable(state, args.n, budget=args.budget, seed=args.seed)
    _write_json(args, rep.to_dict())
    found = rep.value < -distillability.VIOLATION_TOL
    print(f"n={args.n} value={_fmt(rep.value)} violation={found}")
    return EXIT_VERDICT if found else EXIT_OK


def cmd_symmetrize(args) -> int:
    state = states.load_state(args.state)
    out = symmetry.double_symmetrize(state) if args.double else symmetry.symmetrize(state)
    _write_json(args, states.state_to_dict(out), structured=True)
    print(f"symmetrized pairs={out.pairs} double={bool(args.double)}")
    return EXIT_OK


def cmd_mixpow(args) -> int:
    ens = symmetry.load_ensemble(args.ensemble)
    out = symmetry.mixture_of_powers(ens, args.k)
    _write_json(args, states.state_to_dict(out), structured=True)
    print(f"mixture of powers k={args.k} dim={out.dim}")
    return EXIT_OK


def cmd_definetti_bound(args) -> int:
    val = symmetry.definetti_bound(args.d, args.k, args.n)
    _write_json(args, {"bound": val})
    print(_fmt(val))
    return EXIT_OK


def cmd_defclose(args) -> int:
    state = states.load_state(args.state)
    val, ens = symmetry.best_product_mixture_distance(
        state, restarts=args.restarts, iters=args.iters, seed=args.seed)
    _write_json(args, {"distance": val, "ensemble": symmetry.ensemble_to_dict(ens)}, structured=True)
    print(f"distance={_fmt(val)} support={len(ens.members)}")
    return EXIT_OK


def cmd_tomo_frame(args) -> int:
    frame = tomography.minimal_ic_povm(args.m)
    if args.m2:
        frame = tomography.product_frame(frame, tomography.minimal_ic_povm(args.m2))
    payload = {
        "dim": frame.dim,
        "elements": [states.encode_matrix(e) for e in frame.elements],
        "duals": [states.encode_matrix(d) for d in frame.duals],
    }
    _write_json(args, payload, structured=True)
    print(f"frame dim={frame.dim} outcomes={frame.n_outcomes}")
    return EXIT_OK


def cmd_tomo_sim(args) -> int:
    state = states.load_state(args.state)
    frame = tomography.local_frame(state)
    counts = tomography.simulate_measurements(state, frame, args.shots, args.seed)
    if (args.format or "csv") == "csv":
        _write_csv(args, ["outcome_index", "count"],
                   [[i, c] for i, c in enumerate(counts.counts)])
    else:
        _write_json(args, {"counts": list(counts.counts), "shots": counts.shots})
    print(f"shots={counts.shots} outcomes={len(counts.counts)}")
    return EXIT_OK


def cmd_tomo_pipeline(args) -> int:
    if bool(args.ensemble) == bool(args.state):
        raise ParameterError("provide exactly one of --state or --ensemble")
    if args.ensemble:
        source = symmetry.load_ensemble(args.ensemble)
    else:
        source = states.load_state(args.state)
    rep = tomography.estimation_pipeline(source, n=args.n, m_shots=args.shots,
                                         budget=args.budget, seed=args.seed)
    _write_json(args, rep.to_dict(), structured=True)
    print(f"verdict={rep.verdict} f_m={_fmt(rep.f_m)} chernoff={_fmt(rep.chernoff)}")
    return EXIT_VERDICT if rep.verdict == "distillable" else EXIT_OK


def cmd_chernoff(args) -> int:
    bound = tomography.chernoff_tail(args.delta, args.n, args.cardinality)
    raw = bound.raw if np.isfinite(bound.raw) else None  # JSON has no Infinity
    _write_json(args, {"reported": bound.reported, "raw": raw, "exponent": bound.exponent})
    print(_fmt(bound.reported))
    return EXIT_OK


def cmd_activate_check(args) -> int:
    rho = states.load_state(args.rho)
    sigma = states.load_state(args.sigma)
    witness, fidelity, weight = activation.evaluate_activation(rho, sigma)
    _write_json(args, {"witness": witness, "fidelity": fidelity,
                       "success_weight": weight, "rho": states.state_to_dict(rho)}, structured=True)
    found = witness < -distillability.VIOLATION_TOL
    print(f"witness={_fmt(witness)} fidelity={_fmt(fidelity)} activated={found}")
    return EXIT_VERDICT if found else EXIT_OK


def cmd_activate_search(args) -> int:
    sigma = states.load_state(args.sigma)
    rep = activation.search_activator(sigma)
    _write_json(args, rep.to_dict(), structured=True)
    found = not rep.budget_exhausted
    print(f"witness={_fmt(rep.witness)} found={found} gap={_fmt(rep.gap)}")
    return EXIT_VERDICT if found else EXIT_OK


def cmd_jam_check(args) -> int:
    rho = states.load_state(args.rho)
    sigma = states.load_state(args.sigma)
    inst = activation.ActivationInstance(rho, sigma, rho.dimA)
    c, dev = activation.jam_check(inst, trials=args.trials, seed=args.seed)
    _write_json(args, {"c": c, "max_deviation": dev})
    ok = dev <= 1e-9
    print(f"c={_fmt(c)} max_deviation={dev:.3e} ok={ok}")
    return EXIT_OK if ok else EXIT_NUMERIC


def _sweep_values(args) -> list[float]:
    if args.values:
        return [float(v) for v in args.values.split(",") if v.strip()]
    if args.start is None or args.stop is None or args.step is None:
        raise ParameterError("sweep needs --values or --start/--stop/--step")
    if args.step <= 0 or args.stop < args.start:
        raise ParameterError("empty sweep range")
    vals = []
    v = args.start
    while v <= args.stop + 1e-12:
        vals.append(round(v, 12))
        v += args.step
    if not vals:
        raise ParameterError("empty sweep range")
    return vals


def cmd_sweep(args) -> int:
    if args.format == "json":
        raise ParameterError("sweep emits a CSV table")
    values = _sweep_values(args)
    base_seed = args.seed if args.seed is not None else 0
    rows = []
    header: list[str]
    if args.task == "f2":
        if args.param != "p":
            raise ParameterError("task f2 sweeps the family weight --param p")
        header = [args.param, "value", "ppt", "min_pt_eigenvalue"]
        for idx, p in enumerate(values):
            spec = StateFamilySpec(Family(args.family), d=args.d, params={"p": p})
            state = states.construct_state(spec, seed=None)
            rep = distillability.f2(state, restarts=args.restarts, iters=args.iters,
                                    seed=base_seed + idx)
            flag, lo = distillability.is_ppt(state)
            rows.append([p, rep.value, flag, lo])
    elif args.task == "ppt":
        if args.param != "p":
            raise ParameterError("task ppt sweeps the family weight --param p")
        header = [args.param, "ppt", "min_pt_eigenvalue"]
        for p in values:
            spec = StateFamilySpec(Family(args.family), d=args.d, params={"p": p})
            state = states.construct_state(spec, seed=None)
            flag, lo = distillability.is_ppt(state)
            rows.append([p, flag, lo])
    elif args.task == "tomo-pipeline":
        if args.param != "shots":
            raise ParameterError("task tomo-pipeline sweeps --param shots")
        source = states.load_state(args.state) if args.state else _family_state(args)
        truth = source if source.pairs == 1 else states.partial_trace(source, {1})
        header = ["shots", "f_m", "chernoff", "trace_distance", "verdict"]
        for idx, shots in enumerate(values):
            dists, fms, cherns, verdicts = [], [], [], []
            for r in range(args.repeats):
                rep = tomography.estimation_pipeline(
                    source, n=args.n, m_shots=int(shots), budget=args.budget,
                    seed=base_seed + idx * args.repeats + r)
                dists.append(states.trace_distance(rep.sigma_m, truth))
                fms.append(rep.f_m)
                cherns.append(rep.chernoff)
                verdicts.append(rep.verdict)
            rows.append([int(shots), float(np.median(fms)), float(np.median(cherns)),
                         float(np.median(dists)), max(set(verdicts), key=verdicts.count)])
    else:
        raise ParameterError(f"unknown sweep task {args.task!r}")
    _write_csv(args, header, rows)
    print(f"sweep task={args.task} rows={len(rows)} -> {args.out or '-'}")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distilkit",
        description="Batch toolkit for bipartite entanglement distillability numerics.",
    )
    parser.add_argument("--version", action="version", version=f"distilkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        p.add_argument("--out", help="output artifact path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=["json", "csv"], default=None,
                       help="artifact format (csv only for flat scalar reports)")
        return p

    p = add("state", cmd_state, help="construct a named-family state")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--dB", type=int, default=None)

    p = add("f2", cmd_f2, help="filtered singlet-fraction see-saw")
    p.add_argument("--state", required=True)
    p.add_argument("--restarts", type=int, default=distillability.DEFAULT_RESTARTS)
    p.add_argument("--iters", type=int, default=distillability.DEFAULT_ITERS)
    p.add_argument("--tol", type=float, default=distillability.DEFAULT_TOL)

    p = add("fd", cmd_fd, help="filtered phi_D fraction see-saw")
    p.add_argument("--state", required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--restarts", type=int, default=distillability.DEFAULT_RESTARTS)
    p.add_argument("--iters", type=int, default=distillability.DEFAULT_ITERS)

    p = add("ppt", cmd_ppt, help="partial-transpose positivity test")
    p.add_argument("--state", required=True)

    p = add("undistill1", cmd_undistill1, help="single-copy Schmidt-rank-2 violation search")
    p.add_argument("--state", required=True)
    p.add_argument("--budget", type=int, default=20)

    p = add("ncopy", cmd_ncopy, help="n-copy violation search on the tensor power")
    p.add_argument("--state", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=20)

    p = add("symmetrize", cmd_symmetrize, help="pair-permutation group average")
    p.add_argument("--state", required=True)
    p.add_argument("--double", action="store_true",
                   help="average A-side and B-side pair permutations independently")

    p = add("mixpow", cmd_mixpow, help="mixture of k-fold product powers")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("definetti-bound", cmd_definetti_bound, help="finite de Finetti bound 4 d^4 k / n")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("defclose", cmd_defclose, help="distance to mixtures of product powers")
    p.add_argument("--state", required=True)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--iters", type=int, default=40)

    p = add("tomo-frame", cmd_tomo_frame, help="minimal IC-POVM (optionally a product frame)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--m2", type=int, default=None)

    p = add("tomo-sim", cmd_tomo_sim, help="simulate POVM outcomes (CSV counts)")
    p.add_argument("--state", required=True)
    p.add_argument("--shots", type=int, required=True)

    p = add("tomo-pipeline", cmd_tomo_pipeline, help="estimate, project, decide, filter")
    p.add_argument("--state", default=None)
    p.add_argument("--ensemble", default=None)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--shots", type=int, default=10_000)
    p.add_argument("--budget", type=int, default=20)

    p = add("chernoff", cmd_chernoff, help="large-deviation tail bound")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cardinality", type=int, required=True)

    p = add("activate-check", cmd_activate_check, help="activation witness for a given pair")
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)

    p = add("activate-search", cmd_activate_search, help="exact least activation witness")
    p.add_argument("--sigma", required=True)
    # ignored: the search is exact; perfbench/test_checks.py is the only caller still passing it
    p.add_argument("--budget", help=argparse.SUPPRESS)

    p = add("jam-check", cmd_jam_check, help="induced-map proportionality identity check")
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--trials", type=int, default=20)

    p = add("sweep", cmd_sweep, help="parameter sweep emitting a CSV table")
    p.add_argument("--task", required=True, choices=["f2", "ppt", "tomo-pipeline"])
    p.add_argument("--param", required=True)
    p.add_argument("--values", default=None, help="comma-separated values")
    p.add_argument("--start", type=float, default=None)
    p.add_argument("--stop", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--family", default="werner")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--dB", type=int, default=None)
    p.add_argument("--state", default=None)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--budget", type=int, default=20)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--restarts", type=int, default=distillability.DEFAULT_RESTARTS)
    p.add_argument("--iters", type=int, default=distillability.DEFAULT_ITERS)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DistilKitError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:  # unreadable or unwritable files, malformed fields
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
