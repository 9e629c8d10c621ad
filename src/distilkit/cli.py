"""Batch command-line front end.

One verb per library operation; every invocation writes at most one output
artifact, prints a single summary line on stdout, and embeds
``{"seed", "version", "command", "options"}`` in the artifact so runs can be
reproduced; only the verbs that draw random numbers take ``--seed`` and
record a ``seed``.  Every verb writes its full report as strict JSON.
Exit codes: 0 success, 1 domain verdict (violation/activator found), 2 usage
or input error, 3 numerical/capacity error (a MemoryError included).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__, activation, distillability, states, symmetry, tomography
from .errors import DistilKitError, ParameterError
from .states import Family, StateFamilySpec

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

F2_VERDICT_TOL = 1e-6


def _meta(args: argparse.Namespace) -> dict:
    options = {k: v for k, v in vars(args).items()
               if k not in ("func", "out", "command", "seed") and v is not None}
    seeded = {"seed": args.seed} if "seed" in vars(args) else {}
    return {**seeded, "version": __version__, "command": args.command, "options": options}


def _write_json(args, payload: dict) -> None:
    """Write the verb's report, with its ``meta`` record, as strict JSON to ``--out``."""
    if args.out:
        states.write_json(args.out, {**payload, "meta": _meta(args)})


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# --------------------------------------------------------------------------
# subcommand handlers (each returns the exit code)
# --------------------------------------------------------------------------

def cmd_state(args) -> int:
    params = {k: v for k, v in (("p", args.p), ("dB", args.dB)) if v is not None}
    state = states.construct_state(StateFamilySpec(Family(args.family), d=args.d, params=params),
                                   seed=args.seed)
    _write_json(args, states.state_to_dict(state))
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
                            iters=args.iters, tol=args.tol, seed=args.seed)
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
    _write_json(args, states.state_to_dict(out))
    print(f"symmetrized pairs={out.pairs} double={bool(args.double)}")
    return EXIT_OK


def cmd_mixpow(args) -> int:
    ens = symmetry.load_ensemble(args.ensemble)
    out = symmetry.mixture_of_powers(ens, args.k)
    _write_json(args, states.state_to_dict(out))
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
    _write_json(args, {"distance": val, "ensemble": symmetry.ensemble_to_dict(ens)})
    print(f"distance={_fmt(val)} support={len(ens.members)}")
    return EXIT_OK


def cmd_tomo_frame(args) -> int:
    frame = tomography.minimal_ic_povm(args.m)
    payload = {
        "dim": frame.dim,
        "elements": [states.encode_matrix(e) for e in frame.elements],
        "duals": [states.encode_matrix(d) for d in frame.duals],
    }
    _write_json(args, payload)
    print(f"frame dim={frame.dim} outcomes={frame.n_outcomes}")
    return EXIT_OK


def cmd_tomo_sim(args) -> int:
    state = states.load_state(args.state)
    frames = tomography.local_frame(state)
    counts = tomography.simulate_measurements(state, frames, args.shots, args.seed)
    _write_json(args, counts.to_dict())
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
    _write_json(args, rep.to_dict())
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
                       "success_weight": weight, "rho": states.state_to_dict(rho)})
    found = witness < -distillability.VIOLATION_TOL
    print(f"witness={_fmt(witness)} fidelity={_fmt(fidelity)} activated={found}")
    return EXIT_VERDICT if found else EXIT_OK


def cmd_activate_search(args) -> int:
    sigma = states.load_state(args.sigma)
    rep = activation.search_activator(sigma)
    _write_json(args, rep.to_dict())
    found = not rep.budget_exhausted
    print(f"witness={_fmt(rep.witness)} found={found} gap={_fmt(rep.gap)}")
    return EXIT_VERDICT if found else EXIT_OK


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

    def add(name, fn, seeded=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        p.add_argument("--out", help="output artifact path")
        if seeded:
            p.add_argument("--seed", type=int, default=None)
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
    p.add_argument("--tol", type=float, default=distillability.DEFAULT_TOL)

    p = add("ppt", cmd_ppt, seeded=False, help="partial-transpose positivity test")
    p.add_argument("--state", required=True)

    p = add("ncopy", cmd_ncopy, help="Schmidt-rank-2 violation search on the n-fold tensor power")
    p.add_argument("--state", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--budget", type=int, default=20)

    p = add("symmetrize", cmd_symmetrize, seeded=False, help="pair-permutation group average")
    p.add_argument("--state", required=True)
    p.add_argument("--double", action="store_true",
                   help="average A-side and B-side pair permutations independently")

    p = add("mixpow", cmd_mixpow, seeded=False, help="mixture of k-fold product powers")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("definetti-bound", cmd_definetti_bound, seeded=False,
            help="finite de Finetti bound 4 d^4 k / n")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("defclose", cmd_defclose, help="distance to mixtures of product powers")
    p.add_argument("--state", required=True)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--iters", type=int, default=40)

    p = add("tomo-frame", cmd_tomo_frame, seeded=False, help="minimal IC-POVM")
    p.add_argument("--m", type=int, required=True)

    p = add("tomo-sim", cmd_tomo_sim, help="simulate POVM outcome counts")
    p.add_argument("--state", required=True)
    p.add_argument("--shots", type=int, required=True)

    p = add("tomo-pipeline", cmd_tomo_pipeline, help="estimate, project, decide, filter")
    p.add_argument("--state", default=None)
    p.add_argument("--ensemble", default=None)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--shots", type=int, default=10_000)
    p.add_argument("--budget", type=int, default=20)

    p = add("chernoff", cmd_chernoff, seeded=False, help="large-deviation tail bound")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cardinality", type=int, required=True)

    p = add("activate-check", cmd_activate_check, seeded=False,
            help="activation witness for a given pair")
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)

    p = add("activate-search", cmd_activate_search, help="exact least activation witness")
    p.add_argument("--sigma", required=True)
    # ignored: the search is exact; perfbench/test_checks.py is the only caller still passing it
    p.add_argument("--budget", help=argparse.SUPPRESS)

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
    except (DistilKitError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:  # unreadable or unwritable files, malformed fields
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
