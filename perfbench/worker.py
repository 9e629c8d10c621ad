"""One benchmark process: set-up, then timed rounds or one traced round.

``run.py`` starts this module in fresh interpreters.  Each prints ``READY``
when its set-up (imports, input generation, one warm-up item) is done;
``run.py`` times process start to ``READY`` as the set-up time.  A measuring
worker then runs the timed phase and prints ``RESULT <json>``.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import cliwork
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MODULES = {"certify": "certify", "extend": "extend", "cli": "cliwork"}

#: do not start another round past this many seconds of worker time
ROUND_BUDGET_S = 140.0
#: tail percentile: the item with at least this many items beyond it
TAIL_BEYOND = 10
#: fresh-interpreter samples for cli.import_s and cli.interpreter_s
START_SAMPLES = 5

#: (metric, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = [
    ("distillability.f2.s", "s", "lower", "items_per_s, item_tail_s on certify"),
    ("distillability.f2.calls", "count", "lower", "items_per_s, item_tail_s on certify"),
    ("distillability.fD.s", "s", "lower", "items_per_s on certify"),
    ("distillability.single_copy_distillable.s", "s", "lower", "item_p50_s on certify"),
    ("distillability.single_copy_distillable.attempts", "count", "lower", "item_p50_s on certify"),
    ("distillability.single_copy_distillable.violations", "count", "higher", "item_p50_s on certify"),
    ("distillability.n_copy_distillable.s", "s", "lower", "item_p50_s on certify"),
    ("states.tensor_power.s", "s", "lower", "item_p50_s on certify"),
    ("distillability.is_ppt.s", "s", "lower", "item_p50_s on certify"),
    ("states.partial_transpose.s", "s", "lower", "item_p50_s on certify"),
    ("states.construct_state.s", "s", "lower", "setup_s on certify"),
    ("symmetry.symmetrize.s", "s", "lower", "items_per_s, item_tail_s on extend"),
    ("symmetry.symmetrize_matrix.s", "s", "lower", "items_per_s, item_tail_s on extend"),
    ("symmetry.symmetrize_matrix.calls", "count", "lower", "items_per_s, item_tail_s on extend"),
    ("symmetry.double_symmetrize.s", "s", "lower", "item_tail_s on extend"),
    ("distillability.symmetric_dual_positive.s", "s", "lower", "items_per_s on extend"),
    ("symmetry.mixture_of_powers.s", "s", "lower", "item_p50_s on extend"),
    ("states.partial_trace.s", "s", "lower", "item_p50_s on extend"),
    ("symmetry.best_product_mixture_distance.s", "s", "lower", "items_per_s on extend"),
    ("states.state_to_dict.s", "s", "lower", "items_per_s, item_p50_s on cli"),
    ("states.load_state.s", "s", "lower", "items_per_s, item_p50_s on cli"),
    ("cli.artifact_bytes", "B", "lower", "items_per_s on cli"),
    ("cli.import_s", "s", "lower", "item_p50_s on cli; setup_s on certify and extend"),
    ("cli.interpreter_s", "s", "lower", "item_p50_s on cli; setup_s on certify and extend"),
    ("tomography.estimation_pipeline.s", "s", "lower", "item_p50_s on cli"),
    ("tomography.closest_state.s", "s", "lower", "item_p50_s on cli"),
    ("tomography.simulate_measurements.s", "s", "lower", "item_p50_s on cli"),
    ("activation.search_activator.s", "s", "lower", "item_p50_s on cli"),
    ("activation.activation_witness.calls", "count", "lower", "item_p50_s on cli"),
]


def host_probe() -> float:
    """Seconds for a fixed numpy + Python kernel that does not call distilkit."""
    h = np.random.default_rng(12345).standard_normal((128, 128))
    h = h + h.T
    start = perf_counter()
    for _ in range(20):
        np.linalg.eigvalsh(h)
    acc = 0
    for i in range(300_000):
        acc += i % 7
    return perf_counter() - start


def say(*parts) -> None:
    print(*parts, flush=True)


def time_item(wl, item) -> tuple[float, object]:
    if wl.IN_PROCESS:
        start = perf_counter()
        out = item.run()
        return perf_counter() - start, out
    out = item.run()
    return out["elapsed"], out


def summarize(times: list[list[float]]) -> dict:
    """Per-item medians over the rounds; the rate of a round made of them,
    their median and their tail.  Medians drop an item's run in a slow
    stretch of the host, which a mean over the timed phase would keep."""
    per_item = sorted(statistics.median(t) for t in times if t)
    return {
        "items_per_s": len(per_item) / sum(per_item),
        "item_p50_s": statistics.median(per_item),
        "item_tail_s": per_item[len(per_item) - 1 - TAIL_BEYOND],
    }


def timed_phase(wl, items, args, started: float) -> dict:
    order_rng = np.random.default_rng([args.seed, 1])
    times: list[list[float]] = [[] for _ in items]
    attempted = failed = violated = rounds = 0
    timed = round_wall = 0.0
    round_s = []
    peak_child_kb = 0
    while rounds == 0 or timed < args.seconds:
        if perf_counter() - started + round_wall > ROUND_BUDGET_S:
            break
        round_start = perf_counter()
        # cli verbs read artifacts written earlier in their chain, so keep their order
        order = order_rng.permutation(len(items)) if wl.IN_PROCESS else range(len(items))
        for idx in order:
            item = items[idx]
            attempted += 1
            try:
                elapsed, out = time_item(wl, item)
                times[idx].append(elapsed)
                timed += elapsed
                if not wl.IN_PROCESS:
                    peak_child_kb = max(peak_child_kb, out["rss_kb"])
                errs = item.check(out)
                violated += bool(errs)
                # free this output before the next item, so peak RSS does not
                # depend on which item came before
                del out
            except Exception as exc:  # a crashing item is a failed operation
                errs = [f"raised {exc!r}"]
            if errs:
                failed += 1
                say(f"FAILED {item.label}: {'; '.join(errs)}")
        rounds += 1
        round_wall = perf_counter() - round_start
        round_s.append(timed - sum(round_s))
    result = summarize(times)
    result.update(attempted=attempted, failed=failed, correct=violated == 0, round_s=round_s,
                  items=len(items), peak_child_kb=peak_child_kb)
    return result


def start_times(workdir: Path) -> tuple[float, float]:
    """Median fresh-interpreter wall time for ``import distilkit`` and for a bare start."""
    env = cliwork.child_env()
    out = []
    for code in ("import distilkit", "pass"):
        samples = [cliwork.run_child([sys.executable, "-c", code], env, workdir)
                   for _ in range(START_SAMPLES)]
        out.append(statistics.median(end - start for *_, start, end in samples))
    return out[0], out[1]


def traced_phase(wl, items, tr: tracer.Tracer, workdir: Path) -> dict:
    """One round, each item untraced and then traced, in the same order."""
    cost = tracer.span_cost()
    rows = []
    artifact_bytes = 0
    failed = violated = 0
    for idx, item in enumerate(items):
        try:
            untraced, _ = time_item(wl, item)
            if wl.IN_PROCESS:
                tr.install()
                tr.install(tracer.COUNTERS, count=True)
                tr.item = idx
                try:
                    traced, out = time_item(wl, item)
                finally:
                    tr.uninstall()
                outside = 0.0
            else:
                out = item.run(traced=True)
                traced = out["elapsed"]
                child = out["child"]
                tr.extend(child["spans"], idx)
                tr.add_counts(child.get("counts", {}), idx)
                artifact_bytes += out["bytes"]
                # interpreter start, import and exit lie outside every span
                outside = (child["first"] - out["start"]) + (child["imported"] - child["first"]) \
                    + (out["end"] - child["end"])
            errs = item.check(out)
            violated += bool(errs)
        except Exception as exc:
            errs = [f"raised {exc!r}"]
            untraced = traced = outside = float("nan")
        if errs:
            failed += 1
            say(f"FAILED {item.label}: {'; '.join(errs)}")
        rows.append({"item": idx, "label": item.label, "untraced_s": untraced,
                     "traced_s": traced, "outside_s": outside})
    sums = tracer.item_self_sums(tr.spans)
    for row in rows:
        self_s, n = sums.get(row["item"], (0.0, 0))
        row.update(self_s=self_s, spans=n, overhead_s=row["outside_s"] + n * cost,
                   counts=tr.counts.get(row["item"], {}))
        row["residual_s"] = row["traced_s"] - self_s - row["overhead_s"]
    return {"rows": rows, "span_cost_s": cost, "artifact_bytes": artifact_bytes,
            "attempted": len(items), "failed": failed, "correct": violated == 0}


def layer_metrics(spans, artifact_bytes: int, import_s: float, interpreter_s: float) -> dict:
    totals = tracer.layer_totals(spans)
    special = {"cli.artifact_bytes": artifact_bytes, "cli.import_s": import_s,
               "cli.interpreter_s": interpreter_s}
    metrics = {}
    for name, unit, _, _ in PER_LAYER:
        if name in special:
            value = special[name]
        else:
            layer, field = name.rsplit(".", 1)
            value = totals.get(layer, {}).get(field, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def report_trace(args, traced: dict, metrics: dict, spans) -> None:
    rows = traced["rows"]
    t_sum = sum(r["traced_s"] for r in rows)
    u_sum = sum(r["untraced_s"] for r in rows)
    say(f"trace: {len(spans)} spans over {len(rows)} items; span cost "
        f"{traced['span_cost_s'] * 1e6:.2f} us")
    say(f"trace: tracing overhead {t_sum - u_sum:+.4f} s ({(t_sum / u_sum - 1) * 100:+.2f} %) "
        f"= traced {t_sum:.4f} s - untraced {u_sum:.4f} s, items run alternately")
    worst = max(rows, key=lambda r: abs(r["residual_s"]) / r["traced_s"])
    say(f"trace: per item, traced wall - sum of span self times - measured overhead: "
        f"worst {worst['residual_s'] * 1e3:+.3f} ms of {worst['traced_s'] * 1e3:.1f} ms "
        f"({worst['label']})")
    say(f"{'metric':<52} {'value':>14} {'unit':<5}  should move")
    for name, unit, _, moves in PER_LAYER:
        value = metrics[name]["value"]
        shown = f"{value:.6f}" if unit == "s" else f"{value}"
        say(f"{name:<52} {shown:>14} {unit:<5}  {moves}")
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "items": rows,
                   "span_fields": ["name", "start", "end", "parent", "item", "extra"],
                   "spans": spans}, fh)
    say(f"trace: spans written to {path.relative_to(ROOT)}")


def main(args) -> int:
    started = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    wl = importlib.import_module(MODULES[args.workload])
    if wl.IN_PROCESS:
        import distilkit
        if Path(distilkit.__file__).resolve().parent != ROOT / "src" / "distilkit":
            raise SystemExit(f"distilkit imported from {distilkit.__file__}, not from src/")
    workdir = OUT / f"{args.workload}-{args.seed}-{args.role}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tr = tracer.Tracer() if args.trace else None
        if tr is not None and wl.IN_PROCESS:
            tr.item = "setup"
            tr.install()
        try:
            items = wl.build(args.seed, workdir)
        finally:
            if tr is not None:
                tr.uninstall()
        warm = items[0]
        errs = warm.check(time_item(wl, warm)[1])
        if errs:
            say(f"warm-up item {warm.label} failed: {'; '.join(errs)}")
        say("READY")
        if args.role == "setup":
            return 0

        before = host_probe()
        if tr is None:
            result = timed_phase(wl, items, args, started)
        else:
            traced = traced_phase(wl, items, tr, workdir)
            import_s, interpreter_s = start_times(workdir)
            metrics = layer_metrics(tr.spans, traced["artifact_bytes"], import_s, interpreter_s)
            report_trace(args, traced, metrics, tr.spans)
            result = {k: traced[k] for k in ("attempted", "failed", "correct")}
            result["layers"] = metrics
        after = host_probe()
        say(f"host probe: {before:.4f} s before, {after:.4f} s after the measured phase")
        say("RESULT " + json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
