#!/usr/bin/env python3
"""Benchmark of pauliprop on four workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ./src, never from
an installed copy. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS/OpenMP thread per process: the census already runs two worker
# processes on a two-core machine, and numpy's small matrices gain nothing
# from more threads. Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
CENSUS_WORKERS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["clifford_deep", "noisy_t_n8", "qaoa_n16", "census"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up (import and input building) and exit")
    return p.parse_args(argv)


def import_workloads():
    """Import pauliprop from ./src (and the workloads built on it)."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import pauliprop
        import workloads
    except ImportError as e:
        sys.exit(f"perfbench: import from {ROOT / 'src'} failed: {e}")
    if Path(pauliprop.__file__).resolve().parent != (ROOT / "src" / "pauliprop").resolve():
        sys.exit(f"perfbench: imported pauliprop from {pauliprop.__file__}, not ./src")
    return workloads


# ---------------------------------------------------------------------------
# spans around each layer's public functions

def _steps(args, kwargs):
    circuit = args[0] if args else kwargs["circuit"]
    n_samples = args[2] if len(args) > 2 else kwargs["n_samples"]
    return n_samples * len(circuit.channels)


_CONSTRUCTORS = ("make_rotation", "make_depolarizing", "make_measure_z", "make_clifford",
                 "make_reset", "make_adaptive", "make_unitary_ptm", "compose")

SPANS = [
    ("propagation", "estimate", "propagation.estimate", _steps),
    ("cli", "estimate", "propagation.estimate", _steps),
    ("qaoa", "estimate", "propagation.estimate", _steps),
    ("propagation", "compile_circuit", "propagation.compile"),
    ("propagation", "cost_report", "propagation.cost_report"),
    *[("channels", name, "channels.build") for name in _CONSTRUCTORS],
    ("qaoa", "make_unitary_ptm", "channels.build"),
    *[("cli", name, "channels.build") for name in ("compose", "make_depolarizing",
                                                    "make_rotation")],
    ("channels", "validate_cp", "channels.cp_check"),
    ("qaoa", "build_term_circuit", "qaoa.build"),
    ("qaoa", "heisenberg_estimate", "qaoa.heisenberg"),
    ("qaoa", "vdn_estimate", "qaoa.nested"),
    ("qaoa", "run_experiment", "qaoa.experiment"),
    ("cli", "load_circuit", "circuit_io.load"),
    ("cli", "load_instance", "circuit_io.load"),
    ("cli", "run_exact", "exact.oracle"),
    ("magic", "robustness", "magic.lp"),
    ("magic", "sample_hilbert_schmidt", "magic.sample"),
    ("magic", "classify_state", "magic.classify", lambda args, kwargs: "state"),
    ("magic", "classify_ptm", "magic.classify"),
    ("magic", "classification_census", "magic.census"),
    ("magic", "state_census", "magic.census"),
    ("cli", "main", "cli.main"),
]
LAYERS = ("propagation", "channels", "qaoa", "circuit_io", "exact", "magic", "cli")


def span_targets():
    return [(importlib.import_module(f"pauliprop.{module}"), attr, *rest)
            for module, attr, *rest in SPANS]


def layer_metrics(table, rounds, invalid_per_round, overhead_pct, step_ns):
    """Per-layer figures for one set-up plus one round (round spans are
    averaged over the traced rounds)."""

    def per_run(fn):
        return fn("setup") + fn("round") / rounds

    def walk(phase):
        return table.outside(["propagation.estimate"],
                             ("propagation.compile", "propagation.cost_report"), phase)

    def top_builds(phase):
        return sum(table.duration[i] for i in table.select(["channels.build"], phase)
                   if table.spans[i][3] is None
                   or table.spans[table.spans[i][3]][0] != "channels.build")

    def classify_outside_lp(phase):
        return table.outside(["magic.classify"], ("magic.lp",), phase)

    def lp_skipped(phase):
        return sum(1 for i in table.select(["magic.classify"], phase)
                   if table.spans[i][5] == "state"
                   and not any(table.spans[c][0] == "magic.lp" for c in table.children[i]))

    def steps(phase):
        return sum(table.spans[i][5] for i in table.select(["propagation.estimate"], phase))

    def total(name):
        return per_run(lambda ph: table.total([name], ph))

    def count(name):
        return per_run(lambda ph: table.count([name], ph))

    walk_s, sample_steps = per_run(walk), per_run(steps)
    lp_s, lp_calls = total("magic.lp"), count("magic.lp")
    return {
        "propagation.compile_s": (total("propagation.compile"), "s"),
        "propagation.cost_report_s": (total("propagation.cost_report"), "s"),
        "propagation.walk_s": (walk_s, "s"),
        "propagation.ns_per_sample_step": (walk_s / sample_steps * 1e9 if sample_steps else 0.0,
                                           "ns"),
        "propagation.estimate_calls": (count("propagation.estimate"), "count"),
        "propagation.sample_steps": (sample_steps, "count"),
        **{f"propagation.ns_step.{k}": (v, "ns") for k, v in step_ns.items()},
        "channels.build_s": (per_run(top_builds), "s"),
        "channels.builds": (count("channels.build"), "count"),
        "channels.cp_check_s": (total("channels.cp_check"), "s"),
        "qaoa.build_s": (total("qaoa.build"), "s"),
        "qaoa.heisenberg_s": (total("qaoa.heisenberg"), "s"),
        "qaoa.nested_s": (total("qaoa.nested"), "s"),
        "circuit_io.load_s": (total("circuit_io.load"), "s"),
        "exact.oracle_s": (total("exact.oracle"), "s"),
        "magic.lp_calls": (lp_calls, "count"),
        "magic.lp_s": (lp_s, "s"),
        "magic.ms_per_lp": (lp_s / lp_calls * 1e3 if lp_calls else 0.0, "ms"),
        "magic.lp_skipped": (per_run(lp_skipped), "count"),
        "magic.sample_s": (total("magic.sample"), "s"),
        "magic.classify_s": (per_run(classify_outside_lp), "s"),
        "magic.invalid": (float(invalid_per_round), "count"),
        **{f"{layer}.self_s": (per_run(lambda ph, layer=layer: table.layer_self(layer, ph)), "s")
           for layer in LAYERS},
        "trace.spans": (per_run(lambda ph: len([s for s in table.spans if s[4] == ph])),
                        "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


# ---------------------------------------------------------------------------

class Context:
    def __init__(self, workers, log):
        self.workers = workers
        self.log = log


def repeat(step, seconds):
    """Call step() for about `seconds`: another call starts only while half a
    call, at the mean pace so far, still fits."""
    calls = 0
    t0 = perf_counter()
    while True:
        step()
        calls += 1
        elapsed = perf_counter() - t0
        if elapsed + elapsed / calls / 2 >= seconds:
            return


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest finished child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def probe_setup(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)

    t0 = perf_counter()
    workloads = import_workloads()
    log = workloads.EstimateLog()
    log.install()
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install(span_targets())
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed, str(OUT))
    setup_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    expected = wl.reference(inputs)
    workers = CENSUS_WORKERS if args.workload == "census" and not args.trace else 1
    ctx = Context(workers, log)

    def run_round():
        return wl.run_round(inputs, expected, ctx)

    if not args.trace:
        rounds = []
        repeat(lambda: rounds.append(run_round()), args.seconds)
        rss = peak_rss_mb()
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_REPEATS - 1)]
        wall = statistics.median(r.wall_s for r in rounds)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (rss, "MiB"),
            "work_per_s": (rounds[0].work / wall, "1/s"),
        }
        extra = {"setups_s": setups, "round_walls_s": [r.wall_s for r in rounds]}
    else:
        # plain (wrappers removed) and traced rounds alternate, so that the
        # overhead estimate does not pick up the host's drift
        tracer.uninstall()
        tracer.phase = "round"
        plain, traced = [], []

        def pair():
            plain.append(run_round())
            tracer.install(span_targets())
            traced.append(run_round())
            tracer.uninstall()

        repeat(pair, args.seconds)
        rounds = plain + traced
        base = statistics.median(r.wall_s for r in plain)
        overhead = (statistics.median(r.wall_s for r in traced) / base - 1.0) * 100.0
        import probes
        table = spans.SpanTable(tracer.spans)
        metrics = layer_metrics(table, len(traced), traced[0].invalid, overhead,
                                probes.step_costs())
        tracer.dump(OUT / f"trace_{args.workload}_{args.seed}.json")
        extra = {"plain_walls_s": [r.wall_s for r in plain],
                 "traced_walls_s": [r.wall_s for r in traced]}

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    errors = [e for r in rounds for e in r.errors]
    for e in errors[:10]:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result_{args.workload}_{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump({**result, "rounds": len(rounds), **extra, "errors": errors[:100]}, fh,
                  indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
