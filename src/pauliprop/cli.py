"""Command-line interface.

Subcommands: estimate, verify, figures, qaoa, census, classify-channel, norms.
Reports are JSON on stdout (or --output), except from figures, which writes
only its CSV; figure and census datasets are CSV with one metadata comment
line. Exit codes: 2 file parse errors, 3 validation errors, 4 cost-bound
overflow, 5 oracle register too large.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import __version__
from . import magic, qaoa
from .channels import adjoint_norm, channel_norm, choi_from_ptm, compose, \
    make_depolarizing, make_rotation
from .circuit_io import (
    SpecParseError,
    SpecValidationError,
    instance_to_json,
    load_circuit,
    load_instance,
    load_json,
    parse_channel,
)
from .exact import OracleTooLargeError, run_exact
from .fanout import block_rng
from .operators import DenseOperator, pauli_matrix
from .propagation import BoundOverflowError, estimate, plan_samples

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_OVERFLOW = 4
EXIT_ORACLE = 5


def _emit(report: dict, output: str | None):
    text = json.dumps(report, indent=2, sort_keys=True)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _write_csv(path: str, meta: dict, header: list, rows: list):
    meta_str = " ".join(f"{k}={_fmt(v)}" for k, v in meta.items())
    with open(path, "w", newline="") as fh:
        fh.write(f"# pauliprop {__version__} {meta_str}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _sample_count(args, circuit, direction: str) -> int:
    if args.samples is not None:
        return args.samples
    return plan_samples(circuit, direction, args.epsilon, args.delta)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_estimate(args) -> int:
    circuit = load_circuit(args.circuit)
    directions = ["schrodinger", "heisenberg"] if args.direction == "both" \
        else [args.direction]
    reports = {}
    for d in directions:
        n = _sample_count(args, circuit, d)
        reports[d] = estimate(circuit, d, n, delta=args.delta, seed=args.seed,
                              workers=args.workers).to_dict()
    out = reports[directions[0]] if len(directions) == 1 else {
        **reports,
        "discrepancy": abs(reports["schrodinger"]["mean"] - reports["heisenberg"]["mean"]),
    }
    _emit(out, args.output)
    return 0


def _cmd_verify(args) -> int:
    circuit = load_circuit(args.circuit)
    oracle = run_exact(circuit)
    directions = ["schrodinger", "heisenberg"] if args.direction == "both" \
        else [args.direction]
    out = {"oracle": oracle}
    ok = True
    for d in directions:
        n = _sample_count(args, circuit, d)
        rep = estimate(circuit, d, n, delta=args.delta, seed=args.seed,
                       workers=args.workers)
        passed = abs(rep.mean - oracle) <= rep.epsilon
        ok = ok and passed
        out[d] = {
            "estimate": rep.mean,
            "abs_diff": abs(rep.mean - oracle),
            "epsilon": rep.epsilon,
            "n_samples": rep.n_samples,
            "passed": passed,
        }
    out["passed"] = ok
    _emit(out, args.output)
    return 0


def _fig1_rows(grid: int):
    base = pauli_matrix(0, 2) / 4
    xx_zz_yy = pauli_matrix(5, 2) + pauli_matrix(15, 2) - pauli_matrix(10, 2)
    zi_iz = pauli_matrix(3, 2) + pauli_matrix(12, 2)
    points = [(float(x), float(y), DenseOperator(base + x * xx_zz_yy + y * zi_iz))
              for x in np.linspace(-0.3, 0.3, grid) for y in np.linspace(-0.3, 0.3, grid)]
    categories = iter(magic.classify_states([op for _, _, op in points if op.is_state()]))
    rows = [(x, y, next(categories) if op.is_state() else "not_a_state")
            for x, y, op in points]
    return ["x", "y", "category"], rows


def _fig2_rows(samples: int, seed: int, workers: int):
    counts = magic.state_census(samples, n=2, seed=seed, workers=workers)
    rows = [(cat, counts[cat], counts[cat] / samples) for cat in magic.STATE_CATEGORIES]
    return ["category", "count", "fraction"], rows


def _fig3_rows():
    grid = [(float(f), float(theta)) for theta in np.linspace(0.0, math.pi / 2, 25)
            for f in np.linspace(0.4, 1.0, 31)]
    records = magic.classify_ptms(
        [compose(make_depolarizing(f), make_rotation(theta)) for f, theta in grid])
    rows = [(f, theta, rec.d_forward, rec.d_adjoint, rec.category,
             1.0 / (abs(math.cos(theta)) + abs(math.sin(theta))))
            for (f, theta), rec in zip(grid, records)]
    return ["f", "theta", "d_forward", "d_adjoint", "category", "diamond_f"], rows


def _fig5_rows(samples: int, seed: int, workers: int):
    rows = []
    for mode in magic.MODES:
        res = magic.classification_census(samples, mode=mode, seed=seed,
                                          workers=workers)
        for cat in magic.CHANNEL_CATEGORIES:
            rows.append((mode, cat, res.counts[cat], res.counts[cat] / samples))
        rows.append((mode, "invalid", res.invalid, res.invalid / samples))
    return ["mode", "category", "count", "fraction"], rows


# the record fields of one QAOA run, as the qaoa --out and fig6 CSVs write them
_QAOA_COLUMNS = ("gamma", "m", "n_samples", "C_heis", "C_vdn", "eps_heis",
                 "eps_nest", "abs_err", "seconds")


def _fig6_rows(samples: int, seed: int, workers: int):
    rng = block_rng(seed, 0)
    inst = qaoa.generate_instance(16, 20, rng)
    rows = []
    for gamma in np.linspace(0.0, math.pi / 4, 9):
        rec = qaoa.run_experiment(inst, qaoa.QaoaParams(gamma=float(gamma)),
                                  samples, seed=seed, workers=workers)
        rows.append([rec[k] for k in _QAOA_COLUMNS])
    return _QAOA_COLUMNS, rows


_FIGURE_DEFAULT_SAMPLES = {"fig2": 10_000, "fig5": 2_500, "fig6": 100_000}


def _cmd_figures(args) -> int:
    samples = args.samples
    if samples is None:
        samples = _FIGURE_DEFAULT_SAMPLES.get(args.which, 0)
    if args.which in _FIGURE_DEFAULT_SAMPLES and samples < 1:
        # fig2 and fig5 divide by the count
        raise ValueError(f"sample count must be at least 1, got {samples}")
    if args.which == "fig1":
        header, rows = _fig1_rows(args.grid)
    elif args.which == "fig2":
        header, rows = _fig2_rows(samples, args.seed, args.workers)
    elif args.which == "fig3":
        header, rows = _fig3_rows()
    elif args.which == "fig5":
        header, rows = _fig5_rows(samples, args.seed, args.workers)
    else:
        header, rows = _fig6_rows(samples, args.seed, args.workers)
    meta = {"which": args.which, "seed": args.seed, "samples": samples,
            "workers": args.workers}
    if args.which == "fig1":
        meta["grid"] = args.grid
    _write_csv(args.out, meta, header, rows)
    return 0


def _cmd_qaoa(args) -> int:
    if args.instance:
        inst = load_instance(args.instance)
    else:
        if args.n is None or args.m is None:
            raise SpecValidationError("need --n and --m (or --instance FILE)")
        rng = block_rng(args.seed, 0)
        inst = qaoa.generate_instance(args.n, args.m, rng)
    if args.save_instance:
        with open(args.save_instance, "w") as fh:
            json.dump(instance_to_json(inst), fh, indent=2)
            fh.write("\n")
    params = qaoa.QaoaParams(gamma=args.gamma, beta=args.beta)
    rec = qaoa.run_experiment(inst, params, args.samples, delta=args.delta,
                              seed=args.seed, workers=args.workers)
    if args.out:
        _write_csv(args.out, {"n": inst.n, "seed": args.seed, "beta": args.beta},
                   _QAOA_COLUMNS, [[rec[k] for k in _QAOA_COLUMNS]])
    _emit(rec, args.output)
    return 0


def _cmd_census(args) -> int:
    res = magic.classification_census(args.samples, mode=args.mode,
                                      seed=args.seed, workers=args.workers)
    if args.out:
        header = ["seed_index", "d_forward", "d_adjoint", "robustness",
                  "category", "mode"]
        rows = [(i, df, da, r, cat, args.mode) for i, df, da, r, cat in res.records]
        _write_csv(args.out, {"mode": args.mode, "seed": args.seed,
                              "samples": args.samples, "workers": args.workers},
                   header, rows)
    _emit({"mode": res.mode, "n_samples": res.n_samples, "seed": res.seed,
           "counts": res.counts, "invalid": res.invalid}, args.output)
    return 0


def _load_channel_spec(args):
    if args.spec_file:
        obj = load_json(args.spec_file)
    else:
        try:
            obj = json.loads(args.spec)
        except json.JSONDecodeError as e:
            raise SpecParseError(f"--spec: {e}") from None
    return parse_channel(obj, "channel")


def _cmd_classify_channel(args) -> int:
    app = _load_channel_spec(args)
    if app.ptm.k != 1:
        raise SpecValidationError(
            "classification runs on single-qubit channels (two-qubit Choi states)")
    ptm = magic.project_ptm(app.ptm, args.mode)
    rec = magic.classify_ptm(ptm)
    _emit({"mode": args.mode, "d_forward": rec.d_forward,
           "d_adjoint": rec.d_adjoint, "robustness": rec.robustness,
           "category": rec.category}, args.output)
    return 0


def _cmd_norms(args) -> int:
    app = _load_channel_spec(args)
    ptm = app.ptm
    choi = choi_from_ptm(ptm)
    out = {
        "k": ptm.k,
        "d_forward": channel_norm(ptm),
        "d_adjoint": adjoint_norm(ptm),
        "robustness": None,
        "p_lambda": choi.p_lambda,
    }
    if ptm.k == 1:
        out["robustness"] = magic.robustness(DenseOperator(choi.matrix))
    _emit(out, args.output)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

def _add_common(p, seed_required=True, report=True):
    p.add_argument("--seed", type=int, required=seed_required,
                   help="RNG seed in [0, 2**64); results are deterministic per seed, "
                        "whatever the worker count")
    p.add_argument("--workers", type=int, default=1,
                   help="worker process count (default 1)")
    if report:
        p.add_argument("--output", help="write the JSON report here instead of stdout")


def _add_sampling(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--samples", type=int, help="Monte Carlo sample count")
    group.add_argument("--epsilon", type=float,
                       help="target accuracy; sample count planned via Hoeffding")
    p.add_argument("--delta", type=float, default=0.01,
                   help="confidence parameter (default 0.01)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pauliprop",
        description="Monte Carlo estimation of quantum-circuit observables by "
                    "propagating Pauli strings through channel transfer matrices.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="run one or both estimators on a circuit file")
    p.add_argument("--circuit", required=True, help="circuit JSON path")
    p.add_argument("--direction", choices=["schrodinger", "heisenberg", "both"],
                   default="heisenberg")
    _add_sampling(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("verify", help="compare estimates with the dense oracle (n <= 8)")
    p.add_argument("--circuit", required=True)
    p.add_argument("--direction", choices=["schrodinger", "heisenberg", "both"],
                   default="both")
    _add_sampling(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("figures", help="emit figure datasets as CSV")
    p.add_argument("--which", required=True,
                   choices=["fig1", "fig2", "fig3", "fig5", "fig6"])
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--samples", type=int,
                   help="sample count where applicable (defaults are desk-scale)")
    p.add_argument("--grid", type=int, default=41, help="fig1 grid points per axis")
    _add_common(p, report=False)
    p.set_defaults(fn=_cmd_figures)

    p = sub.add_parser("qaoa", help="run the satisfiability-phase experiment")
    p.add_argument("--n", type=int, help="qubit count (with --m)")
    p.add_argument("--m", type=int, help="equation count")
    p.add_argument("--instance", help="load an instance JSON instead of generating")
    p.add_argument("--save-instance", help="write the instance JSON here")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--beta", type=float, default=math.pi / 4)
    p.add_argument("--samples", type=int, required=True, help="samples per term")
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--out", help="also append a CSV row here")
    _add_common(p)
    p.set_defaults(fn=_cmd_qaoa)

    p = sub.add_parser("census", help="classify random channels and tally categories")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--mode", choices=list(magic.MODES), default="general")
    p.add_argument("--out", help="per-sample records CSV path")
    _add_common(p)
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("classify-channel", help="Venn category of one channel spec")
    spec = p.add_mutually_exclusive_group(required=True)
    spec.add_argument("--spec", help="channel spec as an inline JSON object")
    spec.add_argument("--spec-file", help="channel spec JSON path")
    p.add_argument("--mode", choices=list(magic.MODES), default="general")
    _add_common(p, seed_required=False)
    p.set_defaults(fn=_cmd_classify_channel)

    p = sub.add_parser("norms", help="print cost norms for one channel spec")
    spec = p.add_mutually_exclusive_group(required=True)
    spec.add_argument("--spec", help="channel spec as an inline JSON object")
    spec.add_argument("--spec-file", help="channel spec JSON path")
    _add_common(p, seed_required=False)
    p.set_defaults(fn=_cmd_norms)

    return parser


_FAILURES = (
    (SpecParseError, EXIT_PARSE, "parse"),
    (BoundOverflowError, EXIT_OVERFLOW, "bound_overflow"),
    (OracleTooLargeError, EXIT_ORACLE, "oracle_too_large"),
    (SpecValidationError, EXIT_VALIDATION, "validation"),
    (ValueError, EXIT_VALIDATION, "validation"),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(t[0] for t in _FAILURES) as e:
        for etype, code, kind in _FAILURES:
            if isinstance(e, etype):
                print(json.dumps({"error": {"type": kind, "message": str(e)}}),
                      file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
