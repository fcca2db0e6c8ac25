"""Command-line interface.

Subcommands: estimate, verify, figures, qaoa, census, classify-channel, norms.
Reports are JSON on stdout (or --output), except from figures, which writes
only its CSV; figure and census datasets are CSV with one metadata comment
line. Exit codes: 2 file parse errors, 3 validation errors, 4 cost-bound
overflow, 5 oracle register too large, 6 a file that cannot be read or
written, 7 a sample count above MAX_SAMPLES.
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
from .channels import adjoint_norm, channel_norm, choi_matrix, choi_trace_table, \
    compose, make_depolarizing, make_rotation, postselection_probability
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
from .fanout import block_rng, check_count, map_blocks
from .operators import DenseOperator, pauli_matrix
from .propagation import DIRECTIONS, BoundOverflowError, estimate, plan_samples

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_OVERFLOW = 4
EXIT_ORACLE = 5
EXIT_IO = 6
EXIT_BUDGET = 7

# 2**40 samples of a one-gate, one-qubit circuit take about 12 hours on a
# 2-core host; the library functions themselves take any count
MAX_SAMPLES = 2**40


class SampleBudgetError(Exception):
    """A CLI run would draw more than MAX_SAMPLES samples."""


def _budget(n: int) -> int:
    """n, refused when it exceeds MAX_SAMPLES."""
    if n > MAX_SAMPLES:
        raise SampleBudgetError(f"sample count {n} exceeds MAX_SAMPLES = 2**40")
    return n


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


def _estimates(args, circuit) -> dict:
    """{direction: EstimateReport} for each direction of --direction, at
    --samples or at the count planned for --epsilon. Every count is checked
    against MAX_SAMPLES before any sampling."""
    directions = DIRECTIONS if args.direction == "both" else [args.direction]
    counts = {d: _budget(args.samples if args.epsilon is None else
                         plan_samples(circuit, d, args.epsilon, args.delta))
              for d in directions}
    return {d: estimate(circuit, d, n, delta=args.delta, seed=args.seed,
                        workers=args.workers)
            for d, n in counts.items()}


# ---------------------------------------------------------------------------
# subcommands

def _cmd_estimate(args) -> int:
    reports = {d: rep.to_dict()
               for d, rep in _estimates(args, load_circuit(args.circuit)).items()}
    out = next(iter(reports.values())) if len(reports) == 1 else {
        **reports,
        "discrepancy": abs(reports["schrodinger"]["mean"] - reports["heisenberg"]["mean"]),
    }
    _emit(out, args.output)
    return 0


def _cmd_verify(args) -> int:
    circuit = load_circuit(args.circuit)
    oracle = run_exact(circuit)
    out = {d: {"estimate": rep.mean, "abs_diff": abs(rep.mean - oracle),
               "epsilon": rep.epsilon, "n_samples": rep.n_samples,
               "passed": abs(rep.mean - oracle) <= rep.epsilon}
           for d, rep in _estimates(args, circuit).items()}
    _emit({**out, "oracle": oracle, "passed": all(r["passed"] for r in out.values())},
          args.output)
    return 0


def _fig1_rows(grid: int):
    base = pauli_matrix(0, 2) / 4
    xx_zz_yy = pauli_matrix(5, 2) + pauli_matrix(15, 2) - pauli_matrix(10, 2)
    zi_iz = pauli_matrix(3, 2) + pauli_matrix(12, 2)
    points = [(float(x), float(y), DenseOperator(base + x * xx_zz_yy + y * zi_iz))
              for x in np.linspace(-0.3, 0.3, grid) for y in np.linspace(-0.3, 0.3, grid)]
    categories = iter(magic.classify_states([op for _, _, op in points if op.is_state]))
    rows = [(x, y, next(categories) if op.is_state else "not_a_state")
            for x, y, op in points]
    return ["x", "y", "category"], rows


def _fig2_rows(samples: int, seed: int, workers: int):
    counts = magic.state_census(samples, n=2, seed=seed, workers=workers)
    rows = [(cat, counts[cat], counts[cat] / samples) for cat in magic.STATE_CATEGORIES]
    return ["category", "count", "fraction"], rows


_FIG3_THETAS = np.linspace(0.0, math.pi / 2, 25)
_FIG3_FS = np.linspace(0.4, 1.0, 31)


def _fig3_rows(workers: int):
    magic._import_solvers()  # before a first fan-out forks the pool
    blocks = map_blocks(_fig3_block, (), len(_FIG3_THETAS), workers)
    rows = [row for block in blocks for row in block]
    return ["f", "theta", "d_forward", "d_adjoint", "category", "diamond_f"], rows


def _fig3_block(b: int) -> list:
    """The fig3 rows of the b-th theta. Only the letters are printed, so the
    channels are classified without exact robustness values."""
    theta = float(_FIG3_THETAS[b])
    fs = [float(f) for f in _FIG3_FS]
    records = magic.classify_ptms(
        [compose(make_depolarizing(f), make_rotation(theta)) for f in fs], exact=False)
    diamond = 1.0 / (abs(math.cos(theta)) + abs(math.sin(theta)))
    return [(f, theta, rec.d_forward, rec.d_adjoint, rec.category, diamond)
            for f, rec in zip(fs, records)]


def _fig5_rows(samples: int, seed: int, workers: int):
    rows = []
    for mode in magic.MODES:
        res = magic.classification_census(samples, mode=mode, seed=seed,
                                          workers=workers)
        for cat in magic.CHANNEL_CATEGORIES:
            rows.append((mode, cat, res.counts[cat], res.counts[cat] / samples))
        rows.append((mode, "invalid", res.invalid, res.invalid / samples))
    return ["mode", "category", "count", "fraction"], rows


def _instance(n: int, m: int, seed: int):
    """The E3LIN2 instance that qaoa --n/--m and fig6 draw from the stream (seed, 0)."""
    return qaoa.generate_instance(n, m, block_rng(seed, 0))


def _fig6_rows(samples: int, seed: int, workers: int):
    inst = _instance(16, 20, seed)
    recs = [qaoa.run_experiment(inst, qaoa.QaoaParams(gamma=float(gamma)), samples,
                                seed=seed, workers=workers)
            for gamma in np.linspace(0.0, math.pi / 4, 9)]
    return list(recs[0]), [list(rec.values()) for rec in recs]


_FIGURE_DEFAULT_SAMPLES = {"fig2": 10_000, "fig5": 2_500, "fig6": 100_000}


def _cmd_figures(args) -> int:
    samples = args.samples
    if samples is None:
        samples = _FIGURE_DEFAULT_SAMPLES.get(args.which, 0)
    if args.which in _FIGURE_DEFAULT_SAMPLES:
        check_count(samples, 1)  # fig2 and fig5 divide by the count
        _budget(samples)
    if args.which == "fig1":
        if args.grid < 1:
            raise ValueError(f"--grid must be at least 1, got {args.grid}")
        header, rows = _fig1_rows(args.grid)
    elif args.which == "fig2":
        header, rows = _fig2_rows(samples, args.seed, args.workers)
    elif args.which == "fig3":
        header, rows = _fig3_rows(args.workers)
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
    _budget(args.samples)
    if args.instance:
        inst = load_instance(args.instance)
    else:
        if args.n is None or args.m is None:
            raise SpecValidationError("need --n and --m (or --instance FILE)")
        inst = _instance(args.n, args.m, args.seed)
    if args.save_instance:
        with open(args.save_instance, "w") as fh:
            json.dump(instance_to_json(inst), fh, indent=2)
            fh.write("\n")
    params = qaoa.QaoaParams(gamma=args.gamma, beta=args.beta)
    rec = qaoa.run_experiment(inst, params, args.samples, delta=args.delta,
                              seed=args.seed, workers=args.workers)
    if args.out:
        _write_csv(args.out, {"n": inst.n, "seed": args.seed, "beta": args.beta},
                   list(rec), [list(rec.values())])
    _emit(rec, args.output)
    return 0


def _cmd_census(args) -> int:
    _budget(args.samples)
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
    ptm = magic.project_ptm(_load_channel_spec(args).ptm, args.mode)
    rec = magic.classify_ptm(ptm)
    _emit({"mode": args.mode, "d_forward": rec.d_forward,
           "d_adjoint": rec.d_adjoint, "robustness": rec.robustness,
           "category": rec.category}, args.output)
    return 0


def _cmd_norms(args) -> int:
    app = _load_channel_spec(args)
    ptm = app.ptm
    # both raise where the channel has no Choi state; one qubit gets the
    # Choi-state robustness classify-channel reports
    if ptm.k == 1:
        robustness = magic.classify_ptm(ptm).robustness
    else:
        choi_trace_table(ptm)
        robustness = None
    phi = choi_matrix(ptm)
    _emit({"k": ptm.k, "d_forward": channel_norm(ptm), "d_adjoint": adjoint_norm(ptm),
           "robustness": robustness,
           "p_lambda": postselection_probability(phi / float(np.trace(phi).real), ptm.k)},
          args.output)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

def _add_common(p, report=True):
    p.add_argument("--seed", type=int, required=True,
                   help="RNG seed in [0, 2**64); results are deterministic per seed, "
                        "whatever the worker count")
    p.add_argument("--workers", type=int, default=1,
                   help="worker process count (default 1), at most the CPUs this "
                        "process may use")
    if report:
        _add_output(p)


def _add_output(p):
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

    def add(name, fn, help):
        # no abbreviations: a prefix such as --out must not stand for --output
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(fn=fn)
        return p

    for name, fn, direction, help in (
            ("estimate", _cmd_estimate, "heisenberg",
             "run one or both estimators on a circuit file"),
            ("verify", _cmd_verify, "both",
             "compare estimates with the exact oracle (n <= 8)")):
        p = add(name, fn, help)
        p.add_argument("--circuit", required=True, help="circuit JSON path")
        p.add_argument("--direction", choices=[*DIRECTIONS, "both"],
                       default=direction)
        _add_sampling(p)
        _add_common(p)

    p = add("figures", _cmd_figures, "emit figure datasets as CSV")
    p.add_argument("--which", required=True,
                   choices=["fig1", "fig2", "fig3", "fig5", "fig6"])
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--samples", type=int,
                   help="sample count where applicable (defaults are desk-scale)")
    p.add_argument("--grid", type=int, default=41, help="fig1 grid points per axis")
    _add_common(p, report=False)

    p = add("qaoa", _cmd_qaoa, "run the satisfiability-phase experiment")
    p.add_argument("--n", type=int, help="qubit count (with --m)")
    p.add_argument("--m", type=int, help="equation count")
    p.add_argument("--instance", help="load an instance JSON instead of generating")
    p.add_argument("--save-instance", help="write the instance JSON here")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--beta", type=float, default=math.pi / 4)
    p.add_argument("--samples", type=int, required=True, help="samples per term")
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--out", help="also write the run's record as a one-row CSV here")
    _add_common(p)

    p = add("census", _cmd_census, "classify random channels and tally categories")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--mode", choices=list(magic.MODES), default="general")
    p.add_argument("--out", help="per-sample records CSV path")
    _add_common(p)

    classify = add("classify-channel", _cmd_classify_channel,
                   "Venn category of one channel spec")
    classify.add_argument("--mode", choices=list(magic.MODES), default="general")
    for p in (classify, add("norms", _cmd_norms, "print cost norms for one channel spec")):
        spec = p.add_mutually_exclusive_group(required=True)
        spec.add_argument("--spec", help="channel spec as an inline JSON object")
        spec.add_argument("--spec-file", help="channel spec JSON path")
        _add_output(p)

    return parser


_FAILURES = (
    (SpecParseError, EXIT_PARSE, "parse"),
    (BoundOverflowError, EXIT_OVERFLOW, "bound_overflow"),
    (OracleTooLargeError, EXIT_ORACLE, "oracle_too_large"),
    (ValueError, EXIT_VALIDATION, "validation"),
    (OSError, EXIT_IO, "io"),
    (SampleBudgetError, EXIT_BUDGET, "sample_budget"),
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
