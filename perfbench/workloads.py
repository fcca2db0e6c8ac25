"""The four workloads: how each builds its inputs, calls pauliprop, and checks
the outputs against reference.py.

Each workload has
  build(seed, out_dir)   -> inputs   (timed as set-up, together with the import)
  reference(inputs)      -> expected (benchmark-only work, never timed)
  run_round(inputs, expected, ctx) -> Round

where ctx carries the worker count and the EstimateLog.

A round makes the same user-level calls every time, so every run attempts
whole rounds and the share of failed operations does not depend on how long
a run lasts. An operation is one user-level call; it fails when it raises or
when any check on its output fails.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from pauliprop import channels, cli, operators, propagation, qaoa
from pauliprop.channels import ChannelApplication

import reference as ref

PAULI_INDEX = {"I": 0, "X": 1, "Y": 2, "Z": 3}


@dataclass
class Round:
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    work: int = 0  # sample-steps walked, or states and channels classified
    invalid: int = 0
    errors: list = field(default_factory=list)

    def op(self, call, check):
        """Time call() as user-visible work, then check its result."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = call()
        except Exception as e:  # a raising call is a failed operation
            self.wall_s += perf_counter() - t0
            self.failed += 1
            self.errors.append(f"{type(e).__name__}: {e}")
            return
        self.wall_s += perf_counter() - t0
        try:
            problems = check(result)
        except (KeyError, TypeError, ValueError) as e:  # malformed output
            problems = [f"unreadable output: {type(e).__name__}: {e}"]
        if problems:
            self.failed += 1
            self.errors.extend(problems)


class EstimateLog:
    """Keeps each EstimateReport that pauliprop's CLI and QAOA harness get
    back from propagation.estimate: the sample std of a verify run and the
    walk length of each QAOA term are not in their JSON reports."""

    def __init__(self):
        self.calls = []  # (n_samples, channel count, report)

    def install(self):
        for module in (cli, qaoa):
            module.estimate = self._wrap(module.estimate)

    def _wrap(self, fn):
        def estimate(circuit, direction, n_samples, *args, **kwargs):
            rep = fn(circuit, direction, n_samples, *args, **kwargs)
            self.calls.append((n_samples, len(circuit.channels), rep))
            return rep
        return estimate

    def take(self):
        calls, self.calls = self.calls, []
        return calls


def _pauli_op(letter: str):
    return operators.DenseOperator(operators.pauli_matrix(PAULI_INDEX[letter], 1))


def _run_cli(argv, output):
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"pauliprop {argv[0]} exited with {code}")
    if output is None:
        return None
    with open(output) as fh:
        return json.load(fh)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# clifford_deep: deterministic Heisenberg walk, n = 32, 400 gates, 1e6 samples

CLIFFORD_N = 32
CLIFFORD_GATES = 400
CLIFFORD_SAMPLES = 1_000_000


def _random_clifford_gates(n, k, rng):
    """The acceptance-5 gate mix, with its 30% share of cnot/cz made exact so
    that every seed walks the same number of each step kind."""
    two_qubit = np.zeros(k, dtype=bool)
    two_qubit[:round(0.3 * k)] = True
    rng.shuffle(two_qubit)
    gates = []
    for pair in two_qubit:
        if pair:
            a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
            gates.append(("cnot" if rng.random() < 0.5 else "cz", (a, b)))
        else:
            gates.append((("h", "s", "x", "y", "z")[int(rng.integers(5))],
                          (int(rng.integers(n)),)))
    return gates


class CliffordDeep:
    name = "clifford_deep"

    @staticmethod
    def build(seed, out_dir):
        rng = np.random.default_rng([1, seed])
        n = CLIFFORD_N
        gates = _random_clifford_gates(n, CLIFFORD_GATES, rng)
        # U Z_S U^dag has value +-1 on U|0...0>; U X_q.. U^dag has value 0
        z_word = "".join("Z" if rng.random() < 0.5 else "I" for _ in range(n))
        z_word = z_word if "Z" in z_word else "Z" + z_word[1:]
        x_word = ["IZ"[int(rng.integers(2))] for _ in range(n)]
        x_word[int(rng.integers(n))] = "X"
        words = [ref.conjugate(gates, w, forward=True)[1] for w in (z_word, "".join(x_word))]

        ptms = {name: channels.make_clifford(name) for name in sorted({g for g, _ in gates})}
        apps = [ChannelApplication(ptms[g], q) for g, q in gates]
        state = operators.FactoredState.of_qubit_states([operators.zero_state()] * n)
        letters = {c: _pauli_op(c) for c in "IXYZ"}
        circuits = [
            propagation.Circuit(n, state, apps, operators.FactoredState.of_qubit_states(
                [letters[c] for c in word]))
            for word in words
        ]
        return {"seed": seed, "gates": gates, "words": words, "circuits": circuits}

    @staticmethod
    def reference(inputs):
        values = [ref.zero_state_value(inputs["gates"], w) for w in inputs["words"]]
        if abs(values[0]) != 1.0 or values[1] != 0.0:
            raise RuntimeError(f"reference construction broke: {values}")
        return values

    @staticmethod
    def run_round(inputs, expected, ctx):
        rnd = Round()
        for circuit, exact in zip(inputs["circuits"], expected):
            def check(rep, exact=exact):
                out = []
                if rep.sample_std != 0.0:
                    out.append(f"clifford sample_std {rep.sample_std} != 0")
                if not _close(rep.mean, exact, 1e-12):
                    out.append(f"clifford mean {rep.mean} != exact {exact}")
                return out
            rnd.op(functools.partial(propagation.estimate, circuit, "heisenberg",
                                     CLIFFORD_SAMPLES, seed=inputs["seed"], workers=1), check)
            rnd.work += CLIFFORD_SAMPLES * len(circuit.channels)
        return rnd


# ---------------------------------------------------------------------------
# noisy_t_n8: `pauliprop verify --direction both` on an 8-qubit circuit file

NOISY_N = 8
NOISY_MIX = (("reset", 1), ("measure_z", 2), ("ptm", 15), ("1q", 10), ("2q", 12))
NOISY_CHANNELS = sum(count for _, count in NOISY_MIX)
NOISY_SAMPLES = 500_000
NOISY_MIN_VALUE = 0.45
NOISY_Z = 5.0  # tolerance in standard errors
_T = math.pi / 4


def noisy_t_ptm(f: float):
    """PTM of depolarizing(f) after T, written out: cost max(1, f sqrt 2)."""
    c, s = math.cos(_T), math.sin(_T)
    return [[1.0, 0.0, 0.0, 0.0], [0.0, f * c, -f * s, 0.0],
            [0.0, f * s, f * c, 0.0], [0.0, 0.0, 0.0, f]]


def _noisy_t_circuit(rng):
    """Random inputs over all four library states, and a fixed mix of
    channels in random order and places, so every seed walks the same steps.
    Each forward reset doubles the Schrodinger coefficient, so there is one."""
    n = NOISY_N
    names = ["zero", "plus", "T_state", "H_state"]
    states = names + [names[int(i)] for i in rng.integers(4, size=n - 4)]
    rng.shuffle(states)
    kinds = [kind for kind, count in NOISY_MIX for _ in range(count)]
    rng.shuffle(kinds)
    specs, ops = [], []  # the circuit file's channels; (kraus, qubits) for the reference
    for kind in kinds:
        q = int(rng.integers(n))
        if kind == "ptm":
            f = float(rng.uniform(0.55, 0.70))
            specs.append({"ptm": noisy_t_ptm(f), "qubits": [q]})
            ops.append((ref.noisy_rotation_kraus(f, _T), (q,)))
        elif kind == "1q":
            g = ("h", "s")[int(rng.integers(2))]
            specs.append({"gate": g, "qubits": [q]})
            ops.append(([ref.UNITARIES[g]], (q,)))
        elif kind == "2q":
            a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
            g = ("cnot", "cz")[int(rng.integers(2))]
            specs.append({"gate": g, "qubits": [a, b]})
            ops.append(([ref.UNITARIES[g]], (a, b)))
        elif kind == "measure_z":
            specs.append({"measure_z": {}, "qubits": [q]})
            ops.append((ref.MEASURE_Z_KRAUS, (q,)))
        else:
            target = ("zero", "plus")[int(rng.integers(2))]
            specs.append({"reset": {"state": target}, "qubits": [q]})
            ops.append((ref.reset_kraus(target), (q,)))
    return states, specs, ops


def _dense_output(states, ops):
    rho = ref.product_state([ref.STATES[s] for s in states])
    for kraus, qubits in ops:
        rho = ref.apply_kraus(rho, kraus, qubits, NOISY_N)
    return rho


def _low_weight_values(rho):
    """Exact <P> for every Pauli word P of weight 2 or 3."""
    locals_ = [w for w in itertools.product("IXYZ", repeat=3) if w.count("I") <= 1]
    mats = np.stack([ref.local_matrix(w) for w in locals_])
    values = {}
    for triple in itertools.combinations(range(NOISY_N), 3):
        red = ref.reduced_state(rho, triple, NOISY_N)
        for local, v in zip(locals_, np.einsum("wij,ji->w", mats, red).real):
            word = ["I"] * NOISY_N
            for q, c in zip(triple, local):
                word[q] = c
            values["".join(word)] = float(v)
    return values


class NoisyTN8:
    name = "noisy_t_n8"

    @staticmethod
    def build(seed, out_dir):
        """Draw circuits until one has a weight-2 or -3 Pauli observable with
        |exact value| >= NOISY_MIN_VALUE."""
        rng = np.random.default_rng([2, seed])
        while True:
            states, specs, ops = _noisy_t_circuit(rng)
            values = _low_weight_values(_dense_output(states, ops))
            candidates = sorted(w for w, v in values.items() if abs(v) >= NOISY_MIN_VALUE)
            if candidates:
                word = candidates[int(rng.integers(len(candidates)))]
                value = values[word]
                break
        spec = {
            "n": NOISY_N,
            "input": [{"state": s, "qubits": [q]} for q, s in enumerate(states)],
            "channels": specs,
            "observable": [{"pauli": c, "qubits": [q]} for q, c in enumerate(word)],
        }
        path = os.path.join(out_dir, f"noisy_t_n8_{seed}.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        return {"seed": seed, "path": path, "value": value,
                "output": os.path.join(out_dir, f"noisy_t_n8_{seed}.out.json")}

    @staticmethod
    def reference(inputs):
        return inputs["value"]

    @staticmethod
    def run_round(inputs, expected, ctx):
        rnd = Round()
        log = ctx.log
        argv = ["verify", "--circuit", inputs["path"], "--direction", "both",
                "--samples", str(NOISY_SAMPLES), "--seed", str(inputs["seed"]),
                "--workers", "1", "--output", inputs["output"]]

        def check(out):
            problems = []
            calls = log.take()
            if not _close(out["oracle"], expected, 1e-9):
                problems.append(f"oracle {out['oracle']} != reference {expected}")
            if len(calls) != 2:
                return problems + [f"expected 2 estimate calls, saw {len(calls)}"]
            for direction, (n_samples, _, rep) in zip(("schrodinger", "heisenberg"), calls):
                tol = max(NOISY_Z * rep.sample_std / math.sqrt(n_samples), 1e-9)
                if rep.mean != out[direction]["estimate"]:
                    problems.append(f"{direction}: report and JSON disagree")
                if not _close(rep.mean, expected, tol):
                    problems.append(f"{direction}: {rep.mean} vs {expected} (tol {tol:.3g})")
                if abs(expected) <= tol:
                    problems.append(f"{direction}: |exact| {expected} within tol {tol:.3g}")
            if out["passed"] is not True:
                problems.append("verify reported passed = false")
            return problems

        log.take()
        rnd.op(functools.partial(_run_cli, argv, inputs["output"]), check)
        rnd.work = 2 * NOISY_SAMPLES * NOISY_CHANNELS
        return rnd


# ---------------------------------------------------------------------------
# qaoa_n16: `pauliprop qaoa --instance FILE` on a generated E3LIN2 instance

QAOA_N = 16
QAOA_M = 20
QAOA_GAMMA = math.pi / 8
QAOA_BETA = math.pi / 4
QAOA_SAMPLES = 100_000
# instances with exactly this many pairs of equations sharing a qubit, each
# term's neighbourhood holding both parities: every seed then has the same
# lightcone lengths in total (20 + 2 * 77 rotations) and the same PTM count
QAOA_SHARED_PAIRS = 77


def e3lin2_instance(n, m, rng):
    """m distinct sorted triples with random parities, each qubit in at most
    max(m // 10, ceil(3m / n)) equations (the instance format's degree cap)."""
    cap = max(m // 10, -(-3 * m // n))
    while True:
        degree = [0] * n
        chosen = {}
        for _ in range(100 * m):
            if len(chosen) == m:
                break
            triple = tuple(sorted(int(v) for v in rng.choice(n, size=3, replace=False)))
            if triple in chosen or any(degree[q] >= cap for q in triple):
                continue
            chosen[triple] = int(rng.integers(2))
            for q in triple:
                degree[q] += 1
        if len(chosen) == m:
            return [[a, b, c, d] for (a, b, c), d in chosen.items()]


class QaoaN16:
    name = "qaoa_n16"

    @staticmethod
    def build(seed, out_dir):
        rng = np.random.default_rng([3, seed])
        while True:
            equations = e3lin2_instance(QAOA_N, QAOA_M, rng)
            near = [[f for f in equations if set(e[:3]) & set(f[:3])] for e in equations]
            if (sum(len(group) - 1 for group in near) == 2 * QAOA_SHARED_PAIRS
                    and all(len({f[3] for f in group}) == 2 for group in near)):
                break
        path = os.path.join(out_dir, f"qaoa_n16_{seed}.json")
        with open(path, "w") as fh:
            json.dump({"n": QAOA_N, "m": QAOA_M, "equations": equations}, fh)
        return {"seed": seed, "path": path, "equations": equations,
                "output": os.path.join(out_dir, f"qaoa_n16_{seed}.out.json")}

    @staticmethod
    def reference(inputs):
        return ref.qaoa_expectation(QAOA_N, inputs["equations"], QAOA_GAMMA, QAOA_BETA)

    @staticmethod
    def run_round(inputs, expected, ctx):
        rnd = Round()
        log = ctx.log
        argv = ["qaoa", "--instance", inputs["path"], "--gamma", repr(QAOA_GAMMA),
                "--beta", repr(QAOA_BETA), "--samples", str(QAOA_SAMPLES),
                "--seed", str(inputs["seed"]), "--workers", "1",
                "--output", inputs["output"]]

        def check(out):
            problems = []
            if (out["n"], out["m"], out["n_samples"]) != (QAOA_N, QAOA_M, QAOA_SAMPLES):
                problems.append(f"qaoa record shape {out['n'], out['m'], out['n_samples']}")
            if not _close(out["C_heis"], expected, out["eps_heis_engine"]):
                problems.append(f"C_heis {out['C_heis']} vs {expected} "
                                f"(eps {out['eps_heis_engine']:.3g})")
            if not _close(out["C_vdn"], expected, out["eps_nest"]):
                problems.append(f"C_vdn {out['C_vdn']} vs {expected} "
                                f"(eps {out['eps_nest']:.3g})")
            return problems

        log.take()
        rnd.op(functools.partial(_run_cli, argv, inputs["output"]), check)
        rnd.work = sum(n * steps for n, steps, _ in log.take())
        return rnd


# ---------------------------------------------------------------------------
# census: channel census in all four modes, fig2 and fig3

CENSUS_SAMPLES = 200
FIG2_SAMPLES = 1000
FIG3_THETAS = np.linspace(0.0, math.pi / 2, 25)
FIG3_FS = np.linspace(0.4, 1.0, 31)
FIG3_CHECKED = 20
LETTER_TOL = 1e-6
LP_MARGIN = 1e-6  # reference robustness this close to 1 + LETTER_TOL is not compared
HS_SAMPLES = 20_000
MODES = ("general", "unital", "trace_preserving", "both")


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines[0].startswith("# pauliprop"):
        raise ValueError(f"{path}: missing metadata line")
    return list(csv.DictReader(lines[1:]))


def _letters(d_forward, d_adjoint, robustness=None):
    out = ""
    if robustness is not None and robustness <= 1 + LETTER_TOL:
        out += "C"
    if d_forward <= 1 + LETTER_TOL:
        out += "S"
    if d_adjoint <= 1 + LETTER_TOL:
        out += "H"
    return out


class Census:
    name = "census"

    @staticmethod
    def build(seed, out_dir):
        return {"seed": seed,
                "out": lambda name: os.path.join(out_dir, f"census_{seed}_{name}")}

    @staticmethod
    def reference(inputs):
        rng = np.random.default_rng([4, inputs["seed"]])
        stab = np.column_stack([ref.pauli_vector(s) for s in ref.stabilizer_states_2q()])
        if stab.shape[1] != 60:
            raise RuntimeError(f"enumerated {stab.shape[1]} stabilizer states, not 60")
        picks = rng.choice(len(FIG3_THETAS) * len(FIG3_FS), size=FIG3_CHECKED, replace=False)
        points = []
        for p in picks:
            theta = float(FIG3_THETAS[p // len(FIG3_FS)])
            f = float(FIG3_FS[p % len(FIG3_FS)])
            r = ref.robustness_2q(ref.choi_state(ref.noisy_rotation_kraus(f, theta)), stab)
            points.append((f, theta, r))
        return {"fig3": points, "magic_share": ref.hs_magic_share(HS_SAMPLES, rng)}

    @staticmethod
    def run_round(inputs, expected, ctx):
        """fig3 runs first: it fills this process's stabilizer-state cache,
        which the census workers then inherit, so every round does the same
        work."""
        rnd = Round()
        out = inputs["out"]
        common = ["--seed", str(inputs["seed"]), "--workers", str(ctx.workers)]
        fig3, fig2 = out("fig3.csv"), out("fig2.csv")
        rnd.op(functools.partial(_run_cli, ["figures", "--which", "fig3", "--out", fig3]
                                 + common, None),
               functools.partial(_check_fig3, rnd, fig3, expected["fig3"]))
        for mode in MODES:
            csv_path, json_path = out(f"{mode}.csv"), out(f"{mode}.json")
            argv = ["census", "--samples", str(CENSUS_SAMPLES), "--mode", mode,
                    "--out", csv_path, "--output", json_path] + common
            rnd.op(functools.partial(_run_cli, argv, json_path),
                   functools.partial(_check_census, rnd, mode, csv_path))
        rnd.op(functools.partial(_run_cli, ["figures", "--which", "fig2", "--samples",
                                            str(FIG2_SAMPLES), "--out", fig2] + common, None),
               functools.partial(_check_fig2, rnd, fig2, expected["magic_share"]))
        return rnd


def _check_census(rnd, mode, csv_path, res):
    problems = []
    rows = _read_csv(csv_path)
    if sum(res["counts"].values()) + res["invalid"] != CENSUS_SAMPLES:
        problems.append(f"{mode}: counts do not sum to {CENSUS_SAMPLES}")
    if len(rows) != CENSUS_SAMPLES - res["invalid"]:
        problems.append(f"{mode}: {len(rows)} records for "
                        f"{CENSUS_SAMPLES - res['invalid']} valid samples")
    if mode == "general" and res["invalid"] != 0:
        problems.append(f"general: {res['invalid']} invalid samples")
    for row in rows:
        df, da, r = float(row["d_forward"]), float(row["d_adjoint"]), float(row["robustness"])
        if row["category"] != (_letters(df, da, r) or "M"):
            problems.append(f"{mode}: record {row} has the wrong letters")
        if r < 1 - LETTER_TOL:
            problems.append(f"{mode}: robustness {r} below 1")
    rnd.invalid += res["invalid"]
    rnd.work += len(rows)
    return problems


def _check_fig2(rnd, path, ref_share, _):
    rows = {r["category"]: int(r["count"]) for r in _read_csv(path)}
    problems = []
    if sum(rows.values()) != FIG2_SAMPLES:
        problems.append(f"fig2 counts sum to {sum(rows.values())}")
    share = rows.get("magic", 0) / FIG2_SAMPLES
    p = (share * FIG2_SAMPLES + ref_share * HS_SAMPLES) / (FIG2_SAMPLES + HS_SAMPLES)
    se = math.sqrt(p * (1 - p) * (1 / FIG2_SAMPLES + 1 / HS_SAMPLES))
    if abs(share - ref_share) > 5 * se:
        problems.append(f"fig2 magic share {share} vs reference {ref_share}")
    rnd.work += sum(rows.values())
    return problems


def _check_fig3(rnd, path, reference_points, _):
    rows = _read_csv(path)
    problems = []
    if len(rows) != len(FIG3_THETAS) * len(FIG3_FS):
        problems.append(f"fig3 has {len(rows)} rows")
    for row in rows:
        f, theta = float(row["f"]), float(row["theta"])
        d = max(1.0, f * (abs(math.cos(theta)) + abs(math.sin(theta))))
        df, da = float(row["d_forward"]), float(row["d_adjoint"])
        if not (_close(df, d, 1e-9) and _close(da, d, 1e-9)):
            problems.append(f"fig3 ({f}, {theta}): norms {df}, {da} != {d}")
        if row["category"].strip("CM") != _letters(df, da):
            problems.append(f"fig3 ({f}, {theta}): letters {row['category']}")
    for f, theta, r in reference_points:
        if abs(r - (1 + LETTER_TOL)) < LP_MARGIN:
            continue
        match = [row for row in rows if _close(float(row["f"]), f, 1e-9)
                 and _close(float(row["theta"]), theta, 1e-9)]
        if len(match) != 1:
            problems.append(f"fig3 has {len(match)} rows at ({f}, {theta})")
        elif ("C" in match[0]["category"]) != (r <= 1 + LETTER_TOL):
            problems.append(f"fig3 ({f}, {theta}): {match[0]['category']} "
                            f"vs reference robustness {r}")
    rnd.work += len(rows)
    return problems


WORKLOADS = {w.name: w for w in (CliffordDeep, NoisyTN8, QaoaN16, Census)}
