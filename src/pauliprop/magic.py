"""Stabilizer-state enumeration, robustness of magic, and Venn classification.

Robustness R(rho) is the minimal L1 weight of an affine decomposition of rho
over the pure stabilizer states (6 for one qubit, 60 for two), solved as a
linear program. Categories:

  states   -- stabilizer mixture (R = 1), hyper-octahedral (D <= 1), magic.
  channels -- membership letters over {C, S, H}: C iff the normalized Choi
              state is a stabilizer mixture, S iff D(Lambda) <= 1, H iff
              D(Lambda^dag) <= 1; M if none. Channels are sampled through
              the bijection with two-qubit mixed states, optionally projected
              onto the unital and/or trace-preserving Bloch subspaces.

Certificates first. The LP min sum(x) s.t. [T, -T] x = t, x >= 0, over the
trace table t of rho and the stabilizer trace tables T_s, has the dual
max <y, t> s.t. |<y, T_s>| <= 1 for every s (Howard & Campbell, PRL 118,
090501, 2017), so any dual-feasible y proves R >= <y, t>. Every input is
scored against a table of such rows: the identity row e_0, the
stabilizer-norm row sign(t)/2^n (its score is D, so D <= R), and a fixed set
of Clifford-orbit LP duals (two qubits: package data written by
tools/make_stabilizer_duals.py and checked for exact feasibility at load;
one qubit: (0, +-1, +-1, +-1), with which the table is complete since
R = max(1, |b|_1)). The best row y settles an input in one of two ways:

  bound -- <y, t> > 1 + LP_TOL proves the input is no stabilizer mixture,
           which is all a state category needs;
  exact -- an NNLS fit of t over the columns on which y is tight,
           [T_s : <y, T_s> = +1] and [-T_s : <y, T_s> = -1], with residual
           <= 1e-10 and weight sum <y, t> is a primal point of the same
           objective, so R = <y, t> by complementary slackness.

LP solver contract, for the inputs no certificate settles: scipy's HiGHS
backend (feasibility residual <= 1e-8, optimality gap <= 1e-6); the
classification threshold 1 + 1e-6 matches. Each such input gets its own
16 x 120 LP (two qubits), so its value never depends on the batch it came
in. Few inputs get that far: fig1 and fig3 solve none, a 20000-state census
14, and a 2000-channel census 0-198 depending on the mode, never more than
3 in one CENSUS_BLOCK; stacking them into one solve saved no time.

Each classification batch logs one DEBUG record on the "pauliprop" logger
whose `classify` attribute counts how the batch was settled.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import lru_cache
from importlib.resources import files
from itertools import product

import numpy as np

from .channels import (
    PTM,
    NotCompletelyPositiveError,
    adjoint_norm,
    channel_norm,
    choi_trace_table,
    make_clifford,
    ptm_from_choi,
)
from .fanout import fan_out
from .operators import DenseOperator

LP_TOL = 1e-6
DUAL_DENOM = 60  # dual table rows are stored exactly as the integers 60 * y
# inputs scored against the dual table per product: at this size OpenBLAS
# runs it on one thread, whose cost does not jump when workers share cores
CERT_CHUNK = 16
FIT_TOL = 1e-10  # largest NNLS residual of an exact certificate
VALUE_TOL = 1e-9  # largest gap between its weight sum and <y, t>

STATE_CATEGORIES = ("stabilizer_mixture", "hyper_octahedral_nonstab", "magic")
CHANNEL_CATEGORIES = ("M", "C", "S", "H", "CS", "CH", "SH", "CSH")

_log = logging.getLogger("pauliprop")


@dataclass(frozen=True)
class StabilizerSet:
    n: int
    states: tuple  # DenseOperator per pure stabilizer state
    trace_matrix: np.ndarray  # (4^n, count) int64: column s holds Tr(sigma_i phi_s)


def _clifford_generators(n: int) -> list:
    """The make_clifford PTMs of H and S on each qubit, then of CNOT on each
    ordered pair, on n qubits as int64 signed permutations: H0, S0, H1, S1,
    CNOT(0->1), CNOT(1->0) for two qubits."""
    h, s = (make_clifford(name).matrix.astype(np.int64) for name in ("h", "s"))
    gens = [np.kron(np.eye(4 ** (n - 1 - q), dtype=np.int64),
                    np.kron(g, np.eye(4**q, dtype=np.int64)))  # qubit q is digit q
            for q in range(n) for g in (h, s)]
    if n == 2:
        cnot = make_clifford("cnot").matrix.astype(np.int64)
        swap = np.arange(16).reshape(4, 4).T.ravel()  # index with the two digits swapped
        gens += [cnot, cnot[np.ix_(swap, swap)]]
    return gens


@lru_cache(maxsize=None)
def enumerate_stabilizer_states(n: int) -> StabilizerSet:
    """Orbit of |0...0> under H, S and CNOT, walked on trace tables.

    Stabilizer-state Pauli traces are 0 or +-1 and the Clifford PTMs are
    signed permutations, so the tables stay exact integers and dedupe by
    equality. Counts: 6 (n=1), 60 (n=2).
    """
    if n not in (1, 2):
        raise ValueError("stabilizer enumeration supports n in {1, 2} only")
    gates = _clifford_generators(n)
    start = np.ones(1, dtype=np.int64)
    for _ in range(n):
        start = np.kron(start, [1, 0, 0, 1])  # |0><0| has trace 1 on I and Z
    frontier = [start]
    seen = {}
    while frontier:
        nxt = []
        for table in frontier:
            key = table.tobytes()
            if key in seen:
                continue
            seen[key] = table
            nxt.extend(g @ table for g in gates)
        frontier = nxt
    trace_matrix = np.column_stack(list(seen.values()))
    trace_matrix.setflags(write=False)  # shared by every caller through the cache
    states = tuple(DenseOperator.from_coeffs(t / 2**n, n) for t in trace_matrix.T)
    return StabilizerSet(n, states, trace_matrix)


# scipy.optimize is imported on first use: it takes about two thirds of
# `import pauliprop`, and only the LPs and NNLS fits here need it

def linprog(*args, **kwargs):
    from scipy.optimize import linprog as solve
    return solve(*args, **kwargs)


def nnls(*args, **kwargs):
    from scipy.optimize import nnls as solve
    return solve(*args, **kwargs)


def _import_solvers():
    """Import scipy.optimize before a fan-out, so that forked workers inherit
    it instead of each importing it again."""
    import scipy.optimize  # noqa: F401


def _split_weights(n: int) -> np.ndarray:
    """[T, -T]: the constraint block over the weights q+ and q- of q = q+ - q-."""
    trace = enumerate_stabilizer_states(n).trace_matrix
    return np.hstack([trace, -trace])


def _min_weight(a_eq, b_eq):
    """min sum(x) s.t. a_eq x = b_eq, x >= 0, on HiGHS."""
    res = linprog(
        c=np.ones(a_eq.shape[1]),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"robustness LP failed: {res.message}")
    return res


def _solve_robustness(rho: DenseOperator):
    """One dense LP, no certificates: the reference the tests compare against."""
    return _min_weight(_split_weights(rho.k), rho.trace_table)


def _lp_values(tables: np.ndarray, n: int) -> np.ndarray:
    """LP robustness of every n-qubit trace table (row), one LP each."""
    block = _split_weights(n)
    return np.array([_min_weight(block, t).fun for t in tables], dtype=float)


@dataclass(frozen=True)
class DualTable:
    trace: np.ndarray  # (4^n, count): the stabilizer trace tables T_s, exact integers
    rows: np.ndarray  # (rows, 4^n): dual-feasible y, |<y, T_s>| <= 1 for all s
    tight: np.ndarray  # (rows, count): <y, T_s> where that is +-1, else 0


@lru_cache(maxsize=None)
def _dual_table(n: int) -> DualTable:
    """The fixed certificate rows for n qubits, the identity row first;
    every row is checked to be feasible in integer arithmetic."""
    trace = enumerate_stabilizer_states(n).trace_matrix
    if n == 1:
        scaled = DUAL_DENOM * np.array([(0, *signs) for signs in product((-1, 1), repeat=3)])
    else:
        with files("pauliprop").joinpath("data/stabilizer_duals_2q.txt").open() as fh:
            scaled = np.loadtxt(fh, dtype=np.int64, ndmin=2)
    identity = np.zeros((1, 4**n), dtype=np.int64)
    identity[0, 0] = DUAL_DENOM
    scaled = np.vstack([identity, scaled])
    scores = scaled @ trace
    if np.abs(scores).max() > DUAL_DENOM:
        raise RuntimeError("a stored dual row is not feasible for the stabilizer LP")
    tight = np.where(np.abs(scores) == DUAL_DENOM, np.sign(scores), 0)
    table = DualTable(trace, scaled / DUAL_DENOM, tight)
    for array in (table.trace, table.rows, table.tight):
        array.setflags(write=False)  # shared by every caller through the cache
    return table


def _robustness(tables: np.ndarray, n: int, exact: bool) -> np.ndarray:
    """Robustness of every n-qubit trace table, certificates first and the
    LP for the rest (see the module docstring). With exact=False a returned
    value above 1 + LP_TOL may be a lower bound only. Logs one DEBUG record."""
    table = _dual_table(n)
    values = np.full(len(tables), np.nan)
    counts = {"inputs": len(tables), "d_skips": 0, "bound_certs": 0,
              "exact_certs": 0, "lps": 0, "lp_s": 0.0}
    for start in range(0, len(tables), CERT_CHUNK):
        chunk = tables[start:start + CERT_CHUNK]
        for i, best in enumerate((chunk @ table.rows.T).argmax(axis=1)):
            t = chunk[i]
            # scored alone, so that a value never depends on its batch
            value, tight = float(t @ table.rows[best]), table.tight[best]
            norm = float(np.abs(t).sum()) / 2**n  # the sign(t)/2^n row's score
            if norm > value:
                signs = np.sign(t).astype(np.int64) @ table.trace
                value, tight = norm, np.where(np.abs(signs) == 2**n, np.sign(signs), 0)
            if not exact and not _at_most_one(value):
                counts["d_skips" if not _at_most_one(norm) else "bound_certs"] += 1
            elif _primal_check(t, value, tight, table.trace):
                counts["exact_certs"] += 1
            else:
                continue
            values[start + i] = value
    open_ = np.flatnonzero(np.isnan(values))
    if len(open_):
        t0 = time.perf_counter()
        values[open_] = _lp_values(tables[open_], n)
        counts["lps"], counts["lp_s"] = len(open_), time.perf_counter() - t0
    _log.debug("classify batch: %(inputs)d inputs, %(d_skips)d D > 1 skips, "
               "%(bound_certs)d bound certificates, %(exact_certs)d exact "
               "certificates, %(lps)d LPs in %(lp_s).3f s", counts,
               extra={"classify": counts})
    return values


def _primal_check(t: np.ndarray, value: float, tight: np.ndarray,
                  trace: np.ndarray) -> bool:
    """True if t is a nonnegative combination of the signed columns on which
    y is tight, with weight sum <y, t>: then R(t) = <y, t>."""
    cols = np.flatnonzero(tight)
    weights, residual = nnls(trace[:, cols] * tight[cols], t)
    return residual <= FIT_TOL and abs(weights.sum() - value) <= VALUE_TOL


def _trace_tables(ops) -> tuple[np.ndarray, int]:
    n = ops[0].k if ops else 2
    if any(op.k != n for op in ops):
        raise ValueError("a batch mixes operators on different numbers of qubits")
    return np.array([op.trace_table for op in ops]).reshape(len(ops), 4**n), n


def robustness(rho: DenseOperator) -> float:
    """min sum |q_i| s.t. rho = sum q_i |phi_i><phi_i| (sum q_i = 1 is implied
    by the identity-Pauli constraint)."""
    return float(robustness_many([rho])[0])


def robustness_many(ops) -> np.ndarray:
    """robustness() of every operator in `ops`: exact certificates where
    they hold, one LP each for the rest (see the module docstring)."""
    return _robustness(*_trace_tables(list(ops)), exact=True)


def robustness_closed_form_1q(rho: DenseOperator) -> float:
    """Octahedron geometry: R = max(1, |bx| + |by| + |bz|)."""
    bloch = rho.trace_table[1:]
    return max(1.0, float(np.abs(bloch).sum()))


def _at_most_one(value: float) -> bool:
    """The one threshold every state category and channel letter uses."""
    return value <= 1.0 + LP_TOL


def _state_category(d: float, r: float) -> str:
    if not _at_most_one(d):
        return "magic"
    return "stabilizer_mixture" if _at_most_one(r) else "hyper_octahedral_nonstab"


def classify_state(rho: DenseOperator) -> str:
    """stabilizer_mixture iff R <= 1+tol, else hyper-octahedral iff D <= 1+tol,
    else magic."""
    return classify_states([rho])[0]


def classify_states(ops) -> list:
    """classify_state for every operator. A category needs only R <= 1+tol
    or not, so a certified lower bound above 1+tol (D itself, when D > 1+tol)
    settles most states without an exact value or an LP."""
    ops = list(ops)
    values = _robustness(*_trace_tables(ops), exact=False)
    return [_state_category(op.stabilizer_norm, r) for op, r in zip(ops, values)]


def sample_hilbert_schmidt(n: int, rng: np.random.Generator) -> DenseOperator:
    """rho = GG^dag / Tr(GG^dag) with G a complex Ginibre matrix."""
    dim = 2**n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return DenseOperator((rho + rho.conj().T) / 2)


# ---------------------------------------------------------------------------
# channel classification (backs the fig5 census dataset)

@dataclass(frozen=True)
class ClassificationRecord:
    d_forward: float
    d_adjoint: float
    robustness: float
    category: str


MODES = ("general", "unital", "trace_preserving", "both")


def project_ptm(ptm: PTM, mode: str) -> PTM:
    """Set the identity column (unital) and/or identity row (trace preserving)
    of a 1-qubit channel PTM to [1, 0, 0, 0]."""
    if mode not in MODES:
        raise ValueError(f"unknown projection mode {mode!r}")
    m = ptm.matrix.copy()
    if mode in ("unital", "both"):
        m[:, 0] = 0.0
        m[0, 0] = 1.0
    if mode in ("trace_preserving", "both"):
        m[0, :] = 0.0
        m[0, 0] = 1.0
    return PTM(m)


def classify_ptm(ptm: PTM) -> ClassificationRecord:
    """Classify a qubit channel given directly by its PTM.

    Raises NotCompletelyPositiveError when the PTM has no Choi state
    (possible after projection); callers tally those as invalid.
    """
    return _channel_record(ptm, float(_robustness(_choi_table(ptm)[None], 2, exact=True)[0]))


def _channel_record(ptm: PTM, r: float) -> ClassificationRecord:
    d_fwd = channel_norm(ptm)
    d_adj = adjoint_norm(ptm)
    letters = "".join(letter for letter, value in (("C", r), ("S", d_fwd), ("H", d_adj))
                      if _at_most_one(value))
    return ClassificationRecord(d_fwd, d_adj, r, letters or "M")


def classify_ptms(ptms) -> list:
    """classify_ptm for every PTM, with the Choi-state robustness values
    taken in one batch; the entry of a PTM with no Choi state is None."""
    ptms, tables = list(ptms), []
    for ptm in ptms:
        try:
            tables.append(_choi_table(ptm))
        except NotCompletelyPositiveError:
            tables.append(None)
    valid = [t for t in tables if t is not None]
    values = iter(_robustness(np.reshape(valid, (len(valid), 16)), 2, exact=True).tolist())
    return [None if t is None else _channel_record(ptm, next(values))
            for ptm, t in zip(ptms, tables)]


def _choi_table(ptm: PTM) -> np.ndarray:
    if ptm.k != 1:
        raise ValueError("channel classification takes single-qubit channels")
    return choi_trace_table(ptm)


@dataclass(frozen=True)
class CensusResult:
    mode: str
    n_samples: int
    seed: int
    counts: dict
    invalid: int
    records: tuple  # (sample index, d_forward, d_adjoint, robustness, category)


# samples per fan-out block: small, so that a few hundred samples still split
# evenly over two workers
CENSUS_BLOCK = 4


def _census_block(mode: str, count: int, rng) -> list:
    ptms = [project_ptm(ptm_from_choi(sample_hilbert_schmidt(2, rng).matrix), mode)
            for _ in range(count)]
    return classify_ptms(ptms)


def classification_census(n_samples: int, mode: str = "general", seed: int = 0,
                          workers: int = 1) -> CensusResult:
    """Histogram over the eight categories for HS-random postselective channels."""
    if mode not in MODES:
        raise ValueError(f"unknown projection mode {mode!r}")
    _import_solvers()
    blocks = fan_out(_census_block, (mode,), n_samples, CENSUS_BLOCK, seed, workers)
    counts = {cat: 0 for cat in CHANNEL_CATEGORIES}
    invalid = 0
    records = []
    for index, rec in enumerate(rec for block in blocks for rec in block):
        if rec is None:
            invalid += 1
            continue
        counts[rec.category] += 1
        records.append((index, rec.d_forward, rec.d_adjoint, rec.robustness, rec.category))
    return CensusResult(mode, n_samples, seed, counts, invalid, tuple(records))


def _state_census_block(n: int, count: int, rng) -> list:
    return classify_states([sample_hilbert_schmidt(n, rng) for _ in range(count)])


def state_census(n_samples: int, n: int = 2, seed: int = 0, workers: int = 1) -> dict:
    """Category counts for Hilbert-Schmidt random states (the fig2 dataset)."""
    _import_solvers()
    blocks = fan_out(_state_census_block, (n,), n_samples, CENSUS_BLOCK, seed, workers)
    counts = {cat: 0 for cat in STATE_CATEGORIES}
    for block in blocks:
        for category in block:
            counts[category] += 1
    return counts


def csh_boundary_f(theta: float = np.pi / 4, f_low: float = 0.4, f_high: float = 1.0,
                   f_tol: float = 1e-3) -> float:
    """Bisect the depolarizing fidelity where the depolarized rotation's Choi
    state stops being a stabilizer mixture (the CSH boundary in the fig3
    sweep)."""
    from .channels import compose, make_depolarizing, make_rotation

    def is_csh(f: float) -> bool:
        return "C" in classify_ptm(compose(make_depolarizing(f), make_rotation(theta))).category

    if not is_csh(f_low) or is_csh(f_high):
        raise ValueError("bisection bracket does not straddle the boundary")
    lo, hi = f_low, f_high
    while hi - lo > f_tol:
        mid = (lo + hi) / 2
        if is_csh(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
