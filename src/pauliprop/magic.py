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

LP solver contract: scipy's HiGHS backend (feasibility residual <= 1e-8,
optimality gap <= 1e-6); the classification threshold 1 + 1e-6 matches.
A single input is one dense LP over the 2 * count split weights q = q+ - q-.
Many inputs (robustness_many) are solved LP_BATCH at a time as one LP whose
constraint matrix is block diagonal, one [T, -T] block per input. The blocks
share no variables and the objective is the plain sum of all weights, so any
optimum of the stacked LP restricts to an optimum of every block, and each
input's robustness is the sum of its own slice of the solution. HiGHS's
feasibility and dual-feasibility tolerances hold per row and per column, so
every block meets the same contract as a single solve; the batch amortizes
scipy's per-call overhead, which is most of the cost of a 16 x 120 LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .channels import (
    PTM,
    NotCompletelyPositiveError,
    adjoint_norm,
    channel_norm,
    choi_from_ptm,
    ptm_from_choi,
)
from .exact import embed_operator
from .fanout import fan_out
from .operators import DenseOperator

LP_TOL = 1e-6
LP_BATCH = 32  # robustness LPs stacked into one block-diagonal solve
DEDUP_DECIMALS = 9

STATE_CATEGORIES = ("stabilizer_mixture", "hyper_octahedral_nonstab", "magic")
CHANNEL_CATEGORIES = ("M", "C", "S", "H", "CS", "CH", "SH", "CSH")


@dataclass(frozen=True)
class StabilizerSet:
    n: int
    states: tuple  # DenseOperator per pure stabilizer state
    trace_matrix: np.ndarray  # (4^n, count): column s holds Tr(sigma_i phi_s)


def _gate_set(n: int):
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    s = np.diag([1, 1j]).astype(complex)
    cnot = np.zeros((4, 4), dtype=complex)
    for b in range(4):
        q0, q1 = b & 1, (b >> 1) & 1
        cnot[q0 + 2 * (q1 ^ q0), b] = 1
    gates = []
    for q in range(n):
        gates.append(embed_operator(h, (q,), n))
        gates.append(embed_operator(s, (q,), n))
    for a in range(n):
        for b in range(n):
            if a != b:
                gates.append(embed_operator(cnot, (a, b), n))
    return gates


@lru_cache(maxsize=None)
def enumerate_stabilizer_states(n: int) -> StabilizerSet:
    """Orbit of |0...0> under H, S, CNOT, deduplicated by density matrix.

    Stabilizer-state Pauli traces are exactly 0 or +-1, so rounding the
    trace vector gives an exact dedup key. Counts: 6 (n=1), 60 (n=2).
    """
    if n not in (1, 2):
        raise ValueError("stabilizer enumeration supports n in {1, 2} only")
    gates = _gate_set(n)
    start = np.zeros(2**n, dtype=complex)
    start[0] = 1.0
    frontier = [start]
    seen = {}
    while frontier:
        nxt = []
        for vec in frontier:
            rho = np.outer(vec, vec.conj())
            op = DenseOperator(rho)
            key = tuple(np.round(op.trace_table, DEDUP_DECIMALS))
            if key in seen:
                continue
            seen[key] = op
            nxt.extend(g @ vec for g in gates)
        frontier = nxt
    states = tuple(seen.values())
    trace_matrix = np.column_stack([op.trace_table for op in states])
    return StabilizerSet(n, states, trace_matrix)


def _split_weights(sset: StabilizerSet) -> np.ndarray:
    """[T, -T]: the constraint block over the weights q+ and q- of q = q+ - q-."""
    return np.hstack([sset.trace_matrix, -sset.trace_matrix])


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


def _solve_robustness(rho: DenseOperator, sset: StabilizerSet):
    return _min_weight(_split_weights(sset), rho.trace_table)


def robustness(rho: DenseOperator, sset: StabilizerSet | None = None) -> float:
    """min sum |q_i| s.t. rho = sum q_i |phi_i><phi_i| (sum q_i = 1 is implied
    by the identity-Pauli constraint)."""
    if sset is None:
        sset = enumerate_stabilizer_states(rho.k)
    if rho.k != sset.n:
        raise ValueError("state size does not match the stabilizer set")
    return float(_solve_robustness(rho, sset).fun)


def _block_diagonal(block: np.ndarray, size: int) -> sparse.csc_array:
    """CSC matrix with `size` copies of `block` on its diagonal: copy b's
    columns are the block's columns shifted down by b * rows."""
    one = sparse.csc_array(block)
    rows, cols = block.shape
    shift = np.arange(size)[:, None]
    indices = (one.indices + rows * shift).ravel()
    indptr = np.concatenate([[0], (one.indptr[1:] + one.nnz * shift).ravel()])
    return sparse.csc_array((np.tile(one.data, size), indices, indptr),
                            shape=(rows * size, cols * size))


def robustness_many(ops, sset: StabilizerSet | None = None) -> np.ndarray:
    """robustness() of every operator in `ops`, LP_BATCH problems per
    block-diagonal linprog call (see the module docstring). A chunk of one
    takes the dense single-problem path, which is the faster of the two."""
    ops = list(ops)
    if not ops:
        return np.zeros(0)
    if sset is None:
        sset = enumerate_stabilizer_states(ops[0].k)
    if any(op.k != sset.n for op in ops):
        raise ValueError("state size does not match the stabilizer set")
    block = _split_weights(sset)
    values = []
    for start in range(0, len(ops), LP_BATCH):
        chunk = ops[start:start + LP_BATCH]
        if len(chunk) == 1:
            values.append(_min_weight(block, chunk[0].trace_table).fun)
            continue
        res = _min_weight(_block_diagonal(block, len(chunk)),
                          np.concatenate([op.trace_table for op in chunk]))
        values.extend(res.x.reshape(len(chunk), -1).sum(axis=1))
    return np.array(values, dtype=float)


def robustness_closed_form_1q(rho: DenseOperator) -> float:
    """Octahedron geometry: R = max(1, |bx| + |by| + |bz|)."""
    bloch = rho.trace_table[1:]
    return max(1.0, float(np.abs(bloch).sum()))


def _at_most_one(value: float) -> bool:
    """The one threshold every state category and channel letter uses."""
    return value <= 1.0 + LP_TOL


def _state_category(d: float, r: float | None) -> str:
    if not _at_most_one(d):
        return "magic"
    return "stabilizer_mixture" if _at_most_one(r) else "hyper_octahedral_nonstab"


def classify_state(rho: DenseOperator, sset: StabilizerSet | None = None) -> str:
    """stabilizer_mixture iff R <= 1+tol, else hyper-octahedral iff D <= 1+tol,
    else magic. Since D <= R, states with D > 1+tol skip the LP entirely."""
    d = rho.stabilizer_norm
    return _state_category(d, robustness(rho, sset) if _at_most_one(d) else None)


def classify_states(ops, sset: StabilizerSet | None = None) -> list:
    """classify_state for every operator, with the LPs of the states that the
    D > 1+tol shortcut does not settle solved by robustness_many."""
    norms = [op.stabilizer_norm for op in ops]
    values = iter(robustness_many(
        [op for op, d in zip(ops, norms) if _at_most_one(d)], sset).tolist())
    return [_state_category(d, next(values) if _at_most_one(d) else None)
            for d in norms]


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


def classify_ptm(ptm: PTM, sset: StabilizerSet | None = None) -> ClassificationRecord:
    """Classify a qubit channel given directly by its PTM.

    Raises NotCompletelyPositiveError when the PTM has no Choi state
    (possible after projection); callers tally those as invalid.
    """
    choi_op = DenseOperator(choi_from_ptm(ptm).matrix)
    return _channel_record(ptm, robustness(choi_op, sset))


def _channel_record(ptm: PTM, r: float) -> ClassificationRecord:
    d_fwd = channel_norm(ptm)
    d_adj = adjoint_norm(ptm)
    letters = "".join(letter for letter, value in (("C", r), ("S", d_fwd), ("H", d_adj))
                      if _at_most_one(value))
    return ClassificationRecord(d_fwd, d_adj, r, letters or "M")


def classify_ptms(ptms, sset: StabilizerSet | None = None) -> list:
    """classify_ptm for every PTM, with the Choi-state LPs solved by
    robustness_many; the entry of a PTM with no Choi state is None."""
    chois = []
    for ptm in ptms:
        try:
            chois.append(DenseOperator(choi_from_ptm(ptm).matrix))
        except NotCompletelyPositiveError:
            chois.append(None)
    values = iter(robustness_many([c for c in chois if c is not None], sset).tolist())
    return [None if choi is None else _channel_record(ptm, next(values))
            for ptm, choi in zip(ptms, chois)]


def classify_channel(rho_2q: DenseOperator, mode: str = "general",
                     sset: StabilizerSet | None = None) -> ClassificationRecord:
    """Interpret a two-qubit state as the normalized Choi state of a
    postselective qubit channel, project per mode, and classify."""
    ptm = project_ptm(ptm_from_choi(rho_2q.matrix), mode)
    return classify_ptm(ptm, sset)


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

    sset = enumerate_stabilizer_states(2)

    def is_csh(f: float) -> bool:
        ptm = compose(make_depolarizing(f), make_rotation(theta))
        choi = DenseOperator(choi_from_ptm(ptm).matrix)
        return _at_most_one(robustness(choi, sset))

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
