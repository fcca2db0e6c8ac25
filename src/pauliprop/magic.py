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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog

from .channels import (
    PTM,
    NotCompletelyPositiveError,
    adjoint_norm,
    channel_norm,
    choi_from_ptm,
    choi_matrix,
    ptm_from_choi,
)
from .exact import embed_operator
from .fanout import fan_out
from .operators import DenseOperator

LP_TOL = 1e-6
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


def _solve_robustness(rho: DenseOperator, sset: StabilizerSet):
    count = len(sset.states)
    a_eq = np.hstack([sset.trace_matrix, -sset.trace_matrix])
    res = linprog(
        c=np.ones(2 * count),
        A_eq=a_eq,
        b_eq=rho.trace_table,
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"robustness LP failed: {res.message}")
    return res


def robustness(rho: DenseOperator, sset: StabilizerSet | None = None) -> float:
    """min sum |q_i| s.t. rho = sum q_i |phi_i><phi_i| (sum q_i = 1 is implied
    by the identity-Pauli constraint)."""
    if sset is None:
        sset = enumerate_stabilizer_states(rho.k)
    if rho.k != sset.n:
        raise ValueError("state size does not match the stabilizer set")
    return float(_solve_robustness(rho, sset).fun)


def robustness_closed_form_1q(rho: DenseOperator) -> float:
    """Octahedron geometry: R = max(1, |bx| + |by| + |bz|)."""
    bloch = rho.trace_table[1:]
    return max(1.0, float(np.abs(bloch).sum()))


def classify_state(rho: DenseOperator, sset: StabilizerSet | None = None) -> str:
    """stabilizer_mixture iff R <= 1+tol, else hyper-octahedral iff D <= 1+tol,
    else magic. Since D <= R, states with D > 1+tol skip the LP entirely."""
    d = rho.stabilizer_norm
    if d > 1.0 + LP_TOL:
        return "magic"
    if robustness(rho, sset) <= 1.0 + LP_TOL:
        return "stabilizer_mixture"
    return "hyper_octahedral_nonstab"


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
    if sset is None:
        sset = enumerate_stabilizer_states(2)
    d_fwd = channel_norm(ptm)
    d_adj = adjoint_norm(ptm)
    r = robustness(choi_op, sset)
    letters = ""
    if r <= 1.0 + LP_TOL:
        letters += "C"
    if d_fwd <= 1.0 + LP_TOL:
        letters += "S"
    if d_adj <= 1.0 + LP_TOL:
        letters += "H"
    return ClassificationRecord(d_fwd, d_adj, r, letters or "M")


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
    sset = enumerate_stabilizer_states(2)
    records = []
    for _ in range(count):
        rho = sample_hilbert_schmidt(2, rng)
        try:
            records.append(classify_channel(rho, mode, sset))
        except NotCompletelyPositiveError:
            records.append(None)
    return records


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
    sset = enumerate_stabilizer_states(n)
    return [classify_state(sample_hilbert_schmidt(n, rng), sset) for _ in range(count)]


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
        choi = DenseOperator(choi_matrix(ptm))
        return robustness(choi, sset) <= 1.0 + LP_TOL

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
