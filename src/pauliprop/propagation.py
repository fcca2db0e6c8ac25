"""Monte Carlo propagation of signed Pauli estimators through a circuit.

Two estimators of <E> = Tr(E Lambda_k(...Lambda_1(rho_0))):

  schrodinger -- sample (sigma, c) from rho_0, walk the channels forward
      through PTM columns, finish with the unnormalized trace Tr(sigma E).
  heisenberg  -- sample from E, walk the channels in reverse through the
      transposed PTMs, finish with Tr(sigma rho_0) (at most 1 for states,
      making the total bound independent of the input).

Each channel step looks up the PTM column of the local Pauli, draws the
output Pauli with probability proportional to |R_ij| and multiplies the
running coefficient by sign(R_ij) times the column L1 norm. A zero column
kills the trajectory: its value is exactly 0.

The walk is vectorized: a batch of trajectories advances together as uint64
(x, z) mask arrays plus a float64 coefficient array, which is what makes
desk-scale sample counts feasible in Python. Masks are single machine words,
so the engine register cap is n <= 64.

Compiled steps are tables indexed by the engine's own bit code, in the
symplectic (x, z) idiom of CHP (Aaronson & Gottesman, quant-ph/0406196) and
Stim (Gidney, arXiv:2103.02202). A step on qubits (q_0, ..., q_{k-1}) reads
the local code c = xbits | zbits << k of each lane with a few shifts, masks and
ORs, and stores flat tables mult, dx and dz: the signed multiplier and the
register masks of the x and z bits the step flips. A deterministic step
(every column has at most one output) is then

    coeff *= mult[c];  x ^= dx[c];  z ^= dz[c]

and a stochastic step with at most m outputs per column draws u ~ U[0, 1),
takes slot = #{t : u >= cum[t, c]} and indexes the same tables at c * m + slot.
The start operator is drawn by the same steps: each factor A = sum_i a_i sigma_i
is a step with one column, (a_i), read at the identity code that every lane
starts from. The finish contraction gathers codes the same way, into trace
tables of its factors permuted into code order.

Sampling streams: the samples are cut into batches of BATCH_SIZE, and batch b
draws from its own Philox generator keyed by (seed, b) (see fanout). Batch
sums are added in batch order, so a run is bit-reproducible for fixed
(seed, n_samples) whatever the worker count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, asdict
from functools import lru_cache

import numpy as np

from .channels import ChannelApplication, channel_norm, adjoint_norm
from .fanout import fan_out
from .operators import FactoredState, stabilizer_norm_factored

ENGINE_MAX_QUBITS = 64
BOUND_OVERFLOW_LIMIT = 1e300
BATCH_SIZE = 1 << 16
DIRECTIONS = ("schrodinger", "heisenberg")


class BoundOverflowError(Exception):
    """Total cost bound exceeds double precision; the run would be meaningless."""


@dataclass(frozen=True)
class Circuit:
    n: int
    input: FactoredState
    channels: tuple
    observable: FactoredState

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        if self.input.n != self.n or self.observable.n != self.n:
            raise ValueError("input/observable register size mismatch")
        for app in self.channels:
            if not isinstance(app, ChannelApplication):
                raise ValueError("channels must be ChannelApplication values")
            for q in app.qubits:
                if q < 0 or q >= self.n:
                    raise ValueError(f"channel qubit {q} out of range for n={self.n}")
        self.input.validate_state()


@dataclass(frozen=True)
class CostReport:
    state_cost: float
    channel_costs: tuple
    observable_cost: float
    total_bound: float

    def to_dict(self):
        return {
            "state_cost": self.state_cost,
            "channel_costs": list(self.channel_costs),
            "observable_cost": self.observable_cost,
            "total_bound": self.total_bound,
        }


@dataclass(frozen=True)
class EstimateReport:
    mean: float
    n_samples: int
    epsilon: float
    delta: float
    cost: CostReport
    seed: int
    wall_time: float
    direction: str
    workers: int
    sample_std: float

    def to_dict(self):
        d = asdict(self)
        d["cost"] = self.cost.to_dict()
        return d


def observable_trace_bound(e: FactoredState) -> float:
    """max over Pauli strings of |Tr(sigma E)| = prod_f max_i |Tr(sigma_i E_f)|.

    Identity factors contribute a factor 2^{k_f} each: marginal observables
    are genuinely expensive for Schrodinger propagation.
    """
    out = 1.0
    for _, op in e.factors:
        out *= float(np.abs(op.trace_table).max())
    return out


def cost_report(circuit: Circuit, direction: str) -> CostReport:
    if direction == "schrodinger":
        state = stabilizer_norm_factored(circuit.input)
        chans = tuple(channel_norm(app.ptm) for app in circuit.channels)
        obs = observable_trace_bound(circuit.observable)
    elif direction == "heisenberg":
        # max_sigma |Tr(sigma rho_0)| = 1 for any state: input-independent
        state = 1.0
        chans = tuple(adjoint_norm(app.ptm) for app in circuit.channels)
        obs = stabilizer_norm_factored(circuit.observable)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    total = state * obs
    for c in chans:
        total *= c
    if not math.isfinite(total) or total > BOUND_OVERFLOW_LIMIT:
        raise BoundOverflowError(f"total cost bound {total:.3e} exceeds {BOUND_OVERFLOW_LIMIT:.0e}")
    return CostReport(state, chans, obs, total)


def hoeffding_epsilon(total_bound: float, n_samples: int, delta: float) -> float:
    """epsilon at confidence 1-delta for n samples with range 2*total_bound."""
    return 2.0 * total_bound * math.sqrt(math.log(2.0 / delta) / (2.0 * n_samples))


def _check_delta(delta: float):
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")


def plan_samples(circuit: Circuit, direction: str, epsilon_target: float, delta: float) -> int:
    """Smallest N with (1/2N) ln(2/delta) (2*total_bound)^2 <= epsilon^2."""
    if not (math.isfinite(epsilon_target) and epsilon_target > 0):
        raise ValueError(f"epsilon target must be finite and positive, got {epsilon_target!r}")
    _check_delta(delta)
    rng_bound = 2.0 * cost_report(circuit, direction).total_bound
    n = math.ceil((rng_bound**2 / (2.0 * epsilon_target**2)) * math.log(2.0 / delta))
    return max(int(n), 1)


# ---------------------------------------------------------------------------
# compiled form of a circuit: flat tables indexed by the engine's own bit code
#
# A step or finish factor on qubits (q_0, ..., q_{k-1}) reads the local code
# c = xbits | zbits << k of a lane, where bit pos of xbits (zbits) is bit q_pos
# of the lane's x (z) mask. A PTM index instead has one base-4 digit per qubit
# (I, X, Y, Z = 0..3, first qubit least significant); the tables below are
# permuted into code order once, at compile time.

_ENTRY_TOL = 1e-12


@lru_cache(maxsize=None)
def _local_bits(k: int) -> tuple:
    """(xbits, zbits) of every k-qubit PTM index, as int64 arrays. Cached per k."""
    index = np.arange(4**k)
    xbits = np.zeros(4**k, dtype=np.int64)
    zbits = np.zeros(4**k, dtype=np.int64)
    for pos in range(k):
        digit = (index >> (2 * pos)) & 3
        xbits |= ((digit ^ (digit >> 1)) & 1) << pos
        zbits |= (digit >> 1) << pos
    xbits.setflags(write=False)
    zbits.setflags(write=False)
    return xbits, zbits


def _code_order(k: int) -> np.ndarray:
    """order[c] = the PTM index whose local code is c."""
    xbits, zbits = _local_bits(k)
    return np.argsort(xbits | (zbits << k))


def _spread(bits: np.ndarray, qubits) -> np.ndarray:
    """Register masks (uint64) that put bit pos of `bits` on qubit qubits[pos]."""
    out = np.zeros(bits.shape, dtype=np.uint64)
    for pos, q in enumerate(qubits):
        out |= ((bits >> pos) & 1).astype(np.uint64) << np.uint64(q)
    return out


def _gather_plan(qubits) -> tuple:
    """(source, shift, mask) terms whose OR is the local code: source 0 reads
    x and 1 reads z; qubits at the same distance from their code bit share
    one shift."""
    k = len(qubits)
    terms = {}
    for pos, q in enumerate(qubits):
        for source, bit in ((0, pos), (1, k + pos)):
            key = (source, q - bit)
            terms[key] = terms.get(key, 0) | (1 << bit)
    return tuple((source, shift, mask) for (source, shift), mask in terms.items())


def _gather_code(words: tuple, plan: tuple, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Local codes of a batch into `out`; words = (x, z) viewed as int64."""
    for i, (source, shift, mask) in enumerate(plan):
        dst = out if i == 0 else tmp
        if shift > 0:
            np.right_shift(words[source], shift, out=dst)
            np.bitwise_and(dst, mask, out=dst)
        else:
            # mask first, so that no set bit is shifted past the sign bit
            np.bitwise_and(words[source], mask >> -shift, out=dst)
            if shift:
                np.left_shift(dst, -shift, out=dst)
        if i:
            np.bitwise_or(out, tmp, out=out)
    return out


@dataclass
class _StartPlan:
    # single-output factors folded into constants; the rest are one-column
    # steps, run before the channel steps
    const_x: int
    const_z: int
    const_coeff: float
    factors: list


@dataclass
class _Step:
    """One channel step, with 4^k columns, or one start factor, with the
    identity column alone. Entry c * m + slot holds the multiplier and the XOR
    deltas of output `slot` of the column with code c; m = 1 for a
    deterministic step, which then draws nothing."""
    qubits: tuple
    gather: tuple
    m: int
    cum: np.ndarray   # (m - 1, columns): P(slot <= t) for column c at [t, c]
    mult: np.ndarray  # (columns * m,) the entry, or sign * column L1 norm if m > 1
    dx: np.ndarray    # (columns * m,) uint64 register masks of the x bits to flip
    dz: np.ndarray
    flips_x: bool     # False when dx is all zero (z-only gates such as S, CZ)
    flips_z: bool
    kills: bool       # some column is dead, so a batch can die here


@dataclass
class _FinishFactor:
    gather: tuple
    table: np.ndarray  # unnormalized traces Tr(sigma A) in code order


_FINISH_BLOCK_QUBITS = 8


def _compile_start(state: FactoredState) -> _StartPlan:
    const_x = 0
    const_z = 0
    const_coeff = 1.0
    random_factors = []
    for qubits, op in state.factors:
        step = _place(_tabulate(op.coeffs[:, None]), qubits)
        if not step.mult.any():
            raise ValueError(f"zero operator on qubits {qubits} (D = 0)")
        if step.m == 1:
            const_x |= int(step.dx[0])
            const_z |= int(step.dz[0])
            const_coeff *= float(np.sign(step.mult[0])) * op.stabilizer_norm
        else:
            random_factors.append(step)
    return _StartPlan(const_x, const_z, const_coeff, random_factors)


def _compile_steps(circuit: Circuit, direction: str) -> list:
    # circuits repeat a few gates: tabulate each distinct PTM once, then place
    # its tables on the qubits of every application
    tables = {}
    steps = []
    apps = circuit.channels if direction == "schrodinger" else tuple(reversed(circuit.channels))
    for app in apps:
        if app.ptm not in tables:
            r = app.ptm.matrix if direction == "schrodinger" else app.ptm.matrix.T
            tables[app.ptm] = _tabulate(r)
        steps.append(_place(tables[app.ptm], app.qubits))
    return steps


def _tabulate(r: np.ndarray) -> tuple:
    """(m, cum, mult, local x flips, local z flips) of a PTM, in code order.

    r may hold only the first columns of a PTM (a start factor has one)."""
    size = r.shape[1]
    k = (r.shape[0].bit_length() - 1) // 2
    # columns in code order; each column keeps its outputs in PTM index
    # order, so a draw u picks the same output as in PTM order. The norms are
    # summed before the permutation: numpy's summation order follows layout.
    order = _code_order(k)[:size]
    colnorm = np.abs(r).sum(axis=0)[order]
    r = r[:, order]
    supports = [np.flatnonzero(np.abs(r[:, c]) > _ENTRY_TOL) for c in range(size)]
    m = max(1, max(len(s) for s in supports))
    cum = np.ones((m - 1, size))
    out = np.zeros((size, m), dtype=np.intp)  # dead columns go to the identity
    mult = np.zeros((size, m))
    for c, s in enumerate(supports):
        if len(s) == 0:
            continue  # dead column: mult stays 0, any draw kills the lane
        if m == 1:
            mult[c, 0] = r[s[0], c]
        else:
            weights = np.abs(r[s, c])
            cum[: len(s) - 1, c] = (np.cumsum(weights) / weights.sum())[:-1]
            mult[c, : len(s)] = np.sign(r[s, c]) * colnorm[c]
            mult[c, len(s):] = mult[c, len(s) - 1]
        out[c, : len(s)] = s
        out[c, len(s):] = s[-1]
    xbits, zbits = _local_bits(k)
    code_in = np.arange(size)[:, None]
    flip_x = (xbits[out] ^ (code_in & ((1 << k) - 1))).ravel()
    flip_z = (zbits[out] ^ (code_in >> k)).ravel()
    return m, cum, mult.ravel(), flip_x, flip_z


def _place(table: tuple, qubits) -> _Step:
    m, cum, mult, flip_x, flip_z = table
    dx = _spread(flip_x, qubits)
    dz = _spread(flip_z, qubits)
    return _Step(tuple(qubits), _gather_plan(qubits), m, cum, mult, dx, dz,
                 bool(dx.any()), bool(dz.any()), not mult.all())


def _finish_block(qubits: list, tables: list) -> _FinishFactor:
    """Product of 1-qubit trace tables over a run of qubits, in code order."""
    b = len(qubits)
    table = np.ones(())
    for pos, tbl in enumerate(tables):
        # axis b - 1 - pos is the z bit of this qubit, axis 2b - 1 - pos its x bit
        shape = [1] * (2 * b)
        shape[b - 1 - pos] = shape[2 * b - 1 - pos] = 2
        table = table * tbl[_code_order(1).reshape(2, 2)].reshape(shape)
    return _FinishFactor(_gather_plan(qubits), table.ravel())


def _compile_finish(state: FactoredState) -> list:
    """Finish factors: fused runs of 1-qubit factors, then the others."""
    singles = {}
    others = []
    for qubits, op in state.factors:
        if len(qubits) == 1:
            singles[qubits[0]] = op.trace_table
        else:
            others.append(_FinishFactor(_gather_plan(qubits),
                                        op.trace_table[_code_order(len(qubits))]))
    # fuse runs of consecutive qubits into one table, so a run of up to
    # _FINISH_BLOCK_QUBITS qubits costs one code gather of two shifts
    blocks = []
    run_qubits, run_tables = [], []
    for q in sorted(singles):
        if run_qubits and (q != run_qubits[-1] + 1 or len(run_qubits) == _FINISH_BLOCK_QUBITS):
            blocks.append(_finish_block(run_qubits, run_tables))
            run_qubits, run_tables = [], []
        run_qubits.append(q)
        run_tables.append(singles[q])
    if run_qubits:
        blocks.append(_finish_block(run_qubits, run_tables))
    return blocks + others


@dataclass
class _Compiled:
    n: int
    start: _StartPlan
    steps: list
    finish: list
    cost: CostReport


def compile_circuit(circuit: Circuit, direction: str) -> "_Compiled":
    if circuit.n > ENGINE_MAX_QUBITS:
        raise ValueError(f"engine register cap is {ENGINE_MAX_QUBITS} qubits")
    report = cost_report(circuit, direction)
    if direction == "schrodinger":
        start, finish = circuit.input, circuit.observable
    else:
        start, finish = circuit.observable, circuit.input
    return _Compiled(
        circuit.n,
        _compile_start(start),
        _compile_steps(circuit, direction),
        _compile_finish(finish),
        report,
    )


def _run_batch(compiled: _Compiled, count: int, rng) -> tuple:
    plan = compiled.start
    x = np.full(count, plan.const_x, dtype=np.uint64)
    z = np.full(count, plan.const_z, dtype=np.uint64)
    coeff = np.full(count, plan.const_coeff)
    # scratch buffers reused by every step. The gathers pass mode="wrap"
    # because mode="raise" copies through a buffer; every code is in range.
    words = (x.view(np.int64), z.view(np.int64))
    code = np.empty(count, dtype=np.intp)
    index = np.empty(count, dtype=np.intp)
    factor = np.empty(count)
    delta = np.empty(count, dtype=np.uint64)
    u = np.empty(count)
    below = np.empty(count, dtype=bool)
    for st in plan.factors + compiled.steps:
        _gather_code(words, st.gather, code, index)
        if st.m > 1:
            # slot = #{t : u >= cum[t, c]}, the inverse-CDF draw of the column
            rng.random(count, out=u)
            np.multiply(code, st.m, out=index)
            for row in st.cum:
                np.take(row, code, out=factor, mode="wrap")
                np.greater_equal(u, factor, out=below)
                np.add(index, below, out=index)
            code, index = index, code  # the tables are read at c * m + slot
        np.take(st.mult, code, out=factor, mode="wrap")
        coeff *= factor
        if st.flips_x:
            np.take(st.dx, code, out=delta, mode="wrap")
            x ^= delta
        if st.flips_z:
            np.take(st.dz, code, out=delta, mode="wrap")
            z ^= delta
        if st.kills and not coeff.any():
            return 0.0, 0.0
    for f in compiled.finish:
        np.take(f.table, _gather_code(words, f.gather, code, index), out=factor, mode="wrap")
        coeff *= factor
    if __debug__:
        limit = compiled.cost.total_bound * (1 + 1e-9) + 1e-12
        assert float(np.abs(coeff).max(initial=0.0)) <= limit
    return float(coeff.sum()), float((coeff * coeff).sum())


def estimate(
    circuit: Circuit,
    direction: str,
    n_samples: int,
    delta: float = 0.01,
    seed: int = 0,
    workers: int = 1,
) -> EstimateReport:
    """Mean of n_samples draws with the Hoeffding epsilon at confidence 1-delta.

    The draws run in batches of BATCH_SIZE spread over `workers` processes;
    the result does not depend on the worker count.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    _check_delta(delta)
    t0 = time.perf_counter()
    compiled = compile_circuit(circuit, direction)
    results = fan_out(_run_batch, (compiled,), n_samples, BATCH_SIZE, seed, workers)
    total = sum(r[0] for r in results)
    total_sq = sum(r[1] for r in results)
    mean = total / n_samples
    if n_samples > 1:
        var = max(total_sq - n_samples * mean * mean, 0.0) / (n_samples - 1)
    else:
        var = 0.0
    return EstimateReport(
        mean=mean,
        n_samples=n_samples,
        epsilon=hoeffding_epsilon(compiled.cost.total_bound, n_samples, delta),
        delta=delta,
        cost=compiled.cost,
        seed=seed,
        wall_time=time.perf_counter() - t0,
        direction=direction,
        workers=workers,
        sample_std=math.sqrt(var),
    )
