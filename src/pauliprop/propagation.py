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

Sampling streams: the samples are cut into batches of BATCH_SIZE, and batch b
draws from its own Philox generator keyed by (seed, b) (see fanout). Batch
sums are added in batch order, so a run is bit-reproducible for fixed
(seed, n_samples) whatever the worker count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, asdict

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


def plan_samples(circuit: Circuit, direction: str, epsilon_target: float, delta: float) -> int:
    """Smallest N with (1/2N) ln(2/delta) (2*total_bound)^2 <= epsilon^2."""
    if epsilon_target <= 0:
        raise ValueError("epsilon target must be positive")
    rng_bound = 2.0 * cost_report(circuit, direction).total_bound
    n = math.ceil((rng_bound**2 / (2.0 * epsilon_target**2)) * math.log(2.0 / delta))
    return max(int(n), 1)


# ---------------------------------------------------------------------------
# compiled form of a circuit: plain arrays the batch loop can chew on

_XBIT = np.array([0, 1, 1, 0], dtype=np.uint64)
_ZBIT = np.array([0, 0, 1, 1], dtype=np.uint64)
_ENTRY_TOL = 1e-12


@dataclass
class _StartFactor:
    qubits: tuple
    cum: np.ndarray      # cumulative probabilities over the support
    values: np.ndarray   # sign * D(factor) per support entry
    x_contrib: np.ndarray
    z_contrib: np.ndarray


@dataclass
class _StartPlan:
    # single-support factors folded into constants; the rest sampled per draw
    const_x: int
    const_z: int
    const_coeff: float
    factors: list


@dataclass
class _Step:
    qubits: tuple
    deterministic: bool
    out_det: np.ndarray | None   # (4^k,) output index per column
    mult_det: np.ndarray | None  # (4^k,) signed multiplier per column
    cum: np.ndarray | None       # (4^k, m) per-column cumulative probabilities
    out: np.ndarray | None       # (4^k, m) output indices
    val: np.ndarray | None       # (4^k, m) sign * column L1 norm


@dataclass
class _FinishFactor:
    qubits: tuple
    table: np.ndarray  # (4^k,) unnormalized traces Tr(sigma_i A)


@dataclass
class _FinishBlock:
    # product table over a run of consecutive qubits, index = xbits | zbits << width
    shift: np.uint64
    mask: np.uint64
    width: np.uint64
    table: np.ndarray


@dataclass
class _FinishPlan:
    blocks: list
    others: list


_FINISH_BLOCK_QUBITS = 8


def _compile_start(state: FactoredState) -> _StartPlan:
    const_x = 0
    const_z = 0
    const_coeff = 1.0
    random_factors = []
    for qubits, op in state.factors:
        support, cum, signs = op._sampler
        if support.size == 0:
            raise ValueError(f"zero operator on qubits {qubits} (D = 0)")
        x_contrib = np.zeros(support.size, dtype=np.uint64)
        z_contrib = np.zeros(support.size, dtype=np.uint64)
        for row, index in enumerate(support):
            for pos, q in enumerate(qubits):
                digit = (int(index) >> (2 * pos)) & 3
                x_contrib[row] |= np.uint64(int(_XBIT[digit]) << q)
                z_contrib[row] |= np.uint64(int(_ZBIT[digit]) << q)
        if support.size == 1:
            const_x |= int(x_contrib[0])
            const_z |= int(z_contrib[0])
            const_coeff *= float(signs[0]) * op.stabilizer_norm
            continue
        random_factors.append(_StartFactor(
            qubits, cum, signs * op.stabilizer_norm, x_contrib, z_contrib
        ))
    return _StartPlan(const_x, const_z, const_coeff, random_factors)


def _compile_steps(circuit: Circuit, direction: str) -> list:
    steps = []
    apps = circuit.channels if direction == "schrodinger" else tuple(reversed(circuit.channels))
    for app in apps:
        r = app.ptm.matrix if direction == "schrodinger" else app.ptm.matrix.T
        steps.append(_compile_step(r, app.qubits))
    return steps


def _compile_step(r: np.ndarray, qubits) -> _Step:
    size = r.shape[1]
    colnorm = np.abs(r).sum(axis=0)
    supports = [np.flatnonzero(np.abs(r[:, j]) > _ENTRY_TOL) for j in range(size)]
    if all(len(s) <= 1 for s in supports):
        out_det = np.zeros(size, dtype=np.intp)
        mult_det = np.zeros(size)
        for j, s in enumerate(supports):
            if len(s) == 1:
                out_det[j] = s[0]
                mult_det[j] = r[s[0], j]
        return _Step(tuple(qubits), True, out_det, mult_det, None, None, None)
    m = max(len(s) for s in supports)
    cum = np.ones((size, m))
    out = np.zeros((size, m), dtype=np.intp)
    val = np.zeros((size, m))
    for j, s in enumerate(supports):
        if len(s) == 0:
            continue  # dead column: val stays 0, any draw kills the lane
        weights = np.abs(r[s, j])
        cum[j, : len(s)] = np.cumsum(weights) / weights.sum()
        cum[j, len(s):] = 1.0
        out[j, : len(s)] = s
        out[j, len(s):] = s[-1]
        signed = np.sign(r[s, j]) * colnorm[j]
        val[j, : len(s)] = signed
        val[j, len(s):] = signed[-1]
    return _Step(tuple(qubits), False, None, None, cum, out, val)


def _finish_block(qubits: list, tables: list) -> _FinishBlock:
    b = len(qubits)
    idx = np.arange(1 << (2 * b))
    table = np.ones(idx.size)
    for pos, tbl in enumerate(tables):
        xb = (idx >> pos) & 1
        zb = (idx >> (b + pos)) & 1
        table *= tbl[xb + 3 * zb - 2 * (xb & zb)]
    return _FinishBlock(
        np.uint64(qubits[0]), np.uint64((1 << b) - 1), np.uint64(b), table
    )


def _compile_finish(state: FactoredState) -> _FinishPlan:
    singles = {}
    others = []
    for qubits, op in state.factors:
        if len(qubits) == 1:
            singles[qubits[0]] = op.trace_table
        else:
            others.append(_FinishFactor(qubits, op.trace_table))
    # fuse runs of consecutive qubits into one table so the hot loop does a
    # single shift-and-gather per block instead of per-qubit index math
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
    return _FinishPlan(blocks, others)


@dataclass
class _Compiled:
    n: int
    start: _StartPlan
    steps: list
    finish: _FinishPlan
    total_bound: float


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
        report.total_bound,
    )


def _local_index(x, z, qubits):
    j = None
    for pos, q in enumerate(qubits):
        shift = np.uint64(q)
        xb = (x >> shift) & np.uint64(1)
        zb = (z >> shift) & np.uint64(1)
        d = xb + np.uint64(3) * zb - np.uint64(2) * (xb * zb)
        term = d * np.uint64(4**pos)
        j = term if j is None else j + term
    return j.astype(np.intp)


def _write_back(x, z, i, qubits):
    for pos, q in enumerate(qubits):
        d = (i >> (2 * pos)) & 3
        keep = np.uint64(((1 << 64) - 1) ^ (1 << q))
        shift = np.uint64(q)
        x &= keep
        x |= _XBIT[d] << shift
        z &= keep
        z |= _ZBIT[d] << shift


def _run_batch(compiled: _Compiled, count: int, rng) -> tuple:
    plan = compiled.start
    x = np.full(count, plan.const_x, dtype=np.uint64)
    z = np.full(count, plan.const_z, dtype=np.uint64)
    coeff = np.full(count, plan.const_coeff)
    for f in plan.factors:
        idx = np.searchsorted(f.cum, rng.random(count), side="right")
        np.minimum(idx, f.cum.size - 1, out=idx)
        coeff *= f.values[idx]
        x |= f.x_contrib[idx]
        z |= f.z_contrib[idx]
    for st in compiled.steps:
        j = _local_index(x, z, st.qubits)
        if st.deterministic:
            coeff *= st.mult_det[j]
            i = st.out_det[j]
        else:
            slot = (rng.random(count)[:, None] >= st.cum[j]).sum(axis=1)
            np.minimum(slot, st.cum.shape[1] - 1, out=slot)
            coeff *= st.val[j, slot]
            i = st.out[j, slot]
        _write_back(x, z, i, st.qubits)
        if not coeff.any():
            return 0.0, 0.0
    values = coeff
    fin = compiled.finish
    for blk in fin.blocks:
        j = ((x >> blk.shift) & blk.mask) | (((z >> blk.shift) & blk.mask) << blk.width)
        values = values * blk.table[j.astype(np.intp)]
    for f in fin.others:
        values = values * f.table[_local_index(x, z, f.qubits)]
    if __debug__:
        limit = compiled.total_bound * (1 + 1e-9) + 1e-12
        assert float(np.abs(values).max(initial=0.0)) <= limit
    return float(values.sum()), float((values * values).sum())


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
    t0 = time.perf_counter()
    report = cost_report(circuit, direction)
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
        epsilon=hoeffding_epsilon(report.total_bound, n_samples, delta),
        delta=delta,
        cost=report,
        seed=seed,
        wall_time=time.perf_counter() - t0,
        direction=direction,
        workers=workers,
        sample_std=math.sqrt(var),
    )
