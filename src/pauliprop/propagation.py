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

The walk is vectorized: a batch of trajectories advances together as arrays
of uint64 words plus a float64 coefficient array, which is what makes
desk-scale sample counts feasible in Python. A lane's Pauli string holds one
PTM digit (I, X, Y, Z = 0..3) per qubit, 2 bits each: qubit q's digit is bits
2 (q mod 32) and 2 (q mod 32) + 1 of word q // 32. A register of up to 32
qubits takes one word per lane; the engine register cap, n <= 64, two.

Compiled steps are flat tables. A step on qubits (q_0, ..., q_{k-1}) acts on
the local code of each lane, the PTM index whose base-4 digit pos is qubit
q_pos's digit, and reads its tables at an index c, a one-to-one map of that
code onto [0, 4^k): the OR of terms ((word & mask) * mult mod 2^64) >> shift.
A step within one word of at most 5 qubits takes one term, whose multiply
carries its runs of adjacent qubits to the top 2k bits of the product (the
multiply gather of Warren, Hacker's Delight, 2nd ed., sec. 7-4), and its tables
are laid out in that index order. A step that spans both words, or one whose
runs no order carries into a provably one-to-one index, takes one term per
run, a shift or a multiply by 2^s, and its index is the local code itself.
A step stores flat tables mult and, per word it touches, delta: the signed
multiplier and the bits the step flips. A deterministic step (every column
has at most one output) is then

    coeff *= mult[c];  word ^= delta[c]

and a stochastic step with at most m outputs per column draws u ~ U[0, 1),
takes slot = #{t : u >= cum[t, c]} and indexes the same tables at c * m + slot.
The start operator is drawn by the same steps: each factor A = sum_i a_i sigma_i
is a step with one column, (a_i), read at index 0, that of the identity code
that every lane starts from. The finish contraction is a run of the same
steps that flip nothing: a factor A is a deterministic step whose mult is its
trace table Tr(sigma A), so a batch walks one list of steps from start to
finish.

Clifford gates are fused at compile time. A step with m = 1 and every mult
exactly +-1 is a signed permutation of local codes, and two such steps
compose into one on the union of their qubits: out = out2[out1] and
mult = mult1 * mult2[out1]. Each such step joins the nearest group of them
that it can: it may move back past steps on other qubits, which commute with
it, up to _FUSE_WINDOW groups, and a group holds at most _FUSE_QUBITS qubits,
so 4^K entries per table. Any other step (stochastic, noisy or killing) stays
in place, and no step moves past one that shares a qubit with it. The fused
step draws nothing, the steps it moves past draw the same numbers as before,
and a coefficient times a product of +-1 is exactly the coefficient times
each in turn, so every seeded output is bit-identical to the step by step
walk. Cost bounds still come from the circuit's own channels.

Compiled steps are cached. A channel's tables are tabulated once per PTM
object and direction (R or R^T), and a start factor's once per DenseOperator,
then placed once per qubit tuple; all of it lives as long as that object does,
for the cache holds it weakly. A fused run of 1-qubit finish factors is keyed
on its trace tables' bytes, in a small LRU, and so is each qubit tuple's
gather plan. Fused channel steps are built afresh by each compile. Every
cached or compiled array is read-only. A batch's own arrays are kept on the
compiled circuit, so the batches of one estimate reuse them, and they go with
it.

Sampling streams: the samples are cut into batches of BATCH_SIZE, and batch b
draws from the stream fanout.block_rng(seed, b), or (*seed, b) for a tuple
seed such as a QAOA term's (seed, t). Batch sums are added in batch order, so
a run is bit-reproducible for fixed (seed, n_samples) whatever the worker
count.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass, asdict, field
from functools import lru_cache
from itertools import permutations

import numpy as np

from .channels import ChannelApplication, channel_norm, adjoint_norm
from .fanout import fan_out, is_integer
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


@dataclass(frozen=True)
class EstimateReport:
    mean: float
    n_samples: int
    epsilon: float
    delta: float
    cost: CostReport
    seed: int | tuple
    wall_time: float
    direction: str
    workers: int
    sample_std: float

    def to_dict(self):
        return asdict(self)


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
    # ln(2 / delta) enters every epsilon and sample count
    if not (0.0 < delta < 1.0 and math.isfinite(2.0 / delta)):
        raise ValueError(f"delta must lie in (0, 1) with 2 / delta finite, got {delta!r}")


def plan_samples(circuit: Circuit, direction: str, epsilon_target: float, delta: float) -> int:
    """Smallest N with (1/2N) ln(2/delta) (2*total_bound)^2 <= epsilon^2.

    Raises ValueError when that N is past the float range."""
    if not (math.isfinite(epsilon_target) and epsilon_target > 0):
        raise ValueError(f"epsilon target must be finite and positive, got {epsilon_target!r}")
    _check_delta(delta)
    rng_bound = 2.0 * cost_report(circuit, direction).total_bound
    try:
        n = (rng_bound**2 / (2.0 * epsilon_target**2)) * math.log(2.0 / delta)
    except (OverflowError, ZeroDivisionError):  # a square over- or underflowed
        n = math.inf
    if n == math.inf:
        raise ValueError(f"the sample count for epsilon {epsilon_target!r} at delta "
                         f"{delta!r} is not finite")
    return max(math.ceil(n), 1)


# ---------------------------------------------------------------------------
# compiled form of a circuit: flat tables read at a one-to-one index of the
# local code
#
# A step on qubits (q_0, ..., q_{k-1}) acts on the local code of a lane, whose
# bits 2 pos and 2 pos + 1 hold qubit q_pos's digit (I, X, Y, Z = 0..3, first
# qubit least significant). That is the PTM's own index. A step read by one
# term per run reads it as is, so its tables keep the PTM's column order; a
# step read by one multiply reads another one-to-one index, and its tables
# are laid out in that order.

_ENTRY_TOL = 1e-12
_WORD_QUBITS = 32
# a fused channel step has 4^5 entries per table, built afresh per compile
_FUSE_QUBITS = 5
# gather plans kept, each with at most 4^_FUSE_QUBITS uint16 index entries
_PLAN_CACHE_SIZE = 256


def _word_bit(q: int) -> tuple:
    """(word, bit) of the low bit of qubit q's digit."""
    return divmod(2 * q, 2 * _WORD_QUBITS)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _gather_plan(qubits: tuple) -> tuple:
    """(terms, codes) of a step: terms (word, mask, mult, shift) whose OR of
    ((word & mask) * mult mod 2^64) >> shift is a lane's table index, and
    codes[i] the local code read at index i, or None where that is i itself.

    A step of at most _FUSE_QUBITS qubits in one word, whose digits are not
    one run in qubit order, is read by one multiply that carries its runs of
    adjacent qubits to the top 2k bits of the product (see _fields); the
    tables are then laid out in that index order. Any other step, or one with
    no such run order, keeps one term per run whose OR is the local code
    itself, with multiplier 1, or 2^s for a left shift by s."""
    k = len(qubits)
    terms = {}
    for pos, q in enumerate(qubits):
        word, bit = _word_bit(q)
        key = (word, bit - 2 * pos)
        terms[key] = terms.get(key, 0) | (3 << (2 * pos))
    words = {word for word, _ in terms}
    if len(terms) > 1 and k <= _FUSE_QUBITS and len(words) == 1:
        top = 2 * _WORD_QUBITS - 2 * k
        fields = _fields(qubits, top)
        if fields is not None:
            term = (words.pop(), sum(((1 << width) - 1) << bit for bit, width, _ in fields),
                    sum(1 << (target - bit) for bit, _, target in fields), top)
            # the index of every local code: its lane bits times mult, the top bits
            index = _code_lanes(qubits)[term[0]] * np.uint64(term[2]) >> np.uint64(top)
            identity = np.arange(4**k)
            if np.array_equal(index, identity):
                return (term,), None
            codes = np.empty(4**k, dtype=np.uint16)
            codes[index.view(np.intp)] = identity
            codes.setflags(write=False)
            return (term,), codes
    return tuple((word, mask << shift, 1, shift) if shift >= 0 else
                 (word, mask >> -shift, 1 << -shift, 0)
                 for (word, shift), mask in terms.items()), None


def _fields(qubits, top: int):
    """Fields (bit, width, target) that move each run of adjacent qubits, at
    bits bit .. bit + width - 1 of their one word, to bits target ..
    target + width - 1, stacked from bit `top` up in the first run order under
    which one multiply reads a one-to-one index; None if no order does."""
    runs = []  # [bit, width] in lane order
    for q in sorted(qubits):
        bit = _word_bit(q)[1]
        if runs and sum(runs[-1]) == bit:
            runs[-1][1] += 2
        else:
            runs.append([bit, 2])
    for order in permutations(runs):
        fields, target = [], top
        for bit, width in order:
            if bit > target:
                break
            fields.append((bit, width, target))
            target += width
        else:
            if _one_to_one(fields, top):
                return fields
    return None


def _one_to_one(fields, top: int) -> bool:
    """Whether the product of the fields' multiply, read from bit `top` up,
    is one-to-one in the runs' bits.

    The product is the sum over pairs of run r moved by run s's offset.
    Moved by its own offset, r fills its field. Moved by another, it must
    land past bit 63, where it drops out; at or past the top of its own field,
    where it adds to higher fields alone; or wholly below bit `top`, and
    there all such terms together must stay under 2^top, so that they carry
    nothing into the index. Then the fields can be read off from the lowest
    up, each less what lower fields added to it, so no two lanes share an
    index."""
    low = 0
    for bit, _, target in fields:
        offset = target - bit
        for b, width, t in fields:
            at = b + offset
            if at >= 2 * _WORD_QUBITS or at >= t + width or b == bit:
                continue
            if at + width > top:
                return False
            low += ((1 << width) - 1) << at
    return low < 1 << top


def _gather_code(words: np.ndarray, terms: tuple, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Table indices of a batch of uint64 lane words into `out` (uint64)."""
    for i, (word, mask, mult, shift) in enumerate(terms):
        dst = out if i == 0 else tmp
        np.bitwise_and(words[word], mask, out=dst)
        if mult != 1:
            np.multiply(dst, mult, out=dst)
        if shift:
            np.right_shift(dst, shift, out=dst)
        if i:
            np.bitwise_or(out, tmp, out=out)
    return out


def _laid_out(table: np.ndarray, codes, m: int = 1) -> np.ndarray:
    """table, whose last axis holds entry c * m + slot of local code c, in its
    step's index order: entry i * m + slot taken from code codes[i]."""
    if codes is None:
        return table
    out = table.reshape(*table.shape[:-1], len(codes), m)[..., codes, :].reshape(table.shape)
    out.setflags(write=False)
    return out


@dataclass
class _Step:
    """One channel step, with 4^k columns; one start factor, with the
    identity column alone; or one finish factor, with 4^k columns, m = 1, its
    trace table as mult and no flips. The columns are in the order of the
    gather's index: entry i * m + slot holds the multiplier and the XOR deltas
    of output `slot` of the column read at index i; m = 1 for a deterministic
    step, which then draws nothing."""
    qubits: tuple
    gather: tuple     # the terms of _gather_plan(qubits)
    m: int
    cum: np.ndarray   # (m - 1, columns): P(slot <= t) for the column at index i at [t, i]
    mult: np.ndarray  # (columns * m,) the entry, or sign * column L1 norm if m > 1
    flips: tuple      # (word, (columns * m,) uint64 bits to XOR) per word it changes
    kills: bool       # some column is dead, so a batch can die here
    permutes: bool    # m = 1 and every mult exactly +-1: a signed permutation


_FINISH_BLOCK_QUBITS = 8
# a fused table holds up to 4^8 float64 entries (512 KiB): keep few
_FINISH_CACHE_SIZE = 4
# how many groups back a Clifford step may join one: without a bound, long
# circuits fuse better than short ones and the steps walked are not
# proportional to depth. A wider window walks fewer steps (about 52 at 8
# against 69 at 4 for 400 random gates on 32 qubits), but their number then
# varies more from one random circuit to the next
_FUSE_WINDOW = 4


# PTM or DenseOperator -> {direction or "start": its _tabulate table, and
# (that key, qubits): the table placed on those qubits}. An entry goes when its
# owner does, so the cache never outgrows the live PTMs and operators.
_TABLES = weakref.WeakKeyDictionary()


def _cached_step(owner, key, r: np.ndarray, qubits) -> _Step:
    """_place(_tabulate(r), qubits): tabulated once per (owner, key), which
    must determine r, and placed once per qubit tuple."""
    cache = _TABLES.get(owner)
    if cache is None:
        cache = _TABLES[owner] = {}
    qubits = tuple(qubits)
    if (key, qubits) not in cache:
        if key not in cache:
            cache[key] = _tabulate(r)
        cache[key, qubits] = _place(cache[key], qubits)
    return cache[key, qubits]


def _compile_start(state: FactoredState) -> tuple:
    """(const, const_coeff, steps): the factors with one output fold into the
    start words const and const_coeff; the others are one-column steps."""
    const = [0] * -(-state.n // _WORD_QUBITS)
    const_coeff = 1.0
    random_factors = []
    for qubits, op in state.factors:
        step = _cached_step(op, "start", op.trace_table[:, None] / 2**op.k, qubits)
        if not step.mult.any():
            raise ValueError(f"zero operator on qubits {qubits} (D = 0)")
        if step.m == 1:
            for word, delta in step.flips:
                const[word] |= int(delta[0])
            const_coeff *= float(np.sign(step.mult[0])) * op.stabilizer_norm
        else:
            random_factors.append(step)
    return tuple(const), const_coeff, random_factors


def _compile_steps(circuit: Circuit, direction: str) -> list:
    # circuits repeat a few gates, and sweeps repeat whole circuits: each PTM
    # is tabulated once per direction, and placed once per qubit tuple, for
    # as long as the PTM object lives
    if direction == "schrodinger":
        steps = [_cached_step(app.ptm, direction, app.ptm.matrix, app.qubits)
                 for app in circuit.channels]
    else:
        steps = [_cached_step(app.ptm, direction, app.ptm.matrix.T, app.qubits)
                 for app in reversed(circuit.channels)]
    return _fuse_groups(steps)


def _fuse_groups(steps: list) -> list:
    """steps with each signed-permutation step fused into the nearest group of
    them that it can join. Such a step looks back from the last group that
    shares a qubit with it, and at most _FUSE_WINDOW groups; it joins the
    signed-permutation group whose qubits it grows least (the earliest on a
    tie) while they number at most _FUSE_QUBITS, or else opens a group. It
    moves only past groups on other qubits, which commute with it. Any other
    step is a group of its own; a group of one keeps its step."""
    groups = []  # (qubits, whether it takes signed-permutation steps, its steps)
    for st in steps:
        qubits = set(st.qubits)
        best, growth = None, math.inf
        # any other step looks at no group
        first = max(len(groups) - _FUSE_WINDOW, 0) if st.permutes else len(groups)
        for i in reversed(range(first, len(groups))):
            group, fuses, _ = groups[i]
            new = len(qubits - group)
            if fuses and new <= growth and len(group) + new <= _FUSE_QUBITS:
                best, growth = i, new
            if new < len(qubits):  # the group shares a qubit with st
                break
        if best is None:
            groups.append((qubits, st.permutes, [st]))
        else:
            groups[best][0].update(qubits)
            groups[best][2].append(st)
    return [group[0] if len(group) == 1 else _fused(group, sorted(qubits))
            for qubits, _, group in groups]


@lru_cache(maxsize=_FUSE_QUBITS)
def _code_digits(k: int) -> np.ndarray:
    """(k, 4^k) uint64: row pos holds digit pos of every local code of k qubits."""
    codes = np.arange(4**k, dtype=np.uint64)
    digits = (codes >> np.uint64(2) * np.arange(k, dtype=np.uint64)[:, None]) & np.uint64(3)
    digits.setflags(write=False)
    return digits


def _code_lanes(qubits) -> np.ndarray:
    """(words, 4^k) uint64: the lane bits that each local code of qubits sets
    in words 0 up to the last that qubits touch, in code order. Lane bits are
    linear in the digits (codes a ^ b set bits a's ^ b's), so a step's local
    flips are placed by reading this at them."""
    digits = _code_digits(len(qubits))
    lanes = np.zeros((_word_bit(max(qubits))[0] + 1, digits.shape[1]), dtype=np.uint64)
    for pos, q in enumerate(qubits):
        word, bit = _word_bit(q)
        lanes[word] |= digits[pos] << np.uint64(bit)
    return lanes


def _fused(run: list, qubits: list) -> _Step:
    """The step on `qubits` that walks `run`: every local code of the union is
    put in lane words and walked through the run's steps, which compose as
    out = out2[out1], mult = mult1 * mult2[out1]. The products of +-1 are
    exact, so a lane's coefficient ends bit for bit as it does step by step."""
    qubits = tuple(qubits)
    start = _code_lanes(qubits)
    size = start.shape[1]
    terms, codes = _gather_plan(qubits)
    if codes is not None:
        start = start[:, codes]  # each code at its index, so the tables come out in that order
    words = start.copy()
    code, tmp = np.empty((2, size), dtype=np.uint64)
    at = code.view(np.intp)
    mult = np.ones(size)
    for st in run:
        _gather_code(words, st.gather, code, tmp)
        mult *= st.mult[at]
        for word, table in st.flips:
            words[word] ^= table[at]
    words ^= start  # the bits each code's walk flipped
    # copies, so that a step on one word does not keep the other word's row
    flips = tuple((word, delta.copy()) for word, delta in enumerate(words) if delta.any())
    cum = np.ones((0, size))
    for a in (cum, mult, *(delta for _, delta in flips)):
        a.setflags(write=False)
    return _Step(qubits, terms, 1, cum, mult, flips, False, True)


def _tabulate(r: np.ndarray) -> tuple:
    """(m, cum, mult, local code flips) of a PTM.

    r may hold only the first columns of a PTM (a start factor has one)."""
    size = r.shape[1]
    colnorm = np.abs(r).sum(axis=0)
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
    flips = (out ^ np.arange(size)[:, None]).ravel()
    mult = mult.ravel()
    for a in (cum, mult, flips):
        a.setflags(write=False)
    return m, cum, mult, flips


def _place(table: tuple, qubits) -> _Step:
    m, cum, mult, flips = table
    qubits = tuple(qubits)
    terms, codes = _gather_plan(qubits)
    if codes is not None:
        codes = codes[:cum.shape[1]]  # a start factor has code 0's column alone, at index 0
        cum, mult, flips = _laid_out(cum, codes), _laid_out(mult, codes, m), \
            _laid_out(flips, codes, m)
    deltas = (lanes[flips] for lanes in _code_lanes(qubits))
    flips = tuple((word, delta) for word, delta in enumerate(deltas) if delta.any())
    for _, delta in flips:
        delta.setflags(write=False)
    return _Step(qubits, terms, m, cum, mult, flips,
                 not mult.all(), m == 1 and bool(np.all(np.abs(mult) == 1.0)))


def _finish_step(qubits, mult: np.ndarray) -> _Step:
    """The step that multiplies by a finish table."""
    terms, codes = _gather_plan(tuple(qubits))
    return _Step(tuple(qubits), terms, 1, np.ones((0, len(mult))), _laid_out(mult, codes),
                 (), not mult.all(), False)


@lru_cache(maxsize=_FINISH_CACHE_SIZE)
def _fused_finish(tables: tuple) -> np.ndarray:
    """Trace table of a run of 1-qubit finish factors, from the bytes of
    their trace tables in qubit order. Keyed on content, because sweeps build
    equal factors afresh (|+> on every qubit of every QAOA term)."""
    table = np.frombuffer(tables[0])
    for t in tables[1:]:
        table = np.kron(np.frombuffer(t), table)  # the first qubit is the low digit
    table.setflags(write=False)
    return table


def _compile_finish(state: FactoredState) -> list:
    """Finish steps: fused runs of 1-qubit factors, then the others."""
    singles = {}
    others = []
    for qubits, op in state.factors:
        if len(qubits) == 1:
            singles[qubits[0]] = op.trace_table.tobytes()
        else:
            others.append(_finish_step(qubits, op.trace_table))
    # fuse runs of consecutive qubits into one table, so a run of up to
    # _FINISH_BLOCK_QUBITS qubits in one word costs one shift and mask
    runs = []
    for q in sorted(singles):
        if runs and q == runs[-1][-1] + 1 and len(runs[-1]) < _FINISH_BLOCK_QUBITS:
            runs[-1].append(q)
        else:
            runs.append([q])
    blocks = [_finish_step(run, _fused_finish(tuple(singles[q] for q in run)))
              for run in runs]
    return blocks + others


@dataclass
class _Compiled:
    # every lane starts at (const, const_coeff), one word of const per 32
    # qubits, then walks the start, channel and finish steps in that order
    const: tuple
    const_coeff: float
    start: list
    steps: list
    finish: list
    cost: CostReport
    # _run_batch's arrays, kept across the batches that walk this object and
    # let go with it
    scratch: tuple = field(default=None, repr=False, compare=False)


def compile_circuit(circuit: Circuit, direction: str) -> "_Compiled":
    if circuit.n > ENGINE_MAX_QUBITS:
        raise ValueError(f"engine register cap is {ENGINE_MAX_QUBITS} qubits")
    report = cost_report(circuit, direction)
    if direction == "schrodinger":
        start, finish = circuit.input, circuit.observable
    else:
        start, finish = circuit.observable, circuit.input
    return _Compiled(
        *_compile_start(start),
        _compile_steps(circuit, direction),
        _compile_finish(finish),
        report,
    )


def _run_batch(compiled: _Compiled, count: int, rng) -> tuple:
    if compiled.scratch is None or compiled.scratch[0].shape[1] < count:
        compiled.scratch = (np.empty((len(compiled.const), count), dtype=np.uint64),
                            np.empty((3, count), dtype=np.uint64), np.empty((3, count)),
                            np.empty(count, dtype=bool))
    # a short batch walks the first count lanes of each array
    lanes, ints, floats, below = compiled.scratch
    words = lanes[:, :count]
    code, index, delta = ints[:, :count]
    coeff, factor, u = floats[:, :count]
    below = below[:count]
    words[:] = np.array(compiled.const, dtype=np.uint64)[:, None]
    coeff.fill(compiled.const_coeff)
    # the gathers pass mode="wrap" because mode="raise" copies through a
    # buffer; every index is in range
    code_at, index_at = code.view(np.intp), index.view(np.intp)
    for st in compiled.start + compiled.steps + compiled.finish:
        _gather_code(words, st.gather, code, index)
        at = code_at
        if st.m > 1:
            # slot = #{t : u >= cum[t, i]}, the inverse-CDF draw of the column
            rng.random(count, out=u)
            np.multiply(code_at, st.m, out=index_at)
            for row in st.cum:
                np.take(row, code_at, out=factor, mode="wrap")
                np.greater_equal(u, factor, out=below)
                np.add(index_at, below, out=index_at)
            at = index_at  # the tables are read at i * m + slot
        np.take(st.mult, at, out=factor, mode="wrap")
        coeff *= factor
        for word, table in st.flips:
            np.take(table, at, out=delta, mode="wrap")
            words[word] ^= delta
        if st.kills and not coeff.any():
            return 0.0, 0.0
    if __debug__:
        limit = compiled.cost.total_bound * (1 + 1e-9) + 1e-12
        assert float(np.abs(coeff).max(initial=0.0)) <= limit
    np.multiply(coeff, coeff, out=factor)
    return float(coeff.sum()), float(factor.sum())


def estimate(
    circuit: Circuit,
    direction: str,
    n_samples: int,
    delta: float = 0.01,
    seed: int | tuple = 0,
    workers: int = 1,
) -> EstimateReport:
    """Mean of n_samples draws with the Hoeffding epsilon at confidence 1-delta.

    The draws run in batches of BATCH_SIZE spread over `workers` processes;
    the result does not depend on the worker count. seed is an int or a
    tuple of ints, the key prefix of the batches' streams (see fanout).
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    # fan_out refuses a count that is not an integer too, but only after compiling
    if not is_integer(n_samples) or n_samples < 1:
        raise ValueError(f"n_samples must be an integer of at least 1, got {n_samples!r}")
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
