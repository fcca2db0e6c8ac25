"""QAOA on random E3LIN2 instances, estimated two independent ways.

The cost observable C = (1/2) sum_j (-1)^{d_j} Z_a Z_b Z_c counts satisfied
equations (as C + m/2) for the state e^{-i beta B} e^{-i gamma C} |+...+>.
C is a sum of Pauli terms, so the harness runs one Heisenberg-propagation
estimate per term with N samples each and combines linearly; the triangle
inequality then reproduces the m prefactor of the eps_heis bound. Each term
walks only its lightcone (build_term_circuit); the rest of the circuit would
leave every Pauli of the walk unchanged.

The cross-check estimator conjugates each term through the X-mixer layer
analytically and samples uniform bitstrings, using

  <+| e^{i gamma C} X_a Z_z e^{-i gamma C} |+> = 2^-n sum_x e^{i gamma dC(x)} (-1)^{z.x}

with dC(x) = C(x xor a) - C(x), which only involves equations overlapping a
on an odd number of qubits. Its per-sample cost is independent of gamma.
Every column reads one parity table pm_j(x) = (-1)^{x . t_j}, whose bit
x_a ^ x_b ^ x_c is XORed from the sampled bit columns of equation j's triple
(a, b, c). The Pauli of term t with X part a adds
coeff * pm_t(x) * cos(gamma dC(x) + phase), with dC = pm @ w, w_j = -s_j on
the equations a flips and 0 elsewhere (a sum of +-1 terms, exact in any
order), and phase pi/2 per Y letter.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .channels import ChannelApplication, make_unitary_ptm
from .fanout import check_count, check_seed, fan_out, map_blocks
from .operators import DenseOperator, EntryError, FactoredState, plus_state
from .propagation import Circuit, _check_delta, estimate

GENERATION_RESTARTS = 50
ATTEMPTS_PER_EQUATION = 2000
_PAULI_Z = DenseOperator(np.diag([1.0, -1.0]).astype(complex))
_IDENTITY = DenseOperator(np.eye(2, dtype=complex))


def degree_cap(n: int, m: int) -> int:
    """Per-qubit equation cap: m // 10 per the source construction, relaxed to
    ceil(3m / n) when the former leaves too few slots (3m > n * (m // 10)).
    The relaxation is exactly the set of caps with a satisfiable instance."""
    return max(m // 10, -(-3 * m // n))


@dataclass(frozen=True)
class E3Lin2Instance:
    n: int
    m: int
    equations: tuple  # (a, b, c, d) with a < b < c, d in {0, 1}

    def __post_init__(self):
        object.__setattr__(self, "equations", tuple(tuple(e) for e in self.equations))
        if self.n < 3:
            raise ValueError("need at least 3 qubits")
        if self.m != len(self.equations) or self.m < 1:
            raise ValueError("m must equal the number of equations and be >= 1")
        degrees = [0] * self.n
        seen = set()
        for j, eq in enumerate(self.equations):
            if len(eq) != 4:
                raise EntryError("equation", j, f"{eq} is not (a, b, c, d)")
            a, b, c, d = eq
            if not (0 <= a < b < c < self.n):
                raise EntryError("equation", j, f"qubits {(a, b, c)} not sorted in range")
            if d not in (0, 1):
                raise EntryError("equation", j, f"parity {d} not a bit")
            if (a, b, c) in seen:
                raise EntryError("equation", j, f"duplicate triple {(a, b, c)}")
            seen.add((a, b, c))
            for q in (a, b, c):
                degrees[q] += 1
        cap = degree_cap(self.n, self.m)
        if max(degrees) > cap:
            raise ValueError(f"qubit degree {max(degrees)} exceeds cap {cap}")

    def triple_masks(self) -> np.ndarray:
        masks = np.zeros((self.m, self.n), dtype=np.uint8)
        for j, (a, b, c, _) in enumerate(self.equations):
            masks[j, [a, b, c]] = 1
        return masks

    def signs(self) -> np.ndarray:
        """(-1)^{d_j} per equation."""
        return np.array([1.0 - 2.0 * eq[3] for eq in self.equations])


@dataclass(frozen=True)
class QaoaParams:
    gamma: float
    beta: float = math.pi / 4

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and math.isfinite(self.beta)):
            raise ValueError("angles must be finite")


def generate_instance(n: int, m: int, rng: np.random.Generator) -> E3Lin2Instance:
    """Random distinct triples with uniform parity bits, respecting degree_cap.

    m < 10 makes the m // 10 cap zero, which is rejected outright; tight caps
    are handled by restarting after a fixed per-equation attempt budget.
    """
    if m < 10:
        raise ValueError("m // 10 = 0 leaves no degree budget; need m >= 10")
    if n < 3:
        raise ValueError("need at least 3 qubits")
    if math.comb(n, 3) < m:
        raise ValueError(f"only {math.comb(n, 3)} distinct triples exist for n={n}")
    cap = degree_cap(n, m)
    for _ in range(GENERATION_RESTARTS):
        degrees = [0] * n
        chosen = {}
        attempts = 0
        while len(chosen) < m and attempts < ATTEMPTS_PER_EQUATION * m:
            attempts += 1
            triple = tuple(sorted(rng.choice(n, size=3, replace=False).tolist()))
            if triple in chosen or any(degrees[q] >= cap for q in triple):
                continue
            chosen[triple] = int(rng.integers(0, 2))
            for q in triple:
                degrees[q] += 1
        if len(chosen) == m:
            eqs = tuple((a, b, c, d) for (a, b, c), d in chosen.items())
            return E3Lin2Instance(n, m, eqs)
    raise RuntimeError(f"instance generation failed after {GENERATION_RESTARTS} restarts")


def _zzz_rotation(theta: float) -> np.ndarray:
    """exp(-i theta/2 ZZZ) as an 8x8 diagonal unitary."""
    parity = np.array([(-1.0) ** bin(b).count("1") for b in range(8)])
    return np.diag(np.exp(-0.5j * theta * parity))


def _x_rotation(beta: float) -> np.ndarray:
    return np.array([
        [math.cos(beta), -1j * math.sin(beta)],
        [-1j * math.sin(beta), math.cos(beta)],
    ])


# a sweep visits few distinct angles, so each rotation PTM is built (and
# checked for complete positivity) once per angle, not once per term
@functools.lru_cache(maxsize=256)
def _zzz_rotation_ptm(theta: float):
    return make_unitary_ptm(_zzz_rotation(theta))


@functools.lru_cache(maxsize=256)
def _mixer_ptm(beta: float):
    return make_unitary_ptm(_x_rotation(beta))


def overlapping_equations(inst: E3Lin2Instance, term: int) -> list:
    support = set(inst.equations[term][:3])
    return [
        j for j, eq in enumerate(inst.equations)
        if support.intersection(eq[:3])
    ]


def build_term_circuit(inst: E3Lin2Instance, params: QaoaParams, term: int) -> Circuit:
    """Circuit whose observable is Z_a Z_b Z_c for one equation, cut to its
    lightcone.

    Only the diagonal rotations sharing a qubit with the term (and the mixer
    rotations on the term's own qubits) are kept: rotations on disjoint
    triples commute with a walk whose X/Y letters stay on the term's qubits,
    and the other mixers see only I. The tests build the uncut circuit (every
    rotation, a mixer on every qubit) as the reference that shows this is
    exact.
    """
    a, b, c, _ = inst.equations[term]
    channels = []
    for j in overlapping_equations(inst, term):
        qa, qb, qc, d = inst.equations[j]
        theta = params.gamma * (1.0 - 2.0 * d)
        channels.append(ChannelApplication(_zzz_rotation_ptm(theta), (qa, qb, qc)))
    mixer = _mixer_ptm(params.beta)
    for q in (a, b, c):
        channels.append(ChannelApplication(mixer, (q,)))
    obs = FactoredState.of_qubit_states(
        [_PAULI_Z if q in (a, b, c) else _IDENTITY for q in range(inst.n)]
    )
    inp = FactoredState.of_qubit_states([plus_state()] * inst.n)
    return Circuit(inst.n, inp, tuple(channels), obs)


def term_weights(inst: E3Lin2Instance) -> np.ndarray:
    return 0.5 * inst.signs()


def epsilon_heis(m: int, n_samples: int, delta: float, gamma: float) -> float:
    """m / sqrt(2N) * sqrt(ln(2/delta)) * (|sin g| + |cos g|)^(3(m/10 - 1) + 1),
    with m/10 evaluated as written."""
    check_count(n_samples, 1)
    _check_delta(delta)
    base = abs(math.sin(gamma)) + abs(math.cos(gamma))
    exponent = 3.0 * (m / 10.0 - 1.0) + 1.0
    return m / math.sqrt(2 * n_samples) * math.sqrt(math.log(2 / delta)) * base**exponent


def epsilon_nest(m: int, n_samples: int, delta: float) -> float:
    check_count(n_samples, 1)
    _check_delta(delta)
    return m / math.sqrt(n_samples) * math.sqrt(math.log(2 / delta))


# the path element of the nested estimator's streams (*prefix, _NESTED, b):
# block b of term t draws from (*prefix, t, b), and no term index reaches it
_NESTED = (1 << 64) - 1


def heisenberg_estimate(inst: E3Lin2Instance, params: QaoaParams, n_samples: int,
                        delta: float = 0.01, seed: int | tuple = 0, workers: int = 1):
    """Per-term Heisenberg estimates combined linearly.

    Returns (estimate, engine_epsilon): the second value is the triangle
    combination of each term's own Hoeffding epsilon, a valid bound even when
    the relaxed degree cap makes the closed-form exponent optimistic. The
    terms run spread over `workers` processes, each term's estimate in one.
    seed is an int s, taken as the key prefix (s,), or a tuple of ints, the
    prefix itself: term t's blocks draw from (*prefix, t, b), so seed=5 and
    seed=(5,) give the same result.
    """
    prefix = check_seed(seed)
    weights = term_weights(inst)
    terms = map_blocks(_term_estimate, (inst, params, n_samples, delta, prefix),
                       inst.m, workers)
    total = 0.0
    eps = 0.0
    for weight, (mean, epsilon) in zip(weights, terms):
        total += weight * mean
        eps += abs(weight) * epsilon
    return total, eps


def _term_estimate(inst: E3Lin2Instance, params: QaoaParams, n_samples: int,
                   delta: float, prefix: tuple, term: int) -> tuple[float, float]:
    """(mean, epsilon) of one term; the terms are what gets spread over workers."""
    rep = estimate(build_term_circuit(inst, params, term), "heisenberg",
                   n_samples, delta=delta, seed=(*prefix, term))
    return rep.mean, rep.epsilon


def _conjugated_paulis(params: QaoaParams):
    """sigma_Z -> cos(2b) sigma_Z + sin(2b) sigma_Y per qubit: up to 8 Paulis
    per term, reported as (coeff, y_positions) with the Z part fixed to the
    full triple."""
    cos2b, sin2b = math.cos(2 * params.beta), math.sin(2 * params.beta)
    out = []
    for picks in itertools.product((0, 1), repeat=3):
        coeff = 1.0
        for p in picks:
            coeff *= sin2b if p else cos2b
        if abs(coeff) > 1e-15:
            out.append((coeff, picks))
    return out


def vdn_estimate(inst: E3Lin2Instance, params: QaoaParams, n_samples: int,
                 seed: int | tuple = 0, workers: int = 1) -> float:
    """Uniform-bitstring Monte Carlo for <C>, shared samples across terms.

    Per-sample totals are asserted against m/2 * (|cos 2b| + |sin 2b|)^3, the
    triangle bound on the conjugated coefficients.
    """
    check_count(n_samples, 1)
    totals = fan_out(_vdn_block, (inst, params), n_samples, _VDN_BATCH, seed, workers)
    return sum(totals) / n_samples


_VDN_BATCH = 1 << 16


def _vdn_block(inst: E3Lin2Instance, params: QaoaParams, count: int, rng) -> float:
    masks = inst.triple_masks()  # (m, n) 0/1
    eq_signs = inst.signs()
    weights = term_weights(inst)
    base3 = (abs(math.cos(2 * params.beta)) + abs(math.sin(2 * params.beta))) ** 3
    bound = inst.m / 2 * base3 + 1e-9

    columns = []  # (term, weight * coeff, w, phase) per Pauli with an X part
    for term, eq in enumerate(inst.equations):
        for coeff, picks in _conjugated_paulis(params):
            y_cols = [q for q, pick in zip(eq[:3], picks) if pick]
            if not y_cols:
                continue  # no X part: exact expectation 0 (Z part is nonempty)
            flipped = masks[:, y_cols].sum(axis=1) & 1
            columns.append((term, weights[term] * coeff, -eq_signs * flipped,
                            len(y_cols) * math.pi / 2))

    bits = rng.integers(0, 2, size=(count, inst.n), dtype=np.uint8)
    a, b, c = np.array([eq[:3] for eq in inst.equations]).T
    parity = bits[:, a]  # x_a ^ x_b ^ x_c per term, XORed in place
    parity ^= bits[:, b]
    parity ^= bits[:, c]
    pm = 1.0 - 2.0 * parity  # (-1)^{x . t_j}: term j's Z part
    values = np.zeros(count)
    for term, coeff, w, phase in columns:
        values += coeff * pm[:, term] * np.cos(params.gamma * (pm @ w) + phase)
    if np.abs(values).max(initial=0.0) > bound:
        raise AssertionError("per-sample value exceeded the triangle bound")
    return float(values.sum())


def run_experiment(inst: E3Lin2Instance, params: QaoaParams, n_samples: int,
                   delta: float = 0.01, seed: int | tuple = 0, workers: int = 1) -> dict:
    """Both estimators plus their error bounds; n_samples counts per term. seed
    is a key prefix as in heisenberg_estimate."""
    t0 = perf_counter()
    prefix = check_seed(seed)
    c_heis, eps_engine = heisenberg_estimate(inst, params, n_samples, delta=delta,
                                             seed=prefix, workers=workers)
    c_vdn = vdn_estimate(inst, params, n_samples, seed=(*prefix, _NESTED),
                         workers=workers)
    eps_h = epsilon_heis(inst.m, n_samples, delta, params.gamma)
    eps_n = epsilon_nest(inst.m, n_samples, delta)
    return {
        "gamma": params.gamma,
        "beta": params.beta,
        "n": inst.n,
        "m": inst.m,
        "n_samples": n_samples,
        "C_heis": c_heis,
        "C_vdn": c_vdn,
        "eps_heis": eps_h,
        "eps_heis_engine": eps_engine,
        "eps_nest": eps_n,
        "abs_err": abs(c_heis - c_vdn),
        "seconds": perf_counter() - t0,
    }
