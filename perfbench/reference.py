"""Reference computations the benchmark checks pauliprop against.

Nothing here imports pauliprop. Every value is computed from gate unitaries,
Kraus operators and state vectors written out below, so a fault in the
program's PTM tables, Choi construction or estimators cannot hide in the
reference as well.

Conventions (the same as the program's documented ones): qubit q is bit q
of a basis index, and a gate on qubits (a, b) has a as its least significant
local bit, so cnot on (a, b) has control a.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_CNOT = np.zeros((4, 4), dtype=complex)
for _b in range(4):
    _c, _t = _b & 1, (_b >> 1) & 1
    _CNOT[_c | ((_t ^ _c) << 1), _b] = 1.0

UNITARIES = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "s": np.diag([1, 1j]).astype(complex),
    "x": PAULI["X"],
    "y": PAULI["Y"],
    "z": PAULI["Z"],
    "cnot": _CNOT,
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
}


def rz(theta: float) -> np.ndarray:
    """exp(-i theta/2 Z); theta = pi/4 is the T gate."""
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def local_matrix(letters) -> np.ndarray:
    """Operator of a Pauli word whose first letter sits on the lowest bit."""
    out = np.array([[1.0 + 0j]])
    for ch in letters:
        out = np.kron(PAULI[ch], out)
    return out


# ---------------------------------------------------------------------------
# Pauli conjugation through Clifford gates, one 2x2 or 4x4 unitary at a time

@functools.lru_cache(maxsize=None)
def _conjugate_local(name: str, letters: str, forward: bool):
    u = UNITARIES[name]
    m = local_matrix(letters)
    out = u @ m @ u.conj().T if forward else u.conj().T @ m @ u
    dim = u.shape[0]
    for word in itertools.product("IXYZ", repeat=len(letters)):
        coef = np.trace(local_matrix(word) @ out) / dim
        if abs(coef) > 0.5:
            sign = float(np.round(coef.real))
            if abs(coef - sign) > 1e-9:
                raise ValueError(f"gate maps {letters} to a non-Pauli")
            return "".join(word), sign
    raise ValueError(f"gate maps {letters} to a non-Pauli")


def conjugate(gates, pauli: str, forward: bool):
    """(sign, string) of U P U^dag (forward) or U^dag P U (backward), where U
    applies `gates` (a list of (name, qubits)) in order."""
    letters = list(pauli)
    sign = 1.0
    for name, qubits in (gates if forward else reversed(gates)):
        local = "".join(letters[q] for q in qubits)
        word, s = _conjugate_local(name, local, forward)
        sign *= s
        for q, ch in zip(qubits, word):
            letters[q] = ch
    return sign, "".join(letters)


def zero_state_value(gates, pauli: str) -> float:
    """Exact <0...0| U^dag P U |0...0> for a Clifford U."""
    sign, back = conjugate(gates, pauli, forward=False)
    return sign if set(back) <= {"I", "Z"} else 0.0


# ---------------------------------------------------------------------------
# dense density-matrix simulation from Kraus operators (small registers)

def bloch_state(bx: float, by: float, bz: float) -> np.ndarray:
    return 0.5 * (PAULI["I"] + bx * PAULI["X"] + by * PAULI["Y"] + bz * PAULI["Z"])


_R = 1.0 / math.sqrt(2.0)
STATES = {
    "zero": bloch_state(0, 0, 1),
    "plus": bloch_state(1, 0, 0),
    "T_state": bloch_state(_R, _R, 0),
    "H_state": bloch_state(_R, 0, _R),
}


def product_state(rhos) -> np.ndarray:
    """Density matrix of rhos[0] (x) ... with rhos[q] on qubit q."""
    out = np.array([[1.0 + 0j]])
    for rho in rhos:
        out = np.kron(rho, out)
    return out


def _apply_left(t: np.ndarray, op: np.ndarray, axes) -> np.ndarray:
    """Contract op's input index with tensor axes (listed low bit first)."""
    k = len(axes)
    opt = op.reshape((2,) * (2 * k))
    target = list(reversed(axes))
    out = np.tensordot(opt, t, axes=(list(range(k, 2 * k)), target))
    return np.moveaxis(out, list(range(k)), target)


def apply_kraus(rho: np.ndarray, kraus, qubits, n: int) -> np.ndarray:
    """sum_K K rho K^dag with each K acting on `qubits` of an n-qubit rho."""
    # one contraction with S = sum_K K (x) conj(K), whose column-side bits
    # are the low ones: S[(i, j), (a, b)] = sum_K K[i, a] conj(K[j, b])
    rows = [n - 1 - q for q in qubits]
    cols = [2 * n - 1 - q for q in qubits]
    s = sum(np.kron(k, k.conj()) for k in kraus)
    return _apply_left(rho.reshape((2,) * (2 * n)), s, cols + rows).reshape(2**n, 2**n)


def depolarizing_kraus(f: float):
    """Pauli fidelity f: rho -> (1+3f)/4 rho + (1-f)/4 (X.X + Y.Y + Z.Z)."""
    a = math.sqrt((1 + 3 * f) / 4)
    b = math.sqrt((1 - f) / 4)
    return [a * PAULI["I"], b * PAULI["X"], b * PAULI["Y"], b * PAULI["Z"]]


def noisy_rotation_kraus(f: float, theta: float):
    """Depolarizing after rz(theta)."""
    u = rz(theta)
    return [k @ u for k in depolarizing_kraus(f)]


MEASURE_Z_KRAUS = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]


def reset_kraus(target: str):
    """Trace the qubit out and prepare the pure library state `target`."""
    rho = STATES[target]
    w, v = np.linalg.eigh(rho)
    psi = v[:, int(np.argmax(w))]
    return [np.outer(psi, np.eye(2)[i]) for i in range(2)]


def reduced_state(rho: np.ndarray, keep, n: int) -> np.ndarray:
    """Partial trace onto the qubits `keep` (first listed on the lowest bit)."""
    letters = iter("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
    rows, cols = [None] * n, [None] * n
    for q in range(n):
        rows[q] = next(letters)
        cols[q] = next(letters) if q in keep else rows[q]
    # tensor axis i is qubit n-1-i, for rows and then for columns
    spec = "".join(rows[::-1]) + "".join(cols[::-1])
    out = "".join(rows[q] for q in reversed(keep)) + "".join(cols[q] for q in reversed(keep))
    dim = 2 ** len(keep)
    return np.einsum(f"{spec}->{out}", rho.reshape((2,) * (2 * n))).reshape(dim, dim)


def pauli_expectation(rho: np.ndarray, pauli: str, n: int) -> float:
    t = rho.reshape((2,) * (2 * n))
    for q, ch in enumerate(pauli):
        if ch != "I":
            t = _apply_left(t, PAULI[ch], [n - 1 - q])
    return float(np.trace(t.reshape(2**n, 2**n)).real)


# ---------------------------------------------------------------------------
# E3LIN2 QAOA on a full statevector

def qaoa_expectation(n: int, equations, gamma: float, beta: float) -> float:
    """<C> for e^{-i beta sum X} e^{-i gamma C} |+>^n with
    C = 1/2 sum_j (-1)^{d_j} Z_a Z_b Z_c."""
    x = np.arange(2**n)
    cost = np.zeros(2**n)
    for a, b, c, d in equations:
        par = ((x >> a) ^ (x >> b) ^ (x >> c)) & 1
        cost += 0.5 * (1 - 2 * d) * (1 - 2 * par)
    psi = np.exp(-1j * gamma * cost) / math.sqrt(2**n)
    mixer = np.array([[math.cos(beta), -1j * math.sin(beta)],
                      [-1j * math.sin(beta), math.cos(beta)]])
    t = psi.reshape((2,) * n)
    for q in range(n):
        t = _apply_left(t, mixer, [n - 1 - q])
    prob = np.abs(t.reshape(-1)) ** 2
    return float(prob @ cost)


# ---------------------------------------------------------------------------
# two-qubit stabilizer polytope, robustness LP, Hilbert-Schmidt statistics

def _pauli_words(k: int):
    return ["".join(w) for w in itertools.product("IXYZ", repeat=k)]


def stabilizer_states_2q():
    """The 60 pure two-qubit stabilizer states, as 4x4 density matrices.

    Each is (I + sP + tQ + st PQ)/4 for a commuting pair P, Q of distinct
    non-identity Paulis and signs s, t; duplicates from different generator
    pairs of one group are removed.
    """
    mats = {w: local_matrix(w) for w in _pauli_words(2)[1:]}
    seen = {}
    for p, q in itertools.permutations(mats, 2):
        mp, mq = mats[p], mats[q]
        pq = mp @ mq
        if not np.allclose(pq, mq @ mp):
            continue
        for s, t in itertools.product((1, -1), repeat=2):
            rho = (np.eye(4) + s * mp + t * mq + s * t * pq) / 4
            key = tuple(np.round(np.concatenate([rho.real.ravel(), rho.imag.ravel()]), 9))
            seen.setdefault(key, rho)
    return list(seen.values())


def pauli_vector(rho: np.ndarray) -> np.ndarray:
    k = rho.shape[0].bit_length() - 1
    return np.array([np.trace(local_matrix(w) @ rho).real for w in _pauli_words(k)])


def robustness_2q(rho: np.ndarray, stab_vectors: np.ndarray) -> float:
    """min ||q||_1 subject to sum_s q_s phi_s = rho over the stabilizer states,
    with stab_vectors[:, s] the Pauli vector of phi_s."""
    from scipy.optimize import linprog  # kept out of set-up timing

    count = stab_vectors.shape[1]
    res = linprog(np.ones(2 * count), A_eq=np.hstack([stab_vectors, -stab_vectors]),
                  b_eq=pauli_vector(rho), bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def choi_state(kraus) -> np.ndarray:
    """Normalized (Lambda (x) id)(|Phi+><Phi+|), Lambda acting on qubit 0."""
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    rho = apply_kraus(np.outer(bell, bell.conj()), kraus, (0,), 2)
    return rho / np.trace(rho).real


def hs_magic_share(samples: int, rng: np.random.Generator, tol: float = 1e-6) -> float:
    """Monte Carlo Pr(D(rho) > 1 + tol) for Hilbert-Schmidt random two-qubit
    states, D being the Pauli-coefficient L1 norm."""
    g = rng.standard_normal((samples, 4, 4)) + 1j * rng.standard_normal((samples, 4, 4))
    rho = g @ g.conj().transpose(0, 2, 1)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    basis = np.stack([local_matrix(w) for w in _pauli_words(2)])
    traces = np.einsum("pij,sji->sp", basis, rho).real
    d = np.abs(traces).sum(axis=1) / 4
    return float(np.mean(d > 1 + tol))
