"""Exact oracle in Pauli space, plus the Kraus-to-PTM map.

`run_exact` carries the input's Pauli trace table t_i = Tr(sigma_i rho), a
(4,)*n tensor with axis q for qubit q, through each PTM as t -> R t on the
channel's digit axes, and returns Tr(E rho) = 2^-n <t_E, t>. It shares the
PTMs and the factors' trace tables with the propagation engine, but none of
its compiled tables, lanes or sampling, so it can act as their
oracle. Register cap n <= 8 (4^8 traces). `kraus_to_ptm` builds the PTM of a
Kraus set: `make_unitary_ptm` uses it, and the tests use it as the
independent check of each channel constructor.
"""

from __future__ import annotations

import numpy as np

from .operators import coeffs_from_matrix, pauli_basis

ORACLE_MAX_QUBITS = 8


class OracleTooLargeError(Exception):
    """Raised when a circuit exceeds the oracle's register cap."""


def kraus_to_ptm(ops, k: int) -> np.ndarray:
    """PTM entries R_ij = 2^{-k} Tr(sigma_i sum_K K sigma_j K^dag)."""
    ops = [np.asarray(op, dtype=complex) for op in ops]
    r = np.zeros((4**k, 4**k))
    for j, sigma in enumerate(pauli_basis(k)):
        out = sum(op @ sigma @ op.conj().T for op in ops)
        r[:, j] = coeffs_from_matrix(out, k)
    return r


def _trace_tensor(state) -> np.ndarray:
    """Tr(sigma A) of a FactoredState as a (4,)*n tensor, axis q for qubit q."""
    table, qubits = np.ones(1), ()
    for qs, op in state.factors:
        table = np.kron(op.trace_table, table)  # earlier factors on the low digits
        qubits += qs
    # a C-order reshape puts the most significant digit, qubits[-1], first
    return table.reshape((4,) * state.n).transpose(np.argsort(qubits[::-1]))


def _apply_local(t: np.ndarray, m: np.ndarray, qubits) -> np.ndarray:
    """Apply a 4^k x 4^k matrix to the axes of `qubits` of a (4,)*n tensor."""
    k = len(qubits)
    axes = list(reversed(qubits))  # m's reshaped axes run from the top digit down
    out = np.tensordot(m.reshape((4,) * (2 * k)), t, axes=(range(k, 2 * k), axes))
    return np.moveaxis(out, range(k), axes)


def run_exact(circuit) -> float:
    """Exact <E> = Tr(E Lambda_k(...Lambda_1(rho_0))) for circuits with n <= 8."""
    n = circuit.n
    if n > ORACLE_MAX_QUBITS:
        raise OracleTooLargeError(f"n={n} exceeds the oracle cap {ORACLE_MAX_QUBITS}")
    t = _trace_tensor(circuit.input)
    for app in circuit.channels:
        t = _apply_local(t, app.ptm.matrix, app.qubits)
    return float(np.sum(_trace_tensor(circuit.observable) * t)) / 2**n
