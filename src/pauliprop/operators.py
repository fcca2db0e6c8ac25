"""Dense Hermitian operators on small qubit sets, and their Pauli data.

Any Hermitian A on k <= 3 qubits decomposes as A = sum_i coeffs[i] * sigma_i
with coeffs[i] = Tr(sigma_i A)/2^k. Its stabilizer norm

    D(A) = 2^{-k} * sum_sigma |Tr(sigma A)|

is the L1 norm of that coefficient vector. The estimator draws sigma_i with
probability |coeffs[i]| / D(A) and weight sign(coeffs[i]) * D(A), so that
E[c * sigma] = A; the propagation engine compiles that draw into its own
step tables, and this module holds no sampling state.

Local Pauli indices are base-4 with the factor's first qubit as the least
significant digit; the digits are I=0, X=1, Y=2, Z=3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, cached_property

import numpy as np

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10

_PAULI_1Q = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def pauli_matrix(index: int, k: int) -> np.ndarray:
    """Dense 2^k x 2^k matrix of the local Pauli with the given base-4 index."""
    m = np.array([[1]], dtype=complex)
    for pos in range(k):
        m = np.kron(_PAULI_1Q[(index >> (2 * pos)) & 3], m)
    return m


@lru_cache(maxsize=None)
def pauli_basis(k: int) -> np.ndarray:
    """All 4^k local Pauli matrices, stacked on axis 0. Cached per k."""
    out = np.stack([pauli_matrix(i, k) for i in range(4**k)])
    out.setflags(write=False)
    return out


def coeffs_from_matrix(matrix: np.ndarray, k: int) -> np.ndarray:
    """Pauli coefficient vector: entry i is Tr(sigma_i A)/2^k (real for Hermitian A)."""
    return np.einsum("nij,ji->n", pauli_basis(k), matrix).real / 2**k


def matrix_from_coeffs(coeffs: np.ndarray, k: int) -> np.ndarray:
    return np.tensordot(coeffs, pauli_basis(k), axes=1)


class DenseOperator:
    """Hermitian matrix on k <= 3 qubits with cached Pauli data.

    Treated as immutable after construction; the matrix is marked read-only
    so the cached coefficient vector and trace table stay valid.
    """

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
        dim = matrix.shape[0]
        k = dim.bit_length() - 1
        if 2**k != dim or k > 3:
            raise ValueError(f"dimension {dim} is not 2^k with k <= 3")
        if np.abs(matrix - matrix.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian within 1e-10")
        self.k = k
        self.matrix = matrix.copy()
        self.matrix.setflags(write=False)

    @classmethod
    def from_coeffs(cls, coeffs, k: int) -> "DenseOperator":
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (4**k,):
            raise ValueError(f"expected {4**k} coefficients for k={k}")
        return cls(matrix_from_coeffs(coeffs, k))

    @cached_property
    def coeffs(self) -> np.ndarray:
        c = coeffs_from_matrix(self.matrix, self.k)
        c.setflags(write=False)
        return c

    @cached_property
    def stabilizer_norm(self) -> float:
        return float(np.abs(self.coeffs).sum())

    @cached_property
    def trace_table(self) -> np.ndarray:
        """Unnormalized traces Tr(sigma_i A) = coeffs * 2^k, indexed by local Pauli."""
        t = self.coeffs * 2**self.k
        t.setflags(write=False)
        return t

    def is_state(self, trace_tol=1e-9, psd_tol=PSD_TOL) -> bool:
        if abs(np.trace(self.matrix).real - 1.0) > trace_tol:
            return False
        return float(np.linalg.eigvalsh(self.matrix)[0]) >= -psd_tol

    def __repr__(self):
        return f"DenseOperator(k={self.k})"


# ---------------------------------------------------------------------------
# tensor-factored operators

@dataclass(frozen=True)
class FactoredState:
    """Tensor product over disjoint qubit subsets covering [0, n).

    Used both for input states rho_0 and for observables E; factors need not
    be states (call validate_state() where a density matrix is required).
    """

    n: int
    factors: tuple  # of (qubit tuple, DenseOperator)

    def __post_init__(self):
        seen = set()
        for qubits, op in self.factors:
            if len(qubits) != op.k:
                raise ValueError(f"factor on {qubits} has mismatched operator size {op.k}")
            for q in qubits:
                if q < 0 or q >= self.n:
                    raise ValueError(f"qubit {q} out of range for n={self.n}")
                if q in seen:
                    raise ValueError(f"qubit {q} appears in two factors")
                seen.add(q)
        if len(seen) != self.n:
            raise ValueError("factors do not cover the register")

    @classmethod
    def of_qubit_states(cls, ops) -> "FactoredState":
        """One single-qubit factor per register position, in order."""
        return cls(len(ops), tuple(((q,), op) for q, op in enumerate(ops)))

    def validate_state(self):
        for qubits, op in self.factors:
            if not op.is_state():
                raise ValueError(f"factor on qubits {qubits} is not a valid state")

    def dense(self) -> np.ndarray:
        """Full 2^n x 2^n matrix (for oracle use on small registers)."""
        # factors may interleave qubits, so multiply register-sized embeddings
        from .exact import embed_operator

        acc = None
        for qubits, op in self.factors:
            emb = embed_operator(op.matrix, qubits, self.n)
            acc = emb if acc is None else acc @ emb
        return acc


def stabilizer_norm_factored(s: FactoredState) -> float:
    """Multiplicativity: D(A_1 (x) A_2 ...) = prod D(A_f)."""
    out = 1.0
    for _, op in s.factors:
        out *= op.stabilizer_norm
    return out


# ---------------------------------------------------------------------------
# library states (named in circuit files)

def zero_state() -> DenseOperator:
    return DenseOperator(np.array([[1, 0], [0, 0]], dtype=complex))


def plus_state() -> DenseOperator:
    return DenseOperator(np.full((2, 2), 0.5, dtype=complex))


def maximally_mixed(k: int = 1) -> DenseOperator:
    return DenseOperator(np.eye(2**k, dtype=complex) / 2**k)


def h_state() -> DenseOperator:
    """Hadamard eigenstate |H><H|, Bloch vector (1/sqrt2, 0, 1/sqrt2)."""
    s = 1 / np.sqrt(2)
    return DenseOperator.from_coeffs([0.5, 0.5 * s, 0.0, 0.5 * s], 1)


def t_state() -> DenseOperator:
    """Equatorial magic state |T><T|, Bloch vector (1/sqrt2, 1/sqrt2, 0)."""
    s = 1 / np.sqrt(2)
    return DenseOperator.from_coeffs([0.5, 0.5 * s, 0.5 * s, 0.0], 1)


LIBRARY_STATES = {
    "zero": zero_state,
    "plus": plus_state,
    "maximally_mixed": maximally_mixed,
    "H_state": h_state,
    "T_state": t_state,
}
