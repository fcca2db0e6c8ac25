"""Quantum channels as Pauli Transfer Matrices, plus the Choi-state bijection.

The PTM of a channel Lambda on k qubits is the real matrix

    R_ij = 2^{-k} Tr(sigma_i Lambda(sigma_j)),

index 0 being the identity Pauli; columns are the Pauli coefficient vectors
of Lambda(sigma_j). The channel stabilizer norm D(Lambda) is the largest
column L1 norm, the adjoint is the transpose, and D(Lambda^dag) is the
largest row L1 norm. Composition is matrix product (right factor first).

Channels are stored solely as PTMs; Kraus operators appear only in the
construction-time validator (exact.kraus_to_ptm) and in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import kraus_to_ptm
from .operators import DenseOperator, pauli_basis

CP_EIGENVALUE_TOL = 1e-8


class NotCompletelyPositiveError(ValueError):
    pass


class PTM:
    """Pauli Transfer Matrix of a channel on k qubits; shape 4^k x 4^k, immutable."""

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"PTM must be a square matrix, got shape {matrix.shape}")
        k = max((len(matrix).bit_length() - 1) // 2, 0)
        if 4**k != len(matrix):
            raise ValueError(f"PTM dimension {len(matrix)} is not a power of 4")
        if not np.isfinite(matrix).all():
            raise ValueError("PTM has non-finite entries")
        self.k = k
        self.matrix = matrix.copy()
        self.matrix.setflags(write=False)

    def __repr__(self):
        return f"PTM(k={self.k})"


@dataclass(frozen=True)
class ChannelApplication:
    """A PTM bound to the ordered circuit qubits it acts on."""

    ptm: PTM
    qubits: tuple

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if len(self.qubits) != self.ptm.k:
            raise ValueError(f"{len(self.qubits)} qubits for a k={self.ptm.k} channel")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("duplicate qubits in channel application")


def channel_norm(ptm: PTM) -> float:
    """D(Lambda): largest column L1 norm of the PTM."""
    return float(np.abs(ptm.matrix).sum(axis=0).max())


def adjoint(ptm: PTM) -> PTM:
    return PTM(ptm.matrix.T)


def adjoint_norm(ptm: PTM) -> float:
    """D(Lambda^dag): largest row L1 norm (= channel_norm of the transpose)."""
    return float(np.abs(ptm.matrix).sum(axis=1).max())


def compose(a: PTM, b: PTM) -> PTM:
    """PTM of (a after b): matrix product a.R @ b.R (ValueError if k differs)."""
    return PTM(a.matrix @ b.matrix)


# ---------------------------------------------------------------------------
# library constructors
#
# Each builds its PTM from an explicit closed form / lookup table; tests
# verify every one against the independent dense Kraus oracle.

def make_rotation(theta: float) -> PTM:
    """Z-axis rotation e^{-i(theta/2) sigma_Z}: X -> cos X + sin Y."""
    c, s = np.cos(theta), np.sin(theta)
    return _validated(PTM([
        [1, 0, 0, 0],
        [0, c, -s, 0],
        [0, s, c, 0],
        [0, 0, 0, 1],
    ]))


def make_depolarizing(f: float) -> PTM:
    """Depolarizing channel with Pauli fidelity f: Bloch shrink diag(1,f,f,f)."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"depolarizing fidelity {f} outside [0, 1]")
    return _validated(PTM(np.diag([1.0, f, f, f])))


def make_measure_z() -> PTM:
    """Non-destructive Z-basis measurement (dephasing): diag(1,0,0,1)."""
    return _validated(PTM(np.diag([1.0, 0.0, 0.0, 1.0])))


# Signed-permutation conjugation tables, local index order (I, X, Y, Z) with
# the first listed qubit as the least significant base-4 digit. The 1-qubit
# rows are the textbook maps; the 2-qubit tables were transcribed from the
# gate unitaries once and are pinned against the Kraus oracle in tests.
_CLIFFORD_TABLES = {
    "h": {1: (3, 1), 2: (2, -1), 3: (1, 1)},
    "s": {1: (2, 1), 2: (1, -1)},
    "x": {2: (2, -1), 3: (3, -1)},
    "y": {1: (1, -1), 3: (3, -1)},
    "z": {1: (1, -1), 2: (2, -1)},
    # control = first listed qubit (digit 0), target = second
    "cnot": {
        1: (5, 1), 2: (6, 1), 5: (1, 1), 6: (2, 1), 8: (11, 1), 9: (14, 1),
        10: (13, -1), 11: (8, 1), 12: (15, 1), 13: (10, -1), 14: (9, 1),
        15: (12, 1),
    },
    "cz": {
        1: (13, 1), 2: (14, 1), 4: (7, 1), 5: (10, 1), 6: (9, -1), 7: (4, 1),
        8: (11, 1), 9: (6, -1), 10: (5, 1), 11: (8, 1), 13: (1, 1), 14: (2, 1),
    },
}

CLIFFORD_NAMES = ("h", "s", "cnot", "cz", "x", "y", "z")


def make_clifford(name: str) -> PTM:
    """Signed-permutation PTM of a named Clifford gate."""
    key = name.lower()
    if key not in _CLIFFORD_TABLES:
        raise ValueError(f"unknown Clifford gate {name!r}")
    table = _CLIFFORD_TABLES[key]
    k = 2 if key in ("cnot", "cz") else 1
    r = np.zeros((4**k, 4**k))
    for j in range(4**k):
        i, sign = table.get(j, (j, 1))
        r[i, j] = sign
    return _validated(PTM(r))


def make_reset(rho: DenseOperator) -> PTM:
    """Reset channel Lambda_rho(sigma) = Tr(sigma) rho.

    Only the identity column is nonzero; it holds (Tr(sigma_i rho))_i, rho's
    Bloch vector including the identity component. Hence D(Lambda) is that
    column's L1 norm and D(Lambda^dag) = 1 (each row has one entry, <= 1).
    """
    if not rho.is_state:
        raise ValueError("reset target must be a valid density matrix")
    size = 4**rho.k
    r = np.zeros((size, size))
    r[:, 0] = rho.trace_table
    return _validated(PTM(r))


def make_adaptive(inner: PTM) -> PTM:
    """Adaptive channel A(Lambda): measure a control in Z, apply Lambda on |1>.

    The control is the first (lowest-index) qubit of the output (k+1)-qubit
    block. Nonzero entries exist only where the control Pauli is I or Z:
    blocks (1/2)(delta_ij + R_ij) when control in = control out, and
    (1/2)(delta_ij - R_ij) otherwise.
    """
    k = inner.k
    size = 4**k
    r = np.zeros((4 * size, 4 * size))
    delta = np.eye(size)
    plus = 0.5 * (delta + inner.matrix)
    minus = 0.5 * (delta - inner.matrix)
    for c_out, c_in, block in ((0, 0, plus), (3, 0, minus), (0, 3, minus), (3, 3, plus)):
        r[c_out::4, c_in::4] = block
    return _validated(PTM(r))


def adaptive_norms(inner: PTM) -> tuple[float, float]:
    """Closed forms (D(A(Lambda)), D(A(Lambda)^dag)) from the inner PTM.

    Each input column (I or Z control, sigma_j) of A(Lambda) has L1 norm
    sum_i max(delta_ij, |R_ij|) = 1 + sum_{i != j} |R_ij|, so the forward
    norm maxes that over columns j; the adjoint norm is the row mirror.
    Bounds: <= 1 + D(Lambda) and <= 1 + D(Lambda^dag) respectively.
    """
    a = np.abs(inner.matrix).copy()
    np.fill_diagonal(a, 0.0)
    return 1.0 + float(a.sum(axis=0).max()), 1.0 + float(a.sum(axis=1).max())


def make_unitary_ptm(u: np.ndarray) -> PTM:
    """PTM of conjugation by an explicit unitary (helper for tests/files)."""
    u = np.asarray(u, dtype=complex)
    k = u.shape[0].bit_length() - 1
    return _validated(PTM(kraus_to_ptm([u], k)))


# ---------------------------------------------------------------------------
# Choi states (postselective-channel bijection)
#
# A Choi state lives on H^B (x) H^A with the output copy B on the
# lower-indexed qubits; the normalized state is choi_matrix over its trace,
# and the un-normalized one is p_lambda times the normalized one.

_CHOI_PATH = ["einsum_path", (0, 1), (0, 1)]


def choi_matrix(ptm: PTM) -> np.ndarray:
    """Un-normalized Choi state (Lambda (x) I)(|Bell><Bell|) as a dense matrix.

    Using |Bell><Bell| = 4^{-k} sum_j sigma_j (x) sigma_j^T:
    phi = 4^{-k} sum_ij R_ij sigma_i^B (x) (sigma_j^T)^A.
    """
    k = ptm.k
    basis = pauli_basis(k)
    # layout: B side on low qubits, so the A-side factor is the left kron arg;
    # from two qubits on, contracting R with one basis first (a matrix
    # product) is 5x (k = 2) to 200x (k = 3) faster, while at one qubit the
    # plain einsum is faster and keeps the bits the census was pinned with
    phi = np.einsum("ij,jdc,iab->cadb", ptm.matrix, basis, basis,
                    optimize=_CHOI_PATH if k > 1 else False)
    dim = 2**k
    return phi.reshape(dim * dim, dim * dim) / 4**k


def postselection_probability(normalized: np.ndarray, k: int) -> float:
    """p_lambda from 1/p = dim(H^A) * max_psi Tr(phibar (I (x) |psi><psi|^T)).

    The maximum over pure psi is the top eigenvalue of the A-side reduced
    state (transposition does not move eigenvalues), an eigenvalue problem.
    """
    dim = 2**k
    reduced = np.trace(
        normalized.reshape(dim, dim, dim, dim), axis1=1, axis2=3
    )
    top = float(np.linalg.eigvalsh(reduced)[-1])
    return 1.0 / (dim * top)


def choi_trace_table(ptm: PTM) -> np.ndarray:
    """Trace table of the normalized Choi state, read off the PTM: choi_matrix
    puts R_ij s_j / 4^k on sigma_i^B (x) sigma_j^A, with sigma_j^T = s_j sigma_j
    (s_j = -1 for an odd number of Y digits in j) and Tr(phi) = R_00, so entry
    i + 4^k j is R_ij s_j / R_00. Raises NotCompletelyPositiveError where
    validate_cp does, and where R_00 <= 0 leaves no state to normalize."""
    validate_cp(ptm)
    r = ptm.matrix
    if r[0, 0] <= 0:
        raise NotCompletelyPositiveError("channel annihilates the Bell state; no Choi state")
    digits = (np.arange(len(r))[:, None] >> (2 * np.arange(ptm.k))) & 3
    signs = (-1.0) ** (digits == 2).sum(axis=1)
    return (r * signs).ravel(order="F") / r[0, 0]


def ptm_from_choi(normalized: np.ndarray) -> PTM:
    """PTM of the postselective channel with the given normalized Choi state.

    Rescales by p_lambda so that the channel is trace-non-increasing with
    postselection satisfiable, then reads off R_ij = Tr(phi (sigma_i (x) sigma_j^T)).
    """
    normalized = np.asarray(normalized, dtype=complex)
    dim2 = normalized.shape[0]
    k = (dim2.bit_length() - 1) // 2
    if (2**k) ** 2 != dim2:
        raise ValueError(f"Choi dimension {dim2} is not 4^k")
    _check_psd(normalized, "Choi state")  # p_lambda of a non-PSD matrix means nothing
    phi = postselection_probability(normalized, k) * normalized
    basis = pauli_basis(k)
    dim = 2**k
    t = phi.reshape(dim, dim, dim, dim)
    # R_ij = Tr(phi (sigma_i^B (x) (sigma_j^T)^A)); the A-side transpose is
    # why sigma_j enters as [c, d] rather than [d, c]
    return PTM(np.einsum("cadb,iba,jcd->ij", t, basis, basis).real)


def _check_psd(choi: np.ndarray, context: str):
    """The one complete-positivity test: no Choi eigenvalue below -tol."""
    low = float(np.linalg.eigvalsh(choi)[0])
    if low < -CP_EIGENVALUE_TOL:
        raise NotCompletelyPositiveError(
            f"{context}: Choi eigenvalue {low:.2e} below -{CP_EIGENVALUE_TOL}"
        )


def validate_cp(ptm: PTM, context: str = "channel") -> np.ndarray:
    """The un-normalized Choi matrix of ptm, once its eigenvalues are checked."""
    phi = choi_matrix(ptm)
    _check_psd(phi, context)
    return phi


def _validated(ptm: PTM) -> PTM:
    validate_cp(ptm, "library channel")
    return ptm
