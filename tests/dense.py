"""Dense 2^n x 2^n references that only the tests use.

`embed_operator` and `apply_kraus` check the Pauli-space oracle against a
Kraus simulation; `exact_expectation` is the oracle's <C> for a QAOA
instance. The module is not named `reference` so that it cannot shadow
`perfbench/reference.py` when both folders are collected together.
"""

import numpy as np

from pauliprop.exact import run_exact
from pauliprop.qaoa import E3Lin2Instance, QaoaParams, build_term_circuit, term_weights

KRAUS_COMPLETENESS_TOL = 1e-8


def embed_operator(op: np.ndarray, qubits, n: int) -> np.ndarray:
    """Embed a k-qubit operator on the listed qubits into the 2^n space.

    qubits[pos] carries the operator's local qubit pos (its 2^pos bit).
    """
    k = len(qubits)
    rest = [q for q in range(n) if q not in qubits]
    low = np.kron(np.eye(2 ** (n - k), dtype=complex), op)
    b = np.arange(2**n)
    fmap = np.zeros(2**n, dtype=np.intp)
    for pos, q in enumerate(list(qubits) + rest):
        fmap |= ((b >> pos) & 1) << q
    out = np.zeros_like(low)
    out[fmap[:, None], fmap[None, :]] = low
    return out


def apply_kraus(ops, rho: np.ndarray) -> np.ndarray:
    """sum_K K rho K^dag, after checking sum_K K^dag K <= I (postselective)."""
    ops = [np.asarray(op, dtype=complex) for op in ops]
    dim = ops[0].shape[0]
    comp = sum(op.conj().T @ op for op in ops)
    excess = float(np.linalg.eigvalsh(comp - np.eye(dim))[-1])
    if excess > KRAUS_COMPLETENESS_TOL:
        raise ValueError(f"Kraus set is trace-increasing by {excess:.2e}")
    return sum(op @ rho @ op.conj().T for op in ops)


def exact_expectation(inst: E3Lin2Instance, params: QaoaParams) -> float:
    """Oracle <C>, term by term (n <= 8)."""
    weights = term_weights(inst)
    return float(sum(
        weights[term] * run_exact(build_term_circuit(inst, params, term))
        for term in range(inst.m)
    ))
