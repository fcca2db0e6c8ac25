import math

import numpy as np
import pytest

from pauliprop.channels import PTM, ChannelApplication, compose, make_adaptive, \
    make_clifford, make_depolarizing, make_measure_z, make_reset, make_rotation, \
    make_unitary_ptm
from pauliprop.exact import OracleTooLargeError, kraus_to_ptm, run_exact
from pauliprop.operators import (
    DenseOperator,
    FactoredState,
    maximally_mixed,
    pauli_matrix,
    t_state,
    zero_state,
)
from pauliprop.propagation import Circuit

from dense import apply_kraus, embed_operator

H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def random_density(n, rng):
    dim = 2**n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def test_embed_single_pauli_matches_global_index():
    n = 3
    for q in range(n):
        for d in range(4):
            got = embed_operator(pauli_matrix(d, 1), (q,), n)
            np.testing.assert_allclose(got, pauli_matrix(d * 4**q, n), atol=0)


def test_embed_interleaved_cnot_is_the_right_permutation():
    # control qubit 2, target qubit 0, spectator qubit 1
    u = np.zeros((4, 4), dtype=complex)
    for b in range(4):
        c, t = b & 1, (b >> 1) & 1
        u[c + 2 * (t ^ c), b] = 1
    got = embed_operator(u, (2, 0), 3)
    want = np.zeros((8, 8), dtype=complex)
    for b in range(8):
        c = (b >> 2) & 1
        want[b ^ c, b] = 1
    np.testing.assert_allclose(got, want, atol=0)


def test_embed_rejects_nothing_but_matches_kron_on_sorted_qubits():
    rng = np.random.default_rng(3)
    op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    got = embed_operator(op, (0, 1), 3)
    np.testing.assert_allclose(got, np.kron(np.eye(2), op), atol=1e-14)


def _ptm_on_dense_state(rho, r, qubits):
    """Tr(sigma_i Lambda(rho)) for every 3-qubit Pauli i, Lambda = PTM r on
    `qubits`, with rho one unfactored 3-qubit state read through run_exact."""
    inp = FactoredState(3, [((0, 1, 2), DenseOperator(rho))])
    channels = [ChannelApplication(PTM(r), qubits)]
    return np.array([
        run_exact(Circuit(3, inp, channels,
                          FactoredState(3, [((0, 1, 2), DenseOperator(pauli_matrix(i, 3)))])))
        for i in range(64)
    ])


def _pauli_traces(rho):
    return np.array([np.trace(pauli_matrix(i, 3) @ rho).real for i in range(64)])


@pytest.mark.parametrize("qubits,kraus_builder", [
    ((1,), lambda: [np.diag([np.exp(-0.3j), np.exp(0.3j)])]),
    ((2,), lambda: [np.diag([1.0, 0.0]).astype(complex),
                    np.diag([0.0, 1.0]).astype(complex)]),
])
def test_apply_ptm_dense_agrees_with_embedded_kraus(qubits, kraus_builder):
    rng = np.random.default_rng(11)
    rho = random_density(3, rng)
    ops = kraus_builder()
    got = _ptm_on_dense_state(rho, kraus_to_ptm(ops, 1), qubits)
    want = sum(
        embed_operator(k, qubits, 3) @ rho @ embed_operator(k, qubits, 3).conj().T
        for k in ops
    )
    np.testing.assert_allclose(got, _pauli_traces(want), atol=1e-12)


def test_apply_ptm_dense_interleaved_two_qubit():
    rng = np.random.default_rng(12)
    rho = random_density(3, rng)
    u = np.zeros((4, 4), dtype=complex)
    for b in range(4):
        c, t = b & 1, (b >> 1) & 1
        u[c + 2 * (t ^ c), b] = 1
    got = _ptm_on_dense_state(rho, kraus_to_ptm([u], 2), (2, 0))
    ue = embed_operator(u, (2, 0), 3)
    np.testing.assert_allclose(got, _pauli_traces(ue @ rho @ ue.conj().T), atol=1e-12)


def test_apply_kraus_checks_completeness():
    rho = np.eye(2, dtype=complex) / 2
    out = apply_kraus([np.diag([1.0, 0.0])], rho)  # trace-decreasing is fine
    assert abs(np.trace(out) - 0.5) < 1e-12
    with pytest.raises(ValueError, match="trace-increasing"):
        apply_kraus([math.sqrt(1.2) * np.eye(2)], rho)


def test_kraus_to_ptm_hadamard():
    want = np.array([
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
        [0, 1, 0, 0],
    ], dtype=float)
    np.testing.assert_allclose(kraus_to_ptm([H], 1), want, atol=1e-12)


def _bell_circuit(observable):
    return Circuit(
        n=2,
        input=FactoredState.of_qubit_states([zero_state(), zero_state()]),
        channels=[
            ChannelApplication(make_clifford("h"), (0,)),
            ChannelApplication(make_clifford("cnot"), (0, 1)),
        ],
        observable=observable,
    )


def test_run_exact_bell_correlators():
    zz = FactoredState(2, [((0, 1), DenseOperator(pauli_matrix(15, 2)))])
    xx = FactoredState(2, [((0, 1), DenseOperator(pauli_matrix(5, 2)))])
    zi = FactoredState(2, [((0,), DenseOperator(pauli_matrix(3, 1))),
                           ((1,), DenseOperator(np.eye(2)))])
    assert abs(run_exact(_bell_circuit(zz)) - 1.0) < 1e-12
    assert abs(run_exact(_bell_circuit(xx)) - 1.0) < 1e-12
    assert abs(run_exact(_bell_circuit(zi))) < 1e-12


def test_run_exact_reset_then_measurement():
    circ = Circuit(
        n=1,
        input=FactoredState.of_qubit_states([maximally_mixed(1)]),
        channels=[ChannelApplication(make_reset(t_state()), (0,))],
        observable=FactoredState(1, [((0,), DenseOperator(pauli_matrix(1, 1)))]),
    )
    assert abs(run_exact(circ) - 1 / math.sqrt(2)) < 1e-12


def test_run_exact_respects_register_cap():
    n = 9
    obs = [((q,), DenseOperator(np.eye(2))) for q in range(n)]
    circ = Circuit(
        n=n,
        input=FactoredState.of_qubit_states([zero_state() for _ in range(n)]),
        channels=[ChannelApplication(make_rotation(0.1), (0,))],
        observable=FactoredState(n, obs),
    )
    with pytest.raises(OracleTooLargeError):
        run_exact(circ)


def test_measure_z_kills_coherences_exactly():
    rng = np.random.default_rng(4)
    rho = DenseOperator(random_density(2, rng))
    for index in range(16):
        circ = Circuit(
            n=2,
            input=FactoredState(2, [((1, 0), rho)]),
            channels=[ChannelApplication(make_measure_z(), (1,))],
            observable=FactoredState(2, [((1, 0), DenseOperator(pauli_matrix(index, 2)))]),
        )
        # qubit 1 is the factors' low digit: an X or Y there is a coherence
        if index & 3 in (1, 2):
            assert run_exact(circ) == 0.0
        else:
            assert abs(run_exact(circ) - rho.trace_table[index]) < 1e-12


# Kraus sets written out from the gate matrices, never from a PTM
T = np.diag([1, np.exp(0.25j * math.pi)])
CLIFFORD_KRAUS = {
    "h": ([H], 1),
    "s": ([np.diag([1, 1j])], 1),
    "cnot": ([np.eye(4)[:, [0, 3, 2, 1]]], 2),  # control on the low bit
    "cz": ([np.diag([1, 1, 1, -1])], 2),
}
MEASURE_Z_KRAUS = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]


def _depolarized(ops, f):
    paulis = [pauli_matrix(i, 1) for i in range(4)]
    weights = [(1 + 3 * f) / 4] + [(1 - f) / 4] * 3
    return [math.sqrt(w) * p @ op for w, p in zip(weights, paulis) for op in ops]


def _reset_kraus(rho):
    vals, vecs = np.linalg.eigh(rho)
    return [math.sqrt(max(v, 0.0)) * np.outer(vecs[:, i], np.eye(len(rho))[j])
            for i, v in enumerate(vals) for j in range(len(rho))]


def _random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.linalg.qr(g)[0]


def _random_hermitian(k, rng):
    g = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal((2**k, 2**k))
    h = g + g.conj().T
    return h / np.abs(np.linalg.eigvalsh(h)).max()


def _random_factors(n, rng, make):
    """Factors make(k, rng) on shuffled qubits, k = 2 or 3 (fewer at the end)."""
    order = [int(q) for q in rng.permutation(n)]
    factors = []
    while order:
        k = min(len(order), int(rng.integers(2, 4)))
        qubits, order = tuple(order[:k]), order[k:]
        factors.append((qubits, DenseOperator(make(k, rng))))
    return factors


def _random_gate(n, rng, unitaries):
    """-> (PTM, qubits, Kraus set on those qubits)."""
    kind = rng.choice(["clifford", "noisy_t", "reset", "measure_z", "adaptive", "u3"])
    qubits = tuple(int(q) for q in rng.permutation(n))
    if kind == "clifford":
        name = str(rng.choice(list(CLIFFORD_KRAUS)))
        ops, k = CLIFFORD_KRAUS[name]
        return make_clifford(name), qubits[:k], ops
    if kind == "noisy_t":
        f = float(rng.uniform(0.5, 1.0))
        return compose(make_depolarizing(f), make_rotation(math.pi / 4)), qubits[:1], \
            _depolarized([T], f)
    if kind == "reset":
        rho = random_density(1, rng)
        return make_reset(DenseOperator(rho)), qubits[:1], _reset_kraus(rho)
    if kind == "measure_z":
        return make_measure_z(), qubits[:1], MEASURE_Z_KRAUS
    if kind == "adaptive":
        # control on the low bit: |0><0| (x) I, then |1><1| (x) the inner Kraus set
        inner = _depolarized([H], float(rng.uniform(0.0, 1.0)))
        ops = [np.kron(np.eye(2), MEASURE_Z_KRAUS[0])]
        ops += [np.kron(op, MEASURE_Z_KRAUS[1]) for op in inner]
        return make_adaptive(PTM(kraus_to_ptm(inner, 1))), qubits[:2], ops
    u, ptm = unitaries[rng.integers(len(unitaries))]
    return ptm, qubits[:3], [u]


def test_run_exact_matches_a_dense_kraus_simulation():
    rng = np.random.default_rng(2024)
    # a 3-qubit PTM's CP check takes a noticeable fraction of a second, so
    # the dense unitaries come from a small pool
    unitaries = [(u, make_unitary_ptm(u)) for u in
                 (_random_unitary(8, rng) for _ in range(3))]
    for _ in range(40):
        n = int(rng.integers(3, 6))
        inp = _random_factors(n, rng, random_density)
        obs = _random_factors(n, rng, _random_hermitian)
        gates = [_random_gate(n, rng, unitaries) for _ in range(int(rng.integers(4, 12)))]

        rho = np.eye(2**n, dtype=complex)
        for qubits, op in inp:
            rho = rho @ embed_operator(op.matrix, qubits, n)
        for _, qubits, ops in gates:
            rho = apply_kraus([embed_operator(op, qubits, n) for op in ops], rho)
        e = np.eye(2**n, dtype=complex)
        for qubits, op in obs:
            e = e @ embed_operator(op.matrix, qubits, n)
        want = float(np.trace(e @ rho).real)

        circ = Circuit(n, FactoredState(n, tuple(inp)),
                       [ChannelApplication(ptm, qubits) for ptm, qubits, _ in gates],
                       FactoredState(n, tuple(obs)))
        assert abs(run_exact(circ) - want) < 1e-12
