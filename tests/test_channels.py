"""Every library PTM is pinned against the independent dense Kraus oracle."""

import math

import numpy as np
import pytest

from pauliprop import channels as ch
from pauliprop.channels import (
    PTM,
    ChannelApplication,
    NotCompletelyPositiveError,
    adaptive_norms,
    adjoint,
    adjoint_norm,
    channel_norm,
    choi_from_ptm,
    choi_matrix,
    choi_trace_table,
    compose,
    make_adaptive,
    make_clifford,
    make_depolarizing,
    make_measure_z,
    make_reset,
    make_rotation,
    make_unitary_ptm,
    postselection_probability,
    ptm_from_choi,
    validate_cp,
)
from pauliprop.exact import kraus_to_ptm
from pauliprop.operators import DenseOperator, coeffs_from_matrix, h_state, t_state

H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
S = np.diag([1, 1j]).astype(complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)

# basis index is c + 2t with control c on the low qubit
CNOT = np.zeros((4, 4), dtype=complex)
for b in range(4):
    c, t = b & 1, (b >> 1) & 1
    CNOT[c + 2 * (t ^ c), b] = 1
CZ = np.diag([1, 1, 1, -1]).astype(complex)

GATE_UNITARIES = {"h": H, "s": S, "x": X, "y": Y, "z": Z, "cnot": CNOT, "cz": CZ}


def random_state(k, rng):
    dim = 2**k
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DenseOperator(m / np.trace(m).real)


def reset_kraus(rho):
    vals, vecs = np.linalg.eigh(rho.matrix)
    dim = rho.matrix.shape[0]
    out = []
    for i in range(dim):
        if vals[i] < 1e-14:
            continue
        for j in range(dim):
            k = np.zeros((dim, dim), dtype=complex)
            k[:, j] = math.sqrt(max(vals[i], 0.0)) * vecs[:, i]
            out.append(k)
    return out


def test_ptm_shape_validation():
    with pytest.raises(ValueError):
        PTM(np.ones(4))
    with pytest.raises(ValueError):
        PTM(np.ones((3, 3)))
    with pytest.raises(ValueError, match="square"):
        PTM(np.ones((16, 4)))


def test_channel_application_validation():
    p = make_clifford("cnot")
    with pytest.raises(ValueError, match="qubits"):
        ChannelApplication(p, (0,))
    with pytest.raises(ValueError, match="duplicate"):
        ChannelApplication(p, (1, 1))


@pytest.mark.parametrize("name", ch.CLIFFORD_NAMES)
def test_clifford_ptm_matches_kraus_oracle(name):
    u = GATE_UNITARIES[name]
    k = 1 if u.shape[0] == 2 else 2
    np.testing.assert_allclose(
        make_clifford(name).matrix, kraus_to_ptm([u], k), atol=1e-12
    )


def test_clifford_norms_are_one():
    for name in ch.CLIFFORD_NAMES:
        p = make_clifford(name)
        assert abs(channel_norm(p) - 1.0) < 1e-12
        assert abs(adjoint_norm(p) - 1.0) < 1e-12


def test_unknown_clifford_rejected():
    with pytest.raises(ValueError, match="unknown Clifford"):
        make_clifford("swap")


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4, math.pi / 2, 2.0, -1.1])
def test_rotation_matches_kraus_oracle(theta):
    u = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    np.testing.assert_allclose(make_rotation(theta).matrix, kraus_to_ptm([u], 1),
                               atol=1e-12)


def test_rotation_norm_closed_form():
    for theta in (0.0, 0.2, math.pi / 4, 1.3):
        want = abs(math.cos(theta)) + abs(math.sin(theta))
        assert abs(channel_norm(make_rotation(theta)) - max(1.0, want)) < 1e-12
    # the T gate costs sqrt(2) in both directions
    t = make_rotation(math.pi / 4)
    assert abs(channel_norm(t) - math.sqrt(2)) < 1e-12
    assert abs(adjoint_norm(t) - math.sqrt(2)) < 1e-12


@pytest.mark.parametrize("f", [0.0, 0.25, 0.7, 1.0])
def test_depolarizing_matches_kraus_oracle(f):
    probs = [(1 + 3 * f) / 4] + [(1 - f) / 4] * 3
    ops = [math.sqrt(p) * sigma for p, sigma in zip(probs, (np.eye(2), X, Y, Z))]
    np.testing.assert_allclose(make_depolarizing(f).matrix, kraus_to_ptm(ops, 1),
                               atol=1e-12)


def test_depolarizing_fidelity_range():
    with pytest.raises(ValueError):
        make_depolarizing(1.5)
    with pytest.raises(ValueError):
        make_depolarizing(-0.1)


def test_measure_z_matches_kraus_oracle():
    ops = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    np.testing.assert_allclose(make_measure_z().matrix, kraus_to_ptm(ops, 1),
                               atol=1e-12)
    np.testing.assert_allclose(make_measure_z().matrix, np.diag([1.0, 0, 0, 1.0]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reset_matches_kraus_oracle(seed):
    rng = np.random.default_rng(seed)
    rho = random_state(1, rng)
    np.testing.assert_allclose(
        make_reset(rho).matrix, kraus_to_ptm(reset_kraus(rho), 1), atol=1e-10
    )


def test_reset_adjoint_norm_is_one():
    rng = np.random.default_rng(9)
    for _ in range(25):
        rho = random_state(1, rng)
        assert abs(adjoint_norm(make_reset(rho)) - 1.0) < 1e-12


def test_reset_forward_norm_is_bloch_l1():
    rho = t_state()
    want = float(np.abs(rho.trace_table).sum())
    assert abs(channel_norm(make_reset(rho)) - want) < 1e-12


def test_reset_rejects_non_states():
    with pytest.raises(ValueError, match="density"):
        make_reset(DenseOperator(np.diag([2.0, 0.0])))


def test_reset_choi_is_target_times_mixed():
    rho = h_state()
    choi = choi_from_ptm(make_reset(rho))
    # output copy on the low qubits, maximally mixed input marginal above it
    np.testing.assert_allclose(choi.matrix, np.kron(np.eye(2) / 2, rho.matrix),
                               atol=1e-12)


def test_adaptive_matches_kraus_oracle():
    inner_cases = [
        [H],
        [S],
        [np.diag([np.exp(-0.2j), np.exp(0.2j)])],
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
    ]
    for ops in inner_cases:
        inner = PTM(kraus_to_ptm(ops, 1))
        lifted = [np.kron(np.eye(2), np.diag([1.0, 0.0])).astype(complex)]
        lifted += [np.kron(k, np.diag([0.0, 1.0])) for k in ops]
        np.testing.assert_allclose(
            make_adaptive(inner).matrix, kraus_to_ptm(lifted, 2), atol=1e-12
        )


def test_adaptive_norms_match_brute_force():
    rng = np.random.default_rng(14)
    for _ in range(20):
        rho = random_state(1, rng)
        theta = rng.uniform(0, 2 * math.pi)
        inner = compose(make_reset(rho), make_rotation(theta))
        big = make_adaptive(inner)
        fwd, adj = adaptive_norms(inner)
        assert abs(channel_norm(big) - fwd) < 1e-12
        assert abs(adjoint_norm(big) - adj) < 1e-12


def test_compose_is_matrix_product():
    a = make_rotation(0.7)
    b = make_depolarizing(0.5)
    ua = np.diag([np.exp(-0.35j), np.exp(0.35j)])
    probs = [(1 + 3 * 0.5) / 4] + [(1 - 0.5) / 4] * 3
    kb = [math.sqrt(p) * s for p, s in zip(probs, (np.eye(2), X, Y, Z))]
    ka = [ua @ k for k in kb]  # rotation after depolarizing
    np.testing.assert_allclose(compose(a, b).matrix, kraus_to_ptm(ka, 1), atol=1e-12)
    with pytest.raises(ValueError):
        compose(make_clifford("cnot"), a)


def test_adjoint_is_transpose():
    p = make_rotation(1.1)
    np.testing.assert_allclose(adjoint(p).matrix, p.matrix.T)
    assert adjoint_norm(p) == channel_norm(adjoint(p))


def test_make_unitary_ptm_agrees_with_tables():
    np.testing.assert_allclose(make_unitary_ptm(H).matrix,
                               make_clifford("h").matrix, atol=1e-12)
    np.testing.assert_allclose(make_unitary_ptm(CNOT).matrix,
                               make_clifford("cnot").matrix, atol=1e-12)


def test_choi_round_trip_on_library_channels():
    cases = [make_rotation(0.4), make_depolarizing(0.3), make_measure_z(),
             make_clifford("h"), make_reset(t_state())]
    for ptm in cases:
        back = ptm_from_choi(choi_from_ptm(ptm).matrix)
        np.testing.assert_allclose(back.matrix, ptm.matrix, atol=1e-12)


def test_choi_trace_table_matches_the_choi_state():
    from pauliprop.magic import MODES, project_ptm, sample_hilbert_schmidt

    rng = np.random.default_rng(17)
    checked = 0
    for mode in MODES:
        for _ in range(50):
            ptm = project_ptm(ptm_from_choi(sample_hilbert_schmidt(2, rng).matrix), mode)
            try:
                want = DenseOperator(choi_from_ptm(ptm).matrix).trace_table
            except NotCompletelyPositiveError:
                with pytest.raises(NotCompletelyPositiveError):
                    choi_trace_table(ptm)
                continue
            np.testing.assert_allclose(choi_trace_table(ptm), want, rtol=0, atol=1e-14)
            checked += 1
    assert checked > 150
    # two qubits: the Y-digit signs count both digits of the input Pauli
    ptm = compose(make_clifford("cnot"), PTM(np.kron(make_rotation(0.3).matrix,
                                                     make_depolarizing(0.5).matrix)))
    phi = choi_matrix(ptm)
    want = 16 * coeffs_from_matrix(phi / np.trace(phi).real, 4)
    np.testing.assert_allclose(choi_trace_table(ptm), want, rtol=0, atol=1e-14)


def test_choi_trace_table_rejects_what_choi_from_ptm_rejects():
    for ptm in (PTM(np.diag([1.0, 1.0, -1.0, 1.0])), PTM(np.zeros((4, 4)))):
        with pytest.raises(NotCompletelyPositiveError) as want:
            choi_from_ptm(ptm)
        with pytest.raises(NotCompletelyPositiveError) as got:
            choi_trace_table(ptm)
        assert ("annihilates" in str(got.value)) == ("annihilates" in str(want.value))
    with pytest.raises(ValueError):
        choi_trace_table(PTM(np.ones((16, 4)) / 16))


def test_postselection_probability_examples():
    # trace preserving channels keep p = 1
    for ptm in (make_rotation(0.9), make_depolarizing(0.2), make_clifford("s")):
        assert abs(choi_from_ptm(ptm).p_lambda - 1.0) < 1e-12
    # |00><00| has a pure input marginal, so p = 1/2 exactly
    phi = np.zeros((4, 4), dtype=complex)
    phi[0, 0] = 1.0
    assert abs(postselection_probability(phi, 1) - 0.5) < 1e-14


def test_transpose_map_is_not_cp():
    transpose = PTM(np.diag([1.0, 1.0, -1.0, 1.0]))
    with pytest.raises(NotCompletelyPositiveError):
        validate_cp(transpose)
    with pytest.raises(NotCompletelyPositiveError):
        choi_from_ptm(transpose)


def test_choi_matrix_requires_square_channel():
    with pytest.raises(ValueError):
        choi_matrix(PTM(np.ones((16, 4)) / 16))


def test_ptm_from_choi_rejects_negative_choi():
    bad = np.diag([0.75, 0.5, 0.25, -0.5]).astype(complex)
    with pytest.raises(NotCompletelyPositiveError):
        ptm_from_choi(bad)
