"""Known-answer tests for the benchmark's reference code.

    python3 -m pytest perfbench/test_reference.py -q
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402


def _dense_clifford_value(gates, pauli, n):
    rho = ref.product_state([ref.STATES["zero"]] * n)
    for name, qubits in gates:
        rho = ref.apply_kraus(rho, [ref.UNITARIES[name]], qubits, n)
    return ref.pauli_expectation(rho, pauli, n)


def test_hadamard_on_zero_has_x_equal_one():
    gates = [("h", (0,))]
    assert ref.zero_state_value(gates, "X") == 1.0
    assert _dense_clifford_value(gates, "X", 1) == pytest.approx(1.0, abs=1e-12)


def test_bell_pair_has_zz_equal_one():
    gates = [("h", (0,)), ("cnot", (0, 1))]
    for word, value in (("ZZ", 1.0), ("XX", 1.0), ("YY", -1.0), ("ZI", 0.0)):
        assert ref.zero_state_value(gates, word) == value
        assert _dense_clifford_value(gates, word, 2) == pytest.approx(value, abs=1e-12)


def test_cnot_control_is_the_first_listed_qubit():
    # X on qubit 0, then cnot(0 -> 1): both qubits read 1
    gates = [("x", (0,)), ("cnot", (0, 1))]
    assert ref.zero_state_value(gates, "IZ") == -1.0
    assert _dense_clifford_value(gates, "IZ", 2) == pytest.approx(-1.0, abs=1e-12)


def test_qaoa_at_gamma_zero_has_zero_expectation():
    equations = [(0, 1, 2, 0), (1, 2, 3, 1), (0, 2, 4, 0), (2, 3, 4, 1)]
    assert ref.qaoa_expectation(5, equations, 0.0, math.pi / 4) == pytest.approx(0.0, abs=1e-12)
    assert abs(ref.qaoa_expectation(5, equations, 0.4, math.pi / 8)) > 1e-3


def test_dense_simulation_agrees_with_pauli_conjugation():
    rng = np.random.default_rng(0)
    n = 4
    names = ("h", "s", "x", "y", "z")
    for _ in range(20):
        gates = []
        for _ in range(15):
            if rng.random() < 0.3:
                a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
                gates.append((("cnot", "cz")[int(rng.integers(2))], (a, b)))
            else:
                gates.append((names[int(rng.integers(5))], (int(rng.integers(n)),)))
        word = "".join("IXYZ"[int(i)] for i in rng.integers(4, size=n))
        assert _dense_clifford_value(gates, word, n) == pytest.approx(
            ref.zero_state_value(gates, word), abs=1e-12)


def test_forward_then_backward_conjugation_is_the_identity():
    gates = [("h", (0,)), ("s", (1,)), ("cz", (0, 2)), ("cnot", (2, 1)), ("y", (0,))]
    sign, word = ref.conjugate(gates, "XZY", forward=True)
    back_sign, back = ref.conjugate(gates, word, forward=False)
    assert (sign * back_sign, back) == (1.0, "XZY")


def test_two_qubit_stabilizer_polytope():
    states = ref.stabilizer_states_2q()
    assert len(states) == 60
    vectors = np.column_stack([ref.pauli_vector(s) for s in states])
    # a stabilizer state has robustness 1; |T>|0> needs more than that
    assert ref.robustness_2q(states[7], vectors) == pytest.approx(1.0, abs=1e-9)
    t0 = np.kron(ref.STATES["zero"], ref.STATES["T_state"])
    assert ref.robustness_2q(t0, vectors) == pytest.approx(math.sqrt(2), abs=1e-6)


def test_noisy_t_choi_state_leaves_the_polytope_between_half_and_one():
    vectors = np.column_stack([ref.pauli_vector(s) for s in ref.stabilizer_states_2q()])
    inside = ref.choi_state(ref.noisy_rotation_kraus(0.5, math.pi / 4))
    outside = ref.choi_state(ref.noisy_rotation_kraus(0.6, math.pi / 4))
    assert ref.robustness_2q(inside, vectors) <= 1 + 1e-6
    assert ref.robustness_2q(outside, vectors) > 1 + 1e-4


def test_reset_and_measurement_kraus():
    rho = ref.product_state([ref.STATES["plus"], ref.STATES["T_state"]])
    measured = ref.apply_kraus(rho, ref.MEASURE_Z_KRAUS, (0,), 2)
    assert ref.pauli_expectation(measured, "XI", 2) == pytest.approx(0.0, abs=1e-12)
    reset = ref.apply_kraus(rho, ref.reset_kraus("zero"), (1,), 2)
    assert ref.pauli_expectation(reset, "IZ", 2) == pytest.approx(1.0, abs=1e-12)
    assert ref.pauli_expectation(reset, "XI", 2) == pytest.approx(1.0, abs=1e-12)


def test_reduced_state_matches_full_expectation():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    red = ref.reduced_state(rho, (3, 1), 4)
    assert np.trace(ref.local_matrix("XY") @ red).real == pytest.approx(
        ref.pauli_expectation(rho, "IYIX", 4), abs=1e-12)

