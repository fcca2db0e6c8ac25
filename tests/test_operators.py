import math

import numpy as np
import pytest

from pauliprop import operators as ops
from pauliprop.operators import (
    DenseOperator,
    FactoredState,
    LIBRARY_STATES,
    coeffs_from_matrix,
    matrix_from_coeffs,
    pauli_matrix,
    stabilizer_norm_factored,
)
from pauliprop.exact import run_exact
from pauliprop.propagation import DIRECTIONS, Circuit, estimate

from dense import embed_operator


def random_hermitian(k, rng):
    dim = 2**k
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_state(k, rng):
    dim = 2**k
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DenseOperator(m / np.trace(m).real)


def test_pauli_matrix_matches_explicit_kron():
    x = np.array([[0, 1], [1, 0]])
    z = np.array([[1, 0], [0, -1]])
    # index 13 = 1 + 4*3: X on the low qubit, Z on the high one
    np.testing.assert_allclose(pauli_matrix(13, 2), np.kron(z, x))
    np.testing.assert_allclose(pauli_matrix(0, 1), np.eye(2))


def test_coeff_round_trip():
    rng = np.random.default_rng(0)
    for k in (1, 2, 3):
        m = random_hermitian(k, rng)
        c = coeffs_from_matrix(m, k)
        np.testing.assert_allclose(matrix_from_coeffs(c, k), m, atol=1e-12)


def test_dense_operator_validation():
    with pytest.raises(ValueError, match="square"):
        DenseOperator(np.ones((2, 3)))
    with pytest.raises(ValueError, match="2\\^k"):
        DenseOperator(np.eye(3))
    with pytest.raises(ValueError, match="k <= 3"):
        DenseOperator(np.eye(16))
    with pytest.raises(ValueError, match="Hermitian"):
        DenseOperator(np.array([[0, 1], [0, 0]]))
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            DenseOperator(np.array([[bad, 0], [0, 1]]))


def test_from_coeffs_shape_check():
    with pytest.raises(ValueError):
        DenseOperator.from_coeffs([1.0, 0.0], 1)


def test_matrix_is_read_only():
    op = ops.zero_state()
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 2.0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_paulis_have_unit_norm(k):
    for i in range(4**k):
        op = DenseOperator(pauli_matrix(i, k))
        assert abs(op.stabilizer_norm - 1.0) < 1e-12


def test_norm_of_named_states():
    """Magic states cost (1+sqrt2)/2; the maximally mixed qubit costs 1/2."""
    gold = (1 + math.sqrt(2)) / 2
    assert abs(ops.h_state().stabilizer_norm - gold) < 1e-12
    assert abs(ops.t_state().stabilizer_norm - gold) < 1e-12
    assert abs(ops.zero_state().stabilizer_norm - 1.0) < 1e-12
    assert abs(ops.plus_state().stabilizer_norm - 1.0) < 1e-12
    assert abs(ops.maximally_mixed().stabilizer_norm - 0.5) < 1e-12
    assert abs(ops.maximally_mixed(2).stabilizer_norm - 0.25) < 1e-12


def test_library_states_are_states():
    for name, factory in LIBRARY_STATES.items():
        assert factory().is_state, name


def test_trace_table_of_zero_state():
    np.testing.assert_allclose(ops.zero_state().trace_table, [1, 0, 0, 1], atol=1e-15)


def test_sampler_distribution_and_mean():
    """sigma drawn with p = |Tr(sigma A)| / (2^k D); E[c 1{sigma=i}] = coeff_i.

    With no channels and the observable sigma_i, a forward draw of sigma_j
    scores c * Tr(sigma_j sigma_i) = sign_i * D * 2^k * [j == i], so the mean
    is Tr(sigma_i A) and |mean| / (2^k D) is the hit frequency of i."""
    rng = np.random.default_rng(7)
    n = 40_000
    for k in (1, 2):
        op = random_state(k, rng)
        state = FactoredState(k, ((tuple(range(k)), op),))
        coeffs = op.trace_table / 2**k
        probs = np.abs(coeffs) / op.stabilizer_norm
        for i in range(4**k):
            obs = FactoredState(k, ((tuple(range(k)), DenseOperator(pauli_matrix(i, k))),))
            rep = estimate(Circuit(k, state, (), obs), "schrodinger", n, seed=i)
            hits = abs(rep.mean) / (2**k * op.stabilizer_norm)
            assert abs(hits - probs[i]) < 4 / math.sqrt(n), (k, i)
            assert abs(rep.mean / 2**k - coeffs[i]) < 4 / math.sqrt(n), (k, i)


def test_zero_observable_factor_is_exactly_zero():
    # a backward walk starts by sampling the observable; D = 0 folds into 0
    zero = FactoredState.of_qubit_states([DenseOperator(np.zeros((2, 2)))])
    circ = Circuit(1, FactoredState.of_qubit_states([ops.zero_state()]), (), zero)
    assert run_exact(circ) == 0.0
    for direction in DIRECTIONS:
        rep = estimate(circ, direction, 10)
        assert (rep.mean, rep.epsilon, rep.sample_std) == (0.0, 0.0, 0.0), direction


def test_factored_state_validation():
    z = ops.zero_state()
    with pytest.raises(ValueError, match="cover"):
        FactoredState(2, (((0,), z),))
    with pytest.raises(ValueError, match="two factors"):
        FactoredState(1, (((0,), z), ((0,), z)))
    with pytest.raises(ValueError, match="out of range"):
        FactoredState(1, (((1,), z),))
    with pytest.raises(ValueError, match="mismatched"):
        FactoredState(2, (((0, 1), z),))


def test_of_qubit_states_order():
    s = FactoredState.of_qubit_states([ops.zero_state(), ops.plus_state()])
    assert s.n == 2
    assert [f[0] for f in s.factors] == [(0,), (1,)]


def test_validate_state_rejects_observables():
    obs = DenseOperator(pauli_matrix(3, 1))  # Z is Hermitian but not a state
    s = FactoredState.of_qubit_states([obs])
    with pytest.raises(ValueError, match="not a valid state"):
        s.validate_state()


def test_norm_multiplicativity_factored():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = DenseOperator(random_hermitian(1, rng))
        b = DenseOperator(random_hermitian(2, rng))
        s = FactoredState(3, (((1,), a), ((0, 2), b)))
        whole = DenseOperator(embed_operator(np.kron(b.matrix, a.matrix), (1, 0, 2), 3))
        assert abs(stabilizer_norm_factored(s) - whole.stabilizer_norm) < 1e-9


def test_factored_sampling_multiplies_coefficients():
    """Every forward draw from T (x) H weighs D(T) * D(H): against an
    observable with |Tr(sigma E)| = 1 for every Pauli, each sample is
    +-D(T) D(H), so the mean square equals (D(T) D(H))^2 exactly."""
    s = FactoredState.of_qubit_states([ops.t_state(), ops.h_state()])
    d = stabilizer_norm_factored(s)
    flat = DenseOperator.from_coeffs([0.5, 0.5, 0.5, 0.5], 1)  # Tr(sigma_i E) = 1
    n = 2000
    rep = estimate(Circuit(2, s, (), FactoredState.of_qubit_states([flat, flat])),
                   "schrodinger", n, seed=5)
    mean_square = rep.sample_std**2 * (n - 1) / n + rep.mean**2
    assert abs(mean_square - d * d) < 1e-9
    assert rep.cost.total_bound == pytest.approx(d, abs=1e-12)
