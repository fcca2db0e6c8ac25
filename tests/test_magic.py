import math

import numpy as np
import pytest

from pauliprop.channels import (
    PTM,
    NotCompletelyPositiveError,
    adjoint,
    choi_matrix,
    compose,
    make_adaptive,
    make_clifford,
    make_depolarizing,
    make_measure_z,
    make_reset,
    make_rotation,
    ptm_from_choi,
)
from pauliprop.magic import (
    CHANNEL_CATEGORIES,
    LP_TOL,
    STATE_CATEGORIES,
    classification_census,
    classify_channel,
    classify_ptm,
    classify_state,
    csh_boundary_f,
    enumerate_stabilizer_states,
    project_ptm,
    robustness,
    robustness_closed_form_1q,
    sample_hilbert_schmidt,
    state_census,
    _solve_robustness,
)
from pauliprop.operators import (
    DenseOperator,
    coeffs_from_matrix,
    h_state,
    maximally_mixed,
    t_state,
    zero_state,
)


def test_stabilizer_state_counts():
    one = enumerate_stabilizer_states(1)
    two = enumerate_stabilizer_states(2)
    assert len(one.states) == 6
    assert len(two.states) == 60
    assert one.trace_matrix.shape == (4, 6)
    assert two.trace_matrix.shape == (16, 60)
    with pytest.raises(ValueError):
        enumerate_stabilizer_states(3)


def test_stabilizer_states_have_unit_norm_and_are_distinct():
    for n in (1, 2):
        sset = enumerate_stabilizer_states(n)
        for op in sset.states:
            assert abs(op.stabilizer_norm - 1.0) < 1e-9
            assert op.is_state()
        keys = {tuple(np.round(col, 9)) for col in sset.trace_matrix.T}
        assert len(keys) == len(sset.states)


def test_robustness_known_values():
    assert abs(robustness(zero_state()) - 1.0) < LP_TOL
    assert abs(robustness(maximally_mixed(1)) - 1.0) < LP_TOL
    assert abs(robustness(maximally_mixed(2)) - 1.0) < LP_TOL
    # both magic 1q states sit at the octahedron diagonal: R = sqrt(2)
    assert abs(robustness(h_state()) - math.sqrt(2)) < LP_TOL
    assert abs(robustness(t_state()) - math.sqrt(2)) < LP_TOL


def test_robustness_rejects_mismatched_set():
    with pytest.raises(ValueError, match="does not match"):
        robustness(zero_state(), enumerate_stabilizer_states(2))


def test_closed_form_matches_lp_on_random_qubit_states():
    rng = np.random.default_rng(21)
    sset = enumerate_stabilizer_states(1)
    for _ in range(200):
        rho = sample_hilbert_schmidt(1, rng)
        lp = robustness(rho, sset)
        assert abs(lp - robustness_closed_form_1q(rho)) < 1e-6


def test_lp_solution_carries_a_duality_certificate():
    sset = enumerate_stabilizer_states(1)
    for rho in (h_state(), t_state(), zero_state()):
        res = _solve_robustness(rho, sset)
        count = len(sset.states)
        q = res.x[:count] - res.x[count:]
        np.testing.assert_allclose(sset.trace_matrix @ q, rho.trace_table,
                                   atol=1e-8)
        assert np.abs(q).sum() <= res.fun + 1e-9
        y = res.eqlin.marginals
        # dual feasibility ||T^T y||_inf <= 1 plus a matching objective proves
        # the LP value is the true minimum, not just a feasible weight
        assert float(np.abs(sset.trace_matrix.T @ y).max()) <= 1.0 + 1e-7
        assert min(abs(y @ rho.trace_table - res.fun),
                   abs(y @ rho.trace_table + res.fun)) < 1e-7


def test_appending_a_stabilizer_ancilla_keeps_robustness():
    got = robustness(DenseOperator(np.kron(zero_state().matrix, h_state().matrix)))
    assert abs(got - math.sqrt(2)) < 1e-6


def test_classify_state_examples():
    assert classify_state(zero_state()) == "stabilizer_mixture"
    assert classify_state(maximally_mixed(1)) == "stabilizer_mixture"
    assert classify_state(t_state()) == "magic"
    # kron(I/2, |H>): D = 0.5 * (1 + sqrt(2))/2 ~ 0.60 but R = sqrt(2) > 1
    hybrid = DenseOperator(np.kron(np.eye(2) / 2, h_state().matrix))
    assert hybrid.stabilizer_norm < 1.0
    assert classify_state(hybrid) == "hyper_octahedral_nonstab"


def test_single_qubit_states_are_never_hyper_octahedral():
    rng = np.random.default_rng(33)
    sset = enumerate_stabilizer_states(1)
    seen = set()
    for _ in range(200):
        cat = classify_state(sample_hilbert_schmidt(1, rng), sset)
        seen.add(cat)
        assert cat != "hyper_octahedral_nonstab"
    assert seen == {"stabilizer_mixture", "magic"}


def test_robustness_decreases_under_depolarizing():
    eye = np.eye(2) / 2
    values = []
    for p in (0.0, 0.2, 0.5, 0.8):
        rho = DenseOperator((1 - p) * h_state().matrix + p * eye)
        values.append(robustness(rho))
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    assert values[-1] < values[0]


def test_sample_hilbert_schmidt_produces_states():
    rng = np.random.default_rng(8)
    for n in (1, 2):
        rho = sample_hilbert_schmidt(n, rng)
        assert rho.k == n
        assert rho.is_state()
        assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-12


def test_project_ptm_semantics():
    ptm = make_reset(t_state())
    unital = project_ptm(ptm, "unital")
    np.testing.assert_allclose(unital.matrix[:, 0], [1, 0, 0, 0])
    untouched = project_ptm(ptm, "general")
    np.testing.assert_allclose(untouched.matrix, ptm.matrix)
    skew = PTM(np.array([
        [1.0, 0.2, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.0],
        [0.1, 0.0, 0.0, 0.5],
    ]))
    tp = project_ptm(skew, "trace_preserving")
    np.testing.assert_allclose(tp.matrix[0], [1, 0, 0, 0])
    assert tp.matrix[3, 0] == 0.1
    both = project_ptm(skew, "both")
    np.testing.assert_allclose(both.matrix[0], [1, 0, 0, 0])
    np.testing.assert_allclose(both.matrix[:, 0], [1, 0, 0, 0])
    assert both.matrix[1, 1] == 0.5
    with pytest.raises(ValueError, match="mode"):
        project_ptm(ptm, "sideways")


def test_channel_category_examples():
    # every category letter combination is realized by a named construction
    cases = [
        (make_rotation(math.pi / 4), "M"),
        (make_clifford("h"), "CSH"),
        (make_measure_z(), "CSH"),
        (compose(make_depolarizing(0.6), make_rotation(math.pi / 4)), "SH"),
        (make_reset(h_state()), "H"),
        (make_reset(zero_state()), "CH"),
        (adjoint(make_reset(h_state())), "S"),
        (adjoint(make_reset(zero_state())), "CS"),
    ]
    sset = enumerate_stabilizer_states(2)
    for ptm, want in cases:
        rec = classify_ptm(ptm, sset)
        assert rec.category == want, (want, rec)
    assert set(CHANNEL_CATEGORIES) >= {want for _, want in cases}


def test_classify_ptm_reports_norms():
    rec = classify_ptm(make_rotation(math.pi / 4))
    assert abs(rec.d_forward - math.sqrt(2)) < 1e-12
    assert abs(rec.d_adjoint - math.sqrt(2)) < 1e-12
    assert rec.robustness > 1.0 + LP_TOL


_MIRROR = {"M": "M", "C": "C", "S": "H", "H": "S", "CS": "CH", "CH": "CS",
           "SH": "SH", "CSH": "CSH"}


def test_adjoint_mirror_swaps_s_and_h():
    rng = np.random.default_rng(55)
    sset = enumerate_stabilizer_states(2)
    for _ in range(100):
        rho = sample_hilbert_schmidt(2, rng)
        ptm = ptm_from_choi(rho.matrix)
        rec = classify_ptm(ptm, sset)
        mirrored = classify_ptm(adjoint(ptm), sset)
        assert mirrored.category == _MIRROR[rec.category]
        assert mirrored.d_forward == rec.d_adjoint
        assert mirrored.d_adjoint == rec.d_forward


def test_adaptive_clifford_choi_is_a_stabilizer_mixture():
    """The conditioned-Hadamard channel's Choi state splits exactly into two
    equally weighted pure branches, each with a full stabilizer Pauli spectrum
    (16 entries of +-1, the rest 0), so the channel is C despite D = 2."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    big = make_adaptive(make_clifford("h"))
    phi = choi_matrix(big)
    bell = np.zeros(16, dtype=complex)
    bell[[0, 5, 10, 15]] = 0.5
    kraus = [np.kron(np.eye(2), np.diag([1.0, 0.0])).astype(complex),
             np.kron(h, np.diag([0.0, 1.0]))]
    branches = [np.kron(np.eye(4), k) @ bell for k in kraus]
    mixture = sum(np.outer(v, v.conj()) for v in branches)
    np.testing.assert_allclose(phi, mixture, atol=1e-12)
    for v in branches:
        w = v / np.linalg.norm(v)
        traces = 16.0 * coeffs_from_matrix(np.outer(w, w.conj()), 4)
        rounded = np.round(traces, 9)
        assert set(np.unique(rounded)) <= {-1.0, 0.0, 1.0}
        assert int(np.count_nonzero(rounded)) == 16


def test_classify_ptm_rejects_non_cp_maps():
    # the transpose map is positive but not completely positive
    with pytest.raises(NotCompletelyPositiveError):
        classify_ptm(PTM(np.diag([1.0, 1.0, -1.0, 1.0])))
    # the zero map has a PSD Choi matrix but no normalized Choi state
    with pytest.raises(NotCompletelyPositiveError):
        classify_ptm(PTM(np.zeros((4, 4))))


def test_projection_modes_preserve_cp_for_sampled_channels():
    # the p_lambda rescale keeps the reduced input marginal below I/2, which
    # is what lets the row/column projections stay inside the CP cone; every
    # sampled channel classifies cleanly in all four modes
    rng = np.random.default_rng(3)
    for _ in range(60):
        rho = sample_hilbert_schmidt(2, rng)
        for mode in ("general", "unital", "trace_preserving", "both"):
            rec = classify_channel(rho, mode)
            assert rec.category in CHANNEL_CATEGORIES


def test_classification_census_reproducible():
    a = classification_census(200, "general", seed=11)
    b = classification_census(200, "general", seed=11)
    assert a.counts == b.counts
    assert a.records == b.records
    assert sum(a.counts.values()) + a.invalid == 200
    assert a.invalid == 0  # unprojected samples are genuine Choi states
    assert set(a.counts) == set(CHANNEL_CATEGORIES)
    with pytest.raises(ValueError, match="mode"):
        classification_census(10, "diag", seed=0)


def test_state_census_smoke():
    counts = state_census(300, n=2, seed=5)
    assert sum(counts.values()) == 300
    assert set(counts) == set(STATE_CATEGORIES)
    assert counts == state_census(300, n=2, seed=5)


def test_csh_boundary_location():
    # frozen from a bisection against the 2q robustness LP: f* ~ 0.5468
    f = csh_boundary_f(f_tol=1e-3)
    assert abs(f - 0.5468) < 2e-3
    with pytest.raises(ValueError, match="bracket"):
        csh_boundary_f(f_low=0.9)
