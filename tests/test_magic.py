import dataclasses
import hashlib
import importlib.util
import logging
import math
from pathlib import Path

import numpy as np
import pytest

from pauliprop import magic
from pauliprop.channels import (
    PTM,
    NotCompletelyPositiveError,
    adjoint,
    adjoint_norm,
    channel_norm,
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
    ptm_from_choi,
)
from pauliprop.exact import embed_operator
from pauliprop.magic import (
    CHANNEL_CATEGORIES,
    DUAL_DENOM,
    LP_TOL,
    MODES,
    STATE_CATEGORIES,
    classification_census,
    classify_ptm,
    classify_ptms,
    classify_state,
    classify_states,
    csh_boundary_f,
    enumerate_stabilizer_states,
    project_ptm,
    robustness,
    robustness_many,
    sample_hilbert_schmidt,
    state_census,
    _min_weight,
    _split_weights,
)
from pauliprop.operators import (
    DenseOperator,
    coeffs_from_matrix,
    h_state,
    maximally_mixed,
    t_state,
    zero_state,
)


def robustness_closed_form_1q(rho: DenseOperator) -> float:
    """Octahedron geometry: R = max(1, |bx| + |by| + |bz|)."""
    bloch = rho.trace_table[1:]
    return max(1.0, float(np.abs(bloch).sum()))


def test_stabilizer_state_counts():
    assert enumerate_stabilizer_states(1).shape == (4, 6)
    assert enumerate_stabilizer_states(2).shape == (16, 60)
    with pytest.raises(ValueError):
        enumerate_stabilizer_states(3)


# (count, sha256 of the C-order int64 trace table) per qubit count
_ENUMERATION_PINS = {
    1: (6, "50e1d115d601d45595d1dee0087265c1aa39448b05d9dddac6e43bef6258e425"),
    2: (60, "90b35faa0d71e8f0ab57c1debd443dc044478874ab9f1f28bfc4a707e91f357f"),
}


@pytest.mark.parametrize("n", sorted(_ENUMERATION_PINS))
def test_stabilizer_enumeration_order_is_pinned(n):
    count, digest = _ENUMERATION_PINS[n]
    # the column order feeds the tight columns of the dual table and the NNLS
    # and LP column order, so seeded robustness values depend on it
    table = enumerate_stabilizer_states(n)
    assert table.dtype == np.int64 and table.shape == (4**n, count)
    assert hashlib.sha256(np.ascontiguousarray(table).tobytes()).hexdigest() == digest


def test_stabilizer_states_have_unit_norm_and_are_distinct():
    for n in (1, 2):
        trace = enumerate_stabilizer_states(n)
        for t in trace.T:
            op = DenseOperator.from_coeffs(t / 2**n, n)
            assert abs(op.stabilizer_norm - 1.0) < 1e-9
            assert op.is_state
        keys = {tuple(np.round(col, 9)) for col in trace.T}
        assert len(keys) == trace.shape[1]


def test_robustness_known_values():
    assert abs(robustness(zero_state()) - 1.0) < LP_TOL
    assert abs(robustness(maximally_mixed(1)) - 1.0) < LP_TOL
    assert abs(robustness(maximally_mixed(2)) - 1.0) < LP_TOL
    # both magic 1q states sit at the octahedron diagonal: R = sqrt(2)
    assert abs(robustness(h_state()) - math.sqrt(2)) < LP_TOL
    assert abs(robustness(t_state()) - math.sqrt(2)) < LP_TOL


def test_robustness_rejects_a_mixed_size_batch():
    with pytest.raises(ValueError, match="different numbers of qubits"):
        robustness_many([zero_state(), maximally_mixed(2)])
    with pytest.raises(ValueError, match="different numbers of qubits"):
        classify_states([maximally_mixed(2), zero_state()])


def test_classify_ptm_rejects_multi_qubit_channels():
    with pytest.raises(ValueError, match="single-qubit"):
        classify_ptm(make_clifford("cnot"))
    with pytest.raises(ValueError, match="single-qubit"):
        classify_ptms([make_clifford("h"), make_clifford("cz")])


def test_closed_form_matches_lp_on_random_qubit_states():
    rng = np.random.default_rng(21)
    for _ in range(200):
        rho = sample_hilbert_schmidt(1, rng)
        lp = robustness(rho)
        assert abs(lp - robustness_closed_form_1q(rho)) < 1e-6


def test_lp_solution_carries_a_duality_certificate():
    trace = enumerate_stabilizer_states(1)
    for rho in (h_state(), t_state(), zero_state()):
        res = _lp(rho)
        count = trace.shape[1]
        q = res.x[:count] - res.x[count:]
        np.testing.assert_allclose(trace @ q, rho.trace_table,
                                   atol=1e-8)
        assert np.abs(q).sum() <= res.fun + 1e-9
        y = res.eqlin.marginals
        # dual feasibility ||T^T y||_inf <= 1 plus a matching objective proves
        # the LP value is the true minimum, not just a feasible weight
        assert float(np.abs(trace.T @ y).max()) <= 1.0 + 1e-7
        assert min(abs(y @ rho.trace_table - res.fun),
                   abs(y @ rho.trace_table + res.fun)) < 1e-7


def _lp(rho):
    """The robustness LP alone, no certificates: the one _lp_values solves."""
    return _min_weight(_split_weights(rho.k), rho.trace_table)


def _oracle_values(ops):
    return np.array([_lp(op).fun for op in ops])


def _lp_category(op):
    if op.stabilizer_norm > 1 + LP_TOL:
        return "magic"
    if _lp(op).fun <= 1 + LP_TOL:
        return "stabilizer_mixture"
    return "hyper_octahedral_nonstab"


def test_batched_robustness_matches_single(monkeypatch):
    for n in (1, 2):
        rng = np.random.default_rng(40 + n)
        for length in (0, 1, 32, 33):
            ops = [sample_hilbert_schmidt(n, rng) for _ in range(length)]
            got = robustness_many(ops)
            assert got.shape == (length,)
            np.testing.assert_allclose(got, _oracle_values(ops), rtol=0, atol=1e-9)
            if n == 1:
                closed = [robustness_closed_form_1q(op) for op in ops]
                np.testing.assert_allclose(got, closed, rtol=0, atol=1e-9)
    # one state at two offsets of the same chunk, among different neighbours
    rng = np.random.default_rng(7)
    ops = [sample_hilbert_schmidt(2, rng) for _ in range(6)]
    got = robustness_many([ops[0], *ops[1:4], ops[0], *ops[4:]])
    assert abs(got[0] - got[4]) < 1e-12
    np.testing.assert_allclose(got[[0, 1, 2, 3, 5, 6]], _oracle_values(ops),
                               rtol=0, atol=1e-9)

    # the LP stage, which takes the inputs no certificate settles
    tables = np.array([op.trace_table for op in ops * 6])
    calls = []
    real_linprog = magic.linprog

    def counting(*args, **kwargs):
        calls.append(kwargs["A_eq"].shape)
        return real_linprog(*args, **kwargs)

    monkeypatch.setattr(magic, "linprog", counting)
    magic._lp_values(tables, 2)  # 36 problems: one 16 x 120 LP each
    assert calls == [(16, 120)] * 36

    class Failed:
        status, message = 2, "The problem is infeasible."

    monkeypatch.setattr(magic, "linprog", lambda *args, **kwargs: Failed())
    for length in (1, 2):
        with pytest.raises(RuntimeError, match="robustness LP failed"):
            magic._lp_values(tables[:length], 2)


def test_batched_classifiers_match_single():
    rng = np.random.default_rng(12)
    states = [sample_hilbert_schmidt(2, rng) for _ in range(40)]
    states += [DenseOperator(np.kron(np.eye(2) / 2, h_state().matrix)),
               maximally_mixed(2), DenseOperator(np.kron(t_state().matrix, t_state().matrix))]
    got = classify_states(states)
    assert got == [_lp_category(op) for op in states]
    assert got == [classify_state(op) for op in states]
    assert set(got) == set(STATE_CATEGORIES)
    assert classify_states([]) == []

    ptms = [ptm_from_choi(op.matrix) for op in states[:12]]
    ptms += [make_rotation(math.pi / 4), make_reset(h_state()),
             PTM(np.diag([1.0, 1.0, -1.0, 1.0])), make_clifford("h"),
             PTM(np.zeros((4, 4))), adjoint(make_reset(zero_state()))]
    records = classify_ptms(ptms)
    for ptm, rec in zip(ptms, records):
        try:
            table = choi_trace_table(ptm)
        except NotCompletelyPositiveError:
            assert rec is None
            with pytest.raises(NotCompletelyPositiveError):
                classify_ptm(ptm)
            continue
        r = magic._lp_values(table[None], 2)[0]
        d_fwd, d_adj = channel_norm(ptm), adjoint_norm(ptm)
        letters = "".join(letter for letter, value in (("C", r), ("S", d_fwd), ("H", d_adj))
                          if value <= 1 + LP_TOL)
        assert (rec.category, rec.d_forward, rec.d_adjoint) == (letters or "M", d_fwd, d_adj)
        assert abs(rec.robustness - r) < 1e-9
        single = classify_ptm(ptm)
        assert single.category == rec.category
        assert abs(single.robustness - rec.robustness) < 1e-9
    assert [rec is None for rec in records].count(True) == 2


def test_batched_classifiers_accept_generators():
    rng = np.random.default_rng(13)
    states = [sample_hilbert_schmidt(2, rng) for _ in range(9)]
    ptms = [ptm_from_choi(op.matrix) for op in states]
    assert classify_states(op for op in states) == classify_states(states)
    assert classify_ptms(p for p in ptms) == classify_ptms(ptms)
    assert len(classify_ptms(p for p in ptms)) == 9
    np.testing.assert_array_equal(robustness_many(op for op in states),
                                  robustness_many(states))


def test_letters_only_classification_skips_exact_values(caplog):
    ptms = [compose(make_depolarizing(f), make_rotation(theta))
            for f in (0.45, 0.6, 0.8, 1.0) for theta in (0.0, 0.3, math.pi / 4)]
    ptms.append(PTM(np.zeros((4, 4))))
    with caplog.at_level(logging.DEBUG, logger="pauliprop"):
        exact = classify_ptms(ptms)
        letters = classify_ptms(ptms, exact=False)
    assert letters == [rec and dataclasses.replace(rec, robustness=None) for rec in exact]
    full, cheap = (rec.classify for rec in caplog.records)
    with_c = sum("C" in rec.category for rec in exact if rec)
    assert 0 < with_c < full["exact_certs"] + full["lps"] == 12
    # only a channel whose best bound is at most 1 + LP_TOL is fitted
    assert cheap["exact_certs"] + cheap["lps"] == with_c


def test_uncertified_values_do_not_depend_on_the_batch(caplog):
    """An input that no certificate settles gets the same LP value, to the
    last bit, alone and in any batch."""
    rng = np.random.default_rng(61)
    open_, settled = [], []
    with caplog.at_level(logging.DEBUG, logger="pauliprop"):
        while len(open_) < 24:
            op = sample_hilbert_schmidt(2, rng)
            caplog.clear()
            value = robustness(op)
            (open_ if caplog.records[-1].classify["lps"] else settled).append((op, value))
    ops, alone = [op for op, _ in open_], [value for _, value in open_]
    assert robustness_many(ops).tolist() == alone
    assert robustness_many(ops[::-1]).tolist() == alone[::-1]
    mixed = [pair for two in zip(open_, settled) for pair in two]
    assert robustness_many(op for op, _ in mixed).tolist() == [value for _, value in mixed]


def test_one_qubit_table_settles_every_input(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("a one-qubit input reached the LP")

    monkeypatch.setattr(magic, "linprog", no_lp)
    rng = np.random.default_rng(77)
    ops = [sample_hilbert_schmidt(1, rng) for _ in range(300)]
    ops += [zero_state(), maximally_mixed(1), h_state(), t_state(),
            DenseOperator.from_coeffs([0.5, 0.5, 0.0, 0.0], 1)]
    got = robustness_many(ops)
    np.testing.assert_allclose(got, [robustness_closed_form_1q(op) for op in ops],
                               rtol=0, atol=1e-9)
    assert "hyper_octahedral_nonstab" not in classify_states(ops)


def test_dual_table_rows_are_exactly_feasible():
    data = Path(magic.__file__).parent / "data" / "stabilizer_duals_2q.txt"
    stored = np.loadtxt(data, dtype=np.int64, ndmin=2)
    assert stored.shape[1] == 16 and len(stored) > 100
    assert np.abs(stored).max() <= 127  # DUAL_DENOM * y fits int8
    assert np.abs(stored @ enumerate_stabilizer_states(2)).max() <= DUAL_DENOM
    for n in (1, 2):
        table = magic._dual_table(n)
        trace = enumerate_stabilizer_states(n)
        np.testing.assert_array_equal(table.rows[0], np.eye(4**n)[0])
        assert np.abs(table.rows @ trace).max() <= 1 + 1e-12
        tight = np.isclose(np.abs(table.rows @ trace), 1.0)
        np.testing.assert_array_equal(table.tight != 0, tight)
    assert len(magic._dual_table(1).rows) == 9


def test_dual_table_load_rejects_an_infeasible_row(monkeypatch, tmp_path):
    (tmp_path / "data").mkdir()
    row = np.zeros(16, dtype=int)
    row[[1, 4]] = DUAL_DENOM  # <y, T_s> = 2 on |++>: X on either qubit
    np.savetxt(tmp_path / "data" / "stabilizer_duals_2q.txt", [row], fmt="%d")
    monkeypatch.setattr(magic, "files", lambda package: tmp_path)
    magic._dual_table.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="not feasible"):
            magic._dual_table(2)
    finally:
        magic._dual_table.cache_clear()


@pytest.mark.slow
def test_certified_categories_match_lp_on_10k_states():
    """Categories equal the LP-only path, and no state the LP calls a
    stabilizer mixture gets a lower bound above 1 + LP_TOL."""
    rng = np.random.default_rng(2024)
    states = [sample_hilbert_schmidt(2, rng) for _ in range(10_000)]
    tables = np.array([op.trace_table for op in states])
    norms = np.array([op.stabilizer_norm for op in states])
    lp = np.full(len(states), np.inf)
    near = norms <= 1 + LP_TOL
    lp[near] = magic._lp_values(tables[near], 2)
    want = ["magic" if d > 1 + LP_TOL else
            "stabilizer_mixture" if r <= 1 + LP_TOL else "hyper_octahedral_nonstab"
            for d, r in zip(norms, lp)]
    assert classify_states(states) == want
    bounds = magic._robustness(tables, 2, exact=False)
    members = lp <= 1 + LP_TOL
    assert members.sum() > 50
    assert np.all(bounds[members] <= 1 + LP_TOL)


@pytest.mark.slow
def test_certified_values_match_lp_per_mode(caplog):
    for m, mode in enumerate(MODES):
        rng = np.random.default_rng(300 + m)
        ptms, tables = [], []
        while len(ptms) < 1000:
            ptm = project_ptm(ptm_from_choi(sample_hilbert_schmidt(2, rng).matrix), mode)
            try:
                tables.append(choi_trace_table(ptm))
            except NotCompletelyPositiveError:
                continue
            ptms.append(ptm)
        tables = np.array(tables)
        want = magic._lp_values(tables, 2)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="pauliprop"):
            got = [rec.robustness for rec in classify_ptms(ptms)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        counts = caplog.records[-1].classify
        assert counts["exact_certs"] >= 500, (mode, counts)
        bounds = magic._robustness(tables, 2, exact=False)
        assert np.all(bounds[want <= 1 + LP_TOL] <= 1 + LP_TOL)


def test_census_telemetry_is_opt_in(caplog):
    def run():
        return (classification_census(24, "trace_preserving", seed=7),
                state_census(40, n=2, seed=5))

    with caplog.at_level(logging.WARNING, logger="pauliprop"):
        quiet = run()
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="pauliprop"):
        loud = run()
    assert loud == quiet
    counts = [rec.classify for rec in caplog.records]
    assert len(counts) == 24 // 4 + 40 // 4  # one record per census block
    for c in counts:
        assert c["d_skips"] + c["bound_certs"] + c["exact_certs"] + c["lps"] == c["inputs"]
    assert sum(c["inputs"] for c in counts) == 24 + 40
    assert sum(c["d_skips"] for c in counts[6:]) == loud[1]["magic"]


def _generator():
    path = Path(__file__).resolve().parents[1] / "tools" / "make_stabilizer_duals.py"
    spec = importlib.util.spec_from_file_location("make_stabilizer_duals", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dense_generators():
    """H0, S0, H1, S1, CNOT(0->1), CNOT(1->0) as two-qubit unitaries."""
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    s = np.diag([1, 1j])
    cnot = np.eye(4)[[0, 3, 2, 1]]  # control: the 2^0 bit
    return ([embed_operator(g, (q,), 2) for q in (0, 1) for g in (h, s)]
            + [embed_operator(cnot, pair, 2) for pair in ((0, 1), (1, 0))])


def test_table_generator_steps():
    gen = _generator()
    trace = enumerate_stabilizer_states(2)
    keys = {tuple(col) for col in trace.T}
    gens = magic._clifford_generators(2)
    group = magic._orbit([np.eye(16, dtype=np.int64)], gens)
    assert len(group) == 11520
    assert np.all(np.abs(group).sum(axis=1) == 1)  # signed permutations
    for g in group[::97]:
        assert {tuple(col) for col in (g @ trace).T} == keys

    # a dual maps to g^T y: the bound it gives t equals the one y gives g t
    rng = np.random.default_rng(5)
    rho = sample_hilbert_schmidt(2, rng)
    y = gen.exact_dual(_lp(rho).eqlin.marginals)
    assert y is not None and np.abs(y @ trace).max() <= DUAL_DENOM
    for g, u in zip(gens, _dense_generators(), strict=True):
        np.testing.assert_array_equal(g, np.rint(make_unitary_ptm(u).matrix))
        moved = DenseOperator(u @ rho.matrix @ u.conj().T)
        assert abs((g.T @ y) @ rho.trace_table - y @ moved.trace_table) < 1e-9

    # the walk under the transposed generators gives each orbit {g^T y}, and
    # one walk from several rows gives the sorted union of their orbits
    stored = np.rint(magic._dual_table(2).rows[[1, -1]] * DUAL_DENOM).astype(np.int64)
    rows = [y, *stored]
    for row in rows:
        orbit = gen.orbits(row[None])
        assert len(orbit) <= 11520
        assert {tuple(r) for r in orbit} == {tuple(r) for r in np.einsum("gji,j->gi", group, row)}
    np.testing.assert_array_equal(
        gen.orbits(np.stack(rows)),
        np.unique(np.concatenate([gen.orbits(row[None]) for row in rows]), axis=0))

    # rows that are not exact multiples of 1/DUAL_DENOM, or are infeasible,
    # never enter the table
    assert gen.exact_dual(np.eye(16)[0] / 7) is None
    assert gen.exact_dual(2 * np.eye(16)[0]) is None


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
    seen = set()
    for _ in range(200):
        cat = classify_state(sample_hilbert_schmidt(1, rng))
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
        assert rho.is_state
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
    for ptm, want in cases:
        rec = classify_ptm(ptm)
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
    for _ in range(100):
        rho = sample_hilbert_schmidt(2, rng)
        ptm = ptm_from_choi(rho.matrix)
        rec = classify_ptm(ptm)
        mirrored = classify_ptm(adjoint(ptm))
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
            rec = classify_ptm(project_ptm(ptm_from_choi(rho.matrix), mode))
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


# Seeded census outputs: categories and invalid counts must match exactly,
# robustness values to 1e-9.
_CENSUS_PINS = {
    "general": (
        "M M M M M M S M M M M M S S M M M M S M S M M M",
        [1.15885028929, 1.41883419606, 1.29500305166, 1.35423907694, 1.341384854,
         1.31236030625, 1.27800924106, 1.27305852878, 1.53858079762, 1.26470473542,
         1.25344300956, 1.15672279649, 1.42736937745, 1.56357236596, 1.22437645405,
         1.44305462303, 1.14593145007, 1.20402072656, 1.42935001457, 1.32648048326,
         1.2223294653, 1.13646781821, 1.2019357495, 1.12152425914]),
    "unital": (
        "CS S S CS CS CS S CS S CS S CS S S CS CS CS CS S CS CS S CS S",
        [1.0, 1.05153703018, 1.04287111754, 1.0, 1.0, 1.0, 1.00689867631, 1.0,
         1.05740045121, 1.0, 1.00001034038, 1.0, 1.03118198015, 1.02951260851, 1.0,
         1.0, 1.0, 1.0, 1.01315270228, 1.0, 1.0, 1.00720338678, 1.0, 1.00284026814]),
    "trace_preserving": (
        "CH H H H H CH CH H H CH H CH CH CH H H CH CH CH H CH H CH M",
        [1.0, 1.09932070425, 1.0274453776, 1.04833791921, 1.03794088828, 1.0, 1.0,
         1.12730362284, 1.2102553912, 1.0, 1.05846721462, 1.0, 1.0, 1.0,
         1.03005522294, 1.06852685801, 1.0, 1.0, 1.0, 1.13464180238, 1.0,
         1.05505851293, 1.0, 1.04990929747]),
    "both": (" ".join(["CSH"] * 24), [1.0] * 24),
}


@pytest.mark.parametrize("mode", sorted(_CENSUS_PINS))
def test_seeded_channel_census_is_pinned(mode):
    res = classification_census(24, mode, seed=7)
    categories, values = _CENSUS_PINS[mode]
    assert res.invalid == 0
    assert [rec[0] for rec in res.records] == list(range(24))
    assert [rec[4] for rec in res.records] == categories.split()
    np.testing.assert_allclose([rec[3] for rec in res.records], values,
                               rtol=0, atol=1e-9)


def test_seeded_state_census_is_pinned():
    assert state_census(40, n=2, seed=5) == {
        "stabilizer_mixture": 1, "hyper_octahedral_nonstab": 19, "magic": 20}
