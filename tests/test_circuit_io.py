import json
import math

import numpy as np
import pytest

from pauliprop.channels import make_adaptive, make_clifford, make_rotation
from pauliprop.circuit_io import (
    SpecParseError,
    SpecValidationError,
    instance_to_json,
    load_circuit,
    load_instance,
    load_json,
    parse_channel,
    parse_circuit,
    parse_factor,
    parse_instance,
)
from pauliprop.exact import run_exact
from pauliprop.operators import pauli_matrix
from pauliprop.qaoa import E3Lin2Instance


def test_parse_factor_state_routes():
    qubits, op = parse_factor({"state": "plus", "qubits": [1]}, "f")
    assert qubits == (1,)
    np.testing.assert_allclose(op.matrix, np.full((2, 2), 0.5), atol=1e-12)
    _, mixed = parse_factor({"state": "maximally_mixed", "qubits": [0, 2]}, "f")
    np.testing.assert_allclose(mixed.matrix, np.eye(4) / 4)
    with pytest.raises(SpecValidationError, match=r"f\.state: acts on 1 qubit\(s\)"):
        parse_factor({"state": "H_state", "qubits": [0, 1]}, "f")
    with pytest.raises(SpecValidationError, match="unknown state"):
        parse_factor({"state": "bell", "qubits": [0]}, "f")


def test_parse_factor_pauli_ordering():
    # first listed qubit is the first character and the low base-4 digit
    _, op = parse_factor({"pauli": "XZ", "qubits": [0, 1]}, "f")
    np.testing.assert_allclose(op.matrix, pauli_matrix(1 + 3 * 4, 2))
    with pytest.raises(SpecValidationError, match="length"):
        parse_factor({"pauli": "XZ", "qubits": [0]}, "f")
    with pytest.raises(SpecValidationError, match="bad character"):
        parse_factor({"pauli": "XQ", "qubits": [0, 1]}, "f")


def test_parse_factor_matrix_route():
    y = {"matrix": [[0, [0, -1]], [[0, 1], 0]], "qubits": [0]}
    _, op = parse_factor(y, "f")
    np.testing.assert_allclose(op.matrix, pauli_matrix(2, 1))
    with pytest.raises(SpecValidationError, match="f.matrix"):
        parse_factor({"matrix": [[0, 1], [0, 0]], "qubits": [0]}, "f")
    with pytest.raises(SpecValidationError, match="does not match"):
        parse_factor({"matrix": [[1, 0], [0, 1]], "qubits": [0, 1]}, "f")
    with pytest.raises(SpecValidationError, match="re, im"):
        parse_factor({"matrix": [[1, "x"], ["x", 1]], "qubits": [0]}, "f")


def test_parse_factor_shape_errors():
    with pytest.raises(SpecValidationError, match="exactly one"):
        parse_factor({"state": "h", "pauli": "X", "qubits": [0]}, "f")
    with pytest.raises(SpecValidationError, match="exactly one"):
        parse_factor({"qubits": [0]}, "f")
    with pytest.raises(SpecValidationError, match="missing 'qubits'"):
        parse_factor({"state": "h"}, "f")
    with pytest.raises(SpecValidationError, match="repeat"):
        parse_factor({"state": "maximally_mixed", "qubits": [0, 0]}, "f")
    with pytest.raises(SpecValidationError, match="out of range"):
        parse_factor({"state": "h", "qubits": [3]}, "f", n=2)


def test_parse_channel_gates():
    app = parse_channel({"gate": "t", "qubits": [0]}, "c")
    np.testing.assert_allclose(app.ptm.matrix, make_rotation(math.pi / 4).matrix)
    app = parse_channel({"gate": "CNOT", "qubits": [1, 0]}, "c")
    assert app.qubits == (1, 0)
    with pytest.raises(SpecValidationError, match="acts on 2"):
        parse_channel({"gate": "cnot", "qubits": [0]}, "c")
    with pytest.raises(SpecValidationError, match="unknown gate"):
        parse_channel({"gate": "toffoli", "qubits": [0]}, "c")


def test_parse_channel_parametrized():
    with pytest.raises(SpecValidationError, match="finite"):
        parse_channel({"rotation": float("nan"), "qubits": [0]}, "c")
    with pytest.raises(SpecValidationError, match="fidelity"):
        parse_channel({"depolarize": 1.4, "qubits": [0]}, "c")
    with pytest.raises(SpecValidationError, match="empty object"):
        parse_channel({"measure_z": True, "qubits": [0]}, "c")
    app = parse_channel({"measure_z": {}, "qubits": [2]}, "c")
    np.testing.assert_allclose(app.ptm.matrix, np.diag([1.0, 0, 0, 1.0]))


def test_parse_channel_reset_defaults_inner_qubits():
    app = parse_channel({"reset": {"state": "H_state"}, "qubits": [1]}, "c")
    got = app.ptm.matrix[:, 0]
    assert abs(got[1] - math.sqrt(0.5)) < 1e-12
    with pytest.raises(SpecValidationError, match="valid density matrix"):
        parse_channel({"reset": {"pauli": "X"}, "qubits": [0]}, "c")


def test_parse_channel_adaptive_recursion():
    app = parse_channel({"adaptive": {"gate": "h"}, "qubits": [0, 1]}, "c")
    np.testing.assert_allclose(app.ptm.matrix,
                               make_adaptive(make_clifford("h")).matrix)
    with pytest.raises(SpecValidationError, match="control plus"):
        parse_channel({"adaptive": {"gate": "h"}, "qubits": [0]}, "c")
    with pytest.raises(SpecValidationError, match="exactly one"):
        parse_channel({"adaptive": {}, "qubits": [0, 1]}, "c")


def test_parse_channel_explicit_ptm():
    rot = make_rotation(0.3).matrix.tolist()
    app = parse_channel({"ptm": rot, "qubits": [0]}, "c")
    np.testing.assert_allclose(app.ptm.matrix, make_rotation(0.3).matrix)
    with pytest.raises(SpecValidationError, match="Choi eigenvalue"):
        parse_channel({"ptm": np.diag([1.0, 1, -1, 1]).tolist(), "qubits": [0]}, "c")
    with pytest.raises(SpecValidationError, match="real"):
        parse_channel({"ptm": [[[0, 1]] * 4] * 4, "qubits": [0]}, "c")


def sample_circuit_obj():
    return {
        "n": 2,
        "input": [{"state": "plus", "qubits": [0]},
                  {"state": "zero", "qubits": [1]}],
        "channels": [{"gate": "cnot", "qubits": [0, 1]},
                     {"rotation": 0.785398, "qubits": [1]},
                     {"depolarize": 0.9, "qubits": [0]}],
        "observable": [{"pauli": "ZZ", "qubits": [0, 1]}],
    }


def test_parse_circuit_round_trip():
    circ = parse_circuit(sample_circuit_obj())
    assert circ.n == 2
    assert len(circ.channels) == 3
    # the parsed circuit is a real circuit: the oracle accepts it
    val = run_exact(circ)
    assert -1.0 <= val <= 1.0


def test_parse_circuit_errors_name_the_path():
    obj = sample_circuit_obj()
    del obj["observable"]
    with pytest.raises(SpecValidationError, match="missing 'observable'"):
        parse_circuit(obj)
    obj = sample_circuit_obj()
    obj["channels"][1]["qubits"] = [5]
    with pytest.raises(SpecValidationError, match=r"channels\[1\].qubits"):
        parse_circuit(obj)
    obj = sample_circuit_obj()
    obj["input"][1]["qubits"] = [0]
    with pytest.raises(SpecValidationError, match=r"input\[1\]"):
        parse_circuit(obj)  # overlapping input factors
    with pytest.raises(SpecValidationError, match="positive integer"):
        parse_circuit({"n": "two", "input": [], "channels": [], "observable": []})


def test_load_json_and_circuit(tmp_path):
    good = tmp_path / "c.json"
    good.write_text(json.dumps(sample_circuit_obj()))
    assert load_circuit(str(good)).n == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(SpecParseError, match="bad.json"):
        load_json(str(bad))


def test_instance_json_round_trip(tmp_path):
    inst = E3Lin2Instance(7, 3, [(0, 1, 2, 0), (3, 4, 5, 1), (2, 3, 6, 0)])
    obj = instance_to_json(inst)
    assert parse_instance(obj) == inst
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    assert load_instance(str(path)) == inst
    obj["m"] = 5
    with pytest.raises(SpecValidationError, match="does not match"):
        parse_instance(obj)
    with pytest.raises(SpecValidationError, match=r"equations\[0\]"):
        parse_instance({"n": 4, "equations": [[0, 1, 2]]})
    with pytest.raises(SpecValidationError, match=r"instance\.equations\[1\]"):
        parse_instance({"n": 3, "equations": [[0, 1, 2, 0], [0, 1, 2, 1]]})
