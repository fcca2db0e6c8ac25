import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pauliprop import channels, cli, qaoa
from pauliprop.channels import choi_matrix, postselection_probability, ptm_from_choi
from pauliprop.magic import CHANNEL_CATEGORIES, STATE_CATEGORIES, sample_hilbert_schmidt
from pauliprop.propagation import DIRECTIONS


def circuit_obj():
    return {
        "n": 2,
        "input": [{"state": "plus", "qubits": [0]},
                  {"state": "zero", "qubits": [1]}],
        "channels": [{"gate": "h", "qubits": [0]},
                     {"gate": "cnot", "qubits": [0, 1]},
                     {"rotation": 0.5, "qubits": [1]},
                     {"depolarize": 0.9, "qubits": [0]}],
        "observable": [{"pauli": "ZZ", "qubits": [0, 1]}],
    }


def write_circuit(tmp_path, obj, name="circ.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_estimate_both_directions(tmp_path, capsys):
    path = write_circuit(tmp_path, circuit_obj())
    code, rep = run_json(capsys, [
        "estimate", "--circuit", path, "--direction", "both",
        "--samples", "2000", "--seed", "1",
    ])
    assert code == 0
    assert set(rep) == {"schrodinger", "heisenberg", "discrepancy"}
    assert rep["discrepancy"] == pytest.approx(
        abs(rep["schrodinger"]["mean"] - rep["heisenberg"]["mean"]))
    assert rep["heisenberg"]["n_samples"] == 2000
    assert rep["heisenberg"]["cost"]["total_bound"] > 0


def test_estimate_epsilon_planning(tmp_path, capsys):
    path = write_circuit(tmp_path, circuit_obj())
    code, rep = run_json(capsys, [
        "estimate", "--circuit", path, "--direction", "heisenberg",
        "--epsilon", "0.5", "--seed", "1",
    ])
    assert code == 0
    assert rep["epsilon"] <= 0.5
    assert rep["n_samples"] >= 1


def test_verify_passes_and_writes_output(tmp_path, capsys):
    path = write_circuit(tmp_path, circuit_obj())
    out_file = tmp_path / "report.json"
    code = cli.main([
        "verify", "--circuit", path, "--samples", "4000", "--seed", "2",
        "--output", str(out_file),
    ])
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert rep["passed"] is True
    for d in ("schrodinger", "heisenberg"):
        assert rep[d]["passed"] is True
        assert rep[d]["abs_diff"] <= rep[d]["epsilon"]
    assert isinstance(rep["oracle"], float)


def test_parse_failure_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code = cli.main(["estimate", "--circuit", str(bad), "--samples", "10",
                     "--seed", "0"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "parse"


def test_validation_failure_is_exit_3(tmp_path, capsys):
    obj = circuit_obj()
    obj["input"][0]["state"] = "bell"
    path = write_circuit(tmp_path, obj)
    code = cli.main(["estimate", "--circuit", path, "--samples", "10",
                     "--seed", "0"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"
    code = cli.main(["qaoa", "--gamma", "0.1", "--samples", "10", "--seed", "0"])
    assert code == 3  # neither --instance nor --n/--m
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"


def _set(obj, path, value):
    *keys, last = path
    for key in keys:
        obj = obj[key]
    obj[last] = value


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("where,value,named", [
    (("input", 0), {"matrix": [[NAN, 0], [0, 1]], "qubits": [0]}, "input[0].matrix[0][0]"),
    (("input", 0), {"matrix": [[True, 0], [0, 0]], "qubits": [0]}, "input[0].matrix[0][0]"),
    (("observable", 0),
     {"matrix": [[1, 0, 0, 0], [0, [0, -INF], 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
      "qubits": [0, 1]}, "observable[0].matrix[1][1]"),
    (("channels", 2), {"ptm": [[1, 0, 0, 0], [0, NAN, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                       "qubits": [1]}, "channels[2].ptm[1][1]"),
    (("channels", 2, "rotation"), NAN, "channels[2].rotation"),
    (("channels", 2, "rotation"), -INF, "channels[2].rotation"),
    (("channels", 2, "rotation"), True, "channels[2].rotation"),
    (("channels", 3, "depolarize"), True, "channels[3].depolarize"),
    (("channels", 3, "depolarize"), NAN, "channels[3].depolarize"),
    (("channels", 0, "qubits"), [False], "channels[0].qubits"),
    (("n",), True, "circuit.n"),
])
def test_non_finite_or_boolean_number_is_exit_3(tmp_path, capsys, where, value, named):
    obj = circuit_obj()
    _set(obj, where, value)
    path = write_circuit(tmp_path, obj)  # json.dumps writes NaN and Infinity
    code = cli.main(["estimate", "--circuit", path, "--samples", "10", "--seed", "0"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"
    assert err["error"]["message"].startswith(named + ":")


@pytest.mark.parametrize("obj,named", [
    ({"n": True, "equations": [[0, 1, 2, 0]]}, "instance.n"),
    ({"n": 3, "equations": [[0, 1, 2, True]]}, "instance.equations[0]"),
    ({"n": 3, "equations": [[0, 1, NAN, 0]]}, "instance.equations[0]"),
    ({"n": 3, "m": True, "equations": [[0, 1, 2, 0]]}, "instance.m"),
    # rules E3Lin2Instance enforces, named at the equation it rejects
    ({"n": 4, "equations": [[0, 1, 2, 3]]}, "instance.equations[0]"),
    ({"n": 4, "equations": [[2, 1, 0, 0]]}, "instance.equations[0]"),
    ({"n": 4, "equations": [[0, 1, 2, 0], [0, 1, 2, 1]]}, "instance.equations[1]"),
])
def test_non_integer_instance_entry_is_exit_3(tmp_path, capsys, obj, named):
    path = write_circuit(tmp_path, obj, "inst.json")
    code = cli.main(["qaoa", "--instance", path, "--gamma", "0.1", "--samples", "10",
                     "--seed", "0"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["message"].startswith(named + ":")


@pytest.mark.parametrize("key,factors,named", [
    ("input", [{"state": "plus", "qubits": [0]}], "input"),
    ("observable", [{"pauli": "Z", "qubits": [0]}], "observable"),
    ("observable", [{"pauli": "II", "qubits": [0, 1]}, {"pauli": "Z", "qubits": [1]}],
     "observable[1]"),
    ("input", [{"matrix": [[1, 0], [0, -1]], "qubits": [0]}, {"state": "zero", "qubits": [1]}],
     "input[0]"),
])
def test_factored_state_error_names_the_path(tmp_path, capsys, key, factors, named):
    # register coverage, overlap and "is a state" are FactoredState's rules
    obj = circuit_obj()
    obj[key] = factors
    code = cli.main(["estimate", "--circuit", write_circuit(tmp_path, obj),
                     "--samples", "10", "--seed", "0"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["message"].startswith(named + ":")


@pytest.mark.parametrize("factor", [
    {"pauli": "ZZZZ", "qubits": [0, 1, 2, 3]},
    {"state": "maximally_mixed", "qubits": [3, 1, 0, 2]},
    {"matrix": np.eye(16).tolist(), "qubits": [0, 1, 2, 3]},
])
def test_factor_on_four_qubits_is_exit_3(tmp_path, capsys, factor):
    obj = {"n": 4, "input": [{"state": "maximally_mixed", "qubits": [0, 1, 2]},
                             {"state": "zero", "qubits": [3]}],
           "channels": [], "observable": [factor]}
    code = cli.main(["estimate", "--circuit", write_circuit(tmp_path, obj),
                     "--samples", "10", "--seed", "0"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["message"] == "observable[0].qubits: a factor acts on at most 3 qubits"


@pytest.mark.parametrize("argv", [
    ["estimate", "--samples", "100", "--delta", "0"],
    ["estimate", "--samples", "100", "--delta", "1.5"],
    ["estimate", "--samples", "100", "--delta", "nan"],
    ["estimate", "--epsilon", "0.1", "--delta", "0"],
    ["qaoa", "--n", "8", "--m", "10", "--gamma", "0.3", "--samples", "100",
     "--delta", "0"],
    # 2 / delta overflows: the epsilon was Infinity, the planned count a crash
    ["estimate", "--samples", "100", "--delta", "1e-320"],
    ["verify", "--epsilon", "0.1", "--delta", "1e-320"],
    ["qaoa", "--n", "8", "--m", "10", "--gamma", "0.3", "--samples", "100",
     "--delta", "1e-320"],
])
def test_bad_delta_is_exit_3(tmp_path, capsys, argv):
    if argv[0] != "qaoa":
        argv = argv + ["--circuit", write_circuit(tmp_path, circuit_obj())]
    code = cli.main(argv + ["--seed", "1"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["type"] == "validation"
    assert "delta" in err["error"]["message"]


@pytest.mark.parametrize("command", ["estimate", "verify"])
@pytest.mark.parametrize("gates,epsilon", [
    (0, "1e-200"),  # epsilon**2 underflows to 0
    (1100, "0.1"),  # the cost bound, about 3.7e165, overflows when squared
])
def test_sample_count_past_the_float_range_is_exit_3(tmp_path, capsys, command, gates,
                                                     epsilon):
    obj = {"n": 1, "input": [{"state": "zero", "qubits": [0]}],
           "channels": [{"gate": "t", "qubits": [0]}] * gates,
           "observable": [{"pauli": "X", "qubits": [0]}]}
    code = cli.main([command, "--circuit", write_circuit(tmp_path, obj), "--direction",
                     "heisenberg", "--epsilon", epsilon, "--seed", "1"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["type"] == "validation"
    assert "not finite" in err["error"]["message"]


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize("command", [
    ["census", "--samples", "20"],
    ["figures", "--which", "fig2", "--samples", "20"],
])
def test_bad_worker_count_is_exit_3(tmp_path, capsys, command, workers):
    out = tmp_path / "out.csv"
    code = cli.main(command + ["--seed", "1", "--workers", workers, "--out", str(out)])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"
    assert "workers" in err["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["census", "--samples", "-3"],
    ["figures", "--which", "fig2", "--samples", "-5"],
])
def test_negative_sample_count_is_exit_3(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    code = cli.main(command + ["--seed", "1", "--out", str(out)])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"
    assert "sample count" in err["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize("which", ["fig2", "fig5", "fig6"])
def test_figures_zero_samples_is_exit_3(tmp_path, capsys, which):
    out = tmp_path / "out.csv"
    code = cli.main(["figures", "--which", which, "--samples", "0", "--seed", "1",
                     "--out", str(out)])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"
    assert "sample count must be an integer of at least 1, got 0" in err["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_figures_grid_below_one_is_exit_3(tmp_path, capsys, grid):
    out = tmp_path / "out.csv"
    code = cli.main(["figures", "--which", "fig1", "--grid", grid, "--seed", "1",
                     "--out", str(out)])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"
    assert f"--grid must be at least 1, got {grid}" in err["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize("seed", [str(-1), str(2**64)])
def test_seed_out_of_range_is_exit_3(tmp_path, capsys, seed):
    path = write_circuit(tmp_path, circuit_obj())
    code = cli.main(["estimate", "--circuit", path, "--samples", "10", "--seed", seed])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"
    assert "seed" in err["error"]["message"]


def test_bound_overflow_is_exit_4(tmp_path, capsys):
    obj = {
        "n": 1,
        "input": [{"state": "zero", "qubits": [0]}],
        "channels": [{"reset": {"state": "T_state"}, "qubits": [0]}] * 800,
        "observable": [{"pauli": "Z", "qubits": [0]}],
    }
    path = write_circuit(tmp_path, obj)
    code = cli.main(["estimate", "--circuit", path, "--direction", "schrodinger",
                     "--samples", "10", "--seed", "0"])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "bound_overflow"


def test_oracle_cap_is_exit_5(tmp_path, capsys):
    n = 9
    obj = {
        "n": n,
        "input": [{"state": "zero", "qubits": [q]} for q in range(n)],
        "channels": [{"gate": "h", "qubits": [0]}],
        "observable": [{"pauli": "ZZZ", "qubits": [3 * b, 3 * b + 1, 3 * b + 2]}
                       for b in range(3)],
    }
    path = write_circuit(tmp_path, obj)
    code = cli.main(["verify", "--circuit", path, "--samples", "10",
                     "--seed", "0"])
    assert code == 5
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "oracle_too_large"


def _io_argv(tmp_path, where):
    """A run whose `where` path is missing: a file that is not there, or one
    to write in a folder that is not there."""
    missing = str(tmp_path / "nope" / "x.json")
    circuit = write_circuit(tmp_path, circuit_obj())
    spec = tmp_path / "spec.json"
    spec.write_text('{"gate": "h", "qubits": [0]}')
    qaoa_run = ["qaoa", "--gamma", "0.3", "--samples", "20", "--seed", "1"]
    return {
        "estimate --circuit": ["estimate", "--circuit", missing, "--samples", "10",
                               "--seed", "1"],
        "verify --circuit": ["verify", "--circuit", missing, "--samples", "10",
                             "--seed", "1"],
        "estimate --output": ["estimate", "--circuit", circuit, "--samples", "10",
                              "--seed", "1", "--output", missing],
        "classify-channel --spec-file": ["classify-channel", "--spec-file", missing],
        "norms --spec-file": ["norms", "--spec-file", missing],
        "norms --output": ["norms", "--spec-file", str(spec), "--output", missing],
        "qaoa --instance": qaoa_run + ["--instance", missing],
        "qaoa --save-instance": qaoa_run + ["--n", "8", "--m", "10",
                                            "--save-instance", missing],
        "census --out": ["census", "--samples", "5", "--seed", "1", "--out", missing],
        "figures --out": ["figures", "--which", "fig1", "--grid", "3", "--seed", "1",
                          "--out", missing],
    }[where]


@pytest.mark.parametrize("where", [
    "estimate --circuit", "verify --circuit", "estimate --output",
    "classify-channel --spec-file", "norms --spec-file", "norms --output",
    "qaoa --instance", "qaoa --save-instance", "census --out", "figures --out",
])
def test_missing_file_is_exit_6(tmp_path, capsys, where):
    code = cli.main(_io_argv(tmp_path, where))
    assert code == cli.EXIT_IO == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["type"] == "io"
    assert str(tmp_path / "nope" / "x.json") in err["error"]["message"]


def _refuse_sampling(monkeypatch):
    """Make every sampler the CLI calls fail the test if it is reached."""
    def sampler(*args, **kwargs):
        raise AssertionError("sampling started")
    monkeypatch.setattr(cli, "estimate", sampler)
    for name in ("state_census", "classification_census"):
        monkeypatch.setattr(cli.magic, name, sampler)
    monkeypatch.setattr(cli.qaoa, "run_experiment", sampler)


@pytest.mark.parametrize("command", [
    ["estimate", "--direction", "both"],
    ["verify"],
    ["qaoa", "--n", "8", "--m", "10", "--gamma", "0.3"],
    ["census"],
    ["figures", "--which", "fig2"],
    ["figures", "--which", "fig5"],
    ["figures", "--which", "fig6"],
])
def test_sample_count_over_the_cap_is_exit_7(tmp_path, capsys, monkeypatch, command):
    _refuse_sampling(monkeypatch)
    argv = command + ["--seed", "1"]
    if command[0] in ("estimate", "verify"):
        argv += ["--circuit", write_circuit(tmp_path, circuit_obj())]
    if command[0] == "figures":
        argv += ["--out", str(tmp_path / "out.csv")]
    code = cli.main(argv + ["--samples", str(cli.MAX_SAMPLES + 1)])
    assert code == cli.EXIT_BUDGET == 7
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["type"] == "sample_budget"
    assert str(cli.MAX_SAMPLES + 1) in err["error"]["message"]
    assert not (tmp_path / "out.csv").exists()
    # the cap itself is allowed
    with pytest.raises(AssertionError, match="sampling started"):
        cli.main(argv + ["--samples", str(cli.MAX_SAMPLES)])


@pytest.mark.parametrize("command", ["estimate", "verify"])
def test_planned_sample_count_over_the_cap_is_exit_7(tmp_path, capsys, monkeypatch,
                                                     command):
    # planned counts are checked for both directions before either samples
    path = write_circuit(tmp_path, circuit_obj())
    circuit = cli.load_circuit(path)
    planned = [cli.plan_samples(circuit, d, 1e-7, 0.01) for d in DIRECTIONS]
    assert min(planned) > cli.MAX_SAMPLES  # the library plans past the cap
    _refuse_sampling(monkeypatch)
    code = cli.main([command, "--circuit", path, "--direction", "both",
                     "--epsilon", "1e-7", "--seed", "1"])
    assert code == 7
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "sample_budget"
    assert str(planned[0]) in err["error"]["message"]


def read_csv_lines(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# pauliprop ")
    return lines


def test_figures_fig1_grid(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    code = cli.main(["figures", "--which", "fig1", "--grid", "5",
                     "--out", str(out), "--seed", "0"])
    assert code == 0
    lines = read_csv_lines(out)
    assert lines[1] == "x,y,category"
    assert len(lines) == 2 + 25
    cats = {line.split(",")[2] for line in lines[2:]}
    assert cats <= set(STATE_CATEGORIES) | {"not_a_state"}
    assert "not_a_state" in cats  # corners of the slice leave the state set


def test_figures_fig2_reruns_identically(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert cli.main(["figures", "--which", "fig2", "--samples", "300",
                         "--out", str(out), "--seed", "9"]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = read_csv_lines(a)
    counts = {row.split(",")[0]: int(row.split(",")[1]) for row in lines[2:]}
    assert sum(counts.values()) == 300
    assert set(counts) == set(STATE_CATEGORIES)


def test_figures_fig3_boundaries(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    assert cli.main(["figures", "--which", "fig3", "--out", str(out),
                     "--seed", "0"]) == 0
    lines = read_csv_lines(out)
    assert lines[1].split(",") == ["f", "theta", "d_forward", "d_adjoint",
                                   "category", "diamond_f"]
    assert len(lines) == 2 + 25 * 31
    cats = {line.split(",")[4] for line in lines[2:]}
    assert "CSH" in cats and "SH" in cats


# fig1 --grid 21, one string per x value: s = stabilizer mixture,
# h = hyper-octahedral non-stabilizer, m = magic, - = not a state
_FIG1_GRID_21 = [
    "---------------------",
    "---------------------",
    "---------------------",
    "---------------------",
    "---------------------",
    "---------------------",
    "---------------------",
    "---------------------",
    "--------hsssh--------",
    "-------hsssssh-------",
    "------sssssssss------",
    "------hsssssssh------",
    "------hsssssssh------",
    "------hhssssshh------",
    "------hhssssshh------",
    "------hhhssshhh------",
    "-------hhssshh-------",
    "-------mhhshhm-------",
    "---------msm---------",
    "---------------------",
    "---------------------",
]
_FIG1_CODES = {"stabilizer_mixture": "s", "hyper_octahedral_nonstab": "h",
               "magic": "m", "not_a_state": "-"}


def test_fig1_grid_21_is_pinned():
    _, rows = cli._fig1_rows(21)
    cats = "".join(_FIG1_CODES[row[2]] for row in rows)
    assert [cats[i:i + 21] for i in range(0, 21 * 21, 21)] == _FIG1_GRID_21


def test_fig1_checks_each_grid_point_once(monkeypatch):
    calls = []
    real = np.linalg.eigvalsh

    def eigvalsh(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    cli._fig1_rows(41)
    assert len(calls) == 41 * 41


# fig3 category column: for each of the 25 angles, the 31 fidelities run
# through CSH, then SH, then M; the pin is (#CSH, #SH, #M) per angle
_FIG3_RUNS = [
    (31, 0, 0), (25, 3, 3), (21, 4, 6), (17, 6, 8), (15, 6, 10), (13, 7, 11),
    (11, 8, 12), (10, 8, 13), (9, 8, 14), (9, 8, 14), (8, 8, 15), (8, 8, 15),
    (8, 8, 15), (8, 8, 15), (8, 8, 15), (9, 8, 14), (9, 8, 14), (10, 8, 13),
    (11, 8, 12), (13, 7, 11), (15, 6, 10), (17, 6, 8), (21, 4, 6), (25, 3, 3),
    (31, 0, 0),
]


def test_fig3_category_column_is_pinned():
    _, rows = cli._fig3_rows(1)
    want = [cat for csh, sh, m in _FIG3_RUNS
            for cat in ["CSH"] * csh + ["SH"] * sh + ["M"] * m]
    assert [row[4] for row in rows] == want


def test_figures_fig5_modes(tmp_path, capsys):
    out = tmp_path / "fig5.csv"
    assert cli.main(["figures", "--which", "fig5", "--samples", "40",
                     "--out", str(out), "--seed", "4"]) == 0
    lines = read_csv_lines(out)
    assert len(lines) == 2 + 4 * (len(CHANNEL_CATEGORIES) + 1)
    for mode in ("general", "unital", "trace_preserving", "both"):
        rows = [l for l in lines[2:] if l.startswith(mode + ",")]
        assert sum(int(r.split(",")[2]) for r in rows) == 40


def qaoa_record_keys():
    """The fields of a qaoa.run_experiment record, in its order."""
    inst = qaoa.generate_instance(8, 10, np.random.default_rng(0))
    return list(qaoa.run_experiment(inst, qaoa.QaoaParams(gamma=0.1), 1))


def test_figures_fig6_small(tmp_path, capsys):
    out = tmp_path / "fig6.csv"
    assert cli.main(["figures", "--which", "fig6", "--samples", "100",
                     "--out", str(out), "--seed", "3"]) == 0
    lines = read_csv_lines(out)
    assert lines[1].split(",") == qaoa_record_keys()
    assert "eps_heis_engine" in lines[1].split(",")
    assert len(lines) == 2 + 9


def test_qaoa_save_and_reload_instance(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    code, rec1 = run_json(capsys, [
        "qaoa", "--n", "8", "--m", "10", "--gamma", "0.3926990816987241",
        "--samples", "500", "--seed", "5", "--save-instance", str(inst_path),
    ])
    assert code == 0
    assert rec1["n"] == 8 and rec1["m"] == 10
    assert rec1["abs_err"] <= rec1["eps_heis_engine"] + rec1["eps_nest"]
    code, rec2 = run_json(capsys, [
        "qaoa", "--instance", str(inst_path), "--gamma", "0.3926990816987241",
        "--samples", "500", "--seed", "5",
    ])
    assert code == 0
    assert rec2["C_heis"] == rec1["C_heis"]
    assert rec2["C_vdn"] == rec1["C_vdn"]


def test_qaoa_csv_stable_modulo_timing(tmp_path, capsys):
    argv = ["qaoa", "--n", "8", "--m", "10", "--gamma", "0.2", "--samples",
            "200", "--seed", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(a)]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert cli.main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    la, lb = read_csv_lines(a), read_csv_lines(b)
    assert la[:2] == lb[:2]
    # final column is wall time; everything else must be bit-identical
    assert la[2].rsplit(",", 1)[0] == lb[2].rsplit(",", 1)[0]
    # the row is the JSON record, every field in run_experiment's order
    header, row = la[1].split(","), la[2].split(",")
    assert header == qaoa_record_keys() and sorted(header) == sorted(rec)
    assert "eps_heis_engine" in header and header[-1] == "seconds"
    for key, text in zip(header[:-1], row):
        assert float(text) == pytest.approx(rec[key], rel=1e-11)


def test_census_counts_and_records(tmp_path, capsys):
    out = tmp_path / "census.csv"
    code, rep = run_json(capsys, [
        "census", "--samples", "60", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    assert sum(rep["counts"].values()) + rep["invalid"] == 60
    assert rep["mode"] == "general"
    lines = read_csv_lines(out)
    assert len(lines) == 2 + 60 - rep["invalid"]
    again = tmp_path / "census2.csv"
    code2, rep2 = run_json(capsys, [
        "census", "--samples", "60", "--seed", "3", "--out", str(again),
    ])
    assert rep2["counts"] == rep["counts"]
    assert out.read_bytes() == again.read_bytes()


def test_classify_channel_examples(capsys):
    code, rep = run_json(capsys, [
        "classify-channel", "--spec", '{"gate": "t", "qubits": [0]}',
    ])
    assert code == 0
    assert rep["category"] == "M"
    code, rep = run_json(capsys, [
        "classify-channel", "--spec",
        '{"reset": {"state": "zero"}, "qubits": [0]}',
    ])
    assert rep["category"] == "CH"
    code, rep = run_json(capsys, [
        "classify-channel", "--spec", '{"gate": "h", "qubits": [0]}',
    ])
    assert code == 0
    assert rep["category"] == "CSH"
    code = cli.main(["classify-channel", "--spec",
                     '{"gate": "cnot", "qubits": [0, 1]}'])
    assert code == 3  # two-qubit channels have no 2q-Choi classification
    capsys.readouterr()
    code = cli.main(["classify-channel", "--spec", "{not json"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "parse"


def test_norms_report(capsys):
    code, rep = run_json(capsys, [
        "norms", "--spec", '{"rotation": 0.7853981633974483, "qubits": [0]}',
    ])
    assert code == 0
    assert rep["k"] == 1
    assert rep["d_forward"] == pytest.approx(math.sqrt(2), abs=1e-12)
    assert rep["d_adjoint"] == pytest.approx(math.sqrt(2), abs=1e-12)
    assert rep["p_lambda"] == pytest.approx(1.0, abs=1e-9)
    assert rep["robustness"] > 1.0
    code, rep = run_json(capsys, [
        "norms", "--spec", '{"gate": "cnot", "qubits": [0, 1]}',
    ])
    assert rep["k"] == 2
    assert rep["robustness"] is None
    assert rep["d_forward"] == pytest.approx(1.0, abs=1e-12)


def test_norms_and_classify_channel_report_one_robustness(capsys):
    rng = np.random.default_rng(16)
    for _ in range(300):
        ptm = ptm_from_choi(sample_hilbert_schmidt(2, rng).matrix)
        spec = json.dumps({"ptm": ptm.matrix.tolist(), "qubits": [0]})
        code, norms = run_json(capsys, ["norms", "--spec", spec])
        assert code == 0
        code, classified = run_json(capsys, ["classify-channel", "--spec", spec])
        assert code == 0 and norms["robustness"] == classified["robustness"]
        # p_lambda of choi_matrix over its trace
        phi = choi_matrix(ptm)
        assert norms["p_lambda"] == postselection_probability(phi / np.trace(phi).real, 1)


@pytest.mark.parametrize("rows, message", [
    ([[0.0] * 4] * 4, "channel annihilates the Bell state; no Choi state"),
    (np.diag([1.0, 1.0, -1.0, 1.0]).tolist(),
     "channel.ptm: Choi eigenvalue -5.00e-01 below -1e-08"),
])
def test_norms_refuses_a_channel_with_no_choi_state(capsys, rows, message):
    code = cli.main(["norms", "--spec", json.dumps({"ptm": rows, "qubits": [0]})])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"]["message"] == message


@pytest.mark.parametrize("k", [1, 2])
def test_norms_checks_the_parsed_choi_matrix_once(capsys, monkeypatch, k):
    # parsing checks the Choi matrix once; norms itself checks it once more
    depolarizing = np.diag([1.0, 0.5, 0.5, 0.5])
    rows = depolarizing if k == 1 else np.kron(depolarizing, depolarizing)
    argv = ["norms", "--spec", json.dumps({"ptm": rows.tolist(), "qubits": list(range(k))})]
    assert cli.main(argv) == 0  # builds the one-time tables
    capsys.readouterr()
    calls = []
    check_psd, load = channels._check_psd, cli._load_channel_spec

    def counted_check(*a):
        calls.append(a)
        check_psd(*a)

    def load_then_count(args):
        app = load(args)
        calls.clear()
        return app

    monkeypatch.setattr(channels, "_check_psd", counted_check)
    monkeypatch.setattr(cli, "_load_channel_spec", load_then_count)
    code, rep = run_json(capsys, argv)
    assert code == 0 and rep["k"] == k
    assert len(calls) == 1


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    exec(compile(block, "README.md", "exec"), {})
    mean, _, epsilon, _, exact = capsys.readouterr().out.split()
    assert abs(float(mean) - float(exact)) <= float(epsilon)
    lines = re.findall(r"^pauliprop (?:classify-channel|norms) .*$", text, re.M)
    assert len(lines) == 2
    for line in lines:
        code, rep = run_json(capsys, shlex.split(line)[1:])
        assert code == 0 and "d_forward" in rep
    # the circuit file, then the estimate and verify lines that read it
    (circuit,) = re.findall(r"```json\n(.*?)```", text, re.S)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "circ.json").write_text(circuit)
    (estimate,) = re.findall(r"^pauliprop estimate .*$", text, re.M)
    code, rep = run_json(capsys, shlex.split(estimate)[1:])
    assert code == 0 and set(rep) == {"schrodinger", "heisenberg", "discrepancy"}
    (verify,) = re.findall(r"^pauliprop verify .*$", text, re.M)
    code, rep = run_json(capsys, shlex.split(verify)[1:])
    assert code == 0 and rep["passed"]


def test_readme_cli_lines_parse():
    # every command line of README's CLI block, with its continuations joined
    (block,) = re.findall(r"^## CLI\n.*?```\n(.*?)```", README.read_text(), re.S | re.M)
    lines = re.findall(r"^pauliprop .*$", block.replace("\\\n", ""), re.M)
    assert len(lines) == 7
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_argparse_contracts(capsys):
    with pytest.raises(SystemExit):
        cli.main(["estimate", "--circuit", "x.json", "--seed", "0"])  # no N/eps
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli.main(["estimate", "--circuit", "x.json", "--samples", "5",
                  "--epsilon", "0.1", "--seed", "0"])  # mutually exclusive
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli.main(["figures", "--which", "fig9", "--out", "o.csv", "--seed", "0"])
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    capsys.readouterr()


# every settable option of each subcommand; adding or dropping a flag is an
# edit of this table
SUBCOMMAND_OPTIONS = {
    "estimate": {"--circuit", "--direction", "--samples", "--epsilon", "--delta",
                 "--seed", "--workers", "--output"},
    "verify": {"--circuit", "--direction", "--samples", "--epsilon", "--delta",
               "--seed", "--workers", "--output"},
    "figures": {"--which", "--out", "--samples", "--grid", "--seed", "--workers"},
    "qaoa": {"--n", "--m", "--instance", "--save-instance", "--gamma", "--beta",
             "--samples", "--delta", "--out", "--seed", "--workers", "--output"},
    "census": {"--samples", "--mode", "--out", "--seed", "--workers", "--output"},
    "classify-channel": {"--spec", "--spec-file", "--mode", "--output"},
    "norms": {"--spec", "--spec-file", "--output"},
}


def test_subcommand_options_are_pinned():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {opt for action in p._actions for opt in action.option_strings}
        - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert got == SUBCOMMAND_OPTIONS


@pytest.mark.parametrize("argv", [
    # figures writes only its CSV, so it takes no JSON report path
    ["figures", "--which", "fig1", "--grid", "5", "--out", "f.csv", "--seed", "3",
     "--output", "r.json"],
    # every term walks its lightcone
    ["qaoa", "--n", "8", "--m", "10", "--gamma", "0.2", "--samples", "10",
     "--seed", "1", "--out", "q.csv", "--no-lightcone"],
    # a single channel's classification and norms draw no random numbers
    ["classify-channel", "--spec", '{"gate": "h", "qubits": [0]}', "--seed", "0",
     "--output", "r.json"],
    ["classify-channel", "--spec", '{"gate": "h", "qubits": [0]}', "--workers", "2",
     "--output", "r.json"],
    ["norms", "--spec", '{"gate": "cnot", "qubits": [0, 1]}', "--seed", "0",
     "--output", "r.json"],
    ["norms", "--spec", '{"gate": "cnot", "qubits": [0, 1]}', "--workers", "2",
     "--output", "r.json"],
    # no abbreviations: --out is census's CSV path, never a prefix of --output
    ["estimate", "--circuit", "c.json", "--samples", "10", "--seed", "1",
     "--out", "r.csv"],
])
def test_removed_flags_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert list(tmp_path.iterdir()) == []
    capsys.readouterr()


def test_workers_env_fallback(monkeypatch, capsys):
    # PAULIPROP_WORKERS is no longer read: --workers alone sets the count.
    for value in ["not-an-int", "0", "4"]:
        monkeypatch.setenv("PAULIPROP_WORKERS", value)
        args = cli.build_parser().parse_args(["census", "--samples", "1",
                                              "--seed", "1"])
        assert args.workers == 1
    code, rep = run_json(capsys, [
        "classify-channel", "--spec", '{"gate": "h", "qubits": [0]}',
    ])
    assert code == 0
    assert rep["category"] == "CSH"


def test_import_leaves_scipy_unloaded():
    # scipy.optimize is imported by the first robustness LP or NNLS fit;
    # estimate, verify and qaoa runs never pay for it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, pauliprop.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
