"""Command-line interface: exit codes, file output, determinism."""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import goldcut.cli as cli
import goldcut.pipeline as pipeline
import goldcut.simulator as simulator
from goldcut.circuits import (
    Circuit,
    CutPoint,
    PauliOp,
    bipartition,
    cnot,
    golden_ansatz,
    h,
    load,
    save,
    uncut,
)
from goldcut.cli import main
from goldcut.golden import GENERATION_EPS
from goldcut.metrics import CSV_COLUMNS, cut_counts, weighted_distance
from goldcut.pipeline import ground_truth_distribution, reconstruct, upstream_report
from goldcut.seeding import stream
from goldcut.simulator import sample, simulate

from conftest import make_cut_circuit


def ansatz_path(tmp_path, name="circ.json", seed=0):
    path = tmp_path / name
    code = main(["generate", "--qubits", "3", "--depth", "1",
                 "--seed", str(seed), "--out", str(path)])
    assert code == 0
    return path


class TestGenerate:
    def test_writes_certified_circuit(self, tmp_path, capsys):
        path = ansatz_path(tmp_path)
        out = capsys.readouterr().out
        assert out.splitlines() == ["cut 1: Y golden", "wrote %s" % path]
        circ = load(str(path))
        assert circ.n_qubits == 3
        assert circ.n_cuts == 1

    def test_byte_identical_across_calls(self, tmp_path):
        a = ansatz_path(tmp_path, "a.json", seed=5)
        b = ansatz_path(tmp_path, "b.json", seed=5)
        assert a.read_bytes() == b.read_bytes()
        c = ansatz_path(tmp_path, "c.json", seed=6)
        assert a.read_bytes() != c.read_bytes()

    def test_runs_the_upstream_pass_once(self, tmp_path, capsys, monkeypatch):
        # the certification's report is the one printed; the output is that
        # of saving golden_ansatz and detecting on its upstream fragment anew
        circ = golden_ansatz(5, 2, 7)
        save(circ, str(tmp_path / "want.json"))
        _, report = upstream_report(bipartition(circ)[0], eps=GENERATION_EPS)
        want = "".join("cut %d: %s golden\n" % (e.cut_id, e.basis)
                       for e in report.entries if e.golden)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return upstream_report(*args, **kwargs)

        monkeypatch.setattr(pipeline, "upstream_report", counting)
        monkeypatch.setattr(cli, "upstream_report", counting)
        capsys.readouterr()
        path = tmp_path / "got.json"
        assert main(["generate", "--qubits", "5", "--depth", "2", "--seed", "7",
                     "--out", str(path)]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == want + "wrote %s\n" % path
        assert want == "cut 1: Y golden\n"
        assert path.read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_even_width_is_config_error(self, tmp_path):
        code = main(["generate", "--qubits", "4",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        # numpy's SeedSequence rejected it with a message naming no value
        assert main(["generate", "--qubits", "3", "--seed", "-1",
                     "--out", str(tmp_path / "x.json")]) == 2
        assert "integer of at least 0, got -1" in capsys.readouterr().err


class TestRun:
    def test_csv_deterministic_and_well_formed(self, tmp_path):
        circ = ansatz_path(tmp_path)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        args = ["run", "--circuit", str(circ), "--trials", "2",
                "--shots", "2000", "--seed", "3", "--format", "csv"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        first = dict(zip(CSV_COLUMNS, lines[1].split(",")))
        assert first["trial"] == "0"
        assert first["n_qubits"] == "3"
        assert first["K"] == "1"
        assert float(first["d_w_cut"]) >= 0.0
        assert float(first["d_w_uncut"]) >= 0.0

    def test_known_pruning_shrinks_variant_count(self, tmp_path):
        circ = ansatz_path(tmp_path)
        base = tmp_path / "off.csv"
        cut = tmp_path / "known.csv"
        common = ["run", "--circuit", str(circ), "--trials", "1",
                  "--shots", "2000", "--seed", "3"]
        assert main(common + ["--prune", "off", "--out", str(base)]) == 0
        assert main(common + ["--prune", "known", "--neglect", "1:Y",
                              "--out", str(cut)]) == 0
        row_off = dict(zip(CSV_COLUMNS,
                           base.read_text().strip().split("\n")[1].split(",")))
        row_cut = dict(zip(CSV_COLUMNS,
                           cut.read_text().strip().split("\n")[1].split(",")))
        assert (row_off["variants_pruned"], row_off["K_g"]) == ("9", "0")
        assert (row_cut["variants_pruned"], row_cut["K_g"]) == ("6", "1")
        assert row_off["variants_baseline"] == row_cut["variants_baseline"] == "9"
        assert row_cut["tuples_pruned"] == "3"

    def test_json_format_includes_golden_report(self, tmp_path):
        circ = ansatz_path(tmp_path)
        out = tmp_path / "run.json"
        assert main(["run", "--circuit", str(circ), "--trials", "1",
                     "--shots", "1000", "--format", "json",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"trials"}
        row = doc["trials"][0]
        assert set(CSV_COLUMNS) <= set(row)
        bases = [e["basis"] for e in row["golden"]]
        assert bases == ["X", "Y", "Z"]

    def test_known_without_neglect_is_config_error(self, tmp_path):
        circ = ansatz_path(tmp_path)
        assert main(["run", "--circuit", str(circ), "--prune", "known"]) == 2

    @pytest.mark.parametrize("prune", ["off", "exact", "statistical"])
    def test_neglect_without_known_is_config_error(self, tmp_path, prune):
        circ = ansatz_path(tmp_path)
        assert main(["run", "--circuit", str(circ), "--trials", "1", "--shots", "100",
                     "--prune", prune, "--neglect", "1:Y"]) == 2

    def test_bad_neglect_spelling_is_config_error(self, tmp_path):
        circ = ansatz_path(tmp_path)
        for item in ("1-Y", "1:Q"):
            assert main(["run", "--circuit", str(circ), "--prune", "known",
                         "--neglect", item]) == 2

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trials_below_one_is_config_error(self, tmp_path, trials):
        circ = ansatz_path(tmp_path)
        out = tmp_path / "run.csv"
        assert main(["run", "--circuit", str(circ), "--trials", trials,
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_nan_tau_is_config_error(self, tmp_path):
        circ = ansatz_path(tmp_path)
        assert main(["run", "--circuit", str(circ), "--trials", "1", "--shots", "100",
                     "--prune", "statistical", "--tau", "nan"]) == 2

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        circ = ansatz_path(tmp_path)
        out = tmp_path / "run.csv"
        assert main(["run", "--circuit", str(circ), "--trials", "1", "--shots", "100",
                     "--seed", "-1", "--out", str(out)]) == 2
        assert "integer of at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "detect"])
    @pytest.mark.parametrize("flag,value", [("--alpha", "2"), ("--alpha", "0"),
                                            ("--alpha", "nan"), ("--tau", "-1"),
                                            ("--tau", "inf")])
    def test_alpha_and_tau_are_rejected_before_any_simulation(
            self, tmp_path, monkeypatch, capsys, command, flag, value):
        # run simulated the uncut circuit and detect drew every setting's
        # shots before the check; the exact modes never checked them
        circ = ansatz_path(tmp_path)
        calls = []
        kernel = simulator._apply
        monkeypatch.setattr(simulator, "_apply", lambda *a: calls.append(a) or kernel(*a))
        capsys.readouterr()
        for shots in (["--shots", "100"], [] if command == "detect" else ["--prune", "exact"]):
            assert main([command, "--circuit", str(circ), *shots, flag, value]) == 2
            assert ("alpha must lie in" if flag == "--alpha" else "tau must be finite") in (
                capsys.readouterr().err)
        assert calls == []

    def test_negative_seed_is_rejected_before_any_simulation(self, tmp_path, monkeypatch):
        # the uncut ground truth was simulated before reconstruct rejected it
        circ = ansatz_path(tmp_path)
        calls = []
        kernel = simulator._apply
        monkeypatch.setattr(simulator, "_apply", lambda *a: calls.append(a) or kernel(*a))
        assert main(["run", "--circuit", str(circ), "--trials", "1", "--shots", "100",
                     "--seed", "-1"]) == 2
        assert calls == []

    @pytest.mark.parametrize("shots", ["0", "-5"])
    def test_bad_shot_count_is_rejected_before_any_simulation(self, tmp_path, monkeypatch,
                                                                capsys, shots):
        # the uncut ground truth was simulated before reconstruct rejected it
        circ = ansatz_path(tmp_path)
        calls = []
        kernel = simulator._apply
        monkeypatch.setattr(simulator, "_apply", lambda *a: calls.append(a) or kernel(*a))
        assert main(["run", "--circuit", str(circ), "--trials", "1", "--shots", shots]) == 2
        assert "shots must be at least 1" in capsys.readouterr().err
        assert calls == []

    def test_uncut_circuit_is_simulated_once(self, tmp_path, monkeypatch):
        # once for the truth and once per trial before
        path = ansatz_path(tmp_path)
        want, seen = uncut(load(str(path))), []
        run = simulator._run
        monkeypatch.setattr(simulator, "_run",
                            lambda c, start, live: seen.append(c) or run(c, start, live))
        assert main(["run", "--circuit", str(path), "--trials", "3", "--shots", "100",
                     "--out", str(tmp_path / "run.csv")]) == 0
        assert [c for c in seen if c == want] == [want]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_are_those_of_a_fresh_uncut_state_per_trial(self, tmp_path, fmt):
        # the previous version simulated the uncut circuit anew for the truth
        # and for every trial's sample; one state gives the same bytes
        path = ansatz_path(tmp_path)
        circ, out = load(str(path)), tmp_path / ("run." + fmt)
        assert main(["run", "--circuit", str(path), "--trials", "3", "--shots", "500",
                     "--seed", "4", "--prune", "exact", "--format", fmt, "--out", str(out)]) == 0
        if fmt == "csv":
            lines = out.read_text().strip().split("\n")[1:]
            rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines]
        else:
            rows = json.loads(out.read_text())["trials"]
        truth = ground_truth_distribution(circ)
        assert len(rows) == 3
        for trial, row in enumerate(rows):
            uncut_state = simulate(uncut(circ))
            sampled = sample(uncut_state, range(3), 500, stream(4, trial, 2)) / 500
            run = reconstruct(circ, shots=500, seed=4, trial=trial, prune="exact")
            assert float(row["d_w_uncut"]) == weighted_distance(sampled, truth)
            assert float(row["d_w_cut"]) == weighted_distance(run.distribution, truth)

    @pytest.mark.parametrize("prune,neglect", [("statistical", []),
                                               ("known", ["1:X", "2:Y", "1:Y", "2:X"])])
    def test_output_does_not_depend_on_the_hash_seed(self, tmp_path, prune, neglect):
        # PauliOp hashes by identity and str by the hash seed, so set order
        # differs between these processes; no output may follow it
        path = tmp_path / "circ.json"
        save(make_cut_circuit(3, 3, 2, 2, 7) if neglect else golden_ansatz(5, 2, 7), str(path))
        args = [sys.executable, "-m", "goldcut", "run", "--circuit", str(path), "--trials", "2",
                "--shots", "10000", "--seed", "3", "--prune", prune, "--format", "json"]
        args += [a for item in neglect for a in ("--neglect", item)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        outputs = set()
        for hash_seed in ("0", "1", "4242"):
            done = subprocess.run(args, env=dict(env, PYTHONHASHSEED=hash_seed),
                                  capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr.decode()
            outputs.add(done.stdout)
        assert len(outputs) == 1
        assert json.loads(outputs.pop())["trials"][0]["K_g"] == (2 if neglect else 1)

    def test_circuit_without_cuts_is_validation_error(self, tmp_path):
        path = tmp_path / "uncut.json"
        save(Circuit(2, (h(0), cnot(0, 1)), ()), str(path))
        assert main(["run", "--circuit", str(path), "--trials", "1"]) == 3

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["run", "--circuit", str(tmp_path / "nope.json")]) == 2

    def test_malformed_file_is_validation_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--circuit", str(path)]) == 3


class TestBench:
    def test_single_cut_counts(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--cuts", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 2
        by_kg = {row["K_g"]: row for row in rows}
        assert by_kg["0"]["tuples_pruned"] == "4"
        assert by_kg["1"]["tuples_pruned"] == "3"
        assert by_kg["1"]["tuples_baseline"] == "4"
        assert by_kg["1"]["eigen_terms_pruned"] == "12"
        assert by_kg["0"]["eigen_terms_pruned"] == "16"
        assert by_kg["1"]["upstream_pruned"] == "2"
        assert by_kg["1"]["downstream_pruned"] == "4"
        assert by_kg["1"]["downstream_baseline"] == "6"
        assert "contract_seconds" not in header

    def test_json_rows_follow_the_count_formula(self, capsys):
        # the table is the count formula with Y dropped at the last K_g cuts
        assert main(["bench", "--cuts", "3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["rows"] and len(doc["rows"]) == 4
        for row in doc["rows"]:
            golden = {(cid, PauliOp.Y) for cid in range(4 - row["K_g"], 4)}
            counts, full = cut_counts((1, 2, 3), golden), cut_counts((1, 2, 3))
            assert (row["upstream_pruned"], row["downstream_pruned"], row["tuples_pruned"]) == (
                counts.upstream_variants, counts.downstream_variants, counts.basis_tuples)
            assert (row["upstream_baseline"], row["downstream_baseline"],
                    row["tuples_baseline"]) == (27, 216, 64) == (
                full.upstream_variants, full.downstream_variants, full.basis_tuples)
            assert row["eigen_terms_pruned"] == counts.basis_tuples * 4 ** 3

    def test_seed_option_removed(self):
        # the table is closed-form, so bench draws nothing
        with pytest.raises(SystemExit):
            main(["bench", "--cuts", "1", "--seed", "3"])

    def test_zero_cuts_is_config_error(self):
        assert main(["bench", "--cuts", "0"]) == 2

    def test_cuts_above_the_tensor_cap_is_config_error(self, capsys):
        # contraction is capped at MAX_CUTS, so the table stops there too
        assert main(["bench", "--cuts", "9"]) == 2
        assert "1..8" in capsys.readouterr().err


class TestDetect:
    def test_exact_report_to_stdout(self, tmp_path, capsys):
        circ = ansatz_path(tmp_path)
        capsys.readouterr()
        assert main(["detect", "--circuit", str(circ)]) == 0
        doc = json.loads(capsys.readouterr().out)
        rows = {row["basis"]: row for row in doc}
        assert set(rows) == {"X", "Y", "Z"}
        assert rows["Y"]["golden"] is True
        assert rows["Y"]["magnitude"] <= 1e-8
        assert "radius" not in rows["Y"]

    def test_statistical_report_includes_radius(self, tmp_path):
        circ = ansatz_path(tmp_path)
        out = tmp_path / "detect.json"
        assert main(["detect", "--circuit", str(circ), "--shots", "10000",
                     "--tau", "0.05", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        for row in doc:
            assert row["shots"] == 10000
            assert row["radius"] > 0.0

    @pytest.mark.parametrize("shots,insufficient", [(100, True), (10000, False)])
    def test_statistical_report_marks_insufficient_pairs(self, tmp_path, shots, insufficient):
        # at the default tau = 0.02, 100 shots give radius 0.19 and 10^4 give 0.019
        circ = ansatz_path(tmp_path)
        out = tmp_path / "detect.json"
        assert main(["detect", "--circuit", str(circ), "--shots", str(shots),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc and [row["insufficient"] for row in doc] == [insufficient] * len(doc)
        assert all((row["radius"] > 0.02) is insufficient for row in doc)

    @pytest.mark.parametrize("tau", ["nan", "inf", "0", "-0.02"])
    def test_tau_that_is_not_finite_and_positive_is_config_error(self, tmp_path, tau):
        # with a NaN tau, 100 shots flagged Y at radius 0.192
        circ = ansatz_path(tmp_path)
        out = tmp_path / "detect.json"
        assert main(["detect", "--circuit", str(circ), "--shots", "100", "--tau", tau,
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_eps_that_is_negative_or_not_finite_is_config_error(self, tmp_path, eps, capsys):
        # nan and -1 flagged nothing, inf flagged every basis, all with exit 0
        circ = ansatz_path(tmp_path)
        out = tmp_path / "detect.json"
        capsys.readouterr()
        assert main(["detect", "--circuit", str(circ), "--eps", eps, "--out", str(out)]) == 2
        assert "eps must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_eps_is_checked_with_shots_too(self, tmp_path, eps, capsys):
        # the statistical path never read eps: --eps nan --shots 10000 exited 0
        circ = ansatz_path(tmp_path)
        out = tmp_path / "detect.json"
        capsys.readouterr()
        assert main(["detect", "--circuit", str(circ), "--shots", "10000", "--eps", eps,
                     "--out", str(out)]) == 2
        assert "eps must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_eps_is_legal(self, tmp_path, capsys):
        circ = ansatz_path(tmp_path)
        capsys.readouterr()
        assert main(["detect", "--circuit", str(circ), "--eps", "0"]) == 0
        rows = {row["basis"]: row for row in json.loads(capsys.readouterr().out)}
        assert rows["Y"]["golden"] is True and rows["Z"]["golden"] is False

    def test_cutless_circuit_is_validation_error(self, tmp_path):
        path = tmp_path / "uncut.json"
        save(Circuit(2, (h(0),), ()), str(path))
        assert main(["detect", "--circuit", str(path)]) == 3

    @pytest.mark.parametrize("seed", [0, 5])
    def test_reports_equal_those_reconstruct_prunes_with(self, tmp_path, seed):
        # detect and reconstruct share one upstream pass and seed path
        path = tmp_path / "c.json"
        assert main(["generate", "--qubits", "5", "--depth", "2", "--seed", "7",
                     "--out", str(path)]) == 0
        circ = load(str(path))
        shots = tmp_path / "shots.json"
        exact = tmp_path / "exact.json"
        assert main(["detect", "--circuit", str(path), "--shots", "10000",
                     "--seed", str(seed), "--out", str(shots)]) == 0
        assert main(["detect", "--circuit", str(path), "--eps", "1e-12",
                     "--out", str(exact)]) == 0
        run = reconstruct(circ, shots=10000, seed=seed, prune="statistical")
        assert shots.read_text() == run.golden.to_json() + "\n"
        assert exact.read_text() == reconstruct(circ, prune="exact").golden.to_json() + "\n"


def fig1_doc():
    return {"n_qubits": 3,
            "gates": [{"kind": "h", "qubits": [0], "params": []},
                      {"kind": "cnot", "qubits": [0, 1], "params": []},
                      {"kind": "cnot", "qubits": [1, 2], "params": []}],
            "cuts": [{"qubit": 1, "after_gate": 1, "cut_id": 1}]}


class TestBoundaryInput:
    @pytest.mark.parametrize("angle", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("command", [
        ["run", "--trials", "1", "--shots", "100"],
        ["detect"],
    ])
    def test_non_finite_angle_is_validation_error(self, tmp_path, command, angle):
        doc = fig1_doc()
        doc["gates"][0] = {"kind": "ry", "qubits": [0], "params": [0.5]}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc).replace("0.5", angle))
        assert main(command + ["--circuit", str(path)]) == 3

    def test_valid_document_passes(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(fig1_doc()))
        assert main(["detect", "--circuit", str(path)]) == 0

    @pytest.mark.parametrize("value", [0.7, 1.0, True])
    @pytest.mark.parametrize("field", [
        ("n_qubits",),
        ("gates", 0, "qubits", 0),
        ("cuts", 0, "qubit"),
        ("cuts", 0, "after_gate"),
        ("cuts", 0, "cut_id"),
    ])
    def test_non_integer_field_is_validation_error(self, tmp_path, field, value):
        doc = fig1_doc()
        holder = doc
        for step in field[:-1]:
            holder = holder[step]
        holder[field[-1]] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        assert main(["detect", "--circuit", str(path)]) == 3


def _set(doc, path, value):
    for step in path[:-1]:
        doc = doc[step]
    doc[path[-1]] = value


# (edit of fig1_doc, the violation goldcut must print); each edit breaks one rule
INVALID_CIRCUITS = {
    "no_qubits": (lambda d: _set(d, ("n_qubits",), 0), "n_qubits must be positive"),
    "unknown_kind": (lambda d: _set(d, ("gates", 0, "kind"), "t"), "gate 0: unknown kind 't'"),
    "repeated_target": (lambda d: _set(d, ("gates", 1, "qubits"), [0, 0]),
                        "gate 1: repeated target qubit"),
    "params_on_fixed_gate": (lambda d: _set(d, ("gates", 0, "params"), [0.5]),
                             "gate 0: unexpected parameters"),
    "unitary_too_wide": (lambda d: d.update(n_qubits=4, gates=d["gates"] + [
        {"kind": "unitary", "qubits": [0, 1, 2, 3], "params": []}]),
        "gate 3: opaque unitaries are capped at 3 qubits"),
    "unitary_without_matrix": (lambda d: d["gates"].append(
        {"kind": "unitary", "qubits": [2], "params": []}), "gate 3: opaque gate missing matrix"),
    "wrong_arity": (lambda d: _set(d, ("gates", 1, "qubits"), [0]), "gate 1: cnot takes 2 qubit(s)"),
    "cut_qubit_out_of_range": (lambda d: _set(d, ("cuts", 0, "qubit"), 5),
                               "cut 1: qubit 5 out of range"),
    "after_gate_out_of_range": (lambda d: _set(d, ("cuts", 0, "after_gate"), 7),
                                "cut 1: after_gate 7 out of range"),
    "matrix_length": (lambda d: d["gates"].append(
        {"kind": "unitary", "qubits": [2], "params": [], "matrix": [[1, 0], [0, 0], [0, 0]]}),
        "matrix length 3 does not fit 1 qubit(s)"),
}


class TestCircuitValidation:
    @pytest.mark.parametrize("case", sorted(INVALID_CIRCUITS))
    @pytest.mark.parametrize("command", [
        ["run", "--trials", "1", "--shots", "100"],
        ["detect"],
    ])
    def test_violation_is_printed_with_exit_three(self, tmp_path, capsys, command, case):
        edit, message = INVALID_CIRCUITS[case]
        doc = fig1_doc()
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(command + ["--circuit", str(path)]) == 3
        assert message in capsys.readouterr().err


def out_parsers():
    """The parser of each subcommand of build_parser() that takes --out, by name."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: p for name, p in sub.choices.items()
            if any("--out" in a.option_strings for a in p._actions)}


class TestUnwritableOut:
    # a value for each required option; a subcommand with another required
    # option fails here until it is given one
    REQUIRED = {"--qubits": "3", "--cuts": "1"}

    @pytest.mark.parametrize("command", sorted(out_parsers()))
    def test_path_in_a_missing_directory_is_config_error(self, tmp_path, capsys, command):
        values = dict(self.REQUIRED, **{"--circuit": str(ansatz_path(tmp_path))})
        argv = [command]
        for action in out_parsers()[command]._actions:
            if action.required:
                argv += [action.option_strings[0], values[action.option_strings[0]]]
        out = str(tmp_path / "missing" / "out")
        capsys.readouterr()
        assert main(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and out in err


class TestParser:
    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_bad_choice_exits_two(self, tmp_path):
        circ = ansatz_path(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["run", "--circuit", str(circ), "--prune", "sometimes"])
        assert err.value.code == 2
