"""Circuit representation, validation, bipartition, and generators."""
import copy
import dataclasses
import hashlib
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import goldcut.circuits as circuits
import goldcut.simulator as simulator
from goldcut.circuits import (
    Circuit,
    CutPoint,
    Gate,
    PauliOp,
    bipartition,
    cnot,
    from_json,
    gate_matrix,
    golden_ansatz,
    h,
    random_circuit,
    rx,
    rz,
    to_json,
    uncut,
    unitary,
    validate,
)
from goldcut.errors import CyclicCut, NotBipartite
from goldcut.pipeline import ground_truth_distribution, reconstruct
from goldcut.simulator import ObservableSpec, simulate

from conftest import load_perfbench, make_cut_circuit, stitch

multicut_circuit = load_perfbench("workloads").multicut_circuit


class TestPauliOp:
    def test_matrices(self):
        assert np.array_equal(PauliOp.I.matrix, np.eye(2))
        assert np.array_equal(PauliOp.X.matrix, [[0, 1], [1, 0]])
        assert np.array_equal(PauliOp.Y.matrix, [[0, -1j], [1j, 0]])
        assert np.array_equal(PauliOp.Z.matrix, [[1, 0], [0, -1]])


class TestGates:
    @pytest.mark.parametrize("gate", [
        h(0), Gate("x", (0,)), Gate("y", (0,)), Gate("z", (0,)),
        Gate("s", (0,)), Gate("sdg", (0,)), rx(1.2, 0),
        Gate("ry", (0,), (0.7,)), Gate("rz", (0,), (2.3,)),
        cnot(0, 1), Gate("cz", (0, 1)),
    ])
    def test_named_gates_are_unitary(self, gate):
        u = gate_matrix(gate)
        assert np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) < 1e-12

    def test_cnot_flips_target_when_control_set(self):
        u = gate_matrix(cnot(0, 1))
        assert np.array_equal(u @ [0, 0, 1, 0], [0, 0, 0, 1])

    def test_fixed_matrix_is_shared_and_read_only(self):
        u = gate_matrix(h(0))
        assert u is gate_matrix(h(3))
        with pytest.raises(ValueError, match="read-only"):
            u[0, 0] = 0.0
        assert u[0, 0] == 1 / math.sqrt(2)
        p = PauliOp.X.matrix
        p[0, 1] = 5.0
        assert gate_matrix(Gate("x", (0,)))[0, 1] == 1.0

    def test_rotation_matrix_is_fresh(self):
        u = gate_matrix(rx(1.2, 0))
        assert u is not gate_matrix(rx(1.2, 0))
        u[0, 0] = 0.0
        assert gate_matrix(rx(1.2, 0))[0, 0] == math.cos(0.6)

    @pytest.mark.parametrize("wire", [0.7, 1.0, True, np.float64(1.0), np.bool_(True)])
    def test_non_integer_wire_rejected(self, wire):
        # int() would store 0.7 as qubit 0 and True as qubit 1
        with pytest.raises(ValueError):
            Gate("h", (wire,))

    def test_numpy_integer_wire_accepted(self):
        g = cnot(np.int64(0), np.int32(1))
        assert g.qubits == (0, 1) and all(type(q) is int for q in g.qubits)


class TestValidate:
    def test_minimal_circuit_ok(self):
        assert validate(Circuit(1, (h(0),), ())).ok

    def test_qubit_out_of_range(self):
        report = validate(Circuit(3, (h(5),), ()))
        assert not report.ok
        assert any("out of range" in v for v in report.violations)

    def test_non_unitary_opaque(self):
        g = Gate("unitary", (0,), (), ((1.0, 0.0), (0.0, 2.0)))
        report = validate(Circuit(1, (g,), ()))
        assert any("non-unitary" in v for v in report.violations)

    def test_duplicate_cut_position(self):
        circ = Circuit(2, (h(0),), (CutPoint(0, 0, 1), CutPoint(0, 0, 2)))
        assert any("duplicate cut" in v for v in validate(circ).violations)

    def test_two_cuts_one_wire_rejected(self):
        circ = Circuit(2, (h(0), h(0)), (CutPoint(0, 0, 1), CutPoint(0, 1, 2)))
        assert any("one cut per wire" in v for v in validate(circ).violations)

    def test_cut_ids_must_be_one_based_ordinals(self):
        circ = Circuit(2, (h(0),), (CutPoint(0, 0, 3),))
        assert any("1..K" in v for v in validate(circ).violations)

    def test_rotation_needs_angle(self):
        report = validate(Circuit(1, (Gate("rx", (0,)),), ()))
        assert any("angle" in v for v in report.violations)

    @pytest.mark.parametrize("angle", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_angle(self, angle):
        report = validate(Circuit(1, (rx(angle, 0),), ()))
        assert any("not finite" in v for v in report.violations)

    def test_non_finite_opaque_matrix(self):
        g = Gate("unitary", (0,), (), ((float("nan"), 0.0), (0.0, 1.0)))
        report = validate(Circuit(1, (g,), ()))
        assert any("non-unitary" in v for v in report.violations)

    @pytest.mark.parametrize("field", ["qubit", "after_gate", "cut_id"])
    @pytest.mark.parametrize("value", [1.5, 1.0, True])
    def test_non_integer_cut_field(self, field, value):
        cut = dict(qubit=1, after_gate=1, cut_id=1)
        cut[field] = value
        circ = Circuit(3, (h(0), cnot(0, 1), cnot(1, 2)), (CutPoint(**cut),))
        report = validate(circ)
        assert any("%s is not an integer" % field in v for v in report.violations)
        with pytest.raises(ValueError, match="not an integer"):
            bipartition(circ)

    @pytest.mark.parametrize("n", [3.0, True, np.float64(3.0)])
    def test_non_integer_width(self, n):
        report = validate(Circuit(n, (h(0),), ()))
        assert any("n_qubits must be an integer" in v for v in report.violations)

    def test_numpy_integer_fields_accepted(self):
        circ = Circuit(np.int64(3), (h(0), cnot(0, 1), cnot(1, 2)),
                       (CutPoint(np.int64(1), np.int32(1), np.int64(1)),))
        assert validate(circ).ok


def fig1_circuit():
    # upstream pair of wires prepares a state, one gate couples the shared
    # wire to the third qubit after the cut
    return Circuit(3, (h(0), cnot(0, 1), cnot(1, 2)), (CutPoint(1, 1, 1),))


class TestBipartition:
    def test_three_qubit_example(self):
        f1, f2 = bipartition(fig1_circuit())
        assert f1.circuit.n_qubits == 2
        assert f1.parent_qubits == (0, 1)
        assert f1.upstream_cut_qubits == ((1, 1),)
        assert f1.output_qubits == (0,)
        assert [g.kind for g in f1.circuit.gates] == ["h", "cnot"]
        assert f2.circuit.n_qubits == 2
        assert f2.parent_qubits == (1, 2)
        assert f2.downstream_cut_qubits == ((1, 0),)
        assert f2.output_qubits == (0, 1)
        assert [g.kind for g in f2.circuit.gates] == ["cnot"]

    def test_five_qubit_middle_cut_gives_three_qubit_fragments(self):
        circ = golden_ansatz(5, 1, 3)
        f1, f2 = bipartition(circ)
        assert f1.circuit.n_qubits == 3
        assert f2.circuit.n_qubits == 3

    def test_bridging_gate_not_bipartite(self):
        base = fig1_circuit()
        circ = Circuit(3, base.gates + (cnot(0, 2),), base.cuts)
        msg = "cuts split the circuit into 1 component(s), need exactly 2"
        with pytest.raises(NotBipartite, match="^%s$" % re.escape(msg)):
            bipartition(circ)

    def test_idle_wire_not_bipartite(self):
        base = fig1_circuit()
        circ = Circuit(4, base.gates, base.cuts)
        msg = "cuts split the circuit into 3 component(s), need exactly 2"
        with pytest.raises(NotBipartite, match="^%s$" % re.escape(msg)):
            bipartition(circ)

    def test_mixed_orientation_is_cyclic(self):
        circ = Circuit(
            4,
            (cnot(0, 1), cnot(0, 3), cnot(3, 2), cnot(1, 2)),
            (CutPoint(0, 0, 1), CutPoint(2, 2, 2)),
        )
        with pytest.raises(CyclicCut, match="^cuts have mixed orientation; fragments feed back$"):
            bipartition(circ)

    def test_unseparated_wire_is_cyclic(self):
        circ = Circuit(3, (cnot(0, 1), cnot(0, 1)), (CutPoint(1, 0, 1),))
        with pytest.raises(CyclicCut, match="^cut 1 does not separate its wire$"):
            bipartition(circ)

    @pytest.mark.parametrize("order, message", [
        ((1, 2, 3), "cuts have mixed orientation; fragments feed back"),
        ((1, 3, 2), "cut 3 does not separate its wire"),
    ])
    def test_cuts_are_checked_in_circuit_order(self, order, message):
        # components {0, 1 pre, 2 post} and {4, 1 post, 2 pre, 3}: cut 2 points
        # the other way and cut 3 stays inside the second component, so it
        # is both unseparated and wrongly oriented; separation is named first
        cuts = {1: CutPoint(1, 0, 1), 2: CutPoint(2, 1, 2), 3: CutPoint(3, 2, 3)}
        circ = Circuit(5, (cnot(0, 1), cnot(4, 2), cnot(4, 3), cnot(1, 4), cnot(2, 0),
                           cnot(3, 4)), tuple(cuts[i] for i in order))
        with pytest.raises(CyclicCut, match="^%s$" % re.escape(message)):
            bipartition(circ)

    def test_needs_a_cut(self):
        with pytest.raises(ValueError, match="^bipartition needs at least one cut$"):
            bipartition(Circuit(2, (h(0), cnot(0, 1)), ()))

    def test_cut_before_any_gate(self):
        f1, f2 = bipartition(Circuit(1, (), (CutPoint(0, -1, 1),)))
        assert f1.circuit.n_qubits == 1 and not f1.circuit.gates
        assert f1.output_qubits == ()
        assert f2.output_qubits == (0,)

    @pytest.mark.parametrize("seed", range(10))
    def test_stitch_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 3))
        n_up = int(rng.integers(k, 4)) + 1
        n_down = int(rng.integers(k, 4)) + 1
        circ = make_cut_circuit(n_up, n_down, k, 2, seed)
        f1, f2 = bipartition(circ)
        restitched = stitch(f1, f2, circ.n_qubits)
        a = simulate(uncut(circ))
        b = simulate(restitched)
        assert np.max(np.abs(a - b)) < 1e-10

    @given(k=st.integers(1, 3), extra_up=st.integers(0, 2), extra_down=st.integers(0, 2),
           depth=st.integers(1, 2), seed=st.integers(0, 10 ** 6))
    def test_fragments_restitch_and_joins_are_rejected(self, k, extra_up, extra_down,
                                                       depth, seed):
        circ = make_cut_circuit(k + extra_up, k + extra_down, k, depth, seed)
        f1, f2 = bipartition(circ)
        restitched = simulate(stitch(f1, f2, circ.n_qubits))
        assert np.max(np.abs(simulate(uncut(circ)) - restitched)) < 1e-10
        up_only = [f1.parent_qubits[q] for q in f1.output_qubits]
        down_only = [q for q in f2.parent_qubits if q not in f1.parent_qubits]
        if up_only and down_only:
            joined = circ.gates + (cnot(up_only[-1], down_only[0]),)
            with pytest.raises(NotBipartite, match="into 1 component"):
                bipartition(Circuit(circ.n_qubits, joined, circ.cuts))
        with pytest.raises(NotBipartite, match="into 3 component"):
            bipartition(Circuit(circ.n_qubits + 1, circ.gates, circ.cuts))

    @pytest.mark.parametrize("make, digest", [
        (lambda: golden_ansatz(9, 3, 201),
         "9e6a4818067d16bde6cadebc76681e1db65b9d62dfedf17fb8583166c5f69f2a"),
        (lambda: multicut_circuit(4, 201),
         "cd1888bf55d5aa857d9fa69cc2c0127eccd9e317e67c24e79c478633a93baaf2"),
        (lambda: multicut_circuit(4, 501),
         "101e61fe758cca2b65dec993caf1bde2a0943b8f9b97ef362e41cf00dcfc7bcc"),
        (lambda: make_cut_circuit(5, 6, 4, 2, 3),
         "3d53022b8ad92f3f6b674eab48ce6a253c662b368d6a24c9731bbd8c6e43209d"),
    ])
    def test_fragments_match_pinned_digest(self, make, digest):
        # sha256 of each fragment's canonical JSON and interface tuples, as
        # the union-find bipartition produced them
        h = hashlib.sha256()
        for f in bipartition(make()):
            h.update(to_json(f.circuit).encode())
            h.update(repr((f.upstream_cut_qubits, f.downstream_cut_qubits,
                           f.output_qubits, f.parent_qubits)).encode())
        assert h.hexdigest() == digest

    def test_cut_ids_unique_per_interface(self):
        circ = make_cut_circuit(3, 3, 2, 1, 5)
        f1, f2 = bipartition(circ)
        up_ids = [cid for cid, _ in f1.upstream_cut_qubits]
        down_ids = [cid for cid, _ in f2.downstream_cut_qubits]
        assert sorted(up_ids) == sorted(set(up_ids))
        assert sorted(up_ids) == sorted(down_ids)


class TestKeptPerObject:
    """bipartition keeps the fragments on the circuit object, the fragments
    their bodies, the bodies their programs; nothing else sees it."""

    def test_fragments_are_computed_once_per_object(self, monkeypatch):
        circ = make_cut_circuit(4, 3, 2, 2, 11)
        checked = []
        check = circuits.validate
        monkeypatch.setattr(circuits, "validate", lambda c: checked.append(c) or check(c))
        first = bipartition(circ)
        assert bipartition(circ) is first and checked == [circ]
        twin = bipartition(Circuit(circ.n_qubits, circ.gates, circ.cuts))
        assert twin == first and twin is not first and len(checked) == 2

    @pytest.mark.parametrize("circ,error", [
        (Circuit(2, (h(0), cnot(0, 5)), (CutPoint(0, 0, 1),)), ValueError),
        (Circuit(3, (h(0), cnot(0, 1), cnot(1, 2), cnot(0, 2)), (CutPoint(1, 1, 1),)),
         NotBipartite),
    ])
    def test_errors_are_raised_on_every_call(self, circ, error):
        for _ in range(2):
            with pytest.raises(error):
                bipartition(circ)
        assert "_fragments" not in vars(circ)

    def test_cutting_changes_no_view_of_the_fields(self):
        circ = make_cut_circuit(4, 4, 2, 2, 9)
        twin = Circuit(circ.n_qubits, circ.gates, circ.cuts)

        def views(obj):
            return obj == twin, hash(obj), repr(obj), to_json(obj), pickle.dumps(obj)

        before = views(circ)
        f1, f2 = bipartition(circ)
        frags = [pickle.dumps(f) for f in (f1, f2)]
        xyz = ObservableSpec.pauli_string("XYZ", f1.parent_qubits[:1] + f2.parent_qubits[:2])
        reconstruct(circ)
        reconstruct(circ, xyz, shots=100)
        assert "_fragments" in vars(circ) and vars(f2)["_bodies"]
        assert views(circ) == before
        assert [pickle.dumps(f) for f in (f1, f2)] == frags

    def test_uncut_twin_is_kept_with_its_program(self, monkeypatch):
        # ground_truth_distribution built and compiled a new uncut twin on
        # every call; the second call now groups no gate and builds no block
        circ = golden_ansatz(5, 2, 7)
        truth = ground_truth_distribution(circ)
        twin = uncut(circ)
        assert twin is uncut(circ) and twin == dataclasses.replace(circ, cuts=())
        programs = vars(twin)["_programs"]
        (program,) = programs.values()
        grouped = []
        fuse = simulator._fuse
        monkeypatch.setattr(simulator, "_fuse", lambda gates: grouped.append(gates) or fuse(gates))
        assert np.array_equal(ground_truth_distribution(circ), truth)
        assert np.array_equal(simulate(uncut(circ)), simulate(twin))
        assert grouped == [] and vars(uncut(circ))["_programs"] is programs
        (kept,) = programs.values()
        assert kept is program

    def test_copies_start_cold(self):
        circ = golden_ansatz(5, 2, 7)
        reconstruct(circ)
        f1, _ = bipartition(circ)
        fields = {f.name for f in dataclasses.fields(Circuit)}
        for other in (pickle.loads(pickle.dumps(circ)), copy.copy(circ), copy.deepcopy(circ),
                      dataclasses.replace(circ), from_json(to_json(circ))):
            assert other == circ and set(vars(other)) == fields
            assert bipartition(other) == (f1, bipartition(circ)[1])
            assert bipartition(other)[0] is not f1
        assert set(vars(uncut(circ))) == fields
        assert set(vars(pickle.loads(pickle.dumps(f1)))) == {
            f.name for f in dataclasses.fields(f1)}


class TestGenerators:
    def test_golden_ansatz_deterministic(self):
        assert to_json(golden_ansatz(5, 2, 7)) == to_json(golden_ansatz(5, 2, 7))

    def test_golden_ansatz_three_qubits(self):
        circ = golden_ansatz(3, 1, 0)
        assert circ.n_qubits == 3
        assert circ.cuts[0].qubit == 1
        assert circ.cuts[0].cut_id == 1

    def test_golden_ansatz_rejects_even_width(self):
        with pytest.raises(ValueError, match="odd width"):
            golden_ansatz(4, 1, 0)

    def test_golden_ansatz_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            golden_ansatz(5, 0, 0)

    def test_random_circuit_deterministic(self):
        assert random_circuit(2, 1, 1) == random_circuit(2, 1, 1)

    def test_random_circuit_seeds_differ(self):
        assert random_circuit(2, 1, 1) != random_circuit(2, 1, 2)

    def test_random_circuit_zero_depth_empty(self):
        circ = random_circuit(1, 0, 0)
        assert circ.n_qubits == 1 and circ.gates == ()

    def test_random_circuit_valid(self):
        for seed in range(5):
            assert validate(random_circuit(4, 3, seed)).ok


class TestSerialization:
    def test_round_trip_identity(self):
        circ = make_cut_circuit(3, 3, 1, 2, 9)
        assert from_json(to_json(circ)) == circ

    def test_round_trip_preserves_angles_bitwise(self):
        circ = random_circuit(3, 2, 4)
        back = from_json(to_json(circ))
        for g0, g1 in zip(circ.gates, back.gates):
            assert g0.params == g1.params

    def test_opaque_matrix_round_trip(self):
        u = gate_matrix(cnot(0, 1))
        circ = Circuit(2, (Gate("unitary", (0, 1), (), tuple(map(tuple, u))),), ())
        assert from_json(to_json(circ)) == circ

    def test_emit_is_stable(self):
        circ = golden_ansatz(3, 2, 11)
        text = to_json(circ)
        assert to_json(from_json(text)) == text

    @given(st.data())
    def test_generated_circuits_round_trip(self, data):
        # generator circuits plus opaque 1-3 qubit unitaries come back gate
        # for gate, and a second dump is byte-identical to the first
        seed = data.draw(st.integers(0, 10 ** 6))
        depth = data.draw(st.integers(1, 3))
        if data.draw(st.booleans()):
            circ = random_circuit(data.draw(st.integers(1, 5)), depth, seed)
        else:
            k = data.draw(st.integers(1, 3))
            circ = make_cut_circuit(data.draw(st.integers(k, 4)), data.draw(st.integers(k, 4)),
                                    k, depth, seed)
        rng = np.random.default_rng(seed)
        opaque = []
        for _ in range(data.draw(st.integers(1, 3))):
            arity = data.draw(st.integers(1, min(3, circ.n_qubits)))
            qubits = data.draw(st.permutations(range(circ.n_qubits)))[:arity]
            z = rng.standard_normal((2 ** arity, 2 ** arity, 2)) @ (1.0, 1.0j)
            opaque.append(unitary(np.linalg.qr(z)[0], *qubits))
        circ = Circuit(circ.n_qubits, circ.gates + tuple(opaque), circ.cuts)
        text = to_json(circ)
        back = from_json(text)
        assert back.gates == circ.gates and back == circ
        assert to_json(back) == text

    def test_negative_zero_round_trips(self):
        circ = Circuit(1, (rz(-0.0, 0), unitary([[1.0, -0.0], [-0.0, 1.0]], 0)), ())
        text = to_json(circ)
        assert '"params": [-0.0]' in text and "[-0.0, 0]" in text
        assert to_json(from_json(text)) == text
        assert math.copysign(1.0, from_json(text).gates[0].params[0]) == -1.0

    def test_key_order(self):
        text = to_json(Circuit(1, (h(0),), ()))
        assert text.index('"n_qubits"') < text.index('"gates"') < text.index('"cuts"')
