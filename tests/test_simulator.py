"""Statevector simulation, observables, sampling, and basis helpers."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

import goldcut.fragmenter as fragmenter
import goldcut.simulator as simulator
from goldcut.circuits import (
    Circuit,
    CutPoint,
    Gate,
    PauliOp,
    bipartition,
    cnot,
    cz,
    gate_matrix,
    h,
    random_circuit,
    rx,
    unitary,
)
from goldcut.errors import (
    GoldcutError,
    IdentityBasisRequested,
    SupportMismatch,
    TooWide,
)
from goldcut.fragmenter import PREP_LABELS, prep_state
from goldcut.simulator import (
    MAX_QUBITS,
    ObservableSpec,
    _width,
    apply_gates,
    basis_rotation,
    evolve,
    exact_distribution,
    exact_expectation,
    sample,
    simulate,
)

from conftest import (
    embed_unitary,
    load_perfbench,
    make_cut_circuit,
    ref_distribution,
    ref_state,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def bell_circuit():
    return Circuit(2, (h(0), cnot(0, 1)), ())


class TestSimulate:
    def test_empty_circuit_is_zero_state(self):
        psi = simulate(Circuit(1, (), ()))
        assert np.array_equal(psi, [1.0, 0.0])

    def test_hadamard(self):
        psi = simulate(Circuit(1, (h(0),), ()))
        assert np.allclose(psi, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_bell_state(self):
        psi = simulate(bell_circuit())
        assert np.allclose(psi, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        circ = random_circuit(n, 3, seed)
        got = simulate(circ)
        want = ref_state(circ)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_norm_preserved(self):
        for seed in range(5):
            psi = simulate(random_circuit(5, 4, seed))
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-10

    def test_too_wide(self):
        with pytest.raises(TooWide):
            simulate(Circuit(15, (), ()))

    def test_rejects_cut_circuits(self):
        with pytest.raises(ValueError):
            simulate(Circuit(1, (), (CutPoint(0, -1, 1),)))

    @pytest.mark.parametrize("size", [0, 3, 6])
    def test_state_length_must_be_a_power_of_two(self, size):
        # a state is a plain amplitude vector, so its width is read from
        # its length; any other length would fail inside numpy
        psi = np.ones(size, dtype=complex)
        with pytest.raises(ValueError, match=r"2\^n amplitudes, got %d" % size):
            apply_gates(psi, ())
        with pytest.raises(ValueError, match=r"2\^n amplitudes"):
            exact_distribution(psi, ())


def tensordot_apply_gates(state, gates):
    """The earlier kernel, kept as the reference: one tensordot and one
    moveaxis per gate, the state always in qubit order."""
    n = _width(state)
    psi = state.reshape((2,) * n) if n else state
    for g in gates:
        k = len(g.qubits)
        u = gate_matrix(g).reshape((2,) * (2 * k))
        psi = np.tensordot(u, psi, axes=(list(range(k, 2 * k)), list(g.qubits)))
        psi = np.moveaxis(psi, list(range(k)), list(g.qubits))
    return psi.reshape(-1)


def dense_start(start, live, n):
    """A (2^len(live), batch) start over the live wires (live[0] most
    significant), every other wire |0>, as (2^n, batch) by index arithmetic."""
    full = np.zeros((2 ** n, start.shape[1]), dtype=complex)
    for i, row in enumerate(start):
        full[sum(((i >> (len(live) - 1 - j)) & 1) << (n - 1 - q) for j, q in enumerate(live))] = row
    return full


def check_run(circuit, start, live):
    """_run against the reference run on each column of start (x) |0>, within
    1e-12; returns _run's states."""
    got = simulator._run(circuit, start, live)
    want = np.stack([tensordot_apply_gates(column, circuit.gates)
                     for column in dense_start(start, live, circuit.n_qubits).T], axis=1)
    assert got.shape == want.shape and np.max(np.abs(got - want)) < 1e-12
    return got


def check_downstream_pass(f2, check, monkeypatch):
    """cut_amplitudes(f2) runs one pass of its body from the 2^K identity
    over the cut wires, which check(column, gates) accepts on every start
    column (x) |0>; its rows are the pass's states, which check_run accepts."""
    seen = []

    def checking_run(circuit, start, live):
        for column in dense_start(start, live, circuit.n_qubits).T:
            check(column, circuit.gates)
        seen.append((live, start.copy(), check_run(circuit, start, live)))
        return seen[-1][2]

    monkeypatch.setattr(fragmenter, "_run", checking_run)
    psi = fragmenter.cut_amplitudes(f2)
    (live, start, states), = seen
    k = len(live)
    assert live == tuple(q for _, q in f2.downstream_cut_qubits)
    assert np.array_equal(start, np.eye(2 ** k))
    assert np.array_equal(psi, states.T) and psi.shape == (2 ** k, 2 ** f2.circuit.n_qubits)


def haar_unitary(rng, k):
    dim = 2 ** k
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, n):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return amps / np.linalg.norm(amps)


class TestKernel:
    """apply_gates must give the reference's amplitudes to the bit: seeded
    shot draws depend on every last bit of a probability."""

    def check(self, state, gates):
        before = state.copy()
        got = apply_gates(state, gates)
        assert np.array_equal(state, before)  # input left intact
        want = tensordot_apply_gates(state, gates)
        assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        self.check(random_state(rng, n), random_circuit(n, 4, seed).gates)

    @pytest.mark.parametrize("seed", range(4))
    def test_extra_cz_and_reversed_cnot(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 5
        gates = list(random_circuit(n, 3, seed).gates)
        gates[2:2] = [cz(3, 1), cnot(4, 0), cz(0, 4)]
        gates += [cnot(2, 1), cnot(4, 3), cz(2, 0)]
        self.check(random_state(rng, n), gates)

    @pytest.mark.parametrize("targets", [(1, 0), (3, 1), (2, 0, 1), (3, 1, 2), (1, 3, 0)])
    def test_opaque_unitaries_on_unsorted_targets(self, targets):
        rng = np.random.default_rng(len(targets) * 10 + targets[0])
        n = 4
        gates = [h(0), unitary(haar_unitary(rng, len(targets)), *targets), cnot(0, 3),
                 unitary(haar_unitary(rng, 2), 2, 1), h(3)]
        self.check(random_state(rng, n), gates)

    def test_single_qubit(self):
        rng = np.random.default_rng(1)
        self.check(random_state(rng, 1), random_circuit(1, 5, 1).gates)

    def test_empty_gate_list(self):
        rng = np.random.default_rng(2)
        self.check(random_state(rng, 3), ())
        self.check(np.array([1.0 + 0j]), ())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_batched_downstream_state(self, k, monkeypatch):
        # cut_amplitudes runs all 2^K inputs at once, as a batch from the
        # 2^K identity over the cut wires, every other wire |0>
        _, f2 = bipartition(make_cut_circuit(4, 4, k, 2, 60 + k))
        check_downstream_pass(f2, self.check, monkeypatch)

    def test_simulate_start_state_is_the_kron_chain(self):
        # |0...0>, bitwise; a product start is the device circuit's job
        circ = random_circuit(4, 3, 9)
        start = np.array([1.0], dtype=complex)
        for _ in range(4):
            start = np.kron(start, np.array([1.0, 0.0]))
        want = tensordot_apply_gates(start, circ.gates)
        assert np.array_equal(simulate(circ), want)
        assert np.array_equal(simulate(Circuit(4, (), ())), start)


def mixed_gates(rng, n, seed):
    """A random circuit with reversed cnots, czs and opaque 2-, 3- and
    5-qubit unitaries on unsorted targets spliced in, those that fit n."""
    gates = list(random_circuit(n, 3, seed).gates)
    spliced = [(cnot, (n - 1, 0)), (cz, (n - 2, 1)), (cnot, (3, 1)),
               (2, (n - 1, 2)), (3, (4, 0, n - 3)), (5, (n - 2, 1, 5, 0, 3))]
    spliced = [make(*qubits) if callable(make) else unitary(haar_unitary(rng, make), *qubits)
               for make, qubits in spliced
               if len(set(qubits)) == len(qubits) and 0 <= min(qubits) and max(qubits) < n]
    for g in spliced:
        i = int(rng.integers(len(gates) + 1))
        gates[i:i] = [g]
    return gates


def caps(gates):
    """How many caps _fuse tries: up to FUSE_WIDTH, and no more than the
    gates' qubit count, past which every cap gives one block."""
    return min(len({q for g in gates for q in g.qubits}), simulator.FUSE_WIDTH)


class TestFusedKernel:
    """A kept program (evolve, simulate) makes one product per block of the
    grouping _fuse chooses, at every width, so it agrees with the reference
    to rounding, not to the bit; apply_gates of the same gates, one product
    per gate, is the reference to the bit at every width."""

    def check(self, state, gates):
        before = state.copy()
        got = evolve(state, Circuit(_width(state), tuple(gates), ()))
        assert np.array_equal(state, before)  # input left intact
        want = tensordot_apply_gates(state, gates)
        assert got.shape == want.shape and np.max(np.abs(got - want)) < 1e-12
        assert np.array_equal(apply_gates(state, gates), want)

    @pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
    def test_random_circuits_match_the_reference(self, n):
        rng = np.random.default_rng(300 + n)
        self.check(random_state(rng, n), mixed_gates(rng, n, 300 + n))

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_narrower_states_are_bitwise_the_reference(self, n):
        # apply_gates never fuses, so on a second draw of circuits it is
        # still the reference to the bit
        rng = np.random.default_rng(400 + n)
        state, gates = random_state(rng, n), mixed_gates(rng, n, 400 + n)
        assert np.array_equal(apply_gates(state, gates), tensordot_apply_gates(state, gates))

    @pytest.mark.parametrize("n", [1, 12, MAX_QUBITS])
    def test_empty_gate_list(self, n):
        state = random_state(np.random.default_rng(n), n)
        assert np.array_equal(evolve(state, Circuit(n, (), ())), state)
        assert np.array_equal(apply_gates(state, ()), state)

    def test_only_kept_programs_are_fused(self, monkeypatch):
        fuse, group, seen = simulator._fuse, simulator._group, []
        monkeypatch.setattr(simulator, "_fuse", lambda gates: seen.append(gates) or fuse(gates))
        monkeypatch.setattr(simulator, "_group", lambda gates, cap: seen.append(cap) or group(gates, cap))
        rng = np.random.default_rng(5)
        for n in (2, MAX_QUBITS):
            circ = random_circuit(n, 2, 5)
            apply_gates(random_state(rng, n), circ.gates)
            assert seen == []
            evolve(random_state(rng, n), circ)
            # one choice, from the grouping at every cap up to the qubit count
            assert seen == [circ.gates, *range(1, caps(circ.gates) + 1)]
            seen.clear()

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_batched_multicut_downstream_state(self, k, monkeypatch):
        _, f2 = bipartition(load_perfbench("workloads").multicut_circuit(k, 201))
        check_downstream_pass(f2, self.check, monkeypatch)


@st.composite
def gate_lists(draw, max_n=7):
    """Up to 30 gates on n <= max_n qubits: h, rx, cnot, cz and opaque
    unitaries of 1 to 6 qubits, on targets in any order."""
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    kinds = ("h", "rx", "unitary") + (("cnot", "cz") if n > 1 else ())
    gates = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(kinds))
        width = draw(st.integers(1, min(n, 6))) if kind == "unitary" else 1 + (kind[0] == "c")
        targets = draw(st.permutations(range(n)))[:width]
        if kind == "unitary":
            gates.append(unitary(haar_unitary(rng, width), *targets))
        elif kind == "rx":
            gates.append(rx(float(rng.uniform(0.0, 6.28)), *targets))
        else:
            gates.append(Gate(kind, tuple(targets)))
    return n, gates, seed


class TestKeptPrograms:
    """evolve compiles a circuit once per live-wire tuple (all its qubits;
    wider states are a batch) from the blocks _fuse chooses and keeps the
    program on the circuit; apply_gates compiles on every call, one product
    per gate."""

    @pytest.mark.parametrize("n", range(2, MAX_QUBITS + 1))
    def test_evolve_is_apply_gates_compiled_once(self, n, monkeypatch):
        circ = random_circuit(n - 1, 2, n)
        chosen, built, grouped = [], [], []
        fuse, block_matrix, group = simulator._fuse, simulator._block_matrix, simulator._group
        monkeypatch.setattr(simulator, "_fuse",
                            lambda gates: chosen.append(fuse(gates)) or chosen[-1])
        monkeypatch.setattr(simulator, "_block_matrix", lambda qubits, members, held: (
            built.append((members, held)) or block_matrix(qubits, members, held)))
        monkeypatch.setattr(simulator, "_group",
                            lambda gates, cap: grouped.append(gates) or group(gates, cap))
        rng = np.random.default_rng(n)
        for _ in range(2):
            for width in (n, n - 1):
                state = random_state(rng, width)
                got, want = evolve(state, circ), apply_gates(state, circ.gates)
                assert np.max(np.abs(got - want)) < 1e-12
        # evolve chooses once for both widths, from one grouping per cap, and
        # builds one matrix per chosen block, on all its columns since every
        # wire is live; apply_gates never groups
        assert grouped == [circ.gates] * caps(circ.gates)
        assert chosen == [fuse(circ.gates)]
        assert built == [(members, qubits) for qubits, members in chosen[0]]
        programs = vars(circ)["_programs"]
        assert list(programs) == [tuple(range(n - 1))]
        (steps, *_), = programs.values()
        assert len(steps) == len(chosen[0])
        assert all(not u.flags.writeable for u, *_ in steps)

    def test_simulate_keeps_the_program_on_the_circuit(self):
        circ = random_circuit(4, 3, 2)
        psi = simulate(circ)
        want = tensordot_apply_gates(np.eye(16, dtype=complex)[0], circ.gates)
        assert np.max(np.abs(psi - want)) < 1e-12
        # simulate runs from no live wire
        ((live, (steps, *_)),) = vars(circ)["_programs"].items()
        assert live == ()
        assert len(steps) == len(simulator._fuse(circ.gates))
        assert all(not u.flags.writeable for u, *_ in steps)
        assert np.array_equal(simulate(circ), psi)
        assert np.array_equal(simulate(Circuit(4, circ.gates, ())), psi)

    @given(gate_lists(MAX_QUBITS))
    def test_evolve_and_simulate_match_the_reference(self, case):
        n, gates, seed = case
        circ = Circuit(n, tuple(gates), ())
        start = np.eye(1, 2 ** n, dtype=complex)[0]
        assert np.max(np.abs(simulate(circ) - tensordot_apply_gates(start, gates))) < 1e-12
        state = random_state(np.random.default_rng(seed), n)
        assert np.max(np.abs(evolve(state, circ) - tensordot_apply_gates(state, gates))) < 1e-12


class TestGrowingState:
    """_run starts from the live wires alone and grows the state by each
    block's new wires, filling the never-touched ones in as |0> at the end;
    one program per live-wire tuple serves any batch."""

    @given(gate_lists(MAX_QUBITS), st.data())
    def test_run_matches_the_reference_from_any_live_wires(self, case, data):
        n, gates, seed = case
        live = tuple(data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))])
        rng = np.random.default_rng(seed)
        circ = Circuit(n, tuple(gates), ())
        for batch in data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)):
            shape = (2 ** len(live), batch)
            check_run(circ, rng.normal(size=shape) + 1j * rng.normal(size=shape), live)
        assert list(vars(circ)["_programs"]) == [live]

    @pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
    def test_empty_circuit_is_bitwise_the_zero_state(self, n):
        zero = np.eye(1, 2 ** n, dtype=complex)[0]
        assert simulate(Circuit(n, (), ())).tobytes() == zero.tobytes()

    def test_untouched_wires_are_zero(self):
        # wire 1 is neither live nor touched; wire 3 is live but untouched
        start = np.array([[0.6, 0.8j], [0.8, -0.6j]])
        got = check_run(Circuit(4, (h(0), cnot(0, 2)), ()), start, (3,))
        assert not np.any(got.reshape(2, 2, 2, 2, 2)[:, 1])


class TestWidthBoundary:
    """A state narrower than the gates' qubits raised 'ValueError: 1 is not
    in list' from inside the compiler; now both widths are named before
    anything is compiled or run."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        for name in ("_plan", "_apply"):
            real = getattr(simulator, name)
            monkeypatch.setattr(simulator, name, lambda *a, real=real: calls.append(a) or real(*a))
        return calls

    def test_evolve_names_both_widths(self, kernel_calls):
        circ = Circuit(3, (h(0), cnot(0, 1)), ())
        with pytest.raises(ValueError, match="a 2-qubit state is narrower than the 3-qubit circuit"):
            evolve(np.full(4, 0.5, dtype=complex), circ)
        assert kernel_calls == [] and "_programs" not in vars(circ)

    @pytest.mark.parametrize("qubit", [2, 5, -1])
    def test_apply_gates_names_both_widths(self, qubit, kernel_calls):
        gates = [h(0), Gate("cnot", (qubit, 1))]
        with pytest.raises(ValueError, match=r"gates on qubits %d\.\.%d do not fit a 2-qubit state"
                           % (min(qubit, 0), max(qubit, 1))):
            apply_gates(np.full(4, 0.5, dtype=complex), gates)
        assert kernel_calls == []


def pass_cost(blocks):
    """The estimated cost of a grouping: FUSE_PASS plus 2^k per k-qubit block."""
    return sum(simulator.FUSE_PASS + 2 ** len(qubits) for qubits, _ in blocks)


class TestGrouping:
    @given(gate_lists())
    def test_blocks_in_order_equal_gates_in_order(self, case):
        n, gates, seed = case
        state = random_state(np.random.default_rng(seed), n)
        want = tensordot_apply_gates(state, gates)
        for cap in range(1, simulator.FUSE_WIDTH + 1):
            blocks = simulator._group(gates, cap)
            members = [g for _, block in blocks for g in block]
            assert sorted(map(id, members)) == sorted(map(id, gates))
            for qubits, block in blocks:
                union = []
                for g in block:
                    union += [q for q in g.qubits if q not in union]
                assert list(qubits) == union
                assert len(qubits) <= cap or len(block) == 1
            # per qubit, the gates that touch it keep their order
            for q in range(n):
                assert ([id(g) for g in members if q in g.qubits]
                        == [id(g) for g in gates if q in g.qubits])
            got = simulator._apply(state.reshape(-1, 1), simulator._plan(
                blocks, n, range(n), simulator._block_matrix)).reshape(-1)
            assert np.max(np.abs(got - want)) < 1e-12

    @given(gate_lists(MAX_QUBITS))
    def test_the_chosen_grouping_is_the_cheapest_narrowest_cap(self, case):
        _, gates, _ = case
        groupings = [simulator._group(gates, cap) for cap in range(1, simulator.FUSE_WIDTH + 1)]
        costs = [pass_cost(blocks) for blocks in groupings]
        chosen = simulator._fuse(gates)
        assert simulator._fuse(list(gates)) == chosen
        assert pass_cost(chosen) == min(costs)
        # a tie goes to the narrowest cap
        assert chosen == groupings[costs.index(min(costs))]

    def test_wider_blocks_are_chosen_when_they_cost_less(self):
        # 3 layers of rx + CNOT chain on 6 qubits: one 6-qubit block costs
        # FUSE_PASS + 64, less than the blocks of any narrower cap
        gates = [g for _ in range(3) for g in ([rx(0.3, q) for q in range(6)]
                                                + [cnot(q, q + 1) for q in range(5)])]
        (qubits, members), = simulator._fuse(gates)
        assert qubits == list(range(6)) and members == gates
        assert all(pass_cost(simulator._group(gates, cap)) > simulator.FUSE_PASS + 64
                   for cap in range(1, 6))
        # two disjoint 1-qubit gates: one 2-qubit block (FUSE_PASS + 4) beats
        # two 1-qubit blocks (2 FUSE_PASS + 4)
        assert simulator._fuse([h(0), h(1)]) == [([0, 1], [h(0), h(1)])]

    def test_a_tie_goes_to_the_narrower_cap(self):
        # caps 3 and 5 group these gates differently at the same least cost
        gates = [cnot(2, 1), cnot(5, 0), cnot(3, 1), h(6), cnot(0, 6), h(4)]
        narrow, wide = simulator._group(gates, 3), simulator._group(gates, 5)
        assert narrow != wide and pass_cost(narrow) == pass_cost(wide)
        assert pass_cost(narrow) == min(pass_cost(simulator._group(gates, cap))
                                        for cap in range(1, simulator.FUSE_WIDTH + 1))
        assert simulator._fuse(gates) == narrow


class TestExactExpectation:
    def test_z_on_zero_state(self):
        psi = simulate(Circuit(1, (), ()))
        assert exact_expectation(psi, ObservableSpec.pauli_string("Z", (0,))) == 1.0

    def test_bell_single_x_vanishes(self):
        psi = simulate(bell_circuit())
        obs = ObservableSpec.pauli_string("X", (0,))
        assert abs(exact_expectation(psi, obs)) < 1e-15

    def test_bell_plus_projector_half(self):
        # |+><+| on the first qubit equals (I + X)/2
        psi = simulate(bell_circuit())
        x0 = exact_expectation(psi, ObservableSpec.pauli_string("X", (0,)))
        assert abs(0.5 * (1.0 + x0) - 0.5) < 1e-12
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        dense = embed_unitary(plus, (0,), 2)
        assert abs(np.vdot(psi, dense @ psi).real - 0.5) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_pauli_string_matches_dense(self, seed):
        rng = np.random.default_rng(seed + 100)
        n = 4
        circ = random_circuit(n, 2, seed)
        labels = [("I", "X", "Y", "Z")[i] for i in rng.integers(0, 4, size=n)]
        obs = ObservableSpec.pauli_string(labels, range(n))
        dense = np.eye(1, dtype=complex)
        for lab in labels:
            dense = np.kron(dense, PauliOp(lab).matrix)
        psi = ref_state(circ)
        want = np.vdot(psi, dense @ psi).real
        got = exact_expectation(simulate(circ), obs)
        assert abs(got - want) < 1e-10

    def test_projector_expectation_is_probability(self):
        circ = random_circuit(3, 2, 3)
        psi = simulate(circ)
        p = exact_distribution(psi, (0, 1, 2))
        obs = ObservableSpec.projector("101", (0, 1, 2))
        assert abs(exact_expectation(psi, obs) - p[0b101]) < 1e-15

    @pytest.mark.parametrize("bits", ["2", "x", "1 ", "+1"])
    def test_projector_bits_must_be_binary(self, bits):
        # any other character selects no outcome, so the projector would read 0
        with pytest.raises(ValueError):
            ObservableSpec.projector(bits, tuple(range(len(bits))))

    @pytest.mark.parametrize("kind", ["Pauli", "expectation", ""])
    def test_unknown_kind_rejected(self, kind):
        # reconstruct would read an unknown kind as an empty projector, 1.0
        with pytest.raises(ValueError):
            ObservableSpec(kind, (0, 1))

    @pytest.mark.parametrize("make", [
        lambda: ObservableSpec.pauli_string("ZZ", [3, 3]),
        lambda: ObservableSpec.pauli_string("XZ", [0, 0]),
        lambda: ObservableSpec.projector("01", [2, 2]),
        lambda: ObservableSpec.distribution([1, 0, 1]),
    ])
    def test_repeated_qubit_rejected(self, make):
        # before the check, reconstruct returned 1.0 or 0.0 for these, or
        # failed with a TypeError while splitting the observable
        with pytest.raises(SupportMismatch):
            make()

    def test_support_mismatch(self):
        psi = simulate(Circuit(1, (), ()))
        with pytest.raises(SupportMismatch):
            exact_expectation(psi, ObservableSpec.pauli_string("Z", (3,)))

    @pytest.mark.parametrize("qubit", [0.7, 1.0, True])
    def test_non_integer_observable_qubit_rejected(self, qubit):
        # int() would read 0.7 as qubit 0
        with pytest.raises(ValueError):
            ObservableSpec.pauli_string("Z", [qubit])

    def test_nan_state_raises(self):
        # a NaN angle leaves no real expectation; the residue check raises
        # an error, which python -O keeps, instead of returning NaN
        psi = simulate(Circuit(1, (Gate("rx", (0,), (float("nan"),)),), ()))
        with pytest.raises(GoldcutError):
            exact_expectation(psi, ObservableSpec.pauli_string("X", (0,)))


class TestExactDistribution:
    def test_zero_state(self):
        psi = simulate(Circuit(1, (), ()))
        assert np.array_equal(exact_distribution(psi, (0,)), [1.0, 0.0])

    def test_bell(self):
        p = exact_distribution(simulate(bell_circuit()), (0, 1))
        assert np.allclose(p, [0.5, 0, 0, 0.5], atol=1e-15)

    def test_full_matches_amplitude_oracle(self):
        from goldcut.circuits import golden_ansatz, uncut

        circ = uncut(golden_ansatz(3, 1, 0))
        got = exact_distribution(simulate(circ), range(3))
        assert np.max(np.abs(got - ref_distribution(circ))) < 1e-12

    def test_marginal_and_reordering(self):
        circ = random_circuit(4, 2, 6)
        full = ref_distribution(circ)
        got = exact_distribution(simulate(circ), (2, 0))
        want = np.zeros(4)
        for i, p in enumerate(full):
            b2 = (i >> 1) & 1
            b0 = (i >> 3) & 1
            want[(b2 << 1) | b0] += p
        assert np.max(np.abs(got - want)) < 1e-12

    def test_sums_to_one(self):
        p = exact_distribution(simulate(random_circuit(5, 3, 8)), range(5))
        assert abs(p.sum() - 1.0) < 1e-10


class TestSample:
    def test_deterministic_outcome(self):
        draws = sample(simulate(Circuit(1, (), ())), (0,), 100, 1)
        assert np.array_equal(draws, [100, 0])
        assert np.issubdtype(draws.dtype, np.integer)

    def test_same_seed_identical(self):
        psi = simulate(bell_circuit())
        a = sample(psi, (0, 1), 1000, 7)
        b = sample(psi, (0, 1), 1000, 7)
        assert np.array_equal(a, b)

    def test_bell_frequencies(self):
        draws = sample(simulate(bell_circuit()), (0, 1), 10 ** 5, 13)
        assert draws.sum() == 10 ** 5
        assert abs(draws[0] / 10 ** 5 - 0.5) < 0.01
        assert draws[1] == 0 and draws[2] == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_total_variation_bound(self, seed):
        n = 6
        circ = random_circuit(n, 2, seed + 40)
        psi = simulate(circ)
        p = exact_distribution(psi, range(n))
        emp = sample(psi, range(n), 10 ** 5, seed) / 10 ** 5
        assert 0.5 * np.abs(emp - p).sum() < 0.02

    @pytest.mark.parametrize("shots", [10.5, 10.0, True, np.float64(10.0), 0])
    def test_non_integer_or_zero_shots_rejected(self, shots):
        # a float count would draw int(shots) and be divided by shots
        with pytest.raises(ValueError):
            sample(simulate(bell_circuit()), (0, 1), shots, 7)

    def test_numpy_integer_shots_accepted(self):
        psi = simulate(bell_circuit())
        assert np.array_equal(sample(psi, (0, 1), np.int64(100), 7), sample(psi, (0, 1), 100, 7))


# The one eigenstate table is the preparation gates the simulator runs
# (fragmenter.prep_state); SIDE_MAPS assumes the signs checked here: the
# "p" label is the +1 eigenstate of its Pauli and "m" the -1 eigenstate.
PAULI_LABELS = [PauliOp.X, PauliOp.Y, PauliOp.Z]


class TestEigenstates:
    def test_table_examples(self):
        for p in PAULI_LABELS:
            plus, minus = prep_state(p.value + "p"), prep_state(p.value + "m")
            assert np.max(np.abs(p.matrix @ plus - plus)) < 1e-15
            assert np.max(np.abs(p.matrix @ minus + minus)) < 1e-15
        assert np.allclose(prep_state("Xm"), [INV_SQRT2, -INV_SQRT2])
        assert np.allclose(prep_state("Yp"), [INV_SQRT2, INV_SQRT2 * 1j])

    def test_identity_uses_index(self):
        # the identity row reads the Z preparations as |0> and |1>
        assert np.array_equal(prep_state("Zp"), [1, 0])
        assert np.array_equal(prep_state("Zm"), [0, 1])

    def test_six_distinct_states(self):
        states = [prep_state(label) for label in PREP_LABELS]
        assert len(states) == 6
        for i, a in enumerate(states):
            for b in states[i + 1:]:
                assert abs(abs(np.vdot(a, b)) - 1.0) > 1e-6

    @pytest.mark.parametrize("p", PAULI_LABELS)
    def test_completeness(self, p):
        # exact to a couple of ulp because of 1/sqrt(2)
        outer = sum(sign * np.outer(prep_state(p.value + s), prep_state(p.value + s).conj())
                    for s, sign in (("p", 1), ("m", -1)))
        assert np.max(np.abs(outer - p.matrix)) < 5e-16

    def test_identity_projectors_sum_to_identity(self):
        total = sum(np.outer(prep_state(s), prep_state(s).conj()) for s in ("Zp", "Zm"))
        assert np.array_equal(total, np.eye(2))


class TestBasisRotation:
    def test_z_empty(self):
        assert basis_rotation(PauliOp.Z) == []

    def test_x_is_hadamard(self):
        gates = basis_rotation(PauliOp.X)
        assert [g.kind for g in gates] == ["h"]

    @pytest.mark.parametrize("p", [PauliOp.X, PauliOp.Y, PauliOp.Z])
    def test_conjugation_maps_to_z(self, p):
        r = np.eye(2, dtype=complex)
        for g in basis_rotation(p):
            r = gate_matrix(g) @ r
        assert np.max(np.abs(r @ p.matrix @ r.conj().T - PauliOp.Z.matrix)) < 1e-10

    @pytest.mark.parametrize("p", [PauliOp.X, PauliOp.Y, PauliOp.Z])
    def test_plus_eigenstate_reads_bit_zero(self, p):
        psi = apply_gates(prep_state(p.value + "p"), basis_rotation(p, 0))
        assert abs(abs(psi[0]) - 1.0) < 1e-12

    def test_identity_refused(self):
        with pytest.raises(IdentityBasisRequested):
            basis_rotation(PauliOp.I)
