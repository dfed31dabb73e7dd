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
    InvalidInitial,
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

    def test_custom_initial_matches_reference(self):
        circ = random_circuit(3, 2, 21)
        init = [None,
                np.array([0.6, 0.8j]),
                np.array([INV_SQRT2, -INV_SQRT2])]
        got = simulate(circ, init)
        want = ref_state(circ, init)
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

    def test_invalid_initial(self):
        with pytest.raises(InvalidInitial):
            simulate(Circuit(1, (), ()), [np.array([1.0, 1.0])])

    @pytest.mark.parametrize("initial", [[None], [None, None, None]])
    def test_initial_length_must_match_width(self, initial):
        # one entry per qubit, so no wire is left unset or silently dropped
        with pytest.raises(InvalidInitial):
            simulate(Circuit(2, (), ()), initial)

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
        # cut_amplitudes runs all 2^K inputs at once, with K reference axes
        # after the fragment's own qubits that no gate touches
        _, f2 = bipartition(make_cut_circuit(4, 4, k, 2, 60 + k))
        seen = []

        def checking_apply_gates(state, gates):
            self.check(state, gates)
            seen.append(_width(state))
            return apply_gates(state, gates)

        monkeypatch.setattr(fragmenter, "apply_gates", checking_apply_gates)
        fragmenter.cut_amplitudes(f2)
        assert seen == [f2.circuit.n_qubits + k]

    def test_simulate_start_state_is_the_kron_chain(self):
        circ = random_circuit(4, 3, 9)
        init = [np.array([0.6, 0.8j]), None,
                np.array([INV_SQRT2, -INV_SQRT2]), np.array([0.8, -0.6])]
        start = np.array([1.0], dtype=complex)
        for vec in init:
            start = np.kron(start, np.array([1.0, 0.0]) if vec is None else vec.astype(complex))
        want = tensordot_apply_gates(start, circ.gates)
        assert np.array_equal(simulate(circ, init), want)
        assert np.array_equal(simulate(Circuit(4, (), ()), init), start)


class TestFusedKernel:
    """From FUSE_FROM qubits up, apply_gates makes one product per block of
    up to FUSE_WIDTH qubits, so it agrees with the reference to rounding,
    not to the bit; below, it is the per-gate kernel of TestKernel."""

    def check(self, state, gates):
        before = state.copy()
        got = apply_gates(state, gates)
        assert np.array_equal(state, before)  # input left intact
        want = tensordot_apply_gates(state, gates)
        assert got.shape == want.shape and np.max(np.abs(got - want)) < 1e-12

    def mixed_gates(self, rng, n, seed):
        """A random circuit with reversed cnots, czs and opaque 2-, 3- and
        5-qubit unitaries on unsorted targets spliced in."""
        gates = list(random_circuit(n, 3, seed).gates)
        spliced = [cnot(n - 1, 0), cz(n - 2, 1), cnot(3, 1),
                   unitary(haar_unitary(rng, 2), n - 1, 2),
                   unitary(haar_unitary(rng, 3), 4, 0, n - 3),
                   unitary(haar_unitary(rng, 5), n - 2, 1, 5, 0, 3)]
        for g in spliced:
            i = int(rng.integers(len(gates) + 1))
            gates[i:i] = [g]
        return gates

    @pytest.mark.parametrize("n", range(simulator.FUSE_FROM - 1, MAX_QUBITS + 1))
    def test_random_circuits_match_the_reference(self, n):
        rng = np.random.default_rng(300 + n)
        self.check(random_state(rng, n), self.mixed_gates(rng, n, 300 + n))

    @pytest.mark.parametrize("n", [simulator.FUSE_FROM, MAX_QUBITS])
    def test_empty_gate_list(self, n):
        state = random_state(np.random.default_rng(n), n)
        assert np.array_equal(apply_gates(state, ()), state)

    @pytest.mark.parametrize("n", range(max(simulator.FUSE_FROM - 3, 1), simulator.FUSE_FROM))
    def test_narrower_states_are_bitwise_the_reference(self, n):
        rng = np.random.default_rng(400 + n)
        state, gates = random_state(rng, n), self.mixed_gates(rng, n, 400 + n)
        want = tensordot_apply_gates(state, gates)
        assert np.array_equal(apply_gates(state, gates), want)

    def test_fusion_is_on_from_the_threshold(self, monkeypatch):
        group, seen = simulator._group, []
        monkeypatch.setattr(simulator, "_group", lambda gates: seen.append(gates) or group(gates))
        rng = np.random.default_rng(5)
        wide = random_circuit(simulator.FUSE_FROM, 2, 5).gates
        apply_gates(random_state(rng, simulator.FUSE_FROM - 1),
                    random_circuit(simulator.FUSE_FROM - 1, 2, 5).gates)
        apply_gates(random_state(rng, simulator.FUSE_FROM), wide)
        assert seen == [wide]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_batched_multicut_downstream_state(self, k, monkeypatch):
        _, f2 = bipartition(load_perfbench("workloads").multicut_circuit(k, 201))
        seen = []

        def checking_apply_gates(state, gates):
            self.check(state, gates)
            seen.append(_width(state))
            return apply_gates(state, gates)

        monkeypatch.setattr(fragmenter, "apply_gates", checking_apply_gates)
        fragmenter.cut_amplitudes(f2)
        assert seen == [f2.circuit.n_qubits + k]


@st.composite
def gate_lists(draw):
    """Up to 30 gates on n <= 7 qubits: h, rx, cnot, cz and opaque unitaries
    of 1 to 6 qubits, on targets in any order."""
    n = draw(st.integers(1, 7))
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


class TestGrouping:
    @given(gate_lists())
    def test_blocks_in_order_equal_gates_in_order(self, case):
        n, gates, seed = case
        blocks = simulator._group(gates)
        members = [g for _, block in blocks for g in block]
        assert sorted(map(id, members)) == sorted(map(id, gates))
        for qubits, block in blocks:
            union = []
            for g in block:
                union += [q for q in g.qubits if q not in union]
            assert list(qubits) == union
            assert len(qubits) <= simulator.FUSE_WIDTH or len(block) == 1
        # per qubit, the gates that touch it keep their order
        for q in range(n):
            assert ([id(g) for g in members if q in g.qubits]
                    == [id(g) for g in gates if q in g.qubits])
        state = random_state(np.random.default_rng(seed), n)
        ops = [(simulator._block_matrix(qubits, block), qubits) for qubits, block in blocks]
        got = simulator._apply(state, n, ops)
        want = tensordot_apply_gates(state, gates)
        assert np.max(np.abs(got - want)) < 1e-12


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
        circ = Circuit(1, tuple(basis_rotation(p, 0)), ())
        psi = simulate(circ, [prep_state(p.value + "p")])
        assert abs(abs(psi[0]) - 1.0) < 1e-12

    def test_identity_refused(self):
        with pytest.raises(IdentityBasisRequested):
            basis_rotation(PauliOp.I)
