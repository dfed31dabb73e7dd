"""Statevector simulation, observables, sampling, and basis helpers."""
import numpy as np
import pytest

from goldcut.circuits import Circuit, CutPoint, Gate, PauliOp, cnot, gate_matrix, h, random_circuit
from goldcut.errors import (
    GoldcutError,
    IdentityBasisRequested,
    InvalidInitial,
    SupportMismatch,
    TooWide,
)
from goldcut.fragmenter import PREP_LABELS, prep_state
from goldcut.simulator import (
    ObservableSpec,
    basis_rotation,
    exact_distribution,
    exact_expectation,
    sample,
    simulate,
)

from conftest import embed_unitary, ref_distribution, ref_state

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def bell_circuit():
    return Circuit(2, (h(0), cnot(0, 1)), ())


class TestSimulate:
    def test_empty_circuit_is_zero_state(self):
        sv = simulate(Circuit(1, (), ()))
        assert np.array_equal(sv.amplitudes, [1.0, 0.0])

    def test_hadamard(self):
        sv = simulate(Circuit(1, (h(0),), ()))
        assert np.allclose(sv.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_bell_state(self):
        sv = simulate(bell_circuit())
        assert np.allclose(sv.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        circ = random_circuit(n, 3, seed)
        got = simulate(circ).amplitudes
        want = ref_state(circ)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_custom_initial_matches_reference(self):
        circ = random_circuit(3, 2, 21)
        init = [None,
                np.array([0.6, 0.8j]),
                np.array([INV_SQRT2, -INV_SQRT2])]
        got = simulate(circ, init).amplitudes
        want = ref_state(circ, init)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_norm_preserved(self):
        for seed in range(5):
            sv = simulate(random_circuit(5, 4, seed))
            assert abs(np.linalg.norm(sv.amplitudes) - 1.0) < 1e-10

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


class TestExactExpectation:
    def test_z_on_zero_state(self):
        sv = simulate(Circuit(1, (), ()))
        assert exact_expectation(sv, ObservableSpec.pauli_string("Z", (0,))) == 1.0

    def test_bell_single_x_vanishes(self):
        sv = simulate(bell_circuit())
        obs = ObservableSpec.pauli_string("X", (0,))
        assert abs(exact_expectation(sv, obs)) < 1e-15

    def test_bell_plus_projector_half(self):
        # |+><+| on the first qubit equals (I + X)/2
        sv = simulate(bell_circuit())
        x0 = exact_expectation(sv, ObservableSpec.pauli_string("X", (0,)))
        assert abs(0.5 * (1.0 + x0) - 0.5) < 1e-12
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        dense = embed_unitary(plus, (0,), 2)
        psi = sv.amplitudes
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
        sv = simulate(circ)
        p = exact_distribution(sv, (0, 1, 2))
        obs = ObservableSpec.projector("101", (0, 1, 2))
        assert abs(exact_expectation(sv, obs) - p[0b101]) < 1e-15

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
        sv = simulate(Circuit(1, (), ()))
        with pytest.raises(SupportMismatch):
            exact_expectation(sv, ObservableSpec.pauli_string("Z", (3,)))

    @pytest.mark.parametrize("qubit", [0.7, 1.0, True])
    def test_non_integer_observable_qubit_rejected(self, qubit):
        # int() would read 0.7 as qubit 0
        with pytest.raises(ValueError):
            ObservableSpec.pauli_string("Z", [qubit])

    def test_nan_state_raises(self):
        # a NaN angle leaves no real expectation; the residue check raises
        # an error, which python -O keeps, instead of returning NaN
        sv = simulate(Circuit(1, (Gate("rx", (0,), (float("nan"),)),), ()))
        with pytest.raises(GoldcutError):
            exact_expectation(sv, ObservableSpec.pauli_string("X", (0,)))


class TestExactDistribution:
    def test_zero_state(self):
        sv = simulate(Circuit(1, (), ()))
        assert np.array_equal(exact_distribution(sv, (0,)), [1.0, 0.0])

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
        sv = simulate(bell_circuit())
        a = sample(sv, (0, 1), 1000, 7)
        b = sample(sv, (0, 1), 1000, 7)
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
        sv = simulate(circ)
        p = exact_distribution(sv, range(n))
        emp = sample(sv, range(n), 10 ** 5, seed) / 10 ** 5
        assert 0.5 * np.abs(emp - p).sum() < 0.02

    @pytest.mark.parametrize("shots", [10.5, 10.0, True, np.float64(10.0), 0])
    def test_non_integer_or_zero_shots_rejected(self, shots):
        # a float count would draw int(shots) and be divided by shots
        with pytest.raises(ValueError):
            sample(simulate(bell_circuit()), (0, 1), shots, 7)

    def test_numpy_integer_shots_accepted(self):
        sv = simulate(bell_circuit())
        assert np.array_equal(sample(sv, (0, 1), np.int64(100), 7), sample(sv, (0, 1), 100, 7))


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
        sv = simulate(circ, [prep_state(p.value + "p")])
        assert abs(abs(sv.amplitudes[0]) - 1.0) < 1e-12

    def test_identity_refused(self):
        with pytest.raises(IdentityBasisRequested):
            basis_rotation(PauliOp.I)
