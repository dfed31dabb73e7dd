"""End-to-end reconstruction pipeline over whole circuits."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

import goldcut.golden as golden
import goldcut.pipeline as pipeline
from goldcut.circuits import Circuit, CutPoint, PauliOp, bipartition, cnot, golden_ansatz, h
from goldcut.errors import NotBipartite, SupportMismatch
from goldcut.fragmenter import downstream_variants, run_fragment, upstream_variants
from goldcut.golden import detect_statistical
from goldcut.metrics import cut_counts
from goldcut.reconstructor import (
    build_tensor,
    contract_distribution,
    contract_operator,
    operator_tensor,
)
from goldcut.pipeline import (
    ground_truth_distribution,
    ground_truth_expectation,
    parent_permutation,
    reconstruct,
    split_observable,
    uncut_sampled_distribution,
    upstream_report,
)
from goldcut.simulator import ObservableSpec

from conftest import count_execution, make_cut_circuit


def fig1():
    return Circuit(3, (h(0), cnot(0, 1), cnot(1, 2)), (CutPoint(1, 1, 1),))


class TestSplitObservable:
    def test_pauli_string_factorizes_along_outputs(self):
        f1, f2 = bipartition(fig1())
        obs = ObservableSpec.pauli_string([PauliOp.Z, PauliOp.Z, PauliOp.Z],
                                          [0, 1, 2])
        obs1, obs2 = split_observable(f1, f2, obs)
        assert obs1.qubits == (0,) and obs1.paulis == (PauliOp.Z,)
        assert obs2.qubits == (0, 1)
        assert obs2.paulis == (PauliOp.Z, PauliOp.Z)

    def test_projector_bits_follow_wires(self):
        f1, f2 = bipartition(fig1())
        obs = ObservableSpec.projector("010", [0, 1, 2])
        obs1, obs2 = split_observable(f1, f2, obs)
        assert obs1.bits == "0" and obs1.qubits == (0,)
        assert obs2.bits == "10" and obs2.qubits == (0, 1)


class TestDistributionSupport:
    @pytest.mark.parametrize("qubits", [[0], [4, 3, 2, 1, 0], [0, 9]])
    def test_distribution_on_other_qubits_is_rejected(self, qubits):
        # each of these used to return the full distribution in parent order
        with pytest.raises(SupportMismatch, match="reads parent qubits 0..4 in order"):
            reconstruct(golden_ansatz(5, 2, 7), ObservableSpec.distribution(qubits))

    @pytest.mark.parametrize("shots", [None, 1000])
    def test_full_range_equals_the_default(self, shots):
        circ = golden_ansatz(5, 2, 7)
        default = reconstruct(circ, shots=shots, seed=4, prune="exact")
        full = reconstruct(circ, ObservableSpec.distribution(range(5)), shots=shots, seed=4,
                           prune="exact")
        assert np.array_equal(default.raw_distribution, full.raw_distribution)
        assert np.array_equal(default.distribution, full.distribution)
        if shots is None:
            truth = ground_truth_distribution(circ)
            assert np.max(np.abs(default.raw_distribution - truth)) < 1e-10


class TestFragmentDistributionSupport:
    """A fragment-level distribution reads the fragment's outputs in local
    order; upstream_report(f1, distribution([0])) used to return the full
    (4, 4) tensor of outputs 0 and 1."""

    def fragments(self):
        f1, f2 = bipartition(golden_ansatz(5, 2, 7))
        assert f1.output_qubits == (0, 1) and f2.output_qubits == (0, 1, 2)
        return f1, f2

    @pytest.mark.parametrize("qubits", [[0], [1, 0]])
    @pytest.mark.parametrize("shots", [None, 100])
    def test_upstream_report_rejects_other_supports(self, qubits, shots):
        f1, _ = self.fragments()
        with pytest.raises(SupportMismatch, match="reads the fragment outputs"):
            upstream_report(f1, ObservableSpec.distribution(qubits), shots=shots)

    @pytest.mark.parametrize("qubits", [[0], [1, 0]])
    def test_every_builder_rejects_other_supports(self, qubits):
        # the enumerators read the observable as the builders do, so they
        # reject it before anything runs
        f1, f2 = self.fragments()
        obs = ObservableSpec.distribution(qubits)
        results = run_fragment(f1, upstream_variants(f1))
        a = operator_tensor(f1, ObservableSpec.distribution(f1.output_qubits))
        for call in (lambda: upstream_variants(f1, obs=obs),
                     lambda: downstream_variants(f2, obs=ObservableSpec.distribution(qubits[::-1])),
                     lambda: operator_tensor(f1, obs),
                     lambda: build_tensor(results, obs, "upstream"),
                     lambda: contract_operator(a, f2, ObservableSpec.distribution(qubits[::-1]))):
            with pytest.raises(SupportMismatch, match="reads the fragment outputs"):
                call()

    def test_outputs_in_order_or_empty_read_the_full_tensor(self):
        f1, _ = self.fragments()
        full, _ = upstream_report(f1, ObservableSpec.distribution((0, 1)))
        default, _ = upstream_report(f1)
        empty, _ = upstream_report(f1, ObservableSpec.distribution(()))
        assert full.entries.shape == (4, 4)
        assert np.array_equal(full.entries, default.entries)
        assert np.array_equal(full.entries, empty.entries)


def loop_permutation(f1, f2, n_parent):
    """Bit-by-bit loop over every parent index: the reference that
    parent_permutation's vectorised form must equal."""
    parent_of = [f1.parent_qubits[q] for q in f1.output_qubits]
    parent_of += [f2.parent_qubits[q] for q in f2.output_qubits]
    m = len(parent_of)
    perm = np.zeros(2 ** n_parent, dtype=np.int64)
    for i in range(2 ** n_parent):
        c = 0
        for j, q in enumerate(parent_of):
            bit = (i >> (n_parent - 1 - q)) & 1
            c |= bit << (m - 1 - j)
        perm[i] = c
    return perm


def crossed():
    """Upstream outputs a higher parent wire than the downstream ones, so
    the concatenated order is not the parent order."""
    return Circuit(4, (h(3), cnot(3, 0), cnot(0, 1), cnot(1, 2)), (CutPoint(0, 1, 1),))


class TestParentPermutation:
    @pytest.mark.parametrize("make", [
        fig1,
        crossed,
        lambda: golden_ansatz(5, 2, 3),
        lambda: make_cut_circuit(2, 3, 2, 2, 0),
        lambda: make_cut_circuit(4, 3, 3, 1, 5),
    ])
    def test_matches_loop(self, make):
        circ = make()
        f1, f2 = bipartition(circ)
        got = parent_permutation(f1, f2, circ.n_qubits)
        assert got.dtype == np.int64
        assert np.array_equal(got, loop_permutation(f1, f2, circ.n_qubits))

    def test_crossed_split_is_not_the_identity(self):
        f1, f2 = bipartition(crossed())
        assert not np.array_equal(parent_permutation(f1, f2, 4), np.arange(16))


class TestExactReconstruction:
    @pytest.mark.parametrize("seed", range(4))
    def test_distribution_matches_ground_truth(self, seed):
        circ = make_cut_circuit(2, 3, 2, 2, seed)
        run = reconstruct(circ)
        want = ground_truth_distribution(circ)
        assert np.max(np.abs(run.raw_distribution - want)) < 1e-10
        assert run.expectation is None

    def test_projector_expectation(self):
        run = reconstruct(fig1(), obs=ObservableSpec.projector("000", [0, 1, 2]))
        assert abs(run.expectation - 0.5) < 1e-10
        assert run.distribution is None

    def test_pauli_expectation_matches_ground_truth(self):
        circ = make_cut_circuit(3, 2, 1, 2, 9)
        obs = ObservableSpec.pauli_string([PauliOp.X, PauliOp.Z, PauliOp.Y,
                                           PauliOp.I], [0, 1, 2, 3])
        run = reconstruct(circ, obs=obs)
        assert abs(run.expectation - ground_truth_expectation(circ, obs)) < 1e-10


class TestPruneModes:
    def test_known_and_exact_agree_with_off(self):
        circ = golden_ansatz(5, 1, 2)
        off = reconstruct(circ, prune="off")
        known = reconstruct(circ, prune="known", neglect=[(1, "Y")])
        exact = reconstruct(circ, prune="exact")
        assert np.max(np.abs(off.raw_distribution - known.raw_distribution)) < 1e-10
        assert np.max(np.abs(off.raw_distribution - exact.raw_distribution)) < 1e-10
        assert (1, PauliOp.Y) in exact.neglected
        assert known.k_golden == 1

    def test_exact_prune_reduces_cost(self):
        circ = golden_ansatz(3, 1, 0)
        run = reconstruct(circ, prune="exact")
        assert run.cost.variants_executed == 6
        assert run.cost.baseline_variants == 9
        assert abs(run.cost.variant_savings - 1.0 / 3.0) < 1e-12
        assert run.cost.basis_tuples_contracted == 3
        assert run.cost.baseline_tuples == 4

    def test_ledger_counts_shots(self):
        # reconstruct counts each side's executions itself, in every mode
        circ = golden_ansatz(5, 1, 7)
        known = reconstruct(circ, shots=1000, prune="known", neglect=[(1, "Y")])
        assert (known.cost.variants_executed, known.cost.shots_total) == (2 + 4, 6000)
        off = reconstruct(circ, shots=1000)
        assert (off.cost.variants_executed, off.cost.shots_total) == (9, 9000)
        assert (off.cost.baseline_variants, off.cost.baseline_shots) == (9, 9000)

    @pytest.mark.parametrize("cut_id", [1.6, True])
    def test_non_integer_neglected_cut_rejected(self, cut_id):
        # int() would prune cut 1
        with pytest.raises(ValueError):
            reconstruct(golden_ansatz(3, 1, 0), prune="known", neglect=[(cut_id, "Y")])

    @pytest.mark.parametrize("prune, shots, pair", [
        ("off", None, (1, "Y")),
        ("exact", None, (1, "X")),
        ("statistical", 1000, (1, "Y")),
    ])
    def test_neglect_outside_known_mode_rejected(self, prune, shots, pair):
        # before, "off" neglected nothing and "exact" neglected what it
        # detected, each without a word about the ignored pairs
        with pytest.raises(ValueError):
            reconstruct(golden_ansatz(3, 1, 0), shots=shots, prune=prune, neglect=[pair])

    def test_off_mode_still_reports_golden(self):
        run = reconstruct(golden_ansatz(3, 1, 0), prune="off")
        assert run.golden is not None
        assert run.golden.entry(1, "Y").golden
        assert run.neglected == frozenset()

    def test_statistical_prunes_downstream_only(self):
        circ = golden_ansatz(3, 1, 0)
        run = reconstruct(circ, shots=10000, seed=4, prune="statistical",
                          tau=0.05)
        assert (1, PauliOp.Y) in run.neglected
        # detection pays for every upstream setting, so only the
        # downstream side shrinks
        assert run.cost.variants_executed == 3 + 4
        assert run.cost.shots_total == 7 * 10000

    def test_statistical_needs_shots(self):
        with pytest.raises(ValueError):
            reconstruct(golden_ansatz(3, 1, 0), prune="statistical")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            reconstruct(fig1(), prune="bogus")

    @pytest.mark.parametrize("shots", [10.5, 10.0, True])
    def test_non_integer_shots_rejected(self, shots):
        with pytest.raises(ValueError):
            reconstruct(golden_ansatz(3, 1, 0), shots=shots)


class TestExecutedCounts:
    # K = 3 with bases dropped at two and at three cuts, the last set with
    # an identity-only cut
    NEGLECTED = [
        {(1, PauliOp.X), (2, PauliOp.Y), (2, PauliOp.Z)},
        {(1, PauliOp.Y), (2, PauliOp.X), (2, PauliOp.Y),
         (3, PauliOp.X), (3, PauliOp.Y), (3, PauliOp.Z)},
    ]

    @pytest.mark.parametrize("shots", [None, 100])
    @pytest.mark.parametrize("neglect", NEGLECTED)
    def test_cost_equals_formula_and_execution(self, neglect, shots, monkeypatch):
        runs = []

        def recording(fragment, variants, **kwargs):
            results = run_fragment(fragment, variants, **kwargs)
            runs.append((fragment.side, results))
            return results

        circ = make_cut_circuit(4, 4, 3, 1, 5)
        f1, f2 = bipartition(circ)
        monkeypatch.setattr(pipeline, "run_fragment", recording)
        calls = count_execution(monkeypatch)
        run = reconstruct(circ, shots=shots, seed=2, prune="known", neglect=neglect)
        each = shots or 0
        counts = cut_counts((1, 2, 3), neglect, each)
        full = cut_counts((1, 2, 3), shots_each=each)
        assert (run.cost.variants_executed, run.cost.shots_total,
                run.cost.basis_tuples_contracted) == (
            counts.variants_executed, counts.shots_total, counts.basis_tuples)
        assert (run.cost.baseline_variants, run.cost.baseline_shots,
                run.cost.baseline_tuples) == (
            full.variants_executed, full.shots_total, full.basis_tuples)
        assert run.cost.shots_total == run.cost.variants_executed * each
        assert run.reconstruction.terms_evaluated == counts.basis_tuples
        # what actually ran: without shots no variant, only one simulation
        # of the upstream body and one batched pass over the downstream one
        if shots is None:
            assert runs == []
            assert calls == ["simulate", f2.circuit.n_qubits + 3]
            return
        ran = dict(runs)
        assert sorted(ran) == ["downstream", "upstream"] and len(runs) == 2
        assert len(ran["upstream"]) == counts.upstream_variants
        assert len(ran["downstream"]) == counts.downstream_variants
        assert sum(r.shots for rs in ran.values() for r in rs) == run.cost.shots_total

    def test_identity_only_cut_reconstructs(self):
        # exact detection flags X, Y and Z at the cut; the identity term
        # alone carries the value
        circ = golden_ansatz(9, 2, 3)
        obs = ObservableSpec.pauli_string("XYZXYZXYZ", range(9))
        run = reconstruct(circ, obs, prune="exact")
        assert run.neglected == {(1, PauliOp.X), (1, PauliOp.Y), (1, PauliOp.Z)}
        assert abs(run.expectation - ground_truth_expectation(circ, obs)) < 1e-12
        assert (run.cost.variants_executed, run.cost.basis_tuples_contracted) == (3, 1)
        stat = reconstruct(circ, obs, shots=10_000, seed=0, prune="statistical")
        assert stat.neglected == run.neglected
        assert stat.cost.variants_executed == 3 + 2


class TestOracleReuse:
    @pytest.mark.parametrize("prune", ["off", "known", "exact"])
    def test_exact_mode_runs_the_upstream_oracle_once(self, prune, monkeypatch):
        # the upstream cut operator, one simulation of the body, feeds the
        # golden report and the reconstruction; the downstream one is one
        # batched pass; no variant runs, and the ledger counts the pruned set
        # (golden_ansatz certifies through the same pipeline helper, so the
        # circuit is built before anything is counted)
        circ = golden_ansatz(3, 1, 0)
        _, f2 = bipartition(circ)
        runs = []

        def counting(fragment, variants, **kwargs):
            runs.append((fragment.side, len(variants)))
            return run_fragment(fragment, variants, **kwargs)

        monkeypatch.setattr(pipeline, "run_fragment", counting)
        calls = count_execution(monkeypatch)
        neglect = [(1, "Y")] if prune == "known" else ()
        run = reconstruct(circ, prune=prune, neglect=neglect)
        pruned = prune != "off"
        assert runs == []
        assert calls == ["simulate", f2.circuit.n_qubits + 1]
        assert run.cost.variants_executed == (6 if pruned else 9)
        assert run.golden.entry(1, "Y").golden
        want = ground_truth_distribution(circ)
        assert np.max(np.abs(run.raw_distribution - want)) < 1e-10


    @pytest.mark.parametrize("prune", ["off", "known", "exact"])
    @pytest.mark.parametrize("obs", [None, ObservableSpec.pauli_string("ZXZ", range(3)),
                                     ObservableSpec.projector("010", range(3))])
    def test_exact_mode_builds_no_downstream_tensor(self, obs, prune, monkeypatch):
        circ = make_cut_circuit(2, 2, 1, 2, 4)
        sides = []

        def recording(fragment, o):
            sides.append(fragment.side)
            return operator_tensor(fragment, o)

        monkeypatch.setattr(pipeline, "operator_tensor", recording)
        neglect = [(1, "X")] if prune == "known" else ()
        run = reconstruct(circ, obs, prune=prune, neglect=neglect)
        assert sides == ["upstream"]
        if obs is None:
            want = ground_truth_distribution(circ)
            assert np.max(np.abs(run.raw_distribution - want)) < 1e-10

    @pytest.mark.parametrize("shots,prune", [(None, "exact"), (10_000, "statistical")])
    def test_reconstruct_prunes_the_reported_tensor(self, shots, prune, monkeypatch):
        # upstream_report's tensor is unmasked; reconstruct zeroes the rows it
        # neglects and contracts that tensor, without a second upstream pass
        circ = golden_ansatz(5, 2, 7)
        f1, f2 = bipartition(circ)
        obs1, _ = split_observable(f1, f2, ObservableSpec.distribution(range(5)))
        tensor, report = upstream_report(f1, obs1, shots=shots, seed=3)
        assert (tensor.side, tensor.neglected) == ("upstream", frozenset())
        assert tensor.source == ("exact" if shots is None else "shots")
        assert report.golden_pairs() == {(1, PauliOp.Y)}
        contracted = []

        # shot mode contracts A with B; exact mode contracts A through the
        # downstream cut operator
        for contract in (contract_distribution, contract_operator):
            def recording(a, *rest, contract=contract):
                contracted.append(a)
                return contract(a, *rest)

            monkeypatch.setattr(pipeline, contract.__name__, recording)
        run = reconstruct(circ, shots=shots, seed=3, prune=prune)
        (a,) = contracted
        assert a.neglected == run.neglected == {(1, PauliOp.Y)}
        assert np.array_equal(a.entries, tensor.pruned(run.neglected).entries)
        assert not np.any(a.entries[2]) and np.array_equal(a.entries[[0, 1, 3]],
                                                           tensor.entries[[0, 1, 3]])

    @pytest.mark.parametrize("obs", [None, ObservableSpec.pauli_string("ZXZ", range(3))])
    def test_statistical_builds_the_upstream_tensor_once(self, obs, monkeypatch):
        # detect_statistical reads the tensor upstream_report built; its
        # report equals the one it makes from the results alone
        circ = golden_ansatz(5, 2, 7) if obs is None else make_cut_circuit(2, 2, 1, 2, 4)
        sides = []

        def recording(results, o, side, *rest):
            sides.append(side)
            return build_tensor(results, o, side, *rest)

        monkeypatch.setattr(pipeline, "build_tensor", recording)
        monkeypatch.setattr(golden, "build_tensor", recording)
        run = reconstruct(circ, obs, shots=2000, seed=5, prune="statistical")
        assert sides == ["upstream", "downstream"]
        f1, f2 = bipartition(circ)
        obs1, _ = split_observable(f1, f2, obs or ObservableSpec.distribution(range(5)))
        results = run_fragment(f1, upstream_variants(f1, obs=obs1), shots=2000, seed=5,
                               seed_path=(0, pipeline.SIDE_UPSTREAM))
        assert run.golden == detect_statistical(results, obs1)


class TestDeterminism:
    def test_same_seed_same_result(self):
        circ = golden_ansatz(3, 1, 1)
        a = reconstruct(circ, shots=500, seed=8, trial=2)
        b = reconstruct(circ, shots=500, seed=8, trial=2)
        assert np.array_equal(a.distribution, b.distribution)

    def test_trials_draw_fresh_streams(self):
        circ = golden_ansatz(3, 1, 1)
        a = reconstruct(circ, shots=500, seed=8, trial=0)
        b = reconstruct(circ, shots=500, seed=8, trial=1)
        assert not np.array_equal(a.distribution, b.distribution)

    def test_uncut_sampling_deterministic(self):
        circ = golden_ansatz(3, 1, 1)
        a = uncut_sampled_distribution(circ, 1000, 8, trial=0)
        b = uncut_sampled_distribution(circ, 1000, 8, trial=0)
        assert np.array_equal(a, b)
        assert abs(a.sum() - 1.0) < 1e-12
        assert not np.array_equal(a, uncut_sampled_distribution(circ, 1000, 8,
                                                                trial=1))


class TestRejections:
    def test_uncut_circuit_rejected(self):
        with pytest.raises(ValueError):
            reconstruct(Circuit(2, (cnot(0, 1),), ()))

    def test_bridged_cut_rejected(self):
        bridged = Circuit(2, (cnot(0, 1), cnot(0, 1)), (CutPoint(1, 0, 1),))
        with pytest.raises(NotBipartite):
            reconstruct(bridged)


class TestReconstructProperty:
    @given(k=st.integers(1, 4), extra_up=st.integers(0, 2), extra_down=st.integers(0, 2),
           depth=st.integers(1, 2), seed=st.integers(0, 10 ** 6))
    def test_exact_matches_uncut_and_golden_pruning_changes_nothing(
            self, k, extra_up, extra_down, depth, seed):
        circ = make_cut_circuit(k + extra_up, k + extra_down, k, depth, seed)
        off = reconstruct(circ)
        truth = ground_truth_distribution(circ)
        assert np.max(np.abs(off.raw_distribution - truth)) <= 1e-10
        # off mode reports detect_exact on the full upstream oracle
        known = reconstruct(circ, prune="known", neglect=off.golden.golden_pairs())
        assert np.max(np.abs(known.raw_distribution - off.raw_distribution)) <= 1e-12
        n = circ.n_qubits
        paulis = np.random.default_rng(seed).choice(list("IXYZ"), n)
        obs = ObservableSpec.pauli_string(list(paulis), range(n))
        got = reconstruct(circ, obs).expectation
        assert abs(got - ground_truth_expectation(circ, obs)) <= 1e-10
