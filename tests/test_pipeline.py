"""End-to-end reconstruction pipeline over whole circuits."""
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import goldcut.circuits as circuits
import goldcut.fragmenter as fragmenter
import goldcut.golden as golden
import goldcut.metrics as metrics
import goldcut.pipeline as pipeline
import goldcut.reconstructor as reconstructor
import goldcut.simulator as simulator
from goldcut.circuits import Circuit, CutPoint, PauliOp, bipartition, cnot, golden_ansatz, h, uncut
from goldcut.errors import NotBipartite, SupportMismatch
from goldcut.fragmenter import (
    _key_index,
    _neglected_by_cut,
    downstream_variants,
    run_fragment,
    upstream_variants,
)
from goldcut.golden import detect_statistical
from goldcut.metrics import cut_counts
from goldcut.reconstructor import (
    build_tensor,
    contract_operator,
    contract_tensors,
    operator_tensor,
)
from goldcut.pipeline import (
    ground_truth_distribution,
    parent_permutation,
    reconstruct,
    split_observable,
    uncut_sampled_distribution,
    upstream_report,
)
from goldcut.simulator import ObservableSpec, exact_expectation, simulate

from conftest import count_execution, load_perfbench, make_cut_circuit


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
        assert abs(run.expectation - exact_expectation(simulate(uncut(circ)), obs)) < 1e-10


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
            assert calls == ["simulate", (cut_wires(f2), (8, 8))]
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
        assert abs(run.expectation - exact_expectation(simulate(uncut(circ)), obs)) < 1e-12
        assert (run.cost.variants_executed, run.cost.basis_tuples_contracted) == (3, 1)
        stat = reconstruct(circ, obs, shots=10_000, seed=0, prune="statistical")
        assert stat.neglected == run.neglected
        assert stat.cost.variants_executed == 3 + 2


class TestTermCount:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_terms_are_the_kept_tuples_and_the_ledger(self, k):
        # the closed-form term count equals the kept-tuple mask's sum and
        # the cost ledger's tuples, on both contraction paths
        circ = load_perfbench("workloads").multicut_circuit(k, 201)
        f1, f2 = bipartition(circ)
        cut_ids = tuple(range(1, k + 1))
        pairs = [(cid, p) for cid in cut_ids for p in (PauliOp.X, PauliOp.Y, PauliOp.Z)]
        rng = np.random.default_rng(k)
        a = operator_tensor(f1, ObservableSpec.distribution(f1.output_qubits))
        b = operator_tensor(f2, ObservableSpec.distribution(f2.output_qubits))
        for _ in range(12):
            neglected = frozenset(p for p in pairs if rng.random() < 0.4)
            run = reconstruct(circ, prune="known", neglect=neglected)
            kept = int(reconstructor._kept(cut_ids, neglected).sum())
            assert run.reconstruction.terms_evaluated == kept == run.cost.basis_tuples_contracted
            pruned = contract_tensors(a.pruned(neglected), b.pruned(neglected))
            assert pruned.terms_evaluated == kept


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
        assert calls == ["simulate", (cut_wires(f2), (2, 2))]
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
        for contract in (contract_tensors, contract_operator):
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
        state = simulate(uncut(golden_ansatz(3, 1, 1)))
        a = uncut_sampled_distribution(state, 1000, 8, trial=0)
        b = uncut_sampled_distribution(state, 1000, 8, trial=0)
        assert np.array_equal(a, b)
        assert abs(a.sum() - 1.0) < 1e-12
        assert not np.array_equal(a, uncut_sampled_distribution(state, 1000, 8,
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
        assert abs(got - exact_expectation(simulate(uncut(circ)), obs)) <= 1e-10


def cut_wires(fragment):
    """The fragment's downstream cut wires, in cut order."""
    return tuple(q for _, q in fragment.downstream_cut_qubits)


def run_bytes(run):
    """Every output of a run, as bytes."""
    rec = run.reconstruction
    return (np.asarray(rec.raw).tobytes(), np.asarray(rec.value).tobytes(),
            rec.terms_evaluated, run.neglected, vars(run.cost), run.k_golden,
            run.golden.to_json())


class TestComputedOnce:
    """Cutting and compiling happen once per circuit object; every call still
    simulates both fragments and does all the numeric work."""

    def test_two_calls_cut_and_compile_once(self, monkeypatch):
        made = load_perfbench("workloads").multicut_circuit(4, 201)
        circ = Circuit(made.n_qubits, made.gates, made.cuts)  # not yet cut
        truth = ground_truth_distribution(circ)
        counts = {"validate": [], "_fuse": [], "_block_matrix": []}
        for module, name in ((circuits, "validate"), (simulator, "_fuse"),
                             (simulator, "_block_matrix")):
            def counting(*args, real=getattr(module, name), seen=counts[name]):
                seen.append(real(*args))
                return seen[-1]

            monkeypatch.setattr(module, name, counting)
        calls = count_execution(monkeypatch)
        runs = [reconstruct(circ, prune="off")]
        # one grouping choice per fragment body, one block matrix per chosen block
        assert len(counts["validate"]) == 1 and len(counts["_fuse"]) == 2
        assert len(counts["_block_matrix"]) == sum(map(len, counts["_fuse"]))
        compiled = {name: len(seen) for name, seen in counts.items()}
        runs.append(reconstruct(circ, prune="exact"))
        assert {name: len(seen) for name, seen in counts.items()} == compiled
        # one upstream simulation and one downstream pass per call, from the
        # 16 x 16 identity over the 4 cut wires
        assert calls == ["simulate", (cut_wires(bipartition(circ)[1]), (16, 16))] * 2
        for run in runs:
            assert np.max(np.abs(run.raw_distribution - truth)) <= 1e-10

    @given(k=st.integers(1, 3), extra_up=st.integers(0, 2), extra_down=st.integers(0, 2),
           seed=st.integers(0, 10 ** 6), shots=st.sampled_from([None, 200]),
           prune=st.sampled_from(["off", "exact"]), pauli=st.booleans())
    def test_repeated_and_fresh_calls_are_byte_identical(
            self, k, extra_up, extra_down, seed, shots, prune, pauli):
        circ = make_cut_circuit(k + extra_up, k + extra_down, k, 2, seed)
        n = circ.n_qubits
        obs = ObservableSpec.pauli_string(("XYZ" * n)[:n], range(n)) if pauli else None

        def run(c):
            return run_bytes(reconstruct(c, obs, shots=shots, seed=seed, prune=prune))

        first = run(circ)
        assert run(circ) == first
        assert run(Circuit(circ.n_qubits, circ.gates, circ.cuts)) == first

    def test_distribution_mode_builds_no_observable(self, monkeypatch):
        # no observable and the full parent distribution give the same bytes
        # in exact, shot and statistical mode, and neither builds a fragment one
        circ = golden_ansatz(5, 2, 7)
        parent = ObservableSpec.distribution(range(5))
        built, post_init = [], ObservableSpec.__post_init__
        monkeypatch.setattr(ObservableSpec, "__post_init__",
                            lambda spec: built.append(spec) or post_init(spec))
        modes = [(None, "exact"), (300, "off"), (2000, "statistical")]
        runs = [run_bytes(reconstruct(circ, obs, shots=shots, seed=4, prune=prune))
                for obs in (None, parent) for shots, prune in modes]
        assert built == [] and runs[:3] == runs[3:]

    def test_stored_matrices_are_read_only(self):
        circ = make_cut_circuit(5, 4, 2, 2, 3)
        obs = ObservableSpec.pauli_string("XY", (0, circ.n_qubits - 1))
        reconstruct(circ, obs)
        reconstruct(circ, shots=50)
        f1, f2 = bipartition(circ)
        bodies = [(b, live) for f, live in ((f1, ()), (f2, cut_wires(f2)))
                  for b in vars(f)["_bodies"].values()]
        assert len(bodies) == 4  # a readout and none, per fragment
        for body, live in bodies:
            # upstream from no live wire, downstream from the cut wires
            (key, (steps, *_)), = vars(body)["_programs"].items()
            assert key == live and steps
            for u, *_ in steps:
                with pytest.raises(ValueError, match="read-only"):
                    u[0, 0] = 0.0


def kept_arrays(obj, seen=None):
    """Every ndarray an object keeps in its __dict__ beyond its fields,
    following kept circuits, fragments and observables."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        items = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (tuple, list)):
        items = obj
    elif isinstance(obj, (Circuit, circuits.Fragment, ObservableSpec)):
        items = [obj.circuit] if isinstance(obj, circuits.Fragment) else []
        items += [v for k, v in vars(obj).items() if k.startswith("_")]
    else:
        return []
    return [a for item in items for a in kept_arrays(item, seen)]


PLAN_OBSERVABLES = ("distribution", "pauli", "projector")


def plan_observable(kind, n):
    if kind == "pauli":
        return ObservableSpec.pauli_string(("XYZ" * n)[:n], range(n))
    if kind == "projector":
        return ObservableSpec.projector(("01" * n)[:n], range(n))
    return None


def plan_circuits():
    multicut = load_perfbench("workloads").multicut_circuit
    return ([pytest.param(lambda n=n: golden_ansatz(n, 3, 501), id="golden%d" % n)
             for n in (3, 5, 7, 9)]
            + [pytest.param(lambda k=k: multicut(k, 201), id="multicut%d" % k)
               for k in (1, 2, 3, 4)])


class TestKeptPlan:
    """What reconstruct derives from (circuit, obs) alone is kept on the
    objects; every call still does all of its numeric work."""

    @pytest.mark.parametrize("make", plan_circuits())
    @pytest.mark.parametrize("shots", [None, 100])
    def test_later_calls_are_byte_identical_to_a_cold_copy(self, make, shots):
        # each setting's second call, and its last, made after the object
        # has had at least ten calls, give a cold copy's bytes; at K = 4
        # shot mode (1296 sampled preparations a call) reads a Pauli string
        circ = make()
        f1, _ = bipartition(circ)
        neglect = [(cid, "Y") for cid, _ in f1.upstream_cut_qubits[:1]]
        kinds = ("pauli",) if shots and circ.n_cuts == 4 else PLAN_OBSERVABLES
        settings = [(plan_observable(kind, circ.n_qubits), prune)
                    for kind in kinds for prune in ("off", "exact", "known")]

        def run(c, obs, prune):
            return run_bytes(reconstruct(c, obs, shots=shots, seed=5, prune=prune,
                                         neglect=neglect if prune == "known" else ()))

        cold = [run(pickle.loads(pickle.dumps(circ)), *setting) for setting in settings]
        passes = [[run(circ, *setting) for setting in settings]
                  for _ in range(2 + -(-10 // len(settings)))]
        assert passes[1] == cold and passes[-1] == cold

    @pytest.mark.parametrize("shots,prune", [(None, "off"), (None, "exact"),
                                             (200, "known"), (200, "statistical")])
    def test_first_and_tenth_calls_run_the_same_passes(self, shots, prune, monkeypatch):
        circ = make_cut_circuit(4, 4, 2, 2, 17)
        obs = ObservableSpec.pauli_string("XZ", (0, circ.n_qubits - 1))
        neglect = [(2, "X")] if prune == "known" else ()
        calls = count_execution(monkeypatch)
        per_call = []
        for _ in range(10):
            reconstruct(circ, obs, shots=shots, seed=1, prune=prune, neglect=neglect)
            per_call.append(list(calls))
            calls.clear()
        assert per_call[0] and per_call[9] == per_call[0]

    def test_equal_observables_share_one_entry(self):
        circ = golden_ansatz(5, 2, 7)

        def pauli():
            return ObservableSpec.pauli_string("ZXZYZ", range(5))

        reconstruct(circ, pauli(), prune="exact")
        f1, f2 = bipartition(circ)
        owners = ((circ, "_splits"), (f1, "_counts"), (f1, "_bodies"), (f2, "_bodies"))

        def kept():
            return [dict(vars(owner)[name]) for owner, name in owners]

        first = kept()
        (obs1, obs2), = first[0].values()
        reads = [dict(vars(o)["_reads"]) for o in (obs1, obs2)]
        for _ in range(3):
            reconstruct(circ, pauli(), prune="exact")
            reconstruct(circ, pauli(), shots=50, prune="exact")
        assert kept() == first
        assert [vars(o)["_reads"] for o in (obs1, obs2)] == reads

    def test_invalid_inputs_raise_on_every_call_and_are_not_kept(self):
        circ = golden_ansatz(5, 2, 7)
        reconstruct(circ)
        f1, f2 = bipartition(circ)
        bad_obs = ObservableSpec.distribution([1, 0, 2, 3, 4])
        for _ in range(3):
            with pytest.raises(SupportMismatch):
                reconstruct(circ, bad_obs)
            with pytest.raises(SupportMismatch):
                operator_tensor(f1, ObservableSpec.projector("0", (2,)))
            with pytest.raises(ValueError, match="readout"):
                fragmenter.cut_amplitudes(f2, [(7, "X")])
            with pytest.raises(ValueError, match="unknown cut"):
                reconstruct(circ, prune="known", neglect=[(4, "Y")])
        assert bad_obs not in vars(circ).get("_splits", {})
        assert ((7, "X"),) not in vars(f2)["_bodies"]
        assert all(cid == 1 for key in vars(f1)["_counts"] for cid, _ in key)

    def test_every_kept_array_is_read_only(self):
        circ = make_cut_circuit(4, 4, 2, 2, 23)
        n = circ.n_qubits
        for obs in (None, ObservableSpec.pauli_string("XY", (0, n - 1)),
                    ObservableSpec.projector("01", (1, n - 2))):
            for shots, prune in ((None, "off"), (None, "exact"), (100, "statistical")):
                reconstruct(circ, obs, shots=shots, prune=prune)
        ground_truth_distribution(circ)
        arrays = kept_arrays(circ)
        # the block matrices of the programs of 3 bodies and the uncut twin,
        # 2 read weights and the permutation at least
        assert len(arrays) > 8
        for array in arrays:
            assert not array.flags.writeable


class TestEntryChecks:
    """Arguments that reconstruct or upstream_report reject raise before
    anything runs, in every mode."""

    @pytest.mark.parametrize("bad", [dict(alpha=0), dict(alpha=1), dict(alpha=2),
                                     dict(alpha=math.nan), dict(tau=0), dict(tau=-1),
                                     dict(tau=math.nan), dict(tau=math.inf)])
    def test_alpha_and_tau_are_checked_first(self, bad, monkeypatch):
        circ = golden_ansatz(3, 1, 0)
        f1, _ = bipartition(circ)
        calls = count_execution(monkeypatch)
        message = "alpha must lie in" if "alpha" in bad else "tau must be finite"
        for call in (*(lambda shots=shots, prune=prune: reconstruct(
                          circ, shots=shots, prune=prune, **bad)
                       for shots, prune in ((None, "off"), (None, "exact"), (100, "off"),
                                            (100, "statistical"))),
                     lambda: upstream_report(f1, **bad),
                     lambda: upstream_report(f1, shots=100, **bad)):
            with pytest.raises(ValueError, match=message):
                call()
        assert calls == []

    @pytest.mark.parametrize("item", [1, (1, "Y", 0), "1Y", (1,), None])
    def test_neglect_items_other_than_pairs_are_rejected(self, item, monkeypatch):
        circ = golden_ansatz(3, 1, 0)
        calls = count_execution(monkeypatch)
        with pytest.raises(ValueError, match=r"a neglected item is a \(cut_id, basis\) pair"):
            reconstruct(circ, prune="known", neglect=[item])
        with pytest.raises(ValueError, match=r"pair, got %s" % re.escape(repr(item))):
            cut_counts((1,), [item])
        assert calls == []

    @pytest.mark.parametrize("obs,name", [("ZZZ", "str"), (["Z"] * 3, "list"),
                                          ({"Z": 0}, "dict"), (3, "int")])
    def test_obs_other_than_an_observable_spec_is_rejected(self, obs, name, monkeypatch):
        circ = golden_ansatz(3, 1, 0)
        calls = count_execution(monkeypatch)
        for _ in range(2):
            with pytest.raises(ValueError, match="ObservableSpec or None, got %s$" % name):
                reconstruct(circ, obs)
        assert calls == [] and "_splits" not in vars(circ)


class TestShotBoundary:
    @pytest.mark.parametrize("bad", [0, -1, True, 2.0])
    def test_bad_shot_count_rejected_before_anything_runs(self, bad, monkeypatch):
        # shots=0 ran three simulations before sample raised
        circ = golden_ansatz(3, 1, 0)
        f1, _ = bipartition(circ)
        keys = upstream_variants(f1)
        message = "shots must be at least 1" if bad in (0, -1) else "shots must be an integer"
        calls = count_execution(monkeypatch)
        for call in (*(lambda p=p: reconstruct(circ, shots=bad, prune=p)
                       for p in ("off", "exact", "statistical")),
                     lambda: reconstruct(circ, ObservableSpec.pauli_string(["Z"], [0]),
                                         shots=bad, prune="exact"),
                     lambda: upstream_report(f1, shots=bad),
                     lambda: run_fragment(f1, keys, shots=bad)):
            with pytest.raises(ValueError, match=message):
                call()
        assert calls == []


class TestOneStreamPerSide:
    @pytest.mark.parametrize("prune", ["off", "known", "statistical"])
    def test_each_side_runs_and_builds_once_and_samples_per_variant(self, prune, monkeypatch):
        # the benchmark's tracer counts spans at these names: one run and
        # one build per side, one sample call per executed variant
        circ = make_cut_circuit(4, 4, 2, 2, 42)
        calls = []

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((pipeline, "run_fragment"), (pipeline, "build_tensor"),
                             (fragmenter, "sample")):
            counting(module, name)
        neglect = [(1, "Y")] if prune == "known" else ()
        run = reconstruct(circ, shots=100, seed=3, prune=prune, neglect=neglect)
        assert calls.count("run_fragment") == calls.count("build_tensor") == 2
        assert calls.count("sample") == run.cost.variants_executed

    def test_each_key_is_read_once_per_run_and_once_per_build(self, monkeypatch):
        reads = []

        def counting(key, side, cut_ids):
            reads.append(key)
            return _key_index(key, side, cut_ids)

        monkeypatch.setattr(fragmenter, "_key_index", counting)
        monkeypatch.setattr(reconstructor, "_key_index", counting)
        run = reconstruct(make_cut_circuit(4, 4, 2, 2, 42), shots=100, prune="statistical")
        assert len(reads) == 2 * run.cost.variants_executed == 2 * len(set(reads))

    @pytest.mark.parametrize("prune", ["off", "known", "exact"])
    def test_neglected_set_is_checked_once_per_exact_run(self, prune, monkeypatch):
        checks = []

        def counting(cut_ids, neglected):
            checks.append(neglected)
            return _neglected_by_cut(cut_ids, neglected)

        for module in (fragmenter, reconstructor, metrics):
            monkeypatch.setattr(module, "_neglected_by_cut", counting)
        neglect = [(1, "Y")] if prune == "known" else ()
        run = reconstruct(golden_ansatz(5, 2, 7), prune=prune, neglect=neglect)
        assert len(checks) == 1
        assert run.neglected == (frozenset() if prune == "off" else {(1, PauliOp.Y)})

    @pytest.mark.parametrize("prune", ["off", "known", "exact", "statistical"])
    def test_neglected_set_is_checked_once_per_shot_run(self, prune, monkeypatch):
        # the set reaches both enumerators, both builds and their pruned
        # calls; only the first check reads it, and f1 keeps every set but
        # neglect checked, so a second run of the same circuit checks none
        checks = []

        def counting(cut_ids, neglected):
            checks.append(neglected)
            return _neglected_by_cut(cut_ids, neglected)

        for module in (fragmenter, reconstructor, metrics):
            monkeypatch.setattr(module, "_neglected_by_cut", counting)
        circ = golden_ansatz(5, 2, 7)
        neglect = [(1, "Y")] if prune == "known" else ()
        run = reconstruct(circ, shots=10000, seed=3, prune=prune, neglect=neglect)
        assert len(checks) == 1
        assert run.neglected == (frozenset() if prune == "off" else {(1, PauliOp.Y)})
        again = reconstruct(circ, shots=10000, seed=3, prune=prune, neglect=neglect)
        assert len(checks) == (2 if prune == "known" else 1)
        assert np.array_equal(again.distribution, run.distribution)

    def test_kept_constants_do_not_leak_into_later_calls(self):
        # what a call returns is its own: scribbling over it changes nothing
        # a later call computes (a kept array handed out would be read-only)
        def scribble(array):
            if array.flags.writeable:
                array[...] = 7.0

        circ = make_cut_circuit(4, 4, 2, 2, 23)
        f1, f2 = bipartition(circ)
        bare = bipartition(Circuit(1, (h(0),), (CutPoint(0, 0, 1),)))[1]  # no gate downstream
        every, pauli = pipeline._EVERY_OUTPUT, ObservableSpec.pauli_string("XZY", (0, 2, 3))
        calls = [lambda f=f: fragmenter.cut_amplitudes(f) for f in (f1, f2, bare)]
        calls += [lambda: fragmenter.cut_amplitudes(f2, [(0, "X"), (2, "Y")])]
        calls += [lambda f=f, o=o: operator_tensor(f, o).entries
                  for f, o in ((f1, every), (f2, every), (f2, pauli))]
        a = operator_tensor(f1, every).pruned({(1, "Y")})
        calls += [lambda: contract_operator(a, f2, every).raw,
                  lambda: contract_operator(a, f2, every).value,
                  lambda: reconstruct(circ, prune="exact").distribution]
        for call in calls:
            first = call().copy()
            for _ in range(2):
                scribble(call())
                assert np.array_equal(call(), first)

    @pytest.mark.parametrize("mode", ["distribution", "pauli"])
    def test_two_cut_shot_runs_are_unbiased(self, mode):
        # the raw quasi-distribution and the expectation are linear in every
        # variant's frequencies, so their mean over seeds meets the oracle;
        # each entry within 4 standard errors of the mean over 300 runs
        circ = make_cut_circuit(3, 3, 2, 2, 42)
        state = simulate(uncut(circ))
        if mode == "distribution":
            obs, truth = None, ground_truth_distribution(circ)
        else:
            obs = ObservableSpec.pauli_string([PauliOp.X, PauliOp.Z, PauliOp.Y], [0, 1, 3])
            truth = np.array([exact_expectation(state, obs)])
        runs = [reconstruct(circ, obs, shots=200, seed=s) for s in range(300)]
        values = np.array([r.raw_distribution if obs is None else [r.expectation] for r in runs])
        se = values.std(axis=0, ddof=1) / np.sqrt(len(runs))
        assert np.all(se > 0)
        assert np.max(np.abs(values.mean(axis=0) - truth) / se) <= 4.0
