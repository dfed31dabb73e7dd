"""Variant enumeration and fragment execution."""
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from goldcut.circuits import Circuit, CutPoint, PauliOp, bipartition, cnot, golden_ansatz, h
from goldcut.fragmenter import (
    MEASURED_BASES,
    PREP_LABELS,
    SIDE_LABELS,
    VariantKey,
    _kept_labels,
    cut_amplitudes,
    downstream_variants,
    prep_state,
    run_fragment,
    upstream_variants,
)
from goldcut.seeding import stream
from goldcut.simulator import (
    ObservableSpec,
    basis_rotation,
    exact_distribution,
    exact_expectation,
    sample,
    simulate,
)

from conftest import count_execution, load_perfbench, make_cut_circuit, variant_circuit

multicut_circuit = load_perfbench("workloads").multicut_circuit


def bell_fragments():
    circ = Circuit(3, (h(0), cnot(0, 1), cnot(1, 2)), (CutPoint(1, 1, 1),))
    return bipartition(circ)


class TestVariantCounts:
    def test_upstream_unpruned(self):
        f1, _ = bell_fragments()
        assert len(upstream_variants(f1)) == 3

    def test_upstream_one_neglected(self):
        f1, _ = bell_fragments()
        assert len(upstream_variants(f1, {(1, PauliOp.Y)})) == 2

    def test_upstream_two_cuts_product(self):
        circ = make_cut_circuit(3, 3, 2, 1, 2)
        f1, _ = bipartition(circ)
        assert len(upstream_variants(f1)) == 9
        assert len(upstream_variants(f1, {(2, PauliOp.Y)})) == 6

    def test_upstream_neglecting_z_keeps_the_z_setting(self):
        # the identity term is assembled from Z-setting data, so a golden Z
        # removes a tensor entry but not an execution
        f1, _ = bell_fragments()
        variants = upstream_variants(f1, {(1, PauliOp.Z)})
        labels = {key.label(1) for key in variants}
        assert labels == {"X", "Y", "Z"}

    def test_downstream_unpruned(self):
        _, f2 = bell_fragments()
        assert len(downstream_variants(f2)) == 6

    def test_downstream_one_neglected(self):
        _, f2 = bell_fragments()
        variants = downstream_variants(f2, {(1, PauliOp.Y)})
        assert len(variants) == 4
        labels = {key.label(1) for key in variants}
        assert labels == {"Zp", "Zm", "Xp", "Xm"}

    def test_downstream_two_neglected(self):
        _, f2 = bell_fragments()
        variants = downstream_variants(f2, {(1, PauliOp.Y), (1, PauliOp.X)})
        assert {key.label(1) for key in variants} == {"Zp", "Zm"}

    def test_downstream_neglecting_z_keeps_six(self):
        _, f2 = bell_fragments()
        assert len(downstream_variants(f2, {(1, PauliOp.Z)})) == 6

    def test_identity_only_cut_keeps_z_data(self):
        # the identity term is read from the Z setting and the Zp/Zm
        # preparations, so dropping X, Y and Z keeps exactly those
        f1, f2 = bell_fragments()
        dropped = {(1, PauliOp.X), (1, PauliOp.Y), (1, PauliOp.Z)}
        assert {key.label(1) for key in upstream_variants(f1, dropped)} == {"Z"}
        assert {key.label(1) for key in downstream_variants(f2, dropped)} == {"Zp", "Zm"}

    def test_neglected_pairs_read_like_reconstruct(self):
        # a basis label counts as its PauliOp, and a cut id must be an integer
        f1, f2 = bell_fragments()
        assert len(upstream_variants(f1, {(1, "Y")})) == 2
        assert len(downstream_variants(f2, {(1, "Y")})) == 4
        for cid in (1.0, True):
            with pytest.raises(ValueError):
                upstream_variants(f1, {(cid, PauliOp.Y)})

    def test_unknown_cut_rejected(self):
        f1, _ = bell_fragments()
        with pytest.raises(ValueError):
            upstream_variants(f1, {(9, PauliOp.Y)})

    def test_identity_cannot_be_neglected(self):
        f1, _ = bell_fragments()
        with pytest.raises(ValueError):
            upstream_variants(f1, {(1, PauliOp.I)})


class TestTracerLabelRule:
    """perfbench's tracer keeps its own copy of the label rule to count the
    results a build reads; it must keep what fragmenter._kept_labels keeps."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("side", ["upstream", "downstream"])
    def test_useful_variants_equal_kept_labels(self, side, k):
        useful = load_perfbench("tracer")._useful_variants
        cut_ids = range(1, k + 1)
        results = [SimpleNamespace(key=VariantKey(side, tuple(zip(cut_ids, labels))))
                   for labels in itertools.product(SIDE_LABELS[side], repeat=k)]
        subsets = [set(c) for r in range(4) for c in itertools.combinations(MEASURED_BASES, r)]
        for dropped in itertools.product(subsets, repeat=k):
            neglected = {(cid, p) for cid, ps in zip(cut_ids, dropped) for p in ps}
            want = math.prod(len(_kept_labels(side, ps)) for ps in dropped)
            assert useful(results, neglected) == want


class TestVariantKey:
    def test_assignment_sorted_by_cut(self):
        key = VariantKey("upstream", ((2, "X"), (1, "Z")))
        assert key.assignment == ((1, "Z"), (2, "X"))
        assert key.label(2) == "X"

    def test_hashable(self):
        a = VariantKey("upstream", ((1, "Z"),))
        b = VariantKey("upstream", ((1, "Z"),))
        assert len({a, b}) == 1
        assert VariantKey("upstream", ((1, "Z"),), ((0, "X"),)) != a

    def test_readout_follows_the_observable(self):
        f1, _ = bell_fragments()
        obs = ObservableSpec.pauli_string("Y", [0])
        assert {key.readout for key in upstream_variants(f1, obs=obs)} == {((0, "Y"),)}
        z = ObservableSpec.pauli_string("Z", [0])
        assert {key.readout for key in upstream_variants(f1, obs=z)} == {()}

    @pytest.mark.parametrize("cut_id", [1.9, 1.0, True, np.float64(1.0)])
    def test_non_integer_cut_id_rejected(self, cut_id):
        # int() would turn 1.9 into cut 1
        with pytest.raises(ValueError):
            VariantKey("upstream", ((cut_id, "Z"),))

    def test_numpy_integer_cut_id_accepted(self):
        assert VariantKey("upstream", ((np.int64(1), "Z"),)).assignment == ((1, "Z"),)


class TestRealization:
    def test_measurement_realizes_pauli_expectation(self):
        # cut-bit average from the variant equals the Pauli expectation on
        # the pre-measurement state
        f1, _ = bell_fragments()
        state = simulate(f1.circuit)
        results = run_fragment(f1, upstream_variants(f1))
        pos = dict(f1.upstream_cut_qubits)[1]
        for r in results:
            p = r.probs.reshape((2,) * r.n_bits)
            marginal = p.sum(axis=tuple(a for a in range(r.n_bits) if a != pos))
            signed = marginal[0] - marginal[1]
            basis = PauliOp(r.key.label(1))
            want = exact_expectation(state, ObservableSpec.pauli_string([basis], (pos,)))
            assert abs(signed - want) < 1e-10

    @pytest.mark.parametrize("label", PREP_LABELS)
    def test_preparation_matches_initial_state_bitwise(self, label):
        _, f2 = bell_fragments()
        variants = [key for key in downstream_variants(f2) if key.label(1) == label]
        assert len(variants) == 1
        got = run_fragment(f2, variants)[0].probs
        init = [None] * f2.circuit.n_qubits
        init[dict(f2.downstream_cut_qubits)[1]] = prep_state(label)
        want = exact_distribution(simulate(f2.circuit, init),
                                  range(f2.circuit.n_qubits))
        assert np.array_equal(got, want)


class TestRunFragment:
    def test_exact_mode_probability_tables(self):
        f1, _ = bell_fragments()
        results = run_fragment(f1, upstream_variants(f1))
        assert len(results) == 3
        for r in results:
            assert r.shots == 0
            assert abs(r.probs.sum() - 1.0) < 1e-10

    def test_shot_mode_deterministic(self):
        f1, _ = bell_fragments()
        variants = upstream_variants(f1)
        a = run_fragment(f1, variants, shots=1000, seed=5, seed_path=(0, 0))
        b = run_fragment(f1, variants, shots=1000, seed=5, seed_path=(0, 0))
        for ra, rb in zip(a, b):
            assert ra.shots == rb.shots == 1000
            assert np.array_equal(ra.probs, rb.probs)

    def test_variant_streams_differ(self):
        f1, _ = bell_fragments()
        variants = upstream_variants(f1)
        results = run_fragment(f1, variants, shots=1000, seed=5)
        assert not np.array_equal(results[0].probs, results[2].probs)

    def test_cut_bits_recorded(self):
        f1, _ = bell_fragments()
        r = run_fragment(f1, upstream_variants(f1))[0]
        assert r.cut_bits == ((1, 1),)
        assert r.output_bits == (0,)
        assert set(dict(r.cut_bits).values()).isdisjoint(r.output_bits)


def multicut_fragments(k):
    """Bipartite 8-wire circuit with K cut wires: a 5-wire upstream block
    (5 - K outputs) and a 4-wire downstream block."""
    return bipartition(make_cut_circuit(5, 4, k, 2, 40 + k))


def xy_observable(qubits):
    """X and Y factors alternating over the given fragment outputs."""
    labels = [PauliOp.X if i % 2 == 0 else PauliOp.Y for i in range(len(qubits))]
    return ObservableSpec.pauli_string(labels, qubits)


def variant_lists(frag, k):
    """Named variant lists: full, pruned, shuffled, and two observables mixed."""
    enum = upstream_variants if frag.side == "upstream" else downstream_variants
    obs = xy_observable(frag.output_qubits[:2])
    other = xy_observable(frag.output_qubits[-1:])
    dropped = {(1, PauliOp.Y)} | ({(2, PauliOp.X)} if k >= 2 else set())
    full = enum(frag, obs=obs)
    rng = np.random.default_rng(k)
    shuffled = [full[i] for i in rng.permutation(len(full))]
    mixed = full + enum(frag, dropped, obs=other)
    mixed = [mixed[i] for i in rng.permutation(len(mixed))]
    return {"full": (full, 1), "pruned": (enum(frag, dropped, obs=obs), 1),
            "shuffled": (shuffled, 1), "mixed": (mixed, 2)}


class TestRunOnce:
    """run_fragment simulates bodies once; every variant must still equal a
    simulation of its own circuit (conftest.variant_circuit)."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("name", ["full", "pruned", "shuffled", "mixed"])
    def test_exact_probabilities_match_own_circuit(self, k, side, name, monkeypatch):
        frag = multicut_fragments(k)[side]
        variants, bodies = variant_lists(frag, k)[name]
        calls = count_execution(monkeypatch)
        results = run_fragment(frag, variants)
        n = frag.circuit.n_qubits
        if frag.side == "upstream":
            # one simulation per body; each key's state is a map of its amplitudes
            assert calls == ["simulate"] * bodies
        else:
            # one batched pass per body over its wires plus K reference axes
            assert calls == [n + k] * bodies
        assert len(results) == len(variants)
        for key, r in zip(variants, results):
            assert r.key == key
            circ = variant_circuit(frag, key)
            want = exact_distribution(simulate(circ), range(circ.n_qubits))
            assert np.max(np.abs(r.probs - want)) <= 1e-12

    @pytest.mark.parametrize("k", [4, 5])
    @pytest.mark.parametrize("side", [0, 1])
    def test_key_subsets_across_blocks_match_own_circuit(self, k, side):
        # states are mapped one block of leading-cut labels at a time; about
        # 100 keys drawn from two readouts in seeded random order, one of
        # them repeated, cross many blocks and come back to each
        frag = bipartition(make_cut_circuit(7, 7, k, 1, 50 + k))[side]
        variants, _ = variant_lists(frag, k)["mixed"]
        assert len({key.readout for key in variants}) == 2
        rng = np.random.default_rng(100 + k)
        keys = [variants[i] for i in rng.choice(len(variants), size=100, replace=False)]
        keys.insert(int(rng.integers(len(keys))), keys[int(rng.integers(len(keys)))])
        results = run_fragment(frag, keys)
        assert len(results) == 101 and len(set(keys)) == 100
        for key, r in zip(keys, results):
            assert r.key == key
            circ = variant_circuit(frag, key)
            want = exact_distribution(simulate(circ), range(circ.n_qubits))
            assert np.max(np.abs(r.probs - want)) <= 1e-12

    def test_upstream_shot_counts_equal_own_circuit_draws(self):
        # upstream states map the cut amplitudes where a full simulation of
        # each variant rotates the cut wires; the two agree closely enough
        # that its own circuit's draws come back. The golden ansatz has real
        # amplitudes, so Y's conditional probabilities sit at exactly 1/2,
        # where one ulp would swap whole counts
        golden = bipartition(golden_ansatz(5, 2, 7))[0]
        for frag, k in ((multicut_fragments(2)[0], 2), (golden, 1)):
            variants, _ = variant_lists(frag, k)["mixed"]
            results = run_fragment(frag, variants, shots=500, seed=7, seed_path=(3, 1))
            for i, (key, r) in enumerate(zip(variants, results)):
                circ = variant_circuit(frag, key)
                want = sample(simulate(circ), range(circ.n_qubits), 500, stream(7, 3, 1, i))
                assert r.key == key and r.shots == 500
                assert np.array_equal(r.probs, want / 500)

    def test_downstream_shot_counts_follow_seed_path_and_index(self):
        # downstream probabilities may differ from a full simulation in the
        # last ulp, which can flip a draw, so the reference distribution is
        # run_fragment's own exact one for the same list
        frag = multicut_fragments(2)[1]
        variants, _ = variant_lists(frag, 2)["mixed"]
        exact = run_fragment(frag, variants)
        results = run_fragment(frag, variants, shots=500, seed=7, seed_path=(3, 1))
        for i, (e, r) in enumerate(zip(exact, results)):
            p = np.clip(e.probs, 0.0, None)
            draws = stream(7, 3, 1, i).multinomial(500, p / p.sum())
            assert r.key == e.key and r.shots == 500
            assert np.array_equal(r.probs, draws / 500)

    @pytest.mark.parametrize("circ", [
        *(make_cut_circuit(5, 4, k, 2, 40 + k) for k in (1, 2, 3, 4)),
        *(multicut_circuit(k, 201) for k in (1, 2, 3, 4)),
        golden_ansatz(3, 3, 201),
    ])
    def test_batched_columns_equal_per_input_simulations(self, circ):
        # the one batched pass gives the same states as 2^K simulations of
        # the body from the computational inputs, to rounding (a column
        # may differ in the last ulp)
        frag = bipartition(circ)[1]
        readout = tuple(zip(frag.output_qubits[:2], "XY"))
        body = Circuit(frag.circuit.n_qubits, tuple(frag.circuit.gates) + tuple(
            g for q, p in readout for g in basis_rotation(PauliOp(p), q)), ())
        columns = cut_amplitudes(frag, readout)
        wires = [q for _, q in frag.downstream_cut_qubits]
        assert columns.shape == (2 ** len(wires), 2 ** body.n_qubits)
        for b, bits in enumerate(itertools.product((0, 1), repeat=len(wires))):
            initial = [None] * body.n_qubits
            for q, bit in zip(wires, bits):
                initial[q] = (0.0, 1.0) if bit else None
            want = simulate(body, initial)
            assert np.max(np.abs(columns[b] - want)) <= 1e-15

    def test_cut_amplitudes_rejects_readout_off_the_outputs(self):
        # the cut wire, a wire beyond the fragment, and a Z readout
        f1, _ = bipartition(golden_ansatz(5, 2, 7))
        assert f1.output_qubits == (0, 1)
        for readout in (((2, "X"),), ((7, "Y"),), ((0, "Z"),)):
            with pytest.raises(ValueError, match="does not fit the fragment outputs"):
                cut_amplitudes(f1, readout)

    @pytest.mark.parametrize("side", [0, 1])
    def test_foreign_key_rejected(self, side):
        frag, other = multicut_fragments(2)[side], multicut_fragments(2)[1 - side]
        enum = upstream_variants if frag.side == "upstream" else downstream_variants
        other_enum = downstream_variants if frag.side == "upstream" else upstream_variants
        key = enum(frag)[0]
        wrong_label = "Zp" if frag.side == "upstream" else "Z"
        not_output = min(set(range(frag.circuit.n_qubits + 1)) - set(frag.output_qubits))
        output = frag.output_qubits[0]
        foreign = {
            "side": other_enum(other)[0],
            "too few cuts": VariantKey(frag.side, key.assignment[:1]),
            "unknown cut": VariantKey(frag.side, key.assignment + ((3, key.label(1)),)),
            "unknown label": VariantKey(frag.side, ((1, wrong_label), (2, key.label(2)))),
            "readout qubit": VariantKey(frag.side, key.assignment, ((not_output, "X"),)),
            "readout label": VariantKey(frag.side, key.assignment, ((output, "Z"),)),
        }
        assert run_fragment(frag, [key])[0].key == key
        for what, bad in foreign.items():
            with pytest.raises(ValueError, match="does not fit"):
                run_fragment(frag, [key, bad])
                pytest.fail("accepted a key with a foreign %s" % what)


@st.composite
def fragment_and_keys(draw):
    """A random fragment with K <= 3 cuts and a random subset, in random
    order, of its keys under one or two random Pauli readouts."""
    k = draw(st.integers(1, 3))
    circ = make_cut_circuit(draw(st.integers(k, 4)), draw(st.integers(k, 4)), k,
                            draw(st.integers(1, 2)), draw(st.integers(0, 10 ** 6)))
    frag = bipartition(circ)[draw(st.integers(0, 1))]
    enum = upstream_variants if frag.side == "upstream" else downstream_variants
    keys = []
    for _ in range(draw(st.integers(1, 2))):
        qubits = draw(st.permutations(frag.output_qubits))
        labels = draw(st.lists(st.sampled_from("IXYZ"), min_size=len(qubits),
                               max_size=len(qubits)))
        keys += enum(frag, obs=ObservableSpec.pauli_string(labels, qubits))
    picks = draw(st.lists(st.integers(0, len(keys) - 1), min_size=1, max_size=len(keys),
                          unique=True))
    return frag, [keys[i] for i in picks]


class TestKeyProperty:
    @given(fragment_and_keys())
    def test_any_keys_match_their_own_circuits(self, case):
        frag, keys = case
        results = run_fragment(frag, keys)
        for key, r in zip(keys, results):
            circ = variant_circuit(frag, key)
            want = exact_distribution(simulate(circ), range(circ.n_qubits))
            assert r.key == key
            assert np.max(np.abs(r.probs - want)) <= 1e-12
