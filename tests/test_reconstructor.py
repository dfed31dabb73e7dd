"""Signed tensor assembly and contraction against independent oracles."""
import itertools
import re
import tracemalloc

import numpy as np
import pytest

import goldcut.reconstructor as reconstructor
from goldcut.circuits import (
    Circuit,
    CutPoint,
    Fragment,
    PauliOp,
    bipartition,
    cnot,
    golden_ansatz,
    h,
    uncut,
)
from goldcut.errors import (
    ArityMismatch,
    GoldcutError,
    MissingVariant,
    SupportMismatch,
    WrongSide,
)
from goldcut.fragmenter import (
    AMPLITUDE_MAPS,
    MEASURED_BASES,
    VariantKey,
    VariantResult,
    cut_amplitudes,
    downstream_variants,
    run_fragment,
    upstream_variants,
)
from goldcut.golden import detect_exact
from goldcut.pipeline import parent_permutation, reconstruct, split_observable
from goldcut.reconstructor import (
    OPERATOR_MAPS,
    SIDE_MAPS,
    FragmentTensor,
    Reconstruction,
    build_tensor,
    combine_tensors,
    contract_operator,
    contract_tensors,
    operator_tensor,
    term_count,
)
from goldcut.simulator import (
    MAX_QUBITS,
    ObservableSpec,
    exact_distribution,
    exact_expectation,
    simulate,
)

from conftest import load_perfbench, make_cut_circuit

IDENTITY_OBS = ObservableSpec.pauli_string([], [])
DIST = ObservableSpec.distribution(())


def exact_tensors(circ, obs_a, obs_b, neglected=frozenset()):
    f1, f2 = bipartition(circ)
    a = build_tensor(run_fragment(f1, upstream_variants(f1, neglected, obs=obs_a)),
                     obs_a, "upstream", neglected)
    b = build_tensor(run_fragment(f2, downstream_variants(f2, neglected, obs=obs_b)),
                     obs_b, "downstream", neglected)
    return f1, f2, a, b


def pass_through():
    return Circuit(1, (), (CutPoint(0, -1, 1),))


def fig1():
    return Circuit(3, (h(0), cnot(0, 1), cnot(1, 2)), (CutPoint(1, 1, 1),))


class TestUpstreamEntries:
    def test_pass_through_identity_and_z(self):
        _, _, a, _ = exact_tensors(pass_through(), IDENTITY_OBS, IDENTITY_OBS)
        assert abs(a.entry([PauliOp.I]) - 1.0) < 1e-12
        assert abs(a.entry([PauliOp.Z]) - 1.0) < 1e-12
        assert abs(a.entry([PauliOp.X])) < 1e-12
        assert abs(a.entry([PauliOp.Y])) < 1e-12

    def test_bell_with_x_observable(self):
        # on the Bell state the X (x) X correlator is 1 and every other
        # X (x) P correlator vanishes, including the unsigned identity entry
        obs = ObservableSpec.pauli_string([PauliOp.X], [0])
        _, _, a, _ = exact_tensors(fig1(), obs, IDENTITY_OBS)
        assert abs(a.entry([PauliOp.X]) - 1.0) < 1e-12
        assert abs(a.entry([PauliOp.I])) < 1e-12
        assert abs(a.entry([PauliOp.Z])) < 1e-12
        assert abs(a.entry([PauliOp.Y])) < 1e-12

    def test_plus_projector_by_linearity(self):
        # |+><+| = (I + X)/2 assembled from per-term tensors
        f1, _ = bipartition(fig1())
        obs_x = ObservableSpec.pauli_string([PauliOp.X], [0])
        t_i = build_tensor(run_fragment(f1, upstream_variants(f1)),
                           IDENTITY_OBS, "upstream")
        t_x = build_tensor(run_fragment(f1, upstream_variants(f1, obs=obs_x)),
                           obs_x, "upstream")
        t = combine_tensors((t_i, t_x), (0.5, 0.5))
        assert abs(t.entry([PauliOp.Z])) < 1e-12
        assert abs(t.entry([PauliOp.I]) - 0.5) < 1e-12
        assert abs(t.entry([PauliOp.X]) - 0.5) < 1e-12

    def test_identity_entry_is_total_mass(self):
        _, _, a, _ = exact_tensors(fig1(), IDENTITY_OBS, IDENTITY_OBS)
        assert abs(a.entry([PauliOp.I]) - 1.0) < 1e-12


class TestCombineTensors:
    def test_coefficient_count_must_equal_tensor_count(self):
        # zip used to drop the tensor without a coefficient: 0.5 t came back
        t = operator_tensor(bipartition(fig1())[0], IDENTITY_OBS)
        for coeffs in ([0.5], [0.5, 0.5, 0.5]):
            with pytest.raises(ArityMismatch, match="%d coefficients for 2 tensors" % len(coeffs)):
                combine_tensors([t, t], coeffs)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one tensor"):
            combine_tensors([], [])

    def test_distributions_over_other_output_bits_rejected(self):
        # the same cut ids and shape, but the output is local bit 0 in one
        # fragment and local bit 1 in the other
        mirrored = Circuit(3, (h(1), cnot(1, 0), cnot(0, 2)), (CutPoint(0, 1, 1),))
        a, b = (operator_tensor(bipartition(c)[0], DIST) for c in (fig1(), mirrored))
        assert (a.cut_ids, a.entries.shape) == (b.cut_ids, b.entries.shape)
        assert a.output_bits != b.output_bits
        with pytest.raises(ArityMismatch, match="disagree"):
            combine_tensors([a, b], [0.5, 0.5])
        assert combine_tensors([a, a], [0.5, 0.5]).output_bits == a.output_bits


class TestDownstreamEntries:
    def test_pass_through_z_observable(self):
        obs = ObservableSpec.pauli_string([PauliOp.Z], [0])
        _, _, _, b = exact_tensors(pass_through(), IDENTITY_OBS, obs)
        assert abs(b.entry([PauliOp.Z]) - 2.0) < 1e-12
        assert abs(b.entry([PauliOp.I])) < 1e-12
        assert abs(b.entry([PauliOp.X])) < 1e-12
        assert abs(b.entry([PauliOp.Y])) < 1e-12

    def test_exact_entries_bounded(self):
        for seed in range(4):
            circ = make_cut_circuit(2, 3, 2, 2, seed)
            _, _, a, b = exact_tensors(circ, IDENTITY_OBS, IDENTITY_OBS)
            assert np.all(np.abs(b.entries) <= 2.0 ** b.n_cuts + 1e-9)
            assert np.all(np.abs(a.entries) <= 1.0 + 1e-9)


class TestProjectorBound:
    def test_entry_beyond_two_to_the_k_raises(self):
        obs = ObservableSpec.projector("0", [0])
        f1, _ = bipartition(fig1())
        results = run_fragment(f1, upstream_variants(f1))
        build_tensor(results, obs, "upstream")
        inflated = [VariantResult(r.key, 10.0 * r.probs, 0, r.cut_bits) for r in results]
        with pytest.raises(GoldcutError):
            build_tensor(inflated, obs, "upstream")


# The reference definition, one entry at a time: an upstream entry is the
# signed sum over cut outcome bits of the data of its setting (the identity
# reads the Z setting with both signs +1); a downstream entry is the signed
# sum over the eigenstate preparations of its bases.
REF_SIGNS = {PauliOp.I: (1.0, 1.0), PauliOp.X: (1.0, -1.0),
             PauliOp.Y: (1.0, -1.0), PauliOp.Z: (1.0, -1.0)}
REF_PREPS = {PauliOp.I: (("Zp", 1.0), ("Zm", 1.0)), PauliOp.X: (("Xp", 1.0), ("Xm", -1.0)),
             PauliOp.Y: (("Yp", 1.0), ("Ym", -1.0)), PauliOp.Z: (("Zp", 1.0), ("Zm", -1.0))}
REF_BASES = (PauliOp.I, PauliOp.X, PauliOp.Y, PauliOp.Z)


def ref_data(result, cut_ids, obs):
    """{cut outcome bits: output vector or observable value} of one result."""
    n = len(result.probs).bit_length() - 1
    pos = dict(result.cut_bits)
    cut_pos = [pos[cid] for cid in cut_ids]
    outputs = [q for q in range(n) if q not in cut_pos]
    data = {}
    for i, prob in enumerate(result.probs):
        bits = [(i >> (n - 1 - q)) & 1 for q in range(n)]
        b = tuple(bits[q] for q in cut_pos)
        if obs.kind == "distribution":
            row = data.setdefault(b, np.zeros(2 ** len(outputs)))
            row[int("".join(str(bits[q]) for q in outputs) or "0", 2)] += prob
            continue
        if obs.kind == "pauli":
            value = np.prod([(-1.0) ** bits[q]
                             for q, pa in zip(obs.qubits, obs.paulis) if pa is not PauliOp.I])
        else:
            value = float(all(bits[q] == int(c) for q, c in zip(obs.qubits, obs.bits)))
        data[b] = data.get(b, 0.0) + prob * value
    return data


def ref_tensor(results, obs, side):
    """{basis tuple: entry} for every tuple, none neglected."""
    cut_ids = tuple(sorted(cid for cid, _ in results[0].key.assignment))
    k = len(cut_ids)
    measured = cut_ids if side == "upstream" else ()
    table = {tuple(dict(r.key.assignment)[cid] for cid in cut_ids): ref_data(r, measured, obs)
             for r in results}
    out = {}
    for combo in itertools.product(REF_BASES, repeat=k):
        total = 0.0
        if side == "upstream":
            setting = tuple("Z" if p is PauliOp.I else p.value for p in combo)
            for b in itertools.product((0, 1), repeat=k):
                weight = np.prod([REF_SIGNS[p][bit] for p, bit in zip(combo, b)])
                total = total + weight * table[setting][b]
        else:
            for parts in itertools.product(*(REF_PREPS[p] for p in combo)):
                weight = np.prod([w for _, w in parts])
                total = total + weight * table[tuple(lab for lab, _ in parts)][()]
        out[combo] = total
    return out


class TestReferenceDefinition:
    @pytest.mark.parametrize("shots", [None, 300])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_builder_matches_reference(self, k, shots):
        circ = make_cut_circuit(k + 1, k + 1, k, 2, 40 + k)
        f1, f2 = bipartition(circ)
        rng = np.random.default_rng(k)
        for frag, side, enumerate_variants in ((f1, "upstream", upstream_variants),
                                               (f2, "downstream", downstream_variants)):
            outs = frag.output_qubits
            observables = (
                ObservableSpec.distribution(outs),
                ObservableSpec.pauli_string(rng.choice(["I", "X", "Y", "Z"], len(outs)), outs),
                ObservableSpec.projector("".join(rng.choice(["0", "1"], len(outs))), outs),
            )
            for obs in observables:
                results = run_fragment(frag, enumerate_variants(frag, obs=obs),
                                       shots=shots, seed=5)
                by_key = {r.key: r for r in results}
                want = ref_tensor(results, obs, side)
                for choice in itertools.product((None,) + MEASURED_BASES, repeat=k):
                    neglected = frozenset((cid, p) for cid, p in zip(range(1, k + 1), choice)
                                          if p is not None)
                    kept = [by_key[key] for key in enumerate_variants(frag, neglected, obs)]
                    got = build_tensor(kept, obs, side, neglected)
                    for combo, entry in want.items():
                        # a neglected basis leaves its entries at zero
                        if any(pair in neglected for pair in zip(range(1, k + 1), combo)):
                            entry = 0.0
                        assert np.max(np.abs(got.entry(combo) - entry)) < 1e-12

    def test_missing_variant_only_when_a_kept_basis_reads_it(self):
        circ = make_cut_circuit(3, 3, 2, 2, 7)
        f1, f2 = bipartition(circ)
        up = run_fragment(f1, upstream_variants(f1))
        down = run_fragment(f2, downstream_variants(f2))
        no_y1 = [r for r in up if dict(r.key.assignment)[1] != "Y"]
        build_tensor(no_y1, IDENTITY_OBS, "upstream", {(1, PauliOp.Y)})
        for neglected in (frozenset(), {(2, PauliOp.Y)}):
            with pytest.raises(MissingVariant):
                build_tensor(no_y1, IDENTITY_OBS, "upstream", neglected)
        # the identity row reads the Z setting, so neglecting Z keeps it needed
        no_z1 = [r for r in up if dict(r.key.assignment)[1] != "Z"]
        with pytest.raises(MissingVariant):
            build_tensor(no_z1, IDENTITY_OBS, "upstream", {(1, PauliOp.Z)})
        no_yp2 = [r for r in down if dict(r.key.assignment)[2] != "Yp"]
        build_tensor(no_yp2, IDENTITY_OBS, "downstream", {(2, PauliOp.Y)})
        for neglected in (frozenset(), {(1, PauliOp.Y)}):
            with pytest.raises(MissingVariant):
                build_tensor(no_yp2, IDENTITY_OBS, "downstream", neglected)
        no_zm1 = [r for r in down if dict(r.key.assignment)[1] != "Zm"]
        with pytest.raises(MissingVariant):
            build_tensor(no_zm1, IDENTITY_OBS, "downstream", {(1, PauliOp.Z)})

    def test_repeated_key_last_result_counts(self):
        f1, _ = bipartition(fig1())
        results = run_fragment(f1, upstream_variants(f1))
        doubled = [VariantResult(r.key, 0.5 * r.probs, 0, r.cut_bits) for r in results]
        twice = build_tensor(results + doubled, DIST, "upstream")
        once = build_tensor(results, DIST, "upstream")
        assert np.allclose(twice.entries, 0.5 * once.entries, atol=1e-15)


# Every subset of {X, Y, Z} that a cut may neglect, X+Y+Z (identity-only)
# included.
SUBSETS = [frozenset(c) for r in range(4) for c in itertools.combinations(MEASURED_BASES, r)]


class TestOperatorTensor:
    """Tensors straight from the cut operator equal build_tensor over the
    exact results of every variant."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", ["make_cut_circuit", "multicut"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_equals_build_over_variants(self, k, family, side):
        circ = (make_cut_circuit(k + 2, k + 2, k, 2, 60 + k) if family == "make_cut_circuit"
                else load_perfbench("workloads").multicut_circuit(k, 201))
        frag = bipartition(circ)[side]
        enum = upstream_variants if frag.side == "upstream" else downstream_variants
        outs = frag.output_qubits
        rng = np.random.default_rng(k)
        observables = (
            ObservableSpec.distribution(outs),
            ObservableSpec.pauli_string(["XYZI"[i % 4] for i in range(len(outs))], outs),
            ObservableSpec.projector("".join(rng.choice(["0", "1"], len(outs))), outs),
        )
        for obs in observables:
            full = operator_tensor(frag, obs)
            by_key = {r.key: r for r in run_fragment(frag, enum(frag, obs=obs))}
            # each subset at each cut, in a different mix across the cuts
            for shift in range(len(SUBSETS)):
                neglected = frozenset((cid, p) for cid in range(1, k + 1)
                                      for p in SUBSETS[(shift + cid) % len(SUBSETS)])
                got = full.pruned(neglected)
                # the kept variants only, and every variant: the extra
                # results feed only rows that pruning zeroes
                for results in ([by_key[key] for key in enum(frag, neglected, obs)],
                                list(by_key.values())):
                    want = build_tensor(results, obs, frag.side, neglected)
                    assert ((got.side, got.cut_ids, got.mode, got.source, got.neglected,
                             got.output_bits, got.entries.shape)
                            == (want.side, want.cut_ids, want.mode, want.source,
                                want.neglected, want.output_bits, want.entries.shape))
                    assert np.max(np.abs(got.entries - want.entries)) <= 1e-12

    @pytest.mark.parametrize("side", ["upstream", "downstream"])
    def test_side_map_times_amplitude_pairs_is_operator_map(self, side):
        # a variant column is |T[r] . psi|^2, so per cut the data map of
        # build_tensor, applied to the pair map Q[r, (b, b')] = T[r, b]
        # conj(T[r, b']), must be operator_tensor's map; equal to rounding
        table = AMPLITUDE_MAPS[side]
        assert table.shape == (6, 2)
        pairs = (table[:, :, None] * table[:, None, :].conj()).reshape(6, 4)
        assert np.max(np.abs(SIDE_MAPS[side] @ pairs - OPERATOR_MAPS[side])) <= 1e-15

    def test_cut_cap_raises(self):
        for frag in bipartition(make_cut_circuit(9, 9, 9, 1, 0)):
            with pytest.raises(GoldcutError, match="capped at 8 cuts"):
                operator_tensor(frag, ObservableSpec.distribution(frag.output_qubits))

    def test_projector_bound_raises(self, monkeypatch):
        obs = ObservableSpec.projector("0", [0])
        f1, _ = bipartition(fig1())
        operator_tensor(f1, obs)
        monkeypatch.setattr(reconstructor, "cut_amplitudes",
                            lambda fragment, o: 10.0 * cut_amplitudes(fragment, o))
        with pytest.raises(GoldcutError, match="bound"):
            operator_tensor(f1, obs)

    def test_fragment_without_cuts_raises(self):
        f1, _ = bipartition(fig1())
        bare = Fragment(f1.circuit, (), (), f1.output_qubits, f1.parent_qubits)
        with pytest.raises(ValueError, match="no downstream cut qubits"):
            operator_tensor(bare, DIST)


class TestBoundaryChecks:
    """Both builders reject what the variant enumerators reject, with the
    same errors."""

    def fragment(self):
        f1, _ = bipartition(golden_ansatz(5, 2, 7))
        assert f1.upstream_cut_qubits == ((1, 2),)  # local qubit 2 is the cut wire
        return f1

    def test_operator_tensor_rejects_cut_wire_projector(self):
        with pytest.raises(SupportMismatch, match="qubit 2 is not a fragment output"):
            operator_tensor(self.fragment(), ObservableSpec.projector("0", (2,)))

    def test_build_tensor_rejects_cut_wire_projector(self):
        f1 = self.fragment()
        results = run_fragment(f1, upstream_variants(f1))
        with pytest.raises(SupportMismatch, match="qubit 2 is not a fragment output"):
            build_tensor(results, ObservableSpec.projector("0", (2,)), "upstream")

    def test_build_tensor_rejects_results_read_out_for_another_observable(self):
        # Z-readout results for an X observable gave a tensor off by 0.967,
        # and a mixed list used whichever readout came last
        f1 = self.fragment()
        x_obs = ObservableSpec.pauli_string("X", (0,))
        y_obs = ObservableSpec.pauli_string("Y", (0,))
        plain = run_fragment(f1, upstream_variants(f1))
        x_read = run_fragment(f1, upstream_variants(f1, obs=x_obs))
        y_read = run_fragment(f1, upstream_variants(f1, obs=y_obs))
        for results in (plain, y_read, x_read + plain, plain + x_read, x_read[:1] + y_read):
            with pytest.raises(ValueError, match="the observable needs"):
                build_tensor(results, x_obs, "upstream")
        with pytest.raises(ValueError, match="the observable needs"):
            build_tensor(x_read, DIST, "upstream")
        got = build_tensor(x_read, x_obs, "upstream").entries
        assert np.max(np.abs(got - operator_tensor(f1, x_obs).entries)) <= 1e-12

    def test_directly_built_pauli_labels_are_normalized(self):
        # a str label stayed a str: operator_tensor read X as Z (off by
        # 0.967 here), exact_expectation raised AttributeError, and an
        # unknown label went through
        f1, circ = self.fragment(), golden_ansatz(5, 2, 7)
        direct = ObservableSpec("pauli", (0,), paulis=("X",))
        built = ObservableSpec.pauli_string(["X"], [0])
        assert direct == built
        assert np.array_equal(operator_tensor(f1, direct).entries,
                              operator_tensor(f1, built).entries)
        want = [reconstruct(circ, built, shots=s, seed=3).expectation for s in (None, 1000)]
        assert [reconstruct(circ, direct, shots=s, seed=3).expectation
                for s in (None, 1000)] == want
        assert abs(want[0] - exact_expectation(simulate(uncut(circ)), direct)) < 1e-10
        with pytest.raises(ValueError):
            ObservableSpec("pauli", (0,), paulis=("Q",))

    def test_build_tensor_rejects_results_of_another_layout(self):
        # upstream results of a 5- and a 7-qubit ansatz failed inside numpy
        # ("cannot reshape array of size 16 into shape (2,2,2)")
        r5 = run_fragment(self.fragment(), upstream_variants(self.fragment()))
        f7, _ = bipartition(golden_ansatz(7, 2, 7))
        r7 = run_fragment(f7, upstream_variants(f7))
        for results in (r5 + r7[:1], r7[:1] + r5):
            with pytest.raises(ValueError, match="differ from the first result's"):
                build_tensor(results, DIST, "upstream")
        r = r5[0]
        short = VariantResult(r.key, r.probs[:-1], 0, r.cut_bits)
        with pytest.raises(ValueError, match="2\\^n amplitudes, got 7"):
            build_tensor([short] + r5[1:], DIST, "upstream")
        with pytest.raises(ValueError, match="differ from the first result's"):
            build_tensor(r5 + [short], DIST, "upstream")

    @pytest.mark.parametrize("cut_bits", [((1, 7),), ((1, 2), (2, 2))])
    def test_build_tensor_rejects_cut_bits_off_the_local_bits(self, cut_bits):
        # a cut wire beyond the width failed inside numpy ("axes don't match")
        results = [VariantResult(r.key, r.probs, 0, cut_bits)
                   for r in run_fragment(self.fragment(), upstream_variants(self.fragment()))]
        with pytest.raises(ValueError, match="are not distinct bits of 3"):
            build_tensor(results, DIST, "upstream")

    @pytest.mark.parametrize("side,assignment", [
        ("upstream", ((1, "X"), (2, "Y"))),
        ("upstream", ((1, "Q"),)),
        ("upstream", ((2, "X"),)),
        ("downstream", ((1, "X"),)),
        ("downstream", ((2, "Zp"),)),
    ])
    def test_build_tensor_rejects_foreign_keys(self, side, assignment):
        # these were ignored, or raised KeyError inside the assembly when the
        # key lacked cut 1; now the key rule of run_fragment applies, with the
        # upstream cut ids read from the cut bits and the downstream ones
        # from most keys, so the error names the foreign key in either
        # result order (downstream, a foreign first key named the next one)
        frag = bipartition(golden_ansatz(5, 2, 7))[side == "downstream"]
        enum = upstream_variants if side == "upstream" else downstream_variants
        results = run_fragment(frag, enum(frag))
        r = results[0]
        bad = VariantResult(VariantKey(side, assignment), r.probs, 0, r.cut_bits)
        with pytest.raises(ValueError, match="does not fit"):
            run_fragment(frag, [bad.key])
        for listed in ([bad] + results, results + [bad]):
            with pytest.raises(ValueError, match=re.escape(repr(bad.key))):
                build_tensor(listed, DIST, side)

    @pytest.mark.parametrize("pair,message", [((1, "I"), "identity basis cannot be neglected"),
                                              ((9, "X"), "unknown cut 9")])
    def test_neglected_set_checked_as_the_enumerators_check_it(self, pair, message):
        f1 = self.fragment()
        with pytest.raises(ValueError, match=message):
            upstream_variants(f1, {pair})
        results = run_fragment(f1, upstream_variants(f1))
        with pytest.raises(ValueError, match=message):
            build_tensor(results, DIST, "upstream", {pair})
        for t in (build_tensor(results, DIST, "upstream"), operator_tensor(f1, DIST)):
            with pytest.raises(ValueError, match=message):
                t.pruned({pair})

    def test_pruned_cannot_restore_neglected_bases(self):
        # the zeroed X rows would count as kept and read as zero: off by
        # 0.092 in the contracted distribution of this fragment
        t = operator_tensor(self.fragment(), DIST).pruned({(1, "X")})
        for smaller in (set(), {(1, "Y")}):
            with pytest.raises(ValueError, match="cannot restore neglected bases"):
                t.pruned(smaller)
        both = {(1, PauliOp.X), (1, PauliOp.Y)}
        want = operator_tensor(self.fragment(), DIST).pruned(both)
        assert t.pruned({(1, "X")}) is t
        assert np.array_equal(t.pruned(both).entries, want.entries)
        assert t.pruned(both).neglected == want.neglected


class TestPruned:
    """FragmentTensor.pruned on its own set, a new set and a smaller one,
    whether the set comes checked or not."""

    def tensor(self, k=2):
        frag = bipartition(make_cut_circuit(k + 2, k + 2, k, 2, 60 + k))[0]
        return operator_tensor(frag, ObservableSpec.distribution(frag.output_qubits))

    def test_own_set_returns_the_same_tensor(self):
        t = self.tensor()
        for same in ((), frozenset(), set(), [], None, t.neglected):
            assert t.pruned(same) is t
        p = t.pruned({(1, "X"), (2, PauliOp.Z)})
        for same in ({(1, PauliOp.X), (2, PauliOp.Z)}, [(2, "Z"), [1, "X"]], p.neglected):
            assert p.pruned(same) is p

    def test_new_set_writes_positive_zero_over_nan_and_negatives(self):
        # a `* mask` shortcut would leave NaN * 0 = NaN and -x * 0 = -0.0
        t = self.tensor()
        t.entries = np.where(np.arange(t.entries.size).reshape(t.entries.shape) % 3 == 0,
                             np.nan, -1.0 - np.abs(t.entries))
        p = t.pruned({(1, "Y"), (2, "X")})
        for row in (p.entries[2], p.entries[:, 1]):
            assert not np.isnan(row).any() and not np.signbit(row).any() and not row.any()
        kept = np.ones((4, 4), bool)
        kept[2], kept[:, 1] = False, False
        assert np.array_equal(p.entries[kept], t.entries[kept], equal_nan=True)
        assert t.entries[2].all() and np.isnan(t.entries).any()  # t itself is untouched

    def test_smaller_set_raises_checked_or_not(self):
        t = self.tensor()
        p = t.pruned({(1, "X"), (2, "Y")})
        checked = t.pruned({(1, "X")}).neglected
        for smaller in ({(1, "X")}, checked, [(2, "Y")]):
            with pytest.raises(ValueError, match="cannot restore neglected bases"):
                p.pruned(smaller)

    def test_a_checked_set_is_checked_again_for_other_cuts(self):
        # a set normalized for cuts 1..3 skips no check on a tensor of cuts 1, 2
        wide = self.tensor(3).pruned({(3, "Y")}).neglected
        with pytest.raises(ValueError, match="unknown cut 3"):
            self.tensor(2).pruned(wide)
        f1, f2 = bipartition(make_cut_circuit(4, 4, 2, 2, 62))
        for call in (lambda: upstream_variants(f1, wide), lambda: downstream_variants(f2, wide),
                     lambda: build_tensor(run_fragment(f1, upstream_variants(f1)), DIST,
                                          "upstream", wide)):
            with pytest.raises(ValueError, match="unknown cut 3"):
                call()


class TestContractExpectation:
    def test_pass_through_value(self):
        obs = ObservableSpec.pauli_string([PauliOp.Z], [0])
        _, _, a, b = exact_tensors(pass_through(), IDENTITY_OBS, obs)
        rec = contract_tensors(a, b)
        assert abs(rec.value - 1.0) < 1e-12
        assert rec.terms_evaluated == 4

    def test_ghz_zz_correlator(self):
        obs_a = ObservableSpec.pauli_string([PauliOp.Z], [0])
        obs_b = ObservableSpec.pauli_string([PauliOp.Z], [1])
        _, _, a, b = exact_tensors(fig1(), obs_a, obs_b)
        rec = contract_tensors(a, b)
        assert abs(rec.value - 1.0) < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_uncut_oracle(self, seed):
        rng = np.random.default_rng(seed + 300)
        circ = make_cut_circuit(2, 3, 2, 2, seed)
        f1, f2 = bipartition(circ)
        n = circ.n_qubits
        paulis = [PauliOp(rng.choice(["X", "Y", "Z"])) for _ in range(n)]
        obs = ObservableSpec.pauli_string(paulis, range(n))
        obs_a, obs_b = split_observable(f1, f2, obs)
        _, _, a, b = exact_tensors(circ, obs_a, obs_b)
        rec = contract_tensors(a, b)
        want = exact_expectation(simulate(uncut(circ)), obs)
        assert abs(rec.value - want) < 1e-10


class TestContractDistribution:
    @pytest.mark.parametrize("seed,dims", [(s, (2, 2, 1)) for s in range(3)]
                             + [(s, (2, 3, 2)) for s in range(3)])
    def test_matches_uncut_oracle(self, seed, dims):
        n_up, n_down, k = dims
        circ = make_cut_circuit(n_up, n_down, k, 2, seed)
        f1, f2, a, b = exact_tensors(circ, DIST, DIST)
        rec = contract_tensors(a, b)
        n = circ.n_qubits
        perm = parent_permutation(f1, f2, n)
        want = exact_distribution(simulate(uncut(circ)), range(n))
        assert np.max(np.abs(np.asarray(rec.raw)[perm] - want)) < 1e-10

    def test_exact_raw_sums_to_one(self):
        _, _, a, b = exact_tensors(fig1(), DIST, DIST)
        rec = contract_tensors(a, b)
        assert abs(np.sum(rec.raw) - 1.0) < 1e-10

    def test_shot_mode_clamps_and_renormalizes(self):
        f1, f2 = bipartition(fig1())
        a = build_tensor(run_fragment(f1, upstream_variants(f1), shots=50, seed=3),
                         DIST, "upstream")
        b = build_tensor(run_fragment(f2, downstream_variants(f2), shots=50, seed=3,
                                      seed_path=(1,)),
                         DIST, "downstream")
        rec = contract_tensors(a, b)
        value = np.asarray(rec.value)
        raw = np.asarray(rec.raw)
        assert np.all(value >= 0.0)
        assert abs(value.sum() - 1.0) < 1e-12
        clamped = np.clip(raw, 0.0, None)
        assert np.allclose(value, clamped / clamped.sum())


class TestGoldenPruning:
    def test_pruned_contraction_is_exact(self):
        circ = golden_ansatz(3, 1, 0)
        neglected = frozenset({(1, PauliOp.Y)})
        _, _, a_full, b_full = exact_tensors(circ, DIST, DIST)
        _, _, a_cut, b_cut = exact_tensors(circ, DIST, DIST, neglected)
        full = contract_tensors(a_full, b_full)
        pruned = contract_tensors(a_cut, b_cut)
        assert np.max(np.abs(np.asarray(full.raw) - np.asarray(pruned.raw))) < 1e-12
        assert full.terms_evaluated == 4
        assert pruned.terms_evaluated == 3
        assert pruned.neglected == neglected

    def test_neglected_entries_stay_zero(self):
        circ = golden_ansatz(3, 1, 0)
        neglected = frozenset({(1, PauliOp.Y)})
        _, _, a, b = exact_tensors(circ, DIST, DIST, neglected)
        assert np.all(a.entry([PauliOp.Y]) == 0.0)
        assert np.all(b.entry([PauliOp.Y]) == 0.0)


class TestContractOperator:
    """contract_operator equals the contraction with the downstream
    operator_tensor pruned as A is, and rejects what that route rejects."""

    def test_five_cut_pass_wider_than_the_fragment_cap(self):
        # MAX_QUBITS bounds the fragment; the downstream pass holds 2^11 x 2^5
        # amplitudes here, as many as a 16-qubit state
        circ = load_perfbench("workloads").multicut_circuit(5, 201)
        _, f2 = bipartition(circ)
        assert f2.circuit.n_qubits <= MAX_QUBITS < f2.circuit.n_qubits + 5
        want = exact_distribution(simulate(uncut(circ)), range(circ.n_qubits))
        assert np.max(np.abs(reconstruct(circ).distribution - want)) <= 1e-10

    @staticmethod
    def observables(n, rng):
        return (
            ObservableSpec.distribution(range(n)),
            ObservableSpec.pauli_string(list(rng.choice(list("IXYZ"), n)), range(n)),
            ObservableSpec.projector("".join(rng.choice(["0", "1"], n)), range(n)),
        )

    @pytest.mark.parametrize("k, seed", [pytest.param(k, 80 + k, id=str(k)) for k in range(6)]
                             + [pytest.param(3, 90, id="3-seed90")])
    def test_equals_contraction_with_the_downstream_tensor(self, k, seed):
        # k 0 is golden_ansatz, whose exact golden set is not empty. Every k
        # from 1 has a circuit whose upstream tensor has odd-Y entries, which
        # exercise the imaginary half of R_y; at k 3 that is seed 90, since
        # seed 83's largest is a rounding error (4e-17)
        circ = golden_ansatz(5, 2, 7) if k == 0 else make_cut_circuit(k + 2, k + 1, k, 2, seed)
        f1, f2 = bipartition(circ)
        cut_ids = tuple(cid for cid, _ in f1.upstream_cut_qubits)
        rng = np.random.default_rng(k)
        # tuples with an odd number of Y factors, whose R_y part is imaginary
        odd_y = np.sum(np.indices((4,) * k) == 2, axis=0) % 2 == 1
        largest_odd_y = 0.0
        for obs in self.observables(circ.n_qubits, rng):
            obs1, obs2 = split_observable(f1, f2, obs)
            a = operator_tensor(f1, obs1)
            largest_odd_y = max(largest_odd_y, np.max(np.abs(a.entries[odd_y]), initial=0.0))
            golden = detect_exact(a).golden_pairs()
            other = {(cid, p) for cid in cut_ids for p in SUBSETS[(cid + k) % len(SUBSETS)]}
            assert other != golden
            if k == 0:
                assert golden
            for neglected in (frozenset(), golden, other):
                want = contract_tensors(a.pruned(neglected),
                                        operator_tensor(f2, obs2).pruned(neglected))
                got = contract_operator(a.pruned(neglected), f2, obs2)
                assert (got.mode, got.terms_evaluated, got.neglected) == (
                    want.mode, want.terms_evaluated, want.neglected)
                assert np.max(np.abs(np.asarray(got.value) - want.value)) <= 1e-12
                assert np.max(np.abs(np.asarray(got.raw) - want.raw)) <= 1e-12
        if k and (k, seed) != (3, 83):
            assert largest_odd_y > 1e-3

    def test_rejects_what_the_contractions_reject(self):
        f1, f2 = bipartition(fig1())
        a = operator_tensor(f1, DIST)
        obs2 = ObservableSpec.distribution(f2.output_qubits)
        with pytest.raises(WrongSide):
            contract_operator(operator_tensor(f2, obs2), f2, obs2)
        with pytest.raises(WrongSide):
            contract_operator(a, f1, DIST)
        _, f2_wide = bipartition(make_cut_circuit(2, 2, 2, 1, 0))
        with pytest.raises(ArityMismatch, match="cut interfaces differ"):
            contract_operator(a, f2_wide, ObservableSpec.distribution(f2_wide.output_qubits))
        with pytest.raises(ArityMismatch, match="expectation-mode"):
            contract_operator(a, f2, IDENTITY_OBS)
        with pytest.raises(ArityMismatch, match="distribution-mode"):
            contract_operator(operator_tensor(f1, IDENTITY_OBS), f2, obs2)

    def test_cut_cap_raises(self):
        _, f2 = bipartition(make_cut_circuit(9, 9, 9, 1, 0))
        a = FragmentTensor("upstream", tuple(range(1, 10)), "distribution",
                           np.zeros((4,) * 9 + (1,)), "exact", frozenset())
        with pytest.raises(GoldcutError, match="capped at 8 cuts"):
            contract_operator(a, f2, ObservableSpec.distribution(f2.output_qubits))

    @pytest.mark.parametrize("obs", [None, ObservableSpec.projector("00", (0, 2))])
    def test_amplitudes_beyond_unit_norm_raise(self, obs, monkeypatch):
        # the bound |B[M]| <= 2^K that operator_tensor checks on projector
        # entries follows from unit-norm inputs, which this path checks
        circ = fig1()
        reconstruct(circ, obs)

        def scaled(fragment, o):
            psi = cut_amplitudes(fragment, o)
            return 10.0 * psi if fragment.side == "downstream" else psi

        monkeypatch.setattr(reconstructor, "cut_amplitudes", scaled)
        with pytest.raises(GoldcutError, match="unit-norm"):
            reconstruct(circ, obs)

    @pytest.mark.parametrize("value", [np.nan, complex(0, np.nan), np.inf, -np.inf])
    def test_non_finite_amplitudes_raise(self, value, monkeypatch):
        # a NaN norm fails every comparison, so the check must read as
        # "inside the band", not "outside it"
        circ = golden_ansatz(3, 1, 0)

        def spoiled(fragment, o):
            psi = cut_amplitudes(fragment, o).copy()
            if fragment.side == "downstream":
                psi[0, 0] = value
            return psi

        monkeypatch.setattr(reconstructor, "cut_amplitudes", spoiled)
        with pytest.raises(GoldcutError, match="unit-norm"):
            reconstruct(circ)

    @pytest.mark.parametrize("obs", [None, ObservableSpec.projector("00", (0, 2))])
    def test_unit_norm_tolerance_is_per_input(self, obs, monkeypatch):
        # one input row off by twice the documented 1e-9 raises, by half of it not
        circ = fig1()
        want = reconstruct(circ, obs)
        for factor, raises in ((1 + 2e-9, True), (1 - 2e-9, True),
                               (1 + 5e-10, False), (1 - 5e-10, False)):
            def scaled(fragment, o):
                psi = cut_amplitudes(fragment, o).copy()
                if fragment.side == "downstream":
                    psi[-1] *= factor
                return psi

            monkeypatch.setattr(reconstructor, "cut_amplitudes", scaled)
            if raises:
                with pytest.raises(GoldcutError, match="unit-norm"):
                    reconstruct(circ, obs)
            else:
                got = reconstruct(circ, obs)
                assert np.max(np.abs(np.asarray(got.reconstruction.raw)
                                     - want.reconstruction.raw)) <= 1e-8

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_amplitude_layout_does_not_matter(self, k, monkeypatch):
        # the real-view reduction needs a contiguous last axis; cut_amplitudes
        # hands over a transposed view, so other layouts must give the same raw
        circ = load_perfbench("workloads").multicut_circuit(k, 201)
        f1, f2 = bipartition(circ)
        rng = np.random.default_rng(k)
        cases = []
        for obs in self.observables(circ.n_qubits, rng):
            obs1, obs2 = split_observable(f1, f2, obs)
            a = operator_tensor(f1, obs1)
            cases.append((a, obs2, contract_operator(a, f2, obs2).raw))
        for layout in (np.ascontiguousarray, np.asfortranarray,
                       lambda psi: np.repeat(psi, 2, axis=1)[:, ::2]):
            monkeypatch.setattr(reconstructor, "cut_amplitudes",
                                lambda fragment, o: layout(cut_amplitudes(fragment, o)))
            for a, obs2, want in cases:
                got = contract_operator(a, f2, obs2).raw
                assert np.max(np.abs(np.asarray(got) - want)) <= 1e-15

    def test_no_second_copy_of_the_amplitudes(self):
        # beside psi (2^11 outputs x 2^5 inputs) the call holds the product
        # T, as large as psi times the Y = 2 upstream outputs, and the small
        # result; a conjugated or absolute copy of psi would add one more psi
        f1, f2 = bipartition(load_perfbench("workloads").multicut_circuit(5, 201))
        a = operator_tensor(f1, DIST)
        assert a.entries.shape[-1] == 2
        contract_operator(a, f2, DIST)  # compiles the pass, which the fragment keeps
        size = cut_amplitudes(f2).nbytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            contract_operator(a, f2, DIST)
            assert tracemalloc.get_traced_memory()[1] - before - size <= 2.5 * size
        finally:
            tracemalloc.stop()


class TestTermCount:
    def test_single_cut_values(self):
        assert term_count(1, 0) == (4, 16)
        assert term_count(0, 1) == (3, 12)

    def test_matches_enumeration(self):
        for k_r in range(3):
            for k_g in range(3):
                if k_r + k_g == 0 or k_r + k_g > 4:
                    continue
                tuples, terms = term_count(k_r, k_g)
                axes = [4] * k_r + [3] * k_g
                count = int(np.prod(axes))
                assert tuples == count
                assert terms == count * 4 ** (k_r + k_g)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            term_count(-1, 0)


class TestFailureModes:
    def test_missing_upstream_setting(self):
        f1, _ = bipartition(fig1())
        results = run_fragment(f1, upstream_variants(f1))[:-1]
        with pytest.raises(MissingVariant):
            build_tensor(results, IDENTITY_OBS, "upstream")

    def test_missing_downstream_preparation(self):
        _, f2 = bipartition(fig1())
        results = run_fragment(f2, downstream_variants(f2))[1:]
        with pytest.raises(MissingVariant):
            build_tensor(results, IDENTITY_OBS, "downstream")

    def test_mixed_exact_and_shot_results(self):
        # shots == 0 marks exact data; one such result among sampled ones
        f1, _ = bipartition(fig1())
        mixed = run_fragment(f1, upstream_variants(f1), shots=10, seed=0)
        r = mixed[1]
        mixed[1] = VariantResult(r.key, r.probs, 0, r.cut_bits)
        with pytest.raises(ValueError, match="mixed exact and shot"):
            build_tensor(mixed, IDENTITY_OBS, "upstream")

    def test_wrong_side_results(self):
        f1, f2 = bipartition(fig1())
        results = run_fragment(f1, upstream_variants(f1))
        with pytest.raises(WrongSide):
            build_tensor(results, IDENTITY_OBS, "downstream")
        # one result of the other side, first or last
        down = run_fragment(f2, downstream_variants(f2))
        for side, own, other in (("upstream", results, down[0]), ("downstream", down, results[0])):
            for listed in ([other] + own, own + [other]):
                with pytest.raises(WrongSide):
                    build_tensor(listed, IDENTITY_OBS, side)

    def test_contract_sides_swapped(self):
        obs = ObservableSpec.pauli_string([PauliOp.Z], [0])
        _, _, a, b = exact_tensors(pass_through(), IDENTITY_OBS, obs)
        with pytest.raises(WrongSide):
            contract_tensors(b, a)

    def test_contract_cut_arity_mismatch(self):
        _, _, a1, _ = exact_tensors(fig1(), IDENTITY_OBS, IDENTITY_OBS)
        circ = make_cut_circuit(2, 2, 2, 1, 0)
        _, _, _, b2 = exact_tensors(circ, IDENTITY_OBS, IDENTITY_OBS)
        with pytest.raises(ArityMismatch):
            contract_tensors(a1, b2)

    def test_contract_neglect_mismatch(self):
        circ = golden_ansatz(3, 1, 0)
        neglected = frozenset({(1, PauliOp.Y)})
        _, _, a, _ = exact_tensors(circ, DIST, DIST, neglected)
        _, _, _, b = exact_tensors(circ, DIST, DIST)
        with pytest.raises(ArityMismatch):
            contract_tensors(a, b)

    def test_contract_mode_mismatch(self):
        # tensors of two different modes do not contract, in either order
        _, _, a, b = exact_tensors(fig1(), IDENTITY_OBS, IDENTITY_OBS)
        _, _, a_dist, b_dist = exact_tensors(fig1(), DIST, DIST)
        with pytest.raises(ArityMismatch, match="distribution-mode"):
            contract_tensors(a, b_dist)
        with pytest.raises(ArityMismatch, match="expectation-mode"):
            contract_tensors(a_dist, b)


class TestFiniteShots:
    def test_expectation_converges(self):
        obs_a = ObservableSpec.pauli_string([PauliOp.Z], [0])
        obs_b = ObservableSpec.pauli_string([PauliOp.Z], [1])
        f1, f2 = bipartition(fig1())
        a = build_tensor(
            run_fragment(f1, upstream_variants(f1, obs=obs_a), shots=100000, seed=11),
            obs_a, "upstream")
        b = build_tensor(
            run_fragment(f2, downstream_variants(f2, obs=obs_b), shots=100000,
                         seed=11, seed_path=(1,)),
            obs_b, "downstream")
        rec = contract_tensors(a, b)
        assert abs(rec.value - 1.0) < 0.05


def three_observables(frag, rng):
    """A distribution, a random Pauli string and a random projector over
    the fragment's outputs."""
    outs = frag.output_qubits
    return (ObservableSpec.distribution(outs),
            ObservableSpec.pauli_string(rng.choice(["I", "X", "Y", "Z"], len(outs)), outs),
            ObservableSpec.projector("".join(rng.choice(["0", "1"], len(outs))), outs))


def sides(circ):
    return zip(bipartition(circ), ("upstream", "downstream"),
               (upstream_variants, downstream_variants))


def nan_result(r):
    return VariantResult(r.key, np.full_like(r.probs, np.nan), r.shots, r.cut_bits)


class TestKeptAssembly:
    @pytest.mark.parametrize("shots", [None, 200])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_neglected_results_are_checked_but_not_read(self, k, shots):
        # NaN results of neglected labels leave the tensor bit for bit as the
        # kept results alone build it: a map column of 0 would make 0 * NaN
        circ = make_cut_circuit(k + 1, k + 1, k, 2, 60 + k)
        rng = np.random.default_rng(k)
        for frag, side, enumerate_variants in sides(circ):
            for obs in three_observables(frag, rng):
                results = run_fragment(frag, enumerate_variants(frag, obs=obs), shots=shots,
                                       seed=3)
                for neglected in ({(1, PauliOp.Y)}, {(1, PauliOp.X), (k, PauliOp.Y)},
                                  {(k, PauliOp.X), (k, PauliOp.Y), (k, PauliOp.Z)}):
                    keep = set(enumerate_variants(frag, neglected, obs))
                    kept = [r for r in results if r.key in keep]
                    poisoned = [r if r.key in keep else nan_result(r) for r in results]
                    assert len(poisoned) > len(kept)
                    want = build_tensor(kept, obs, side, neglected)
                    got = build_tensor(poisoned, obs, side, neglected)
                    assert got.entries.tobytes() == want.entries.tobytes()
                    assert not np.isnan(got.entries).any()
                    # checked all the same: a neglected result of another length raises
                    i = max(i for i, r in enumerate(poisoned) if r.key not in keep)
                    r = poisoned[i]
                    poisoned[i] = VariantResult(r.key, np.tile(r.probs, 2), r.shots, r.cut_bits)
                    with pytest.raises(ValueError, match="length"):
                        build_tensor(poisoned, obs, side, neglected)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_result_order_does_not_matter(self, k):
        # shuffled, with one key repeated ahead of its last result, the
        # results build the entries of the canonical order bit for bit
        circ = make_cut_circuit(k + 1, k + 1, k, 2, 80 + k)
        rng = np.random.default_rng(k)
        for frag, side, enumerate_variants in sides(circ):
            for obs in three_observables(frag, rng):
                results = run_fragment(frag, enumerate_variants(frag, obs=obs), shots=100,
                                       seed=k)
                want = build_tensor(results, obs, side)
                shuffled = [results[i] for i in rng.permutation(len(results))]
                shuffled.insert(0, nan_result(shuffled[rng.integers(len(shuffled))]))
                got = build_tensor(shuffled, obs, side)
                assert got.entries.tobytes() == want.entries.tobytes()


class TestAssemblyMemory:
    def test_blocks_bound_the_transient_memory(self):
        # run_fragment maps one block of leading-cut labels at a time and
        # build_tensor gathers one first-cut label at a time, so neither
        # holds much beside the results: at K = 4 downstream, in distribution
        # mode, 1296 vectors of 2^10 probabilities
        _, f2 = bipartition(load_perfbench("workloads").multicut_circuit(4, 201))
        keys = downstream_variants(f2, obs=DIST)
        run_fragment(f2, keys[:1])  # compiles the pass, which the fragment keeps
        tracemalloc.start()
        try:
            results = run_fragment(f2, keys)
            held, peak = tracemalloc.get_traced_memory()
            size = sum(r.probs.nbytes for r in results)
            assert peak - held <= 0.3 * size
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            build_tensor(results, DIST, "downstream")
            assert tracemalloc.get_traced_memory()[1] - before <= 0.6 * size
        finally:
            tracemalloc.stop()
