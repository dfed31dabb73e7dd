"""Golden cutting point detection, exact and statistical."""
import json
import math

import numpy as np
import pytest

from goldcut.circuits import (
    Circuit,
    CutPoint,
    PauliOp,
    bipartition,
    cnot,
    golden_ansatz,
    h,
    ry,
)
from goldcut.errors import MissingVariant, WrongSide
from goldcut.fragmenter import (
    MEASURED_BASES,
    VariantResult,
    downstream_variants,
    run_fragment,
    upstream_variants,
)
from goldcut.golden import (
    DEFAULT_ALPHA,
    DEFAULT_TAU,
    GENERATION_EPS,
    ORACLE_EPS,
    _basis_magnitudes,
    detect_exact,
    detect_statistical,
    hoeffding_radius,
)
from goldcut.pipeline import reconstruct
from goldcut.reconstructor import (
    _BASE_INDEX,
    FragmentTensor,
    build_tensor,
    combine_tensors,
    contract_tensors,
)
from goldcut.simulator import ObservableSpec


def fig1():
    return Circuit(3, (h(0), cnot(0, 1), cnot(1, 2)), (CutPoint(1, 1, 1),))


def upstream_tensor(circ, obs, shots=None, seed=0):
    f1, _ = bipartition(circ)
    results = run_fragment(f1, upstream_variants(f1, obs=obs), shots=shots, seed=seed)
    return build_tensor(results, obs, "upstream"), results


def slice_maxima(tensor):
    """Max |entry| of each per-(cut, basis) slice, in (cut id, X, Y, Z)
    order: the reference that _basis_magnitudes must equal."""
    k = tensor.n_cuts
    mags = np.abs(tensor.entries)
    if mags.ndim > k:
        mags = mags.max(axis=tuple(range(k, mags.ndim)))
    out = []
    for axis, cid in enumerate(tensor.cut_ids):
        for p in MEASURED_BASES:
            sl = [slice(None)] * k
            sl[axis] = _BASE_INDEX[p]
            out.append((cid, p, float(mags[tuple(sl)].max())))
    return out


class TestBasisMagnitudes:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["expectation", "distribution"])
    def test_equal_the_slice_maxima(self, mode, k):
        rng = np.random.default_rng(10 * k + len(mode))
        for _ in range(25):
            tail = (2 ** rng.integers(5),) if mode == "distribution" else ()
            entries = rng.normal(size=(4,) * k + tail)
            for axis in range(k):  # some golden rows
                if rng.integers(2):
                    entries[(slice(None),) * axis + (rng.integers(1, 4),)] = 0.0
            cut_ids = tuple(sorted(rng.choice(range(1, 9), size=k, replace=False).tolist()))
            tensor = FragmentTensor("upstream", cut_ids, mode, entries, "exact", frozenset())
            want = slice_maxima(tensor)
            got = _basis_magnitudes(tensor)
            assert [(c, p) for c, p, _ in got] == [(c, p) for c, p, _ in want]
            assert np.array_equal([m for *_, m in got], [m for *_, m in want])
            report = detect_exact(tensor)
            assert [(e.cut_id, e.basis, e.magnitude) for e in report.entries] == [
                (c, p.value, m) for c, p, m in want]


class TestExactDetection:
    def test_bell_x_observable_flags_y_and_z(self):
        obs = ObservableSpec.pauli_string([PauliOp.X], [0])
        tensor, _ = upstream_tensor(fig1(), obs)
        report = detect_exact(tensor, eps=1e-12)
        assert report.entry(1, "Z").golden
        assert report.entry(1, "Z").magnitude <= 1e-12
        assert report.entry(1, "Y").golden
        assert not report.entry(1, "X").golden
        assert abs(report.entry(1, "X").magnitude - 1.0) < 1e-12

    def test_bell_plus_projector_flags_z(self):
        # |+><+| = (I + X)/2, assembled by linearity before detection
        circ = fig1()
        f1, _ = bipartition(circ)
        obs_i = ObservableSpec.pauli_string([], [])
        obs_x = ObservableSpec.pauli_string([PauliOp.X], [0])
        t_i = build_tensor(run_fragment(f1, upstream_variants(f1)), obs_i, "upstream")
        t_x = build_tensor(run_fragment(f1, upstream_variants(f1, obs=obs_x)),
                           obs_x, "upstream")
        report = detect_exact(combine_tensors((t_i, t_x), (0.5, 0.5)), eps=1e-12)
        assert report.entry(1, "Z").golden
        assert report.entry(1, "Z").magnitude <= 1e-12
        assert not report.entry(1, "X").golden

    def test_ansatz_distribution_y_is_exactly_zero(self):
        # real-amplitude upstream blocks make every Y-basis entry vanish
        # identically, not just within tolerance
        tensor, _ = upstream_tensor(golden_ansatz(5, 2, 3),
                                    ObservableSpec.distribution(()))
        report = detect_exact(tensor, eps=GENERATION_EPS)
        entry = report.entry(1, "Y")
        assert entry.golden
        assert entry.magnitude == 0.0
        assert (1, PauliOp.Y) in report.golden_pairs()

    def test_requires_upstream_exact(self):
        obs = ObservableSpec.pauli_string([PauliOp.Z], [1])
        _, f2 = bipartition(fig1())
        b = build_tensor(run_fragment(f2, downstream_variants(f2, obs=obs)),
                         obs, "downstream")
        with pytest.raises(WrongSide):
            detect_exact(b)
        a_shots, _ = upstream_tensor(fig1(), ObservableSpec.pauli_string([], []),
                                     shots=100)
        with pytest.raises(ValueError):
            detect_exact(a_shots)


    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_eps_that_is_negative_or_not_finite_is_rejected(self, eps):
        # NaN and -1 flagged nothing; inf flagged X, Y and Z
        tensor, _ = upstream_tensor(golden_ansatz(5, 2, 3), ObservableSpec.distribution(()))
        with pytest.raises(ValueError, match="^eps must be finite and at least 0"):
            detect_exact(tensor, eps)

    def test_zero_eps_flags_only_exact_zeros(self):
        tensor, _ = upstream_tensor(golden_ansatz(5, 2, 3), ObservableSpec.distribution(()))
        report = detect_exact(tensor, 0.0)
        assert report.golden_pairs() == {(1, PauliOp.Y)}


class TestPruningChangesNonGolden:
    def test_neglecting_a_live_basis_moves_the_value(self):
        # <XXX> on the GHZ state lives entirely in the X tuple, so dropping
        # X must not silently reproduce the full answer
        circ = fig1()
        f1, f2 = bipartition(circ)
        obs_a = ObservableSpec.pauli_string([PauliOp.X], [0])
        obs_b = ObservableSpec.pauli_string([PauliOp.X, PauliOp.X], [0, 1])
        full_a = build_tensor(run_fragment(f1, upstream_variants(f1, obs=obs_a)),
                              obs_a, "upstream")
        full_b = build_tensor(run_fragment(f2, downstream_variants(f2, obs=obs_b)),
                              obs_b, "downstream")
        assert abs(contract_tensors(full_a, full_b).value - 1.0) < 1e-10
        dropped = frozenset({(1, PauliOp.X)})
        cut_a = build_tensor(run_fragment(f1, upstream_variants(f1, dropped, obs=obs_a)),
                             obs_a, "upstream", dropped)
        cut_b = build_tensor(
            run_fragment(f2, downstream_variants(f2, dropped, obs=obs_b)),
            obs_b, "downstream", dropped)
        pruned = contract_tensors(cut_a, cut_b)
        assert abs(pruned.value - 1.0) > 0.5


class TestHoeffdingRadius:
    def test_reference_value(self):
        assert abs(hoeffding_radius(10000, 0.05) - 0.0192) < 1e-4
        assert hoeffding_radius(10000, 0.05) == math.sqrt(math.log(40.0) / 10000)

    def test_monotonic_in_shots_and_alpha(self):
        assert hoeffding_radius(100, 0.05) > hoeffding_radius(10000, 0.05)
        assert hoeffding_radius(10000, 0.01) > hoeffding_radius(10000, 0.05)

    @pytest.mark.parametrize("shots,alpha", [(0, 0.05), (-100, 0.05), (100, 0.0),
                                             (100, 1.0), (100, -0.5)])
    def test_rejects_no_shots_and_alpha_outside_zero_one(self, shots, alpha):
        # shots 0 and alpha 0 divided by zero; negative shots reached math.sqrt
        with pytest.raises(ValueError, match=r"need shots >= 1|alpha must lie in \(0, 1\)"):
            hoeffding_radius(shots, alpha)


class TestStatisticalDetection:
    def test_bell_flags_z_not_x(self):
        obs = ObservableSpec.pauli_string([PauliOp.X], [0])
        _, results = upstream_tensor(fig1(), obs, shots=10000, seed=21)
        report = detect_statistical(results, obs, alpha=0.05, tau=0.05)
        z = report.entry(1, "Z")
        assert z.golden
        assert z.shots == 10000
        assert abs(z.radius - 0.0192) < 1e-4
        x = report.entry(1, "X")
        assert not x.golden
        assert x.magnitude > 0.9

    def test_too_few_shots_marks_insufficient(self):
        obs = ObservableSpec.pauli_string([PauliOp.X], [0])
        _, results = upstream_tensor(fig1(), obs, shots=10, seed=21)
        report = detect_statistical(results, obs, alpha=0.05, tau=0.02)
        for basis in "XYZ":
            entry = report.entry(1, basis)
            assert entry.insufficient
            assert not entry.golden
            assert entry.radius > 0.02

    def test_rejects_exact_results_and_bad_alpha(self):
        obs = ObservableSpec.pauli_string([], [])
        f1, _ = bipartition(fig1())
        exact = run_fragment(f1, upstream_variants(f1))
        with pytest.raises(ValueError):
            detect_statistical(exact, obs)
        sampled = run_fragment(f1, upstream_variants(f1), shots=100, seed=0)
        with pytest.raises(ValueError):
            detect_statistical(sampled, obs, alpha=1.5)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0, -0.02])
    def test_rejects_tau_that_is_not_finite_and_positive(self, tau):
        # a NaN tau made "radius > tau" false, so wide radii flagged bases
        obs = ObservableSpec.distribution((0,))
        f1, _ = bipartition(fig1())
        sampled = run_fragment(f1, upstream_variants(f1), shots=100, seed=0)
        with pytest.raises(ValueError, match="tau must be finite"):
            detect_statistical(sampled, obs, tau=tau)
        with pytest.raises(ValueError, match="tau must be finite"):
            reconstruct(golden_ansatz(5, 2, 7), shots=100, prune="statistical", tau=tau)

    def test_rejects_empty_results(self):
        # with a tensor given, min() over no shot counts raised
        # "min() arg is an empty sequence"
        obs = ObservableSpec.distribution((0,))
        tensor, _ = upstream_tensor(fig1(), obs, shots=100)
        for kwargs in ({}, {"tensor": tensor}):
            with pytest.raises(MissingVariant, match="no variant results"):
                detect_statistical([], obs, **kwargs)

    @pytest.mark.parametrize("exact_at", [(0, 1, 2), (1,)])
    def test_rejects_zero_shot_results(self, exact_at):
        # shots == 0 marks exact data, even with sampled frequencies in probs
        obs = ObservableSpec.pauli_string([], [])
        f1, _ = bipartition(fig1())
        results = run_fragment(f1, upstream_variants(f1), shots=100, seed=0)
        for i in exact_at:
            r = results[i]
            results[i] = VariantResult(r.key, r.probs, 0, r.cut_bits)
        with pytest.raises(ValueError, match="shot-mode"):
            detect_statistical(results, obs)

    def test_rejects_negative_shot_results(self):
        # hand-built results with negative shots reached math.sqrt and raised
        # "math domain error"
        obs = ObservableSpec.pauli_string([], [])
        f1, _ = bipartition(fig1())
        results = [VariantResult(r.key, r.probs, -100, r.cut_bits)
                   for r in run_fragment(f1, upstream_variants(f1), shots=100, seed=0)]
        with pytest.raises(ValueError, match="shot-mode"):
            detect_statistical(results, obs)

    def test_flag_rate_on_a_true_zero(self):
        # Z is golden here; with 1e4 shots the radius is about 1.9 sigma,
        # so most repetitions should flag it
        obs = ObservableSpec.pauli_string([PauliOp.X], [0])
        hits = 0
        for i in range(20):
            _, results = upstream_tensor(fig1(), obs, shots=10000, seed=1000 + i)
            report = detect_statistical(results, obs, alpha=0.05, tau=0.05)
            hits += report.entry(1, "Z").golden
        assert hits >= 16

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: a true golden basis is flagged in 94.45% of "
                              "runs here, below the promised 1 - alpha = 95%")
    def test_true_golden_basis_flagged_with_probability_one_minus_alpha(self):
        # the upstream state has real amplitudes, so Y is exactly golden
        circ = Circuit(2, (ry(1.1, 0), cnot(0, 1)), (CutPoint(0, 0, 1),))
        obs = ObservableSpec.pauli_string([], [])
        f1, _ = bipartition(circ)
        keys = upstream_variants(f1, obs=obs)
        runs = 4000
        flagged = 0
        for seed in range(runs):
            results = run_fragment(f1, keys, shots=10_000, seed=seed)
            y = detect_statistical(results, obs).entry(1, "Y")
            assert not y.insufficient
            flagged += y.golden
        assert flagged >= (1 - DEFAULT_ALPHA) * runs

    def test_true_golden_basis_flagged_in_distribution_mode(self):
        # the promise above in distribution mode, where it holds: Y is
        # exactly golden in golden_ansatz and was flagged in 98.95% of these
        # runs at radius 0.0192 (golden_ansatz(3, 2, 7) gave 95.07%, too
        # close to the bound to pin)
        f1, _ = bipartition(golden_ansatz(5, 2, 7))
        obs = ObservableSpec.distribution(f1.output_qubits)
        keys = upstream_variants(f1, obs=obs)
        runs = 2000
        flagged = 0
        for seed in range(runs):
            results = run_fragment(f1, keys, shots=10_000, seed=seed)
            y = detect_statistical(results, obs).entry(1, "Y")
            assert not y.insufficient
            flagged += y.golden
        assert flagged >= (1 - DEFAULT_ALPHA) * runs

    def test_defaults_are_pinned(self):
        assert DEFAULT_ALPHA == 0.05
        assert DEFAULT_TAU == 0.02
        assert ORACLE_EPS == 1e-12
        assert GENERATION_EPS == 1e-8


class TestReportJson:
    def test_exact_schema(self):
        obs = ObservableSpec.pauli_string([PauliOp.X], [0])
        tensor, _ = upstream_tensor(fig1(), obs)
        doc = json.loads(detect_exact(tensor).to_json())
        assert [row["basis"] for row in doc] == ["X", "Y", "Z"]
        for row in doc:
            assert set(row) == {"cut", "basis", "magnitude", "golden"}
            assert row["cut"] == 1

    def test_statistical_schema(self):
        obs = ObservableSpec.pauli_string([PauliOp.X], [0])
        _, results = upstream_tensor(fig1(), obs, shots=10000, seed=3)
        doc = json.loads(detect_statistical(results, obs, tau=0.05).to_json())
        for row in doc:
            assert set(row) == {"cut", "basis", "magnitude", "golden", "radius",
                                "shots", "insufficient"}
            assert row["shots"] == 10000
            assert row["insufficient"] is False

    def test_entry_of_an_absent_pair_raises_key_error(self):
        tensor, _ = upstream_tensor(fig1(), ObservableSpec.distribution(()))
        with pytest.raises(KeyError):
            detect_exact(tensor).entry(2, PauliOp.X)

    def test_two_cut_report_covers_both(self):
        from conftest import make_cut_circuit
        circ = make_cut_circuit(2, 2, 2, 1, 4)
        tensor, _ = upstream_tensor(circ, ObservableSpec.distribution(()))
        doc = json.loads(detect_exact(tensor).to_json())
        assert [(row["cut"], row["basis"]) for row in doc] == [
            (1, "X"), (1, "Y"), (1, "Z"), (2, "X"), (2, "Y"), (2, "Z")]
