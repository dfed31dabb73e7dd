"""Weighted distance and cost accounting."""
import importlib.util
import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from goldcut.circuits import PauliOp, bipartition
from goldcut.errors import EmptySupport
from goldcut.fragmenter import downstream_variants, upstream_variants
from goldcut.metrics import (
    CSV_COLUMNS,
    closed_form_counts,
    cost_report,
    cut_counts,
    weighted_distance,
)
from goldcut.reconstructor import FragmentTensor, contract_expectation

from conftest import make_cut_circuit


class TestWeightedDistance:
    def test_identical_is_exactly_zero(self):
        q = {0: 0.25, 1: 0.75}
        assert weighted_distance(q, q) == 0.0

    def test_worked_example_one_third(self):
        d = weighted_distance({0: 0.5, 1: 0.5}, {0: 0.25, 1: 0.75})
        assert abs(d - (0.25 + 0.0625 / 0.75)) < 1e-15
        assert abs(d - 1.0 / 3.0) < 1e-12

    def test_missing_outcome_contributes_its_truth_mass(self):
        p = {0: 0.9, 1: 0.1}
        q = {0: 0.9, 2: 0.1}
        assert abs(weighted_distance(p, q) - 0.1) < 1e-12

    def test_zero_iff_equal_on_support(self):
        q = {0: 0.5, 1: 0.25, 2: 0.25}
        assert weighted_distance({0: 0.5, 1: 0.25, 2: 0.25}, q) == 0.0
        assert weighted_distance({0: 0.5, 1: 0.24, 2: 0.26}, q) > 1e-12

    def test_vector_inputs_match_dicts(self):
        p = np.array([0.5, 0.5, 0.0, 0.0])
        q = np.array([0.25, 0.25, 0.25, 0.25])
        as_dicts = weighted_distance(dict(enumerate(p)), dict(enumerate(q)))
        assert weighted_distance(p, q) == as_dicts

    def test_permutation_invariance(self):
        rng = np.random.default_rng(17)
        p = rng.random(8)
        q = rng.random(8) + 0.05
        p, q = p / p.sum(), q / q.sum()
        perm = rng.permutation(8)
        base = weighted_distance(p, q)
        shuffled = weighted_distance({int(k): p[k] for k in perm},
                                     {int(k): q[k] for k in perm})
        assert abs(base - shuffled) < 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            weighted_distance({0: 0.9}, {0: 1.0})
        with pytest.raises(ValueError):
            weighted_distance({0: 1.0}, {0: 1.1})

    def test_empty_support(self):
        with pytest.raises(EmptySupport):
            weighted_distance({0: 1.0}, {})
        with pytest.raises(EmptySupport):
            weighted_distance(np.array([1.0, 0.0]), np.zeros(2))


def _load_checks():
    # the benchmark's own count check, loaded from its file (read-only)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


implied_counts = _load_checks().implied_counts

SUBSETS = [frozenset(c) for r in range(4)
           for c in itertools.combinations((PauliOp.X, PauliOp.Y, PauliOp.Z), r)]


def per_cut_subsets(k):
    """Every assignment of a subset of {X, Y, Z} to each of the cuts 1..k."""
    for combo in itertools.product(SUBSETS, repeat=k):
        yield frozenset((cid, p) for cid, dropped in enumerate(combo, 1) for p in dropped)


class TestCutCounts:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_formula_matches_the_enumerators(self, k):
        f1, f2 = bipartition(make_cut_circuit(4, 4, k, 1, k))
        for neglected in per_cut_subsets(k):
            counts = cut_counts(range(1, k + 1), neglected)
            assert counts.upstream_variants == len(upstream_variants(f1, neglected))
            assert counts.downstream_variants == len(downstream_variants(f2, neglected))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_formula_matches_contraction_and_benchmark(self, k):
        cut_ids = tuple(range(1, k + 1))
        full = cut_counts(cut_ids)
        for neglected in per_cut_subsets(k):
            counts = cut_counts(cut_ids, neglected)
            a, b = (FragmentTensor(side, cut_ids, "expectation", np.zeros((4,) * k),
                                   "exact", neglected)
                    for side in ("upstream", "downstream"))
            assert contract_expectation(a, b).terms_evaluated == counts.basis_tuples
            for prune in ("off", "known", "exact", "statistical"):
                up = full if prune == "statistical" else counts
                assert implied_counts(cut_ids, neglected, prune) == (
                    up.upstream_variants + counts.downstream_variants, counts.basis_tuples)

    def test_enumerators_at_four_cuts(self):
        # every multiset of per-cut subsets; the counts are products, so
        # the per-cut order is covered by the full sweeps at k <= 3
        f1, f2 = bipartition(make_cut_circuit(4, 4, 4, 1, 4))
        for combo in itertools.combinations_with_replacement(SUBSETS, 4):
            neglected = frozenset((cid, p) for cid, dropped in enumerate(combo, 1)
                                  for p in dropped)
            counts = cut_counts(range(1, 5), neglected)
            assert counts.upstream_variants == len(upstream_variants(f1, neglected))
            assert counts.downstream_variants == len(downstream_variants(f2, neglected))

    def test_identity_only_cut(self):
        counts = cut_counts((1, 2), {(1, PauliOp.X), (1, PauliOp.Y), (1, PauliOp.Z)}, 10)
        assert (counts.upstream_variants, counts.downstream_variants) == (1 * 3, 2 * 6)
        assert counts.basis_tuples == 1 * 4
        assert counts.shots_total == 15 * 10

    def test_reads_neglected_pairs_as_the_enumerators_do(self):
        assert cut_counts((1,), {(1, "Z")}) == cut_counts((1,), {(1, PauliOp.Z)})
        for bad in ({(2, PauliOp.Y)}, {(1, PauliOp.I)}, {(1.0, PauliOp.Y)}):
            with pytest.raises(ValueError):
                cut_counts((1,), bad)


class TestCostReport:
    def test_single_golden_cut_saves_one_third(self):
        pruned, baseline = closed_form_counts(0, 1)
        assert (pruned.upstream_variants, pruned.downstream_variants) == (2, 4)
        assert baseline.variants_executed == 9
        report = cost_report(pruned, baseline)
        assert Fraction(report.variants_executed, report.baseline_variants) \
            == Fraction(2, 3)
        assert abs(report.variant_savings - 1.0 / 3.0) < 1e-12

    def test_no_golden_cuts_no_savings(self):
        pruned, baseline = closed_form_counts(2, 0)
        report = cost_report(pruned, baseline)
        assert report.variant_savings == 0.0
        assert report.tuple_savings == 0.0
        assert report.variants_executed == report.baseline_variants

    def test_two_cuts_one_golden(self):
        pruned, baseline = closed_form_counts(1, 1)
        assert pruned.downstream_variants == 24
        assert baseline.downstream_variants == 36
        assert pruned.basis_tuples == 12
        assert baseline.basis_tuples == 16

    def test_closed_form_ratios_are_exact_powers(self):
        for k_r in range(4):
            for k_g in range(4):
                if k_r + k_g == 0:
                    continue
                pruned, baseline = closed_form_counts(k_r, k_g)
                down = Fraction(pruned.downstream_variants,
                                baseline.downstream_variants)
                up = Fraction(pruned.upstream_variants, baseline.upstream_variants)
                tup = Fraction(pruned.basis_tuples, baseline.basis_tuples)
                assert down == Fraction(2, 3) ** k_g
                assert up == Fraction(2, 3) ** k_g
                assert tup == Fraction(3, 4) ** k_g

    def test_negative_cut_counts_rejected(self):
        for bad in ((-1, 0), (0, -2)):
            with pytest.raises(ValueError):
                closed_form_counts(*bad)

    def test_savings_stay_in_unit_interval(self):
        for k_r in range(3):
            for k_g in range(3):
                if k_r + k_g == 0:
                    continue
                report = cost_report(*closed_form_counts(k_r, k_g))
                for ratio in (report.variant_savings, report.shot_savings,
                              report.tuple_savings):
                    assert 0.0 <= ratio < 1.0


class TestCsvColumns:
    def test_normative_order(self):
        assert CSV_COLUMNS == (
            "trial", "seed", "n_qubits", "K", "K_g", "shots_per_variant",
            "d_w_cut", "d_w_uncut", "variants_pruned", "variants_baseline",
            "tuples_pruned", "tuples_baseline",
        )
