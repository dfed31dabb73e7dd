"""Accuracy and cost metrics: weighted distance and pruning savings."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import PauliOp
from .errors import EmptySupport
from .fragmenter import _kept_labels, _neglected_by_cut

CSV_COLUMNS = (
    "trial", "seed", "n_qubits", "K", "K_g", "shots_per_variant",
    "d_w_cut", "d_w_uncut", "variants_pruned", "variants_baseline",
    "tuples_pruned", "tuples_baseline",
)


def _as_dict(dist):
    if isinstance(dist, dict):
        return {k: float(v) for k, v in dist.items()}
    arr = np.asarray(dist, dtype=float)
    return {i: float(v) for i, v in enumerate(arr)}


def weighted_distance(p, q) -> float:
    """Sum of (p(x) - q(x))^2 / q(x) over the support of the truth q.

    q is the ground truth; outcomes with q(x) = 0 are excluded from the sum.
    Both inputs may be mappings or plain probability vectors and must each
    sum to 1 within 1e-9.
    """
    pd, qd = _as_dict(p), _as_dict(q)
    support = [x for x, v in qd.items() if v > 0.0]
    if not support:
        raise EmptySupport("ground truth has no positive-probability outcome")
    for name, dist in (("p", pd), ("q", qd)):
        total = sum(dist.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError("%s sums to %.12g, expected 1" % (name, total))
    return float(sum((pd.get(x, 0.0) - qd[x]) ** 2 / qd[x] for x in support))


@dataclass
class CostLedger:
    """Executed variants per side, shots per variant, and basis tuples."""

    upstream_variants: int = 0
    downstream_variants: int = 0
    basis_tuples: int = 0
    shots_each: int = 0

    @property
    def variants_executed(self) -> int:
        return self.upstream_variants + self.downstream_variants

    @property
    def shots_total(self) -> int:
        return self.variants_executed * self.shots_each


def _savings(pruned: int, baseline: int) -> float:
    if baseline <= 0:
        return 0.0
    return 1.0 - pruned / baseline


@dataclass
class CostReport:
    """Pruned-versus-baseline execution and contraction counts."""

    variants_executed: int
    shots_total: int
    basis_tuples_contracted: int
    baseline_variants: int
    baseline_shots: int
    baseline_tuples: int
    variant_savings: float
    shot_savings: float
    tuple_savings: float


def cost_report(pruned: CostLedger, baseline: CostLedger) -> CostReport:
    return CostReport(
        pruned.variants_executed,
        pruned.shots_total,
        pruned.basis_tuples,
        baseline.variants_executed,
        baseline.shots_total,
        baseline.basis_tuples,
        _savings(pruned.variants_executed, baseline.variants_executed),
        _savings(pruned.shots_total, baseline.shots_total),
        _savings(pruned.basis_tuples, baseline.basis_tuples),
    )


def cut_counts(cut_ids, neglected=frozenset(), shots_each: int = 0) -> CostLedger:
    """The paper's cost units for cuts that neglect these (cut_id, basis) pairs.

    At cut c, let g_c be the number of non-Z bases dropped and d_c the set
    of all bases dropped. A run executes prod(3 - g_c) upstream settings
    (the Z setting always runs, since the identity is read from it) and
    prod(6 - 2 g_c) downstream preparations, each at shots_each shots, and
    contracts prod(4 - |d_c|) basis tuples. The labels counted and the
    check of neglected are the variant enumerators' own; dropping X, Y and
    Z at a cut leaves its identity term alone.
    """
    cut_ids = tuple(cut_ids)
    return CostLedger(*_counts(cut_ids, _neglected_by_cut(cut_ids, neglected)), shots_each)


def _counts(cut_ids, neglected) -> tuple:
    """cut_counts' (upstream variants, downstream variants, basis tuples)
    for the cuts cut_ids and a neglected set checked before."""
    upstream = downstream = tuples = 1
    for bases in ({p for c, p in neglected if c == cid} for cid in cut_ids):
        upstream *= len(_kept_labels("upstream", bases))
        downstream *= len(_kept_labels("downstream", bases))
        tuples *= 4 - len(bases)
    return upstream, downstream, tuples


def cost_ledgers(cut_ids, neglected=frozenset(), shots_each: int = 0):
    """(pruned, baseline): cut_counts with and without the neglected pairs."""
    return cut_counts(cut_ids, neglected, shots_each), cut_counts(cut_ids, (), shots_each)


def closed_form_counts(k_regular: int, k_golden: int):
    """Exact integer counts for K = k_regular + k_golden cuts where each
    golden cut neglects one non-Z basis (cost_ledgers with Y dropped at the
    last k_golden cuts).

    Returns (pruned, baseline) CostLedgers with variant and tuple counts
    filled in; shots are left at zero for the caller to scale.
    """
    if k_regular < 0 or k_golden < 0:
        raise ValueError("cut counts must be non-negative")
    cut_ids = range(1, k_regular + k_golden + 1)
    golden = {(cid, PauliOp.Y) for cid in cut_ids[k_regular:]}
    return cost_ledgers(cut_ids, golden)
