"""End-to-end orchestration: cut, execute, detect, contract, compare.

Observables and distributions at this level refer to parent-circuit qubits;
the helpers here split them onto the two fragments and permute fragment
results back into parent qubit order. Exact mode runs no variant: both
tensors come from the fragments' cut operators (operator_tensor). RNG
streams are split per (root seed, trial, side, variant) with side codes
0 = upstream, 1 = downstream, 2 = uncut reference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Fragment, bipartition, uncut
from .errors import SupportMismatch
from .fragmenter import _normalize_neglected, downstream_variants, run_fragment, upstream_variants
from .golden import (
    DEFAULT_ALPHA,
    DEFAULT_TAU,
    ORACLE_EPS,
    GoldenReport,
    detect_exact,
    detect_statistical,
)
from .metrics import CostReport, cost_report, cut_counts
from .reconstructor import (
    Reconstruction,
    build_tensor,
    contract_distribution,
    contract_expectation,
    operator_tensor,
)
from .seeding import stream
from .simulator import ObservableSpec, exact_distribution, exact_expectation, sample, simulate

SIDE_UPSTREAM = 0
SIDE_DOWNSTREAM = 1
SIDE_UNCUT = 2

PRUNE_MODES = ("off", "known", "exact", "statistical")


def split_observable(f1: Fragment, f2: Fragment, obs: ObservableSpec):
    """Split a parent-qubit observable into per-fragment observables.

    Every parent wire terminates in exactly one fragment output, so the
    observable factorizes across fragments up to qubit reordering.
    """
    if obs.kind == "distribution":
        return (ObservableSpec.distribution(f1.output_qubits),
                ObservableSpec.distribution(f2.output_qubits))
    ends1 = {f1.parent_qubits[q]: q for q in f1.output_qubits}
    ends2 = {f2.parent_qubits[q]: q for q in f2.output_qubits}
    part1, part2 = [], []
    payload = obs.paulis if obs.kind == "pauli" else obs.bits
    for q, item in zip(obs.qubits, payload):
        if q in ends1:
            part1.append((ends1[q], item))
        elif q in ends2:
            part2.append((ends2[q], item))
        else:
            raise SupportMismatch("parent qubit %d has no terminal output" % q)
    part1.sort()
    part2.sort()
    if obs.kind == "pauli":
        return (ObservableSpec.pauli_string([p for _, p in part1], [q for q, _ in part1]),
                ObservableSpec.pauli_string([p for _, p in part2], [q for q, _ in part2]))
    return (ObservableSpec.projector("".join(b for _, b in part1), [q for q, _ in part1]),
            ObservableSpec.projector("".join(b for _, b in part2), [q for q, _ in part2]))


def parent_permutation(f1: Fragment, f2: Fragment, n_parent: int) -> np.ndarray:
    """Index map from parent bitstring order to concatenated fragment order.

    Position j of a concatenated bitstring (f1 outputs then f2 outputs, each
    in local order) carries parent qubit parent_of[j]; the returned array
    perm satisfies parent_vector = concatenated_vector[perm].
    """
    parent_of = [f1.parent_qubits[q] for q in f1.output_qubits]
    parent_of += [f2.parent_qubits[q] for q in f2.output_qubits]
    if sorted(parent_of) != list(range(n_parent)):
        raise SupportMismatch("fragment outputs do not cover the parent exactly once")
    m = len(parent_of)
    index = np.arange(2 ** n_parent, dtype=np.int64)
    perm = np.zeros_like(index)
    for j, q in enumerate(parent_of):
        perm |= ((index >> (n_parent - 1 - q)) & 1) << (m - 1 - j)
    return perm


def ground_truth_distribution(circuit: Circuit) -> np.ndarray:
    """Exact bitstring distribution of the uncut circuit, parent order."""
    state = simulate(uncut(circuit))
    return exact_distribution(state, range(circuit.n_qubits))


def ground_truth_expectation(circuit: Circuit, obs: ObservableSpec) -> float:
    return exact_expectation(simulate(uncut(circuit)), obs)


def uncut_sampled_distribution(circuit: Circuit, shots: int, seed: int,
                               trial: int = 0) -> np.ndarray:
    """Empirical distribution of the uncut circuit at the same shot budget."""
    state = simulate(uncut(circuit))
    rng = stream(seed, trial, SIDE_UNCUT)
    return sample(state, range(circuit.n_qubits), shots, rng) / shots


@dataclass
class RunResult:
    """One reconstruction run with its pruning and cost bookkeeping."""

    reconstruction: Reconstruction
    expectation: float | None
    distribution: np.ndarray | None
    raw_distribution: np.ndarray | None
    golden: GoldenReport | None
    cost: CostReport
    neglected: frozenset
    k_golden: int


def upstream_report(f1: Fragment, obs: ObservableSpec = None, shots: int = None,
                    seed: int = 0, trial: int = 0, eps: float = ORACLE_EPS,
                    alpha: float = DEFAULT_ALPHA, tau: float = DEFAULT_TAU):
    """Build the upstream tensor and detect golden bases.

    obs None reads the full distribution over the fragment's outputs.
    Returns (tensor, report), nothing neglected in the tensor. With shots
    None it is operator_tensor and the report detect_exact at eps;
    otherwise every setting runs through run_fragment on seed path (trial,
    SIDE_UPSTREAM) into build_tensor, and the report is detect_statistical
    at alpha and tau.
    """
    if obs is None:
        obs = ObservableSpec.distribution(f1.output_qubits)
    if shots is None:
        tensor = operator_tensor(f1, obs)
        return tensor, detect_exact(tensor, eps)
    results = run_fragment(f1, upstream_variants(f1, obs=obs), shots=shots, seed=seed,
                           seed_path=(trial, SIDE_UPSTREAM))
    return (build_tensor(results, obs, "upstream"),
            detect_statistical(results, obs, alpha=alpha, tau=tau))


def reconstruct(circuit: Circuit, obs: ObservableSpec = None, shots: int = None,
                seed: int = 0, trial: int = 0, prune: str = "off",
                neglect=(), alpha: float = DEFAULT_ALPHA,
                tau: float = DEFAULT_TAU) -> RunResult:
    """Cut, execute, optionally prune, and reconstruct one circuit.

    obs None reconstructs the full bitstring distribution. shots None runs
    no variant (operator_tensor on both sides), though run.cost counts what
    a device would run; otherwise every executed variant is sampled with
    shots drawn from its own seeded stream. Pruning modes:

    * "off": no neglected bases.
    * "known": neglect exactly the pairs passed in neglect, which every
      other mode rejects.
    * "exact": neglect what exact detection (at ORACLE_EPS) flags; the
      detection itself uses the simulator oracle, not the shot data.
    * "statistical": run every upstream setting at the shot budget, neglect
      what the Hoeffding test flags, and prune only the downstream side.
    """
    if prune not in PRUNE_MODES:
        raise ValueError("unknown prune mode %r" % prune)
    if prune == "statistical" and shots is None:
        raise ValueError("statistical pruning needs a shot budget")
    if neglect and prune != "known":
        raise ValueError("neglect is read only with prune='known', not %r" % prune)
    f1, f2 = bipartition(circuit)
    if obs is None:
        obs = ObservableSpec.distribution(range(circuit.n_qubits))
    obs1, obs2 = split_observable(f1, f2, obs)

    # Every mode but statistical reports exact detection; the reported
    # tensor is the upstream tensor unless shots rerun the pruned set.
    a, report = upstream_report(f1, obs1, shots if prune == "statistical" else None,
                                seed, trial, alpha=alpha, tau=tau)
    if prune == "off":
        neglected = frozenset()
    elif prune == "known":
        neglected = _normalize_neglected(neglect)
    else:
        neglected = report.golden_pairs()

    cut_ids = [cid for cid, _ in f1.upstream_cut_qubits]
    used = 0 if shots is None else shots
    ledger = cut_counts(cut_ids, neglected, used)
    baseline = cut_counts(cut_ids, shots_each=used)
    if prune == "statistical":
        ledger.upstream_variants = baseline.upstream_variants  # all ran for detection
    elif shots is not None:
        a = build_tensor(run_fragment(f1, upstream_variants(f1, neglected, obs=obs1),
                                      shots=shots, seed=seed, seed_path=(trial, SIDE_UPSTREAM)),
                         obs1, "upstream", neglected)
    if shots is None:
        b = operator_tensor(f2, obs2)
    else:
        b = build_tensor(run_fragment(f2, downstream_variants(f2, neglected, obs=obs2),
                                      shots=shots, seed=seed, seed_path=(trial, SIDE_DOWNSTREAM)),
                         obs2, "downstream", neglected)
    a, b = a.pruned(neglected), b.pruned(neglected)
    if obs.kind == "distribution":
        rec = contract_distribution(a, b)
    else:
        rec = contract_expectation(a, b)

    expectation = None
    distribution = None
    raw_distribution = None
    if obs.kind == "distribution":
        perm = parent_permutation(f1, f2, circuit.n_qubits)
        distribution = rec.value[perm]
        raw_distribution = rec.raw[perm]
    else:
        expectation = rec.value
    return RunResult(rec, expectation, distribution, raw_distribution, report,
                     cost_report(ledger, baseline), neglected,
                     len({cid for cid, _ in neglected}))
