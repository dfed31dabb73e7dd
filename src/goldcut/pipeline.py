"""End-to-end orchestration: cut, execute, detect, contract, compare.

Observables and distributions at this level refer to parent-circuit qubits;
the helpers here split them onto the two fragments and permute fragment
results back into parent qubit order. Exact mode runs no variant: the
upstream tensor comes from its cut operator (operator_tensor), and
contract_operator contracts it through the downstream cut operator
without building a downstream tensor. RNG streams are split per (root
seed, trial, side) with side codes 0 = upstream, 1 = downstream, 2 =
uncut reference; a side's variants draw from its stream in turn.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Fragment, _unchecked, bipartition, uncut
from .errors import SupportMismatch
from .fragmenter import _Checked, _pairs, downstream_variants, run_fragment, upstream_variants
from .golden import (
    DEFAULT_ALPHA,
    DEFAULT_TAU,
    ORACLE_EPS,
    GoldenReport,
    check_alpha_tau,
    check_eps,
    detect_exact,
    detect_statistical,
)
from .metrics import CostLedger, CostReport, _counts, cost_report
from .reconstructor import (
    Reconstruction,
    build_tensor,
    contract_operator,
    contract_tensors,
    operator_tensor,
)
from .seeding import check_seed, stream
from .simulator import ObservableSpec, _width, check_shots, exact_distribution, sample, simulate

SIDE_UPSTREAM = 0
SIDE_DOWNSTREAM = 1
SIDE_UNCUT = 2

PRUNE_MODES = ("off", "known", "exact", "statistical")

# Every fragment output (an empty support to fragmenter._read), built once.
_EVERY_OUTPUT = ObservableSpec.distribution(())


def split_observable(f1: Fragment, f2: Fragment, obs: ObservableSpec):
    """Split a parent-qubit observable into per-fragment observables.

    Every parent wire terminates in exactly one fragment output, so the
    observable factorizes across fragments up to qubit reordering. A
    distribution reads every parent qubit in order, so each fragment reads
    every output: there are no marginals.
    """
    if obs.kind == "distribution":
        n = len(f1.output_qubits) + len(f2.output_qubits)
        if obs.qubits != tuple(range(n)):
            raise SupportMismatch("a distribution reads parent qubits 0..%d in order, got %s"
                                  % (n - 1, list(obs.qubits)))
        return _EVERY_OUTPUT, _EVERY_OUTPUT
    ends = [{f.parent_qubits[q]: q for q in f.output_qubits} for f in (f1, f2)]
    parts = ([], [])
    for q, item in zip(obs.qubits, obs.paulis if obs.kind == "pauli" else obs.bits):
        side = 0 if q in ends[0] else 1
        if q not in ends[side]:
            raise SupportMismatch("parent qubit %d has no terminal output" % q)
        parts[side].append((ends[side][q], item))
    # obs is checked, so its factors on a fragment's distinct outputs are too
    split, pauli = [], obs.kind == "pauli"
    for part in map(sorted, parts):
        local, items = tuple(q for q, _ in part), tuple(x for _, x in part)
        split.append(_unchecked(ObservableSpec, kind=obs.kind, qubits=local,
                                paulis=items if pauli else (), bits="" if pauli else "".join(items)))
    return tuple(split)


def parent_permutation(f1: Fragment, f2: Fragment, n_parent: int) -> np.ndarray:
    """Index map from parent bitstring order to concatenated fragment order.

    Position j of a concatenated bitstring (f1 outputs then f2 outputs, each
    in local order) carries parent qubit parent_of[j]; the returned array
    perm, read-only, satisfies parent_vector = concatenated_vector[perm].
    """
    parent_of = [f1.parent_qubits[q] for q in f1.output_qubits]
    parent_of += [f2.parent_qubits[q] for q in f2.output_qubits]
    if sorted(parent_of) != list(range(n_parent)):
        raise SupportMismatch("fragment outputs do not cover the parent exactly once")
    perm = (np.arange(2 ** n_parent, dtype=np.int64).reshape((2,) * n_parent)
            .transpose(np.argsort(parent_of)).reshape(-1))
    perm.setflags(write=False)
    return perm


def ground_truth_distribution(circuit: Circuit) -> np.ndarray:
    """Exact bitstring distribution of the uncut circuit, parent order."""
    return exact_distribution(simulate(uncut(circuit)), range(circuit.n_qubits))


def uncut_sampled_distribution(state: np.ndarray, shots: int, seed: int,
                               trial: int = 0) -> np.ndarray:
    """Empirical distribution of the uncut circuit's state at the same shot
    budget, drawn on stream (seed, trial, SIDE_UNCUT)."""
    return sample(state, range(_width(state)), shots, stream(seed, trial, SIDE_UNCUT)) / shots


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
    at alpha and tau. An eps, seed, trial, alpha, tau or shots that its
    check_* function rejects raises ValueError before anything runs.
    """
    check_eps(eps)
    check_seed(seed, trial)
    check_alpha_tau(alpha, tau)
    obs = _EVERY_OUTPUT if obs is None else obs
    if shots is None:
        tensor = operator_tensor(f1, obs)
        return tensor, detect_exact(tensor, eps)
    check_shots(shots)
    results = run_fragment(f1, upstream_variants(f1, obs=obs), shots=shots, seed=seed,
                           seed_path=(trial, SIDE_UPSTREAM))
    tensor = build_tensor(results, obs, "upstream")
    return tensor, detect_statistical(results, obs, alpha=alpha, tau=tau, tensor=tensor)


def reconstruct(circuit: Circuit, obs: ObservableSpec = None, shots: int = None,
                seed: int = 0, trial: int = 0, prune: str = "off",
                neglect=(), alpha: float = DEFAULT_ALPHA,
                tau: float = DEFAULT_TAU) -> RunResult:
    """Cut, execute, optionally prune, and reconstruct one circuit.

    obs None reconstructs the full bitstring distribution. shots None runs
    no variant (operator_tensor upstream, contract_operator through the
    downstream cut operator), though run.cost counts what a device would
    run; otherwise each executed variant draws from its side's stream and
    both tensors are contracted. A seed, trial, shots, alpha or tau its
    check_* function rejects, an obs other than an ObservableSpec and a
    neglect item other than a (cut, basis) pair raise ValueError first.
    Pruning modes:

    * "off": no neglected bases.
    * "known": neglect exactly the pairs passed in neglect, which every
      other mode rejects.
    * "exact": neglect what exact detection (at ORACLE_EPS) flags; the
      detection itself uses the simulator oracle, not the shot data.
    * "statistical": run every upstream setting at the shot budget, neglect
      what the Hoeffding test flags, and prune only the downstream side.
    """
    check_seed(seed, trial)
    check_alpha_tau(alpha, tau)
    if obs is not None and not isinstance(obs, ObservableSpec):
        raise ValueError("obs must be an ObservableSpec or None, got %s" % type(obs).__name__)
    if prune not in PRUNE_MODES:
        raise ValueError("unknown prune mode %r" % prune)
    if shots is not None:
        check_shots(shots)
    elif prune == "statistical":
        raise ValueError("statistical pruning needs a shot budget")
    neglect = _pairs(neglect)
    if neglect and prune != "known":
        raise ValueError("neglect is read only with prune='known', not %r" % prune)
    f1, f2 = bipartition(circuit)
    obs1, obs2 = (_EVERY_OUTPUT,) * 2 if obs is None else circuit._keep(
        "_splits", obs, lambda: split_observable(f1, f2, obs))

    # Every mode but statistical reports exact detection; the reported
    # tensor is the upstream tensor unless shots rerun the pruned set.
    a, report = upstream_report(f1, obs1, shots if prune == "statistical" else None,
                                seed, trial, alpha=alpha, tau=tau)
    # pruned checks neglect; the detectors flag only pairs of a's own cuts
    a = a.pruned(neglect if prune == "known" else _Checked(
        () if prune == "off" else report.golden_pairs()))
    cut_ids, neglected, used = a.cut_ids, a.neglected, 0 if shots is None else shots
    (up, down, tuples), base = f1._keep("_counts", neglected, lambda: (
        _counts(cut_ids, neglected), _counts(cut_ids, ())))
    if prune == "statistical":
        up = base[0]  # all ran for detection
    elif shots is not None:
        a = build_tensor(run_fragment(f1, upstream_variants(f1, neglected, obs=obs1),
                                      shots=shots, seed=seed, seed_path=(trial, SIDE_UPSTREAM)),
                         obs1, "upstream", neglected)
    if shots is None:
        rec = contract_operator(a, f2, obs2)
    else:
        b = build_tensor(run_fragment(f2, downstream_variants(f2, neglected, obs=obs2),
                                      shots=shots, seed=seed, seed_path=(trial, SIDE_DOWNSTREAM)),
                         obs2, "downstream", neglected)
        rec = contract_tensors(a, b)
    expectation = distribution = raw_distribution = None
    if rec.mode == "distribution":
        perm = circuit._keep("_perm", None, lambda: parent_permutation(f1, f2, circuit.n_qubits))
        distribution, raw_distribution = rec.value[perm], rec.raw[perm]
    else:
        expectation = rec.value
    return RunResult(rec, expectation, distribution, raw_distribution, report,
                     cost_report(CostLedger(up, down, tuples, used), CostLedger(*base, used)),
                     neglected, len({cid for cid, _ in neglected}))
