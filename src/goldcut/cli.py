"""Command-line experiment harness.

Subcommands: generate (golden-ansatz circuits), run (cut-versus-uncut
accuracy and cost trials), bench (closed-form variant, basis-tuple and
eigen-term counts per number of golden cuts), detect (golden-point
reports). All randomness is derived from --seed; identical invocations
produce byte-identical output files. Exit codes: 0 ok, 2 configuration
error, 3 circuit validation error.
"""
from __future__ import annotations

import argparse
import json
import sys

from .circuits import PauliOp, bipartition, certified_ansatz, format_float, save, uncut, validate
from .errors import GoldcutError
from .fragmenter import MAX_CUTS
from .golden import DEFAULT_ALPHA, DEFAULT_TAU, GENERATION_EPS, check_alpha_tau
from .metrics import CSV_COLUMNS, closed_form_counts, weighted_distance
from .pipeline import PRUNE_MODES, reconstruct, uncut_sampled_distribution, upstream_report
from .reconstructor import term_count
from .seeding import check_seed
from .simulator import check_shots, exact_distribution, simulate
from . import circuits


def _load_circuit(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        circ = circuits.from_json(text)
    except Exception as exc:
        raise GoldcutError("malformed circuit file %s: %s" % (path, exc)) from exc
    report = validate(circ)
    if not report.ok:
        raise GoldcutError("invalid circuit: %s" % "; ".join(report.violations))
    return circ


def _parse_neglect(items):
    out = []
    for item in items or ():
        parts = item.split(":")
        if len(parts) != 2:
            raise ValueError("bad --neglect %r, expected CUT:BASIS like 1:Y" % item)
        try:
            cid = int(parts[0])
            basis = PauliOp(parts[1].strip().upper())
        except (ValueError, KeyError) as exc:
            raise ValueError("bad --neglect %r, expected CUT:BASIS like 1:Y" % item) from exc
        out.append((cid, basis))
    return tuple(out)


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(columns, rows):
    cells = [[format_float(v) if isinstance(v, float) else str(v) for v in map(row.get, columns)]
             for row in rows]
    return "\n".join(map(",".join, [list(columns)] + cells)) + "\n"


def cmd_generate(args) -> int:
    circ, report = certified_ansatz(args.qubits, args.depth, args.seed)
    save(circ, args.out)
    for e in report.entries:
        if e.golden:
            print("cut %d: %s golden" % (e.cut_id, e.basis))
    print("wrote %s" % args.out)
    return 0


def cmd_run(args) -> int:
    circ = _load_circuit(args.circuit)
    if not circ.cuts:
        raise GoldcutError("circuit has no cuts; nothing to reconstruct")
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if args.prune == "known" and not args.neglect:
        raise ValueError("--prune known needs at least one --neglect CUT:BASIS")
    neglect = _parse_neglect(args.neglect)
    check_seed(args.seed)
    check_shots(args.shots)
    check_alpha_tau(args.alpha, args.tau)
    state = simulate(uncut(circ))
    truth = exact_distribution(state, range(circ.n_qubits))
    rows, reports = [], []
    for trial in range(args.trials):
        res = reconstruct(circ, shots=args.shots, seed=args.seed, trial=trial,
                          prune=args.prune, neglect=neglect,
                          alpha=args.alpha, tau=args.tau)
        sampled = uncut_sampled_distribution(state, args.shots, args.seed, trial)
        rows.append({
            "trial": trial,
            "seed": args.seed,
            "n_qubits": circ.n_qubits,
            "K": circ.n_cuts,
            "K_g": res.k_golden,
            "shots_per_variant": args.shots,
            "d_w_cut": weighted_distance(res.distribution, truth),
            "d_w_uncut": weighted_distance(sampled, truth),
            "variants_pruned": res.cost.variants_executed,
            "variants_baseline": res.cost.baseline_variants,
            "tuples_pruned": res.cost.basis_tuples_contracted,
            "tuples_baseline": res.cost.baseline_tuples,
        })
        reports.append(res.golden)
    if args.format == "csv":
        _emit(_csv(CSV_COLUMNS, rows), args.out)
    else:
        payload = [dict(row, golden=json.loads(rep.to_json()) if rep else [])
                   for row, rep in zip(rows, reports)]
        _emit(json.dumps({"trials": payload}, indent=2) + "\n", args.out)
    return 0


def cmd_bench(args) -> int:
    if not 1 <= args.cuts <= MAX_CUTS:
        raise ValueError("--cuts must be in 1..%d" % MAX_CUTS)
    columns = ("K", "K_g", "tuples_pruned", "tuples_baseline",
               "eigen_terms_pruned", "eigen_terms_baseline",
               "upstream_pruned", "upstream_baseline",
               "downstream_pruned", "downstream_baseline")
    k = args.cuts
    _, eigen_base = term_count(k, 0)
    rows = []
    for k_g in range(k + 1):
        pruned, baseline = closed_form_counts(k - k_g, k_g)
        _, eigen = term_count(k - k_g, k_g)
        rows.append({
            "K": k, "K_g": k_g,
            "tuples_pruned": pruned.basis_tuples, "tuples_baseline": baseline.basis_tuples,
            "eigen_terms_pruned": eigen, "eigen_terms_baseline": eigen_base,
            "upstream_pruned": pruned.upstream_variants,
            "upstream_baseline": baseline.upstream_variants,
            "downstream_pruned": pruned.downstream_variants,
            "downstream_baseline": baseline.downstream_variants,
        })
    if args.format == "csv":
        _emit(_csv(columns, rows), args.out)
    else:
        _emit(json.dumps({"rows": rows}, indent=2) + "\n", args.out)
    return 0


def cmd_detect(args) -> int:
    circ = _load_circuit(args.circuit)
    if not circ.cuts:
        raise GoldcutError("circuit has no cuts; nothing to detect")
    f1, _ = bipartition(circ)
    _, report = upstream_report(f1, shots=args.shots, seed=args.seed, eps=args.eps,
                                alpha=args.alpha, tau=args.tau)
    _emit(report.to_json() + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goldcut",
        description="circuit cutting with golden-cutting-point pruning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a certified golden-ansatz circuit")
    p.add_argument("--qubits", type=int, required=True, help="odd width: 3, 5, 7 or 9")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="circuit.json")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="cut-versus-uncut accuracy and cost trials")
    p.add_argument("--circuit", required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--shots", type=int, default=10000, help="shots per executed variant")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prune", choices=PRUNE_MODES, default="off")
    p.add_argument("--neglect", action="append", metavar="CUT:BASIS",
                   help="basis to neglect with --prune known, e.g. 1:Y")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="term and variant count sweep over K_g")
    p.add_argument("--cuts", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("detect", help="report golden bases for a cut circuit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--shots", type=int, default=None,
                   help="omit for exact detection, set for the statistical test")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p.add_argument("--eps", type=float, default=GENERATION_EPS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_detect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GoldcutError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3 if isinstance(exc, GoldcutError) else 2


if __name__ == "__main__":
    sys.exit(main())
