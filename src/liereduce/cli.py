"""Command-line interface.

Every subcommand reads a problem file, runs one operation, and prints a
human-readable summary (or one JSON record per check with ``--json``).
Exit status: 0 on success, 1 when a check fails, 2 on usage errors.
Values are worded by ``expr.render``, which writes every constant, so a
decided verdict is always printed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .algebra import is_solvable
from .charts import verify_canonical
from .classify import lift_test
from .corpus import corpus_dir, reports_json, run_corpus
from .expr import ExprError, _render_number, render
from .jets import prolong
from .problem import load_problem
from .reduction import ReductionError, kind_mismatch
from .systems import check_point_symmetry


def _emit(args, record: dict, human: str) -> None:
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(human)


def cmd_prolong(args) -> int:
    pf = load_problem(args.problem)
    X = pf.fields[args.field]
    order = pf.space.order if args.order is None else args.order
    P = prolong(X, order)
    coeffs = {n: render(c) for n, c in sorted(P.jet_coeffs.items())}
    _emit(args, {"operation": "prolong", "field": args.field, "order": order,
                 "coefficients": coeffs},
          "\n".join(f"{n}: {c}" for n, c in coeffs.items()))
    return 0


def cmd_check_symmetry(args) -> int:
    pf = load_problem(args.problem)
    rep = check_point_symmetry(pf.system, pf.fields[args.field])
    residuals = [render(r) for r in rep.residuals]
    _emit(args, {"operation": "check-symmetry", "field": args.field,
                 "verdict": rep.verdict, "residuals": residuals},
          f"{args.field}: {rep.verdict}" +
          ("" if rep.is_symmetry else "  residuals: " + "; ".join(residuals)))
    return 0 if rep.is_symmetry else 1


def cmd_canonical_verify(args) -> int:
    pf = load_problem(args.problem)
    ok = verify_canonical(pf.fields[args.field], pf.charts[args.chart])
    _emit(args, {"operation": "canonical-verify", "field": args.field,
                 "chart": args.chart, "verdict": ok},
          f"{args.field} / {args.chart}: {'canonical' if ok else 'not canonical'}")
    return 0 if ok else 1


def cmd_transform(args) -> int:
    pf = load_problem(args.problem)
    out = pf.transformed(args.chart)
    eqs = [render(e) for e in out.equations]
    _emit(args, {"operation": "transform", "chart": args.chart, "equations": eqs},
          "\n".join(f"{e} = 0" for e in eqs))
    return 0


def cmd_reduce(args) -> int:
    pf = load_problem(args.problem)
    why = kind_mismatch(args.command.removeprefix("reduce-"), pf.space.p)
    if why:
        raise ReductionError(why)
    red = pf.gradient_reduction(args.target, args.aux or ())
    eqs = [render(e) for e in red.system.equations]
    conn = red.connection
    defs = {n: render(e) for n, e in conn.aux_defs}
    _emit(args, {"operation": "reduce", "equations": eqs,
                 "roles": list(red.roles), "connection": defs,
                 "eliminated": conn.eliminated, "constant": "C"},
          "\n".join(f"{e} = 0  [{r}]" for e, r in zip(eqs, red.roles)) +
          "\nconnection: " + ", ".join(f"{n} = {e}" for n, e in defs.items()) +
          f"; {conn.eliminated} recovered by quadrature up to C")
    return 0


def cmd_pushforward(args) -> int:
    pf = load_problem(args.problem)
    out = pf.pushforward(args.field, args.chart)
    coeffs = {n: render(out.coeff(n)) for n in out.coords}
    scale = _render_number(out.suggested_scale) if out.suggested_scale else None
    _emit(args, {"operation": "pushforward", "field": args.field,
                 "chart": args.chart, "coefficients": coeffs,
                 "flagged": out.flagged, "suggested_scale": scale},
          "\n".join(f"{n}: {c}" for n, c in coeffs.items()) +
          (f"\n(flagged: raw source coordinates; residual {', '.join(out.residual_vars)})"
           if out.flagged else "") +
          (f"\n(common constant rescale suggestion: {scale})" if scale else ""))
    return 0


def cmd_classify(args) -> int:
    got = load_problem(args.problem).classification(args.field, args.chart)
    _emit(args, {"operation": "classify", "field": args.field, "chart": args.chart,
                 "verdict": got.verdict, "witness": got.witness,
                 "criterion": got.criterion},
          f"{args.field} / {args.chart}: {got}")
    return 0


def cmd_lift_test(args) -> int:
    pf = load_problem(args.problem)
    got = lift_test(pf.fields[args.field], pf.reduced_view())
    _emit(args, {"operation": "lift-test", "field": args.field,
                 "verdict": got.verdict, "witness": got.witness,
                 "criterion": got.criterion},
          f"{args.field}: {got}")
    return 0


def cmd_commutator(args) -> int:
    pf = load_problem(args.problem)
    names = [n.strip() for n in args.fields.split(",")]
    if len(names) != 2:
        print("commutator needs exactly two field names", file=sys.stderr)
        return 2
    index = {n: k for k, n in enumerate(sorted(pf.fields))}
    i, j = index[names[0]], index[names[1]]
    all_names, tab = pf.algebra_table()
    span = tab.describe_entry(i, j, all_names)
    Z = tab.bracket(i, j).describe()
    _emit(args, {"operation": "commutator", "fields": names,
                 "bracket": Z, "in_span": span},
          f"[{names[0]},{names[1]}] = {span}  ({Z})")
    return 0


def cmd_algebra(args) -> int:
    pf = load_problem(args.problem)
    names = [n.strip() for n in args.fields.split(",")] if args.fields else None
    names, tab = pf.algebra_table(names)
    lines = [f"[{names[i]},{names[j]}] = {tab.describe_entry(i, j, names)}"
             for i in range(len(names)) for j in range(i + 1, len(names))]
    rec = {"operation": "algebra", "fields": names, "closed": tab.closed,
           "brackets": list(lines)}
    if tab.closed:
        solvable, dims = is_solvable(tab)
        rec.update({"solvable": solvable, "series": list(dims),
                    "jacobi": tab.jacobi_ok()})
        lines.append(f"solvable: {solvable}; derived series " +
                     " -> ".join(str(d) for d in dims))
    _emit(args, rec, "\n".join(lines))
    return 0


def cmd_run_corpus(args) -> int:
    records, failed = run_corpus(args.directory, args.filter)
    if args.json:
        out = reports_json(records, with_timing=args.timings)
        if out:
            print(out)
    else:
        for r in records:
            print(r.line())
        count = Counter(r.verdict for r in records)
        print(f"{len(records)} checks: {count['pass']} passed, "
              f"{count['discrepancy-documented']} discrepancy-documented, "
              f"{count['inconclusive']} inconclusive, {count['fail']} failed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="liereduce",
        description="Symmetry-based order reduction for ODEs and PDEs")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, chart=False, field=False):
        p.add_argument("--problem", required=True, help="problem file")
        if field:
            p.add_argument("--field", required=True, help="generator name")
        if chart:
            p.add_argument("--chart", required=True, help="chart name")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("prolong", help="extend a generator to jet coordinates")
    common(p, field=True)
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(fn=cmd_prolong)

    p = sub.add_parser("check-symmetry", help="verify a point symmetry on the manifold")
    common(p, field=True)
    p.set_defaults(fn=cmd_check_symmetry)

    p = sub.add_parser("canonical-verify", help="check Xr = 0, Xs = 1 for a chart")
    common(p, field=True, chart=True)
    p.set_defaults(fn=cmd_canonical_verify)

    p = sub.add_parser("transform", help="rewrite the system in chart coordinates")
    common(p, chart=True)
    p.set_defaults(fn=cmd_transform)

    for name, what in (("reduce-ode", "reduce order via the slope variable"),
                       ("reduce-pde", "gradient reduction with curl conditions")):
        p = sub.add_parser(name, help=what)
        common(p)
        p.add_argument("--target", default=None)
        p.add_argument("--aux", nargs="*", default=None)
        p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("pushforward", help="push a generator through a chart")
    common(p, field=True, chart=True)
    p.set_defaults(fn=cmd_pushforward)

    p = sub.add_parser("classify", help="point or nonlocal on the chart's reduction")
    common(p, field=True, chart=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("lift-test", help="does a reduced symmetry lift to the parent")
    common(p, field=True)
    p.set_defaults(fn=cmd_lift_test)

    p = sub.add_parser("commutator", help="bracket of two generators")
    common(p)
    p.add_argument("--fields", required=True, help="two comma-separated generator names")
    p.set_defaults(fn=cmd_commutator)

    p = sub.add_parser("algebra", help="structure constants and solvability")
    common(p)
    p.add_argument("--fields", default=None, help="comma-separated generator names")
    p.set_defaults(fn=cmd_algebra)

    p = sub.add_parser("run-corpus", help="run every expected result in a directory")
    p.add_argument("directory", nargs="?", default=None,
                   help=f"problem directory (default: shipped corpus at {corpus_dir()})")
    p.add_argument("--filter", default=None, help="substring filter on problem file names")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true",
                   help="include wall times in JSON output (breaks byte-for-byte determinism)")
    p.set_defaults(fn=cmd_run_corpus)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"error: unknown name {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
