"""Command-line front end.

Loads metric tables (.json) and edge lists (.edges), builds products and
transforms, computes statistics and dimensions, and runs the verification
checks. Human-readable output by default, one JSON document with --json.
Exit status: 0 on success or pass, 1 on a failed validation/verification,
2 on usage, parse, or size-guard errors and on tables with non-finite
entries.

Each ``cmd_*`` takes the parsed arguments and the spaces its subparser
declares, and returns one result ``(doc, text_lines, ok)``; :func:`main`
loads the spaces, prints the document or the text, and sets the exit code.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .construct import graph_metric, gravitational, lexicographic, load_graph, squash
from .resolving import DEFAULT_ENUMERATION_CAP, greedy_generator, metric_dimension
from .space import (
    FiniteMetricSpace,
    _require_finite,
    json_text,
    load_space,
    space_stats,
    space_to_json,
    validate,
)
from .theory import (
    DEFAULT_PRODUCT_CAP,
    random_pairs,
    verify_all,
    verify_corollaries,
    verify_diameter,
    verify_dimension,
    verify_squash,
)
from .twins import special_classes, twin_classes


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _load(path: str, kind: str | None, tolerance: float | None, finite: bool) -> FiniteMetricSpace:
    """Read a table (.json) or an edge list (.edges, or ``kind="edges"``).

    With ``finite`` set, a table with a NaN or infinite entry raises,
    since no statistic, dimension or identity is meaningful on it.
    """
    kind = kind or ("edges" if path.endswith(".edges") else "json")
    space = graph_metric(load_graph(path)) if kind == "edges" else load_space(path)
    if tolerance is not None:
        space = FiniteMetricSpace(space.points, space.dist, tolerance)
    if finite:
        try:
            _require_finite(space)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return space


def _space_result(space: FiniteMetricSpace):
    """A space as its JSON document, or as an aligned distance table."""
    width = max(max(len(p) for p in space.points), 8)
    text = [f"{'':>{width}} " + " ".join(f"{p:>{width}}" for p in space.points)]
    text += [
        f"{p:>{width}} " + " ".join(f"{_fmt(float(x)):>{width}}" for x in row)
        for p, row in zip(space.points, space.dist)
    ]
    return space_to_json(space), text, True


def cmd_validate(args, space):
    report = validate(space)
    doc = {
        "ok": report.ok,
        "violations": [
            {"axiom": v.axiom, "points": list(v.where), "lhs": v.lhs, "rhs": v.rhs}
            for v in report.violations
        ],
    }
    if report.ok:
        text = [f"ok: {space.n} points satisfy the metric axioms"]
    else:
        text = [f"invalid: {len(report.violations)} violation(s)"] + [
            f"  {v.axiom} at ({', '.join(v.where)}): {_fmt(v.lhs)} vs {_fmt(v.rhs)}"
            for v in report.violations
        ]
    return doc, text, report.ok


def cmd_stats(args, space):
    st = space_stats(space)
    doc = {
        "nearness": st.nearness,
        "slack": st.slack,
        "diameter": st.diameter,
        "nearness_per_point": st.nearness_per_point,
    }
    text = [
        f"points:   {space.n}",
        f"nearness: {_fmt(st.nearness)}",
        f"slack:    {_fmt(st.slack)}",
        f"diameter: {_fmt(st.diameter)}",
    ] + [f"  nearness({p}) = {_fmt(x)}" for p, x in st.nearness_per_point.items()]
    return doc, text, True


def cmd_graph(args, space):
    # The metric JSON is this command's text output as well.
    doc = space_to_json(space)
    return doc, [json_text(doc)], True


def cmd_gravitate(args, space):
    return _space_result(gravitational(space, args.t))


def cmd_squash(args, space):
    return _space_result(squash(args.eta, space))


def cmd_product(args, base, second):
    return _space_result(lexicographic(base, second).space)


def cmd_dim(args, space):
    result = metric_dimension(
        space,
        enumerate_all=args.all_bases,
        max_enumeration_points=args.max_enumeration_points,
    )
    doc = {"dimension": result.dimension, "basis": list(result.basis)}
    text = [f"dimension: {result.dimension}", f"basis: {' '.join(result.basis)}"]
    if args.all_bases:
        doc["all_bases"] = bases = [list(b) for b in result.all_bases or ()]
        text += [f"bases ({len(bases)}):"] + [f"  {' '.join(b)}" for b in bases]
    if args.greedy:
        doc["greedy"] = greedy = list(greedy_generator(space))
        text.append(f"greedy: {' '.join(greedy)} (size {len(greedy)})")
    return doc, text, True


def cmd_twins(args, space):
    partition = twin_classes(space)
    twins_free = not partition.non_singleton_classes
    doc = {
        "classes": [list(c) for c in partition.classes],
        "twins_free": twins_free,
        "non_singleton": [
            {
                "members": list(c),
                "gap": partition.gap[c],
                "nearness": partition.class_nearness[c],
            }
            for c in partition.non_singleton_classes
        ],
    }
    text = [f"classes: {len(partition.classes)}"]
    for c in partition.classes:
        if len(c) == 1:
            text.append(f"  {{{c[0]}}}")
        else:
            text.append(
                f"  {{{', '.join(c)}}}: gap={_fmt(partition.gap[c])} "
                f"nearness={_fmt(partition.class_nearness[c])}"
            )
    text.append(f"twins-free: {str(twins_free).lower()}")
    return doc, text, True


def cmd_special(args, base, second):
    special = special_classes(base, second)
    doc = {
        "special_classes": [list(c) for c in special.member_classes],
        "counterexamples": {
            ",".join(cls): {"member": member, "basis": list(basis)}
            for cls, (member, basis) in special.counterexamples.items()
        },
    }
    text = [f"special classes: {len(special.member_classes)}"]
    # Classes are disjoint, so tuple order is the order of their least members.
    for cls in sorted([*special.member_classes, *special.counterexamples]):
        line = f"  {{{', '.join(cls)}}}"
        if cls in special.counterexamples:
            member, basis = special.counterexamples[cls]
            text.append(f"{line} [out]: member {member}, basis {{{', '.join(basis)}}}")
        else:
            text.append(f"{line} [in]")
    return doc, text, True


def _verdict(report) -> str:
    return "SKIP" if report.skipped else "PASS" if report.passed else "FAIL"


# The checks behind ``verify --theorem``; each gives a list of reports.
_THEOREMS = {
    "dimension": lambda a, x, y: [verify_dimension(x, y, a.max_product_points)],
    "diameter": lambda a, x, y: [verify_diameter(x, y, a.max_product_points)],
    "squash": lambda a, x, y: [verify_squash(x, y, a.max_product_points)],
    "corollaries": lambda a, x, y: verify_corollaries(x, y, a.max_product_points),
    "all": lambda a, x, y: verify_all(x, y, a.max_product_points),
}


def _pair_doc(base, second, reports) -> dict:
    """One verified pair: its two spaces, each stated once, beside its reports."""
    reports = [r.to_json_dict() for r in reports]
    return {"base": space_to_json(base), "second": space_to_json(second), "reports": reports}


def cmd_verify(args, base, second):
    reports = _THEOREMS[args.theorem](args, base, second)
    text = []
    for r in reports:
        detail = r.witnesses.get("reason", "") if r.skipped else f"lhs={r.lhs}, rhs={r.rhs}"
        text.append(f"{r.theorem}: {_verdict(r)} ({detail})")
    ok = all(r.passed is not False for r in reports)
    return _pair_doc(base, second, reports), text, ok


def cmd_corpus(args):
    pairs = random_pairs(args.seed, args.count, args.max_product_points)
    failures = checks = 0
    docs, text = [], []
    for i, (base, second) in enumerate(pairs, start=1):
        reports = verify_all(base, second, args.max_product_points)
        checks += sum(not r.skipped for r in reports)
        failures += sum(r.passed is False for r in reports)
        docs.append({"pair": i, **_pair_doc(base, second, reports)})
        summary = ", ".join(f"{r.theorem} {_verdict(r)}" for r in reports)
        text.append(f"pair {i:02d} |X|={base.n} |Y|={second.n}: {summary}")
    text.append(f"summary: {len(pairs)} pairs, {checks} checks, {failures} failure(s)")
    return {"pairs": docs, "checks": checks, "failures": failures}, text, failures == 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexmetric",
        description="Finite metric spaces: products, deformations, metric dimension.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON document")
    common.add_argument("--tolerance", type=float, help="override the comparison tolerance")
    common.add_argument(
        "--format",
        choices=["json", "edges"],
        help="force input format instead of inferring from the extension",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help, spaces=("file",), kind=None, finite=True):
        """One subcommand; main loads the positionals named in ``spaces``."""
        p = sub.add_parser(name, parents=[common], help=help)
        for dest in spaces:
            p.add_argument(dest)
        p.set_defaults(func=func, spaces=spaces, kind=kind, finite=finite)
        return p

    # validate diagnoses broken tables, non-finite ones included.
    add("validate", cmd_validate, "check the metric axioms", finite=False)
    add("stats", cmd_stats, "nearness, slack, diameter")
    # graph reads an edge list whatever the file's extension or --format.
    add("graph", cmd_graph, "edge list to metric JSON", kind="edges")
    p = add("gravitate", cmd_gravitate, "cap all distances at 2t")
    p.add_argument("--t", type=float, required=True, help="gravitation constant, t > 0")
    p = add("squash", cmd_squash, "bounded transform eta*d/(eta+d)")
    p.add_argument("--eta", type=float, required=True, help="bound parameter, eta > 0")
    pair = ("base", "second")
    add("product", cmd_product, "lexicographic product of two spaces", spaces=pair)
    p = add("dim", cmd_dim, "exact metric dimension")
    p.add_argument(
        "--max-enumeration-points",
        type=int,
        default=DEFAULT_ENUMERATION_CAP,
        help="refuse complete basis enumeration beyond this many points (default %(default)s)",
    )
    p.add_argument("--greedy", action="store_true", help="also report the greedy resolving set")
    p.add_argument("--all-bases", action="store_true", help="enumerate every minimum basis")
    add("twins", cmd_twins, "twin equivalence classes")
    special_help = "twin classes passing the far-witness test"
    add("special", cmd_special, special_help, spaces=pair)
    verify = add("verify", cmd_verify, "check the product identities", spaces=pair)
    verify.add_argument("--theorem", choices=list(_THEOREMS), default="all")
    corpus = add("corpus", cmd_corpus, "random verification sweep", spaces=())
    corpus.add_argument("--seed", type=int, required=True)
    corpus.add_argument("--count", type=int, default=30)
    for p in (verify, corpus):
        p.add_argument(
            "--max-product-points",
            type=int,
            default=DEFAULT_PRODUCT_CAP,
            help="refuse products larger than this (default %(default)s)",
        )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        kind = args.kind or args.format
        spaces = [_load(getattr(args, d), kind, args.tolerance, args.finite) for d in args.spaces]
        doc, text, ok = args.func(args, *spaces)
    except (OSError, ValueError, KeyError) as exc:
        # KeyError wraps its message in quotes when stringified.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    print(json_text(doc) if args.json else "\n".join(text))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
