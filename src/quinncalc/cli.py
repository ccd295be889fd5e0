"""Batch front end: JSON in, deterministic JSON/CSV out.

Exit codes: 0 success, 2 schema violation, 3 axiom violation, 4 boundary
mismatch.  All algorithms are exhaustive and deterministic.
"""
from __future__ import annotations

import argparse
import csv
import io as _io
import math
import sys
from fractions import Fraction

from .colouring import Plan, as_simpset
from .errors import BoundaryError, QuinncalcError, SchemaError
from .extprof import cobordism_profunctor, window_nat_transform
from .finalg.crossed import chi_pi, validate_crossed_complex
from .homotopy import crs_pi1
from .io import (
    LabelMap,
    algebra_from_json,
    dump_json,
    group_from_json,
    group_to_json,
    groupoid_document,
    crossed_module_to_json,
    load_json,
    plan_colour_list,
    profunctor_to_json,
    scalar_str,
    simpset_from_json,
    simpset_to_json,
)
from .morita import groupoid_algebra, quantum_double_oracle
from .simpset import (
    Stratification,
    circle,
    interval,
    point,
    prism,
    sphere,
    standard_simplex,
    torus,
    window_support,
)
from .tqft import quinn_matrix, state_space


def _builders():
    out = {
        "point": point(),
        "interval": interval(),
        "circle": circle(),
        "sphere2": sphere(2),
        "torus": torus(),
    }
    for n in range(4):
        out[f"delta{n}"] = standard_simplex(n)
    out["prism-point"] = prism(point())
    out["prism-circle"] = prism(circle())
    out["prism-torus"] = prism(torus())
    return out


def _corpus_algebras():
    from .finalg import (
        crossed_module_identity,
        crossed_module_zero,
        cyclic_group,
        symmetric_group,
    )

    groups = {
        "z2": cyclic_group(2),
        "z3": cyclic_group(3),
        "z4": cyclic_group(4),
        "s3": symmetric_group(3),
    }
    xmods = {
        "xmod-z2-z2-zero": crossed_module_zero(groups["z2"], cyclic_group(2)),
        "xmod-z2-id": crossed_module_identity(groups["z2"]),
        "xmod-z4-z2-zero": crossed_module_zero(groups["z4"], cyclic_group(2)),
    }
    return groups, xmods


def _load_space(path):
    loaded = simpset_from_json(load_json(path))  # a tagged space is validated there
    if isinstance(loaded, Stratification):
        return loaded
    loaded.validate().raise_if_failed()
    return Stratification(loaded, {})


def _load_algebra(path):
    A = algebra_from_json(load_json(path))
    validate_crossed_complex(A).raise_if_failed()
    return A


def _parse_s(text):
    try:
        return Fraction(text)
    except ValueError:
        try:
            s = float(text)
        except ValueError as exc:
            raise SchemaError(f"cannot parse s parameter {text!r}") from exc
    if not math.isfinite(s):
        raise SchemaError(f"s parameter {text!r} is not finite")
    return s


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args):
    data = load_json(args.input)
    if isinstance(data, dict) and ("generators" in data):
        report = as_simpset(simpset_from_json(data)).validate()
    else:
        A = algebra_from_json(data)
        report = validate_crossed_complex(A)
    out = {
        "ok": bool(report),
        "kind": report.kind,
        "message": report.message,
        "witness": None if report.witness is None else [str(w) for w in report.witness],
    }
    _emit(args, dump_json(out))
    if report.ok:
        return 0
    return 2 if report.kind == "malformed" else 3


def cmd_catalog(args):
    out = {name: simpset_to_json(X, name=name) for name, X in _builders().items()}
    if args.algebras:
        groups, xmods = _corpus_algebras()
        out["algebras"] = {name: group_to_json(G) for name, G in groups.items()}
        out["algebras"].update(
            {name: crossed_module_to_json(M) for name, M in xmods.items()}
        )
    _emit(args, dump_json(out))
    return 0


def cmd_colour_count(args):
    strat = _load_space(args.space)
    A = _load_algebra(args.algebra)
    n = Plan(strat.simpset, A).count()
    _emit(args, dump_json({"count": n}))
    return 0


def cmd_colour_list(args):
    strat = _load_space(args.space)
    A = _load_algebra(args.algebra)
    _emit(args, plan_colour_list(Plan(strat.simpset, A)))
    return 0


def cmd_state_space(args):
    strat = _load_space(args.space)
    A = _load_algebra(args.algebra)
    ss = state_space(strat.simpset, A)
    out = {
        "dimension": ss.dim,
        "classes": [
            {
                "representative": ss.representative(ci).as_dict(),
                "size": len(ss.classes[ci]),
                "content": scalar_str(ss.class_content(ci)),
            }
            for ci in range(ss.dim)
        ],
    }
    _emit(args, dump_json(out))
    return 0


def cmd_quinn_matrix(args):
    strat = _load_space(args.cobordism)
    if "in" not in strat.tags or "out" not in strat.tags:
        raise BoundaryError("cobordism file must tag 'in' and 'out' subcomplexes")
    A = _load_algebra(args.algebra)
    s = _parse_s(args.s)
    Q = quinn_matrix(strat, A, s, exact_only=args.exact_only)
    if args.format == "csv":
        buf = _io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in Q.entries:
            writer.writerow([scalar_str(v) for v in row])
        _emit(args, buf.getvalue())
    else:
        out = {
            "s": str(args.s),
            "exact": Q.exact,
            "row_labels": [Q.rows.representative(i).as_dict() for i in range(Q.rows.dim)],
            "col_labels": [Q.cols.representative(j).as_dict() for j in range(Q.cols.dim)],
            "entries": [[scalar_str(v) for v in row] for row in Q.entries],
        }
        _emit(args, dump_json(out))
    return 0


def cmd_ext_groupoid(args):
    strat = _load_space(args.space)
    A = _load_algebra(args.algebra)
    crs = crs_pi1(strat.simpset, A)
    labels = LabelMap()
    out = groupoid_document(crs.groupoid, labels)
    out["components"] = [[labels[x] for x in comp] for comp in crs.components()]
    _emit(args, dump_json(out))
    return 0


def cmd_profunctor(args):
    strat = _load_space(args.cobordism)
    if "in" not in strat.tags or "out" not in strat.tags:
        raise BoundaryError("cobordism file must tag 'in' and 'out' subcomplexes")
    A = _load_algebra(args.algebra)
    P = cobordism_profunctor(strat, A)
    _emit(args, dump_json(profunctor_to_json(P)))
    return 0


def cmd_nat_transform(args):
    strat = _load_space(args.space)
    A = _load_algebra(args.algebra)
    cyl = prism(strat.simpset)
    W = window_support(cyl, prism(strat.simpset))
    nt = window_nat_transform(W, A)
    blocks = {
        f"({li},{ri})": [[scalar_str(v) for v in row] for row in m]
        for (li, ri), m in sorted(nt.blocks.items())
    }
    out = {
        "identity": nt.is_identity(),
        "natural": nt.naturality_check(),
        "blocks": blocks,
    }
    _emit(args, dump_json(out))
    return 0


def cmd_algebra(args):
    data = load_json(getattr(args, "from"))
    if isinstance(data, dict) and "arrows" in data:
        # groupoid file: reuse the crossed complex level-1 reader
        from .io import crossed_complex_from_json

        objects = {"objects": data["objects"]} if "objects" in data else {}
        A = crossed_complex_from_json({**objects, "level1": data, "truncation": 1})
        G = A.base
        G.validate().raise_if_failed()
    else:
        from .finalg.groupoids import groupoid_from_group

        G = groupoid_from_group(group_from_json(data))
    alg = groupoid_algebra(G)
    out = {
        "dimension": alg.dim,
        "triples": alg.structure_triples(),
        "unit": sorted(str(k) for k in alg.unit),
    }
    _emit(args, dump_json(out))
    return 0


def cmd_double(args):
    G = group_from_json(load_json(args.group))
    res = quantum_double_oracle(G)
    out = {
        "dim": res.double.dim,
        "iso": "found" if res.ok else "missing",
    }
    _emit(args, dump_json(out))
    return 0 if res.ok else 1


def cmd_chi_pi(args):
    A = _load_algebra(args.algebra)
    _emit(args, dump_json({"chi_pi": scalar_str(chi_pi(A))}))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="quinncalc")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a group/module/complex/space file")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("catalog", help="emit the built-in spaces (and algebras)")
    p.add_argument("--algebras", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("colour-count")
    p.add_argument("--space", required=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_colour_count)

    p = sub.add_parser("colour-list")
    p.add_argument("--space", required=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_colour_list)

    p = sub.add_parser("state-space")
    p.add_argument("--space", required=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_state_space)

    p = sub.add_parser("quinn-matrix")
    p.add_argument("--cobordism", required=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--s", default="0")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--exact-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_quinn_matrix)

    p = sub.add_parser("ext-groupoid")
    p.add_argument("--space", required=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ext_groupoid)

    p = sub.add_parser("profunctor")
    p.add_argument("--cobordism", required=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_profunctor)

    p = sub.add_parser("nat-transform", help="vertical identity window over a prism")
    p.add_argument("--space", required=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_nat_transform)

    p = sub.add_parser("algebra")
    p.add_argument("--from", dest="from", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("double")
    p.add_argument("--group", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("chi-pi")
    p.add_argument("--algebra", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_chi_pi)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QuinncalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
