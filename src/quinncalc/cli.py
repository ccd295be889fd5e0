"""Batch front end: JSON in, deterministic JSON/CSV out.

Exit codes: 0 success, 2 schema violation, 3 axiom violation, 4 boundary
mismatch, 5 out of memory.  All algorithms are exhaustive and deterministic.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from .colouring import Plan, as_simpset
from .errors import BoundaryError, QuinncalcError, SchemaError
from .extprof import cobordism_profunctor, window_nat_transform
from .finalg.crossed import chi_pi, validate_crossed_complex
from .homotopy import crs_pi1
from .io import (
    LabelMap,
    algebra_from_json,
    group_from_json,
    group_to_json,
    groupoid_document,
    crossed_module_to_json,
    load_json,
    profunctor_to_json,
    scalar_str,
    simpset_from_json,
    simpset_to_json,
    write_colour_list,
    write_json,
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


def _emit(args, writer, data):
    """`writer(data, write)` hands its document to `write` in pieces: to `--out`, or to stdout.

    The file is opened only now, so an error raised before leaves none, and
    one raised while writing (out of memory, disk full) removes the file.
    """
    if not args.out:
        try:
            writer(data, sys.stdout.write)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has stopped (`quinncalc ... | head`): stop writing, and send what
            # is still buffered to the null device so that the exit is quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    fh = None
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            writer(data, fh.write)
    except BaseException as exc:
        if fh is not None:
            with contextlib.suppress(OSError):
                os.remove(args.out)
        if isinstance(exc, OSError):
            raise SchemaError(f"cannot write {args.out}: {exc}") from exc
        raise


def _write_csv(rows, write):
    writer = csv.writer(SimpleNamespace(write=write), lineterminator="\n")
    for row in rows:
        writer.writerow([scalar_str(v) for v in row])


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
    _emit(args, write_json, out)
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
    _emit(args, write_json, out)
    return 0


def cmd_colour_count(args):
    strat = _load_space(args.space)
    A = _load_algebra(args.algebra)
    n = Plan(strat.simpset, A).count()
    _emit(args, write_json, {"count": n})
    return 0


def cmd_colour_list(args):
    strat = _load_space(args.space)
    A = _load_algebra(args.algebra)
    _emit(args, write_colour_list, Plan(strat.simpset, A))
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
    _emit(args, write_json, out)
    return 0


def cmd_quinn_matrix(args):
    strat = _load_space(args.cobordism)
    if "in" not in strat.tags or "out" not in strat.tags:
        raise BoundaryError("cobordism file must tag 'in' and 'out' subcomplexes")
    A = _load_algebra(args.algebra)
    s = _parse_s(args.s)
    Q = quinn_matrix(strat, A, s, exact_only=args.exact_only)
    if args.format == "csv":
        _emit(args, _write_csv, Q.entries)
    else:
        out = {
            "s": str(args.s),
            "exact": Q.exact,
            "row_labels": [Q.rows.representative(i).as_dict() for i in range(Q.rows.dim)],
            "col_labels": [Q.cols.representative(j).as_dict() for j in range(Q.cols.dim)],
            "entries": [[scalar_str(v) for v in row] for row in Q.entries],
        }
        _emit(args, write_json, out)
    return 0


def cmd_ext_groupoid(args):
    strat = _load_space(args.space)
    A = _load_algebra(args.algebra)
    crs = crs_pi1(strat.simpset, A)
    labels = LabelMap()
    out = groupoid_document(crs.groupoid, labels)
    out["components"] = [[labels[x] for x in comp] for comp in crs.components()]
    _emit(args, write_json, out)
    return 0


def cmd_profunctor(args):
    strat = _load_space(args.cobordism)
    if "in" not in strat.tags or "out" not in strat.tags:
        raise BoundaryError("cobordism file must tag 'in' and 'out' subcomplexes")
    A = _load_algebra(args.algebra)
    P = cobordism_profunctor(strat, A)
    _emit(args, write_json, profunctor_to_json(P))
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
    _emit(args, write_json, out)
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
    _emit(args, write_json, out)
    return 0


def cmd_double(args):
    G = group_from_json(load_json(args.group))
    res = quantum_double_oracle(G)
    out = {
        "dim": res.double.dim,
        "iso": "found" if res.ok else "missing",
    }
    _emit(args, write_json, out)
    return 0 if res.ok else 1


def cmd_chi_pi(args):
    A = _load_algebra(args.algebra)
    _emit(args, write_json, {"chi_pi": scalar_str(chi_pi(A))})
    return 0


def _required(*flags):
    return [(flag, {"required": True}) for flag in flags]


# name: (help, handler, options).  Each option is the flag and the keyword
# arguments of `add_argument`; every command also takes `--out`, last.
COMMANDS = {
    "validate": (
        "validate a group/module/complex/space file", cmd_validate, _required("--input"),
    ),
    "catalog": (
        "emit the built-in spaces (and algebras)", cmd_catalog,
        [("--algebras", {"action": "store_true"})],
    ),
    "colour-count": (None, cmd_colour_count, _required("--space", "--algebra")),
    "colour-list": (None, cmd_colour_list, _required("--space", "--algebra")),
    "state-space": (None, cmd_state_space, _required("--space", "--algebra")),
    "quinn-matrix": (None, cmd_quinn_matrix, [
        *_required("--cobordism", "--algebra"),
        ("--s", {"default": "0"}),
        ("--format", {"choices": ["csv", "json"], "default": "csv"}),
        ("--exact-only", {"action": "store_true"}),
    ]),
    "ext-groupoid": (None, cmd_ext_groupoid, _required("--space", "--algebra")),
    "profunctor": (None, cmd_profunctor, _required("--cobordism", "--algebra")),
    "nat-transform": (
        "vertical identity window over a prism", cmd_nat_transform,
        _required("--space", "--algebra"),
    ),
    "algebra": (None, cmd_algebra, _required("--from")),
    "double": (None, cmd_double, _required("--group")),
    "chi-pi": (None, cmd_chi_pi, _required("--algebra")),
}


def build_parser(only=None):
    """The parser of every command in `COMMANDS`, or of the command named `only`.

    The one-command parser lists every command in its usage line, so each
    usage, help and error text it prints is the full parser's.
    """
    parser = argparse.ArgumentParser(prog="quinncalc")
    metavar = None if only is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if only is None else [only]:
        help_text, handler, options = COMMANDS[name]
        p = sub.add_parser(name, **({} if help_text is None else {"help": help_text}))
        for flag, kwargs in [*options, ("--out", {})]:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    """Run one command; only its parser is built when `argv` starts with its name."""
    argv = sys.argv[1:] if argv is None else argv
    only = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(only).parse_args(argv)
    try:
        return args.func(args)
    except QuinncalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
