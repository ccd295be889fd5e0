"""JSON schemas for groups, crossed modules, crossed complexes and
simplicial sets, plus serialisers for the derived objects.

All emitters sort keys and use canonical orders, so reruns are
byte-identical.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .errors import SchemaError
from .finalg.crossed import CrossedComplex, CrossedModulePresentation, iota1, iota2
from .finalg.groupoids import FinGroupoid
from .finalg.groups import FinGroup
from .simpset import SimpSet, SimplexRef, Stratification


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def scalar_str(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    return repr(v)


# -- groups ------------------------------------------------------------------


def group_from_json(data) -> FinGroup:
    try:
        elements = [str(e) for e in data["elements"]]
        table = data["table"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"group schema needs 'elements' and 'table': {exc}") from exc
    rows = table if isinstance(table, list) else ()
    if len(rows) != len(elements) or any(
        not isinstance(r, list) or len(r) != len(elements) for r in rows
    ):
        raise SchemaError("group table must be square over the element list")
    mul = {
        (elements[i], elements[j]): str(table[i][j])
        for i in range(len(elements))
        for j in range(len(elements))
    }
    G = FinGroup(tuple(elements), mul, name=str(data.get("name", "group")))
    G.validate().raise_if_failed()
    return G


def group_to_json(G: FinGroup) -> dict:
    els = [str(e) for e in G.elements]
    table = [[str(G.mul(a, b)) for b in G.elements] for a in G.elements]
    return {"elements": els, "table": table, "name": G.name}


# -- crossed modules ------------------------------------------------------------


def crossed_module_from_json(data) -> CrossedModulePresentation:
    try:
        G = group_from_json(data["G"])
        E = group_from_json(data["E"])
        bdry = {str(e): str(g) for e, g in data["boundary"]}
        act = {(str(e), str(g)): str(ep) for e, g, ep in data["action"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"crossed module schema: {exc}") from exc
    return CrossedModulePresentation(G, E, bdry, act, name=str(data.get("name", "")))


def crossed_module_to_json(M: CrossedModulePresentation) -> dict:
    return {
        "G": group_to_json(M.G),
        "E": group_to_json(M.E),
        "boundary": [[str(e), str(M.bdry[e])] for e in M.E.elements],
        "action": [
            [str(e), str(g), str(M.act[(e, g)])]
            for e in M.E.elements
            for g in M.G.elements
        ],
        "name": M.name,
    }


# -- crossed complexes -------------------------------------------------------------


def crossed_complex_from_json(data) -> CrossedComplex:
    try:
        objects = tuple(str(o) for o in data["objects"])
        lvl1 = data["level1"]
        arrows = tuple(str(a["id"]) for a in lvl1["arrows"])
        src = {str(a["id"]): str(a["src"]) for a in lvl1["arrows"]}
        tgt = {str(a["id"]): str(a["tgt"]) for a in lvl1["arrows"]}
        comp = {(str(a), str(b)): str(c) for a, b, c in lvl1["compose"]}
        inv = {str(a): str(b) for a, b in lvl1["inv"]}
        truncation = int(data.get("truncation", 1))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"crossed complex schema: {exc}") from exc
    ident = {}
    for x in objects:
        loops = [a for a in arrows if src[a] == x == tgt[a] and comp.get((a, a)) == a]
        for a in loops:
            if all(comp.get((a, b)) == b for b in arrows if src[b] == x):
                ident[x] = a
                break
    if set(ident) != set(objects):
        raise SchemaError("level 1 lacks an identity at some object")
    base = FinGroupoid(objects, arrows, src, tgt, comp, ident, inv, name="level1")
    levels, bdry, act = {}, {}, {}
    elem_owner = {}
    for lvl in data.get("levels", ()):
        try:
            n = int(lvl["n"])
            groups = {}
            for x, g in lvl["groups"].items():
                groups[str(x)] = group_from_json(g)
            for x, g in groups.items():
                for e in g.elements:
                    if (n, e) in elem_owner:
                        raise SchemaError(f"level {n} element id {e!r} not unique")
                    elem_owner[(n, e)] = x
            b = {}
            for e, target in lvl["boundary"]:
                x = elem_owner[(n, str(e))]
                b[(x, str(e))] = str(target)
            a = {}
            for e, g, ep in lvl["action"]:
                x = elem_owner[(n, str(e))]
                a[((x, str(e)), str(g))] = str(ep)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"crossed complex level schema: {exc}") from exc
        levels[n] = groups
        bdry[n] = b
        act[n] = a
    return CrossedComplex(base, levels, bdry, act, truncation, name=str(data.get("name", "")))


def crossed_complex_to_json(A: CrossedComplex) -> dict:
    """Expand any coefficient complex to the full schema."""
    base = A.base
    lvl1 = {
        "arrows": [
            {"id": str(a), "src": str(base.src[a]), "tgt": str(base.tgt[a])}
            for a in base.arrows
        ],
        "compose": [
            [str(a), str(b), str(c)]
            for (a, b), c in sorted(
                base.comp_table.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
            )
        ],
        "inv": [[str(a), str(base.inv(a))] for a in base.arrows],
    }
    levels = []
    for n in range(2, A.truncation + 1):
        # element ids are made unique per level by prefixing the base object
        def eid(x, e):
            return f"{x}:{e}"

        groups = {}
        for x in A.objects:
            F = A.levels[n][x]
            groups[str(x)] = {
                "elements": [eid(x, e) for e in F.elements],
                "table": [[eid(x, F.mul(a, b)) for b in F.elements] for a in F.elements],
            }
        boundary = []
        for (x, e) in A.level_elements(n):
            t = A.bdry_of(n, (x, e))
            boundary.append([eid(x, e), str(t) if n == 2 else eid(*t)])
        action = []
        for (x, e) in A.level_elements(n):
            for g in base.arrows_from(x):
                y, ep = A.act_elem(n, (x, e), g)
                action.append([eid(x, e), str(g), eid(y, ep)])
        levels.append({"n": n, "groups": groups, "boundary": boundary, "action": action})
    return {
        "objects": [str(x) for x in A.objects],
        "level1": lvl1,
        "levels": levels,
        "truncation": A.truncation,
        "name": A.name,
    }


# -- algebra file dispatch -----------------------------------------------------------


def algebra_from_json(data) -> CrossedComplex:
    """A coefficient complex from any of the accepted shapes."""
    if not isinstance(data, dict):
        raise SchemaError("algebra file must be a JSON object")
    if "level1" in data:
        return crossed_complex_from_json(data)
    if "G" in data and "E" in data:
        return iota2(crossed_module_from_json(data))
    if "elements" in data and "table" in data:
        return iota1(group_from_json(data))
    raise SchemaError("unrecognised algebra schema")


# -- simplicial sets ------------------------------------------------------------------


def simpset_from_json(data):
    try:
        generators = {str(g["id"]): int(g["dim"]) for g in data["generators"]}
        faces = {}
        for f in data.get("faces", ()):
            ref = SimplexRef(str(f["core"]), tuple(int(j) for j in f.get("deg", ())))
            faces[(str(f["of"]), int(f["i"]))] = ref
        tags = {
            str(k): frozenset(str(g) for g in v) for k, v in data.get("tags", {}).items()
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"simplicial set schema: {exc}") from exc
    X = SimpSet(generators, faces, name=str(data.get("name", "")))
    if tags:
        X.validate().raise_if_failed()  # the tags' face-closure check walks the faces
        return Stratification(X, tags)
    return X


def gen_label(g) -> str:
    """Deterministic readable label for (possibly structured) generator ids."""
    if isinstance(g, SimplexRef):
        body = gen_label(g.core)
        if g.word:
            return f"s{''.join(map(str, g.word))}.{body}"
        return body
    if isinstance(g, tuple):
        return "(" + ",".join(gen_label(x) for x in g) + ")"
    return str(g)


def simpset_to_json(X, tags=None, name="") -> dict:
    if isinstance(X, Stratification):
        tags = {k: sorted(gen_label(g) for g in v) for k, v in X.tags.items()}
        name = name or X.simpset.name
        X = X.simpset
    gens = [{"id": gen_label(g), "dim": X.dim_of[g]} for g in X.all_gens()]
    faces = []
    for g in X.all_gens():
        for i in range(X.dim_of[g] + 1):
            if X.dim_of[g] == 0:
                break
            ref = X.face(g, i)
            faces.append(
                {
                    "of": gen_label(g),
                    "i": i,
                    "core": gen_label(ref.core),
                    "deg": list(ref.word),
                }
            )
    out = {"generators": gens, "faces": faces, "name": name or X.name}
    if tags is not None:
        out["tags"] = tags
    return out


# -- groupoids and profunctors ---------------------------------------------------------


def groupoid_to_json(G: FinGroupoid) -> dict:
    arrows = [
        {"id": gen_label(a), "src": gen_label(G.src[a]), "tgt": gen_label(G.tgt[a])}
        for a in G.arrows
    ]
    compose = [
        [gen_label(a), gen_label(b), gen_label(c)] for (a, b), c in sorted(
            G.comp_table.items(), key=lambda kv: (gen_label(kv[0][0]), gen_label(kv[0][1]))
        )
    ]
    return {
        "objects": [gen_label(x) for x in G.objects],
        "arrows": arrows,
        "compose": compose,
        "inv": [[gen_label(a), gen_label(b)] for a, b in sorted(
            G.inv_table.items(), key=lambda kv: gen_label(kv[0])
        )],
    }


def profunctor_to_json(P) -> dict:
    basis = {
        f"({li},{ri})": [gen_label(b) for b in els] for (li, ri), els in sorted(P.basis.items())
    }
    left_act = [
        [gen_label(g), gen_label(b), gen_label(out)]
        for (g, b), out in sorted(P.lact.items(), key=lambda kv: (gen_label(kv[0][0]), gen_label(kv[0][1])))
    ]
    right_act = [
        [gen_label(b), gen_label(h), gen_label(out)]
        for (b, h), out in sorted(P.ract.items(), key=lambda kv: (gen_label(kv[0][0]), gen_label(kv[0][1])))
    ]
    return {
        "left": groupoid_to_json(P.left.groupoid),
        "right": groupoid_to_json(P.right.groupoid),
        "basis": basis,
        "leftAct": left_act,
        "rightAct": right_act,
    }
