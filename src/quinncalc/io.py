"""JSON schemas for groups, crossed modules, crossed complexes and
simplicial sets, plus serialisers for the derived objects.

All emitters sort keys and use canonical orders, so reruns are
byte-identical.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain, groupby
from operator import itemgetter

from .colouring import Plan, colouring_dict
from .errors import SchemaError
from .finalg.crossed import CrossedComplex, CrossedModulePresentation, iota1, iota2
from .finalg.groupoids import FinGroupoid
from .finalg.groups import FinGroup
from .simpset import SimpSet, SimplexRef, Stratification


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def write_json(data, write) -> None:
    """Write `json.dumps(data, sort_keys=True, indent=2) + "\\n"` through `write`, in pieces.

    The one encoder of every CLI document.  Dicts with string keys, lists,
    tuples, strings, ints, bools and None are written here, strings by the
    C string encoder.  A list of flat rows (non-empty lists or tuples of
    strings, as in groupoid tables) is laid out by `_rows`, and a sorted
    table (`_Table`) as the list of its label rows.  Every other node (a
    float, a dict with a key that is not a string, any other type) goes to
    `json.dumps` whole and is re-indented to its depth.  The text reaches
    `write` in pieces of about `_BLOCK` characters: rows in blocks, other
    lists item by item, so no document is held whole.
    """
    put, flush = _gather(write)
    _write(data, "\n", put)
    put("\n")
    flush()


def dump_json(data) -> str:
    """What `write_json` writes, joined."""
    parts = []
    write_json(data, parts.append)
    return "".join(parts)


_BLOCK = 1 << 16  # characters handed to `write` at a time, about
_encode_str = json.encoder.encode_basestring_ascii
_ROW_TYPES = frozenset((list, tuple))
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _gather(write):
    """(put, flush): put gathers texts and hands them to `write` joined, once they reach
    `_BLOCK` characters; flush hands over the rest."""
    parts, size = [], 0

    def put(text):
        nonlocal size
        parts.append(text)
        size += len(text)
        if size >= _BLOCK:
            flush()

    def flush():
        nonlocal size
        if parts:
            write("".join(parts))
            parts.clear()
            size = 0

    return put, flush


class _Table:
    """The rows [names[i], names[j], names[k]] for i, j, k in zip(*columns).

    `_label_sorted_rows` makes it, with the columns in sorted row order.
    `write_json` writes it as the list of those rows (`rows`), and `labels`
    gives the rows as lists.
    """

    def __init__(self, names: list, columns: tuple):
        self.names, self.columns = names, columns

    def __len__(self):
        return len(self.columns[0])

    def labels(self) -> list:
        return list(map(list, zip(*(map(self.names.__getitem__, col) for col in self.columns))))

    def rows(self, newline: str):
        """(lo, hi) -> the text of rows lo..hi-1 as `_rows` lays them out.

        Each row is joined from pieces made once per name.
        """
        inner = newline + "  "
        encoded = [_encode_str(name) for name in self.names]
        first = ["[" + inner + e + "," + inner for e in encoded]
        middle = [e + "," + inner for e in encoded]
        last = [e + newline + "]" for e in encoded]
        parts = tuple(zip((first, middle, last), self.columns))

        def text(lo, hi):
            pieces = (map(p.__getitem__, c[lo:hi]) for p, c in parts)
            return ("," + newline).join(map("".join, zip(*pieces)))

        return text


def _write(node, newline: str, put) -> None:
    """Put the encoder's text for node; `newline` ends a line at node's depth."""
    kind = type(node)
    if kind is str:
        put(_encode_str(node))
    elif kind is int:
        put(int.__repr__(node))
    elif node is None or kind is bool:
        put(_CONSTANTS[node])
    elif (kind is dict or kind in _ROW_TYPES or kind is _Table) and not node:
        put("{}" if kind is dict else "[]")
    elif kind is dict and set(map(type, node)) == {str}:
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(node):
            put(sep + _encode_str(key) + ": ")
            _write(node[key], inner, put)
            sep = "," + inner
        put(newline + "}")
    elif kind is _Table:
        _write_rows(len(node), node.rows(newline + "  "), newline, put)
    elif kind in _ROW_TYPES and _flat(node):
        inner = newline + "  "
        _write_rows(len(node), lambda lo, hi: _rows(node[lo:hi], inner), newline, put)
    elif kind in _ROW_TYPES:
        inner = newline + "  "
        sep = "[" + inner
        for item in node:
            put(sep)
            _write(item, inner, put)
            sep = "," + inner
        put(newline + "]")
    else:
        put(json.dumps(node, sort_keys=True, indent=2).replace("\n", newline))


def _write_rows(count: int, text, newline: str, put) -> None:
    """Put a list of `count` rows, `text(lo, hi)` giving rows lo..hi-1, in blocks of about `_BLOCK`."""
    inner = newline + "  "
    head = text(0, 1)
    step = max(1, _BLOCK // len(head))
    put("[" + inner)
    put(head)
    for lo in range(1, count, step):
        put("," + inner)
        put(text(lo, lo + step))
    put(newline + "]")


def _flat(node) -> bool:
    """Whether the non-empty list node holds only flat rows: non-empty lists or tuples of strings."""
    return (
        set(map(type, node)) <= _ROW_TYPES
        and all(node)
        and set(map(type, chain.from_iterable(node))) == {str}
    )


def _rows(node, newline: str) -> str:
    """The encoder's text for the items of a list of flat rows.

    `newline` ends a line at the depth of the rows.  Every string is encoded
    in one pass, and one format string per row length lays the rows out.
    """
    cells = tuple(map(_encode_str, chain.from_iterable(node)))
    inner = newline + "  "
    layout = {
        n: "[" + inner + ("," + inner).join(["%s"] * n) + newline + "]" for n in set(map(len, node))
    }
    return ("," + newline).join(map(layout.__getitem__, map(len, node))) % cells


def _unique(what: str, items) -> dict:
    """dict(items), as a schema error that names a key given twice: a later row would win."""
    out = {}
    for key, value in items:
        if key in out:
            raise SchemaError(f"{what} {key!r} given twice")
        out[key] = value
    return out


def _table(what: str, rows, width: int) -> dict:
    """{key: value} from rows [*key, value] of `width` entries, all as strings.

    The key is the first entry, or the tuple of all but the last.  A row of
    another shape, or a key given twice, is a schema error that names it.
    """

    def entries():
        for row in rows:
            if not isinstance(row, (list, tuple)) or len(row) != width:
                raise SchemaError(f"{what} row {row!r} must have {width} entries")
            *key, value = map(str, row)
            yield (key[0] if width == 2 else tuple(key)), value

    return _unique(f"{what} key", entries())


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
    name, n = str(data.get("name", "group")), len(elements)
    rows = table if isinstance(table, list) else []
    bad = next((i for i, r in enumerate(rows) if not isinstance(r, list) or len(r) != n), None)
    if not isinstance(table, list):
        fault = f"the table is {type(table).__name__}, not a list"
    elif bad is not None:
        r = table[bad]
        if isinstance(r, list):
            fault = f"row {bad} has {len(r)} entries for {n} elements"
        else:
            fault = f"row {bad} is a {type(r).__name__}, not a list of {n} entries"
    elif len(table) != n:
        fault = f"the table has {len(table)} rows for {n} elements"
    else:
        fault = None
    if fault is not None:
        raise SchemaError(f"group table must be square over the element list: group {name!r}, {fault}")
    mul = {
        (elements[i], elements[j]): str(table[i][j])
        for i in range(len(elements))
        for j in range(len(elements))
    }
    G = FinGroup(tuple(elements), mul, name=name)
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
        bdry = _table("crossed module boundary", data["boundary"], 2)
        act = _table("crossed module action", data["action"], 3)
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


def _entry(node, key: str, where: str):
    """node[key]; a schema error naming `where` and the key if node is not an object or lacks it."""
    if not isinstance(node, dict):
        raise SchemaError(f"{where} schema: must be an object, not {type(node).__name__}")
    if key not in node:
        raise SchemaError(f"{where} schema: {key!r} is missing")
    return node[key]


def _listed(node, key: str, where: str) -> list:
    """`_entry`, as a schema error that names the key if its value is not a list."""
    value = _entry(node, key, where)
    if not isinstance(value, list):
        raise SchemaError(f"{where} schema: {key!r} must be a list, not {type(value).__name__}")
    return value


def crossed_complex_from_json(data) -> CrossedComplex:
    try:
        objects = tuple(str(o) for o in _listed(data, "objects", "crossed complex"))
        lvl1 = _entry(data, "level1", "crossed complex")
        rows = _unique("level 1 arrow id", (
            (str(_entry(a, "id", f"level 1 arrow {i}")), a)
            for i, a in enumerate(_listed(lvl1, "arrows", "level 1"))
        ))
        arrows = tuple(rows)
        src = {g: str(_entry(a, "src", f"level 1 arrow {g!r}")) for g, a in rows.items()}
        tgt = {g: str(_entry(a, "tgt", f"level 1 arrow {g!r}")) for g, a in rows.items()}
        comp = _table("level 1 compose", _listed(lvl1, "compose", "level 1"), 3)
        inv = _table("level 1 inv", _listed(lvl1, "inv", "level 1"), 2)
        truncation = int(data.get("truncation", 1))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"crossed complex schema: {exc}") from exc
    base = FinGroupoid(objects, arrows, src, tgt, comp, {}, inv, name="level1")
    for x in objects:
        for a in base.arrows_between(x, x):
            if comp.get((a, a)) == a and all(comp.get((a, b)) == b for b in base.arrows_from(x)):
                base.ident[x] = a
                break
        else:
            # a dangling arrow or an entry naming no arrow also hides an identity: name that first
            base.validate_names().raise_if_failed()
            raise SchemaError(f"level 1 lacks an identity at object {x!r}")
    levels, bdry, act = {}, {}, {}
    elem_owner = {}
    levels_data = data.get("levels", [])
    if not isinstance(levels_data, list):
        kind = type(levels_data).__name__
        raise SchemaError(f"crossed complex schema: 'levels' must be a list of levels, not {kind}")
    for pos, lvl in enumerate(levels_data):
        where = f"levels[{pos}]"
        try:
            n = int(lvl["n"])
            where = f"level {n}"
            if n in levels:
                raise SchemaError(f"{where} given twice")
            groups = {}
            for x, g in lvl["groups"].items():
                groups[str(x)] = group_from_json(g)
            for x, g in groups.items():
                for e in g.elements:
                    if (n, e) in elem_owner:
                        raise SchemaError(f"level {n} element id {e!r} not unique")
                    elem_owner[(n, e)] = x
            b = {
                (elem_owner[(n, e)], e): target
                for e, target in _table(f"{where} boundary", lvl["boundary"], 2).items()
            }
            a = {
                ((elem_owner[(n, e)], e), g): ep
                for (e, g), ep in _table(f"{where} action", lvl["action"], 3).items()
            }
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"crossed complex {where} schema: {exc}") from exc
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
            for a, b, c in sorted(base.entries(), key=lambda abc: (str(abc[0]), str(abc[1])))
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
        generators = _unique(
            "generator id", ((str(g["id"]), int(g["dim"])) for g in data["generators"])
        )
        faces = _unique("face (of, i)", (
            ((str(f["of"]), int(f["i"])),
             SimplexRef(str(f["core"]), tuple(int(j) for j in f.get("deg", ()))))
            for f in data.get("faces", ())
        ))
        tags = data.get("tags", {})
        if not isinstance(tags, dict):
            raise TypeError(f"'tags' must be an object, not {type(tags).__name__}")
        for k, v in tags.items():
            if not isinstance(v, list):
                raise TypeError(f"tag {k!r} must be a list of generators, not {type(v).__name__}")
        tags = {str(k): frozenset(map(str, v)) for k, v in tags.items()}
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


class LabelMap(dict):
    """id -> gen_label(id), each label built on first use.

    One map serves one serialisation call, so an id that occurs in many
    entries (or in sort keys) is labelled once.
    """

    def __missing__(self, g):
        label = self[g] = gen_label(g)
        return label


def _label_sorted_rows(rows, ids, lab: LabelMap) -> _Table:
    """The rows [a, b, c] of a table, as labels, sorted on the labels of (a, b).

    `rows` holds the table in table order as (i, js, ks) on indices into
    `ids`: the entries (ids[i], ids[js[p]]) -> ids[ks[p]] (`FinGroupoid.comp_rows`,
    or one entry a row).  Each id is labelled once.  The rows are
    sorted on the integer rank of the label of i; the entries of each run
    of rows of equal rank, on the rank of the label of j.  That order
    depends only on the run's js, so it is found once per distinct js.
    gen_label is not injective, so equal labels share a rank, and as both
    sorts are stable, ties keep table order.
    """
    names = [lab[g] for g in ids]
    rank_of = {name: r for r, name in enumerate(sorted(set(names)))}
    rank = [rank_of[name] for name in names]
    columns, pickers = ([], [], []), {}
    for _, run in groupby(sorted(rows, key=lambda row: rank[row[0]]), key=lambda row: rank[row[0]]):
        run = list(run)
        if len(run) == 1:
            (i, js, ks), = run
            heads = (i,) * len(js)
        else:
            heads = [i for i, js, _ in run for _ in js]
            js = tuple(chain.from_iterable(js for _, js, _ in run))
            ks = list(chain.from_iterable(ks for _, _, ks in run))
        pick = pickers.get(js)
        if pick is None:
            pick = pickers[js] = _picker(sorted(range(len(js)), key=lambda p: rank[js[p]]))
        for column, values in zip(columns, (heads, js, ks)):
            column += pick(values)
    return _Table(names, columns)


def _picker(order: list):
    """values -> the tuple of values[p] for p in order."""
    if len(order) > 1:
        return itemgetter(*order)
    return lambda values: tuple(map(values.__getitem__, order))


def groupoid_to_json(G: FinGroupoid, labels: LabelMap | None = None) -> dict:
    """Objects, arrows, the composition table and inverses, labelled by `gen_label`."""
    doc = groupoid_document(G, labels)
    doc["compose"] = doc["compose"].labels()
    return doc


def groupoid_document(G: FinGroupoid, labels: LabelMap | None = None) -> dict:
    """`groupoid_to_json`'s document with the table left a `_Table`, for `dump_json`.

    `dump_json` joins the table's rows from pieces encoded once per arrow,
    so no list of label rows is built.
    """
    lab = LabelMap() if labels is None else labels
    arrows = [{"id": lab[a], "src": lab[G.src[a]], "tgt": lab[G.tgt[a]]} for a in G.arrows]
    return {
        "objects": [lab[x] for x in G.objects],
        "arrows": arrows,
        "compose": _label_sorted_rows(G.comp_rows(), G.arrows, lab),
        "inv": [[lab[a], lab[b]] for a, b in sorted(G.inv_table.items(), key=lambda kv: lab[kv[0]])],
    }


def _action_rows(rows, ids, lab: LabelMap) -> list:
    """`_label_sorted_rows` of the rows (a, bs, cs) of an action, the entries (a, bs[p]) -> cs[p],
    on `ids`, as lists.  Entries with tied labels keep their order in the rows."""
    at = {g: i for i, g in enumerate(ids)}
    rows = [(at[a], tuple(map(at.__getitem__, bs)), [at[c] for c in cs]) for a, bs, cs in rows]
    return _label_sorted_rows(rows, ids, lab).labels()


def profunctor_to_json(P) -> dict:
    lab = LabelMap()
    basis = {f"({li},{ri})": [lab[b] for b in els] for (li, ri), els in sorted(P.basis.items())}
    elements = P.elements()
    left = ((g, moves.keys(), moves.values()) for g, moves in P.lact.items())
    # element by element, as a hom profunctor's table is, so that tied entries keep its order
    right = ((b, hs, [P.ract[h][b] for h in hs]) for (_, y), els in sorted(P.basis.items())
             for hs in [P.right.groupoid.arrows_from(y)] for b in els)
    return {
        "left": groupoid_to_json(P.left.groupoid, lab),
        "right": groupoid_to_json(P.right.groupoid, lab),
        "basis": basis,
        "leftAct": _action_rows(left, (*P.left.groupoid.arrows, *elements), lab),
        "rightAct": _action_rows(right, (*elements, *P.right.groupoid.arrows), lab),
    }


# -- colour lists -----------------------------------------------------------------------

# a leaf of the marker colouring.  Inside an encoded string '"' is escaped, and a key's
# opening quote follows indentation, so a '"' after ': ' and before the marker text opens
# a string value; every string value of the template is a marker "\x00<i>\x00"
_MARKER_LEAF = re.compile(r'(?<=: )"\\u0000(\d+)\\u0000"')


def colour_list_json(X: SimpSet, A: CrossedComplex, colourings) -> str:
    """`dump_json({"colourings": [c.as_dict() for c in colourings]})`, byte for byte.

    The colourings are colourings of X by A; X may be a `Stratification`.
    Each is encoded to its value vector (`Plan._encode`) and written by
    `write_colour_list`, the writer of the `colour-list` command.
    """
    plan = Plan(X, A)

    def walk(emit):
        for c in colourings:
            emit(plan._encode(c.values))

    return plan_colour_list(plan, walk)


def plan_colour_list(plan: Plan, walk=None) -> str:
    """What `write_colour_list` writes, joined."""
    parts = []
    write_colour_list(plan, parts.append, walk)
    return "".join(parts)


def write_colour_list(plan: Plan, write, walk=None) -> None:
    """Write the colour list of the vectors that `walk(emit)` hands to `emit` through `write`.

    The text is `colour_list_json`'s.  `walk` defaults to `plan.walk`, which
    hands over every colouring of the plan; no `Colouring` and no values
    dict is built for a vector.  The encoder renders one marker colouring,
    whose leaves are distinct marker strings, at its depth in
    `{"colourings": [...]}`; that text is the template, so `colouring_dict`
    stays the one definition of the shape.  Each leaf of the template gets
    a table from value index to the encoding of the value, re-indented to
    the leaf's depth, built once; a level-n leaf, n >= 2, is indexed by the
    object at the generator's leading vertex and then by the element.  Each
    vector fills the leaves of the template from those tables, the row is
    joined in one pass, and rows reach `write` in blocks of about `_BLOCK`
    characters as the walk hands them over.
    """
    X, A = plan.X, plan.A
    gens = list(X.all_gens())
    marks = {g: f"\x00{i}\x00" for i, g in enumerate(gens)}
    marks.update({g: (None, m) for g, m in marks.items() if X.dim_of[g] >= 2})
    doc = dump_json({"colourings": [colouring_dict(X, A, marks)]})
    # doc = head "[" "\n" item "\n  " "]" tail, with one item
    start, end = doc.index("["), doc.rindex("]")
    cut = doc.rindex("\n", 0, end)
    head, item, foot = doc[: start + 1], doc[start + 2 : cut], doc[cut:]
    parts = _MARKER_LEAF.split(item)
    literals, slots, tables = parts[::2], [], {}
    for lit, i in zip(literals, parts[1::2]):
        g = gens[int(i)]
        line = lit[lit.rindex("\n") + 1 :]
        key = line[: len(line) - len(line.lstrip(" "))], X.dim_of[g]
        if key not in tables:
            tables[key] = _leaf_table(A, *key)
        lead = X.gen_index(plan.lead[g]) if key[1] >= 2 else None
        slots.append((X.gen_index(g), lead, tables[key]))
    row, rows = [None] * (2 * len(literals) - 1), []
    row[::2] = literals
    per_block = max(1, _BLOCK // len(item))
    sep = "\n"

    def flush():
        nonlocal sep
        write(sep)
        write(",\n".join(rows))
        rows.clear()
        sep = ",\n"

    def emit(v):
        row[1::2] = [t[v[k]] if lead is None else t[v[lead]][v[k]] for k, lead, t in slots]
        rows.append("".join(row))
        if len(rows) == per_block:
            flush()

    write(head)
    (walk or plan.walk)(emit)
    if rows:
        flush()
    write(doc[end:] if sep == "\n" else foot)


def _leaf_table(A: CrossedComplex, indent: str, n: int) -> list:
    """The encoder's text for each level-n value at one depth, by value index.

    Objects for n = 0, arrows for n = 1, and above, for each object, the
    elements of the level-n fibre there.
    """
    newline = "\n" + indent

    def text(value):
        return json.dumps(value, sort_keys=True, indent=2).replace("\n", newline)

    if n == 0:
        return [text(x) for x in A.objects]
    if n == 1:
        return [text(a) for a in A.base.arrows]
    return [[text(e) for e in A.fibre(n, x).elements] for x in A.objects]
