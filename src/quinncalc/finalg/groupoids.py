"""Finite groupoids as explicit arrow tables.

The composition convention is concatenation: `comp(a, b)` is defined exactly
when `tgt(a) == src(b)` and is the arrow "a then b".
"""
from __future__ import annotations

from functools import cached_property

from .groups import FinGroup, ValidationReport, _generating_sequence


def partition(n: int, links):
    """Classes of range(n) under the equivalence generated by `links`.

    `links` is an iterable of index pairs.  Classes are tuples of indices,
    members ascending, ordered by least member.  A disjoint-set forest
    (Tarjan 1975) whose roots are always the least member of their class.
    """
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in links:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    classes: dict = {}
    for i in range(n):
        classes.setdefault(find(i), []).append(i)
    return tuple(tuple(c) for c in classes.values())


def index_rows(table: dict, at: dict) -> list:
    """The entries {(a, b): c} of a table as rows (at[a], (at[b],), (at[c],)), in table order.

    The shape of `FinGroupoid.comp_rows`, one entry per row.
    """
    return [(at[a], (at[b],), (at[c],)) for (a, b), c in table.items()]


class FinGroupoid:
    """A groupoid with its composition table.

    `comp` is the table, either as a dict {(a, b): a then b} or, on arrow
    indices, as `products`: for the arrow of index i, the indices of its
    composites with each arrow out of its target, in arrow order.  Given
    `products`, `comp_table` is built on first use, in that order.
    """

    def __init__(self, objects, arrows, src, tgt, comp, ident, inv=None, name=""):
        self.objects = tuple(objects)
        self.arrows = tuple(arrows)
        self.src = dict(src)
        self.tgt = dict(tgt)
        if isinstance(comp, dict):
            self.comp_table, self.products = dict(comp), None
        else:
            self.products = comp
        self.ident = dict(ident)
        self.name = name
        self._obj_index = {x: i for i, x in enumerate(self.objects)}
        self._arr_index = {a: i for i, a in enumerate(self.arrows)}
        self.inv_table = dict(inv) if inv is not None else self._find_inverses()

    def _find_inverses(self):
        inv = {}
        for a in self.arrows:
            x, y = self.src[a], self.tgt[a]
            for b in self.arrows_between(y, x):
                if (
                    self.comp_table.get((a, b)) == self.ident.get(x)
                    and self.comp_table.get((b, a)) == self.ident.get(y)
                ):
                    inv[a] = b
                    break
        return inv

    @cached_property
    def comp_table(self) -> dict:
        """{(a, b): a then b}, from `products` on first use."""
        arrows = self.arrows
        rows = self.comp_rows()
        return {(arrows[i], arrows[j]): arrows[k] for i, js, ks in rows for j, k in zip(js, ks)}

    def comp_rows(self) -> list:
        """The table in table order as rows (i, js, ks) of arrow indices.

        A row holds the entries arrows[i] then arrows[js[p]] = arrows[ks[p]].
        From `products`, a row holds all composites of one arrow; from a dict,
        one entry (`index_rows`).
        """
        if self.products is None:
            return index_rows(self.comp_table, self._arr_index)
        out = {}
        for i, a in enumerate(self.arrows):
            out.setdefault(self.src[a], []).append(i)
        out = {x: tuple(js) for x, js in out.items()}
        tgt = [self.tgt[a] for a in self.arrows]
        return [(i, out[tgt[i]], ks) for i, ks in enumerate(self.products)]

    @cached_property
    def ends(self) -> tuple:
        """(out, into, between): the arrows by source, by target and by (source, target).

        Each lists arrows in declaration order.  The index is built on first
        use, so a groupoid that is never asked for incident arrows costs nothing.
        """
        out, into, between = {}, {}, {}
        for a in self.arrows:
            x, y = self.src[a], self.tgt[a]
            out.setdefault(x, []).append(a)
            into.setdefault(y, []).append(a)
            between.setdefault((x, y), []).append(a)
        return tuple({k: tuple(v) for k, v in d.items()} for d in (out, into, between))

    def obj_index(self, x):
        return self._obj_index[x]

    def arr_index(self, a):
        return self._arr_index[a]

    def comp(self, a, b):
        return self.comp_table[(a, b)]

    def inv(self, a):
        return self.inv_table[a]

    def arrows_from(self, x):
        return self.ends[0].get(x, ())

    def arrows_into(self, x):
        return self.ends[1].get(x, ())

    def arrows_between(self, x, y):
        return self.ends[2].get((x, y), ())

    def vertex_group(self, x) -> FinGroup:
        loops = self.arrows_between(x, x)
        mul = {(a, b): self.comp(a, b) for a in loops for b in loops}
        return FinGroup(loops, mul, name=f"{self.name}({x})")

    @cached_property
    def generators(self) -> tuple:
        """Arrows that generate the groupoid, built on first use.

        For each component, in canonical order: generators of the vertex
        group at its least object, then for each other object x the first
        arrow into x from that object.  Every arrow a: x -> y is
        t_x^-1 . (t_x . a . t_y^-1) . t_y, with t the tree arrows and the
        middle factor a loop at the least object (Schreier; Holt, Eick and
        O'Brien, Handbook of Computational Group Theory, 2005, section 4.1).
        """
        out = []
        for component in self.components():
            root = component[0]
            out.extend(_generating_sequence(self.vertex_group(root)))
            out.extend(self.arrows_between(root, x)[0] for x in component[1:])
        return tuple(out)

    def components(self):
        """Connected components as tuples of objects, in canonical order."""
        idx = self._obj_index
        links = ((idx[self.src[a]], idx[self.tgt[a]]) for a in self.arrows)
        return tuple(
            tuple(self.objects[i] for i in c) for c in partition(len(self.objects), links)
        )

    def component_of(self):
        out = {}
        for comp in self.components():
            for x in comp:
                out[x] = comp[0]
        return out

    def validate(self) -> ValidationReport:
        objs = set(self.objects)
        for a in self.arrows:
            if self.src.get(a) not in objs or self.tgt.get(a) not in objs:
                return ValidationReport.malformed("dangling arrow endpoints", (a,))
        for x in self.objects:
            e = self.ident.get(x)
            if e is None or self.src.get(e) != x or self.tgt.get(e) != x:
                return ValidationReport.malformed("missing or misplaced identity", (x,))
        arrows = set(self.arrows)
        for (a, b), c in self.comp_table.items():
            if not {a, b, c} <= arrows:
                return ValidationReport.malformed("composition names an unknown arrow", (a, b, c))
        for a, b in self.inv_table.items():
            if not {a, b} <= arrows:
                return ValidationReport.malformed("inverse names an unknown arrow", (a, b))
        table, src, tgt = self.comp_table, self.src, self.tgt
        out, into, _ = self.ends
        # every entry composable and as many entries as composable pairs: the table is complete
        if len(table) != sum(len(arr) * len(out.get(y, ())) for y, arr in into.items()) or any(
            tgt[a] != src[b] or src[c] != src[a] or tgt[c] != tgt[b] for (a, b), c in table.items()
        ):
            for a in self.arrows:
                for b in self.arrows:
                    defined = (a, b) in table
                    if defined != (tgt[a] == src[b]):
                        return ValidationReport.malformed("composition defined iff tgt=src", (a, b))
                    if defined:
                        c = table[(a, b)]
                        if src.get(c) != src[a] or tgt.get(c) != tgt[b]:
                            return ValidationReport.axiom("composite endpoints wrong", (a, b, c))
        for a in self.arrows:
            x, y = src[a], tgt[a]
            if table.get((self.ident[x], a)) != a or table.get((a, self.ident[y])) != a:
                return ValidationReport.axiom("identity is not a two-sided unit", (a,))
        for a in self.arrows:
            b = self.inv_table.get(a)
            if b is None:
                return ValidationReport.axiom("arrow has no two-sided inverse", (a,))
            if table.get((a, b)) != self.ident[src[a]] or table.get((b, a)) != self.ident[tgt[a]]:
                return ValidationReport.axiom("inverse table wrong", (a, b))
        # on arrow indices: prod[i][p] is arrows[i] then the p-th arrow out of its target,
        # and pos[j] the place of arrows[j] among the arrows out of its source
        at, ids = self._arr_index, self.arrows
        outs = {x: [at[b] for b in bs] for x, bs in out.items()}
        pos = [0] * len(ids)
        for bs in outs.values():
            for p, b in enumerate(bs):
                pos[b] = p
        prod = [[at[table[(a, b)]] for b in out[tgt[a]]] for a in ids]
        for a, row in zip(ids, prod):
            for b, ab in zip(outs[tgt[a]], row):
                # (a.b).c against a.(b.c), for each c out of tgt b, in that order
                right = [row[pos[bc]] for bc in prod[b]]
                if prod[ab] != right:
                    q = next(q for q, (u, v) in enumerate(zip(prod[ab], right)) if u != v)
                    c = outs[tgt[ids[b]]][q]
                    return ValidationReport.axiom("associativity fails", (a, ids[b], ids[c]))
        return ValidationReport.passed()

    def __repr__(self):
        return f"FinGroupoid({self.name or ''}, {len(self.objects)} objects, {len(self.arrows)} arrows)"


def groupoid_from_group(G: FinGroup, obj="*") -> FinGroupoid:
    """The one-object groupoid carrying G, with compose(a, b) = a*b."""
    src = {a: obj for a in G.elements}
    comp = {(a, b): G.mul(a, b) for a in G.elements for b in G.elements}
    ident = {obj: G.unit}
    inv = {a: G.inv(a) for a in G.elements}
    return FinGroupoid((obj,), G.elements, src, dict(src), comp, ident, inv, name=G.name)


def pair_groupoid(k: int) -> FinGroupoid:
    """Objects 1..k with exactly one arrow between each ordered pair."""
    objects = tuple(range(1, k + 1))
    arrows = tuple((x, y) for x in objects for y in objects)
    src = {(x, y): x for (x, y) in arrows}
    tgt = {(x, y): y for (x, y) in arrows}
    comp = {((x, y), (y2, z)): (x, z) for (x, y) in arrows for (y2, z) in arrows if y == y2}
    ident = {x: (x, x) for x in objects}
    inv = {(x, y): (y, x) for (x, y) in arrows}
    return FinGroupoid(objects, arrows, src, tgt, comp, ident, inv, name=f"I({k})")


def validate_left_action(G: FinGroup, points, act) -> ValidationReport:
    points = tuple(points)
    members = set(points)
    for g in G.elements:
        for x in points:
            if (g, x) not in act:
                return ValidationReport.malformed("action not total", (g, x))
            if act[(g, x)] not in members:
                return ValidationReport.malformed("action leaves the set", (g, x))
    for x in points:
        if act[(G.unit, x)] != x:
            return ValidationReport.axiom("unit does not act trivially", (x,))
    for g in G.elements:
        for h in G.elements:
            for x in points:
                if act[(h, act[(g, x)])] != act[(G.mul(h, g), x)]:
                    return ValidationReport.axiom("action not compatible with product", (g, h, x))
    return ValidationReport.passed()


def action_groupoid(G: FinGroup, points, act) -> FinGroupoid:
    """Action groupoid of a left action: arrows (x, g): x -> g.x.

    `act` maps (g, x) to g.x; composing (x, g) with (g.x, h) gives (x, hg).
    """
    if callable(act):
        act = {(g, x): act(g, x) for g in G.elements for x in points}
    report = validate_left_action(G, points, act)
    if not report:
        from ..errors import AxiomError

        raise AxiomError(f"invalid action table: {report.message} {report.witness}")
    points = tuple(points)
    arrows = tuple((x, g) for x in points for g in G.elements)
    src = {(x, g): x for (x, g) in arrows}
    tgt = {(x, g): act[(g, x)] for (x, g) in arrows}
    comp = {}
    for (x, g) in arrows:
        y = tgt[(x, g)]
        for h in G.elements:
            comp[((x, g), (y, h))] = (x, G.mul(h, g))
    ident = {x: (x, G.unit) for x in points}
    inv = {(x, g): (tgt[(x, g)], G.inv(g)) for (x, g) in arrows}
    return FinGroupoid(points, arrows, src, tgt, comp, ident, inv, name=f"{G.name}-action")


def quotient_groupoid(G: FinGroupoid, normal: dict) -> tuple[FinGroupoid, dict]:
    """Quotient by a totally disconnected normal subgroupoid.

    `normal[x]` is a set of loops at x, closed under conjugation by every
    arrow of G.  Arrows x -> y are identified when they differ by right
    multiplication with a loop of `normal[y]`; representatives are minimal
    in the arrow declaration order.
    """
    proj = {}
    for a in G.arrows:
        if a in proj:
            continue
        y = G.tgt[a]
        coset = [G.comp(a, n) for n in G.arrows_between(y, y) if n in normal[y]]
        rep = min(coset, key=G.arr_index)
        for c in coset:
            if c in proj and proj[c] != rep:
                raise ValueError("normal family is not closed; cosets overlap")
            proj[c] = rep
    reps = tuple(a for a in G.arrows if proj[a] == a)
    comp = {}
    for a in reps:
        for b in G.arrows_from(G.tgt[a]):
            if proj[b] == b:
                comp[(a, b)] = proj[G.comp(a, b)]
    ident = {x: proj[G.ident[x]] for x in G.objects}
    inv = {a: proj[G.inv(a)] for a in reps}
    src = {a: G.src[a] for a in reps}
    tgt = {a: G.tgt[a] for a in reps}
    quot = FinGroupoid(G.objects, reps, src, tgt, comp, ident, inv, name=f"{G.name}/N")
    return quot, proj


def find_groupoid_iso(G: FinGroupoid, H: FinGroupoid):
    """Search for an isomorphism of groupoids.

    Returns (object map, arrow map) or None.  Components are matched by
    (object count, arrow count, vertex group order), then a vertex-group
    isomorphism at matched base objects is transported along spanning trees.
    """
    from .groups import find_group_iso

    comps_G, comps_H = list(G.components()), list(H.components())
    if len(G.objects) != len(H.objects) or len(G.arrows) != len(H.arrows):
        return None
    if len(comps_G) != len(comps_H):
        return None

    def invariant(K, comp):
        return (len(comp), len(K.vertex_group(comp[0])))

    used = [False] * len(comps_H)
    obj_map, arr_map = {}, {}

    def match_component(cg):
        base = cg[0]
        VG = G.vertex_group(base)
        for j, ch in enumerate(comps_H):
            if used[j] or invariant(G, cg) != invariant(H, ch):
                continue
            VH = H.vertex_group(ch[0])
            phi = find_group_iso(VG, VH)
            if phi is None:
                continue
            used[j] = True
            tree_G = {x: min(G.arrows_between(base, x), key=G.arr_index) for x in cg}
            tree_H = {y: min(H.arrows_between(ch[0], y), key=H.arr_index) for y in ch}
            for x, y in zip(cg, ch):
                obj_map[x] = y
            for x in cg:
                for z in cg:
                    for a in G.arrows_between(x, z):
                        loop = G.comp(G.comp(tree_G[x], a), G.inv(tree_G[z]))
                        img_loop = phi[loop]
                        arr_map[a] = H.comp(
                            H.comp(H.inv(tree_H[obj_map[x]]), img_loop), tree_H[obj_map[z]]
                        )
            return True
        return False

    for cg in comps_G:
        if not match_component(cg):
            return None
    for (a, b), ab in G.comp_table.items():
        if arr_map[ab] != H.comp(arr_map[a], arr_map[b]):
            return None
    if len(set(arr_map.values())) != len(H.arrows):
        return None
    return obj_map, arr_map
