"""Finite groupoids as explicit arrow tables.

The composition convention is concatenation: `comp(a, b)` is defined exactly
when `tgt(a) == src(b)` and is the arrow "a then b".
"""
from __future__ import annotations

from collections.abc import Mapping
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


class FinGroupoid:
    """A groupoid with its composition table on arrow indices.

    `products[i]` is the list of the indices of the composites of the arrow of
    index i with each arrow out of its target, in arrow order, None for a
    missing entry.  `comp` may be that list or a dict {(a, b): a then b}, which is
    converted once, here.  An entry of the dict with no place in `products`
    (a pair that does not compose, or a name that is not an arrow) is kept
    only for `validate` to report.  `comp_table` is a read-only view.
    """

    def __init__(self, objects, arrows, src, tgt, comp, ident, inv=None, name=""):
        self.objects = tuple(objects)
        self.arrows = tuple(arrows)
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.ident = dict(ident)
        self.name = name
        self._obj_index = {x: i for i, x in enumerate(self.objects)}
        self._arr_index = {a: i for i, a in enumerate(self.arrows)}
        self.products, self._strays = comp, []
        if isinstance(comp, Mapping):
            (outs, pos), at = self._outs, self._arr_index
            self.products = [[None] * len(outs.get(self.tgt.get(a), ())) for a in self.arrows]
            for (a, b), c in comp.items():
                i, j, k = at.get(a), at.get(b), at.get(c)
                if None in (i, j, k) or self.tgt.get(a) != self.src.get(b):
                    self._strays.append((a, b, c))
                else:
                    self.products[i][pos[j]] = k
        self.inv_table = dict(inv) if inv is not None else self._find_inverses()

    def _find_inverses(self):
        inv, table = {}, self.comp_table
        for a in self.arrows:
            x, y = self.src[a], self.tgt[a]
            for b in self.arrows_between(y, x):
                if table.get((a, b)) == self.ident.get(x) and table.get((b, a)) == self.ident.get(y):
                    inv[a] = b
                    break
        return inv

    @cached_property
    def _outs(self) -> tuple:
        """(outs, pos): source -> the indices of the arrows out of it, in arrow order, and
        pos[j], the place of arrows[j] among the arrows out of its source."""
        outs, pos = {}, []
        for b in self.arrows:
            js = outs.setdefault(self.src.get(b), [])
            pos.append(len(js))
            js.append(len(pos) - 1)
        return {x: tuple(js) for x, js in outs.items()}, pos

    @property
    def comp_table(self) -> Mapping:
        """{(a, b): a then b}, a read-only view of `products` in arrow-major order."""
        return _TableView(self)

    def comp_rows(self) -> list:
        """The table as rows (i, js, ks) of arrow indices, one per arrow, in arrow order: the
        entries arrows[i] then arrows[js[p]] = arrows[ks[p]], with js the arrows out of the
        target of arrows[i] and ks = `products[i]`."""
        outs, tgt, rows = self._outs[0], self.tgt, zip(self.arrows, self.products)
        return [(i, outs.get(tgt.get(a), ()), ks) for i, (a, ks) in enumerate(rows)]

    def entries(self):
        """The entries (a, b, a then b) of the table, in arrow-major order."""
        ids = self.arrows
        for i, js, ks in self.comp_rows():
            yield from ((ids[i], ids[j], ids[k]) for j, k in zip(js, ks) if k is not None)

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
        """a then b, read from `products`; KeyError if they do not compose or the entry is missing."""
        if self.tgt[a] == self.src[b]:
            k = self.products[self._arr_index[a]][self._outs[1][self._arr_index[b]]]
            if k is not None:
                return self.arrows[k]
        raise KeyError((a, b))

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

    def validate_names(self) -> ValidationReport:
        """The first checks of `validate`: ids are unique, arrows end at objects, and the
        tables name only arrows."""
        for kind, ids, at in (("object", self.objects, self._obj_index), ("arrow", self.arrows, self._arr_index)):
            if len(at) != len(ids):
                # the index keeps the last place of an id, so the first repeated one is off it
                first = next(x for i, x in enumerate(ids) if at[x] != i)
                return ValidationReport.malformed(f"{kind} id given twice", (first,))
        objs = set(self.objects)
        for a in self.arrows:
            if self.src.get(a) not in objs or self.tgt.get(a) not in objs:
                return ValidationReport.malformed("dangling arrow endpoints", (a,))
        arrows = set(self.arrows)
        for a, b, c in self._strays:
            if not {a, b, c} <= arrows:
                return ValidationReport.malformed("composition names an unknown arrow", (a, b, c))
        for a, b in self.inv_table.items():
            if not {a, b} <= arrows:
                return ValidationReport.malformed("inverse names an unknown arrow", (a, b))
        return ValidationReport.passed()

    def validate(self) -> ValidationReport:
        report = self.validate_names()
        if not report:
            return report
        for x in self.objects:
            e = self.ident.get(x)
            if e is None or self.src.get(e) != x or self.tgt.get(e) != x:
                return ValidationReport.malformed("missing or misplaced identity", (x,))
        ids, prod, (outs, pos), table = self.arrows, self.products, self._outs, self.comp_table
        src, tgt = [self.src[a] for a in ids], [self.tgt[a] for a in ids]
        # pairs (i, j) out of place: a stray entry, a missing one, or a composite with wrong ends
        faults = [(self.arr_index(a), self.arr_index(b)) for a, b, _ in self._strays]
        for i, row in enumerate(prod):
            ends = zip(outs[tgt[i]], row)
            faults += [(i, j) for j, k in ends if k is None or src[k] != src[i] or tgt[k] != tgt[j]]
        if faults:
            a, b = (ids[i] for i in min(faults))
            c = table.get((a, b))
            if c is None:
                return ValidationReport.malformed("composition defined iff tgt=src", (a, b))
            return ValidationReport.axiom("composite endpoints wrong", (a, b, c))
        for i, a in enumerate(ids):
            if table[(self.ident[src[i]], a)] != a or table[(a, self.ident[tgt[i]])] != a:
                return ValidationReport.axiom("identity is not a two-sided unit", (a,))
        for i, a in enumerate(ids):
            b = self.inv_table.get(a)
            if b is None:
                return ValidationReport.axiom("arrow has no two-sided inverse", (a,))
            if table.get((a, b)) != self.ident[src[i]] or table.get((b, a)) != self.ident[tgt[i]]:
                return ValidationReport.axiom("inverse table wrong", (a, b))
        for i, row in enumerate(prod):
            for j, ij in zip(outs[tgt[i]], row):
                # (i.j).k against i.(j.k), for each k out of tgt j, in that order
                right = [row[pos[jk]] for jk in prod[j]]
                if prod[ij] != right:  # also when rows are tuples: then compare entry by entry
                    q = next((q for q, (u, v) in enumerate(zip(prod[ij], right)) if u != v), None)
                    if q is not None:
                        k = outs[tgt[j]][q]
                        return ValidationReport.axiom("associativity fails", (ids[i], ids[j], ids[k]))
        return ValidationReport.passed()

    def __repr__(self):
        return f"FinGroupoid({self.name or ''}, {len(self.objects)} objects, {len(self.arrows)} arrows)"


class _TableView(Mapping):
    """A groupoid's table {(a, b): a then b}, read from its `products`: keys in
    arrow-major order, lookups through `comp`."""

    def __init__(self, G: FinGroupoid):
        self._G = G

    def __getitem__(self, key):
        return self._G.comp(*key)

    def __len__(self):
        return sum(len(row) - row.count(None) for row in self._G.products)

    def __iter__(self):
        return ((a, b) for a, b, _ in self._G.entries())


def groupoid_from_group(G: FinGroup, obj="*") -> FinGroupoid:
    """The one-object groupoid carrying G, with compose(a, b) = a*b."""
    src = {a: obj for a in G.elements}
    products = [[G.index(G.mul(a, b)) for b in G.elements] for a in G.elements]
    ident = {obj: G.unit}
    inv = {a: G.inv(a) for a in G.elements}
    return FinGroupoid((obj,), G.elements, src, dict(src), products, ident, inv, name=G.name)


def pair_groupoid(k: int) -> FinGroupoid:
    """Objects 1..k with exactly one arrow between each ordered pair."""
    objects = tuple(range(1, k + 1))
    arrows = tuple((x, y) for x in objects for y in objects)
    src = {(x, y): x for (x, y) in arrows}
    tgt = {(x, y): y for (x, y) in arrows}
    # (x, y) then (y, z) is (x, z), the arrow of index (x - 1) * k + z - 1
    products = [[(x - 1) * k + z - 1 for z in objects] for (x, y) in arrows]
    ident = {x: (x, x) for x in objects}
    inv = {(x, y): (y, x) for (x, y) in arrows}
    return FinGroupoid(objects, arrows, src, tgt, products, ident, inv, name=f"I({k})")


def validate_left_action(G: FinGroup, points, act) -> ValidationReport:
    """Whether `act` {(g, x): g.x} is a left action of G on `points`.

    h.(g.x) = (hg).x is checked for g over a generating sequence only: if it
    holds for g' and for a generator s, then h.(g's.x) = h.(g'.(s.x)) =
    (hg').(s.x) = (hg's).x.  When a generator fails, every g is scanned, so
    the witness is the first failing (g, h, x) in element order.
    """
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

    def first_fault(gs):
        for g in gs:
            for h in G.elements:
                for x in points:
                    if act[(h, act[(g, x)])] != act[(G.mul(h, g), x)]:
                        return (g, h, x)
        return None

    if first_fault(_generating_sequence(G)) is not None:
        return ValidationReport.axiom("action not compatible with product", first_fault(G.elements))
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
    # the arrow of index i is (x, g) with x the point of index i // n; (x, g)(g.x, h) = (x, hg)
    n = len(G.elements)
    left = [[G.index(G.mul(h, g)) for h in G.elements] for g in G.elements]  # left[j]: the h.g, g of index j
    products = [[i // n * n + k for k in left[i % n]] for i in range(len(arrows))]
    ident = {x: (x, G.unit) for x in points}
    inv = {(x, g): (tgt[(x, g)], G.inv(g)) for (x, g) in arrows}
    return FinGroupoid(points, arrows, src, tgt, products, ident, inv, name=f"{G.name}-action")


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
    at = {a: i for i, a in enumerate(reps)}
    products = [[at[proj[G.comp(a, b)]] for b in G.arrows_from(G.tgt[a]) if b in at] for a in reps]
    ident = {x: proj[G.ident[x]] for x in G.objects}
    inv = {a: proj[G.inv(a)] for a in reps}
    src = {a: G.src[a] for a in reps}
    tgt = {a: G.tgt[a] for a in reps}
    quot = FinGroupoid(G.objects, reps, src, tgt, products, ident, inv, name=f"{G.name}/N")
    return quot, proj


def _composer(K: FinGroupoid):
    """(i, j) -> the index of arrows[i] then arrows[j], read from `products`; KeyError as `comp`."""
    products, pos, at = K.products, K._outs[1], K._obj_index
    src = [at.get(K.src[a]) for a in K.arrows]
    tgt = [at.get(K.tgt[a]) for a in K.arrows]

    def compose(i, j):
        if tgt[i] != src[j] or (k := products[i][pos[j]]) is None:
            raise KeyError((K.arrows[i], K.arrows[j]))
        return k

    return compose


def find_groupoid_iso(G: FinGroupoid, H: FinGroupoid):
    """Search for an isomorphism of groupoids.

    Returns (object map, arrow map) or None.  Components are matched by
    (object count, arrow count, vertex group order), then a vertex-group
    isomorphism at matched base objects is transported along spanning trees.
    The arrows are composed, and the map checked on every entry of G's
    table, on arrow indices.
    """
    from .groups import find_group_iso

    comps_G, comps_H = list(G.components()), list(H.components())
    if len(G.objects) != len(H.objects) or len(G.arrows) != len(H.arrows):
        return None
    if len(comps_G) != len(comps_H):
        return None

    def invariant(K, comp):
        return (len(comp), len(K.arrows_between(comp[0], comp[0])))

    used = [False] * len(comps_H)
    obj_map, arr_map = {}, {}
    at_G, at_H = G._arr_index, H._arr_index
    comp_G, comp_H = _composer(G), _composer(H)
    image = [None] * len(G.arrows)  # the arrow map on indices

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
            phi = {at_G[a]: at_H[b] for a, b in phi.items()}
            tree_G = {x: min(G.arrows_between(base, x), key=G.arr_index) for x in cg}
            tree_H = {y: min(H.arrows_between(ch[0], y), key=H.arr_index) for y in ch}
            for x, y in zip(cg, ch):
                obj_map[x] = y
            into_G = {x: at_G[t] for x, t in tree_G.items()}
            out_of_G = {x: at_G[G.inv(t)] for x, t in tree_G.items()}
            into_H = {y: at_H[t] for y, t in tree_H.items()}
            out_of_H = {y: at_H[H.inv(t)] for y, t in tree_H.items()}
            for x in cg:
                for z in cg:
                    for a in G.arrows_between(x, z):
                        i = at_G[a]
                        loop = comp_G(comp_G(into_G[x], i), out_of_G[z])
                        k = comp_H(comp_H(out_of_H[obj_map[x]], phi[loop]), into_H[obj_map[z]])
                        image[i] = k
                        arr_map[a] = H.arrows[k]
            return True
        return False

    for cg in comps_G:
        if not match_component(cg):
            return None
    for i, js, ks in G.comp_rows():
        for j, k in zip(js, ks):
            if k is not None and image[k] != comp_H(image[i], image[j]):
                return None
    if len(set(image)) != len(H.arrows):
        return None
    return obj_map, arr_map
