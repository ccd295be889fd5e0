"""Homotopies of colourings, freely presented on cells.

A k-fold homotopy targeting a colouring f is given by one value per
generator: an arrow into f0(v) at a vertex v (k=1), an element of
A_{1+k} based at the image of the target vertex at an edge, and an element
of A_{i+k} based at the image of the leading vertex at an i-generator,
i >= 2.  Levels with i+k above the truncation carry identities and are not
stored.  `HomotopySequence.values` maps each generator to its value, the
same shape as `Colouring.values`, and one key function serves both.

The derived operations are evaluated on keys only: a colouring and a
homotopy are both held by their `colouring_key`, the value index at each
generator position.  Where a key's values lie is read from the `Plan` of
(X, A), never from the simplicial set: the positions, levels and base
positions of a k-fold homotopy's values (`Plan.layout`), the end positions
of each edge (`Plan.ends`) and each cell's homotopy addition word on key
positions (`Plan.terms`), all compiled once per plan, with the integer
tables of `Plan._ops`.  There is one evaluator for each derived operation:
`_Moves.mover` gives the other end of a homotopy with values at a set of
positions (identities elsewhere), rewriting only those positions and their
star; `_delta2` gives the boundary of a 2-fold homotopy; `_compose_keys`
composes two 1-fold homotopies cell by cell and `_invert_key` inverts one.
`crs_pi1` walks the colourings as keys (`Plan.keys`), composes keys only for
orbits and for each arrow's loop at its component's root, and reads its
table from the vertex groups' products (`_vertex_products`).  The moves are
compiled once per plan (`Plan.moves`) and shared by `crs_pi1`, `rel_classes`
and `extprof.cobordism_profunctor`.
The public `apply_homotopy`, `compose_homotopies`, `invert_homotopy` and
`delta2` check their arguments, compile a plan per call, encode, evaluate
on keys and decode; `_sequence` decodes a key into values where a
`HomotopySequence` is read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .colouring import Colouring, Plan, as_plan, colouring_key
from .finalg.crossed import CrossedComplex
from .finalg.groupoids import FinGroupoid, partition
from .finalg.groups import _generating_sequence


@dataclass
class HomotopySequence:
    k: int
    target: Colouring
    values: dict  # generator -> value, for each generator g with dim(g) + k <= truncation

    def key(self):
        return colouring_key(self.target.X, self.target.A, self.values, self.k)

    def as_dict(self):
        X = self.target.X
        values: dict = {}
        for g, v in sorted(self.values.items(), key=lambda gv: X.dim_of[gv[0]]):
            i = X.dim_of[g]
            values.setdefault(str(i), {})[str(g)] = str(v if i + self.k == 1 else v[1])
        return {"k": self.k, "target": list(self.target.key()), "values": values}

    def __repr__(self):
        return f"HomotopySequence(k={self.k}, values={self.values})"


def apply_homotopy(H: HomotopySequence, f: Colouring) -> Colouring:
    """The other end of a 1-fold homotopy targeting f."""
    if H.k != 1:
        raise ValueError("only 1-fold homotopies connect colourings")
    if f is not H.target and f.values != H.target.values:
        raise ValueError("homotopy does not target this colouring")
    plan = Plan(f.X, f.A)
    other = plan.moves.everywhere(colouring_key(plan.X, f.A, f.values), H.key())
    return Colouring(f.X, f.A, plan._decode(other))


def compose_homotopies(first: HomotopySequence, second: HomotopySequence) -> HomotopySequence:
    """Composite of the arrows `first` then `second` (both 1-fold).

    `first` runs f'' -> f', `second` runs f' -> f; the composite targets f.
    """
    if first.k != 1 or second.k != 1:
        raise ValueError("only 1-fold homotopies compose")
    f = second.target
    plan = Plan(f.X, f.A)
    hk = second.key()
    source = plan.moves.everywhere(colouring_key(plan.X, f.A, f.values), hk)
    if first.target.values != plan._decode(source):
        raise ValueError("homotopies are not composable")
    return _sequence(plan, f, _compose_keys(_compose_tables(plan), first.key(), hk))


def invert_homotopy(H: HomotopySequence) -> HomotopySequence:
    """The inverse arrow: targets the source of H."""
    src = apply_homotopy(H, H.target)
    plan = Plan(src.X, src.A)
    return _sequence(plan, src, _invert_key(_compose_tables(plan), H.key()))


def delta2(H2: HomotopySequence) -> HomotopySequence:
    """Boundary of a 2-fold homotopy: an endo-arrow at its target."""
    if H2.k != 2:
        raise ValueError("expected a 2-fold homotopy")
    f = H2.target
    plan = Plan(f.X, f.A)
    return _sequence(plan, f, _delta2(plan)(colouring_key(plan.X, f.A, f.values), H2.key()))


def _sequence(plan: Plan, f: Colouring, key: tuple) -> HomotopySequence:
    """The 1-fold homotopy targeting f whose key is `key`."""
    gens, A = plan.X.all_gens(), plan.A
    values = {}
    for p, n, base in plan.layout(1):
        if n == 1:
            values[gens[p]] = A.base.arrows[key[p]]
        else:
            x = f.values[gens[base]]
            values[gens[p]] = (x, A.fibre(n, x).elements[key[p]])
    return HomotopySequence(1, f, values)


# -- homotopies on keys ------------------------------------------------------------


def _compose_tables(plan: Plan) -> tuple:
    """(vertices, comp, inv, higher, tail): what `_compose_keys` and `_invert_key` read.

    The key of a 1-fold homotopy on plan.X (`Plan.layout` with k = 1)
    holds an arrow index at each of the first `vertices` positions, then a
    fibre index at each position whose values lie at a level
    2..truncation, then the zeros `tail` of the positions above.  `higher`
    lists (position, base position, mul, act, finv) for the middle
    positions in order: `mul[a]` and `finv[a]` are the product and inverse
    tables of the level's fibre at the target of the arrow a, and `act` the
    level's action (`Plan._ops`).  `comp` and `inv` are the level-1 tables.
    """
    ops, layout = plan._ops, plan.layout(1)
    by_arrow = {
        n: ([ops.mul[n][t] for t in ops.tgt], ops.act[n], [ops.finv[n][t] for t in ops.tgt])
        for n in ops.mul
    }
    higher = [(p, base, *by_arrow[n]) for p, n, base in layout if n >= 2]
    vertices = len(layout) - len(higher)
    return vertices, ops.comp, ops.inv, higher, (0,) * (len(plan.base) - len(layout))


def _compose_keys(tables: tuple, first: tuple, second: tuple) -> tuple:
    """The key of the composite of `first` then `second`, given the keys of a composable pair.

    `tables` is `_compose_tables` of the plan.  At a vertex the arrows compose;
    at a higher generator g with base vertex y the value is
    second(g) . (first(g) <| second(y)), as `compose_homotopies` defines it.
    """
    vertices, comp, _, higher, tail = tables
    out = [comp[first[p]][second[p]] for p in range(vertices)]
    for p, y, mul, act, _ in higher:
        a = second[y]
        out.append(mul[a][second[p]][act[a][first[p]]])
    return (*out, *tail)


def _invert_key(tables: tuple, key: tuple) -> tuple:
    """The key of the inverse of the 1-fold homotopy with key `key`.

    `tables` is `_compose_tables` of the plan.  At a vertex the arrow is
    inverted; at a higher generator g with base vertex y the value is
    h(g)^-1 <| h(y)^-1, so that the inverse composes with h to identities.
    """
    vertices, _, inv, higher, tail = tables
    out = [inv[key[p]] for p in range(vertices)]
    for p, y, _, act, finv in higher:
        a = key[y]
        out.append(act[inv[a]][finv[a][key[p]]])
    return (*out, *tail)


def _homotopy_slots(plan: Plan, k: int) -> list:
    """[(base position, domains, identities)]: the k-fold homotopies on plan.X, by `Plan.layout`.

    A k-fold homotopy targeting the colouring with key f takes, at each
    position of `plan.layout(k)`, with level n, a value index in
    domains[f[base]], listed in ascending order; identities[f[base]] is the
    identity there.  The key holds 0 at the positions after these.
    """
    ops = plan._ops
    into = [[] for _ in ops.ident]
    for a, t in enumerate(ops.tgt):
        into[t].append(a)
    return [
        (base, into, ops.ident) if n == 1 else (base, [range(len(inv)) for inv in ops.finv[n]], ops.unit[n])
        for _, n, base in plan.layout(k)
    ]


class _Moves:
    """The other ends of 1-fold homotopies on the colouring keys of one plan (`Plan.moves`).

    `mover(positions)` gives `move(key, h)`: the key of the other end of the
    1-fold homotopy that targets the colouring with key `key`, has the value
    index h[p] at each key position p of `positions` (h holds one at every
    one of them, as `colouring_key` with k = 1 indexes it) and identities
    elsewhere.  It evaluates the homotopy addition words on value indices
    with the tables of `Plan._ops`, and only where those values change the
    colouring: at the positions, at the edges with a vertex among them as
    an end, at the cells led by such a vertex and at the cells with one of
    them as a face (their star).  The stars are compiled once, each set of
    positions' mover on first use; no colouring or values dict is built.
    `everywhere` moves by a whole homotopy: its positions are all those
    below the truncation.  `generators` are the generating values of each
    slot's domain (`_move_generators`).
    """

    def __init__(self, plan: Plan):
        self._A, self._ops, self._edges = plan.A, plan._ops, plan.ends
        self._star = star = {p: set() for p, _, _ in plan.layout(1)}
        self._cells, self._movers = {}, {}
        for p, (s, t) in self._edges.items():
            for q in (s, t, p):
                if q in star:
                    star[q].add(p)
        for p, lead, m, terms in plan.terms:
            self._cells[p] = lead, m, terms
            for q in (lead, p, *(face for face, _, _, _ in terms)):
                if q in star:
                    star[q].add(p)

    def mover(self, positions):
        moved = frozenset(positions)
        move = self._movers.get(moved)
        if move is None:
            move = self._movers[moved] = self._compile(moved)
        return move

    @cached_property
    def everywhere(self):
        return self.mover(self._star)

    @cached_property
    def generators(self) -> tuple:
        return _move_generators(self._A, self._ops)

    def _compile(self, moved: frozenset):
        ops, star = self._ops, self._star
        comp, inv, src = ops.comp, ops.inv, ops.src
        vertices, edge_moves, cell_moves = [], [], []
        for p in sorted(moved.union(*(star[p] for p in moved))):
            if p in self._edges:
                s, t = self._edges[p]
                edge_moves.append((p, s, t, s in moved, t in moved, p in moved))
            elif p in self._cells:
                lead, m, terms = self._cells[p]
                finv = ops.finv[m]
                cell_moves.append((
                    p, lead, lead in moved, ops.mul[m], ops.act[m],
                    ops.bdry[m + 1] if p in moved else None,
                    [(face, base, finv if negative else None, twist)
                     for face, base, negative, twist in terms if face in moved],
                ))
            else:
                vertices.append(p)
        bdry2 = ops.bdry.get(2)

        def move(key, h):
            out = list(key)
            for p in vertices:
                out[p] = src[h[p]]
            for p, s, t, s_moved, t_moved, own in edge_moves:
                a = key[p]
                if own:
                    a = comp[a][bdry2[key[t]][h[p]]]
                if s_moved:
                    a = comp[h[s]][a]
                if t_moved:
                    a = comp[a][inv[h[t]]]
                out[p] = a
            for p, lead, lead_moved, mul, act, up, terms in cell_moves:
                x = key[lead]
                val, table = key[p], mul[x]
                for face, base, finv, twist in terms:
                    e = h[face] if finv is None else finv[key[base]][h[face]]
                    if twist is not None:
                        e = act[twist(key)][e]
                    val = table[val][e]
                if up is not None:
                    val = table[val][up[x][h[p]]]
                out[p] = act[inv[h[lead]]][val] if lead_moved else val
            return tuple(out)

        return move


def _delta2(plan: Plan):
    """(f, h) -> the key of the boundary of the 2-fold homotopy with key h at the colouring f.

    The boundary is a 1-fold homotopy at f.  At a vertex v it is the
    boundary of h(v) (an identity at truncation 1); at an edge e from s to
    t it is (h(s)^-1 <| f(e)) . h(t) . bdry h(e); at a cell c of dimension
    n < truncation it is bdry h(c) . W^((-1)^n), where W is the homotopy
    addition word of c evaluated at level n + 1 on the values of h, from
    the identity at the image of the leading vertex.  Terms above the
    truncation are identities; positions that hold no value hold 0.
    """
    ops, trunc = plan._ops, plan.A.truncation
    vertices = range(len(plan.X.gens(0)))
    edges = [(p, s, t) for p, (s, t) in plan.ends.items()] if trunc >= 2 else []
    cells = [
        (p, lead, ops.mul[n + 1], ops.unit[n + 1], ops.finv[n + 1], ops.act[n + 1],
         ops.bdry.get(n + 2), n % 2 == 1, terms)
        for p, lead, n, terms in plan.terms
        if n < trunc
    ]
    ident, bdry2, bdry3 = ops.ident, ops.bdry.get(2), ops.bdry.get(3)
    mul2, finv2, act2 = ops.mul.get(2), ops.finv.get(2), ops.act.get(2)

    def boundary(f, h):
        out = [0] * len(f)
        for p in vertices:
            out[p] = ident[f[p]] if bdry2 is None else bdry2[f[p]][h[p]]
        for p, s, t in edges:
            x = f[t]
            val = mul2[x][act2[f[p]][finv2[f[s]][h[s]]]][h[t]]
            out[p] = val if bdry3 is None else mul2[x][val][bdry3[x][h[p]]]
        for p, lead, mul, unit, finv, act, up, odd, terms in cells:
            x = f[lead]
            table, word = mul[x], unit[x]
            for face, base, negative, twist in terms:
                e = finv[f[base]][h[face]] if negative else h[face]
                if twist is not None:
                    e = act[twist(f)][e]
                word = table[word][e]
            if odd:
                word = finv[x][word]
            out[p] = table[unit[x] if up is None else up[x][h[p]]][word]
        return tuple(out)

    return boundary


# -- the extended groupoid ------------------------------------------------------


class CrsResult:
    """The groupoid of colourings and 2-fold classes of homotopies.

    Objects are colourings of X (canonical order); arrows are equivalence
    classes of homotopies under right composition with boundaries of 2-fold
    homotopies.  Arrow ids are triples (source index, target index, class
    representative key).  `keys` holds the colourings' keys, `delta_keys[t]`
    the distinct keys of boundaries of 2-fold homotopies at the object t, and
    `colourings`, `arrow_reps` and `deltas` are decoded from them when read.
    `tables` is `_compose_tables` of the plan.
    """

    def __init__(self, plan: Plan, keys: list, groupoid: FinGroupoid, delta_keys: dict, tables: tuple):
        self.X, self.A, self._plan, self._tables = plan.X, plan.A, plan, tables
        self.keys, self.groupoid, self.delta_keys = keys, groupoid, delta_keys
        self._index = {k: i for i, k in enumerate(keys)}
        self._by_key = {(a[1], a[2]): a for a in groupoid.arrows}

    @cached_property
    def colourings(self) -> list:
        return [Colouring(self.X, self.A, self._plan._decode(k)) for k in self.keys]

    @cached_property
    def arrow_reps(self) -> dict:
        return {a: _sequence(self._plan, self.colourings[a[1]], a[2]) for a in self.groupoid.arrows}

    @cached_property
    def deltas(self) -> dict:
        plan, cols = self._plan, self.colourings
        return {t: [_sequence(plan, cols[t], k) for k in keys] for t, keys in self.delta_keys.items()}

    def colouring_index(self, col: Colouring) -> int:
        return self._index[col.key()]

    def components(self):
        return self.groupoid.components()

    def class_of_arrow(self, H: HomotopySequence):
        """The groupoid arrow represented by the homotopy H."""
        tgt = self.colouring_index(H.target)
        hk = H.key()
        rep = min(_compose_keys(self._tables, hk, dk) for dk in self.delta_keys[tgt])
        return self._by_key[(tgt, rep)]


def crs_pi1(X, A: CrossedComplex) -> CrsResult:
    """Colourings, homotopies up to 2-fold homotopy, as a finite groupoid.

    X is a `SimpSet` or a `Stratification`.  Colourings and homotopies are
    held by their keys: the 1-fold and 2-fold homotopies targeting a
    colouring are the product of their slots' index domains
    (`_homotopy_slots`), in ascending order.  The boundary of each 2-fold
    homotopy is one `_delta2`, the other end of each new arrow one move
    (`_Moves.everywhere`), and each member of an arrow's orbit under the
    boundaries one `_compose_keys`; identities are keys too.  The table and
    the inverses come from the vertex groups (`_vertex_products`).
    """
    plan = Plan(X, A)
    fkeys = plan.keys()
    index = {k: i for i, k in enumerate(fkeys)}
    tables = _compose_tables(plan)
    ones, twos = _homotopy_slots(plan, 1), _homotopy_slots(plan, 2)
    boundary, move, size = _delta2(plan), plan.moves.everywhere, len(plan.base)

    def homotopies(slots, f):  # the key holds 0 after the slots
        return product(*(dom[f[y]] for y, dom, _ in slots), *[(0,)] * (size - len(slots)))

    delta_keys = {ti: list(dict.fromkeys(boundary(f, h) for h in homotopies(twos, f)))
                  for ti, f in enumerate(fkeys)}
    arrows = []
    classes = [{} for _ in fkeys]  # target index -> {homotopy key: arrow index}
    for ti, f in enumerate(fkeys):
        for hk in homotopies(ones, f):
            if hk in classes[ti]:
                continue
            keys = sorted(_compose_keys(tables, hk, dk) for dk in delta_keys[ti])
            for k in keys:
                classes[ti][k] = len(arrows)
            arrows.append((index[move(f, hk)], ti, keys[0]))
    pad = (0,) * (size - len(ones))
    ident_keys = [(*(u[f[y]] for y, _, u in ones), *pad) for f in fkeys]
    ident = [classes[ti][k] for ti, k in enumerate(ident_keys)]
    products, inv = _vertex_products(tables, arrows, classes, ident)
    G = FinGroupoid(
        range(len(fkeys)), arrows, {a: a[0] for a in arrows}, {a: a[1] for a in arrows},
        products, {ti: arrows[i] for ti, i in enumerate(ident)},
        {a: arrows[i] for a, i in zip(arrows, inv)}, name=f"pi1CRS({plan.X.name})",
    )
    return CrsResult(plan, fkeys, G, delta_keys, tables)


def _vertex_products(tables: tuple, arrows: list, classes: list, ident: list) -> tuple:
    """(products, inv): the table and the inverses of `crs_pi1`'s groupoid, on arrow indices.

    A connected groupoid is its vertex group times a tree groupoid (Higgins,
    Categories and Groupoids, 1971).  In each component, with root r its
    least object, t_x is the first arrow from r to x (the identity at r), as
    in `FinGroupoid.generators`.  Each arrow a: x -> y is written once as
    its loop g_a = t_x . a . t_y^-1 at r (a `_compose_keys` for each tree
    arrow that is not the identity, and a class lookup), and
    a . b = t_x^-1 . (g_a . g_b) . t_z for b: y -> z is the
    arrow from x to z whose loop is g_a . g_b in the vertex group's table.
    `products[i]` lists the composites of the arrow of index i with each
    arrow out of its target, in arrow order (`FinGroupoid.products`), and
    `inv[i]` is the arrow from y to x whose loop is g_a^-1.  `classes[t]`
    maps each homotopy key targeting the object t to its arrow's index, and
    `ident[t]` is the identity's index.
    """
    leaving = [[] for _ in classes]
    for i, (s, _, _) in enumerate(arrows):
        leaving[s].append(i)
    root, tree, loops, place = {}, {}, {}, {}  # place: a loop at a root -> its position there
    for r, out in enumerate(leaving):
        if r in root:
            continue
        # r is the least object of its component, and its arrows reach every object there
        for i in reversed(out):
            root[arrows[i][1]], tree[arrows[i][1]] = r, i
        tree[r] = ident[r]
        loops[r] = [i for i in out if arrows[i][1] == r]
        place.update((i, p) for p, i in enumerate(loops[r]))

    back = {x: _invert_key(tables, arrows[tree[x]][2]) for x, r in root.items() if x != r}
    loop, by_loop = [], [{} for _ in classes]  # by_loop[x][z][g]: the arrow x -> z with loop g
    for i, (s, t, key) in enumerate(arrows):
        r = root[s]
        if s != r:  # the identity at r leaves a class as it is
            key = _compose_keys(tables, arrows[tree[s]][2], key)
        if t != r:
            key = _compose_keys(tables, key, back[t])
        loop.append(place[classes[r][key]])
        by_loop[s].setdefault(t, [None] * len(loops[r]))[loop[i]] = i
    vmul = {
        r: [[place[classes[r][_compose_keys(tables, arrows[i][2], arrows[j][2])]] for j in members]
            for i in members]
        for r, members in loops.items()
    }
    outs = [[(arrows[j][1], loop[j]) for j in out] for out in leaving]
    products, inv = [], []
    for (s, t, _), g in zip(arrows, loop):
        row, to = vmul[root[s]][g], by_loop[s]
        products.append([to[z][row[h]] for z, h in outs[t]])
        inv.append(by_loop[t][s][row.index(place[ident[root[s]]])])
    return products, inv


# -- homotopies relative to a subcomplex -------------------------------------------


def _move_generators(A: CrossedComplex, ops) -> tuple:
    """(vertex, fibre): generating values of each slot domain, as value indices by object index.

    `vertex[x]`: the arrows of `A.base.generators` into the object of index
    x, that is generators of the vertex group at the least object of its
    component there, and the tree arrow from that object elsewhere.  Moves
    link both ways, so a filling reaches the least object's image by the
    tree arrow, the vertex group acts there and the tree arrow of any other
    object leads back out: every arrow into x is reached.  `fibre[n][x]`:
    generators of A_n at the object of index x, as fibre indices.  Orbits
    under generators of a finite group(oid) are its orbits, so the classes
    do not change.
    """
    base = A.base
    vertex = [[] for _ in A.objects]
    for a in base.generators:
        vertex[ops.obj[base.tgt[a]]].append(ops.arr[a])
    fibre = {
        n: [
            [ops.index[n][i][e] for e in _generating_sequence(A.fibre(n, x))]
            for i, x in enumerate(A.objects)
        ]
        for n in range(2, A.truncation + 1)
    }
    return vertex, fibre


def rel_classes(X, A: CrossedComplex, boundary_gens, fillings):
    """Partition of `fillings`, a sequence of colouring keys, under homotopies that fix `boundary_gens`.

    X is a `SimpSet`, a `Stratification` or a `Plan` of one for A.

    Fillings are linked by single-slot moves: homotopies with one
    non-identity value on one free generator and identities elsewhere.
    They give the same classes as all relative homotopies: `compose_homotopies`
    composes vertex values in the base groupoid and a higher slot as
    second(g) . (first(g) <| second_0(y)), so a relative homotopy factors
    into single-slot moves by peeling off its vertex slots, after which the
    higher slots compose untwisted, and every intermediate colouring agrees
    with the fillings on the boundary.  Moves at one slot compose as the
    slot's group (or, at a vertex, groupoid) does, so only the generating
    values of `_move_generators` are applied.  Each free slot's mover is
    compiled once per plan (`Plan.moves`), and a move rewrites the filling's
    key there with list lookups; no colouring is built.

    Returns (classes, class_of): classes are tuples of filling indices with
    the canonical minimum first; class_of maps a filling's key to its class
    index.
    """
    if not fillings:
        return (), {}
    plan = as_plan(X, A)
    gens = plan.X.all_gens()
    keys = {k: i for i, k in enumerate(fillings)}
    moves = plan.moves
    vertex_moves, fibre_moves = moves.generators
    slots = [
        (p, base, vertex_moves if n == 1 else fibre_moves[n], moves.mover((p,)))
        for p, n, base in plan.layout(1)
        if gens[p] not in boundary_gens
    ]

    def links():
        for i, key in enumerate(fillings):
            for p, base, values, move in slots:
                for h in values[key[base]]:
                    j = keys.get(move(key, {p: h}))
                    if j is None:
                        raise ValueError("internal homotopy left the filling set")
                    yield i, j

    classes = partition(len(fillings), links())
    class_of = {fillings[i]: ci for ci, members in enumerate(classes) for i in members}
    return classes, class_of
