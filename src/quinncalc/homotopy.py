"""Homotopies of colourings, freely presented on cells.

A k-fold homotopy targeting a colouring f is given by one value per
generator: an arrow into f0(v) at a vertex v (k=1), an element of
A_{1+k} based at the image of the target vertex at an edge, and an element
of A_{i+k} based at the image of the leading vertex at an i-generator,
i >= 2.  Levels with i+k above the truncation carry identities and are not
stored.  `HomotopySequence.values` maps each generator to its value, the
same shape as `Colouring.values`, and one key function serves both.

The derived operations (the other end of a homotopy, composition,
inversion, and the boundary of a 2-fold homotopy) are evaluated directly on
these cell values, extending along the homotopy addition words by the
derivation rule at level one and by equivariant homomorphisms above.  Every
such word is read from the terms that a `Plan` of (X, A) compiles once:
`_apply` gives the other end and `_delta2` the boundary, and the public
`apply_homotopy`, `compose_homotopies`, `invert_homotopy` and `delta2` check
their arguments and compile a plan per call.  `crs_pi1` and `holonomy_act`
evaluate `_apply` on one plan per call, however many homotopies they apply.
A homotopy with values on a few slots only needs no values dict:
`_key_movers` evaluates the same terms on the key of the colouring, with the
integer tables of the plan, and rewrites only the slots and their star.
`rel_classes` moves fillings by one slot at a time this way, and
`extprof.cobordism_profunctor` transports them along boundary homotopies.
Composition needs no word: `_compose_keys` composes two 1-fold homotopies on
their keys, cell by cell, with the integer tables of `Plan.key_tables`, and
`_sequence` decodes a key into values when a `HomotopySequence` is wanted.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .colouring import Colouring, Plan, as_plan, as_simpset, colouring_key
from .finalg.crossed import CrossedComplex
from .finalg.groupoids import FinGroupoid, partition
from .finalg.groups import _generating_sequence
from .simpset import SimpSet


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


def _base_vertex(X: SimpSet, g):
    """The vertex over whose image a homotopy value at the generator g lies.

    A vertex is its own base, an edge is based at its target vertex d0, and
    a higher generator at its leading vertex.
    """
    i = X.dim_of[g]
    if i == 0:
        return g
    if i == 1:
        return X.face(g, 0).core
    return X.initial_vertex(g)


def _identity(f: Colouring, g, k: int):
    """The identity value of a k-fold homotopy targeting f at the generator g.

    It lies at level dim(g) + k: an identity arrow at level one, an identity
    element above.
    """
    n = f.X.dim_of[g] + k
    x = f.values[_base_vertex(f.X, g)]
    return f.A.base.ident[x] if n == 1 else f.A.identity_elem(n, x)


def sequence_domains(X: SimpSet, A: CrossedComplex, f: Colouring, k: int, fixed_identity=()):
    """(generator, value domain) pairs of the k-fold homotopies targeting f.

    Generators in `fixed_identity` are pinned to identity values (used for
    homotopies relative to a subcomplex).
    """
    fixed_identity = set(fixed_identity)
    domains = []
    for g in X.all_gens():
        n = X.dim_of[g] + k
        if n > A.truncation:
            continue  # implicit identity
        base = f.values[_base_vertex(X, g)]
        if g in fixed_identity:
            dom = (_identity(f, g, k),)
        elif n == 1:
            dom = A.base.arrows_into(base)
        else:
            dom = tuple((base, e) for e in A.fibre(n, base).elements)
        domains.append((g, dom))
    return domains


def expand_sequence(seq: HomotopySequence, X: SimpSet, target: Colouring) -> HomotopySequence:
    """The k-fold homotopy targeting `target` with the values of `seq`, identities elsewhere.

    Only generators with i + k <= truncation get a slot; values of `seq` on
    generators outside X are dropped.
    """
    k = seq.k
    values = {}
    for g in X.all_gens():
        if X.dim_of[g] + k > target.A.truncation:
            continue
        v = seq.values.get(g)
        values[g] = _identity(target, g, k) if v is None else v
    return HomotopySequence(k, target, values)


def identity_sequence(f: Colouring, k: int = 1) -> HomotopySequence:
    return expand_sequence(HomotopySequence(k, f, {}), f.X, f)


def enumerate_sequences(X, A, f: Colouring, k: int):
    """All k-fold homotopies targeting f, in canonical order; X may be a `Stratification`."""
    X = as_simpset(X)
    slots = sequence_domains(X, A, f, k)
    gens = [g for g, _ in slots]
    return [
        HomotopySequence(k, f, dict(zip(gens, combo)))
        for combo in product(*(dom for _, dom in slots))
    ]


def apply_homotopy(H: HomotopySequence, f: Colouring) -> Colouring:
    """The other end of a 1-fold homotopy targeting f."""
    if H.k != 1:
        raise ValueError("only 1-fold homotopies connect colourings")
    if f is not H.target and f.values != H.target.values:
        raise ValueError("homotopy does not target this colouring")
    return Colouring(f.X, f.A, _apply(Plan(f.X, f.A), f.values, H.values))


def _arrow(comp: dict, reads, f: dict):
    """The composite of the edge values that `reads` give on f; None when there are none."""
    out = None
    for key, table in reads:
        a = f[key] if table is None else table[f[key]]
        out = a if out is None else comp[out, a]
    return out


def _term(A: CrossedComplex, n: int, h, sign: int, arrow):
    """h^sign acted on by arrow (if any), at level n."""
    if sign < 0:
        h = A.inv_elem(n, h)
    return h if arrow is None else A.act_elem(n, h, arrow)


def _apply(plan: Plan, f: dict, h: dict) -> dict:
    """`apply_homotopy` on the compiled terms: the values of the other end of h, which targets f.

    `h` holds a value on every generator of dimension below the truncation,
    as `HomotopySequence.values` does; nothing is checked.
    """
    X, A = plan.X, plan.A
    comp, inv = A.base.comp_table, A.base.inv_table
    out = {v: A.base.src[h[v]] for v in X.gens(0)}
    for e in X.gens(1):
        s, t = X.edge_ends(e)
        mid = f[e] if e not in h else comp[f[e], A.bdry_of(2, h[e])]
        out[e] = comp[comp[h[s], mid], inv[h[t]]]
    for c, terms in plan.terms.items():
        n = X.dim_of[c]
        val = f[c]
        for face, sign, reads in terms:
            val = A.mul(n, val, _term(A, n, h[face], sign, _arrow(comp, reads, f)))
        if c in h:
            val = A.mul(n, val, A.bdry_of(n + 1, h[c]))
        out[c] = A.act_elem(n, val, inv[h[plan.lead[c]]])
    return out


def compose_homotopies(first: HomotopySequence, second: HomotopySequence) -> HomotopySequence:
    """Composite of the arrows `first` then `second` (both 1-fold).

    `first` runs f'' -> f', `second` runs f' -> f; the composite targets f.
    """
    if first.k != 1 or second.k != 1:
        raise ValueError("only 1-fold homotopies compose")
    f = second.target
    plan = Plan(f.X, f.A)
    if first.target.values != _apply(plan, f.values, second.values):
        raise ValueError("homotopies are not composable")
    return _sequence(plan, f, _compose_keys(_compose_tables(plan), first.key(), second.key()))


def _compose_tables(plan: Plan) -> tuple:
    """(vertices, comp, higher, tail): what `_compose_keys` reads, for 1-fold homotopies on plan.X.

    The key of a 1-fold homotopy (`colouring_key` with k = 1) holds an arrow
    index at each of the first `vertices` positions, then a fibre index at
    each generator whose values lie at a level 2..truncation, then the zeros
    `tail` of the generators above.  `higher` lists (position, position of
    the base vertex, mul, act) for the middle positions in order, with the
    level's tables from `Plan.key_tables`; `comp` is its level-1 table.
    """
    X, A = plan.X, plan.A
    comp, act, mul = plan.key_tables
    pos = {g: p for p, g in enumerate(X.all_gens())}
    higher = [
        (pos[g], pos[_base_vertex(X, g)], mul[n], act[n])
        for g in X.all_gens()
        if 2 <= (n := X.dim_of[g] + 1) <= A.truncation
    ]
    vertices = len(X.gens(0))
    return vertices, comp, higher, (0,) * (len(pos) - vertices - len(higher))


def _compose_keys(tables: tuple, first: tuple, second: tuple) -> tuple:
    """The key of the composite of `first` then `second`, given the keys of a composable pair.

    `tables` is `_compose_tables` of the plan.  At a vertex the arrows compose;
    at a higher generator g with base vertex y the value is
    second(g) . (first(g) <| second(y)), as `compose_homotopies` defines it.
    """
    vertices, comp, higher, tail = tables
    out = [comp[first[p]][second[p]] for p in range(vertices)]
    for p, y, mul, act in higher:
        a = second[y]
        out.append(mul[a][second[p]][act[a][first[p]]])
    return (*out, *tail)


def _sequence(plan: Plan, f: Colouring, key: tuple) -> HomotopySequence:
    """The 1-fold homotopy targeting f whose key is `key`."""
    X, A = plan.X, plan.A
    values = {}
    for g, i in zip(X.all_gens(), key):
        n = X.dim_of[g] + 1
        if n == 1:
            values[g] = A.base.arrows[i]
        elif n <= A.truncation:
            x = f.values[_base_vertex(X, g)]
            values[g] = (x, A.fibre(n, x).elements[i])
    return HomotopySequence(1, f, values)


def invert_homotopy(H: HomotopySequence) -> HomotopySequence:
    """The inverse arrow: targets the source of H."""
    return _invert(H, apply_homotopy(H, H.target))


def _invert(H: HomotopySequence, src: Colouring) -> HomotopySequence:
    """`invert_homotopy` given the source `src` of H."""
    X, A = H.target.X, H.target.A
    values = {}
    for g, h in H.values.items():
        i = X.dim_of[g]
        if i == 0:
            values[g] = A.base.inv(h)
        else:
            inv_h0 = A.base.inv(H.values[_base_vertex(X, g)])
            values[g] = A.act_elem(i + 1, A.inv_elem(i + 1, h), inv_h0)
    return HomotopySequence(1, src, values)


def delta2(H2: HomotopySequence) -> HomotopySequence:
    """Boundary of a 2-fold homotopy: an endo-arrow at its target."""
    if H2.k != 2:
        raise ValueError("expected a 2-fold homotopy")
    f = H2.target
    return HomotopySequence(1, f, _delta2(Plan(f.X, f.A), f.values, H2.values))


def _delta2(plan: Plan, f: dict, h: dict) -> dict:
    """`delta2` on the compiled terms: the values of the boundary of the 2-fold homotopy h at f.

    At a cell c of dimension n < truncation the terms of c are evaluated at
    level n + 1, on the values of h, from the identity at the image of the
    leading vertex; nothing is checked.
    """
    X, A = plan.X, plan.A
    comp = A.base.comp_table
    out = {v: A.bdry_of(2, h[v]) if v in h else A.base.ident[f[v]] for v in X.gens(0)}
    if A.truncation >= 2:
        for e in X.gens(1):
            s, t = X.edge_ends(e)
            val = A.mul(2, A.act_elem(2, A.inv_elem(2, h[s]), f[e]), h[t])
            if e in h:
                val = A.mul(2, val, A.bdry_of(3, h[e]))
            out[e] = val
    for c, terms in plan.terms.items():
        n = X.dim_of[c]
        if n >= A.truncation:
            continue
        unit = A.identity_elem(n + 1, f[plan.lead[c]])
        lower = unit
        for face, sign, reads in terms:
            lower = A.mul(n + 1, lower, _term(A, n + 1, h[face], sign, _arrow(comp, reads, f)))
        val = A.bdry_of(n + 2, h[c]) if c in h else unit
        out[c] = A.mul(n + 1, val, A.pow_elem(n + 1, lower, (-1) ** n))
    return out


# -- the extended groupoid ------------------------------------------------------


class CrsResult:
    """The groupoid of colourings and 2-fold classes of homotopies.

    Objects are colourings of X (canonical order); arrows are equivalence
    classes of homotopies under right composition with boundaries of 2-fold
    homotopies.  Arrow ids are triples (source index, target index, class
    representative key).  `tables` is `_compose_tables` of a plan of (X, A).
    """

    def __init__(self, X, A, colourings, groupoid, arrow_reps, deltas, tables):
        self.X = X
        self.A = A
        self.colourings = colourings
        self.groupoid = groupoid
        self.arrow_reps = arrow_reps  # arrow id -> HomotopySequence
        self.deltas = deltas  # target index -> list of boundary endo-homotopies
        self._index = {c.key(): i for i, c in enumerate(colourings)}
        self._arrow = {(a[1], a[2]): a for a in groupoid.arrows}
        self._tables = tables

    def colouring_index(self, col: Colouring) -> int:
        return self._index[col.key()]

    def components(self):
        return self.groupoid.components()

    def class_of_arrow(self, H: HomotopySequence):
        """The groupoid arrow represented by the homotopy H."""
        tgt = self.colouring_index(H.target)
        hk = H.key()
        rep = min(_compose_keys(self._tables, hk, d.key()) for d in self.deltas[tgt])
        return self._arrow[(tgt, rep)]


def crs_pi1(X, A: CrossedComplex) -> CrsResult:
    """Colourings, homotopies up to 2-fold homotopy, as a finite groupoid.

    X is a `SimpSet` or a `Stratification`.  Homotopies are held by their
    keys, and every composite (an arrow's orbit under the boundaries of
    2-fold homotopies, a table entry) is one `_compose_keys` on two keys, on
    integer tables compiled once on the plan; only the arrow representatives
    are built as `HomotopySequence`s.
    """
    plan = Plan(X, A)
    X = plan.X
    colourings = plan.colourings()
    index = {c.key(): i for i, c in enumerate(colourings)}
    tables = _compose_tables(plan)
    deltas, delta_keys = {}, {}
    for ti, f in enumerate(colourings):
        ds, keys = [], {}
        for H2 in enumerate_sequences(X, A, f, 2):
            d = HomotopySequence(1, f, _delta2(plan, f.values, H2.values))
            k = d.key()
            if k not in keys:
                keys[k] = None
                ds.append(d)
        deltas[ti], delta_keys[ti] = ds, list(keys)
    arrows = []
    arrow_reps = {}
    classes = [{} for _ in colourings]  # target index -> {homotopy key: arrow id}
    for ti, f in enumerate(colourings):
        for H in enumerate_sequences(X, A, f, 1):
            hk = H.key()
            if hk in classes[ti]:
                continue
            keys = sorted(_compose_keys(tables, hk, dk) for dk in delta_keys[ti])
            si = index[colouring_key(X, A, _apply(plan, f.values, H.values))]
            aid = (si, ti, keys[0])
            for k in keys:
                classes[ti][k] = aid
            arrows.append(aid)
            arrow_reps[aid] = _sequence(plan, f, keys[0])
    src = {a: a[0] for a in arrows}
    tgt = {a: a[1] for a in arrows}
    objects = tuple(range(len(colourings)))
    leaving = {}
    for b in arrows:
        leaving.setdefault(b[0], []).append((b, b[2], classes[b[1]]))
    comp = {}
    for a in arrows:
        ka = a[2]
        for b, kb, classes_b in leaving[a[1]]:
            comp[(a, b)] = classes_b[_compose_keys(tables, ka, kb)]
    ident = {}
    for ti, f in enumerate(colourings):
        ident[ti] = classes[ti][identity_sequence(f).key()]
    inv = {}
    for a in arrows:
        inv[a] = classes[a[0]][_invert(arrow_reps[a], colourings[a[0]]).key()]
    G = FinGroupoid(objects, tuple(arrows), src, tgt, comp, ident, inv, name=f"pi1CRS({X.name})")
    return CrsResult(X, A, colourings, G, arrow_reps, deltas, tables)


# -- homotopies relative to a subcomplex -------------------------------------------


def _key_reads(plan: Plan, reads) -> tuple:
    """`Plan.terms` reads as (key position, table) on value indices.

    A read keyed at a vertex is a degenerate edge and reads its identity
    arrow; a read of an edge through a table reads the inverse arrow.
    """
    X, ops = plan.X, plan._ops
    out = []
    for g, table in reads:
        if X.dim_of[g] == 0:
            table = ops.ident
        elif table is not None:
            table = ops.inv
        out.append((X.gen_index(g), table))
    return tuple(out)


def _key_movers(plan: Plan):
    """positions -> move: 1-fold homotopies with values at `positions` only, on colouring keys.

    `move(key, h)` is the key of the other end of the 1-fold homotopy that
    targets the colouring with key `key`, has the value index h[p] at each
    key position p of `positions` (h holds one at every one of them, as
    `colouring_key` with k = 1 indexes it) and identities elsewhere.  It is
    `_apply` evaluated on value indices with the tables of `Plan._ops`, and
    only where those values change the colouring: at the positions, at the
    edges with a vertex among them as an end, at the cells led by such a
    vertex and at the cells with one of them as a face (their star).  The
    stars are compiled once per call of `_key_movers`, each mover's terms
    once per call of `mover`; no colouring or values dict is built.
    """
    X, A, ops = plan.X, plan.A, plan._ops
    where = X.gen_index
    comp, inv, src = ops.comp, ops.inv, ops.src
    star = {where(g): set() for g in X.all_gens() if X.dim_of[g] < A.truncation}
    edges, cells = {}, {}
    for e in X.gens(1):
        p, (s, t) = where(e), (where(u) for u in X.edge_ends(e))
        edges[p] = s, t
        for q in (s, t, p):
            if q in star:
                star[q].add(p)
    for c, terms in plan.terms.items():
        p, lead = where(c), where(plan.lead[c])
        cells[p] = lead, X.dim_of[c], [
            (where(face), where(_base_vertex(X, face)), sign < 0, _key_reads(plan, reads))
            for face, sign, reads in terms
        ]
        for q in (lead, p, *(where(face) for face, _, _ in terms)):
            if q in star:
                star[q].add(p)

    def mover(positions):
        moved = set(positions)
        vertices, edge_moves, cell_moves = [], [], []
        for p in sorted(moved.union(*(star[p] for p in moved))):
            if p in edges:
                s, t = edges[p]
                edge_moves.append((p, s, t, s in moved, t in moved, p in moved))
            elif p in cells:
                lead, m, terms = cells[p]
                finv = ops.finv[m]
                cell_moves.append((
                    p, lead, lead in moved, ops.mul[m], ops.act[m],
                    ops.bdry[m + 1] if p in moved else None,
                    [(face, base, finv if negative else None, reads)
                     for face, base, negative, reads in terms if face in moved],
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
                for face, base, finv, reads in terms:
                    e = h[face] if finv is None else finv[key[base]][h[face]]
                    if reads:
                        arrow = None
                        for q, t in reads:
                            a = key[q] if t is None else t[key[q]]
                            arrow = a if arrow is None else comp[arrow][a]
                        e = act[arrow][e]
                    val = table[val][e]
                if up is not None:
                    val = table[val][up[x][h[p]]]
                out[p] = act[inv[h[lead]]][val] if lead_moved else val
            return tuple(out)

        return move

    return mover


def _move_generators(plan: Plan) -> tuple:
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
    A, ops = plan.A, plan._ops
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
    """Partition of `fillings` under homotopies that fix `boundary_gens`.

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
    values of `_move_generators` are applied.  Each free slot's star is
    compiled once per call (`_key_movers`), and a move rewrites the
    filling's key there with list lookups; no colouring is built.

    Returns (classes, class_of): classes are tuples of filling indices with
    the canonical minimum first; class_of maps a colouring key to its class
    index.
    """
    if not fillings:
        return (), {}
    plan = as_plan(X, A)
    X = plan.X
    fkeys = [col.key() for col in fillings]
    keys = {k: i for i, k in enumerate(fkeys)}
    mover = _key_movers(plan)
    vertex_moves, fibre_moves = _move_generators(plan)
    slots = []
    for g in X.all_gens():
        n = X.dim_of[g] + 1
        if g in boundary_gens or n > A.truncation:
            continue
        p = X.gen_index(g)
        moves = vertex_moves if n == 1 else fibre_moves[n]
        slots.append((p, X.gen_index(_base_vertex(X, g)), moves, mover((p,))))

    def links():
        for i, key in enumerate(fkeys):
            for p, base, moves, move in slots:
                for h in moves[key[base]]:
                    j = keys.get(move(key, {p: h}))
                    if j is None:
                        raise ValueError("internal homotopy left the filling set")
                    yield i, j

    classes = partition(len(fillings), links())
    class_of = {fkeys[i]: ci for ci, members in enumerate(classes) for i in members}
    return classes, class_of


def holonomy_act(X, A, boundary_gens, eta: HomotopySequence, filling: Colouring) -> Colouring:
    """Transport a filling along a boundary homotopy, by identity expansion.

    X is a `SimpSet`, a `Stratification` or a `Plan` of one for A.
    `eta` targets the restriction of `filling` to the boundary subcomplex;
    the result restricts to the other end of `eta`.  The whole colouring is
    evaluated and built; `extprof.cobordism_profunctor` moves keys instead,
    through `_key_movers`.
    """
    plan = as_plan(X, A)
    X = plan.X
    for g in boundary_gens:
        i = X.dim_of[g]
        if i + 1 > A.truncation:
            continue
        want = filling.values[g]
        if eta.target.values[g] != want:
            raise ValueError("boundary homotopy does not target the filling's restriction")
    H = expand_sequence(eta, X, filling)
    return Colouring(X, A, _apply(plan, filling.values, H.values))
