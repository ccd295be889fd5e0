"""Colourings of finite simplicial sets by finite crossed complexes.

A colouring assigns an object to each vertex generator, a compatible arrow
to each edge generator and, for 2 <= n <= truncation, a level-n element to
each n-generator whose boundary equals the homotopy addition label of its
faces.  Degenerate simplices implicitly carry identities.

Adopted homotopy addition convention (gated by the nerve-count oracles in
the test suite):
    n=2:   f(d2 c) . f(d0 c) . f(d1 c)^-1
    n=3:   (f(d0 c) <| f(01)^-1) . f(d2 c) . f(d1 c)^-1 . f(d3 c)^-1
    n>=4:  (f(d0 c) <| f(01)^-1) . prod_{j=1..n} f(dj c)^((-1)^j)
where f(01) is the value on the leading edge d_2 d_3 ... d_n c.

These labels depend on X alone, so (X, A) is compiled once into a `Plan`.
Its walk runs on value indices, the ones `colouring_key` uses: a colouring
in progress is one list holding, at each walk position, the index of an
object, of an arrow, or of an element in the fibre over the image of the
generator's leading vertex.  Each generator's label is evaluated from list
positions and the nested-list tables of A (composition, inverses and
identities, the fibres' products, inverses and units, the actions, the
arrows between two objects and the boundary preimages), compiled once per
plan; so are the schedule of label tests and each slot's domain.  A label
test that exactness makes vacuous (pi_n(A, x) trivial at every object x)
is left out.  A test whose cell's last face occurs once in its homotopy
addition word is not run either: that face is solved for, since each
passing label gives one value of it, and its slot takes just those values
(solved slots).  A slot that admits at most one value at every earlier
assignment is forced: the walk assigns it in a loop, without branching.
`Plan.walk(emit, fixed)` hands the value vector of each colouring extending
some fixed values to a callback, as the `colour-list` writer uses it;
`Plan.keys(fixed)` pads each vector into its `colouring_key`, the one form
of a filling in the homotopy layer, and `Plan.colourings(fixed)` decodes
each vector into a values dict.  Each runs one backtracking walk after one
check and encoding of the fixed values; a sequence of fixed generators is
compiled once per plan (`_Pins`), so a repeated walk only encodes and
checks values.  `Plan.count(fixed)` walks the levels below the top level
L = min(dim X, truncation) and, for L >= 2, counts the completions of each
leaf at once (`_Top`): the free level-L slots range over cosets of the
abelian group K = ker d_L, and the cells above them ask one affine system
over K, solved by a Hermite normal form.
`enumerate_colourings` and `enumerate_relative` compile a plan per call; a
caller that walks one X for many boundary values compiles it once.  The
homotopy layer reads the same compilation, and the plan is the one place
that says where a key's values lie: `Plan.layout(k)` gives the key
positions of a k-fold homotopy's values with their levels and base
positions (`Plan.base`), `Plan.ends` the end positions of each edge, and
`Plan.terms` the homotopy addition word of each cell on key positions,
each term with its twist, compiled once.  The homotopy layer evaluates
them on colouring keys with the walk's own tables (`_Ops`); its moves are
kept on the plan (`Plan.moves`).
Every homotopy addition word in the program is evaluated on a plan;
`boundary_label` compiles one per call, and `value_of_ref` reads a single
simplex.
"""
from __future__ import annotations

from functools import cached_property
from math import prod

from .errors import BoundaryError
from .finalg.crossed import CrossedComplex
from .simpset import SimpSet, SimplexRef, Stratification


class Colouring:
    """Values on the nondegenerate generators of X, one level at a time."""

    def __init__(self, X: SimpSet, A: CrossedComplex, values: dict):
        self.X = X
        self.A = A
        self.values = values  # gen -> object | arrow | (obj, element)

    def value(self, g):
        return self.values[g]

    def value_of_ref(self, ref: SimplexRef):
        """Value on a possibly degenerate simplex (identities on degeneracies)."""
        return value_of_ref(self.X, self.A, self.values, ref)

    def key(self):
        return colouring_key(self.X, self.A, self.values)

    def as_dict(self):
        return colouring_dict(self.X, self.A, self.values)

    def __eq__(self, other):
        return (
            isinstance(other, Colouring)
            and self.X is other.X
            and self.values == other.values
        )

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Colouring({self.values})"


def colouring_dict(X: SimpSet, A: CrossedComplex, values: dict) -> dict:
    """The JSON shape of a colouring: its vertex values, and its values by level.

    A level-n value, n >= 2, is a pair (object, element); the element is
    written.  Generators above the truncation carry identities and are left out.
    """
    levels: dict[str, dict] = {}
    verts = {}
    for g in X.all_gens():
        d = X.dim_of[g]
        if d >= 2 and d > A.truncation:
            continue
        if d == 0:
            verts[str(g)] = values[g]
        elif d == 1:
            levels.setdefault("1", {})[str(g)] = values[g]
        else:
            levels.setdefault(str(d), {})[str(g)] = values[g][1]
    return {"vertices": verts, "levels": levels}


def colouring_key(X: SimpSet, A: CrossedComplex, values: dict, k: int = 0) -> tuple:
    """Canonical sort key: value indices in generator declaration order.

    The value at an i-generator lies at level i + k: k = 0 for a colouring,
    k for a k-fold homotopy.  Above the truncation it is an implicit
    identity, indexed 0.
    """
    out = []
    for g in X.all_gens():
        n = X.dim_of[g] + k
        if n > A.truncation and n >= 2:
            out.append(0)
            continue
        v = values[g]
        if n == 0:
            out.append(A.base.obj_index(v))
        elif n == 1:
            out.append(A.base.arr_index(v))
        else:
            x, e = v
            out.append(A.fibre(n, x).index(e))
    return tuple(out)


def value_of_ref(X: SimpSet, A: CrossedComplex, values: dict, ref: SimplexRef):
    d = X.ref_dim(ref)
    if ref.word:
        if d == 1:
            return A.base.ident[values[ref.core]]
        base = values[X.initial_vertex(ref)]
        return A.identity_elem(d, base)
    if d >= 2 and d > A.truncation:
        base = values[X.initial_vertex(ref)]
        return A.identity_elem(d, base)
    return values[ref.core]


def hal_word(X: SimpSet, c) -> list:
    """The homotopy addition label of c as (face ref, sign, twist) terms.

    `twist` is either None or a word of (edge ref, sign) pairs acting on the
    term from the right.
    """
    n = X.dim_of[c]
    ref = SimplexRef(c, ())
    faces = [X.face_of_ref(ref, i) for i in range(n + 1)]
    if n == 2:
        return [(faces[2], 1, None), (faces[0], 1, None), (faces[1], -1, None)]
    twist = [(X.edge01_ref(c), -1)]
    if n == 3:
        return [
            (faces[0], 1, twist),
            (faces[2], 1, None),
            (faces[1], -1, None),
            (faces[3], -1, None),
        ]
    terms = [(faces[0], 1, twist)]
    terms.extend((faces[j], (-1) ** j, None) for j in range(1, n + 1))
    return terms


def boundary_label(X: SimpSet, A: CrossedComplex, values: dict, c):
    """The homotopy addition label of the n-generator c, n >= 2.

    Returns an A1 loop for n = 2 and a level-(n-1) element for n >= 3, based
    at the image of the leading vertex of c.  (X, A) is compiled into a
    `Plan` for this call.
    """
    if X.dim_of[c] < 2:
        raise ValueError("labels are defined for generators of dimension >= 2")
    return Plan(X, A).label[c](values)


def as_simpset(X) -> SimpSet:
    """The simplicial set of X, which is a `SimpSet` or a `Stratification`."""
    return X.simpset if isinstance(X, Stratification) else X


class _Ops:
    """The operations of A on value indices, as nested lists.

    Objects, arrows and the elements of each fibre are indexed in declaration
    order, as in `colouring_key`.

    - `obj[x]`, `arr[a]`, `index[n][x][e]`: the index of an object, an arrow
      and an element e of the level-n fibre at the object indexed x;
    - `src[a]`, `tgt[a]`, `inv[a]`: the source, target and inverse of an arrow;
      `ident[x]`: the identity arrow at an object;
    - `comp[a][b]`: the composite of a then b, None when they do not compose;
    - for n = 2..truncation, at the object indexed x: `mul[n][x][i][j]`,
      `finv[n][x][i]` and `unit[n][x]`, the fibre's product, inverse and
      unit; `bdry[n][x][i]`, the boundary of element i, an arrow for n = 2
      and an element of the level-(n-1) fibre at x above;
    - `act[n][a][i]`: element i of the fibre at the source of the arrow a,
      acted on by a, in the fibre at its target.
    """

    def __init__(self, A: CrossedComplex):
        base = A.base
        obj = self.obj = {x: i for i, x in enumerate(A.objects)}
        arr = self.arr = {a: i for i, a in enumerate(base.arrows)}
        self.src = [obj[base.src[a]] for a in base.arrows]
        self.tgt = [obj[base.tgt[a]] for a in base.arrows]
        self.inv = [arr[base.inv_table[a]] for a in base.arrows]
        self.ident = [arr[base.ident[x]] for x in A.objects]
        self.comp = [[None] * len(arr) for _ in arr]
        for a, b, c in base.entries():
            self.comp[arr[a]][arr[b]] = arr[c]
        self.index, self.mul, self.finv, self.unit, self.bdry, self.act = {}, {}, {}, {}, {}, {}
        for n in range(2, A.truncation + 1):
            fibres = [A.fibre(n, x) for x in A.objects]
            index = self.index[n] = [{e: i for i, e in enumerate(F.elements)} for F in fibres]
            self.mul[n] = [
                [[ix[F.mul(e1, e2)] for e2 in F.elements] for e1 in F.elements]
                for F, ix in zip(fibres, index)
            ]
            self.finv[n] = [[ix[F.inv(e)] for e in F.elements] for F, ix in zip(fibres, index)]
            self.unit[n] = [ix[F.unit] for F, ix in zip(fibres, index)]
            lower = [arr] * len(fibres) if n == 2 else self.index[n - 1]
            self.bdry[n] = [
                [lower[i][A.bdry[n][x, e]] for e in F.elements]
                for i, (x, F) in enumerate(zip(A.objects, fibres))
            ]
            self.act[n] = [
                [index[t][A.act[n][(base.src[a], e), a]] for e in fibres[s].elements]
                for a, s, t in zip(base.arrows, self.src, self.tgt)
            ]


class Plan:
    """(X, A) compiled once for any number of walks; nothing here depends on a colouring.

    X may be a `SimpSet` or a `Stratification`; `self.X` is the `SimpSet`.
    The walk runs on value indices: a colouring is a list `v` with, at each
    position of `slots`, the index of its value there (an object, an arrow,
    or an element of the fibre at the image of the generator's leading
    vertex), as `colouring_key` indexes it.  Labels, label tests and domains
    read positions of `v` and the nested lists of `_Ops`, and so does the
    homotopy layer, on colouring keys.  The walk solves the last face of a
    cell for its label instead of testing it, and assigns forced slots
    without branching (`_schedule`); `walk` hands each vector to a callback,
    and `count` walks the levels below the top one and counts the top
    level from a normal form (`_Top`).

    - `lead[g]`: the leading vertex of g;
    - `ends[p]`: the key positions (s, t) of the source d1 e and the target
      d0 e of the edge e at the key position p;
    - `base[p]`: the key position of the vertex over whose image a homotopy
      value at p lies: a vertex's own, an edge's target vertex d0, and a
      higher generator's leading vertex;
    - `label[c](values)`: the homotopy addition label of c under the values
      dict `values`, for c of dimension >= 2; it encodes `values` and calls
      the index evaluator of c;
    - `slots`: the walk order, levels 0..min(dim X, truncation) in generator
      order, which is a prefix of `X.all_gens()`;
    - `faces[c]`: the proper faces of c, for c of dimension 2..truncation;
    - `layout(k)`, `terms`, `moves`: for the homotopy layer.

    Everything but `lead`, `ends` and `base` is built on first use, so a
    plan that evaluates a homotopy or a label never builds the walk's
    domains and tests.
    """

    def __init__(self, X, A: CrossedComplex):
        X = as_simpset(X)
        self.X, self.A, where = X, A, X.gen_index
        self.lead = {g: X.initial_vertex(g) for g in X.all_gens()}
        self.ends = {where(e): tuple(map(where, X.edge_ends(e))) for e in X.gens(1)}
        self.base = [
            self.ends[p][1] if p in self.ends else where(self.lead[g]) for p, g in enumerate(X.all_gens())
        ]
        self._last_level = min(X.dim, A.truncation)  # the top level the walk assigns
        self._pin_sets: dict = {}  # fixed generator sequence -> `_Pins`

    @cached_property
    def slots(self) -> list:
        X = self.X
        return [g for n in range(self._last_level + 1) for g in X.gens(n)]

    @cached_property
    def faces(self) -> dict:
        """c -> the proper faces of c, for the check of fixed values."""
        X = self.X
        return {
            c: X.subcomplex_closure({c}) - {c}
            for n in range(2, self._last_level + 1)
            for c in X.gens(n)
        }

    def layout(self, k: int) -> list:
        """[(p, n, base[p])]: the key positions that hold a value of a k-fold homotopy, at level n.

        The value at an i-generator lies at level n = i + k (k = 0 for a
        colouring), and the key holds its index where n <= max(1,
        truncation): above, it is an identity, indexed 0.  Generators are
        ordered by dimension, so these positions are a prefix of the key.
        """
        top, dims = max(1, self.A.truncation), self.X.dim_of
        gens = self.X.all_gens()
        return [(p, n, b) for p, (g, b) in enumerate(zip(gens, self.base)) if (n := dims[g] + k) <= top]

    @cached_property
    def _ops(self) -> _Ops:
        return _Ops(self.A)

    @cached_property
    def _evaluators(self) -> dict:
        """c -> v -> the homotopy addition label of c as a value index, for c of dimension >= 2.

        The label of a 2-generator is an arrow; above, it is an element of
        the level-(n-1) fibre at the image of the leading vertex.
        """
        X = self.X
        return {c: self._evaluator(c) for n in range(2, X.dim + 1) for c in X.gens(n)}

    def _arrow_read(self, ref: SimplexRef, sign: int) -> tuple:
        """(position, table): the arrow on the edge ref, to the power sign, is table[v[position]].

        table is None when it is v[position] itself.  A degenerate edge
        reads the identity at its vertex.
        """
        ops, X = self._ops, self.X
        if ref.word:
            return X.gen_index(X.initial_vertex(ref)), ops.ident
        return X.gen_index(ref.core), (None if sign > 0 else ops.inv)

    def _evaluator(self, c):
        """v -> the homotopy addition label of c, for c of dimension n >= 2, on value indices."""
        X, ops = self.X, self._ops
        n = X.dim_of[c]
        word = hal_word(X, c)
        if n == 2:
            comp = ops.comp
            (k0, t0), (k1, t1), (k2, t2) = (self._arrow_read(r, s) for r, s, _ in word)

            def label(v):
                a0 = v[k0] if t0 is None else t0[v[k0]]
                a1 = v[k1] if t1 is None else t1[v[k1]]
                a2 = v[k2] if t2 is None else t2[v[k2]]
                return comp[comp[a0][a1]][a2]

            return label
        m = n - 1
        if m > self.A.truncation:
            return lambda v: 0  # the unit of the trivial fibre
        # the leading term, of sign +1, is twisted by the inverse leading edge;
        # degenerate faces carry units, which leave the product unchanged
        (ref0, _, ((edge, sign),)), rest = word[0], word[1:]
        k1, t1 = self._arrow_read(edge, sign)
        k0 = None if ref0.word else X.gen_index(ref0.core)
        rest = [(X.gen_index(r.core), s < 0) for r, s, _ in rest if not r.word]
        lead = X.gen_index(self.lead[c])
        act, mul, finv, unit = ops.act[m], ops.mul[m], ops.finv[m], ops.unit[m]

        def label(v):
            x = v[lead]
            out = unit[x] if k0 is None else act[t1[v[k1]]][v[k0]]
            table, inv = mul[x], finv[x]
            for k, negative in rest:
                out = table[out][inv[v[k]] if negative else v[k]]
            return out

        return label

    @cached_property
    def label(self) -> dict:
        return {c: self._decoded(c) for c in self._evaluators}

    def _decoded(self, c):
        """values -> the label of c under the values dict `values`, through its index evaluator."""
        evaluate, m, encode = self._evaluators[c], self.X.dim_of[c] - 1, self._encode
        if m == 1:
            arrows = self.A.base.arrows
            return lambda values: arrows[evaluate(encode(values))]
        lead, fibre = self.lead[c], self.A.fibre

        def label(values):
            x = values[lead]
            return x, fibre(m, x).elements[evaluate(encode(values))]

        return label

    @cached_property
    def _preimage(self) -> dict:
        """n -> pre[x][k]: the level-n elements at the object x with boundary k, in fibre order.

        k is an arrow for n = 2 and an element of the level-(n-1) fibre at
        x above; n runs over 2..min(dim X, truncation).
        """
        ops = self._ops
        out = {}
        for n in range(2, self._last_level + 1):
            lower = [ops.arr] * len(ops.unit[n]) if n == 2 else ops.index[n - 1]
            out[n] = table = []
            for x, bdry in enumerate(ops.bdry[n]):
                row = [[] for _ in lower[x]]
                for i, k in enumerate(bdry):
                    row[k].append(i)
                table.append([tuple(r) for r in row])
        return out

    def _passes(self, n: int, between: list):
        """ok[x][k]: whether the label k, at the object x, passes the test of an (n+1)-cell.

        Below the truncation the label must be a boundary, and just above it
        an identity.  Once the n-faces of a cell meet their conditions, its
        label lies in the kernel of the boundary (a loop, for n = 1).  When
        every kernel element passes at every object, that is when pi_n(A, x)
        is trivial everywhere, the test can never fail and None is returned.
        """
        ops, A = self._ops, self.A
        objects = range(len(ops.ident))
        if n + 1 <= A.truncation:
            ok = [[bool(r) for r in row] for row in self._preimage[n + 1]]
        elif n == 1:
            ok = [[a == ops.ident[x] for a in range(len(ops.arr))] for x in objects]
        else:
            ok = [[i == ops.unit[n][x] for i in range(len(ops.finv[n][x]))] for x in objects]
        if n == 1:
            kernel = [between[x][x] for x in objects]
        else:
            flat = ops.ident if n == 2 else ops.unit[n - 1]
            kernel = [[i for i, k in enumerate(ops.bdry[n][x]) if k == flat[x]] for x in objects]
        if all(ok[x][k] for x in objects for k in kernel[x]):
            return None
        return ok

    @cached_property
    def _schedule(self) -> tuple:
        """(checks, domains, forced, solved) of the walk, on value indices.

        - `checks[pos]`: the label tests run on arrival at position pos;
        - `forced[pos](v)`: at a forced slot, the one value index it admits
          given every earlier position, or None when it admits none; None at
          the other slots;
        - `domains[pos](v)`: at the other slots, the value indices admitted
          given every earlier position, in domain order; None at forced slots;
        - `solved[pos]`: the cell solved at `slots[pos]`, where one is.

        The label test of an (n+1)-generator c is due once its last n-face f
        is assigned, or on entry to level n when all its n-faces are
        degenerate; a test that `_passes` shows can never fail is left out.
        When f occurs once in the homotopy addition word of c and no other
        cell is solved at f, the test is not run: f is solved for instead
        (`_solved`), so its slot admits only the values that pass the test.
        A slot is forced when it admits at most one value at every earlier
        assignment: a solved slot whose one passing label at every object is
        the identity, or an unsolved level-n slot whose boundary preimages
        have at most one element each.
        """
        X, A, ops = self.X, self.A, self._ops
        where = X.gen_index
        between = [
            [tuple(ops.arr[a] for a in A.base.arrows_between(x, y)) for y in A.objects]
            for x in A.objects
        ]
        top_constraint_dim = min(X.dim, A.truncation + 1)
        checks: list = [[] for _ in range(len(self.slots) + 1)]
        solved = {}
        pos = 0
        for n in range(self._last_level + 1):
            gens = X.gens(n)
            if 2 <= n + 1 <= top_constraint_dim and (ok := self._passes(n, between)) is not None:
                for c in X.gens(n + 1):
                    cores = [f.core for f in (X.face(c, i) for i in range(n + 2)) if not f.word]
                    last = max(cores, key=where, default=None)
                    if last is not None and cores.count(last) == 1 and where(last) not in solved:
                        solved[where(last)] = c, ok
                    else:
                        checks[pos if last is None else where(last) + 1].append(self._test(c, ok))
            pos += len(gens)
        objects = tuple(range(len(A.objects)))
        domains, forced = [], []
        for pos, g in enumerate(self.slots):
            n = X.dim_of[g]
            if pos in solved:
                domain, force = self._solved(g, *solved[pos])
            elif n == 0:
                domain, force = lambda v: objects, None
            elif n == 1:
                s, t = self.ends[pos]
                domain, force = lambda v, s=s, t=t: between[v[s]][v[t]], None
            else:
                domain, force = self._domain(g)
            domains.append(domain)
            forced.append(force)
        return checks, domains, forced, {pos: c for pos, (c, _) in solved.items()}

    def _test(self, c, ok):
        lead, label = self.X.gen_index(self.lead[c]), self._evaluators[c]
        return lambda v: ok[v[lead]][label(v)]

    def _domain(self, g) -> tuple:
        """(domain, forced) at g of dimension >= 2: the elements whose boundary is its label."""
        lead, label = self.X.gen_index(self.lead[g]), self._evaluators[g]
        preimage = self._preimage[self.X.dim_of[g]]
        if any(len(elements) > 1 for row in preimage for elements in row):
            return lambda v: preimage[v[lead]][label(v)], None
        one = [[elements[0] if elements else None for elements in row] for row in preimage]
        return None, lambda v: one[v[lead]][label(v)]

    def _solved(self, f, c, ok) -> tuple:
        """(domain, forced) at f, the last n-face of the (n+1)-cell c, solved from c's test `ok`.

        f occurs once in the homotopy addition word T_0...T_r of c, as T_j =
        f^sign (or in the twisted leading term, j = 0), and the other faces
        are set.  The label of c is P.T_j.S, with P = T_0...T_(j-1) and
        S = T_(j+1)...T_r, so a label t gives T_j = P^-1.t.S^-1 and one
        value of f.  The labels that pass c's test at the image x of c's
        leading vertex form a normal subgroup T_x of the group at x: the
        boundary image, or the identity alone just above the truncation.
        Conjugation, inversion and the action carry one T to another, so
        the values of f form the coset f0.T of the value f0 that the
        identity gives, T taken at the end of f0 (its target, or its
        object).  The slot admits that coset in domain order, from a table
        built once; when every T_x is trivial, the slot is forced to f0.
        Each value lies in the slot's own domain, so none is looked up
        there: an edge P^-1.t.S^-1 runs between the images of its ends, and
        a level-n value has its own label as boundary.  That is the homotopy
        addition lemma one level down: the boundary of c's label is a product
        in which the boundary of f occurs once, and it is the identity when
        each face's boundary is its label; the other faces' are, and so is
        the boundary of t.
        """
        X, ops = self.X, self._ops
        n, word = X.dim_of[f], hal_word(X, c)
        j = next(i for i, (ref, _, _) in enumerate(word) if ref.core == f and not ref.word)
        value = self._solved_edge(word, j) if n == 1 else self._solved_element(n, word, j, c)
        subgroups = [[k for k, passes in enumerate(row) if passes] for row in ok]
        if all(len(T) == 1 for T in subgroups):
            return None, value
        if n == 1:
            comp = ops.comp
            coset = [tuple(sorted(comp[a][t] for t in subgroups[y])) for a, y in enumerate(ops.tgt)]
            return lambda v: coset[value(v)], None
        coset = [
            [tuple(sorted(row[t] for t in T)) for row in mul] for mul, T in zip(ops.mul[n], subgroups)
        ]
        y = X.gen_index(self.lead[f])
        return lambda v: coset[v[y]][value(v)], None

    def _solved_edge(self, word, j):
        """v -> the edge T_j^sign of a 2-cell's word, given by the identity label: P^-1.S^-1."""
        comp = self._ops.comp
        # T_j = T_(j-1)^-1...T_0^-1 . T_2^-1...T_(j+1)^-1; its inverse reverses and inverts the factors
        order = [*range(j - 1, -1, -1), *range(2, j, -1)]
        if word[j][1] > 0:
            reads = [self._arrow_read(word[i][0], -word[i][1]) for i in order]
        else:
            reads = [self._arrow_read(word[i][0], word[i][1]) for i in reversed(order)]
        (k0, t0), (k1, t1) = reads
        return lambda v: comp[v[k0] if t0 is None else t0[v[k0]]][v[k1] if t1 is None else t1[v[k1]]]

    def _solved_element(self, n, word, j, c):
        """v -> the level-n face of T_j in the word of the (n+1)-cell c, given by the identity label.

        T_j = P^-1.S^-1 in the fibre at x.  T_0 is the leading face acted on
        by the inverse leading edge, so a solved T_0 gives the face by
        acting with the leading edge.
        """
        X, ops = self.X, self._ops
        act, mul, finv, unit = ops.act[n], ops.mul[n], ops.finv[n], ops.unit[n]
        (ref0, _, ((edge, edge_sign),)) = word[0]
        k1, t1 = self._arrow_read(edge, edge_sign)  # T_0 = act[t1[v[k1]]][v[k0]]
        k01, t01 = self._arrow_read(edge, -edge_sign)  # the leading edge
        k0 = None if j == 0 or ref0.word else X.gen_index(ref0.core)
        before = [(X.gen_index(r.core), s < 0) for r, s, _ in word[1:j] if not r.word]
        after = [(X.gen_index(r.core), s > 0) for r, s, _ in reversed(word[j + 1 :]) if not r.word]
        sign, lead = word[j][1], X.gen_index(self.lead[c])

        def value(v):
            x = v[lead]
            table, inv = mul[x], finv[x]
            p = unit[x] if k0 is None else act[t1[v[k1]]][v[k0]]
            for k, negative in before:
                p = table[p][inv[v[k]] if negative else v[k]]
            s = unit[x]
            for k, negative in after:
                s = table[s][inv[v[k]] if negative else v[k]]
            e = table[inv[p]][s]
            if j == 0:
                return act[v[k01] if t01 is None else t01[v[k01]]][e]
            return inv[e] if sign < 0 else e

        return value

    def _encode(self, values: dict) -> list:
        """The value indices of `values` at the positions of `slots`.

        v[pos] indexes the value at slots[pos] as the walk holds it: an
        object, an arrow, or an element of the fibre over the value's object.
        It is None where `values` has no value or A does not have it.
        Generators that are not in X are ignored.
        """
        X, end = self.X, len(self.slots)
        layout = [(g, pos, X.dim_of[g]) for g in values if g in X.dim_of and (pos := X.gen_index(g)) < end]
        v = [None] * end
        _encode_into(self._ops, layout, values, v, {})
        return v

    def _pins(self, fixed: dict) -> "_Pins":
        """The fixed generators of `fixed`, compiled once per plan and generator sequence."""
        key = tuple(fixed)
        pins = self._pin_sets.get(key)
        if pins is None:
            if len(self._pin_sets) >= _PIN_SETS:
                self._pin_sets.clear()
            pins = self._pin_sets[key] = _Pins(self, key)
        return pins

    @cached_property
    def _decode(self):
        """v -> the values dict of the colouring whose value indices at `slots` are v, or whose key is v.

        The positions are `layout(0)`, those of `slots`.  The level-n values
        (x, e) are read from tables built here, so a colouring allocates its
        dict and nothing else.
        """
        gens, A, layout = self.X.all_gens(), self.A, self.layout(0)
        pairs = {
            n: [tuple((x, e) for e in A.fibre(n, x).elements) for x in A.objects]
            for n in range(2, self._last_level + 1)
        }
        low = [(gens[pos], pos, A.objects if n == 0 else A.base.arrows) for pos, n, _ in layout if n < 2]
        high = [(gens[pos], pos, lead, pairs[n]) for pos, n, lead in layout if n >= 2]

        def decode(v):
            values = {g: table[v[pos]] for g, pos, table in low}
            for g, pos, lead, table in high:
                values[g] = table[v[lead]][v[pos]]
            return values

        return decode

    @cached_property
    def moves(self):
        """The moves of 1-fold homotopies on colouring keys (`homotopy._Moves`), built on first use.

        Kept on the plan, so every caller that moves keys on one plan shares
        one compilation.
        """
        from .homotopy import _Moves  # the homotopy layer is built on this module

        return _Moves(self)

    @cached_property
    def terms(self) -> list:
        """[(p, lead, n, terms)]: the cells c of dimension n = 2..truncation, at key positions p.

        `lead` is the position of c's leading vertex, and `terms` holds one
        (face, base, negative, twist) for each occurrence of a nondegenerate
        face in the homotopy addition word of c, in word order: the face's
        position and `base`, whether its sign is -1, and its `_twist`.  A
        k-fold homotopy h targeting a colouring f takes the word to the
        product, at level n + k - 1, of the terms h(face)^sign, each acted
        on by its twist of f (not when None).  k = 1 gives the other end of
        h, k = 2 its boundary.  For a 2-generator the derivation rule acts
        on a term by the edges after it, and first by its own inverse edge
        when its sign is negative; above, only the leading term is twisted,
        by the inverse leading edge.
        """
        X, comp, where = self.X, self._ops.comp, self.X.gen_index
        out = []
        for n in range(2, self._last_level + 1):
            for c in X.gens(n):
                word = hal_word(X, c)
                occurrences = []
                for j, (ref, sign, twist) in enumerate(word):
                    if ref.word:
                        continue  # degenerate: the homotopy is an identity there
                    if n == 2:
                        reads = [self._arrow_read(r, s) for r, s, _ in word[j + 1 :]]
                        if sign < 0:
                            reads.insert(0, self._arrow_read(ref, -1))
                    else:
                        reads = [self._arrow_read(r, s) for r, s in twist or ()]
                    face = where(ref.core)
                    occurrences.append((face, self.base[face], sign < 0, _twist(comp, reads)))
                out.append((where(c), where(self.lead[c]), n, occurrences))
        return out

    def walk(self, emit, fixed: dict | None = None) -> int:
        """The number of colourings extending `fixed`, handing each to `emit` if given.

        `emit` receives the list of value indices at `slots`, in canonical
        order, and the walk goes on to overwrite that list.  Forced slots are
        assigned in a loop; the walk branches only at the others.
        """
        return self._walk(emit, fixed or {}, False)

    def keys(self, fixed: dict | None = None) -> list:
        """The `colouring_key`s of the colourings extending `fixed`, in canonical order; none is decoded."""
        pad, out = (0,) * (len(self.X.all_gens()) - len(self.slots)), []
        self.walk(lambda v: out.append((*v, *pad)), fixed)
        return out

    def colourings(self, fixed: dict | None = None) -> list:
        """The colourings extending `fixed`, in canonical order."""
        X, A, decode, out = self.X, self.A, self._decode, []
        self.walk(lambda v: out.append(Colouring(X, A, decode(v))), fixed)
        return out

    def count(self, fixed: dict | None = None) -> int:
        """The number of colourings extending `fixed`; no colouring is built.

        Below the top level L = min(dim X, truncation) this is the walk.  At
        L >= 2 each of its leaves, an assignment of the levels below L,
        counts its completions at once (`_Top`): every free level-L slot
        ranges over a coset of the abelian group K = ker d_L, so they are the
        solutions of one affine system over K, counted from a Hermite normal
        form kept per fixed generator set and twist pattern.  At L = 1 the
        top level is a nonabelian groupoid, and the count walks it.
        """
        return self._walk(None, fixed or {}, self._last_level >= 2)

    def _walk(self, emit, fixed: dict, top: bool) -> int:
        """The backtracking walk, down to the top level's leaf count (`_Top`) if `top`."""
        pins = self._pins(fixed)
        if (v := pins.start(fixed)) is None:
            return 0
        domains, forced = pins.domains, pins.forced
        if top:
            checks, end, leaf = self._top.checks, self._top.start, pins.leaf
        else:
            checks, end, leaf = self._schedule[0], pins.end, None

        def walk(pos):
            while True:
                for test in checks[pos]:
                    if not test(v):
                        return 0
                if pos == end:
                    if emit is not None:
                        emit(v)
                    return 1 if leaf is None else leaf(v)
                force = forced[pos]
                if force is None:
                    break
                if (i := force(v)) is None:
                    return 0
                v[pos] = i
                pos += 1
            n = 0
            for i in domains[pos](v):
                v[pos] = i
                n += walk(pos + 1)
            return n

        return walk(0)

    @cached_property
    def _top(self) -> "_Top":
        return _Top(self)


_PIN_SETS = 64  # fixed generator sequences kept per plan; the cache starts again when full


def _encode_into(ops: _Ops, layout, values: dict, v: list, objects: dict) -> None:
    """Write the value index of values[g] to v[pos] for each (g, pos, n) of `layout`.

    n is the dimension of g; a level-n value, n >= 2, is a pair (object,
    element), and the index of its object goes to objects[pos].  An index
    is None where A lacks the value or its object.
    """
    obj, arr, index = ops.obj, ops.arr, ops.index
    for g, pos, n in layout:
        value = values[g]
        if n == 0:
            v[pos] = obj.get(value)
        elif n == 1:
            v[pos] = arr.get(value)
        else:
            x, e = value
            objects[pos] = x = obj.get(x)
            v[pos] = None if x is None else index[n][x].get(e)


class _Pins:
    """A sequence of fixed generators, compiled once for the walks of a plan.

    Nothing here depends on the fixed values, so a walk that fixes the same
    generators again only encodes and checks its values (`start`).

    - `layout`: (g, pos, n) for each fixed generator the walk assigns, of
      dimension n at position pos;
    - `checks`: the conditions on the fixed values that the fixed set fully
      determines, lowest dimension first, each raising `BoundaryError`: a
      vertex value must be an object, an edge whose ends are fixed must run
      between their values, and a level-n value whose faces are all fixed
      must have its label as boundary;
    - `leads`: (pos, lead) for each fixed level-n value, n >= 2, and the
      position of the leading vertex of its generator, whose value must be
      the value's object: `start` pins it there;
    - `domains`, `forced`: the walk's schedule with each pinned slot forced
      to the value `start` puts in place, where its old domain admits it;
    - `leaf`: the top-level count of `Plan.count` under these pins (`_Top`).
    """

    def __init__(self, plan: Plan, gens: tuple):
        X, where = plan.X, plan.X.gen_index
        for g in gens:
            if g not in X.dim_of:
                raise BoundaryError(f"fixed value on unknown generator {g!r}")
        self.plan, self.end = plan, len(plan.slots)
        self.layout = [(g, pos, X.dim_of[g]) for g in gens if (pos := where(g)) < self.end]
        self.leads = [(pos, where(plan.lead[g])) for g, pos, n in self.layout if n >= 2]
        given = set(gens)
        checks = (self._check(g, given) for g in sorted(gens, key=X.dim_of.__getitem__))
        self.checks = [check for check in checks if check is not None]
        _, domains, forced, _ = plan._schedule
        self.domains, self.forced = list(domains), list(forced)
        for pos in {pos for _, pos, _ in self.layout} | {lead for _, lead in self.leads}:
            self.domains[pos], self.forced[pos] = None, self._pin(pos, domains[pos], forced[pos])

    def _check(self, g, given: set):
        """(v, objects, fixed) -> None, raising `BoundaryError` if the fixed value at g fails; or None."""
        plan = self.plan
        X, ops, where = plan.X, plan._ops, plan.X.gen_index
        d, pos = X.dim_of[g], where(g)
        if d == 0:

            def check(v, objects, fixed):
                if v[pos] is None:
                    raise BoundaryError(f"vertex value {fixed[g]!r} is not an object")

            return check
        if d == 1:
            s, t = plan.ends[pos]
            if not {X.all_gens()[s], X.all_gens()[t]} <= given:
                return None
            src, tgt = ops.src, ops.tgt

            def check(v, objects, fixed):
                a = v[pos]
                if a is None or src[a] != v[s] or tgt[a] != v[t]:
                    raise BoundaryError(f"edge value at {g!r} has wrong endpoints")

            return check
        if d > plan.A.truncation or not plan.faces[g] <= given:
            return None
        lead, label, preimage = where(plan.lead[g]), plan._evaluators[g], plan._preimage[d]

        def check(v, objects, fixed):
            x = v[lead]
            if objects[pos] != x or v[pos] not in preimage[x][label(v)]:
                raise BoundaryError(f"value at {g!r} violates its boundary condition")

        return check

    @staticmethod
    def _pin(pos: int, domain, force):
        """v -> v[pos] where the slot's schedule entry admits it, else None."""
        if force is not None:
            return lambda v: v[pos] if force(v) == v[pos] else None
        return lambda v: v[pos] if v[pos] in domain(v) else None

    def start(self, fixed: dict) -> list | None:
        """The walk's first vector: the fixed values at their positions, checked.

        None when no colouring extends them: a fixed value that A lacks, or
        two values that disagree on the object of a leading vertex.
        """
        v, objects = [None] * self.end, {}
        _encode_into(self.plan._ops, self.layout, fixed, v, objects)
        for check in self.checks:
            check(v, objects, fixed)
        for _, pos, _ in self.layout:
            if v[pos] is None:
                return None
        for pos, lead in self.leads:
            if v[lead] is None:
                v[lead] = objects[pos]
            elif v[lead] != objects[pos]:
                return None
        return v

    @cached_property
    def leaf(self):
        return self.plan._top.leaf({pos for _, pos, _ in self.layout})


class _Top:
    """The top level L = min(dim X, truncation) >= 2 of a plan, counted by linear algebra.

    At a leaf of the walk below L, each level-L slot g ranges over the
    elements whose boundary is its label: a coset s.K of K = ker d_L at
    the image x of its leading vertex.  K is abelian (central in the fibre
    for L = 2), and the action carries it to itself.  An (L+1)-cell c asks
    for the unit as its label; with each value written s.k its label is
    label(s) times the sum of the k's of its faces, with their signs, the
    leading one acted on by the leading edge's inverse.  So the completions
    of a leaf are the solutions k of M.k = -label(s) over the product of the
    K's, M depending only on the objects and on the leading edges' actions
    on K (the twist pattern).  With K at each object written as a sum of
    cyclic groups Z/d (`_cyclic_basis`), they number |K|^free / |image M|
    when label(s) lies in the image lattice of [M | D], D holding the orders
    d, and none otherwise (`_hermite`).  label(s) lies in K, by the homotopy
    addition lemma one level down, as `Plan._solved` argues.

    - `start`, `checks`: the first level-L position and the walk's tests
      below it; the level-L tests at `start` ask for a non-empty preimage,
      which the leaf looks up anyway;
    - `slots[pos]`: (lead, label) of the level-L slot at pos, read on `v`;
    - `cells`: (lead, label) of each (L+1)-cell;
    - `terms[pos]`: (cell, sign, twist) for each occurrence of the slot at
      pos in a cell's word, twist being the `_arrow_read` of the arrow
      that acts on the leading term, else None;
    - `kernel[x]`: `_cyclic_basis` of K at the object x;
    - `twist_id[a]`: the number of the matrix of the arrow a on K.
    """

    def __init__(self, plan: Plan):
        X, ops, L = plan.X, plan._ops, plan._last_level
        where = X.gen_index
        self.start = start = sum(len(X.gens(n)) for n in range(L))
        self.checks = plan._schedule[0][:start] + [()]
        self.slots = {
            pos: (where(plan.lead[g]), plan._evaluators[g])
            for pos, g in enumerate(plan.slots)
            if pos >= start
        }
        self.preimage, self.act = plan._preimage[L], ops.act[L]
        flat = ops.ident if L == 2 else ops.unit[L - 1]
        self.kernel = [
            _cyclic_basis(
                [i for i, k in enumerate(bdry) if k == flat[x]], ops.mul[L][x], ops.finv[L][x], ops.unit[L][x]
            )
            for x, bdry in enumerate(ops.bdry[L])
        ]
        # with K trivial everywhere a label lies in K, so it is the unit: the cells ask nothing
        cells = X.gens(L + 1) if L < X.dim and any(gens for gens, _, _ in self.kernel) else ()
        self.cells = [(where(plan.lead[c]), plan._evaluators[c]) for c in cells]
        self.terms = {pos: [] for pos in self.slots}
        for i, c in enumerate(cells):
            for ref, sign, twist in hal_word(X, c):
                if not ref.word:
                    read = None if twist is None else plan._arrow_read(*twist[0])
                    self.terms[where(ref.core)].append((i, sign, read))
        ids: dict = {}
        self.twist_id = [
            ids.setdefault(tuple(self.kernel[t][2][act[g]] for g in self.kernel[s][0]), len(ids))
            for act, s, t in zip(self.act, ops.src, ops.tgt)
        ]
        self.one_form = len(ops.ident) == 1 and len(ids) == 1  # one normal form per pin set

    def leaf(self, pinned: set):
        """v -> the number of completions of v's levels below L, under the pinned level-L slots.

        Free slots take a coset representative, pinned ones keep their
        value and must lie in the preimage of their label.  The normal form
        of the system is built on first use for each twist pattern.
        """
        free = [(pos, *self.slots[pos]) for pos in self.slots if pos not in pinned]
        fixed = [(pos, *self.slots[pos]) for pos in self.slots if pos in pinned]
        cells, preimage = self.cells, self.preimage
        coords = [c for _, _, c in self.kernel]
        leads = sorted({lead for _, lead, _ in free} | {lead for lead, _ in cells})
        twists = [read for pos, _, _ in free for _, _, read in self.terms[pos] if read is not None]
        twist_id, one_form, forms = self.twist_id, self.one_form, {}

        def leaf(v):
            for pos, lead, label in free:
                row = preimage[v[lead]][label(v)]
                if not row:
                    return 0
                v[pos] = row[0]
            for pos, lead, label in fixed:
                if v[pos] not in preimage[v[lead]][label(v)]:
                    return 0
            b = []
            for lead, label in cells:
                c = coords[v[lead]].get(label(v))
                if c is None:
                    return 0
                b += c
            if one_form:
                key = None
            else:
                key = tuple(v[p] for p in leads), tuple(twist_id[_arrow(read, v)] for read in twists)
            form = forms.get(key)
            if form is None:
                form = forms[key] = self._form(v, free)
            pivots, weight = form
            for i, (d, g, below) in pivots:
                bi = b[i] % d
                if bi:
                    if bi % g:
                        return 0
                    q = bi // g
                    for j, h in below:
                        b[j] -= q * h
            return weight

        return leaf

    def _form(self, v: list, free: list) -> tuple:
        """(pivots, weight) of the system at v's objects and twists.

        pivots lists (i, (d, g, below)) for the rows i of the Hermite form
        that are not the unit row: d the row's order, g its pivot, below the
        pivot column's other entries (j, h).  weight is the number of
        solutions of a consistent system.
        """
        kernel, act = self.kernel, self.act
        rows = [kernel[v[lead]] for lead, _ in self.cells]
        offsets, moduli = [], []
        for _, orders, _ in rows:
            offsets.append(len(moduli))
            moduli += orders
        columns, size = [], 1
        for pos, lead, _ in free:
            gens, orders, _ = kernel[v[lead]]
            size *= prod(orders)
            for g in gens:
                column = [0] * len(moduli)
                for i, sign, read in self.terms[pos]:
                    e = g if read is None else act[_arrow(read, v)][g]
                    for k, c in enumerate(rows[i][2][e], offsets[i]):
                        column[k] += sign * c
                columns.append(column)
        pivots = _hermite(columns, moduli)
        weight = size * prod(g for _, g, _ in pivots) // prod(moduli)
        return [(i, p) for i, p in enumerate(pivots) if p[1] > 1 or p[2]], weight


def _arrow(read: tuple, v: list) -> int:
    """The arrow that an `_arrow_read` (position, table) gives on v."""
    k, table = read
    return v[k] if table is None else table[v[k]]


def _twist(comp, reads):
    """key -> the composite of the arrows that the `_arrow_read`s `reads` give on a colouring key.

    None when there are no reads, so the term is not acted on.
    """
    if not reads:
        return None
    (q0, t0), rest = reads[0], reads[1:]

    def arrow(key):
        a = key[q0] if t0 is None else t0[key[q0]]
        for q, t in rest:
            a = comp[a][key[q] if t is None else t[key[q]]]
        return a

    return arrow


def _cyclic_basis(K: list, mul: list, inv: list, unit: int) -> tuple:
    """(gens, orders, coords): the abelian group K as a sum of cyclic groups.

    K lists the members of a finite abelian subgroup, as indices into the
    group tables `mul` and `inv`.  K is the sum of the cyclic groups of the
    elements gens[i], of orders orders[i], and coords[e] gives the
    multiples (c_i), 0 <= c_i < orders[i], that sum to e.  Each generator
    is an element of the largest order modulo the span of those before it,
    h, with h^m = p in the span: every coordinate of p is then a multiple
    of m, and h / p^(1/m) has order m and meets the span only in the unit.
    """
    coords: dict = {unit: ()}
    gens, orders = [], []
    while len(coords) < len(K):
        best = 0
        for h in K:
            m, p = 1, h
            while p not in coords:
                p, m = mul[p][h], m + 1
            if m > best:
                best, top, power = m, h, p
        m, element = best, {c: e for e, c in coords.items()}
        assert all(c % m == 0 for c in coords[power])
        g = mul[top][inv[element[tuple(c // m for c in coords[power])]]]
        span = {}
        for e, c in coords.items():
            for j in range(m):
                span[e] = (*c, j)
                e = mul[e][g]
        coords = span
        gens.append(g)
        orders.append(m)
    return gens, orders, coords


def _xgcd(a: int, b: int) -> tuple:
    """(g, x, y) with g = gcd(a, b) = x.a + y.b."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return a, x0, y0


def _hermite(columns: list, moduli: list) -> list:
    """The Hermite form of the lattice spanned by `columns` and the columns d_i.e_i, d_i = moduli[i].

    Returns, for each row i, (d_i, g_i, below): the pivot g_i > 0, which
    divides d_i, and the pivot column's entries (j, h) at rows j > i, each
    reduced modulo d_j.  The pivot columns are a lower triangular basis of
    the lattice, which contains every d_i.e_i; so a vector b lies in it
    when, row by row, b_i is a multiple of g_i modulo d_i once the earlier
    pivot columns are taken off, and the lattice has index prod(g_i) in
    Z^rows.  Column operations are unimodular and entries stay reduced
    modulo the d_j whose columns are not yet used (Cohen 1993, 2.4.2).
    """
    rows = len(moduli)
    columns = [[c % d for c, d in zip(column, moduli)] for column in columns]
    columns = [column for column in columns if any(column)]
    out = []
    for i, d in enumerate(moduli):
        pivot = [0] * rows
        pivot[i] = d
        rest = []
        for column in columns:
            b = column[i]
            if b:
                a = pivot[i]
                g, x, y = _xgcd(a, b)
                p, q = b // g, a // g  # [[x, y], [p, -q]] has determinant -1
                for j in range(i + 1, rows):
                    s, t, m = pivot[j], column[j], moduli[j]
                    pivot[j], column[j] = (x * s + y * t) % m, (p * s - q * t) % m
                pivot[i], column[i] = g, 0
            if any(column):
                rest.append(column)
        columns = rest
        out.append((d, pivot[i], [(j, h) for j, h in enumerate(pivot[i + 1 :], i + 1) if h]))
    return out


def as_plan(X, A: CrossedComplex) -> Plan:
    """X compiled for A: X itself when it is a `Plan` for A, else `Plan(X, A)`."""
    if isinstance(X, Plan):
        if X.A is not A:
            raise ValueError("the plan was compiled for another algebra")
        return X
    return Plan(X, A)


def enumerate_colourings(X, A: CrossedComplex, fixed: dict | None = None):
    """All colourings of X by A, in canonical order.

    X is a `SimpSet`, a `Stratification` or a `Plan` of one for A.  `fixed`
    pins values on some generators; the result is the list of total
    colourings extending them.  Fixed values are checked first, and
    `BoundaryError` is raised for an unknown generator, a vertex value that
    is not an object, an edge value whose fixed ends disagree with it, or a
    value whose faces are all fixed and whose boundary is not their label.
    The search compiles (X, A) into a `Plan` for this call unless X is one,
    then assigns generators level by level in declaration order.  Each value
    is drawn from its domain (the objects, the arrows between the images of
    the edge's ends, or the boundary preimage of the generator's label) and
    each (n+1)-generator's label is tested as soon as its last n-face is
    set: it must lie in the boundary image below the truncation and be the
    identity just above it.  When that face occurs once in the label, it is
    solved for rather than tested: it takes only the values that the
    passing labels give it.  To walk one X for many fixed values, compile
    one `Plan` and call its `colourings`, `keys`, `count` or `walk`.
    """
    return as_plan(X, A).colourings(fixed)


def enumerate_relative(X, A: CrossedComplex, fixed: dict):
    """Colourings extending given values on disjoint tagged subcomplexes."""
    return Plan(X, A).colourings(fixed)


def restrict_colouring(col: Colouring, sub: SimpSet) -> Colouring:
    """Restriction to a subcomplex sharing generator ids with col.X."""
    vals = {g: col.values[g] for g in sub.all_gens() if g in col.values}
    return Colouring(sub, col.A, vals)
