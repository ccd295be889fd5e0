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

These labels depend on X alone, so (X, A) is compiled once into a `Plan`:
each generator's leading vertex, a label evaluator per generator whose faces
and twist edge are resolved to "value of a generator" or "identity at a
vertex", the schedule of label tests along the walk, arrows by (source,
target), the boundary preimages of each level and each slot's domain.
`Plan.colourings(fixed)` lists the colourings extending some fixed values
and `Plan.count(fixed)` counts them without building any.  Both run one
backtracking walk, which reads only the plan, after one check of the fixed
values.  `enumerate_colourings` and `enumerate_relative` compile a plan per
call; a caller that walks one X for many boundary values compiles it once.
The homotopy layer reads the same compilation: `Plan.terms` resolves the
homotopy addition word of each cell to slot reads once, `Plan.key_slots`
places each generator's value in its `colouring_key`, and `Plan.key_tables`
holds the operations of A on those value indices.  Every homotopy
addition word in the program is evaluated on a plan; `boundary_label`
compiles one per call, and `value_of_ref` reads a single simplex.
"""
from __future__ import annotations

from functools import cached_property

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
        levels: dict[str, dict] = {}
        verts = {}
        for g in self.X.all_gens():
            d = self.X.dim_of[g]
            if d >= 2 and d > self.A.truncation:
                continue
            if d == 0:
                verts[str(g)] = self.values[g]
            elif d == 1:
                levels.setdefault("1", {})[str(g)] = self.values[g]
            else:
                levels.setdefault(str(d), {})[str(g)] = self.values[g][1]
        return {"vertices": verts, "levels": levels}

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


class Plan:
    """(X, A) compiled once for any number of walks; nothing here depends on a colouring.

    X may be a `SimpSet` or a `Stratification`; `self.X` is the `SimpSet`.

    - `lead[g]`: the leading vertex of g;
    - `label[c](values)`: the homotopy addition label of c under `values`,
      for c of dimension >= 2;
    - `slots`: the walk order; `checks[pos]`: the label tests run on arrival
      at position pos;
    - `preimage[n][x]`: label -> [(x, e), ...] with that boundary, in fibre order;
    - `domains[pos](values)`: the admissible values at `slots[pos]`, given
      every earlier position;
    - `faces[c]`: the proper faces of c, for c of dimension 2..truncation;
    - `terms[c]`, `key_slots[g]`, `key_tables`: built on first use, for the
      homotopy layer.
    """

    def __init__(self, X, A: CrossedComplex):
        X = as_simpset(X)
        self.X, self.A = X, A
        trunc = A.truncation
        last_level = min(X.dim, trunc)
        top_constraint_dim = min(X.dim, trunc + 1)
        self.lead = {g: X.initial_vertex(g) for g in X.all_gens()}
        self._product: dict = {}
        self.preimage: dict = {}
        for n in range(2, last_level + 1):
            self.preimage[n] = {}
            for x in A.objects:
                index = self.preimage[n][x] = {}
                for e in A.fibre(n, x).elements:
                    index.setdefault(A.bdry_of(n, (x, e)), []).append((x, e))
        self.label = {
            c: self._evaluator(c) for n in range(2, X.dim + 1) for c in X.gens(n)
        }
        # the proper faces of each assigned cell, for the check of fixed values
        self.faces = {
            c: X.subcomplex_closure({c}) - {c} for n in range(2, last_level + 1) for c in X.gens(n)
        }
        # the walk visits levels 0..last_level in generator order; the label
        # test of an (n+1)-generator runs once its last n-face is assigned,
        # or on entry to level n when all its n-faces are degenerate
        self.slots = [g for n in range(last_level + 1) for g in X.gens(n)]
        self.checks: list = [[] for _ in range(len(self.slots) + 1)]
        pos = 0
        for n in range(last_level + 1):
            gens = X.gens(n)
            if 2 <= n + 1 <= top_constraint_dim:
                index = {g: pos + k + 1 for k, g in enumerate(gens)}
                for c in X.gens(n + 1):
                    faces = (X.face(c, i) for i in range(n + 2))
                    at = max((index[f.core] for f in faces if not f.word), default=pos)
                    self.checks[at].append(self._test(c))
            pos += len(gens)
        self.domains = [self._domain(g) for g in self.slots]

    def _reader(self, ref: SimplexRef, sign: int = 1):
        """(key, table): the value on ref is values[key], mapped through table if any.

        Degenerate faces and faces above the truncation read the identity at
        their leading vertex; a negative sign is folded into the table.
        """
        X, A = self.X, self.A
        d = X.ref_dim(ref)
        base = A.base
        if not ref.word and not (d >= 2 and d > A.truncation):
            if sign > 0:
                return ref.core, None
            if d == 1:
                return ref.core, base.inv_table
            return ref.core, {a: A.inv_elem(d, a) for a in A.level_elements(d)}
        key = X.initial_vertex(ref)
        if d == 1:
            table = base.ident if sign > 0 else {x: base.inv(i) for x, i in base.ident.items()}
        else:
            table = {x: A.pow_elem(d, A.identity_elem(d, x), sign) for x in A.objects}
        return key, table

    @cached_property
    def terms(self) -> dict:
        """c -> [(face, sign, reads)], for c of dimension n = 2..truncation.

        One entry for each occurrence of a nondegenerate face in the homotopy
        addition word of c, in word order, so a face that repeats appears
        once per occurrence.  A k-fold homotopy h targeting a colouring f
        takes the word to the product, at level n + k - 1, of the terms
        h(face)^sign, each acted on by the composite of the edge values that
        its `reads` give on f (no action when there are none).  k = 1 gives
        the other end of h, k = 2 its boundary.  For a 2-generator the
        derivation rule acts on a term by the edges after it, and first by
        its own inverse edge when its sign is negative; above, only the
        leading term is twisted, by the inverse leading edge.
        """
        X = self.X
        out = {}
        for n in range(2, min(X.dim, self.A.truncation) + 1):
            for c in X.gens(n):
                word = hal_word(X, c)
                out[c] = occurrences = []
                for j, (ref, sign, twist) in enumerate(word):
                    if ref.word:
                        continue  # degenerate: the homotopy is an identity there
                    if n == 2:
                        reads = [self._reader(r, s) for r, s, _ in word[j + 1 :]]
                        if sign < 0:
                            reads.insert(0, self._reader(ref, -1))
                    else:
                        reads = [self._reader(r, s) for r, s in twist or ()]
                    occurrences.append((ref.core, sign, tuple(reads)))
        return out

    @cached_property
    def key_slots(self) -> dict:
        """g -> (position, index): `colouring_key` holds index[v] at `position` when g has value v.

        Only generators of dimension up to max(1, truncation) are listed;
        higher ones are keyed 0 whatever the colouring.
        """
        X, A = self.X, self.A
        index = {
            0: {x: i for i, x in enumerate(A.objects)},
            1: {a: i for i, a in enumerate(A.base.arrows)},
        }
        for n in range(2, A.truncation + 1):
            index[n] = {(x, e): A.fibre(n, x).index(e) for x, e in A.level_elements(n)}
        return {
            g: (pos, index[X.dim_of[g]])
            for pos, g in enumerate(X.all_gens())
            if X.dim_of[g] in index
        }

    @cached_property
    def key_tables(self) -> tuple:
        """(comp, act, mul): the operations of A on the value indices of `key_slots`.

        - `comp[a][b]`: the index of the composite of the arrows indexed a
          then b, None when they do not compose;
        - `act[n][a][i]`, n >= 2: the index, in the fibre at the target of
          the arrow a, of the level-n element of index i at its source acted
          on by a;
        - `mul[n][a][i][j]`: the index of the product of the elements of
          indices i and j in the level-n fibre at the target of the arrow a.
        """
        A, base = self.A, self.A.base
        arr = {a: i for i, a in enumerate(base.arrows)}
        comp = [[None] * len(arr) for _ in arr]
        for (a, b), c in base.comp_table.items():
            comp[arr[a]][arr[b]] = arr[c]
        act, mul = {}, {}
        for n in range(2, A.truncation + 1):
            fibre = {x: A.fibre(n, x) for x in A.objects}
            table = {
                x: [[F.index(F.mul(e1, e2)) for e2 in F.elements] for e1 in F.elements]
                for x, F in fibre.items()
            }
            act[n] = [
                [
                    fibre[base.tgt[a]].index(A.act[n][(base.src[a], e), a])
                    for e in fibre[base.src[a]].elements
                ]
                for a in base.arrows
            ]
            mul[n] = [table[base.tgt[a]] for a in base.arrows]
        return comp, act, mul

    def _evaluator(self, c):
        """values -> the homotopy addition label of c, for c of dimension >= 2."""
        X, A = self.X, self.A
        n = X.dim_of[c]
        terms = hal_word(X, c)
        comp = A.base.comp_table
        if n == 2:
            (k0, t0), (k1, t1), (k2, t2) = (self._reader(r, s) for r, s, _ in terms)

            def label(vals):
                a0 = vals[k0] if t0 is None else t0[vals[k0]]
                a1 = vals[k1] if t1 is None else t1[vals[k1]]
                a2 = vals[k2] if t2 is None else t2[vals[k2]]
                return comp[comp[a0, a1], a2]

            return label
        m, lead = n - 1, self.lead[c]
        if m > A.truncation:
            ident = {x: A.identity_elem(m, x) for x in A.objects}
            return lambda vals: ident[vals[lead]]
        # hal_word twists its leading term, of sign +1, by the inverse leading edge
        (ref0, _, ((edge, sign),)), rest = terms[0], terms[1:]
        k0, t0 = self._reader(ref0)
        k1, t1 = self._reader(edge, sign)
        rest = [self._reader(r, s) for r, s, _ in rest]
        act = A.act[m]
        if m not in self._product:
            self._product[m] = {
                x: {(a, b): F.mul(a, b) for a in F.elements for b in F.elements}
                for x, F in ((x, A.fibre(m, x)) for x in A.objects)
            }
        product = self._product[m]

        def label(vals):
            x = vals[lead]
            mul = product[x]
            arrow = vals[k1] if t1 is None else t1[vals[k1]]
            out = act[(vals[k0] if t0 is None else t0[vals[k0]]), arrow]
            for key, table in rest:
                out = mul[out, (vals[key] if table is None else table[vals[key]])[1]]
            return x, out

        return label

    def _test(self, c):
        """values -> whether the boundary condition at c can be (or is) met."""
        A = self.A
        n, lead, label = self.X.dim_of[c], self.lead[c], self.label[c]
        if n == A.truncation + 1:
            if n == 2:
                flat = A.base.ident
            else:
                flat = {x: A.identity_elem(n - 1, x) for x in A.objects}
            return lambda vals: label(vals) == flat[vals[lead]]
        image = self.preimage[n]
        return lambda vals: label(vals) in image[vals[lead]]

    def _domain(self, g):
        """values -> the admissible values at g, given every earlier position."""
        X, A = self.X, self.A
        n = X.dim_of[g]
        if n == 0:
            objects = A.objects
            return lambda vals: objects
        if n == 1:
            s, t = X.edge_ends(g)
            between = A.base.ends[2]  # the base groupoid's arrows by (source, target)
            return lambda vals: between.get((vals[s], vals[t]), ())
        lead, label, preimage = self.lead[g], self.label[g], self.preimage[n]
        return lambda vals: preimage[vals[lead]].get(label(vals), ())

    def _check_fixed(self, fixed: dict):
        """Reject fixed values that cannot be part of a colouring.

        Only conditions fully determined by the fixed set are checked, so
        partial (non-face-closed) data passes through to the walk.
        """
        X, A = self.X, self.A
        for g in fixed:
            if g not in X.dim_of:
                raise BoundaryError(f"fixed value on unknown generator {g!r}")
        objs = set(A.objects)
        for g, v in fixed.items():
            if X.dim_of[g] == 0 and v not in objs:
                raise BoundaryError(f"vertex value {v!r} is not an object")
        for g, v in fixed.items():
            d = X.dim_of[g]
            if d == 1:
                s, t = X.edge_ends(g)
                if s in fixed and t in fixed:
                    if A.base.src.get(v) != fixed[s] or A.base.tgt.get(v) != fixed[t]:
                        raise BoundaryError(f"edge value at {g!r} has wrong endpoints")
            elif 2 <= d <= A.truncation and self.faces[g] <= fixed.keys():
                if A.bdry_of(d, v) != self.label[g](fixed):
                    raise BoundaryError(f"value at {g!r} violates its boundary condition")

    def _walk(self, fixed: dict, emit) -> int:
        """The number of colourings extending `fixed`; each goes to `emit` if given."""
        if fixed:
            self._check_fixed(fixed)
        slots, checks, domains = self.slots, self.checks, list(self.domains)
        for pos, g in enumerate(slots):
            if g in fixed:
                domain, v = domains[pos], fixed[g]
                domains[pos] = lambda vals, domain=domain, v=v: [a for a in domain(vals) if a == v]
        end = len(slots)
        values: dict = {}

        def walk(pos):
            for test in checks[pos]:
                if not test(values):
                    return 0
            if pos == end:
                if emit is not None:
                    emit(values)
                return 1
            g, n = slots[pos], 0
            for v in domains[pos](values):
                values[g] = v
                n += walk(pos + 1)
            values.pop(g, None)
            return n

        return walk(0)

    def colourings(self, fixed: dict | None = None) -> list:
        """The colourings extending `fixed`, in canonical order."""
        X, A, out = self.X, self.A, []
        self._walk(fixed or {}, lambda values: out.append(Colouring(X, A, dict(values))))
        return out

    def count(self, fixed: dict | None = None) -> int:
        """The number of colourings extending `fixed`; no colouring is built."""
        return self._walk(fixed or {}, None)


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
    identity just above it.  To walk one X for many fixed values, compile
    one `Plan` and call its `colourings` or `count`.
    """
    return as_plan(X, A).colourings(fixed)


def enumerate_relative(X, A: CrossedComplex, fixed: dict):
    """Colourings extending given values on disjoint tagged subcomplexes."""
    return Plan(X, A).colourings(fixed)


def restrict_colouring(col: Colouring, sub: SimpSet) -> Colouring:
    """Restriction to a subcomplex sharing generator ids with col.X."""
    vals = {g: col.values[g] for g in sub.all_gens() if g in col.values}
    return Colouring(sub, col.A, vals)
