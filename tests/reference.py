"""Reference evaluations and the paths the program replaced, kept as oracles.

The program evaluates every homotopy addition word on colouring keys, with
the terms and integer tables that a `Plan` of (X, A) compiles once.  The
functions first here evaluate the same words again from the simplicial set
itself: each face, degeneracy and twist edge is looked up through its
`SimplexRef` on every call.  They are the oracles of the compiled paths:
`boundary_label` of `Plan.label`, `apply_homotopy` of the moves of
`homotopy._Moves` and `delta2` of `homotopy._delta2`.  `compose_homotopies`
composes cell values one generator at a time, the oracle of
`homotopy._compose_keys`, which composes keys.  Oracle loops call these, not
the public wrappers, which compile a plan per call.

Whole homotopies on values dicts, as the program evaluated them before
keys: `sequence_domains`, `enumerate_sequences`, `identity_sequence` and
`expand_sequence` build `HomotopySequence`s, `_apply` and `_delta2` evaluate
the dict form of `Plan.terms` (`terms`), and `crs_pi1` and `holonomy_act`
run on them: the oracles of `homotopy.crs_pi1`'s key enumeration and of the
profunctor transports.  `_base_vertex` reads a value's base vertex from the
faces, the oracle of `Plan.base`.  `crs_pi1_per_entry` is that key
enumeration with one `_compose_keys` per table entry: the oracle of the
table that `homotopy.crs_pi1` builds from vertex groups.

Also here: test-only checks that build on them (`is_valid_colouring`,
`crs_homotopy_content`, `decategorified_matrix`).

The groupoid and Morita section keeps the code that found incident
arrows and composable pairs by scanning every arrow, or every pair of
arrows, and filtering: the oracles of `FinGroupoid.ends`, of the walks of
the composition table, of `FinGroupoid.validate` (`validate_groupoid`, on
the table the caller gave, or on `table_of` a groupoid given `products`)
and of `tensor_over`'s balancing over the middle elements that act, and
`validate_left_action`, which scans every group element, the oracle of the
check on a generating sequence, and `crossed_module_validate`, the axioms
of a crossed module checked on its own tables, the oracle of validating
the complex it presents.  The Morita oracles hold an algebra as
linear rows (a, b) -> {a b: 1} (`DictAlgebra`, whose `validate` scans every
triple); `dict_algebra` decodes `morita.Algebra`'s index rows to that form
and `index_algebra` encodes it back.  `tensor_over` and `bimodule_validate`
read a bimodule's actions as linear tables on (algebra element, basis
element) pairs; `pair_keyed_bimodule` flattens `morita`'s maps per algebra
element to that form.

The colouring walk on values (`DictPlan`), with its dict-based labels, tests
and domains, is the oracle of `Plan`'s walk on value indices.

The last section keeps relative classes by dict moves (`rel_classes`, with
`_stars`, `_mover`, `_moved_key` and `key_slots`), the profunctor of a
cobordism with one `holonomy_act` per (boundary arrow, basis element)
(`cobordism_profunctor`), the coend linked along every middle arrow
(`compose_profunctors`) and the naturality check over every pair of arrows
(`naturality_check`): the oracles of the key-vector moves, the transports by
Schreier composition, the coend linked along generators and the check on
generating squares.  These two profunctor oracles keep each action as one
dict on (arrow, element) pairs; `pair_keyed` flattens the program's maps
per arrow to that form.  `window_frame` reads a window's frame from a whole
top and bottom filling, the oracle of the frame read in parts per boundary
pair.
"""
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product

from quinncalc.colouring import (
    Colouring,
    Plan,
    as_plan,
    as_simpset,
    colouring_key,
    hal_word,
    value_of_ref,
)
from quinncalc.errors import BoundaryError
from quinncalc.extprof import Profunctor, _frame_map
from quinncalc.finalg.groupoids import FinGroupoid, partition
from quinncalc.finalg.groups import ValidationReport, _generating_sequence, find_group_iso
from quinncalc.homotopy import (
    CrsResult,
    HomotopySequence,
    _compose_keys,
    _compose_tables,
    _delta2 as _key_delta2,
    _homotopy_slots,
    _invert_key,
    _sequence,
)
from quinncalc.morita import Algebra, Bimodule, _addinto
from quinncalc.tqft import theta_weight

# -- colourings ----------------------------------------------------------------------


def eval_edge_word(X, A, values: dict, word):
    """Compose edge values along a word of (edge ref, sign) pairs."""
    out = None
    for ref, sign in word:
        a = value_of_ref(X, A, values, ref)
        if sign < 0:
            a = A.base.inv(a)
        out = a if out is None else A.base.comp(out, a)
    return out


def boundary_label(X, A, values: dict, c):
    """The homotopy addition label of the n-generator c, n >= 2."""
    n = X.dim_of[c]
    if n < 2:
        raise ValueError("labels are defined for generators of dimension >= 2")
    terms = hal_word(X, c)
    if n == 2:
        word = [(ref, sign) for ref, sign, _ in terms]
        return eval_edge_word(X, A, values, word)
    out = None
    for ref, sign, twist in terms:
        v = value_of_ref(X, A, values, ref)
        if twist is not None:
            arrow = eval_edge_word(X, A, values, twist)
            v = A.act_elem(n - 1, v, arrow)
        v = A.pow_elem(n - 1, v, sign)
        out = v if out is None else A.mul(n - 1, out, v)
    return out


def is_valid_colouring(col: Colouring) -> bool:
    X, A, values = col.X, col.A, col.values
    for g in X.all_gens():
        d = X.dim_of[g]
        if d == 0:
            if values[g] not in set(A.objects):
                return False
        elif d == 1:
            s, t = X.edge_ends(g)
            a = values[g]
            if A.base.src[a] != values[s] or A.base.tgt[a] != values[t]:
                return False
        elif d <= A.truncation:
            base = values[X.initial_vertex(g)]
            x, e = values[g]
            if x != base or e not in A.fibre(d, base):
                return False
            if A.bdry_of(d, values[g]) != boundary_label(X, A, values, g):
                return False
    n = A.truncation + 1
    if n <= X.dim:
        for g in X.gens(n):
            base = values[X.initial_vertex(g)]
            label = boundary_label(X, A, values, g)
            trivial = A.base.ident[base] if n == 2 else A.identity_elem(n - 1, base)
            if label != trivial:
                return False
    return True


# -- homotopies ----------------------------------------------------------------------


def _h_of_ref(H: HomotopySequence, ref):
    """Value of the (free) homotopy on a possibly degenerate simplex, dim >= 1."""
    X, A, f = H.target.X, H.target.A, H.target
    d = X.ref_dim(ref)
    if ref.word:
        return A.identity_elem(d + H.k, f.values[X.initial_vertex(ref)])
    if d + H.k > A.truncation:
        return _identity(f, ref.core, H.k)
    return H.values[ref.core]


def _h_on_edge_word(H: HomotopySequence, word):
    """Derivation rule along a word of (edge ref, sign) pairs.

    h(g g') = (h(g) <| f(g')) . h(g'),  h(g^-1) = h(g)^-1 <| f(g)^-1.
    """
    X, A, f = H.target.X, H.target.A, H.target
    level = 1 + H.k
    out = None
    for ref, sign in word:
        fg = value_of_ref(X, A, f.values, ref)
        hg = _h_of_ref(H, ref)
        if sign > 0:
            if out is None:
                out = hg
            else:
                out = A.mul(level, A.act_elem(level, out, fg), hg)
        else:
            inv_part = A.inv_elem(level, hg)
            if out is None:
                out = A.act_elem(level, inv_part, A.base.inv(fg))
            else:
                out = A.act_elem(level, A.mul(level, out, inv_part), A.base.inv(fg))
    if out is None:
        raise ValueError("empty edge word")
    return out


def _h_on_hal(H: HomotopySequence, c):
    """Value of the homotopy on the boundary word of an n-generator, n >= 2."""
    X, A, f = H.target.X, H.target.A, H.target
    n = X.dim_of[c]
    terms = hal_word(X, c)
    if n == 2:
        return _h_on_edge_word(H, [(ref, sign) for ref, sign, _ in terms])
    level = (n - 1) + H.k
    out = None
    for ref, sign, twist in terms:
        v = _h_of_ref(H, ref)
        if twist is not None:
            arrow = eval_edge_word(X, A, f.values, twist)
            v = A.act_elem(level, v, arrow)
        v = A.pow_elem(level, v, sign)
        out = v if out is None else A.mul(level, out, v)
    return out


def apply_homotopy(H: HomotopySequence, f: Colouring) -> Colouring:
    """The other end of a 1-fold homotopy targeting f."""
    if H.k != 1:
        raise ValueError("only 1-fold homotopies connect colourings")
    if f is not H.target and f.values != H.target.values:
        raise ValueError("homotopy does not target this colouring")
    X, A, h = f.X, f.A, H.values
    out: dict = {}
    for v in X.gens(0):
        out[v] = A.base.src[h[v]]
    for e in X.gens(1):
        sv, tv = X.edge_ends(e)
        mid = f.values[e]
        if e in h:
            mid = A.base.comp(mid, A.bdry_of(2, h[e]))
        out[e] = A.base.comp(A.base.comp(h[sv], mid), A.base.inv(h[tv]))
    for n in range(2, min(X.dim, A.truncation) + 1):
        for c in X.gens(n):
            val = A.mul(n, f.values[c], _h_on_hal(H, c))
            if c in h:
                val = A.mul(n, val, A.bdry_of(n + 1, h[c]))
            out[c] = A.act_elem(n, val, A.base.inv(h[X.initial_vertex(c)]))
    return Colouring(X, A, out)


def compose_homotopies(first: HomotopySequence, second: HomotopySequence) -> HomotopySequence:
    """Composite of the arrows `first` then `second`, checked by `apply_homotopy` here.

    The values are composed one generator at a time on the cell values, the
    oracle of `homotopy._compose_keys`, which composes keys on index tables.
    """
    if first.target.values != apply_homotopy(second, second.target).values:
        raise ValueError("homotopies are not composable")
    f = second.target
    X, A = f.X, f.A
    values = {}
    for g, h in second.values.items():
        i = X.dim_of[g]
        if i == 0:
            values[g] = A.base.comp(first.values[g], h)
        else:
            twisted = A.act_elem(i + 1, first.values[g], second.values[_base_vertex(X, g)])
            values[g] = A.mul(i + 1, h, twisted)
    return HomotopySequence(1, f, values)


def invert_homotopy(H: HomotopySequence) -> HomotopySequence:
    """The inverse arrow, its target found by `apply_homotopy` here."""
    return _invert(H, apply_homotopy(H, H.target))


def delta2(H2: HomotopySequence) -> HomotopySequence:
    """Boundary of a 2-fold homotopy: an endo-arrow at its target."""
    if H2.k != 2:
        raise ValueError("expected a 2-fold homotopy")
    X, A, f = H2.target.X, H2.target.A, H2.target
    h = H2.values
    values = {}
    for v in X.gens(0):
        values[v] = A.bdry_of(2, h[v]) if v in h else _identity(f, v, 1)
    if A.truncation >= 2:
        for e in X.gens(1):
            sv, tv = X.edge_ends(e)
            term = A.act_elem(2, A.inv_elem(2, h[sv]), f.values[e])
            term = A.mul(2, term, h[tv])
            if e in h:
                term = A.mul(2, term, A.bdry_of(3, h[e]))
            values[e] = term
    for n in range(2, min(X.dim, A.truncation - 1) + 1):
        for c in X.gens(n):
            term = A.bdry_of(n + 2, h[c]) if c in h else _identity(f, c, 1)
            lower = _h_on_hal(H2, c)
            values[c] = A.mul(n + 1, term, A.pow_elem(n + 1, lower, (-1) ** n))
    return HomotopySequence(1, f, values)


# -- whole homotopies on values dicts, as the program evaluated them before keys ---------


def _base_vertex(X, g):
    """The vertex over whose image a homotopy value at the generator g lies.

    A vertex is its own base, an edge is based at its target vertex d0, and
    a higher generator at its leading vertex: the oracle of `Plan.base`.
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


def sequence_domains(X, A, f: Colouring, k: int, fixed_identity=()):
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


def expand_sequence(seq: HomotopySequence, X, target: Colouring) -> HomotopySequence:
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


def _reader(X, A, ref, sign: int = 1):
    """(key, table): the value on ref is values[key], mapped through table if any.

    Degenerate faces and faces above the truncation read the identity at
    their leading vertex; a negative sign is folded into the table.
    """
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


@lru_cache(maxsize=32)
def terms(plan) -> dict:
    """`Plan.terms` with reads of values dicts: (generator, dict table) in place of (position, table)."""
    X, A = plan.X, plan.A
    out = {}
    for n in range(2, min(X.dim, A.truncation) + 1):
        for c in X.gens(n):
            word = hal_word(X, c)
            out[c] = occurrences = []
            for j, (ref, sign, twist) in enumerate(word):
                if ref.word:
                    continue  # degenerate: the homotopy is an identity there
                if n == 2:
                    reads = [_reader(X, A, r, s) for r, s, _ in word[j + 1 :]]
                    if sign < 0:
                        reads.insert(0, _reader(X, A, ref, -1))
                else:
                    reads = [_reader(X, A, r, s) for r, s in twist or ()]
                occurrences.append((ref.core, sign, tuple(reads)))
    return out


@lru_cache(maxsize=32)
def key_slots(plan) -> dict:
    """g -> (position, index): `colouring_key` holds index[v] at `position` when g has value v.

    Only generators of dimension up to max(1, truncation) are listed;
    higher ones are keyed 0 whatever the colouring.
    """
    X, A = plan.X, plan.A
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


def _arrow(comp: dict, reads, f: dict):
    """The composite of the edge values that `reads` give on f; None when there are none."""
    out = None
    for key, table in reads:
        a = f[key] if table is None else table[f[key]]
        out = a if out is None else comp[out, a]
    return out


def _term(A, n: int, h, sign: int, arrow):
    """h^sign acted on by arrow (if any), at level n."""
    if sign < 0:
        h = A.inv_elem(n, h)
    return h if arrow is None else A.act_elem(n, h, arrow)


def _apply(plan, f: dict, h: dict) -> dict:
    """The values of the other end of the 1-fold homotopy h, which targets f, on the dict terms."""
    X, A = plan.X, plan.A
    comp, inv = table_of(A.base), A.base.inv_table
    out = {v: A.base.src[h[v]] for v in X.gens(0)}
    for e in X.gens(1):
        s, t = X.edge_ends(e)
        mid = f[e] if e not in h else comp[f[e], A.bdry_of(2, h[e])]
        out[e] = comp[comp[h[s], mid], inv[h[t]]]
    for c, occurrences in terms(plan).items():
        n = X.dim_of[c]
        val = f[c]
        for face, sign, reads in occurrences:
            val = A.mul(n, val, _term(A, n, h[face], sign, _arrow(comp, reads, f)))
        if c in h:
            val = A.mul(n, val, A.bdry_of(n + 1, h[c]))
        out[c] = A.act_elem(n, val, inv[h[plan.lead[c]]])
    return out


def _delta2(plan, f: dict, h: dict) -> dict:
    """The values of the boundary of the 2-fold homotopy h at f, on the dict terms."""
    X, A = plan.X, plan.A
    comp = table_of(A.base)
    out = {v: A.bdry_of(2, h[v]) if v in h else A.base.ident[f[v]] for v in X.gens(0)}
    if A.truncation >= 2:
        for e in X.gens(1):
            s, t = X.edge_ends(e)
            val = A.mul(2, A.act_elem(2, A.inv_elem(2, h[s]), f[e]), h[t])
            if e in h:
                val = A.mul(2, val, A.bdry_of(3, h[e]))
            out[e] = val
    for c, occurrences in terms(plan).items():
        n = X.dim_of[c]
        if n >= A.truncation:
            continue
        unit = A.identity_elem(n + 1, f[plan.lead[c]])
        lower = unit
        for face, sign, reads in occurrences:
            lower = A.mul(n + 1, lower, _term(A, n + 1, h[face], sign, _arrow(comp, reads, f)))
        val = A.bdry_of(n + 2, h[c]) if c in h else unit
        out[c] = A.mul(n + 1, val, A.pow_elem(n + 1, lower, (-1) ** n))
    return out


def _invert(H: HomotopySequence, src: Colouring) -> HomotopySequence:
    """The inverse of H, given its source `src`, value by value."""
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


def holonomy_act(X, A, boundary_gens, eta: HomotopySequence, filling: Colouring) -> Colouring:
    """Transport a filling along a boundary homotopy, by identity expansion.

    X is a `SimpSet`, a `Stratification` or a `Plan` of one for A.  `eta`
    targets the restriction of `filling` to the boundary subcomplex; the
    result restricts to the other end of `eta`.  The whole colouring is
    evaluated by `_apply` and built.
    """
    plan = as_plan(X, A)
    X = plan.X
    for g in boundary_gens:
        if X.dim_of[g] + 1 > A.truncation:
            continue
        if eta.target.values[g] != filling.values[g]:
            raise ValueError("boundary homotopy does not target the filling's restriction")
    H = expand_sequence(eta, X, filling)
    return Colouring(X, A, _apply(plan, filling.values, H.values))


def crs_pi1(X, A) -> CrsResult:
    """`homotopy.crs_pi1` as it ran on values dicts: the oracle of its walk over keys.

    Every 1-fold and 2-fold homotopy is enumerated as a `HomotopySequence`
    (`enumerate_sequences`) and keyed with `colouring_key`; other ends come
    from `_apply`, boundaries from `_delta2` and inverses from `_invert`, on
    the dict terms.  Orbits and the table are composed on keys, as there.
    """
    plan = Plan(X, A)
    X = plan.X
    colourings = plan.colourings()
    fkeys = [c.key() for c in colourings]
    index = {k: i for i, k in enumerate(fkeys)}
    tables = _compose_tables(plan)
    delta_keys = {}
    for ti, f in enumerate(colourings):
        keys = delta_keys[ti] = []
        for H2 in enumerate_sequences(X, A, f, 2):
            k = HomotopySequence(1, f, _delta2(plan, f.values, H2.values)).key()
            if k not in keys:
                keys.append(k)
    arrows = []
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
    ident = {}
    for ti, f in enumerate(colourings):
        ident[ti] = classes[ti][identity_sequence(f).key()]
    inv = {}
    for a in arrows:
        rep = _sequence(plan, colourings[a[1]], a[2])
        inv[a] = classes[a[0]][_invert(rep, colourings[a[0]]).key()]
    G = _groupoid_per_entry(X, tables, arrows, classes, ident, inv)
    return CrsResult(plan, fkeys, G, delta_keys, tables)


def _groupoid_per_entry(X, tables, arrows, classes, ident, inv) -> FinGroupoid:
    """The groupoid of `crs_pi1` with its table filled one `_compose_keys` per entry.

    `classes[t]` maps each homotopy key targeting the object t to its arrow.
    """
    src = {a: a[0] for a in arrows}
    tgt = {a: a[1] for a in arrows}
    objects = tuple(range(len(classes)))
    leaving = {}
    for b in arrows:
        leaving.setdefault(b[0], []).append((b, b[2], classes[b[1]]))
    comp = {}
    for a in arrows:
        ka = a[2]
        for b, kb, classes_b in leaving[a[1]]:
            comp[(a, b)] = classes_b[_compose_keys(tables, ka, kb)]
    return FinGroupoid(objects, tuple(arrows), src, tgt, comp, ident, inv, name=f"pi1CRS({X.name})")


def crs_pi1_per_entry(X, A) -> CrsResult:
    """`homotopy.crs_pi1` as it filled its table: one `_compose_keys` per table entry.

    The same key enumeration of arrows, identities and boundaries; each
    entry a . b is the class of the composite of the representatives, and
    each inverse the class of `_invert_key`.  The oracle of the table and
    inverses that `homotopy.crs_pi1` reads from the vertex groups.
    """
    plan = Plan(X, A)
    X = plan.X
    fkeys = [c.key() for c in plan.colourings()]
    index = {k: i for i, k in enumerate(fkeys)}
    tables = _compose_tables(plan)
    ones, twos = _homotopy_slots(plan, 1), _homotopy_slots(plan, 2)
    boundary, move, size = _key_delta2(plan), plan.moves.everywhere, len(X.all_gens())

    def homotopies(slots, f):  # the key holds 0 after the slots
        return product(*(dom[f[y]] for y, dom, _ in slots), *[(0,)] * (size - len(slots)))

    delta_keys = {
        ti: list(dict.fromkeys(boundary(f, h) for h in homotopies(twos, f))) for ti, f in enumerate(fkeys)
    }
    arrows = []
    classes = [{} for _ in fkeys]  # target index -> {homotopy key: arrow id}
    for ti, f in enumerate(fkeys):
        for hk in homotopies(ones, f):
            if hk in classes[ti]:
                continue
            keys = sorted(_compose_keys(tables, hk, dk) for dk in delta_keys[ti])
            aid = (index[move(f, hk)], ti, keys[0])
            for k in keys:
                classes[ti][k] = aid
            arrows.append(aid)
    ident = {
        ti: classes[ti][(*(u[f[y]] for y, _, u in ones), *(0,) * (size - len(ones)))]
        for ti, f in enumerate(fkeys)
    }
    inv = {a: classes[a[0]][_invert_key(tables, a[2])] for a in arrows}
    G = _groupoid_per_entry(X, tables, arrows, classes, ident, inv)
    return CrsResult(plan, fkeys, G, delta_keys, tables)


# -- invariants ------------------------------------------------------------------------


def crs_homotopy_content(X, A) -> Fraction:
    """Homotopy content of the colouring complex, via homotopy group orders.

    Only valid when 3-fold homotopies are forced trivial (truncation <= 2),
    which covers every corpus algebra; the level-2 homotopy group is then
    the kernel of the 2-fold boundary.
    """
    if A.truncation > 2:
        raise NotImplementedError("homotopy-group path implemented for truncation <= 2")
    crs = crs_pi1(X, A)
    total = Fraction(0)
    for comp in crs.components():
        rep = comp[0]
        f = crs.colourings[rep]
        pi1 = len(crs.groupoid.arrows_between(rep, rep))
        pi2 = 0
        ident_key = identity_sequence(f).key()
        for H2 in enumerate_sequences(X, A, f, 2):
            if delta2(H2).key() == ident_key:
                pi2 += 1
        total += Fraction(pi2, pi1)
    return total


def decategorified_matrix(P, M, A) -> list:
    """Class-pair matrix of filling counts weighted as the state sum at s=0."""
    theta_rel = theta_weight(M.simpset, A, M.boundary_gens())
    theta_out = theta_weight(M.simpset.restrict(M.tagged("out")), A)
    lcomps = P.left.components()
    rcomps = P.right.components()
    out = []
    for lc in lcomps:
        row = []
        for rc in rcomps:
            li, ri = lc[0], rc[0]
            n = sum(P.sizes[b] for b in P.basis[(li, ri)])
            row.append(n * theta_rel * len(rc) * theta_out)
        out.append(row)
    return out


# -- groupoid incidence and the Morita layer, by scanning every arrow -----------------


def arrows_from(G, x):
    return tuple(a for a in G.arrows if G.src[a] == x)


def arrows_into(G, x):
    return tuple(a for a in G.arrows if G.tgt[a] == x)


def arrows_between(G, x, y):
    return tuple(a for a in G.arrows if G.src[a] == x and G.tgt[a] == y)


@lru_cache(maxsize=16)
def table_of(G) -> dict:
    """{(a, b): a then b} from a groupoid's `products`, in arrow-major order, missing
    entries left out: the table a caller would give for a groupoid given `products`, and
    the dict the oracles below look composites up in.  Shared between calls: read only."""
    ids = G.arrows
    return {
        (ids[i], ids[j]): ids[k]
        for i, js, ks in G.comp_rows()
        for j, k in zip(js, ks)
        if k is not None
    }


def validate_groupoid(G, table: dict) -> ValidationReport:
    """`FinGroupoid.validate` of G with the composition table `table`, as the caller
    gave it, testing every pair of arrows for composability, and reading a . b again
    for each c in the associativity check."""
    objs = set(G.objects)
    for a in G.arrows:
        if G.src.get(a) not in objs or G.tgt.get(a) not in objs:
            return ValidationReport.malformed("dangling arrow endpoints", (a,))
    arrows = set(G.arrows)
    for (a, b), c in table.items():
        if not {a, b, c} <= arrows:
            return ValidationReport.malformed("composition names an unknown arrow", (a, b, c))
    for a, b in G.inv_table.items():
        if not {a, b} <= arrows:
            return ValidationReport.malformed("inverse names an unknown arrow", (a, b))
    for x in G.objects:
        e = G.ident.get(x)
        if e is None or G.src.get(e) != x or G.tgt.get(e) != x:
            return ValidationReport.malformed("missing or misplaced identity", (x,))
    for a in G.arrows:
        for b in G.arrows:
            defined = (a, b) in table
            composable = G.tgt[a] == G.src[b]
            if defined != composable:
                return ValidationReport.malformed("composition defined iff tgt=src", (a, b))
            if defined:
                c = table[(a, b)]
                if G.src.get(c) != G.src[a] or G.tgt.get(c) != G.tgt[b]:
                    return ValidationReport.axiom("composite endpoints wrong", (a, b, c))
    for a in G.arrows:
        x, y = G.src[a], G.tgt[a]
        if table.get((G.ident[x], a)) != a or table.get((a, G.ident[y])) != a:
            return ValidationReport.axiom("identity is not a two-sided unit", (a,))
    for a in G.arrows:
        b = G.inv_table.get(a)
        if b is None:
            return ValidationReport.axiom("arrow has no two-sided inverse", (a,))
        if table.get((a, b)) != G.ident[G.src[a]] or table.get((b, a)) != G.ident[G.tgt[a]]:
            return ValidationReport.axiom("inverse table wrong", (a, b))
    for a in G.arrows:
        for b in arrows_from(G, G.tgt[a]):
            for c in arrows_from(G, G.tgt[b]):
                if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                    return ValidationReport.axiom("associativity fails", (a, b, c))
    return ValidationReport.passed()


def validate_left_action(G, points, act) -> ValidationReport:
    """The action check scanning h.(g.x) = (hg).x for every g, h and x: the oracle of
    `validate_left_action`, which checks g over a generating sequence."""
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


def crossed_module_validate(M) -> ValidationReport:
    """The crossed-module axioms checked by hand on the presentation's own tables: the oracle of
    `CrossedModulePresentation.validate`, which validates the complex `iota2(M)`."""
    for e in M.E.elements:
        if e not in M.bdry:
            return ValidationReport.malformed("boundary not total", (e,))
        if M.bdry[e] not in M.G:
            return ValidationReport.malformed("boundary value outside G", (e,))
        for g in M.G.elements:
            if (e, g) not in M.act:
                return ValidationReport.malformed("action not total", (e, g))
            if M.act[(e, g)] not in M.E:
                return ValidationReport.malformed("action value outside E", (e, g))
    for a in M.E.elements:
        for b in M.E.elements:
            if M.bdry[M.E.mul(a, b)] != M.G.mul(M.bdry[a], M.bdry[b]):
                return ValidationReport.axiom("boundary is not a homomorphism", (a, b))
    for e in M.E.elements:
        if M.act[(e, M.G.unit)] != e:
            return ValidationReport.axiom("unit acts nontrivially", (e,))
        for g in M.G.elements:
            for h in M.G.elements:
                if M.act[(M.act[(e, g)], h)] != M.act[(e, M.G.mul(g, h))]:
                    return ValidationReport.axiom("action not functorial", (e, g, h))
    for g in M.G.elements:
        for a in M.E.elements:
            for b in M.E.elements:
                if M.act[(M.E.mul(a, b), g)] != M.E.mul(M.act[(a, g)], M.act[(b, g)]):
                    return ValidationReport.axiom("action not by automorphisms", (a, b, g))
    for a in M.E.elements:
        for g in M.G.elements:
            if M.bdry[M.act[(a, g)]] != M.G.conj(M.bdry[a], g):
                return ValidationReport.axiom("first Peiffer identity fails", (a, g))
    for a in M.E.elements:
        for b in M.E.elements:
            if M.act[(a, M.bdry[b])] != M.E.conj(a, b):
                return ValidationReport.axiom("second Peiffer identity fails", (a, b))
    return ValidationReport.passed()


@dataclass
class DictAlgebra:
    """An algebra with its product as one linear row (a, b) -> {c: coefficient} per
    non-zero product of basis elements, keyed by the elements themselves, and its unit
    as {element: coefficient}.  Its `validate` scans every triple of basis elements: the
    oracle of `morita.Algebra`'s index rows and of its check on the non-zero products."""
    basis: tuple
    mul: dict  # (a, b) -> {c: coeff}; missing means zero product
    unit: dict  # {a: coeff}
    name: str = ""

    @property
    def dim(self):
        return len(self.basis)

    def product(self, v: dict, w: dict) -> dict:
        out: dict = {}
        for a, ca in v.items():
            for b, cb in w.items():
                for k, ck in self.mul.get((a, b), {}).items():
                    _addinto(out, k, ca * cb * ck)
        return out

    def validate(self) -> bool:
        """The unit on every basis element, and associativity on every triple."""
        for a in self.basis:
            va = {a: Fraction(1)}
            if self.product(self.unit, va) != va or self.product(va, self.unit) != va:
                return False
        for a in self.basis:
            for b in self.basis:
                ab = self.mul.get((a, b), {})
                for c in self.basis:
                    lhs: dict = {}
                    for k, ck in ab.items():
                        for m, cm in self.mul.get((k, c), {}).items():
                            _addinto(lhs, m, ck * cm)
                    rhs: dict = {}
                    for k, ck in self.mul.get((b, c), {}).items():
                        for m, cm in self.mul.get((a, k), {}).items():
                            _addinto(rhs, m, ck * cm)
                    if lhs != rhs:
                        return False
        return True

    def structure_triples(self):
        return sorted(
            (str(a), str(b), str(k), str(c))
            for (a, b), row in self.mul.items()
            for k, c in row.items()
        )


def dict_algebra(A) -> DictAlgebra:
    """`morita.Algebra`'s index rows decoded to linear rows (a, b) -> {a b: 1}, in row order,
    and its unit to {e: 1}."""
    basis = A.basis
    mul = {
        (basis[i], basis[j]): {basis[k]: Fraction(1)}
        for i, js, ks in A.rows
        for j, k in zip(js, ks)
        if k is not None
    }
    return DictAlgebra(basis, mul, {e: Fraction(1) for e in A.unit}, A.name)


def index_algebra(D: DictAlgebra) -> Algebra:
    """`dict_algebra` inverted: a monomial DictAlgebra as `morita.Algebra` index rows, each
    row's products in the order of D's table."""
    at = {b: i for i, b in enumerate(D.basis)}
    js, ks = [[] for _ in D.basis], [[] for _ in D.basis]
    for (a, b), row in D.mul.items():
        if row:
            (c, coeff), = row.items()
            assert coeff == 1, "not monomial"
            js[at[a]].append(at[b])
            ks[at[a]].append(at[c])
    rows = [(i, tuple(j), k) for i, (j, k) in enumerate(zip(js, ks))]
    return Algebra(D.basis, rows, tuple(D.unit), D.name)


def groupoid_algebra(G) -> DictAlgebra:
    """The groupoid algebra, testing every pair of arrows for composability."""
    mul = {}
    for a in G.arrows:
        for b in G.arrows:
            if G.tgt[a] == G.src[b]:
                mul[(a, b)] = {G.comp(a, b): Fraction(1)}
    unit = {G.ident[x]: Fraction(1) for x in G.objects}
    return DictAlgebra(tuple(G.arrows), mul, unit, name=f"Lin2({G.name})")


def quantum_double(G) -> DictAlgebra:
    """The quantum double, testing all |G|^4 pairs of basis elements."""
    els = tuple((g, a) for g in G.elements for a in G.elements)
    mul = {}
    for (g, a) in els:
        target = G.mul(G.mul(a, g), G.inv(a))
        for (gp, ap) in els:
            if gp == target:
                mul[((g, a), (gp, ap))] = {(g, G.mul(ap, a)): Fraction(1)}
    unit = {(g, G.unit): Fraction(1) for g in G.elements}
    return DictAlgebra(els, mul, unit, name=f"D({G.name})")


def find_groupoid_iso(G, H):
    """The groupoid isomorphism search, whose final check tests every pair of arrows."""
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
            tree_G = {x: min(arrows_between(G, base, x), key=G.arr_index) for x in cg}
            tree_H = {y: min(arrows_between(H, ch[0], y), key=H.arr_index) for y in ch}
            for x, y in zip(cg, ch):
                obj_map[x] = y
            for x in cg:
                for z in cg:
                    for a in arrows_between(G, x, z):
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
    for a in G.arrows:
        for b in G.arrows:
            if G.tgt[a] == G.src[b]:
                if arr_map[G.comp(a, b)] != H.comp(arr_map[a], arr_map[b]):
                    return None
    if len(set(arr_map.values())) != len(H.arrows):
        return None
    return obj_map, arr_map


def pair_keyed_bimodule(B):
    """B with its actions as linear tables on (algebra element, basis element) pairs.

    `morita` holds one map of basis elements per algebra element; here each
    entry m -> a.m becomes the row (a, m) -> {a.m: 1}, and m -> m.b the row
    (m, b) -> {m.b: 1}: the form `tensor_over` and `bimodule_validate` here read.
    The two algebras are decoded by `dict_algebra`."""
    lact = {(a, m): {img: Fraction(1)} for a, moves in B.lact.items() for m, img in moves.items()}
    ract = {(m, b): {img: Fraction(1)} for b, moves in B.ract.items() for m, img in moves.items()}
    return replace(B, left=dict_algebra(B.left), right=dict_algebra(B.right), lact=lact, ract=ract)


def _monomial_image(row: dict):
    if not row:
        return None
    if len(row) == 1:
        (k, c), = row.items()
        if c == 1:
            return k
    return ...


def bimodule_validate(B) -> bool:
    """`Bimodule.validate` on `pair_keyed_bimodule` tables: the unit, product and
    commutation equations, each side applied to a vector of basis elements."""

    def lapply(a, v):
        out: dict = {}
        for m, cm in v.items():
            for mp, c in B.lact.get((a, m), {}).items():
                _addinto(out, mp, cm * c)
        return out

    def rapply(v, b):
        out: dict = {}
        for m, cm in v.items():
            for mp, c in B.ract.get((m, b), {}).items():
                _addinto(out, mp, cm * c)
        return out

    for m in B.basis:
        vm = {m: Fraction(1)}
        lhs: dict = {}
        for a, ca in B.left.unit.items():
            for k, c in lapply(a, vm).items():
                _addinto(lhs, k, ca * c)
        if lhs != vm:
            return False
        rhs: dict = {}
        for b, cb in B.right.unit.items():
            for k, c in rapply(vm, b).items():
                _addinto(rhs, k, cb * c)
        if rhs != vm:
            return False
    for a1 in B.left.basis:
        for a2 in B.left.basis:
            prod = B.left.mul.get((a1, a2), {})
            for m in B.basis:
                vm = {m: Fraction(1)}
                lhs = {}
                for k, ck in prod.items():
                    for mp, c in lapply(k, vm).items():
                        _addinto(lhs, mp, ck * c)
                if lhs != lapply(a1, lapply(a2, vm)):
                    return False
    for b1 in B.right.basis:
        for b2 in B.right.basis:
            prod = B.right.mul.get((b1, b2), {})
            for m in B.basis:
                vm = {m: Fraction(1)}
                lhs = {}
                for k, ck in prod.items():
                    for mp, c in rapply(vm, k).items():
                        _addinto(lhs, mp, ck * c)
                if lhs != rapply(rapply(vm, b1), b2):
                    return False
    for a in B.left.basis:
        for b in B.right.basis:
            for m in B.basis:
                vm = {m: Fraction(1)}
                if rapply(lapply(a, vm), b) != lapply(a, rapply(vm, b)):
                    return False
    return True


def tensor_over(M, N):
    """M tensor N over the middle algebra, balancing every pair over the whole middle basis."""
    if M.right.basis != N.left.basis:
        raise ValueError("middle algebras do not match")
    pairs = tuple((m, n) for m in M.basis for n in N.basis)
    monomial = True
    for m in M.basis:
        for b in M.right.basis:
            if _monomial_image(M.ract.get((m, b), {})) is ...:
                monomial = False
    for n in N.basis:
        for b in N.left.basis:
            if _monomial_image(N.lact.get((b, n), {})) is ...:
                monomial = False
    if not monomial:
        raise NotImplementedError("non-monomial balancing is outside the desk corpus")
    index = {p: i for i, p in enumerate(pairs)}
    links, zero_marks = [], []
    for (m, n) in pairs:
        for b in M.right.basis:
            mi = _monomial_image(M.ract.get((m, b), {}))
            ni = _monomial_image(N.lact.get((b, n), {}))
            if mi is None and ni is None:
                continue
            if mi is None:
                zero_marks.append(index[(m, ni)])
            elif ni is None:
                zero_marks.append(index[(mi, n)])
            else:
                links.append((index[(mi, n)], index[(m, ni)]))
    parts = partition(len(pairs), links)
    class_id = [0] * len(pairs)
    for ci, members in enumerate(parts):
        for i in members:
            class_id[i] = ci
    zero = {class_id[i] for i in zero_marks}
    classes = {
        p: None if class_id[i] in zero else pairs[parts[class_id[i]][0]]
        for i, p in enumerate(pairs)
    }
    reps = [pairs[members[0]] for ci, members in enumerate(parts) if ci not in zero]
    basis = tuple(reps)
    lact, ract = {}, {}
    for (m, n) in basis:
        for a in M.left.basis:
            img = _monomial_image(M.lact.get((a, m), {}))
            if img is not None:
                tgt = classes[(img, n)]
                if tgt is not None:
                    lact[(a, (m, n))] = {tgt: Fraction(1)}
        for c in N.right.basis:
            img = _monomial_image(N.ract.get((n, c), {}))
            if img is not None:
                tgt = classes[(m, img)]
                if tgt is not None:
                    ract[((m, n), c)] = {tgt: Fraction(1)}
    T = Bimodule(M.left, N.right, basis, lact, ract, name="tensor")
    return T, classes


# -- the colouring walk on values, by dicts keyed by generator ----------------------------


class DictPlan:
    """The colouring walk as it ran on values: the oracle of `Plan`'s walk on value indices.

    Labels, tests and domains read a dict from generator to value and look
    values up in tuple-keyed tables of A (`table_of` its base, `act`, fibre
    products); every label test runs, including those that exactness makes
    vacuous.  The schedule is `Plan`'s: levels in generator order, the test
    of an (n+1)-generator once its last n-face is assigned.
    """

    def __init__(self, X, A):
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
        self.faces = {
            c: X.subcomplex_closure({c}) - {c} for n in range(2, last_level + 1) for c in X.gens(n)
        }
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

    def _evaluator(self, c):
        """values -> the homotopy addition label of c, for c of dimension >= 2."""
        X, A = self.X, self.A
        n = X.dim_of[c]
        terms = hal_word(X, c)
        comp = table_of(A.base)
        if n == 2:
            (k0, t0), (k1, t1), (k2, t2) = (_reader(X, A, r, s) for r, s, _ in terms)

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
        (ref0, _, ((edge, sign),)), rest = terms[0], terms[1:]
        k0, t0 = _reader(X, A, ref0)
        k1, t1 = _reader(X, A, edge, sign)
        rest = [_reader(X, A, r, s) for r, s, _ in rest]
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
        X, A = self.X, self.A
        n = X.dim_of[g]
        if n == 0:
            objects = A.objects
            return lambda vals: objects
        if n == 1:
            s, t = X.edge_ends(g)
            between = A.base.ends[2]
            return lambda vals: between.get((vals[s], vals[t]), ())
        lead, label, preimage = self.lead[g], self.label[g], self.preimage[n]
        return lambda vals: preimage[vals[lead]].get(label(vals), ())

    def _check_fixed(self, fixed: dict):
        """`Plan`'s checks of fixed values, lowest dimension first and in the given order within
        one, so a label is evaluated only once the edges below it have passed theirs."""
        X, A = self.X, self.A
        for g in fixed:
            if g not in X.dim_of:
                raise BoundaryError(f"fixed value on unknown generator {g!r}")
        objs = set(A.objects)
        for g, v in fixed.items():
            if X.dim_of[g] == 0 and v not in objs:
                raise BoundaryError(f"vertex value {v!r} is not an object")
        for g, v in sorted(fixed.items(), key=lambda gv: X.dim_of[gv[0]]):
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
        X, A, out = self.X, self.A, []
        self._walk(fixed or {}, lambda values: out.append(Colouring(X, A, dict(values))))
        return out

    def count(self, fixed: dict | None = None) -> int:
        return self._walk(fixed or {}, None)


# -- relative classes, profunctor transports and naturality, as they ran before ---------------


def _stars(plan) -> dict:
    """g -> what a single-slot move at g rewrites besides g, for every g below the truncation.

    A move at a vertex v rewrites the edges with v as an end, as
    [(edge, v is its source, v is its target)], and the cells of dimension
    2..truncation led by v, as [(cell, dimension)].  A move at a generator g
    of dimension i >= 1 rewrites the (i+1)-cells with g as a nondegenerate
    face, as [(cell, [(sign, reads), ...])] with one entry per occurrence
    of g in the cell's dict `terms`.
    """
    X, A = plan.X, plan.A
    stars: dict = {v: ([], []) for v in X.gens(0)}
    for e in X.gens(1):
        s, t = X.edge_ends(e)
        stars[s][0].append((e, True, s == t))
        if t != s:
            stars[t][0].append((e, False, True))
    for g in X.all_gens():
        if 1 <= X.dim_of[g] < A.truncation:
            stars[g] = []
    for c, occurrences in terms(plan).items():
        stars[plan.lead[c]][1].append((c, X.dim_of[c]))
        at: dict = {}
        for face, sign, reads in occurrences:
            at.setdefault(face, []).append((sign, reads))
        for face, occurrences in at.items():
            stars[face].append((c, occurrences))
    return stars


def _mover(plan, stars: dict, f: dict, g):
    """h -> {generator: value}: the values of f that the single-slot move by h at g changes.

    The move is the homotopy targeting f with value h at g and identities
    elsewhere; its other end agrees with f outside the returned star.
    Values are read and combined through the dict tables of A.
    """
    A = plan.A
    comp, inv = table_of(A.base), A.base.inv_table
    n = plan.X.dim_of[g] + 1  # the level of h
    if n == 1:
        edges, cells = stars[g]

        def move(a):
            a_inv = inv[a]
            out = {g: A.base.src[a]}
            for e, at_src, at_tgt in edges:
                x = comp[a, f[e]] if at_src else f[e]
                out[e] = comp[x, a_inv] if at_tgt else x
            for c, m in cells:
                out[c] = A.act_elem(m, f[c], a_inv)
            return out

        return move
    fg = f[g]
    cofaces = [
        (c, [(sign, _arrow(comp, reads, f)) for sign, reads in occurrences])
        for c, occurrences in stars[g]
    ]

    def move(h):
        d = A.bdry_of(n, h)
        out = {g: comp[fg, d] if n == 2 else A.mul(n - 1, fg, d)}
        for c, occurrences in cofaces:
            val = f[c]
            for sign, arrow in occurrences:
                val = A.mul(n, val, _term(A, n, h, sign, arrow))
            out[c] = val
        return out

    return move


def _moved_key(slots: dict, key: tuple, star: dict) -> tuple:
    """`key` with the positions of the star's generators rewritten to its values."""
    out = list(key)
    for g, v in star.items():
        pos, index = slots[g]
        out[pos] = index[v]
    return tuple(out)


def _move_generators(A):
    """Generating values of each slot domain: (at a vertex, at a higher generator).

    At a vertex whose image is x: generators of the vertex group at x, then
    the first arrow into x from the least object of its component unless x
    is that object.  At a generator of level n over x: generators of A_n(x).
    """
    base = A.base
    vertex = {}
    for component in base.components():
        root = component[0]
        for x in component:
            moves = _generating_sequence(base.vertex_group(x))
            if x != root:
                moves.append(base.arrows_between(root, x)[0])
            vertex[x] = tuple(moves)
    fibre = {
        (n, x): tuple((x, e) for e in _generating_sequence(A.fibre(n, x)))
        for n in range(2, A.truncation + 1)
        for x in A.objects
    }
    return vertex, fibre


def rel_classes(X, A, boundary_gens, fillings):
    """`homotopy.rel_classes` by dict moves: each single-slot move builds a dict of the
    star's new values through `_mover` and rewrites the key through `_moved_key`."""
    if not fillings:
        return (), {}
    plan = as_plan(X, A)
    X = plan.X
    fkeys = [col.key() for col in fillings]
    keys = {k: i for i, k in enumerate(fkeys)}
    free = [g for g in X.all_gens() if g not in boundary_gens and X.dim_of[g] < A.truncation]
    base_of = {g: _base_vertex(X, g) for g in free}
    stars, slots = _stars(plan), key_slots(plan)
    vertex_moves, fibre_moves = _move_generators(A)

    def links():
        for i, col in enumerate(fillings):
            f, key = col.values, fkeys[i]
            for g in free:
                n, x = X.dim_of[g] + 1, f[base_of[g]]
                moves = vertex_moves[x] if n == 1 else fibre_moves[n, x]
                if not moves:
                    continue
                move = _mover(plan, stars, f, g)
                for h in moves:
                    j = keys.get(_moved_key(slots, key, move(h)))
                    if j is None:
                        raise ValueError("internal homotopy left the filling set")
                    yield i, j

    classes = partition(len(fillings), links())
    class_of = {fkeys[i]: ci for ci, members in enumerate(classes) for i in members}
    return classes, class_of


def cobordism_profunctor(M, A):
    """`extprof.cobordism_profunctor` with one `holonomy_act` per (arrow, basis element).

    The fillings are walked and partitioned pair by pair: one fixed-boundary
    walk and one dict-move `rel_classes` (above) for each (in, out) boundary
    colouring pair.  This is the oracle of the single walk and single
    partition that `extprof` files by boundary restriction.  `lact` and
    `ract` are filled in (arrow, object, basis element) order.
    """
    X = M.simpset
    in_gens, out_gens = M.tagged("in"), M.tagged("out")
    if in_gens & out_gens:
        raise BoundaryError("in and out subcomplexes must be disjoint")
    sub_in, sub_out = X.restrict(in_gens), X.restrict(out_gens)
    left, right = crs_pi1(sub_in, A), crs_pi1(sub_out, A)
    boundary = in_gens | out_gens
    plan = Plan(X, A)
    basis, sizes, reps = {}, {}, {}
    class_of_key = {}
    for li, f in enumerate(left.colourings):
        for ri, fp in enumerate(right.colourings):
            fillings = plan.colourings({**f.values, **fp.values})
            classes, class_of = rel_classes(plan, A, boundary, fillings)
            ids = []
            for ci, members in enumerate(classes):
                eid = (li, ri, ci)
                ids.append(eid)
                sizes[eid] = len(members)
                reps[eid] = fillings[members[0]]
            basis[(li, ri)] = tuple(ids)
            for key, ci in class_of.items():
                class_of_key[(li, ri, key)] = (li, ri, ci)
    lact, ract = {}, {}
    for eta in left.groupoid.arrows:
        si, ti = eta[0], eta[1]
        seq = left.arrow_reps[eta]
        for ri in right.groupoid.objects:
            for b in basis[(ti, ri)]:
                moved = holonomy_act(plan, A, in_gens, seq, reps[b])
                lact[(eta, b)] = class_of_key[(si, ri, moved.key())]
    for zeta in right.groupoid.arrows:
        si, ti = zeta[0], zeta[1]
        inv_seq = _invert(right.arrow_reps[zeta], right.colourings[si])
        for li in left.groupoid.objects:
            for b in basis[(li, si)]:
                moved = holonomy_act(plan, A, out_gens, inv_seq, reps[b])
                ract[(b, zeta)] = class_of_key[(li, ti, moved.key())]
    return Profunctor(left, right, basis, lact, ract, sizes, reps)


def pair_keyed(P):
    """P with each action as one dict on (arrow, element) pairs, arrow by arrow.

    `extprof` holds a map of elements per arrow; this is the form that
    `cobordism_profunctor` and `compose_profunctors` here build and read."""
    lact = {(g, b): c for g, moves in P.lact.items() for b, c in moves.items()}
    ract = {(b, h): c for h, moves in P.ract.items() for b, c in moves.items()}
    return replace(P, lact=lact, ract=ract)


def compose_profunctors(P, Q):
    """`extprof.compose_profunctors` on `pair_keyed` profunctors, linking nodes along
    every arrow of the middle groupoid."""
    if P.right.keys != Q.left.keys or set(P.right.groupoid.arrows) != set(Q.left.groupoid.arrows):
        raise BoundaryError("middle groupoids do not match")
    GL, GM, GR = P.left.groupoid, P.right.groupoid, Q.right.groupoid
    basis, lact, ract = {}, {}, {}
    node_class: dict = {}
    class_reps: dict = {}
    class_members: dict = {}
    for x in GL.objects:
        for z in GR.objects:
            nodes = sorted(
                (y, p, q)
                for y in GM.objects
                for p in P.basis.get((x, y), ())
                for q in Q.basis.get((y, z), ())
            )
            index = {n: i for i, n in enumerate(nodes)}
            links = []
            for h in GM.arrows:
                y1, y2 = GM.src[h], GM.tgt[h]
                for p in P.basis.get((x, y1), ()):
                    ph = P.ract[(p, h)]
                    for q in Q.basis.get((y2, z), ()):
                        links.append((index[(y2, ph, q)], index[(y1, p, Q.lact[(h, q)])]))
            ids = []
            for ci, members in enumerate(partition(len(nodes), links)):
                eid = (x, z, ci)
                ids.append(eid)
                class_reps[eid] = nodes[members[0]]
                class_members[eid] = tuple(nodes[i] for i in members)
                for i in members:
                    node_class[(x, z, nodes[i])] = eid
            basis[(x, z)] = tuple(ids)
    for (x, z), ids in basis.items():
        for eid in ids:
            y, p, q = class_reps[eid]
            for g in GL.arrows_into(x):
                lact[(g, eid)] = node_class[(GL.src[g], z, (y, P.lact[(g, p)], q))]
            for k in GR.arrows_from(z):
                ract[(eid, k)] = node_class[(x, GR.tgt[k], (y, p, Q.ract[(q, k)]))]
    return Profunctor(
        P.left, Q.right, basis, lact, ract, reps=class_reps, members=class_members
    )


def naturality_check(nt) -> bool:
    """`NatTransform.naturality_check` over every (left arrow, right arrow) pair."""
    GL = nt.top.left.groupoid
    GR = nt.top.right.groupoid
    tindex = {(pair, b): i for pair in nt.top.basis for i, b in enumerate(nt.top.basis[pair])}
    bindex = {
        (pair, b): j for pair in nt.bottom.basis for j, b in enumerate(nt.bottom.basis[pair])
    }
    for eta in GL.arrows:
        for zeta in GR.arrows:
            src_pair = (GL.tgt[eta], GR.src[zeta])
            dst_pair = (GL.src[eta], GR.tgt[zeta])
            for b in nt.top.basis.get(src_pair, ()):
                tb = nt.top.transport(eta, b, zeta)
                for bp in nt.bottom.basis.get(src_pair, ()):
                    tbp = nt.bottom.transport(eta, bp, zeta)
                    lhs = nt.blocks[dst_pair][tindex[(dst_pair, tb)]][bindex[(dst_pair, tbp)]]
                    rhs = nt.blocks[src_pair][tindex[(src_pair, b)]][bindex[(src_pair, bp)]]
                    if lhs != rhs:
                        return False
    return True


def window_frame(W, A, H_top: Colouring, H_bottom: Colouring) -> dict:
    """The frame of the window W that a filling of its top and one of its bottom give, as it was read.

    The sides are read from the whole top filling, at each representative
    pair, and every value where two parts meet is compared: the oracle of
    `extprof._frames`, which reads the sides once per boundary pair.
    """
    top = W.top_cob.simpset
    on_top, on_sides = _frame_map(top, A, H_top, W.top_map, {}), {}
    for zg, ref in [*W.east_proj.items(), *W.west_proj.items()]:
        if W.simpset.dim_of[zg] < 2 or W.simpset.dim_of[zg] <= A.truncation:
            v = value_of_ref(top, A, H_top.values, ref)
            if (on_top if zg in on_top else on_sides).setdefault(zg, v) != v:
                raise BoundaryError("inconsistent frame colouring")
    bottom = _frame_map(W.bottom_cob.simpset, A, H_bottom, W.bottom_map, {})
    for half in (on_top, on_sides):
        if any(half[g] != bottom[g] for g in half.keys() & bottom.keys()):
            raise BoundaryError("inconsistent frame colouring")
    return {**on_top, **bottom, **on_sides}
