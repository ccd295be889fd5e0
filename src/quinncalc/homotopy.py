"""Homotopies of colourings, freely presented on cells.

A k-fold homotopy targeting a colouring f is given by one value per
generator: an arrow into f0(v) at a vertex v (k=1), an element of
A_{1+k} based at the image of the target vertex at an edge, and an element
of A_{i+k} based at the image of the leading vertex at an i-generator,
i >= 2.  Levels with i+k above the truncation carry identities and are not
stored.

The derived operations (the other end of a homotopy, composition,
inversion, and the boundary of a 2-fold homotopy) are evaluated directly on
these cell values, extending along the homotopy addition words by the
derivation rule at level one and by equivariant homomorphisms above.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .colouring import (
    Colouring,
    enumerate_colourings,
    eval_edge_word,
    hal_word,
    value_of_ref,
)
from .finalg.crossed import CrossedComplex
from .finalg.groupoids import FinGroupoid, partition
from .simpset import SimpSet, SimplexRef


@dataclass
class HomotopySequence:
    k: int
    target: Colouring
    m: dict  # dim -> {generator -> value}

    def value(self, i, g):
        return self.m.get(i, {}).get(g)

    def key(self):
        X, A = self.target.X, self.target.A
        out = []
        for g in X.all_gens():
            i = X.dim_of[g]
            if i + self.k > A.truncation:
                out.append(0)
                continue
            v = self.m[i][g]
            if i == 0 and self.k == 1:
                out.append(A.base.arr_index(v))
            else:
                out.append(A.fibre(i + self.k, v[0]).index(v[1]))
        return tuple(out)

    def as_dict(self):
        values = {}
        for i, row in sorted(self.m.items()):
            values[str(i)] = {
                str(g): str(v if (i == 0 and self.k == 1) else v[1])
                for g, v in row.items()
            }
        return {"k": self.k, "target": list(self.target.key()), "values": values}

    def __repr__(self):
        return f"HomotopySequence(k={self.k}, m={self.m})"


def _value_base(X, f: Colouring, i, g):
    """Base object of the homotopy value at an i-generator."""
    if i == 0:
        return f.values[g]
    if i == 1:
        return f.values[X.face(g, 0).core]  # image of the target vertex
    return f.values[X.initial_vertex(g)]


def sequence_domains(X: SimpSet, A: CrossedComplex, f: Colouring, k: int, fixed_identity=()):
    """Per-generator value domains for k-fold homotopies targeting f.

    Generators in `fixed_identity` are pinned to identity values (used for
    homotopies relative to a subcomplex).
    """
    fixed_identity = set(fixed_identity)
    domains = []
    for g in X.all_gens():
        i = X.dim_of[g]
        base = _value_base(X, f, i, g)
        if i + k > A.truncation:
            continue  # implicit identity
        if i == 0 and k == 1:
            if g in fixed_identity:
                dom = (A.base.ident[base],)
            else:
                dom = A.base.arrows_into(base)
        else:
            if g in fixed_identity:
                dom = (A.identity_elem(i + k, base),)
            else:
                dom = tuple((base, e) for e in A.fibre(i + k, base).elements)
        domains.append((i, g, dom))
    return domains


def expand_sequence(seq: HomotopySequence, X: SimpSet, target: Colouring) -> HomotopySequence:
    """The k-fold homotopy targeting `target` with the values of `seq`, identities elsewhere.

    Only generators with i + k <= truncation get a slot; values of `seq` on
    generators outside X are dropped.
    """
    A, k = target.A, seq.k
    m: dict = {}
    for g in X.all_gens():
        i = X.dim_of[g]
        if i + k > A.truncation:
            continue
        v = seq.value(i, g)
        if v is None:
            base = _value_base(X, target, i, g)
            v = A.base.ident[base] if (i == 0 and k == 1) else A.identity_elem(i + k, base)
        m.setdefault(i, {})[g] = v
    return HomotopySequence(k, target, m)


def identity_sequence(f: Colouring, k: int = 1) -> HomotopySequence:
    return expand_sequence(HomotopySequence(k, f, {}), f.X, f)


def enumerate_sequences(X, A, f: Colouring, k: int):
    """All k-fold homotopies targeting f, in canonical order."""
    slots = sequence_domains(X, A, f, k)
    out = []
    for combo in product(*(dom for (_, _, dom) in slots)):
        m: dict = {}
        for (i, g, _), v in zip(slots, combo):
            m.setdefault(i, {})[g] = v
        out.append(HomotopySequence(k, f, m))
    return out


def _h_of_ref(H: HomotopySequence, ref: SimplexRef):
    """Value of the (free) homotopy on a possibly degenerate simplex, dim >= 1."""
    X, A, f = H.target.X, H.target.A, H.target
    d = X.ref_dim(ref)
    if ref.word or d + H.k > A.truncation:
        if ref.word:
            base = f.values[X.initial_vertex(ref)]
        else:
            base = _value_base(X, f, d, ref.core)
        return A.identity_elem(d + H.k, base)
    return H.m[d][ref.core]


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
    X, A = f.X, f.A
    out: dict = {}
    for v in X.gens(0):
        out[v] = A.base.src[H.m[0][v]]
    for e in X.gens(1):
        sv, tv = X.edge_ends(e)
        h_e = H.value(1, e)
        mid = f.values[e]
        if h_e is not None:
            disc = A.bdry_of(2, h_e)
            mid = A.base.comp(mid, disc)
        out[e] = A.base.comp(A.base.comp(H.m[0][sv], mid), A.base.inv(H.m[0][tv]))
    for n in range(2, min(X.dim, A.truncation) + 1):
        for c in X.gens(n):
            base_gen = X.initial_vertex(c)
            val = f.values[c]
            val = A.mul(n, val, _h_on_hal(H, c))
            h_c = H.value(n, c)
            if h_c is not None:
                val = A.mul(n, val, A.bdry_of(n + 1, h_c))
            out[c] = A.act_elem(n, val, A.base.inv(H.m[0][base_gen]))
    return Colouring(X, A, out)


def compose_homotopies(first: HomotopySequence, second: HomotopySequence) -> HomotopySequence:
    """Composite of the arrows `first` then `second` (both 1-fold).

    `first` runs f'' -> f', `second` runs f' -> f; the composite targets f.
    """
    f_mid = apply_homotopy(second, second.target)
    if first.target.values != f_mid.values:
        raise ValueError("homotopies are not composable")
    X, A = second.target.X, second.target.A
    f = second.target
    m: dict = {}
    for v in X.gens(0):
        m.setdefault(0, {})[v] = A.base.comp(first.m[0][v], second.m[0][v])
    for i in range(1, min(X.dim, A.truncation - 1) + 1):
        level = i + 1
        for g in X.gens(i):
            y = X.face(g, 0).core if i == 1 else X.initial_vertex(g)
            twisted = A.act_elem(level, first.m[i][g], second.m[0][y])
            m.setdefault(i, {})[g] = A.mul(level, second.m[i][g], twisted)
    return HomotopySequence(1, f, m)


def invert_homotopy(H: HomotopySequence) -> HomotopySequence:
    """The inverse arrow: targets the source of H."""
    X, A = H.target.X, H.target.A
    src = apply_homotopy(H, H.target)
    m: dict = {}
    for v in X.gens(0):
        m.setdefault(0, {})[v] = A.base.inv(H.m[0][v])
    for i in range(1, min(X.dim, A.truncation - 1) + 1):
        level = i + 1
        for g in X.gens(i):
            y = X.face(g, 0).core if i == 1 else X.initial_vertex(g)
            inv_h0 = A.base.inv(H.m[0][y])
            m.setdefault(i, {})[g] = A.act_elem(level, A.inv_elem(level, H.m[i][g]), inv_h0)
    return HomotopySequence(1, src, m)


def delta2(H2: HomotopySequence) -> HomotopySequence:
    """Boundary of a 2-fold homotopy: an endo-arrow at its target."""
    if H2.k != 2:
        raise ValueError("expected a 2-fold homotopy")
    X, A, f = H2.target.X, H2.target.A, H2.target
    m: dict = {}
    for v in X.gens(0):
        h0 = H2.value(0, v)
        if h0 is None:
            m.setdefault(0, {})[v] = A.base.ident[f.values[v]]
        else:
            m.setdefault(0, {})[v] = A.bdry_of(2, h0)
    if X.dim >= 1 and A.truncation >= 2:
        for e in X.gens(1):
            sv, tv = X.edge_ends(e)
            fx, fy = f.values[sv], f.values[tv]
            h0x = H2.value(0, sv)
            h0x = h0x if h0x is not None else A.identity_elem(2, fx)
            h0y = H2.value(0, tv)
            h0y = h0y if h0y is not None else A.identity_elem(2, fy)
            term = A.act_elem(2, A.inv_elem(2, h0x), f.values[e])
            term = A.mul(2, term, h0y)
            h1 = H2.value(1, e)
            if h1 is not None:
                term = A.mul(2, term, A.bdry_of(3, h1))
            m.setdefault(1, {})[e] = term
    for n in range(2, min(X.dim, A.truncation - 1) + 1):
        for c in X.gens(n):
            hn = H2.value(n, c)
            base = f.values[X.initial_vertex(c)]
            term = A.bdry_of(n + 2, hn) if hn is not None else A.identity_elem(n + 1, base)
            lower = _h_on_hal(H2, c)
            term = A.mul(n + 1, term, A.pow_elem(n + 1, lower, (-1) ** n))
            m.setdefault(n, {})[c] = term
    return HomotopySequence(1, f, m)


# -- the extended groupoid ------------------------------------------------------


class CrsResult:
    """The groupoid of colourings and 2-fold classes of homotopies.

    Objects are colourings of X (canonical order); arrows are equivalence
    classes of homotopies under right composition with boundaries of 2-fold
    homotopies.  Arrow ids are triples (source index, target index, class
    representative key).
    """

    def __init__(self, X, A, colourings, groupoid, arrow_reps, deltas):
        self.X = X
        self.A = A
        self.colourings = colourings
        self.groupoid = groupoid
        self.arrow_reps = arrow_reps  # arrow id -> HomotopySequence
        self.deltas = deltas  # target index -> list of boundary endo-homotopies
        self._index = {c.key(): i for i, c in enumerate(colourings)}

    def colouring_index(self, col: Colouring) -> int:
        return self._index[col.key()]

    def components(self):
        return self.groupoid.components()

    def class_of_arrow(self, H: HomotopySequence):
        """The groupoid arrow represented by the homotopy H."""
        tgt = self.colouring_index(H.target)
        src = self.colouring_index(apply_homotopy(H, H.target))
        rep = min(compose_homotopies(H, d).key() for d in self.deltas[tgt])
        return (src, tgt, rep)


def crs_pi1(X: SimpSet, A: CrossedComplex) -> CrsResult:
    """Colourings, homotopies up to 2-fold homotopy, as a finite groupoid."""
    colourings = enumerate_colourings(X, A)
    index = {c.key(): i for i, c in enumerate(colourings)}
    deltas = {}
    for ti, f in enumerate(colourings):
        ds = []
        seen = set()
        for H2 in enumerate_sequences(X, A, f, 2):
            d = delta2(H2)
            k = d.key()
            if k not in seen:
                seen.add(k)
                ds.append(d)
        deltas[ti] = ds
    arrows = []
    arrow_reps = {}
    seq_class = {}
    for ti, f in enumerate(colourings):
        for H in enumerate_sequences(X, A, f, 1):
            hk = H.key()
            if (ti, hk) in seq_class:
                continue
            orbit = [compose_homotopies(H, d) for d in deltas[ti]]
            keys = sorted(J.key() for J in orbit)
            rep_key = keys[0]
            si = index[apply_homotopy(H, f).key()]
            aid = (si, ti, rep_key)
            for k in keys:
                seq_class[(ti, k)] = aid
            arrows.append(aid)
            rep = next(J for J in orbit if J.key() == rep_key)
            arrow_reps[aid] = rep
    src = {a: a[0] for a in arrows}
    tgt = {a: a[1] for a in arrows}
    objects = tuple(range(len(colourings)))
    comp = {}
    for a in arrows:
        for b in arrows:
            if a[1] != b[0]:
                continue
            J = compose_homotopies(arrow_reps[a], arrow_reps[b])
            comp[(a, b)] = seq_class[(b[1], J.key())]
    ident = {}
    for ti, f in enumerate(colourings):
        ident[ti] = seq_class[(ti, identity_sequence(f).key())]
    inv = {}
    for a in arrows:
        Hinv = invert_homotopy(arrow_reps[a])
        inv[a] = seq_class[(a[0], Hinv.key())]
    G = FinGroupoid(objects, tuple(arrows), src, tgt, comp, ident, inv, name=f"pi1CRS({X.name})")
    return CrsResult(X, A, colourings, G, arrow_reps, deltas)


# -- homotopies relative to a subcomplex -------------------------------------------


def rel_classes(X: SimpSet, A: CrossedComplex, boundary_gens, fillings):
    """Partition of `fillings` under homotopies that fix `boundary_gens`.

    Fillings are linked by single-slot moves: homotopies with one
    non-identity value on one free generator and identities elsewhere.
    They give the same classes as all relative homotopies: `compose_homotopies`
    composes vertex values in the base groupoid and a higher slot as
    second(g) . (first(g) <| second_0(y)), so a relative homotopy factors
    into single-slot moves by peeling off its vertex slots, after which the
    higher slots compose untwisted, and every intermediate colouring agrees
    with the fillings on the boundary.

    Returns (classes, class_of): classes are tuples of filling indices with
    the canonical minimum first; class_of maps a colouring key to its class
    index.
    """
    keys = {col.key(): i for i, col in enumerate(fillings)}

    def links():
        for i, col in enumerate(fillings):
            H = identity_sequence(col)
            for d, g, dom in sequence_domains(X, A, col, 1, fixed_identity=boundary_gens):
                unit = H.m[d][g]
                for v in dom:
                    if v == unit:
                        continue
                    H.m[d][g] = v
                    j = keys.get(apply_homotopy(H, col).key())
                    if j is None:
                        raise ValueError("internal homotopy left the filling set")
                    yield i, j
                H.m[d][g] = unit

    classes = partition(len(fillings), links())
    class_of = {fillings[i].key(): ci for ci, members in enumerate(classes) for i in members}
    return classes, class_of


def holonomy_act(X, A, boundary_gens, eta: HomotopySequence, filling: Colouring) -> Colouring:
    """Transport a filling along a boundary homotopy, by identity expansion.

    `eta` targets the restriction of `filling` to the boundary subcomplex;
    the result restricts to the other end of `eta`.
    """
    for g in boundary_gens:
        i = X.dim_of[g]
        if i + 1 > A.truncation:
            continue
        want = filling.values[g]
        if eta.target.values[g] != want:
            raise ValueError("boundary homotopy does not target the filling's restriction")
    H = expand_sequence(eta, X, filling)
    return apply_homotopy(H, filling)


# -- homotopy content of the mapping complex ---------------------------------------


def crs_homotopy_content(X: SimpSet, A: CrossedComplex) -> Fraction:
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
