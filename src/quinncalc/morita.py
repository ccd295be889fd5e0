"""Groupoid algebras, bimodules from profunctors, tensor composition,
Frobenius/separability data, and the quantum double oracle.

Every algebra here is monomial: its product is a table on basis indices in
the shape of `FinGroupoid.comp_rows()`, which a groupoid algebra shares with
its groupoid.  A bimodule's actions are one map of basis elements per
algebra element, for Lin2 of a profunctor its own map per arrow.  Exact
rationals appear only in linear combinations and the Frobenius data.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .finalg.groups import FinGroup
from .finalg.groupoids import FinGroupoid, action_groupoid, find_groupoid_iso, partition
from .extprof import Profunctor

# coefficient 1; sharing it lets equal dicts compare by identity instead of
# through Fraction.__eq__
_ONE = Fraction(1)


def _addinto(acc: dict, key, coeff):
    c = acc.get(key, Fraction(0)) + coeff
    if c:
        acc[key] = c
    else:
        acc.pop(key, None)


@dataclass
class Algebra:
    """A monomial algebra.  `rows[i]` is (i, js, ks): basis[i] basis[js[p]] is
    basis[ks[p]], zero where ks[p] is None or for an index missing from js."""
    basis: tuple
    rows: list  # (i, js, ks) per basis element
    unit: tuple  # the basis elements whose sum is the unit
    name: str = ""

    @property
    def dim(self):
        return len(self.basis)

    @cached_property
    def index(self) -> dict:
        return {b: i for i, b in enumerate(self.basis)}

    def product(self, v: dict, w: dict) -> dict:
        """The product of two linear combinations {basis element: coefficient}."""
        basis, out = self.basis, {}
        for a, ca in v.items():
            _, js, ks = self.rows[self.index[a]]
            for j, k in zip(js, ks):
                if k is not None and basis[j] in w:
                    _addinto(out, basis[k], ca * w[basis[j]])
        return out

    def validate(self) -> bool:
        """The unit is two-sided and the product associative, read from the non-zero products."""
        prod = _row_maps(self)
        units = [self.index[u] for u in self.unit]
        # the non-zero products u.a over the units u must be a alone, and so must the a.u
        for a, row in enumerate(prod):
            left = [prod[u][a] for u in units if a in prod[u]]
            if left != [a] or [row[u] for u in units if u in row] != [a]:
                return False
        # each non-zero (ab)c must be a(bc), and there must be no other non-zero a(bc): with
        # into[k] the a's with a.k non-zero, there are into[bc] over each non-zero bc
        into = Counter(j for row in prod for j in row)
        triples = sum(into[k] for row in prod for k in row.values())
        for row in prod:
            for b, ab in row.items():
                if any(row.get(prod[b].get(c)) != abc for c, abc in prod[ab].items()):
                    return False
                triples -= len(prod[ab])
        return triples == 0

    def structure_triples(self):
        """(a, b, a b, "1") for each non-zero product of basis elements, as strings, sorted."""
        names = [str(b) for b in self.basis]
        return sorted(
            (names[i], names[j], names[k], "1") for i, row in enumerate(_row_maps(self)) for j, k in row.items()
        )


def _row_maps(A: Algebra) -> list:
    """One dict {j: k} per row i of A: its non-zero products basis[i] basis[j] = basis[k]."""
    return [{j: k for j, k in zip(js, ks) if k is not None} for _, js, ks in A.rows]


def groupoid_algebra(G: FinGroupoid) -> Algebra:
    """Arrows as basis; the rows are `G.comp_rows()`, G's own `products`, copying no entry."""
    unit = tuple(G.ident[x] for x in G.objects)
    return Algebra(G.arrows, G.comp_rows(), unit, name=f"Lin2({G.name})")


def check_algebra_iso(A: Algebra, B: Algebra, bij: dict) -> bool:
    """Whether a basis bijection matches the structure constants exactly.

    The bijection becomes a permutation of basis indices once, and each row
    of A, carried over by it, must be B's row at the image, which reaches
    every row of B: a walk over the non-zero products, not over all pairs.
    """
    if set(bij) != set(A.basis) or set(bij.values()) != set(B.basis):
        return False
    if len(set(bij.values())) != len(bij):
        return False
    perm = [B.index[bij[a]] for a in A.basis]
    prod_B = _row_maps(B)
    for i, js, ks in A.rows:
        if prod_B[perm[i]] != {perm[j]: perm[k] for j, k in zip(js, ks) if k is not None}:
            return False
    return len(A.unit) == len(B.unit) and {bij[u] for u in A.unit} == set(B.unit)


def quantum_double(G: FinGroup) -> Algebra:
    """The quantum double on pairs (g, a), its rows written from the product formula.

    (g, a) (g', a') is zero unless g' = a g a^-1, and is then (g, a'a): the
    product of conjugation arrows (g, a): g -> a g a^-1.  On G's element
    indices (g, a) is g n + a, so its row runs over the block of a g a^-1.
    """
    els, n, at = G.elements, len(G.elements), G.index
    blocks = [tuple(range(t * n, t * n + n)) for t in range(n)]
    after = [[at(G.mul(ap, a)) for ap in els] for a in els]  # after[a][a'] is the index of a'a
    rows = [
        (gi * n + ai, blocks[at(G.conj(g, G.inv(a)))], [gi * n + k for k in after[ai]])
        for gi, g in enumerate(els)
        for ai, a in enumerate(els)
    ]
    basis = tuple((g, a) for g in els for a in els)
    return Algebra(basis, rows, tuple((g, G.unit) for g in els), name=f"D({G.name})")


@dataclass
class DoubleOracleResult:
    double: Algebra
    crs_algebra: Algebra
    bijection: dict | None

    @property
    def ok(self):
        return self.bijection is not None


def quantum_double_oracle(G: FinGroup) -> DoubleOracleResult:
    """Certify that the loop groupoid of colourings realises the double.

    Builds the double directly from the product formula, then matches it,
    basis to basis, with the groupoid algebra of the extended assignment to
    a one-cell circle.
    """
    from .finalg.crossed import iota1
    from .homotopy import crs_pi1
    from .simpset import circle

    D = quantum_double(G)
    crs = crs_pi1(circle(), iota1(G))
    B = groupoid_algebra(crs.groupoid)
    conj = {(a, g): G.mul(G.mul(a, g), G.inv(a)) for a in G.elements for g in G.elements}
    AG = action_groupoid(G, G.elements, conj)
    iso = find_groupoid_iso(crs.groupoid, AG)
    bij = None if iso is None else iso[1]  # the arrow map, on every arrow of the loop groupoid
    if bij is not None and not check_algebra_iso(B, D, bij):
        bij = None
    return DoubleOracleResult(D, B, bij)


# -- bimodules ---------------------------------------------------------------------


@dataclass
class Bimodule:
    """A bimodule with monomial actions, one basis map per algebra element.

    `lact[a]` maps each module element m that a acts on to a.m, and
    `ract[b]` each m to m.b; a product missing from a map is zero, and so is
    a missing map.  Every coefficient is 1, so an action is monomial by
    construction.
    """
    left: Algebra
    right: Algebra
    basis: tuple
    lact: dict  # a -> {m: a.m}
    ract: dict  # b -> {m: m.b}
    name: str = ""

    @property
    def dim(self):
        return len(self.basis)

    def validate(self) -> bool:
        """Units act as identities, products act as composites on each side, and the actions commute."""

        def then(t1: dict, t2: dict, m):
            k = t1.get(m)
            return None if k is None else t2.get(k)

        L, R = self.lact, self.ract
        for maps, alg, left in ((L, self.left, True), (R, self.right, False)):
            # the images of m under the units, summed, must be m
            units = [maps.get(u, {}) for u in alg.unit]
            if any([t[m] for t in units if m in t] != [m] for m in self.basis):
                return False
            # a1.(a2.m) = (a1 a2).m, but (m.b1).b2 = m.(b1 b2); a zero product acts as zero
            ts = [maps.get(x, {}) for x in alg.basis]
            for tx, row in zip(ts, _row_maps(alg)):
                for j, ty in enumerate(ts):
                    k = row.get(j)
                    prod = {} if k is None else ts[k]
                    t1, t2 = (ty, tx) if left else (tx, ty)
                    if any(prod.get(m) != then(t1, t2, m) for m in self.basis):
                        return False
        for a in self.left.basis:
            ta = L.get(a, {})
            for b in self.right.basis:
                tb = R.get(b, {})
                if any(then(ta, tb, m) != then(tb, ta, m) for m in self.basis):
                    return False
        return True


def lin2_bimodule(P: Profunctor) -> Bimodule:
    """Direct sum of the basis sets of a profunctor, acted on by its groupoid algebras.

    An arrow acts on the basis by the profunctor's map of basis elements, so
    the bimodule shares `P.lact` and `P.ract` as they are.
    """
    AL, AR = groupoid_algebra(P.left.groupoid), groupoid_algebra(P.right.groupoid)
    return Bimodule(AL, AR, P.elements(), P.lact, P.ract, name="Lin2(P)")


def _rows(maps: dict) -> dict:
    """{x: {m: image}} -> {m: {x: image}}: the algebra elements acting on each module element."""
    rows: dict = {}
    for x, t in maps.items():
        for m, img in t.items():
            rows.setdefault(m, {})[x] = img
    return rows


def tensor_over(M: Bimodule, N: Bimodule):
    """M tensor N over the shared middle algebra.

    Returns (bimodule, classes) where classes maps each spanning pair to its
    basis label in the quotient (or None when the pair is identified to
    zero).  The actions are monomial, so the quotient is computed by orbit
    identification, and a class is zero when any of its pairs is balanced
    against zero.  A pair (m, n) is balanced only over the middle elements
    that act on m or on n, read from the per-element rows of the maps.
    """
    if M.right.basis != N.left.basis:
        raise ValueError("middle algebras do not match")
    m_left, m_right, n_left, n_right = map(_rows, (M.lact, M.ract, N.lact, N.ract))
    pairs = tuple((m, n) for m in M.basis for n in N.basis)
    index = {p: i for i, p in enumerate(pairs)}
    links, zero_marks = [], []
    for (m, n) in pairs:
        mrow, nrow = m_right.get(m, {}), n_left.get(n, {})
        for b in mrow.keys() | nrow.keys():
            mi, ni = mrow.get(b), nrow.get(b)
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
    basis = tuple(pairs[members[0]] for ci, members in enumerate(parts) if ci not in zero)
    lact, ract = {a: {} for a in M.left.basis}, {c: {} for c in N.right.basis}
    for (m, n) in basis:
        for a, img in m_left.get(m, {}).items():
            if (tgt := classes[(img, n)]) is not None:
                lact[a][(m, n)] = tgt
        for c, img in n_right.get(n, {}).items():
            if (tgt := classes[(m, img)]) is not None:
                ract[c][(m, n)] = tgt
    T = Bimodule(M.left, N.right, basis, lact, ract, name="tensor")
    return T, classes


# -- Frobenius and separability data ---------------------------------------------


@dataclass
class FrobeniusData:
    algebra: Algebra
    lam: dict  # basis -> coeff
    casimir: list  # [(x, y, coeff)]
    separability: list  # [(x, y, coeff)]


def frobenius_data(G: FinGroupoid) -> FrobeniusData:
    """The symmetric Frobenius and separability structure on a groupoid algebra."""
    A = groupoid_algebra(G)
    ids = set(G.ident.values())
    lam = {a: _ONE if a in ids else Fraction(0) for a in G.arrows}
    casimir = [(a, G.inv(a), _ONE) for a in G.arrows]
    sep = [
        (a, G.inv(a), Fraction(1, len(G.arrows_from(G.src[a])))) for a in G.arrows
    ]
    return FrobeniusData(A, lam, casimir, sep)


def verify_frobenius(data: FrobeniusData) -> bool:
    A, at = data.algebra, data.algebra.index
    prod = _row_maps(A)
    lam = [data.lam[b] for b in A.basis]
    # symmetry of the trace: lam(ab) = lam(ba), where a zero product has trace 0
    if any(lam[ab] != (0 if (ba := prod[b].get(a)) is None else lam[ba])
           for a, row in enumerate(prod) for b, ab in row.items()):
        return False

    def casimir_holds(tensor):
        terms = [(at[x], at[y], c) for x, y, c in tensor]
        for w, w_row in enumerate(prod):
            lhs, rhs = {}, {}
            for (x, y, c) in terms:
                if (k := w_row.get(x)) is not None:
                    _addinto(lhs, (k, y), c)
                if (k := prod[y].get(w)) is not None:
                    _addinto(rhs, (x, k), c)
            if lhs != rhs:
                return False
        return True

    if not (casimir_holds(data.casimir) and casimir_holds(data.separability)):
        return False
    unit = dict.fromkeys(A.unit, _ONE)
    # compatibility: (lam tensor id)(e) = 1 = (id tensor lam)(e)
    left, right = {}, {}
    for (x, y, c) in data.casimir:
        _addinto(left, y, c * data.lam[x])
        _addinto(right, x, c * data.lam[y])
    if left != unit or right != unit:
        return False
    # separability witness multiplies to the unit
    total: dict = {}
    for (x, y, c) in data.separability:
        if (k := prod[at[x]].get(at[y])) is not None:
            _addinto(total, A.basis[k], c)
    return total == unit
