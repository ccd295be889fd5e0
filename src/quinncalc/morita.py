"""Groupoid algebras, bimodules from profunctors, tensor composition,
Frobenius/separability data, and the quantum double oracle.

Structure constants are exact rationals; for groupoid algebras they are 0/1
and multiplication of basis elements is composability-gated concatenation.
A bimodule's actions are monomial: one map of basis elements per algebra
element, which for Lin2 of a profunctor is the profunctor's own map per
arrow.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .finalg.groups import FinGroup
from .finalg.groupoids import FinGroupoid, action_groupoid, find_groupoid_iso, partition
from .extprof import Profunctor

# the one coefficient of every basis product and unit; sharing it lets equal
# rows compare by identity instead of through Fraction.__eq__
_ONE = Fraction(1)


def _addinto(acc: dict, key, coeff):
    c = acc.get(key, Fraction(0)) + coeff
    if c:
        acc[key] = c
    else:
        acc.pop(key, None)


@dataclass
class Algebra:
    basis: tuple
    mul: dict  # (i, j) -> {k: coeff}; missing means zero product
    unit: dict  # {i: coeff}
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
        for a in self.basis:
            va = {a: _ONE}
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


def groupoid_algebra(G: FinGroupoid) -> Algebra:
    """Arrows as basis; the product concatenates when endpoints match."""
    mul = {(a, b): {c: _ONE} for a, b, c in G.entries()}
    unit = {G.ident[x]: _ONE for x in G.objects}
    return Algebra(tuple(G.arrows), mul, unit, name=f"Lin2({G.name})")


def check_algebra_iso(A: Algebra, B: Algebra, bij: dict) -> bool:
    """Whether a basis bijection matches the structure constants exactly.

    Each non-empty row of A must map to B's row at the image pair.  The
    image pairs of distinct pairs are distinct, so B matches on every pair
    when it also has no more non-empty rows than A: the walk is over the
    non-zero products, not over all pairs of basis elements.
    """
    if set(bij) != set(A.basis) or set(bij.values()) != set(B.basis):
        return False
    if len(set(bij.values())) != len(bij):
        return False
    rows = 0
    for (a, b), row in A.mul.items():
        if not row or a not in bij or b not in bij:
            continue
        if B.mul.get((bij[a], bij[b]), {}) != {bij[k]: c for k, c in row.items()}:
            return False
        rows += 1
    in_B = set(B.basis)
    if rows != sum(1 for (a, b), row in B.mul.items() if row and a in in_B and b in in_B):
        return False
    return {bij[k]: c for k, c in A.unit.items()} == B.unit


def quantum_double(G: FinGroup) -> Algebra:
    """The quantum double on pairs (g, a), as an explicit structure table.

    (g, a) (g', a') is zero unless g' = a g a^-1, and is then (g, a'a); this
    is the associative composition-gated product of conjugation arrows
    (g, a): g -> a g a^-1.
    """
    els = tuple((g, a) for g in G.elements for a in G.elements)
    mul = {}
    for (g, a) in els:
        target = G.mul(G.mul(a, g), G.inv(a))
        for ap in G.elements:
            mul[((g, a), (target, ap))] = {(g, G.mul(ap, a)): _ONE}
    unit = {(g, G.unit): _ONE for g in G.elements}
    return Algebra(els, mul, unit, name=f"D({G.name})")


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
    bij = None
    if iso is not None:
        _, arrow_map = iso
        bij = {arrow: arrow_map[arrow] for arrow in crs.groupoid.arrows}
        if not check_algebra_iso(B, D, bij):
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

        def act(maps: dict, v: dict, m) -> dict:
            # the sum over v's basis elements x, with their coefficients, of the images of m
            out: dict = {}
            for x, c in v.items():
                if (img := maps.get(x, {}).get(m)) is not None:
                    _addinto(out, img, c)
            return out

        def then(t1: dict, t2: dict, m) -> dict:
            k = t1.get(m)
            return {} if k is None or (k2 := t2.get(k)) is None else {k2: _ONE}

        L, R = self.lact, self.ract
        for m in self.basis:
            if act(L, self.left.unit, m) != {m: _ONE} or act(R, self.right.unit, m) != {m: _ONE}:
                return False
        # a1.(a2.m) = (a1 a2).m, but (m.b1).b2 = m.(b1 b2)
        for maps, alg, left in ((L, self.left, True), (R, self.right, False)):
            for x in alg.basis:
                tx = maps.get(x, {})
                for y in alg.basis:
                    ty, prod = maps.get(y, {}), alg.mul.get((x, y), {})
                    t1, t2 = (ty, tx) if left else (tx, ty)
                    if any(act(maps, prod, m) != then(t1, t2, m) for m in self.basis):
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
    lam = {a: _ONE if a in set(G.ident.values()) else Fraction(0) for a in G.arrows}
    casimir = [(a, G.inv(a), _ONE) for a in G.arrows]
    sep = [
        (a, G.inv(a), Fraction(1, len(G.arrows_from(G.src[a])))) for a in G.arrows
    ]
    return FrobeniusData(A, lam, casimir, sep)


def verify_frobenius(data: FrobeniusData) -> bool:
    A = data.algebra
    lam = data.lam
    # symmetry of the trace
    for a in A.basis:
        for b in A.basis:
            ab = sum(lam[k] * c for k, c in A.mul.get((a, b), {}).items())
            ba = sum(lam[k] * c for k, c in A.mul.get((b, a), {}).items())
            if ab != ba:
                return False

    def casimir_holds(tensor):
        for w in A.basis:
            lhs: dict = {}
            rhs: dict = {}
            for (x, y, c) in tensor:
                for k, ck in A.mul.get((w, x), {}).items():
                    _addinto(lhs, (k, y), c * ck)
                for k, ck in A.mul.get((y, w), {}).items():
                    _addinto(rhs, (x, k), c * ck)
            if lhs != rhs:
                return False
        return True

    if not casimir_holds(data.casimir):
        return False
    if not casimir_holds(data.separability):
        return False
    # compatibility: (lam tensor id)(e) = 1 = (id tensor lam)(e)
    left: dict = {}
    right: dict = {}
    for (x, y, c) in data.casimir:
        _addinto(left, y, c * lam[x])
        _addinto(right, x, c * lam[y])
    if left != A.unit or right != A.unit:
        return False
    # separability witness multiplies to the unit
    total: dict = {}
    for (x, y, c) in data.separability:
        for k, ck in A.mul.get((x, y), {}).items():
            _addinto(total, k, c * ck)
    return total == A.unit
