"""Groupoid algebras, bimodules from profunctors, tensor composition,
Frobenius/separability data, and the quantum double oracle.

Structure constants are exact rationals; for groupoid algebras they are 0/1
and multiplication of basis elements is composability-gated concatenation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .finalg.groups import FinGroup
from .finalg.groupoids import FinGroupoid, action_groupoid, find_groupoid_iso, partition
from .extprof import Profunctor

# the one coefficient of every basis product and action; sharing it lets equal
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
    left: Algebra
    right: Algebra
    basis: tuple
    lact: dict  # (a, m) -> {m': coeff}
    ract: dict  # (m, b) -> {m': coeff}
    name: str = ""

    @property
    def dim(self):
        return len(self.basis)

    def _lapply(self, a, v: dict) -> dict:
        out: dict = {}
        for m, cm in v.items():
            for mp, c in self.lact.get((a, m), {}).items():
                _addinto(out, mp, cm * c)
        return out

    def _rapply(self, v: dict, b) -> dict:
        out: dict = {}
        for m, cm in v.items():
            for mp, c in self.ract.get((m, b), {}).items():
                _addinto(out, mp, cm * c)
        return out

    def validate(self) -> bool:
        for m in self.basis:
            vm = {m: _ONE}
            lhs: dict = {}
            for a, ca in self.left.unit.items():
                for k, c in self._lapply(a, vm).items():
                    _addinto(lhs, k, ca * c)
            if lhs != vm:
                return False
            rhs: dict = {}
            for b, cb in self.right.unit.items():
                for k, c in self._rapply(vm, b).items():
                    _addinto(rhs, k, cb * c)
            if rhs != vm:
                return False
        for a1 in self.left.basis:
            for a2 in self.left.basis:
                prod = self.left.mul.get((a1, a2), {})
                for m in self.basis:
                    vm = {m: _ONE}
                    lhs = {}
                    for k, ck in prod.items():
                        for mp, c in self._lapply(k, vm).items():
                            _addinto(lhs, mp, ck * c)
                    if lhs != self._lapply(a1, self._lapply(a2, vm)):
                        return False
        for b1 in self.right.basis:
            for b2 in self.right.basis:
                prod = self.right.mul.get((b1, b2), {})
                for m in self.basis:
                    vm = {m: _ONE}
                    lhs = {}
                    for k, ck in prod.items():
                        for mp, c in self._rapply(vm, k).items():
                            _addinto(lhs, mp, ck * c)
                    if lhs != self._rapply(self._rapply(vm, b1), b2):
                        return False
        for a in self.left.basis:
            for b in self.right.basis:
                for m in self.basis:
                    vm = {m: _ONE}
                    if self._rapply(self._lapply(a, vm), b) != self._lapply(
                        a, self._rapply(vm, b)
                    ):
                        return False
        return True


def lin2_bimodule(P: Profunctor) -> Bimodule:
    """Direct sum of the basis sets of a profunctor, with matrix actions."""
    GL, GR = P.left.groupoid, P.right.groupoid
    AL, AR = groupoid_algebra(GL), groupoid_algebra(GR)
    basis = P.elements()
    lact, ract = {}, {}
    for (x, y), els in P.basis.items():
        for m in els:
            for g in GL.arrows_into(x):
                lact[(g, m)] = {P.lact[g][m]: _ONE}
            for h in GR.arrows_from(y):
                ract[(m, h)] = {P.ract[h][m]: _ONE}
    return Bimodule(AL, AR, basis, lact, ract, name="Lin2(P)")


def _monomial_image(row: dict):
    if not row:
        return None
    if len(row) == 1:
        (k, c), = row.items()
        if c == 1:
            return k
    return ...


def _images(table: dict, side: int) -> dict:
    """Module element -> {algebra element: image} over the rows of a monomial action table.

    `side` is the position of the module element in the table's keys.  An
    empty row has image None; a row that is not monomial raises
    NotImplementedError.
    """
    out: dict = {}
    for key, row in table.items():
        img = _monomial_image(row)
        if img is ...:
            raise NotImplementedError("non-monomial actions are outside the desk corpus")
        out.setdefault(key[side], {})[key[1 - side]] = img
    return out


def tensor_over(M: Bimodule, N: Bimodule):
    """M tensor N over the shared middle algebra.

    Returns (bimodule, classes) where classes maps each spanning pair to its
    basis label in the quotient (or None when the pair is identified to
    zero).  Every action must be monomial: the quotient is then computed by
    orbit identification, and a class is zero when any of its pairs is
    balanced against zero.  A pair (m, n) is balanced only over the middle
    elements with a row at m or at n, read from the keys of the action
    tables.  Non-monomial actions raise NotImplementedError.
    """
    if M.right.basis != N.left.basis:
        raise ValueError("middle algebras do not match")
    m_left, m_right = _images(M.lact, 1), _images(M.ract, 0)
    n_left, n_right = _images(N.lact, 1), _images(N.ract, 0)
    pairs = tuple((m, n) for m in M.basis for n in N.basis)
    index = {p: i for i, p in enumerate(pairs)}
    links, zero_marks = [], []
    for (m, n) in pairs:
        mrow, nrow = m_right.get(m, {}), n_left.get(n, {})
        for b in mrow.keys() | nrow.keys():
            mi, ni = mrow.get(b), nrow.get(b)
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
        for a, img in m_left.get(m, {}).items():
            if img is not None and (tgt := classes[(img, n)]) is not None:
                lact[(a, (m, n))] = {tgt: _ONE}
        for c, img in n_right.get(n, {}).items():
            if img is not None and (tgt := classes[(m, img)]) is not None:
                ract[((m, n), c)] = {tgt: _ONE}
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
