"""Finite truncated crossed complexes and their derived invariants.

A crossed complex here is a groupoid A1 over an object set A0, a family of
groups A_n(x) for 2 <= n <= N (abelian for n >= 3), boundary maps down the
tower and a right A1-action on every level.  Levels above the declared
truncation N are trivial by contract and never stored.
"""
from __future__ import annotations

from fractions import Fraction

from .groups import FinGroup, ValidationReport, is_normal, quotient_group, subgroup, trivial_group
from .groupoids import FinGroupoid, groupoid_from_group

_TRIVIAL = trivial_group()  # every level above the truncation, at every object


class CrossedModulePresentation:
    """A crossed module of groups: bdry: E -> G with a right G-action on E."""

    def __init__(self, G: FinGroup, E: FinGroup, bdry: dict, act: dict, name=""):
        self.G = G
        self.E = E
        self.bdry = dict(bdry)
        self.act = dict(act)
        self.name = name or f"({E.name}->{G.name})"

    def validate(self) -> ValidationReport:
        """The axioms of the 2-truncated crossed complex it presents (`iota2`), G's and E's with them.

        Partial tables stay partial there, so a missing entry is reported as
        malformed.
        """
        return iota2(self).validate()


def crossed_module_zero(G: FinGroup, E: FinGroup, act=None) -> CrossedModulePresentation:
    """Zero boundary; the action defaults to trivial."""
    bdry = {e: G.unit for e in E.elements}
    if act is None:
        act = {(e, g): e for e in E.elements for g in G.elements}
    return CrossedModulePresentation(G, E, bdry, act, name=f"0:{E.name}->{G.name}")


def crossed_module_identity(G: FinGroup) -> CrossedModulePresentation:
    """Identity boundary; conjugation action is forced by the Peiffer identities."""
    bdry = {g: g for g in G.elements}
    act = {(e, g): G.conj(e, g) for e in G.elements for g in G.elements}
    return CrossedModulePresentation(G, G, bdry, act, name=f"id:{G.name}")


class CrossedComplex:
    """Finite crossed complex, explicitly truncated at level N.

    Level-n elements for n >= 2 are addressed as pairs (x, e) with x the
    base object and e an element id of the fibre group `levels[n][x]`.
    """

    def __init__(self, base: FinGroupoid, levels=None, bdry=None, act=None, truncation=1, name=""):
        self.base = base
        self.objects = base.objects
        self.levels = {n: dict(groups) for n, groups in (levels or {}).items()}
        self.bdry = {n: dict(t) for n, t in (bdry or {}).items()}
        self.act = {n: dict(t) for n, t in (act or {}).items()}
        self.truncation = truncation
        self.name = name

    # -- element bookkeeping -------------------------------------------------
    @property
    def is_reduced(self):
        return len(self.objects) == 1

    def fibre(self, n, x) -> FinGroup:
        if 2 <= n <= self.truncation:
            return self.levels[n][x]
        return _TRIVIAL

    def level_elements(self, n):
        """All (x, e) of level n, objects first, fibre order inside."""
        if not 2 <= n <= self.truncation:
            return tuple((x, 0) for x in self.objects)
        return tuple((x, e) for x in self.objects for e in self.levels[n][x].elements)

    def identity_elem(self, n, x):
        return (x, self.fibre(n, x).unit)

    def mul(self, n, a, b):
        (x, e1), (x2, e2) = a, b
        if x != x2:
            raise ValueError("fibre mismatch")
        return (x, self.fibre(n, x).mul(e1, e2))

    def inv_elem(self, n, a):
        x, e = a
        return (x, self.fibre(n, x).inv(e))

    def pow_elem(self, n, a, sign):
        return a if sign > 0 else self.inv_elem(n, a)

    def bdry_of(self, n, a):
        """Boundary of a level-n element: an A1 loop for n=2, a level-(n-1) element for n>=3."""
        x, e = a
        if n > self.truncation:
            return self.base.ident[x] if n == 2 else self.identity_elem(n - 1, x)
        if n == 2:
            return self.bdry[2][(x, e)]
        return (x, self.bdry[n][(x, e)])

    def act_elem(self, n, a, arrow):
        """Right action of an A1 arrow on a level-n element (n >= 2)."""
        x, e = a
        if self.base.src[arrow] != x:
            raise ValueError("action base mismatch")
        y = self.base.tgt[arrow]
        if n > self.truncation:
            return self.identity_elem(n, y)
        return (y, self.act[n][((x, e), arrow)])

    def act_arrow(self, loop, arrow):
        """Conjugation action on A1 loops: loop |> arrow = arrow^-1 . loop . arrow."""
        return self.base.comp(self.base.comp(self.base.inv(arrow), loop), arrow)

    # -- counting ------------------------------------------------------------
    def theta(self, x, i) -> int:
        """Number of level-i morphisms with source x."""
        if i == 1:
            return len(self.base.arrows_from(x))
        if 2 <= i <= self.truncation:
            return len(self.levels[i][x])
        return 1

    def level_size(self, m) -> int:
        """Total number of level-m morphisms (used in the reduced state-sum weights)."""
        if m == 1:
            return len(self.base.arrows)
        if 2 <= m <= self.truncation:
            return sum(len(self.levels[m][x]) for x in self.objects)
        return len(self.objects)

    # -- validation ----------------------------------------------------------
    def validate(self) -> ValidationReport:
        if self.truncation < 1:
            return ValidationReport.malformed(f"truncation {self.truncation} is below 1")
        rep = self.base.validate()
        if not rep:
            return rep
        for n in range(2, self.truncation + 1):
            groups = self.levels.get(n)
            if groups is None or set(groups) != set(self.objects):
                return ValidationReport.malformed(f"level {n} missing fibres")
            for x in self.objects:
                rep = groups[x].validate()
                if not rep:
                    return ValidationReport(False, rep.kind, f"level {n} fibre at {x}: {rep.message}", rep.witness)
                if n >= 3 and not groups[x].is_abelian():
                    return ValidationReport.axiom(f"level {n} fibre at {x} is not abelian")
            arrows = set(self.base.arrows)
            for (x, e) in self.level_elements(n):
                key = (x, e)
                if key not in self.bdry.get(n, {}):
                    return ValidationReport.malformed(f"level {n} boundary not total", key)
                if self.bdry[n][key] not in (arrows if n == 2 else self.levels[n - 1][x]):
                    return ValidationReport.malformed(
                        f"level {n} boundary value outside level {n - 1}", key
                    )
                for g in self.base.arrows_from(x):
                    if (key, g) not in self.act.get(n, {}):
                        return ValidationReport.malformed(f"level {n} action not total", (key, g))
                    if self.act[n][(key, g)] not in groups[self.base.tgt[g]]:
                        return ValidationReport.malformed(
                            f"level {n} action value outside level {n}", (key, g)
                        )
        # boundary is a base-preserving groupoid map
        for n in range(2, self.truncation + 1):
            for x in self.objects:
                F = self.levels[n][x]
                for e1 in F.elements:
                    for e2 in F.elements:
                        lhs = self.bdry_of(n, (x, F.mul(e1, e2)))
                        a, b = self.bdry_of(n, (x, e1)), self.bdry_of(n, (x, e2))
                        rhs = self.base.comp(a, b) if n == 2 else self.mul(n - 1, a, b)
                        if lhs != rhs:
                            return ValidationReport.axiom(
                                f"level {n} boundary not a homomorphism", (x, e1, e2)
                            )
                if n == 2:
                    for e in F.elements:
                        loop = self.bdry_of(2, (x, e))
                        if self.base.src[loop] != x or self.base.tgt[loop] != x:
                            return ValidationReport.axiom("level 2 boundary not a loop at base", (x, e))
        # d o d trivial
        for n in range(3, self.truncation + 1):
            for a in self.level_elements(n):
                b = self.bdry_of(n, a)
                bb = self.bdry_of(n - 1, b)
                trivial = (
                    bb == self.base.ident[a[0]] if n == 3 else bb == self.identity_elem(n - 2, a[0])
                )
                if not trivial:
                    return ValidationReport.axiom(f"boundary squared nontrivial at level {n}", a)
        # action functoriality and compatibility with fibre structure
        for n in range(2, self.truncation + 1):
            for a in self.level_elements(n):
                x = a[0]
                if self.act_elem(n, a, self.base.ident[x]) != a:
                    return ValidationReport.axiom(f"identity arrow acts nontrivially at level {n}", a)
                for g in self.base.arrows_from(x):
                    ag = self.act_elem(n, a, g)
                    for h in self.base.arrows_from(self.base.tgt[g]):
                        if self.act_elem(n, ag, h) != self.act_elem(n, a, self.base.comp(g, h)):
                            return ValidationReport.axiom(
                                f"action not functorial at level {n}", (a, g, h)
                            )
            for x in self.objects:
                F = self.levels[n][x]
                for g in self.base.arrows_from(x):
                    for e1 in F.elements:
                        for e2 in F.elements:
                            lhs = self.act_elem(n, (x, F.mul(e1, e2)), g)
                            rhs = self.mul(
                                n, self.act_elem(n, (x, e1), g), self.act_elem(n, (x, e2), g)
                            )
                            if lhs != rhs:
                                return ValidationReport.axiom(
                                    f"action not by homomorphisms at level {n}", (x, e1, e2, g)
                                )
        # first Peiffer condition
        for n in range(2, self.truncation + 1):
            for a in self.level_elements(n):
                x = a[0]
                for g in self.base.arrows_from(x):
                    lhs = self.bdry_of(n, self.act_elem(n, a, g))
                    if n == 2:
                        rhs = self.act_arrow(self.bdry_of(2, a), g)
                    else:
                        rhs = self.act_elem(n - 1, self.bdry_of(n, a), g)
                    if lhs != rhs:
                        return ValidationReport.axiom(
                            f"first Peiffer condition fails at level {n}", (a, g)
                        )
        # second Peiffer condition
        if self.truncation >= 2:
            for x in self.objects:
                F = self.levels[2][x]
                for a in F.elements:
                    for b in F.elements:
                        lhs = self.act_elem(2, (x, a), self.bdry_of(2, (x, b)))
                        rhs = (x, F.conj(a, b))
                        if lhs != rhs:
                            return ValidationReport.axiom(
                                "second Peiffer condition fails", (x, a, b)
                            )
        # bdry(A2) acts trivially above level 2
        for n in range(3, self.truncation + 1):
            for x in self.objects:
                for b in self.levels[2][x].elements:
                    loop = self.bdry_of(2, (x, b))
                    for a in self.level_elements(n):
                        if a[0] != x:
                            continue
                        if self.act_elem(n, a, loop) != a:
                            return ValidationReport.axiom(
                                f"level 2 boundaries act nontrivially on level {n}", (a, b)
                            )
        return ValidationReport.passed()

    def __repr__(self):
        return f"CrossedComplex({self.name or ''}, N={self.truncation})"


def validate_crossed_complex(A: CrossedComplex) -> ValidationReport:
    return A.validate()


def iota1(G) -> CrossedComplex:
    """A groupoid (or group) as a 1-truncated crossed complex."""
    base = groupoid_from_group(G) if isinstance(G, FinGroup) else G
    return CrossedComplex(base, truncation=1, name=f"i1({base.name})")


def iota2(M: CrossedModulePresentation) -> CrossedComplex:
    """A crossed module as a 2-truncated reduced crossed complex."""
    obj = "*"
    base = groupoid_from_group(M.G, obj)
    levels = {2: {obj: M.E}}
    # partial presentation tables propagate as partial tables, so that
    # validate_crossed_complex can report them as malformed
    bdry = {2: {(obj, e): M.bdry[e] for e in M.E.elements if e in M.bdry}}
    act = {
        2: {
            ((obj, e), g): M.act[(e, g)]
            for e in M.E.elements
            for g in M.G.elements
            if (e, g) in M.act
        }
    }
    return CrossedComplex(base, levels, bdry, act, truncation=2, name=f"i2{M.name}")


def pi0(A: CrossedComplex):
    """Component set of the base groupoid plus the component-of map."""
    comps = A.base.components()
    return comps, A.base.component_of()


def fundamental_groupoid(A: CrossedComplex):
    """A1 / bdry(A2) together with the projection on arrows."""
    from .groupoids import quotient_groupoid

    if A.truncation < 2:
        ident_proj = {a: a for a in A.base.arrows}
        return A.base, ident_proj
    normal = {
        x: frozenset(A.bdry_of(2, (x, e)) for e in A.levels[2][x].elements) for x in A.objects
    }
    return quotient_groupoid(A.base, normal)


def homotopy_group(A: CrossedComplex, c, n: int) -> FinGroup:
    """The n-th homotopy group of A at the object c."""
    if c not in set(A.objects):
        raise ValueError(f"{c!r} is not an object")
    if n == 1:
        quot, _ = fundamental_groupoid(A)
        return quot.vertex_group(c)
    F = A.fibre(n, c)
    if n > A.truncation:
        return _TRIVIAL
    if n == 2:
        ker = [e for e in F.elements if A.bdry_of(2, (c, e)) == A.base.ident[c]]
    else:
        ker = [e for e in F.elements if A.bdry_of(n, (c, e)) == A.identity_elem(n - 1, c)]
    K = subgroup(F, ker)
    if n + 1 > A.truncation:
        img = [F.unit]
    else:
        img = sorted(
            {A.bdry_of(n + 1, (c, e))[1] for e in A.fibre(n + 1, c).elements}, key=F.index
        )
    if not is_normal(K, img):
        raise ValueError("boundary image is not normal in the kernel")
    Q, _ = quotient_group(K, img)
    return Q


def chi_pi(A: CrossedComplex) -> Fraction:
    """Homotopy content of a finite crossed complex, as an exact rational.

    Evaluated along both closed formulas (the alternating product of
    homotopy group orders per component, and the alternating product of
    per-object morphism counts); the two must agree.
    """
    comps, _ = pi0(A)
    via_groups = Fraction(0)
    for comp in comps:
        c = comp[0]
        term = Fraction(1)
        for n in range(1, A.truncation + 1):
            term *= Fraction(len(homotopy_group(A, c, n))) ** ((-1) ** n)
        via_groups += term
    via_theta = Fraction(0)
    for x in A.objects:
        term = Fraction(1)
        for i in range(1, A.truncation + 1):
            term *= Fraction(A.theta(x, i)) ** ((-1) ** i)
        via_theta += term
    if via_groups != via_theta:
        raise ArithmeticError(
            f"homotopy content paths disagree: {via_groups} vs {via_theta}"
        )
    return via_theta


def semidirect(G: FinGroup, E: FinGroup, act: dict) -> FinGroup:
    """Semidirect product on G x E with (h', e')(h, e) = (h'h, e.(e' <| h)).

    `act` maps (e, g) to e acted on by g; it must be an action by
    automorphisms.
    """
    for g in G.elements:
        phi = {e: act[(e, g)] for e in E.elements}
        if len(set(phi.values())) != len(E):
            raise ValueError(f"action by {g!r} is not a bijection")
        for a in E.elements:
            for b in E.elements:
                if act[(E.mul(a, b), g)] != E.mul(phi[a], phi[b]):
                    raise ValueError(f"action by {g!r} is not an automorphism")
    els = tuple((h, e) for h in G.elements for e in E.elements)
    mul = {}
    for (h1, e1) in els:
        for (h2, e2) in els:
            mul[((h1, e1), (h2, e2))] = (G.mul(h1, h2), E.mul(e2, act[(e1, h2)]))
    out = FinGroup(els, mul, name=f"{G.name}x{E.name}")
    rep = out.validate()
    if not rep:
        raise ValueError(f"semidirect table invalid: {rep.message}")
    return out
