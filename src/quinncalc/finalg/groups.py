"""Finite groups presented by explicit multiplication tables.

Everything is fully tabular: elements are hashable ids in a declared order,
and the canonical order of the `elements` tuple is the tie-breaking order
used by every enumeration in the package.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from ..errors import AxiomError, SchemaError


@dataclass
class ValidationReport:
    """Outcome of a table validation.

    `kind` is "malformed" when a table is not total where required, and
    "axiom" when the tables are total but an axiom fails; `witness` holds
    the first offending tuple.
    """

    ok: bool
    kind: str | None = None
    message: str = ""
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def passed(cls) -> "ValidationReport":
        return cls(True)

    @classmethod
    def malformed(cls, message, witness=None) -> "ValidationReport":
        return cls(False, "malformed", message, witness)

    @classmethod
    def axiom(cls, message, witness=None) -> "ValidationReport":
        return cls(False, "axiom", message, witness)

    def raise_if_failed(self) -> None:
        """Raise SchemaError (malformed) or AxiomError (axiom) unless the report passed."""
        if not self.ok:
            kind = SchemaError if self.kind == "malformed" else AxiomError
            raise kind(f"{self.message} (witness {self.witness})")


class FinGroup:
    """A finite group as an element list plus a multiplication table."""

    def __init__(self, elements, mul, name=""):
        self.elements = tuple(elements)
        self.name = name
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._mul = dict(mul)
        self.unit = self._find_unit()
        self._inv = self._find_inverses() if self.unit is not None else {}

    def _find_unit(self):
        for e in self.elements:
            if all(
                self._mul.get((e, x)) == x and self._mul.get((x, e)) == x
                for x in self.elements
            ):
                return e
        return None

    def _find_inverses(self):
        inv = {}
        for a in self.elements:
            for b in self.elements:
                if self._mul.get((a, b)) == self.unit and self._mul.get((b, a)) == self.unit:
                    inv[a] = b
                    break
        return inv

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self._index

    def index(self, e):
        return self._index[e]

    def mul(self, a, b):
        return self._mul[(a, b)]

    def inv(self, a):
        return self._inv[a]

    def prod(self, items):
        out = self.unit
        for x in items:
            out = self.mul(out, x)
        return out

    def conj(self, a, g):
        """g^-1 a g."""
        return self.mul(self.mul(self.inv(g), a), g)

    def is_abelian(self):
        return all(
            self.mul(a, b) == self.mul(b, a)
            for i, a in enumerate(self.elements)
            for b in self.elements[i + 1 :]
        )

    def element_order(self, a):
        n, x = 1, a
        while x != self.unit:
            x = self.mul(x, a)
            n += 1
        return n

    def validate(self) -> ValidationReport:
        els = set(self.elements)
        if len(els) != len(self.elements):
            seen = set()
            repeated = next(e for e in self.elements if e in seen or seen.add(e))
            return ValidationReport.malformed("duplicate element ids", (repeated,))
        for a in self.elements:
            for b in self.elements:
                c = self._mul.get((a, b))
                if c is None:
                    return ValidationReport.malformed("multiplication not total", (a, b))
                if c not in els:
                    return ValidationReport.malformed("product outside element set", (a, b, c))
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                        return ValidationReport.axiom("associativity fails", (a, b, c))
        if self.unit is None:
            return ValidationReport.axiom("no two-sided unit")
        for a in self.elements:
            if a not in self._inv:
                return ValidationReport.axiom("no two-sided inverse", (a,))
        return ValidationReport.passed()

    def __repr__(self):
        return f"FinGroup({self.name or len(self.elements)})"


def cyclic_group(n: int) -> FinGroup:
    els = tuple(range(n))
    mul = {(a, b): (a + b) % n for a in els for b in els}
    return FinGroup(els, mul, name=f"Z{n}")


def trivial_group() -> FinGroup:
    return cyclic_group(1)


def symmetric_group(n: int) -> FinGroup:
    """Permutations of {0..n-1} as image tuples; product applies left factor first."""
    els = tuple(sorted(permutations(range(n))))
    mul = {}
    for p in els:
        for q in els:
            mul[(p, q)] = tuple(q[p[i]] for i in range(n))
    return FinGroup(els, mul, name=f"S{n}")


def subgroup(G: FinGroup, members) -> FinGroup:
    """The subgroup on `members`, kept in the ambient canonical order."""
    members = set(members)
    els = tuple(e for e in G.elements if e in members)
    mul = {(a, b): G.mul(a, b) for a in els for b in els}
    return FinGroup(els, mul, name=f"{G.name}-sub")


def closure(G: FinGroup, gens) -> frozenset:
    seen = {G.unit, *gens}
    frontier = list(seen)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                for c in (G.mul(a, g), G.mul(g, a)):
                    if c not in seen:
                        seen.add(c)
                        new.append(c)
        frontier = new
    return frozenset(seen)


def is_normal(G: FinGroup, members) -> bool:
    members = set(members)
    return all(G.conj(a, g) in members for a in members for g in G.elements)


def quotient_group(G: FinGroup, normal_members) -> tuple[FinGroup, dict]:
    """Quotient by a normal subgroup; class representatives are order-minimal.

    Returns the quotient group (elements are the representatives) and the
    projection map element -> representative.
    """
    normal = set(normal_members)
    proj = {}
    for a in G.elements:
        if a in proj:
            continue
        coset = [G.mul(a, n) for n in G.elements if n in normal]
        rep = min(coset, key=G.index)
        for c in coset:
            proj[c] = rep
    reps = tuple(r for r in G.elements if proj[r] == r)
    mul = {(a, b): proj[G.mul(a, b)] for a in reps for b in reps}
    return FinGroup(reps, mul, name=f"{G.name}/N"), proj


def _generating_sequence(G: FinGroup):
    gens = []
    span = {G.unit}
    for e in G.elements:
        if e not in span:
            gens.append(e)
            span = set(closure(G, gens))
        if len(span) == len(G):
            break
    return gens


def _words_for_elements(G: FinGroup, gens):
    """Express every element as a word in `gens` by breadth-first search."""
    words = {G.unit: ()}
    frontier = [G.unit]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = G.mul(a, g)
                if b not in words:
                    words[b] = words[a] + (g,)
                    new.append(b)
        frontier = new
    return words


def find_group_iso(G: FinGroup, H: FinGroup):
    """Search for an isomorphism G -> H; returns an element map or None."""
    if len(G) != len(H):
        return None
    orders_G = sorted(G.element_order(a) for a in G.elements)
    orders_H = sorted(H.element_order(a) for a in H.elements)
    if orders_G != orders_H:
        return None
    gens = _generating_sequence(G)
    words = _words_for_elements(G, gens)
    by_order = {}
    for h in H.elements:
        by_order.setdefault(H.element_order(h), []).append(h)

    def build(genmap):
        phi = {}
        for a, w in words.items():
            phi[a] = H.prod(genmap[g] for g in w)
        if len(set(phi.values())) != len(H):
            return None
        for a in G.elements:
            for b in G.elements:
                if phi[G.mul(a, b)] != H.mul(phi[a], phi[b]):
                    return None
        return phi

    def backtrack(i, genmap):
        if i == len(gens):
            return build(genmap)
        g = gens[i]
        for h in by_order.get(G.element_order(g), []):
            genmap[g] = h
            phi = backtrack(i + 1, genmap)
            if phi is not None:
                return phi
        genmap.pop(gens[i], None)
        return None

    return backtrack(0, {})
