"""Finite simplicial sets presented by nondegenerate generators.

A simplex is a `SimplexRef(core, word)`: a nondegenerate generator plus an
ascending degeneracy word.  The word (i1 < ... < ik) denotes the composite
s_{ik} ... s_{i1} applied to the core, which is the unique normal form;
equivalently the word is the set of repeat positions of the underlying
monotone surjection.  Faces of degenerate simplices are computed with the
simplicial identities and renormalised eagerly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import BoundaryError, SchemaError
from .finalg.groups import ValidationReport


class SimplexRef(NamedTuple):
    core: object
    word: tuple = ()


def degenerate_word(word: tuple, j: int) -> tuple:
    """Normal form of s_j applied to a simplex with degeneracy word `word`."""
    bumped = tuple(w + 1 if w >= j else w for w in word)
    return tuple(sorted(bumped + (j,)))


class SimpSet:
    def __init__(self, generators, faces, name=""):
        """`generators`: dict gen -> dim; `faces`: dict (gen, i) -> SimplexRef."""
        self.dim_of = dict(generators)
        order = list(self.dim_of)
        self.gens_by_dim: dict[int, tuple] = {}
        for g in order:
            self.gens_by_dim.setdefault(self.dim_of[g], ())
        for g in order:
            d = self.dim_of[g]
            self.gens_by_dim[d] = self.gens_by_dim[d] + (g,)
        self.faces = {k: SimplexRef(*v) for k, v in faces.items()}
        self.name = name
        self._all_gens = tuple(g for n in sorted(self.gens_by_dim) for g in self.gens_by_dim[n])
        self._gen_index = {g: i for i, g in enumerate(self._all_gens)}
        self.dim = max(self.gens_by_dim, default=-1)

    # -- basic access ---------------------------------------------------------
    def gens(self, n: int) -> tuple:
        return self.gens_by_dim.get(n, ())

    def all_gens(self) -> tuple:
        return self._all_gens

    def gen_index(self, g) -> int:
        return self._gen_index[g]

    def ref_dim(self, ref: SimplexRef) -> int:
        return self.dim_of[ref.core] + len(ref.word)

    def k_count(self, i: int) -> int:
        return len(self.gens(i))

    def k_count_rel(self, i: int, sub) -> int:
        """Generators of dimension i not in the subcomplex `sub` (a gen set)."""
        sub = set(sub)
        missing = sub - set(self.dim_of)
        if missing:
            raise SchemaError(f"unknown generators in subcomplex: {sorted(map(str, missing))}")
        self._check_closed(sub, "generator set")
        return sum(1 for g in self.gens(i) if g not in sub)

    def euler(self) -> int:
        return sum((-1) ** n * self.k_count(n) for n in range(self.dim + 1))

    # -- faces and degeneracies -------------------------------------------------
    def face(self, g, i: int) -> SimplexRef:
        return self.faces[(g, i)]

    def face_of_ref(self, ref: SimplexRef, i: int) -> SimplexRef:
        """d_i of a possibly degenerate simplex, in normal form."""
        core, word = ref
        if not word:
            return self.faces[(core, i)]
        outer = word[-1]
        rest = word[:-1]
        if i == outer or i == outer + 1:
            return SimplexRef(core, rest)
        if i < outer:
            inner = self.face_of_ref(SimplexRef(core, rest), i)
            return SimplexRef(inner.core, degenerate_word(inner.word, outer - 1))
        inner = self.face_of_ref(SimplexRef(core, rest), i - 1)
        return SimplexRef(inner.core, degenerate_word(inner.word, outer))

    def normalise(self, ref: SimplexRef) -> SimplexRef:
        """Renormalise a reference; identity on normal forms."""
        out = SimplexRef(ref.core, ())
        for j in ref.word:
            out = SimplexRef(out.core, degenerate_word(out.word, j))
        return out

    def initial_vertex(self, ref) -> object:
        """The 0th vertex (as a dim-0 generator) of a generator or reference."""
        if not isinstance(ref, SimplexRef):
            ref = SimplexRef(ref, ())
        ref = SimplexRef(ref.core, ())  # degeneracies keep the leading vertex
        while self.dim_of[ref.core] > 0:
            ref = self.face_of_ref(ref, self.dim_of[ref.core] + len(ref.word))
            ref = SimplexRef(ref.core, ())
        return ref.core

    def edge_ends(self, e) -> tuple:
        """(source vertex, target vertex) of an edge generator: (d1 e, d0 e)."""
        return self.face(e, 1).core, self.face(e, 0).core

    def edge01_ref(self, g) -> SimplexRef:
        """The 01-edge of a generator of dimension >= 2: d_2 d_3 ... d_n."""
        n = self.dim_of[g]
        ref = SimplexRef(g, ())
        for i in range(n, 1, -1):
            ref = self.face_of_ref(ref, i)
        return ref

    # -- subcomplexes -----------------------------------------------------------
    def subcomplex_closure(self, seed) -> frozenset:
        out = set(seed)
        stack = list(seed)
        while stack:
            g = stack.pop()
            for i in range(self.dim_of[g] + 1):
                if self.dim_of[g] == 0:
                    break
                c = self.face(g, i).core
                if c not in out:
                    out.add(c)
                    stack.append(c)
        return frozenset(out)

    def _check_closed(self, gens, what: str):
        """Raise `SchemaError` naming the first generator of gens with a face outside gens."""
        for g in sorted(gens, key=self.gen_index):
            if self.dim_of[g] == 0:
                continue
            for i in range(self.dim_of[g] + 1):
                c = self.face(g, i).core
                if c not in gens:
                    raise SchemaError(
                        f"{what} is not closed under faces: {str(g)!r} has face {str(c)!r} outside it"
                    )

    def restrict(self, gens) -> "SimpSet":
        """The subcomplex on a face-closed generator set, keeping the ids."""
        gens = set(gens)
        self._check_closed(gens, "generator set")
        generators = {g: self.dim_of[g] for g in self.all_gens() if g in gens}
        faces = {
            (g, i): self.faces[(g, i)]
            for g in generators
            for i in range(self.dim_of[g] + 1)
            if self.dim_of[g] > 0
        }
        return SimpSet(generators, faces, name=f"{self.name}|sub")

    # -- validation ---------------------------------------------------------
    def validate(self) -> ValidationReport:
        for g, d in self.dim_of.items():
            if d < 0:
                return ValidationReport.malformed("negative generator dimension", (g,))
        for (g, i), ref in self.faces.items():
            if g not in self.dim_of or ref.core not in self.dim_of:
                return ValidationReport.malformed("dangling face reference", (g, i))
            if not 0 <= i <= self.dim_of[g]:
                return ValidationReport.malformed("face index out of range", (g, i))
            if self.ref_dim(ref) != self.dim_of[g] - 1:
                return ValidationReport.malformed("face has wrong dimension", (g, i))
            if self.normalise(ref) != ref:
                return ValidationReport.malformed("face word not in normal form", (g, i))
            # s_w of the normal form acts on a simplex of dimension dim(core) + j
            if any(not 0 <= w <= self.dim_of[ref.core] + j for j, w in enumerate(ref.word)):
                return ValidationReport.malformed("degeneracy index out of range", (g, i))
        for g, d in self.dim_of.items():
            if d > 0:
                for i in range(d + 1):
                    if (g, i) not in self.faces:
                        return ValidationReport.malformed("missing face", (g, i))
        for g, d in self.dim_of.items():
            if d < 2:
                continue
            ref = SimplexRef(g, ())
            for j in range(d + 1):
                for i in range(j):
                    lhs = self.face_of_ref(self.face_of_ref(ref, j), i)
                    rhs = self.face_of_ref(self.face_of_ref(ref, i), j - 1)
                    if lhs != rhs:
                        return ValidationReport.axiom(
                            "simplicial identity d_i d_j = d_{j-1} d_i fails", (g, i, j)
                        )
        return ValidationReport.passed()

    def __eq__(self, other):
        return (
            isinstance(other, SimpSet)
            and self.dim_of == other.dim_of
            and self.gens_by_dim == other.gens_by_dim
            and self.faces == other.faces
        )

    def __repr__(self):
        counts = tuple(self.k_count(i) for i in range(self.dim + 1))
        return f"SimpSet({self.name or ''}, K={counts})"


def validate_simpset(X: SimpSet) -> ValidationReport:
    return X.validate()


@dataclass
class Stratification:
    """A simplicial set with named face-closed subcomplexes ("in", "out", ...)."""

    simpset: SimpSet
    tags: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.tags = {k: frozenset(v) for k, v in self.tags.items()}
        for k, gens in self.tags.items():
            unknown = sorted(map(str, gens - self.simpset.dim_of.keys()))
            if unknown:
                raise SchemaError(f"tagged subcomplex {k!r} names unknown generator {unknown[0]!r}")
            self.simpset._check_closed(gens, f"tagged subcomplex {k!r}")

    def tagged(self, key) -> frozenset:
        return self.tags.get(key, frozenset())

    def boundary_gens(self) -> frozenset:
        return self.tagged("in") | self.tagged("out")


# -- builders -----------------------------------------------------------------


def standard_simplex(n: int) -> SimpSet:
    """The n-simplex; generators are the strictly increasing vertex tuples."""
    if n < 0:
        raise SchemaError("dimension must be nonnegative")
    gens = {}
    faces = {}
    from itertools import combinations

    for d in range(n + 1):
        for t in combinations(range(n + 1), d + 1):
            gens[t] = d
            if d > 0:
                for i in range(d + 1):
                    faces[(t, i)] = SimplexRef(t[:i] + t[i + 1 :], ())
    return SimpSet(gens, faces, name=f"delta{n}")


def point() -> SimpSet:
    return SimpSet({"v": 0}, {}, name="point")


def interval() -> SimpSet:
    return standard_simplex(1)


def circle() -> SimpSet:
    gens = {"v": 0, "e": 1}
    faces = {("e", 0): SimplexRef("v"), ("e", 1): SimplexRef("v")}
    return SimpSet(gens, faces, name="circle")


def sphere(n: int) -> SimpSet:
    """One vertex and one n-cell, all of whose faces are degenerate."""
    if n < 1:
        raise SchemaError("sphere dimension must be >= 1")
    if n == 1:
        return circle()
    gens = {"v": 0, "c": n}
    collapsed = SimplexRef("v", tuple(range(n - 1)))
    faces = {("c", i): collapsed for i in range(n + 1)}
    return SimpSet(gens, faces, name=f"sphere{n}")


def torus() -> SimpSet:
    """One vertex, edges a, b, c and two triangles glued along the diagonal c."""
    gens = {"v": 0, "a": 1, "b": 1, "c": 1, "sig": 2, "tau": 2}
    v = SimplexRef("v")
    faces = {("a", 0): v, ("a", 1): v, ("b", 0): v, ("b", 1): v, ("c", 0): v, ("c", 1): v}
    faces[("sig", 0)] = SimplexRef("b")
    faces[("sig", 1)] = SimplexRef("c")
    faces[("sig", 2)] = SimplexRef("a")
    faces[("tau", 0)] = SimplexRef("a")
    faces[("tau", 1)] = SimplexRef("c")
    faces[("tau", 2)] = SimplexRef("b")
    return SimpSet(gens, faces, name="torus")


# -- products with the interval -------------------------------------------------

_DELTA1 = interval()


def _pair_normal_form(p: SimplexRef, q: SimplexRef):
    """Eilenberg-Zilber normal form of a product simplex.

    Returns ((p0, q0), word): the nondegenerate pair plus the common
    degeneracy word, removing shared indices largest first.
    """
    word = ()
    wp, wq = p.word, q.word
    common = sorted(set(wp) & set(wq), reverse=True)
    for j in common:
        wp = tuple(i if i < j else i - 1 for i in wp if i != j)
        wq = tuple(i if i < j else i - 1 for i in wq if i != j)
    for j in sorted(common):
        word = degenerate_word(word, j)
    return (SimplexRef(p.core, wp), SimplexRef(q.core, wq)), word


def _delta1_refs(n: int):
    """All n-simplices of the interval, as refs with canonical words."""
    out = []
    for t in _DELTA1.all_gens():
        d = _DELTA1.dim_of[t]
        need = n - d
        if need < 0:
            continue
        from itertools import combinations

        for word in combinations(range(n), need):
            out.append(SimplexRef(t, word))
    return out


def prism(X: SimpSet) -> Stratification:
    """X x Delta(1), with the two ends tagged "in" (at 0) and "out" (at 1).

    Nondegenerate n-simplices are pairs of n-dimensional references with
    disjoint degeneracy words; faces are computed componentwise and
    renormalised through the Eilenberg-Zilber form.
    """
    gens = {}
    pair_gens = []
    for n in range(X.dim + 2):
        for t in _delta1_refs(n):
            tset = set(t.word)
            for xg in X.all_gens():
                need = n - X.dim_of[xg]
                if need < 0:
                    continue
                from itertools import combinations

                for word in combinations(range(n), need):
                    if set(word) & tset:
                        continue
                    gid = (SimplexRef(xg, word), t)
                    pair_gens.append((n, gid))
    pair_gens.sort(key=lambda item: (item[0], _prism_sort_key(X, item[1])))
    for n, gid in pair_gens:
        gens[gid] = n
    gen_lookup = set(gens)
    faces = {}
    for gid, n in gens.items():
        if n == 0:
            continue
        p, q = gid
        for i in range(n + 1):
            fp = X.face_of_ref(p, i)
            fq = _DELTA1.face_of_ref(q, i)
            (p0, q0), word = _pair_normal_form(fp, fq)
            if (p0, q0) not in gen_lookup:
                raise AssertionError("product face fell outside the generator set")
            faces[(gid, i)] = SimplexRef((p0, q0), word)
    Z = SimpSet(gens, faces, name=f"{X.name}xI")
    in_map, out_map = {}, {}
    for xg in X.all_gens():
        d = X.dim_of[xg]
        in_map[xg] = (SimplexRef(xg, ()), SimplexRef((0,), tuple(range(d))))
        out_map[xg] = (SimplexRef(xg, ()), SimplexRef((1,), tuple(range(d))))
    tags = {"in": frozenset(in_map.values()), "out": frozenset(out_map.values())}
    strat = Stratification(Z, tags)
    strat.meta.update(
        base=X,
        in_map=in_map,
        out_map=out_map,
        proj={gid: gid[0] for gid in gens},
    )
    return strat


def _prism_sort_key(X: SimpSet, gid):
    p, q = gid
    return (X.gen_index(p.core), p.word, _DELTA1.gen_index(q.core), q.word)


# -- gluing ---------------------------------------------------------------------


def glue(X: Stratification, Y: Stratification, iso: dict) -> Stratification:
    """Pushout of X and Y along a matching of X."out" with Y."in".

    `iso` maps each generator of X's "out" subcomplex to a generator of Y's
    "in" subcomplex, compatibly with dimensions and faces.  Generators of X
    keep their ids (prefixed "L"); unglued generators of Y are prefixed "R".
    """
    xout, yin = X.tagged("out"), Y.tagged("in")
    if set(iso) != set(xout) or set(iso.values()) != set(yin):
        raise BoundaryError("matching must pair the tagged subcomplexes bijectively")
    XS, YS = X.simpset, Y.simpset
    for g, h in iso.items():
        if XS.dim_of[g] != YS.dim_of[h]:
            raise BoundaryError(f"matched generators have different dimensions: {g!r}, {h!r}")
        for i in range(XS.dim_of[g] + 1):
            if XS.dim_of[g] == 0:
                break
            fg, fh = XS.face(g, i), YS.face(h, i)
            if iso[fg.core] != fh.core or fg.word != fh.word:
                raise BoundaryError(f"matching is not face-compatible at ({g!r}, {i})")
    inv = {h: g for g, h in iso.items()}

    def lid(g):
        return ("L", g)

    def rid(h):
        return lid(inv[h]) if h in inv else ("R", h)

    generators = {}
    for g in XS.all_gens():
        generators[lid(g)] = XS.dim_of[g]
    for h in YS.all_gens():
        if h not in inv:
            generators[rid(h)] = YS.dim_of[h]
    faces = {}
    for g in XS.all_gens():
        for i in range(XS.dim_of[g] + 1):
            if XS.dim_of[g] == 0:
                break
            ref = XS.face(g, i)
            faces[(lid(g), i)] = SimplexRef(lid(ref.core), ref.word)
    for h in YS.all_gens():
        if h in inv:
            continue
        for i in range(YS.dim_of[h] + 1):
            if YS.dim_of[h] == 0:
                break
            ref = YS.face(h, i)
            faces[(rid(h), i)] = SimplexRef(rid(ref.core), ref.word)
    Z = SimpSet(generators, faces, name=f"{XS.name}+{YS.name}")
    tags = {
        "in": frozenset(lid(g) for g in X.tagged("in")),
        "out": frozenset(rid(h) for h in Y.tagged("out")),
    }
    strat = Stratification(Z, tags)
    strat.meta.update(
        left_map={g: lid(g) for g in XS.all_gens()},
        right_map={h: rid(h) for h in YS.all_gens()},
    )
    return strat


def prism_end_matching(X: Stratification, Y: Stratification) -> dict:
    """The canonical matching X."out" -> Y."in" for two prisms over one base."""
    xm, ym = X.meta.get("out_map"), Y.meta.get("in_map")
    if xm is None or ym is None or X.meta.get("base") != Y.meta.get("base"):
        raise BoundaryError("both stratifications must be prisms over the same base")
    return {xm[g]: ym[g] for g in xm}


# -- windows ---------------------------------------------------------------------


@dataclass
class Window:
    """A 2-cobordism support: a filling Z with its frame tagged.

    `top_map`/`bottom_map` carry generators of the top and bottom cobordism
    stratifications onto frame generators of Z; `east_proj`/`west_proj`
    project the side prisms onto references in the respective boundary
    subcomplexes of the top cobordism.
    """

    simpset: SimpSet
    tags: dict
    top_cob: Stratification
    bottom_cob: Stratification
    top_map: dict
    bottom_map: dict
    east_proj: dict
    west_proj: dict

    def frame_gens(self) -> frozenset:
        return self.tags["frame"]


def window_support(top: Stratification, bottom: Stratification) -> Window:
    """Build a window support over a pair of cobordisms with equal boundaries.

    With identical top and bottom, the canonical vertical identity window
    prism(top) is returned.  With empty boundaries the frame is the disjoint
    union of top and bottom (every cell tagged).
    """
    if not top.tagged("in") and not top.tagged("out") and not bottom.tagged("in") and not bottom.tagged("out"):
        glued = glue(
            Stratification(top.simpset, {"in": frozenset(), "out": frozenset()}),
            Stratification(bottom.simpset, {"in": frozenset(), "out": frozenset()}),
            {},
        )
        lm, rm = glued.meta["left_map"], glued.meta["right_map"]
        allg = frozenset(glued.simpset.all_gens())
        tags = {
            "frame": allg,
            "top": frozenset(lm.values()),
            "bottom": frozenset(rm.values()),
            "east": frozenset(),
            "west": frozenset(),
        }
        return Window(glued.simpset, tags, top, bottom, lm, rm, {}, {})
    if top.simpset != bottom.simpset or top.tags != bottom.tags:
        raise BoundaryError("canonical filling needs identical top and bottom stratifications")
    P = prism(top.simpset)
    in_map, out_map, proj = P.meta["in_map"], P.meta["out_map"], P.meta["proj"]
    top_map = {g: in_map[g] for g in top.simpset.all_gens()}
    bottom_map = {g: out_map[g] for g in top.simpset.all_gens()}
    east = frozenset(g for g in P.simpset.all_gens() if proj[g].core in top.tagged("in"))
    west = frozenset(g for g in P.simpset.all_gens() if proj[g].core in top.tagged("out"))
    tags = {
        "top": frozenset(top_map.values()),
        "bottom": frozenset(bottom_map.values()),
        "east": east,
        "west": west,
    }
    tags["frame"] = tags["top"] | tags["bottom"] | east | west
    east_proj = {g: proj[g] for g in east}
    west_proj = {g: proj[g] for g in west}
    return Window(P.simpset, tags, top, bottom, top_map, bottom_map, east_proj, west_proj)


# -- simplicial isomorphism search ------------------------------------------------


def find_simpset_iso(X: SimpSet, Y: SimpSet):
    """Backtracking search for a simplicial isomorphism; None if there is none."""
    dims = range(max(X.dim, Y.dim) + 1)
    if any(X.k_count(n) != Y.k_count(n) for n in dims):
        return None
    slots = list(X.all_gens())

    def compatible(mapping, g, h):
        if X.dim_of[g] != Y.dim_of[h]:
            return False
        for i in range(X.dim_of[g] + 1):
            if X.dim_of[g] == 0:
                break
            fx, fy = X.face(g, i), Y.face(h, i)
            if fx.word != fy.word:
                return False
            if fx.core in mapping and mapping[fx.core] != fy.core:
                return False
        return True

    def backtrack(k, mapping, used):
        if k == len(slots):
            return dict(mapping)
        g = slots[k]
        for h in Y.gens(X.dim_of[g]):
            if h in used or not compatible(mapping, g, h):
                continue
            mapping[g] = h
            used.add(h)
            out = backtrack(k + 1, mapping, used)
            if out is not None:
                return out
            del mapping[g]
            used.remove(h)
        return None

    return backtrack(0, {}, set())
