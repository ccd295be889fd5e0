import ast
import inspect
import math
import random
from functools import lru_cache
from itertools import islice, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quinncalc import cli, homotopy
from quinncalc.colouring import (
    Colouring,
    Plan,
    as_simpset,
    colouring_key,
    enumerate_colourings,
    enumerate_relative,
    restrict_colouring,
)
from quinncalc.finalg import (
    action_groupoid,
    crossed_module_identity,
    crossed_module_zero,
    cyclic_group,
    find_groupoid_iso,
    iota1,
    iota2,
    pair_groupoid,
    semidirect,
    symmetric_group,
)
from quinncalc.finalg.groupoids import FinGroupoid, partition
from quinncalc.homotopy import (
    HomotopySequence,
    _compose_keys,
    _compose_tables,
    _delta2,
    _sequence,
    apply_homotopy,
    compose_homotopies,
    crs_pi1,
    delta2,
    invert_homotopy,
    rel_classes,
)
from quinncalc.simpset import (
    SimpSet,
    circle,
    glue,
    point,
    prism,
    prism_end_matching,
    sphere,
    standard_simplex,
    torus,
)
from quinncalc.tqft import state_space
from tests import reference
from tests.reference import (
    enumerate_sequences,
    expand_sequence,
    holonomy_act,
    identity_sequence,
    sequence_domains,
)
from tests.conftest import abelian_tower, corpus_crossed_modules, corpus_groups, inversion_tower
from tests.test_index_walk import pair_module


def conj_action(G):
    return {(g, x): G.mul(G.mul(g, x), G.inv(g)) for g in G.elements for x in G.elements}


def circle_colouring(A, g):
    X = circle()
    for col in enumerate_colourings(X, A):
        if col.value("e") == g:
            return col
    raise AssertionError("missing colouring")


# -- apply_homotopy -----------------------------------------------------------


def test_identity_homotopy_fixes_colouring():
    for G in corpus_groups():
        A = iota1(G)
        for col in enumerate_colourings(circle(), A):
            H = identity_sequence(col)
            assert apply_homotopy(H, col).values == col.values


def test_circle_group_action_is_conjugation(s3):
    A = iota1(s3)
    X = circle()
    for g in s3.elements:
        col = circle_colouring(A, g)
        for H in enumerate_sequences(X, A, col, 1):
            h = H.values["v"]
            other = apply_homotopy(H, col)
            assert other.value("e") == s3.mul(s3.mul(h, g), s3.inv(h))


def test_circle_crossed_module_action():
    for M in corpus_crossed_modules():
        A = iota2(M)
        X = circle()
        G, E = M.G, M.E
        for g in G.elements:
            col = circle_colouring(A, g)
            for H in enumerate_sequences(X, A, col, 1):
                h = H.values["v"]
                e = H.values["e"][1]
                got = apply_homotopy(H, col).value("e")
                want = G.mul(G.mul(G.mul(h, g), M.bdry[e]), G.inv(h))
                assert got == want


def test_apply_homotopy_yields_valid_colourings(s3):
    for A in [iota1(s3)] + [iota2(M) for M in corpus_crossed_modules()]:
        for X in [circle(), torus(), sphere(2)]:
            cols = enumerate_colourings(X, A)
            for col in cols[:3]:
                for H in enumerate_sequences(X, A, col, 1)[:8]:
                    assert reference.is_valid_colouring(apply_homotopy(H, col))


# -- composition and inversion ---------------------------------------------------


def test_compose_then_apply_matches_sequential_application(s3):
    A = iota1(s3)
    X = circle()
    col = circle_colouring(A, s3.elements[1])
    seqs = enumerate_sequences(X, A, col, 1)
    for H in seqs[:6]:
        mid = apply_homotopy(H, col)
        for Hp in enumerate_sequences(X, A, mid, 1)[:6]:
            J = compose_homotopies(Hp, H)
            assert J.target.values == col.values
            assert apply_homotopy(J, col).values == apply_homotopy(Hp, mid).values


def test_compose_matches_semidirect_convention():
    # on the circle the composite of crossed-module homotopies is the
    # nonstandard-order semidirect product
    for M in corpus_crossed_modules():
        A = iota2(M)
        X = circle()
        G, E = M.G, M.E
        P = semidirect(G, E, M.act)
        col = circle_colouring(A, G.elements[-1])
        for H in enumerate_sequences(X, A, col, 1):
            h, e = H.values["v"], H.values["e"][1]
            mid = apply_homotopy(H, col)
            for Hp in enumerate_sequences(X, A, mid, 1):
                hp, ep = Hp.values["v"], Hp.values["e"][1]
                J = compose_homotopies(Hp, H)
                jh, je = J.values["v"], J.values["e"][1]
                assert (jh, je) == P.mul((hp, ep), (h, e))


def test_inverse_homotopy_composes_to_identity(s3):
    A = iota1(s3)
    X = torus()
    col = enumerate_colourings(X, A)[7]
    for H in enumerate_sequences(X, A, col, 1)[:6]:
        Hinv = invert_homotopy(H)
        J = compose_homotopies(H, Hinv)
        assert J.key() == identity_sequence(Hinv.target).key()
        J2 = compose_homotopies(Hinv, H)
        assert J2.key() == identity_sequence(col).key()


def test_compose_homotopies_rejects_a_non_composable_pair(s3):
    A = iota1(s3)
    f, other = enumerate_colourings(circle(), A)[:2]
    with pytest.raises(ValueError, match="homotopies are not composable"):
        compose_homotopies(identity_sequence(other), identity_sequence(f))


def test_invert_homotopy_targets_the_other_end():
    for X, A in [(torus(), iota1(symmetric_group(3))), (circle(), iota2(corpus_crossed_modules()[2]))]:
        for col in enumerate_colourings(X, A)[:4]:
            for H in enumerate_sequences(X, A, col, 1)[:8]:
                assert invert_homotopy(H).target.values == apply_homotopy(H, H.target).values


def test_associativity_of_composition():
    M = corpus_crossed_modules()[0]
    A = iota2(M)
    X = circle()
    col = circle_colouring(A, 0)
    seqs = enumerate_sequences(X, A, col, 1)
    for H in seqs[:3]:
        mid = apply_homotopy(H, col)
        for Hp in enumerate_sequences(X, A, mid, 1)[:3]:
            mid2 = apply_homotopy(Hp, mid)
            for Hpp in enumerate_sequences(X, A, mid2, 1)[:3]:
                lhs = compose_homotopies(Hpp, compose_homotopies(Hp, H))
                rhs = compose_homotopies(compose_homotopies(Hpp, Hp), H)
                assert lhs.key() == rhs.key()


# -- delta2 ------------------------------------------------------------------------


def test_delta2_identity_two_fold_gives_identity_arrow():
    M = corpus_crossed_modules()[0]
    A = iota2(M)
    col = circle_colouring(A, 0)
    H2 = identity_sequence(col, k=2)
    assert delta2(H2).key() == identity_sequence(col).key()


def test_delta2_is_endo_arrow():
    for M in corpus_crossed_modules():
        A = iota2(M)
        for X in [circle(), sphere(2)]:
            for col in enumerate_colourings(X, A):
                for H2 in enumerate_sequences(X, A, col, 2):
                    d = delta2(H2)
                    assert apply_homotopy(d, col).values == col.values


def test_delta2_circle_formula():
    M = corpus_crossed_modules()[0]
    A = iota2(M)
    col = circle_colouring(A, 1)
    count = 0
    for H2 in enumerate_sequences(circle(), A, col, 2):
        e = H2.values["v"][1]
        d = delta2(H2)
        assert d.values["v"] == M.bdry[e]
        count += 1
    assert count == len(M.E)


def test_delta_images_closed_under_left_and_right_composition(s3):
    # the partition by right composition with boundary arrows agrees with the
    # left-sided one
    for A in [iota2(corpus_crossed_modules()[0]), iota2(corpus_crossed_modules()[1])]:
        X = circle()
        crs = crs_pi1(X, A)
        for ti, col in enumerate(crs.colourings):
            deltas = {d.key() for d in crs.deltas[ti]}
            for H in enumerate_sequences(X, A, col, 1):
                right = {compose_homotopies(H, d).key() for d in crs.deltas[ti]}
                src = crs.colouring_index(apply_homotopy(H, col))
                left = {
                    compose_homotopies(d2, H).key() for d2 in crs.deltas[src]
                }
                assert right == left


# -- crs_pi1 -------------------------------------------------------------------------


def test_crs_pi1_point_is_the_groupoid():
    # gate for the non-reduced path
    I3 = pair_groupoid(3)
    crs = crs_pi1(point(), iota1(I3))
    assert crs.groupoid.validate()
    iso = find_groupoid_iso(crs.groupoid, I3)
    assert iso is not None


def test_crs_pi1_circle_group_is_conjugation_action_groupoid():
    for G in corpus_groups():
        crs = crs_pi1(circle(), iota1(G))
        AG = action_groupoid(G, G.elements, conj_action(G))
        assert crs.groupoid.validate()
        assert find_groupoid_iso(crs.groupoid, AG) is not None


def test_crs_pi1_circle_s3_shape(s3):
    crs = crs_pi1(circle(), iota1(s3))
    assert len(crs.groupoid.objects) == 6
    assert len(crs.groupoid.arrows) == 36
    assert len(crs.components()) == 3


def test_crs_pi1_torus_s3_components(s3):
    crs = crs_pi1(torus(), iota1(s3))
    assert len(crs.groupoid.objects) == 18
    assert len(crs.components()) == 8
    # oracle: orbit count of simultaneous conjugation on commuting pairs
    pairs = [
        (a, b) for a in s3.elements for b in s3.elements if s3.mul(a, b) == s3.mul(b, a)
    ]
    act = {
        (g, (a, b)): (s3.mul(s3.mul(g, a), s3.inv(g)), s3.mul(s3.mul(g, b), s3.inv(g)))
        for g in s3.elements
        for (a, b) in pairs
    }
    AG = action_groupoid(s3, pairs, act)
    assert len(AG.components()) == 8
    assert find_groupoid_iso(crs.groupoid, AG) is not None


def test_crs_pi1_sphere_crossed_module_is_kernel_mod_quotient():
    for M in corpus_crossed_modules():
        A = iota2(M)
        crs = crs_pi1(sphere(2), A)
        assert crs.groupoid.validate()
        G, E = M.G, M.E
        ker = tuple(e for e in E.elements if M.bdry[e] == G.unit)
        img = {M.bdry[e] for e in E.elements}
        from quinncalc.finalg import quotient_group

        Q, proj = quotient_group(G, img)
        act = {(q, e): M.act[(e, G.inv(q))] for q in Q.elements for e in ker}
        AG = action_groupoid(Q, ker, act)
        assert find_groupoid_iso(crs.groupoid, AG) is not None


def test_crs_pi1_circle_crossed_module_matches_direct_construction():
    # independent construction of the expected groupoid: objects are group
    # elements, arrows are classes [(g, h, e)] with (g, h, e) ~
    # (g, h.bdry(a), (a^-1 <| g) e a), composed via the semidirect rule
    for M in corpus_crossed_modules():
        A = iota2(M)
        G, E = M.G, M.E
        crs = crs_pi1(circle(), A)

        def act_on(g, h, e):
            return G.mul(G.mul(G.mul(h, g), M.bdry[e]), G.inv(h))

        def cls(g, h, e):
            reps = set()
            for a in E.elements:
                h2 = G.mul(h, M.bdry[a])
                e2 = E.mul(E.mul(M.act[(E.inv(a), g)], e), a)
                reps.add((g, h2, e2))
            return min(sorted(reps))

        objects = G.elements
        arrows = sorted({cls(g, h, e) for g in G.elements for h in G.elements for e in E.elements})
        src = {t: t[0] for t in arrows}
        tgt = {t: act_on(*t) for t in arrows}
        comp = {}
        for t1 in arrows:
            g, h, e = t1
            mid = act_on(*t1)
            for t2 in arrows:
                if t2[0] != mid:
                    continue
                _, hp, ep = t2
                comp[(t1, t2)] = cls(g, G.mul(hp, h), E.mul(e, M.act[(ep, h)]))
        ident = {g: cls(g, G.unit, E.unit) for g in objects}
        direct = FinGroupoid(objects, tuple(arrows), src, tgt, comp, ident, name="GmodG")
        assert direct.validate()
        assert find_groupoid_iso(crs.groupoid, direct) is not None


def test_crs_pi1_quotient_composition_well_defined():
    M = corpus_crossed_modules()[1]
    A = iota2(M)
    X = circle()
    crs = crs_pi1(X, A)
    G = crs.groupoid
    for a in G.arrows:
        Ha = crs.arrow_reps[a]
        for d in crs.deltas[a[1]]:
            other = compose_homotopies(Ha, d)
            assert crs.class_of_arrow(other) == a


def _crs_pi1_seed(X, A):
    """Oracle for crs_pi1: the original construction through the reference operations.

    It tries every arrow pair for the composition table, and each composite
    and inverse recomputes the other end of a homotopy with the reference
    apply_homotopy, which walks the simplicial set instead of a `Plan`.
    What it builds is returned as decoded values, which `CrsResult` holds as
    keys.
    """
    X = as_simpset(X)
    colourings = enumerate_colourings(X, A)
    index = {c.key(): i for i, c in enumerate(colourings)}
    deltas = {}
    for ti, f in enumerate(colourings):
        ds = []
        seen = set()
        for H2 in enumerate_sequences(X, A, f, 2):
            d = reference.delta2(H2)
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
            orbit = [reference.compose_homotopies(H, d) for d in deltas[ti]]
            keys = sorted(J.key() for J in orbit)
            rep_key = keys[0]
            si = index[reference.apply_homotopy(H, f).key()]
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
            J = reference.compose_homotopies(arrow_reps[a], arrow_reps[b])
            comp[(a, b)] = seq_class[(b[1], J.key())]
    ident = {}
    for ti, f in enumerate(colourings):
        ident[ti] = seq_class[(ti, identity_sequence(f).key())]
    inv = {}
    for a in arrows:
        Hinv = reference.invert_homotopy(arrow_reps[a])
        inv[a] = seq_class[(a[0], Hinv.key())]
    G = FinGroupoid(objects, tuple(arrows), src, tgt, comp, ident, inv, name=f"pi1CRS({X.name})")
    return SimpleNamespace(colourings=colourings, groupoid=G, arrow_reps=arrow_reps, deltas=deltas)


CATALOG = cli._builders()
_GROUPS, _XMODS = cli._corpus_algebras()
CORPUS = {**{n: iota1(G) for n, G in _GROUPS.items()}, **{n: iota2(M) for n, M in _XMODS.items()}}
# pairs on which the seed construction takes 0.5 s or more (up to minutes)
SLOW_SEED_CRS = (
    {("delta3", a) for a in CORPUS if a != "z2"}
    | {("prism-torus", a) for a in CORPUS if a not in ("z2", "z3")}
    | {("delta2", a) for a in ("z4", "s3", "xmod-z4-z2-zero")}
    | {("prism-circle", a) for a in ("s3", "xmod-z2-z2-zero", "xmod-z4-z2-zero")}
    | {("torus", "xmod-z4-z2-zero")}
)


# truncation 3: a 1-fold homotopy has a level-3 value on the 2-cell of delta2
TOWERS = {"inversion-tower": inversion_tower, "abelian-tower": abelian_tower}


@pytest.mark.parametrize(
    "space, algebra",
    [(s, a) for s in CATALOG for a in CORPUS if (s, a) not in SLOW_SEED_CRS]
    + [(s, t) for s in ("point", "circle", "delta2") for t in TOWERS],
)
def test_crs_pi1_matches_the_seed_construction(space, algebra):
    """Same colourings, arrows, table (in insertion order), identities, inverses and deltas.

    The boundary of every 2-fold homotopy is also checked one by one, the
    compiled `_delta2` on keys against the reference `delta2`.
    """
    X = CATALOG[space]
    A = TOWERS[algebra]() if algebra in TOWERS else CORPUS[algebra]
    got, want = crs_pi1(X, A), _crs_pi1_seed(X, A)
    plan = Plan(X, A)
    boundary = _delta2(plan)
    for f in want.colourings:
        for H2 in enumerate_sequences(X, A, f, 2):
            got_d = _sequence(plan, f, boundary(f.key(), H2.key()))
            assert got_d.values == reference.delta2(H2).values
    assert [c.values for c in got.colourings] == [c.values for c in want.colourings]
    G, W = got.groupoid, want.groupoid
    assert G.objects == W.objects and G.arrows == W.arrows
    assert G.src == W.src and G.tgt == W.tgt
    # groupoid_to_json sorts stably on labels that need not be injective,
    # so the table's insertion order reaches the output
    assert list(G.entries()) == list(W.entries())
    assert G.ident == W.ident and G.inv_table == W.inv_table
    assert list(got.arrow_reps) == list(want.arrow_reps)
    assert all(got.arrow_reps[a].values == want.arrow_reps[a].values for a in W.arrows)
    assert got.deltas.keys() == want.deltas.keys()
    for ti, ds in want.deltas.items():
        assert {d.key() for d in got.deltas[ti]} == {d.key() for d in ds}


# the pair module has two objects; delta3 and prism-torus take seconds or more under it,
# and under the towers prism-circle does too
KEY_ORACLE_CASES = (
    [(s, a) for s in CATALOG for a in CORPUS if (s, a) not in SLOW_SEED_CRS]
    + [(s, t) for s in CATALOG for t in TOWERS if s not in ("delta3", "prism-circle", "prism-torus")]
    + [(s, "pair-module") for s in CATALOG if s not in ("delta3", "prism-torus")]
)


@pytest.mark.parametrize("space, algebra", KEY_ORACLE_CASES)
def test_crs_pi1_on_keys_matches_the_values_dict_construction(space, algebra):
    """The key enumeration against `reference.crs_pi1`, which enumerates `HomotopySequence`s.

    Same objects, arrows, table (in insertion order), identities, inverses,
    representatives and boundary key sets.
    """
    X = CATALOG[space]
    if algebra in TOWERS:
        A = TOWERS[algebra]()
    else:
        A = pair_module() if algebra == "pair-module" else CORPUS[algebra]
    got, want = crs_pi1(X, A), reference.crs_pi1(X, A)
    G, W = got.groupoid, want.groupoid
    assert [c.values for c in got.colourings] == [c.values for c in want.colourings]
    assert G.objects == W.objects and G.arrows == W.arrows
    assert list(G.entries()) == list(W.entries())
    assert G.ident == W.ident and G.inv_table == W.inv_table
    assert list(got.arrow_reps) == list(want.arrow_reps)
    assert all(got.arrow_reps[a].values == want.arrow_reps[a].values for a in W.arrows)
    assert got.deltas.keys() == want.deltas.keys()
    for ti, ds in want.deltas.items():
        assert [d.key() for d in got.deltas[ti]] == [d.key() for d in ds]


@pytest.mark.parametrize(
    "space, algebra",
    [("prism-circle", "z3"), ("circle", "xmod-z2-z2-zero"), ("prism-circle", "s3")],
)
def test_crs_pi1_composes_per_arrow_not_per_table_entry(monkeypatch, space, algebra):
    """One composite per (arrow, delta) pair, one per end of an arrow away from its component's
    root (for its loop at the root), and the vertex groups' products; one other-end move per
    arrow.  prism-circle x S3 has 1 296 arrows and 46 656 table entries; no dict of the table
    is built."""
    import quinncalc.homotopy as homotopy

    calls = {"_compose_keys": 0, "apply_homotopy": 0, "move": 0}
    for name in ("_compose_keys", "apply_homotopy"):
        real = getattr(homotopy, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(homotopy, name, counted)
    class CountingPlan(Plan):
        @property
        def moves(self):
            everywhere = super().moves.everywhere

            def move(key, h):
                calls["move"] += 1
                return everywhere(key, h)

            return SimpleNamespace(everywhere=move)

    monkeypatch.setattr(homotopy, "Plan", CountingPlan)
    crs = crs_pi1(CATALOG[space], CORPUS[algebra])
    G = crs.groupoid
    assert all(len(v) <= len(G.arrows) for v in vars(G).values() if isinstance(v, dict))
    orbits = sum(len(crs.deltas[a[1]]) for a in G.arrows)
    roots = {x: c[0] for c in G.components() for x in c}
    ends = sum((G.src[a] != roots[G.src[a]]) + (G.tgt[a] != roots[G.tgt[a]]) for a in G.arrows)
    vertex = sum(len(G.arrows_between(r, r)) ** 2 for r in set(roots.values()))
    assert calls["_compose_keys"] - orbits == ends + vertex < 3000
    assert calls["move"] == len(G.arrows)
    assert calls["apply_homotopy"] == 0


# catalog x corpus but the ten pairs on which the per-entry fill takes a second or more,
# up to minutes and gigabytes (delta2 x S3 has 7 776 arrows and 1 679 616 entries)
PER_ENTRY_SLOW = (
    {("delta3", a) for a in CORPUS if a not in ("z2", "z3", "xmod-z2-id")}
    | {("prism-torus", a) for a in CORPUS if a not in ("z2", "z3", "z4")}
    | {("delta2", "s3"), ("prism-circle", "xmod-z4-z2-zero")}
)


@pytest.mark.parametrize(
    "space, algebra",
    [(s, a) for s in CATALOG for a in CORPUS if (s, a) not in PER_ENTRY_SLOW]
    + [(s, t) for s in ("point", "circle", "delta2", "torus", "prism-circle") for t in TOWERS]
    + [("circle", "s4")],
)
def test_crs_pi1_table_matches_the_per_entry_fill(space, algebra):
    """The table, identities and inverses from vertex groups against `reference.crs_pi1_per_entry`,
    which composes the representatives of each table entry.

    Same arrows, table (values and insertion order), identities, inverses,
    representatives and boundaries.
    """
    X = CATALOG[space]
    if algebra in TOWERS:
        A = TOWERS[algebra]()
    else:
        A = iota1(symmetric_group(4)) if algebra == "s4" else CORPUS[algebra]
    got, want = crs_pi1(X, A), reference.crs_pi1_per_entry(X, A)
    G, W = got.groupoid, want.groupoid
    assert G.objects == W.objects and G.arrows == W.arrows
    assert G.src == W.src and G.tgt == W.tgt
    assert list(G.entries()) == list(W.entries())
    assert G.ident == W.ident and G.inv_table == W.inv_table
    assert list(got.arrow_reps) == list(want.arrow_reps)
    assert all(got.arrow_reps[a].values == want.arrow_reps[a].values for a in W.arrows)
    assert got.deltas.keys() == want.deltas.keys()
    for ti, ds in want.deltas.items():
        assert [d.key() for d in got.deltas[ti]] == [d.key() for d in ds]


# -- Extend / Restrict / rel classes ------------------------------------------------


def test_expand_restrict_roundtrip(s3):
    A = iota1(s3)
    P = prism(circle())
    X = P.simpset
    cols = enumerate_colourings(X, A)
    col = cols[0]
    boundary = P.boundary_gens()
    sub = X.restrict(boundary)
    eta = enumerate_sequences(sub, A, restrict_colouring(col, sub), 1)[5]
    H = expand_sequence(eta, X, col)
    for g in sub.all_gens():
        i = sub.dim_of[g]
        if i + 1 > A.truncation:
            continue
        assert H.values[g] == eta.values[g]


def test_rel_classes_cylinder(s3):
    A = iota1(s3)
    P = prism(circle())
    X = P.simpset
    in_map, out_map = P.meta["in_map"], P.meta["out_map"]
    boundary = P.boundary_gens()
    for g in s3.elements:
        fixed = {
            in_map["v"]: "*",
            out_map["v"]: "*",
            in_map["e"]: g,
            out_map["e"]: g,
        }
        from quinncalc.colouring import enumerate_relative

        fillings = enumerate_relative(X, A, fixed)
        classes, _ = rel_classes(X, A, boundary, _keys(fillings))
        centraliser = [h for h in s3.elements if s3.mul(h, g) == s3.mul(g, h)]
        assert len(fillings) == len(centraliser)
        assert len(classes) == len(centraliser)  # rigid fillings for iota1


def test_rel_classes_whole_and_empty_boundary(s3):
    A = iota1(s3)
    X = torus()
    fillings = enumerate_colourings(X, A)
    classes_all, _ = rel_classes(X, A, frozenset(X.all_gens()), _keys(fillings))
    assert len(classes_all) == len(fillings)
    classes_none, _ = rel_classes(X, A, frozenset(), _keys(fillings))
    assert classes_none == crs_pi1(X, A).components()


ORACLE_SPACES = {
    "circle": circle,
    "sphere2": lambda: sphere(2),
    "torus": torus,
    "delta2": lambda: standard_simplex(2),
    "prism-point": lambda: prism(point()).simpset,
    "prism-circle": lambda: prism(circle()).simpset,
}
ORACLE_ALGEBRAS = {
    "z2": lambda: iota1(cyclic_group(2)),
    "z3": lambda: iota1(cyclic_group(3)),
    "z4": lambda: iota1(cyclic_group(4)),
    "s3": lambda: iota1(symmetric_group(3)),
    "0:Z2->Z2": lambda: iota2(crossed_module_zero(cyclic_group(2), cyclic_group(2))),
    "id:Z2": lambda: iota2(crossed_module_identity(cyclic_group(2))),
    "0:Z2->Z4": lambda: iota2(crossed_module_zero(cyclic_group(4), cyclic_group(2))),
}


@pytest.mark.parametrize(
    "space, algebra",
    [
        ("torus", "id:Z2"),
        ("circle", "0:Z2->Z4"),
        ("sphere2", "0:Z2->Z4"),
        ("delta2", "z3"),
        ("prism-point", "s3"),
        ("prism-circle", "z4"),
    ],
)
def test_state_space_classes_match_crs_components(space, algebra):
    """The partition behind state_space against the components of the full groupoid."""
    X, A = ORACLE_SPACES[space](), ORACLE_ALGEBRAS[algebra]()
    assert state_space(X, A).classes == crs_pi1(X, A).components()


def _keys(colourings) -> list:
    """What `rel_classes` partitions: the colourings' keys."""
    return [c.key() for c in colourings]


def _rel_classes_product(X, A, boundary_gens, fillings):
    """Oracle for rel_classes: link each filling to the end of every relative homotopy.

    Walks the full product of the per-generator domains, so its cost is
    exponential in the number of free cells.
    """
    keys = {col.key(): i for i, col in enumerate(fillings)}

    def links():
        for i, col in enumerate(fillings):
            slots = sequence_domains(X, A, col, 1, fixed_identity=boundary_gens)
            gens = [g for g, _ in slots]
            for combo in product(*(dom for _, dom in slots)):
                H = HomotopySequence(1, col, dict(zip(gens, combo)))
                j = keys.get(reference.apply_homotopy(H, col).key())
                if j is None:
                    raise ValueError("internal homotopy left the filling set")
                yield i, j

    classes = partition(len(fillings), links())
    class_of = {fillings[i].key(): ci for ci, members in enumerate(classes) for i in members}
    return classes, class_of


def _rel_classes_all_values(X, A, boundary_gens, fillings):
    """Oracle for rel_classes: link each filling by a single-slot move of every value.

    Each move runs the reference apply_homotopy, which walks the simplicial
    set, and keys the whole moved colouring.
    """
    X = as_simpset(X)
    keys = {col.key(): i for i, col in enumerate(fillings)}

    def links():
        for i, col in enumerate(fillings):
            H = identity_sequence(col)
            for g, dom in sequence_domains(X, A, col, 1, fixed_identity=boundary_gens):
                unit = H.values[g]
                for v in dom:
                    if v == unit:
                        continue
                    H.values[g] = v
                    j = keys.get(reference.apply_homotopy(H, col).key())
                    if j is None:
                        raise ValueError("internal homotopy left the filling set")
                    yield i, j
                H.values[g] = unit

    classes = partition(len(fillings), links())
    class_of = {fillings[i].key(): ci for ci, members in enumerate(classes) for i in members}
    return classes, class_of


def _cylinder(name):
    single = prism(circle())
    if name == "prism-circle":
        return single
    other = prism(circle())
    return glue(single, other, prism_end_matching(single, other))


def _boundary_filling_sets(M, A):
    """The filling sets of every (in, out) boundary colouring pair of a cobordism."""
    X = M.simpset
    in_gens, out_gens = M.tagged("in"), M.tagged("out")
    for f in enumerate_colourings(X.restrict(in_gens), A):
        for fp in enumerate_colourings(X.restrict(out_gens), A):
            yield enumerate_relative(X, A, {**f.values, **fp.values})


@pytest.mark.parametrize(
    "space, algebra",
    [("prism-circle", name) for name in ORACLE_ALGEBRAS]
    + [("double-cylinder", name) for name in ("z3", "z4", "s3", "0:Z2->Z2")]
    + [("torus", "0:Z2->Z4")],
)
def test_rel_classes_match_product_oracle(space, algebra):
    """Single-slot moves give the same classes as every relative homotopy.

    Cylinders are checked on every (in, out) boundary colouring pair, the
    torus with an empty boundary.  The double cylinder with 0:Z2->Z4 is left
    out: the product path alone takes about 17 s there.
    """
    A = ORACLE_ALGEBRAS[algebra]()
    if space == "torus":
        X = torus()
        cases = [(X, frozenset(), enumerate_colourings(X, A))]
    else:
        M = _cylinder(space)
        cases = [(M.simpset, M.boundary_gens(), fs) for fs in _boundary_filling_sets(M, A)]
    for X, boundary, fillings in cases:
        got = rel_classes(X, A, boundary, _keys(fillings))
        assert got == _rel_classes_product(X, A, boundary, fillings)
        assert got == _rel_classes_all_values(X, A, boundary, fillings)


@lru_cache(maxsize=None)
def _property_case(space, algebra):
    X, A = ORACLE_SPACES[space](), ORACLE_ALGEBRAS[algebra]()
    return X, A, enumerate_colourings(X, A)


@settings(max_examples=60, deadline=None)
@given(
    space=st.sampled_from(["circle", "torus", "sphere2", "prism-circle"]),
    algebra=st.sampled_from(["z3", "s3", "0:Z2->Z2", "id:Z2"]),
    data=st.data(),
)
def test_rel_classes_match_product_oracle_on_random_boundaries(space, algebra, data):
    X, A, colourings = _property_case(space, algebra)
    seed = data.draw(st.sets(st.sampled_from(X.all_gens())), label="seed")
    boundary = X.subcomplex_closure(seed)
    c = data.draw(st.sampled_from(colourings), label="colouring")
    fillings = enumerate_relative(X, A, {g: v for g, v in c.values.items() if g in boundary})
    got = rel_classes(X, A, boundary, _keys(fillings))
    assert got == _rel_classes_product(X, A, boundary, fillings)
    assert got == _rel_classes_all_values(X, A, boundary, fillings)


def _permutation_groupoid():
    """S3 acting on three points: one component whose vertex groups have order 2."""
    s3 = symmetric_group(3)
    return action_groupoid(s3, (0, 1, 2), lambda g, x: s3.inv(g)[x])


NON_REDUCED = {
    "I(3)": lambda: iota1(pair_groupoid(3)),
    "S3-action": lambda: iota1(_permutation_groupoid()),
}


@pytest.mark.parametrize(
    "space, algebra",
    [(s, a) for s in ("prism-point", "prism-circle", "torus") for a in NON_REDUCED],
)
def test_rel_classes_on_non_reduced_algebras_match_both_oracles(space, algebra):
    """Several objects: vertex moves need the spanning-tree arrows between them.

    Cylinders are checked on every (in, out) boundary colouring pair, the
    torus with an empty boundary.
    """
    A = NON_REDUCED[algebra]()
    if space == "torus":
        X = torus()
        cases = [(X, frozenset(), enumerate_colourings(X, A))]
    else:
        M = prism(point() if space == "prism-point" else circle())
        cases = [(M.simpset, M.boundary_gens(), fs) for fs in _boundary_filling_sets(M, A)]
    for X, boundary, fillings in cases:
        got = rel_classes(X, A, boundary, _keys(fillings))
        assert got == _rel_classes_all_values(X, A, boundary, fillings)
        assert got == _rel_classes_product(X, A, boundary, fillings)


def test_rel_classes_applies_no_homotopy(monkeypatch):
    """The moves rewrite keys from the compiled plan; apply_homotopy is never called."""
    import quinncalc.homotopy as homotopy

    A = ORACLE_ALGEBRAS["0:Z2->Z4"]()
    M = prism(circle())
    fillings = next(fs for fs in _boundary_filling_sets(M, A) if len(fs) > 1)
    want = _rel_classes_all_values(M.simpset, A, M.boundary_gens(), fillings)
    calls = []
    real = homotopy.apply_homotopy
    monkeypatch.setattr(homotopy, "apply_homotopy", lambda *args: calls.append(args) or real(*args))
    assert rel_classes(M.simpset, A, M.boundary_gens(), _keys(fillings)) == want
    assert calls == []


def test_a_plan_stands_for_its_space_only_with_its_algebra():
    M = prism(circle())
    A, other = ORACLE_ALGEBRAS["s3"](), ORACLE_ALGEBRAS["z3"]()
    fillings = Plan(M, A).keys()
    boundary = M.boundary_gens()
    plan = Plan(M, A)
    assert rel_classes(plan, A, boundary, fillings) == rel_classes(M, A, boundary, fillings)
    with pytest.raises(ValueError, match="compiled for another algebra"):
        rel_classes(plan, other, boundary, fillings)


def test_rel_classes_rejects_a_move_out_of_the_filling_set():
    A = ORACLE_ALGEBRAS["s3"]()
    X = torus()
    with pytest.raises(ValueError, match="internal homotopy left the filling set"):
        rel_classes(X, A, frozenset(), Plan(X, A).keys()[:3])


def _one_vertex_space(name, faces_of_c):
    """A vertex v, a loop e and one 2-generator c with the given faces."""
    faces = {("e", 0): ("v", ()), ("e", 1): ("v", ())}
    faces.update({("c", i): ref for i, ref in enumerate(faces_of_c)})
    return SimpSet({"v": 0, "e": 1, "c": 2}, faces, name=name)


MOVE_SPACES = {
    **ORACLE_SPACES,
    # faces that repeat in one cell: every occurrence moves with the face
    "dunce-hat": lambda: _one_vertex_space("dunce-hat", [("e", ())] * 3),
    "rp2": lambda: _one_vertex_space("rp2", [("e", ()), ("v", (0,)), ("e", ())]),
    "delta3": lambda: standard_simplex(3),
}
MOVE_ALGEBRAS = {
    **ORACLE_ALGEBRAS,
    **NON_REDUCED,
    "id:S3": lambda: iota2(crossed_module_identity(symmetric_group(3))),
    "inversion-tower": inversion_tower,
}


# delta3 x id:S3 has 46 656 colourings
MOVE_CASES = [(s, a) for s in MOVE_SPACES for a in MOVE_ALGEBRAS if (s, a) != ("delta3", "id:S3")]


@lru_cache(maxsize=None)
def _move_case(space, algebra):
    X, A = MOVE_SPACES[space](), MOVE_ALGEBRAS[algebra]()
    return X, A, Plan(X, A), enumerate_colourings(X, A)


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(MOVE_CASES), data=st.data())
def test_compiled_move_rewrites_the_star_as_apply_homotopy(case, data):
    """A single-slot move on the key gives the key of the reference's other end."""
    X, A, plan, colourings = _move_case(*case)
    col = data.draw(st.sampled_from(colourings), label="colouring")
    domains = dict(sequence_domains(X, A, col, 1))
    g = data.draw(st.sampled_from(sorted(domains, key=X.gen_index)), label="slot")
    h = data.draw(st.sampled_from(domains[g]), label="value")
    H = identity_sequence(col)
    H.values[g] = h
    want = reference.apply_homotopy(H, col)
    p = X.gen_index(g)
    move = plan.moves.mover((p,))
    assert move(col.key(), {p: H.key()[p]}) == want.key()
    star = reference._mover(plan, reference._stars(plan), col.values, g)(h)
    assert reference._moved_key(reference.key_slots(plan), col.key(), star) == want.key()


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(MOVE_CASES), data=st.data())
def test_key_moves_on_several_slots_match_apply_homotopy(case, data):
    """A homotopy with values on a set of slots and identities elsewhere, moved on the key.

    This is how `cobordism_profunctor` transports a filling along a boundary
    homotopy: the set of slots is the boundary's.
    """
    X, A, plan, colourings = _move_case(*case)
    col = data.draw(st.sampled_from(colourings), label="colouring")
    domains = sequence_domains(X, A, col, 1)
    chosen = data.draw(st.sets(st.sampled_from([g for g, _ in domains])), label="slots")
    H = identity_sequence(col)
    for g, dom in domains:
        if g in chosen:
            H.values[g] = data.draw(st.sampled_from(dom), label=str(g))
    positions = [X.gen_index(g) for g in chosen]
    hk = H.key()
    move = plan.moves.mover(positions)
    assert move(col.key(), {p: hk[p] for p in positions}) == reference.apply_homotopy(H, col).key()


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(MOVE_CASES), data=st.data())
def test_compiled_apply_matches_apply_homotopy(case, data):
    """The whole-homotopy move behind crs_pi1 and the public apply_homotopy, and the dict
    evaluation of the reference crs_pi1 and holonomy_act."""
    X, A, plan, colourings = _move_case(*case)
    col = data.draw(st.sampled_from(colourings), label="colouring")
    values = {
        g: data.draw(st.sampled_from(dom), label=str(g))
        for g, dom in sequence_domains(X, A, col, 1)
    }
    H = HomotopySequence(1, col, values)
    want = reference.apply_homotopy(H, col).values
    assert plan._decode(plan.moves.everywhere(col.key(), H.key())) == want
    assert reference._apply(plan, col.values, values) == want
    assert apply_homotopy(H, col).values == want


@pytest.mark.parametrize("tower", list(TOWERS))
@pytest.mark.parametrize("space", [*MOVE_SPACES, "delta4"])
def test_compiled_delta2_matches_the_reference_on_towers(space, tower):
    """At truncation 3 a 2-fold homotopy has level-3 values on edges, so `_delta2` runs its
    per-cell branch on every 2-cell; the dict `_delta2` of the reference `crs_pi1` too.

    The boundary reads a colouring on its vertices and edges only, so the
    cells above are pinned to identities: one colouring per 1-skeleton.  For
    each, every 7th of the first 350 2-fold homotopies in product order is
    checked; the product is read lazily, as delta4 has 3^15 of them under
    the inversion tower.
    """
    X = standard_simplex(4) if space == "delta4" else MOVE_SPACES[space]()
    A = TOWERS[tower]()
    plan = Plan(X, A)
    boundary = _delta2(plan)
    cells = (c for n in range(2, A.truncation + 1) for c in X.gens(n))
    for f in plan.colourings({c: A.identity_elem(X.dim_of[c], "*") for c in cells}):
        slots = sequence_domains(X, A, f, 2)
        gens = [g for g, _ in slots]
        for combo in islice(product(*(dom for _, dom in slots)), 0, 350, 7):
            H2 = HomotopySequence(2, f, dict(zip(gens, combo)))
            want = reference.delta2(H2).values
            assert _sequence(plan, f, boundary(f.key(), H2.key())).values == want
            assert reference._delta2(plan, f.values, H2.values) == want


def _sampled_sequences(X, A, f, count, rng):
    """`count` 1-fold homotopies targeting f drawn by `rng` (all of them if there are fewer)."""
    slots = sequence_domains(X, A, f, 1)
    total = math.prod(len(dom) for _, dom in slots)
    for i in rng.sample(range(total), min(count, total)):
        combo = []
        for _, dom in reversed(slots):
            i, r = divmod(i, len(dom))
            combo.append(dom[r])
        yield HomotopySequence(1, f, dict(zip((g for g, _ in slots), reversed(combo))))


@pytest.mark.parametrize("tower", list(TOWERS))
@pytest.mark.parametrize("space", ["delta2", "prism-circle"])
def test_composed_keys_match_the_reference_on_towers(space, tower):
    """Composites with level-3 values, from `_compose_keys` and `_sequence`, against the reference.

    On these towers the boundaries of 2-fold homotopies absorb every level-3
    value of a 1-fold homotopy, so no `crs_pi1` table can show a wrong
    level-3 composite; here composites are compared value by value, on a
    sample of composable pairs: prism-circle has 2-cells led by two vertices.
    """
    X, A = as_simpset(CATALOG[space]), TOWERS[tower]()
    plan = Plan(X, A)
    tables = _compose_tables(plan)
    colourings = plan.colourings()
    rng = random.Random(f"{space}-{tower}")
    for f in colourings[:: max(1, len(colourings) // 4)]:
        for second in _sampled_sequences(X, A, f, 12, rng):
            mid = reference.apply_homotopy(second, f)
            for first in _sampled_sequences(X, A, mid, 12, rng):
                got = _sequence(plan, f, _compose_keys(tables, first.key(), second.key()))
                assert got.values == reference.compose_homotopies(first, second).values
    assert compose_homotopies(first, second).values == got.values


def test_holonomy_identity_and_composition(s3):
    A = iota1(s3)
    P = prism(circle())
    X = P.simpset
    boundary = P.boundary_gens()
    sub = X.restrict(boundary)
    from quinncalc.colouring import enumerate_relative

    g = s3.elements[1]
    in_map, out_map = P.meta["in_map"], P.meta["out_map"]
    fixed = {in_map["v"]: "*", out_map["v"]: "*", in_map["e"]: g, out_map["e"]: g}
    fillings = enumerate_relative(X, A, fixed)
    h = fillings[0]
    bcol = restrict_colouring(h, sub)
    eta_id = identity_sequence(bcol)
    assert holonomy_act(X, A, boundary, eta_id, h).values == h.values
    etas = enumerate_sequences(sub, A, bcol, 1)
    for eta in etas[:5]:
        mid = holonomy_act(X, A, boundary, eta, h)
        bmid = restrict_colouring(mid, sub)
        for eta2 in enumerate_sequences(sub, A, bmid, 1)[:5]:
            lhs = holonomy_act(X, A, boundary, eta2, mid)
            J = compose_homotopies(eta2, eta)
            rhs = holonomy_act(X, A, boundary, J, h)
            assert lhs.values == rhs.values


# -- homotopy content of the mapping complex ------------------------------------------


def test_holonomy_well_defined_on_classes():
    # all members of a boundary arrow class transport a filling into the
    # same relative class
    M = corpus_crossed_modules()[0]
    A = iota2(M)
    P = prism(circle())
    X = P.simpset
    boundary = P.boundary_gens()
    sub = X.restrict(boundary)
    from quinncalc.colouring import enumerate_colourings as enum_cols
    from quinncalc.colouring import enumerate_relative

    crs_b = crs_pi1(sub, A)
    for ti, bcol in enumerate(crs_b.colourings[:4]):
        fillings = enumerate_relative(X, A, dict(bcol.values))
        if not fillings:
            continue
        classes, class_of = rel_classes(X, A, boundary, _keys(fillings))
        h = fillings[0]
        for H in enumerate_sequences(sub, A, bcol, 1)[:6]:
            results = set()
            for d in crs_b.deltas[ti]:
                member = compose_homotopies(H, d)
                moved = holonomy_act(X, A, boundary, member, h)
                mcol = restrict_colouring(moved, sub)
                fillings2 = enumerate_relative(X, A, dict(mcol.values))
                _, class_of2 = rel_classes(X, A, boundary, _keys(fillings2))
                results.add(class_of2[moved.key()])
            assert len(results) == 1


def test_sequence_serialisation():
    M = corpus_crossed_modules()[0]
    A = iota2(M)
    col = circle_colouring(A, 1)
    H = enumerate_sequences(circle(), A, col, 1)[3]
    data = H.as_dict()
    assert data["k"] == 1
    assert set(data["values"]) == {"0", "1"}
    assert data["target"] == list(col.key())


def test_crs_homotopy_content_torus_s3(s3):
    assert reference.crs_homotopy_content(torus(), iota1(s3)) == 3


def test_crs_homotopy_content_sphere_crossed_module():
    M = corpus_crossed_modules()[0]
    assert reference.crs_homotopy_content(sphere(2), iota2(M)) == 2


# -- the key layout, read from the plan -----------------------------------------------


class _Reads(dict):
    """A values dict that records the generators read from it, in order."""

    def __init__(self, values):
        super().__init__(values)
        self.read = []

    def __getitem__(self, g):
        self.read.append(g)
        return super().__getitem__(g)


def _constant_colouring(X, A):
    """Every vertex at the first object, every edge and cell at its identity there."""
    x = A.objects[0]
    values = {v: x for v in X.gens(0)}
    values.update((e, A.base.ident[x]) for e in X.gens(1))
    values.update((c, A.identity_elem(X.dim_of[c], x)) for c in X.all_gens() if X.dim_of[c] >= 2)
    return Colouring(X, A, values)


@pytest.mark.parametrize(
    "space, algebra",
    [(s, a) for s in CATALOG for a in CORPUS] + [(s, t) for s in ("circle", "delta3") for t in TOWERS],
)
def test_the_plan_lays_out_the_key_that_colouring_key_writes(space, algebra):
    """`Plan.layout(k)` lists the positions at which `colouring_key(..., k)` stores a value,
    in key order and before the padding, each at level dim + k; `Plan.base` is the oracle's
    `_base_vertex` and `Plan.ends` the edges' ends, by key position."""
    X = as_simpset(CATALOG[space])
    A = TOWERS[algebra]() if algebra in TOWERS else CORPUS[algebra]
    plan, gens = Plan(X, A), X.all_gens()
    assert plan.base == [X.gen_index(reference._base_vertex(X, g)) for g in gens]
    assert plan.ends == {X.gen_index(e): tuple(map(X.gen_index, X.edge_ends(e))) for e in X.gens(1)}
    f = _constant_colouring(X, A)
    for k in (0, 1, 2):
        values = _Reads(f.values if k == 0 else reference.identity_sequence(f, k).values)
        key = colouring_key(X, A, values, k)
        layout = plan.layout(k)
        assert [p for p, _, _ in layout] == [X.gen_index(g) for g in values.read]
        assert [p for p, _, _ in layout] == list(range(len(layout)))
        assert all(i == 0 for i in key[len(layout):])
        assert [(n, b) for p, n, b in layout] == [(X.dim_of[gens[p]] + k, plan.base[p]) for p, _, _ in layout]


def test_the_homotopy_layer_reads_its_layout_from_the_plan():
    """`homotopy.py` takes key positions, bases, edge ends and word terms from `Plan`: it calls
    none of the simplicial lookups they are compiled from, and defines no layout of its own."""
    tree = ast.parse(inspect.getsource(homotopy))
    called = {
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert not called & {"edge_ends", "initial_vertex", "face", "face_of_ref", "hal_word"}
    defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"_base_vertex", "_key_terms"}
