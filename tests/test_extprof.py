from fractions import Fraction

from quinncalc.extprof import (
    cobordism_profunctor,
    compose_profunctors,
    identity_profunctor,
    profunctor_iso_check,
    window_nat_transform,
)
from quinncalc.finalg import cyclic_group, iota1, iota2
from quinncalc.homotopy import crs_pi1
from quinncalc.simpset import (
    Stratification,
    circle,
    glue,
    point,
    prism,
    prism_end_matching,
    torus,
    window_support,
)
from quinncalc.tqft import quinn_matrix
from tests.conftest import corpus_crossed_modules, corpus_groups
from tests.reference import decategorified_matrix


def algebras_small():
    return [iota1(cyclic_group(2)), iota1(cyclic_group(3))] + [
        iota2(M) for M in corpus_crossed_modules()[:2]
    ]


# -- cobordism profunctors -------------------------------------------------------


def test_cylinder_profunctor_is_identity_profunctor(s3):
    A = iota1(s3)
    P = cobordism_profunctor(prism(circle()), A)
    assert P.check_functorial()
    Id = identity_profunctor(P.left)
    iso = profunctor_iso_check(P, Id)
    assert iso is not None


def test_cylinder_profunctor_identity_for_crossed_modules():
    for M in corpus_crossed_modules():
        A = iota2(M)
        P = cobordism_profunctor(prism(circle()), A)
        assert P.check_functorial()
        assert profunctor_iso_check(P, identity_profunctor(P.left)) is not None


def test_closed_cobordism_profunctor_torus_z2():
    A = iota1(cyclic_group(2))
    T = Stratification(torus(), {"in": frozenset(), "out": frozenset()})
    P = cobordism_profunctor(T, A)
    assert len(P.left.groupoid.objects) == 1
    (pair,) = P.pairs()
    assert len(P.basis[pair]) == 4  # four commuting pairs, no identifications


def test_empty_cobordism_unit_basis():
    from quinncalc.simpset import SimpSet

    A = iota1(cyclic_group(2))
    E = Stratification(SimpSet({}, {}), {"in": frozenset(), "out": frozenset()})
    P = cobordism_profunctor(E, A)
    (pair,) = P.pairs()
    assert len(P.basis[pair]) == 1


def test_profunctor_actions_commute_and_are_functorial():
    for A in algebras_small():
        P = cobordism_profunctor(prism(circle()), A)
        assert P.check_functorial()


# -- composition --------------------------------------------------------------------


def test_identity_compose_identity(s3):
    A = iota1(s3)
    crs = crs_pi1(circle(), A)
    Id = identity_profunctor(crs)
    C = compose_profunctors(Id, Id)
    assert profunctor_iso_check(C, Id) is not None


def test_cylinder_compose_cylinder_is_glued(s3):
    for A in [iota1(s3), iota2(corpus_crossed_modules()[0])]:
        C1, C2 = prism(circle()), prism(circle())
        P1 = cobordism_profunctor(C1, A)
        P2 = cobordism_profunctor(C2, A)
        glued = glue(C1, C2, prism_end_matching(C1, C2))
        Pg = cobordism_profunctor(glued, A)
        C = compose_profunctors(P1, P2)
        assert C.check_functorial()
        assert profunctor_iso_check(C, Pg) is not None


def test_compose_with_empty_basis_profunctor():
    A = iota1(cyclic_group(2))
    P = cobordism_profunctor(prism(circle()), A)
    # fabricate an empty-basis profunctor on the same groupoids
    from quinncalc.extprof import Profunctor

    empty = Profunctor(
        P.right,
        P.right,
        {(x, y): () for x in P.right.groupoid.objects for y in P.right.groupoid.objects},
        {},
        {},
    )
    C = compose_profunctors(P, empty)
    assert all(len(v) == 0 for v in C.basis.values())


def test_profunctor_iso_fail_fast_on_cardinalities():
    A = iota1(cyclic_group(2))
    P = cobordism_profunctor(prism(circle()), A)
    T = Stratification(
        prism(circle()).simpset,
        {"in": prism(circle()).tags["in"], "out": prism(circle()).tags["out"]},
    )
    # compare against the composite (same boundary groupoids, same sizes) and
    # against a doctored profunctor with a dropped element
    from quinncalc.extprof import Profunctor

    smaller = Profunctor(
        P.left,
        P.right,
        {pair: els[:-1] if els else els for pair, els in P.basis.items()},
        P.lact,
        P.ract,
    )
    assert profunctor_iso_check(P, smaller) is None


def test_profunctor_self_iso(s3):
    A = iota1(s3)
    P = cobordism_profunctor(prism(circle()), A)
    iso = profunctor_iso_check(P, P)
    assert iso is not None


# -- decategorification -----------------------------------------------------------


def test_decategorified_matrix_matches_quinn_at_s0():
    for A in algebras_small():
        M = prism(circle())
        P = cobordism_profunctor(M, A)
        got = decategorified_matrix(P, M, A)
        want = quinn_matrix(M, A, Fraction(0)).as_lists()
        assert got == want


# -- windows -------------------------------------------------------------------------


def test_vertical_identity_window_over_point():
    for G in corpus_groups():
        A = iota1(G)
        W = window_support(prism(point()), prism(point()))
        nt = window_nat_transform(W, A)
        assert nt.is_identity()
        assert nt.naturality_check()


def test_vertical_identity_window_over_circle_groups():
    for G in corpus_groups():
        A = iota1(G)
        W = window_support(prism(circle()), prism(circle()))
        nt = window_nat_transform(W, A)
        assert nt.is_identity()
        assert nt.naturality_check()


def test_vertical_identity_window_over_circle_crossed_modules():
    for M in corpus_crossed_modules():
        A = iota2(M)
        W = window_support(prism(circle()), prism(circle()))
        nt = window_nat_transform(W, A)
        assert nt.is_identity()
        assert nt.naturality_check()


def test_vertical_composition_of_identity_cells():
    from quinncalc.extprof import vertical_compose_nat

    A = iota1(cyclic_group(3))
    W = window_support(prism(circle()), prism(circle()))
    nt = window_nat_transform(W, A)
    assert vertical_compose_nat(nt, nt).is_identity()


def test_horizontal_composition_of_identity_cells():
    from quinncalc.extprof import horizontal_compose_nat

    for A in [iota1(cyclic_group(2)), iota2(corpus_crossed_modules()[0])]:
        W = window_support(prism(circle()), prism(circle()))
        nt1 = window_nat_transform(W, A)
        nt2 = window_nat_transform(W, A)
        hc = horizontal_compose_nat(nt1, nt2)
        assert hc.is_identity()
        assert hc.naturality_check()


# -- one compiled plan per call ------------------------------------------------------


def test_each_cobordism_call_compiles_its_plan_once(monkeypatch):
    """Every boundary pair of a call is walked on one plan of the call's space,
    and no space, the boundaries' included, is compiled twice in one call."""
    import quinncalc.colouring
    import quinncalc.extprof
    import quinncalc.homotopy
    import quinncalc.tqft
    from quinncalc.colouring import Plan

    compiled = []

    class RecordingPlan(Plan):
        def __init__(self, X, A):
            super().__init__(X, A)
            compiled.append(self.X)

    for module in (quinncalc.colouring, quinncalc.homotopy, quinncalc.extprof, quinncalc.tqft):
        monkeypatch.setattr(module, "Plan", RecordingPlan)
    A = iota1(cyclic_group(3))
    M = prism(circle())
    W = window_support(prism(circle()), prism(circle()))
    # each call also compiles its in and out boundaries once: for their state
    # spaces (quinn_matrix) or their crs_pi1 groupoids (cobordism_profunctor)
    for run, spaces, total in (
        (lambda: quinn_matrix(M, A), [M.simpset], 3),
        (lambda: cobordism_profunctor(M, A), [M.simpset], 3),
        (lambda: window_nat_transform(W, A),
         [W.top_cob.simpset, W.bottom_cob.simpset, W.simpset], 7),
    ):
        compiled.clear()
        run()
        assert len(compiled) == total
        assert len({id(X) for X in compiled}) == total
        assert [X for X in compiled if any(X is S for S in spaces)] == spaces
