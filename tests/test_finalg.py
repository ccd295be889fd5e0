from fractions import Fraction

import pytest

from quinncalc.finalg import (
    action_groupoid,
    chi_pi,
    crossed_module_identity,
    crossed_module_zero,
    cyclic_group,
    find_group_iso,
    find_groupoid_iso,
    groupoid_from_group,
    homotopy_group,
    iota1,
    iota2,
    pair_groupoid,
    pi0,
    semidirect,
    symmetric_group,
    validate_crossed_complex,
)
from quinncalc.finalg.crossed import CrossedModulePresentation
from quinncalc.finalg.groupoids import FinGroupoid, partition, validate_left_action
from quinncalc.finalg.groups import ValidationReport, _generating_sequence
from tests import reference
from tests.conftest import corpus_crossed_modules, corpus_groups


def conj_action(G):
    return {(g, x): G.mul(G.mul(g, x), G.inv(g)) for g in G.elements for x in G.elements}


def test_group_tables_validate():
    for G in corpus_groups():
        assert G.validate()


def test_symmetric_group_s3_shape(s3):
    assert len(s3) == 6
    assert not s3.is_abelian()
    assert sorted(s3.element_order(g) for g in s3.elements) == [1, 2, 2, 2, 3, 3]


def test_one_object_groupoid_validates(s3):
    assert groupoid_from_group(s3).validate()


def test_pair_groupoid_i3():
    I3 = pair_groupoid(3)
    assert I3.validate()
    assert len(I3.objects) == 3 and len(I3.arrows) == 9
    assert len(I3.components()) == 1


# -- validate_crossed_complex ------------------------------------------------


def test_validate_iota2_abelian_zero_passes(z2):
    A = iota2(crossed_module_zero(z2, z2))
    assert validate_crossed_complex(A)


def test_validate_iota2_s3_zero_fails_second_peiffer(s3):
    # zero boundary plus trivial action forces a <| bdry(b) = a, which for a
    # nonabelian level-2 fibre contradicts conjugation.
    M = crossed_module_zero(s3, s3)
    A = iota2(M)
    report = validate_crossed_complex(A)
    assert not report
    assert report.kind == "axiom"
    assert "second Peiffer" in report.message
    a, e = report.witness[1], report.witness[2]
    assert s3.conj(a, e) != a  # brute-force witness check


def test_validate_iota1_groupoid_passes(s3):
    assert validate_crossed_complex(iota1(s3))


def test_malformed_table_reported_distinctly(z2):
    M = crossed_module_zero(z2, z2)
    del M.act[(1, 1)]
    A = iota2(M)
    report = validate_crossed_complex(A)
    assert not report and report.kind == "malformed"


# -- iota1 / iota2 -----------------------------------------------------------


def test_iota1_z2_shape(z2):
    A = iota1(z2)
    assert A.truncation == 1
    assert len(A.base.arrows) == 2
    assert A.level_elements(2) == (("*", 0),)  # implicit trivial level


def test_iota2_zero_z2_shape(z2):
    A = iota2(crossed_module_zero(z2, z2))
    assert A.truncation == 2
    assert len(A.fibre(2, "*")) == 2
    assert A.bdry_of(2, ("*", 1)) == z2.unit


def test_iota1_pair_groupoid():
    A = iota1(pair_groupoid(3))
    assert validate_crossed_complex(A)
    assert len(A.base.arrows) == 9


# -- homotopy groups ---------------------------------------------------------


def test_homotopy_groups_iota1_s3(s3):
    A = iota1(s3)
    assert len(homotopy_group(A, "*", 1)) == 6
    assert len(homotopy_group(A, "*", 2)) == 1


def test_homotopy_groups_iota2_zero(z2):
    A = iota2(crossed_module_zero(z2, z2))
    assert len(homotopy_group(A, "*", 1)) == 2
    assert len(homotopy_group(A, "*", 2)) == 2


def test_homotopy_groups_iota2_identity(z2):
    A = iota2(crossed_module_identity(z2))
    assert len(homotopy_group(A, "*", 1)) == 1
    assert len(homotopy_group(A, "*", 2)) == 1


def test_homotopy_group_bad_object(z2):
    with pytest.raises(ValueError):
        homotopy_group(iota1(z2), "nope", 1)


def test_pi1_iso_quotient_and_pi2_iso_kernel():
    from quinncalc.finalg import quotient_group, subgroup

    for M in corpus_crossed_modules():
        A = iota2(M)
        ker = [e for e in M.E.elements if M.bdry[e] == M.G.unit]
        img = {M.bdry[e] for e in M.E.elements}
        Q, _ = quotient_group(M.G, img)
        assert find_group_iso(homotopy_group(A, "*", 1), Q) is not None
        assert find_group_iso(homotopy_group(A, "*", 2), subgroup(M.E, ker)) is not None


# -- chi_pi ------------------------------------------------------------------


def test_chi_pi_iota1_s3(s3):
    assert chi_pi(iota1(s3)) == Fraction(1, 6)


def test_chi_pi_iota2_zero_z2(z2):
    assert chi_pi(iota2(crossed_module_zero(z2, z2))) == 1


def test_chi_pi_pair_groupoid():
    assert chi_pi(iota1(pair_groupoid(3))) == 1


def test_chi_pi_agreement_generated_corpus(z2):
    # both evaluation paths are asserted inside chi_pi; run it over a corpus
    # that includes non-reduced and 3-truncated complexes.
    from quinncalc.finalg.crossed import CrossedComplex

    complexes = [iota1(G) for G in corpus_groups()]
    complexes += [iota1(pair_groupoid(k)) for k in (2, 3)]
    complexes += [iota2(M) for M in corpus_crossed_modules()]
    # a 3-truncated tower of Z2's with zero boundaries and trivial actions
    A2 = iota2(crossed_module_zero(z2, z2))
    tower = CrossedComplex(
        A2.base,
        levels={2: {"*": z2}, 3: {"*": z2}},
        bdry={2: A2.bdry[2], 3: {("*", e): z2.unit for e in z2.elements}},
        act={
            2: A2.act[2],
            3: {(("*", e), g): e for e in z2.elements for g in z2.elements},
        },
        truncation=3,
    )
    assert validate_crossed_complex(tower)
    assert chi_pi(tower) == Fraction(1, 2)
    for A in complexes:
        assert validate_crossed_complex(A)
        chi_pi(A)  # raises if the two paths disagree


# -- action groupoids --------------------------------------------------------


def orbit_count(G, points, act):
    # independent orbit enumeration oracle
    points = list(points)
    seen, orbits = set(), 0
    for x in points:
        if x in seen:
            continue
        orbits += 1
        stack = [x]
        seen.add(x)
        while stack:
            y = stack.pop()
            for g in G.elements:
                z = act[(g, y)]
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
    return orbits


def test_action_groupoid_z2_conjugation(z2):
    act = conj_action(z2)
    AG = action_groupoid(z2, z2.elements, act)
    assert len(AG.objects) == 2 and len(AG.arrows) == 4
    assert len(AG.components()) == 2


def test_action_groupoid_s3_conjugation(s3):
    act = conj_action(s3)
    AG = action_groupoid(s3, s3.elements, act)
    assert AG.validate()
    assert len(AG.objects) == 6 and len(AG.arrows) == 36
    assert len(AG.components()) == 3 == orbit_count(s3, s3.elements, act)


def test_levels_above_the_truncation_share_one_trivial_group():
    A = iota1(cyclic_group(3))
    F = A.fibre(2, "*")
    assert len(F) == 1 and F is A.fibre(5, "*") is homotopy_group(A, "*", 2)


def test_action_groupoid_trivial_group():
    from quinncalc.finalg import trivial_group

    T = trivial_group()
    act = {(T.unit, x): x for x in "abc"}
    AG = action_groupoid(T, tuple("abc"), act)
    assert len(AG.arrows) == 3  # discrete


def test_action_groupoid_component_count_matches_orbits():
    for G in corpus_groups():
        act = conj_action(G)
        AG = action_groupoid(G, G.elements, act)
        assert len(AG.components()) == orbit_count(G, G.elements, act)


def _broken_actions(G, act):
    """act on G's elements with one entry not total, one leaving the set, one unit entry
    changed, and one entry of a g that is neither the unit nor a generator changed (where
    G has such a g)."""
    points, g = G.elements, G.elements[-1]
    yield "not total", {k: v for k, v in act.items() if k != (g, points[-1])}
    yield "leaves the set", {**act, (g, points[-1]): "outside"}
    yield "unit entry changed", {**act, (G.unit, points[0]): points[1]}
    gens = set(_generating_sequence(G))
    g = next((g for g in G.elements if g != G.unit and g not in gens), None)
    if g is not None:
        y = next(y for y in points if y != act[(g, points[0])])
        yield "non-generator entry changed", {**act, (g, points[0]): y}


@pytest.mark.parametrize("G", [*corpus_groups(), symmetric_group(4)], ids=lambda G: G.name)
def test_validate_left_action_matches_the_full_scan(G):
    """The check on a generating sequence returns the full scan's report: on conjugation
    and left multiplication, on right multiplication (an action only when G is abelian)
    and on four broken tables, which all fail."""
    els = G.elements
    left = {(g, x): G.mul(g, x) for g in els for x in els}
    right = {(g, x): G.mul(x, g) for g in els for x in els}
    for act in (conj_action(G), left):
        assert validate_left_action(G, els, act) == ValidationReport.passed()
        assert reference.validate_left_action(G, els, act) == ValidationReport.passed()
        for broken, bad in _broken_actions(G, act):
            got = validate_left_action(G, els, bad)
            assert not got and got == reference.validate_left_action(G, els, bad), broken
    got = validate_left_action(G, els, right)
    assert bool(got) == G.is_abelian() and got == reference.validate_left_action(G, els, right)


# -- semidirect products -----------------------------------------------------


def test_semidirect_trivial_action_is_direct(z2, z3):
    act = {(e, g): e for e in z3.elements for g in z2.elements}
    P = semidirect(z2, z3, act)
    assert len(P) == 6 and P.is_abelian()


def test_semidirect_z2_on_z3_by_inversion_is_s3(z2, z3, s3):
    act = {(e, g): (z3.inv(e) if g == 1 else e) for e in z3.elements for g in z2.elements}
    P = semidirect(z2, z3, act)
    assert not P.is_abelian()
    assert find_group_iso(P, s3) is not None


def test_semidirect_with_trivial_fibre(s3):
    from quinncalc.finalg import trivial_group

    T = trivial_group()
    act = {(T.unit, g): T.unit for g in s3.elements}
    P = semidirect(s3, T, act)
    assert find_group_iso(P, s3) is not None


def test_semidirect_rejects_non_automorphism(z2, z3):
    act = {(e, g): (0 if g == 1 else e) for e in z3.elements for g in z2.elements}
    with pytest.raises(ValueError):
        semidirect(z2, z3, act)


# -- iso search helpers ------------------------------------------------------


def test_groupoid_iso_finds_and_rejects(s3, z2):
    AG = action_groupoid(s3, s3.elements, conj_action(s3))
    iso = find_groupoid_iso(AG, AG)
    assert iso is not None
    assert find_groupoid_iso(AG, groupoid_from_group(s3)) is None
    assert find_group_iso(cyclic_group(4), cyclic_group(2)) is None


def test_pi0_exposes_components_and_map():
    A = iota1(pair_groupoid(3))
    comps, comp_of = pi0(A)
    assert len(comps) == 1
    assert set(comp_of) == set(A.objects)


def test_crossed_module_validates():
    for M in corpus_crossed_modules():
        assert M.validate()
    bad = crossed_module_zero(symmetric_group(3), symmetric_group(3))
    assert not bad.validate()


PRESENTATIONS = {
    **{M.name: (lambda M=M: M) for M in corpus_crossed_modules()},
    "id:S3": lambda: crossed_module_identity(symmetric_group(3)),
    "0:Z3->S3": lambda: crossed_module_zero(symmetric_group(3), cyclic_group(3)),
    "0:S3->S3": lambda: crossed_module_zero(symmetric_group(3), symmetric_group(3)),
    "0:Z4->Z2": lambda: crossed_module_zero(cyclic_group(2), cyclic_group(4)),
}


def _presentation_variants(M):
    """M; M with each boundary or action entry changed to each other value; and M with a
    boundary entry and an action entry missing, or sent outside G and E."""
    def variant(bdry=M.bdry, act=M.act):
        return CrossedModulePresentation(M.G, M.E, bdry, act, name=M.name)

    yield M
    for e, b in M.bdry.items():
        yield from (variant(bdry={**M.bdry, e: v}) for v in M.G.elements if v != b)
    for eg, a in M.act.items():
        yield from (variant(act={**M.act, eg: v}) for v in M.E.elements if v != a)
    e, eg = M.E.elements[-1], (M.E.elements[-1], M.G.elements[-1])
    yield variant(bdry={d: v for d, v in M.bdry.items() if d != e})
    yield variant(act={d: v for d, v in M.act.items() if d != eg})
    yield variant(bdry={**M.bdry, e: "outside"})
    yield variant(act={**M.act, eg: "outside"})


@pytest.mark.parametrize("name", list(PRESENTATIONS))
def test_crossed_module_validates_as_the_complex_it_presents(name):
    """`CrossedModulePresentation.validate` (the complex `iota2(M)`) passes and fails as the
    checks on the presentation's own tables do, with the same kind of failure."""
    seen = set()
    for M in _presentation_variants(PRESENTATIONS[name]()):
        got, want = M.validate(), reference.crossed_module_validate(M)
        assert (got.ok, got.kind) == (want.ok, want.kind)
        seen.add((got.ok, got.kind))
    assert {(False, "malformed"), (False, "axiom")} <= seen


def test_crossed_module_malformed_vs_axiom(z2):
    M = CrossedModulePresentation(z2, z2, {0: 0}, {})
    rep = M.validate()
    assert not rep and rep.kind == "malformed"


def test_partition_orders_classes_by_least_member():
    assert partition(6, [(4, 1), (5, 3), (3, 0), (1, 1)]) == ((0, 3, 5), (1, 4), (2,))
    assert partition(3, iter([])) == ((0,), (1,), (2,))
    assert partition(0, []) == ()


def test_a_repeated_object_or_arrow_id_is_malformed():
    """A groupoid listing an object or an arrow twice is malformed, with the id as witness;
    before, a repeated object made every count over it double."""
    ok = FinGroupoid(("a", "b"), ("i", "j"), {"i": "a", "j": "b"}, {"i": "a", "j": "b"},
                     {("i", "i"): "i", ("j", "j"): "j"}, {"a": "i", "b": "j"})
    assert ok.validate()
    for objects, arrows, kind, first in (
        (("a", "b", "a"), ("i", "j"), "object", "a"),
        (("a", "b"), ("i", "j", "i"), "arrow", "i"),
    ):
        G = FinGroupoid(objects, arrows, ok.src, ok.tgt, dict(ok.comp_table), ok.ident)
        report = G.validate()
        assert (report.ok, report.kind, report.witness) == (False, "malformed", (first,))
        assert report.message == f"{kind} id given twice"
        assert G.validate_names() == report
