import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quinncalc.errors import ExactnessError
from quinncalc.finalg import (
    crossed_module_zero,
    cyclic_group,
    iota1,
    iota2,
    symmetric_group,
)
from quinncalc.homotopy import crs_pi1
from quinncalc.simpset import (
    Stratification,
    circle,
    glue,
    interval,
    point,
    prism,
    prism_end_matching,
    sphere,
    torus,
)
from quinncalc.tqft import (
    closed_invariant,
    chi_pi_component,
    chi_pi_rel_fibre,
    quinn_matrix,
    rational_pow,
    s_conjugation_check,
    state_space,
    theta_weight,
)
from tests import reference
from tests.conftest import corpus_crossed_modules, corpus_groups
from tests.test_colouring import CORPUS_ALGEBRAS


def conjugacy_class_count(G):
    seen, k = set(), 0
    for g in G.elements:
        if g in seen:
            continue
        k += 1
        seen |= {G.mul(G.mul(a, g), G.inv(a)) for a in G.elements}
    return k


def hom_z2_count(G):
    return sum(1 for a in G.elements for b in G.elements if G.mul(a, b) == G.mul(b, a))


# -- rational powers -----------------------------------------------------------


def test_rational_pow_exact_cases():
    assert rational_pow(Fraction(4, 9), Fraction(1, 2)) == Fraction(2, 3)
    assert rational_pow(Fraction(8), Fraction(-2, 3)) == Fraction(1, 4)
    assert rational_pow(Fraction(5), Fraction(3)) == 125
    assert rational_pow(Fraction(1), Fraction(7, 11)) == 1


def test_rational_pow_float_channel():
    v = rational_pow(Fraction(2), Fraction(1, 2))
    assert isinstance(v, float) and abs(v - 2**0.5) < 1e-12
    with pytest.raises(ExactnessError):
        rational_pow(Fraction(2), Fraction(1, 2), exact_only=True)


# -- state spaces ----------------------------------------------------------------


def test_rational_pow_exact_on_large_integers():
    assert rational_pow(Fraction(10**400), Fraction(1, 2)) == 10**200
    assert rational_pow(Fraction(3**300, 2**90), Fraction(-2, 3)) == Fraction(2**60, 3**200)
    v = rational_pow(Fraction(10**40 + 1), Fraction(1, 2))
    assert isinstance(v, float) and abs(v - 1e20) <= 1e-12 * 1e20
    v = rational_pow(Fraction(10**400 + 1), Fraction(1, 2))  # base past float range
    assert isinstance(v, float) and math.isclose(v, 1e200)
    v = rational_pow(Fraction(1, 10**400 + 1), Fraction(1, 2))  # base below float range
    assert isinstance(v, float) and math.isclose(v, 1e-200)
    v = rational_pow(Fraction(1, 10**400 + 1), Fraction(-1, 2))
    assert isinstance(v, float) and math.isclose(v, 1e200)


@pytest.mark.parametrize(
    "base, expo",
    [
        (Fraction(2) ** 6001, Fraction(1, 3)),  # the logarithm path overflows in exp
        (Fraction(2**1000 + 1), Fraction(3, 2)),  # the base fits a float, the power does not
        (Fraction(1, 2**6001), Fraction(-1, 3)),
    ],
)
def test_rational_pow_past_float_range_raises_exactness_error(base, expo):
    with pytest.raises(ExactnessError, match=rf"\*\*{expo} is not rational and lies outside float range"):
        rational_pow(base, expo)



def test_state_space_circle_dims():
    for G in corpus_groups():
        ss = state_space(circle(), iota1(G))
        assert ss.dim == conjugacy_class_count(G)


def test_state_space_circle_crossed_module_dim():
    A = iota2(crossed_module_zero(cyclic_group(2), cyclic_group(2)))
    assert state_space(circle(), A).dim == 2


def test_state_space_torus_dims():
    assert state_space(torus(), iota1(cyclic_group(2))).dim == 4
    assert state_space(torus(), iota1(symmetric_group(3))).dim == 8


def test_state_space_sphere_crossed_module():
    A = iota2(crossed_module_zero(cyclic_group(2), cyclic_group(2)))
    assert state_space(sphere(2), A).dim == 2


def test_state_space_empty_space_is_one_dimensional():
    from quinncalc.simpset import SimpSet

    empty = SimpSet({}, {})
    for G in corpus_groups()[:1]:
        assert state_space(empty, iota1(G)).dim == 1


# -- component contents -----------------------------------------------------------


def test_chi_pi_component_circle_s3(s3):
    A = iota1(s3)
    crs_cols = state_space(circle(), A)
    # the class of a transposition has three members and content 1/2
    transposition = (1, 0, 2)
    from quinncalc.colouring import enumerate_colourings

    col = next(c for c in enumerate_colourings(circle(), A) if c.value("e") == transposition)
    assert chi_pi_component(circle(), A, col) == Fraction(1, 2)


def test_chi_pi_component_contractible_is_chi_of_algebra(s3):
    from quinncalc.colouring import enumerate_colourings
    from quinncalc.finalg import chi_pi
    from quinncalc.simpset import standard_simplex

    A = iota1(s3)
    X = standard_simplex(1)
    col = enumerate_colourings(X, A)[0]
    total = sum(
        chi_pi_component(X, A, state_space(X, A).representative(ci))
        for ci in range(state_space(X, A).dim)
    )
    assert total == chi_pi(A)


def test_chi_pi_rel_fibre_empty_is_zero(s3):
    A = iota1(s3)
    P = prism(circle())
    in_map, out_map = P.meta["in_map"], P.meta["out_map"]
    g = s3.elements[1]  # transposition
    h = s3.elements[3]  # a 3-cycle, not conjugate to g
    fixed = {in_map["v"]: "*", out_map["v"]: "*", in_map["e"]: g, out_map["e"]: h}
    assert chi_pi_rel_fibre(P.simpset, A, fixed) == 0


# -- cylinder matrices are identities ----------------------------------------------


def identity_matrix(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("s", [Fraction(0), Fraction(1)])
def test_cylinder_identity_circle(s):
    for G in corpus_groups():
        Q = quinn_matrix(prism(circle()), iota1(G), s)
        assert Q.as_lists() == identity_matrix(Q.rows.dim)
        assert Q.exact


def test_cylinder_identity_point_and_torus():
    for G in corpus_groups():
        Q = quinn_matrix(prism(point()), iota1(G), Fraction(0))
        assert Q.as_lists() == identity_matrix(Q.rows.dim)
    Q = quinn_matrix(prism(torus()), iota1(cyclic_group(2)), Fraction(0))
    assert Q.as_lists() == identity_matrix(4)


def test_cylinder_identity_crossed_modules():
    for M in corpus_crossed_modules():
        A = iota2(M)
        for X in [point(), circle()]:
            Q = quinn_matrix(prism(X), A, Fraction(0))
            assert Q.as_lists() == identity_matrix(Q.rows.dim)


def test_cylinder_identity_sphere_crossed_module():
    M = corpus_crossed_modules()[0]
    Q = quinn_matrix(prism(sphere(2)), iota2(M), Fraction(1))
    assert Q.as_lists() == identity_matrix(2)


# -- closed invariants ---------------------------------------------------------------


def test_closed_torus_invariants():
    for G in corpus_groups():
        val = closed_invariant(torus(), iota1(G))
        assert val == Fraction(hom_z2_count(G), len(G))
    assert closed_invariant(torus(), iota1(symmetric_group(3))) == 3


def test_closed_sphere_invariants_groups():
    # independent oracle: the fundamental group of the sphere is trivial, so
    # the invariant is |Hom(1, G)| / |G| = 1 / |G|
    for G in corpus_groups():
        assert closed_invariant(sphere(2), iota1(G)) == Fraction(1, len(G))


def test_closed_sphere_crossed_module():
    M = corpus_crossed_modules()[0]
    A = iota2(M)
    val = closed_invariant(sphere(2), A)
    assert val == 2  # |ker| * |E| / |G|
    assert val == reference.crs_homotopy_content(sphere(2), A)


def test_closed_invariant_matches_crs_content():
    for G in corpus_groups():
        A = iota1(G)
        assert closed_invariant(torus(), A) == reference.crs_homotopy_content(torus(), A)


# -- multiplicativity -----------------------------------------------------------------


def approx_equal_matrices(P, Q, tol=1e-12):
    for rp, rq in zip(P, Q):
        for a, b in zip(rp, rq):
            if isinstance(a, Fraction) and isinstance(b, Fraction):
                if a != b:
                    return False
            elif abs(float(a) - float(b)) > tol * max(1.0, abs(float(b))):
                return False
    return True


@pytest.mark.parametrize("s", [Fraction(0), Fraction(1)])
def test_multiplicativity_double_cylinder(s):
    algebras = [iota1(G) for G in corpus_groups()] + [iota2(M) for M in corpus_crossed_modules()]
    for A in algebras:
        C1, C2 = prism(circle()), prism(circle())
        glued = glue(C1, C2, prism_end_matching(C1, C2))
        Q1 = quinn_matrix(C1, A, s)
        Q2 = quinn_matrix(C2, A, s)
        Qg = quinn_matrix(glued, A, s)
        assert approx_equal_matrices(Q1.matmul(Q2), Qg.as_lists())


def test_multiplicativity_torus_cylinder_z2():
    A = iota1(cyclic_group(2))
    C1, C2 = prism(torus()), prism(torus())
    glued = glue(C1, C2, prism_end_matching(C1, C2))
    Q1, Qg = quinn_matrix(C1, A, Fraction(0)), quinn_matrix(glued, A, Fraction(0))
    assert approx_equal_matrices(Q1.matmul(Q1), Qg.as_lists())


def test_stratification_independence_double_vs_single():
    for G in corpus_groups():
        A = iota1(G)
        C1, C2 = prism(circle()), prism(circle())
        glued = glue(C1, C2, prism_end_matching(C1, C2))
        assert quinn_matrix(glued, A, Fraction(0)).as_lists() == quinn_matrix(
            C1, A, Fraction(0)
        ).as_lists()


def _glued_prisms(base, tree):
    """(M, in_map, out_map): the prisms over `base` glued along a binary tree, end to end.

    A leaf (None) is `prism(base)`; a pair (left, right) glues the out end
    of the left cobordism to the in end of the right one, generator by
    generator of the base.  The maps take each generator of the base to its
    copy in the in and out ends of M.
    """
    if tree is None:
        P = prism(base)
        return P, P.meta["in_map"], P.meta["out_map"]
    (L, l_in, l_out), (R, r_in, r_out) = (_glued_prisms(base, t) for t in tree)
    M = glue(L, R, {l_out[g]: r_in[g] for g in l_out})
    left, right = M.meta["left_map"], M.meta["right_map"]
    return M, {g: left[h] for g, h in l_in.items()}, {g: right[h] for g, h in r_out.items()}


def _leaves(tree):
    return 1 if tree is None else sum(map(_leaves, tree))


GLUING_BASES = {"point": point, "interval": interval, "circle": circle, "torus": torus}


@settings(max_examples=40, deadline=None)
@given(
    base=st.sampled_from(sorted(GLUING_BASES)),
    algebra=st.sampled_from(sorted(CORPUS_ALGEBRAS)),
    tree=st.recursive(st.none(), lambda kids: st.tuples(kids, kids), max_leaves=3).filter(
        lambda t: t is not None
    ),
    s=st.sampled_from([Fraction(0), Fraction(1)]),
)
def test_quinn_matrix_composes_under_random_gluings(base, algebra, tree, s):
    """Functoriality: the matrix of a gluing is the product of the matrices of its pieces.

    The cobordism is two to three prisms glued in a random bracketing; the
    root gluing is checked against its two pieces, and the whole against
    the power of the single prism's matrix.
    """
    assume(base != "torus" or algebra in ("z2", "z3"))  # larger algebras take seconds there
    X, A = GLUING_BASES[base](), CORPUS_ALGEBRAS[algebra]()
    M, _, _ = _glued_prisms(X, tree)
    L, R = (_glued_prisms(X, t)[0] for t in tree)
    Q = quinn_matrix(M, A, s)
    assert approx_equal_matrices(quinn_matrix(L, A, s).matmul(quinn_matrix(R, A, s)), Q.as_lists())
    P = quinn_matrix(prism(X), A, s)
    power = P.as_lists()
    for _ in range(_leaves(tree) - 1):
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*P.entries)] for row in power]
    assert approx_equal_matrices(power, Q.as_lists())


# -- s conjugation ------------------------------------------------------------------


def test_s_conjugation_basic():
    for G in corpus_groups():
        A = iota1(G)
        M = prism(circle())
        M0 = quinn_matrix(M, A, Fraction(0))
        M1 = quinn_matrix(M, A, Fraction(1))
        assert s_conjugation_check(M0, M0)
        assert s_conjugation_check(M0, M1)
        assert s_conjugation_check(M1, M0)


def test_s_conjugation_half_on_equal_content_bases():
    for G in [cyclic_group(2), cyclic_group(3), cyclic_group(4)]:
        A = iota1(G)
        M = prism(circle())
        Mh = quinn_matrix(M, A, Fraction(1, 2))
        M0 = quinn_matrix(M, A, Fraction(0))
        assert Mh.exact
        assert s_conjugation_check(Mh, M0)


def test_s_conjugation_genus_style_composite():
    # non-identity cobordism: double torus cylinder for Z2
    A = iota1(cyclic_group(2))
    C1, C2 = prism(torus()), prism(torus())
    glued = glue(C1, C2, prism_end_matching(C1, C2))
    Q0 = quinn_matrix(glued, A, Fraction(0))
    Q1 = quinn_matrix(glued, A, Fraction(1))
    assert s_conjugation_check(Q0, Q1) and s_conjugation_check(Q1, Q0)


def level3_tower_with_action():
    """Z2 -> Z2 -> Z2(base) tower with the top level Z3 twisted by inversion."""
    from quinncalc.finalg import crossed_module_zero, iota2
    from quinncalc.finalg.crossed import CrossedComplex

    z2, z3 = cyclic_group(2), cyclic_group(3)
    A2 = iota2(crossed_module_zero(z2, z2))
    act3 = {
        (("*", e), g): (z3.inv(e) if g == 1 else e)
        for e in z3.elements
        for g in z2.elements
    }
    return CrossedComplex(
        A2.base,
        levels={2: {"*": z2}, 3: {"*": z3}},
        bdry={2: A2.bdry[2], 3: {("*", e): z2.unit for e in z3.elements}},
        act={2: A2.act[2], 3: act3},
        truncation=3,
    )


def test_level3_tower_validates():
    from quinncalc.finalg import validate_crossed_complex

    assert validate_crossed_complex(level3_tower_with_action())


def test_sphere3_state_space_and_cylinder_identity():
    # exercises the twisted top-dimensional labels through dimension four
    A = level3_tower_with_action()
    ss = state_space(sphere(3), A)
    assert ss.dim == 2  # inversion orbits {0}, {1, 2} of the top level
    Q = quinn_matrix(prism(sphere(3)), A, Fraction(0))
    assert Q.as_lists() == identity_matrix(2)


def test_sphere3_closed_invariant_level3_tower():
    A = level3_tower_with_action()
    # weight: (1/|A1|) * |A2| * (1/|A3|) against the single free top cell
    assert closed_invariant(sphere(3), A) == Fraction(3) * Fraction(1, 2) * 2 * Fraction(1, 3)


def test_state_space_nonreduced_gate():
    from quinncalc.finalg import iota1, pair_groupoid

    A = iota1(pair_groupoid(3))
    ss = state_space(circle(), A)
    assert crs_pi1(circle(), A).groupoid.validate()
    assert ss.dim == 1


def test_s_conjugation_shape_mismatch():
    from quinncalc.errors import BoundaryError

    A = iota1(cyclic_group(2))
    Q1 = quinn_matrix(prism(circle()), A, Fraction(0))
    Q2 = quinn_matrix(prism(point()), A, Fraction(0))
    with pytest.raises(BoundaryError):
        s_conjugation_check(Q1, Q2)


def test_theta_product_requires_reduced():
    from quinncalc.finalg import iota1, pair_groupoid

    with pytest.raises(ValueError, match="reduced"):
        theta_weight(point(), iota1(pair_groupoid(2)))
