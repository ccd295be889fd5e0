from dataclasses import replace
from fractions import Fraction

import pytest

from quinncalc.extprof import (
    cobordism_profunctor,
    compose_profunctors,
    identity_profunctor,
    reverse_profunctor,
)
from quinncalc.finalg import (
    action_groupoid,
    cyclic_group,
    groupoid_from_group,
    iota1,
    iota2,
    pair_groupoid,
    symmetric_group,
)
from quinncalc.homotopy import crs_pi1
from quinncalc.morita import (
    Algebra,
    check_algebra_iso,
    frobenius_data,
    groupoid_algebra,
    lin2_bimodule,
    quantum_double,
    quantum_double_oracle,
    tensor_over,
    verify_frobenius,
)
from quinncalc.simpset import circle, prism
from tests.conftest import corpus_crossed_modules, corpus_groups
from tests.reference import DictAlgebra, dict_algebra, index_algebra
from tests.test_colouring import CORPUS_ALGEBRAS
from tests.test_transports import CYLINDERS


def conj_action(G):
    return {(g, x): G.mul(G.mul(g, x), G.inv(g)) for g in G.elements for x in G.elements}


# -- groupoid algebras ---------------------------------------------------------


def test_groupoid_algebra_of_group_is_group_algebra(z2):
    A = groupoid_algebra(groupoid_from_group(z2))
    assert A.dim == 2 and A.validate()


def test_pair_groupoid_algebra_is_matrix_algebra():
    for k in (2, 3, 4):
        G = pair_groupoid(k)
        A = groupoid_algebra(G)
        assert A.dim == k * k and A.validate()
        # elementary matrix relations E_ij E_kl = delta(j,k) E_il
        mul = dict_algebra(A).mul
        for (i, j) in G.arrows:
            for (k2, l) in G.arrows:
                row = mul.get(((i, j), (k2, l)), {})
                if j == k2:
                    assert row == {(i, l): Fraction(1)}
                else:
                    assert row == {}


def test_action_groupoid_algebra_s3(s3):
    AG = action_groupoid(s3, s3.elements, conj_action(s3))
    A = groupoid_algebra(AG)
    assert A.dim == 36 and A.validate()


# -- quantum double ------------------------------------------------------------


def test_quantum_double_is_associative():
    for G in corpus_groups():
        D = quantum_double(G)
        assert D.dim == len(G) ** 2
        assert D.validate()


def test_naive_product_order_fails_associativity(s3):
    # the other composition order is not associative for a nonabelian group,
    # which pins down the order used in quantum_double
    els = tuple((g, a) for g in s3.elements for a in s3.elements)
    mul = {}
    for (g, a) in els:
        tgt = s3.mul(s3.mul(a, g), s3.inv(a))
        for (gp, ap) in els:
            if gp == tgt:
                mul[((g, a), (gp, ap))] = {(g, s3.mul(a, ap)): Fraction(1)}
    unit = {(g, s3.unit): Fraction(1) for g in s3.elements}
    naive = DictAlgebra(els, mul, unit)
    assert not naive.validate()
    assert not index_algebra(naive).validate()


def test_quantum_double_oracle_corpus():
    for G in corpus_groups():
        res = quantum_double_oracle(G)
        assert res.ok, G.name
        assert check_algebra_iso(res.crs_algebra, res.double, res.bijection)


def _check_algebra_iso_pairs(A, B, bij):
    """Oracle for check_algebra_iso: compare the structure constants of the linear tables
    (`dict_algebra`) on every pair of basis elements."""
    if set(bij) != set(A.basis) or set(bij.values()) != set(B.basis):
        return False
    for a in A.basis:
        for b in A.basis:
            row = A.mul.get((a, b), {})
            want = {bij[k]: c for k, c in row.items()}
            if B.mul.get((bij[a], bij[b]), {}) != want:
                return False
    return {bij[k]: c for k, c in A.unit.items()} == B.unit


def _broken_products(res):
    """The genuine bijection with two images swapped so that a product breaks and the unit holds."""
    A, B, bij = dict_algebra(res.crs_algebra), dict_algebra(res.double), res.bijection
    units = set(A.unit)
    rest = [a for a in A.basis if a not in units]
    for i, a1 in enumerate(rest):
        for a2 in rest[i + 1 :]:
            bad = {**bij, a1: bij[a2], a2: bij[a1]}
            if not _check_algebra_iso_pairs(A, B, bad):
                return bad
    raise AssertionError("every swap is an automorphism")


def test_check_algebra_iso_matches_the_all_pairs_oracle():
    """Both accept the genuine isomorphisms and reject a broken product, an extra product and a wrong unit."""
    for G in [*corpus_groups(), symmetric_group(4)]:
        res = quantum_double_oracle(G)
        A, B, bij = res.crs_algebra, res.double, res.bijection
        linear = dict_algebra(B)
        assert check_algebra_iso(A, B, bij) and _check_algebra_iso_pairs(dict_algebra(A), linear, bij)
        empty = next((p, q) for p in B.basis for q in B.basis if (p, q) not in linear.mul)
        extra = index_algebra(replace(linear, mul={**linear.mul, empty: {B.basis[0]: Fraction(1)}}))
        wrong_unit = Algebra(B.basis, B.rows, B.unit[1:])
        for other, m in [(B, _broken_products(res)), (extra, bij), (wrong_unit, bij)]:
            assert not _check_algebra_iso_pairs(dict_algebra(A), dict_algebra(other), m)
            assert not check_algebra_iso(A, other, m)


def test_quantum_double_oracle_s3_dimension(s3):
    res = quantum_double_oracle(s3)
    assert res.double.dim == 36 and res.ok


# -- bimodules -----------------------------------------------------------------


def test_identity_profunctor_gives_regular_bimodule(z3):
    crs = crs_pi1(circle(), iota1(z3))
    Id = identity_profunctor(crs)
    B = lin2_bimodule(Id)
    assert B.validate()
    assert B.dim == len(crs.groupoid.arrows)


def test_cylinder_bimodule_s3(s3):
    P = cobordism_profunctor(prism(circle()), iota1(s3))
    B = lin2_bimodule(P)
    assert B.dim == 36
    assert B.validate()


def test_zero_bimodule():
    from quinncalc.extprof import Profunctor

    A = iota1(cyclic_group(2))
    P = cobordism_profunctor(prism(circle()), A)
    empty = Profunctor(
        P.left,
        P.right,
        {pair: () for pair in P.basis},
        {},
        {},
    )
    B = lin2_bimodule(empty)
    assert B.dim == 0 and B.validate()


@pytest.mark.parametrize("algebra", ["s3", "0:Z2->Z2"])
@pytest.mark.parametrize("cylinder", list(CYLINDERS))
def test_lin2_shares_the_profunctor_maps(cylinder, algebra):
    """An arrow acts on Lin2(P) by P's map of basis elements, so the bimodule holds P's maps."""
    P = cobordism_profunctor(CYLINDERS[cylinder](), CORPUS_ALGEBRAS[algebra]())
    for Q in (P, identity_profunctor(P.left), compose_profunctors(P, P), reverse_profunctor(P)):
        B = lin2_bimodule(Q)
        assert B.lact is Q.lact and B.ract is Q.ract
        assert B.basis == Q.elements()


# -- tensor over the middle algebra ------------------------------------------------


def test_regular_tensor_regular_is_regular(z3):
    crs = crs_pi1(circle(), iota1(z3))
    Id = identity_profunctor(crs)
    R = lin2_bimodule(Id)
    T, _ = tensor_over(R, R)
    assert T.validate()
    assert T.dim == R.dim


def test_lin2_is_monoidal_on_corpus():
    algebras = [iota1(cyclic_group(2)), iota1(cyclic_group(3)), iota1(symmetric_group(3))]
    algebras += [iota2(M) for M in corpus_crossed_modules()[:2]]
    for A in algebras:
        C1, C2 = prism(circle()), prism(circle())
        P1 = cobordism_profunctor(C1, A)
        P2 = cobordism_profunctor(C2, A)
        C = compose_profunctors(P1, P2)
        T, classes = tensor_over(lin2_bimodule(P1), lin2_bimodule(P2))
        L = lin2_bimodule(C)
        assert T.dim == L.dim
        assert T.validate()
        # explicit isomorphism: send a coend class to the tensor class of
        # its representative pair, and check it intertwines both actions
        phi = {}
        for eid in C.elements():
            y, p, q = C.reps[eid]
            phi[eid] = classes[(p, q)]
        assert len(set(phi.values())) == L.dim
        assert all(v is not None for v in phi.values())
        for g in C.left.groupoid.arrows:
            for eid in C.elements():
                if eid in L.lact[g]:
                    assert phi[L.lact[g][eid]] == T.lact[g][phi[eid]]
        for h in C.right.groupoid.arrows:
            for eid in C.elements():
                if eid in L.ract[h]:
                    assert phi[L.ract[h][eid]] == T.ract[h][phi[eid]]


def test_cylinder_bimodule_invertible_up_to_iso():
    # M (x) M^rev recovers the regular bimodule, certifying invertibility
    from quinncalc.extprof import profunctor_iso_check, reverse_profunctor

    for A in [iota1(cyclic_group(3)), iota1(symmetric_group(3)), iota2(corpus_crossed_modules()[0])]:
        P = cobordism_profunctor(prism(circle()), A)
        R = reverse_profunctor(P)
        assert R.check_functorial()
        C = compose_profunctors(P, R)
        Id = identity_profunctor(P.left)
        assert profunctor_iso_check(C, Id) is not None
        T, _ = tensor_over(lin2_bimodule(P), lin2_bimodule(R))
        assert T.dim == lin2_bimodule(Id).dim
        assert T.validate()


def test_tensor_with_zero_is_zero(z2):
    from quinncalc.extprof import Profunctor

    A = iota1(z2)
    P = cobordism_profunctor(prism(circle()), A)
    R = lin2_bimodule(P)
    empty = Profunctor(P.right, P.right, {pair: () for pair in P.basis}, {}, {})
    Z = lin2_bimodule(empty)
    T, _ = tensor_over(R, Z)
    assert T.dim == 0


# -- Frobenius data -------------------------------------------------------------


def test_tensor_middle_mismatch_rejected(z2, z3):
    import pytest

    crs2 = crs_pi1(circle(), iota1(z2))
    crs3 = crs_pi1(circle(), iota1(z3))
    R2 = lin2_bimodule(identity_profunctor(crs2))
    R3 = lin2_bimodule(identity_profunctor(crs3))
    with pytest.raises(ValueError):
        tensor_over(R2, R3)


def test_frobenius_z2(z2):
    G = groupoid_from_group(z2)
    data = frobenius_data(G)
    assert data.lam == {0: Fraction(1), 1: Fraction(0)}
    assert verify_frobenius(data)


def test_frobenius_pair_groupoid():
    data = frobenius_data(pair_groupoid(2))
    # two arrows out of each object
    for (x, y, c) in data.separability:
        assert c == Fraction(1, 2)
    assert verify_frobenius(data)


@pytest.mark.parametrize("kind", ["s3-conjugation", "pair-2", "group-z2"])
def test_frobenius_fails_with_one_identity_coefficient_changed(kind):
    s3 = symmetric_group(3)
    G = {
        "s3-conjugation": lambda: action_groupoid(s3, s3.elements, conj_action(s3)),
        "pair-2": lambda: pair_groupoid(2),
        "group-z2": lambda: groupoid_from_group(cyclic_group(2)),
    }[kind]()
    data = frobenius_data(G)
    assert verify_frobenius(data)
    for x in G.objects:
        e = G.ident[x]
        assert not verify_frobenius(replace(data, lam={**data.lam, e: Fraction(2)})), x


def test_frobenius_corpus_groupoids(s3):
    gpds = [groupoid_from_group(G) for G in corpus_groups()]
    gpds.append(action_groupoid(s3, s3.elements, conj_action(s3)))
    gpds.append(pair_groupoid(3))
    for G in gpds:
        assert verify_frobenius(frobenius_data(G))
