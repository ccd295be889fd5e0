"""Acceptance suite: every criterion computed exactly, one line per criterion.

Corpus: groups Z2, Z3, Z4, S3; crossed modules 0:Z2->Z2, id:Z2->Z2,
0:Z2->Z4 with trivial action.
"""
from fractions import Fraction
from itertools import product

from quinncalc.colouring import enumerate_colourings
from quinncalc.extprof import (
    cobordism_profunctor,
    compose_profunctors,
    profunctor_iso_check,
    window_nat_transform,
)
from quinncalc.finalg import (
    FinGroupoid,
    action_groupoid,
    cyclic_group,
    find_groupoid_iso,
    iota1,
    iota2,
    pair_groupoid,
    quotient_group,
    symmetric_group,
)
from quinncalc.homotopy import crs_pi1
from quinncalc.morita import (
    check_algebra_iso,
    frobenius_data,
    groupoid_algebra,
    lin2_bimodule,
    quantum_double_oracle,
    tensor_over,
    verify_frobenius,
)
from quinncalc.simpset import (
    circle,
    glue,
    point,
    prism,
    prism_end_matching,
    sphere,
    standard_simplex,
    torus,
    window_support,
)
from quinncalc.tqft import closed_invariant, quinn_matrix, s_conjugation_check, state_space
from tests.conftest import corpus_crossed_modules, corpus_groups
from tests.reference import crs_homotopy_content, dict_algebra


def report(number, text):
    print(f"criterion {number}: {text} ... PASS")


def all_algebras():
    return [iota1(G) for G in corpus_groups()] + [iota2(M) for M in corpus_crossed_modules()]


def identity_matrix(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def test_criterion_1_quantum_double():
    s3 = symmetric_group(3)
    res = quantum_double_oracle(s3)
    assert res.double.dim == 36
    assert res.double.validate()
    assert res.ok
    assert check_algebra_iso(res.crs_algebra, res.double, res.bijection)
    report(1, "quantum double of S3 realised by the circle groupoid algebra, dim 36")


def test_criterion_2_state_space_dimensions():
    s3, z4 = symmetric_group(3), cyclic_group(4)
    assert state_space(circle(), iota1(s3)).dim == 3
    assert state_space(circle(), iota1(z4)).dim == 4
    # torus oracle: orbits of simultaneous conjugation on commuting pairs
    pairs = [(a, b) for a in s3.elements for b in s3.elements if s3.mul(a, b) == s3.mul(b, a)]
    act = {
        (g, (a, b)): (s3.conj(a, s3.inv(g)), s3.conj(b, s3.inv(g)))
        for g in s3.elements
        for (a, b) in pairs
    }
    orbits = len(action_groupoid(s3, pairs, act).components())
    assert orbits == 8
    assert state_space(torus(), iota1(s3)).dim == 8
    M = corpus_crossed_modules()[0]
    assert state_space(sphere(2), iota2(M)).dim == 2
    report(2, "state space dims: circle S3=3, circle Z4=4, torus S3=8, sphere xmod=2")


def test_criterion_3_closed_invariants():
    s3 = symmetric_group(3)
    # independent presentation oracle: commuting pairs of S3 counted directly
    hom_count = sum(
        1 for a in s3.elements for b in s3.elements if s3.mul(a, b) == s3.mul(b, a)
    )
    assert closed_invariant(torus(), iota1(s3)) == Fraction(hom_count, 6) == 3
    M = corpus_crossed_modules()[0]
    A = iota2(M)
    ker = [e for e in M.E.elements if M.bdry[e] == M.G.unit]
    expected = Fraction(len(ker) * len(M.E), len(M.G))
    val = closed_invariant(sphere(2), A)
    assert val == expected == 2
    assert val == crs_homotopy_content(sphere(2), A)
    report(3, "closed invariants: torus/S3 = 3, sphere/xmod = 2, both cross-checked")


def test_criterion_4_functoriality():
    for A in all_algebras():
        for X in (point(), circle()):
            C1, C2 = prism(X), prism(X)
            Q1 = quinn_matrix(C1, A, Fraction(0))
            assert Q1.as_lists() == identity_matrix(Q1.rows.dim)
            glued = glue(C1, C2, prism_end_matching(C1, C2))
            Qg = quinn_matrix(glued, A, Fraction(0))
            assert Q1.matmul(quinn_matrix(C2, A, Fraction(0))) == Qg.as_lists()
    z2 = iota1(cyclic_group(2))
    C1, C2 = prism(torus()), prism(torus())
    Q1 = quinn_matrix(C1, z2, Fraction(0))
    assert Q1.as_lists() == identity_matrix(4)
    glued = glue(C1, C2, prism_end_matching(C1, C2))
    assert Q1.matmul(Q1) == quinn_matrix(glued, z2, Fraction(0)).as_lists()
    report(4, "gluing is matrix product and cylinders are identities, exactly")


def test_criterion_5_stratification_independence():
    for A in all_algebras():
        single = prism(circle())
        other = prism(circle())
        double = glue(single, other, prism_end_matching(single, other))
        Qs = quinn_matrix(single, A, Fraction(0))
        Qd = quinn_matrix(double, A, Fraction(0))
        assert Qs.as_lists() == Qd.as_lists()
        Ps = cobordism_profunctor(single, A)
        Pd = cobordism_profunctor(double, A)
        assert profunctor_iso_check(Ps, Pd) is not None
    report(5, "two stratified cylinders agree: equal matrices, isomorphic profunctors")


def test_criterion_6_nerve_oracle():
    for G in corpus_groups():
        for n in (1, 2, 3):
            cols = enumerate_colourings(standard_simplex(n), iota1(G))
            assert len(cols) == len(G) ** n
    for M in corpus_crossed_modules():
        A = iota2(M)
        img = {M.bdry[e] for e in M.E.elements}
        ker = [e for e in M.E.elements if M.bdry[e] == M.G.unit]
        brute = sum(
            1
            for g01, g12, g02 in product(M.G.elements, repeat=3)
            if M.G.mul(M.G.mul(g01, g12), M.G.inv(g02)) in img
        ) * len(ker)
        assert len(enumerate_colourings(standard_simplex(2), A)) == brute
    report(6, "nerve counts |G|^n (n<=3) and crossed-module simplex counts, brute-forced")


def _direct_circle_groupoid(M):
    """The expected circle groupoid from the crossed module, built directly."""
    G, E = M.G, M.E

    def act_on(g, h, e):
        return G.mul(G.mul(G.mul(h, g), M.bdry[e]), G.inv(h))

    def cls(g, h, e):
        reps = set()
        for a in E.elements:
            reps.add(
                (g, G.mul(h, M.bdry[a]), E.mul(E.mul(M.act[(E.inv(a), g)], e), a))
            )
        return min(sorted(reps))

    objects = G.elements
    arrows = sorted({cls(g, h, e) for g in G.elements for h in G.elements for e in E.elements})
    src = {t: t[0] for t in arrows}
    tgt = {t: act_on(*t) for t in arrows}
    comp = {}
    for t1 in arrows:
        g, h, e = t1
        for t2 in arrows:
            if t2[0] != tgt[t1]:
                continue
            _, hp, ep = t2
            comp[(t1, t2)] = cls(g, G.mul(hp, h), E.mul(e, M.act[(ep, h)]))
    ident = {g: cls(g, G.unit, E.unit) for g in objects}
    return FinGroupoid(objects, tuple(arrows), src, tgt, comp, ident, name="GmodG")


def test_criterion_7_extended_structure():
    for M in corpus_crossed_modules():
        A = iota2(M)
        crs = crs_pi1(circle(), A)
        assert len(crs.groupoid.objects) == len(M.G)
        direct = _direct_circle_groupoid(M)
        assert direct.validate()
        assert find_groupoid_iso(crs.groupoid, direct) is not None
        # sphere: kernel modulo the quotient action
        ker = tuple(e for e in M.E.elements if M.bdry[e] == M.G.unit)
        img = {M.bdry[e] for e in M.E.elements}
        Q, _ = quotient_group(M.G, img)
        act = {(q, e): M.act[(e, M.G.inv(q))] for q in Q.elements for e in ker}
        expected = action_groupoid(Q, ker, act)
        crs_s = crs_pi1(sphere(2), A)
        assert find_groupoid_iso(crs_s.groupoid, expected) is not None
    report(7, "circle groupoid matches the twisted-pair description; sphere matches kernel//quotient")


def test_criterion_8_window_identities():
    for A in all_algebras():
        for X in (point(), circle()):
            W = window_support(prism(X), prism(X))
            nt = window_nat_transform(W, A)
            assert nt.is_identity()
            assert nt.naturality_check()
    report(8, "vertical identity windows give identity natural transformations, all natural")


def test_criterion_9_s_parameter():
    equal_content = [iota1(cyclic_group(n)) for n in (2, 3, 4)]
    for A in all_algebras():
        M = prism(circle())
        Q0 = quinn_matrix(M, A, Fraction(0))
        Q1 = quinn_matrix(M, A, Fraction(1))
        assert s_conjugation_check(Q0, Q1) and s_conjugation_check(Q1, Q0)
    for A in equal_content:
        M = prism(circle())
        Qh = quinn_matrix(M, A, Fraction(1, 2))
        assert Qh.exact
        assert s_conjugation_check(Qh, quinn_matrix(M, A, Fraction(0)))
        assert s_conjugation_check(quinn_matrix(M, A, Fraction(1)), Qh)
    report(9, "diagonal conjugation identity holds exactly at s,t in {0, 1, 1/2}")


def test_criterion_10_morita_layer():
    for A in all_algebras():
        P1 = cobordism_profunctor(prism(circle()), A)
        P2 = cobordism_profunctor(prism(circle()), A)
        C = compose_profunctors(P1, P2)
        T, classes = tensor_over(lin2_bimodule(P1), lin2_bimodule(P2))
        L = lin2_bimodule(C)
        assert T.dim == L.dim and T.validate()
        phi = {}
        for eid in C.elements():
            _, p, q = C.reps[eid]
            phi[eid] = classes[(p, q)]
        assert len(set(phi.values())) == L.dim
    for k in (1, 2, 3, 4):
        G = pair_groupoid(k)
        alg = groupoid_algebra(G)
        assert alg.validate()
        mul = dict_algebra(alg).mul
        for (i, j) in G.arrows:
            for (k2, l) in G.arrows:
                row = mul.get(((i, j), (k2, l)), {})
                assert row == ({(i, l): Fraction(1)} if j == k2 else {})
    from quinncalc.finalg import groupoid_from_group

    gpds = [groupoid_from_group(G) for G in corpus_groups()]
    gpds += [pair_groupoid(k) for k in (2, 3)]
    s3 = symmetric_group(3)
    conj = {(g, x): s3.conj(x, s3.inv(g)) for g in s3.elements for x in s3.elements}
    gpds.append(action_groupoid(s3, s3.elements, conj))
    for G in gpds:
        assert verify_frobenius(frobenius_data(G))
    report(10, "Lin2 is monoidal on the corpus; matrix relations and Frobenius axioms hold")
