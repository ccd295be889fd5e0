"""`Plan`'s walk on value indices against the walk on values (`reference.DictPlan`).

Both must give the same colourings, in the same order, with the same keys
and counts, and the same `BoundaryError` for fixed values no colouring
extends.  `DictPlan` runs every label test; `Plan` leaves out the tests that
exactness makes vacuous, so the towers and crossed modules below cover each
rule that drops one.
"""
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quinncalc.colouring import Plan
from quinncalc.errors import BoundaryError
from quinncalc.finalg import (
    crossed_module_identity,
    crossed_module_zero,
    cyclic_group,
    iota1,
    iota2,
    pair_groupoid,
    symmetric_group,
)
from quinncalc.finalg.crossed import CrossedComplex, CrossedModulePresentation, validate_crossed_complex
from quinncalc.finalg.groupoids import groupoid_from_group
from quinncalc.finalg.groups import FinGroup
from quinncalc.homotopy import _compose_tables, _delta2
from quinncalc.io import crossed_complex_from_json, crossed_complex_to_json
from quinncalc.simpset import SimpSet, circle, prism, sphere, standard_simplex, torus
from tests import reference
from tests.conftest import abelian_tower, inversion_tower
from tests.test_colouring import CATALOG_SPACES, CORPUS_ALGEBRAS, _cylinder
from tests.test_io import _odd_names


def _outcome(walker, fixed=None):
    """Colourings (values in insertion order), keys and count, or the BoundaryError raised."""
    try:
        cols = walker.colourings(fixed)
        n = walker.count(fixed)
    except BoundaryError as exc:
        return "BoundaryError", str(exc)
    return [list(c.values.items()) for c in cols], [c.key() for c in cols], n


def _assert_same_walk(X, A, fixed=None):
    want = _outcome(reference.DictPlan(X, A), fixed)
    assert _outcome(Plan(X, A), fixed) == want
    return want


def _tests_run(plan):
    """The number of label tests in the plan's walk, counting a cell solved for its last face as one."""
    checks, _, _, solved = plan._schedule
    return sum(len(tests) for tests in checks) + len(solved)


def id_tower():
    """0: Z2 -> Z2 with Z2 on top mapped onto level 2 by the identity (truncation 3).

    pi_2 = Z2 / Z2 and pi_3 = ker(id) are trivial: the tests of 3-cells and of
    4-cells are vacuous, and those of 2-cells (pi_1 = Z2) are not.
    """
    z2 = cyclic_group(2)
    return CrossedComplex(
        iota1(z2).base,
        levels={2: {"*": z2}, 3: {"*": z2}},
        bdry={2: {("*", e): z2.unit for e in z2.elements}, 3: {("*", e): e for e in z2.elements}},
        act={n: {(("*", e), g): e for e in z2.elements for g in z2.elements} for n in (2, 3)},
        truncation=3,
    )


def pair_module():
    """Z2 at each object of the pair groupoid on two objects: zero boundary, trivial action."""
    z2, base = cyclic_group(2), pair_groupoid(2)
    return CrossedComplex(
        base,
        levels={2: {x: z2 for x in base.objects}},
        bdry={2: {(x, e): base.ident[x] for x in base.objects for e in z2.elements}},
        act={2: {((base.src[a], e), a): e for a in base.arrows for e in z2.elements}},
        truncation=2,
    )


def coset_module():
    """Z2 -> Z4 sending the generator to 2, trivial action: the boundary image is a proper,
    non-trivial subgroup, so two labels pass a 2-cell's test and a solved edge ranges over a coset."""
    z2, z4 = cyclic_group(2), cyclic_group(4)
    act = {(e, g): e for e in z2.elements for g in z4.elements}
    return iota2(CrossedModulePresentation(z4, z2, {e: 2 * e for e in z2.elements}, act))


def coset_tower():
    """Z2 -> Z4 at levels 3 -> 2, the generator to 2, over the trivial group (truncation 3).

    Two labels pass a 3-cell's test, so a solved 2-face ranges over a coset.
    """
    z2, z4 = cyclic_group(2), cyclic_group(4)
    base = groupoid_from_group(cyclic_group(1))
    one = base.arrows[0]
    return CrossedComplex(
        base,
        levels={2: {"*": z4}, 3: {"*": z2}},
        bdry={2: {("*", e): one for e in z4.elements}, 3: {("*", e): 2 * e for e in z2.elements}},
        act={2: {(("*", e), one): e for e in z4.elements}, 3: {(("*", e), one): e for e in z2.elements}},
        truncation=3,
    )


def dihedral_module():
    """D4 -> Z2 x Z2 with kernel the centre, Z2 x Z2 acting by conjugation with a lift.

    pi_2 = Z2 keeps the tests of 3-cells, so their last 2-face is solved in
    a nonabelian fibre, where the order of P^-1.t.S^-1 matters.
    """
    d4 = [(r, s) for s in range(2) for r in range(4)]

    def mul(a, b):
        return (a[0] + (-1) ** a[1] * b[0]) % 4, (a[1] + b[1]) % 2

    def inv(a):
        return next(b for b in d4 if mul(a, b) == (0, 0))

    v4 = [(a, b) for b in range(2) for a in range(2)]
    E = FinGroup(d4, {(a, b): mul(a, b) for a in d4 for b in d4})
    G = FinGroup(v4, {(g, h): ((g[0] + h[0]) % 2, (g[1] + h[1]) % 2) for g in v4 for h in v4})
    act = {(e, g): mul(mul(inv(g), e), g) for e in d4 for g in v4}
    return iota2(CrossedModulePresentation(G, E, {e: (e[0] % 2, e[1]) for e in d4}, act))


def rotation_module():
    """0: Z2 x Z2 -> Z3, with Z3 permuting the three involutions cyclically.

    An edge and its inverse act differently, so a solved twisted leading
    term must be acted on by the leading edge and not by its inverse.
    """
    z3 = cyclic_group(3)
    v4 = [(a, b) for b in range(2) for a in range(2)]
    E = FinGroup(v4, {(g, h): ((g[0] + h[0]) % 2, (g[1] + h[1]) % 2) for g in v4 for h in v4})

    def rotate(e, g):
        for _ in range(g):
            e = e[1], (e[0] + e[1]) % 2
        return e

    return iota2(crossed_module_zero(z3, E, {(e, g): rotate(e, g) for e in v4 for g in z3.elements}))


def reordered_simplex(n, key):
    """The n-simplex with the generators of each dimension declared in the order of `key`.

    In the n-simplex the face d0 of each cell is declared last, so it is
    the one solved; other orders reach the other terms of the word.
    """
    X = standard_simplex(n)
    gens = sorted(X.dim_of, key=lambda g: (X.dim_of[g], key(g)))
    return SimpSet({g: X.dim_of[g] for g in gens}, X.faces)


REORDERED_SIMPLICES = {
    # lexicographic order reversed: d2 of each 2-cell and d3 of each 3-cell come last
    "reversed-delta2": lambda: reordered_simplex(2, lambda g: [-i for i in g]),
    "reversed-delta3": lambda: reordered_simplex(3, lambda g: [-i for i in g]),
    "reversed-delta4": lambda: reordered_simplex(4, lambda g: [-i for i in g]),
    # the 3-cell's face d1 or d2 last, so P and S are both non-trivial
    "delta3-d1-last": lambda: reordered_simplex(3, lambda g: g == (0, 2, 3)),
    "delta3-d2-last": lambda: reordered_simplex(3, lambda g: g == (0, 1, 3)),
}


def _tower_file(tower):
    """The tower as the CLI reads it from a crossed-complex file."""
    return crossed_complex_from_json(crossed_complex_to_json(tower))


def test_the_hand_built_complexes_validate():
    hand_built = (id_tower, pair_module, coset_module, coset_tower, dihedral_module, rotation_module)
    for A in (build() for build in hand_built):
        assert validate_crossed_complex(A)


@pytest.mark.parametrize(
    "space, algebra", [(space, algebra) for space in CATALOG_SPACES for algebra in CORPUS_ALGEBRAS]
)
def test_index_walk_matches_dict_walk_on_catalog(space, algebra):
    _assert_same_walk(CATALOG_SPACES[space](), CORPUS_ALGEBRAS[algebra]())


@pytest.mark.parametrize("n", range(4))
def test_index_walk_matches_dict_walk_on_simplices_with_id_s3(n):
    A = iota2(crossed_module_identity(symmetric_group(3)))
    _, _, count = _assert_same_walk(standard_simplex(n), A)
    assert count == 6 ** (n * (n + 1) // 2)  # the edges are coloured freely


@pytest.mark.parametrize(
    "tower, space",
    [
        (tower, space)
        for tower in (abelian_tower, inversion_tower, id_tower, coset_tower)
        for space in ("delta3", "delta4", *REORDERED_SIMPLICES, "sphere3", "torus")
        # the 4-simplex with the inversion tower has about 10^6 colourings (80 s in the
        # dict walk), with the coset tower 65 536 (8 s); the reordered one solves new
        # terms only with the abelian tower, whose 4-cells are tested
        if not space.endswith("delta4")
        or (tower, space)
        in {(abelian_tower, "delta4"), (id_tower, "delta4"), (abelian_tower, "reversed-delta4")}
    ],
)
def test_index_walk_matches_dict_walk_on_towers(tower, space):
    X = {
        "delta3": lambda: standard_simplex(3),
        "delta4": lambda: standard_simplex(4),
        **REORDERED_SIMPLICES,
        "sphere3": lambda: sphere(3),
        "torus": torus,
    }[space]()
    _assert_same_walk(X, _tower_file(tower()))


SOLVED_SPACES = {**CATALOG_SPACES, **REORDERED_SIMPLICES}
THREE_CELLS = ("delta3", "reversed-delta3", "delta3-d1-last", "delta3-d2-last")


@pytest.mark.parametrize(
    "algebra, space",
    [(coset_module, s) for s in SOLVED_SPACES if s not in ("prism-torus", "reversed-delta4")]
    # where the last face is d1 or d2, P and S are both non-trivial in a nonabelian fibre
    + [(dihedral_module, s)
       for s in ("torus", "delta2", "prism-circle", "delta3-d1-last", "delta3-d2-last")]
    + [(rotation_module, s) for s in ("torus", *THREE_CELLS)],
)
def test_index_walk_matches_dict_walk_on_solved_cosets_and_nonabelian_fibres(algebra, space):
    _assert_same_walk(SOLVED_SPACES[space](), algebra())


@pytest.mark.parametrize(
    "algebra, space, levels, coset",
    [
        (coset_module, "delta3", {1}, True),
        (dihedral_module, "delta3-d1-last", {2}, False),
        (abelian_tower, "reversed-delta4", {1, 2, 3}, False),
        (coset_tower, "delta3", {2}, True),
    ],
)
def test_the_oracle_cases_reach_solved_slots(algebra, space, levels, coset):
    """Solved slots at each level, forced (one passing label) or ranging over a coset."""
    X = SOLVED_SPACES[space]()
    plan = Plan(X, _tower_file(algebra()) if algebra in (abelian_tower, coset_tower) else algebra())
    _, _, forced, solved = plan._schedule
    assert {X.dim_of[plan.slots[pos]] for pos in solved} == levels
    assert all((forced[pos] is None) == coset for pos in solved)


def test_a_face_that_repeats_in_its_cell_keeps_its_test():
    """The 2-cell of `_odd_names` has all three faces on one edge, so that edge is not solved."""
    X, A = _odd_names()
    checks, _, _, solved = Plan(X, A)._schedule
    assert not solved and sum(map(len, checks)) == 1
    _, _, count = _assert_same_walk(X, A)
    # the loop's label a.a.a^-1 = a must be 1; the other edge and the 2-cell take any of 3 values
    assert count == 9


def test_index_walk_matches_dict_walk_on_a_stratification():
    M = prism(circle())
    for A in CORPUS_ALGEBRAS.values():
        A = A()
        _assert_same_walk(M, A)
        f = Plan(M.simpset.restrict(M.tagged("in")), A).colourings()[-1]
        _assert_same_walk(M, A, dict(f.values))


@pytest.mark.parametrize(
    "space, algebra",
    [(space, algebra) for space in ("prism-circle", "double-cylinder") for algebra in CORPUS_ALGEBRAS],
)
def test_index_walk_matches_dict_walk_on_boundary_pairs(space, algebra):
    M, A = _cylinder(space), CORPUS_ALGEBRAS[algebra]()
    X = M.simpset
    plan, old = Plan(X, A), reference.DictPlan(X, A)
    ins = Plan(X.restrict(M.tagged("in")), A).colourings()
    outs = Plan(X.restrict(M.tagged("out")), A).colourings()
    for f in ins:
        for fp in outs:
            fixed = {**f.values, **fp.values}
            assert _outcome(plan, fixed) == _outcome(old, fixed)


ALGEBRAS = {**CORPUS_ALGEBRAS, "id:S3": lambda: iota2(crossed_module_identity(symmetric_group(3))),
            "pair-module": pair_module, "coset-module": coset_module,
            "coset-tower": lambda: _tower_file(coset_tower())}


@lru_cache(maxsize=None)
def _random_case(space, algebra):
    X, A = SOLVED_SPACES[space](), ALGEBRAS[algebra]()
    plan = Plan(X, A)
    return X, A, plan, reference.DictPlan(X, A), plan.colourings()


@settings(max_examples=120, deadline=None)
@given(
    space=st.sampled_from(
        ["circle", "torus", "sphere2", "delta2", "delta3", "delta3-d2-last", "prism-circle"]
    ),
    algebra=st.sampled_from(list(ALGEBRAS)),
    data=st.data(),
)
def test_index_walk_matches_dict_walk_on_random_fixed_values(space, algebra, data):
    """Random partial data, some of it a value A lacks or a level-2 element over the wrong object."""
    X, A, plan, old, colourings = _random_case(space, algebra)
    c = data.draw(st.sampled_from(colourings), label="colouring")
    pinned = data.draw(st.sets(st.sampled_from(sorted(c.values, key=X.gen_index))), label="pinned")
    fixed = {g: c.values[g] for g in sorted(pinned, key=X.gen_index)}
    edges = [g for g in fixed if X.dim_of[g] == 1]
    if edges and data.draw(st.booleans(), label="unknown arrow"):
        fixed[data.draw(st.sampled_from(edges), label="edge")] = "no such arrow"
    cells = [g for g in fixed if X.dim_of[g] == 2 and A.truncation >= 2]
    if cells and len(A.objects) > 1 and data.draw(st.booleans(), label="wrong fibre"):
        g = data.draw(st.sampled_from(cells), label="cell")
        x, e = fixed[g]
        fixed[g] = (next(y for y in A.objects if y != x), e)
    assert _outcome(plan, fixed) == _outcome(old, fixed)
    for n in range(2, X.dim + 1):
        for g in X.gens(n):
            assert plan.label[g](c.values) == old.label[g](c.values)


def test_a_level_2_value_over_the_wrong_object_fits_no_colouring():
    """Fibre indices alone agree across objects; the pinned value's object must be checked."""
    X, A = standard_simplex(2), pair_module()
    c = Plan(X, A).colourings()[0]
    g = X.gens(2)[0]
    x, e = c.values[g]
    other = next(y for y in A.objects if y != x)
    partial = {X.initial_vertex(g): x, g: (other, e)}
    assert Plan(X, A).count(partial) == reference.DictPlan(X, A).count(partial) == 0
    full = {**c.values, g: (other, e)}
    for walker in (Plan(X, A), reference.DictPlan(X, A)):
        with pytest.raises(BoundaryError, match="violates its boundary condition"):
            walker.count(full)


def test_a_level_2_value_that_a_lacks_gives_no_colouring_and_no_key_error():
    X, A = standard_simplex(2), pair_module()
    c = Plan(X, A).colourings()[0]
    g, x = X.gens(2)[0], c.values[X.gens(0)[0]]
    assert Plan(X, A).count({g: (x, "no such element")}) == 0
    with pytest.raises(BoundaryError, match="violates its boundary condition"):
        Plan(X, A).count({**c.values, g: (x, "no such element")})


@pytest.mark.parametrize(
    "algebra, space, tests",
    [
        # pi_1 of id:G is trivial and ker(id) = 1: no test of 2- or 3-cells
        (lambda: iota2(crossed_module_identity(cyclic_group(2))), lambda: standard_simplex(3), 0),
        (lambda: iota2(crossed_module_identity(symmetric_group(3))), lambda: standard_simplex(2), 0),
        (lambda: iota2(crossed_module_identity(symmetric_group(3))), torus, 0),
        # trivial vertex groups: the identity test of 2-cells just above truncation 1
        (lambda: iota1(pair_groupoid(2)), lambda: standard_simplex(3), 0),
        # pi_1 = Z2 keeps the tests of the four 2-cells of the 3-simplex
        (lambda: iota1(cyclic_group(2)), lambda: standard_simplex(3), 4),
        # the id tower keeps the ten 2-cell tests of the 4-simplex and drops the
        # 3-cell (pi_2 = 1) and 4-cell (ker id = 1) tests; the abelian tower keeps all
        (id_tower, lambda: standard_simplex(4), 10),
        (abelian_tower, lambda: standard_simplex(4), 10 + 5 + 1),
    ],
)
def test_vacuous_label_tests_are_left_out(algebra, space, tests):
    X, A = space(), algebra()
    plan = Plan(X, A)
    assert _tests_run(plan) == tests
    _assert_same_walk(X, A)


def test_plans_that_do_not_walk_build_no_walk_tables():
    X, A = torus(), iota2(crossed_module_identity(symmetric_group(3)))
    c = Plan(X, A).colourings()[0]
    plan = Plan(X, A)
    assert plan.label[X.gens(2)[0]](c.values) == reference.boundary_label(X, A, c.values, X.gens(2)[0])
    _compose_tables(plan), _delta2(plan), plan.moves.everywhere
    assert not set(vars(plan)) & {"_schedule", "_preimage", "_decode", "faces"}
