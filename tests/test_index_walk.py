"""`Plan`'s walk on value indices against the walk on values (`reference.DictPlan`).

Both must give the same colourings, in the same order, with the same keys
and counts, and the same `BoundaryError` for fixed values no colouring
extends.  `DictPlan` runs every label test; `Plan` leaves out the tests that
exactness makes vacuous, so the towers and crossed modules below cover each
rule that drops one.
"""
from functools import lru_cache
from math import prod

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


# -- the top level counted by its normal form --------------------------------------------


def _counts(walker, fixed=None, count=True):
    """`count(fixed)` or the walk's own count (`walk(None, fixed)`), or the BoundaryError raised."""
    try:
        return walker.count(fixed) if count else walker.walk(None, fixed)
    except BoundaryError as exc:
        return "BoundaryError", str(exc)


def _assert_same_count(X, A, fixed=None):
    """`Plan.count` == `Plan.walk(None, ...)` == `reference.DictPlan.count`, on one fresh plan each."""
    plan = Plan(X, A)
    n = _counts(plan, fixed)
    assert n == _counts(Plan(X, A), fixed, count=False) == _counts(reference.DictPlan(X, A), fixed)
    assert _counts(plan, fixed) == n  # again, from the compiled pins and the cached form
    return n


def zero_z4_z4():
    """0: Z4 -> Z4 with trivial action: K = Z4 at level 2, so a 3-cell asks a sum in Z4 to vanish."""
    return iota2(crossed_module_zero(cyclic_group(4), cyclic_group(4)))


TOP_ALGEBRAS = {
    **CORPUS_ALGEBRAS,
    "0:Z4->Z4": zero_z4_z4,
    "coset-module": coset_module,
    "dihedral-module": dihedral_module,
    "rotation-module": rotation_module,
    "pair-module": pair_module,
}


# the spheres of dimension 3 and 4 have no 2-cells: a truncation-2 top level is empty
TOP_SPACES = {**CATALOG_SPACES, "sphere3": lambda: sphere(3), "sphere4": lambda: sphere(4)}


@pytest.mark.parametrize(
    "space, algebra",
    [
        (space, algebra)
        for space in TOP_SPACES
        for algebra in TOP_ALGEBRAS
        # the dict walk takes seconds on these; the catalog test covers the corpus there
        if space != "prism-torus" or algebra in ("0:Z2->Z4", "id:Z2", "coset-module")
    ],
)
def test_top_level_count_matches_the_walks_on_catalog(space, algebra):
    _assert_same_count(TOP_SPACES[space](), TOP_ALGEBRAS[algebra]())


@pytest.mark.parametrize(
    "tower, space",
    [
        (tower, space)
        for tower in (abelian_tower, inversion_tower, coset_tower)
        for space in ("delta3", "reversed-delta3", "delta3-d1-last", "sphere3", "torus", "prism-circle")
    ]
    + [(abelian_tower, "delta4"), (abelian_tower, "reversed-delta4")],
)
def test_top_level_count_matches_the_walks_on_towers(tower, space):
    X = {
        "delta4": lambda: standard_simplex(4),
        **REORDERED_SIMPLICES,
        "delta3": lambda: standard_simplex(3),
        "sphere3": lambda: sphere(3),
        "torus": torus,
        "prism-circle": lambda: prism(circle()).simpset,
    }[space]()
    _assert_same_count(X, _tower_file(tower()))


@pytest.mark.parametrize("order", ["delta4", "reversed-delta4"])
@pytest.mark.parametrize("potential", [(0, 1, 0, 1, 1), (0, 0, 1, 1, 0), (0, 0, 0, 0, 0)])
def test_top_level_count_follows_the_twist_of_the_inversion_tower(order, potential):
    """Level 3 of the 4-simplex under Z2 acting on Z3 by inversion.

    The edges are pinned to the flat connection of a vertex potential and
    the 2-cells to the unit, so the walks range over the 3-cells only.  Where
    the potential differs on a 4-cell's first two vertices, its leading
    edge inverts the leading term of the 4-cell's label.
    """
    X = standard_simplex(4) if order == "delta4" else REORDERED_SIMPLICES[order]()
    A = _tower_file(inversion_tower())
    fixed = {}
    for g in X.all_gens():
        d = X.dim_of[g]
        if d == 0:
            fixed[g] = "*"
        elif d == 1:
            s, t = X.edge_ends(g)
            fixed[g] = A.base.arrows[(potential[t[0]] - potential[s[0]]) % 2]
        elif d == 2:
            fixed[g] = ("*", A.fibre(2, "*").unit)
    assert _assert_same_count(X, A, fixed) > 0
    three = X.gens(3)
    for k, values in enumerate([(1, 2, 0, 0, 1), (2, 2, 2, 2, 2), (1, 0, 0, 0, 0)]):
        pinned = {g: ("*", A.fibre(3, "*").elements[e]) for g, e in zip(three[: k + 2], values)}
        _assert_same_count(X, A, {**fixed, **pinned})


@pytest.mark.parametrize("space", ["prism-circle", "double-cylinder"])
@pytest.mark.parametrize("algebra", ["0:Z4->Z4", "rotation-module", "dihedral-module", "pair-module"])
def test_top_level_count_matches_the_walks_on_boundary_pairs(space, algebra):
    """Every (in, out) pair; under 0: Z4 -> Z4 most of them admit no filling."""
    M, A = _cylinder(space), TOP_ALGEBRAS[algebra]()
    X = M.simpset
    plan, walker, old = Plan(X, A), Plan(X, A), reference.DictPlan(X, A)
    ins = Plan(X.restrict(M.tagged("in")), A).colourings()
    outs = Plan(X.restrict(M.tagged("out")), A).colourings()
    counts = []
    for f in ins:
        for fp in outs:
            fixed = {**f.values, **fp.values}
            n = _counts(plan, fixed)
            assert n == _counts(walker, fixed, count=False) == _counts(old, fixed)
            counts.append(n)
    if algebra == "0:Z4->Z4":
        assert 0 < counts.count(0) and 2 * counts.count(0) > len(counts)


def _glued_simplices(n):
    """Two n-simplices of the (n+1)-simplex on one shared face, (1, ..., n).

    The shared face is the leading face of (0, ..., n), acted on by the
    value of the edge (0, 1), and the last face of (1, ..., n + 1), of sign
    (-1)^n; so the image of the top-level system depends on the twist and
    on the signs, unlike a system where each cell has a free face of its own.
    """
    X = standard_simplex(n + 1)
    return X.restrict(X.subcomplex_closure({tuple(range(n + 1)), tuple(range(1, n + 2))}))


def _flat_edges(X, A, potential):
    """The edges of X coloured by the differences of a vertex potential in a cyclic base group."""
    order = len(A.base.arrows)
    return {
        g: A.base.arrows[(potential[X.edge_ends(g)[1][0]] - potential[X.edge_ends(g)[0][0]]) % order]
        for g in X.gens(1)
    }


@pytest.mark.parametrize("algebra", ["rotation-module", "0:Z4->Z4"])
@pytest.mark.parametrize("potential", [(0, 1, 2, 0, 1), (0, 0, 1, 1, 2), (0, 2, 2, 1, 0)])
def test_top_level_count_on_a_face_shared_by_two_cells(algebra, potential):
    """The shared 2-face is the one free slot, or one of two; with the edges pinned, and
    with the edges free so that the twist changes from leaf to leaf."""
    X, A = _glued_simplices(3), TOP_ALGEBRAS[algebra]()
    shared = (1, 2, 3)
    potential = [k % len(A.base.arrows) for k in potential]
    edges = _flat_edges(X, A, potential)
    colourings = Plan(X, A).colourings(edges)
    assert colourings
    for c in colourings[:: max(1, len(colourings) // 6)]:
        cells = {g: c.values[g] for g in X.gens(2) if g != shared}
        assert _assert_same_count(X, A, {**edges, **cells}) == 1
        _assert_same_count(X, A, cells)
        other = {g: v for g, v in cells.items() if g != (0, 1, 2)}
        _assert_same_count(X, A, {**edges, **other})
        _assert_same_count(X, A, other)


@pytest.mark.parametrize("potential", [(0, 1, 0, 1, 1, 0), (0, 0, 1, 1, 0, 1)])
def test_top_level_count_on_a_3_face_shared_by_two_4_cells(potential):
    """The same at level 3, under the inversion tower: the 2-cells are pinned to the unit."""
    X, A = _glued_simplices(4), _tower_file(inversion_tower())
    shared = (1, 2, 3, 4)
    edges = _flat_edges(X, A, potential)
    units = {g: ("*", A.fibre(2, "*").unit) for g in X.gens(2)}
    colourings = Plan(X, A).colourings({**edges, **units})
    for c in colourings[:: len(colourings) // 5]:
        cells = {g: c.values[g] for g in X.gens(3) if g != shared}
        assert _assert_same_count(X, A, {**edges, **units, **cells}) == 1
        _assert_same_count(X, A, {**units, **cells})
        other = dict(list(cells.items())[1:])
        _assert_same_count(X, A, {**units, **other})


def test_fixed_values_are_checked_lowest_dimension_first():
    """A 2-cell given before its unknown edge value: the edge is named, and no label is
    evaluated on a value A lacks."""
    X, A = standard_simplex(2), zero_z4_z4()
    c = Plan(X, A).colourings()[7]
    g, edge = X.gens(2)[0], X.gens(1)[0]
    fixed = {g: c.values[g], **c.values}
    fixed[edge] = "no such arrow"
    with pytest.raises(BoundaryError) as exc:
        Plan(X, A).count(fixed)
    assert str(exc.value) == f"edge value at {edge!r} has wrong endpoints"


def test_the_oracle_checks_fixed_values_lowest_dimension_first():
    """`reference.DictPlan` names the unknown edge as `Plan` does, and raises no `KeyError`
    from the label of the 2-cell given before it."""
    X, A = standard_simplex(2), zero_z4_z4()
    c = Plan(X, A).colourings()[7]
    g, edge = X.gens(2)[0], X.gens(1)[0]
    fixed = {g: c.values[g], **c.values}
    fixed[edge] = "no such arrow"
    want = "BoundaryError", f"edge value at {edge!r} has wrong endpoints"
    assert _outcome(reference.DictPlan(X, A), fixed) == _outcome(Plan(X, A), fixed) == want


TOP_RANDOM = {
    "0:Z4->Z4": zero_z4_z4,
    "coset-module": coset_module,
    "rotation-module": rotation_module,
    "pair-module": pair_module,
    "coset-tower": lambda: _tower_file(coset_tower()),
    "abelian-tower": lambda: _tower_file(abelian_tower()),
}


@lru_cache(maxsize=None)
def _random_top_case(space, algebra):
    X, A = SOLVED_SPACES[space](), TOP_RANDOM[algebra]()
    return X, A, Plan(X, A).colourings()


@settings(max_examples=80, deadline=None)
@given(
    space=st.sampled_from(["delta3", "delta3-d1-last", "delta3-d2-last", "torus"]),
    algebra=st.sampled_from(list(TOP_RANDOM)),
    data=st.data(),
)
def test_top_level_count_matches_the_walks_on_random_pins(space, algebra, data):
    """Random pinned subsets of a colouring; a pinned top value may move off its coset.

    The pins are given in generator order and again in a shuffled order, in
    which both walks check them lowest dimension first.
    """
    X, A, colourings = _random_top_case(space, algebra)
    c = data.draw(st.sampled_from(colourings), label="colouring")
    pinned = data.draw(st.sets(st.sampled_from(sorted(c.values, key=X.gen_index))), label="pinned")
    fixed = {g: c.values[g] for g in sorted(pinned, key=X.gen_index)}
    top = min(X.dim, A.truncation)
    cells = [g for g in fixed if X.dim_of[g] == top]
    if cells and data.draw(st.booleans(), label="moved"):
        g = data.draw(st.sampled_from(cells), label="cell")
        x, e = fixed[g]
        fixed[g] = x, data.draw(st.sampled_from(A.fibre(top, x).elements), label="element")
    n = _assert_same_count(X, A, fixed)
    shuffled = {g: fixed[g] for g in data.draw(st.permutations(list(fixed)), label="order")}
    assert _counts(Plan(X, A), shuffled) == _counts(reference.DictPlan(X, A), shuffled) == n


def test_a_top_value_off_its_coset_counts_no_colouring():
    """The edges and one 2-cell of a 3-simplex are pinned, the 2-cell to a value whose
    boundary is not its label: no colouring extends it, and with its vertices pinned as
    well the fixed values fail their check."""
    X, A = standard_simplex(3), dihedral_module()
    c = Plan(X, A).colourings()[5]
    g = X.gens(2)[0]
    x, e = c.values[g]
    off = next(h for h in A.fibre(2, x).elements if A.bdry_of(2, (x, h)) != A.bdry_of(2, (x, e)))
    edges = {a: c.values[a] for a in X.gens(1)}
    assert _assert_same_count(X, A, {**edges, g: (x, e)}) > 0
    assert _assert_same_count(X, A, {**edges, g: (x, off)}) == 0
    vertices = {u: c.values[u] for u in X.gens(0)}
    assert _assert_same_count(X, A, {**vertices, **edges, g: (x, off)}) == (
        "BoundaryError",
        f"value at {g!r} violates its boundary condition",
    )


def test_cyclic_basis_writes_each_kernel_as_a_sum_of_cyclic_groups():
    from quinncalc.colouring import _cyclic_basis

    def assert_basis(K, mul, gens, orders, coords):
        """coords is a bijection from K onto the product of the Z/orders, and a homomorphism."""
        assert sorted(coords) == sorted(K) and len(set(coords.values())) == len(K) == prod(orders)
        for a in K:
            for b in K:
                total = tuple((x + y) % d for x, y, d in zip(coords[a], coords[b], orders))
                assert coords[mul[a][b]] == total
        for g, c in zip(gens, ([int(i == j) for i in range(len(gens))] for j in range(len(gens)))):
            assert list(coords[g]) == c

    for A in (zero_z4_z4(), rotation_module(), dihedral_module(), _tower_file(abelian_tower())):
        plan = Plan(standard_simplex(3), A)
        n = plan._last_level
        for x, (gens, orders, coords) in enumerate(plan._top.kernel):
            assert_basis(list(coords), plan._ops.mul[n][x], gens, orders, coords)
    # Z2 x Z4 listed so that the first element of order 2 modulo <(0, 1)> is (1, 1),
    # whose square (0, 2) must be taken off to give a generator of order 2
    els = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 0), (1, 2), (1, 3)]
    mul = [[els.index(((a + c) % 2, (b + d) % 4)) for c, d in els] for a, b in els]
    inv = [els.index(((-a) % 2, (-b) % 4)) for a, b in els]
    gens, orders, coords = _cyclic_basis(list(range(8)), mul, inv, 0)
    assert orders == [4, 2]
    assert_basis(list(range(8)), mul, gens, orders, coords)


def test_hermite_form_counts_the_solutions_of_small_systems():
    """Against counting every k: the number of k with M.k = b over Z/d, for all b."""
    from itertools import product as tuples

    from quinncalc.colouring import _hermite

    cases = [
        ([[1, 1], [0, 2]], [4, 4], [4, 4]),  # columns over Z/4 x Z/4
        ([[2, 0], [0, 2]], [4, 2], [2, 4]),
        ([[1, 0, 1], [1, 1, 0]], [2, 2, 2], [2, 2]),
        ([[3, 1], [2, 2], [3, 0]], [6, 3], [6, 3, 2]),
    ]
    for columns, moduli, orders in cases:
        rows = len(moduli)
        pivots = _hermite([list(col) for col in columns], moduli)
        solutions = {}
        for k in tuples(*(range(d) for d in orders)):
            b = tuple(sum(kc * col[i] for kc, col in zip(k, columns)) % moduli[i] for i in range(rows))
            solutions[b] = solutions.get(b, 0) + 1
        image = len(solutions)
        assert prod(moduli) // prod(g for _, g, _ in pivots) == image
        for b0 in tuples(*(range(d) for d in moduli)):
            b, inside = list(b0), True
            for i, (d, g, below) in enumerate(pivots):
                bi = b[i] % d
                if bi % g:
                    inside = False
                    break
                for j, h in below:
                    b[j] -= bi // g * h
            assert inside == (b0 in solutions)
