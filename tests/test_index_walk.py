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
    cyclic_group,
    iota1,
    iota2,
    pair_groupoid,
    symmetric_group,
)
from quinncalc.finalg.crossed import CrossedComplex, validate_crossed_complex
from quinncalc.homotopy import _compose_tables, _delta2
from quinncalc.io import crossed_complex_from_json, crossed_complex_to_json
from quinncalc.simpset import circle, prism, sphere, standard_simplex, torus
from tests import reference
from tests.conftest import abelian_tower, inversion_tower
from tests.test_colouring import CATALOG_SPACES, CORPUS_ALGEBRAS, _cylinder


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
    """The number of label tests in the plan's walk."""
    return sum(len(tests) for tests in plan._schedule[0])


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


def _tower_file(tower):
    """The tower as the CLI reads it from a crossed-complex file."""
    return crossed_complex_from_json(crossed_complex_to_json(tower))


def test_the_hand_built_complexes_validate():
    for A in (id_tower(), pair_module()):
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
        for tower in (abelian_tower, inversion_tower, id_tower)
        for space in ("delta3", "delta4", "sphere3", "torus")
        # about 10^6 colourings, 80 s in the dict walk
        if (tower, space) != (inversion_tower, "delta4")
    ],
)
def test_index_walk_matches_dict_walk_on_towers(tower, space):
    X = {
        "delta3": lambda: standard_simplex(3),
        "delta4": lambda: standard_simplex(4),
        "sphere3": lambda: sphere(3),
        "torus": torus,
    }[space]()
    _assert_same_walk(X, _tower_file(tower()))


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
            "pair-module": pair_module}


@lru_cache(maxsize=None)
def _random_case(space, algebra):
    X, A = CATALOG_SPACES[space](), ALGEBRAS[algebra]()
    plan = Plan(X, A)
    return X, A, plan, reference.DictPlan(X, A), plan.colourings()


@settings(max_examples=120, deadline=None)
@given(
    space=st.sampled_from(["circle", "torus", "sphere2", "delta2", "delta3", "prism-circle"]),
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
