"""Profunctor transports, relative classes and naturality from generators, against the old paths.

`cobordism_profunctor` evaluates transports only along the generators of
each boundary groupoid, on key vectors, and fills every other arrow by
composing them; `rel_classes` moves filling keys by list lookups;
`NatTransform.naturality_check` tests only the squares of generators;
`compose_profunctors` links coend nodes only along the generators of the
middle groupoid.  `tests/reference.py` keeps the paths these replace: one
`holonomy_act` per (arrow, basis element), moves through dicts of values,
every pair of arrows, and links along every middle arrow.
"""
from fractions import Fraction
from types import SimpleNamespace

import pytest

import quinncalc.extprof
from quinncalc.colouring import Plan
from quinncalc.extprof import (
    NatTransform,
    Profunctor,
    _frames,
    cobordism_profunctor,
    compose_profunctors,
    identity_profunctor,
    reverse_profunctor,
    window_nat_transform,
)
from quinncalc.finalg import cyclic_group, iota1, pair_groupoid, symmetric_group
from quinncalc.finalg.groupoids import action_groupoid, groupoid_from_group
from quinncalc.homotopy import crs_pi1, rel_classes
from quinncalc.morita import lin2_bimodule
from quinncalc.simpset import Stratification, circle, point, prism, torus, window_support
from tests import reference
from tests.test_colouring import CORPUS_ALGEBRAS, _cylinder
from tests.test_homotopy import NON_REDUCED, _keys, _permutation_groupoid
from tests.test_index_walk import pair_module


def _prism_circle_keeping(keep):
    """prism(circle()) with each tag cut down to the generators g for which keep(tag, dim g)."""
    M = prism(circle())
    dim = M.simpset.dim_of
    return Stratification(
        M.simpset, {k: {g for g in gens if keep(k, dim[g])} for k, gens in M.tags.items()}
    )


# the corpus, a two-object crossed module, two groupoids with several objects, and one with
# two components, over which some boundary pairs have no filling whenever both ends have a vertex
ALGEBRAS = {
    **CORPUS_ALGEBRAS,
    "pair-module": pair_module,
    **NON_REDUCED,
    "two-components": lambda: iota1(action_groupoid(cyclic_group(2), (0, 1), lambda g, x: x)),
}
# the last three retag prism-circle: no out boundary, an out vertex only, and no boundary
COBORDISMS = {
    "prism-point": lambda: prism(point()),
    "prism-circle": lambda: prism(circle()),
    "double-cylinder": lambda: _cylinder("double-cylinder"),
    "prism-circle-out-empty": lambda: _prism_circle_keeping(lambda tag, d: tag == "in"),
    "prism-circle-out-vertex": lambda: _prism_circle_keeping(lambda tag, d: tag == "in" or d == 0),
    "prism-circle-untagged": lambda: _prism_circle_keeping(lambda tag, d: False),
}
WINDOWS = {
    "point": lambda: window_support(prism(point()), prism(point())),
    "circle": lambda: window_support(prism(circle()), prism(circle())),
}


GROUPOIDS = {
    "S3": lambda: groupoid_from_group(symmetric_group(3)),
    "I(3)": lambda: pair_groupoid(3),
    "S3-on-3-points": _permutation_groupoid,
    "circle-s3": lambda: crs_pi1(circle(), CORPUS_ALGEBRAS["s3"]()).groupoid,
    "prism-circle-0:Z2->Z2": lambda: crs_pi1(
        prism(circle()).simpset, CORPUS_ALGEBRAS["0:Z2->Z2"]()
    ).groupoid,
}


@pytest.mark.parametrize("name", list(GROUPOIDS))
def test_groupoid_generators_reach_every_arrow(name):
    """Composites of the generators and their inverses, from the identities, are every arrow;
    per component there is one tree arrow for each object but the least."""
    G = GROUPOIDS[name]()
    steps = [*G.generators, *(G.inv(g) for g in G.generators)]
    reached = {G.ident[x] for x in G.objects}
    frontier = list(reached)
    while frontier:
        new = []
        for a in frontier:
            for g in steps:
                if G.tgt[g] == G.src[a] and G.comp(g, a) not in reached:
                    reached.add(G.comp(g, a))
                    new.append(G.comp(g, a))
        frontier = new
    assert reached == set(G.arrows)
    trees = [g for g in G.generators if G.src[g] != G.tgt[g]]
    assert len(trees) == len(G.objects) - len(G.components())


def _items(d):
    return list(d.items())


def _same_profunctor(got, want):
    """Equal bases, sizes, representatives and actions, in insertion order; the actions
    of `got` are flattened arrow by arrow to the oracle's (arrow, element) pairs."""
    assert _items(got.basis) == _items(want.basis)
    assert _items(got.sizes) == _items(want.sizes)
    assert [(b, r.values) for b, r in got.reps.items()] == [
        (b, r.values) for b, r in want.reps.items()
    ]
    flat = reference.pair_keyed(got)
    assert _items(flat.lact) == _items(want.lact)
    assert _items(flat.ract) == _items(want.ract)


@pytest.mark.parametrize("algebra", list(ALGEBRAS))
@pytest.mark.parametrize("cobordism", list(COBORDISMS))
def test_profunctor_matches_the_per_arrow_oracle(cobordism, algebra, monkeypatch):
    """Transports by generators and composition give the per-arrow actions.

    Only generators are evaluated: one move per (generator, basis element
    over its target), not per (arrow, basis element).
    """
    M, A = COBORDISMS[cobordism](), ALGEBRAS[algebra]()
    moves = []

    def counted(crs, plan, *rest):
        def mover(positions):
            move = plan.moves.mover(positions)
            return lambda key, h: moves.append(None) or move(key, h)

        counting = SimpleNamespace(X=plan.X, moves=SimpleNamespace(mover=mover))
        return real_transports(crs, counting, *rest)

    real_transports = quinncalc.extprof._transports
    monkeypatch.setattr(quinncalc.extprof, "_transports", counted)
    got = cobordism_profunctor(M, A)
    monkeypatch.undo()
    _same_profunctor(got, reference.cobordism_profunctor(M, A))
    assert got.check_functorial()
    GL, GR = got.left.groupoid, got.right.groupoid
    per_generator = sum(got.dim(GL.tgt[g], y) for g in GL.generators for y in GR.objects)
    per_generator += sum(got.dim(x, GR.tgt[h]) for h in GR.generators for x in GL.objects)
    assert len(moves) == per_generator
    entries = reference.pair_keyed(got)
    assert len(moves) <= len(entries.lact) + len(entries.ract)


CYLINDERS = {
    "prism-point": lambda: prism(point()),
    "prism-circle": lambda: prism(circle()),
    "prism-torus": lambda: prism(torus()),
    "double-cylinder": lambda: _cylinder("double-cylinder"),
}


@pytest.mark.parametrize(
    "cylinder, algebra",
    # the all-arrow oracle takes about 5.5 s on prism-torus x 0:Z2->Z4
    [(c, a) for c in CYLINDERS for a in CORPUS_ALGEBRAS if (c, a) != ("prism-torus", "0:Z2->Z4")],
)
def test_coend_along_generators_matches_the_all_arrow_oracle(cylinder, algebra):
    """Links along the generators of the middle groupoid give the classes, in the same
    order, with the same members and representatives and the same actions, as links
    along every middle arrow."""
    P = cobordism_profunctor(CYLINDERS[cylinder](), CORPUS_ALGEBRAS[algebra]())
    got = compose_profunctors(P, P)
    flat = reference.pair_keyed(P)
    want = reference.compose_profunctors(flat, flat)
    assert _items(got.basis) == _items(want.basis)
    assert _items(got.reps) == _items(want.reps)
    assert _items(got.members) == _items(want.members)
    got = reference.pair_keyed(got)
    assert (got.lact, got.ract) == (want.lact, want.ract)


def _assert_one_map_per_arrow(P):
    """lact[g] maps the elements over (tgt g, .) one to one onto those over (src g, .), and
    ract[h] those over (., src h) onto those over (., tgt h), for every arrow with an element
    over its end."""
    for act, G, side, start, end in (
        (P.lact, P.left.groupoid, 0, P.left.groupoid.tgt, P.left.groupoid.src),
        (P.ract, P.right.groupoid, 1, P.right.groupoid.src, P.right.groupoid.tgt),
    ):
        over = {x: set() for x in G.objects}
        for pair, els in P.basis.items():
            over[pair[side]].update(els)
        for a in G.arrows:
            if over[start[a]]:
                assert set(act[a]) == over[start[a]]
                assert set(act[a].values()) == over[end[a]] and len(over[end[a]]) == len(act[a])


@pytest.mark.parametrize("algebra", ["s3", "0:Z2->Z2"])
@pytest.mark.parametrize("cylinder", ["prism-point", "prism-circle", "prism-torus"])
def test_actions_are_one_map_per_arrow(cylinder, algebra):
    """The cobordism, identity, coend and reverse profunctors hold one map of basis elements
    per arrow, and reversing twice gives back the maps."""
    P = cobordism_profunctor(CYLINDERS[cylinder](), CORPUS_ALGEBRAS[algebra]())
    for Q in (P, identity_profunctor(P.left), compose_profunctors(P, P), reverse_profunctor(P)):
        _assert_one_map_per_arrow(Q)
        assert Q.check_functorial()
    twice = reverse_profunctor(reverse_profunctor(P))
    assert (twice.basis, twice.lact, twice.ract) == (P.basis, P.lact, P.ract)


@pytest.mark.parametrize("cylinder", ["prism-point", "prism-circle"])
def test_empty_action_profunctor_reads_no_arrow_map(cylinder):
    """A profunctor with no basis elements and no maps: every reader reaches an arrow's
    map only through an element over its end, so none is read."""
    P = cobordism_profunctor(CYLINDERS[cylinder](), CORPUS_ALGEBRAS["z2"]())
    E = Profunctor(P.left, P.right, {pair: () for pair in P.basis}, {}, {})
    assert E.check_functorial()
    R = reverse_profunctor(E)
    assert R.check_functorial()
    assert reverse_profunctor(R).basis == E.basis
    assert lin2_bimodule(E).validate()


def _boundary_cases(M, A):
    """(plan, boundary, fillings) for every (in, out) boundary colouring pair of M."""
    X = M.simpset
    plan = Plan(X, A)
    boundary = M.boundary_gens()
    for f in Plan(X.restrict(M.tagged("in")), A).colourings():
        for fp in Plan(X.restrict(M.tagged("out")), A).colourings():
            yield plan, boundary, plan.colourings({**f.values, **fp.values})


@pytest.mark.parametrize("algebra", list(ALGEBRAS))
@pytest.mark.parametrize("cobordism", list(COBORDISMS))
def test_rel_classes_match_the_dict_moves_on_boundary_pairs(cobordism, algebra):
    M, A = COBORDISMS[cobordism](), ALGEBRAS[algebra]()
    for plan, boundary, fillings in _boundary_cases(M, A):
        got = rel_classes(plan, A, boundary, _keys(fillings))
        want = reference.rel_classes(plan, A, boundary, fillings)
        assert got == want
        assert _items(got[1]) == _items(want[1])


@pytest.mark.parametrize("algebra", list(ALGEBRAS))
@pytest.mark.parametrize("window", list(WINDOWS))
def test_rel_classes_match_the_dict_moves_on_windows(window, algebra):
    """The top and bottom cobordisms of the window, and its support relative to the frame."""
    W, A = WINDOWS[window](), ALGEBRAS[algebra]()
    for M in (W.top_cob, W.bottom_cob):
        for plan, boundary, fillings in _boundary_cases(M, A):
            assert rel_classes(plan, A, boundary, _keys(fillings)) == reference.rel_classes(
                plan, A, boundary, fillings
            )
    top, bottom = cobordism_profunctor(W.top_cob, A), cobordism_profunctor(W.bottom_cob, A)
    plan, frame = Plan(W.simpset, A), W.frame_gens()
    for pair in top.pairs():
        sides, tops, bottoms = _frames(W, A, top, bottom, pair)
        for b, H_t in zip(top.basis[pair], tops):
            for bp, H_b in zip(bottom.basis[pair], bottoms):
                fixed = {**sides, **H_t, **H_b}
                assert len(fixed) == len(sides) + len(H_t) + len(H_b)  # three disjoint parts
                assert fixed == reference.window_frame(W, A, top.reps[b], bottom.reps[bp])
                fillings = plan.colourings(fixed)
                assert rel_classes(plan, A, frame, _keys(fillings)) == reference.rel_classes(
                    plan, A, frame, fillings
                )


@pytest.mark.parametrize("algebra", list(CORPUS_ALGEBRAS))
@pytest.mark.parametrize("window", list(WINDOWS))
def test_naturality_on_generators_matches_every_pair_of_arrows(window, algebra):
    """The 2-cell of the window is natural on both paths.  With one entry changed, both paths
    agree, up to the first change that breaks naturality; one does unless every boundary
    arrow is an identity, so that every transport is.  (The Theta weights of a window need
    a reduced algebra, which the two-object module is not.)"""
    W, A = WINDOWS[window](), CORPUS_ALGEBRAS[algebra]()
    nt = window_nat_transform(W, A)
    assert nt.naturality_check()
    assert reference.naturality_check(nt)
    GL, GR = nt.top.left.groupoid, nt.top.right.groupoid
    if len(GL.arrows) == len(GL.objects) and len(GR.arrows) == len(GR.objects):
        return
    for pair in nt.top.pairs():
        for i, row in enumerate(nt.blocks[pair]):
            for j in range(len(row)):
                blocks = {p: [list(r) for r in m] for p, m in nt.blocks.items()}
                blocks[pair][i][j] += Fraction(1)
                broken = NatTransform(nt.top, nt.bottom, blocks)
                natural = reference.naturality_check(broken)
                assert broken.naturality_check() == natural
                if not natural:
                    return
    pytest.fail("no single changed entry breaks naturality")
