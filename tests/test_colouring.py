import threading
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quinncalc.colouring import (
    Colouring,
    Plan,
    as_simpset,
    boundary_label,
    enumerate_colourings,
    enumerate_relative,
    restrict_colouring,
)
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
from quinncalc.simpset import (
    SimplexRef,
    circle,
    glue,
    interval,
    point,
    prism,
    prism_end_matching,
    sphere,
    standard_simplex,
    torus,
    window_support,
)
from quinncalc.homotopy import crs_pi1, rel_classes
from quinncalc.tqft import chi_pi_rel_fibre, state_space
from tests import reference
from tests.reference import enumerate_sequences, holonomy_act
from tests.conftest import abelian_tower, corpus_crossed_modules, corpus_groups


def commuting_pairs(G):
    return [(a, b) for a in G.elements for b in G.elements if G.mul(a, b) == G.mul(b, a)]


# -- nerve oracle: |colourings of Delta(n)| == |G|^n ---------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_nerve_counts_groups(n):
    for G in corpus_groups():
        cols = enumerate_colourings(standard_simplex(n), iota1(G))
        assert len(cols) == len(G) ** n, (G.name, n)


def test_nerve_count_crossed_module_delta2():
    for M in corpus_crossed_modules():
        A = iota2(M)
        cols = enumerate_colourings(standard_simplex(2), A)
        # brute force: edge triples whose loop lands in the boundary image,
        # times the kernel size for the free 2-cell value
        img = {M.bdry[e] for e in M.E.elements}
        ker = [e for e in M.E.elements if M.bdry[e] == M.G.unit]
        count = sum(
            1
            for g01, g12, g02 in product(M.G.elements, repeat=3)
            if M.G.mul(M.G.mul(g01, g12), M.G.inv(g02)) in img
        )
        assert len(cols) == count * len(ker)


def test_all_enumerated_colourings_are_valid():
    spaces = [circle(), torus(), standard_simplex(2), sphere(2)]
    algebras = [iota1(symmetric_group(3))] + [iota2(M) for M in corpus_crossed_modules()]
    for X in spaces:
        for A in algebras:
            for col in enumerate_colourings(X, A):
                assert reference.is_valid_colouring(col)


# -- boundary labels -----------------------------------------------------------


def test_boundary_label_torus_triangle():
    s3 = symmetric_group(3)
    A = iota1(s3)
    T = torus()
    for col in enumerate_colourings(T, A)[:6]:
        ga, gb, gc = col.value("a"), col.value("b"), col.value("c")
        # d2 sig = a, d0 sig = b, d1 sig = c
        assert boundary_label(T, A, col.values, "sig") == s3.mul(s3.mul(ga, gb), s3.inv(gc))


def test_boundary_label_sphere_top_is_identity():
    A = iota1(cyclic_group(2))
    S = sphere(2)
    vals = {"v": "*"}
    assert boundary_label(S, A, vals, "c") == A.base.ident["*"]


def test_boundary_label_delta3_identity_boundary_module():
    # all edges labelled g, boundary the identity crossed module: each face
    # value is forced and the top label collapses to the identity
    s3 = symmetric_group(3)
    A = iota2(crossed_module_identity(s3))
    D = standard_simplex(3)
    for g in s3.elements:
        vals = {t: "*" for t in D.gens(0)}
        for e in D.gens(1):
            vals[e] = g
        for t in D.gens(2):
            lab = boundary_label(D, A, vals, t)
            vals[t] = ("*", lab)  # bdry = id, so the face value equals its label
        top = boundary_label(D, A, vals, (0, 1, 2, 3))
        assert top == A.identity_elem(2, "*")


def test_boundary_consistency_oracle():
    # d(iota(c)) is the identity for every valid colouring and generator of
    # dimension >= 3; anchors the sign conventions
    s3 = symmetric_group(3)
    D = standard_simplex(3)
    A = iota2(crossed_module_identity(s3))
    for col in enumerate_colourings(D, A):
        lab = reference.boundary_label(D, A, col.values, (0, 1, 2, 3))
        assert A.bdry_of(2, lab) == A.base.ident["*"]


def test_boundary_consistency_dim4_abelian_tower():
    tower = abelian_tower()
    D = standard_simplex(4)
    cols = enumerate_colourings(D, tower)
    # independent count over GF(2): 2^(edge rank) * 2^(triangle rank) * 2^(tet rank)
    assert len(cols) == 2 ** (4 + 6 + 4)
    for col in cols[:8]:
        lab = boundary_label(D, tower, col.values, tuple(range(5)))
        assert lab == tower.identity_elem(3, "*")


# -- absolute counts -------------------------------------------------------------


def test_circle_counts():
    for G in corpus_groups():
        assert len(enumerate_colourings(circle(), iota1(G))) == len(G)


def test_enumeration_is_canonical_and_duplicate_free(s3):
    for X in [torus(), standard_simplex(2)]:
        keys = [c.key() for c in enumerate_colourings(X, iota1(s3))]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_torus_counts_are_commuting_pairs():
    for G in corpus_groups():
        cols = enumerate_colourings(torus(), iota1(G))
        assert len(cols) == len(commuting_pairs(G))
        for col in cols:
            a, b = col.value("a"), col.value("b")
            assert G.mul(a, b) == G.mul(b, a)
            assert col.value("c") == G.mul(a, b)


def test_sphere_counts_crossed_modules():
    for M in corpus_crossed_modules():
        A = iota2(M)
        ker = [e for e in M.E.elements if M.bdry[e] == M.G.unit]
        assert len(enumerate_colourings(sphere(2), A)) == len(ker)


def test_nonreduced_target_counts():
    I3 = pair_groupoid(3)
    A = iota1(I3)
    from quinncalc.simpset import point

    assert len(enumerate_colourings(point(), A)) == 3
    assert len(enumerate_colourings(circle(), A)) == 3  # only identity loops
    assert len(enumerate_colourings(standard_simplex(1), A)) == 9


# -- relative enumeration ---------------------------------------------------------


def test_relative_cylinder_centraliser_counts():
    s3 = symmetric_group(3)
    A = iota1(s3)
    P = prism(circle())
    in_map, out_map = P.meta["in_map"], P.meta["out_map"]
    e_in, e_out = in_map["e"], out_map["e"]
    v_in, v_out = in_map["v"], out_map["v"]
    for g in s3.elements:
        for gp in s3.elements:
            fixed = {v_in: "*", v_out: "*", e_in: g, e_out: gp}
            n = len(enumerate_relative(P.simpset, A, fixed))
            oracle = sum(
                1 for h in s3.elements if s3.mul(s3.mul(s3.inv(h), g), h) == gp
            )
            assert n == oracle


def test_relative_interval_free_edge():
    for G in corpus_groups():
        A = iota1(G)
        D = standard_simplex(1)
        fixed = {(0,): "*", (1,): "*"}
        assert len(enumerate_relative(D, A, fixed)) == len(G)


def test_relative_rejects_invalid_boundary_data():
    from quinncalc.errors import BoundaryError

    s3 = symmetric_group(3)
    A = iota1(s3)
    P = prism(circle())
    in_map = P.meta["in_map"]
    with pytest.raises(BoundaryError):
        enumerate_relative(P.simpset, A, {in_map["v"]: "not-an-object"})
    # a triangle value whose boundary disagrees with its edge labels
    T = torus()
    bad = {
        "v": "*",
        "a": s3.elements[1],
        "b": s3.elements[3],
        "c": s3.elements[0],
        "sig": ("*", s3.unit),
    }
    A2 = iota2(crossed_module_identity(s3))
    with pytest.raises(BoundaryError):
        enumerate_relative(T, A2, bad)


def test_relative_rejects_unknown_generator():
    A = iota1(cyclic_group(2))
    for run in (enumerate_colourings, enumerate_relative, chi_pi_rel_fibre):
        with pytest.raises(BoundaryError, match="unknown generator 'zz'"):
            run(circle(), A, {"zz": "*"})


def test_relative_sphere_empty_boundary():
    for M in corpus_crossed_modules():
        A = iota2(M)
        ker = [e for e in M.E.elements if M.bdry[e] == M.G.unit]
        assert len(enumerate_relative(sphere(2), A, {})) == len(ker)


def test_relative_absolute_consistency():
    s3 = symmetric_group(3)
    A = iota1(s3)
    P = prism(circle())
    boundary = sorted(P.boundary_gens(), key=P.simpset.gen_index)
    total = enumerate_colourings(P.simpset, A)
    seen = []
    sub = P.simpset.restrict(P.boundary_gens())
    for bcol in enumerate_colourings(sub, A):
        fixed = dict(bcol.values)
        seen.extend(enumerate_relative(P.simpset, A, fixed))
    assert len(seen) == len(total)
    assert {c.key() for c in seen} == {c.key() for c in total}


# -- restriction -------------------------------------------------------------------


def test_restrict_identity_and_skeleton():
    s3 = symmetric_group(3)
    A = iota1(s3)
    T = torus()
    col = enumerate_colourings(T, A)[5]
    assert restrict_colouring(col, T).values == col.values
    skel = T.restrict(T.subcomplex_closure({"a", "b", "c"}))
    r = restrict_colouring(col, skel)
    assert set(r.values) == {"v", "a", "b", "c"}
    assert reference.is_valid_colouring(r)


def test_degenerate_face_rule_idempotent():
    # renormalising the normal form changes nothing in label evaluation
    T = torus()
    A = iota1(cyclic_group(4))
    col = enumerate_colourings(T, A)[3]
    ref = T.face(("sig"), 0)
    assert T.normalise(ref) == ref
    assert col.value_of_ref(ref) == col.value("b")


# -- the compiled plan against the original (seed) walker ---------------------------


def _label_consistent(X, A, values, c):
    """Whether the boundary condition at c can be (or is) met."""
    n = X.dim_of[c]
    label = reference.boundary_label(X, A, values, c)
    if n == 2:
        if A.truncation < 2:
            base = values[X.initial_vertex(c)]
            return label == A.base.ident[base]
        base = values[X.initial_vertex(c)]
        return label in {
            A.bdry_of(2, (base, e)) for e in A.fibre(2, base).elements
        }
    if n > A.truncation + 1:
        return True
    if n == A.truncation + 1:
        base = values[X.initial_vertex(c)]
        return label == A.identity_elem(n - 1, base)
    base = values[X.initial_vertex(c)]
    return label in {A.bdry_of(n, (base, e)) for e in A.fibre(n, base).elements}


def _level_domain(X, A, values, c):
    """All admissible level-n values at the generator c, given lower levels."""
    n = X.dim_of[c]
    base = values[X.initial_vertex(c)]
    label = reference.boundary_label(X, A, values, c)
    F = A.fibre(n, base)
    return [(base, e) for e in F.elements if A.bdry_of(n, (base, e)) == label]


def _enumerate_colourings_seed(X, A, fixed=None):
    """Oracle for enumerate_colourings: the original walker, which re-walks faces at every node.

    Recomputes the homotopy addition labels, the leading vertices and the
    trigger schedule on each visit instead of compiling (X, A) first.
    """
    fixed = fixed or {}
    for g in fixed:
        if g not in X.dim_of:
            raise BoundaryError(f"fixed value on unknown generator {g!r}")
    results = []
    values: dict = {}
    last_level = min(X.dim, A.truncation)
    top_constraint_dim = min(X.dim, A.truncation + 1)

    # generators of dimension n+1 whose boundary label becomes checkable once
    # all their dimension-n faces are assigned; keyed by the last such face
    def triggers(n):
        out: dict[int, list] = {}
        immediate = []
        for c in X.gens(n + 1):
            needed = set()
            ref = SimplexRef(c, ())
            for i in range(n + 2):
                f = X.face_of_ref(ref, i)
                if not f.word:
                    needed.add(f.core)
            if not needed:
                immediate.append(c)
            else:
                last = max(X.gens(n).index(g) for g in needed)
                out.setdefault(last, []).append(c)
        return immediate, out

    def assign_level(n):
        if n > last_level:
            results.append(Colouring(X, A, dict(values)))
            return
        gens = X.gens(n)
        has_checks = 2 <= n + 1 <= top_constraint_dim
        check_now, trigger_map = triggers(n) if has_checks else ([], {})
        for c in check_now:
            if not _label_consistent(X, A, values, c):
                return

        def walk(k):
            if k == len(gens):
                assign_level(n + 1)
                return
            g = gens[k]
            if n == 0:
                domain = A.objects if g not in fixed else (fixed[g],)
                if g in fixed and fixed[g] not in set(A.objects):
                    return
            elif n == 1:
                s, t = X.edge_ends(g)
                domain = A.base.arrows_between(values[s], values[t])
                if g in fixed:
                    domain = [a for a in domain if a == fixed[g]]
            else:
                domain = _level_domain(X, A, values, g)
                if g in fixed:
                    domain = [v for v in domain if v == fixed[g]]
            for v in domain:
                values[g] = v
                ok = True
                for c in trigger_map.get(k, ()):
                    if not _label_consistent(X, A, values, c):
                        ok = False
                        break
                if ok:
                    walk(k + 1)
                del values[g]

        walk(0)

    assign_level(0)
    return results


def _values(colourings):
    return [c.values for c in colourings]


CATALOG_SPACES = {
    "point": point,
    "interval": interval,
    "circle": circle,
    "sphere2": lambda: sphere(2),
    "torus": torus,
    **{f"delta{n}": (lambda n=n: standard_simplex(n)) for n in range(4)},
    "prism-point": lambda: prism(point()).simpset,
    "prism-circle": lambda: prism(circle()).simpset,
    "prism-torus": lambda: prism(torus()).simpset,
}
CORPUS_ALGEBRAS = {
    "z2": lambda: iota1(cyclic_group(2)),
    "z3": lambda: iota1(cyclic_group(3)),
    "z4": lambda: iota1(cyclic_group(4)),
    "s3": lambda: iota1(symmetric_group(3)),
    "0:Z2->Z2": lambda: iota2(crossed_module_zero(cyclic_group(2), cyclic_group(2))),
    "id:Z2": lambda: iota2(crossed_module_identity(cyclic_group(2))),
    "0:Z2->Z4": lambda: iota2(crossed_module_zero(cyclic_group(4), cyclic_group(2))),
}
SLOW_SEED_CASES = {("prism-torus", a) for a in ("0:Z2->Z4", "0:Z2->Z2", "id:Z2")}


@pytest.mark.parametrize(
    "space, algebra",
    [
        (space, algebra)
        for space in CATALOG_SPACES
        for algebra in CORPUS_ALGEBRAS
        if (space, algebra) not in SLOW_SEED_CASES
    ],
)
def test_plan_matches_seed_walker_on_catalog(space, algebra):
    """The compiled walk lists the seed walker's colourings, in its order.

    Prism-torus with 0:Z2->Z4, 0:Z2->Z2 and id:Z2 is left out: the seed
    walker alone takes 0.5-6.7 s on each.
    """
    X, A = CATALOG_SPACES[space](), CORPUS_ALGEBRAS[algebra]()
    assert _values(enumerate_colourings(X, A)) == _values(_enumerate_colourings_seed(X, A))


def _on_fresh_thread(fn, *args):
    """fn(*args), called from the shallow stack of a new thread; its exception is re-raised here.

    The seed walker recurses once per generator.  On the abelian tower it
    took 5.1 s directly inside a pytest test and 2.4 s on a fresh thread in
    the same test; in a plain interpreter its time varied from 1.8 to 3.1 s
    with the caller's stack depth (0-70 frames; Python 3.11.7, 2 cores).
    CPython 3.11 allocates frames in chunks, and a recursion that keeps
    crossing a chunk boundary pays for it at every crossing, which is the
    likely cause.
    """
    out = {}

    def run():
        try:
            out["value"] = fn(*args)
        except BaseException as exc:  # re-raised on the calling thread
            out["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    if "error" in out:
        raise out["error"]
    return out["value"]


def test_plan_matches_seed_walker_on_abelian_tower():
    X, A = standard_simplex(4), abelian_tower()
    seed = _on_fresh_thread(_enumerate_colourings_seed, X, A)
    assert _values(enumerate_colourings(X, A)) == _values(seed)


def _cylinder(name):
    single = prism(circle())
    if name == "prism-circle":
        return single
    other = prism(circle())
    return glue(single, other, prism_end_matching(single, other))


@pytest.mark.parametrize(
    "space, algebra",
    [(space, algebra) for space in ("prism-circle", "double-cylinder") for algebra in CORPUS_ALGEBRAS],
)
def test_plan_matches_seed_walker_on_boundary_pairs(space, algebra):
    """Relative enumerations on every (in, out) boundary colouring pair."""
    M, A = _cylinder(space), CORPUS_ALGEBRAS[algebra]()
    X = M.simpset
    plan = Plan(X, A)
    for f in enumerate_colourings(X.restrict(M.tagged("in")), A):
        for fp in enumerate_colourings(X.restrict(M.tagged("out")), A):
            fixed = {**f.values, **fp.values}
            seed = _enumerate_colourings_seed(X, A, fixed)
            assert _values(enumerate_relative(X, A, fixed)) == _values(seed)
            assert plan.count(fixed) == len(seed)


@lru_cache(maxsize=None)
def _property_case(space, algebra):
    X, A = CATALOG_SPACES[space](), CORPUS_ALGEBRAS[algebra]()
    return X, A, enumerate_colourings(X, A)


@settings(max_examples=80, deadline=None)
@given(
    space=st.sampled_from(["circle", "torus", "sphere2", "delta2", "delta3", "prism-circle"]),
    algebra=st.sampled_from(list(CORPUS_ALGEBRAS)),
    data=st.data(),
)
def test_plan_matches_seed_walker_on_random_fixed_values(space, algebra, data):
    """Random partial data (not face-closed) pinned on a colouring's generators."""
    X, A, colourings = _property_case(space, algebra)
    c = data.draw(st.sampled_from(colourings), label="colouring")
    pinned = data.draw(st.sets(st.sampled_from(sorted(c.values, key=X.gen_index))), label="pinned")
    fixed = {g: c.values[g] for g in pinned}
    seed = _enumerate_colourings_seed(X, A, fixed)
    assert _values(enumerate_colourings(X, A, fixed)) == _values(seed)
    plan = Plan(X, A)
    assert plan.count(fixed) == len(seed)
    for n in range(2, X.dim + 1):
        for g in X.gens(n):
            assert plan.label[g](c.values) == reference.boundary_label(X, A, c.values, g)


@pytest.mark.parametrize(
    "space, algebra",
    [(space, algebra) for space in ("point", "circle") for algebra in CORPUS_ALGEBRAS],
)
def test_plan_matches_seed_walker_on_window_frames(space, algebra):
    """The frames `window_nat_transform` walks: one per pair of class representatives."""
    from quinncalc.extprof import _frames, cobordism_profunctor

    base = {"point": point, "circle": circle}[space]
    W, A = window_support(prism(base()), prism(base())), CORPUS_ALGEBRAS[algebra]()
    top, bottom = cobordism_profunctor(W.top_cob, A), cobordism_profunctor(W.bottom_cob, A)
    plan = Plan(W.simpset, A)
    for pair in top.pairs():
        sides, tops, bottoms = _frames(W, A, top, bottom, pair)
        for b, H_t in zip(top.basis[pair], tops):
            for bp, H_b in zip(bottom.basis[pair], bottoms):
                fixed = {**sides, **H_t, **H_b}
                assert len(fixed) == len(sides) + len(H_t) + len(H_b)  # three disjoint parts
                assert fixed == reference.window_frame(W, A, top.reps[b], bottom.reps[bp])
                seed = _on_fresh_thread(_enumerate_colourings_seed, W.simpset, A, fixed)
                assert _values(plan.colourings(fixed)) == _values(seed)
                assert plan.count(fixed) == len(seed)


def test_inconsistent_fixed_values_raise():
    """Pinned values that no colouring extends raise instead of giving no colourings."""
    A = iota1(pair_groupoid(2))
    P = prism(circle())
    in_map = P.meta["in_map"]
    x, y = A.objects
    # the in-edge is a loop at the in-vertex, pinned here to an arrow leaving the other object
    wrong = next(g for g in A.base.arrows if A.base.src[g] == y)
    bad = {in_map["v"]: x, in_map["e"]: wrong}
    assert _enumerate_colourings_seed(P.simpset, A, bad) == []
    plan = Plan(P.simpset, A)
    for run in (plan.count, plan.colourings, lambda f: enumerate_colourings(P.simpset, A, f)):
        with pytest.raises(BoundaryError, match="wrong endpoints"):
            run(bad)


def _crs_data(X, A, fixed):
    # S3 on prism(circle) takes about a second per call; Z2 takes the same path
    G = crs_pi1(X, iota1(cyclic_group(2))).groupoid
    return G.arrows, G.comp_table, G.inv_table


def _holonomy(X, A, fixed):
    """Transport the first filling along the last homotopy of the fixed end."""
    B = as_simpset(X).restrict(fixed)
    eta = enumerate_sequences(B, A, Colouring(B, A, fixed), 1)[-1]
    return holonomy_act(X, A, fixed, eta, enumerate_relative(X, A, fixed)[0]).values


STRATIFIED_ENTRY_POINTS = {
    "enumerate_colourings": lambda X, A, fixed: _values(enumerate_colourings(X, A)),
    "enumerate_relative": lambda X, A, fixed: _values(enumerate_relative(X, A, fixed)),
    "count": lambda X, A, fixed: Plan(X, A).count(fixed),
    "state_space": lambda X, A, fixed: state_space(X, A).classes,
    "chi_pi_rel_fibre": lambda X, A, fixed: chi_pi_rel_fibre(X, A, fixed),
    "crs_pi1": _crs_data,
    "rel_classes": lambda X, A, fixed: rel_classes(X, A, fixed, Plan(X, A).keys(fixed)),
    "enumerate_sequences": lambda X, A, fixed: [
        H.values for H in enumerate_sequences(X, A, enumerate_colourings(X, A)[-1], 1)
    ],
    "holonomy_act": _holonomy,
}


@pytest.mark.parametrize("entry", list(STRATIFIED_ENTRY_POINTS))
@pytest.mark.parametrize("space", ["point", "circle"])
def test_stratification_and_its_simpset_give_equal_results(entry, space):
    M = prism({"point": point, "circle": circle}[space]())
    A = iota1(symmetric_group(3))
    f = enumerate_colourings(M.simpset.restrict(M.tagged("in")), A)[-1]
    run = STRATIFIED_ENTRY_POINTS[entry]
    assert run(M, A, dict(f.values)) == run(M.simpset, A, dict(f.values))
