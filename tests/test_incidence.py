"""The endpoint index of `FinGroupoid` and the walks that read it, against the
all-arrow and all-pair scans they replace (kept in `tests/reference.py`)."""
import ast
import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import quinncalc
from quinncalc.extprof import cobordism_profunctor, compose_profunctors, identity_profunctor, reverse_profunctor
from quinncalc.finalg import (
    action_groupoid,
    crossed_module_zero,
    cyclic_group,
    find_groupoid_iso,
    groupoid_from_group,
    iota1,
    iota2,
    pair_groupoid,
    symmetric_group,
)
from quinncalc.finalg.groupoids import FinGroupoid
from quinncalc.finalg.groups import ValidationReport
from quinncalc.homotopy import crs_pi1
from quinncalc.io import groupoid_to_json
from quinncalc.morita import groupoid_algebra, lin2_bimodule, quantum_double, tensor_over
from quinncalc.simpset import circle, point, prism
from tests import reference
from tests.conftest import corpus_crossed_modules, corpus_groups
from tests.test_colouring import CORPUS_ALGEBRAS


def _conjugation_groupoid(G):
    conj = {(g, x): G.mul(G.mul(g, x), G.inv(g)) for g in G.elements for x in G.elements}
    return action_groupoid(G, G.elements, conj)


@lru_cache(maxsize=None)
def _groupoids():
    out = {f"group-{G.name}": groupoid_from_group(G) for G in corpus_groups()}
    out.update({f"pair-{k}": pair_groupoid(k) for k in (2, 3, 4)})
    out["s3-conjugation"] = _conjugation_groupoid(symmetric_group(3))
    out["circle-s3"] = crs_pi1(circle(), iota1(symmetric_group(3))).groupoid
    out["circle-s4"] = crs_pi1(circle(), iota1(symmetric_group(4))).groupoid
    zero = iota2(crossed_module_zero(cyclic_group(4), cyclic_group(2)))
    out["prism-circle-z2-z4-zero"] = crs_pi1(prism(circle()), zero).groupoid
    return out


# groupoids small enough for the all-pairs oracles; the prism-circle one has
# 8192 arrows and over a million composites
SMALL = [
    "group-Z2", "group-Z3", "group-Z4", "group-S3", "pair-2", "pair-3", "pair-4",
    "s3-conjugation", "circle-s3", "circle-s4",
]


@pytest.mark.parametrize("name", [*SMALL, "prism-circle-z2-z4-zero"])
def test_incident_arrows_match_the_filtered_scans_in_order(name):
    G = _groupoids()[name]
    for x in G.objects:
        assert G.arrows_from(x) == reference.arrows_from(G, x)
        assert G.arrows_into(x) == reference.arrows_into(G, x)
    pairs = [(x, y) for x in G.objects for y in G.objects]
    if len(G.arrows) > 1000:
        # all pairs from the first object, and a seeded sample of the rest
        pairs = [p for p in pairs if p[0] == G.objects[0]] + random.Random(7).sample(pairs, 100)
    for x, y in pairs:
        assert G.arrows_between(x, y) == reference.arrows_between(G, x, y)
    assert G.arrows_from("no such object") == () == G.arrows_between("no", "such")


def test_the_index_is_built_on_first_use():
    G = pair_groupoid(3)
    assert "ends" not in vars(G)
    assert G.arrows_between(1, 2) == ((1, 2),)
    assert "ends" in vars(G)
    # ext-groupoid builds and writes a groupoid without asking for incident arrows
    H = crs_pi1(circle(), iota1(symmetric_group(3))).groupoid
    groupoid_to_json(H)
    assert "ends" not in vars(H)


@pytest.mark.parametrize("name", SMALL)
def test_groupoid_algebra_matches_the_all_pairs_scan(name):
    G = _groupoids()[name]
    new, old = groupoid_algebra(G), reference.groupoid_algebra(G)
    decoded = reference.dict_algebra(new)
    assert (decoded.basis, decoded.mul, decoded.unit) == (old.basis, old.mul, old.unit)
    assert new.structure_triples() == old.structure_triples()


def _mutant(G, rng, products=False):
    """(G with one or two random faults in its composition or inverse table, that table).

    The table is given as a dict, or with `products` as rows of arrow indices: there a
    dropped entry is None and a rerouted one names another arrow, with any ends or the
    right ones; the table returned is then `reference.table_of` the broken groupoid.
    """
    comp, inv = (list(map(list, G.products)) if products else dict(G.comp_table)), dict(G.inv_table)
    for _ in range(rng.choice((1, 2))):
        a, b = rng.choice(G.arrows), rng.choice(G.arrows)
        edit = rng.choice(["drop", "reroute", "same-ends", "inverse"] + ["unknown"] * (not products))
        if edit == "inverse":
            inv[a] = b
        elif products:  # the entry of arrow a with the arrow b out of its target
            b = rng.choice(G.arrows_from(G.tgt[a]))
            row, p = comp[G.arr_index(a)], G.arrows_from(G.tgt[a]).index(b)
            ends = G.arrows_between(G.src[a], G.tgt[b]) if edit == "same-ends" else G.arrows
            row[p] = None if edit == "drop" else G.arr_index(rng.choice(ends))
        elif edit == "drop":
            comp.pop(rng.choice(list(comp)))
        elif edit == "reroute":  # an entry for any pair, composable or not, to any arrow
            comp[(a, b)] = rng.choice(G.arrows)
        elif edit == "same-ends":  # a composable pair to another arrow with the right ends
            b = rng.choice(G.arrows_from(G.tgt[a]))
            comp[(a, b)] = rng.choice(G.arrows_between(G.src[a], G.tgt[b]))
        else:
            comp[(a, b)] = "no such arrow"
    broken = FinGroupoid(G.objects, G.arrows, G.src, G.tgt, comp, G.ident, inv)
    return broken, (reference.table_of(broken) if products else comp)


def _mutant_messages(products=False):
    """The messages of `validate` on 60 broken tables for each of five groupoids, each
    report (verdict, kind, message, witness) equal to the all-pairs check's."""
    messages = set()
    for name in ["group-S3", "pair-3", "pair-4", "s3-conjugation", "circle-s3"]:
        G = _groupoids()[name]
        passed = reference.validate_groupoid(G, reference.table_of(G))
        assert G.validate() == passed == ValidationReport.passed()
        rng = random.Random(f"{name} products" if products else name)
        for _ in range(60):
            broken, table = _mutant(G, rng, products)
            got = broken.validate()
            assert got == reference.validate_groupoid(broken, table), name
            messages.add(got.message)
    return messages


AXIOM_MESSAGES = {
    "composite endpoints wrong",
    "identity is not a two-sided unit",
    "inverse table wrong",
    "associativity fails",
}


def test_validate_matches_the_all_pairs_check_on_broken_tables():
    """The same verdict, message and witness as the check over every pair of arrows,
    on 60 tables with one or two faults for each of five groupoids."""
    assert _mutant_messages() == {
        "",
        "composition names an unknown arrow",
        "composition defined iff tgt=src",
        *AXIOM_MESSAGES,
    }


def test_validate_matches_the_all_pairs_check_on_broken_products():
    """As above, with the broken tables given as `products`."""
    assert _mutant_messages(products=True) == {"", "composition defined iff tgt=src", *AXIOM_MESSAGES}


def test_comp_raises_key_error_on_a_pair_without_an_entry():
    """On a table given as a dict and as `products`, `comp` of a pair that does not
    compose, or whose entry is missing, raises KeyError instead of naming another arrow."""
    G = pair_groupoid(3)
    (a, b), c = ((1, 2), (2, 3)), (1, 3)
    products = [list(row) for row in G.products]
    products[G.arr_index(a)][G.arrows_from(2).index(b)] = None
    table = {ab: ac for ab, ac in G.comp_table.items() if ab != (a, b)}
    for comp in (table, products):
        H = FinGroupoid(G.objects, G.arrows, G.src, G.tgt, comp, G.ident, G.inv_table)
        assert H.comp(a, (2, 1)) == (1, 1) and (a, b) not in H.comp_table
        for pair in [(a, b), (a, a), (b, a), (a, "no such arrow")]:
            with pytest.raises(KeyError):
                H.comp(*pair)
    assert G.comp(a, b) == c


def test_validate_takes_products_rows_given_as_tuples():
    """Rows of `products` may be tuples: the associativity check compares them with
    lists of composites, which then differ as objects while their entries agree."""
    for G in (pair_groupoid(3), _groupoids()["circle-s3"]):
        rows = [tuple(row) for row in G.products]
        H = FinGroupoid(G.objects, G.arrows, G.src, G.tgt, rows, G.ident, G.inv_table)
        assert H.validate() == ValidationReport.passed()
        rows[1] = rows[1][::-1]
        H = FinGroupoid(G.objects, G.arrows, G.src, G.tgt, rows, G.ident, G.inv_table)
        broken = reference.table_of(H)
        assert H.validate() == reference.validate_groupoid(H, broken) != ValidationReport.passed()


def test_only_the_groupoid_module_reads_comp_table():
    """`comp_table` is a view for library callers: the library itself reads the table
    through `products`, `comp_rows`, `entries` or `comp`."""
    root = Path(quinncalc.__file__).parent
    readers = []
    for path in sorted(set(root.rglob("*.py")) - {root / "finalg" / "groupoids.py"}):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = node.attr if isinstance(node, ast.Attribute) else getattr(node, "value", None)
            if named == "comp_table":  # an attribute read, or the name as a string (getattr)
                readers.append(f"{path.relative_to(root)}:{node.lineno}")
    assert readers == []


@pytest.mark.parametrize("G", corpus_groups(), ids=lambda G: G.name)
def test_quantum_double_matches_the_quartic_scan(G):
    new, old = quantum_double(G), reference.quantum_double(G)
    decoded = reference.dict_algebra(new)
    assert decoded.basis == old.basis and decoded.unit == old.unit
    assert list(decoded.mul.items()) == list(old.mul.items())
    assert new.structure_triples() == old.structure_triples()


@pytest.mark.parametrize("name", [*SMALL, "prism-circle-z2-z4-zero"])
def test_groupoid_algebra_shares_the_table(name):
    """The algebra's basis is G's arrows and each row's products are G's own list: no
    table entry is copied."""
    G = _groupoids()[name]
    A = groupoid_algebra(G)
    assert A.basis is G.arrows and len(A.rows) == len(G.products)
    for i, (r, js, ks) in enumerate(A.rows):
        assert r == i and ks is G.products[i]


def _algebras():
    out = {name: groupoid_algebra(G) for name, G in _groupoids().items() if name in SMALL}
    out.update({f"double-{G.name}": quantum_double(G) for G in corpus_groups()})
    return out


def _variants(A):
    """(name, algebra): A, then A with one product moved to another element, with one unit
    element dropped, and, where one of its last row's products is zero, with it made non-zero."""
    yield "as built", A
    i, js, ks = A.rows[-1]
    yield "product moved", replace(A, rows=[*A.rows[:-1], (i, js, [(ks[0] + 1) % A.dim, *ks[1:]])])
    yield "unit dropped", replace(A, unit=A.unit[1:])
    zero = next((j for j in range(A.dim) if j not in js), None)
    if zero is not None:
        yield "product added", replace(A, rows=[*A.rows[:-1], (i, (*js, zero), [*ks, 0])])


# every triple of a 576-element basis is too many for the oracle
@pytest.mark.parametrize("name", [name for name in _algebras() if name != "circle-s4"])
def test_algebra_validate_matches_the_triple_scan(name):
    """`Algebra.validate` on the non-zero products gives what the scan of every triple on
    the decoded linear table gives, and both fail on each broken variant."""
    for variant, A in _variants(_algebras()[name]):
        want = reference.dict_algebra(A).validate()
        assert A.validate() == want == (variant == "as built"), variant


def _handmade(basis, products, unit):
    """The DictAlgebra on `basis` with unit `unit`, its products with the unit and `products`
    {(a, b): a b} non-zero, every coefficient 1."""
    mul = {(unit, t): {t: Fraction(1)} for t in basis}
    mul.update({(t, unit): {t: Fraction(1)} for t in basis})
    mul.update({pair: {c: Fraction(1)} for pair, c in products.items()})
    return reference.DictAlgebra(basis, mul, {unit: Fraction(1)})


HANDMADE = {
    # e is a unit on one side only: a.e = 0, or e.a = 0
    "left unit only": (reference.DictAlgebra(
        ("e", "a"), {("e", "e"): {"e": Fraction(1)}, ("e", "a"): {"a": Fraction(1)}}, {"e": Fraction(1)}
    ), False),
    "right unit only": (reference.DictAlgebra(
        ("e", "a"), {("e", "e"): {"e": Fraction(1)}, ("a", "e"): {"a": Fraction(1)}}, {"e": Fraction(1)}
    ), False),
    # x(yz) = xw = v but (xy)z = 0, which no non-zero (ab)c shows
    "x(yz) without (xy)z": (_handmade("1xyzwv", {("y", "z"): "w", ("x", "w"): "v"}, "1"), False),
    "associative": (_handmade("1xyzwv", {("y", "z"): "w", ("x", "y"): "v"}, "1"), True),
}


@pytest.mark.parametrize("name", list(HANDMADE))
def test_algebra_validate_on_handmade_tables(name):
    """Tables that fail one axiom only: the unit on one side, or an a(bc) with (ab)c zero."""
    linear, valid = HANDMADE[name]
    A = reference.index_algebra(linear)
    assert A.validate() == linear.validate() == valid


@pytest.mark.parametrize("name", ["group-S3", "pair-3", "circle-s3", "double-S3"])
def test_algebra_product_matches_the_linear_table(name):
    """The product of linear combinations, with rational coefficients that cancel, is the
    decoded linear table's."""
    A = _algebras()[name]
    basis = A.basis
    v = {b: Fraction(i % 5 - 2, i % 3 + 1) for i, b in enumerate(basis)}
    w = {b: Fraction(1, i + 1) for i, b in enumerate(basis[::2])}
    unit = dict.fromkeys(A.unit, Fraction(1))
    linear = reference.dict_algebra(A)
    for x, y in [(v, w), (w, v), (v, v), (unit, v), (v, unit), ({}, v)]:
        assert A.product(x, y) == linear.product(x, y)
    assert A.product(unit, v) == {b: c for b, c in v.items() if c}


@pytest.mark.parametrize(
    "left, right",
    [
        ("circle-s3", "s3-conjugation"),
        ("circle-s4", "s4-conjugation"),
        ("pair-3", "pair-3"),
        ("group-S3", "group-S3"),
        ("circle-s3", "pair-3"),
    ],
)
def test_groupoid_iso_matches_the_all_pairs_check(left, right):
    groupoids = {**_groupoids(), "s4-conjugation": _conjugation_groupoid(symmetric_group(4))}
    G, H = groupoids[left], groupoids[right]
    new, old = find_groupoid_iso(G, H), reference.find_groupoid_iso(G, H)
    assert new == old
    assert (new is None) == ((left, right) == ("circle-s3", "pair-3"))


@pytest.mark.parametrize(
    "left, right",
    [(name, name) for name in SMALL]
    + [("circle-s3", "s3-conjugation"), ("s3-conjugation", "circle-s3"), ("pair-4", "group-Z4"),
       ("group-Z4", "circle-s3"), ("group-S3", "group-Z3")],
)
def test_groupoid_iso_on_index_rows_keeps_both_maps_in_order(left, right):
    """The search composes and checks on arrow indices; both maps, their insertion order
    included, are the all-pairs search's."""
    G, H = _groupoids()[left], _groupoids()[right]
    new, old = find_groupoid_iso(G, H), reference.find_groupoid_iso(G, H)
    assert new == old
    if new is not None:
        assert [list(m.items()) for m in new] == [list(m.items()) for m in old]


def test_groupoid_iso_rejects_a_broken_composite_of_the_target():
    """One composite of H changed to another arrow with the same ends: the final check fails."""
    G, H = _groupoids()["circle-s3"], _groupoids()["s3-conjugation"]
    a = next(a for a in H.arrows if H.src[a] != H.tgt[a])
    b = next(b for b in H.arrows_from(H.tgt[a]) if H.tgt[b] != H.src[a])
    wrong = next(c for c in H.arrows_between(H.src[a], H.tgt[b]) if c != H.comp(a, b))
    comp = {**H.comp_table, (a, b): wrong}
    broken = FinGroupoid(H.objects, H.arrows, H.src, H.tgt, comp, H.ident, H.inv_table)
    assert find_groupoid_iso(G, broken) is None
    assert reference.find_groupoid_iso(G, broken) is None


def test_groupoid_iso_rejects_one_broken_composite():
    """One composite away from the base objects is changed to another arrow with
    the same ends; only the final check of the search sees it."""
    G, H = _groupoids()["circle-s3"], _groupoids()["s3-conjugation"]
    assert find_groupoid_iso(G, H) is not None
    bases = {comp[0] for comp in G.components()}
    a = next(a for a in G.arrows if G.src[a] not in bases)
    b = G.arrows_from(G.tgt[a])[0]
    wrong = next(c for c in G.arrows_between(G.src[a], G.tgt[b]) if c != G.comp(a, b))
    comp = {**G.comp_table, (a, b): wrong}
    broken = FinGroupoid(G.objects, G.arrows, G.src, G.tgt, comp, G.ident, G.inv_table)
    assert find_groupoid_iso(broken, H) is None
    assert reference.find_groupoid_iso(broken, H) is None


def _cylinder_bimodules():
    algebras = [iota1(G) for G in corpus_groups()] + [iota2(M) for M in corpus_crossed_modules()]
    for A in algebras:
        for X in (point(), circle()):
            yield f"{X.name}-{A.name}", lin2_bimodule(cobordism_profunctor(prism(X), A))


def _same_tensor(M, N):
    T, classes = tensor_over(M, N)
    T_old, classes_old = reference.tensor_over(reference.pair_keyed_bimodule(M), reference.pair_keyed_bimodule(N))
    assert classes == classes_old
    assert T.basis == T_old.basis
    flat = reference.pair_keyed_bimodule(T)
    assert (flat.lact, flat.ract) == (T_old.lact, T_old.ract)
    return T, classes


def test_tensor_matches_the_all_middle_scan_on_the_cylinders():
    for _, M in _cylinder_bimodules():
        _same_tensor(M, M)


def test_tensor_maps_hold_only_basis_elements():
    for _, M in _cylinder_bimodules():
        T, _ = tensor_over(M, M)
        basis = set(T.basis)
        assert set(T.lact) == set(M.left.basis) and set(T.ract) == set(M.right.basis)
        for maps in (T.lact, T.ract):
            assert all(set(t) <= basis and set(t.values()) <= basis for t in maps.values())


def _regular_z2_bimodule():
    return lin2_bimodule(cobordism_profunctor(prism(circle()), iota1(cyclic_group(2))))


def test_tensor_matches_the_all_middle_scan_with_empty_or_missing_rows():
    """One module element of either factor is acted on by no middle element: it is
    absent from every map of that side, the one way a map holds a zero product.
    Its pairs are balanced against zero, from the other factor's rows too."""
    M = _regular_z2_bimodule()
    m0, n0 = M.basis[0], M.basis[-1]

    def without(maps, m):
        return {x: {k: img for k, img in t.items() if k != m} for x, t in maps.items()}

    for left, right in ((replace(M, ract=without(M.ract, m0)), M), (M, replace(M, lact=without(M.lact, n0)))):
        _, classes = _same_tensor(left, right)
        assert None in classes.values()


def _commutes(B):
    for ta in B.lact.values():
        for tb in B.ract.values():
            for m in B.basis:
                k, k2 = ta.get(m), tb.get(m)
                if (None if k is None else tb.get(k)) != (None if k2 is None else ta.get(k2)):
                    return False
    return True


def _broken_bimodules(B, over):
    """B with one identity entry dropped, one right entry pointed at another element over
    the same pair as its image (where that pair has two), and one left entry changed so
    that the two actions stop commuting; then B with no left action, and, where one
    exists, B with its right action conjugated by a swap of two elements over one pair
    that no longer commutes with the left.  `over` is the basis pair of each element."""
    e = next(a for a in B.left.unit if B.lact.get(a))
    m = next(iter(B.lact[e]))
    yield "identity dropped", replace(B, lact={**B.lact, e: {k: v for k, v in B.lact[e].items() if k != m}})
    on_pair = {}
    for n in B.basis:
        on_pair.setdefault(over[n], []).append(n)
    b, m, other = next(
        (b, m, other)
        for b, t in B.ract.items() for m, img in t.items()
        for other in on_pair[over[img]] if other != img
    )
    yield "entry moved", replace(B, ract={**B.ract, b: {**B.ract[b], m: other}})
    # m0.b = m with m0 != m: a changed a.m then differs from (a.m0).b = a.(m0.b)
    moved = {m for t in B.ract.values() for m0, m in t.items() if m != m0}
    a, m, other = next(
        (a, m, other)
        for a, t in B.lact.items() for m, img in t.items() if m in moved
        for other in on_pair[over[img]] if other != img
    )
    broken = replace(B, lact={**B.lact, a: {**B.lact[a], m: other}})
    assert _commutes(B) and not _commutes(broken)
    yield "no longer commuting", broken
    # two more that break one equation each: with no left action, only the unit fails;
    # with the right action conjugated by a swap within one pair, only commuting can fail
    yield "no left action", replace(B, lact={})
    for m1, m2 in ((ns[0], n) for ns in on_pair.values() for n in ns[1:]):
        swap = {m1: m2, m2: m1}
        ract = {b: {swap.get(k, k): swap.get(v, v) for k, v in t.items()} for b, t in B.ract.items()}
        if not _commutes(broken := replace(B, ract=ract)):
            yield "right action conjugated", broken
            break


PROFUNCTORS = {
    "cobordism": lambda P: P,
    "identity": lambda P: identity_profunctor(P.left),
    "coend": lambda P: compose_profunctors(P, P),
    "reverse": reverse_profunctor,
}


@pytest.mark.parametrize("tensor", [False, True], ids=["Lin2", "tensor"])
@pytest.mark.parametrize("kind", list(PROFUNCTORS))
@pytest.mark.parametrize("algebra", ["s3", "0:Z2->Z2", "0:Z2->Z4"])
@pytest.mark.parametrize("cylinder", ["point", "circle"])
def test_bimodule_validate_matches_the_linear_tables(cylinder, algebra, kind, tensor):
    """`Bimodule.validate` on maps gives what the check on the pair-keyed linear tables
    gives, on the Lin2 bimodule of a cylinder's profunctor or its tensor with itself, and
    on the broken variants of each, which both read False."""
    X = {"point": point, "circle": circle}[cylinder]()
    Q = PROFUNCTORS[kind](cobordism_profunctor(prism(X), CORPUS_ALGEBRAS[algebra]()))
    over = {e: pair for pair, els in Q.basis.items() for e in els}
    B = lin2_bimodule(Q)
    if tensor:
        B, _ = tensor_over(B, B)
        over = {(m, n): (over[m][0], over[n][1]) for (m, n) in B.basis}
    assert B.validate() and reference.bimodule_validate(reference.pair_keyed_bimodule(B))
    for broken, bad in _broken_bimodules(B, over):
        assert not bad.validate(), broken
        assert not reference.bimodule_validate(reference.pair_keyed_bimodule(bad)), broken
