import hashlib
import json
from functools import lru_cache
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quinncalc import cli
from quinncalc.colouring import Colouring, Plan, enumerate_colourings
from quinncalc.errors import SchemaError
from quinncalc.extprof import cobordism_profunctor, identity_profunctor
from quinncalc.finalg import chi_pi, validate_crossed_complex
from quinncalc.finalg import (
    crossed_module_identity,
    crossed_module_zero,
    cyclic_group,
    iota1,
    iota2,
    pair_groupoid,
    symmetric_group,
)
from quinncalc.finalg.crossed import semidirect
from quinncalc.finalg.groupoids import FinGroupoid
from quinncalc.homotopy import crs_pi1
from quinncalc import io as qio
from quinncalc.io import (
    algebra_from_json,
    colour_list_json,
    crossed_complex_from_json,
    crossed_complex_to_json,
    crossed_module_to_json,
    dump_json,
    gen_label,
    group_from_json,
    group_to_json,
    groupoid_document,
    groupoid_to_json,
    profunctor_to_json,
    scalar_str,
    simpset_from_json,
    simpset_to_json,
    write_colour_list,
    write_json,
)
from quinncalc.simpset import SimplexRef, SimpSet, circle, point, prism, standard_simplex, torus
from tests.conftest import abelian_tower
from tests import reference


def full_complex_payload():
    # the two-step tower 0: Z2 -> Z2 written out in the long schema
    return {
        "objects": ["*"],
        "level1": {
            "arrows": [
                {"id": "1", "src": "*", "tgt": "*"},
                {"id": "g", "src": "*", "tgt": "*"},
            ],
            "compose": [
                ["1", "1", "1"],
                ["1", "g", "g"],
                ["g", "1", "g"],
                ["g", "g", "1"],
            ],
            "inv": [["1", "1"], ["g", "g"]],
        },
        "levels": [
            {
                "n": 2,
                "groups": {"*": {"elements": ["e0", "e1"], "table": [["e0", "e1"], ["e1", "e0"]]}},
                "boundary": [["e0", "1"], ["e1", "1"]],
                "action": [
                    ["e0", "1", "e0"],
                    ["e0", "g", "e0"],
                    ["e1", "1", "e1"],
                    ["e1", "g", "e1"],
                ],
            }
        ],
        "truncation": 2,
    }


def test_crossed_complex_schema_roundtrip():
    A = crossed_complex_from_json(full_complex_payload())
    assert validate_crossed_complex(A)
    assert chi_pi(A) == 1


def test_algebra_dispatch():
    A = algebra_from_json(full_complex_payload())
    assert A.truncation == 2
    B = algebra_from_json(group_to_json(cyclic_group(3)))
    assert B.truncation == 1
    with pytest.raises(SchemaError):
        algebra_from_json({"bogus": 1})


def test_group_schema_rejects_ragged_table():
    with pytest.raises(SchemaError):
        group_from_json({"elements": ["a", "b"], "table": [["a", "b"]]})


@pytest.mark.parametrize(
    "table, fault",
    [
        (5, "the table is int, not a list"),
        ([["a", "b"], ["b", "a", "a"]], "row 1 has 3 entries for 2 elements"),
        ([["a"], ["b", "a", "a"]], "row 0 has 1 entries for 2 elements"),
        ([["a", "b"], "ba"], "row 1 is a str, not a list of 2 entries"),
        ([["a", "b"]], "the table has 1 rows for 2 elements"),
        ([["a", "b"], ["b", "a"], ["a", "a"]], "the table has 3 rows for 2 elements"),
    ],
)
def test_a_table_that_is_not_square_names_the_group_and_its_first_bad_row(table, fault):
    with pytest.raises(SchemaError) as exc:
        group_from_json({"elements": ["a", "b"], "table": table, "name": "Z2"})
    assert str(exc.value) == f"group table must be square over the element list: group 'Z2', {fault}"


def test_level_element_ids_must_be_unique():
    payload = full_complex_payload()
    payload["objects"] = ["*", "o2"]
    with pytest.raises(SchemaError):
        crossed_complex_from_json(payload)


def test_expand_shorthand_to_full_schema():
    from quinncalc.finalg import chi_pi as chi
    from quinncalc.finalg import crossed_module_zero, iota2
    from quinncalc.io import crossed_complex_to_json

    for E_order in (2,):
        M = crossed_module_zero(cyclic_group(4), cyclic_group(E_order))
        A = iota2(M)
        data = crossed_complex_to_json(A)
        back = crossed_complex_from_json(data)
        assert validate_crossed_complex(back)
        assert chi(back) == chi(A)


def test_expand_tower_to_full_schema():
    from quinncalc.finalg import chi_pi as chi

    tower = abelian_tower()
    back = crossed_complex_from_json(crossed_complex_to_json(tower))
    assert validate_crossed_complex(back)
    assert chi(back) == chi(tower)


def test_composition_naming_a_dropped_arrow_is_malformed():
    """Dropping an arrow from level 1 while its compose and inverse rows stay must not validate."""
    data = crossed_complex_to_json(abelian_tower())
    dropped = data["level1"]["arrows"].pop()["id"]
    assert any(dropped in row for row in data["level1"]["compose"])
    report = validate_crossed_complex(crossed_complex_from_json(data))
    assert not report and report.kind == "malformed"


def test_simpset_roundtrip_preserves_structure():
    P = prism(circle())
    data = simpset_to_json(P)
    back = simpset_from_json(data)
    X = back.simpset
    assert X.validate()
    assert [X.k_count(i) for i in range(X.dim + 1)] == [2, 4, 2]
    assert back.tagged("in") and back.tagged("out")


def test_dangling_face_reported():
    X = SimpSet({"e": 1}, {("e", 0): SimplexRef("nope"), ("e", 1): SimplexRef("nope")})
    report = X.validate()
    assert not report and report.kind == "malformed"


# -- byte-for-byte oracles for the emitters ------------------------------------------------
#
# The oracle is the general encoder applied to the data the emitters built before they
# shared one label map and before colour-list was rendered from a template.


def oracle(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


# strings that need escaping, carry format directives, or leave ASCII
_TEXT = st.one_of(st.text(max_size=4), st.text(alphabet='a"\\%s\x00\n\t\x1fé☃\ud800\U0001f600', max_size=6))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
)
# rows of one or several lengths, all strings or mixed, as lists or tuples; empty rows too
_ROWS = st.lists(
    st.one_of(
        st.lists(_TEXT, min_size=1, max_size=4),
        st.lists(_TEXT, min_size=1, max_size=3).map(tuple),
        st.lists(st.one_of(_TEXT, _SCALARS), max_size=3),
    ),
    max_size=5,
)
# sorted tables: up to 40 rows of three indices into a list of names, some of them equal
_TABLES = st.lists(_TEXT, min_size=1, max_size=6).flatmap(
    lambda names: st.lists(
        st.tuples(*[st.integers(0, len(names) - 1)] * 3), max_size=40
    ).map(lambda rows: qio._Table(names, tuple(map(list, zip(*rows))) if rows else ([], [], [])))
)
_TREES = st.recursive(
    st.one_of(_SCALARS, _TEXT, _ROWS, _TABLES),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
        # int keys are sorted and written as strings; mixed with strings they cannot be sorted
        st.dictionaries(st.one_of(_TEXT, st.integers(-2, 2)), children, max_size=3),
    ),
    max_leaves=24,
)


def _text_or_error(encode, data):
    try:
        return encode(data)
    except (TypeError, ValueError) as exc:
        return type(exc)


def _labels(node):
    """node with each `_Table` replaced by its label rows, for the oracle.

    A dict with a key that is not a string goes to `json.dumps` whole, which
    knows no `_Table`, so it is left as it is: both sides raise TypeError.
    """
    if isinstance(node, qio._Table):
        return node.labels()
    if isinstance(node, dict):
        if not all(type(k) is str for k in node):
            return node
        return {k: _labels(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return type(node)(map(_labels, node))
    return node


def streamed(data, block):
    """The pieces `write_json` hands over, joined, with blocks of `block` characters."""
    pieces = []
    with mock.patch.object(qio, "_BLOCK", block):
        write_json(data, pieces.append)
    assert all(pieces)
    return "".join(pieces)


@settings(max_examples=250, deadline=None)
@given(data=_TREES, block=st.sampled_from([1, 40, 1 << 16]))
def test_dump_json_matches_the_encoder_on_random_trees(data, block):
    """`dump_json`, and `write_json` in blocks of one character, of 40 (tables of 40 rows span
    several) and of the default size."""
    expected = _text_or_error(oracle, _labels(data))
    assert _text_or_error(dump_json, data) == expected
    assert _text_or_error(lambda d: streamed(d, block), data) == expected


def test_dump_json_writes_each_shape_as_the_encoder_does():
    """A string is not a row, a row of a string list is laid out, a one-char string stays whole."""
    for data in (
        ["ab", "c"],
        [["ab"], ("c", "d"), ["e"]],
        {"rows": [["a", "b", "c"]] * 3, "": [], "k": {}, "n": [1, [True, None, 2.5]]},
        [["a", 1], ["b"]],
        [[], ["a"]],
        {1: "a", 2: [["b"]]},
        ("x", ("y",)),
        10**50,
        "%s%%",
    ):
        assert dump_json(data) == oracle(data)


def old_groupoid_to_json(G, label=gen_label):
    arrows = [{"id": label(a), "src": label(G.src[a]), "tgt": label(G.tgt[a])} for a in G.arrows]
    compose = [
        [label(a), label(b), label(c)] for (a, b), c in sorted(
            G.comp_table.items(), key=lambda kv: (label(kv[0][0]), label(kv[0][1]))
        )
    ]
    return {
        "objects": [label(x) for x in G.objects],
        "arrows": arrows,
        "compose": compose,
        "inv": [[label(a), label(b)] for a, b in sorted(
            G.inv_table.items(), key=lambda kv: label(kv[0])
        )],
    }


def old_profunctor_to_json(P, label=gen_label):
    P = reference.pair_keyed(P)
    basis = {
        f"({li},{ri})": [label(b) for b in els] for (li, ri), els in sorted(P.basis.items())
    }
    left_act = [
        [label(g), label(b), label(out)]
        for (g, b), out in sorted(P.lact.items(), key=lambda kv: (label(kv[0][0]), label(kv[0][1])))
    ]
    right_act = [
        [label(b), label(h), label(out)]
        for (b, h), out in sorted(P.ract.items(), key=lambda kv: (label(kv[0][0]), label(kv[0][1])))
    ]
    return {
        "left": old_groupoid_to_json(P.left.groupoid, label),
        "right": old_groupoid_to_json(P.right.groupoid, label),
        "basis": basis,
        "leftAct": left_act,
        "rightAct": right_act,
    }


def old_colour_list(cols):
    return oracle({"colourings": [c.as_dict() for c in cols]})


CATALOG = cli._builders()
_GROUPS, _XMODS = cli._corpus_algebras()
CORPUS = {**{n: iota1(G) for n, G in _GROUPS.items()}, **{n: iota2(M) for n, M in _XMODS.items()}}
# 16 384 colourings: the oracle encoder alone takes about 1.5 s
SLOW_COLOUR_LISTS = {("prism-torus", "xmod-z4-z2-zero")}


@pytest.mark.parametrize(
    "space, algebra",
    [(s, a) for s in CATALOG for a in CORPUS if (s, a) not in SLOW_COLOUR_LISTS],
)
def test_colour_list_matches_the_encoder_on_the_catalog(space, algebra):
    """Library-built algebras: S3 elements are tuples, so leaves span several lines.  The
    `colour-list` writer, in blocks of about 2 kB, writes the same text."""
    X, A = CATALOG[space], CORPUS[algebra]
    cols = enumerate_colourings(X, A)
    expected = old_colour_list(cols)
    assert colour_list_json(X, A, cols) == expected
    pieces = []
    with mock.patch.object(qio, "_BLOCK", 2048):
        write_colour_list(Plan(X, A), pieces.append)
    assert "".join(pieces) == expected
    assert len(pieces) >= len(expected) // 4096


def _klein_level_two():
    """0: Z2 -> Z2 x Z2, whose level-2 elements are pairs."""
    z2 = cyclic_group(2)
    V = semidirect(z2, z2, {(e, g): e for e in z2.elements for g in z2.elements})
    return iota2(crossed_module_zero(z2, V))


def _odd_names():
    """A space and a group whose ids need escaping, or contain '%' or non-ASCII text."""
    X = SimpSet(
        {"v%s": 0, 'w"\\': 0, "e%%é": 1, "f☃": 1, "t%d": 2},
        {
            ("e%%é", 0): SimplexRef('w"\\'), ("e%%é", 1): SimplexRef("v%s"),
            ("f☃", 0): SimplexRef("v%s"), ("f☃", 1): SimplexRef("v%s"),
            ("t%d", 0): SimplexRef("f☃"), ("t%d", 1): SimplexRef("f☃"),
            ("t%d", 2): SimplexRef("f☃"),
        },
    )
    G = group_from_json({
        "elements": ["1", "%s", 'a"\\é'],
        "table": [["1", "%s", 'a"\\é'], ["%s", 'a"\\é', "1"], ['a"\\é', "1", "%s"]],
    })
    return X, iota2(crossed_module_zero(G, G))


COLOUR_LIST_EDGE_CASES = {
    "point, empty levels": lambda: (point(), CORPUS["z3"]),
    "truncation 2 on delta3": lambda: (standard_simplex(3), CORPUS["xmod-z2-id"]),
    "truncation 3 tower on delta3": lambda: (standard_simplex(3), abelian_tower()),
    "pair groupoid, tuple arrows": lambda: (torus(), iota1(pair_groupoid(2))),
    "pair level-2 elements": lambda: (standard_simplex(2), _klein_level_two()),
    "escaped and %-bearing ids": _odd_names,
}


@pytest.mark.parametrize("case", list(COLOUR_LIST_EDGE_CASES))
def test_colour_list_edge_cases_match_the_encoder(case):
    X, A = COLOUR_LIST_EDGE_CASES[case]()
    cols = enumerate_colourings(X, A)
    assert cols
    assert colour_list_json(X, A, cols) == old_colour_list(cols)
    assert colour_list_json(X, A, []) == old_colour_list([])
    with mock.patch.object(qio, "_BLOCK", 1):  # a block per row
        assert colour_list_json(X, A, cols) == old_colour_list(cols)


def test_colour_list_of_point_has_empty_levels():
    X, A = point(), CORPUS["z2"]
    text = colour_list_json(X, A, enumerate_colourings(X, A))
    assert '"levels": {}' in text and text == old_colour_list(enumerate_colourings(X, A))


def _colliding_groupoid():
    """Z3 on the arrows "1", ("a", "b") and "(a,b)": the last two share one label.

    Every composite of the two has the same sort key, so only a stable sort on
    the label pairs keeps the table order of the composites.
    """
    x, y = ("a", "b"), "(a,b)"
    arrows = ("1", x, y)
    comp = {
        (x, x): y, (x, y): "1", (y, x): "1", (y, y): x,
        ("1", "1"): "1", ("1", x): x, ("1", y): y, (x, "1"): x, (y, "1"): y,
    }
    src = {a: "o%\\é" for a in arrows}
    G = FinGroupoid(("o%\\é",), arrows, src, src, comp, {"o%\\é": "1"})
    assert gen_label(x) == gen_label(y)
    return G


def test_groupoid_with_colliding_labels_matches_the_old_emitter():
    G = _colliding_groupoid()
    assert dump_json(groupoid_to_json(G)) == oracle(old_groupoid_to_json(G))
    # sorting label triples instead would put the identity composites first
    tied = [c for a, b, c in groupoid_to_json(G)["compose"] if (a, b) == ("(a,b)", "(a,b)")]
    assert tied == ["(a,b)", "1", "1", "(a,b)"]


def test_products_table_with_colliding_labels_matches_the_old_emitter():
    """Z4 with its table given as `products`, g^2 and g^3 sharing one label: in g's
    composites those two tie, and they keep arrow order though their products differ."""
    arrows = ("1", "g", ("a", "b"), "(a,b)")  # the powers of g
    power = {a: n for n, a in enumerate(arrows)}
    table = {(a, b): arrows[(power[a] + power[b]) % 4] for a in arrows for b in arrows}
    products = [[power[table[(a, b)]] for b in arrows] for a in arrows]
    src = {a: "*" for a in arrows}
    D, H = (FinGroupoid(("*",), arrows, src, src, comp, {"*": "1"}) for comp in (table, products))
    assert list(H.comp_table.items()) == list(table.items())
    assert dump_json(groupoid_document(H)) == oracle(old_groupoid_to_json(D))
    assert groupoid_to_json(H) == groupoid_to_json(D)


def test_profunctor_with_colliding_labels_matches_the_old_emitter():
    """The hom profunctor of that groupoid: both actions are its composition table, and
    the action rows are sorted by the same label ranks as the table."""
    P = identity_profunctor(SimpleNamespace(groupoid=_colliding_groupoid()))
    data = profunctor_to_json(P)
    assert dump_json(data) == oracle(old_profunctor_to_json(P))
    for act in ("leftAct", "rightAct"):
        tied = [c for a, b, c in data[act] if (a, b) == ("(a,b)", "(a,b)")]
        assert tied == ["(a,b)", "1", "1", "(a,b)"]


def test_profunctor_json_keeps_the_table_order_of_tied_labels_that_do_not_commute():
    """The hom profunctor of S3 with its first two non-identity elements named ("p", "q")
    and "(p,q)": the two share one label and do not commute, so the four tied entries of
    each action are written in the composition table's order."""
    S3 = symmetric_group(3)
    first, second = [e for e in S3.elements if e != S3.unit][:2]
    name = {**{e: e for e in S3.elements}, first: ("p", "q"), second: "(p,q)"}
    arrows = tuple(name[e] for e in S3.elements)
    comp = {(name[a], name[b]): name[S3.mul(a, b)] for a in S3.elements for b in S3.elements}
    src = {a: "o" for a in arrows}
    G = FinGroupoid(("o",), arrows, src, src, comp, {"o": name[S3.unit]})
    assert comp[(name[first], name[second])] != comp[(name[second], name[first])]
    data = profunctor_to_json(identity_profunctor(SimpleNamespace(groupoid=G)))
    digest = hashlib.sha256(dump_json(data).encode()).hexdigest()
    assert digest == "d2686ef4c91a4a97fa3fd81827d34abc99ecb28b857223ee505dfeeefd4c5fa2"
    for act in ("leftAct", "rightAct"):
        tied = [c for a, b, c in data[act] if (a, b) == ("(p,q)", "(p,q)")]
        assert tied == ["(0,1,2)", "(1,2,0)", "(2,0,1)", "(0,1,2)"]


@pytest.mark.parametrize(
    "space, algebra",
    [("circle", a) for a in CORPUS] + [("prism-circle", "z4")],
)
def test_groupoid_to_json_matches_the_old_emitter(space, algebra):
    G = crs_pi1(CATALOG[space], CORPUS[algebra]).groupoid
    assert dump_json(groupoid_to_json(G)) == oracle(old_groupoid_to_json(G))


@pytest.mark.parametrize(
    "cylinder, algebra",
    # prism-torus with a crossed module takes 1.4-6 s, with 0:Z2->Z4 over 30 s
    [(c, a) for c in ("prism-point", "prism-circle") for a in ("z2", "s3", "xmod-z2-id")]
    + [("prism-torus", "z2"), ("prism-torus", "z4")],
)
def test_profunctor_to_json_matches_the_old_emitter(cylinder, algebra):
    P = cobordism_profunctor(CATALOG[cylinder], CORPUS[algebra])
    assert dump_json(profunctor_to_json(P)) == oracle(old_profunctor_to_json(P))


# -- the same through the command line, on files ------------------------------------------


@pytest.fixture(scope="module")
def catalog_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("catalog")
    out = {}
    for name, X in CATALOG.items():
        out[name] = root / f"{name}.json"
        out[name].write_text(dump_json(simpset_to_json(X, name=name)))
    for name, G in _GROUPS.items():
        out[name] = root / f"{name}.json"
        out[name].write_text(dump_json(group_to_json(G)))
    for name, M in _XMODS.items():
        out[name] = root / f"{name}.json"
        out[name].write_text(dump_json(crossed_module_to_json(M)))
    return {k: str(v) for k, v in out.items()}


def run_capturing(monkeypatch, capsys, name, argv):
    """Run the CLI; return its stdout and the value its call of cli.<name> returned."""
    seen, real = [], getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: seen.append(real(*args)) or seen[-1])
    assert cli.main(argv) == 0
    return capsys.readouterr().out, seen[0]


def test_ext_groupoid_cli_matches_the_old_emitter(catalog_files, monkeypatch, capsys):
    """prism-circle x S3: 1 296 arrows and 46 656 composites with long tuple ids."""
    argv = ["ext-groupoid", "--space", catalog_files["prism-circle"], "--algebra", catalog_files["s3"]]
    out, crs = run_capturing(monkeypatch, capsys, "crs_pi1", argv)
    label = lru_cache(maxsize=None)(gen_label)  # a pure function: caching changes no label
    data = old_groupoid_to_json(crs.groupoid, label)
    data["components"] = [list(map(gen_label, comp)) for comp in crs.components()]
    assert out == oracle(data)


def test_the_ext_groupoid_writer_builds_no_table_dict():
    """The table is written from the arrows' products, and the groupoid holds no dict of it:
    none of its dicts has more entries than it has arrows."""
    G = crs_pi1(CATALOG["prism-circle"], CORPUS["z4"]).groupoid
    text = dump_json(groupoid_document(G))
    assert all(len(v) <= len(G.arrows) for v in vars(G).values() if isinstance(v, dict))
    assert text == oracle(old_groupoid_to_json(G))


@pytest.mark.parametrize("cylinder", ["prism-point", "prism-circle", "prism-torus"])
def test_profunctor_cli_matches_the_old_emitter(catalog_files, monkeypatch, capsys, cylinder):
    argv = ["profunctor", "--cobordism", catalog_files[cylinder], "--algebra", catalog_files["s3"]]
    out, P = run_capturing(monkeypatch, capsys, "cobordism_profunctor", argv)
    assert out == oracle(old_profunctor_to_json(P))


@pytest.mark.parametrize("space", ["point", "circle", "torus", "delta2", "prism-circle"])
@pytest.mark.parametrize("algebra", ["s3", "xmod-z2-z2-zero"])
def test_colour_list_cli_matches_the_encoder(catalog_files, monkeypatch, capsys, space, algebra):
    argv = ["colour-list", "--space", catalog_files[space], "--algebra", catalog_files[algebra]]
    assert cli.main(argv) == 0
    X, A = cli._load_space(catalog_files[space]), cli._load_algebra(catalog_files[algebra])
    assert capsys.readouterr().out == old_colour_list(enumerate_colourings(X, A))


def test_colour_list_cli_builds_no_colouring(catalog_files, monkeypatch, capsys):
    """The rows are written from the walk's value vectors: no `Colouring`, no values dict."""

    def refuse(*args):
        raise AssertionError("a colouring was built")

    monkeypatch.setattr(Colouring, "__init__", refuse)
    monkeypatch.setattr(Plan, "_decode", property(refuse))
    argv = ["colour-list", "--space", catalog_files["prism-circle"], "--algebra", catalog_files["s3"]]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.count('"vertices"') == 36


# the three prism-torus crossed-module state spaces take 3-7 s each
SLOW_STATE_SPACES = {("prism-torus", a) for a in _XMODS} | {("delta3", "xmod-z4-z2-zero")}


@pytest.mark.parametrize(
    "space, algebra",
    [(s, a) for s in CATALOG for a in CORPUS if (s, a) not in SLOW_STATE_SPACES],
)
def test_state_space_cli_matches_the_encoder(catalog_files, monkeypatch, capsys, space, algebra):
    argv = ["state-space", "--space", catalog_files[space], "--algebra", catalog_files[algebra]]
    out, ss = run_capturing(monkeypatch, capsys, "state_space", argv)
    data = {
        "dimension": ss.dim,
        "classes": [
            {
                "representative": ss.representative(ci).as_dict(),
                "size": len(ss.classes[ci]),
                "content": scalar_str(ss.class_content(ci)),
            }
            for ci in range(ss.dim)
        ],
    }
    assert out == oracle(data)
