"""Fillings stay colouring keys from the walk to the partition.

A `Colouring` is built only for a class representative or where a caller
reads `colourings`, a `HomotopySequence` only where a caller reads
`arrow_reps` or `deltas`, and no filling is keyed again by `colouring_key`.
Each constructor and decoder is wrapped with a counter.
"""
import pytest

import quinncalc.colouring as colouring
import quinncalc.homotopy as homotopy
from quinncalc.colouring import Colouring, Plan
from quinncalc.extprof import cobordism_profunctor
from quinncalc.finalg import crossed_module_zero, cyclic_group, iota1, iota2, symmetric_group
from quinncalc.homotopy import crs_pi1, rel_classes
from quinncalc.simpset import circle, torus
from quinncalc.tqft import state_space
from tests.test_homotopy import _cylinder


@pytest.fixture
def calls(monkeypatch):
    """Counts of `Colouring` constructions and of `colouring_key` and `homotopy._sequence` calls."""
    counts = {"Colouring": 0, "colouring_key": 0, "_sequence": 0}
    init = Colouring.__init__

    def counted_init(self, *args):
        counts["Colouring"] += 1
        init(self, *args)

    monkeypatch.setattr(Colouring, "__init__", counted_init)
    for module, name in ((colouring, "colouring_key"), (homotopy, "colouring_key"), (homotopy, "_sequence")):
        real = getattr(module, name)

        def counted(*args, real=real, name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_a_cobordism_profunctor_decodes_one_colouring_per_basis_element(calls):
    M, A = _cylinder("double-cylinder"), iota1(symmetric_group(3))
    fillings = Plan(M, A).count()
    P = cobordism_profunctor(M, A)
    assert len(P.elements()) < fillings
    assert calls == {"Colouring": len(P.elements()), "colouring_key": 0, "_sequence": 0}


def test_a_state_space_decodes_only_what_is_read(calls):
    ss = state_space(torus(), iota1(symmetric_group(3)))
    assert calls == {"Colouring": 0, "colouring_key": 0, "_sequence": 0}
    rep = ss.representative(1)
    assert calls["Colouring"] == 1
    assert ss.colourings[ss.classes[1][0]].values == rep.values
    assert calls["Colouring"] == 1 + len(ss.keys)
    assert ss.colourings is ss.colourings


def test_crs_pi1_decodes_no_homotopy_until_one_is_read(calls):
    crs = crs_pi1(circle(), iota2(crossed_module_zero(cyclic_group(4), cyclic_group(2))))
    assert calls == {"Colouring": 0, "colouring_key": 0, "_sequence": 0}
    arrows = crs.groupoid.arrows
    assert [H.key() for H in crs.arrow_reps.values()] == [a[2] for a in arrows]
    assert calls["_sequence"] == len(arrows)
    assert {t: [d.key() for d in ds] for t, ds in crs.deltas.items()} == crs.delta_keys
    assert calls["_sequence"] == len(arrows) + sum(map(len, crs.delta_keys.values()))
    assert calls["Colouring"] == len(crs.keys)


def test_rel_classes_keys_no_filling(calls):
    M, A = _cylinder("double-cylinder"), iota1(symmetric_group(3))
    plan = Plan(M, A)
    classes, class_of = rel_classes(plan, A, M.boundary_gens(), plan.keys())
    assert len(classes) < len(class_of)
    assert calls == {"Colouring": 0, "colouring_key": 0, "_sequence": 0}
