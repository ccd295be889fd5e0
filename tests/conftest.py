import pytest

from quinncalc.finalg import (
    crossed_module_identity,
    crossed_module_zero,
    cyclic_group,
    iota2,
    symmetric_group,
)
from quinncalc.finalg.crossed import CrossedComplex
from quinncalc.finalg.groupoids import groupoid_from_group

# The desk-scale corpus used throughout the suite.


def corpus_groups():
    return [cyclic_group(2), cyclic_group(3), cyclic_group(4), symmetric_group(3)]


def corpus_crossed_modules():
    return [
        crossed_module_zero(cyclic_group(2), cyclic_group(2)),
        crossed_module_identity(cyclic_group(2)),
        crossed_module_zero(cyclic_group(4), cyclic_group(2)),
    ]


def abelian_tower():
    """0: Z2 -> Z2 with a trivially acted Z2 on top, zero boundaries (truncation 3)."""
    z2 = cyclic_group(2)
    A2 = iota2(crossed_module_zero(z2, z2))
    return CrossedComplex(
        A2.base,
        levels={2: {"*": z2}, 3: {"*": z2}},
        bdry={2: A2.bdry[2], 3: {("*", e): z2.unit for e in z2.elements}},
        act={2: A2.act[2], 3: {(("*", e), g): e for e in z2.elements for g in z2.elements}},
        truncation=3,
    )


def inversion_tower():
    """Z2 acting on Z3 by inversion at levels 2 and 3, with zero boundaries (truncation 3)."""
    z2, z3 = cyclic_group(2), cyclic_group(3)
    inv = {(e, g): e if g == 0 else (-e) % 3 for e in z3.elements for g in z2.elements}
    return CrossedComplex(
        groupoid_from_group(z2),
        levels={2: {"*": z3}, 3: {"*": z3}},
        bdry={2: {("*", e): 0 for e in z3.elements}, 3: {("*", e): 0 for e in z3.elements}},
        act={n: {(("*", e), g): inv[e, g] for e in z3.elements for g in z2.elements} for n in (2, 3)},
        truncation=3,
    )


@pytest.fixture(scope="session")
def groups():
    return corpus_groups()


@pytest.fixture(scope="session")
def crossed_modules():
    return corpus_crossed_modules()


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def z2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def z3():
    return cyclic_group(3)


@pytest.fixture(scope="session")
def z4():
    return cyclic_group(4)
