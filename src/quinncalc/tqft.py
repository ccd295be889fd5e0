"""State spaces, cobordism matrices and closed invariants.

All weights are alternating products of level sizes of the coefficient
complex, counted against the numbers of internal nondegenerate simplices of
the stratification; everything is exact rational unless the s-parameter
forces an irrational power, in which case a float channel (relative
precision 1e-12) takes over.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .colouring import Colouring, Plan
from .errors import BoundaryError, ExactnessError
from .finalg.crossed import CrossedComplex
from .homotopy import rel_classes
from .simpset import SimpSet, Stratification

FLOAT_RTOL = 1e-12


def _iroot(n: int, q: int):
    """Exact integer q-th root of n >= 0, or None."""
    if n < 0:
        return None
    if n < 2:
        return n
    if q == 2:
        r = math.isqrt(n)
    else:  # integer Newton iteration from above converges to the floor root
        r = 1 << -(-n.bit_length() // q)
        while True:
            s = ((q - 1) * r + n // r ** (q - 1)) // q
            if s >= r:
                break
            r = s
    return r if r**q == n else None


def rational_pow(base: Fraction, expo: Fraction, exact_only=False):
    """base**expo, exactly when possible, otherwise as a float."""
    base, expo = Fraction(base), Fraction(expo)
    if base == 1 or expo == 0:
        return Fraction(1)
    if base == 0:
        if expo < 0:
            raise ZeroDivisionError("0 to a negative power")
        return Fraction(0)
    if expo.denominator == 1:
        return base ** int(expo)
    q = expo.denominator
    num, den = _iroot(base.numerator, q), _iroot(base.denominator, q)
    if num is not None and den is not None:
        return Fraction(num, den) ** expo.numerator
    if exact_only:
        raise ExactnessError(f"{base}**{expo} is not rational")
    try:
        fbase = float(base)
    except OverflowError:
        fbase = math.inf
    try:
        if fbase == 0.0 or math.isinf(fbase):
            # outside float range: go through the logarithms of the exact integers
            return math.exp(float(expo) * (math.log(base.numerator) - math.log(base.denominator)))
        return fbase ** float(expo)
    except OverflowError:
        raise ExactnessError(f"{base}**{expo} is not rational and lies outside float range") from None


def theta_weight(X: SimpSet, A: CrossedComplex, sub=frozenset()) -> Fraction:
    """The Theta product of the cells of X outside the subcomplex sub.

    It is prod_k (prod_i |A_{i+k}|^(c_i))^((-1)^k), where c_i counts the
    i-cells outside sub; the formula needs a reduced complex.
    """
    counts = {i: X.k_count_rel(i, sub) if sub else X.k_count(i) for i in range(X.dim + 1)}
    if not A.is_reduced:
        raise ValueError("closed weight formulas need a reduced coefficient complex")
    out = Fraction(1)
    for k in range(1, A.truncation + 1):
        inner = 1
        for i, c in counts.items():
            inner *= A.level_size(i + k) ** c
        out *= Fraction(inner) ** ((-1) ** k)
    return out


class StateSpace:
    """Basis of homotopy classes of colourings of a closed stratified piece, held as keys."""

    def __init__(self, plan: Plan, keys: list, classes: tuple, class_of: dict):
        self.space, self.A, self._plan = plan.X, plan.A, plan
        self.keys, self.classes, self.class_of = keys, classes, class_of

    @property
    def dim(self):
        return len(self.classes)

    def class_content(self, ci) -> Fraction:
        """|class| times the Theta weight of the underlying space."""
        size = len(self.classes[ci])
        return size * theta_weight(self.space, self.A)

    @cached_property
    def colourings(self) -> list:
        return [Colouring(self.space, self.A, self._plan._decode(k)) for k in self.keys]

    def representative(self, ci) -> Colouring:
        return Colouring(self.space, self.A, self._plan._decode(self.keys[self.classes[ci][0]]))


def state_space(X, A: CrossedComplex) -> StateSpace:
    """Homotopy classes of colourings: pi_0 of the mapping space, as a partition."""
    plan = Plan(X, A)
    keys = plan.keys()
    return StateSpace(plan, keys, *rel_classes(plan, A, frozenset(), keys))


@dataclass
class QuinnMatrix:
    rows: StateSpace
    cols: StateSpace
    entries: list  # rows x cols of Fraction | float
    s: Fraction | float
    exact: bool

    def entry(self, i, j):
        return self.entries[i][j]

    def matmul(self, other: "QuinnMatrix") -> list:
        if self.cols.dim != other.rows.dim:
            raise BoundaryError("matrix shapes do not compose")
        return [
            [
                sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols.dim))
                for j in range(other.cols.dim)
            ]
            for i in range(self.rows.dim)
        ]

    def as_lists(self):
        return [list(r) for r in self.entries]


def quinn_matrix(M: Stratification, A: CrossedComplex, s=Fraction(0), exact_only=False) -> QuinnMatrix:
    """Matrix of the state sum for a stratified cobordism.

    Entry([f], [f']) counts the fillings of the cobordism extending class
    representatives f and f', weighted by the relative Theta product and by
    the class contents raised to s and 1-s.
    """
    if not A.is_reduced:
        raise ValueError("the exact matrix formulas need a reduced coefficient complex")
    if M.tagged("in") & M.tagged("out"):
        raise BoundaryError("in and out subcomplexes must be disjoint")
    s = Fraction(s) if not isinstance(s, float) else s
    if isinstance(s, float) and exact_only:
        raise ExactnessError("float s with exact-only requested")
    ss_in, ss_out = (state_space(M.simpset.restrict(M.tagged(t)), A) for t in ("in", "out"))
    plan = Plan(M.simpset, A)
    theta_rel = theta_weight(M.simpset, A, M.boundary_gens())
    entries = []
    exact = True
    outs = [ss_out.representative(cj).values for cj in range(ss_out.dim)]
    for ci in range(ss_in.dim):
        f = ss_in.representative(ci).values
        row = []
        for cj, fp in enumerate(outs):
            n = plan.count({**f, **fp})
            if n == 0:
                row.append(Fraction(0))
                continue
            b_in, b_out = ss_in.class_content(ci), ss_out.class_content(cj)
            if isinstance(s, float):
                val = float(n * theta_rel) * (float(b_in) ** s) * (float(b_out) ** (1.0 - s))
                exact = False
            else:
                ratio = rational_pow(b_in / b_out, s, exact_only=exact_only)
                val = n * theta_rel * b_out * ratio
                if not isinstance(ratio, Fraction):
                    exact = False
            row.append(val)
        entries.append(row)
    return QuinnMatrix(ss_in, ss_out, entries, s, exact)


def chi_pi_component(X, A: CrossedComplex, f) -> Fraction:
    """Class size of f times the Theta weight of X: the component content."""
    ss = state_space(X, A)
    if (ci := ss.class_of.get(f.key())) is None:
        raise ValueError("colouring not found")
    return ss.class_content(ci)


def chi_pi_rel_fibre(X, A: CrossedComplex, fixed: dict) -> Fraction:
    """Homotopy content of the space of fillings relative to fixed boundary values."""
    plan = Plan(X, A)
    n = plan.count(fixed)
    if n == 0:
        return Fraction(0)
    return n * theta_weight(plan.X, A, plan.X.subcomplex_closure(frozenset(fixed)))


def s_conjugation_check(Ms: QuinnMatrix, Mt: QuinnMatrix, exact_only=False) -> bool:
    """Whether Ms equals D_in^(s-t) Mt D_out^(t-s) entrywise."""
    if Ms.rows.dim != Mt.rows.dim or Ms.cols.dim != Mt.cols.dim:
        raise BoundaryError("matrix shapes differ")
    s, t = Ms.s, Mt.s
    for i in range(Ms.rows.dim):
        di = rational_pow(Ms.rows.class_content(i), Fraction(s) - Fraction(t), exact_only)
        for j in range(Ms.cols.dim):
            dj = rational_pow(Ms.cols.class_content(j), Fraction(t) - Fraction(s), exact_only)
            lhs = Ms.entry(i, j)
            rhs = di * Mt.entry(i, j) * dj
            if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
                if lhs != rhs:
                    return False
            else:
                if abs(float(lhs) - float(rhs)) > FLOAT_RTOL * max(1.0, abs(float(rhs))):
                    return False
    return True


def closed_invariant(X: SimpSet, A: CrossedComplex, s=Fraction(0)):
    """The 1x1 matrix entry of a closed stratified piece, exactly."""
    M = Stratification(X, {"in": frozenset(), "out": frozenset()})
    return quinn_matrix(M, A, s).entry(0, 0)
