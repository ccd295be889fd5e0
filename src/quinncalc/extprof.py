"""Once-extended assignments: groupoid-valued boundaries, profunctors for
cobordisms, coend composition, and natural-transformation matrices for
windows.

A profunctor here is contravariant on the left, and it holds one map of
basis elements per arrow: `lact[g]` transports each basis element of
(tgt g, y) to one of (src g, y), and `ract[h]` each of (x, src h) to one of
(x, tgt h).  For a cobordism the basis over a pair of boundary colourings is
the set of classes of fillings relative to the boundary, from one walk and
one partition of all the fillings' keys, filed by their values at the
boundary.  A transport moves the key of a class representative along a
boundary homotopy, extended by identities on the interior, on the boundary
slots and their star; it is evaluated only for the generators of each
boundary groupoid and composed along the other arrows.  The coend of two
profunctors links its nodes along the generators of the middle groupoid.
Naturality of a window's 2-cell is checked on the squares of generators.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .colouring import Colouring, Plan, value_of_ref
from .errors import BoundaryError
from .finalg.crossed import CrossedComplex
from .finalg.groupoids import partition
from .homotopy import CrsResult, crs_pi1, rel_classes
from .simpset import Stratification, Window
from .tqft import theta_weight


@dataclass
class Profunctor:
    left: CrsResult
    right: CrsResult
    basis: dict  # (li, ri) -> tuple of element ids
    lact: dict  # left arrow g -> {elem over (tgt g, y): elem over (src g, y)}
    ract: dict  # right arrow h -> {elem over (x, src h): elem over (x, tgt h)}
    sizes: dict = field(default_factory=dict)  # elem -> class size (cobordism case)
    reps: dict = field(default_factory=dict)  # elem -> representative filling or node
    members: dict = field(default_factory=dict)  # elem -> class member nodes (coend case)

    def pairs(self):
        return sorted(self.basis)

    def elements(self):
        return tuple(e for p in self.pairs() for e in self.basis[p])

    def dim(self, li, ri):
        return len(self.basis.get((li, ri), ()))

    def transport(self, eta, b, zeta):
        """basis(tgt eta, src zeta) -> basis(src eta, tgt zeta)."""
        return self.ract[zeta][self.lact[eta][b]]

    def check_functorial(self) -> bool:
        """Identities, every table entry of each side, and the squares over each basis pair."""
        GL, GR, lact, ract = self.left.groupoid, self.right.groupoid, self.lact, self.ract
        on_left, on_right = {x: [] for x in GL.objects}, {y: [] for y in GR.objects}
        for (x, y), els in self.basis.items():
            on_left[x] += els
            on_right[y] += els
            if any(lact[GL.ident[x]][b] != b or ract[GR.ident[y]][b] != b for b in els):
                return False
        for g1, g2, g12 in GL.entries():
            if els := on_left[GL.tgt[g2]]:
                t1, t2, t12 = lact[g1], lact[g2], lact[g12]
                if any(t12[b] != t1[t2[b]] for b in els):
                    return False
        for h1, h2, h12 in GR.entries():
            if els := on_right[GR.src[h1]]:
                t1, t2, t12 = ract[h1], ract[h2], ract[h12]
                if any(t12[b] != t2[t1[b]] for b in els):
                    return False
        for (x, y), els in self.basis.items():
            for g in GL.arrows_into(x) if els else ():
                tg = lact[g]
                for h in GR.arrows_from(y):
                    th = ract[h]
                    if any(th[tg[b]] != tg[th[b]] for b in els):
                        return False
        return True


def identity_profunctor(crs: CrsResult) -> Profunctor:
    """The hom profunctor of a groupoid: basis(x, y) = arrows x -> y."""
    G = crs.groupoid
    basis = {(x, y): G.arrows_between(x, y) for x in G.objects for y in G.objects}
    sizes = {b: 1 for b in G.arrows}
    # g acts on b by g.b on the left and b.g on the right: both are read off the composition table
    lact, ract = {g: {} for g in G.arrows}, {h: {} for h in G.arrows}
    for a, b, c in G.entries():
        lact[a][b] = ract[b][a] = c
    return Profunctor(crs, crs, basis, lact, ract, sizes)


def cobordism_profunctor(M: Stratification, A: CrossedComplex) -> Profunctor:
    """The profunctor of a stratified cobordism with tagged in/out boundaries.

    One walk of filling keys and one `rel_classes` find all classes: a move fixes
    the face-closed boundary, so each lies over the boundary pair its least
    member's key holds, numbered there by least member, and only it is decoded.
    """
    X = M.simpset
    in_gens, out_gens = M.tagged("in"), M.tagged("out")
    if in_gens & out_gens:
        raise BoundaryError("in and out subcomplexes must be disjoint")
    sub_in, sub_out = X.restrict(in_gens), X.restrict(out_gens)
    left, right = crs_pi1(sub_in, A), crs_pi1(sub_out, A)
    GL, GR = left.groupoid, right.groupoid
    plan = Plan(X, A)
    keys = plan.keys()
    classes, class_of = rel_classes(plan, A, in_gens | out_gens, keys)
    reps = [keys[members[0]] for members in classes]
    at_in, at_out = ([X.gen_index(g) for g in sub.all_gens()] for sub in (sub_in, sub_out))
    over = {(x, y): [] for x in GL.objects for y in GR.objects}
    for ci, rep in enumerate(reps):
        x = left._index[tuple(rep[p] for p in at_in)]
        over[(x, right._index[tuple(rep[p] for p in at_out)])].append(ci)
    eid = {ci: (*pair, j) for pair, cis in over.items() for j, ci in enumerate(cis)}
    basis = {pair: tuple(eid[ci] for ci in cis) for pair, cis in over.items()}
    sizes = {eid[ci]: len(classes[ci]) for ci in eid}
    decoded = {eid[ci]: Colouring(X, A, plan._decode(reps[ci])) for ci in eid}
    over_left = {x: [ci for y in GR.objects for ci in over[(x, y)]] for x in GL.objects}
    over_right = {y: [ci for x in GL.objects for ci in over[(x, y)]] for y in GR.objects}
    move_in = _transports(left, plan, over_left, reps, class_of)
    move_out = _transports(right, plan, over_right, reps, class_of)
    on_left = {x: [eid[ci] for ci in cis] for x, cis in over_left.items()}
    on_right = {y: [eid[ci] for ci in cis] for y, cis in over_right.items()}
    lact = {g: dict(zip(on_left[GL.tgt[g]], map(on_left[GL.src[g]].__getitem__, move_in[g])))
            for g in GL.arrows}
    # a right transport along h is the transport along its inverse
    ract = {h: dict(zip(on_right[GR.src[h]], map(on_right[GR.tgt[h]].__getitem__, move_out[GR.inv(h)])))
            for h in GR.arrows}
    return Profunctor(left, right, basis, lact, ract, sizes, decoded)


def _transports(crs: CrsResult, plan: Plan, over: dict, reps: list, class_of: dict) -> dict:
    """arrow -> T: the transports along the arrows of the groupoid of one boundary.

    `over[x]` lists the classes of fillings whose boundary colouring there
    is the object x, `reps[ci]` is the representative key of the class ci
    and `class_of` the class of each filling key.  A transport along an
    arrow takes the classes over its target to those over its source: T[i]
    is the position in over[source] of the transport of the i-th class over
    the target.  Transports compose, T(g . a) = T(g) o T(a),
    so only the generators of the groupoid are evaluated: the representative
    homotopy of a generator, extended by identities off the boundary, moves
    the key of each representative (`homotopy._Moves.mover`, which rewrites
    the boundary slots and their star), and the moved key names its class.  A
    generator's inverse is the inverse permutation.  Every other arrow is
    g . a for a generator or inverse g and an arrow a already done, breadth
    first from the identities: Schreier vectors (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005, section 4.1).
    """
    G, X, gens = crs.groupoid, plan.X, crs.X.all_gens()
    slots = [(i, X.gen_index(gens[i])) for i, _, _ in crs._plan.layout(1)]
    move = plan.moves.mover(p for _, p in slots)
    position = {ci: i for cis in over.values() for i, ci in enumerate(cis)}
    done = {G.ident[x]: list(range(len(over[x]))) for x in G.objects}
    into = {}  # object -> the generators and their inverses that end there
    for g in G.generators:
        g_inv = G.inv(g)
        if g not in done:
            h = {p: g[2][i] for i, p in slots}
            t = done[g] = [position[class_of[move(reps[ci], h)]] for ci in over[G.tgt[g]]]
            done[g_inv] = back = [0] * len(t)
            for i, j in enumerate(t):
                back[j] = i
        into.setdefault(G.tgt[g], []).append(g)
        into.setdefault(G.tgt[g_inv], []).append(g_inv)
    frontier = list(done)
    while frontier:
        new = []
        for a in frontier:
            ta = done[a]
            for g in into.get(G.src[a], ()):
                c = G.comp(g, a)
                if c not in done:
                    tg = done[g]
                    done[c] = [tg[j] for j in ta]
                    new.append(c)
        frontier = new
    return done


def _aligned(crs1: CrsResult, crs2: CrsResult) -> bool:
    return crs1.keys == crs2.keys and set(crs1.groupoid.arrows) == set(crs2.groupoid.arrows)


def reverse_profunctor(P: Profunctor) -> Profunctor:
    """The reverse profunctor, transporting along inverted arrows."""
    GL, GR = P.left.groupoid, P.right.groupoid
    basis = {(y, x): els for (x, y), els in P.basis.items()}
    # an arrow's map is read only when an element lies over its end; with none there it is empty
    xs, ys = {x for (x, _), els in P.basis.items() if els}, {y for (_, y), els in P.basis.items() if els}
    lact = {h: P.ract[GR.inv(h)] if GR.tgt[h] in ys else {} for h in GR.arrows}
    ract = {g: P.lact[GL.inv(g)] if GL.src[g] in xs else {} for g in GL.arrows}
    return Profunctor(P.right, P.left, basis, lact, ract, dict(P.sizes), dict(P.reps))


def compose_profunctors(P: Profunctor, Q: Profunctor) -> Profunctor:
    """Coend composite over the middle groupoid, by orbit identification.

    Nodes (p.h, q) ~ (p, h.q) are linked only for the generators h: links along
    h1 h2 follow, (p.h1.h2, q) ~ (p.h1, h2.q) ~ (p, h1.h2.q), and so do links
    along inverses, which are the generators' links read backwards."""
    if not _aligned(P.right, Q.left):
        raise BoundaryError("middle groupoids do not match")
    GL, GM, GR = P.left.groupoid, P.right.groupoid, Q.right.groupoid
    basis, lact, ract = {}, {g: {} for g in GL.arrows}, {k: {} for k in GR.arrows}
    node_class: dict = {}
    class_reps: dict = {}
    class_members: dict = {}
    for x in GL.objects:
        for z in GR.objects:
            nodes = sorted(
                (y, p, q)
                for y in GM.objects
                for p in P.basis.get((x, y), ())
                for q in Q.basis.get((y, z), ())
            )
            index = {n: i for i, n in enumerate(nodes)}
            links = []
            for h in GM.generators:
                y1, y2 = GM.src[h], GM.tgt[h]
                ps, qs = P.basis.get((x, y1), ()), Q.basis.get((y2, z), ())
                if ps and qs:
                    ph, hq = P.ract[h], Q.lact[h]
                    links += [(index[(y2, ph[p], q)], index[(y1, p, hq[q])])
                              for p in ps for q in qs]
            ids = []
            for ci, members in enumerate(partition(len(nodes), links)):
                eid = (x, z, ci)
                ids.append(eid)
                class_reps[eid] = nodes[members[0]]
                class_members[eid] = tuple(nodes[i] for i in members)
                for i in members:
                    node_class[(x, z, nodes[i])] = eid
            basis[(x, z)] = tuple(ids)
    for (x, z), ids in basis.items():
        for eid in ids:
            y, p, q = class_reps[eid]
            for g in GL.arrows_into(x):
                lact[g][eid] = node_class[(GL.src[g], z, (y, P.lact[g][p], q))]
            for k in GR.arrows_from(z):
                ract[k][eid] = node_class[(x, GR.tgt[k], (y, p, Q.ract[k][q]))]
    return Profunctor(
        P.left, Q.right, basis, lact, ract, reps=class_reps, members=class_members
    )


def profunctor_iso_check(P: Profunctor, Q: Profunctor):
    """Equivariant family of basis bijections, or None.

    Requires identical boundary groupoids (same object and arrow ids).
    Images propagate through the transports, so the search branches only
    over orbit representatives.
    """
    GL = P.left.groupoid
    if set(GL.arrows) != set(Q.left.groupoid.arrows):
        return None
    if set(P.right.groupoid.arrows) != set(Q.right.groupoid.arrows):
        return None
    for pair in set(P.basis) | set(Q.basis):
        if len(P.basis.get(pair, ())) != len(Q.basis.get(pair, ())):
            return None

    GRo = P.right.groupoid
    assignment = {}

    def propagate(pair, b, image):
        """Close the candidate under all transports; roll back on clash."""
        stack = [(pair, b, image)]
        added = []
        while stack:
            pr, e, im = stack.pop()
            if (pr, e) in assignment:
                if assignment[(pr, e)] != (pr, im):
                    for key in added:
                        del assignment[key]
                    return None
                continue
            assignment[(pr, e)] = (pr, im)
            added.append((pr, e))
            x, y = pr
            for g in GL.arrows_into(x):
                stack.append(((GL.src[g], y), P.lact[g][e], Q.lact[g][im]))
            for h in GRo.arrows_from(y):
                stack.append(((x, GRo.tgt[h]), P.ract[h][e], Q.ract[h][im]))
        return added

    slots = [(pair, e) for pair in sorted(P.basis) for e in P.basis[pair]]

    def injective():
        return len(set(assignment.values())) == len(assignment)

    def backtrack(k):
        while k < len(slots) and slots[k] in assignment:
            k += 1
        if k == len(slots):
            return injective()
        pair, e = slots[k]
        used = {im for (pr, _), (pr2, im) in assignment.items() if pr2 == pair}
        for im in Q.basis[pair]:
            if im in used:
                continue
            added = propagate(pair, e, im)
            if added is None:
                continue
            if injective() and backtrack(k + 1):
                return True
            for key in added:
                del assignment[key]
        return False

    if backtrack(0):
        return {slot: assignment[slot][1] for slot in slots}
    return None


# -- natural transformations -------------------------------------------------------


@dataclass
class NatTransform:
    top: Profunctor
    bottom: Profunctor
    blocks: dict  # (li, ri) -> matrix: rows top basis, cols bottom basis

    def entry(self, pair, i, j):
        return self.blocks[pair][i][j]

    def is_identity(self) -> bool:
        for pair, m in self.blocks.items():
            tb, bb = self.top.basis[pair], self.bottom.basis[pair]
            if len(tb) != len(bb):
                return False
            for i in range(len(tb)):
                for j in range(len(bb)):
                    if m[i][j] != Fraction(int(i == j)):
                        return False
        return True

    def naturality_check(self) -> bool:
        """phi(transported b) against transported phi(b), on the squares of generators.

        Both profunctors are functors: transports along a composite compose,
        and along an inverse they invert.  So if the squares of two arrows
        commute, so do those of their composite and of their inverses, and
        the square of (eta, zeta) is that of (eta, identity) followed by that
        of (identity, zeta).  The squares of (generator, identity) and
        (identity, generator), over the generators of each boundary groupoid
        (`FinGroupoid.generators`) and every object of the other, therefore
        decide naturality for every pair of arrows.
        """
        GL = self.top.left.groupoid
        GR = self.top.right.groupoid
        tpos, bpos = _positions(self.top), _positions(self.bottom)
        squares = [(g, GR.ident[y]) for g in GL.generators for y in GR.objects]
        squares += [(GL.ident[x], h) for h in GR.generators for x in GL.objects]
        for eta, zeta in squares:
            src_pair = (GL.tgt[eta], GR.src[zeta])
            dst_pair = (GL.src[eta], GR.tgt[zeta])
            for b in self.top.basis.get(src_pair, ()):
                tb = self.top.transport(eta, b, zeta)
                moved_row = self.blocks[dst_pair][tpos[dst_pair][tb]]
                row = self.blocks[src_pair][tpos[src_pair][b]]
                for bp in self.bottom.basis.get(src_pair, ()):
                    tbp = self.bottom.transport(eta, bp, zeta)
                    if moved_row[bpos[dst_pair][tbp]] != row[bpos[src_pair][bp]]:
                        return False
        return True


def _positions(P: Profunctor) -> dict:
    """pair -> {basis element: its position in the basis of the pair}."""
    return {pair: {b: i for i, b in enumerate(els)} for pair, els in P.basis.items()}


def _frame_map(X, A, H: Colouring, images: dict, sides: dict) -> dict:
    """The values of H, a colouring of X, at the frame `images` of its generators up to the truncation.

    Frame generators on `sides` are left out: `_frames` reads them once per pair."""
    out = {}
    for g, zg in images.items():
        if zg not in sides and X.dim_of[g] <= max(1, A.truncation):
            if out.setdefault(zg, H.values[g]) != H.values[g]:
                raise BoundaryError("inconsistent frame colouring")
    return out


def _frames(W: Window, A, top: Profunctor, bottom: Profunctor, pair) -> tuple:
    """(sides, tops, bottoms): the frame values of W over a boundary pair, in three disjoint parts.

    The sides project to the boundary, where every representative over the
    pair has the pair's colourings, so they are read once, from those.
    `tops` and `bottoms` hold each representative's other values, in basis
    order.  A frame is {**sides, **tops[i], **bottoms[j]}, one order for
    every entry, so one pin set (`Plan._pins`).
    """
    values = {**top.left.colourings[pair[0]].values, **top.right.colourings[pair[1]].values}
    sides = {zg: value_of_ref(W.top_cob.simpset, A, values, ref) for zg, ref in (W.east_proj | W.west_proj).items()
             if W.simpset.dim_of[zg] <= max(1, A.truncation)}
    tops = [_frame_map(W.top_cob.simpset, A, top.reps[b], W.top_map, sides) for b in top.basis[pair]]
    bottoms = [_frame_map(W.bottom_cob.simpset, A, bottom.reps[b], W.bottom_map, sides)
               for b in bottom.basis[pair]]
    return sides, tops, bottoms


def window_nat_transform(W: Window, A: CrossedComplex) -> NatTransform:
    """Matrix blocks of the 2-cell of a window, per boundary colouring pair.

    The entry at (class of top filling H, class of bottom filling H') is the
    count of fillings of the window support extending the frame colouring
    assembled from H and H' (sides extended constantly), weighted by the
    relative Theta product of the support and the content of the class of H'
    relative to the boundary.  The frame values on the sides are read once
    per pair, those of each representative once (`_frames`), and each entry
    merges three parts.
    """
    top = cobordism_profunctor(W.top_cob, A)
    bottom = cobordism_profunctor(W.bottom_cob, A)
    if not _aligned(top.left, bottom.left) or not _aligned(top.right, bottom.right):
        raise BoundaryError("window top and bottom have different boundaries")
    plan = Plan(W.simpset, A)
    theta_support = theta_weight(W.simpset, A, W.frame_gens())
    bottom_rel = theta_weight(W.bottom_cob.simpset, A, W.bottom_cob.boundary_gens())
    blocks = {}
    for pair in top.pairs():
        sides, tops, bottoms = _frames(W, A, top, bottom, pair)
        blocks[pair] = [
            [plan.count({**sides, **H_t, **H_b}) * theta_support * bottom.sizes[bp] * bottom_rel
             for H_b, bp in zip(bottoms, bottom.basis[pair])]
            for H_t in tops
        ]
    return NatTransform(top, bottom, blocks)


def vertical_compose_nat(a: NatTransform, b: NatTransform) -> NatTransform:
    """Blockwise matrix product of 2-cells sharing their middle profunctor."""
    for pair in a.bottom.basis:
        if a.bottom.basis[pair] != b.top.basis.get(pair, ()):
            raise BoundaryError("middle profunctors of the 2-cells do not match")
    blocks = {}
    for pair, rows in a.top.basis.items():
        mids, cols = a.bottom.basis[pair], b.bottom.basis[pair]
        blocks[pair] = [
            [
                sum(a.blocks[pair][i][k] * b.blocks[pair][k][j] for k in range(len(mids)))
                for j in range(len(cols))
            ]
            for i in range(len(rows))
        ]
    return NatTransform(a.top, b.bottom, blocks)


def horizontal_compose_nat(a: NatTransform, b: NatTransform) -> NatTransform:
    """2-cell between composite profunctors, entrywise over the coend classes.

    An entry sums the products of the factor entries over the members of the
    column class that share the middle object of the row representative.
    """
    top = compose_profunctors(a.top, b.top)
    bottom = compose_profunctors(a.bottom, b.bottom)

    def entries(nt):
        rows, cols = _positions(nt.top), _positions(nt.bottom)
        return lambda pair, r, c: nt.blocks[pair][rows[pair][r]][cols[pair][c]]

    a_entry, b_entry = entries(a), entries(b)

    blocks = {}
    for pair, rows in top.basis.items():
        x, z = pair
        cols = bottom.basis[pair]
        m = []
        for row in rows:
            y, p, q = top.reps[row]
            out_row = []
            for col in cols:
                total = Fraction(0)
                for (y2, p2, q2) in bottom.members[col]:
                    if y2 != y:
                        continue
                    total += a_entry((x, y), p, p2) * b_entry((y, z), q, q2)
                out_row.append(total)
            m.append(out_row)
        blocks[pair] = m
    return NatTransform(top, bottom, blocks)
