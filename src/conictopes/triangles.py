"""Classification of involution triples and the exhaustive sweep machinery.

A triple of off-conic points (P, Q, R) determines three involutions of the
conic stabilizer.  Its class records the geometry that matters for the
rank-3 coset geometry built on them:

    Collinear             centers on one line (never a hypertope),
    SelfPolar             the three involutions commute pairwise (Klein four),
    NonProperPolarizedOK  some vertex's polar is the opposite side line, yet
                          the central involution falls outside the dihedral
                          group of the other two (a hypertope),
    NonProperViolating    the same configuration with the involution inside,
    ProperSNSP            proper and strongly non self-polar,
    ProperNotSNSP         proper with a self-polar triangle across its sides.

"Strongly non self-polar" means no self-polar triangle {X, Y, Z} sits on
three different sides of the triangle in an essential way.  Sides are the
centers of the involutions inside each <alpha_i, alpha_j>, poles included
whenever the dihedral group has a central involution.  For an assignment
X on side a, Y on side b and Z = pole(XY) on side c, the configurations
with Z equal to vertex a, vertex b, or the pole of the side line c are not
violations: the corresponding products are exactly the four elements
{e, alpha, alpha', alpha*alpha'} that the flag-transitivity identity keeps
inside H_c, and every coset geometry admits them (a triangle with a
commuting generator pair always carries such vertex/pole triples, hypertope
or not).  A self-polar triple of points is a violation precisely when some
assignment puts a point other than these three in the product role; the
generated triangle itself (all three involutions commuting) is never
strongly non self-polar.  The witness search runs over side pairs in a
fixed order (side 2 x side 0 against side 1, then the two rotations) with
points scanned in canonical encoding order, so reported witnesses are
reproducible.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from itertools import combinations

from conictopes.engine import MAX_ENGINE_Q, Engine, engine_for
from conictopes.geom import CriteriaReport, coset_criteria, edge_labels, pair_subgroups
from conictopes.gf import Field
from conictopes.grp import (
    DEFAULT_CLOSURE_CAP,
    BudgetExceeded,
    ElementSet,
    GroupId,
    closure,
    identify_group,
)
from conictopes.perspectivity import (
    IDENTITY,
    Involution,
    center_axis,
    in_psl,
    involution_from_center,
    mat_mul,
    product_order,
)
from conictopes.plane import GeometryError, Plane

COLLINEAR = "Collinear"
SELF_POLAR = "SelfPolar"
PROPER_SNSP = "ProperSNSP"
PROPER_NOT_SNSP = "ProperNotSNSP"
NON_PROPER_OK = "NonProperPolarizedOK"
NON_PROPER_VIOLATING = "NonProperViolating"

_SEARCH_ORDER = ((2, 0, 1), (0, 1, 2), (1, 2, 0))


class DegenerateInput(ValueError):
    """classify_triangle needs three distinct points off the conic."""


class CollinearCenters(ValueError):
    """not_psl_sufficient needs a genuine triangle."""


class PointsNotOnConic(ValueError):
    """Tangent triangles are built from three conic points."""


class CoincidentConicPoints(ValueError):
    """Tangent triangles need three distinct conic points."""


class SearchExhausted(RuntimeError):
    """The deterministic construction scan found no valid configuration."""


@dataclass
class TriangleRecord:
    centers: tuple
    involutions: tuple
    sides: tuple                 # three frozensets of point triples
    triangle_class: str
    witness: tuple | None        # self-polar triple on three different sides
    group_id: GroupId
    hypertope: bool
    labels: dict                 # {(i, j): order of alpha_i * alpha_j}
    criteria: CriteriaReport
    group: ElementSet = dc_field(repr=False)  # the closed <alpha_0, alpha_1, alpha_2>

    def describe(self) -> dict:
        return {
            "centers": [list(c) for c in self.centers],
            "class": self.triangle_class,
            "witness": None if self.witness is None else [list(w) for w in self.witness],
            "group": self.group_id.describe(),
            "hypertope": self.hypertope,
            "labels": {f"{i}{j}": v for (i, j), v in sorted(self.labels.items())},
            "sides": [sorted(list(s) for s in side) for side in self.sides],
        }


def snsp_witness(sides, side_sets, conjugates, pole_of_join, vertices, side_poles):
    """First essential self-polar triangle across three different sides.

    Generic over the point representation: sides are the three sides in
    canonical point order and side_sets the same as sets, conjugates(X) a
    container of the points on the polar of X, pole_of_join(X, Y) the pole
    of the line XY, vertices the triangle's own centers and side_poles the
    poles of the three side lines.  A hit with X on side a, Y on side b and
    Z = pole(XY) on side c only counts when Z is none of vertex a, vertex b,
    pole(side line c): those products are the four elements the
    flag-transitivity identity always admits.  Side points are off the
    conic, so none is conjugate to itself and Z is never X or Y.  The scan
    order is fixed (assignment (2,0,1) first, then its rotations) so the
    witness is deterministic.  Returns None when the triangle is strongly
    non self-polar.
    """
    for a, b, c in _SEARCH_ORDER:
        allowed = (vertices[a], vertices[b], side_poles[c])
        side_c = side_sets[c]
        for X in sides[a]:
            conj = conjugates(X)
            for Y in sides[b]:
                if Y in conj:
                    Z = pole_of_join(X, Y)
                    if Z not in allowed and Z in side_c:
                        return (X, Y, Z)
    return None


def _verdict_class(proper: bool, witness) -> str:
    """Class of a triangle that is neither collinear nor self-polar."""
    if proper:
        return PROPER_SNSP if witness is None else PROPER_NOT_SNSP
    return NON_PROPER_OK if witness is None else NON_PROPER_VIOLATING


def _side_of(plane: Plane, subgroup_eset) -> frozenset:
    """Centers of the involutions inside a closed subgroup of the stabilizer."""
    F = plane.field
    centers = []
    for m in subgroup_eset:
        if m == IDENTITY:
            continue
        if mat_mul(F, m, m) == IDENTITY:
            centers.append(center_axis(plane, m)[0])
    return frozenset(centers)


def classify_triangle(plane: Plane, P, Q, R,
                      closure_cap=DEFAULT_CLOSURE_CAP) -> TriangleRecord:
    """Full geometric classification of one triple of off-conic points."""
    pts = tuple(plane.normalize(x) for x in (P, Q, R))
    if len(set(pts)) != 3:
        raise DegenerateInput("points must be pairwise distinct")
    if any(plane.on_conic(x) for x in pts):
        raise DegenerateInput("points must be off the conic")
    F = plane.field
    invs = tuple(involution_from_center(plane, x) for x in pts)
    labels = edge_labels(F, invs)
    Hs = pair_subgroups(plane, invs)
    sides = tuple(_side_of(plane, Hs[i]) for i in range(3))
    gens = tuple(a.matrix for a in invs)
    criteria = coset_criteria(IDENTITY, lambda x, y: mat_mul(F, x, y), gens, Hs)

    collinear = plane.incident(pts[2], plane.line_through(pts[0], pts[1]))
    self_polar = all(v == 2 for v in labels.values())
    witness = None
    if collinear:
        cls = COLLINEAR
    elif self_polar:
        cls = SELF_POLAR
        witness = pts
    else:
        side_lines = [plane.line_through(pts[1], pts[2]),
                      plane.line_through(pts[0], pts[2]),
                      plane.line_through(pts[0], pts[1])]
        side_poles = tuple(plane.pole(l) for l in side_lines)
        witness = snsp_witness(
            tuple(sorted(s) for s in sides), sides,
            conjugates=lambda X: set(plane.line_points(plane.polar(X))),
            pole_of_join=lambda X, Y: plane.pole(plane.line_through(X, Y)),
            vertices=pts, side_poles=side_poles)
        cls = _verdict_class(all(side_poles[i] != pts[i] for i in range(3)), witness)

    H = closure(F, invs, cap=closure_cap)
    group_id = identify_group(H, F)
    return TriangleRecord(centers=pts, involutions=invs, sides=sides,
                          triangle_class=cls, witness=witness,
                          group_id=group_id, hypertope=criteria.hypertope,
                          labels=labels, criteria=criteria, group=H)


def not_psl_sufficient(plane: Plane, a0: Involution, a1: Involution,
                       a2: Involution) -> bool:
    """Sufficient test for strong non self-polarity: no generator in PSL."""
    if plane.incident(a2.center, plane.line_through(a0.center, a1.center)):
        raise CollinearCenters("centers must form a triangle")
    return not any(in_psl(plane, a) for a in (a0, a1, a2))


def tangent_centers(plane: Plane, A, B, C) -> tuple:
    """Meets of the tangents at conic points A, B, C: (tA.tB, tB.tC, tA.tC)."""
    tA, tB, tC = (plane.polar(x) for x in (A, B, C))
    return plane.meet(tA, tB), plane.meet(tB, tC), plane.meet(tA, tC)


def construct_tangent_triangle(plane: Plane, A, B, C,
                               closure_cap=DEFAULT_CLOSURE_CAP) -> TriangleRecord:
    """Triangle of the three tangent lines at distinct conic points A, B, C."""
    pts = tuple(plane.normalize(x) for x in (A, B, C))
    if any(not plane.on_conic(x) for x in pts):
        raise PointsNotOnConic("tangent triangles are built on conic points")
    if len(set(pts)) != 3:
        raise CoincidentConicPoints("conic points must be pairwise distinct")
    return classify_triangle(plane, *tangent_centers(plane, *pts),
                             closure_cap=closure_cap)


def construct_nonlinear_pgl(field: Field,
                            closure_cap=DEFAULT_CLOSURE_CAP) -> TriangleRecord:
    """Deterministic construction of a full-group hypertope with no label 2.

    Scans canonically for a non-PSL involution alpha_P, a non-tangent line l
    through P whose stabilizer order is 2m with m > 2, a second involution
    alpha_Q centered on l with product order exactly m (such a product
    generates the full rotation subgroup of the line stabilizer, which pins
    the generated group to the whole of PGL(2,q)), and a third non-PSL
    involution alpha_R off l whose axis avoids P and Q so no pair commutes.
    Note the product of two involutions on the same side of the PSL coset
    boundary always lands inside PSL, whose element orders stay below m, so
    alpha_Q necessarily sits in PSL when alpha_P does not.  Every candidate
    is verified (full group generated, no label 2, hypertope) before being
    returned; a fruitless scan raises SearchExhausted.
    """
    plane = Plane(field)
    q = field.q
    full_order = q**3 - q
    for P in plane.points:
        if plane.on_conic(P):
            continue
        aP = involution_from_center(plane, P)
        if in_psl(plane, aP):
            continue
        lines = sorted(plane.lines_through(P))
        for wanted in ("secant", "exterior"):
            m = q - 1 if wanted == "secant" else q + 1
            if m <= 2:
                continue
            for line in lines:
                if plane.classify_line(line) != wanted:
                    continue
                for Qpt in sorted(plane.line_points(line)):
                    if Qpt == P or plane.on_conic(Qpt):
                        continue
                    aQ = involution_from_center(plane, Qpt)
                    if product_order(field, aP, aQ) != m:
                        continue
                    rec = _nonlinear_third_point(plane, aP, aQ, line, m,
                                                 full_order, closure_cap)
                    if rec is not None:
                        return rec
    raise SearchExhausted(f"no non-linear full-group triangle found for q={q}")


def _nonlinear_third_point(plane, aP, aQ, line, m, full_order, closure_cap):
    F = plane.field
    for Rpt in plane.points:
        if plane.on_conic(Rpt) or plane.incident(Rpt, line):
            continue
        axis = plane.polar(Rpt)
        if plane.incident(aP.center, axis) or plane.incident(aQ.center, axis):
            continue
        aR = involution_from_center(plane, Rpt)
        if in_psl(plane, aR):
            continue
        rec = classify_triangle(plane, aP.center, aQ.center, Rpt,
                                closure_cap=closure_cap)
        if (rec.group_id.order == full_order and rec.hypertope
                and all(v > 2 for v in rec.labels.values())):
            return rec
    return None


# -- exhaustive sweeps ---------------------------------------------------------


@dataclass
class ClassificationTable:
    p: int
    n: int
    q: int
    mode: str
    seed: int | None
    total: int
    counts: dict            # (class, group label, psl signature, hypertope) -> count
    main_violations: int
    violation_samples: list

    def class_counts(self) -> dict:
        out = {}
        for (cls, _, _, _), v in self.counts.items():
            out[cls] = out.get(cls, 0) + v
        return out

    def rows(self):
        return [
            {"class": cls, "group": grp, "psl": psl,
             "hypertope": hyp, "count": self.counts[(cls, grp, psl, hyp)]}
            for (cls, grp, psl, hyp) in sorted(self.counts)
        ]

    def to_json_obj(self) -> dict:
        return {"p": self.p, "n": self.n, "q": self.q, "mode": self.mode,
                "seed": self.seed, "total": self.total,
                "main_violations": self.main_violations,
                "violation_samples": self.violation_samples,
                "class_counts": self.class_counts(),
                "rows": self.rows()}

    TSV_HEADER = "class\tgroup\tpsl\thypertope\tcount"

    def to_tsv(self) -> str:
        lines = [self.TSV_HEADER]
        for row in self.rows():
            lines.append(f"{row['class']}\t{row['group']}\t{row['psl']}\t"
                         f"{'true' if row['hypertope'] else 'false'}\t{row['count']}")
        return "\n".join(lines) + "\n"


def _id_class(eng: Engine, tri, pairs):
    """Class and SNSP witness of an id triple, decided as classify_triangle does.

    pairs are the cached subgroups (<a1, a2>, <a0, a2>, <a0, a1>).
    """
    c0, c1, c2 = tri
    p12, p02, p01 = pairs
    lt, pole = eng.lt_l, eng.pole_l
    if eng.onl_l[c2][lt[c0][c1]]:
        return COLLINEAR, None
    if p12.order2 == 2 and p02.order2 == 2 and p01.order2 == 2:
        return SELF_POLAR, tri
    line_pts, polar = eng.line_pts_l, eng.polar_l
    side_poles = (pole[lt[c1][c2]], pole[lt[c0][c2]], pole[lt[c0][c1]])
    witness = snsp_witness(
        (p12.side_sorted, p02.side_sorted, p01.side_sorted),
        (p12.side, p02.side, p01.side),
        conjugates=lambda X: line_pts[polar[X]],
        pole_of_join=lambda X, Y: pole[lt[X][Y]],
        vertices=tri, side_poles=side_poles)
    proper = side_poles[0] != c0 and side_poles[1] != c1 and side_poles[2] != c2
    return _verdict_class(proper, witness), witness


def _sweep_triple(eng: Engine, tri):
    """Classify one id triple: returns (key, hypertope, snsp, collinear)."""
    c0, c1, c2 = tri
    p01 = eng.pair(c0, c1)
    p02 = eng.pair(c0, c2)
    p12 = eng.pair(c1, c2)
    gens = (eng.inv_elt_l[c0], eng.inv_elt_l[c1], eng.inv_elt_l[c2])
    mul = eng.mul_l
    # the closure tables the right cosets of H_2 = p01, which sp_intersect reads
    ids, _ = eng.closure_ids(p01.elems, gens)
    criteria = coset_criteria(0, lambda x, y: mul[x][y], gens,
                              (p12.eset, p02.eset, p01.eset),
                              sp_intersect=eng.sp_intersect)
    cls, _ = _id_class(eng, tri, (p12, p02, p01))
    glabel = eng.group_label(ids)
    psl = "".join(sorted("P" if eng.psl_l[c] else "N" for c in tri))
    hypertope = criteria.hypertope
    snsp = cls in (PROPER_SNSP, NON_PROPER_OK)
    return (cls, glabel, psl, hypertope), hypertope, snsp, cls == COLLINEAR


def _tally(eng: Engine, weighted):
    """Counts, main-theorem violations and the first ten violating triples.

    weighted yields (id triple, weight) pairs; a violation is a hypertope
    verdict that disagrees with strong non self-polarity.
    """
    counts: dict = {}
    violations = 0
    samples = []
    for tri, weight in weighted:
        key, hyp, snsp, _ = _sweep_triple(eng, tri)
        counts[key] = counts.get(key, 0) + weight
        if hyp != snsp:
            violations += weight
            if len(samples) < 10:
                samples.append([list(eng.plane.points[c]) for c in tri])
    return counts, violations, samples


def _binomials(n: int):
    """C(i, 2) and C(i, 3) for i = 0..n, the terms of the colex rank of a triple."""
    return ([i * (i - 1) // 2 for i in range(n + 1)],
            [i * (i - 1) * (i - 2) // 6 for i in range(n + 1)])


def _unrank(n: int, idx: int, b2, b3):
    """Positions (a, b, c) of the idx-th triple of combinations(range(n), 3).

    Mapping i to n-1-i turns lexicographic order into reverse colex order,
    and the colex rank of x < y < z is x + C(y, 2) + C(z, 3), so each
    position is found by bisection on the binomials.
    """
    r = b3[n] - 1 - idx
    z = bisect_right(b3, r) - 1
    r -= b3[z]
    y = bisect_right(b2, r) - 1
    return n - 1 - z, n - 1 - y, n - 1 - (r - b2[y])


def _point_orbits(eng: Engine, off):
    """G's orbits on the off-conic points, and the orbit number of each point.

    Orbits are found by walking the generators' point permutations from each
    unseen point of off, so they come in the order of their smallest points
    P0.  Each orbit is (P0, transversal, stabilizer): transversal maps each X
    of the orbit to a point map taking X to P0, read off the Schreier tree of
    the walk, and stabilizer holds Stab(P0) as point maps on off.  Stab(P0)
    is the centralizer of alpha_P0, and s takes X to the center of
    s * alpha_X * s^-1.
    """
    mul, inv_elt, center, inv = eng.mul_l, eng.inv_elt_l, eng.center_pt_l, eng.inv_l
    perms = eng.gen_point_perms
    inverses = []
    for perm in perms:
        inverse = [0] * len(perm)
        for x, y in enumerate(perm):
            inverse[y] = x
        inverses.append(inverse)
    orbits = []
    orbit_of = [-1] * eng.n_points
    for P0 in off:
        if orbit_of[P0] >= 0:
            continue
        transversal = {P0: list(range(eng.n_points))}
        walk = [P0]
        for Y in walk:
            to_P0 = transversal[Y]
            for perm, inverse in zip(perms, inverses):
                X = perm[Y]
                if X not in transversal:
                    transversal[X] = [to_P0[z] for z in inverse]
                    walk.append(X)
        for X in walk:
            orbit_of[X] = len(orbits)
        a = inv_elt[P0]
        stabilizer = []
        for s in range(eng.n_group):
            row = mul[s]
            if row[a] == mul[a][s]:
                s_inv = inv[s]
                point_map = [-1] * eng.n_points
                for X in off:
                    point_map[X] = center[mul[row[inv_elt[X]]][s_inv]]
                stabilizer.append(point_map)
        if len(stabilizer) * len(walk) != eng.n_group:
            raise GeometryError(f"|Stab(P0)| = {len(stabilizer)} times the orbit size "
                                f"{len(walk)} is not |G| = {eng.n_group}")
        orbits.append((P0, transversal, stabilizer))
    return orbits, orbit_of


def _orbit_reps(eng: Engine, off):
    """(representative, orbit size) for each conic-stabilizer orbit of triples.

    Every orbit has a triple through P0_k, the smallest point of the first
    point orbit k that the triple meets, so for each k the walk runs over
    the triples {P0_k, Q, R} with Q < R in orbit k or a later one, in
    lexicographic order.  The first unmarked one is the representative, and
    the triples of its orbit through P0_k are s(t_X(t)) for X in t and in
    orbit k, s in Stab(P0_k): all of them are marked.  Counting (triple,
    point of orbit k on it) pairs two ways, the orbit has m * N_k / c
    triples for m of them through P0_k, an orbit k of N_k points and c
    points of each triple in orbit k.  Every point of orbit k or a later
    one is at least P0_k, so the representative is the smallest triple of
    its orbit, and representatives come in sorted order.  For the same
    reason P0_k is the smallest point of every marked triple, and a mark is
    the pair of its other two points in order.
    """
    orbits, orbit_of = _point_orbits(eng, off)
    for k, (P0, transversal, stabilizer) in enumerate(orbits):
        n_k = len(transversal)
        later = [X for X in off if orbit_of[X] >= k and X != P0]
        marked = set()
        for i, Q in enumerate(later):
            for R in later[i + 1:]:
                if (Q, R) in marked:
                    continue
                tri = (P0, Q, R)
                # u takes X to P0 and s fixes P0, so the images of the other two mark
                to_P0 = [(transversal[X], [Y for Y in tri if Y != X])
                         for X in tri if orbit_of[X] == k]
                through = set()
                for u, (Y, Z) in to_P0:
                    y, z = u[Y], u[Z]
                    for s in stabilizer:
                        a, b = s[y], s[z]
                        through.add((a, b) if a < b else (b, a))
                marked.update(through)
                size, rest = divmod(len(through) * n_k, len(to_P0))
                if rest:
                    raise GeometryError(f"{len(through)} triples through P0 times {n_k} "
                                        f"points is not a multiple of {len(to_P0)}")
                yield tri, size


def _sampled(off, total: int, sample: int, seed: int):
    """Seeded draw of distinct triples, yielded in sweep order with weight 1."""
    rng = random.Random(seed)
    wanted = sorted(rng.sample(range(total), min(sample, total)))
    b2, b3 = _binomials(len(off))
    for want in wanted:
        a, b, c = _unrank(len(off), want, b2, b3)
        yield (off[a], off[b], off[c]), 1


def enumerate_triples(field: Field, mode: str = "full", sample: int | None = None,
                      seed: int = 0,
                      budget: int = DEFAULT_CLOSURE_CAP) -> ClassificationTable:
    """Sweep involution triples and tabulate classes, groups and verdicts.

    full mode iterates all C(q^2, 3) triples; orbit-reps classifies one
    representative per conic-stabilizer orbit, the smallest triple of the
    orbit, found from a point-stabilizer transversal without visiting the
    other triples (counts weighted by orbit size, so totals match full mode
    exactly); sample(N) draws N distinct triples with the seeded Mersenne
    Twister PRNG of random.Random.
    """
    if field.q > MAX_ENGINE_Q:
        raise BudgetExceeded(
            f"the sweep tables are limited to q <= {MAX_ENGINE_Q}, got q = {field.q}",
            partial_size=0)
    n_off = field.q**2
    total = n_off * (n_off - 1) * (n_off - 2) // 6
    if total > budget:
        raise BudgetExceeded(f"sweep of {total} triples exceeds budget {budget}",
                             partial_size=0)
    eng = engine_for(field)
    off = eng.off_conic_ids

    seed_out: int | None = None
    if mode == "full":
        weighted = ((tri, 1) for tri in combinations(off, 3))
    elif mode == "orbit-reps":
        weighted = _orbit_reps(eng, off)
    elif mode == "sample":
        if sample is None:
            raise ValueError("sample mode needs a sample size")
        seed_out = seed
        weighted = _sampled(off, total, sample, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    counts, violations, samples = _tally(eng, weighted)
    return ClassificationTable(p=field.p, n=field.n, q=field.q, mode=mode,
                               seed=seed_out, total=sum(counts.values()),
                               counts=counts, main_violations=violations,
                               violation_samples=samples)


def verify_main(field: Field, mode: str = "full", sample: int | None = None,
                seed: int = 0,
                budget: int = DEFAULT_CLOSURE_CAP) -> ClassificationTable:
    """Sweep and report violations of: hypertope iff SNSP triangle."""
    return enumerate_triples(field, mode=mode, sample=sample, seed=seed, budget=budget)
