"""Dense lookup tables for exhaustive triple sweeps at small q.

The enumeration core works on integer ids throughout: points and lines are
indexed by their position in the lexicographic canonical order, group
elements by discovery order of a breadth-first closure of the whole conic
stabilizer.  Each table is built once, as the Python list the per-triple
path reads: a verdict touches a few hundred entries, so plain indexing is
the fast form.  The line through two points comes from one cross product,
and incidence is read off those lines.  The Cayley table is read off the
breadth-first (Schreier) tree: row x is row parent(x) permuted by a
generator's left multiplication.
H_i & (H_j * H_k) is a loop over H_i that keeps g when h*g lies in H_k for
some h in H_j, and the closure of <alpha_0, alpha_1, alpha_2> walks the
right cosets of <alpha_0, alpha_1> (a Schreier graph on cosets) instead of
single elements, with a coset table built once per generator pair.

Everything here is an acceleration layer: the criteria evaluation is the
same coset_criteria function the matrix path uses, handed table-backed
operations, and tests pin the two representations to each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from conictopes.gf import Field
from conictopes.grp import GroupId, element_orders, identify, powers
from conictopes.perspectivity import IDENTITY, involution_from_center, mat_mul, mat_vec
from conictopes.plane import GeometryError, Plane

MAX_ENGINE_Q = 13


def conic_stabilizer_generators(field: Field):
    """Three canonical matrices generating the conic stabilizer.

    Images of the conic parameter t are t+1, lambda*t and 1/t for a
    primitive lambda, which generate the whole group.
    """
    lam = field.generator
    lam2 = field.mul(lam, lam)
    two = field.add(1, 1)
    t = (1, 0, 0, 1, 1, 0, 1, two, 1)
    d = (1, 0, 0, 0, lam, 0, 0, 0, lam2)
    s = (0, 0, 1, 0, 1, 0, 1, 0, 0)
    return t, d, s


@dataclass(frozen=True)
class PairData:
    """Cached dihedral subgroup generated by two involutions."""

    elems: tuple          # element ids, identity first
    eset: frozenset
    order2: int           # order of the product of the two involutions
    side: frozenset       # centers (point ids) of the involutions inside
    side_sorted: tuple


class Engine:
    """Tables for PG(2,q) and its conic stabilizer, q small."""

    def __init__(self, field: Field):
        if field.q > MAX_ENGINE_Q:
            raise ValueError(f"engine tables are limited to q <= {MAX_ENGINE_Q}")
        self.field = field
        self.q = field.q
        self.plane = Plane(field)
        self._build_point_tables()
        self._build_group_tables()
        self._build_involution_tables()
        self._pair_cache: dict[tuple[int, int], PairData] = {}
        self._tag_cache: dict[tuple[int, int, int], str] = {}
        # right cosets of the last subgroup closure_ids walked over
        self._cosets: tuple | None = None

    # -- plane tables -------------------------------------------------------

    def _build_point_tables(self):
        F, pl = self.field, self.plane
        pts = pl.points
        index = pl.point_index
        norm = pl.normalize
        n = self.n_points = len(pts)
        mul, add, neg = F.mul_t, F.add_t, F.neg_t

        # lt[i][j]: the line P_i x P_j (-1 on the diagonal); both points lie on it
        lt = [[-1] * n for _ in range(n)]
        onl = [[False] * n for _ in range(n)]
        for i, (a0, a1, a2) in enumerate(pts):
            m0, m1, m2 = mul[a0], mul[a1], mul[a2]
            lt_i, onl_i = lt[i], onl[i]
            for j in range(i + 1, n):
                b0, b1, b2 = pts[j]
                lid = index[norm((add[m1[b2]][neg[m2[b1]]],
                                  add[m2[b0]][neg[m0[b2]]],
                                  add[m0[b1]][neg[m1[b0]]]))]
                lt_i[j] = lt[j][i] = lid
                onl_i[lid] = onl[j][lid] = True
        self.lt_l = lt
        self.onl_l = onl
        self.line_pts_l = [frozenset(i for i, row in enumerate(onl) if row[l])
                           for l in range(n)]
        self.polar_l = [index[pl.polar(P)] for P in pts]
        self.pole_l = [index[pl.pole(P)] for P in pts]

        tangents = [self.polar_l[index[A]] for A in pl.conic_points]
        self.off_conic_ids = [i for i, P in enumerate(pts) if not pl.on_conic(P)]
        # exterior points lie on 2 tangents, interior ones on none; PSL(2,q)
        # holds the involutions centred at exterior points iff q = 1 (mod 4)
        psl_tangents = 2 if self.q % 4 == 1 else 0
        self.psl_l = [False] * n
        for i in self.off_conic_ids:
            hits = sum(onl[i][t] for t in tangents)
            if hits not in (0, 2):
                raise GeometryError(f"point {pts[i]} lies on {hits} tangents")
            self.psl_l[i] = hits == psl_tangents

        self.gen_point_perms = [[index[norm(mat_vec(F, g, P))] for P in pts]
                                for g in conic_stabilizer_generators(F)]

    # -- group tables ---------------------------------------------------------

    def _build_group_tables(self):
        """Elements by a breadth-first walk, then the Cayley table off its tree.

        Element x is parent[x] * gens[gen_of[x]], with parent[x] < x, so
        g * x = (g * parent[x]) * gens[gen_of[x]] gives each generator's left
        multiplication, and x * y = parent[x] * (gens[gen_of[x]] * y) gives
        row x of the Cayley table as row parent[x] read at the ids g * y.
        """
        F, q = self.field, self.q
        gens = conic_stabilizer_generators(F)
        order = q**3 - q
        elements = [IDENTITY]
        index = {IDENTITY: 0}
        parent = [0]
        gen_of = [0]
        right = [None] * order  # right[x] = ids of x * g for the three generators
        frontier = [0]
        while frontier:
            new = []
            for xi in frontier:
                x = elements[xi]
                row = []
                for gi, g in enumerate(gens):
                    y = mat_mul(F, x, g)
                    if y not in index:
                        index[y] = len(elements)
                        elements.append(y)
                        parent.append(xi)
                        gen_of.append(gi)
                        new.append(index[y])
                    row.append(index[y])
                right[xi] = row
            frontier = new
        if len(elements) != order:
            raise GeometryError(f"the generators give {len(elements)} elements, "
                                f"not |PGL(2,{q})| = {order}")
        self.elements = elements
        self.elt_index = index
        self.n_group = order

        left = []  # left[g][y] = id of gens[g] * y
        for gi in range(len(gens)):
            row = [right[0][gi]] * order
            for y in range(1, order):
                row[y] = right[row[parent[y]]][gen_of[y]]
            left.append(itemgetter(*row))
        # every row holds the int objects of the identity row, not |G|^2 ints
        mul = [tuple(range(order))]
        for x in range(1, order):
            mul.append(left[gen_of[x]](mul[parent[x]]))
        self.mul_l = mul
        self.orders_l = element_orders(0, lambda x, y: mul[x][y], range(order), q + 1)

    def _build_involution_tables(self):
        inv_elt = [-1] * self.n_points
        center_pt = [-1] * self.n_group
        for pid in self.off_conic_ids:
            a = involution_from_center(self.plane, self.plane.points[pid])
            eid = self.elt_index[a.matrix]
            inv_elt[pid] = eid
            center_pt[eid] = pid
        if self.orders_l.count(2) != self.q**2:
            raise GeometryError(f"PGL(2,{self.q}) must have q^2 involutions")
        if self.n_group - center_pt.count(-1) != self.q**2:
            raise GeometryError("off-conic points and involutions must correspond")
        self.inv_elt_l = inv_elt
        self.center_pt_l = center_pt

    # -- cached dihedral pairs -------------------------------------------------

    def pair(self, i: int, j: int) -> PairData:
        """Subgroup <alpha_i, alpha_j> for off-conic point ids i < j."""
        key = (i, j) if i < j else (j, i)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        mul = self.mul_l
        a = self.inv_elt_l[key[0]]
        b = self.inv_elt_l[key[1]]
        rots = [0] + powers(0, lambda x, y: mul[x][y], mul[a][b], self.q + 1)[:-1]
        t = len(rots)
        elems = rots + [mul[r_][a] for r_ in rots]
        centers = [self.center_pt_l[e] for e in elems if self.center_pt_l[e] >= 0]
        side = frozenset(centers)
        data = PairData(elems=tuple(elems), eset=frozenset(elems), order2=t,
                        side=side, side_sorted=tuple(sorted(side)))
        self._pair_cache[key] = data
        return data

    def sp_intersect(self, Hj: frozenset, Hk: frozenset, Hi: frozenset):
        """H_i & (H_j * H_k), in the iteration order of H_i.

        g = h*k with h in H_j and k in H_k iff h^-1 * g lies in H_k, and H_j
        is closed under inverses, so g is kept when h * g lies in H_k for
        some h in H_j.
        """
        rows = [self.mul_l[h] for h in Hj]
        out = []
        for g in Hi:
            for row in rows:
                if row[g] in Hk:
                    out.append(g)
                    break
        return out

    # -- closures and identification -------------------------------------------

    def _right_cosets(self, sub: tuple):
        """(coset id of each element, members of each coset) for the cosets sub*g.

        Coset 0 is sub itself.  One slot caches the last subgroup asked for:
        a sweep in combinations order asks for the same <alpha_0, alpha_1>
        for every third point in a row.
        """
        slot = self._cosets
        if slot is not None and slot[0] == sub:
            return slot[1], slot[2]
        mul = self.mul_l
        coset_of = [-1] * self.n_group
        cosets = []
        for g in range(self.n_group):
            if coset_of[g] < 0:
                members = [mul[h][g] for h in sub]
                for x in members:
                    coset_of[x] = len(cosets)
                cosets.append(members)
        self._cosets = (sub, coset_of, cosets)
        return coset_of, cosets

    def closure_ids(self, seed, gens):
        """Closure <gens> as a union of right cosets of seed, with a Lagrange early-out.

        seed is a subgroup (a tuple of ids) contained in the generated
        subgroup.  Cosets seed*x are reached from seed itself by right
        multiplication with the generators; once more than half the full
        group is covered the subgroup is the whole group and None is
        returned in place of the sorted id list.
        """
        coset_of, cosets = self._right_cosets(seed)
        mul = self.mul_l
        size = len(seed)
        half = self.n_group // 2
        seen = {0}
        reps = [0]
        count = size
        for x in reps:
            row = mul[x]
            for g in gens:
                y = row[g]
                c = coset_of[y]
                if c not in seen:
                    count += size
                    if count > half:
                        return None, self.n_group  # the whole group
                    seen.add(c)
                    reps.append(y)
        return sorted(x for c in seen for x in cosets[c]), count

    def group_stats(self, ids):
        """(order, number of involutions, largest element order); None is the whole group."""
        ords = self.orders_l if ids is None else [self.orders_l[x] for x in ids]
        return len(ords), ords.count(2), max(ords)

    def identify_ids(self, ids) -> GroupId:
        """grp.identify on element ids; None stands for the whole group."""
        if ids is None:
            ids = list(range(self.n_group))
        mul = self.mul_l
        return identify(0, lambda x, y: mul[x][y], ids,
                        [self.orders_l[x] for x in ids], self.field)

    def group_label(self, ids) -> str:
        order, n_inv, max_ord = self.group_stats(ids)
        key = (order, n_inv, max_ord)
        label = self._tag_cache.get(key)
        if label is None:
            label = self.identify_ids(ids).label
            self._tag_cache[key] = label
        return label


@lru_cache(maxsize=4)
def engine_for(field: Field) -> Engine:
    return Engine(field)
