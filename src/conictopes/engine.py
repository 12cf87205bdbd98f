"""Dense lookup tables for exhaustive triple sweeps at small q.

The enumeration core works on integer ids throughout: points and lines are
indexed by their position in the lexicographic canonical order, group
elements by discovery order of a breadth-first closure of PGL(2,q) on
canonical 2x2 tuples, which elements lists.  Each table is built once, as
the Python list the per-triple path reads: a verdict touches a few hundred
entries, so plain indexing is the fast form.  The line through two points comes from
one cross product, and incidence is read off those lines.  The Cayley table
is read off the breadth-first (Schreier) tree: row x is row parent(x)
permuted by a generator's left multiplication; inv_l holds each element's
inverse, read off the 2x2 inverse (d, -b, -c, a).  The one step into the
plane is center_axis on the sym2 image of each involution, which pairs the
involution ids with the off-conic point ids; an element then moves a point
by conjugating that point's involution (point_map), so the engine keeps no
3x3 matrices.

One right-coset table per verdict serves both the criteria and the closure.
The closure of <alpha_0, alpha_1, alpha_2> walks the right cosets of
H_2 = <alpha_0, alpha_1> (a Schreier graph on cosets) instead of single
elements.  H_i & (H_j * H_k) reads the same table: H_2 is always one of the
three subgroups, and membership in H_2 * H_k, H_j * H_2 or H_2 itself is a
comparison of coset ids, so each intersection costs O(|H_i| + |H_j| + |H_k|)
instead of O(|H_i| * |H_j|).  A walk that stays inside PSL(2,q), the unique
subgroup of index 2 (Dickson), stops past |G|/4 elements once PSL is known.

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
from conictopes.perspectivity import (
    center_axis,
    mat_mul,  # unused here; kept as engine.mat_mul, a name perfbench's tracer wraps
    mat_vec,  # unused here; kept as engine.mat_vec, a name perfbench's tracer wraps
    pgl2_mul,
    sym2,
)
from conictopes.plane import GeometryError, Plane

MAX_ENGINE_Q = 13


def pgl2_generators(field: Field):
    """Three canonical 2x2 tuples generating PGL(2,q).

    (a, b, c, d) maps the conic parameter t to (c + d*t)/(a + b*t), so these
    are t+1, lambda*t and 1/t for a primitive lambda.
    """
    return (1, 0, 1, 1), (1, 0, 0, field.generator), (0, 1, 1, 0)


def conic_stabilizer_generators(field: Field):
    """Three canonical matrices generating the conic stabilizer: sym2 of pgl2_generators."""
    return tuple(sym2(field, g) for g in pgl2_generators(field))


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
        # PSL(2,q)'s sorted ids and group_stats, from the first walk that closes it
        self._psl_ids: list | None = None
        self._psl_stats: tuple | None = None

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

    # -- group tables ---------------------------------------------------------

    def _build_group_tables(self):
        """Elements by a breadth-first walk on 2x2 tuples, then the Cayley table off its tree.

        Element x is parent[x] * gens[gen_of[x]], with parent[x] < x, so
        g * x = (g * parent[x]) * gens[gen_of[x]] gives each generator's left
        multiplication, and x * y = parent[x] * (gens[gen_of[x]] * y) gives
        row x of the Cayley table as row parent[x] read at the ids g * y.
        gen_ids holds the generators' ids, the identity's row of right.
        """
        F, q = self.field, self.q
        gens = pgl2_generators(F)
        order = q**3 - q
        walk = [(1, 0, 0, 1)]
        index = {walk[0]: 0}
        parent = [0]
        gen_of = [0]
        right = []  # right[x] = ids of x * g for the three generators
        for x in walk:  # grows while it is read
            row = []
            for gi, g in enumerate(gens):
                y = pgl2_mul(F, x, g)
                yi = index.get(y)
                if yi is None:
                    yi = index[y] = len(walk)
                    walk.append(y)
                    parent.append(len(right))
                    gen_of.append(gi)
                row.append(yi)
            right.append(row)
        if len(walk) != order:
            raise GeometryError(f"the generators give {len(walk)} elements, "
                                f"not |PGL(2,{q})| = {order}")
        mul_t, neg, inv = F.mul_t, F.neg_t, F.inv_t
        inv_l = []
        for a, b, c, d in walk:  # x^-1 is (d, -b, -c, a), scaled to lead with 1
            s = mul_t[inv[d or neg[b]]]
            inv_l.append(index[(s[d], s[neg[b]], s[neg[c]], s[a])])
        self.inv_l = inv_l
        self.elements = walk
        self.gen_ids = right[0]
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
        orders = self.orders_l = element_orders(0, lambda x, y: mul[x][y], range(order), q + 1)
        self._full_stats = (order, orders.count(2), max(orders))

    def _build_involution_tables(self):
        """center_pt_l: the centre's point id of each involution, -1 for other elements.

        inv_elt_l inverts it on the off-conic points, and gen_point_perms
        holds point_map of each generator.
        """
        F, pl = self.field, self.plane
        index = pl.point_index
        inv_elt = [-1] * self.n_points
        center_pt = [-1] * self.n_group
        for x, o in enumerate(self.orders_l):
            if o == 2:
                pid = index[center_axis(pl, sym2(F, self.elements[x]))[0]]
                center_pt[x] = pid
                inv_elt[pid] = x
        if self._full_stats[1] != self.q**2:
            raise GeometryError(f"PGL(2,{self.q}) must have q^2 involutions")
        if [i for i, x in enumerate(inv_elt) if x >= 0] != self.off_conic_ids:
            raise GeometryError("off-conic points and involutions must correspond")
        self.inv_elt_l = inv_elt
        self.center_pt_l = center_pt
        self.gen_point_perms = [self.point_map(g) for g in self.gen_ids]

    def point_map(self, g) -> list:
        """Element g on the off-conic point ids, with -1 at conic points.

        g moves the centre of alpha_X to the centre of g * alpha_X * g^-1.
        """
        mul, centre, inv_elt = self.mul_l, self.center_pt_l, self.inv_elt_l
        row, g_inv = mul[g], self.inv_l[g]
        image = [-1] * self.n_points
        for X in self.off_conic_ids:
            image[X] = centre[mul[row[inv_elt[X]]][g_inv]]
        return image

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
        """H_i & (H_j * H_k), in the iteration order of H_i, off the cached coset table.

        Precondition: one of the three subgroups is the subgroup whose right
        cosets closure_ids last tabled, as H_2 is in every flag-transitivity
        check of a verdict that closes <alpha_0, alpha_1, alpha_2> first.
        With S that subgroup and c(x) the coset S * x:
          S = H_j: g lies in S * H_k iff c(g) = c(k) for some k in H_k;
          S = H_k: g lies in H_j * S iff g^-1 lies in S * H_j, as H_j is
            closed under inverses, so iff c(g^-1) = c(h) for some h in H_j;
          S = H_i: h * k lies in S iff c(h) = c(k^-1), so the products of
            those pairs make up H_i & (H_j * H_k).
        Each case costs O(|H_i| + |H_j| + |H_k|) lookups, plus one product
        per matching pair in the last.  Raises GeometryError when no
        argument is the cached subgroup.
        """
        _, coset_of, _, sub = self._cosets or (None, None, None, None)
        inv = self.inv_l
        if Hj == sub:
            hit = {coset_of[k] for k in Hk}
            return [g for g in Hi if coset_of[g] in hit]
        if Hk == sub:
            hit = {coset_of[h] for h in Hj}
            return [g for g in Hi if coset_of[inv[g]] in hit]
        if Hi == sub:
            by_coset: dict[int, list] = {}
            for k in Hk:
                by_coset.setdefault(coset_of[inv[k]], []).append(k)
            mul = self.mul_l
            found = set()
            for h in Hj:
                ks = by_coset.get(coset_of[h])
                if ks:
                    row = mul[h]
                    found.update([row[k] for k in ks])
            return [g for g in Hi if g in found]
        raise GeometryError("sp_intersect needs the coset table of one of its "
                            "subgroups; call closure_ids on it first")

    # -- closures and identification -------------------------------------------

    def _right_cosets(self, sub: tuple):
        """(coset id of each element, members of each coset) for the cosets sub*g.

        Coset 0 is sub itself.  One slot caches the last subgroup asked for,
        with its element set for sp_intersect: a sweep in combinations order
        asks for the same <alpha_0, alpha_1> for every third point in a row.
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
        self._cosets = (sub, coset_of, cosets, frozenset(sub))
        return coset_of, cosets

    def closure_ids(self, seed, gens):
        """Closure <gens> as a union of right cosets of seed, with Lagrange early exits.

        seed is a subgroup (a tuple of ids) contained in the generated
        subgroup.  Cosets seed*x are reached from seed itself by right
        multiplication with the generators; once more than half the full
        group is covered the subgroup is the whole group and None is
        returned in place of the sorted id list.  When every generator is
        an involution whose centre has its psl_l flag set, the subgroup lies
        in PSL(2,q), of index 2; once a complete walk has closed |G|/2
        elements, PSL's sorted ids are recorded, and such a walk returns
        them, without sorting, as soon as it covers more than |G|/4.
        Returns (ids, order).
        """
        coset_of, cosets = self._right_cosets(seed)
        mul = self.mul_l
        size = len(seed)
        half = self.n_group // 2
        centre, psl = self.center_pt_l, self.psl_l
        psl_ids = self._psl_ids
        if psl_ids is not None and all(centre[g] >= 0 and psl[centre[g]] for g in gens):
            limit = half // 2
        else:
            psl_ids, limit = None, half
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
                    if count > limit:
                        if psl_ids is not None:
                            return psl_ids, half
                        return None, self.n_group  # the whole group
                    seen.add(c)
                    reps.append(y)
        ids = sorted(x for c in seen for x in cosets[c])
        if count == half and self._psl_ids is None:
            # PSL(2,q) is the only subgroup of index 2 in PGL(2,q), q odd
            ords = [self.orders_l[x] for x in ids]
            self._psl_ids, self._psl_stats = ids, (half, ords.count(2), max(ords))
        return ids, count

    def group_stats(self, ids):
        """(order, number of involutions, largest element order) of a closure_ids list.

        None is the whole group, and the recorded PSL list is PSL; both have
        their statistics stored, so only other subgroups are counted.
        """
        if ids is None:
            return self._full_stats
        if ids is self._psl_ids:
            return self._psl_stats
        ords = [self.orders_l[x] for x in ids]
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
