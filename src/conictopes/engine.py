"""Dense lookup tables for exhaustive triple sweeps at small q.

The enumeration core works on integer ids throughout: points and lines are
indexed by their position in the lexicographic canonical order, group
elements by discovery order of a breadth-first closure of the whole conic
stabilizer.  numpy builds the tables once; the per-triple path then reads
their Python-list forms, because a verdict touches a few hundred entries and
array calls on arrays that small cost more than the lookups themselves.
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

import numpy as np

from conictopes.gf import Field
from conictopes.grp import GroupId, identify
from conictopes.perspectivity import involution_from_center, mat_mul, mat_vec
from conictopes.plane import GeometryError, Plane

MAX_ENGINE_Q = 13


def conic_stabilizer_generators(field: Field):
    """Three canonical matrices generating the conic stabilizer.

    Images of the conic parameter t are t+1, lambda*t and 1/t for a
    primitive lambda, which generate the whole group.  Returned with each
    generator's PSL membership (lambda is a non-square; the parity of the
    swap depends on whether -1 is a square).
    """
    lam = field.generator
    lam2 = field.mul(lam, lam)
    two = field.add(1, 1)
    t = (1, 0, 0, 1, 1, 0, 1, two, 1)
    d = (1, 0, 0, 0, lam, 0, 0, 0, lam2)
    s = (0, 0, 1, 0, 1, 0, 1, 0, 0)
    psl_flags = (True, False, field.q % 4 == 1)
    return (t, d, s), psl_flags


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
        F, q = self.field, self.q
        pts = self.plane.points
        self.n_points = len(pts)
        P = np.array(pts, dtype=np.int16)
        mul = np.array(F.mul_t, dtype=np.int16)
        add = np.array(F.add_t, dtype=np.int16)
        neg = np.array(F.neg_t, dtype=np.int16)
        sub = add[np.arange(q)[:, None], neg[np.arange(q)][None, :]]  # a - b

        triple_id = np.full((q, q, q), -1, dtype=np.int32)
        for i, pt in enumerate(pts):
            for s in range(1, q):
                ms = F.mul_t[s]
                triple_id[ms[pt[0]], ms[pt[1]], ms[pt[2]]] = i

        x0, x1, x2 = P[:, 0], P[:, 1], P[:, 2]
        dot = add[add[mul[x0[:, None], x0[None, :]], mul[x1[:, None], x1[None, :]]],
                  mul[x2[:, None], x2[None, :]]]
        on_line = dot == 0
        self.line_pts_l = [frozenset(np.nonzero(col)[0].tolist()) for col in on_line.T]

        c0 = sub[mul[x1[:, None], x2[None, :]], mul[x2[:, None], x1[None, :]]]
        c1 = sub[mul[x2[:, None], x0[None, :]], mul[x0[:, None], x2[None, :]]]
        c2 = sub[mul[x0[:, None], x1[None, :]], mul[x1[:, None], x0[None, :]]]
        line_through = triple_id[c0, c1, c2]  # -1 on the diagonal

        two = F.add(1, 1)
        polar_of = triple_id[x2, neg[mul[two, x1]], x0]
        half = F.inv_t[two]
        pole_of = triple_id[x2, neg[mul[half, x1]], x0]

        quad = sub[mul[x0, x2], mul[x1, x1]]
        conic_mask = quad == 0
        tangent_ids = polar_of[np.nonzero(conic_mask)[0]]
        tcount = on_line[:, tangent_ids].sum(axis=1)
        point_class = np.where(conic_mask, 0, np.where(tcount == 2, 1, 2))
        if not np.all((tcount[~conic_mask] == 2) | (tcount[~conic_mask] == 0)):
            raise GeometryError("an off-conic point lies on neither 0 nor 2 tangents")
        self.off_conic_ids = np.nonzero(~conic_mask)[0]
        psl_point = point_class == (1 if q % 4 == 1 else 2)

        # the per-triple path reads these Python-list forms
        self.lt_l = line_through.tolist()
        self.polar_l = polar_of.tolist()
        self.pole_l = pole_of.tolist()
        self.onl_l = on_line.tolist()
        self.psl_l = psl_point.tolist()

        gens, _ = conic_stabilizer_generators(F)
        self.gen_point_perms = [[int(triple_id[mat_vec(F, g, pt)]) for pt in pts]
                                for g in gens]

    # -- group tables ---------------------------------------------------------

    def _build_group_tables(self):
        F, q = self.field, self.q
        gens, gen_psl = conic_stabilizer_generators(F)
        ident = (1, 0, 0, 0, 1, 0, 0, 0, 1)
        order = q**3 - q
        elements = [ident]
        index = {ident: 0}
        parent = [0]
        gen_of = [0]
        non_psl = [False]
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
                        non_psl.append(non_psl[xi] ^ (not gen_psl[gi]))
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
        self.e_id = 0
        self.psl_elt = np.array([not b for b in non_psl], dtype=bool)

        rg = np.array(right, dtype=np.int32)
        mul_t = np.empty((order, order), dtype=np.int32)
        mul_t[:, 0] = np.arange(order)
        for y in range(1, order):
            mul_t[:, y] = rg[mul_t[:, parent[y]], gen_of[y]]

        acc = np.arange(order)
        ords = np.zeros(order, dtype=np.int16)
        base = np.arange(order)
        for k in range(1, q + 2):
            hit = (acc == 0) & (ords == 0)
            ords[hit] = k
            if ords.all():
                break
            acc = mul_t[acc, base]
        if not ords.all():
            raise GeometryError(f"an element of PGL(2,{q}) has order above {q + 1}")
        self.orders_l = ords.tolist()
        # the rows share one int object per id instead of holding |G|^2 ints
        self.mul_l = np.array(range(order), dtype=object)[mul_t].tolist()

    def _build_involution_tables(self):
        inv_elt = np.full(self.n_points, -1, dtype=np.int32)
        center_pt = np.full(self.n_group, -1, dtype=np.int32)
        for pid in self.off_conic_ids.tolist():
            a = involution_from_center(self.plane, self.plane.points[pid])
            eid = self.elt_index[a.matrix]
            inv_elt[pid] = eid
            center_pt[eid] = pid
        if self.orders_l.count(2) != self.q**2:
            raise GeometryError(f"PGL(2,{self.q}) must have q^2 involutions")
        if int((center_pt >= 0).sum()) != self.q**2:
            raise GeometryError("off-conic points and involutions must correspond")
        self.inv_elt_of_point = inv_elt
        self.inv_elt_l = inv_elt.tolist()
        self.center_pt_l = center_pt.tolist()

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
        c = mul[a][b]
        rots = [0]
        r = c
        while r != 0:
            rots.append(r)
            r = mul[r][c]
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
