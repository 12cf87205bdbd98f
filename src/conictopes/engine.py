"""Dense lookup tables for exhaustive triple sweeps at small q.

The enumeration core works on integer ids throughout: points and lines are
indexed by their position in the lexicographic canonical order, group
elements by discovery order of a breadth-first closure of the whole conic
stabilizer.  A full Cayley table plus per-pair dihedral subgroup caches make
a single triangle verdict a few hundred table lookups, which is what lets
the full sweeps over all C(q^2, 3) triples finish in seconds.

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
from conictopes.plane import Plane

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
        self._mask_cache: dict[frozenset, tuple[np.ndarray, np.ndarray]] = {}
        self._tag_cache: dict[tuple[int, int, int], str] = {}

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
        self._mul_np, self._add_np, self._sub_np, self._neg_np = mul, add, sub, neg

        triple_id = np.full((q, q, q), -1, dtype=np.int32)
        for i, pt in enumerate(pts):
            for s in range(1, q):
                ms = F.mul_t[s]
                triple_id[ms[pt[0]], ms[pt[1]], ms[pt[2]]] = i
        self.triple_id = triple_id

        x0, x1, x2 = P[:, 0], P[:, 1], P[:, 2]
        dot = add[add[mul[x0[:, None], x0[None, :]], mul[x1[:, None], x1[None, :]]],
                  mul[x2[:, None], x2[None, :]]]
        self.on_line = dot == 0
        self.line_pts_l = [frozenset(np.nonzero(col)[0].tolist()) for col in self.on_line.T]

        c0 = sub[mul[x1[:, None], x2[None, :]], mul[x2[:, None], x1[None, :]]]
        c1 = sub[mul[x2[:, None], x0[None, :]], mul[x0[:, None], x2[None, :]]]
        c2 = sub[mul[x0[:, None], x1[None, :]], mul[x1[:, None], x0[None, :]]]
        self.line_through_id = triple_id[c0, c1, c2]  # -1 on the diagonal

        two = F.add(1, 1)
        self.polar_of = triple_id[x2, neg[mul[two, x1]], x0]
        half = F.inv_t[two]
        self.pole_of = triple_id[x2, neg[mul[half, x1]], x0]

        quad = sub[mul[x0, x2], mul[x1, x1]]
        conic_mask = quad == 0
        self.conic_ids = np.nonzero(conic_mask)[0]
        tangent_ids = self.polar_of[self.conic_ids]
        tcount = self.on_line[:, tangent_ids].sum(axis=1)
        point_class = np.where(conic_mask, 0, np.where(tcount == 2, 1, 2))
        assert np.all((tcount[~conic_mask] == 2) | (tcount[~conic_mask] == 0))
        self.off_conic_ids = np.nonzero(~conic_mask)[0]
        if q % 4 == 1:
            self.psl_point = point_class == 1
        else:
            self.psl_point = point_class == 2

        # python-list mirrors for the scalar-heavy inner loops
        self.lt_l = self.line_through_id.tolist()
        self.polar_l = self.polar_of.tolist()
        self.pole_l = self.pole_of.tolist()
        self.onl_l = self.on_line.tolist()
        self.psl_l = self.psl_point.tolist()

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
        assert len(elements) == order, (len(elements), order)
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
        self.mul_np = mul_t
        self.inv_np = np.argmax(mul_t == 0, axis=1).astype(np.int32)

        acc = np.arange(order)
        ords = np.zeros(order, dtype=np.int16)
        base = np.arange(order)
        for k in range(1, q + 2):
            hit = (acc == 0) & (ords == 0)
            ords[hit] = k
            if ords.all():
                break
            acc = mul_t[acc, base]
        assert ords.all()
        self.orders = ords
        self.mul_l = mul_t.tolist()

        gen_perms = []
        for g in gens:
            imgs = [int(self.triple_id[mat_vec(F, g, pt)]) for pt in self.plane.points]
            gen_perms.append(imgs)
        self.gen_point_perms = gen_perms

    def _build_involution_tables(self):
        inv_elt = np.full(self.n_points, -1, dtype=np.int32)
        center_pt = np.full(self.n_group, -1, dtype=np.int32)
        for pid in self.off_conic_ids.tolist():
            a = involution_from_center(self.plane, self.plane.points[pid])
            eid = self.elt_index[a.matrix]
            inv_elt[pid] = eid
            center_pt[eid] = pid
        assert int((self.orders == 2).sum()) == self.q**2
        assert int((center_pt >= 0).sum()) == self.q**2
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

    def _arr_mask(self, s: frozenset):
        got = self._mask_cache.get(s)
        if got is not None:
            return got
        arr = np.fromiter(s, dtype=np.int32, count=len(s))
        arr.sort()
        mask = np.zeros(self.n_group, dtype=bool)
        mask[arr] = True
        self._mask_cache[s] = (arr, mask)
        return arr, mask

    def sp_intersect(self, Hj: frozenset, Hk: frozenset, Hi: frozenset):
        """H_i & (H_j * H_k) via one vectorized product table lookup."""
        arr_j, _ = self._arr_mask(Hj)
        arr_i, _ = self._arr_mask(Hi)
        _, mask_k = self._arr_mask(Hk)
        # g in H_i lies in H_j*H_k iff inv(h)*g lands in H_k for some h in H_j
        inv_j = self.inv_np[arr_j]
        prods = self.mul_np[np.ix_(inv_j, arr_i)]
        hits = mask_k[prods].any(axis=0)
        return [int(x) for x in arr_i[hits]]

    # -- closures and identification -------------------------------------------

    def closure_ids(self, seed, gens):
        """Closure <gens> seeded with known members, with a Lagrange early-out.

        seed must be contained in the generated subgroup.  Once more than
        half the full group is seen the subgroup is the whole group and
        None is returned in place of the id array.
        """
        mul = self.mul_np
        seen = np.zeros(self.n_group, dtype=bool)
        gens = np.unique(np.asarray(list(gens), dtype=np.int32))
        seen[np.asarray(list(seed), dtype=np.int32)] = True
        seen[gens] = True
        seen[0] = True
        count = int(seen.sum())
        frontier = np.nonzero(seen)[0].astype(np.int32)
        half = self.n_group // 2
        while frontier.size:
            prods = mul[np.ix_(frontier, gens)].ravel()
            fresh = prods[~seen[prods]]
            if fresh.size == 0:
                break
            fresh = np.unique(fresh)
            seen[fresh] = True
            count += fresh.size
            if count > half:
                return None, self.n_group  # the whole group
            frontier = fresh
        return np.nonzero(seen)[0], count

    def group_stats(self, ids):
        if ids is None:
            ords = self.orders
            order = self.n_group
        else:
            ords = self.orders[ids]
            order = len(ids)
        return order, int((ords == 2).sum()), int(ords.max())

    def identify_ids(self, ids) -> GroupId:
        """grp.identify on element ids; None stands for the whole group."""
        if ids is None:
            ids = np.arange(self.n_group)
        mul = self.mul_l
        return identify(0, lambda x, y: mul[x][y], ids.tolist(),
                        self.orders[ids].tolist(), self.field)

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
