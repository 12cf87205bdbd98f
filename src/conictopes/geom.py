"""Rank-3 coset geometries and the hypertope criteria.

For involutions a0, a1, a2 generating H, the coset geometry has one type per
index i with elements the right cosets of H_i = <a_j, a_k> ({i,j,k} all of
{0,1,2}), two cosets incident when they intersect.  Two independent routes
decide whether the geometry is a regular hypertope:

* check_hypertope_criteria evaluates the group-theoretic criteria on the
  H_i alone (no closure of H is ever needed):
    - intersection property  <=>  H_i & H_j == {e, a_k} for all three pairs,
    - flag-trans. <=>  (H_i&H_j)(H_i&H_k) == H_i & (H_j*H_k) for every one
                       of the six ordered index choices,
    - residual connectedness <=> H_J = <H_{J+{i}} : i outside J> for every
                       J with at least two indices missing,
    - thin        <=>  intersection property and flag-transitive.
  The last conjunction is what geometric thinness amounts to here: with the
  small intersections, flag-transitivity makes every rank-1 residue have
  exactly two elements, while a thin residually connected geometry has a
  connected chamber system, so all chambers lie in the orbit of the base
  chamber and the action is chamber-transitive.  The intersection condition
  alone (the rank-2 intersection property of a C-group) does not count
  residues when flag-transitivity fails, and the geometry is then never
  thin; both bits are reported.
* graph_oracle answers the same three questions directly on the incidence
  graph of a built coset geometry: residue sizes for thinness, connectivity
  of the graph and of every rank-2 residue, and chamber-transitivity of the
  right-translation action for flag-transitivity.

The two routes are kept strictly separate so one can audit the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from conictopes.grp import ElementSet, closure, generate
from conictopes.perspectivity import IDENTITY, Involution, mat_mul, product_order
from conictopes.plane import Plane


class SubgroupNotContained(ValueError):
    """build_coset_geometry needs H_i subsets of H."""


@dataclass
class CriteriaReport:
    thin: bool
    residually_connected: bool
    flag_transitive: bool
    intersection_property: bool | None = None  # group route only
    witnesses: dict = dc_field(default_factory=dict)

    @property
    def hypertope(self) -> bool:
        return self.thin and self.residually_connected and self.flag_transitive

    def bits(self) -> tuple[bool, bool, bool]:
        return (self.thin, self.residually_connected, self.flag_transitive)


def coset_criteria(e, mul, gens, subgroups, sp_intersect=None) -> CriteriaReport:
    """Group-criteria evaluation, generic over the element representation.

    e is the identity, mul a binary product, gens = (a0, a1, a2), and
    subgroups = (H0, H1, H2) the closures <a_j, a_k> as sets.  The optional
    sp_intersect(Hj, Hk, Hi) must return H_i & (H_j * H_k) and exists so a
    table-driven caller can replace the one expensive step, the full
    product set, by a loop over H_i that stops at the first h in H_j with
    h * g in H_k.
    """
    Hs = [frozenset(S) for S in subgroups]
    pairs = {(i, j): Hs[i] & Hs[j] for i in range(3) for j in range(3) if i != j}
    witnesses = {}

    ip = True
    for i, j in ((0, 1), (0, 2), (1, 2)):
        k = 3 - i - j
        inter = pairs[(i, j)]
        if inter != frozenset((e, gens[k])):
            ip = False
            witnesses.setdefault("thin", []).append(
                {"pair": (i, j), "order": len(inter),
                 "residue_size": len(inter) // 2})

    rc = True
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        gen_set = pairs[(i, j)] | pairs[(i, k)]
        if gens[j] in gen_set and gens[k] in gen_set:
            continue  # <a_j, a_k> = H_i by construction
        generated = frozenset(generate(e, mul, gen_set))
        if generated != Hs[i]:
            rc = False
            witnesses.setdefault("rc", []).append(
                {"index": i, "generated": len(generated), "subgroup": len(Hs[i])})

    ft = True
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        for (jj, kk) in ((j, k), (k, j)):
            if sp_intersect is not None:
                lhs = frozenset(sp_intersect(Hs[jj], Hs[kk], Hs[i]))
            else:
                prod = {mul(x, y) for x in Hs[jj] for y in Hs[kk]}
                lhs = Hs[i] & prod
            rhs = {mul(x, y) for x in pairs[(i, jj)] for y in pairs[(i, kk)]}
            if lhs != rhs:
                ft = False
                sample = next(iter(lhs.symmetric_difference(rhs)))
                witnesses.setdefault("ft", []).append(
                    {"triple": (i, jj, kk), "lhs": len(lhs), "rhs": len(rhs),
                     "element": sample})
    return CriteriaReport(thin=ip and ft, residually_connected=rc,
                          flag_transitive=ft, intersection_property=ip,
                          witnesses=witnesses)


def pair_subgroups(plane: Plane, gens) -> list:
    """H_i = <a_j, a_k> for i = 0, 1, 2 as sets of canonical matrices.

    Each is dihedral of order at most 2(q+1), so the closure cap only
    guards against generators that are not involutions.
    """
    return [closure(plane.field, (gens[j], gens[k]), cap=8 * (plane.q + 2)).eset
            for j, k in ((1, 2), (0, 2), (0, 1))]


def check_hypertope_criteria(plane: Plane, a0: Involution, a1: Involution,
                             a2: Involution) -> CriteriaReport:
    """Decide thin / residually connected / flag-transitive from the H_i alone."""
    F = plane.field
    gens = (a0.matrix, a1.matrix, a2.matrix)
    return coset_criteria(IDENTITY, lambda x, y: mat_mul(F, x, y), gens,
                          pair_subgroups(plane, gens))


# -- the geometry itself ------------------------------------------------------


@dataclass
class CosetGeometry:
    """Typed coset elements with incidence, over element ids of H.

    cosets[i] lists the type-i cosets as sorted tuples of indices into
    H.elements, in order of their smallest index; coset_of[i][g] is the
    type-i coset holding element g; incidence holds (type_i, idx_i, type_j,
    idx_j) with i < j.
    """

    types: tuple = (0, 1, 2)
    cosets: list = dc_field(default_factory=list)
    incidence: list = dc_field(default_factory=list)
    coset_of: list = dc_field(default_factory=list)

    @property
    def counts(self):
        return [len(c) for c in self.cosets]

    def to_json_obj(self) -> dict:
        return {"types": list(self.types), "counts": self.counts,
                "incidence": [list(t) for t in self.incidence]}

    def to_dot(self) -> str:
        shapes = ("circle", "box", "diamond")
        out = ["graph coset_geometry {"]
        for t in self.types:
            for idx in range(len(self.cosets[t])):
                out.append(f'  "t{t}_{idx}" [shape={shapes[t]}];')
        for (ti, ci, tj, cj) in self.incidence:
            out.append(f'  "t{ti}_{ci}" -- "t{tj}_{cj}";')
        out.append("}")
        return "\n".join(out) + "\n"


def build_coset_geometry(field, H: ElementSet, H0, H1, H2) -> CosetGeometry:
    """Full typed coset lists and incidence pairs for Gamma(H, (H0, H1, H2)).

    One walk over H per type: the first element in no coset yet is the
    smallest index of H_i * g, so the cosets open in order of that index.
    """
    index = {m: i for i, m in enumerate(H.elements)}
    cosets = []
    coset_of = []  # per type: element index -> coset index
    for Hi in (H0, H1, H2):
        s = Hi.eset if isinstance(Hi, ElementSet) else frozenset(Hi)
        if not s <= H.eset:
            raise SubgroupNotContained("H_i must be a subset of H")
        of = [-1] * len(H.elements)
        classes = []
        for gi, g in enumerate(H.elements):
            if of[gi] < 0:
                members = sorted(index[mat_mul(field, h, g)] for h in s)
                for x in members:
                    of[x] = len(classes)
                classes.append(tuple(members))
        cosets.append(classes)
        coset_of.append(of)
    incidence = {(ti, coset_of[ti][g], tj, coset_of[tj][g])
                 for g in range(len(H.elements))
                 for ti, tj in ((0, 1), (0, 2), (1, 2))}
    return CosetGeometry(cosets=cosets, incidence=sorted(incidence),
                         coset_of=coset_of)


def _incidence_graph(geometry: CosetGeometry) -> dict:
    """{(type, index): set of incident (type, index)} over every coset."""
    adj = {(t, c): set() for t in geometry.types
           for c in range(len(geometry.cosets[t]))}
    for (ti, ci, tj, cj) in geometry.incidence:
        adj[(ti, ci)].add((tj, cj))
        adj[(tj, cj)].add((ti, ci))
    return adj


def _residue(adj, u) -> dict:
    """The residue of u: its neighbours and the incidences among them."""
    return {v: adj[v] & adj[u] for v in adj[u]}


def graph_oracle(geometry: CosetGeometry, H: ElementSet) -> CriteriaReport:
    """Independent incidence-graph verdicts on the same three criteria."""
    adj = _incidence_graph(geometry)
    witnesses = {}

    # the rank-1 residue of a flag {u, v} is the third-type nodes on both
    thin = True
    for (ti, ci, tj, cj) in geometry.incidence:
        size = len(adj[(ti, ci)] & adj[(tj, cj)])
        if size != 2:
            thin = False
            if len(witnesses.setdefault("thin", [])) < 3:
                witnesses["thin"].append(
                    {"flag": (ti, ci, tj, cj), "residue_size": size})

    rc = _connected(adj)
    if not rc:
        witnesses.setdefault("rc", []).append({"scope": "incidence graph"})
    else:
        # rank-2 residues: the residue of each single element must be connected
        for u in adj:
            if not _connected(_residue(adj, u)):
                rc = False
                witnesses.setdefault("rc", []).append(
                    {"scope": "residue", "element": u})

    # flag-transitivity: chambers versus the orbit of the base chamber
    chambers = sum(len(adj[(0, ci)] & adj[(1, cj)])
                   for (ti, ci, tj, cj) in geometry.incidence if (ti, tj) == (0, 1))
    orbit = {tuple(of[g] for of in geometry.coset_of)
             for g in range(len(H.elements))}
    ft = chambers == len(orbit)
    if not ft:
        witnesses.setdefault("ft", []).append(
            {"chambers": chambers, "base_orbit": len(orbit)})
    return CriteriaReport(thin=thin, residually_connected=rc,
                          flag_transitive=ft, witnesses=witnesses)


def _connected(adj) -> bool:
    return not adj or len(_distances(adj, next(iter(adj)))) == len(adj)


def _distances(adj, start) -> dict:
    """Breadth-first distances from start to every vertex it reaches."""
    dist = {start: 0}
    queue = [start]
    for u in queue:
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


# -- Buekenhout diagram data ---------------------------------------------------


@dataclass
class DiagramReport:
    edge_labels: dict          # {(i, j): order of a_i * a_j}
    linear: bool               # some label equals 2
    element_counts: list | None = None
    residue_params: dict | None = None  # {(i, j): (d_P, g, d_L)}

    def describe(self) -> dict:
        out = {"edge_labels": {f"{i}{j}": v for (i, j), v in self.edge_labels.items()},
               "linear": self.linear}
        if self.element_counts is not None:
            out["element_counts"] = self.element_counts
        if self.residue_params is not None:
            out["residue_params"] = {f"{i}{j}": list(v)
                                     for (i, j), v in self.residue_params.items()}
        return out


def edge_labels(field, invs) -> dict:
    """{(i, j): order of alpha_i * alpha_j} for the pairs i < j."""
    return {(i, j): product_order(field, invs[i], invs[j])
            for i, j in ((0, 1), (0, 2), (1, 2))}


def diagram(plane: Plane, a0: Involution, a1: Involution, a2: Involution,
            geometry: CosetGeometry | None = None) -> DiagramReport:
    """Edge labels from product orders; residue parameters from the geometry.

    When a geometry is supplied, the (d_P, gonality, d_L) of each rank-2
    residue type {i, j} is measured on the residue of the base type-k coset
    by bipartite BFS; d_P is taken from the lower-type side.
    """
    labels = edge_labels(plane.field, (a0, a1, a2))
    report = DiagramReport(edge_labels=labels,
                           linear=any(v == 2 for v in labels.values()))
    if geometry is None:
        return report
    report.element_counts = geometry.counts
    adj = _incidence_graph(geometry)
    params = {}
    for tk in range(3):
        ti, tj = [x for x in range(3) if x != tk]
        # the base coset H_k itself (contains the identity)
        res = _residue(adj, (tk, 0))
        ecc = {t: max((max(_distances(res, v).values()) for v in res if v[0] == t),
                      default=0) for t in (ti, tj)}
        params[(ti, tj)] = (ecc[ti], _girth(res) // 2, ecc[tj])
    report.residue_params = params
    return report


def _girth(adj) -> int:
    best = 0
    for start in adj:
        dist = {start: 0}
        parent = {start: None}
        frontier = [start]
        local = None
        while frontier and local is None:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        parent[v] = u
                        nxt.append(v)
                    elif parent[u] != v:
                        cycle = dist[u] + dist[v] + 1
                        local = cycle if local is None else min(local, cycle)
            frontier = nxt
        if local is not None and (best == 0 or local < best):
            best = local
    return best
