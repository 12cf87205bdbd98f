"""Coset geometries: criteria route against the incidence-graph oracle."""

import random
from itertools import combinations

import pytest

from helpers import field, full_group, plane

from conictopes.geom import (
    SubgroupNotContained,
    build_coset_geometry,
    check_hypertope_criteria,
    diagram,
    graph_oracle,
    pair_subgroups,
)
from conictopes.grp import closure
from conictopes.perspectivity import IDENTITY, involution_from_center
from conictopes.triangles import construct_tangent_triangle


def triple_setup(pl, pts, cap=200_000):
    F = pl.field
    invs = [involution_from_center(pl, P) for P in pts]
    H = closure(F, invs, cap=cap)
    Hs = []
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        Hs.append(closure(F, (invs[j], invs[k]), cap=cap))
    return invs, H, Hs


def test_tangent_triangle_q7_is_hypertope():
    pl = plane(7)
    rec = construct_tangent_triangle(pl, *pl.conic_points[:3])
    rep = check_hypertope_criteria(pl, *rec.involutions)
    assert rep.hypertope
    assert rep.bits() == (True, True, True)
    assert rep.intersection_property


def test_collinear_on_tangent_rejected_with_thin_witness():
    pl = plane(5)
    t = pl.tangent_lines[0]
    pts = [x for x in pl.line_points(t) if not pl.on_conic(x)][:3]
    invs = [involution_from_center(pl, P) for P in pts]
    rep = check_hypertope_criteria(pl, *invs)
    assert not rep.hypertope
    assert not rep.thin
    assert rep.witnesses["thin"]
    assert all(w["residue_size"] == pl.field.p for w in rep.witnesses["thin"])


def test_self_polar_triple_rejected():
    pl = plane(7)
    P = pl.off_conic_points[0]
    X = next(x for x in pl.line_points(pl.polar(P)) if not pl.on_conic(x))
    Z = pl.pole(pl.line_through(P, X))
    invs = [involution_from_center(pl, v) for v in (P, X, Z)]
    rep = check_hypertope_criteria(pl, *invs)
    assert not rep.hypertope
    assert not rep.thin and not rep.intersection_property
    assert rep.witnesses["thin"]


def test_coset_counts():
    pl = plane(3)
    rec = construct_tangent_triangle(pl, *pl.conic_points[:3])
    invs, H, Hs = triple_setup(pl, rec.centers)
    assert len(H) == 24
    assert all(len(Hi) == 2 * pl.field.p for Hi in Hs)
    geo = build_coset_geometry(pl.field, H, *Hs)
    assert geo.counts == [4, 4, 4]
    for i in range(3):
        assert all(len(c) == len(Hs[i]) for c in geo.cosets[i])
    # the three base cosets all contain the identity, hence are pairwise incident
    for ti in range(3):
        for tj in range(ti + 1, 3):
            assert (ti, 0, tj, 0) in set(
                (a, b, c, d) if a < c else (c, d, a, b)
                for (a, b, c, d) in geo.incidence)


def test_subgroup_not_contained():
    pl = plane(5)
    F = pl.field
    a, b = (involution_from_center(pl, P) for P in pl.off_conic_points[:2])
    H01 = closure(F, (a, b))
    stranger = next(
        closure(F, (a, involution_from_center(pl, P)))
        for P in pl.off_conic_points
        if not closure(F, (a, involution_from_center(pl, P))).eset <= H01.eset)
    with pytest.raises(SubgroupNotContained):
        build_coset_geometry(F, H01, H01, H01, stranger)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1)])
def test_oracle_agrees_on_sampled_triangles(p, n):
    pl = plane(p, n)
    rng = random.Random(1000 + pl.q)
    checked = 0
    while checked < 20:
        pts = rng.sample(pl.off_conic_points, 3)
        if pl.incident(pts[2], pl.line_through(pts[0], pts[1])):
            continue
        invs, H, Hs = triple_setup(pl, pts)
        crit = check_hypertope_criteria(pl, *invs)
        orc = graph_oracle(build_coset_geometry(pl.field, H, *Hs), H)
        assert crit.bits() == orc.bits(), pts
        checked += 1


def test_oracle_rc_failures_q5():
    # rc holds on every geometry of a triple at q = 3 and 5; these two
    # geometries fail it on the whole incidence graph and on a residue
    pl = plane(5)
    F = pl.field
    pts = [pl.normalize(x) for x in ((0, 1, 1), (1, 0, 1), (1, 1, 0))]
    invs = [involution_from_center(pl, P) for P in pts]
    H = closure(F, invs)
    assert len(H) == 60
    G = full_group(5)
    orc = graph_oracle(build_coset_geometry(F, G, *pair_subgroups(pl, invs)), G)
    assert orc.bits() == (True, False, True)
    assert orc.witnesses["rc"] == [{"scope": "incidence graph"}]
    orc = graph_oracle(build_coset_geometry(F, H, H, [IDENTITY], [IDENTITY]), H)
    assert orc.bits() == (False, False, True)
    assert orc.witnesses["rc"] == [{"scope": "residue", "element": (0, 0)}]


def count_chambers(geo):
    inc = {}
    for (ti, ci, tj, cj) in geo.incidence:
        inc.setdefault((ti, tj), set()).add((ci, cj))
    total = 0
    for (c0, c1) in inc[(0, 1)]:
        for c2 in range(len(geo.cosets[2])):
            if (c0, c2) in inc[(0, 2)] and (c1, c2) in inc[(1, 2)]:
                total += 1
    return total


def test_regular_case_chambers_equal_group_order():
    pl = plane(7)
    rec = construct_tangent_triangle(pl, *pl.conic_points[:3])
    invs, H, Hs = triple_setup(pl, rec.centers)
    geo = build_coset_geometry(pl.field, H, *Hs)
    assert graph_oracle(geo, H).hypertope
    assert count_chambers(geo) == len(H)


def commuting_triple(pl):
    """A proper triangle with exactly one commuting pair (one label 2)."""
    F = pl.field
    for P in pl.off_conic_points:
        a = involution_from_center(pl, P)
        for Q in pl.line_points(pl.polar(P)):
            if pl.on_conic(Q):
                continue
            b = involution_from_center(pl, Q)
            Z = pl.pole(pl.line_through(P, Q))
            for R in pl.off_conic_points:
                if R in (P, Q, Z) or pl.incident(R, pl.line_through(P, Q)):
                    continue
                if pl.incident(R, pl.polar(P)) or pl.incident(R, pl.polar(Q)):
                    continue
                line_pq = pl.line_through(P, Q)
                if pl.pole(line_pq) == R:
                    continue
                c = involution_from_center(pl, R)
                return (a, b, c)
    raise AssertionError("no commuting pair triple found")


def test_digon_residue_is_complete_bipartite():
    pl = plane(5)
    F = pl.field
    a, b, c = commuting_triple(pl)
    H = closure(F, (a, b, c))
    Hs = [closure(F, (b, c)), closure(F, (a, c)), closure(F, (a, b))]
    geo = build_coset_geometry(F, H, *Hs)
    d = diagram(pl, a, b, c, geo)
    assert d.edge_labels[(0, 1)] == 2
    assert d.linear
    assert d.residue_params[(0, 1)] == (2, 2, 2)
    # generalized digon: inside the residue of the base type-2 coset, every
    # type-0 element is incident to every type-1 element
    inc = set()
    for (ti, ci, tj, cj) in geo.incidence:
        inc.add((ti, ci, tj, cj))
    side0 = [ci for ci in range(len(geo.cosets[0])) if (0, ci, 2, 0) in inc]
    side1 = [cj for cj in range(len(geo.cosets[1])) if (1, cj, 2, 0) in inc]
    for ci in side0:
        for cj in side1:
            assert (0, ci, 1, cj) in inc


def test_diagram_labels_symmetric_and_nonlinear_case():
    pl = plane(5)
    F = pl.field
    rng = random.Random(77)
    pts = rng.sample(pl.off_conic_points, 3)
    invs = [involution_from_center(pl, P) for P in pts]
    d = diagram(pl, *invs)
    from conictopes.perspectivity import mat_mul, mat_order
    for (i, j), v in d.edge_labels.items():
        assert mat_order(F, mat_mul(F, invs[j].matrix, invs[i].matrix)) == v


def test_nonlinear_construction_diagram_q5():
    from conictopes.triangles import construct_nonlinear_pgl

    F = field(5)
    rec = construct_nonlinear_pgl(F)
    labels = list(rec.labels.values())
    assert 4 in labels  # the secant base line contributes order q-1
    assert all(v > 2 for v in labels)
    pl = plane(5)
    d = diagram(pl, *rec.involutions)
    assert not d.linear


def test_gonality_bounds_on_residues():
    pl = plane(7)
    rec = construct_tangent_triangle(pl, *pl.conic_points[:3])
    invs, H, Hs = triple_setup(pl, rec.centers)
    geo = build_coset_geometry(pl.field, H, *Hs)
    d = diagram(pl, *invs, geo)
    for (i, j), (dp, g, dl) in d.residue_params.items():
        assert 2 <= g <= min(dp, dl)


def test_intersection_property_for_hypertopes():
    pl = plane(5)
    F = pl.field
    rng = random.Random(55)
    found = 0
    while found < 8:
        pts = rng.sample(pl.off_conic_points, 3)
        if pl.incident(pts[2], pl.line_through(pts[0], pts[1])):
            continue
        invs, H, Hs = triple_setup(pl, pts)
        rep = check_hypertope_criteria(pl, *invs)
        if not rep.hypertope:
            continue
        found += 1
        from conictopes.perspectivity import IDENTITY
        for i in range(3):
            j, k = [x for x in range(3) if x != i]
            assert Hs[i].eset & Hs[j].eset == {IDENTITY, invs[k].matrix}


def test_tangent_collinear_independent_carriers_q9():
    """Three centers on a tangent line whose affine carriers are independent:
    the geometry is complete tripartite with rank-1 residues of size p, and
    rejection comes from flag-transitivity (the intersections are small)."""
    pl = plane(3, 2)
    F = pl.field
    t = pl.tangent_lines[0]
    carriers = [x for x in pl.line_points(t) if not pl.on_conic(x)]
    picked = None
    for tri in combinations(carriers, 3):
        invs = [involution_from_center(pl, P) for P in tri]
        H = closure(F, invs)
        if len(H) == 2 * 9:  # translation part of full rank
            picked = (tri, invs, H)
            break
    assert picked is not None
    tri, invs, H = picked
    crit = check_hypertope_criteria(pl, *invs)
    assert crit.intersection_property and not crit.flag_transitive
    assert not crit.hypertope
    Hs = []
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        Hs.append(closure(F, (invs[j], invs[k])))
    geo = build_coset_geometry(F, H, *Hs)
    orc = graph_oracle(geo, H)
    assert not orc.thin and not orc.hypertope
    assert geo.counts == [3, 3, 3]
    sizes = {w["residue_size"] for w in orc.witnesses["thin"]}
    assert sizes == {3}  # every rank-1 residue carries p elements


def test_json_and_dot_exports():
    pl = plane(3)
    rec = construct_tangent_triangle(pl, *pl.conic_points[:3])
    invs, H, Hs = triple_setup(pl, rec.centers)
    geo = build_coset_geometry(pl.field, H, *Hs)
    obj = geo.to_json_obj()
    assert obj["types"] == [0, 1, 2]
    assert obj["counts"] == [4, 4, 4]
    assert all(len(row) == 4 for row in obj["incidence"])
    dot = geo.to_dot()
    assert dot.startswith("graph coset_geometry {")
    assert dot.rstrip().endswith("}")
