"""Closure, set products, intersections, and generated-group identification."""

import random
from itertools import combinations

import pytest

from helpers import field, full_group, plane

from conictopes.grp import (
    BudgetExceeded,
    ElementSet,
    NotClosed,
    closure,
    element_orders,
    identify_group,
    intersect,
    line_stabilizer,
    powers,
    set_product,
)
from conictopes.perspectivity import (
    IDENTITY,
    center_axis,
    involution_from_center,
    mat_adjugate,
    mat_mul,
    mat_order,
    product_order,
)
from conictopes.plane import SECANT, TANGENT, GeometryError
from conictopes.triangles import construct_tangent_triangle


def invs_for(pl, pts):
    return [involution_from_center(pl, P) for P in pts]


def test_closure_of_identity():
    F = field(5)
    assert len(closure(F, [IDENTITY])) == 1


def test_closure_dihedral_size_matches_product_order():
    pl = plane(5)
    F = pl.field
    # find a pair with product order 4 and verify the set element by element
    found = None
    for P, Q in combinations(pl.off_conic_points, 2):
        a, b = invs_for(pl, (P, Q))
        if product_order(F, a, b) == 4:
            found = (a, b)
            break
    assert found is not None
    a, b = found
    H = closure(F, (a, b))
    assert len(H) == 8
    c = mat_mul(F, a.matrix, b.matrix)
    expected = set()
    r = IDENTITY
    for _ in range(4):
        expected.add(r)
        expected.add(mat_mul(F, r, a.matrix))
        r = mat_mul(F, r, c)
    assert H.eset == expected


def test_dihedral_law_exhaustive():
    for p in (3, 5, 7):
        pl = plane(p)
        F = pl.field
        invs = {P: involution_from_center(pl, P) for P in pl.off_conic_points}
        for P, Q in combinations(pl.off_conic_points, 2):
            a, b = invs[P], invs[Q]
            t = product_order(F, a, b)
            assert len(closure(F, (a, b))) == 2 * t


def test_closure_q3_tangent_triangle():
    pl = plane(3)
    rec = construct_tangent_triangle(pl, *pl.conic_points[:3])
    H = closure(pl.field, rec.involutions)
    assert len(H) == 24


def test_closure_budget():
    F = field(5)
    pl = plane(5)
    a, b = invs_for(pl, pl.off_conic_points[:2])
    with pytest.raises(BudgetExceeded) as err:
        closure(F, (a, b), cap=3)
    assert err.value.partial_size is not None and err.value.partial_size > 3


def test_set_product_identity_and_closure():
    F = field(5)
    pl = plane(5)
    a, b = invs_for(pl, pl.off_conic_points[:2])
    H = closure(F, (a, b))
    assert set_product(F, H, [IDENTITY]) == H.eset
    assert set_product(F, H, H) == H.eset


def test_set_product_coset_double_counting_q5():
    pl = plane(5)
    F = pl.field
    # a triple where H2 and H0 share exactly two elements
    for P, Q, R in combinations(pl.off_conic_points, 3):
        a0, a1, a2 = invs_for(pl, (P, Q, R))
        H2 = closure(F, (a0, a1))
        H0 = closure(F, (a1, a2))
        inter = intersect(H2, H0)
        if inter == frozenset((IDENTITY, a1.matrix)):
            prod = set_product(F, H2, H0)
            assert len(prod) == len(H2) * len(H0) // 2
            return
    raise AssertionError("no triple with a two-element overlap found")


def test_line_stabilizer_orders():
    pl = plane(5)
    G = full_group(5)
    for l in pl.lines[:10]:
        stab = line_stabilizer(pl, G, l)
        if pl.classify_line(l) == TANGENT:
            assert len(stab) == pl.q * (pl.q - 1)
        elif pl.classify_line(l) == SECANT:
            assert len(stab) == 2 * (pl.q - 1)
        else:
            assert len(stab) == 2 * (pl.q + 1)


def test_stabilizer_intersections_q5():
    pl = plane(5)
    G = full_group(5)
    t1, t2 = pl.tangent_lines[:2]
    inter = intersect(line_stabilizer(pl, G, t1), line_stabilizer(pl, G, t2))
    assert len(inter) == pl.q - 1
    # tangent and a non-tangent meeting it off the conic
    other = next(l for l in pl.lines
                 if pl.classify_line(l) != TANGENT
                 and not pl.on_conic(pl.meet(t1, l)))
    inter2 = intersect(line_stabilizer(pl, G, t1), line_stabilizer(pl, G, other))
    assert len(inter2) == 2


def test_stabilizer_intersections_non_tangent_q7():
    pl = plane(7)
    G = full_group(7)
    F = pl.field
    non_tangent = [l for l in pl.lines if pl.classify_line(l) != TANGENT]
    rng = random.Random(17)
    seen_klein = False
    for _ in range(40):
        l1, l2 = rng.sample(non_tangent, 2)
        inter = intersect(line_stabilizer(pl, G, l1), line_stabilizer(pl, G, l2))
        P = pl.meet(l1, l2)
        if pl.on_conic(P):
            # two secants through a common conic point: any common element
            # fixes three conic points, so the intersection is trivial
            assert inter == frozenset((IDENTITY,))
            continue
        aP = involution_from_center(pl, P)
        assert aP.matrix in inter
        assert len(inter) in (2, 4)
        if len(inter) == 4:
            seen_klein = True
            assert all(m == IDENTITY or mat_order(F, m) == 2 for m in inter)
            # the two extra centers sit on the lines, on the polar of the meet
            others = [center_axis(pl, m)[0] for m in inter
                      if m != IDENTITY and m != aP.matrix]
            assert {pl.incident(X, pl.polar(P)) for X in others} == {True}
    assert seen_klein


def test_identify_klein4():
    pl = plane(5)
    F = pl.field
    P = pl.off_conic_points[0]
    a = involution_from_center(pl, P)
    X = next(x for x in pl.line_points(pl.polar(P)) if not pl.on_conic(x))
    b = involution_from_center(pl, X)
    H = closure(F, (a, b))
    gid = identify_group(H, F)
    assert gid.tag == "Klein4" and gid.order == 4


def test_identify_tangent_triangles():
    pl9 = plane(3, 2)
    rec9 = construct_tangent_triangle(pl9, *pl9.conic_points[:3])
    assert rec9.group_id.label == "PGL(2,3)" and rec9.group_id.order == 24
    pl5 = plane(5)
    rec5 = construct_tangent_triangle(pl5, *pl5.conic_points[:3])
    assert rec5.group_id.label == "PSL(2,5)" and rec5.group_id.order == 60


def test_element_orders_match_mat_order():
    for p, n in ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)):
        F = field(p, n)
        G = full_group(p, n).elements
        orders = element_orders(IDENTITY, lambda x, y: mat_mul(F, x, y), G, F.q + 1)
        assert orders == [mat_order(F, m) for m in G]


def test_powers_past_cap_is_a_geometry_error():
    assert powers(0, lambda x, y: (x + y) % 4, 1, cap=4) == [1, 2, 3, 0]
    with pytest.raises(GeometryError):
        powers(0, lambda x, y: x + y, 1, cap=50)


def test_identify_full_groups():
    for p, n in ((5, 1), (7, 1)):
        F = field(p, n)
        gid = identify_group(full_group(p, n), F)
        assert gid.label == f"PGL(2,{F.q})"
        assert gid.n_involutions == F.q**2
        assert gid.max_elt_order == F.q + 1


def test_identify_dihedral_tags():
    pl = plane(5)
    F = pl.field
    for P, Q in combinations(pl.off_conic_points, 2):
        a, b = invs_for(pl, (P, Q))
        t = product_order(F, a, b)
        if t > 2:
            gid = identify_group(closure(F, (a, b)), F)
            assert gid.tag == "Dihedral" and gid.m == t
            return


def test_identification_stable_under_conjugation():
    pl = plane(5)
    F = pl.field
    G = full_group(5)
    rng = random.Random(23)
    pts = rng.sample(pl.off_conic_points, 3)
    H = closure(F, invs_for(pl, pts))
    base = identify_group(H, F).label
    for g in rng.sample(list(G.elements), 5):
        adj = mat_adjugate(F, g)
        conj = ElementSet(
            elements=tuple(mat_mul(F, mat_mul(F, g, h), adj) for h in H),
            closed=True)
        assert identify_group(conj, F).label == base


def test_lagrange_spot_checks():
    rng = random.Random(31)
    for p, n in ((5, 1), (3, 2), (3, 3)):
        pl = plane(p, n)
        F = pl.field
        order_g = F.q**3 - F.q
        for _ in range(3):
            pts = rng.sample(pl.off_conic_points, 2)
            H = closure(F, invs_for(pl, pts))
            assert order_g % len(H) == 0


def make_non_proper(pl):
    """A triangle with polar(P) equal to the opposite side: P the pole of a
    non-tangent line carrying the other two centers."""
    l = next(l for l in pl.lines if pl.classify_line(l) == SECANT)
    P = pl.pole(l)
    on_l = [x for x in pl.line_points(l) if not pl.on_conic(x)]
    return P, on_l


def test_insidestab_orders_and_center():
    pl = plane(7)
    F = pl.field
    P, on_l = make_non_proper(pl)
    aP = involution_from_center(pl, P)
    for Q, R in combinations(on_l, 2):
        aQ, aR = invs_for(pl, (Q, R))
        D = closure(F, (aQ, aR))
        H = closure(F, (aP, aQ, aR))
        m = len(D) // 2
        assert len(H) in (2 * m, 4 * m)
        # the polarized involution is central in H
        assert all(mat_mul(F, aP.matrix, h) == mat_mul(F, h, aP.matrix) for h in H)
        assert (len(H) == 2 * m) == (aP.matrix in D)


def test_not_closed_rejected():
    pl = plane(5)
    F = pl.field
    a, b = invs_for(pl, pl.off_conic_points[:2])
    ragged = ElementSet(elements=(IDENTITY, a.matrix, b.matrix))
    with pytest.raises(NotClosed):
        identify_group(ragged, F)
