"""Involutions of the conic stabilizer: construction, centers, orders, PSL."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import field, full_group, plane, psl_subgroup

from conictopes.perspectivity import (
    IDENTITY,
    CenterOnConic,
    NotAnInvolution,
    center_axis,
    commute,
    in_psl,
    involution_from_center,
    line_image,
    mat_adjugate,
    mat_mul,
    mat_order,
    mat_vec,
    point_image,
    product_order,
)
from conictopes.plane import EXTERIOR, INTERIOR, SECANT, TANGENT


def test_involution_fixes_center_and_axis_q7():
    pl = plane(7)
    for P in pl.off_conic_points:
        a = involution_from_center(pl, P)
        assert point_image(pl, a.matrix, P) == P
        assert a.axis == pl.polar(P)
        for X in pl.line_points(a.axis):
            assert point_image(pl, a.matrix, X) == X
        assert mat_mul(pl.field, a.matrix, a.matrix) == IDENTITY
        # every line through the center is fixed as a line
        for l in pl.lines_through(P):
            assert line_image(pl, a.matrix, l) == l


def test_involution_preserves_conic():
    for p, n in ((5, 1), (3, 2)):
        pl = plane(p, n)
        conic = set(pl.conic_points)
        for P in pl.off_conic_points:
            a = involution_from_center(pl, P)
            assert {point_image(pl, a.matrix, A) for A in conic} == conic


def test_center_on_conic_rejected():
    pl = plane(5)
    with pytest.raises(CenterOnConic):
        involution_from_center(pl, pl.conic_points[0])


def test_center_map_is_a_bijection_q5():
    pl = plane(5)
    mats = {involution_from_center(pl, P).matrix for P in pl.off_conic_points}
    assert len(mats) == 25
    # and they exhaust the involutions of the whole stabilizer
    G = full_group(5)
    involutions = {g for g in G if g != IDENTITY
                   and mat_mul(pl.field, g, g) == IDENTITY}
    assert mats == involutions


@pytest.mark.parametrize("p,n", [(3, 1), (7, 1), (3, 2)])
def test_center_count_is_q_squared(p, n):
    pl = plane(p, n)
    mats = {involution_from_center(pl, P).matrix for P in pl.off_conic_points}
    assert len(mats) == pl.q**2


def test_fixed_conic_points_by_center_class_q9():
    pl = plane(3, 2)
    for P in pl.off_conic_points:
        a = involution_from_center(pl, P)
        fixed = sum(1 for A in pl.conic_points
                    if point_image(pl, a.matrix, A) == A)
        if pl.classify_point(P) == EXTERIOR:
            assert fixed == 2
        else:
            assert fixed == 0


def test_center_axis_roundtrip_q5():
    pl = plane(5)
    for P in pl.off_conic_points:
        a = involution_from_center(pl, P)
        c, ax = center_axis(pl, a.matrix)
        assert c == P and ax == pl.polar(P)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_center_axis_inverts_involution_from_center(data):
    p, n = data.draw(st.sampled_from(((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1),
                                      (17, 1), (19, 1), (23, 1), (5, 2), (3, 3))))
    pl = plane(p, n)
    P = data.draw(st.sampled_from(pl.off_conic_points))
    center, axis = center_axis(pl, involution_from_center(pl, P).matrix)
    assert center == P
    assert axis == pl.polar(P)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_axis_is_polar_of_center(p, n):
    pl = plane(p, n)
    for P in pl.off_conic_points:
        a = involution_from_center(pl, P)
        assert a.axis == pl.polar(a.center)


def test_center_axis_of_conjugate_q7():
    pl = plane(7)
    F = pl.field
    G = full_group(7)
    rng = random.Random(3)
    pts = rng.sample(pl.off_conic_points, 6)
    gs = rng.sample(list(G.elements), 10)
    for P in pts:
        a = involution_from_center(pl, P)
        for g in gs:
            conj = mat_mul(F, mat_mul(F, g, a.matrix), mat_adjugate(F, g))
            c, _ = center_axis(pl, conj)
            assert c == point_image(pl, g, P)


def test_center_axis_rejects_non_involution():
    pl = plane(5)
    F = pl.field
    a = involution_from_center(pl, pl.off_conic_points[0])
    b = involution_from_center(pl, pl.off_conic_points[1])
    m = mat_mul(F, a.matrix, b.matrix)
    if mat_order(F, m) != 2:
        with pytest.raises(NotAnInvolution):
            center_axis(pl, m)
    with pytest.raises(NotAnInvolution):
        center_axis(pl, IDENTITY)


def test_product_order_identity_and_commuting():
    pl = plane(5)
    F = pl.field
    a = involution_from_center(pl, pl.off_conic_points[0])
    assert product_order(F, a, a) == 1
    # a point on polar(P) gives a commuting pair
    Q = next(x for x in pl.line_points(pl.polar(a.center)) if not pl.on_conic(x))
    b = involution_from_center(pl, Q)
    assert product_order(F, a, b) == 2
    assert mat_mul(F, a.matrix, b.matrix) == mat_mul(F, b.matrix, a.matrix)


def test_product_orders_by_line_type_q5():
    pl = plane(5)
    F = pl.field
    invs = {P: involution_from_center(pl, P) for P in pl.off_conic_points}
    for P, Q in combinations(pl.off_conic_points, 2):
        t = product_order(F, invs[P], invs[Q])
        kind = pl.classify_line(pl.line_through(P, Q))
        if kind == TANGENT:
            assert t == 5
        elif kind == SECANT:
            assert (pl.q - 1) % t == 0
        else:
            assert (pl.q + 1) % t == 0


def test_commutation_iff_polar_incidence():
    for p in (5, 7):
        pl = plane(p)
        F = pl.field
        invs = {P: involution_from_center(pl, P) for P in pl.off_conic_points}
        for P, Q in combinations(pl.off_conic_points, 2):
            a, b = invs[P], invs[Q]
            c1 = commute(F, a, b)
            assert c1 == pl.incident(Q, pl.polar(P))
            assert c1 == pl.incident(P, pl.polar(Q))


def test_three_commuting_involutions_form_self_polar_triangle():
    pl = plane(5)
    F = pl.field
    P = pl.off_conic_points[0]
    a = involution_from_center(pl, P)
    X = next(x for x in pl.line_points(pl.polar(P)) if not pl.on_conic(x))
    b = involution_from_center(pl, X)
    prod = mat_mul(F, a.matrix, b.matrix)
    Z, _ = center_axis(pl, prod)
    c = involution_from_center(pl, Z)
    assert commute(F, a, b) and commute(F, a, c) and commute(F, b, c)
    # Klein four-group whose centers are pairwise on each other's polars
    assert pl.line_through(P, X) == pl.polar(Z)
    assert pl.line_through(P, Z) == pl.polar(X)
    assert pl.line_through(X, Z) == pl.polar(P)


def test_in_psl_rules_q5_q7():
    pl5 = plane(5)
    for P in pl5.off_conic_points:
        a = involution_from_center(pl5, P)
        expected = pl5.classify_point(P) == EXTERIOR  # q = 1 mod 4
        assert in_psl(pl5, a) == expected
    pl7 = plane(7)
    for P in pl7.off_conic_points:
        a = involution_from_center(pl7, P)
        expected = pl7.classify_point(P) == INTERIOR  # q = 3 mod 4
        assert in_psl(pl7, a) == expected


@pytest.mark.parametrize("p,n", [(5, 1), (7, 1), (3, 2)])
def test_in_psl_against_independent_subgroup(p, n):
    pl = plane(p, n)
    psl = psl_subgroup(p, n)
    for P in pl.off_conic_points:
        a = involution_from_center(pl, P)
        assert in_psl(pl, a) == (a.matrix in psl)


def test_psl_is_half_and_parity_multiplicative_q5():
    pl = plane(5)
    F = pl.field
    G = full_group(5)
    psl = psl_subgroup(5)
    assert 2 * len(psl) == len(G)
    non_psl = [involution_from_center(pl, P) for P in pl.off_conic_points
               if not in_psl(pl, involution_from_center(pl, P))]
    rng = random.Random(9)
    for _ in range(40):
        a, b = rng.sample(non_psl, 2)
        assert mat_mul(F, a.matrix, b.matrix) in psl
