"""Projective plane, conic, and polarity checks with independent oracles."""

import random
from itertools import combinations

import pytest

from conictopes.gf import build_field
from conictopes.plane import (
    EXTERIOR,
    EXTERIOR_LINE,
    INTERIOR,
    ON_CONIC,
    SECANT,
    TANGENT,
    CoincidentPoints,
    NotOnConic,
    Plane,
)


def plane(p, n=1):
    return Plane(build_field(p, n))


def test_point_counts():
    for p, n in ((3, 1), (5, 1), (7, 1), (3, 2)):
        pl = plane(p, n)
        q = pl.q
        assert len(pl.points) == q * q + q + 1
        assert len(set(pl.points)) == len(pl.points)
        assert len(pl.conic_points) == q + 1


def test_points_are_lex_sorted():
    pl = plane(5)
    assert pl.points == sorted(pl.points)


def test_line_through_axes():
    pl = plane(3)
    assert pl.line_through((1, 0, 0), (0, 1, 0)) == (0, 0, 1)


def test_line_through_coincident_raises():
    pl = plane(3)
    with pytest.raises(CoincidentPoints):
        pl.line_through((1, 0, 0), (1, 0, 0))


def test_line_through_contains_both_and_line_size():
    pl = plane(5)
    rng = random.Random(5)
    for _ in range(100):
        P, Q = rng.sample(pl.points, 2)
        l = pl.line_through(P, Q)
        pts = pl.line_points(l)
        assert len(pts) == pl.q + 1
        assert P in pts and Q in pts
        assert all(pl.incident(x, l) for x in pts)


def test_every_point_on_q_plus_1_lines():
    pl = plane(5)
    for P in pl.points:
        assert sum(1 for l in pl.lines if pl.incident(P, l)) == pl.q + 1


def test_polarity_is_involutive():
    pl = plane(7)
    for P in pl.points:
        assert pl.pole(pl.polar(P)) == P
    for l in pl.lines:
        assert pl.polar(pl.pole(l)) == l


def test_polarity_contravariant():
    pl = plane(5)
    for P in pl.points:
        for l in pl.lines:
            assert pl.incident(P, l) == pl.incident(pl.pole(l), pl.polar(P))


def test_self_polar_points_are_the_conic():
    for p, n in ((5, 1), (3, 2)):
        pl = plane(p, n)
        self_polar = {P for P in pl.points if pl.incident(P, pl.polar(P))}
        assert self_polar == set(pl.conic_points)


def test_bilinear_vs_quadratic():
    for p, n in ((5, 1), (3, 2)):
        pl = plane(p, n)
        F = pl.field
        two = F.add(1, 1)
        for P in pl.points:
            assert pl.bilinear(P, P) == F.mul(two, pl.quad(P))


def test_tangent_touches_once():
    for p, n in ((5, 1), (3, 2)):
        pl = plane(p, n)
        for A in pl.conic_points:
            t = pl.polar(A)
            touched = [X for X in pl.conic_points if pl.incident(X, t)]
            assert touched == [A]


def test_conic_is_an_arc():
    for p, n in ((3, 1), (3, 2), (3, 3)):
        pl = plane(p, n)
        for A, B, C in combinations(pl.conic_points, 3):
            assert not pl.incident(C, pl.line_through(A, B))


def two_secant_polar(pl, P):
    """The classical polar construction from two secants through P: take the
    conic chords through P and join the two diagonal points of the quadrangle."""
    secants = [l for l in pl.lines_through(P) if pl.classify_line(l) == SECANT]
    l1, l2 = sorted(secants)[:2]
    P1, Q1 = sorted(A for A in pl.conic_points if pl.incident(A, l1))
    P2, Q2 = sorted(A for A in pl.conic_points if pl.incident(A, l2))
    X = pl.meet(pl.line_through(Q1, Q2), pl.line_through(P1, P2))
    Y = pl.meet(pl.line_through(Q1, P2), pl.line_through(P1, Q2))
    return pl.line_through(X, Y)


@pytest.mark.parametrize("p,n", [(5, 1), (7, 1), (3, 2)])
def test_polar_matches_two_secant_construction(p, n):
    pl = plane(p, n)
    for P in pl.off_conic_points:
        assert pl.polar(P) == two_secant_polar(pl, P)


def test_polar_matches_two_secant_construction_q3_interior():
    # exterior points of PG(2,3) lie on a single secant, so only interior
    # points admit the construction there
    pl = plane(3)
    for P in pl.off_conic_points:
        if pl.classify_point(P) == INTERIOR:
            assert pl.polar(P) == two_secant_polar(pl, P)


@pytest.mark.parametrize("p,n,expect", [
    ((3), 1, (4, 6, 3)),
    ((5), 1, (6, 15, 10)),
    ((7), 1, (8, 28, 21)),
    ((3), 2, (10, 45, 36)),
])
def test_line_classification_counts(p, n, expect):
    pl = plane(p, n)
    q = pl.q
    counts = {TANGENT: 0, SECANT: 0, EXTERIOR_LINE: 0}
    for l in pl.lines:
        counts[pl.classify_line(l)] += 1
    assert (counts[TANGENT], counts[SECANT], counts[EXTERIOR_LINE]) == expect
    assert expect == (q + 1, q * (q + 1) // 2, q * (q - 1) // 2)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_point_classification_counts(p, n):
    pl = plane(p, n)
    q = pl.q
    counts = {ON_CONIC: 0, EXTERIOR: 0, INTERIOR: 0}
    for P in pl.points:
        counts[pl.classify_point(P)] += 1
    assert counts[ON_CONIC] == q + 1
    assert counts[EXTERIOR] == q * (q + 1) // 2
    assert counts[INTERIOR] == q * (q - 1) // 2


def test_two_tangents_meet_in_exterior_point():
    pl = plane(5)
    t1, t2 = pl.tangent_lines[:2]
    assert pl.classify_point(pl.meet(t1, t2)) == EXTERIOR


def test_tangent_count_histogram_q7():
    pl = plane(7)
    for P in pl.points:
        hits = sum(1 for t in pl.tangent_lines if pl.incident(P, t))
        cls = pl.classify_point(P)
        if cls == EXTERIOR:
            assert hits == 2
        elif cls == INTERIOR:
            assert hits == 0
        else:
            assert hits == 1  # the tangent at the point itself


def test_tangent_at_rejects_points_off_the_conic():
    pl = plane(5)
    A = pl.conic_points[0]
    assert pl.tangent_at(A) == pl.polar(A)
    with pytest.raises(NotOnConic):
        pl.tangent_at(pl.off_conic_points[0])
