"""Involutions of the conic stabilizer as perspectivities.

A projectivity is stored as a canonical 3x3 matrix: a tuple of nine field
encodings in row-major order, scaled so the first nonzero entry equals 1.
Canonical tuples make projective equality a plain tuple comparison, which is
what all the set machinery downstream relies on.

The involution with center P (off the conic) is the reflection with respect
to the conic's bilinear form,

    x  ->  x - (B(x, P) / Q(P)) * P,

which has order 2 as a matrix, fixes the conic, fixes polar(P) pointwise and
fixes every line through P.  Its axis is polar(P), and the map P -> alpha_P
is a bijection between off-conic points and involutions of the stabilizer.

The stabilizer is PGL(2,q) acting on the conic through (s:t) -> (s^2, st, t^2).
pgl2_mul multiplies its elements as canonical 2x2 tuples on the field's
tables, and sym2 is the one map from a 2x2 tuple to its 3x3 projectivity.
"""

from __future__ import annotations

from dataclasses import dataclass

from conictopes.plane import GeometryError, Plane

Matrix = tuple  # 9 field encodings, row-major, canonical


class CenterOnConic(ValueError):
    """Involution centers must be off the conic (Q(P) != 0)."""


class NotAnInvolution(ValueError):
    """center_axis needs a projectivity of projective order 2 fixing the conic."""


IDENTITY: Matrix = (1, 0, 0, 0, 1, 0, 0, 0, 1)


def mat_canonical(field, m) -> Matrix:
    for x in m:
        if x:
            if x == 1:
                return tuple(m)
            s = field.inv_t[x]
            ms = field.mul_t[s]
            return tuple(ms[v] for v in m)
    raise ValueError("zero matrix is not a projectivity")


def mat_mul(field, a, b) -> Matrix:
    mul = field.mul_t
    add = field.add
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return mat_canonical(field, (
        add(add(mul[a0][b0], mul[a1][b3]), mul[a2][b6]),
        add(add(mul[a0][b1], mul[a1][b4]), mul[a2][b7]),
        add(add(mul[a0][b2], mul[a1][b5]), mul[a2][b8]),
        add(add(mul[a3][b0], mul[a4][b3]), mul[a5][b6]),
        add(add(mul[a3][b1], mul[a4][b4]), mul[a5][b7]),
        add(add(mul[a3][b2], mul[a4][b5]), mul[a5][b8]),
        add(add(mul[a6][b0], mul[a7][b3]), mul[a8][b6]),
        add(add(mul[a6][b1], mul[a7][b4]), mul[a8][b7]),
        add(add(mul[a6][b2], mul[a7][b5]), mul[a8][b8]),
    ))


def mat_vec(field, m, v):
    mul = field.mul_t
    add = field.add
    x0, x1, x2 = v
    return (
        add(add(mul[m[0]][x0], mul[m[1]][x1]), mul[m[2]][x2]),
        add(add(mul[m[3]][x0], mul[m[4]][x1]), mul[m[5]][x2]),
        add(add(mul[m[6]][x0], mul[m[7]][x1]), mul[m[8]][x2]),
    )


def pgl2_mul(field, x, y):
    """Product of canonical 2x2 tuples (a, b, c, d), rows (a, b) and (c, d).

    Canonical means first nonzero entry 1, as for matrices; only the field's
    mul_t, add_t and inv_t tables are read.
    """
    mul, add = field.mul_t, field.add_t
    a, b, c, d = x
    e, f, g, h = y
    ma, mb, mc, md = mul[a], mul[b], mul[c], mul[d]
    r0, r1 = add[ma[e]][mb[g]], add[ma[f]][mb[h]]
    r2, r3 = add[mc[e]][md[g]], add[mc[f]][md[h]]
    lead = r0 or r1  # an invertible product has a nonzero first row
    if lead == 1:
        return r0, r1, r2, r3
    s = mul[field.inv_t[lead]]
    return s[r0], s[r1], s[r2], s[r3]


def sym2(field, g) -> Matrix:
    """The conic-stabilizer projectivity of the canonical 2x2 tuple g.

    (s, t) -> (as + bt, cs + dt) moves the conic point (s^2, st, t^2) by the
    rows (a^2, 2ab, b^2), (ac, ad + bc, bd), (c^2, 2cd, d^2).  The image of a
    canonical g starts with a^2 = 1, or with 0, 0, b^2 = 1, so it is canonical.
    """
    mul, add = field.mul_t, field.add_t
    a, b, c, d = g
    ma, mb, mc, md = mul[a], mul[b], mul[c], mul[d]
    return (ma[a], ma[add[b][b]], mb[b],
            ma[c], add[ma[d]][mb[c]], mb[d],
            mc[c], mc[add[d][d]], md[d])


def mat_adjugate(field, m) -> Matrix:
    """Adjugate; projectively this is the inverse (no division needed)."""
    mul = field.mul_t
    sub = field.sub
    a, b, c, d, e, f, g, h, i = m
    return mat_canonical(field, (
        sub(mul[e][i], mul[f][h]), sub(mul[c][h], mul[b][i]), sub(mul[b][f], mul[c][e]),
        sub(mul[f][g], mul[d][i]), sub(mul[a][i], mul[c][g]), sub(mul[c][d], mul[a][f]),
        sub(mul[d][h], mul[e][g]), sub(mul[b][g], mul[a][h]), sub(mul[a][e], mul[b][d]),
    ))


def point_image(plane: Plane, m, point):
    return plane.normalize(mat_vec(plane.field, m, point))


def line_image(plane: Plane, m, line):
    """Image of a line: transpose of the projective inverse applied to coords."""
    adj = mat_adjugate(plane.field, m)
    adj_t = (adj[0], adj[3], adj[6], adj[1], adj[4], adj[7], adj[2], adj[5], adj[8])
    return plane.normalize(mat_vec(plane.field, adj_t, line))


def mat_order(field, m, bound=None) -> int:
    if m == IDENTITY:
        return 1
    acc = m
    k = 1
    limit = bound if bound is not None else field.q + 2
    while acc != IDENTITY:
        acc = mat_mul(field, acc, m)
        k += 1
        if k > limit:
            raise NotAnInvolution(f"order exceeds bound {limit}")
    return k


@dataclass(frozen=True)
class Involution:
    """An order-2 element of the conic stabilizer with its center and axis."""

    matrix: Matrix
    center: tuple[int, int, int]
    axis: tuple[int, int, int]

    def __repr__(self):
        return f"Involution(center={list(self.center)})"


def involution_from_center(plane: Plane, P) -> Involution:
    """The unique involution of the conic stabilizer with center P.

    Built as the reflection x -> x - (B(x,P)/Q(P)) P; the matrix squares to
    the identity exactly, so no projective rescaling is needed afterwards.
    """
    F = plane.field
    P = plane.normalize(P)
    qP = plane.quad(P)
    if qP == 0:
        raise CenterOnConic(f"{P} lies on the conic")
    inv_q = F.inv_t[qP]
    mul = F.mul_t
    # w = B(., P) as a row vector: (P2, -2 P1, P0), scaled by 1/Q(P)
    w = (mul[inv_q][P[2]], mul[inv_q][F.neg(mul[2 % F.p][P[1]])], mul[inv_q][P[0]])
    rows = []
    for r in range(3):
        pr = P[r]
        for c in range(3):
            delta = 1 if r == c else 0
            rows.append(F.sub(delta, mul[pr][w[c]]))
    m = mat_canonical(F, tuple(rows))
    return Involution(matrix=m, center=P, axis=plane.polar(P))


def center_axis(plane: Plane, m) -> tuple[tuple, tuple]:
    """Center and axis of an order-2 projectivity fixing the conic.

    In odd characteristic every involution of PG(2,q) is a harmonic
    homology: m has one eigenvalue u on the axis (a plane of vectors) and
    -u on the center, so tr(m) = u + u - u = u and m - tr(m)*I has rank 1.
    Its columns span the center and its rows are multiples of the axis.
    """
    F = plane.field
    if m == IDENTITY:
        raise NotAnInvolution("identity has no center/axis")
    if mat_mul(F, m, m) != IDENTITY:
        raise NotAnInvolution("matrix does not square to a scalar multiple of I")
    add = F.add_t
    neg_c = F.neg_t[add[add[m[0]][m[4]]][m[8]]]
    n = tuple(add[v][neg_c] if i % 4 == 0 else v for i, v in enumerate(m))
    center = next(col for col in (n[0::3], n[1::3], n[2::3]) if any(col))
    axis = next(row for row in (n[0:3], n[3:6], n[6:9]) if any(row))
    return plane.normalize(center), plane.normalize(axis)


def product_order(field, a: Involution, b: Involution) -> int:
    """Multiplicative order of a*b; 1 iff a == b, 2 iff they commute and differ."""
    return mat_order(field, mat_mul(field, a.matrix, b.matrix))


def in_psl(plane: Plane, a: Involution) -> bool:
    """Membership of an involution in PSL(2,q) inside the conic stabilizer.

    Decided by counting fixed points on the conic: an involution fixes 2
    conic points when its center is exterior and 0 when interior, and the
    PSL involutions are the ones with 2 fixed points iff q = 1 (mod 4).
    """
    F = plane.field
    fixed = sum(1 for A in plane.conic_points
                if point_image(plane, a.matrix, A) == A)
    if fixed not in (0, 2):
        raise GeometryError(f"an involution fixes {fixed} conic points")
    if plane.q % 4 == 1:
        return fixed == 2
    return fixed == 0


def commute(field, a: Involution, b: Involution) -> bool:
    return mat_mul(field, a.matrix, b.matrix) == mat_mul(field, b.matrix, a.matrix)
