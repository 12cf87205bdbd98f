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


def _rank3(field, m) -> int:
    """Rank of a 3x3 matrix over the field by Gaussian elimination."""
    rows = [list(m[0:3]), list(m[3:6]), list(m[6:9])]
    rank = 0
    col = 0
    while rank < 3 and col < 3:
        pivot = None
        for r in range(rank, 3):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv_t[rows[rank][col]]
        rows[rank] = [field.mul_t[inv][v] for v in rows[rank]]
        for r in range(3):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [field.sub(rows[r][c], field.mul_t[f][rows[rank][c]])
                           for c in range(3)]
        rank += 1
        col += 1
    return rank


def center_axis(plane: Plane, m) -> tuple[tuple, tuple]:
    """Center and axis of an order-2 projectivity fixing the conic.

    The canonical matrix satisfies m^2 = c*I; rescaling by a square root of c
    gives an exactly involutory representative whose -1 eigenspace is the
    center (dimension 1) and whose +1 eigenspace is the axis (dimension 2),
    or the other way around depending on the chosen root.
    """
    F = plane.field
    m2 = mat_mul(F, m, m)
    # m2 must be canonical identity, i.e. m squares to a scalar
    if m2 != IDENTITY:
        raise NotAnInvolution("matrix does not square to a scalar multiple of I")
    if m == IDENTITY:
        raise NotAnInvolution("identity has no center/axis")
    # recover the scalar c of the uncanonicalized square: m2_raw = c*I with
    # c = (m @ m)[0][0] computed directly
    mul = F.mul_t
    add = F.add
    c = add(add(mul[m[0]][m[0]], mul[m[1]][m[3]]), mul[m[2]][m[6]])
    s = next((x for x in range(1, F.q) if mul[x][x] == c), None)
    if s is None:
        raise NotAnInvolution("square of the canonical matrix is a non-square scalar")
    inv_s = F.inv_t[s]
    n = tuple(mul[inv_s][v] for v in m)  # n*n = I exactly
    n_minus = tuple(F.sub(v, 1 if i % 4 == 0 else 0) for i, v in enumerate(n))
    n_plus = tuple(add(v, 1 if i % 4 == 0 else 0) for i, v in enumerate(n))
    if _rank3(F, n_minus) == 1:
        axis_side, center_side = n_minus, n_plus
    elif _rank3(F, n_plus) == 1:
        axis_side, center_side = n_plus, n_minus
    else:
        raise NotAnInvolution("eigenspace dimensions are not 1 and 2")
    axis_row = next(axis_side[3 * r:3 * r + 3] for r in range(3)
                    if any(axis_side[3 * r:3 * r + 3]))
    axis = plane.normalize(axis_row)
    # kernel of the rank-2 side: cross product of two independent rows
    rows = [center_side[0:3], center_side[3:6], center_side[6:9]]
    rows = [r for r in rows if any(r)]
    center = None
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            sub = F.sub
            r1, r2 = rows[i], rows[j]
            v = (sub(mul[r1[1]][r2[2]], mul[r1[2]][r2[1]]),
                 sub(mul[r1[2]][r2[0]], mul[r1[0]][r2[2]]),
                 sub(mul[r1[0]][r2[1]], mul[r1[1]][r2[0]]))
            if any(v):
                center = plane.normalize(v)
                break
        if center:
            break
    if center is None:
        raise NotAnInvolution("could not extract a 1-dimensional center eigenspace")
    return center, axis


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
