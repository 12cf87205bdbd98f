"""The projective plane PG(2,q) with a fixed non-degenerate conic.

Points and lines are homogeneous triples of field-element encodings,
normalized so the first nonzero coordinate is 1; that normalization is the
single canonical-representative convention used for hashing everywhere.
Points are enumerated in lexicographic order of their normalized triples,
so index order and encoding order agree.

The conic is fixed as x0*x2 = x1^2, parametrized by {(1, t, t^2)} plus
(0, 0, 1).  Its bilinear form B(x, y) = x0*y2 + x2*y0 - 2*x1*y1 induces the
polarity: polar(P) has line coordinates B(P, .), and the polar of a conic
point is the tangent there.  Interior/exterior verdicts are decided by
counting tangents through the point, which keeps the code uniform in q.
"""

from __future__ import annotations

from functools import cached_property

from conictopes.gf import Field

ON_CONIC = "on_conic"
EXTERIOR = "exterior"
INTERIOR = "interior"

TANGENT = "tangent"
SECANT = "secant"
EXTERIOR_LINE = "exterior"


class CoincidentPoints(ValueError):
    """line_through needs two distinct points."""


class NotOnConic(ValueError):
    """tangent_at needs a point of the conic."""


class GeometryError(RuntimeError):
    """A count that the geometry of PG(2,q), q odd, fixes came out otherwise."""


class Plane:
    """PG(2,q) over a Field, with the conic x0*x2 = x1^2 and its polarity."""

    def __init__(self, field: Field):
        self.field = field
        self.q = field.q

    def normalize(self, v) -> tuple[int, int, int]:
        x0, x1, x2 = v
        if x0:
            s = self.field.inv_t[x0]
        elif x1:
            s = self.field.inv_t[x1]
        elif x2:
            s = self.field.inv_t[x2]
        else:
            raise ValueError("zero triple is not a projective point")
        if s == 1:
            return (x0, x1, x2)
        mul = self.field.mul_t
        ms = mul[s]
        return (ms[x0], ms[x1], ms[x2])

    @cached_property
    def points(self) -> list[tuple[int, int, int]]:
        """All q^2+q+1 normalized triples, in lexicographic order."""
        q = self.q
        pts = [(0, 0, 1)]
        pts += [(0, 1, a) for a in range(q)]
        pts += [(1, a, b) for a in range(q) for b in range(q)]
        return pts

    @cached_property
    def point_index(self) -> dict[tuple[int, int, int], int]:
        return {pt: i for i, pt in enumerate(self.points)}

    # lines carry the same normalized-triple coordinates (self-dual convention)
    @cached_property
    def lines(self) -> list[tuple[int, int, int]]:
        return self.points

    def incident(self, point, line) -> bool:
        mul = self.field.mul_t
        add = self.field.add
        s = add(add(mul[point[0]][line[0]], mul[point[1]][line[1]]), mul[point[2]][line[2]])
        return s == 0

    def line_through(self, P, Q) -> tuple[int, int, int]:
        if P == Q:
            raise CoincidentPoints(f"{P} == {Q}")
        mul = self.field.mul_t
        sub = self.field.sub
        l0 = sub(mul[P[1]][Q[2]], mul[P[2]][Q[1]])
        l1 = sub(mul[P[2]][Q[0]], mul[P[0]][Q[2]])
        l2 = sub(mul[P[0]][Q[1]], mul[P[1]][Q[0]])
        return self.normalize((l0, l1, l2))

    def meet(self, l, m) -> tuple[int, int, int]:
        """Intersection point of two distinct lines (dual of line_through)."""
        return self.line_through(l, m)

    def line_points(self, line) -> list[tuple[int, int, int]]:
        """The q+1 points on a line, via two independent solutions."""
        F = self.field
        l0, l1, l2 = line
        if l0:
            v1 = (F.neg(F.div(l1, l0)), 1, 0)
            v2 = (F.neg(F.div(l2, l0)), 0, 1)
        elif l1:
            v1 = (1, 0, 0)
            v2 = (0, F.neg(F.div(l2, l1)), 1)
        else:
            v1 = (1, 0, 0)
            v2 = (0, 1, 0)
        pts = [self.normalize(v1)]
        mul = F.mul_t
        add = F.add
        for t in range(self.q):
            mt = mul[t]
            w = (add(mt[v1[0]], v2[0]), add(mt[v1[1]], v2[1]), add(mt[v1[2]], v2[2]))
            pts.append(self.normalize(w))
        if len(set(pts)) != self.q + 1:
            raise GeometryError(f"line {line} does not have q+1 distinct points")
        return pts

    def lines_through(self, point) -> list[tuple[int, int, int]]:
        """The q+1 lines through a point (dual of line_points)."""
        return self.line_points(point)

    # -- conic and polarity -------------------------------------------------

    def quad(self, x) -> int:
        """Q(x) = x0*x2 - x1^2."""
        mul = self.field.mul_t
        return self.field.sub(mul[x[0]][x[2]], mul[x[1]][x[1]])

    def bilinear(self, x, y) -> int:
        """B(x, y) = x0*y2 + x2*y0 - 2*x1*y1; B(x, x) = 2*Q(x)."""
        F = self.field
        mul = F.mul_t
        t = F.add(mul[x[0]][y[2]], mul[x[2]][y[0]])
        return F.sub(t, mul[2 % F.p][mul[x[1]][y[1]]])

    def on_conic(self, point) -> bool:
        return self.quad(point) == 0

    @cached_property
    def conic_points(self) -> list[tuple[int, int, int]]:
        """{(1, t, t^2)} plus (0,0,1), sorted in canonical point order."""
        F = self.field
        pts = [(0, 0, 1)] + [(1, t, F.mul_t[t][t]) for t in range(self.q)]
        pts = sorted(self.normalize(p) for p in pts)
        if len(pts) != self.q + 1:
            raise GeometryError("the conic does not have q+1 points")
        return pts

    def polar(self, P) -> tuple[int, int, int]:
        """Line with coordinates B(P, .); the tangent at P when P is on the conic."""
        F = self.field
        return self.normalize((P[2], F.neg(F.mul_t[2 % F.p][P[1]]), P[0]))

    def pole(self, line) -> tuple[int, int, int]:
        F = self.field
        half = F.inv_t[2 % F.p]
        return self.normalize((line[2], F.neg(F.mul_t[half][line[1]]), line[0]))

    def tangent_at(self, A) -> tuple[int, int, int]:
        if not self.on_conic(A):
            raise NotOnConic(f"{A} is not on the conic")
        return self.polar(A)

    @cached_property
    def tangent_lines(self) -> list[tuple[int, int, int]]:
        return sorted(self.polar(A) for A in self.conic_points)

    # -- classification -------------------------------------------------------

    def classify_line(self, line) -> str:
        hits = sum(1 for A in self.conic_points if self.incident(A, line))
        if hits == 1:
            return TANGENT
        if hits == 2:
            return SECANT
        if hits:
            raise GeometryError(f"line {line} meets the conic in {hits} points")
        return EXTERIOR_LINE

    def classify_point(self, P) -> str:
        """on_conic / exterior / interior, by counting tangents through P."""
        if self.on_conic(P):
            return ON_CONIC
        hits = sum(1 for t in self.tangent_lines if self.incident(P, t))
        if hits == 2:
            return EXTERIOR
        if hits:
            raise GeometryError(f"point {P} lies on {hits} tangents")
        return INTERIOR

    @cached_property
    def off_conic_points(self) -> list[tuple[int, int, int]]:
        return [P for P in self.points if not self.on_conic(P)]

    def __repr__(self):
        return f"PG(2,{self.q})"
