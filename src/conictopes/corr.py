"""Frobenius collineations, tau-triangles and correlation witnesses.

A collineation here is a power of the Frobenius automorphism, applied to
every coordinate: x -> x^(p^k).  Composed with the projectivities of the
group it gives the semilinear maps the correlation scan needs, so no matrix
part is stored.  The coordinatewise Frobenius fixes the conic (its form has
prime-field coefficients), so it normalizes the conic stabilizer and acts
on involutions by conjugation, which on canonical matrices is the entrywise
field map.

Correlations of the coset geometry are exhibited through witnesses: group
elements (or field maps composed with them) whose conjugation permutes the
three generating involutions by a prescribed type permutation sigma.  In a
flag-transitive coset geometry such a subgroup-permuting automorphism
induces a correlation of type sigma, so a witness is a certificate; the
scan reports absence as absence of a witness, never as a proof that no
correlation exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from conictopes.gf import Field
from conictopes.grp import DEFAULT_CLOSURE_CAP, ElementSet, closure
from conictopes.perspectivity import (
    Involution,
    Matrix,
    involution_from_center,
    mat_adjugate,
    mat_canonical,
    mat_mul,
    mat_vec,
)
from conictopes.plane import Plane
from conictopes.triangles import (
    TriangleRecord,
    construct_tangent_triangle,
    tangent_centers,
)


class InvalidPower(ValueError):
    """Frobenius power must satisfy 1 <= k < n."""


class FixedConicPoint(ValueError):
    """tau_triangle needs a conic point moved by the collineation."""


class NoTauTriangle(RuntimeError):
    """No conic point is moved by the Frobenius collineation."""


@dataclass(frozen=True)
class Collineation:
    """The coordinatewise field map x -> x^(p^frob); the identity when frob = 0."""

    field: Field
    frob: int = 0

    @property
    def order(self) -> int:
        return self.field.n // gcd(self.field.n, self.frob)

    def apply_point(self, plane: Plane, point):
        F = self.field
        return plane.normalize(tuple(F.frobenius(x, self.frob) for x in point))

    def conjugate_matrix(self, g: Matrix) -> Matrix:
        """Image of a projectivity under conjugation by this collineation."""
        F = self.field
        return mat_canonical(F, tuple(F.frobenius(x, self.frob) for x in g))


def frobenius_collineation(field: Field, k: int) -> Collineation:
    """The coordinatewise x -> x^(p^k) collineation; fixes the conic setwise."""
    if not 1 <= k < field.n:
        raise InvalidPower(f"need 1 <= k < n = {field.n}, got {k}")
    return Collineation(field=field, frob=k)


def tau_triangle(plane: Plane, A, tau: Collineation) -> TriangleRecord:
    """Tangent triangle on the conic orbit (A, tau(A), tau^2(A))."""
    if tau.order != 3:
        raise ValueError("tau must have order 3 on the plane")
    A = plane.normalize(A)
    B = tau.apply_point(plane, A)
    if B == A:
        raise FixedConicPoint(f"{A} is fixed by the collineation")
    C = tau.apply_point(plane, B)
    return construct_tangent_triangle(plane, A, B, C)


@dataclass(frozen=True)
class CorrelationWitness:
    sigma: tuple
    g: Matrix
    source: str            # "Inner" or "Field"
    frob: int = 0

    def describe(self) -> dict:
        out = {"sigma": list(self.sigma), "g": [list(self.g[0:3]), list(self.g[3:6]),
                                                list(self.g[6:9])],
               "source": self.source}
        if self.source == "Field":
            out["frob"] = self.frob
        return out


def _conjugation_matches(field, g, gens, targets) -> bool:
    adj = mat_adjugate(field, g)
    for m, target in zip(gens, targets):
        if mat_mul(field, mat_mul(field, g, m), adj) != target:
            return False
    return True


def correlation_witness(plane: Plane, H: ElementSet, gens, sigma,
                        frob_powers=(0,)) -> CorrelationWitness | None:
    """First g in H (BFS order) with g alpha_i g^-1 = alpha_sigma(i) for all i.

    Candidates are prefiltered by their action on the three centers, which
    is equivalent (conjugating an involution by anything normalizing the
    stabilizer yields the involution centered at the image point); the
    matrix conjugations are then verified literally on the hit.  With extra
    frob_powers, semilinear candidates g o tau^k are scanned as well
    (source "Field").  Returns None when no witness exists in the scan
    space; absence of a witness is reported as just that.
    """
    field = plane.field
    if not all(isinstance(g, Involution) for g in gens):
        raise TypeError("the generators must be Involution objects")
    sigma = tuple(sigma)
    target_centers = tuple(gens[sigma[i]].center for i in range(3))
    target_mats = tuple(gens[sigma[i]].matrix for i in range(3))
    for k in frob_powers:
        k = k % field.n if field.n > 1 else 0
        if k == 0:
            moved_centers = tuple(g.center for g in gens)
            moved_mats = tuple(g.matrix for g in gens)
        else:
            tau = Collineation(field=field, frob=k)
            moved_centers = tuple(tau.apply_point(plane, g.center) for g in gens)
            moved_mats = tuple(tau.conjugate_matrix(g.matrix) for g in gens)
        for g in H.elements:
            if plane.normalize(mat_vec(field, g, moved_centers[0])) != target_centers[0]:
                continue
            if any(plane.normalize(mat_vec(field, g, moved_centers[i]))
                   != target_centers[i] for i in (1, 2)):
                continue
            if _conjugation_matches(field, g, moved_mats, target_mats):
                return CorrelationWitness(sigma=sigma, g=g,
                                          source="Inner" if k == 0 else "Field",
                                          frob=k)
    return None


@dataclass
class TrialityReport:
    conic_orbit: tuple
    group_order: int
    g: Matrix | None
    candidates: int
    verified: bool

    def describe(self) -> dict:
        return {"conic_orbit": [list(x) for x in self.conic_orbit],
                "group_order": self.group_order,
                "g": None if self.g is None else [list(self.g[0:3]), list(self.g[3:6]),
                                                  list(self.g[6:9])],
                "candidates": self.candidates,
                "verified": self.verified}


def triality_projectivity_check(field: Field,
                                closure_cap=DEFAULT_CLOSURE_CAP) -> TrialityReport:
    """Exhibit the group element realizing the Frobenius action on a
    tangent tau-triangle's subfield group.

    For q = p^3 the order-3 field collineation tau permutes the vertices of
    a tangent triangle built on a conic orbit (A, tau A, tau^2 A).  The scan
    finds every g in the generated group H whose conjugation moves the three
    involutions the way tau does, then verifies g h g^-1 = tau(h) for every
    h in H.  Exactly one candidate should exist, so tau restricted to the
    subplane spanned by H's involution centers acts as a projectivity.
    """
    if field.n != 3:
        raise ValueError("the check needs q = p^3")
    plane = Plane(field)
    tau = frobenius_collineation(field, 1)
    A = next((x for x in plane.conic_points
              if tau.apply_point(plane, x) != x), None)
    if A is None:
        raise NoTauTriangle("every conic point is fixed by the field map")
    B = tau.apply_point(plane, A)
    C = tau.apply_point(plane, B)
    invs = tuple(involution_from_center(plane, x)
                 for x in tangent_centers(plane, A, B, C))
    H = closure(field, invs, cap=closure_cap)
    mats = tuple(a.matrix for a in invs)
    targets = tuple(tau.conjugate_matrix(m) for m in mats)
    candidates = [g for g in H.elements
                  if _conjugation_matches(field, g, mats, targets)]
    g = candidates[0] if candidates else None
    verified = False
    if g is not None:
        adj = mat_adjugate(field, g)
        verified = all(
            mat_mul(field, mat_mul(field, g, h), adj) == tau.conjugate_matrix(h)
            for h in H.elements)
    return TrialityReport(conic_orbit=(A, B, C), group_order=len(H),
                          g=g, candidates=len(candidates), verified=verified)
