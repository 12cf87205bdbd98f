"""Canonical matrix-group machinery for subgroups of the conic stabilizer.

Element sets are hash-sets of canonical 3x3 projectivity tuples, so set
semantics (closure, products, intersections) ride directly on projective
equality.  Generated groups are identified against the short list of
isomorphism types that can occur for subgroups of PGL(2,q) generated by
involutions: Klein four-groups, dihedral groups, the affine-line shapes,
subfield PGL/PSL copies, and the sporadic A4, S4, A5.  Identification is
decided by order first, then involution count, then maximal element order;
anything that fits no entry is reported as Unknown with its statistics
rather than guessed.  The decision (identify) is generic over the element
representation, so the engine's integer ids go through the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from conictopes.gf import Field
from conictopes.perspectivity import (
    IDENTITY,
    Involution,
    line_image,
    mat_mul,
    mat_vec,  # unused here; kept as grp.mat_vec, a name perfbench's tracer wraps
)
from conictopes.plane import GeometryError, Plane

DEFAULT_CLOSURE_CAP = 2_000_000


class BudgetExceeded(RuntimeError):
    """Closure or sweep hit its element budget; .partial_size holds progress."""

    def __init__(self, message, partial_size=None):
        super().__init__(message)
        self.partial_size = partial_size


class NotClosed(ValueError):
    """identify_group was handed a set that is not closed under products."""


@dataclass(frozen=True)
class ElementSet:
    """A set of canonical projectivity matrices, in deterministic BFS order."""

    elements: tuple
    closed: bool = False

    @cached_property
    def eset(self):
        return frozenset(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, m):
        return m in self.eset


def _as_matrix(g):
    return g.matrix if isinstance(g, Involution) else tuple(g)


def generate(e, mul, gens, cap=None) -> list:
    """Breadth-first closure of gens under right multiplication, from e.

    Generic over the element representation, like identify: e is the
    identity and mul a binary product.  Elements appear in discovery order,
    with generators applied in the given order.  Fails cleanly with
    BudgetExceeded when the element count passes cap.
    """
    elements = [e]
    seen = {e}
    for x in elements:
        for g in gens:
            y = mul(x, g)
            if y not in seen:
                seen.add(y)
                elements.append(y)
                if cap is not None and len(elements) > cap:
                    raise BudgetExceeded(
                        f"closure exceeded cap {cap}", partial_size=len(elements))
    return elements


def closure(field: Field, generators, cap: int = DEFAULT_CLOSURE_CAP) -> ElementSet:
    """generate() on canonical matrices: the subgroup a generator list spans."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    gens = tuple(_as_matrix(g) for g in generators)
    elements = generate(IDENTITY, lambda x, y: mat_mul(field, x, y), gens, cap)
    return ElementSet(elements=tuple(elements), closed=True)


def _element_iter(A):
    return A.elements if isinstance(A, ElementSet) else A


def _element_set(A):
    return A.eset if isinstance(A, ElementSet) else frozenset(A)


def set_product(field: Field, A, B) -> frozenset:
    """{a*b : a in A, b in B} as canonical matrices."""
    out = set()
    for a in _element_iter(A):
        for b in _element_iter(B):
            out.add(mat_mul(field, a, b))
    return frozenset(out)


def intersect(A, B) -> frozenset:
    return _element_set(A) & _element_set(B)


def line_stabilizer(plane: Plane, H: ElementSet, line) -> ElementSet:
    """The subgroup of H fixing a line (as a set of points)."""
    line = plane.normalize(line)
    elems = tuple(g for g in H.elements if line_image(plane, g, line) == line)
    return ElementSet(elements=elems, closed=True)


# -- identification ----------------------------------------------------------


@dataclass(frozen=True)
class GroupId:
    """Isomorphism-type verdict with the statistics that decided it.

    Tags: Klein4, Dihedral (order 2*m), SubAGL, PSL / PGL (subfield
    parameter q0), A4, A5, S4, Unknown.
    """

    tag: str
    order: int
    q0: int | None = None
    m: int | None = None
    max_elt_order: int = 0
    n_involutions: int = 0

    @property
    def label(self) -> str:
        if self.tag in ("PGL", "PSL"):
            return f"{self.tag}(2,{self.q0})"
        if self.tag == "Dihedral":
            return f"{self.tag}({self.m})"
        return self.tag

    def describe(self) -> dict:
        out = {"tag": self.label, "order": self.order,
               "max_elt_order": self.max_elt_order,
               "n_involutions": self.n_involutions}
        if self.q0 is not None:
            out["q0"] = self.q0
        return out


def powers(e, mul, x, cap) -> list:
    """[x, x^2, ..., e]: the powers of x up to its order, which is the length.

    Generic over the element representation, like generate: e is the
    identity and mul a binary product.  Raises GeometryError once the walk
    passes cap without reaching e.
    """
    walk = [x]
    y = x
    while y != e:
        if len(walk) >= cap:
            raise GeometryError(f"an element has order above {cap}")
        y = mul(y, x)
        walk.append(y)
    return walk


def element_orders(e, mul, elems, cap) -> list:
    """Orders of elems (a closed set), walking each cyclic subgroup once.

    x^k has order m / gcd(m, k) when x has order m, so one powers() walk
    gives the order of every element it passes.
    """
    index = {x: i for i, x in enumerate(elems)}
    orders = [0] * len(elems)
    for i, x in enumerate(elems):
        if orders[i]:
            continue
        walk = powers(e, mul, x, cap)
        m = len(walk)
        for k, y in enumerate(walk, 1):
            orders[index[y]] = m // math.gcd(m, k)
    return orders


def _verify_closed(field, H):
    if isinstance(H, ElementSet) and H.closed:
        return
    elems = list(_element_iter(H))
    eset = _element_set(H)
    if IDENTITY not in eset:
        raise NotClosed("identity missing")
    if len(elems) ** 2 > 4_000_000:
        raise NotClosed("set too large to verify closure exhaustively")
    for a in elems:
        for b in elems:
            if mat_mul(field, a, b) not in eset:
                raise NotClosed("set is not closed under products")


def is_dihedral(e, mul, elems, orders) -> bool:
    """Dihedral of order 2m: a cyclic half plus involutions inverting it.

    Generic over the element representation, like coset_criteria: e is the
    identity, mul a binary product and orders[i] the order of elems[i].
    """
    if len(elems) % 2:
        return False
    m = len(elems) // 2
    h = next((x for x, o in zip(elems, orders) if o == m), None)
    if h is None:
        return False
    walk = powers(e, mul, h, len(elems))
    if len(walk) != m:
        return False
    cyc = set(walk)
    h_inv = walk[-2] if m > 1 else e  # h^(m-1)
    return all(x in cyc or (o == 2 and mul(mul(x, h), x) == h_inv)
               for x, o in zip(elems, orders))


def identify(e, mul, elems, orders, field: Field) -> GroupId:
    """Identify a closed subgroup from its elements and their orders.

    Generic over the element representation (see is_dihedral).  Decided by
    order, then involution count, then maximal element order; the dihedral
    structure test runs only where those statistics allow a dihedral group.
    By Dickson's list of the subgroups of PGL(2,q), q odd, a subgroup
    generated by involutions that has a central involution z lies in the
    centralizer of z, which is dihedral, so no C2 x dihedral case exists.
    """
    order = len(elems)
    n_inv = orders.count(2)
    max_ord = max(orders)
    p, n = field.p, field.n
    stats = dict(order=order, max_elt_order=max_ord, n_involutions=n_inv)
    if order == 1:
        return GroupId(tag="Unknown", **stats)
    if order == 4 and n_inv == 3:
        return GroupId(tag="Klein4", **stats)
    if (order % 2 == 0 and max_ord == max(order // 2, 2)
            and is_dihedral(e, mul, elems, orders)):
        return GroupId(tag="Dihedral", m=order // 2, **stats)
    pk = p
    while pk < order:
        if order == 2 * pk and n_inv == pk and max_ord == p:
            return GroupId(tag="SubAGL", **stats)
        pk *= p
    for m in range(1, n + 1):
        if n % m:
            continue
        q0 = p**m
        if order == q0**3 - q0 and n_inv == q0 * q0 and max_ord == q0 + 1:
            return GroupId(tag="PGL", q0=q0, **stats)
        psl_inv = q0 * (q0 + 1) // 2 if q0 % 4 == 1 else q0 * (q0 - 1) // 2
        psl_max = max((q0 + 1) // 2, p) if q0 > p else p
        if order == (q0**3 - q0) // 2 and n_inv == psl_inv and max_ord == psl_max:
            return GroupId(tag="PSL", q0=q0, **stats)
    if order == 60 and n_inv == 15 and max_ord == 5:
        return GroupId(tag="A5", **stats)
    if order == 24 and n_inv == 9 and max_ord == 4:
        return GroupId(tag="S4", **stats)
    if order == 12 and n_inv == 3 and max_ord == 3:
        return GroupId(tag="A4", **stats)
    return GroupId(tag="Unknown", **stats)


def identify_group(H, field: Field) -> GroupId:
    """Match a closed element set against the possible generated-group types."""
    _verify_closed(field, H)
    mul = lambda x, y: mat_mul(field, x, y)
    elems = list(_element_iter(H))
    return identify(IDENTITY, mul, elems,
                    element_orders(IDENTITY, mul, elems, field.q + 1), field)
