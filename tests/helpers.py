"""Shared construction helpers for the test suite."""

from functools import lru_cache

from conictopes.engine import conic_stabilizer_generators
from conictopes.gf import build_field
from conictopes.grp import ElementSet, closure
from conictopes.plane import Plane


@lru_cache(maxsize=16)
def field(p, n=1):
    return build_field(p, n)


@lru_cache(maxsize=16)
def plane(p, n=1):
    return Plane(field(p, n))


def stabilizer_m(F, a, b, c, d):
    """The conic-stabilizer matrix acting on the parameter as t -> (c+dt)/(a+bt)."""
    mul = F.mul
    two = F.add(1, 1)
    return (mul(a, a), mul(two, mul(a, b)), mul(b, b),
            mul(a, c), F.add(mul(a, d), mul(b, c)), mul(b, d),
            mul(c, c), mul(two, mul(c, d)), mul(d, d))


@lru_cache(maxsize=8)
def full_group(p, n=1) -> ElementSet:
    """The whole conic stabilizer, of order q^3 - q."""
    F = field(p, n)
    gens = conic_stabilizer_generators(F)
    H = closure(F, gens)
    assert len(H) == F.q**3 - F.q
    return H


@lru_cache(maxsize=8)
def psl_subgroup(p, n=1) -> ElementSet:
    """Independent construction of PSL(2,q) inside the stabilizer.

    Generated by t -> t+1, t -> lambda^2 t and t -> -1/t, whose parameter
    maps all have square determinant; the order assertion pins it.
    """
    F = field(p, n)
    lam2 = F.mul(F.generator, F.generator)
    gens = (stabilizer_m(F, 1, 0, 1, 1),
            stabilizer_m(F, 1, 0, 0, lam2),
            stabilizer_m(F, 0, 1, F.neg(1), 0))
    H = closure(F, gens)
    assert len(H) == (F.q**3 - F.q) // 2
    return H
