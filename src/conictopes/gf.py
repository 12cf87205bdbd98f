"""Arithmetic in GF(p^n) for an odd prime p.

Field elements are represented by their canonical integer encoding

    e = c0 + c1*p + ... + c_{n-1}*p^(n-1)   in  [0, q),  q = p^n,

where (c0, ..., c_{n-1}) are the little-endian coefficients of the residue
polynomial modulo a fixed monic irreducible modulus of degree n.  The modulus
is the lexicographically smallest monic irreducible, comparing coefficient
vectors low-degree-first, so encodings are reproducible across runs and
machines.  For n = 1 the modulus is x by convention (no reduction happens).

All operations take and return canonical integer encodings.  Multiplication
runs on exp/log tables built from a fixed primitive element; dense q x q
add/mul tables are materialised lazily for the hot matrix loops downstream.
There are deliberately no discrete-log or square-root helpers here: geometric
code decides tangency by point counting, never by quadratic residues.
"""

from __future__ import annotations

from functools import cached_property


class NonPrime(ValueError):
    """p is not a prime number."""


class EvenCharacteristic(ValueError):
    """p = 2 is rejected: the whole construction needs odd characteristic."""


class ReducibleModulus(ValueError):
    """A supplied modulus override is not irreducible (or not monic degree n)."""


class DivisionByZero(ZeroDivisionError):
    """Multiplicative inverse of 0 requested."""


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


# -- polynomial helpers over GF(p), little-endian coefficient tuples --------


def _trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(p, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(p, a, m):
    # m is monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _trim(a)


def _poly_gcd(p, a, b):
    a, b = _trim(a), _trim(b)
    while b:
        # make b monic so _poly_mod applies
        lb = b[-1]
        if lb != 1:
            inv = pow(lb, p - 2, p)
            b = tuple((ci * inv) % p for ci in b)
        a, b = b, _poly_mod(p, a, b)
    return a


def _poly_pow_mod(p, base, exp, m):
    result = (1,)
    base = _poly_mod(p, base, m)
    while exp:
        if exp & 1:
            result = _poly_mod(p, _poly_mul(p, result, base), m)
        base = _poly_mod(p, _poly_mul(p, base, base), m)
        exp >>= 1
    return result


def _is_irreducible(p, f) -> bool:
    """Irreducibility of a monic degree-n polynomial over GF(p).

    Root search rules out linear factors (enough for n <= 3); degree n >= 4
    additionally checks gcd(x^(p^k) - x, f) = 1 for k = 2..n//2, which rules
    out every factor of degree at most n/2.
    """
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        return False
    if n == 1:
        return True
    for a in range(p):
        acc = 0
        for c in reversed(f):
            acc = (acc * a + c) % p
        if acc == 0:
            return False
    if n >= 4:
        for k in range(2, n // 2 + 1):
            xq = _poly_pow_mod(p, (0, 1), p**k, f)
            diff = list(xq) + [0] * max(0, 2 - len(xq))  # x^(p^k) - x
            diff[1] = (diff[1] - 1) % p
            g = _poly_gcd(p, _trim(diff), f)
            if len(g) - 1 >= 1:
                return False
    return True


def _lex_min_irreducible(p, n):
    """Smallest monic irreducible of degree n, coefficients compared low-degree-first."""
    if n == 1:
        return (0, 1)
    for code in range(p**n):
        # decode with c0 as the most significant comparison digit
        coeffs = []
        rest = code
        for _ in range(n):
            rest, digit = divmod(rest, p)
            coeffs.append(digit)
        coeffs = tuple(reversed(coeffs)) + (1,)
        if _is_irreducible(p, coeffs):
            return coeffs
    raise AssertionError("no irreducible polynomial found (unreachable)")


class Field:
    """GF(p^n) with canonical integer element encodings."""

    def __init__(self, p: int, n: int = 1, modulus=None):
        if not _is_prime(p):
            raise NonPrime(f"p = {p} is not prime")
        if p == 2:
            raise EvenCharacteristic("characteristic 2 is out of scope")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.p = p
        self.n = n
        self.q = p**n
        if modulus is None:
            self.modulus = _lex_min_irreducible(p, n)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise ReducibleModulus(f"modulus override must be monic of degree {n}")
            if not _is_irreducible(p, modulus):
                raise ReducibleModulus(f"modulus {list(modulus)} is reducible over GF({p})")
            self.modulus = modulus
        self._build_log_tables()

    # -- encoding ------------------------------------------------------

    def encode(self, coeffs) -> int:
        e = 0
        for c in reversed(list(coeffs)):
            e = e * self.p + c % self.p
        return e

    def decode(self, e: int) -> list[int]:
        out = []
        for _ in range(self.n):
            e, digit = divmod(e, self.p)
            out.append(digit)
        return out

    def elements(self):
        return range(self.q)

    # -- arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        out, shift = 0, 1
        for _ in range(self.n):
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            out += ((da + db) % p) * shift
            shift *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        out, shift = 0, 1
        for _ in range(self.n):
            a, da = divmod(a, p)
            out += ((p - da) % p) * shift
            shift *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def invert(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.invert(b))

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise DivisionByZero("0 cannot be raised to a negative power")
            return 0
        return self._exp[(self._log[a] * k) % (self.q - 1)]

    def frobenius(self, a: int, k: int) -> int:
        """x -> x^(p^k), the k-th power of the Frobenius automorphism."""
        if k < 0:
            raise ValueError("frobenius power must be non-negative")
        return self.pow(a, self.p ** (k % self.n))

    # -- table construction ---------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        pa = _trim(self.decode(a))
        pb = _trim(self.decode(b))
        return self.encode(list(_poly_mod(self.p, _poly_mul(self.p, pa, pb), self.modulus))
                           + [0] * self.n)

    def _build_log_tables(self):
        q = self.q
        factors = _prime_factors(q - 1)
        gen = None
        for g in range(2, q):
            # g^((q-1)/r) == 1 for a prime r | q-1 would kill primitivity
            poly = _trim(self.decode(g))
            if all(_poly_pow_mod(self.p, poly, (q - 1) // r, self.modulus) != (1,)
                   for r in factors):
                gen = g
                break
        if gen is None:
            # GF(q)* is cyclic, so only a reducible modulus leaves no generator
            raise ReducibleModulus(f"no primitive element modulo {list(self.modulus)}")
        exp = [1] * (q - 1)
        for i in range(1, q - 1):
            exp[i] = self._raw_mul(exp[i - 1], gen)
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self.generator = gen
        self._exp = exp
        self._log = log

    @cached_property
    def add_t(self):
        """Dense addition table as a list of lists (hot-loop friendly)."""
        return [[self.add(a, b) for b in range(self.q)] for a in range(self.q)]

    @cached_property
    def mul_t(self):
        return [[self.mul(a, b) for b in range(self.q)] for a in range(self.q)]

    @cached_property
    def neg_t(self):
        return [self.neg(a) for a in range(self.q)]

    @cached_property
    def inv_t(self):
        """inv_t[0] is None; index only with nonzero encodings."""
        return [None] + [self.invert(a) for a in range(1, self.q)]

    # -- misc ------------------------------------------------------------

    def describe(self) -> dict:
        return {"p": self.p, "n": self.n, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus))

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))


def build_field(p: int, n: int = 1, modulus_override=None) -> Field:
    """Construct GF(p^n) with the deterministic default modulus."""
    return Field(p, n, modulus_override)
