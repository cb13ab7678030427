"""Prime fields with precomputed character tables, and Eisenstein integers.

discrete_log_tables(p) holds, once per prime, the powers of the smallest
primitive root g and their inverse, the discrete logarithm; they turn the
F_p^*-scaling that identifies weighted projective points into addition of
exponents mod p - 1, and every other per-prime table is read off them.

A PrimeField bundles a prime p >= 5 with ``cube_roots``, the cube roots of
unity in F_p, ascending: the g^(k(p-1)/3), k = 0, 1, 2, when p = 1 mod 3, and
only 1 otherwise.  The quadratic character needs no table of its own: it is
the parity of the discrete log, chi(g^j) = (-1)^j, and chi(0) = 0.

EisensteinInt is the ring Z[omega] with omega^2 + omega + 1 = 0.  Reduction to
F_p for p = 1 mod 3 sends omega to a chosen primitive cube root of unity and is
a ring homomorphism, which is what lets symbolic section coordinates be checked
against point counts.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # discrete_log_tables imports numpy itself, so that a
    import numpy as np  # command that walks no grid loads none

# Largest prime for which we are willing to materialize length-p tables.
MAX_TABLE_PRIME = 5_000_000

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """A prime field F_p, p >= 5, with its cube roots of unity.

    Treat as immutable; safe to share across threads.
    """

    __slots__ = ("p", "cube_roots")

    def __init__(self, p: int, cube_roots: tuple[int, ...]):
        self.p = p
        self.cube_roots = cube_roots


def make_field(p: int) -> PrimeField:
    """Build F_p with its cube roots of unity.

    Rejects composites and the characteristics 2 and 3, where the Weierstrass
    form y^2 = x^3 + c degenerates.
    """
    if not isinstance(p, int) or p in (2, 3) or not is_prime(p):
        raise ValueError(f"unsupported characteristic: {p} (need a prime >= 5)")
    if p > MAX_TABLE_PRIME:
        raise ValueError(f"prime {p} too large for table-based field (max {MAX_TABLE_PRIME})")
    exp, _ = discrete_log_tables(p)
    roots = exp[::(p - 1) // gcd(3, p - 1)]  # g^(k(p-1)/3), or 1 alone
    return PrimeField(p=p, cube_roots=tuple(sorted(roots.tolist())))


def primitive_cube_root(field: PrimeField) -> int:
    """Smallest residue c != 1 with c^3 = 1; requires p = 1 mod 3.

    Such a c automatically satisfies c^2 + c + 1 = 0 mod p, making it a valid
    image for omega under reduction.
    """
    for c in field.cube_roots:
        if c != 1:
            return c
    raise ValueError(f"no primitive cube root in F_{field.p} (p = {field.p} is not 1 mod 3)")


def primitive_root(p: int) -> int:
    """Smallest generator of the cyclic group F_p^*, for an odd prime p."""
    n, factors, q = p - 1, [], 2
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        factors.append(n)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in factors):
        g += 1
    return g


@lru_cache(maxsize=8)
def discrete_log_tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(exp, log) for the smallest primitive root g of F_p, built once per prime.

    exp[j] = g^j for 0 <= j < p - 1 and log[exp[j]] = j; log[0] is -1.  Both
    are read-only int64 arrays, shared by every caller.
    """
    import numpy as np
    g, q = primitive_root(p), p - 1
    exp = np.empty(q, dtype=np.int64)
    exp[0], k, gk = 1, 1, g  # gk = g^k
    while k < q:
        m = min(k, q - k)
        exp[k:k + m] = exp[:m] * gk % p
        k, gk = k + m, gk * gk % p
    log = np.full(p, -1, dtype=np.int64)
    log[exp] = np.arange(q, dtype=np.int64)
    exp.flags.writeable = log.flags.writeable = False
    return exp, log


def power_coset_representatives(p: int, w: int) -> list[int]:
    """Smallest residue of each coset of the w-th powers in F_p^*, ascending.

    The w-th powers are the k-th powers, k = gcd(w, p - 1), a subgroup of
    index k.  For a primitive root g the coset of g^r holds the g^j with
    j = r mod k: column r of the powers of g laid out k to a row.
    """
    exp, _ = discrete_log_tables(p)
    return sorted(exp.reshape(-1, gcd(w, p - 1)).min(axis=0).tolist())


class EisensteinInt:
    """a + b*omega with omega^2 = -1 - omega; treat as immutable.

    Supports ring arithmetic with other EisensteinInt values and plain ints.
    The multiplicative norm is N(a + b*omega) = a^2 - a*b + b^2.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EisensteinInt):
            return self.a == other.a and self.b == other.b
        if isinstance(other, int):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __add__(self, other):
        if isinstance(other, EisensteinInt):
            return EisensteinInt(self.a + other.a, self.b + other.b)
        if isinstance(other, int):
            return EisensteinInt(self.a + other, self.b)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return EisensteinInt(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        if isinstance(other, int):
            return EisensteinInt(other - self.a, -self.b)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, EisensteinInt):
            # (a + b w)(c + d w) = ac + (ad + bc) w + bd (-1 - w)
            a, b, c, d = self.a, self.b, other.a, other.b
            return EisensteinInt(a * c - b * d, a * d + b * c - b * d)
        if isinstance(other, int):
            return EisensteinInt(self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("EisensteinInt powers must be nonnegative integers")
        out = EisensteinInt(1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def norm(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def conjugate(self) -> "EisensteinInt":
        """a + b*omega^2 = (a - b) - b*omega; self * conjugate = norm."""
        return EisensteinInt(self.a - self.b, -self.b)

    def reduce(self, p: int, omega_image: int) -> int:
        """Image in F_p under omega -> omega_image (a ring homomorphism when
        omega_image is a primitive cube root of unity)."""
        return (self.a + self.b * omega_image) % p

    def __repr__(self) -> str:
        return f"EisensteinInt({self.a}, {self.b})"


OMEGA = EisensteinInt(0, 1)
