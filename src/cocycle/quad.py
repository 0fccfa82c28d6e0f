"""Imaginary quadratic rings Z[omega], ideal arithmetic, and the unit-ideal
cohomology isomorphism at finite scale.

The base field is the rationals, whose ideals are all principal, so the
invariant-principal-ideal quotient collapses to a finite computation: an
invariant ideal factors with equal exponents over each rational prime, a
product of the primes above p is extended (hence killed in the quotient)
exactly when the ramification degree divides the exponent, and unramified
primes have degree one. What remains is indexed by subsets of the ramified
primes; the quotient is the subgroup of subsets whose prime product is
principal, each tested exactly by lattice-point enumeration.

Ideals are stored in Hermite normal form (a, b + c*omega) with a, c > 0 and
0 <= b < a; the norm is a*c. All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import cohomology, groups
from .cohomology import GammaGroup, H1Set, match_blocks
from .errors import (
    DEFAULT_MAX_QUAD_D,
    MAX_PRINCIPAL_NORM,
    MAX_RAMIFIED_PRIMES,
    CounterexampleFound,
    NotSquarefree,
    SizeLimit,
)
from .fields import is_prime

Elem = tuple[int, int]  # x + y*omega


@dataclass(frozen=True)
class QuadRing:
    """Ring of integers of Q(sqrt(-d)); omega is sqrt(-d), or (1+sqrt(-d))/2
    when d = 3 mod 4."""

    d: int
    half_basis: bool
    discriminant: int

    @property
    def omega_trace(self) -> int:
        # omega + conj(omega)
        return 1 if self.half_basis else 0

    @property
    def omega_norm(self) -> int:
        # omega * conj(omega)
        return (self.d + 1) // 4 if self.half_basis else self.d

    def add(self, u: Elem, v: Elem) -> Elem:
        return (u[0] + v[0], u[1] + v[1])

    def mul(self, u: Elem, v: Elem) -> Elem:
        # omega^2 = omega_trace * omega - omega_norm
        x1, y1 = u
        x2, y2 = v
        cross = y1 * y2
        return (
            x1 * x2 - self.omega_norm * cross,
            x1 * y2 + y1 * x2 + self.omega_trace * cross,
        )

    def conj(self, u: Elem) -> Elem:
        x, y = u
        return (x + self.omega_trace * y, -y)

    def norm(self, u: Elem) -> int:
        x, y = u
        return x * x + self.omega_trace * x * y + self.omega_norm * y * y

    def mul_omega(self, u: Elem) -> Elem:
        return self.mul(u, (0, 1))


def make_ring(d: int) -> QuadRing:
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    if d > DEFAULT_MAX_QUAD_D:
        raise SizeLimit(f"d = {d} exceeds bound {DEFAULT_MAX_QUAD_D}")
    for f in range(2, math.isqrt(d) + 1):
        if d % (f * f) == 0:
            raise NotSquarefree(f"{d} is divisible by {f}^2")
    half = d % 4 == 3
    disc = -d if half else -4 * d
    return QuadRing(d, half, disc)


@dataclass(frozen=True)
class QuadIdeal:
    """Nonzero integral ideal in Hermite normal form (a, b + c*omega)."""

    ring: QuadRing
    a: int
    b: int
    c: int

    @property
    def norm(self) -> int:
        return self.a * self.c

    def contains(self, u: Elem) -> bool:
        x, y = u
        if y % self.c != 0:
            return False
        return (x - (y // self.c) * self.b) % self.a == 0

    def basis(self) -> tuple[Elem, Elem]:
        return (self.a, 0), (self.b, self.c)

    def __str__(self) -> str:
        return f"({self.a}, {self.b}+{self.c}w)"


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g, |g| = gcd(a, b), for a != 0; (a, 1, 0) when a divides b."""
    if b % a == 0:
        return a, 1, 0
    x0, y0, x1, y1, r0, r1 = 1, 0, 0, 1, a, b
    while r1:
        q = r0 // r1
        r0, r1, x0, x1, y0, y1 = r1, r0 - q * r1, x1, x0 - q * x1, y1, y0 - q * y1
    return r0, x0, y0


def _hnf_two_rows(vectors: list[Elem]) -> tuple[int, int, int]:
    """Hermite form of the lattice spanned by (x, y) columns: ((a,0),(b,c))."""
    vecs = [v for v in vectors if v != (0, 0)]
    if not vecs:
        raise ValueError("zero lattice has no normal form")
    # gcd of the y-components with a witnessing combination
    b, c = 0, 0
    xs: list[int] = []
    for x, y in vecs:
        if y == 0:
            xs.append(x)
            continue
        if c == 0:
            b, c = x, y
            continue
        g, s, t = _bezout(c, y)
        # s*c + t*y = g = +-gcd; the combination has y-part g, and the two reduced
        # leftovers drop into the x-only pile
        nb = s * b + t * x
        xs.append((y // g) * b - (c // g) * x)
        b, c = nb, g
    if c < 0:
        b, c = -b, -c
    a = 0
    for x in xs:
        a = math.gcd(a, abs(x))
    if a == 0:
        raise ValueError("lattice does not have full rank")
    if c == 0:
        raise ValueError("lattice does not have full rank")
    b %= a
    return a, b, c


def ideal_from_generators(ring: QuadRing, gens: list[Elem]) -> QuadIdeal:
    """Ideal generated by ring elements: the lattice spanned by g and omega*g."""
    vectors: list[Elem] = []
    for g in gens:
        vectors.append(g)
        vectors.append(ring.mul_omega(g))
    a, b, c = _hnf_two_rows(vectors)
    ideal = QuadIdeal(ring, a, b, c)
    for v in ((a, 0), (b, c)):
        if not ideal.contains(ring.mul_omega(v)):
            raise CounterexampleFound("normal form is not omega-stable")
    return ideal


def principal_ideal(ring: QuadRing, g: Elem) -> QuadIdeal:
    if g == (0, 0):
        raise ValueError("principal ideal needs a nonzero generator")
    return ideal_from_generators(ring, [g])


def whole_ring(ring: QuadRing) -> QuadIdeal:
    return principal_ideal(ring, (1, 0))


def multiply(i: QuadIdeal, j: QuadIdeal) -> QuadIdeal:
    if i.ring is not j.ring:
        raise ValueError("ideals must share a ring")
    result = ideal_from_generators(i.ring, [i.ring.mul(u, v) for u in i.basis() for v in j.basis()])
    if result.norm != i.norm * j.norm:
        raise CounterexampleFound("ideal norm is not multiplicative")
    return result


def conjugate(i: QuadIdeal) -> QuadIdeal:
    return ideal_from_generators(i.ring, [i.ring.conj(v) for v in i.basis()])


def elements_of_norm(ring: QuadRing, n: int) -> list[Elem]:
    """All x + y*omega with norm exactly n, by ellipse lattice enumeration."""
    if n <= 0:
        return []
    # 4n = (2x + t y)^2 + |disc| y^2 with t = omega_trace
    t, disc = ring.omega_trace, abs(ring.discriminant)
    out = set()
    y_bound = math.isqrt(4 * n // disc)
    for y in range(-y_bound, y_bound + 1):
        rest = 4 * n - disc * y * y
        s = math.isqrt(rest)
        if s * s == rest:
            out |= {((u - t * y) // 2, y) for u in (s, -s) if (u - t * y) % 2 == 0}
    return sorted(out)


def is_principal(i: QuadIdeal) -> Elem | None:
    """A generator of the ideal, or None; exact and complete for the norm bound."""
    n = i.norm
    if n > MAX_PRINCIPAL_NORM:
        raise SizeLimit(f"norm {n} exceeds principality-search bound {MAX_PRINCIPAL_NORM}")
    for g in elements_of_norm(i.ring, n):
        if principal_ideal(i.ring, g) == i:
            return g
    return None


def ramified_primes(ring: QuadRing) -> list[tuple[int, QuadIdeal]]:
    """Primes dividing the discriminant with the ideal above each; checks
    that the square is the rational prime and the ideal is conjugation-fixed."""
    out = []
    disc = abs(ring.discriminant)
    for p in range(2, disc + 1):
        if disc % p != 0 or not is_prime(p):
            continue
        found = None
        for b in range(p):
            # omega-stability of (p, b + omega): p | b^2 + tr*b + nm
            value = b * b + ring.omega_trace * b + ring.omega_norm
            if value % p == 0:
                found = ideal_from_generators(ring, [(p, 0), (b, 1)])
                if found.norm != p:
                    raise CounterexampleFound(f"lattice (p, b+w) above {p} is not stable")
                break
        if found is None:
            raise CounterexampleFound(f"no prime ideal above ramified {p}")
        if multiply(found, found) != principal_ideal(ring, (p, 0)):
            raise CounterexampleFound(f"square of the ideal above {p} is not ({p})")
        if conjugate(found) != found:
            raise CounterexampleFound(f"ideal above {p} is not conjugation-fixed")
        out.append((p, found))
    return out


@dataclass(frozen=True)
class InvariantQuotientReport:
    """P_K^Gamma / (extended principal ideals), as subsets of ramified primes."""

    ring: QuadRing
    ramified: tuple[tuple[int, QuadIdeal], ...]
    principal_subsets: tuple[tuple[tuple[int, ...], Elem], ...]  # (prime subset, generator)

    @property
    def order(self) -> int:
        return len(self.principal_subsets)


def invariant_principal_quotient(ring: QuadRing) -> InvariantQuotientReport:
    """Test each subset of ramified primes for principality of its product."""
    ram = ramified_primes(ring)
    if len(ram) > MAX_RAMIFIED_PRIMES:
        raise SizeLimit(f"{len(ram)} ramified primes exceed bound {MAX_RAMIFIED_PRIMES}")
    principal: list[tuple[tuple[int, ...], Elem]] = []
    principal_keys: set[tuple[int, ...]] = set()
    for size in range(len(ram) + 1):
        for combo in itertools.combinations(ram, size):
            product = whole_ring(ring)
            for _, ideal in combo:
                product = multiply(product, ideal)
            gen = is_principal(product)
            if gen is not None:
                key = tuple(p for p, _ in combo)
                principal.append((key, gen))
                principal_keys.add(key)
    # subgroup structure under symmetric difference (squares are rational)
    for k1 in principal_keys:
        for k2 in principal_keys:
            sym_diff = tuple(sorted(set(k1) ^ set(k2)))
            if sym_diff not in principal_keys:
                raise CounterexampleFound("principal subsets are not a subgroup")
    return InvariantQuotientReport(ring, tuple(ram), tuple(principal))


@dataclass(frozen=True)
class UnitGroup:
    """Finite unit group with the conjugation action of the order-2 Galois group."""

    ring: QuadRing
    elements: tuple[Elem, ...]
    gamma_group: GammaGroup


def unit_group(ring: QuadRing) -> UnitGroup:
    units = elements_of_norm(ring, 1)
    pos = {u: i for i, u in enumerate(units)}

    def rows_of(r):
        return [[pos[ring.mul(units[i], v)] for v in units] for i in r]

    group = groups.group_table(len(units), rows_of, 1, tuple(f"{x}+{y}w" for x, y in units))
    gamma = groups.cyclic_group(2)
    action = [list(range(len(units))), [pos[ring.conj(u)] for u in units]]
    return UnitGroup(ring, tuple(units), GammaGroup(gamma, group, action))


def unit_h1(ring: QuadRing) -> H1Set:
    return cohomology.h1(unit_group(ring).gamma_group)


@dataclass(frozen=True)
class UnitsIsoReport:
    """Explicit match between principal invariant subsets and unit cocycle classes."""

    ring: QuadRing
    quotient: InvariantQuotientReport
    h1: H1Set
    pairs: tuple[tuple[tuple[int, ...], Elem, int], ...]  # (subset, generator, class)

    @property
    def matched(self) -> bool:
        """The classes in pairs are distinct and as many as the pairs and H1."""
        return len({cls for _, _, cls in self.pairs}) == len(self.pairs) == self.h1.order


def _unit_quotient(ring: QuadRing, numerator: Elem, denominator: Elem) -> Elem:
    """numerator / denominator, which must land in the ring."""
    n = ring.norm(denominator)
    product = ring.mul(numerator, ring.conj(denominator))
    if product[0] % n or product[1] % n:
        raise CounterexampleFound("quotient is not integral")
    return (product[0] // n, product[1] // n)


def verify_units_iso(ring: QuadRing) -> UnitsIsoReport:
    """Match lambda -> (sigma -> conj(lambda)/lambda) against the cocycle classes.

    The map must be a bijection from the principal-subset quotient onto the
    classes of H1 of the units; failure raises BijectionFailure.
    """
    quotient = invariant_principal_quotient(ring)
    units = unit_group(ring)
    h1_set = cohomology.h1(units.gamma_group)
    pos = {u: i for i, u in enumerate(units.elements)}
    ratios = [_unit_quotient(ring, ring.conj(gen), gen) for _, gen in quotient.principal_subsets]
    if any(ratio not in pos for ratio in ratios):
        raise CounterexampleFound("conj(lambda)/lambda is not a unit")
    # the cocycle of each subset: identity at the identity, its ratio at conjugation
    rows = [(units.gamma_group.base.identity, pos[ratio]) for ratio in ratios]
    labels = [[c] for c in h1_set.class_indices(rows).tolist()]
    classes = match_blocks(labels, range(h1_set.order), "principal subsets -> H1 classes")
    pairs = tuple((s, g, c) for (s, g), c in zip(quotient.principal_subsets, classes))
    return UnitsIsoReport(ring, quotient, h1_set, pairs)
