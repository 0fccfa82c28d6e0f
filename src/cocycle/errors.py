"""Exception types, and every resource bound as a named constant (README, "Bounds")."""

from __future__ import annotations

import os

#: Default ceiling for constructed group orders (8! covers symmetric_group(8)).
DEFAULT_MAX_GROUP_ORDER = 40320

#: Default ceiling on candidate counts in hom/cocycle enumerations.
DEFAULT_MAX_CANDIDATES = 1 << 22

#: Default ceiling on finite field size p**(d*n).
DEFAULT_MAX_FIELD = 1 << 20

#: Field sizes up to this get dense add/mul/inv lookup tables.
FIELD_TABLE_LIMIT = 1024

#: Default ceiling on the number of matrices enumerated for GL/SL scans.
DEFAULT_MAX_MATRICES = 1 << 20

#: Default ceiling on squarefree d for imaginary quadratic rings.
DEFAULT_MAX_QUAD_D = 200

#: Ceiling on the raw 2-cochains |A|^(|gamma|^2) of the brute-force H2 oracle.
MAX_ORACLE_COCHAINS = 1 << 16

#: Ceiling on the ideal norm searched for a generator by ``quad.is_principal``.
MAX_PRINCIPAL_NORM = 10**9

#: Ceiling on the ramified primes whose subsets ``invariant_principal_quotient`` tests.
MAX_RAMIFIED_PRIMES = 20

#: Towers with |K|^n up to this also brute-force Frobenius independence.
EXHAUSTIVE_INDEPENDENCE_SIZE = 10_000

ENV_MAX_MEM = "COCYCLE_MAX_MEM_MB"

#: Cap on one enumeration buffer when COCYCLE_MAX_MEM_MB is unset, unparsable or not positive.
DEFAULT_MAX_MEM_BYTES = 1 << 30


class CocycleError(Exception):
    """Base class for all errors raised by this package."""


class NotAssociative(CocycleError):
    """Multiplication table fails associativity; carries a witnessing triple."""

    def __init__(self, a: int, b: int, c: int):
        self.triple = (a, b, c)
        super().__init__(f"(a*b)*c != a*(b*c) for witnessing triple ({a}, {b}, {c})")


class NoIdentity(CocycleError):
    """Multiplication table has no two-sided identity."""


class NoInverse(CocycleError):
    """Some element has no inverse; carries the witnessing element."""

    def __init__(self, a: int):
        self.element = a
        super().__init__(f"element {a} has no inverse")


class SizeLimit(CocycleError):
    """An enumeration or construction would exceed a configured bound."""


class NotNormal(CocycleError):
    """Subgroup is not normal; carries a witnessing conjugation."""

    def __init__(self, g: int, a: int):
        self.witness = (g, a)
        super().__init__(f"conjugate {g}*{a}*{g}^-1 leaves the subgroup")


class NotStable(CocycleError):
    """Subgroup is not preserved by the group action; carries (element, gamma)."""

    def __init__(self, a: int, gamma: int):
        self.witness = (a, gamma)
        super().__init__(f"action of gamma={gamma} moves subgroup element {a} outside")


class NotPrime(CocycleError):
    """Argument expected to be a prime number."""


class NoIrreducible(CocycleError):
    """No irreducible modulus polynomial was found (should never happen)."""


class NotSquarefree(CocycleError):
    """Argument expected to be squarefree."""


class NotAField(CocycleError):
    """Operation requires an algebra class that is a field."""


class BijectionFailure(CocycleError):
    """A correspondence that is a theorem failed to be a bijection (bug indicator)."""


class DimensionFailure(CocycleError):
    """A fixed-point space or field has the wrong dimension (bug indicator)."""


class MatchFailure(CocycleError):
    """Two independently computed classifications disagree (bug indicator)."""


class CounterexampleFound(CocycleError):
    """Exhaustive verification of a theorem found a counterexample (bug indicator)."""


def memory_budget_bytes() -> int:
    """The COCYCLE_MAX_MEM_MB cap in bytes, or DEFAULT_MAX_MEM_BYTES without a positive one."""
    try:
        mb = int(os.environ.get(ENV_MAX_MEM, ""))
    except ValueError:
        return DEFAULT_MAX_MEM_BYTES
    return mb * (1 << 20) if mb > 0 else DEFAULT_MAX_MEM_BYTES


def check_buffer(n_items: int, item_bytes: int, what: str) -> None:
    """Raise SizeLimit when an enumeration buffer would exceed the memory cap."""
    if n_items * item_bytes <= 1 << 20:  # no cap is below 1 MiB
        return
    budget = memory_budget_bytes()
    if n_items * item_bytes > budget:
        raise SizeLimit(
            f"{what} needs {n_items * item_bytes} bytes, over the memory budget {budget}"
            f" ({ENV_MAX_MEM})"
        )
