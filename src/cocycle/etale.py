"""Classification of semisimple commutative algebras of a given dimension.

Classes are homs of the acting group into a symmetric group, up to
conjugacy; structural predicates (field, Galois, cyclic, discriminant) read
off the image subgroup. Over a finite field tower the class is realized
concretely as the fixed points of the coordinate-permuting semilinear
action v -> P_psi(sigma) . v^sigma, where (P_pi v)_j = v_{pi^-1(j)}; the
resulting algebra is factored independently through its primitive
idempotents and must reproduce the orbit sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import galois, groups
from .errors import (
    CounterexampleFound,
    DimensionFailure,
    MatchFailure,
    NotAField,
)
from .fields import FqTower, mat_det, mat_rank, mat_solve
from .galois import SemilinearAction
from .groups import FiniteGroup, GroupHom, Subgroup, orbit_members, orbit_partition, perm_sign

Vector = tuple[int, ...]


@dataclass(frozen=True)
class EtaleClass:
    """One conjugacy class of homs gamma -> S_m, with its orbit data."""

    gamma: FiniteGroup
    m: int
    psi: GroupHom
    image: Subgroup
    orbits: tuple[tuple[int, ...], ...]


def classify_etale(gamma: FiniteGroup, m: int) -> list[EtaleClass]:
    """Lexicographically-least representatives of Hom(gamma, S_m) up to conjugacy."""
    sym = groups.symmetric_group(m)
    perms = np.array(sym.perms, dtype=np.intp).reshape(sym.order, m)
    classes = []
    for psi in groups.homs_up_to_conjugacy(gamma, sym):
        image = Subgroup.from_members(sym, sorted(set(psi.image)))
        orbits = orbit_members(orbit_partition(perms[list(image.members)])[1])
        classes.append(EtaleClass(gamma, m, psi, image, orbits))
    return classes


def is_field(cls: EtaleClass) -> bool:
    """The class is a field exactly when the image acts transitively."""
    return len(cls.orbits) == 1


def factor_structure(cls: EtaleClass) -> tuple[int, ...]:
    """Degrees of the field factors: the orbit sizes, largest first."""
    return tuple(sorted((len(o) for o in cls.orbits), reverse=True))


def fixing_kernel(cls: EtaleClass) -> Subgroup:
    """ker(psi), cross-checked against the intersected point stabilizers."""
    kernel = cls.psi.kernel()
    if not kernel.is_normal():
        raise CounterexampleFound("kernel of a hom is not normal")
    if is_field(cls):
        sym = cls.psi.target
        in_stab = np.array([sym.perms[x][0] == 0 for x in cls.psi.image])  # H: psi(g) fixes 0
        # x lies in every s H s^-1 when each conjugate s^-1 x s lies in H
        intersection = set(np.flatnonzero(in_stab[cls.gamma.conjugation()].all(axis=0)).tolist())
        if intersection != set(kernel.members):
            raise MatchFailure(
                "kernel does not match the intersection of stabilizer conjugates"
            )
    return kernel


def is_galois(cls: EtaleClass) -> tuple[bool, Subgroup | None]:
    """Regularity of the image action; returns the Galois group when it holds."""
    if not is_field(cls):
        raise NotAField("Galois predicate applies to field classes only")
    regular = cls.image.order == cls.m
    return (True, cls.image) if regular else (False, None)


def is_cyclic_field(cls: EtaleClass) -> bool:
    """Image generated by a single m-cycle."""
    sym = cls.psi.target
    for g in cls.image.members:
        if len(set(sym.perms[g])) == cls.m and sym.element_order(g) == cls.m:
            if sym.generated_subgroup([g]) == cls.image.members:
                return True
    return False


def discriminant(cls: EtaleClass) -> GroupHom:
    """sign o psi as a hom into the two-element group; trivial iff image is even.

    For Galois field classes of odd dimension the result is checked to be
    trivial (odd-order groups contain no odd permutations).
    """
    sym = cls.psi.target
    z2 = groups.cyclic_group(2)
    image = tuple(
        0 if perm_sign(sym.perms[cls.psi(g)]) == 1 else 1 for g in cls.gamma.elements()
    )
    hom = GroupHom.make(cls.gamma, z2, image)
    if is_field(cls) and is_galois(cls)[0] and cls.m % 2 == 1:
        if any(v != 0 for v in image):
            raise CounterexampleFound("odd Galois class with odd permutation")
    return hom


def discriminant_is_trivial(cls: EtaleClass) -> bool:
    return all(v == 0 for v in discriminant(cls).image)


# ---------------------------------------------------------------------------
# realization over a finite field tower


@dataclass(frozen=True)
class EtaleAlgebra:
    """Base-field algebra in an invariant basis, with verified semisimplicity.

    ``structure[i][j][s]`` are the base-field coefficients of b_i b_j in the
    basis; ``one_coords`` expresses the unit. Validated: commutative,
    associative, unital, and without nonzero nilpotents (x*x = 0 only for 0,
    exhaustively); ``factor_degrees`` comes from the primitive idempotents.
    """

    tower: FqTower
    m: int
    structure: tuple[tuple[Vector, ...], ...]
    one_coords: Vector
    basis: tuple[Vector, ...]
    factor_degrees: tuple[int, ...]

    def multiply(self, x: Vector, y: Vector) -> Vector:
        t = self.tower
        out = [0] * self.m
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                scale = t.mul(xi, yj)
                for s in range(self.m):
                    c = self.structure[i][j][s]
                    if c:
                        out[s] = t.add(out[s], t.mul(scale, c))
        return tuple(out)

    def elements(self):
        return itertools.product(self.tower.k_elements, repeat=self.m)


def realize_over_fq(tower: FqTower, cls: EtaleClass) -> EtaleAlgebra:
    """Fixed points of the coordinate-permuting twisted action, as an algebra.

    Requires the class's gamma to be the cyclic group matching the tower's
    Galois group, element j acting through frob^j.
    """
    gamma = cls.gamma
    reference = groups.cyclic_group(gamma.order)
    if gamma.order != tower.n or not np.array_equal(gamma.table, reference.table):
        raise ValueError(
            "realization needs gamma = cyclic_group(n) for the tower's degree n"
        )
    m, sym = cls.m, cls.psi.target
    mats = []
    for j in range(tower.n):
        perm = sym.perms[cls.psi(j)]
        mats.append(
            tuple(tuple(1 if r == perm[c] else 0 for c in range(m)) for r in range(m))
        )
    action = SemilinearAction.make(tower, m, mats)
    basis = galois.invariant_basis(action)  # DimensionFailure on wrong dimension

    flat_cols = [[coord for x in b for coord in tower.k_coords(x)] for b in basis]
    flat_rows = [list(row) for row in zip(*flat_cols)]

    def coords_of(vec: Vector) -> Vector | None:
        flat_rhs = [coord for x in vec for coord in tower.k_coords(x)]
        return mat_solve(tower, flat_rows, flat_rhs)

    structure = []
    for bi in basis:
        row = []
        for bj in basis:
            product = tuple(tower.mul(x, y) for x, y in zip(bi, bj))
            coords = coords_of(product)
            if coords is None:
                raise CounterexampleFound("fixed space is not closed under multiplication")
            row.append(coords)
        structure.append(tuple(row))
    one = coords_of((1,) * m)
    if one is None:
        raise CounterexampleFound("the unit vector is not in the fixed space")
    algebra = _with_validation(
        EtaleAlgebra(tower, m, tuple(structure), one, tuple(basis), ())
    )
    if algebra.factor_degrees != factor_structure(cls):
        raise MatchFailure(
            f"idempotent factors {algebra.factor_degrees} != orbit sizes {factor_structure(cls)}"
        )
    return algebra


def _with_validation(algebra: EtaleAlgebra) -> EtaleAlgebra:
    t, m = algebra.tower, algebra.m
    zero = (0,) * m
    coords = list(itertools.product(t.k_elements, repeat=m))
    unit_basis = [tuple(1 if i == j else 0 for j in range(m)) for i in range(m)]
    for i in range(m):
        for j in range(m):
            if algebra.structure[i][j] != algebra.structure[j][i]:
                raise CounterexampleFound("not commutative")
    for i in range(m):
        for j in range(m):
            for s in range(m):
                lhs = algebra.multiply(
                    algebra.multiply(unit_basis[i], unit_basis[j]), unit_basis[s]
                )
                rhs = algebra.multiply(
                    unit_basis[i], algebra.multiply(unit_basis[j], unit_basis[s])
                )
                if lhs != rhs:
                    raise CounterexampleFound("not associative")
    for i in range(m):
        if algebra.multiply(algebra.one_coords, unit_basis[i]) != unit_basis[i]:
            raise CounterexampleFound("unit fails")
    idempotents = []
    for x in coords:
        sq = algebra.multiply(x, x)
        if sq == zero and x != zero:
            raise CounterexampleFound(f"nonzero nilpotent {x}")
        if sq == x and x != zero:
            idempotents.append(x)
    primitive = []
    for e in idempotents:
        below = [
            f for f in idempotents if f != e and algebra.multiply(e, f) == f
        ]
        if not below:
            primitive.append(e)
    degrees = []
    for e in primitive:
        images = [algebra.multiply(e, b) for b in unit_basis]
        degrees.append(mat_rank(t, images))
    if sum(degrees) != m:
        raise DimensionFailure("primitive idempotent blocks do not fill the algebra")
    return EtaleAlgebra(
        t,
        m,
        algebra.structure,
        algebra.one_coords,
        algebra.basis,
        tuple(sorted(degrees, reverse=True)),
    )


def trace_form_determinant(algebra: EtaleAlgebra) -> int:
    """Determinant of the trace form T(b_i, b_j) = tr(mult by b_i b_j), in k."""
    t, m = algebra.tower, algebra.m
    unit_basis = [tuple(1 if i == j else 0 for j in range(m)) for i in range(m)]
    gram = []
    for i in range(m):
        row = []
        for j in range(m):
            prod = algebra.structure[i][j]
            trace = 0
            for s in range(m):
                image = algebra.multiply(prod, unit_basis[s])
                trace = t.add(trace, image[s])
            row.append(trace)
        gram.append(tuple(row))
    return mat_det(t, gram)


def is_square_in_base(tower: FqTower, x: int) -> bool:
    squares = {tower.mul(a, a) for a in tower.k_elements}
    return x in squares


def trace_discriminant_matches_sign(tower: FqTower, cls: EtaleClass) -> bool:
    """Square class of the realized trace-form determinant vs the sign hom.

    For odd base fields: the determinant is a nonsquare exactly when
    sign o psi is nontrivial.
    """
    if tower.p == 2:
        raise ValueError("square-class comparison needs an odd base field")
    algebra = realize_over_fq(tower, cls)
    det = trace_form_determinant(algebra)
    if det == 0:
        raise CounterexampleFound("trace form of a semisimple algebra must be nondegenerate")
    return is_square_in_base(tower, det) == discriminant_is_trivial(cls)
