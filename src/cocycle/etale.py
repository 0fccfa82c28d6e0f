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

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import galois, groups
from .errors import DEFAULT_MAX_CANDIDATES, CounterexampleFound, DimensionFailure, MatchFailure
from .errors import NotAField, SizeLimit
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
    """Image generated by a single m-cycle: of order m, with an element of one cycle."""
    perms = cls.psi.target.perms
    single_cycle = (len(groups._cycles(perms[g])) == 1 for g in cls.image.members)
    return cls.image.order == cls.m and any(single_cycle)


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

    def _product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x y for coordinate arrays (..., m) that broadcast: sum_ij x_i y_j c[i, j],
        one (..., m) term at a time."""
        t, c = self.tower, np.array(self.structure)
        pairs = itertools.product(range(self.m), repeat=2)
        terms = (t.vmul(t.vmul(x[..., i, None], y[..., j, None]), c[i, j]) for i, j in pairs)
        return functools.reduce(t.vadd, terms)

    def multiply(self, x: Vector, y: Vector) -> Vector:
        return tuple(self._product(np.array(x), np.array(y)).tolist())

    def elements(self):
        """Every coordinate vector in ``itertools.product`` order, as the (rows, m)
        chunks of :func:`groups.product_chunks`; more than DEFAULT_MAX_CANDIDATES
        vectors raise SizeLimit before the first."""
        k = np.array(self.tower.k_elements)
        if (total := len(k) ** self.m) > DEFAULT_MAX_CANDIDATES:
            raise SizeLimit(f"{total} algebra elements exceed bound {DEFAULT_MAX_CANDIDATES}")
        for _, digits in groups.product_chunks((len(k),) * self.m, self.m, "algebra element chunk"):
            yield k[digits]


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
    # column c of P_psi(j) is the unit vector at psi(j)(c)
    mats = [np.eye(m, dtype=int)[:, sym.perms[cls.psi(j)]] for j in range(tower.n)]
    action = SemilinearAction.make(tower, m, mats)
    basis = galois.invariant_basis(action)  # DimensionFailure on wrong dimension

    # the k-coordinates of the basis, of each b_i b_j (coordinatewise in K^m)
    # and of the unit vector, in one gather
    b = np.array(basis)
    products = tower.vmul(b[:, None], b).reshape(m * m, m)
    wanted = np.concatenate([b, products, np.ones((1, m), dtype=np.int64)])
    coords = tower.vk_coords(wanted).reshape(len(wanted), -1)
    solved = [mat_solve(tower, coords[:m].T, rhs) for rhs in coords[m:]]
    structure = tuple(tuple(solved[i * m : (i + 1) * m]) for i in range(m))
    if any(None in row for row in structure):
        raise CounterexampleFound("fixed space is not closed under multiplication")
    one = solved[-1]
    if one is None:
        raise CounterexampleFound("the unit vector is not in the fixed space")
    algebra = _with_validation(EtaleAlgebra(tower, m, structure, one, tuple(basis), ()))
    if algebra.factor_degrees != factor_structure(cls):
        raise MatchFailure(
            f"idempotent factors {algebra.factor_degrees} != orbit sizes {factor_structure(cls)}"
        )
    return algebra


def _with_validation(algebra: EtaleAlgebra) -> EtaleAlgebra:
    t, m, product = algebra.tower, algebra.m, algebra._product
    c, unit = np.array(algebra.structure), np.eye(m, dtype=int)
    if not np.array_equal(c, c.transpose(1, 0, 2)):
        raise CounterexampleFound("not commutative")
    # (b_i b_j) b_s = b_i (b_j b_s): sum_t c_ijt c_tsu = sum_t c_jst c_itu
    if not np.array_equal(product(c[:, :, None], unit), product(unit[:, None, None], c)):
        raise CounterexampleFound("not associative")
    if not np.array_equal(product(np.array(algebra.one_coords), unit), unit):
        raise CounterexampleFound("unit fails")
    idempotents = []
    for x in algebra.elements():
        square, nonzero = product(x, x), x.any(axis=1)
        nilpotent = np.flatnonzero(nonzero & ~square.any(axis=1))
        if nilpotent.size:
            raise CounterexampleFound(f"nonzero nilpotent {tuple(x[nilpotent[0]].tolist())}")
        idempotents.append(x[nonzero & (square == x).all(axis=1)])
    e = np.concatenate(idempotents)
    # e is primitive when no other idempotent f has e f = f
    below = (product(e[:, None], e) == e).all(axis=2) & ~np.eye(len(e), dtype=bool)
    primitive = e[~below.any(axis=1)]
    degrees = [mat_rank(t, images) for images in product(primitive[:, None], unit)]
    if sum(degrees) != m:
        raise DimensionFailure("primitive idempotent blocks do not fill the algebra")
    return replace(algebra, factor_degrees=tuple(sorted(degrees, reverse=True)))


def trace_form_determinant(algebra: EtaleAlgebra) -> int:
    """Determinant of the trace form T(b_i, b_j) = tr(mult by b_i b_j), in k:
    T_ij = sum_k c_ijk tr(b_k), with tr(b_k) = sum_s c_kss."""
    t, c, m = algebra.tower, np.array(algebra.structure), algebra.m
    traces = functools.reduce(t.vadd, (c[:, s, s] for s in range(m)))
    gram = functools.reduce(t.vadd, (t.vmul(c[:, :, k], traces[k]) for k in range(m)))
    return mat_det(t, gram)


def is_square_in_base(tower: FqTower, x: int) -> bool:
    k = np.array(tower.k_elements)
    return x in tower.vmul(k, k)


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
