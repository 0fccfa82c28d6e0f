"""Cohomology of finite group actions and its classification applications.

Pointed-set H0/H1 of finite groups acting on finite groups, H2 for abelian
coefficients, twisted actions and principal homogeneous spaces, Shapiro
induction, Galois descent over finite field towers (invariant bases,
Hilbert-90 style scans, tensor forms), classification and realization of
semisimple commutative algebras, and unit-ideal cohomology of imaginary
quadratic rings. Everything is verified by exhaustive enumeration at desk
scale; `cocycle verify --suite all` runs the theorem suites.

The package root imports no layer: each public name, and each submodule,
loads its home module on first access (PEP 562), so a caller pays only for
the layers it uses. Since layers load in whatever order callers first touch
them, a layer calls another layer's public functions through that module
(``cohomology.h1``), not through a name bound at import: a patch or wrapper
installed in the home module is then seen at every call site, whether the
caller was loaded before it or after.
"""

import importlib

__version__ = "0.1.0"

#: every submodule -> the public names it defines
_EXPORTS = {
    "cli": (),
    "cohomology": (
        "Cocycle", "EquivariantHom", "GammaGroup", "H1Set", "action_from_gen_images",
        "coboundary_transform", "cohomologous", "conjugation_action", "h0", "h1",
        "h1_trivial_action", "induced_map", "inversion_action", "is_cocycle", "kernel_of",
        "make_cocycle", "restrict_to_subgroup", "trivial_action", "trivial_cocycle",
    ),
    "errors": ("CocycleError", "SizeLimit"),
    "etale": (
        "EtaleAlgebra", "EtaleClass", "classify_etale", "discriminant", "factor_structure",
        "fixing_kernel", "is_cyclic_field", "is_field", "is_galois", "realize_over_fq",
    ),
    "exactness": (
        "AbelianPresentation", "CosetSpace", "H2Group", "connecting_delta", "coset_to_cocycle",
        "fixed_cosets", "h2_central", "orbit_kernel_bijection", "quotient_gamma_group",
        "six_term_check", "trivial_module",
    ),
    "fields": ("FqTower", "make_tower"),
    "galois": (
        "SemilinearAction", "TensorOnV", "automorphism_independence_check", "classify_forms",
        "hilbert90_verify", "invariant_basis", "sl_h1_verify",
    ),
    "groups": (
        "FiniteGroup", "GroupHom", "Subgroup", "cyclic_group", "dihedral_group", "direct_product",
        "enumerate_homs", "homs_up_to_conjugacy", "make_group", "quaternion_group",
        "quotient_group", "symmetric_group", "trivial_group",
    ),
    "quad": (
        "QuadIdeal", "QuadRing", "invariant_principal_quotient", "is_principal", "make_ring",
        "ramified_primes", "unit_h1", "verify_units_iso",
    ),
    "serialize": (),
    "snf": (),
    "suites": (),
    "twisted": (
        "GSpace", "TwistedSemiaction", "classify_phs", "cocycle_twist_correspondence",
        "is_twisted_action", "shapiro_induce", "shapiro_verify",
    ),
}

_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Not cached here: each access reads the home module's current attribute,
    # so a wrapper or patch installed there is seen through the root too.
    if name in _HOME:
        return getattr(importlib.import_module(_HOME[name]), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
