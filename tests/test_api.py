"""The public API of the package root: the names, where they live, and how they load."""

import importlib
import inspect
from pathlib import Path

import pytest

import cocycle

#: ``cocycle.__all__`` as published; a change here is an API change
PUBLIC_NAMES = [
    "AbelianPresentation", "Cocycle", "CocycleError", "CosetSpace", "EquivariantHom",
    "EtaleAlgebra", "EtaleClass", "FiniteGroup", "FqTower", "GSpace", "GammaGroup",
    "GroupHom", "H1Set", "H2Group", "QuadIdeal", "QuadRing", "SemilinearAction",
    "SizeLimit", "Subgroup", "TensorOnV", "TwistedSemiaction", "action_from_gen_images",
    "automorphism_independence_check", "classify_etale", "classify_forms", "classify_phs",
    "coboundary_transform", "cocycle_twist_correspondence", "cohomologous",
    "conjugation_action", "connecting_delta", "coset_to_cocycle", "cyclic_group",
    "dihedral_group", "direct_product", "discriminant", "enumerate_homs",
    "factor_structure", "fixed_cosets", "fixing_kernel", "h0", "h1", "h1_trivial_action",
    "h2_central", "hilbert90_verify", "homs_up_to_conjugacy", "induced_map",
    "invariant_basis", "invariant_principal_quotient", "inversion_action", "is_cocycle",
    "is_cyclic_field", "is_field", "is_galois", "is_principal", "is_twisted_action",
    "kernel_of", "make_cocycle", "make_group", "make_ring", "make_tower",
    "orbit_kernel_bijection", "quaternion_group", "quotient_gamma_group", "quotient_group",
    "ramified_primes", "realize_over_fq", "restrict_to_subgroup", "shapiro_induce",
    "shapiro_verify", "six_term_check", "sl_h1_verify", "symmetric_group", "trivial_action",
    "trivial_cocycle", "trivial_group", "trivial_module", "unit_h1", "verify_units_iso",
]


def test_all_is_the_published_snapshot():
    assert cocycle.__all__ == PUBLIC_NAMES


def test_each_name_is_its_home_module_attribute():
    for name in PUBLIC_NAMES:
        value = getattr(cocycle, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("cocycle.") and getattr(home, name) is value, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from cocycle import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_dir_submodules_and_unknown_names():
    assert set(PUBLIC_NAMES) <= set(dir(cocycle))
    for path in Path(cocycle.__file__).parent.glob("*.py"):
        if path.stem != "__init__":
            assert getattr(cocycle, path.stem) is importlib.import_module(f"cocycle.{path.stem}")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cocycle.no_such_name


def test_a_patch_of_the_home_module_is_seen_through_the_root(monkeypatch):
    from cocycle import cohomology

    assert cocycle.h1 is cohomology.h1
    monkeypatch.setattr(cohomology, "h1", lambda parent: "patched")
    assert cocycle.h1(None) == "patched"


def test_layers_call_each_others_public_functions_through_the_module():
    # layers load lazily, in any order: a name bound at import would keep whatever
    # a patch or wrapper had put in its home module at that moment
    homes = {importlib.import_module(getattr(cocycle, name).__module__) for name in PUBLIC_NAMES}
    for module in homes:
        bound = sorted(
            name for name, value in vars(module).items()
            if name in PUBLIC_NAMES and inspect.isfunction(value) and value.__module__ != module.__name__
        )
        assert bound == [], module.__name__
