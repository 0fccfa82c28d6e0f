"""Named verification suites over fixed corpora, as one table of checks.

``SUITES`` maps each suite name to a case builder. A builder builds its
corpus and yields ``(label, check, args)``; a check is a plain function
whose ``check(*args)`` returns the case's details (deterministic counts
only) and raises a verification error on a counterexample. Corpora are
fixed in code so runs are reproducible.

:func:`run_suite` is the one loop. It times each check alone, so corpus
building stays outside the timer; it turns a theorem-violating error into a
failed row carrying the error text; and it yields each row as its case
finishes. A ``SizeLimit`` is a resource bound, not a counterexample, and
propagates. Checks read the routes they compare from this module's globals
when they run, so patching ``suites.h2_brute_force_order`` reaches them.
"""

from __future__ import annotations

import time

import numpy as np

from .cohomology import (
    GammaGroup,
    action_from_gen_images,
    conjugation_action,
    h1,
    induced_map,
    inversion_action,
    trivial_action,
)
from .errors import CocycleError, CounterexampleFound, MatchFailure, SizeLimit
from .exactness import (
    connecting_delta,
    h2_brute_force_order,
    h2_central,
    orbit_kernel_bijection,
    presentation_of_subgroup,
    quotient_gamma_group,
    six_term_check,
    trivial_module,
)
from .fields import make_tower
from .galois import (
    classify_forms,
    hilbert90_verify,
    quadratic_form_tensor,
    sl_h1_verify,
    TensorOnV,
    units_gamma_group,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    all_subgroups,
    automorphism_group,
    crossed_homs,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_table,
    identity_hom,
    perm_sign,
    quaternion_group,
    subgroup_as_group,
    symmetric_group,
    whole_subgroup,
)
from .quad import make_ring, verify_units_iso
from .twisted import (
    classify_phs,
    cocycle_twist_correspondence,
    map_group,
    phs_isomorphism,
    shapiro_verify,
    twisted_space,
)


# ---------------------------------------------------------------------------
# corpus helpers


def _z2_action(base: FiniteGroup, automorphism) -> GammaGroup:
    return action_from_gen_images(cyclic_group(2), base, {1: tuple(automorphism)})


def _conj_automorphism(group: FiniteGroup, g: int) -> tuple[int, ...]:
    return tuple(group.conjugation()[g].tolist())


def _s3_transposition() -> tuple[FiniteGroup, int]:
    s3 = symmetric_group(3)
    t = next(a for a in s3.elements() if s3.perms[a] == (1, 0, 2))
    return s3, t


def _faithful_action_of(gamma: FiniteGroup, base: FiniteGroup) -> GammaGroup:
    """The least injective hom gamma -> Aut(base), as an action. The homs come
    in lexicographic order over gamma, which is product order over the images
    of ``gamma.generators()``, each automorphism taken in sorted order."""
    autos = np.array(automorphism_group(base))
    weights = base.order ** np.arange(base.order - 1, -1, -1)  # int64 keys for |base| <= 15
    keys = autos @ weights  # increasing, as the automorphisms are sorted
    # entry [i, j] is autos[i] after autos[j], the way GammaGroup rows compose
    aut = group_table(
        len(autos), lambda r: np.searchsorted(keys, autos[r][:, autos] @ weights), base.order
    )
    for row in crossed_homs(gamma, aut):
        if len(set(row.tolist())) == gamma.order:
            return GammaGroup(gamma, base, autos[row])
    raise ValueError("no faithful action with matching generator orders")


def _scan_check(tower, m: int, special: bool) -> dict:
    report = (sl_h1_verify if special else hilbert90_verify)(tower, m)
    return {"group_size": report.group_size, "cocycles": report.n_cocycles}


def _unit_groups_check() -> dict:
    counts = {}
    for q, n in [(2, 2), (3, 2), (2, 3), (5, 2)]:
        gamma_group, _ = units_gamma_group(make_tower(q, 1, n))
        res = h1(gamma_group)
        if res.order != 1:
            raise CounterexampleFound(f"H1 of units over q={q}, n={n} is not trivial")
        counts[f"q={q},n={n}"] = res.order
    return counts


def _hilbert90_cases():
    corpus = [(2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2), (2, 3, 1), (2, 3, 2), (5, 2, 1), (5, 2, 2)]
    for q, n, m in corpus:
        tower = make_tower(q, 1, n)
        yield f"gl q={q} n={n} m={m}", _scan_check, (tower, m, False)
        yield f"sl q={q} n={n} m={m}", _scan_check, (tower, m, True)
    yield "generic engine on unit groups", _unit_groups_check, ()


def kernel_bijection_corpus() -> list[tuple[str, GammaGroup]]:
    """Ambient actions whose stable subgroups form the bijection corpus."""
    cases: list[tuple[str, GammaGroup]] = []
    z4 = cyclic_group(4)
    cases.append(("mu4 inversion", inversion_action(cyclic_group(2), z4)))
    cases.append(("Z/4 trivial", trivial_action(cyclic_group(2), z4)))
    s3, t = _s3_transposition()
    cases.append(("S3 conj by transposition", _z2_action(s3, _conj_automorphism(s3, t))))
    cases.append(("S3 full inner", conjugation_action(s3, s3, identity_hom(s3))))
    d4 = dihedral_group(4)
    cases.append(("D4 conj by rotation", _z2_action(d4, _conj_automorphism(d4, 1))))
    cases.append(("D4 conj by reflection", _z2_action(d4, _conj_automorphism(d4, 4))))
    q8 = quaternion_group()
    cases.append(("Q8 conj by i", _z2_action(q8, _conj_automorphism(q8, 2))))
    cases.append(("Q8 conj by j", _z2_action(q8, _conj_automorphism(q8, 4))))
    cases.append(("Q8 with S3 symmetries", _faithful_action_of(symmetric_group(3), q8)))
    cases.append(("Z/6 inversion", inversion_action(cyclic_group(2), cyclic_group(6))))
    return cases


def _stable_subgroups(parent: GammaGroup) -> list[Subgroup]:
    return [s for s in all_subgroups(parent.base) if s.stray(parent.action) is None]


def _bijection_check(parent: GammaGroup, sub: Subgroup) -> dict:
    report = orbit_kernel_bijection(parent, sub)
    details = {
        "orbits": report.n_orbits,
        "kernel_classes": len(report.kernel_classes),
    }
    if sub.is_normal():
        st = six_term_check(parent, sub)
        if not st.exact:
            raise CounterexampleFound(f"six-term exactness fails at {st.first_failure}")
        details["six_term"] = "exact"
    return details


def _kernel_bijection_cases():
    triples = [(name, parent, sub) for name, parent in kernel_bijection_corpus()
               for sub in _stable_subgroups(parent)]
    if len(triples) < 25:
        raise MatchFailure(f"bijection corpus has only {len(triples)} triples")
    for name, parent, sub in triples:
        members = ", ".join(map(str, sub.members))
        yield f"{name}, |A|={sub.order}, A={{{members}}}", _bijection_check, (parent, sub)


def twisted_corpus() -> list[tuple[str, GammaGroup]]:
    z2, z3, z4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    v4 = direct_product(z2, z2)
    z2cube = direct_product(v4, z2)
    s3, t = _s3_transposition()
    v4_cycle = (0, 3, 1, 2)  # the linear map (a, b) -> (b, a+b) on F2^2
    rotate = tuple(
        (a // 2) + 4 * (a % 2) for a in range(8)
    )  # (x, y, z) -> (z, x, y) in the (x*2+y)*2+z indexing
    cases = [
        ("Z/2 on Z/2 trivial", trivial_action(z2, z2)),
        ("Z/2 on Z/3 inversion", inversion_action(z2, z3)),
        ("Z/2 on Z/4 inversion", inversion_action(z2, z4)),
        ("Z/2 on Z/4 trivial", trivial_action(z2, z4)),
        ("Z/2 on Z/6 inversion", inversion_action(z2, cyclic_group(6))),
        ("Z/2 on Z/8 inversion", inversion_action(z2, cyclic_group(8))),
        ("Z/2 on S3 conj", _z2_action(s3, _conj_automorphism(s3, t))),
        ("Z/3 on Z/3 trivial", trivial_action(z3, z3)),
        ("Z/3 on V4 cycle", action_from_gen_images(z3, v4, {1: v4_cycle})),
        ("Z/3 on (Z/2)^3 rotation", action_from_gen_images(z3, z2cube, {1: rotate})),
        ("Z/4 on Z/2 trivial", trivial_action(z4, z2)),
        ("Z/4 on Z/4 inversion", inversion_action(z4, z4)),
        (
            "Z/4 on Z/5 by doubling",
            action_from_gen_images(z4, cyclic_group(5), {1: tuple((2 * a) % 5 for a in range(5))}),
        ),
        (
            "Z/4 on Z/8 by tripling",
            action_from_gen_images(z4, cyclic_group(8), {1: tuple((3 * a) % 8 for a in range(8))}),
        ),
        ("V4 on Z/2 trivial", trivial_action(v4, z2)),
        (
            "V4 on Z/3, one factor inverting",
            action_from_gen_images(v4, z3, {1: (0, 1, 2), 2: (0, 2, 1)}),
        ),
        (
            "V4 on Z/4, one factor inverting",
            action_from_gen_images(v4, z4, {1: (0, 1, 2, 3), 2: (0, 3, 2, 1)}),
        ),
    ]
    return cases


def _twist_check(parent: GammaGroup) -> dict:
    corr = cocycle_twist_correspondence(parent)
    phs = classify_phs(parent)
    n_actions = len(corr.pairs)
    if phs.n_classes != phs.h1.order:
        raise MatchFailure(f"{phs.n_classes} PHS classes vs {phs.h1.order} H1 classes")
    if n_actions != corr.h1.n_cocycles:
        raise MatchFailure(f"{n_actions} twisted actions vs {corr.h1.n_cocycles} cocycles")
    # cohomologous cocycles <=> isomorphic twisted spaces, all pairs
    spaces = [twisted_space(t) for t, _ in corr.pairs]
    classes = corr.h1.class_indices([alpha.values for _, alpha in corr.pairs]).tolist()
    for i in range(len(corr.pairs)):
        for j in range(i + 1, len(corr.pairs)):
            iso = phs_isomorphism(spaces[i], spaces[j]) is not None
            if iso != (classes[i] == classes[j]):
                raise MatchFailure("iso/cohomologous equivalence broke")
    return {
        "twisted_actions": n_actions,
        "h1_classes": phs.h1.order,
        "spaces": phs.n_classes,
    }


def shapiro_corpus() -> list[tuple[str, FiniteGroup, Subgroup, GammaGroup]]:
    cases = []
    z4 = cyclic_group(4)
    h_z4 = Subgroup.from_members(z4, [0, 2])
    h_group_z4, _ = subgroup_as_group(h_z4)
    s3, t = _s3_transposition()
    a3 = Subgroup.from_members(s3, [a for a in s3.elements() if perm_sign(s3.perms[a]) == 1])
    a3_group, a3_embed = subgroup_as_group(a3)
    t_sub = Subgroup.from_members(s3, s3.generated_subgroup([t]))
    t_group, _ = subgroup_as_group(t_sub)

    def z2_actions(h_group):
        return [
            ("G=Z/2 trivial", trivial_action(h_group, cyclic_group(2))),
            ("G=Z/3 inversion", inversion_action(h_group, cyclic_group(3))),
            ("G=Z/4 inversion", inversion_action(h_group, cyclic_group(4))),
            ("G=Z/6 inversion", inversion_action(h_group, cyclic_group(6))),
        ]

    for label, action in z2_actions(h_group_z4):
        cases.append((f"(Z/4, Z/2) {label}", z4, h_z4, action))
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    a3_cases = [
        ("G=Z/3 trivial", trivial_action(a3_group, cyclic_group(3))),
        (
            "G=V4 cycled",
            action_from_gen_images(a3_group, v4, {a3_group.generators()[0]: (0, 3, 1, 2)}),
        ),
        (
            "G=S3 inner",
            conjugation_action(a3_group, s3, GroupHom.make(a3_group, s3, a3_embed)),
        ),
    ]
    for label, action in a3_cases:
        cases.append((f"(S3, A3) {label}", s3, a3, action))
    for label, action in z2_actions(t_group):
        cases.append((f"(S3, <(12)>) {label}", s3, t_sub, action))
    return cases


def _shapiro_check(gamma: FiniteGroup, h_sub: Subgroup, action: GammaGroup) -> dict:
    report = shapiro_verify(gamma, h_sub, action)
    return {
        "induced_order": report.induced.gamma_group.base.order,
        "h1_both_sides": report.h1_subgroup.order,
    }


def _map_group_check(gamma: FiniteGroup, g: FiniteGroup) -> dict:
    induced = map_group(gamma, g)
    res = h1(induced.gamma_group)
    if res.order != 1:
        raise CounterexampleFound("H1 of the full map group is not trivial")
    return {"map_group_order": induced.gamma_group.base.order}


def _shapiro_cases():
    for name, gamma, h_sub, action in shapiro_corpus():
        yield name, _shapiro_check, (gamma, h_sub, action)
    corl = [
        ("Z/2", cyclic_group(2), cyclic_group(2)),
        ("Z/2", cyclic_group(2), cyclic_group(3)),
        ("Z/2", cyclic_group(2), cyclic_group(4)),
        ("Z/3", cyclic_group(3), cyclic_group(2)),
        ("Z/3", cyclic_group(3), cyclic_group(3)),
        ("Z/4", cyclic_group(4), cyclic_group(2)),
        ("Z/4", cyclic_group(4), cyclic_group(3)),
        ("V4", direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(2)),
        ("V4", direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(3)),
        ("S3", symmetric_group(3), cyclic_group(2)),
    ]
    for label, gamma, g in corl:
        yield f"map group, gamma={label}, |G|={g.order}", _map_group_check, (gamma, g)


def _units_check(d: int) -> dict:
    report = verify_units_iso(make_ring(d))
    if report.h1.order != report.quotient.order:
        raise MatchFailure(
            f"H1 order {report.h1.order} vs quotient order {report.quotient.order}"
        )
    if d in (1, 5) and report.h1.order != 2:
        raise MatchFailure(f"H1 of the units for d={d} has order {report.h1.order}, not 2")
    return {
        "h1_order": report.h1.order,
        "quotient_order": report.quotient.order,
        "ramified": len(report.quotient.ramified),
    }


def _sum_of_squares_check() -> dict:
    tower = make_tower(3, 1, 2)
    report = classify_forms(tower, quadratic_form_tensor(tower, ((1, 0), (0, 1))))
    if report.n_classes != 2:
        raise MatchFailure(f"x^2 + y^2 over F3 has {report.n_classes} classes, not 2")
    return {
        "direct_classes": report.n_classes,
        "cohomology_classes": report.h1_stabilizer.order,
        "stabilizer": report.stabilizer_size,
    }


def _zero_tensor_check() -> dict:
    tower = make_tower(2, 1, 2)
    report = classify_forms(tower, TensorOnV.make(tower, 2, 2, 0, ((0, 0, 0, 0),)))
    if report.n_classes != 1:
        raise MatchFailure(f"the zero tensor has {report.n_classes} classes, not 1")
    return {"direct_classes": 1, "stabilizer": report.stabilizer_size}


def _scalar_form_check() -> dict:
    tower = make_tower(3, 1, 2)
    report = classify_forms(tower, TensorOnV.make(tower, 1, 2, 0, ((1,),)))
    return {
        "direct_classes": report.n_classes,
        "cohomology_classes": report.h1_stabilizer.order,
    }


def h2_corpus() -> list[tuple[str, FiniteGroup, object]]:
    z2, z3, z4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    v4 = direct_product(z2, z2)
    mu4 = inversion_action(z2, z4)
    inv_pres = presentation_of_subgroup(mu4, whole_subgroup(z4)).presentation
    return [
        ("H2(Z/2, Z/2)", z2, trivial_module(z2, (2,))),
        ("H2(Z/3, Z/2)", z3, trivial_module(z3, (2,))),
        ("H2(Z/2, Z/4)", z2, trivial_module(z2, (4,))),
        ("H2(Z/4, Z/2)", z4, trivial_module(z4, (2,))),
        ("H2(Z/2, Z/2 x Z/2)", z2, trivial_module(z2, (2, 2))),
        ("H2(Z/3, Z/3)", z3, trivial_module(z3, (3,))),
        ("H2(V4, Z/2)", v4, trivial_module(v4, (2,))),
        ("H2(Z/2, Z/4 inverted)", z2, inv_pres),
    ]


def central_extension_corpus() -> list[tuple[str, GammaGroup, Subgroup]]:
    z2, z4, z8 = cyclic_group(2), cyclic_group(4), cyclic_group(8)
    v4 = direct_product(z2, z2)
    q8 = quaternion_group()
    d4 = dihedral_group(4)
    cases = []
    b = trivial_action(z2, z4)
    cases.append(("Z/4 over Z/2, trivial action", b, Subgroup.from_members(z4, [0, 2])))
    b = trivial_action(z2, z8)
    cases.append(("Z/8 over Z/4", b, Subgroup.from_members(z8, [0, 4])))
    b = trivial_action(z2, v4)
    cases.append(("split V4", b, Subgroup.from_members(v4, [0, 2])))
    b = trivial_action(z2, q8)
    cases.append(("Q8 over V4", b, Subgroup.from_members(q8, [0, 1])))
    b = trivial_action(z2, d4)
    cases.append(("D4 over V4", b, Subgroup.from_members(d4, [0, 2])))
    mu4 = inversion_action(z2, z4)
    cases.append(("mu4 inversion over Z/2", mu4, Subgroup.from_members(z4, [0, 2])))
    return cases


def _h2_check(gamma: FiniteGroup, pres) -> dict:
    engine = h2_central(gamma, pres)
    oracle = h2_brute_force_order(gamma, pres)
    if engine.order != oracle:
        raise MatchFailure(f"engine {engine.order} != oracle {oracle}")
    return {"order": engine.order, "factors": list(engine.invariant_factors)}


def _delta_check(parent: GammaGroup, central: Subgroup) -> dict:
    quotient, proj = quotient_gamma_group(parent, central)
    h1_b, h1_c = h1(parent), h1(quotient)
    image = set(induced_map(proj, h1_b, h1_c))
    n_trivial = 0
    for i, cls in enumerate(h1_c.classes):
        res = connecting_delta(parent, central, cls)
        if res.trivial != (i in image):
            raise CounterexampleFound(f"exactness at H1(B/A) fails for class {i}")
        n_trivial += res.trivial
    return {"quotient_classes": h1_c.order, "delta_trivial": n_trivial}


def _h2_cases():
    for name, gamma, pres in h2_corpus():
        yield name, _h2_check, (gamma, pres)
    for name, parent, central in central_extension_corpus():
        yield name, _delta_check, (parent, central)


# ---------------------------------------------------------------------------
# the table and its loop


SUITES = {
    "forms": lambda: [
        ("x^2 + y^2 over F3 split by F9", _sum_of_squares_check, ()),
        ("zero tensor over F4", _zero_tensor_check, ()),
        ("scalar form over F9/F3", _scalar_form_check, ()),
    ],
    "h2": _h2_cases,
    "hilbert90": _hilbert90_cases,
    "kernel-bijection": _kernel_bijection_cases,
    "shapiro": _shapiro_cases,
    "twisted": lambda: ((name, _twist_check, (parent,)) for name, parent in twisted_corpus()),
    "units": lambda: ((f"d={d}", _units_check, (d,)) for d in [1, 2, 3, 5, 6, 7, 10, 13, 15]),
}


def run_suite(name: str):
    """Run suite ``name``, or every suite in sorted order for ``"all"``, and
    yield ``(row, seconds)`` as each case finishes: row is the case's
    ``{"suite", "case", "passed", "details"}`` and seconds times its check."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    for suite in sorted(SUITES) if name == "all" else [name]:
        for label, check, args in SUITES[suite]():
            start = time.perf_counter()
            try:
                details, passed = check(*args), True
            except SizeLimit:
                raise
            except (CocycleError, AssertionError) as exc:
                details, passed = {"error": str(exc)}, False
            row = {"suite": suite, "case": label, "passed": passed, "details": details}
            yield row, time.perf_counter() - start
