"""Named verification suites over fixed corpora.

Each suite runs a battery of theorem checks and returns per-case results;
a theorem-violating counterexample marks the case failed and carries the
error text. Corpora are fixed in code so runs are reproducible; case
details hold only deterministic counts (timing lives with the caller).
"""

from __future__ import annotations

import itertools as _it
import math
import time
from dataclasses import dataclass, field

from .cohomology import (
    GammaGroup,
    action_from_gen_images,
    conjugation_action,
    h1,
    induced_map,
    inversion_action,
    trivial_action,
)
from .errors import CocycleError, CounterexampleFound, MatchFailure
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
    _cycles,
    all_subgroups,
    automorphism_group,
    cyclic_group,
    dihedral_group,
    direct_product,
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


@dataclass(frozen=True)
class CaseResult:
    name: str
    passed: bool
    details: dict
    seconds: float


@dataclass
class SuiteResult:
    suite: str
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)


def _run_case(result: SuiteResult, name: str, thunk) -> None:
    start = time.perf_counter()
    try:
        details = thunk()
        result.cases.append(
            CaseResult(name, True, details or {}, time.perf_counter() - start)
        )
    except (CocycleError, AssertionError) as exc:
        result.cases.append(
            CaseResult(name, False, {"error": str(exc)}, time.perf_counter() - start)
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
    """First action of gamma on base by automorphisms matching the generator
    orders; searched deterministically over the automorphism group."""
    autos = automorphism_group(base)
    gens = gamma.generators()
    pools = [
        [a for a in autos if math.lcm(*map(len, _cycles(a))) == gamma.element_order(g)]
        for g in gens
    ]
    for assignment in _it.product(*pools):
        try:
            candidate = action_from_gen_images(gamma, base, dict(zip(gens, assignment)))
        except ValueError:
            continue
        rows = {tuple(int(x) for x in row) for row in candidate.action}
        if len(rows) == gamma.order:
            return candidate
    raise ValueError("no faithful action with matching generator orders")


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


# ---------------------------------------------------------------------------
# suites


def suite_hilbert90() -> SuiteResult:
    result = SuiteResult("hilbert90")
    corpus = [(2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2), (2, 3, 1), (2, 3, 2), (5, 2, 1), (5, 2, 2)]
    for q, n, m in corpus:
        tower = make_tower(q, 1, n)

        def gl_case(tower=tower, m=m):
            report = hilbert90_verify(tower, m)
            return {"group_size": report.group_size, "cocycles": report.n_cocycles}

        def sl_case(tower=tower, m=m):
            report = sl_h1_verify(tower, m)
            return {"group_size": report.group_size, "cocycles": report.n_cocycles}

        _run_case(result, f"gl q={q} n={n} m={m}", gl_case)
        _run_case(result, f"sl q={q} n={n} m={m}", sl_case)

    def engine_cross_check():
        counts = {}
        for q, n in [(2, 2), (3, 2), (2, 3), (5, 2)]:
            gamma_group, _ = units_gamma_group(make_tower(q, 1, n))
            res = h1(gamma_group)
            if res.order != 1:
                raise CounterexampleFound(f"H1 of units over q={q}, n={n} is not trivial")
            counts[f"q={q},n={n}"] = res.order
        return counts

    _run_case(result, "generic engine on unit groups", engine_cross_check)
    return result


def suite_kernel_bijection() -> SuiteResult:
    result = SuiteResult("kernel-bijection")
    n_triples = 0
    for name, parent in kernel_bijection_corpus():
        for sub in _stable_subgroups(parent):
            n_triples += 1
            label = f"{name}, |A|={sub.order}"

            def case(parent=parent, sub=sub):
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

            _run_case(result, label, case)
    if n_triples < 25:
        raise MatchFailure(f"bijection corpus has only {n_triples} triples")
    return result


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


def suite_twisted() -> SuiteResult:
    result = SuiteResult("twisted")
    for name, parent in twisted_corpus():

        def case(parent=parent):
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

        _run_case(result, name, case)
    return result


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


def suite_shapiro() -> SuiteResult:
    result = SuiteResult("shapiro")
    for name, gamma, h_sub, action in shapiro_corpus():

        def case(gamma=gamma, h_sub=h_sub, action=action):
            report = shapiro_verify(gamma, h_sub, action)
            return {
                "induced_order": report.induced.gamma_group.base.order,
                "h1_both_sides": report.h1_subgroup.order,
            }

        _run_case(result, name, case)
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

        def case(gamma=gamma, g=g):
            induced = map_group(gamma, g)
            res = h1(induced.gamma_group)
            if res.order != 1:
                raise CounterexampleFound("H1 of the full map group is not trivial")
            return {"map_group_order": induced.gamma_group.base.order}

        _run_case(result, f"map group, gamma={label}, |G|={g.order}", case)
    return result


def suite_units() -> SuiteResult:
    result = SuiteResult("units")
    for d in [1, 2, 3, 5, 6, 7, 10, 13, 15]:

        def case(d=d):
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

        _run_case(result, f"d={d}", case)
    return result


def suite_forms() -> SuiteResult:
    result = SuiteResult("forms")

    def sum_of_squares():
        tower = make_tower(3, 1, 2)
        report = classify_forms(tower, quadratic_form_tensor(tower, ((1, 0), (0, 1))))
        if report.n_classes != 2:
            raise MatchFailure(f"x^2 + y^2 over F3 has {report.n_classes} classes, not 2")
        return {
            "direct_classes": report.n_classes,
            "cohomology_classes": report.h1_stabilizer.order,
            "stabilizer": report.stabilizer_size,
        }

    def zero_tensor():
        tower = make_tower(2, 1, 2)
        report = classify_forms(tower, TensorOnV.make(tower, 2, 2, 0, ((0, 0, 0, 0),)))
        if report.n_classes != 1:
            raise MatchFailure(f"the zero tensor has {report.n_classes} classes, not 1")
        return {"direct_classes": 1, "stabilizer": report.stabilizer_size}

    def scalar_form():
        tower = make_tower(3, 1, 2)
        report = classify_forms(tower, TensorOnV.make(tower, 1, 2, 0, ((1,),)))
        return {
            "direct_classes": report.n_classes,
            "cohomology_classes": report.h1_stabilizer.order,
        }

    _run_case(result, "x^2 + y^2 over F3 split by F9", sum_of_squares)
    _run_case(result, "zero tensor over F4", zero_tensor)
    _run_case(result, "scalar form over F9/F3", scalar_form)
    return result


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


def suite_h2() -> SuiteResult:
    result = SuiteResult("h2")
    for name, gamma, pres in h2_corpus():

        def case(gamma=gamma, pres=pres):
            engine = h2_central(gamma, pres)
            oracle = h2_brute_force_order(gamma, pres)
            if engine.order != oracle:
                raise MatchFailure(f"engine {engine.order} != oracle {oracle}")
            return {"order": engine.order, "factors": list(engine.invariant_factors)}

        _run_case(result, name, case)

    extensions = central_extension_corpus()
    for name, parent, central in extensions:

        def case(parent=parent, central=central):
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

        _run_case(result, name, case)
    return result


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


SUITES = {
    "hilbert90": suite_hilbert90,
    "kernel-bijection": suite_kernel_bijection,
    "shapiro": suite_shapiro,
    "twisted": suite_twisted,
    "units": suite_units,
    "forms": suite_forms,
    "h2": suite_h2,
}


def run_suite(name: str) -> list[SuiteResult]:
    if name == "all":
        return [SUITES[key]() for key in sorted(SUITES)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return [SUITES[name]()]
