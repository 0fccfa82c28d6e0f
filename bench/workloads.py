"""Seeded job lists for the four benchmark workloads.

Each workload builds a fixed number of jobs from ``--seed``. A job is one
public call into the package (or one CLI invocation in ``cli-suites``).
The seed relabels base groups by a random permutation, picks among inputs of
equal cost, and shuffles the job order; it never changes the shape of the
work, so the cost of a pass stays the same from seed to seed. Acting groups
are never relabelled: their greedy generating set, and with it the candidate
count |A|^k, depends on the labelling.

Every job carries a check that does not share the timed route: a closed
form, a second route through the package run on the same input (``peer``),
or an independent count. Checks run after the timed passes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import cocycle as C
from tracer import gl_order

JOBS_PER_PASS = {"crossed-hom": 40, "h2-lattice": 40, "descent": 40, "cli-suites": 30}


@dataclass
class Job:
    name: str
    call: Callable[[], Any]
    summarize: Callable[[Any], dict]
    reference: Callable[[], dict] | None = None  # expected subset of the summary
    peer: str | None = None  # job whose summary must be identical


@dataclass
class Context:
    """What a workload needs from the process that runs it."""

    root: Path
    env: dict
    outdir: Path
    tracer: Any = None


def digest(summary: dict) -> str:
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# groups


def relabel_map(group, rng: random.Random):
    """An isomorphic copy of ``group`` with its element indices permuted.

    Returns the copy and the permutation ``p`` (element a becomes ``p[a]``).
    """
    n = group.order
    perm = list(range(n))
    rng.shuffle(perm)
    p = np.array(perm)
    inv = np.argsort(p)
    table = p[group.table[np.ix_(inv, inv)].astype(np.int64)]
    return C.make_group(table), p


def relabel(group, rng: random.Random):
    return relabel_map(group, rng)[0]


def seeded_hom(gamma, base0, rng: random.Random):
    """A hom gamma -> relabelled copy of base0, conjugated by a random element.

    The hom is the first of largest image on the unrelabelled groups, carried
    through the relabelling, so every seed gets an isomorphic input: the cost
    of h1 on the conjugation action depends on which hom it is.
    """
    homs = C.enumerate_homs(gamma, base0)
    hom0 = max(homs, key=lambda h: len(set(h.image)))
    base, p = relabel_map(base0, rng)
    s = rng.randrange(base.order)
    return base, C.GroupHom.make(gamma, base, [base.conj(s, int(p[x])) for x in hom0.image])


def elementary_abelian(r: int):
    group = C.cyclic_group(2)
    for _ in range(r - 1):
        group = C.direct_product(group, C.cyclic_group(2))
    return group


def center(group) -> list[int]:
    t = group.table
    return [int(a) for a in np.flatnonzero(np.all(t == t.T, axis=1))]


def h1_summary(h) -> dict:
    return {
        "classes": h.order,
        "cocycles": h.n_cocycles,
        "reps": [list(c.values) for c in h.classes],
    }


def trivial_counts(h) -> dict:
    return {"classes": h.order, "cocycles": h.n_cocycles}


def homs_by_presentation(gamma, relators, base) -> tuple[int, int]:
    """(#Hom(gamma, base), #classes up to conjugacy) from a presentation of gamma.

    ``relators`` are words in the indices of ``gamma.generators()`` that
    define gamma; the caller has checked they hold in gamma. Homs are the
    generator tuples satisfying every relator; classes come from Burnside's
    lemma, summing the centralizer order of each hom over the homs.
    """
    t = base.table.astype(np.int64)
    n = base.order
    k = len(gamma.generators())
    if k != 2:
        raise ValueError("presentation reference is written for two generators")
    x = np.repeat(np.arange(n), n)
    y = np.tile(np.arange(n), n)
    ok = np.ones(n * n, dtype=bool)
    for word in relators:
        cur = np.full(n * n, base.identity, dtype=np.int64)
        for letter in word:
            cur = t[cur, x if letter == 0 else y]
        ok &= cur == base.identity
    hx, hy = x[ok], y[ok]
    commute = t == t.T  # commute[a, b]: a and b commute
    stab = np.sum(commute[:, hx] & commute[:, hy], axis=0)
    total = int(stab.sum())
    if total % n:
        raise ArithmeticError("Burnside count is not an integer")
    return int(ok.sum()), total // n


def check_relators(gamma, relators) -> None:
    gens = gamma.generators()
    for word in relators:
        cur = gamma.identity
        for letter in word:
            cur = gamma.mul(cur, gens[letter])
        if cur != gamma.identity:
            raise ValueError(f"relator {word} does not hold in the acting group")


# ---------------------------------------------------------------------------
# crossed-hom


def build_crossed_hom(seed: int, ctx: Context) -> list[Job]:
    rng = random.Random(seed)
    s3, s4, s6 = C.symmetric_group(3), C.symmetric_group(4), C.symmetric_group(6)
    z2 = C.cyclic_group(2)
    q8, e3, d4 = C.quaternion_group(), elementary_abelian(3), C.dihedral_group(4)
    d6, s3z2 = C.dihedral_group(6), C.direct_product(s3, z2)

    jobs: list[Job] = []

    # (a) candidate-heavy law check and (b) the hom-search route on the same pairs
    d4_relators = [(0, 0, 0, 0), (1, 1), (1, 0, 1, 0)]  # r^4, s^2, (sr)^2
    check_relators(d4, d4_relators)
    s6r = relabel(s6, rng)
    jobs.append(
        Job(
            "a:h1 D4->S6",
            lambda: C.h1(C.trivial_action(d4, s6r)),
            h1_summary,
            reference=lambda: dict(
                zip(("cocycles", "classes"), homs_by_presentation(d4, d4_relators, s6r))
            ),
        )
    )
    relabelled = {
        name: relabel(g, rng) for name, g in (("S4", s4), ("D6", d6), ("S3xZ2", s3z2), ("D4", d4))
    }
    pairs = [
        ("S4", s4, "S4"),
        ("Q8", q8, "S4"),
        ("S4", s4, "D6"),
        ("S4", s4, "S3xZ2"),
        ("E3", e3, "D6"),
        ("Q8", q8, "D4"),
    ]
    for gname, gamma, bname in pairs:
        base = relabelled[bname]
        a_name, b_name = f"a:h1 {gname}->{bname}", f"b:homs {gname}->{bname}"
        jobs.append(
            Job(
                a_name,
                lambda g=gamma, b=base: C.h1(C.trivial_action(g, b)),
                h1_summary,
                peer=b_name,
            )
        )
        jobs.append(
            Job(
                b_name,
                lambda g=gamma, b=base: C.h1_trivial_action(g, b),
                h1_summary,
                peer=a_name,
            )
        )

    # (c) partition-heavy: (Z/2)^r trivially on (Z/2)^m has 2^(rm) classes
    for r, m in ((3, 4), (2, 5)):
        gamma, base = elementary_abelian(r), relabel(elementary_abelian(m), rng)
        jobs.append(
            Job(
                f"c:h1 E{r} on E{m}",
                lambda g=gamma, b=base: C.h1(C.trivial_action(g, b)),
                h1_summary,
                reference=lambda r=r, m=m: {"classes": 2 ** (r * m), "cocycles": 2 ** (r * m)},
            )
        )
    for r, m in ((2, 5), (3, 3)):
        gamma, base = elementary_abelian(r), relabel(elementary_abelian(m), rng)
        z = rng.choice([x for x in base.elements() if x != base.identity])
        quot, proj = C.quotient_group(base, C.Subgroup.from_members(base, sorted({base.identity, z})))

        def induced(g=gamma, b=base, q=quot, f=proj):
            src, tgt = C.trivial_action(g, b), C.trivial_action(g, q)
            hom = C.EquivariantHom.make(src, tgt, f)
            h_src, h_tgt = C.h1(src), C.h1(tgt)
            class_map = C.induced_map(hom, h_src, h_tgt)
            return class_map, C.kernel_of(class_map, h_tgt)

        def induced_summary(res):
            class_map, kernel = res
            return {
                "map": list(class_map),
                "image": len(set(class_map)),
                "kernel": len(kernel),
                "fibres": sorted(set(Counter(class_map).values())),
            }

        jobs.append(
            Job(
                f"c:induced E{r} on E{m}->E{m - 1}",
                induced,
                induced_summary,
                reference=lambda r=r, m=m: {
                    "image": 2 ** (r * (m - 1)),
                    "kernel": 2**r,
                    "fibres": [2**r],
                },
            )
        )

    # (d) nontrivial actions: conjugation through a hom, inversion on cyclic groups
    conj_groups = {
        "Z4": C.cyclic_group(4),
        "S3": s3,
        "V4": elementary_abelian(2),
        "Z2": z2,
        "Z6": C.cyclic_group(6),
    }
    conj_bases = {"D4": d4, "S4": s4, "S3": s3, "D6": d6, "Q8": q8}
    conj_pairs = [
        ("Z4", "D4"), ("S3", "S4"), ("V4", "S4"), ("Z2", "S3"), ("Z6", "D6"),
        ("S3", "S3"), ("Z4", "Q8"), ("V4", "D4"), ("Z2", "D4"), ("Z4", "S4"),
    ]
    for gname, bname in conj_pairs:
        gamma = conj_groups[gname]
        base, hom = seeded_hom(gamma, conj_bases[bname], rng)
        jobs.append(
            Job(
                f"d:conj {gname}->{bname}",
                lambda g=gamma, b=base, h=hom: C.h1(C.conjugation_action(g, b, h)),
                h1_summary,
                reference=lambda g=gamma, b=base: trivial_counts(C.h1_trivial_action(g, b)),
            )
        )
    # n is fixed per slot: the cost grows with n, and these jobs set job_p50_s
    for k, n in (
        (2, 96), (2, 104), (2, 112), (2, 120), (2, 128), (4, 130), (4, 140), (4, 150), (4, 160),
        (6, 170), (6, 180), (6, 190), (6, 200),
    ):
        gamma, base = C.cyclic_group(k), relabel(C.cyclic_group(n), rng)
        jobs.append(
            Job(
                f"d:inversion Z{k} on Z{n}",
                lambda g=gamma, b=base: C.h1(C.inversion_action(g, b)),
                h1_summary,
                reference=lambda n=n: {"classes": math.gcd(2, n), "cocycles": n},
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# h2-lattice

#: Schur multiplier and abelianisation of each acting group, as cyclic orders.
SCHUR = {
    "Z4": ((), (4,)),
    "V4": ((2,), (2, 2)),
    "Z5": ((), (5,)),
    "Z6": ((), (6,)),
    "S3": ((), (2,)),
    "Z7": ((), (7,)),
}


def primary_parts(orders) -> list[int]:
    """Prime-power orders of the cyclic summands of a finite abelian group."""
    out = []
    for n in orders:
        p = 2
        while n > 1:
            if n % p == 0:
                q = 1
                while n % p == 0:
                    n //= p
                    q *= p
                out.append(q)
            p += 1
    return sorted(out)


def uct_primary(gname: str, factors) -> list[int]:
    """H^2(G, A) for trivial A: Hom(H_2 G, A) + Ext(H_1 G, A)."""
    schur, ab = SCHUR[gname]
    return primary_parts([math.gcd(a, n) for a in schur + ab for n in factors])


def cyclic_h2_order(n: int, m: int, u: int) -> int:
    """|M^G / N(M)| for G = Z/n acting on M = Z/m through multiplication by u."""
    fixed = math.gcd(u - 1, m)
    norm = sum(pow(u, i, m) for i in range(n)) % m
    return fixed * math.gcd(norm, m) // m


def h2_summary(h) -> dict:
    return {
        "order": h.order,
        "factors": list(h.invariant_factors),
        "primary": primary_parts(h.invariant_factors),
        "generators": [list(g) for g in h.generators],
    }


def mult_module(n: int, m: int, u: int):
    gamma = C.cyclic_group(n)
    mats = tuple(((pow(u, g, m),),) for g in range(n))
    return gamma, C.AbelianPresentation(gamma, (m,), mats)


def build_h2_lattice(seed: int, ctx: Context) -> list[Job]:
    rng = random.Random(seed)
    groups = {
        "Z4": C.cyclic_group(4),
        "V4": elementary_abelian(2),
        "Z5": C.cyclic_group(5),
        "Z6": C.cyclic_group(6),
        "S3": C.symmetric_group(3),
        "Z7": C.cyclic_group(7),
    }
    jobs: list[Job] = []
    trivial = [
        ("Z7", (7,)),
        ("Z6", (2,)), ("Z6", (3,)), ("S3", (2,)), ("S3", (3,)),
        ("Z5", (5,)), ("Z5", (2,)), ("Z5", (3,)),
        ("Z4", (2,)), ("Z4", (4,)), ("Z4", (2, 2)), ("Z4", (2, 4)),
        ("V4", (2,)), ("V4", (2, 2)), ("V4", (3,)),
    ]
    for gname, factors in trivial:
        gamma = groups[gname]
        jobs.append(
            Job(
                f"h2 {gname} trivial {factors}",
                lambda g=gamma, f=factors: C.h2_central(g, C.trivial_module(g, f)),
                h2_summary,
                reference=lambda gn=gname, f=factors: {"primary": uct_primary(gn, f)},
            )
        )
    # cyclic groups acting through a unit. Some units make the Smith form's
    # entries explode (Z/5 on Z/11 by 3 and Z/6 on Z/7 by 6 run for minutes);
    # these are left out so that a pass stays within the run.
    for n, m, u in ((4, 5, 2), (4, 8, 3), (4, 13, 5), (5, 11, 4), (6, 7, 5)):
        gamma, pres = mult_module(n, m, u)
        jobs.append(
            Job(
                f"h2 Z{n} on Z{m} by {u}",
                lambda g=gamma, p=pres: C.h2_central(g, p),
                h2_summary,
                reference=lambda n=n, m=m, u=u: {"order": cyclic_h2_order(n, m, u)},
            )
        )

    # connecting map on every chosen class of a central extension
    q8, d4 = C.quaternion_group(), C.dihedral_group(4)
    z8 = C.cyclic_group(8)
    q8z2 = C.direct_product(q8, C.cyclic_group(2))

    extensions = [  # (gamma, base, how gamma acts, how many classes to take)
        ("Z4", q8, "trivial", 4),
        ("V4", d4, "trivial", 4),
        ("Z6", z8, "trivial", 2),
        ("S3", q8, "trivial", 3),
        ("Z4", q8, "inner", 3),
        ("V4", q8z2, "trivial", 4),
    ]
    for gname, base0, how, take in extensions:
        gamma = groups[gname]
        if how == "inner":
            base, hom = seeded_hom(gamma, base0, rng)
            parent = C.conjugation_action(gamma, base, hom)
        else:
            base = relabel(base0, rng)
            parent = C.trivial_action(gamma, base)
        # A = <z> for a central involution that is a square; this property does
        # not depend on the labelling, so every seed gets the same quotient
        squares = {int(base.table[x, x]) for x in base.elements()}
        z = rng.choice(
            [z for z in center(base) if z in squares and z != base.identity and base.mul(z, z) == base.identity]
        )
        sub = C.Subgroup.from_members(base, sorted({base.identity, z}))
        quotient, proj = C.quotient_gamma_group(parent, sub)
        classes = C.h1(quotient).classes
        chosen = sorted(rng.sample(range(len(classes)), min(take, len(classes))))

        @functools.cache
        def image(parent=parent, quotient=quotient, proj=proj):
            h_b, h_q = C.h1(parent), C.h1(quotient)
            return frozenset(C.induced_map(proj, h_b, h_q))

        for ci in chosen:
            jobs.append(
                Job(
                    f"delta {gname} {how} on {base.order} class {ci}",
                    lambda pa=parent, s=sub, c=classes[ci]: C.connecting_delta(pa, s, c),
                    lambda res: {"trivial": bool(res.trivial), "cochain": list(res.cochain)},
                    reference=lambda ci=ci, image=image: {"trivial": ci in image()},
                )
            )
    return jobs


# ---------------------------------------------------------------------------
# descent


def group_order(q: int, m: int, special: bool) -> int:
    return gl_order(q, m) // (q - 1) if special else gl_order(q, m)


def partitions_into(m: int, parts) -> int:
    """Number of partitions of m into parts from ``parts``."""
    ways = [1] + [0] * m
    for part in parts:
        for total in range(part, m + 1):
            ways[total] += ways[total - part]
    return ways[m]


def scan_summary(report) -> dict:
    return {
        "group_size": report.group_size,
        "cocycles": report.n_cocycles,
        "sample": [[list(map(list, a)), list(map(list, b))] for a, b in report.witness_sample],
    }


def build_descent(seed: int, ctx: Context) -> list[Job]:
    rng = random.Random(seed)
    jobs: list[Job] = []
    big = rng.choice([(2, 1, 10), (2, 2, 5), (2, 5, 2)])  # 1024 elements: dense tables
    scans = [
        ((2, 1, 5), 2, False), ((2, 1, 5), 2, True),
        ((3, 1, 3), 2, False), ((3, 1, 3), 2, True),
        ((5, 1, 2), 2, False), ((5, 1, 2), 2, True),
        ((2, 1, 4), 2, False), ((2, 1, 4), 2, True),
        ((3, 1, 2), 2, False), ((2, 1, 3), 2, False), ((2, 1, 2), 2, True),
        ((37, 1, 2), 1, False),
        (big, 1, False),
        ((3, 1, 1), 3, True), ((2, 1, 1), 3, False),
    ]
    towers = {spec: C.make_tower(*spec) for spec, _, _ in scans}
    for spec, m, special in scans:
        tower = towers[spec]
        q, size = tower.q, tower.size
        jobs.append(
            Job(
                f"scan {'SL' if special else 'GL'}{m} {'x'.join(map(str, spec))}",
                # looked up at call time, so the traced run sees the tracer's wrappers
                lambda t=tower, m=m, s=special: (C.sl_h1_verify if s else C.hilbert90_verify)(t, m),
                scan_summary,
                reference=lambda q=q, size=size, m=m, s=special: {
                    "group_size": group_order(size, m, s),
                    "cocycles": group_order(size, m, s) // group_order(q, m, s),
                },
            )
        )

    def form_job(spec, gram):
        tower = C.make_tower(*spec)
        row = tuple(x for r in gram for x in r)
        tensor = C.TensorOnV.make(tower, 2, 2, 0, (row,))
        return Job(
            f"forms {'x'.join(map(str, spec))} {gram}",
            lambda t=tower, x=tensor: C.classify_forms(t, x),
            lambda rep: {
                "classes": rep.n_classes,
                "h1_classes": rep.h1_stabilizer.order,
                "stabilizer": rep.stabilizer_size,
                "matching": [list(p) for p in rep.matching],
                "orbits": [[list(map(list, t)) for t in orbit] for orbit in rep.direct_orbits],
            },
            # nondegenerate binary forms: two classes in odd characteristic, one in 2
            reference=lambda p=spec[0]: {"classes": 2 if p % 2 else 1, "h1_classes": 2 if p % 2 else 1},
        )

    jobs.append(form_job((3, 1, 2), ((1, 0), (0, 2))))
    jobs.append(form_job((2, 1, 3), ((1, 0), (0, 1))))
    jobs.append(form_job((2, 1, 2), ((1, 0), (0, 1))))
    jobs.append(form_job((2, 1, 2), ((0, 1), (1, 0))))

    etale_towers = {2: (3, 1, 2), 3: (2, 1, 3), 4: (2, 1, 4), 5: (2, 1, 5), 6: (2, 1, 6)}
    etale_pool = [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4), (6, 4), (3, 5), (4, 5), (5, 5)]
    for n, m in (etale_pool * 3)[: 40 - len(jobs)]:
        gamma, tower = C.cyclic_group(n), C.make_tower(*etale_towers[n])

        def etale(g=gamma, t=tower, m=m):
            classes = C.classify_etale(g, m)
            return [(cls, C.realize_over_fq(t, cls)) for cls in classes]

        jobs.append(
            Job(
                f"etale Z{n} dim {m}",
                etale,
                lambda res: {
                    "classes": len(res),
                    "rows": [[list(map(list, c.orbits)), list(a.factor_degrees)] for c, a in res],
                },
                reference=lambda n=n, m=m: {
                    "classes": partitions_into(m, [d for d in range(1, n + 1) if n % d == 0])
                },
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# cli-suites


def run_cli(ctx: Context, args: list[str]) -> tuple[int, bytes]:
    """One invocation of the ``cocycle`` entry point in a fresh interpreter."""
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "cocycle.cli", *args]
        proc = subprocess.run(cmd, cwd=ctx.root, env=ctx.env, capture_output=True, timeout=120)
    else:
        spans_path = ctx.outdir / f"cli-spans-{len(ctx.tracer.spans)}.json"
        cmd = [sys.executable, str(ctx.root / "bench" / "cli_traced.py"), str(spans_path), *args]
        proc = subprocess.run(cmd, cwd=ctx.root, env=ctx.env, capture_output=True, timeout=120)
        if spans_path.exists():
            data = json.loads(spans_path.read_text())
            spans_path.unlink()
            ctx.tracer.merge(data["spans"], data["counts"], data["maxima"], data["untabled"])
        ctx.tracer.add("serialize.bytes_out", len(proc.stdout))
        for line in proc.stderr.decode(errors="replace").splitlines():
            if line.startswith("[") and line.endswith("s)"):
                suite = line[1 : line.index("]")]
                ctx.tracer.add(f"suites.{suite}_s", float(line.rsplit("(", 1)[1][:-2]))
    return proc.returncode, proc.stdout


def cli_summary(res) -> dict:
    code, out = res
    summary = {"exit": code, "stdout_sha256": hashlib.sha256(out).hexdigest()}
    if code == 0:
        payload = json.loads(out)
        for key in ("classes", "cocycles", "group_size", "cohomology_classes", "failed",
                    "discriminant", "h1_order", "quotient_order", "suites"):
            if key in payload:
                summary[key] = payload[key]
        if "rows" in payload and "dimension" in payload:
            summary["etale_rows"] = len(payload["rows"])
        if "ramified" in payload:
            summary["ramified"] = [r["p"] for r in payload["ramified"]]
    return summary


def group_json(group) -> dict:
    return {"order": group.order, "table": group.table.astype(int).tolist()}


def prime_factors(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def build_cli_suites(seed: int, ctx: Context) -> list[Job]:
    rng = random.Random(seed)
    inputs = ctx.outdir / f"cli-inputs-{seed}"
    inputs.mkdir(parents=True, exist_ok=True)
    jobs: list[Job] = []

    def cli_job(name, args, reference):
        jobs.append(Job(name, lambda a=args: run_cli(ctx, a), cli_summary, reference=reference))

    cli_job(
        "verify all",
        ["verify", "--suite", "all", "--seed", str(seed)],
        lambda: {"exit": 0, "failed": 0, "suites": sorted(
            ["forms", "h2", "hilbert90", "kernel-bijection", "shapiro", "twisted", "units"])},
    )

    def write(name, obj) -> str:
        path = inputs / name
        path.write_text(json.dumps(obj))
        return str(path.relative_to(ctx.root))

    # h1 on action files: closed forms for abelian bases, the hom route otherwise
    for i in range(3):
        n = rng.randrange(5, 31)
        base = relabel(C.cyclic_group(n), rng)
        action = C.inversion_action(C.cyclic_group(2), base).action.astype(int).tolist()
        path = write(f"inv{i}.json", {"gamma": {"family": "cyclic", "n": 2}, "base": group_json(base), "action": action})
        cli_job(f"h1 inversion Z2 on Z{n}", ["h1", "--input", path, "--seed", str(seed)],
                lambda n=n: {"exit": 0, "classes": math.gcd(2, n), "cocycles": n})
    for i in range(3):
        k, n = rng.randrange(2, 7), rng.randrange(4, 25)
        base = relabel(C.cyclic_group(n), rng)
        action = [list(range(n))] * k
        path = write(f"triv{i}.json", {"gamma": {"family": "cyclic", "n": k}, "base": group_json(base), "action": action})
        cli_job(f"h1 trivial Z{k} on Z{n}", ["h1", "--input", path, "--seed", str(seed)],
                lambda k=k, n=n: {"exit": 0, "classes": math.gcd(k, n), "cocycles": math.gcd(k, n)})
    for i, (gname, gamma, bgroup) in enumerate(
        [("S3", C.symmetric_group(3), C.dihedral_group(4)), ("Z4", C.cyclic_group(4), C.symmetric_group(3))]
    ):
        base = relabel(bgroup, rng)
        action = [list(range(base.order))] * gamma.order
        family = {"family": "symmetric", "n": 3} if gname == "S3" else {"family": "cyclic", "n": 4}
        path = write(f"nonab{i}.json", {"gamma": family, "base": group_json(base), "action": action})

        def hom_route(g=gamma, b=base):
            return {"exit": 0, **trivial_counts(C.h1_trivial_action(g, b))}

        cli_job(f"h1 trivial {gname} on {base.order}", ["h1", "--input", path, "--seed", str(seed)], hom_route)

    # hilbert90 scans on desk-scale towers
    h90_pool = [((2, 1, 2), 2), ((3, 1, 2), 2), ((2, 1, 3), 2), ((5, 1, 2), 1), ((2, 1, 4), 2),
                ((7, 1, 2), 1), ((3, 1, 2), 1), ((2, 1, 3), 1)]
    for spec, m in rng.sample(h90_pool, 7):
        special = rng.random() < 0.5
        p, d, n = spec
        q, size = p**d, p ** (d * n)
        args = ["hilbert90", "--tower", "x".join(map(str, spec)), "--dim", str(m), "--seed", str(seed)]
        if special:
            args.append("--sl")
        cli_job(f"hilbert90 {'SL' if special else 'GL'}{m} {args[2]}", args,
                lambda q=q, size=size, m=m, s=special: {
                    "exit": 0,
                    "group_size": group_order(size, m, s),
                    "cocycles": group_order(size, m, s) // group_order(q, m, s),
                })

    # forms of binary quadratic forms from tensor files
    for i, (spec, gram) in enumerate(
        [((3, 1, 2), ((1, 0), (0, rng.randrange(1, 3)))), ((2, 1, 2), ((1, 0), (0, 1))),
         ((2, 1, 2), ((0, 1), (1, 0))), ((3, 1, 2), ((rng.randrange(1, 3), 0), (0, 1)))]
    ):
        p, d, n = spec
        degree = d * n
        coeffs = [[x] + [0] * (degree - 1) for r in gram for x in r]
        path = write(f"form{i}.json", {"p": p, "d": d, "n": n, "dim": 2, "type": [2, 0], "coeffs": coeffs})
        classes = 2 if p % 2 else 1
        cli_job(f"forms {'x'.join(map(str, spec))} {gram}", ["forms", "--input", path, "--seed", str(seed)],
                lambda c=classes: {"exit": 0, "classes": c, "cohomology_classes": c})

    # etale classification and realization
    etale_towers = {2: "3x1x2", 3: "2x1x3", 4: "2x1x4"}
    for i in range(5):
        n, m = rng.choice([(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)])
        path = write(f"gamma{i}.json", {"family": "cyclic", "n": n})
        cli_job(f"etale Z{n} dim {m}",
                ["etale", "--input", path, "--dim", str(m), "--tower", etale_towers[n], "--seed", str(seed)],
                lambda n=n, m=m: {"exit": 0, "etale_rows": partitions_into(
                    m, [d for d in range(1, n + 1) if n % d == 0])})

    # unit cohomology of imaginary quadratic rings
    squarefree = [d for d in range(1, 40) if all(d % (p * p) for p in range(2, 7))]
    for d in rng.sample(squarefree, 30 - len(jobs)):
        disc = -d if d % 4 == 3 else -4 * d
        cli_job(f"quad d={d}", ["quad", "--d", str(d), "--seed", str(seed)],
                lambda disc=disc: {"exit": 0, "discriminant": disc, "h1_order": 2,
                                   "quotient_order": 2, "ramified": prime_factors(-disc)})
    return jobs


BUILDERS = {
    "crossed-hom": build_crossed_hom,
    "h2-lattice": build_h2_lattice,
    "descent": build_descent,
    "cli-suites": build_cli_suites,
}


def build(workload: str, seed: int, ctx: Context) -> list[Job]:
    jobs = BUILDERS[workload](seed, ctx)
    seen: Counter = Counter()
    for job in jobs:  # equal inputs may be drawn twice; names must stay unique
        seen[job.name] += 1
        if seen[job.name] > 1:
            job.name = f"{job.name} #{seen[job.name]}"
    random.Random(seed).shuffle(jobs)
    if len(jobs) != JOBS_PER_PASS[workload]:
        raise AssertionError(f"{workload} built {len(jobs)} jobs, expected {JOBS_PER_PASS[workload]}")
    return jobs
