"""Time the ROADMAP baseline rows once and print them as a Markdown table.

Usage: PYTHONPATH=src python3 bench/baseline.py

This is a one-off note for the "before" numbers of the hom-search, H2 and
GL-scan rewrites, not a gated workload: several rows take tens of seconds.
Each row runs once in this process, in the order listed.
"""

import platform
import time

import numpy

import cocycle as C


def elementary_abelian(r):
    group = C.cyclic_group(2)
    for _ in range(r - 1):
        group = C.direct_product(group, C.cyclic_group(2))
    return group


def form(spec, gram):
    tower = C.make_tower(*spec)
    row = tuple(x for r in gram for x in r)
    return tower, C.TensorOnV.make(tower, len(gram), 2, 0, (row,))


def rows():
    s4, s5 = C.symmetric_group(4), C.symmetric_group(5)
    e4 = elementary_abelian(4)
    yield "hom search", "`enumerate_homs(S4, S5)`", lambda: len(C.enumerate_homs(s4, s5))
    yield "H1 engine", "`h1(trivial_action(S4, S5))`", lambda: C.h1(C.trivial_action(s4, s5)).order
    yield "H1 engine", "`h1_trivial_action(S4, S5)`", lambda: C.h1_trivial_action(s4, s5).order
    yield "class partition", "`h1` (Z/2)^4 trivial on (Z/2)^4", lambda: C.h1(C.trivial_action(e4, e4)).order
    for name, gamma in (
        ("Z/8", C.cyclic_group(8)),
        ("D4", C.dihedral_group(4)),
        ("Q8", C.quaternion_group()),
        ("Z/9", C.cyclic_group(9)),
    ):
        yield "H2 / SNF", f"`h2_central` {name}, Z/2", (
            lambda g=gamma: C.h2_central(g, C.trivial_module(g, (2,))).invariant_factors
        )
    tower = C.make_tower(2, 1, 2)
    yield "GL scan", "`hilbert90_verify` 2x1x2, m=3", lambda: C.hilbert90_verify(tower, 3).n_cocycles
    yield "SL scan", "`sl_h1_verify` 2x1x2, m=3", lambda: C.sl_h1_verify(tower, 3).n_cocycles
    t5, x2y2 = form((5, 1, 2), ((1, 0), (0, 1)))
    yield "forms", "`classify_forms` x^2+y^2 over 5x1x2", lambda: C.classify_forms(t5, x2y2).n_classes
    t2, xyz = form((2, 1, 2), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    yield "forms", "`classify_forms` xy+z^2 over 2x1x2 (m=3)", lambda: C.classify_forms(t2, xyz).n_classes


def main():
    print(f"Python {platform.python_version()}, numpy {numpy.__version__}, one run per row")
    print()
    print("| layer | workload | time | answer |")
    print("|---|---|---|---|")
    for layer, what, fn in rows():
        t = time.perf_counter()
        answer = fn()
        print(f"| {layer} | {what} | {time.perf_counter() - t:.1f} s | {answer} |", flush=True)


if __name__ == "__main__":
    main()
