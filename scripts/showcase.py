"""A guided tour of the library on the standing example graphs.

Builds the graphs, reproduces the headline numbers (censuses, witness
verification, determinants, winding indices, move decisions), and finishes
by driving the CLI on generated files.

Run:  python scripts/showcase.py [workdir]

The generated files are kept in ``workdir`` when one is given, and go into
a temporary directory removed at the end otherwise.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from oeg import boundary, cli, dsl, dynamics, groupoid, invariants, moves, weyl
from oeg.zoo import (
    amplified_arrow_loop,
    arrow_into_loop,
    chained_loops_four,
    full_shift_two,
    lone_loop,
    lone_vertex,
    two_cycle,
)


def banner(text: str):
    print(f"\n== {text} " + "=" * max(0, 60 - len(text)))


def main(workdir: Path) -> int:
    workdir.mkdir(parents=True, exist_ok=True)

    e1, f1 = arrow_into_loop(), two_cycle()
    e2, e2m = full_shift_two(), chained_loops_four()
    g0, floop = lone_vertex(), lone_loop()

    banner("boundary censuses")
    for name, g in [("arrow-into-loop", e1), ("two-cycle", f1), ("lone vertex", g0), ("lone loop", floop)]:
        census = boundary.boundary_census(g)
        pts = ", ".join(dsl.print_point(g, x) for x in census.points)
        print(f"{name:16s} -> {pts}")
    census2 = boundary.boundary_census(e2)
    print(f"{'full 2-shift':16s} -> infinite ({census2.witness})")

    banner("an orbit-equivalence witness between the two-point spaces")
    h = {
        dsl.parse_point(e1, "a.(b)*"): dsl.parse_point(f1, "(c.d)*"),
        dsl.parse_point(e1, "(b)*"): dsl.parse_point(f1, "(d.c)*"),
    }
    w = dynamics.OrbitWitness(
        e1, f1, h,
        k1={dsl.parse_point(e1, "a.(b)*"): 1, dsl.parse_point(e1, "(b)*"): 0},
        l1={x: 0 for x in h},
        k1p={dsl.parse_point(f1, "(c.d)*"): 0, dsl.parse_point(f1, "(d.c)*"): 1},
        l1p={dsl.parse_point(f1, "(c.d)*"): 1, dsl.parse_point(f1, "(d.c)*"): 0},
    )
    print("verify:", dynamics.verify_oe_witness(w).ok)
    tables = dynamics.extend_cocycles(w, 3)
    x = dsl.parse_point(e1, "a.(b)*")
    print(f"degree-3 cocycles at a.(b)*: k={tables.k[x]} l={tables.l[x]}")
    print("conjugate graphs?", dynamics.verify_conjugacy(e1, f1, h),
          f"(fixed points {len(dynamics.fixed_points(e1))} vs {len(dynamics.fixed_points(f1))})")

    banner("determinant checkpoint")
    print("det(I - A) full 2-shift:   ", invariants.det_invariant(e2))
    print("det(I - A) chained loops: ", invariants.det_invariant(e2m))

    banner("groupoid principality and winding")
    rep = groupoid.principality_report(floop)
    print("lone loop principal?", rep.principal, "| witness isotropy:", rep.witness_isotropy)
    bstar = dsl.parse_point(e1, "(b)*")
    g1 = weyl.germ_make(e1, e1.path(["b"]), e1.path((), at="v"), bstar)
    g2 = weyl.identity_germ(e1, bstar)
    print("winding of the loop germ against the identity:", weyl.winding(e1, g1, g2))
    print("phi comparison:", weyl.phi_bijectivity_check(e1, 3))

    banner("moves")
    split = moves.out_split(e2, dsl.parse_partition(e2, "split 1: {a11} | {a12}"))
    print(dsl.print_graph(split.graph, "split_full_shift"), end="")
    print("image of a11.a12.(a22)*:",
          dsl.print_point(split.graph, moves.out_split_map(e2, split, dsl.parse_point(e2, "a11.a12.(a22)*"))))
    amp = amplified_arrow_loop()
    sat, witness = moves.saturate(amp, amp.path([("A", 0), ("B", 0)]))
    print("saturated graph adds:", witness.new_class, "| h(M[3].(B[0])*) =",
          dsl.print_point(amp, moves.saturate_map(witness, dsl.parse_point(sat, "M[3].(B[0])*"))))
    print("amplified equivalence full-2-shift vs two-cycle:", moves.decide_amplified_oe(e2, f1)[0])
    print("amplified equivalence arrow-into-loop vs two-cycle:", moves.decide_amplified_oe(e1, f1)[0])

    banner(f"CLI drive (files under {workdir})")
    files = {}
    for name, g in [("E1", e1), ("F1", f1), ("E2", e2)]:
        p = workdir / f"{name}.graph"
        p.write_text(dsl.print_graph(g, name))
        files[name] = str(p)
    wfile = workdir / "W1.json"
    wfile.write_text(dsl.print_witness(w))
    for argv in (
        ["det", files["E2"]],
        ["census", files["E1"]],
        ["verify-oe", files["E1"], files["F1"], str(wfile)],
        ["decide-amplified", files["E1"], files["F1"]],
    ):
        code = cli.main(argv)
        print(f"$ oeg {' '.join(Path(a).name for a in argv)}  -> exit {code}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(main(Path(sys.argv[1])))
    with tempfile.TemporaryDirectory(prefix="oeg-") as tmp:
        code = main(Path(tmp))
    sys.exit(code)
