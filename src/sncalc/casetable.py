"""The thirteen-case boundary table and its elimination checks.

Each fixture entry carries the boundary fork's twig brackets and branch
weight, the expected discriminant (with the zero/nonzero claim), the shape
classification, and for the ten surviving cases the stated ruling data:
the 0-divisor inside the boundary with its multiplicities, the fiber
degree against the boundary, the fiber-excess count and the vertical
leftover components.

One `run_case_table` asks each question once: the multiplicities of each
distinct f_infty graph are solved once and kept for the rest of the call,
each fork is folded once for its discriminant and classification (the
graph keeps its fold), and a twig triple is read off the Y classification.
Nothing outlives the call.
"""

from __future__ import annotations

import json
from importlib import resources

from .calculus import chain_invariants, classify_boundary, discriminant
from .errors import NotAFiberError
from .graphs import DualGraph, build_fork, maximal_twigs
from .reports import Report
from .surgery import (
    FiberGraph,
    RulingBookkeeping,
    fiber_multiplicities,
    fujita_check,
    is_valid_fiber,
    unique_minus_one_checks,
)

__all__ = ["load_cases", "run_case_table"]


def load_cases() -> dict:
    return json.loads((resources.files("sncalc") / "fixtures" / "cases.json").read_text())


def _fiber_degrees(g: DualGraph, mu: dict[str, int]) -> dict[str, int]:
    """Pairing of each boundary component outside the fiber with the fiber."""
    out = {}
    for v in g.ids:
        if v in mu:
            continue
        out[v] = sum(mu.get(u, 0) for u in g.neighbors(v))
    return out


def run_case_table(fixture: dict | None = None) -> Report:
    fixture = load_cases() if fixture is None else fixture
    report = Report(fixture.get("title", "cases"))

    # the two fiber shapes every listed 0-divisor reduces to
    for k in range(5):
        shape = DualGraph.from_chain_weights([-1] + [-2] * k + [-1])
        ok, _ = is_valid_fiber(shape)
        report.add(f"pattern.[1,({k}),1]", True, ok, "direct")
    ok, _ = is_valid_fiber(DualGraph.from_chain_weights([-2, -1, -2]))
    report.add("pattern.[2,1,2]", True, ok, "direct")

    fibers: dict[DualGraph, FiberGraph | None] = {}  # f_infty graph -> its fiber
    for case in fixture["cases"]:
        cid = case["id"]
        g = build_fork(case["branch_weight"], case["twigs"])
        d = discriminant(g)
        dspec = case["d"]
        report.add(
            f"{cid}.d", dspec["value"], d, dspec["tag"], dspec.get("ref", "")
        )
        report.add(
            f"{cid}.d_zero",
            dspec["zero"],
            d == 0,
            dspec["tag"] if dspec["zero"] else "derived",
            dspec.get("ref", ""),
        )
        bt = classify_boundary(g)
        report.add(f"{cid}.class", case["boundary_class"], bt.tag.value, "stated",
                   f"case ({cid}) boundary shape")
        if "triple" in case:  # a Y classification carries the sorted triple
            triple = bt.triple or sorted(chain_invariants(t).d for t in maximal_twigs(g))
            report.add(f"{cid}.twig_triple", case["triple"], list(triple), "stated",
                       "admissible-twig discriminant triple")
        ruling = case.get("ruling")
        if not ruling:
            continue
        mu_expected = {k: int(v) for k, v in ruling["f_infty"].items()}
        support = list(mu_expected)
        sub = g.subgraph(support)
        if sub not in fibers:
            try:  # the multiplicities contract f_infty once, and refuse a non-fiber
                fibers[sub] = fiber_multiplicities(sub)
            except NotAFiberError:
                fibers[sub] = None
        fg = fibers[sub]
        report.add(f"{cid}.f_infty_is_fiber", True, fg is not None, "stated", ruling["ref"])
        if fg is None:
            continue
        report.add(f"{cid}.f_infty_mu", mu_expected, fg.multiplicities, "stated",
                   ruling["ref"])
        minus_ones = [v for v, w in sub.vertices if w == -1]
        if len(minus_ones) == 1:
            rep = unique_minus_one_checks(fg)
            report.add(f"{cid}.f_infty_structure", True, rep.passed, "derived",
                       "unique (-1)-component fiber facts")
        degrees = _fiber_degrees(g, fg.multiplicities)
        f_dot_d = sum(degrees.values())
        report.add(f"{cid}.f_dot_d", ruling["f_dot_d"], f_dot_d, "stated", ruling["ref"])
        d_v = sorted(v for v, deg in degrees.items() if deg == 0)
        report.add(f"{cid}.d_v", sorted(ruling["d_v"]), d_v, "stated", ruling["ref"])
        h = sum(1 for deg in degrees.values() if deg > 0)
        # the boundary of the open part also carries the resolution curves,
        # so its second Betti number matches the surface's and the count
        # identity Sigma = h + nu - 2 is what the stated Sigma must satisfy
        b2 = 8 - case["branch_weight"]
        record = RulingBookkeeping(
            h=h, nu=1, sigma_excess=ruling["sigma"], b2_surface=b2, b2_boundary=b2
        )
        report.add(f"{cid}.sigma_fujita", True, fujita_check(record), "stated",
                   ruling["ref"])
    return report
