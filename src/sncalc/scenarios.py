"""Fixture-driven verification scenarios.

A scenario fixture names an arrangement file, the boundary and exceptional
curve sets, the fiber class, the auxiliary curve classes to search for, and
an ordered list of checks with expected values.  All expected values live
in the fixture, each with a provenance tag and (for stated values) an
anchor string; the runner only computes actuals and compares.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from . import projective as pj
from .errors import LatticeError
from .calculus import (
    chain_invariants,
    classify_boundary,
    discriminant,
    kobayashi_check,
)
from .graphs import DualGraph, maximal_twigs
from .lattice import (
    SurfaceLattice,
    euler_numbers,
    extract_boundary_graph,
    h1_order,
    k_plus_sharp_class,
    parse_arrangement,
    ruling_decompose,
    run_program,
    solve_curve_class,
)
from .linalg import det_exact, is_negative_definite, torsion_of_cokernel
from .reports import Report
from .surgery import fujita_check

__all__ = ["load_fixture", "run_scenario", "SCENARIO_NAMES"]

SCENARIO_NAMES = ("y244", "y333")


def _fixture_text(name: str) -> str:
    return (resources.files("sncalc") / "fixtures" / name).read_text()


def load_fixture(scenario: str) -> dict:
    if scenario not in SCENARIO_NAMES:
        raise ValueError(f"unknown scenario {scenario!r}; have {SCENARIO_NAMES}")
    return json.loads(_fixture_text(f"{scenario}.json"))


@dataclass
class _Context:
    fixture: dict
    lattice: SurfaceLattice
    boundary: list[str]
    exceptional: list[str]
    fiber: tuple[int, ...]
    solutions: dict[str, list[tuple[int, ...]]] = field(default_factory=dict)

    @property
    def g_boundary(self) -> DualGraph:
        return extract_boundary_graph(self.lattice, self.boundary)

    @property
    def g_exceptional(self) -> DualGraph:
        return extract_boundary_graph(self.lattice, self.exceptional)

    def class_of_support(self, support: dict) -> tuple[int, ...]:
        vec = [0] * self.lattice.rank
        for name, mult in support.items():
            cls = self.lattice.class_of(name)
            vec = [a + mult * b for a, b in zip(vec, cls)]
        return tuple(vec)

    def decomposition(self, include_exceptional: bool, second: bool = False):
        bnd = self.boundary + (self.exceptional if include_exceptional else [])
        if second:
            ruling = self.fixture["second_ruling"]
            fiber = self.class_of_support(ruling["fiber_support"])
            return ruling_decompose(self.lattice, fiber, ruling["curves"], bnd)
        return ruling_decompose(
            self.lattice, self.fiber, self.fixture["ruling_curves"], bnd
        )


def _prepare(fixture: dict) -> _Context:
    lat = run_program(parse_arrangement(_fixture_text(fixture["arrangement"])))
    ctx = _Context(
        fixture=fixture,
        lattice=lat,
        boundary=list(fixture["boundary"]),
        exceptional=list(fixture["exceptional"]),
        fiber=(0,) * lat.rank,
    )
    ctx.fiber = ctx.class_of_support(fixture["fiber_support"])
    for spec in fixture.get("derived_curves", ()):
        constraints: list[tuple[object, int]] = []
        if "fiber_product" in spec:
            against = (
                ctx.class_of_support(spec["fiber"]) if "fiber" in spec else ctx.fiber
            )
            constraints.append((against, spec["fiber_product"]))
        constraints += [(other, val) for other, val in spec["products"].items()]
        found = solve_curve_class(lat, constraints, spec["self_sq"])
        ctx.solutions[spec["name"]] = found
        if len(found) == 1:
            lat.register(spec["name"], found[0])
    return ctx


# -- the check catalog ---------------------------------------------------


def _twig_brackets(g: DualGraph) -> list[list[int]]:
    return sorted(list(t.bracket) for t in maximal_twigs(g))


def _compute(name: str, ctx: _Context):
    lat = ctx.lattice
    if ":" in name:
        head, arg = name.split(":", 1)
        args = arg.split(",")
    else:
        head, args = name, []

    if head == "rank":
        return lat.rank
    if head == "branch_weight":
        g = ctx.g_boundary
        branch = [v for v in g.ids if g.degree(v) >= 3]
        return g.weight(branch[0]) if len(branch) == 1 else None
    if head == "boundary_triple":
        bt = classify_boundary(ctx.g_boundary)
        return None if bt.triple is None else list(bt.triple)
    if head == "boundary_twigs":
        return _twig_brackets(ctx.g_boundary)
    if head == "exceptional_bracket":
        g = ctx.g_exceptional
        return [-g.weight(v) for v in g.chain_order()]
    if head == "d_boundary":
        return discriminant(ctx.g_boundary)
    if head == "d_boundary_negative":
        return discriminant(ctx.g_boundary) < 0
    if head == "d_full":
        return discriminant(
            extract_boundary_graph(lat, ctx.boundary + ctx.exceptional)
        )
    if head == "d_full_nonzero":
        return _compute("d_full", ctx) != 0
    if head == "k_plus_sharp_zero":
        return all(x == 0 for x in k_plus_sharp_class(lat, ctx.boundary))
    if head == "chi":
        return list(euler_numbers(lat, ctx.boundary, ctx.exceptional))
    if head == "chi_open":
        return euler_numbers(lat, ctx.boundary, ctx.exceptional)[3]
    if head == "exceptional_count_identity":
        b2 = ctx.g_boundary
        branch = next(v for v in b2.ids if b2.degree(v) >= 3)
        return len(ctx.exceptional) == 8 - b2.weight(branch) - len(ctx.boundary)
    if head == "k_squared":
        return lat.pair("K", "K")
    if head == "noether":
        return 12 == lat.pair("K", "K") + 2 + len(ctx.boundary) + len(ctx.exceptional)
    if head == "h1_boundary":
        tg = torsion_of_cokernel(ctx.g_boundary.intersection_matrix())
        return list(tg.invariant_factors)
    if head == "h1_exceptional":
        tg = torsion_of_cokernel(ctx.g_exceptional.intersection_matrix())
        return list(tg.invariant_factors)
    if head == "h1_order":
        return h1_order(lat, ctx.boundary).order
    if head == "fiber_square":
        return lat.pair(ctx.fiber, ctx.fiber)
    if head == "fiber_dot_k":
        return lat.pair(ctx.fiber, "K")
    if head == "class":
        return [list(v) for v in ctx.solutions[args[0]]]
    if head == "pair":
        return lat.pair(args[0], args[1])
    if head == "fiber":
        dec = ctx.decomposition(include_exceptional=True)
        for piece in dec.fibers:
            if args[0] in piece.names:
                if piece.multiplicities is None:
                    return {"names": list(piece.names), "incomplete": True}
                return dict(zip(piece.names, piece.multiplicities))
        return None
    if head == "horizontal":
        dec = ctx.decomposition(include_exceptional=True)
        return [[n, d] for n, d in dec.horizontal]
    if head == "h_boundary":
        return ctx.decomposition(include_exceptional=True).bookkeeping.h
    if head == "nu":
        return ctx.decomposition(include_exceptional=True).bookkeeping.nu
    if head == "sigma":
        return ctx.decomposition(include_exceptional=True).bookkeeping.sigma_excess
    if head == "fujita":
        return fujita_check(ctx.decomposition(include_exceptional=True).bookkeeping)
    if head == "fujita_open":
        return fujita_check(ctx.decomposition(include_exceptional=False).bookkeeping)
    if head == "b2_boundary_only":
        return ctx.decomposition(include_exceptional=False).bookkeeping.b2_boundary
    if head == "sigma_open":
        return ctx.decomposition(include_exceptional=False).bookkeeping.sigma_excess
    if head == "fiber2":
        dec = ctx.decomposition(include_exceptional=True, second=True)
        for piece in dec.fibers:
            if args[0] in piece.names:
                if piece.multiplicities is None:
                    return {"names": list(piece.names), "incomplete": True}
                return dict(zip(piece.names, piece.multiplicities))
        return None
    if head == "h2":
        return ctx.decomposition(include_exceptional=True, second=True).bookkeeping.h
    if head == "nu2":
        return ctx.decomposition(include_exceptional=True, second=True).bookkeeping.nu
    if head == "sigma2":
        return ctx.decomposition(
            include_exceptional=True, second=True
        ).bookkeeping.sigma_excess
    if head == "fujita2":
        return fujita_check(
            ctx.decomposition(include_exceptional=True, second=True).bookkeeping
        )
    if head == "contraction_lattice":
        # the contracted curves must span a unimodular negative definite
        # sublattice for the blow-down to end on a smooth rank-1 surface
        gram = [[ctx.lattice.pair(a, b) for b in args] for a in args]
        det = det_exact(gram)
        return {
            "rank_drop": len(args),
            "det_abs": abs(int(det)),
            "negative_definite": is_negative_definite(gram),
        }
    if head == "pair_with_contracted":
        total = [0] * ctx.lattice.rank
        for name in args:
            cls = ctx.lattice.class_of(name)
            total = [a + b for a, b in zip(total, cls)]
        out = {}
        for name in ctx.boundary + ctx.exceptional:
            if name not in args:
                out[name] = int(ctx.lattice.pair(name, total))
        return out
    if head == "image_degrees":
        # degrees of the remaining curves against the pulled-back line class
        # of the contraction: the unique square-one class orthogonal to all
        # contracted curves (degree 1 everywhere means lines)
        line = solve_curve_class(ctx.lattice, [(name, 0) for name in args], 1)
        if len(line) != 1:
            raise LatticeError(f"{len(line)} candidate line classes, need 1")
        return {
            name: int(ctx.lattice.pair(name, line[0]))
            for name in ctx.boundary + ctx.exceptional
            if name not in args
        }
    if head == "kobayashi_holds":
        return _kobayashi(ctx)[0]
    if head == "kobayashi_slack":
        return _kobayashi(ctx)[1]
    if head == "eight_orthogonal":
        names = args
        for i, a in enumerate(names):
            if lat.pair(a, a) != -1:
                return False
            for b in names[i + 1 :]:
                if lat.pair(a, b) != 0:
                    return False
        return True
    if head == "delta_sum_one":
        twigs = maximal_twigs(ctx.g_boundary)
        return sum((chain_invariants(t).delta for t in twigs), Fraction(0)) == 1

    # coordinate-level checks
    if head == "uv_params":
        u, v = pj.conic_family_solve()
        return [u, v]
    if head == "mult":
        c1, c2, p = (pj.Y244_DATA[a] for a in args)
        return pj.intersection_multiplicity(c1, c2, p)
    if head == "bezout":
        c1, c2 = pj.Y244_DATA[args[0]], pj.Y244_DATA[args[1]]
        total = 0
        for pname in ("P1", "P2", "P3"):
            p = pj.Y244_DATA[pname]
            if pj.incident(p, c1) and pj.incident(p, c2):
                total += pj.intersection_multiplicity(c1, c2, p)
        return total
    if head == "theorem_collinearities":
        e = pj.EPS
        first = pj.collinear(
            pj.ProjPoint(1, e, e), pj.ProjPoint(e, e, e * e), pj.ProjPoint(0, 1, 0)
        )
        second = pj.collinear(
            pj.ProjPoint(1, 1, 1), pj.ProjPoint(0, e, e * e), pj.ProjPoint(1, e, 0)
        )
        return [first, second]
    if head == "collinearity_forces_u":
        # the determinant is linear in the free coordinate; solve it exactly
        e = pj.EPS

        def det_at(u):
            pts = (pj.ProjPoint(1, e, e), pj.ProjPoint(e, e, u), pj.ProjPoint(0, 1, 0))
            return pj._det3([p.coords for p in pts])

        d0, d1 = det_at(pj.QuadExt(0)), det_at(pj.QuadExt(1))
        root = d0 / (d0 - d1)
        return [root.a, root.b]  # coordinates over (1, eps)
    if head == "dual_hesse":
        rep = pj.dual_hesse_check()
        return {
            "points_deg3": all(d == 3 for d in rep.point_degrees.values()),
            "lines_deg4": all(d == 4 for d in rep.line_degrees.values()),
            "total": rep.total_incidences,
            "table_ok": rep.incidence_table_ok,
        }
    if head == "actions_failed":
        return list(pj.automorphism_action_check().failed())
    if head == "l3_distinct_meeting":
        l3 = pj.line_through(pj.Y333_POINTS["B1"], pj.Y333_POINTS["A3"])
        t22 = pj.Y333_LINES["T22"]
        t21 = pj.Y333_LINES["T21"]
        return not pj.proj_eq(pj.meet(t22, t21), pj.meet(t22, l3))
    raise KeyError(f"unknown check {name!r}")


def _kobayashi(ctx: _Context) -> tuple[bool, Fraction]:
    chi_open = euler_numbers(ctx.lattice, ctx.boundary, ctx.exceptional)[3]
    ks = k_plus_sharp_class(ctx.lattice, ctx.boundary)
    sq = ctx.lattice.pair(ks, ks)
    return kobayashi_check(chi_open, ctx.fixture["kobayashi_orders"], sq)


def run_scenario(name: str, fixture: dict | None = None) -> Report:
    """Execute every check in a scenario fixture and report the outcomes.

    A check whose computation raises is reported as failed rather than
    aborting the run, so a broken fixture yields a readable report.
    """
    fixture = load_fixture(name) if fixture is None else fixture
    report = Report(fixture.get("title", name))
    try:
        ctx = _prepare(fixture)
    except Exception as exc:  # fixture-level failure: every check fails
        for check_name, entry in fixture["checks"].items():
            report.add_error(
                check_name, entry["expect"], exc, entry["tag"], entry.get("ref", "")
            )
        return report
    for check_name, entry in fixture["checks"].items():
        try:
            actual = _compute(check_name, ctx)
        except Exception as exc:
            report.add_error(
                check_name, entry["expect"], exc, entry["tag"], entry.get("ref", "")
            )
            continue
        report.add(
            check_name, entry["expect"], actual, entry["tag"], entry.get("ref", "")
        )
    return report
