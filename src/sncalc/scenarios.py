"""Fixture-driven verification scenarios.

A scenario fixture names an arrangement file, the boundary and exceptional
curve sets, the fiber class, the auxiliary curve classes to search for, and
an ordered list of checks with expected values.  All expected values live
in the fixture, each with a provenance tag and (for stated values) an
anchor string; the runner only computes actuals and compares.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from importlib import resources
from operator import attrgetter

from . import projective as pj
from .calculus import chain_invariants, classify_boundary, discriminant, kobayashi_check
from .errors import LatticeError
from .graphs import DualGraph, maximal_twigs
from .lattice import (
    RulingDecomposition,
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
    """One scenario run; each derived graph, class and ruling is computed at most once."""

    fixture: dict
    lattice: SurfaceLattice
    boundary: list[str]
    exceptional: list[str]
    fiber: tuple[int, ...] = ()
    solutions: dict[str, list[tuple[int, ...]]] = field(default_factory=dict)
    rulings: dict[str, RulingDecomposition] = field(default_factory=dict)

    @cached_property
    def g_boundary(self) -> DualGraph:
        return extract_boundary_graph(self.lattice, self.boundary)

    @cached_property
    def g_exceptional(self) -> DualGraph:
        return extract_boundary_graph(self.lattice, self.exceptional)

    @cached_property
    def g_full(self) -> DualGraph:
        return extract_boundary_graph(self.lattice, self.boundary + self.exceptional)

    @cached_property
    def euler(self) -> tuple[int, int, int, int]:
        return euler_numbers(self.lattice, self.boundary, self.exceptional)

    @cached_property
    def k_plus_sharp(self) -> tuple[Fraction, ...]:
        return k_plus_sharp_class(self.lattice, self.boundary)

    @cached_property
    def kobayashi(self) -> tuple[bool, Fraction]:
        sq = self.lattice.pair(self.k_plus_sharp, self.k_plus_sharp)
        return kobayashi_check(self.euler[3], self.fixture["kobayashi_orders"], sq)

    def class_of_support(self, support: dict) -> tuple[int, ...]:
        vec = [0] * self.lattice.rank
        for name, mult in support.items():
            cls = self.lattice.class_of(name)
            vec = [a + mult * b for a, b in zip(vec, cls)]
        return tuple(vec)

    def ruling(self, which: str) -> RulingDecomposition:
        """Decompose along the fixture's ruling ('main'), the same ruling with
        the exceptional curves left out of the boundary ('open'), or the
        fixture's second ruling ('second')."""
        if which not in self.rulings:
            bnd = self.boundary + (self.exceptional if which != "open" else [])
            if which == "second":
                ruling = self.fixture["second_ruling"]
                fiber = self.class_of_support(ruling["fiber_support"])
                curves = ruling["curves"]
            else:
                fiber, curves = self.fiber, self.fixture["ruling_curves"]
            self.rulings[which] = ruling_decompose(self.lattice, fiber, curves, bnd)
        return self.rulings[which]


def _prepare(fixture: dict) -> _Context:
    lat = run_program(parse_arrangement(_fixture_text(fixture["arrangement"])))
    ctx = _Context(
        fixture=fixture,
        lattice=lat,
        boundary=list(fixture["boundary"]),
        exceptional=list(fixture["exceptional"]),
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
#
# Every check is named "head" or "head:arg,arg,..." and computed by
# _CHECKS[head](ctx, args).


def _branch_weight(ctx: _Context, args):
    g = ctx.g_boundary
    branch = [v for v in g.ids if g.degree(v) >= 3]
    return g.weight(branch[0]) if len(branch) == 1 else None


def _boundary_triple(ctx: _Context, args):
    bt = classify_boundary(ctx.g_boundary)
    return None if bt.triple is None else list(bt.triple)


def _exceptional_count_identity(ctx: _Context, args):
    b2 = ctx.g_boundary
    branch = next(v for v in b2.ids if b2.degree(v) >= 3)
    return len(ctx.exceptional) == 8 - b2.weight(branch) - len(ctx.boundary)


def _h1(g: DualGraph) -> list[int]:
    return list(torsion_of_cokernel(g.intersection_matrix()).invariant_factors)


def _fiber_through(ctx: _Context, which: str, name: str):
    for piece in ctx.ruling(which).fibers:
        if name in piece.names:
            if piece.multiplicities is None:
                return {"names": list(piece.names), "incomplete": True}
            return dict(zip(piece.names, piece.multiplicities))
    return None


def _bookkeeping(which: str, read, ctx: _Context, args):
    return read(ctx.ruling(which).bookkeeping)


def _gram(ctx: _Context, names) -> list[list]:
    return [[ctx.lattice.pair(a, b) for b in names] for a in names]


def _contraction_lattice(ctx: _Context, args):
    # the contracted curves must span a unimodular negative definite
    # sublattice for the blow-down to end on a smooth rank-1 surface
    gram = _gram(ctx, args)
    return {
        "rank_drop": len(args),
        "det_abs": abs(int(det_exact(gram))),
        "negative_definite": is_negative_definite(gram),
    }


def _degrees_after(ctx: _Context, contracted, cls) -> dict[str, int]:
    """Pair each boundary or exceptional curve that a contraction keeps with cls."""
    kept = [n for n in ctx.boundary + ctx.exceptional if n not in contracted]
    return {name: int(ctx.lattice.pair(name, cls)) for name in kept}


def _image_degrees(ctx: _Context, args):
    # degrees of the remaining curves against the pulled-back line class
    # of the contraction: the unique square-one class orthogonal to all
    # contracted curves (degree 1 everywhere means lines)
    line = solve_curve_class(ctx.lattice, [(name, 0) for name in args], 1)
    if len(line) != 1:
        raise LatticeError(f"{len(line)} candidate line classes, need 1")
    return _degrees_after(ctx, args, line[0])


def _eight_orthogonal(ctx: _Context, args):
    # disjoint (-1)-curves: the Gram matrix of the named curves is minus the identity
    n = len(args)
    return _gram(ctx, args) == [[-int(i == j) for j in range(n)] for i in range(n)]


def _delta_sum_one(ctx: _Context, args):
    twigs = maximal_twigs(ctx.g_boundary)
    return sum((chain_invariants(t).delta for t in twigs), Fraction(0)) == 1


# coordinate-level checks
def _mult(ctx: _Context, args):
    c1, c2, p = (pj.Y244_DATA[a] for a in args)
    return pj.intersection_multiplicity(c1, c2, p)


def _bezout(ctx: _Context, args):
    c1, c2 = pj.Y244_DATA[args[0]], pj.Y244_DATA[args[1]]
    points = [pj.Y244_DATA[name] for name in ("P1", "P2", "P3")]
    on_both = [p for p in points if pj.incident(p, c1) and pj.incident(p, c2)]
    return sum(pj.intersection_multiplicity(c1, c2, p) for p in on_both)


def _theorem_collinearities(ctx: _Context, args):
    e, pt = pj.EPS, pj.ProjPoint
    return [
        pj.collinear(pt(1, e, e), pt(e, e, e * e), pt(0, 1, 0)),
        pj.collinear(pt(1, 1, 1), pt(0, e, e * e), pt(1, e, 0)),
    ]


def _collinearity_forces_u(ctx: _Context, args):
    # [e, e, u] lies on the line (l0, l1, l2) through [1, e, e] and [0, 1, 0]
    # exactly when l0 e + l1 e + l2 u = 0
    e = pj.EPS
    l0, l1, l2 = pj.line_through(pj.ProjPoint(1, e, e), pj.ProjPoint(0, 1, 0)).coeffs
    root = -(l0 + l1) * e / l2
    return [root.a, root.b]  # coordinates over (1, eps)


def _dual_hesse(ctx: _Context, args):
    rep = pj.dual_hesse_check()
    return {
        "points_deg3": all(d == 3 for d in rep.point_degrees.values()),
        "lines_deg4": all(d == 4 for d in rep.line_degrees.values()),
        "total": rep.total_incidences,
        "table_ok": rep.incidence_table_ok,
    }


def _l3_distinct_meeting(ctx: _Context, args):
    l3 = pj.line_through(pj.Y333_POINTS["B1"], pj.Y333_POINTS["A3"])
    t21, t22 = pj.Y333_LINES["T21"], pj.Y333_LINES["T22"]
    return pj.meet(t22, t21) != pj.meet(t22, l3)


_CHECKS = {
    "rank": lambda ctx, args: ctx.lattice.rank,
    "branch_weight": _branch_weight,
    "boundary_triple": _boundary_triple,
    "boundary_twigs": lambda ctx, args: sorted(
        list(t.bracket) for t in maximal_twigs(ctx.g_boundary)
    ),
    "exceptional_bracket": lambda ctx, args: [
        -ctx.g_exceptional.weight(v) for v in ctx.g_exceptional.chain_order()
    ],
    "d_boundary": lambda ctx, args: discriminant(ctx.g_boundary),
    "d_boundary_negative": lambda ctx, args: discriminant(ctx.g_boundary) < 0,
    "d_full": lambda ctx, args: discriminant(ctx.g_full),
    "d_full_nonzero": lambda ctx, args: discriminant(ctx.g_full) != 0,
    "k_plus_sharp_zero": lambda ctx, args: all(x == 0 for x in ctx.k_plus_sharp),
    "chi": lambda ctx, args: list(ctx.euler),
    "chi_open": lambda ctx, args: ctx.euler[3],
    "exceptional_count_identity": _exceptional_count_identity,
    "k_squared": lambda ctx, args: ctx.lattice.pair("K", "K"),
    "noether": lambda ctx, args: (
        12 == ctx.lattice.pair("K", "K") + 2 + len(ctx.boundary) + len(ctx.exceptional)
    ),
    "h1_boundary": lambda ctx, args: _h1(ctx.g_boundary),
    "h1_exceptional": lambda ctx, args: _h1(ctx.g_exceptional),
    "h1_order": lambda ctx, args: h1_order(ctx.lattice, ctx.boundary).order,
    "fiber_square": lambda ctx, args: ctx.lattice.pair(ctx.fiber, ctx.fiber),
    "fiber_dot_k": lambda ctx, args: ctx.lattice.pair(ctx.fiber, "K"),
    "class": lambda ctx, args: [list(v) for v in ctx.solutions[args[0]]],
    "pair": lambda ctx, args: ctx.lattice.pair(args[0], args[1]),
    "fiber": lambda ctx, args: _fiber_through(ctx, "main", args[0]),
    "fiber2": lambda ctx, args: _fiber_through(ctx, "second", args[0]),
    "horizontal": lambda ctx, args: [[n, d] for n, d in ctx.ruling("main").horizontal],
    "h_boundary": partial(_bookkeeping, "main", attrgetter("h")),
    "nu": partial(_bookkeeping, "main", attrgetter("nu")),
    "sigma": partial(_bookkeeping, "main", attrgetter("sigma_excess")),
    "sigma_open": partial(_bookkeeping, "open", attrgetter("sigma_excess")),
    "b2_boundary_only": partial(_bookkeeping, "open", attrgetter("b2_boundary")),
    "h2": partial(_bookkeeping, "second", attrgetter("h")),
    "nu2": partial(_bookkeeping, "second", attrgetter("nu")),
    "sigma2": partial(_bookkeeping, "second", attrgetter("sigma_excess")),
    "fujita": partial(_bookkeeping, "main", fujita_check),
    "fujita_open": partial(_bookkeeping, "open", fujita_check),
    "fujita2": partial(_bookkeeping, "second", fujita_check),
    "contraction_lattice": _contraction_lattice,
    "pair_with_contracted": lambda ctx, args: _degrees_after(
        ctx, args, ctx.class_of_support(Counter(args))
    ),
    "image_degrees": _image_degrees,
    "kobayashi_holds": lambda ctx, args: ctx.kobayashi[0],
    "kobayashi_slack": lambda ctx, args: ctx.kobayashi[1],
    "eight_orthogonal": _eight_orthogonal,
    "delta_sum_one": _delta_sum_one,
    "uv_params": lambda ctx, args: list(pj.conic_family_solve()),
    "mult": _mult,
    "bezout": _bezout,
    "theorem_collinearities": _theorem_collinearities,
    "collinearity_forces_u": _collinearity_forces_u,
    "dual_hesse": _dual_hesse,
    "actions_failed": lambda ctx, args: list(pj.automorphism_action_check().failed()),
    "l3_distinct_meeting": _l3_distinct_meeting,
}


def _compute(name: str, ctx: _Context):
    head, sep, arg = name.partition(":")
    if head not in _CHECKS:
        raise KeyError(f"unknown check {name!r}")
    return _CHECKS[head](ctx, arg.split(",") if sep else [])


def run_scenario(name: str, fixture: dict | None = None) -> Report:
    """Execute every check in a scenario fixture and report the outcomes.

    A check whose computation raises is reported as failed rather than
    aborting the run, so a broken fixture yields a readable report.
    """
    fixture = load_fixture(name) if fixture is None else fixture
    report = Report(fixture.get("title", name))
    try:
        ctx, failure = _prepare(fixture), None
    except Exception as exc:  # fixture-level failure: every check fails
        ctx, failure = None, exc
    for check_name, entry in fixture["checks"].items():
        expect, tag, ref = entry["expect"], entry["tag"], entry.get("ref", "")
        error = failure
        if error is None:
            try:
                actual = _compute(check_name, ctx)
            except Exception as exc:
                error = exc
        if error is None:
            report.add(check_name, expect, actual, tag, ref)
        else:
            report.add_error(check_name, expect, error, tag, ref)
    return report
