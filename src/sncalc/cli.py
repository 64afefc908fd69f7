"""Command-line interface.

Exit codes: 0 on success, 1 when a verification check fails (including an
invalid fiber), 2 on input errors such as unreadable files or parse
problems, 3 on an internal error (a broken invariant or any other
unexpected exception), reported as one "internal error:" line on stderr.
Reports are deterministic; --json switches to a machine-readable encoding.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .calculus import bark, classify_boundary, discriminant
from .casetable import run_case_table
from .errors import InvariantError, NotAFiberError, SncalcError
from .graphs import emit_dot, parse_graph
from .lattice import parse_arrangement, run_program
from .linalg import torsion_of_cokernel
from .reports import merge
from .scenarios import SCENARIO_NAMES, _run_scenarios, run_scenario
from .surgery import fiber_multiplicities


def _read_input(path: str) -> str:
    """The file at path, or else the bundled fixture of that bare file name."""
    p = Path(path)
    if p.exists():
        return p.read_text()
    bundled = resources.files("sncalc") / "fixtures" / path
    if p.name != path or not bundled.is_file():
        raise FileNotFoundError(f"no such file: {path} (also not a bundled fixture)")
    return bundled.read_text()


def _load_graph(path: str):
    return parse_graph(_read_input(path))


def _emit(payload: dict, text: str, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text)


def _cmd_det(args) -> int:
    g = _load_graph(args.graphfile)
    support = args.support.split(",") if args.support else None
    d = discriminant(g, support)
    _emit({"d": str(d) if d.denominator != 1 else d.numerator}, f"{d}\n", args.json)
    return 0


def _cmd_bark(args) -> int:
    g = _load_graph(args.graphfile)
    bk = bark(g)
    lines = [f"{v} {bk[v]}" for v in g.ids if bk[v] != 0]
    payload = {"bark": {v: str(bk[v]) for v in g.ids if bk[v] != 0}}
    _emit(payload, "\n".join(lines) + ("\n" if lines else "(zero bark)\n"), args.json)
    return 0


def _cmd_classify(args) -> int:
    g = _load_graph(args.graphfile)
    bt = classify_boundary(g)
    payload = {"class": bt.tag.value}
    if bt.triple:
        payload["triple"] = list(bt.triple)
    _emit(payload, f"{bt}\n", args.json)
    return 0


def _cmd_fiber_check(args) -> int:
    g = _load_graph(args.graphfile)
    try:  # one contraction: the fiber keeps the trace that certified it
        fg = fiber_multiplicities(g)
    except NotAFiberError:
        _emit({"valid": False}, "not a valid fiber\n", args.json)
        return 1
    trace = list(fg.trace)
    mu = {v: fg.mu(v) for v in g.ids}
    text = (
        "valid fiber\n"
        f"contraction trace: {', '.join(trace) if trace else '(already a 0-curve)'}\n"
        f"multiplicities: {' '.join(f'{v}={m}' for v, m in mu.items())}\n"
    )
    _emit({"valid": True, "trace": trace, "multiplicities": mu}, text, args.json)
    return 0


def _cmd_mumford(args) -> int:
    g = _load_graph(args.graphfile)
    tg = torsion_of_cokernel(g.intersection_matrix())
    factors = ", ".join(str(f) for f in tg.invariant_factors) or "(trivial)"
    _emit(
        {"invariant_factors": list(tg.invariant_factors), "order": tg.order},
        f"invariant factors: {factors}\n",
        args.json,
    )
    return 0


def _cmd_dot(args) -> int:
    g = _load_graph(args.graphfile)
    _emit({"dot": emit_dot(g)}, emit_dot(g), args.json)
    return 0


def _cmd_arr_run(args) -> int:
    lat = run_program(parse_arrangement(_read_input(args.arrfile)))
    rows = []
    for name in lat.names():
        vec = lat.class_of(name)
        rows.append((name, list(vec), lat.pair(name, name)))
    text_lines = [f"rank {lat.rank}  K.K {lat.pair('K', 'K')}"]
    text_lines += [f"{name} {vec} self={sq}" for name, vec, sq in rows]
    payload = {
        "rank": lat.rank,
        "k_squared": lat.pair("K", "K"),
        "classes": {name: vec for name, vec, _ in rows},
        "self_intersections": {name: sq for name, vec, sq in rows},
    }
    _emit(payload, "\n".join(text_lines) + "\n", args.json)
    return 0


def _cmd_verify(args) -> int:
    if args.target == "all":  # the two surfaces share their scenario-independent checks
        report = merge("all", [run_case_table(), *_run_scenarios(SCENARIO_NAMES)])
    elif args.target == "cases":
        report = run_case_table()
    else:
        report = run_scenario(args.target)
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.render())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sncalc",
        description="Exact intersection calculus for weighted dual graphs, "
        "with bundled verification scenarios.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("det", help="discriminant det(-Q) of a graph file")
    p.add_argument("graphfile")
    p.add_argument("--support", help="comma-separated vertex ids to restrict to")
    p.set_defaults(fn=_cmd_det)

    p = sub.add_parser("bark", help="bark coefficients of a boundary graph")
    p.add_argument("graphfile")
    p.set_defaults(fn=_cmd_bark)

    p = sub.add_parser("classify", help="boundary shape classification")
    p.add_argument("graphfile")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("fiber-check", help="test contractibility to a 0-curve")
    p.add_argument("graphfile")
    p.set_defaults(fn=_cmd_fiber_check)

    p = sub.add_parser(
        "mumford", help="invariant factors of the plumbing boundary homology"
    )
    p.add_argument("graphfile")
    p.set_defaults(fn=_cmd_mumford)

    p = sub.add_parser("dot", help="emit Graphviz text")
    p.add_argument("graphfile")
    p.set_defaults(fn=_cmd_dot)

    arr = sub.add_parser("arr", help="arrangement file operations")
    arrsub = arr.add_subparsers(dest="arr_command", required=True)
    p = arrsub.add_parser("run", help="run a blow-up program, print the classes")
    p.add_argument("arrfile")
    p.set_defaults(fn=_cmd_arr_run)

    p = sub.add_parser("verify", help="run bundled verification scenarios")
    p.add_argument("target", choices=[*SCENARIO_NAMES, "cases", "all"])
    p.set_defaults(fn=_cmd_verify)
    return parser


def _internal_error(exc: Exception) -> int:
    """Report a defect in this package, not in the input, on one stderr line."""
    message = " ".join(str(exc).split())
    sys.stderr.write(f"internal error: {type(exc).__name__}: {message}\n")
    return 3


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvariantError as exc:
        return _internal_error(exc)
    except (SncalcError, OSError, KeyError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        return _internal_error(exc)


if __name__ == "__main__":
    sys.exit(main())
