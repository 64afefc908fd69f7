"""Seeded inputs, the operation under test and an answer oracle per workload.

Item ``i`` of a workload is built from ``random.Random(f"{name}:{seed}:{i}")``
alone, so ``(workload, seed, index)`` reproduces any input.  The package only
ever receives the generated text (graph or arrangement files) plus plain
integer vectors.  The oracles recompute every answer from how the input was
built and never call the package.

Importing this module imports ``sncalc``; the caller times that as set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass, field
from fractions import Fraction

from sncalc import calculus, cli, graphs, lattice, linalg, surgery
from sncalc.errors import ExcessIntersectionError

# sha256 of `sncalc verify all` stdout at the commit that defined this
# benchmark; the report is fixture-driven and byte-deterministic.
VERIFY_SHA256 = "9cae7772213935212915b3cb82189ed6fd1f4544088b70ffb29b93ce682182eb"

FORM_SIZES = (8, 14, 20)


@dataclass
class Item:
    index: int
    n: int  # input size: vertices, or blow-ups for lattice programs
    accept: bool  # the oracle's answer: True for "yes" (valid, definite, accepted)
    text: str = ""
    data: dict = field(default_factory=dict)


class Workload:
    name = ""
    sizes: tuple[int, ...] = ()  # input sizes that '.n<k>' layer metrics select
    extra_layers: dict[str, str] = {}  # per-layer metrics beyond BENCHMARK.json's

    def make(self, seed: int, index: int) -> Item:
        raise NotImplementedError

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, result) -> str | None:
        """None when the result is right, else what is wrong with it."""
        raise NotImplementedError


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _serialize_tree(weights, edges, order) -> str:
    lines = [f"vertex v{i} w={weights[i]}" for i in order]
    lines += [f"edge v{a} v{b}" for a, b in edges]
    return "\n".join(lines) + "\n"


# -- verify ---------------------------------------------------------------


class Verify(Workload):
    """`sncalc verify all` in process on the bundled fixtures."""

    name = "verify"

    def make(self, seed: int, index: int) -> Item:
        return Item(index, 0, True)

    def run(self, item: Item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "all"])
        return code, buf.getvalue()

    def check(self, item: Item, result) -> str | None:
        code, out = result
        if code != 0:
            return f"exit code {code}"
        if hashlib.sha256(out.encode()).hexdigest() != VERIFY_SHA256:
            return "report differs from the reference report"
        return None


# -- fibers ---------------------------------------------------------------


def grow_fiber(rng: random.Random, blowups: int):
    """A fiber grown from one 0-vertex by random blow-ups.

    Returns (weights, edges, mu) with the multiplicities tracked during
    growth: sprouting on v gives mu(v), subdividing a-b gives mu(a) + mu(b).
    """
    weights = [0]
    mu = [1]
    edges: list[tuple[int, int]] = []
    for _ in range(blowups):
        new = len(weights)
        if edges and rng.random() < 0.5:
            a, b = edges.pop(rng.randrange(len(edges)))
            edges += [(a, new), (b, new)]
            weights[a] -= 1
            weights[b] -= 1
            mu.append(mu[a] + mu[b])
        else:
            v = rng.randrange(new)
            edges.append((v, new))
            weights[v] -= 1
            mu.append(mu[v])
        weights.append(-1)
    return weights, edges, mu


class Fibers(Workload):
    """A fiber grown by 4..14 blow-ups (item 2k) followed by its single-weight
    +-1 perturbation (item 2k + 1), each parsed, tested and, if valid, given
    multiplicities.  The blow-up count cycles through 4..14, so every run
    has the same mix of sizes whatever the seed."""

    name = "fibers"

    def make(self, seed: int, index: int) -> Item:
        rng = _rng(self.name, seed, index // 2)
        weights, edges, mu = grow_fiber(rng, 4 + (index // 2) % 11)
        order = list(range(len(weights)))
        rng.shuffle(order)
        perturbed = index % 2 == 1
        if perturbed:
            # mu > 0, so -1 makes the form definite and +1 gives mu.Q.mu > 0:
            # neither is a fiber.
            weights = list(weights)
            weights[rng.randrange(len(weights))] += rng.choice((-1, 1))
        text = _serialize_tree(weights, edges, order)
        expected = None if perturbed else {f"v{i}": m for i, m in enumerate(mu)}
        return Item(index, len(weights), not perturbed, text, {"mu": expected})

    def run(self, item: Item):
        g = graphs.parse_graph(item.text)
        ok, trace = surgery.is_valid_fiber(g)
        if not ok:
            return False, None
        return True, surgery.fiber_multiplicities(g).multiplicities

    def check(self, item: Item, result) -> str | None:
        ok, mu = result
        if ok != item.accept:
            return f"valid={ok}, expected {item.accept}"
        if ok and mu != item.data["mu"]:
            return f"multiplicities {mu}, expected {item.data['mu']}"
        return None


# -- forms ----------------------------------------------------------------


def random_tree(rng: random.Random, n: int, definite: bool):
    """(weights, parent) of a tree on 0..n-1 with parent[i] < i.

    A definite tree has weight <= -degree everywhere and < -degree on
    leaves, so -Q is diagonally dominant and strictly so at the leaves.
    Otherwise weights are uniform in [-4, 0].
    """
    parent = [-1] + [rng.randrange(i) for i in range(1, n)]
    degree = [0] * n
    for i in range(1, n):
        degree[i] += 1
        degree[parent[i]] += 1
    if definite:
        weights = [-degree[i] - (degree[i] <= 1) - rng.randint(0, 2) for i in range(n)]
    else:
        weights = [rng.randint(-4, 0) for _ in range(n)]
    return weights, parent


def tree_form(weights, parent) -> tuple[Fraction, bool]:
    """det(-Q) and negative definiteness of a weighted tree in O(n).

    Leaves are eliminated towards the root (parent[i] < i), which is an
    LDL^T factorization of -Q in a symmetric order: Q is negative definite
    iff every pivot is positive.  A zero pivot at v couples only v and its
    parent p, a 2x2 block of determinant -1 whose Schur complement leaves
    the rest untouched, so both are dropped and the sign flips.
    """
    n = len(weights)
    value = [Fraction(-w) for w in weights]
    dropped = [False] * n
    det = Fraction(1)
    definite = True
    for v in range(n - 1, -1, -1):
        if dropped[v]:
            continue
        e = value[v]
        definite = definite and e > 0
        p = parent[v]
        if e == 0:
            if p < 0 or dropped[p]:
                return Fraction(0), False
            det = -det
            dropped[p] = True
            continue
        det *= e
        if p >= 0 and not dropped[p]:
            value[p] -= 1 / e
    return det, definite


def _matvec(q, x):
    return [sum(a * b for a, b in zip(row, x)) for row in q]


class Forms(Workload):
    """Trees with n in {8, 14, 20}, half definite by construction, through
    the exact linear-algebra layer: discriminant, Sylvester's test, the
    kernel and a solve when d != 0."""

    name = "forms"
    sizes = FORM_SIZES

    def make(self, seed: int, index: int) -> Item:
        rng = _rng(self.name, seed, index)
        n = FORM_SIZES[(index // 2) % len(FORM_SIZES)]
        weights, parent = random_tree(rng, n, definite=index % 2 == 0)
        order = list(range(n))
        rng.shuffle(order)
        edges = [(i, parent[i]) for i in range(1, n)]
        d, definite = tree_form(weights, parent)
        # Q and b in file order, which is the order the parsed graph keeps
        pos = {v: k for k, v in enumerate(order)}
        q = [[weights[v] if v == u else 0 for u in order] for v in order]
        for a, b in edges:
            q[pos[a]][pos[b]] = q[pos[b]][pos[a]] = 1
        rhs = [rng.randint(-3, 3) for _ in range(n)]
        text = _serialize_tree(weights, edges, order)
        return Item(index, n, definite, text, {"d": d, "q": q, "rhs": rhs})

    def run(self, item: Item):
        g = graphs.parse_graph(item.text)
        q = g.intersection_matrix()
        d = calculus.discriminant(g)
        definite = linalg.is_negative_definite(q)
        kernel = linalg.kernel_basis(q)
        x = linalg.solve_rational(q, item.data["rhs"]) if d != 0 else None
        return d, definite, kernel, x

    def check(self, item: Item, result) -> str | None:
        d, definite, kernel, x = result
        q = item.data["q"]
        if d != item.data["d"]:
            return f"d={d}, expected {item.data['d']}"
        if definite != item.accept:
            return f"definite={definite}, expected {item.accept}"
        if (not kernel) != (d != 0):
            return f"kernel of dimension {len(kernel)} with d={d}"
        if any(not any(v) or any(_matvec(q, v)) for v in kernel):
            return "kernel vector is zero or not in the kernel"
        if x is not None and _matvec(q, x) != item.data["rhs"]:
            return "solve_rational result fails Qx = b"
        return None


class Smith(Workload):
    """The forms trees through torsion_of_cokernel alone (the Smith form).

    Not listed in BENCHMARK.json: some definite trees stall the Smith form,
    so ops fail by the per-op time limit.  The stall is the measured defect.
    """

    name = "smith"
    sizes = FORM_SIZES
    extra_layers = {
        f"linalg.smith_normal_form.{metric}.n{n}": unit
        for metric, unit in (("self_ms", "ms"), ("transform_bits", "bits"))
        for n in FORM_SIZES
    }

    def make(self, seed: int, index: int) -> Item:
        return Forms().make(seed, index)  # the same trees as forms

    def run(self, item: Item):
        g = graphs.parse_graph(item.text)
        return linalg.torsion_of_cokernel(g.intersection_matrix())

    def check(self, item: Item, result) -> str | None:
        d = item.data["d"]
        if d != 0 and result.order != abs(d):
            return f"torsion order {result.order}, expected |d| = {abs(d)}"
        return None


# -- lattice --------------------------------------------------------------


def arrangement(rng: random.Random, n_lines: int, n_near: int, invalid: bool):
    """A pencil of lines through a blown-up point P, then `n_near`
    infinitely-near blow-ups spread at random over the lines, at most 3 on
    each.

    Returns (text, chains) with chains[line] the blow-up names on that line
    in order.  An invalid program blows up a point of two pencil lines after
    P, which they no longer share.
    """
    lines = [f"L{i}" for i in range(1, n_lines + 1)]
    steps = [f"curve {name} degree=1" for name in lines]
    steps.append(f"blowup P at {','.join(lines)}")
    lengths = dict.fromkeys(lines, 0)
    for _ in range(n_near):
        lengths[rng.choice([line for line in lines if lengths[line] < 3])] += 1
    chains: dict[str, list[str]] = {}
    for line in lines:
        chain: list[str] = []
        on_line = True
        for j in range(1, lengths[line] + 1):
            name = f"{line}e{j}"
            if not chain:
                centers = [line]
            elif on_line and rng.random() < 0.5:
                centers = [line, chain[-1]]
            else:
                centers = [chain[-1]]
                on_line = False
            steps.append(f"blowup {name} at {','.join(centers)}")
            chain.append(name)
        chains[line] = chain
    if invalid:
        a, b = rng.sample(lines, 2)
        steps.insert(rng.randint(len(lines) + 1, len(steps)), f"blowup X at {a},{b}")
    return "\n".join(steps) + "\n", chains


def _pair(a, b) -> int:
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


class Lattice(Workload):
    """Arrangement programs with pencils of 3..6 lines through run_program,
    the boundary's H1, the pencil ruling and the (-1)-classes orthogonal to
    it; one in four is invalid and must raise ExcessIntersectionError.  The
    pencil size and the number of infinitely-near blow-ups cycle, so every
    run has the same mix of sizes whatever the seed."""

    name = "lattice"

    def make(self, seed: int, index: int) -> Item:
        rng = _rng(self.name, seed, index)
        invalid = index % 4 == 3
        n_lines = 3 + (index // 4) % 4
        n_near = (index // 16) % (3 * n_lines + 1)
        text, chains = arrangement(rng, n_lines, n_near, invalid)
        blowups = 1 + sum(len(c) for c in chains.values()) + invalid
        names = list(chains) + ["P"] + [e for c in chains.values() for e in c]
        # P, the lines and every exceptional curve but the last on each line:
        # a star of chains, so an snc tree
        boundary = list(chains) + ["P"] + [e for c in chains.values() for e in c[:-1]]
        return Item(
            index, blowups, not invalid, text,
            {"chains": chains, "names": names, "boundary": boundary},
        )

    def run(self, item: Item):
        program = lattice.parse_arrangement(item.text)
        try:
            lat = lattice.run_program(program)
        except ExcessIntersectionError:
            return None
        boundary = item.data["boundary"]
        rank = item.n + 1
        fiber = (1, -1) + (0,) * (rank - 2)  # H - E_P; P is the first blow-up
        lattice.extract_boundary_graph(lat, boundary)
        lattice.h1_order(lat, boundary)
        ruling = lattice.ruling_decompose(lat, fiber, item.data["names"], boundary)
        classes = lattice.solve_curve_class(lat, [(fiber, 0), ("P", 0)], -1)
        return lat.rank, lat.pair("K", "K"), ruling.bookkeeping, fiber, classes

    def check(self, item: Item, result) -> str | None:
        if result is None:
            return None if not item.accept else "valid program was rejected"
        if not item.accept:
            return "invalid program was accepted"
        rank, k2, bk, fiber, classes = result
        if rank != 1 + item.n or k2 != 10 - rank:
            return f"rank {rank}, K^2 {k2} for {item.n} blow-ups"
        chains = item.data["chains"]
        expected_bk = (
            1,  # P is the one horizontal boundary curve
            sum(1 for c in chains.values() if not c),  # bare lines are whole fibers
            0,
            rank,
            len(item.data["boundary"]),
        )
        got = (bk.h, bk.nu, bk.sigma_excess, bk.b2_surface, bk.b2_boundary)
        if got != expected_bk:
            return f"ruling bookkeeping {got}, expected {expected_bk}"
        if bk.sigma_excess != bk.h + bk.nu + bk.b2_surface - bk.b2_boundary - 2:
            return "Fujita's count identity fails for the pencil ruling"
        # <H, E_P>-orthogonal classes live in span(e_2..e_n) with form -I, so
        # the (-1)-classes with C.K = -1 are exactly the unit vectors e_x.
        k = (-3,) + (1,) * (rank - 1)
        p = (0, 1) + (0,) * (rank - 2)
        for c in classes:
            if (_pair(c, c), _pair(c, k), _pair(c, fiber), _pair(c, p)) != (-1, -1, 0, 0):
                return f"class {c} violates C^2 = -1, C.K = -1 or a constraint"
        units = sorted(tuple(int(r == x) for r in range(rank)) for x in range(2, rank))
        if sorted(classes) != units:
            return f"{len(classes)} classes found, expected the {rank - 2} e_x"
        return None


WORKLOADS = {w.name: w for w in (Verify(), Fibers(), Forms(), Lattice(), Smith())}
