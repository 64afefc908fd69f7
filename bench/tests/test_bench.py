"""Tests of the benchmark itself: its generators, oracles and output.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as W  # noqa: E402
from sncalc.graphs import parse_graph  # noqa: E402
from sncalc.linalg import det_exact, is_negative_definite  # noqa: E402
from sncalc.surgery import is_valid_fiber  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_same_seed_gives_same_inputs():
    for name, wl in W.WORKLOADS.items():
        def inputs(seed):
            return [(x.text, x.n, x.accept) for x in (wl.make(seed, i) for i in range(24))]

        assert inputs(7) == inputs(7), name
        if name != "verify":
            assert inputs(7) != inputs(8), name


def test_no_perturbed_fiber_is_accepted():
    wl = W.WORKLOADS["fibers"]
    for i in range(1, 600, 2):
        item = wl.make(3, i)
        assert not item.accept
        ok, trace = is_valid_fiber(parse_graph(item.text))
        assert not ok and trace is None, item.text


def test_tree_oracle_agrees_with_exact_determinant():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(1, 12)
        weights, parent = W.random_tree(rng, n, rng.random() < 0.3)
        if rng.random() < 0.5:  # small weights reach the zero-pivot branch
            weights = [rng.randint(-3, 0) for _ in range(n)]
        q = [[weights[i] if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(1, n):
            q[i][parent[i]] = q[parent[i]][i] = 1
        d, definite = W.tree_form(weights, parent)
        assert d == det_exact([[-x for x in row] for row in q])
        assert definite == is_negative_definite(q)


def test_oracles_agree_with_the_package():
    samples = {"verify": range(1), "fibers": range(60), "forms": range(36),
               "lattice": range(60)}
    # n = 8 trees only: larger ones can stall the Smith form, the known defect
    samples["smith"] = [i for i in range(60) if W.FORM_SIZES[(i // 2) % 3] == 8]
    for name, indexes in samples.items():
        wl = W.WORKLOADS[name]
        for i in indexes:
            item = wl.make(5, i)
            assert wl.check(item, wl.run(item)) is None, (name, i)
    lattice = W.WORKLOADS["lattice"]
    assert any(not lattice.make(5, i).accept for i in range(8))


def test_oracles_catch_wrong_answers():
    fibers = W.WORKLOADS["fibers"]
    item = fibers.make(2, 0)
    ok, mu = fibers.run(item)
    assert fibers.check(item, (not ok, mu)) is not None
    assert fibers.check(item, (ok, {v: 2 * m for v, m in mu.items()})) is not None
    forms = W.WORKLOADS["forms"]
    item = forms.make(2, 0)
    d, definite, kernel, x = forms.run(item)
    assert forms.check(item, (d + 1, definite, kernel, x)) is not None
    assert forms.check(item, (d, not definite, kernel, x)) is not None
    lattice = W.WORKLOADS["lattice"]
    item = lattice.make(2, 80)  # five infinitely-near blow-ups
    rank, k2, bk, fiber, classes = lattice.run(item)
    assert len(classes) == 5
    assert lattice.check(item, (rank, k2, bk, fiber, classes[1:])) is not None
    assert lattice.check(item, None) is not None


def test_minimal_run_prints_every_metric_with_its_unit():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = _run("--workload", "lattice", "--seed", "1", "--seconds", "1",
                    "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
                   if not line.startswith("#")}
        if trace == 0:
            units.update(reject_p50_ms="ms", failed_frac="ratio")
        assert printed == units


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "fibers", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
