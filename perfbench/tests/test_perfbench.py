"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE_SEED = 0


@pytest.fixture
def work():
    path = run.ROOT / ".perfbench_work" / f"test-{os.getpid()}"
    yield path
    os.chdir(run.ROOT)
    shutil.rmtree(path, ignore_errors=True)


def _documents(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name, work):
    first = run.setup(name, 7, work)
    first_docs = _documents(work)
    second = run.setup(name, 7, work)
    assert second.workload == first.workload
    assert _documents(work) == first_docs
    other = run.setup(name, 8, work)
    assert other.workload.ops != first.workload.ops or _documents(work) != first_docs
    counts = {}
    for op in first.workload.ops:
        counts[op.cls] = counts.get(op.cls, 0) + 1
    assert counts == workloads.class_counts(name)


def _traced_counts(name, work):
    runner, metrics = run.trace(name, REFERENCE_SEED, work)
    assert runner.reference is not None, "nothing recorded for the reference seed"
    assert runner.correct, runner.problems
    return {key: value for key, (value, unit) in metrics.items() if unit in ("count", "bytes")}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_layer_counts_repeat_and_match_the_record(name, work):
    first = _traced_counts(name, work)
    assert first == _traced_counts(name, work)
    assert first["axioms.checks"] > 0


def test_a_changed_invariant_makes_the_run_incorrect(work, monkeypatch):
    recorded = run.load_reference("rb-search", REFERENCE_SEED)
    changed = {**recorded, "invariants": {**recorded["invariants"], "search.hits": -1}}
    monkeypatch.setattr(run, "load_reference", lambda name, seed: changed)
    runner, metrics = run.trace("rb-search", REFERENCE_SEED, work)
    assert not runner.correct
    assert any("search.hits" in problem for problem in runner.problems)


def _algebra(doc):
    from homtwist.cli import from_document

    return from_document(doc)


def _same(a, b):
    from homtwist.cli import to_document

    first, second = to_document(a), to_document(b)
    first.pop("labels"), second.pop("labels")
    return first == second


def test_generated_twists_and_lifts_match_the_constructions():
    run.import_homtwist()
    from homtwist.constructions import matrix_algebra, yau_twist

    rng = random.Random(5)
    for layout, symbols in ((["T"], None), (["Q", "D"], ["a", "b"]), (["D", "Z1"], None)):
        dim, c, offsets = workloads._block_sum(rng, layout)
        params = ("a", "b") if symbols else ()
        zero_block = layout[-1].startswith("Z")
        rb = workloads._rb_annihilator(rng, layout, offsets, dim) if zero_block else None
        doc = workloads._document(dim, c, params, rb=rb)
        diag = workloads._twist_diagonal(rng, layout, symbols=symbols)
        twisted = workloads._yau_twisted(doc, diag)
        alpha = _algebra({**doc, "alpha": workloads._matrix(dim, diag)}).alpha
        assert _same(_algebra(twisted), yau_twist(_algebra(doc), alpha))
        for n in (2, 3):
            assert _same(_algebra(workloads._lift(twisted, n)),
                         matrix_algebra(_algebra(twisted), n))


def test_setup_sample_starts_a_ready_process(work):
    run.setup("rb-search", 1, work)
    seconds, problem = run.setup_sample("rb-search", 1, work / "sample", run.Speedometer())
    assert problem is None
    assert 0 < seconds < run.SETUP_TIMEOUT_S
    assert not (work / "sample").exists()


def test_known_defects_are_the_only_failures(work):
    runner = run.setup("symbolic", REFERENCE_SEED, work)
    for i in range(len(runner.workload.ops)):
        runner.run(i)
    assert runner.correct, runner.problems
    assert runner.failed == sum(op.defect is not None for op in runner.workload.ops) == 2


def _stdout(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert sys.modules["homtwist.cli"].main(argv) == 0
    return out.getvalue()


def test_search_agrees_with_oracle(work):
    runner = run.setup("rb-search", 3, work)
    ops = runner.workload.ops
    small = ([op for op in ops if op.cls == "dim1"][:4]
             + [op for op in ops if op.cls == "dim2"][:2])
    for op in small:
        argv = [arg for arg in op.argv if arg != "--verify"] + ["--json"]
        assert _stdout(argv) == _stdout(argv + ["--oracle"]), op.argv


def test_tracer_restores_every_original(work):
    run.setup("rb-search", 1, work)

    def snapshot():
        state = {}
        for mod in [m for n, m in sys.modules.items() if n.startswith("homtwist")]:
            for attr, value in vars(mod).items():
                state[(mod.__name__, attr)] = value
                if isinstance(value, type):
                    for key, member in vars(value).items():
                        state[(mod.__name__, attr, key)] = member
        return state

    before = snapshot()
    cli = sys.modules["homtwist.cli"]
    search = sys.modules["homtwist.search"]
    with Tracer().installed():
        assert cli.search_rb is not before[("homtwist.cli", "search_rb")]
        assert cli.search_rb is search.search_rb
        assert cli.main is not before[("homtwist.cli", "main")]
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_refuses_to_run_without_sources(work):
    bare = work / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "rb-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
