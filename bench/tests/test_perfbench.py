"""Tests of the benchmark itself: tracing, self time, checks and metric names.

Run from the repository root: python -m pytest -q bench/tests
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(REPO / "bench"), str(REPO / "src")]

import corpus  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
from leibniz_deform.algebra import validate  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
CHEAP = {
    "cohomology": corpus.Command("cohomology", "lambda6", ("--degree", "2")),
    "versal": corpus.Command("versal", "abelian1", ("--max-order", "12")),
    "massey": corpus.Command("massey", "abelian2"),
}


@pytest.fixture
def checkout(tmp_path):
    """A checkout root holding only the program's sources."""
    (tmp_path / "src").symlink_to(REPO / "src")
    return tmp_path


@pytest.fixture
def cheap_workloads(monkeypatch):
    """Each workload cut down to its cheapest command."""
    for name, command in CHEAP.items():
        assert command in corpus.WORKLOADS[name]
        monkeypatch.setitem(corpus.WORKLOADS, name, (command,))


def test_tracing_does_not_change_outputs(checkout):
    runner = harness.Runner(checkout, 0)
    for command in (CHEAP["cohomology"], CHEAP["versal"]):
        plain = runner.run(command)
        traced = runner.run(command, checkout / "trace.json")
        assert plain.error is None and traced.error is None
        assert traced.stdout == plain.stdout == corpus.golden(command)
        assert tracing.read_trace(checkout / "trace.json")["spans"]


def test_self_time_on_a_hand_built_span_tree():
    # a [0,10] has children b [1,4] and c [5,9]; c has child d [6,7].
    # e [20,25] calls itself: the inner e [21,23] is not counted inclusively twice.
    spans = [
        (0, None, "a", 0.0, 10.0, None),
        (1, 0, "b", 1.0, 4.0, None),
        (2, 0, "c", 5.0, 9.0, None),
        (3, 2, "d", 6.0, 7.0, None),
        (4, None, "e", 20.0, 25.0, None),
        (5, 4, "e", 21.0, 23.0, None),
    ]
    stats = tracing.layer_stats(spans)
    assert stats["a"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert stats["b"] == {"calls": 1, "s": 3.0, "self_s": 3.0}
    assert stats["c"] == {"calls": 1, "s": 4.0, "self_s": 3.0}
    assert stats["d"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert stats["e"] == {"calls": 2, "s": 5.0, "self_s": 5.0}


def test_recorder_nests_spans_and_reads_attributes():
    recorder = tracing.Recorder()
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    (i, i_parent, i_name, *_), (o, o_parent, o_name, *_) = sorted(recorder.spans, key=lambda s: s[2])
    assert (i_name, o_name, o_parent, i_parent) == ("inner", "outer", None, o)


def test_corrupted_golden_output_is_a_failure(checkout):
    golden = checkout / "golden"
    shutil.copytree(corpus.GOLDEN_DIR, golden)
    command = CHEAP["cohomology"]
    path = golden / f"{command.key}.json"
    path.write_bytes(path.read_bytes().replace(b'"dim_cocycles": 8', b'"dim_cocycles": 9'))
    assert harness.Runner(checkout, 0, golden).run(command).error is not None
    # a one-byte change that keeps the facts is caught on seed 0 too
    path.write_bytes(corpus.golden(command).replace(b"\n", b" \n", 1))
    assert harness.Runner(checkout, 0, golden).run(command).error is not None
    assert harness.Runner(checkout, 0).run(command).error is None


def test_paper_facts_are_checked_on_every_seed():
    command = CHEAP["cohomology"]
    doc = json.loads(corpus.golden(command))
    doc["dim_cocycles"], doc["dim_coboundaries"] = 9, 7
    altered = json.dumps(doc).encode()
    assert "facts" in corpus.check_output(command, 5, altered)
    assert corpus.check_output(command, 5, corpus.golden(command)) is None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_basis_change_keeps_a_leibniz_algebra(seed):
    for name, build in corpus.ALGEBRAS.items():
        alg = build()
        p = corpus.basis_change(seed, name, alg.dim)
        off = [(i, j) for i in range(alg.dim) for j in range(alg.dim) if p[i][j] != (i == j)]
        assert all(p[i][i] == 1 for i in range(alg.dim)) and len(off) == (alg.dim > 1)
        assert validate(corpus.conjugate(alg, p)) == []
    assert corpus.conjugate(corpus.h3(), corpus.basis_change(seed, "h3", 3)) != corpus.h3()
    assert corpus.basis_change(0, "h3", 3) == corpus.basis_change(0, "lambda6", 3)


def test_every_metric_is_reported_for_every_workload(checkout, cheap_workloads):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in corpus.WORKLOADS:
        outcomes, details = harness.trace(harness.Runner(checkout, 0), workload, 0)
        assert all(o.error is None for o in outcomes)
        assert {name: unit for name, (_, unit) in details["metrics"].items()} == units
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    outcomes, details = harness.measure(harness.Runner(checkout, 0), "versal", 0)
    assert all(o.error is None for o in outcomes)
    assert {name: unit for name, (_, unit) in details["metrics"].items()} == end_to_end
    assert [w["name"] for w in SPEC["workloads"]] == list(corpus.WORKLOADS)
