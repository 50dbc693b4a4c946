"""Tests of the benchmark itself: seeded inputs, span arithmetic, probe bindings.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import layers  # noqa: E402
import spans as spans_mod  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NAME, Probe, Tracer, self_times  # noqa: E402

from crouzeix_lab import ratio_search, region_certifier  # noqa: E402
from crouzeix_lab.errors import DomainError  # noqa: E402


def _key(item):
    """A comparable form of one generated input."""
    if isinstance(item, workloads.MatrixInput):
        return (item.B.tobytes(), item.q, item.r, item.mirrored)
    return repr(item)


def _first(name, seed, n=16):
    return [_key(x) for x in itertools.islice(workloads.WORKLOADS[name].inputs(seed), n)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    assert _first(name, 7) == _first(name, 7)
    assert _first(name, 7) != _first(name, 8)


def test_domain_points_are_admissible_and_cover_the_plane():
    pts = [workloads.domain_point(u, v, 1e-4) for u, v in workloads._latin(np.random.default_rng(0))]
    assert all(1.05 <= rho <= 50.0 + 1e-12 and 1.0 / rho**0.5 < r <= 1.0 for rho, r in pts)
    assert workloads.domain_point(0.0, 0.0, 0.0) == pytest.approx((50.0, 1.0))
    assert workloads.domain_point(1.0 - 1e-15, 0.5, 0.0)[0] == pytest.approx(1.05)


def test_self_time_subtracts_direct_children_only():
    # op [0, 10] > a [1, 6] > b [2, 4]; op > c [7, 9]
    spans = [
        ["op", 0.0, 10.0, None, None, 0],
        ["a", 1.0, 6.0, 0, None, 0],
        ["b", 2.0, 4.0, 1, None, 0],
        ["c", 7.0, 9.0, 0, None, 0],
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]


def test_tracer_folds_nested_spans_and_tags(monkeypatch):
    clock = iter([0.0, 1.0, 2.0, 4.0, 6.0, 10.0])
    monkeypatch.setattr(spans_mod, "_perf", lambda: next(clock))
    tracer = Tracer()
    outer = tracer._open("op")
    mid = tracer._open("a")
    tracer._close(tracer._open("b"))
    tracer._close(mid)
    tracer.spans[mid][spans_mod.TAG] = "x"
    tracer._close(outer)
    tracer.end_op()
    assert [tracer.stat(n).calls for n in ("op", "a", "a.x", "b")] == [1, 1, 1, 1]
    assert tracer.stat("op").self == 5.0 and tracer.stat("op").total == 10.0
    assert tracer.stat("a").self == 3.0 and tracer.stat("a.x").total == 5.0
    assert tracer.spans == [] and tracer.stack == []


def _bindings():
    found = {}
    for probe in layers.PROBES:
        owner, attr = probe.resolve()
        found[probe.target] = vars(owner)[attr]
    return found


def test_probes_all_resolve_and_are_restored():
    before = _bindings()
    tracer = Tracer()
    with tracer.installed(layers.PROBES):
        during = _bindings()
        assert all(during[t] is not before[t] for t in before)
        ratio_search.worst_ratio_search(3.0, 0.8, 2, 5, seed=0)
        region_certifier.certify(3.0, 0.8)
        tracer.end_op()
    assert _bindings() == before
    assert tracer.missing == []
    assert tracer.stat("max_abs_poly").calls >= 5
    assert tracer.stat("certify").calls == 1


def test_bindings_restored_when_the_block_raises():
    before = _bindings()
    tracer = Tracer()
    with pytest.raises(DomainError):
        with tracer.installed(layers.PROBES):
            region_certifier.certify(0.5, 0.5)
    assert _bindings() == before
    assert tracer.stack == []


def test_missing_probe_reports_zero_calls():
    tracer = Tracer()
    probes = (Probe("crouzeix_lab.region_certifier:no_such_function", "gone"),
              Probe("crouzeix_lab.no_such_module:f", "gone_too"),
              Probe("crouzeix_lab.ratio_search:NoSuchClass.method", "gone_three"))
    with tracer.installed(probes):
        region_certifier.certify(3.0, 0.8)
    assert len(tracer.missing) == 3
    assert tracer.stat("gone").calls == 0
    metrics = layers.layer_metrics(tracer, r1_hits=0, r1_misses=0, certs=0, csv_bytes=0,
                                   untraced_ops_per_s=0.0, traced_ops_per_s=0.0)
    assert metrics["region_certifier.certify.calls"] == 0


def test_metric_tables_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.METRICS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    empty = layers.layer_metrics(Tracer(), r1_hits=0, r1_misses=0, certs=0, csv_bytes=0,
                                 untraced_ops_per_s=0.0, traced_ops_per_s=0.0)
    assert list(empty) == [name for name, _ in layers.METRICS]


@pytest.mark.parametrize("name", ["plane", "perm", "matrix"])
def test_first_operation_passes_its_checks(name):
    workloads.OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name]
    inp = wl.first_input()
    assert wl.check(inp, wl.op(inp)).failures == ()


def test_tracing_leaves_results_unchanged():
    wl = workloads.WORKLOADS["matrix"]
    inputs = list(itertools.islice(wl.inputs(3), 8))
    plain = [wl.check(x, wl.op(x)).fingerprint for x in inputs]
    tracer = Tracer()
    with tracer.installed(layers.PROBES):
        traced = [wl.check(x, wl.op(x)).fingerprint for x in inputs]
    assert plain == traced
    assert tracer.spans and tracer.spans[0][NAME] == "normalize"
