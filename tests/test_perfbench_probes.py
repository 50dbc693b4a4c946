"""perfbench's per-layer probes still name bindings the package has.

A probe whose binding is gone is skipped, so a rename would silently zero
its per-layer metric; this test reads `perfbench/layers.py` without writing
anything under `perfbench/` and pins which probes resolve.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# probes of dense kernels the package no longer has; every other probe must resolve
DEAD = {
    "crouzeix_lab.dense_small:eigh_batched",
    "crouzeix_lab.dense_small:eigvals_3x3",
    "crouzeix_lab.dense_small:schur_3x3",
    "crouzeix_lab.dense_small:holomorphic_calc",
}


@pytest.fixture
def layers(monkeypatch):
    """perfbench/layers.py as a module, imported without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    had_spans = "spans" in sys.modules
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)  # imports perfbench/spans.py as "spans"
        yield module
    finally:
        if not had_spans:
            sys.modules.pop("spans", None)


def test_only_the_known_dead_probes_fail_to_resolve(layers):
    targets = {probe.target for probe in layers.PROBES}
    assert DEAD <= targets
    assert "crouzeix_lab.region_certifier:q_sign_chain_check" in targets
    assert {probe.target for probe in layers.PROBES if probe.resolve() is None} == DEAD
