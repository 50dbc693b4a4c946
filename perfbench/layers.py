"""Per-layer probes and the per-layer metrics derived from their spans.

Each probe rebinds a public name where its callers look it up: the
certifier's similarity builders in `region_certifier`, `certify` in both
`region_certifier` and `cli`, the dense kernels in `dense_small` (which every
module calls through the module object), and the search's boundary maximum
on the `EllipseBoundary` class.  The benchmark's own calls go through the
module objects too, so `normalize`, `mu_rho`, `c_bracket`, `replay_proofs`,
`verify_observation` and `cli.main` are timed where the workloads call them.
"""

from __future__ import annotations

from spans import Probe, Tracer

_PKG = "crouzeix_lab"
SIMILARITY = (
    "build_X_smallr",
    "build_X_strip",
    "build_X_diagonalizing",
    "build_X_critical",
    "singular_spectrum",
    "canonical_G",
    "norm_from_P",
    "check_mu_bound",
    "psi",
)
REGIONS = ("SmallR", "Strip", "Diagonalizable", "LargeRhoR")
CONFORMAL = ("c_upper_closed", "c_bracket", "verify_fA_equals_cA", "eval_f")
DENSE = ("eval_poly", "eigvals_3x3", "schur_3x3", "holomorphic_calc")


def _region(args, cert):
    return cert.region.value


def _norm_path(args, result):
    return "closed" if len(args[0]) <= 3 else "power"


def _perm_size(args, report):
    return "small_n" if report.n <= 3 else "large_n"


def _batch(args, result):
    shape = getattr(args[0], "shape", ())
    count = 1
    for k in shape[:-2]:
        count *= k
    return count


def _evaluations(args, result):
    return result.evaluations


def _probes() -> tuple:
    rc, cm, ds = f"{_PKG}.region_certifier", f"{_PKG}.conformal_map", f"{_PKG}.dense_small"
    probes = [
        Probe(f"{rc}:certify", "certify", tag=_region),
        Probe(f"{_PKG}.cli:certify", "certify", tag=_region),
        Probe(f"{rc}:replay_proofs", "replay_proofs"),
        Probe(f"{rc}:c_upper_closed", "c_upper_closed"),
        Probe(f"{rc}:q_sign_chain_check", "q_sign_chain_check"),
        Probe(f"{cm}:c_bracket", "c_bracket"),
        Probe(f"{cm}:verify_fA_equals_cA", "verify_fA_equals_cA"),
        Probe(f"{cm}:eval_f", "eval_f"),
        Probe(f"{_PKG}.core_matrix:normalize", "normalize"),
        Probe(f"{_PKG}.core_matrix:mu_rho", "mu_rho"),
        Probe(f"{ds}:eigh_batched", "eigh_batched", work=_batch),
        Probe(f"{ds}:support_function_grid", "support_function_grid"),
        Probe(f"{ds}:operator_norm", "operator_norm", tag=_norm_path),
        Probe(f"{_PKG}.ratio_search:EllipseBoundary.max_abs_poly", "max_abs_poly"),
        Probe(f"{_PKG}.ratio_search:coordinate_search", "coordinate_search", work=_evaluations),
        Probe(f"{_PKG}.permutation_ext:coordinate_search", "coordinate_search", work=_evaluations),
        Probe(f"{_PKG}.permutation_ext:verify_observation", "verify_observation", tag=_perm_size),
        Probe(f"{_PKG}.permutation_ext:cycle_decompose", "cycle_decompose"),
        Probe(f"{_PKG}.cli:main", "sweep"),
    ]
    probes += [Probe(f"{rc}:{name}", name) for name in SIMILARITY]
    probes += [Probe(f"{ds}:{name}", name) for name in DENSE]
    return tuple(probes)


PROBES = _probes()


def _table() -> tuple:
    """(metric name, unit) of every per-layer metric, in report order."""
    t = [
        ("region_certifier.certify.calls", "count/op"),
        ("region_certifier.certify.us_per_call", "us"),
        ("region_certifier.certify.self_us_per_call", "us"),
    ]
    for region in REGIONS:
        t += [(f"region_certifier.certify.{region}.calls", "count/op"),
              (f"region_certifier.certify.{region}.us_per_call", "us")]
    t += [("region_certifier.r1.hit_ratio", "ratio"), ("region_certifier.replay_proofs.s", "s")]
    for name in SIMILARITY:
        t += [(f"similarity.{name}.calls", "count/op"), (f"similarity.{name}.us_per_call", "us")]
    t.append(("similarity.share_of_certify", "ratio"))
    for name in CONFORMAL:
        t += [(f"conformal_map.{name}.calls", "count/op"), (f"conformal_map.{name}.us_per_call", "us")]
    t.append(("conformal_map.q_sign_chain_check.s", "s"))
    t += [
        ("core_matrix.normalize.calls", "count/op"),
        ("core_matrix.normalize.us_per_call", "us"),
        ("core_matrix.normalize.self_us_per_call", "us"),
        ("core_matrix.mu_rho.us_per_call", "us"),
        ("dense_small.eigh_batched.calls", "count/op"),
        ("dense_small.eigh_batched.matrices", "count/op"),
        ("dense_small.eigh_batched.us_per_call", "us"),
        ("dense_small.support_function_grid.us_per_call", "us"),
    ]
    for path in ("closed", "power"):
        t += [(f"dense_small.operator_norm.{path}.calls", "count/op"),
              (f"dense_small.operator_norm.{path}.us_per_call", "us")]
    for name in DENSE:
        t += [(f"dense_small.{name}.calls", "count/op"), (f"dense_small.{name}.us_per_call", "us")]
    t += [
        ("ratio_search.max_abs_poly.calls", "count/op"),
        ("ratio_search.max_abs_poly.us_per_call", "us"),
        ("ratio_search.max_abs_poly.share_of_op", "ratio"),
        ("ratio_search.coordinate_search.evaluations", "count/op"),
        ("ratio_search.coordinate_search.evals_per_s", "1/s"),
        ("ratio_search.coordinate_search.self_share", "ratio"),
        ("permutation_ext.verify_observation.ms_per_call", "ms"),
        ("permutation_ext.verify_observation.self_ms_per_call", "ms"),
        ("permutation_ext.verify_observation.small_n.ms_per_call", "ms"),
        ("permutation_ext.verify_observation.large_n.ms_per_call", "ms"),
        ("permutation_ext.cycle_decompose.us_per_call", "us"),
        ("cli.sweep.self_us_per_cert", "us"),
        ("cli.sweep.bytes_per_cert", "B"),
        ("trace.ops", "count"),
        ("trace.traced_ops_per_s", "1/s"),
        ("trace.untraced_ops_per_s", "1/s"),
        ("trace.overhead", "ratio"),
    ]
    return tuple(t)


METRICS = _table()


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, *, r1_hits: int, r1_misses: int, certs: int,
                  csv_bytes: int, untraced_ops_per_s: float, traced_ops_per_s: float) -> dict:
    """Every per-layer metric from a traced phase's span totals and counts.

    Call and work counts are per traced operation, so they do not grow with
    the speed of the program.  A layer that the workload never enters
    reports zero calls and zero time.
    """
    st = tracer.stat
    ops = st("op").calls
    m = {}

    def calls(key, name):
        m[key] = _div(st(name).calls, ops)

    def per_call(key, name, scale=1e6, field="total"):
        s = st(name)
        m[key] = _div(getattr(s, field), s.calls) * scale

    cert = st("certify")
    calls("region_certifier.certify.calls", "certify")
    per_call("region_certifier.certify.us_per_call", "certify")
    per_call("region_certifier.certify.self_us_per_call", "certify", field="self")
    for region in REGIONS:
        calls(f"region_certifier.certify.{region}.calls", f"certify.{region}")
        per_call(f"region_certifier.certify.{region}.us_per_call", f"certify.{region}")
    m["region_certifier.r1.hit_ratio"] = _div(r1_hits, r1_hits + r1_misses)
    per_call("region_certifier.replay_proofs.s", "replay_proofs", 1.0)
    for name in SIMILARITY:
        calls(f"similarity.{name}.calls", name)
        per_call(f"similarity.{name}.us_per_call", name)
    m["similarity.share_of_certify"] = _div(sum(st(n).total for n in SIMILARITY), cert.total)
    for name in CONFORMAL:
        calls(f"conformal_map.{name}.calls", name)
        per_call(f"conformal_map.{name}.us_per_call", name)
    per_call("conformal_map.q_sign_chain_check.s", "q_sign_chain_check", 1.0)
    calls("core_matrix.normalize.calls", "normalize")
    per_call("core_matrix.normalize.us_per_call", "normalize")
    per_call("core_matrix.normalize.self_us_per_call", "normalize", field="self")
    per_call("core_matrix.mu_rho.us_per_call", "mu_rho")
    calls("dense_small.eigh_batched.calls", "eigh_batched")
    m["dense_small.eigh_batched.matrices"] = _div(st("eigh_batched").work, ops)
    per_call("dense_small.eigh_batched.us_per_call", "eigh_batched")
    per_call("dense_small.support_function_grid.us_per_call", "support_function_grid")
    for path in ("closed", "power"):
        calls(f"dense_small.operator_norm.{path}.calls", f"operator_norm.{path}")
        per_call(f"dense_small.operator_norm.{path}.us_per_call", f"operator_norm.{path}")
    for name in DENSE:
        calls(f"dense_small.{name}.calls", name)
        per_call(f"dense_small.{name}.us_per_call", name)
    search = st("coordinate_search")
    calls("ratio_search.max_abs_poly.calls", "max_abs_poly")
    per_call("ratio_search.max_abs_poly.us_per_call", "max_abs_poly")
    m["ratio_search.max_abs_poly.share_of_op"] = _div(st("max_abs_poly").total, st("op").total)
    m["ratio_search.coordinate_search.evaluations"] = _div(search.work, ops)
    m["ratio_search.coordinate_search.evals_per_s"] = _div(search.work, search.total)
    m["ratio_search.coordinate_search.self_share"] = _div(search.self, search.total)
    per_call("permutation_ext.verify_observation.ms_per_call", "verify_observation", 1e3)
    per_call("permutation_ext.verify_observation.self_ms_per_call", "verify_observation", 1e3, "self")
    for size in ("small_n", "large_n"):
        per_call(f"permutation_ext.verify_observation.{size}.ms_per_call",
                 f"verify_observation.{size}", 1e3)
    per_call("permutation_ext.cycle_decompose.us_per_call", "cycle_decompose")
    m["cli.sweep.self_us_per_cert"] = _div(st("sweep").self, certs) * 1e6
    m["cli.sweep.bytes_per_cert"] = _div(csv_bytes, certs)
    m["trace.ops"] = ops
    m["trace.traced_ops_per_s"] = traced_ops_per_s
    m["trace.untraced_ops_per_s"] = untraced_ops_per_s
    m["trace.overhead"] = _div(untraced_ops_per_s, traced_ops_per_s)
    return m
