"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `criterion N: PASS/FAIL (...)` line; run with -s to see
the lines for passing tests.
"""
import math
import time

import numpy as np

from crouzeix_lab import dense_small
from crouzeix_lab.conformal_map import c_bracket, verify_fA_equals_cA
from crouzeix_lab.core_matrix import (
    MIRROR_Z,
    NormalizedParams,
    build_A,
    normalize,
    q_from_rho,
)
from crouzeix_lab.permutation_ext import PermSpec, verify_observation
from crouzeix_lab.ratio_search import coordinate_search, EllipseBoundary, worst_ratio_search
from crouzeix_lab.region_certifier import (
    _H_interval,
    _P3,
    _P4,
    _P5,
    _P9,
    certify,
    r1,
    r3,
    replay_proofs,
    sweep_grid,
)
from crouzeix_lab.similarity import (
    NormPolyP,
    build_X_critical,
    build_X_diagonalizing,
    build_X_smallr,
    build_X_strip,
    canonical_G,
    norm_from_P,
    psi,
)


def _line(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _raw_residuals(X):
    s, t, u, v, w = X.s, X.t, X.u, X.v, X.w
    xi = s * s + t * t + u * u + v * v + w * w
    res1 = 2 * t * u * v - (s * s * v * v - t * t + t * t * v * v + t * t * w * w - v * v)
    res2 = 2.5 * s * w - xi
    return abs(res1), abs(res2)


def test_criterion_1_full_sweep():
    t0 = time.time()
    s = sweep_grid(500, 500)
    dt = time.time() - t0
    ok = (s["total"] == 250000 and s["verdict_true"] == 250000
          and s["failures"] == [] and dt <= 60.0)
    _line(1, ok, f"{s['verdict_true']}/250000 verdicts true, "
                 f"worst product {s['worst_product']:.15f}, "
                 f"worst kappa {s['worst_kappa']:.15f}, {dt:.1f}s")


def test_criterion_2_closed_form_anchors():
    errs = []
    if abs(r1(2.0) - 2**-0.5) > 1e-10:
        errs.append(f"r1(2)={r1(2.0)!r}")
    if abs(r3(math.sqrt(2.0)) - 1.0) > 1e-12:
        errs.append(f"r3(sqrt2)={r3(math.sqrt(2.0))!r}")
    if abs(r3(2.0) - 2**-0.5) > 1e-12:
        errs.append(f"r3(2)={r3(2.0)!r}")
    worst_psi = 0.0
    for rho in (1.5, 2.0, 5.0, 10.0):
        y = rho + 1 / rho
        worst_psi = max(worst_psi, abs(psi(2.0, y) - (4 + rho**4) / (4 * rho**2)))
    if worst_psi > 1e-12:
        errs.append(f"psi(2,y) err {worst_psi:.2e}")
    # factorization of the norm polynomial in the small-r region
    rng = np.random.default_rng(101)
    worst_fac = 0.0
    done = 0
    while done < 200:
        rho = float(rng.uniform(1.05, 45.0))
        lo = 1.0 / math.sqrt(rho)
        hi = r1(rho)
        if hi <= lo * 1.001:
            continue
        r = float(rng.uniform(lo * 1.001, hi))
        done += 1
        q = q_from_rho(rho, r)
        pa = NormalizedParams(q, r)
        g = canonical_G(build_X_smallr(pa), pa)
        p = NormPolyP.from_G(g)
        root_a = (1 + q * q * r * r) / (4 * r**4)
        root_b = 4 * r**4 + q * q * r * r
        nsq = norm_from_P(g)
        worst_fac = max(
            worst_fac,
            abs(p.eval(root_a)) / (1 + root_a * root_a),
            abs(p.eval(root_b)) / (1 + root_b * root_b),
            abs(nsq - max(root_a, root_b)) / (1 + nsq),
        )
    if worst_fac > 1e-10:
        errs.append(f"factorization err {worst_fac:.2e}")
    _line(2, not errs, "; ".join(errs) if errs
          else f"anchors exact, psi err {worst_psi:.2e}, factorization err {worst_fac:.2e}")


def test_criterion_3_replay_chains():
    t0 = time.time()
    rep = replay_proofs()
    chain_ok = rep.all_passed
    # the five displayed interval bounds, each within 1%
    h_ok = True
    for pair, ref in [((16, 21), -2524), ((14, 16), -5167), ((12, 14), -274),
                      ((11, 12), -1994), ((10, 11), -721)]:
        if abs(_H_interval(*pair) - ref) > 0.01 * abs(ref):
            h_ok = False
    # F(2.96) > 0 with F' < 0 across [2.5, 3]
    ys = np.linspace(2.5, 3.0, 101)
    sroot = np.sqrt(ys * ys - 4.0)
    fprime = (122.0 * ys - 75.0 * sroot - 75.0 * ys * ys / sroot) / 200.0
    f_numer = 61 * 2.96**2 - 75 * 2.96 * math.sqrt(2.96**2 - 4) - 50
    f_ok = f_numer > 0 and float(fprime.max()) < 0
    # exact integer identity p4^2 - p5^2 p3 = t^2 (2t-1)^2 (1-3t^2)^2 p9
    def conv(a, b):
        return list(np.convolve(np.array(a, dtype=object), np.array(b, dtype=object)))

    def sub(a, b):
        n = max(len(a), len(b))
        out = [0] * n
        for i, v in enumerate(a):
            out[i] += v
        for i, v in enumerate(b):
            out[i] -= v
        while out and out[-1] == 0:
            out.pop()
        return out

    p8_direct = sub(conv(_P4, _P4), conv(conv(_P5, _P5), _P3))
    prefactor = conv(conv([0, 0, 1], conv([-1, 2], [-1, 2])), conv([1, 0, -3], [1, 0, -3]))
    p8_factored = conv(prefactor, list(_P9))
    p8_ok = p8_direct == p8_factored
    dt = time.time() - t0
    ok = chain_ok and h_ok and f_ok and p8_ok and dt <= 30.0
    _line(3, ok, f"chains={chain_ok} H_table_1pct={h_ok} F_sign={f_ok} "
                 f"p8_exact={p8_ok} {dt:.1f}s")


def test_criterion_4_scalar_brackets():
    errs = []
    for rho in (1.1, 1.5, 2.0, 5.0, 10.0, 50.0):
        first_n = None
        for n in range(1, 501):
            if c_bracket(rho, n).width < 1e-12:
                first_n = n
                break
        if first_n is None:
            errs.append(f"rho={rho}: no width < 1e-12 in 500 factors")
            continue
        prev = c_bracket(rho, 0)
        if prev.upper > 2.0 / rho + 1e-16:
            errs.append(f"rho={rho}: zeroth upper above 2/rho")
        for n in range(1, 9):
            br = c_bracket(rho, n)
            if br.lower < prev.lower - 1e-16 or br.upper > prev.upper + 1e-16:
                errs.append(f"rho={rho}: bracket {n} not nested")
            if br.upper > 2.0 / rho + 1e-16:
                errs.append(f"rho={rho}: upper above 2/rho at n={n}")
            prev = br
        final = c_bracket(rho, first_n)
        if rho >= math.sqrt(2.0):
            envelope = 2.0 / (rho * math.sqrt(1.0 + 4.0 / rho**4))
            if final.upper > envelope:
                errs.append(f"rho={rho}: upper {final.upper!r} above envelope {envelope!r}")
        for r in (1.0, (1.0 / math.sqrt(rho) + 1.0) / 2.0):
            res = verify_fA_equals_cA(rho, r)
            if res > 1e-10:
                errs.append(f"rho={rho}, r={r}: |f(A) - cA| = {res:.2e}")
    _line(4, not errs, "; ".join(errs) if errs else "brackets nested, converged, enveloped")


def test_criterion_5_similarity_families():
    rng = np.random.default_rng(202)
    inset = 1 / math.sqrt(2) + 0.005

    def gen_smallr():
        rho = 1.0 + 49.0 * rng.random()
        lo = 1 / math.sqrt(rho) + 1e-6
        hi = r1(rho) - 1e-9
        if hi <= lo:
            return None
        r = lo + (hi - lo) * rng.random()
        return build_X_smallr(NormalizedParams(q_from_rho(rho, r), r))

    def gen_strip():
        return build_X_strip(0.75 + 0.02 * rng.random())

    def gen_diag():
        rho = 1.0 + rng.random()
        r = inset + (1.0 - inset) * rng.random()
        x = r * r + 1 / (r * r)
        y = rho + 1 / rho
        if 2 * y * y > x * x + 2.5 * x or r * r * rho <= 1.0:
            return None
        return build_X_diagonalizing(NormalizedParams(q_from_rho(rho, r), r))

    def gen_crit():
        rho = 1.0 + 49.0 * rng.random()
        r = inset + (1.0 - inset) * rng.random()
        if r * r * rho <= 1.0:
            return None
        return build_X_critical(NormalizedParams(q_from_rho(rho, r), r))

    report = []
    ok = True
    for name, gen in (("smallr", gen_smallr), ("strip", gen_strip),
                      ("diagonalizing", gen_diag), ("critical", gen_crit)):
        worst_k = worst_r1 = worst_r2 = 0.0
        done = 0
        while done < 10000:
            X = gen()
            if X is None:
                continue
            done += 1
            worst_k = max(worst_k, abs(dense_small.condition_number(X.matrix()) - 2.0))
            a, b = _raw_residuals(X)
            worst_r1 = max(worst_r1, a)
            worst_r2 = max(worst_r2, b)
        ok = ok and worst_k <= 1e-9 and worst_r1 <= 1e-10 and worst_r2 <= 1e-10
        report.append(f"{name}: dk={worst_k:.1e} res=({worst_r1:.1e},{worst_r2:.1e})")
    _line(5, ok, "; ".join(report))


def test_criterion_6_ratio_search_certified_points():
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst = 0.0
    for k in range(100):
        rho = float(rng.uniform(1.05, 50.0))
        r = float(rng.uniform(1.0 / math.sqrt(rho) + 1e-6, 1.0))
        assert certify(rho, r).verdict
        res = worst_ratio_search(rho, r, 8, 500, seed=k)
        worst = max(worst, res.best_ratio)
    normal = coordinate_search(np.diag([1.0, 0.0, -1.0]).astype(complex),
                               EllipseBoundary(2.0), 8, 500, 0)
    dt = time.time() - t0
    ok = worst <= 2.0 + 1e-6 and normal.best_ratio <= 1.0 + 1e-9 and dt <= 300.0
    _line(6, ok, f"worst searched ratio {worst:.9f}, "
                 f"normal-matrix ratio {normal.best_ratio:.12f}, {dt:.0f}s")


def test_criterion_7_normalization_roundtrips():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        q = float(rng.uniform(0.05, 3.0))
        r = float(rng.uniform(0.15, 1.0))
        A = build_A(q, r)
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        U, _ = np.linalg.qr(z)
        c = complex(rng.normal(), rng.normal())
        while abs(c) < 0.2:
            c = complex(rng.normal(), rng.normal())
        d = complex(rng.normal(), rng.normal())
        rec = normalize(c * (U @ A @ U.conj().T) + d * np.eye(3))
        worst = max(worst, abs(rec.params.q - q), abs(rec.params.r - r))
    worst_mirror = 0.0
    for _ in range(200):
        q = float(rng.uniform(0.05, 2.0))
        r = float(rng.uniform(0.3, 0.98))
        rp = 1.0 / r
        Arp = np.array(
            [[1.0, q / rp, rp * rp - 1 / (rp * rp)], [0, 0, q * rp], [0, 0, -1.0]],
            dtype=complex,
        )
        identity_gap = np.abs(MIRROR_Z @ Arp @ MIRROR_Z.T - (-build_A(q, r).conj().T)).max()
        rec = normalize(Arp)
        mirror_err = max(abs(rec.params.q - q), abs(rec.params.r - r),
                         0.0 if rec.mirrored else math.inf)
        worst_mirror = max(worst_mirror, identity_gap, mirror_err)
    ok = worst < 1e-8 and worst_mirror < 1e-12
    _line(7, ok, f"roundtrip worst {worst:.2e}, mirrored worst {worst_mirror:.2e}")


def test_criterion_8_permutation_observation():
    t0 = time.time()
    rng = np.random.default_rng(505)
    worst_re = worst_in = worst_bn = worst_ra = 0.0
    all_pass = True
    for trial in range(500):
        n = int(rng.integers(1, 9))
        perm = tuple(rng.permutation(n).tolist())
        mod = np.exp(rng.uniform(math.log(0.5), math.log(2.0), n))
        d = mod * np.exp(2j * math.pi * rng.uniform(0, 1, n))
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) if trial % 3 else 0
        rep = verify_observation(a, d, PermSpec(n, perm), 4, 60, seed=trial)
        all_pass = all_pass and rep.passed
        worst_re = max(worst_re, rep.reassembly_residual)
        worst_in = max(worst_in, rep.inclusion_worst)
        worst_bn = max(worst_bn, rep.block_norm_worst)
        worst_ra = max(worst_ra, rep.ratio.best_ratio)
    dt = time.time() - t0
    ok = (all_pass and worst_re <= 1e-12 and worst_in <= 1e-9
          and worst_bn <= 1e-10 and worst_ra <= 2.0 + 1e-6)
    _line(8, ok, f"500 draws, reassembly {worst_re:.1e}, inclusion {worst_in:.1e}, "
                 f"block-norm {worst_bn:.1e}, ratio {worst_ra:.6f}, {dt:.0f}s")
