"""Region split, per-point certificates, sweeps, and the replayed sign chains."""
import json
import math

import numpy as np
import pytest

from crouzeix_lab import cli, dense_small, region_certifier
from crouzeix_lab.core_matrix import RhoParams
from crouzeix_lab.elementwise import CLAUSES
from crouzeix_lab.errors import DomainError
from crouzeix_lab.region_certifier import (
    Q_CHAIN_COEFFS,
    B_of,
    Certificate,
    F_of,
    RegionId,
    certify,
    certify_points,
    classify,
    figure2_data,
    open_grid,
    p_smallr,
    q_sign_chain_check,
    r1,
    r3,
    replay_proofs,
    sweep_grid,
    sweep_table,
)
from crouzeix_lab.region_certifier import _P3, _P4, _P5
from crouzeix_lab.similarity import psi

CHAIN_NAMES = (
    "q_chain", "strip_P", "p1_p2_p3_chain", "p4_p5_chain", "p6_p7",
    "p8_p9_chain", "B_sign", "F_sign", "Q_sign", "H_table",
)


class TestBoundaryCurves:
    def test_p_smallr_anchors(self):
        assert abs(p_smallr(1 / math.sqrt(2), 2.0)) < 1e-12
        # p(3^{-1/4}, rho) = 4(1 + 2 rho^2)/(3 rho^2), independent of the r^8 term
        for rho in (1.5, 2.0, 5.0, 10.0, 30.0):
            expect = 4 * (1 + 2 * rho**2) / (3 * rho**2)
            assert abs(p_smallr(3**-0.25, rho) - expect) < 1e-10 * expect

    def test_r1_anchors(self):
        assert abs(r1(2.0) - 1 / math.sqrt(2)) < 1e-12
        # r1(10)^4 solves 300 z^2 + 7901 z - 2600 = 0
        z = (-7901 + math.sqrt(7901**2 + 4 * 300 * 2600)) / 600
        assert abs(r1(10.0) - z**0.25) < 1e-12

    def test_r1_monotone_below_cap(self):
        rs = [r1(1.0 + 0.049 * k) for k in range(1, 1001)]
        assert all(b > a for a, b in zip(rs, rs[1:]))
        assert all(r < 3**-0.25 for r in rs)

    @pytest.mark.parametrize("rho", [1 + 1e-12, 1.05, math.sqrt(2), 2.0, 10.0, 16.0, 50.0,
                                     1e6, 1e100, 1e200, 1.7e308])
    def test_r1_within_two_ulps_of_the_50_digit_root(self, rho):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            R = mpmath.mpf(rho)
            b, c = 3 * R**2 + 16 + 4 / R**2, 4 + R**2
            exact = mpmath.findroot(lambda t: 12 * t**8 + b * t**4 - c, mpmath.mpf(0.75))
            assert abs(mpmath.mpf(r1(rho)) - exact) <= 2 * math.ulp(r1(rho))

    def test_r1_is_the_sign_change_of_p_smallr(self):
        for rho in np.geomspace(1.0 + 1e-9, 1e6, 400):
            rr = r1(float(rho))
            step = 4 * math.ulp(rr)
            assert p_smallr(rr - step, rho) < 0.0 < p_smallr(rr + step, rho), rho

    @pytest.mark.parametrize("rho", [math.inf, math.nan, 1.0, 0.5, -math.inf])
    def test_r1_domain(self, rho):
        with pytest.raises(DomainError, match="rho"):
            r1(rho)

    def test_r3_anchors(self):
        assert r3(math.sqrt(2.0)) == 1.0
        assert abs(r3(2.0) - 1 / math.sqrt(2)) < 1e-12
        assert r3(1.2) == 1.0

    def test_r3_non_increasing(self):
        vals = [r3(1.0001 + (2 - 1.0001) * k / 999) for k in range(1000)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_r3_domain(self):
        with pytest.raises(DomainError):
            r3(2.5)
        with pytest.raises(DomainError):
            r3(1.0)


class TestClassify:
    def test_anchor_points(self):
        assert classify(1.3, 0.95) is RegionId.DIAGONALIZABLE
        assert classify(10.0, 0.76) is RegionId.STRIP
        assert classify(3.0, 0.95) is RegionId.LARGE_RHO_R
        assert classify(3.0, 0.72) is RegionId.SMALL_R
        assert classify(1e200, 0.5) is RegionId.SMALL_R
        assert classify(0.9, 0.5) is RegionId.OUT_OF_DOMAIN
        assert classify(4.0, 0.5) is RegionId.OUT_OF_DOMAIN

    @pytest.mark.parametrize("rho, r", [
        (math.inf, 0.5), (math.inf, 1.0), (math.nan, 0.5), (-math.inf, 0.5), (2.0, math.nan), (2.0, math.inf),
    ])
    def test_non_finite_input_is_out_of_domain(self, rho, r):
        assert classify(rho, r) is RegionId.OUT_OF_DOMAIN
        with pytest.raises(DomainError, match="not in the admissible domain"):
            certify(rho, r)

    def test_knife_edge_point_is_out_of_domain(self, capsys):
        # r^2 rho > 1 holds here, but RhoParams's 1/sqrt(rho) < r does not
        rho, r = 3.9121992590362207, 0.5055795706555682
        assert classify(rho, r) is RegionId.OUT_OF_DOMAIN
        with pytest.raises(DomainError, match="not in the admissible domain"):
            certify(rho, r)
        assert cli.main(["verify", "--rho", repr(rho), "--r", repr(r)]) == cli.EXIT_DOMAIN
        assert "not in the admissible domain" in capsys.readouterr().err

    def test_in_domain_only_where_rho_params_accepts(self):
        # every classified point passes RhoParams, and an unclassified one
        # fails certify on the domain test, next to r = 1/sqrt(rho)
        rng = np.random.default_rng(11)
        for rho in rng.uniform(1.05, 50.0, 200).tolist():
            r = 1.0 / math.sqrt(rho)
            for _ in range(3):
                r = math.nextafter(r, 0.0)
            for _ in range(7):
                if classify(rho, r) is RegionId.OUT_OF_DOMAIN:
                    with pytest.raises(DomainError, match="not in the admissible domain"):
                        certify(rho, r)
                else:
                    RhoParams(rho, r)
                r = math.nextafter(r, 1.0)

    def test_large_rho_r_stays_right_of_sqrt_half(self):
        # the closed-norm certificate needs x <= 5/2, i.e. r >= 1/sqrt2
        for i in range(150):
            rho = 1.0 + 49.0 * (i + 1) / 150
            lo = 1 / math.sqrt(rho) + 1e-6
            for j in range(150):
                r = lo + (1 - lo) * (j + 1) / 150
                if classify(rho, r) is RegionId.LARGE_RHO_R:
                    assert r >= 1 / math.sqrt(2) - 1e-12


class TestCertify:
    def test_diagonalizable_point(self):
        c = certify(1.3, 0.95)
        assert c.region is RegionId.DIAGONALIZABLE
        assert c.verdict
        assert c.crouzeix_constant == 2.0
        assert c.c_upper == 0.0 and c.product == 0.0

    def test_strip_point(self):
        c = certify(10.0, 0.76)
        assert c.region is RegionId.STRIP and c.verdict

    def test_smallr_point(self):
        c = certify(3.0, 0.72)
        assert c.region is RegionId.SMALL_R and c.verdict
        assert c.product <= 1 + 1e-12

    def test_r_equal_one_product_is_one(self):
        # at r = 1 the closed envelope and psi multiply to exactly 1
        for rho in (1.6, 2.0, 3.7, 9.0, 42.0):
            c = certify(rho, 1.0)
            assert c.region is RegionId.LARGE_RHO_R
            assert abs(c.product - 1.0) < 1e-12
            assert c.verdict

    def test_kappa_matches_svd(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            rho = float(rng.uniform(1.02, 49.0))
            r = float(rng.uniform(1 / math.sqrt(rho) + 1e-5, 1.0))
            cert = certify(rho, r)
            ksvd = dense_small.condition_number(cert.X.matrix())
            assert abs(cert.kappa - ksvd) < 5e-9

    def test_out_of_domain_raises(self):
        with pytest.raises(DomainError):
            certify(4.0, 0.4)

    @pytest.mark.parametrize("rho", [1e20, 1e77, 3.1e77, 1e100, 1e150, 4e153, 1.3e154, 1e200, 1.7e308])
    def test_huge_rho_certifies_or_names_rho(self, rho):
        # squares of q-sized numbers overflow long before rho itself does:
        # every region either certifies or says which rho it cannot handle
        for r in (0.05, 0.5, 0.76, 0.9, 1.0):
            try:
                cert = certify(rho, r)
            except DomainError as exc:
                assert "rho" in str(exc)
            else:
                assert cert.verdict and math.isfinite(cert.product)

    def test_json_roundtrip(self):
        cert = certify(4.2, 0.9)
        back = Certificate.from_json(json.loads(json.dumps(cert.to_json())))
        assert back == cert

    def test_deterministic(self):
        assert certify(7.7, 0.83) == certify(7.7, 0.83)


class TestSweep:
    def test_small_grid_all_true(self):
        s = sweep_grid(60, 60)
        assert s["total"] == 3600
        assert s["verdict_true"] == 3600
        assert s["failures"] == []
        assert s["worst_product"] <= 1 + 1e-12
        assert s["worst_kappa"] <= 2 + 1e-9
        # every non-empty region shows up on a grid this size
        assert s["by_region"]["SmallR"] > 0
        assert s["by_region"]["LargeRhoR"] > 0
        assert s["by_region"]["Diagonalizable"] > 0

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            sweep_grid(0, 10)

    def test_points_without_a_certificate_count_and_fail(self):
        # q^2 overflows near the float maximum, so no point there is certified
        s = sweep_grid(2, 2, rho_min=1e76, rho_max=1.7e308)
        assert s["total"] == 4
        assert s["verdict_true"] == 0
        assert sum(s["by_region"].values()) == 0
        assert [f[2] for f in s["failures"]] == ["Uncertified"] * 4
        assert all("overflows" in f[3] for f in s["failures"])
        # an infinite rho_max puts the last row off the domain
        s = sweep_grid(1, 2, rho_min=2.0, rho_max=math.inf)
        assert s["total"] == 2
        assert [f[2:] for f in s["failures"]] == [("OutOfDomain", "outside admissible domain")] * 2

    def test_failures_match_the_cli_records(self, capsys):
        s = sweep_grid(2, 2, rho_min=1e76, rho_max=1.7e308)
        assert cli.main(["sweep", "--rho", "1e76", "1.7e308", "2", "--workers", "1", "--format", "json"]) == 1
        records = json.loads(capsys.readouterr().out)
        assert s["failures"] == [(rec["rho"], rec["r"], rec["region"], rec["failure_reason"]) for rec in records]

    def test_rho_grid_stays_inside_rho_max(self):
        # 1 + 6.3 * 41 / 41 rounds to 7.300000000000001 without the cap
        seen = sweep_table((1.0, 7.3, 41), (None, 1.0, 3)).rho.tolist()
        s = sweep_grid(41, 3, rho_min=1.0, rho_max=7.3)
        assert s["total"] == len(seen) == 41 * 3
        assert max(seen) == 7.3
        assert all(1.0 < rho <= 7.3 for rho in seen)

    def test_rows_with_rho_at_most_zero_are_empty(self):
        # nodes -0.5 and 2.0: the first row has no edge 1/sqrt(rho), and no admissible r
        s = sweep_grid(2, 2, rho_min=-3.0, rho_max=2.0)
        assert s["total"] == 2 and s["verdict_true"] == 2
        assert sweep_table((-1.0, 0.0, 2), (None, 1.0, 2)).rho.tolist() == []
        assert sweep_table((-1.0, 2.0, 3), (None, 1.0, 2)).rho.tolist() == [2.0, 2.0]


def _assert_matches_certify(rho, r):
    """certify_points agrees with certify at every point, floats by repr.

    A point that certify cannot certify must carry its DomainError text as
    "Uncertified", or "OutOfDomain" off the domain, with X null.
    """
    table = certify_points(rho, r)
    assert list(map(repr, table.rho.tolist())) == list(map(repr, rho))
    assert list(map(repr, table.r.tolist())) == list(map(repr, r))
    for rec, p, q in zip(table.records(), rho, r):
        try:
            want = certify(p, q).to_json()
        except DomainError as exc:
            outside = classify(p, q) is RegionId.OUT_OF_DOMAIN
            want = {"region": "OutOfDomain" if outside else "Uncertified",
                    "failure_reason": "outside admissible domain" if outside else str(exc)}
            assert ({k: rec[k] for k in want}, rec["X"]) == (want, None), (p, q)
            continue
        assert repr(rec) == repr(want), (p, q)


def _seeded_draw():
    """2,200 seeded points over the whole domain, at least 100 in each region."""
    rng = np.random.default_rng(1818)
    rho = np.concatenate([1.0 + 10.0 ** rng.uniform(-3, np.log10(59.0), 1600),   # all of (1, 60]
                          rng.uniform(10.0, 50.0, 300),                          # the strip's band
                          rng.uniform(1.0, 2.0, 300)])                           # diagonalizable
    lo = 1.0 / np.sqrt(rho)
    r = np.concatenate([lo[:1600] + (1.0 - lo[:1600]) * rng.uniform(0, 1, 1600),
                        rng.uniform(0.755, 0.775, 300),
                        lo[1900:] + (1.0 - lo[1900:]) * rng.uniform(0, 1, 300)])
    counts = {region.value: 0 for region in RegionId}
    for p, q in zip(rho.tolist(), r.tolist()):
        counts[classify(p, q).value] += 1
    assert min(counts[k] for k in ("SmallR", "Strip", "Diagonalizable", "LargeRhoR")) >= 100
    return rho.tolist(), r.tolist()


def _set_slack(monkeypatch, name, slack):
    monkeypatch.setitem(CLAUSES, name, CLAUSES[name]._replace(slack=slack))


def _ulps(x, n=3):
    """x and its n nearest floats on either side."""
    out = [x]
    for _ in range(n):
        out = [math.nextafter(out[0], -math.inf)] + out + [math.nextafter(out[-1], math.inf)]
    return out


class TestArraySweep:
    def test_seeded_draw_matches_certify(self):
        _assert_matches_certify(*_seeded_draw())

    def test_failed_verdicts_carry_certifys_failure_reason(self, monkeypatch):
        # with no tolerance and no mu bound every verdict fails: SmallR and
        # Strip on mu, LargeRhoR on the product, Diagonalizable on kappa
        _set_slack(monkeypatch, "product", -1.0)
        _set_slack(monkeypatch, "kappa", -1.0)
        monkeypatch.setattr(region_certifier, "check_mu_bound",
                            lambda g, mu: np.zeros(mu.shape, dtype=bool) if isinstance(mu, np.ndarray) else False)
        rho, r = _seeded_draw()
        table = certify_points(rho, r)
        assert not table.verdict.any()
        assert table.failure == [certify(p, q).failure_reason for p, q in zip(rho, r)]
        kinds = {text.split(" = ")[0] for text in table.failure}
        assert kinds == {"||G|| bound mu", "product", "kappa"}

    def test_domain_edges_match_certify(self):
        rng = np.random.default_rng(1819)
        pts = []
        for p in rng.uniform(1.05, 50.0, 12).tolist():
            pts += [(p, q) for q in _ulps(1.0 / math.sqrt(p)) + _ulps(1.0)]
        for p in _ulps(1.0) + [1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6]:
            pts += [(p, q) for q in _ulps(1.0) + [0.9999995, 0.99]]
        for p in _ulps(math.sqrt(2.0)):
            pts += [(p, q) for q in (1.0, 0.95, 0.9, 0.85)]
        for p in _ulps(10.0):
            pts += [(p, q) for q in _ulps(0.77) + [0.765, 0.5, 0.9]]
        for p in rng.uniform(10.0, 50.0, 6).tolist():
            pts += [(p, q) for q in _ulps(0.77) + _ulps(r1(p))]
        pts += [(p, q) for p in (-1.0, 0.0, 0.5, 1.0, math.inf, math.nan, 2.0)
                for q in (-0.5, 0.0, 0.5, 1.0, 1.5, math.inf, math.nan)]
        _assert_matches_certify(*zip(*pts))

    def test_huge_rho_matches_certify(self):
        # from 1e77 rho**4 overflows; near 1.34e154 q^2 starts to overflow
        rng = np.random.default_rng(1820)
        rho = (10.0 ** rng.uniform(77, 308.2, 400)).tolist() + [1e77, 1.34e154, 1.35e154, 1.7e308]
        r = rng.uniform(0.0, 1.0, len(rho)).tolist()
        _assert_matches_certify(rho + rho, r + [0.77] * len(rho))

    def test_failed_rows_come_from_the_array_pass(self, monkeypatch):
        def no_certify(rho, r):
            raise AssertionError("certify_points called certify")

        def rows_without_certify(rho, r):
            want = certify_points(rho, r)
            with monkeypatch.context() as m:
                m.setattr(region_certifier, "certify", no_certify)
                assert repr(certify_points(rho, r).records()) == repr(want.records())
            return want

        band = sweep_table((1e160, 1e300, 20), (None, 1.0, 20))
        assert set(rows_without_certify(band.rho, band.r).region) == {"Uncertified"}
        # near rho = 1 twelve points fail q^2 > 0 yet read verdict True in the pass
        near_one = [(p, q) for p in _ulps(1.0) + [1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6]
                    for q in _ulps(1.0) + [0.9999995, 0.99]]
        table = rows_without_certify(*zip(*near_one))
        texts = [text for label, text in zip(table.region, table.failure) if label == "Uncertified"]
        assert len(texts) == 12 and all("gives q^2" in text for text in texts)
        # every verdict fails, as in test_failed_verdicts_carry_certifys_failure_reason
        _set_slack(monkeypatch, "product", -1.0)
        _set_slack(monkeypatch, "kappa", -1.0)
        monkeypatch.setattr(region_certifier, "check_mu_bound",
                            lambda g, mu: np.zeros(mu.shape, dtype=bool) if isinstance(mu, np.ndarray) else False)
        table = rows_without_certify(*_seeded_draw())
        assert {text.split(" = ")[0] for text in table.failure} == {"||G|| bound mu", "product", "kappa"}

    @pytest.mark.parametrize("names, false_verdicts, uncertified", [
        (("product",), 113, 0),
        (("kappa",), 81_813, 0),
        (("sigma_residual",), 74_882, 74_882),
        (("kappa_residual",), 71_367, 71_367),
        (("sigma_residual", "kappa_residual"), 93_883, 93_883),
        # every other slack: the radicands', sw's, critical_x's, psi's and check_mu_bound's
        (tuple(name for name, clause in CLAUSES.items() if clause.slack and name not in
               ("product", "kappa", "sigma_residual", "kappa_residual")), 0, 0),
    ])
    def test_what_each_slack_decides_on_criterion_1(self, monkeypatch, names, false_verdicts, uncertified):
        # criterion 1's 250,000 points certify with every slack in place
        for name in names:
            _set_slack(monkeypatch, name, 0.0)
        table = sweep_table((1, 50, 500), (None, 1, 500))
        assert (np.count_nonzero(~table.verdict), table.region.count("Uncertified")) == (false_verdicts, uncertified)

    def test_open_grid_rows_match_the_scalar_grid(self):
        ends = [0.5, 0.9, 1e-300, math.nan, -math.inf, 1.0]
        rows = open_grid(np.array(ends), 1.0, 7)
        for lo, row in zip(ends, rows.tolist()):
            assert [repr(x) for x in row] == [repr(x) for x in open_grid(lo, 1.0, 7).tolist()]


class TestOpenGrid:
    def test_matches_the_plain_formula_below_overflow(self):
        for lo, hi, steps in ((1.0, 50.0, 500), (1.0, 7.3, 41), (0.05, 1.0, 7), (1e76, 1e300, 9)):
            nodes = [min(hi, lo + (hi - lo) * k / steps) for k in range(1, steps + 1)]
            assert open_grid(lo, hi, steps).tolist() == nodes

    def test_nodes_stay_distinct_near_the_float_maximum(self):
        # (hi - lo) k overflows for k >= 2 here; the nodes must not collapse onto hi
        nodes = open_grid(1e76, 1.7e308, 4).tolist()
        assert len(set(nodes)) == 4
        assert nodes == sorted(nodes)
        assert nodes[-1] == 1.7e308
        assert nodes[0] == 1.7e308 / 4

    def test_nodes_come_as_an_array_for_every_input(self):
        for lo, steps, shape in ((0.5, 7, (7,)), (np.array([0.5, 0.9]), 7, (2, 7)), (0.5, 1, (1,)),
                                 (np.array([0.5, math.nan]), 1, (2, 1))):
            nodes = open_grid(lo, 1.0, steps)
            assert isinstance(nodes, np.ndarray) and nodes.shape == shape
        assert open_grid(math.nan, 1.0, 1).tolist() == [1.0]


class TestFigure2:
    def test_quotient_at_most_one(self):
        data = figure2_data(200)
        vals = [v for _, v in data]
        assert max(vals) <= 1 + 1e-9
        assert all(math.isfinite(v) for v in vals)
        assert abs(data[0][0] - 2.5) < 1e-12
        assert abs(data[-1][0] - 10.0) < 1e-12

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            figure2_data(1)


class TestReplay:
    def test_all_chains_pass(self):
        rep = replay_proofs()
        for name in CHAIN_NAMES:
            chain = getattr(rep, name)
            assert chain.passed, f"{name} margin={chain.worst_margin}"
        assert rep.all_passed

    def test_json_shape(self):
        rep = replay_proofs()
        d = rep.to_json()
        assert set(d) == set(CHAIN_NAMES)
        for name in CHAIN_NAMES:
            assert d[name]["pass"] is True
            assert isinstance(d[name]["worst_margin"], float)

    @pytest.mark.parametrize("chain, module, name, broken", [
        ("q_chain", region_certifier, "Q_CHAIN_COEFFS", (5,) + Q_CHAIN_COEFFS[1:]),
        ("strip_P", region_certifier, "_strip_P_mu2", None),
        ("p1_p2_p3_chain", region_certifier, "_P2", (-2, 10, -4, 0, -3)),
        ("p4_p5_chain", region_certifier, "_P5", tuple(-c for c in region_certifier._P5)),
        ("p6_p7", region_certifier, "_P4", tuple(-c for c in region_certifier._P4)),
        ("p8_p9_chain", region_certifier, "_P9", region_certifier._P9[:-1] + (1729,)),
        ("B_sign", region_certifier, "B_of", None),
        ("F_sign", region_certifier, "F_of", None),
        ("Q_sign", region_certifier, "_Q_at_quarter_rho_sq", None),
        ("H_table", region_certifier, "_H_interval", None),
    ], ids=CHAIN_NAMES)
    def test_each_chain_can_fail(self, monkeypatch, chain, module, name, broken):
        # a function input is flipped to the wrong sign, a coefficient
        # table is perturbed
        if broken is None:
            good = getattr(module, name)
            broken = lambda *args: -good(*args)  # noqa: E731
        monkeypatch.setattr(module, name, broken)
        rep = replay_proofs()
        assert getattr(rep, chain).passed is False
        assert rep.all_passed is False

    def test_strip_and_B_chains_run_on_arrays(self, monkeypatch):
        calls = {"_strip_P_mu2": 0, "B_of": 0}
        for name in calls:
            def counted(*args, _f=getattr(region_certifier, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(region_certifier, name, counted)
        assert replay_proofs().all_passed
        assert calls["_strip_P_mu2"] <= 4
        assert calls["B_of"] == 1


class TestSignChain:
    def test_chain_passes(self):
        res = q_sign_chain_check()
        assert res.passed
        assert res == replay_proofs().q_chain

    def test_grid_and_tail_routes_alone_can_fail(self, monkeypatch):
        # |q| leaves the exact expansion of route (i) intact, and is positive on the grid
        polyval = np.polynomial.polynomial.polyval
        monkeypatch.setattr(np.polynomial.polynomial, "polyval", lambda x, c: np.abs(polyval(x, c)))
        res = q_sign_chain_check()
        assert res.passed is False
        assert res.worst_margin > 0.0

    def test_coefficients_vs_independent_expansion(self):
        # (4+t)(1+t^2)^4(1+t^4)^4 - t^9(1+t)^4(1+t^3)^4 against the stored
        # coefficients at 26 integers: both sides have degree <= 25, so that
        # is equality, in Python ints that share no code with numpy's polymul
        for t in range(-13, 13):
            q = (4 + t) * (1 + t**2) ** 4 * (1 + t**4) ** 4 - t**9 * (1 + t) ** 4 * (1 + t**3) ** 4
            assert q == sum(c * t**k for k, c in enumerate(Q_CHAIN_COEFFS)), t

    def test_value_below_tail_bound_at_four(self):
        t = 4.0
        qv = 0.0
        for c in reversed(Q_CHAIN_COEFFS):
            qv = qv * t + c
        bound = -1276 * t**16 - 5 * t**17 - 2 * t**19
        assert qv <= bound < 0


class TestAlgebraicIdentities:
    def test_B_matches_radical_form_on_curve(self):
        # (1 - 3t^2)^2 B / 4 = p4(t) + p5(t) sqrt(p3(t)) with t = r1(rho)^2
        polyval = np.polynomial.polynomial.polyval
        worst = 0.0
        for rho in np.linspace(2.5, 10.0, 100):
            rr = r1(float(rho))
            t = rr * rr
            lhs = (1 - 3 * t * t) ** 2 * B_of(rr, float(rho)) / 4
            rhs = polyval(t, _P4) + polyval(t, _P5) * math.sqrt(polyval(t, _P3))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        assert worst < 1e-9

    def test_rho_squared_parametrization_on_curve(self):
        # rho^2 along r = r1(rho) recovered from t = r^4 alone
        worst = 0.0
        for rho in np.linspace(2.5, 10.0, 100):
            rr = r1(float(rho))
            t4 = rr**4
            rho2 = 2 * (3 * t4 * t4 + 4 * t4 - 1
                        + math.sqrt((1 + t4) * (1 - 8 * t4 + 15 * t4**2 + 9 * t4**3))) / (1 - 3 * t4)
            worst = max(worst, abs(rho2 - rho * rho) / rho**2)
        assert worst < 1e-9

    def test_psi_annihilates_quartic(self):
        # psi(x, y) is the smaller zero of the norm quartic in lambda
        worst = 0.0
        for rho in np.linspace(10.0, 30.0, 25):
            r = 0.77
            x = r * r + 1 / (r * r)
            y = float(rho) + 1 / float(rho)
            lam = psi(x, y)
            Qpsi = 4 * (4 * x**4 * lam**2 - 20 * x * (2 * y**2 - x**2) * lam
                        + 25 * x**2 + 16 * y**4 - 16 * x**2 * y**2)
            worst = max(worst, abs(Qpsi) / (1 + y**4))
        assert worst < 1e-6

    def test_F_positive_at_right_end(self):
        assert F_of(2.96) > 0
        # numerator 61 y^2 - 75 y sqrt(y^2 - 4) - 50 is barely positive there
        numer = 61 * 2.96**2 - 75 * 2.96 * math.sqrt(2.96**2 - 4) - 50
        assert abs(numer - 0.029) < 0.01
