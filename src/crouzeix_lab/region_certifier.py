"""Region classification and per-point certificates for the (rho, r) domain.

The admissible domain {rho > 1, 1/sqrt(rho) < r <= 1} splits into four
regions, each carrying its own similarity construction and bound:

    Diagonalizable  2 y^2 <= x^2 + (5/2) x; kappa alone certifies
    SmallR          r <= r1(rho); norm bound rho/2 against c < 2/rho
    Strip           rho >= 10, r <= 0.77; norm bound y/2.02
    LargeRhoR       the rest; norm^2 = psi(x, y) against the closed c bound

with x = r^2 + 1/r^2 and y = rho + 1/rho.  `certify` emits a replayable
Certificate per point; `replay_proofs` re-runs every displayed inequality
chain behind the two hardest regions on documented grids.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .conformal_map import (_extreme, _poly_deriv, _poly_eval, _poly_mul, _poly_sub, c_upper_closed,
                            q_sign_chain_check)
from .core_matrix import NormalizedParams, check_rho, q_from_rho
from .errors import DomainError
from .similarity import (
    SimilarityX,
    build_X_critical,
    build_X_diagonalizing,
    build_X_smallr,
    build_X_strip,
    canonical_G,
    check_mu_bound,
    norm_from_P,
    psi,
    singular_spectrum,
)

__all__ = [
    "Certificate",
    "ChainCheck",
    "ProofReplayReport",
    "RegionId",
    "certify",
    "classify",
    "figure2_data",
    "open_grid",
    "p_smallr",
    "r1",
    "r3",
    "replay_proofs",
    "sweep_grid",
    "sweep_points",
]

_PRODUCT_TOL = 1e-12
_KAPPA_TOL = 1e-9


class RegionId(enum.Enum):
    SMALL_R = "SmallR"
    STRIP = "Strip"
    DIAGONALIZABLE = "Diagonalizable"
    LARGE_RHO_R = "LargeRhoR"
    OUT_OF_DOMAIN = "OutOfDomain"


def p_smallr(r: float, rho: float) -> float:
    """Defining polynomial of the small-r boundary curve; increasing in r."""
    r4 = r**4
    return 12.0 * r4 * r4 + r4 * (3.0 * rho * rho + 16.0 + 4.0 / (rho * rho)) - 4.0 - rho * rho


def r1(rho: float) -> float:
    """Unique positive root of p_smallr(., rho), in closed form.

    p_smallr is a quadratic in s = r^4.  Divided by rho^2 and written in
    u = 1/rho^2, it reads 12 u s^2 + b s - c with b = 3 + 16u + 4u^2 and
    c = 1 + 4u.  Its positive root, taken as 2c / (b + sqrt(b^2 + 48 c u)),
    neither cancels nor overflows, and tends to 1/3 as rho grows.
    """
    check_rho(rho)
    u = 1.0 / (rho * rho)
    b = 3.0 + u * (16.0 + 4.0 * u)
    c = 1.0 + 4.0 * u
    s = 2.0 * c / (b + math.sqrt(b * b + 48.0 * c * u))
    return math.sqrt(math.sqrt(s))


def r3(rho: float) -> float:
    """Right edge of the diagonalizable region; 1 below sqrt2, then falls
    to 1/sqrt2 at rho = 2."""
    if not (1.0 < rho <= 2.0):
        raise DomainError(f"r3 is defined for 1 < rho <= 2, got {rho}")
    if rho < math.sqrt(2.0):
        return 1.0
    y = rho + 1.0 / rho
    x0 = math.sqrt(25.0 / 16.0 + 2.0 * y * y) - 1.25
    # at rho = sqrt(2) exactly x0 = 2; the sqrt below would turn the
    # rounding noise of x0 into a ~1e-8 dip, so clip the knife edge
    if x0 <= 2.0 + 1e-12:
        return 1.0
    return math.sqrt(x0 / 2.0 - math.sqrt(x0 * x0 / 4.0 - 1.0))


def classify(rho: float, r: float) -> RegionId:
    """Assign (rho, r) to its certifying region.

    Precedence: Diagonalizable, then SmallR, then Strip, then LargeRhoR;
    the diagonalizable certificate is the strongest (no conformal bound
    enters), the rest follow the order of the regional propositions.  Every
    other input, a non-finite rho or r included, is OutOfDomain.  Next to
    r = 1/sqrt(rho) the tests r^2 rho > 1 and RhoParams's r > 1/sqrt(rho)
    differ by rounding; a point must pass both.
    """
    if not 1.0 < rho < math.inf or not (1.0 / math.sqrt(rho) < r <= 1.0) or r * r * rho <= 1.0:
        return RegionId.OUT_OF_DOMAIN
    x = r * r + 1.0 / (r * r)
    y = rho + 1.0 / rho
    if 2.0 * y * y <= x * x + 2.5 * x:
        return RegionId.DIAGONALIZABLE
    if r <= r1(rho):
        return RegionId.SMALL_R
    if rho >= 10.0 and r <= 0.77:
        return RegionId.STRIP
    return RegionId.LARGE_RHO_R


@dataclass(frozen=True)
class Certificate:
    """Replayable record of one certified point.

    For product regions the content is c_upper * sqrt(norm_sq_upper) <= 1;
    the diagonalizable region certifies through kappa alone and stores 0.0
    for the two conformal fields.  crouzeix_constant is 2.0 exactly when
    the verdict holds and 0.0 (nothing certified) otherwise.
    """

    region: RegionId
    rho: float
    r: float
    X: SimilarityX
    kappa: float
    norm_sq_upper: float
    c_upper: float
    product: float
    crouzeix_constant: float
    verdict: bool
    failure_reason: str = ""

    def to_json(self) -> dict:
        return {
            "region": self.region.value,
            "rho": self.rho,
            "r": self.r,
            "X": {"s": self.X.s, "t": self.X.t, "u": self.X.u, "v": self.X.v, "w": self.X.w},
            "kappa": self.kappa,
            "norm_sq_upper": self.norm_sq_upper,
            "c_upper": self.c_upper,
            "product": self.product,
            "crouzeix_constant": self.crouzeix_constant,
            "verdict": self.verdict,
            "failure_reason": self.failure_reason,
        }

    @classmethod
    def from_json(cls, d: dict) -> "Certificate":
        return cls(
            region=RegionId(d["region"]),
            rho=d["rho"],
            r=d["r"],
            X=SimilarityX(**d["X"]),
            kappa=d["kappa"],
            norm_sq_upper=d["norm_sq_upper"],
            c_upper=d["c_upper"],
            product=d["product"],
            crouzeix_constant=d["crouzeix_constant"],
            verdict=d["verdict"],
            failure_reason=d["failure_reason"],
        )


def certify(rho: float, r: float) -> Certificate:
    """Certificate for one admissible point; raises on OutOfDomain input."""
    region = classify(rho, r)
    if region is RegionId.OUT_OF_DOMAIN:
        raise DomainError(f"(rho={rho}, r={r}) is not in the admissible domain")
    q = q_from_rho(rho, r)
    params = NormalizedParams(q=q, r=r)
    y = rho + 1.0 / rho
    x = r * r + 1.0 / (r * r)
    failure = ""

    if region is RegionId.DIAGONALIZABLE:
        X = build_X_diagonalizing(params)
        kappa = singular_spectrum(X).kappa
        verdict = kappa <= 2.0 + _KAPPA_TOL
        if not verdict:
            failure = f"kappa = {kappa!r} exceeds 2"
        return Certificate(
            region=region, rho=rho, r=r, X=X, kappa=kappa,
            norm_sq_upper=1.0, c_upper=0.0, product=0.0,
            crouzeix_constant=2.0 if verdict else 0.0,
            verdict=verdict, failure_reason=failure,
        )

    if region is RegionId.SMALL_R:
        X = build_X_smallr(params)
        mu = rho / 2.0
        c_up = 2.0 / rho
    elif region is RegionId.STRIP:
        X = build_X_strip(r)
        mu = y / 2.02
        c_up = 2.0 / rho
    else:
        X = build_X_critical(params)
        norm_sq = psi(x, y)
        c_up = c_upper_closed(rho)

    kappa = singular_spectrum(X).kappa
    g = canonical_G(X, params)
    if region is not RegionId.LARGE_RHO_R:
        try:
            norm_sq = norm_from_P(g)
        except OverflowError:  # Python's float ** raises where a square overflows
            norm_sq = math.inf
    if not math.isfinite(norm_sq):
        raise DomainError(f"rho={rho} overflows ||G||^2 = {norm_sq}")
    mu_ok = region is RegionId.LARGE_RHO_R or check_mu_bound(g, mu)
    if not mu_ok:
        failure = f"||G|| bound mu = {mu!r} not certified by the norm polynomial"
    product = c_up * math.sqrt(norm_sq)
    verdict = mu_ok and product <= 1.0 + _PRODUCT_TOL
    if verdict and kappa > 2.0 + _KAPPA_TOL:
        verdict = False
        failure = f"kappa = {kappa!r} exceeds 2"
    if not verdict and not failure:
        failure = f"product = {product!r} exceeds 1"
    return Certificate(
        region=region, rho=rho, r=r, X=X, kappa=kappa,
        norm_sq_upper=norm_sq, c_upper=c_up, product=product,
        crouzeix_constant=2.0 if verdict else 0.0,
        verdict=verdict, failure_reason=failure,
    )


def open_grid(lo: float, hi: float, steps: int) -> list:
    """Nodes lo + (hi - lo) k / steps for k = 1..steps, on (lo, hi].

    Each node is capped at hi, so rounding never steps past the right end;
    a single step is hi itself.  Near the float maximum, where (hi - lo) k
    overflows, a node is the weighted mean lo (1 - k/steps) + hi k/steps.
    Fewer than one step raises DomainError.
    """
    if steps < 1:
        raise DomainError(f"a grid needs at least one step, got {steps}")
    if steps == 1:
        return [hi]
    nodes = []
    for k in range(1, steps + 1):
        stride = (hi - lo) * k
        node = lo + stride / steps if math.isfinite(stride) else lo * (1.0 - k / steps) + hi * (k / steps)
        nodes.append(min(hi, node))
    return nodes


def _uncertified(failure) -> tuple:
    """(region, reason) of a sweep point without a certificate: OutOfDomain when
    failure is None, else Uncertified with the DomainError that certify raised."""
    if failure is None:
        return RegionId.OUT_OF_DOMAIN.value, "outside admissible domain"
    return "Uncertified", str(failure)


def sweep_points(rho_range: tuple, r_range: tuple):
    """Yield (rho, r, outcome) over a sweep grid in row-major order, in this process.

    rho runs over open_grid(*rho_range).  r runs over open_grid(*r_range),
    where a lower end of None stands for 1/sqrt(rho) + 1e-6, the row's own
    edge of the domain (such a row is empty once that edge reaches 1).
    The outcome is the Certificate, None outside the domain, or, for an
    admissible point whose certificate fails, say by overflow, the
    DomainError that certify raised.
    """
    lo, hi, steps = r_range
    for rho in open_grid(*rho_range):
        row_lo = 1.0 / math.sqrt(rho) + 1e-6 if lo is None else lo
        if lo is None and row_lo >= 1.0:
            continue
        for r in open_grid(row_lo, hi, steps):
            try:
                yield rho, r, certify(rho, r)
            except DomainError as exc:
                yield rho, r, None if classify(rho, r) is RegionId.OUT_OF_DOMAIN else exc


def sweep_grid(
    n_rho: int = 500,
    n_r: int = 500,
    rho_min: float = 1.0,
    rho_max: float = 50.0,
) -> dict:
    """Certify an n_rho x n_r grid over {1 < rho <= rho_max, 1/sqrt(rho) < r <= 1}.

    rho runs over the open-left grid (rho_min, rho_max]; r over
    (1/sqrt(rho) + 1e-6, 1] per rho, all in this process.  Returns counts
    per region, the worst product and kappa seen, and every failing point
    (empty on success); a point without a certificate counts in total and
    fails as `_uncertified` labels it.
    """
    if n_rho < 1 or n_r < 1:
        raise DomainError("grid sizes must be positive")
    summary = {
        "total": 0,
        "verdict_true": 0,
        "by_region": {rid.value: 0 for rid in RegionId if rid is not RegionId.OUT_OF_DOMAIN},
        "worst_product": 0.0,
        "worst_kappa": 0.0,
        "failures": [],
    }
    for rho, r, cert in sweep_points((rho_min, rho_max, n_rho), (None, 1.0, n_r)):
        summary["total"] += 1
        if not isinstance(cert, Certificate):
            summary["failures"].append((rho, r, *_uncertified(cert)))
            continue
        summary["by_region"][cert.region.value] += 1
        summary["worst_product"] = max(summary["worst_product"], cert.product)
        summary["worst_kappa"] = max(summary["worst_kappa"], cert.kappa)
        if cert.verdict:
            summary["verdict_true"] += 1
        else:
            summary["failures"].append((rho, r, cert.region.value, cert.failure_reason))
    return summary


def figure2_data(grid: int) -> list[tuple[float, float]]:
    """Norm-to-bound quotient 4 psi / rho^2 along the curve r = r1(rho),
    rho in [5/2, 10]; every value is expected to stay at or below 1."""
    if grid < 2:
        raise DomainError("grid must be at least 2")
    out = []
    for i in range(grid):
        rho = 2.5 + (10.0 - 2.5) * i / (grid - 1)
        rr = r1(rho)
        x = rr * rr + 1.0 / (rr * rr)
        y = rho + 1.0 / rho
        out.append((rho, 4.0 * psi(x, y) / (rho * rho)))
    return out


# ---------------------------------------------------------------------------
# Proof replay: the displayed inequality chains of the two hardest regions.
# Ascending-order integer coefficient lists, exactly as displayed.

_P1 = (2, 0, -4, -60, -20, 240, -20, 0, -6)
_P2 = (-2, 10, -4, 0, -2)
_P3 = (1, 0, -7, 0, 7, 0, 24, 0, 9)  # (1+t^2)(1-8t^2+15t^4+9t^6) expanded
_P4 = (2, -10, 2, 10, 19, 410, -812, -1020, 2435, -810, 84, 0, 18)
_P5 = (-2, 10, -44, 20, 212, -270, 20, 0, 6)
_P9 = (-140, 120, 496, -3116, 4400, 10364, -38295, 12584, 77722, -69288, 9009, 1728, 1728)


def B_of(r: float, rho: float) -> float:
    """The curve-level obstruction; nonpositive exactly where the small-r
    norm bound extends to psi <= rho^2/4."""
    r2 = r * r
    r4 = r2 * r2
    r8 = r4 * r4
    rho2 = rho * rho
    return (
        rho2 * rho2 * (5.0 - 10.0 * r2 + 2.0 * r4 + r8)
        + 4.0 * (5.0 * r2 - 4.0) * (7.0 * r4 - 1.0) * rho2
        + 12.0 * r4 * (64.0 * r4 - 13.0)
    )


def F_of(y: float) -> float:
    """Gap between the two endpoint norms of the last-patch reduction."""
    return (61.0 * y * y - 75.0 * y * math.sqrt(max(0.0, y * y - 4.0)) - 50.0) / 200.0


def _strip_P_mu2(x: float, y: float) -> float:
    """P(mu^2) for the strip similarity at mu = y/2.02, in (x, y) variables."""
    mu2 = (y / 2.02) ** 2
    b = (x / 2.0 - 1.0) ** 2 + y * y / x
    c = 0.25 * (2.0 - x + y * y / x) ** 2
    return (mu2 - b) * mu2 + c


def _H_interval(rho_minus: float, rho_plus: float) -> float:
    """Interval bound H(rho-, rho+) controlling Q(rho^2/4) at r = 0.77."""
    x = 0.77**2 + 1.0 / 0.77**2
    y_m = rho_minus + 1.0 / rho_minus
    y_p = rho_plus + 1.0 / rho_plus
    alpha_m = rho_minus**2 / y_m**2
    a_plus = x**4 * alpha_m**2 - 40.0 * x * alpha_m + 64.0
    b_minus = (64.0 - 20.0 * x) * x * x
    return 100.0 * x * x - b_minus * y_m * y_m + a_plus * y_p**4


def _Q_at_quarter_rho_sq(rho: float, r: float = 0.77) -> float:
    x = r * r + 1.0 / (r * r)
    y = rho + 1.0 / rho
    lam = rho * rho / 4.0
    return 4.0 * (
        4.0 * x**4 * lam * lam
        - 20.0 * x * (2.0 * y * y - x * x) * lam
        + 25.0 * x * x
        + 16.0 * y**4
        - 16.0 * x * x * y * y
    )


@dataclass(frozen=True)
class ChainCheck:
    """One replayed inequality chain: its verdict, the worst margin seen
    (sign convention: negative margins are the safe side unless stated),
    and where it occurred."""

    passed: bool
    worst_margin: float
    worst_point: tuple

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "worst_margin": self.worst_margin,
            "worst_point": list(self.worst_point),
        }


@dataclass(frozen=True)
class ProofReplayReport:
    q_chain: ChainCheck
    strip_P: ChainCheck
    p1_p2_p3_chain: ChainCheck
    p4_p5_chain: ChainCheck
    p6_p7: ChainCheck
    p8_p9_chain: ChainCheck
    B_sign: ChainCheck
    F_sign: ChainCheck
    Q_sign: ChainCheck
    H_table: ChainCheck

    # both read the chains off the fields, so a new chain cannot be left out
    @property
    def all_passed(self) -> bool:
        return all(getattr(self, f.name).passed for f in fields(self))

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name).to_json() for f in fields(self)}


_GRID_1D = 10001
_GRID_2D = 200


def _poly_grid(coeffs, lo: float, hi: float) -> tuple:
    """A polynomial's values on _GRID_1D evenly spaced nodes of [lo, hi], and the nodes."""
    ts = np.linspace(lo, hi, _GRID_1D)
    return _poly_eval(coeffs, ts), ts


def replay_proofs() -> ProofReplayReport:
    """Re-run every displayed inequality chain on documented grids.

    Each chain is evaluated on whole arrays and read at its worst point by
    `_extreme`.  These are confidence checks of the displayed algebra, not
    formal certificates; margins are reported so a reader can judge the
    slack.
    """
    # (a) q(t) <= 0 for t >= 4
    qres = q_sign_chain_check()
    q_chain = ChainCheck(
        passed=bool(qres), worst_margin=qres.grid_max, worst_point=(qres.worst_t,)
    )

    # (b) strip: P(mu^2) positive at the anchor and increasing in x and y;
    # the "ij" grid flattens x-major, so a tie goes to the smallest x, then y
    anchor = _strip_P_mu2(2.2795, 10.0)
    X, Y = np.meshgrid(np.linspace(2.2795, 2.35, _GRID_2D), np.linspace(10.0, 30.0, _GRID_2D),
                       indexing="ij")
    h = 1e-6
    P = _strip_P_mu2(X, Y)
    slope = np.minimum((_strip_P_mu2(X + h, Y) - P) / h, (_strip_P_mu2(X, Y + h) - P) / h)
    worst, worst_pt = _extreme(slope, X, Y)
    strip_P = ChainCheck(
        passed=anchor > 0.0 and worst > 0.0,
        worst_margin=min(anchor, worst),
        worst_point=worst_pt,
    )

    # (c) p1, p2, p3 increasing on [1/2, 1/sqrt3); exact root identity at 1/2.
    # Where several polynomials compete, min keeps the first on ties.
    half = Fraction(1, 2)
    exact_ok = (
        _poly_eval(_P3, half) == Fraction(25, 256)
        and _poly_eval(_P1, half) + _poly_eval(_P2, half) * Fraction(5, 16) == 0
        and _poly_eval(_poly_deriv(_P3), half) == Fraction(25, 16)
    )
    t_end = 1.0 / math.sqrt(3.0) - 1e-12
    worst123, worst_t = min(
        (_extreme(*_poly_grid(_poly_deriv(coeffs), 0.5, t_end)) for coeffs in (_P1, _P2, _P3)),
        key=lambda e: e[0],
    )
    p123 = ChainCheck(passed=exact_ok and worst123 > 0.0, worst_margin=worst123, worst_point=worst_t)

    # (d) p5 < 0 and increasing on [1/2, 4/7]
    p5_max, p5_at = _extreme(*_poly_grid(_P5, 0.5, 4.0 / 7.0), largest=True)
    dmin, d_at = _extreme(*_poly_grid(_poly_deriv(_P5), 0.5, 4.0 / 7.0))
    p45 = ChainCheck(
        passed=p5_max < 0.0 and dmin > 0.0 and _poly_eval(_P5, Fraction(4, 7)) < 0,
        worst_margin=max(p5_max, -dmin),
        worst_point=p5_at if p5_max >= -dmin else d_at,
    )

    # (d') p6 > 0 on [1/2, 0.5327] and p7 > 0 on [0.5327, 4/7] give p4 > 0
    p6 = list(_P4)
    p6[12] -= 2
    p7 = list(_P4)
    p7[12] -= 1
    mins = [
        _extreme(*_poly_grid(p6, 0.5, 0.5327)),
        _extreme(*_poly_grid(p7, 0.5327, 4.0 / 7.0)),
        _extreme(*_poly_grid(_P4, 0.5, 4.0 / 7.0)),
    ]
    m67, at67 = min(mins, key=lambda e: e[0])
    p67 = ChainCheck(passed=all(m > 0.0 for m, _ in mins), worst_margin=m67, worst_point=at67)

    # (e)+(f) p8 = p4^2 - p5^2 p3 factors exactly; p9 <= p9(4/7) < 0
    p8_direct = _poly_sub(_poly_mul(_P4, _P4), _poly_mul(_poly_mul(_P5, _P5), _P3))
    prefactor = _poly_mul(_poly_mul([0, 0, 1], _poly_mul([-1, 2], [-1, 2])),
                          _poly_mul([1, 0, -3], [1, 0, -3]))
    identity_ok = p8_direct == _poly_mul(prefactor, list(_P9))
    p9_end = _poly_eval(_P9, Fraction(4, 7))
    p9_max, p9_at = _extreme(*_poly_grid(_P9, 0.5, 4.0 / 7.0), largest=True)
    p89 = ChainCheck(
        passed=identity_ok and p9_end < 0 and p9_max <= float(p9_end) + 1e-9,
        worst_margin=p9_max,
        worst_point=p9_at,
    )

    # (g) B <= 0 along r = r1(rho), rho in [5/2, 10]
    rhos = 2.5 + 7.5 * np.arange(_GRID_1D) / (_GRID_1D - 1)
    r1s = np.array([r1(rho) for rho in rhos.tolist()])
    worstB, worstB_at = _extreme(B_of(r1s, rhos), rhos, largest=True)
    B_sign = ChainCheck(passed=worstB <= 0.0, worst_margin=worstB, worst_point=worstB_at)

    # (h) F' < 0 on (2, 2.96] and F(2.96) > 0
    ys = np.linspace(2.0 + 1e-9, 2.96, _GRID_1D)
    s = np.sqrt(np.maximum(ys * ys - 4.0, 1e-30))
    fp_max, fp_at = _extreme((122.0 * ys - 75.0 * s - 75.0 * ys * ys / s) / 200.0, ys, largest=True)
    f_end = F_of(2.96)
    F_sign = ChainCheck(
        passed=fp_max < 0.0 and f_end > 0.0,
        worst_margin=fp_max if fp_max >= -f_end else -f_end,
        worst_point=fp_at,
    )

    # (i) Q(rho^2/4) <= 0 at r = 0.77: direct on [10, 50], a < 0 for rho >= 21.
    # Q goes point by point: it takes y**4, and numpy's power may round
    # differently from Python's float **.
    rhos = 10.0 + 40.0 * np.arange(_GRID_1D) / (_GRID_1D - 1)
    worstQ, worstQ_at = _extreme([_Q_at_quarter_rho_sq(rho) for rho in rhos.tolist()], rhos, largest=True)
    x077 = 0.77**2 + 1.0 / 0.77**2

    def a_of(rho):
        alpha = rho * rho / (rho + 1.0 / rho) ** 2
        return x077**4 * alpha * alpha - 40.0 * x077 * alpha + 64.0

    a_branch_ok = (
        a_of(21.0) < 0.0
        and a_of(20.0) > 0.0
        and bool(np.all(a_of(np.linspace(21.0, 1000.0, 2001)) < 0.0))
        and bool(np.all(np.diff(a_of(np.linspace(10.0, 1000.0, 2001))) < 0.0))
    )
    Q_sign = ChainCheck(
        passed=worstQ <= 0.0 and a_branch_ok, worst_margin=worstQ, worst_point=worstQ_at
    )

    # (j) the five interval values H(rho-, rho+), each within 1% of the
    # displayed approximations and all negative
    displayed = {
        (16.0, 21.0): -2524.0,
        (14.0, 16.0): -5167.0,
        (12.0, 14.0): -274.0,
        (11.0, 12.0): -1994.0,
        (10.0, 11.0): -721.0,
    }
    vals = [_H_interval(rm, rp) for rm, rp in displayed]
    h_ok = all(val < 0.0 and abs(val - ref) <= 0.01 * abs(ref) for val, ref in zip(vals, displayed.values()))
    worstH, worstH_at = _extreme(vals, *zip(*displayed), largest=True)
    H_table = ChainCheck(passed=h_ok, worst_margin=worstH, worst_point=worstH_at)

    return ProofReplayReport(
        q_chain=q_chain,
        strip_P=strip_P,
        p1_p2_p3_chain=p123,
        p4_p5_chain=p45,
        p6_p7=p67,
        p8_p9_chain=p89,
        B_sign=B_sign,
        F_sign=F_sign,
        Q_sign=Q_sign,
        H_table=H_table,
    )
