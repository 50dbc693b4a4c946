"""Region classification and per-point certificates for the (rho, r) domain.

The admissible domain {rho > 1, 1/sqrt(rho) < r <= 1} splits into four
regions, each carrying its own similarity construction and bound:

    Diagonalizable  2 y^2 <= x^2 + (5/2) x; kappa alone certifies
    SmallR          r <= r1(rho); norm bound rho/2 against c < 2/rho
    Strip           rho >= 10, r <= 0.77; norm bound y/2.02
    LargeRhoR       the rest; norm^2 = psi(x, y) against the closed c bound

with x = r^2 + 1/r^2 and y = rho + 1/rho.  `certify` emits a replayable
Certificate per point.  `sweep_table` runs the same code once over arrays
that hold a whole sweep grid (see `elementwise`), bit for bit as `certify`
would point by point, failed points included.
`replay_proofs` re-runs the ten displayed inequality chains behind the two
hardest regions on documented grids, each read by `_extreme` into a
ChainCheck; chain (a), `q_sign_chain_check`, is the sign chain behind
`c_upper_closed`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .conformal_map import c_upper_closed
from .core_matrix import NormalizedParams, _q_from_xy, check_rho
from .elementwise import CLAUSES, _at, array_pass, check, namespace
from .errors import DomainError
from .jsondata import plain
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
    "Q_CHAIN_COEFFS",
    "RegionId",
    "SweepTable",
    "certify",
    "certify_points",
    "classify",
    "figure2_data",
    "open_grid",
    "p_smallr",
    "q_sign_chain_check",
    "r1",
    "r3",
    "replay_proofs",
    "sweep_grid",
    "sweep_table",
]


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
    """Unique positive root of p_smallr(., rho), in closed form; floats or arrays.

    p_smallr is a quadratic in s = r^4.  Divided by rho^2 and written in
    u = 1/rho^2, it reads 12 u s^2 + b s - c with b = 3 + 16u + 4u^2 and
    c = 1 + 4u.  Its positive root, taken as 2c / (b + sqrt(b^2 + 48 c u)),
    neither cancels nor overflows, and tends to 1/3 as rho grows.
    """
    check_rho(rho)
    xp = namespace(rho)
    u = 1.0 / (rho * rho)
    b = 3.0 + u * (16.0 + 4.0 * u)
    c = 1.0 + 4.0 * u
    s = 2.0 * c / (b + xp.sqrt(b * b + 48.0 * c * u))
    return xp.sqrt(xp.sqrt(s))


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
    """Assign (rho, r) to its certifying region; on arrays, an object array
    of RegionId members.

    Precedence: Diagonalizable, then SmallR, then Strip, then LargeRhoR;
    the diagonalizable certificate is the strongest (no conformal bound
    enters), the rest follow the order of the regional propositions.  Every
    other input, a non-finite rho or r included, is OutOfDomain.  Next to
    r = 1/sqrt(rho) the tests r^2 rho > 1 and RhoParams's r > 1/sqrt(rho)
    differ by rounding; a point must pass both.
    """
    xp = namespace(rho, r)
    inside = (1.0 < rho) & (rho < math.inf)
    # outside the domain the region tests run on a stand-in point, so that
    # they never take sqrt(rho <= 0) or 1/0
    rho = xp.where(inside, rho, 2.0)
    inside = inside & (1.0 / xp.sqrt(rho) < r) & (r <= 1.0) & (r * r * rho > 1.0)
    r = xp.where(inside, r, 1.0)
    x = r * r + 1.0 / (r * r)
    y = rho + 1.0 / rho
    return xp.select(
        (inside & (2.0 * y * y <= x * x + 2.5 * x), inside & (r <= r1(rho)),
         inside & (rho >= 10.0) & (r <= 0.77), inside),
        (RegionId.DIAGONALIZABLE, RegionId.SMALL_R, RegionId.STRIP, RegionId.LARGE_RHO_R),
        RegionId.OUT_OF_DOMAIN,
    )


@dataclass(frozen=True)
class Certificate:
    """Replayable record of certified points: floats for one point, or
    arrays of one region's points (as SimilarityX and NormalizedParams hold).

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
        return plain(self)

    @classmethod
    def from_json(cls, d: dict) -> "Certificate":
        return cls(**{**d, "region": RegionId(d["region"]), "X": SimilarityX(**d["X"])})


def _certify_region(region: RegionId, rho, r) -> Certificate:
    """The Certificate of points that all lie in one admissible region, as floats or arrays.

    Checks that fail raise DomainError, or on arrays mark the point (see
    `elementwise`), in this order: q^2, NormalizedParams, the builder, psi
    and c_upper_closed, a non-finite ||G||^2, mu.
    """
    xp = namespace(rho, r)
    y = rho + 1.0 / rho
    x = r * r + 1.0 / (r * r)
    params = NormalizedParams(q=_q_from_xy(rho, r, x, y), r=r)  # classify has done RhoParams's checks
    mu, mu_ok, product = 0.0, True, 0.0
    if region is RegionId.DIAGONALIZABLE:
        X = build_X_diagonalizing(params)
        norm_sq, c_up = 1.0, 0.0
    elif region is RegionId.SMALL_R:
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
    if region is not RegionId.DIAGONALIZABLE:
        if region is not RegionId.LARGE_RHO_R:
            g = canonical_G(X, params)
            norm_sq = norm_from_P(g)
        check("norm_finite", abs(norm_sq), math.inf, rho, norm_sq)
        if region is not RegionId.LARGE_RHO_R:
            mu_ok = check_mu_bound(g, mu)
        product = c_up * xp.sqrt(norm_sq)
    product_ok = check("product", product, 1.0)
    verdict = mu_ok & product_ok & check("kappa", kappa, 2.0)
    return Certificate(region, rho, r, X, kappa, norm_sq, c_up, product, xp.where(verdict, 2.0, 0.0), verdict,
                       _failure_reason(verdict, mu_ok, product_ok, mu, product, kappa))


def _failure_reason(verdict, mu_ok, product_ok, mu, product, kappa):
    """"" where the verdict holds, else the text of the first false clause; on
    arrays, an object array of one such text per point."""
    if isinstance(verdict, np.ndarray):
        reason = np.full(verdict.size, "", dtype=object)
        for i in np.flatnonzero(~verdict).tolist():
            reason[i] = _failure_reason(False, *_at((mu_ok, product_ok, mu, product, kappa), i))
        return reason
    if verdict:
        return ""
    name, value = ("mu_p", mu) if not mu_ok else ("product", product) if not product_ok else ("kappa", kappa)
    return CLAUSES[name].text.format(value)


def certify(rho: float, r: float) -> Certificate:
    """Certificate for one admissible point; raises on OutOfDomain input."""
    region = classify(rho, r)
    if region is RegionId.OUT_OF_DOMAIN:
        raise DomainError(f"(rho={rho}, r={r}) is not in the admissible domain")
    return _certify_region(region, rho, r)


def open_grid(lo: float, hi: float, steps: int) -> np.ndarray:
    """Nodes lo + (hi - lo) k / steps for k = 1..steps, on (lo, hi], as an array.

    Each node is capped at hi, so rounding never steps past the right end;
    a single step is hi itself.  Near the float maximum, where (hi - lo) k
    overflows, a node is the weighted mean lo (1 - k/steps) + hi k/steps.
    Fewer than one step raises DomainError.  For an array of lower ends
    the nodes come as a 2-D array, one row per end.
    """
    if steps < 1:
        raise DomainError(f"a grid needs at least one step, got {steps}")
    if steps == 1:
        return np.full(np.shape(lo) + (1,), float(hi))
    rows = np.asarray(lo, dtype=float)[..., None]
    k = np.arange(1, steps + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        stride = (hi - rows) * k
        node = np.where(np.isfinite(stride), rows + stride / steps, rows * (1.0 - k / steps) + hi * (k / steps))
    return np.where(node < hi, node, hi)  # min(hi, node), which keeps hi for a NaN node too


_UNCERTIFIED = "Uncertified"
_OUTSIDE = "outside admissible domain"


@dataclass(frozen=True)
class SweepTable:
    """Every sweep point's certificate fields, one column per field, row-major.

    region holds each point's RegionId value, or "Uncertified" for an
    admissible point whose certificate raised (say by overflow); failure
    holds the certificate's failure_reason, the DomainError text, or
    "outside admissible domain".  A point without a certificate has X = 0,
    zeros in the number columns and a false verdict.
    """

    rho: np.ndarray
    r: np.ndarray
    region: list
    X: tuple
    kappa: np.ndarray
    norm_sq_upper: np.ndarray
    c_upper: np.ndarray
    product: np.ndarray
    verdict: np.ndarray
    failure: list

    def records(self) -> list:
        """Each point's JSON record: Certificate.to_json() where certified, else
        the same keys with X null."""
        x_keys = [f.name for f in fields(SimilarityX)]
        column = {f.name: getattr(self, f.name) for f in fields(self)}
        column["X"] = [dict(zip(x_keys, x)) if label not in (_UNCERTIFIED, RegionId.OUT_OF_DOMAIN.value) else None
                       for label, x in zip(self.region, zip(*(c.tolist() for c in self.X)))]
        column["crouzeix_constant"] = np.where(self.verdict, 2.0, 0.0)
        column["failure_reason"] = self.failure
        keys = [f.name for f in fields(Certificate)]
        rows = zip(*(column[k].tolist() if isinstance(column[k], np.ndarray) else column[k] for k in keys))
        return [dict(zip(keys, row)) for row in rows]


def _sweep_nodes(rho_range: tuple, r_range: tuple) -> tuple:
    """(rho, r) arrays of the sweep grid in row-major order; see sweep_table."""
    lo, hi, steps = r_range
    rho = open_grid(*rho_range)
    if lo is None:
        # the row's edge; a row with rho <= 0 has none, and no admissible r
        with np.errstate(divide="ignore", invalid="ignore"):
            edge = 1.0 / np.sqrt(rho) + 1e-6
        keep = np.logical_not((rho <= 0.0) | (edge >= 1.0))
        rho, lo = rho[keep], edge[keep]
    rows = open_grid(np.broadcast_to(lo, rho.shape), hi, steps)
    return np.repeat(rho, steps), rows.ravel()


def certify_points(rho, r) -> SweepTable:
    """Certify the points (rho[i], r[i]) in one array pass per region.

    Each region's points go through `_certify_region` together, the code
    that certify runs on one point, and the pass writes every row from the
    Certificate it returns.  A point that failed a check is "Uncertified",
    with zeros and the first failed check's text, the DomainError certify
    raises.  So every field is the one certify gives or raises.
    """
    rho, r = np.asarray(rho, dtype=float).ravel(), np.asarray(r, dtype=float).ravel()
    n = rho.size
    with np.errstate(all="ignore"):
        regions = classify(rho, r)
    X = {f.name: np.zeros(n) for f in fields(SimilarityX)}
    columns = {name: np.zeros(n) for name in ("kappa", "norm_sq_upper", "c_upper", "product")}
    columns["verdict"] = np.zeros(n, dtype=bool)
    labels = np.full(n, RegionId.OUT_OF_DOMAIN.value, dtype=object)
    failure = np.full(n, _OUTSIDE, dtype=object)
    for region in (RegionId.DIAGONALIZABLE, RegionId.SMALL_R, RegionId.STRIP, RegionId.LARGE_RHO_R):
        idx = np.flatnonzero(regions == region)
        if idx.size == 0:
            continue
        with array_pass(idx.size) as raised:
            cert = _certify_region(region, rho[idx], r[idx])
        for name, col in X.items():
            col[idx] = getattr(cert.X, name)
        for name, col in columns.items():
            col[idx] = getattr(cert, name)
        labels[idx], failure[idx] = region.value, cert.failure_reason
        uncertified = np.not_equal(raised, None)
        bad = idx[uncertified]
        for col in (*X.values(), *columns.values()):
            col[bad] = 0
        labels[bad], failure[bad] = _UNCERTIFIED, raised[uncertified]
    return SweepTable(rho, r, labels.tolist(), tuple(X.values()), **columns, failure=failure.tolist())


def sweep_table(rho_range: tuple, r_range: tuple) -> SweepTable:
    """Certify a sweep grid with certify_points, in row-major order.

    rho runs over open_grid(*rho_range).  r runs over open_grid(*r_range),
    where a lower end of None stands for 1/sqrt(rho) + 1e-6, the row's own
    edge of the domain (such a row is empty once that edge reaches 1, and
    for rho <= 0).
    """
    return certify_points(*_sweep_nodes(rho_range, r_range))


def sweep_grid(
    n_rho: int = 500,
    n_r: int = 500,
    rho_min: float = 1.0,
    rho_max: float = 50.0,
) -> dict:
    """Certify an n_rho x n_r grid over {1 < rho <= rho_max, 1/sqrt(rho) < r <= 1}.

    rho runs over the open-left grid (rho_min, rho_max]; r over
    (1/sqrt(rho) + 1e-6, 1] per rho, all in one `sweep_table`.  Returns
    counts per region, the worst product and kappa seen, and every failing
    point (empty on success); a point without a certificate counts in total
    and fails as "OutOfDomain" or "Uncertified".
    """
    if n_rho < 1 or n_r < 1:
        raise DomainError("grid sizes must be positive")
    table = sweep_table((rho_min, rho_max, n_rho), (None, 1.0, n_r))
    rhos, rs = table.rho.tolist(), table.r.tolist()
    return {
        "total": len(rhos),
        "verdict_true": int(np.count_nonzero(table.verdict)),
        "by_region": {rid.value: table.region.count(rid.value)
                      for rid in RegionId if rid is not RegionId.OUT_OF_DOMAIN},
        "worst_product": float(np.max(table.product, initial=0.0)),
        "worst_kappa": float(np.max(table.kappa, initial=0.0)),
        "failures": [(rhos[i], rs[i], table.region[i], table.failure[i])
                     for i in np.flatnonzero(~table.verdict).tolist()],
    }


def figure2_data(grid: int) -> list[tuple[float, float]]:
    """Norm-to-bound quotient 4 psi / rho^2 along the curve r = r1(rho),
    rho in [5/2, 10]; every value is expected to stay at or below 1."""
    if grid < 2:
        raise DomainError("grid must be at least 2")
    rho = 2.5 + (10.0 - 2.5) * np.arange(grid) / (grid - 1)
    rr = r1(rho)
    x = rr * rr + 1.0 / (rr * rr)
    y = rho + 1.0 / rho
    return list(zip(rho.tolist(), (4.0 * psi(x, y) / (rho * rho)).tolist()))


# ---------------------------------------------------------------------------
# Proof replay: the displayed inequality chains of the two hardest regions.
# Ascending-order integer coefficient lists, exactly as displayed.

#: Coefficients (degree 0..23) of
#: q(t) = (4 + t)(1 + t^2)^4 (1 + t^4)^4 - t^9 (1 + t)^4 (1 + t^3)^4;
#: the degree 24/25 terms cancel.  q(t) <= 0 for t >= 4 is what upgrades the
#: 2/rho envelope to the sqrt(1 + 4 rho^{-4}) form (see `c_upper_closed`).
Q_CHAIN_COEFFS = (
    4, 1, 16, 4, 40, 10, 80, 20, 124, 30, 156, 34,
    168, 27, 136, 18, 96, -5, 52, -2, 16, -7, 8, -2,
)
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
    xp = namespace(rho)
    x = r * r + 1.0 / (r * r)
    y = rho + 1.0 / rho
    lam = rho * rho / 4.0
    return 4.0 * (
        4.0 * xp.power(x, 4) * lam * lam
        - 20.0 * x * (2.0 * y * y - x * x) * lam
        + 25.0 * x * x
        + 16.0 * xp.power(y, 4)
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
#: the grid of route (ii) in `q_sign_chain_check`
_Q_GRID_T_MAX = 1000.0
_Q_GRID_POINTS = 20001


def _extreme(vals, *coords, largest=False) -> tuple:
    """First minimum of a grid, or first maximum if largest, as (value, point).

    vals and every coordinate array share one shape (or flatten to one
    order); the point holds each coordinate at the extremum's index.
    """
    vals = np.asarray(vals)
    k = int(np.argmax(vals) if largest else np.argmin(vals))
    return float(vals.flat[k]), tuple(float(np.ravel(c)[k]) for c in coords)


def _poly_grid(coeffs, lo: float, hi: float) -> tuple:
    """A polynomial's values on _GRID_1D evenly spaced nodes of [lo, hi], and the nodes."""
    ts = np.linspace(lo, hi, _GRID_1D)
    return np.polynomial.polynomial.polyval(ts, coeffs), ts


def q_sign_chain_check() -> ChainCheck:
    """Chain (a): verify q(t) <= 0 for all t >= 4 by three independent routes.

    (i) exact integer expansion of the defining product against the stored
    coefficients; (ii) grid evaluation at 20001 points of [4, 1000]; (iii)
    sign of the chained tail bound -1276 t^16 - 5 t^17 - 2 t^19, which
    dominates q for t >= 4 once the low-order positive terms are absorbed.
    It passes only if all three do; the worst margin is the grid's largest
    q(t) / t^19, at its first t.
    """
    P = np.polynomial.polynomial

    def power(k, *coeffs):  # (c0 + c1 t + ...)^k on object coefficients, exact integers
        return P.polypow(np.array(coeffs, dtype=object), k)

    # (i) exact expansion of (4 + t)(1 + t^2)^4 (1 + t^4)^4 - t^9 (1 + t)^4 (1 + t^3)^4
    first = P.polymul(P.polymul(power(1, 4, 1), power(4, 1, 0, 1)), power(4, 1, 0, 0, 0, 1))
    second = P.polymul(P.polymul(power(9, 0, 1), power(4, 1, 1)), power(4, 1, 0, 0, 1))
    coeff_ok = P.polysub(first, second).tolist() == list(Q_CHAIN_COEFFS)

    # (ii) grid sign check; Horner in float on the verified coefficients
    ts = np.linspace(4.0, _Q_GRID_T_MAX, _Q_GRID_POINTS)
    vals = P.polyval(ts, Q_CHAIN_COEFFS)
    # scale out t^19 to keep the comparison finite for large t
    scaled = vals / ts**19
    grid_max, worst_point = _extreme(scaled, ts, largest=True)
    grid_ok = bool(np.all(scaled < 0.0))

    # (iii) the chained bound's coefficients are all negative, so it is
    # negative for every t > 0; the absorption steps also give
    # q(t) <= bound pointwise for t >= 4, checked on the same grid
    bound = -1276.0 * ts**16 - 5.0 * ts**17 - 2.0 * ts**19
    tail_ok = all(c < 0 for c in (-1276, -5, -2)) and bool(
        np.all(vals <= bound + 1e-9 * np.abs(bound))
    )
    return ChainCheck(passed=coeff_ok and grid_ok and tail_ok, worst_margin=grid_max, worst_point=worst_point)


def replay_proofs() -> ProofReplayReport:
    """Re-run every displayed inequality chain on documented grids.

    Each chain is evaluated on whole arrays and read at its worst point by
    `_extreme`.  These are confidence checks of the displayed algebra, not
    formal certificates; margins are reported so a reader can judge the
    slack.
    """
    # (a) q(t) <= 0 for t >= 4
    q_chain = q_sign_chain_check()

    # (b) strip: P(mu^2) positive at the anchor and increasing in x and y;
    # the "ij" grid flattens x-major, so a tie goes to the smallest x, then y
    anchor = _strip_P_mu2(2.2795, 10.0)
    X, Y = np.meshgrid(np.linspace(2.2795, 2.35, _GRID_2D), np.linspace(10.0, 30.0, _GRID_2D),
                       indexing="ij")
    h = 1e-6
    P_xy = _strip_P_mu2(X, Y)
    slope = np.minimum((_strip_P_mu2(X + h, Y) - P_xy) / h, (_strip_P_mu2(X, Y + h) - P_xy) / h)
    worst, worst_pt = _extreme(slope, X, Y)
    strip_P = ChainCheck(
        passed=anchor > 0.0 and worst > 0.0,
        worst_margin=min(anchor, worst),
        worst_point=worst_pt,
    )

    # the grids read the int tables as floats; the exact checks read object
    # copies, where integers stay exact and polyval at a Fraction is a Fraction
    P = np.polynomial.polynomial
    p1, p2, p3, p4, p5, p9 = (np.array(c, dtype=object) for c in (_P1, _P2, _P3, _P4, _P5, _P9))

    # (c) p1, p2, p3 increasing on [1/2, 1/sqrt3); exact root identity at 1/2.
    # Where several polynomials compete, min keeps the first on ties.
    half = Fraction(1, 2)
    exact_ok = (
        P.polyval(half, p3) == Fraction(25, 256)
        and P.polyval(half, p1) + P.polyval(half, p2) * Fraction(5, 16) == 0
        and P.polyval(half, P.polyder(p3)) == Fraction(25, 16)
    )
    t_end = 1.0 / math.sqrt(3.0) - 1e-12
    worst123, worst_t = min(
        (_extreme(*_poly_grid(P.polyder(coeffs), 0.5, t_end)) for coeffs in (_P1, _P2, _P3)),
        key=lambda e: e[0],
    )
    p123 = ChainCheck(passed=exact_ok and worst123 > 0.0, worst_margin=worst123, worst_point=worst_t)

    # (d) p5 < 0 and increasing on [1/2, 4/7]
    p5_max, p5_at = _extreme(*_poly_grid(_P5, 0.5, 4.0 / 7.0), largest=True)
    dmin, d_at = _extreme(*_poly_grid(P.polyder(_P5), 0.5, 4.0 / 7.0))
    p45 = ChainCheck(
        passed=p5_max < 0.0 and dmin > 0.0 and P.polyval(Fraction(4, 7), p5) < 0,
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

    # (e)+(f) p8 = p4^2 - p5^2 p3 = (t (2t - 1)(1 - 3t^2))^2 p9 exactly; p9 <= p9(4/7) < 0
    p8_direct = P.polysub(P.polypow(p4, 2), P.polymul(P.polypow(p5, 2), p3))
    factor = P.polymul(np.array([0, -1, 2], dtype=object), np.array([1, 0, -3], dtype=object))
    identity_ok = p8_direct.tolist() == P.polymul(P.polypow(factor, 2), p9).tolist()
    p9_end = P.polyval(Fraction(4, 7), p9)
    p9_max, p9_at = _extreme(*_poly_grid(_P9, 0.5, 4.0 / 7.0), largest=True)
    p89 = ChainCheck(
        passed=identity_ok and p9_end < 0 and p9_max <= float(p9_end) + 1e-9,
        worst_margin=p9_max,
        worst_point=p9_at,
    )

    # (g) B <= 0 along r = r1(rho), rho in [5/2, 10]
    rhos = 2.5 + 7.5 * np.arange(_GRID_1D) / (_GRID_1D - 1)
    worstB, worstB_at = _extreme(B_of(r1(rhos), rhos), rhos, largest=True)
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

    # (i) Q(rho^2/4) <= 0 at r = 0.77: direct on [10, 50], a < 0 for rho >= 21
    rhos = 10.0 + 40.0 * np.arange(_GRID_1D) / (_GRID_1D - 1)
    worstQ, worstQ_at = _extreme(_Q_at_quarter_rho_sq(rhos), rhos, largest=True)
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
