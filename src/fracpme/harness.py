"""Scheme-parameter selection, refinement studies, table reproduction, validation.

This is the experiment layer: it picks stencil orders and time-step rules for
a requested accuracy regime, runs the marcher across a mesh ladder, estimates
observed orders, measures the order of the two-point sigma-quotient, and
cross-checks the discrete operators against the independent oracles.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import core, extension_op, marcher, oracles
from .core import InitialData, SolverConfig, initial_data_preset
from .errors import ConfigError, QuadratureError

__all__ = [
    "SchemeMode", "OPTIMAL", "PRACTICAL", "SchemeParams", "select_scheme_params",
    "estimate_order", "StudySetup", "LevelRow", "ConvergenceReport",
    "run_convergence", "OrderStudyRow", "deriv_order_study", "order_study_csv",
    "SigmaTableResult", "TableMismatch", "run_sigma_table",
    "ValidationCheck", "ValidationResult", "run_validate", "bridge_order_fit",
    "write_loglog_svg",
]


# ---------------------------------------------------------------------------
# accuracy modes and their stencil tables

# (c, d) per mode on the sigma-regions (0, 1/2), {1/2}, (1/2, 1), {1}, (1, 3/2),
# {3/2}, (3/2, 2); regions are indexed by bisecting _BREAKPOINTS from both sides
_BREAKPOINTS = (0.5, 1.0, 1.5)
_STENCILS = {
    "optimal":   ((4, 4), (4, 4), (3, 4), (2, None), (3, 4), (3, 4), (3, 4)),
    "practical": ((2, 2), (2, 3), (2, 3), (2, None), (3, 4), (3, 4), (3, 4)),
    "minimal":   ((1, 1), (1, 2), (1, 2), (2, None), (2, 3), (3, 4), (3, 4)),
}


@dataclass(frozen=True)
class SchemeMode:
    """Accuracy regime: practical, optimal, or minimal with margin delta."""
    kind: str
    delta: float | None = None

    def __post_init__(self):
        if self.kind not in _STENCILS:
            raise ConfigError(f"unknown scheme mode {self.kind!r}")
        if self.kind == "minimal":
            if self.delta is None or not (self.delta > 0.0):
                raise ConfigError("minimal mode needs delta > 0")
        elif self.delta is not None:
            raise ConfigError(f"mode {self.kind!r} takes no delta")

    @classmethod
    def parse(cls, text: str) -> "SchemeMode":
        text = text.strip().lower()
        if text.startswith("minimal:"):
            try:
                delta = float(text.partition(":")[2])
            except ValueError:
                raise ConfigError(f"bad minimal mode spec {text!r}") from None
            return cls("minimal", delta)
        return cls(text)

    def label(self) -> str:
        return self.kind if self.delta is None else f"{self.kind}:{self.delta:g}"


OPTIMAL = SchemeMode("optimal")
PRACTICAL = SchemeMode("practical")


@dataclass(frozen=True)
class SchemeParams:
    """Selected design: target order a, stencil pair (c, d), dt exponent p."""
    a: float
    c: int
    d: int | None
    p: float
    note: str | None = None


_BREAK_NOTE = "sigma sits at a table breakpoint; higher-order stencils selected"


def select_scheme_params(sigma: float, mode: SchemeMode) -> SchemeParams:
    """Stencil orders and time-step rule for the requested accuracy regime.

    (c, d) come from _STENCILS.  Breakpoints (sigma = 1/2 and, in minimal mode,
    3/2) carry a note.  Minimal mode validates that the requested
    a = sigma + delta is actually attainable by the table's pair.
    """
    sigma = core.check_sigma(sigma)
    region = bisect.bisect_left(_BREAKPOINTS, sigma) + bisect.bisect_right(_BREAKPOINTS, sigma)
    c, d = _STENCILS[mode.kind][region]
    note = _BREAK_NOTE if sigma == 0.5 or (mode.kind == "minimal" and sigma == 1.5) else None
    if mode.kind == "optimal":
        a, p = (2.0 * (2.0 - sigma), 2.0 - sigma) if sigma < 1.0 else (2.0, sigma)
    elif mode.kind == "practical":
        a, p = min(2.0 * sigma, 2.0), sigma
    else:
        a, p = sigma + mode.delta, sigma
        eff = core.effective_order(sigma, c, d)
        if a > eff + 1e-12:
            raise ConfigError(
                f"minimal mode delta = {mode.delta} asks for order {a:.4g} but the "
                f"table pair (c={c}, d={d}) only reaches {eff:.4g} at sigma = {sigma}")
    return SchemeParams(a=a, c=c, d=d, p=p, note=note)


def estimate_order(E1: float, E2: float, h1: float, h2: float) -> float:
    """Two-point order fit log(E1/E2) / log(h1/h2)."""
    for name, v in (("E1", E1), ("E2", E2), ("h1", h1), ("h2", h2)):
        if not (np.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {v}")
    if h1 == h2:
        raise ValueError("h1 and h2 must differ")
    return math.log(E1 / E2) / math.log(h1 / h2)


# ---------------------------------------------------------------------------
# refinement studies

@dataclass(frozen=True)
class StudySetup:
    """Geometry and data of every rung of a study, as given: each rung's SolverConfig judges."""
    X: float = 16.0
    Y: float = 16.0
    T: float = 0.5
    base_i: int = 16
    data: InitialData = field(default_factory=lambda: initial_data_preset("gaussian"))
    cfl_safety: float = SolverConfig.cfl_safety


@dataclass(frozen=True)
class LevelRow:
    I: int
    dx: float
    dt: float
    J: int
    err_trace: float
    err_field: float | None
    order: float | None


@dataclass(frozen=True)
class ConvergenceReport:
    sigma: float
    m: float
    mode: SchemeMode
    params: SchemeParams
    reference: str            # "spectral" | "fine-grid"
    target: float
    rows: tuple[LevelRow, ...]
    degenerate: bool = False

    def to_csv(self) -> str:
        lines = [
            f"# sigma={self.sigma:.17g} m={self.m:.17g} mode={self.mode.label()}",
            f"# stencil c={self.params.c} d={self.params.d} a={self.params.a:.17g} "
            f"p={self.params.p:.17g}",
            f"# reference={self.reference} target_order={self.target:.17g} "
            f"degenerate={str(self.degenerate).lower()}",
            "dx,dt,err_trace,err_field,order",
        ]
        for r in self.rows:
            ef = "" if r.err_field is None else f"{r.err_field:.16e}"
            od = "" if r.order is None else f"{r.order:.4f}"
            lines.append(f"{r.dx:.16e},{r.dt:.16e},{r.err_trace:.16e},{ef},{od}")
        return "\n".join(lines) + "\n"


def _study_config(sigma: float, m: float, params: SchemeParams,
                  setup: StudySetup, I: int) -> SolverConfig:
    # K = Y/dx rounded, dx = 2X/I; SolverConfig judges T and cfl_safety, its Grid X, Y, I
    # and K: a mesh that is not square or has dx = 0.  An X <= 0 or nan skips the quotient
    cfg = SolverConfig(sigma=sigma, m=m, X=setup.X, Y=setup.Y, T=setup.T, I=I, J=1, c=params.c,
                       d=params.d, K=round(setup.Y / (2.0 * setup.X) * I, 0) if setup.X > 0 else 0,
                       cfl_safety=setup.cfl_safety)
    b_max = float(marcher.initial_trace_w(cfg, setup.data).max())
    c_mf_dt = core.cfl_max_dt(m, b_max, sigma, cfg.dx)      # C(m,f) * dx^sigma, inf for f = 0
    # the accuracy rule dx^p capped by CFL; dx^p / dx^sigma is one power, 1 at p = sigma and at
    # dx >= 1 (p >= sigma).  A step of 0 or a T/dt of inf leaves J = inf: SolverConfig refuses it
    dt_target = setup.cfl_safety * min(c_mf_dt, c_mf_dt * min(cfg.dx, 1.0) ** (params.p - sigma))
    steps = setup.T / dt_target if dt_target > 0.0 else math.inf
    return replace(cfg, J=max(1, math.ceil(steps - 1e-12)) if steps < math.inf else steps)


def run_convergence(sigma: float, m: float, mode: SchemeMode, levels: int,
                    setup: StudySetup | None = None) -> ConvergenceReport:
    """Mesh-halving study of the trace error at t = T.

    Reference: the whole-space spectral solution for m = 1 (the gaussian
    preset required; the bounded domain's truncation floor is part of the
    measured error), or for m > 1 the ladder's last rung, a run two halvings
    finer than the finest level, whose nodes contain every coarse node.
    """
    if not isinstance(levels, numbers.Integral) or levels < 2:
        raise ConfigError(f"need an integer of at least 2 refinement levels, got {levels!r}")
    setup = setup or StudySetup()
    params = select_scheme_params(sigma, mode)
    if m == 1.0 and setup.data != initial_data_preset("gaussian"):
        raise ConfigError("the m = 1 spectral reference supports gaussian data only")

    sizes = [setup.base_i * 2 ** lev for lev in range(levels)]
    if m != 1.0:
        sizes.append(setup.base_i * 2 ** (levels + 1))      # the fine-grid reference, last
    capture = None if m == 1.0 else (setup.T,)      # only err_field, m != 1, reads a field
    runs = []
    for I in sizes:
        cfg = _study_config(sigma, m, params, setup, I)
        runs.append((cfg, marcher.march(cfg, setup.data, capture=capture)))

    ref_cfg = runs[-1][0]       # the ladder's last rung; its I is an int, as Grid stores it
    if m == 1.0:
        reference, ref_field = "spectral", None
        # one oracle call: the finest level's nodes contain every level's nodes
        ref_trace = oracles.fractional_heat_solution(
            oracles.gaussian_hat, ref_cfg.grid().xs, setup.T, sigma, tol=1e-9)
    else:
        reference, ref_traj = "fine-grid", runs.pop()[1]
        ref_trace, ref_field = ref_traj.final_trace, ref_traj.snapshots[-1][1]
    errs_trace, errs_field = [], []
    for cfg, traj in runs:
        r = ref_cfg.I // cfg.I
        errs_trace.append(float(np.abs(traj.final_trace - ref_trace[::r]).max()))
        errs_field.append(None if ref_field is None else float(
            np.abs(traj.snapshots[-1][1] - ref_field[::r, ::r]).max()))

    degenerate = all(e <= 1e-14 for e in errs_trace)
    rows = []
    for lev, (cfg, _) in enumerate(runs):
        order = None
        if lev > 0 and not degenerate and errs_trace[lev - 1] > 0 and errs_trace[lev] > 0:
            order = estimate_order(errs_trace[lev - 1], errs_trace[lev],
                                   rows[lev - 1].dx, cfg.dx)
        rows.append(LevelRow(I=cfg.I, dx=cfg.dx, dt=cfg.dt, J=cfg.J, err_trace=errs_trace[lev],
                             err_field=errs_field[lev], order=order))

    # optimal mode's p is never below 2 - sigma; only minimal mode has a delta
    target = min(params.p, 2.0 - sigma, math.inf if mode.delta is None else mode.delta)
    return ConvergenceReport(sigma=sigma, m=m, mode=mode, params=params,
                             reference=reference, target=target, rows=tuple(rows),
                             degenerate=degenerate)


# ---------------------------------------------------------------------------
# order experiment for the two-point quotient, and its embedded expected table

@dataclass(frozen=True)
class OrderStudyRow:
    y: float
    E: float
    alpha: float | None
    sigma_e: float | None


DEFAULT_STUDY_YS = (0.5, 0.25, 0.125, 0.0625)
_MAX_STUDY_Y = math.sqrt(math.log(np.finfo(float).max) - 1.0)   # sigma * exp(y^2) < inf


def deriv_order_study(sigma: float, ys: Sequence[float] = DEFAULT_STUDY_YS) -> list[OrderStudyRow]:
    """Error |F(x, y)| of the two-point quotient on a decreasing ladder of y.

    The test function v = exp(y^2) has zero exact sigma-derivative at y = 0,
    so the quotient itself is the error, E(y) = sigma * (exp(y^2) - 1) / y^sigma.
    alpha is the two-point order fit between consecutive rows and
    sigma_e = 2 - alpha the implied exponent; both are None on the first row.
    """
    core.check_sigma(sigma)
    ys = [float(y) for y in ys]
    if len(ys) < 2:
        raise ConfigError("need at least two heights")
    if (not all(map(math.isfinite, ys)) or ys[-1] <= 0.0 or ys[0] > _MAX_STUDY_Y
            or any(y2 >= y1 for y1, y2 in zip(ys, ys[1:]))):
        raise ConfigError(f"heights must be finite, strictly decreasing, positive and at "
                          f"most {_MAX_STUDY_Y:.4g} (exp(y^2) overflows above)")

    rows: list[OrderStudyRow] = []
    for y in ys:
        E = abs(float(oracles.discrete_sigma_derivative(1.0, math.exp(y * y), y, sigma)))
        if E == 0.0:
            raise ConfigError(f"height y = {y:g} is too small: E(y) rounds to 0, "
                              f"so no order can be fitted")
        alpha = estimate_order(rows[-1].E, E, rows[-1].y, y) if rows else None
        rows.append(OrderStudyRow(y, E, alpha, None if alpha is None else 2.0 - alpha))
    return rows


def order_study_csv(blocks: Sequence[tuple[float, Sequence[OrderStudyRow]]]) -> str:
    """CSV with header sigma,y,E,alpha,sigma_e; 4-decimal fixed, empty first-row fits."""
    lines = ["sigma,y,E,alpha,sigma_e"]
    for sigma, rows in blocks:
        for r in rows:
            alpha = "" if r.alpha is None else f"{r.alpha:.4f}"
            sigma_e = "" if r.sigma_e is None else f"{r.sigma_e:.4f}"
            lines.append(f"{sigma:.4f},{r.y:.4f},{r.E:.4f},{alpha},{sigma_e}")
    return "\n".join(lines) + "\n"


# columns per sigma: E, alpha, sigma_e on DEFAULT_STUDY_YS
TABLE_EXPECTED: dict[float, dict[str, tuple]] = {
    0.5: {"E": (0.2008, 0.0645, 0.0223, 0.0078),
          "alpha": (None, 1.6388, 1.5340, 1.5085),
          "sigma_e": (None, 0.3612, 0.4660, 0.4915)},
    1.0: {"E": (0.5681, 0.2580, 0.1260, 0.0626),
          "alpha": (None, 1.1388, 1.0340, 1.0085),
          "sigma_e": (None, 0.8612, 0.9660, 0.9915)},
    1.5: {"E": (1.2050, 0.7739, 0.5345, 0.3757),
          "alpha": (None, 0.6388, 0.5340, 0.5085),
          "sigma_e": (None, 1.3612, 1.4660, 1.4915)},
}

TABLE_TOLERANCE = 5e-5


@dataclass(frozen=True)
class TableMismatch:
    sigma: float
    y: float
    column: str
    computed: float
    expected: float


@dataclass(frozen=True)
class SigmaTableResult:
    csv: str
    mismatches: tuple[TableMismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def run_sigma_table(sigmas: Sequence[float] | None = None,
                    ys: Sequence[float] | None = None) -> SigmaTableResult:
    """Reproduce the quotient-error table, checked to TABLE_TOLERANCE.

    E is checked on every row at a height of the table.  alpha and sigma_e
    are fits over (previous y, y), so they are checked only where the row
    before is at the table's previous height.  Other rows and sigmas without
    an embedded table pass through unchecked.
    """
    sigmas = tuple(sigmas) if sigmas is not None else (0.5, 1.0, 1.5)
    ys = tuple(ys) if ys is not None else DEFAULT_STUDY_YS
    blocks = [(s, deriv_order_study(s, ys)) for s in sigmas]
    csv = order_study_csv(blocks)

    mismatches = []
    for s, rows in blocks:
        expected = TABLE_EXPECTED.get(float(s))
        if expected is None:
            continue
        for prev, row in zip((None, *rows), rows):
            if row.y not in DEFAULT_STUDY_YS:
                continue
            pos = DEFAULT_STUDY_YS.index(row.y)
            fitted = pos > 0 and prev is not None and prev.y == DEFAULT_STUDY_YS[pos - 1]
            for col in ("E", "alpha", "sigma_e") if fitted else ("E",):
                want, got = expected[col][pos], getattr(row, col)
                if abs(got - want) >= TABLE_TOLERANCE:
                    mismatches.append(TableMismatch(sigma=float(s), y=row.y, column=col,
                                                    computed=float(got), expected=want))
    return SigmaTableResult(csv=csv, mismatches=tuple(mismatches))


# ---------------------------------------------------------------------------
# oracle-consistency suite

@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationResult:
    checks: tuple[ValidationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            state = "PASS" if c.passed else "FAIL"
            lines.append(f"{state}  {c.name}: measured {c.measured:.3e} "
                         f"(threshold {c.threshold:.3e}) {c.detail}".rstrip())
        lines.append("validation " + ("PASSED" if self.ok else "FAILED"))
        return "\n".join(lines)


_BRIDGE_X = 0.3
BRIDGE_YS = tuple(2.0 ** (-j) for j in range(3, 9))
_BRIDGE_PV_TOL = 1e-9
_SYMBOL_PV_TOL = 1e-8


def _bridge_data(s: float) -> float:
    return math.exp(-s * s)


def bridge_order_fit(sigma: float) -> tuple[float, list[float]]:
    """Fitted exponent of |mu_sigma F(x, y) + (-Lap)^(sigma/2) g(x)| vs y.

    g is the gaussian exp(-s^2), x = 0.3 and y runs over BRIDGE_YS.  The
    theory gives slope 2 - sigma for C^2 data.
    """
    ref = oracles.frac_laplacian_pv(_bridge_data, _BRIDGE_X, sigma, tol=_BRIDGE_PV_TOL)
    v0 = _bridge_data(_BRIDGE_X)
    errs = []
    for y in BRIDGE_YS:
        vy = oracles.poisson_extension(_bridge_data, _BRIDGE_X, y, sigma, tol=1e-11)
        normalized = float(oracles.normalized_sigma_derivative(v0, vy, y, sigma))
        errs.append(max(abs(normalized + ref), 1e-300))
    slope = float(np.polyfit(np.log(BRIDGE_YS), np.log(errs), 1)[0])
    return slope, errs


def run_validate() -> ValidationResult:
    """Cross-module oracle consistency: Fourier symbol, trace bridge, dense solve.

    Calls go through the module attributes (core.mu_sigma,
    oracles.frac_laplacian_pv, ...), so a test can inject a fault there and
    see the matching check fail.
    """
    checks: list[ValidationCheck] = []

    worst = 0.0
    detail = ""
    for sigma in (0.5, 1.0, 1.5):
        for omega in (1.0, 2.0, 3.0):
            for x in (0.0, 0.3):
                try:
                    val = oracles.frac_laplacian_pv(
                        lambda s, w=omega: math.cos(w * s), x, sigma, tol=_SYMBOL_PV_TOL)
                    err = abs(val - omega ** sigma * math.cos(omega * x))
                except QuadratureError as e:
                    err = float(e.achieved) if e.achieved is not None else math.inf
                if err > worst:
                    worst = err
                    detail = f"worst at sigma={sigma}, omega={omega}, x={x}"
    checks.append(ValidationCheck("fourier-symbol", worst <= 1e-6, worst, 1e-6, detail))

    for sigma in (0.5, 1.0, 1.5):
        slope, _ = bridge_order_fit(sigma)
        dev = abs(slope - (2.0 - sigma))
        checks.append(ValidationCheck(
            f"trace-bridge sigma={sigma}", dev <= 0.15, dev, 0.15,
            f"slope {slope:.4f} vs 2-sigma = {2.0 - sigma:.4f}"))

    rng = np.random.default_rng(20240817)
    worst_rel = 0.0
    for I, K, c, d, sigma in ((8, 6, 2, 1, 0.7), (8, 8, 2, 2, 1.5), (6, 4, 2, 1, 1.0)):
        dx = 0.25
        grid = core.Grid(X=I * dx / 2.0, Y=K * dx, I=I, K=K)
        trace = rng.uniform(0.0, 1.0, I - 1)
        op = extension_op.assemble(grid, sigma, c, d)
        sparse_vals = extension_op.solve_interior(op, trace).T
        dense_vals = oracles.dense_extension_solve(I, K, dx, sigma, trace, c, d)
        rel = float(np.abs(sparse_vals - dense_vals).max() / np.abs(dense_vals).max())
        worst_rel = max(worst_rel, rel)
    checks.append(ValidationCheck("dense-equivalence", worst_rel <= 1e-9, worst_rel, 1e-9))

    return ValidationResult(checks=tuple(checks))


# ---------------------------------------------------------------------------
# log-log plot emission (pure text SVG, no graphics dependency)

def write_loglog_svg(report: ConvergenceReport, path) -> None:
    """Error vs dx on log10 axes, with a guide line of the target slope."""
    pts = [(r.dx, r.err_trace) for r in report.rows if r.err_trace > 0.0]
    width, height, margin = 520, 400, 56
    if not pts:
        body = ['<text x="60" y="60" font-size="14">degenerate study: all errors zero</text>']
    else:
        lx = [math.log10(p[0]) for p in pts]
        ly = [math.log10(p[1]) for p in pts]
        # guide line through the last point with the theoretical slope
        gx = [min(lx), max(lx)]
        gy = [ly[-1] + report.target * (v - lx[-1]) for v in gx]
        x_lo, x_hi = min(lx + gx), max(lx + gx)
        y_lo, y_hi = min(ly + gy), max(ly + gy)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0

        def sx(v):
            return margin + (v - x_lo) / x_span * (width - 2 * margin)

        def sy(v):
            return height - margin - (v - y_lo) / y_span * (height - 2 * margin)

        line = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(lx, ly))
        guide = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(gx, gy))
        body = [
            f'<polyline points="{guide}" fill="none" stroke="#999999" '
            f'stroke-dasharray="6,4" stroke-width="1.5"/>',
            f'<polyline points="{line}" fill="none" stroke="#1f6fb2" stroke-width="2"/>',
        ]
        body += [f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="3.5" fill="#1f6fb2"/>'
                 for a, b in zip(lx, ly)]
        body.append(f'<text x="{margin}" y="24" font-size="13" font-family="monospace">'
                    f'sigma={report.sigma:g} m={report.m:g} mode={report.mode.label()} '
                    f'target slope {report.target:g} (dashed)</text>')
        body.append(f'<text x="{width // 2 - 30}" y="{height - 12}" font-size="12" '
                    f'font-family="monospace">log10 dx</text>')
        body.append(f'<text x="12" y="{height // 2}" font-size="12" '
                    f'font-family="monospace" transform="rotate(-90 16 {height // 2})">'
                    f'log10 err</text>')
    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#333333"/>',
        *body,
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(svg) + "\n")
