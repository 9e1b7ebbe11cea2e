"""Full sweeps over ladder sizes, figure CSV emission, and the caption fits."""

from dataclasses import dataclass, field
from pathlib import Path

from . import density, lattice, measures, numerics, state

FIG7_REFERENCE = (0.67, 0.241, -0.858)  # published quadratic, constant term first


@dataclass(frozen=True)
class RunConfig:
    sizes: tuple = (3, 4, 5, 6)
    boundary: str = "periodic"
    odd_wrap: str = "twist"
    out_dir: object = None  # path-like or None for in-memory runs
    theta_tol: float = 1e-9
    dump_states: bool = False
    surface_res: int = 100


@dataclass
class SizeRow:
    m: int
    n: int
    boundary: str
    odd_wrap: str
    covering_count: int
    total_spin_sq: float
    fits: dict  # Edge -> WernerFit
    aggregates: density.EdgeAggregates
    p_avg: object  # float, or None when no degree-3 site exists
    F_r: float
    F_s: float
    F_avg: float
    monogamy: measures.MonogamyRecord
    cloning: measures.CloningBoundRecord
    ggm: measures.GgmRecord
    steps_on_a_side: int
    column_aligned_tied_mask: object  # int, or None if no tied split is column-aligned
    lattice: object
    state: object


@dataclass
class EntanglementReport:
    config: RunConfig
    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (m, message)
    fits: dict = field(default_factory=dict)


def _column_mask_info(mask, m):
    """(#whole columns inside the mask side, is the mask a union of whole columns)."""
    inside = 0
    aligned = True
    for c in range(m):
        top = (mask >> c) & 1
        bot = (mask >> (c + m)) & 1
        if top and bot:
            inside += 1
        elif top != bot:
            aligned = False
    return inside, aligned


def _run_size(m, config):
    lat = lattice.build_ladder(m, config.boundary, config.odd_wrap)
    coverings = lattice.enumerate_coverings(lat)
    if not coverings:
        raise RuntimeError("no dimer covering exists")
    count = lattice.count_coverings(lat)
    if count != len(coverings):
        raise RuntimeError(f"covering count mismatch: permanent {count} vs enumerated {len(coverings)}")
    psi = state.rvb_state(lat)
    spin_sq = state.total_spin_squared(psi)
    if spin_sq > 1e-10:
        raise RuntimeError(f"state is not a total singlet: S^2 = {spin_sq:.3e}")

    fits, agg = density.edge_werner_parameters(lat, psi)
    deg3 = [s for s in lat.sites if lat.degree(s) == 3]
    p_avg = None
    if deg3:
        p_avg = sum(density.regional_entanglement(lat, fits, s) for s in deg3) / len(deg3)
    F_r, F_s, F_avg = density.teleportation_fidelities(agg.p_r, agg.p_s)
    mono = measures.monogamy_check(agg.p_r, agg.p_s)
    clone = measures.cloning_theta_sets(agg.p_r, agg.p_s, theta_tol=config.theta_tol)
    gg = measures.ggm(psi, symmetries=lattice.automorphisms(lat))
    steps_inside, _ = _column_mask_info(gg.mask, m)
    aligned_mask = None
    for tied in gg.tied_masks:
        _, ok = _column_mask_info(tied, m)
        if ok:
            aligned_mask = tied
            break

    return SizeRow(m=m, n=lat.n, boundary=config.boundary, odd_wrap=config.odd_wrap,
                   covering_count=count, total_spin_sq=spin_sq, fits=fits,
                   aggregates=agg, p_avg=p_avg, F_r=F_r, F_s=F_s, F_avg=F_avg,
                   monogamy=mono, cloning=clone, ggm=gg,
                   steps_on_a_side=steps_inside,
                   column_aligned_tied_mask=aligned_mask, lattice=lat, state=psi)


def run_sweep(config):
    """Per-size pipeline with continue-on-failure isolation, then fits and CSVs."""
    if not config.sizes:
        raise ValueError("no sizes configured")
    for m in config.sizes:
        if m < 2 or 2 * m > measures.MAX_SITES:
            raise ValueError(f"size m={m} outside the supported range "
                             f"(2 <= m, N <= {measures.MAX_SITES})")
    if config.boundary not in lattice.BOUNDARIES:
        raise ValueError(f"bad boundary {config.boundary!r}")
    if config.odd_wrap not in lattice.ODD_WRAPS:
        raise ValueError(f"bad odd_wrap {config.odd_wrap!r}")

    report = EntanglementReport(config=config)
    for m in sorted(config.sizes):
        try:
            report.rows.append(_run_size(m, config))
        except (ValueError, RuntimeError) as exc:  # one bad size must not sink the rest
            report.failures.append((m, str(exc)))
    fit_figures(report)
    if config.out_dir is not None:
        emit_csv(report, config.out_dir)
    return report


def fit_figures(report):
    """Attach the two theta-vs-N fits and the p_r-vs-p_s quadratic (>= 3 sizes)."""
    report.fits = {"fig6_linear": None, "fig6_quadratic": None,
                   "fig7_quadratic": None, "fig7_reference_delta": None}
    theta_rows = [(r.n, r.cloning.theta_max) for r in report.rows
                  if r.cloning.theta_max is not None]
    if len(theta_rows) >= 3:
        ns = [n for n, _ in theta_rows]
        thetas = [t for _, t in theta_rows]
        report.fits["fig6_linear"] = numerics.poly_fit(ns, thetas, "linear")
        report.fits["fig6_quadratic"] = numerics.poly_fit(ns, thetas, "quadratic_no_linear_term")
    if len(report.rows) >= 3:
        ps = [r.aggregates.p_s for r in report.rows]
        pr = [r.aggregates.p_r for r in report.rows]
        fit7 = numerics.poly_fit(ps, pr, "full_quadratic")  # singular fits propagate
        report.fits["fig7_quadratic"] = fit7
        report.fits["fig7_reference_delta"] = tuple(
            c - ref for c, ref in zip(fit7.coefficients, FIG7_REFERENCE))
    return report


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _intervals_str(intervals):
    return ";".join(f"{format(lo, '.12g')}:{format(hi, '.12g')}" for lo, hi in intervals)


def emit_csv(report, out_dir):
    """Write the seven figure CSVs plus per-module detail tables.

    Figure files land in `out_dir` itself; the edge/aggregate/measure tables
    and the fit summary go to `out_dir`/detail. Deterministic bytes for a
    given report (12 significant digits everywhere).
    """
    out = Path(out_dir)
    detail = out / "detail"
    out.mkdir(parents=True, exist_ok=True)
    detail.mkdir(parents=True, exist_ok=True)
    rows = sorted(report.rows, key=lambda r: r.n)
    cfg = report.config

    _write_csv(out / "fig2_p_rail.csv", ["n", "p_r"],
               [(r.n, r.aggregates.p_r) for r in rows])
    _write_csv(out / "fig3_p_step.csv", ["n", "p_s"],
               [(r.n, r.aggregates.p_s) for r in rows])
    _write_csv(out / "fig4_p_avg.csv", ["n", "p_avg"],
               [(r.n, r.p_avg) for r in rows])
    surface = measures.monogamy_surface_sample(cfg.surface_res)
    _write_csv(out / "fig5_monogamy_surface.csv", ["p_r", "p_s", "surface_value"],
               [(float(a), float(b), float(c)) for a, b, c in surface])
    _write_csv(out / "fig6_theta_max.csv", ["n", "theta_max"],
               [(r.n, r.cloning.theta_max) for r in rows])
    _write_csv(out / "fig7_pr_vs_ps.csv", ["n", "p_s", "p_r"],
               [(r.n, r.aggregates.p_s, r.aggregates.p_r) for r in rows])
    _write_csv(out / "fig8_ggm.csv", ["n", "ggm"],
               [(r.n, r.ggm.value) for r in rows])

    edge_rows = []
    for r in rows:
        for e in r.lattice.edges:
            f = r.fits[e]
            edge_rows.append((r.n, r.m, r.boundary, e.a, e.b, e.kind,
                              e.dimer_allowed, f.p, f.residual))
    _write_csv(detail / "edges.csv",
               ["n", "m", "boundary", "edge_a", "edge_b", "kind", "allowed", "p", "residual"],
               edge_rows)
    _write_csv(detail / "aggregates.csv",
               ["n", "p_r", "p_s", "p_avg", "F_r", "F_s", "F_avg"],
               [(r.n, r.aggregates.p_r, r.aggregates.p_s, r.p_avg, r.F_r, r.F_s, r.F_avg)
                for r in rows])
    _write_csv(detail / "monogamy.csv",
               ["n", "p_r", "p_s", "lhs", "tangle_rail", "tangle_step", "satisfied"],
               [(r.n, r.monogamy.p_r, r.monogamy.p_s, r.monogamy.lhs,
                 r.monogamy.tangle_rail, r.monogamy.tangle_step, r.monogamy.satisfied)
                for r in rows])
    _write_csv(detail / "cloning.csv",
               ["n", "p_r", "p_s", "theta_max", "s1_intervals", "s2_intervals"],
               [(r.n, r.cloning.p_r, r.cloning.p_s, r.cloning.theta_max,
                 _intervals_str(r.cloning.s1), _intervals_str(r.cloning.s2))
                for r in rows])
    _write_csv(detail / "ggm.csv",
               ["n", "ggm", "max_schmidt_sq", "maximizing_partition", "steps_on_A_side"],
               [(r.n, r.ggm.value, r.ggm.max_schmidt_sq, f"{r.ggm.mask:#x}",
                 r.steps_on_a_side) for r in rows])

    fit_rows = []
    for name in ("fig6_linear", "fig6_quadratic", "fig7_quadratic"):
        fit = report.fits.get(name)
        if fit is None:
            continue
        coeff = list(fit.coefficients) + [None] * (3 - len(fit.coefficients))
        fit_rows.append((name, fit.model, coeff[0], coeff[1], coeff[2], fit.mse))
    _write_csv(detail / "fits.csv", ["figure", "model", "c0", "c1", "c2", "mse"], fit_rows)

    with open(detail / "config.txt", "w", encoding="utf-8") as fh:
        fh.write(f"sizes={','.join(str(m) for m in sorted(cfg.sizes))}\n"
                 f"boundary={cfg.boundary}\nodd_wrap={cfg.odd_wrap}\n"
                 f"theta_tol={format(cfg.theta_tol, '.12g')}\n"
                 f"surface_res={cfg.surface_res}\ndump_states={cfg.dump_states}\n")

    if cfg.dump_states:
        for r in rows:
            state.dump_state(r.state, out / f"state_n{r.n}.txt", r.m, r.boundary)
