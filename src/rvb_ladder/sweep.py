"""Full sweeps over ladder sizes, figure CSV emission, and the caption fits."""

import os
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import density, lattice, measures, numerics, state


@dataclass(frozen=True)
class RunConfig:
    sizes: tuple = (3, 4, 5, 6)
    boundary: str = "periodic"
    out_dir: object = None  # path-like or None for in-memory runs
    dump_states: bool = False


@dataclass
class SizeRow:
    m: int
    n: int
    fits: dict  # Edge -> WernerFit, one key per distinct bond
    aggregates: density.EdgeAggregates
    monogamy: measures.MonogamyRecord
    cloning: measures.CloningBoundRecord
    ggm: measures.GgmRecord
    lattice: object
    state: object


@dataclass
class EntanglementReport:
    config: RunConfig
    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (m, message)
    fits: dict = field(default_factory=dict)


def _run_size(m, lat):
    psi = state.rvb_state(lat)
    # ggm refuses a state that is not a total singlet, so the fits skip that check
    gg = measures.ggm(psi)
    fits, agg = density._werner_fits(lat, psi)
    mono = measures.monogamy_check(agg.p_r, agg.p_s)
    clone = measures.cloning_theta_sets(agg.p_r, agg.p_s)
    return SizeRow(m=m, n=lat.n, fits=fits, aggregates=agg, monogamy=mono, cloning=clone,
                   ggm=gg, lattice=lat, state=psi)


def run_sweep(config):
    """Per-size pipeline with continue-on-failure isolation, then fits and CSVs.
    The report holds the checked config: sorted int sizes, a bool dump_states."""
    if not config.sizes:
        raise ValueError("no sizes configured")
    # the site limit is checked before any ladder is built, so an oversized
    # size fails at once; build_ladder owns the checks on m >= 2 and boundary
    sizes = [lattice._integer(m, "size m") for m in config.sizes]
    for m in sizes:
        if 2 * m > measures.MAX_SITES:
            raise ValueError(f"size m={lattice._shorten(m)} has 2m sites, above the "
                             f"limit N <= {measures.MAX_SITES}")
    repeated = [m for m, count in Counter(sizes).items() if count > 1]
    if repeated:
        raise ValueError(f"repeated size m={lattice._shorten(repeated[0])}; "
                         "each size runs once")
    config = replace(config, sizes=tuple(sorted(sizes)), dump_states=bool(config.dump_states))
    ladders = [(m, lattice.build_ladder(m, config.boundary)) for m in config.sizes]
    if config.out_dir is not None:
        _output_dirs(config.out_dir)  # an unusable path fails before any size runs

    report = EntanglementReport(config=config)
    for m, lat in ladders:
        try:
            report.rows.append(_run_size(m, lat))
        except ValueError as exc:  # one bad size must not sink the rest
            report.failures.append((m, str(exc)))
    fit_figures(report)
    if config.out_dir is not None:
        emit_csv(report, config.out_dir)
    return report


def fit_figures(report):
    """Attach the two theta-vs-N fits and the p_r-vs-p_s quadratic (>= 3 sizes),
    None where too few sizes; `fits.csv` lists them in this order."""
    report.fits = {"fig6_linear": None, "fig6_quadratic": None, "fig7_quadratic": None}
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
        report.fits["fig7_quadratic"] = numerics.poly_fit(
            ps, pr, "full_quadratic")  # singular fits propagate
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


def _write_fig5(path):
    """The monogamy surface, one write per grid row (one p_r).

    Same bytes as `_write_csv` on rows of floats. Both columns sample the
    sampler's axis, so its values are formatted once, by `_fmt`, into one
    bytes row template `b"\\0,<p_s>,%.12g\\n"` per axis value. Each grid
    row puts its p_r text in place of the NUL marks and formats its
    surface values with one `%`. Bytes `%` and `format` with
    `_fmt`'s spec call the same CPython routine (`PyOS_double_to_string`,
    mode 'g', precision 12), so the text is `_fmt`'s; the axis text holds no
    `%` or NUL to be misread.
    """
    axis, surface = measures.monogamy_surface_sample()
    axis = [_fmt(v).encode() for v in axis.tolist()]
    template = b"".join(b"\0," + p_s + b",%.12g\n" for p_s in axis)
    with open(path, "wb") as fh:
        fh.write(b"p_r,p_s,surface_value\n")
        for p_r, row in zip(axis, surface.tolist()):
            fh.write(template.replace(b"\0", p_r) % tuple(row))


def _output_dirs(out_dir):
    """Create `out_dir` and its detail/ subdirectory; return both paths.
    An empty path is refused: `Path("")` is the working directory."""
    if not os.fspath(out_dir):
        raise ValueError("output directory path is empty")
    out = Path(out_dir)
    detail = out / "detail"
    detail.mkdir(parents=True, exist_ok=True)
    return out, detail


def _interval_str(interval):
    return "" if interval is None else ":".join(_fmt(v) for v in interval)


def emit_csv(report, out_dir):
    """Write the seven figure CSVs plus per-module detail tables.

    Figure files land in `out_dir` itself; the edge/aggregate/measure tables
    and the fit summary go to `out_dir`/detail. Deterministic bytes, 12
    significant digits, in the order `run_sweep` returns the report.
    """
    out, detail = _output_dirs(out_dir)
    rows = report.rows
    cfg = report.config

    _write_csv(out / "fig2_p_rail.csv", ["n", "p_r"],
               [(r.n, r.aggregates.p_r) for r in rows])
    _write_csv(out / "fig3_p_step.csv", ["n", "p_s"],
               [(r.n, r.aggregates.p_s) for r in rows])
    _write_csv(out / "fig4_p_avg.csv", ["n", "p_avg"],
               [(r.n, r.aggregates.p_avg) for r in rows])
    _write_fig5(out / "fig5_monogamy_surface.csv")
    _write_csv(out / "fig6_theta_max.csv", ["n", "theta_max"],
               [(r.n, r.cloning.theta_max) for r in rows])
    _write_csv(out / "fig7_pr_vs_ps.csv", ["n", "p_s", "p_r"],
               [(r.n, r.aggregates.p_s, r.aggregates.p_r) for r in rows])
    _write_csv(out / "fig8_ggm.csv", ["n", "ggm"],
               [(r.n, r.ggm.value) for r in rows])

    _write_csv(detail / "edges.csv", ["n", "m", "boundary", "edge_a", "edge_b", "kind", "p"],
               [(r.n, r.m, cfg.boundary, e.a, e.b, e.kind, r.fits[e].p)
                for r in rows for e in r.lattice.edges])
    agg_rows = []
    for r in rows:
        ps = (r.aggregates.p_r, r.aggregates.p_s, r.aggregates.p_avg)
        # teleportation fidelity F = (p + 1)/2 through a Werner edge state
        agg_rows.append((r.n, *ps, *(None if p is None else (p + 1.0) / 2.0 for p in ps)))
    _write_csv(detail / "aggregates.csv",
               ["n", "p_r", "p_s", "p_avg", "F_r", "F_s", "F_avg"], agg_rows)
    _write_csv(detail / "monogamy.csv",
               ["n", "p_r", "p_s", "lhs", "tangle_rail", "tangle_step", "satisfied"],
               [(r.n, r.aggregates.p_r, r.aggregates.p_s, r.monogamy.lhs,
                 r.monogamy.tangle_rail, r.monogamy.tangle_step, r.monogamy.satisfied)
                for r in rows])
    _write_csv(detail / "cloning.csv",
               ["n", "p_r", "p_s", "theta_max", "s1_intervals", "s2_intervals", "margin"],
               [(r.n, r.aggregates.p_r, r.aggregates.p_s, r.cloning.theta_max,
                 _interval_str(r.cloning.s1), _interval_str(r.cloning.s2),
                 r.cloning.margin)
                for r in rows])
    # steps_on_A_side counts the step bonds with both ends on the GGM mask's side
    _write_csv(detail / "ggm.csv",
               ["n", "ggm", "max_schmidt_sq", "maximizing_partition", "steps_on_A_side"],
               [(r.n, r.ggm.value, r.ggm.max_schmidt_sq, f"{r.ggm.mask:#x}",
                 sum((r.ggm.mask >> e.a) & (r.ggm.mask >> e.b) & 1
                     for e in r.lattice.edges if e.kind == "step")) for r in rows])

    fit_rows = []
    for name, fit in report.fits.items():
        if fit is None:
            continue
        coeff = list(fit.coefficients) + [None] * (3 - len(fit.coefficients))
        fit_rows.append((name, fit.model, coeff[0], coeff[1], coeff[2], fit.mse))
    _write_csv(detail / "fits.csv", ["figure", "model", "c0", "c1", "c2", "mse"], fit_rows)

    with open(detail / "config.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"sizes={','.join(str(m) for m in cfg.sizes)}\n"
                 f"boundary={cfg.boundary}\n"
                 f"dump_states={cfg.dump_states}\n")

    if cfg.dump_states:
        for r in rows:
            state.dump_state(r.state, out / f"state_n{r.n}.txt", r.m, cfg.boundary)
