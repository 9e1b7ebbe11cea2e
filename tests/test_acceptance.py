"""Acceptance suite: one test per shipped criterion, one PASS/FAIL line each.

Criteria 1 and 6 check the size trends of the paper's geometric claim: on a
ladder the steps carry more bipartite entanglement than the rails, so with
growing N p_s rises while p_r, p_avg, GGM and theta_max fall. The trends are
asserted only at sizes where rails and steps are distinct bonds. At N = 6
(the twisted ring is K3,3) and N = 8 (the periodic ladder is the cube) a
symmetry of the lattice maps a step onto a rail, so every correct program
gives p_s = p_r there and the trends cannot hold across those sizes. Such
sizes are found from the lattice group (`oracles.automorphisms`), not
listed by hand, and at each of them the suite asserts p_s = p_r instead. The trends run over the remaining sizes
of the paper sweep and of an extended N = 10..16 sweep. The analysis is in
docs/decisions.md.
"""

import math
import time

import numpy as np
import pytest

from rvb_ladder import (RunConfig, build_ladder, count_coverings,
                        edge_werner_parameters, enumerate_coverings, ggm,
                        partial_trace, poly_fit, run_sweep, rvb_state,
                        total_spin_squared)

import oracles

CAPTION_LINEAR = (0.747664, -0.0185155)
CAPTION_QUADRATIC = (0.671077, -0.0010471)


@pytest.fixture(scope="module")
def paper_run():
    t0 = time.perf_counter()
    report = run_sweep(RunConfig(sizes=(3, 4, 5, 6), boundary="periodic",
                                 odd_wrap="twist", out_dir=None))
    elapsed = time.perf_counter() - t0
    assert not report.failures, report.failures
    return report, elapsed


@pytest.fixture(scope="module")
def extended_run():
    report = run_sweep(RunConfig(sizes=(5, 6, 7, 8), boundary="periodic",
                                 odd_wrap="twist", out_dir=None))
    assert not report.failures, report.failures
    return report


def _rails_equal_steps(lattice):
    """True when a symmetry of the lattice maps a dimer-allowed step onto a rail."""
    rails = {frozenset((e.a, e.b)) for e in lattice.edges if e.kind == "rail"}
    steps = [e for e in lattice.edges if e.kind == "step" and e.dimer_allowed]
    return any(frozenset((g[e.a], g[e.b])) in rails
               for g in oracles.automorphisms(lattice) for e in steps)


def _split_by_geometry(*reports):
    """One row per size from all reports, in size order, split into the sizes
    where rails and steps are equivalent bonds and the sizes where they are
    distinct, plus a detail string naming both groups."""
    by_n = {}
    for report in reports:
        for row in report.rows:
            by_n.setdefault(row.n, row)
    aside, trend = [], []
    for n in sorted(by_n):
        (aside if _rails_equal_steps(by_n[n].lattice) else trend).append(by_n[n])
    context = (f"set aside as rails = steps: N = {[r.n for r in aside]}; "
               f"trends over N = {[r.n for r in trend]}")
    return aside, trend, context


def _verdict(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" — {detail}"
    print(line)
    assert ok, detail


def _strictly(values, direction, margin=1e-6):
    deltas = [b - a for a, b in zip(values, values[1:])]
    if direction == "decreasing":
        deltas = [-d for d in deltas]
    return all(d > margin for d in deltas)


def test_criterion_1_trend_reproduction(paper_run, extended_run):
    report, elapsed = paper_run
    aside, trend, context = _split_by_geometry(report, extended_run)
    problems = []
    for row in aside:
        gap = abs(row.aggregates.p_s - row.aggregates.p_r)
        if gap > 1e-12:
            problems.append(f"n={row.n} |p_s - p_r| = {gap:.2e} > 1e-12")
    if len(trend) < 4:
        problems.append(f"only {len(trend)} trend sizes, need 4")
    p_r = [r.aggregates.p_r for r in trend]
    p_s = [r.aggregates.p_s for r in trend]
    p_avg = [r.p_avg for r in trend]
    ggm_vals = [r.ggm.value for r in trend]
    if not _strictly(p_r, "decreasing"):
        problems.append(f"p_r not strictly decreasing: {p_r}")
    if not _strictly(p_s, "increasing"):
        problems.append(f"p_s not strictly increasing: {p_s}")
    if not _strictly(p_avg, "decreasing"):
        problems.append(f"p_avg not strictly decreasing: {p_avg}")
    if not _strictly(ggm_vals, "decreasing"):
        problems.append(f"GGM not strictly decreasing: {ggm_vals}")
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _verdict(1, "trend reproduction", not problems, "; ".join([context] + problems))


def test_criterion_2_werner_form(paper_run):
    report, _ = paper_run
    worst_edge = 0.0
    worst_site = 0.0
    for row in report.rows:
        for fit in row.fits.values():
            worst_edge = max(worst_edge, fit.residual)
        for s in row.lattice.sites:
            rho = partial_trace(row.state, [s])
            worst_site = max(worst_site, float(np.max(np.abs(rho - np.eye(2) / 2.0))))
    ok = worst_edge < 1e-8 and worst_site < 1e-10
    _verdict(2, "Werner-form marginals", ok,
             f"worst edge residual {worst_edge:.2e}, worst site deviation {worst_site:.2e}")


def test_criterion_3_total_singlet(paper_run):
    report, _ = paper_run
    worst = max(r.ggm.total_spin_sq for r in report.rows)
    _verdict(3, "total-singlet property", worst < 1e-10, f"max S^2 = {worst:.2e}")


def test_criterion_4_monogamy_containment(paper_run):
    report, _ = paper_run
    problems = []
    for row in report.rows:
        if not row.monogamy.satisfied:
            problems.append(f"n={row.n} fails the clamped check")
        if row.monogamy.lhs > 1.0 + 1e-9:
            problems.append(f"n={row.n} lhs {row.monogamy.lhs} > 1+1e-9")
        if row.aggregates.p_r > 0.8:
            problems.append(f"n={row.n} p_r {row.aggregates.p_r} > 0.8")
    _verdict(4, "monogamy containment", not problems, "; ".join(problems))


def test_criterion_5_cloning_containment(paper_run):
    report, _ = paper_run
    missing = [row.n for row in report.rows if row.cloning.theta_max is None]
    _verdict(5, "cloning-bound containment", not missing,
             f"no common angle at n = {missing}")


def test_criterion_6_theta_trend_and_fit(paper_run, extended_run):
    report, _ = paper_run
    _, trend, context = _split_by_geometry(report, extended_run)
    thetas = [r.cloning.theta_max for r in trend]
    problems = []
    if len(trend) < 4:
        problems.append(f"only {len(trend)} trend sizes, need 4")
    if not _strictly(thetas, "decreasing"):
        problems.append(f"theta_max not strictly decreasing: "
                        f"{[format(t, '.6f') for t in thetas]}")

    lin = report.fits["fig6_linear"]
    if lin.coefficients[1] >= 0.0:
        problems.append(f"linear fit slope {lin.coefficients[1]} not negative")

    # round trip: the caption models' own synthetic values must be refit exactly
    ns = [r.n for r in report.rows]
    synth_lin = [CAPTION_LINEAR[0] + CAPTION_LINEAR[1] * n for n in ns]
    refit_lin = poly_fit(ns, synth_lin, "linear")
    synth_quad = [CAPTION_QUADRATIC[0] + CAPTION_QUADRATIC[1] * n * n for n in ns]
    refit_quad = poly_fit(ns, synth_quad, "quadratic_no_linear_term")
    for refit, caption, label in ((refit_lin, CAPTION_LINEAR, "linear"),
                                  (refit_quad, CAPTION_QUADRATIC, "quadratic")):
        if refit.mse >= 1e-12:
            problems.append(f"{label} round-trip MSE {refit.mse:.2e} >= 1e-12")
        if any(abs(c - want) > 1e-9 for c, want in zip(refit.coefficients, caption)):
            problems.append(f"{label} round-trip coefficients {refit.coefficients}")

    # loose direct agreement with the caption (25% relative)
    quad = report.fits["fig6_quadratic"]
    for got, want, label in ((lin.coefficients, CAPTION_LINEAR, "linear"),
                             (quad.coefficients, CAPTION_QUADRATIC, "quadratic")):
        for c, w in zip(got, want):
            if abs(c - w) > 0.25 * abs(w):
                problems.append(f"{label} coefficient {c} vs caption {w} off > 25%")

    _verdict(6, "theta_max trend and fit", not problems,
             "; ".join([context] + problems))


def test_criterion_7_oracle_equivalence():
    problems = []
    for m, edges in ((2, oracles.M2_OPEN_EDGES), (3, oracles.M3_OPEN_EDGES)):
        lat = build_ladder(m, "open")
        coverings = enumerate_coverings(lat)
        oracle_covs = oracles.brute_force_coverings(lat.n, edges)
        if coverings != oracle_covs or count_coverings(lat) != len(oracle_covs):
            problems.append(f"m={m} covering mismatch")
            continue
        psi = rvb_state(lat)
        want = oracles.oracle_state(oracle_covs, lat.n)
        if np.max(np.abs(psi - want)) > 1e-10:
            problems.append(f"m={m} amplitude mismatch")
        fits, _ = edge_werner_parameters(lat, psi)
        for e, fit in fits.items():
            rho = oracles.oracle_partial_trace(psi, [e.a, e.b])
            if abs(fit.p - oracles.oracle_werner_p(rho)) > 1e-10:
                problems.append(f"m={m} edge ({e.a},{e.b}) p mismatch")
        if abs(ggm(psi).value - oracles.oracle_ggm(psi)) > 1e-10:
            problems.append(f"m={m} GGM mismatch")
    _verdict(7, "oracle equivalence at tiny scale", not problems, "; ".join(problems))


def test_criterion_8_ggm_split_structure(paper_run):
    report, _ = paper_run
    problems = []
    for row in report.rows:
        mask = oracles.column_aligned_tied_mask(row.ggm.tied_masks, row.m)
        if mask is None:
            problems.append(f"n={row.n}: no maximizing bipartition splits along columns")
            continue
        m = row.m
        # whole-column membership: no step may be cut by the split
        for c in range(m):
            if ((mask >> c) & 1) != ((mask >> (c + m)) & 1):
                problems.append(f"n={row.n}: mask {mask:#x} cuts the step in column {c}")
        # the column-aligned split genuinely attains the recorded maximum
        keep = [k for k in range(row.n) if (mask >> k) & 1]
        top = float(np.linalg.eigvalsh(partial_trace(row.state, keep))[-1])
        if abs(top - row.ggm.max_schmidt_sq) > 1e-11:
            problems.append(f"n={row.n}: column split lambda^2 {top} "
                            f"!= max {row.ggm.max_schmidt_sq}")
    _verdict(8, "GGM maximizing-split structure", not problems, "; ".join(problems))
