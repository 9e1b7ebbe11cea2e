"""End-to-end sweep pipeline, CSV emission, determinism, CLI."""

import math

import numpy as np
import pytest

import rvb_ladder
from rvb_ladder import EntanglementReport, RunConfig, run_sweep
from rvb_ladder import cli, measures, sweep

import oracles

FIG_FILES = ("fig2_p_rail.csv", "fig3_p_step.csv", "fig4_p_avg.csv",
             "fig5_monogamy_surface.csv", "fig6_theta_max.csv",
             "fig7_pr_vs_ps.csv", "fig8_ggm.csv")
# the paper's guide curve p_r(p_s) for Fig. 7, constant term first
FIG7_REFERENCE = (0.67, 0.241, -0.858)


@pytest.fixture(scope="module")
def twist_report():
    return run_sweep(RunConfig(sizes=(3, 4, 5, 6), out_dir=None))


def test_rows_sorted_and_complete(twist_report):
    assert [r.n for r in twist_report.rows] == [6, 8, 10, 12]
    assert twist_report.failures == []
    for row in twist_report.rows:
        exp = oracles.EXPECTED[(row.m, "periodic", "twist")]
        assert row.covering_count == exp["count"]
        assert abs(row.aggregates.p_r - float(exp["p_r"])) < 1e-11
        assert abs(row.aggregates.p_s - float(exp["p_s"])) < 1e-11
        assert abs(row.p_avg - float(exp["p_avg"])) < 1e-11
        assert abs(row.ggm.value - float(exp["ggm"])) < 1e-11
        assert row.cloning.theta_max == pytest.approx(exp["theta"], abs=2e-9)
        assert row.monogamy.satisfied
        assert row.ggm.total_spin_sq < 1e-10
        assert oracles.column_aligned_tied_mask(row.ggm.tied_masks, row.m) is not None


def test_fidelities_consistent(twist_report):
    for row in twist_report.rows:
        assert row.F_r == pytest.approx((row.aggregates.p_r + 1.0) / 2.0)
        assert row.F_s == pytest.approx((row.aggregates.p_s + 1.0) / 2.0)
        assert row.F_avg == pytest.approx((2.0 * row.F_r + row.F_s) / 3.0)


def test_row_cross_identities(twist_report):
    for row in twist_report.rows:
        # every site touches two rails and one step, so the regional mean
        # and the averaged fidelity describe the same quantity
        assert row.F_avg == pytest.approx((row.p_avg + 1.0) / 2.0, abs=1e-12)
        assert row.cloning.theta_max is not None
        assert 0.0 <= row.cloning.theta_max <= math.pi / 2.0
        assert 0.0 <= row.ggm.value < 1.0
        assert row.monogamy.satisfied


def test_fig6_fit_attached(twist_report):
    lin = twist_report.fits["fig6_linear"]
    quad = twist_report.fits["fig6_quadratic"]
    assert lin is not None and quad is not None
    assert abs(lin.coefficients[0] - 0.748197193713) < 1e-8
    assert abs(lin.coefficients[1] - (-0.018563929125)) < 1e-8
    assert abs(lin.mse - 6.095977e-4) < 1e-9
    assert abs(quad.coefficients[0] - 0.671384192343) < 1e-8
    assert abs(quad.coefficients[1] - (-0.001049562334)) < 1e-8
    assert abs(quad.mse - 5.305083e-4) < 1e-9


def test_fig7_fit_reports_reference_deviation(twist_report):
    fit = twist_report.fits["fig7_quadratic"]
    assert fit is not None
    delta = [c - ref for c, ref in zip(fit.coefficients, FIG7_REFERENCE, strict=True)]
    # the published guide curve is not a least-squares fit of these points;
    # the deviation is recorded, not gated
    assert max(abs(d) for d in delta) > 0.1


def test_emit_csv_file_set(tmp_path):
    run_sweep(RunConfig(sizes=(3, 4), out_dir=tmp_path / "out", surface_res=10))
    out = tmp_path / "out"
    root_csvs = sorted(p.name for p in out.glob("*.csv"))
    assert root_csvs == sorted(FIG_FILES)
    detail = out / "detail"
    assert sorted(p.name for p in detail.iterdir()) == [
        "aggregates.csv", "cloning.csv", "config.txt", "edges.csv",
        "fits.csv", "ggm.csv", "monogamy.csv"]


def test_csv_contents(tmp_path):
    out = tmp_path / "out"
    run_sweep(RunConfig(sizes=(3, 4, 5, 6), out_dir=out, surface_res=10))

    lines = (out / "fig2_p_rail.csv").read_text().splitlines()
    assert lines[0] == "n,p_r"
    assert len(lines) == 5
    n, p_r = lines[1].split(",")
    assert n == "6" and abs(float(p_r) - 5.0 / 9.0) < 1e-11
    assert p_r == "0.555555555556"  # 12 significant digits

    surface = (out / "fig5_monogamy_surface.csv").read_text().splitlines()
    assert surface[0] == "p_r,p_s,surface_value"
    assert len(surface) == 10 * 10 + 1

    theta_lines = (out / "fig6_theta_max.csv").read_text().splitlines()
    assert theta_lines[0] == "n,theta_max"
    assert float(theta_lines[1].split(",")[1]) == pytest.approx(
        math.asin(1.0 / math.sqrt(3.0)), abs=2e-9)

    fig7 = (out / "fig7_pr_vs_ps.csv").read_text().splitlines()
    assert fig7[0] == "n,p_s,p_r"

    config = (out / "detail" / "config.txt").read_text()
    assert "boundary=periodic" in config
    assert "odd_wrap=twist" in config
    assert "theta_tol" not in config

    cloning = (out / "detail" / "cloning.csv").read_text().splitlines()
    assert cloning[0] == "n,p_r,p_s,theta_max,s1_intervals,s2_intervals,margin"
    assert cloning[1].startswith("6,")
    assert abs(float(cloning[1].split(",")[-1])) <= 1e-12  # N = 6 windows touch

    edges = (out / "detail" / "edges.csv").read_text().splitlines()
    assert edges[0] == "n,m,boundary,edge_a,edge_b,kind,allowed,p,residual"
    assert len(edges) == 1 + 9 + 12 + 15 + 18  # header + per-size edge counts
    assert all(line.split(",")[6] in ("true", "false") for line in edges[1:])


def test_csv_empty_cells_for_missing_values(tmp_path):
    out = tmp_path / "out"
    run_sweep(RunConfig(sizes=(2, 3), boundary="open", out_dir=out,
                        surface_res=5))
    fig4 = (out / "fig4_p_avg.csv").read_text().splitlines()
    assert fig4[1] == "4,"  # the 4-site open ladder has no degree-3 site
    assert fig4[2].startswith("6,0.515151515")
    fig6 = (out / "fig6_theta_max.csv").read_text().splitlines()
    assert fig6[1] == "4," and fig6[2] == "6,"  # no feasible cloning angle


def test_reruns_are_byte_identical(tmp_path):
    cfg_a = RunConfig(sizes=(3, 4), out_dir=tmp_path / "a", surface_res=25)
    cfg_b = RunConfig(sizes=(3, 4), out_dir=tmp_path / "b", surface_res=25)
    run_sweep(cfg_a)
    run_sweep(cfg_b)
    files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name


# the figure CSVs of `rvb-ladder sweep` at its defaults (m = 3..6, periodic,
# twisted); fig5 is pinned against oracles.reference_fig5_csv instead
DEFAULT_SWEEP_FIGURES = {
    "fig2_p_rail.csv": (
        "n,p_r\n"
        "6,0.555555555556\n"
        "8,0.52380952381\n"
        "10,0.442786069652\n"
        "12,0.418604651163\n"),
    "fig3_p_step.csv": (
        "n,p_s\n"
        "6,0.555555555556\n"
        "8,0.52380952381\n"
        "10,0.641791044776\n"
        "12,0.666666666667\n"),
    "fig4_p_avg.csv": (
        "n,p_avg\n"
        "6,0.555555555556\n"
        "8,0.52380952381\n"
        "10,0.50912106136\n"
        "12,0.501291989664\n"),
    "fig6_theta_max.csv": (
        "n,theta_max\n"
        "6,0.61547970867\n"
        "8,0.640522312679\n"
        "10,0.544886529386\n"
        "12,0.523598775598\n"),
    "fig7_pr_vs_ps.csv": (
        "n,p_s,p_r\n"
        "6,0.555555555556,0.555555555556\n"
        "8,0.52380952381,0.52380952381\n"
        "10,0.641791044776,0.442786069652\n"
        "12,0.666666666667,0.418604651163\n"),
    "fig8_ggm.csv": (
        "n,ggm\n"
        "6,0.333333333333\n"
        "8,0.28373015873\n"
        "10,0.24893097169\n"
        "12,0.225555700263\n"),
}
# the same figures of `rvb-ladder sweep --boundary open`, whose corner sites
# have degree 2 and are left out of p_avg
DEFAULT_OPEN_SWEEP_FIGURES = {
    "fig2_p_rail.csv": (
        "n,p_r\n"
        "6,0.454545454545\n"
        "8,0.455782312925\n"
        "10,0.427860696517\n"
        "12,0.422274325909\n"),
    "fig3_p_step.csv": (
        "n,p_s\n"
        "6,0.757575757576\n"
        "8,0.714285714286\n"
        "10,0.729353233831\n"
        "12,0.721766314967\n"),
    "fig4_p_avg.csv": (
        "n,p_avg\n"
        "6,0.515151515152\n"
        "8,0.496598639456\n"
        "10,0.498065229409\n"
        "12,0.496287612349\n"),
    "fig6_theta_max.csv": (
        "n,theta_max\n"
        "6,\n"
        "8,0.481275373942\n"
        "10,0.467368602335\n"
        "12,0.474405719418\n"),
    "fig7_pr_vs_ps.csv": (
        "n,p_s,p_r\n"
        "6,0.757575757576,0.454545454545\n"
        "8,0.714285714286,0.455782312925\n"
        "10,0.729353233831,0.427860696517\n"
        "12,0.721766314967,0.422274325909\n"),
    "fig8_ggm.csv": (
        "n,ggm\n"
        "6,0.136363636364\n"
        "8,0.0622237788764\n"
        "10,0.0903481388765\n"
        "12,0.0783033175692\n"),
}
DEFAULT_SWEEP_DETAILS = {
    "detail/aggregates.csv": (
        "n,p_r,p_s,p_avg,F_r,F_s,F_avg\n"
        "6,0.555555555556,0.555555555556,0.555555555556,"
        "0.777777777778,0.777777777778,0.777777777778\n"
        "8,0.52380952381,0.52380952381,0.52380952381,0.761904761905,"
        "0.761904761905,0.761904761905\n"
        "10,0.442786069652,0.641791044776,0.50912106136,"
        "0.721393034826,0.820895522388,0.75456053068\n"
        "12,0.418604651163,0.666666666667,0.501291989664,"
        "0.709302325581,0.833333333333,0.750645994832\n"),
    "detail/monogamy.csv": (
        "n,p_r,p_s,lhs,tangle_rail,tangle_step,satisfied\n"
        "6,0.555555555556,0.555555555556,0.333333333333,"
        "0.111111111111,0.111111111111,true\n"
        "8,0.52380952381,0.52380952381,0.244897959184,"
        "0.0816326530612,0.0816326530612,true\n"
        "10,0.442786069652,0.641791044776,0.267988416128,"
        "0.0269547783471,0.214078859434,true\n"
        "12,0.418604651163,0.666666666667,0.2827203894,0.0163601946998,0.25,true\n"),
    "detail/ggm.csv": (
        "n,ggm,max_schmidt_sq,maximizing_partition,steps_on_A_side\n"
        "6,0.333333333333,0.666666666667,0x3,0\n"
        "8,0.28373015873,0.71626984127,0xf,0\n"
        "10,0.24893097169,0.75106902831,0x63,2\n"
        "12,0.225555700263,0.774444299737,0xc3,2\n"),
    "detail/config.txt": (
        "sizes=3,4,5,6\n"
        "boundary=periodic\n"
        "odd_wrap=twist\n"
        "surface_res=100\n"
        "dump_states=False\n"),
}
# all but the last column: the Werner residuals and the N = 6 cloning margin
# are rounding-level (1e-16) and follow the BLAS summation order
DEFAULT_SWEEP_DETAILS_BUT_LAST_COLUMN = {
    "detail/cloning.csv": (
        "n,p_r,p_s,theta_max,s1_intervals,s2_intervals,margin\n"
        "6,0.555555555556,0.555555555556,0.61547970867,"
        "0.61547970867:1.29515352758,0:0.61547970867\n"
        "8,0.52380952381,0.52380952381,0.640522312679,0.567719931469:1.34291330478,"
        "0:0.640522312679\n"
        "10,0.442786069652,0.641791044776,0.544886529386,"
        "0.462442098535:1.44819113771,0:0.544886529386\n"
        "12,0.418604651163,0.666666666667,0.523598775598,"
        "0.433958540481:1.47667469577,0:0.523598775598\n"),
    "detail/edges.csv": (
        "n,m,boundary,edge_a,edge_b,kind,allowed,p,residual\n"
        "6,3,periodic,0,1,rail,true,0.555555555556\n"
        "6,3,periodic,2,1,rail,true,0.555555555556\n"
        "6,3,periodic,4,3,rail,true,0.555555555556\n"
        "6,3,periodic,4,5,rail,true,0.555555555556\n"
        "6,3,periodic,2,3,rail,true,0.555555555556\n"
        "6,3,periodic,0,5,rail,true,0.555555555556\n"
        "6,3,periodic,0,3,step,true,0.555555555556\n"
        "6,3,periodic,4,1,step,true,0.555555555556\n"
        "6,3,periodic,2,5,step,true,0.555555555556\n"
        "8,4,periodic,0,1,rail,true,0.52380952381\n"
        "8,4,periodic,2,1,rail,true,0.52380952381\n"
        "8,4,periodic,2,3,rail,true,0.52380952381\n"
        "8,4,periodic,5,4,rail,true,0.52380952381\n"
        "8,4,periodic,5,6,rail,true,0.52380952381\n"
        "8,4,periodic,7,6,rail,true,0.52380952381\n"
        "8,4,periodic,0,3,rail,true,0.52380952381\n"
        "8,4,periodic,7,4,rail,true,0.52380952381\n"
        "8,4,periodic,0,4,step,true,0.52380952381\n"
        "8,4,periodic,5,1,step,true,0.52380952381\n"
        "8,4,periodic,2,6,step,true,0.52380952381\n"
        "8,4,periodic,7,3,step,true,0.52380952381\n"
        "10,5,periodic,0,1,rail,true,0.442786069652\n"
        "10,5,periodic,2,1,rail,true,0.442786069652\n"
        "10,5,periodic,2,3,rail,true,0.442786069652\n"
        "10,5,periodic,4,3,rail,true,0.442786069652\n"
        "10,5,periodic,6,5,rail,true,0.442786069652\n"
        "10,5,periodic,6,7,rail,true,0.442786069652\n"
        "10,5,periodic,8,7,rail,true,0.442786069652\n"
        "10,5,periodic,8,9,rail,true,0.442786069652\n"
        "10,5,periodic,4,5,rail,true,0.442786069652\n"
        "10,5,periodic,0,9,rail,true,0.442786069652\n"
        "10,5,periodic,0,5,step,true,0.641791044776\n"
        "10,5,periodic,6,1,step,true,0.641791044776\n"
        "10,5,periodic,2,7,step,true,0.641791044776\n"
        "10,5,periodic,8,3,step,true,0.641791044776\n"
        "10,5,periodic,4,9,step,true,0.641791044776\n"
        "12,6,periodic,0,1,rail,true,0.418604651163\n"
        "12,6,periodic,2,1,rail,true,0.418604651163\n"
        "12,6,periodic,2,3,rail,true,0.418604651163\n"
        "12,6,periodic,4,3,rail,true,0.418604651163\n"
        "12,6,periodic,4,5,rail,true,0.418604651163\n"
        "12,6,periodic,7,6,rail,true,0.418604651163\n"
        "12,6,periodic,7,8,rail,true,0.418604651163\n"
        "12,6,periodic,9,8,rail,true,0.418604651163\n"
        "12,6,periodic,9,10,rail,true,0.418604651163\n"
        "12,6,periodic,11,10,rail,true,0.418604651163\n"
        "12,6,periodic,0,5,rail,true,0.418604651163\n"
        "12,6,periodic,11,6,rail,true,0.418604651163\n"
        "12,6,periodic,0,6,step,true,0.666666666667\n"
        "12,6,periodic,7,1,step,true,0.666666666667\n"
        "12,6,periodic,2,8,step,true,0.666666666667\n"
        "12,6,periodic,9,3,step,true,0.666666666667\n"
        "12,6,periodic,4,10,step,true,0.666666666667\n"
        "12,6,periodic,11,5,step,true,0.666666666667\n"),
}


def test_default_sweep_figure_bytes(tmp_path):
    out = tmp_path / "o"
    assert cli.main(["sweep", "--out", str(out)]) == 0
    for name, text in DEFAULT_SWEEP_FIGURES.items():
        assert (out / name).read_bytes() == text.encode(), name


def test_default_open_sweep_figure_bytes(tmp_path):
    out = tmp_path / "o"
    assert cli.main(["sweep", "--boundary", "open", "--out", str(out)]) == 0
    for name, text in DEFAULT_OPEN_SWEEP_FIGURES.items():
        assert (out / name).read_bytes() == text.encode(), name


def test_default_sweep_detail_text(tmp_path):
    out = tmp_path / "o"
    assert cli.main(["sweep", "--out", str(out)]) == 0
    for name, text in DEFAULT_SWEEP_DETAILS.items():
        assert (out / name).read_bytes() == text.encode(), name
    for name, text in DEFAULT_SWEEP_DETAILS_BUT_LAST_COLUMN.items():
        header, *rows = (out / name).read_text(encoding="utf-8").splitlines()
        got = [header] + [row.rsplit(",", 1)[0] for row in rows]
        assert got == text.splitlines(), name


def test_fig5_bytes_match_the_row_by_row_reference(tmp_path):
    # fig5 does not depend on the ladder, so a report without rows suffices
    for res in (2, 5, 42, 100, 257):
        out = tmp_path / str(res)
        sweep.emit_csv(EntanglementReport(config=RunConfig(surface_res=res)), out)
        want = tmp_path / f"reference-{res}.csv"
        oracles.reference_fig5_csv(measures.monogamy_surface_sample(res), want)
        got = (out / "fig5_monogamy_surface.csv").read_bytes()
        assert got == want.read_bytes(), res


def test_dump_states_flag(tmp_path):
    out = tmp_path / "out"
    run_sweep(RunConfig(sizes=(3,), out_dir=out, dump_states=True,
                        surface_res=5))
    dump = out / "state_n6.txt"
    assert dump.exists()
    assert dump.read_text().splitlines()[0] == "rvb n=6 boundary=periodic m=3"


def test_per_size_failure_isolation(monkeypatch):
    real_ggm = measures.ggm

    def failing_ggm(state, **kwargs):
        if np.asarray(state).size == 1 << 8:
            raise RuntimeError("injected failure")
        return real_ggm(state, **kwargs)

    monkeypatch.setattr(measures, "ggm", failing_ggm)
    report = run_sweep(RunConfig(sizes=(3, 4, 5), out_dir=None))
    assert [r.n for r in report.rows] == [6, 10]
    assert len(report.failures) == 1
    assert report.failures[0][0] == 4
    assert "injected failure" in report.failures[0][1]


def test_programming_errors_propagate(monkeypatch):
    real_ggm = measures.ggm

    def broken_ggm(state, **kwargs):
        if np.asarray(state).size == 1 << 8:
            raise TypeError("injected bug")
        return real_ggm(state, **kwargs)

    monkeypatch.setattr(measures, "ggm", broken_ggm)
    with pytest.raises(TypeError, match="injected bug"):
        run_sweep(RunConfig(sizes=(3, 4, 5), out_dir=None))


def test_sixteen_site_ladder_runs():
    report = run_sweep(RunConfig(sizes=(8,), out_dir=None))
    assert report.failures == []
    (row,) = report.rows
    assert row.n == 16
    assert row.ggm.value == pytest.approx(0.201463220623, abs=1e-11)
    assert row.ggm.mask == 0x303
    lam2 = oracles.power_iteration_schmidt_sq(row.state, row.ggm.mask)
    assert abs(lam2 - row.ggm.max_schmidt_sq) <= 1e-9


def test_eighteen_site_ladder_runs():
    report = run_sweep(RunConfig(sizes=(9,), out_dir=None))
    assert report.failures == []
    (row,) = report.rows
    assert row.n == 18
    assert abs(row.aggregates.p_r - 0.385372469243) < 1e-11
    assert abs(row.aggregates.p_s - 0.714346604669) < 1e-11
    assert row.ggm.value == pytest.approx(0.197128563063, abs=1e-11)
    assert row.ggm.mask == 0x603
    lam2 = oracles.power_iteration_schmidt_sq(row.state, row.ggm.mask)
    assert abs(lam2 - row.ggm.max_schmidt_sq) <= 1e-9


def test_twenty_site_ladder_runs():
    report = run_sweep(RunConfig(sizes=(10,), out_dir=None))
    assert report.failures == []
    (row,) = report.rows
    assert row.n == 20
    assert row.covering_count == 125
    assert abs(row.aggregates.p_r - 0.383461367179) < 1e-11
    assert abs(row.aggregates.p_s - 0.716906034291) < 1e-11
    assert row.ggm.value == pytest.approx(0.195302427087, abs=1e-11)
    assert row.ggm.mask == 0xC03
    assert len(row.ggm.tied_masks) == 10  # the plaquettes, one per column pair
    lam2 = oracles.power_iteration_schmidt_sq(row.state, row.ggm.mask)
    assert abs(lam2 - row.ggm.max_schmidt_sq) <= 1e-9


def test_run_size_enumerates_the_coverings_once(monkeypatch):
    real = sweep.lattice.enumerate_coverings
    calls = []

    def counting(lat):
        calls.append(lat.m)
        return real(lat)

    # every module that holds the function looks it up in its own namespace
    monkeypatch.setattr(sweep.lattice, "enumerate_coverings", counting)
    monkeypatch.setattr(sweep.state, "enumerate_coverings", counting)
    row = sweep._run_size(sweep.lattice.build_ladder(5, "periodic", "twist"))
    assert calls == [5]
    assert row.covering_count == 13
    assert row.state.tobytes() == rvb_ladder.rvb_state(row.lattice).tobytes()


def test_singlet_invariant_aborts_size(monkeypatch):
    for module in (sweep.state, sweep.measures):
        monkeypatch.setattr(module, "total_spin_squared", lambda psi: 1.0)
    report = run_sweep(RunConfig(sizes=(3,), out_dir=None))
    assert report.rows == []
    assert "not a total singlet" in report.failures[0][1]


def test_run_sweep_evaluates_total_spin_once_per_size(monkeypatch):
    real = sweep.state.total_spin_squared
    calls = []

    def counting(psi):
        calls.append(psi.size)
        return real(psi)

    for module in (sweep.state, sweep.measures):
        monkeypatch.setattr(module, "total_spin_squared", counting)
    report = run_sweep(RunConfig(sizes=(3, 4, 5), out_dir=None))
    assert report.failures == []
    assert calls == [1 << 6, 1 << 8, 1 << 10]
    for row in report.rows:
        assert row.ggm.total_spin_sq == real(row.state)
        assert row.ggm.total_spin_sq < 1e-10


def test_run_sweep_validation(monkeypatch):
    ran = []
    monkeypatch.setattr(sweep, "_run_size", lambda lat: ran.append(lat.m))
    with pytest.raises(ValueError):
        run_sweep(RunConfig(sizes=(), out_dir=None))
    # m = 11 fails the MAX_SITES check, m = 1 and the bad names fail in
    # build_ladder; all of them before any size runs
    for bad in (RunConfig(sizes=(1,), out_dir=None),
                RunConfig(sizes=(11,), out_dir=None),  # 22 sites too large
                RunConfig(sizes=(3,), boundary="twisted", out_dir=None),
                RunConfig(sizes=(3,), odd_wrap="bogus", out_dir=None)):
        with pytest.raises(ValueError):
            run_sweep(bad)
    assert ran == []


def test_run_sweep_rejects_repeated_sizes(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(sweep, "_run_size", lambda lat: ran.append(lat.m))
    out = tmp_path / "o"
    with pytest.raises(ValueError, match="repeated size"):
        run_sweep(RunConfig(sizes=(3, 3, 4, 5), out_dir=out))
    assert ran == []  # rejected with the other checks, before any size runs
    assert not out.exists()


def _unusable_out_dirs(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    return taken, taken / "below"


def test_run_sweep_rejects_an_unusable_out_dir_before_any_size(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(sweep, "_run_size", lambda lat: ran.append(lat.m))
    for out in _unusable_out_dirs(tmp_path):
        with pytest.raises(OSError):
            run_sweep(RunConfig(sizes=(3,), out_dir=out))
    assert ran == []


def test_cli_rejects_an_unusable_out_dir_before_any_size(tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(sweep, "_run_size", lambda lat: ran.append(lat.m))
    for out in _unusable_out_dirs(tmp_path):
        assert cli.main(["sweep", "--sizes", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert ran == []


def test_forbid_convention_run():
    report = run_sweep(RunConfig(sizes=(3, 4, 5, 6), odd_wrap="forbid",
                                 out_dir=None))
    by_m = {r.m: r for r in report.rows}
    assert by_m[3].cloning.theta_max is None
    exp = oracles.EXPECTED[(5, "periodic", "forbid")]
    assert abs(by_m[5].aggregates.p_r - float(exp["p_r"])) < 1e-11
    assert by_m[5].cloning.theta_max == pytest.approx(exp["theta"], abs=2e-9)


def test_cli_sweep_success(tmp_path, capsys):
    code = cli.main(["sweep", "--sizes", "3,4", "--out", str(tmp_path / "o"),
                     "--surface-res", "5"])
    assert code == 0
    shown = capsys.readouterr().out
    assert "coverings" in shown
    assert (tmp_path / "o" / "fig8_ggm.csv").exists()


def test_cli_rejects_bad_sizes(tmp_path, capsys):
    for sizes in ("1", "11"):
        out = tmp_path / sizes
        code = cli.main(["sweep", "--sizes", sizes, "--out", str(out)])
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()


def test_cli_rejects_bad_surface_res_before_running(tmp_path, capsys):
    out = tmp_path / "o"
    code = cli.main(["sweep", "--sizes", "3", "--surface-res", "1", "--out", str(out)])
    assert code == 2
    assert "surface resolution" in capsys.readouterr().err
    assert not out.exists()  # no size ran and nothing was written


def test_cli_rejects_repeated_sizes(tmp_path, capsys):
    out = tmp_path / "o"
    code = cli.main(["sweep", "--sizes", "3,3,4,5", "--out", str(out)])
    assert code == 2
    assert "repeated size" in capsys.readouterr().err
    assert not out.exists()


def test_cli_reports_failures_with_exit_1(tmp_path, monkeypatch, capsys):
    def fake_run_sweep(config):
        report = EntanglementReport(config=config)
        report.failures.append((3, "synthetic"))
        return report

    monkeypatch.setattr(cli, "run_sweep", fake_run_sweep)
    code = cli.main(["sweep", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "synthetic" in capsys.readouterr().err


def test_cli_flags_reach_config(tmp_path, monkeypatch):
    seen = {}

    def fake_run_sweep(config):
        seen["config"] = config
        return EntanglementReport(config=config)

    monkeypatch.setattr(cli, "run_sweep", fake_run_sweep)
    code = cli.main(["sweep", "--sizes", "4,6", "--boundary", "open",
                     "--out", str(tmp_path / "o"),
                     "--dump-states", "--surface-res", "50",
                     "--odd-wrap", "forbid"])
    assert code == 0
    cfg = seen["config"]
    assert cfg.sizes == (4, 6)
    assert cfg.boundary == "open"
    assert cfg.odd_wrap == "forbid"
    assert cfg.dump_states is True
    assert cfg.surface_res == 50
    # without flags the CLI passes the library defaults
    out = str(tmp_path / "o")
    assert cli.main(["sweep", "--out", out]) == 0
    assert seen["config"] == RunConfig(out_dir=out)
