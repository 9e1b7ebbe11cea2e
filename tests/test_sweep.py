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
        assert row.total_spin_sq < 1e-10
        assert row.column_aligned_tied_mask is not None


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
    delta = twist_report.fits["fig7_reference_delta"]
    assert fit is not None and delta is not None
    assert len(delta) == 3
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
    assert row.ggm.bipartitions_scanned == (1 << 15) - 1


def test_singlet_invariant_aborts_size(monkeypatch):
    monkeypatch.setattr(sweep.state, "total_spin_squared", lambda psi: 1.0)
    report = run_sweep(RunConfig(sizes=(3,), out_dir=None))
    assert report.rows == []
    assert "not a total singlet" in report.failures[0][1]


def test_count_mismatch_aborts_size(monkeypatch):
    monkeypatch.setattr(sweep.lattice, "count_coverings", lambda lat: 999)
    report = run_sweep(RunConfig(sizes=(3,), out_dir=None))
    assert report.rows == []
    assert "mismatch" in report.failures[0][1]


def test_run_sweep_validation():
    with pytest.raises(ValueError):
        run_sweep(RunConfig(sizes=(), out_dir=None))
    with pytest.raises(ValueError):
        run_sweep(RunConfig(sizes=(1,), out_dir=None))
    with pytest.raises(ValueError):
        run_sweep(RunConfig(sizes=(9,), out_dir=None))  # 18 sites too large
    with pytest.raises(ValueError):
        run_sweep(RunConfig(sizes=(3,), boundary="twisted", out_dir=None))


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
    code = cli.main(["sweep", "--sizes", "9", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error" in capsys.readouterr().err


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
                     "--out", str(tmp_path / "o"), "--theta-tol", "1e-8",
                     "--dump-states", "--surface-res", "50",
                     "--odd-wrap", "forbid"])
    assert code == 0
    cfg = seen["config"]
    assert cfg.sizes == (4, 6)
    assert cfg.boundary == "open"
    assert cfg.odd_wrap == "forbid"
    assert cfg.theta_tol == 1e-8
    assert cfg.dump_states is True
    assert cfg.surface_res == 50
