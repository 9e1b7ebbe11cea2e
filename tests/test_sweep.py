"""End-to-end sweep pipeline, CSV emission, determinism, CLI."""

import builtins
import dataclasses
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rvb_ladder
from rvb_ladder import (EntanglementReport, RunConfig, build_ladder, edge_werner_parameters,
                        run_sweep)
from rvb_ladder import cli, measures, state, sweep

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
        exp = oracles.EXPECTED[(row.m, "periodic")]
        assert len(row.lattice.coverings) == exp["count"]
        assert abs(row.aggregates.p_r - float(exp["p_r"])) < 1e-11
        assert abs(row.aggregates.p_s - float(exp["p_s"])) < 1e-11
        assert abs(row.aggregates.p_avg - float(exp["p_avg"])) < 1e-11
        assert abs(row.ggm.value - float(exp["ggm"])) < 1e-11
        assert row.cloning.theta_max == pytest.approx(exp["theta"], abs=2e-9)
        assert row.monogamy.satisfied
        assert row.ggm.total_spin_sq < 1e-10
        assert oracles.column_aligned_tied_mask(row.ggm.tied_masks, row.m) is not None


def _written_fidelities(out):
    """{n: (F_r, F_s, F_avg) cells} of detail/aggregates.csv under `out`."""
    lines = (out / "detail" / "aggregates.csv").read_text().splitlines()
    assert lines[0] == "n,p_r,p_s,p_avg,F_r,F_s,F_avg"
    return {int(line.split(",")[0]): tuple(line.split(",")[4:]) for line in lines[1:]}


def test_fidelities_consistent(twist_report, tmp_path):
    sweep.emit_csv(twist_report, tmp_path)
    written = _written_fidelities(tmp_path)
    for row in twist_report.rows:
        F_r, F_s, F_avg = (float(cell) for cell in written[row.n])
        assert F_r == pytest.approx((row.aggregates.p_r + 1.0) / 2.0)
        assert F_s == pytest.approx((row.aggregates.p_s + 1.0) / 2.0)
        assert F_avg == pytest.approx((2.0 * F_r + F_s) / 3.0)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_written_fidelities_are_one_route_of_the_site_average(tmp_path, boundary):
    # F = (p + 1)/2 of the record's own p_r, p_s and p_avg, whatever the degrees
    report = run_sweep(RunConfig(sizes=tuple(range(2, 9)), boundary=boundary,
                                 out_dir=tmp_path))
    assert report.failures == []
    written = _written_fidelities(tmp_path)
    assert sorted(written) == [r.n for r in report.rows] == list(range(4, 17, 2))
    for row in report.rows:
        agg = row.aggregates
        want = tuple("" if p is None else format((p + 1.0) / 2.0, ".12g")
                     for p in (agg.p_r, agg.p_s, agg.p_avg))
        assert written[row.n] == want, (row.n, boundary)


def test_row_cross_identities(twist_report):
    for row in twist_report.rows:
        # every site touches two rails and one step, so the site average
        # weighs the two kinds of bond 2 : 1
        agg = row.aggregates
        assert abs(agg.p_avg - (2.0 * agg.p_r + agg.p_s) / 3.0) <= 1e-12
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


def test_caption_fits_are_the_exact_least_squares(twist_report):
    # every coefficient against the exact rational least squares of the same
    # float inputs; normal equations solved in float64 missed the open
    # sweep's Fig. 7 quadratic by a relative 1.4e-9
    open_report = run_sweep(RunConfig(boundary="open"))
    for report in (twist_report, open_report):
        ns, thetas = zip(*[(r.n, r.cloning.theta_max) for r in report.rows
                           if r.cloning.theta_max is not None])
        inputs = {"fig6_linear": (ns, thetas), "fig6_quadratic": (ns, thetas),
                  "fig7_quadratic": ([r.aggregates.p_s for r in report.rows],
                                     [r.aggregates.p_r for r in report.rows])}
        for name, fit in report.fits.items():
            exact = oracles.exact_least_squares(*inputs[name], fit.model)
            for got, want in zip(fit.coefficients, exact, strict=True):
                assert abs(got - want) <= 1e-11 * abs(want), (name, got, float(want))


def test_emit_csv_file_set(tmp_path):
    run_sweep(RunConfig(sizes=(3, 4), out_dir=tmp_path / "out"))
    out = tmp_path / "out"
    root_csvs = sorted(p.name for p in out.glob("*.csv"))
    assert root_csvs == sorted(FIG_FILES)
    detail = out / "detail"
    assert sorted(p.name for p in detail.iterdir()) == [
        "aggregates.csv", "cloning.csv", "config.txt", "edges.csv",
        "fits.csv", "ggm.csv", "monogamy.csv"]


def test_csv_contents(tmp_path):
    out = tmp_path / "out"
    run_sweep(RunConfig(sizes=(3, 4, 5, 6), out_dir=out))

    lines = (out / "fig2_p_rail.csv").read_text().splitlines()
    assert lines[0] == "n,p_r"
    assert len(lines) == 5
    n, p_r = lines[1].split(",")
    assert n == "6" and abs(float(p_r) - 5.0 / 9.0) < 1e-11
    assert p_r == "0.555555555556"  # 12 significant digits

    surface = (out / "fig5_monogamy_surface.csv").read_text().splitlines()
    assert surface[0] == "p_r,p_s,surface_value"
    assert len(surface) == 100 * 100 + 1

    theta_lines = (out / "fig6_theta_max.csv").read_text().splitlines()
    assert theta_lines[0] == "n,theta_max"
    assert float(theta_lines[1].split(",")[1]) == pytest.approx(
        math.asin(1.0 / math.sqrt(3.0)), abs=2e-9)

    fig7 = (out / "fig7_pr_vs_ps.csv").read_text().splitlines()
    assert fig7[0] == "n,p_s,p_r"

    config = (out / "detail" / "config.txt").read_text()
    assert "boundary=periodic" in config
    assert "odd_wrap" not in config
    assert "theta_tol" not in config

    cloning = (out / "detail" / "cloning.csv").read_text().splitlines()
    assert cloning[0] == "n,p_r,p_s,theta_max,s1_intervals,s2_intervals,margin"
    assert cloning[1].startswith("6,")
    assert abs(float(cloning[1].split(",")[-1])) <= 1e-12  # N = 6 windows touch

    edges = (out / "detail" / "edges.csv").read_text().splitlines()
    assert edges[0] == "n,m,boundary,edge_a,edge_b,kind,p"
    assert len(edges) == 1 + 9 + 12 + 15 + 18  # header + per-size edge counts
    assert all(line.split(",")[5] in ("rail", "step") for line in edges[1:])


def test_csv_empty_cells_for_missing_values(tmp_path):
    out = tmp_path / "out"
    run_sweep(RunConfig(sizes=(2, 3), boundary="open", out_dir=out))
    fig4 = (out / "fig4_p_avg.csv").read_text().splitlines()
    assert fig4[1] == "4,"  # the 4-site open ladder has no degree-3 site
    assert fig4[2].startswith("6,0.515151515")
    fig6 = (out / "fig6_theta_max.csv").read_text().splitlines()
    assert fig6[1] == "4," and fig6[2] == "6,"  # no feasible cloning angle


def test_reruns_are_byte_identical(tmp_path):
    cfg_a = RunConfig(sizes=(3, 4), out_dir=tmp_path / "a")
    cfg_b = RunConfig(sizes=(3, 4), out_dir=tmp_path / "b")
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
# have degree 2 and are left out of p_avg, and the caption fits of its figures
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
    "detail/fits.csv": (
        "figure,model,c0,c1,c2,mse\n"
        "fig6_linear,linear,0.491524034876,-0.00171741363109,,2.43692485244e-05\n"
        "fig6_quadratic,quadratic_no_linear_term,0.482243709486,-7.68877687049e-05,,"
        "2.59077436827e-05\n"
        "fig7_quadratic,full_quadratic,40.2196818813,-108.244829713,73.5972238857,"
        "4.05815532132e-05\n"),
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
        "dump_states=False\n"),
    "detail/fits.csv": (
        "figure,model,c0,c1,c2,mse\n"
        "fig6_linear,linear,0.748197193713,-0.0185639291255,,0.000609597669008\n"
        "fig6_quadratic,quadratic_no_linear_term,0.671384192343,-0.00104956233441,,"
        "0.00053050832242\n"
        "fig7_quadratic,full_quadratic,-2.66958503845,11.598255965,-10.4737514056,"
        "0.000171936191802\n"),
    "detail/edges.csv": (
        "n,m,boundary,edge_a,edge_b,kind,p\n"
        "6,3,periodic,0,1,rail,0.555555555556\n"
        "6,3,periodic,2,1,rail,0.555555555556\n"
        "6,3,periodic,4,3,rail,0.555555555556\n"
        "6,3,periodic,4,5,rail,0.555555555556\n"
        "6,3,periodic,2,3,rail,0.555555555556\n"
        "6,3,periodic,0,5,rail,0.555555555556\n"
        "6,3,periodic,0,3,step,0.555555555556\n"
        "6,3,periodic,4,1,step,0.555555555556\n"
        "6,3,periodic,2,5,step,0.555555555556\n"
        "8,4,periodic,0,1,rail,0.52380952381\n"
        "8,4,periodic,2,1,rail,0.52380952381\n"
        "8,4,periodic,2,3,rail,0.52380952381\n"
        "8,4,periodic,5,4,rail,0.52380952381\n"
        "8,4,periodic,5,6,rail,0.52380952381\n"
        "8,4,periodic,7,6,rail,0.52380952381\n"
        "8,4,periodic,0,3,rail,0.52380952381\n"
        "8,4,periodic,7,4,rail,0.52380952381\n"
        "8,4,periodic,0,4,step,0.52380952381\n"
        "8,4,periodic,5,1,step,0.52380952381\n"
        "8,4,periodic,2,6,step,0.52380952381\n"
        "8,4,periodic,7,3,step,0.52380952381\n"
        "10,5,periodic,0,1,rail,0.442786069652\n"
        "10,5,periodic,2,1,rail,0.442786069652\n"
        "10,5,periodic,2,3,rail,0.442786069652\n"
        "10,5,periodic,4,3,rail,0.442786069652\n"
        "10,5,periodic,6,5,rail,0.442786069652\n"
        "10,5,periodic,6,7,rail,0.442786069652\n"
        "10,5,periodic,8,7,rail,0.442786069652\n"
        "10,5,periodic,8,9,rail,0.442786069652\n"
        "10,5,periodic,4,5,rail,0.442786069652\n"
        "10,5,periodic,0,9,rail,0.442786069652\n"
        "10,5,periodic,0,5,step,0.641791044776\n"
        "10,5,periodic,6,1,step,0.641791044776\n"
        "10,5,periodic,2,7,step,0.641791044776\n"
        "10,5,periodic,8,3,step,0.641791044776\n"
        "10,5,periodic,4,9,step,0.641791044776\n"
        "12,6,periodic,0,1,rail,0.418604651163\n"
        "12,6,periodic,2,1,rail,0.418604651163\n"
        "12,6,periodic,2,3,rail,0.418604651163\n"
        "12,6,periodic,4,3,rail,0.418604651163\n"
        "12,6,periodic,4,5,rail,0.418604651163\n"
        "12,6,periodic,7,6,rail,0.418604651163\n"
        "12,6,periodic,7,8,rail,0.418604651163\n"
        "12,6,periodic,9,8,rail,0.418604651163\n"
        "12,6,periodic,9,10,rail,0.418604651163\n"
        "12,6,periodic,11,10,rail,0.418604651163\n"
        "12,6,periodic,0,5,rail,0.418604651163\n"
        "12,6,periodic,11,6,rail,0.418604651163\n"
        "12,6,periodic,0,6,step,0.666666666667\n"
        "12,6,periodic,7,1,step,0.666666666667\n"
        "12,6,periodic,2,8,step,0.666666666667\n"
        "12,6,periodic,9,3,step,0.666666666667\n"
        "12,6,periodic,4,10,step,0.666666666667\n"
        "12,6,periodic,11,5,step,0.666666666667\n"),
}
# all but the last column: the N = 6 cloning margin is rounding-level (1e-16)
# and follows the BLAS summation order
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
    sweep._write_fig5(tmp_path / "fig5.csv")
    want = tmp_path / "reference.csv"
    oracles.reference_fig5_csv(
        *oracles.loop_monogamy_surface_sample(measures.FIG5_RESOLUTION), want)
    assert (tmp_path / "fig5.csv").read_bytes() == want.read_bytes()


def test_fig5_is_one_fixed_grid_whose_axis_texts_fit_the_row_template():
    # `_write_fig5` puts each axis text into a bytes `%` template at NUL marks
    assert inspect.signature(measures.monogamy_surface_sample).parameters == {}
    axis, _ = measures.monogamy_surface_sample()
    texts = [sweep._fmt(v) for v in axis.tolist()]
    assert len(texts) == 100
    assert not any("%" in text or "\0" in text for text in texts)


class Rung:
    """A ladder length that is an integer only through `__index__`."""

    def __init__(self, m):
        self.m = m

    def __index__(self):
        return self.m


def _file_bytes(out):
    """{path under `out`: bytes} of every file a run wrote."""
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in out.rglob("*") if p.is_file()}


def test_the_report_and_every_file_read_the_checked_sizes(tmp_path):
    # sizes that are integers only through __index__, out of order, and a
    # truthy int for dump_states run as the sorted ints and True do
    report = run_sweep(RunConfig(sizes=(Rung(4), Rung(3)), dump_states=1,
                                 out_dir=tmp_path / "a"))
    run_sweep(RunConfig(sizes=(3, 4), dump_states=True, out_dir=tmp_path / "b"))
    assert report.config.sizes == (3, 4)
    assert report.config.dump_states is True
    assert [type(m) for m in report.config.sizes] == [int, int]
    assert [(type(r.m), r.m) for r in report.rows] == [(int, 3), (int, 4)]
    written = _file_bytes(tmp_path / "a")
    assert written == _file_bytes(tmp_path / "b")
    assert written["detail/config.txt"] == b"sizes=3,4\nboundary=periodic\ndump_states=True\n"
    assert {"state_n6.txt", "state_n8.txt"} <= set(written)
    mixed = run_sweep(RunConfig(sizes=(np.int64(4), 3)))
    assert [(type(r.m), r.m) for r in mixed.rows] == [(int, 3), (int, 4)]


def test_a_permuted_size_list_writes_the_same_bytes(tmp_path):
    run_sweep(RunConfig(sizes=(5, 3, 4), out_dir=tmp_path / "a"))
    run_sweep(RunConfig(sizes=(3, 4, 5), out_dir=tmp_path / "b"))
    written = _file_bytes(tmp_path / "a")
    assert len(written) == 14
    assert written == _file_bytes(tmp_path / "b")


# fig5 formats its surface values with bytes %, the other cells with format()
@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
@example(-0.0)
@example(5e-324)
def test_bytes_percent_g_formats_as_format_g(x):
    assert b"%.12g" % x == format(x, ".12g").encode()


def test_dump_states_flag(tmp_path):
    out = tmp_path / "out"
    run_sweep(RunConfig(sizes=(3,), out_dir=out, dump_states=True))
    dump = out / "state_n6.txt"
    assert dump.exists()
    assert dump.read_text().splitlines()[0] == "rvb n=6 boundary=periodic m=3"


def test_every_written_text_file_pins_its_line_ending(tmp_path, monkeypatch):
    # text mode without newline="\n" writes os.linesep, "\r\n" on some systems
    opened = []

    def recording_open(file, mode="r", *args, **kwargs):
        opened.append((Path(file).name, mode, kwargs.get("newline")))
        return builtins.open(file, mode, *args, **kwargs)

    for module in (sweep, state):
        monkeypatch.setattr(module, "open", recording_open, raising=False)
    run_sweep(RunConfig(sizes=(3,), dump_states=True, out_dir=tmp_path / "o"))
    names = {name for name, _, _ in opened}
    assert {"config.txt", "state_n6.txt", "fig5_monogamy_surface.csv", "edges.csv"} <= names
    for name, mode, newline in opened:
        if set(mode) & set("wax+"):
            assert "b" in mode or newline == "\n", (name, mode, newline)


def test_per_size_failure_isolation(monkeypatch):
    real_ggm = measures.ggm

    def failing_ggm(state, **kwargs):
        if np.asarray(state).size == 1 << 8:
            # the all-up product state: ggm's own "not a total singlet" error
            state = np.zeros(1 << 8)
            state[0] = 1.0
        return real_ggm(state, **kwargs)

    monkeypatch.setattr(measures, "ggm", failing_ggm)
    report = run_sweep(RunConfig(sizes=(3, 4, 5), out_dir=None))
    assert [r.n for r in report.rows] == [6, 10]
    assert len(report.failures) == 1
    assert report.failures[0][0] == 4
    assert "not a total singlet" in report.failures[0][1]


def test_programming_errors_propagate(monkeypatch):
    real_ggm = measures.ggm
    # RuntimeError and its subclass NotImplementedError flag bugs here too
    for error in (TypeError, RuntimeError, NotImplementedError):
        def broken_ggm(state, **kwargs):
            if np.asarray(state).size == 1 << 8:
                raise error("injected bug")
            return real_ggm(state, **kwargs)

        monkeypatch.setattr(measures, "ggm", broken_ggm)
        with pytest.raises(error, match="injected bug"):
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
    assert len(row.lattice.coverings) == 125
    assert abs(row.aggregates.p_r - 0.383461367179) < 1e-11
    assert abs(row.aggregates.p_s - 0.716906034291) < 1e-11
    assert row.ggm.value == pytest.approx(0.195302427087, abs=1e-11)
    assert row.ggm.mask == 0xC03
    assert len(row.ggm.tied_masks) == 10  # the plaquettes, one per column pair
    lam2 = oracles.power_iteration_schmidt_sq(row.state, row.ggm.mask)
    assert abs(lam2 - row.ggm.max_schmidt_sq) <= 1e-9


def test_run_size_enumerates_the_coverings_once(monkeypatch):
    real = sweep.lattice._matchings
    calls = []

    def counting(n, edges):
        calls.append(n)
        return real(n, edges)

    # the one backtracking, behind the cached `Lattice.coverings`
    monkeypatch.setattr(sweep.lattice, "_matchings", counting)
    row = sweep._run_size(5, sweep.lattice.build_ladder(5, "periodic"))
    assert calls == [10]
    assert len(row.lattice.coverings) == 13
    assert row.state.tobytes() == rvb_ladder.rvb_state(row.lattice).tobytes()


def _emitted_steps_on_a_side(row, masks, out):
    """The steps_on_A_side column of detail/ggm.csv for one copy of `row` per
    GGM side in `masks`."""
    rows = [dataclasses.replace(row, ggm=dataclasses.replace(row.ggm, mask=mask))
            for mask in masks]
    sweep.emit_csv(EntanglementReport(config=RunConfig(), rows=rows), out)
    lines = (out / "detail" / "ggm.csv").read_text().splitlines()[1:]
    return [int(line.rsplit(",", 1)[1]) for line in lines]


def _whole_columns(mask, m):
    """Columns of the 2 x m ladder (site = row * m + col) with both sites in
    `mask`, counted from the ladder's numbering alone."""
    return sum((mask >> c) & (mask >> (c + m)) & 1 for c in range(m))


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_steps_on_a_side_counts_the_whole_ladder_columns(tmp_path, boundary):
    # each ladder column holds one step bond, joining its two sites, so the
    # step count is the column count: for every odd mask up to m = 6 and for
    # every tied GGM mask up to m = 10
    for m in range(2, 11):
        row = sweep._run_size(m, sweep.lattice.build_ladder(m, boundary))
        masks = range(1, (1 << 2 * m) - 1, 2) if m <= 6 else row.ggm.tied_masks
        got = _emitted_steps_on_a_side(row, masks, tmp_path / str(m))
        assert got == [_whole_columns(mask, m) for mask in masks], m


def test_ggm_csv_counts_the_torus_step_bonds_inside_the_ggm_side(tmp_path):
    # the 4 x 4 torus's GGM side 0xff is its first two rows, which hold 4 of
    # its 16 step bonds; under the sweep's label m = n / 2 no pair of sites
    # c, c + m lies inside it, so a count from the ladder numbering reads 0
    lat = oracles.square_torus(4, 4)
    row = sweep._run_size(lat.n // 2, lat)
    sweep.emit_csv(EntanglementReport(config=RunConfig(), rows=[row]), tmp_path)
    header, line = (tmp_path / "detail" / "ggm.csv").read_text().splitlines()
    assert header.endswith(",maximizing_partition,steps_on_A_side")
    assert line.split(",")[3:] == ["0xff", "4"]


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_the_sweep_fits_equal_the_public_fits(boundary):
    # the sweep calls the fits' core after ggm's singlet check
    for m in range(2, 9):
        lat = build_ladder(m, boundary)
        row = sweep._run_size(m, lat)
        assert (row.fits, row.aggregates) == edge_werner_parameters(lat, row.state), m


def test_singlet_invariant_aborts_size(monkeypatch):
    monkeypatch.setattr(sweep.state, "total_spin_squared", lambda psi: 1.0)
    report = run_sweep(RunConfig(sizes=(3,), out_dir=None))
    assert report.rows == []
    assert "not a total singlet" in report.failures[0][1]


def test_run_sweep_evaluates_total_spin_once_per_size(monkeypatch):
    real = sweep.state.total_spin_squared
    calls = []

    def counting(psi):
        calls.append(psi.size)
        return real(psi)

    monkeypatch.setattr(sweep.state, "total_spin_squared", counting)
    report = run_sweep(RunConfig(sizes=(3, 4, 5), out_dir=None))
    assert report.failures == []
    assert calls == [1 << 6, 1 << 8, 1 << 10]
    for row in report.rows:
        assert row.ggm.total_spin_sq == real(row.state)
        assert row.ggm.total_spin_sq < 1e-10


def test_run_sweep_validation(monkeypatch):
    ran = []
    monkeypatch.setattr(sweep, "_run_size", lambda m, lat: ran.append(m))
    with pytest.raises(ValueError):
        run_sweep(RunConfig(sizes=(), out_dir=None))
    # m = 11 fails the MAX_SITES check and a size that is not an integer its
    # integer check, m = 1 and the bad boundary fail in build_ladder; all of
    # them before any size runs
    for bad in (RunConfig(sizes=(1,), out_dir=None),
                RunConfig(sizes=(11,), out_dir=None),  # 22 sites too large
                RunConfig(sizes=(3.0,), out_dir=None),
                RunConfig(sizes=("3",), out_dir=None),
                RunConfig(sizes=(3,), boundary="twisted", out_dir=None)):
        with pytest.raises(ValueError):
            run_sweep(bad)
    assert ran == []


def test_run_sweep_rejects_repeated_sizes(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(sweep, "_run_size", lambda m, lat: ran.append(m))
    out = tmp_path / "o"
    with pytest.raises(ValueError, match="repeated size"):
        run_sweep(RunConfig(sizes=(3, 3, 4, 5), out_dir=out))
    assert ran == []  # rejected with the other checks, before any size runs
    assert not out.exists()


def test_run_sweep_checks_sizes_are_integers_before_it_checks_repeats(monkeypatch):
    # a list is unhashable and 3.0 equals 3, so only coerced ints are
    # checked for repeats
    ran = []
    monkeypatch.setattr(sweep, "_run_size", lambda m, lat: ran.append(m))
    for sizes, shown in ((([3],), "\\[3\\]"), ((3, 3.0), "3.0")):
        with pytest.raises(ValueError, match=f"^size m={shown} is not an integer$"):
            run_sweep(RunConfig(sizes=sizes))
    assert ran == []


def _unusable_out_dirs(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    return taken, taken / "below"


def test_run_sweep_rejects_an_unusable_out_dir_before_any_size(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(sweep, "_run_size", lambda m, lat: ran.append(m))
    for out in _unusable_out_dirs(tmp_path):
        with pytest.raises(OSError):
            run_sweep(RunConfig(sizes=(3,), out_dir=out))
    assert ran == []


def test_cli_rejects_an_unusable_out_dir_before_any_size(tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(sweep, "_run_size", lambda m, lat: ran.append(m))
    for out in _unusable_out_dirs(tmp_path):
        assert cli.main(["sweep", "--sizes", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert ran == []


def test_an_empty_out_path_is_refused_before_anything_is_written(tmp_path, monkeypatch,
                                                                   capsys):
    # Path("") is the working directory, where the CSVs would land
    monkeypatch.chdir(tmp_path)
    report = run_sweep(RunConfig(sizes=(3,)))
    with pytest.raises(ValueError, match="output directory path is empty"):
        sweep.emit_csv(report, "")
    ran = []
    monkeypatch.setattr(sweep, "_run_size", lambda m, lat: ran.append(m))
    with pytest.raises(ValueError, match="output directory path is empty"):
        run_sweep(RunConfig(sizes=(3,), out_dir=""))
    assert cli.main(["sweep", "--sizes", "3", "--out", ""]) == 2
    assert capsys.readouterr() == ("", "error: output directory path is empty\n")
    assert ran == []
    assert list(tmp_path.iterdir()) == []


def test_cli_sweep_success(tmp_path, capsys):
    code = cli.main(["sweep", "--sizes", "3,4", "--out", str(tmp_path / "o")])
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


def test_cli_sizes_are_ascii_digits(tmp_path, capsys):
    # int() reads "1_0" as 10 (an N = 20 sweep) and a full-width or Arabic-Indic
    # digit as its value; each size in the list is ASCII digits only
    for i, sizes in enumerate(("1_0", "\uff13", "3,\u0664", "+3", "0x3")):
        out = tmp_path / f"o{i}"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["sweep", "--sizes", sizes, "--out", str(out)])
        assert exit_info.value.code == 2
        assert "bad size list" in capsys.readouterr().err
        assert not out.exists()
    assert cli._parse_sizes(" 3, 4 ,,10") == (3, 4, 10)


def test_cli_refuses_a_size_of_more_digits_than_int_reads(tmp_path, capsys):
    # int() raises ValueError above 4300 digits, the interpreter's default limit;
    # argparse would report it as "invalid _parse_sizes value"
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["sweep", "--sizes", "3," + "9" * 4301, "--out", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "bad size list" in err and "invalid" not in err
    assert not out.exists()


def test_cli_names_the_first_bad_size_cut_to_20_characters(tmp_path, capsys):
    # a size list may be thousands of characters; the error names one token, cut short
    for bad in ("9" * 299 + "x", "9" * 4301):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["sweep", "--sizes", f"3,{bad},y", "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --sizes: bad size list: "
                            "'99999999999999999999\u2026' is not a size; expected e.g. 3,4,5,6\n")
        assert len(err) < 300
        assert not out.exists()


def test_cli_size_refusals_name_one_size_cut_to_20_characters(tmp_path, capsys):
    # both lists parse as sizes; run_sweep refuses them and names the one
    # offending size, shortened as a bad token is
    cut = "9" * 20 + "\u2026"
    for sizes, want in (
            ("3," + "9" * 300, f"error: size m={cut} has 2m sites, above the limit N <= 20\n"),
            (",".join(["3"] * 5000), "error: repeated size m=3; each size runs once\n")):
        out = tmp_path / "o"
        assert cli.main(["sweep", "--sizes", sizes, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", want)
        assert not out.exists()


def test_refusals_name_a_value_of_any_length_cut_to_20_characters(monkeypatch):
    # a size past Python's 4300-digit int-to-text limit is cut from its
    # leading digits; a long list or string from its repr
    ran = []
    monkeypatch.setattr(sweep, "_run_size", lambda m, lat: ran.append(m))
    big = 10 ** 5000
    cut, neg = "1" + "0" * 19 + "\u2026", "-1" + "0" * 18 + "\u2026"
    threes = "[3, 3, 3, 3, 3, 3, 3\u2026"
    for call, want in (
            (lambda: run_sweep(RunConfig(sizes=(3, big))),
             f"size m={cut} has 2m sites, above the limit N <= 20"),
            (lambda: run_sweep(RunConfig(sizes=(-big, 3, -big))),
             f"repeated size m={neg}; each size runs once"),
            (lambda: run_sweep(RunConfig(sizes=(-big,))), f"need m >= 2, got {neg}"),
            (lambda: run_sweep(RunConfig(sizes=([3] * 1000,))),
             f"size m={threes} is not an integer"),
            (lambda: build_ladder([3] * 1000), f"ladder size m={threes} is not an integer"),
            (lambda: build_ladder(3, "x" * 5000),
             "boundary must be one of ('open', 'periodic'), got '" + "x" * 19 + "\u2026"),
            (lambda: build_ladder(3, "open", "x" * 5000),
             "odd_wrap must be 'twist', got '" + "x" * 19 + "\u2026"),
            (lambda: rvb_ladder.Lattice(-big, ()), f"need n >= 1 sites, got {neg}")):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == want
    assert ran == []


def test_cli_table_prints_each_ladders_covering_count(tmp_path, capsys):
    # bench/workloads.py parses this column
    for boundary in ("periodic", "open"):
        code = cli.main(["sweep", "--sizes", "2,3,4,5,6", "--boundary", boundary,
                         "--out", str(tmp_path / boundary)])
        assert code == 0
        header, *rows, _ = capsys.readouterr().out.splitlines()
        assert header.split()[:2] == ["n", "coverings"]
        got = {int(row.split()[0]): int(row.split()[1]) for row in rows}
        want = {2 * m: oracles.covering_permanent(build_ladder(m, boundary))
                for m in range(2, 7)}
        assert got == want, boundary


def test_cli_rejects_repeated_sizes(tmp_path, capsys):
    out = tmp_path / "o"
    code = cli.main(["sweep", "--sizes", "3,3,4,5", "--out", str(out)])
    assert code == 2
    assert "repeated size" in capsys.readouterr().err
    assert not out.exists()


def test_cli_has_no_odd_wrap_option(tmp_path, capsys):
    # odd periodic ladders always take the twisted closure
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["sweep", "--odd-wrap", "twist", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "--odd-wrap" in capsys.readouterr().err
    assert not out.exists()


def test_cli_has_no_surface_res_option(tmp_path, capsys):
    # fig5 is always the FIG5_RESOLUTION grid
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["sweep", "--surface-res", "5", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "--surface-res" in capsys.readouterr().err
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
                     "--dump-states"])
    assert code == 0
    cfg = seen["config"]
    assert cfg.sizes == (4, 6)
    assert cfg.boundary == "open"
    assert cfg.dump_states is True
    # without flags the CLI passes the library defaults
    out = str(tmp_path / "o")
    assert cli.main(["sweep", "--out", out]) == 0
    assert seen["config"] == RunConfig(out_dir=out)
