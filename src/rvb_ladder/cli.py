"""Command-line entry point: `rvb-ladder sweep ...`."""

import argparse
import sys

from .lattice import BOUNDARIES, ODD_WRAPS
from .sweep import RunConfig, run_sweep


def _parse_sizes(text):
    try:
        sizes = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}; expected e.g. 3,4,5,6")
    if not sizes:
        raise argparse.ArgumentTypeError("size list is empty")
    return sizes


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rvb-ladder",
        description="Entanglement sweep over two-leg ladder dimer-liquid states.")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = RunConfig()
    sweep = sub.add_parser("sweep", help="run the full per-size pipeline and emit CSVs")
    sweep.add_argument("--sizes", type=_parse_sizes, default=defaults.sizes,
                       metavar="M1,M2,...", help="ladder lengths (rungs), default "
                       + ",".join(str(m) for m in defaults.sizes))
    sweep.add_argument("--boundary", choices=BOUNDARIES, default=defaults.boundary)
    sweep.add_argument("--out", required=True, metavar="DIR",
                       help="output directory for the figure CSVs")
    sweep.add_argument("--dump-states", action="store_true",
                       help="also write the full amplitude vectors")
    sweep.add_argument("--surface-res", type=int, default=defaults.surface_res,
                       help="grid resolution for the monogamy surface CSV "
                       f"(default {defaults.surface_res})")
    sweep.add_argument("--odd-wrap", choices=ODD_WRAPS, default=defaults.odd_wrap,
                       help="how the periodic wrap treats odd lengths "
                       f"(default {defaults.odd_wrap})")
    return parser


def _fmt(value):
    return "-" if value is None else format(value, ".6f")


def main(argv=None):
    args = build_parser().parse_args(argv)
    config = RunConfig(sizes=args.sizes, boundary=args.boundary,
                       odd_wrap=args.odd_wrap, out_dir=args.out,
                       dump_states=args.dump_states,
                       surface_res=args.surface_res)
    try:
        report = run_sweep(config)
    except (ValueError, OSError) as exc:  # bad config or unusable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"{'n':>4} {'coverings':>10} {'p_r':>9} {'p_s':>9} {'p_avg':>9} "
          f"{'theta_max':>10} {'ggm':>9} {'monogamy':>9}")
    for row in report.rows:
        print(f"{row.n:>4} {row.covering_count:>10} "
              f"{row.aggregates.p_r:>9.6f} {row.aggregates.p_s:>9.6f} "
              f"{_fmt(row.p_avg):>9} {_fmt(row.cloning.theta_max):>10} "
              f"{row.ggm.value:>9.6f} "
              f"{'ok' if row.monogamy.satisfied else 'VIOLATED':>9}")
    for m, message in report.failures:
        print(f"size m={m} failed: {message}", file=sys.stderr)
    print(f"wrote CSVs to {args.out}")
    return 0 if not report.failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
