"""Command-line entry point: `rvb-ladder sweep ...`."""

import argparse
import sys

from .lattice import BOUNDARIES, _shorten
from .sweep import RunConfig, run_sweep


def _parse_sizes(text):
    # ASCII digits only: int() would also read "1_0" as 10, and other scripts'
    # digits; it raises ValueError on more than sys.get_int_max_str_digits()
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    sizes = []
    for tok in tokens:
        try:
            if not (tok.isascii() and tok.isdigit()):
                raise ValueError
            sizes.append(int(tok))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad size list: {_shorten(tok)!r} is not a size; "
                                             "expected e.g. 3,4,5,6") from None
    if not sizes:
        raise argparse.ArgumentTypeError("size list is empty")
    return tuple(sizes)


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
    return parser


def _fmt(value):
    return "-" if value is None else format(value, ".6f")


def main(argv=None):
    args = build_parser().parse_args(argv)
    config = RunConfig(sizes=args.sizes, boundary=args.boundary, out_dir=args.out,
                       dump_states=args.dump_states)
    try:
        report = run_sweep(config)
    except (ValueError, OSError) as exc:  # bad config or unusable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"{'n':>4} {'coverings':>10} {'p_r':>9} {'p_s':>9} {'p_avg':>9} "
          f"{'theta_max':>10} {'ggm':>9} {'monogamy':>9}")
    for row in report.rows:
        print(f"{row.n:>4} {len(row.lattice.coverings):>10} "
              f"{row.aggregates.p_r:>9.6f} {row.aggregates.p_s:>9.6f} "
              f"{_fmt(row.aggregates.p_avg):>9} {_fmt(row.cloning.theta_max):>10} "
              f"{row.ggm.value:>9.6f} "
              f"{'ok' if row.monogamy.satisfied else 'VIOLATED':>9}")
    for m, message in report.failures:
        print(f"size m={m} failed: {message}", file=sys.stderr)
    print(f"wrote CSVs to {args.out}")
    return 0 if not report.failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
