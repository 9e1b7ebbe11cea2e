"""The benchmark's workloads and the checks of their outputs.

Each workload is a closed loop with one caller: `run` is one pass of its unit
of work and returns what `check` needs; `check` compares that output with the
frozen reference values and returns {case: [mismatch, ...]}, one entry per
case attempted. A case with any mismatch counts as failed.
"""

import contextlib
import io
import random

TOL = 1e-9  # absolute tolerance against the frozen reference
SPIN_SQ_MAX = 1e-10

# figure CSV -> reference key; each holds one value per size, keyed by n = 2m
SWEEP_FIGURES = {
    "fig2_p_rail.csv": "p_r",
    "fig3_p_step.csv": "p_s",
    "fig4_p_avg.csv": "p_avg",
    "fig6_theta_max.csv": "theta_max",
    "fig8_ggm.csv": "ggm",
}

BOND_CASES = ((7, "periodic"), (8, "periodic"), (7, "open"), (8, "open"))


def _mismatch(label, got, want):
    if got is None or abs(got - want) > TOL:
        return [f"{label}: got {got}, reference {want!r}"]
    return []


def _read_figure(path):
    """{n: value} of a two-column figure CSV; an empty cell reads as None."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    out = {}
    for line in lines:
        n, value = line.split(",")
        out[int(n)] = float(value) if value else None
    return out


def _covering_counts(stdout):
    """{n: coverings} from the table the CLI prints."""
    out = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 8 and fields[0].isdigit() and fields[1].isdigit():
            out[int(fields[0])] = int(fields[1])
    return out


class SweepWorkload:
    """`rvb-ladder sweep` through `cli.main`, in-process, stdout captured."""

    def __init__(self, modules, sizes, reference):
        self.cli = modules["cli"]
        self.sizes = sizes  # None runs the CLI's default sizes
        self.reference = reference  # {m as str: {quantity: value}}
        self.cases = [str(m) for m in (sizes or (3, 4, 5, 6))]

    def run(self, out_dir):
        argv = ["sweep", "--out", str(out_dir)]
        if self.sizes is not None:
            argv += ["--sizes", ",".join(str(m) for m in self.sizes)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def check(self, output, out_dir):
        code, stdout, stderr = output
        if code != 0:
            return {m: [f"cli exit code {code}: {stderr.strip()}"] for m in self.cases}
        figures = {key: _read_figure(out_dir / name) for name, key in SWEEP_FIGURES.items()}
        coverings = _covering_counts(stdout)
        result = {}
        for m in self.cases:
            n = 2 * int(m)
            ref = self.reference[m]
            bad = []
            if coverings.get(n) != ref["coverings"]:
                bad.append(f"coverings: got {coverings.get(n)}, reference {ref['coverings']}")
            for key, values in figures.items():
                bad += _mismatch(key, values.get(n), ref[key])
            result[m] = bad
        return result


class BondsWorkload:
    """The bond pipeline without GGM, called function by function.

    One pass visits every case of BOND_CASES, in an order drawn from the
    workload seed, and dumps each state to a file.
    """

    def __init__(self, modules, seed, reference):
        self.lattice, self.state = modules["lattice"], modules["state"]
        self.density, self.measures = modules["density"], modules["measures"]
        self.rng = random.Random(seed)
        self.reference = reference  # {"m-boundary": {quantity: value}}
        self.cases = [f"{m}-{boundary}" for m, boundary in BOND_CASES]

    def run(self, out_dir):
        order = list(BOND_CASES)
        self.rng.shuffle(order)
        results = {}
        for m, boundary in order:
            lat = self.lattice.build_ladder(m, boundary, "twist")
            coverings = self.lattice.enumerate_coverings(lat)
            count = self.lattice.count_coverings(lat)
            psi = self.state.rvb_state(lat)
            spin_sq = self.state.total_spin_squared(psi)
            fits, agg = self.density.edge_werner_parameters(lat, psi)
            self.measures.monogamy_check(agg.p_r, agg.p_s)
            self.measures.cloning_theta_sets(agg.p_r, agg.p_s)
            path = out_dir / f"state-m{m}-{boundary}.txt"
            self.state.dump_state(psi, path, m, boundary)
            results[f"{m}-{boundary}"] = {
                "n": lat.n, "enumerated": len(coverings), "counted": count,
                "spin_sq": spin_sq, "p_r": agg.p_r, "p_s": agg.p_s,
                "werner_ok": all(f.werner_ok for f in fits.values()), "dump": path,
            }
        return results

    def check(self, output, out_dir):
        result = {}
        for case in self.cases:
            got, ref = output[case], self.reference[case]
            bad = []
            if not got["enumerated"] == got["counted"] == ref["coverings"]:
                bad.append(f"coverings: enumerated {got['enumerated']}, counted "
                           f"{got['counted']}, reference {ref['coverings']}")
            bad += _mismatch("p_r", got["p_r"], ref["p_r"])
            bad += _mismatch("p_s", got["p_s"], ref["p_s"])
            if not got["spin_sq"] < SPIN_SQ_MAX:
                bad.append(f"S^2 = {got['spin_sq']} not below {SPIN_SQ_MAX}")
            if not got["werner_ok"]:
                bad.append("an edge marginal is not Werner-form")
            with open(got["dump"], encoding="utf-8") as fh:
                lines = sum(1 for _ in fh)
            if lines != (1 << got["n"]) + 1:
                bad.append(f"state dump has {lines} lines, expected {(1 << got['n']) + 1}")
            result[case] = bad
        return result


WORKLOADS = ("sweep-default", "sweep-n14", "bonds-n16")


def make_workload(name, modules, seed, reference):
    """Build a workload from the package's modules, keyed by short name.

    The seed is the workload's only source of variation.
    """
    if name == "sweep-default":
        # the literal CLI defaults, so the seed changes nothing here
        return SweepWorkload(modules, None, reference["sweep"])
    if name == "sweep-n14":
        # run_sweep sorts the sizes, so the seeded order leaves outputs unchanged
        sizes = random.Random(seed).sample((3, 4, 5, 6, 7), 5)
        return SweepWorkload(modules, sizes, reference["sweep"])
    if name == "bonds-n16":
        return BondsWorkload(modules, seed, reference["bonds"])
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
