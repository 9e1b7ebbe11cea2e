"""Self-test of the benchmark's output check.

    python3 bench/selftest.py

For each workload it runs one pass, requires the check to pass against
bench/reference.json, then perturbs one reference value by 1e-6 (well
beyond the 1e-9 tolerance) and requires the same output to fail exactly one
case. Exits 0 when every workload behaves so, 1 otherwise.
"""

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before numpy loads
import workloads

# workload -> (reference section, case, quantity) to perturb
PERTURB = {
    "sweep-default": ("sweep", "5", "ggm"),
    "sweep-n14": ("sweep", "7", "theta_max"),
    "bonds-n16": ("bonds", "8-open", "p_s"),
}


def main():
    _, modules = run.import_package()
    reference = json.loads((run.BENCH_DIR / "reference.json").read_text())
    run.OUT_DIR.mkdir(exist_ok=True)
    ok = True
    for name in workloads.WORKLOADS:
        section, case, key = PERTURB[name]
        perturbed = copy.deepcopy(reference)
        perturbed[section][case][key] += 1e-6
        out = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR))
        try:
            workload = workloads.make_workload(name, modules, 1, reference)
            output = workload.run(out)
            clean = workload.check(output, out)
            workload.reference = perturbed[section]
            dirty = workload.check(output, out)
        finally:
            shutil.rmtree(out)
        clean_failed = [c for c, bad in clean.items() if bad]
        dirty_failed = [c for c, bad in dirty.items() if bad]
        passed = not clean_failed and dirty_failed == [case]
        ok = ok and passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}: {len(clean)} cases, "
              f"reference failed {clean_failed}, "
              f"{section}[{case}][{key}] + 1e-6 failed {dirty_failed}")
        for bad in dirty.get(case, []):
            print(f"       {bad}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
