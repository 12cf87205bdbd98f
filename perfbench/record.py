#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py               # expected.json
    python3 perfbench/record.py --tau-table   # tau_orbits.json first (minutes)

Run from the root of a checkout whose outputs are known to be right.
``tau_orbits.json`` is the full ``experiment-tau`` survey at q = 27: every
orbit's row, which the tau-survey workload both stratifies its draws by and
checks each sampled row against.  ``expected.json`` holds the sweep report
digests and, for the default seed, the digest of the first units' report
stream of every workload.  Reports are canonical, so a digest changes only
when an output does.
"""

from __future__ import annotations

import argparse
import json

import run
import workloads


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tau-table", action="store_true")
    args = ap.parse_args(argv)
    pkg, _ = run.load_package()
    if args.tau_table:
        survey = json.loads(workloads.run_cli(pkg, [
            "experiment-tau", "--p", "3", "--n", "3", "--sample", "1000000", "--seed", "0"]))
        rows = ",\n".join(json.dumps(r, sort_keys=True) for r in survey["rows"])
        (run.HERE / "tau_orbits.json").write_text(
            f'{{"orbits_total": {survey["orbits_total"]}, "rows": [\n{rows}\n]}}\n')
    expected = {}
    for name in workloads.NAMES:
        wl = workloads.build(name, lambda: run.load_json("tau_orbits.json"))
        units = run.FIXED_UNITS[name]
        items = wl.inputs(pkg, run.DEFAULT_SEED)[:units]
        ctx = wl.setup(pkg)
        stream = [wl.report(wl.unit(pkg, ctx, item)) for _, item in items]
        if isinstance(wl, workloads.Sweep):
            # a sweep does not depend on the seed: every report must match
            entry = {"report_sha256": workloads.sha256(stream[0])}
        else:
            entry = {"seed": run.DEFAULT_SEED, "units": units,
                     "stream_sha256": run.digest(stream)}
        expected[name] = entry
        print(name, entry, flush=True)
    (run.HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
