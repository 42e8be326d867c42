"""trace-mc job: exact and Monte-Carlo trace-level metrics on fixture files.

For every fixture given, computes the exact average error and conditional
entropy and their Monte-Carlo estimates (with standard errors) through the
public functions of ``lpwanleak.traces``, and writes one JSON document.

    python3 perfbench/tracemc_job.py --budget 100000 --seed 1 --out r.json F.json...

Functions are looked up on the module at call time, so the traced run sees
its wrappers.
"""

from __future__ import annotations

import argparse
import json


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("fixtures", nargs="+")
    args = parser.parse_args(argv)

    from lpwanleak import traces

    dist = traces.CardinalityDistance()
    rows = []
    for i, path in enumerate(args.fixtures):
        fx = traces.load_fixture(path)
        ae = traces.average_error(fx.prior, fx.mechanism, dist, method="exact")
        ce = traces.conditional_entropy(fx.prior, fx.mechanism, method="exact")
        ae_mc, ae_se = traces.average_error_mc(fx.prior, fx.mechanism, dist,
                                               budget=args.budget, seed=(args.seed, 7, i, 0))
        ce_mc, ce_se = traces.conditional_entropy_mc(fx.prior, fx.mechanism,
                                                     budget=args.budget,
                                                     seed=(args.seed, 7, i, 1))
        rows.append({"name": fx.name, "support": len(fx.prior.support),
                     "average_error": ae, "average_error_mc": ae_mc,
                     "average_error_se": ae_se, "conditional_entropy": ce,
                     "conditional_entropy_mc": ce_mc, "conditional_entropy_se": ce_se})
    doc = {"budget": args.budget, "seed": args.seed, "priors": rows}
    with open(args.out, "w") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
