#!/usr/bin/env python3
"""Write reference.json: shape, verdict and output hash of every
corpus instance of every workload.

    python3 perfbench/make_reference.py

The stored outputs are the reference that later versions of the program
must reproduce byte for byte. Regenerate the file only when a workload's
corpus changes, never to absorb a change in the program's output.
Every instance is also put through the benchmark's independent checks,
and the file is not written if one fails.
"""

from __future__ import annotations

import json
import logging
import sys

import corpus
import run

FIELDS = ("universals", "existentials", "clauses", "bytes", "verdict", "sha256")


def main() -> int:
    package = run.import_package()
    logging.getLogger("dqprep").addHandler(logging.NullHandler())
    reference = {"fields": FIELDS}
    for workload in corpus.WORKLOADS.values():
        instances = [corpus.instance(workload, i) for i in range(workload.size)]
        done = run.corpus_pass(package, run.pipeline_config(package, workload), instances)
        bad = dict(done.errors)
        bad.update(run.independent_failures(package, workload, instances, done))
        if bad:
            for position, why in sorted(bad.items()):
                print(f"{workload.name} instance {position}: {why}", file=sys.stderr)
            return 1
        rows = []
        for position, inst in enumerate(instances):
            formula = package.parse_dqdimacs(inst.text).formula
            rows.append([len(formula.prefix.universals), len(formula.prefix.existentials),
                         len(formula.matrix), len(inst.text.encode()),
                         done.verdicts[position], done.hashes[position]])
        reference[workload.name] = {"instances": rows}
        verdicts = {v: done.verdicts.count(v) for v in sorted(set(done.verdicts))}
        print(f"{workload.name}: {len(rows)} instances, {sum(done.seconds):.1f} s, "
              f"verdicts {verdicts}")
    text = json.dumps(reference, separators=(",", ":"))
    # one instance per line keeps diffs of the file readable
    text = text.replace("],[", "],\n[")
    run.REFERENCE.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
