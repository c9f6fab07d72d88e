#!/usr/bin/env python3
"""Record the golden digests in bench/golden.json from the omvote in ./src.

    python3 bench/record_golden.py [WORKLOAD ...]

Runs every op of each named workload's input pool once (all workloads when
none is named) and stores the digest of its inputs and output.  The digests
committed with the benchmark were recorded from the code of the commit that
added it, before any change to src/.  Re-record only for a deliberate change
of the inputs or of what a correct output is, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def store(root: dict, ref: tuple, value: str) -> None:
    node = root
    for part in ref[:-1]:
        node = node.setdefault(part, {})
    node[ref[-1]] = value


def listify(node):
    """Dicts keyed 0..n-1 become lists, so golden.json stays compact."""
    if not isinstance(node, dict):
        return node
    if node and set(node) == set(range(len(node))):
        return [listify(node[i]) for i in range(len(node))]
    return {k: listify(v) for k, v in node.items()}


def main(names) -> int:
    path = run.BENCH / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    omvote = run.import_program()
    for name in names or sorted(workloads.WORKLOADS):
        table = {}
        for op in workloads.WORKLOADS[name](omvote, 0).universe():
            store(table, op.ref, workloads.digest(op.key, workloads.output_data(op, op.call())))
        golden[name] = listify(table)[name]
        print(f"recorded {name}", file=sys.stderr)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
