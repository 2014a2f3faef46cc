"""Write expected.json: the digest of every op's canonical output.

    python3 perfbench/record.py

The digests are the correctness reference for every later run, so this
is run only at a commit whose outputs are trusted (the unoptimised seed
commit), never to make a failing run pass.
"""

import json

import workloads

expected = {}
for name in workloads.NAMES:
    for small in (False, True):
        ops, _ = workloads.build(name, 0, small)
        workloads.clear_caches()
        for op in ops:
            expected[op.key] = workloads.digest(op.judge(op.call()))
workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
print(f"{len(expected)} digests written to {workloads.EXPECTED_PATH.name}")
