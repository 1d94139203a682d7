"""Record the reference outputs every timed op is checked against.

    python3 perfbench/record_reference.py [table1 signoff served]

Outputs are recorded on the scalar (python) backend and recomputed on
numpy.  The two are compared bit for bit: every difference is written
to the reference file's ``cross_check`` list, and the recording fails
if a difference breaks the repository's backend contract (counts,
names and orderings identical; floats within 1e-9 relative).  The
numpy outputs are kept beside the scalar ones for the workloads that
run on numpy, so those are compared exactly too.
"""

from __future__ import annotations

import json
import sys

import benchlib
from benchlib import REFERENCE_DIR

#: The repository's cross-backend float contract
#: (tests/compute/test_backend_equivalence.py).
CONTRACT_REL = 1e-9


def compare(scalar, vector) -> list[dict]:
    """Every leaf where the numpy output is not the scalar one."""
    diffs = []
    for path, a, b in benchlib.differences(scalar, vector):
        diff = {"path": path, "python": a, "numpy": b}
        floats = isinstance(a, float) and isinstance(b, float)
        if floats:
            diff["rel"] = abs(a - b) / max(1.0, abs(a), abs(b))
        diff["within_contract"] = floats and diff["rel"] <= CONTRACT_REL
        diffs.append(diff)
    return diffs


def record(workload: str) -> dict:
    module = __import__(f"wl_{workload}")
    scalar = module.record("python")
    vector = module.record("numpy")
    diffs = compare(scalar, vector)
    for diff in diffs:
        print(f"{workload}: numpy != python at {diff['path']}: "
              f"{diff['python']!r} vs {diff['numpy']!r}"
              + (f" (rel {diff['rel']:.2e})" if "rel" in diff else ""))
    broken = [diff for diff in diffs if not diff["within_contract"]]
    if broken:
        raise SystemExit(f"{workload}: {len(broken)} numpy/python "
                         f"differences break the backend contract")
    key = {"table1": "rows", "signoff": "outputs",
           "served": "configs"}[workload]
    outputs = {"python": scalar}
    if benchlib.BACKENDS[workload] == "numpy":
        outputs["numpy"] = vector
    return {key: outputs, "cross_check": summarize(diffs)}


def summarize(diffs: list[dict]) -> dict:
    """What the numpy/python comparison found, in a few fields."""
    return {
        "identical": not diffs,
        "differing_values": len(diffs),
        "differing_fields": sorted({diff["path"].rsplit("/", 1)[-1]
                                    for diff in diffs}),
        "max_rel": max((diff.get("rel", 0.0) for diff in diffs),
                       default=0.0),
    }


def main(argv=None) -> int:
    workloads = (argv if argv is not None else sys.argv[1:]) \
        or ["table1", "signoff", "served"]
    benchlib.import_repro()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads:
        payload = record(workload)
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True)
                        + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
