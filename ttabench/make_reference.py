"""Write reference.json: the output digests of every workload and variant.

    python3 ttabench/make_reference.py

Run this only on a tree whose outputs are known to be right, and only when a
workload's inputs or digest change: the benchmark checks every later tree
against these digests.
"""

from __future__ import annotations

import json
import shutil
import warnings

import workloads

# Digest fields that state a property of the output rather than a value.
_PROPERTIES = {"best_is_minimal": True, "is_svg": True, "exit": 0}


def _broken(value, where=""):
    """Paths of property fields in a digest that do not hold."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key in _PROPERTIES and item != _PROPERTIES[key]:
                yield f"{where}/{key}"
            else:
                yield from _broken(item, f"{where}/{key}")


def main() -> None:
    tt = workloads.load_package()
    scratch = workloads.ROOT / ".ttabench" / "reference-work"
    reference = {"variants": workloads.VARIANTS, "workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        digests = []
        for variant in range(workloads.VARIANTS):
            out = scratch / name / str(variant)
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = workload.run(tt, workload.build(tt, variant, out))
            digest = json.loads(json.dumps(workload.digest(result)))
            broken = list(_broken(digest))
            if broken or workloads.check(workload, digest, digest):
                raise SystemExit(f"{name} variant {variant}: bad reference {broken}")
            digests.append(digest)
            print(f"{name} variant {variant}: {len(digest)} operations")
        reference["workloads"][name] = digests
    shutil.rmtree(scratch, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(reference, separators=(",", ":")) + "\n",
                                   encoding="utf-8")
    print(f"wrote {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
