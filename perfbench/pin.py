"""Pin the reference answers of every workload variant into data/reference.json.

Run once, from the repository root, at the commit whose answers are the
reference:

    python3 perfbench/pin.py [workload ...]

Each task of each variant runs once through the in-process CLI. A draw is
only kept if its tasks succeed: mu* and L*/d* searches must exit 0, which
for mu* also proves h0 < L* (the search refuses otherwise). Existing entries
for workloads not named on the command line are kept.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads

ALLOWED_CODES = {"simulate": (0, 3)}  # 3: the fronts exhausted the grid, by design


def pin_variant(cli, workload: str, variant: int, smoke: bool, workdir: str) -> dict:
    inputs = workloads.build(workload, variant, workdir, smoke)
    tasks = list(inputs.tasks) + ([inputs.sweep] if inputs.sweep else [])
    pinned = {}
    for task in tasks:
        outcome = run.invoke(cli, task.serial())
        code = outcome["code"]
        if outcome["error"] is not None or code not in ALLOWED_CODES.get(task.expect, (0,)):
            raise SystemExit(f"{workload} variant {variant}: {task.key} failed "
                             f"(exit {code}):\n{outcome['error'] or outcome['stderr']}")
        result = workloads.parse(task, outcome["stdout"])
        entry = {"code": code, "result": result}
        if task.expect in ("Lstar", "dstar"):
            entry["value_tol"] = workloads.root_value_tol(result, task.params["tol"])
            del result["probes"]  # checks read the probes of the run under test
        pinned[task.key] = entry
    return pinned


def main(names) -> int:
    cli = run.import_cli()
    path = os.path.join(workloads.HERE, "data", "reference.json")
    refs = workloads.load_reference() or {"variants": workloads.VARIANTS, "full": {}, "smoke": {}}
    workdir = os.path.join(run.WORK_ROOT, f"pin-{os.getpid()}")
    try:
        for name in names or workloads.NAMES:
            for smoke in (True, False):
                section = refs["smoke" if smoke else "full"].setdefault(name, {})
                for variant in range(workloads.VARIANTS):
                    section[str(variant)] = pin_variant(cli, name, variant, smoke, os.path.join(workdir, "v"))
                    shutil.rmtree(workdir, ignore_errors=True)
                    print(f"pinned {name} {'smoke' if smoke else 'full'} variant {variant}", flush=True)
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(refs, fh, indent=1, sort_keys=True)
                    fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(run.WORK_ROOT) and not os.listdir(run.WORK_ROOT):
            os.rmdir(run.WORK_ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
