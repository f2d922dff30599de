#!/usr/bin/env python3
"""Write refs.json: the expected outputs of every workload input slot.

Run from the repository root after a change that is meant to alter results:

    python3 benchmarks/make_refs.py

It runs each study once per slot and each distinct pipeline request once
per slot, and stores the digests the benchmark's output checks compare to.
"""

import json
import os
import shutil
import sys
import tempfile

import run
import workloads as wl


def main() -> int:
    run.pin_blas_threads()
    npiv = run.load_npiv()
    refs = {}
    os.makedirs(os.path.join(run.ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(run.ROOT, ".bench_tmp"))
    try:
        for spec in [*wl.WORKLOADS.values(), *wl.SMOKE.values()]:
            refs[spec.name] = {}
            for slot in range(wl.SLOTS):
                if isinstance(spec, wl.Study):
                    config_path = wl.write_config(spec, slot, tmp)
                    out = wl.run_study(npiv.cli, spec, config_path, os.path.join(tmp, "study"), run.pool_jobs())
                    if out.error:
                        raise SystemExit(f"{spec.name} slot {slot}: {out.error}")
                    refs[spec.name][str(slot)] = out.digest
                else:
                    paths = wl.pipeline_files(spec, slot, tmp)
                    digests = []
                    for i in range(spec.distinct):
                        _, n, seed = spec.request(slot, i)
                        out = wl.run_request(npiv.cli, spec, paths, n, seed)
                        if out.error:
                            raise SystemExit(f"{spec.name} slot {slot} request {i}: {out.error}")
                        digests.append(out.digest)
                    refs[spec.name][str(slot)] = digests
                print(f"{spec.name} slot {slot}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(wl.REFS_PATH, "w") as fh:
        json.dump(refs, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
