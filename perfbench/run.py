"""ASV benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload ism_serial --seed 1 --seconds 12 --trace 0

Run from the repository root; the program is imported from ``src/``.
Workloads (see README.md in this directory):

* ``ism_serial`` - stereo video through ISM, plain single-core kernels
* ``ism_tiled``  - the same video, kernels tiled on a process pool
* ``dse_zoo``    - deconvolution design-space search over four networks
* ``dnn_qhd``    - transformed-deconvolution DNN forward passes at qHD

The last line of standard output is the result: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer ones).  The line before it records the
host and workload details.  A traced run also writes its spans as a
Chrome trace to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path

from harness import host_record, one_blas_thread, stop_children

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: workload -> (module, extra positional arguments of its ``run``)
WORKLOADS = {
    "ism_serial": ("ism_workload", (False,)),
    "ism_tiled": ("ism_workload", (True,)),
    "dse_zoo": ("dse_workload", ()),
    "dnn_qhd": ("dnn_workload", ()),
}


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashing is randomised per interpreter; that reorders dict
        # and set iteration, and with it allocations, so peak memory of
        # the same run flips between values a cost volume apart
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    one_blas_thread()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        module_name, extra = WORKLOADS[args.workload]
        t0 = time.perf_counter()
        module = importlib.import_module(module_name)
        import_s = time.perf_counter() - t0
        host = host_record(module.workers(*extra) if extra else 0)
        goldens = json.loads((HERE / "goldens.json").read_text())
        out = module.run(*extra, args.seed, args.seconds, bool(args.trace), goldens)
        if out.spans is not None:
            out.spans.write_chrome(
                str(HERE / "out" / f"trace_{args.workload}_{args.seed}.json")
            )
        values = out.layers if args.trace else out.end_to_end
    finally:
        stop_children()
    print(json.dumps({"host": host, "workload": args.workload, "seed": args.seed,
                      "import_s": import_s, "detail": out.detail}))
    print(json.dumps({
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in names.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
