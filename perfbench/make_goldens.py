"""Regenerate ``goldens.json``: the outputs every benchmark run checks.

    python3 perfbench/make_goldens.py

* ``ism``: for each scene the seed can select, the serial pipeline's
  per-frame disparity digests and 3-px errors over its PW-4 window;
* ``dse``: total cycles of each (network, variant) search;
* ``dnn``: for each pair the seed can select, the sum and absolute sum
  of the transformed graph's output.

Run it only when a change to the program is meant to change these
outputs; otherwise a mismatch in a benchmark run is a defect.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from harness import one_blas_thread

HERE = Path(__file__).resolve().parent


def main() -> None:
    one_blas_thread()
    sys.path.insert(0, str(HERE.parent / "src"))
    import dnn_workload
    import dse_workload
    import ism_workload
    from repro.stereo.metrics import error_rate

    ism = {}
    for scene in range(ism_workload.SCENES):
        frames = ism_workload.render(scene)
        result = ism_workload.make_ism(None).run_sequence(frames)
        ism[str(scene)] = {
            "digests": [ism_workload.digest(d) for d in result.disparities],
            "err_3px_pct": [
                round(error_rate(d, f.disparity), 9)
                for d, f in zip(result.disparities, frames)
            ],
        }
    dse = {}
    for name in dse_workload.NETWORKS:
        specs = dse_workload.network_specs(name)
        for variant in dse_workload.VARIANTS:
            model = dse_workload.SystolicModel(dse_workload.ASV_BASE)
            schedules = dse_workload.search(specs, variant, model)
            dse[f"{name}/{variant}"] = dse_workload.cycles(schedules)
    dnn = {}
    for scene in range(dnn_workload.PAIRS):
        graph = dnn_workload.transformed(dnn_workload.mini_dispnet_graph())
        dnn[str(scene)] = dnn_workload.sums(graph(dnn_workload.render(scene)))
    (HERE / "goldens.json").write_text(
        json.dumps({"ism": ism, "dse": dse, "dnn": dnn}, indent=1) + "\n"
    )


if __name__ == "__main__":
    main()
