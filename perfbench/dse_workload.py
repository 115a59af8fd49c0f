"""``dse_zoo``: the deconvolution design-space search over the zoo.

DispNet, FlowNetC, GC-Net and PSMNet at qHD on ``ASV_BASE``, each
searched twice per pass: ILAR (``lower_network(transform=True,
ilar=True)`` + ``optimize_layers``) and the static-partition baseline
(``lower_network(transform=False)`` + ``best_static_partition``).  A
pass uses a fresh ``SystolicModel``; nothing is cached between
searches.  This is the pure-Python search behind fig11/12/13.  The
layer tables are fixed, so the seed is unused; every search's total
cycles must equal the committed golden.

The timed quantity is the whole pass: every search, summed.  A traced
run times the stages by rebinding the names the search calls (see
``traced_search``); the search itself has one code path.
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import repro.deconv.optimizer as optimizer
from repro.deconv import best_static_partition, lower_network, optimize_layers
from repro.hw import ASV_BASE, SystolicModel
from repro.models.stereo_networks import network_specs

from harness import Outcome, Spans, median, now, peak_rss_mb

NETWORKS = ("DispNet", "FlowNetC", "GC-Net", "PSMNet")
VARIANTS = ("ilar", "static")
MIN_PASSES = 2  # a pass takes ~16 s; ten would not fit the run budget

#: one set-up, timed in a fresh interpreter with this directory and
#: ``src/`` on its path
FRESH_SETUP = (
    "import time; t0 = time.perf_counter()\n"
    "import dse_workload; dse_workload.setup()\n"
    "print(time.perf_counter() - t0)\n"
)


class CountingModel(SystolicModel):
    """A ``SystolicModel`` that counts the schedules it costs and the
    time it spends on them; its results are the parent's.  (A pass
    costs ~28k schedules, too many to keep a span for each.)"""

    def __init__(self, hw):
        super().__init__(hw)
        self.calls = 0
        self.seconds = 0.0

    def run_schedule(self, sched, validate: bool = True):
        t0 = now()
        try:
            return super().run_schedule(sched, validate)
        finally:
            self.seconds += now() - t0
            self.calls += 1


def search(specs, variant: str, model: SystolicModel):
    """One network's schedules under one variant."""
    if variant == "ilar":
        return optimize_layers(
            lower_network(specs, transform=True, ilar=True), ASV_BASE, model
        )
    return best_static_partition(
        lower_network(specs, transform=False), ASV_BASE, model
    )[1]


#: (module, name, span): the calls ``search`` makes, and the one
#: ``optimize_layers`` makes per layer, rebound in a traced run only
TRACED_CALLS = (
    (sys.modules[__name__], "lower_network", "deconv.lower"),
    (sys.modules[__name__], "optimize_layers", "deconv.optimize"),
    (sys.modules[__name__], "best_static_partition", "deconv.static_partition"),
    (optimizer, "optimize_layer", "deconv.optimize_layer"),
)


@contextmanager
def traced_search(spans: Spans):
    """Time every call ``search`` makes, for the duration of the block."""
    saved = [getattr(module, name) for module, name, _ in TRACED_CALLS]
    try:
        for (module, name, span), fn in zip(TRACED_CALLS, saved):
            setattr(module, name, spans.wrap(fn, span))
        yield
    finally:
        for (module, name, _), fn in zip(TRACED_CALLS, saved):
            setattr(module, name, fn)


def setup() -> dict:
    """What a search needs first: the layer tables, and a cost model."""
    tables = {name: network_specs(name) for name in NETWORKS}
    SystolicModel(ASV_BASE)
    return tables


def fresh_setup_s() -> float:
    """Seconds of one set-up in a fresh interpreter, imports included.

    In-process, a set-up is under a millisecond, too short to time
    steadily; a user starting a search pays the imports too.
    """
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here), str(here.parent / "src")])
    done = subprocess.run(
        [sys.executable, "-c", FRESH_SETUP],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def cycles(schedules) -> int:
    return SystolicModel(ASV_BASE).run_schedules(schedules, validate=False).cycles


def one_pass(tables: dict, golden: dict, out: Outcome, model: SystolicModel,
             setups: list | None = None) -> dict:
    """Search every (network, variant) once; seconds per search.  With
    ``setups``, a fresh set-up is timed into it before each search, so
    set-ups sample the same host conditions as the searches."""
    times = {}
    for name in NETWORKS:
        for variant in VARIANTS:
            if setups is not None:
                setups.append(fresh_setup_s())
            t0 = now()
            schedules = search(tables[name], variant, model)
            times[name, variant] = now() - t0
            out.check(cycles(schedules) == golden[f"{name}/{variant}"])
    return times


def passes(tables, golden, seconds: float, out: Outcome, min_passes: int,
           model_type=SystolicModel, setups: list | None = None) -> tuple[list, list]:
    """Whole passes until ``seconds`` have elapsed and ``min_passes``
    ran, each on a fresh model; per-search seconds and the models."""
    start = now()
    runs, models = [], []
    while True:
        models.append(model_type(ASV_BASE))
        runs.append(one_pass(tables, golden, out, models[-1], setups))
        if len(runs) >= min_passes and now() - start >= seconds:
            return runs, models


def run(seed: int, seconds: float, trace: bool, goldens: dict) -> Outcome:
    del seed  # fixed layer tables
    golden = goldens["dse"]
    out = Outcome()
    setups: list = []
    tables = setup()
    runs, _ = passes(tables, golden, seconds, out, MIN_PASSES, setups=setups)
    pass_s = [sum(r.values()) for r in runs]
    searches = len(NETWORKS) * len(VARIANTS)
    out.end_to_end = {
        "fps": searches * len(runs) / sum(pass_s),
        "unit_ms_p50": median(pass_s) / searches * 1e3,
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    out.detail = {"passes": len(runs), "dse_s": median(pass_s), "pass_s": pass_s,
                  "setups_s": setups}
    if trace:
        spans = Spans()
        with traced_search(spans):
            traced, models = passes(tables, golden, seconds, out, MIN_PASSES,
                                    model_type=CountingModel)
        out.layers = layer_metrics(spans, models, traced, pass_s)
        out.spans = spans
    return out


def layer_metrics(spans: Spans, models: list, traced: list, untraced_pass_s: list) -> dict:
    """Per-pass search times by stage, schedules costed, the search's
    own time outside the cost model, and the tracer overhead."""
    n = len(traced)

    def per_pass_s(name: str) -> float:
        return sum(spans.durations(name)) / n

    optimize = per_pass_s("deconv.optimize")
    static = per_pass_s("deconv.static_partition")
    run_schedule = sum(m.seconds for m in models) / n
    layers = {
        "deconv.lower_ms": per_pass_s("deconv.lower") * 1e3,
        "deconv.optimize_s": optimize,
        "deconv.optimize_layer_ms_p50": median(
            spans.durations("deconv.optimize_layer")
        ) * 1e3,
        "deconv.static_partition_s": static,
        "hw.schedules_costed": sum(m.calls for m in models) / n,
        "hw.run_schedule_s": run_schedule,
        "deconv.search_self_s": optimize + static - run_schedule,
        "trace.overhead_ms": (
            median(sum(r.values()) for r in traced) - median(untraced_pass_s)
        ) * 1e3,
    }
    for name in NETWORKS:
        layers[f"deconv.optimize_s.{name}"] = median(r[name, "ilar"] for r in traced)
        layers[f"deconv.static_partition_s.{name}"] = median(
            r[name, "static"] for r in traced
        )
    return layers
