"""The benchmark's own tests, on tiny inputs: its timing wrappers are
transparent, its rebindings are undone, and its spans cover a traced
non-key step.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import dnn_workload  # noqa: E402
import dse_workload  # noqa: E402
import ism_workload  # noqa: E402
from harness import Spans, stop_children  # noqa: E402

from repro.datasets import sceneflow_scene  # noqa: E402
from repro.models.runnable import mini_dispnet_graph  # noqa: E402
from repro.models.stereo_networks import network_specs  # noqa: E402
from repro.parallel.executor import TileExecutor  # noqa: E402


@pytest.fixture(scope="module")
def video():
    return sceneflow_scene(2, size=(64, 112), max_disp=32).sequence(6)


def _run(ism, frames):
    ism.reset()
    return [ism.step(f) for f in frames]


@pytest.mark.parametrize("tiled", [False, True])
def test_traced_ism_is_bit_identical(video, tiled):
    ex = TileExecutor(workers=2, pool="thread", tile_rows=16) if tiled else None
    try:
        plain = _run(ism_workload.make_ism(ex), video)
        spans = Spans()
        with ism_workload.traced_correspondence(spans):
            traced = _run(ism_workload.make_ism(ex, spans), video)
    finally:
        if ex is not None:
            ex.close()
    assert [k for _, k in plain] == [k for _, k in traced] == [
        True, False, False, False, True, False]
    for (a, _), (b, _) in zip(plain, traced):
        assert np.array_equal(a, b)
    assert {name for name, *_ in spans.records} == {
        "stereo.sgm", *ism_workload.NONKEY_STAGES}


def test_rebinding_is_undone(video):
    import repro.core.correspondence as correspondence

    before = {n: getattr(correspondence, n) for n in ism_workload.CORRESPONDENCE_STAGES}
    with pytest.raises(RuntimeError):
        with ism_workload.traced_correspondence(Spans()):
            raise RuntimeError
    assert before == {
        n: getattr(correspondence, n) for n in ism_workload.CORRESPONDENCE_STAGES}


def test_spans_cover_a_nonkey_step():
    frames = sceneflow_scene(4, size=(135, 240), max_disp=48).sequence(3)
    spans = Spans()
    ism = ism_workload.make_ism(None, spans)
    samples = []
    with ism_workload.traced_correspondence(spans):
        for unit, frame in enumerate(frames):
            spans.unit = unit
            with spans.span("core.step"):
                samples.append(ism.step(frame)[1])
    steps = spans.by_unit("core.step")
    covered = spans.child_seconds("core.step")
    nonkey = [u for u, key in enumerate(samples) if not key]
    assert nonkey == [1, 2]
    for u in nonkey:
        assert covered[u] >= 0.95 * steps[u], (covered[u], steps[u])


def test_counting_model_yields_identical_schedules():
    specs = network_specs("DispNet", size=(68, 120))
    spans = Spans()
    for variant in dse_workload.VARIANTS:
        plain = dse_workload.search(specs, variant, dse_workload.SystolicModel(
            dse_workload.ASV_BASE))
        model = dse_workload.CountingModel(dse_workload.ASV_BASE)
        with dse_workload.traced_search(spans):
            counted = dse_workload.search(specs, variant, model)
        assert [s.label for s in plain] == [s.label for s in counted]
        assert dse_workload.cycles(plain) == dse_workload.cycles(counted)
        assert model.calls > len(plain) and model.seconds > 0
    names = {name for name, *_ in spans.records}
    assert names == {span for *_, span in dse_workload.TRACED_CALLS}


def test_search_rebinding_is_undone():
    before = [getattr(m, n) for m, n, _ in dse_workload.TRACED_CALLS]
    with pytest.raises(RuntimeError):
        with dse_workload.traced_search(Spans()):
            raise RuntimeError
    assert before == [getattr(m, n) for m, n, _ in dse_workload.TRACED_CALLS]


def test_timed_graph_is_transparent():
    x = np.random.default_rng(0).normal(size=(2, 32, 48))
    naive = mini_dispnet_graph()(x)
    plain = dnn_workload.transformed(mini_dispnet_graph())(x)
    spans = Spans()
    timed = dnn_workload.timed(dnn_workload.transformed(mini_dispnet_graph()), spans)
    assert np.array_equal(timed(x), plain)
    assert np.allclose(plain, naive)
    kinds = [name for name, *_ in spans.records]
    assert kinds.count("deconv.subconv") == 3 and kinds.count("nn.conv") == 5


def test_self_time_and_chrome_export(tmp_path):
    spans = Spans()
    spans.unit = 0
    with spans.span("outer"):
        with spans.span("inner"):
            pass
    assert spans.child_seconds("outer")[0] <= spans.by_unit("outer")[0]
    path = tmp_path / "trace.json"
    spans.write_chrome(str(path))
    events = json.loads(path.read_text())
    assert [e["name"] for e in events] == ["outer", "inner"]
    assert events[1]["args"]["parent"] == 0



def test_fresh_setup_is_timed_in_a_child():
    seconds = dse_workload.fresh_setup_s()
    assert 0.0 < seconds < 60.0
    assert "repro.models.stereo_networks" in sys.modules  # this process's own


def test_stop_children_reaps_the_resource_tracker():
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        assert pool.submit(abs, -1).result() == 1
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None  # spawn-context locks started it
    stop_children()
    assert tracker._pid is None and not multiprocessing.active_children()
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)  # already reaped
