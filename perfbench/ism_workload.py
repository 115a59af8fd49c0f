"""``ism_serial`` and ``ism_tiled``: stereo video through ISM.

``sceneflow_scene`` videos at 270x480 (qHD/2 per side) with
``max_disp`` 48 run through ``ISM(ISMConfig())``: PW-4, static key
policy, SGM as the key-frame matcher.  The seed picks four of eight
scenes, whose PW-4 windows (a key frame and three non-key frames)
play in turn, each on a fresh set-up, so a run's cost does not hinge
on one scene's content; key frames are then replayed alone until ten
have run.
Serially, the plain functions run; tiled, a ``TileExecutor`` is injected through ISM's ``dnn``,
``refiner`` and ``flow`` hooks.  Both must produce the committed
per-frame disparity digests, so tiling is checked bit-identical to
the serial pipeline on every run.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

import repro.core.correspondence as correspondence
from repro.core import ISM, ISMConfig, nonkey_op_counts
from repro.datasets import sceneflow_scene
from repro.flow import farneback
from repro.parallel.executor import TileExecutor
from repro.stereo.block_matching import guided_block_match
from repro.stereo.metrics import error_rate
from repro.stereo.sgm import sgm, sgm_ops

from harness import Outcome, Spans, median, now, peak_rss_mb

SIZE = (270, 480)
MAX_DISP = 48
SCENES = 8          # the pool the seed draws from (goldens exist for each)
SCENES_PER_RUN = 4
#: a set-up is ~1.6 s; ten would not fit the run budget.  Each window
#: is played by a fresh set-up, so there are at least this many windows.
SETUPS = 5
#: no timing metric rests on fewer than ten samples.  Four windows hold
#: twelve non-key frames but only four key frames, so ``play`` times six
#: more key frames alone rather than six more windows.
MIN_KEY_FRAMES = 10
CONFIG = ISMConfig()
WINDOW = CONFIG.propagation_window  # frames per scene: one key, then non-key

#: functions ``repro.core.correspondence`` calls by module-global name,
#: rebound to timed versions in a traced run only
CORRESPONDENCE_STAGES = {
    "median2d": "stereo.median2d",
    "compose_flows": "flow.compose",
    "forward_warp_disparity": "flow.warp",
    "fill_background": "stereo.fill",
    "median_clean": "stereo.median_clean",
}

#: spans that are direct children of a non-key ``core.step``
NONKEY_STAGES = (
    "flow.expand", "flow.iterate", "stereo.median2d", "flow.compose",
    "flow.warp", "stereo.fill", "stereo.guided", "stereo.median_clean",
)


def workers(tiled: bool) -> int:
    return min(2, os.cpu_count() or 1) if tiled else 0


def scenes(seed: int) -> list[int]:
    """The scenes the seed selects, in playing order."""
    rng = np.random.default_rng(seed)
    return [int(i) for i in rng.choice(SCENES, SCENES_PER_RUN, replace=False)]


def render(scene: int):
    """One scene's window of frames (rendered before any timing)."""
    video = sceneflow_scene(scene, size=SIZE, max_disp=MAX_DISP)
    return video.sequence(WINDOW)


def digest(disp: np.ndarray) -> str:
    data = np.ascontiguousarray(disp, dtype=np.float64)
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


def _key_matcher(match):
    def key_matcher(frame):
        return match(frame.left, frame.right, MAX_DISP)

    return key_matcher


def make_ism(ex: TileExecutor | None, spans: Spans | None = None) -> ISM:
    """The ISM under test; with ``spans`` its hooks are timed wrappers
    around exactly the callables the untraced pipeline uses."""
    if ex is None:
        dnn, refiner, flow = _key_matcher(sgm), None, None
    else:
        dnn, refiner, flow = _key_matcher(ex.sgm), ex.guided_block_match, ex
    if spans is not None:
        refiner = refiner or guided_block_match
        flow = flow or farneback
        dnn = spans.wrap(dnn, "stereo.sgm")
        refiner = spans.wrap(refiner, "stereo.guided")
        flow = SimpleNamespace(
            expand_frame=spans.wrap(flow.expand_frame, "flow.expand"),
            flow_from_expansions=spans.wrap(
                flow.flow_from_expansions, "flow.iterate"
            ),
        )
    return ISM(dnn, CONFIG, refiner=refiner, flow=flow)


@contextmanager
def traced_correspondence(spans: Spans):
    """Rebind the stage functions ``propagate_correspondences`` and
    ``refine_correspondences`` call, for the duration of the block."""
    saved = {name: getattr(correspondence, name) for name in CORRESPONDENCE_STAGES}
    try:
        for name, span in CORRESPONDENCE_STAGES.items():
            setattr(correspondence, name, spans.wrap(saved[name], span))
        yield
    finally:
        for name, fn in saved.items():
            setattr(correspondence, name, fn)


def _step(ism: ISM, frame, samples: list, spans: Spans | None):
    """One timed ``ism.step``, appended to ``samples`` as ``(is_key, s)``."""
    if spans is None:
        t0 = now()
        disp, is_key = ism.step(frame)
        dt = now() - t0
    else:
        spans.unit = len(samples)
        t0 = now()
        with spans.span("core.step"):
            disp, is_key = ism.step(frame)
        dt = now() - t0
    samples.append((is_key, dt))
    return disp, is_key


def play(start_window, videos: dict, seconds: float, goldens: dict,
         out: Outcome, min_windows: int, spans: Spans | None = None,
         errors: list | None = None):
    """Play the scenes' windows in turn, each on the ISM that
    ``start_window(scene, frames)`` returns ready, until every scene
    played once, ``min_windows`` were played and the steps took
    ``seconds``; then replay the windows' key frames alone, each after
    ``reset()`` as in a window, until ``MIN_KEY_FRAMES`` key frames ran.

    Returns ``(samples, played)``: ``(is_key, step_seconds)`` per step,
    and how many of them came from whole windows.  Each output's digest
    and key decision are checked against the goldens, outside the timed
    step; with ``errors``, so is each frame's 3-px error on the first
    visit of each scene, and the errors are collected there.
    """
    samples: list = []
    windows = 0
    for scene, frames in itertools.cycle(videos.items()):
        if (windows >= max(len(videos), min_windows)
                and sum(dt for _, dt in samples) >= seconds):
            break
        golden = goldens[str(scene)]
        ism = start_window(scene, frames)
        for i, frame in enumerate(frames):
            disp, is_key = _step(ism, frame, samples, spans)
            ok = is_key == (i == 0) and digest(disp) == golden["digests"][i]
            if errors is not None and windows < len(videos):
                err = error_rate(disp, frame.disparity)
                errors.append(err)
                ok = ok and round(err, 9) == golden["err_3px_pct"][i]
            out.check(ok)
        windows += 1
    played = len(samples)
    for scene, frames in itertools.cycle(videos.items()):
        if sum(k for k, _ in samples) >= MIN_KEY_FRAMES:
            break
        ism.reset()
        disp, is_key = _step(ism, frames[0], samples, spans)
        out.check(is_key and digest(disp) == goldens[str(scene)]["digests"][0])
    return samples, played


def _setup(tiled: bool, frames, golden: dict, out: Outcome):
    """Construction, pool start, one warm-up key step and one warm-up
    non-key step, then ``reset()``: what a user pays before frame one."""
    t0 = now()
    ex = TileExecutor(workers=workers(tiled), transport="shm") if tiled else None
    ism = make_ism(ex)
    warm = [ism.step(frames[0])[0], ism.step(frames[1])[0]]
    ism.reset()
    elapsed = now() - t0
    for i, disp in enumerate(warm):
        out.check(digest(disp) == golden["digests"][i])
    return ex, ism, elapsed


def run(tiled: bool, seed: int, seconds: float, trace: bool,
        goldens: dict) -> Outcome:
    goldens = goldens["ism"]
    chosen = scenes(seed)
    # rendered in a child process: the scene-dependent temporaries of
    # rendering would otherwise shape this process's heap, and so its
    # peak memory
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        videos = dict(zip(chosen, pool.map(render, chosen)))
    out = Outcome()
    setups, ex = [], None

    def fresh(scene, frames):
        """A window on a fresh set-up: set-ups are spread over the run,
        so they sample the same host conditions as the frames."""
        nonlocal ex
        if ex is not None:
            ex.close()
        ex, ism, elapsed = _setup(tiled, frames, goldens[str(scene)], out)
        setups.append(elapsed)
        return ism

    try:
        errors: list = []
        samples, played = play(fresh, videos, seconds, goldens, out, SETUPS,
                               errors=errors)
        key = median(dt for k, dt in samples if k)
        nonkey = median(dt for k, dt in samples if not k)
        out.end_to_end = {
            # whole windows only: one key frame in every WINDOW frames
            "fps": played / sum(dt for _, dt in samples[:played]),
            "unit_ms_p50": median(dt for _, dt in samples[:played]) * 1e3,
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(),
        }
        out.detail = {
            "frames": played,
            "key_frames": sum(k for k, _ in samples),
            "key_frame_ms_p50": key * 1e3,
            "nonkey_frame_ms_p50": nonkey * 1e3,
            "err_3px_pct": float(np.mean(errors)),
            "scenes": list(videos),
            "setups_s": setups,
        }
        if trace:
            spans = Spans()
            traced = make_ism(ex, spans)

            def reset(scene, frames):
                traced.reset()
                return traced

            with traced_correspondence(spans):
                traced_samples, _ = play(reset, videos, seconds, goldens, out,
                                         SETUPS, spans=spans)
            out.layers = layer_metrics(spans, traced_samples, samples)
            out.spans = spans
    finally:
        if ex is not None:
            ex.close()
    return out


def layer_metrics(spans: Spans, traced, untraced) -> dict:
    """Per-stage medians per frame, achieved op rates against the
    repo's op models (computed counts, not measured ones), the
    non-key self time and span coverage, and the tracer overhead."""
    h, w = SIZE
    key_units = [u for u, (k, _) in enumerate(traced) if k]
    nonkey_units = [u for u, (k, _) in enumerate(traced) if not k]
    ops = nonkey_op_counts(h, w, CONFIG)

    def per_frame_ms(name: str, units) -> float:
        by_unit = spans.by_unit(name)
        return median(by_unit.get(u, 0.0) for u in units) * 1e3

    def total_s(*names: str) -> float:
        return sum(sum(spans.durations(n)) for n in names)

    layers = {
        "stereo.sgm_ms": per_frame_ms("stereo.sgm", key_units),
        "stereo.sgm_gops": len(key_units) * sgm_ops(h, w, MAX_DISP)
        / total_s("stereo.sgm") / 1e9,
    }
    for stage in NONKEY_STAGES:
        layers[stage + "_ms"] = per_frame_ms(stage, nonkey_units)
    calls = spans.calls_by_unit("flow.expand")
    layers["flow.expand_calls"] = median(calls.get(u, 0) for u in nonkey_units)
    n_nonkey = len(nonkey_units)
    layers["flow.gops"] = (
        n_nonkey * ops.flow / total_s("flow.expand", "flow.iterate") / 1e9
    )
    layers["stereo.guided_gops"] = (
        n_nonkey * ops.search / total_s("stereo.guided") / 1e9
    )
    steps = spans.by_unit("core.step")
    covered = spans.child_seconds("core.step")
    layers["core.key_step_ms"] = median(steps[u] for u in key_units) * 1e3
    layers["core.nonkey_step_ms"] = median(steps[u] for u in nonkey_units) * 1e3
    layers["core.nonkey_self_ms"] = median(
        steps[u] - covered[u] for u in nonkey_units
    ) * 1e3
    layers["core.nonkey_span_pct_min"] = min(
        100.0 * covered[u] / steps[u] for u in nonkey_units
    )
    layers["core.nonkey_gops"] = (
        n_nonkey * ops.total / sum(steps[u] for u in nonkey_units) / 1e9
    )
    layers["trace.overhead_ms"] = (
        median(dt for k, dt in traced if not k)
        - median(dt for k, dt in untraced if not k)
    ) * 1e3
    return layers
