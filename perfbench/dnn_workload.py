"""``dnn_qhd``: key-frame DNN inference with transformed deconvolutions.

``mini_dispnet_graph`` with every ``Deconv`` node replaced by
``TransformedDeconv`` (node replacement, as the integration tests do
it) runs forward on a ``(2, 544, 960)`` stack of a rendered stereo
pair: qHD with the height rounded up to the multiple of 8 the graph
needs.  This is the only numeric path through ``deconv.transform`` and
``nn.ops``.  The seed picks the pair from a pool of rendered scenes.
The warm-up output must match the committed golden sums of its pair
and be ``allclose`` to the untransformed graph's, and every timed
output must repeat its digest.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import numpy as np

from repro.datasets import sceneflow_scene
from repro.deconv import transformed_specs
from repro.deconv.runtime import TransformedDeconv
from repro.models.runnable import mini_dispnet_graph
from repro.nn.layers import Conv, Deconv

from harness import Outcome, Spans, median, now, peak_rss_mb

SHAPE = (2, 544, 960)
PAIRS = 8  # the pool the seed draws from (goldens exist for each)
SETUPS = 10
FORWARDS_PER_SETUP = 4  # timed passes between two set-ups
NAIVE_PASSES = 10  # traced run only: the untransformed graph, for the ratio
MIN_FORWARDS = 10  # no timing metric rests on fewer than ten samples


def pair(seed: int) -> int:
    return int(np.random.default_rng(seed).integers(PAIRS))


def render(scene: int) -> np.ndarray:
    frame = sceneflow_scene(scene, size=SHAPE[1:]).render(0.0)
    return np.stack([frame.left, frame.right])


def sums(y: np.ndarray) -> list[float]:
    """Summary of an output checked against the goldens (to 1e-9)."""
    return [float(y.sum()), float(np.abs(y).sum())]


def matches(y: np.ndarray, golden: list[float]) -> bool:
    return bool(np.allclose(sums(y), golden, rtol=1e-9, atol=0.0))


def transformed(graph):
    """``graph`` with each ``Deconv`` node running as sub-convolutions."""
    for i, node in enumerate(graph.nodes):
        if isinstance(node.layer, Deconv):
            graph.nodes[i] = type(node)(
                node.name, TransformedDeconv(node.layer), node.inputs
            )
    return graph


def timed(graph, spans: Spans):
    """Each (sub-)convolution node of ``graph`` recorded as a span."""
    for i, node in enumerate(graph.nodes):
        if isinstance(node.layer, TransformedDeconv):
            name = "deconv.subconv"
        elif isinstance(node.layer, Conv):
            name = "nn.conv"
        else:
            continue
        layer = SimpleNamespace(forward=spans.wrap(node.layer.forward, name))
        graph.nodes[i] = type(node)(node.name, layer, node.inputs)
    return graph


def digest(y: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(y).tobytes()).hexdigest()[:16]


def set_up(x):
    """Build the graph and run one warm-up pass: ``(graph, output, s)``."""
    t0 = now()
    graph = transformed(mini_dispnet_graph())
    warm = graph(x)
    return graph, warm, now() - t0


def forwards(graph, x, seconds: float, expect: str, out: Outcome,
             spans: Spans | None = None, setups: list | None = None) -> list:
    """Forward passes until ``seconds`` have elapsed and at least
    ``MIN_FORWARDS`` ran; per-pass seconds.

    With ``setups``, a fresh set-up is timed into it after every
    ``FORWARDS_PER_SETUP`` passes until it holds ``SETUPS``, and the
    passes go on with its graph: set-ups are spread over the run, so
    they sample the same host conditions as the passes.
    """
    times = []
    start = now()
    while True:
        if (setups is not None and times and len(setups) < SETUPS
                and len(times) % FORWARDS_PER_SETUP == 0):
            graph, warm, elapsed = set_up(x)
            setups.append(elapsed)
            out.check(digest(warm) == expect)
        if spans is not None:
            spans.unit = len(times)
        t0 = now()
        y = graph(x)
        times.append(now() - t0)
        out.check(digest(y) == expect)
        if (len(times) >= MIN_FORWARDS and now() - start >= seconds
                and (setups is None or len(setups) >= SETUPS)):
            return times


def run(seed: int, seconds: float, trace: bool, goldens: dict) -> Outcome:
    scene = pair(seed)
    x = render(scene)
    out = Outcome()
    graph, warm, elapsed = set_up(x)
    setups = [elapsed]
    naive = mini_dispnet_graph()
    out.check(matches(warm, goldens["dnn"][str(scene)]))
    out.check(bool(np.allclose(warm, naive(x))))
    expect = digest(warm)
    times = forwards(graph, x, seconds, expect, out, setups=setups)
    out.end_to_end = {
        "fps": len(times) / sum(times),
        "unit_ms_p50": median(times) * 1e3,
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    out.detail = {"forwards": len(times), "infer_ms_p50": median(times) * 1e3,
                  "shape": list(SHAPE), "scene": scene, "setups_s": setups}
    if trace:
        spans = Spans()
        traced_times = forwards(timed(transformed(mini_dispnet_graph()), spans),
                                x, seconds, expect, out, spans)
        naive_times = []
        for _ in range(NAIVE_PASSES):
            t0 = now()
            naive(x)
            naive_times.append(now() - t0)
        out.layers = layer_metrics(naive, spans, traced_times, times, naive_times)
        out.spans = spans
    return out


def layer_metrics(naive, spans: Spans, traced, untraced, naive_times) -> dict:
    """Per-forward time by layer kind, achieved MAC rates from
    ``ConvSpec.macs`` (computed counts), the naive/transformed ratio and
    the tracer overhead."""
    units = range(len(traced))
    conv = spans.by_unit("nn.conv")
    sub = spans.by_unit("deconv.subconv")
    conv_macs = sub_macs = 0
    for spec in naive.conv_specs(SHAPE):
        if spec.deconv:
            sub_macs += sum(s.macs for s in transformed_specs(spec))
        else:
            conv_macs += spec.macs
    n = len(traced)
    return {
        "nn.conv_ms": median(conv[u] for u in units) * 1e3,
        "nn.conv_gmacs": n * conv_macs / sum(conv.values()) / 1e9,
        "deconv.subconv_ms": median(sub[u] for u in units) * 1e3,
        "deconv.subconv_gmacs": n * sub_macs / sum(sub.values()) / 1e9,
        "nn.other_ms": median(
            traced[u] - conv[u] - sub[u] for u in units
        ) * 1e3,
        "deconv.naive_over_dct": median(naive_times) / median(untraced),
        "trace.overhead_ms": (median(traced) - median(untraced)) * 1e3,
    }
