"""Schedule-level golden pin for the deconvolution design-space search.

Every schedule the ILAR optimizer and the static-partition baseline
choose, and every partition the baseline picks, is hashed and compared
against digests committed in ``tests/golden/dse_schedules.json``.  The
digests were captured before the search was memoized, so any change to
a chosen schedule, its label, its rounds or its multiplicities fails
here, not only a change to the cycle totals.

Regenerate (only when a schedule change is intended) with::

    PYTHONPATH=src python tests/test_dse_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.deconv import best_static_partition, lower_network, optimize_layers
from repro.hw import ASV_BASE, SystolicModel
from repro.models.stereo_networks import network_specs

GOLDEN = Path(__file__).parent / "golden" / "dse_schedules.json"
NETWORKS = ("DispNet", "FlowNetC", "GC-Net", "PSMNet")
SIZE = (135, 240)
#: ILAR on the per-layer optimizer; the static baseline on the naive
#: network; the static baseline on the transformed network (DCT only)
VARIANTS = ("ilar", "static", "static-dct")


def search(network: str, variant: str):
    """(partition or None, schedules) of one search at ``SIZE``."""
    specs = network_specs(network, size=SIZE)
    model = SystolicModel(ASV_BASE)
    if variant == "ilar":
        layers = lower_network(specs, transform=True, ilar=True)
        return None, optimize_layers(layers, ASV_BASE, model)
    transform = variant == "static-dct"
    layers = lower_network(specs, transform=transform, ilar=False)
    return best_static_partition(layers, ASV_BASE, model)


def digest(partition, schedules) -> str:
    h = hashlib.sha256(repr(partition).encode())
    for sched in schedules:
        h.update(json.dumps(sched.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def compute() -> dict[str, str]:
    return {
        f"{network}/{variant}": digest(*search(network, variant))
        for network in NETWORKS
        for variant in VARIANTS
    }


@pytest.mark.parametrize("network", NETWORKS)
def test_schedules_match_golden(network):
    golden = json.loads(GOLDEN.read_text())
    for variant in VARIANTS:
        key = f"{network}/{variant}"
        assert digest(*search(network, variant)) == golden[key], key


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
