"""Multistage, multipath network construction and analysis."""

from repro.network.builder import MetroNetwork, build_network
from repro.network.cascaded import CascadedNetwork, WideMessage
from repro.network.fattree import fattree_plan
from repro.network.headers import HeaderCodec
from repro.network.multibutterfly import Link, NodeRef, wire
from repro.network.topology import (
    NetworkPlan,
    StageSpec,
    figure1_plan,
    figure3_plan,
)

__all__ = [
    "CascadedNetwork",
    "HeaderCodec",
    "Link",
    "WideMessage",
    "MetroNetwork",
    "NetworkPlan",
    "NodeRef",
    "StageSpec",
    "build_network",
    "fattree_plan",
    "figure1_plan",
    "figure3_plan",
    "wire",
]
