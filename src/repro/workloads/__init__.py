"""Workload zoo: fused-operator suites for the Table I networks.

The paper evaluates fused operators extracted by MindSpore's graph-kernel
fusion from seven networks (Table I).  We cannot run MindSpore, so
:mod:`repro.workloads.generator` reproduces the *population statistics* that
drive the evaluation: each network gets a seeded suite of fused operators
drawn from the operator classes of :mod:`repro.workloads.operators`
(element-wise chains, broadcast ops, reductions with producers, 2D/4D
layout conversions, running-example-shaped operators), with a per-network
class mix calibrated to the paper's operator counts and speedup profile
(transpose-heavy ResNets, element-wise-dominated BERT, tiny LSTM).
"""

from repro.workloads.networks import NETWORKS, NetworkSpec
from repro.workloads.generator import generate_network_suite
from repro.workloads import operators

__all__ = [
    "NETWORKS",
    "NetworkSpec",
    "generate_network_suite",
    "operators",
]
