"""Analytic GPU execution model (the testbed substitute).

The paper evaluates on an Nvidia V100 with nvprof; we replace it with a
warp-level simulator that models exactly the quantities the paper's
optimization targets:

* per-warp-instruction memory transactions on 32-byte sectors (memory
  coalescing),
* an L1-like sector cache giving reuse to per-thread-sequential accesses
  (but no cross-instruction store combining),
* vector-type loads/stores moving 64/128 bits per lane in one instruction,
* instruction issue cost with transaction replays for uncoalesced accesses,
* DRAM bandwidth and kernel launch overhead.

Absolute times are not meaningful; *ratios* between compilation variants
are — the model ranks layouts the way the V100 ranks them (see DESIGN.md).

:func:`simulate_kernel` runs the closed-form fast interpreter
(:mod:`repro.gpu.fastpath`); there is one simulator.  The lane-by-lane
:func:`simulate_reference` stays as the oracle whose counters the fast path
must equal bitwise: tier-1 re-runs goldens and end-to-end records on it
(the ``reference_simulator`` test fixture).
"""

from repro.gpu.arch import GpuArch, V100
from repro.gpu.memory import SectorCache, WarpAccessResult
from repro.gpu.profile_cache import (
    ProfileCache,
    get_profile_cache,
    use_profile_cache,
)
from repro.gpu.simulator import (
    KernelProfile,
    simulate_kernel,
    simulate_reference,
)

__all__ = [
    "GpuArch",
    "V100",
    "SectorCache",
    "WarpAccessResult",
    "KernelProfile",
    "simulate_kernel",
    "simulate_reference",
    "ProfileCache",
    "get_profile_cache",
    "use_profile_cache",
]
