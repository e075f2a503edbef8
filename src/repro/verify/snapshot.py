"""Golden regression snapshots of compiled Table II operators.

A *snapshot* captures everything downstream of the scheduler for one
compiled operator: the serialized schedule of every launch (via
:mod:`repro.schedule.serialize`), the generated loop AST, the launch
geometry, the degradation rung taken, and the GPU model's full
:class:`~repro.gpu.simulator.KernelProfile` counter set.  Golden files
(one JSON document per network under ``tests/goldens/``) pin those
snapshots for a fixed generator configuration, so *any* behavior change in
the scheduler, code generator, mapper or simulator shows up as a reviewed
diff instead of silent drift.

``repro verify`` checks the committed goldens; ``repro verify
--update-goldens`` re-blesses them after an intentional change.  The
compilation model is deterministic (exact rational arithmetic end to end),
so comparisons are exact — including floats, which round-trip JSON
losslessly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

from repro.gpu.simulator import simulate_kernel
from repro.obs.runtime import get_obs
from repro.pipeline.akg import AkgPipeline, CompiledOperator
from repro.schedule.serialize import schedule_to_dict
from repro.workloads.generator import generate_network_suite
from repro.workloads.networks import NETWORKS

GOLDEN_VERSION = 1

# Default goldens directory: tests/goldens/ next to the test suite.
DEFAULT_GOLDENS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))), "tests", "goldens")

GOLDEN_VARIANTS = ("isl", "infl")


@dataclass(frozen=True)
class GoldenConfig:
    """The generator/pipeline configuration a golden file is pinned to.

    Stored inside the file and compared on check, so a config drift (e.g.
    a different seed) reads as an explicit mismatch instead of a wall of
    bogus schedule diffs.
    """

    seed: int = 0
    limit: int = 2          # operators per network
    sample_blocks: int = 2  # simulator sampling for the profile counters
    max_threads: int = 256

    def as_dict(self) -> dict:
        return {"seed": self.seed, "limit": self.limit,
                "sample_blocks": self.sample_blocks,
                "max_threads": self.max_threads}


def _launch_snapshot(launch, pipeline: AkgPipeline, sample_blocks: int,
                     degradation: str = "none") -> dict:
    profile = simulate_kernel(launch, arch=pipeline.arch,
                              sample_blocks=sample_blocks)
    return {
        "kernel": launch.kernel.name,
        "schedule": schedule_to_dict(launch.schedule,
                                     degradation=degradation),
        "ast": launch.ast.render(),
        "grid": [[d.loop_var, d.extent, d.mapping] for d in launch.grid],
        "block": [[d.loop_var, d.extent, d.mapping] for d in launch.block],
        "profile": profile.counters(),
    }


def operator_snapshot(compiled: CompiledOperator,
                      pipeline: AkgPipeline,
                      sample_blocks: int = 2) -> dict:
    """The golden snapshot of one compiled operator."""
    launches = [_launch_snapshot(launch, pipeline, sample_blocks,
                                 degradation=compiled.degradation)
                for launch in compiled.launches]
    return {
        "variant": compiled.variant,
        "degradation": compiled.degradation,
        "vectorized": compiled.vectorized,
        "n_launches": compiled.n_launches,
        "launches": launches,
    }


def build_network_golden(network: str,
                         config: Optional[GoldenConfig] = None,
                         pipeline: Optional[AkgPipeline] = None) -> dict:
    """Compile the network's (limited) suite and snapshot every operator
    under every golden variant."""
    config = config or GoldenConfig()
    if network not in NETWORKS:
        raise ValueError(f"unknown network {network!r}; "
                         f"pick from {list(NETWORKS)}")
    pipeline = pipeline or AkgPipeline(max_threads=config.max_threads,
                                       sample_blocks=config.sample_blocks)
    suite = generate_network_suite(network, seed=config.seed,
                                   limit=config.limit)
    operators = {}
    for op_class, kernel in suite:
        snapshots = {}
        for variant in GOLDEN_VARIANTS:
            compiled = pipeline.compile(kernel, variant)
            snapshots[variant] = operator_snapshot(
                compiled, pipeline, sample_blocks=config.sample_blocks)
        operators[kernel.name] = {"class": op_class, "variants": snapshots}
    return {
        "version": GOLDEN_VERSION,
        "network": network,
        "config": config.as_dict(),
        "operators": operators,
    }


# -- per-family goldens --------------------------------------------------------

# Fixed tiny-shape builders for the operator-family goldens: one committed
# document per family (filename ``family_<name>.json``), pinning schedules,
# ASTs, launch geometry and profiles for both golden variants *plus* the
# family's TVM-style template baseline.  Shapes match the exhaustive-oracle
# tier in ``generator._VERIFY_BUILDERS`` so the pinned artifacts are the
# same ones the oracle proves semantics-preserving.
def _family_builders() -> dict:
    from repro.ir import examples
    from repro.workloads import operators
    return {
        "depthwise_conv": lambda: operators.depthwise_conv_op(
            "family_depthwise_conv", channels=2, height=4, width=4,
            kernel_size=2),
        "attention_block": lambda: operators.attention_block_op(
            "family_attention_block", seq=4, dmodel=4),
        "stencil2d_jacobi": lambda: examples.jacobi_2d(
            6, name="family_stencil2d_jacobi"),
        "stencil2d_heat": lambda: examples.heat_2d(
            6, name="family_stencil2d_heat"),
    }


GOLDEN_FAMILIES = ("depthwise_conv", "attention_block",
                   "stencil2d_jacobi", "stencil2d_heat")

# op_class label used for the family's template baseline snapshot.
_FAMILY_TEMPLATE_CLASS = {
    "depthwise_conv": "depthwise_conv",
    "attention_block": "attention_block",
    "stencil2d_jacobi": "stencil_2d",
    "stencil2d_heat": "stencil_2d",
}


def build_family_golden(family: str,
                        config: Optional[GoldenConfig] = None,
                        pipeline: Optional[AkgPipeline] = None) -> dict:
    """Compile one operator family's fixed kernel and snapshot it under
    every golden variant plus the family template baseline."""
    from repro.workloads.templates import template_compile, template_kind
    config = config or GoldenConfig()
    builders = _family_builders()
    if family not in builders:
        raise ValueError(f"unknown operator family {family!r}; "
                         f"pick from {GOLDEN_FAMILIES}")
    pipeline = pipeline or AkgPipeline(max_threads=config.max_threads,
                                       sample_blocks=config.sample_blocks)
    kernel = builders[family]()
    snapshots = {}
    for variant in GOLDEN_VARIANTS:
        compiled = pipeline.compile(kernel, variant)
        snapshots[variant] = operator_snapshot(
            compiled, pipeline, sample_blocks=config.sample_blocks)
    op_class = _FAMILY_TEMPLATE_CLASS[family]
    template_launches = template_compile(kernel, op_class,
                                         max_threads=config.max_threads)
    template = {
        "kind": template_kind(op_class),
        "n_launches": len(template_launches),
        "launches": [_launch_snapshot(launch, pipeline,
                                      config.sample_blocks)
                     for launch in template_launches],
    }
    return {
        "version": GOLDEN_VERSION,
        "network": f"family_{family}",
        "family": family,
        "config": config.as_dict(),
        "operators": {kernel.name: {"class": op_class,
                                    "variants": snapshots,
                                    "template": template}},
    }


# -- comparison ----------------------------------------------------------------


def _diff(expected, actual, path: str, out: list[str],
          max_problems: int = 50) -> None:
    """Structural diff of two JSON-compatible values, exact equality."""
    if len(out) >= max_problems:
        return
    if type(expected) is not type(actual):
        out.append(f"{path}: type changed "
                   f"{type(expected).__name__} -> {type(actual).__name__}")
        return
    if isinstance(expected, dict):
        for key in expected.keys() | actual.keys():
            if key not in actual:
                out.append(f"{path}.{key}: missing")
            elif key not in expected:
                out.append(f"{path}.{key}: unexpected new entry")
            else:
                _diff(expected[key], actual[key], f"{path}.{key}", out,
                      max_problems)
    elif isinstance(expected, list):
        if len(expected) != len(actual):
            out.append(f"{path}: length {len(expected)} -> {len(actual)}")
            return
        for index, (e, a) in enumerate(zip(expected, actual)):
            _diff(e, a, f"{path}[{index}]", out, max_problems)
    elif expected != actual:
        out.append(f"{path}: {expected!r} -> {actual!r}")


def compare_goldens(expected: dict, actual: dict) -> list[str]:
    """Differences between a stored golden document and a fresh build
    (empty == no behavior change)."""
    problems: list[str] = []
    if expected.get("version") != actual.get("version"):
        problems.append(f"golden format version "
                        f"{expected.get('version')!r} -> "
                        f"{actual.get('version')!r}")
        return problems
    _diff(expected.get("config"), actual.get("config"), "config", problems)
    if problems:
        # A config mismatch makes every downstream diff meaningless.
        return problems
    _diff(expected.get("operators"), actual.get("operators"), "operators",
          problems)
    obs = get_obs()
    if obs.metrics.enabled:
        obs.metrics.count("verify.golden.checked")
        if problems:
            obs.metrics.count("verify.golden.mismatches", len(problems))
    return problems


# -- file I/O ------------------------------------------------------------------


def golden_path(network: str, directory: Optional[str] = None) -> str:
    return os.path.join(directory or DEFAULT_GOLDENS_DIR,
                        f"{network}.json")


def load_golden(network: str, directory: Optional[str] = None) -> Optional[dict]:
    """The stored golden document, or None when never blessed."""
    path = golden_path(network, directory)
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("version") != GOLDEN_VERSION:
        raise ValueError(f"{path}: unsupported golden version "
                         f"{payload.get('version')!r}")
    return payload


def write_golden(document: dict, directory: Optional[str] = None) -> str:
    """Persist one network's golden document (sorted, indented: diffable)."""
    directory = directory or DEFAULT_GOLDENS_DIR
    os.makedirs(directory, exist_ok=True)
    path = golden_path(document["network"], directory)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp_path, path)
    return path
