"""`repro verify` orchestration: goldens + oracle + metamorphic + corpus.

One entry point, :func:`run_verify`, drives the five verification engines
over the Table II networks:

* golden regression (:mod:`repro.verify.snapshot`) on each network's
  production-scale suite — exact snapshot comparison, or re-blessing with
  ``update_goldens=True``;
* per-operator-family goldens (``family_*.json``): fixed tiny kernels for
  depthwise conv, attention blocks and the 2D stencils, pinned under both
  golden variants plus the family's template baseline;
* the differential oracle (:mod:`repro.verify.oracle`): the analytic tier
  on the same production-scale operators, and the full exhaustive tier on
  the network's tiny-shape :func:`~repro.workloads.generator.verification_suite`;
* metamorphic relations (:mod:`repro.verify.metamorphic`) on the tiny
  suite;
* replay of the committed fuzz corpus (:mod:`repro.verify.fuzz`).

The report keeps problems per engine, so the CLI can print a usable
breakdown and CI can fail with the first offending section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ReproError
from repro.obs.runtime import get_obs
from repro.pipeline.akg import AkgPipeline
from repro.verify.fuzz import replay_corpus
from repro.verify.metamorphic import metamorphic_check
from repro.verify.oracle import differential_oracle
from repro.verify.snapshot import (GOLDEN_FAMILIES, GoldenConfig,
                                   build_family_golden, build_network_golden,
                                   compare_goldens, load_golden, write_golden)
from repro.workloads.generator import generate_network_suite, verification_suite
from repro.workloads.networks import NETWORKS


@dataclass(frozen=True)
class VerifyConfig:
    """What ``repro verify`` runs and against which pinned configuration."""

    networks: tuple[str, ...] = ()  # empty == all Table II networks
    seed: int = 0
    limit: int = 2                  # production-scale operators per network
    sample_blocks: int = 2
    max_threads: int = 256
    update_goldens: bool = False
    goldens_dir: Optional[str] = None
    corpus_dir: Optional[str] = None
    check_goldens: bool = True
    check_families: bool = True
    check_oracle: bool = True
    check_metamorphic: bool = True
    check_corpus: bool = True

    def golden_config(self) -> GoldenConfig:
        return GoldenConfig(seed=self.seed, limit=self.limit,
                            sample_blocks=self.sample_blocks,
                            max_threads=self.max_threads)

    def network_names(self) -> tuple[str, ...]:
        return self.networks or tuple(NETWORKS)


@dataclass
class VerifyReport:
    """Per-engine problem lists plus what was (re)blessed."""

    problems: dict[str, list[str]] = field(default_factory=dict)
    updated_goldens: list[str] = field(default_factory=list)
    networks: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not any(self.problems.values())

    @property
    def total_problems(self) -> int:
        return sum(len(v) for v in self.problems.values())

    def add(self, section: str, problems: list[str]) -> None:
        if problems:
            self.problems.setdefault(section, []).extend(problems)

    def render(self) -> str:
        lines = [f"verify: networks={','.join(self.networks)} "
                 f"problems={self.total_problems}"]
        for path in self.updated_goldens:
            lines.append(f"  blessed {path}")
        for section in sorted(self.problems):
            lines.append(f"  [{section}] {len(self.problems[section])} "
                         f"problem(s)")
            for problem in self.problems[section]:
                lines.append(f"    {problem}")
        if self.ok:
            lines.append("  all checks passed")
        return "\n".join(lines)


def _verify_goldens(config: VerifyConfig, report: VerifyReport,
                    pipeline: AkgPipeline) -> None:
    golden_config = config.golden_config()
    for network in report.networks:
        try:
            actual = build_network_golden(network, golden_config,
                                          pipeline=pipeline)
        except ReproError as exc:
            # A perturbed/broken compile must read as a verification
            # failure, not abort the remaining networks.
            report.add(f"golden/{network}",
                       [f"golden build failed: {type(exc).__name__}: {exc}"])
            continue
        if config.update_goldens:
            report.updated_goldens.append(
                write_golden(actual, config.goldens_dir))
            continue
        expected = load_golden(network, config.goldens_dir)
        if expected is None:
            report.add(f"golden/{network}",
                       ["no golden committed; run `repro verify "
                        "--update-goldens` and review the diff"])
            continue
        report.add(f"golden/{network}", compare_goldens(expected, actual))


def _verify_families(config: VerifyConfig, report: VerifyReport,
                     pipeline: AkgPipeline) -> None:
    """Per-operator-family goldens: fixed tiny kernels, network-independent,
    pinning both golden variants and the family template baseline."""
    golden_config = config.golden_config()
    for family in GOLDEN_FAMILIES:
        section = f"family/{family}"
        try:
            actual = build_family_golden(family, golden_config,
                                         pipeline=pipeline)
        except ReproError as exc:
            report.add(section,
                       [f"family build failed: {type(exc).__name__}: {exc}"])
            continue
        if config.update_goldens:
            report.updated_goldens.append(
                write_golden(actual, config.goldens_dir))
            continue
        expected = load_golden(actual["network"], config.goldens_dir)
        if expected is None:
            report.add(section,
                       ["no golden committed; run `repro verify "
                        "--update-goldens` and review the diff"])
            continue
        report.add(section, compare_goldens(expected, actual))


def _verify_oracle(config: VerifyConfig, report: VerifyReport,
                   pipeline: AkgPipeline) -> None:
    for network in report.networks:
        # Analytic tier on the production-scale suite the goldens pin.
        suite = generate_network_suite(network, seed=config.seed,
                                       limit=config.limit)
        for _, kernel in suite:
            report.add(f"oracle/{network}",
                       differential_oracle(kernel, pipeline=pipeline))
        # Exhaustive tier on the tiny per-class stand-ins.
        for _, kernel in verification_suite(network):
            report.add(f"oracle/{network}",
                       differential_oracle(kernel, pipeline=pipeline,
                                           exhaustive=True))


def _verify_metamorphic(config: VerifyConfig, report: VerifyReport,
                        pipeline: AkgPipeline) -> None:
    for network in report.networks:
        for _, kernel in verification_suite(network):
            try:
                problems = metamorphic_check(kernel, pipeline=pipeline)
            except ReproError as exc:
                problems = [f"{kernel.name}: metamorphic compile failed: "
                            f"{type(exc).__name__}: {exc}"]
            report.add(f"metamorphic/{network}", problems)


def run_verify(config: Optional[VerifyConfig] = None) -> VerifyReport:
    """Run every enabled verification engine; see module docstring."""
    config = config or VerifyConfig()
    obs = get_obs()
    report = VerifyReport(networks=config.network_names())
    for network in report.networks:
        if network not in NETWORKS:
            raise ValueError(f"unknown network {network!r}; "
                             f"pick from {list(NETWORKS)}")
    pipeline = AkgPipeline(max_threads=config.max_threads,
                           sample_blocks=config.sample_blocks)
    if config.check_goldens:
        _verify_goldens(config, report, pipeline)
    if config.check_families:
        _verify_families(config, report, pipeline)
    if config.check_oracle:
        _verify_oracle(config, report, pipeline)
    if config.check_metamorphic:
        _verify_metamorphic(config, report, pipeline)
    if config.check_corpus:
        report.add("corpus", replay_corpus(config.corpus_dir))
    if obs.metrics.enabled:
        obs.metrics.count("verify.runs")
        if not report.ok:
            obs.metrics.count("verify.problems", report.total_problems)
    return report
