"""Deterministic, seeded fault injection for the compilation stack.

Resilience code (solver deadlines, the pipeline degradation ladder, the
run store's torn-tail handling) is only trustworthy if its failure paths
are exercised.  This module provides an ambient *fault plan* — mirroring
``repro.obs.runtime`` — that instrumented sites consult:

* ``compile``            (``pipeline/passes.py``): force a typed failure
  of one variant compilation (``timeout``, ``scheduling-error``,
  ``codegen-error``, ``branch-limit``).
* ``scheduler.dimension`` (``schedule/scheduler.py``): declare one
  per-dimension ILP ``infeasible`` (drives the backtracking ladder) or
  ``timeout`` it.
* ``store.append``       (``obs/store.py``, ``eval/checkpoint.py``):
  fail a durable append with ``enospc`` (raised before any byte is
  written) or ``short-write`` (half the line lands, then ``EIO`` — the
  torn-tail case readers must tolerate).  Attributes: ``kind`` (``run``
  or ``checkpoint``), ``path``, ``key``.

Decisions are *content-keyed*: whether a rule fires depends solely on the
plan seed, the site name and the site's attributes (hashed through
SHA-256), never on call order or process identity.  A serial run and a
``--jobs N`` run therefore take identical fault decisions, which is what
keeps degradation records reproducible across execution modes.

Plans come from three places, in precedence order: an explicit
:func:`use_faults` scope, the ``REPRO_FAULT_PLAN`` environment variable
(an inline spec), else the empty plan.  The spec grammar is
semicolon-separated rules::

    site=action[@key=value[&key=value...]][:p=PROB]

    compile=timeout@variant=infl&influence=True
    compile=codegen-error:p=0.25;scheduler.dimension=infeasible@dim=1

``@key=value`` clauses match site attributes by exact string equality;
``:p=`` makes the rule probabilistic (content-keyed, so still
deterministic).  A leading ``seed=N;`` token sets the plan seed.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import (
    BranchLimitExceeded,
    CodegenError,
    ReproError,
    SchedulingError,
    SolverTimeout,
)
from repro.obs.logutil import logger
from repro.obs.runtime import get_obs

ENV_VAR = "REPRO_FAULT_PLAN"


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: fire ``action`` at ``site`` when it matches."""

    site: str
    action: str
    match: tuple[tuple[str, str], ...] = ()  # (attr, exact str(value))
    probability: float = 1.0


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of fault rules (empty plan = no faults)."""

    name: str = ""
    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.rules)

    def action_at(self, site: str, **attrs) -> Optional[str]:
        """The action to inject at ``site`` with ``attrs``, or ``None``.

        The first matching rule wins; probabilistic rules decide via a
        content hash of ``(seed, site, attrs)`` so every process reaches
        the same verdict for the same site instance.
        """
        for rule in self.rules:
            if rule.site != site:
                continue
            if any(str(attrs.get(key)) != value for key, value in rule.match):
                continue
            if rule.probability >= 1.0 \
                    or _decision(self.seed, site, attrs) < rule.probability:
                return rule.action
        return None


def _decision(seed: int, site: str, attrs: dict) -> float:
    """Deterministic uniform draw in [0, 1) keyed by plan seed + site."""
    text = f"{seed}|{site}|" + "|".join(
        f"{key}={attrs[key]}" for key in sorted(attrs))
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


NULL_PLAN = FaultPlan()


class FaultPlanError(ValueError):
    """An inline fault-plan spec could not be parsed."""


def parse_plan(spec: str, name: str = "") -> FaultPlan:
    """Parse an inline plan spec (see the module docstring grammar)."""
    seed = 0
    rules: list[FaultRule] = []
    for token in filter(None, (part.strip() for part in spec.split(";"))):
        if token.startswith("seed="):
            seed = int(token[len("seed="):])
            continue
        probability = 1.0
        if ":p=" in token:
            token, _, prob_text = token.rpartition(":p=")
            probability = float(prob_text)
        head, _, match_text = token.partition("@")
        site, sep, action = head.partition("=")
        if not sep or not site or not action:
            raise FaultPlanError(f"bad fault rule {token!r}: expected "
                                 f"site=action[@k=v[&k=v]][:p=PROB]")
        match = []
        for clause in filter(None, match_text.split("&")):
            key, sep, value = clause.partition("=")
            if not sep or not key:
                raise FaultPlanError(f"bad match clause {clause!r} in "
                                     f"fault rule {token!r}")
            match.append((key, value))
        rules.append(FaultRule(site=site, action=action,
                               match=tuple(match), probability=probability))
    return FaultPlan(name=name or spec, seed=seed, rules=tuple(rules))


_current: Optional[FaultPlan] = None
_env_cache: dict[str, FaultPlan] = {}


def get_faults() -> FaultPlan:
    """The ambient fault plan: ``use_faults`` scope, else ``REPRO_FAULT_PLAN``.

    The environment variable is re-read on every call (a dict lookup) so
    pool workers — which inherit the parent environment — agree with the
    parent without explicit plumbing; parsed plans are cached per spec.
    """
    if _current is not None:
        return _current
    spec = os.environ.get(ENV_VAR, "")
    if not spec:
        return NULL_PLAN
    if spec not in _env_cache:
        try:
            _env_cache[spec] = parse_plan(spec)
        except (FaultPlanError, ValueError) as exc:
            logger.warning("ignoring unparseable %s=%r: %s",
                           ENV_VAR, spec, exc)
            _env_cache[spec] = NULL_PLAN
    return _env_cache[spec]


@contextmanager
def use_faults(plan: Optional[FaultPlan]) -> Iterator[FaultPlan]:
    """Install ``plan`` as the ambient fault plan for the dynamic extent
    (overrides ``REPRO_FAULT_PLAN``; pass ``NULL_PLAN`` to disable)."""
    global _current
    previous = _current
    _current = plan
    try:
        yield plan if plan is not None else NULL_PLAN
    finally:
        _current = previous


def fault_action(site: str, **attrs) -> Optional[str]:
    """Consult the ambient plan at one site; count and trace a hit."""
    plan = get_faults()
    if not plan:
        return None
    action = plan.action_at(site, **attrs)
    if action is not None:
        obs = get_obs()
        if obs.metrics.enabled:
            obs.metrics.count(f"faults.{site}.{action}")
        obs.event("fault.injected", site=site, action=action, **attrs)
        logger.debug("fault plan %s fires %s at %s %s",
                     plan.name, action, site, attrs)
    return action


_FAULT_EXCEPTIONS: dict[str, type[ReproError]] = {
    "timeout": SolverTimeout,
    "scheduling-error": SchedulingError,
    "codegen-error": CodegenError,
    "branch-limit": BranchLimitExceeded,
}


def raise_fault(action: str, site: str, **attrs) -> None:
    """Raise the typed exception an injection action stands for."""
    exc_type = _FAULT_EXCEPTIONS.get(action)
    if exc_type is None:
        raise FaultPlanError(f"fault action {action!r} at site {site!r} "
                             f"has no exception mapping; pick from "
                             f"{sorted(_FAULT_EXCEPTIONS)}")
    detail = ", ".join(f"{key}={value}" for key, value in sorted(attrs.items()))
    raise exc_type(f"injected fault at {site} ({detail})")
