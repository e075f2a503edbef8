"""Band tiling (the AKG flow's post-scheduling tiling stage, Fig. 1(b)).

Tiling rewrites the outermost permutable band

    for (t0 ...) for (t1 ...) body        [band, sizes s0, s1]

into

    for (t0T) for (t1T)            # tile loops
      for (t0P < s0) for (t1P < s1)   # point loops
        body[t0 := s0*t0T + t0P, ...]

which is legal for any member order because the band is permutable (the
scheduler's validity constraints hold for every permutation of its
dimensions).  Ragged extents are handled with guards.

The paper relies on "tile sizes selected by respective tool auto-tuners";
:func:`repro.pipeline.autotune.autotune_tile_sizes` provides that search on
top of the GPU model.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.codegen.ast import Guard, Loop, Seq, substitute_var, walk
from repro.linalg.rational import frac
from repro.schedule.functions import Schedule
from repro.solver.problem import Constraint, LinExpr, var


class TilingError(Exception):
    """The requested band cannot be tiled."""


def _constant_extent(loop: Loop, params: dict[str, int]) -> Optional[int]:
    env = {p: frac(v) for p, v in params.items()}
    try:
        lowers = [e.evaluate(env) for e in loop.lowers]
        uppers = [e.evaluate(env) for e in loop.uppers]
    except KeyError:
        return None
    lo = max(lowers) if not loop.lower_is_min else min(lowers)
    hi = min(uppers) if not loop.upper_is_max else max(uppers)
    return int(hi - lo) + 1


def outermost_band_chain(ast: Seq, schedule: Schedule,
                         params: dict[str, int]) -> list[Loop]:
    """The outermost perfectly-nested chain of same-band loops with
    constant, zero-based extents (the tilable prefix)."""
    chain: list[Loop] = []
    node = ast
    band: Optional[int] = None
    env = {p: frac(v) for p, v in params.items()}
    while True:
        if isinstance(node, Seq):
            if len(node.children) != 1:
                break
            node = node.children[0]
            continue
        if not isinstance(node, Loop) or node.vector or node.mapping:
            break
        if node.schedule_dim < 0:
            break
        info = schedule.dims[node.schedule_dim]
        if band is None:
            band = info.band
        elif info.band != band:
            break
        extent = _constant_extent(node, params)
        try:
            zero_based = all(e.evaluate(env) == 0 for e in node.lowers)
        except KeyError:
            break
        if extent is None or not zero_based:
            break
        chain.append(node)
        node = node.body
    return chain


def tile_band(ast: Seq, schedule: Schedule, params: dict[str, int],
              tile_sizes: Sequence[int]) -> int:
    """Tile a prefix of the outermost permutable band in place.

    ``tile_sizes`` gives one size per band member, outermost first; the
    tiled prefix ends at the first size <= 1 (or at the band's end).
    Returns the number of loops tiled.
    """
    chain = outermost_band_chain(ast, schedule, params)
    effective: list[tuple[Loop, int]] = []
    for loop, size in zip(chain, tile_sizes):
        if size <= 1:
            break
        effective.append((loop, size))
    if not effective:
        return 0

    # Everything below the innermost tiled loop: all uses of the tiled
    # variables (calls, guards, deeper bounds) live there.
    inner_body = effective[-1][0].body

    point_loops: list[Loop] = []
    guards: list[Constraint] = []
    for loop, size in effective:
        extent = _constant_extent(loop, params)
        point_var = f"{loop.var}p"
        tile_var = f"{loop.var}T"
        replacement = (size * var(tile_var)) + var(point_var)
        substitute_var(inner_body, loop.var, replacement)
        point_loops.append(Loop(
            var=point_var,
            lowers=[LinExpr(const=0)],
            uppers=[LinExpr(const=size - 1)],
            body=Seq([]),  # linked below
            schedule_dim=loop.schedule_dim,
            parallel=loop.parallel,
        ))
        if extent % size != 0:
            original_upper = LinExpr(const=extent - 1)
            guards.append(Constraint(replacement - original_upper, "<="))
        # The original loop object becomes the tile loop (parent links and
        # chain nesting stay valid because the prefix is contiguous).
        loop.var = tile_var
        loop.lowers = [LinExpr(const=0)]
        loop.uppers = [LinExpr(const=-(-extent // size) - 1)]
        loop.lower_is_min = False
        loop.upper_is_max = False

    body: Seq = inner_body
    if guards:
        body = Seq([Guard(conditions=guards, body=body)])
    for point in reversed(point_loops):
        point.body = body
        body = Seq([point])
    effective[-1][0].body = body
    return len(effective)
