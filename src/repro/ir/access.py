"""Affine tensor accesses and a small affine-expression parser.

An access is a tensor reference with one affine subscript per tensor
dimension, e.g. ``D[k][i][j]`` in the paper's running example.  Subscripts
are :class:`~repro.solver.problem.LinExpr` over iterator and parameter
names; for convenience they can be written as strings (``"i"``, ``"k+1"``,
``"2*i - 1"``) and parsed with :func:`parse_affine`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence, Union

from repro.ir.tensor import Tensor
from repro.linalg.rational import Rat
from repro.solver.problem import LinExpr, var

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|[+\-*])")


def parse_affine(text: str) -> LinExpr:
    """Parse an affine expression over named variables.

    Grammar: ``expr := term (('+'|'-') term)*``;
    ``term := INT | NAME | INT '*' NAME | NAME '*' INT``.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad affine expression {text!r} at {pos}")
            break
        tokens.append(m.group(1))
        pos = m.end()

    expr = LinExpr()
    sign = 1
    i = 0

    def take_term(idx: int) -> tuple[LinExpr, int]:
        tok = tokens[idx]
        if tok.isdigit():
            if idx + 2 < len(tokens) and tokens[idx + 1] == "*":
                name = tokens[idx + 2]
                if not name.isidentifier():
                    raise ValueError(f"expected name after '*' in {text!r}")
                return LinExpr({name: int(tok)}), idx + 3
            return LinExpr(const=int(tok)), idx + 1
        if tok.isidentifier():
            if idx + 2 < len(tokens) and tokens[idx + 1] == "*":
                factor = tokens[idx + 2]
                if not factor.isdigit():
                    raise ValueError(f"expected integer after '*' in {text!r}")
                return LinExpr({tok: int(factor)}), idx + 3
            return var(tok), idx + 1
        raise ValueError(f"unexpected token {tok!r} in {text!r}")

    expect_term = True
    while i < len(tokens):
        tok = tokens[i]
        if expect_term:
            if tok == "-":
                sign = -sign
                i += 1
                continue
            if tok == "+":
                i += 1
                continue
            term, i = take_term(i)
            expr = expr + sign * term
            sign = 1
            expect_term = False
        else:
            if tok == "+":
                sign = 1
            elif tok == "-":
                sign = -1
            else:
                raise ValueError(f"expected '+' or '-' before {tok!r} in {text!r}")
            i += 1
            expect_term = True
    if expect_term and tokens:
        raise ValueError(f"dangling operator in {text!r}")
    return expr


Subscript = Union[str, int, LinExpr]


def _coerce_subscript(sub: Subscript) -> LinExpr:
    if isinstance(sub, LinExpr):
        return sub
    if isinstance(sub, bool):
        raise TypeError("boolean subscript")
    if isinstance(sub, int):
        return LinExpr(const=sub)
    if isinstance(sub, str):
        return parse_affine(sub)
    raise TypeError(f"bad subscript {sub!r}")


@dataclass(frozen=True)
class Access:
    """One read or write reference to a tensor."""

    tensor: Tensor
    subscripts: tuple[LinExpr, ...]
    is_write: bool = False

    @classmethod
    def build(cls, tensor: Tensor, subscripts: Sequence[Subscript],
              is_write: bool = False) -> "Access":
        subs = tuple(_coerce_subscript(s) for s in subscripts)
        if len(subs) != tensor.rank:
            raise ValueError(
                f"{tensor.name} has rank {tensor.rank}, got {len(subs)} subscripts")
        return cls(tensor, subs, is_write)

    def variables(self) -> set[str]:
        """All iterator/parameter names appearing in the subscripts."""
        names: set[str] = set()
        for s in self.subscripts:
            names |= s.variables()
        return names

    def coefficient(self, dim: int, name: str) -> Rat:
        """Coefficient of ``name`` in the ``dim``-th subscript."""
        return self.subscripts[dim].coeffs.get(name, 0)

    def stride_along(self, name: str) -> int:
        """Memory stride (in elements) when iterator ``name`` advances by 1.

        This is the quantity Algorithm 2's cost model reasons about:
        ``sum_d coeff(name, d) * tensor_stride(d)``.  A result of 0 means the
        access is invariant along ``name``; 1 means contiguous.
        """
        strides = self.tensor.strides()
        total = 0
        for d, sub in enumerate(self.subscripts):
            total += sub.coeffs.get(name, 0) * strides[d]
        if total.denominator != 1:
            raise ValueError("non-integer stride; subscripts must be integral")
        return abs(int(total))

    def linearized(self, point: dict[str, Rat]) -> int:
        """Element offset of this access at a concrete iteration point."""
        strides = self.tensor.strides()
        offset = 0
        for d, sub in enumerate(self.subscripts):
            offset += sub.evaluate(point) * strides[d]
        if offset.denominator != 1:
            raise ValueError("non-integer offset")
        return int(offset)

    def byte_address(self, point: dict[str, Rat], base: int = 0) -> int:
        """Byte address at a concrete iteration point (``base`` in bytes)."""
        return base + self.linearized(point) * self.tensor.dtype.size_bytes

    def __str__(self):
        def render(expr: LinExpr) -> str:
            parts = []
            for name, coeff in sorted(expr.coeffs.items()):
                if coeff == 1:
                    parts.append(name)
                elif coeff == -1:
                    parts.append(f"-{name}")
                else:
                    parts.append(f"{coeff}*{name}")
            if expr.const != 0 or not parts:
                parts.append(str(expr.const))
            return " + ".join(parts).replace("+ -", "- ")

        subs = "][".join(render(s) for s in self.subscripts)
        return f"{self.tensor.name}[{subs}]"
