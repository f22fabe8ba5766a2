"""Performance rules: no hashed ``np.unique`` in library code (R009).

A replay spends its time in whole-column passes, so a primitive that
costs an order of magnitude more than its alternative on the columns
it meets is a regression waiting in any hot path.  Under NumPy 2.x,
``np.unique`` is hash-based: about ten times a ``bincount`` on
small-int keys, and far behind a sort on wide ones.
:mod:`repro.grouping` holds the replacements.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .finding import Finding
from .framework import FileContext, Rule, dotted_name, register

_UNIQUE = frozenset({"np.unique", "numpy.unique"})


@register
class NoNumpyUnique(Rule):
    """R009: library code takes distinct values from ``repro.grouping``.

    Historical cost: ``np.unique`` ran once per fresh sink context and
    once per journaled message, a few percent of a replay each.
    Flags every reference to ``np.unique`` / ``numpy.unique`` (called
    or not) and every ``from numpy import unique``; a deliberate cold
    use keeps a reasoned suppression.
    """

    id = "R009"
    name = "no-numpy-unique"
    domains = ("lib",)
    description = ("no np.unique in library code: use repro.grouping's "
                   "sorted_distinct / distinct / distinct_blocks")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                named = dotted_name(node) in _UNIQUE
            elif isinstance(node, ast.ImportFrom):
                named = node.module == "numpy" and any(
                    alias.name == "unique" for alias in node.names
                )
            else:
                continue
            if named:
                yield ctx.finding(
                    self.id, node,
                    "np.unique is a hashed pass, ~10x a count on small "
                    "keys; use repro.grouping (sorted_distinct, distinct, "
                    "distinct_blocks)",
                )
