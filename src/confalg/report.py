"""Verification reports: named groups of residual polynomials.

A check passes iff every residual is the zero polynomial.  Failures keep the
offending basis label and the rendered residual so every failed check is a
reproducible input.  ``Report.sweep`` labels the nonzero residuals of basis tuples.
"""

from __future__ import annotations

import itertools
import math
from operator import attrgetter

from .poly import Record


class CheckItem(Record):
    def __init__(self, name: str) -> None:
        self.name, self.residuals = name, []
        # instances a sweep evaluated and skipped; not in to_dict yet
        self.evaluated, self.skipped = 0, 0

    @property
    def ok(self) -> bool:
        return not self.residuals


class Report(Record):
    def __init__(self) -> None:
        self.checks: list[CheckItem] = []

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def new_check(self, name: str) -> CheckItem:
        item = CheckItem(name)
        self.checks.append(item)
        return item

    def sweep(self, name: str, axes: tuple[tuple[str, ...], ...], residuals,
              targets=None, label: str | None = None, skipped=()) -> CheckItem:
        """Check `name` on every index tuple over `axes`, the names of each index.

        `residuals` maps index tuples to residuals (a missing one is zero) and
        only its keys are visited, or is run as residuals(*idx) on every tuple
        and may return None to skip it.  `skipped` holds further tuples that
        were not evaluated; they are counted, not visited.  A residual is a
        polynomial, or a vector over `targets`: a tuple of polynomials, or a
        dict from target indices to polynomials read in index order.  An
        instance with a nonzero residual is labelled label.format(*names), by
        default "(a,b,...)", and a vector's nonzero entries get "->target" after
        it.  The item counts the instances evaluated and skipped."""
        label = label or "(" + ",".join(["{}"] * len(axes)) + ")"
        shape = tuple(map(len, axes))
        if callable(residuals):
            entries = ((idx, residuals(*idx)) for idx in itertools.product(*map(range, shape)))
        else:
            for idx in residuals:
                if not (isinstance(idx, tuple) and len(idx) == len(shape)
                        and all(isinstance(i, int) and 0 <= i < n for i, n in zip(idx, shape))):
                    raise ValueError(f"check {name!r}: residual key {idx!r} is outside its axes")
            entries = ((idx, residuals[idx]) for idx in sorted(residuals))
        item = self.new_check(name)
        item.skipped = len(skipped)
        for idx, res in entries:
            if res is None:
                item.skipped += 1
                continue
            polys = (res,) if targets is None else res.values() if isinstance(res, dict) else res
            if all(map(attrgetter("is_zero"), polys)):
                continue
            basis = label.format(*(axis[i] for axis, i in zip(axes, idx)))
            if targets is None:
                item.residuals.append((basis, str(res)))
            else:
                pairs = sorted(res.items()) if isinstance(res, dict) else enumerate(res)
                item.residuals += [(f"{basis}->{targets[k]}", str(p))
                                   for k, p in pairs if not p.is_zero]
        item.evaluated = math.prod(shape) - item.skipped
        return item

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {
                    "name": c.name,
                    "ok": c.ok,
                    "residuals": [{"basis": b, "poly": p} for b, p in c.residuals],
                }
                for c in self.checks
            ],
        }
