"""Verification reports: named groups of residual polynomials.

A check passes iff every residual is the zero polynomial.  Failures keep the
offending basis label and the rendered residual so every failed check is a
reproducible input.  ``Report.sweep`` takes a check's residuals as one flat
mapping {(instance..., target): polynomial} and labels the nonzero ones.
"""

from __future__ import annotations

import math

from .poly import Record


class CheckItem(Record):
    def __init__(self, name: str) -> None:
        self.name, self.residuals = name, []
        # instances a sweep evaluated and skipped, read by tests and scripts
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

    def sweep(self, name: str, axes: tuple[tuple[str, ...], ...], residuals: dict,
              targets=None, label: str | None = None, skipped: int = 0) -> CheckItem:
        """Check `name` on every index tuple over `axes`, the names of each index.

        `residuals` maps keys to polynomials, a missing key is zero, and only its
        keys are visited, in sorted order.  A key is an index tuple over `axes`,
        then an index over `targets` when they are given.  `skipped` counts the
        further index tuples that were not evaluated.  An instance with a
        nonzero residual is labelled once, by label.format(*names), by default
        "(a,b,...)", and each residual gets "->target" after it.  The item
        counts the instances evaluated and skipped."""
        label = label or "(" + ",".join(["{}"] * len(axes)) + ")"
        shape = tuple(map(len, axes)) + (() if targets is None else (len(targets),))
        for key in residuals:
            if not (isinstance(key, tuple) and len(key) == len(shape)
                    and all(isinstance(i, int) and 0 <= i < n for i, n in zip(key, shape))):
                raise ValueError(f"check {name!r}: residual key {key!r} is outside its axes")
        item = self.new_check(name)
        item.evaluated, item.skipped = math.prod(map(len, axes)) - skipped, skipped
        instance = basis = None
        for key in sorted(residuals):
            if not (res := residuals[key]).is_zero:
                if (idx := key[:len(axes)]) != instance:
                    instance, basis = idx, label.format(*(axis[i] for axis, i in zip(axes, idx)))
                target = "" if targets is None else f"->{targets[key[-1]]}"
                item.residuals.append((basis + target, str(res)))
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
