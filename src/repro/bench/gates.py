"""The gate vocabulary: a claim of the paper plus a predicate over a result.

Five predicates, nothing else — no expression language, no gate file, no
tolerance flags:

* :func:`ratio` — pointwise between two series, ``a[x] op k·b[x]``;
* :func:`trend` — between two points of one series, ``s[x] op k·s[x0]``;
* :func:`every` / :func:`some` — a bound on every (at least one) point;
* :func:`cell` — one point of a series, or one cell of a table;
* :func:`fact` — a bound on a named fact.

A table row is a series over the table's columns; the series name ``"*"``
means every series of the result; ``k`` and ``bound`` may be a per-x mapping.
Evidence that is absent (a series, a point, a fact) fails the gate by name
instead of raising ``KeyError``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq}

#: What a predicate returns: whether the claim held, and what was observed.
Verdict = Tuple[bool, str]


class MissingEvidence(LookupError):
    """The result lacks a series, point, bound or fact a gate names."""


def _lookup(mapping: Mapping, key, what: str):
    if key not in mapping:
        raise MissingEvidence(f"no {what}")
    return mapping[key]


def _point(points: Mapping, series: str, x):
    return _lookup(points, x, f"point {x!r} in series {series!r}")


def _series(result, name: str) -> Dict[str, Mapping]:
    """``{series name: {x: y}}`` for ``name`` (``"*"``: every series)."""
    chosen = result.rows if name == "*" else {name: result.rows.get(name)}
    for series, points in chosen.items():
        if not points:
            raise MissingEvidence(f"no series {series!r}")
    return chosen


def _per_x(bound, x):
    """A bound (or factor) is one number, or one per x."""
    return _lookup(bound, x, f"bound declared at {x!r}") if isinstance(bound, Mapping) else bound


def _text(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _judge(op: str, comparisons: List[Tuple[str, object, object]], quantify=all) -> Verdict:
    """Judge ``(where, seen, reference)`` comparisons: ``seen op reference``."""
    held = [OPS[op](seen, reference) for _, seen, reference in comparisons]
    return quantify(held), "; ".join(
        f"{where}: {_text(seen)} {'' if ok else 'not '}{op} {_text(reference)}"
        for ok, (where, seen, reference) in zip(held, comparisons)
    )


def ratio(a: str, b: str, op: str, k=1.0, at=None):
    """``a[x] op k·b[x]`` at every x the two series share (or only at ``at``)."""

    def check(result) -> Verdict:
        left, right = _series(result, a)[a], _series(result, b)[b]
        xs = sorted(set(left) & set(right)) if at is None else [at]
        if not xs:
            raise MissingEvidence(f"series {a!r} and {b!r} share no point")
        return _judge(op, [
            (f"at {x}", _point(left, a, x), _per_x(k, x) * _point(right, b, x)) for x in xs
        ])

    return check


def trend(series: str, x, op: str, k, x0):
    """``s[x] op k·s[x0]`` within one series."""

    def check(result) -> Verdict:
        return _judge(op, [
            (f"{name} at {x} vs {x0}", _point(points, name, x), k * _point(points, name, x0))
            for name, points in _series(result, series).items()
        ])

    return check


def every(series: str, op: str, bound, at=None, quantify=all):
    """``s[x] op bound`` at every point of the series (or only at ``at``)."""

    def check(result) -> Verdict:
        return _judge(op, [
            (f"{name} at {x}", _point(points, name, x), _per_x(bound, x))
            for name, points in _series(result, series).items()
            for x in (points if at is None else [at])
        ], quantify)

    return check


def some(series: str, op: str, bound):
    """``s[x] op bound`` at one point of the series at least."""
    return every(series, op, bound, quantify=any)


def cell(series: str, x, op: str, value):
    """``s[x] op value``: one point of a series, one cell of a table row."""
    return every(series, op, value, at=x)


def fact(name: str, op: str, bound):
    """``facts[name] op bound``."""
    return lambda result: _judge(op, [(name, _lookup(result.facts, name, f"fact {name!r}"), bound)])


@dataclass(frozen=True)
class Gate:
    """One claim, in the paper's words, and the predicate that holds it."""

    claim: str
    predicate: Callable[[object], Verdict]

    def evaluate(self, result) -> Verdict:
        """``(held, observed)``; missing evidence is a failure that names it."""
        try:
            return self.predicate(result)
        except MissingEvidence as missing:
            return False, str(missing)
