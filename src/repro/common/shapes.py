"""A value's shape is its annotations: the one check of outside input.

Any node may send any node anything, so ``SimNode.receive`` asks every
arriving message ``well_formed()`` once.  The first time a class is asked,
its resolved field annotations compile into one generated expression (as
:mod:`dataclasses` generates ``__init__``), kept per class: ``int`` is
exactly ``int`` (``True`` would digest as ``1``), ``float`` also takes an
``int``, containers and optionals are checked as declared, a dataclass or
``NamedTuple`` (also in an ``object`` field, a PBFT proposal) through its
own predicate, and a :class:`~repro.common.types.MemoisedValue` keeps its
verdict, so the receivers of one shared batch or header check it once and
a copy (how tampering is modelled) afresh.  The annotation rules over a
disagreeing default.  A check never raises: a missing field, a cyclic or
too deep object graph, or a record whose annotations have no shape (a
sender may propose any type) is malformed.  Stack depth is no property of
a value, so ``RecursionError`` is caught only by the entry points and
never kept as a verdict.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import enum
import keyword
import typing
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.types import MemoisedValue

Check = Callable[[object], bool]

NoneType = type(None)

#: Annotations a type test answers: the exact types each admits.
_EXACT: Dict[object, Tuple[type, ...]] = {
    int: (int,), float: (int, float), str: (str,), bytes: (bytes,),
    bool: (bool,), NoneType: (NoneType,),
}

#: Where a verdict is kept on a :class:`MemoisedValue` (never a field name).
_VERDICT = "_shape_verdict"


class _Checks(Dict[type, Check]):
    """Each class's derived predicate, compiled the first time it is asked."""

    def __missing__(self, kind: type) -> Check:
        try:
            check = compile_fields(kind)
        except RecursionError:  # too deep a stack here, not a property of the type
            raise
        except Exception:  # whatever breaks the derivation: no value of ``kind`` passes
            check = _refuse
        self[kind] = check
        return check


def _refuse(value: object) -> bool:
    return False


#: ``fields_check(kind)(value)``: do the fields of ``value``, an instance of
#: ``kind``, have their declared shapes?  (A dict lookup, not a call frame.)
fields_check: Callable[[type], Check] = _Checks().__getitem__


def conforms(value: object, kind: type) -> bool:
    """Is ``value`` a ``kind`` whose every field has its declared shape?"""
    try:
        return isinstance(value, kind) and fields_check(type(value))(value)
    except RecursionError:
        return False


def _conforms(value: object, kind: type) -> bool:
    return isinstance(value, kind) and fields_check(type(value))(value)


def _is_record(kind: type) -> bool:
    return dataclasses.is_dataclass(kind) or (issubclass(kind, tuple) and hasattr(kind, "_fields"))


def _opaque(value: object) -> bool:
    return not _is_record(type(value)) or fields_check(type(value))(value)


def _exact(hint: object) -> Optional[Tuple[type, ...]]:
    """The types ``hint`` admits when a type test is all it takes."""
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return (hint,)
    if typing.get_origin(hint) is typing.Union:
        parts = [_exact(arg) for arg in typing.get_args(hint)]
        return None if None in parts else tuple(kind for part in parts for kind in part)
    return _EXACT.get(hint)


class _Source:
    """The source of one class's predicate and the objects it names."""

    def __init__(self, kind: type) -> None:
        self.names: Dict[str, object] = {"_conforms": _conforms, "_opaque": _opaque}
        self.inlined: List[type] = [kind]

    def bind(self, value: object) -> str:
        name = f"_b{len(self.names)}"
        self.names[name] = value
        return name

    def fields(self, kind: type, x: str, depth: int) -> str:
        """An expression true when every field of ``x``, a ``kind``, has its shape."""
        hints = typing.get_type_hints(kind)
        if dataclasses.is_dataclass(kind):
            names = [f.name for f in dataclasses.fields(kind)]
            if not all(name.isidentifier() and not keyword.iskeyword(name) for name in names):
                raise TypeError(f"{kind!r} has a field that is no identifier")
            tests = [self.test(hints[name], f"{x}.{name}", depth) for name in names]
        else:  # a tuple built around the constructor may be short
            tests = [f"len({x}) == {len(kind._fields)}"]
            tests += [self.test(hints[name], f"{x}[{i}]", depth) for i, name in enumerate(kind._fields)]
        return " and ".join(tests) or "True"

    def test(self, hint: object, x: str, depth: int) -> str:
        """An expression true when ``x`` (a name, attribute or item) has shape ``hint``."""
        exact = _exact(hint)
        if exact is not None:
            if len(exact) == 1:
                return f"type({x}) is {self.bind(exact[0])}"
            return f"type({x}) in {self.bind(frozenset(exact))}"
        if hint is object:
            return f"_opaque({x})"
        if isinstance(hint, type) and _is_record(hint):
            kind = self.bind(hint)
            if issubclass(hint, MemoisedValue) or hint in self.inlined:
                return f"_conforms({x}, {kind})"
            # Inlined: a call per proof step or signature is what would cost.
            self.inlined.append(hint)
            own = self.fields(hint, x, depth)
            self.inlined.pop()
            return f"(({own}) if type({x}) is {kind} else _conforms({x}, {kind}))"
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        if origin is typing.Union:  # type tests first: most optional fields are None
            args = tuple(sorted(args, key=lambda arg: _exact(arg) is None))
            return "(" + " or ".join(self.test(arg, x, depth) for arg in args) + ")"
        item, key = f"_i{depth}", f"_k{depth}"
        if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
            each = self.test(args[0], item, depth + 1)
            return f"(isinstance({x}, tuple) and all({each} for {item} in {x}))"
        if origin is tuple:
            tests = [f"len({x}) == {len(args)}"]
            tests += [self.test(arg, f"{x}[{i}]", depth) for i, arg in enumerate(args)]
            return f"(isinstance({x}, tuple) and {' and '.join(tests)})"
        if origin is dict or origin is collections.abc.Mapping:
            pair = f"{self.test(args[0], key, depth + 1)} and {self.test(args[1], item, depth + 1)}"
            mapping = self.bind(origin)
            return f"(isinstance({x}, {mapping}) and all({pair} for {key}, {item} in {x}.items()))"
        raise TypeError(f"no shape can be derived from the annotation {hint!r}")


def compile_fields(kind: type) -> Check:
    """Compile the predicate of ``kind``'s fields; raises when an annotation
    has no shape (:data:`fields_check` refuses such a type's values)."""
    source = _Source(kind)
    body = source.fields(kind, "value", 0)
    # The source names nothing but the objects bound above: no input reaches it.
    exec(
        f"def check(value):\n    try:\n        return {body}\n"
        "    except AttributeError:\n        return False\n",
        source.names,
    )
    check: Check = source.names["check"]  # type: ignore[assignment]
    if not issubclass(kind, MemoisedValue):
        return check

    def memoised(value: object) -> bool:
        state = value.__dict__
        verdict = state.get(_VERDICT)
        if verdict is None:
            verdict = state[_VERDICT] = check(value)
        return verdict

    return memoised
