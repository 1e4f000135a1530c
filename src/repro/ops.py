"""Typed metadata operations — the registry behind ``perform()``.

The nine mdtest operations (§6.3) are each a small frozen dataclass, so
call sites get named fields, ``isinstance`` dispatch and IDE help instead
of positional-tuple conventions::

    from repro.ops import Mkdir, Rename

    yield from system.perform(Mkdir("/a/b"), ctx=ctx)
    yield from system.perform(Rename("/a/b", "/c/b"), ctx=ctx)

:func:`make_op` builds the typed op from a ``(name, *args)`` tuple, for
callers (trace replay, scenario tables) that carry operation names as data.
"""

from __future__ import annotations

import dataclasses
from typing import Any, ClassVar, Dict, Tuple, Type

from repro.types import Permission


@dataclasses.dataclass(frozen=True)
class Op:
    """Base class for one metadata operation request.

    ``name`` is the registry key (and the ``op_<name>`` handler suffix);
    :meth:`handler_args` yields the positional arguments the handler takes,
    in field-declaration order.
    """

    name: ClassVar[str] = ""

    def handler_args(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, field.name)
                     for field in dataclasses.fields(self))

    def to_wire(self) -> Dict[str, Any]:
        """JSON-safe encoding for the live wire protocol.

        ``{"op": <registry name>, "args": {<field>: <value>, ...}}`` with
        :class:`~repro.types.Permission` masks flattened to ints.  The
        format is pinned by the golden-file test in
        ``tests/runtime/test_wire.py`` — changing it is a wire-protocol
        break, not a refactor.
        """
        args: Dict[str, Any] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, Permission):
                value = int(value)
            args[field.name] = value
        return {"op": self.name, "args": args}

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "Op":
        """Rebuild the typed op :meth:`to_wire` encoded (inverse of it)."""
        op_type = OP_TYPES.get(payload.get("op", ""))
        if op_type is None:
            raise ValueError(f"unknown operation {payload.get('op')!r}")
        args = dict(payload.get("args", {}))
        for field in dataclasses.fields(op_type):
            if field.name in args and field.type == "Permission":
                args[field.name] = Permission(args[field.name])
        return op_type(**args)


#: Operation name -> dataclass, in the canonical mdtest order.
OP_TYPES: Dict[str, Type[Op]] = {}


def _register(cls: Type[Op]) -> Type[Op]:
    if not cls.name or cls.name in OP_TYPES:
        raise ValueError(f"bad or duplicate op registration: {cls!r}")
    OP_TYPES[cls.name] = cls
    return cls


@_register
@dataclasses.dataclass(frozen=True)
class Create(Op):
    """Create an object (PUT without a data body in this model)."""

    path: str
    name: ClassVar[str] = "create"


@_register
@dataclasses.dataclass(frozen=True)
class Delete(Op):
    """Delete an object."""

    path: str
    name: ClassVar[str] = "delete"


@_register
@dataclasses.dataclass(frozen=True)
class ObjStat(Op):
    """Stat an object; resolves the full path."""

    path: str
    name: ClassVar[str] = "objstat"


@_register
@dataclasses.dataclass(frozen=True)
class DirStat(Op):
    """Stat a directory, folding pending attribute deltas (§5.2.1)."""

    path: str
    name: ClassVar[str] = "dirstat"


@_register
@dataclasses.dataclass(frozen=True)
class ReadDir(Op):
    """List a directory's entries."""

    path: str
    name: ClassVar[str] = "readdir"


@_register
@dataclasses.dataclass(frozen=True)
class Mkdir(Op):
    """Create one directory (parent must already exist)."""

    path: str
    name: ClassVar[str] = "mkdir"


@_register
@dataclasses.dataclass(frozen=True)
class Rmdir(Op):
    """Remove an empty directory."""

    path: str
    name: ClassVar[str] = "rmdir"


@_register
@dataclasses.dataclass(frozen=True)
class Rename(Op):
    """Atomic cross-directory rename with loop detection (§5.2.2)."""

    src: str
    dst: str
    name: ClassVar[str] = "dirrename"


@_register
@dataclasses.dataclass(frozen=True)
class SetAttr(Op):
    """Update an entry's permission mask."""

    path: str
    permission: Permission = Permission.ALL
    name: ClassVar[str] = "setattr"


#: Canonical operation-name tuple (kept identical to the legacy
#: ``repro.baselines.base.OPS`` constant, which now aliases this).
OP_NAMES: Tuple[str, ...] = tuple(OP_TYPES)


def make_op(name: str, *args) -> Op:
    """Build the typed op for a ``(name, *args)`` tuple.

    Raises ``ValueError`` for unknown operation names.
    """
    op_type = OP_TYPES.get(name)
    if op_type is None:
        raise ValueError(f"unknown operation {name!r}")
    return op_type(*args)
