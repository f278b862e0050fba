"""Exception types shared across the workbench, the shape checks of the
JSON documents it reads, which raise ValueError naming the field, and the
one spelling of a node tuple as a JSON key (`node_key`), which its reader
(`parse_node_tuple`) inverts."""

import reprlib
from typing import Optional


def node_key(t) -> str:
    """The JSON key of the node tuple t: "(u,v,...)" of its integers."""
    return "(" + ",".join(map(str, t)) + ")"


def parse_node_tuple(key) -> Optional[tuple]:
    """The node tuple whose `node_key` is key, or None if there is none: a
    key with spaces, a + sign or leading zeros names no tuple."""
    if isinstance(key, str) and key.startswith("(") and key.endswith(")"):
        try:
            t = tuple(int(p) for p in key[1:-1].split(","))
        except ValueError:
            return None
        if node_key(t) == key:
            return t
    return None


def json_field(value, kind, name: str, size: Optional[int] = None):
    """value, if it is a JSON object (kind dict), list (kind list) or integer
    (kind int, not true or false), with `size` entries when size is given."""
    want = {dict: "an object", list: "a list", int: "an integer"}[kind]
    if not isinstance(value, kind) or type(value) is bool:
        raise ValueError(f"{name} must be {want}, got {reprlib.repr(value)}")
    if size is not None and len(value) != size:
        raise ValueError(f"{name} must be {want} of {size} entries, got {len(value)}")
    return value


def json_ints(value, name: str, size: Optional[int] = None) -> list:
    """value, if it is a list of integers, not true or false (`size` of them
    when given); the range of the integers is checked where they are used."""
    if isinstance(value, list) and all(type(v) is int for v in value) \
            and size in (None, len(value)):
        return value
    count = "" if size is None else f"{size} "
    raise ValueError(f"{name} must be a list of {count}integers, got {reprlib.repr(value)}")


def json_nodes(value, name: str) -> list:
    """value, if it is a strictly increasing list of integers: the one
    spelling of a node set as a list."""
    nodes = json_ints(value, name)
    if any(a >= b for a, b in zip(nodes, nodes[1:])):
        raise ValueError(f"{name} must be strictly increasing, got {reprlib.repr(value)}")
    return nodes


def json_size(value, name: str) -> int:
    """value, if it is a non-negative integer (true and false are not)."""
    if type(value) is bool or json_field(value, int, name) < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {reprlib.repr(value)}")
    return value


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class MissingEmptyOrFull(WorkbenchError):
    def __init__(self, size: int):
        super().__init__(f"opens must contain {{}} and the full base of size {size}")


class NotClosedUnderUnion(WorkbenchError):
    def __init__(self, a, b):
        self.witness = (a, b)
        super().__init__(f"opens not closed under union: {sorted(a)} | {sorted(b)}")


class NotClosedUnderIntersection(WorkbenchError):
    def __init__(self, a, b):
        self.witness = (a, b)
        super().__init__(f"opens not closed under intersection: {sorted(a)} & {sorted(b)}")


class OutOfRangePoint(WorkbenchError):
    pass


class NotPreorder(WorkbenchError):
    pass


class EmptyList(WorkbenchError):
    pass


class SizeTooLarge(WorkbenchError):
    pass


class NotContinuous(WorkbenchError):
    pass


class IndexOutOfRange(WorkbenchError):
    pass


class NoTopology(WorkbenchError):
    pass


class NoChangSystem(WorkbenchError):
    pass


class NotSubsetOfUnit(WorkbenchError):
    pass


class TooManyAtoms(WorkbenchError):
    pass


class UnboundVariable(WorkbenchError):
    pass


class TooLargeForExhaustive(WorkbenchError):
    pass


class NotClosed(WorkbenchError):
    pass


class TooLarge(WorkbenchError):
    pass


class DimTooSmall(WorkbenchError):
    pass


class DimUnsupported(WorkbenchError):
    pass


class BudgetExceeded(WorkbenchError):
    pass


class ScriptRefuted(WorkbenchError):
    pass
