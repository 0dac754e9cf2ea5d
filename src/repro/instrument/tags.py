"""The event-tag value scheme.

From the paper: "For ease of processing and identification, each function
is assigned a trigger value that is an even number, and that number + 1 is
used as the function exit trigger."  Sixteen address lines give 65536
distinct tags, i.e. up to 32768 entry/exit pairs.

Two special modifiers may be appended to a name-file entry:

* ``!`` — a context-switch function (``swtch``): the analysis software
  must split the event stream into per-process code paths here;
* ``=`` — an inline tag (a hand-placed trigger inside a function or a
  preprocessor macro such as ``MGET``): it has no exit pair and marks a
  point, not a region.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

#: Tags are 16-bit: the board latches 16 address lines.
MAX_TAG = 0xFFFF

#: Entry tags advance by 2 so the odd successor is free for the exit tag.
ENTRY_EXIT_STRIDE = 2


class TagKind(enum.Enum):
    """What a tag value stands for in the event stream."""

    ENTRY = "entry"
    EXIT = "exit"
    INLINE = "inline"


class TagError(Exception):
    """An invalid tag value or modifier combination."""


def is_entry_tag(value: int) -> bool:
    """True for tags usable as function-entry triggers (even, in range)."""
    return 0 <= value <= MAX_TAG - 1 and value % 2 == 0


def exit_tag(entry_value: int) -> int:
    """The exit tag paired with *entry_value* (``entry + 1``)."""
    if not is_entry_tag(entry_value):
        raise TagError(f"{entry_value} is not a valid entry tag (must be even)")
    return entry_value + 1


class _TagFields(NamedTuple):
    name: str
    value: int
    context_switch: bool = False
    inline: bool = False


class TagEntry(_TagFields):
    """One line of the name/tag file: a function name, a value, modifiers.

    ``context_switch`` corresponds to the ``!`` modifier and ``inline`` to
    ``=``.  A function entry (no ``=``) implicitly owns two tag values:
    ``value`` (entry) and ``value + 1`` (exit).  Immutable, and checked
    when built.
    """

    __slots__ = ()

    def __new__(
        cls, name: str, value: int, context_switch: bool = False, inline: bool = False
    ) -> "TagEntry":
        if not name:
            raise TagError("empty function name")
        if "/" in name or any(c.isspace() for c in name):
            raise TagError(f"illegal characters in function name {name!r}")
        if inline:
            if not (0 <= value <= MAX_TAG):
                raise TagError(f"inline tag {value} out of 16-bit range")
            if context_switch:
                raise TagError(
                    f"{name}: a tag cannot be both inline (=) and a "
                    "context switch (!)"
                )
        elif not is_entry_tag(value):
            raise TagError(
                f"{name}: entry tag {value} must be even and < {MAX_TAG}"
            )
        return super().__new__(cls, name, value, context_switch, inline)

    @property
    def entry_value(self) -> int:
        """The tag emitted at function entry (or the inline point)."""
        return self.value

    @property
    def exit_value(self) -> int:
        """The tag emitted at function exit; inline tags have none."""
        if self.inline:
            raise TagError(f"inline tag {self.name!r} has no exit value")
        return self.value + 1

    def owned_values(self) -> tuple[int, ...]:
        """Every tag value this entry occupies."""
        if self.inline:
            return (self.value,)
        return (self.value, self.value + 1)

    def kind_of(self, value: int) -> TagKind:
        """Classify a raw tag value belonging to this entry."""
        if self.inline:
            if value == self.value:
                return TagKind.INLINE
        elif value == self.value:
            return TagKind.ENTRY
        elif value == self.value + 1:
            return TagKind.EXIT
        raise TagError(f"tag value {value} does not belong to {self.name!r}")

    def format(self) -> str:
        """Render the name-file line, e.g. ``swtch/600!`` or ``MGET/1002=``."""
        suffix = ""
        if self.context_switch:
            suffix += "!"
        if self.inline:
            suffix += "="
        return f"{self.name}/{self.value}{suffix}"
