"""The name/tag file the modified compiler reads, extends and writes back.

Paper sample::

    main/502
    hardclock/510
    gatherstats/512
    softclock/514
    timeout/516
    untimeout/518
    swtch/600!
    MGET/1002=

Contract (all from the paper):

* the compiler option names the file; functions not yet present are
  appended with "the next available value (i.e the next value higher than
  the current highest in the file)";
* an initial *dummy* entry can seed the starting tag number;
* once assigned, a function keeps its tags across recompiles;
* multiple name/tag files "may be concatenated to provide a complete list
  of profiled functions";
* inline and assembler triggers may be added to the file by hand.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.instrument.tags import (
    ENTRY_EXIT_STRIDE,
    MAX_TAG,
    TagEntry,
    TagError,
    TagKind,
)

#: Conventional name of the seed entry used to set the starting tag value.
DUMMY_NAME = "dummy"


class NameFileError(ValueError):
    """Malformed name-file text or conflicting entries."""


def parse_line(line: str) -> Optional[TagEntry]:
    """Parse one name-file line; returns ``None`` for blanks and comments."""
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    if "/" not in text:
        raise NameFileError(f"malformed name-file line (no '/'): {line!r}")
    name, _, rest = text.partition("/")
    name = name.strip()
    rest = rest.strip()
    context_switch = rest.endswith("!")
    if context_switch:
        rest = rest[:-1]
    inline = rest.endswith("=")
    if inline:
        rest = rest[:-1]
    # Modifiers may appear in either order; accept '!' after '=' too.
    if rest.endswith("!"):
        context_switch = True
        rest = rest[:-1]
    try:
        value = int(rest)
    except ValueError:
        raise NameFileError(f"malformed tag value in line {line!r}") from None
    try:
        return TagEntry(
            name=name, value=value, context_switch=context_switch, inline=inline
        )
    except TagError as exc:
        raise NameFileError(f"invalid entry {line!r}: {exc}") from exc


def parse_name_file(text: str) -> "NameTable":
    """Parse the complete text of one name/tag file."""
    table = NameTable()
    for line_number, line in enumerate(text.splitlines(), start=1):
        try:
            entry = parse_line(line)
        except NameFileError as exc:
            raise NameFileError(f"line {line_number}: {exc}") from exc
        if entry is not None:
            table.add(entry)
    return table


def format_name_file(table: "NameTable") -> str:
    """Render a table back to name-file text (stable, tag-value order)."""
    lines = [entry.format() for entry in sorted(table, key=lambda e: e.value)]
    return "\n".join(lines) + ("\n" if lines else "")


class NameTable:
    """An in-memory name/tag file with lookup in both directions.

    Forward: function name -> :class:`TagEntry`.  Reverse: raw 16-bit tag
    value -> ``(entry, kind)`` where *kind* distinguishes entry, exit and
    inline hits — the decode step of the analysis software.
    """

    def __init__(self, entries: Iterable[TagEntry] = ()) -> None:
        self._by_name: dict[str, TagEntry] = {}
        self._by_value: dict[int, tuple[TagEntry, TagKind]] = {}
        for entry in entries:
            self.add(entry)

    def __len__(self) -> int:
        return len(self._by_name)

    def __iter__(self) -> Iterator[TagEntry]:
        return iter(self._by_name.values())

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    # -- construction -------------------------------------------------------

    def add(self, entry: TagEntry) -> TagEntry:
        """Insert *entry*, rejecting name or tag-value collisions.

        Re-adding a byte-identical entry is a no-op (files get
        concatenated, and overlap of identical lines is harmless).
        """
        existing = self._by_name.get(entry.name)
        if existing is not None:
            if existing == entry:
                return existing
            raise NameFileError(
                f"conflicting entries for {entry.name!r}: "
                f"{existing.format()} vs {entry.format()}"
            )
        for value in entry.owned_values():
            claimed = self._by_value.get(value)
            if claimed is not None:
                raise NameFileError(
                    f"tag value {value} of {entry.name!r} already owned by "
                    f"{claimed[0].name!r}"
                )
        self._by_name[entry.name] = entry
        for value in entry.owned_values():
            self._by_value[value] = (entry, entry.kind_of(value))
        return entry

    def extend(self, other: "NameTable") -> "NameTable":
        """Concatenate another table into this one (paper: multiple
        name/tag files may be concatenated)."""
        for entry in other:
            self.add(entry)
        return self

    def allocate(
        self, name: str, context_switch: bool = False, inline: bool = False
    ) -> TagEntry:
        """Assign the next available tag to *name* (compiler auto-extend).

        Returns the existing entry unchanged when *name* is already
        present — "once generated, the same profile tags are used to allow
        recompilation without having different profile tags assigned".
        """
        existing = self._by_name.get(name)
        if existing is not None:
            return existing
        value = self.next_value(inline=inline)
        return self.add(
            TagEntry(
                name=name, value=value, context_switch=context_switch, inline=inline
            )
        )

    def next_value(self, inline: bool = False) -> int:
        """The next free tag value above the current highest."""
        highest = max(
            (max(entry.owned_values()) for entry in self._by_name.values()),
            default=-1,
        )
        value = highest + 1
        if not inline and value % ENTRY_EXIT_STRIDE:
            value += 1
        top = MAX_TAG if inline else MAX_TAG - 1
        if value > top:
            raise NameFileError(
                f"tag space exhausted: next value {value} exceeds {top}"
            )
        return value

    def seed(self, start_value: int) -> TagEntry:
        """Insert the conventional dummy entry fixing the starting tag."""
        if len(self) != 0:
            raise NameFileError("seed() must be called on an empty table")
        return self.add(TagEntry(name=DUMMY_NAME, value=start_value, inline=True))

    # -- lookup ---------------------------------------------------------------

    def by_name(self, name: str) -> TagEntry:
        """Forward lookup; raises :class:`KeyError` when absent."""
        return self._by_name[name]

    def get(self, name: str) -> Optional[TagEntry]:
        """Forward lookup returning ``None`` when absent."""
        return self._by_name.get(name)

    def decode(self, value: int) -> Optional[tuple[TagEntry, TagKind]]:
        """Reverse lookup of a raw captured tag value.

        ``None`` means the tag belongs to no known function — either a
        name file is missing from the concatenation or the capture
        predates a recompile.
        """
        return self._by_value.get(value)

    def context_switch_entries(self) -> tuple[TagEntry, ...]:
        """All entries flagged ``!`` (normally just ``swtch``)."""
        return tuple(e for e in self if e.context_switch)

    # -- persistence ------------------------------------------------------------

    @classmethod
    def read(cls, *paths: Union[str, Path]) -> "NameTable":
        """Read and concatenate one or more name files.

        A file that is not text, holds a malformed line or conflicts
        with an earlier file raises :class:`NameFileError` whose message
        starts with that file's path.
        """
        table = cls()
        for path in paths:
            try:
                table.extend(parse_name_file(Path(path).read_text()))
            except (NameFileError, UnicodeDecodeError) as exc:
                raise NameFileError(f"{path}: {exc}") from exc
        return table

    def write(self, path: Union[str, Path]) -> None:
        """Write the table back out in canonical form."""
        Path(path).write_text(format_name_file(self))
