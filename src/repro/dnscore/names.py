"""Domain name representation and algebra.

DNS names are sequences of labels (RFC 1034/1035).  This module implements an
immutable :class:`Name` type with the operations the rest of the library needs:

* parsing from and rendering to presentation format (``"www.example.nl."``),
* wire-format encoding/decoding, including message compression pointers,
* case-insensitive equality and hashing (RFC 1035 section 2.3.3),
* relationship predicates (``is_subdomain_of``, ``zone cut`` helpers),
* label arithmetic used by QNAME minimisation (``ancestor_with_labels``,
  ``parent``, ``relativize``).

Names are stored as a tuple of label byte-strings in their original case; all
comparisons go through a casefolded key so that ``WWW.Example.NL`` and
``www.example.nl`` compare equal but round-trip their original spelling.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255

_ESCAPED = {ord("."), ord("\\")}


class NameError_(ValueError):
    """Raised for malformed domain names (presentation or wire format)."""


def _casefold_label(label: bytes) -> bytes:
    """Casefold a single label for comparison (ASCII-only, per RFC 1035)."""
    return label.lower()


class Name:
    """An immutable, fully-qualified DNS domain name.

    The root name is the empty tuple of labels and renders as ``"."``.

    Parameters
    ----------
    labels:
        Iterable of label byte-strings, *most specific first* and **without**
        the terminating empty root label (it is implicit).
    """

    __slots__ = ("_labels", "_key", "_hash", "_wire", "_text", "_parent")

    _labels: Tuple[bytes, ...]
    _key: Tuple[bytes, ...]
    _hash: int
    _wire: Optional[bytes]
    _text: Optional[str]
    _parent: Optional["Name"]

    def __init__(self, labels: Iterable[bytes] = ()):
        labels = tuple(bytes(label) for label in labels)
        for label in labels:
            if not label:
                raise NameError_("empty label in name")
            if len(label) > MAX_LABEL_LENGTH:
                raise NameError_(
                    f"label exceeds {MAX_LABEL_LENGTH} octets: {label!r}"
                )
        # Wire length: one length octet per label plus label bytes, plus the
        # terminating root length octet.
        wire_len = sum(len(label) + 1 for label in labels) + 1
        if wire_len > MAX_NAME_LENGTH:
            raise NameError_(f"name exceeds {MAX_NAME_LENGTH} octets")
        object.__setattr__(self, "_labels", labels)
        key = tuple(_casefold_label(label) for label in labels)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_wire", None)
        object.__setattr__(self, "_text", None)
        object.__setattr__(self, "_parent", None)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse a name from presentation format.

        Both absolute (``"example.nl."``) and relative-looking
        (``"example.nl"``) spellings are accepted and treated as fully
        qualified, matching how the analysis pipeline normalises query names.
        Escapes of the form ``\\.`` and ``\\\\`` are honoured.
        """
        if text in (".", ""):
            return ROOT
        labels = []
        current = bytearray()
        it = iter(text)
        for ch in it:
            if ch == "\\":
                try:
                    nxt = next(it)
                except StopIteration:
                    raise NameError_("dangling escape at end of name") from None
                current.extend(nxt.encode("ascii", "strict"))
            elif ch == ".":
                if not current:
                    raise NameError_(f"empty label in {text!r}")
                labels.append(bytes(current))
                current = bytearray()
            else:
                current.extend(ch.encode("idna") if ord(ch) > 127 else ch.encode())
        if current:
            labels.append(bytes(current))
        return cls(labels)

    @classmethod
    def from_labels_text(cls, *labels: str) -> "Name":
        """Build a name from individual textual labels (no dots parsed)."""
        return cls(label.encode() for label in labels)

    # -- rendering ---------------------------------------------------------

    def to_text(self) -> str:
        """Render in absolute presentation format (trailing dot).

        Pure function of the immutable labels, so the rendering is computed
        once and interned on the instance.
        """
        text = self._text
        if text is not None:
            return text
        if not self._labels:
            return "."
        parts = []
        for label in self._labels:
            out = []
            for b in label:
                if b in _ESCAPED:
                    out.append("\\" + chr(b))
                elif 0x21 <= b <= 0x7E:
                    out.append(chr(b))
                else:
                    out.append(f"\\{b:03d}")
            parts.append("".join(out))
        text = ".".join(parts) + "."
        object.__setattr__(self, "_text", text)
        return text

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Name({self.to_text()!r})"

    # -- equality / ordering -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Name):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Name") -> bool:
        """Canonical DNS ordering (RFC 4034 section 6.1): compare from the
        rightmost (least significant) label."""
        if not isinstance(other, Name):
            return NotImplemented
        return self._key[::-1] < other._key[::-1]

    # -- structure ---------------------------------------------------------

    @property
    def labels(self) -> Tuple[bytes, ...]:
        """The labels, most specific first, without the root label."""
        return self._labels

    @property
    def label_count(self) -> int:
        """Number of non-root labels (the root name has 0)."""
        return len(self._labels)

    def is_root(self) -> bool:
        return not self._labels

    def parent(self) -> "Name":
        """The name with the leftmost label removed.

        Raises :class:`NameError_` on the root name.  Memoised per
        instance — QNAME minimisation walks parent chains on every send,
        and names are immutable.
        """
        parent = self._parent
        if parent is not None:
            return parent
        if not self._labels:
            raise NameError_("the root name has no parent")
        parent = Name(self._labels[1:])
        object.__setattr__(self, "_parent", parent)
        return parent

    def ancestors(self) -> Iterator["Name"]:
        """Yield every proper ancestor, nearest first, ending with the root."""
        name = self
        while not name.is_root():
            name = name.parent()
            yield name

    def ancestor_with_labels(self, count: int) -> "Name":
        """Return the ancestor (or self) having exactly ``count`` labels.

        This is the primitive QNAME minimisation needs: a minimising resolver
        asks for ``qname.ancestor_with_labels(len(zone) + 1)`` at each step
        (RFC 7816, "one label more than the zone").
        """
        if count < 0 or count > len(self._labels):
            raise NameError_(
                f"{self.to_text()} has no ancestor with {count} labels"
            )
        # Walk the (memoised) parent chain instead of slicing into a fresh
        # Name: repeated minimisation over the same names reuses instances.
        name = self
        while len(name._labels) > count:
            name = name.parent()
        return name

    def is_subdomain_of(self, other: "Name") -> bool:
        """True if ``self`` equals or falls under ``other``."""
        n = len(other._key)
        if n == 0:
            return True
        if n > len(self._key):
            return False
        return self._key[len(self._key) - n :] == other._key

    def is_proper_subdomain_of(self, other: "Name") -> bool:
        return self != other and self.is_subdomain_of(other)

    def relativize(self, origin: "Name") -> Tuple[bytes, ...]:
        """Labels of ``self`` below ``origin`` (most specific first).

        Raises :class:`NameError_` if ``self`` is not a subdomain of
        ``origin``.
        """
        if not self.is_subdomain_of(origin):
            raise NameError_(
                f"{self.to_text()} is not a subdomain of {origin.to_text()}"
            )
        return self._labels[: len(self._labels) - len(origin._labels)]

    def prepend(self, *labels: bytes) -> "Name":
        """Return a new name with ``labels`` prepended (most specific first)."""
        return Name(tuple(labels) + self._labels)

    def prepend_text(self, text: str) -> "Name":
        """Prepend dotted textual labels, e.g. ``name.prepend_text("www")``."""
        prefix = Name.from_text(text) if text not in (".", "") else ROOT
        return Name(prefix.labels + self._labels)

    # -- wire format --------------------------------------------------------

    def to_wire(self, compress: Optional[dict] = None, offset: int = 0) -> bytes:
        """Encode to wire format.

        Parameters
        ----------
        compress:
            Optional mutable mapping of casefolded label-suffix tuples to
            wire offsets.  When provided, compression pointers (RFC 1035
            section 4.1.4) are emitted for suffixes already in the map and
            new suffixes are registered at their offsets.
        offset:
            Wire offset at which this name will be placed; only used to
            register compression targets.

        Compression-free encodings are position-independent and depend only
        on the (immutable) labels, so they are computed once per name and
        interned on the instance.
        """
        if compress is None:
            wire = self._wire
            if wire is None:
                plain = bytearray()
                for label in self._labels:
                    plain.append(len(label))
                    plain.extend(label)
                plain.append(0)
                wire = bytes(plain)
                object.__setattr__(self, "_wire", wire)
            return wire
        out = bytearray()
        labels = self._labels
        key = self._key
        for i in range(len(labels)):
            suffix = key[i:]
            if compress is not None and suffix in compress:
                pointer = compress[suffix]
                out.append(0xC0 | (pointer >> 8))
                out.append(pointer & 0xFF)
                return bytes(out)
            if compress is not None:
                position = offset + len(out)
                # Pointers only address the first 16KiB - 2 bits of a message.
                if position < 0x4000:
                    compress[suffix] = position
            label = labels[i]
            out.append(len(label))
            out.extend(label)
        out.append(0)
        return bytes(out)

    @classmethod
    def from_wire(cls, wire: bytes, offset: int) -> Tuple["Name", int]:
        """Decode a name starting at ``offset``.

        Returns ``(name, next_offset)`` where ``next_offset`` is the offset
        immediately after the name *in the original stream* (compression
        pointers do not advance the caller past the pointer itself).
        """
        labels = []
        seen_offsets = set()
        cursor = offset
        after = None  # set when we chase the first pointer
        total = 0
        while True:
            if cursor >= len(wire):
                raise NameError_("truncated name")
            length = wire[cursor]
            if length & 0xC0 == 0xC0:
                if cursor + 1 >= len(wire):
                    raise NameError_("truncated compression pointer")
                pointer = ((length & 0x3F) << 8) | wire[cursor + 1]
                if after is None:
                    after = cursor + 2
                # Every legitimate encoder (including :meth:`to_wire`) only
                # ever points at earlier message octets; a forward or self
                # pointer is either garbage or a crafted decompression bomb,
                # so reject it before chasing.  Strictly-backward targets
                # also guarantee termination on untrusted input.
                if pointer >= cursor:
                    raise NameError_(
                        f"forward compression pointer ({pointer} >= {cursor})"
                    )
                if pointer in seen_offsets:
                    raise NameError_("compression pointer loop")
                seen_offsets.add(pointer)
                cursor = pointer
                continue
            if length & 0xC0:
                raise NameError_(f"unsupported label type {length:#04x}")
            cursor += 1
            if length == 0:
                break
            if cursor + length > len(wire):
                raise NameError_("label runs past end of message")
            labels.append(wire[cursor : cursor + length])
            total += length + 1
            if total + 1 > MAX_NAME_LENGTH:
                raise NameError_("decoded name exceeds maximum length")
            cursor += length
        if after is None:
            after = cursor
        return cls(labels), after


def canonical_sort_key(name: Name) -> Tuple[bytes, ...]:
    """Sort key giving canonical DNS order (the order of ``Name.__lt__``).

    ``sorted(names, key=canonical_sort_key)`` builds each key once per sort
    instead of two reversed tuples per comparison, and stores nothing on
    the names themselves.
    """
    return name._key[::-1]


#: The DNS root name (zero labels).
ROOT = Name()
