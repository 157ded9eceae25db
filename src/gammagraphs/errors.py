"""Exception types, the search node limit and the checked-record base shared
across the package."""

from __future__ import annotations


class GraphFormatError(ValueError):
    """Raised when a graph6 word cannot be decoded.

    ``offset`` is the byte position of the first offending byte, and
    ``message`` the text without it.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset


class UnsupportedSizeError(ValueError):
    """Raised when a graph is too large for the requested operation."""


# Search nodes an exhaustive search (domination or labelling) may visit.
DEFAULT_NODE_LIMIT = 10**8


class WorkLimitExceeded(RuntimeError):
    """Raised when an exhaustive search hits its configured work limit.

    ``examined`` counts the search nodes visited before giving up.
    """

    def __init__(self, message: str, examined: int):
        super().__init__(f"{message} ({examined} nodes examined)")
        self.examined = examined


class CheckedRecord:
    """Base for the named-tuple records whose ``__new__`` validates.

    namedtuple's ``_make``, and so ``_replace``, would skip that check, as
    would pickle protocols 0 and 1 without ``__reduce__``; both rebuild
    through the class instead.  List it before the namedtuple among the
    bases, or the namedtuple's own ``_make`` wins.
    """

    __slots__ = ()

    _make = classmethod(lambda cls, fields: cls(*fields))

    def __reduce__(self):
        return type(self), tuple(self)
