"""Clutters (antichains of subsets of a finite ground set) and the blocker
operation: all inclusion-minimal transversals, enumerated by one depth-first
search that checks minimality as it extends a set (see `blocker`)."""

from __future__ import annotations

from collections import namedtuple

from .errors import CheckedRecord


def _sort_key(member: frozenset[int]):
    return (len(member), tuple(sorted(member)))


class Clutter(CheckedRecord, namedtuple("Clutter", "ground_size members")):
    """An antichain over the ground set {1..ground_size}.

    Members are stored sorted by size then lexicographically.  The empty set
    may appear only as the sole member.
    """

    __slots__ = ()

    def __new__(cls, ground_size: int, members):
        if ground_size < 0:
            raise ValueError("ground size must be non-negative")
        members = tuple(sorted((frozenset(m) for m in members), key=_sort_key))
        seen = set()
        for m in members:
            if m in seen:
                raise ValueError(f"duplicate member {sorted(m)}")
            seen.add(m)
        _check_antichain(ground_size, members)
        return super().__new__(cls, ground_size, members)

    def member_sets(self) -> set[frozenset[int]]:
        return set(self.members)


def _check_antichain(ground_size: int, members) -> None:
    """Raise ValueError naming the first out-of-range element, or else the
    first member (in member order) that lies in a later one.

    has[e] is the bitmask of the members containing e.  The members that
    contain b are AND(has[e] for e in b), every member when b is empty; b is
    the only one exactly when no other member contains it.  That takes one
    big-integer operation per element of each member instead of O(members²),
    and the pairwise scan runs only to name the pair once one is known.
    """
    has: dict[int, int] = {}
    for i, m in enumerate(members):
        bit = 1 << i
        for e in m:
            if not (1 <= e <= ground_size):
                raise ValueError(f"element {e} outside ground set [1..{ground_size}]")
            has[e] = has.get(e, 0) | bit
    full = (1 << len(members)) - 1
    for i, m in enumerate(members):
        containing = full
        for e in m:
            containing &= has[e]
        if containing != 1 << i:
            _raise_first_contained_pair(members)


def _raise_first_contained_pair(members) -> None:
    # members are sorted by size and distinct, so a member can lie only in a
    # later, strictly larger one: that order finds the first offending pair
    masks = [sum(1 << e for e in m) for m in members]
    larger = 0
    for i, a in enumerate(masks):
        while larger < len(members) and len(members[larger]) <= len(members[i]):
            larger += 1
        for j in range(larger, len(masks)):
            if not a & ~masks[j]:
                raise ValueError(
                    f"not an antichain: member {sorted(members[i])} is contained in "
                    f"member {sorted(members[j])}"
                )


def validate_clutter(ground_size: int, family) -> Clutter:
    """Check the antichain condition and build a Clutter, or raise ValueError
    naming the offending pair / out-of-range element."""
    return Clutter(ground_size, tuple(frozenset(m) for m in family))


def blocker(c: Clutter) -> Clutter:
    """All inclusion-minimal subsets of the ground set meeting every member.

    Depth-first: branch on the non-forbidden elements of the first member M
    the set misses, smallest first, forbidding each to later siblings after
    its branch.  Add an element only if each chosen one keeps a private member
    (met by the set in it alone); record each set that meets every member.
    - Completeness: a minimal T above the set and clear of the forbidden
      elements is reached through the smallest element of T ∩ M.
    - Sound pruning: an element with no private member keeps none in any
      superset.
    - Uniqueness: siblings differ in whether the earlier element is forbidden.
    The stack is explicit, so a transversal may be longer than the
    interpreter's recursion limit.  The empty clutter is rejected; the
    blocker of {{}} is the empty clutter.
    """
    if not c.members:
        raise ValueError("the blocker of the empty clutter is undefined")
    # members[i]: bit e per element e of member i; hits[e]: bit i per member i containing e.
    members = [0] * len(c.members)
    hits = [0] * (c.ground_size + 1)
    for i, m in enumerate(c.members):
        for e in m:
            members[i] |= 1 << e
            hits[e] |= 1 << i
    # misses[e]: the members that do not contain e.
    misses = [~h for h in hits]
    found = []
    # One frame per set on the current path: [chosen, private, unhit,
    # forbidden, options], where options are the elements of the first
    # unhit member still to branch on, smallest first.
    stack = [[(), [], (1 << len(members)) - 1, 0, members[0]]]
    while stack:
        frame = stack[-1]
        chosen, private, unhit, forbidden, options = frame
        if not options:
            stack.pop()
            continue
        low = options & -options
        e = low.bit_length() - 1
        frame[3] = forbidden | low
        frame[4] = options ^ low
        miss = misses[e]
        kept = [p & miss for p in private]
        if 0 in kept:
            continue
        rest = unhit & miss
        if not rest:
            found.append(frozenset(chosen + (e,)))
            continue
        stack.append([chosen + (e,), kept + [unhit & hits[e]], rest, forbidden,
                      members[(rest & -rest).bit_length() - 1] & ~forbidden])
    return Clutter(c.ground_size, tuple(found))


def clutter_to_json(c: Clutter) -> dict:
    return {"n": c.ground_size, "members": [sorted(m) for m in c.members]}


def clutter_from_json(doc) -> Clutter:
    """Parse {"n": int, "members": [[int, ...], ...]}, or raise ValueError;
    a member that lists an element twice is rejected, not merged."""
    if not (isinstance(doc, dict) and "n" in doc and isinstance(doc.get("members"), list)
            and all(isinstance(m, list) for m in doc["members"])):
        raise ValueError('a clutter document is {"n": int, "members": [[int, ...], ...]}')
    for x in [doc["n"], *(e for m in doc["members"] for e in m)]:
        if type(x) is not int:
            raise ValueError(f"not an integer: {x!r}")
    for m in doc["members"]:
        if len(set(m)) < len(m):
            raise ValueError(f"member {m} repeats an element")
    return validate_clutter(doc["n"], [frozenset(m) for m in doc["members"]])

