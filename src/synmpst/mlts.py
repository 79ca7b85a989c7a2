"""Finite multiparty LTSs and the four well-behavedness conditions.

States are dense integer ids with display labels; actions are GlobalAction
values whose sender and receiver always differ. Both LTSs built from global
types and LTSs loaded from JSON are presented through this one type, so the
type checker never sees where a classifier came from.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .terms import GlobalAction

SENDER_DETERMINACY = "SenderDeterminacy"
DETERMINISM = "Determinism"
CONDITIONAL_COMMUTATIVITY = "ConditionalCommutativity"
DIAMOND = "Diamond"

_WITNESS_CAP = 50


def receiver_disjoint(a1: GlobalAction, a2: GlobalAction) -> bool:
    """Neither action's receiver is involved in the other action."""
    return (a1.receiver not in (a2.sender, a2.receiver)
            and a2.receiver not in (a1.sender, a1.receiver))


@dataclass(frozen=True)
class Mlts:
    """Explicit finite multiparty LTS."""
    initial: int
    labels: tuple[str, ...]
    transitions: frozenset[tuple[int, GlobalAction, int]]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        for src, _, dst in self.transitions:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError("transition endpoint out of range")

    @property
    def states(self) -> range:
        return range(len(self.labels))

    @cached_property
    def _outgoing(self) -> tuple[tuple[tuple[GlobalAction, int], ...], ...]:
        table: list[list[tuple[GlobalAction, int]]] = [[] for _ in self.labels]
        for src, action, dst in self.transitions:
            table[src].append((action, dst))
        return tuple(tuple(sorted(row, key=lambda at: (at[0].sort_key(), at[1])))
                     for row in table)

    def transitions_from(self, s: int) -> tuple[tuple[GlobalAction, int], ...]:
        """The (action, target) transitions of s, ordered by action, then target."""
        return self._outgoing[s]

    @cached_property
    def _targets(self) -> dict[tuple[int, GlobalAction], tuple[int, ...]]:
        table: dict[tuple[int, GlobalAction], tuple[int, ...]] = {}
        for src, row in enumerate(self._outgoing):
            for action, dst in row:
                table[src, action] = table.get((src, action), ()) + (dst,)
        return table

    def targets(self, s: int, action: GlobalAction) -> tuple[int, ...]:
        """States that action leads to from s, ascending; () if s does not offer it."""
        return self._targets.get((s, action), ())

    @cached_property
    def actions(self) -> frozenset[GlobalAction]:
        return frozenset(a for _, a, _ in self.transitions)

    @cached_property
    def roles(self) -> frozenset[str]:
        out: set[str] = set()
        for a in self.actions:
            out |= {a.sender, a.receiver}
        return frozenset(out)

    # -- reachability index: tables built on first use, answers memoised ----

    @cached_property
    def _succ(self) -> tuple[tuple[tuple[str, str, int], ...], ...]:
        """Per state, the (sender, receiver, target) of each transition."""
        return tuple(tuple((a.sender, a.receiver, t) for a, t in row) for row in self._outgoing)

    @cached_property
    def _involved(self) -> tuple[frozenset[str], ...]:
        """Per state, the roles that take part in some transition."""
        return tuple(frozenset(r for snd, rcv, _ in row for r in (snd, rcv)) for row in self._succ)

    @cached_property
    def _pairs(self) -> tuple[frozenset[frozenset[str]], ...]:
        """Per state, the {sender, receiver} pair of each transition."""
        return tuple(frozenset(frozenset((snd, rcv)) for snd, rcv, _ in row)
                     for row in self._succ)

    @cached_property
    def _reach(self) -> dict[tuple[int, frozenset[str], bool], tuple[int, ...]]:
        return {}

    def involves(self, s: int, roles: frozenset[str]) -> bool:
        """Some transition of s has every one of roles among its participants."""
        if len(roles) == 2:
            return roles in self._pairs[s]
        involved = self._involved[s]
        return len(roles) < 2 and bool(involved) and roles <= involved

    def reach(self, s: int, banned: frozenset[str], strong: bool = False) -> tuple[int, ...]:
        """States reachable from s, ascending, by transitions without the
        banned roles; strong steps also leave no state that involves them all."""
        key = (s, banned, strong)
        hit = self._reach.get(key)
        if hit is None:
            hit = self._reach[key] = self._walk(s, banned, strong)
        return hit

    def _walk(self, s: int, banned: frozenset[str], strong: bool) -> tuple[int, ...]:
        memo, succ = self._reach, self._succ
        seen = {s}
        frontier = [s]
        while frontier:
            state = frontier.pop()
            # A closure already computed is a subset of this one: take it whole.
            known = memo.get((state, banned, strong)) if state != s else None
            if known is not None:
                seen.update(known)
                continue
            if strong and self.involves(state, banned):
                continue
            for snd, rcv, t in succ[state]:
                if t not in seen and snd not in banned and rcv not in banned:
                    seen.add(t)
                    frontier.append(t)
        return tuple(sorted(seen))

    def active_roles(self, s: int) -> frozenset[str]:
        """Roles that take part in some transition reachable from s."""
        return frozenset().union(*(self._involved[t] for t in self.reach(s, frozenset())))


@dataclass(frozen=True)
class WbViolation:
    """Witness of one failed well-behavedness condition.

    The witness fields replay against the offending MLTS: states lists the
    states involved and actions the transitions' labels, in the shape fixed
    per condition by replay_violation.
    """
    condition: str
    states: tuple[int, ...]
    actions: tuple[GlobalAction, ...]
    message: str

    def __str__(self) -> str:
        return f"{self.condition}: {self.message}"


def check_well_behaved(m: Mlts) -> list[WbViolation]:
    """Exhaustively check all four conditions; empty list means well-behaved.

    Violations are data, not failures; collection is capped per condition to
    keep reports readable.
    """
    out: list[WbViolation] = []
    counts = {SENDER_DETERMINACY: 0, DETERMINISM: 0, CONDITIONAL_COMMUTATIVITY: 0, DIAMOND: 0}

    def emit(v: WbViolation) -> None:
        if counts[v.condition] < _WITNESS_CAP:
            out.append(v)
        counts[v.condition] += 1

    for s in m.states:
        outgoing = m.transitions_from(s)

        # 1. Sender determinacy: co-initial actions are receiver-disjoint or
        # share both sender and receiver.
        for i, (a1, _) in enumerate(outgoing):
            for a2, _ in outgoing[i + 1:]:
                if a1 == a2:
                    continue
                same_pair = a1.sender == a2.sender and a1.receiver == a2.receiver
                if not (receiver_disjoint(a1, a2) or same_pair):
                    emit(WbViolation(
                        SENDER_DETERMINACY, (s,), (a1, a2),
                        f"state {s} offers {a1} and {a2}"))

        # 2. Determinism: one action, one target.
        for a in dict.fromkeys(a for a, _ in outgoing):
            dsts = m.targets(s, a)
            if len(dsts) > 1:
                d1, d2 = dsts[:2]
                emit(WbViolation(
                    DETERMINISM, (s, d1, d2), (a,),
                    f"state {s} reaches both {d1} and {d2} via {a}"))

        # 3. Conditional commutativity: an already-available communication
        # stays reorderable with an unrelated one taken first.
        pairs_at_s = {(b.sender, b.receiver) for b, _ in outgoing}
        for a1, s1 in outgoing:
            for a2, s_prime in m.transitions_from(s1):
                if a2.roles & a1.roles or (a2.sender, a2.receiver) not in pairs_at_s:
                    continue
                if not any(s_prime in m.targets(mid, a1) for mid in m.targets(s, a2)):
                    emit(WbViolation(
                        CONDITIONAL_COMMUTATIVITY, (s, s1, s_prime), (a1, a2),
                        f"{a1} then {a2} from state {s} cannot be reordered"))

        # 4. Diamond: receiver-disjoint co-initial actions converge.
        for i, (a1, s1) in enumerate(outgoing):
            for a2, s2 in outgoing[i + 1:]:
                if a1 == a2 or not receiver_disjoint(a1, a2):
                    continue
                if not any(t1 in m.targets(s2, a1) for t1 in m.targets(s1, a2)):
                    emit(WbViolation(
                        DIAMOND, (s, s1, s2), (a1, a2),
                        f"{a1} and {a2} from state {s} do not close a diamond"))

    return out


def replay_violation(m: Mlts, v: WbViolation) -> bool:
    """True iff the witness genuinely falsifies its named condition on m."""
    if v.condition == SENDER_DETERMINACY:
        (s,), (a1, a2) = v.states, v.actions
        same_pair = a1.sender == a2.sender and a1.receiver == a2.receiver
        return (bool(m.targets(s, a1)) and bool(m.targets(s, a2))
                and not (receiver_disjoint(a1, a2) or same_pair))
    if v.condition == DETERMINISM:
        (s, d1, d2), (a,) = v.states, v.actions
        return d1 in m.targets(s, a) and d2 in m.targets(s, a) and d1 != d2
    if v.condition == CONDITIONAL_COMMUTATIVITY:
        (s, s1, s_prime), (a1, a2) = v.states, v.actions
        if not (s1 in m.targets(s, a1) and s_prime in m.targets(s1, a2)):
            return False
        if a1.roles & a2.roles:
            return False
        if not any(b.sender == a2.sender and b.receiver == a2.receiver
                   for b, _ in m.transitions_from(s)):
            return False
        return not any(s_prime in m.targets(mid, a1) for mid in m.targets(s, a2))
    if v.condition == DIAMOND:
        (s, s1, s2), (a1, a2) = v.states, v.actions
        if not (s1 in m.targets(s, a1) and s2 in m.targets(s, a2)
                and receiver_disjoint(a1, a2)):
            return False
        return not any(t1 in m.targets(s2, a1) for t1 in m.targets(s1, a2))
    raise ValueError(f"unknown condition {v.condition}")


def violations_to_json(violations: Iterable[WbViolation]) -> str:
    records = [{
        "condition": v.condition,
        "states": list(v.states),
        "actions": [str(a) for a in v.actions],
        "message": v.message,
    } for v in violations]
    return json.dumps(records, indent=2, sort_keys=False)
