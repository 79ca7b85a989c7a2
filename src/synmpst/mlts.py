"""Finite multiparty LTSs and the four well-behavedness conditions.

States are dense integer ids with display labels; actions are GlobalAction
values whose sender and receiver always differ. Both LTSs built from global
types and LTSs loaded from JSON are presented through this one type, so the
type checker never sees where a classifier came from.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from .terms import GlobalAction

SENDER_DETERMINACY = "SenderDeterminacy"
DETERMINISM = "Determinism"
CONDITIONAL_COMMUTATIVITY = "ConditionalCommutativity"
DIAMOND = "Diamond"

_WITNESS_CAP = 50

# Each condition's message, filled with the witness's states, then its actions.
_MESSAGES = {
    SENDER_DETERMINACY: "state {0} offers {1} and {2}",
    DETERMINISM: "state {0} reaches both {1} and {2} via {3}",
    CONDITIONAL_COMMUTATIVITY: "{3} then {4} from state {0} cannot be reordered",
    DIAMOND: "{3} and {4} from state {0} do not close a diamond",
}


def receiver_disjoint(a1: GlobalAction, a2: GlobalAction) -> bool:
    """Neither action's receiver is involved in the other action."""
    return (a1.receiver not in (a2.sender, a2.receiver)
            and a2.receiver not in (a1.sender, a1.receiver))


class _Table:
    """The transitions of an Mlts, integer-coded once.

    Actions are numbered in GlobalAction.sort_key order, so a state's row,
    sorted by (action id, target), is in transitions_from order. Each action
    carries a bitmask of its two roles, the bit of its receiver and the bit of
    its ordered (sender, receiver) pair, so role tests are integer tests.
    """

    def __init__(self, n: int, transitions: frozenset[tuple[int, GlobalAction, int]]) -> None:
        self.actions = tuple(sorted({a for _, a, _ in transitions}, key=GlobalAction.sort_key))
        self.ids = ids = {a: x for x, a in enumerate(self.actions)}
        self.rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for src, action, dst in transitions:
            self.rows[src].append((ids[action], dst))
        for row in self.rows:
            row.sort()

        # Bits for roles and for ordered pairs, in order of first occurrence.
        self.bits: dict[str, int] = {}
        pairs: dict[tuple[str, str], int] = {}
        for a in self.actions:
            for r in (a.sender, a.receiver):
                self.bits.setdefault(r, 1 << len(self.bits))
            pairs.setdefault((a.sender, a.receiver), 1 << len(pairs))
        self.role_mask = tuple(self.bits[a.sender] | self.bits[a.receiver] for a in self.actions)
        self.receiver_bit = tuple(self.bits[a.receiver] for a in self.actions)
        self.pair_bit = tuple(pairs[a.sender, a.receiver] for a in self.actions)

    # -- views derived from the rows on first use ---------------------------

    @cached_property
    def targets(self) -> tuple[dict[int, tuple[int, ...]], ...]:
        """Per state, each action id it offers and that action's targets, ascending."""
        out = []
        for row in self.rows:
            by_action: dict[int, tuple[int, ...]] = {}
            for x, dst in row:
                by_action[x] = by_action.get(x, ()) + (dst,)
            out.append(by_action)
        return tuple(out)

    @cached_property
    def outgoing(self) -> tuple[tuple[tuple[GlobalAction, int], ...], ...]:
        """Per state, its row with each action id replaced by the action."""
        actions = self.actions
        return tuple(tuple((actions[x], dst) for x, dst in row) for row in self.rows)

    @cached_property
    def covers(self) -> tuple[frozenset[frozenset[str]], ...]:
        """Per state, each set of at most two roles that one of its transitions
        has among its participants; the empty set if it has a transition."""
        sets = [(a.roles, frozenset((a.sender,)), frozenset((a.receiver,))) for a in self.actions]
        return tuple(frozenset([frozenset(), *(r for x, _ in row for r in sets[x])]) if row
                     else frozenset() for row in self.rows)


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
    def _table(self) -> _Table:
        return _Table(len(self.labels), self.transitions)

    def transitions_from(self, s: int) -> tuple[tuple[GlobalAction, int], ...]:
        """The (action, target) transitions of s, ordered by action, then target."""
        return self._table.outgoing[s]

    def targets(self, s: int, action: GlobalAction) -> tuple[int, ...]:
        """States that action leads to from s, ascending; () if s does not offer it."""
        table = self._table
        return table.targets[s].get(table.ids.get(action), ())

    @cached_property
    def actions(self) -> frozenset[GlobalAction]:
        return frozenset(self._table.actions)

    @cached_property
    def roles(self) -> frozenset[str]:
        return frozenset(self._table.bits)

    # -- reachability index: answers memoised over the coded table ----------

    @cached_property
    def _reach(self) -> dict[tuple[int, frozenset[str], bool], tuple[int, ...]]:
        return {}

    def involves(self, s: int, roles: frozenset[str]) -> bool:
        """Some transition of s has every one of roles among its participants."""
        return roles in self._table.covers[s]

    def reach(self, s: int, banned: frozenset[str], strong: bool = False) -> tuple[int, ...]:
        """States reachable from s, ascending, by transitions without the
        banned roles; strong steps also leave no state that involves them all."""
        key = (s, banned, strong)
        hit = self._reach.get(key)
        if hit is None:
            hit = self._reach[key] = self._walk(s, banned, strong)
        return hit

    def _walk(self, s: int, banned: frozenset[str], strong: bool) -> tuple[int, ...]:
        memo, table = self._reach, self._table
        rows, masks = table.rows, table.role_mask
        avoid = sum(table.bits.get(r, 0) for r in banned)
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
            for x, t in rows[state]:
                if t not in seen and not masks[x] & avoid:
                    seen.add(t)
                    frontier.append(t)
        return tuple(sorted(seen))

    def active_roles(self, s: int) -> frozenset[str]:
        """Roles that take part in some transition reachable from s."""
        table = self._table
        rows, masks = table.rows, table.role_mask
        seen = 0
        for t in self.reach(s, frozenset()):
            for x, _ in rows[t]:
                seen |= masks[x]
        return frozenset(r for r, bit in table.bits.items() if seen & bit)


# One Mlts, or a sequence of components with pairwise disjoint roles that
# stand for their product, such as the LTSs of the operands on a global
# type's par spine.
Classifier = Union[Mlts, Sequence[Mlts]]


def components(classifier: Classifier) -> tuple[tuple[Mlts, ...], dict[str, int]]:
    """A classifier's components and the index of each role's component;
    ValueError if there is no component or two components share a role."""
    parts = (classifier,) if isinstance(classifier, Mlts) else tuple(classifier)
    if not parts:
        raise ValueError("a classifier needs at least one component")
    owner: dict[str, int] = {}
    for i, m in enumerate(parts):
        for role in m.roles:
            if owner.setdefault(role, i) != i:
                raise ValueError(f"role {role} occurs in two components")
    return parts, owner


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

    def to_json_obj(self) -> dict:
        return {
            "condition": self.condition,
            "states": list(self.states),
            "actions": [str(a) for a in self.actions],
            "message": self.message,
        }


class Violations(list):
    """The witnesses check_well_behaved lists, at most _WITNESS_CAP of each
    condition, with every condition's number of violations in `counts`."""

    def __init__(self, witnesses: list[WbViolation], counts: dict[str, int]) -> None:
        super().__init__(witnesses)
        self.counts = counts

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def unlisted(self) -> dict[str, int]:
        """Each capped condition's number of violations left out of the list."""
        return {c: n - _WITNESS_CAP for c, n in self.counts.items() if n > _WITNESS_CAP}


def check_well_behaved(m: Mlts) -> Violations:
    """Exhaustively check all four conditions; empty list means well-behaved.

    Violations are data, not failures. They are listed state by state in id
    order; at each state, SenderDeterminacy, Determinism,
    ConditionalCommutativity, then Diamond, with pairs of transitions taken in
    transitions_from order. Only the first _WITNESS_CAP violations of each
    condition are listed, to keep reports readable; the counts cover them all.

    The conditions run on the integer-coded table: role tests are bit tests
    and every probe is keyed on an action id, so GlobalAction objects are
    touched only to emit a witness.
    """
    table = m._table
    actions, mask, rcv, pair = table.actions, table.role_mask, table.receiver_bit, table.pair_bit
    rows, targets = table.rows, table.targets
    out: list[WbViolation] = []
    counts = dict.fromkeys(_MESSAGES, 0)

    def emit(condition: str, states: tuple[int, ...], ids: tuple[int, ...]) -> None:
        if counts[condition] < _WITNESS_CAP:
            witness = tuple(actions[x] for x in ids)
            message = _MESSAGES[condition].format(*states, *witness)
            out.append(WbViolation(condition, states, witness, message))
        counts[condition] += 1

    # Sets of action ids as bitmasks: those each state offers, and those of
    # each ordered pair, by the pair's bit.
    bit = [1 << x for x in range(len(actions))]
    offered = [sum(map(bit.__getitem__, here)) for here in targets]
    pair_actions = dict.fromkeys(pair, 0)
    for x, p in enumerate(pair):
        pair_actions[p] |= bit[x]
    # Every state offers each action to at most one target.
    deterministic = sum(map(len, rows)) == sum(map(len, targets))

    # An action is never receiver-disjoint from itself and always shares its
    # own pair, so neither loop over co-initial pairs needs to skip x1 == x2.
    for s in m.states:
        row, here = rows[s], targets[s]
        if len(row) < 2:  # every condition needs two transitions of s
            continue

        # One pass over the row. Actions of one pair are adjacent in it, so
        # the first action of each pair adds the pair's bits; a receiver
        # involved in another pair's actions is a sender-determinacy clash.
        pairs_at_s = seen_masks = seen_rcvs = paired = successors = 0
        clash = False
        for x, dst in row:
            successors |= offered[dst]
            if not pair[x] & pairs_at_s:
                pairs_at_s |= pair[x]
                paired |= pair_actions[pair[x]]
                if rcv[x] & seen_masks or mask[x] & seen_rcvs:
                    clash = True
                seen_masks |= mask[x]
                seen_rcvs |= rcv[x]

        # 1. Sender determinacy: co-initial actions are receiver-disjoint or
        # share both sender and receiver.
        if clash:
            for i, (x1, _) in enumerate(row):
                for x2, _ in row[i + 1:]:
                    if pair[x1] != pair[x2] and (rcv[x1] & mask[x2] or rcv[x2] & mask[x1]):
                        emit(SENDER_DETERMINACY, (s,), (x1, x2))

        # 2. Determinism: one action, one target. The row has an entry per
        # target, so it is longer than `here` exactly when some action has two.
        if len(row) != len(here):
            for x, dsts in here.items():
                if len(dsts) > 1:
                    emit(DETERMINISM, (s, *dsts[:2]), (x,))

        # 4. Diamond: receiver-disjoint co-initial actions converge. Its
        # witnesses are listed after condition 3's, which reads whether any.
        diamonds = []
        for i, (x1, s1) in enumerate(row):
            for x2, s2 in row[i + 1:]:
                if rcv[x1] & mask[x2] or rcv[x2] & mask[x1]:
                    continue
                closing = targets[s2].get(x1, ())
                for t1 in targets[s1].get(x2, ()):
                    if t1 in closing:
                        break
                else:
                    diamonds.append(((s, s1, s2), (x1, x2)))

        # 3. Conditional commutativity: an already-available communication
        # stays reorderable with an unrelated one taken first. In a
        # deterministic LTS, a witness whose second action s offers is also a
        # broken diamond of its two actions at s; one whose second action s
        # does not offer has that action, of a pair at s, offered by a
        # successor. Only where either can be is the witness searched for.
        if not deterministic or diamonds or successors & paired & ~offered[s]:
            for x1, s1 in row:
                for x2, s_prime in rows[s1]:
                    if mask[x2] & mask[x1] or not pair[x2] & pairs_at_s:
                        continue
                    for mid in here.get(x2, ()):
                        if s_prime in targets[mid].get(x1, ()):
                            break
                    else:
                        emit(CONDITIONAL_COMMUTATIVITY, (s, s1, s_prime), (x1, x2))

        for states, ids in diamonds:
            emit(DIAMOND, states, ids)

    return Violations(out, counts)


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
