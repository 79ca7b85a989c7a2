"""Term language: global types, processes, sessions, expressions, actions.

All terms are immutable values. Source spans, when present, are carried
outside structural equality so that parsed and hand-built terms compare equal.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import islice
from operator import add, attrgetter, mul
from typing import Callable, Iterator, NamedTuple, Optional, Union


@dataclass(frozen=True)
class SourceSpan:
    """Half-open region of a source file; positions are 1-based."""
    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


# Roles, message labels and variable names are plain strings; equality is
# string equality and identifiers are case-sensitive.
Role = str
Label = str
VarName = str
RecVarName = str

_SPAN = dict(default=None, compare=False, repr=False)


def _term(cls):
    """Declare a term class: a frozen dataclass whose structural hash is
    computed once, when an instance is built, and stored in it.

    A term's fields are built before it, with their hashes stored, so the
    hash costs O(fields) and never recurses, however deep the term is;
    state-space construction hashes terms constantly. The value is the one
    the dataclass would generate, the hash of the tuple of compared fields,
    so equal terms hash alike.
    """
    validate = cls.__dict__.get("__post_init__")

    def __post_init__(self):
        if validate is not None:
            validate(self)
        object.__setattr__(self, "_hash", hash(compared(self)))

    cls.__post_init__ = __post_init__
    cls = dataclass(frozen=True)(cls)
    # The tuple is built by attrgetter, in C: the generated __hash__ would be
    # one more Python frame on top of every term built at the foot of a deep
    # recursion, such as the parser's, and would lower the nesting limits.
    names = [f.name for f in fields(cls) if f.compare]
    get = attrgetter(*names) if names else lambda t: ()
    compared = cls._compared = get if len(names) != 1 else lambda t: (get(t),)
    cls.__hash__ = _stored_hash
    return cls


def _stored_hash(term) -> int:
    return term._hash


class PayloadType(enum.Enum):
    """Closed universe of message payload types."""
    UNIT = "Unit"
    BOOL = "Bool"
    NAT = "Nat"
    INT = "Int"
    STR = "Str"

    def __str__(self) -> str:
        return self.value


PAYLOAD_TYPES = {t.value: t for t in PayloadType}


@_term
class GlobalAction:
    """One communication event: sender -> receiver : label(payload)."""
    sender: Role
    receiver: Role
    label: Label
    payload: PayloadType

    def __post_init__(self) -> None:
        if self.sender == self.receiver:
            raise ValueError(f"action sender and receiver coincide: {self.sender}")

    @cached_property
    def roles(self) -> frozenset[Role]:
        return frozenset((self.sender, self.receiver))

    def sort_key(self) -> tuple[str, str, str, str]:
        return (self.sender, self.receiver, self.label, self.payload.value)

    def __str__(self) -> str:
        return f"{self.sender}->{self.receiver}:{self.label}({self.payload.value})"


# ---------------------------------------------------------------------------
# Global types


class GlobalType:
    """Base class for global-type terms."""
    __slots__ = ()


@_term
class GBranch:
    """One alternative of a communication: label(payload) . continuation."""
    label: Label
    payload: PayloadType
    cont: GlobalType


@_term
class GComm(GlobalType):
    """Communication choice: sender -> receiver { branches }."""
    sender: Role
    receiver: Role
    branches: tuple[GBranch, ...]
    span: Optional[SourceSpan] = field(**_SPAN)


@_term
class GMu(GlobalType):
    """Recursion binder: mu X . body."""
    var: RecVarName
    body: GlobalType
    span: Optional[SourceSpan] = field(**_SPAN)


@_term
class GVar(GlobalType):
    """Recursion variable occurrence."""
    var: RecVarName
    span: Optional[SourceSpan] = field(**_SPAN)


@_term
class GEnd(GlobalType):
    """Terminated protocol."""
    span: Optional[SourceSpan] = field(**_SPAN)


@_term
class GPar(GlobalType):
    """Interleaving of two protocols over disjoint role sets."""
    left: GlobalType
    right: GlobalType
    span: Optional[SourceSpan] = field(**_SPAN)


# ---------------------------------------------------------------------------
# Expressions


class Expr:
    """Base class for data expressions."""
    __slots__ = ()


@_term
class UnitLit(Expr):
    span: Optional[SourceSpan] = field(**_SPAN)


@_term
class BoolLit(Expr):
    value: bool
    span: Optional[SourceSpan] = field(**_SPAN)


@_term
class NatLit(Expr):
    value: int
    span: Optional[SourceSpan] = field(**_SPAN)

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("natural literal must be non-negative")


@_term
class IntLit(Expr):
    value: int
    span: Optional[SourceSpan] = field(**_SPAN)


@_term
class StrLit(Expr):
    value: str
    span: Optional[SourceSpan] = field(**_SPAN)

    def __post_init__(self) -> None:
        # The syntax has no escape for a newline, so no literal could spell it.
        if "\n" in self.value:
            raise ValueError("string literal must not contain a newline")


@_term
class VarRef(Expr):
    name: VarName
    span: Optional[SourceSpan] = field(**_SPAN)


@_term
class BinaryExpr(Expr):
    """An operator applied to two operands; each operator of BINARY_OPS is a subclass."""
    left: Expr
    right: Expr
    span: Optional[SourceSpan] = field(**_SPAN)


class Add(BinaryExpr):
    """left + right"""


class Mul(BinaryExpr):
    """left * right"""


class Eq(BinaryExpr):
    """left == right"""


def _numeric(f: Callable[[int, int], int]) -> Callable[[Expr, Expr], Optional[Expr]]:
    """f on two Nat or two Int literals, as a literal of that kind; None on others."""
    return lambda v, w: (type(v)(f(v.value, w.value))
                         if type(v) is type(w) and type(v) in (NatLit, IntLit) else None)


class BinaryOp(NamedTuple):
    """One binary operator of the expression syntax."""
    build: type                 # the expression class it builds
    symbol: str
    level: int                  # higher binds tighter; every operator groups to the left
    chains: bool                # a left operand of the same level prints without brackets
    apply: Callable[[Expr, Expr], Optional[Expr]]   # on two values; None where undefined


# Parser, printer, checker and evaluator all read this table. Values of
# different payload types are simply unequal.
BINARY_OPS: dict[type, BinaryOp] = {op.build: op for op in (
    BinaryOp(Eq, "==", 1, False, lambda v, w: BoolLit(v == w)),
    BinaryOp(Add, "+", 2, True, _numeric(add)),
    BinaryOp(Mul, "*", 3, True, _numeric(mul)),
)}

LITERAL_TYPES: dict[type, PayloadType] = {
    UnitLit: PayloadType.UNIT, BoolLit: PayloadType.BOOL, NatLit: PayloadType.NAT,
    IntLit: PayloadType.INT, StrLit: PayloadType.STR}

KEYWORD_LITERALS: dict[str, Expr] = {"unit": UnitLit(), "true": BoolLit(True), "false": BoolLit(False)}
_KEYWORD_OF = {literal: word for word, literal in KEYWORD_LITERALS.items()}


def is_value(e: Expr) -> bool:
    return type(e) in LITERAL_TYPES


# ---------------------------------------------------------------------------
# Processes


class Process:
    """Base class for per-role process terms."""
    __slots__ = ()


@_term
class RecvBranch:
    """One alternative of a receive: label(binder: annot) . continuation."""
    label: Label
    binder: VarName
    annot: PayloadType
    cont: Process


@_term
class PSend(Process):
    """Send label(payload) to a role, then continue."""
    to: Role
    label: Label
    payload: Expr
    cont: Process
    span: Optional[SourceSpan] = field(**_SPAN)


@_term
class PRecv(Process):
    """Receive one of several labelled messages from a role."""
    from_: Role
    branches: tuple[RecvBranch, ...]
    span: Optional[SourceSpan] = field(**_SPAN)


@_term
class PLet(Process):
    binder: VarName
    rhs: Expr
    cont: Process
    span: Optional[SourceSpan] = field(**_SPAN)


@_term
class PIf(Process):
    cond: Expr
    then: Process
    orelse: Process
    span: Optional[SourceSpan] = field(**_SPAN)


@_term
class PRec(Process):
    var: RecVarName
    body: Process
    span: Optional[SourceSpan] = field(**_SPAN)


@_term
class PVar(Process):
    var: RecVarName
    span: Optional[SourceSpan] = field(**_SPAN)


@_term
class PEnd(Process):
    span: Optional[SourceSpan] = field(**_SPAN)


@_term
class Session:
    """Finite family of processes, at most one per role.

    The role-indexed mapping representation absorbs the commutativity and
    associativity of parallel composition: two sessions are equal iff they
    implement the same roles by equal processes.
    """
    entries: tuple[tuple[Role, Process], ...]

    def __post_init__(self) -> None:
        roles = [r for r, _ in self.entries]
        if not roles:
            raise ValueError("a session must implement at least one role")
        if len(set(roles)) != len(roles):
            raise ValueError("a session may implement each role at most once")
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))

    @property
    def roles(self) -> tuple[Role, ...]:
        return tuple(r for r, _ in self.entries)

    def with_processes(self, updates: dict[Role, Process]) -> "Session":
        """This session with the processes of some of its roles replaced.

        The roles and their order stay, so the new session keeps the sorted,
        validated layout and shares every unchanged entry instead of being
        built afresh; not being built by __init__, it stores its hash itself.
        """
        after = object.__new__(Session)
        object.__setattr__(after, "entries", tuple(
            (e[0], updates[e[0]]) if e[0] in updates else e for e in self.entries))
        object.__setattr__(after, "_hash", hash(Session._compared(after)))
        return after


# ---------------------------------------------------------------------------
# Structure shared by global types and processes: both have the same guarded
# recursion, so one walk serves both syntaxes.

Term = Union[GlobalType, Process]

_cont = attrgetter("cont")


def _with_conts(t: Union[GComm, PRecv], conts: tuple[Term, ...]) -> Term:
    return replace(t, branches=tuple(replace(b, cont=c) for b, c in zip(t.branches, conts)))


# Each constructor's immediate sub-terms in source order, and the term rebuilt
# from new ones in that order. The walkers take one view per node, so a view
# is looked up by exact type rather than found by a chain of isinstance tests.
_SHAPES = {
    **dict.fromkeys((GComm, PRecv), (lambda t: tuple(map(_cont, t.branches)), _with_conts)),
    **dict.fromkeys((PSend, PLet), (lambda t: (t.cont,), lambda t, s: replace(t, cont=s[0]))),
    **dict.fromkeys((GMu, PRec), (lambda t: (t.body,), lambda t, s: replace(t, body=s[0]))),
    GPar: (attrgetter("left", "right"), lambda t, s: replace(t, left=s[0], right=s[1])),
    PIf: (attrgetter("then", "orelse"), lambda t, s: replace(t, then=s[0], orelse=s[1])),
    **dict.fromkeys((GVar, GEnd, PVar, PEnd), (lambda t: (), lambda t, s: t)),
}


def _subterms(t: Term) -> tuple[Term, ...]:
    """The immediate sub-terms of a global type or process, in source order."""
    shape = _SHAPES.get(type(t))
    if shape is None:
        raise TypeError(f"not a global type or process: {t!r}")
    return shape[0](t)


def _rebuild(t: Term, subterms: tuple[Term, ...]) -> Term:
    """t with its immediate sub-terms replaced, in the order of _subterms."""
    return _SHAPES[type(t)][1](t, subterms)


def _preorder(t: Term) -> Iterator[Term]:
    """t and every sub-term in it, parents before children, in source order."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(reversed(_subterms(t)))


# ---------------------------------------------------------------------------
# obj and role extraction


def obj(p: Process) -> Optional[Role]:
    """Communication partner of a send/receive head; None otherwise."""
    if isinstance(p, PSend):
        return p.to
    if isinstance(p, PRecv):
        return p.from_
    return None


def term_nodes(g: GlobalType, limit: int) -> int:
    """Node count of a global type, clamped at limit + 1."""
    return sum(1 for _ in islice(_preorder(g), limit + 1))


def roles_of(g: GlobalType) -> frozenset[Role]:
    """All roles occurring syntactically as a sender or receiver."""
    return frozenset(role for t in _preorder(g) if isinstance(t, GComm)
                     for role in (t.sender, t.receiver))


# ---------------------------------------------------------------------------
# Free variables and substitution


def _free_rec_vars(t: Term) -> frozenset[RecVarName]:
    """The recursion variables occurring free in a global type or process."""
    free: set[RecVarName] = set()
    stack = [(t, frozenset())]
    while stack:
        t, bound = stack.pop()
        if isinstance(t, (GVar, PVar)):
            if t.var not in bound:
                free.add(t.var)
            continue
        if isinstance(t, (GMu, PRec)):
            bound = bound | {t.var}
        for s in _subterms(t):
            stack.append((s, bound))
    return frozenset(free)


def free_expr_vars(e: Expr) -> frozenset[VarName]:
    if isinstance(e, VarRef):
        return frozenset((e.name,))
    if isinstance(e, BinaryExpr):
        return free_expr_vars(e.left) | free_expr_vars(e.right)
    return frozenset()


def _fresh(name: str, avoid: frozenset[str]) -> str:
    candidate = name
    n = 1
    while candidate in avoid:
        candidate = f"{name}_{n}"
        n += 1
    return candidate


def _substitute_rec(t: Term, x: RecVarName, replacement: Term) -> Term:
    """Capture-avoiding substitution of replacement for the free occurrences
    of the recursion variable x in a global type or process. The free
    variables of replacement are computed once, at the first binder met."""
    avoid: Optional[frozenset[RecVarName]] = None

    def walk(t: Term) -> Term:
        nonlocal avoid
        if isinstance(t, (GVar, PVar)):
            return replacement if t.var == x else t
        if isinstance(t, (GMu, PRec)):
            if t.var == x:
                return t
            if avoid is None:
                avoid = _free_rec_vars(replacement)
            if t.var in avoid:
                renamed = _fresh(t.var, avoid | _free_rec_vars(t.body) | {x})
                var = GVar(renamed) if isinstance(t, GMu) else PVar(renamed)
                return replace(t, var=renamed, body=walk(_substitute_rec(t.body, t.var, var)))
        return _rebuild(t, tuple(walk(s) for s in _subterms(t)))

    return walk(t)


# Each public name says which syntax its caller holds.
free_global_vars = free_process_rec_vars = _free_rec_vars
substitute_global = substitute_process_rec = _substitute_rec
iter_subprocesses = _preorder


def substitute_expr(e: Expr, x: VarName, v: Expr) -> Expr:
    if isinstance(e, VarRef):
        return v if e.name == x else e
    if isinstance(e, BinaryExpr):
        return replace(e, left=substitute_expr(e.left, x, v), right=substitute_expr(e.right, x, v))
    return e


def substitute_process_val(p: Process, x: VarName, v: Expr) -> Process:
    """Substitute the data variable x by value v, respecting Let/Recv binders."""
    if isinstance(p, PSend):
        return replace(p,
                       payload=substitute_expr(p.payload, x, v),
                       cont=substitute_process_val(p.cont, x, v))
    if isinstance(p, PRecv):
        return replace(p, branches=tuple(
            b if b.binder == x else replace(b, cont=substitute_process_val(b.cont, x, v))
            for b in p.branches))
    if isinstance(p, PLet):
        rhs = substitute_expr(p.rhs, x, v)
        if p.binder == x:
            return replace(p, rhs=rhs)
        return replace(p, rhs=rhs, cont=substitute_process_val(p.cont, x, v))
    if isinstance(p, PIf):
        return replace(p,
                       cond=substitute_expr(p.cond, x, v),
                       then=substitute_process_val(p.then, x, v),
                       orelse=substitute_process_val(p.orelse, x, v))
    if isinstance(p, PRec):
        return replace(p, body=substitute_process_val(p.body, x, v))
    return p


# ---------------------------------------------------------------------------
# Well-formedness


@dataclass(frozen=True)
class WfViolation:
    """One well-formedness defect with a human-readable description."""
    code: str
    message: str
    span: Optional[SourceSpan] = field(**_SPAN)

    def __str__(self) -> str:
        where = f" at {self.span}" if self.span else ""
        return f"{self.code}: {self.message}{where}"


def check_wellformed_global(g: GlobalType) -> list[WfViolation]:
    """Report every violated invariant of a global type; empty means ok.

    Checks: duplicate branch labels, self-communication, unguarded or unbound
    recursion, shadowed binders, overlapping or recursion-crossing Par
    operands.
    """
    out: list[WfViolation] = []

    def walk(t: GlobalType, bound: frozenset[str], unguarded: frozenset[str]
             ) -> tuple[set[Role], set[RecVarName]]:
        """Append t's violations to out; return t's roles and its free
        recursion variables, in sets the caller may change."""
        if isinstance(t, GEnd):
            return set(), set()
        if isinstance(t, GVar):
            if t.var not in bound:
                out.append(WfViolation("unbound-var", f"recursion variable {t.var} is unbound", t.span))
            elif t.var in unguarded:
                out.append(WfViolation("unguarded", f"recursion variable {t.var} occurs unguarded", t.span))
            return set(), {t.var}
        if isinstance(t, GMu):
            if t.var in bound:
                out.append(WfViolation("shadowed-binder", f"mu binder {t.var} shadows an outer binder", t.span))
            roles, free = walk(t.body, bound | {t.var}, unguarded | {t.var})
            free.discard(t.var)
            return roles, free
        if isinstance(t, GComm):
            if not t.branches:
                out.append(WfViolation("empty-choice", "communication with no branches", t.span))
            if t.sender == t.receiver:
                out.append(WfViolation("self-communication",
                                       f"role {t.sender} sends to itself", t.span))
            seen: set[str] = set()
            roles, free = {t.sender, t.receiver}, set()
            for b in t.branches:
                if b.label in seen:
                    out.append(WfViolation("duplicate-label",
                                           f"branch label {b.label} repeated in one choice", t.span))
                seen.add(b.label)
                branch_roles, branch_free = walk(b.cont, bound, frozenset())
                roles, free = _union(roles, branch_roles), _union(free, branch_free)
            return roles, free
        if isinstance(t, GPar):
            at = len(out)               # where the par's own violations go, before its operands'
            left, left_free = walk(t.left, bound, unguarded)
            right, right_free = walk(t.right, bound, unguarded)
            found = []
            overlap = left & right
            if overlap:
                found.append(WfViolation("par-overlap",
                                         "par operands share roles: " + ", ".join(sorted(overlap)), t.span))
            # A recursion variable bound outside a par would re-introduce the
            # whole type inside one operand on unfolding, breaking the role
            # disjointness the rule relies on.
            free = _union(left_free, right_free)
            crossing = free & bound
            if crossing:
                found.append(WfViolation("rec-crosses-par",
                                         "recursion variable bound outside par occurs inside: "
                                         + ", ".join(sorted(crossing)), t.span))
            out[at:at] = found
            return _union(left, right), free
        raise TypeError(f"not a global type: {t!r}")

    walk(g, frozenset(), frozenset())
    return out


def _union(a: set, b: set) -> set:
    """a | b, made by adding the smaller set to the larger one, which it reuses."""
    if len(a) < len(b):
        a, b = b, a
    a |= b
    return a


def check_wellformed_process(p: Process) -> list[WfViolation]:
    """Report every violated invariant of a process; empty means ok.

    Checks: duplicate receive labels, recursion that is not message-guarded,
    unbound recursion variables, unbound data variables, shadowed binders.
    """
    out: list[WfViolation] = []

    def walk(t: Process, bound: frozenset[str], unguarded: frozenset[str],
             data: frozenset[str]) -> None:
        if isinstance(t, PEnd):
            return
        if isinstance(t, PVar):
            if t.var not in bound:
                out.append(WfViolation("unbound-var", f"recursion variable {t.var} is unbound", t.span))
            elif t.var in unguarded:
                out.append(WfViolation("not-message-guarded",
                                       f"recursion variable {t.var} occurs under no send/receive", t.span))
            return
        if isinstance(t, PRec):
            if t.var in bound:
                out.append(WfViolation("shadowed-binder", f"rec binder {t.var} shadows an outer binder", t.span))
            walk(t.body, bound | {t.var}, unguarded | {t.var}, data)
            return
        if isinstance(t, PSend):
            check_expr(t.payload, data)
            walk(t.cont, bound, frozenset(), data)
            return
        if isinstance(t, PRecv):
            seen: set[str] = set()
            if not t.branches:
                out.append(WfViolation("empty-choice", "receive with no branches", t.span))
            for b in t.branches:
                if b.label in seen:
                    out.append(WfViolation("duplicate-label",
                                           f"receive label {b.label} repeated in one branching", t.span))
                seen.add(b.label)
                walk(b.cont, bound, frozenset(), data | {b.binder})
            return
        if isinstance(t, PLet):
            check_expr(t.rhs, data)
            walk(t.cont, bound, unguarded, data | {t.binder})
            return
        if isinstance(t, PIf):
            check_expr(t.cond, data)
            walk(t.then, bound, unguarded, data)
            walk(t.orelse, bound, unguarded, data)
            return
        raise TypeError(f"not a process: {t!r}")

    def check_expr(e: Expr, data: frozenset[str]) -> None:
        for name in sorted(free_expr_vars(e) - data):
            out.append(WfViolation("unbound-var", f"data variable {name} is unbound",
                                   getattr(e, "span", None)))

    walk(p, frozenset(), frozenset(), frozenset())
    return out


# ---------------------------------------------------------------------------
# Pretty printing (the inverse of the surface grammar)


def pretty_expr(e: Expr) -> str:
    return _pretty_expr(e, 0)


def _pretty_expr(e: Expr, level: int) -> str:
    """e in surface syntax, bracketed unless it binds at least as tightly as level."""
    op = BINARY_OPS.get(type(e))
    if op is not None:
        left = _pretty_expr(e.left, op.level if op.chains else op.level + 1)
        s = f"{left} {op.symbol} {_pretty_expr(e.right, op.level + 1)}"
        return f"({s})" if level > op.level else s
    if isinstance(e, (UnitLit, BoolLit)):
        return _KEYWORD_OF[e]
    if isinstance(e, NatLit):
        return str(e.value)
    if isinstance(e, IntLit):
        return f"{e.value:+d}"
    if isinstance(e, StrLit):
        return '"' + e.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(e, VarRef):
        return e.name
    raise TypeError(f"not an expression: {e!r}")


def pretty_global(g: GlobalType, memo: Optional[dict[GlobalType, str]] = None) -> str:
    """Concrete syntax of g; memo, when given, holds the text of subterms
    already rendered and gains the ones rendered now."""
    if memo is not None:
        text = memo.get(g)
        if text is not None:
            return text
    if isinstance(g, GEnd):
        text = "end"
    elif isinstance(g, GVar):
        text = g.var
    elif isinstance(g, GMu):
        text = f"mu {g.var} . {pretty_global(g.body, memo)}"
    elif isinstance(g, GPar):
        text = f"par {{ {pretty_global(g.left, memo)} || {pretty_global(g.right, memo)} }}"
    elif isinstance(g, GComm):
        branches = [f"{b.label}({b.payload.value}) . {pretty_global(b.cont, memo)}"
                    for b in g.branches]
        if len(branches) == 1:
            text = f"{g.sender} -> {g.receiver}: {branches[0]}"
        else:
            text = f"{g.sender} -> {g.receiver} {{ {', '.join(branches)} }}"
    else:
        raise TypeError(f"not a global type: {g!r}")
    if memo is not None:
        memo[g] = text
    return text


def pretty_process(p: Process) -> str:
    if isinstance(p, PEnd):
        return "end"
    if isinstance(p, PVar):
        return p.var
    if isinstance(p, PRec):
        return f"rec {p.var} . {pretty_process(p.body)}"
    if isinstance(p, PSend):
        return f"send {p.to} {p.label}({pretty_expr(p.payload)}) . {pretty_process(p.cont)}"
    if isinstance(p, PRecv):
        branches = [f"{b.label}({b.binder}: {b.annot}) . {pretty_process(b.cont)}"
                    for b in p.branches]
        return f"recv {p.from_} {{ {', '.join(branches)} }}"
    if isinstance(p, PLet):
        return f"let {p.binder} = {pretty_expr(p.rhs)} in {pretty_process(p.cont)}"
    if isinstance(p, PIf):
        return f"if {pretty_expr(p.cond)} then {pretty_process(p.then)} else {pretty_process(p.orelse)}"
    raise TypeError(f"not a process: {p!r}")


def summarize_process(p: Process, limit: int = 48) -> str:
    """Shortened rendering for diagnostics and derivation trees."""
    text = pretty_process(p)
    if len(text) <= limit:
        return text
    return text[: limit - 1] + "…"


def is_message_guarded(body: Process, var: RecVarName) -> bool:
    """True when every occurrence of var in body sits under a send or receive."""
    stack = [(body, False)]
    while stack:
        t, guarded = stack.pop()
        if isinstance(t, PVar):
            if t.var == var and not guarded:
                return False
        elif not (isinstance(t, PRec) and t.var == var):
            guarded = guarded or isinstance(t, (PSend, PRecv))
            stack.extend((s, guarded) for s in _subterms(t))
    return True
