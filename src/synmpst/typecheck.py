"""Process and session typing directly against MLTS states.

All rules except skipping are syntax-directed. A send or receive head
chooses once: if its role is disabled at the current state, the skip rule
applies, computing future obligations from the reachability relations;
otherwise the send or receive rule does. The two are mutually exclusive, so
checking always terminates on a finite classifier.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .lts import reach_strong_without, reach_without, step_with
from .mlts import Classifier, Mlts, components
from .terms import (BINARY_OPS, LITERAL_TYPES, Eq, Expr, PayloadType,
                    PEnd, PIf, PLet, PRec, PRecv, Process, PSend, PVar,
                    Role, Session, SourceSpan, VarRef,
                    is_message_guarded, obj, pretty_expr, summarize_process)

RULE_SEND = "⊢-Send"
RULE_RECV = "⊢-Recv"
RULE_SKIP = "⊢-Skip"
RULE_END = "⊢-End"
RULE_LET = "⊢-Let"
RULE_IF = "⊢-If"
RULE_REC = "⊢-Rec"
RULE_VAR = "⊢-Var"

UNEXPECTED_SEND = "UnexpectedSend"
MISSING_RECV_BRANCH = "MissingRecvBranch"
PAYLOAD_MISMATCH = "PayloadMismatch"
SKIP_FAILED = "SkipFailed"
NOT_TERMINABLE = "NotTerminable"
VAR_STATE_UNREACHABLE = "VarStateUnreachable"
UNBOUND_VAR = "UnboundVar"
ROLE_CLASH = "RoleClash"
ROLE_UNIMPLEMENTED = "RoleUnimplemented"
EXPR_ILL_TYPED = "ExprIllTyped"

DataEnv = tuple[tuple[str, PayloadType], ...]
SessEnv = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class TcError:
    """A typing failure, naming the role under check and the state reached."""
    kind: str
    role: Role
    state: int
    message: str
    premise: Optional[int] = None
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        extra = f" (premise {self.premise})" if self.premise is not None else ""
        return f"{self.kind}{extra}: {self.message}"

    def to_json_obj(self) -> dict:
        return {
            "severity": "error",
            "kind": self.kind,
            "role": self.role,
            "state": self.state,
            "premise": self.premise,
            "span": str(self.span) if self.span else None,
            "message": self.message,
        }


@dataclass(frozen=True)
class Derivation:
    """The rule that proves gamma; delta |- term at role |> state, and the
    derivations of its premises in the rule's order."""
    rule: str
    role: Role
    state: int
    term: Process = field(repr=False)
    gamma: DataEnv = field(repr=False)
    delta: SessEnv = field(repr=False)
    children: tuple["Derivation", ...] = ()

    @property
    def proc(self) -> str:
        return summarize_process(self.term)

    @property
    def obligations(self) -> tuple[int, ...]:
        """The states a skipped process is checked again at, ascending."""
        return tuple(c.state for c in self.children) if self.rule == RULE_SKIP else ()

    def iter_nodes(self):
        yield self
        for c in self.children:
            yield from c.iter_nodes()


def render_derivation(d: Derivation, indent: int = 0) -> str:
    pad = "  " * indent
    extra = f"  [obligations: {', '.join(f's{o}' for o in d.obligations)}]" if d.obligations else ""
    lines = [f"{pad}{d.rule} {d.role} @ s{d.state}  {d.proc}{extra}"]
    for c in d.children:
        lines.append(render_derivation(c, indent + 1))
    return "\n".join(lines)


class _Fail(Exception):
    def __init__(self, err: TcError):
        super().__init__(str(err))
        self.err = err


def _lookup(env, name):
    for key, value in reversed(env):
        if key == name:
            return value
    return None


def type_expr(env: DataEnv, e: Expr) -> Union[PayloadType, TcError]:
    """Type of an expression in env, or the error that rules it out."""
    try:
        return _type_expr(env, e, "", -1)
    except _Fail as f:
        return f.err


def _type_expr(env: DataEnv, e: Expr, role: Role, s: int) -> PayloadType:
    """Type of e in env; a failure names role and state s."""
    literal = LITERAL_TYPES.get(type(e))
    if literal is not None:
        return literal
    if isinstance(e, VarRef):
        t = _lookup(env, e.name)
        if t is None:
            raise _Fail(TcError(UNBOUND_VAR, role, s, f"variable {e.name} is unbound", span=e.span))
        return t
    op = BINARY_OPS.get(type(e))
    if op is not None:
        t1, t2 = _type_expr(env, e.left, role, s), _type_expr(env, e.right, role, s)
        if isinstance(e, Eq):
            if t1 == t2:
                return PayloadType.BOOL
            message = f"{op.symbol} compares a {t1} with a {t2}"
        elif t1 == t2 and t1 in (PayloadType.NAT, PayloadType.INT):
            return t1
        else:
            message = f"operator {op.symbol} needs two Nat or two Int operands, got {t1} and {t2}"
        raise _Fail(TcError(EXPR_ILL_TYPED, role, s, message, span=e.span))
    raise TypeError(f"not an expression: {e!r}")


class Checker:
    """Typing judgements against one fixed classifier.

    strict_var replaces the reachability premise of the recursion-variable
    rule by state equality; it exists as a regression guard for the relaxed
    rule and is off by default.
    """

    def __init__(self, m: Mlts, *, strict_var: bool = False):
        self.m = m
        self.strict_var = strict_var
        self._memo: dict = {}
        self._enabling: dict[tuple[Role, int], tuple[int, ...]] = {}
        self._meetings: dict[tuple[int, frozenset[Role]], Optional[int]] = {}

    # -- public -------------------------------------------------------------

    def check_process(self, role: Role, p: Process, state: Optional[int] = None,
                      gamma: DataEnv = (), delta: SessEnv = ()) -> Derivation:
        """Derivation for gamma; delta |- p at role |> state, or raise _Fail."""
        s = self.m.initial if state is None else state
        return self._check(gamma, delta, role, p, s)

    # -- rules ---------------------------------------------------------------

    def _check(self, gamma: DataEnv, delta: SessEnv, role: Role, p: Process,
               s: int) -> Derivation:
        key = (role, p, s, gamma, delta)
        hit = self._memo.get(key)
        if hit is not None:
            if isinstance(hit, Derivation):
                return hit
            raise _Fail(hit)
        try:
            result = self._apply(gamma, delta, role, p, s)
        except _Fail as f:
            self._memo[key] = f.err
            raise
        self._memo[key] = result
        return result

    def _apply(self, gamma: DataEnv, delta: SessEnv, role: Role, p: Process,
               s: int) -> Derivation:
        m = self.m

        if isinstance(p, PEnd):
            # Terminating is allowed when the role can never act again along
            # role-free futures.
            n = self._first_meeting(s, frozenset((role,)))
            if n is not None:
                raise _Fail(TcError(
                    NOT_TERMINABLE, role, s,
                    f"{role} ends, but state s{n} (reachable without {role}) "
                    f"still involves {role}", span=p.span))
            return Derivation(RULE_END, role, s, p, gamma, delta)

        if isinstance(p, PVar):
            bound = _lookup(delta, p.var)
            if bound is None:
                raise _Fail(TcError(UNBOUND_VAR, role, s,
                                    f"recursion variable {p.var} is unbound", span=p.span))
            if self.strict_var:
                ok = bound == s
            else:
                ok = s in reach_without(m, bound, (role,))
            if not ok:
                raise _Fail(TcError(
                    VAR_STATE_UNREACHABLE, role, s,
                    f"recursion variable {p.var} was bound at state s{bound}, which does not "
                    f"reach s{s} without {role}", span=p.span))
            return Derivation(RULE_VAR, role, s, p, gamma, delta)

        if isinstance(p, PLet):
            t = _type_expr(gamma, p.rhs, role, s)
            child = self._check(gamma + ((p.binder, t),), delta, role, p.cont, s)
            return Derivation(RULE_LET, role, s, p, gamma, delta, (child,))

        if isinstance(p, PIf):
            t = _type_expr(gamma, p.cond, role, s)
            if t != PayloadType.BOOL:
                raise _Fail(TcError(EXPR_ILL_TYPED, role, s,
                                    f"if condition has type {t}, expected Bool", span=p.span))
            then = self._check(gamma, delta, role, p.then, s)
            orelse = self._check(gamma, delta, role, p.orelse, s)
            return Derivation(RULE_IF, role, s, p, gamma, delta, (then, orelse))

        if isinstance(p, PRec):
            if not is_message_guarded(p.body, p.var):
                raise ValueError(
                    f"process for {role} is not message-guarded on {p.var}; "
                    "well-formedness must be checked before typing")
            child = self._check(gamma, delta + ((p.var, s),), role, p.body, s)
            return Derivation(RULE_REC, role, s, p, gamma, delta, (child,))

        if not isinstance(p, (PSend, PRecv)):
            raise TypeError(f"not a process: {p!r}")
        t = _type_expr(gamma, p.payload, role, s) if isinstance(p, PSend) else None
        # A disabled role has no transition to send or receive on: it may only
        # skip, and an enabled role may not.
        if not step_with(m, s, (role,)):
            return self._skip(gamma, delta, role, p, s)

        if isinstance(p, PSend):
            matches = [dst for a, dst in m.transitions_from(s)
                       if a.sender == role and a.receiver == p.to
                       and a.label == p.label and a.payload == t]
            failure: Optional[_Fail] = None
            for dst in matches:
                try:
                    child = self._check(gamma, delta, role, p.cont, dst)
                    return Derivation(RULE_SEND, role, s, p, gamma, delta, (child,))
                except _Fail as f:
                    failure = failure or f
            if failure is not None:
                raise failure
            mistyped = sorted(a.payload.value for a, _ in m.transitions_from(s)
                              if a.sender == role and a.receiver == p.to and a.label == p.label)
            if mistyped:
                raise _Fail(TcError(
                    PAYLOAD_MISMATCH, role, s,
                    f"{role} sends {p.label}({pretty_expr(p.payload)}) of type {t}, but state "
                    f"s{s} specifies {p.label}({', '.join(mistyped)})", span=p.span))
            raise _Fail(TcError(
                UNEXPECTED_SEND, role, s,
                f"state s{s} does not let {role} send {p.label} to {p.to}", span=p.span))

        incoming = [(a, dst) for a, dst in m.transitions_from(s)
                    if a.sender == p.from_ and a.receiver == role]
        if not incoming:
            raise _Fail(TcError(
                ROLE_CLASH, role, s,
                f"state s{s} involves {role}, but not in a receive from {p.from_}",
                span=p.span))
        by_label = {b.label: b for b in p.branches}
        children = []
        for a, dst in incoming:
            branch = by_label.get(a.label)
            if branch is None:
                raise _Fail(TcError(
                    MISSING_RECV_BRANCH, role, s,
                    f"state s{s} specifies a receive of {a.label} from {p.from_}, but "
                    f"{role} implements no such branch", span=p.span))
            if branch.annot != a.payload:
                raise _Fail(TcError(
                    PAYLOAD_MISMATCH, role, s,
                    f"branch {a.label}({branch.binder}: {branch.annot}) does not match "
                    f"payload type {a.payload} at state s{s}", span=p.span))
            children.append(self._check(
                gamma + ((branch.binder, a.payload),), delta, role, branch.cont, dst))
        return Derivation(RULE_RECV, role, s, p, gamma, delta, tuple(children))

    def _skip(self, gamma: DataEnv, delta: SessEnv, role: Role, p: Process,
              s: int) -> Derivation:
        children = tuple(self._check(gamma, delta, role, p, d)
                         for d in self._try_skip(gamma, delta, role, p, s))
        return Derivation(RULE_SKIP, role, s, p, gamma, delta, children)

    def _try_skip(self, gamma: DataEnv, delta: SessEnv, role: Role, p: Process,
                  s: int) -> tuple[int, ...]:
        """Check the skip premises at s; return the obligation states.

        Premises, in reporting order: (1) the role is disabled now; (2) from
        every near future a state enabling the role is strongly reachable;
        (3) the process must re-check at each such state (done by the caller);
        (4) a direct communication with the process's partner never becomes
        available through transitions involving neither of them.
        """
        partner = obj(p)
        if partner is None:
            raise ValueError("skip applies only to send/receive processes")
        m = self.m
        if step_with(m, s, (role,)):
            raise _Fail(TcError(
                SKIP_FAILED, role, s,
                f"{role} is enabled at state s{s}, so it may not skip", premise=1,
                span=p.span))

        near_futures = reach_without(m, s, (role,))
        obligations: set[int] = set()
        for n in near_futures:
            targets = self._enabling_from(role, n)
            if not targets:
                raise _Fail(TcError(
                    SKIP_FAILED, role, s,
                    f"from near future s{n}, no state enabling {role} is strongly reachable",
                    premise=2, span=p.span))
            obligations.update(targets)

        alone, pair = frozenset((role,)), frozenset((role, partner))
        for n in near_futures:
            if m.involves(n, alone):
                continue
            w = self._first_meeting(n, pair)
            if w is not None:
                raise _Fail(TcError(
                    SKIP_FAILED, role, s,
                    f"a direct {role}/{partner} communication becomes available at s{w} "
                    f"without either of them acting (near future s{n})", premise=4,
                    span=p.span))

        return tuple(sorted(obligations))

    def _enabling_from(self, role: Role, n: int) -> tuple[int, ...]:
        """Premise 2 at n: the states enabling role strongly reachable from n."""
        hit = self._enabling.get((role, n))
        if hit is None:
            m = self.m
            hit = self._enabling[role, n] = tuple(
                d for d in reach_strong_without(m, n, (role,)) if step_with(m, d, (role,)))
        return hit

    def _first_meeting(self, n: int, roles: frozenset[Role]) -> Optional[int]:
        """The first state reachable from n without the roles at which some
        transition involves them all: the state that keeps a role from ending
        (one role), or that breaks premise 4 (role and partner)."""
        key = (n, roles)
        if key not in self._meetings:
            m = self.m
            self._meetings[key] = next(
                (w for w in reach_without(m, n, roles) if m.involves(w, roles)), None)
        return self._meetings[key]


def type_process(m: Mlts, gamma: DataEnv, delta: SessEnv, role: Role, p: Process,
                 s: int, *, strict_var: bool = False) -> Union[Derivation, TcError]:
    """Type p as an implementation of role at state s of m."""
    try:
        return Checker(m, strict_var=strict_var).check_process(role, p, s, gamma, delta)
    except _Fail as f:
        return f.err


def try_skip(m: Mlts, gamma: DataEnv, delta: SessEnv, role: Role, p: Process,
             s: int) -> Union[tuple[int, ...], TcError]:
    """Skip premises at s; the obligation states on success."""
    try:
        return Checker(m)._try_skip(gamma, delta, role, p, s)
    except _Fail as f:
        return f.err


def type_session(classifier: Classifier, sess: Session
                 ) -> Union[dict[Role, Derivation], list[TcError]]:
    """Type every process of a session at the initial state of its classifier.

    The classifier is one Mlts, or components with pairwise disjoint roles
    that stand for their product (mlts.Classifier). Each role is checked
    against the component whose roles contain it, or against the
    first component if none does. Every role active at a component's initial
    state must be implemented. All failures are collected rather than
    reported one at a time: each unimplemented role in name order, then each
    failing process in the session's order.

    Checking each component on its own gives the product's verdicts, and
    each error names the same role; the states it names are ids of the
    component. A sketch of why, for a role r of component C and a product
    state v with C-part v_C:

    - No transition of another component involves r, and moving another
      component leaves v_C as it is. So r is enabled at v iff at v_C, and
      the transitions r may send or receive on at v are those of v_C, with
      the other parts of v unchanged.
    - Reachability without r (premise 2's near futures, ⊢-Var) and strong
      reachability without r (premise 2's enabling states) from v reach
      product states whose C-parts are exactly the states C reaches from
      v_C the same way: the other components move without r, and a strong
      step is blocked only by r being involved, which is decided by the
      C-part.
    - A transition involving r and a partner (premise 4, ⊢-End's first
      meeting) is a transition of C, so whether one becomes available
      depends only on the C-parts reached. A partner outside C never meets r.
    - ⊢-Var asks whether the binding state reaches the use state without
      r. Along a derivation the other components only advance, by
      transitions without r, so the other parts of the use state are
      reached from those of the binding state, and the premise reduces to
      C's parts.
    By induction on derivations, every judgement at v holds iff the same
    judgement holds at v_C in C. A role in no component is never enabled,
    and every component answers its premises alike, so the first one serves.
    When several skip obligations fail, the product and C may meet them in
    another order and so report the first of different kinds;
    tests/test_compositional.py compares kinds and premises on W_k, P_n,
    corpus and random inputs and their mutants.

    Well-behavedness splits the same way: co-initial transitions of
    different components have disjoint roles, so they never break
    SenderDeterminacy, and they commute, closing ConditionalCommutativity
    and Diamond. So the product is well-behaved iff every component is.
    """
    parts, owner = components(classifier)
    checkers = [Checker(m) for m in parts]

    errors: list[TcError] = []
    active = {role: m for m in parts for role in m.active_roles(m.initial)}
    for missing in sorted(active.keys() - set(sess.roles)):
        m = active[missing]
        errors.append(TcError(
            ROLE_UNIMPLEMENTED, missing, m.initial,
            f"role {missing} occurs in the protocol but is not implemented"))

    derivations: dict[Role, Derivation] = {}
    for role, proc in sess.entries:
        try:
            derivations[role] = checkers[owner.get(role, 0)].check_process(role, proc)
        except _Fail as f:
            errors.append(f.err)
    if errors:
        return errors
    return derivations
