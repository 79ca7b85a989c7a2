"""Surface syntax: a textual DSL for global types, processes and sessions,
plus the JSON format for explicit MLTSs.

Lexical conventions: keywords are reserved; message labels, recursion
variables and declaration names start uppercase; roles and data variables
start lowercase. `//` starts a line comment. Int literals carry their sign
(`+7`, `-3`); unsigned numerals are Nat literals.
"""
from __future__ import annotations

import json
import re
from operator import itemgetter
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, TypeVar, Union

from .mlts import Mlts
from .terms import (BINARY_OPS, KEYWORD_LITERALS, Expr, GBranch, GComm, GEnd,
                    GlobalAction, GlobalType, GMu, GPar, GVar, IntLit, NatLit,
                    PayloadType, PAYLOAD_TYPES, PEnd, PIf, PLet, PRec, PRecv,
                    Process, PSend, PVar, RecvBranch, Role, Session,
                    SourceSpan, StrLit, VarRef,
                    check_wellformed_global, check_wellformed_process,
                    pretty_expr, pretty_global, pretty_process)

KEYWORDS = {
    "global", "process", "session", "at", "of", "mu", "end", "par",
    "send", "recv", "let", "in", "if", "then", "else", "rec", *KEYWORD_LITERALS,
}

_OPERATORS = {op.symbol: op for op in BINARY_OPS.values()}

# Longest first, so that "==" is not read as "=" twice.
_SYMBOLS = sorted(["->", "||", "(", ")", "{", "}", "[", "]", ".", ",", ":", ";", "=", *_OPERATORS],
                  key=len, reverse=True)

_EXPR_ENDERS = {"NAT", "INT", "STRING", "LOWER", ")", *KEYWORD_LITERALS}

_T = TypeVar("_T")


@dataclass(frozen=True)
class Diagnostic:
    """An error in an input file, at the span that shows it."""
    message: str
    span: SourceSpan

    def __str__(self) -> str:
        return f"{self.span}: error: {self.message}"


@dataclass(frozen=True)
class Token:
    kind: str      # keyword text, symbol text, or UPPER/LOWER/NAT/INT/STRING/EOF
    text: str
    line: int
    col: int

    def span(self, file: str) -> SourceSpan:
        width = max(len(self.text), 1)
        return SourceSpan(file, self.line, self.col, self.line, self.col + width - 1)


class ParseAbort(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


# One alternative per token class, tried in order. \d is a decimal digit,
# which int() reads; a word must also start with a letter or _, which the
# scanner checks because \w admits digits such as '²' first.
_TOKEN_RE = re.compile("|".join([
    r"(?P<blank>[ \t\r]+|//[^\n]*)",
    r"(?P<newline>\n)",
    r'(?P<string>"(?:[^"\\\n]|\\["\\])*(?P<close>")?)',
    r"(?P<int>[+-]\d+)",
    r"(?P<nat>\d+)",
    r"(?P<word>\w+)",
    "(?P<symbol>" + "|".join(map(re.escape, _SYMBOLS)) + ")",
    r"(?P<other>.)",
]), re.DOTALL)

_ESCAPE_RE = re.compile(r"\\(.)")


def tokenize(text: str, path: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0

    def error(message: str, col: int) -> ParseAbort:
        return ParseAbort(Diagnostic(message, SourceSpan(path, line, col, line, col)))

    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "blank":
            continue
        lexeme, col = m.group(), m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "string":
            if m.group("close") is None:
                if text.startswith("\\", m.end()):
                    raise error("unsupported escape in string literal", col + len(lexeme))
                raise error("unterminated string literal", col)
            tokens.append(Token("STRING", _ESCAPE_RE.sub(r"\1", lexeme[1:-1]), line, col))
        elif kind == "int" and lexeme[0] in _OPERATORS and tokens and tokens[-1].kind in _EXPR_ENDERS:
            # A sign directly after an expression is the binary operator it spells.
            sign = lexeme[0]
            tokens += [Token(sign, sign, line, col), Token("NAT", lexeme[1:], line, col + 1)]
        elif kind in ("int", "nat"):
            tokens.append(Token(kind.upper(), lexeme, line, col))
        elif kind == "symbol":
            tokens.append(Token(lexeme, lexeme, line, col))
        elif kind == "word" and (lexeme[0].isalpha() or lexeme[0] == "_"):
            word_kind = (lexeme if lexeme in KEYWORDS else "PTYPE" if lexeme in PAYLOAD_TYPES
                         else "UPPER" if lexeme[0].isupper() else "LOWER")
            tokens.append(Token(word_kind, lexeme, line, col))
        else:
            raise error(f"unexpected character {lexeme[0]!r}", col)
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


@dataclass(frozen=True)
class SessionDecl:
    name: str
    global_name: str
    bindings: tuple[tuple[Role, str], ...]
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass
class ProtocolFile:
    path: str
    globals: dict[str, GlobalType]
    processes: dict[str, tuple[Role, Process]]
    sessions: dict[str, SessionDecl]
    order: tuple[tuple[str, str], ...]
    diagnostics: tuple[Diagnostic, ...] = ()

    def session(self, name: str) -> Session:
        decl = self.sessions[name]
        return Session(tuple((role, self.processes[pname][1])
                             for role, pname in decl.bindings))


class _Parser:
    def __init__(self, tokens: list[Token], path: str):
        self.tokens = tokens
        self.path = path
        self.pos = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, kind: str) -> Optional[Token]:
        if self.at(kind):
            return self.advance()
        return None

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        if self.at(kind):
            return self.advance()
        raise self.unexpected(what or f"'{kind}'")

    def unexpected(self, want: str) -> ParseAbort:
        """The syntax error for a next token that is not what the grammar wants."""
        tok = self.peek()
        if tok.kind == "EOF":
            found = "end of file"
        elif tok.kind == "STRING":
            found = pretty_expr(StrLit(tok.text))    # in source form, quotes and all
        else:
            found = tok.text
        return ParseAbort(Diagnostic(f"expected {want}, found {found!r}",
                                     tok.span(self.path)))

    def comma_list(self, item: Callable[[], _T]) -> list[_T]:
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    def role(self) -> Role:
        return self.expect("LOWER", "a role").text

    def span_from(self, start: Token) -> SourceSpan:
        end = self.tokens[max(self.pos - 1, 0)]
        end_col = end.col + max(len(end.text), 1) - 1
        return SourceSpan(self.path, start.line, start.col, end.line, end_col)

    # -- declarations -------------------------------------------------------

    def parse_file(self) -> tuple[dict, dict, dict, tuple]:
        globals_: dict[str, GlobalType] = {}
        processes: dict[str, tuple[Role, Process]] = {}
        sessions: dict[str, SessionDecl] = {}
        order: list[tuple[str, str]] = []
        while not self.at("EOF"):
            tok = self.peek()
            if tok.kind == "global":
                self.advance()
                name = self.expect("UPPER", "a global-type name").text
                self.expect("=")
                term = self.gtype()
                self._declare(globals_, processes, sessions, "global", name, tok)
                globals_[name] = term
                order.append(("global", name))
            elif tok.kind == "process":
                self.advance()
                name = self.expect("UPPER", "a process name").text
                self.expect("at")
                role = self.role()
                self.expect("=")
                term = self.proc()
                self._declare(globals_, processes, sessions, "process", name, tok)
                processes[name] = (role, term)
                order.append(("process", name))
            elif tok.kind == "session":
                self.advance()
                name = self.expect("UPPER", "a session name").text
                self.expect("of")
                gname = self.expect("UPPER", "a global-type name").text
                self.expect("=")
                self.expect("{")
                bindings = self.comma_list(self.binding)
                self.expect("}")
                self._declare(globals_, processes, sessions, "session", name, tok)
                sessions[name] = SessionDecl(name, gname, tuple(bindings), self.span_from(tok))
                order.append(("session", name))
            else:
                raise self.unexpected("a declaration")
            self.expect(";")
        return globals_, processes, sessions, tuple(order)

    def _declare(self, globals_, processes, sessions, kind: str, name: str, tok: Token) -> None:
        table = {"global": globals_, "process": processes, "session": sessions}[kind]
        if name in table:
            raise ParseAbort(Diagnostic(f"duplicate {kind} declaration {name}",
                                        tok.span(self.path)))

    def binding(self) -> tuple[Role, str]:
        role = self.role()
        self.expect(":")
        pname = self.expect("UPPER", "a process name").text
        return role, pname

    # -- global types ---------------------------------------------------------

    def gtype(self) -> GlobalType:
        tok = self.peek()
        if tok.kind == "end":
            self.advance()
            return GEnd(span=tok.span(self.path))
        if tok.kind == "mu":
            self.advance()
            var = self.expect("UPPER", "a recursion variable").text
            self.expect(".")
            body = self.gtype()
            return GMu(var, body, span=self.span_from(tok))
        if tok.kind == "par":
            self.advance()
            self.expect("{")
            left = self.gtype()
            self.expect("||")
            right = self.gtype()
            self.expect("}")
            return GPar(left, right, span=self.span_from(tok))
        if tok.kind == "UPPER":
            self.advance()
            return GVar(tok.text, span=tok.span(self.path))
        if tok.kind == "LOWER":
            sender = self.advance().text
            self.expect("->")
            receivers = self.rcvr()
            if self.accept(":"):
                branches = (self.gbranch(),)
            else:
                self.expect("{")
                branches = tuple(self.comma_list(self.gbranch))
                self.expect("}")
            span = self.span_from(tok)
            if len(receivers) > 1 and len(branches) > 1:
                raise ParseAbort(Diagnostic(
                    "multicast shorthand needs exactly one branch", span))
            return self._expand_multicast(sender, receivers, branches, span)
        raise self.unexpected("a global type")

    def rcvr(self) -> list[Role]:
        if self.accept("["):
            receivers = self.comma_list(self.role)
            self.expect("]")
            return receivers
        return [self.role()]

    def _expand_multicast(self, sender: Role, receivers: list[Role],
                          branches: tuple[GBranch, ...], span: SourceSpan) -> GlobalType:
        # p -> [q1,q2]: L(t) . G  is  p -> q1: L(t) . p -> q2: L(t) . G
        last = receivers[-1]
        term: GlobalType = GComm(sender, last, branches, span=span)
        for receiver in reversed(receivers[:-1]):
            b = branches[0]
            term = GComm(sender, receiver, (GBranch(b.label, b.payload, term),), span=span)
        return term

    def gbranch(self) -> GBranch:
        label = self.expect("UPPER", "a message label").text
        self.expect("(")
        payload = self.ptype()
        self.expect(")")
        self.expect(".")
        return GBranch(label, payload, self.gtype())

    def ptype(self) -> PayloadType:
        tok = self.expect("PTYPE", "a payload type (Unit, Bool, Nat, Int or Str)")
        return PAYLOAD_TYPES[tok.text]

    # -- processes -------------------------------------------------------------

    def proc(self) -> Process:
        tok = self.peek()
        if tok.kind == "end":
            self.advance()
            return PEnd(span=tok.span(self.path))
        if tok.kind == "send":
            self.advance()
            to = self.role()
            label = self.expect("UPPER", "a message label").text
            self.expect("(")
            payload = self.expr()
            self.expect(")")
            self.expect(".")
            cont = self.proc()
            return PSend(to, label, payload, cont, span=self.span_from(tok))
        if tok.kind == "recv":
            self.advance()
            from_ = self.role()
            self.expect("{")
            branches = self.comma_list(self.pbranch)
            self.expect("}")
            return PRecv(from_, tuple(branches), span=self.span_from(tok))
        if tok.kind == "let":
            self.advance()
            binder = self.expect("LOWER", "a variable").text
            self.expect("=")
            rhs = self.expr()
            self.expect("in")
            cont = self.proc()
            return PLet(binder, rhs, cont, span=self.span_from(tok))
        if tok.kind == "if":
            self.advance()
            cond = self.expr()
            self.expect("then")
            then = self.proc()
            self.expect("else")
            orelse = self.proc()
            return PIf(cond, then, orelse, span=self.span_from(tok))
        if tok.kind == "rec":
            self.advance()
            var = self.expect("UPPER", "a recursion variable").text
            self.expect(".")
            body = self.proc()
            return PRec(var, body, span=self.span_from(tok))
        if tok.kind == "UPPER":
            self.advance()
            return PVar(tok.text, span=tok.span(self.path))
        raise self.unexpected("a process")

    def pbranch(self) -> RecvBranch:
        label = self.expect("UPPER", "a message label").text
        self.expect("(")
        binder = self.expect("LOWER", "a variable").text
        self.expect(":")
        annot = self.ptype()
        self.expect(")")
        self.expect(".")
        return RecvBranch(label, binder, annot, self.proc())

    # -- expressions -----------------------------------------------------------

    def expr(self, level: int = 0) -> Expr:
        """An expression whose unbracketed operators bind at least as tightly as level."""
        left = self.atom()
        while (op := _OPERATORS.get(self.peek().kind)) is not None and op.level >= level:
            tok = self.advance()
            left = op.build(left, self.expr(op.level + 1), span=tok.span(self.path))
        return left

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind in ("NAT", "INT"):
            self.advance()
            try:
                value = int(tok.text)
            except ValueError:  # more digits than int() converts
                raise ParseAbort(Diagnostic(f"numeral too long ({len(tok.text)} characters)",
                                            tok.span(self.path)))
            return (NatLit if tok.kind == "NAT" else IntLit)(value, span=tok.span(self.path))
        if tok.kind == "STRING":
            self.advance()
            return StrLit(tok.text, span=tok.span(self.path))
        if tok.kind in KEYWORD_LITERALS:
            self.advance()
            return replace(KEYWORD_LITERALS[tok.kind], span=tok.span(self.path))
        if tok.kind == "LOWER":
            self.advance()
            return VarRef(tok.text, span=tok.span(self.path))
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        raise self.unexpected("an expression")


def parse_file(text: str, path: str = "<input>", *,
               allow_unresolved_globals: bool = False
               ) -> Union[ProtocolFile, list[Diagnostic]]:
    """Parse a protocol file; a list of diagnostics signals failure.

    A returned ProtocolFile may still carry well-formedness diagnostics for
    individual declarations; terms are structurally intact in that case.
    """
    try:
        tokens = tokenize(text, path)
        parser = _Parser(tokens, path)
        globals_, processes, sessions, order = parser.parse_file()
    except ParseAbort as abort:
        return [abort.diagnostic]

    errors: list[Diagnostic] = []
    attached: list[Diagnostic] = []
    top = SourceSpan(path, 1, 1, 1, 1)

    def span_of(term) -> SourceSpan:
        return getattr(term, "span", None) or top

    for name, term in globals_.items():
        for v in check_wellformed_global(term):
            attached.append(Diagnostic(f"global {name}: {v.code}: {v.message}",
                                       v.span or span_of(term)))
    for name, (role, term) in processes.items():
        for v in check_wellformed_process(term):
            attached.append(Diagnostic(f"process {name}: {v.code}: {v.message}",
                                       v.span or span_of(term)))
    for name, decl in sessions.items():
        seen_roles: set[str] = set()
        where = decl.span or top
        if decl.global_name not in globals_ and not allow_unresolved_globals:
            errors.append(Diagnostic(
                f"session {name} references unknown global {decl.global_name}", where))
        for role, pname in decl.bindings:
            if role in seen_roles:
                errors.append(Diagnostic(
                    f"session {name} binds role {role} twice", where))
            seen_roles.add(role)
            if pname not in processes:
                errors.append(Diagnostic(
                    f"session {name} references unknown process {pname}", where))
            elif processes[pname][0] != role:
                errors.append(Diagnostic(
                    f"session {name} binds {pname} to role {role}, but it is declared "
                    f"at role {processes[pname][0]}", where))

    if errors:
        return errors
    return ProtocolFile(path, globals_, processes, sessions, order, tuple(attached))


def pretty_file(pf: ProtocolFile) -> str:
    """Inverse of parse_file up to whitespace and comments."""
    parts: list[str] = []
    for kind, name in pf.order:
        if kind == "global":
            parts.append(f"global {name} = {pretty_global(pf.globals[name])};")
        elif kind == "process":
            role, term = pf.processes[name]
            parts.append(f"process {name} at {role} = {pretty_process(term)};")
        else:
            decl = pf.sessions[name]
            bindings = ", ".join(f"{r}: {p}" for r, p in decl.bindings)
            parts.append(f"session {name} of {decl.global_name} = {{ {bindings} }};")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# MLTS JSON


_ACTION_FIELDS = itemgetter("sender", "receiver", "label", "payload")


def parse_mlts(text: str, path: str = "<mlts>") -> Union[Mlts, list[Diagnostic]]:
    """Load an explicit MLTS from its JSON schema; diagnostics on failure."""
    # The span ends after the last character: on the line after a final
    # newline, at its first column.
    last_line_start = text.rfind("\n") + 1
    whole = SourceSpan(path, 1, 1, text.count("\n") + 1, max(len(text) - last_line_start, 1))

    def fail(message: str) -> list[Diagnostic]:
        return [Diagnostic(message, whole)]

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        span = SourceSpan(path, e.lineno, e.colno, e.lineno, e.colno)
        return [Diagnostic(f"invalid JSON: {e.msg}", span)]

    if not isinstance(doc, dict):
        return fail("MLTS document must be a JSON object")
    states = doc.get("states")
    if not isinstance(states, list) or not states or not all(isinstance(s, str) for s in states):
        return fail('"states" must be a non-empty array of strings')
    if len(set(states)) != len(states):
        return fail('"states" contains duplicate names')
    index = {name: i for i, name in enumerate(states)}
    initial = doc.get("initial")
    if not isinstance(initial, str) or initial not in index:
        return fail(f'"initial" must name a declared state, got {initial!r}')
    raw_transitions = doc.get("transitions", [])
    if not isinstance(raw_transitions, list):
        return fail('"transitions" must be an array')

    diagnostics: list[Diagnostic] = []
    transitions: set[tuple[int, GlobalAction, int]] = set()
    # One object per distinct action, so that lookups keyed on actions
    # compare by identity instead of field by field.
    actions: dict[tuple[str, str, str, str], GlobalAction] = {}
    known, state = actions.get, index.get
    for k, t in enumerate(raw_transitions):
        # A known action between declared states needs lookups alone; any
        # other transition is validated field by field.
        try:
            action, src, dst = known(_ACTION_FIELDS(t)), state(t["from"]), state(t["to"])
        except (KeyError, TypeError):  # not an object, or a field missing or unhashable
            action = None
        if action is not None and src is not None and dst is not None:
            transitions.add((src, action, dst))
            continue
        if not isinstance(t, dict):
            diagnostics.append(Diagnostic(f"transition {k} must be an object", whole))
            continue
        missing = [key for key in ("from", "to", "sender", "receiver", "label", "payload")
                   if not isinstance(t.get(key), str)]
        if missing:
            diagnostics.append(Diagnostic(
                f"transition {k} lacks string field(s): {', '.join(missing)}", whole))
            continue
        problems = []
        if t["from"] not in index:
            problems.append(f"unknown source state {t['from']!r}")
        if t["to"] not in index:
            problems.append(f"unknown target state {t['to']!r}")
        if t["sender"] == t["receiver"]:
            problems.append(f"sender and receiver are both {t['sender']!r}")
        if t["payload"] not in PAYLOAD_TYPES:
            problems.append(f"unknown payload type {t['payload']!r}")
        if problems:
            diagnostics.append(Diagnostic(
                f"transition {k}: " + "; ".join(problems), whole))
            continue
        # Valid, between declared states, so its action is a new one.
        fields = _ACTION_FIELDS(t)
        action = actions[fields] = GlobalAction(*fields[:3], PAYLOAD_TYPES[fields[3]])
        transitions.add((index[t["from"]], action, index[t["to"]]))

    if diagnostics:
        return diagnostics
    return Mlts(index[initial], tuple(states), frozenset(transitions))
