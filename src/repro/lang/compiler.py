"""Compile transaction-language programs to native Python closures.

The interpreter in :mod:`repro.lang.interpreter` walks the AST once per
packet.  That is the dominant per-packet cost in the reproduction, while the
paper's whole point is that these transactions are small enough to run at
line rate.  This module removes the walk: a checked
:class:`~repro.lang.ast.Program` is lowered to Python source, ``compile()``d
once, and executed as an ordinary function call per packet.

The generated function has **the same signature and semantics as**
:meth:`Interpreter.execute`::

    fn(packet, ctx, env) -> ExecutionResult

The same statements can be emitted a second time as an **inline fragment**
(:meth:`CompiledProgram.fragment`): straight-line source, no ``def``, that
the whole-tree kernel (:mod:`repro.lang.treekernel`) splices into its
generated walk.  The caller chooses the names of the fragment's inputs (the
packet, ``now``, the element's flow and length, dynamic parameters such as
``dequeued_rank``), of its outputs (``rank``, ``send_time``) and a per-node
prefix for everything else it binds.  A fragment keeps packet-field writes
in Python locals instead of the ``_pw`` dict, looks a static table up once,
and persists the written fields (all but ``rank`` / ``send_time``, as the
bridge does) after the body — nothing on an error.  Both targets come from
one :class:`_Codegen`, so they share the statements, the hoists and the
error replay below and cannot drift apart;
``tests/lang/test_compiler_equivalence.py`` holds them to the same outputs,
state and errors.

**When a program is not spliced.**  Locals instead of ``_pw`` need every
read to know, statically, whether its name is bound.  The emission walk is
also a forward definite-assignment pass (the language has only ``Assign``
and ``If``, no loops): a local read that some path reaches unassigned, a
packet field read (or persisted) that only some paths have written, leaves
the reason in :attr:`CompiledProgram.splice_blocker`; the kernel then calls
``execute`` and lists the program in ``TreeKernel.called_programs``.

Semantics preserved exactly:

* name resolution order (``now``/``p`` builtins, then locals, then state,
  then parameters) and the rule that assignments to state names mutate
  ``env.state`` in place while parameter assignment is an error;
* parameter constants are inlined as literals into the generated source
  (dynamic parameters — ``dequeued_rank`` on the dequeue path — stay
  late-bound through ``env.params``);
* ``flow_attrs`` / ``functions`` dispatch is late-bound through the
  environment, so one compiled function is shared by every transaction
  instance with the same program shape (see the cache below);
* packet-field reads observe earlier writes in the same execution, and the
  :class:`~repro.lang.interpreter.ExecutionResult` contract (``rank``,
  ``send_time``, ``packet_writes``, ``locals``) is identical;
* every :class:`~repro.lang.errors.RuntimeLangError` the interpreter raises
  is raised on the same inputs with the same message.

**Error fidelity without a slow path.**  The fast path contains no per-
operation error checks: generated code uses plain Python operators and lets
failures surface as raw exceptions (``ZeroDivisionError``, ``KeyError``,
``UnboundLocalError`` ...).  A single zero-cost ``try``/``except`` around
the body catches them, maps the failing generated line back to the source
statement, and **replays that one statement under the interpreter** with the
closure's live locals and packet writes — reproducing the interpreter's
exact :class:`RuntimeLangError` (message, line number and state effects;
statements before the failing one have already run, and the failing
statement raised before mutating program state, exactly as in the
interpreter).  One caveat: replay re-evaluates the failing *statement*, so
a registered user function with external side effects that ran before the
failure within that statement runs a second time — register pure functions
(as every bundled program does) if a program can raise at runtime.
Errors that are statically certain (assigning a parameter, subscripting an
undeclared state variable, calling an unknown function) are emitted as
direct ``raise`` sites with the interpreter's message, after evaluating
exactly the sub-expressions the interpreter would have evaluated first.

**The compile cache.**  ``compile_cached()`` memoises on the program AST
plus the *signature* of its environment: the state-variable names (and
whether each is statically known to stay a table), the inlined parameter
items and the dynamic parameter names.  Everything else — state values,
accessors, user functions — flows through ``env`` at call time, so two
transaction instances with the same program and configuration share one
code object while keeping fully independent state.
"""

from __future__ import annotations

import itertools
import linecache
import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    MutableMapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.packet import EMPTY_FIELDS
from ..core.transaction import TransactionContext
from .ast import (
    Assign,
    Attribute,
    BinOp,
    Boolean,
    BoolOp,
    Call,
    Compare,
    Expression,
    If,
    Membership,
    Name,
    Number,
    Program,
    Statement,
    Subscript,
    UnaryOp,
    format_node,
)
from .errors import LangError, RuntimeLangError
from .interpreter import (
    _BUILTIN_FUNCTIONS,
    _PACKET_BUILTIN_FIELDS,
    ExecutionResult,
    Interpreter,
    ProgramEnvironment,
    _Frame,
)


class CompileError(LangError):
    """Raised when a program uses a construct the compiler cannot lower.

    The bridge treats this as "fall back to the interpreter", so growing the
    language never breaks existing programs — they just run interpreted
    until the compiler catches up.
    """


_LOCAL_PREFIX = "_l_"
_ARG_PREFIX = "_a_"

_filename_counter = itertools.count()


def _checked_table(state: Mapping, name: str, line: int):
    """Runtime guard matching ``Interpreter._state_table``'s type check."""
    table = state[name]
    if not isinstance(table, MutableMapping) and not isinstance(table, dict):
        raise RuntimeLangError(
            f"state variable {name!r} is not a table and cannot be "
            "subscripted",
            line=line,
        )
    return table


def _contains(table, item) -> bool:
    """Membership with the interpreter's table-before-item evaluation order."""
    return item in table


def _raise_lang_error(message: str, line: int, *_evaluated: Any):
    """Raise a statically-known RuntimeLangError at runtime.

    ``*_evaluated`` exists so call sites can force evaluation of exactly the
    sub-expressions the interpreter would have evaluated before raising
    (for example the assigned value before a "cannot assign parameter"
    error).
    """
    raise RuntimeLangError(message, line=line)


def _with_params(env: ProgramEnvironment, **params: Any) -> ProgramEnvironment:
    """``env`` with ``params`` overlaid (a fragment's replay path: the
    dynamic parameters it was handed as expressions must be visible to the
    interpreter)."""
    return ProgramEnvironment(
        state=env.state,
        params={**env.params, **params},
        flow_attrs=env.flow_attrs,
        functions=env.functions,
    )


def _flow_of(element_flow, packet, *_args):
    """``flow(p)`` — args are evaluated (for side effects) then ignored,
    exactly as the interpreter does."""
    return element_flow or packet.flow


@dataclass(frozen=True)
class FragmentNames:
    """The names an inline fragment is emitted against.

    Every value is Python source.  ``flow`` and ``length`` stand for
    ``ctx.element_flow or packet.flow`` and ``ctx.element_length or
    packet.length`` — the caller folds the ``or`` when it knows the element
    value statically — and must be cheap, pure expressions: a program may
    read them several times.
    """

    #: Starts every name the fragment binds for itself (hoists, locals,
    #: written fields): unique per node, so two programs on one path never
    #: share a variable.
    prefix: str
    #: The :class:`CompiledProgram` being spliced (for the error replay).
    owner: str
    packet: str = "packet"
    now: str = "time_now"
    flow: str = "packet.flow"
    length: str = "length"
    #: Variables that receive ``p.rank`` / ``p.send_time`` (``None`` when
    #: never assigned).  A hook program's outputs are discarded: it leaves
    #: these unset and they become prefixed locals like any other field.
    rank: Optional[str] = None
    send_time: Optional[str] = None
    #: ``(dynamic parameter, expression)`` pairs.
    args: Tuple[Tuple[str, str], ...] = ()


class Fragment(NamedTuple):
    """A program as straight-line source, ready to splice."""

    #: Source lines, indented relative to the splice point.
    lines: List[str]
    #: Line index (0-based, into ``lines``) -> ``(statement, locals,
    #: fields)``: the statement that line runs, and the ``(name,
    #: variable)`` pairs of the locals and packet-field writes bound on
    #: every path that reaches it — what the replay hands the interpreter.
    line_map: Dict[int, Tuple[Statement, Tuple, Tuple]]


#: ``_tx``'s own names: context values hoisted out of ``ctx``, and a prefix
#: under which its locals are ``_LOCAL_PREFIX`` + name (``_replay`` scans
#: its frame for them).
_TX_NAMES = FragmentNames(
    prefix="_", owner="", now="_now",
    flow="(_ef or packet.flow)", length="(_el or packet.length)",
)


class _Codegen:
    """Lowers one ``Program`` to Python source plus a line→statement map.

    One emission walk serves both targets — the ``_tx`` function
    (:meth:`generate`) and an inline fragment (:meth:`generate_fragment`) —
    and doubles as the forward definite-assignment pass that decides
    whether the program can be a fragment at all (:attr:`splice_blocker`).
    """

    def __init__(
        self,
        program: Program,
        state: Mapping[str, Any],
        params: Mapping[str, Any],
        dynamic_params: Sequence[str],
        names: Optional[FragmentNames] = None,
    ) -> None:
        self.program = program
        #: Fragment target: fields live in locals, static tables are hoisted.
        self.inline = names is not None
        self.names = names or _TX_NAMES
        self.state_keys: Set[str] = set(state)
        #: Explicit dynamic parameters: read from ``env.params`` by ``_tx``,
        #: caller-supplied expressions in a fragment.
        self.arg_params: Tuple[str, ...] = tuple(dynamic_params)
        self.arg_exprs: Dict[str, str] = (
            dict(self.names.args) if self.inline
            else {name: f"{_ARG_PREFIX}{name}" for name in self.arg_params}
        )
        #: Parameters whose values cannot be inlined stay late-bound.
        self.dynamic_params: Set[str] = set()
        self.inline_params: Dict[str, Any] = {}
        for key, value in params.items():
            if key in self.arg_params:
                continue
            if _inlinable(value):
                self.inline_params[key] = value
            else:
                self.dynamic_params.add(key)
        self.param_keys = (
            set(self.inline_params) | self.dynamic_params | set(self.arg_params)
        )

        # Names assigned as plain locals somewhere in the program (Python
        # function scoping then matches the interpreter's flat local frame).
        self.local_names: Set[str] = set()
        # Packet fields the program writes (reads must check _pw first).
        self.written_fields: Set[str] = set()
        # State names whose whole value is reassigned (their table-ness can
        # change at runtime, so subscripts/membership need the type guard).
        reassigned_state: Set[str] = set()
        indexed: Set[str] = set()
        for node in program.walk():
            if isinstance(node, Subscript):
                indexed.add(node.obj)
            elif isinstance(node, Membership):
                indexed.add(node.table)
            elif isinstance(node, Assign):
                target = node.target
                if isinstance(target, Name):
                    if target.identifier in self.state_keys:
                        reassigned_state.add(target.identifier)
                    elif target.identifier not in self.param_keys:
                        self.local_names.add(target.identifier)
                elif isinstance(target, Attribute) and target.obj == "p":
                    self.written_fields.add(target.attribute)
        # State names statically guaranteed to hold a mapping for the whole
        # execution: initialised as one and never whole-name reassigned.
        self.static_tables: Set[str] = {
            key
            for key, value in state.items()
            if isinstance(value, (dict, MutableMapping))
            and key not in reassigned_state
        }
        #: A fragment looks these up once, ahead of its statements: the
        #: program never rebinds them.
        self.hoisted_tables: Set[str] = (
            self.static_tables & indexed if self.inline else set()
        )

        self.used_accessors: Set[str] = set()
        self.used_functions: Set[str] = set()
        self.used_arg_params: Set[str] = set()
        self.uses_now = False
        self.uses_element_flow = False
        self.uses_element_length = False
        self.uses_state = False
        self.uses_dynamic_params = False
        self.uses_packet_fields = False
        #: Whether the body touches ``packet`` at all (a hook program that
        #: does not can run on a PIFO reference without a stand-in packet).
        self.reads_packet = False

        # Definite-assignment state at the statement being emitted: locals
        # bound, and packet fields written (in first-write order), on every
        # path that reaches it.  A field only some paths wrote stays in
        # ``_maybe`` for good — a later write binds it, but the order the
        # bridge would persist it in still depends on the path.
        self._bound: Set[str] = set()
        self._written: List[str] = []
        self._maybe: Set[str] = set()
        #: Why the program cannot be an inline fragment (None: it can).
        self.splice_blocker: Optional[str] = None

        self.lines: List[str] = []
        self.line_map: Dict[int, Any] = {}

    # -- emission ----------------------------------------------------------
    def _emit(self, indent: int, text: str, statement: Optional[Statement] = None) -> None:
        self.lines.append("    " * indent + text)
        if statement is None:
            return
        if self.inline:
            self.line_map[len(self.lines)] = (
                statement,
                tuple((name, self._local(name)) for name in sorted(self._bound)),
                tuple((name, self._field(name)) for name in self._written),
            )
        else:
            self.line_map[len(self.lines)] = statement

    def _block(self, reason: str) -> None:
        if self.splice_blocker is None:
            self.splice_blocker = reason

    def _local(self, name: str) -> str:
        return f"{self.names.prefix}l_{name}"

    def _field(self, name: str) -> str:
        """The variable a fragment keeps written field ``name`` in."""
        output = {"rank": self.names.rank, "send_time": self.names.send_time}
        return output.get(name) or f"{self.names.prefix}w_{name}"

    def _emit_statements(self, indent: int) -> List[str]:
        """Emit the program's statements; returns them as their own list
        (emission discovers which hoists the prologue needs, so the body
        comes first and is moved into place afterwards)."""
        saved, self.lines = self.lines, []
        prefix = self.names.prefix
        for name in sorted(self.hoisted_tables):
            # Inside the replay guard with the statements: a state mapping
            # stripped of a declared table must not escape as a KeyError.
            self.uses_state = True
            self._emit(indent, f"{prefix}t_{name} = {prefix}st[{name!r}]")
        for statement in self.program.statements:
            self._statement(statement, indent)
        if not self.lines:
            self._emit(indent, "pass")
        body, self.lines = self.lines, saved
        if not self.arg_params:
            # A ranking program's writes are persisted after the body, in
            # first-write order: every path must agree on what they are.
            unsettled = self._maybe - {"rank", "send_time"}
            if unsettled:
                self._block(
                    f"packet field p.{min(unsettled)} is written on some "
                    "paths only"
                )
        return body

    def generate(self) -> str:
        """Emit ``_tx(packet, ctx, env)``, :meth:`Interpreter.execute`'s
        twin: it returns the full :class:`ExecutionResult`."""
        body_lines = self._emit_statements(2)
        body_map, self.line_map = self.line_map, {}

        self._emit(0, "def _tx(packet, ctx, env):")
        if self.uses_now:
            self._emit(1, "_now = ctx.now")
        if self.uses_element_flow:
            self._emit(1, "_ef = ctx.element_flow")
        if self.uses_element_length:
            self._emit(1, "_el = ctx.element_length")
        for name in self.arg_params:
            if name in self.used_arg_params:
                # Left unbound when missing: the read then replays to the
                # interpreter's "undefined name" error.
                self._emit(1, f"if {name!r} in env.params:")
                self._emit(2, f"{_ARG_PREFIX}{name} = env.params[{name!r}]")
        self._emit_hoists(1)
        self._emit(1, "_pw = {}")
        self._emit_guarded(1, body_lines, body_map,
                           "_replay(_exc, packet, ctx, env, locals())")
        # The locals the program bound on this path (an unbound one is
        # simply absent, as in the interpreter's frame).  Spelled out per
        # name: a ``locals()`` scan pays for every hoist above as well.
        self._emit(1, "_lc = {}")
        for name in sorted(self.local_names):
            self._emit(1, "try:")
            self._emit(2, f"_lc[{name!r}] = {self._local(name)}")
            self._emit(1, "except UnboundLocalError:")
            self._emit(2, "pass")
        self._emit(
            1,
            "return _Result(rank=_pw.get('rank'), send_time=_pw.get('send_time'), "
            "packet_writes=dict(_pw), locals=_lc)",
        )
        return "\n".join(self.lines) + "\n"

    def generate_fragment(self) -> Fragment:
        """Emit the program as straight-line source against ``self.names``.

        A ranking program leaves its outputs in ``names.rank`` /
        ``names.send_time`` (``None`` when it did not assign them) and
        persists its other packet-field writes after the body, as the
        bridge does; a hook program — one compiled with explicit dynamic
        parameters, i.e. the dequeue side — only updates state, as
        ``on_dequeue`` discards its result.
        """
        names = self.names
        body_lines = self._emit_statements(1)
        body_map, self.line_map = self.line_map, {}
        if self.splice_blocker is not None:
            raise CompileError(
                f"program cannot be an inline fragment: {self.splice_blocker}"
            )

        self._emit_hoists(0)
        for name, variable in (("rank", names.rank),
                               ("send_time", names.send_time)):
            if variable is not None and name not in self._written:
                self._emit(0, f"{variable} = None")
        replay_env = "env"
        if names.args:
            overlay = ", ".join(f"{name}={expr}" for name, expr in names.args)
            replay_env = f"_with_params(env, {overlay})"
        self._emit_guarded(
            0, body_lines, body_map,
            f"_replay(_exc, {names.owner}, {names.packet}, "
            f"_Ctx(now={names.now}, element_flow={names.flow}, "
            f"element_length={names.length}), {replay_env}, locals())",
        )
        persisted = [name for name in self._written
                     if name not in ("rank", "send_time")]
        if persisted and not self.arg_params:
            # Packet.set, inlined for all of them at once.
            self._emit(0, f"fields = {names.packet}.fields")
            self._emit(0, "if fields is _EMPTY_FIELDS:")
            items = ", ".join(f"{name!r}: {self._field(name)}"
                              for name in persisted)
            self._emit(1, f"{names.packet}.fields = {{{items}}}")
            self._emit(0, "else:")
            for name in persisted:
                self._emit(1, f"fields[{name!r}] = {self._field(name)}")
        return Fragment(
            self.lines,
            {line - 1: entry for line, entry in self.line_map.items()},
        )

    def _emit_hoists(self, indent: int) -> None:
        """Per-call reads of the environment both targets start with."""
        prefix = self.names.prefix
        if self.uses_state:
            self._emit(indent, f"{prefix}st = env.state")
        if self.uses_dynamic_params:
            self._emit(indent, f"{prefix}pr = env.params")
        if self.uses_packet_fields:
            self._emit(indent, f"{prefix}pf = {self.names.packet}.fields")
        for attr in sorted(self.used_accessors):
            self._emit(indent,
                       f"{prefix}fa_{attr} = env.flow_attrs.get({attr!r})")
        for fn in sorted(self.used_functions):
            override = f"{prefix}f_{fn} = env.functions.get({fn!r})"
            if fn in _BUILTIN_FUNCTIONS:
                override += f" or _b_{fn}"
            self._emit(indent, override)

    def _emit_guarded(self, indent: int, body_lines: List[str],
                      body_map: Dict[int, Any], replay_call: str) -> None:
        """The body inside the replay guard (see "Error fidelity")."""
        self._emit(indent, "try:")
        offset = len(self.lines)
        self.lines.extend(body_lines)
        for lineno, entry in body_map.items():
            self.line_map[lineno + offset] = entry
        self._emit(indent, "except Exception as _exc:")
        self._emit(indent + 1, replay_call)
        self._emit(indent + 1, "raise")

    # -- statements --------------------------------------------------------
    def _statement(self, statement: Statement, indent: int) -> None:
        if isinstance(statement, Assign):
            self._assign(statement, indent)
            return
        if isinstance(statement, If):
            self._emit(indent, f"if {self._expr(statement.condition)}:", statement)
            bound, written = set(self._bound), list(self._written)
            for inner in statement.body:
                self._statement(inner, indent + 1)
            then_bound, then_written = self._bound, self._written
            self._bound, self._written = bound, written
            if statement.orelse:
                self._emit(indent, "else:")
                for inner in statement.orelse:
                    self._statement(inner, indent + 1)
            # Merge: bound on both branches; written on both, in one order.
            self._bound &= then_bound
            agreed = 0
            for ours, theirs in zip(self._written, then_written):
                if ours != theirs:
                    break
                agreed += 1
            self._maybe.update(self._written[agreed:], then_written[agreed:])
            del self._written[agreed:]
            return
        raise CompileError(
            f"unsupported statement {statement!r}", line=statement.line
        )

    def _assign(self, statement: Assign, indent: int) -> None:
        value = self._expr(statement.value)
        target = statement.target
        if isinstance(target, Attribute):
            if target.obj != "p":
                self._emit_static_error(
                    indent,
                    statement,
                    "can only assign to packet fields (p.*), not "
                    f"{format_node(target)!r}",
                    target.line,
                    value,
                )
                return
            name = target.attribute
            store = self._field(name) if self.inline else f"_pw[{name!r}]"
            self._emit(indent, f"{store} = {value}", statement)
            if name not in self._written and name not in self._maybe:
                self._written.append(name)
            return
        if isinstance(target, Subscript):
            if target.obj not in self.state_keys:
                self._emit_static_error(
                    indent,
                    statement,
                    f"{target.obj!r} is not a declared state variable "
                    "(per-flow tables must be declared in the program's "
                    "initial state)",
                    target.line,
                    value,
                )
                return
            table = self._table(target.obj, target.line)
            key = self._expr(target.index)
            self._emit(indent, f"{table}[{key}] = {value}", statement)
            return
        if isinstance(target, Name):
            name = target.identifier
            if name in self.state_keys:
                self.uses_state = True
                self._emit(indent, f"{self.names.prefix}st[{name!r}] = {value}",
                           statement)
                return
            if name in self.param_keys:
                self._emit_static_error(
                    indent,
                    statement,
                    f"{name!r} is a parameter and cannot be assigned",
                    target.line,
                    value,
                )
                return
            self._emit(indent, f"{self._local(name)} = {value}", statement)
            self._bound.add(name)
            return
        raise CompileError(
            f"unsupported assignment target {target!r}", line=statement.line
        )

    def _emit_static_error(
        self,
        indent: int,
        statement: Statement,
        message: str,
        line: int,
        *evaluated: str,
    ) -> None:
        """A statement that always fails: evaluate what the interpreter
        would have evaluated, then raise its exact error."""
        args = "".join(f", {expr}" for expr in evaluated)
        self._emit(indent, f"_rte({message!r}, {line}{args})", statement)

    # -- expressions -------------------------------------------------------
    def _expr(self, expr: Expression) -> str:
        if isinstance(expr, Number):
            return repr(expr.value)
        if isinstance(expr, Boolean):
            return "True" if expr.value else "False"
        if isinstance(expr, Name):
            return self._name(expr.identifier, expr.line)
        if isinstance(expr, Attribute):
            return self._attribute(expr)
        if isinstance(expr, Subscript):
            if expr.obj not in self.state_keys:
                return self._static_error_expr(
                    f"{expr.obj!r} is not a declared state variable "
                    "(per-flow tables must be declared in the program's "
                    "initial state)",
                    expr.line,
                )
            return f"{self._table(expr.obj, expr.line)}[{self._expr(expr.index)}]"
        if isinstance(expr, Call):
            return self._call(expr)
        if isinstance(expr, UnaryOp):
            operand = self._expr(expr.operand)
            if expr.operator == "-":
                return f"(-{operand})"
            return f"(not {operand})"
        if isinstance(expr, BinOp):
            return f"({self._expr(expr.left)} {expr.operator} {self._expr(expr.right)})"
        if isinstance(expr, Compare):
            return f"({self._expr(expr.left)} {expr.operator} {self._expr(expr.right)})"
        if isinstance(expr, BoolOp):
            joiner = f" {expr.operator} "
            return "(" + joiner.join(self._expr(op) for op in expr.operands) + ")"
        if isinstance(expr, Membership):
            return self._membership(expr)
        raise CompileError(
            f"unsupported expression {expr!r}", line=getattr(expr, "line", 0)
        )

    def _name(self, name: str, line: int) -> str:
        # Resolution order matches Interpreter._read_name: now / p first,
        # then locals, then state, then parameters.
        if name == "now":
            self.uses_now = True
            return self.names.now
        if name == "p":
            self.reads_packet = True
            return self.names.packet
        if name in self.local_names:
            # Reading before any assignment ran raises UnboundLocalError,
            # which the replay turns into the interpreter's "undefined
            # name" error — in ``_tx``, whose locals are fresh per call.
            if name not in self._bound:
                self._block(
                    f"local {name!r} may be read before it is assigned "
                    f"(line {line})"
                )
            return self._local(name)
        if name in self.state_keys:
            self.uses_state = True
            return f"{self.names.prefix}st[{name!r}]"
        if name in self.inline_params:
            return repr(self.inline_params[name])
        if name in self.dynamic_params:
            self.uses_dynamic_params = True
            return f"{self.names.prefix}pr[{name!r}]"
        if name in self.arg_params:
            self.used_arg_params.add(name)
            return self.arg_exprs[name]
        return self._static_error_expr(
            f"undefined name {name!r} (not a local, state variable, "
            "parameter or builtin)",
            line,
        )

    def _attribute(self, expr: Attribute) -> str:
        if expr.obj == "p":
            return self._packet_field(expr)
        # ``f.weight``: late-bound accessor; a missing accessor surfaces as
        # "None is not callable" and replays to the interpreter's error,
        # which also matches the interpreter's accessor-before-owner order
        # because the owner is only evaluated at the call site.
        self.used_accessors.add(expr.attribute)
        owner = self._name(expr.obj, expr.line)
        return f"{self.names.prefix}fa_{expr.attribute}({owner})"

    def _packet_field(self, expr: Attribute) -> str:
        name = expr.attribute
        names = self.names
        self.reads_packet = True
        written = name in self.written_fields
        if written:
            # Reads observe earlier writes in the same execution.
            if name in self._maybe:
                self._block(
                    f"p.{name} is read where only some paths have written "
                    f"it (line {expr.line})"
                )
            if self.inline and name in self._written:
                return self._field(name)
        # Mirrors ``_PACKET_BUILTIN_FIELDS`` in the interpreter.
        if name == "flow":
            self.uses_element_flow = True
            fallback = names.flow
        elif name in ("length", "size"):
            self.uses_element_length = True
            fallback = names.length
        elif name in _PACKET_BUILTIN_FIELDS:
            attribute = "packet_class" if name == "class" else name
            fallback = f"{names.packet}.{attribute}"
        else:
            self.uses_packet_fields = True
            fallback = f"{names.prefix}pf[{name!r}]"
        if written and not self.inline:
            return f"(_pw[{name!r}] if {name!r} in _pw else {fallback})"
        return fallback

    def _call(self, expr: Call) -> str:
        args = ", ".join(self._expr(arg) for arg in expr.args)
        if expr.function == "flow":
            # ``flow(p)`` always resolves to the element flow, shadowing any
            # registered function of the same name — as the interpreter does.
            # When every argument is side-effect free (cannot raise, calls
            # nothing) the call is inlined away entirely; otherwise the
            # arguments are still evaluated first, as the interpreter does.
            self.reads_packet = True
            self.uses_element_flow = True
            if all(self._effect_free(arg) for arg in expr.args):
                return self.names.flow
            return (f"_flow({self.names.flow}, {self.names.packet}"
                    f"{', ' + args if args else ''})")
        name = expr.function
        if not name.isidentifier():  # pragma: no cover - lexer prevents this
            raise CompileError(f"invalid function name {name!r}", line=expr.line)
        self.used_functions.add(name)
        return f"{self.names.prefix}f_{name}({args})"

    def _effect_free(self, expr: Expression) -> bool:
        """True when evaluating ``expr`` can neither raise nor call code."""
        if isinstance(expr, (Number, Boolean)):
            return True
        if isinstance(expr, Name):
            name = expr.identifier
            if name in ("now", "p"):
                return True
            # Local reads can raise UnboundLocalError; state and inlined
            # parameter reads cannot fail.
            return name not in self.local_names and (
                name in self.state_keys or name in self.inline_params
            )
        return False

    def _table(self, name: str, line: int) -> str:
        self.uses_state = True
        prefix = self.names.prefix
        if name not in self.static_tables:
            return f"_tbl({prefix}st, {name!r}, {line})"
        if name in self.hoisted_tables:
            return f"{prefix}t_{name}"
        return f"{prefix}st[{name!r}]"

    def _membership(self, expr: Membership) -> str:
        if expr.table not in self.state_keys:
            return self._static_error_expr(
                f"{expr.table!r} is not a declared state variable "
                "(per-flow tables must be declared in the program's "
                "initial state)",
                expr.line,
            )
        item = self._expr(expr.item)
        if expr.table in self.static_tables:
            op = "not in" if expr.negated else "in"
            return f"({item} {op} {self._table(expr.table, expr.line)})"
        # Guarded path evaluates the table (and its type check) before the
        # item, matching Interpreter._eval's order for Membership.
        test = f"_in({self._table(expr.table, expr.line)}, {item})"
        return f"(not {test})" if expr.negated else test

    def _static_error_expr(self, message: str, line: int) -> str:
        return f"_rte({message!r}, {line})"


def _inlinable(value: Any) -> bool:
    """Can ``value`` be embedded as a literal in generated source?"""
    if value is None or isinstance(value, (bool, int, str)):
        return True
    if isinstance(value, float):
        return math.isfinite(value)
    return False


#: What generated code — ``_tx`` here, a fragment in its host kernel —
#: expects in its globals besides a ``_replay`` bound to its own line map.
RUNTIME_GLOBALS: Dict[str, Any] = {
    "_Ctx": TransactionContext,
    "_with_params": _with_params,
    "_rte": _raise_lang_error,
    "_tbl": _checked_table,
    "_in": _contains,
    "_flow": _flow_of,
    "_EMPTY_FIELDS": EMPTY_FIELDS,
    **{f"_b_{name}": fn for name, fn in _BUILTIN_FUNCTIONS.items()},
}


class CompiledProgram:
    """A program lowered to native Python.

    ``execute`` has exactly the signature and contract of
    :meth:`Interpreter.execute`; the bridge can swap one for the other.
    :meth:`fragment` emits the same statements as straight-line source for
    the tree kernel to splice, unless :attr:`splice_blocker` says why not.
    """

    def __init__(self, program: Program, name: str = "program",
                 state: Optional[Mapping[str, Any]] = None,
                 params: Optional[Mapping[str, Any]] = None,
                 dynamic_params: Sequence[str] = ()) -> None:
        self.program = program
        self.name = name
        # Snapshots: a fragment generated later must specialise on what
        # ``_tx`` did, whatever the caller has done to its mappings since.
        self._codegen_args = (program, dict(state or {}), dict(params or {}),
                              tuple(dynamic_params))
        #: Fragments by the names they were emitted against: kernels of
        #: different shapes splice the same few programs at the same nodes.
        self._fragments: Dict[FragmentNames, Fragment] = {}
        codegen = _Codegen(*self._codegen_args)
        self.source_text = codegen.generate()
        self._line_map = codegen.line_map
        #: Why the tree kernel must call ``execute`` instead of splicing
        #: :meth:`fragment` (None: it can splice).
        self.splice_blocker: Optional[str] = codegen.splice_blocker
        #: The :func:`compile_cached` key, i.e. everything the generated
        #: code depends on (None for an uncached program).
        self.key: Optional[Tuple] = None
        filename = f"<lang-compile:{name}#{next(_filename_counter)}>"
        self.filename = filename
        # Register with linecache so tracebacks through generated code show
        # real source lines; the entry lives exactly as long as this program
        # (sweeping many parameterizations must not grow memory unboundedly).
        linecache.cache[filename] = (
            len(self.source_text),
            None,
            self.source_text.splitlines(True),
            filename,
        )
        weakref.finalize(self, linecache.cache.pop, filename, None)
        namespace: Dict[str, Any] = dict(
            RUNTIME_GLOBALS, _Result=ExecutionResult, _replay=self._replay)
        try:
            code = compile(self.source_text, filename, "exec")
        except SyntaxError as exc:  # pragma: no cover - codegen bug guard
            raise CompileError(
                f"generated code for {name!r} failed to compile: {exc}"
            ) from exc
        exec(code, namespace)
        self.execute = namespace["_tx"]
        #: False when the program never touches the packet, so a hook can
        #: run on a PIFO reference with ``packet=None``.
        self.reads_packet = codegen.reads_packet

    def fragment(self, names: FragmentNames) -> Fragment:
        """The program as an inline fragment emitted against ``names``."""
        fragment = self._fragments.get(names)
        if fragment is None:
            fragment = self._fragments[names] = _Codegen(
                *self._codegen_args, names=names).generate_fragment()
        return fragment

    # -- error replay ------------------------------------------------------
    def _replay(self, exc, packet, ctx, env, frame_locals,
                line_map=None) -> None:
        """Re-run the failing statement under the interpreter.

        The fast path mutated state exactly as the interpreter would have up
        to (but not including) the failing statement, so replaying just that
        statement with the closure's live locals and packet writes raises
        the interpreter's exact :class:`RuntimeLangError`.

        ``line_map`` is the host kernel's when the failure was in a spliced
        fragment: its entries also name the variables holding the locals
        and packet writes bound at that statement (anything else in the
        host's frame may be left over from another packet).
        """
        if isinstance(exc, LangError):
            return  # raised as the interpreter's error already: re-raised as is
        tb = exc.__traceback__
        lineno = tb.tb_lineno if tb is not None else None
        if line_map is not None:
            statement, local_vars, field_vars = line_map.get(
                lineno, (None, (), ()))
            local_values = {name: frame_locals[var] for name, var in local_vars}
            packet_writes = {name: frame_locals[var] for name, var in field_vars}
        else:
            statement = self._line_map.get(lineno)
            prefix = len(_LOCAL_PREFIX)
            local_values = {
                key[prefix:]: value
                for key, value in frame_locals.items()
                if key[:prefix] == _LOCAL_PREFIX
            }
            packet_writes = frame_locals.get("_pw", {})
        if statement is None:
            raise RuntimeLangError(
                f"compiled program {self.name!r} failed: {exc}"
            ) from exc
        frame = _Frame(packet=packet, ctx=ctx, env=env, locals=local_values,
                       packet_writes=packet_writes)
        Interpreter(self.program)._exec_statement(statement, frame)
        # The replay did not fail — the raw error came from somewhere the
        # interpreter guards differently; wrap it rather than lose it.
        raise RuntimeLangError(
            f"compiled program {self.name!r} failed: {exc}"
        ) from exc

    def describe(self) -> str:
        return f"CompiledProgram({self.name!r}, {len(self._line_map)} statements)"


def compile_program(
    program: Program,
    *,
    state: Optional[Mapping[str, Any]] = None,
    params: Optional[Mapping[str, Any]] = None,
    dynamic_params: Sequence[str] = (),
    name: str = "program",
) -> CompiledProgram:
    """Lower ``program`` to a native closure (no caching)."""
    return CompiledProgram(
        program, name=name, state=state, params=params,
        dynamic_params=dynamic_params,
    )


# --------------------------------------------------------------------------- #
# Compile cache                                                               #
# --------------------------------------------------------------------------- #
#: LRU capacity: far above any bundled workload (a tree reuses a handful of
#: programs) while bounding memory when a sweep compiles many distinct
#: parameterizations.  Evicted programs stay alive — and keep their linecache
#: entries — only as long as a transaction still references them.
_CACHE_CAPACITY = 256

_cache: "OrderedDict[Tuple, CompiledProgram]" = OrderedDict()
_cache_hits = 0
_cache_misses = 0


def _signature(
    program: Program,
    state: Mapping[str, Any],
    params: Mapping[str, Any],
    dynamic_params: Sequence[str],
) -> Tuple:
    """Cache key: the AST plus everything codegen specialises on."""
    reassigned = {
        node.target.identifier
        for node in program.walk()
        if isinstance(node, Assign) and isinstance(node.target, Name)
    }
    state_sig = tuple(
        sorted(
            (key, isinstance(value, (dict, MutableMapping)) and key not in reassigned)
            for key, value in state.items()
        )
    )
    late_bound = set()
    inline_items = []
    for key, value in params.items():
        if key in dynamic_params:
            continue
        if _inlinable(value):
            inline_items.append((key, type(value).__name__, value))
        else:
            late_bound.add(key)
    return (
        program,
        state_sig,
        tuple(sorted(inline_items)),
        tuple(dynamic_params),
        tuple(sorted(late_bound)),
    )


def compile_cached(
    program: Program,
    *,
    state: Optional[Mapping[str, Any]] = None,
    params: Optional[Mapping[str, Any]] = None,
    dynamic_params: Sequence[str] = (),
    name: str = "program",
) -> CompiledProgram:
    """Compile with memoisation on (AST, state signature, param signature).

    Transaction instances sharing a program and configuration reuse one
    generated function; per-instance state stays isolated because all
    mutable data flows through ``env`` at call time.
    """
    global _cache_hits, _cache_misses
    state = state or {}
    params = params or {}
    try:
        key = _signature(program, state, params, dynamic_params)
        cached = _cache.get(key)
    except TypeError:
        # Unhashable parameter value — compile without caching.
        return compile_program(
            program, state=state, params=params,
            dynamic_params=dynamic_params, name=name,
        )
    if cached is not None:
        _cache_hits += 1
        _cache.move_to_end(key)
        return cached
    _cache_misses += 1
    compiled = compile_program(
        program, state=state, params=params,
        dynamic_params=dynamic_params, name=name,
    )
    compiled.key = key
    _cache[key] = compiled
    while len(_cache) > _CACHE_CAPACITY:
        _cache.popitem(last=False)
    return compiled


def compile_cache_info() -> Dict[str, int]:
    """Cache statistics (for tests and diagnostics)."""
    return {"size": len(_cache), "hits": _cache_hits, "misses": _cache_misses}


def clear_compile_cache() -> None:
    """Drop every cached compiled program (tests use this for isolation)."""
    global _cache_hits, _cache_misses
    _cache.clear()
    _cache_hits = 0
    _cache_misses = 0
