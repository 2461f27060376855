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

The same body is emitted a second time behind a **lean entry** for callers
that want the outputs and nothing else (the whole-tree kernel,
:mod:`repro.lang.treekernel`)::

    lean(packet, now, element_flow, element_length, env) -> (rank, send_time)

It takes the three context values a program can read instead of a context
object, persists the packet-field writes the bridge would have persisted,
and skips the :class:`ExecutionResult` — whose ``dict(_pw)`` copy and
``locals()`` scan cost several times the statements themselves.  Both
entries share the statements, the hoists and the error replay below, so
they cannot drift apart; ``tests/lang/test_compiler_equivalence.py`` holds
them to the same outputs, state and errors.

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
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

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


#: Python source rendered for each packet builtin field (mirrors
#: ``_PACKET_BUILTIN_FIELDS`` in the interpreter).
_PACKET_FIELD_SOURCE = {
    "length": "(_el or packet.length)",
    "size": "(_el or packet.length)",
    "flow": "(_ef or packet.flow)",
    "arrival_time": "packet.arrival_time",
    "class": "packet.packet_class",
    "priority": "packet.priority",
}

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
    """``env`` with ``params`` overlaid (the lean entry's replay path: its
    argument parameters must be visible to the interpreter)."""
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


class _Codegen:
    """Lowers one ``Program`` to Python source plus a line→statement map."""

    def __init__(
        self,
        program: Program,
        state: Mapping[str, Any],
        params: Mapping[str, Any],
        dynamic_params: Sequence[str],
    ) -> None:
        self.program = program
        self.state_keys: Set[str] = set(state)
        #: Explicit dynamic parameters: positional arguments of the lean
        #: entry, read from ``env.params`` by the full one.
        self.arg_params: Tuple[str, ...] = tuple(dynamic_params)
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
        for node in program.walk():
            if isinstance(node, Assign):
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

        self.lines: List[str] = []
        self.line_map: Dict[int, Statement] = {}

    # -- emission ----------------------------------------------------------
    def _emit(self, indent: int, text: str, statement: Optional[Statement] = None) -> None:
        self.lines.append("    " * indent + text)
        if statement is not None:
            self.line_map[len(self.lines)] = statement

    def generate(self) -> str:
        """Emit both entries around one body.

        ``_tx(packet, ctx, env)`` is :meth:`Interpreter.execute`'s twin and
        returns the full :class:`ExecutionResult`.  ``_lean(packet, now,
        element_flow, element_length, env, *arg_params)`` takes the three
        context values a program can read instead of a context object and
        builds no result: a ranking program persists its packet-field
        writes (all but ``rank`` / ``send_time``, as the bridge does) and
        returns ``(rank, send_time)``; a hook program — one compiled with
        explicit dynamic parameters, i.e. the dequeue side — only updates
        state, as ``on_dequeue`` discards its result.
        """
        body_lines: List[str] = []
        saved = self.lines
        self.lines = body_lines
        # Body first: emission discovers which prologue hoists are needed.
        for statement in self.program.statements:
            self._statement(statement, 2)
        if not body_lines:
            self._emit(2, "pass")
        self.lines = saved
        body_map = self.line_map
        self.line_map = {}

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
        self._emit_body(body_lines, body_map, "ctx", "env")
        # The locals the program bound on this path (an unbound one is
        # simply absent, as in the interpreter's frame).  Spelled out per
        # name: a ``locals()`` scan pays for every hoist above as well.
        self._emit(1, "_lc = {}")
        for name in sorted(self.local_names):
            self._emit(1, "try:")
            self._emit(2, f"_lc[{name!r}] = {_LOCAL_PREFIX}{name}")
            self._emit(1, "except UnboundLocalError:")
            self._emit(2, "pass")
        self._emit(
            1,
            "return _Result(rank=_pw.get('rank'), send_time=_pw.get('send_time'), "
            "packet_writes=dict(_pw), locals=_lc)",
        )

        args = "".join(f", {_ARG_PREFIX}{name}" for name in self.arg_params)
        self._emit(0, f"def _lean(packet, _now, _ef, _el, env{args}):")
        replay_env = "env"
        if self.arg_params:
            overlay = ", ".join(
                f"{name}={_ARG_PREFIX}{name}" for name in self.arg_params
            )
            replay_env = f"_with_params(env, {overlay})"
        self._emit_body(
            body_lines, body_map,
            "_Ctx(now=_now, element_flow=_ef, element_length=_el)", replay_env,
        )
        if not self.arg_params:
            if self.written_fields - {"rank", "send_time"}:
                self._emit(1, "for _n, _v in _pw.items():")
                self._emit(2, "if _n != 'rank' and _n != 'send_time':")
                self._emit(3, "packet.set(_n, _v)")
            outputs = ", ".join(
                f"_pw.get({name!r})" if name in self.written_fields else "None"
                for name in ("rank", "send_time")
            )
            self._emit(1, f"return {outputs}")
        return "\n".join(self.lines) + "\n"

    def _emit_body(self, body_lines: List[str], body_map: Dict[int, Statement],
                   ctx_expr: str, env_expr: str) -> None:
        """The part both entries share: hoists, the body, the replay guard."""
        if self.uses_state:
            self._emit(1, "_st = env.state")
        if self.uses_dynamic_params:
            self._emit(1, "_pr = env.params")
        if self.uses_packet_fields:
            self._emit(1, "_pf = packet.fields")
        for attr in sorted(self.used_accessors):
            self._emit(1, f"_fa_{attr} = env.flow_attrs.get({attr!r})")
        for fn in sorted(self.used_functions):
            if fn in _BUILTIN_FUNCTIONS:
                self._emit(1, f"_f_{fn} = env.functions.get({fn!r}) or _b_{fn}")
            else:
                self._emit(1, f"_f_{fn} = env.functions.get({fn!r})")
        self._emit(1, "_pw = {}")
        self._emit(1, "try:")
        offset = len(self.lines)
        self.lines.extend(body_lines)
        for lineno, stmt in body_map.items():
            self.line_map[lineno + offset] = stmt
        self._emit(1, "except _LangError:")
        self._emit(2, "raise")
        self._emit(1, "except Exception as _exc:")
        self._emit(2, f"_replay(_exc, packet, {ctx_expr}, {env_expr}, locals())")
        self._emit(2, "raise")

    # -- statements --------------------------------------------------------
    def _statement(self, statement: Statement, indent: int) -> None:
        if isinstance(statement, Assign):
            self._assign(statement, indent)
            return
        if isinstance(statement, If):
            self._emit(indent, f"if {self._expr(statement.condition)}:", statement)
            for inner in statement.body:
                self._statement(inner, indent + 1)
            if statement.orelse:
                self._emit(indent, "else:")
                for inner in statement.orelse:
                    self._statement(inner, indent + 1)
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
            self._emit(indent, f"_pw[{target.attribute!r}] = {value}", statement)
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
                self._emit(indent, f"_st[{name!r}] = {value}", statement)
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
            self._emit(indent, f"{_LOCAL_PREFIX}{name} = {value}", statement)
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
            return "_now"
        if name == "p":
            self.reads_packet = True
            return "packet"
        if name in self.local_names:
            # Reading before any assignment ran raises UnboundLocalError,
            # which the replay turns into the interpreter's "undefined
            # name" error.
            return f"{_LOCAL_PREFIX}{name}"
        if name in self.state_keys:
            self.uses_state = True
            return f"_st[{name!r}]"
        if name in self.inline_params:
            return repr(self.inline_params[name])
        if name in self.dynamic_params:
            self.uses_dynamic_params = True
            return f"_pr[{name!r}]"
        if name in self.arg_params:
            self.used_arg_params.add(name)
            return f"{_ARG_PREFIX}{name}"
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
        return f"_fa_{expr.attribute}({owner})"

    def _packet_field(self, expr: Attribute) -> str:
        name = expr.attribute
        self.reads_packet = True
        builtin = _PACKET_FIELD_SOURCE.get(name)
        if builtin is None:
            self.uses_packet_fields = True
            fallback = f"_pf[{name!r}]"
        else:
            if name == "flow":
                self.uses_element_flow = True
            elif name in ("length", "size"):
                self.uses_element_length = True
            fallback = builtin
        if name in self.written_fields:
            # Reads observe earlier writes in the same execution.
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
                return "(_ef or packet.flow)"
            return f"_flow(_ef, packet{', ' + args if args else ''})"
        name = expr.function
        if not name.isidentifier():  # pragma: no cover - lexer prevents this
            raise CompileError(f"invalid function name {name!r}", line=expr.line)
        self.used_functions.add(name)
        return f"_f_{name}({args})"

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
        if name in self.static_tables:
            return f"_st[{name!r}]"
        return f"_tbl(_st, {name!r}, {line})"

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
            self.uses_state = True
            op = "not in" if expr.negated else "in"
            return f"({item} {op} _st[{expr.table!r}])"
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


class CompiledProgram:
    """A program lowered to native Python: one body, two entries.

    ``execute`` has exactly the signature and contract of
    :meth:`Interpreter.execute`; the bridge can swap one for the other.
    ``lean`` runs the same statements without building a result.
    """

    def __init__(self, program: Program, name: str = "program",
                 state: Optional[Mapping[str, Any]] = None,
                 params: Optional[Mapping[str, Any]] = None,
                 dynamic_params: Sequence[str] = ()) -> None:
        self.program = program
        self.name = name
        codegen = _Codegen(
            program, state or {}, params or {}, dynamic_params
        )
        self.source_text = codegen.generate()
        self._line_map = codegen.line_map
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
        namespace: Dict[str, Any] = {
            "_Result": ExecutionResult,
            "_Ctx": TransactionContext,
            "_with_params": _with_params,
            "_LangError": LangError,
            "_replay": self._replay,
            "_rte": _raise_lang_error,
            "_tbl": _checked_table,
            "_in": _contains,
            "_flow": _flow_of,
        }
        for fn_name, fn in _BUILTIN_FUNCTIONS.items():
            namespace[f"_b_{fn_name}"] = fn
        try:
            code = compile(self.source_text, filename, "exec")
        except SyntaxError as exc:  # pragma: no cover - codegen bug guard
            raise CompileError(
                f"generated code for {name!r} failed to compile: {exc}"
            ) from exc
        exec(code, namespace)
        self.execute = namespace["_tx"]
        #: The result-free entry the tree kernel calls (see
        #: :meth:`_Codegen.generate` for its contract).
        self.lean = namespace["_lean"]
        #: False when the program never touches the packet, so a hook can
        #: run on a PIFO reference with ``packet=None``.
        self.reads_packet = codegen.reads_packet

    # -- error replay ------------------------------------------------------
    def _replay(self, exc, packet, ctx, env, frame_locals) -> None:
        """Re-run the failing statement under the interpreter.

        The fast path mutated state exactly as the interpreter would have up
        to (but not including) the failing statement, so replaying just that
        statement with the closure's live locals and packet writes raises
        the interpreter's exact :class:`RuntimeLangError`.
        """
        tb = exc.__traceback__
        statement = self._line_map.get(tb.tb_lineno) if tb is not None else None
        if statement is None:
            raise RuntimeLangError(
                f"compiled program {self.name!r} failed: {exc}"
            ) from exc
        prefix = len(_LOCAL_PREFIX)
        frame = _Frame(
            packet=packet,
            ctx=ctx,
            env=env,
            locals={
                key[prefix:]: value
                for key, value in frame_locals.items()
                if key[:prefix] == _LOCAL_PREFIX
            },
            packet_writes=frame_locals.get("_pw", {}),
        )
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
