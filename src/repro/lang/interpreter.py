"""Interpreter for the transaction language.

A program executes once per packet, exactly like a scheduling or shaping
transaction: it reads packet fields (``p.x``), the wall clock (``now``),
named parameters (rates, burst sizes, frame lengths), and the transaction's
persistent *state variables*; it writes packet fields — in particular
``p.rank`` and ``p.send_time`` — and state variables.

Name resolution mirrors how the paper's figures read:

1. ``p`` is the packet; ``now`` is the wall clock.
2. A bare name that was declared as a state variable reads/writes that state.
3. A bare name present in the parameter mapping is a constant for the run
   (``r``, ``B``, ``T``, ``min_rate``, ``BURST_SIZE`` ...).  Assigning to a
   parameter is an error — parameters are configuration, not state.
4. Any other assigned name is a local, scoped to the current execution
   (``f`` in Figure 1).

``f.weight`` style attribute reads on a local holding a flow identifier are
resolved through the environment's ``flow_attrs`` accessors, mirroring how a
real switch would look up per-flow configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, MutableMapping, Optional, Tuple

from ..core.packet import Packet
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
from .errors import RuntimeLangError

#: Packet attributes a program may read directly (everything else is looked
#: up in the packet's free-form ``fields`` mapping).  ``size`` is accepted as
#: an alias for ``length`` because Figure 8 uses ``p.size``.
_PACKET_BUILTIN_FIELDS = {
    "length": lambda packet, ctx: ctx.element_length or packet.length,
    "size": lambda packet, ctx: ctx.element_length or packet.length,
    "flow": lambda packet, ctx: ctx.element_flow or packet.flow,
    "arrival_time": lambda packet, ctx: packet.arrival_time,
    "class": lambda packet, ctx: packet.packet_class,
    "priority": lambda packet, ctx: packet.priority,
}

#: Header fields a switch or an upstream hop stamps for the next hop: the
#: previous hops' wait (Section 3.1; Figure 6's LSTF reads it), and Jitter-EDD's
#: jitter slack and per-hop delay bound (Section 3.4).  A packet nothing has
#: stamped yet reads the default, as an unset header field reads zero.
_PACKET_FIELD_DEFAULTS = {
    "prev_wait_time": 0.0,
    "jitter_slack": 0.0,
    "delay_bound": 0.0,
}


@dataclass
class ProgramEnvironment:
    """Everything a program execution may read besides the packet.

    Attributes
    ----------
    state:
        The transaction's persistent state variables.  The mapping is
        mutated in place by assignments to declared state names.
    params:
        Read-only named constants (rates, burst sizes, frame lengths).
    flow_attrs:
        Accessors for ``<local>.<attr>`` reads where the local holds a flow
        identifier — for example ``{"weight": lambda flow: weights[flow]}``
        makes Figure 1's ``f.weight`` work.
    functions:
        Extra builtin functions callable from programs, merged over the
        defaults (``min``, ``max``, ``abs``, ``floor``, ``ceil``,
        ``flow(p)``).
    """

    state: MutableMapping[str, Any] = field(default_factory=dict)
    params: Mapping[str, Any] = field(default_factory=dict)
    flow_attrs: Mapping[str, Callable[[Any], Any]] = field(default_factory=dict)
    functions: Mapping[str, Callable[..., Any]] = field(default_factory=dict)


@dataclass
class ExecutionResult:
    """Outcome of running a program on one packet.

    Attributes
    ----------
    rank:
        Value assigned to ``p.rank`` (``None`` if the program never set it).
    send_time:
        Value assigned to ``p.send_time``.
    packet_writes:
        Every packet field the program wrote, including ``rank`` and
        ``send_time``.
    locals:
        Final values of the execution-scoped locals (useful in tests).
    """

    rank: Optional[float]
    send_time: Optional[float]
    packet_writes: Dict[str, Any]
    locals: Dict[str, Any]


class Interpreter:
    """Executes a parsed :class:`~repro.lang.ast.Program` one packet at a time.

    The interpreter itself is stateless; all persistence lives in the
    :class:`ProgramEnvironment` supplied per call, which is what lets the
    bridge layer snapshot/restore state for serialisability tests.
    """

    def __init__(self, program: Program) -> None:
        self.program = program

    # -- public API -----------------------------------------------------------
    def execute(
        self,
        packet: Packet,
        ctx: TransactionContext,
        env: ProgramEnvironment,
    ) -> ExecutionResult:
        """Run the program against ``packet`` and return what it produced."""
        frame = _Frame(packet=packet, ctx=ctx, env=env)
        for statement in self.program.statements:
            self._exec_statement(statement, frame)
        return ExecutionResult(
            rank=frame.packet_writes.get("rank"),
            send_time=frame.packet_writes.get("send_time"),
            packet_writes=dict(frame.packet_writes),
            locals=dict(frame.locals),
        )

    # -- statements -------------------------------------------------------------
    def _exec_statement(self, statement: Statement, frame: "_Frame") -> None:
        if isinstance(statement, Assign):
            value = self._eval(statement.value, frame)
            self._assign(statement, value, frame)
            return
        if isinstance(statement, If):
            if _truthy(self._eval(statement.condition, frame)):
                for inner in statement.body:
                    self._exec_statement(inner, frame)
            else:
                for inner in statement.orelse:
                    self._exec_statement(inner, frame)
            return
        raise RuntimeLangError(  # pragma: no cover - parser prevents this
            f"unsupported statement {statement!r}", line=statement.line
        )

    def _assign(self, statement: Assign, value: Any, frame: "_Frame") -> None:
        target = statement.target
        if isinstance(target, Attribute):
            if target.obj != "p":
                raise RuntimeLangError(
                    f"can only assign to packet fields (p.*), not "
                    f"{format_node(target)!r}",
                    line=target.line,
                )
            frame.packet_writes[target.attribute] = value
            return
        if isinstance(target, Subscript):
            table = self._state_table(target.obj, frame, line=target.line)
            key = self._eval(target.index, frame)
            table[key] = value
            return
        # Plain name: state variable wins, parameters are read-only,
        # anything else becomes a local.
        name = target.identifier
        if name in frame.env.state:
            frame.env.state[name] = value
            return
        if name in frame.env.params:
            raise RuntimeLangError(
                f"{name!r} is a parameter and cannot be assigned",
                line=target.line,
            )
        frame.locals[name] = value

    def _state_table(self, name: str, frame: "_Frame", line: int) -> MutableMapping:
        if name not in frame.env.state:
            raise RuntimeLangError(
                f"{name!r} is not a declared state variable (per-flow tables "
                "must be declared in the program's initial state)",
                line=line,
            )
        table = frame.env.state[name]
        if not isinstance(table, MutableMapping) and not isinstance(table, dict):
            raise RuntimeLangError(
                f"state variable {name!r} is not a table and cannot be "
                "subscripted",
                line=line,
            )
        return table

    # -- expressions --------------------------------------------------------------
    def _eval(self, expr: Expression, frame: "_Frame") -> Any:
        if isinstance(expr, Number):
            return expr.value
        if isinstance(expr, Boolean):
            return expr.value
        if isinstance(expr, Name):
            return self._read_name(expr, frame)
        if isinstance(expr, Attribute):
            return self._read_attribute(expr, frame)
        if isinstance(expr, Subscript):
            table = self._state_table(expr.obj, frame, line=expr.line)
            key = self._eval(expr.index, frame)
            if key not in table:
                raise RuntimeLangError(
                    f"key {key!r} not present in table {expr.obj!r} (guard the "
                    "read with an 'in' check, as Figure 1 does)",
                    line=expr.line,
                )
            return table[key]
        if isinstance(expr, Call):
            return self._call(expr, frame)
        if isinstance(expr, UnaryOp):
            operand = self._eval(expr.operand, frame)
            if expr.operator == "-":
                return -operand
            return not _truthy(operand)
        if isinstance(expr, BinOp):
            return self._binop(expr, frame)
        if isinstance(expr, Compare):
            return self._compare(expr, frame)
        if isinstance(expr, BoolOp):
            if expr.operator == "and":
                result: Any = True
                for operand in expr.operands:
                    result = self._eval(operand, frame)
                    if not _truthy(result):
                        return result
                return result
            for operand in expr.operands:
                result = self._eval(operand, frame)
                if _truthy(result):
                    return result
            return result
        if isinstance(expr, Membership):
            table = self._state_table(expr.table, frame, line=expr.line)
            present = self._eval(expr.item, frame) in table
            return (not present) if expr.negated else present
        raise RuntimeLangError(  # pragma: no cover - parser prevents this
            f"unsupported expression {expr!r}", line=getattr(expr, "line", 0)
        )

    def _read_name(self, expr: Name, frame: "_Frame") -> Any:
        name = expr.identifier
        if name == "now":
            return frame.ctx.now
        if name == "p":
            return frame.packet
        if name in frame.locals:
            return frame.locals[name]
        if name in frame.env.state:
            return frame.env.state[name]
        if name in frame.env.params:
            return frame.env.params[name]
        raise RuntimeLangError(
            f"undefined name {name!r} (not a local, state variable, parameter "
            "or builtin)",
            line=expr.line,
        )

    def _read_attribute(self, expr: Attribute, frame: "_Frame") -> Any:
        if expr.obj == "p":
            return self._read_packet_field(expr, frame)
        # ``f.weight``: the object is a local (or parameter) holding a flow
        # identifier, and the attribute is resolved through flow_attrs.
        accessor = frame.env.flow_attrs.get(expr.attribute)
        if accessor is None:
            raise RuntimeLangError(
                f"no flow attribute accessor registered for "
                f"{format_node(expr)!r} (pass flow_attrs={{'{expr.attribute}': ...}})",
                line=expr.line,
            )
        owner = self._read_name(Name(identifier=expr.obj, line=expr.line), frame)
        return accessor(owner)

    def _read_packet_field(self, expr: Attribute, frame: "_Frame") -> Any:
        name = expr.attribute
        # Reads observe earlier writes in the same execution (Figure 1 reads
        # back p.start after assigning it).
        if name in frame.packet_writes:
            return frame.packet_writes[name]
        if name in _PACKET_BUILTIN_FIELDS:
            return _PACKET_BUILTIN_FIELDS[name](frame.packet, frame.ctx)
        if name in frame.packet.fields:
            return frame.packet.fields[name]
        if name in _PACKET_FIELD_DEFAULTS:
            return _PACKET_FIELD_DEFAULTS[name]
        raise RuntimeLangError(
            f"packet has no field {name!r} (set it in Packet.fields or via an "
            "earlier assignment in the program)",
            line=expr.line,
        )

    def _call(self, expr: Call, frame: "_Frame") -> Any:
        args = [self._eval(arg, frame) for arg in expr.args]
        function = frame.env.functions.get(expr.function)
        if function is None:
            function = _BUILTIN_FUNCTIONS.get(expr.function)
        if expr.function == "flow":
            # ``flow(p)`` — the flow the element being ranked belongs to.
            return frame.ctx.element_flow or frame.packet.flow
        if function is None:
            raise RuntimeLangError(
                f"unknown function {expr.function!r}", line=expr.line
            )
        try:
            return function(*args)
        except (TypeError, ValueError) as exc:
            raise RuntimeLangError(
                f"call to {expr.function!r} failed: {exc}", line=expr.line
            ) from exc

    def _binop(self, expr: BinOp, frame: "_Frame") -> Any:
        left = self._eval(expr.left, frame)
        right = self._eval(expr.right, frame)
        try:
            if expr.operator == "+":
                return left + right
            if expr.operator == "-":
                return left - right
            if expr.operator == "*":
                return left * right
            if expr.operator == "/":
                return left / right
            if expr.operator == "%":
                return left % right
        except ZeroDivisionError:
            raise RuntimeLangError(
                f"division by zero in {format_node(expr)!r}", line=expr.line
            ) from None
        except TypeError as exc:
            raise RuntimeLangError(
                f"bad operands for {expr.operator!r} in {format_node(expr)!r}: {exc}",
                line=expr.line,
            ) from exc
        raise RuntimeLangError(  # pragma: no cover - parser prevents this
            f"unknown operator {expr.operator!r}", line=expr.line
        )

    def _compare(self, expr: Compare, frame: "_Frame") -> bool:
        left = self._eval(expr.left, frame)
        right = self._eval(expr.right, frame)
        try:
            if expr.operator == "<":
                return left < right
            if expr.operator == "<=":
                return left <= right
            if expr.operator == ">":
                return left > right
            if expr.operator == ">=":
                return left >= right
            if expr.operator == "==":
                return left == right
            if expr.operator == "!=":
                return left != right
        except TypeError as exc:
            raise RuntimeLangError(
                f"bad operands for {expr.operator!r} in {format_node(expr)!r}: {exc}",
                line=expr.line,
            ) from exc
        raise RuntimeLangError(  # pragma: no cover - parser prevents this
            f"unknown comparison {expr.operator!r}", line=expr.line
        )


@dataclass
class _Frame:
    """Per-execution mutable scratch space."""

    packet: Packet
    ctx: TransactionContext
    env: ProgramEnvironment
    locals: Dict[str, Any] = field(default_factory=dict)
    packet_writes: Dict[str, Any] = field(default_factory=dict)


def _truthy(value: Any) -> bool:
    return bool(value)


def _floor(value: float) -> float:
    import math

    return math.floor(value)


def _ceil(value: float) -> float:
    import math

    return math.ceil(value)


#: Builtin functions every program can call.
_BUILTIN_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "min": min,
    "max": max,
    "abs": abs,
    "floor": _floor,
    "ceil": _ceil,
}
