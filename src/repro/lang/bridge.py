"""Run transaction-language programs as scheduling/shaping transactions.

This is the glue between :mod:`repro.lang` and :mod:`repro.core`: a compiled
program becomes a :class:`~repro.core.transaction.SchedulingTransaction` or
:class:`~repro.core.transaction.ShapingTransaction` and can be attached to a
:class:`~repro.core.tree.TreeNode` exactly like the native algorithm
classes in :mod:`repro.algorithms`.

Three details deserve a note:

* **Compile-by-default.**  Programs are lowered to native Python closures by
  :mod:`repro.lang.compiler` at construction time; the per-packet cost is a
  direct function call, not an AST walk.  If the compiler cannot lower a
  construct, construction raises :class:`~repro.lang.compiler.CompileError`;
  the interpreter runs only when chosen with ``backend="interpreted"``
  (the ablation benchmark's baseline).
* **Dequeue programs.**  Some algorithms update state when a packet leaves
  the PIFO, not only when it enters — STFQ advances its virtual time to the
  start tag of the dequeued packet.  The bridge therefore accepts an
  optional ``dequeue_source``; that program runs with the extra names
  ``dequeued_rank`` (the PIFO rank of the element being dequeued) available
  as parameters.  ``dequeued_rank`` changes per call, so it is compiled as a
  *dynamic* parameter (read through the environment) while every other
  parameter is inlined as a constant.
* **Atom feasibility.**  ``require_line_rate=True`` runs the Domino-style
  analysis at construction time and refuses programs that do not fit the
  atom vocabulary — the same contract the paper's compiler enforces.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

from ..core.packet import Packet
from ..core.pifo import Rank
from ..core.transaction import (
    SchedulingTransaction,
    ShapingTransaction,
    TransactionContext,
)
from ..exceptions import TransactionError
from ..hardware.atoms import AtomPipelineAnalyzer, PipelineReport, TransactionSpec
from .analysis import ProgramAnalysis, analyze_program, spec_from_program
from .ast import Program
from .compiler import CompiledProgram, compile_cached
from .errors import RuntimeLangError
from .interpreter import ExecutionResult, Interpreter, ProgramEnvironment
from .parser import parse

#: Default execution backend for lang-backed transactions.  ``"compiled"``
#: lowers the AST to a native Python closure (raising ``CompileError`` on
#: an unsupported construct); ``"interpreted"`` selects the per-packet AST
#: walk.
DEFAULT_BACKEND = "compiled"

_VALID_BACKENDS = ("compiled", "interpreted")


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve a requested backend name (``None``: the default)."""
    if backend is None:
        backend = DEFAULT_BACKEND
    if backend not in _VALID_BACKENDS:
        raise ValueError(
            f"unknown lang backend {backend!r} (expected one of {_VALID_BACKENDS})"
        )
    return backend


class _CompiledProgramMixin:
    """Shared plumbing for compiled scheduling and shaping transactions."""

    kind = "scheduling"

    def __init__(
        self,
        source: str | Program,
        state: Optional[Mapping[str, Any]] = None,
        params: Optional[Mapping[str, Any]] = None,
        flow_attrs: Optional[Mapping[str, Callable[[Any], Any]]] = None,
        functions: Optional[Mapping[str, Callable[..., Any]]] = None,
        dequeue_source: Optional[str | Program] = None,
        name: str = "compiled",
        require_line_rate: bool = False,
        backend: Optional[str] = None,
    ) -> None:
        self.program = parse(source) if isinstance(source, str) else source
        self.dequeue_program = (
            parse(dequeue_source)
            if isinstance(dequeue_source, str)
            else dequeue_source
        )
        self._interpreter = Interpreter(self.program)
        self._dequeue_interpreter = (
            Interpreter(self.dequeue_program) if self.dequeue_program else None
        )
        self._initial_state = dict(state or {})
        self.params = dict(params or {})
        self.flow_attrs = dict(flow_attrs or {})
        self.functions = dict(functions or {})
        self.program_name = name
        self.state_variables = tuple(sorted(self._initial_state))
        self.analysis: ProgramAnalysis = analyze_program(
            self.program, state=self._initial_state
        )
        self._compiled: Optional[CompiledProgram] = None
        self._dequeue_compiled: Optional[CompiledProgram] = None
        self.backend = resolve_backend(backend)
        if self.backend == "compiled":
            self._compiled = compile_cached(
                self.program,
                state=self._initial_state,
                params=self.params,
                name=name,
            )
            if self.dequeue_program is not None:
                self._dequeue_compiled = compile_cached(
                    self.dequeue_program,
                    state=self._initial_state,
                    params=self.params,
                    dynamic_params=("dequeued_rank",),
                    name=f"{name}.dequeue",
                )
        self._execute = (
            self._compiled.execute
            if self._compiled is not None
            else self._interpreter.execute
        )
        if self._dequeue_interpreter is not None:
            self._dequeue_execute = (
                self._dequeue_compiled.execute
                if self._dequeue_compiled is not None
                else self._dequeue_interpreter.execute
            )
        else:
            self._dequeue_execute = None
        if require_line_rate:
            report = self.pipeline_report()
            if not report.feasible:
                raise TransactionError(
                    f"program {name!r} cannot run at line rate: {report.reason}"
                )
        super().__init__()
        # One environment per program for the transaction's lifetime: it
        # holds ``self.state``, which reset/restore refill in place.  The
        # dequeue side owns a params copy, updated in place per call.
        self._env = ProgramEnvironment(
            state=self.state,
            params=self.params,
            flow_attrs=self.flow_attrs,
            functions=self.functions,
        )
        self._dequeue_env = ProgramEnvironment(
            state=self.state,
            params=dict(self.params),
            flow_attrs=self.flow_attrs,
            functions=self.functions,
        )

    # -- Transaction API -------------------------------------------------------
    def initial_state(self) -> Dict[str, Any]:
        # Mutable initial values (per-flow tables) must not be shared between
        # resets, so containers are copied.
        initial: Dict[str, Any] = {}
        for key, value in self._initial_state.items():
            initial[key] = dict(value) if isinstance(value, dict) else value
        return initial

    def describe(self) -> str:
        return f"{type(self).__name__}({self.program_name!r}, {self.backend})"

    def generated_source(self) -> Optional[str]:
        """Python source the compiler produced (``None`` when interpreted)."""
        if self._compiled is None:
            return None
        return self._compiled.source_text

    # -- execution ---------------------------------------------------------------
    def _run(self, packet: Packet, ctx: TransactionContext) -> ExecutionResult:
        result = self._execute(packet, ctx, self._env)
        # Packet-field writes other than the rank/send-time outputs persist on
        # the packet, exactly as the paper's programs write back to ``p.x``
        # (LSTF relies on this to carry the decremented slack to the next hop).
        for field_name, value in result.packet_writes.items():
            if field_name not in ("rank", "send_time"):
                packet.set(field_name, value)
        return result

    def on_dequeue(self, element: Any, ctx: TransactionContext) -> None:
        if self._dequeue_execute is None:
            return
        env = self._dequeue_env
        rank = ctx.extras.get("rank")
        env.params["dequeued_rank"] = 0.0 if rank is None else rank
        packet = element if isinstance(element, Packet) else _pseudo_packet(ctx)
        self._dequeue_execute(packet, ctx, env)

    # -- hardware feasibility ------------------------------------------------------
    def transaction_spec(self) -> TransactionSpec:
        """The Domino-style IR of this program (for the atom analyser)."""
        return spec_from_program(
            self.program_name,
            self.program,
            state=self._initial_state,
            kind=self.kind,
        )

    def pipeline_report(
        self, analyzer: Optional[AtomPipelineAnalyzer] = None
    ) -> PipelineReport:
        """Map the program onto an atom pipeline and report feasibility."""
        analyzer = analyzer or AtomPipelineAnalyzer()
        return analyzer.analyze(self.transaction_spec())


class CompiledSchedulingTransaction(_CompiledProgramMixin, SchedulingTransaction):
    """A scheduling transaction defined by program text.

    The program must assign ``p.rank``; its value becomes the PIFO rank.
    """

    kind = "scheduling"

    def compute_rank(self, packet: Packet, ctx: TransactionContext) -> Rank:
        result = self._run(packet, ctx)
        if result.rank is None:
            raise RuntimeLangError(
                f"scheduling program {self.program_name!r} finished without "
                "assigning p.rank"
            )
        return result.rank


class CompiledShapingTransaction(_CompiledProgramMixin, ShapingTransaction):
    """A shaping transaction defined by program text.

    The program must assign ``p.send_time`` (or ``p.rank``, which Figure 4c
    sets to the send time); its value becomes the wall-clock release time.
    """

    kind = "shaping"

    def compute_send_time(self, packet: Packet, ctx: TransactionContext) -> float:
        result = self._run(packet, ctx)
        send_time = result.send_time if result.send_time is not None else result.rank
        if send_time is None:
            raise RuntimeLangError(
                f"shaping program {self.program_name!r} finished without "
                "assigning p.send_time or p.rank"
            )
        return send_time


def compile_scheduling_program(
    source: str | Program,
    state: Optional[Mapping[str, Any]] = None,
    params: Optional[Mapping[str, Any]] = None,
    flow_attrs: Optional[Mapping[str, Callable[[Any], Any]]] = None,
    functions: Optional[Mapping[str, Callable[..., Any]]] = None,
    dequeue_source: Optional[str | Program] = None,
    name: str = "compiled-scheduling",
    require_line_rate: bool = False,
    backend: Optional[str] = None,
) -> CompiledSchedulingTransaction:
    """Compile program text into a ready-to-use scheduling transaction."""
    return CompiledSchedulingTransaction(
        source,
        state=state,
        params=params,
        flow_attrs=flow_attrs,
        functions=functions,
        dequeue_source=dequeue_source,
        name=name,
        require_line_rate=require_line_rate,
        backend=backend,
    )


def compile_shaping_program(
    source: str | Program,
    state: Optional[Mapping[str, Any]] = None,
    params: Optional[Mapping[str, Any]] = None,
    flow_attrs: Optional[Mapping[str, Callable[[Any], Any]]] = None,
    functions: Optional[Mapping[str, Callable[..., Any]]] = None,
    name: str = "compiled-shaping",
    require_line_rate: bool = False,
    backend: Optional[str] = None,
) -> CompiledShapingTransaction:
    """Compile program text into a ready-to-use shaping transaction."""
    return CompiledShapingTransaction(
        source,
        state=state,
        params=params,
        flow_attrs=flow_attrs,
        functions=functions,
        name=name,
        require_line_rate=require_line_rate,
        backend=backend,
    )


def _pseudo_packet(ctx: TransactionContext) -> Packet:
    """Placeholder packet for dequeue programs run on PIFO references."""
    return Packet(
        flow=ctx.element_flow or "reference",
        length=max(1, ctx.element_length),
        arrival_time=ctx.now,
    )
