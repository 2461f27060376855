"""Whole-tree kernel compilation: fuse a scheduling hierarchy into one
generated per-shape kernel.

:mod:`repro.lang.compiler` removes the per-packet AST walk from individual
transaction programs, but the end-to-end datapath still pays interpreted
glue *between* the compiled fragments: the tree walk, predicate matching,
context bookkeeping, ``on_dequeue`` dispatch and the PIFO backend's virtual
calls.  This module removes that glue the same way the paper's compiler
specialises a whole scheduling tree into hardware: given a
:class:`~repro.core.scheduler.ProgrammableScheduler`, it emits a single
generated-Python **kernel** — one ``enqueue`` and one ``dequeue`` closure —
with the full per-packet path inlined into straight-line code:

* the leaf-to-root transaction walk is unrolled per matching leaf (the
  predicate descent becomes an ``if``/``elif`` chain over the static tree
  shape, including the paper's disjointness check);
* rank computation is specialised per transaction class — FIFO, arrival
  sequence and LSTF are inlined, and a compiled lang program is *spliced*:
  its statements are emitted into the walk as an inline fragment
  (:meth:`repro.lang.compiler.CompiledProgram.fragment`), with this node's
  names for its inputs and outputs and a per-node prefix for its locals —
  scheduling, shaping and dequeue programs alike.  A program that cannot be
  a fragment (``splice_blocker``) or runs interpreted is called through its
  ``execute`` entry and listed, with the reason, in
  :attr:`TreeKernel.called_programs`; anything else is a plain call, still
  inside the fused walk;
* PIFO pushes and pops are inlined per backend (sorted list, calendar
  heap, bucket queue, quantised bucket queue), and the dequeue descent is
  unrolled: a popped reference can only be one of the node's children;
* the reused :class:`~repro.core.transaction.TransactionContext` is only
  populated on paths whose transactions can observe it, and the
  ``on_dequeue`` hook dispatch disappears entirely for hook-less trees.

**Shaping (Section 2.3, Figures 4 and 5).**  A walk that reaches a shaped
node with a parent on its path *suspends* there: the kernel computes the
send time, parks a :class:`~repro.core.scheduler.ShapingToken` in the
node's shaping PIFO and on the scheduler's own shaping calendar, and
stops.  ``dequeue`` opens with the release loop — pop every due calendar
entry, skip stale ones, and run that node's *resume block*, the static
parent-to-root remainder of its path, at the token's release time.  The
calendar, its sequence counter and the tokens are the ones the class
methods use, so ``peek``, ``next_shaping_release``,
``process_shaping_releases``, ``drain_timed`` and ``reset`` work unchanged
on a scheduler running a kernel.  ``next_shaping_release`` itself is the
kernel's fourth closure: a port polls it after every dequeue that yields
nothing, so the stale-head test is inlined per shaping-PIFO backend there
and in the release loop.

**Errors.**  A fragment has no per-operation checks; a failing statement
surfaces as a raw exception on its own line of the kernel file.  The
handler around each fragment hands that line to
:meth:`~repro.lang.compiler.CompiledProgram._replay` together with the
kernel's line table — kernel line → statement, plus the variables holding
the locals and packet writes bound there — so the ``RuntimeLangError`` is
the interpreter's, message and line.

**Caching.**  Kernels are compiled once per *shape signature* — the tree
structure and node names plus, per node, the transaction class (and, for
every spliced program, its :func:`repro.lang.compiler.compile_cached` key:
the AST and everything its code specialises on; for a called one, the
reason), the PIFO backend class, the predicate, the hook/flow-fn flags and
the shaping transaction's tag and PIFO backend.  Two schedulers with the same
shape share one code object; each instantiates its own closures over its
own node state, so state stays fully independent.

**Staleness guards.**  The closures hoist node PIFOs, transaction state and
the stats object into cells.  Sanctioned mutation points
(``scheduler.reset()`` / ``use_backend()``) rebuild the kernel explicitly;
everything else — ``tree.use_backend()`` behind the scheduler's back, a
direct ``transaction.reset()``, ``add_child`` after construction — is caught
by a per-call identity guard that re-specialises on the next packet, so a
stale kernel can never produce wrong results.
"""

from __future__ import annotations

import itertools
import linecache
from bisect import bisect_right
from collections import deque
from heapq import heappop, heappush
from math import floor
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..obs import metrics as obs_metrics
from ..core.pifo import (
    BucketedPIFO,
    CalendarPIFO,
    QuantizedBucketedPIFO,
    SortedListPIFO,
)
from ..core.predicates import (
    ClassEquals,
    ClassIn,
    FlowEquals,
    FlowIn,
    MatchAll,
    MatchNone,
)
from ..core.scheduler import ProgrammableScheduler, ShapingToken
from ..core.tree import TreeNode, _packet_flow
from ..exceptions import PIFOFullError, SchedulerError, TreeConfigurationError
from .compiler import RUNTIME_GLOBALS, CompileError, FragmentNames
from .errors import RuntimeLangError


class TreeKernelError(CompileError):
    """The scheduler's tree cannot be fused into a generated kernel."""


class TreeKernel:
    """A compiled whole-tree kernel: fused enqueue/dequeue closures.

    ``transfer(packet, now)`` is the third entry point: enqueue followed by
    an immediate dequeue, for callers (an idle output port) that transmit
    the packet in the same instant.  On a single-node tree that is known to
    be empty it runs *cut-through*: every counter, stamp and hook fires
    exactly as the enqueue/dequeue pair would, but the PIFO's backing data
    structure is never touched — the packet goes straight from rank
    computation to the transmitter.  Returns the head packet, or ``None``
    when the enqueue was rejected — or, under shaping, when nothing is
    eligible yet, which is why ports only call it on a
    :attr:`work_conserving` kernel.  ``next_release()`` is the scheduler's
    ``next_shaping_release``.
    """

    __slots__ = ("enqueue", "dequeue", "transfer", "next_release",
                 "signature", "source", "filename", "called_programs")

    def __init__(self, enqueue, dequeue, transfer, next_release, signature,
                 source, filename, called_programs) -> None:
        self.enqueue = enqueue
        self.dequeue = dequeue
        self.transfer = transfer
        self.next_release = next_release
        self.signature = signature
        self.source = source
        self.filename = filename
        #: ``(node, program, reason)`` for every lang program the kernel
        #: calls instead of splicing.
        self.called_programs: Tuple[Tuple[str, str, str], ...] = called_programs

    @property
    def work_conserving(self) -> bool:
        """No node shapes: a non-empty scheduler always yields a packet, so
        ``transfer`` returning ``None`` can only mean the enqueue dropped."""
        return all(sig.shaping is None for sig in self.signature)


#: signature -> (factory, source, filename, called programs).  Bounded like
#: the program cache.
_CACHE: Dict[Tuple, Tuple[Callable, str, str, Tuple]] = {}
_CACHE_CAPACITY = 256
#: ``called_programs`` sums ``len(kernel.called_programs)`` over installs.
_stats = {"hits": 0, "misses": 0, "installs": 0, "fallbacks": 0,
          "called_programs": 0}
_filename_counter = itertools.count()


def kernel_cache_info() -> Dict[str, int]:
    """Cache and install counters (reported by ``repro perf``)."""
    return dict(_stats, size=len(_CACHE))


def clear_kernel_cache() -> None:
    """Drop every cached kernel factory and reset the counters."""
    _CACHE.clear()
    for key in _stats:
        _stats[key] = 0


# The cache counters predate the metrics registry and accumulate whether
# or not one is enabled; publishing them as a global source makes every
# registry snapshot (and ``repro perf``) read the same numbers.
obs_metrics.register_global_source("lang.kernel_cache", kernel_cache_info)


# --------------------------------------------------------------------------- #
# Shape signature                                                             #
# --------------------------------------------------------------------------- #

_PIFO_TAGS = {
    SortedListPIFO: "sorted",
    CalendarPIFO: "calendar",
    BucketedPIFO: "bucketed",
    QuantizedBucketedPIFO: "quantized",
}


class _NodeSig(NamedTuple):
    """Everything the generated code specialises on for one node."""

    name: str                 #: embedded: ``ctx.node``, a reference's flow
    tx: Tuple                 #: scheduling transaction tag (see ``_tx_tag``)
    backend: str              #: scheduling PIFO backend tag
    capped: bool              #: scheduling PIFO has a capacity bound
    hook: Optional[Tuple]     #: ``on_dequeue`` tag (see ``_hook_tag``)
    default_flow: bool        #: ``flow_fn`` is the default ``packet.flow``
    pred: Tuple               #: predicate tag
    children: int
    shaping: Optional[Tuple]  #: shaping transaction tag (``_shaping_tag``)
    shaping_backend: Optional[str]


def _splice_key(compiled, owner) -> Tuple[bool, Any]:
    """``(spliced, key)`` for one program of transaction ``owner``.

    A spliced program's key is everything its fragment depends on — the
    :func:`~repro.lang.compiler.compile_cached` key (the instance, for an
    uncached program: the kernel is still correct, just not shared).  A
    called program's key is the reason, which ``called_programs`` reports.
    """
    if compiled is None:
        return False, "runs on the interpreted back end"
    if compiled.splice_blocker is not None:
        return False, compiled.splice_blocker
    return True, compiled.key if compiled.key is not None else id(owner)


def _tx_tag(tx) -> Tuple:
    """Specialisation tag for a scheduling transaction (part of the key)."""
    from ..algorithms.fifo import ArrivalSequenceTransaction, FIFOTransaction
    from ..algorithms.lstf import LSTFTransaction
    # Imported lazily: the bridge pulls in the hardware analyser, which this
    # module must not require just to fuse hand-written transaction trees.
    from .bridge import CompiledSchedulingTransaction

    cls = type(tx)
    if cls is FIFOTransaction:
        return ("fifo",)
    if cls is ArrivalSequenceTransaction:
        return ("arrival_seq",)
    if cls is LSTFTransaction:
        return ("lstf", tx.slack_field, tx.prev_wait_field)
    if cls is CompiledSchedulingTransaction:
        return ("lang", tx.program_name, *_splice_key(tx._compiled, tx))
    return ("generic", cls.__qualname__)


def _hook_tag(node: TreeNode) -> Optional[Tuple]:
    """How the kernel runs the node's ``on_dequeue`` (None: not at all):
    ``("splice", key, reads_packet)`` or ``("call", reason)`` — the reason
    is None when the hook is not a lang program."""
    if not node.needs_dequeue_hook:
        return None
    from .bridge import CompiledSchedulingTransaction

    tx = node.scheduling
    if type(tx) is not CompiledSchedulingTransaction:
        return ("call", None)
    if tx._dequeue_execute is None:
        return None  # no dequeue program: on_dequeue returns at once
    spliced, key = _splice_key(tx._dequeue_compiled, tx)
    if spliced:
        return ("splice", key, tx._dequeue_compiled.reads_packet)
    return ("call", key)


def _shaping_tag(tx) -> Optional[Tuple]:
    """``("splice", program, key)``, ``("call", program, reason)`` or, for a
    shaping transaction that is not a lang program, ``("call", None, None)``."""
    if tx is None:
        return None
    from .bridge import CompiledShapingTransaction

    if type(tx) is not CompiledShapingTransaction:
        return ("call", None, None)
    spliced, key = _splice_key(tx._compiled, tx)
    return ("splice" if spliced else "call", tx.program_name, key)


def _literal_set(values) -> Optional[str]:
    """``values`` as a set display the compiler folds into one constant, or
    None when an element has no literal form."""
    if not values or not all(type(value) in (str, int, bool, bytes, type(None))
                             for value in values):
        return None
    return "{" + ", ".join(sorted(map(repr, values))) + "}"


def _pred_tag(pred) -> Tuple:
    cls = type(pred)
    if cls is MatchAll:
        return ("all",)
    if cls is MatchNone:
        return ("none",)
    if cls is ClassEquals:
        return ("class_eq", pred.label)
    if cls is FlowEquals:
        return ("flow_eq", pred.flow)
    if cls is ClassIn or cls is FlowIn:
        # The set itself goes into the tag, as the source it is inlined as.
        members = _literal_set(pred.labels if cls is ClassIn else pred.flows)
        if members is not None:
            return ("class_in" if cls is ClassIn else "flow_in", members)
    return ("generic", cls.__qualname__)


def _node_signature(node: TreeNode) -> _NodeSig:
    pifo = node.scheduling_pifo
    shaped = node.shaping is not None
    return _NodeSig(
        name=node.name,
        tx=_tx_tag(node.scheduling),
        backend=_PIFO_TAGS.get(type(pifo), "generic"),
        capped=pifo.capacity is not None,
        hook=_hook_tag(node),
        default_flow=node.flow_fn is _packet_flow,
        pred=_pred_tag(node.predicate),
        children=len(node.children),
        shaping=_shaping_tag(node.shaping),
        shaping_backend=(
            _PIFO_TAGS.get(type(node.shaping_pifo), "generic") if shaped else None
        ),
    )


def tree_signature(scheduler) -> Tuple[_NodeSig, ...]:
    """Shape signature of a scheduler's tree; raises on unsupported schedulers."""
    if type(scheduler) is not ProgrammableScheduler:
        raise TreeKernelError(
            f"{type(scheduler).__name__} subclasses ProgrammableScheduler; the "
            "kernel's per-instance closures would shadow its method overrides"
        )
    return tuple(_node_signature(node) for node in scheduler.tree.nodes())


# --------------------------------------------------------------------------- #
# Code generation                                                             #
# --------------------------------------------------------------------------- #


class _Emitter:
    """Indentation-tracked line sink for the generated factory source."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        #: Kernel-file line -> the spliced statement it runs and the
        #: variables bound there (``Fragment.line_map`` entries).
        self.line_table: Dict[int, Tuple] = {}

    def w(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def splice(self, indent: int, fragment) -> None:
        first = len(self.lines) + 1
        for index, entry in fragment.line_map.items():
            self.line_table[first + index] = entry
        for line in fragment.lines:
            self.w(indent, line)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _spliced(sig: _NodeSig) -> bool:
    """Whether the node's scheduling program is spliced into the walk."""
    return sig.tx[0] == "lang" and sig.tx[2]


def _ctx_needed(sig: _NodeSig) -> bool:
    """Whether the node's enqueue code reads the shared enqueue context."""
    return (
        (sig.tx[0] in ("generic", "lang") and not _spliced(sig))
        or (sig.shaping is not None and sig.shaping[0] == "call")
    )


def _or_packet_flow(em: _Emitter, ind: int, flow: str) -> str:
    """An expression for ``<flow> or packet.flow`` — what a program's
    ``p.flow`` reads when the enqueued element's flow is ``flow`` — folded
    when ``flow`` is that very attribute or a node name's ``repr``, else
    bound once."""
    if flow == "packet.flow":
        return flow
    if flow[0] in "'\"":
        return "packet.flow" if flow == repr("") else flow
    em.w(ind, f"eflow = {flow} or packet.flow")
    return "eflow"


def _emit_env(em: _Emitter, ind: int, tx: str, side: str = "") -> None:
    """Emit the bridge's cached-environment lookup for transaction ``tx``
    (``side="dequeue_"`` for its dequeue program's environment)."""
    em.w(ind, f"env = {tx}._{side}env")
    em.w(ind, f"if env is None or env.state is not {tx}.state:")
    em.w(ind + 1, f"env = {tx}._{side}environment()")


def _emit_rank(em: _Emitter, ind: int, i: int, sig: _NodeSig, flow: str,
               tx) -> None:
    """Emit statements computing ``rank`` for node ``i``.

    ``flow`` is the expression for the element's flow at this node (what
    the interpreted walk stores in ``ctx.element_flow``) and ``tx`` the
    node's scheduling transaction, whose program is spliced here.
    """
    tag = sig.tx
    kind = tag[0]
    if kind == "fifo":
        em.w(ind, f"tx{i}.executions += 1")
        em.w(ind, "rank = time_now")
    elif kind == "arrival_seq":
        em.w(ind, f"tx{i}.executions += 1")
        em.w(ind, f"rank = st{i}['counter']")
        em.w(ind, f"st{i}['counter'] = rank + 1")
    elif kind == "lstf":
        slack, prev = tag[1], tag[2]
        em.w(ind, f"tx{i}.executions += 1")
        em.w(ind, "fields = packet.fields")
        em.w(ind, f"slack = fields.get({slack!r})")
        em.w(ind, "if slack is None:")
        em.w(ind + 1, f"tx{i}.compute_rank(packet, None)")
        em.w(ind, f"rank = slack - fields.get({prev!r}, 0.0)")
        em.w(ind, "if fields is _EMPTY_FIELDS:")
        em.w(ind + 1, f"packet.fields = {{{slack!r}: rank, {prev!r}: 0.0}}")
        em.w(ind, "else:")
        em.w(ind + 1, f"fields[{slack!r}] = rank")
        em.w(ind + 1, f"fields[{prev!r}] = 0.0")
    elif kind == "lang":
        name = tag[1]
        msg = (
            f"scheduling program {name!r} finished without assigning p.rank"
        )
        em.w(ind, f"tx{i}.executions += 1")
        _emit_env(em, ind, f"tx{i}")
        if _spliced(sig):
            em.splice(ind, tx._compiled.fragment(FragmentNames(
                prefix=f"r{i}_", owner=f"tx{i}._compiled",
                flow=_or_packet_flow(em, ind, flow), rank="rank")))
        else:
            em.w(ind, f"res = x{i}(packet, ectx, env)")
            em.w(ind, "for fname, value in res.packet_writes.items():")
            em.w(ind + 1, "if fname != 'rank' and fname != 'send_time':")
            em.w(ind + 2, "packet.set(fname, value)")
            em.w(ind, "rank = res.rank")
        em.w(ind, "if rank is None:")
        em.w(ind + 1, f"raise _RuntimeLangError({msg!r})")
    else:
        em.w(ind, f"rank = tx{i}(packet, ectx)")


def _emit_send_time(em: _Emitter, ind: int, i: int, sig: _NodeSig,
                    flow: str, shaping) -> None:
    """Emit ``send_time = <node i's shaping transaction>`` (clamped)."""
    if sig.shaping[0] == "call":
        em.w(ind, f"send_time = sh{i}(packet, ectx)")
        return
    # ShapingTransaction.__call__ around the spliced program.
    msg = (
        f"shaping program {sig.shaping[1]!r} finished without assigning "
        "p.send_time or p.rank"
    )
    em.w(ind, f"sh{i}.executions += 1")
    _emit_env(em, ind, f"sh{i}")
    em.splice(ind, shaping._compiled.fragment(FragmentNames(
        prefix=f"t{i}_", owner=f"sh{i}._compiled",
        flow=_or_packet_flow(em, ind, flow),
        rank="rank", send_time="send_time")))
    em.w(ind, "if send_time is None:")
    em.w(ind + 1, "send_time = rank")
    em.w(ind + 1, "if send_time is None:")
    em.w(ind + 2, f"raise _RuntimeLangError({msg!r})")
    em.w(ind, "if send_time < time_now - 1e-12:")
    em.w(ind + 1, "send_time = time_now")


def _emit_push(em: _Emitter, ind: int, p: str, backend: str, capped: bool,
               element: str, rank: str = "rank") -> None:
    """Emit a fused ``{p}.push(element, rank)`` for the PIFO's backend."""
    full = f"PIFO %r is full (capacity=%s)' % ({p}.name, {p}.capacity)"
    if backend == "sorted":
        em.w(ind, f"entries = {p}._entries")
        if capped:
            em.w(ind, f"if len(entries) - {p}._front >= {p}_cap:")
            em.w(ind + 1, f"{p}.drops += 1")
            em.w(ind + 1, f"raise _PIFOFullError('{full})")
        em.w(ind, f"seq = {p}._seq")
        em.w(ind, f"item = ({rank}, seq, {element})")
        em.w(ind, "if not entries or item >= entries[-1]:")
        em.w(ind + 1, "entries.append(item)")
        em.w(ind, "else:")
        em.w(ind + 1, f"entries.insert(_bisect_right(entries, item, "
                      f"lo={p}._front), item)")
        em.w(ind, f"{p}._seq = seq + 1")
    elif backend in ("bucketed", "quantized"):
        if capped:
            em.w(ind, f"if {p}._size >= {p}_cap:")
            em.w(ind + 1, f"{p}.drops += 1")
            em.w(ind + 1, f"raise _PIFOFullError('{full})")
        if backend == "bucketed":
            em.w(ind, f"key = int({rank})")
            em.w(ind, f"if key != {rank}:")
            em.w(
                ind + 1,
                f"raise ValueError('BucketedPIFO %r requires integer ranks, "
                f"got %r' % ({p}.name, {rank}))",
            )
        else:
            em.w(ind, f"key = _floor({rank} / {p}_q)")
        em.w(ind, f"bks = {p}._buckets")
        em.w(ind, "bucket = bks.get(key)")
        em.w(ind, "if bucket is None:")
        em.w(ind + 1, "bucket = bks[key] = _deque()")
        em.w(ind + 1, f"_heappush({p}._rank_heap, key)")
        em.w(ind, f"seq = {p}._seq")
        em.w(ind, f"{p}._seq = seq + 1")
        em.w(ind, f"bucket.append(({rank}, seq, {element}))")
        em.w(ind, f"{p}._size += 1")
    elif backend == "calendar":
        if capped:
            em.w(ind, f"if len({p}._heap) >= {p}_cap:")
            em.w(ind + 1, f"{p}.drops += 1")
            em.w(ind + 1, f"raise _PIFOFullError('{full})")
        em.w(ind, f"seq = {p}._seq")
        em.w(ind, f"_heappush({p}._heap, ({rank}, seq, {element}))")
        em.w(ind, f"{p}._seq = seq + 1")
    else:
        em.w(ind, f"{p}.push({element}, {rank})")


def _emit_pop(em: _Emitter, ind: int, p: str, backend: str,
              on_empty: Optional[str]) -> None:
    """Emit the head pop of PIFO ``p`` into ``entry``, a ``(rank, seq,
    element)`` tuple; an empty PIFO runs the ``on_empty`` statement
    (``return None``, ``continue``, a raise).  ``on_empty=None`` follows
    :func:`_emit_head_test`, which found a head and left the backend's
    storage in the variables the pop reads."""
    if backend == "sorted":
        if on_empty is not None:
            em.w(ind, f"entries = {p}._entries")
            em.w(ind, f"front = {p}._front")
            em.w(ind, "if front >= len(entries):")
            em.w(ind + 1, on_empty)
        em.w(ind, "entry = entries[front]")
        em.w(ind, "entries[front] = None")
        em.w(ind, "front += 1")
        em.w(ind, "if front == len(entries):")
        em.w(ind + 1, "entries.clear()")
        em.w(ind + 1, f"{p}._front = 0")
        em.w(ind, f"elif front >= {SortedListPIFO._COMPACT_MIN} and front * 2 >= len(entries):")
        em.w(ind + 1, "del entries[:front]")
        em.w(ind + 1, f"{p}._front = 0")
        em.w(ind, "else:")
        em.w(ind + 1, f"{p}._front = front")
    elif backend in ("bucketed", "quantized"):
        if on_empty is not None:
            em.w(ind, f"if not {p}._size:")
            em.w(ind + 1, on_empty)
        em.w(ind, f"rh = {p}._rank_heap")
        em.w(ind, f"bks = {p}._buckets")
        em.w(ind, "while True:")
        em.w(ind + 1, "key = rh[0]")
        em.w(ind + 1, "bucket = bks.get(key)")
        em.w(ind + 1, "if bucket:")
        em.w(ind + 2, "break")
        em.w(ind + 1, "_heappop(rh)")
        em.w(ind + 1, "bks.pop(key, None)")
        em.w(ind, "entry = bucket.popleft()")
        em.w(ind, f"{p}._size -= 1")
        em.w(ind, "if not bucket:")
        em.w(ind + 1, "del bks[key]")
    elif backend == "calendar":
        if on_empty is not None:
            em.w(ind, f"heap = {p}._heap")
            em.w(ind, "if not heap:")
            em.w(ind + 1, on_empty)
        em.w(ind, "entry = _heappop(heap)")
    else:
        if on_empty is not None:
            em.w(ind, f"if {p}.is_empty:")
            em.w(ind + 1, on_empty)
        em.w(ind, f"entry = {p}.pop_entry()")


def _emit_head_test(em: _Emitter, ind: int, h: str, backend: str) -> str:
    """Emit what it takes to test that ``token`` is the head of shaping PIFO
    ``h`` and return the test: the negation of
    ``ProgrammableScheduler._calendar_entry_is_stale(token)``, read straight
    off the backend's storage where the kernel knows its layout."""
    if backend == "sorted":
        em.w(ind, f"entries = {h}._entries")
        em.w(ind, f"front = {h}._front")
        return "front < len(entries) and entries[front][2] is token"
    if backend == "calendar":
        em.w(ind, f"heap = {h}._heap")
        return "heap and heap[0][2] is token"
    return "not S._calendar_entry_is_stale(token)"


def _emit_hook(em: _Emitter, ind: int, i: int, sig: _NodeSig, tx,
               element: str, rank: str, child: Optional[str] = None) -> None:
    """Emit node ``i``'s ``on_dequeue`` for a popped element.

    ``element`` is the variable holding it; ``child`` names the referenced
    child when the element is a PIFO reference rather than a packet; ``tx``
    is the node's scheduling transaction.
    """
    hook = sig.hook
    if hook is None:
        return
    is_ref = child is not None
    flow = repr(child) if is_ref else f"{element}.flow"
    length = "0" if is_ref else f"{element}.length"
    if hook[0] == "splice" and not (is_ref and hook[2]):
        packet = element
        if not hook[2]:
            # The program reads nothing of the element (so a reference,
            # which has no packet, can run it): the same code for all.
            packet, flow, length = "None", "None", "0"
        _emit_env(em, ind, f"tx{i}", side="dequeue_")
        em.splice(ind, tx._dequeue_compiled.fragment(FragmentNames(
            prefix=f"d{i}_", owner=f"tx{i}._dequeue_compiled",
            packet=packet, now="now", flow=flow, length=length,
            args=(("dequeued_rank", rank),))))
        return
    em.w(ind, "dctx.now = now")
    em.w(ind, f"dctx.node = {sig.name!r}")
    em.w(ind, f"dctx.element_flow = {flow}")
    em.w(ind, f"dctx.element_length = {length}")
    em.w(ind, f"extras['rank'] = {rank}")
    em.w(ind, f"tx{i}.on_dequeue({element}, dctx)")


def _called_programs(sigs: List[_NodeSig]) -> Tuple[Tuple[str, str, str], ...]:
    """``(node, program, reason)`` for every lang program the kernel calls
    instead of splicing."""
    called = []
    for sig in sigs:
        if sig.tx[0] == "lang" and not sig.tx[2]:
            called.append((sig.name, sig.tx[1], sig.tx[3]))
        if sig.shaping is not None and sig.shaping[0] == "call" \
                and sig.shaping[1] is not None:
            called.append((sig.name, sig.shaping[1], sig.shaping[2]))
        if sig.hook is None or sig.tx[0] != "lang":
            continue
        dequeue_name = f"{sig.tx[1]}.dequeue"
        if sig.hook[0] == "call":
            called.append((sig.name, dequeue_name, sig.hook[1]))
        elif sig.hook[2] and sig.children:
            called.append((sig.name, dequeue_name,
                           "reads the packet: runs through on_dequeue on "
                           "PIFO references"))
    return tuple(called)


def _pred_expr(i: int, tag: Tuple) -> str:
    kind = tag[0]
    if kind == "all":
        return "True"
    if kind == "none":
        return "False"
    if kind == "class_eq":
        return f"packet.packet_class == {tag[1]!r}"
    if kind == "flow_eq":
        return f"packet.flow == {tag[1]!r}"
    if kind == "class_in":
        return f"packet.packet_class in {tag[1]}"
    if kind == "flow_in":
        return f"packet.flow in {tag[1]}"
    return f"q{i}(packet)"


def _generate(signature: Tuple[_NodeSig, ...],
              nodes: List[TreeNode]) -> Tuple[str, Dict[int, Tuple]]:
    """Emit the factory source for a tree shape, and its line table.

    The factory — ``_factory(S, nodes)`` — hoists every node's PIFO,
    transaction and state into locals (closure cells of the returned
    closures) and is shared by every scheduler with the same signature;
    ``nodes`` only lends its programs, whose fragments that signature keys.
    """
    sigs = list(signature)
    names = [sig.name for sig in sigs]
    children_of: List[List[int]] = []
    parent_of: Dict[int, int] = {}
    index_of = {id(node): i for i, node in enumerate(nodes)}
    for i, node in enumerate(nodes):
        kids = [index_of[id(child)] for child in node.children]
        children_of.append(kids)
        for ci in kids:
            parent_of[ci] = i
    shaped = [i for i, sig in enumerate(sigs) if sig.shaping is not None]

    def ancestors(i: int) -> List[int]:
        """Node ``i``'s parent-to-root chain."""
        chain = []
        while i in parent_of:
            i = parent_of[i]
            chain.append(i)
        return chain

    em = _Emitter()
    w = em.w
    w(0, "def _factory(S, nodes):")
    w(1, "stats = S.stats")
    w(1, "pfe = stats.per_flow_enqueued")
    w(1, "pfd = stats.per_flow_dequeued")
    w(1, "ectx = S._enq_ctx")
    w(1, "dctx = S._deq_ctx")
    w(1, "extras = dctx.extras")
    w(1, "root = nodes[0]")
    w(1, "version = root._subtree_version")
    if shaped:
        w(1, "cal = S._shaping_calendar")
    for i, sig in enumerate(sigs):
        w(1, f"n{i} = nodes[{i}]")
        w(1, f"p{i} = n{i}.scheduling_pifo")
        w(1, f"tx{i} = n{i}.scheduling")
        if sig.tx[0] == "arrival_seq":
            w(1, f"st{i} = tx{i}.state")
        if sig.tx[0] == "lang" and not _spliced(sig):
            w(1, f"x{i} = tx{i}._execute")
        if not sig.default_flow:
            w(1, f"f{i} = n{i}.flow_fn")
        if sig.pred[0] == "generic":
            w(1, f"q{i} = n{i}.predicate")
        if sig.capped:
            w(1, f"p{i}_cap = p{i}.capacity")
        if sig.backend == "quantized":
            w(1, f"p{i}_q = p{i}.quantum")
        if sig.shaping is not None:
            w(1, f"sh{i} = n{i}.shaping")
            w(1, f"h{i} = n{i}.shaping_pifo")
            if sig.shaping_backend == "quantized":
                w(1, f"h{i}_q = h{i}.quantum")

    for i in range(len(sigs)):
        # A walk starting here can suspend: its tokens share one path list.
        path = [i] + ancestors(i)
        if any(j in shaped for j in path):
            w(1, f"path{i} = [{', '.join(f'n{j}' for j in path)}]")

    guard_terms = ["stats is not S.stats", "root._subtree_version != version"]
    if shaped:
        guard_terms.append("cal is not S._shaping_calendar")
    for i, sig in enumerate(sigs):
        guard_terms.append(f"p{i} is not n{i}.scheduling_pifo")
        if sig.tx[0] == "arrival_seq":
            guard_terms.append(f"st{i} is not tx{i}.state")
        if sig.shaping is not None:
            guard_terms.append(f"h{i} is not n{i}.shaping_pifo")
    guard = " or ".join(guard_terms)

    def emit_walk(ind: int, chain: List[int], element: str, flow: str,
                  path: str, index: str = "") -> None:
        """Inline the transaction walk over ``chain`` (leaf-most first).

        ``element`` / ``flow`` are what the first node enqueues and the flow
        it sees; every later node enqueues a reference to its predecessor.
        The walk suspends after the first shaped node that has a parent on
        the chain: it parks a :class:`ShapingToken` and the rest runs in
        that node's resume block.  ``path`` is the expression for the
        token's full leaf-to-root path and ``index`` (``"<expr> + "``, empty
        for zero) the position of ``chain[0]`` in it.
        """
        run = chain
        for pos, i in enumerate(chain[:-1]):
            if sigs[i].shaping is not None:
                run = chain[:pos + 1]
                break
        suspends = len(run) < len(chain)
        if any(_ctx_needed(sigs[i]) for i in run):
            w(ind, "ectx.now = time_now")
            w(ind, "ectx.element_length = packet.length")
        if any(_spliced(sigs[i]) for i in run) or (
                suspends and sigs[run[-1]].shaping[0] == "splice"):
            w(ind, "length = packet.length")
        for pos, i in enumerate(run):
            sig = sigs[i]
            if pos:
                element, flow = f"n{chain[pos - 1]}", repr(names[chain[pos - 1]])
            if _ctx_needed(sig):
                w(ind, f"ectx.node = {names[i]!r}")
                w(ind, f"ectx.element_flow = {flow}")
            _emit_rank(em, ind, i, sig, flow, nodes[i].scheduling)
            _emit_push(em, ind, f"p{i}", sig.backend, sig.capped, element)
        if suspends:
            _emit_send_time(em, ind, i, sig, flow, nodes[i].shaping)
            w(ind, f"token = _ShapingToken(n{i}, packet, {path}, "
                   f"{index}{len(run)}, send_time)")
            _emit_push(em, ind, f"h{i}", sig.shaping_backend, False, "token",
                       rank="send_time")
            w(ind, "_heappush(cal, (send_time, S._calendar_seq, token))")
            w(ind, "S._calendar_seq += 1")

    # ---- enqueue ----------------------------------------------------------
    w(1, "def enqueue(packet, now=None):")
    w(2, f"if {guard}:")
    w(3, "return S._kernel_stale_enqueue(packet, now)")
    w(2, "time_now = packet.arrival_time if now is None else now")
    w(2, "try:")

    def emit_enqueue_walk(ind: int, down_path: List[int]) -> None:
        chain = list(reversed(down_path))
        leaf = chain[0]
        flow = "packet.flow" if sigs[leaf].default_flow else f"f{leaf}(packet)"
        emit_walk(ind, chain, "packet", flow, f"path{leaf}")

    def emit_descent(ind: int, i: int, down_path: List[int]) -> None:
        """Unroll the predicate descent; each outcome gets an inline walk."""
        kids = children_of[i]
        if not kids:
            emit_enqueue_walk(ind, down_path)
            return
        live = []
        for ci in kids:
            tag = sigs[ci].pred
            if tag[0] == "none":
                continue  # statically never matches
            w(ind, f"m{ci} = {_pred_expr(ci, tag)}")
            live.append(ci)
        if len(live) > 1:
            total = " + ".join(f"m{ci}" for ci in live)
            pairs = ", ".join(f"(n{ci}, m{ci})" for ci in live)
            msg = (
                "'packet %r matches multiple children %s of node %r; "
                f"predicates must be disjoint' % (packet, names, {names[i]!r})"
            )
            w(ind, f"if {total} > 1:")
            w(ind + 1, f"names = [n.name for n, m in ({pairs},) if m]")
            w(ind + 1, f"raise _TreeConfigurationError({msg})")
        first = True
        for ci in live:
            w(ind, f"{'if' if first else 'elif'} m{ci}:")
            emit_descent(ind + 1, ci, down_path + [ci])
            first = False
        if first:
            emit_enqueue_walk(ind, down_path)
        else:
            w(ind, "else:")
            emit_enqueue_walk(ind + 1, down_path)

    if sigs[0].pred[0] != "all":
        w(3, f"if not ({_pred_expr(0, sigs[0].pred)}):")
        w(
            4,
            "raise _TreeConfigurationError("
            "'packet %r does not match the root predicate' % (packet,))",
        )
    emit_descent(3, 0, [0])
    w(2, "except _PIFOFullError:")
    w(3, "if not S.drop_on_full:")
    w(4, "raise")
    w(3, "stats.dropped += 1")
    w(3, "return False")
    w(2, "packet.enqueue_time = time_now")
    w(2, "S._buffered_packets += 1")
    w(2, "flow = packet.flow")
    w(2, "try:")
    w(3, "pfe[flow] += 1")
    w(2, "except KeyError:")
    w(3, "pfe[flow] = 1")
    w(2, "return True")

    # ---- dequeue ----------------------------------------------------------
    w(1, "def dequeue(now=0.0):")
    w(2, f"if {guard}:")
    w(3, "return S._kernel_stale_dequeue(now)")
    if shaped:
        # process_shaping_releases, with each shaped node's resume walk (the
        # static parent-to-root remainder of its path) inlined.  Calendar
        # first, like ProgrammableScheduler.dequeue: tokens may be due even
        # when no packet has reached the root yet.
        w(2, "if cal:")
        w(3, "while cal and cal[0][0] <= now:")
        w(4, "token = _heappop(cal)[2]")
        w(4, "node = token.node")
        for k, i in enumerate(shaped):
            w(4, f"{'elif' if k else 'if'} node is n{i}:")
            # The guard above vouches for h{i} being the node's PIFO.
            live = _emit_head_test(em, 5, f"h{i}", sigs[i].shaping_backend)
            w(5, f"if not ({live}):")
            w(6, "continue")
            _emit_pop(em, 5, f"h{i}", sigs[i].shaping_backend, None)
            w(5, "stats.shaping_releases += 1")
            w(5, "packet = token.packet")
            w(5, "time_now = max(token.release_time, 0.0)")
            emit_walk(5, ancestors(i), f"n{i}", repr(names[i]), "token.path",
                      "token.resume_index + ")
        w(4, "elif not S._calendar_entry_is_stale(token):")
        w(5, "raise _SchedulerError('shaping token for node %r, which this "
             "kernel does not shape' % (node.name,))")
        w(2, "elif not S._buffered_packets:")
        w(3, "return None")
    else:
        w(2, "if not S._buffered_packets:")
        w(3, "return None")
    _emit_pop(em, 2, "p0", sigs[0].backend, "return None")
    w(2, "element = entry[2]")

    def emit_level(ind: int, i: int) -> None:
        """Unroll the descent below node ``i``: the tree is static, so a
        popped reference can only be one of ``i``'s children."""
        def hook(ind: int, child: Optional[str] = None) -> None:
            _emit_hook(em, ind, i, sigs[i], nodes[i].scheduling, "element",
                       "entry[0]", child)

        # A spliced hook that reads nothing of the element is the same
        # code whatever was popped: once, ahead of the dispatch.
        shared = (sigs[i].hook is not None and sigs[i].hook[0] == "splice"
                  and not sigs[i].hook[2])
        if shared:
            hook(ind)
        first = True
        for ci in children_of[i]:
            w(ind, f"{'if' if first else 'elif'} element is n{ci}:")
            first = False
            if not shared:
                hook(ind + 1, child=names[ci])
            dangling = (
                f"dangling reference: node {names[ci]!r} was referenced "
                "by its parent but its scheduling PIFO is empty"
            )
            _emit_pop(em, ind + 1, f"p{ci}", sigs[ci].backend,
                      f"raise _SchedulerError({dangling!r})")
            w(ind + 1, "element = entry[2]")
            emit_level(ind + 1, ci)
        if sigs[i].hook is None or shared:
            return
        if first:
            hook(ind)
        else:
            w(ind, "else:")
            hook(ind + 1)

    emit_level(2, 0)
    w(2, "element.dequeue_time = now")
    w(2, "S._buffered_packets -= 1")
    w(2, "flow = element.flow")
    w(2, "try:")
    w(3, "pfd[flow] += 1")
    w(2, "except KeyError:")
    w(3, "pfd[flow] = 1")
    w(2, "return element")

    # ---- transfer ---------------------------------------------------------
    # Enqueue + immediate dequeue for an idle transmitter.  The cut-through
    # body below only exists for single-node trees on a fused backend; it
    # performs every observable effect of the enqueue/dequeue pair — rank
    # computation, capacity/drop accounting, the PIFO's sequence number
    # (one more accepted, none buffered: a push and a pop), stamps, per-flow
    # tallies, the on_dequeue hook — but skips the push/pop round trip
    # through the PIFO's backing store, which is a no-op on an empty queue.
    # (``_buffered_packets`` net-zeroes across the pair, so the counter is
    # untouched.)
    root_sig = sigs[0]
    w(1, "def transfer(packet, now):")
    w(2, f"if {guard}:")
    w(3, "return S._kernel_stale_transfer(packet, now)")
    cut_through = len(sigs) == 1 and root_sig.backend in (
        "sorted", "calendar", "bucketed", "quantized"
    )
    if not cut_through:
        w(2, "if not enqueue(packet, now):")
        w(3, "return None")
        w(2, "return dequeue(now)")
    else:
        w(2, "if S._buffered_packets:")
        w(3, "if not enqueue(packet, now):")
        w(4, "return None")
        w(3, "return dequeue(now)")
        w(2, "time_now = now")
        backend, has_cap = root_sig.backend, root_sig.capped
        ind = 2
        if has_cap:
            w(2, "try:")
            ind = 3
        flow0 = "packet.flow" if root_sig.default_flow else "f0(packet)"
        if _ctx_needed(root_sig):
            w(ind, "ectx.now = time_now")
            w(ind, "ectx.element_length = packet.length")
            w(ind, f"ectx.node = {names[0]!r}")
            w(ind, f"ectx.element_flow = {flow0}")
        if _spliced(root_sig):
            w(ind, "length = packet.length")
        _emit_rank(em, ind, 0, root_sig, flow0, nodes[0].scheduling)
        full = "PIFO %r is full (capacity=%s)' % (p0.name, p0.capacity)"
        if has_cap:
            if backend == "sorted":
                w(ind, "if len(p0._entries) - p0._front >= p0_cap:")
            elif backend == "calendar":
                w(ind, "if len(p0._heap) >= p0_cap:")
            else:
                w(ind, "if p0._size >= p0_cap:")
            w(ind + 1, "p0.drops += 1")
            w(ind + 1, f"raise _PIFOFullError('{full})")
        if backend == "bucketed":
            w(ind, "if int(rank) != rank:")
            w(
                ind + 1,
                "raise ValueError('BucketedPIFO %r requires integer ranks, "
                "got %r' % (p0.name, rank))",
            )
        w(ind, "p0._seq += 1")
        if has_cap:
            w(2, "except _PIFOFullError:")
            w(3, "if not S.drop_on_full:")
            w(4, "raise")
            w(3, "stats.dropped += 1")
            w(3, "return None")
        w(2, "packet.enqueue_time = time_now")
        w(2, "flow = packet.flow")
        w(2, "try:")
        w(3, "pfe[flow] += 1")
        w(2, "except KeyError:")
        w(3, "pfe[flow] = 1")
        _emit_hook(em, 2, 0, root_sig, nodes[0].scheduling, "packet", "rank")
        w(2, "packet.dequeue_time = now")
        w(2, "try:")
        w(3, "pfd[flow] += 1")
        w(2, "except KeyError:")
        w(3, "pfd[flow] = 1")
        w(2, "return packet")

    # ---- next_release -----------------------------------------------------
    # ProgrammableScheduler.next_shaping_release: a port polls it after every
    # dequeue that yields nothing.  Guard-free — the calendar is read from S
    # and a hoisted shaping PIFO is only trusted while it still is the
    # token's node's — with the stale-head test inline per backend.
    w(1, "def next_release():")
    w(2, "cal = S._shaping_calendar")
    w(2, "while cal:")
    w(3, "head = cal[0]")
    w(3, "token = head[2]")
    w(3, "pifo = token.node.shaping_pifo")
    inline = [i for i in shaped
              if sigs[i].shaping_backend in ("sorted", "calendar")]
    for k, i in enumerate(inline):
        w(3, f"{'elif' if k else 'if'} pifo is h{i}:")
        live = _emit_head_test(em, 4, "pifo", sigs[i].shaping_backend)
        w(4, f"if {live}:")
        w(5, "return head[0]")
    w(3, f"{'elif' if inline else 'if'} not S._calendar_entry_is_stale(token):")
    w(4, "return head[0]")
    w(3, "_heappop(cal)")
    w(2, "return None")

    w(1, "return enqueue, dequeue, transfer, next_release")
    return em.text(), em.line_table


_GLOBALS = {
    **RUNTIME_GLOBALS,
    "_ShapingToken": ShapingToken,
    "_SchedulerError": SchedulerError,
    "_PIFOFullError": PIFOFullError,
    "_TreeConfigurationError": TreeConfigurationError,
    "_RuntimeLangError": RuntimeLangError,
    "_bisect_right": bisect_right,
    "_heappush": heappush,
    "_heappop": heappop,
    "_deque": deque,
    "_floor": floor,
}


def _factory_for(signature: Tuple,
                 nodes: List[TreeNode]) -> Tuple[Callable, str, str, Tuple]:
    cached = _CACHE.get(signature)
    if cached is not None:
        _stats["hits"] += 1
        return cached
    _stats["misses"] += 1
    source, line_table = _generate(signature, nodes)
    filename = f"<treekernel:{nodes[0].name}-{next(_filename_counter)}>"
    # Register with linecache so tracebacks through the kernel show the
    # generated source (same trick as repro.lang.compiler).
    linecache.cache[filename] = (
        len(source),
        None,
        source.splitlines(keepends=True),
        filename,
    )

    def replay(exc, compiled, *frame) -> None:
        """A spliced statement of ``compiled`` failed on a kernel line."""
        compiled._replay(exc, *frame, line_map=line_table)

    namespace: Dict[str, Any] = dict(_GLOBALS, _replay=replay)
    try:
        exec(compile(source, filename, "exec"), namespace)
    except SyntaxError as exc:  # pragma: no cover - codegen bug guard
        raise TreeKernelError(f"generated kernel failed to compile: {exc}") from exc
    factory = namespace["_factory"]
    entry = (factory, source, filename, _called_programs(list(signature)))
    _CACHE[signature] = entry
    while len(_CACHE) > _CACHE_CAPACITY:
        _CACHE.pop(next(iter(_CACHE)))
    return entry


def compile_tree_kernel(scheduler) -> TreeKernel:
    """Compile (or fetch from cache) the fused kernel for ``scheduler``.

    Raises :class:`TreeKernelError` (counted as a fallback) for a scheduler
    subclass; the scheduler then stays on the interpreted methods.
    """
    try:
        signature = tree_signature(scheduler)
    except TreeKernelError:
        _stats["fallbacks"] += 1
        raise
    nodes = scheduler.tree.nodes()
    factory, source, filename, called = _factory_for(signature, nodes)
    closures = factory(scheduler, nodes)
    _stats["installs"] += 1
    _stats["called_programs"] += len(called)
    return TreeKernel(*closures, signature, source, filename, called)
