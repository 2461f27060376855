"""Property-based lockstep equivalence: interpreter vs compiler.

For every program bundled in :mod:`repro.lang.programs`, hypothesis drives
random packet sequences through the interpreter and the compiled closure in
lockstep — fresh, isolated environments, identical inputs per step — and
requires the two paths to agree *exactly* at every step:

* the :class:`ExecutionResult` (rank, send time, every packet write, every
  local) is identical,
* the persistent state trajectory is identical,
* and when one path raises, the other raises the same
  :class:`RuntimeLangError` with the same message, leaving identical state.

Exact ``==`` (not approx) is intentional: both paths must perform the same
float operations in the same order, so bit-identical results are part of
the compiled-backend contract.

The compiled program's *inline fragment* — what the tree kernel splices
into its walk — rides along as a third leg, spliced into a one-node kernel:
same rank (and, for a shaping program pacing a child of a FIFO root, the
same send time), the packet fields the bridge would have persisted, the
same state, the same error.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import FIFOTransaction
from repro.core import (
    Packet,
    ProgrammableScheduler,
    ScheduleTree,
    TransactionContext,
    TreeNode,
    single_node_tree,
)
from repro.lang import Interpreter, ProgramEnvironment, RuntimeLangError, parse
from repro.lang.bridge import (
    CompiledSchedulingTransaction,
    CompiledShapingTransaction,
)
from repro.lang.compiler import compile_program
from repro.lang.programs import (
    PROGRAM_SOURCES,
    PROGRAM_STATE,
    SHAPING_PROGRAMS,
    STFQ_DEQUEUE_SOURCE,
)

#: Parameters each program needs (mirrors DEFAULT_FACTORIES' choices).
PROGRAM_PARAMS = {
    "token_bucket": {"r": 1.25e6, "B": 3000.0},
    "stop_and_go": {"T": 1e-3},
    "min_rate": {"min_rate": 1.25e6, "BURST_SIZE": 3000.0},
}

#: Flow-attribute accessors each program needs.
PROGRAM_FLOW_ATTRS = {
    "stfq": {"weight": lambda flow: {"a": 1.0, "b": 2.0, "c": 0.5}.get(flow, 1.0)},
}

ALL_PROGRAMS = sorted(PROGRAM_SOURCES)

#: Every metadata field any bundled program reads, so the "rich packet"
#: strategy exercises success paths for all of them.
RICH_FIELDS = ("slack", "prev_wait_time", "flow_size", "remaining_size", "deadline")


def arrivals_strategy(rich: bool):
    field_values = st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    )
    fields = (
        st.fixed_dictionaries({name: field_values for name in RICH_FIELDS})
        if rich
        # Sparse packets: most fields missing, so field reads often fail —
        # the error paths must stay equivalent too.
        else st.dictionaries(st.sampled_from(RICH_FIELDS), field_values, max_size=2)
    )
    return st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),                    # flow
            st.integers(min_value=1, max_value=9000),            # length
            st.floats(min_value=0.0, max_value=0.02,
                      allow_nan=False),                          # inter-arrival gap
            st.integers(min_value=0, max_value=7),               # priority
            fields,
        ),
        min_size=1,
        max_size=30,
    )


def _fresh_env(name):
    state = {
        key: (dict(value) if isinstance(value, dict) else value)
        for key, value in PROGRAM_STATE[name].items()
    }
    return ProgramEnvironment(
        state=state,
        params=dict(PROGRAM_PARAMS.get(name, {})),
        flow_attrs=dict(PROGRAM_FLOW_ATTRS.get(name, {})),
    )


def _step(execute, env, flow, length, now, priority, fields):
    packet = Packet(flow=flow, length=length, priority=priority,
                    fields=dict(fields))
    ctx = TransactionContext(now=now, node="n", element_flow=flow,
                             element_length=length)
    try:
        result = execute(packet, ctx, env)
        return (
            "ok",
            result.rank,
            result.send_time,
            result.packet_writes,
            result.locals,
        )
    except RuntimeLangError as exc:
        return ("err", str(exc))


def _program_kwargs(name):
    return dict(
        state=PROGRAM_STATE[name],
        params=PROGRAM_PARAMS.get(name, {}),
        flow_attrs=PROGRAM_FLOW_ATTRS.get(name, {}),
        name=name,
    )


def _fully_spliced(scheduler):
    kernel = scheduler.tree_kernel
    return kernel is not None and kernel.called_programs == ()


class _SplicedRanking:
    """``name`` spliced as the scheduling program of a one-node kernel."""

    def __init__(self, name):
        self.transaction = CompiledSchedulingTransaction(
            PROGRAM_SOURCES[name], **_program_kwargs(name))
        self.scheduler = ProgrammableScheduler(
            single_node_tree(self.transaction))
        assert _fully_spliced(self.scheduler)

    def step(self, flow, length, now, priority, fields):
        """The kernel's observable outcome, in ``_step``'s terms: the rank
        it pushed at plus the packet fields it left behind."""
        packet = Packet(flow=flow, length=length, priority=priority,
                        fields=dict(fields))
        try:
            assert self.scheduler.enqueue(packet, now=now)
        except RuntimeLangError as exc:
            return ("err", str(exc), dict(packet.fields))
        rank = self.scheduler.tree.root.scheduling_pifo.peek_rank()
        assert self.scheduler.dequeue(now) is packet
        return ("ok", rank, dict(packet.fields))


class _SplicedShaping:
    """``name`` spliced as the shaping program of a FIFO root's child."""

    def __init__(self, name):
        self.transaction = CompiledShapingTransaction(
            PROGRAM_SOURCES[name], **_program_kwargs(name))
        root = TreeNode(name="root", scheduling=FIFOTransaction())
        self.shaped = root.add_child(TreeNode(
            name="shaped", scheduling=FIFOTransaction(),
            shaping=self.transaction))
        self.scheduler = ProgrammableScheduler(ScheduleTree(root))
        assert _fully_spliced(self.scheduler)

    def step(self, flow, length, now, priority, fields):
        """The release time the kernel parked the packet's token at (the
        bundled shaping programs read no packet field: they cannot fail)."""
        packet = Packet(flow=flow, length=length, priority=priority,
                        fields=dict(fields))
        assert self.scheduler.enqueue(packet, now=now)
        token = self.shaped.shaping_pifo.peek()
        assert token.packet is packet
        # Release it at once so the next step's token is the head again.
        assert self.scheduler.dequeue(token.release_time) is packet
        return (token.release_time, dict(packet.fields))


def _persisted(out, fields):
    """The packet fields a kernel must leave behind, given ``execute``'s
    outcome: the bridge persists every write but ``rank`` / ``send_time``,
    and nothing when the program raised."""
    persisted = dict(fields)
    if out[0] == "ok":
        persisted.update((name, value) for name, value in out[3].items()
                         if name not in ("rank", "send_time"))
    return persisted


def _expected_of_ranking(out, fields):
    if out[0] == "err":
        return ("err", out[1], _persisted(out, fields))
    return ("ok", out[1], _persisted(out, fields))


def _expected_of_shaping(out, fields, now):
    """``ShapingTransaction.__call__``: the send time, else the rank,
    never earlier than ``now``."""
    kind, rank, send_time = out[:3]
    assert kind == "ok"
    if send_time is None:
        send_time = rank
    if send_time < now - 1e-12:
        send_time = now
    return (send_time, _persisted(out, fields))


def drive_lockstep(name, arrivals):
    program = parse(PROGRAM_SOURCES[name])
    interpreter = Interpreter(program)
    compiled = compile_program(
        program,
        state=PROGRAM_STATE[name],
        params=PROGRAM_PARAMS.get(name, {}),
        name=name,
    )
    env_i = _fresh_env(name)
    env_c = _fresh_env(name)
    ranking = _SplicedRanking(name)
    shaping = _SplicedShaping(name) if name in SHAPING_PROGRAMS else None
    now = 0.0
    for step, (flow, length, gap, priority, fields) in enumerate(arrivals):
        now += gap
        out_i = _step(interpreter.execute, env_i, flow, length, now, priority, fields)
        out_c = _step(compiled.execute, env_c, flow, length, now, priority, fields)
        out_r = ranking.step(flow, length, now, priority, fields)
        assert out_c == out_i, (
            f"{name} diverged at step {step}: interpreter {out_i!r} "
            f"vs compiled {out_c!r}"
        )
        assert out_r == _expected_of_ranking(out_c, fields), (
            f"{name} spliced as a ranking program diverged at step {step}: "
            f"{out_r!r} vs execute {out_c!r}"
        )
        assert env_c.state == env_i.state == ranking.transaction.state, (
            f"{name} state diverged at step {step}"
        )
        if shaping is not None:
            out_s = shaping.step(flow, length, now, priority, fields)
            assert out_s == _expected_of_shaping(out_c, fields, now), (
                f"{name} spliced as a shaping program diverged at step "
                f"{step}: {out_s!r} vs execute {out_c!r}"
            )
            assert shaping.transaction.state == env_i.state


@pytest.mark.parametrize("name", ALL_PROGRAMS)
@settings(max_examples=25, deadline=None)
@given(arrivals=arrivals_strategy(rich=True))
def test_lockstep_equivalence_rich_packets(name, arrivals):
    """Success-path equivalence: every field present, ranks/state identical."""
    drive_lockstep(name, arrivals)


@pytest.mark.parametrize("name", ALL_PROGRAMS)
@settings(max_examples=25, deadline=None)
@given(arrivals=arrivals_strategy(rich=False))
def test_lockstep_equivalence_sparse_packets(name, arrivals):
    """Error-path equivalence: missing fields must raise identically."""
    drive_lockstep(name, arrivals)


@settings(max_examples=30, deadline=None)
@given(
    ranks=st.lists(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
def test_lockstep_equivalence_stfq_dequeue_program(ranks):
    """The dequeue-side program (dynamic ``dequeued_rank`` parameter) stays
    equivalent across random dequeue rank sequences."""
    program = parse(STFQ_DEQUEUE_SOURCE)
    interpreter = Interpreter(program)
    compiled = compile_program(
        program,
        state={"virtual_time": 0.0},
        params={"dequeued_rank": 0.0},
        dynamic_params=("dequeued_rank",),
        name="stfq.dequeue",
    )
    env_i = ProgramEnvironment(state={"virtual_time": 0.0},
                               params={"dequeued_rank": 0.0})
    env_c = ProgramEnvironment(state={"virtual_time": 0.0},
                               params={"dequeued_rank": 0.0})
    # Spliced: the dequeue hook of a one-node kernel whose ranks come off a
    # packet field; the program reads no packet, only ``dequeued_rank``.
    assert not compiled.reads_packet
    spliced = CompiledSchedulingTransaction(
        "p.rank = p.want\n", state={"virtual_time": 0.0},
        dequeue_source=STFQ_DEQUEUE_SOURCE, name="want")
    scheduler = ProgrammableScheduler(single_node_tree(spliced))
    assert _fully_spliced(scheduler)
    packet = Packet(flow="a", length=100)
    for step, rank in enumerate(ranks):
        env_i.params["dequeued_rank"] = rank
        env_c.params["dequeued_rank"] = rank
        ctx = TransactionContext(now=0.0, node="n", element_flow="a",
                                 element_length=100)
        out_i = interpreter.execute(packet, ctx, env_i)
        out_c = compiled.execute(packet, ctx, env_c)
        wanted = Packet(flow="a", length=100, fields={"want": rank})
        if step % 2:
            # The cut-through transfer runs the hook as well.
            assert scheduler.transfer(wanted, 0.0) is wanted
        else:
            assert scheduler.enqueue(wanted, now=0.0)
            assert scheduler.dequeue(0.0) is wanted
        assert out_c.packet_writes == out_i.packet_writes
        assert env_c.state == env_i.state == spliced.state


def test_spliced_hook_replays_errors_with_its_arguments():
    """A failing hook program raises the interpreter's error out of the
    kernel too: the replay sees the popped rank as the parameter it stands
    for, and — like ``on_dequeue`` — a hook persists no packet writes."""
    source = ("p.seen = dequeued_rank\ncount = count + 1\n"
              "ratio = dequeued_rank / (dequeued_rank - limit)\n")
    program = parse(source)
    outcomes = []
    for rank in (1.0, 2.0, 4.0):
        env_i = ProgramEnvironment(state={"count": 0, "ratio": 0.0},
                                   params={"limit": 2.0, "dequeued_rank": rank})
        spliced = CompiledSchedulingTransaction(
            "p.rank = p.want\n", state={"count": 0, "ratio": 0.0},
            params={"limit": 2.0}, dequeue_source=source, name="hook")
        scheduler = ProgrammableScheduler(single_node_tree(spliced))
        assert _fully_spliced(scheduler)
        packet_i = Packet(flow="a", length=100)
        packet_s = Packet(flow="a", length=100, fields={"want": rank})
        ctx = TransactionContext(now=1.0, node="n", element_flow="a",
                                 element_length=100)
        assert scheduler.enqueue(packet_s, now=1.0)
        results = []
        for call in (lambda: Interpreter(program).execute(packet_i, ctx, env_i),
                     lambda: scheduler.dequeue(1.0)):
            try:
                call()
                results.append("ok")
            except RuntimeLangError as exc:
                results.append(str(exc))
        assert results[0] == results[1]
        assert spliced.state == env_i.state
        assert "seen" not in packet_s.fields
        outcomes.append(results[0])
    assert outcomes[0] == outcomes[2] == "ok" and "zero" in outcomes[1]


def test_lockstep_covers_every_bundled_program():
    """Smoke-drive every bundled program through the lockstep harness (the
    parametrized hypothesis tests above auto-grow with PROGRAM_SOURCES; this
    catches a program whose params/flow_attrs wiring here went stale)."""
    for name in ALL_PROGRAMS:
        drive_lockstep(
            name,
            [("a", 1500, 0.001, 3,
              {field: 10.0 for field in RICH_FIELDS})] * 5,
        )
