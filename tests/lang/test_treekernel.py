"""Fused whole-tree kernels: install rules, cache, ownership, equivalence.

:mod:`repro.lang.treekernel` compiles a scheduler's entire tree (shape +
per-node transaction programs) into one generated-Python kernel whose
``enqueue`` / ``dequeue`` / ``transfer`` closures are bound as instance
attributes of the :class:`~repro.core.ProgrammableScheduler`.  These tests
pin the contract that makes that safe:

* the kernel installs by default and is observationally identical to the
  interpreted engine (stats, counters, departure order, timestamps);
* every tree fuses, shaping included; a kernel that fails to build
  raises (and is counted), and a scheduler subclass is refused outright;
* kernels are cached by tree-shape signature and specialised once: the
  scheduler owns its sealed tree, storage moves only through
  ``scheduler.use_backend`` and every reset refills state in place;
* lang programs are spliced into the kernel: errors are the interpreter's,
  no fragment sees another's locals, and a program that cannot be a
  fragment is called, listed with the reason, and still in lockstep;
* ``transfer`` (the cut-through enqueue+dequeue used by the fused fabric
  datapath) matches the composition exactly, including drops and backend
  type errors.
"""

from __future__ import annotations

import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    ArrivalSequenceTransaction,
    CBQClass,
    ClassPriorityTransaction,
    CollapsedMinRateTransaction,
    EarliestDeadlineFirstTransaction,
    FieldRankTransaction,
    FIFOTransaction,
    JitterEDDRegulator,
    LatencyRateCurve,
    LeastAttainedServiceTransaction,
    LSTFTransaction,
    MinRateTransaction,
    PerHopDeadlineTransaction,
    SCEDTransaction,
    ShortestJobFirstTransaction,
    SRPTTransaction,
    STFQTransaction,
    StopAndGoShapingTransaction,
    StrictPriorityTransaction,
    TokenBucketShapingTransaction,
    WFQTransaction,
    build_cbq_tree,
    build_collapsed_min_rate_tree,
    build_fig3_tree,
    build_fig4_tree,
    build_hierarchical_round_robin_tree,
    build_jitter_edd_tree,
    build_min_rate_tree,
    hierarchy_flows,
)
from repro.core import (
    ProgrammableScheduler,
    ScheduleTree,
    ShapingToken,
    TreeNode,
    single_node_tree,
)
from repro.core.packet import Packet
from repro.core.pifo import PIFOFullError
from repro.core.predicates import ClassIn, FlowIn
from repro.exceptions import SchedulerError, TreeConfigurationError
from repro.lang import RuntimeLangError
from repro.lang.bridge import compile_scheduling_program
from repro.lang.programs import (
    DEFAULT_FACTORIES,
    SHAPING_PROGRAMS,
    stfq_program,
    token_bucket_program,
)
from repro.lang.trees import build_fig4_tree_from_programs
from repro.lang.treekernel import (
    TreeKernelError,
    clear_kernel_cache,
    kernel_cache_info,
)

BACKENDS = ["sorted", "calendar", "quantized"]


def _fifo_scheduler(**kwargs):
    return ProgrammableScheduler(
        single_node_tree(ArrivalSequenceTransaction()), **kwargs
    )


class _Custom(ProgrammableScheduler):
    """Refused: the kernel's closures would shadow its overrides."""


def _drain(scheduler, now=1.0):
    out = []
    while True:
        packet = scheduler.dequeue(now=now)
        if packet is None:
            return out
        out.append(packet.flow)


class TestInstall:
    def test_kernel_installed_by_default(self):
        scheduler = _fifo_scheduler()
        assert scheduler.tree_kernel is not None
        # The fused closures shadow the class methods.
        assert "enqueue" in scheduler.__dict__
        assert "dequeue" in scheduler.__dict__
        assert "transfer" in scheduler.__dict__

    def test_set_tree_kernel_toggles(self):
        scheduler = _fifo_scheduler()
        scheduler.set_tree_kernel(False)
        assert scheduler.tree_kernel is None
        assert "enqueue" not in scheduler.__dict__
        # Still fully functional interpreted.
        assert scheduler.enqueue(Packet(flow="a", length=100), now=0.0)
        assert scheduler.dequeue(now=0.0).flow == "a"
        scheduler.set_tree_kernel(True)
        assert scheduler.tree_kernel is not None

    def test_subclass_rejected(self):
        tree = single_node_tree(ArrivalSequenceTransaction())
        with pytest.raises(TypeError, match="subclasses the final ProgrammableScheduler"):
            _Custom(tree)
        with pytest.raises(TypeError):
            _Custom(tree, tree_kernel=False)
        # The refused subclass did not take the tree.
        assert ProgrammableScheduler(tree).tree_kernel is not None

    def test_shaping_tree_fuses(self):
        scheduler = ProgrammableScheduler(build_fig4_tree())
        assert scheduler.tree_kernel is not None
        # Shaping can hold packets back, so a port may not cut through.
        assert not scheduler.tree_kernel.work_conserving
        assert not scheduler.kernel_work_conserving
        assert ProgrammableScheduler(build_fig3_tree()).kernel_work_conserving

    def test_multi_node_tree_fuses(self):
        scheduler = ProgrammableScheduler(build_fig3_tree())
        assert scheduler.tree_kernel is not None

    def test_kernel_source_registered_in_linecache(self):
        import linecache

        kernel = _fifo_scheduler().tree_kernel
        assert kernel.filename.startswith("<treekernel:")
        assert linecache.cache[kernel.filename][2]


class TestCache:
    def test_same_shape_hits_cache(self):
        clear_kernel_cache()
        _fifo_scheduler()
        after_first = kernel_cache_info()
        _fifo_scheduler()
        after_second = kernel_cache_info()
        assert after_first["misses"] == 1
        assert after_second["misses"] == 1
        assert after_second["hits"] == after_first["hits"] + 1
        assert after_second["installs"] == after_first["installs"] + 1

    def test_different_backend_different_kernel(self):
        clear_kernel_cache()
        a = _fifo_scheduler()
        b = _fifo_scheduler(pifo_backend="calendar")
        assert a.tree_kernel.signature != b.tree_kernel.signature
        assert kernel_cache_info()["misses"] >= 2

    def test_failed_build_raises_and_is_counted(self, monkeypatch):
        import repro.lang.treekernel as treekernel

        def broken(signature, nodes):
            raise TreeKernelError("generated kernel failed to compile")

        clear_kernel_cache()
        monkeypatch.setattr(treekernel, "_generate", broken)
        tree = single_node_tree(ArrivalSequenceTransaction())
        with pytest.raises(TreeKernelError):
            ProgrammableScheduler(tree)
        info = kernel_cache_info()
        assert (info["fallbacks"], info["installs"]) == (1, 0)
        # Declining the kernel is an explicit choice, not a fallback; the
        # failed construction left the tree free for it.
        assert ProgrammableScheduler(tree, tree_kernel=False).tree_kernel is None
        assert kernel_cache_info()["fallbacks"] == 1


class TestStaleness:
    """A kernel cannot go stale: nothing it hoisted can be replaced."""

    def test_direct_tree_use_backend_rejected(self):
        scheduler = _fifo_scheduler()
        kernel, pifo = scheduler.tree_kernel, scheduler.tree.root.scheduling_pifo
        with pytest.raises(TreeConfigurationError,
                           match="ProgrammableScheduler.use_backend"):
            scheduler.tree.use_backend("calendar")
        with pytest.raises(TreeConfigurationError,
                           match="ProgrammableScheduler.use_backend"):
            scheduler.tree.root.use_backend("calendar")
        assert scheduler.tree.root.scheduling_pifo is pifo
        assert scheduler.tree_kernel is kernel
        packet = Packet(flow="a", length=100)
        assert scheduler.transfer(packet, 0.0) is packet

    def test_second_scheduler_over_one_tree_rejected(self):
        scheduler = _fifo_scheduler()
        with pytest.raises(TreeConfigurationError, match="already runs"):
            ProgrammableScheduler(scheduler.tree)
        with pytest.raises(TreeConfigurationError, match="already runs"):
            ProgrammableScheduler(scheduler.tree, tree_kernel=False)
        assert scheduler.tree.owner is scheduler

    def test_scheduler_use_backend_respecialises(self):
        scheduler = _fifo_scheduler()
        before = scheduler.tree_kernel
        scheduler.use_backend("quantized")
        assert scheduler.tree_kernel is not before

    @pytest.mark.parametrize("build", [build_fig4_tree,
                                       build_fig4_tree_from_programs])
    def test_reset_and_restore_keep_state_objects(self, build):
        def transactions(scheduler):
            return [tx for node in scheduler.tree.nodes()
                    for tx in (node.scheduling, node.shaping) if tx is not None]

        def run(scheduler):
            for k in range(15):
                packet = Packet(flow="ABCDE"[k % 5], length=1000)
                assert scheduler.enqueue(packet, now=k * 1e-4)
            return [(p.flow, p.dequeue_time)
                    for p in scheduler.drain_timed(until=1.0)]

        fused = ProgrammableScheduler(build())
        plain = ProgrammableScheduler(build(), tree_kernel=False)
        states = [tx.state for tx in transactions(fused)]
        stats, kernel = fused.stats, fused.tree_kernel
        installs = kernel_cache_info()["installs"]
        run(fused)
        snapshots = [tx.snapshot() for tx in transactions(fused)]
        for scheduler in (fused, plain):
            scheduler.reset()
            for tx, snapshot in zip(transactions(scheduler), snapshots):
                tx.restore(snapshot)
        assert all(tx.state is state
                   for tx, state in zip(transactions(fused), states))
        assert fused.stats is stats and fused.tree_kernel is kernel
        assert kernel_cache_info()["installs"] == installs
        # The kernel keeps scheduling over the refilled objects, exactly
        # as the class methods do from the same restored state.
        assert run(fused) == run(plain)
        assert fused.stats == plain.stats

    def test_reset_keeps_kernel_working(self):
        scheduler = _fifo_scheduler()
        scheduler.enqueue(Packet(flow="a", length=100), now=0.0)
        scheduler.reset()
        packet = Packet(flow="b", length=100)
        assert scheduler.enqueue(packet, now=0.0)
        assert scheduler.dequeue(now=0.0) is packet
        assert scheduler.stats.enqueued == 1


class TestDrops:
    def _capped(self, drop_on_full):
        return ProgrammableScheduler(
            single_node_tree(ArrivalSequenceTransaction(), pifo_capacity=2),
            drop_on_full=drop_on_full,
        )

    def test_drop_on_full_returns_false(self):
        scheduler = self._capped(drop_on_full=True)
        assert scheduler.enqueue(Packet(flow="a", length=100), now=0.0)
        assert scheduler.enqueue(Packet(flow="b", length=100), now=0.0)
        assert not scheduler.enqueue(Packet(flow="c", length=100), now=0.0)
        assert scheduler.stats.dropped == 1
        assert scheduler.stats.enqueued == 2

    def test_no_drop_raises(self):
        scheduler = self._capped(drop_on_full=False)
        scheduler.enqueue(Packet(flow="a", length=100), now=0.0)
        scheduler.enqueue(Packet(flow="b", length=100), now=0.0)
        with pytest.raises(PIFOFullError):
            scheduler.enqueue(Packet(flow="c", length=100), now=0.0)

    def test_interpreted_agrees(self):
        fused = self._capped(drop_on_full=True)
        plain = self._capped(drop_on_full=True)
        plain.set_tree_kernel(False)
        for flow in "abcd":
            assert (fused.enqueue(Packet(flow=flow, length=100), now=0.0)
                    == plain.enqueue(Packet(flow=flow, length=100), now=0.0))
        assert fused.stats == plain.stats


@pytest.mark.parametrize("backend", BACKENDS)
class TestLockstepSingleNode:
    def test_departure_order_and_stats(self, backend):
        fused = ProgrammableScheduler(
            single_node_tree(ArrivalSequenceTransaction()),
            pifo_backend=backend,
        )
        plain = ProgrammableScheduler(
            single_node_tree(ArrivalSequenceTransaction()),
            pifo_backend=backend,
        )
        plain.set_tree_kernel(False)
        assert fused.tree_kernel is not None and plain.tree_kernel is None
        packets = [Packet(flow=f"f{i % 4}", length=64 + i) for i in range(50)]
        twins = [Packet(flow=p.flow, length=p.length) for p in packets]
        for packet, twin in zip(packets, twins):
            assert (fused.enqueue(packet, now=0.25)
                    == plain.enqueue(twin, now=0.25))
        assert _drain(fused) == _drain(plain)
        assert fused.stats == plain.stats
        fp, pp = (fused.tree.root.scheduling_pifo,
                  plain.tree.root.scheduling_pifo)
        assert (fp.pushes, fp.pops) == (pp.pushes, pp.pops)


@pytest.mark.parametrize("backend", ["sorted", "calendar"])
class TestLockstepHierarchy:
    def test_fig3_hpfq_identical(self, backend):
        fused = ProgrammableScheduler(build_fig3_tree(),
                                      pifo_backend=backend)
        plain = ProgrammableScheduler(build_fig3_tree(),
                                      pifo_backend=backend)
        plain.set_tree_kernel(False)
        flows = [f for leaf in hierarchy_flows(build_fig3_tree()).values()
                 for f in leaf]
        for i in range(80):
            flow = flows[i % len(flows)]
            length = 200 + 37 * (i % 7)
            assert (fused.enqueue(Packet(flow=flow, length=length), now=0.0)
                    == plain.enqueue(Packet(flow=flow, length=length), now=0.0))
            if i % 3 == 2:
                a, b = fused.dequeue(now=0.0), plain.dequeue(now=0.0)
                assert (a.flow, a.length) == (b.flow, b.length)
        assert _drain(fused) == _drain(plain)
        assert fused.stats == plain.stats


class TestTransfer:
    def _pifo_counters(self, scheduler):
        pifo = scheduler.tree.root.scheduling_pifo
        return (pifo.pushes, pifo.pops, pifo._seq, len(pifo))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_tree_cut_through_equivalent(self, backend):
        via_transfer = ProgrammableScheduler(
            single_node_tree(ArrivalSequenceTransaction()),
            pifo_backend=backend,
        )
        via_compose = ProgrammableScheduler(
            single_node_tree(ArrivalSequenceTransaction()),
            pifo_backend=backend,
        )
        for i in range(10):
            p1 = Packet(flow=f"f{i % 2}", length=120)
            p2 = Packet(flow=f"f{i % 2}", length=120)
            head = via_transfer.transfer(p1, float(i))
            assert via_compose.enqueue(p2, now=float(i))
            twin = via_compose.dequeue(now=float(i))
            assert head is p1 and twin is p2
            assert (p1.enqueue_time, p1.dequeue_time) == (
                p2.enqueue_time, p2.dequeue_time)
        assert via_transfer.stats == via_compose.stats
        assert (self._pifo_counters(via_transfer)
                == self._pifo_counters(via_compose))

    def test_nonempty_tree_composes(self):
        scheduler = _fifo_scheduler()
        first = Packet(flow="queued", length=100)
        assert scheduler.enqueue(first, now=0.0)
        later = Packet(flow="later", length=100)
        # FIFO order: the buffered packet must come out, not the new one.
        head = scheduler.transfer(later, 1.0)
        assert head is first
        assert scheduler.dequeue(now=1.0) is later

    def test_transfer_full_pifo_drops(self):
        scheduler = ProgrammableScheduler(
            single_node_tree(ArrivalSequenceTransaction(), pifo_capacity=1),
            drop_on_full=True,
        )
        assert scheduler.enqueue(Packet(flow="a", length=100), now=0.0)
        assert scheduler.transfer(Packet(flow="b", length=100), 0.0) is None
        assert scheduler.stats.dropped == 1

    def test_transfer_counts_match_fabric_expectations(self):
        scheduler = _fifo_scheduler()
        packet = Packet(flow="a", length=100)
        assert scheduler.transfer(packet, 2.0) is packet
        assert len(scheduler) == 0
        assert scheduler.stats.enqueued == scheduler.stats.dequeued == 1
        assert scheduler.stats.per_flow_enqueued == {"a": 1}
        assert scheduler.stats.per_flow_dequeued == {"a": 1}
        assert packet.enqueue_time == 2.0
        assert packet.dequeue_time == 2.0


# --------------------------------------------------------------------------- #
# Shaping: suspend / resume inside the kernel                                  #
# --------------------------------------------------------------------------- #
def _seq_stop_and_go_tree():
    """Integer ranks everywhere and a bounded root: a resume that finds it
    full raises out of ``dequeue``."""
    root = TreeNode(name="root", scheduling=ArrivalSequenceTransaction(),
                    pifo_capacity=3)
    root.add_child(TreeNode(
        name="framed", predicate=FlowIn(["x", "y"]),
        scheduling=ArrivalSequenceTransaction(),
        shaping=StopAndGoShapingTransaction(frame_length=3e-4)))
    return ScheduleTree(root)


def _two_level_shaping_tree():
    """Two shaped nodes on one path: a resume that suspends again."""
    root = TreeNode(name="root", scheduling=FIFOTransaction())
    middle = root.add_child(TreeNode(
        name="middle", predicate=FlowIn(["x", "y"]),
        scheduling=STFQTransaction(weights={"inner": 1.0}),
        shaping=StopAndGoShapingTransaction(frame_length=4e-4)))
    middle.add_child(TreeNode(
        name="inner", predicate=FlowIn(["x"]),
        scheduling=stfq_program(weights={"x": 2.0}),
        shaping=token_bucket_program(rate_bytes_per_s=1.25e6,
                                     burst_bytes=1500.0)))
    return ScheduleTree(root)


#: label -> (tree builder, flows offered).
SHAPED_TREES = {
    "fig4_programs": (build_fig4_tree_from_programs, "ABCDE"),
    "fig4_interpreted_lang": (
        lambda: build_fig4_tree_from_programs(backend="interpreted"),
        "ABCDE"),
    "fig4_native": (build_fig4_tree, "ABCDE"),
    "jitter_edd": (lambda: build_jitter_edd_tree({"x": 1e-4, "y": 3e-4}),
                   "xyz"),
    "hrr_stop_and_go": (
        lambda: build_hierarchical_round_robin_tree(
            {"fine": {"x": 1.0}, "coarse": {"y": 1.0}},
            {"fine": 2e-4, "coarse": 5e-4}),
        "xyz"),
    "seq_stop_and_go": (_seq_stop_and_go_tree, "xyz"),
    "two_level": (_two_level_shaping_tree, "xyz"),
}


def _outcome(call):
    """A call's result, or the exception it raised, as comparable data."""
    try:
        return ("ok", call())
    except (PIFOFullError, SchedulerError) as exc:
        return ("err", type(exc).__name__, str(exc))


def _scheduler_state(scheduler, index_of):
    """Everything observable about a scheduler, packets named by index."""
    def element(item):
        return item.name if isinstance(item, TreeNode) else index_of[id(item)]

    nodes = {}
    for node in scheduler.tree.nodes():
        pifos = {"sched": node.scheduling_pifo}
        transactions = {"sched": node.scheduling}
        if node.shaping is not None:
            pifos["shape"] = node.shaping_pifo
            transactions["shape"] = node.shaping
        nodes[node.name] = (
            {key: (pifo.pushes, pifo.pops, pifo.drops, pifo._seq,
                   [(entry.rank, entry.seq,
                     element(entry.element.packet
                             if isinstance(entry.element, ShapingToken)
                             else entry.element))
                    for entry in pifo.entries()])
             for key, pifo in pifos.items()},
            {key: (tx.executions, tx.state)
             for key, tx in transactions.items()},
        )
    calendar = sorted(
        (when, seq, token.node.name, index_of[id(token.packet)],
         [node.name for node in token.path], token.resume_index,
         token.release_time)
        for when, seq, token in scheduler._shaping_calendar)
    return (scheduler.stats, len(scheduler), scheduler._calendar_seq,
            calendar, nodes)


class TestShapingLockstep:
    """Kernel vs ``tree_kernel=False`` over random operation sequences."""

    @pytest.mark.parametrize("label", sorted(SHAPED_TREES))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["enqueue", "enqueue", "enqueue", "dequeue",
                                 "dequeue", "peek", "next_release", "reset",
                                 "tree_reset", "steal_token"]),
                st.integers(min_value=0, max_value=4),     # flow index
                st.integers(min_value=64, max_value=1500),  # length
                st.integers(min_value=0, max_value=30),     # clock step, 10 us
            ),
            min_size=1, max_size=80),
        backend_index=st.integers(min_value=0, max_value=2),
    )
    def test_random_interleavings_identical(self, label, ops, backend_index):
        builder, flows = SHAPED_TREES[label]
        backend = BACKENDS[backend_index % len(BACKENDS)]
        fused = ProgrammableScheduler(builder(), pifo_backend=backend)
        plain = ProgrammableScheduler(builder(), pifo_backend=backend,
                                      tree_kernel=False)
        assert fused.tree_kernel is not None and plain.tree_kernel is None
        sides = (fused, plain)
        index_of = ({}, {})
        ticks = 0
        for step, (op, flow_index, length, dt) in enumerate(ops):
            ticks += dt
            now = ticks * 1e-5
            results = []
            for scheduler, names in zip(sides, index_of):
                if op == "enqueue":
                    packet = Packet(
                        flow=flows[flow_index % len(flows)], length=length,
                        fields={"jitter_slack": (length % 7) * 2e-5,
                                "delay_bound": (length % 5) * 1e-4})
                    names[id(packet)] = step
                    results.append(_outcome(
                        lambda: scheduler.enqueue(packet, now=now)))
                elif op in ("dequeue", "peek"):
                    kind, *rest = _outcome(
                        lambda: getattr(scheduler, op)(now))
                    if kind == "ok" and rest[0] is not None:
                        rest = [names[id(rest[0])], rest[0].fields,
                                rest[0].enqueue_time, rest[0].dequeue_time]
                    results.append((kind, *rest))
                elif op == "next_release":
                    results.append(scheduler.next_shaping_release())
                elif op == "reset":
                    scheduler.reset()
                    results.append(None)
                elif op == "tree_reset":
                    # Behind the scheduler's back: the PIFOs empty, the
                    # calendar keeps its entries — all stale now.
                    scheduler.tree.reset()
                    scheduler._buffered_packets = 0
                    results.append(None)
                else:
                    # A token removed behind the scheduler's back leaves
                    # its calendar entry stale.
                    shaped = [node for node in scheduler.tree.nodes()
                              if node.shaping is not None]
                    pifo = shaped[flow_index % len(shaped)].shaping_pifo
                    results.append(None if pifo.is_empty
                                   else names[id(pifo.pop().packet)])
            assert results[0] == results[1], (step, op, results)
            # The kernel's own closure, polled like a port does after every
            # dequeue, against the class method on the twin.
            assert "next_shaping_release" in fused.__dict__
            assert (fused.next_shaping_release()
                    == plain.next_shaping_release()), (step, op)
            assert (_scheduler_state(fused, index_of[0])
                    == _scheduler_state(plain, index_of[1])), (step, op)
        assert fused.tree_kernel is not None

    def test_drain_timed_and_class_release_path_agree(self):
        # process_shaping_releases / drain_timed are class methods working
        # on the calendar the kernel fills: tokens made by either side must
        # be releasable by the other.
        def run(tree_kernel):
            scheduler = ProgrammableScheduler(build_fig4_tree(),
                                              tree_kernel=tree_kernel)
            for i in range(40):
                scheduler.enqueue(Packet(flow="ABCD"[i % 4], length=1000),
                                  now=i * 1e-5)
            released = scheduler.process_shaping_releases(2e-3)
            out = scheduler.drain_timed(until=1.0)
            return (released, [(p.flow, p.dequeue_time) for p in out],
                    scheduler.stats)

        assert run(True) == run(False)


# --------------------------------------------------------------------------- #
# Programs spliced into the kernel                                             #
# --------------------------------------------------------------------------- #
#: Fails (at its line 2, after line 1 moved the state) on a packet without
#: ``bonus``; its locals and its written field differ from packet to packet.
NEEDS_BONUS = """\
seen = seen + 1
extra = p.bonus * 2
if extra > 10
    p.mark = extra - 10
else
    p.mark = 0
p.rank = seen + p.mark + p.length
"""


def _needs_bonus():
    return compile_scheduling_program(
        NEEDS_BONUS, state={"seen": 0}, name="needs_bonus")


def _lang_outcome(call):
    try:
        return ("ok", call())
    except RuntimeLangError as exc:
        return ("err", str(exc), exc.line)


def _run_lockstep(build, ops):
    """Drive ``("enq", flow, length, fields, now)`` / ``("deq", now)`` ops
    through a kernel and the class path; every outcome — a
    ``RuntimeLangError``'s message and line included — and every node's
    state must agree after every step.  Returns the kernel's scheduler and
    the outcomes."""
    sides = (ProgrammableScheduler(build()),
             ProgrammableScheduler(build(), tree_kernel=False))
    assert sides[0].tree_kernel is not None and sides[1].tree_kernel is None
    index_of = ({}, {})
    outcomes = []
    for step, op in enumerate(ops):
        results = []
        for scheduler, names in zip(sides, index_of):
            if op[0] == "enq":
                _, flow, length, fields, now = op
                packet = Packet(flow=flow, length=length, fields=dict(fields))
                names[id(packet)] = step
                results.append(_lang_outcome(
                    lambda: scheduler.enqueue(packet, now=now)))
            else:
                kind, *rest = _lang_outcome(lambda: scheduler.dequeue(op[1]))
                if kind == "ok" and rest[0] is not None:
                    rest = [names[id(rest[0])], rest[0].fields]
                results.append((kind, *rest))
        assert results[0] == results[1], (step, op, results)
        assert (_scheduler_state(sides[0], index_of[0])
                == _scheduler_state(sides[1], index_of[1])), (step, op)
        outcomes.append(results[0])
    return sides[0], outcomes


class TestSplicedPrograms:
    def test_error_in_the_second_of_three_nodes_is_the_interpreters(self):
        def build():
            root = TreeNode(name="root", scheduling=stfq_program())
            middle = root.add_child(TreeNode(
                name="middle", predicate=FlowIn(["x", "y"]),
                scheduling=_needs_bonus()))
            middle.add_child(TreeNode(
                name="leaf", predicate=FlowIn(["x"]),
                scheduling=stfq_program(weights={"x": 2.0})))
            return ScheduleTree(root)

        fused, outcomes = _run_lockstep(build, [
            ("enq", "x", 100, {"bonus": 7}, 0.0),
            ("enq", "x", 200, {}, 1.0),           # fails in "middle"
            ("enq", "x", 300, {"bonus": 1}, 2.0),
            ("deq", 3.0), ("deq", 3.0), ("deq", 3.0),
        ])
        assert fused.tree_kernel.called_programs == ()
        assert [kind for kind, *_ in outcomes] == [
            "ok", "err", "ok", "ok", "ok", "ok"]
        _, message, line = outcomes[1]
        assert "packet has no field 'bonus'" in message and line == 2
        # The leaf had already pushed, and line 1 of "middle" had run.
        _, middle, leaf = fused.tree.nodes()
        assert leaf.scheduling_pifo.pushes == 3
        assert middle.scheduling_pifo.pushes == 2
        assert middle.scheduling.state == {"seen": 3}

    def test_error_inside_a_resume_block_is_the_interpreters(self):
        def build():
            root = TreeNode(name="root", scheduling=_needs_bonus())
            root.add_child(TreeNode(
                name="paced", predicate=FlowIn(["x"]),
                scheduling=stfq_program(),
                shaping=token_bucket_program(rate_bytes_per_s=1e6,
                                             burst_bytes=100.0)))
            return ScheduleTree(root)

        fused, outcomes = _run_lockstep(build, [
            ("enq", "x", 100, {"bonus": 9}, 0.0),
            ("enq", "x", 100, {}, 0.0),           # suspends; fails on resume
            ("enq", "x", 100, {"bonus": 2}, 0.0),
            ("deq", 1.0),                         # releases the three tokens
            ("deq", 1.0), ("deq", 1.0), ("deq", 1.0),
        ])
        assert fused.tree_kernel.called_programs == ()
        assert [kind for kind, *_ in outcomes[:3]] == ["ok"] * 3
        kind, message, line = outcomes[3]
        assert kind == "err" and line == 2
        assert "packet has no field 'bonus'" in message

    def test_same_program_twice_on_one_path_keeps_its_locals_apart(self):
        # Root and leaf run one program (one AST, one compiled object): each
        # splice gets its node's prefix.
        def build():
            root = TreeNode(name="root", scheduling=_needs_bonus())
            root.add_child(TreeNode(
                name="leaf", predicate=FlowIn(["x", "y"]),
                scheduling=_needs_bonus()))
            return ScheduleTree(root)

        ops = [("enq", "xyz"[i % 3], 64 + 37 * i, {"bonus": i % 9}, float(i))
               for i in range(12)]
        fused, outcomes = _run_lockstep(build, ops + [("deq", 20.0)] * 12)
        assert fused.tree_kernel.called_programs == ()
        assert all(kind == "ok" for kind, *_ in outcomes)
        source = fused.tree_kernel.source
        assert "r0_l_extra" in source and "r1_l_extra" in source

    def test_two_tokens_released_in_one_dequeue_keep_their_locals_apart(self):
        def build():
            root = TreeNode(name="root", scheduling=_needs_bonus())
            root.add_child(TreeNode(
                name="paced", predicate=FlowIn(["x"]),
                scheduling=FIFOTransaction(),
                shaping=StopAndGoShapingTransaction(frame_length=1e-3)))
            return ScheduleTree(root)

        fused, outcomes = _run_lockstep(build, [
            ("enq", "x", 100, {"bonus": 9}, 0.0),   # mark = 8
            ("enq", "x", 900, {"bonus": 1}, 0.0),   # mark = 0
            ("deq", 1.0),                           # both resume here
            ("deq", 1.0),
        ])
        assert fused.stats.shaping_releases == 2
        assert outcomes[2] == ("ok", 0, {"bonus": 9, "mark": 8})
        assert outcomes[3] == ("ok", 1, {"bonus": 1, "mark": 0})

    @pytest.mark.parametrize("source, reason", [
        ("if p.length > 500\n    big = 1\np.rank = big\n",
         "local 'big' may be read before it is assigned (line 3)"),
        ("if p.length > 500\n    p.mark = 1\np.rank = p.mark\n",
         "p.mark is read where only some paths have written it (line 3)"),
        ("if p.length > 500\n    p.mark = 1\np.rank = p.length\n",
         "packet field p.mark is written on some paths only"),
    ])
    def test_unprovable_program_is_called_listed_and_in_lockstep(
            self, source, reason):
        def build():
            return single_node_tree(
                compile_scheduling_program(source, name="unproven"))

        clear_kernel_cache()
        fused, outcomes = _run_lockstep(build, [
            ("enq", "x", 900, {}, 0.0),
            ("enq", "x", 100, {}, 0.0),
            ("enq", "x", 100, {"mark": 5}, 0.0),
            ("deq", 1.0), ("deq", 1.0), ("deq", 1.0),
        ])
        assert fused.tree.root.scheduling.backend == "compiled"
        assert fused.tree_kernel.called_programs == (
            ("root", "unproven", reason),)
        assert kernel_cache_info()["called_programs"] == 1
        assert "res = x0(packet, ectx, e0)" in fused.tree_kernel.source
        assert outcomes[0][0] == "ok"

    def test_interpreted_program_is_called_and_listed(self):
        scheduler = ProgrammableScheduler(single_node_tree(
            stfq_program(backend="interpreted")))
        assert scheduler.tree_kernel.called_programs == (
            ("root", "stfq", "runs on the interpreted back end"),
            ("root", "stfq.dequeue", "runs on the interpreted back end"),
        )

    def test_hook_that_reads_the_packet_is_called_on_references_only(self):
        def build():
            root = TreeNode(name="root", scheduling=compile_scheduling_program(
                "p.rank = now\n", state={"bytes_out": 0},
                dequeue_source="bytes_out = bytes_out + p.length\n",
                name="counting"))
            root.add_child(TreeNode(name="leaf", predicate=FlowIn(["x"]),
                                    scheduling=FIFOTransaction()))
            return ScheduleTree(root)

        fused, _ = _run_lockstep(build, [
            ("enq", "x", 100, {}, 0.0), ("enq", "y", 300, {}, 0.0),
            ("deq", 1.0), ("deq", 1.0),
        ])
        ((node, program, reason),) = fused.tree_kernel.called_programs
        assert (node, program) == ("root", "counting.dequeue")
        assert "references" in reason

    def test_custom_flow_fn_is_the_fragments_flow(self):
        # ``p.flow`` in a program is the node's flow_fn result — called once
        # per execution — or, when that is empty, the packet's own flow.
        calls = []

        def by_tenant(packet):
            calls.append(packet.flow)
            return packet.fields.get("tenant", "")

        def build():
            return ScheduleTree(TreeNode(
                name="root", flow_fn=by_tenant,
                scheduling=stfq_program(weights={"t1": 4.0, "b": 2.0})))

        fused, _ = _run_lockstep(build, [
            ("enq", "a", 400, {"tenant": "t1"}, 0.0),
            ("enq", "b", 400, {}, 0.0),
            ("enq", "a", 400, {"tenant": "t1"}, 0.0),
            ("deq", 1.0), ("deq", 1.0), ("deq", 1.0),
        ])
        assert fused.tree_kernel.called_programs == ()
        assert calls == ["a", "a", "b", "b", "a", "a"]  # one per side
        assert fused.tree.root.scheduling.state["last_finish"] == {
            "t1": 200.0, "b": 200.0}

    def test_node_names_are_part_of_the_shape(self):
        # A reference's flow is its child's name, embedded in the kernel:
        # same shape under other names is another kernel.
        def build(left, right):
            root = TreeNode(name="root", scheduling=stfq_program(
                weights={left: 1.0, right: 9.0}))
            root.add_child(TreeNode(name=left, predicate=FlowIn(["a"]),
                                    scheduling=stfq_program()))
            root.add_child(TreeNode(name=right, predicate=FlowIn(["b"]),
                                    scheduling=stfq_program()))
            return ScheduleTree(root)

        ops = [("enq", "ab"[i % 2], 100, {}, 0.0) for i in range(6)]
        ops += [("deq", 0.0)] * 6
        first, _ = _run_lockstep(lambda: build("L", "R"), ops)
        second, _ = _run_lockstep(lambda: build("X", "Y"), ops)
        assert first.tree_kernel.signature != second.tree_kernel.signature

    def test_set_predicates_are_inlined(self):
        def build():
            root = TreeNode(name="root", scheduling=FIFOTransaction())
            root.add_child(TreeNode(name="flows", predicate=FlowIn(["a", "b"]),
                                    scheduling=FIFOTransaction()))
            root.add_child(TreeNode(name="classes", predicate=ClassIn(["gold"]),
                                    scheduling=FIFOTransaction()))
            root.add_child(TreeNode(name="objects", predicate=FlowIn([("t", 1)]),
                                    scheduling=FIFOTransaction()))
            return ScheduleTree(root)

        fused, _ = _run_lockstep(build, [
            ("enq", flow, 100, {}, 0.0) for flow in "abcab"
        ] + [("deq", 1.0)] * 5)
        source = fused.tree_kernel.source
        assert "m1 = packet.flow in {'a', 'b'}" in source
        assert "m2 = packet.packet_class in {'gold'}" in source
        # No literal form: the predicate object is called, as before.
        assert "m3 = q3(packet)" in source


# --------------------------------------------------------------------------- #
# Counters: one store per fact, totals computed when read                      #
# --------------------------------------------------------------------------- #
#: Trees whose counters the two tests below pin: name -> builder taking
#: the PIFO backend.
COUNTED_TREES = {
    "arrival_seq": lambda backend: single_node_tree(
        ArrivalSequenceTransaction(), pifo_backend=backend),
    "srpt": lambda backend: single_node_tree(
        SRPTTransaction(), pifo_backend=backend),
    "fig4": lambda backend: build_fig4_tree_from_programs(
        pifo_backend=backend),
    "capped": lambda backend: single_node_tree(
        ArrivalSequenceTransaction(), pifo_capacity=3, pifo_backend=backend),
}

scheduler_ops = st.lists(
    st.tuples(
        st.sampled_from(["enqueue", "enqueue", "enqueue", "transfer",
                         "dequeue", "dequeue", "reset"]),
        st.sampled_from("ABCD"),
        st.integers(min_value=1, max_value=40),   # remaining size / length
        st.integers(min_value=0, max_value=3),    # clock advance, ms
    ),
    max_size=80,
)


@pytest.mark.parametrize("fused", [True, False], ids=["kernel", "interpreted"])
@pytest.mark.parametrize("label", sorted(COUNTED_TREES))
@given(ops=scheduler_ops, backend_index=st.integers(min_value=0, max_value=2))
@settings(max_examples=40, deadline=None)
def test_scheduler_stats_match_a_hand_kept_tally(label, fused, ops,
                                                 backend_index):
    """``stats.enqueued`` / ``dequeued`` are read off the per-flow tallies;
    with ``dropped`` and ``shaping_releases`` they must say what the calls
    themselves returned — through the cut-through ``transfer``, push-in
    ranks, suspended packets, a leaf that drops, and a ``reset()``."""
    build = COUNTED_TREES[label]
    scheduler = ProgrammableScheduler(
        build(BACKENDS[backend_index % len(BACKENDS)]), tree_kernel=fused)
    assert (scheduler.tree_kernel is not None) == fused
    shaped = [node for node in scheduler.tree.nodes()
              if node.shaping is not None]
    # A port only calls transfer on a work-conserving kernel; everywhere
    # else the op is the enqueue + dequeue pair transfer stands for.
    cut_through = fused and scheduler.kernel_work_conserving
    enqueued, dequeued = Counter(), Counter()
    dropped = suspended = 0     # suspended: ever pushed into a shaping PIFO
    now = 0.0
    for op, flow, size, advance in ops:
        now += advance * 1e-3
        buffered = sum(enqueued.values()) - sum(dequeued.values())
        head = None
        if op == "reset":
            scheduler.reset()
            enqueued, dequeued = Counter(), Counter()
            dropped = suspended = 0
        elif op == "dequeue":
            head = scheduler.dequeue(now=now)
            assert head is not None or shaped or not buffered
        else:
            packet = Packet(flow=flow, length=size * 40,
                            fields={"remaining_size": size})
            if op == "transfer" and cut_through:
                head = scheduler.transfer(packet, now)
                accepted = head is not None
            else:
                accepted = scheduler.enqueue(packet, now=now)
                if op == "transfer" and accepted:
                    head = scheduler.dequeue(now=now)
            if label == "capped":
                assert accepted == (buffered < 3)
            if accepted:
                enqueued[flow] += 1
                suspended += any(node.predicate(packet) for node in shaped)
            else:
                dropped += 1
        if head is not None:
            dequeued[head.flow] += 1
        stats = scheduler.stats
        assert stats.per_flow_enqueued == dict(enqueued)
        assert stats.per_flow_dequeued == dict(dequeued)
        assert (stats.enqueued, stats.dequeued, stats.dropped) == (
            sum(enqueued.values()), sum(dequeued.values()), dropped)
        assert len(scheduler) == stats.enqueued - stats.dequeued
        # Every suspended packet is still parked or was released.
        assert stats.shaping_releases == suspended - sum(
            len(node.shaping_pifo) for node in shaped)


#: What a kernel may not emit: a counter another counter already implies.
_DUPLICATE_COUNTER = re.compile(
    r"transactions_executed"
    r"|stats\.(enqueued|dequeued) \+="
    r"|\.(pushes|pops) \+=")


@pytest.mark.parametrize("label", ["arrival_seq", "srpt", "fig4"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_kernels_store_each_fact_once(label, backend):
    """The generated source of every backend's push / pop / walk /
    cut-through emitters (shaping PIFOs included) bumps no derived
    counter — so a new emitter cannot quietly bring one back."""
    scheduler = ProgrammableScheduler(COUNTED_TREES[label](backend))
    source = scheduler.tree_kernel.source
    assert "_seq" in source and "pfe[flow] += 1" in source
    assert not _DUPLICATE_COUNTER.search(source), [
        line.strip() for line in source.splitlines()
        if _DUPLICATE_COUNTER.search(line)]


#: The paper's listed algorithms, by their :mod:`repro.algorithms` names.
PAPER_CATALOGUE = {
    "STFQTransaction": lambda: STFQTransaction(weights={"a": 2.0}),
    "WFQTransaction": WFQTransaction,
    "StrictPriorityTransaction": StrictPriorityTransaction,
    "FieldRankTransaction": lambda: FieldRankTransaction("deadline"),
    "ShortestJobFirstTransaction": ShortestJobFirstTransaction,
    "SRPTTransaction": SRPTTransaction,
    "EarliestDeadlineFirstTransaction": EarliestDeadlineFirstTransaction,
    "LSTFTransaction": LSTFTransaction,
    "MinRateTransaction": lambda: MinRateTransaction({"a": 8e6}),
    "CollapsedMinRateTransaction": lambda: CollapsedMinRateTransaction(
        {"a": 8e6, "b": 1e6}, burst_bytes=1500),
    "LeastAttainedServiceTransaction": LeastAttainedServiceTransaction,
    "ClassPriorityTransaction": lambda: ClassPriorityTransaction(
        {"a": 1, "b": 0}),
    "SCEDTransaction": lambda: SCEDTransaction(
        {"a": LatencyRateCurve(8e6)},
        default_curve=LatencyRateCurve(1e6, latency_s=1e-3)),
    "PerHopDeadlineTransaction": PerHopDeadlineTransaction,
    "JitterEDDRegulator": JitterEDDRegulator,
}


def _catalogue_packet(index):
    return Packet(flow="ab"[index % 2], length=500 + index, priority=index % 3,
                  fields={"deadline": 9 - index, "flow_size": index,
                          "remaining_size": 5 - index, "slack": 1.0 - index})


@pytest.mark.parametrize("name", sorted(PAPER_CATALOGUE))
def test_the_paper_catalogue_is_spliced(name):
    """Each listed algorithm is its program text, spliced into the kernel:
    no fallback, nothing called per packet.  A shaping program shapes the
    child of a FIFO root."""
    transaction = PAPER_CATALOGUE[name]()
    shaping = transaction.kind == "shaping"
    if shaping:
        root = TreeNode(name="root", scheduling=FIFOTransaction())
        root.add_child(TreeNode(name="shaped", scheduling=FIFOTransaction(),
                                shaping=transaction))
        tree = ScheduleTree(root)
    else:
        tree = single_node_tree(transaction)
    scheduler = ProgrammableScheduler(tree)
    assert scheduler.tree_kernel.called_programs == ()
    node = scheduler.tree_kernel.signature[-1]
    if shaping:
        assert node.shaping[0] == "splice", node.shaping
    else:
        assert node.tx[0] == "lang" and node.tx[2] is True, node.tx
    for index in range(6):
        assert scheduler.enqueue(_catalogue_packet(index), now=0.0)
    assert len(_drain(scheduler)) == 6


def test_environment_reads_are_factory_cells():
    """A spliced program reads its environment (state mapping, accessors,
    functions) once per scheduler, in the factory: the per-packet closures
    read none of it."""
    scheduler = ProgrammableScheduler(build_fig4_tree_from_programs())
    factory, closures = scheduler.tree_kernel.source.split(
        "    def enqueue(", 1)
    for cell in (r"r\d+_st = e\d+\.state",
                 r"r\d+_fa_weight = e\d+\.flow_attrs\.get\('weight'\)",
                 r"t\d+_f_min = se\d+\.functions\.get\('min'\) or _b_min",
                 r"d\d+_st = de\d+\.state"):
        assert re.search(rf"^    {cell}$", factory, re.M), cell
    assert not re.search(r"\benv\b|\.(state|flow_attrs|functions)\b",
                         closures)


def test_token_bucket_shaping_is_spliced():
    root = TreeNode(name="root", scheduling=FIFOTransaction())
    root.add_child(TreeNode(
        name="shaped", scheduling=FIFOTransaction(),
        shaping=TokenBucketShapingTransaction(rate_bps=1e6, burst_bytes=1500)))
    scheduler = ProgrammableScheduler(ScheduleTree(root))
    assert scheduler.tree_kernel.called_programs == ()
    assert scheduler.tree_kernel.signature[1].shaping[0] == "splice"


def test_nothing_shipped_falls_back():
    """The gate: every tree this package builds runs a kernel, and every
    program it ships compiled is spliced into it.

    Every builder exported by :mod:`repro.lang.trees` (both lang back
    ends), every shaped builder in :mod:`repro.algorithms` and its CBQ and
    minimum-rate trees (both shapes), every variant
    of every registered scenario on every lang back end, and every
    program in :mod:`repro.lang.programs` on a tree of its own.
    """
    import repro.lang.trees as lang_trees
    from repro.algorithms import build_shaped_hierarchy
    from repro.net import list_scenarios

    builders = {
        f"{name}[{backend}]": (lambda build=build, backend=backend:
                               build(backend=backend))
        for name, build in vars(lang_trees).items()
        if name.startswith("build_") and callable(build)
        for backend in ("compiled", "interpreted")
    }
    assert len(builders) >= 4
    builders.update({
        "build_fig4_tree": build_fig4_tree,
        "build_shaped_hierarchy": lambda: build_shaped_hierarchy(
            {"gold": {"a": 1.0, "b": 2.0}, "bronze": {"c": 1.0}},
            {"gold": 3.0, "bronze": 1.0}, {"bronze": 5e6}),
        "build_jitter_edd_tree": lambda: build_jitter_edd_tree({"a": 1e-3}),
        "build_cbq_tree": lambda: build_cbq_tree(
            [CBQClass("hi", 0, {"a": 1.0}), CBQClass("lo", 1, {"b": 1.0})]),
        "build_min_rate_tree": lambda: build_min_rate_tree(
            ["a", "b"], {"a": 8e6}),
        "build_collapsed_min_rate_tree": lambda:
            build_collapsed_min_rate_tree({"a": 8e6}),
        "build_hierarchical_round_robin_tree": lambda:
            build_hierarchical_round_robin_tree(
                {"c": {"a": 1.0}}, {"c": 1e-3}),
    })
    for name, factory in DEFAULT_FACTORIES.items():
        if name in SHAPING_PROGRAMS:
            def build(factory=factory):
                root = TreeNode(name="root", scheduling=FIFOTransaction())
                root.add_child(TreeNode(name="shaped",
                                        scheduling=FIFOTransaction(),
                                        shaping=factory()))
                return ScheduleTree(root)
        else:
            def build(factory=factory):
                return single_node_tree(factory())
        builders[f"program:{name}"] = build
    clear_kernel_cache()
    schedulers = {name: ProgrammableScheduler(build())
                  for name, build in builders.items()}
    scenarios = list_scenarios()
    assert scenarios
    for scenario in scenarios:
        for label in scenario.variants:
            for backend in (None, "compiled", "interpreted"):
                factory = scenario.scheduler_factory(label, backend)
                schedulers[f"{scenario.name}/{label}[{backend}]"] = (
                    factory("s1", "to_s2"))
    assert [name for name, scheduler in schedulers.items()
            if scheduler.tree_kernel is None] == []
    # Only an interpreted program is ever called instead of spliced.
    called = {name: scheduler.tree_kernel.called_programs
              for name, scheduler in schedulers.items()
              if scheduler.tree_kernel.called_programs}
    assert called and all("[interpreted]" in name for name in called)
    assert all(reason == "runs on the interpreted back end"
               for programs in called.values() for _, _, reason in programs)
    info = kernel_cache_info()
    assert info["fallbacks"] == 0
    assert info["installs"] == len(schedulers)
    assert info["called_programs"] == sum(map(len, called.values()))
