"""Property-based equivalence suite for the pluggable PIFO backends.

Every backend registered in :mod:`repro.core.backend` must be
*behaviourally indistinguishable*: identical dequeue orders (including
equal-rank FIFO tie-breaks), identical counters (pushes/pops/drops) and
identical capacity-drop behaviour, whatever interleaving of push / pop /
peek / remove / batch operations a workload performs.  The suite drives
random operation sequences against all backends in lockstep and diffs
every observable after every step.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PIFO,
    BucketedPIFO,
    CalendarPIFO,
    SortedListPIFO,
    available_backends,
    backend_name,
    make_pifo,
    resolve_backend,
)
from repro.core.backend import PIFOBackend
from repro.exceptions import PIFOEmptyError, PIFOFullError

#: Canonical names of all built-in backends; the equivalence properties run
#: every backend against the reference in lockstep.
ALL_BACKENDS = available_backends()


# --------------------------------------------------------------------------- #
# Factory and registry                                                        #
# --------------------------------------------------------------------------- #
class TestFactory:
    def test_default_backend_is_reference(self):
        assert type(make_pifo()) is SortedListPIFO
        assert PIFO is SortedListPIFO

    @pytest.mark.parametrize("name,cls", [
        ("sorted", SortedListPIFO),
        ("calendar", CalendarPIFO),
        ("bucketed", BucketedPIFO),
    ])
    def test_registry_names(self, name, cls):
        assert type(make_pifo(name)) is cls
        assert type(make_pifo(name.upper())) is cls  # case-insensitive

    def test_class_spec(self):
        assert type(make_pifo(CalendarPIFO)) is CalendarPIFO

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown PIFO backend"):
            make_pifo("btree")

    def test_bad_spec_type_raises(self):
        with pytest.raises(TypeError):
            make_pifo(42)

    def test_capacity_and_name_forwarded(self):
        pifo = make_pifo("calendar", capacity=7, name="portq")
        assert pifo.capacity == 7
        assert pifo.name == "portq"

    def test_backends_satisfy_protocol(self):
        for name in ALL_BACKENDS:
            assert isinstance(make_pifo(name), PIFOBackend)

    def test_backend_name_roundtrip(self):
        for name in ALL_BACKENDS:
            assert backend_name(make_pifo(name)) == name
            assert resolve_backend(name).backend_name == name


# --------------------------------------------------------------------------- #
# Backend-specific contracts                                                  #
# --------------------------------------------------------------------------- #
class TestBucketedContract:
    def test_rejects_fractional_ranks(self):
        pifo = BucketedPIFO()
        with pytest.raises(ValueError, match="integer ranks"):
            pifo.push("a", 1.5)
        assert len(pifo) == 0

    def test_accepts_integral_floats(self):
        pifo = BucketedPIFO()
        pifo.push("a", 3.0)
        pifo.push("b", 1)
        assert pifo.pop() == "b"
        assert pifo.pop() == "a"


class TestSortedListHeadIndex:
    def test_pop_does_not_shift_the_list(self):
        """The seed's list.pop(0) made dequeue O(n); the head index must
        leave the backing list untouched for small pop counts."""
        pifo = SortedListPIFO()
        for i in range(10):
            pifo.push(i, i)
        backing = pifo._entries
        for i in range(5):
            assert pifo.pop() == i
        assert pifo._entries is backing  # no compaction this small
        assert len(pifo) == 5
        assert list(pifo) == [5, 6, 7, 8, 9]

    def test_compaction_reclaims_dead_prefix(self):
        pifo = SortedListPIFO()
        n = 500
        for i in range(n):
            pifo.push(i, i)
        for i in range(n):
            assert pifo.pop() == i
        assert len(pifo._entries) == 0  # fully compacted once drained
        assert pifo.is_empty


# --------------------------------------------------------------------------- #
# Lockstep equivalence harness                                                #
# --------------------------------------------------------------------------- #
def _lockstep(operations, capacity=None):
    """Apply one operation sequence to every backend and diff observables."""
    reference = make_pifo("sorted", capacity=capacity)
    others = {
        name: make_pifo(name, capacity=capacity)
        for name in ALL_BACKENDS
        if name != "sorted"
    }
    counter = 0
    for op, rank in operations:
        if op == "push":
            outcomes = {}
            for name, pifo in [("sorted", reference)] + list(others.items()):
                try:
                    pifo.push(counter, rank)
                    outcomes[name] = "ok"
                except PIFOFullError:
                    outcomes[name] = "full"
            assert len(set(outcomes.values())) == 1, outcomes
            counter += 1
        elif op == "pop":
            if reference.is_empty:
                for pifo in others.values():
                    with pytest.raises(PIFOEmptyError):
                        pifo.pop()
                with pytest.raises(PIFOEmptyError):
                    reference.pop()
                continue
            expected = reference.pop_entry()
            for name, pifo in others.items():
                entry = pifo.pop_entry()
                assert (entry.rank, entry.element) == (
                    expected.rank,
                    expected.element,
                ), name
        elif op == "peek":
            if reference.is_empty:
                continue
            expected = (reference.peek(), reference.peek_rank())
            for name, pifo in others.items():
                assert (pifo.peek(), pifo.peek_rank()) == expected, name
        elif op == "remove":
            # Remove every element whose payload is divisible by the rank
            # operand (an arbitrary but deterministic predicate).
            modulus = max(2, rank)
            expected = reference.remove(lambda x: x % modulus == 0)
            for name, pifo in others.items():
                assert pifo.remove(lambda x: x % modulus == 0) == expected, name
        # After every step, all observables must agree.
        for name, pifo in others.items():
            assert len(pifo) == len(reference), name
            assert pifo.ranks() == reference.ranks(), name
            assert list(pifo) == list(reference), name
            assert pifo.pushes == reference.pushes, name
            assert pifo.pops == reference.pops, name
            assert pifo.drops == reference.drops, name
    # Final drain must agree element for element.
    expected_tail = reference.drain()
    for name, pifo in others.items():
        assert pifo.drain() == expected_tail, name


op_sequences = st.lists(
    st.tuples(
        st.sampled_from(["push", "push", "push", "pop", "peek", "remove"]),
        st.integers(min_value=0, max_value=12),
    ),
    max_size=120,
)


@given(op_sequences)
@settings(max_examples=120, deadline=None)
def test_property_backends_equivalent_unbounded(operations):
    _lockstep(operations, capacity=None)


@given(op_sequences)
@settings(max_examples=120, deadline=None)
def test_property_backends_equivalent_with_capacity_drops(operations):
    """A tight capacity forces drops; drop behaviour and counters must
    match across backends exactly."""
    _lockstep(operations, capacity=5)


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=150))
@settings(max_examples=100, deadline=None)
def test_property_equal_rank_fifo_ties_across_backends(ranks):
    """Heavily colliding ranks: FIFO tie-breaking must be identical."""
    pifos = {name: make_pifo(name) for name in ALL_BACKENDS}
    for index, rank in enumerate(ranks):
        for pifo in pifos.values():
            pifo.push(index, rank)
    orders = {name: [pifo.pop() for _ in range(len(ranks))]
              for name, pifo in pifos.items()}
    reference_order = orders["sorted"]
    for name, order in orders.items():
        assert order == reference_order, name


class _Incomparable:
    """An element every comparison of which raises: a PIFO orders by
    ``(rank, seq)`` alone and must never look at what it stores."""

    def _refuse(self, other):
        raise AssertionError("a PIFO compared two of its elements")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _refuse
    __hash__ = object.__hash__


def _same_objects(actual, expected):
    """List equality by identity (``==`` on the elements is off limits)."""
    return len(actual) == len(expected) and all(
        a is b for a, b in zip(actual, expected))


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.sampled_from(["opaque", "packet", "node"])),
                max_size=80))
@settings(max_examples=60, deadline=None)
def test_property_comparison_never_reaches_the_element(items):
    """Colliding ranks over elements that cannot be compared — opaque
    objects whose comparisons raise, packets and ``TreeNode`` references
    side by side, as in a root PIFO — through ``push``, ``enqueue_many``,
    ``remove`` and ``use_backend`` migration on every backend: FIFO order
    among ties, and no comparison ever falls through to an element."""
    from repro.algorithms import FIFOTransaction
    from repro.core import Packet, TreeNode, single_node_tree

    make = {
        "opaque": _Incomparable,
        "packet": lambda: Packet(flow="f", length=100),
        "node": lambda: TreeNode("child", FIFOTransaction()),
    }
    for name in ALL_BACKENDS:
        elements = [make[kind]() for _rank, kind in items]
        ranks = [rank for rank, _kind in items]
        # Stable sort on the rank alone = (rank, push order).
        expected = [elements[i] for i in
                    sorted(range(len(items)), key=ranks.__getitem__)]
        tree = single_node_tree(FIFOTransaction(), pifo_backend=name)
        pifo = tree.root.scheduling_pifo
        half = len(items) // 2
        for element, rank in zip(elements[:half], ranks[:half]):
            pifo.push(element, rank)
        assert pifo.enqueue_many(zip(elements[half:], ranks[half:])) == (
            len(items) - half), name
        assert _same_objects(list(pifo), expected), name
        doomed = {id(element) for element in elements[::3]}
        removed = pifo.remove(lambda element: id(element) in doomed)
        assert _same_objects(
            removed, [e for e in expected if id(e) in doomed]), name
        kept = [e for e in expected if id(e) not in doomed]
        for target in ALL_BACKENDS:
            tree.use_backend(target)
            assert _same_objects(list(tree.root.scheduling_pifo), kept), (
                name, target)
        assert _same_objects(tree.root.scheduling_pifo.drain(), kept), name


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=200))
@settings(max_examples=100, deadline=None)
def test_property_enqueue_many_equals_push_loop(ranks):
    """The batch fast path must be indistinguishable from a push loop."""
    for name in ALL_BACKENDS:
        batched = make_pifo(name, capacity=40)
        looped = make_pifo(name, capacity=40)
        accepted = batched.enqueue_many((i, rank) for i, rank in enumerate(ranks))
        looped_accepted = 0
        for i, rank in enumerate(ranks):
            try:
                looped.push(i, rank)
                looped_accepted += 1
            except PIFOFullError:
                pass
        assert accepted == looped_accepted, name
        assert batched.drops == looped.drops, name
        assert batched.drain() == looped.drain(), name


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=200))
@settings(max_examples=60, deadline=None)
def test_property_drain_equals_pop_loop(ranks):
    for name in ALL_BACKENDS:
        drained = make_pifo(name)
        popped = make_pifo(name)
        for i, rank in enumerate(ranks):
            drained.push(i, rank)
            popped.push(i, rank)
        pop_loop = [popped.pop() for _ in range(len(ranks))]
        assert drained.drain() == pop_loop, name
        assert drained.pops == popped.pops, name
        assert drained.is_empty


counter_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["push", "push", "push"]),
                  st.integers(min_value=0, max_value=12)),
        st.tuples(st.sampled_from(["pop", "pop", "drain", "clear"]),
                  st.none()),
        st.tuples(st.just("remove"), st.integers(min_value=2, max_value=4)),
        st.tuples(st.just("enqueue_many"),
                  st.lists(st.integers(min_value=0, max_value=12), max_size=9)),
        st.tuples(st.just("migrate"), st.sampled_from(ALL_BACKENDS)),
    ),
    max_size=100,
)


@pytest.mark.parametrize("name", ALL_BACKENDS)
@given(operations=counter_ops)
@settings(max_examples=80, deadline=None)
def test_property_counters_match_a_hand_kept_tally(name, operations):
    """``pushes`` and ``pops`` are computed when read (accepted so far;
    accepted minus buffered minus removed).  Whatever way elements enter
    and leave — a push the capacity bound refuses, a batch partly
    refused, a bulk drain, ``clear`` / ``remove`` (which are not pops), a
    migration to another backend (counters restart at what migrated) —
    they read what a tally of the calls themselves says."""
    from repro.algorithms import FIFOTransaction
    from repro.core import TreeNode

    capacity = 6
    node = TreeNode("n", FIFOTransaction(), pifo_backend=name,
                    pifo_capacity=capacity)
    pifo = node.scheduling_pifo
    pushes = pops = drops = 0
    buffered = []
    payload = 0
    for op, arg in operations:
        if op == "push":
            if len(buffered) < capacity:
                pifo.push(payload, arg)
                buffered.append(payload)
                pushes += 1
            else:
                with pytest.raises(PIFOFullError):
                    pifo.push(payload, arg)
                drops += 1
            payload += 1
        elif op == "enqueue_many":
            room = capacity - len(buffered)
            batch = [(payload + i, rank) for i, rank in enumerate(arg)]
            assert pifo.enqueue_many(batch) == min(room, len(batch))
            buffered.extend(element for element, _ in batch[:room])
            pushes += min(room, len(batch))
            drops += max(0, len(batch) - room)
            payload += len(batch)
        elif op == "pop":
            if buffered:
                buffered.remove(pifo.pop())
                pops += 1
            else:
                with pytest.raises(PIFOEmptyError):
                    pifo.pop()
        elif op == "drain":
            assert sorted(pifo.drain()) == sorted(buffered)
            pops += len(buffered)
            buffered = []
        elif op == "clear":
            pifo.clear()
            buffered = []
        elif op == "remove":
            gone = pifo.remove(lambda x: x % arg == 0)
            assert sorted(gone) == [x for x in sorted(buffered) if x % arg == 0]
            buffered = [x for x in buffered if x % arg]
        else:
            node.use_backend(arg)
            pifo = node.scheduling_pifo
            pushes, pops, drops = len(buffered), 0, 0
        assert (pifo.pushes, pifo.pops, pifo.drops, len(pifo)) == (
            pushes, pops, drops, len(buffered)), (op, arg)


# --------------------------------------------------------------------------- #
# Tree / scheduler integration                                                #
# --------------------------------------------------------------------------- #
class TestTreeBackendThreading:
    def test_tree_builder_threads_backend(self):
        from repro.algorithms import build_fig3_tree

        tree = build_fig3_tree(pifo_backend="calendar")
        for node in tree.nodes():
            assert type(node.scheduling_pifo) is CalendarPIFO

    def test_use_backend_migrates_entries(self):
        from repro.algorithms import FIFOTransaction
        from repro.core import single_node_tree

        tree = single_node_tree(FIFOTransaction())
        node = tree.root
        for i in range(8):
            node.scheduling_pifo.push(f"p{i}", i)
        tree.use_backend("bucketed")
        assert type(node.scheduling_pifo) is BucketedPIFO
        assert [node.scheduling_pifo.pop() for _ in range(8)] == [
            f"p{i}" for i in range(8)
        ]

    def test_shaping_pifo_avoids_integer_only_backend(self):
        from repro.algorithms import build_fig4_tree

        tree = build_fig4_tree(pifo_backend="bucketed")
        shaped = tree.node("Right")
        assert type(shaped.scheduling_pifo) is BucketedPIFO
        # Shaping ranks are wall-clock floats: must stay off bucket queues.
        assert type(shaped.shaping_pifo) is SortedListPIFO

    def test_scheduler_applies_backend(self):
        from repro.algorithms import build_fig3_tree
        from repro.core import ProgrammableScheduler

        scheduler = ProgrammableScheduler(build_fig3_tree(), pifo_backend="calendar")
        assert scheduler.pifo_backend == "calendar"
        for node in scheduler.tree.nodes():
            assert type(node.scheduling_pifo) is CalendarPIFO


@given(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_property_hpfq_departure_order_identical_across_backends(flows):
    """The same HPFQ workload must depart in the same order on the sorted
    and calendar backends (STFQ ranks are floats, so the bucketed backend
    is exercised by the strict-priority property below instead)."""
    from repro.algorithms import build_fig3_tree
    from repro.core import Packet, ProgrammableScheduler

    def run(backend):
        scheduler = ProgrammableScheduler(
            build_fig3_tree(), pifo_backend=backend
        )
        for i, flow in enumerate(flows):
            scheduler.enqueue(Packet(flow=flow, length=1000, arrival_time=0.0))
        return [p.flow for p in scheduler.drain()]

    assert run("sorted") == run("calendar")


@given(st.lists(st.sampled_from(["gold", "silver", "bronze"]),
                min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_property_strict_priority_identical_on_all_backends(flows):
    """Strict priority emits integer ranks, so every backend — including
    the bucket queue — must agree on the departure order."""
    from repro.algorithms import StrictPriorityTransaction
    from repro.core import Packet, ProgrammableScheduler, single_node_tree

    priorities = {"gold": 0, "silver": 1, "bronze": 2}

    def run(backend):
        tree = single_node_tree(
            StrictPriorityTransaction(), pifo_backend=backend
        )
        scheduler = ProgrammableScheduler(tree)
        for flow in flows:
            scheduler.enqueue(
                Packet(flow=flow, length=1000, arrival_time=0.0,
                       priority=priorities[flow])
            )
        return [p.flow for p in scheduler.drain()]

    reference = run("sorted")
    for backend in ALL_BACKENDS:
        assert run(backend) == reference, backend
