"""Unit tests for the AST-to-Python compiler (:mod:`repro.lang.compiler`).

The golden rule under test: a compiled program is observationally identical
to the interpreter — same results, same state effects, and the same
:class:`RuntimeLangError` (message included) on the same inputs.  The
property-based lockstep suite in ``test_compiler_equivalence.py`` covers the
bundled paper programs; these tests cover the compiler's own machinery —
codegen corners, error replay, the compile cache and the bridge fallback.
"""

from __future__ import annotations

import pytest

from repro.core import Packet, TransactionContext
from repro.lang import (
    CompileError,
    Interpreter,
    ProgramEnvironment,
    RuntimeLangError,
    compile_cached,
    compile_program,
    compile_scheduling_program,
    parse,
)
from repro.lang.ast import Program, Statement
from repro.lang.compiler import clear_compile_cache, compile_cache_info


def make_ctx(flow="f1", length=1000, now=0.0):
    return TransactionContext(now=now, node="t", element_flow=flow, element_length=length)


def run_both(source, packet=None, now=0.0, state=None, params=None,
             flow_attrs=None, functions=None):
    """Execute under interpreter and compiler with isolated environments.

    Returns ``((result, state), (result, state))`` on success or raises the
    compiled path's error after asserting both paths failed identically.
    """
    program = parse(source)
    outcomes = []
    for execute in (
        Interpreter(program).execute,
        compile_program(program, state=dict(state or {}), params=dict(params or {})).execute,
    ):
        pkt = packet.copy() if packet is not None else Packet(flow="f1", length=1000)
        env = ProgramEnvironment(
            state={k: (dict(v) if isinstance(v, dict) else v)
                   for k, v in (state or {}).items()},
            params=dict(params or {}),
            flow_attrs=dict(flow_attrs or {}),
            functions=dict(functions or {}),
        )
        try:
            result = execute(pkt, make_ctx(pkt.flow, pkt.length, now), env)
            outcomes.append(("ok", result, env.state, pkt.fields))
        except RuntimeLangError as exc:
            outcomes.append(("err", type(exc).__name__, str(exc), env.state))
    (kind_i, *rest_i), (kind_c, *rest_c) = outcomes
    assert kind_i == kind_c, f"interpreter {outcomes[0]} vs compiled {outcomes[1]}"
    if kind_i == "err":
        assert rest_i == rest_c
        raise RuntimeLangError(rest_c[1])
    result_i, state_i, fields_i = rest_i
    result_c, state_c, fields_c = rest_c
    assert result_c.rank == result_i.rank
    assert result_c.send_time == result_i.send_time
    assert result_c.packet_writes == result_i.packet_writes
    assert result_c.locals == result_i.locals
    assert state_c == state_i
    assert fields_c == fields_i
    return result_c, state_c


class TestBasicParity:
    def test_arithmetic(self):
        result, _ = run_both("p.rank = (2 + 3) * 4 - 6 / 3 + 17 % 5")
        assert result.rank == 20.0

    def test_state_and_locals(self):
        result, state = run_both("counter = counter + 1\ntmp = 5\np.rank = counter + tmp",
                                 state={"counter": 10})
        assert result.rank == 16
        assert state["counter"] == 11
        assert result.locals == {"tmp": 5}

    def test_param_inlined_as_constant(self):
        program = parse("p.rank = r * 2")
        compiled = compile_program(program, params={"r": 21})
        assert "42" in compiled.source_text or "21" in compiled.source_text
        assert "env.params" not in compiled.source_text

    def test_packet_field_write_then_read(self):
        result, _ = run_both("p.start = 5\np.rank = p.start + 1")
        assert result.rank == 6

    def test_tables_and_membership(self):
        source = (
            "f = flow(p)\n"
            "if f in table\n"
            "    table[f] = table[f] + 1\n"
            "else\n"
            "    table[f] = 1\n"
            "p.rank = table[f]\n"
        )
        result, state = run_both(source, state={"table": {}})
        assert result.rank == 1
        assert state["table"] == {"f1": 1}

    def test_short_circuit_does_not_touch_table(self):
        source = "f = flow(p)\nif false and table[f] > 0\n    p.rank = 1\nelse\n    p.rank = 2"
        result, _ = run_both(source, state={"table": {}})
        assert result.rank == 2

    def test_flow_attribute_dispatch(self):
        result, _ = run_both(
            "f = flow(p)\np.rank = 10 / f.weight",
            flow_attrs={"weight": lambda flow: 4.0},
        )
        assert result.rank == 2.5

    def test_custom_function_dispatch(self):
        result, _ = run_both("p.rank = double(21)",
                             functions={"double": lambda v: v * 2})
        assert result.rank == 42

    def test_user_function_overrides_builtin(self):
        result, _ = run_both("p.rank = min(1, 2)",
                             functions={"min": lambda a, b: 99})
        assert result.rank == 99

    def test_now_and_elif(self):
        source = "if now > 10\n    p.rank = 2\nelif now > 5\n    p.rank = 1\nelse\n    p.rank = 0"
        result, _ = run_both(source, now=7.0)
        assert result.rank == 1


class TestErrorFidelity:
    """Compiled errors must match the interpreter's message for message."""

    @pytest.mark.parametrize("source,state,params,fragment", [
        ("p.rank = 1 / 0", {}, {}, "division by zero"),
        ("p.rank = mystery", {}, {}, "undefined name"),
        ("r = 5\np.rank = r", {}, {"r": 1}, "parameter"),
        ("p.rank = p.no_such_field", {}, {}, "no field"),
        ("p.rank = table[p.flow]", {"table": {}}, {}, "not present"),
        ("mystery[p.flow] = 1\np.rank = 0", {}, {}, "not a declared state"),
        ("p.rank = x[p.flow]", {"x": 3.0}, {}, "not a table"),
        ("p.rank = frobnicate(1)", {}, {}, "unknown function"),
        ("f = flow(p)\np.rank = f.weight", {}, {}, "flow attribute accessor"),
        ("if 1 > 2\n    x = 1\np.rank = x", {}, {}, "undefined name"),
        ("f = flow(p)\np.rank = f + 1", {}, {}, "bad operands"),
    ])
    def test_error_messages_identical(self, source, state, params, fragment):
        with pytest.raises(RuntimeLangError) as excinfo:
            run_both(source, state=state, params=params)
        assert fragment in str(excinfo.value)

    def test_wrong_arity_reports_call_failure(self):
        with pytest.raises(RuntimeLangError) as excinfo:
            run_both("p.rank = one() + 1", functions={"one": lambda x: x})
        assert "failed" in str(excinfo.value)

    def test_state_mutations_before_failure_are_kept(self):
        # The first statement commits, the second fails: interpreter and
        # compiled must leave identical (partially-updated) state behind.
        source = "counter = counter + 1\nx = counter\np.rank = 1 / 0"
        with pytest.raises(RuntimeLangError):
            run_both(source, state={"counter": 5})

    def test_reassigned_table_uses_guarded_path(self):
        # ``t`` starts as a table but the program clobbers it with a scalar;
        # the later subscript must raise the interpreter's error.
        source = "t = 5\np.rank = t[p.flow]"
        with pytest.raises(RuntimeLangError) as excinfo:
            run_both(source, state={"t": {}})
        assert "not a table" in str(excinfo.value)

    def test_error_in_dead_branch_never_raises(self):
        source = "if false\n    p.rank = 1 / 0\nelse\n    p.rank = 3"
        result, _ = run_both(source)
        assert result.rank == 3

    def test_missing_accessor_in_dead_branch_never_raises(self):
        source = "if false\n    f = flow(p)\n    p.rank = f.weight\nelse\n    p.rank = 3"
        result, _ = run_both(source)
        assert result.rank == 3


class TestCompileCache:
    def test_same_signature_shares_code(self):
        clear_compile_cache()
        program = parse("p.rank = r * 2")
        first = compile_cached(program, params={"r": 2.0})
        second = compile_cached(program, params={"r": 2.0})
        assert first is second
        assert compile_cache_info()["hits"] == 1

    def test_different_param_values_compile_separately(self):
        clear_compile_cache()
        program = parse("p.rank = r * 2")
        first = compile_cached(program, params={"r": 2.0})
        second = compile_cached(program, params={"r": 3.0})
        assert first is not second
        assert compile_cache_info()["misses"] == 2

    def test_shared_code_isolated_state(self):
        clear_compile_cache()
        source = "counter = counter + 1\np.rank = counter"
        program = parse(source)
        compiled = compile_cached(program, state={"counter": 0})
        env_a = ProgramEnvironment(state={"counter": 0})
        env_b = ProgramEnvironment(state={"counter": 100})
        compiled.execute(Packet(flow="a", length=1), make_ctx(), env_a)
        compiled.execute(Packet(flow="b", length=1), make_ctx(), env_b)
        assert env_a.state["counter"] == 1
        assert env_b.state["counter"] == 101

    def test_transaction_instances_share_compiled_program(self):
        clear_compile_cache()
        first = compile_scheduling_program("p.rank = p.length", name="a")
        second = compile_scheduling_program("p.rank = p.length", name="b")
        assert first._compiled is not None
        assert first._compiled is second._compiled
        # ... while ranks stay independent per instance.
        assert first(Packet(flow="x", length=10), make_ctx("x", 10)) == 10
        assert second(Packet(flow="y", length=20), make_ctx("y", 20)) == 20


class TestBridgeBackends:
    def test_compiled_is_the_default(self):
        transaction = compile_scheduling_program("p.rank = now")
        assert transaction.backend == "compiled"
        assert transaction.generated_source() is not None
        assert "compiled" in transaction.describe()

    def test_interpreted_backend_forced(self):
        transaction = compile_scheduling_program("p.rank = now", backend="interpreted")
        assert transaction.backend == "interpreted"
        assert transaction.generated_source() is None
        assert transaction(Packet(flow="a", length=5), make_ctx(now=3.0)) == 3.0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            compile_scheduling_program("p.rank = now", backend="llvm")

    def test_unsupported_construct_raises(self):
        class AlienStatement(Statement):
            line = 1

            def children(self):
                return iter(())

        program = Program(statements=(AlienStatement(),), source="<alien>")
        with pytest.raises(CompileError):
            compile_program(program)
        # The compiled back end fails closed; the interpreter runs only
        # when chosen.
        with pytest.raises(CompileError):
            compile_scheduling_program(program)
        transaction = compile_scheduling_program(program, backend="interpreted")
        assert transaction.backend == "interpreted"

    def test_compiled_and_interpreted_ranks_match_end_to_end(self):
        from repro.lang.programs import stfq_program

        compiled = stfq_program(weights={"a": 2.0, "b": 1.0})
        interpreted = stfq_program(weights={"a": 2.0, "b": 1.0}, backend="interpreted")
        assert compiled.backend == "compiled"
        assert interpreted.backend == "interpreted"
        for i in range(40):
            flow = "a" if i % 3 else "b"
            packet = Packet(flow=flow, length=100 + i)
            ctx = make_ctx(flow, packet.length)
            assert compiled(packet.copy(), ctx) == interpreted(packet.copy(), ctx)
        assert compiled.state == interpreted.state
