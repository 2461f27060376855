"""Unit tests for the transaction-language parser."""

from __future__ import annotations

import pytest

from repro.lang import (
    Assign,
    Attribute,
    BinOp,
    BoolOp,
    Call,
    Compare,
    If,
    Membership,
    Name,
    Number,
    ParseError,
    Subscript,
    UnaryOp,
    parse,
)
from repro.lang.ast import Boolean, format_node, iter_assignments


class TestAssignments:
    def test_assign_to_name(self):
        program = parse("x = 5")
        assert len(program.statements) == 1
        statement = program.statements[0]
        assert isinstance(statement, Assign)
        assert isinstance(statement.target, Name)
        assert statement.target.identifier == "x"
        assert isinstance(statement.value, Number)
        assert statement.value.value == 5

    def test_assign_to_packet_field(self):
        statement = parse("p.rank = now").statements[0]
        assert isinstance(statement.target, Attribute)
        assert statement.target.obj == "p"
        assert statement.target.attribute == "rank"
        assert isinstance(statement.value, Name)
        assert statement.value.identifier == "now"

    def test_assign_to_table_entry(self):
        statement = parse("last_finish[f] = 10").statements[0]
        assert isinstance(statement.target, Subscript)
        assert statement.target.obj == "last_finish"
        assert isinstance(statement.target.index, Name)

    def test_multiple_statements(self):
        program = parse("a = 1\nb = 2\nc = 3")
        assert len(program.statements) == 3

    def test_semicolon_separated_statements(self):
        program = parse("a = 1; b = 2")
        assert len(program.statements) == 2


class TestExpressions:
    def test_operator_precedence_multiplication_before_addition(self):
        value = parse("x = a + b * c").statements[0].value
        assert isinstance(value, BinOp)
        assert value.operator == "+"
        assert isinstance(value.right, BinOp)
        assert value.right.operator == "*"

    def test_parentheses_override_precedence(self):
        value = parse("x = (a + b) * c").statements[0].value
        assert isinstance(value, BinOp)
        assert value.operator == "*"
        assert isinstance(value.left, BinOp)
        assert value.left.operator == "+"

    def test_left_associativity_of_subtraction(self):
        value = parse("x = a - b - c").statements[0].value
        # (a - b) - c
        assert value.operator == "-"
        assert isinstance(value.left, BinOp)
        assert value.left.operator == "-"
        assert isinstance(value.right, Name)

    def test_unary_minus(self):
        value = parse("x = -a + b").statements[0].value
        assert isinstance(value, BinOp)
        assert isinstance(value.left, UnaryOp)
        assert value.left.operator == "-"

    def test_call_with_two_arguments(self):
        value = parse("x = max(virtual_time, last_finish[f])").statements[0].value
        assert isinstance(value, Call)
        assert value.function == "max"
        assert len(value.args) == 2
        assert isinstance(value.args[1], Subscript)

    def test_call_with_no_arguments(self):
        value = parse("x = foo()").statements[0].value
        assert isinstance(value, Call)
        assert value.args == ()

    def test_nested_calls(self):
        value = parse("x = min(max(a, b), c)").statements[0].value
        assert isinstance(value, Call)
        assert isinstance(value.args[0], Call)

    def test_attribute_read(self):
        value = parse("x = f.weight").statements[0].value
        assert isinstance(value, Attribute)
        assert value.obj == "f"
        assert value.attribute == "weight"

    def test_comparison(self):
        value = parse("x = a <= b").statements[0].value
        assert isinstance(value, Compare)
        assert value.operator == "<="

    def test_membership(self):
        program = parse("if f in last_finish\n    x = 1")
        condition = program.statements[0].condition
        assert isinstance(condition, Membership)
        assert condition.table == "last_finish"
        assert condition.negated is False

    def test_negated_membership(self):
        program = parse("if f not in last_finish\n    x = 1")
        condition = program.statements[0].condition
        assert isinstance(condition, Membership)
        assert condition.negated is True

    def test_boolean_and_or(self):
        program = parse("if a > 1 and b > 2 or c > 3\n    x = 1")
        condition = program.statements[0].condition
        assert isinstance(condition, BoolOp)
        assert condition.operator == "or"
        assert isinstance(condition.operands[0], BoolOp)
        assert condition.operands[0].operator == "and"

    def test_not_operator(self):
        program = parse("if not done\n    x = 1")
        condition = program.statements[0].condition
        assert isinstance(condition, UnaryOp)
        assert condition.operator == "not"

    def test_boolean_literals(self):
        value = parse("x = true").statements[0].value
        assert isinstance(value, Boolean)
        assert value.value is True


class TestIfStatements:
    def test_if_without_else(self):
        program = parse("if a > b\n    x = 1")
        statement = program.statements[0]
        assert isinstance(statement, If)
        assert len(statement.body) == 1
        assert statement.orelse == ()

    def test_if_with_else(self):
        program = parse("if a > b\n    x = 1\nelse\n    x = 2")
        statement = program.statements[0]
        assert len(statement.body) == 1
        assert len(statement.orelse) == 1

    def test_if_with_colons(self):
        program = parse("if a > b:\n    x = 1\nelse:\n    x = 2")
        statement = program.statements[0]
        assert len(statement.body) == 1
        assert len(statement.orelse) == 1

    def test_if_with_parenthesised_condition(self):
        program = parse("if (a > b):\n    x = 1")
        statement = program.statements[0]
        assert isinstance(statement.condition, Compare)

    def test_c_style_inline_if(self):
        program = parse("if (tb > BURST_SIZE) tb = BURST_SIZE;")
        statement = program.statements[0]
        assert isinstance(statement, If)
        assert len(statement.body) == 1
        assert isinstance(statement.body[0], Assign)
        assert statement.orelse == ()

    def test_elif_chain_desugars_to_nested_if(self):
        source = (
            "if a > 1\n"
            "    x = 1\n"
            "elif a > 2\n"
            "    x = 2\n"
            "else\n"
            "    x = 3\n"
        )
        statement = parse(source).statements[0]
        assert isinstance(statement, If)
        assert len(statement.orelse) == 1
        nested = statement.orelse[0]
        assert isinstance(nested, If)
        assert len(nested.body) == 1
        assert len(nested.orelse) == 1

    def test_nested_if(self):
        source = (
            "if a > 1\n"
            "    if b > 2\n"
            "        x = 1\n"
            "    else\n"
            "        x = 2\n"
        )
        outer = parse(source).statements[0]
        inner = outer.body[0]
        assert isinstance(inner, If)
        assert len(inner.orelse) == 1

    def test_multi_statement_block(self):
        source = "if a > 1\n    x = 1\n    y = 2\n    z = 3\nw = 4"
        program = parse(source)
        assert len(program.statements) == 2
        assert len(program.statements[0].body) == 3

    def test_else_with_inline_body(self):
        program = parse("if a > b\n    x = 1\nelse x = 2")
        statement = program.statements[0]
        assert len(statement.orelse) == 1


class TestErrors:
    def test_empty_program_rejected(self):
        with pytest.raises(ParseError):
            parse("")

    def test_missing_assignment_value(self):
        with pytest.raises(ParseError):
            parse("x = ")

    def test_missing_equals(self):
        with pytest.raises(ParseError):
            parse("x 5")

    def test_unclosed_parenthesis(self):
        with pytest.raises(ParseError):
            parse("x = (a + b")

    def test_unclosed_subscript(self):
        with pytest.raises(ParseError):
            parse("x = table[f")

    def test_empty_if_block(self):
        with pytest.raises(ParseError):
            parse("if a > b\n    // only a comment\nx = 1")

    def test_bare_expression_statement_rejected(self):
        with pytest.raises(ParseError):
            parse("a + b")

    def test_stray_indent_rejected(self):
        with pytest.raises(ParseError):
            parse("x = 1\n    y = 2")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as excinfo:
            parse("x = 1\ny = * 2")
        assert excinfo.value.line == 2

    def test_parse_is_memoised_on_the_text_but_not_on_errors(self):
        # Every transaction instance of a program parses the same text: the
        # immutable AST is shared.  A failed parse raises every time.
        text = "x = 41 + 1  // memoised\np.rank = x"
        assert parse(text) is parse(text)
        assert parse(text) is not parse(text + "\n")
        for _ in range(2):
            with pytest.raises(ParseError) as excinfo:
                parse("x = 1\ny = * 2  // not memoised")
            assert excinfo.value.line == 2


class TestPaperFigures:
    """Every figure listing parses, with the expected top-level structure."""

    def test_stfq_structure(self):
        from repro.lang.programs import STFQ_SOURCE

        program = parse(STFQ_SOURCE)
        kinds = [type(s).__name__ for s in program.statements]
        assert kinds == ["Assign", "If", "Assign", "Assign"]

    def test_token_bucket_structure(self):
        from repro.lang.programs import TOKEN_BUCKET_SOURCE

        program = parse(TOKEN_BUCKET_SOURCE)
        kinds = [type(s).__name__ for s in program.statements]
        assert kinds == ["Assign", "If", "Assign", "Assign", "Assign"]

    def test_min_rate_structure(self):
        from repro.lang.programs import MIN_RATE_SOURCE

        program = parse(MIN_RATE_SOURCE)
        kinds = [type(s).__name__ for s in program.statements]
        assert kinds == ["Assign", "If", "If", "Assign", "Assign"]

    def test_stop_and_go_structure(self):
        from repro.lang.programs import STOP_AND_GO_SOURCE

        program = parse(STOP_AND_GO_SOURCE)
        kinds = [type(s).__name__ for s in program.statements]
        assert kinds == ["If", "Assign"]
        assert len(program.statements[0].body) == 2

    @pytest.mark.parametrize("name", [
        "stfq", "token_bucket", "lstf", "stop_and_go", "min_rate",
        "fifo", "strict_priority", "sjf", "srpt", "edf", "las",
    ])
    def test_all_programs_parse(self, name):
        from repro.lang.programs import PROGRAM_SOURCES

        program = parse(PROGRAM_SOURCES[name])
        assert program.statements


class TestHelpers:
    def test_iter_assignments_finds_nested_assignments(self):
        source = "if a > b\n    x = 1\nelse\n    y = 2\nz = 3"
        assignments = list(iter_assignments(parse(source)))
        targets = sorted(
            a.target.identifier for a in assignments if isinstance(a.target, Name)
        )
        assert targets == ["x", "y", "z"]

    def test_format_node_round_trips_simple_expressions(self):
        statement = parse("p.rank = max(a, b) + c / 2").statements[0]
        text = format_node(statement)
        assert "p.rank" in text
        assert "max(a, b)" in text
