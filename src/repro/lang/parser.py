"""Recursive-descent parser for the transaction language.

Grammar (statements end at NEWLINE, blocks are INDENT ... DEDENT)::

    program     := statement*
    statement   := assignment NEWLINE
                 | if_statement
    assignment  := target "=" expression
    target      := NAME | NAME "." NAME | NAME "[" expression "]"
    if_statement:= "if" expression ":"? NEWLINE INDENT statement+ DEDENT
                   ("elif" expression ":"? NEWLINE INDENT statement+ DEDENT)*
                   ("else" ":"? NEWLINE INDENT statement+ DEDENT)?
    expression  := or_expr
    or_expr     := and_expr ("or" and_expr)*
    and_expr    := not_expr ("and" not_expr)*
    not_expr    := "not" not_expr | comparison
    comparison  := arith (("<"|"<="|">"|">="|"=="|"!=") arith)?
                 | arith ("not"? "in" NAME)
    arith       := term (("+"|"-") term)*
    term        := unary (("*"|"/"|"%") unary)*
    unary       := "-" unary | primary
    primary     := NUMBER | "true" | "false" | NAME trailer* | "(" expression ")"
    trailer     := "." NAME | "[" expression "]" | "(" args ")"

The only unusual wrinkle is the paper's C-style single-line conditional
(``if (tb > BURST_SIZE) tb = BURST_SIZE;``): when the token after an ``if``
condition is not a NEWLINE, the parser accepts a single inline statement as
the body.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .ast import (
    Assign,
    AssignTarget,
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
)
from .errors import ParseError
from .lexer import Token, TokenType, tokenize

_COMPARISON_TOKENS = {
    TokenType.LT: "<",
    TokenType.LE: "<=",
    TokenType.GT: ">",
    TokenType.GE: ">=",
    TokenType.EQ: "==",
    TokenType.NE: "!=",
}

_ADDITIVE_TOKENS = {TokenType.PLUS: "+", TokenType.MINUS: "-"}
_MULTIPLICATIVE_TOKENS = {TokenType.STAR: "*", TokenType.SLASH: "/", TokenType.PERCENT: "%"}


class Parser:
    """Parses a token stream into a :class:`~repro.lang.ast.Program`."""

    def __init__(self, tokens: Sequence[Token], source: str = "") -> None:
        self.tokens = list(tokens)
        self.source = source
        self.pos = 0

    # -- token helpers -------------------------------------------------------
    def _peek(self, ahead: int = 0) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def _check(self, token_type: TokenType, ahead: int = 0) -> bool:
        return self._peek(ahead).type is token_type

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def _match(self, *token_types: TokenType) -> Optional[Token]:
        if self._peek().type in token_types:
            return self._advance()
        return None

    def _expect(self, token_type: TokenType, context: str) -> Token:
        token = self._peek()
        if token.type is not token_type:
            raise ParseError(
                f"expected {token_type.value!r} {context}, found "
                f"{self._describe(token)}",
                line=token.line,
                column=token.column,
            )
        return self._advance()

    @staticmethod
    def _describe(token: Token) -> str:
        if token.type is TokenType.EOF:
            return "end of program"
        if token.type in (TokenType.NEWLINE, TokenType.INDENT, TokenType.DEDENT):
            return token.type.name.lower()
        return repr(str(token.value))

    def _skip_newlines(self) -> None:
        while self._match(TokenType.NEWLINE):
            pass

    # -- entry point ----------------------------------------------------------
    def parse(self) -> Program:
        statements: List[Statement] = []
        self._skip_newlines()
        while not self._check(TokenType.EOF):
            statements.append(self._statement())
            self._skip_newlines()
        if not statements:
            raise ParseError("program is empty", line=1, column=1)
        return Program(statements=tuple(statements), source=self.source)

    # -- statements ------------------------------------------------------------
    def _statement(self) -> Statement:
        if self._check(TokenType.IF):
            return self._if_statement()
        if self._check(TokenType.INDENT) or self._check(TokenType.DEDENT):
            token = self._advance()
            raise ParseError(
                "unexpected indentation", line=token.line, column=token.column
            )
        return self._assignment()

    def _assignment(self) -> Assign:
        target = self._assign_target()
        self._expect(TokenType.ASSIGN, "in assignment")
        value = self._expression()
        self._end_of_statement()
        return Assign(target=target, value=value, line=target.line)

    def _assign_target(self) -> AssignTarget:
        token = self._expect(TokenType.NAME, "as assignment target")
        name = str(token.value)
        if self._match(TokenType.DOT):
            attr = self._expect(TokenType.NAME, "after '.'")
            return Attribute(obj=name, attribute=str(attr.value), line=token.line)
        if self._match(TokenType.LBRACKET):
            index = self._expression()
            self._expect(TokenType.RBRACKET, "to close subscript")
            return Subscript(obj=name, index=index, line=token.line)
        return Name(identifier=name, line=token.line)

    def _end_of_statement(self) -> None:
        token = self._peek()
        if token.type in (TokenType.NEWLINE, TokenType.EOF, TokenType.DEDENT):
            self._match(TokenType.NEWLINE)
            return
        raise ParseError(
            f"expected end of statement, found {self._describe(token)}",
            line=token.line,
            column=token.column,
        )

    def _if_statement(self) -> If:
        if_token = self._expect(TokenType.IF, "")
        condition = self._expression()
        self._match(TokenType.COLON)

        if not self._check(TokenType.NEWLINE):
            # C-style inline body: ``if (cond) statement``.
            body: Tuple[Statement, ...] = (self._assignment(),)
            return If(condition=condition, body=body, orelse=(), line=if_token.line)

        body = self._block("if")
        orelse: Tuple[Statement, ...] = ()
        if self._check(TokenType.ELIF):
            orelse = (self._elif_statement(),)
        elif self._check(TokenType.ELSE):
            self._advance()
            self._match(TokenType.COLON)
            if self._check(TokenType.NEWLINE):
                orelse = self._block("else")
            else:
                orelse = (self._assignment(),)
        return If(condition=condition, body=body, orelse=orelse, line=if_token.line)

    def _elif_statement(self) -> If:
        elif_token = self._expect(TokenType.ELIF, "")
        condition = self._expression()
        self._match(TokenType.COLON)
        body = self._block("elif")
        orelse: Tuple[Statement, ...] = ()
        if self._check(TokenType.ELIF):
            orelse = (self._elif_statement(),)
        elif self._check(TokenType.ELSE):
            self._advance()
            self._match(TokenType.COLON)
            orelse = self._block("else")
        return If(condition=condition, body=body, orelse=orelse, line=elif_token.line)

    def _block(self, context: str) -> Tuple[Statement, ...]:
        self._expect(TokenType.NEWLINE, f"after '{context}' header")
        self._skip_newlines()
        self._expect(TokenType.INDENT, f"to open the '{context}' block")
        statements: List[Statement] = []
        self._skip_newlines()
        while not self._check(TokenType.DEDENT) and not self._check(TokenType.EOF):
            statements.append(self._statement())
            self._skip_newlines()
        self._expect(TokenType.DEDENT, f"to close the '{context}' block")
        if not statements:
            token = self._peek()
            raise ParseError(
                f"empty '{context}' block", line=token.line, column=token.column
            )
        return tuple(statements)

    # -- expressions -------------------------------------------------------------
    def _expression(self) -> Expression:
        return self._or_expr()

    def _or_expr(self) -> Expression:
        left = self._and_expr()
        operands = [left]
        while self._check(TokenType.OR):
            self._advance()
            operands.append(self._and_expr())
        if len(operands) == 1:
            return left
        return BoolOp(operator="or", operands=tuple(operands), line=left.line)

    def _and_expr(self) -> Expression:
        left = self._not_expr()
        operands = [left]
        while self._check(TokenType.AND):
            self._advance()
            operands.append(self._not_expr())
        if len(operands) == 1:
            return left
        return BoolOp(operator="and", operands=tuple(operands), line=left.line)

    def _not_expr(self) -> Expression:
        if self._check(TokenType.NOT) and not self._check(TokenType.IN, ahead=1):
            token = self._advance()
            operand = self._not_expr()
            return UnaryOp(operator="not", operand=operand, line=token.line)
        return self._comparison()

    def _comparison(self) -> Expression:
        left = self._arith()
        token = self._peek()
        if token.type in _COMPARISON_TOKENS:
            self._advance()
            right = self._arith()
            return Compare(
                operator=_COMPARISON_TOKENS[token.type],
                left=left,
                right=right,
                line=left.line,
            )
        if token.type is TokenType.IN or (
            token.type is TokenType.NOT and self._check(TokenType.IN, ahead=1)
        ):
            negated = token.type is TokenType.NOT
            self._advance()
            if negated:
                self._expect(TokenType.IN, "after 'not'")
            table = self._expect(TokenType.NAME, "after 'in'")
            return Membership(
                item=left, table=str(table.value), negated=negated, line=left.line
            )
        return left

    def _arith(self) -> Expression:
        left = self._term()
        while self._peek().type in _ADDITIVE_TOKENS:
            token = self._advance()
            right = self._term()
            left = BinOp(
                operator=_ADDITIVE_TOKENS[token.type],
                left=left,
                right=right,
                line=left.line,
            )
        return left

    def _term(self) -> Expression:
        left = self._unary()
        while self._peek().type in _MULTIPLICATIVE_TOKENS:
            token = self._advance()
            right = self._unary()
            left = BinOp(
                operator=_MULTIPLICATIVE_TOKENS[token.type],
                left=left,
                right=right,
                line=left.line,
            )
        return left

    def _unary(self) -> Expression:
        if self._check(TokenType.MINUS):
            token = self._advance()
            operand = self._unary()
            return UnaryOp(operator="-", operand=operand, line=token.line)
        return self._primary()

    def _primary(self) -> Expression:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            return Number(value=token.value, line=token.line)  # type: ignore[arg-type]
        if token.type in (TokenType.TRUE, TokenType.FALSE):
            self._advance()
            return Boolean(value=bool(token.value), line=token.line)
        if token.type is TokenType.LPAREN:
            self._advance()
            inner = self._expression()
            self._expect(TokenType.RPAREN, "to close '('")
            return inner
        if token.type is TokenType.NAME:
            return self._name_expression()
        raise ParseError(
            f"expected an expression, found {self._describe(token)}",
            line=token.line,
            column=token.column,
        )

    def _name_expression(self) -> Expression:
        token = self._expect(TokenType.NAME, "")
        name = str(token.value)
        if self._match(TokenType.DOT):
            attr = self._expect(TokenType.NAME, "after '.'")
            return Attribute(obj=name, attribute=str(attr.value), line=token.line)
        if self._match(TokenType.LBRACKET):
            index = self._expression()
            self._expect(TokenType.RBRACKET, "to close subscript")
            return Subscript(obj=name, index=index, line=token.line)
        if self._match(TokenType.LPAREN):
            args: List[Expression] = []
            if not self._check(TokenType.RPAREN):
                args.append(self._expression())
                while self._match(TokenType.COMMA):
                    args.append(self._expression())
            self._expect(TokenType.RPAREN, "to close the call")
            return Call(function=name, args=tuple(args), line=token.line)
        return Name(identifier=name, line=token.line)


@lru_cache(maxsize=256)
def parse(source: str) -> Program:
    """Parse program text into an AST.

    Raises :class:`~repro.lang.errors.LexerError` or
    :class:`~repro.lang.errors.ParseError` with line/column information on
    malformed input.  Memoised on the text — every transaction instance of
    a program parses the same source, and the AST is immutable, so they
    share one; a failed parse is not cached and raises every time.
    """
    tokens = tokenize(source)
    return Parser(tokens, source=source).parse()
