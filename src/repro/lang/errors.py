"""Errors raised by the transaction language tool-chain.

All derive from :class:`repro.exceptions.ReproError` through
:class:`LangError`, so callers that already catch library errors keep
working, and from the language side a single ``except LangError`` covers the
lexer, the parser and the interpreter.
"""

from __future__ import annotations

from ..exceptions import ReproError, TransactionError


class LangError(ReproError):
    """Base class for every transaction-language error."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class LexerError(LangError):
    """Raised for characters or indentation the tokenizer cannot handle."""


class ParseError(LangError):
    """Raised when the token stream does not form a valid program."""


class RuntimeLangError(LangError, TransactionError):
    """Raised when a program fails while executing.

    Examples: reading an undefined variable, subscripting a non-mapping
    state variable, dividing by zero, or finishing a scheduling program
    without assigning ``p.rank``.  It is also a
    :class:`~repro.exceptions.TransactionError`: a program *is* the
    transaction, so callers catching a misbehaving transaction catch it.
    """
