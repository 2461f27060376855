"""A small Domino-style language for scheduling and shaping transactions.

Section 4.1 of the paper implements scheduling and shaping transactions as
*packet transactions written in the Domino language* and compiles them to a
pipeline of atoms.  This package reproduces that workflow in Python:

* :mod:`repro.lang.lexer`, :mod:`repro.lang.parser` — a tokenizer and a
  recursive-descent parser for the small imperative language the paper's
  figures are written in (assignments, ``if``/``else``, ``min``/``max``,
  per-flow dictionaries, packet fields ``p.x`` and the wall clock ``now``).
* :mod:`repro.lang.interpreter` — executes a parsed program against a packet
  and the transaction's persistent state, producing ``p.rank`` or
  ``p.send_time``.
* :mod:`repro.lang.compiler` — lowers a parsed program to generated Python
  source and ``compile()``s it into a native closure with the interpreter's
  exact semantics; the bridge uses it by default so the per-packet program
  cost is a direct function call, not an AST walk.
* :mod:`repro.lang.analysis` — the Domino-style front end: extracts each
  state variable's read/write pattern, classifies the atom it needs, and
  emits a :class:`repro.hardware.atoms.TransactionSpec` so the feasibility
  analyser in :mod:`repro.hardware.atoms` can decide whether the program fits
  at line rate.
* :mod:`repro.lang.bridge` — wraps a compiled program as a
  :class:`~repro.core.transaction.SchedulingTransaction` or
  :class:`~repro.core.transaction.ShapingTransaction`, so programs written in
  the language can be attached to tree nodes exactly like the native
  algorithm classes.
* :mod:`repro.lang.programs` — the source text of every transaction the
  paper's figures show (Figures 1, 4c, 6, 7 and 8) plus the Section 3.4
  one-liners, and factories producing ready-to-use compiled transactions.

Quickstart::

    from repro.lang import compile_scheduling_program
    from repro.lang.programs import STFQ_SOURCE

    stfq = compile_scheduling_program(
        STFQ_SOURCE,
        state={"virtual_time": 0.0, "last_finish": {}},
        flow_attrs={"weight": lambda flow: 1.0},
    )
    # `stfq` is a SchedulingTransaction; attach it to a tree node.
"""

from .ast import (
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
    Program,
    Subscript,
    UnaryOp,
)
from .bridge import (
    CompiledSchedulingTransaction,
    CompiledShapingTransaction,
    compile_scheduling_program,
    compile_shaping_program,
    resolve_backend,
)
from .compiler import (
    CompileError,
    CompiledProgram,
    compile_cache_info,
    compile_cached,
    compile_program,
)
from .errors import LangError, LexerError, ParseError, RuntimeLangError
from .interpreter import ExecutionResult, Interpreter, ProgramEnvironment
from .lexer import Token, TokenType, tokenize
from .parser import parse
from .analysis import ProgramAnalysis, analyze_program, spec_from_program

__all__ = [
    # AST
    "Program",
    "Assign",
    "If",
    "BinOp",
    "UnaryOp",
    "BoolOp",
    "Compare",
    "Call",
    "Name",
    "Number",
    "Attribute",
    "Subscript",
    "Membership",
    # lexer / parser
    "Token",
    "TokenType",
    "tokenize",
    "parse",
    # interpreter
    "Interpreter",
    "ProgramEnvironment",
    "ExecutionResult",
    # analysis
    "ProgramAnalysis",
    "analyze_program",
    "spec_from_program",
    # compiler
    "CompiledProgram",
    "CompileError",
    "compile_program",
    "compile_cached",
    "compile_cache_info",
    # bridge
    "CompiledSchedulingTransaction",
    "CompiledShapingTransaction",
    "compile_scheduling_program",
    "compile_shaping_program",
    "resolve_backend",
    # errors
    "LangError",
    "LexerError",
    "ParseError",
    "RuntimeLangError",
]
