"""AST node definitions for the mini-JavaScript engine.

Nodes are plain dataclasses; the compiler
(:mod:`repro.cwl.expressions.jsengine.closures`) dispatches on their class.  Only
the constructs needed by CWL expressions are modelled — there is no support for
classes, generators, async, regular expressions or prototype manipulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence


class Node:
    """Base class for all AST nodes."""


# --------------------------------------------------------------------- expressions


@dataclass
class Literal(Node):
    value: Any


@dataclass
class Identifier(Node):
    name: str


@dataclass
class ArrayLiteral(Node):
    elements: List[Node]


@dataclass
class ObjectLiteral(Node):
    entries: List[tuple]          # list of (key: str, value: Node)


@dataclass
class UnaryOp(Node):
    operator: str                  # '!', '-', '+', 'typeof'
    operand: Node


@dataclass
class BinaryOp(Node):
    operator: str                  # arithmetic / comparison / logical
    left: Node
    right: Node


@dataclass
class Conditional(Node):
    test: Node
    consequent: Node
    alternate: Node


@dataclass
class SequenceExpression(Node):
    """``a, b, c``: each evaluated in turn; the value is the last one's."""
    expressions: List[Node]


@dataclass
class Member(Node):
    obj: Node
    prop: str                      # static property access obj.prop


@dataclass
class Index(Node):
    obj: Node
    index: Node                    # computed access obj[expr]


@dataclass
class Call(Node):
    callee: Node
    args: List[Node]


@dataclass
class FunctionExpression(Node):
    params: List[str]
    body: List[Node]               # list of statements
    name: Optional[str] = None
    is_arrow: bool = False
    #: Arrow functions with expression bodies evaluate and return the expression.
    expression_body: Optional[Node] = None


@dataclass
class Assignment(Node):
    target: Node                   # Identifier | Member | Index
    operator: str                  # '=', '+=', '-=', '*=', '/=', '%='
    value: Node


@dataclass
class UpdateExpression(Node):
    target: Node                   # Identifier
    operator: str                  # '++' or '--'
    prefix: bool = False


# --------------------------------------------------------------------- statements


@dataclass
class ExpressionStatement(Node):
    expression: Node


@dataclass
class VariableDeclaration(Node):
    kind: str                      # var | let | const
    declarations: List[tuple]      # list of (name, initializer Node or None)


@dataclass
class ReturnStatement(Node):
    argument: Optional[Node]


@dataclass
class IfStatement(Node):
    test: Node
    consequent: List[Node]
    alternate: Optional[List[Node]] = None


@dataclass
class ForStatement(Node):
    init: Optional[Node]
    test: Optional[Node]
    update: Optional[Node]
    body: List[Node] = field(default_factory=list)


@dataclass
class ForOfStatement(Node):
    variable: str
    iterable: Node
    body: List[Node] = field(default_factory=list)
    of: bool = True                # True for 'of' (values), False for 'in' (keys)
    kind: str = "var"              # var | let | const


@dataclass
class WhileStatement(Node):
    test: Node
    body: List[Node] = field(default_factory=list)


@dataclass
class ThrowStatement(Node):
    argument: Node


@dataclass
class BreakStatement(Node):
    pass


@dataclass
class ContinueStatement(Node):
    pass


@dataclass
class Program(Node):
    body: Sequence[Node] = ()
