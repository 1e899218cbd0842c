"""Recursive-descent parser for the mini-JavaScript engine.

Grammar (roughly, highest precedence last):

    program        := statement*
    statement      := var-decl | return | if | for | while | throw | break |
                      continue | block | expression-statement
    expression     := assignment
    assignment     := conditional (('=' | '+=' | ...) assignment)?
    conditional    := logical-or ('?' assignment ':' assignment)?
    logical-or     := logical-and ('||' logical-and)*
    logical-and    := equality ('&&' equality)*
    equality       := relational (('==' | '!=' | '===' | '!==') relational)*
    relational     := additive (('<' | '>' | '<=' | '>=') additive)*
    additive       := multiplicative (('+' | '-') multiplicative)*
    multiplicative := unary (('*' | '/' | '%') unary)*
    unary          := ('!' | '-' | '+' | 'typeof' | '++' | '--') unary | postfix
    postfix        := primary (call | member | index | '++' | '--')*
    primary        := literal | identifier | '(' expression ')' | array | object |
                      function-expression | arrow-function
"""

from __future__ import annotations

from typing import List, Optional

from repro.cwl.errors import JavaScriptError
from repro.cwl.expressions.jsengine import ast_nodes as ast
from repro.cwl.expressions.jsengine.tokenizer import Token, number_value, tokenize
from repro.cwl.expressions.jsengine.values import _js_string

_ASSIGNMENT_OPS = {"=", "+=", "-=", "*=", "/=", "%="}


class Parser:
    """Parse a token stream into an AST."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens: List[Token] = tokenize(source)
        self.position = 0

    # ------------------------------------------------------------- utilities

    def peek(self, offset: int = 0) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != "eof":
            self.position += 1
        return token

    def check(self, kind: str, value: Optional[str] = None) -> bool:
        token = self.peek()
        return token.kind == kind and (value is None or token.value == value)

    def match(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        if not self.check(kind, value):
            token = self.peek()
            raise JavaScriptError(
                f"expected {value or kind} but found {token.value!r} at position {token.position} "
                f"in {self.source!r}"
            )
        return self.advance()

    # --------------------------------------------------------------- programs

    def parse_program(self) -> ast.Program:
        body: List[ast.Node] = []
        while not self.check("eof"):
            body.append(self.parse_statement())
        return ast.Program(body=body)

    def parse_expression_only(self) -> ast.Node:
        expr = self.parse_expression()
        # Tolerate a trailing semicolon in single-expression mode.
        self.match("punct", ";")
        if not self.check("eof"):
            token = self.peek()
            raise JavaScriptError(
                f"unexpected trailing content {token.value!r} at position {token.position}"
            )
        return expr

    # -------------------------------------------------------------- statements

    def parse_statement(self) -> ast.Node:
        token = self.peek()
        if token.kind == "keyword":
            if token.value in ("var", "let", "const"):
                return self.parse_variable_declaration()
            if token.value == "return":
                return self.parse_return()
            if token.value == "if":
                return self.parse_if()
            if token.value == "for":
                return self.parse_for()
            if token.value == "while":
                return self.parse_while()
            if token.value == "throw":
                self.advance()
                argument = self.parse_expression()
                self.match("punct", ";")
                return ast.ThrowStatement(argument)
            if token.value == "break":
                self.advance()
                self.match("punct", ";")
                return ast.BreakStatement()
            if token.value == "continue":
                self.advance()
                self.match("punct", ";")
                return ast.ContinueStatement()
            if token.value == "function":
                # Function declaration: treated as "var name = function expr".
                func = self.parse_function_expression()
                return ast.VariableDeclaration("var", [(func.name or "<anonymous>", func)])
        if self.check("punct", "{"):
            return ast.Program(body=self.parse_block())
        expression = self.parse_expression()
        self.match("punct", ";")
        return ast.ExpressionStatement(expression)

    def parse_block(self) -> List[ast.Node]:
        self.expect("punct", "{")
        body: List[ast.Node] = []
        while not self.check("punct", "}"):
            if self.check("eof"):
                raise JavaScriptError("unterminated block")
            body.append(self.parse_statement())
        self.expect("punct", "}")
        return body

    def parse_statement_or_block(self) -> List[ast.Node]:
        if self.check("punct", "{"):
            return self.parse_block()
        return [self.parse_statement()]

    def parse_variable_declaration(self) -> ast.VariableDeclaration:
        kind = self.advance().value
        declarations = []
        while True:
            name = self.expect("identifier").value
            init: Optional[ast.Node] = None
            if self.match("punct", "="):
                init = self.parse_assignment()
            declarations.append((name, init))
            if not self.match("punct", ","):
                break
        self.match("punct", ";")
        return ast.VariableDeclaration(kind, declarations)

    def parse_return(self) -> ast.ReturnStatement:
        self.expect("keyword", "return")
        if self.check("punct", ";") or self.check("punct", "}") or self.check("eof"):
            self.match("punct", ";")
            return ast.ReturnStatement(None)
        argument = self.parse_expression()
        self.match("punct", ";")
        return ast.ReturnStatement(argument)

    def parse_if(self) -> ast.IfStatement:
        self.expect("keyword", "if")
        self.expect("punct", "(")
        test = self.parse_expression()
        self.expect("punct", ")")
        consequent = self.parse_statement_or_block()
        alternate: Optional[List[ast.Node]] = None
        if self.check("keyword", "else"):
            self.advance()
            if self.check("keyword", "if"):
                alternate = [self.parse_if()]
            else:
                alternate = self.parse_statement_or_block()
        return ast.IfStatement(test, consequent, alternate)

    def parse_for(self) -> ast.Node:
        self.expect("keyword", "for")
        self.expect("punct", "(")
        # for (var x of arr) / for (var x in obj)
        if self.peek().kind == "keyword" and self.peek().value in ("var", "let", "const") \
                and self.peek(2).kind == "keyword" and self.peek(2).value in ("of", "in"):
            kind = self.advance().value  # var/let/const
            variable = self.expect("identifier").value
            of_kind = self.advance().value  # of | in
            iterable = self.parse_expression()
            self.expect("punct", ")")
            body = self.parse_statement_or_block()
            return ast.ForOfStatement(variable, iterable, body, of=(of_kind == "of"), kind=kind)

        init: Optional[ast.Node] = None
        if not self.check("punct", ";"):
            if self.peek().kind == "keyword" and self.peek().value in ("var", "let", "const"):
                init = self.parse_variable_declaration()
            else:
                init = ast.ExpressionStatement(self.parse_expression())
                self.match("punct", ";")
        else:
            self.advance()
        test: Optional[ast.Node] = None
        if not self.check("punct", ";"):
            test = self.parse_expression()
        self.expect("punct", ";")
        update: Optional[ast.Node] = None
        if not self.check("punct", ")"):
            update = self.parse_expression()
        self.expect("punct", ")")
        body = self.parse_statement_or_block()
        return ast.ForStatement(init, test, update, body)

    def parse_while(self) -> ast.WhileStatement:
        self.expect("keyword", "while")
        self.expect("punct", "(")
        test = self.parse_expression()
        self.expect("punct", ")")
        body = self.parse_statement_or_block()
        return ast.WhileStatement(test, body)

    # ------------------------------------------------------------- expressions

    def parse_expression(self) -> ast.Node:
        """An expression, comma operator included (argument lists, array and
        object literals use :meth:`parse_assignment`, where a comma separates)."""
        expression = self.parse_assignment()
        if not self.check("punct", ","):
            return expression
        expressions = [expression]
        while self.match("punct", ","):
            expressions.append(self.parse_assignment())
        return ast.SequenceExpression(expressions)

    def parse_assignment(self) -> ast.Node:
        left = self.parse_conditional()
        token = self.peek()
        if token.kind == "punct" and token.value in _ASSIGNMENT_OPS:
            if not isinstance(left, (ast.Identifier, ast.Member, ast.Index)):
                raise JavaScriptError(f"invalid assignment target at position {token.position}")
            operator = self.advance().value
            value = self.parse_assignment()
            return ast.Assignment(left, operator, value)
        return left

    def parse_conditional(self) -> ast.Node:
        test = self.parse_logical_or()
        if self.match("punct", "?"):
            consequent = self.parse_assignment()
            self.expect("punct", ":")
            alternate = self.parse_assignment()
            return ast.Conditional(test, consequent, alternate)
        return test

    def parse_logical_or(self) -> ast.Node:
        node = self.parse_logical_and()
        while self.check("punct", "||"):
            self.advance()
            node = ast.BinaryOp("||", node, self.parse_logical_and())
        return node

    def parse_logical_and(self) -> ast.Node:
        node = self.parse_equality()
        while self.check("punct", "&&"):
            self.advance()
            node = ast.BinaryOp("&&", node, self.parse_equality())
        return node

    def parse_equality(self) -> ast.Node:
        node = self.parse_relational()
        while self.peek().kind == "punct" and self.peek().value in ("==", "!=", "===", "!=="):
            operator = self.advance().value
            node = ast.BinaryOp(operator, node, self.parse_relational())
        return node

    def parse_relational(self) -> ast.Node:
        node = self.parse_additive()
        while (self.peek().kind == "punct" and self.peek().value in ("<", ">", "<=", ">=")) or \
                (self.peek().kind == "keyword" and self.peek().value == "in"):
            operator = self.advance().value
            node = ast.BinaryOp(operator, node, self.parse_additive())
        return node

    def parse_additive(self) -> ast.Node:
        node = self.parse_multiplicative()
        while self.peek().kind == "punct" and self.peek().value in ("+", "-"):
            operator = self.advance().value
            node = ast.BinaryOp(operator, node, self.parse_multiplicative())
        return node

    def parse_multiplicative(self) -> ast.Node:
        node = self.parse_unary()
        while self.peek().kind == "punct" and self.peek().value in ("*", "/", "%"):
            operator = self.advance().value
            node = ast.BinaryOp(operator, node, self.parse_unary())
        return node

    def parse_unary(self) -> ast.Node:
        token = self.peek()
        if token.kind == "punct" and token.value in ("!", "-", "+"):
            self.advance()
            return ast.UnaryOp(token.value, self.parse_unary())
        if token.kind == "punct" and token.value in ("++", "--"):
            self.advance()
            target = self.parse_unary()
            if not isinstance(target, ast.Identifier):
                raise JavaScriptError("++/-- target must be a variable")
            return ast.UpdateExpression(target, token.value, prefix=True)
        if token.kind == "keyword" and token.value == "typeof":
            self.advance()
            return ast.UnaryOp("typeof", self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Node:
        node = self.parse_primary()
        while True:
            if self.check("punct", "("):
                self.advance()
                args: List[ast.Node] = []
                while not self.check("punct", ")"):
                    args.append(self.parse_assignment())
                    if not self.match("punct", ","):
                        break
                self.expect("punct", ")")
                node = ast.Call(node, args)
            elif self.check("punct", "."):
                self.advance()
                prop = self.advance()
                if prop.kind not in ("identifier", "keyword"):
                    raise JavaScriptError(f"invalid property name {prop.value!r}")
                node = ast.Member(node, prop.value)
            elif self.check("punct", "["):
                self.advance()
                index = self.parse_expression()
                self.expect("punct", "]")
                node = ast.Index(node, index)
            elif self.check("punct", "++") or self.check("punct", "--"):
                operator = self.advance().value
                if not isinstance(node, ast.Identifier):
                    raise JavaScriptError("++/-- target must be a variable")
                node = ast.UpdateExpression(node, operator, prefix=False)
            else:
                return node

    def parse_primary(self) -> ast.Node:
        token = self.peek()

        if token.kind == "number":
            self.advance()
            return ast.Literal(number_value(token.value))
        if token.kind == "string":
            self.advance()
            return ast.Literal(token.value)
        if token.kind == "keyword":
            if token.value in ("true", "false"):
                self.advance()
                return ast.Literal(token.value == "true")
            if token.value in ("null", "undefined"):
                self.advance()
                return ast.Literal(None)
            if token.value == "function":
                return self.parse_function_expression()
            if token.value == "new":
                # 'new X(...)' — treated as a plain call, sufficient for Error/Array.
                self.advance()
                return self.parse_postfix()
        if token.kind == "identifier":
            # Arrow function with a single bare parameter: ``x => expr``
            if self.peek(1).kind == "punct" and self.peek(1).value == "=>":
                name = self.advance().value
                self.advance()  # '=>'
                return self._parse_arrow_tail([name])
            self.advance()
            return ast.Identifier(token.value)
        if token.kind == "punct" and token.value == "(":
            # Could be a parenthesised expression or an arrow-function parameter list.
            arrow = self._try_parse_parenthesised_arrow()
            if arrow is not None:
                return arrow
            self.expect("punct", "(")
            expr = self.parse_expression()
            self.expect("punct", ")")
            return expr
        if token.kind == "punct" and token.value == "[":
            self.advance()
            elements: List[ast.Node] = []
            while not self.check("punct", "]"):
                elements.append(self.parse_assignment())
                if not self.match("punct", ","):
                    break
            self.expect("punct", "]")
            return ast.ArrayLiteral(elements)
        if token.kind == "punct" and token.value == "{":
            self.advance()
            entries: List[tuple] = []
            while not self.check("punct", "}"):
                key_token = self.advance()
                if key_token.kind not in ("identifier", "string", "keyword", "number"):
                    raise JavaScriptError(f"invalid object key {key_token.value!r}")
                self.expect("punct", ":")
                # A numeric key names the property its number's string form
                # does, as an index does (``{1.50: x}`` is ``{"1.5": x}``).
                key = _js_string(number_value(key_token.value)) \
                    if key_token.kind == "number" else key_token.value
                entries.append((key, self.parse_assignment()))
                if not self.match("punct", ","):
                    break
            self.expect("punct", "}")
            return ast.ObjectLiteral(entries)

        raise JavaScriptError(
            f"unexpected token {token.value!r} ({token.kind}) at position {token.position} in {self.source!r}"
        )

    # --------------------------------------------------------------- functions

    def parse_function_expression(self) -> ast.FunctionExpression:
        self.expect("keyword", "function")
        name: Optional[str] = None
        if self.peek().kind == "identifier":
            name = self.advance().value
        self.expect("punct", "(")
        params: List[str] = []
        while not self.check("punct", ")"):
            params.append(self.expect("identifier").value)
            if not self.match("punct", ","):
                break
        self.expect("punct", ")")
        body = self.parse_block()
        return ast.FunctionExpression(params=params, body=body, name=name)

    def _try_parse_parenthesised_arrow(self) -> Optional[ast.FunctionExpression]:
        """Look ahead for ``(a, b) =>``; returns the arrow function or None."""
        saved = self.position
        try:
            self.expect("punct", "(")
            params: List[str] = []
            if not self.check("punct", ")"):
                while True:
                    token = self.peek()
                    if token.kind != "identifier":
                        raise JavaScriptError("not an arrow parameter list")
                    params.append(self.advance().value)
                    if not self.match("punct", ","):
                        break
            self.expect("punct", ")")
            if not self.check("punct", "=>"):
                raise JavaScriptError("not an arrow function")
            self.advance()
            return self._parse_arrow_tail(params)
        except JavaScriptError:
            self.position = saved
            return None

    def _parse_arrow_tail(self, params: List[str]) -> ast.FunctionExpression:
        if self.check("punct", "{"):
            body = self.parse_block()
            return ast.FunctionExpression(params=params, body=body, is_arrow=True)
        expression = self.parse_assignment()
        return ast.FunctionExpression(params=params, body=[], is_arrow=True,
                                      expression_body=expression)


def parse_expression(source: str) -> ast.Node:
    """Parse a single JavaScript expression."""
    return Parser(source).parse_expression_only()


def parse_program(source: str) -> ast.Program:
    """Parse a sequence of statements (an ``expressionLib`` entry or ``${...}`` body)."""
    return Parser(source).parse_program()
