"""Compiled simulation kernels: the code-generated equations of an :class:`OdeSystem`.

A real FMU ships compiled C code and the simulator runs that code.  This
module plays the role of the compiled binary: it code-generates plain Python
functions per model from the already-validated equation ASTs, and every
simulation runs through them:

* ``derivs(t, x, u, p)`` - the scalar ODE right-hand side, whose per-step
  form takes and returns plain float lists (the scalar solver loops step
  in Python floats), with states/inputs/parameters as positional indexing
  (no namespace dict),
* the **batched pair** ``derivs_batch(t, X, U, P, out)`` /
  ``outputs_batch(times, states, inputs, P)`` - the same equations with one
  *row per model instance*: states are an ``(N, d)`` matrix, inputs an
  ``(N, n_u)`` matrix and parameters an ``(N, n_p)`` matrix, so a whole
  fixed-step fleet integrates through one numpy-vectorized
  right-hand-side call at a time ``t`` shared by all rows.  Every
  simulation evaluates its outputs this way (a single one as a batch of
  one),

and compiles them under the same sandbox rules as the interpreted
expressions: an empty ``__builtins__`` and only the whitelisted math
functions.  Named constants (``pi``, ``e``) and constant subexpressions are
folded at generation time.

The derivative kernels are generated as *bind factories*,
``_bind_derivs(_p)`` and ``_bind_derivs_batch(_P)``: parameters do not
change during a solve, so every parameter-only subexpression is evaluated
once per bind (see :class:`_HoistParameters`), and the returned per-step
function (``(t, x, u)`` scalar, ``(t, X, U, out)`` batched) reads only
time, states, inputs and the bound values.  The public
``derivs``/``derivs_batch`` bind and call in one go.

Every valid system gets a kernel.  Equations may reference only states,
inputs, parameters and ``time``: an equation that names an output, calls a
function whose name a model variable shadows, or calls ``min``/``max`` with
one argument raises :class:`~repro.errors.FmuFormatError` when the kernel is
built.  The interpreted evaluator (``OdeSystem.derivatives`` /
``OdeSystem.evaluate_outputs``) is the reference the tests hold the kernels
to; no simulation path runs it.

Semantics notes
---------------
* The scalar derivative kernel executes the *same* Python expression as the
  interpreted reference (names merely become array subscripts), so its
  results are bit-identical to ``CompiledExpression.__call__``.
* The batched kernels map the whitelist onto numpy ufuncs and rewrite
  conditionals/boolean operators into ``np.where`` forms.  The derivative
  kernel evaluates transcendental functions and ``**`` through the exact
  scalar callables, so its rows are bit-identical to the scalar kernel;
  output values match the reference to floating-point rounding.
* Outputs whose vectorized values are not all finite are re-evaluated point
  by point on Python floats, so a division by zero raises
  :class:`~repro.errors.FmuFormatError` exactly as the reference does, while
  legitimate infinities (float overflow) are kept.
"""

from __future__ import annotations

import ast
import copy
import functools
import operator
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FmuFormatError
from repro.fmi.expressions import (
    ALLOWED_CONSTANTS,
    ALLOWED_FUNCTIONS,
    CompiledExpression,
    _EVAL_GLOBALS,
)


# --------------------------------------------------------------------------- #
# Evaluation namespaces
# --------------------------------------------------------------------------- #
#: Globals of the scalar kernels: exactly the interpreted sandbox (shared so
#: the whitelist cannot diverge between the two paths).
_SCALAR_GLOBALS: Dict[str, object] = _EVAL_GLOBALS


def _reduce_min(*args):
    return functools.reduce(np.minimum, args)


def _reduce_max(*args):
    return functools.reduce(np.maximum, args)


def _truthy(value):
    return np.asarray(value) != 0


def _logical_and(a, b):
    """Elementwise ``a and b`` with Python's value-returning semantics."""
    return np.where(_truthy(a), b, a)


def _logical_or(a, b):
    """Elementwise ``a or b`` with Python's value-returning semantics."""
    return np.where(_truthy(a), a, b)


def _bcast(value, n: int) -> np.ndarray:
    """Broadcast a (possibly scalar) expression result to an n-vector of floats."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.base is not None:
        # An output that is a bare state/input lowers to a column slice;
        # return a fresh array so trajectories never alias the state matrix.
        return arr.copy()
    return arr


def _scalar_or_nan(fn, *values: float) -> float:
    """One strict scalar evaluation with numpy-style error *values*.

    The vectorized lowering evaluates **both** branches of a conditional
    (``a if c else b`` becomes ``_where(c, a, b)``), so a domain error in
    the branch that will be discarded must yield a discardable element -
    exactly what the plain numpy ufuncs do (nan/inf + warning) - rather
    than raise the way the scalar kernels' short-circuiting path never
    would.  Non-finite values that survive into a *taken* branch are caught
    downstream (solver divergence -> sequential rerun reports the scalar
    path's exact error).
    """
    try:
        result = fn(*values)
    except ValueError:  # math domain error -> numpy nan
        return float("nan")
    except OverflowError:  # e.g. exp(800) -> numpy inf
        return float("inf")
    except ZeroDivisionError:  # 0.0 ** negative -> numpy inf
        return float("inf")
    if isinstance(result, complex):  # negative base ** fractional -> numpy nan
        return float("nan")
    return result


def _strict_elementwise(fn):
    """Elementwise libm evaluation matching the scalar kernels bit-for-bit.

    numpy's SIMD transcendental ufuncs (sin, exp, ...) round differently
    from libm in the last ulp.  That is harmless for output evaluation (one
    pass, no feedback), but inside a batched ODE right-hand side the
    adaptive solver's step controller amplifies ulp-level differences into
    diverging step sequences - so the batched *derivative* kernel evaluates
    these functions through the exact scalar callables, element by element.
    Domain errors produce numpy-style nan/inf elements (see
    :func:`_scalar_or_nan`); the happy path stays a C-speed ``map``.
    Extra arguments (``log(x, base)``) broadcast elementwise like a ufunc.
    """

    def wrapped(*values):
        arrays = [np.asarray(value, dtype=float) for value in values]
        if all(arr.ndim == 0 for arr in arrays):
            return _scalar_or_nan(fn, *(float(arr) for arr in arrays))
        broadcast = np.broadcast_arrays(*arrays)
        columns = [arr.ravel().tolist() for arr in broadcast]
        count = len(columns[0])
        try:
            return np.fromiter(map(fn, *columns), dtype=float, count=count).reshape(
                broadcast[0].shape
            )
        except (ValueError, OverflowError, ZeroDivisionError, TypeError):
            return np.fromiter(
                (_scalar_or_nan(fn, *row) for row in zip(*columns)),
                dtype=float,
                count=count,
            ).reshape(broadcast[0].shape)

    return wrapped


def _strict_pow(a, b):
    """Elementwise ``a ** b`` through CPython's float pow (see _strict_elementwise).

    numpy's vectorized power ufunc rounds differently from scalar pow in a
    few percent of inputs; the batched derivative kernel lowers ``**`` to
    this helper instead.  Error inputs follow numpy's value semantics
    (``0.0 ** -1`` -> inf, negative base ** fractional -> nan) so that a
    discarded conditional branch cannot raise - see :func:`_scalar_or_nan`.
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if a_arr.ndim == 0 and b_arr.ndim == 0:
        return _scalar_or_nan(lambda base: base ** float(b_arr), float(a_arr))
    a_b, b_b = np.broadcast_arrays(a_arr, b_arr)
    pairs = zip(a_b.ravel().tolist(), b_b.ravel().tolist())
    try:
        flat = np.fromiter((x ** y for x, y in pairs), dtype=float, count=a_b.size)
    except (ValueError, OverflowError, ZeroDivisionError, TypeError):
        pairs = zip(a_b.ravel().tolist(), b_b.ravel().tolist())
        flat = np.fromiter(
            (_scalar_or_nan(lambda base, _y=y: base ** _y, x) for x, y in pairs),
            dtype=float,
            count=a_b.size,
        )
    return flat.reshape(a_b.shape)


#: Globals of the batched output kernel: numpy ufunc equivalents.
_VECTOR_GLOBALS: Dict[str, object] = {
    "__builtins__": {},
    "abs": np.abs,
    "min": _reduce_min,
    "max": _reduce_max,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "log10": np.log10,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
    "floor": np.floor,
    "ceil": np.ceil,
    "sign": np.sign,
    "_where": np.where,
    "_land": _logical_and,
    "_lor": _logical_or,
    "_bcast": _bcast,
}

#: Globals of the batched derivative kernel: as _VECTOR_GLOBALS, but the
#: transcendental functions (the ones whose SIMD ufuncs are not correctly
#: rounded) evaluate through the exact scalar callables so batched and
#: scalar right-hand sides are bit-identical, keeping the adaptive batch
#: solver's per-row step sequences in lockstep with sequential solves.
#: Arithmetic, comparisons, abs/min/max/sqrt/floor/ceil/sign and the
#: where/bool helpers are exact in SIMD form and stay vectorized.
_BATCH_GLOBALS: Dict[str, object] = dict(_VECTOR_GLOBALS)
for _name in ("sin", "cos", "tan", "exp", "log", "log10", "tanh"):
    _BATCH_GLOBALS[_name] = _strict_elementwise(ALLOWED_FUNCTIONS[_name])
_BATCH_GLOBALS["_pow"] = _strict_pow


# --------------------------------------------------------------------------- #
# AST lowering
# --------------------------------------------------------------------------- #
class _LowerNames(ast.NodeTransformer):
    """Rewrite variable names into positional subscripts of the kernel arguments.

    ``slots`` maps a model variable name to ready-made replacement source
    (e.g. ``_x[0]`` or ``_X[:, 0]``).  Named constants are folded into
    literals.  In vector mode conditionals and boolean operators are
    rewritten into their ``np.where`` equivalents so the generated function
    is valid over arrays.
    """

    def __init__(self, text: str, slots: Mapping[str, str], vector: bool):
        self.text = text
        self.slots = dict(slots)
        self.vector = vector

    def visit_Name(self, node: ast.Name) -> ast.expr:
        # Model variables shadow the named constants, exactly as the
        # interpreted namespace (constants first, values overlaid) does for
        # a variable named e.g. ``e``.
        replacement = self.slots.get(node.id)
        if replacement is not None:
            return ast.parse(replacement, mode="eval").body
        if node.id in ALLOWED_CONSTANTS:
            return ast.Constant(value=ALLOWED_CONSTANTS[node.id])
        raise FmuFormatError(
            f"model equation {self.text!r} references {node.id!r}; equations "
            "may reference only states, inputs, parameters and time"
        )

    def visit_Call(self, node: ast.Call) -> ast.expr:
        # The callee name stays as-is (resolved from the kernel globals);
        # only the arguments are lowered.  A *variable* sharing a whitelisted
        # function's name would shadow it in the interpreted namespace (and
        # fail at call time there), so that shape is rejected.
        name = node.func.id
        if name in self.slots:
            raise FmuFormatError(
                f"model equation {self.text!r} calls {name}(), which the model "
                f"variable {name!r} shadows"
            )
        if name in ("min", "max") and len(node.args) < 2:
            # Single-argument min/max is a runtime TypeError in Python; the
            # vectorized reduce helper would silently accept it.
            raise FmuFormatError(
                f"model equation {self.text!r} calls {name}() with fewer than "
                "two arguments"
            )
        node.args = [self.visit(arg) for arg in node.args]
        return node

    def visit_IfExp(self, node: ast.IfExp) -> ast.expr:
        node = ast.IfExp(
            test=self.visit(node.test),
            body=self.visit(node.body),
            orelse=self.visit(node.orelse),
        )
        if not self.vector:
            return node
        return ast.Call(
            func=ast.Name(id="_where", ctx=ast.Load()),
            args=[node.test, node.body, node.orelse],
            keywords=[],
        )

    def visit_BoolOp(self, node: ast.BoolOp) -> ast.expr:
        values = [self.visit(value) for value in node.values]
        if not self.vector:
            return ast.BoolOp(op=node.op, values=values)
        helper = "_land" if isinstance(node.op, ast.And) else "_lor"
        expr = values[0]
        for value in values[1:]:
            expr = ast.Call(
                func=ast.Name(id=helper, ctx=ast.Load()),
                args=[expr, value],
                keywords=[],
            )
        return expr

    def visit_Compare(self, node: ast.Compare) -> ast.expr:
        operands = [self.visit(node.left)] + [self.visit(c) for c in node.comparators]
        if not self.vector or len(node.ops) == 1:
            return ast.Compare(
                left=operands[0], ops=node.ops, comparators=operands[1:]
            )
        # Chained comparison over arrays: AND of the pairwise comparisons
        # (operands are pure expressions, so double evaluation is safe).
        expr: ast.expr = ast.Compare(
            left=operands[0], ops=[node.ops[0]], comparators=[operands[1]]
        )
        for i, op in enumerate(node.ops[1:], start=1):
            pair = ast.Compare(
                left=operands[i], ops=[op], comparators=[operands[i + 1]]
            )
            expr = ast.Call(
                func=ast.Name(id="_land", ctx=ast.Load()),
                args=[expr, pair],
                keywords=[],
            )
        return expr


_FOLD_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
    ast.Mod: operator.mod,
}
_FOLD_UNARY = {ast.USub: operator.neg, ast.UAdd: operator.pos}


class _FoldConstants(ast.NodeTransformer):
    """Evaluate numeric-constant subtrees once at generation time.

    Only the arithmetic operators the sandbox allows are folded, with the
    exact Python operator the runtime would apply, so folded and unfolded
    evaluation are bit-identical.  Anything that raises is left in place.
    """

    def visit_BinOp(self, node: ast.BinOp) -> ast.expr:
        node = ast.BinOp(op=node.op, left=self.visit(node.left), right=self.visit(node.right))
        fold = _FOLD_BINOPS.get(type(node.op))
        if (
            fold is not None
            and isinstance(node.left, ast.Constant)
            and isinstance(node.right, ast.Constant)
        ):
            try:
                value = fold(node.left.value, node.right.value)
            except Exception:
                return node
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return ast.Constant(value=value)
        return node

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.expr:
        node = ast.UnaryOp(op=node.op, operand=self.visit(node.operand))
        fold = _FOLD_UNARY.get(type(node.op))
        if fold is not None and isinstance(node.operand, ast.Constant):
            try:
                value = fold(node.operand.value)
            except Exception:
                return node
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return ast.Constant(value=value)
        return node


class _StrictPow(ast.NodeTransformer):
    """Rewrite remaining ``**`` into ``_pow(a, b)`` calls (batched derivatives).

    Runs *after* constant folding, so constant power subexpressions are
    folded to literals at codegen time (with the same CPython pow the
    helper would use) and only data-dependent powers pay the strict
    elementwise evaluation.
    """

    def visit_BinOp(self, node: ast.BinOp) -> ast.expr:
        node = ast.BinOp(
            op=node.op, left=self.visit(node.left), right=self.visit(node.right)
        )
        if isinstance(node.op, ast.Pow):
            return ast.Call(
                func=ast.Name(id="_pow", ctx=ast.Load()),
                args=[node.left, node.right],
                keywords=[],
            )
        return node


#: Lowered calls whose arguments after the first stand for a conditional
#: branch or a short-circuit operand of the source equation.
_BRANCHING_CALLS = frozenset({"_where", "_land", "_lor"})


class _HoistParameters:
    """Lift maximal parameter-only subtrees into bind-time locals.

    A subtree is parameter-only when its leaves are only parameter slots
    (``_p[i]`` / ``_P[:, i]``) and literals; parameters do not change during
    a solve, so such a subtree is evaluated once per bind instead of once
    per right-hand-side call.  Each lifted subtree becomes a local
    ``_c<k>`` (identical subtrees share one) and is evaluated exactly as
    written, so bound and unbound kernels are bit-identical.

    Nothing is lifted out of a conditional branch, a short-circuit
    ``and``/``or`` operand or the tail of a chained comparison - in either
    lowering (``_where``/``_land``/``_lor`` in vector form): the evaluation
    there may be skipped at run time, and a lifted division could then
    raise where the per-call kernel does not.  A conditional that is
    parameter-only as a whole is lifted as a unit, with its own semantics.
    """

    def __init__(self, slot: str):
        self.slot = slot
        #: Lifted source -> local name, in bind order.
        self.lifted: Dict[str, str] = {}

    def __call__(self, node: ast.expr) -> ast.expr:
        node, pure = self._visit(node, eager=True)
        return self._lift(node) if pure else node

    def _lift(self, node: ast.expr) -> ast.expr:
        if isinstance(node, ast.Constant):
            return node
        source = ast.unparse(node)
        name = self.lifted.get(source)
        if name is None:
            name = self.lifted[source] = f"_c{len(self.lifted)}"
        return ast.Name(id=name, ctx=ast.Load())

    def _visit(self, node: ast.expr, eager: bool) -> Tuple[ast.expr, bool]:
        """``(node with its eager parameter-only children lifted, pure)``."""
        if isinstance(node, ast.Constant):
            return node, True
        if isinstance(node, ast.Subscript):
            return node, isinstance(node.value, ast.Name) and node.value.id == self.slot
        children = _children(node)
        if children is None:
            return node, False
        visited = [
            self._visit(child, eager and not conditional)
            for child, conditional in children
        ]
        if all(pure for _, pure in visited):
            return node, True
        return _with_children(node, [
            self._lift(child) if pure and eager and not conditional else child
            for (child, pure), (_, conditional) in zip(visited, children)
        ]), False


def _children(node: ast.expr) -> Optional[List[Tuple[ast.expr, bool]]]:
    """``(child, conditional)`` pairs of a lowered node, or None for a leaf."""
    if isinstance(node, ast.BinOp):
        return [(node.left, False), (node.right, False)]
    if isinstance(node, ast.UnaryOp):
        return [(node.operand, False)]
    if isinstance(node, ast.Call):
        branching = node.func.id in _BRANCHING_CALLS
        return [(arg, branching and i > 0) for i, arg in enumerate(node.args)]
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        return [(operand, i > 1) for i, operand in enumerate(operands)]
    if isinstance(node, ast.IfExp):
        return [(node.test, False), (node.body, True), (node.orelse, True)]
    if isinstance(node, ast.BoolOp):
        return [(value, i > 0) for i, value in enumerate(node.values)]
    return None


def _with_children(node: ast.expr, children: List[ast.expr]) -> ast.expr:
    """A shallow copy of ``node`` over new children (order of :func:`_children`).

    Copies, because the vector lowering of a chained comparison shares an
    operand node between two comparisons.
    """
    node = copy.copy(node)
    if isinstance(node, ast.BinOp):
        node.left, node.right = children
    elif isinstance(node, ast.UnaryOp):
        (node.operand,) = children
    elif isinstance(node, ast.Call):
        node.args = children
    elif isinstance(node, ast.Compare):
        node.left, node.comparators = children[0], children[1:]
    elif isinstance(node, ast.IfExp):
        node.test, node.body, node.orelse = children
    else:
        node.values = children
    return node


def _lower(
    text: str,
    slots: Mapping[str, str],
    vector: bool,
    strict_pow: bool = False,
    hoist: Optional[_HoistParameters] = None,
) -> str:
    """Parse, sandbox-validate, lower and fold one equation into source text."""
    text = str(text)
    tree = CompiledExpression._parse(text)
    lowered = _LowerNames(text, slots, vector).visit(tree.body)
    folded = _FoldConstants().visit(lowered)
    if strict_pow:
        folded = _StrictPow().visit(folded)
    if hoist is not None:
        folded = hoist(folded)
    ast.fix_missing_locations(folded)
    return ast.unparse(folded)


def _bound_source(name: str, args: str, hoist: _HoistParameters, body: List[str]) -> str:
    """Source of the bind factory ``_bind<name>(slot)`` for one per-step function.

    ``body`` is the per-step function's body (its ``return`` included).
    The factory evaluates the lifted subtrees once and returns
    ``<name>(args)`` closed over them.
    """
    lines = [f"def _bind{name}({hoist.slot}):"]
    lines += [f"    {local} = {source}" for source, local in hoist.lifted.items()]
    lines.append(f"    def {name}({args}):")
    lines += [f"    {line}" for line in body]
    lines.append(f"    return {name}")
    return "\n".join(lines)


def _compile(source: str, globals_dict: Dict[str, object]) -> Dict[str, object]:
    """Execute generated source in a copy of ``globals_dict``; returns that
    namespace."""
    namespace: Dict[str, object] = dict(globals_dict)
    exec(compile(source, "<fmu-kernel>", "exec"), namespace)
    return namespace


# --------------------------------------------------------------------------- #
# The kernel object
# --------------------------------------------------------------------------- #
class SimulationKernel:
    """Code-generated evaluation functions for one :class:`OdeSystem`.

    The kernel fixes the variable layout once: states, inputs and parameters
    become positions in the ``x``/``u``/``p`` vectors (declaration order),
    and every generated function indexes those vectors directly instead of
    building a namespace dict.  The scalar derivative kernel takes ``x`` as a
    list of floats and returns a list, so the per-step arithmetic runs on
    plain Python floats, exactly like the interpreted ``eval`` reference
    (the scalar output kernel unpacks its vector with ``tolist()``).

    Raises :class:`~repro.errors.FmuFormatError` when an equation cannot be
    lowered (see the module docstring).
    """

    __slots__ = (
        "state_names",
        "input_names",
        "output_names",
        "parameter_names",
        "n_states",
        "n_inputs",
        "source",
        "_parameters",
        "_equation_texts",
        "_bind_derivs",
        "_outputs_scalar",
        "_bind_derivs_batch",
        "_outputs_batch",
    )

    def __init__(self, system):
        self.state_names: List[str] = list(system.state_names)
        self.input_names: List[str] = list(system.inputs)
        self.output_names: List[str] = list(system.output_names)
        self.parameter_names: List[str] = list(system.parameters)
        # Live reference, not a snapshot: callers (e.g. the model builders'
        # _apply_parameters) mutate the system's parameter values in place
        # after construction, and the interpreted reference reads them at
        # call time - the kernel must see the same defaults.
        self._parameters: Dict[str, float] = system.parameters
        self._equation_texts: List[str] = [s.derivative for s in system.states] + [
            o.expression for o in system.outputs
        ]
        self.n_states = len(self.state_names)
        self.n_inputs = len(self.input_names)

        from repro.fmi.dynamics import TIME_NAME

        scalar_slots = {TIME_NAME: "_t"}
        batch_slots = {TIME_NAME: "_t"}
        for i, name in enumerate(self.state_names):
            scalar_slots[name] = f"_x[{i}]"
            batch_slots[name] = f"_X[:, {i}]"
        for i, name in enumerate(self.input_names):
            scalar_slots[name] = f"_u[{i}]"
            batch_slots[name] = f"_U[:, {i}]"
        for i, name in enumerate(self.parameter_names):
            scalar_slots[name] = f"_p[{i}]"
            batch_slots[name] = f"_P[:, {i}]"

        returns = "".join(f"_y{i}, " for i in range(len(system.outputs)))
        # Derivative kernels are bind factories: parameter-only subtrees are
        # evaluated once per bind (see _HoistParameters), and the returned
        # per-step function reads only time, states, inputs and the bound
        # locals.
        # The scalar kernel takes and returns plain float lists: the scalar
        # solver loops step in Python floats.
        scalar_hoist = _HoistParameters("_p")
        derivs_body = ["    return ["]
        for state in system.states:
            lowered = _lower(state.derivative, scalar_slots, vector=False, hoist=scalar_hoist)
            derivs_body.append(f"        {lowered},")
        derivs_body.append("    ]")

        # Scalar outputs back the pointwise re-evaluation of rows whose
        # vectorized values are not all finite (see outputs_batch).
        out_scalar_lines = ["def _outputs_scalar(_t, _x, _u, _p):", "    _x = _x.tolist()"]
        for i, output in enumerate(system.outputs):
            out_scalar_lines.append(
                f"    _y{i} = {_lower(output.expression, scalar_slots, vector=False)}"
            )
        out_scalar_lines.append(f"    return ({returns})")

        # Batched fleet kernels: one row per instance, parameters as a
        # per-row matrix.
        batch_hoist = _HoistParameters("_P")
        db_body = [
            f"    _out[:, {i}] = "
            + _lower(
                state.derivative, batch_slots, vector=True, strict_pow=True,
                hoist=batch_hoist,
            )
            for i, state in enumerate(system.states)
        ] + ["    return _out"]
        ob_lines = ["def _outputs_batch(_t, _X, _U, _P, _n):"]
        for i, output in enumerate(system.outputs):
            ob_lines.append(
                f"    _y{i} = _bcast({_lower(output.expression, batch_slots, vector=True)}, _n)"
            )
        ob_lines.append(f"    return ({returns})")

        sources = [
            _bound_source("_derivs", "_t, _x, _u", scalar_hoist, derivs_body),
            "\n".join(out_scalar_lines),
            _bound_source("_derivs_batch", "_t, _X, _U, _out", batch_hoist, db_body),
            "\n".join(ob_lines),
        ]
        self._bind_derivs = _compile(sources[0], _SCALAR_GLOBALS)["_bind_derivs"]
        self._outputs_scalar = _compile(sources[1], _SCALAR_GLOBALS)["_outputs_scalar"]
        self._bind_derivs_batch = _compile(sources[2], _BATCH_GLOBALS)["_bind_derivs_batch"]
        self._outputs_batch = _compile(sources[3], _VECTOR_GLOBALS)["_outputs_batch"]
        self.source = "\n\n".join(sources)

    # ------------------------------------------------------------------ #
    # Argument packing
    # ------------------------------------------------------------------ #
    def parameter_vector(self, overrides: Optional[Mapping[str, float]] = None) -> Tuple[float, ...]:
        """Parameter values in kernel order: defaults overlaid with ``overrides``."""
        defaults = self._parameters
        if not overrides:
            return tuple(float(defaults[name]) for name in self.parameter_names)
        return tuple(
            float(overrides.get(name, defaults[name])) for name in self.parameter_names
        )

    def parameter_matrix(
        self, overrides_per_row: Sequence[Optional[Mapping[str, float]]]
    ) -> np.ndarray:
        """Per-row parameter values in kernel order as an ``(N, n_p)`` matrix."""
        return np.array(
            [self.parameter_vector(overrides) for overrides in overrides_per_row],
            dtype=float,
        ).reshape(len(overrides_per_row), len(self.parameter_names))

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def derivs(self, t: float, x, u: Sequence[float], p: Sequence[float]) -> np.ndarray:
        """Evaluate the state derivative vector at one point."""
        x = np.atleast_1d(np.asarray(x, dtype=float)).tolist()
        return np.array(self._bind_derivs(p)(t, x, u), dtype=float)

    def derivs_batch(
        self,
        t,
        X: np.ndarray,
        U: np.ndarray,
        P: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Evaluate the state derivatives of a whole fleet in one call.

        Parameters
        ----------
        t:
            Time, shared by all rows.
        X / U / P:
            ``(N, n_states)`` states, ``(N, n_inputs)`` inputs and
            ``(N, n_params)`` parameters, one row per instance.
        out:
            Optional ``(N, n_states)`` result buffer.

        Division by zero follows numpy semantics (``inf``/``nan`` elements)
        except for integer-constant divisions, which raise
        :class:`ZeroDivisionError` exactly like the scalar kernels.
        """
        if out is None:
            out = np.empty_like(X)
        return self._bind_derivs_batch(P)(t, X, U, out)

    def outputs_batch(
        self,
        times: np.ndarray,
        states: np.ndarray,
        inputs: np.ndarray,
        P: np.ndarray,
    ) -> Dict[str, np.ndarray]:
        """Evaluate all output equations over a whole fleet x grid in one pass.

        Parameters
        ----------
        times:
            1-D array of the n output times (shared by every row).
        states:
            ``(N, n, n_states)`` per-row state trajectories.
        inputs:
            ``(N, n, n_inputs)`` per-row input trajectories.
        P:
            ``(N, n_params)`` per-row parameter values in kernel order.

        Returns ``{output name: (N, n) trajectories}``, each a C-contiguous
        array of its own.  A row whose vectorized values are not all finite
        is re-evaluated point by point on Python floats, so a division by
        zero raises
        :class:`~repro.errors.FmuFormatError` as the interpreted reference
        does, and legitimate infinities are kept.
        """
        times = np.asarray(times, dtype=float)
        P = np.asarray(P, dtype=float)
        n_rows, n_times = states.shape[0], states.shape[1]
        flat_t = np.tile(times, n_rows)
        flat_x = np.ascontiguousarray(states).reshape(n_rows * n_times, states.shape[2])
        flat_u = np.ascontiguousarray(inputs).reshape(n_rows * n_times, inputs.shape[2])
        flat_p = np.repeat(P, n_times, axis=0)
        try:
            with np.errstate(all="ignore"):
                values = self._outputs_batch(
                    flat_t, flat_x, flat_u, flat_p, flat_t.shape[0]
                )
            # _bcast gives every output a fresh array, never a view.
            columns = [column.reshape(n_rows, n_times) for column in values]
            finite = np.ones(n_rows, dtype=bool)
            for column in columns:
                finite &= np.isfinite(column).all(axis=1)
            for r in np.flatnonzero(~finite):
                pointwise = self._outputs_pointwise(times, states[r], inputs[r], P[r])
                for column, name in zip(columns, self.output_names):
                    column[r] = pointwise[name]
            return dict(zip(self.output_names, columns))
        except ZeroDivisionError:
            raise self.division_error() from None

    def _outputs_pointwise(
        self,
        times: np.ndarray,
        states: np.ndarray,
        inputs: np.ndarray,
        p: np.ndarray,
    ) -> Dict[str, np.ndarray]:
        # Plain Python floats throughout: numpy scalars would turn a division
        # by zero into inf where the reference raises.
        columns = [np.empty(times.shape[0]) for _ in self.output_names]
        outputs_scalar = self._outputs_scalar
        p = p.tolist()
        for k, (t, u) in enumerate(zip(times.tolist(), inputs.tolist())):
            values = outputs_scalar(t, states[k], u, p)
            for column, value in zip(columns, values):
                column[k] = value
        return dict(zip(self.output_names, columns))

    def division_error(self) -> FmuFormatError:
        """The error callers raise when a kernel hit a ZeroDivisionError.

        The kernel evaluates all equations in one generated body, so the
        offender is not pinpointed; the candidate equation texts are listed
        instead (shared by every wrap site, mirroring the interpreted
        reference's per-equation message).
        """
        candidates = ", ".join(repr(text) for text in self._equation_texts)
        return FmuFormatError(
            f"model equations divided by zero during evaluation (one of: {candidates})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationKernel(states={self.state_names}, inputs={self.input_names}, "
            f"outputs={self.output_names}, parameters={self.parameter_names})"
        )
