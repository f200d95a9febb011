"""The scalar domain checks of ybcawo4.errors, and the rule that keeps them
there: NaN fails every check, and no comparison that guards a raise
elsewhere in the package lets NaN through."""

import ast
import math
from dataclasses import fields, replace
from pathlib import Path

import pytest

from ybcawo4 import errors
from ybcawo4.errors import (ValidationError, check_finite, check_non_negative,
                            check_positive)
from ybcawo4.params import SpinSystemParams, a_tensor, default_params, g_tensor

NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("check,good,bad", [
    (check_finite, (0.0, -1.0, 1e308), {NAN: "finite", INF: "finite",
                                        -INF: "finite"}),
    (check_positive, (1e-300, 1.0, 3), {0.0: "positive", -1.0: "positive",
                                        NAN: "positive", INF: "finite",
                                        -INF: "positive"}),
    (check_non_negative, (0.0, 1.0, 0), {-1e-300: "non-negative",
                                         NAN: "non-negative", INF: "finite",
                                         -INF: "non-negative"}),
], ids=["finite", "positive", "non_negative"])
def test_each_check_fails_nan_by_name(check, good, bad):
    check("x", *good)
    for value, word in bad.items():
        # a bad value fails the check wherever it stands among good ones
        with pytest.raises(ValidationError, match=f"^x must be {word}$"):
            check("x", *good, value)


@pytest.mark.parametrize("field", [f for f in fields(SpinSystemParams)
                                   if f.type in ("float", "int")],
                         ids=lambda f: f.name)
def test_every_scalar_parameter_rejects_a_bad_value_by_name(field):
    for value in ((0, -1) if field.type == "int" else (NAN, INF, -INF)):
        with pytest.raises(ValidationError, match=field.name):
            replace(default_params(), **{field.name: value})


@pytest.mark.parametrize("make", [g_tensor, a_tensor])
def test_tensor_components_must_be_finite(make):
    for parts in ((NAN, 1.0), (1.0, INF)):
        with pytest.raises(ValidationError, match="tensor components must be finite"):
            make(*parts)


# --- the rule, checked on the source -----------------------------------------

_ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _nan_blind(node, negated=False):
    """Ordering comparisons in a condition that a NaN operand leaves False:
    those not under a `not`.  An any() or all() reduction is looked into,
    as a NaN element leaves its comparison False too; comparisons inside
    other calls and of counts (.size, len()) are skipped."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield from _nan_blind(node.operand, not negated)
        return
    if isinstance(node, ast.Call) and getattr(
            node.func, "attr", getattr(node.func, "id", None)) not in ("any", "all"):
        return
    if (isinstance(node, ast.Compare) and not negated
            and any(isinstance(op, _ORDER) for op in node.ops)
            and not any(isinstance(side, ast.Attribute) and side.attr == "size"
                        or isinstance(side, ast.Call) and ast.unparse(side.func) == "len"
                        for side in (node.left, *node.comparators))):
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _nan_blind(child, negated)


def test_no_raise_is_guarded_by_a_nan_blind_comparison():
    """`if x <= 0: raise` lets NaN through; `if not x > 0: raise`, or a
    check of errors.py, does not."""
    found = []
    for path in sorted(Path(errors.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.If) and any(isinstance(s, ast.Raise)
                                                for s in node.body):
                found += [f"{path.name}:{c.lineno}: {ast.unparse(c)}"
                          for c in _nan_blind(node.test)]
    assert found == []
