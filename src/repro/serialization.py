"""JSON-safe encoding of mediator values, calls, and observations.

Answer values are scalars, tuples, or :class:`~repro.core.terms.Row`
records; JSON has neither tuples nor Rows, so both get tagged wrappers:

* tuple  → ``{"__tuple__": [...]}``,
* Row    → ``{"__row__": [[name, value], ...]}``.

Terms, plan steps, plans and cost vectors encode to plain JSON objects on
top of that (the plan cache's persisted templates): a constant is
``{"const": value}``, a variable ``{"var": name}`` — ``Q#p`` template
parameters are ordinary variables — and an attribute path a variable
with a ``"path"``.

Used by every storage codec: CIM entries, DCSM observations, plan
templates and subplan rows.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.model import Comparison, DomainCall, GroundCall, InAtom
from repro.core.plans import CallStep, CompareStep, Plan, PlanStep
from repro.core.terms import AttrPath, Constant, Row, Term, Value, Variable
from repro.dcsm.vectors import CostVector
from repro.errors import ReproError


def encode_value(value: Value) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v) for v in value]}
    if isinstance(value, Row):
        return {
            "__row__": [[name, encode_value(v)] for name, v in zip(value.names, value.values)]
        }
    raise ReproError(f"cannot serialize value of type {type(value).__name__}")


def decode_value(data: Any) -> Value:
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, dict):
        if "__tuple__" in data:
            return tuple(decode_value(v) for v in data["__tuple__"])
        if "__row__" in data:
            return Row([(name, decode_value(v)) for name, v in data["__row__"]])
    raise ReproError(f"cannot deserialize value {data!r}")


def encode_call(call: GroundCall) -> dict:
    return {
        "domain": call.domain,
        "function": call.function,
        "args": [encode_value(arg) for arg in call.args],
    }


def decode_call(data: dict) -> GroundCall:
    try:
        return GroundCall(
            domain=data["domain"],
            function=data["function"],
            args=tuple(decode_value(arg) for arg in data["args"]),
        )
    except KeyError as exc:
        raise ReproError(f"malformed serialized call: missing {exc}") from None


# -- terms, steps, plans, cost vectors -------------------------------------------


def encode_term(term: Term) -> dict:
    if isinstance(term, Constant):
        return {"const": encode_value(term.value)}
    if isinstance(term, Variable):
        return {"var": term.name}
    if isinstance(term, AttrPath):
        return {"var": term.base.name, "path": list(term.path)}
    raise ReproError(f"cannot serialize term {term!r}")


def decode_term(data: dict) -> Term:
    if "const" in data:
        return Constant(decode_value(data["const"]))
    if "var" in data:
        if "path" in data:
            return AttrPath(Variable(data["var"]), tuple(data["path"]))
        return Variable(data["var"])
    raise ReproError(f"cannot deserialize term {data!r}")


def encode_step(step: PlanStep) -> dict:
    if isinstance(step, CallStep):
        call = step.atom.call
        return {
            "out": encode_term(step.atom.output),
            "domain": call.domain,
            "function": call.function,
            "args": [encode_term(arg) for arg in call.args],
            "via_cim": step.via_cim,
        }
    comparison = step.comparison
    return {
        "op": comparison.op,
        "left": encode_term(comparison.left),
        "right": encode_term(comparison.right),
    }


def decode_step(data: dict) -> PlanStep:
    if "op" in data:
        return CompareStep(
            Comparison(data["op"], decode_term(data["left"]), decode_term(data["right"]))
        )
    call = DomainCall(
        data["domain"], data["function"], tuple(decode_term(arg) for arg in data["args"])
    )
    return CallStep(InAtom(decode_term(data["out"]), call), via_cim=bool(data["via_cim"]))


def encode_plan(plan: Plan) -> dict:
    return {
        "steps": [encode_step(step) for step in plan.steps],
        "answer_vars": [var.name for var in plan.answer_vars],
        "origin": plan.origin,
    }


def decode_plan(data: dict) -> Plan:
    return Plan(
        steps=tuple(decode_step(step) for step in data["steps"]),
        answer_vars=tuple(Variable(name) for name in data["answer_vars"]),
        origin=data["origin"],
    )


def encode_vector(vector: Optional[CostVector]) -> Optional[list]:
    if vector is None:
        return None
    return [vector.t_first_ms, vector.t_all_ms, vector.cardinality]


def decode_vector(data: Optional[list]) -> Optional[CostVector]:
    if data is None:
        return None
    t_first_ms, t_all_ms, cardinality = data
    return CostVector(t_first_ms, t_all_ms, cardinality)
