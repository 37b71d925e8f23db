"""Shape validation for the CLI's JSON reports.

Small hand-rolled checks rather than a jsonschema dependency: each report
kind lists its required fields and types, and validate() raises SchemaError
with every violation found. A call reads its rules and builds none: they
are made once on import, each kind's fields as one set and each rule as a
tuple of types, so a call is one pass over the fields and one set
difference for the extras.
"""

from __future__ import annotations

__all__ = ["SchemaError", "validate"]


class SchemaError(ValueError):
    pass


# each field's rule is the type, or the tuple of types, that it may hold,
# matched exactly, so a bool is not an int; None in the tuple lets it be null
_SCHEMAS: dict[str, dict[str, type | tuple]] = {
    "bound": {
        "n": int,
        "bound": int,
        "numerator": int,
        "decomposition": list,
        "match": bool,
    },
    "census": {
        "n": int,
        "orbit_count": int,
        "pgl_orbit_count": int,
        "orbit_size_histogram": dict,
        "elements_visited": int,
        "orbits": list,
        "workers": int,
        "elapsed_ms": (int, float),
        "bound": int,
        "match": bool,
    },
    "fixed": {
        "n": int,
        "d": int,
        "order": int,
        "closed_form": (int, None),
        "oracle": (int, None),
        "match": (bool, None),
        "elapsed_ms": (int, float),
    },
    "fixed_table": {
        "n_values": list,
        "rows": list,
    },
    "roots": {
        "n": int,
        "which": str,
        "total": int,
        "in_degree_six": int,
        "in_subfield_2n": int,
        "in_subfield_3n": int,
        "expected_in_degree_six": (int, None),
        "match": (bool, None),
        "elapsed_ms": (int, float),
    },
    "code": {
        "n": int,
        "alpha_hex": str,
        "g_coeffs": list,
        "length": int,
        "dimension": int,
        "generator_rows": list,
        "parity_rows": list,
        "weight_enumerator": (list, None),
        "extended": bool,
    },
    "equiv": {
        "n": int,
        "alpha_hex": str,
        "beta_hex": str,
        "map": str,
        "permutation_cycles": str,
        "verified": bool,
        "weight_enumerator_alpha": (list, None),
        "weight_enumerator_beta": (list, None),
    },
}

# `_SCHEMAS` as `validate` reads it, made once on import: for each kind, each
# field's rule as a tuple of types, and its fields as one set
_RULES = {kind: ({field: rule if isinstance(rule, tuple) else (rule,)
                  for field, rule in rules.items()}, frozenset(rules))
          for kind, rules in _SCHEMAS.items()}


def validate(kind: str, obj: dict) -> None:
    """Check obj against the report schema for kind; raise SchemaError if bad."""
    if kind not in _RULES:
        raise SchemaError(f"unknown report kind {kind!r}")
    if not isinstance(obj, dict):
        raise SchemaError(f"{kind}: report must be an object")
    rules, fields = _RULES[kind]
    problems = []
    for field, allowed in rules.items():
        if field not in obj:
            problems.append(f"missing field {field!r}")
        elif type(value := obj[field]) not in allowed:
            if value is not None:
                names = " or ".join(t.__name__ for t in allowed if t is not None)
                problems.append(f"field {field!r}: expected {names}")
            elif None not in allowed:
                problems.append(f"field {field!r} must not be null")
    extras = obj.keys() - fields
    if extras:
        problems.append(f"unexpected fields {sorted(extras)}")
    if problems:
        raise SchemaError(f"{kind}: " + "; ".join(problems))
