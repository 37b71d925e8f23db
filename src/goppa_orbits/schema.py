"""Shape validation for the CLI's JSON reports.

Small hand-rolled checks rather than a jsonschema dependency: each report
kind lists its required fields and types, and validate() raises SchemaError
with every violation found.
"""

from __future__ import annotations

__all__ = ["SchemaError", "validate"]


class SchemaError(ValueError):
    pass


_INT = int
_STR = str
_BOOL = bool
_NUM = (int, float)


def _opt(t):
    return ("optional", t)


_SCHEMAS: dict[str, dict] = {
    "bound": {
        "n": _INT,
        "bound": _INT,
        "numerator": _INT,
        "decomposition": list,
        "match": _BOOL,
    },
    "census": {
        "n": _INT,
        "orbit_count": _INT,
        "pgl_orbit_count": _INT,
        "orbit_size_histogram": dict,
        "elements_visited": _INT,
        "orbits": list,
        "workers": _INT,
        "elapsed_ms": _NUM,
        "bound": _INT,
        "match": _BOOL,
    },
    "fixed": {
        "n": _INT,
        "d": _INT,
        "order": _INT,
        "closed_form": _opt(_INT),
        "oracle": _opt(_INT),
        "match": _opt(_BOOL),
        "elapsed_ms": _NUM,
    },
    "fixed_table": {
        "n_values": list,
        "rows": list,
    },
    "roots": {
        "n": _INT,
        "which": _STR,
        "total": _INT,
        "in_degree_six": _INT,
        "in_subfield_2n": _INT,
        "in_subfield_3n": _INT,
        "expected_in_degree_six": _opt(_INT),
        "match": _opt(_BOOL),
        "elapsed_ms": _NUM,
    },
    "code": {
        "n": _INT,
        "alpha_hex": _STR,
        "g_coeffs": list,
        "length": _INT,
        "dimension": _INT,
        "generator_rows": list,
        "parity_rows": list,
        "weight_enumerator": _opt(list),
        "extended": _BOOL,
    },
    "equiv": {
        "n": _INT,
        "alpha_hex": _STR,
        "beta_hex": _STR,
        "map": _STR,
        "permutation_cycles": _STR,
        "verified": _BOOL,
        "weight_enumerator_alpha": _opt(list),
        "weight_enumerator_beta": _opt(list),
    },
}


def validate(kind: str, obj: dict) -> None:
    """Check obj against the report schema for kind; raise SchemaError if bad."""
    schema = _SCHEMAS.get(kind)
    if schema is None:
        raise SchemaError(f"unknown report kind {kind!r}")
    problems = []
    if not isinstance(obj, dict):
        raise SchemaError(f"{kind}: report must be an object")
    for field, rule in schema.items():
        optional = isinstance(rule, tuple) and rule[0] == "optional"
        expected = rule[1] if optional else rule
        if field not in obj:
            problems.append(f"missing field {field!r}")
            continue
        value = obj[field]
        if value is None:
            if not optional:
                problems.append(f"field {field!r} must not be null")
            continue
        if expected is _BOOL:
            if not isinstance(value, bool):
                problems.append(f"field {field!r}: expected bool")
        elif expected is _INT:
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(f"field {field!r}: expected int")
        elif not isinstance(value, expected):
            problems.append(f"field {field!r}: expected {expected}")
    extras = set(obj) - set(schema)
    if extras:
        problems.append(f"unexpected fields {sorted(extras)}")
    if problems:
        raise SchemaError(f"{kind}: " + "; ".join(problems))
