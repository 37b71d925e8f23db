"""Every rejection of `schema.validate`, for every report kind: an unknown
kind, a report that is not an object, a missing field, null in a required
field, a value of the wrong type (a bool where an int is expected, an int
where a bool is, and a mismatch for each other field) and an extra field.
Each bad report must raise SchemaError with its message; the valid report
it was made from, built from the kind's own field rules, passes."""

import pytest

from goppa_orbits import schema
from goppa_orbits.schema import SchemaError

KINDS = sorted(schema._SCHEMAS)


def allowed(kind, field):
    """The types one field of a kind may hold, None among them where it may be null."""
    rule = schema._SCHEMAS[kind][field]
    return rule if isinstance(rule, tuple) else (rule,)


def valid_report(kind):
    """One value of each field's first type; nullable fields null."""
    sample = {int: 3, bool: True, str: "ab", list: [1], dict: {"1": 2}}
    report = {}
    for field in schema._SCHEMAS[kind]:
        types = allowed(kind, field)
        report[field] = None if None in types else sample[types[0]]
    return report


def wrong_value(types):
    """A value of none of the types and the message `validate` gives for it."""
    message = "expected " + " or ".join(t.__name__ for t in types if t is not None)
    if int in types:
        return True, message  # a bool is not an int here
    if bool in types:
        return 1, message
    return ("ab" if str not in types else 3), message


def rejection(kind, report):
    with pytest.raises(SchemaError) as err:
        schema.validate(kind, report)
    return str(err.value)


def test_unknown_kind_is_rejected():
    assert rejection("census_v2", valid_report("census")) == "unknown report kind 'census_v2'"


@pytest.mark.parametrize("kind", KINDS)
def test_valid_report_passes(kind):
    schema.validate(kind, valid_report(kind))


@pytest.mark.parametrize("kind", KINDS)
def test_non_object_is_rejected(kind):
    for report in ([], "report", None, list(valid_report(kind).items())):
        assert rejection(kind, report) == f"{kind}: report must be an object"


@pytest.mark.parametrize("kind", KINDS)
def test_missing_field_is_rejected(kind):
    for field in schema._SCHEMAS[kind]:
        report = valid_report(kind)
        del report[field]
        assert rejection(kind, report) == f"{kind}: missing field {field!r}"


@pytest.mark.parametrize("kind", KINDS)
def test_null_in_a_required_field_is_rejected(kind):
    for field in schema._SCHEMAS[kind]:
        report = valid_report(kind)
        report[field] = None
        if None in allowed(kind, field):
            schema.validate(kind, report)  # an optional field may be null
        else:
            assert rejection(kind, report) == f"{kind}: field {field!r} must not be null"


@pytest.mark.parametrize("kind", KINDS)
def test_wrong_type_is_rejected(kind):
    for field in schema._SCHEMAS[kind]:
        value, message = wrong_value(allowed(kind, field))
        report = valid_report(kind)
        report[field] = value
        assert rejection(kind, report) == f"{kind}: field {field!r}: {message}"


@pytest.mark.parametrize("kind", KINDS)
def test_extra_field_is_rejected(kind):
    report = valid_report(kind)
    report["extra"] = 0
    assert rejection(kind, report) == f"{kind}: unexpected fields ['extra']"


def test_every_violation_is_reported():
    """One message lists the problems in field order, extra fields last."""
    report = valid_report("roots")
    del report["n"]
    report["total"] = False
    report["which"] = None
    report["elapsed_ms"] = "ab"
    report["spare"] = report["extra"] = 0
    assert rejection("roots", report) == (
        "roots: missing field 'n'; field 'which' must not be null; "
        "field 'total': expected int; field 'elapsed_ms': expected int or float; "
        "unexpected fields ['extra', 'spare']")

