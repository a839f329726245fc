"""Exception types shared across the package, and its one JSON input check.

jsonschema is imported by the first ``load_document`` call, not by
``import fourierqml``: runs that read no JSON document never load it.
"""

import functools
import json


class CapacityError(RuntimeError):
    """A requested computation exceeds a hard resource cap.

    Raised for statevectors beyond the qubit cap, frequency lattices too
    large to materialize, and integer quantities that would overflow the
    63-bit budget used for exact bookkeeping.
    """


class TrainingError(RuntimeError):
    """Training aborted: diverging loss or non-finite gradients.

    Carries the partial result record (if any) collected before the abort
    so callers can persist a trace for diagnosis.
    """

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


class ConfigError(ValueError):
    """A CLI run config failed to parse or validate."""


def _is_integer(checker, instance) -> bool:
    # JSON true/false parse as bool, a subclass of int; 2.0 parses as float
    return isinstance(instance, int) and not isinstance(instance, bool)


@functools.cache
def _jsonschema():
    """The Draft 2020-12 validator class with the strict ``integer`` check,
    and jsonschema's ``best_match``; imported and built on first use."""
    import jsonschema

    validator = jsonschema.validators.extend(
        jsonschema.Draft202012Validator,
        type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
            "integer", _is_integer
        ),
    )
    return validator, jsonschema.exceptions.best_match


_PREFIX = {"additionalProperties": "unknown field: ", "required": "missing field: "}


def closed_schema(properties: dict, required: list | None = None) -> dict:
    """Object schema admitting exactly ``properties``, all required by default."""
    return {"type": "object", "additionalProperties": False,
            "required": list(properties) if required is None else required,
            "properties": properties}


def tagged_union(tag: str, variants: dict) -> dict:
    """Schema applying ``variants[value]`` to an object whose ``tag`` field is ``value``.

    A ``oneOf`` over closed variants can only report that no variant
    matched; here the one variant the tag selects reports the unknown or
    missing field by name.
    """
    return {"allOf": [{"if": {"properties": {tag: {"const": value}}, "required": [tag]},
                       "then": schema} for value, schema in variants.items()]}


def union_variants(schema: dict) -> list[tuple[str, object, dict]]:
    """``(tag, value, variant)`` for each branch a ``tagged_union`` put in
    ``schema``; empty when it has none."""
    return [(tag, cond["const"], branch["then"])
            for branch in schema.get("allOf", [])
            for tag, cond in branch["if"]["properties"].items()]


def load_document(text: str, schema: dict, what: str):
    """Parse ``text`` as JSON and validate it against ``schema``.

    ``NaN`` and ``Infinity``, which no numeric bound rejects, are refused
    while parsing; ``integer`` admits JSON integers only (``2``, not
    ``2.0``).  Failures raise ``ConfigError`` naming ``what`` and the
    location in the document.
    """
    def reject_constant(name: str):
        raise ConfigError(f"{what}: {name} is not a finite number")

    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None
    validator, best_match = _jsonschema()
    error = best_match(validator(schema).iter_errors(doc))
    if error is not None:
        location = "/".join(str(p) for p in error.absolute_path) or "<top level>"
        message = _PREFIX.get(error.validator, "") + error.message
        raise ConfigError(f"{what}: {message} (at {location})")
    return doc
