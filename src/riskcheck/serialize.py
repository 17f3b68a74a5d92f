"""JSON schemas for trajectories and scenarios, plus content hashing.

Schema version 1.  A trajectory literal is

    {"schema_version": 1,
     "segments": [{"start": 0.0, "form": "linear",
                   "params": {"intercept": 0.1, "slope": 0.05}}, ...],
     "maintenance_epochs": [{"time": 10.0, "post_hazard": 0.1}, ...]}

and a scenario file is

    {"schema_version": 1, "label": "figure1-sawtooth",
     "model": {"h0": 0.1, "growth": {"form": "linear", "params": {"slope": 0.05}}},
     "policy": {"kind": "periodic_perfect", "params": {"period": 10.0}},
     "horizon": 30.0}

Parsing is strict (SchemaError on anything off-schema, an unknown key
included) but does not run the principle validator — the CLI's
``validate`` command needs to load rule-breaking trajectories in order to
report on them.

:func:`load_input` reads a file's top-level object one member at a time,
each value parsed by json's own scanner, with json's errors.  A top-level
array (``segments``, ``maintenance_epochs``) is loaded into row-table
columns before the next member is read, so its parse tree is freed, and
the text is dropped when the object closes: a load peaks at the text and
one top-level array's parse tree, not the whole file's.  A top-level key
given twice is a SchemaError; a key repeated inside a nested object keeps
json's last value.

Every artifact file is written here, by :func:`write_artifact`: LF line
ends, lines written as they come.  :func:`json_text` is the one JSON
layout, sorted keys and a two-space indent, for files and for ``validate``;
it writes a number that is not finite as null, so every file is strict
JSON.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from collections.abc import Iterable, Iterator
from itertools import chain, compress, islice, repeat
from operator import attrgetter, eq, itemgetter
from pathlib import Path

from .hazard import _PARAMS, SEGMENT_FORMS, HazardTrajectory
from .scenarios import GROWTH_FORMS, MAINTENANCE_POLICIES, MaintenancePolicy, Scenario

# CPython's own SHA-256 (``_sha2`` from 3.12, ``_sha256`` before), taken
# as random.py takes its sha512: the standard hash module would load
# OpenSSL's libcrypto, a few MB and a few ms of every command, for the same
# digest.  It is the fallback for a build without CPython's own hashes.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "trajectory_to_dict",
    "trajectory_from_dict",
    "scenario_to_dict",
    "scenario_from_dict",
    "load_input",
    "write_artifact",
    "json_text",
    "dump_json",
    "trajectory_hash",
    "grid_hash",
]

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Input JSON does not match the documented schema."""


# Wire name -> (class, param names).  The params of a form or a policy are
# its dataclass fields.  A scenario grows by a segment form whose base is the
# scenario's h0, so its growth params are the form's fields after the base,
# renamed by _GROWTH_RENAMES.
_FORMS = {cls.name: (cls, _PARAMS[cls]) for cls in SEGMENT_FORMS}
_FORM_NAMES = frozenset(_FORMS)
_GROWTH_RENAMES = {"growth": "rate"}
_GROWTHS = {
    cls.name: (cls, tuple(_GROWTH_RENAMES.get(f, f) for f in _PARAMS[cls][1:]))
    for cls in GROWTH_FORMS
}
_POLICIES = {
    cls.name: (cls, tuple(f.name for f in dataclasses.fields(cls))) for cls in MAINTENANCE_POLICIES
}
_WIRE = {
    cls: (name, params)
    for registry in (_FORMS, _POLICIES)
    for name, (cls, params) in registry.items()
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _number(obj, where: str) -> float:
    _require(isinstance(obj, (int, float)) and not isinstance(obj, bool), f"{where} must be a number")
    try:
        value = float(obj)
    except OverflowError:  # an integer literal past the float range
        value = math.inf
    _require(math.isfinite(value), f"{where} must be finite")
    return value


def _known_keys(d: dict, where: str, keys: frozenset) -> dict:
    for key in d:
        _require(key in keys, f"{where} has unknown key {key!r}; its keys are {sorted(keys)}")
    return d


def _mapping(obj, where: str, keys: frozenset | None = None) -> dict:
    """``obj`` if it is an object, and with ``keys``, one with no other key."""
    _require(isinstance(obj, dict), f"{where} must be an object")
    return obj if keys is None else _known_keys(obj, where, keys)


def _tagged(obj, where: str, tag_key: str, registry: dict, *leading: float, keys=None) -> object:
    """The registry class named by ``obj[tag_key]``, built from ``leading``
    and then ``obj["params"]`` in registry order.  ``obj`` may have no key
    outside ``keys``, by default ``tag_key`` and "params"."""
    d = _mapping(obj, where, keys or frozenset((tag_key, "params")))
    tag = d.get(tag_key)
    _require(
        isinstance(tag, str) and tag in registry,
        f"{where}.{tag_key} must be one of {sorted(registry)}, got {tag!r}",
    )
    cls, fields = registry[tag]
    params = _mapping(d.get("params"), f"{where}.params")
    _require(
        set(params) == set(fields),
        f"{where}.params for {tag!r} must have exactly keys {sorted(fields)}",
    )
    return cls(*leading, *(_number(params[f], f"{where}.params.{f}") for f in fields))


def _to_tagged(obj, tag_key: str) -> dict:
    name, params = _WIRE[type(obj)]
    return {tag_key: name, "params": {f: getattr(obj, f) for f in params}}


def _top_level(obj, where: str, keys: frozenset) -> dict:
    """``obj`` if it is an object of this schema version with no key
    outside ``keys``; the version is checked first."""
    d = _mapping(obj, where)
    # The integer itself: not true, 1.0 or "1", which compare equal or look it.
    version = d.get("schema_version")
    _require(
        type(version) is int and version == SCHEMA_VERSION,
        f"{where}.schema_version must be {SCHEMA_VERSION}",
    )
    return _known_keys(d, where, keys)


# The keys each object of the two schemas may have.
_TRAJECTORY_KEYS = frozenset(("schema_version", "segments", "maintenance_epochs"))
_SEGMENT_KEYS = frozenset(("start", "form", "params"))
_EPOCH_KEYS = frozenset(("time", "post_hazard"))
_SCENARIO_KEYS = frozenset(("schema_version", "label", "model", "policy", "horizon"))
_MODEL_KEYS = frozenset(("h0", "growth"))


# -- trajectories -----------------------------------------------------------


def trajectory_to_dict(traj: HazardTrajectory) -> dict:
    starts, forms, times, post_hazards = traj._table
    return {
        "schema_version": SCHEMA_VERSION,
        "segments": [
            {"start": start, **_to_tagged(form, "form")} for start, form in zip(starts, forms)
        ],
        "maintenance_epochs": [
            {"time": time, "post_hazard": post} for time, post in zip(times, post_hazards)
        ],
    }


def _by_class(kinds, build, *columns) -> Iterator:
    """``build(kind, *rows)`` once per distinct key of the sequence ``kinds``,
    on the rows of ``columns`` with that key, merged back into row order.

    ``build`` returns one item per row it is given.  It runs once per form
    (class or name), not once per row, so it can map one class's
    constructor or JSON pieces over whole columns at C speed.  The merged
    items are yielded as they are read: if ``build`` returns lazy maps, no
    item is made before it is asked for and none is held after.
    """
    keys = set(kinds)
    if len(keys) == 1:
        return iter(build(keys.pop(), *columns))
    merged = {}
    for key in keys:
        mask = list(map(eq, kinds, repeat(key)))
        merged[key] = iter(build(key, *(list(compress(c, mask)) for c in columns)))
    return map(next, map(merged.__getitem__, kinds))


class _Irregular(Exception):
    """A column the whole-column checks do not take; the row-by-row loader
    names what is wrong."""


def _finite_floats(column) -> tuple:
    """``column`` as a tuple of finite floats if it holds only numbers that
    load as such, else _Irregular; an integer loads as its float."""
    column = tuple(column)
    kinds = set(map(type, column))
    if not kinds <= {float, int}:  # bool is a type of its own
        raise _Irregular
    if int in kinds:
        column = tuple(map(float, column))  # OverflowError past the float range
    if not all(map(math.isfinite, column)):
        raise _Irregular
    return column


def _forms(name: str, params: list) -> map:
    """The forms named ``name``, one per params object, if each has exactly
    the form's keys and finite numbers."""
    cls, fields = _FORMS[name]
    if set(map(len, params)) != {len(fields)}:  # with every key present, no other key
        raise _Irregular
    return map(cls, *(_finite_floats(map(itemgetter(f), params)) for f in fields))


def _segment_columns(raw):
    """A parsed segments array as its columns (starts, forms), built a
    column at a time, if every field passes its check; else ``raw`` itself,
    for the row-by-row loader.  JSON parses to no tuple, so a tuple is
    columns already loaded, and is returned as it is."""
    if type(raw) is not list or set(map(type, raw)) != {dict}:
        return raw
    try:
        starts = _finite_floats(map(itemgetter("start"), raw))
        names = tuple(map(itemgetter("form"), raw))
        params = tuple(map(itemgetter("params"), raw))
        # with every key present, a row with as many keys has no other
        if not (
            set(map(len, raw)) == {len(_SEGMENT_KEYS)}
            and set(names) <= _FORM_NAMES
            and set(map(type, params)) == {dict}
        ):
            return raw
        return starts, tuple(_by_class(names, _forms, params))
    except (_Irregular, KeyError, TypeError, OverflowError):  # a key missing, a name unhashable
        return raw


def _epoch_columns(raw):
    """A parsed epochs array as its columns (times, post-hazards), as
    :func:`_segment_columns` loads segments."""
    rows_are_objects = type(raw) is list and set(map(type, raw)) <= {dict}
    if not (rows_are_objects and set(map(len, raw)) <= {len(_EPOCH_KEYS)}):
        return raw
    try:
        times = _finite_floats(map(itemgetter("time"), raw))
        return times, _finite_floats(map(itemgetter("post_hazard"), raw))
    except (_Irregular, KeyError, OverflowError):
        return raw


# The top-level arrays loaded as columns as soon as they are parsed.
_COLUMN_LOADERS = {"segments": _segment_columns, "maintenance_epochs": _epoch_columns}


def _segment_rows(raw: list) -> tuple:
    """(starts, forms) of a segments array, row by row: a SchemaError names
    the first field that is wrong."""
    starts, forms = [], []
    for i, row in enumerate(raw):
        where = f"trajectory.segments[{i}]"
        seg = _mapping(row, where, _SEGMENT_KEYS)
        starts.append(_number(seg.get("start"), f"{where}.start"))
        forms.append(_tagged(seg, where, "form", _FORMS, keys=_SEGMENT_KEYS))
    return tuple(starts), tuple(forms)


def _epoch_rows(raw: list) -> tuple:
    """(times, post-hazards) of an epochs array, row by row."""
    times, post_hazards = [], []
    for i, row in enumerate(raw):
        where = f"trajectory.maintenance_epochs[{i}]"
        e = _mapping(row, where, _EPOCH_KEYS)
        times.append(_number(e.get("time"), f"{where}.time"))
        post_hazards.append(_number(e.get("post_hazard"), f"{where}.post_hazard"))
    return tuple(times), tuple(post_hazards)


def trajectory_from_dict(d) -> HazardTrajectory:
    d = _top_level(d, "trajectory", _TRAJECTORY_KEYS)
    segments = _segment_columns(d.get("segments"))
    if type(segments) is not tuple:  # a check fails: row by row, to name it
        _require(isinstance(segments, list) and segments, "trajectory.segments must be a nonempty array")
        segments = _segment_rows(segments)
    epochs = _epoch_columns(d.get("maintenance_epochs", []))
    if type(epochs) is not tuple:
        _require(isinstance(epochs, list), "trajectory.maintenance_epochs must be an array")
        epochs = _epoch_rows(epochs)
    return HazardTrajectory._from_table(segments + epochs)


# -- scenarios ---------------------------------------------------------------


def scenario_to_dict(scenario: Scenario) -> dict:
    model = scenario.model
    _, params = _GROWTHS[model.name]
    h0, *values = (getattr(model, f) for f in _PARAMS[type(model)])
    return {
        "schema_version": SCHEMA_VERSION,
        "label": scenario.label,
        "model": {"h0": h0, "growth": {"form": model.name, "params": dict(zip(params, values))}},
        "policy": _to_tagged(scenario.policy, "kind"),
        "horizon": scenario.horizon,
    }


def scenario_from_dict(d) -> Scenario:
    d = _top_level(d, "scenario", _SCENARIO_KEYS)
    label = d.get("label")
    _require(isinstance(label, str) and label, "scenario.label must be a nonempty string")
    model = _mapping(d.get("model"), "scenario.model", _MODEL_KEYS)
    h0 = _number(model.get("h0"), "scenario.model.h0")
    growth = _tagged(model.get("growth"), "scenario.model.growth", "form", _GROWTHS, h0)
    policy: MaintenancePolicy = _tagged(d.get("policy"), "scenario.policy", "kind", _POLICIES)
    horizon = _number(d.get("horizon"), "scenario.horizon")
    return Scenario(label=label, model=growth, policy=policy, horizon=horizon)


# -- files and hashing --------------------------------------------------------


_DECODER = json.JSONDecoder()
_space = json.decoder.WHITESPACE.match
# Python 3.13's json names a comma before "}" on its own.
_TRAILING_COMMA = sys.version_info >= (3, 13)


def _members(text: str, end: int, path: Path) -> tuple[dict, int, str | None]:
    """The members of the object whose "{" ends at ``end`` in ``text``, the
    index past its "}", and its last key (None if it has none).

    The object is read as json.decoder.JSONObject reads it, with json's
    messages and positions, and each value is parsed by json's own
    scanner.  A member that _COLUMN_LOADERS names is loaded as soon as the
    next member begins, so its parse tree is freed before that member is
    read; the last member is left for the caller.  A key given twice is a
    SchemaError.  Each value is parsed a level shallower than within
    json.loads, so one nested just past json's recursion limit parses here
    and is refused by the schema instead.
    """
    members, key = {}, None
    end = _space(text, end).end()
    if text.startswith("}", end):
        return members, end + 1, key
    while True:
        if not text.startswith('"', end):
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes", text, end)
        key, end = _DECODER.raw_decode(text, end)
        _require(key not in members, f"{path} has the top-level key {key!r} twice")
        end = _space(text, end).end()
        if not text.startswith(":", end):
            raise json.JSONDecodeError("Expecting ':' delimiter", text, end)
        members[key], end = _DECODER.raw_decode(text, _space(text, end + 1).end())
        end = _space(text, end).end()
        if text.startswith("}", end):
            return members, end + 1, key
        if not text.startswith(",", end):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, end)
        comma, end = end, _space(text, end + 1).end()
        if _TRAILING_COMMA and text.startswith("}", end):
            raise json.JSONDecodeError("Illegal trailing comma before end of object", text, comma)
        if key in _COLUMN_LOADERS:
            members[key] = _COLUMN_LOADERS[key](members[key])


def _read_json(path: Path):
    """What ``json.loads`` gives for the UTF-8 text of the file ``path``,
    whatever the locale, with the same errors, except that a top-level key
    given twice is a SchemaError and a top-level array that passes the
    column checks is given as its columns.

    A top-level object is read a member at a time (:func:`_members`).  Each
    copy of the file is dropped as soon as the next is made: the bytes once
    decoded, each top-level array's parse tree once it is loaded as
    columns, and the text once the object closes, before its last member
    is loaded.
    """
    text = path.read_bytes().decode("utf-8")
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    end = _space(text).end()
    if text.startswith("{", end):
        value, end, last = _members(text, end + 1, path)
    else:
        (value, end), last = _DECODER.raw_decode(text, end), None
    end = _space(text, end).end()
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    del text
    if last in _COLUMN_LOADERS:
        value[last] = _COLUMN_LOADERS[last](value[last])
    return value


def load_input(path: str | Path) -> tuple[str, HazardTrajectory | Scenario]:
    """Load a trajectory or scenario JSON file, sniffed by its keys.

    Returns ("trajectory", HazardTrajectory) or ("scenario", Scenario).
    """
    path = Path(path)
    try:
        d = _read_json(path)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except SchemaError:  # a top-level key given twice
        raise
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, too deep, too many digits
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    if isinstance(d, dict) and "segments" in d:
        return "trajectory", trajectory_from_dict(d)
    if isinstance(d, dict) and "model" in d:
        return "scenario", scenario_from_dict(d)
    raise SchemaError(f"{path} is neither a trajectory (segments) nor a scenario (model)")


def write_artifact(path: str | Path, text: str, lines: Iterable[str] = ()) -> Path:
    """Write ``text`` and then each of ``lines`` as it comes, with LF line
    ends; returns the path.  A generator of lines is never held whole."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.writelines(lines)
    return path


def _finite_or_null(obj):
    """``obj`` with every float that is not finite replaced by None:
    ``Infinity`` and ``NaN`` are not JSON, null is."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def json_text(obj: dict) -> str:
    """The artifact JSON layout: sorted keys, two-space indent, trailing
    newline, and null for a number that is not finite."""
    return json.dumps(_finite_or_null(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def dump_json(path: str | Path, obj: dict) -> Path:
    """Write ``obj`` as :func:`json_text`."""
    return write_artifact(path, json_text(obj))


def _canonical_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _segment_pieces(name: str, params: tuple[str, ...]) -> tuple[list[str], tuple[attrgetter, ...]]:
    """The pieces around a segment's numbers, and the getters of its params in key order."""
    keys = sorted(params)
    numbers = ",".join(json.dumps(key) + ":%s" for key in keys)
    template = '{"form":' + json.dumps(name) + ',"params":{' + numbers + '},"start":%s}'
    return template.split("%s"), tuple(map(attrgetter, keys))


_SEGMENT_PIECES = {cls: _segment_pieces(name, params) for name, (cls, params) in _FORMS.items()}
# json's spelling of each float repr that is not a JSON number.
_JSON_SPELLINGS = {repr(x): json.dumps(x) for x in (math.inf, -math.inf, math.nan)}


class _NumberTexts(dict):
    """Float -> its canonical JSON text, formatted on the first lookup."""

    def __missing__(self, value: float) -> str:
        text = repr(value)
        text = _JSON_SPELLINGS.get(text, text)
        if value:  # 0.0 and -0.0 are one key with two texts
            self[value] = text
        return text


# Rows per piece of the canonical JSON: a piece is a few tens of kB, so the
# hash holds no more than that of the text, in few calls.
_CHUNK_ROWS = 256


def _comma_joined(rows: Iterator[str]) -> Iterator[str]:
    """``",".join(rows)`` in pieces of at most _CHUNK_ROWS rows."""
    comma = ""
    while chunk := ",".join(islice(rows, _CHUNK_ROWS)):  # a row is never empty
        yield comma + chunk
        comma = ","


def _canonical_trajectory_pieces(traj: HazardTrajectory) -> Iterator[str]:
    """The canonical JSON of a trajectory, ``_canonical_json(trajectory_to_dict(traj))``,
    in pieces: the frame, keys sorted, around the epoch rows and then the
    segment rows, each joined from the texts of its numbers and the pieces
    between them, _CHUNK_ROWS rows at a time."""
    starts, forms, times, post_hazards = traj._table
    start_texts = list(map(repr, starts))  # distinct if valid: not looked up
    start_texts = list(map(_JSON_SPELLINGS.get, start_texts, start_texts))
    texts = _NumberTexts(compress(zip(starts, start_texts), starts))  # no zero, as in __missing__

    def segment_rows(cls: type, forms, start_texts) -> map:
        pieces, getters = _SEGMENT_PIECES[cls]
        columns = (*(map(texts.__getitem__, map(number, forms)) for number in getters), start_texts)
        return map("".join, zip(repeat(pieces[0]), *chain.from_iterable(zip(columns, map(repeat, pieces[1:])))))

    post_texts, time_texts = map(texts.__getitem__, post_hazards), map(texts.__getitem__, times)
    epochs = zip(repeat('{"post_hazard":'), post_texts, repeat(',"time":'), time_texts, repeat("}"))
    yield '{"maintenance_epochs":['
    yield from _comma_joined(map("".join, epochs))
    yield f'],"schema_version":{SCHEMA_VERSION},"segments":['
    yield from _comma_joined(_by_class(list(map(type, forms)), segment_rows, forms, start_texts))
    yield "]}"


def _canonical_trajectory_json(traj: HazardTrajectory) -> str:
    return "".join(_canonical_trajectory_pieces(traj))


def trajectory_hash(traj: HazardTrajectory) -> str:
    """sha256 of the canonical trajectory JSON, stable across round trips: each
    distinct float is formatted once, as its shortest repr in json's spelling.
    The text is fed to the hash a piece at a time, as it is joined, so
    neither it nor a list of its rows is ever held whole.  The hash is
    CPython's built-in SHA-256 (OpenSSL's only where the build lacks it):
    the same digest, with no OpenSSL loaded, at about an eighth of the
    throughput OpenSSL reaches with the CPU's SHA instructions."""
    digest = sha256()
    for piece in _canonical_trajectory_pieces(traj):
        digest.update(piece.encode())
    return digest.hexdigest()


def grid_hash(grid) -> str:
    """sha256 of a time grid, for provenance in distance reports."""
    payload = _canonical_json({"grid": [float(t) for t in grid]})
    return sha256(payload.encode()).hexdigest()
