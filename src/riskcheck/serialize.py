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

Parsing is strict (SchemaError on anything off-schema) but does not run the
principle validator — the CLI's ``validate`` command needs to load
rule-breaking trajectories in order to report on them.

Every artifact file is written here, by :func:`write_artifact`: LF line
ends, lines written as they come.  :func:`json_text` is the one JSON
layout, sorted keys and a two-space indent, for files and for ``validate``;
it writes a number that is not finite as null, so every file is strict
JSON.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections.abc import Iterable
from itertools import chain, compress, repeat
from operator import attrgetter, eq, itemgetter
from pathlib import Path

from .hazard import (
    _PARAMS,
    SEGMENT_FORMS,
    HazardSegment,
    HazardTrajectory,
    MaintenanceEpoch,
)
from .scenarios import GROWTH_FORMS, MAINTENANCE_POLICIES, MaintenancePolicy, Scenario

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


def _mapping(obj, where: str) -> dict:
    _require(isinstance(obj, dict), f"{where} must be an object")
    return obj


def _tagged(obj, where: str, tag_key: str, registry: dict, *leading: float) -> object:
    """The registry class named by ``obj[tag_key]``, built from ``leading``
    and then ``obj["params"]`` in registry order."""
    d = _mapping(obj, where)
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


def _check_schema_version(d: dict, where: str) -> None:
    # The integer itself: not true, 1.0 or "1", which compare equal or look it.
    version = d.get("schema_version")
    _require(
        type(version) is int and version == SCHEMA_VERSION,
        f"{where}.schema_version must be {SCHEMA_VERSION}",
    )


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


def _by_class(kinds, build, *columns) -> list:
    """``build(kind, *rows)`` once per distinct key of the sequence ``kinds``,
    on the rows of ``columns`` with that key, merged back into row order.

    ``build`` returns one item per row it is given.  It runs once per form
    (class or name), not once per row, so it can map one class's
    constructor or JSON pieces over whole columns at C speed.
    """
    keys = set(kinds)
    if len(keys) == 1:
        return list(build(keys.pop(), *columns))
    merged = {}
    for key in keys:
        mask = list(map(eq, kinds, repeat(key)))
        merged[key] = iter(build(key, *(list(compress(c, mask)) for c in columns)))
    return list(map(next, map(merged.__getitem__, kinds)))


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


def _table_from_json(raw_segments: list, raw_epochs) -> tuple:
    """The row table of parsed segment and epoch arrays whose every field
    passes its checks, built a column at a time; else _Irregular."""
    rows_are_objects = type(raw_epochs) is list and set(map(type, raw_epochs)) <= {dict}
    if not (rows_are_objects and set(map(type, raw_segments)) == {dict}):
        raise _Irregular
    try:
        starts = _finite_floats(map(itemgetter("start"), raw_segments))
        names = tuple(map(itemgetter("form"), raw_segments))
        params = tuple(map(itemgetter("params"), raw_segments))
        times = _finite_floats(map(itemgetter("time"), raw_epochs))
        post_hazards = _finite_floats(map(itemgetter("post_hazard"), raw_epochs))
        if not (set(names) <= _FORM_NAMES and set(map(type, params)) == {dict}):
            raise _Irregular
        forms = tuple(_by_class(names, _forms, params))
    except (KeyError, TypeError, OverflowError):  # a key missing, a name unhashable
        raise _Irregular from None
    return starts, forms, times, post_hazards


def trajectory_from_dict(d) -> HazardTrajectory:
    d = _mapping(d, "trajectory")
    _check_schema_version(d, "trajectory")
    raw_segments = d.get("segments")
    _require(isinstance(raw_segments, list) and raw_segments, "trajectory.segments must be a nonempty array")
    try:
        return HazardTrajectory._from_table(_table_from_json(raw_segments, d.get("maintenance_epochs", [])))
    except _Irregular:  # a check fails: row by row, to name it
        pass
    segments = []
    for i, raw in enumerate(raw_segments):
        where = f"trajectory.segments[{i}]"
        seg = _mapping(raw, where)
        start = _number(seg.get("start"), f"{where}.start")
        segments.append(HazardSegment(start, _tagged(seg, where, "form", _FORMS)))
    raw_epochs = d.get("maintenance_epochs", [])
    _require(isinstance(raw_epochs, list), "trajectory.maintenance_epochs must be an array")
    epochs = []
    for i, raw in enumerate(raw_epochs):
        where = f"trajectory.maintenance_epochs[{i}]"
        e = _mapping(raw, where)
        epochs.append(
            MaintenanceEpoch(
                _number(e.get("time"), f"{where}.time"),
                _number(e.get("post_hazard"), f"{where}.post_hazard"),
            )
        )
    return HazardTrajectory(tuple(segments), tuple(epochs))


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
    d = _mapping(d, "scenario")
    _check_schema_version(d, "scenario")
    label = d.get("label")
    _require(isinstance(label, str) and label, "scenario.label must be a nonempty string")
    model = _mapping(d.get("model"), "scenario.model")
    h0 = _number(model.get("h0"), "scenario.model.h0")
    growth = _tagged(model.get("growth"), "scenario.model.growth", "form", _GROWTHS, h0)
    policy: MaintenancePolicy = _tagged(d.get("policy"), "scenario.policy", "kind", _POLICIES)
    horizon = _number(d.get("horizon"), "scenario.horizon")
    return Scenario(label=label, model=growth, policy=policy, horizon=horizon)


# -- files and hashing --------------------------------------------------------


def load_input(path: str | Path) -> tuple[str, HazardTrajectory | Scenario]:
    """Load a trajectory or scenario JSON file, sniffed by its keys.

    Returns ("trajectory", HazardTrajectory) or ("scenario", Scenario).
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:  # UTF-8 whatever the locale; a BOM is left in, for json to refuse
        d = json.loads(data.decode("utf-8"))
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


# The canonical JSON of a trajectory, ``_canonical_json(trajectory_to_dict(traj))``,
# joined from the texts of its numbers and the pieces between them, keys sorted.
_TRAJECTORY_FRAME = '{"maintenance_epochs":[%s],"schema_version":' + str(SCHEMA_VERSION) + ',"segments":[%s]}'


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


def _canonical_trajectory_json(traj: HazardTrajectory) -> str:
    starts, forms, times, post_hazards = traj._table
    start_texts = list(map(repr, starts))  # distinct if valid: not looked up
    start_texts = list(map(_JSON_SPELLINGS.get, start_texts, start_texts))
    texts = _NumberTexts(compress(zip(starts, start_texts), starts))  # no zero, as in __missing__

    def segment_rows(cls: type, forms, start_texts) -> map:
        pieces, getters = _SEGMENT_PIECES[cls]
        columns = (*(map(texts.__getitem__, map(number, forms)) for number in getters), start_texts)
        return map("".join, zip(repeat(pieces[0]), *chain.from_iterable(zip(columns, map(repeat, pieces[1:])))))

    segments = ",".join(_by_class(list(map(type, forms)), segment_rows, forms, start_texts))
    post_texts, time_texts = map(texts.__getitem__, post_hazards), map(texts.__getitem__, times)
    epochs = zip(repeat('{"post_hazard":'), post_texts, repeat(',"time":'), time_texts, repeat("}"))
    return _TRAJECTORY_FRAME % (",".join(map("".join, epochs)), segments)


def trajectory_hash(traj: HazardTrajectory) -> str:
    """sha256 of the canonical trajectory JSON, stable across round trips: each
    distinct float is formatted once, as its shortest repr in json's spelling."""
    return hashlib.sha256(_canonical_trajectory_json(traj).encode()).hexdigest()


def grid_hash(grid) -> str:
    """sha256 of a time grid, for provenance in distance reports."""
    payload = _canonical_json({"grid": [float(t) for t in grid]})
    return hashlib.sha256(payload.encode()).hexdigest()
