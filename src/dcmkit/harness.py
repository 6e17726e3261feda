"""Trace ingestion and synthesis, run configuration, and report emission.

Traces are hourly CSV files mapped to unit slots. Synthetic traces carry
diurnal and weekly structure under named regional presets; configs are a
single JSON document checked before anything runs; and reports serialize
deterministically so a fixed seed reproduces output bytes. The schema,
CONFIG_SCHEMA, checks a config's shape, and the types and ranges of the run
keys no model owns. Its model sections take their keys from the model
dataclasses' fields and check only shapes (objects, arrays, strings and the
kind enums); each model checks and stores its own values when
build_instance builds it. A small interpreter of the JSON Schema keywords
it uses checks it, with jsonschema's messages, so no command imports
jsonschema.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import numbers
import typing
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import ConfigError
from .model import (
    ConditioningModel,
    CoolingModel,
    CoolingRegime,
    GeneratorModel,
    Instance,
    ServerModel,
    check_scalar,
    check_size,
)

# ---------------------------------------------------------------------------
# trace files


@dataclass(frozen=True)
class TraceFile:
    """Workload and price series, with an optional per-slot regime tag."""

    workload: np.ndarray
    price: np.ndarray
    regimes: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "workload", np.asarray(self.workload, dtype=float))
        object.__setattr__(self, "price", np.asarray(self.price, dtype=float))
        if len(self.workload) != len(self.price):
            raise ConfigError("workload and price series differ in length")
        if self.regimes is not None and len(self.regimes) != len(self.workload):
            raise ConfigError("regime column length differs from series length")

    @property
    def horizon(self) -> int:
        return len(self.workload)

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            self.dump(fh)

    def dump(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        tagged = self.regimes is not None
        writer.writerow(["t", "workload", "price", "regime"][: 3 + tagged])
        for k in range(self.horizon):
            row = [k + 1, repr(float(self.workload[k])), repr(float(self.price[k]))]
            if tagged:
                row.append(self.regimes[k])
            writer.writerow(row)

    @classmethod
    def load(cls, path: str) -> "TraceFile":
        try:
            with open(path, newline="", encoding="utf-8-sig") as fh:  # spreadsheets write a BOM
                return cls.parse(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"trace {path} is not UTF-8 text: {exc}") from None

    @classmethod
    def parse(cls, fh) -> "TraceFile":
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError("empty trace file") from None
        header = [h.strip() for h in header]
        if header not in (["t", "workload", "price"], ["t", "workload", "price", "regime"]):
            raise ConfigError(
                "expected header 't,workload,price[,regime]', got " + ",".join(header)
            )
        has_regime = len(header) == 4
        workload: list[float] = []
        price: list[float] = []
        regimes: list[str] = []
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ConfigError(f"line {line}: expected {len(header)} fields, got {len(row)}")
            try:
                t = int(row[0])
                a = float(row[1])
                p = float(row[2])
            except ValueError as exc:
                raise ConfigError(f"line {line}: {exc}") from None
            if t != len(workload) + 1:
                raise ConfigError(f"non-contiguous slot index at line {line}")
            if not (math.isfinite(a) and math.isfinite(p)):
                raise ConfigError(f"line {line}: non-finite workload {a} or price {p}")
            if a < 0.0:
                raise ConfigError(f"line {line}: negative workload {a}")
            if p < 0.0:
                raise ConfigError(f"line {line}: negative price {p}")
            workload.append(a)
            price.append(p)
            if has_regime:
                regimes.append(row[3].strip())
        if not workload:
            raise ConfigError("trace has no data rows")
        return cls(
            workload=np.array(workload),
            price=np.array(price),
            regimes=tuple(regimes) if has_regime else None,
        )


def load_trace(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Workload and price series from a trace file (regime tags dropped)."""
    trace = TraceFile.load(path)
    return trace.workload, trace.price


# ---------------------------------------------------------------------------
# regional presets and synthesis


# the day's hours [8, 20) of every preset: the day price and the day cooling regime
DAY_HOURS = (8, 20)


@dataclass(frozen=True)
class Preset:
    """Regional price levels for synthesis, and the default overhead models."""

    name: str
    day_price: float
    night_price: float
    price_noise: float
    cooling_day: tuple[float, float, float]
    cooling_night: tuple[float, float, float]
    conditioning: tuple[float, float, float] = (0.012, 0.046, 0.056)

    def overheads(self) -> dict:
        """The cooling and conditioning sections a config would write for
        the preset's models, without b_max (build_instance decides it)."""
        q, l, c = self.conditioning
        dawn, dusk = DAY_HOURS
        return {
            "cooling": {"kind": "quadratic", "regimes": [
                {"name": "day", "start": dawn, "end": dusk, "coeffs": list(self.cooling_day)},
                {"name": "night", "start": dusk, "end": dawn, "coeffs": list(self.cooling_night)},
            ]},
            "conditioning": {"kind": "quadratic", "quad": q, "lin": l, "const": c},
        }


PRESETS: dict[str, Preset] = {
    "ny": Preset(
        name="ny",
        day_price=0.19,
        night_price=0.10,
        price_noise=0.005,
        cooling_day=(0.041, 0.144, 0.047),
        cooling_night=(0.03, 0.136, 0.042),
    ),
    "sj": Preset(
        name="sj",
        day_price=0.125,
        night_price=0.085,
        price_noise=0.005,
        cooling_day=(0.06, 0.16, 0.054),
        cooling_night=(0.041, 0.144, 0.047),
    ),
    # mild winter-night cooling, no price spread: generation barely pays
    "flat": Preset(
        name="flat",
        day_price=0.105,
        night_price=0.105,
        price_noise=0.0,
        cooling_day=(0.041, 0.144, 0.047),
        cooling_night=(0.03, 0.136, 0.042),
    ),
}


def synthesize_trace(seed: int, days: int, servers: int, preset: str = "ny") -> TraceFile:
    """Deterministic synthetic hourly trace with diurnal and weekly shape.

    Utilization follows a sinusoid peaking in the afternoon, scaled down on
    weekends, with bounded noise; the final slot is pinned to the series
    peak so the horizon ends busy for every server slice (keeps break-even
    saturation exact instead of depending on how a trailing idle run is
    handled). Prices are two-level day/night per the preset.
    """
    days = check_scalar("days", days, 1, whole=True)
    servers = check_scalar("servers", servers, 1, whole=True)
    seed = check_scalar("seed", seed, 0, whole=True)
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    check_size(days * 24, servers, 0)  # the peak workload is at most servers
    spec = PRESETS[preset]
    rng = np.random.default_rng(seed)
    t_end = days * 24
    slot = np.arange(t_end)
    hour = slot % 24
    day = slot // 24
    diurnal = 0.5 - 0.5 * np.cos(2.0 * np.pi * (hour - 4) / 24.0)
    week = np.where(day % 7 >= 5, 0.7, 1.0)
    noise = rng.uniform(-0.05, 0.05, t_end)
    util = np.clip(0.08 + 0.84 * diurnal * week + noise, 0.02, 0.92)
    workload = util * servers
    workload[-1] = workload.max()

    is_day = (hour >= DAY_HOURS[0]) & (hour < DAY_HOURS[1])
    price = np.where(is_day, spec.day_price, spec.night_price)
    if spec.price_noise > 0.0:
        price = price + rng.uniform(-spec.price_noise, spec.price_noise, t_end)
    price = np.clip(price, 0.01, None)
    regimes = tuple("day" if flag else "night" for flag in is_day)
    return TraceFile(workload=workload, price=price, regimes=regimes)


# ---------------------------------------------------------------------------
# run configuration

def _object(properties: dict, **keywords) -> dict:
    """Schema of a JSON object that has only the given properties."""
    return {"type": "object", "additionalProperties": False, "properties": properties, **keywords}


def _shape(hint) -> dict:
    """Schema of a config value of a model field's type hint: its shape only,
    as the model checks every value itself. A model is an object of its
    dataclass fields, a tuple an array, a Literal one of its values and a
    str a string; a number may be anything here. A model in an array takes
    no defaults from DEFAULT_CONFIG, so it needs every field."""
    if is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return _object({f.name: _shape(hints[f.name]) for f in fields(hint)})
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Literal:
        return {"enum": list(args)}
    if origin is tuple and is_dataclass(args[0]):
        required = [f.name for f in fields(args[0])]
        return {"type": "array", "items": {**_shape(args[0]), "required": required}}
    if origin is tuple:
        return {"type": "array"}
    return {"type": "string"} if hint is str else {}


CONFIG_SCHEMA = _object({
    "label": {"type": "string"},
    "preset": {"enum": sorted(PRESETS)},
    "servers": {"type": "integer", "minimum": 1},
    "days": {"type": "integer", "minimum": 1},
    "seed": {"type": "integer", "minimum": 0},
    "lookahead": {"type": "integer", "minimum": 0},
    "sweep": _object({
        "axis": {"enum": ["lookahead", "generators"]},
        "values": {"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 0}},
    }, required=["axis", "values"]),
    "server": _shape(ServerModel),
    "generator": _shape(GeneratorModel),
    "cooling": _shape(CoolingModel),
    "conditioning": _shape(ConditioningModel),
})

DEFAULT_CONFIG = {
    "label": "",
    "preset": "ny",
    "servers": 600,
    "days": 22,
    "seed": 0,
    "lookahead": 0,
    "server": {"c_idle": 0.1, "c_peak": 0.25, "beta_s": 0.08},
    "generator": {"capacity": 60.0, "c_o": 0.08, "c_m": 1.2, "beta_g": 24.0, "count": 10},
}


_TYPES = {"object": dict, "array": list, "string": str, "number": numbers.Number, "integer": int}


def _is_type(value, name: str) -> bool:
    return isinstance(value, _TYPES[name]) and not isinstance(value, bool)


def _schema_errors(schema: dict, value, path: tuple = ()):
    """(path, message) for each keyword of schema, or of a subschema it
    descends into, that value fails: the errors jsonschema's iter_errors
    yields, in its order and with its messages.

    Only the keywords CONFIG_SCHEMA uses are known, additionalProperties
    only as false; any other raises. Unlike jsonschema's, "integer" excludes
    integral floats such as 2.0, as check_scalar's whole numbers do; no
    type includes bools."""
    mapping = value if isinstance(value, dict) else {}
    for keyword, arg in schema.items():
        if keyword == "type":
            if not _is_type(value, arg):
                yield path, f"{value!r} is not of type {arg!r}"
        elif keyword == "enum":
            if value not in arg:
                yield path, f"{value!r} is not one of {arg!r}"
        elif keyword == "minimum":
            if _is_type(value, "number") and value < arg:
                yield path, f"{value!r} is less than the minimum of {arg!r}"
        elif keyword == "minItems":
            if isinstance(value, list) and len(value) < arg:
                yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif keyword == "required":
            for name in arg:
                if isinstance(value, dict) and name not in value:
                    yield path, f"{name!r} is a required property"
        elif keyword == "additionalProperties" and arg is False:
            extras = sorted((k for k in mapping if k not in schema["properties"]), key=str)
            if extras:
                listed = ", ".join(map(repr, extras))
                verb = "was" if len(extras) == 1 else "were"
                yield path, f"Additional properties are not allowed ({listed} {verb} unexpected)"
        elif keyword == "properties":
            for name, sub in arg.items():
                if name in mapping:
                    yield from _schema_errors(sub, mapping[name], path + (name,))
        elif keyword == "items":
            for index, item in enumerate(value if isinstance(value, list) else ()):
                yield from _schema_errors(arg, item, path + (index,))
        else:
            raise ValueError(f"no check for schema keyword {keyword}: {arg!r}")


def validate_config(raw: dict) -> dict:
    """Schema-check a config document and fill defaults (deep-merged).

    An invalid document raises one ConfigError, for the error jsonschema's
    best_match picks: of those with the shortest path, the first with the
    largest path. (Its later keys never decide here: CONFIG_SCHEMA has one
    subschema per path, so errors at one path agree on them.) The result
    shares no dict or list with raw."""
    best = max(_schema_errors(CONFIG_SCHEMA, raw), default=None,
               key=lambda error: (-len(error[0]), error[0]))
    if best is not None:
        path = "/".join(map(str, best[0])) or "<root>"
        raise ConfigError(f"config {path}: {best[1]}")
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for key, value in copy.deepcopy(raw).items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


def load_config(path: str, overrides: dict | None = None) -> dict:
    """Read a config document, replace its top-level keys by overrides, and
    validate the result (validate_config)."""
    try:
        with open(path, encoding="utf-8-sig") as fh:  # as traces: a BOM is no error
            raw = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return validate_config({**raw, **(overrides or {})})


def build_instance(trace: TraceFile, cfg: dict) -> Instance:
    """Assemble a problem instance from a trace plus a validated config.

    Each model is built from its config section as keyword arguments, so a
    key a section leaves out takes the model's default (cooling and
    conditioning kind "none", cooling period 24, conditioning quad, lin and
    const 0.0); the schema lets only field names through, and each model
    checks their values. Each overhead section, cooling and conditioning,
    is the config's, or else the preset's (Preset.overheads): a section
    replaces the preset's model as a whole. Its b_max is the section's own;
    else, for kind "none", which draws no power, the model's default 1.0;
    else the fleet scale, server c_peak times the configured server count.
    """
    # the models check their own keys first, so a bad c_peak is named as such
    server = ServerModel(**cfg["server"])
    generator = GeneratorModel(**cfg["generator"])
    scale = server.c_peak * cfg["servers"]
    presets = PRESETS[cfg["preset"]].overheads()
    sections, scaled = {}, []
    for name, model in (("cooling", CoolingModel), ("conditioning", ConditioningModel)):
        section = sections[name] = dict(cfg.get(name, presets[name]))
        # kind "none" draws no power: it keeps the model's b_max, not the scale (0.0 when c_peak is)
        if "b_max" not in section and section.get("kind", model.kind) != "none":
            section["b_max"] = scale
            scaled.append(name)
    if scaled and not 0.0 < scale < math.inf:
        scaled = " and ".join(scaled)
        raise ConfigError(
            f"server c_peak × servers = {scale:g} is the overhead scale b_max of {scaled}, "
            f'which must be a finite number > 0: set a "b_max" or "kind": "none" in {scaled}')
    regimes = tuple(CoolingRegime(**r) for r in sections["cooling"].get("regimes", ()))
    return Instance(
        workload=trace.workload,
        price=trace.price,
        server=server,
        generator=generator,
        cooling=CoolingModel(**{**sections["cooling"], "regimes": regimes}),
        conditioning=ConditioningModel(**sections["conditioning"]),
        label=cfg["label"] or cfg["preset"],
    )


# ---------------------------------------------------------------------------
# report emission

SCHEMA_VERSION = "dcmkit-report/1"

_METRICS = (
    "total",
    "grid_energy",
    "onsite_energy",
    "maintenance",
    "server_switching",
    "generator_startup",
    "mean_servers",
    "peak_servers",
    "mean_generators",
)


def report_to_json(report: dict) -> str:
    """Strict JSON: ConfigError rather than an Infinity or NaN literal."""
    doc = {"schema_version": SCHEMA_VERSION, **report}
    try:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ConfigError(f"report holds a value JSON cannot represent: {exc}") from None


def report_to_csv(report: dict) -> str:
    """Long-format CSV: per-algorithm metric rows, or sweep rows."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if report.get("kind") == "sweep":
        writer.writerow(["axis", "point", "series", "metric", "value"])
        for row in report["rows"]:
            for algo in sorted(row["costs"]):
                writer.writerow([row["axis"], row["value"], algo, "total", repr(row["costs"][algo])])
            for name in sorted(row["ratios"]):
                writer.writerow([row["axis"], row["value"], name, "ratio", repr(row["ratios"][name])])
            for name in sorted(row["bounds"]):
                writer.writerow([row["axis"], row["value"], name, "bound", repr(row["bounds"][name])])
    else:
        writer.writerow(["algorithm", "metric", "value"])
        for name, entry in sorted(report["algorithms"].items()):
            flat = {**entry["breakdown"], **entry}
            for metric in _METRICS:
                writer.writerow([name, metric, repr(float(flat[metric]))])
    return out.getvalue()


def emit_report(report: dict, fmt: str, fh) -> None:
    """Serialize a report dict to an open text stream."""
    if fmt == "json":
        fh.write(report_to_json(report))
    elif fmt == "csv":
        fh.write(report_to_csv(report))
    else:
        raise ConfigError(f"unknown format {fmt!r}; choose csv or json")
