"""Trace ingestion and synthesis, run configuration, and report emission.

Traces are hourly CSV files mapped to unit slots. Synthetic traces carry
diurnal and weekly structure under named regional presets; configs are a
single JSON document checked before anything runs; and reports serialize
deterministically so a fixed seed reproduces output bytes. The schema checks
a config's shape and types, and the ranges of the run keys no model owns;
the model dataclasses check every model number's range and finiteness.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import (
    ConditioningModel,
    CoolingModel,
    CoolingRegime,
    GeneratorModel,
    Instance,
    ServerModel,
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
            with open(path, newline="", encoding="utf-8") as fh:
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


@dataclass(frozen=True)
class Preset:
    """Regional price levels and overhead polynomials for synthesis."""

    name: str
    day_price: float
    night_price: float
    price_noise: float
    cooling_day: tuple[float, float, float]
    cooling_night: tuple[float, float, float]
    conditioning: tuple[float, float, float] = (0.012, 0.046, 0.056)

    def cooling_model(self, b_max: float) -> CoolingModel:
        return CoolingModel(
            kind="quadratic",
            regimes=(
                CoolingRegime("day", 8, 20, self.cooling_day),
                CoolingRegime("night", 20, 8, self.cooling_night),
            ),
            b_max=b_max,
        )

    def conditioning_model(self, b_max: float) -> ConditioningModel:
        q, l, c = self.conditioning
        return ConditioningModel(kind="quadratic", quad=q, lin=l, const=c, b_max=b_max)


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
    if days < 1:
        raise ConfigError(f"days must be >= 1, got {days}")
    if servers < 1:
        raise ConfigError(f"servers must be >= 1, got {servers}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
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

    is_day = (hour >= 8) & (hour < 20)
    price = np.where(is_day, spec.day_price, spec.night_price)
    if spec.price_noise > 0.0:
        price = price + rng.uniform(-spec.price_noise, spec.price_noise, t_end)
    price = np.clip(price, 0.01, None)
    regimes = tuple("day" if flag else "night" for flag in is_day)
    return TraceFile(workload=workload, price=price, regimes=regimes)


# ---------------------------------------------------------------------------
# run configuration

_NUMBER = {"type": "number"}
_INTEGER = {"type": "integer"}


def _object(properties: dict, **keywords) -> dict:
    """Schema of a JSON object that has only the given properties."""
    return {"type": "object", "additionalProperties": False, "properties": properties, **keywords}


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
    "server": _object(dict.fromkeys(("c_idle", "c_peak", "beta_s"), _NUMBER)),
    "generator": _object({
        **dict.fromkeys(("capacity", "c_o", "c_m", "beta_g"), _NUMBER),
        "count": {"type": "integer", "minimum": 0},
    }),
    "cooling": _object({
        "kind": {"enum": ["none", "quadratic", "cubic"]},
        "b_max": _NUMBER,
        "period": _INTEGER,
        "regimes": {"type": "array", "items": _object({
            "name": {"type": "string"},
            "start": _INTEGER,
            "end": _INTEGER,
            "coeffs": {"type": "array", "items": _NUMBER},
        }, required=["name", "start", "end", "coeffs"])},
    }),
    "conditioning": _object({
        "kind": {"enum": ["none", "quadratic"]},
        **dict.fromkeys(("quad", "lin", "const", "b_max"), _NUMBER),
    }),
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


@functools.cache
def _config_validator():
    """The validator of CONFIG_SCHEMA, built on first use. CONFIG_SCHEMA is a
    constant, so the tests check it against its metaschema once; a check
    per call (as jsonschema.validate makes) costs most of a validation.

    "integer" matches JSON integers only: jsonschema's own check also takes
    integral floats such as 2.0, which would reach the model as floats.
    jsonschema, a third of import dcmkit, is imported on first validation."""
    import jsonschema
    base = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    types = base.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool))
    return jsonschema.validators.extend(base, type_checker=types)(CONFIG_SCHEMA)


def validate_config(raw: dict) -> dict:
    """Schema-check a config document and fill defaults (deep-merged)."""
    import jsonschema
    error = jsonschema.exceptions.best_match(_config_validator().iter_errors(raw))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config {path}: {error.message}")
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    for key, value in raw.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


def load_config(path: str, overrides: dict | None = None) -> dict:
    """Read a config document, replace its top-level keys by overrides, and
    validate the result (validate_config)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return validate_config({**raw, **(overrides or {})})


def _section_b_max(section: dict, b_max_default: float) -> float:
    # kind "none" draws no power, so the server scale, 0.0 when c_peak is, is no default for it
    return section.get("b_max", b_max_default if section.get("kind", "none") != "none" else 1.0)


def _cooling_from_config(cfg: dict, b_max_default: float) -> CoolingModel:
    section = cfg.get("cooling")
    if section is None:
        return PRESETS[cfg["preset"]].cooling_model(b_max_default)
    regimes = tuple(
        CoolingRegime(r["name"], r["start"], r["end"], tuple(r["coeffs"]))
        for r in section.get("regimes", ())
    )
    return CoolingModel(
        kind=section.get("kind", "none"),
        regimes=regimes,
        b_max=_section_b_max(section, b_max_default),
        period=section.get("period", 24),
    )


def _conditioning_from_config(cfg: dict, b_max_default: float) -> ConditioningModel:
    section = cfg.get("conditioning")
    if section is None:
        return PRESETS[cfg["preset"]].conditioning_model(b_max_default)
    return ConditioningModel(
        kind=section.get("kind", "none"),
        quad=section.get("quad", 0.0),
        lin=section.get("lin", 0.0),
        const=section.get("const", 0.0),
        b_max=_section_b_max(section, b_max_default),
    )


def build_instance(trace: TraceFile, cfg: dict) -> Instance:
    """Assemble a problem instance from a trace plus a validated config.

    Overhead polynomials default to the preset's, scaled by the configured
    server count (peak server draw times fleet size).
    """
    srv = cfg["server"]
    gen = cfg["generator"]
    b_max = srv["c_peak"] * cfg["servers"]
    return Instance(
        workload=trace.workload,
        price=trace.price,
        server=ServerModel(srv["c_idle"], srv["c_peak"], srv["beta_s"]),
        generator=GeneratorModel(
            gen["capacity"], gen["c_o"], gen["c_m"], gen["beta_g"], gen["count"]
        ),
        cooling=_cooling_from_config(cfg, b_max),
        conditioning=_conditioning_from_config(cfg, b_max),
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


def _algo_metrics(entry: dict) -> dict[str, float]:
    flat = dict(entry["breakdown"])
    flat["total"] = entry["total"]
    flat["mean_servers"] = entry["mean_servers"]
    flat["peak_servers"] = entry["peak_servers"]
    flat["mean_generators"] = entry["mean_generators"]
    return flat


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
        for name in sorted(report["algorithms"]):
            flat = _algo_metrics(report["algorithms"][name])
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
