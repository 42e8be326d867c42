"""Command-line front end: config files, subcommands, CSV/JSON emission.

Subcommands: solve, sweep, simulate, analyze, posterior, costs. Common
flags: --config, --seed, --out, --format. Exit codes: 0 ok, 2 config
error, 3 data error, 4 internal error. A sweep or simulate cell that fails
with a domain error still writes its output, with the cell's row of nan
metrics and a ``# error`` line after the CSV rows (the ``error`` field in
JSON); the error also goes to stderr and the exit code is 3.

The config file is a small TOML-like format: `[section]` headers, one
`key = value` per line, full-line # comments. KNOWN_KEYS gives each key one
type: an integer, a number, a number list (a comma list, an inclusive range
start:end:step, or one number) or a string (quoted if it reads as a number
or true/false). Dotted keys (`model.slots = 10`) name the section anywhere.
Unknown keys and wrongly typed values fail with their line number when the
file is read, so typos fail fast. CLI flags override file values.

Every output starts with provenance: a comment line (CSV) or "meta"
object (JSON) recording tool version, config hash, and the resolved seed.
Omitting --seed draws a random one and logs it to stderr, so any run can
be reproduced after the fact.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
from dataclasses import astuple
from itertools import product, repeat

import numpy as np

from . import __version__
from .attacker import bin_timestamps, chi_square_threshold, run_dispersion
from .experiment import (SweepSpec, cost_curves, cost_curves_to_csv, run_sweep,
                         simulate_run, sweep_to_csv)
from .obfuscator import KnowledgeModel, costs, solve_strategy, strategy_json
from .traces import InconsistentObservationError, enumerate_observables, load_fixture, posterior_table
from .traffic import IntervalModel, run_to_csv, write_csv

__all__ = [
    "ConfigError",
    "DataError",
    "Config",
    "parse_config",
    "load_config",
    "read_trace_csv",
    "write_trace_csv",
    "main",
    "entry",
]


class ConfigError(Exception):
    """Bad or missing configuration; exit code 2."""


class DataError(Exception):
    """Bad input data (trace files, fixtures); exit code 3."""


# every accepted config key and its type, by section; anything else is a
# hard error. tuple is a number list: a comma list, a range or one number.
KNOWN_KEYS = {
    "model": {"slots": int, "base_rate": float, "intensity": float, "anomaly_rate": float},
    "knowledge": {"tpr": float, "tnr": float},
    "solver": {"budget": float, "cost_denominator": str},
    "sweep": {"anomaly_rates": tuple, "intensities": tuple, "n_intervals": int,
              "detector": str, "alpha": float},
    "run": {"seed": int, "out": str, "format": str},
    "simulate": {"dump_run": str},
    "analyze": {"input": str, "device": str, "slot_width": float, "slots": int,
                "alpha": float},
    "posterior": {"fixture": str, "observed": tuple},
    "costs": {"shifts": tuple, "base_rates": tuple, "intensities": tuple, "slots": int,
              "denominator": str},
}
_TYPE_NAMES = {int: "an integer", float: "a number", tuple: "a number or a number list",
               str: "a string (quote one that reads as a number or true/false)"}

_MISSING = object()
_FORMATS = ("csv", "json")

_TRACE_CSV_HEADER = "timestamp_s,device_id"
# analyze's output: its CSV columns and its JSON keys
_ANALYZE_NAMES = ("interval", "D", "flagged", "threshold")
# characters per read of a trace CSV; bounds the reader's working memory
_READ_BLOCK = 1 << 20


def _parse_scalar(tok: str):
    tok = tok.strip()
    if tok in ("true", "false"):
        return tok == "true"
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        pass
    if len(tok) >= 2 and tok[0] == tok[-1] and tok[0] in "'\"":
        return tok[1:-1]
    return tok


def _parse_value(raw: str, lineno: int):
    raw = raw.strip()
    if not raw:
        raise ConfigError(f"config line {lineno}: empty value")
    # one quoted string is taken whole, commas and colons included
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\"" and raw[0] not in raw[1:-1]:
        return raw[1:-1]
    if "," in raw:
        return tuple(_parse_scalar(part) for part in raw.split(","))
    if raw.count(":") == 2:
        parts = raw.split(":")
        try:
            start, end, step = (float(p) for p in parts)
        except ValueError:
            return _parse_scalar(raw)
        if not all(map(math.isfinite, (start, end, step))):
            raise ConfigError(f"config line {lineno}: range start, end and step must be finite")
        if step <= 0:
            raise ConfigError(f"config line {lineno}: range step must be positive")
        n = int(round((end - start) / step))
        if abs(start + n * step - end) > 1e-9 * max(1.0, abs(end)):
            raise ConfigError(f"config line {lineno}: range end is off the step grid")
        return tuple(round(start + i * step, 12) for i in range(n + 1))
    return _parse_scalar(raw)


def _as_type(kind: type, value):
    """A parsed value as the declared type ``kind``; None when it is not one."""
    # type(), not isinstance(): true and false are not numbers
    try:
        if kind is tuple:
            items = value if isinstance(value, tuple) else (value,)
            if all(type(v) in (int, float) for v in items):
                return tuple(map(float, items))
        elif type(value) in ((int, float) if kind is float else (kind,)):
            return kind(value)
    except OverflowError:  # an integer literal past the largest double
        pass
    return None


def parse_config(text: str) -> dict[str, dict]:
    """Parse config text into {section: {key: value}}, checking each key's
    name and its value's type against KNOWN_KEYS. Values keep their written
    form (an int literal stays an int), which the config hash reads."""
    sections: dict[str, dict] = {}
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in KNOWN_KEYS:
                raise ConfigError(f"config line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value")
        key, raw = line.split("=", 1)
        key = key.strip()
        if "." in key:
            sect, key = key.split(".", 1)
        elif current is not None:
            sect = current
        else:
            raise ConfigError(f"config line {lineno}: key {key!r} outside any section")
        if sect not in KNOWN_KEYS or key not in KNOWN_KEYS[sect]:
            raise ConfigError(f"config line {lineno}: unknown config key '{sect}.{key}'")
        sec = sections.setdefault(sect, {})
        if key in sec:
            raise ConfigError(f"config line {lineno}: duplicate config key '{sect}.{key}'")
        value = _parse_value(raw, lineno)
        kind = KNOWN_KEYS[sect][key]
        if _as_type(kind, value) is None:
            raise ConfigError(f"config line {lineno}: config key '{sect}.{key}' must be "
                              f"{_TYPE_NAMES[kind]}, got {raw.strip()!r}")
        sec[key] = value
    return sections


class Config:
    """Typed access to the sections parse_config returns, naming fields in errors."""

    def __init__(self, sections: dict[str, dict]):
        self.sections = sections

    def get(self, section: str, key: str, default=_MISSING):
        """``section.key`` as its type in KNOWN_KEYS; ``default`` when it is unset."""
        val = self.sections.get(section, {}).get(key, _MISSING)
        if val is _MISSING:
            if default is _MISSING:
                raise ConfigError(f"missing required config key '{section}.{key}'")
            return default
        return _as_type(KNOWN_KEYS[section][key], val)

    def hash(self) -> str:
        canon = json.dumps(self.sections, sort_keys=True, default=list,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def load_config(path: str | None) -> Config:
    if path is None:
        return Config({})
    try:
        with open(path) as fh:
            return Config(parse_config(fh.read()))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc


def _line_blocks(path):
    """Yield the lines of a UTF-8 text file, about _READ_BLOCK characters at a time.

    Each block is cut after its last newline, so the lines come out exactly
    as ``str.splitlines`` splits the whole text.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            tail = ""
            while block := fh.read(_READ_BLOCK):
                cut = block.rfind("\n") + 1
                if cut:
                    yield (tail + block[:cut]).splitlines()
                    tail = block[cut:]
                else:
                    tail += block
            if tail:
                yield tail.splitlines()
    except OSError as exc:
        raise DataError(f"cannot read trace {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read trace {path}: not UTF-8 text ({exc.reason})") from exc


def _check_row(path, lineno: int, line: str) -> None:
    # the per-row rules, applied one line at a time only to find the first
    # offending line of a block that failed to parse in bulk
    parts = line.split(",")
    if len(parts) != 2:
        raise DataError(f"{path} line {lineno}: expected 2 fields, got {len(parts)}")
    try:
        ts = float(parts[0])
    except ValueError:
        ts = math.nan
    if not math.isfinite(ts):
        raise DataError(f"{path} line {lineno}: bad timestamp {parts[0]!r}")


def read_trace_csv(path, device: str | None = None) -> np.ndarray:
    """Read a `timestamp_s,device_id` CSV and return one device's timestamps.

    Blank lines and `#` comment lines are skipped anywhere. Malformed rows,
    non-finite timestamps and out-of-order timestamps of the selected
    device are reported with their line number; when several lines are
    bad, the first one is. The timestamps come back non-decreasing.
    """
    codes_of: dict[str, int] = {}
    ts_blocks, code_blocks, lineno_blocks = [], [], []
    header_seen = False
    lineno = 0
    for lines in _line_blocks(path):
        first = lineno + 1
        lineno += len(lines)
        stripped = list(map(str.strip, lines))
        keep = [i for i, s in enumerate(stripped) if s and s[0] != "#"]
        if keep and not header_seen:
            i = keep.pop(0)
            if stripped[i] != _TRACE_CSV_HEADER:
                raise DataError(f"{path} line {first + i}: expected header {_TRACE_CSV_HEADER}")
            header_seen = True
        if not keep:
            continue
        rows = [stripped[i] for i in keep]
        fields = ",".join(rows).split(",")
        try:
            if list(map(str.count, rows, repeat(","))).count(1) != len(rows):
                raise ValueError("a row without exactly two fields")
            ts = np.fromiter(map(float, fields[0::2]), float, len(rows))
            if not np.isfinite(ts).all():
                raise ValueError("a non-finite timestamp")
        except ValueError:
            for i in keep:
                _check_row(path, first + i, stripped[i])
            raise  # no row broke a rule: a bug in the bulk parse, not bad data
        devices = list(map(str.strip, fields[1::2]))
        for name in dict.fromkeys(devices):
            codes_of.setdefault(name, len(codes_of))
        ts_blocks.append(ts)
        code_blocks.append(np.fromiter(map(codes_of.__getitem__, devices), np.intp,
                                       len(devices)))
        lineno_blocks.append(np.add(keep, first))
    if not header_seen:
        raise DataError(f"{path}: empty trace file")
    if device is None:
        if len(codes_of) > 1:
            raise DataError(f"{path}: multiple devices {sorted(codes_of)}; set analyze.device")
        device = next(iter(codes_of), "")
    if device not in codes_of:
        raise DataError(f"{path}: no messages for device {device!r}")
    picked = np.concatenate(code_blocks) == codes_of[device]
    ts = np.concatenate(ts_blocks)[picked]
    back = np.flatnonzero(ts[1:] < ts[:-1])
    if back.size:
        k = back[0] + 1
        bad_line = np.concatenate(lineno_blocks)[picked][k]
        raise DataError(f"{path} line {bad_line}: out-of-order timestamp {float(ts[k])}")
    return ts


def write_trace_csv(path, timestamps, device: str = "dev0", comment=None) -> None:
    """Write timestamps in the `timestamp_s,device_id` format analyze reads."""
    write_csv(path, comment, _TRACE_CSV_HEADER,
              (f"{t!r},{device}" for t in np.asarray(timestamps, dtype=float).tolist()))


def _resolve_seed(args, cfg: Config) -> int:
    seed = args.seed if args.seed is not None else cfg.get("run", "seed", None)
    if seed is None:
        seed = int.from_bytes(os.urandom(8), "big")
        print(f"lpwanleak: no seed given; using {seed}", file=sys.stderr)
    elif not 0 <= seed < 2**64:
        source = "--seed" if args.seed is not None else "config key 'run.seed'"
        raise ConfigError(f"{source} must be an unsigned 64-bit integer, got {seed}")
    return seed


def _open_out(args, cfg: Config):
    """Open --out (else run.out) for writing, or stdout. Commands that simulate
    or read a trace open it first, so an unwritable path fails before the work
    (and a run that fails later leaves the file empty, as a shell redirect does)."""
    path = args.out if args.out is not None else cfg.get("run", "out", None)
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot open output {path}: {exc.strerror}") from exc


def _resolve_format(args, cfg: Config, default: str) -> str:
    fmt = args.format if args.format is not None else cfg.get("run", "format", default)
    if fmt not in _FORMATS:
        raise ConfigError(f"config key 'run.format' must be one of {_FORMATS}, got {fmt!r}")
    return fmt


def _provenance(cfg: Config, seed: int) -> str:
    return f"lpwanleak {__version__} config_hash={cfg.hash()} seed={seed}"


def _meta(cfg: Config, seed: int) -> dict:
    return {"tool": "lpwanleak", "version": __version__,
            "config_hash": cfg.hash(), "seed": seed}


def _emit_json(cfg: Config, seed: int, key: str, rows, out) -> None:
    out.write(json.dumps({"meta": _meta(cfg, seed), key: rows}, indent=2) + "\n")


def _json_rows(records) -> list[dict]:
    # a record's JSON keys are its class's output names, in field order
    return [dict(zip(r.NAMES, astuple(r))) for r in records]


def _wrap_value_error(build, field_hint: str):
    try:
        return build()
    except ValueError as exc:
        raise ConfigError(f"{field_hint}: {exc}") from exc


def _knowledge_from(cfg: Config) -> KnowledgeModel:
    return _wrap_value_error(
        lambda: KnowledgeModel(cfg.get("knowledge", "tpr", 1.0),
                               cfg.get("knowledge", "tnr", 1.0)),
        "knowledge")


def _grid_from(cfg: Config, model_key: str, sweep_key: str) -> tuple[float, ...]:
    # grids live in [sweep]; a scalar in [model] doubles as a 1-point grid
    grid = cfg.get("sweep", sweep_key, None)
    if grid is not None:
        return grid
    scalar = cfg.get("model", model_key, None)
    if scalar is not None:
        return (scalar,)
    raise ConfigError(f"missing required config key 'model.{model_key}' (or 'sweep.{sweep_key}')")


def _scalar_from(cfg: Config, model_key: str, sweep_key: str) -> float:
    grid = _grid_from(cfg, model_key, sweep_key)
    if len(grid) != 1:
        raise ConfigError(f"'sweep.{sweep_key}' must be a single value here, got {len(grid)}")
    return grid[0]


def _model_from(cfg: Config) -> IntervalModel:
    intensity = _scalar_from(cfg, "intensity", "intensities")
    anomaly_rate = _scalar_from(cfg, "anomaly_rate", "anomaly_rates")
    return _wrap_value_error(
        lambda: IntervalModel(cfg.get("model", "slots", 10),
                              cfg.get("model", "base_rate", 1.0),
                              intensity, anomaly_rate),
        "model")


def _sweep_spec_from(cfg: Config, seed: int) -> SweepSpec:
    rates = _grid_from(cfg, "anomaly_rate", "anomaly_rates")
    intensities = _grid_from(cfg, "intensity", "intensities")
    # SweepSpec checks every cell, so an impossible one fails before any simulation
    return _wrap_value_error(
        lambda: SweepSpec(
            anomaly_rates=rates,
            intensities=intensities,
            slots=cfg.get("model", "slots", 10),
            base_rate=cfg.get("model", "base_rate", 1.0),
            knowledge=_knowledge_from(cfg),
            budget=cfg.get("solver", "budget", 1.0),
            detector_mode=cfg.get("sweep", "detector", "idealized"),
            alpha=cfg.get("sweep", "alpha", 0.05),
            n_intervals=cfg.get("sweep", "n_intervals", 100_000),
            seed=seed,
            cost_denominator=cfg.get("solver", "cost_denominator", "base-plus-anomaly")),
        "sweep")


def cmd_solve(args, cfg: Config, seed: int) -> int:
    # json-only command: a config run.format is a generic preference and is
    # ignored here, but an explicit contradictory flag is an error
    if args.format not in (None, "json"):
        raise ConfigError("solve emits json only")
    model = _model_from(cfg)
    knowledge = _knowledge_from(cfg)
    denom = cfg.get("solver", "cost_denominator", "base-plus-anomaly")
    cm = _wrap_value_error(lambda: costs(model, denom), "solver.cost_denominator")
    budget = cfg.get("solver", "budget", 1.0)
    strat = _wrap_value_error(lambda: solve_strategy(model, knowledge, budget, cm),
                              "solver.budget")
    doc = strategy_json(strat, model, knowledge)
    doc["meta"] = _meta(cfg, seed)
    with _open_out(args, cfg) as out:
        out.write(json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_sweep(args, cfg: Config, seed: int) -> int:
    # simulate is a sweep of one cell that may also dump its run
    single_cell = args.command == "simulate"
    fmt = _resolve_format(args, cfg, "csv")
    spec = _sweep_spec_from(cfg, seed)
    if single_cell and (len(spec.anomaly_rates) != 1 or len(spec.intensities) != 1):
        raise ConfigError("simulate needs a single-cell grid (one anomaly rate, one intensity)")
    dump = cfg.get("simulate", "dump_run", None)
    with _open_out(args, cfg) as out:
        records = run_sweep(spec)
        if fmt == "csv":
            sweep_to_csv(records, out, comment=_provenance(cfg, seed))
        else:
            _emit_json(cfg, seed, "rows", _json_rows(records), out)
    failed = [r for r in records if r.error]
    for r in failed:
        print(f"lpwanleak: error R_p={r.r_p!r} I={r.intensity!r}: {r.error}", file=sys.stderr)
    if single_cell and not failed and dump is not None:
        _dump_single_run(spec, dump, _provenance(cfg, seed))
    return 3 if failed else 0


def _dump_single_run(spec: SweepSpec, path: str, provenance: str) -> None:
    # the run that run_sweep scores for its cell (0, 0), seed (spec.seed, 0, 0)
    model = IntervalModel(spec.slots, spec.base_rate, spec.intensities[0],
                          spec.anomaly_rates[0])
    _, _, obf = simulate_run(model, spec.knowledge, spec.budget, spec.n_intervals,
                             (spec.seed, 0, 0), cost_denominator=spec.cost_denominator)
    run_to_csv(obf, path, comment=provenance)


def cmd_analyze(args, cfg: Config, seed: int) -> int:
    fmt = _resolve_format(args, cfg, "csv")
    path = args.input if args.input else cfg.get("analyze", "input")
    device = cfg.get("analyze", "device", None)
    slot_width = cfg.get("analyze", "slot_width", 1.0)
    if not 0 < slot_width < math.inf:
        raise ConfigError(f"config key 'analyze.slot_width' must be > 0 and finite, "
                          f"got {slot_width!r}")
    slots = cfg.get("analyze", "slots", 10)
    alpha = cfg.get("analyze", "alpha", 0.05)
    with _open_out(args, cfg) as out:
        timestamps = read_trace_csv(path, device)
        # after the read: loading scipy.special first adds about 20 MB to the reader's peak RSS
        thr = _wrap_value_error(lambda: chi_square_threshold(slots, alpha), "analyze")
        try:
            counts = bin_timestamps(timestamps, slot_width, slots)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from exc
        _, _, d = run_dispersion(counts)
        flagged = (slots - 1) * d > thr  # an empty interval (D = nan) is never flagged
        rows = zip(range(len(d)), d.tolist(), flagged.tolist(), repeat(thr))
        if fmt == "csv":
            write_csv(out, _provenance(cfg, seed), ",".join(_ANALYZE_NAMES),
                      (f"{i},{di!r},{int(fi)},{t!r}" for i, di, fi, t in rows))
        else:
            _emit_json(cfg, seed, "rows", [dict(zip(_ANALYZE_NAMES, row)) for row in rows], out)
    return 0


def cmd_posterior(args, cfg: Config, seed: int) -> int:
    fmt = _resolve_format(args, cfg, "json")
    path = args.input if args.input else cfg.get("posterior", "fixture")
    observed = cfg.get("posterior", "observed", None)
    if observed is not None and len(set(observed)) < len(observed):
        raise ConfigError(f"config key 'posterior.observed' repeats a timestamp, got {observed}")
    try:
        fixture = load_fixture(path)
    except OSError as exc:
        raise DataError(f"cannot read fixture {path}: {exc.strerror}") from exc
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        # a document of the wrong shape: a missing key, a short list, a
        # number where a list belongs, a top-level array
        raise DataError(f"bad fixture {path}: {exc}") from exc
    if observed is not None:
        targets = [observed]
    else:
        targets = sorted(enumerate_observables(fixture.prior, fixture.mechanism))
    tables = []
    for obs in targets:
        try:
            table = posterior_table(fixture.prior, fixture.mechanism, obs)
        except InconsistentObservationError as exc:
            raise DataError(f"{path}: {exc}") from exc
        tables.append((obs, table))
    with _open_out(args, cfg) as out:
        if fmt == "json":
            _emit_json(cfg, seed, "tables",
                       [{"observed": list(obs),
                         "posterior": [{"trace": list(r), "p": p}
                                       for r, p in sorted(table.items())]}
                        for obs, table in tables], out)
        else:
            write_csv(out, _provenance(cfg, seed), "observed,candidate,posterior",
                      (f"{';'.join(map(repr, obs))},{';'.join(map(repr, r))},{p!r}"
                       for obs, table in tables for r, p in sorted(table.items())))
    return 0


def cmd_costs(args, cfg: Config, seed: int) -> int:
    fmt = _resolve_format(args, cfg, "csv")
    shifts = cfg.get("costs", "shifts")
    base_rates = cfg.get("costs", "base_rates", (1.0,))
    intensities = cfg.get("costs", "intensities", (10.0,))
    slots = cfg.get("costs", "slots", 10)
    denom = cfg.get("costs", "denominator", "base-plus-anomaly")
    models = [_wrap_value_error(lambda: IntervalModel(slots, lam, inten, 0.0),
                                f"costs model (lambda={lam}, I={inten})")
              for lam, inten in product(base_rates, intensities)]
    points = _wrap_value_error(lambda: cost_curves(models, shifts, denom), "costs")
    with _open_out(args, cfg) as out:
        if fmt == "csv":
            cost_curves_to_csv(points, out, comment=_provenance(cfg, seed))
        else:
            _emit_json(cfg, seed, "rows", _json_rows(points), out)
    return 0


_COMMANDS = {
    "solve": (cmd_solve, "solve an obfuscation strategy and print it as JSON"),
    "sweep": (cmd_sweep, "run a (anomaly rate x intensity) metric sweep to CSV/JSON"),
    "simulate": (cmd_sweep, "run a single cell (plus optional run dump)"),
    "analyze": (cmd_analyze, "per-interval dispersion verdicts for an external trace CSV"),
    "posterior": (cmd_posterior, "posterior tables for a prior/mechanism fixture"),
    "costs": (cmd_costs, "analytic obfuscation cost curves over a shift grid"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpwanleak",
        description="Traffic-analysis leakage metrics and dummy-traffic obfuscation simulator.")
    parser.add_argument("--version", action="version", version=f"lpwanleak {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name in ("analyze", "posterior"):
            p.add_argument("input", nargs="?", default=None,
                           help="input file (trace CSV / fixture JSON); may also come from config")
        p.add_argument("--config", default=None, help="config file path")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (unsigned 64-bit)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default=None, choices=_FORMATS)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.fn(args, cfg, _resolve_seed(args, cfg))
    except ConfigError as exc:
        print(f"lpwanleak: config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"lpwanleak: data error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        return 0
    except Exception as exc:  # anything else is a bug, not user error
        print(f"lpwanleak: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
