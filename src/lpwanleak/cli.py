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
import stat
import sys
from dataclasses import astuple
from itertools import product, repeat

import numpy as np

from . import __version__
from .attacker import bin_timestamps, chi_square_threshold, run_dispersion
from .experiment import (SweepSpec, cost_curves, cost_curves_to_csv, run_sweep,
                         simulate_run, sweep_to_csv)
from .obfuscator import KnowledgeModel, solve_strategy, strategy_json
from .traces import InconsistentObservationError, enumerate_observables, load_fixture, posterior_table
from .traffic import IntervalModel, run_to_csv, write_csv

__all__ = [
    "ConfigError",
    "DataError",
    "Config",
    "parse_config",
    "load_config",
    "read_trace_csv",
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
_READ_BLOCK = 1 << 18
# every ASCII character that ends a line, that str.strip removes or that starts a
# comment is below "$" ("\r" never reaches the reader: reading text turns "\r" and
# "\r\n" into "\n")
_PLAIN_FROM = ord("$")
# the bytes of the longest head the reader decodes itself: 18 digits and a point
_HEAD = 19


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


@contextlib.contextmanager
def _read_text(path, kind: str, error: type[Exception]):
    """Open ``path`` as UTF-8 text, whatever the locale, skipping a leading byte order
    mark; a file that cannot be read, or is not UTF-8, raises ``error`` (ConfigError
    or DataError) naming it as ``kind``."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except OSError as exc:
        raise error(f"cannot read {kind} {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"cannot read {kind} {path}: not UTF-8 text ({exc.reason})") from exc


def load_config(path: str | None) -> Config:
    if path is None:
        return Config({})
    with _read_text(path, "config", ConfigError) as fh:
        return Config(parse_config(fh.read()))


def _text_blocks(path):
    """Yield a UTF-8 text file in blocks of about _READ_BLOCK characters.

    Each block is cut after its last newline, so no line spans two blocks
    and the blocks' lines are the lines ``str.splitlines`` finds in the
    whole text.
    """
    with _read_text(path, "trace", DataError) as fh:
        tail = ""
        while block := fh.read(_READ_BLOCK):
            cut = block.rfind("\n") + 1
            if cut:
                yield tail + block[:cut]
                tail = block[cut:]
            else:
                tail += block
        if tail:
            yield tail


def _timestamp(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _decoded(window: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The doubles of heads of at most 18 ASCII digits, at most one point and an
    integer part in [1, 2**53), each the one ``float`` reads; nan for any other head.
    A head is the last ``width`` bytes of its row of ``window`` (``_HEAD`` bytes each)."""
    digit = window - 48  # a byte that is not a digit wraps past 9
    is_digit = digit < 10
    digit *= is_digit
    w = np.minimum(width, _HEAD)
    # a bit per byte that is not a digit and per point, the lowest for the last byte
    # (exact float32 sums); the head's are the lowest w
    bits = 2.0 ** np.arange(_HEAD - 1, -1, -1, dtype=np.float32)
    other = (~is_digit @ bits).astype(np.int64) & (1 << w) - 1
    point = ((window == 46) @ bits).astype(np.int64) & (1 << w) - 1
    e = np.frexp(point)[1]  # with a point, k + 1 for the k digits after it; else 0
    # the window's digits as one integer, from four exact float32 sums of 5 or fewer;
    # its lowest w, the head's, are q * 10**e + f (the point's digit is 0)
    p10 = np.uint64(10) ** np.arange(_HEAD + 1, dtype=np.uint64)
    place = np.arange(_HEAD - 1, -1, -1)
    places = np.zeros((_HEAD, 4), np.float32)
    places[np.arange(_HEAD), place // 5] = 10.0 ** (place % 5)
    v, f = np.divmod((digit @ places).astype(np.uint64) @ p10[::5], p10[e])
    q = (v % p10[w - e]).astype(np.int64)
    fast = ((other == point) & (point & (point - 1) == 0) & (width <= _HEAD)
            & (q >= 1) & (q < 1 << 53))
    q = np.where(fast, q, 1)  # any other row computes on a harmless stand-in
    f, den = f.astype(np.int64), p10[e - (point > 0)].astype(np.int64)
    # q + f / den lies in [2**e, 2**(e + 1)) for e = floor(log2 q), so its double is
    # m * 2**-s for s = 52 - e and m = q * 2**s + f * 2**s / den, rounded half to even
    s = 53 - np.frexp(q)[1]
    # f * 2**s / den by long division, t bits a step: r < den < 2**bits keeps r << t
    # below 2**63 for t <= 63 - bits
    step = 63 - np.frexp(den)[1]
    m, r, left = q << s, f, s.copy()
    while left.any():
        t = np.minimum(step, left)
        left -= t
        d, r = np.divmod(r << t, den)
        m += d << left
    m += 2 * r + (m & 1) > den
    return np.where(fast, np.ldexp(m.astype(float), -s), math.nan)


def _rows(raw: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bytes of ``raw``, rows each ended by a newline, and the positions of the
    comma and the newline of each row before the first one without exactly one comma."""
    buf = np.frombuffer(raw, np.uint8)
    # the commas and newlines in order (UTF-8 never encodes another character
    # with either byte): row r holds one comma while seps[2r] is a comma and
    # seps[2r + 1] a newline
    seps = np.flatnonzero((buf == 44) | (buf == 10))
    ok = (buf[seps[0:-1:2]] == 44) & (buf[seps[1::2]] == 10)
    paired = ok.size if ok.all() else int(ok.argmin())
    return buf, seps[0:2 * paired:2], seps[1:2 * paired:2]


def _parse_rows(path, rows: tuple[np.ndarray, ...], lines: np.ndarray) -> np.ndarray:
    """The timestamps of the rows ``_rows`` split, whose line numbers ``lines`` holds.
    The first row that does not hold exactly one comma, or whose timestamp is not a
    finite number, raises DataError naming its line."""
    buf, commas, ends = rows
    starts = np.concatenate(([0], ends + 1))
    # the _HEAD bytes before each comma, over the bytes with _HEAD newlines in front
    window = np.ndarray((buf.size + 1, _HEAD), np.uint8, strides=(1, 1), buffer=np.concatenate(
        (np.full(_HEAD, 10, np.uint8), buf)))[commas]
    ts = _decoded(window, commas - starts[:-1])
    slow = np.flatnonzero(np.isnan(ts))  # a head that is not a number reads as nan
    ts[slow] = [_timestamp(buf[a:b].tobytes().decode())
                for a, b in zip(starts[slow].tolist(), commas[slow].tolist())]
    finite = np.isfinite(ts)
    k = commas.size if finite.all() else int(finite.argmin())  # the first bad row, if any
    if k < len(lines):
        row = buf[starts[k]:].tobytes().split(b"\n", 1)[0]
        rule = (f"bad timestamp {row.split(b',', 1)[0].decode()!r}" if k < commas.size else
                f"expected 2 fields, got {row.count(b',') + 1}")
        raise DataError(f"{path} line {lines[k]}: {rule}")
    return ts


def _normalized(block: str) -> tuple[list[str], list[int], int]:
    """The rows of a block of lines: its lines stripped, blank and `#` lines
    dropped. Returns them, their indices among the lines, and the line count."""
    stripped = list(map(str.strip, block.splitlines()))
    keep = [i for i, s in enumerate(stripped) if s and s[0] != "#"]
    return [stripped[i] for i in keep], keep, len(stripped)


def read_trace_csv(path, device: str | None = None) -> np.ndarray:
    """Read a `timestamp_s,device_id` CSV and return one device's timestamps.

    Blank lines and `#` comment lines are skipped anywhere. Malformed rows,
    non-finite timestamps and out-of-order timestamps of the selected
    device are reported with their line number; when several lines are
    bad, the first one is, and a row that cannot be read comes before any
    out-of-order timestamp. The timestamps come back non-decreasing.
    """
    wanted = device  # with no device named, the first one read; another is an error below
    others: set[str] = set()  # with no device named, every device named but that one
    picked = []  # per block, the selected device's timestamps
    out_of_order = None  # the line and timestamp of the first one
    last = -math.inf
    header_seen = False
    lineno = 0
    for block in _text_blocks(path):
        first = lineno + 1
        # a plain block is its rows as they stand: one comma each, ASCII, no character
        # below "$" but "\n" (nothing to strip or skip); any other is normalized first
        rows = _rows((block if block[-1] == "\n" else block + "\n").encode())
        n = rows[2].size
        plain = (header_seen and block.isascii() and n and rows[2][-1] == rows[0].size - 1
                 and np.count_nonzero(rows[0] < _PLAIN_FROM) == n)
        if plain:
            lines = np.arange(first, first + n)
        else:
            texts, keep, n = _normalized(block)
            if texts and not header_seen:
                if texts[0] != _TRACE_CSV_HEADER:
                    raise DataError(f"{path} line {first + keep[0]}: "
                                    f"expected header {_TRACE_CSV_HEADER}")
                header_seen = True
                del texts[0], keep[0]
            # each device field stripped too, as its line is
            rows = _rows("".join(f"{head}{comma}{dev.strip()}\n" for head, comma, dev in
                                 (text.partition(",") for text in texts)).encode())
            lines = np.array(keep, np.int64) + first
        lineno += n
        if not lines.size:
            continue
        ts = _parse_rows(path, rows, lines)
        buf, commas, ends = rows
        if wanted is None:
            wanted = buf[commas[0] + 1:ends[0]].tobytes().decode()
        # the rows whose device field matches wanted's length, then its bytes
        name = wanted.encode()
        mask = ends - commas - 1 == len(name)
        if name and mask.any():  # then buf holds at least len(name) bytes
            fields = np.ndarray(buf.size - len(name) + 1, f"V{len(name)}", buf, strides=(1,))
            mask[mask] = fields[commas[mask] + 1] == np.void(name)
        if device is None and not mask.all():
            others.update(buf[a + 1:b].tobytes().decode()
                          for a, b in zip(commas[~mask].tolist(), ends[~mask].tolist()))
        ts = ts[mask]
        if ts.size and out_of_order is None:
            back = np.flatnonzero(ts < np.concatenate(([last], ts[:-1])))
            if back.size:
                out_of_order = (lines[mask][back[0]], float(ts[back[0]]))
            last = ts[-1]
        picked.append(ts)
    if not header_seen:
        raise DataError(f"{path}: empty trace file")
    if others:
        raise DataError(f"{path}: multiple devices {sorted({wanted, *others})}; "
                        "set analyze.device")
    if wanted is None:
        raise DataError(f"{path}: no data rows")
    if not any(ts.size for ts in picked):
        raise DataError(f"{path}: no messages for device {device!r}")
    if out_of_order is not None:
        raise DataError(f"{path} line {out_of_order[0]}: out-of-order timestamp {out_of_order[1]}")
    return np.concatenate(picked)


def _resolve_seed(args, cfg: Config) -> int:
    seed = args.seed if args.seed is not None else cfg.get("run", "seed", None)
    if seed is None:
        seed = int.from_bytes(os.urandom(8), "big")
        print(f"lpwanleak: no seed given; using {seed}", file=sys.stderr)
    elif not 0 <= seed < 2**64:
        source = "--seed" if args.seed is not None else "config key 'run.seed'"
        raise ConfigError(f"{source} must be an unsigned 64-bit integer, got {seed}")
    return seed


@contextlib.contextmanager
def _open_outs(args, outputs=(), reads=()):
    """Refuse what _check_outputs refuses, then open the paths of ``outputs`` and --out or
    run.out, None as stdout. Commands open them before any work, so a bad path fails first.
    No file is truncated until all are open, so one that cannot be opened spares the
    others' bytes and removes those this call created (and a run that fails later leaves
    them empty, as a shell redirect does)."""
    _check_outputs(args, outputs, reads)
    paths = [*(path for _, path in outputs), args.out]
    created = [p for p in paths if p is not None and not os.path.lexists(p)]
    with contextlib.ExitStack() as stack:
        try:
            files = [sys.stdout if p is None else stack.enter_context(
                         open(os.open(p, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8"))
                     for p in paths]
        except OSError as exc:
            for p in created:  # the failed open and those after it created nothing
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(p)
            raise ConfigError(f"cannot open output {exc.filename}: {exc.strerror}") from exc
        for fh in files:  # as O_TRUNC would: regular files only
            if fh is not sys.stdout and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
        yield files


def _same_file(a, b) -> bool:
    """Whether paths ``a`` and ``b`` name one file, existing or yet to be created."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # a path that names no file
        return os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(args, outputs=(), reads=()) -> None:
    """Refuse an output (--out or run.out, and ``outputs``) that names the config, a file
    the command reads (``reads``) or another output (both (kind, path) pairs): opening it
    would truncate that file."""
    outs = [("output", args.out), *outputs]
    for i, (_, out) in enumerate(outs):
        for kind, path in (("config", args.config), *reads, *outs[i + 1:]):
            if out is not None and path is not None and _same_file(out, path):
                raise ConfigError(f"output {out} is the {kind} {path}")


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


def _check_normalizer(cfg: Config, section: str, key: str) -> None:
    """A config may name the one cost normalizer there is, base-plus-anomaly."""
    value = cfg.get(section, key, "base-plus-anomaly")
    if value != "base-plus-anomaly":
        raise ConfigError(f"config key '{section}.{key}' must be 'base-plus-anomaly', "
                          f"got {value!r}")


def _sweep_spec_from(cfg: Config, seed: int) -> SweepSpec:
    rates = _grid_from(cfg, "anomaly_rate", "anomaly_rates")
    intensities = _grid_from(cfg, "intensity", "intensities")
    _check_normalizer(cfg, "solver", "cost_denominator")
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
            seed=seed),
        "sweep")


def cmd_solve(args, cfg: Config, seed: int) -> int:
    # json-only command: a config run.format is a generic preference and is
    # ignored here, but an explicit contradictory flag is an error
    if args.format not in (None, "json"):
        raise ConfigError("solve emits json only")
    model = _model_from(cfg)
    knowledge = _knowledge_from(cfg)
    _check_normalizer(cfg, "solver", "cost_denominator")
    budget = cfg.get("solver", "budget", 1.0)
    strat = _wrap_value_error(lambda: solve_strategy(model, knowledge, budget), "solver.budget")
    doc = strategy_json(strat, model, knowledge)
    doc["meta"] = _meta(cfg, seed)
    with _open_outs(args) as [out]:
        out.write(json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_sweep(args, cfg: Config, seed: int) -> int:
    # simulate is a sweep of one cell that may also dump its run
    single_cell = args.command == "simulate"
    fmt = _resolve_format(args, cfg, "csv")
    spec = _sweep_spec_from(cfg, seed)
    if single_cell and (len(spec.anomaly_rates) != 1 or len(spec.intensities) != 1):
        raise ConfigError("simulate needs a single-cell grid (one anomaly rate, one intensity)")
    dump = cfg.get("simulate", "dump_run", None) if single_cell else None
    with _open_outs(args, [("simulate.dump_run", dump)]) as [dump_fh, out]:
        records = run_sweep(spec)
        if fmt == "csv":
            sweep_to_csv(records, out, comment=_provenance(cfg, seed))
        else:
            _emit_json(cfg, seed, "rows", _json_rows(records), out)
        failed = [r for r in records if r.error]
        if dump is not None and not failed:
            # the run that run_sweep scored for its cell (0, 0), seed (spec.seed, 0, 0)
            model = IntervalModel(spec.slots, spec.base_rate, spec.intensities[0],
                                  spec.anomaly_rates[0])
            _, _, obf = simulate_run(model, spec.knowledge, spec.budget, spec.n_intervals,
                                     (spec.seed, 0, 0))
            run_to_csv(obf, dump_fh, comment=_provenance(cfg, seed))
    for r in failed:
        print(f"lpwanleak: error R_p={r.r_p!r} I={r.intensity!r}: {r.error}", file=sys.stderr)
    return 3 if failed else 0


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
    thr = _wrap_value_error(lambda: chi_square_threshold(slots, alpha), "analyze")
    with _open_outs(args, reads=[("input trace", path)]) as [out]:
        timestamps = read_trace_csv(path, device)
        try:
            counts = bin_timestamps(timestamps, slot_width, slots)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from exc
        _, _, d = run_dispersion(counts)
        flagged = (slots - 1) * d > thr  # an empty interval (D = nan) is never flagged
        rows = zip(range(len(d)), d.tolist(), flagged.tolist(), repeat(thr))
        if fmt == "csv":
            # all rows as one string, formatted once; binning yields at least
            # one interval, so it is never empty
            end = f",{thr!r}"  # the one threshold of every row, formatted once
            write_csv(out, _provenance(cfg, seed), ",".join(_ANALYZE_NAMES),
                      ["\n".join(f"{i},{di!r},{int(fi)}{end}" for i, di, fi, _ in rows)])
        else:
            # json.dumps(indent=2)'s bytes, which it writes with its pure-Python encoder:
            # JSON's float spellings, the rows formatted as the CSV's are
            row = "    {{\n" + ",\n".join(f'      "{name}": {{}}' for name in _ANALYZE_NAMES)
            spell = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
            end = spell.get(repr(thr), repr(thr))
            doc = json.dumps({"meta": _meta(cfg, seed), "rows": []}, indent=2)
            out.write(doc.removesuffix("[]\n}") + "[\n" + "\n    },\n".join(
                row.format(i, spell.get(r := repr(di), r), ("false", "true")[fi], end)
                for i, di, fi, _ in rows) + "\n    }\n  ]\n}\n")
    return 0


def cmd_posterior(args, cfg: Config, seed: int) -> int:
    fmt = _resolve_format(args, cfg, "json")
    path = args.input if args.input else cfg.get("posterior", "fixture")
    observed = cfg.get("posterior", "observed", None)
    if observed is not None and len(set(observed)) < len(observed):
        raise ConfigError(f"config key 'posterior.observed' repeats a timestamp, got {observed}")
    _check_outputs(args, reads=[("fixture", path)])
    try:
        with _read_text(path, "fixture", DataError) as fh:
            fixture = load_fixture(fh)
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        # a document of the wrong shape: a missing key, a short list, a
        # number where a list belongs, a top-level array
        raise DataError(f"bad fixture {path}: {exc}") from exc
    targets = ([observed] if observed is not None else
               sorted(enumerate_observables(fixture.prior, fixture.mechanism)))
    tables = []
    for obs in targets:
        try:
            table = posterior_table(fixture.prior, fixture.mechanism, obs)
        except InconsistentObservationError as exc:
            raise DataError(f"{path}: {exc}") from exc
        tables.append((obs, table))
    with _open_outs(args) as [out]:
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
    _check_normalizer(cfg, "costs", "denominator")
    models = [_wrap_value_error(lambda: IntervalModel(slots, lam, inten, 0.0),
                                f"costs model (lambda={lam}, I={inten})")
              for lam, inten in product(base_rates, intensities)]
    points = _wrap_value_error(lambda: cost_curves(models, shifts), "costs")
    with _open_outs(args) as [out]:
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
        if args.out is None:  # a flag overrides its config key
            args.out = cfg.get("run", "out", None)
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
