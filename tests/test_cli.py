"""Config parsing and CLI subcommand tests (driven through main())."""

import json
import math
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpwanleak import cli

from lpwanleak import (
    SWEEP_CSV_HEADER,
    COST_CSV_HEADER,
    DetectorConfig,
    IntervalModel,
    bin_timestamps,
    chi_square_threshold,
    cost_curves,
    gen_run,
    guess_run,
    guessing_error,
    run_dispersion,
    run_from_csv,
    test_run as classify_run,
    to_timestamps,
)
from lpwanleak.cli import (
    Config,
    ConfigError,
    DataError,
    main,
    parse_config,
    read_trace_csv,
    write_trace_csv,
)

from conftest import ROOT

GOOD_CONFIG = """\
# comment line
[model]
slots = 10
base_rate = 1.5

[sweep]
anomaly_rates = 0.1,0.2,0.3
intensities = 10:40:10
detector = "idealized"

[run]
seed = 7
run.format = csv
"""


def test_parse_config_values():
    sections = parse_config(GOOD_CONFIG)
    assert sections["model"]["slots"] == 10
    assert sections["model"]["base_rate"] == 1.5
    assert sections["sweep"]["anomaly_rates"] == (0.1, 0.2, 0.3)
    assert sections["sweep"]["intensities"] == (10.0, 20.0, 30.0, 40.0)
    assert sections["sweep"]["detector"] == "idealized"
    assert sections["run"]["seed"] == 7
    assert sections["run"]["format"] == "csv"


def test_parse_config_dotted_keys_outside_section():
    sections = parse_config("model.slots = 12\n")
    assert sections["model"]["slots"] == 12


@pytest.mark.parametrize("text,fragment", [
    ("[magic]\n", "unknown section"),
    ("[model]\nflux = 1\n", "unknown config key"),
    ("[model]\nslots = 10\nslots = 12\n", "duplicate"),
    ("slots = 10\n", "outside any section"),
    ("[model]\nslots =\n", "empty value"),
    ("[sweep]\nanomaly_rates = 0.1:0.95:0.2\n", "off the step grid"),
    ("[sweep]\nintensities = 1:2:0\n", "step must be positive"),
    ("[sweep]\nintensities = 1:nan:1\n", "must be finite"),
    ("[sweep]\nintensities = nan:1:1\n", "must be finite"),
    ("[sweep]\nintensities = 0:1:nan\n", "must be finite"),
    ("[sweep]\nintensities = 0:inf:1\n", "must be finite"),
    ("[sweep]\nintensities = 0:1:inf\n", "must be finite"),
    ("[sweep]\nintensities = -inf:1:1\n", "must be finite"),
    ("[model]\nslots\n", "expected key = value"),
])
def test_parse_config_errors(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)
    assert "line" in str(err.value)


def test_config_typed_getters():
    cfg = Config(parse_config(GOOD_CONFIG))
    assert cfg.get_int("model", "slots") == 10
    assert cfg.get_float("model", "base_rate") == 1.5
    assert cfg.get_floats("model", "base_rate") == (1.5,)
    assert cfg.get_floats("sweep", "anomaly_rates") == (0.1, 0.2, 0.3)
    assert cfg.get_str("sweep", "detector") == "idealized"
    assert cfg.get("model", "intensity", None) is None
    with pytest.raises(ConfigError):
        cfg.get("model", "intensity")
    with pytest.raises(ConfigError):
        cfg.get_int("model", "base_rate")
    with pytest.raises(ConfigError):
        cfg.get_float("sweep", "detector")
    with pytest.raises(ConfigError):
        cfg.get_str("model", "slots")


def test_config_hash_is_stable_and_sensitive():
    a = Config(parse_config(GOOD_CONFIG))
    b = Config(parse_config(GOOD_CONFIG))
    c = Config(parse_config(GOOD_CONFIG.replace("seed = 7", "seed = 8")))
    assert a.hash() == b.hash()
    assert a.hash() != c.hash()
    assert len(a.hash()) == 12
    int(a.hash(), 16)


def test_trace_csv_roundtrip(tmp_path):
    path = tmp_path / "trace.csv"
    ts = [1.5, 2.25, 7.125]
    write_trace_csv(path, ts, device="sensor-1", comment="prov")
    assert np.array_equal(read_trace_csv(path), np.array(ts))
    assert np.array_equal(read_trace_csv(path, device="sensor-1"), np.array(ts))
    with pytest.raises(DataError):
        read_trace_csv(path, device="other")


def test_trace_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,dev\n1.0,a\n")
    with pytest.raises(DataError):
        read_trace_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        read_trace_csv(empty)
    multi = tmp_path / "multi.csv"
    multi.write_text("timestamp_s,device_id\n1.0,a\n2.0,b\n")
    with pytest.raises(DataError) as err:
        read_trace_csv(multi)
    assert "multiple devices" in str(err.value)
    disorder = tmp_path / "disorder.csv"
    disorder.write_text("timestamp_s,device_id\n2.0,a\n1.0,a\n")
    with pytest.raises(DataError) as err:
        read_trace_csv(disorder)
    assert "line 3" in str(err.value)
    nonnum = tmp_path / "nonnum.csv"
    nonnum.write_text("timestamp_s,device_id\nzap,a\n")
    with pytest.raises(DataError):
        read_trace_csv(nonnum)
    wide = tmp_path / "wide.csv"
    wide.write_text("timestamp_s,device_id\n1.0,a,extra\n")
    with pytest.raises(DataError):
        read_trace_csv(wide)
    with pytest.raises(DataError):
        read_trace_csv(tmp_path / "missing.csv")


@pytest.mark.parametrize("spelling", ["nan", "inf", "1e400"])
def test_trace_csv_rejects_non_finite_timestamps(tmp_path, spelling, capsys):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"timestamp_s,device_id\n1.0,a\n{spelling},a\n3.0,a\n")
    with pytest.raises(DataError) as err:
        read_trace_csv(path)
    assert str(err.value) == f"{path} line 3: bad timestamp {spelling!r}"
    assert main(["analyze", str(path), "--seed", "0"]) == 3
    assert "bad timestamp" in capsys.readouterr().err


def test_trace_csv_not_utf8_is_data_error(tmp_path, capsys):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"timestamp_s,device_id\n1.0,a\n\xff\xfe\n")
    with pytest.raises(DataError) as err:
        read_trace_csv(path)
    assert str(path) in str(err.value) and "UTF-8" in str(err.value)
    assert main(["analyze", str(path), "--seed", "0"]) == 3
    assert str(path) in capsys.readouterr().err


def reference_read_trace_csv(path, device=None):
    """The reader as one loop over the lines: the rules read_trace_csv keeps."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = []
    header_seen = False
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != "timestamp_s,device_id":
                raise DataError(f"{path} line {lineno}: expected header timestamp_s,device_id")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"{path} line {lineno}: expected 2 fields, got {len(parts)}")
        try:
            ts = float(parts[0])
        except ValueError:
            ts = math.nan
        if not math.isfinite(ts):
            raise DataError(f"{path} line {lineno}: bad timestamp {parts[0]!r}")
        rows.append((lineno, ts, parts[1].strip()))
    if not header_seen:
        raise DataError(f"{path}: empty trace file")
    devices = sorted({dev for _, _, dev in rows})
    if device is None:
        if len(devices) > 1:
            raise DataError(f"{path}: multiple devices {devices}; set analyze.device")
        device = devices[0] if devices else ""
    picked = [(lineno, ts) for lineno, ts, dev in rows if dev == device]
    if not picked:
        raise DataError(f"{path}: no messages for device {device!r}")
    prev = None
    for lineno, ts in picked:
        if prev is not None and ts < prev:
            raise DataError(f"{path} line {lineno}: out-of-order timestamp {ts}")
        prev = ts
    return np.array([ts for _, ts in picked])


_BAD_TIMESTAMPS = ["zap", "", "nan", "-inf", "Infinity", "1e400", "1.0.0"]
_DEVICES = ["a", " a ", "b", "dev-7", "gw-\u00e9", ""]


@st.composite
def trace_texts(draw):
    """A trace CSV text mixing good rows with every kind of line the reader skips or rejects."""
    body = []
    t = draw(st.floats(-1e3, 1e9))
    for kind in draw(st.lists(st.sampled_from(
            ["row"] * 8 + ["back", "comment", "blank", "bad_ts", "one", "three"]), max_size=30)):
        dev = draw(st.sampled_from(_DEVICES))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        if kind in ("row", "back"):
            t += draw(st.floats(0.0, 50.0)) * (-1 if kind == "back" else 1)
            body.append(f"{pad}{t!r}{pad},{dev}")
        elif kind == "comment":
            body.append(f"{pad}# note, with, commas")
        elif kind == "blank":
            body.append(pad)
        elif kind == "bad_ts":
            body.append(f"{pad}{draw(st.sampled_from(_BAD_TIMESTAMPS))},{dev}")
        elif kind == "one":
            body.append(f"{t!r}")
        else:
            # a numeric middle field keeps a 1-field line plus a 3-field line
            # parseable if the fields are paired up across lines
            middle = draw(st.sampled_from([dev, repr(t)]))
            body.append(f"{t!r},{middle},{dev}")
    head = draw(st.sampled_from(["timestamp_s,device_id", " timestamp_s,device_id ",
                                 "time,dev", ""]))
    lines = draw(st.lists(st.sampled_from(["# provenance", "", "  "]), max_size=2))
    lines += [head] + body
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r", "\x0c"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-1] if draw(st.booleans()) and text else text


@settings(max_examples=300, deadline=None)
@given(text=trace_texts(), device=st.sampled_from([None, "a", "b", "missing"]),
       block=st.integers(1, 64))
@example(text="# c\ntimestamp_s,device_id\n1.0,a\nzap,a\n2.0,a,x\n", device=None, block=3)
@example(text="timestamp_s,device_id\r\n2.0,a\r\n1.0,b\r\n1.5,a\r\n", device="a", block=5)
@example(text="timestamp_s,device_id\n1.0\n2.0,3.0,a\n", device=None, block=64)
def test_read_trace_csv_matches_line_reference(text, device, block):
    # a block as short as one character makes lines, and \r\n pairs, cross
    # block boundaries
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/trace.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            want = reference_read_trace_csv(path, device)
        except DataError as exc:
            want = str(exc)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_READ_BLOCK", block)
            try:
                got = read_trace_csv(path, device)
            except DataError as exc:
                got = str(exc)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_command(tmp_path):
    cfg = _write(tmp_path, "solve.cfg", """\
[model]
slots = 10
base_rate = 1.0
intensity = 10
anomaly_rate = 0.5
""")
    out = tmp_path / "strategy.json"
    assert main(["solve", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"P_wf", "P_f", "epsilon", "cost", "feasible_optimal",
                        "degenerate", "model", "knowledge", "meta"}
    assert (doc["P_wf"], doc["P_f"]) == (0.0, 1.0)
    assert doc["feasible_optimal"] is True
    assert doc["meta"]["seed"] == 5
    assert doc["meta"]["tool"] == "lpwanleak"
    assert len(doc["meta"]["config_hash"]) == 12


def test_solve_format_handling(tmp_path):
    # a config-level format preference is ignored by the json-only command;
    # an explicit contradictory flag is an error
    cfg = _write(tmp_path, "solve.cfg", """\
[model]
intensity = 10
anomaly_rate = 0.5
[run]
seed = 2
format = csv
""")
    out = tmp_path / "s.json"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["meta"]["seed"] == 2
    assert main(["solve", "--config", cfg, "--format", "csv"]) == 2


def test_solve_rejects_multi_cell_grid(tmp_path):
    cfg = _write(tmp_path, "multi.cfg", """\
[model]
slots = 10
[sweep]
anomaly_rates = 0.1,0.2
intensities = 10
""")
    assert main(["solve", "--config", cfg, "--seed", "1"]) == 2


def test_sweep_command_csv(tmp_path):
    cfg = _write(tmp_path, "sweep.cfg", """\
[sweep]
anomaly_rates = 0.2,0.5
intensities = 10
n_intervals = 1000
""")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--seed", "9", "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--seed", "9", "--out", str(out2)]) == 0
    text = out1.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# lpwanleak ")
    assert "config_hash=" in lines[0] and "seed=9" in lines[0]
    assert lines[1] == SWEEP_CSV_HEADER
    assert len(lines) == 4
    assert out1.read_bytes() == out2.read_bytes()


def test_idealized_sweep_never_loads_scipy_stats(tmp_path):
    # scipy takes a large share of start-up and only the chi-square threshold
    # needs it; an idealized sweep process must load no scipy module at all
    cfg = _write(tmp_path, "one.cfg", """\
[sweep]
anomaly_rates = 0.2
intensities = 40
n_intervals = 1000
""")
    argv = ["sweep", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "one.csv")]
    code = ("import sys\n"
            "def scipy_modules():\n"
            "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "import lpwanleak.cli\n"
            "assert not scipy_modules(), f'loaded by import: {scipy_modules()}'\n"
            f"assert lpwanleak.cli.main({argv!r}) == 0\n"
            "assert not scipy_modules(), f'loaded by the sweep: {scipy_modules()}'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "one.csv").read_text().splitlines()) == 3


def test_analyze_never_loads_scipy_stats(tmp_path):
    # the threshold comes from scipy.special; analyze must not pay for
    # importing scipy.stats
    run = gen_run(IntervalModel(10, 1.0, 40.0, 0.3), 5, 4)
    trace = tmp_path / "trace.csv"
    write_trace_csv(trace, to_timestamps(run, slot_width=1.0))
    argv = ["analyze", str(trace), "--seed", "3", "--out", str(tmp_path / "v.csv")]
    code = ("import sys\n"
            "import lpwanleak.cli\n"
            f"assert lpwanleak.cli.main({argv!r}) == 0\n"
            "assert 'scipy.special' in sys.modules, 'threshold not computed'\n"
            "assert 'scipy.stats' not in sys.modules, 'loaded by analyze'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "v.csv").read_text().splitlines()) >= 3


def test_sweep_command_json(tmp_path):
    cfg = _write(tmp_path, "sweep.cfg", """\
[sweep]
anomaly_rates = 0.5
intensities = 10
n_intervals = 1000
[run]
seed = 3
""")
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", cfg, "--format", "json",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["seed"] == 3  # config seed used when flag is absent
    assert len(doc["rows"]) == 1
    row = doc["rows"][0]
    assert row["R_p"] == 0.5 and row["I"] == 10.0
    assert row["feasible_optimal"] is True
    assert main(["sweep", "--config", cfg, "--seed", "4", "--out",
                 str(out)]) == 0  # flag wins over config
    assert "seed=4" in out.read_text().splitlines()[0]


def test_sweep_rejects_impossible_cell(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", """\
[sweep]
anomaly_rates = 0.2,1.5
intensities = 10
n_intervals = 1000
""")
    assert main(["sweep", "--config", cfg, "--seed", "1"]) == 2


def test_sweep_reports_failed_cells(tmp_path, monkeypatch, capsys):
    import lpwanleak.experiment as experiment

    cfg = _write(tmp_path, "sweep.cfg", """\
[sweep]
anomaly_rates = 0.2,0.5
intensities = 10
n_intervals = 1000
""")
    clean, out = tmp_path / "clean.csv", tmp_path / "out.csv"
    args = ["sweep", "--config", cfg, "--seed", "9", "--out"]
    assert main(args + [str(clean)]) == 0
    real_cell = experiment.run_cell

    def cell(model, *a, **kw):
        if model.anomaly_rate == 0.5:
            raise ValueError("no strategy\nfor this cell")
        return real_cell(model, *a, **kw)

    monkeypatch.setattr(experiment, "run_cell", cell)
    capsys.readouterr()
    # a domain error keeps the nan row, adds a comment line and exits 3
    assert main(args + [str(out)]) == 3
    lines = out.read_text().splitlines()
    assert lines[:3] == clean.read_text().splitlines()[:3]
    assert lines[3].startswith("0.5,10.0,10,1.0,") and lines[3].endswith("nan,nan,nan,nan")
    assert lines[4:] == ["# error R_p=0.5 I=10.0: ValueError: no strategy for this cell"]
    assert capsys.readouterr().err == \
        "lpwanleak: error R_p=0.5 I=10.0: ValueError: no strategy\nfor this cell\n"
    assert main(args + [str(out), "--format", "json"]) == 3
    rows = json.loads(out.read_text())["rows"]
    assert [r["error"] for r in rows] == ["", "ValueError: no strategy\nfor this cell"]

    # any other exception is a bug: the sweep stops and exits 4
    def broken(*a, **kw):
        raise TypeError("bug")

    monkeypatch.setattr(experiment, "run_cell", broken)
    assert main(args + [str(out)]) == 4
    assert "internal error: TypeError: bug" in capsys.readouterr().err


# the fields a sweep's JSON rows carry after its CSV columns
SWEEP_JSON_EXTRA = ["degenerate", "realized_cost", "realized_cost_se", "error"]


@pytest.mark.parametrize("command,text,extra", [
    pytest.param("sweep", "[sweep]\nanomaly_rates = 0.2,0.5\nintensities = 10,40\n"
                 "n_intervals = 1000\n", SWEEP_JSON_EXTRA, id="sweep"),
    pytest.param("simulate", "[sweep]\nanomaly_rates = 0.3\nintensities = 20\nn_intervals = 1000\n"
                 "detector = chi-square\n[knowledge]\ntpr = 0.7\ntnr = 0.99\n",
                 SWEEP_JSON_EXTRA, id="simulate"),
    pytest.param("analyze", "[analyze]\nslot_width = 2.0\n", [], id="analyze"),
    pytest.param("costs", "[costs]\nshifts = 1,2,9\nbase_rates = 1,5\nintensities = 10\n",
                 [], id="costs"),
])
def test_json_rows_carry_the_csv_columns(tmp_path, monkeypatch, command, text, extra):
    # every JSON row starts with the CSV header's names, in order, and each
    # of those values equals its CSV cell (nan is nan, bools and ints are
    # the CSV integers)
    import lpwanleak.experiment as experiment

    real_cell = experiment.run_cell

    def cell(model, *a, **kw):
        if (model.anomaly_rate, model.intensity) == (0.5, 10.0):
            raise ValueError("no strategy for this cell")
        return real_cell(model, *a, **kw)

    monkeypatch.setattr(experiment, "run_cell", cell)
    # sparse traffic, so some analyze intervals are empty and read D = nan
    trace = tmp_path / "trace.csv"
    write_trace_csv(trace, to_timestamps(gen_run(IntervalModel(10, 0.05, 40.0, 0.3), 40, 2),
                                         slot_width=2.0))
    argv = [command, *([str(trace)] if command == "analyze" else []),
            "--config", _write(tmp_path, "cfg", text), "--seed", "6", "--out"]
    codes = {main(argv + [str(tmp_path / f"out.{fmt}"), "--format", fmt])
             for fmt in ("csv", "json")}
    assert codes == {3 if command == "sweep" else 0}
    lines = [ln for ln in (tmp_path / "out.csv").read_text().splitlines()
             if not ln.startswith("#")]
    header, cells = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    rows = json.loads((tmp_path / "out.json").read_text())["rows"]
    assert rows and len(rows) == len(cells)
    assert any(r.get("error") for r in rows) == (command == "sweep")
    for row, csv_row in zip(rows, cells):
        assert list(row) == header + extra
        for name, cell_text in zip(header, csv_row):
            value = row[name]
            if isinstance(value, (bool, int)):
                assert cell_text == str(int(value)), name
            elif math.isnan(value):
                assert cell_text == "nan", name
            else:
                assert float(cell_text) == value, name
    if command == "analyze":
        assert any(cell_text == "nan" for _, cell_text, *_ in cells)


def test_simulate_command_with_dump(tmp_path):
    dump = tmp_path / "run.csv"
    # a search-path cell, so both action arms are mixed
    cfg = _write(tmp_path, "sim.cfg", f"""\
[sweep]
anomaly_rates = 0.2
intensities = 40
n_intervals = 1000
[simulate]
dump_run = "{dump}"
[run]
seed = 11
""")
    out = tmp_path / "cell.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == SWEEP_CSV_HEADER
    run = run_from_csv(str(dump))
    assert len(run) == 1000
    assert dump.read_text().startswith("# lpwanleak ")
    # the dump is the run the row scored: its idealized flags, the row's
    # posteriors and guess stream (seed, 0, 0, 2) rebuild guess_err exactly
    row = dict(zip(SWEEP_CSV_HEADER.split(","), lines[2].split(",")))
    assert row["feasible_optimal"] == "0"
    cfg = DetectorConfig.idealized(*(float(row[k]) for k in ("R_p", "P_wf", "P_f",
                                                            "P_tp", "P_tn")))
    guesses = guess_run(classify_run(run, cfg).posterior_anomaly, (11, 0, 0, 2))
    assert repr(guessing_error(guesses, run.is_anomaly)) == row["guess_err"]
    # simulate insists on a single cell
    multi = _write(tmp_path, "sim2.cfg", """\
[sweep]
anomaly_rates = 0.2,0.5
intensities = 10
n_intervals = 1000
""")
    assert main(["simulate", "--config", multi, "--seed", "1"]) == 2


def test_analyze_command(tmp_path):
    run = gen_run(IntervalModel(10, 1.0, 40.0, 0.3), 50, 21)
    ts = to_timestamps(run, slot_width=2.0)
    trace = tmp_path / "trace.csv"
    write_trace_csv(trace, ts, device="node-7")
    cfg = _write(tmp_path, "an.cfg", """\
[analyze]
slot_width = 2.0
slots = 10
alpha = 0.05
""")
    out = tmp_path / "verdicts.csv"
    assert main(["analyze", str(trace), "--config", cfg, "--seed", "0",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# lpwanleak ")
    assert lines[1] == "interval,D,flagged,threshold"
    counts = bin_timestamps(ts, 2.0, 10)
    _, _, d = run_dispersion(counts)
    thr = chi_square_threshold(10, 0.05)
    want = np.where(np.isnan(d), False, (10 - 1) * d > thr)
    got = [row.split(",") for row in lines[2:]]
    assert [int(r[2]) for r in got] == [int(v) for v in want]
    assert float(got[0][3]) == pytest.approx(thr)
    # json variant carries the same verdicts
    out_json = tmp_path / "verdicts.json"
    assert main(["analyze", str(trace), "--config", cfg, "--seed", "0",
                 "--format", "json", "--out", str(out_json)]) == 0
    doc = json.loads(out_json.read_text())
    assert [r["flagged"] for r in doc["rows"]] == [bool(v) for v in want]


def test_analyze_empty_interval_is_never_flagged(tmp_path):
    # three intervals of 10 one-second slots; the middle one carries no
    # message, so its dispersion is nan and it must read as not flagged
    trace = tmp_path / "trace.csv"
    write_trace_csv(trace, [0.5] * 30 + [9.5] + [20.5 + i for i in range(10)])
    out = tmp_path / "verdicts.csv"
    assert main(["analyze", str(trace), "--seed", "0", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [(r[0], r[2]) for r in rows] == [("0", "1"), ("1", "0"), ("2", "0")]
    assert [r[1] for r in rows[1:]] == ["nan", "0.0"]
    out_json = tmp_path / "verdicts.json"
    assert main(["analyze", str(trace), "--seed", "0", "--format", "json",
                 "--out", str(out_json)]) == 0
    doc = json.loads(out_json.read_text())
    assert [r["flagged"] for r in doc["rows"]] == [True, False, False]
    assert math.isnan(doc["rows"][1]["D"])


def test_analyze_data_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,trace\n")
    assert main(["analyze", str(bad), "--seed", "0"]) == 3
    disorder = tmp_path / "d.csv"
    disorder.write_text("timestamp_s,device_id\n5.0,a\n1.0,a\n")
    assert main(["analyze", str(disorder), "--seed", "0"]) == 3
    short = tmp_path / "s.csv"
    short.write_text("timestamp_s,device_id\n1.0,a\n")
    # one message cannot fill an interval
    assert main(["analyze", str(short), "--seed", "0"]) == 3
    # the slot width is checked before the trace is opened
    cfg = _write(tmp_path, "nan.cfg", "[analyze]\nslot_width = nan\n")
    assert main(["analyze", str(tmp_path / "missing.csv"), "--config", cfg, "--seed", "0"]) == 2


def test_posterior_command(tmp_path, repo_root):
    fixture = repo_root / "fixtures" / "fillto_two_messages.json"
    out = tmp_path / "post.json"
    assert main(["posterior", str(fixture), "--seed", "0",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    tables = doc["tables"]
    assert len(tables) == 1
    assert tables[0]["observed"] == [1.0, 2.0]
    post = {tuple(e["trace"]): e["p"] for e in tables[0]["posterior"]}
    assert post[(1.0,)] == pytest.approx(0.6)
    assert post[(1.0, 2.0)] == pytest.approx(0.4)
    out_csv = tmp_path / "post.csv"
    assert main(["posterior", str(fixture), "--seed", "0", "--format", "csv",
                 "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[1] == "observed,candidate,posterior"
    assert lines[2].startswith("1.0;2.0,1.0,")


def test_posterior_inconsistent_observation(tmp_path, repo_root):
    fixture = repo_root / "fixtures" / "fillto_two_messages.json"
    cfg = _write(tmp_path, "post.cfg", """\
[posterior]
observed = 0.5
""")
    assert main(["posterior", str(fixture), "--config", cfg, "--seed", "0"]) == 3
    assert main(["posterior", str(tmp_path / "nope.json"), "--seed", "0"]) == 3


SMALL_FIXTURE = {"tick": 1.0, "window": [0.0, 3.0],
                 "prior": [{"trace": [1.0], "p": 1.0}], "mechanism": "identity"}


@pytest.mark.parametrize("doc", [
    {**SMALL_FIXTURE, "window": [0]},
    {**SMALL_FIXTURE, "prior": 5},
    {**SMALL_FIXTURE, "prior": [{"trace": 5, "p": 1.0}]},
    [SMALL_FIXTURE],
    # a table with no row for the prior trace (2.0,); observing only traces
    # that leave it out must not let the fixture through
    {**SMALL_FIXTURE, "prior": [{"trace": [1.0], "p": 0.5}, {"trace": [2.0], "p": 0.5}],
     "mechanism": {"type": "table", "rows": [
         {"real": [1.0], "outputs": [{"observed": [1.0], "q": 1.0}]}]}},
], ids=["short-window", "number-prior", "number-trace", "top-level-array",
        "table-missing-row"])
def test_posterior_malformed_fixture_is_data_error(tmp_path, capsys, doc):
    fixture = tmp_path / "bad.json"
    fixture.write_text(json.dumps(doc))
    for text in ("", "[posterior]\nobserved = 1.0, 3.0\n"):
        cfg = _write(tmp_path, "post.cfg", text)
        assert main(["posterior", str(fixture), "--config", cfg, "--seed", "0"]) == 3
        assert "bad fixture" in capsys.readouterr().err


SWEEP_CELL = "anomaly_rates = 0.2\nintensities = 10\nn_intervals = 1000\n"


# rates the dispersion algebra cannot represent: not finite, or an
# anomalous slot rate b with (slots * b)^2 past the largest double
RATE_CONFIGS = {
    "solve": "[model]\nintensity = {}\nanomaly_rate = 0.2\n",
    "costs": "[costs]\nshifts = 1,2\nintensities = 10,{}\n",
    "sweep": "[sweep]\nanomaly_rates = 0.2\nintensities = 10,{}\nn_intervals = 1000\n",
    "simulate": "[sweep]\nanomaly_rates = 0.2\nintensities = {}\nn_intervals = 1000\n",
}
SIMULATING = ("sweep", "simulate")


@pytest.mark.parametrize("command,text,field", [
    pytest.param("analyze", "[analyze]\nalpha = 1.5\n", "alpha", id="analyze-alpha"),
    pytest.param("analyze", "[analyze]\nslots = 1\n", "slots", id="analyze-slots"),
    pytest.param("posterior", "[posterior]\nobserved = abc\n", "posterior.observed",
                 id="posterior-observed"),
    pytest.param("sweep", "[sweep]\nalpha = 1.5\ndetector = chi-square\n" + SWEEP_CELL,
                 "alpha", id="chi-square-sweep-alpha"),
    pytest.param("sweep", "[sweep]\nalpha = 1.5\n" + SWEEP_CELL, "alpha",
                 id="idealized-sweep-alpha"),
    *(pytest.param(command, text.format(value), "intensity", id=f"{command}-intensity-{value}")
      for value in ("nan", "inf", "1e200") for command, text in RATE_CONFIGS.items()),
    # representable, but over the largest rate numpy's Poisson sampler takes;
    # solve and costs draw nothing, so only the simulating commands reject it
    *(pytest.param(command, RATE_CONFIGS[command].format("1e20"), "intensity",
                   id=f"{command}-intensity-1e20") for command in SIMULATING),
    *(pytest.param(command, "[sweep]\ndetector = oracle\n" + SWEEP_CELL, "detector",
                   id=f"{command}-detector") for command in SIMULATING),
    *(pytest.param(command, "[solver]\ncost_denominator = bogus\n[sweep]\n" + SWEEP_CELL,
                   "cost_denominator", id=f"{command}-cost-denominator")
      for command in SIMULATING),
    pytest.param("sweep", "[run]\nformat = xml\n[sweep]\n" + SWEEP_CELL, "run.format",
                 id="run-format-xml"),
    pytest.param("sweep", "[run]\nseed = 1.5\n[sweep]\n" + SWEEP_CELL, "run.seed",
                 id="run-seed-1.5"),
    *(pytest.param(command, f"[run]\nseed = {value}\n[sweep]\n" + SWEEP_CELL, "run.seed",
                   id=f"{command}-run-seed-{value}")
      for value in (-1, 2**64) for command in ("solve", "sweep")),
    *(pytest.param(command, f"[solver]\nbudget = {value}\n[sweep]\n" + SWEEP_CELL,
                   "solver.budget" if command == "solve" else "budget",
                   id=f"{command}-budget-{value}")
      for value in ("-1", "nan") for command in ("solve", *SIMULATING)),
    *(pytest.param("costs", f"[costs]\nshifts = 1, {value}\n", "shift",
                   id=f"costs-shifts-{value}") for value in ("nan", "inf")),
    # an output path must be a string, not a number or a bool that open() takes as an fd
    *(pytest.param(command, f"[run]\nout = {value}\n[sweep]\n" + SWEEP_CELL, "run.out",
                   id=f"{command}-run-out-{value}")
      for value in ("7", "2", "true") for command in ("solve", "sweep")),
    pytest.param("simulate", "[simulate]\ndump_run = 7\n[sweep]\n" + SWEEP_CELL,
                 "simulate.dump_run", id="simulate-dump-run-7"),
    pytest.param("solve", "[model]\nbase_rate = 1e300\nintensity = 1\nanomaly_rate = 0.2\n",
                 "base_rate", id="solve-base-rate-1e300"),
    *(pytest.param("analyze", f"[analyze]\nslot_width = {value}\n", "analyze.slot_width",
                   id=f"analyze-slot-width-{value}") for value in ("0", "nan", "inf")),
])
def test_unusable_config_values_are_config_errors(tmp_path, repo_root, capsys,
                                                  command, text, field):
    trace = tmp_path / "trace.csv"
    write_trace_csv(trace, to_timestamps(gen_run(IntervalModel(10, 1.0, 40.0, 0.3), 20, 3)))
    inputs = {"analyze": [str(trace)], "sweep": [], "simulate": [], "solve": [], "costs": [],
              "posterior": [str(repo_root / "fixtures" / "fillto_two_messages.json")]}
    cfg = _write(tmp_path, "bad.cfg", text)
    # a --seed or --out flag would override the config's run.seed or run.out
    seed = [] if "seed =" in text else ["--seed", "0"]
    out = [] if "out =" in text else ["--out", str(tmp_path / "out")]
    assert main([command, *inputs[command], "--config", cfg, *seed, *out]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["solve", "sweep", "simulate"])
def test_seed_outside_unsigned_64_bit_is_config_error(tmp_path, capsys, command, seed):
    cfg = _write(tmp_path, "cell.cfg", "[sweep]\n" + SWEEP_CELL)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--seed", seed, "--out", str(out)]) == 2
    assert "--seed must be an unsigned 64-bit integer" in capsys.readouterr().err
    assert not out.exists()
    assert main([command, "--config", cfg, "--seed", str(2**64 - 1), "--out", str(out)]) == 0


def test_costs_command(tmp_path):
    cfg = _write(tmp_path, "costs.cfg", """\
[costs]
shifts = 1:3:1
base_rates = 1.0
intensities = 10
slots = 10
""")
    out = tmp_path / "costs.csv"
    assert main(["costs", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == COST_CSV_HEADER
    assert len(lines) == 5
    pts = cost_curves([IntervalModel(10, 1.0, 10.0, 0.0)], [1.0, 2.0, 3.0])
    row = lines[3].split(",")
    assert float(row[1]) == pytest.approx(pts[1].fake_cost)
    assert float(row[2]) == pytest.approx(pts[1].waterfill_cost)


def test_missing_config_is_config_error(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "nope.cfg"), "--seed", "1"]) == 2


def test_random_seed_fallback(tmp_path, capsys):
    cfg = _write(tmp_path, "solve.cfg", """\
[model]
intensity = 10
anomaly_rate = 0.5
""")
    out = tmp_path / "s.json"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert "no seed given" in capsys.readouterr().err
    assert isinstance(json.loads(out.read_text())["meta"]["seed"], int)


def test_argparse_level_errors():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
