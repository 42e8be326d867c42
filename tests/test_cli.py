"""Config parsing and CLI subcommand tests (driven through main())."""

import codecs
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpwanleak import __version__, cli

from lpwanleak import (
    SWEEP_CSV_HEADER,
    COST_CSV_HEADER,
    DetectorConfig,
    IntervalModel,
    KnowledgeModel,
    bin_timestamps,
    chi_square_threshold,
    class_posteriors,
    cost_curves,
    gen_run,
    guess_run,
    load_fixture,
    run_dispersion,
    run_to_csv,
    simulate_run,
    test_run as classify_run,
)
from lpwanleak.cli import (
    Config,
    ConfigError,
    DataError,
    main,
    parse_config,
    read_trace_csv,
)

from conftest import CONFIG_DIR, ROOT
from scoring_oracles import guessing_error
from trace_files import to_timestamps, write_trace_csv

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
    cfg = Config(parse_config(GOOD_CONFIG + "[costs]\nshifts = 2\nslots = 4\n"))
    assert cfg.get("model", "slots") == 10
    assert cfg.get("model", "base_rate") == 1.5
    assert cfg.get("sweep", "anomaly_rates") == (0.1, 0.2, 0.3)
    assert cfg.get("sweep", "detector") == "idealized"
    # each value comes back as its declared type: one number as a number
    # list, an int literal as a float where the key is a number
    assert cfg.get("costs", "shifts") == (2.0,)
    assert type(cfg.get("costs", "shifts")[0]) is float
    assert type(cfg.get("costs", "slots")) is int
    int_rate = Config(parse_config("[model]\nbase_rate = 2\n")).get("model", "base_rate")
    assert type(int_rate) is float
    assert cfg.get("model", "intensity", None) is None
    with pytest.raises(ConfigError):
        cfg.get("model", "intensity")
    # a value of the wrong type is rejected as the file is read
    for text in ("[model]\nslots = 1.5\n", "[sweep]\nalpha = idealized\n",
                 "[sweep]\ndetector = 10\n"):
        with pytest.raises(ConfigError):
            parse_config(text)


@pytest.mark.parametrize("text,key,written,line", [
    ("[model]\nslots = 1.5\n", "model.slots", "1.5", 2),
    ("[model]\nslots = true\n", "model.slots", "true", 2),
    ("[model]\nbase_rate = 1, 2\n", "model.base_rate", "1, 2", 2),
    ("[model]\nintensity = 10:40:10\n", "model.intensity", "10:40:10", 2),
    ("[knowledge]\ntpr = high\n", "knowledge.tpr", "high", 2),
    ("[run]\nseed = 1.5\n", "run.seed", "1.5", 2),
    ("[run]\nout = 7\n", "run.out", "7", 2),
    ("[sweep]\nintensities = 10, abc\n", "sweep.intensities", "10, abc", 2),
    ("[sweep]\nintensities = 40    # comma list\n", "sweep.intensities",
     "40    # comma list", 2),
    # the section a key sits in is not the command that reads it
    ("[sweep]\nintensities = 10\n\n[analyze]\nslots = abc\n", "analyze.slots", "abc", 5),
    ("[posterior]\nobserved = true\n", "posterior.observed", "true", 2),
    ("# a sensor\nanalyze.device = 007\n", "analyze.device", "007", 2),
    ("[analyze]\ndevice = 42\n", "analyze.device", "42", 2),
    ("[analyze]\ninput = false\n", "analyze.input", "false", 2),
    # an integer literal past the largest double is not a number either
    ("[model]\nintensity = 1" + "0" * 400 + "\n", "model.intensity", "1" + "0" * 400, 2),
    ("[costs]\nshifts = 1, 1" + "0" * 400 + "\n", "costs.shifts", "1, 1" + "0" * 400, 2),
], ids=["slots-float", "slots-bool", "base-rate-list", "intensity-range", "tpr-word",
        "seed-float", "out-number", "intensities-word", "intensities-inline-comment",
        "other-command-section", "observed-bool", "device-007", "device-42", "input-bool",
        "intensity-huge-int", "shifts-huge-int"])
def test_parse_config_type_errors_name_line_key_and_value(text, key, written, line):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    assert msg.startswith(f"config line {line}: config key '{key}' must be ")
    assert msg.endswith(f"got {written!r}")
    if key in ("analyze.device", "analyze.input", "run.out"):
        assert "quote" in msg


# each shipped config's hash, which every output's provenance line carries
SHIPPED_CONFIG_HASHES = {"cost_curves": "6a947616d194", "figure_repro": "e45601a0bc13",
                         "figure_repro_incomplete": "165f7d88af48",
                         "single_cell": "82f3c6c22397"}


def test_readme_and_shipped_configs_parse():
    readme = (ROOT / "README.md").read_text()
    example = readme.split("### Config format", 1)[1].split("```ini\n", 1)[1].split("```")[0]
    assert Config(parse_config(example)).get("sweep", "intensities") == (10.0, 20.0, 30.0, 40.0)
    hashes = {path.stem: Config(parse_config(path.read_text())).hash()
              for path in sorted(CONFIG_DIR.glob("*.cfg"))}
    assert hashes == SHIPPED_CONFIG_HASHES


@pytest.mark.parametrize("written,value", [
    ('"a,b.csv"', "a,b.csv"),
    ("'a,b.csv'", "a,b.csv"),
    ('"x:y:z"', "x:y:z"),
    ('" 1, 2 "', " 1, 2 "),
], ids=["double-comma", "single-comma", "colons", "spaces-kept"])
def test_quoted_string_is_one_value(written, value):
    # a quoted value is read whole: its commas do not make it a list
    assert parse_config(f"[run]\nout = {written}\n") == {"run": {"out": value}}


@pytest.mark.parametrize("written,value", [
    ('"a"b"', 'a"b'),
    ("a:b:c", "a:b:c"),
], ids=["inner-quote", "non-numeric-range"])
def test_value_that_is_no_list_reads_as_a_string(written, value):
    # a quote inside the quotes is not taken whole but still unquoted once;
    # three colon-separated non-numbers are not a range
    assert parse_config(f"[analyze]\ndevice = {written}\n") == {"analyze": {"device": value}}


def test_quoted_output_path_with_a_comma(tmp_path):
    out = tmp_path / "a,b.csv"
    cfg = _write(tmp_path, "sweep.cfg", f"""\
[sweep]
anomaly_rates = 0.2
intensities = 10
n_intervals = 1000
[run]
out = "{out}"
""")
    assert main(["sweep", "--config", cfg, "--seed", "9"]) == 0
    assert out.read_text().splitlines()[1] == SWEEP_CSV_HEADER


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
    with open(path, encoding="utf-8-sig") as fh:
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
        if not devices:
            raise DataError(f"{path}: no data rows")
        device = devices[0]
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


_matches_line_reference = test_read_trace_csv_matches_line_reference.hypothesis.inner_test


def _plain_text(odd: str, at: int, rows: int = 300) -> str:
    """A header and ``rows`` plain rows of device a, one second apart, with
    ``odd`` in place of row ``at``."""
    lines = [f"{float(t)!r},a" for t in range(rows)]
    lines[at] = odd
    return "timestamp_s,device_id\n" + "\n".join(lines) + "\n"


_BACK_AT_BLOCK_START = _plain_text("0.5,a", at=100)
# bad and odd rows among plain ones: bad timestamps, 0 or 2 commas, a head
# float() takes, device names with "#", an inner space or non-ASCII text; and
# lines that make a block not plain: padding, a comment with one comma, a
# line end only str.splitlines sees
_PLAIN_ODDITIES = ["zap,a", "nan,a", "1e400,a", "7.5", "7.5,a,b", "1_0,a", "8.0,a#1",
                   "8.0,a b", "8.0,gw-\u00e9", " zap,a", " 8.0 , a ", "#note,a",
                   "8.0\u2028,a"]


@st.composite
def plain_trace_texts(draw):
    """A trace CSV text of mostly plain rows (unpadded, "\n"-terminated, one
    comma each), so that most blocks of a few KB are read in bulk."""
    t = draw(st.floats(0.0, 1e9))
    lines = ["timestamp_s,device_id"]
    for kind in draw(st.lists(st.sampled_from(["row"] * 40 + ["back", "odd"]), max_size=300)):
        if kind == "odd":
            lines.append(draw(st.sampled_from(_PLAIN_ODDITIES)))
        else:
            t += draw(st.floats(0.0, 50.0)) * (-1 if kind == "back" else 1)
            lines.append(f"{t!r},{draw(st.sampled_from(['a', 'b']))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=plain_trace_texts(), device=st.sampled_from([None, "a", "b"]),
       block=st.integers(16, 4096))
@example(text=_plain_text("zap,a", at=150), device="a", block=512)
@example(text=_plain_text("nan,a", at=150), device="a", block=512)
@example(text=_plain_text("1e400,a", at=150), device="a", block=512)
@example(text=_plain_text("150.0", at=150), device="a", block=512)
@example(text=_plain_text("150.0,a,b", at=150), device="a", block=512)
@example(text=_BACK_AT_BLOCK_START, device="a",
         block=_BACK_AT_BLOCK_START.index("\n0.5,a\n") + 1)
@example(text=_plain_text("1_0,a", at=10), device=None, block=64)
@example(text=_plain_text("150.0,a#1", at=150), device="a", block=512)
@example(text=_plain_text("150.0,a b", at=150), device="a b", block=512)
@example(text=_plain_text("150.0,gw-\u00e9", at=150), device=None, block=512)
@example(text=_plain_text("#note,a", at=150), device="a", block=512)
@example(text=_plain_text("150.0\u2028,a", at=150), device="a", block=512)
@example(text=_plain_text(" zap,a", at=150), device="a", block=512)
@example(text=_plain_text("4503599627370496.5,a", at=299), device="a", block=512)
@example(text=_plain_text("4503599627370497.5,a", at=299), device="a", block=512)
@example(text=_plain_text("2251799813685248.25,a", at=299), device="a", block=512)
@example(text=_plain_text("9007199254740991.5,a", at=299), device="a", block=512)
@example(text=_plain_text("9007199254740992,a", at=299), device="a", block=512)
@example(text=_plain_text("9007199254740993,a", at=299), device="a", block=512)
@example(text=_plain_text("150.000000000000001,a", at=150), device="a", block=512)
@example(text=_plain_text("150.0000000000000001,a", at=150), device="a", block=512)
@example(text=_plain_text("150,a", at=150), device="a", block=512)
@example(text=_plain_text("0150.5,a", at=150), device="a", block=512)
@example(text=_plain_text("+150.5,a", at=150), device="a", block=512)
@example(text=_plain_text("150.,a", at=150), device="a", block=512)
@example(text=_plain_text("0.25,a", at=0), device="a", block=512)
@example(text=_plain_text("\u0661\u0665\u0660,a", at=150), device="a", block=512)
def test_plain_blocks_match_line_reference(text, device, block):
    _matches_line_reference(text, device, block)


def test_plain_blocks_are_never_normalized(tmp_path, monkeypatch):
    path = tmp_path / "plain.csv"
    ts = np.cumsum(np.full(2000, 0.25))
    write_trace_csv(path, ts, device="a")
    normalized = []  # the blocks normalized: only the first, which holds the header
    real = cli._normalized

    def counting(block):
        normalized.append(block)
        return real(block)

    monkeypatch.setattr(cli, "_normalized", counting)
    monkeypatch.setattr(cli, "_READ_BLOCK", 1024)
    assert read_trace_csv(path).tobytes() == ts.tobytes()
    assert len(normalized) <= 1 < path.stat().st_size // 1024


def _decimal(x: Fraction) -> str:
    """The exact decimal of a fraction whose denominator is a power of 2."""
    places = x.denominator.bit_length() - 1
    digits = str(x.numerator * 5 ** places).rjust(places + 1, "0")
    return f"{digits[:len(digits) - places]}.{digits[len(digits) - places:]}" if places else digits


@st.composite
def ties(draw):
    """A head halfway between two adjacent doubles of [1, 2**53), or one as close
    to that as 18 digits come, from below or above."""
    x = draw(st.one_of(st.floats(2.0 ** 51, 2.0 ** 53, exclude_max=True),
                       st.floats(1.0, 2.0 ** 53, exclude_max=True)))
    tie = _decimal((Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2)
    near = tie[:19].rstrip(".")
    return draw(st.sampled_from([tie, near, near[:-1] + str(min(int(near[-1]) + 1, 9))]))


# heads at the edges of the reader's own decoding, and next to them: too many
# digits, 2**53 and past it, below 1, and what float() takes besides digits
_EDGE_HEADS = ["+1.5", "1.", "007.5", "0.25", ".5", "1_0", "\u0661\u0662", "1" * 19,
               "1" * 25, "0000000000000000001", "12345678901234567.8", "9007199254740991.5",
               "9007199254740992", "9007199254740993", "4503599627370496.5"]
_head_texts = st.one_of(
    st.floats(1.0, 2.0 ** 53).map(repr),
    st.floats(0.0, 1e30).map(repr),
    ties(),
    st.builds(str.__add__, st.text("0123456789", min_size=1, max_size=19),
              st.sampled_from(["", "."]).flatmap(
                  lambda point: st.text("0123456789", max_size=19).map(point.__add__))),
    st.sampled_from(_EDGE_HEADS))


@settings(max_examples=200, deadline=None)
@given(heads=st.lists(_head_texts, min_size=1, max_size=200), block=st.integers(64, 4096))
@example(heads=["4503599627370496.5", "4503599627370497.5", "4503599627370498.5"], block=64)
@example(heads=["1.2345678901234567", "7.5", "12.5", "99.999999999999999"], block=64)
def test_plain_heads_read_as_float(heads, block):
    # rows ordered by value, so that every one is read and returned
    heads = sorted(heads, key=float)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/trace.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("timestamp_s,device_id\n" + "".join(f"{h},a\n" for h in heads))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_READ_BLOCK", block)
            got = read_trace_csv(path)
    assert got.tobytes() == np.array([float(h) for h in heads]).tobytes()


def test_benchmark_shaped_heads_never_reach_float(tmp_path, monkeypatch):
    # epoch-scale timestamps as repr writes them, from two devices
    rng = np.random.default_rng(5)
    ts = 1.596e9 + np.cumsum(rng.exponential(5.0, 3000))
    devices = np.where(rng.random(ts.size) < 0.3, "gateway-b", "sensor-a")
    path = tmp_path / "trace.csv"
    path.write_text("# two devices\ntimestamp_s,device_id\n" + "".join(
        f"{t!r},{d}\n" for t, d in zip(ts.tolist(), devices.tolist())))
    heads = []  # the heads read by float(): none
    real = cli._timestamp

    def counting(text):
        heads.append(text)
        return real(text)

    monkeypatch.setattr(cli, "_timestamp", counting)
    monkeypatch.setattr(cli, "_READ_BLOCK", 1024)
    got = read_trace_csv(path, "sensor-a")
    assert heads == []
    assert got.tobytes() == reference_read_trace_csv(path, "sensor-a").tobytes()


def test_header_only_trace_has_no_data_rows(tmp_path, capsys):
    path = tmp_path / "header.csv"
    path.write_text("# provenance\ntimestamp_s,device_id\n")
    with pytest.raises(DataError) as err:
        read_trace_csv(path)
    assert str(err.value) == f"{path}: no data rows"
    with pytest.raises(DataError) as err:
        read_trace_csv(path, device="a")
    assert str(err.value) == f"{path}: no messages for device 'a'"
    assert main(["analyze", str(path), "--seed", "0"]) == 3
    assert f"{path}: no data rows" in capsys.readouterr().err


@pytest.mark.parametrize("role", ["config", "trace", "fixture"])
def test_a_byte_order_mark_is_skipped(tmp_path, repo_root, role):
    trace = tmp_path / "trace.csv"
    write_trace_csv(trace, to_timestamps(gen_run(IntervalModel(10, 1.0, 40.0, 0.3), 20, 3)))
    cfg = tmp_path / "analyze.cfg"
    cfg.write_text("[analyze]\nslots = 10\n")
    fixture = tmp_path / "fixture.json"
    fixture.write_bytes((repo_root / "fixtures" / "fillto_two_messages.json").read_bytes())
    argv = (["posterior", str(fixture)] if role == "fixture" else
            ["analyze", str(trace), "--config", str(cfg)])
    outs = []
    for marked in (False, True):
        if marked:
            path = {"config": cfg, "trace": trace, "fixture": fixture}[role]
            path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        out = tmp_path / f"out-{marked}"
        assert main([*argv, "--seed", "0", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[1] == outs[0]
    assert not outs[1].startswith(codecs.BOM_UTF8)
    if role == "fixture":
        assert load_fixture(fixture).prior.support


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


@pytest.mark.parametrize("command", ["solve", "sweep-idealized", "sweep-chi-square",
                                     "simulate", "analyze", "posterior", "costs"])
def test_no_command_loads_scipy(tmp_path, command):
    # importing scipy takes longer than most commands run; the chi-square
    # threshold is computed in the package, so no command loads any of it.
    # Importing decimal takes about 2 ms, so only the commands that compute
    # a threshold load it
    trace = tmp_path / "trace.csv"
    write_trace_csv(trace, to_timestamps(gen_run(IntervalModel(10, 1.0, 40.0, 0.3), 5, 4)))
    cfg = _write(tmp_path, "run.cfg", {
        "solve": "[model]\nintensity = 10\nanomaly_rate = 0.5\n",
        "sweep-chi-square": "[sweep]\ndetector = chi-square\n" + SWEEP_CELL,
        "costs": "[costs]\nshifts = 1, 2\n",
    }.get(command, "[sweep]\n" + SWEEP_CELL))
    inputs = {"analyze": [str(trace)],
              "posterior": [str(ROOT / "fixtures" / "fillto_two_messages.json")]}
    out = tmp_path / "out"
    argv = [command.partition("-")[0], *inputs.get(command, []), "--config", cfg,
            "--seed", "3", "--out", str(out)]
    code = ("import sys\n"
            "import lpwanleak.cli\n"
            f"assert lpwanleak.cli.main({argv!r}) == 0\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, f'loaded: {loaded}'\n"
            f"assert ('decimal' in sys.modules) == {command in ('analyze', 'sweep-chi-square')}\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    if command == "analyze":
        header, row = out.read_text().splitlines()[1:3]
        assert header.endswith(",threshold") and row.endswith(",16.918977604620448")


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
    # the dump is the run of the cell's seed (11, 0, 0), written under the
    # row's provenance line
    text = dump.read_text()
    provenance = text.splitlines()[0]
    assert provenance.startswith("# lpwanleak ")
    _, _, run = simulate_run(IntervalModel(10, 1.0, 40.0, 0.2), KnowledgeModel(), 1.0,
                             1000, (11, 0, 0))
    buf = io.StringIO()
    run_to_csv(run, buf, comment=provenance[2:])
    assert text == buf.getvalue()
    # and it is the run the row scored: its idealized flags, the row's
    # posteriors and guess stream (seed, 0, 0, 2) rebuild guess_err exactly
    row = dict(zip(SWEEP_CSV_HEADER.split(","), lines[2].split(",")))
    assert row["feasible_optimal"] == "0"
    cfg = DetectorConfig.idealized(*(float(row[k]) for k in ("R_p", "P_wf", "P_f",
                                                            "P_tp", "P_tn")))
    p_flag, p_unflag, _ = class_posteriors(cfg.anomaly_rate, 1.0 - cfg.flag_rate_anomaly,
                                           cfg.flag_rate_baseline)
    guesses = guess_run(np.where(classify_run(run, cfg), p_flag, p_unflag), (11, 0, 0, 2))
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
    text = out_json.read_text()
    doc = json.loads(text)
    assert [r["flagged"] for r in doc["rows"]] == [True, False, False]
    assert math.isnan(doc["rows"][1]["D"])
    # the JSON rows carry the CSV's values, in the indenting encoder's bytes
    want = [dict(zip(("interval", "D", "flagged", "threshold"),
                     (int(r[0]), float(r[1]), r[2] == "1", float(r[3])))) for r in rows]
    assert text == json.dumps({"meta": doc["meta"], "rows": want}, indent=2) + "\n"
    assert '"D": NaN,' in text


def test_analyze_json_at_an_infinite_threshold(tmp_path):
    # at alpha = 1e-17, 1 - alpha rounds to 1 and the threshold is inf; the empty
    # interval gives D = nan
    trace = tmp_path / "trace.csv"
    write_trace_csv(trace, [0.5] * 30 + [9.5] + [20.5 + i for i in range(10)])
    cfg = _write(tmp_path, "an.cfg", "[analyze]\nalpha = 1e-17\n")
    out = tmp_path / "verdicts.json"
    assert main(["analyze", str(trace), "--config", cfg, "--seed", "3", "--format", "json",
                 "--out", str(out)]) == 0
    _, _, d = run_dispersion(bin_timestamps(read_trace_csv(trace), 1.0, 10))
    assert chi_square_threshold(10, 1e-17) == math.inf
    rows = [dict(zip(("interval", "D", "flagged", "threshold"), (i, di, False, math.inf)))
            for i, di in enumerate(d.tolist())]
    meta = {"tool": "lpwanleak", "version": __version__,
            "config_hash": cli.load_config(cfg).hash(), "seed": 3}
    text = out.read_text()
    assert text == json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"
    assert '"D": NaN,' in text and '"threshold": Infinity\n' in text


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
    # the slot width, alpha and slot count are checked before the trace is
    # opened and before --out is created
    for text in ("slot_width = nan", "alpha = 1.5", "slots = 1"):
        cfg = _write(tmp_path, "bad.cfg", f"[analyze]\n{text}\n")
        out = tmp_path / "out.csv"
        for trace in (tmp_path / "missing.csv", bad):
            assert main(["analyze", str(trace), "--config", cfg, "--seed", "0",
                         "--out", str(out)]) == 2, text
            assert not out.exists()


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
    # base-plus-anomaly is the one cost normalizer; a config may name only it
    *(pytest.param(command, "[solver]\ncost_denominator = interval-expected\n[sweep]\n"
                   + SWEEP_CELL, "solver.cost_denominator",
                   id=f"{command}-cost-denominator-interval-expected")
      for command in ("solve", *SIMULATING)),
    *(pytest.param("costs", f"[costs]\nshifts = 1, 2\ndenominator = {value}\n",
                   "costs.denominator", id=f"costs-denominator-{value}")
      for value in ("interval-expected", "bogus")),
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
    # 1e200 is finite, but its fake rate overflows to inf
    *(pytest.param("costs", f"[costs]\nshifts = 1, {value}\n", "shift",
                   id=f"costs-shifts-{value}") for value in ("nan", "inf", "1e200")),
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
    # every key's type is checked as the file is read, in sections the
    # command does not read too
    pytest.param("sweep", "[sweep]\n" + SWEEP_CELL + "[analyze]\nslots = abc\n",
                 "config line 6: config key 'analyze.slots'", id="sweep-analyze-slots-abc"),
    pytest.param("posterior", "[posterior]\nobserved = true\n", "posterior.observed",
                 id="posterior-observed-true"),
    pytest.param("posterior", "[posterior]\nobserved = 1.0, 1.0\n", "posterior.observed",
                 id="posterior-observed-repeated"),
    # an output path that cannot be opened, found before any cell runs or
    # any trace is read
    *(pytest.param(command, f"[run]\nout = {{tmp}}/missing/x.csv\n{text}",
                   "missing/x.csv: No such file or directory", id=f"{command}-run-out-missing")
      for command, text in (("sweep", "[sweep]\n" + SWEEP_CELL), ("analyze", ""),
                            ("costs", "[costs]\nshifts = 1, 2\n"))),
])
def test_unusable_config_values_are_config_errors(tmp_path, repo_root, capsys,
                                                  command, text, field):
    trace = tmp_path / "trace.csv"
    write_trace_csv(trace, to_timestamps(gen_run(IntervalModel(10, 1.0, 40.0, 0.3), 20, 3)))
    inputs = {"analyze": [str(trace)], "sweep": [], "simulate": [], "solve": [], "costs": [],
              "posterior": [str(repo_root / "fixtures" / "fillto_two_messages.json")]}
    cfg = _write(tmp_path, "bad.cfg", text.replace("{tmp}", str(tmp_path)))
    # a --seed or --out flag would override the config's run.seed or run.out
    seed = [] if "seed =" in text else ["--seed", "0"]
    out = [] if "out =" in text else ["--out", str(tmp_path / "out")]
    assert main([command, *inputs[command], "--config", cfg, *seed, *out]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("command,text", [
    ("sweep", "[sweep]\n" + SWEEP_CELL),
    ("analyze", ""),
    ("costs", "[costs]\nshifts = 1, 2\n"),
])
def test_unopenable_output_is_config_error_before_the_work(tmp_path, monkeypatch, capsys,
                                                          command, text):
    def never(*args, **kwargs):
        raise AssertionError("ran before the output was opened")

    # the sweep and the trace read come after the output is opened
    monkeypatch.setattr(cli, "run_sweep", never)
    monkeypatch.setattr(cli, "read_trace_csv", never)
    trace = tmp_path / "trace.csv"
    write_trace_csv(trace, [0.5, 1.5, 2.5])
    cfg = _write(tmp_path, "run.cfg", text)
    inputs = [str(trace)] if command == "analyze" else []
    out = tmp_path / "missing" / "x.csv"
    assert main([command, *inputs, "--config", cfg, "--seed", "0", "--out", str(out)]) == 2
    assert f"cannot open output {out}: No such file or directory" in capsys.readouterr().err


@pytest.mark.parametrize("present", [True, False])
def test_simulate_that_cannot_open_out_keeps_its_dump(tmp_path, capsys, present):
    # no output is truncated until every one is open: a dump that was there keeps its
    # bytes, and one that was not is not left behind
    dump = tmp_path / "dump.csv"
    if present:
        dump.write_text("kept\n")
    cfg = _write(tmp_path, "cell.cfg", f'[sweep]\n{SWEEP_CELL}[simulate]\ndump_run = "{dump}"\n')
    out = tmp_path / "missing" / "out.csv"
    assert main(["simulate", "--config", cfg, "--seed", "0", "--out", str(out)]) == 2
    assert f"cannot open output {out}: No such file or directory" in capsys.readouterr().err
    assert dump.read_text() == "kept\n" if present else not dump.exists()


@pytest.mark.parametrize("command", ["solve", *SIMULATING, "costs"])
def test_other_cost_normalizer_fails_before_the_work(tmp_path, monkeypatch, capsys, command):
    def never(*args, **kwargs):
        raise AssertionError("ran before the normalizer was checked")

    for name in ("solve_strategy", "run_sweep", "cost_curves"):
        monkeypatch.setattr(cli, name, never)
    text = ("[costs]\nshifts = 1, 2\ndenominator = interval-expected\n" if command == "costs"
            else "[solver]\ncost_denominator = interval-expected\n[sweep]\n" + SWEEP_CELL)
    cfg = _write(tmp_path, "run.cfg", text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--seed", "0", "--out", str(out)]) == 2
    assert "must be 'base-plus-anomaly', got 'interval-expected'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("via", ["--out", "run.out"])
def test_analyze_output_naming_its_trace_is_config_error(tmp_path, capsys, via):
    trace = tmp_path / "trace.csv"
    write_trace_csv(trace, to_timestamps(gen_run(IntervalModel(10, 1.0, 40.0, 0.3), 20, 3)))
    before = trace.read_bytes()
    # the same file under another spelling of its path
    same = f"{tmp_path}/./trace.csv"
    if via == "--out":
        argv = ["--out", str(same)]
    else:
        argv = ["--config", _write(tmp_path, "run.cfg", f'[run]\nout = "{same}"\n')]
    assert main(["analyze", str(trace), "--seed", "1", *argv]) == 2
    assert f"output {same} is the input trace {trace}" in capsys.readouterr().err
    assert trace.read_bytes() == before


def _unreadable(tmp_path, how):
    """A path in a missing directory, a directory, or a file that is not UTF-8."""
    if how == "missing":
        return tmp_path / "missing" / "file"
    if how == "directory":
        path = tmp_path / "dir"
        path.mkdir()
        return path
    path = tmp_path / "latin1"
    path.write_bytes('[analyze]\ndevice = "gw-\u00e9"\n'.encode("latin-1"))
    return path


# a config that every command can run on: one sweep cell and a costs grid
EVERY_COMMAND_CFG = "[sweep]\n" + SWEEP_CELL + "[costs]\nshifts = 1, 2\n"


def _readable(tmp_path, role, output=""):
    """A good input file of ``role``; a config names itself as the output
    key ``output`` (run.out or simulate.dump_run), if it is one."""
    path = tmp_path / f"input-{role}"
    if role == "trace":
        write_trace_csv(path, to_timestamps(gen_run(IntervalModel(10, 1.0, 40.0, 0.3), 20, 3)))
    elif role == "fixture":
        path.write_bytes((ROOT / "fixtures" / "fillto_two_messages.json").read_bytes())
    else:
        key = f'{output} = "{path}"\n' if output in ("run.out", "simulate.dump_run") else ""
        path.write_text(EVERY_COMMAND_CFG + key)
    return path


@pytest.mark.parametrize("role,how,rc", [
    *((role, how, rc) for role, rc in (("config", 2), ("trace", 3), ("fixture", 3))
      for how in ("missing", "directory", "not-utf8")),
    ("out", "missing", 2),
    ("dump_run", "missing", 2),
    ("dump_run", "same as --out", 2),
    # an output that names a file the command reads, as "<command>:<output>"
    *(("config", f"{command}:--out", 2) for command in cli._COMMANDS),
    ("config", "sweep:run.out", 2),
    ("config", "simulate:simulate.dump_run", 2),
    ("trace", "analyze:--out", 2),
    ("fixture", "posterior:--out", 2),
])
def test_every_file_the_cli_touches_fails_with_its_exit_code(tmp_path, capsys, role, how, rc):
    command, _, output = how.partition(":")
    if output:
        bad = _readable(tmp_path, role, output)
    else:
        bad = tmp_path / "out.csv" if how == "same as --out" else _unreadable(tmp_path, how)
    before = bad.read_bytes() if output else None
    dump = f'[simulate]\ndump_run = "{bad}"\n' if role == "dump_run" else ""
    cfg = _write(tmp_path, "cell.cfg", EVERY_COMMAND_CFG + dump)
    argv = {"config": [command if output else "sweep", "--config", str(bad)],
            "trace": ["analyze", str(bad)],
            "fixture": ["posterior", str(bad)],
            "out": ["sweep", "--config", cfg],
            "dump_run": ["simulate", "--config", cfg]}[role]
    inputs = {"analyze": "trace", "posterior": "fixture"}
    if role == "config" and command in inputs:
        argv.append(str(_readable(tmp_path, inputs[command])))
    out = bad if role == "out" or output == "--out" else tmp_path / "out.csv"
    flags = [] if output == "run.out" else ["--out", str(out)]
    assert main([*argv, "--seed", "0", *flags]) == rc
    err = capsys.readouterr().err
    assert str(bad) in err
    if how == "same as --out":
        assert f"output {out} is the simulate.dump_run {bad}" in err
    if role == "dump_run":
        # a refused or unopenable dump stops the command before --out is
        # opened: it was not created, and a file already there keeps its bytes
        assert not out.exists()
        out.write_text("kept\n")
        assert main([*argv, "--seed", "0", *flags]) == rc
        assert out.read_text() == "kept\n"
    if output:
        # refused before any file is opened: the input keeps its bytes and
        # the other output was not created
        assert f"output {bad} is the " in err
        assert bad.read_bytes() == before
        assert not (tmp_path / "out.csv").exists()


def test_utf8_config_reads_the_same_under_a_c_locale(tmp_path):
    trace = tmp_path / "trace.csv"
    write_trace_csv(trace, to_timestamps(gen_run(IntervalModel(10, 1.0, 40.0, 0.3), 20, 3)),
                    device="gw-\u00e9")
    cfg = tmp_path / "an.cfg"
    cfg.write_bytes('[analyze]\ndevice = "gw-\u00e9"\n'.encode("utf-8"))
    got = {}
    for name, env in (("utf-8", {"PYTHONUTF8": "1"}),
                      ("C", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"})):
        out = tmp_path / f"{name}.csv"
        proc = subprocess.run([sys.executable, "-m", "lpwanleak", "analyze", str(trace),
                               "--config", str(cfg), "--seed", "0", "--out", str(out)],
                              capture_output=True, text=True, cwd=ROOT,
                              env={**os.environ, **env})
        assert proc.returncode == 0, proc.stderr
        got[name] = out.read_bytes()
    assert got["C"] == got["utf-8"]
    assert got["C"].splitlines()[1] == b"interval,D,flagged,threshold"


def test_numeric_device_id_must_be_quoted(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    write_trace_csv(trace, to_timestamps(gen_run(IntervalModel(10, 1.0, 40.0, 0.3), 5, 3)),
                    device="007")
    for written, rc in (("007", 2), ('"007"', 0), ("'007'", 0)):
        cfg = _write(tmp_path, "dev.cfg", f"[analyze]\ndevice = {written}\n")
        assert main(["analyze", str(trace), "--config", cfg, "--seed", "0"]) == rc
        err = capsys.readouterr().err
        assert ("quote" in err) == (rc == 2)


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


def test_solve_without_an_intensity_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "solve.cfg", "[model]\nanomaly_rate = 0.5\n")
    assert main(["solve", "--config", cfg, "--seed", "1"]) == 2
    assert "missing required config key 'model.intensity'" in capsys.readouterr().err


def test_broken_pipe_exits_zero(tmp_path, monkeypatch):
    # a reader that closes the pipe early (lpwanleak ... | head) is no error
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    cfg = _write(tmp_path, "solve.cfg", "[model]\nintensity = 10\nanomaly_rate = 0.5\n")
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["solve", "--config", cfg, "--seed", "1"]) == 0


def test_argparse_level_errors():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
