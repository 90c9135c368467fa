"""Command-line entry: exit codes, artifacts, validation, determinism."""
import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shearwaves import cli
from shearwaves.cli import CSV_BLOCK_ROWS, _mesh, _write_csv, main
from shearwaves.simulate import Grid1D

TWO_PI = 2.0 * math.pi


def run_cli(tmp_path, config, tag, command=None, extra=()):
    """Write the config, invoke main() in process, return (exit code, outdir)."""
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / f"out_{tag}"
    code = main([command or config["command"], "--config", str(path),
                 "--out", str(out), "--quiet", *extra])
    return code, out


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


def read_csv_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return header, data


def reference_csv(header, rows):
    """The CSV format spelled by the csv module: excel dialect, each value as format(v, ".17g")."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([format(v, ".17g") for v in row] for row in rows)
    return buf.getvalue().encode("utf-8")


def carroll_simulate_config(**overrides):
    cfg = {
        "command": "simulate",
        "system": "full",
        "modulus": {"kind": "cubic", "mu0": 1.0, "mu1": 0.5},
        "grid": {"n": 64, "a": 0.0, "b": TWO_PI, "boundary": "periodic"},
        "run": {"end": 1.0, "scheme": "muscl_minmod", "cfl": 0.45},
        "init": {"kind": "carroll", "amplitude": 1.0, "wavenumber": 1.0},
        "oracle_check": True,
    }
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------------------
# happy paths


def test_simulate_carroll_artifacts(tmp_path):
    code, out = run_cli(tmp_path, carroll_simulate_config(), "sim")
    assert code == 0
    manifest = read_manifest(out)
    assert manifest["package"] == "shearwaves"
    assert manifest["command"] == "simulate"
    assert manifest["status"] == "ok"
    assert manifest["oracle_error_linf"] < 5e-2
    assert manifest["diagnostics"]["blowup_coordinate"] is None
    header, data = read_csv_columns(out / "snapshots.csv")
    assert header == ["coordinate", "cell_center", "U", "V", "M", "N"]
    assert data.shape[1] == 6
    # amplitude invariant carried by the circular wave, loosely at n=64
    s = data[:, 2] ** 2 + data[:, 3] ** 2
    assert np.max(np.abs(s - 1.0)) < 5e-2


def small_config(command):
    """A quick schema-valid config for each command."""
    sine = {"kind": "sine", "amp": 1.0, "freq": 1.0}
    configs = {
        "simulate": carroll_simulate_config(
            grid={"n": 16, "a": 0.0, "b": TWO_PI}, run={"end": 0.3, "cfl": 0.45}),
        "exact": {"command": "exact",
                  "solution": {"kind": "constant_amplitude", "beta": 0.5, "amplitude": 1.0,
                               "profile": sine, "X": {"min": 0.0, "max": 1.0, "n": 3},
                               "tau": {"min": 0.0, "max": TWO_PI, "n": 5}}},
        "classify": {"command": "classify", "flux": {"kind": "ratio"},
                     "samples": {"u": {"min": 0.5, "max": 2.0, "n": 3},
                                 "v": {"min": 0.5, "max": 2.0, "n": 3}}},
        "hodograph": {"command": "hodograph", "beta": 1.0, "phase": {"kind": "linear", "k": 1.0},
                      "radial": {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]},
                      "X": {"min": -0.55, "max": -0.45, "n": 3},
                      "tau": {"min": -1.7, "max": -1.3, "n": 3}, "seed": [0.5, 1.0]},
        "verify": {"command": "verify", "study": "asymptotic", "beta": 0.5,
                   "solution": {"kind": "constant_amplitude", "amplitude": 1.0, "profile": sine},
                   "rectangle": {"coord": {"min": 0.0, "max": 1.0},
                                 "point": {"min": 0.0, "max": TWO_PI}},
                   "levels": [9, 17]},
        "convergence": {"command": "convergence", "system": "asymptotic", "beta": 0.5,
                        "grid": {"a": 0.0, "b": TWO_PI},
                        "run": {"end": 0.2, "scheme": "lax_friedrichs"}, "levels": [8, 16],
                        "oracle": {"kind": "constant_amplitude", "amplitude": 1.0,
                                   "profile": sine}},
    }
    return configs[command]


COMMANDS = ("simulate", "exact", "classify", "hodograph", "verify", "convergence")


@pytest.mark.parametrize("command", COMMANDS)
def test_artifacts_deterministic(tmp_path, command):
    code1, out1 = run_cli(tmp_path, small_config(command), "det1")
    code2, out2 = run_cli(tmp_path, small_config(command), "det2")
    assert code1 == code2 == 0
    names = sorted(p.name for p in out1.iterdir())
    assert "manifest.json" in names and len(names) == 2
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"
SHIPPED_CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


def test_every_command_has_a_shipped_config():
    commands = {json.loads(p.read_text())["command"] for p in SHIPPED_CONFIGS}
    assert commands == set(COMMANDS)


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_runs(tmp_path, path):
    out = tmp_path / path.stem
    code = main([json.loads(path.read_text())["command"], "--config", str(path),
                 "--out", str(out), "--quiet"])
    assert code == 0
    assert read_manifest(out)["status"] == "ok"
    # pins the CSV format itself: values read back with float() re-encode to the same bytes
    for csv_path in out.glob("*.csv"):
        assert reference_csv(*read_csv_columns(csv_path)) == csv_path.read_bytes(), csv_path.name


# ---------------------------------------------------------------------------
# the CSV writer against the reference encoder

EDGE_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-300,
               1.7976931348623157e308, 1.0, 0.1]


def written_csv(tmp_path, header, columns):
    path = tmp_path / "out" / "t.csv"
    _write_csv(path, header, columns)
    return path.read_bytes()


def expected_csv(header, columns):
    return reference_csv(header, zip(*[np.ravel(np.asarray(c, dtype=float)) for c in columns]))


@pytest.mark.parametrize("rows", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                                  2 * CSV_BLOCK_ROWS + 1])
def test_write_csv_matches_reference_at_block_edges(tmp_path, rows):
    rng = np.random.default_rng(rows)
    edges = np.resize(EDGE_VALUES, rows)
    scaled = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    columns = [edges, -edges[::-1], scaled, np.arange(rows) * 0.1]
    header = ["edge", "negated", "scaled", "ramp"]
    assert written_csv(tmp_path, header, columns) == expected_csv(header, columns)


def test_write_csv_takes_meshes_views_ints_and_one_column(tmp_path):
    T, X = np.meshgrid(np.linspace(0.0, 1.0, 7), np.linspace(-1.0, 2.0, 5), indexing="ij")
    phi = np.broadcast_to(np.linspace(-3.0, 3.0, 7)[:, None], T.shape)
    assert not phi.flags.writeable
    ints = np.arange(-17, 18).reshape(5, 7).T
    header = ["t", "x", "phi", "i"]
    columns = [T, X, phi, ints]
    assert written_csv(tmp_path, header, columns) == expected_csv(header, columns)
    assert written_csv(tmp_path, ["x"], [X]) == expected_csv(["x"], [X])


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], [np.zeros(3), np.zeros(4)]),
    (["a"], [np.zeros(3), np.zeros(3)]),
    (["a", "b", "c"], [np.zeros(3), np.zeros(3)]),
], ids=["unequal_lengths", "header_short", "header_long"])
def test_write_csv_rejects_mismatched_shapes(tmp_path, header, columns):
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "t.csv", header, columns)


# mesh columns: the broadcast views of the axes that _mesh returns, plus
# fields of one axis alone, such as the separable family's phi

AXIS_EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.0, 0.1]


def axis_values(n, rng):
    """`n` axis values: the edge values first, then doubles over many decades."""
    scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    return np.concatenate([AXIS_EDGES, scaled])[:n]


@pytest.mark.parametrize("m, k", [
    (1, 1), (1, 9), (9, 1), (CSV_BLOCK_ROWS + 3, 1), (700, 3), (3, CSV_BLOCK_ROWS + 5),
], ids=["1x1", "outer_1", "inner_1", "inner_1_block_remainder", "block_remainder",
        "inner_above_block"])
def test_write_csv_mesh_views_match_reference(tmp_path, m, k):
    rng = np.random.default_rng(m * k)
    T, X = _mesh(axis_values(m, rng), axis_values(k, rng))
    phi = np.broadcast_to(axis_values(m, rng)[::-1, None], (m, k))
    psi = np.broadcast_to(axis_values(k, rng)[::-1], (m, k))
    u, v = rng.standard_normal((2, m, k))
    # outer-only phi is not column 0 and inner-only psi is not column 1
    header = ["t", "x", "phi", "u", "psi", "v"]
    columns = [T, X, phi, u, psi, v]
    assert written_csv(tmp_path, header, columns) == expected_csv(header, columns)
    # views alone, inner axis first
    assert written_csv(tmp_path, header[:3], [X, T, phi]) == expected_csv(header[:3], [X, T, phi])


def test_write_csv_stride_zero_int_view_takes_converted_path(tmp_path):
    T, X = _mesh(np.array([0.0, -0.0, math.nan]), np.linspace(-1.0, 1.0, 4))
    ints = np.broadcast_to(np.arange(-1, 2)[:, None], T.shape)
    assert ints.strides[1] == 0
    for columns in ([T, X, ints], [np.array(T), np.array(X), ints]):
        assert written_csv(tmp_path, ["t", "x", "i"], columns) == \
            expected_csv(["t", "x", "i"], columns)


def test_write_csv_rejects_mismatched_views(tmp_path):
    T, X = _mesh(np.zeros(3), np.zeros(4))
    _, X5 = _mesh(np.zeros(3), np.zeros(5))
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "t.csv", ["t", "x"], [T, X5])
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "t.csv", ["t"], [T, X])


# ---------------------------------------------------------------------------
# the CSV writer's exact %.17g digits against format(v, ".17g"), and its one process


def exact_ties(rng, n):
    """Doubles m 2^-k whose exact decimal has 18 significant digits, the last a 5:
    the 17th digit is an exact tie, so round half to even decides it."""
    values = []
    for k in rng.integers(2, 26, n).tolist():
        lo, hi = -(-10**17 // 5**k), min((10**18 - 1) // 5**k, 2**53 - 1)
        m = int(rng.integers(lo, hi)) | 1  # odd, so the last digit of m 5^k is a 5
        assert len(str(m * 5**k)) == 18 and (m * 5**k) % 10 == 5
        values.append(m / 2**k)
    return np.array(values)


def formatter_edges():
    """10^k and its neighbours, the fixed-notation range edges and their
    neighbours, exact ties, signed zeros, the smallest subnormal, non-finite
    values, and doubles below 10^k whose 17 digits round up to it."""
    powers = 10.0 ** np.arange(-5, 18)
    edges = np.array([1e-4, 1e16])
    values = np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, math.inf),
        exact_ties(np.random.default_rng(17), 200),
        [0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf, 1e-14, 1e98]])
    for x, power in ((1e-14, Fraction(1, 10**14)), (1e98, Fraction(10**98))):
        assert Fraction(x) < power and Fraction(format(x, ".17g")) == power
    return np.concatenate([values, -values])


def bit_patterns(rng, n):
    """Doubles from uniform 64-bit patterns: every exponent, NaN payloads, subnormals."""
    return rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(float)


def assert_one_column_and_mesh_match(tmp, values):
    """`values` written as one column, and as the field of a mesh whose broadcast
    axes hold them too, give the reference bytes."""
    values = np.asarray(values, dtype=float)
    assert written_csv(tmp, ["v"], [values]) == expected_csv(["v"], [values])
    k = 7
    m = -(-values.size // k)
    axis = np.resize(values, m * k)
    T, X = _mesh(axis[:m], axis[-k:])
    phi = np.broadcast_to(axis[::-1][:m, None], (m, k))
    columns, header = [T, X, phi, axis.reshape(m, k)], ["t", "x", "phi", "u"]
    assert written_csv(tmp, header, columns) == expected_csv(header, columns)


def test_write_csv_formats_edge_values_as_format(tmp_path):
    assert_one_column_and_mesh_match(tmp_path, formatter_edges())


def test_write_csv_formats_many_doubles_as_format(tmp_path):
    rng = np.random.default_rng(20)
    n = CSV_BLOCK_ROWS + 17
    log_uniform = np.exp(rng.uniform(math.log(1e-8), math.log(1e20), n)) * rng.choice([-1, 1], n)
    for values in (rng.standard_normal(n), log_uniform, bit_patterns(rng, n),
                   exact_ties(rng, n)):
        assert_one_column_and_mesh_match(tmp_path, values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_write_csv_formats_hypothesis_floats_as_format(values):
    with tempfile.TemporaryDirectory() as tmp:
        assert_one_column_and_mesh_match(Path(tmp), values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_write_csv_formats_raw_bit_patterns_as_format(bits):
    with tempfile.TemporaryDirectory() as tmp:
        assert_one_column_and_mesh_match(Path(tmp), np.array(bits, dtype=np.uint64).view(float))


# the formatter's stages one at a time: splitting the 17 digits into groups by
# double division, counting their trailing zeros from the last group, and
# rounding half to even by one comparison


def assert_format17_is_format(values):
    values = np.asarray(values, dtype=float)
    slots = cli._format17(values).view(np.uint8).reshape(-1, 40)
    got = [bytes(slot).replace(b"\0", b"").decode() for slot in slots]
    assert got == [format(x, ".17g") for x in values.tolist()]


def digits17(x):
    """The 17 significant digits of x, as ``%.17g`` rounds them."""
    return format(x, ".16e").partition("e")[0].replace(".", "").lstrip("-")


def test_format17_counts_every_trailing_zero_depth():
    # N / 2^k is exact; its decimal N 5^k has 17 - depth significant digits, so
    # the last nonzero digit falls in each of the four groups and the leading digit
    rng = np.random.default_rng(32)
    values = []
    for depth in range(17):
        for k in range(30):
            lo = max(1, -(-10**(16 - depth) // 5**k))
            hi = min((10**(17 - depth) - 1) // 5**k, 2**53 - 1)
            if lo <= hi:
                n = rng.integers(lo, hi, 8, endpoint=True) | 1  # odd: N 5^k ends in 1-9
                values += [x for x in (n / 2.0**k).tolist() if 1e-4 <= x < 1e16]
    values = np.array(values)
    depths = {17 - len(digits17(x).rstrip("0")) for x in values.tolist()}
    assert depths == set(range(17))
    assert_format17_is_format(np.concatenate([values, -values]))


def test_format17_splits_digit_groups_at_their_edges():
    # doubles whose 17 digits have groups 0000 or 9999, or are a multiple of
    # 10^4 or 10^8 or one below it, at every decimal exponent of the fast path
    lead, groups = [1, 5, 9], [0, 1, 5000, 9999]
    targets = [d * 10**16 + a * 10**12 + b * 10**8 + c * 10**4 + e
               for d in lead for a in groups for b in groups for c in groups for e in groups]
    rng = np.random.default_rng(33)
    for unit in (10**4, 10**8):
        m = rng.integers(10**16 // unit, 10**17 // unit, 40)
        targets += [int(q) * unit for q in m] + [int(q) * unit - 1 for q in m]
    values = []
    for target in targets:
        for E in range(-4, 16):
            x = float(f"{target}e{E - 16}")
            values += [y for y in (np.nextafter(x, 0.0), x, np.nextafter(x, math.inf))
                       if digits17(y) == str(target)]
    hit = {int(digits17(x)) for x in values}
    assert {t % 10**4 for t in hit} >= {0, 1, 5000, 9999}
    assert {t // 10**4 % 10**4 for t in hit} >= {0, 1, 5000, 9999}
    assert {t % 10**8 for t in hit} >= {0, 99999999}
    assert len(hit) > len(targets) // 2
    assert_format17_is_format(np.concatenate([values, np.negative(values)]))


def test_format17_rounds_ties_to_even_both_ways():
    # each tie's exact decimal has 18 digits ending in 25 or 75 (an odd multiple
    # of 5^k, k >= 2): the even 17th digit 2 stays and the odd 7 rounds up
    ties = exact_ties(np.random.default_rng(34), 2000)
    truncated = []
    for x in ties.tolist():
        f = Fraction(x)
        exact = str(f.numerator * 5 ** (f.denominator.bit_length() - 1))
        truncated.append(int(exact[:17]))
        assert digits17(x) == str(truncated[-1] + truncated[-1] % 2)
    assert {t % 10 for t in truncated} == {2, 7}
    assert_format17_is_format(np.concatenate([ties, -ties]))


def test_format17_matches_format_on_raw_bit_patterns():
    # every exponent once, then the same significands with an exponent of the fast path
    bits = np.random.default_rng(35).integers(0, 2**64, 200_000, dtype=np.uint64)
    fast = (bits & np.uint64(0x800FFFFFFFFFFFFF)) | ((np.uint64(1010) + (bits >> np.uint64(52))
                                                      % np.uint64(67)) << np.uint64(52))
    assert_format17_is_format(bits.view(float))
    assert_format17_is_format(fast.view(float))


def test_large_write_stays_in_one_process(tmp_path, monkeypatch):
    forks = []
    fork = os.fork

    def spy():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", spy)
    rng = np.random.default_rng(50)
    T, X = _mesh(np.linspace(0.0, 1.0, 100), np.linspace(-1.0, 1.0, 300))
    u, v = rng.standard_normal((2, 100, 300))  # 60,000 full values
    header, columns = ["t", "x", "u", "v"], [T, X, u, v]
    assert written_csv(tmp_path, header, columns) == expected_csv(header, columns)
    assert forks == []
    assert os.listdir(tmp_path / "out") == ["t.csv"]


# ---------------------------------------------------------------------------
# the CSV writer's blocks: each column kind, and bytes that do not depend on the block size


def mesh_columns(m, k):
    """Both mesh axes, a field of each axis alone and two full fields, each
    axis and field holding NaN, +-inf and -0.0."""
    rng = np.random.default_rng(m * k)
    T, X = _mesh(axis_values(m, rng), axis_values(k, rng))
    phi = np.broadcast_to(axis_values(m, rng)[::-1, None], (m, k))
    psi = np.broadcast_to(axis_values(k, rng)[::-1], (m, k))
    u, v = rng.standard_normal((2, m, k))
    u.flat[:len(EDGE_VALUES)] = EDGE_VALUES[:u.size]
    v.flat[-len(EDGE_VALUES):] = EDGE_VALUES[-v.size:]
    return ["t", "x", "phi", "u", "psi", "v"], [T, X, phi, u, psi, v]


@pytest.mark.parametrize("m, k", [
    (7, 5), (2, 9), (1, 4), (CSV_BLOCK_ROWS - 1, 1), (CSV_BLOCK_ROWS + 1, 1),
    (5, CSV_BLOCK_ROWS + 3),
], ids=["rows_not_divisible", "two_rows", "one_row", "block_minus_one", "block_plus_one",
        "inner_above_block"])
def test_write_csv_column_kinds_match_reference(tmp_path, m, k):
    header, columns = mesh_columns(m, k)
    assert written_csv(tmp_path, header, columns) == expected_csv(header, columns)
    # each column kind alone, so the last column of a line is broadcast or full:
    # outer only, inner only, full only
    for picked in ([0, 2], [1, 4], [3, 5]):
        names, cols = [header[i] for i in picked], [columns[i] for i in picked]
        assert written_csv(tmp_path, names, cols) == expected_csv(names, cols)


@pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 13])
def test_write_csv_bytes_do_not_depend_on_block_size(tmp_path, monkeypatch, block):
    header, columns = mesh_columns(11, 6)
    wide_header, wide = mesh_columns(2, 17)  # inner axis longer than the block
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
    assert written_csv(tmp_path, header, columns) == expected_csv(header, columns)
    assert written_csv(tmp_path, wide_header, wide) == expected_csv(wide_header, wide)
    assert written_csv(tmp_path, ["u"], [columns[3]]) == expected_csv(["u"], [columns[3]])


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_artifacts_match_with_small_blocks(tmp_path, monkeypatch, path):
    command = json.loads(path.read_text())["command"]
    outs = []
    for block in (CSV_BLOCK_ROWS, 7):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
        outs.append(tmp_path / f"block{block}")
        assert main([command, "--config", str(path), "--out", str(outs[-1]), "--quiet"]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# one small config of every exact family
SINE = {"kind": "sine", "amp": 1.0, "freq": 1.0}
CUBIC = {"kind": "cubic", "mu0": 1.0, "mu1": 0.5}
EXACT_SOLUTIONS = {
    "carroll": {"modulus": CUBIC, "amplitude": 0.8, "wavenumber": 1.0,
                "x": {"min": 0.0, "max": TWO_PI, "n": 7}, "t": {"min": 0.0, "max": 1.0, "n": 5}},
    "generalized": {"modulus": CUBIC, "amplitude": 0.8, "profile": SINE,
                    "x": {"min": 0.0, "max": TWO_PI, "n": 7},
                    "t": {"min": 0.0, "max": 1.0, "n": 5}},
    "constant_amplitude": {"beta": 0.5, "amplitude": 1.0, "profile": SINE,
                           "X": {"min": 0.0, "max": 1.0, "n": 5},
                           "tau": {"min": 0.0, "max": TWO_PI, "n": 7}},
    "simple_wave": {"beta": 1.0, "profile": {**SINE, "amp": 0.5, "offset": 1.0},
                    "X": {"min": 0.0, "max": 0.2, "n": 5},
                    "tau": {"min": 0.0, "max": TWO_PI, "n": 7}},
    "separable": {"flux": {"kind": "product"}, "k": 0.3, "phi0": 0.3, "dphi0": 0.1,
                  "x": {"min": -1.0, "max": 1.0, "n": 7}, "t": {"min": 0.0, "max": 1.0, "n": 5}},
    "overdetermined": {"flux": {"kind": "product"}, "level": 2.0, "profile": SINE,
                       "x": {"min": 0.5, "max": 1.5, "n": 7},
                       "t": {"min": 0.0, "max": 0.5, "n": 5}},
}


def exact_config(kind, **changes):
    """An exact config of one EXACT_SOLUTIONS kind, on its own copy of the axes."""
    return {"command": "exact",
            "solution": {"kind": kind, **copy.deepcopy(EXACT_SOLUTIONS[kind]), **changes}}


@pytest.fixture(autouse=True)
def exact_solutions_unchanged():
    """Every test leaves the shared EXACT_SOLUTIONS as it found them."""
    snapshot = copy.deepcopy(EXACT_SOLUTIONS)
    yield
    assert EXACT_SOLUTIONS == snapshot, "the test changed the shared EXACT_SOLUTIONS"


def csv_data_lines(path):
    lines = path.read_bytes().split(b"\r\n")
    assert lines[-1] == b""
    return len(lines) - 2


@pytest.fixture
def csv_sizes(monkeypatch):
    """The size of column 0 of every _write_csv call, as the benchmark tracer counts rows."""
    sizes = []
    write_csv = cli._write_csv

    def spy(path, header, columns):
        sizes.append(np.asarray(columns[0]).size)
        return write_csv(path, header, columns)

    monkeypatch.setattr(cli, "_write_csv", spy)
    return sizes


@pytest.mark.parametrize("kind", sorted(EXACT_SOLUTIONS))
def test_exact_rows_count_csv_lines(tmp_path, csv_sizes, kind):
    cfg = exact_config(kind)
    code, out = run_cli(tmp_path, cfg, kind)
    assert code == 0
    rows = csv_data_lines(out / "samples.csv")
    assert rows == 35
    assert read_manifest(out)["rows"] == rows
    assert csv_sizes == [rows]


def test_simulate_snapshot_rows_count_csv_lines(tmp_path, csv_sizes):
    cfg = carroll_simulate_config(grid={"n": 16, "a": 0.0, "b": TWO_PI},
                                  run={"end": 0.3, "cfl": 0.45, "snapshot_stride": 1})
    code, out = run_cli(tmp_path, cfg, "snaps")
    assert code == 0
    manifest = read_manifest(out)
    rows = csv_data_lines(out / "snapshots.csv")
    assert len(manifest["diagnostics"]["snapshot_coords"]) > 2
    assert manifest["grid"]["n"] * len(manifest["diagnostics"]["snapshot_coords"]) == rows
    assert csv_sizes == [rows]


@pytest.mark.parametrize("kind", sorted(EXACT_SOLUTIONS))
def test_exact_fields_on_mesh_views_match_meshgrid_copies(monkeypatch, kind):
    sol = exact_config(kind)["solution"]
    header, views = cli._sample_exact(sol)
    assert views[0].strides[1] == 0 and views[1].strides[0] == 0
    monkeypatch.setattr(cli, "_mesh", lambda c, p: np.meshgrid(c, p, indexing="ij"))
    _, copies = cli._sample_exact(sol)
    for name, view, copy_ in zip(header, views, copies):
        assert np.ascontiguousarray(view).tobytes() == copy_.tobytes(), name


# every init kind with an exact family, and its system
ORACLE_INITS = {
    "carroll": ({"system": "full", "modulus": CUBIC},
                {"kind": "carroll", "amplitude": 0.8, "wavenumber": 2.0, "polarization": -1}),
    "generalized": ({"system": "full", "modulus": CUBIC},
                    {"kind": "generalized", "amplitude": 0.8, "profile": SINE, "direction": 1,
                     "polarization": -1}),
    "zero": ({"system": "full", "modulus": CUBIC}, {"kind": "zero"}),
    "constant_amplitude": ({"system": "asymptotic", "beta": 0.5},
                           {"kind": "constant_amplitude", "amplitude": 0.7, "profile": SINE}),
    "profile": ({"system": "scalar", "beta": 1.0},
                {"kind": "profile", "profile": {**SINE, "amp": 0.2, "offset": 1.0}}),
}


def test_fixtures_cover_every_family_they_claim():
    inits = {kind: name for name, system in cli.SYSTEMS.items() for kind in system.inits}
    assert set(ORACLE_INITS) == {kind for kind in inits if cli.FAMILIES[kind].build is not None}
    assert all(inits[kind] == system["system"] for kind, (system, _) in ORACLE_INITS.items())
    assert set(EXACT_SOLUTIONS) == set(cli.EXACT_KINDS)


def end_zero_config(kind):
    system, init = ORACLE_INITS[kind]
    return {"command": "simulate", **system, "grid": {"n": 16, "a": 0.0, "b": TWO_PI},
            "run": {"end": 0.0}, "init": init, "oracle_check": True}


def record_evolutions(monkeypatch, evolve=None):
    """Replace each system's ``cli.evolve_<system>`` with a recorder of its calls and
    results, which calls ``evolve`` if given and the original otherwise."""
    calls = {name: [] for name in cli.SYSTEMS}

    def recorder(name, original):
        def record(*args):
            out = (evolve or original)(*args)
            calls[name].append((args, out))
            return out
        return record
    for name in cli.SYSTEMS:
        monkeypatch.setattr(cli, f"evolve_{name}",
                            recorder(name, getattr(cli, f"evolve_{name}")))
    return calls


@pytest.mark.parametrize("name", sorted(cli.SYSTEMS))
def test_every_system_runs_through_its_own_evolve(tmp_path, monkeypatch, name):
    # an entry that bound its evolve_* at import would bypass the recorder
    system = cli.SYSTEMS[name]
    calls = record_evolutions(monkeypatch)
    coefficient, init = ORACLE_INITS[system.inits[0]]
    simulate = {**end_zero_config(system.inits[0]), "run": {"end": 0.1}}
    code, out = run_cli(tmp_path, simulate, "sim")
    assert code == 0
    header, data = read_csv_columns(out / "snapshots.csv")
    assert header == ["coordinate", "cell_center", *system.fields]
    assert data.shape[1] == 2 + len(system.fields)
    convergence = {"command": "convergence", **coefficient, "grid": {"a": 0.0, "b": TWO_PI},
                   "run": {"end": 0.1}, "levels": [16, 32],
                   "oracle": {**init, "kind": system.oracles[0]}}
    assert run_cli(tmp_path, convergence, "cnv")[0] == 0
    assert {other: len(runs) for other, runs in calls.items()} == {
        other: 3 if other == name else 0 for other in cli.SYSTEMS}
    for (_, grid, _, _), traj in calls[name]:
        assert traj.states.shape[1:] == (len(system.fields), grid.n)


@pytest.mark.parametrize("kind", sorted(ORACLE_INITS))
def test_oracle_at_end_zero_is_the_initial_state(tmp_path, kind):
    code, out = run_cli(tmp_path, end_zero_config(kind), kind)
    assert code == 0
    assert read_manifest(out)["oracle_error_linf"] == 0.0


@pytest.mark.parametrize("kind", ["carroll", "constant_amplitude"])
def test_initial_snapshot_is_the_exact_row_at_zero(tmp_path, kind):
    cfg = end_zero_config(kind)
    code, out = run_cli(tmp_path, cfg, "sim")
    assert code == 0
    header, snapshot = read_csv_columns(out / "snapshots.csv")
    centers = snapshot[:, 1]
    # the cell centers as an exact axis; linspace may differ from them in the last bit
    points = {"min": float(centers[0]), "max": float(centers[-1]), "n": len(centers)}
    zero_first = {"min": 0.0, "max": 1.0, "n": 2}
    if kind == "carroll":
        sol = {**cfg["init"], "modulus": cfg["modulus"], "x": points, "t": zero_first}
    else:
        sol = {**cfg["init"], "beta": cfg["beta"], "X": zero_first, "tau": points}
    code, out = run_cli(tmp_path, {"command": "exact", "solution": sol}, "exact")
    assert code == 0
    exact_header, exact = read_csv_columns(out / "samples.csv")
    row = exact[:len(centers)]
    assert np.all(row[:, 0] == 0.0)
    np.testing.assert_allclose(row[:, 1], centers, rtol=0.0, atol=1e-14)
    for name in header[2:]:
        np.testing.assert_allclose(row[:, exact_header.index(name)],
                                   snapshot[:, header.index(name)], rtol=0.0, atol=1e-14,
                                   err_msg=name)


def test_exact_constant_amplitude_rho_column_constant(tmp_path):
    cfg = {
        "command": "exact",
        "solution": {
            "kind": "constant_amplitude",
            "beta": 0.5,
            "amplitude": 1.25,
            "profile": {"kind": "sine", "amp": 1.0, "freq": 1.0},
            "X": {"min": 0.0, "max": 2.0, "n": 9},
            "tau": {"min": 0.0, "max": TWO_PI, "n": 33},
        },
    }
    code, out = run_cli(tmp_path, cfg, "exc")
    assert code == 0
    header, data = read_csv_columns(out / "samples.csv")
    rho = data[:, header.index("rho")]
    np.testing.assert_allclose(rho, 1.25, rtol=1e-12)


def test_hodograph_samples(tmp_path):
    cfg = {
        "command": "hodograph",
        "beta": 1.0,
        "phase": {"kind": "linear", "k": 1.0},
        "radial": {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]},
        "X": {"min": -0.55, "max": -0.45, "n": 7},
        "tau": {"min": -1.7, "max": -1.3, "n": 5},
        "seed": [0.5, 1.0],
    }
    code, out = run_cli(tmp_path, cfg, "hod")
    assert code == 0
    header, data = read_csv_columns(out / "samples.csv")
    assert header == ["X", "tau", "theta", "rho"]
    assert data.shape == (35, 4)
    assert np.all(data[:, 3] > 0)


def test_classify_ratio_flux_report(tmp_path):
    cfg = {
        "command": "classify",
        "flux": {"kind": "ratio"},
        "samples": {"u": {"min": 0.5, "max": 2.0, "n": 7},
                    "v": {"min": 0.5, "max": 2.0, "n": 7}},
    }
    code, out = run_cli(tmp_path, cfg, "cls")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["flags"]["completely_exceptional"] is True
    assert report["flags"]["equal_eigenvalues"] is True
    assert report["flags"]["decouples"] is None
    assert report["eigen"]["max_abs_grad2_dot_d2"] < 1e-10


def test_classify_constant_flux_special_case(tmp_path):
    cfg = {
        "command": "classify",
        "flux": {"kind": "poly", "coeffs": [[3.0]]},
        "samples": {"u": {"min": 0.5, "max": 2.0, "n": 5},
                    "v": {"min": 0.5, "max": 2.0, "n": 5}},
    }
    code, out = run_cli(tmp_path, cfg, "clc")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["constant_flux"] is True
    assert report["flags"]["completely_exceptional"] is True


def classify_config(kind, alpha=None):
    cfg = {
        "command": "classify",
        "flux": {"kind": kind},
        "samples": {"u": {"min": 0.5, "max": 1.5, "n": 5},
                    "v": {"min": 0.5, "max": 1.5, "n": 5}},
    }
    if alpha is not None:
        cfg["alpha"] = {"kind": alpha}
    return cfg


def test_classify_flux_as_its_own_chart(tmp_path):
    code, out = run_cli(tmp_path, classify_config("product", alpha="product"), "cla")
    assert code == 0
    code_default, out_default = run_cli(tmp_path, classify_config("product"), "cld")
    assert code_default == 0
    assert (json.loads((out / "report.json").read_text())
            == json.loads((out_default / "report.json").read_text()))


def test_classify_singular_chart_exits_three(tmp_path):
    code, out = run_cli(tmp_path, classify_config("ratio", alpha="ratio"), "clr")
    assert code == 3
    manifest = read_manifest(out)
    assert manifest["status"] == "error"
    error = manifest["error"]
    assert error["type"] == "SingularJacobian"
    # the ratio chart is singular everywhere, so the first sample fails first
    assert error["coordinate"] == [0.5, 0.5]
    assert "change of variables is singular at (u, v) = (0.5, 0.5)" in error["message"]


def test_verify_positive_study(tmp_path):
    cfg = {
        "command": "verify",
        "study": "asymptotic",
        "beta": 0.5,
        "solution": {"kind": "constant_amplitude", "amplitude": 1.0,
                     "profile": {"kind": "sine", "amp": 1.0, "freq": 1.0}},
        "rectangle": {"coord": {"min": 0.0, "max": 1.0},
                      "point": {"min": 0.0, "max": TWO_PI}},
        "levels": [33, 65, 129],
    }
    code, out = run_cli(tmp_path, cfg, "ver")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["order"] > 1.8


def scalar_simulate_config(**overrides):
    cfg = {
        "command": "simulate",
        "system": "scalar",
        "beta": 1.0,
        "grid": {"n": 256, "a": 0.0, "b": TWO_PI},
        "run": {"end": 0.3, "scheme": "muscl_minmod"},
        "init": {"kind": "profile",
                 "profile": {"kind": "sine", "amp": 0.2, "freq": 1.0, "offset": 1.0}},
        "oracle_check": True,
    }
    cfg.update(overrides)
    return cfg


def scalar_convergence_config(end):
    return {
        "command": "convergence",
        "system": "scalar",
        "beta": 1.0,
        "grid": {"a": 0.0, "b": TWO_PI},
        "run": {"end": end, "scheme": "muscl_minmod"},
        "levels": [64, 128, 256],
        "oracle": {"kind": "simple_wave",
                   "profile": {"kind": "sine", "amp": 0.2, "freq": 1.0, "offset": 1.0}},
        "order_target": 1.0,
    }


def test_scalar_oracle_matches_solver(tmp_path):
    # the solver's family is the simple wave of -beta; +beta is off by ~0.3
    code, out = run_cli(tmp_path, scalar_simulate_config(), "sco")
    assert code == 0
    assert read_manifest(out)["oracle_error_linf"] < 1e-2


def test_simulate_generalized_wave_matches_its_oracle(tmp_path):
    # a right-moving member of the generalized Carroll family, of the other polarization
    init = {"kind": "generalized", "amplitude": 0.5, "direction": 1, "polarization": -1,
            "profile": {"kind": "sine", "amp": 2.0, "freq": 1.0}}
    cfg = carroll_simulate_config(grid={"n": 128, "a": 0.0, "b": TWO_PI},
                                  run={"end": 1.0, "scheme": "muscl_minmod"}, init=init)
    code, out = run_cli(tmp_path, cfg, "gen")
    assert code == 0
    assert read_manifest(out)["oracle_error_linf"] < 2e-2


def test_scalar_convergence_below_breaking(tmp_path):
    # breaking sets in near X = 0.83 for this profile
    code, out = run_cli(tmp_path, scalar_convergence_config(0.3), "scc")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["linf"][-1] < 1e-3


def test_convergence_pass(tmp_path):
    cfg = {
        "command": "convergence",
        "system": "asymptotic",
        "beta": 0.5,
        "grid": {"a": 0.0, "b": TWO_PI},
        "run": {"end": 0.5, "scheme": "lax_friedrichs"},
        "levels": [16, 32, 64],
        "oracle": {"kind": "constant_amplitude", "amplitude": 1.0,
                   "profile": {"kind": "sine", "amp": 1.0, "freq": 1.0}},
        "order_target": 0.7,
    }
    code, out = run_cli(tmp_path, cfg, "cnv")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert len(report["linf"]) == 3


# ---------------------------------------------------------------------------
# failure exit codes


def test_verify_negative_control_exits_one(tmp_path):
    cfg = {
        "command": "verify",
        "study": "asymptotic",
        "beta": 0.5,
        "negative_control": True,
        "rectangle": {"coord": {"min": 0.0, "max": 1.0},
                      "point": {"min": 0.0, "max": TWO_PI}},
        "levels": [33, 65, 129],
    }
    code, out = run_cli(tmp_path, cfg, "vnc")
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert report["control_confirmed"] is True


SYMMETRY = {"phase": {"kind": "linear", "k": 1.0},
            "radial": {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]}}
CONSERVATION = {"amp_weight": {"kind": "const", "c": 0.0},
                "angle_weight": {"kind": "linear", "k": 1.0}}
RECTANGLE = {"coord": {"min": 0.0, "max": 1.0}, "point": {"min": 0.0, "max": TWO_PI}}
NEGATIVE_CONTROL_CONFIGS = {
    "full": {"rectangle": RECTANGLE, "levels": [33, 65],
             "solution": {"kind": "carroll",
                          "modulus": {"kind": "cubic", "mu0": 1.0, "mu1": 0.5},
                          "amplitude": 1.0, "wavenumber": 1.0}},
    "asymptotic": {"beta": 0.5, "rectangle": RECTANGLE, "levels": [33, 65]},
    "conservation": {"beta": 0.5, "rectangle": RECTANGLE, "levels": [33, 65],
                     "conservation": CONSERVATION},
    "linearized_symmetry": {"beta": 1.0, "levels": [33, 65],
                            "symmetry": SYMMETRY,
                            "solution": {"kind": "hodograph", **SYMMETRY,
                                         "seed": [0.5, 1.0]},
                            "rectangle": {"coord": {"min": -0.55, "max": -0.45},
                                          "point": {"min": -1.7, "max": -1.3}}},
    "commutator": {"beta": 1.0, "symmetry": SYMMETRY},
}


@pytest.mark.parametrize("study", sorted(NEGATIVE_CONTROL_CONFIGS))
def test_every_negative_control_study_exits_one(tmp_path, study):
    cfg = {"command": "verify", "study": study, "negative_control": True,
           **NEGATIVE_CONTROL_CONFIGS[study]}
    code, out = run_cli(tmp_path, cfg, "enc")
    assert code == 1
    manifest = read_manifest(out)
    assert manifest["status"] == "ok"
    assert manifest["passed"] is False
    assert json.loads((out / "report.json").read_text())["control_confirmed"] is True


def test_negative_control_configs_cover_every_study(tmp_path, capsys):
    assert set(NEGATIVE_CONTROL_CONFIGS) == set(cli.STUDIES)
    # a control runs without a solution exactly where its study does not require one
    bare = {study for study, cfg in NEGATIVE_CONTROL_CONFIGS.items() if "solution" not in cfg}
    assert bare == {name for name, s in cli.STUDIES.items() if "solution" not in s.required}
    for study in sorted(set(cli.STUDIES) - bare):
        cfg = {"command": "verify", "study": study, "negative_control": True,
               **_without(NEGATIVE_CONTROL_CONFIGS[study], "solution")}
        assert run_cli(tmp_path, cfg, f"bare_{study}")[0] == 2
        assert "'solution' is a required property" in capsys.readouterr().err


def test_full_control_still_rejects_a_solution_that_names_no_wave(tmp_path, capsys):
    # Q(s) = 1 + s - 0.011 s^2 is positive on the control's noise but not at A^2 = 100:
    # the control builds the Carroll wave for its input checks, and the build fails
    solution = {**NEGATIVE_CONTROL_CONFIGS["full"]["solution"], "amplitude": 10.0,
                "modulus": {"kind": "poly", "coeffs": [1.0, 1.0, -0.011]}}
    cfg = {"command": "verify", "study": "full", "negative_control": True,
           **NEGATIVE_CONTROL_CONFIGS["full"], "solution": solution}
    code, out = run_cli(tmp_path, cfg, "nowave")
    assert code == 3
    assert "NonPositiveModulus: Q(100.0)" in capsys.readouterr().err
    assert read_manifest(out)["error"]["type"] == "NonPositiveModulus"


def test_unconfirmed_negative_control_exits_one(tmp_path):
    # the angle-squared shift is a true symmetry of a constant-amplitude
    # envelope, so the control's residual decays and the control is not confirmed
    cfg = {**small_config("verify"), "study": "linearized_symmetry", "negative_control": True,
           "levels": [17, 33, 65], "symmetry": SYMMETRY}
    code, out = run_cli(tmp_path, cfg, "unc")
    assert code == 1
    assert read_manifest(out)["passed"] is False
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["control_confirmed"] is False


def test_convergence_missed_target_exits_one(tmp_path):
    cfg = {
        "command": "convergence",
        "system": "asymptotic",
        "beta": 0.5,
        "grid": {"a": 0.0, "b": TWO_PI},
        "run": {"end": 0.5, "scheme": "lax_friedrichs"},
        "levels": [16, 32],
        "oracle": {"kind": "constant_amplitude", "amplitude": 1.0,
                   "profile": {"kind": "sine", "amp": 1.0, "freq": 1.0}},
        "order_target": 3.0,
    }
    code, out = run_cli(tmp_path, cfg, "cnf")
    assert code == 1
    assert json.loads((out / "report.json").read_text())["passed"] is False


def test_negative_cfl_exits_two(tmp_path):
    cfg = carroll_simulate_config()
    cfg["run"]["cfl"] = -0.1
    code, _ = run_cli(tmp_path, cfg, "cfl")
    assert code == 2


def test_unknown_key_exits_two(tmp_path):
    cfg = carroll_simulate_config()
    cfg["extra_knob"] = 7
    code, _ = run_cli(tmp_path, cfg, "unk")
    assert code == 2


def test_command_mismatch_exits_two(tmp_path):
    code, _ = run_cli(tmp_path, carroll_simulate_config(), "mis", command="exact")
    assert code == 2


def test_missing_config_exits_two(tmp_path):
    out = tmp_path / "out_missing"
    code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(out), "--quiet"])
    assert code == 2


def test_malformed_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "out_broken"), "--quiet"])
    assert code == 2


def test_directory_as_config_exits_two(tmp_path, capsys):
    # a directory, like a file this process may not read, fails to open
    out = tmp_path / "out"
    code = main(["exact", "--config", str(tmp_path), "--out", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {tmp_path}: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_too_deeply_nested_config_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    out = tmp_path / "out"
    code = main(["exact", "--config", str(path), "--out", str(out), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err == "config error: config is not valid JSON: nested too deeply\n"
    assert not out.exists()


def _carroll_exact_config():
    return exact_config("carroll")


# an axis or grid whose width overflows a double, though both of its ends are finite
WIDE_AXIS = {"min": -1e308, "max": 1e308, "n": 3}
WIDE_GRID = {"a": -1e308, "b": 1e308}


AXIS_OVERFLOWS = "axis width max - min overflows a double"
GRID_OVERFLOWS = "grid width b - a overflows a double"


@pytest.mark.parametrize("config, path, value, message", [
    (_carroll_exact_config, ("solution", "x"), WIDE_AXIS, AXIS_OVERFLOWS),
    (lambda: small_config("hodograph"), ("X",), WIDE_AXIS, AXIS_OVERFLOWS),
    (lambda: small_config("classify"), ("samples", "u"), WIDE_AXIS, AXIS_OVERFLOWS),
    (lambda: carroll_simulate_config(init={"kind": "zero"}), ("grid",), {"n": 16, **WIDE_GRID},
     GRID_OVERFLOWS),
    (lambda: small_config("convergence"), ("grid",), WIDE_GRID, GRID_OVERFLOWS),
    (lambda: {"command": "verify", "study": "full",
              **copy.deepcopy(NEGATIVE_CONTROL_CONFIGS["full"])},
     ("rectangle", "point"), {"min": -1e308, "max": 1e308}, AXIS_OVERFLOWS),
    (lambda: small_config("verify"), ("rectangle", "coord"), {"min": 0.5, "max": 0.5},
     "axis needs max > min"),
], ids=["exact", "hodograph", "classify", "simulate", "convergence", "verify", "verify_empty"])
def test_width_that_overflows_a_double_exits_two(tmp_path, capsys, config, path, value, message):
    cfg = config()
    _get(cfg, path[:-1])[path[-1]] = value
    with warnings.catch_warnings():  # the config is rejected before any numpy work
        warnings.simplefilter("error")
        code, out = run_cli(tmp_path, cfg, "wide")
    assert code == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("name", ["breaking", "simulate", "convergence", "carroll_convergence",
                                  "generalized_convergence"])
def test_grid_whose_spacing_underflows_exits_two(tmp_path, capsys, name):
    # b = 5e-324 > a = 0, but h = (b - a)/n underflows to 0, which the
    # gradient monitor would divide by
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    cfg["grid"]["b"] = 5e-324
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(tmp_path, cfg, "tiny")
    assert code == 2
    assert capsys.readouterr() == (
        "", "config error: grid spacing (b - a)/n = 0.0 is not positive\n")
    assert not out.exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("config, path", [
    (carroll_simulate_config, ("init", "amplitude")),
    (_carroll_exact_config, ("solution", "x", "max")),
    (carroll_simulate_config, ("grid", "b")),
], ids=["init_block", "axis", "grid_bound"])
def test_non_json_number_literals_exit_two(tmp_path, capsys, literal, config, path):
    cfg = config()
    _get(cfg, path[:-1])[path[-1]] = float(literal.lower().replace("infinity", "inf"))
    text = json.dumps(cfg)
    assert literal in text
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(tmp_path, cfg, "literal")
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (out / "manifest.json").exists()


BIG_INT = "1" + "0" * 400


@pytest.mark.parametrize("config, path, literal", [
    (_carroll_exact_config, ("solution", "amplitude"), "1e400"),
    (carroll_simulate_config, ("run", "end"), "1e400"),
    (lambda: {"command": "verify", "study": "commutator", "beta": 1.0, "jets": 5,
              "symmetry": {"phase": {"kind": "linear", "k": 1.0},
                           "radial": {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]}}},
     ("beta",), "1e400"),
    (lambda: small_config("hodograph"), ("X", "max"), BIG_INT),
    (_carroll_exact_config, ("solution", "amplitude"), BIG_INT),
    (lambda: exact_config("constant_amplitude"), ("solution", "beta"), "-" + BIG_INT),
], ids=["exact_amplitude", "run_end", "commutator_beta", "axis_int", "amplitude_int", "beta_int"])
def test_out_of_range_numerals_exit_two(tmp_path, capsys, config, path, literal):
    # json reads such a numeral as inf, or as an int no double can hold
    cfg = config()
    _get(cfg, path[:-1])[path[-1]] = 12345.5
    text = json.dumps(cfg).replace("12345.5", literal)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    code = main([cfg["command"], "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"config error: config is not valid JSON: {literal} overflows a double\n"
    assert not out.exists()


@pytest.mark.parametrize("command, below", [("simulate", ""), ("exact", "sub")],
                         ids=["out_is_a_file", "out_under_a_file"])
def test_unusable_out_exits_two_before_running(tmp_path, capsys, monkeypatch, command, below):
    ran = []
    monkeypatch.setitem(cli.HANDLERS, command, lambda config, outdir: ran.append(command))
    blocker = tmp_path / "F"
    blocker.write_text("kept")
    out = blocker / below if below else blocker
    path = tmp_path / "c.json"
    path.write_text(json.dumps(small_config(command)))
    code = main([command, "--config", str(path), "--out", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"config error: output directory {out}: {blocker} is not a directory\n"
    assert ran == []
    assert blocker.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F", "c.json"]


@pytest.mark.parametrize("below", ["", "sub"], ids=["out_is_dangling", "out_under_dangling"])
def test_out_at_a_dangling_symlink_exits_two_before_running(tmp_path, capsys, monkeypatch, below):
    ran = []
    monkeypatch.setitem(cli.HANDLERS, "classify", lambda config, outdir: ran.append(1))
    link = tmp_path / "L"
    link.symlink_to(tmp_path / "gone")
    out = link / below if below else link
    path = tmp_path / "c.json"
    path.write_text(json.dumps(small_config("classify")))
    code = main(["classify", "--config", str(path), "--out", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"config error: output directory {out}: {link} is not a directory\n"
    assert ran == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["L", "c.json"]


# each size asks numpy for at least 10**12 doubles, which it refuses at once
IMPOSSIBLE_SIZES = {
    "exact_axis": (lambda: small_config("exact"), ("solution", "X", "n")),
    "simulate_grid": (lambda: small_config("simulate"), ("grid", "n")),
    "verify_jets": (lambda: {"command": "verify", "study": "commutator", "beta": 1.0,
                             "symmetry": {"phase": {"kind": "linear", "k": 1.0},
                                          "radial": {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]}},
                             "jets": 5}, ("jets",)),
}


@pytest.mark.parametrize("name", sorted(IMPOSSIBLE_SIZES))
def test_size_that_does_not_fit_in_memory_exits_two(tmp_path, capsys, name):
    config, path = IMPOSSIBLE_SIZES[name]
    cfg = config()
    _get(cfg, path[:-1])[path[-1]] = 10**12
    code, out = run_cli(tmp_path, cfg, name)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: Unable to allocate") and err.count("\n") == 1
    assert not out.exists()


def _strict_json(path):
    def reject(literal):
        raise ValueError(f"{path.name} holds the non-JSON number {literal}")

    return json.loads(path.read_text(), parse_constant=reject)


# every residual of this study lies under the zero floor, so its fitted order is infinite
ZERO_RESIDUAL_STUDY = {"command": "verify", "study": "asymptotic", "beta": 0.5,
                       "solution": {"kind": "constant_amplitude", "amplitude": 1.0,
                                    "profile": {"kind": "linear", "k": 1.0}},
                       "rectangle": {"coord": {"min": 0.0, "max": 1.0},
                                     "point": {"min": 0.0, "max": TWO_PI}},
                       "levels": [9, 17]}


@pytest.mark.parametrize("config", [*SHIPPED_CONFIGS, ZERO_RESIDUAL_STUDY],
                         ids=[*(p.stem for p in SHIPPED_CONFIGS), "zero_residual_study"])
def test_json_artifacts_are_strict_json(tmp_path, config):
    if isinstance(config, Path):
        config = json.loads(config.read_text())
    code, out = run_cli(tmp_path, config, "strict")
    assert code == 0
    docs = {p.name: _strict_json(p) for p in sorted(out.glob("*.json"))}
    assert "manifest.json" in docs
    if config is ZERO_RESIDUAL_STUDY:
        assert docs["report.json"]["order"] is None


def test_missing_oracle_exits_two(tmp_path):
    cfg = {
        "command": "convergence",
        "system": "asymptotic",
        "beta": 0.5,
        "grid": {"a": 0.0, "b": TWO_PI},
        "run": {"end": 0.5},
        "levels": [16, 32],
    }
    code, _ = run_cli(tmp_path, cfg, "noor")
    assert code == 2


def test_simulate_blowup_exits_three(tmp_path):
    cfg = {
        "command": "simulate",
        "system": "asymptotic",
        "beta": 1.0,
        "grid": {"n": 128, "a": 0.0, "b": TWO_PI, "boundary": "periodic"},
        "run": {"end": 5.0, "scheme": "muscl_minmod", "blowup_factor": 5.0},
        "init": {"kind": "plane", "profile": {"kind": "sine", "amp": 1.0, "freq": 1.0}},
    }
    code, out = run_cli(tmp_path, cfg, "blow")
    assert code == 3
    manifest = read_manifest(out)
    assert manifest["status"] == "error"
    assert manifest["error"]["type"] == "BlowupDetected"
    assert 0.0 < manifest["error"]["coordinate"] < 5.0


def test_hyperbolicity_loss_names_its_coordinate(tmp_path):
    # Q = 1 - 0.4 s: the Carroll wave's strain s = 1.5 has Q > 0 but
    # Q + 2 s Q' < 0, so the state fails the first step, from coordinate 0
    cfg = {"command": "simulate", "system": "full",
           "modulus": {"kind": "cubic", "mu0": 1.0, "mu1": -0.4},
           "grid": {"n": 128, "a": 0.0, "b": TWO_PI}, "run": {"end": 0.5},
           "init": {"kind": "carroll", "amplitude": math.sqrt(1.5), "wavenumber": 1.0}}
    code, out = run_cli(tmp_path, cfg, "hyp")
    assert code == 3
    error = read_manifest(out)["error"]
    assert error["type"] == "HyperbolicityLoss"
    assert error["coordinate"] == 0.0


@pytest.mark.parametrize("modulus, init", [
    # the zero plateau has Q(0) = mu0 = 0, so the first step fails, from 0
    ({"kind": "cubic", "mu0": 0.0, "mu1": -1.0}, {"kind": "zero"}),
    # Q = 2 s - 1 > 0 on the wave, but Lax-Friedrichs damps an unresolved
    # wave until s < 1/2, some steps in
    ({"kind": "cubic", "mu0": -1.0, "mu1": 2.0},
     {"kind": "carroll", "amplitude": math.sqrt(0.55), "wavenumber": 3.0}),
], ids=["zero_plateau", "damped_wave"])
def test_non_positive_modulus_names_its_coordinate(tmp_path, modulus, init):
    cfg = {"command": "simulate", "system": "full", "modulus": modulus,
           "grid": {"n": 16, "a": 0.0, "b": TWO_PI},
           "run": {"end": 5.0, "scheme": "lax_friedrichs"}, "init": init}
    code, out = run_cli(tmp_path, cfg, "npm")
    assert code == 3
    error = read_manifest(out)["error"]
    assert error["type"] == "NonPositiveModulus"
    if init["kind"] == "zero":
        assert error["coordinate"] == 0.0
    else:
        assert 0.0 < error["coordinate"] < 1.0


def test_non_finite_initial_state_exits_three_with_strict_json_manifest(tmp_path):
    # freq * tau overflows to inf, and sin(inf) is NaN
    cfg = {
        "command": "simulate",
        "system": "asymptotic",
        "beta": 1,
        "grid": {"n": 64, "a": 0.0, "b": TWO_PI},
        "run": {"end": 0.1},
        "init": {"kind": "plane", "profile": {"kind": "sine", "amp": 1, "freq": 1e308}},
    }
    with np.errstate(all="ignore"):
        code, out = run_cli(tmp_path, cfg, "nonfinite")
    assert code == 3

    def reject(literal):
        raise ValueError(f"non-JSON number {literal}")

    error = json.loads((out / "manifest.json").read_text(), parse_constant=reject)["error"]
    assert error["type"] == "BlowupDetected"
    assert error["message"] == "non-finite initial state"
    assert error["coordinate"] == 0.0


def test_separable_blowup_exits_three(tmp_path):
    # phi'' = phi^3 from phi = phi' = 1 blows up before t = 5
    cfg = {"command": "exact",
           "solution": {"kind": "separable", "flux": {"kind": "product"},
                        "k": 1.0, "phi0": 1.0, "dphi0": 1.0,
                        "x": {"min": -1.0, "max": 1.0, "n": 5},
                        "t": {"min": 0.0, "max": 5.0, "n": 51}}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(tmp_path, cfg, "sepblow")
    assert code == 3
    error = read_manifest(out)["error"]
    assert error["type"] == "BlowupDetected"
    assert error["coordinate"] == pytest.approx(1.6)
    assert "t = 1.6" in error["message"]


def test_hodograph_fold_seed_exits_three(tmp_path):
    cfg = {
        "command": "hodograph",
        "beta": 1.0,
        "phase": {"kind": "linear", "k": 1.0},
        "radial": {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]},
        "X": {"min": -1.1, "max": -0.9, "n": 5},
        "tau": {"min": -0.1, "max": 0.1, "n": 5},
        "seed": [0.0, 1.0],
    }
    code, out = run_cli(tmp_path, cfg, "fold")
    assert code == 3
    manifest = read_manifest(out)
    assert manifest["status"] == "error"
    assert manifest["error"]["type"] == "SingularJacobian"
    assert manifest["error"]["coordinate"] == [-1.1, -0.1]


def test_hodograph_off_image_in_later_columns_exits_three(tmp_path):
    # with phase theta and radial rho^2 the map's image is
    # rho^2 = -tau / (3 (X + 1)), so for X > -1 the tau columns from the fold
    # at tau = 0 on have no root: the array passes fail part-way through the
    # rectangle and the march names the first failing point
    cfg = {
        "command": "hodograph",
        "beta": 1.0,
        "phase": {"kind": "linear", "k": 1.0},
        "radial": {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]},
        "X": {"min": -0.6, "max": -0.4, "n": 5},
        "tau": {"min": -0.4, "max": 0.1, "n": 11},
        "seed": [0.15, 0.6],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(tmp_path, cfg, "offimage")
    assert code == 3
    error = read_manifest(out)["error"]
    assert error["type"] == "NoConvergence"
    assert error["coordinate"] == [-0.6, 0.0]


def test_simple_wave_failure_names_its_point(tmp_path):
    # past breaking, Newton warm-started from the row X = 0.5 stalls at
    # X = 1.0 on the sixth tau node first
    sine = {"kind": "sine", "amp": 0.5, "freq": 1.0, "offset": 1.0}
    cfg = {"command": "exact",
           "solution": {"kind": "simple_wave", "beta": 1.0, "profile": sine,
                        "X": {"min": 0.0, "max": 2.0, "n": 5},
                        "tau": {"min": 0.0, "max": TWO_PI, "n": 9}}}
    code, out = run_cli(tmp_path, cfg, "swfail")
    assert code == 3
    error = read_manifest(out)["error"]
    point = [1.0, float(np.linspace(0.0, TWO_PI, 9)[5])]
    assert error["type"] == "NoConvergence"
    assert error["coordinate"] == point
    assert f"at (X, tau) = ({point[0]!r}, {point[1]!r})" in error["message"]


@pytest.mark.parametrize("cfg, message", [
    # 3 beta X is inf * 0 = NaN even on the row X = 0, whose answer is Phi(tau)
    ({"command": "exact",
      "solution": {"kind": "simple_wave", "beta": 1e308,
                   "profile": {"kind": "sine", "amp": 0.2, "freq": 1.0, "offset": 1.0},
                   "X": {"min": 0.0, "max": 0.5, "n": 5},
                   "tau": {"min": 0.0, "max": TWO_PI, "n": 9}}},
     "3 beta X or 6 beta X is not finite at beta = 1e+308"),
    # e^{kx} overflows once k x > 709.8; its row t = 0 is the first
    (exact_config("separable", x={"min": 0.0, "max": 1e308, "n": 3}),
     "u is not finite at (t, x) = (0.0, 5e+307)"),
    # omega t overflows at t = 1e308 (omega 2.3), and cos(inf) is NaN
    (exact_config("carroll", wavenumber=2.0, t={"min": 0.0, "max": 1e308, "n": 3}),
     "U is not finite at (t, x) = (1e+308, 0.0)"),
    # the chart alpha = 1e308 u^2: its partial's coefficient 2 * 1e308 overflows when built
    ({"command": "classify", "flux": {"kind": "poly", "coeffs": [[1.0, 1.0]]},
      "alpha": {"kind": "poly", "coeffs": [[0.0], [0.0], [1e308]]},
      "samples": {"u": {"min": 0.5, "max": 1.0, "n": 5}, "v": {"min": 0.5, "max": 1.0, "n": 5}}},
     "a derivative coefficient of coeffs = [[0.0], [0.0], [1e+308]] is not finite"),
], ids=["simple_wave_beta", "separable_x", "carroll_t", "classify_alpha_derivative"])
def test_exact_parameter_that_overflows_exits_two(tmp_path, capsys, cfg, message):
    # one line on stderr and no artifacts: numpy's overflow warnings stay silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(tmp_path, cfg, "ovf")
    assert code == 2
    assert capsys.readouterr() == ("", f"config error: a parameter overflows a double: {message}\n")
    assert not out.exists()


def test_level_set_failure_names_its_point(tmp_path):
    # U = sin(x) on the row t = 0: u v = 2 has no root v <= 10 once u < 0.2,
    # first at x = 3.0
    cfg = {"command": "exact",
           "solution": {"kind": "overdetermined", "flux": {"kind": "product"}, "level": 2.0,
                        "profile": {"kind": "sine", "amp": 1.0, "freq": 1.0},
                        "x": {"min": 0.5, "max": 4.5, "n": 9},
                        "t": {"min": 0.0, "max": 0.5, "n": 3}}}
    code, out = run_cli(tmp_path, cfg, "lsfail")
    assert code == 3
    error = read_manifest(out)["error"]
    assert error["type"] == "NoConvergence"
    assert "no sign change" in error["message"]
    assert error["coordinate"] == [3.0, 0.0]
    assert "at (x, t) = (3.0, 0.0)" in error["message"]


def test_scalar_convergence_past_breaking_exits_three(tmp_path):
    code, out = run_cli(tmp_path, scalar_convergence_config(1.0), "scb")
    assert code == 3
    manifest = read_manifest(out)
    assert manifest["status"] == "error"
    assert manifest["error"]["type"] == "OracleFailure"
    assert "simple-wave" in manifest["error"]["message"]
    # the simple wave's own failing point, on the finest level's cell centers
    assert manifest["error"]["coordinate"] == [1.0, float(Grid1D(256, 0.0, TWO_PI).centers[136])]


def test_oracle_check_past_breaking_is_an_oracle_failure(tmp_path):
    # the same simple-wave failure as a convergence study's, with its point
    cfg = json.loads(next(p for p in SHIPPED_CONFIGS if p.name == "breaking.json").read_text())
    cfg["oracle_check"] = True
    code, out = run_cli(tmp_path, cfg, "brk")
    assert code == 3
    error = read_manifest(out)["error"]
    assert error["type"] == "OracleFailure"
    assert "at n=1024" in error["message"] and "simple-wave" in error["message"]
    point = [cfg["run"]["end"], float(Grid1D(1024, 0.0, TWO_PI).centers[455])]
    assert error["coordinate"] == point


# rho = 1 stays finite, but the angle 1e306 (X + tau)^3 overflows once X + tau > 1
OVERFLOWING_ENVELOPE = {"kind": "constant_amplitude", "amplitude": 1.0,
                        "profile": {"kind": "poly", "coeffs": [0.0, 0.0, 0.0, 1e306]}}


def overflowing_config(command, b=1.0, oracle=True):
    """An asymptotic run on [0, b] to X = 5 from OVERFLOWING_ENVELOPE; with
    b = 1 its state at X = 0 is finite and its oracle at X = 5 is not."""
    cfg = {"command": command, "system": "asymptotic", "beta": 1.0,
           "run": {"end": 5.0, "scheme": "lax_friedrichs"}}
    if command == "convergence":
        return {**cfg, "grid": {"a": 0.0, "b": b}, "levels": [8, 16],
                "oracle": OVERFLOWING_ENVELOPE}
    cfg.update(grid={"n": 8, "a": 0.0, "b": b}, init=OVERFLOWING_ENVELOPE)
    if oracle:
        cfg["oracle_check"] = True
    return cfg


def test_oracle_check_non_finite_oracle_exits_three(tmp_path):
    code, out = run_cli(tmp_path, overflowing_config("simulate"), "ovf")
    assert code == 3
    manifest = read_manifest(out)
    assert manifest["error"]["type"] == "OracleFailure"
    assert "non-finite" in manifest["error"]["message"]
    assert "oracle_error_linf" not in manifest


@pytest.mark.parametrize("beta, amplitude", [(10**300, 10**10), (1e300, 1e10)],
                         ids=["integers", "doubles"])
def test_integer_beta_is_read_as_a_double(tmp_path, beta, amplitude):
    # beta A^2 overflows a double to inf, so the initial state is not finite; an
    # integer beta kept exact would instead fail to convert to a double (exit 2)
    cfg = {"command": "simulate", "system": "asymptotic", "beta": beta,
           "grid": {"n": 16, "a": 0.0, "b": TWO_PI}, "run": {"end": 0.1},
           "init": {"kind": "constant_amplitude", "amplitude": amplitude, "profile": SINE}}
    code, out = run_cli(tmp_path, cfg, "int")
    assert code == 3
    assert read_manifest(out)["error"]["message"] == "non-finite initial state"


# scripts/configs/hodograph.json with a beta whose map overflows at the seed
OVERFLOWING_HODOGRAPH = {**json.loads((CONFIG_DIR / "hodograph.json").read_text()), "beta": 1e300}
# scripts/configs/breaking.json and simulate.json with a coefficient that overflows
# the first step; the state is non-finite after it
OVERFLOWING_SCALAR = {**json.loads((CONFIG_DIR / "breaking.json").read_text()), "beta": -1e308}
OVERFLOWING_FULL = json.loads((CONFIG_DIR / "simulate.json").read_text())
OVERFLOWING_FULL["modulus"]["mu1"] = 1e308
# scripts/configs/classify.json with samples where v^2 underflows, so the ratio
# flux's P_v is -inf; and a poly flux whose P overflows while P_v = 0, which
# the constant-flux check must not take for a constant
OUT_OF_DOMAIN_CLASSIFY = json.loads((CONFIG_DIR / "classify.json").read_text())
OUT_OF_DOMAIN_CLASSIFY["samples"]["v"]["min"] = 1e-300
OVERFLOWING_CLASSIFY = {"command": "classify",
                        "flux": {"kind": "poly", "coeffs": [[1e308], [1e308]]},
                        "samples": {"u": {"min": 1.0, "max": 2.0, "n": 5},
                                    "v": {"min": 0.5, "max": 2.0, "n": 5}}}
# P = 1e308 v is finite on [0.5, 1]^2, but lambda1's gradient 2 P_v is not
OVERFLOWING_EIGEN_CLASSIFY = {"command": "classify",
                              "flux": {"kind": "poly", "coeffs": [[0.0, 1e308]]},
                              "samples": {"u": {"min": 0.5, "max": 1.0, "n": 5},
                                          "v": {"min": 0.5, "max": 1.0, "n": 5}}}


@pytest.mark.parametrize("cfg, failure", [
    (overflowing_config("simulate"), "OracleFailure: oracle returned non-finite values at n=8"),
    (overflowing_config("convergence"),
     "OracleFailure: oracle returned non-finite values at n=8"),
    (overflowing_config("simulate", b=6.3, oracle=False),
     "BlowupDetected: non-finite initial state"),
    (OVERFLOWING_HODOGRAPH,
     "NoConvergence: hodograph Newton damping exhausted at (X, tau) = (-0.55, -1.7)"),
    (OVERFLOWING_SCALAR, "BlowupDetected: non-finite state at coordinate 0.0"),
    (OVERFLOWING_FULL, "BlowupDetected: non-finite state at coordinate 0.0"),
    (OUT_OF_DOMAIN_CLASSIFY,
     "SingularJacobian: P or a partial of P is not finite at (u, v) = (0.5, 1e-300)"),
    (OVERFLOWING_CLASSIFY,
     "SingularJacobian: P or a partial of P is not finite at (u, v) = (1.0, 0.5)"),
    (OVERFLOWING_EIGEN_CLASSIFY,
     "SingularJacobian: lambda1 or its gradient is not finite at (u, v) = (0.5, 0.5)"),
], ids=["simulate_oracle", "convergence_oracle", "simulate_init", "hodograph_beta",
        "simulate_scalar_step", "simulate_full_step", "classify_domain", "classify_overflow",
        "classify_eigen_overflow"])
def test_overflow_prints_only_the_failure_line(tmp_path, cfg, failure):
    # numpy's overflow warnings would reach stderr ahead of the failure line
    path, out = tmp_path / "c.json", tmp_path / "o"
    path.write_text(json.dumps(cfg))
    proc = subprocess.run([sys.executable, "-m", "shearwaves", cfg["command"], "--config",
                           str(path), "--out", str(out), "--quiet"],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == f"{cfg['command']} failed: {failure} (manifest in {out})\n"


def test_full_residual_that_overflows_misses_its_target_quietly(tmp_path):
    # scripts/configs/full_residual.json with mu1 = 1e308: the residuals' l2
    # norm overflows to inf (written as null), and no numpy warning is printed
    cfg = json.loads((CONFIG_DIR / "full_residual.json").read_text())
    cfg["solution"]["modulus"]["mu1"] = 1e308
    path, out = tmp_path / "c.json", tmp_path / "o"
    path.write_text(json.dumps(cfg))
    proc = subprocess.run([sys.executable, "-m", "shearwaves", "verify", "--config", str(path),
                           "--out", str(out), "--quiet"], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (1, "")
    report = json.loads((out / "report.json").read_text())
    assert report["l2"] == [None] * 3 and all(math.isfinite(x) for x in report["linf"])


@pytest.mark.parametrize("name, block, key, value", [
    ("verify", (), "beta", 1e308),
    ("full_residual", ("solution",), "amplitude", 1e154),
    ("verify", ("solution", "profile"), "freq", 1e308),
], ids=["verify_beta", "full_residual_amplitude", "verify_profile_freq"])
def test_residual_that_overflows_misses_its_target_without_warnings(tmp_path, capsys, name,
                                                                    block, key, value):
    # every residual is inf or NaN at every level: the norms and orders are
    # written as null and the target is missed, with no numpy warning
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    _get(cfg, block)[key] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(tmp_path, cfg, "ovf")
    assert code == 1
    assert capsys.readouterr() == ("", "")
    report = json.loads((out / "report.json").read_text())
    assert report["linf"] == report["l2"] == [None] * 3
    assert (report["order"], report["passed"]) == (None, False)


# the hodograph family of test_hodograph_fold_seed_exits_three, with its seed on the fold
FOLD = {"phase": {"kind": "linear", "k": 1.0},
        "radial": {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]}, "seed": [0.0, 1.0]}
# one failing run of each command
FAILING_RUNS = {
    "simulate": overflowing_config("simulate"),
    "convergence": overflowing_config("convergence"),
    "hodograph": {"command": "hodograph", "beta": 1.0, **FOLD,
                  "X": {"min": -1.1, "max": -0.9, "n": 5},
                  "tau": {"min": -0.1, "max": 0.1, "n": 5}},
    "verify": {"command": "verify", "study": "asymptotic", "beta": 1.0,
               "solution": {"kind": "hodograph", **FOLD},
               "rectangle": {"coord": {"min": -1.1, "max": -0.9},
                             "point": {"min": -0.1, "max": 0.1}}, "levels": [5, 9]},
    "exact": {"command": "exact", "solution": {
        "kind": "simple_wave", "beta": 1.0,
        "profile": {"kind": "sine", "amp": 0.2, "freq": 1.0, "offset": 1.0},
        "X": {"min": 0.0, "max": 2.0, "n": 5}, "tau": {"min": 0.0, "max": TWO_PI, "n": 9}}},
    "classify": {"command": "classify", "flux": {"kind": "poly", "coeffs": [[0.0], [1.0]]},
                 "samples": {"u": {"min": 0.5, "max": 1.5, "n": 3},
                             "v": {"min": 0.5, "max": 1.5, "n": 3}}},
}


@pytest.mark.parametrize("command", COMMANDS)
def test_failed_run_leaves_only_its_manifest(tmp_path, command):
    code, out = run_cli(tmp_path, FAILING_RUNS[command], command)
    assert code == 3
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    assert read_manifest(out)["status"] == "error"


def test_verify_descending_levels_exits_two(tmp_path, capsys):
    cfg = small_config("verify")
    cfg["levels"] = [65, 33]
    code, out = run_cli(tmp_path, cfg, "vdl")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "decreasing spacing" in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_convergence_repeated_level_exits_two(tmp_path, capsys):
    cfg = small_config("convergence")
    cfg["levels"] = [16, 16]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no line is fitted through repeated points
        code, out = run_cli(tmp_path, cfg, "crl")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "distinct" in err
    assert not (out / "manifest.json").exists()


def test_verify_full_study_needs_no_beta(tmp_path, capsys):
    # the full study reads its modulus from the solution block: beta is not its key
    cfg = {"command": "verify", "study": "full", "beta": 1.0,
           "solution": {"kind": "carroll", "modulus": {"kind": "cubic", "mu0": 1.0, "mu1": 0.5},
                        "amplitude": 1.0, "wavenumber": 1.0},
           "rectangle": {"coord": {"min": 0.0, "max": 1.0}, "point": {"min": 0.0, "max": TWO_PI}},
           "levels": [17, 33, 65]}
    code, out = run_cli(tmp_path, cfg, "fwb")
    assert code == 2
    assert "('beta' was unexpected)" in capsys.readouterr().err
    assert not out.exists()
    del cfg["beta"]
    assert run_cli(tmp_path, cfg, "fnb")[0] == 0


@pytest.mark.parametrize("solution", [{"kind": 3}, {"kind": "carroll", "bogus": 1},
                                      {"kind": "hodograph", "phase": {"kind": "linear", "k": 1.0}}],
                         ids=["kind_3", "carroll", "hodograph_missing_keys"])
@pytest.mark.parametrize("study", ["asymptotic", "conservation"])
def test_negative_control_validates_its_solution_block(tmp_path, capsys, study, solution):
    cfg = {**small_config("verify"), "study": study, "negative_control": True}
    if study == "conservation":
        cfg["conservation"] = CONSERVATION
    code, _ = run_cli(tmp_path, cfg, "ncv")
    assert code == 1  # a valid block: the control is confirmed
    code, out = run_cli(tmp_path, {**cfg, "solution": solution}, "nci")
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (out / "manifest.json").exists()


def test_polar_study_without_solution_needs_negative_control(tmp_path, capsys):
    # the one requirement that the schema cannot state: a study that may
    # sample its own non-solution does so only as a negative control
    code, out = run_cli(tmp_path, _without(small_config("verify"), "solution"), "nos")
    assert code == 2
    assert capsys.readouterr().err == ("config error: study 'asymptotic' requires a solution "
                                       "block unless negative_control\n")
    assert not out.exists()


def _one_of(path, block):
    return (f"config error: invalid config at {path}: {block!r} is not valid under any of the "
            f"given schemas\n")


def _error_at(message):
    return f"config error: invalid config at {message}\n"


HODOGRAPH_SOLUTION = {"kind": "hodograph", "phase": {"kind": "linear", "k": 1.0},
                      "radial": {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]}, "seed": [0.5, 1.0]}
CARROLL_SOLUTION = {"kind": "carroll", "modulus": CUBIC, "amplitude": 1.0, "wavenumber": 1.0}
CONSTANT_AMPLITUDE_SOLUTION = {"kind": "constant_amplitude", "amplitude": 1.0, "profile": SINE}


def _without(block, key):
    return {k: v for k, v in block.items() if k != key}


# what each system reads from the top level of its config
SYSTEM_COEFFICIENTS = {"full": {"modulus": CUBIC}, "asymptotic": {"beta": 0.5},
                       "scalar": {"beta": 1.0}}


def _invalid_init(system, block, message=None):
    """An invalid init block; a message of None is the oneOf message of a block
    whose kind names no branch."""
    return ("simulate", {"system": system, **SYSTEM_COEFFICIENTS[system],
                         "grid": {"n": 16, "a": 0.0, "b": TWO_PI}, "run": {"end": 0.1},
                         "init": block},
            _one_of("init", block) if message is None else _error_at(message))


def _invalid_oracle(system, block, message):
    return ("convergence", {"system": system, **SYSTEM_COEFFICIENTS[system],
                            "grid": {"a": 0.0, "b": TWO_PI}, "run": {"end": 0.1},
                            "levels": [16, 32], "oracle": block},
            _error_at(message))


def _invalid_verify(study, block, message):
    cfg = {"study": study, "solution": block, "levels": [9, 17],
           "rectangle": {"coord": {"min": 0.0, "max": 1.0}, "point": {"min": 0.0, "max": 1.0}}}
    if study != "full":
        cfg["beta"] = 0.5
    if study == "conservation":
        cfg["conservation"] = CONSERVATION
    return "verify", cfg, _error_at(message)


def _invalid_exact(block, message=None):
    return "exact", {"solution": block}, (_one_of("solution", block) if message is None
                                          else _error_at(message))


def _invalid_hodograph(cfg, message):
    return "hodograph", cfg, _error_at(message)


INVALID_BLOCKS = {
    # a block that fits no branch of a oneOf gets the error of the branch of its kind
    "init_missing_key": _invalid_init("full", {"kind": "carroll", "amplitude": 1.0},
                                      "init: 'wavenumber' is a required property"),
    "init_extra_key": _invalid_init(
        "full", {"kind": "zero", "amplitude": 1.0},
        "init: Additional properties are not allowed ('amplitude' was unexpected)"),
    "init_wrong_kind": _invalid_init("asymptotic",
                                     {"kind": "carroll", "amplitude": 1.0, "wavenumber": 1.0}),
    "oracle_missing_key": _invalid_oracle("full", {"kind": "carroll", "amplitude": 1.0},
                                          "oracle: 'wavenumber' is a required property"),
    "oracle_extra_key": _invalid_oracle(
        "asymptotic", {**CONSTANT_AMPLITUDE_SOLUTION, "beta": 1.0},
        "oracle: Additional properties are not allowed ('beta' was unexpected)"),
    "oracle_wrong_kind": _invalid_oracle("scalar", {"kind": "profile", "profile": SINE},
                                         "oracle/kind: 'simple_wave' was expected"),
    # the polar studies take either of two kinds
    "verify_missing_key": _invalid_verify("asymptotic", _without(HODOGRAPH_SOLUTION, "seed"),
                                          "solution: 'seed' is a required property"),
    "verify_missing_modulus": _invalid_verify(
        "full", _without(CARROLL_SOLUTION, "modulus"),
        "solution: 'modulus' is a required property"),
    "verify_extra_key": _invalid_verify(
        "conservation", {**CONSTANT_AMPLITUDE_SOLUTION, "beta": 0.5},
        "solution: Additional properties are not allowed ('beta' was unexpected)"),
    "verify_carroll_polarization": _invalid_verify(
        "full", {**CARROLL_SOLUTION, "polarization": 1},
        "solution: Additional properties are not allowed ('polarization' was unexpected)"),
    "verify_wrong_kind": _invalid_verify("full", CONSTANT_AMPLITUDE_SOLUTION,
                                         "solution/kind: 'carroll' was expected"),
    "exact_missing_key": _invalid_exact(
        _without(exact_config("carroll")["solution"], "wavenumber"),
        "solution: 'wavenumber' is a required property"),
    "exact_extra_key": _invalid_exact(
        exact_config("carroll", bogus=1)["solution"],
        "solution: Additional properties are not allowed ('bogus' was unexpected)"),
    "exact_wrong_kind": _invalid_exact(
        {**exact_config("simple_wave")["solution"], **HODOGRAPH_SOLUTION}),
    "hodograph_missing_key": _invalid_hodograph(_without(small_config("hodograph"), "seed"),
                                                "<root>: 'seed' is a required property"),
    "hodograph_extra_key": _invalid_hodograph(
        {**small_config("hodograph"), "kind": "hodograph"},
        "<root>: Additional properties are not allowed ('kind' was unexpected)"),
    "hodograph_wrong_seed": _invalid_hodograph({**small_config("hodograph"), "seed": [1.0]},
                                               "seed: [1.0] is too short"),
}


@pytest.mark.parametrize("case", sorted(INVALID_BLOCKS))
def test_invalid_block_exits_two_with_its_message(tmp_path, capsys, case):
    command, cfg, message = INVALID_BLOCKS[case]
    code, out = run_cli(tmp_path, {"command": command, **cfg}, case)
    assert code == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_oracle_check_without_oracle_exits_two(tmp_path):
    cfg = {
        "command": "simulate",
        "system": "asymptotic",
        "beta": 1.0,
        "grid": {"n": 16, "a": 0.0, "b": TWO_PI},
        "run": {"end": 0.1},
        "init": {"kind": "plane", "profile": {"kind": "sine", "amp": 1.0, "freq": 1.0}},
        "oracle_check": True,
    }
    code, out = run_cli(tmp_path, cfg, "noo")
    assert code == 2
    assert not out.exists()


def _simulate(system, init):
    return {"command": "simulate", "system": system, **SYSTEM_COEFFICIENTS[system],
            "grid": {"n": 16, "a": 0.0, "b": TWO_PI}, "run": {"end": 0.1}, "init": init,
            "oracle_check": False}


def _convergence(system, oracle):
    return {"command": "convergence", "system": system, **SYSTEM_COEFFICIENTS[system],
            "grid": {"a": 0.0, "b": TWO_PI}, "run": {"end": 0.1}, "levels": [16, 32],
            "oracle": oracle, "order_target": 1.0, "order_tol": 0.5}


POLAR_STUDY = {"beta": 0.5, "solution": CONSTANT_AMPLITUDE_SOLUTION, "rectangle": RECTANGLE,
               "levels": [9, 17], "order_target": 1.5, "negative_control": False}
# one valid config of every variant, with every top-level key its schema lists
VARIANT_CONFIGS = {
    ("simulate", "full"): _simulate("full", {"kind": "zero"}),
    ("simulate", "asymptotic"): _simulate("asymptotic", {"kind": "plane", "profile": SINE}),
    ("simulate", "scalar"): _simulate("scalar", {"kind": "profile", "profile": SINE}),
    ("convergence", "full"): _convergence("full", _without(CARROLL_SOLUTION, "modulus")),
    ("convergence", "asymptotic"): _convergence("asymptotic", CONSTANT_AMPLITUDE_SOLUTION),
    ("convergence", "scalar"): _convergence("scalar", {"kind": "simple_wave", "profile": SINE}),
    ("verify", "full"): {"command": "verify", "study": "full", **_without(POLAR_STUDY, "beta"),
                         "solution": CARROLL_SOLUTION, "seed": 0},
    ("verify", "asymptotic"): {"command": "verify", "study": "asymptotic", **POLAR_STUDY},
    ("verify", "conservation"): {"command": "verify", "study": "conservation", **POLAR_STUDY,
                                 "conservation": CONSERVATION},
    ("verify", "linearized_symmetry"): {"command": "verify", "study": "linearized_symmetry",
                                        **POLAR_STUDY, "symmetry": SYMMETRY},
    ("verify", "commutator"): {"command": "verify", "study": "commutator", "beta": 1.0,
                               "symmetry": SYMMETRY, "jets": 10, "seed": 0, "tol_factor": 1e-10,
                               "negative_control": False},
}
# each (command, variant, key) where the key is at the top level of a sibling
# variant's schema but not of this one's, with a sibling that lists it
SIBLING_KEYS = {(command, name, key): sibling
                for command in cli.VARIANT_KEYS
                for name, schema in cli.SCHEMAS[command].items()
                for sibling, other in cli.SCHEMAS[command].items()
                for key in other["properties"] if key not in schema["properties"]}


@pytest.mark.parametrize("command, variant", [(command, name) for command in cli.VARIANT_KEYS
                                              for name in cli.SCHEMAS[command]])
def test_variant_configs_are_valid_and_complete(command, variant):
    cfg = VARIANT_CONFIGS[command, variant]
    assert cfg.keys() == cli.SCHEMAS[command][variant]["properties"].keys()
    cli._validate(command, cfg)
    assert_validators_agree(cfg)


@pytest.mark.parametrize("command, variant, key", sorted(SIBLING_KEYS))
def test_key_of_a_sibling_variant_exits_two(tmp_path, capsys, command, variant, key):
    sibling = VARIANT_CONFIGS[command, SIBLING_KEYS[command, variant, key]]
    code, out = run_cli(tmp_path, {**VARIANT_CONFIGS[command, variant], key: sibling[key]}, "sib")
    assert code == 2
    assert capsys.readouterr().err == ("config error: invalid config at <root>: Additional "
                                       f"properties are not allowed ({key!r} was unexpected)\n")
    assert not out.exists()


@pytest.mark.parametrize("command, key", sorted(cli.VARIANT_KEYS.items()))
def test_config_naming_no_variant_exits_two(tmp_path, capsys, command, key):
    names = list(cli.SCHEMAS[command])
    for value, message in ((None, f"<root>: {key!r} is a required property"),
                           ("bogus", f"{key}: 'bogus' is not one of {names!r}"),
                           ([], f"{key}: [] is not one of {names!r}")):
        cfg = {**small_config(command), key: value}
        if value is None:
            del cfg[key]
        code, out = run_cli(tmp_path, cfg, "nov")
        assert code == 2
        assert capsys.readouterr().err == f"config error: invalid config at {message}\n"
        assert not out.exists()


def test_convergence_tolerance_without_target_exits_two(tmp_path, capsys, monkeypatch):
    # a tolerance around no target would pass at any order; it is refused before any level runs
    def evolve(*args):
        raise AssertionError("a refused convergence study evolved a level")
    record_evolutions(monkeypatch, evolve)
    cfg = {**small_config("convergence"), "order_tol": 1e-9}
    assert "order_target" not in cfg
    code, out = run_cli(tmp_path, cfg, "tol")
    assert code == 2
    assert capsys.readouterr().err == "config error: an order tolerance needs an order target\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# generated configs


def _dict_paths(obj, prefix=()):
    """Paths to every value held in a nested dict, outer keys first."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _dict_paths(value, prefix + (key,))


def _get(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


# Numbers stay away from zero: a tiny grid length or cfl is valid but takes
# millions of steps.
ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from((-1.0, 0.0, 0.5, 2.5)),
    st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2), st.just({}))
CFL_VALUES = st.one_of(st.floats(-0.5, 0.0), st.floats(0.9, 1.5), st.just(0.3))


# the configs that generated_configs breaks: a small one per command, one of
# every exact family, a run from every init with an exact family, and a
# residual study of the hodograph family
BASE_CONFIGS = [*map(small_config, COMMANDS), *map(exact_config, sorted(EXACT_SOLUTIONS)),
                *map(end_zero_config, sorted(ORACLE_INITS)),
                {**small_config("verify"), "beta": 1.0, "solution": HODOGRAPH_SOLUTION,
                 "rectangle": {"coord": {"min": -0.55, "max": -0.45},
                               "point": {"min": -1.7, "max": -1.3}}}]


@st.composite
def generated_configs(draw):
    """A small config of some command, left valid or broken in one way."""
    cfg = copy.deepcopy(draw(st.sampled_from(BASE_CONFIGS)))
    command = cfg["command"]
    if command == "verify" and draw(st.booleans()):
        cfg["negative_control"] = True
    change = draw(st.sampled_from(("none", "value", "extra_key", "drop_key", "levels", "cfl")))
    paths = list(_dict_paths(cfg))
    if change == "value":
        path = draw(st.sampled_from(paths))
        _get(cfg, path[:-1])[path[-1]] = draw(ODD_VALUES)
    elif change == "extra_key":
        blocks = [()] + [p for p in paths if isinstance(_get(cfg, p), dict)]
        _get(cfg, draw(st.sampled_from(blocks)))[draw(st.text(min_size=1, max_size=4))] = 1
    elif change == "drop_key":
        path = draw(st.sampled_from(paths))
        del _get(cfg, path[:-1])[path[-1]]
    elif change == "levels" and "levels" in cfg:
        cfg["levels"] = draw(st.permutations(cfg["levels"] + [12]))
    elif change == "cfl" and "run" in cfg:
        cfg["run"]["cfl"] = draw(CFL_VALUES)
    return command, cfg


@settings(max_examples=60, deadline=None)
@given(generated_configs())
@example(("classify", {**small_config("classify"),
                       "samples": {"u": {"min": 0.5, "max": 2.0, "n": 3},
                                   "v": {"min": 0.5, "max": 2.0, "n": 2.0}}}))
@example(("verify", {**small_config("verify"), "solution": {"kind": {}}}))
@example(("hodograph", {**small_config("hodograph"), "beta": 0}))
# finite parameters whose squares or frequencies overflow a double
@example(("exact", exact_config("carroll", wavenumber=1e200)))
@example(("exact", exact_config("carroll", modulus={"kind": "mooney_rivlin", "mu": 1e300},
                                wavenumber=1e100)))
@example(("exact", exact_config("carroll", amplitude=1.5e154)))
@example(("simulate", {**small_config("simulate"),
                       "init": {"kind": "carroll", "amplitude": 1.5e154, "wavenumber": 1.0}}))
@example(("convergence", {"command": "convergence", "system": "full", "modulus": CUBIC,
                          "grid": {"a": 0.0, "b": TWO_PI}, "run": {"end": 0.1}, "levels": [8, 16],
                          "oracle": {"kind": "carroll", "amplitude": 1.5e154, "wavenumber": 1.0}}))
@example(("exact", exact_config("generalized", amplitude=1e200)))
@example(("exact", exact_config("constant_amplitude", amplitude=1e200)))
@example(("convergence", {**small_config("convergence"),
                          "oracle": {**small_config("convergence")["oracle"], "amplitude": 1e200}}))
@example(("verify", {**small_config("verify"),
                     "solution": {**small_config("verify")["solution"], "amplitude": 1e200}}))
@example(("verify", {**small_config("verify"), "solution": {"kind": "carroll"}}))
# a control that the field does not refute: the angle-squared shift is a true
# symmetry of a constant-amplitude envelope
@example(("verify", {**small_config("verify"), "study": "linearized_symmetry",
                     "negative_control": True, "levels": [17, 33, 65],
                     "symmetry": {"phase": {"kind": "linear", "k": 1.0},
                                  "radial": {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]}}}))
def test_generated_configs_keep_exit_contract(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(out), "--quiet"])
        assert code in (0, 1, 2, 3)
        if command == "verify" and cfg.get("negative_control") is True:
            assert code != 0  # a negative control never passes
        if code == 2:
            assert err.getvalue().startswith("config error:")
            assert not (out / "manifest.json").exists()
        else:
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["status"] == ("error" if code == 3 else "ok")


# ---------------------------------------------------------------------------
# the config validator against jsonschema, JSON Schema's reference validator

# jsonschema with the CLI's integer rule: a Python int, not 2.0 or true
REFERENCE_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool)))


def config_schemas():
    """Every config schema as ``(command, variant, schema)``; the variant is None
    for a command that has no variants."""
    for command, schema in cli.SCHEMAS.items():
        variants = schema if command in cli.VARIANT_KEYS else {None: schema}
        for variant, variant_schema in variants.items():
            yield command, variant, variant_schema


REFERENCES = {(command, variant): (schema, REFERENCE_VALIDATOR(schema))
              for command, variant, schema in config_schemas()}


def assert_validators_agree(config):
    """Under every config schema, the CLI's validator finds the first error
    that jsonschema finds, path and message, or both find none."""
    for name, (schema, reference) in REFERENCES.items():
        error = next(reference.iter_errors(config), None)
        expected = None if error is None else (tuple(error.absolute_path), error.message)
        assert cli._schema_error(config, schema) == expected, (name, config)


@settings(max_examples=2000, derandomize=True, deadline=None)
@given(generated_configs())
def test_validator_agrees_with_jsonschema_on_generated_configs(case):
    assert_validators_agree(case[1])


@pytest.mark.parametrize("case", sorted(INVALID_BLOCKS))
def test_validator_agrees_with_jsonschema_on_invalid_blocks(case):
    command, cfg, _ = INVALID_BLOCKS[case]
    assert_validators_agree({"command": command, **cfg})


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_validator_agrees_with_jsonschema_on_shipped_configs(path):
    assert_validators_agree(json.loads(path.read_text()))


@pytest.mark.parametrize("value, rule, message", [
    (True, {"const": 1}, "1 was expected"),
    (1.0, {"const": 1}, None),
    (True, {"enum": [-1, 1]}, "True is not one of [-1, 1]"),
    (2.0, {"type": "integer"}, "2.0 is not of type 'integer'"),
    (False, {"type": "number"}, "False is not of type 'number'"),
    ([], {"minItems": 1}, "[] should be non-empty"),
    ([1], {"maxItems": 0}, "[1] is expected to be empty"),
    ({"b": 1, "a": 2}, {"properties": {}, "additionalProperties": False},
     "Additional properties are not allowed ('a', 'b' were unexpected)"),
])
def test_validator_keeps_json_schema_equality_and_words(value, rule, message):
    assert cli._schema_error(value, rule) == (message and ((), message))
    error = next(REFERENCE_VALIDATOR(rule).iter_errors(value), None)
    assert (error and error.message) == message


def test_validator_rejects_a_keyword_outside_its_subset():
    with pytest.raises(KeyError, match="pattern"):
        cli._schema_error({"a": "x"}, {"properties": {"a": {"pattern": "^x$"}}})


def variant_schema(config):
    command = config["command"]
    schema = cli.SCHEMAS[command]
    return schema[config[cli.VARIANT_KEYS[command]]] if command in cli.VARIANT_KEYS else schema


def kind_blocks(value, schema, path=()):
    """``(path, branch)`` of every block with a ``kind`` in ``value``: the schema
    branch that its kind names, at a ``oneOf`` position or a one-kind one."""
    if not isinstance(value, dict):
        return
    for branch in schema.get("oneOf", [schema]):
        kind = branch.get("properties", {}).get("kind")
        if kind is not None and kind["const"] == value.get("kind"):
            yield path, branch
            schema = branch
    for key, sub in value.items():
        if key in schema.get("properties", {}):
            yield from kind_blocks(sub, schema["properties"][key], (*path, key))


# every kind block of the base configs, and of the plane init that none of them holds
PLANE_RUN = {"command": "simulate", "system": "asymptotic", "beta": 0.5,
             "grid": {"n": 16, "a": 0.0, "b": TWO_PI}, "run": {"end": 0.1},
             "init": {"kind": "plane", "profile": SINE}}
MISSING_PARAMETERS = {
    f"{cfg['command']}-{'/'.join(path) or 'root'}-{branch['properties']['kind']['const']}-{name}":
    (cfg, path, branch, name)
    for cfg in [*BASE_CONFIGS, PLANE_RUN]
    for path, branch in kind_blocks(cfg, variant_schema(cfg))
    for name in branch["required"][1:]}  # each required name after "kind"


def test_missing_parameter_cases_cover_every_family():
    kinds = {branch["properties"]["kind"]["const"]
             for _, _, branch, _ in MISSING_PARAMETERS.values()}
    assert kinds >= set(cli.FAMILIES) - {"zero"}
    assert cli.FAMILIES["zero"].required == ()


@pytest.mark.parametrize("case", sorted(MISSING_PARAMETERS))
def test_missing_block_parameter_is_named(tmp_path, capsys, case):
    # a block with a missing parameter fits no oneOf branch; the error is the
    # first one that jsonschema finds on the branch of the block's kind
    config, path, branch, name = MISSING_PARAMETERS[case]
    config = copy.deepcopy(config)
    block = _get(config, path)
    del block[name]
    error = next(REFERENCE_VALIDATOR(branch).iter_errors(block))
    assert error.message == f"{name!r} is a required property"
    where = "/".join(map(str, (*path, *error.absolute_path))) or "<root>"
    code, out = run_cli(tmp_path, config, "missing")
    assert code == 2
    assert capsys.readouterr().err == f"config error: invalid config at {where}: {error.message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# packaging


def test_console_entry_point(tmp_path):
    cfg = {
        "command": "classify",
        "flux": {"kind": "product"},
        "samples": {"u": {"min": 0.5, "max": 2.0, "n": 5},
                    "v": {"min": 0.5, "max": 2.0, "n": 5}},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-m", "shearwaves", "classify",
         "--config", str(path), "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "o" / "report.json").exists()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_main_runs_two_commands_in_one_process_as_in_two(tmp_path):
    # main parses with one parser built at import; a second call must not see the first
    runs = [("classify", small_config("classify"), 0), ("exact", small_config("exact"), 0),
            ("simulate", {**small_config("simulate"), "run": {"end": -1.0}}, 2)]
    trees = {}
    for command, cfg, _ in runs:
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
    for mode in ("in_process", "separate"):
        for command, _, expected in runs:
            argv = [command, "--config", str(tmp_path / f"{command}.json"),
                    "--out", str(tmp_path / mode / command), "--quiet"]
            if mode == "in_process":
                code = main(argv)
            else:
                code = subprocess.run([sys.executable, "-m", "shearwaves", *argv],
                                      capture_output=True).returncode
            assert code == expected, (mode, command)
            out = tmp_path / mode / command
            trees[mode, command] = ({p.name: p.read_bytes() for p in out.iterdir()}
                                    if out.exists() else None)
    for command, _, _ in runs:
        assert trees["in_process", command] == trees["separate", command], command
