import argparse
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import csv_reference
from enwit import XXXParams, bound_sweep
from enwit.cli import (
    _COMMANDS,
    _CSV_CHUNK,
    _OPTION_SPECS,
    _config,
    _grid,
    _make_parser,
    _write_sweep_csv,
    main,
)
from enwit.witness import SWEEP_DTYPE, EsepPolicy


# the README's "Command line" sh block, one argv per `enwit` command, `\` continuations joined
_README_CLI = re.search(
    r"^## Command line\n.*?```sh\n(.*?)```",
    (Path(__file__).resolve().parent.parent / "README.md").read_text(),
    re.S | re.M,
).group(1)
README_COMMANDS = [
    shlex.split(line)[1:]
    for line in _README_CLI.replace("\\\n", " ").splitlines()
    if line.startswith("enwit ")
]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_field_free(self, capsys):
        code, out, _ = run(["spectrum", "--model", "xxx", "--J", "1", "--B", "0"], capsys)
        assert code == 0
        assert "e_min = -3" in out
        assert "e_max = 1" in out
        assert "(x3)" in out

    def test_field_split_levels(self, capsys):
        code, out, _ = run(["spectrum", "--model", "xxx", "--J", "1", "--B", "0.5"], capsys)
        assert code == 0
        levels_line = [l for l in out.splitlines() if l.startswith("levels:")][0]
        assert levels_line.count("(x1)") == 4

    def test_missing_j_exits_2(self, capsys):
        code, _, err = run(["spectrum", "--model", "xxx", "--B", "0"], capsys)
        assert code == 2
        assert "J" in err

    def test_pauli_file_model(self, tmp_path, capsys):
        pf = tmp_path / "h.txt"
        pf.write_text("1.0 XX\n1.0 YY\n1.0 ZZ\n")
        code, out, _ = run(
            ["spectrum", "--model", "pauli-file", "--pauli-file", str(pf)], capsys
        )
        assert code == 0
        assert "e_min = -3" in out


class TestEsep:
    def test_exact_policy(self, capsys):
        code, out, _ = run(
            ["esep", "--model", "xxx", "--J", "1", "--B", "0", "--policy", "exact"], capsys
        )
        assert code == 0
        assert "esep = -1\n" in out
        assert "source = exact-optimized" in out
        assert "theta" in out

    def test_fixed_policy_passthrough(self, capsys):
        code, out, _ = run(
            ["esep", "--model", "xxx", "--J", "1", "--B", "0", "--policy", "fixed:-2"], capsys
        )
        assert code == 0
        assert "esep = -2\n" in out
        assert "source = user-supplied" in out

    def test_closed_form_policy(self, capsys):
        code, out, _ = run(
            ["esep", "--model", "xxx", "--J", "1", "--B", "1", "--policy", "closed-form"],
            capsys,
        )
        assert code == 0
        assert "esep = -1.5\n" in out

    # a 3-qubit instance on which a few seesaw restarts end above the best value
    PAULI_8 = (
        "2.7736 XZY\n1.3205 ZXX\n1.1694 IXI\n0.8573 ZZX\n"
        "-1.1592 ZIY\n-1.0982 XXI\n-0.5426 ZXI\n-0.2802 IZZ\n"
    )

    @pytest.mark.parametrize(
        "command, restarts, scale, esep, agreeing",
        [
            ("esep", "4", 1.0, "esep = -3.708639518\n", 1),
            ("esep", "32", 1.0, "esep = -4.155900522\n", 9),
            ("witness", "4", 1.0, "esep = -3.708639518 ", 1),
            ("esep", "32", 1e-12, "esep = -4.155900522e-12\n", 9),
            ("esep", "32", 1e12, "esep = -4.155900522e+12\n", 9),
        ],
        ids=["esep-4", "esep-32", "witness-4", "esep-32-1e-12", "esep-32-1e12"],
    )
    def test_restarts_agreeing(self, command, restarts, scale, esep, agreeing, tmp_path, capsys):
        """The agreement tolerance scales with H, so the count does not depend on the unit."""
        pf = tmp_path / "h.txt"
        terms = map(str.split, self.PAULI_8.splitlines())
        pf.write_text("".join(f"{float(c) * scale!r} {p}\n" for c, p in terms))
        argv = [
            command, "--model", "pauli-file", "--pauli-file", str(pf),
            "--restarts", restarts, "--seed", "0",
        ]
        code, out, err = run(argv, capsys)
        assert code == 0
        assert esep in out
        assert f"restarts_agreeing = {agreeing}\n" in out
        assert ("warning: a single restart reached this esep" in err) == (agreeing == 1)

    def test_rising_search_energy_exits_3(self, monkeypatch, capsys):
        import enwit.bloch

        monkeypatch.setattr(enwit.bloch, "_ROUNDOFF", -1.0)
        code, out, err = run(["esep", "--J", "1", "--B", "0.5", "--restarts", "4"], capsys)
        assert code == 3
        assert out == ""
        assert "raised the product-state energy" in err

    def test_restarts_agreeing_only_under_exact(self, capsys):
        for policy in ("closed-form", "fixed:-2"):
            code, out, err = run(["esep", "--J", "1", "--restarts", "1", "--policy", policy], capsys)
            assert code == 0
            assert "restarts_agreeing" not in out
            assert "gradient_norm" not in out and "hessian_min" not in out
            assert err == ""

    def test_certificate_numbers_under_exact(self, capsys):
        code, out, _ = run(["esep", "--J", "1", "--B", "0.5", "--restarts", "8"], capsys)
        assert code == 0
        assert "converged = true\n" in out
        values = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
        assert 0.0 <= float(values["gradient_norm"]) <= 1e-8
        assert float(values["hessian_min"]) >= -1e-8

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("bound-sweep", ["--T", "0.1"]),
            ("measure", ["--T", "0.1", "--shots", "10"]),
        ],
        ids=["bound-sweep", "measure"],
    )
    def test_single_agreeing_restart_warns(self, command, extra, tmp_path, capsys):
        """Warned on stderr; stdout and the CSV are those the commands wrote without it."""
        pf = tmp_path / "h.txt"
        pf.write_text(self.PAULI_8)
        csv = tmp_path / "s.csv"
        argv = [command, "--model", "pauli-file", "--pauli-file", str(pf), "--seed", "0"] + extra
        if command == "bound-sweep":
            argv += ["--out", str(csv)]
        code, out, err = run(argv + ["--restarts", "4"], capsys)
        assert code == 0
        where = " at B = 0" if command == "bound-sweep" else ""
        assert err == f"warning: a single restart reached this esep{where}; raise --restarts\n"
        assert "restarts_agreeing" not in out
        if command == "bound-sweep":
            assert out == f"wrote {csv} (1 rows)\n"
            assert csv.read_text().splitlines()[1] == (
                "0,0.1,-5.061960412,-3.708639518,8.770751229,0.1542993136,0.1542993136,true"
            )
        code, _, err = run(argv + ["--restarts", "32"], capsys)
        assert code == 0
        assert err == ""

    def test_unknown_policy_exits_2(self, capsys):
        code, _, err = run(
            ["esep", "--model", "xxx", "--J", "1", "--B", "0", "--policy", "magic"], capsys
        )
        assert code == 2
        assert "policy" in err


def _lines(*lines):
    return "".join(line + "\n" for line in lines)


_SEARCH_HEAD = ("source = exact-optimized", "restarts_used = 32")


class TestPrintedOutput:
    """The whole stdout (and the refutation's stderr) of seeded commands, byte for byte."""

    CASES = {
        "exact-B0": (
            ["esep", "--J", "1", "--B", "0"],
            _lines(
                "esep = -1", *_SEARCH_HEAD, "restarts_agreeing = 32", "converged = true",
                "gradient_norm = 4.664e-17", "hessian_min = 0.000e+00",
                "block 0 (sites [0]): theta = 1.894714, phi = 2.387101",
                "block 1 (sites [1]): theta = 1.246879, phi = 5.528694",
            ),
        ),
        "exact-B0.3": (
            ["esep", "--J", "1", "--B", "0.3"],
            _lines(
                "esep = -1.045", *_SEARCH_HEAD, "restarts_agreeing = 32", "converged = true",
                "gradient_norm = 1.045e-12", "hessian_min = -1.029e-13",
                "block 0 (sites [0]): theta = 1.721365, phi = 0.049307",
                "block 1 (sites [1]): theta = 1.721365, phi = 3.190900",
            ),
        ),
        "exact-B2": (
            ["esep", "--J", "1", "--B", "2"],
            _lines(
                "esep = -3", *_SEARCH_HEAD, "restarts_agreeing = 32", "converged = true",
                "gradient_norm = 2.307e-09", "hessian_min = 1.386e-06",
                "block 0 (sites [0]): theta = 3.140415, phi = 0.049307",
                "block 1 (sites [1]): theta = 3.140415, phi = 3.190900",
            ),
        ),
        "exact-B3": (
            ["esep", "--J", "1", "--B", "3"],
            _lines(
                "esep = -5", *_SEARCH_HEAD, "restarts_agreeing = 32", "converged = true",
                "gradient_norm = 3.822e-22", "hessian_min = 1.000e+00",
                "block 0 (sites [0]): theta = 3.141593, phi = 0.000000",
                "block 1 (sites [1]): theta = 3.141593, phi = 0.000000",
            ),
        ),
        "exact-ring-4": (
            ["esep", "--J", "1", "--B", "0.3", "--sites", "4", "--boundary", "periodic"],
            _lines(
                "esep = -4.045", *_SEARCH_HEAD, "restarts_agreeing = 32", "converged = true",
                "gradient_norm = 2.061e-10", "hessian_min = 5.080e-12",
                "block 0 (sites [0]): theta = 1.645867, phi = 2.300898",
                "block 1 (sites [1]): theta = 1.645867, phi = 5.442490",
                "block 2 (sites [2]): theta = 1.645867, phi = 2.300898",
                "block 3 (sites [3]): theta = 1.645867, phi = 5.442490",
            ),
        ),
        "exact-pauli-file": (
            ["esep", "--model", "pauli-file", "--pauli-file", "h.txt", "--seed", "0"],
            _lines(
                "esep = -4.155900522", *_SEARCH_HEAD, "restarts_agreeing = 9",
                "converged = true", "gradient_norm = 3.745e-11", "hessian_min = 8.114e-01",
                "block 0 (sites [0]): theta = 2.322713, phi = 3.141593",
                "block 1 (sites [1]): theta = 2.215070, phi = 3.141593",
                "block 2 (sites [2]): theta = 1.644570, phi = 4.221793",
            ),
        ),
        "closed-form-B0.5": (
            ["esep", "--J", "1", "--B", "0.5", "--policy", "closed-form"],
            _lines(
                "esep = -1.125", "source = closed-form", "restarts_used = 0", "converged = true",
                "block 0 (sites [0]): theta = 1.823477, phi = 0.000000",
                "block 1 (sites [1]): theta = 1.823477, phi = 3.141593",
            ),
        ),
        "closed-form-B2": (
            ["esep", "--J", "1", "--B", "2", "--policy", "closed-form"],
            _lines(
                "esep = -3", "source = closed-form", "restarts_used = 0", "converged = true",
                "block 0 (sites [0]): theta = 3.141593, phi = 0.000000",
                "block 1 (sites [1]): theta = 3.141593, phi = 0.000000",
            ),
        ),
        "closed-form-B-2.5": (
            ["esep", "--J", "1", "--B", "-2.5", "--policy", "closed-form"],
            _lines(
                "esep = -4", "source = closed-form", "restarts_used = 0", "converged = true",
                "block 0 (sites [0]): theta = 0.000000, phi = 0.000000",
                "block 1 (sites [1]): theta = 0.000000, phi = 0.000000",
            ),
        ),
        "witness-exact": (
            ["witness", "--J", "1", "--B", "0.3", "--policy", "exact"],
            _lines(
                "esep = -1.045 (source = exact-optimized)", "restarts_agreeing = 32",
                "e_min = -3", "e_max = 1.6", "A = 2.645", "entanglement_gap = 1.955",
            ),
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_stdout(self, case, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "h.txt").write_text(TestEsep.PAULI_8)
        argv, expected = self.CASES[case]
        assert run(argv, capsys) == (0, expected, "")

    def test_refutation_stderr(self, capsys):
        argv = ["esep", "--J", "1", "--B", "0", "--policy", "fixed:0.5"]
        assert run(argv, capsys) == (
            2,
            "",
            "error: fixed esep 0.5 is refuted: the product state with Bloch angles "
            "(theta, phi) = (1.894714, 2.387101), (1.246879, 5.528694) has energy -1\n",
        )


class TestWitnessCommand:
    def test_reports_normalizer(self, capsys):
        code, out, _ = run(
            ["witness", "--model", "xxx", "--J", "1", "--B", "0", "--policy", "fixed:-2"],
            capsys,
        )
        assert code == 0
        assert "A = 3" in out
        assert "entanglement_gap = 1" in out

    def test_flags_vacuous_esep(self, capsys):
        code, out, _ = run(
            ["witness", "--model", "xxx", "--J", "1", "--B", "0", "--policy", "fixed:-9"],
            capsys,
        )
        assert code == 0
        assert "detects nothing" in out


class TestBoundSweep:
    def test_csv_contract(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        argv = [
            "bound-sweep",
            "--model", "xxx", "--J", "1", "--B", "0",
            "--T-min", "0.01", "--T-max", "4", "--T-steps", "5",
            "--policy", "fixed:-2", "--out", str(out_file),
        ]
        code, _, _ = run(argv, capsys)
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "B,T,mean_energy,esep,A,bound_raw,bound_clipped,detected"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0.01"
        assert first[6] == "0.3333333333"
        assert first[7] == "true"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        argv_base = [
            "bound-sweep", "--model", "xxx", "--J", "1",
            "--B-min", "0", "--B-max", "1", "--B-steps", "3",
            "--T-min", "0.1", "--T-max", "2", "--T-steps", "7",
            "--policy", "exact", "--seed", "5",
        ]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(argv_base + ["--out", str(f1)], capsys)[0] == 0
        assert run(argv_base + ["--out", str(f2)], capsys)[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_round_trip_recompute(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        argv = [
            "bound-sweep", "--model", "xxx", "--J", "1", "--B", "0.5",
            "--T-min", "0.2", "--T-max", "3", "--T-steps", "9",
            "--policy", "closed-form", "--out", str(out_file),
        ]
        assert run(argv, capsys)[0] == 0
        for line in out_file.read_text().splitlines()[1:]:
            cols = line.split(",")
            mean, esep, a, bound_raw = map(float, cols[2:6])
            recomputed = (esep - mean) / a
            printed = cols[5]
            tol = unit_in_last_digit(printed)
            assert abs(recomputed - bound_raw) <= tol

    def test_lf_line_endings(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        argv = [
            "bound-sweep", "--model", "xxx", "--J", "1", "--B", "0",
            "--T", "1", "--policy", "fixed:-2", "--out", str(out_file),
        ]
        assert run(argv, capsys)[0] == 0
        raw = out_file.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_degenerate_grid_exits_2(self, tmp_path, monkeypatch, capsys):
        # min == max with several steps would write the same row repeatedly
        monkeypatch.chdir(tmp_path)
        argv = [
            "bound-sweep", "--J", "1", "--B-min", "1", "--B-max", "1", "--B-steps", "3",
            "--T", "1", "--policy", "fixed:-2",
        ]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "grid min equals max" in err
        assert list(tmp_path.iterdir()) == []

    def test_one_step_grid_is_its_min(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        argv = [
            "bound-sweep", "--J", "1", "--B-min", "0", "--B-max", "2", "--B-steps", "1",
            "--T", "1", "--policy", "fixed:-2", "--out", str(out_file),
        ]
        assert run(argv, capsys)[0] == 0
        rows = out_file.read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["0", "1"]]

    def test_double_count_two_site_bond(self, tmp_path, capsys):
        # counting the two-site bond twice is --J 2: H = 2 s1.s2 has spectrum
        # [-6, 2], so A = 2 - (-2) = 4
        out_file = tmp_path / "sweep.csv"
        model = ["--J", "2", "--B", "0", "--boundary", "periodic", "--policy", "fixed:-2"]
        argv = ["bound-sweep"] + model + ["--T", "1", "--out", str(out_file)]
        assert run(argv, capsys)[0] == 0
        row = out_file.read_text().splitlines()[1].split(",")
        assert row[4] == "4"
        code, out, _ = run(["witness"] + model, capsys)
        assert code == 0
        assert "A = 4" in out

    @pytest.mark.parametrize(
        "command, line",
        [
            (["bound-sweep", "--T", "1"], None),
            (["esep"], "esep ="),
            (["witness"], "esep ="),
            (["measure", "--T", "1"], "bound_interval"),
            (["robustness", "--state", "singlet"], "energy_bound"),
        ],
        ids=["bound-sweep", "esep", "witness", "measure", "robustness"],
    )
    def test_closed_form_of_doubled_bond(self, command, line, tmp_path, capsys):
        # the doubled two-site bond is J = 2, where the closed form -J - B^2/(2J)
        # holds as for any J; it must agree with the seesaw
        out_file = tmp_path / "sweep.csv"
        csv = ["--out", str(out_file)] if line is None else []

        def values(policy):
            argv = command + ["--J", "2", "--B", "0", "--boundary", "periodic", "--policy", policy]
            code, out, _ = run(argv + csv, capsys)
            assert code == 0
            text = out_file.read_text() if line is None else out
            found = [l for l in text.splitlines() if l.startswith(line or "0,")]
            return [float(x) for x in re.findall(r"-?\d+\.?\d*(?:e-?\d+)?", found[0])]

        closed = values("closed-form")
        assert closed == pytest.approx(values("exact"), abs=1e-9)
        if command[0] in ("esep", "witness"):
            assert closed[0] == -2.0

    def test_pauli_file_sweep(self, tmp_path, capsys):
        pf = tmp_path / "h.txt"
        pf.write_text("1.0 XX\n1.0 YY\n1.0 ZZ\n")
        out_file = tmp_path / "p.csv"
        argv = [
            "bound-sweep", "--model", "pauli-file", "--pauli-file", str(pf),
            "--T-min", "0.5", "--T-max", "1.5", "--T-steps", "3",
            "--policy", "exact", "--out", str(out_file),
        ]
        assert run(argv, capsys)[0] == 0
        assert len(out_file.read_text().splitlines()) == 4

    @pytest.mark.parametrize(
        "extra, key",
        [
            (["--B", "0.7"], "B"),
            (["--B-min", "0", "--B-max", "1", "--B-steps", "3"], "B-min"),
            (["--sites", "4"], "sites"),
            (["--boundary", "periodic"], "boundary"),
        ],
        ids=["B", "B-grid", "sites", "boundary-doubled"],
    )
    def test_pauli_file_refuses_xxx_options(self, extra, key, tmp_path, capsys):
        pf = tmp_path / "h.txt"
        pf.write_text("1.0 XX\n1.0 YY\n1.0 ZZ\n")
        out_file = tmp_path / "p.csv"
        argv = [
            "bound-sweep", "--model", "pauli-file", "--pauli-file", str(pf),
            "--T", "1", "--policy", "fixed:-2", "--out", str(out_file),
        ]
        code, out, err = run(argv + extra, capsys)
        assert code == 2
        assert f"{key} does not apply to the pauli-file model" in err
        assert out == ""
        assert not out_file.exists()


class TestSweepCsvWriter:
    """The chunked writer gives the bytes of the per-cell reference in ``csv_reference``."""

    TWO_SITE = XXXParams(1.0, 0.0, 2, "open")

    @staticmethod
    def assert_same_bytes(tmp_path, cells, digits):
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        _write_sweep_csv(str(new), cells, digits)
        csv_reference._write_sweep_csv(str(ref), cells, digits)
        assert new.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("digits", [6, 10, 17])
    def test_figure_grids(self, tmp_path, digits):
        t_values = _grid(0.01, 4.0, 400)
        preset = bound_sweep(self.TWO_SITE, EsepPolicy("fixed", -2.0), t_values, [0.0])
        closed = bound_sweep(
            self.TWO_SITE, EsepPolicy("closed-form"), t_values, _grid(0.0, 2.0, 41)
        )
        # the 41-field grid spans several chunks, and a chunk ends inside a field
        assert len(closed) > 2 * _CSV_CHUNK and _CSV_CHUNK % 400 != 0
        self.assert_same_bytes(tmp_path, preset, digits)
        self.assert_same_bytes(tmp_path, closed, digits)

    @pytest.mark.parametrize("digits", [6, 10, 17])
    @pytest.mark.parametrize("policy", ["closed-form", "exact"])
    def test_signed_zero_field_zero_temperature_and_strong_fields(self, tmp_path, digits, policy):
        fields = [-3.0, -0.0, 0.0, 0.7, 2.5, 4.0]
        cells = bound_sweep(self.TWO_SITE, EsepPolicy(policy), [0.0, 0.3, 2.0], fields, restarts=8)
        assert cells.b[3:6].tolist() == [-0.0] * 3
        self.assert_same_bytes(tmp_path, cells, digits)

    @pytest.mark.parametrize("digits", [6, 10, 17])
    def test_bounds_of_zero_and_minus_zero(self, tmp_path, digits):
        cells = np.recarray(4, dtype=SWEEP_DTYPE)
        cells.b, cells.t, cells.normalizer_a = 0.0, 1.0, 2.0
        cells.mean_energy = [-1.5, 0.0, -2.0, -0.25]
        cells.esep = [-1.5, -0.0, -1.0, -1.0]  # bounds 0, -0, 0.5 and -0.375
        cells.detected = cells.esep > cells.mean_energy
        self.assert_same_bytes(tmp_path, cells, digits)
        rows = [line.split(",") for line in (tmp_path / "new.csv").read_text().splitlines()[1:]]
        assert [row[5:7] for row in rows[:2]] == [["0", "0"], ["-0", "0"]]

    def test_chunk_boundaries_inside_fields(self, tmp_path, monkeypatch):
        monkeypatch.setattr("enwit.cli._CSV_CHUNK", 7)
        t_values = [0.5, 1.0, 1.5, 2.0, 2.5]
        cells = bound_sweep(self.TWO_SITE, EsepPolicy("closed-form"), t_values, [0, 1, 3])
        self.assert_same_bytes(tmp_path, cells, 10)

    @staticmethod
    def hard_floats() -> np.ndarray:
        """Signed zeros, subnormals, 1e-300..1e300, and where %g changes notation or rounds up."""
        edges = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-5, 1e-4, 1e300]
        edges += [10.0**k for k in range(19)]
        edges += [10.0**k * (10.0 - 5.0 * 10.0**-d) for d in range(5, 18) for k in (-6, -5, 0, d)]
        edges = np.array(edges)
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        return np.concatenate([near, -near])

    @pytest.mark.parametrize("digits", range(6, 18))
    def test_percent_formatting_matches_reference_on_hard_floats(self, tmp_path, digits):
        rng = np.random.default_rng(27)
        n = 2 * _CSV_CHUNK + 123
        hard = self.hard_floats()
        spread = rng.choice([-1.0, 1.0], 4096) * 10.0 ** rng.uniform(-300.0, 300.0, 4096)
        pool = np.concatenate([hard, spread])
        cells = np.recarray(n, dtype=SWEEP_DTYPE)
        for column in ("b", "t", "mean_energy", "esep"):
            cells[column] = rng.choice(pool, n)
        # every hard value lands in the formatted-per-chunk mean column
        cells.mean_energy[: len(hard)] = hard
        # A >= 1e-7 keeps |esep - mean| / A <= 2e307 finite
        cells.normalizer_a = rng.choice(np.abs(pool[np.abs(pool) >= 1e-7]), n)
        cells.detected = rng.random(n) < 0.5  # the writer reads detected from the printed bound
        self.assert_same_bytes(tmp_path, cells, digits)

    def test_detected_follows_the_printed_bound(self, tmp_path):
        # the search's E_sep at B = 2 lies 9.6e-13 above the true -3 = <H>, so
        # the unrounded bound is 1.2e-13 while every printed input reads -3
        cells = np.recarray(2, dtype=SWEEP_DTYPE)
        cells.b, cells.t, cells.normalizer_a = 2.0, 0.01, 8.0
        cells.mean_energy = [-3.0, -3.5]
        cells.esep = -2.99999999999904
        cells.detected = True
        self.assert_same_bytes(tmp_path, cells, 10)
        rows = (tmp_path / "new.csv").read_text().splitlines()[1:]
        assert rows == ["2,0.01,-3,-3,8,0,0,false", "2,0.01,-3.5,-3,8,0.0625,0.0625,true"]

    def test_bound_raw_at_precision_17_is_the_library_bound(self, tmp_path):
        """17 digits round-trip every input, so the recomputed column is the library's bits."""
        t_values = _grid(0.01, 4.0, 400)
        b_values = _grid(0.0, 2.0, 41)
        cells = bound_sweep(self.TWO_SITE, EsepPolicy("closed-form"), t_values, b_values)
        path = tmp_path / "s.csv"
        _write_sweep_csv(str(path), cells, 17)
        printed = np.loadtxt(path, delimiter=",", skiprows=1, usecols=5)
        assert printed.view(np.int64).tolist() == cells.bound_raw.view(np.int64).tolist()


class TestRefutedFixedValue:
    """E_sep = -1 for s1.s2 at B = 0, so fixed:0.5 is no separability energy."""

    EXTRA = {"esep": [], "witness": [], "bound-sweep": ["--T", "1"]}

    @pytest.mark.parametrize("command", list(EXTRA))
    def test_refuted_value_exits_2(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = [command, "--J", "1", "--B", "0", "--policy", "fixed:0.5"] + self.EXTRA[command]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert re.fullmatch(
            r"error: fixed esep 0\.5 is refuted( at B = 0)?: the product state with Bloch angles "
            r"\(theta, phi\) = \([-\d.]+, [-\d.]+\), \([-\d.]+, [-\d.]+\) has energy -1\n",
            err,
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", list(EXTRA))
    def test_value_below_esep_is_kept(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = [command, "--J", "1", "--B", "0", "--policy", "fixed:-2"] + self.EXTRA[command]
        assert run(argv, capsys)[0] == 0

    def test_pauli_file_sweep_refuses_it(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "h.txt").write_text("1.0 XX\n1.0 YY\n1.0 ZZ\n")
        argv = [
            "bound-sweep", "--model", "pauli-file", "--pauli-file", "h.txt", "--T", "1",
            "--policy", "fixed:0.5",
        ]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: fixed esep 0.5 is refuted at B = 0: ")
        assert [f.name for f in tmp_path.iterdir()] == ["h.txt"]

    def test_sweep_names_the_refuting_field(self, tmp_path, monkeypatch, capsys):
        """fixed:-2 holds below E_sep(B) = -1 - B^2/2 up to B = sqrt(2); B = 2 refutes it."""
        monkeypatch.chdir(tmp_path)
        argv = [
            "bound-sweep", "--J", "1", "--B-min", "0", "--B-max", "3", "--B-steps", "4",
            "--T", "1", "--policy", "fixed:-2",
        ]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: fixed esep -2 is refuted at B = 2: ")
        assert list(tmp_path.iterdir()) == []

    def test_sweep_searches_every_field_at_once(self, tmp_path, monkeypatch, capsys):
        import enwit.bloch

        calls = []
        search = enwit.bloch.bloch_search

        def counted(hs, r0):
            calls.append(len(hs))
            return search(hs, r0)

        monkeypatch.setattr(enwit.bloch, "bloch_search", counted)
        for policy in ("exact", "fixed:-9"):
            argv = [
                "bound-sweep", "--J", "1", "--B-min", "0", "--B-max", "2", "--B-steps", "41",
                "--T-min", "0.1", "--T-max", "1", "--T-steps", "3", "--policy", policy,
                "--out", str(tmp_path / "sweep.csv"),
            ]
            assert run(argv, capsys)[0] == 0
        assert calls == [41, 41]

    def test_sweep_builds_every_field_once(self, tmp_path, monkeypatch, capsys):
        """The fields built to refute a fixed value are the ones the sweep reads."""
        import enwit.cli
        import enwit.witness

        built = []
        real = enwit.cli.build_xxx

        def counted(params):
            built.append(params.field_b)
            return real(params)

        monkeypatch.setattr(enwit.cli, "build_xxx", counted)
        monkeypatch.setattr(enwit.witness, "build_xxx", counted)
        argv = [
            "bound-sweep", "--J", "1", "--B-min", "0", "--B-max", "2", "--B-steps", "41",
            "--T-min", "0.1", "--T-max", "1", "--T-steps", "3", "--policy", "fixed:-5",
            "--out", str(tmp_path / "sweep.csv"),
        ]
        assert run(argv, capsys)[0] == 0
        assert len(built) == 41 and len(set(built)) == 41


class TestRobustnessCommand:
    def test_singlet(self, capsys):
        code, out, _ = run(["robustness", "--state", "singlet"], capsys)
        assert code == 0
        assert "rg_value = 1.00000" in out

    def test_separable_thermal_regime(self, capsys):
        argv = [
            "robustness", "--state", "thermal",
            "--model", "xxx", "--J", "1", "--B", "0", "--T", "5",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        rg = float(out.splitlines()[0].split("=")[1])
        assert rg <= 1e-5

    def test_product_state(self, capsys):
        code, out, _ = run(["robustness", "--state", "product:0,0"], capsys)
        assert code == 0
        rg = float(out.splitlines()[0].split("=")[1])
        assert rg <= 1e-5

    def test_ppt_thermal_state_is_exactly_zero(self, capsys):
        """Above T = 4/ln 3 the B = 0 thermal state is PPT: the zero certificate, gap 0."""
        argv = [
            "robustness", "--state", "thermal", "--model", "xxx",
            "--J", "1", "--B", "0", "--T", "3.9", "--policy", "closed-form",
        ]
        code, out, err = run(argv, capsys)
        assert code == 0
        assert err == ""
        assert out == (
            "rg_value = 0.00000\n"
            "duality_gap = 0.000e+00\n"
            "energy_bound = -0.03647 (<= rg_value)\n"
        )

    def test_bound_comparison_printed(self, capsys):
        argv = [
            "robustness", "--state", "thermal",
            "--model", "xxx", "--J", "1", "--B", "0", "--T", "1",
            "--policy", "fixed:-2",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert "energy_bound" in out
        assert "<=" in out

    def test_single_agreeing_restart_warns(self, capsys):
        argv = ["robustness", "--state", "singlet", "--J", "1", "--B", "0.5"]
        code, out, err = run(argv + ["--restarts", "1"], capsys)
        assert code == 0
        assert err == "warning: a single restart reached this esep; raise --restarts\n"
        assert "restarts_agreeing" not in out
        code, _, err = run(argv + ["--restarts", "8"], capsys)
        assert code == 0
        assert err == ""

    @pytest.mark.parametrize("model", ["xxx", "pauli-file"])
    def test_state_that_does_not_fit_h_exits_2_with_nothing_printed(self, model, tmp_path, capsys):
        """<H> is formed before R_g, so a three-qubit H with the singlet prints nothing."""
        if model == "xxx":
            given = ["--J", "1", "--sites", "3"]
        else:
            pf = tmp_path / "h.txt"
            pf.write_text("1.0 XXI\n1.0 IYY\n0.5 ZIZ\n")
            given = ["--model", "pauli-file", "--pauli-file", str(pf)]
        code, out, err = run(["robustness", "--state", "singlet"] + given, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: shape mismatch: operator (2, 2, 2) vs state (2, 2)\n"

    def test_pauli_file_model_without_a_file_exits_2(self, capsys):
        code, out, err = run(["robustness", "--state", "singlet", "--model", "pauli-file"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --pauli-file is required for the pauli-file model\n"

    def test_unsound_bound_exits_3(self, capsys):
        """A fixed E_sep above the product-state minimum lets the bound exceed R_g."""
        argv = [
            "robustness", "--state", "product:0,0,3.14159,0",
            "--J", "1", "--B", "0", "--policy", "fixed:-0.5",
        ]
        code, out, err = run(argv, capsys)
        assert code == 3
        assert "energy_bound = 0.20000 (>! rg_value)" in out
        assert "numerical failure" in err


class TestMeasureCommand:
    def test_eigenstate_zero_stderr(self, capsys):
        argv = [
            "measure", "--model", "xxx", "--J", "1", "--B", "0",
            "--state", "ground", "--shots", "1", "--seed", "3", "--policy", "fixed:-2",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert "stderr = 0" in out
        assert "detected = true" in out

    def test_thermal_interval_contains_expected_bound(self, capsys):
        argv = [
            "measure", "--model", "xxx", "--J", "1", "--B", "0",
            "--state", "thermal", "--T", "1", "--shots", "100000",
            "--seed", "9", "--policy", "fixed:-2", "--z", "3",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("bound_interval")][0]
        lo, hi = (float(v) for v in line.split("[")[1].split("]")[0].split(","))
        assert lo <= 0.2639 <= hi

    def test_z_zero_degenerate(self, capsys):
        argv = [
            "measure", "--model", "xxx", "--J", "1", "--B", "0",
            "--state", "thermal", "--T", "1", "--shots", "100",
            "--seed", "4", "--policy", "fixed:-2", "--z", "0",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("bound_interval")][0]
        lo, hi = (float(v) for v in line.split("[")[1].split("]")[0].split(","))
        assert lo == hi

    def test_refuted_fixed_value_exits_2(self, capsys):
        """E_sep = -1 here, so fixed:0.5 is no separability energy; a product state proves it."""
        argv = [
            "measure", "--J", "1", "--B", "0", "--T", "1",
            "--policy", "fixed:0.5", "--state", "product:0,0,3.14159,0",
        ]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        match = re.fullmatch(
            r"error: fixed esep 0\.5 is refuted: the product state with Bloch angles "
            r"\(theta, phi\) = \(([-\d.]+), ([-\d.]+)\), \(([-\d.]+), ([-\d.]+)\) "
            r"has energy (\S+)\n",
            err,
        )
        assert match
        t1, p1, t2, p2, energy = (float(v) for v in match.groups())
        assert energy == pytest.approx(-1.0, abs=1e-9)
        # the named state is antiparallel: r1 . r2 = -1 for H = s1.s2
        dot = math.sin(t1) * math.sin(t2) * math.cos(p1 - p2) + math.cos(t1) * math.cos(t2)
        assert dot == pytest.approx(-1.0, abs=1e-5)

    def test_fixed_value_at_the_minimum_is_kept(self, capsys):
        argv = [
            "measure", "--J", "1", "--B", "0", "--T", "1", "--shots", "10",
            "--policy", "fixed:-1", "--state", "product:0,0,3.14159,0",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert "detected = " in out

    def test_closed_form_needs_xxx_model(self, tmp_path, capsys):
        pf = tmp_path / "h.txt"
        pf.write_text("1.0 XX\n1.0 YY\n1.0 ZZ\n")
        argv = [
            "measure", "--model", "pauli-file", "--pauli-file", str(pf),
            "--T", "1", "--shots", "10", "--policy", "closed-form",
        ]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "closed-form policy needs the xxx model" in err

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: the mean +- z*stderr interval collapses to a point after one shot",
    )
    def test_one_shot_does_not_detect_a_separable_state(self, capsys):
        """T = 3.9 lies above 4/ln 3, where the two-site thermal state is separable."""
        argv = [
            "measure", "--J", "1", "--B", "0", "--state", "thermal", "--T", "3.9",
            "--shots", "1", "--seed", "0", "--policy", "closed-form", "--z", "3",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert "detected = false" in out


RING8 = ["--sites", "8", "--boundary", "periodic"]


class TestOneSpectrumPerHamiltonian:
    """Each Hamiltonian is diagonalized once, on the dense path (two sites) and
    on the sector path (the eight-site ring, dimension 256)."""

    XXX = ["--model", "xxx", "--J", "1"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--B", "0.5"],
            ["robustness", "--B", "0.5", "--T", "1", "--policy", "exact"],
            ["measure", "--B", "0.5", "--T", "1", "--shots", "100", "--policy", "exact"],
            ["spectrum", "--B", "0.5"] + RING8,
            ["measure", "--B", "0.5", "--T", "1", "--shots", "100", "--policy", "exact"] + RING8,
        ],
        ids=["spectrum", "robustness", "measure", "spectrum-ring8", "measure-ring8"],
    )
    def test_one_eigh_per_command(self, argv, spectrum_calls, capsys):
        assert run(argv + self.XXX, capsys)[0] == 0
        assert len(spectrum_calls) == 1

    def test_one_eigh_per_sweep_field(self, tmp_path, spectrum_calls, capsys):
        argv = [
            "bound-sweep", "--B-min", "0", "--B-max", "1", "--B-steps", "3",
            "--T-min", "0", "--T-max", "2", "--T-steps", "5",
            "--policy", "exact", "--out", str(tmp_path / "s.csv"),
        ]
        assert run(argv + self.XXX, capsys)[0] == 0
        assert len(spectrum_calls) == 3


class TestConfigFile:
    def test_file_values_used(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model: xxx\nJ: 1\nB: 0\n")
        code, out, _ = run(["spectrum", "--config", str(cfg)], capsys)
        assert code == 0
        assert "e_min = -3" in out

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model: xxx\nJ: 1\nB: 0\n")
        code, out, _ = run(["spectrum", "--config", str(cfg), "--B", "0.5"], capsys)
        assert code == 0
        assert "e_max = 2" in out

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model: xxx\ncoupling: 1\n")
        code, _, err = run(["spectrum", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown config key" in err

    # option -> (value, flags that complete the option)
    SETTINGS = {
        "model": ("pauli-file", []),
        "pauli-file": ("h.txt", ["--model", "pauli-file"]),
        "J": ("2.5", []),
        "B": ("0.5", []),
        "B-min": ("0.25", ["--B-max", "1", "--B-steps", "3"]),
        "B-max": ("1.5", ["--B-min", "0", "--B-steps", "3"]),
        "B-steps": ("4", ["--B-min", "0", "--B-max", "1"]),
        "T": ("0.5", []),
        "T-min": ("0.25", ["--T-max", "1", "--T-steps", "3"]),
        "T-max": ("1.5", ["--T-min", "0.1", "--T-steps", "3"]),
        "T-steps": ("4", ["--T-min", "0.1", "--T-max", "1"]),
        "sites": ("3", []),
        "boundary": ("periodic", []),
        "policy": ("fixed:-2", []),
        "restarts": ("5", []),
        "seed": ("11", []),
        "out": ("x.csv", []),
        "out-dir": ("fig", []),
        "precision": ("12", []),
        "state": ("singlet", []),
        "shots": ("7", []),
        "z": ("2", []),
    }

    @pytest.mark.parametrize("name", list(_OPTION_SPECS))
    def test_flag_and_file_give_same_config(self, name, tmp_path):
        value, rest = self.SETTINGS[name]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{name}: {value}\n")
        command = next(c for c, (_, options) in _COMMANDS.items() if name in options)

        def config(argv):
            return _config(_make_parser().parse_args([command] + argv))

        from_flag = config([f"--{name}", value] + rest)
        assert from_flag == config(["--config", str(cfg_file)] + rest)
        assert from_flag != config([])

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize(
        "key, value",
        [("restarts", "0"), ("shots", "0"), ("z", "-1"), ("precision", "3"), ("J", "nan"),
         ("model", "foo"), ("state", "product:0,nan")],
    )
    def test_bad_value_exits_2(self, key, value, source, tmp_path, capsys):
        if source == "flag":
            given = [f"--{key}", value]
        else:
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(f"{key}: {value}\n")
            given = ["--config", str(cfg_file)]
        j = [] if key == "J" else ["--J", "1"]
        argv = ["measure", "--T", "1", "--policy", "fixed:-2"] + j + given
        code, out, err = run(argv, capsys)
        assert code == 2
        assert f"bad value for {key}" in err
        assert out == ""

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize(
        "argv, key",
        [
            (["measure", "--J", "1", "--policy", "fixed:-2"], "T"),
            (["bound-sweep", "--J", "1", "--policy", "fixed:-2", "--T-max", "1", "--T-steps",
              "3"], "T-min"),
            (["bound-sweep", "--J", "1", "--policy", "fixed:-2", "--T-min", "0", "--T-steps",
              "1"], "T-max"),
        ],
        ids=["measure-T", "bound-sweep-T-min", "bound-sweep-T-max"],
    )
    def test_negative_temperature_exits_2(self, argv, key, source, tmp_path, monkeypatch, capsys):
        """T = 0 is the ground state; a temperature below 0 is refused as an option value."""
        monkeypatch.chdir(tmp_path)
        if source == "flag":
            given = [f"--{key}", "-1"]
        else:
            (tmp_path / "run.cfg").write_text(f"{key}: -1\n")
            given = ["--config", "run.cfg"]
        code, out, err = run(argv + given, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {'run.cfg:1: ' * (source == 'file')}bad value for {key}: ")
        assert run(argv + [f"--{key}", "0"], capsys)[0] == 0

    def test_bad_precision_exits_2(self, capsys):
        code, _, _ = run(
            ["spectrum", "--model", "xxx", "--J", "1", "--B", "0", "--precision", "3"],
            capsys,
        )
        assert code == 2


UNDECLARED = [
    (command, key)
    for command, (_, options) in _COMMANDS.items()
    for key in _OPTION_SPECS
    if key not in options
]


class TestCommandTable:
    """Each command declares only the options it reads and refuses any other."""

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command, key", UNDECLARED, ids=[f"{c}-{k}" for c, k in UNDECLARED])
    def test_undeclared_option_exits_2(self, command, key, source, tmp_path, capsys):
        value = TestConfigFile.SETTINGS[key][0]
        takes_j = "J" in _COMMANDS[command][1]
        if source == "flag":
            given = [f"--{key}", value]
            expected = f"error: {command} does not take --{key}\n"
        else:
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(f"J: 1\n{key}: {value}\n" if takes_j else f"{key}: {value}\n")
            given = ["--config", str(cfg_file)]
            expected = f"error: {cfg_file}:{1 + takes_j}: {command} does not take {key}\n"
        code, out, err = run([command] + ["--J", "1"] * takes_j + given, capsys)
        assert code == 2
        assert out == ""
        assert err == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--J", "1", "--B", "0", "--shots", "5", "--policy", "fixed:-2",
             "--out", "x.csv"],
            ["witness", "--J", "1", "--B", "0", "--policy", "fixed:-2", "--T", "0.5",
             "--state", "singlet"],
            ["reproduce-figure", "--J", "1"],
        ],
        ids=["spectrum", "witness", "reproduce-figure"],
    )
    def test_reproductions_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {argv[0]} does not take --")
        assert list(tmp_path.iterdir()) == []

    def test_subcommands_are_the_command_table(self):
        [sub] = [a for a in _make_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == list(_COMMANDS)

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_help_lists_declared_options(self, command, capsys):
        with pytest.raises(SystemExit):
            _make_parser().parse_args([command, "--help"])
        listed = set(re.findall(r"(?<![\w-])--[\w-]+", capsys.readouterr().out))
        assert listed == {"--help", "--config"} | {f"--{k}" for k in _COMMANDS[command][1]}

    def test_consecutive_calls_parse_independently(self, tmp_path, monkeypatch, capsys):
        """The parser is built once per process; no value of one call reaches the next."""
        import enwit.cli

        seen = []
        real = enwit.cli._config

        def spy(args):
            seen.append(dict(vars(args)))
            return real(args)

        monkeypatch.setattr(enwit.cli, "_config", spy)
        first = ["witness", "--J", "2", "--B", "0.5", "--policy", "fixed:-7", "--precision", "7"]
        calls = [first, ["witness", "--J", "1"], ["spectrum", "--J", "1", "--sites", "3"]]
        for argv in calls:
            assert run(argv, capsys)[0] == 0
        assert _make_parser() is _make_parser()
        given = {"2", "0.5", "fixed:-7", "7"}
        for later in seen[1:]:
            assert given.isdisjoint(later.values())
        assert seen[1]["B"] is None and seen[1]["policy"] is None
        assert seen[2]["command"] == "spectrum" and "policy" not in seen[2]

    def test_every_option_is_read(self):
        assert {k for _, options in _COMMANDS.values() for k in options} == set(_OPTION_SPECS)


class TestNonFiniteInputs:
    """NaN fails every ordered comparison, so it must be refused, not slip through."""

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["bound-sweep", "--J", "1", "--T", "nan", "--policy", "fixed:-2"], "T"),
            (["esep", "--J", "1", "--B", "nan", "--policy", "exact"], "B"),
            (["witness", "--J", "1", "--B", "0", "--policy", "fixed:nan"], "policy"),
            (["measure", "--J", "1", "--T", "1", "--policy", "fixed:-2", "--z", "nan"], "z"),
        ],
        ids=["bound-sweep", "esep", "witness", "measure"],
    )
    def test_exits_2(self, argv, key, tmp_path, capsys):
        out_file = tmp_path / "s.csv"
        csv = ["--out", str(out_file)] if argv[0] == "bound-sweep" else []
        code, out, err = run(argv + csv, capsys)
        assert code == 2
        assert f"bad value for {key}" in err
        assert out == ""
        assert not out_file.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflowingHamiltonian:
    """A Hamiltonian whose |coefficients| sum past 1e100 is refused before it is built,
    so no command prints nan or inf, writes a CSV or overflows on the way."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--J", "1", "--B", "1e308"],
            ["witness", "--J", "1", "--B", "1e308"],
            ["esep", "--J", "1e200", "--B", "1e200", "--policy", "closed-form"],
            ["bound-sweep", "--J", "1e200", "--B", "1e200", "--T", "1", "--policy", "closed-form"],
            ["witness", "--J", "1e200", "--B", "1e200"],
        ],
        ids=["spectrum", "witness-field", "esep-closed-form", "bound-sweep", "witness-search"],
    )
    def test_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: the Hamiltonian's |coefficients| sum to ")
        assert list(tmp_path.iterdir()) == []

    def test_large_but_finite_scale_is_kept(self, capsys):
        """J = B = T = 1e50 is the J = B = T = 1 problem in other units."""
        base = ["measure", "--policy", "closed-form", "--shots", "1000", "--seed", "5"]
        _, unit, _ = run(base + ["--J", "1", "--B", "1", "--T", "1"], capsys)
        code, big, _ = run(base + ["--J", "1e50", "--B", "1e50", "--T", "1e50"], capsys)
        assert code == 0
        assert big.splitlines()[-2:] == unit.splitlines()[-2:]


class TestScaleFreeTolerances:
    """Scaling J, B, T and a fixed E_sep by one factor changes the unit, not the verdict."""

    UNIT_INTERVAL = "bound_interval = [-0.4369830432, -0.2590169568] (z = 3)"
    SCALES = pytest.mark.parametrize(
        "s", [1e-13, 1e-10, 1.0, 1e10], ids=["1e-13", "1e-10", "1", "1e10"]
    )

    @SCALES
    def test_levels_stay_apart(self, s, capsys):
        code, out, _ = run(["spectrum", "--J", f"{s:g}"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == f"levels: {-3 * s:g} (x1), {s:g} (x3)"

    @SCALES
    def test_separable_thermal_state_is_not_detected(self, s, capsys):
        """T = 10 J is far above the PPT transition, so R_g = 0 and nothing may be detected."""
        argv = [
            "measure", "--J", f"{s:g}", "--B", "0", "--T", f"{10 * s:g}", "--state", "thermal",
            "--policy", "closed-form", "--shots", "1000", "--seed", "1",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out.splitlines()[-2:] == [self.UNIT_INTERVAL, "detected = false"]

    @SCALES
    def test_fixed_value_above_esep_is_refuted(self, s, capsys):
        code, out, err = run(["witness", "--J", f"{s:g}", "--policy", f"fixed:{5 * s:g}"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: fixed esep {5 * s:g} is refuted: ")

    @SCALES
    def test_fixed_value_at_the_minimum_is_kept(self, s, capsys):
        code, out, _ = run(["witness", "--J", f"{s:g}", "--policy", f"fixed:{-s:g}"], capsys)
        assert code == 0
        assert f"A = {2 * s:g}" in out

    @SCALES
    def test_esep_below_the_ground_energy_is_noted(self, s, capsys):
        argv = ["witness", "--J", f"{s:g}", "--B", "0", "--policy", f"fixed:{-3.5 * s:g}"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out.splitlines()[-1] == (
            "note: esep lies below the ground energy; the witness detects nothing"
        )

    @SCALES
    def test_closed_form_witness_exists(self, s, capsys):
        code, out, _ = run(["witness", "--J", f"{s:g}", "--policy", "closed-form"], capsys)
        assert code == 0
        assert f"A = {2 * s:g}" in out


    def test_exact_sweep_at_large_coupling(self, tmp_path, capsys):
        """Round-off in <H>(T) grows with J; at J = 1000 it broke a fixed 1e-12
        monotonicity tolerance, which scales with the spectrum now."""
        out = tmp_path / "x.csv"
        argv = [
            "bound-sweep", "--J", "1000", "--sites", "6", "--boundary", "periodic",
            "--policy", "exact", "--B-min", "300", "--B-max", "300", "--B-steps", "1",
            "--T-min", "10", "--T-max", "4000", "--T-steps", "400", "--out", str(out),
        ]
        code, stdout, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert stdout == f"wrote {out} (400 rows)\n"


class TestGridOutsideBoundSweep:
    """A B or T grid given to a one-point command is refused, not cut to its lowest point."""

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["witness", "--J", "1", "--B-min", "1", "--B-max", "2", "--B-steps", "3",
              "--policy", "fixed:-2"], "B"),
            (["measure", "--J", "1", "--B", "0", "--T-min", "1", "--T-max", "3", "--T-steps",
              "3", "--policy", "fixed:-2", "--shots", "10"], "T"),
            (["esep", "--J", "1", "--B-min", "0.5", "--B-max", "1", "--B-steps", "2",
              "--policy", "closed-form"], "B"),
        ],
        ids=["witness", "measure", "esep"],
    )
    def test_exits_2(self, argv, key, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert f"{argv[0]} does not take --{key}-min" in err

    def test_config_file_grid_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("J: 1\nT-min: 1\nT-max: 3\nT-steps: 3\n")
        code, out, err = run(["robustness", "--config", str(cfg), "--state", "thermal"], capsys)
        assert code == 2
        assert out == ""
        assert "robustness does not take T-min" in err


class TestReproduceFigure:
    def test_outputs_and_anchor_rows(self, tmp_path, capsys):
        code, out, _ = run(["reproduce-figure", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        preset = (tmp_path / "figure_preset_b0.csv").read_text().splitlines()
        closed = (tmp_path / "figure_closed_form.csv").read_text().splitlines()
        assert len(preset) == 401
        assert len(closed) == 41 * 400 + 1

        def b0_column(lines):
            rows = {}
            for line in lines[1:]:
                cols = line.split(",")
                if cols[0] == "0":
                    rows[round(float(cols[1]), 6)] = float(cols[6])
            return rows

        preset_col = b0_column(preset)
        for t, clipped in preset_col.items():
            if t <= 1.8200:
                assert clipped > 0.0, t
            if t >= 1.8210:
                assert clipped == 0.0, t
        closed_col = b0_column(closed)
        assert closed_col[3.64] > 0.0
        assert closed_col[3.65] == 0.0


    def test_config_file_gives_the_flag_files(self, tmp_path, capsys):
        flags, by_file = tmp_path / "flags", tmp_path / "file"
        argv = ["reproduce-figure", "--out-dir", str(flags), "--precision", "7"]
        assert run(argv, capsys)[0] == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out-dir: {by_file}\nprecision: 7\n")
        assert run(["reproduce-figure", "--config", str(cfg)], capsys)[0] == 0
        names = sorted(p.name for p in flags.iterdir())
        assert names == ["figure_closed_form.csv", "figure_preset_b0.csv"]
        assert sorted(p.name for p in by_file.iterdir()) == names
        for name in names:
            assert (flags / name).read_bytes() == (by_file / name).read_bytes()

    def test_bad_precision_exits_2(self, tmp_path, capsys):
        code, out, err = run(
            ["reproduce-figure", "--out-dir", str(tmp_path / "fig"), "--precision", "3"], capsys
        )
        assert code == 2
        assert "bad value for precision" in err
        assert out == ""


class TestConfigurationExitCode:
    def test_sweep_into_a_missing_directory_exits_2(self, tmp_path, capsys):
        out_file = tmp_path / "no" / "x.csv"
        argv = ["bound-sweep", "--J", "1", "--T", "1", "--policy", "fixed:-2"]
        code, out, err = run(argv + ["--out", str(out_file)], capsys)
        assert code == 2
        assert err.startswith("error: ") and str(out_file) in err
        assert out == ""

    def test_figure_into_a_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "f"
        blocker.write_text("")
        code, out, err = run(["reproduce-figure", "--out-dir", str(blocker)], capsys)
        assert code == 2
        assert err.startswith("error: ") and str(blocker) in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--config", "--pauli-file"])
    def test_missing_input_file_exits_2(self, flag, tmp_path, capsys):
        missing = tmp_path / "absent.txt"
        code, out, err = run(["spectrum", "--model", "pauli-file", flag, str(missing)], capsys)
        assert code == 2
        assert err.startswith("error: ") and str(missing) in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv", [["esep", "--J", "1", "--policy", "exact"], ["spectrum"]], ids=["esep", "spectrum"]
    )
    def test_xxx_model_refuses_pauli_file(self, argv, tmp_path, capsys):
        pf = tmp_path / "h.txt"
        pf.write_text("1.0 XX\n1.0 YY\n1.0 ZZ\n")
        code, out, err = run(argv + ["--pauli-file", str(pf)], capsys)
        assert code == 2
        assert "pauli-file does not apply to the xxx model" in err
        assert out == ""


class TestNumericalFailureExitCode:
    def test_solver_error_maps_to_exit_3(self, capsys, monkeypatch):
        from enwit.errors import NumericalError
        import enwit.cli as cli_mod

        def boom(rho):
            raise NumericalError("forced for the exit-code contract")

        monkeypatch.setattr(cli_mod, "rg_exact_2q", boom)
        code, _, err = run(["robustness", "--state", "singlet"], capsys)
        assert code == 3
        assert "numerical failure" in err


    def test_falling_mean_energy_maps_to_exit_3(self, tmp_path, capsys, monkeypatch):
        from enwit import thermal

        real = thermal._thermal_table

        def reversed_means(spectra, temps):
            probs, log_z, mean = real(spectra, temps)
            return probs, log_z, mean[:, ::-1].copy()

        monkeypatch.setattr(thermal, "_thermal_table", reversed_means)
        argv = ["bound-sweep", "--J", "1", "--T-min", "0.5", "--T-max", "2", "--T-steps", "3",
                "--out", str(tmp_path / "s.csv")]
        code, _, err = run(argv, capsys)
        assert code == 3
        assert err.startswith("numerical failure: mean energy falls by ")


def unit_in_last_digit(printed: str) -> float:
    """Magnitude of one unit in the last significant digit of a printed float."""
    s = printed.strip().lstrip("-")
    if s in ("0", "0.0"):
        return 1e-12
    if "e" in s or "E" in s:
        mantissa, exp = s.lower().split("e")
        digits = len(mantissa.replace(".", "").lstrip("0"))
        lead = math.floor(math.log10(abs(float(printed))))
        return 10.0 ** (lead - digits + 1)
    if "." in s:
        return 10.0 ** (-(len(s.split(".")[1])))
    return 1.0


class TestReadmeCommands:
    """Every example of the README's command-line section runs and exits 0."""

    def test_finds_the_examples(self):
        assert len(README_COMMANDS) == 9

    @pytest.mark.parametrize(
        "argv", README_COMMANDS, ids=[f"{k}-{a[0]}" for k, a in enumerate(README_COMMANDS)]
    )
    def test_example_exits_0(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(argv, capsys)
        assert code == 0, err
