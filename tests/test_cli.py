import math

import pytest

from enwit.cli import _OPTION_SPECS, _config, _make_parser, main


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
        assert "esep = -1.0000000000" in out
        assert "source = exact-optimized" in out
        assert "theta" in out

    def test_fixed_policy_passthrough(self, capsys):
        code, out, _ = run(
            ["esep", "--model", "xxx", "--J", "1", "--B", "0", "--policy", "fixed:-2"], capsys
        )
        assert code == 0
        assert "esep = -2.0000000000" in out
        assert "source = user-supplied" in out

    def test_closed_form_policy(self, capsys):
        code, out, _ = run(
            ["esep", "--model", "xxx", "--J", "1", "--B", "1", "--policy", "closed-form"],
            capsys,
        )
        assert code == 0
        assert "esep = -1.5000000000" in out

    def test_unknown_policy_exits_2(self, capsys):
        code, _, err = run(
            ["esep", "--model", "xxx", "--J", "1", "--B", "0", "--policy", "magic"], capsys
        )
        assert code == 2
        assert "policy" in err


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

    def test_double_count_two_site_bond(self, tmp_path, capsys):
        # the doubled bond makes H = 2 s1.s2: spectrum [-6, 2], so A = 2 - (-2) = 4
        out_file = tmp_path / "sweep.csv"
        argv = [
            "bound-sweep", "--J", "1", "--B", "0", "--boundary", "periodic",
            "--double-count-two-site-bond", "--policy", "fixed:-2", "--T", "1",
            "--out", str(out_file),
        ]
        assert run(argv, capsys)[0] == 0
        row = out_file.read_text().splitlines()[1].split(",")
        assert row[4] == "4"
        code, out, _ = run(["witness"] + argv[1:-2], capsys)
        assert code == 0
        assert "A = 4" in out

    @pytest.mark.parametrize(
        "command",
        [["bound-sweep"], ["esep"], ["witness"], ["measure"], ["robustness", "--state", "singlet"]],
        ids=["bound-sweep", "esep", "witness", "measure", "robustness"],
    )
    def test_closed_form_refuses_double_counted_bond(self, command, tmp_path, capsys):
        # the closed form is E_sep of J s1.s2; with the bond counted twice it
        # would give -1 where the true value is -2, an unsound witness
        argv = command + [
            "--J", "1", "--B", "0", "--boundary", "periodic",
            "--double-count-two-site-bond", "--policy", "closed-form", "--T", "1",
            "--out", str(tmp_path / "sweep.csv"),
        ]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert "counts the two-site bond once" in err
        assert out == ""
        assert not (tmp_path / "sweep.csv").exists()

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


class TestOneSpectrumPerHamiltonian:
    XXX = ["--model", "xxx", "--J", "1", "--policy", "exact"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--B", "0.5"],
            ["robustness", "--B", "0.5", "--T", "1"],
            ["measure", "--B", "0.5", "--T", "1", "--shots", "100"],
        ],
        ids=["spectrum", "robustness", "measure"],
    )
    def test_one_eigh_per_command(self, argv, eigh_calls, capsys):
        assert run(argv + self.XXX, capsys)[0] == 0
        assert len(eigh_calls) == 1

    def test_one_eigh_per_sweep_field(self, tmp_path, eigh_calls, capsys):
        argv = [
            "bound-sweep", "--B-min", "0", "--B-max", "1", "--B-steps", "3",
            "--T-min", "0", "--T-max", "2", "--T-steps", "5",
            "--out", str(tmp_path / "s.csv"),
        ]
        assert run(argv + self.XXX, capsys)[0] == 0
        assert len(eigh_calls) == 3


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

    # option -> (value, flags that complete the option); None: a flag without value
    SETTINGS = {
        "model": ("pauli-file", []),
        "pauli-file": ("h.txt", []),
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
        "double-count-two-site-bond": (None, []),
        "policy": ("fixed:-2", []),
        "restarts": ("5", []),
        "seed": ("11", []),
        "out": ("x.csv", []),
        "precision": ("12", []),
        "state": ("singlet", []),
        "shots": ("7", []),
        "z": ("2", []),
    }

    @pytest.mark.parametrize("name", list(_OPTION_SPECS))
    def test_flag_and_file_give_same_config(self, name, tmp_path):
        value, rest = self.SETTINGS[name]
        flag = [f"--{name}"] + ([] if value is None else [value])
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{name}: {'true' if value is None else value}\n")

        def config(argv):
            return _config(_make_parser().parse_args(["spectrum"] + argv))

        from_flag = config(flag + rest)
        assert from_flag == config(["--config", str(cfg_file)] + rest)
        assert from_flag != config([])

    @pytest.mark.parametrize(
        "word, expected",
        [("1", True), ("True", True), ("yes", True), ("0", False), ("FALSE", False),
         ("no", False)],
    )
    def test_boolean_words(self, word, expected, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"double-count-two-site-bond: {word}\n")
        args = _make_parser().parse_args(["spectrum", "--config", str(cfg_file)])
        assert _config(args).double_count_two_site_bond is expected

    @pytest.mark.parametrize("word", ["ture", "", "2", "on"])
    def test_bad_boolean_exits_2(self, word, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"J: 1\nboundary: periodic\ndouble-count-two-site-bond: {word}\n")
        argv = ["witness", "--config", str(cfg_file), "--B", "0", "--policy", "fixed:-2"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert "bad value for double-count-two-site-bond" in err
        assert out == ""

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

    def test_bad_precision_exits_2(self, capsys):
        code, _, _ = run(
            ["spectrum", "--model", "xxx", "--J", "1", "--B", "0", "--precision", "3"],
            capsys,
        )
        assert code == 2


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
        code, out, err = run(argv + ["--out", str(out_file)], capsys)
        assert code == 2
        assert f"bad value for {key}" in err
        assert out == ""
        assert not out_file.exists()


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


    def test_bad_precision_exits_2(self, tmp_path, capsys):
        code, out, err = run(
            ["reproduce-figure", "--out-dir", str(tmp_path / "fig"), "--precision", "3"], capsys
        )
        assert code == 2
        assert "bad value for precision" in err
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
