import contextlib
import hashlib
import io
import json
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gaussesd import (ChannelParams, ConfigError, GaussianParams, cli, errors, evolve, fock,
                      simon_criterion, t_esd_numeric)
from gaussesd.cli import main
from conftest import rescaled
from gaussesd.config import (
    MAX_POINTS,
    MAX_SWEEP_ROWS,
    OracleSpec,
    OutputSpec,
    RunConfig,
    SweepSpec,
    TimeGrid,
    dump_config,
    format_value,
    parse_config,
)

RECIPES = Path(__file__).resolve().parent.parent / "recipes"
# sha256 of each recipe's stdout, recorded with the benchmark
RECIPE_DIGESTS = Path(__file__).resolve().parent.parent / "bench" / "recipe_digests.json"

EXPECTED_RECIPES = [
    "fig1-gray.cfg",
    "fig1-blue.cfg",
    "fig1-green.cfg",
    "fig1-red.cfg",
    "fig1-black.cfg",
    "fig1-pink.cfg",
    "fig2-blue.cfg",
    "fig2-red.cfg",
    "fig3.cfg",
    "fig4.cfg",
]


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


class TestConfig:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.state.r == 0.0
        assert cfg.channel.gamma1 == 0.1
        assert cfg.time.t_max == 30.0
        assert cfg.sweep is None
        assert cfg.output.format == "csv"
        assert cfg.oracle.cutoff == 20

    def test_dump_reparses_to_equivalent_run(self):
        cfg = RunConfig(
            sweep=SweepSpec(variable="z0", lo=0.0, hi=2.0, steps=11),
            output=OutputSpec(path="out.csv", format="json"),
        )
        assert parse_config(dump_config(cfg)) == cfg

    def test_dump_is_fully_explicit(self):
        text = dump_config(RunConfig())
        for key in ("z1", "z2", "r", "nu1", "nu2", "gamma1", "gamma2", "nb1", "nb2",
                    "t_max", "n_points", "path", "format", "cutoff", "times"):
            assert f"{key} = " in text

    def test_malformed_ini_is_config_error(self, tmp_path, capsys):
        text = "z1 = 0.5\n[state]\n"  # a key before any section header
        with pytest.raises(ConfigError, match="no section headers"):
            parse_config(text)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        assert main(["evolve", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_format_value(self):
        assert [format_value(x) for x in ("csv", 7, -0.0, 1.0 / 3.0, 2.5e-17, (2.0, 0.5))] == [
            "csv", "7", "0", "0.333333333333", "2.5e-17", "2, 0.5"]

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nonsense]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[state]\nsqueeze = 1\n")

    def test_bad_value_names_field(self):
        with pytest.raises(ConfigError, match=r"\[state\] z1"):
            parse_config("[state]\nz1 = banana\n")

    def test_invalid_physics_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[channel]\ngamma1 = -1\n")
        with pytest.raises(ConfigError):
            parse_config("[sweep]\nvariable = q\nlo = 0\nhi = 1\nsteps = 5\n")
        with pytest.raises(ConfigError):
            parse_config("[sweep]\nvariable = z0\nlo = 1\nhi = 1\nsteps = 5\n")

    @pytest.mark.parametrize("build", [
        lambda: TimeGrid(t_max=math.inf),
        lambda: OracleSpec(times=(1.0, math.nan)),
        lambda: SweepSpec("t", 0.0, math.inf, 3),
        lambda: SweepSpec("t", -math.inf, 1.0, 3),
        lambda: SweepSpec("t", math.nan, 1.0, 3),
    ], ids=["time-t-max-inf", "oracle-times-nan", "sweep-hi-inf", "sweep-lo-inf", "sweep-lo-nan"])
    def test_sections_built_directly_reject_non_finite_values(self, build):
        # the parser's finite_float rejects these first; a section built in
        # code checks them itself
        with pytest.raises(ValueError, match="must be finite"):
            build()

    def test_sweep_span_checked_on_the_largest_product(self):
        # values() forms (hi - lo) * i before dividing by steps - 1: the range
        # of the t_span case below is refused at 3 steps and kept at 2
        assert SweepSpec("t", 0.0, 1e308, 2).values() == [0.0, 1e308]

    def test_sweep_requires_all_keys(self):
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config("[sweep]\nvariable = z0\nlo = 0\nhi = 1\n")

    def test_default_dump_text(self):
        # sections and keys come out in dataclass field order
        assert dump_config(RunConfig()) == (
            "[state]\nz1 = 0\nz2 = 0\nr = 0\nnu1 = 0\nnu2 = 0\n\n"
            "[channel]\ngamma1 = 0.1\ngamma2 = 0.1\nnb1 = 0\nnb2 = 0\n\n"
            "[time]\nt_max = 30\nn_points = 301\n\n"
            "[output]\npath = -\nformat = csv\n\n"
            "[oracle]\ncutoff = 20\ntimes = \n"
        )

    @pytest.mark.parametrize("name", EXPECTED_RECIPES)
    def test_recipe_dump_round_trip(self, name):
        cfg = parse_config((RECIPES / name).read_text(), source=name)
        text = dump_config(cfg)
        assert parse_config(text) == cfg
        assert dump_config(parse_config(text)) == text

    def test_oracle_times_round_trip(self):
        cfg = parse_config("[oracle]\ntimes = 2, 0.5 1e-3\n")
        assert cfg.oracle.times == (2.0, 0.5, 0.001)
        text = dump_config(cfg)
        assert "\ncutoff = 20\ntimes = 2, 0.5, 0.001\n" in text
        assert parse_config(text) == cfg

    @pytest.mark.parametrize("command, section, key, text", [
        ("evolve", "state", "z1", "z1 = nan\n"),
        ("evolve", "channel", "nb1", "nb1 = nan\n"),
        ("evolve", "channel", "gamma2", "gamma2 = inf\n"),
        ("esd", "time", "t_max", "t_max = inf\n"),
        ("sweep", "sweep", "lo", "variable = z0\nlo = -inf\nhi = 1\nsteps = 3\n"),
        ("oracle-check", "oracle", "times", "times = 1, nan\n"),
    ], ids=["z1", "nb1", "gamma2", "t_max", "lo", "times"])
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, command, section, key,
                                              text):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[{section}]\n{text}")
        assert main([command, "--config", str(cfg)]) == 2
        assert f"[{section}] {key}: cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0.01", "inf"])
    def test_retired_oracle_dt_is_unknown_key(self, tmp_path, capsys, value):
        # the propagator is exact, so [oracle] dt has no meaning any more
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[oracle]\ndt = {value}\n")
        assert main(["oracle-check", "--config", str(cfg)]) == 2
        assert "unknown key 'dt' in section [oracle]" in capsys.readouterr().err

    @pytest.mark.parametrize("cutoff", [1, 33, 40])
    def test_out_of_range_cutoff_is_config_error(self, tmp_path, capsys, cutoff):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[oracle]\ncutoff = {cutoff}\n")
        assert main(["oracle-check", "--config", str(cfg)]) == 2
        assert "[oracle] cutoff must be in [2, 32]" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, key, text", [
        ("evolve", "time", "t_max", "t_max = 0\n"),
        ("evolve", "time", "n_points", "n_points = 1\n"),
        ("sweep", "sweep", "steps", "variable = z0\nlo = 0\nhi = 1\nsteps = 1\n"),
        ("evolve", "output", "format", "format = xml\n"),
        ("oracle-check", "oracle", "times", "times = 0\n"),
        ("sweep", "sweep", "lo", "variable = nu\nlo = -1\nhi = 1\nsteps = 3\n"),
        ("sweep", "sweep", "lo", "variable = t\nlo = -1\nhi = 1\nsteps = 3\n"),
        ("sweep", "sweep", "(hi - lo) * (steps - 1) overflows",
         "variable = t\nlo = 0\nhi = 1e308\nsteps = 3\n"),
        ("sweep", "sweep", "(hi - lo) * (steps - 1) overflows",
         "variable = z0\nlo = -1e308\nhi = 1e308\nsteps = 3\n"),
        # above MAX_POINTS, refused where the config is parsed: before a grid
        # is built or its size converted to float (which overflows past 309
        # digits)
        *[("evolve", "time", "n_points", f"n_points = {n}\n")
          for n in (MAX_POINTS + 1, 10**300, 10**400)],
        *[("sweep", "sweep", "steps", f"variable = z0\nlo = 0\nhi = 1\nsteps = {n}\n")
          for n in (MAX_POINTS + 1, 10**300, 10**400)],
    ], ids=["t_max", "n_points", "steps", "format", "times", "nu_lo", "t_lo", "t_span",
            "z0_span", "n_points-max+1", "n_points-301-digits", "n_points-401-digits",
            "steps-max+1", "steps-301-digits", "steps-401-digits"])
    def test_out_of_range_value_is_config_error(self, tmp_path, capsys, command, section, key,
                                                text):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[{section}]\n{text}")
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: [{section}] {key} ")

    def test_recipes_exist_and_parse(self):
        for name in EXPECTED_RECIPES:
            path = RECIPES / name
            assert path.exists(), f"missing recipe {name}"
            cfg = parse_config(path.read_text(), source=name)
            assert cfg.state.r == 1.0


class TestEvolveCommand:
    def test_writes_expected_columns(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(["evolve", "--config", str(RECIPES / "fig1-blue.cfg"), "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["t", "n1", "n2", "m1", "m2", "ms", "mc", "S"]
        assert len(rows) == 301
        assert rows[0][0] == 0.0 and rows[-1][0] == 30.0
        # finite-time sign change for the heated equal channels
        signs = [row[7] for row in rows]
        assert signs[0] < 0 < signs[-1]

    def test_vacuum_input_all_zero(self, tmp_path):
        cfg = tmp_path / "vac.cfg"
        cfg.write_text("[time]\nt_max = 5\nn_points = 6\n")
        out = tmp_path / "vac.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        for row in rows:
            assert all(v == 0.0 for v in row[1:])

    @pytest.mark.parametrize("command", ["evolve", "esd"])
    def test_overflowing_squeezing_is_named_domain_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "z400.cfg"
        cfg.write_text("[state]\nz1 = 400\nz2 = 400\nr = 1\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err == (
            "domain error: closed-form moments overflow at z1=400.0, z2=400.0, r=1.0\n"
        )

    @pytest.mark.parametrize("command", ["evolve", "esd"])
    def test_rate_near_the_float_maximum_answers(self, tmp_path, capsys, command):
        # 2 gamma1 and gamma1 + gamma2 overflow to inf; t = 0 still gives the
        # initial state, not inf * 0 = nan
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("[state]\nz1 = 0.3\nr = 1\n[channel]\ngamma1 = 1e308\ngamma2 = 0.1\n"
                       "nb1 = 0.2\n[time]\nn_points = 4\n")
        assert main([command, "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "nan" not in captured.out and "inf" not in captured.out

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            main(["evolve", "--config", str(RECIPES / "fig1-gray.cfg"), "--out", str(out)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_twelve_significant_digits(self, tmp_path):
        out = tmp_path / "digits.csv"
        main(["evolve", "--config", str(RECIPES / "fig2-blue.cfg"), "--out", str(out)])
        text = out.read_text()
        assert "1.38109784554" in text  # sinh(1)^2 rendered to 12 digits

    def test_json_format(self, tmp_path):
        out = tmp_path / "run.json"
        rc = main(["evolve", "--config", str(RECIPES / "fig1-blue.cfg"),
                   "--out", str(out), "--format", "json"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["t", "n1", "n2", "m1", "m2", "ms", "mc", "S"]
        assert len(doc["rows"]) == 301

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[state]\nz1 = spam\n")
        assert main(["evolve", "--config", str(bad)]) == 2
        assert main(["evolve", "--config", str(tmp_path / "missing.cfg")]) == 2

    @pytest.mark.parametrize("command", ["evolve", "sweep", "dump-config"])
    def test_unwritable_output_is_config_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[sweep]\nvariable = t\nlo = 0\nhi = 1\nsteps = 3\n")
        out = tmp_path / "missing" / "x.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"config error: [output] path {str(out)!r} cannot be written: "
                                "No such file or directory\n")
        assert not out.parent.exists()

    def test_output_path_that_is_a_directory_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[output]\npath = {tmp_path}\n")
        assert main(["esd", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("kind: InitiallySeparable\n")  # the report came first
        assert captured.err == (f"config error: [output] path {str(tmp_path)!r} cannot be "
                                "written: Is a directory\n")

    def test_domain_error_exit_code(self, tmp_path):
        bad = tmp_path / "neg.cfg"
        bad.write_text("[state]\nnu1 = -1\n")
        assert main(["evolve", "--config", str(bad)]) == 2  # caught at parse time

    def test_overflow_is_a_domain_error(self, tmp_path, capsys):
        # S overflows to NaN at z = 200; numpy's warnings stay out of stderr
        cfg = tmp_path / "big.cfg"
        cfg.write_text("[state]\nz1 = 200\nz2 = 200\nr = 1\n")
        assert main(["evolve", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "domain error: Simon value is not finite on the grid\n"

    @pytest.mark.parametrize("command, sweep", [
        ("evolve", ""),
        ("sweep", "[sweep]\nvariable = z0\nlo = 0\nhi = 1\nsteps = 2\n"),
    ], ids=["evolve", "sweep-z0"])
    def test_overflowing_time_grid_is_a_domain_error(self, tmp_path, capsys, command, sweep):
        # t_max * 2 overflows, so the last grid point would be inf; the grid
        # refuses it before any row is written
        cfg = tmp_path / "long.cfg"
        cfg.write_text(f"[state]\nr = 1\n[time]\nt_max = 1e308\nn_points = 3\n{sweep}")
        assert main([command, "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "domain error: t_max * (n_points - 1) overflows: t_max 1e+308, n_points 3\n")

    def test_time_grid_read_only_where_used(self, tmp_path, capsys):
        # esd reads t_max alone, a t or nu sweep no time grid: t_max = 1e308
        # with 3 points is refused by neither
        cfg = tmp_path / "long.cfg"
        text = "[state]\nr = 1\n[time]\nt_max = 1e308\nn_points = 3\n"
        cfg.write_text(text)
        assert main(["esd", "--config", str(cfg)]) == 0
        assert "kind: Asymptotic\n" in capsys.readouterr().out
        for variable in ("t", "nu"):
            cfg.write_text(f"{text}[sweep]\nvariable = {variable}\nlo = 0\nhi = 1\nsteps = 2\n")
            assert main(["sweep", "--config", str(cfg)]) == 0
            assert "inf" not in capsys.readouterr().out

    def test_t_max_override(self, tmp_path):
        out = tmp_path / "override.csv"
        main(["evolve", "--config", str(RECIPES / "fig1-blue.cfg"),
              "--out", str(out), "--t-max", "10"])
        _, rows = read_csv(out)
        assert rows[-1][0] == 10.0


    def test_non_finite_t_max_override_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["esd", "--t-max", "inf"])
        assert exc.value.code == 2
        assert "argument --t-max: invalid finite_float value: 'inf'" in capsys.readouterr().err


class TestEsdCommand:
    def test_finite_time_reports_both_methods(self, tmp_path, capsys):
        cfg = tmp_path / "esd.cfg"
        cfg.write_text(
            "[state]\nz1 = 2\nz2 = 2\nr = 1\n"
            "[channel]\ngamma1 = 0.1\ngamma2 = 0.1\n"
            "[time]\nt_max = 60\n"
        )
        assert main(["esd", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "kind: FiniteTime" in out
        assert "t_esd_numeric:" in out
        assert "t_esd_analytic:" in out
        assert "relative_difference:" in out
        rel = float(out.split("relative_difference: ")[1].split()[0])
        assert rel < 1e-6

    def test_asymptotic(self, tmp_path, capsys):
        cfg = tmp_path / "esd.cfg"
        cfg.write_text("[state]\nr = 1\n[channel]\ngamma1 = 0.1\ngamma2 = 0.1\n")
        assert main(["esd", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "kind: Asymptotic" in out
        assert "kind_analytic: Asymptotic" in out

    def test_overflowing_simon_value_is_a_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "esd.cfg"
        cfg.write_text("[state]\nr = 1\nnu1 = 1e80\nnu2 = 1e80\n"
                       "[channel]\ngamma1 = 0.1\ngamma2 = 0.1\n")
        assert main(["esd", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "domain error: Simon value is not finite at t=0.0\n"

    def test_rates_near_the_float_maximum_give_the_rescaled_root(self, tmp_path, capsys):
        # gamma1 + gamma2 overflows; the root is its unit-rate twin's, rescaled
        # (about 5.62e-309), inside the scan bracket, not 5e-312 from a cross
        # factor of 0
        cfg = tmp_path / "esd.cfg"
        cfg.write_text("[state]\nz1 = 0.2\nz2 = 0.2\nr = 0.3\n"
                       "[channel]\ngamma1 = 1e308\ngamma2 = 1e308\nnb1 = 0.1\nnb2 = 0.1\n")
        assert main(["esd", "--config", str(cfg)]) == 0
        fields = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        assert fields["kind"] == "FiniteTime"
        p, ch = GaussianParams(0.2, 0.2, 0.3), ChannelParams(1e308, 1e308, 0.1, 0.1)
        lo, hi = t_esd_numeric(p, ch, 30.0).diagnostics["bracket"]
        twin = t_esd_numeric(p, rescaled(ch, -1000), math.ldexp(30.0, 1000))
        assert lo < float(fields["t_esd_numeric"]) < hi
        root = math.ldexp(twin.t_esd, -1000)
        assert lo < root < hi
        assert root == pytest.approx(5.62e-309, rel=1e-3)

    # the symmetric pure zero-temperature family of t_esd_analytic_symmetric
    # and each single departure from it
    ANALYTIC_BASE = {"state": {"z1": "2", "z2": "2", "r": "1", "nu1": "0", "nu2": "0"},
                     "channel": {"gamma1": "0.1", "gamma2": "0.1", "nb1": "0", "nb2": "0"}}

    @pytest.mark.parametrize("changes, kind", [
        ({}, "FiniteTime"),
        ({("state", "z1"): "0", ("state", "z2"): "-0"}, "Asymptotic"),  # -0.0 == 0.0
        ({("channel", "nb1"): "-0"}, "FiniteTime"),
        ({("state", "z2"): "1.9"}, None),
        ({("state", "nu1"): "0.1"}, None),
        ({("state", "nu2"): "0.1"}, None),
        ({("channel", "nb1"): "0.1"}, None),
        ({("channel", "nb2"): "0.1"}, None),
        ({("channel", "gamma2"): "0.2"}, None),
        ({("state", "r"): "0"}, None),
    ], ids=["family", "family-z-zero", "family-minus-zero-nb", "z2-differs", "nu1-mixed",
            "nu2-mixed", "nb1-heated", "nb2-heated", "gamma2-differs", "r-zero"])
    def test_analytic_time_only_for_its_family(self, tmp_path, capsys, changes, kind):
        sections = {name: dict(keys) for name, keys in self.ANALYTIC_BASE.items()}
        for (section, key), value in changes.items():
            sections[section][key] = value
        cfg = tmp_path / "esd.cfg"
        cfg.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                               for name, keys in sections.items()) + "[time]\nt_max = 60\n")
        assert main(["esd", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert f"kind_analytic: {kind or 'not-applicable'}\n" in out
        assert ("t_esd_analytic:" in out) == (kind == "FiniteTime")

    def test_unresolved_decay_ratio_is_a_domain_error(self, tmp_path, capsys):
        # 0 < r0 < log(cosh 2 z0)/2 holds, but R rounds to 1: a named
        # refusal, not kind_analytic Asymptotic
        cfg = tmp_path / "esd.cfg"
        cfg.write_text("[state]\nz1 = 17.2\nz2 = 17.2\nr = 0.01\n"
                       "[channel]\ngamma1 = 0.1\ngamma2 = 0.1\n")
        assert main(["esd", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("domain error: decay ratio 1.0 does not resolve t_esd at z0=17.2, "
                                "r0=0.01\n")

    def test_barely_squeezed_vacuum_is_analytic_asymptotic(self, tmp_path, capsys):
        # r = 1e-10: the decay ratio's denominator cancels to 0, but the
        # paper's condition fails, so no ratio is formed; the numeric kind is
        # not pinned (S0 rounds to 0 here)
        cfg = tmp_path / "esd.cfg"
        cfg.write_text("[state]\nr = 1e-10\n")
        assert main(["esd", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert "kind_analytic: Asymptotic\n" in captured.out
        assert "t_esd_analytic" not in captured.out and captured.err == ""

    def test_initially_separable_reports_threshold(self, tmp_path, capsys):
        cfg = tmp_path / "esd.cfg"
        cfg.write_text("[state]\nr = 0.3\nnu1 = 1\nnu2 = 1\n")
        assert main(["esd", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "kind: InitiallySeparable" in out
        threshold = float(out.split("initial_entanglement_threshold: ")[1].split()[0])
        assert threshold == pytest.approx(math.log(9.0) / 4.0, abs=1e-9)

    FINITE_CFG = (
        "[state]\nz1 = 2\nz2 = 2\nr = 1\n"
        "[channel]\ngamma1 = 0.1\ngamma2 = 0.1\n"
        "[time]\nt_max = 60\n"
    )

    def _run_with_out(self, tmp_path, capsys, fmt):
        cfg = tmp_path / "esd.cfg"
        cfg.write_text(self.FINITE_CFG)
        assert main(["esd", "--config", str(cfg)]) == 0
        report = capsys.readouterr().out
        out = tmp_path / f"esd.{fmt}"
        assert main(["esd", "--config", str(cfg), "--out", str(out), "--format", fmt]) == 0
        assert capsys.readouterr().out == report  # the report does not change
        fields = [line.split(": ") for line in report.splitlines()]
        return fields, out.read_text()

    def test_out_csv_writes_report_fields(self, tmp_path, capsys):
        fields, text = self._run_with_out(tmp_path, capsys, "csv")
        lines = text.splitlines()
        assert lines[0] == "field,value"
        assert [line.split(",") for line in lines[1:]] == fields
        assert lines[1] == "kind,FiniteTime"

    def test_out_json_writes_numbers_and_strings(self, tmp_path, capsys):
        fields, text = self._run_with_out(tmp_path, capsys, "json")
        doc = json.loads(text)
        assert doc["columns"] == ["field", "value"]
        assert [name for name, _ in doc["rows"]] == [name for name, _ in fields]
        values = dict(doc["rows"])
        assert values["kind"] == "FiniteTime"
        assert values["kind_analytic"] == "FiniteTime"
        assert isinstance(values["t_esd_numeric"], float)
        assert values["t_esd_numeric"] == float(dict(fields)["t_esd_numeric"])


class TestSweepCommand:
    def test_fig3_boundary(self, tmp_path):
        out = tmp_path / "fig3.csv"
        rc = main(["sweep", "--config", str(RECIPES / "fig3.cfg"),
                   "--out", str(out), "--workers", "2"])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["z0", "t", "S", "sign"]
        assert len(rows) == 51 * 121
        separating = sorted({row[0] for row in rows if row[3] > 0})
        z_star = 0.5 * math.acosh(math.exp(2.0))
        assert separating[0] == pytest.approx(z_star, abs=0.05)  # z grid step

    def test_fig4_region_matches_threshold(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["sweep", "--config", str(RECIPES / "fig4.cfg"), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["nu1", "nu2", "S0", "sign"]
        assert len(rows) == 41 * 41
        from gaussesd import initial_entanglement_threshold

        for nu1, nu2, s0, sign in rows:
            r_min = initial_entanglement_threshold(nu1, nu2)
            if abs(r_min - 1.0) > 1e-3:  # away from the boundary curve
                assert (s0 > 0) == (r_min > 1.0), (nu1, nu2, s0, r_min)

    def test_degenerate_two_step_sweep(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "[state]\nr = 1\n[sweep]\nvariable = t\nlo = 0\nhi = 5\nsteps = 2\n"
        )
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 2

    def test_workers_do_not_change_bytes(self, tmp_path):
        outs = []
        for workers, name in ((1, "w1.csv"), (2, "w2.csv")):
            out = tmp_path / name
            cfg = tmp_path / "zsweep.cfg"
            cfg.write_text(
                "[state]\nr = 1\n[channel]\ngamma1 = 0.1\ngamma2 = 0.1\n"
                "[time]\nt_max = 10\nn_points = 21\n"
                "[sweep]\nvariable = z0\nlo = 0\nhi = 2\nsteps = 9\n"
            )
            assert main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--workers", str(workers)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("variable", ["t", "r0"])
    def test_rows_match_per_cell_scalar_calls(self, tmp_path, variable):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "[state]\nz1 = 0.7\nz2 = 0.2\nr = 0.9\nnu1 = 0.1\n"
            "[channel]\ngamma1 = 0.1\ngamma2 = 0.25\nnb1 = 0.3\n"
            "[time]\nt_max = 40\nn_points = 9\n"
            f"[sweep]\nvariable = {variable}\nlo = 0.1\nhi = 30\nsteps = 11\n"
        )
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        values = [0.1 + (30.0 - 0.1) * i / 10 for i in range(11)]
        if variable == "t":
            cells = [(t, GaussianParams(0.7, 0.2, 0.9, 0.1), t) for t in values]
        else:
            cells = [(r, GaussianParams(0.7, 0.2, r, 0.1), 40.0 * j / 8)
                     for r in values for j in range(9)]
        want = []
        for key, p, t in cells:
            s = simon_criterion(evolve(p, ChannelParams(0.1, 0.25, 0.3), t))
            sign = 1 if s > 1e-12 else (-1 if s < -1e-12 else 0)
            cols = [key] if variable == "t" else [key, t]
            want.append(",".join([format(x, ".12g") for x in cols + [s]] + [str(sign)]))
        assert out.read_text().splitlines()[1:] == want

    def test_sweep_without_section_is_config_error(self, tmp_path):
        cfg = tmp_path / "nosweep.cfg"
        cfg.write_text("[state]\nr = 1\n")
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_overflow_is_one_line_on_stderr(self, tmp_path, capsys):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(
            "[state]\nr = 1\n[time]\nt_max = 1\nn_points = 2\n"
            "[sweep]\nvariable = z0\nlo = 0\nhi = 200\nsteps = 3\n"
        )
        assert main(["sweep", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "domain error: Simon value is not finite on the grid\n"

    @pytest.mark.parametrize("variable, time, keys, span", [
        ("nu", "", "[sweep] steps", "100000 x 100000"),
        ("z0", "[time]\nn_points = 100000\n", "[sweep] steps and [time] n_points",
         "100000 x 100000"),
        ("r0", "[time]\nn_points = 3\n", "[sweep] steps and [time] n_points", "100000 x 3"),
    ])
    def test_oversized_grid_is_refused_before_any_row(self, tmp_path, capsys, monkeypatch,
                                                      variable, time, keys, span):
        # up to 1e10 rows; neither the time grid nor a Simon value is computed
        def unreachable(*args):
            raise AssertionError("a row was built")

        monkeypatch.setattr(cli, "_uniform_times", unreachable)
        monkeypatch.setattr(cli, "_evolve_grid", unreachable)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"{time}[sweep]\nvariable = {variable}\nlo = 0\nhi = 1\nsteps = 100000\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (f"config error: {keys} span {span} rows for variable "
                                           f"{variable}, above {MAX_SWEEP_ROWS}\n")

    @pytest.mark.parametrize("variable, steps, rows", [
        ("nu", 447, 447 * 447), ("z0", 2, 2 * MAX_POINTS), ("t", MAX_POINTS, MAX_POINTS)])
    def test_largest_grids_are_in_bounds(self, tmp_path, monkeypatch, variable, steps, rows):
        # a z0 sweep of two values takes every n_points, and a t sweep every
        # step; the grid's size reaches _evolve_grid, which is not run here
        class Built(Exception):
            pass

        def built(params, ch, times):
            raise Built(len(params) * len(times))

        monkeypatch.setattr(cli, "_evolve_grid", built)
        cfg = tmp_path / "large.cfg"
        cfg.write_text(f"[time]\nn_points = {MAX_POINTS}\n"
                       f"[sweep]\nvariable = {variable}\nlo = 0\nhi = 1\nsteps = {steps}\n")
        with pytest.raises(Built) as size:
            main(["sweep", "--config", str(cfg)])
        assert size.value.args == (rows,) and rows <= MAX_SWEEP_ROWS

    def test_physics_domain_error_exit_code(self, tmp_path, capsys):
        # squeezing sweep into overflow territory is a domain error (3),
        # not a config error: the config itself is well-formed
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(
            "[state]\nr = 1\n[time]\nt_max = 1\nn_points = 2\n"
            "[sweep]\nvariable = r0\nlo = 0\nhi = 500\nsteps = 2\n"
        )
        assert main(["sweep", "--config", str(cfg), "--workers", "1",
                     "--out", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err == (
            "domain error: closed-form moments overflow at z1=0.0, z2=0.0, r=500.0\n"
        )


class TestRecipeBytes:
    @pytest.mark.parametrize("name", sorted(json.loads(RECIPE_DIGESTS.read_text())))
    def test_stdout_matches_recorded_digest(self, name, capsys):
        sub = {"fig1": "evolve", "fig2": "esd", "fig3": "sweep", "fig4": "sweep"}
        assert main([sub[name.split("-")[0]], "--config", str(RECIPES / f"{name}.cfg")]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == json.loads(RECIPE_DIGESTS.read_text())[name]


class TestOracleCheckCommand:
    def test_default_suite_writes_the_printed_table(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        assert main(["oracle-check", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        table = printed.split("max_deviation: ")[0]
        assert printed.endswith("status: pass\n")
        assert table.startswith("config,t,dev_n1,dev_n2,dev_m1,dev_m2,dev_ms,dev_mc,max_dev\n")
        assert len(table.splitlines()) == 1 + 9  # header, 3 configs x 3 times
        assert out.read_text() == table

    def test_small_custom_config_passes(self, tmp_path, capsys):
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text(
            "[state]\nr = 0.4\n"
            "[channel]\ngamma1 = 0.25\ngamma2 = 0.25\nnb1 = 0.25\nnb2 = 0.25\n"
            "[oracle]\ncutoff = 20\ntimes = 2\n"
        )
        rc = main(["oracle-check", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "status: pass" in out
        worst = float(out.split("max_deviation: ")[1].split()[0])
        assert worst < 1e-3

    def test_below_certified_cutoff_is_advisory(self, tmp_path, capsys):
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("[state]\nr = 0.3\n[oracle]\ncutoff = 14\ntimes = 2\n")
        rc = main(["oracle-check", "--config", str(cfg)])
        assert rc == 0
        assert "status: advisory" in capsys.readouterr().out

    def test_insufficient_cutoff_exit_code(self, tmp_path):
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("[state]\nr = 0.6\n[oracle]\ncutoff = 4\n")
        assert main(["oracle-check", "--config", str(cfg)]) == 4

    def test_deviation_fails_with_exit_4(self, tmp_path, capsys, monkeypatch):
        def shifted(p, ch, t):
            cm = evolve(p, ch, t)
            return replace(cm, mc=cm.mc + 1e-2)

        monkeypatch.setattr(cli, "evolve", shifted)
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("[state]\nr = 0.4\n[channel]\ngamma1 = 0.25\ngamma2 = 0.25\n"
                       "[oracle]\ntimes = 2\n")
        assert main(["oracle-check", "--config", str(cfg)]) == 4
        out = capsys.readouterr().out
        assert out.endswith("status: FAIL (deviation >= 1e-3)\n")
        assert float(out.split("max_deviation: ")[1].split()[0]) == pytest.approx(1e-2, rel=1e-3)

    def test_trace_gate_exits_4(self, tmp_path, capsys, monkeypatch):
        # E(s) exp(0.01 s) per mode: the two halves agree, so the split gate
        # passes, but the trace grows to exp(0.02 t)
        exact = fock._step_propagators

        def growing(ch, cutoff, t):
            return tuple(tuple(e * math.exp(0.01 * s) for e in pair)
                         for pair, s in zip(exact(ch, cutoff, t), (t, 0.5 * t)))

        monkeypatch.setattr(fock, "_step_propagators", growing)
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("[state]\nr = 0.4\n[oracle]\ntimes = 2\n")
        assert main(["oracle-check", "--config", str(cfg)]) == 4
        assert capsys.readouterr().err.startswith("oracle error: trace deviates from 1 by 4.")

    def test_outside_certified_domain_is_advisory(self, tmp_path, capsys):
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text(
            "[state]\nr = 0.8\n"
            "[channel]\ngamma1 = 0.25\ngamma2 = 0.25\n"
            "[oracle]\ncutoff = 20\ntimes = 2\n"
        )
        rc = main(["oracle-check", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "outside certified domain" in captured.err
        assert "status: advisory" in captured.out


class TestDumpConfigCommand:
    def test_round_trip(self, tmp_path, capsys):
        assert main(["dump-config", "--config", str(RECIPES / "fig3.cfg")]) == 0
        text = capsys.readouterr().out
        cfg = parse_config(text)
        assert cfg.sweep is not None and cfg.sweep.variable == "z0"
        assert cfg.state.r == 1.0

    def test_negative_zero_dumps_as_zero(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[state]\nz1 = -0\nr = -0.0\n")
        assert main(["dump-config", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("[state]\nz1 = 0\nz2 = 0\nr = 0\n")


FLOAT_MAX = sys.float_info.max
REFUSAL = re.compile(r"(config|domain) error: \S.*\n")
NON_FINITE = re.compile(r"(?<![A-Za-z_])(nan|inf)(?![A-Za-z_])")


SQUEEZING = st.floats(-20.0, 20.0)
OCCUPATION = st.floats(0.0, 1e40)
RATE = st.floats(5e-324, FLOAT_MAX)
# README's answering region, key by key ...
INSIDE = {"z1": SQUEEZING, "z2": SQUEEZING, "r": SQUEEZING, "nu1": OCCUPATION,
          "nu2": OCCUPATION, "gamma1": RATE, "gamma2": RATE, "nb1": OCCUPATION,
          "nb2": OCCUPATION, "t_max": st.floats(1e-300, 1e40), "n_points": st.integers(2, 6),
          "steps": st.integers(2, 5)}
SWEPT = {"z0": SQUEEZING, "r0": SQUEEZING, "nu": OCCUPATION, "t": st.floats(0.0, 1e300)}
# ... and just outside it: past the region's bounds, or outside the domain
TOO_SQUEEZED = st.floats(20.0, 400.0) | st.floats(-400.0, -20.0)
TOO_HOT = st.floats(1e40, 1e160) | st.floats(-1.0, -1e-300)
OUTSIDE = {"z1": TOO_SQUEEZED, "z2": TOO_SQUEEZED, "r": TOO_SQUEEZED, "nu1": TOO_HOT,
           "nu2": TOO_HOT, "gamma1": st.sampled_from([0.0, -1.0]),
           "gamma2": st.sampled_from([0.0, -1.0]), "nb1": TOO_HOT, "nb2": TOO_HOT,
           "t_max": st.floats(1e40, FLOAT_MAX) | st.sampled_from([0.0, 5e-324, 1e-310, -1.0]),
           "n_points": st.just(1), "steps": st.just(1),
           "sweep": st.tuples(*[st.floats(-400.0, 400.0) | st.floats(0.0, FLOAT_MAX)] * 2)}


@st.composite
def run_configs(draw):
    """Every key of [state], [channel], [time] and [sweep], drawn from the
    answering region; a third of the draws are in the symmetric pure
    zero-temperature family, where `esd` also prints the analytic ESD time;
    and in a third of the draws one key, or the swept range, is drawn from
    just outside."""
    c = {key: draw(strategy) for key, strategy in INSIDE.items()}
    if draw(st.integers(0, 2)) == 0:
        c.update(z1=draw(st.floats(-10.0, 10.0)), r=draw(st.floats(0.01, 20.0)),
                 gamma1=draw(st.floats(1e-300, FLOAT_MAX)), nu1=0.0, nu2=0.0, nb1=0.0, nb2=0.0)
        c.update(z2=c["z1"], gamma2=c["gamma1"])
    c["variable"] = draw(st.sampled_from(sorted(SWEPT)))
    c["lo"], c["hi"] = sorted(draw(st.tuples(SWEPT[c["variable"]], SWEPT[c["variable"]])))
    if c["lo"] == c["hi"]:  # the simplest draws coincide; a degenerate range is outside
        c["lo"], c["hi"] = 0.0, 1.0
    outside = draw(st.sampled_from([None] * 4 + sorted(OUTSIDE)))
    if outside == "sweep":
        c["lo"], c["hi"] = draw(OUTSIDE[outside])
    elif outside:
        c[outside] = draw(OUTSIDE[outside])
    return c


def _config_text(c) -> str:
    sections = {"state": ("z1", "z2", "r", "nu1", "nu2"),
                "channel": ("gamma1", "gamma2", "nb1", "nb2"),
                "time": ("t_max", "n_points"), "sweep": ("variable", "lo", "hi", "steps")}
    def text(value):  # floats in full, by repr
        return value if isinstance(value, str) else repr(value)

    return "".join(f"[{name}]\n" + "".join(f"{key} = {text(c[key])}\n" for key in keys)
                   for name, keys in sections.items())


def _analytic_family(c) -> bool:
    """The configs on which `esd` prints t_esd_analytic_symmetric's kind."""
    return (c["z1"] == c["z2"] and c["nu1"] == c["nu2"] == 0.0 and c["gamma1"] == c["gamma2"]
            and c["nb1"] == c["nb2"] == 0.0 and c["r"] > 0)


def _answers(c, command) -> bool:
    """README's sufficient region for exit 0 ("Where evolve, esd and sweep
    answer")."""
    lo, hi, swept = c["lo"], c["hi"], c["variable"]
    inside = (all(abs(c[k]) <= 20.0 for k in ("z1", "z2", "r"))
              and all(0.0 <= c[k] <= 1e40 for k in ("nu1", "nu2", "nb1", "nb2"))
              and c["gamma1"] > 0 and c["gamma2"] > 0
              and 1e-300 <= c["t_max"] <= 1e40 and c["n_points"] >= 2
              # the [sweep] section is read by every command
              and c["steps"] >= 2 and lo < hi and math.isfinite((hi - lo) * (c["steps"] - 1))
              and (swept in ("z0", "r0") or lo >= 0))
    if command == "sweep" and swept != "t":
        limit = 1e40 if swept == "nu" else 20.0
        inside = inside and -limit <= lo and hi <= limit
    if command == "esd" and _analytic_family(c) and inside:
        # where the paper's condition fails, the analytic kind is Asymptotic
        z0, r0 = abs(c["z1"]), c["r"]
        bound = 0.5 * math.log(math.cosh(2.0 * z0))
        inside = r0 >= bound or (z0 <= 10.0 and r0 >= 0.01 and c["gamma1"] >= 1e-300
                                 and bound - r0 >= 0.01)
    return inside


class TestRefusals:
    """One refusal rule: every refusal is a GaussEsdError, whose class gives
    the exit code and label that main reports, and nothing else is caught."""

    @settings(max_examples=40, deadline=None)
    @given(c=run_configs())
    def test_commands_answer_or_refuse_by_name(self, tmp_path_factory, c):
        path = tmp_path_factory.getbasetemp() / "refusals.cfg"
        path.write_text(_config_text(c))
        argv = ["--config", str(path)]
        for command in ("evolve", "esd", "sweep"):
            args, out = cli.build_parser().parse_args([command, *argv]), io.StringIO()
            try:  # any exception but a GaussEsdError is a fault and fails here
                with contextlib.redirect_stdout(out):
                    code = args.func(args)
            except errors.GaussEsdError:
                # a refusal: main maps it to 2 or 3 and names it on stderr
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([command, *argv])
                err = err.getvalue()
                assert code in (2, 3) and out.getvalue() == "" and REFUSAL.fullmatch(err), err
                assert err.startswith({2: "config", 3: "domain"}[code]), (command, err)
            else:
                assert code == 0 and not NON_FINITE.search(out.getvalue()), (command, out)
            inside = _answers(c, command)
            family = " (analytic family)" if command == "esd" and _analytic_family(c) else ""
            event(f"{command}{family}: exit {code}, {'inside' if inside else 'outside'} the region")
            if inside:
                assert code == 0, command

    def test_a_fault_propagates_out_of_main(self, monkeypatch):
        def broken(args):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "cmd_evolve", broken)
        with pytest.raises(ValueError, match="^boom$"):
            main(["evolve"])

    @pytest.mark.parametrize("cls, code, label", [
        (errors.ConfigError, 2, "config error"),
        (errors.OracleError, 4, "oracle error"),
        (errors.CutoffInsufficient, 4, "oracle error"),
        (errors.GaussEsdError, 3, "domain error"),
        (errors.DomainError, 3, "domain error"),
        (errors.InvalidGrid, 3, "domain error"),
        (errors.BudgetExceeded, 3, "domain error"),
        (errors.NonPhysicalCM, 3, "domain error"),
    ])
    def test_each_class_carries_its_code_and_label(self, monkeypatch, capsys, cls, code, label):
        def refuse(args):
            raise cls("refused")

        assert (cls.exit_code, cls.label) == (code, label)
        monkeypatch.setattr(cli, "cmd_esd", refuse)
        assert main(["esd"]) == code
        assert capsys.readouterr().err == f"{label}: refused\n"

    def test_domain_errors_stay_value_errors(self, capsys):
        assert issubclass(errors.DomainError, ValueError)
        with pytest.raises(SystemExit) as exc:  # argparse's type=finite_float
            main(["esd", "--t-max", "nan"])
        assert exc.value.code == 2
        assert "argument --t-max: invalid finite_float value: 'nan'" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gaussesd", "dump-config"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "[channel]" in proc.stdout
