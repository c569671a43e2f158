import argparse
import csv
import json
import warnings

import numpy as np
import pytest

from sigmaric import cli
from sigmaric.cli import (
    ConfigError,
    main,
    parse_config,
    write_csv,
    write_record,
)
from sigmaric.continuation_solver import ContinuationFailure
from sigmaric.domains import make_box_grid, make_radial_grid
from sigmaric.surface_scalar import make_polar_disk


class TestParseConfig:
    def test_basic(self):
        cfg = parse_config("dim = 3\nk = 2\ngrid = 65\n")
        assert cfg == {"dim": 3, "k": 2, "grid": "65"}

    def test_sections_and_comments(self):
        text = "[solve]\n# a comment\ndim = 4  # trailing\n\nj = 1.5\n"
        cfg = parse_config(text)
        assert cfg == {"dim": 4, "j": 1.5}

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2.*'bogus'"):
            parse_config("dim = 3\nbogus = 1\n")

    def test_malformed_number_names_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("dim = 3\nk = 2\ntol = fast\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("dim 3\n")

    def test_dashed_keys_accepted(self):
        assert parse_config("rhs-scale = 2.0\n") == {"rhs_scale": 2.0}


class TestFlagPrecedence:
    def test_flags_override_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("dim = 3\nk = 1\ndomain = annulus\ngrid = 33\n")
        out = tmp_path / "r.json"
        rc = main(["solve-dirichlet", "--config", str(cfgfile),
                   "--k", "2", "--out", str(out)])
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["config"]["k"] == 2
        assert record["config"]["domain"] == "annulus"


def _subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return parser, action.choices


_SAMPLE = {int: "5", float: "0.25", str: "abc"}


class TestFlagFileParity:
    """Each subcommand takes --config and the flags of the keys it reads,
    and a config-file line and the flag resolve to the same typed value."""

    def test_flags_are_the_keys(self):
        _, subs = _subparsers()
        assert list(subs) == list(cli._COMMAND_KEYS)
        for name, sub in subs.items():
            dests = {opt: a.dest for a in sub._actions
                     for opt in a.option_strings}
            expect = {"--" + key.replace("_", "-"): key
                      for key in cli._COMMAND_KEYS[name]}
            expect.update({"-h": "help", "--help": "help",
                           "--config": "config"})
            assert dests == expect, name
            assert all(a.help for a in sub._actions), name

    def test_file_line_matches_flag(self, tmp_path):
        parser, _ = _subparsers()
        cfgfile = tmp_path / "run.cfg"
        for name, keys in cli._COMMAND_KEYS.items():
            for key in keys:
                parse = cli._KEYS[key][0]
                text = _SAMPLE[parse]
                cfgfile.write_text(f"{key} = {text}\n")
                flag = "--" + key.replace("_", "-")
                from_file = cli.resolve_config(
                    parser.parse_args([name, "--config", str(cfgfile)]))
                from_flag = cli.resolve_config(
                    parser.parse_args([name, flag, text]))
                assert from_file == from_flag, (name, key)
                assert type(from_flag[key]) is parse
                assert from_flag[key] == parse(text)


class _Reads(dict):
    """A config that records every key read from it."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


# each subcommand over its domain variants, small enough to run in tier-1
_VARIANTS = {
    "solve-dirichlet": [
        ["--dim", "3", "--k", "2", "--grid", "33", "--j", "0.5"],
        ["--dim", "3", "--k", "1", "--domain", "annulus", "--grid", "33",
         "--data-file", "DATA"],
        ["--dim", "3", "--k", "2", "--domain", "annulus", "--background",
         "warped:sinh", "--grid", "33"],
        ["--dim", "2", "--domain", "box", "--grid", "9", "--j", "0.5"],
    ],
    "solve-complete": [
        ["--dim", "3", "--k", "2", "--grid", "65"],
        ["--dim", "3", "--k", "2", "--domain", "annulus", "--grid", "65"],
        ["--dim", "3", "--k", "2", "--domain", "annulus", "--background",
         "warped:sinh", "--grid", "65"],
        ["--dim", "2", "--domain", "box", "--grid", "9"],
    ],
    "pe-invariant": [
        ["--n", "2", "--grid", "65"],
        ["--n", "2", "--grid", "65", "--background", "flat-annulus"],
    ],
    "surface": [
        ["--domain", "disk", "--grid", "9,9"],
        ["--domain", "box", "--grid", "9,9"],
    ],
    "verify": [[]],
}
_VARIANTS["asymptotics"] = _VARIANTS["solve-complete"]


class TestCommandKeys:
    """The keys each subcommand takes are the keys its run reads."""

    @pytest.mark.parametrize("name", list(cli._COMMAND_KEYS))
    def test_table_is_what_the_run_reads(self, name, tmp_path, monkeypatch,
                                         capsys):
        data = tmp_path / "data.txt"
        data.write_text("0.5\n" * 33)
        configs, resolve = [], cli.resolve_config

        def recorded(args):
            configs.append(_Reads(resolve(args)))
            return configs[-1]

        monkeypatch.setattr(cli, "resolve_config", recorded)
        read = set()
        for argv in _VARIANTS[name]:
            argv = [str(data) if a == "DATA" else a for a in argv]
            argv += ["--out", str(tmp_path / "r.json")]
            if name != "verify":
                argv += ["--csv", str(tmp_path / "r.csv")]
            assert main([name] + argv) == 0, argv
            read |= configs[-1].read
        assert read == set(cli._COMMAND_KEYS[name])

    @pytest.mark.parametrize("name", list(cli._COMMAND_KEYS))
    def test_foreign_key_refused(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(cli._RUNNERS, name, pytest.fail)
        cfgfile = tmp_path / "run.cfg"
        for key, (parse, _, _) in cli._KEYS.items():
            if key in cli._COMMAND_KEYS[name]:
                continue
            cfgfile.write_text(f"# {name}\n{key} = {_SAMPLE[parse]}\n")
            assert main([name, "--config", str(cfgfile)]) == 2, key
            assert capsys.readouterr().err == (
                f"config error: line 2: {name} does not read {key!r}\n")

    @pytest.mark.parametrize("name", list(cli._COMMAND_KEYS))
    def test_foreign_flag_refused(self, name, monkeypatch, capsys):
        monkeypatch.setitem(cli._RUNNERS, name, pytest.fail)
        for key, (parse, _, _) in cli._KEYS.items():
            if key in cli._COMMAND_KEYS[name]:
                continue
            flag = "--" + key.replace("_", "-")
            with pytest.raises(SystemExit) as exc:
                main([name, flag, _SAMPLE[parse]])
            assert exc.value.code == 2, key
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_pe_invariant_record_states_what_ran(self, tmp_path):
        # the family of order n + 1 on the annulus: no dim, k or domain
        out = tmp_path / "pe.json"
        assert main(["pe-invariant", "--n", "2", "--grid", "65",
                     "--background", "flat-annulus", "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert set(config) == {"n", "r0", "r1", "grid", "grading",
                               "cluster", "background", "phi", "tol"}
        assert config["background"] == "flat-annulus"

    @pytest.mark.parametrize("argv", [
        ["solve-complete", "--dim", "3", "--k", "2", "--domain", "annulus"],
        ["asymptotics", "--dim", "3", "--k", "2", "--domain", "annulus"],
        ["pe-invariant", "--n", "2", "--background", "flat-annulus"],
    ], ids=["solve-complete", "asymptotics", "pe-invariant"])
    def test_complete_annulus_clusters_both(self, argv, tmp_path, capsys):
        # auto is both on a complete annulus, and outer is refused there
        records = []
        for cluster in ("auto", "both"):
            out = tmp_path / f"{cluster}.json"
            assert main(argv + ["--grid", "65", "--cluster", cluster,
                                "--out", str(out)]) == 0
            records.append(json.loads(out.read_text())["result"])
        assert records[0] == records[1]
        capsys.readouterr()
        assert main(argv + ["--grid", "65", "--cluster", "outer"]) == 2
        assert capsys.readouterr().err == (
            "config error: cluster: a complete annulus needs 'both': both "
            "spheres carry a boundary layer\n")

    def test_dirichlet_annulus_clusters_outer(self, tmp_path):
        records = []
        for cluster in ("auto", "outer"):
            out = tmp_path / f"{cluster}.json"
            assert main(["solve-dirichlet", "--domain", "annulus", "--grid",
                         "33", "--grading", "1.05", "--j", "0.5",
                         "--cluster", cluster, "--out", str(out)]) == 0
            records.append(json.loads(out.read_text())["result"])
        assert records[0] == records[1]


class TestRecords:
    def test_schema_validation(self, tmp_path):
        record = write_record(
            "surface", {"domain": "disk"},
            {"residual": 1e-9, "positive": True},
            0.5, out_path=tmp_path / "r.json",
        )
        assert record["schema_version"] == 1
        on_disk = json.loads((tmp_path / "r.json").read_text())
        assert on_disk == record

    # the validator does not check the shipped schema against its
    # metaschema on every run; this does, and can fail
    def test_shipped_schema_is_valid(self):
        import jsonschema

        schema = json.loads(cli.SCHEMA_PATH.read_text())
        check = jsonschema.validators.validator_for(schema).check_schema
        check(schema)
        broken = json.loads(cli.SCHEMA_PATH.read_text())
        broken["properties"]["result"]["properties"]["residual"] = {
            "type": "numbr"}
        with pytest.raises(jsonschema.SchemaError):
            check(broken)

    def test_invalid_record_rejected(self):
        import jsonschema

        with pytest.raises(jsonschema.ValidationError):
            write_record("surface", {}, {"positive": "yes"}, 0.0)

    @pytest.mark.parametrize("key", ["u", "max_abs_Hk", "min_Hk"])
    @pytest.mark.parametrize("bad", [True, None, "1.0", [1.0]])
    def test_non_number_in_numeric_array_rejected(self, key, bad):
        import jsonschema

        values = [0.5, 1, bad, 2.0]
        with pytest.raises(jsonschema.ValidationError):
            write_record("pe-invariant", {}, {key: values}, 0.0)
        with pytest.raises(jsonschema.ValidationError):
            write_record("pe-invariant", {}, {key: [bad]}, 0.0)

    def test_numeric_arrays_accepted(self):
        record = write_record(
            "pe-invariant", {},
            {"u": np.linspace(0.0, 1.0, 5), "max_abs_Hk": [1, 2.5],
             "min_Hk": np.arange(3), "constants": [True, "x"]},
            0.0,
        )
        assert record["result"]["u"] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert record["result"]["min_Hk"] == [0, 1, 2]

    @pytest.mark.parametrize("passed", [1, 0.0, "true", None])
    def test_non_boolean_check_rejected(self, passed):
        import jsonschema

        checks = [{"name": "a", "passed": True, "detail": ""},
                  {"name": "b", "passed": passed, "detail": ""}]
        with pytest.raises(jsonschema.ValidationError):
            write_record("verify", {}, {"checks": checks, "passed": True},
                         0.0)

    def test_determinism_modulo_meta(self, tmp_path):
        args = ["solve-dirichlet", "--dim", "3", "--k", "2",
                "--domain", "annulus", "--grid", "65", "--j", "1.0"]
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(args + ["--out", str(path)]) == 0
            outs.append(json.loads(path.read_text()))
        for record in outs:
            del record["meta"]
        assert outs[0] == outs[1]

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIGMARIC_OUTPUT_DIR", str(tmp_path))
        rc = main(["solve-dirichlet", "--dim", "3", "--k", "1",
                   "--domain", "annulus", "--grid", "33",
                   "--out", "sub/run.json"])
        assert rc == 0
        assert (tmp_path / "sub" / "run.json").exists()


class TestCsv:
    def test_columns_and_values(self, tmp_path):
        grid = make_radial_grid(0.0, 1.0, 9, m=3)
        u = np.linspace(1.0, 2.0, 9)
        path = tmp_path / "dump.csv"
        write_csv(path, grid, u)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x0,r,u,u_plus_ln_r"
        assert len(lines) == 10
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert first[3] == ""  # u + ln r is left blank at r = 0
        last = lines[-1].split(",")
        assert float(last[1]) == 1.0
        assert float(last[3]) == pytest.approx(2.0)
        # every field reads back as exactly the float written
        r = grid.nodes
        with np.errstate(divide="ignore"):
            expect = np.column_stack([r, r, u, u + np.log(r)])
        for line, values in zip(lines[1:], expect, strict=True):
            for field, value in zip(line.split(","), values, strict=True):
                if np.isfinite(value):
                    assert float(field) == value
                else:
                    assert field == ""

    @pytest.mark.parametrize("grid", [
        make_radial_grid(0.0, 1.0, 17, grading=1.1, m=3),
        make_polar_disk(1.0, 6, 7),
        make_polar_disk(1.0, 70, 65),
        make_box_grid([0, 0], [1.0, 2.0], [5, 6]),
    ], ids=["radial", "polar-disk", "polar-disk-4551-rows", "box"])
    def test_bytes_match_csv_writer(self, tmp_path, grid):
        # the dump is what csv.writer writes for the same columns, with
        # u_plus_ln_r blank where r = 0 (ball centre, disk axis)
        u = np.random.default_rng(5).standard_normal(grid.n)
        path = tmp_path / "dump.csv"
        write_csv(path, grid, u)
        pts = getattr(grid, "points", None)
        if pts is None:
            pts = grid.nodes[:, None]
        r = np.linalg.norm(pts, axis=1)
        with np.errstate(divide="ignore"):
            u_ln_r = u + np.log(r)
        rows = [x + [rr, uu, v if rr > 0 else ""] for x, rr, uu, v in zip(
            pts.tolist(), r.tolist(), u.tolist(), u_ln_r.tolist(),
            strict=True)]
        expect = tmp_path / "expect.csv"
        with open(expect, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{a}" for a in range(pts.shape[1])]
                            + ["r", "u", "u_plus_ln_r"])
            writer.writerows(rows)
        assert path.read_bytes() == expect.read_bytes()


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n")
        assert main(["solve-dirichlet", "--config", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["solve-dirichlet", "--config", "/no/such/file"]) == 2

    def test_invalid_domain(self, capsys):
        assert main(["solve-dirichlet", "--domain", "torus",
                     "--grid", "33"]) == 2

    def test_bad_data_file_length(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text("1.0\n2.0\n3.0\n")
        assert main(["solve-dirichlet", "--dim", "3", "--k", "1",
                     "--domain", "annulus", "--grid", "33",
                     "--data-file", str(data)]) == 2

    @pytest.mark.parametrize("expr, code", [
        ("().__class__.__base__.__subclasses__()", 2),
        ("np.cos(x)", 2),
        ("where(r < 0.5, 1.0, 0.0)", 0),
    ])
    def test_curvature_expression(self, expr, code, tmp_path, capsys):
        # only numbers, coordinates, arithmetic, comparisons and calls of
        # listed functions evaluate; attribute access never reaches eval
        rc = main(["surface", "--domain", "box", "--grid", "9,9",
                   "--curvature", expr, "--out", str(tmp_path / "s.json")])
        assert rc == code
        if code == 2:
            assert "is not allowed" in capsys.readouterr().err
            with pytest.raises(ConfigError):
                cli._eval_expression(expr, {"x": np.zeros(3)})

    @pytest.mark.parametrize("argv, per_axis", [
        (["surface", "--domain", "box", "--grid", "3,3"], True),
        (["solve-dirichlet", "--domain", "box", "--grid", "3"], True),
        (["solve-dirichlet", "--domain", "box", "--grid", "5,5,3"], True),
        (["solve-dirichlet", "--domain", "annulus", "--grid", "3"], False),
        (["solve-complete", "--domain", "ball", "--grid", "3"], False),
    ], ids=["surface-box", "box", "box-one-axis", "annulus", "ball"])
    def test_too_few_nodes(self, argv, per_axis, tmp_path, capsys):
        # uniform_d2, whose end rows span 4 nodes, gives the radial
        # stencils and the interior blocks of box solves
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: need at least 4 nodes")
        assert ("per axis" in err) == per_axis
        assert not out.exists()

    # a number that parses but is no valid input names its key, exit 2
    @pytest.mark.parametrize("argv, key", [
        (["--rhs-scale", "-1", "--grid", "33"], "rhs_scale"),
        (["--rhs-scale", "-1", "--domain", "box", "--grid", "7"],
         "rhs_scale"),
        (["--tol", "nan", "--grid", "33"], "tol_residual"),
        (["--j", "nan", "--grid", "33"], "boundary data"),
    ], ids=["rhs-scale", "rhs-scale-box", "tol-nan", "j-nan"])
    def test_bad_number_rejected(self, argv, key, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["solve-dirichlet"] + argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not out.exists()

    # nan and inf parse as floats; every command rejects them for every
    # float key it takes, whether or not its domain reads the key, and the
    # box corners and the grading, parsed from strings where a grid is
    # made, by name
    @pytest.mark.parametrize("argv, key", [
        (["surface", "--domain", "box", "--grid", "9,9", "--r1", "nan"],
         "r1"),
        (["solve-dirichlet", "--domain", "box", "--dim", "3", "--grid", "9",
          "--r0", "inf"], "r0"),
        (["solve-dirichlet", "--domain", "box", "--dim", "3", "--grid", "9",
          "--lo", "nan"], "lo"),
        (["solve-dirichlet", "--domain", "box", "--dim", "3", "--grid", "9",
          "--hi", "inf"], "hi"),
        (["solve-dirichlet", "--domain", "box", "--dim", "3", "--grid", "9",
          "--hi", "1,x,1"], "hi"),
        (["solve-dirichlet", "--domain", "ball", "--dim", "3", "--grid", "33",
          "--grading", "nan"], "grading"),
        (["solve-complete", "--domain", "annulus", "--dim", "3", "--grid",
          "33", "--grading", "inf"], "grading"),
    ], ids=["surface-r1-nan", "box-r0-inf", "box-lo-nan", "box-hi-inf",
            "box-hi-not-a-number", "ball-grading-nan",
            "annulus-grading-inf"])
    def test_non_finite_float_rejected(self, argv, key, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}:")
        assert "finite" in err
        assert not out.exists()

    # a field expression must be finite at every node, boundary included
    @pytest.mark.parametrize("argv, key", [
        (["surface", "--domain", "box", "--grid", "9,9", "--psi", "log(x)"],
         "psi"),
        (["surface", "--domain", "disk", "--grid", "9,9", "--psi", "x/0"],
         "psi"),
        (["surface", "--domain", "box", "--grid", "9,9", "--curvature",
          "log(x)"], "curvature"),
        (["pe-invariant", "--n", "2", "--grid", "65", "--phi", "log(r)"],
         "phi"),
    ], ids=["box-psi", "disk-psi", "box-curvature", "ball-phi"])
    def test_non_finite_field_rejected(self, argv, key, tmp_path, capsys):
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) == 2
        # the message is the whole of stderr, with no numpy warning
        err = capsys.readouterr().err
        assert err == f"config error: {key} must be finite at every node\n"
        assert not out.exists()

    # e^{-2 psi} weights the Laplacian and e^{2 psi} the source: a finite
    # psi whose exponentials under- or overflow is a config error too
    @pytest.mark.parametrize("psi, code", [("400", 2), ("-400", 2),
                                           ("300", 0)])
    def test_psi_weight_in_range(self, psi, code, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["surface", "--domain", "box", "--grid", "9,9", "--psi", psi]
        assert main(argv + ["--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("config error: psi must keep")
            assert not out.exists()
        else:
            assert out.exists()

    # psi that passes that check but overflows the verification (e^{2 psi}
    # about 1e307, u about 1e306): a solver failure with the JSON block
    def test_psi_verification_not_finite(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["surface", "--domain", "box", "--grid", "9,9",
                     "--psi", "354", "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RuntimeError"
        assert err["message"].startswith("verification failed: residual")
        assert not out.exists()

    def test_warped_ball_rejected(self, capsys):
        # warped backgrounds need an annulus; the default domain is a ball
        assert main(["solve-dirichlet", "--background", "warped:sinh"]) == 2
        assert "annulus" in capsys.readouterr().err

    def test_solver_failure(self, monkeypatch, capsys):
        def boom(cfg):
            raise ContinuationFailure("step underflow at t=0.5")

        monkeypatch.setitem(cli._RUNNERS, "solve-dirichlet", boom)
        assert main(["solve-dirichlet"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ContinuationFailure"

    def test_linalg_error_is_a_solver_failure(self, monkeypatch, capsys):
        # numpy's LinAlgError is a ValueError, which alone would exit 2
        def boom(cfg):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setitem(cli._RUNNERS, "verify", boom)
        assert main(["verify"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "LinAlgError", "message": "Singular matrix"}

    def test_verify_violation(self, monkeypatch, capsys):
        def fake_checks(cfg):
            return [
                {"name": "good", "passed": True, "detail": "ok"},
                {"name": "bad", "passed": False, "detail": "off by 1"},
            ]

        monkeypatch.setattr(cli, "_verify_checks", fake_checks)
        assert main(["verify"]) == 4
        out = capsys.readouterr().out
        assert "good" in out and "FAIL" in out

    def test_verify_pass_table(self, monkeypatch, capsys):
        def fake_checks(cfg):
            return [{"name": "only", "passed": True, "detail": "ok"}]

        monkeypatch.setattr(cli, "_verify_checks", fake_checks)
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "all checks passed" in out


class TestSubcommands:
    def test_solve_dirichlet_record(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        csv_path = tmp_path / "r.csv"
        rc = main(["solve-dirichlet", "--dim", "3", "--k", "2",
                   "--domain", "annulus", "--grid", "65", "--j", "1.0",
                   "--out", str(out), "--csv", str(csv_path)])
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["result"]["residual_norm"] <= 1e-10
        assert record["result"]["cone_margin"] > 0
        assert len(record["result"]["u"]) == 65
        assert csv_path.exists()

    def test_boundary_data_file(self, tmp_path):
        grid_n = 33
        data = tmp_path / "data.txt"
        data.write_text("\n".join(["0.5"] * grid_n))
        out = tmp_path / "r.json"
        rc = main(["solve-dirichlet", "--dim", "3", "--k", "1",
                   "--domain", "annulus", "--grid", str(grid_n),
                   "--data-file", str(data), "--out", str(out)])
        assert rc == 0

    def test_warped_background(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["solve-dirichlet", "--dim", "3", "--k", "2",
                   "--domain", "annulus", "--grid", "65",
                   "--background", "warped:sinh", "--out", str(out)])
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["result"]["background_scale"] == pytest.approx(2.0)

    def test_solve_complete_asymptotics(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = main(["solve-complete", "--dim", "3", "--k", "3",
                   "--domain", "ball", "--grid", "512",
                   "--out", str(out)])
        assert rc == 0
        record = json.loads(out.read_text())
        fit = record["result"]["asymptotics"]
        assert fit["constant"] == pytest.approx(0.5 * np.log(2.0),
                                                abs=1e-2)

    def test_einstein_reference_carries_the_rhs_scale(self, tmp_path):
        # sigma_k = 4 e^{2ku} shifts the constant of u + ln d by
        # -ln(4) / (2k) from the rhs_scale 1 value, ln(2) / 2 at m = k = 3
        out = tmp_path / "r.json"
        rc = main(["solve-complete", "--dim", "3", "--k", "3",
                   "--rhs-scale", "4", "--grid", "512", "--out", str(out)])
        assert rc == 0
        fit = json.loads(out.read_text())["result"]["asymptotics"]
        assert fit["einstein_reference"] == pytest.approx(
            0.5 * np.log(2.0) - np.log(4.0) / 6.0, abs=1e-14)
        assert abs(fit["constant"] - fit["einstein_reference"]) <= 1e-4

    @pytest.mark.parametrize("profile", ["sinh", "cosh"])
    def test_einstein_reference_carries_the_prescale(self, profile,
                                                      tmp_path):
        # u is the conformal factor of the prescaled background c g, here
        # c = 3, so the constant of u + ln d is -ln(3) / 2 off the flat
        # reference, on both spheres
        out = tmp_path / "r.json"
        assert main(["solve-complete", "--dim", "4", "--k", "2",
                     "--domain", "annulus", "--background",
                     f"warped:{profile}", "--grid", "513",
                     "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        fit = result["asymptotics"]
        assert result["background_scale"] == pytest.approx(3.0, rel=1e-12)
        for sphere in (fit, fit["inner"]):
            assert abs(sphere["constant"] - fit["einstein_reference"]) <= 1e-3

    def test_asymptotics_prints_constant(self, capsys):
        rc = main(["asymptotics", "--dim", "3", "--k", "1",
                   "--domain", "ball", "--grid", "512"])
        assert rc == 0
        assert "constant" in capsys.readouterr().out

    def test_pe_invariant(self, tmp_path, capsys):
        out = tmp_path / "pe.json"
        rc = main(["pe-invariant", "--n", "3",
                   "--background", "flat-ball", "--grid", "257",
                   "--out", str(out)])
        assert rc == 0
        record = json.loads(out.read_text())
        res = record["result"]
        assert res["is_einstein"]
        assert len(res["max_abs_Hk"]) == 3
        assert res["constants"][0]["beta"] == pytest.approx(2.0)

    def test_surface(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        rc = main(["surface", "--domain", "disk", "--grid", "64,64",
                   "--out", str(out)])
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["result"]["positive"]

    def test_surface_with_expressions(self, tmp_path):
        out = tmp_path / "s.json"
        rc = main(["surface", "--domain", "box", "--grid", "33,33",
                   "--curvature", "0.3*cos(pi*x)", "--out", str(out)])
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["result"]["residual"] <= 1e-8
