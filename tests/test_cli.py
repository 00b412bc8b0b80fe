import numpy as np
import pytest

from sltfem.cli import (
    A_SWEEP,
    B_SWEEP,
    EXIT_ERROR,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    main,
    run_reproduction_suite,
    scenario_config,
)


class TestScenarioConfig:
    def test_fiber_orientations(self):
        cx = scenario_config("x", "parabolic")
        cy = scenario_config("y", "parabolic")
        assert cx.fiber_angle == 0.0
        assert cy.fiber_angle == pytest.approx(np.pi / 2)

    def test_constant_cell_carries_heat_source(self):
        cfg = scenario_config("x", "constant")
        assert cfg.Q > 0.0
        assert scenario_config("x", "parabolic").Q == 0.0

    def test_rejects_unknown_cell(self):
        with pytest.raises(ValueError):
            scenario_config("z", "constant")
        with pytest.raises(ValueError):
            scenario_config("x", "linear")


class TestUsage:
    @pytest.mark.parametrize("argv", [[], ["bogus"]], ids=["no-command", "unknown-command"])
    def test_missing_or_unknown_command_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: sltfem" in capsys.readouterr().err


class TestSolveCommand:
    def test_zero_load_run_exits_ok(self, capsys):
        code = main(["solve", "--mesh.nx", "4", "--mesh.ny", "4",
                     "--material.b", "0", "--thermal_bc.theta0", "0"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "converged=True" in out
        assert "stress_norm" in out

    def test_config_file_with_overrides(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("mesh.nx = 4\nmesh.ny = 4\nthermal_bc.Q = 100\n")
        code = main(["solve", str(cfgfile), "--picard.max_iter", "50"])
        assert code == EXIT_OK

    def test_invalid_key_exits_error(self, capsys):
        for key, value in (("mesh.nz", "4"), ("mesh.crack", "maybe")):
            code = main(["solve", f"--{key}", value])
            assert code == EXIT_ERROR
            assert capsys.readouterr().err.startswith(f"error: line 0: key '{key}'")
        # an override with no value, last or followed by another override
        for argv in (["solve", "--mesh.nx"], ["solve", "--mesh.nx", "--mesh.ny", "4"]):
            assert main(argv) == EXIT_ERROR
            assert capsys.readouterr().err.splitlines() == [
                "error: line 0: key 'mesh.nx': missing value"]

    def test_unreadable_file_exits_error(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        for argv in (["solve", str(missing / "run.cfg")],
                     ["solve", "--mesh.nx", "2", "--mesh.ny", "2", "--material.b", "0",
                      "--outputs.vtk_path", str(missing / "x.vtk")]):
            assert main(argv) == EXIT_ERROR
            [line] = capsys.readouterr().err.splitlines()
            assert line.startswith("error: ") and str(missing) in line

    @pytest.mark.parametrize("command", ["solve", "sweep", "mesh-dump"])
    def test_config_file_not_utf8_exits_error(self, command, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_bytes(bytes(range(0x80, 0x100)))
        assert main([command, str(cfgfile)]) == EXIT_ERROR
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfgfile}: not UTF-8 text (invalid start byte at byte 0)"]

    @pytest.mark.parametrize("command", ["solve", "sweep", "mesh-dump"])
    def test_cracked_mesh_below_2_exits_error(self, command, capsys):
        code = main([command, "--mesh.nx", "1"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: line 0: key 'mesh.nx'")

    @pytest.mark.parametrize("key,value", [("thermal_bc.Q", "inf"),
                                           ("mechanical_bc.top_uy", "nan"),
                                           ("material.fiber_angle", "inf")])
    def test_non_finite_value_exits_error_naming_its_key(self, key, value, capsys):
        # pytest turns any warning into an error here, so none is raised on the way
        code = main(["solve", "--mesh.nx", "4", "--mesh.ny", "4", f"--{key}", value])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.splitlines() == [
            f"error: line 0: key '{key}': {value} must be finite"]

    def test_solve_error_exits_error_saying_where(self, capsys):
        # the b = 0 start of this opening breaks the strain limit
        code = main(["solve", "--mesh.nx", "8", "--mesh.ny", "8", "--material.b", "0.5",
                     "--mechanical_bc.top_uy", "3"])
        assert code == EXIT_ERROR
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "(x, y) = (" in line

    def test_not_converged_exit_code(self, capsys):
        code = main(["solve", "--mesh.nx", "4", "--mesh.ny", "4",
                     "--thermal_bc.Q", "100", "--picard.max_iter", "2"])
        assert code == EXIT_NOT_CONVERGED

    def test_writes_outputs(self, tmp_path, capsys):
        vtk = tmp_path / "f.vtk"
        csv = tmp_path / "p.csv"
        code = main(["solve", "--mesh.nx", "4", "--mesh.ny", "4",
                     "--thermal_bc.Q", "100",
                     "--outputs.vtk_path", str(vtk),
                     "--outputs.csv_path", str(csv)])
        assert code == EXIT_OK
        assert vtk.exists() and "POINTS 27 double" in vtk.read_text()
        assert csv.exists() and csv.read_text().startswith("x,value\n")


class TestSweepCommand:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--param", "b", "--values", "0,0.02",
                     "--out", str(out), "--mesh.nx", "4", "--mesh.ny", "4",
                     "--thermal_bc.Q", "100"])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("parameter,value,max_stress_norm")

    def test_sweep_from_config_keys(self, tmp_path, capsys):
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text("mesh.nx = 4\nmesh.ny = 4\nthermal_bc.Q = 100\n"
                           "sweep.parameter = a\nsweep.values = 0.5, 1\n")
        out = tmp_path / "sweep.csv"
        code = main(["sweep", str(cfgfile), "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert [ln.split(",")[:2] for ln in lines[1:]] == [["a", "0.5"], ["a", "1"]]

    def test_flag_overrides_key(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--values", "0.02", "--out", str(out),
                     "--sweep.parameter", "b", "--sweep.values", "0,0.01,0.02",
                     "--mesh.nx", "4", "--mesh.ny", "4", "--thermal_bc.Q", "100"])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert [ln.split(",")[:2] for ln in lines[1:]] == [["b", "0.02"]]

    def test_bad_value_exits_error(self, tmp_path, capsys):
        code = main(["sweep", "--param", "b", "--values", "0.1,x",
                     "--out", str(tmp_path / "sweep.csv")])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("param,values", [("b", "0,-0.1"), ("a", "0.5,0")])
    def test_value_outside_the_law_exits_error(self, param, values, tmp_path, capsys):
        code = main(["sweep", "--param", param, "--values", values,
                     "--out", str(tmp_path / "sweep.csv")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 0: key 'sweep.values'")
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("argv", [["--param", "b"], ["--values", "0.1"],
                                      ["--param", "b", "--values", ""]])
    def test_missing_parameter_or_values_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *argv])
        assert exc.value.code == 2


class TestMeshDumpCommand:
    def test_dump_matches_mesh(self, capsys):
        code = main(["mesh-dump", "--mesh.nx", "4", "--mesh.ny", "4"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "0 0 0"
        assert sum(1 for ln in lines if ln.startswith("facet")) == 20


class TestReproductionSuite:
    def test_grid_shape_and_artifacts(self, tmp_path, capsys):
        code = main(["reproduce", "--out", str(tmp_path), "--nx", "4", "--ny", "4",
                     "--order", "1"])
        assert code == EXIT_OK   # every cell's strain trend holds
        assert "8/8 cells pass" in capsys.readouterr().out
        csvs = sorted(tmp_path.glob("*.csv"))
        assert len(csvs) == 8
        for csv in csvs:
            header, *rows = (line.split(",") for line in csv.read_text().splitlines())
            assert len(rows) == len(B_SWEEP if csv.stem.endswith("_b_sweep") else A_SWEEP)
            assert all(row[header.index("converged")] == "1" for row in rows)

    @pytest.mark.parametrize("flag", ["--nx", "--ny"])
    def test_grid_below_2_is_a_usage_error(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--out", str(tmp_path), flag, "1"])
        assert exc.value.code == 2
        assert "at least 2" in capsys.readouterr().err

    def test_config_override_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--out", str(tmp_path), "--mesh.nx", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mesh.nx" in capsys.readouterr().err

    def test_one_set_up_per_scenario(self, tmp_path, fespace_builds, capsys):
        # the b- and a-sweep of each of the 4 scenarios share one mesh and its 2 spaces
        run_reproduction_suite(out_dir=tmp_path, nx=4, ny=4, order=1)
        assert len(fespace_builds) == 4 * 2
