import itertools
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import sltfem.config
import sltfem.solver
from sltfem import (
    InadmissibleStrain,
    MaterialParams,
    SolverBreakdown,
    build_cracked_grid,
    build_grid,
    crack_opening_profile,
    recover_fields,
    run_sweep,
    write_csv,
    write_vtk,
)
from sltfem.assembly import FEField, FESpace
from sltfem.cli import scenario_config
from sltfem.config import RunConfig, run_single
from sltfem.constitutive import stress_from_strain_m
from sltfem.postprocess import NodalField, _principal_values
from sltfem.solver import solve_thermal
from sltfem.tensors import SQRT2, energy_norm_m

from mechanics import newton


def make_params(**kw):
    defaults = dict(lam=1.0, mu=1.0, gamma=1.0, fiber_angle=0.0,
                    a=0.5, b=0.02, alpha_T=0.01, k=1.0)
    defaults.update(kw)
    return MaterialParams(**defaults)


def uniform_strain_field(space, exx=0.1, eyy=-0.05, exy=0.02):
    vals = np.zeros(space.n_dofs)
    x, y = space.dof_coords[:, 0], space.dof_coords[:, 1]
    vals[0::2] = exx * x + exy * y
    vals[1::2] = exy * x + eyy * y
    return FEField(space, vals)


class TestPrincipalValues:
    def test_against_eigvalsh(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(100, 3))
        hi, lo = _principal_values(m)
        for i in range(100):
            mat = np.array([[m[i, 0], m[i, 2] / SQRT2],
                            [m[i, 2] / SQRT2, m[i, 1]]])
            ev = np.linalg.eigvalsh(mat)
            assert hi[i] == pytest.approx(ev[1], rel=1e-12, abs=1e-12)
            assert lo[i] == pytest.approx(ev[0], rel=1e-12, abs=1e-12)


class TestRecoverFields:
    def test_zero_solution_all_fields_zero(self):
        space = FESpace(build_grid(4, 4), order=2, components=2)
        fields = recover_fields(FEField.zero(space), None, make_params())
        for name, fld in fields.items():
            np.testing.assert_allclose(fld.values, 0.0, atol=1e-14, err_msg=name)

    def test_uniform_strain_recovery(self):
        space = FESpace(build_grid(4, 4), order=2, components=2)
        u = uniform_strain_field(space)
        p = make_params()
        fields = recover_fields(u, None, p)
        expected_eps = np.array([0.1, -0.05, 0.02 * SQRT2])
        np.testing.assert_allclose(fields["strain"].values,
                                   np.tile(expected_eps, (space.mesh.n_nodes, 1)),
                                   atol=1e-10)
        # recovery of a constant field commutes with the constitutive law
        expected_sig = stress_from_strain_m(expected_eps, p)
        np.testing.assert_allclose(fields["stress"].values,
                                   np.tile(expected_sig, (space.mesh.n_nodes, 1)),
                                   atol=1e-10)

    def test_inadmissible_strain_names_its_location(self):
        # u_x = 50 x^2 y: b t grows with x y and peaks at the quadrature point
        # nearest (1, 1), x = y = 0.875 + 0.125 sqrt(3/5) for 3x3 Gauss on 4x4
        space = FESpace(build_grid(4, 4), order=2, components=2)
        vals = np.zeros(space.n_dofs)
        vals[0::2] = 50.0 * space.dof_coords[:, 0] ** 2 * space.dof_coords[:, 1]
        xy = 0.875 + 0.125 * np.sqrt(0.6)
        with pytest.raises(InadmissibleStrain,
                           match=rf"at \(x, y\) = \({xy:.6g}, {xy:.6g}\)$"):
            recover_fields(FEField(space, vals), None, make_params())

    def test_recovered_strains_respect_bound(self):
        cfg = RunConfig(nx=8, ny=8, Q=100.0)
        result = run_single(cfg)
        p = cfg.material()
        t = energy_norm_m(result.fields["strain"].values, p.E.entries)
        assert np.all(t < 1.0 / p.b)

    def test_duplicate_crack_nodes_carry_independent_values(self):
        cfg = RunConfig(nx=8, ny=8, Q=100.0, top_uy=0.1)
        result = run_single(cfg)
        sv = result.fields["stress_norm"].values
        upper, lower = result.mesh.face_pairs[0]
        assert sv[upper] != sv[lower]


class TestCrackOpeningProfile:
    def test_zero_displacement(self):
        mesh = build_cracked_grid(4, 4)
        space = FESpace(mesh, order=2, components=2)
        prof = crack_opening_profile(FEField.zero(space), mesh)
        assert [j for _, j in prof] == [0.0, 0.0]

    def test_rigid_translation(self):
        mesh = build_cracked_grid(4, 4)
        space = FESpace(mesh, order=2, components=2)
        vals = np.zeros(space.n_dofs)
        vals[1::2] = 0.37
        prof = crack_opening_profile(FEField(space, vals), mesh)
        assert all(j == 0.0 for _, j in prof)

    def test_ordered_mouth_to_tip(self):
        mesh = build_cracked_grid(8, 4)
        space = FESpace(mesh, order=1, components=2)
        prof = crack_opening_profile(FEField.zero(space), mesh)
        xs = [x for x, _ in prof]
        assert xs == sorted(xs)
        assert xs[0] == 0.0


class TestRunSweep:
    def test_single_value_matches_plain_run(self):
        cfg = RunConfig(nx=4, ny=4, Q=100.0)
        rows = run_sweep(cfg, "b", [0.0])
        plain = run_single(replace(cfg, b=0.0))
        assert rows[0].max_stress_norm == pytest.approx(
            float(plain.fields["stress_norm"].values.max()))
        assert rows[0].converged
        assert rows[0].iterations == plain.report.iterations

    def test_rows_in_input_order(self):
        cfg = RunConfig(nx=4, ny=4, Q=100.0)
        rows = run_sweep(cfg, "b", [0.02, 0.0])
        assert [r.value for r in rows] == [0.02, 0.0]

    def test_rejects_bad_parameter(self):
        with pytest.raises(ValueError):
            run_sweep(RunConfig(), "k", [1.0])
        with pytest.raises(ValueError):
            run_sweep(RunConfig(), "b", [])


def recording_run_single(monkeypatch):
    """Wrap sltfem.config.run_single with one argument, as perfbench/run.py
    does; returns the list of results it records."""
    results = []
    solve = sltfem.config.run_single

    def keep(cfg):
        results.append(solve(cfg))
        return results[-1]

    monkeypatch.setattr(sltfem.config, "run_single", keep)
    return results


def recording_solves(monkeypatch):
    """Wrap sltfem.config._solve, which solves a config from its set-up;
    returns the list of (config, thread, start, end) of each solve, an end
    of None while it runs."""
    solves = []
    solve = sltfem.config._solve

    def timed(cfg, setup):
        entry = [cfg, threading.get_ident(), time.perf_counter(), None]
        solves.append(entry)
        try:
            return solve(cfg, setup)
        finally:
            entry[3] = time.perf_counter()

    monkeypatch.setattr(sltfem.config, "_solve", timed)
    return solves


class TestSharedSetUp:
    """A sweep builds its mesh, spaces, thermal solve and b = 0 start once."""

    CFG = scenario_config("x", "constant", 8, 8)
    # CG steps a held factor gets in these tests: a = 0.1 needs 25 on one
    # Newton system and falls back to a fresh factor, a = 0.5 at most 5.
    CG_BUDGET = 15

    @pytest.mark.parametrize("parameter,values", [("a", (0.1, 0.5, 1.0)),
                                                  ("b", (0.0, 0.01, 0.02))])
    def test_sweep_matches_standalone_solves(self, monkeypatch, fespace_builds,
                                             parameter, values):
        monkeypatch.setattr(sltfem.solver, "_CG_BUDGET", self.CG_BUDGET)
        results = recording_run_single(monkeypatch)
        solves = recording_solves(monkeypatch)
        run_sweep(self.CFG, parameter, values)
        assert len(results) == len(values) and len(fespace_builds) == 2
        # the values ran at once on worker threads, one per core and no more
        # than one per value
        threads = {thread for _, thread, _, _ in solves}
        workers = min(sltfem.config._usable_cores(), len(values))
        assert len(solves) == len(values) and threading.get_ident() not in threads
        assert min(workers, 2) <= len(threads) <= workers
        if workers > 1:   # two solves on two threads overlap
            assert any(t1 != t2 and start2 < end1 and start1 < end2
                       for (_, t1, start1, end1), (_, t2, start2, end2)
                       in itertools.combinations(solves, 2))
        monkeypatch.undo()
        monkeypatch.setattr(sltfem.solver, "_CG_BUDGET", self.CG_BUDGET)
        for value, got in zip(values, results):
            want = run_single(replace(self.CFG, **{parameter: value}))
            np.testing.assert_array_equal(got.u.values, want.u.values)
            for name, fld in want.fields.items():
                np.testing.assert_array_equal(got.fields[name].values, fld.values)
            assert got.report == want.report
        if parameter == "a":
            # a = 0.1 falls back to a fresh factor; the shared one still serves a = 0.5
            assert [r.report.factorizations for r in results] == [2, 1, 1]

    def test_one_pool_per_block(self, monkeypatch):
        threads = []   # the thread of the thermal branch and of each started solve
        for name in ("solve_thermal", "_solve"):
            def on_thread(*args, fn=getattr(sltfem.config, name), **kwargs):
                threads.append(threading.current_thread())
                return fn(*args, **kwargs)
            monkeypatch.setattr(sltfem.config, name, on_thread)
        run_sweep(self.CFG, "b", (0.0, 0.01, 0.02))
        assert len(threads) == 4
        distinct = set(threads)
        names = {t.name for t in distinct}
        # one pool: its threads have distinct names with one prefix
        assert len(names) == len(distinct) <= sltfem.config._usable_cores()
        assert len({name.rsplit("_", 1)[0] for name in names}) == 1
        assert threading.current_thread() not in distinct
        assert not any(t.is_alive() for t in distinct)

    def test_set_up_is_dropped_after_the_sweep(self, fespace_builds):
        run_sweep(self.CFG, "b", (0.0, 0.02))
        assert len(fespace_builds) == 2
        run_single(self.CFG)
        assert len(fespace_builds) == 4

    def test_set_up_is_dropped_after_a_failed_value(self, fespace_builds):
        with pytest.raises(ValueError):
            run_sweep(self.CFG, "a", (0.5, -1.0))
        assert len(fespace_builds) == 2
        run_single(self.CFG)
        assert len(fespace_builds) == 4

    def test_wrapper_called_once_per_value(self, monkeypatch):
        calls = []   # (config, thread) of each call of the wrapper
        results = recording_run_single(monkeypatch)
        solve = sltfem.config.run_single

        def keep(cfg):
            calls.append((cfg, threading.get_ident()))
            return solve(cfg)

        monkeypatch.setattr(sltfem.config, "run_single", keep)
        rows = run_sweep(self.CFG, "b", (0.0, 0.01, 0.02))
        assert calls == [(replace(self.CFG, b=b), threading.get_ident())
                         for b in (0.0, 0.01, 0.02)]
        assert [r.config for r in results] == [cfg for cfg, _ in calls]
        assert [r.iterations for r in rows] == [r.report.iterations for r in results]
        assert [r.max_strain_norm for r in rows] == [
            float(r.fields["strain_norm"].values.max()) for r in results]

    def test_failed_value_raises_at_its_turn(self, monkeypatch):
        error = InadmissibleStrain(2.0, location="b = 0.01")
        solve = sltfem.config.newton_solve

        def failing(setup, p, *args, **kwargs):
            if p.b == 0.01:
                raise error
            time.sleep(0.05)   # the solves after the failed one are still running
            return solve(setup, p, *args, **kwargs)

        monkeypatch.setattr(sltfem.config, "newton_solve", failing)
        results = recording_run_single(monkeypatch)
        solves = recording_solves(monkeypatch)
        threads = threading.active_count()
        run_sweep(self.CFG, "b", (0.0, 0.02))
        assert threading.active_count() == threads
        with pytest.raises(InadmissibleStrain) as raised:
            run_sweep(self.CFG, "b", (0.0, 0.01, 0.02, 0.03))
        assert raised.value is error
        assert [r.config.b for r in results] == [0.0, 0.02, 0.0]
        assert all(end is not None for *_, end in solves)   # none left running
        assert threading.active_count() == threads

    def test_repeated_value_is_solved_per_call(self, monkeypatch):
        results = recording_run_single(monkeypatch)
        solves = recording_solves(monkeypatch)
        rows = run_sweep(self.CFG, "b", (0.01, 0.01))
        assert len(solves) == 2 and results[0] is not results[1]
        assert rows[0] == rows[1]
        np.testing.assert_array_equal(results[0].u.values, results[1].u.values)

    def test_wrapper_that_changes_the_config_gets_its_own_solve(self, monkeypatch):
        results = []
        solve = sltfem.config.run_single

        def shifted(cfg):
            results.append(solve(replace(cfg, b=cfg.b + 0.005)))
            return results[-1]

        monkeypatch.setattr(sltfem.config, "run_single", shifted)
        threads = threading.active_count()
        run_sweep(self.CFG, "b", (0.0, 0.01))
        assert threading.active_count() == threads
        monkeypatch.undo()
        assert [r.config.b for r in results] == [0.005, 0.015]
        for got in results:
            want = run_single(got.config)
            np.testing.assert_array_equal(got.u.values, want.u.values)
            assert got.report == want.report


class TestThreadedSetUp:
    """run_single solves the thermal problem on a second thread while the
    b = 0 system is built and factored in float32; after the join the system
    gets its thermal load and is solved on that factor, or on a float64 one
    if the float32 factorization failed."""

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_the_sequential_solve(self, order):
        cfg = scenario_config("x", "constant", 8, 8, order=order)
        got = run_single(cfg)
        mesh, p = cfg.build_mesh(), cfg.material()
        theta = solve_thermal(FESpace(mesh, order=order, components=1), p,
                              Q_source=cfg.Q, bc=cfg.thermal_bc())
        u, report = newton(FESpace(mesh, order=order, components=2), p, theta,
                           cfg.mechanical_bc(), cfg.picard())
        np.testing.assert_array_equal(got.theta.values, theta.values)
        np.testing.assert_array_equal(got.u.values, u.values)
        for name, fld in recover_fields(u, theta, p).items():
            np.testing.assert_array_equal(got.fields[name].values, fld.values)
        assert got.report == report

    @staticmethod
    def _mechanical_splu(monkeypatch, cfg, float32_fails=False):
        """Patch spla.splu to record the dtype of each factorization of cfg's
        mechanical matrix in a list it returns, and to set the returned event
        when it gets the first; the float32 one raises if float32_fails."""
        n = FESpace(cfg.build_mesh(), order=cfg.element_order, components=2).n_dofs
        splu, got, dtypes = spla.splu, threading.Event(), []

        def marking(A, **kwargs):
            if A.shape[0] == n:
                dtypes.append(A.dtype)
                got.set()
                if float32_fails and A.dtype == np.float32:
                    raise RuntimeError("Factor is exactly singular")
            return splu(A, **kwargs)

        monkeypatch.setattr(spla, "splu", marking)
        return got, dtypes

    def test_b0_factor_overlaps_the_thermal_solve(self, monkeypatch):
        cfg = scenario_config("x", "constant", 8, 8)
        want = run_single(cfg)
        got_b0, dtypes = self._mechanical_splu(monkeypatch, cfg)
        thermal, waited = sltfem.config.solve_thermal, []

        def waiting(*args, **kwargs):   # deadlocks, up to the timeout, if the
            waited.append(got_b0.wait(10.0))   # b = 0 factor waits for the join
            return thermal(*args, **kwargs)

        monkeypatch.setattr(sltfem.config, "solve_thermal", waiting)
        got = run_single(cfg)
        assert waited == [True] and dtypes == [np.float32]
        np.testing.assert_array_equal(got.theta.values, want.theta.values)
        np.testing.assert_array_equal(got.u.values, want.u.values)
        assert got.report == want.report

    @pytest.mark.parametrize("thermal_fails", [False, True])
    def test_failed_factor_ahead_falls_back_to_float64_after_the_join(
            self, monkeypatch, thermal_fails):
        cfg = scenario_config("x", "constant", 8, 8)
        error = SolverBreakdown("sparse factorization failed: thermal")
        got_b0, dtypes = self._mechanical_splu(monkeypatch, cfg, float32_fails=True)
        mesh, p = cfg.build_mesh(), cfg.material()
        u, report = newton(FESpace(mesh, order=2, components=2), p,
                           solve_thermal(FESpace(mesh, order=2), p, Q_source=cfg.Q,
                                         bc=cfg.thermal_bc()),
                           cfg.mechanical_bc(), cfg.picard())
        assert dtypes == [np.float32, np.float64] and report.factorizations == 1
        thermal, order = sltfem.config.solve_thermal, []

        def waiting(*args, **kwargs):   # the thermal solve ends after the failure
            assert got_b0.wait(10.0)
            order.append(len(dtypes))
            if thermal_fails:
                raise error
            return thermal(*args, **kwargs)

        got_b0.clear()
        dtypes.clear()
        monkeypatch.setattr(sltfem.config, "solve_thermal", waiting)
        threads = threading.active_count()
        if thermal_fails:
            with pytest.raises(SolverBreakdown) as raised:
                run_single(cfg)
            assert raised.value is error and dtypes == [np.float32]
        else:
            got = run_single(cfg)
            np.testing.assert_array_equal(got.u.values, u.values)
            assert got.report == report
            # float32 before the join, float64 after it
            assert order == [1] and dtypes == [np.float32, np.float64]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("mechanical_fails", [None, "first", "second"])
    def test_thermal_error_is_raised_unchanged_and_first(self, monkeypatch,
                                                         mechanical_fails):
        error = SolverBreakdown("sparse factorization failed: thermal")
        failed = threading.Event()

        def thermal(*args, **kwargs):
            if mechanical_fails == "first":
                failed.wait(5.0)
            failed.set()
            raise error

        def mechanical(*args):
            if mechanical_fails == "second":
                failed.wait(5.0)
            failed.set()
            raise SolverBreakdown("mechanical")

        monkeypatch.setattr(sltfem.config, "solve_thermal", thermal)
        if mechanical_fails:
            monkeypatch.setattr(sltfem.solver, "AssemblyPlan", mechanical)
        threads = threading.active_count()
        with pytest.raises(SolverBreakdown) as raised:
            run_single(scenario_config("x", "constant", 4, 4))
        assert raised.value is error and threading.active_count() == threads

    def test_no_thread_outlives_the_set_up(self, monkeypatch):
        threads = threading.active_count()
        run_single(scenario_config("x", "constant", 4, 4))
        assert threading.active_count() == threads
        monkeypatch.setattr(sltfem.solver, "AssemblyPlan", lambda *args: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            run_single(scenario_config("x", "constant", 4, 4))
        assert threading.active_count() == threads


class TestWriteVtk:
    def test_single_element(self, tmp_path):
        mesh = build_grid(1, 1)
        space = FESpace(mesh, order=1, components=2)
        fields = recover_fields(FEField.zero(space), None, make_params())
        path = tmp_path / "out.vtk"
        write_vtk(fields, mesh, path)
        text = path.read_text()
        assert "POINTS 4 double" in text
        assert "CELLS 1 5" in text
        assert "CELL_TYPES 1" in text

    def test_cracked_4x4_point_count_and_fields(self, tmp_path):
        mesh = build_cracked_grid(4, 4)
        space = FESpace(mesh, order=2, components=2)
        fields = recover_fields(FEField.zero(space), None, make_params())
        path = tmp_path / "out.vtk"
        write_vtk(fields, mesh, path)
        text = path.read_text()
        assert "POINTS 27 double" in text
        n_blocks = text.count("SCALARS ") + text.count("TENSORS ") + text.count("VECTORS ")
        assert n_blocks == len(fields)

    def test_golden_bytes(self, tmp_path):
        mesh = build_grid(1, 1)
        third = 1.0 / 3.0
        values = {
            "s": np.array([third, -0.0, 1e-300, 2.5]),
            "v": np.array([[third, -0.0], [1e-300, -1.0], [0.1, 2.0], [-1e300, 0.0]]),
            "t": np.array([[third, -0.0, 1.0], [1e-300, 2.0, -0.0],
                           [0.1, 0.2, SQRT2], [-5.0, 1e-300, third]]),
        }
        fields = {name: NodalField(mesh, vals, name) for name, vals in values.items()}
        path = tmp_path / "golden.vtk"
        write_vtk(fields, mesh, path)
        assert path.read_bytes() == (
            b"# vtk DataFile Version 3.0\n"
            b"sltfem output\n"
            b"ASCII\n"
            b"DATASET UNSTRUCTURED_GRID\n"
            b"POINTS 4 double\n"
            b"0 0 0\n"
            b"1 0 0\n"
            b"0 1 0\n"
            b"1 1 0\n"
            b"CELLS 1 5\n"
            b"4 0 1 3 2\n"
            b"CELL_TYPES 1\n"
            b"9\n"
            b"POINT_DATA 4\n"
            b"SCALARS s double 1\n"
            b"LOOKUP_TABLE default\n"
            b"0.33333333333333331\n"
            b"-0\n"
            b"1e-300\n"
            b"2.5\n"
            b"VECTORS v double\n"
            b"0.33333333333333331 -0 0\n"
            b"1e-300 -1 0\n"
            b"0.10000000000000001 2 0\n"
            b"-1.0000000000000001e+300 0 0\n"
            b"TENSORS t double\n"
            b"0.33333333333333331 0.70710678118654746 0\n"
            b"0.70710678118654746 -0 0\n"
            b"0 0 0\n"
            b"1e-300 -0 0\n"
            b"-0 2 0\n"
            b"0 0 0\n"
            b"0.10000000000000001 1 0\n"
            b"1 0.20000000000000001 0\n"
            b"0 0 0\n"
            b"-5 0.23570226039551581 0\n"
            b"0.23570226039551581 1e-300 0\n"
            b"0 0 0\n")


class TestWriteCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text() == "x,value\n"

    def test_sweep_line_count(self, tmp_path):
        cfg = RunConfig(nx=4, ny=4, Q=100.0)
        rows = run_sweep(cfg, "b", [0.0, 0.01, 0.02, 0.03])
        path = tmp_path / "sweep.csv"
        write_csv(rows, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 5

    def test_round_trip_bit_exact(self, tmp_path):
        import csv as csvmod

        cfg = RunConfig(nx=4, ny=4, Q=100.0)
        rows = run_sweep(cfg, "b", [0.0, 0.02])
        path = tmp_path / "sweep.csv"
        write_csv(rows, path)
        with open(path) as fh:
            reader = csvmod.DictReader(fh)
            parsed = list(reader)
        for row, rec in zip(rows, parsed):
            assert float(rec["max_stress_norm"]) == row.max_stress_norm
            assert float(rec["max_strain_norm"]) == row.max_strain_norm
            assert float(rec["value"]) == row.value

    def test_profile_rows(self, tmp_path):
        path = tmp_path / "profile.csv"
        write_csv([(0.0, 0.5), (0.25, 0.25)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 3

    def test_deterministic_bytes(self, tmp_path):
        cfg = RunConfig(nx=4, ny=4, Q=100.0)
        paths = []
        for i in range(2):
            rows = run_sweep(cfg, "b", [0.0, 0.02])
            path = tmp_path / f"sweep{i}.csv"
            write_csv(rows, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]
