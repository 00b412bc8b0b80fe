import math
import os
import re
from pathlib import Path

import pytest

from sltfem import InvariantViolation, TypeMismatch, UnknownKey
from sltfem.config import (
    _KEYS,
    RunConfig,
    _usable_cores,
    parse_config,
    run_single,
    serialize_config,
)
from sltfem.mesh import CrackSpec


class TestDefaults:
    def test_empty_text_gives_documented_defaults(self):
        cfg = parse_config("")
        assert cfg.nx == 32 and cfg.ny == 32
        assert cfg.element_order == 2
        assert cfg.fiber_angle == 0.0
        assert cfg.a == 0.5 and cfg.b == 0.02
        assert cfg.tol == 1e-8 and cfg.max_iter == 100
        assert cfg.lam == 1.0 and cfg.mu == 1.0 and cfg.gamma == 1.0
        assert cfg.alpha_T == 0.01 and cfg.k == 1.0
        assert cfg.crack == CrackSpec()
        assert cfg.top_uy == 0.0 and cfg.Q == 0.0

    def test_parabolic_profile_peaks_at_100(self):
        cfg = parse_config("thermal_bc.kind = parabolic\n")
        f = cfg.thermal_bc().value
        assert f(0.5, 0.0) == pytest.approx(100.0)
        assert f(0.0, 0.0) == 0.0


class TestParsing:
    def test_comments_and_blank_lines(self):
        cfg = parse_config("# leading comment\n\nmesh.nx = 8  # trailing\n")
        assert cfg.nx == 8

    def test_dotted_keys(self):
        cfg = parse_config("material.lambda = 2.5\nmaterial.fiber_angle = 1.5707963\n")
        assert cfg.lam == 2.5
        assert cfg.fiber_angle == pytest.approx(math.pi / 2, rel=1e-6)

    def test_overrides_win(self):
        cfg = parse_config("mesh.nx = 8\n", overrides={"mesh.nx": "16"})
        assert cfg.nx == 16

    def test_crack_disabled(self):
        cfg = parse_config("mesh.crack = false\n")
        assert cfg.crack is None
        assert cfg.build_mesh().tip_node is None

    def test_crack_geometry_keys(self):
        cfg = parse_config("mesh.crack_tip_x = 0.75\nmesh.crack_mouth = right\n")
        assert cfg.crack.tip_x == 0.75
        assert cfg.crack.mouth_edge == "right"

    def test_sweep_values_list(self):
        cfg = parse_config("sweep.parameter = b\nsweep.values = 0, 0.01, 0.02\n")
        assert cfg.sweep_values == (0.0, 0.01, 0.02)


class TestErrors:
    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(UnknownKey) as exc:
            parse_config("# comment\nmesh.nz = 4\n")
        assert "mesh.nz" in str(exc.value)
        assert exc.value.line == 2

    def test_type_mismatch_names_key_and_line(self):
        with pytest.raises(TypeMismatch) as exc:
            parse_config("mesh.nx = four\n")
        assert "mesh.nx" in str(exc.value)
        assert exc.value.line == 1

    def test_malformed_line(self):
        with pytest.raises(TypeMismatch):
            parse_config("just some words\n")

    def test_negative_b_rejected(self):
        with pytest.raises(InvariantViolation) as exc:
            parse_config("material.b = -1\n")
        assert "material.b" in str(exc.value)
        assert exc.value.line == 1

    @pytest.mark.parametrize("text,key", [
        ("mesh.nx = 0\n", "mesh.nx"),
        ("mesh.nx = 1\n", "mesh.nx"),
        ("mesh.ny = 1\n", "mesh.ny"),
        ("mesh.crack = false\nmesh.ny = 0\n", "mesh.ny"),
        ("element_order = 3\n", "element_order"),
        ("thermal_bc.kind = cubic\n", "thermal_bc.kind"),
        ("material.mu = -2\n", "material.mu"),
        ("material.a = 0\n", "material.a"),
        ("material.alpha_T = -1\n", "material.alpha_T"),
        ("material.k = 0\n", "material.k"),
        # lambda <= -mu: the isotropic part alone is indefinite
        ("material.gamma = 0\nmaterial.lambda = -1.2\n", "material.lambda"),
        ("material.lambda = -5\n", "material.lambda"),
        ("material.gamma = -5\n", "material.gamma"),
        ("picard.tol = 0\n", "picard.tol"),
        ("picard.max_iter = 0\n", "picard.max_iter"),
        ("picard.damping = 2\n", "picard.damping"),
        ("sweep.parameter = k\n", "sweep.parameter"),
        ("sweep.parameter = b\nsweep.values = 0, -0.1\n", "sweep.values"),
        ("sweep.parameter = a\nsweep.values = 0.5, 0\n", "sweep.values"),
        # non-finite values, which no range check catches
        ("thermal_bc.Q = inf\n", "thermal_bc.Q"),
        ("mechanical_bc.top_uy = nan\n", "mechanical_bc.top_uy"),
        ("material.fiber_angle = inf\n", "material.fiber_angle"),
        ("material.lambda = nan\n", "material.lambda"),
        ("mesh.nx = 4\nmesh.crack_tip_x = nan\n", "mesh.crack_tip_x"),
        ("mesh.crack_y = -inf\n", "mesh.crack_y"),
        ("sweep.values = 0.1, nan\n", "sweep.values"),
        ("sweep.parameter = b\nsweep.values = 0, inf\n", "sweep.values"),
        # the crack geometry: CrackSpec's ranges, and the mesh lines it must lie on
        ("mesh.nx = 4\nmesh.ny = 4\nmaterial.b = 0.01\nmesh.crack_tip_x = 1.5\n",
         "mesh.crack_tip_x"),
        ("mesh.crack_mouth = top\n", "mesh.crack_mouth"),
        ("mesh.crack_y = 1\n", "mesh.crack_y"),
        ("mesh.ny = 5\n", "mesh.ny"),
        ("mesh.crack_y = 0.3\n", "mesh.crack_y"),
        # the crack geometry is checked even with the crack off
        ("mesh.crack = false\nmesh.crack_tip_x = 1.5\n", "mesh.crack_tip_x"),
        ("mesh.crack = false\nmesh.crack_mouth = top\n", "mesh.crack_mouth"),
    ])
    def test_invariants_name_offending_key(self, text, key):
        with pytest.raises(InvariantViolation) as exc:
            parse_config(text)
        assert key in str(exc.value)
        assert exc.value.line == text.count("\n")   # the offending key is on the last line

    def test_valid_crack_keys_ignored_with_the_crack_off(self):
        cfg = parse_config("mesh.crack = false\nmesh.crack_tip_x = 0.25\n"
                           "mesh.crack_mouth = right\n")
        assert cfg.crack is None

    def test_api_thermal_kind_checked(self):
        with pytest.raises(ValueError, match="'cubic' must be constant or parabolic"):
            RunConfig(thermal_kind="cubic").thermal_bc()

    def test_uncracked_mesh_may_be_one_element_wide(self):
        cfg = parse_config("mesh.crack = false\nmesh.nx = 1\n")
        assert cfg.crack is None and cfg.nx == 1

    def test_indefinite_stiffness_rejected(self):
        with pytest.raises(InvariantViolation):
            parse_config("material.lambda = -10\nmaterial.gamma = 0\n")


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        cfg = parse_config(
            "mesh.nx = 12\nmesh.ny = 8\nmesh.crack_tip_x = 0.25\n"
            "material.b = 0.03\nmaterial.fiber_angle = 0.7853981633974483\n"
            "thermal_bc.kind = parabolic\nmechanical_bc.top_uy = 0.1\n"
            "picard.damping = 0.9\nsweep.parameter = a\nsweep.values = 0.1, 0.5\n")
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_default_round_trip(self):
        cfg = RunConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_sweep_values_without_parameter(self):
        cfg = parse_config("sweep.values = 0.1, 0.2\n")
        assert cfg.sweep_values == (0.1, 0.2)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_empty_output_path(self):
        cfg = parse_config("outputs.vtk_path =\n")
        assert cfg.vtk_path == ""
        assert parse_config(serialize_config(cfg)) == cfg


class TestSerializeGolden:
    def test_every_optional_key_set(self):
        cfg = RunConfig(
            nx=12, ny=8, crack=CrackSpec(y_line=0.25, mouth_edge="right", tip_x=0.75),
            element_order=1, lam=1 / 3, mu=0.1, gamma=2.5, fiber_angle=math.pi / 4,
            a=0.7, b=0.03, alpha_T=1e-5, k=2.0, thermal_kind="parabolic", theta0=50.0,
            thermal_c=300.0, Q=12.5, top_uy=-0.1, tol=1e-10, max_iter=50, damping=0.9,
            vtk_path="out.vtk", csv_path="out.csv", sweep_parameter="b",
            sweep_values=(0.0, 0.01, 1 / 3))
        assert serialize_config(cfg) == (
            "mesh.nx = 12\n"
            "mesh.ny = 8\n"
            "mesh.crack = true\n"
            "mesh.crack_y = 0.25\n"
            "mesh.crack_mouth = right\n"
            "mesh.crack_tip_x = 0.75\n"
            "element_order = 1\n"
            "material.lambda = 0.33333333333333331\n"
            "material.mu = 0.10000000000000001\n"
            "material.gamma = 2.5\n"
            "material.fiber_angle = 0.78539816339744828\n"
            "material.a = 0.69999999999999996\n"
            "material.b = 0.029999999999999999\n"
            "material.alpha_T = 1.0000000000000001e-05\n"
            "material.k = 2\n"
            "thermal_bc.kind = parabolic\n"
            "thermal_bc.theta0 = 50\n"
            "thermal_bc.c = 300\n"
            "thermal_bc.Q = 12.5\n"
            "mechanical_bc.top_uy = -0.10000000000000001\n"
            "picard.tol = 1e-10\n"
            "picard.max_iter = 50\n"
            "picard.damping = 0.90000000000000002\n"
            "outputs.vtk_path = out.vtk\n"
            "outputs.csv_path = out.csv\n"
            "sweep.parameter = b\n"
            "sweep.values = 0,0.01,0.33333333333333331\n")

    def test_crack_off(self):
        assert serialize_config(RunConfig(crack=None)) == (
            "mesh.nx = 32\n"
            "mesh.ny = 32\n"
            "mesh.crack = false\n"
            "element_order = 2\n"
            "material.lambda = 1\n"
            "material.mu = 1\n"
            "material.gamma = 1\n"
            "material.fiber_angle = 0\n"
            "material.a = 0.5\n"
            "material.b = 0.02\n"
            "material.alpha_T = 0.01\n"
            "material.k = 1\n"
            "thermal_bc.kind = constant\n"
            "thermal_bc.theta0 = 100\n"
            "thermal_bc.c = 400\n"
            "thermal_bc.Q = 0\n"
            "mechanical_bc.top_uy = 0\n"
            "picard.tol = 1e-08\n"
            "picard.max_iter = 100\n"
            "picard.damping = 1\n")


def _readme_key_table():
    """The keys and the default cell of each row of README's key table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for line in readme.splitlines():
        if line.startswith("| `"):
            cells = line.split("|")
            yield re.findall(r"`([^`]+)`", cells[1]), cells[2].strip()


def test_readme_key_table_matches_keys():
    listed = [key for keys, _ in _readme_key_table() for key in keys]
    assert sorted(listed) == sorted(_KEYS)


def test_readme_key_table_defaults_match_serialized_defaults():
    # an omitted key is "none" in the table; a row of several keys lists one
    # default per key, or one "none" for all
    serialized = dict(line.split(" = ", 1) for line in serialize_config(RunConfig()).splitlines())

    def same(listed, want):
        try:
            return float(listed) == float(want)
        except ValueError:
            return listed == want

    for keys, cell in _readme_key_table():
        defaults = [v.strip() for v in cell.split(",")]
        if defaults == ["none"]:
            defaults *= len(keys)
        assert len(defaults) == len(keys), keys
        for key, listed in zip(keys, defaults):
            assert same(listed, serialized.get(key, "none")), (key, listed)


class TestRunSingle:
    def test_zero_load_zero_displacement(self):
        cfg = parse_config(
            "mesh.nx = 4\nmesh.ny = 4\nmaterial.b = 0\n"
            "thermal_bc.theta0 = 0\nthermal_bc.Q = 0\nmechanical_bc.top_uy = 0\n")
        result = run_single(cfg)
        assert result.report.converged
        assert abs(result.u.values).max() == 0.0

    def test_constant_theta_no_gradient_force(self):
        # a uniform temperature exerts no thermal body force
        cfg = parse_config("mesh.nx = 4\nmesh.ny = 4\n")
        result = run_single(cfg)
        assert abs(result.theta.values - 100.0).max() < 1e-10
        assert abs(result.u.values).max() < 1e-10


class TestUsableCores:
    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _usable_cores() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)   # undeterminable
        assert _usable_cores() == 1
