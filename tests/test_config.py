"""Config document parsing and validation."""

import math
from pathlib import Path

import pytest

from ottoqft.config import _KEYS, _MODE_KEYS, MODES, Axis, ConfigError, parse_config

FIG4A = """\
# second-kick-time sweep
mode = curve-tau2
omega1 = 1.0
omega2 = 3.0
tau1 = 0.0
lambda1 = 100.0
lambda2 = 1.0
tau2_start = 0.5
tau2_stop = 8.0
tau2_count = 16
output = out.csv
"""


class TestParse:
    def test_minimal_curve_config_echoes_values(self):
        spec = parse_config(FIG4A)
        assert spec.mode == "curve-tau2"
        assert (spec.omega1, spec.omega2, spec.tau1) == (1.0, 3.0, 0.0)
        assert (spec.lambda1, spec.lambda2) == (100.0, 1.0)
        assert spec.tau2_axis == Axis(start=0.5, stop=8.0, count=16)
        assert spec.output_path == "out.csv"

    def test_empty_document(self):
        with pytest.raises(ConfigError, match="^missing key: mode$"):
            parse_config("")

    def test_negative_coupling_names_key(self):
        text = FIG4A.replace("lambda1 = 100.0", "lambda1 = -3")
        with pytest.raises(ConfigError, match="lambda1"):
            parse_config(text)

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'lambda3'"):
            parse_config("mode = curve-tau2\nlambda3 = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key 'omega1'"):
            parse_config(FIG4A + "omega1 = 2.0\n")

    def test_empty_value_names_line_and_key(self):
        with pytest.raises(ConfigError, match="line 2: empty value for key 'omega1'"):
            parse_config("mode = curve-tau2\nomega1 =\n")

    def test_unparsable_number_names_line_and_key(self):
        text = FIG4A.replace("omega2 = 3.0", "omega2 = three")
        with pytest.raises(ConfigError, match="key 'omega2': cannot parse 'three'"):
            parse_config(text)

    def test_count_below_two_rejected(self):
        text = FIG4A.replace("tau2_count = 16", "tau2_count = 1")
        with pytest.raises(ConfigError, match="tau2_count"):
            parse_config(text)

    def test_reversed_axis_rejected(self):
        text = FIG4A.replace("tau2_stop = 8.0", "tau2_stop = 0.2")
        with pytest.raises(ConfigError, match="tau2_start"):
            parse_config(text)

    def test_second_kick_must_follow_first(self):
        text = FIG4A.replace("tau2_start = 0.5", "tau2_start = 0.0")
        with pytest.raises(ConfigError, match="tau2_start"):
            parse_config(text)

    def test_missing_required_key(self):
        text = FIG4A.replace("output = out.csv\n", "")
        with pytest.raises(ConfigError, match="^missing key: output$"):
            parse_config(text)

    def test_key_foreign_to_mode_rejected(self):
        with pytest.raises(ConfigError, match="not valid in mode"):
            parse_config("mode = verify\nomega1 = 1.0\n")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config("mode = spiral\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")


class TestOverrides:
    def test_set_overrides_file_value(self):
        spec = parse_config(FIG4A, ["lambda2=2.5", "output=elsewhere.csv"])
        assert spec.lambda2 == 2.5
        assert spec.output_path == "elsewhere.csv"

    def test_bad_override_reports_source(self):
        with pytest.raises(ConfigError, match="--set #1"):
            parse_config(FIG4A, ["lambda2=abc"])
        with pytest.raises(ConfigError, match="--set #2"):
            parse_config(FIG4A, ["lambda2=2.0", "nonsense"])

    def test_set_may_repeat_the_mode_but_not_change_it(self):
        assert parse_config(FIG4A, ["mode=curve-tau2"]) == parse_config(FIG4A)
        assert parse_config("", ["mode=verify", "seed=3"]).seed == 3
        with pytest.raises(ConfigError) as excinfo:
            parse_config(FIG4A, ["lambda2=2.0", "mode=grid-couplings"])
        assert str(excinfo.value) == "--set #2: key 'mode' must be 'curve-tau2', got 'grid-couplings'"

    def test_override_still_range_checked(self):
        with pytest.raises(ConfigError, match="omega1"):
            parse_config(FIG4A, ["omega1=-1"])


class TestVerifyAndPointModes:
    def test_verify_overrides_collected(self):
        spec = parse_config("mode = verify", ["seed=7", "cases=10", "tol_fock_p2=1e-5"])
        assert spec.seed == 7
        assert spec.cases == 10
        assert spec.tolerance_overrides == {"fock_p2": 1e-5}

    def test_seed_is_non_negative(self):
        assert parse_config("mode = verify", ["seed=0"]).seed == 0
        with pytest.raises(ConfigError) as excinfo:
            parse_config("mode = verify\nseed = -1\n")
        assert str(excinfo.value) == "line 2: key 'seed' out of range: must be >= 0"

    def test_unknown_tolerance_key_rejected(self):
        with pytest.raises(ConfigError, match="tol_bogus"):
            parse_config("mode = verify\ntol_bogus = 1e-5\n")

    def test_single_point_requires_geometry(self):
        with pytest.raises(ConfigError, match="^missing key: omega1$"):
            parse_config("mode = single-point")

    def test_single_point_full(self):
        spec = parse_config(
            "mode = single-point",
            ["omega1=1", "omega2=3", "tau1=0", "tau2=1.5", "lambda1=100", "lambda2=1",
             "initial_p=0.25"],
        )
        assert spec.initial_p == 0.25
        assert spec.tau2 == 1.5


def test_readme_key_table_matches_the_key_table():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("| Key | Type | Range | Modes |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, kind, requirement, modes = (cell.strip() for cell in line.strip("|").split("|"))
        rows[key.strip("`")] = kind, requirement, modes
    assert list(rows) == list(_KEYS)
    for key, (kind, *requirements) in _KEYS.items():
        assert rows[key][0] == kind.__name__
        if kind is not str:
            texts = ["finite"] * (kind is float) + [text for text, _ in requirements]
            assert rows[key][1] == ", ".join(texts)
        if key == "mode":
            assert rows[key][1] == "one of " + ", ".join(f"`{mode}`" for mode in MODES)
        else:
            assert rows[key][2] == ", ".join(
                f"`{mode}`" + " (optional)" * (key in optional)
                for mode, (required, optional) in _MODE_KEYS.items() if key in required + optional)


class TestAxis:
    def test_points_hit_endpoints(self):
        axis = Axis(start=0.5, stop=8.0, count=16)
        pts = list(axis.points())
        assert len(pts) == 16
        assert pts[0] == 0.5
        assert pts[-1] == 8.0
        assert all(b > a for a, b in zip(pts, pts[1:]))

    def test_span_beyond_the_float_range(self):
        # (stop - start) overflows: the points stay finite and evenly spaced
        assert list(Axis(start=-9e307, stop=9e307, count=3).points()) == [-9e307, 0.0, 9e307]
        pts = list(Axis(start=-1.7e308, stop=1.7e308, count=5).points())
        assert all(math.isfinite(x) for x in pts)
        steps = [b - a for a, b in zip(pts, pts[1:])]
        assert max(steps) - min(steps) <= 1e-15 * max(steps)

    def test_finite_step_is_start_plus_multiples(self):
        axis = Axis(start=0.05, stop=12.0, count=20000)
        step = (12.0 - 0.05) / 19999
        assert list(axis.points()) == [0.05 + i * step for i in range(19999)] + [12.0]
