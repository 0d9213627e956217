import json
import math
from pathlib import Path

import jsonschema
import pytest

from nonauto import cli
from nonauto.cli import main, parse_model, parse_sequence, parse_z
from nonauto.green import Disk, Ellipse, Segment
from nonauto.sequences import check_finite_condition, escape_radius_search, load_sequence_file

SCHEMA = json.loads((Path(__file__).parent.parent / "docs" / "check_report.schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsers:
    def test_sequence_names(self):
        assert parse_sequence("minimal-chebyshev").kind == "minimal_chebyshev"
        assert parse_sequence("power:3").get(1).degree == 3
        assert parse_sequence("classical-chebyshev:2,3").get(2).degree == 3

    def test_unknown_sequence(self):
        with pytest.raises(ValueError):
            parse_sequence("mystery")

    def test_models(self):
        assert parse_model("disk:0,1") == Disk(0j, 1.0)
        assert parse_model("disk:1,2,0.5") == Disk(1 + 2j, 0.5)
        assert parse_model("segment") == Segment()
        assert parse_model("ellipse:2") == Ellipse(2.0)
        with pytest.raises(ValueError):
            parse_model("square:1")

    def test_points(self):
        assert parse_z("1.25") == 1.25
        assert parse_z("0,0.8") == 0.8j


class TestPointCommands:
    def test_green_segment(self, capsys):
        code, out, _ = run(capsys, "green", "--model", "segment", "--z", "1.25")
        assert code == 0 and out.strip() == "0.693147"

    def test_green_segment_json(self, capsys):
        code, out, _ = run(capsys, "green", "--model", "segment", "--z", "1.25", "--json")
        assert code == 0
        assert json.loads(out) == {"value": Segment().green(1.25), "z": [1.25, 0.0]}

    def test_capacity_disk_json(self, capsys):
        code, out, _ = run(capsys, "capacity", "--model", "disk:1,2,3", "--json")
        assert code == 0
        assert json.loads(out) == {"value": 3.0, "gamma": -math.log(3.0)}

    @pytest.mark.parametrize("argv", [("--radii", "0,1"), ("--radii=-2,1",)])
    def test_capacity_takes_no_probe_radii(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "capacity", "--model", "disk", *argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --radii" in capsys.readouterr().err

    def test_capacity_ellipse(self, capsys):
        code, out, _ = run(capsys, "capacity", "--model", "ellipse:2")
        assert code == 0 and out.strip() == "1.000000"

    def test_gamma_disks(self, capsys):
        code, out, _ = run(capsys, "gamma", "--a", "disk:0,1", "--b", "disk:0,4")
        assert code == 0 and out.strip() == "1.386294"

    def test_green_sequence_json(self, capsys):
        code, out, _ = run(capsys, "green", "--seq", "power:2", "--z", "3", "--n", "8",
                           "--radius", "3.0", "--json")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value"] - math.log(3)) < 1e-9
        assert not doc["truncation_included"]

    def test_green_json_without_a_bound_is_strict_json(self, capsys):
        # z = 1 lands on the zero of z**2 - 1, where no relative bound exists
        code, out, _ = run(capsys, "green", "--seq", "z2-minus-1-then-n-exp-z2", "--z", "1",
                           "--n", "8", "--json")
        assert code == 0
        doc = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-JSON {name}"))
        assert doc["value"] == 0.0 and doc["error_bound"] is None

    @pytest.mark.parametrize("argv, message", [
        (("--model", "disk:0,1", "--seq", "power", "--n", "3"), "need exactly one of"),
        ((), "need exactly one of"), (("--model", ""), "unknown model ''")],
        ids=["both", "neither", "empty model"])
    def test_green_needs_exactly_one_source(self, capsys, argv, message):
        # with both, --seq and --n were dropped silently; an empty --model fell
        # through to the --seq branch and raised AttributeError
        code, out, err = run(capsys, "green", "--z", "2", *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("argv, flags", [
        (("--tail-bound", "5", "--n", "7", "--radius", "3"), "--n, --radius, --tail-bound"),
        (("--radius", "nan"), "--radius")], ids=["three", "nan radius"])
    def test_green_model_refuses_sequence_flags(self, capsys, argv, flags):
        # both exited 0 and printed 1.316958, the flags silently unused
        code, out, err = run(capsys, "green", "--model", "segment", "--z", "2", *argv)
        assert code == 2 and out == ""
        assert err == f"error: only --seq takes {flags}\n"

    def test_green_sequence_depth_defaults_to_64(self, capsys):
        code, out, _ = run(capsys, "green", "--seq", "power:2", "--z", "0.5", "--json")
        assert code == 0 and json.loads(out)["n"] == 64

    def test_green_sequence_json_reports_the_depth_asked_for(self, capsys):
        code, out, _ = run(capsys, "green", "--seq", "power", "--z", "2", "--n", "7", "--json")
        assert code == 0 and json.loads(out)["n"] == 7

    def test_green_without_a_verified_radius_exits_3(self, capsys):
        code, out, err = run(capsys, "green", "--seq", "two-pow-neg-n-sq", "--z", "1",
                             "--n", "40")
        assert code == 3 and out == ""
        assert err.startswith("check failed: no escape radius below ")

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "gamma", "--a", "disk:0,1", "--b", "segment", "--json")
        _, out2, _ = run(capsys, "gamma", "--a", "disk:0,1", "--b", "segment", "--json")
        assert out1 == out2


class TestCheckCommand:
    def test_guided_pass(self, capsys):
        code, out, _ = run(capsys, "check", "--seq", "power:3", "--which", "guided",
                           "--R", "2", "--n-max", "20")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["passed"]

    def test_guided_fail(self, capsys):
        code, out, _ = run(capsys, "check", "--seq", "two-pow-neg-n-sq", "--which",
                           "guided", "--R", "2", "--n-max", "10")
        assert code == 3
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["witness"]["n"] == 2

    def test_p2_fail_schema(self, capsys):
        code, out, _ = run(capsys, "check", "--seq", "minimal-chebyshev", "--which", "p2",
                           "--A", "10", "--n-max", "60")
        assert code == 3
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["witness"]["value"] >= 41 / 4

    def test_finite_fail(self, capsys):
        code, out, _ = run(capsys, "check", "--seq", "n-pow-n", "--which", "finite",
                           "--n-max", "60")
        assert code == 3
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)

    def test_finite_values_past_double_range_exit_2(self, capsys):
        # 4**600 overflows even on rescaled coefficients; its NaN sup was read as 0 (passed)
        code, out, err = run(capsys, "check", "--seq", "power:600", "--which", "finite",
                             "--disk-radius", "4", "--n-max", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "overflow" in err and "Traceback" not in err

    def test_escape(self, capsys):
        code, out, _ = run(capsys, "check", "--seq", "minimal-chebyshev", "--which",
                           "escape", "--n-max", "40")
        assert code == 0
        assert json.loads(out)["radius"] <= 4.0

    @pytest.mark.parametrize("seq, want, key", [("minimal-chebyshev", 0, "radius"),
                                                ("two-pow-neg-n-sq", 3, "error")])
    def test_escape_outcomes_match_the_schema(self, capsys, seq, want, key):
        code, out, _ = run(capsys, "check", "--seq", seq, "--which", "escape", "--n-max", "40")
        assert code == want
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["passed"] == (want == 0) and key in doc

    def test_guided_zeros_outside_the_disk(self, capsys, tmp_path):
        spec = tmp_path / "seq.json"
        spec.write_text(json.dumps({"polynomials": [[[0, 0], [0, 0], [1, 0]],
                                                    [[0, 0], [0, 0], [-3, 0], [1, 0]]],
                                    "repeat": "none"}))
        code, out, _ = run(capsys, "check", "--seq", f"custom:{spec}", "--which", "guided",
                           "--R", "2", "--n-max", "2")
        assert code == 3
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["note"] == "zeros not contained in the disk"
        assert doc["witness"] == {"n": 2, "point": None, "value": 4.0}

    def test_finite_n_max_zero_exits_2(self, capsys):
        code, out, err = run(capsys, "check", "--seq", "power", "--which", "finite",
                             "--n-max", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "n_max must be >= 1" in err

    @pytest.mark.parametrize("which, flags", [
        ("p2", ("--R", "5")),
        ("escape", ("--R", "9", "--disk-radius", "3")),
        ("guided", ("--A", "2")),
        ("guided", ("--center", "1")),
        ("finite", ("--R", "3")),
        ("p2", ("--disk-radius", "2")),
        ("escape", ("--A", "1", "--center", "0")),
    ])
    def test_flags_the_checker_does_not_read_exit_2(self, capsys, which, flags):
        # --R with --which p2 was accepted and ignored
        code, out, err = run(capsys, "check", "--seq", "power", "--which", which, *flags,
                             "--n-max", "3")
        assert code == 2 and out == ""
        assert err == f"error: --which {which} does not take {', '.join(flags[::2])}\n"

    @pytest.mark.parametrize("which, defaults", [
        ("guided", ("--R", "2")),
        ("p2", ("--A", "1")),
        ("finite", ("--center", "0", "--disk-radius", "2")),
    ])
    def test_defaults_given_explicitly_change_nothing(self, capsys, which, defaults):
        argv = ("check", "--seq", "power:3", "--which", which, "--n-max", "5")
        assert run(capsys, *argv, *defaults) == run(capsys, *argv)

    @pytest.mark.parametrize("which", ["guided", "p2", "finite", "escape"])
    def test_m_is_not_an_option(self, capsys, which):
        # --m set the circle or grid samples; every checker now takes one count
        with pytest.raises(SystemExit) as exc:
            main(["check", "--seq", "power", "--which", which, "--m", "64", "--n-max", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --m 64" in capsys.readouterr().err

    def test_escape_prints_the_radius_render_uses(self, capsys, tmp_path):
        # check --which escape sampled 1024 points a circle and render's search 512
        spec = tmp_path / "cycle.json"
        spec.write_text(json.dumps({"polynomials": [
            [[-0.12, 0.35], [0, 0], [1, 0]], [[0.05, -0.2], [0.15, 0.1], [0, 0], [1, 0]],
            [[0.1, 0.1], [0, 0], [-0.2, 0.05], [0, 0], [1, 0]]], "repeat": "cycle"}))
        code, out, _ = run(capsys, "check", "--seq", f"custom:{spec}", "--which", "escape",
                           "--n-max", "1000")
        seq = load_sequence_file(spec)
        assert code == 0
        assert json.loads(out)["radius"] == escape_radius_search(seq, 1000) == \
            cli._resolve_radius(seq, None, 1000)

    @pytest.mark.parametrize("seq, n_max, sup", [("classical-chebyshev", 2, 1.0903080525782654),
                                                 ("n-pow-n", 16, None)])
    def test_finite_prints_the_table_warning_report(self, capsys, seq, n_max, sup):
        # check --which finite sampled a 32 x 32 grid (classical n_max = 2: sup 1.0711),
        # table's warning the 64 x 64 grid that _GROWTH was set on
        code, out, _ = run(capsys, "check", "--seq", seq, "--which", "finite",
                           "--n-max", str(n_max))
        report = check_finite_condition(parse_sequence(seq), 0j, 2.0, n_max)
        doc = json.loads(out)
        assert code == (0 if report.passed else 3)
        assert (doc["passed"], doc["margin"], doc["sup"], doc["note"]) == (
            report.passed, report.margin, report.sup, report.note)
        assert sup is None or doc["sup"] == sup

    def test_fixed_kind_with_degrees_exits_2(self, capsys):
        # n-exp-z2 has no degree 7; the argument was echoed and ignored
        code, out, err = run(capsys, "check", "--seq", "n-exp-z2:7", "--which", "p2",
                             "--n-max", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "takes no degrees" in err


class TestTableCommand:
    def test_minimal_chebyshev_caps(self, capsys):
        code, out, _ = run(capsys, "table", "--seq", "minimal-chebyshev",
                           "--n-list", "1,2,3,4,5,6,7,8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,logD,gamma,cap"
        last_cap = float(lines[-1].split(",")[3])
        assert abs(last_cap - 1.0) <= 1e-3

    def test_power_gammas_zero(self, capsys):
        code, out, _ = run(capsys, "table", "--seq", "power:2", "--n-list", "1,2,3")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[2]) < 1e-9

    @pytest.mark.parametrize("n_list", ["0", "-1"])
    def test_depth_below_one_exits_2(self, capsys, n_list):
        # rows for n = 0 and n = -1 were printed from unstepped points
        code, out, err = run(capsys, "table", "--seq", "power", "--n-list", n_list)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "n_steps must be >= 1" in err

    def test_out_writes_the_printed_table(self, capsys, tmp_path):
        argv = ("table", "--seq", "power:2", "--n-list", "1,2", "--samples", "64")
        code, printed, _ = run(capsys, *argv)
        path = tmp_path / "table.csv"
        code_out, out, _ = run(capsys, *argv, "--out", str(path))
        assert code == code_out == 0 and out == f"{path}\n"
        assert path.read_text() == printed and printed.startswith("n,logD,gamma,cap\n")

    def test_unbounded_family_withholds_capacity(self, capsys):
        # the warning stays; the column, exact at finite n, is printed anyway
        code, out, err = run(capsys, "table", "--seq", "n-pow-n", "--n-list", "1,2,3")
        assert code == 0
        assert "warning: normalized potentials look unbounded" in err
        assert "withheld" not in err
        for n, line in enumerate(out.strip().splitlines()[1:], start=1):
            robin = sum(k * math.log(k) / math.factorial(k) for k in range(1, n + 1))
            assert abs(float(line.split(",")[3]) - math.exp(-robin)) <= 1e-15

    @pytest.mark.parametrize("name", ["minimal-chebyshev", "power", "z2-minus-2-then-powers",
                                      "classical-chebyshev"])
    def test_regular_family_at_depth_one_does_not_warn(self, capsys, name):
        # the warning samples at least 16 maps: p_1 and p_2 alone looked unbounded.
        # (1/n) log+|T_n| on disk(0, 2) stays below 1.44 but still rises at n = 16,
        # which a 1e-9 slack on the last decade's growth flagged
        code, out, err = run(capsys, "table", "--seq", name, "--n-list", "1", "--samples", "64")
        assert code == 0 and err == "" and out.startswith("n,logD,gamma,cap\n1,")

    @pytest.mark.parametrize("radius", [(), ("--radius", "3")])
    def test_finite_custom_sequence(self, capsys, tmp_path, radius):
        # the regularity warning samples no further than the list goes
        path = tmp_path / "four.json"
        path.write_text(json.dumps({"polynomials": [
            [[0.1, 0], [0, 0], [1, 0]], [[0, 0.1], [0, 0], [1, 0]],
            [[0.1, 0], [0, 0], [1, 0]], [[0, 0], [0, 0], [1, 0]]], "repeat": "none"}))
        code, out, err = run(capsys, "table", "--seq", f"custom:{path}", "--n-list", "1,2",
                             *radius)
        assert code == 0 and err == ""
        assert [line.split(",")[3] for line in out.strip().splitlines()[1:]] == ["1.0", "1.0"]

    def test_capacity_past_double_range_prints_inf(self, capsys, tmp_path):
        # p_1 = 1e-320 z, then z**2: P_n^{-1}(D) has capacity 1e320, past double range
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"polynomials": [[[0, 0], [1e-320, 0]]]
                                    + 19 * [[[0, 0], [0, 0], [1, 0]]], "repeat": "none"}))
        code, out, _ = run(capsys, "table", "--seq", f"custom:{path}", "--n-list", "1,2")
        assert code == 0
        assert [line.split(",")[3] for line in out.strip().splitlines()[1:]] == ["inf", "inf"]


class TestRenderCommand:
    def test_membership_png(self, capsys, tmp_path):
        out_path = tmp_path / "disk.png"
        code, out, err = run(capsys, "render", "--seq", "power:2", "--n", "30",
                             "--window=-2,2,-2,2", "--size", "40x40",
                             "--mode", "membership", "--out", str(out_path))
        assert code == 0
        assert out_path.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"
        assert "escape radius" in err

    def test_invalid_custom_sequence_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "polynomials": [[[0, 0], [0, 0], [1, 0]], [[0, 0], [1, 0]]],
            "repeat": "none"}))
        code, _, err = run(capsys, "render", "--seq", f"custom:{bad}", "--n", "2",
                           "--out", str(tmp_path / "x.png"))
        assert code == 2
        assert "degree" in err

    @pytest.mark.parametrize("text", [
        '{"polynomials": [[1, 2]]}',
        '{"polynomials": 5}',
        '{"polynomials": [[[0, 0], [0, 0], ["1", 0]]]}',
        '{"polynomials": [[[0, 0], [0, 0], [1, 0, 0]]]}',
        '{"polynomials": [[[0, 0], [0, 0], [1, 0]]], "repeat": null}',
        '{"polynomials": [[[0, 0], [0, 0], [1, 0]]',
    ])
    def test_malformed_custom_json_exits_2(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = run(capsys, "green", "--seq", f"custom:{bad}", "--z", "0.1", "--n", "5")
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_coefficient_with_modulus_past_double_range(self, capsys, tmp_path):
        # 1.5e308 (1 + 1j): finite parts, modulus 2.1e308, which abs() cannot hold
        doc = tmp_path / "big.json"
        doc.write_text('{"polynomials": [[[0,0],[0,0],[1.5e308,1.5e308]]]}')
        code, out, err = run(capsys, "green", "--seq", f"custom:{doc}", "--z", "2", "--n", "3")
        assert code == 0 and "Traceback" not in err
        value = float(out.split()[0])
        # log|w_3| / 8 with log|w_k| = log|c| + 2 log|w_(k-1)| and w_0 = 2
        log_c = math.log(1.5e308) + 0.5 * math.log(2)
        assert abs(value - (7 * log_c + 8 * math.log(2)) / 8) <= 1e-6  # printed to 6 places

    def test_threads_identical_output(self, capsys, tmp_path):
        paths = []
        for threads, name in ((1, "a.pgm"), (4, "b.pgm")):
            out_path = tmp_path / name
            code, _, _ = run(capsys, "--threads", str(threads), "render", "--seq",
                             "minimal-chebyshev", "--n", "30", "--size", "64x48",
                             "--mode", "green", "--format", "pgm", "--out", str(out_path))
            assert code == 0
            paths.append(out_path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (("render", "--seq", "power", "--n", "3", "--size", "4x4", "--radius", "inf"),
         "escape radius must be positive and finite"),
        (("render", "--seq", "power", "--n", "0", "--size", "4x4"), "n_steps must be >= 1"),
        (("--threads", "-1", "render", "--seq", "power", "--n", "3", "--size", "4x4"),
         "threads must be >= 0"),
    ], ids=["radius-inf", "n-0", "threads--1"])
    def test_bad_render_input_exits_2(self, capsys, tmp_path, argv, message):
        # --radius inf marked every pixel bounded
        out_path = tmp_path / "x.png"
        code, out, err = run(capsys, *argv, "--out", str(out_path))
        assert code == 2 and out == "" and not out_path.exists()
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_custom_coefficient_exits_2(self, capsys, tmp_path, value):
        # Python's json reads these words as floats
        doc = tmp_path / "inf.json"
        doc.write_text(f'{{"polynomials": [[[0, 0], [{value}, 0], [1, 0]]]}}')
        code, out, err = run(capsys, "green", "--seq", f"custom:{doc}", "--z", "0.1", "--n", "5")
        assert code == 2 and out == ""
        assert err == "error: polynomial 1, coefficient 1 is not finite\n"

    def test_io_failure_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "render", "--seq", "power:2", "--n", "5",
                           "--size", "8x8", "--out", str(tmp_path / "no" / "dir.png"))
        assert code == 1


class TestMalformedInput:
    """Malformed sequence, model and point syntax exits 2 with a message."""

    @pytest.mark.parametrize("argv, message", [
        (("check", "--seq", "custom", "--which", "p2"), "custom sequence needs a JSON path"),
        (("check", "--seq", "custom:", "--which", "p2"), "custom sequence needs a JSON path"),
        (("table", "--seq", "power", "--E", "disk:1,2,3,4", "--n-list", "1"), "disk syntax"),
        (("gamma", "--a", "disk:1", "--b", "segment"), "disk syntax"),
        (("gamma", "--a", "ellipse", "--b", "segment"), "ellipse syntax"),
        (("green", "--model", "segment", "--z", "1,2,3"), "point syntax"),
        (("green", "--seq", "power", "--z", "0.1,0.2,0.3", "--n", "3"), "point syntax"),
        # exited 2 with "not enough values to unpack (expected 4, got 3)"
        (("render", "--seq", "power", "--window", "1,2,3", "--size", "4x4"),
         "window syntax: x0,x1,y0,y1"),
        # exited 2 with "invalid literal for int() with base 10: ''"
        (("render", "--seq", "power", "--size", "10x"), "size syntax: WIDTHxHEIGHT"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_exits_2_with_a_message(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err and "Traceback" not in err


class TestNonFiniteInput:
    """Non-finite points, model parameters, escape radii, tail bounds and checker
    bounds, model sets too large for a net, and sizes below 1, exit 2 with a message."""

    @pytest.mark.parametrize("argv, word", [
        (("table", "--seq", "power", "--E", "disk:nan,1", "--n-list", "1"), "disk center"),
        (("table", "--seq", "power", "--E", "ellipse:inf", "--n-list", "1"), "ellipse"),
        (("green", "--model", "disk:nan,1", "--z", "2"), "disk center"),
        (("green", "--model", "disk:inf,1", "--z", "2"), "disk center"),
        (("green", "--model", "disk:0,inf", "--z", "2"), "disk radius"),
        (("green", "--model", "disk:1.5e308,1.5e308,1", "--z", "1.5e154"), "disk center"),
        (("gamma", "--a", "disk:nan,1", "--b", "segment"), "disk center"),
        # printed {"lower": NaN, ...}, not JSON, and exited 0: the fill net overflowed
        (("gamma", "--a", "disk:0,1", "--b", "disk:0,9e307", "--json"), "enclosing radius"),
        (("green", "--seq", "power", "--z", "2", "--n", "3", "--radius", "nan"), "escape radius"),
        (("green", "--seq", "power", "--z", "1", "--n", "3", "--radius", "inf", "--json"),
         "escape radius"),
        (("green", "--seq", "power", "--z", "2", "--n", "3", "--tail-bound", "nan"), "tail bound"),
        (("green", "--seq", "power", "--z", "2", "--n", "3", "--tail-bound", "-1"), "tail bound"),
        (("green", "--seq", "power", "--z", "2", "--n", "3", "--tail-bound", "inf"), "tail bound"),
        # printed 0.000000 and exited 0: a nan point read as a point of the segment
        (("green", "--model", "segment", "--z", "nan"), "point must be finite"),
        (("green", "--model", "ellipse:2", "--z", "0,nan"), "point must be finite"),
        (("green", "--seq", "power", "--z", "inf", "--n", "3"), "point must be finite"),
        (("check", "--seq", "power", "--which", "finite", "--center", "nan", "--n-max", "3"),
         "point must be finite"),
        # exited 2, blaming a Horner overflow
        (("check", "--seq", "power", "--which", "guided", "--R", "nan", "--n-max", "3"),
         "R must exceed 1 and be finite"),
        (("check", "--seq", "power", "--which", "guided", "--R", "inf", "--n-max", "3"),
         "R must exceed 1 and be finite"),
        # printed "margin": NaN or Infinity, not JSON, and exited 3
        (("check", "--seq", "power", "--which", "p2", "--A", "nan", "--n-max", "3"),
         "A must be >= 0 and finite"),
        (("check", "--seq", "power", "--which", "p2", "--A", "inf", "--n-max", "3"),
         "A must be >= 0 and finite"),
        # exited 2 with numpy's zero-size reduction message
        (("check", "--seq", "power", "--which", "finite", "--disk-radius", "nan", "--n-max", "3"),
         "disk radius must be positive and finite"),
        # printed 0.149036, where m = 1024 gives log 1.25 = 0.223144
        (("gamma", "--a", "disk:0,1", "--b", "ellipse:2", "--m", "-5"), "m must be >= 1"),
        # printed a row with gamma 0.0 and exited 0
        (("table", "--seq", "power", "--n-list", "1", "--samples", "0"), "samples must be >= 1"),
        # exited 2 with "isqrt() argument must be nonnegative"
        (("table", "--seq", "power", "--n-list", "1", "--samples", "-5"), "samples must be >= 1"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_exits_2_with_a_message(self, capsys, argv, word):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and word in err and "Traceback" not in err
