"""End-to-end CLI checks: exit codes, payload shapes, deterministic output."""

import json
import math
import sys
import warnings

import numpy as np
import pytest

from gaussatlas.cli import main
from gaussatlas.phase_space import fock1_output_p

EB_CHANNEL = '{"X": [[0.6, 0.0], [0.0, 0.6]], "Y": [[4.0, 0.0], [0.0, 0.8]]}'
NCB_CHANNEL = '{"X": [[0.6, 0.0], [0.0, 0.6]], "Y": [[2.0, 0.0], [0.0, 3.0]]}'
CP_ONLY_CHANNEL = '{"X": [[1.0, 0.0], [0.0, 1.0]], "Y": [[1.0, 0.0], [0.0, 1.0]]}'
NON_CP_CHANNEL = '{"X": [[1.0, 0.0], [0.0, -1.0]], "Y": [[0.0, 0.0], [0.0, 0.0]]}'
UNIT_GAIN_CHANNEL = '{"X": [[1.0, 0.0], [0.0, 1.0]], "Y": [[3.0, 0.0], [0.0, 3.0]]}'
RANK1_HIGH_GAIN_CHANNEL = '{"X": [[10.0, 0.0], [0.0, 0.0]], "Y": [[1.0003, 0.0], [0.0, 5.0]]}'
# b = 2 beside a noise eigenvalue a past 1/eps, where mean - spread would cancel to 0
LOPSIDED_NOISE_CHANNEL = '{"X": [[0.5, 0], [0, 0.5]], "Y": [[1e17, 0], [0, 2]]}'
# the balancing squeeze of EB_CHANNEL, ln(a/b)/4 = ln(5)/4, as the CLI prints it
EB_CHANNEL_R0 = float(f"{0.25 * math.log(4.0 / 0.8):.12g}")


def _write(tmp_path, text, name="channel.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestClassify:
    def test_ncb_channel_payload(self, tmp_path, capsys):
        code = main(["classify", _write(tmp_path, NCB_CHANNEL)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["form"]["kind"] == "I"
        assert payload["form"]["kappa"] == 0.6
        assert payload["form"]["a"] == 3.0 and payload["form"]["b"] == 2.0
        assert payload["cp"] and payload["eb"] and payload["ncb"]
        assert payload["class"] == "ncb"
        assert payload["shifted_noise"] == [2.36, 1.36]
        assert np.array(payload["form"]["S"]).shape == (2, 2)

    def test_non_cp_pair_classifies_as_unphysical(self, tmp_path, capsys):
        code = main(["classify", _write(tmp_path, NON_CP_CHANNEL)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["form"]["kind"] == "II"
        assert not payload["cp"]
        assert payload["class"] == "unphysical"

    def test_lopsided_noise_keeps_small_eigenvalue(self, tmp_path, capsys):
        assert main(["classify", _write(tmp_path, LOPSIDED_NOISE_CHANNEL)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["form"]["a"] == 1e17 and payload["form"]["b"] == 2.0
        assert payload["cp"] and payload["eb"] and payload["ncb"]
        assert payload["class"] == "ncb"

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["classify", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_descriptor_is_usage_error(self, tmp_path, capsys):
        path = _write(tmp_path, '{"X": [[1, 0], [0, 1]]}')
        assert main(["classify", path]) == 2
        assert "invalid channel descriptor" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"X": {"a": 1}, "Y": [[1, 0], [0, 1]]}',
        '{"X": [[1, 0], [0, 1]], "Y": [[{"a": 1}, 0], [0, 1]]}',
    ])
    def test_object_valued_block_is_usage_error(self, tmp_path, text, capsys):
        assert main(["classify", _write(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid channel descriptor") and err.count("\n") == 1


class TestCheck:
    def test_oracles_agree_on_eb_channel(self, tmp_path, capsys):
        code = main(["check", _write(tmp_path, EB_CHANNEL)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["closed_form"] == {
            "cp": True, "eb": True, "ncb": False,
            "margins": payload["closed_form"]["margins"]}
        assert payload["oracles"]["ncb_gaussian"] is False
        assert payload["oracles"]["eb_tmsv"] is True
        assert payload["agree"] is True

    def test_unit_gain_adds_single_photon_oracle(self, tmp_path, capsys):
        code = main(["check", _write(tmp_path, UNIT_GAIN_CHANNEL)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracles"]["ncb_fock1"] is True
        assert payload["agree"] is True

    def test_rank_one_high_gain_oracle_agrees(self, tmp_path, capsys):
        code = main(["check", _write(tmp_path, RANK1_HIGH_GAIN_CHANNEL)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["closed_form"]["ncb"] is True
        assert payload["oracles"]["ncb_gaussian"] is True
        assert payload["agree"] is True
        assert code == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("text", [
        '{"X": [[1e8, 0], [0, 0]], "Y": [[1.5, 0], [0, 1.5]]}',
        '{"X": [[1e100, 0], [0, 0]], "Y": [[1.5, 0], [0, 1.5]]}',
        '{"X": [[1e150, 1e150], [1e150, 1e150]], "Y": [[1, 0], [0, 1]]}',
    ])
    def test_rank_one_large_norm_oracle_agrees(self, tmp_path, text, capsys):
        # NCB by lam_min(Y) >= 1; the oracle's supremum is lam_min(Y - 1) for
        # any singular X, however large its norm
        code = main(["check", _write(tmp_path, text)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["closed_form"]["ncb"] is True
        assert payload["oracles"]["ncb_gaussian"] is True
        assert payload["agree"] is True
        assert code == 0

    @pytest.mark.parametrize("y", ["[[1e200, 0], [0, 2]]", "[[5, 0], [0, 0]]"])
    def test_single_photon_test_out_of_range_is_usage_error(self, tmp_path, y, capsys):
        # unit gain reaches ncb_necessity_fock1: a ** 2 overflows for a = 1e200,
        # and b = 0 has no output P function; neither may end in a traceback
        text = f'{{"X": [[1, 0], [0, 1]], "Y": {y}}}'
        assert main(["check", _write(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: channel out of range")
        assert captured.err.count("\n") == 1

    def test_non_cp_skips_oracles(self, tmp_path, capsys):
        code = main(["check", _write(tmp_path, NON_CP_CHANNEL)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "note" in payload["oracles"]
        assert payload["agree"] is True  # verdict correctly flags non-CP


class TestSweep:
    ARGS = ["sweep", "--form", "I", "--kappa", "0.6", "--amin", "0.1",
            "--amax", "4", "--bmin", "0.1", "--bmax", "4", "--grid", "6"]

    def test_stdout_layout(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        blocks = out.split("\n\n")
        assert len(blocks) == 2
        records = blocks[0].splitlines()
        assert records[0] == "kind,kappa,a,b,class,cp_margin,eb_margin,ncb_margin"
        assert len(records) == 1 + 36
        curves = blocks[1].splitlines()
        assert curves[0] == "curve,a,b"
        assert len(curves) == 1 + 3 * 512
        assert {line.split(",")[0] for line in curves[1:]} == {"cp", "eb", "ncb"}

    def test_all_four_classes_present_for_attenuator(self, capsys):
        assert main(self.ARGS) == 0
        records = capsys.readouterr().out.split("\n\n")[0].splitlines()[1:]
        classes = {line.split(",")[4] for line in records}
        assert classes == {"unphysical", "cp_only", "eb_not_ncb", "ncb"}

    def test_unit_gain_has_no_unphysical_region(self, capsys):
        args = list(self.ARGS)
        args[args.index("0.6")] = "1.0"
        assert main(args) == 0
        records = capsys.readouterr().out.split("\n\n")[0].splitlines()[1:]
        assert all(line.split(",")[4] != "unphysical" for line in records)

    def test_reflection_has_no_cp_only_region(self, capsys):
        args = list(self.ARGS)
        args[args.index("I")] = "II"
        assert main(args) == 0
        records = capsys.readouterr().out.split("\n\n")[0].splitlines()[1:]
        assert all(line.split(",")[4] != "cp_only" for line in records)

    def test_output_files_and_summary(self, tmp_path, capsys):
        out = tmp_path / "regions.csv"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "wrote 36 records" in text
        assert "ncb:" in text and "unphysical:" in text
        curves = tmp_path / "regions_curves.csv"
        assert out.exists() and curves.exists()
        assert out.read_text().splitlines()[0].startswith("kind,")
        assert curves.read_text().splitlines()[0] == "curve,a,b"

    def test_deterministic_bytes(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == first

    def test_json_format(self, capsys):
        assert main(self.ARGS + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 36
        assert set(payload["curves"]) == {"cp", "eb", "ncb"}
        assert len(payload["curves"]["eb"]["a"]) == 512
        # curve points above a = 1 are finite; the JSON carries null for inf
        assert payload["records"][0]["class"] == "unphysical"

    def test_bad_ranges_and_grid(self, capsys):
        assert main(["sweep", "--amin", "2.0", "--amax", "1.0"]) == 2
        assert main(["sweep", "--amin", "-1.0"]) == 2
        assert main(["sweep", "--grid", "1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestOrbit:
    def test_trace_with_r0_header(self, tmp_path, capsys):
        code = main(["orbit", _write(tmp_path, EB_CHANNEL), "--grid", "11"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"# r0 = {EB_CHANNEL_R0:.12g}"
        assert lines[1] == "r,a_r,b_r,ncb"
        assert len(lines) == 2 + 11
        assert lines[2].split(",")[3] in ("true", "false")

    def test_trace_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "orbit.csv"
        code = main(["orbit", _write(tmp_path, EB_CHANNEL), "--grid", "11",
                     "--out", str(out)])
        assert code == 0
        assert "r0 = " in capsys.readouterr().out
        assert out.read_text().splitlines()[0] == "r,a_r,b_r,ncb"

    def test_json_trace(self, tmp_path, capsys):
        code = main(["orbit", _write(tmp_path, EB_CHANNEL), "--grid", "7",
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["r0"] == EB_CHANNEL_R0
        assert len(payload["trace"]) == 7
        assert {"r", "a_r", "b_r", "ncb"} <= set(payload["trace"][0])

    def test_non_eb_channel_fails(self, tmp_path, capsys):
        code = main(["orbit", _write(tmp_path, CP_ONLY_CHANNEL)])
        assert code == 1
        assert "not entanglement-breaking" in capsys.readouterr().err


class TestPfunc:
    def test_closed_form_samples(self, capsys):
        code = main(["pfunc", "--a", "3", "--b", "1.5", "--grid", "21"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "alpha1,alpha2,value"
        assert len(lines) == 1 + 21 * 21
        mid = 1 + 10 * 21 + 10  # origin row
        a1, a2, v = (float(x) for x in lines[mid].split(","))
        assert a1 == 0.0 and a2 == 0.0
        assert abs(v - fock1_output_p(3.0, 1.5, 0.0, 0.0)) < 1e-10

    def test_printed_variant_differs(self, capsys):
        base = ["--a", "3", "--b", "1.5", "--grid", "9", "--extent", "2"]
        assert main(["pfunc"] + base) == 0
        first = capsys.readouterr().out
        assert main(["pfunc"] + base + ["--variant", "printed"]) == 0
        assert capsys.readouterr().out != first

    def test_fft_variant_matches_closed_form(self, tmp_path):
        out = tmp_path / "p.json"
        code = main(["pfunc", "--a", "2", "--b", "2", "--variant", "fft",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        axis = np.array(payload["alpha_axis"], dtype=float)
        values = np.array(payload["values"], dtype=float)
        a1, a2 = np.meshgrid(axis, axis, indexing="ij")
        ref = fock1_output_p(2.0, 2.0, a1, a2)
        assert np.abs(values - ref).max() < 1e-6

    def test_fft_refuses_cramped_grid(self, capsys):
        with pytest.warns(RuntimeWarning):
            code = main(["pfunc", "--a", "2", "--b", "2", "--variant", "fft",
                         "--grid", "65", "--extent", "3"])
        assert code == 1
        assert "transform refused" in capsys.readouterr().err

    def test_fft_refuses_overflowing_order_conversion(self, capsys):
        # exp(extent^2 / 2) of the P-order factor overflows at the grid corners
        with pytest.warns(RuntimeWarning) as record:
            code = main(["pfunc", "--a", "2", "--b", "2", "--variant", "fft",
                         "--grid", "9", "--extent", "40"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "transform refused" in captured.err
        # the cure for an overflow is a smaller extent, not a larger one
        assert "not finite" in captured.err and "reduce the grid extent" in captured.err
        assert "enlarge" not in captured.err
        # only the library's own boundary warning, no numpy overflow or invalid value
        assert all("order conversion" in str(w.message) for w in record)

    def test_usage_errors(self, capsys):
        assert main(["pfunc", "--a", "0", "--b", "2"]) == 2
        assert main(["pfunc", "--a", "2", "--b", "2", "--grid", "1"]) == 2
        # fft needs an odd grid side
        assert main(["pfunc", "--a", "2", "--b", "2", "--variant", "fft",
                     "--grid", "64"]) == 2
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_named_suite_passes(self, capsys):
        code = main(["verify", "fock"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS ")
        assert "1/1 checks passed" in out

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "everything"])


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


class TestSweepValidation:
    BASE = ["sweep", "--grid", "3"]

    @pytest.mark.parametrize("option", ["--kappa", "--amin", "--amax", "--bmin", "--bmax"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_inputs_are_usage_errors(self, option, value, capsys):
        assert main(self.BASE + [f"{option}={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err

    @pytest.mark.parametrize("form", ["I", "II"])
    def test_kappa_with_overflowing_bounds_is_usage_error(self, form, capsys):
        assert main(self.BASE + ["--form", form, "--kappa", "1e80"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflow" in err

    def test_largest_kappa_with_finite_bounds_is_accepted(self, capsys):
        # kappa^4 and (1 + kappa^2)^2 are about 1e308, just below the double
        # limit; the curves and margins that pass it are inf, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(self.BASE + ["--kappa", "1e77"]) == 0
        capsys.readouterr()


class TestHugeGain:
    @pytest.mark.parametrize("scale", ["1e80", "1e160", "1.7e308"])
    @pytest.mark.parametrize("command", ["classify", "check", "orbit"])
    def test_overflowing_gain_is_usage_error(self, tmp_path, command, scale, capsys):
        # 1e80 overflows the closed-form bounds, 1e160 already det X, and
        # 1.7e308 is near the largest double
        text = f'{{"X": [[{scale}, 0], [0, {scale}]], "Y": [[1, 0], [0, 1]]}}'
        assert main([command, _write(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: channel out of range") and err.count("\n") == 1

    @pytest.mark.parametrize("x", ["[[1e160, 1e160], [1e160, 1e160]]", "[[1e200, 0], [0, 0]]"])
    @pytest.mark.parametrize("command", ["classify", "check", "orbit"])
    def test_overflowing_rank_one_gain_is_usage_error(self, tmp_path, command, x, capsys):
        # kappa^2 passes the largest double, rotated or on the axes
        text = f'{{"X": {x}, "Y": [[1, 0], [0, 1]]}}'
        assert main([command, _write(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: channel out of range") and err.count("\n") == 1
        assert "the gain is out of range" in err

    def test_large_finite_gain_still_classifies(self, tmp_path, capsys):
        text = '{"X": [[1e20, 0], [0, 1e20]], "Y": [[1, 0], [0, 1]]}'
        assert main(["classify", _write(tmp_path, text)]) == 0
        form = json.loads(capsys.readouterr().out)["form"]
        assert form["kind"] == "I" and form["kappa"] == 1e20


class TestHugeNoise:
    @pytest.mark.parametrize("command", ["classify", "check", "orbit"])
    def test_overflowing_noise_is_usage_error(self, tmp_path, command, capsys):
        # the noise eigenvalue 2e308 is past the largest double
        text = '{"X": [[1, 0], [0, 1]], "Y": [[1e308, 1e308], [1e308, 1e308]]}'
        assert main([command, _write(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: channel out of range") and err.count("\n") == 1


class TestOrbitReduction:
    def test_one_reduction_per_call(self, tmp_path, monkeypatch, capsys):
        import gaussatlas.channels

        calls = []
        original = gaussatlas.channels.canonical_reduce

        def counting(ch):
            calls.append(ch)
            return original(ch)

        # rebind every gaussatlas namespace that imported the function
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "gaussatlas" and \
                    getattr(module, "canonical_reduce", None) is original:
                monkeypatch.setattr(module, "canonical_reduce", counting)
        assert main(["orbit", _write(tmp_path, EB_CHANNEL), "--grid", "5"]) == 0
        capsys.readouterr()
        assert len(calls) == 1


class TestTolValidation:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("command", ["classify", "check", "sweep", "orbit"])
    def test_bad_tol_is_usage_error(self, tmp_path, command, value, capsys):
        args = [command] + (["--grid", "3"] if command == "sweep"
                            else [_write(tmp_path, EB_CHANNEL)])
        assert main(args + [f"--tol={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --tol") and err.count("\n") == 1

    def test_zero_tol_is_accepted(self, tmp_path, capsys):
        assert main(["check", _write(tmp_path, EB_CHANNEL), "--tol", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["agree"] is True


class TestPfuncValidation:
    @pytest.mark.parametrize("variant", ["rederived", "printed", "fft"])
    @pytest.mark.parametrize("option", ["--a", "--b", "--extent"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
    def test_nonfinite_or_nonpositive_input_is_usage_error(self, variant, option,
                                                           value, capsys):
        args = {"--a": "2", "--b": "2", "--extent": "4", option: value}
        argv = ["pfunc", "--variant", variant, "--grid", "9"]
        argv += [f"{k}={v}" for k, v in args.items()]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("extent", ["1e300", "1e155"])
    def test_fft_extent_with_overflowing_squared_radius_is_usage_error(self, extent,
                                                                      capsys):
        assert main(["pfunc", "--variant", "fft", "--a", "2", "--b", "2",
                     "--grid", "9", "--extent", extent]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "extent" in err

    @pytest.mark.parametrize("a, b, grid, extent", [
        ("2", "2", "5", "1e200"),  # alpha^2 overflows: 0 * inf
        ("1e-200", "2", "3", "1"),  # a^2 underflows: 0 / 0
        ("1e200", "2", "3", "1"),  # a^2 overflows a Python float
    ])
    @pytest.mark.parametrize("variant", ["rederived", "printed"])
    def test_closed_form_beyond_double_range_is_usage_error(self, variant, a, b, grid,
                                                            extent, capsys):
        assert main(["pfunc", "--variant", variant, "--a", a, "--b", b, "--grid", grid,
                     "--extent", extent]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestOrbitValidation:
    @pytest.mark.parametrize("option", ["--rmin", "--rmax"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_range_is_usage_error(self, tmp_path, option, value, capsys):
        argv = ["orbit", _write(tmp_path, EB_CHANNEL), "--grid", "3", f"{option}={value}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "finite" in captured.err

    @pytest.mark.parametrize("option", ["--rmin", "--rmax"])
    @pytest.mark.parametrize("value", ["-400", "400", "1e300"])
    def test_overflowing_range_is_usage_error(self, tmp_path, option, value, capsys):
        # e^(2 |r|) overflows a double from |r| of about 355 on
        argv = ["orbit", _write(tmp_path, EB_CHANNEL), "--grid", "2", f"{option}={value}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "overflow" in captured.err

    @pytest.mark.parametrize("grid", ["0", "-2"])
    def test_grid_below_one_is_usage_error(self, tmp_path, grid, capsys):
        assert main(["orbit", _write(tmp_path, EB_CHANNEL), f"--grid={grid}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_single_point_trace(self, tmp_path, capsys):
        assert main(["orbit", _write(tmp_path, EB_CHANNEL), "--grid", "1",
                     "--rmin", "0.5", "--rmax", "0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "r,a_r,b_r,ncb"
        assert len(lines) == 3 and lines[2].startswith("0.5,")
