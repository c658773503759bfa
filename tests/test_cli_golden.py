"""Golden bytes of the `sweep` and `pfunc` writers.

Every expected output here is rebuilt point by point from a longhand
restatement: the closed-form table evaluated one grid point at a time,
each field printed with ``f"{v:.12g}"``, and the JSON made by
``json.dumps(..., indent=2)`` over one dict per record with floats
rounded to 12 significant digits and non-finite values as null.  The
CLI must reproduce those bytes exactly, on stdout and in its files.
"""

import json
import math

import numpy as np
import pytest

from gaussatlas import Channel, GridSpec, act_chargrid, char_fock1, convert_order, quasi_from_char
from gaussatlas.cli import main
from gaussatlas.phase_space import fock1_output_p

LABELS = ("unphysical", "cp_only", "eb_not_ncb", "ncb")
KIND_VALUE = {"I": "I", "II": "II", "III": "III_rank1"}

SWEEPS = {
    "kind_I": ["--form", "I", "--kappa", "0.6", "--amin", "0.1", "--amax", "4",
               "--bmin", "0.1", "--bmax", "4", "--grid", "7"],
    "kind_II": ["--form", "II", "--kappa", "1.3", "--amin", "0.2", "--amax", "9",
                "--bmin", "0.3", "--bmax", "8", "--grid", "6"],
    "kind_III": ["--form", "III", "--kappa", "0.7", "--amin", "0.05", "--amax", "3",
                 "--bmin", "0.05", "--bmax", "3", "--grid", "5"],
    # margins of -5e-4 and -2.5e-4 pass at tol 1e-3 and fail at the default 1e-6
    "tol": ["--form", "I", "--kappa", "1.0", "--amin", "1.9995", "--amax", "2.0005",
            "--bmin", "1.9995", "--bmax", "2.0005", "--grid", "5", "--tol", "1e-3"],
    "grid_2": ["--form", "II", "--kappa", "0.3", "--amin", "0.5", "--amax", "3",
               "--bmin", "0.5", "--bmax", "3", "--grid", "2"],
    # 1e-05 and 1e+11 print differently under .12g and float repr
    "repr_differs": ["--form", "I", "--kappa", "0.1", "--amin", "1e-05", "--amax", "1e+11",
                     "--bmin", "1e-05", "--bmax", "0.30000000000000004", "--grid", "4"],
    # the product a*b overflows to inf at the top corner
    "overflow": ["--form", "I", "--kappa", "2.0", "--amin", "0.5", "--amax", "1e200",
                 "--bmin", "0.5", "--bmax", "1e200", "--grid", "3"],
    # 17161 points: the writers' blocks hold 31 whole rows of 131 (at most 4096
    # points), so the last of the five blocks is short
    "blocks": ["--form", "II", "--kappa", "0.45", "--amin", "0.02", "--amax", "7.5",
               "--bmin", "0.03", "--bmax", "6.5", "--grid", "131"],
}


def _opt(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def _ref_point(kind, kappa, a, b, tol):
    """Margins and class label at one point, from the table."""
    if kind == "I":
        cp = a * b - (1.0 - kappa ** 2) ** 2
        eb = a * b - (1.0 + kappa ** 2) ** 2
    elif kind == "II":
        cp = eb = a * b - (1.0 + kappa ** 2) ** 2
    else:
        cp = eb = a * b - 1.0
    if kind in ("I", "II"):
        ncb = min(a - 1.0, b - 1.0, (a - 1.0) * (b - 1.0) - kappa ** 4)
    else:
        ncb = min(a - 1.0, b - 1.0)
    if cp < -tol:
        label = "unphysical"
    elif eb < -tol:
        label = "cp_only"
    elif ncb < -tol:
        label = "eb_not_ncb"
    else:
        label = "ncb"
    return label, cp, eb, ncb


def _ref_curve(name, kind, kappa, a):
    if name in ("cp", "eb"):
        if name == "cp" and kind == "I":
            bound = (1.0 - kappa ** 2) ** 2
        elif kind in ("I", "II"):
            bound = (1.0 + kappa ** 2) ** 2
        else:
            bound = 1.0
        bound = (0.0 * 0.0 - bound) * -1.0  # the bound is minus the margin at the origin: -0 at unit gain
        return bound / a if a > 0 else math.inf
    if kind in ("I", "II"):
        return 1.0 + kappa ** 4 / (a - 1.0) if a > 1.0 else math.inf
    return 1.0 if a >= 1.0 else math.inf


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if math.isfinite(obj) else None
    return obj


class _Reference:
    """The expected sweep output of one argument list, built longhand."""

    def __init__(self, argv):
        self.kind = _opt(argv, "--form", "I")
        self.kappa = float(_opt(argv, "--kappa", "1.0"))
        tol = float(_opt(argv, "--tol", "1e-6"))
        self.amin, self.amax = float(_opt(argv, "--amin", "0.05")), float(_opt(argv, "--amax", "6"))
        bmin, bmax = float(_opt(argv, "--bmin", "0.05")), float(_opt(argv, "--bmax", "6"))
        n = int(_opt(argv, "--grid", "200"))
        self.points = []
        for a in np.linspace(self.amin, self.amax, n).tolist():
            for b in np.linspace(bmin, bmax, n).tolist():
                label, cp, eb, ncb = _ref_point(self.kind, self.kappa, a, b, tol)
                self.points.append((float(a), float(b), label, float(cp), float(eb), float(ncb)))
        self.curve_a = np.linspace(self.amin, self.amax, 512)

    def curve(self, name):
        return [float(_ref_curve(name, self.kind, self.kappa, a)) for a in self.curve_a]

    def records_csv(self):
        lines = ["kind,kappa,a,b,class,cp_margin,eb_margin,ncb_margin"]
        for a, b, label, cp, eb, ncb in self.points:
            lines.append(",".join([KIND_VALUE[self.kind], f"{self.kappa:.12g}", f"{a:.12g}",
                                   f"{b:.12g}", label, f"{cp:.12g}", f"{eb:.12g}",
                                   f"{ncb:.12g}"]))
        return "\n".join(lines) + "\n"

    def curves_csv(self):
        lines = ["curve,a,b"]
        for name in ("cp", "eb", "ncb"):
            lines += [f"{name},{a:.12g},{b:.12g}" for a, b in zip(self.curve_a, self.curve(name))]
        return "\n".join(lines) + "\n"

    def json(self):
        payload = {
            "records": [{"kind": KIND_VALUE[self.kind], "kappa": self.kappa, "a": a, "b": b,
                         "class": label, "cp_margin": cp, "eb_margin": eb, "ncb_margin": ncb}
                        for a, b, label, cp, eb, ncb in self.points],
            "curves": {name: {"a": [float(a) for a in self.curve_a], "b": self.curve(name)}
                       for name in ("cp", "eb", "ncb")},
        }
        return json.dumps(_jsonable(payload), indent=2) + "\n"

    def counts(self):
        return [sum(p[2] == label for p in self.points) for label in LABELS]


@pytest.fixture(params=sorted(SWEEPS))
def sweep_case(request):
    argv = ["sweep"] + SWEEPS[request.param]
    return argv, _Reference(argv)


class TestSweepBytes:
    def test_csv_stdout(self, sweep_case, capsys):
        argv, ref = sweep_case
        assert main(argv) == 0
        assert capsys.readouterr().out == ref.records_csv() + "\n" + ref.curves_csv()

    def test_csv_files_and_summary(self, sweep_case, tmp_path, capsys):
        argv, ref = sweep_case
        out = tmp_path / "grid.csv"
        curves = tmp_path / "grid_curves.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == ref.records_csv()
        assert curves.read_text() == ref.curves_csv()
        summary = [f"wrote {len(ref.points)} records to {out} and curves to {curves}"]
        summary += [f"{label}: {count}" for label, count in zip(LABELS, ref.counts())]
        assert capsys.readouterr().out == "\n".join(summary) + "\n"

    def test_json_stdout(self, sweep_case, capsys):
        argv, ref = sweep_case
        assert main(argv + ["--format", "json"]) == 0
        assert capsys.readouterr().out == ref.json()

    def test_json_file_and_summary(self, sweep_case, tmp_path, capsys):
        argv, ref = sweep_case
        out = tmp_path / "grid.json"
        assert main(argv + ["--format", "json", "--out", str(out)]) == 0
        assert out.read_text() == ref.json()
        assert capsys.readouterr().out == f"wrote {len(ref.points)} records to {out}\n"


def test_overflow_prints_inf_in_csv_and_null_in_json(capsys):
    argv = ["sweep"] + SWEEPS["overflow"]
    assert main(argv) == 0
    last = capsys.readouterr().out.split("\n\n")[0].splitlines()[-1]
    assert last.split(",")[5:7] == ["inf", "inf"]
    assert main(argv + ["--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)["records"][-1]
    assert record["cp_margin"] is None and record["eb_margin"] is None


def _ref_pfunc_samples(a, b, variant, grid, extent):
    if variant == "fft":
        spec = GridSpec(side=grid, extent=extent)
        out = act_chargrid(Channel(X=np.eye(2), Y=np.diag([a, b])), char_fock1(0.0, spec))
        q = quasi_from_char(convert_order(out, 1.0))
        return q.axis / np.sqrt(2.0), 2.0 * np.pi * q.values
    axis = np.linspace(-extent, extent, grid)
    a1, a2 = np.meshgrid(axis, axis, indexing="ij")
    return axis, fock1_output_p(a, b, a1, a2, variant=variant)


def _ref_pfunc_csv(a, b, variant, grid, extent):
    axis, values = _ref_pfunc_samples(a, b, variant, grid, extent)
    lines = ["alpha1,alpha2,value"]
    for i, x in enumerate(axis):
        for j, y in enumerate(axis):
            lines.append(f"{x:.12g},{y:.12g},{values[i, j]:.12g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("variant, grid, extent", [
    ("rederived", 21, 6.0), ("printed", 9, 2.0), ("rederived", 2, 1e-05), ("fft", 129, 10.0),
    ("rederived", 131, 6.0)])
def test_pfunc_csv_bytes(variant, grid, extent, tmp_path, capsys):
    argv = ["pfunc", "--a", "3", "--b", "1.5", "--variant", variant, "--grid", str(grid),
            "--extent", repr(extent)]
    expected = _ref_pfunc_csv(3.0, 1.5, variant, grid, extent)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "p.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == expected
    assert capsys.readouterr().out == f"wrote {grid}x{grid} samples to {out}\n"


def _ref_pfunc_json(a, b, variant, grid, extent):
    axis, values = _ref_pfunc_samples(a, b, variant, grid, extent)

    def num(v):
        return float(f"{v:.12g}") if math.isfinite(v) else None

    payload = {"a": a, "b": b, "variant": variant,
               "alpha_axis": [num(x) for x in axis],
               "values": [[num(v) for v in row] for row in values]}
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("variant, grid, extent", [
    ("rederived", 21, 6.0), ("fft", 129, 10.0), ("rederived", 131, 6.0)])
def test_pfunc_json_bytes(variant, grid, extent, tmp_path, capsys):
    argv = ["pfunc", "--a", "3", "--b", "1.5", "--variant", variant, "--grid", str(grid),
            "--extent", repr(extent), "--format", "json"]
    expected = _ref_pfunc_json(3.0, 1.5, variant, grid, extent)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "p.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == expected
    assert capsys.readouterr().out == f"wrote {grid}x{grid} samples to {out}\n"
