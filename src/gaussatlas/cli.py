"""Command-line surface for channel classification and region atlases.

Subcommands
-----------
classify CHANNEL.json    canonical form, witnesses and verdicts as JSON
check CHANNEL.json       closed-form verdicts cross-checked against the oracles
sweep                    region-classification grid plus boundary curves
orbit CHANNEL.json       squeeze-orbit trace and the breaking squeeze r0
pfunc                    single-photon output P-function samples
verify [SUITE]           run a named verification suite

Exit codes: 0 success, 1 domain verdict failure (non-EB orbit input,
oracle disagreement, failed verification) or standard output closed
before the output was written (a broken pipe), 2 usage or parse error
or an output path that cannot be written.
All floats are printed with 12 significant digits so identical inputs
produce byte-identical output: a CSV field is ``"%.12g" % v`` and a JSON
number ``repr(float("%.12g" % v))``, or null if v is not finite.

The grid writers (sweep records and curves, pfunc; CSV and JSON) print
every float through ``_kernels.text12``, whose bytes are exactly
Python's.  ``_grid_text`` lays out each block of up to TEXT_BLOCK points
in one zero-padded uint8 array and drops the padding with one
``bytes.translate``; ``_emit`` writes those bytes as they are.  Every
JSON document has one route, ``_json_chunks``: json.dumps lays it out and
the float arrays are spliced into their slots.  ``_records`` writes the
sweep records in both formats, its JSON keys the names of REGION_CSV_HEADER.
``classify``, ``check`` and ``orbit`` run on Python floats without numpy.
"""

import argparse
import functools
import itertools
import json
import math
import os
import sys
from pathlib import Path

from .breaking import (
    REGION_LABELS,
    TOL_CLASS,
    boundary_curves,
    eb_oracle_tmsv,
    find_r0,
    ncb_necessity_fock1,
    ncb_oracle_gaussian,
    region_sweep,
    report,
    squeeze_orbit,
)
from .channels import Channel, Kind, is_cp, kind_from_label
from ._kernels import TEXT_WIDTH, text12


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


REGION_CSV_HEADER = "kind,kappa,a,b,class,cp_margin,eb_margin,ncb_margin"
TEXT_BLOCK = 4096  # points per block of grid text
SUITE_NAMES = ("all", "fft", "fock", "oracles", "table1")  # sorted(verify.SUITES)


def _fmt(v):
    return f"{v:.12g}"


def _table(strings):
    """The strings as a uint8 table, one zero-padded row each."""
    import numpy as np
    table = np.array([s.encode() for s in strings], dtype=bytes)
    return table.view(np.uint8).reshape(len(strings), -1)


def _grid_text(shape, fields, json=False, drop=0):
    """Yield the bytes of a rows x cols grid's text in row-major order, in blocks of whole rows.

    A point's text is its fields in turn.  A field is a str, the same at
    every point; a numeric array of the grid's shape, printed by text12
    (in its JSON layout with json); a (table, index) pair, index an integer
    array of the grid's shape choosing rows of a uint8 text table; or a
    uint8 text table that broadcasts against (rows, cols, width), such as
    (rows, 1, width) for one text per grid row.  Each block of at most
    TEXT_BLOCK points (one grid row if a row is longer) is laid out in one
    zero-padded uint8 array, and one translate drops the padding.  A
    numeric array given in more than one field is printed once per block.
    The last drop bytes of the text are left out.
    """
    import numpy as np
    rows, cols = shape
    step = max(1, TEXT_BLOCK // cols)
    for lo in range(0, rows, step):
        parts, texts = [], {}  # the block's text12 output, by id of the numeric field
        for f in fields:
            if isinstance(f, str):
                f = np.frombuffer(f.encode(), np.uint8)
            elif isinstance(f, tuple):
                f = f[0].take(f[1][lo:lo + step], axis=0)
            elif f.dtype != np.uint8:
                if id(f) not in texts:
                    texts[id(f)] = text12(f[lo:lo + step], json).reshape(-1, cols, TEXT_WIDTH)
                f = texts[id(f)]
            elif len(f) > 1:
                f = f[lo:lo + step]
            parts.append(f)
        block = np.empty((min(step, rows - lo), cols, sum(f.shape[-1] for f in parts)), np.uint8)
        at = 0
        for f in parts:
            block[..., at:at + f.shape[-1]] = f
            at += f.shape[-1]
        text = block.tobytes().translate(None, b"\0")
        yield text[:len(text) - drop] if lo + step >= rows else text


def _column(values, template, json=False):
    """A uint8 table of template % text, for the text12 text of each value of a 1-D array."""
    texts = b"".join(_grid_text((1, len(values)), [values[None], "\n"], json)).split(b"\n")
    return _table([template % t.decode() for t in texts[:-1]])


def _json_array(values, indent):
    """Chunks of a 1-D or 2-D float array as json.dumps(indent=2) nests it under indent."""
    inner, grid = indent + "  ", values.reshape(-1, values.shape[-1])
    lead, tail = [inner] * grid.shape[1], [",\n"] * grid.shape[1]
    if values.ndim == 2:  # each row an array of its own
        lead = [inner + "[\n" + inner + "  "] + [inner + "  "] * (len(lead) - 1)
        tail[-1] = "\n" + inner + "],\n"
    yield "[\n"
    yield from _grid_text(grid.shape, [_table(lead)[None], grid, _table(tail)[None]],
                          json=True, drop=2)
    yield "\n" + indent + "]"


def _json_chunks(payload):
    """Chunks of json.dumps(_jsonable(payload), indent=2) + newline, each float array a list.

    json.dumps lays out the document with _jsonable's sentinel in the slot
    of each array and iterator; each float array goes through _json_array
    into its slot, and each iterator of chunks is spliced in as is.  A
    payload without either is one chunk, and imports no numpy.
    """
    bulk = []
    pieces = (json.dumps(_jsonable(payload, bulk), indent=2) + "\n").split('"\\u0000"')
    for piece, part in zip(pieces, bulk):
        yield piece
        if getattr(part, "ndim", 0):
            line = piece[piece.rfind("\n") + 1:]
            part = _json_array(part, line[:len(line) - len(line.lstrip(" "))])
        yield from part
    yield pieces[-1]


def _emit(chunks, path=None):
    """Write chunks, str or bytes, as bytes to path or to standard output's buffer, its
    text layer flushed first; a standard output without one (an io.StringIO) gets text."""
    if path is not None:
        try:
            with open(path, "wb") as fh:
                return fh.writelines(c.encode() if isinstance(c, str) else c for c in chunks)
        except OSError as exc:
            raise _CliError(2, f"cannot write {path}: {exc}") from exc
    if not hasattr(sys.stdout, "buffer"):
        return sys.stdout.writelines(c if isinstance(c, str) else c.decode() for c in chunks)
    sys.stdout.flush()
    sys.stdout.buffer.writelines(c.encode() if isinstance(c, str) else c for c in chunks)


def _jsonable(obj, bulk=None):
    """Round floats to 12 significant digits; map non-finite values to null.  With a bulk
    list, an array (ndim >= 1) or an iterator goes into it and leaves the "\\0" sentinel."""
    if isinstance(obj, dict):
        return {k: _jsonable(v, bulk) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, bulk) for v in obj]
    if isinstance(obj, float):
        return float(_fmt(obj)) if math.isfinite(obj) else None
    if bulk is not None and (getattr(obj, "ndim", 0) or hasattr(obj, "__next__")):
        bulk.append(obj)
        return "\0"
    return obj


def _load_report(path, tol):
    """(ch, report(ch)) for the channel file at path; each way to fail is a usage error."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _CliError(2, f"cannot read {path}: {exc}") from exc
    try:
        ch = Channel.from_json(data.decode())
    except ValueError as exc:
        raise _CliError(2, f"invalid channel descriptor: {exc}") from exc
    try:
        return ch, report(ch, tol=tol)
    except (OverflowError, ValueError) as exc:
        raise _CliError(2, f"channel out of range: {exc}") from None


def _form_payload(form):
    """The canonical form with its witnesses, which this builds and verifies, as nested lists."""
    return {"kind": form.kind.value, "kappa": form.kappa, "a": form.a, "b": form.b,
            **{name: [m[:2], m[2:]] for name, m in zip(
                ("x_canonical", "y_canonical", "S", "R"), form._witnesses)}}


def _cmd_classify(args):
    _, rep = _load_report(args.channel, args.tol)
    payload = {
        "form": _form_payload(rep.form),
        "cp": rep.cp,
        "eb": rep.eb,
        "ncb": rep.ncb,
        "class": rep.region,
        "margins": rep.margins,
        "shifted_noise": list(rep.shifted_noise),
    }
    _emit(_json_chunks(payload))
    return 0


def _cmd_check(args):
    ch, rep = _load_report(args.channel, args.tol)
    if is_cp(ch):
        oracles = {"ncb_gaussian": ncb_oracle_gaussian(ch, tol=args.tol),
                   "eb_tmsv": eb_oracle_tmsv(ch)}
        agree = oracles["ncb_gaussian"] == rep.ncb and oracles["eb_tmsv"] == rep.eb
        if rep.form.kind is Kind.I and abs(rep.form.kappa - 1.0) <= 1e-9:
            try:
                fock_o = ncb_necessity_fock1(rep.form, tol=args.tol)
            except (OverflowError, ValueError):  # b = 0, or a ** 2 past the double range
                raise _CliError(2, f"channel out of range: the single-photon test needs "
                                   f"a, b > 0 with finite squares, got a = {_fmt(rep.form.a)}, "
                                   f"b = {_fmt(rep.form.b)}") from None
            oracles["ncb_fock1"] = fock_o
            agree = agree and fock_o == rep.ncb
    else:
        oracles = {"note": "oracles skipped: channel is not completely positive"}
        agree = not rep.cp
    closed_form = {"cp": rep.cp, "eb": rep.eb, "ncb": rep.ncb, "margins": rep.margins}
    _emit(_json_chunks({"closed_form": closed_form, "oracles": oracles, "agree": agree}))
    return 0 if agree else 1


def _records(sweep, as_json):
    """Chunks of the sweep records: CSV rows under REGION_CSV_HEADER, or the records array
    of the sweep JSON as json.dumps(indent=2) nests it, keyed by the header's names."""
    names = REGION_CSV_HEADER.split(",")
    if as_json:  # pre[i]: the text before field i; quote: the class label's quotes
        pre = [f',\n      "{name}": ' for name in names]
        pre[0], quote, end = "    {" + pre[0][1:], '"', "\n    },\n"
        kind, kappa = json.dumps(sweep.kind.value), json.dumps(_jsonable(sweep.kappa))
        yield "[\n"
    else:
        pre, quote, end = [""] + [","] * (len(names) - 1), "", "\n"
        kind, kappa = sweep.kind.value, _fmt(sweep.kappa)
        yield REGION_CSV_HEADER + "\n"
    label = (_table([f"{label}{quote}{pre[5]}" for label in REGION_LABELS]), sweep.code)
    cp, eb, ncb = sweep.margins.values()  # eb is cp for kinds II and III: printed once
    yield from _grid_text(sweep.code.shape, [
        _column(sweep.a, f"{pre[0]}{kind}{pre[1]}{kappa}{pre[2]}%s{pre[3]}", as_json)[:, None],
        _column(sweep.b, f"%s{pre[4]}{quote}", as_json)[None], label,
        cp, pre[6], eb, pre[7], ncb, end], json=as_json, drop=2 if as_json else 0)
    if as_json:
        yield "\n  ]"


def _curves_csv(a, curves):
    """Chunks of the boundary-curves CSV, all three curves on the one a axis."""
    import numpy as np
    yield "curve,a,b\n"
    yield from _grid_text((len(curves), len(a)), [
        _table([f"{name}," for name in curves])[:, None], _column(a, "%s,")[None],
        np.stack(list(curves.values())), "\n"])


def _cmd_sweep(args):
    import numpy as np
    if not all(map(math.isfinite, (args.kappa, args.amin, args.amax, args.bmin, args.bmax))):
        raise _CliError(2, "--kappa and the a and b ranges must be finite")
    if args.kappa < 0:
        raise _CliError(2, "--kappa must be nonnegative")
    if not (0 < args.amin < args.amax and 0 < args.bmin < args.bmax):
        raise _CliError(2, "ranges must satisfy 0 < min < max")
    if args.grid < 2:
        raise _CliError(2, "grid resolution must be at least 2")
    kind = kind_from_label(args.form)
    kappa = abs(args.kappa)  # -0.0 writes its gain as 0, as --kappa 0 does
    try:
        sweep = region_sweep(kind, kappa, args.amin, args.amax,
                             args.bmin, args.bmax, args.grid, tol=args.tol)
    except OverflowError:
        raise _CliError(2, f"--kappa {kappa!r} is too large: the bounds "
                           f"of kind {kind.value} overflow") from None
    count = sweep.code.size
    a_curve = np.linspace(args.amin, args.amax, 512)
    curves = boundary_curves(kind, kappa, a_curve)
    if args.format == "json":
        curve_arrays = {name: {"a": a_curve, "b": b} for name, b in curves.items()}
        _emit(_json_chunks({"records": _records(sweep, True), "curves": curve_arrays}),
              args.out)
        if args.out:
            print(f"wrote {count} records to {args.out}")
        return 0
    records = _records(sweep, False)
    curve_rows = _curves_csv(a_curve, curves)
    if args.out:
        out = Path(args.out)
        curves_path = out.with_name(out.stem + "_curves" + out.suffix)
        _emit(records, out)
        try:
            _emit(curve_rows, curves_path)
        except _CliError:
            out.unlink()  # a refused run leaves no output behind
            raise
        print(f"wrote {count} records to {out} and curves to {curves_path}")
        counts = np.bincount(sweep.code.ravel(), minlength=len(REGION_LABELS))
        for label, c in zip(REGION_LABELS, counts.tolist()):
            print(f"{label}: {c}")
    else:
        _emit(itertools.chain(records, ["\n"], curve_rows))
    return 0


def _cmd_orbit(args):
    if not (math.isfinite(args.rmin) and math.isfinite(args.rmax)):
        raise _CliError(2, "--rmin and --rmax must be finite")
    if args.grid < 1:
        raise _CliError(2, "grid resolution must be at least 1")
    _, rep = _load_report(args.channel, args.tol)
    form = rep.form
    if not rep.eb:
        print(f"channel is not entanglement-breaking "
              f"(EB margin {_fmt(rep.margins['eb'])})", file=sys.stderr)
        return 1
    r0 = find_r0(form, tol=args.tol)
    if r0 is None:
        print("no squeeze parameter makes this channel nonclassicality-breaking",
              file=sys.stderr)
        return 1
    rs = _linspace(args.rmin, args.rmax, args.grid)
    try:
        points = [squeeze_orbit(form, r, tol=args.tol) for r in rs]
    except OverflowError:
        raise _CliError(2, "--rmin and --rmax are too large: the squeezed "
                           "noise overflows") from None
    if args.format == "json":
        payload = {
            "r0": r0,
            "trace": [{"r": p.r, "a_r": p.a_r, "b_r": p.b_r, "ncb": p.ncb}
                      for p in points],
        }
        chunks = _json_chunks(payload)
    else:
        chunks = [] if args.out else [f"# r0 = {_fmt(r0)}\n"]
        chunks.append("r,a_r,b_r,ncb\n")
        chunks += [f"{_fmt(p.r)},{_fmt(p.a_r)},{_fmt(p.b_r)},"
                   f"{'true' if p.ncb else 'false'}\n" for p in points]
    _emit(chunks, args.out)
    if args.out:
        print(f"r0 = {_fmt(r0)}")
        print(f"wrote trace to {args.out}")
    return 0


def _linspace(start, stop, num):
    """np.linspace(start, stop, num) on floats, bit for bit: point i is i * step + start,
    or i / div * delta + start where the step underflows to 0, and the last is stop."""
    div, delta = max(num - 1, 1), stop - start
    step = delta / div
    points = [(i * step if step else i / div * delta) + start for i in range(num)]
    return points[:-1] + [stop] if num > 1 else points


def _pfunc_closed(args):
    import numpy as np
    from .phase_space import fock1_output_p
    axis = np.linspace(-args.extent, args.extent, args.grid)
    try:
        with np.errstate(all="ignore"):  # a non-finite sample is refused below
            values = fock1_output_p(args.a, args.b, axis[:, None], axis, variant=args.variant)
    except OverflowError:  # a ** 2 or b ** 2 in Python floats
        values = np.array(np.nan)
    if not np.isfinite(values).all():
        raise _CliError(2, "--a, --b and --extent put the P function beyond the double range")
    return axis, values


def _cmd_pfunc(args):
    if args.extent is None:
        args.extent = 10.0 if args.variant == "fft" else 6.0
    if not all(math.isfinite(v) and v > 0 for v in (args.a, args.b, args.extent)):
        raise _CliError(2, "--a, --b and --extent must be finite and positive")
    if args.grid < 2:
        raise _CliError(2, "grid resolution must be at least 2")
    if args.variant == "fft":
        from .phase_space import GridSpec, fock1_output_p_fft
        try:
            spec = GridSpec(side=args.grid, extent=args.extent)
        except ValueError as exc:
            raise _CliError(2, str(exc)) from exc
        try:
            axis, values = fock1_output_p_fft(args.a, args.b, spec)
        except ValueError as exc:
            print(f"transform refused: {exc}", file=sys.stderr)
            return 1
    else:
        axis, values = _pfunc_closed(args)
    if args.format == "json":
        chunks = _json_chunks({"a": args.a, "b": args.b, "variant": args.variant,
                               "alpha_axis": axis, "values": values})
    else:
        axis_text = _column(axis, "%s,")
        chunks = itertools.chain(["alpha1,alpha2,value\n"], _grid_text(
            values.shape, [axis_text[:, None], axis_text[None], values, "\n"]))
    _emit(chunks, args.out)
    if args.out:
        print(f"wrote {len(axis)}x{len(axis)} samples to {args.out}")
    return 0


def _cmd_verify(args):
    from .verify import run_suite
    results = run_suite(args.suite)
    for res in results:
        print(f"{'PASS' if res.ok else 'FAIL'} {res.name}: {res.detail}")
    passed = sum(res.ok for res in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


@functools.cache  # parse_args leaves the parser as it was and returns a new Namespace
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gaussatlas",
        description="Classify single-mode Gaussian channels and map their "
                    "noise-plane breaking regions.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, help, func, channel=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if channel:
            p.add_argument("channel", help="channel JSON file")
        return p

    def add_tol(p):
        p.add_argument("--tol", type=float, default=TOL_CLASS,
                       help="boundary slack for verdicts (default 1e-6)")

    def add_output(p, help):
        p.add_argument("--out", help=help)
        p.add_argument("--format", default="csv", choices=["csv", "json"])

    add_tol(command("classify", "canonical form and verdicts", _cmd_classify, channel=True))
    add_tol(command("check", "cross-check closed forms against oracles", _cmd_check, channel=True))

    p = command("sweep", "classify a noise-plane grid", _cmd_sweep)
    p.add_argument("--form", default="I", choices=["I", "II", "III"],
                   help="canonical kind (default I)")
    p.add_argument("--kappa", type=float, default=1.0, help="gain parameter (default 1.0)")
    for bound, default in (("--amin", 0.05), ("--amax", 6.0), ("--bmin", 0.05), ("--bmax", 6.0)):
        p.add_argument(bound, type=float, default=default)
    p.add_argument("--grid", type=int, default=200, help="grid resolution per axis (default 200)")
    add_output(p, "records CSV path; curves go to <stem>_curves<suffix>")
    add_tol(p)

    p = command("orbit", "squeeze-orbit trace and r0", _cmd_orbit, channel=True)
    p.add_argument("--rmin", type=float, default=-1.0)
    p.add_argument("--rmax", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=101, help="number of trace points (default 101)")
    add_output(p, "trace output path")
    add_tol(p)

    p = command("pfunc", "single-photon output P-function samples", _cmd_pfunc)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--variant", default="rederived", choices=["rederived", "printed", "fft"])
    p.add_argument("--grid", type=int, default=257,
                   help="samples per axis (default 257; fft needs odd)")
    p.add_argument("--extent", type=float, default=None,
                   help="half-width: alpha units for closed forms "
                        "(default 6), xi units for fft (default 10)")
    add_output(p, "output path")

    p = command("verify", "run a verification suite", _cmd_verify)
    p.add_argument("suite", nargs="?", default="all", choices=SUITE_NAMES)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # tol = 0 is valid (an exact comparison); NaN or a negative slack
        # would silently flip every margin comparison
        if hasattr(args, "tol") and not (math.isfinite(args.tol) and args.tol >= 0):
            raise _CliError(2, f"--tol must be finite and nonnegative, got {args.tol!r}")
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:  # the reader left: the exit-time flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
