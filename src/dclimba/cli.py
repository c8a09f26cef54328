"""Command-line pipeline: synth | train | correct | baseline | evaluate | report.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical
failure (non-finite loss). Every run prints its resolved configuration and
seed; fixed flags and seed give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import baselines, metrics, synth, training
from .encoders import EncoderConfig
from .errors import DataError, NumericalError
from .gridio import (AttributeField, GridField, read_attribute_grd, read_grd,
                     select_neighbors, write_attribute_grd, write_grd)

ATTR_NAMES = ("elevation", "slope", "aspect", "landcover")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _span(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(":")
        w = (int(a), int(b))
    except ValueError as exc:
        raise _UsageError(f"bad window {text!r}, expected START:END") from exc
    if w[1] <= w[0]:
        raise _UsageError(f"empty window {text!r}")
    return w


def _window(text: str) -> tuple[int, int]:
    """START:END day indices from the start of the file; a start before day 0
    is a usage error."""
    w = _span(text)
    if w[0] < 0:
        raise _UsageError(f"window {text!r} starts before day 0")
    return w


def _grid(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError as exc:
        raise _UsageError(f"bad grid {text!r}, expected HxW") from exc


def _qstar(text: str):
    if text == "none":
        return None
    return float(text)


def build_parser() -> _Parser:
    p = _Parser(prog="dclimba", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic world")
    s.add_argument("--out", required=True)
    s.add_argument("--grid", type=_grid, default=(8, 8))
    s.add_argument("--years", type=int, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--bias-a", type=float, default=1.3)
    s.add_argument("--bias-p", type=float, default=1.1)
    s.add_argument("--drizzle-prob", type=float, default=0.3)
    s.add_argument("--p-wet", type=float, default=0.4)

    t = sub.add_parser("train", help="train the differentiable corrector")
    t.add_argument("--ref", required=True)
    t.add_argument("--gcm", required=True)
    t.add_argument("--attrs", required=True, help="directory of attribute .grd files")
    t.add_argument("--out", required=True)
    t.add_argument("--epochs", type=int, default=100)
    t.add_argument("--qstar", type=_qstar, default=None, choices=[None, 0.5, 0.9])
    t.add_argument("--lr", type=float, default=1e-4)
    t.add_argument("--batch", type=int, default=5)
    t.add_argument("--seqlen", type=int, default=365)
    t.add_argument("--train-window", type=_window, required=True)
    t.add_argument("--val-window", type=_window, required=True)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--neighbors", type=int, default=16)
    t.add_argument("--loss-log", default=None)
    t.add_argument("--verbose", action="store_true")

    c = sub.add_parser("correct", help="apply a trained checkpoint")
    c.add_argument("--ckpt", required=True)
    c.add_argument("--gcm", required=True)
    c.add_argument("--attrs", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--window", type=_window, default=None)

    b = sub.add_parser("baseline", help="classical quantile-based corrections")
    b.add_argument("--method", required=True, choices=["qm", "ecdfm", "qdm"])
    b.add_argument("--mode", default="mult", choices=["mult", "add"])
    b.add_argument("--ref", required=True)
    b.add_argument("--gcm-hist", required=True)
    b.add_argument("--gcm-apply", required=True)
    b.add_argument("--out", required=True)
    # a fit window outside the data, a negative start included, is a data
    # error (exit 2), checked against the files it is applied to
    b.add_argument("--fit-window", type=_span, default=None)
    b.add_argument("--pooled", action="store_true")

    e = sub.add_parser("evaluate", help="indices, bias maps, FD, trend bias")
    e.add_argument("--ref", required=True)
    e.add_argument("--sim", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--indices", default="all", choices=["all"])
    e.add_argument("--window", type=_window, default=None)
    e.add_argument("--base-window", type=_window, default=None)
    e.add_argument("--fd", action="store_true")
    e.add_argument("--trend", action="store_true")
    e.add_argument("--raw-hist", default=None)
    e.add_argument("--raw-future", default=None)
    e.add_argument("--deb-hist", default=None)
    e.add_argument("--deb-future", default=None)
    e.add_argument("--curve-levels", type=int, default=99)

    r = sub.add_parser("report", help="emit tables from an evaluation report")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--format", default="text", choices=["csv", "text"])
    r.add_argument("--out", default=None, help="output path (default: stdout)")
    return p


def _print_config(args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    print(f"dclimba {args.command} :: " +
          " ".join(f"{k}={v}" for k, v in resolved.items()))


def _read_attrs(attr_dir) -> AttributeField:
    d = Path(attr_dir)
    fields = {}
    lats = lons = None
    for name in ATTR_NAMES:
        arr, lats, lons = read_attribute_grd(d / f"{name}.grd")
        fields[name] = arr
    return AttributeField(lats=lats, lons=lons, **fields)


def _cmd_synth(args) -> int:
    H, W = args.grid
    cfg = synth.SynthConfig(height=H, width=W, years=args.years, seed=args.seed,
                            bias_a=args.bias_a, bias_p=args.bias_p,
                            drizzle_prob=args.drizzle_prob, p_wet=args.p_wet)
    ref, attrs = synth.gen_reference(cfg)
    gcm = synth.apply_known_bias(ref, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "attrs").mkdir(exist_ok=True)
    write_grd(ref, out / "ref.grd")
    write_grd(gcm, out / "gcm.grd")
    for name in ATTR_NAMES:
        write_attribute_grd(getattr(attrs, name), attrs.lats, attrs.lons,
                            out / "attrs" / f"{name}.grd")
    print(f"wrote {out}/ref.grd {out}/gcm.grd {out}/attrs/*.grd")
    return 0


def _cmd_train(args) -> int:
    t0, t1 = args.train_window
    v0, v1 = args.val_window
    if not (t1 <= v0 or v1 <= t0):
        raise _UsageError("--train-window and --val-window must be disjoint")
    ref = read_grd(args.ref)
    gcm = read_grd(args.gcm)
    attrs = _read_attrs(args.attrs)
    config = training.TrainConfig(train_window=args.train_window,
                                  val_window=args.val_window, lr=args.lr,
                                  batch_size=args.batch, seq_len=args.seqlen,
                                  epochs=args.epochs, q_star=args.qstar,
                                  seed=args.seed)
    graph = select_neighbors(gcm, args.neighbors, args.train_window)
    enc = EncoderConfig(neighbors=args.neighbors)
    ckpt = training.train(ref, gcm, attrs, graph, config, enc,
                          log_path=args.loss_log, verbose=args.verbose)
    training.save_checkpoint(ckpt, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_correct(args) -> int:
    ckpt = training.load_checkpoint(args.ckpt)
    gcm = read_grd(args.gcm)
    attrs = _read_attrs(args.attrs)
    corrected = training.correct_field(ckpt, gcm, attrs, window=args.window)
    write_grd(corrected, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_baseline(args) -> int:
    ref = read_grd(args.ref)
    hist = read_grd(args.gcm_hist)
    apply_fld = read_grd(args.gcm_apply)
    if args.fit_window is not None:
        t0, t1 = args.fit_window
        if t0 < 0 or t1 > ref.values.shape[0] or t1 > hist.values.shape[0]:
            raise DataError("fit window outside the data")
        ref = GridField(ref.start_date + t0, ref.lats, ref.lons, ref.values[t0:t1])
        hist = GridField(hist.start_date + t0, hist.lats, hist.lons, hist.values[t0:t1])
    mode = "multiplicative" if args.mode == "mult" else "additive"
    out = baselines.correct_field(args.method, ref, hist, apply_fld, mode=mode,
                                  pooled=args.pooled)
    write_grd(out, args.out)
    print(f"wrote {args.out}")
    return 0


def _nan_to_none(arr) -> list:
    return [float(v) if np.isfinite(v) else None for v in np.asarray(arr).ravel()]


def _cmd_evaluate(args) -> int:
    if args.curve_levels < 1:
        raise DataError(f"--curve-levels must be at least 1, got {args.curve_levels}")
    ref = read_grd(args.ref)
    sim = read_grd(args.sim)
    if ref.values.shape[1:] != sim.values.shape[1:]:
        raise DataError("reference and simulation grids do not match")
    window = args.window or (0, min(ref.values.shape[0], sim.values.shape[0]))
    base_window = args.base_window or window
    t0, t1 = window
    if t1 > sim.values.shape[0] or t1 > ref.values.shape[0] \
            or base_window[1] > ref.values.shape[0]:
        raise DataError("evaluation or base window outside the data")
    if args.trend:
        needed = (args.raw_hist, args.raw_future, args.deb_hist, args.deb_future)
        if any(v is None for v in needed):
            raise _UsageError("--trend requires --raw-hist --raw-future "
                              "--deb-hist --deb-future")
        trend_flds = [read_grd(v) for v in needed]
        if any(f.values.shape[1:] != ref.values.shape[1:] for f in trend_flds):
            raise DataError("trend files and reference grids do not match")

    thresholds = metrics.wet_day_thresholds(ref, base_window)
    sim_idx = metrics.etccdi_all_cells(sim, window, thresholds)
    ref_idx = metrics.etccdi_all_cells(ref, window, thresholds)
    report = {
        "grid": {"lats": ref.lats.tolist(), "lons": ref.lons.tolist()},
        "window": list(window), "base_window": list(base_window),
        "indices": {},
    }
    per_index, composite = metrics.index_percentage_bias(sim_idx, ref_idx)
    for name, (pb, mean_abs) in per_index.items():
        report["indices"][name] = {
            "sim_mean": _nan_to_none(sim_idx[name]),
            "ref_mean": _nan_to_none(ref_idx[name]),
            "pct_bias": _nan_to_none(pb),
            "mean_abs_pct_bias": mean_abs,
        }
    report["composite_mean_abs_pct_bias"] = composite

    series = {
        "reference": ref.values[t0:t1][np.isfinite(ref.values[t0:t1])],
        "simulation": sim.values[t0:t1][np.isfinite(sim.values[t0:t1])],
    }
    n_finite = min(s.size for s in series.values())
    if args.curve_levels > n_finite:
        raise DataError(f"--curve-levels {args.curve_levels} exceeds the {n_finite} "
                        f"finite values of the smaller series")
    report["quantile_curves"] = [list(r) for r in
                                 metrics.quantile_curves(series, args.curve_levels)]

    if args.fd:
        # the fractal dimension of a snapshot needs every cell, so the days
        # with a gap in either field are left out
        days = [f.values[t0:t1].astype(np.float64) for f in (sim, ref)]
        whole = np.logical_and(*(np.isfinite(d).all(axis=(1, 2)) for d in days))
        print(f"fd: dropped {whole.size - np.count_nonzero(whole)} of {whole.size} "
              f"days with a missing cell-day")
        if not whole.any():
            raise DataError("fractal dimension: every day has a missing cell-day")
        fd_sim, fd_ref = (metrics.fd_curve(d[whole]) for d in days)
        mae = metrics.fd_mae(fd_sim, fd_ref)
        report["fd"] = {
            "levels": fd_sim.levels.tolist(),
            "fd_sim": _nan_to_none(fd_sim.fd),
            "fd_ref": _nan_to_none(fd_ref.fd),
            "box_sizes": fd_sim.box_sizes.tolist(),
            "mae": float(mae) if np.isfinite(mae) else None,
        }
    if args.trend:
        tb = metrics.trend_bias_all_cells(*trend_flds)
        rows = []
        for stat in metrics.TREND_STATISTICS:
            t_raw, t_deb, pct = (v.tolist() for v in tb[stat])
            rows.extend({"cell": i, "statistic": stat, "t_raw": r, "t_debiased": d,
                         "tb_percent": None if np.isnan(p) else p}
                        for i, (r, d, p) in enumerate(zip(t_raw, t_deb, pct)))
        report["trend_bias"] = rows

    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True, allow_nan=False)
    print(f"wrote {args.out}")
    return 0


def _cmd_report(args) -> int:
    try:
        with open(args.infile) as f:
            lines = _report_lines(json.load(f), args.format)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        # not JSON, or JSON without the fields an evaluation report has
        raise DataError(f"{args.infile}: malformed report: {exc!r}") from exc
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _report_lines(rep: dict, fmt: str) -> list[str]:
    lines = []
    if fmt == "csv":
        lines.append("table,key,value")
        for name, entry in sorted(rep.get("indices", {}).items()):
            lines.append(f"index,{name},{entry['mean_abs_pct_bias']}")
        if rep.get("composite_mean_abs_pct_bias") is not None:
            lines.append(f"summary,composite,{rep['composite_mean_abs_pct_bias']}")
        lines.append("curve_table,q,q_pow5,name,value")
        for name, q, q5, v in rep.get("quantile_curves", []):
            lines.append(f"curve,{q},{q5},{name},{v}")
        if "fd" in rep:
            lines.append(f"fd,mae,{rep['fd']['mae']}")
    else:
        lines.append(f"evaluation window: {rep.get('window')}")
        lines.append("mean |percentage bias| per index:")
        for name, entry in sorted(rep.get("indices", {}).items()):
            v = entry["mean_abs_pct_bias"]
            lines.append(f"  {name:>8}: " + ("undefined" if v is None else f"{v:9.3f} %"))
        comp = rep.get("composite_mean_abs_pct_bias")
        lines.append(f"composite score: " +
                     ("undefined" if comp is None else f"{comp:.3f} %"))
        if "fd" in rep:
            lines.append(f"fractal-dimension MAE vs reference: {rep['fd']['mae']}")
        nq = len(rep.get("quantile_curves", []))
        lines.append(f"quantile curve rows: {nq} (q, q^5, value) per series")
    return lines


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "correct": _cmd_correct,
    "baseline": _cmd_baseline,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _print_config(args)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
