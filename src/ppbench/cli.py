"""Command-line interface.

Exit codes: 0 on success, 1 on usage errors (bad flags, missing arguments,
a family the command does not support), 2 on computation errors (bad data,
numerical failure). Machine-readable output is a JSON envelope {"schema":
"report-v1", "kind": ..., "payload": ...}; the positions subcommand emits
plain CSV instead.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .benchmark import (
    DEFAULT_REPLICATES,
    DEFAULT_SEED,
    ExperimentConfig,
    run_suite,
)
from .casestudy import month_plot_spec, run_case_study
from .distributions import (
    LOGNORMAL3,
    DistributionSpec,
    canonical_family,
    quantile,
    reduced_quantile,
    return_level,
)
from .estimation import GLS, MLE, OLS, fit_gls, fit_mle, fit_ols
from .gof import mad_case3, mad_known_params
from .order_stats import COV_MODES, EXACT, EXPANSION, build_moments
from .positions import (
    ALL_IDS,
    EUPP_ID,
    canonical_formula_id,
    make_formula,
    positions_for,
)
from .svgplot import PlotSpec, emit_probability_paper

SCHEMA_ID = "report-v1"


class UsageError(ValueError):
    """A flag value the command does not accept; exits with code 1."""


def _envelope(kind: str, payload: dict) -> str:
    doc = {"schema": SCHEMA_ID, "kind": kind, "payload": payload}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_text(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _read_values(path: str) -> np.ndarray:
    """One-column CSV with a 'value' header."""
    if path == "-":
        rows = list(csv.DictReader(io.StringIO(sys.stdin.read())))
    else:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError("input file %r holds no data rows" % path)
    if "value" not in rows[0]:
        raise ValueError("input CSV needs a 'value' column")
    try:
        vals = np.array([float(r["value"]) for r in rows])
    except (TypeError, ValueError):
        raise ValueError("non-numeric entry in the 'value' column") from None
    if not np.all(np.isfinite(vals)):
        raise ValueError("input values must be finite")
    return vals


def _formula_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--formula",
        default=EUPP_ID,
        help="plotting-position formula id (one of: %s)" % ", ".join(ALL_IDS),
    )
    parser.add_argument(
        "--k",
        type=int,
        default=4,
        help="Taylor truncation level for the exact-unbiased formula (0..4)",
    )


def _cmd_positions(args) -> int:
    fid = canonical_formula_id(args.formula)
    family = canonical_family(args.family) if args.family else None
    if fid == EUPP_ID and family is None:
        raise ValueError("--family is required for the exact-unbiased formula")
    f = make_formula(fid, family=family, k=args.k)
    ps = positions_for(f, args.n, family=family)
    buf = ["rank,i,p"]
    for idx, p in enumerate(ps.p, start=1):
        # rank counts down from the largest observation (return-period order)
        buf.append("%d,%d,%.12g" % (ps.n - idx + 1, idx, p))
    _write_text("\n".join(buf) + "\n", args.out)
    return 0


def _fit_family(args) -> str:
    """Canonical --family of fit and plot; the log family is a usage error."""
    family = canonical_family(args.family)
    if family == LOGNORMAL3:
        # fitting the raw values on normal paper would mislabel a normal fit
        raise UsageError(
            "%s does not support the log family: it needs a threshold c and "
            "the log(x - c) transform; use `ppbench bradyseism`, or fit "
            "log(x - c) with --family normal" % args.command
        )
    return family


def _formula_design(x: np.ndarray, family: str, args):
    """Reduced-variate ordinates of the --formula positions, and the formula's label."""
    f = make_formula(args.formula, family=family, k=args.k)
    ps = positions_for(f, int(x.size), family=family)
    return np.asarray(reduced_quantile(family, ps.p)), f.label


def _fit(x: np.ndarray, family: str, args, cov_mode: str):
    """Fit sorted x by --method: the fit, its design ordinates and their label.

    The likelihood fit has no design; it returns None for both.
    """
    if args.method == MLE:
        return fit_mle(x, family), None, None
    if args.method == GLS:
        moments = build_moments(family, int(x.size), k=args.k, cov_mode=cov_mode)
        # exact moments have no truncation level
        design = EXACT if cov_mode == EXACT else "k=%d, %s" % (args.k, cov_mode)
        label = "expected order statistics (%s)" % design
        return fit_gls(x, moments), moments.y, label
    y, label = _formula_design(x, family, args)
    return fit_ols(x, y, family=family), y, label


def _cmd_fit(args) -> int:
    family = _fit_family(args)
    x = np.sort(_read_values(args.input))
    fit, _, formula_label = _fit(x, family, args, args.cov_mode)
    payload = {
        "family": family,
        "method": args.method,
        "formula": formula_label,
        "n": int(x.size),
        "a_hat": fit.a_hat,
        "b_hat": fit.b_hat,
        "ridge": fit.ridge,
    }
    _write_text(_envelope("fit", payload), args.out)
    return 0


def _cmd_quantile(args) -> int:
    family = canonical_family(args.family)
    if (args.return_period is None) == (args.f_level is None):
        raise ValueError("give exactly one of --return-period or --f-level")
    d = DistributionSpec(family, a=args.a, b=args.b, c=args.c)
    if args.return_period is not None:
        T = float(args.return_period)
        x = return_level(d, T)
        f_level = 1.0 - 1.0 / T
    else:
        f_level = float(args.f_level)
        if not 0.0 < f_level < 1.0:
            raise ValueError("f-level must lie strictly inside (0, 1)")
        T = 1.0 / (1.0 - f_level)
        x = float(quantile(d, f_level))
    payload = {
        "family": family,
        "a": d.a,
        "b": d.b,
        "c": d.c,
        "T": T,
        "f_level": f_level,
        "x": x,
    }
    _write_text(_envelope("quantile", payload), args.out)
    return 0


def _parse_formula_list(raw: str, family: str) -> Optional[list]:
    if raw.strip().lower() in ("all", ""):
        return None  # ExperimentConfig's default order
    return [make_formula(tok, family=family) for tok in raw.split(",") if tok.strip()]


def _cmd_benchmark(args) -> int:
    family = canonical_family(args.family)
    cfg = ExperimentConfig(
        family=family,
        n=args.n,
        replicates=args.replicates,
        seed=args.seed,
        formulas=_parse_formula_list(args.formulas, family),
        include_mle=not args.no_mle,
    )
    report = run_suite(cfg)
    _write_text(_envelope("benchmark", report.to_payload()), args.out)
    return 0


def _cmd_gof(args) -> int:
    vals = _read_values(args.input)
    n_total = int(vals.size)
    threshold = args.log_threshold
    if threshold is not None:
        if not np.isfinite(threshold):
            raise ValueError("--log-threshold must be finite, got %r" % threshold)
        kept = vals[vals > threshold]
        if kept.size < vals.size:
            print(
                "note: dropped %d value(s) at or below the threshold %g"
                % (vals.size - kept.size, threshold),
                file=sys.stderr,
            )
        vals = np.log(kept - threshold)
    mode = args.params.strip().lower()
    if mode == "self":
        res = mad_case3(vals)
        mean = sd = None
    elif mode.startswith("fixed:"):
        try:
            mean_s, sd_s = mode[len("fixed:") :].split(",")
            mean, sd = float(mean_s), float(sd_s)
        except ValueError:
            raise ValueError("--params fixed form is fixed:MEAN,SD") from None
        res = mad_known_params(vals, mean, sd)
    else:
        raise ValueError("--params must be 'self' or 'fixed:MEAN,SD'")
    payload = {
        "n_total": n_total,
        "n_used": res.n,
        "log_threshold": threshold,
        "params_mode": "self" if mode == "self" else "fixed",
        "mean": mean,
        "sd": sd,
        "a2_raw": res.a2_raw,
        "a2_modified": res.a2_modified,
        "comparison": res.comparison,
        "reference_points": res.reference_points,
    }
    _write_text(_envelope("gof", payload), args.out)
    return 0


def _cmd_bradyseism(args) -> int:
    report = run_case_study(method=args.method, c=args.c, k=args.k, level=args.level)
    payload = report.to_payload()
    if args.plots:
        os.makedirs(args.plots, exist_ok=True)
        written = []
        for m in report.months:
            path = os.path.join(args.plots, "month_%s.svg" % m.label)
            emit_probability_paper(month_plot_spec(m), path)
            written.append(path)
        payload["plots"] = written
    _write_text(_envelope("bradyseism", payload), args.out)
    return 0


def _cmd_plot(args) -> int:
    family = _fit_family(args)
    x = np.sort(_read_values(args.input))
    if args.no_fit:
        y, _ = _formula_design(x, family, args)
        line = None
    else:
        fit, y, _ = _fit(x, family, args, EXPANSION)
        line = (fit.a_hat, fit.b_hat)
    spec = PlotSpec(
        title=args.title or ("%s probability paper, n=%d" % (family, x.size)),
        family=family,
        points=tuple(zip(y.tolist(), x.tolist())),
        fitted_line=line,
    )
    emit_probability_paper(spec, args.out)
    payload = {"out": args.out, "markers": int(x.size), "family": family}
    sys.stdout.write(_envelope("plot", payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppbench",
        description="Plotting positions, probability-paper fits and benchmarks.",
    )
    parser.add_argument("--version", action="version", version="ppbench " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("positions", help="emit plotting positions as CSV")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--family", default=None, help="parent family (exact-unbiased only)")
    _formula_arg(p)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_positions)

    p = sub.add_parser("fit", help="fit a location-scale model on probability paper")
    p.add_argument("--input", required=True, help="CSV with a 'value' column")
    p.add_argument("--family", required=True)
    p.add_argument("--method", choices=(OLS, GLS, MLE), default=OLS)
    p.add_argument("--cov-mode", choices=COV_MODES, default=EXPANSION)
    _formula_arg(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("quantile", help="quantile of a fully specified model")
    p.add_argument("--family", required=True)
    p.add_argument("--a", type=float, required=True, help="location")
    p.add_argument("--b", type=float, required=True, help="scale")
    p.add_argument("--c", type=float, default=0.0, help="threshold (log family)")
    p.add_argument("--return-period", type=float, default=None)
    p.add_argument("--f-level", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_quantile)

    p = sub.add_parser("benchmark", help="Monte Carlo indices for one cell")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--replicates", type=int, default=DEFAULT_REPLICATES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument(
        "--formulas",
        default="all",
        help="comma-separated formula ids, or 'all' (default)",
    )
    p.add_argument("--no-mle", action="store_true", help="skip the likelihood baseline")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("gof", help="modified Anderson-Darling normality check")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--params",
        default="self",
        help="'self' (estimate mean/sd) or 'fixed:MEAN,SD'",
    )
    p.add_argument(
        "--log-threshold",
        type=float,
        default=None,
        help="test log(value - C) keeping only values above C",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gof)

    p = sub.add_parser("bradyseism", help="run the embedded seismic case study")
    p.add_argument("--method", choices=(OLS, GLS), default=OLS)
    p.add_argument("--c", type=float, default=1.0, help="magnitude threshold")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--level", type=float, default=5.0, help="exceedance level")
    p.add_argument("--plots", default=None, help="directory for per-month SVGs")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bradyseism)

    p = sub.add_parser("plot", help="draw probability paper for a dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--family", required=True)
    _formula_arg(p)
    p.add_argument("--method", choices=(OLS, GLS), default=OLS)
    p.add_argument("--no-fit", action="store_true")
    p.add_argument("--title", default=None)
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage problems; fold the
        # latter onto the documented usage-error code
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:  # computation / data errors
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
