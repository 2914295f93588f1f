"""Command line entry points.

Subcommands: crb (bound tables), simulate (one scenario, both estimators),
sweep (Monte-Carlo grid), compare (method report from a summary CSV), plot
(SVG chart from a summary CSV).  All commands are non-interactive and their
outputs are fully determined by flags and config files.

Exit codes: 0 success, 1 estimator hard failure (simulate), 2 usage or
config errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bounds import CONSTANTS_NOTE, OperatingPoint, freq_crb_dual
from .experiments import (
    METHODS,
    ExperimentConfig,
    _fmt,
    check_methods,
    compare_report,
    config_from_dict,
    config_section,
    read_summary_csv,
    render_compare_text,
    run_method,
    run_sweep,
)
from .omp import OmpConfig
from .signal_core import (
    NoiseConfig,
    SamplingScheme,
    Scenario,
    ToneParams,
    add_noise,
    synthesize,
)
from .sngem import EstimationError, EstimatorConfig
from .svgplot import plot_spec_from_dict, save_chart

OBSERVATION_COLUMNS = ("t", "x", "xdot")
TRUTH_COLUMNS = ("tone_idx", "f_true_hz", "a_true", "phi_true_rad")
ESTIMATE_COLUMNS = (
    "method",
    "f_hat",
    "a_hat",
    "phi_hat",
    "ratio",
    "f_ratio",
    "fold_index",
    "mirror",
)

_CRB_COLUMNS = (
    "n_samples",
    "snr_db",
    "frequency",
    "amp_var_bound",
    "amp_relvar_bound",
    "ratio_var_bound",
    "ratio_relvar_bound",
    "freq_relvar_single_channel",
    "freq_relvar_bound",
    "penalty_db",
)


def parse_sweep(text: str, integer: bool = False):
    """Parse a swept flag value: a number or inclusive start:step:stop."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            values = [float(parts[0])]
        elif len(parts) == 3:
            start, step, stop = (float(p) for p in parts)
            if step <= 0.0:
                raise ValueError(f"sweep step must be positive in {text!r}")
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            if count < 1:
                raise ValueError(f"sweep {text!r} contains no values")
            values = [start + i * step for i in range(count)]
        else:
            raise ValueError(f"expected a number or start:step:stop, got {text!r}")
    except ValueError as exc:
        # argparse turns ValueError from a type callable into exit code 2
        raise ValueError(str(exc) or f"bad numeric value {text!r}") from None
    if integer:
        for v in values:
            if abs(v - round(v)) > 1e-9:
                raise ValueError(f"expected integer values, got {v} in {text!r}")
        return [int(round(v)) for v in values]
    return values


# argparse reports only an ArgumentTypeError's own message; for any other
# error it prints the converter's function name instead of the reason
def _sweep_arg(text: str, integer: bool = False):
    try:
        return parse_sweep(text, integer=integer)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_sweep_arg(text: str):
    return _sweep_arg(text, integer=True)


def load_json(path):
    """Read a JSON document; parse errors carry line and column."""
    raw = Path(path).read_text()
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None


def scenario_from_dict(doc: dict) -> Scenario:
    # Scenario.__post_init__ reads the tones, so they are built first
    if isinstance(doc, dict) and "tones" in doc:
        if not isinstance(doc["tones"], list):
            raise ValueError("scenario tones must be a JSON list")
        tones = [
            config_from_dict(ToneParams, tdoc, f"scenario tones[{i}]")
            for i, tdoc in enumerate(doc["tones"])
        ]
        doc = dict(doc, tones=tones)
    return config_from_dict(Scenario, doc, "scenario")


def scheme_from_dict(doc: dict) -> SamplingScheme:
    return config_from_dict(SamplingScheme, doc, "scheme")


def noise_from_dict(doc: dict, scenario: Scenario) -> NoiseConfig:
    """Noise section: sigma_x directly, or snr_db relative to the strongest tone."""
    if not isinstance(doc, dict):
        raise ValueError("noise must be a JSON object")
    if ("sigma_x" in doc) == ("snr_db" in doc):
        raise ValueError("noise needs exactly one of sigma_x or snr_db")
    if "snr_db" in doc:
        doc = dict(doc)
        snr_db = doc.pop("snr_db")
        if not isinstance(snr_db, (int, float)):
            raise ValueError(f"noise snr_db must be a number, got {snr_db!r}")
        snr = 10.0 ** (float(snr_db) / 10.0)
        doc["sigma_x"] = float(np.max(scenario.amplitudes)) / math.sqrt(2.0 * snr)
    return config_from_dict(NoiseConfig, doc, "noise")


@dataclass(frozen=True)
class SimulateConfig:
    """The simulate command's config; sections may be given as JSON objects."""

    scenario: Scenario
    scheme: SamplingScheme
    noise: NoiseConfig | None = None
    methods: tuple = METHODS
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    omp: OmpConfig = field(default_factory=OmpConfig)

    def __post_init__(self):
        if not isinstance(self.scenario, Scenario):
            object.__setattr__(self, "scenario", scenario_from_dict(self.scenario))
        if not isinstance(self.scheme, SamplingScheme):
            object.__setattr__(self, "scheme", scheme_from_dict(self.scheme))
        if self.noise is not None and not isinstance(self.noise, NoiseConfig):
            object.__setattr__(self, "noise", noise_from_dict(self.noise, self.scenario))
        object.__setattr__(self, "methods", check_methods(self.methods))
        object.__setattr__(
            self, "estimator", config_section(EstimatorConfig, self.estimator, "estimator")
        )
        object.__setattr__(self, "omp", config_section(OmpConfig, self.omp, "omp"))


def simulate_config_from_dict(doc: dict) -> SimulateConfig:
    return config_from_dict(SimulateConfig, doc, "simulate config")


def cmd_crb(args) -> int:
    rows = []
    for n in args.n:
        for snr_db in args.snr_db:
            for freq in args.freq:
                op = OperatingPoint(
                    n_samples=n, snr=10.0 ** (snr_db / 10.0), frequency=freq
                )
                rep = freq_crb_dual(op)
                # the columns after (n_samples, snr_db, frequency) are CrbReport fields
                rows.append(
                    (n, snr_db, freq, *(getattr(rep, c) for c in _CRB_COLUMNS[3:]))
                )
    note = CONSTANTS_NOTE
    if args.csv:
        writer = csv.writer(sys.stdout)
        print(f"# {note}")
        writer.writerow(_CRB_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        return 0
    cells = [[f"{v:.6g}" if isinstance(v, float) else str(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(_CRB_COLUMNS)
    ]
    print("  ".join(h.rjust(w) for h, w in zip(_CRB_COLUMNS, widths)))
    for r in cells:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    print(f"\nnote: {note}")
    return 0


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_simulate(args) -> int:
    cfg = simulate_config_from_dict(load_json(args.config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    obs = synthesize(cfg.scenario, cfg.scheme)
    if cfg.noise is not None:
        obs = add_noise(obs, cfg.noise, args.seed)

    _write_csv(
        out / "observation.csv",
        OBSERVATION_COLUMNS,
        (
            (_fmt(float(t)), _fmt(float(x)), _fmt(float(d)))
            for t, x, d in zip(obs.times, obs.x, obs.xdot)
        ),
    )
    _write_csv(
        out / "truth.csv",
        TRUTH_COLUMNS,
        (
            (_fmt(i), _fmt(t.frequency), _fmt(t.amplitude), _fmt(t.phase))
            for i, t in enumerate(cfg.scenario.tones)
        ),
    )

    est_rows = []
    for method in cfg.methods:
        try:
            result = run_method(
                method, obs, cfg.estimator, cfg.omp, cfg.scenario.band_limit
            )
        except (EstimationError, np.linalg.LinAlgError, ValueError) as exc:
            print(f"{method} failed: {exc}", file=sys.stderr)
            return 1
        for w in result.warnings:
            print(f"{method}: {w}", file=sys.stderr)
        for failure in result.failures:
            print(
                f"{method}: component at alias "
                f"{failure.alias_frequency:.6g} Hz failed: {failure.reason}",
                file=sys.stderr,
            )
        # a field the method leaves None (OMP's ratio and fold) is an empty cell
        for t in result.tones:
            row = (method, t.frequency, t.amplitude, t.phase,
                   t.ratio, t.f_ratio, t.fold_index, t.mirror)
            est_rows.append([_fmt(v) for v in row])
    _write_csv(out / "estimates.csv", ESTIMATE_COLUMNS, est_rows)
    return 0


def cmd_sweep(args) -> int:
    cfg = ExperimentConfig.from_dict(load_json(args.config))
    run_sweep(cfg, out_dir=args.out_dir)
    out = Path(args.out_dir)
    print(f"wrote {out / 'trials.csv'}, {out / 'summary.csv'}, {out / 'config_echo.json'}")
    return 0


def cmd_compare(args) -> int:
    summary = read_summary_csv(args.input)
    report = compare_report(summary)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_compare_text(report))
    return 0


def cmd_plot(args) -> int:
    summary = read_summary_csv(args.input)
    doc = {} if args.spec is None else load_json(args.spec)
    spec = plot_spec_from_dict(doc)
    out = args.out or spec.output
    if out is None:
        raise ValueError("no output path: pass --out or set output in the spec")
    save_chart(summary, spec, out)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subnyq",
        description="dual-channel sub-Nyquist tone estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_crb = sub.add_parser("crb", help="print frequency/amplitude bound tables")
    p_crb.add_argument("--n", type=_int_sweep_arg, required=True, help="sample count, sweepable as start:step:stop")
    p_crb.add_argument("--snr-db", type=_sweep_arg, required=True, help="SNR in dB, sweepable")
    p_crb.add_argument("--freq", type=_sweep_arg, required=True, help="tone frequency in Hz, sweepable")
    p_crb.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    p_crb.set_defaults(func=cmd_crb)

    p_sim = sub.add_parser("simulate", help="run both estimators on one scenario")
    p_sim.add_argument("--config", required=True, help="simulate config JSON")
    p_sim.add_argument("--seed", type=int, default=0, help="noise seed")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a Monte-Carlo sweep")
    p_sweep.add_argument("--config", required=True, help="experiment config JSON")
    p_sweep.add_argument("--out-dir", required=True, help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="method comparison from a summary CSV")
    p_cmp.add_argument("--in", dest="input", required=True, help="summary CSV path")
    p_cmp.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_cmp.set_defaults(func=cmd_compare)

    p_plot = sub.add_parser("plot", help="render a summary CSV to an SVG chart")
    p_plot.add_argument("--in", dest="input", required=True, help="summary CSV path")
    p_plot.add_argument("--spec", default=None, help="plot spec JSON path")
    p_plot.add_argument("--out", default=None, help="output SVG path")
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
