"""Command-line front end: single fits, dataset dumps and benchmark sweeps.

Subcommands:

  fit       fit one dataset from a flat file, write a JSON report
  simulate  dump generated scenario replicates in the flat sample format
  sweep     Monte Carlo grid over (dimension x dilation x method), CSV out

Sweep outputs are deterministic byte for byte given the same
configuration and seed: per-replicate wall times go to a JSONL sidecar
(timings.txt), never into the CSVs.  The default output directory can
be set with the SPARSEMIX_OUT environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace

from . import __version__
from .baseline import baseline_fit
from .evaluate import METHODS, run_mc_cell
from .model import Hyperparams, NumericalError, SampleSet, as_int, no_bool
from .simulate import ScenarioConfig, gen_replicate, read_sample, write_sample
from .sparse_em import run as sparse_fit

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

OUT_ENV_VAR = "SPARSEMIX_OUT"


@dataclass
class SweepSpec:
    """One sweep's settings: the single definition of each name, default and type.

    The field names are the keys of a ``--config`` JSON file, the
    destinations of the sweep flags and the keys of ``manifest.json``;
    ``--points`` sets ``n_points`` and ``--components`` sets
    ``components``.  ``hyperparams`` holds the fit settings (a config
    file gives them as a dict keyed by ``Hyperparams`` field names); its
    seed is always the sweep ``seed``.  Values are cast to the field
    types here, so a config file may give ``10`` for a dilation, but not
    ``2.5`` for an integer setting, nor ``true`` for a number; ``out`` is
    a path, a string or ``os.PathLike``, never a number or a bool.
    """

    dims: tuple = (2,)
    dilations: tuple = (10.0, 30.0, 50.0, 70.0, 100.0)
    methods: tuple = METHODS
    replicates: int = 100
    seed: int = 0
    out: str = "sweep_out"
    jobs: int = 1
    n_points: int = ScenarioConfig.n_points
    components: int = ScenarioConfig.K
    weights: tuple = ScenarioConfig.weights
    variances: tuple = ScenarioConfig.variances
    hyperparams: Hyperparams = field(default_factory=Hyperparams)

    def __post_init__(self):
        self.dims = tuple(as_int("dims", d, 1) for d in self.dims)
        self.dilations = tuple(float(x) for x in no_bool("dilations", self.dilations))
        self.methods = tuple(self.methods)
        self.weights = tuple(float(w) for w in no_bool("weights", self.weights))
        self.variances = tuple(float(v) for v in no_bool("variances", self.variances))
        for name, minimum in (("replicates", 1), ("seed", 0), ("jobs", 1), ("n_points", 1), ("components", 1)):
            setattr(self, name, as_int(name, getattr(self, name), minimum))
        if not isinstance(self.out, (str, os.PathLike)):
            raise ValueError(f"out must be a path, got {self.out!r}")
        self.out = os.fspath(self.out)
        self.hyperparams = replace(self.hyperparams, seed=self.seed)
        for name in ("dims", "dilations", "methods"):  # a repeat would fit and write its cells twice
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be non-empty, got {values!r}")
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat a value, got {values!r}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if self.n_points < self.components:
            raise ValueError(f"points must be >= components, got points={self.n_points}, components={self.components}")
        for dim in self.dims:
            for dilation in self.dilations:
                self.scenario(dim, dilation)

    def scenario(self, dim: int, dilation: float) -> ScenarioConfig:
        return ScenarioConfig(
            dim=dim,
            dilation=dilation,
            n_points=self.n_points,
            K=self.components,
            weights=self.weights,
            variances=self.variances,
            replicates=self.replicates,
            seed=self.seed,
        )


def fmt_num(x) -> str:
    """Compact stable rendering: integral floats lose the trailing .0."""
    f = float(x)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def cube_label(dilation: float) -> str:
    half = float(dilation) / 2.0
    return f"dilation={fmt_num(dilation)};cube=[{fmt_num(-half)}..{fmt_num(half)}]"


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    try:
        points, _labels = read_sample(args.input)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        Y = SampleSet(points)
    except ValueError as err:
        print(f"error: {args.input}: {err}", file=sys.stderr)
        return EXIT_USAGE

    try:
        hp = hyperparams_from_args(args)
        if not 1 <= args.components <= Y.n:
            raise ValueError(f"--components must lie in [1, n={Y.n}], got {args.components}")
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE

    out = args.out or default_report_path(args.input)
    open(out, "w", encoding="ascii").close()  # a report path that cannot be written exits 2 before the fit
    sparse = args.method == "sparse"
    try:
        rep = (sparse_fit if sparse else baseline_fit)(Y, args.components, hp)
    except NumericalError as err:
        os.remove(out)  # no report, as for every other failure
        print(f"error: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL

    trace = rep.objective_trace if sparse else rep.loglik_trace
    report = {
        "method": args.method,
        "weights": rep.params.weights.tolist(),
        "means": Y.uncenter(rep.params.means(Y) if sparse else rep.params.means).tolist(),
        "variances": rep.params.variances.tolist(),
        "assignments": rep.assignments.tolist(),
        "objective_trace": trace.tolist(),
        "converged": rep.converged,
        "cycles": rep.cycles_run if sparse else rep.iterations,
        "restart_index": rep.restart_index,
        "reseed_events": [list(e) for e in rep.reseed_events],
        "diagnostic": rep.diagnostic,
    }
    if sparse:
        report["betas"] = rep.params.betas.tolist()
        report["beta_kkt_residuals"] = rep.beta_kkt_residuals.tolist()
        report["lams"] = rep.lams.tolist()
    report.update(
        {
            "input": str(args.input),
            "components": args.components,
            "n": Y.n,
            "dim": Y.d,
            "center_offset": Y.center_offset.tolist(),
            "seed": hp.seed,
            "version": __version__,
        }
    )
    with open(out, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"fit method={args.method} K={args.components} n={Y.n} d={Y.d} "
        f"converged={rep.converged} cycles={report['cycles']} objective={float(trace[-1]):.6f} report={out}"
    )
    return EXIT_OK


def default_report_path(input_path: str) -> str:
    base = os.path.basename(str(input_path))
    stem = base.rsplit(".", 1)[0] if "." in base else base
    out_dir = os.environ.get(OUT_ENV_VAR, os.path.dirname(str(input_path)) or ".")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, stem + ".report.json")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    out_dir = resolve_out(args.out)
    try:
        cfg = ScenarioConfig(**{f.name: getattr(args, f.name) for f in fields(ScenarioConfig)})
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(out_dir, exist_ok=True)
    for r in range(cfg.replicates):
        sample = gen_replicate(cfg, r)
        name = f"sample_dim{cfg.dim}_dilation{fmt_num(cfg.dilation)}_rep{r}.txt"
        write_sample(os.path.join(out_dir, name), sample)
    print(f"simulate wrote {cfg.replicates} replicate files to {out_dir}")
    return EXIT_OK


def resolve_out(out_flag) -> str:
    return str(out_flag) if out_flag else os.environ.get(OUT_ENV_VAR, ".")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    try:
        spec = build_sweep_spec(args)
    except (ValueError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE

    os.makedirs(spec.out, exist_ok=True)
    results = {}
    failures = []
    for dim in spec.dims:
        for dilation in spec.dilations:
            for method in spec.methods:
                scenario = spec.scenario(dim, dilation)
                t0 = time.perf_counter()
                try:
                    results[(dim, dilation, method)] = run_mc_cell(
                        scenario, method, spec.hyperparams, jobs=spec.jobs
                    )
                except Exception as err:  # record, keep sweeping
                    failures.append({"dim": dim, "dilation": dilation, "method": method, "error": str(err)})
                    continue
                elapsed = time.perf_counter() - t0
                print(
                    f"cell dim={dim} {cube_label(dilation)} method={method} "
                    f"ancrci={results[(dim, dilation, method)].ancrci:.3f} ({elapsed:.1f}s)"
                )

    write_ancrci_tables(spec, results)
    write_replicate_csv(spec, results)
    write_plot_files(spec, results)
    write_timings(spec, results)
    write_manifest(spec, results, failures)
    print(f"sweep wrote outputs to {spec.out}")
    return EXIT_OK if not failures else EXIT_NUMERICAL


def build_sweep_spec(args) -> SweepSpec:
    """The sweep's settings: flags over the config file over the ``SweepSpec`` defaults."""
    settings = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            settings = json.load(fh)
        unknown = set(settings) - {f.name for f in fields(SweepSpec)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for f in fields(SweepSpec):
        flag = getattr(args, f.name, None)
        if flag is not None:
            settings[f.name] = flag
    if settings.get("out") in (None, ""):  # any other value, false and 0 included, is checked by SweepSpec
        settings["out"] = os.environ.get(OUT_ENV_VAR) or SweepSpec.out
    settings["hyperparams"] = hyperparams_from_args(args, settings)
    return SweepSpec(**settings)


def write_ancrci_tables(spec: SweepSpec, results) -> None:
    for method in spec.methods:
        path = os.path.join(spec.out, f"ancrci_{method}.csv")
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dim"] + [cube_label(dil) for dil in spec.dilations])
            for dim in spec.dims:
                row = [str(dim)]
                for dil in spec.dilations:
                    res = results.get((dim, dil, method))
                    row.append(repr(res.ancrci) if res is not None else "")
                writer.writerow(row)


def write_replicate_csv(spec: SweepSpec, results) -> None:
    path = os.path.join(spec.out, "replicates.csv")
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dim", "dilation", "method", "replicate", "correct", "converged", "data_hash"])
        for dim in spec.dims:
            for dil in spec.dilations:
                for method in spec.methods:
                    res = results.get((dim, dil, method))
                    if res is None:
                        continue
                    for rec in res.records:
                        writer.writerow(
                            [str(dim), fmt_num(dil), method, str(rec.replicate),
                             str(rec.correct), str(rec.converged).lower(), rec.data_hash]
                        )


def write_plot_files(spec: SweepSpec, results) -> None:
    for (dim, dil, method), res in sorted(results.items()):
        name = f"plot_{method}_dim{dim}_dilation{fmt_num(dil)}.csv"
        with open(os.path.join(spec.out, name), "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["replicate", "correct"])
            for rec in res.records:
                writer.writerow([str(rec.replicate), str(rec.correct)])


def write_timings(spec: SweepSpec, results) -> None:
    path = os.path.join(spec.out, "timings.txt")
    with open(path, "w", encoding="ascii") as fh:
        for (dim, dil, method), res in sorted(results.items()):
            for rec in res.records:
                fh.write(
                    json.dumps(
                        {
                            "dim": dim,
                            "dilation": dil,
                            "method": method,
                            "replicate": rec.replicate,
                            "seconds": rec.seconds,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


def write_manifest(spec: SweepSpec, results, failures) -> None:
    cells = {}
    for (dim, dil, method), res in results.items():
        key = f"dim={dim};{cube_label(dil)};method={method}"
        cells[key] = {
            "ancrci": res.ancrci,
            "replicates": len(res.records),
            "non_converged": sum(1 for r in res.records if not r.converged),
            "total_seconds": sum(r.seconds for r in res.records),
        }
    manifest = asdict(spec)
    del manifest["out"]
    manifest.update(version=__version__, cells=cells, failures=failures)
    with open(os.path.join(spec.out, "manifest.json"), "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def hyperparams_from_args(args, settings=None) -> Hyperparams:
    """Hyperparams from the flags, over the sweep config's ``hyperparams`` block.

    For a sweep, ``settings`` is its (possibly empty) config overlaid
    with its flags, and ``SweepSpec`` then sets the seed to the sweep
    seed; for ``fit`` the ``--seed`` flag sets it.
    """
    names = [f.name for f in fields(Hyperparams)]
    kw = dict(settings.get("hyperparams", {})) if settings is not None else {}
    unknown = set(kw) - set(names)
    if unknown:
        raise ValueError(f"unknown hyperparams keys: {sorted(unknown)}")
    for key in names:
        if getattr(args, key) is not None:
            kw[key] = getattr(args, key)
    return Hyperparams(**kw)


def add_hyperparam_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="fixed l1 penalty weight (default: adaptive heuristic)")
    parser.add_argument("--max-cycles", type=int, default=None, help="iteration budget per restart")
    parser.add_argument("--tol", type=float, default=None, help="relative objective convergence tolerance")
    parser.add_argument("--variance-floor", type=float, default=None, help="minimal component variance")
    parser.add_argument("--restarts", type=int, default=None, help="random restarts per fit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsemix",
        description="Sparse self-regression Gaussian mixture estimation and benchmarks",
    )
    parser.add_argument("--version", action="version", version=f"sparsemix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one dataset from a flat sample file")
    p_fit.add_argument("input", help="sample file (header 'd n K' format or headerless table)")
    p_fit.add_argument("--components", "-K", type=int, required=True, help="number of mixture components")
    p_fit.add_argument("--method", choices=list(METHODS), default="sparse")
    p_fit.add_argument("--seed", type=int, default=None)
    p_fit.add_argument("--out", default=None, help="report path (default: alongside input)")
    add_hyperparam_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="dump scenario replicates as flat sample files")
    p_sim.add_argument("--dim", type=int, required=True)
    p_sim.add_argument("--dilation", type=float, required=True)
    p_sim.add_argument("--points", dest="n_points", metavar="POINTS", type=int, default=ScenarioConfig.n_points)
    p_sim.add_argument("--components", "-K", dest="K", metavar="COMPONENTS", type=int, default=ScenarioConfig.K)
    p_sim.add_argument("--weights", type=float, nargs="+", default=ScenarioConfig.weights)
    p_sim.add_argument("--variances", type=float, nargs="+", default=ScenarioConfig.variances)
    p_sim.add_argument("--replicates", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo accuracy sweep, CSV outputs")
    p_sweep.add_argument("--config", default=None, help="JSON config file; flags override its values")
    p_sweep.add_argument("--dims", type=int, nargs="+", default=None)
    p_sweep.add_argument("--dilations", type=float, nargs="+", default=None)
    p_sweep.add_argument("--methods", nargs="+", choices=list(METHODS), default=None)
    p_sweep.add_argument("--replicates", type=int, default=None)
    p_sweep.add_argument("--points", dest="n_points", metavar="POINTS", type=int, default=None)
    p_sweep.add_argument("--components", "-K", type=int, default=None)
    p_sweep.add_argument("--weights", type=float, nargs="+", default=None)
    p_sweep.add_argument("--variances", type=float, nargs="+", default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--jobs", type=int, default=None)
    p_sweep.add_argument("--out", default=None)
    add_hyperparam_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as err:  # a file that cannot be read, created or written
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
