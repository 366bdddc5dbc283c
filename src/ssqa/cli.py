"""ssqa-bench: command line front end for the benchmark harness.

Subcommands: run, sweep-replicas, sweep-steps, compare, info. Options can
come from a JSON config file (--config); explicit flags override it.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 integrity
failure (a reported cut exceeded the registered best-known value). The
config checks are RunConfig's own; the CLI maps their errors to exit 2, and
so the engines' pre-run check that the schedule fits a 63-bit accumulator
and the model's check that every weight fits its bit-width.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import bench, gset, hwsim
from .bench import IntegrityError, RunConfig
from .ising import WeightRangeError
from .solver import AccumulatorWidthError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTEGRITY = 4


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _int_list(text: str):
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("list must not be empty")
    return values


_CONFIG_FIELDS = [f.name for f in dataclasses.fields(RunConfig)]


def _add_common(parser):
    parser.add_argument("--config", help="JSON file of option defaults (flags win)")
    parser.add_argument("--instance", help="registry name (e.g. G11) or file path")
    parser.add_argument("--engine", choices=bench.ENGINES)
    parser.add_argument("--delay", dest="delay_kind", choices=hwsim.DELAY_KINDS)
    parser.add_argument("--replicas", type=int)
    parser.add_argument("--steps", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--q-min", dest="q_min", type=float)
    parser.add_argument("--q-max", dest="q_max", type=float)
    parser.add_argument("--q-tau", dest="q_tau", type=int)
    parser.add_argument("--q-beta", dest="q_beta", type=float)
    parser.add_argument("--i0", help="saturation bound: 'v' or 'start:end'")
    parser.add_argument("--n-rnd", dest="n_rnd", help="noise gain: 'v' or 'start:end'")
    parser.add_argument("--fclk", dest="f_clk", type=float)
    parser.add_argument("--power", dest="power_w", type=float)
    parser.add_argument("--utilization", type=float)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--out", help="output prefix; writes <out>.json and <out>.csv")


def _build_config(args, suffix="") -> RunConfig:
    """Layer config file values under explicit flags (flags win). With a
    suffix, a flag <name><suffix> (e.g. --steps-b) wins over <name>."""
    values = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise _CliError(EXIT_IO, f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise _CliError(EXIT_CONFIG, f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise _CliError(EXIT_CONFIG, "config file must hold a JSON object")
        for key, val in loaded.items():
            if key not in _CONFIG_FIELDS:
                raise _CliError(EXIT_CONFIG, f"unknown config key {key!r}")
            values[key] = val
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name + suffix, None)
        if flag is None and suffix:
            flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return _run_config(values)


def _run_config(values: dict) -> RunConfig:
    """RunConfig(**values), with a bad field raised as a configuration
    error (exit 2)."""
    try:
        return RunConfig(**values)
    except (TypeError, ValueError) as exc:
        raise _CliError(EXIT_CONFIG, str(exc))


def _check_out_dir(args):
    """With --out: fail before the first trial, as writing would after the
    last one, when the prefix's directory cannot take the output files."""
    if args.out:
        directory = os.path.dirname(args.out) or os.curdir
        if not (os.path.isdir(directory) and os.access(directory, os.W_OK | os.X_OK)):
            raise _CliError(EXIT_IO, f"cannot write output: {directory!r} is not a "
                                     f"writable directory")


def _write_outputs(args, payload: str, summaries, extra_cols=(),
                   oneliner: str | None = None):
    """With --out: write <out>.json / <out>.csv (extra_cols lead each CSV
    row) and print a one-line summary. Without --out: print the full JSON
    document to stdout."""
    if args.out:
        try:
            with open(args.out + ".json", "w") as fh:
                fh.write(payload + "\n")
            bench.write_trials_csv(args.out + ".csv", summaries, extra_cols)
        except OSError as exc:
            raise _CliError(EXIT_IO, f"cannot write output: {exc}")
        print(oneliner or f"wrote {args.out}.json and {args.out}.csv")
    else:
        print(payload)


def cmd_run(args):
    config = _build_config(args)
    _check_out_dir(args)
    summary = bench.run_trials(config)
    s = summary.summary_dict()
    norm = f", normalized {s['normalized_mean']:.4f}" if "normalized_mean" in s else ""
    line = (f"{config.instance} {config.engine}: {config.trials} trials, "
            f"mean {s['mean']:.1f} +- {s['std']:.1f}, best {s['max']}{norm} "
            f"-> {args.out}.json/.csv" if args.out else "")
    _write_outputs(args, summary.as_json(), [((), summary)], oneliner=line or None)


def cmd_sweep(args):
    config = _build_config(args)
    field = args.sweep_field
    # Every point's config is checked before the first trial of any point.
    for value in args.values:
        _run_config({**dataclasses.asdict(config), field: value})
    _check_out_dir(args)
    results = bench.sweep(config, field, args.values)
    payload = json.dumps({
        "instance": config.instance,
        "engine": config.engine,
        "sweep": field,
        "points": [{field: v, "summary": s.summary_dict()} for (v,), s in results],
    }, indent=2)
    _write_outputs(args, payload, results, extra_cols=(field,))


def cmd_compare(args):
    config_a = _build_config(args)
    config_b = _build_config(args, suffix="_b")
    _check_out_dir(args)
    report, sa, sb = bench.compare(config_a, config_b)
    payload = json.dumps({"instance": config_a.instance, "compare": report}, indent=2)
    _write_outputs(args, payload, [(("a",), sa), (("b",), sb)], extra_cols=("side",))


def cmd_info(args):
    if args.instance:
        try:
            record = gset.registry_lookup(args.instance)
        except gset.UnknownInstanceError:
            raise _CliError(EXIT_CONFIG, f"unknown instance {args.instance!r}; "
                            f"known: {', '.join(gset.registry_names())}")
        info = dataclasses.asdict(record)
        info["bundled"] = args.instance in gset.bundled_instance_names()
        if info["bundled"]:
            graph = gset.load_instance(args.instance)
            info["total_weight"] = graph.total_weight
        print(json.dumps(info, indent=2))
    else:
        print(gset.registry_as_json())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssqa-bench",
        description="Benchmark p-bit annealing engines on MAX-CUT instances.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configuration for N trials")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    for field, what, example in (("replicas", "replica counts", "1,2,5,10,20"),
                                 ("steps", "step budgets", "100,200,500")):
        p_sw = sub.add_parser(f"sweep-{field}", help=f"repeat a run across {what}")
        _add_common(p_sw)
        p_sw.add_argument(f"--{field}-list", dest="values", metavar=f"{field.upper()}_LIST",
                          type=_int_list, required=True,
                          help=f"comma-separated {what}, e.g. {example}")
        p_sw.set_defaults(func=cmd_sweep, sweep_field=field)

    p_cmp = sub.add_parser("compare", help="paired run of two engine configurations")
    _add_common(p_cmp)
    p_cmp.add_argument("--engine-b", choices=bench.ENGINES,
                       help="engine for side B (defaults to side A's)")
    p_cmp.add_argument("--steps-b", dest="steps_b", type=int)
    p_cmp.add_argument("--replicas-b", dest="replicas_b", type=int)
    p_cmp.add_argument("--delay-b", dest="delay_kind_b", choices=hwsim.DELAY_KINDS)
    p_cmp.set_defaults(func=cmd_compare)

    p_info = sub.add_parser("info", help="print instance registry metadata")
    p_info.add_argument("--instance", help="one instance; omit for the full registry")
    p_info.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except _CliError as exc:
        print(f"ssqa-bench: error: {exc}", file=sys.stderr)
        return exc.code
    except (AccumulatorWidthError, WeightRangeError) as exc:
        print(f"ssqa-bench: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrityError as exc:
        print(f"ssqa-bench: integrity failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except gset.GsetParseError as exc:
        print(f"ssqa-bench: parse error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"ssqa-bench: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
