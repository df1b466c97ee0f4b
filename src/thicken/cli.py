"""Command-line interface.

Subcommands: verify (run a campaign from a config file), wasserstein
(distance and optimal plan between two measure files), skeleton (enumerate
the simplices a point set spans), experiment (run a registered scripted
experiment), project (nearest-point projection onto a shape).

Exit codes: 0 success/PASS, 1 FAIL verdict or geometric failure,
2 configuration or usage error, 3 internal error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .complexes import ComplexSpec, FLAVORS, format_skeleton
from .errors import ConfigError, DimensionMismatch, MedialAxisProximity, ThickenError
from .harness import EXPERIMENTS, parse_config, parse_shape, run_campaign
from .shapes import project, sample
from .transport import parse_measure_text, wasserstein1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from None


def _parse_points_text(text: str) -> tuple:
    pts = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            pts.append(tuple(float(tok) for tok in line.replace(",", " ").split()))
        except ValueError:
            raise ConfigError(f"line {lineno}: malformed point {line!r}") from None
    if not pts:
        raise ConfigError("no points found")
    return tuple(pts)


def _cmd_verify(args) -> int:
    config = parse_config(_read_text(args.config))
    if args.timing:
        config = dataclasses.replace(config, timing=True)
    result = run_campaign(config)
    text = result.to_json_lines() if args.json_lines else result.to_csv()
    out_path = args.out or config.out
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path!r}: {exc}") from None
    else:
        sys.stdout.write(text)
    print(f"verdict: {result.verdict}", file=sys.stderr)
    return EXIT_PASS if result.verdict in ("PASS", "WARN", "SKIP") else EXIT_FAIL


def _cmd_wasserstein(args) -> int:
    mu = parse_measure_text(_read_text(args.measure_a))
    nu = parse_measure_text(_read_text(args.measure_b))
    value, plan = wasserstein1(mu, nu)
    entries = plan.array()
    if args.json_lines:
        sys.stdout.write(json.dumps({"value": value}) + "\n")
        for i in range(entries.shape[0]):
            for j in range(entries.shape[1]):
                if entries[i, j] > 0:
                    sys.stdout.write(json.dumps(
                        {"i": i, "j": j, "mass": entries[i, j]}) + "\n")
    else:
        sys.stdout.write(f"value,{format(value, '.17g')}\n")
        sys.stdout.write("i,j,mass\n")
        for i in range(entries.shape[0]):
            for j in range(entries.shape[1]):
                if entries[i, j] > 0:
                    sys.stdout.write(f"{i},{j},{format(entries[i, j], '.17g')}\n")
    return EXIT_PASS


def _cmd_skeleton(args) -> int:
    points = _parse_points_text(_read_text(args.points))
    shape = parse_shape(args.shape) if args.shape else None
    try:
        spec = ComplexSpec(args.flavor, args.scale, strict=args.strict, shape=shape)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    witnesses = ()
    if args.flavor == "cech-intrinsic":
        if args.witnesses < 1:
            raise ConfigError(f"--witnesses must be >= 1, got {args.witnesses}")
        if not 0 <= args.seed < 2**64:
            raise ConfigError(f"--seed must be >= 0 and below 2**64, got {args.seed}")
        witnesses = sample(shape, args.witnesses, args.seed)
    sys.stdout.write(format_skeleton(points, spec, args.max_dim, witnesses=witnesses) + "\n")
    return EXIT_PASS


def _cmd_experiment(args) -> int:
    run = EXPERIMENTS.get(args.name)
    if run is None:
        raise ConfigError(f"unknown experiment {args.name!r}; "
                          f"registered: {sorted(EXPERIMENTS)}")
    result = run()
    sys.stdout.write(result.to_json_lines() if args.json_lines else result.to_csv())
    print(f"verdict: {result.verdict}", file=sys.stderr)
    return EXIT_PASS if result.verdict == "PASS" else EXIT_FAIL


def _cmd_project(args) -> int:
    shape = parse_shape(args.shape)
    point = _parse_points_text(args.point)[0]
    try:
        p = project(shape, np.asarray(point, dtype=float))
    except DimensionMismatch as exc:
        raise ConfigError(str(exc)) from None
    except MedialAxisProximity as exc:
        print(f"medial-axis tie: {exc}", file=sys.stderr)
        return EXIT_FAIL
    sys.stdout.write(" ".join(format(c, ".17g") for c in p) + "\n")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thicken",
        description="Randomized verification of thickening retraction lemmas "
                    "on positive-reach shapes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a lemma campaign from a config file")
    p.add_argument("config", help="flat key=value config file")
    p.add_argument("--out", help="write rows to this path instead of stdout")
    p.add_argument("--json-lines", action="store_true", help="emit JSON objects, one per row")
    p.add_argument("--timing", action="store_true",
                   help="append a wall_time_ms column (breaks byte determinism)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("wasserstein", help="distance and optimal plan between two measures")
    p.add_argument("measure_a", help="file with one atom per line: weight then coordinates")
    p.add_argument("measure_b")
    p.add_argument("--json-lines", action="store_true")
    p.set_defaults(fn=_cmd_wasserstein)

    p = sub.add_parser("skeleton", help="enumerate simplices spanned by a point set")
    p.add_argument("points", help="file with one point per line")
    p.add_argument("--flavor", choices=FLAVORS, default="vr")
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--strict", action="store_true", help="use the strict inequality")
    p.add_argument("--max-dim", type=int, default=2)
    p.add_argument("--shape", help="config-style descriptor, e.g. 'shape=circle radius=1'")
    p.add_argument("--witnesses", type=int, default=1024,
                   help="on-shape witness candidates for the intrinsic flavor")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=_cmd_skeleton)

    p = sub.add_parser("experiment", help="run a registered experiment")
    p.add_argument("name", help="experiment id, e.g. s0-tightness")
    p.add_argument("--json-lines", action="store_true")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("project", help="nearest-point projection onto a shape")
    p.add_argument("shape", help="config-style descriptor, e.g. 'shape=ellipse a=2 b=1'")
    p.add_argument("point", help="coordinates, e.g. '2,0' or '2 0'")
    p.set_defaults(fn=_cmd_project)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ThickenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
