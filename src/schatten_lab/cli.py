"""Command-line interface: pairwise checks, law suites, and fixtures.

Exit codes: 0 the relation holds / all suites pass / all fixtures pass,
1 the relation fails (or a suite/fixture failed), 2 usage or input errors
(bad flags, unknown suites, unreadable or malformed matrix files, a suite
whose ensemble cannot produce a decisive draw).

Output is deterministic: the same arguments and seed produce byte-identical
text, and ``verify --json`` writes canonical (sorted-key) documents.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .laws import (EnsembleConfig, EnsembleMiscalibration, SUITES, fixtures,
                   run_fixtures, run_suite)
from .norms import INF, NormSpec
from .ortho import (
    PREDICATE_RTOL,
    bj_definitional,
    bj_trace,
    disjoint_supports,
    isosceles,
    semi_inner_product,
)
from .parallel import parallel_definitional

SEED_ENV_VAR = "SCHATTEN_LAB_SEED"

CHECK_KINDS = ("bj", "isosceles", "parallel", "supports", "sip")


class CliError(Exception):
    """Usage or input error; maps to exit code 2."""


def _parse_p(raw: str) -> float:
    if raw.lower() in ("inf", "infinity", "oo"):
        return INF
    try:
        value = float(raw)
    except ValueError as exc:
        raise CliError(f"invalid --p value {raw!r}") from exc
    return value


def _build_spec(norm: str, p_raw: str | None) -> NormSpec:
    if norm == "max":
        return NormSpec.max_norm()
    make = {"schatten": NormSpec.schatten, "induced": NormSpec.induced,
            "lp": NormSpec.lp}.get(norm)
    if make is None:
        raise CliError(f"unknown norm {norm!r}")
    p = _parse_p(p_raw) if p_raw is not None else 2.0
    try:
        return make(p)
    except ValueError as exc:
        raise CliError(f"invalid --p value {p_raw!r}: {exc}") from exc


def _is_int(x) -> bool:
    # JSON true/false arrive as Python bools, which are ints to isinstance.
    return isinstance(x, int) and type(x) is not bool


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and type(x) is not bool


def load_matrix(path: str) -> tuple[str, np.ndarray]:
    """Load a matrix-file JSON document; raises CliError with diagnostics."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:  # a binary file, such as a .npy array
        raise CliError(f"{path}: not a UTF-8 text file (byte {exc.start}: {exc.reason}); "
                       "expected a JSON matrix file") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise CliError(f"{path}: expected a JSON object at the top level")
    for key in ("rows", "cols", "entries"):
        if key not in doc:
            raise CliError(f"{path}: missing required key {key!r}")
    rows, cols = doc["rows"], doc["cols"]
    if not (_is_int(rows) and _is_int(cols)) or rows < 1 or cols < 1:
        raise CliError(f"{path}: rows and cols must be positive integers")
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise CliError(
            f"{path}: entries must list exactly rows*cols = {rows * cols} "
            f"pairs, found {len(entries) if isinstance(entries, list) else 'non-list'}"
        )
    values = np.empty(rows * cols, dtype=complex)
    for i, entry in enumerate(entries):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(_is_number(x) for x in entry)
        ):
            raise CliError(
                f"{path}: entry {i} must be a [re, im] pair of numbers"
            )
        try:
            values[i] = complex(entry[0], entry[1])
        except OverflowError as exc:
            raise CliError(f"{path}: entry {i} is out of floating-point range") from exc
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise CliError(f"{path}: name must be a string when present")
    return name or Path(path).name, values.reshape(rows, cols)


def _fmt_scalar(z: complex) -> str:
    return f"{z.real:+.12f}{z.imag:+.12f}j"


def _as_vector(name: str, m: np.ndarray) -> np.ndarray:
    if 1 not in m.shape:
        raise CliError(
            f"{name}: vector norms need a 1 x n or n x 1 matrix, got {m.shape}"
        )
    return m.ravel()


def _describe_spec(spec: NormSpec) -> str:
    if spec == NormSpec.max_norm():
        return "max"
    name = {"schatten": "schatten", "induced_lp": "induced"}.get(spec.kind, "lp")
    return f"{name} p={spec.p:g}"


def cmd_check(args) -> int:
    spec = _build_spec(args.norm, args.p)
    tol = args.tol if args.tol is not None else PREDICATE_RTOL
    if not 0 < tol < INF:
        raise CliError(f"--tol must be positive and finite, got {tol}")
    name_a, a = load_matrix(args.files[0])
    name_b, b = load_matrix(args.files[1])
    out = []
    out.append(f"check: {args.kind}")
    out.append(f"norm: {_describe_spec(spec)}")
    out.append(f"left: {name_a} {a.shape[0]}x{a.shape[1]}")
    out.append(f"right: {name_b} {b.shape[0]}x{b.shape[1]}")

    try:
        if args.kind == "bj":
            if spec.is_vector:
                raise CliError(
                    "bj supports schatten or induced norms; "
                    "got a vector norm"
                )
            v = bj_definitional(a, b, spec, tol_rel=tol)
            out.append(f"verdict: {'HOLDS' if v.holds else 'FAILS'}")
            out.append(f"extremal scalar: {_fmt_scalar(v.extremal_scalar)}")
            out.append(f"gap: {v.gap:.6e}")
            out.append(f"tolerance: {v.tolerance:.6e}")
            holds = v.holds
        elif args.kind == "isosceles":
            if spec.kind != "schatten":
                raise CliError("isosceles works in schatten norms; use --norm schatten")
            holds = isosceles(a, b, spec.p, tol_rel=tol)
            out.append(f"verdict: {'HOLDS' if holds else 'FAILS'}")
            out.append(f"tolerance: {tol:.6e}")
        elif args.kind == "parallel":
            if spec.is_vector:
                a, b = _as_vector(name_a, a), _as_vector(name_b, b)
            v = parallel_definitional(a, b, spec, tol_rel=tol)
            out.append(f"verdict: {'HOLDS' if v.holds else 'FAILS'}")
            out.append(f"extremal scalar: {_fmt_scalar(v.lambda_star)}")
            out.append(f"achieved: {v.achieved:.12e}")
            out.append(f"target: {v.target:.12e}")
            out.append(f"gap: {v.achieved - v.target:.6e}")
            out.append(f"tolerance: {v.tolerance:.6e}")
            holds = v.holds
        elif args.kind == "supports":
            rep = disjoint_supports(a, b)
            holds = rep.right_disjoint and rep.left_disjoint
            out.append(f"verdict: {'HOLDS' if holds else 'FAILS'}")
            out.append(
                f"right disjoint: {'yes' if rep.right_disjoint else 'no'} "
                f"(residual {rep.right_residual:.6e})"
            )
            out.append(
                f"left disjoint: {'yes' if rep.left_disjoint else 'no'} "
                f"(residual {rep.left_residual:.6e})"
            )
        else:  # sip
            if spec.kind != "schatten" or not (1.0 < spec.p < INF):
                raise CliError(
                    "sip needs --norm schatten with 1 < p < inf"
                )
            value = semi_inner_product(b, a, spec.p)
            holds = bj_trace(a, b, spec.p, tol_rel=tol)
            out.append(f"semi-inner product [right, left]: {_fmt_scalar(value)}")
            out.append(f"modulus: {abs(value):.12e}")
            out.append(f"verdict: {'HOLDS' if holds else 'FAILS'}")
            out.append(f"tolerance: {tol:.6e}")
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    print("\n".join(out))
    return 0 if holds else 1


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 1
    try:
        return int(raw)
    except ValueError as exc:
        raise CliError(
            f"environment variable {SEED_ENV_VAR} must be an integer, "
            f"got {raw!r}"
        ) from exc


def cmd_verify(args) -> int:
    requested = list(args.suites)
    if any(s == "all" for s in requested):
        suite_ids = list(SUITES)
    else:
        suite_ids = []
        for sid in requested:
            if sid not in SUITES:
                raise CliError(
                    f"unknown suite {sid!r}; choose from "
                    f"{', '.join(SUITES)} or 'all'"
                )
            if sid not in suite_ids:
                suite_ids.append(sid)

    seed = args.seed if args.seed is not None else _default_seed()
    json_dir = None
    if args.json is not None:
        json_dir = Path(args.json)
        try:
            json_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CliError(
                f"cannot create report directory {json_dir}: "
                f"{exc.strerror or exc}"
            ) from exc

    all_ok = True
    for sid in suite_ids:
        try:
            config = EnsembleConfig(
                kind=None, dimension=args.dim, trials=args.trials, seed=seed
            )
            report = run_suite(sid, config)
        except (ValueError, KeyError) as exc:
            raise CliError(str(exc)) from exc
        except EnsembleMiscalibration as exc:
            raise CliError(f"{sid}: {exc}") from exc
        status = "ok" if report.passed else "FAIL"
        print(
            f"{sid}: {report.passes}/{report.trials} trials passed [{status}] "
            f"- {SUITES[sid].title}"
        )
        for rec in report.failures:
            print(
                f"  failure offset={rec.seed_offset} digest={rec.inputs_digest} "
                f"gap={rec.observed_gap:.6e}"
            )
            print(f"    {rec.detail}")
        if json_dir is not None:
            payload = json.dumps(
                report.to_json_dict(), indent=2, sort_keys=True
            )
            path = json_dir / f"{sid}.json"
            try:
                path.write_text(payload + "\n", encoding="utf-8")
            except OSError as exc:
                raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc
        all_ok = all_ok and report.passed
    print("verify: all suites passed" if all_ok else "verify: FAILURES present")
    return 0 if all_ok else 1


def cmd_fixtures(args) -> int:
    if not args.run:
        registry = fixtures()
        width = max(len(f.name) for f in registry)
        for f in registry:
            print(f"{f.name.ljust(width)}  {f.summary}")
        return 0
    results = run_fixtures()
    failed = None
    for result in results:
        print(f"{'PASS' if result.ok else 'FAIL'}  {result.name}")
        if not result.ok:
            for line in result.details:
                print(f"    {line}")
            if failed is None:
                failed = result.name
    if failed is not None:
        print(f"fixture failed: {failed}", file=sys.stderr)
        return 1
    print(f"fixtures: {len(results)}/{len(results)} passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schatten-lab",
        description=(
            "Orthogonality and parallelism checks for matrices under "
            "schatten, induced, and max norms."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="evaluate one relation on a pair of matrix files"
    )
    p_check.add_argument("kind", choices=CHECK_KINDS)
    p_check.add_argument("files", nargs=2, metavar="FILE")
    p_check.add_argument(
        "--norm", default="schatten",
        choices=("schatten", "induced", "lp", "max"),
    )
    p_check.add_argument(
        "--p", default=None,
        help="norm exponent (number or 'inf'); default 2",
    )
    p_check.add_argument(
        "--tol", type=float, default=None,
        help="relative tolerance override for the verdict",
    )
    p_check.set_defaults(func=cmd_check)

    p_verify = sub.add_parser("verify", help="run randomized law suites")
    p_verify.add_argument(
        "suites", nargs="+", metavar="SUITE",
        help="suite ids (S1..S15) or 'all'",
    )
    p_verify.add_argument(
        "--seed", type=int, default=None,
        help=f"stream seed (default: ${SEED_ENV_VAR} or 1)",
    )
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument(
        "--dim", type=int, default=4,
        help="matrix dimension (default 4)",
    )
    p_verify.add_argument(
        "--json", default=None, metavar="DIR",
        help="write one canonical JSON report per suite into DIR",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_fix = sub.add_parser(
        "fixtures", help="list or run the curated fixture registry"
    )
    p_fix.add_argument(
        "--run", action="store_true", help="execute the fixtures"
    )
    p_fix.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
