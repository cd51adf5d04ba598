"""Command-line front end.

Subcommands: analyze, scan-family, mixtures, lambda, canonical, ppt.
Reports go to stdout (or --output) as JSON by default; scan tables can
also be CSV.  Exit codes: 0 success, 2 input validation failure, 1
internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import canonical, classify, criterion, qcore, scanner, states, witness


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _add_state_flags(parser):
    parser.add_argument("--builtin", choices=["ghz", "w", "xi", "superposition"])
    parser.add_argument("--state", help="path to a JSON state file")
    parser.add_argument("--a-sq", type=float, default=0.5, dest="a_sq")
    parser.add_argument("--phi", type=float, default=0.0)
    parser.add_argument("--gamma", type=float, default=0.0)
    parser.add_argument("--beta", type=float, default=0.0)


def _load_pure(args) -> np.ndarray:
    if args.builtin and args.state:
        raise InputError("give either --builtin or --state, not both")
    if args.builtin == "ghz":
        return states.make_ghz(args.phi)
    if args.builtin == "w":
        return states.make_w(args.gamma, args.beta)
    if args.builtin == "xi":
        return states.make_xi()
    if args.builtin == "superposition":
        if not 0.0 <= args.a_sq <= 1.0:
            raise InputError("--a-sq must lie in [0, 1]")
        params = states.SuperpositionParams(
            a=np.sqrt(args.a_sq),
            b=np.sqrt(1.0 - args.a_sq),
            phi=args.phi,
            gamma=args.gamma,
            beta=args.beta,
        )
        return states.make_superposition(params)
    if args.state:
        try:
            return states.load_state(args.state)
        except FileNotFoundError as exc:
            raise InputError(f"state file not found: {args.state}") from exc
        except (json.JSONDecodeError, ValueError, TypeError) as exc:
            raise InputError(f"malformed state file {args.state}: {exc}") from exc
    raise InputError("a state is required: pass --builtin or --state")


def _load_rho(path: str) -> np.ndarray:
    try:
        return states.load_rho(path)
    except FileNotFoundError as exc:
        raise InputError(f"density file not found: {path}") from exc
    except (json.JSONDecodeError, ValueError, TypeError) as exc:
        raise InputError(f"malformed density file {path}: {exc}") from exc


def _emit(payload, args) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if getattr(args, "output", None):
        states._atomic_write(args.output, text)
    else:
        sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    if getattr(args, "rho", None):
        rho = _load_rho(args.rho)
        verdict = criterion.ghzw_criterion(rho)
        _emit({"criterion": verdict.to_dict()}, args)
        return 0
    psi = _load_pure(args)
    verdict = criterion.ghzw_criterion_pure(psi)
    report = classify.is_genuinely_entangled_pure(psi, tol=args.tol)
    payload = verdict.to_dict()
    payload["genuinely_entangled"] = report.genuinely_entangled
    payload["biseparable_cuts"] = report.biseparable_cuts
    payload["three_tangle"] = report.three_tangle
    payload["schmidt_by_cut"] = {k: list(v) for k, v in report.schmidt_by_cut.items()}
    _emit(payload, args)
    return 0


def _cmd_scan_family(args) -> int:
    cfg = scanner.ScanConfig(
        grid_points=args.grid,
        phase_phi=args.phi,
        phase_gamma=args.gamma,
        phase_beta=args.beta,
        rel_phase_ab=args.rel_phase_ab,
        tol=args.tol,
    )
    rows = scanner.scan_superposition_family(cfg)
    scanner.emit_table(rows, args.format, args.output or sys.stdout)
    return 0


def _cmd_mixtures(args) -> int:
    cfg = scanner.ScanConfig(seed=args.seed, tol=args.tol)
    report = scanner.sample_unwitnessed_mixtures(cfg, args.n_mixtures, args.n_components)
    _emit(report.to_dict(), args)
    return 0


def _cmd_lambda(args) -> int:
    psi = _load_pure(args)
    payload = {"lambda_analytic": witness.lambda_bound_analytic(psi)}
    if args.stochastic:
        payload["lambda_stochastic"] = witness.lambda_bound_stochastic(
            psi, seed=args.seed, restarts=args.restarts, iters=args.iters
        )
    _emit(payload, args)
    return 0


def _cmd_canonical(args) -> int:
    psi = _load_pure(args)
    result = canonical.acin_decompose(psi)
    p = result.params
    _emit(
        {
            "lambdas": list(p.lambdas),
            "alpha": p.alpha,
            "residual": result.residual,
        },
        args,
    )
    return 0


def _cmd_ppt(args) -> int:
    rho = _load_rho(args.rho) if args.rho else qcore.outer(_load_pure(args))
    _emit({cut: classify._ppt_min_eigenvalue(rho, cut) for cut in classify.CUTS}, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzw", description="Three-qubit GHZ/W witness analysis toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="criterion verdict and classification")
    _add_state_flags(p)
    p.add_argument("--rho", help="path to a JSON density-matrix file")
    p.add_argument("--tol", type=float, default=classify.DEFAULT_BISEP_TOL)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("scan-family", help="sweep the GHZ/W superposition family")
    p.add_argument("--grid", type=int, default=1001)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--rel-phase-ab", type=float, default=0.0, dest="rel_phase_ab")
    p.add_argument("--tol", type=float, default=criterion.BOUNDARY_TOL)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_scan_family)

    p = sub.add_parser("mixtures", help="re-test mixtures from the unwitnessed window")
    p.add_argument("--n-mixtures", type=int, default=500, dest="n_mixtures")
    p.add_argument("--n-components", type=int, default=4, dest="n_components")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=criterion.BOUNDARY_TOL)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_mixtures)

    p = sub.add_parser("lambda", help="biseparable overlap bound of a state")
    _add_state_flags(p)
    p.add_argument("--stochastic", action="store_true")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("canonical", help="five-term canonical decomposition")
    _add_state_flags(p)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("ppt", help="partial-transpose minimum eigenvalues")
    _add_state_flags(p)
    p.add_argument("--rho", help="path to a JSON density-matrix file")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_ppt)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
