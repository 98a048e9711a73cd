"""Command-line front end.

Four subcommands: `point` evaluates one parameter point and emits JSON,
`sweep` writes a CSV curve, `optimize` locates the coordinate minimizing the
error bound, and `verify` runs the cross-route verification suites.

Exit codes are a stable contract: 0 success, 1 verification failure, 2 usage
error, 3 degenerate-parameter evaluation, 4 output I/O error.  All output is
deterministic for identical flags: every float is printed in shortest
round-trip form and manifests carry no timestamps.

Only the closed-form core that `point` runs is imported with this module.
`sweep` and `optimize` import the sweep engine (and with it the thread pool
and the forked fan-out) when they run, and `verify` imports the verification
suites (and with them the mode-equation oracle, the eigenprojector Fisher
information and the same fan-out, but not the sweep engine or the pool) when
it runs, so no command pays at start-up for layers it does not use.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .bogoliubov import ANALYTIC, FINITE_DIFFERENCE
from .cosmology import ModelParams
from .errors import CosmoQfiError
from .probe import DEFAULT_TRIALS, qfi_eps, state_entropy

_DERIV_FLAGS = {"analytic": ANALYTIC, "fd": FINITE_DIFFERENCE}
_VAR_FLAGS = {"m": "m_tilde", "k": "k_tilde", "eps": "eps"}
_CSV_ROW = "%r,%r,%r,%r,%r\n"  # value,qfi,bound,entropy,p1, shortest round-trip

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4


def _json_number(x: float):
    # JSON has no Infinity/NaN literals; the wire contract uses the strings
    # "inf", "-inf" and "nan", which float() reads back.
    return x if math.isfinite(x) else repr(x)


def _add_channel_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--eps", type=float, default=1.0, help="volume ratio (default 1)")
    sp.add_argument("--m", type=float, default=1.0, help="dimensionless mass (default 1)")
    sp.add_argument("--k", type=float, default=1.0, help="dimensionless wave number (default 1)")
    sp.add_argument(
        "--trials", type=float, default=float(DEFAULT_TRIALS),
        help="measurement repetitions for the bound (default 1e11)",
    )
    sp.add_argument(
        "--deriv-method", choices=sorted(_DERIV_FLAGS), default="analytic",
        help="eps-derivative implementation (default analytic)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosmo-qfi",
        description=(
            "Quantum Fisher information and Cramer-Rao bounds for estimating "
            "the volume ratio of an expanding universe with a Dirac-field "
            "particle-creation probe."
        ),
        epilog=(
            "Environment: COSMO_QFI_THREADS above 1 runs sweep on that many "
            "threads; otherwise a large sweep is spread over the CPUs in "
            "forked processes, and verify --points 6 or more integrates its "
            "oracle points in a forked process. None of this changes output."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("point", help="evaluate one parameter point, emit JSON")
    _add_channel_flags(sp)
    sp.set_defaults(func=_cmd_point)

    sp = sub.add_parser("sweep", help="evaluate a curve over one parameter, write CSV")
    _add_channel_flags(sp)
    sp.add_argument("--var", choices=sorted(_VAR_FLAGS), required=True,
                    help="swept parameter")
    sp.add_argument("--lo", type=float, default=0.1, help="sweep start (default 0.1)")
    sp.add_argument("--hi", type=float, default=10.0, help="sweep end (default 10)")
    sp.add_argument("--points", type=int, default=200, help="grid size (default 200)")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("optimize", help="minimize the error bound over one parameter")
    _add_channel_flags(sp)
    sp.add_argument("--var", choices=sorted(_VAR_FLAGS), required=True,
                    help="optimization variable")
    sp.add_argument("--lo", type=float, default=0.05, help="lower bound (default 0.05)")
    sp.add_argument("--hi", type=float, default=20.0, help="upper bound (default 20)")
    sp.set_defaults(func=_cmd_optimize)

    sp = sub.add_parser("verify", help="run the cross-route verification suites")
    sp.add_argument("--points", type=int, default=10,
                    help="grid resolution per axis for identity checks (default 10)")
    sp.add_argument("--ode-points", type=int, default=5,
                    help="number of mode-equation oracle comparisons (default 5)")
    sp.set_defaults(func=_cmd_verify)

    return parser


def _fixed_from_flags(args: argparse.Namespace, variable: str) -> ModelParams:
    # The coordinate being swept or optimized is a placeholder; it is
    # replaced at every grid point.
    fields = {"eps": args.eps, "m_tilde": args.m, "k_tilde": args.k, variable: 1.0}
    return ModelParams(**fields)


def _cmd_point(args: argparse.Namespace) -> int:
    params = ModelParams(args.eps, args.m, args.k)
    deriv_method = _DERIV_FLAGS[args.deriv_method]
    est = qfi_eps(params, trials=args.trials, deriv_method=deriv_method)
    st = est.state
    doc = {
        "eps": _json_number(params.eps),
        "m_tilde": _json_number(params.m_tilde),
        "k_tilde": _json_number(params.k_tilde),
        "X": _json_number(st.X),
        "p0": _json_number(st.p0),
        "p1": _json_number(st.p1),
        "qfi": _json_number(est.qfi),
        "bound": _json_number(est.bound),
        "entropy": _json_number(state_entropy(st)),
        "derivative_method": deriv_method,
    }
    print(json.dumps(doc))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweeps import SweepSpec, _sweep_slices, _thread_count

    variable = _VAR_FLAGS[args.var]
    spec = SweepSpec(
        variable=variable,
        lo=args.lo,
        hi=args.hi,
        points=args.points,
        fixed=_fixed_from_flags(args, variable),
        trials=args.trials,
    )
    _thread_count()  # a bad COSMO_QFI_THREADS is a usage error, which creates no file
    manifest = {
        "command": "sweep",
        "params": {
            "var": args.var,
            "lo": args.lo,
            "hi": args.hi,
            "points": args.points,
            # the swept coordinate's own flag is ignored, and may be non-finite
            "eps": _json_number(args.eps),
            "m": _json_number(args.m),
            "k": _json_number(args.k),
            "trials": args.trials,
            "deriv_method": args.deriv_method,
        },
        "tolerances": {},
        "tool_version": __version__,
        "output_path": args.out,
    }
    head = f"# manifest: {json.dumps(manifest)}\nvalue,qfi,bound,entropy,p1\n"
    # Open the output before computing, so an unwritable path fails at once.
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        # Each slice's rows arrive as CSV lines, formatted where computed.
        parts = _sweep_slices(spec, _DERIV_FLAGS[args.deriv_method], _CSV_ROW.__mod__)
        fh.write(head)
        for lines in parts:
            fh.writelines(lines)
    print(args.out)
    return EXIT_OK


def _cmd_optimize(args: argparse.Namespace) -> int:
    from .sweeps import optimize

    variable = _VAR_FLAGS[args.var]
    result = optimize(
        variable,
        args.lo,
        args.hi,
        _fixed_from_flags(args, variable),
        trials=args.trials,
        deriv_method=_DERIV_FLAGS[args.deriv_method],
    )
    doc = {
        "variable": args.var,
        "optimum": _json_number(result.coordinate),
        "qfi": _json_number(result.estimation.qfi),
        "bound": _json_number(result.estimation.bound),
        "boundary_warning": result.boundary_warning,
    }
    print(json.dumps(doc))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_all

    results = run_all(args.points, args.ode_points)
    width = max(len(r.name) for r in results)
    print(f"{'check':<{width}}  {'worst':>10}  {'tolerance':>10}  status")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {r.worst:>10.3e}  {r.tolerance:>10.1e}  {status}")
    failed = sum(not r.passed for r in results)
    if failed:
        print(f"{failed} check(s) failed")
        return EXIT_VERIFY_FAILED
    print("all checks passed")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except CosmoQfiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
