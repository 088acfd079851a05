"""Command-line front end.

Commands: classify, measure, convert, simulate, gen, rigidity.  States and
the unitaries of `rigidity` are read by one loader, `_load`, through the
one grammar `states.matrix_from_json`; arguments are typed by argparse.
Reports are emitted as strict JSON lines (no NaN or infinity) so batch
runs compose with shell tooling.

Exit codes: 0 success, 1 internal error, 2 parse error (an unreadable,
undecodable or malformed input file, an unwritable --out, a --tolerance
that is not finite and >= 0, or any other usage error), 3 state-invariant
violation, 4 zero-resource refusal.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import gatesim, linalg, measures, realops, states

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_ZERO_RESOURCE = 4


class _ParseFailure(Exception):
    pass


class _ZeroResourceRefusal(Exception):
    def __init__(self, payload: dict):
        super().__init__("zero-resource input refused")
        self.payload = payload


def _load(path: str, parse):
    """parse() of the JSON in the file at `path`; every format failure is exit 2."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise _ParseFailure(f"{path}: {exc}") from exc
    try:
        return parse(obj)
    except states.StateFormatError as exc:
        raise _ParseFailure(f"{path}: {exc}") from exc


def _emit(lines, out_path):
    text = "\n".join(json.dumps(line, allow_nan=False) for line in lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _ParseFailure(f"{out_path}: {exc}") from exc


def _tolerance(text: str) -> float:
    """The type of --tolerance: a finite number >= 0."""
    value = float(text)
    if not 0.0 <= value < float("inf"):  # also rejects NaN
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _cmd_classify(args) -> list:
    return [
        measures.classify(_load(path, states.density_from_json), args.tolerance).to_json()
        for path in args.paths
    ]


def _cmd_measure(args) -> list:
    keys = ("overlap_conj", "imag_trace_norm", "imag_fidelity", "robustness")
    lines = []
    for path in args.paths:
        report = measures.classify(_load(path, states.density_from_json)).to_json()
        lines.append({key: report[key] for key in keys})
    return lines


def _cmd_convert(args) -> list:
    rho = _load(args.path, states.density_from_json)
    result = realops.convert_to_plus_hat(rho)
    dilation = realops.dilate(result.kraus)
    return [
        {
            "fidelity": result.fidelity,
            "output": states.density_to_json(result.output),
            "kraus": result.kraus.to_json(),
            "dilation": {
                "env_dim": dilation.env_dim,
                "pad_dim": dilation.pad_dim,
                "orthogonality_residual": dilation.orthogonality_residual,
            },
        }
    ]


def _cmd_simulate(args) -> list:
    builders = {"s": gatesim.s_gadget, "cs": gatesim.cs_gadget}
    builder = builders[args.gadget]
    resource = None
    if args.resource is not None:
        rho = _load(args.resource, states.density_from_json)
        report = measures.classify(rho, tolerance=args.tolerance)
        if report.verdict != measures.UNIVERSAL:
            raise _ZeroResourceRefusal(
                {
                    "error": "zero-resource input refused",
                    "report": report.to_json(),
                    "best_fidelity": report.imag_fidelity,
                }
            )
        resource = realops.convert_to_plus_hat(rho).output
    inst = builder(resource=resource)
    verification = gatesim.verify_instance(inst, tolerance=linalg.CHECK_TOL)
    hs = gatesim.hs_consistency(inst)
    return [
        {
            "gadget": args.gadget,
            "verification": verification.to_json(),
            "residual": states.density_to_json(
                states.DensityMatrix(verification.residuals[0])
            ),
            "hs_consistency": {"lhs": hs["lhs"], "max_deviation": hs["max_deviation"]},
        }
    ]


#: The arguments each `gen` kind reads; giving it any other is a usage error.
_GEN_READS = {
    "random": {"--dim", "--seed"},
    "max-imaginary": {"--dim", "--rank", "--seed"},
    "bloch": {"coordinates"},
}


def _cmd_gen(args) -> list:
    given = {"coordinates": args.params, "--dim": args.dim, "--rank": args.rank, "--seed": args.seed}
    unread = [
        name
        for name, value in given.items()
        if value not in (None, []) and name not in _GEN_READS[args.kind]
    ]
    if unread:
        raise _ParseFailure(f"gen {args.kind} does not take {', '.join(unread)}")
    dim = 2 if args.dim is None else args.dim
    seed = 0 if args.seed is None else args.seed
    try:
        if args.kind == "random":
            rho = states.gen_random_density(dim, seed)
        elif args.kind == "max-imaginary":
            rho = states.gen_max_imaginary(dim, 1 if args.rank is None else args.rank, seed)
    except ValueError as exc:  # --dim or --rank out of range: a usage error
        raise _ParseFailure(str(exc)) from exc
    if args.kind == "bloch":
        if len(args.params) != 3:
            raise _ParseFailure("gen bloch needs exactly three coordinates: x y z")
        rho = states.state_of(states.BlochVector(*args.params))
    return [states.density_to_json(rho)]


def _cmd_rigidity(args) -> list:
    v = _load(args.path, states.matrix_from_json)
    result = gatesim.phase_rigidity(v, tolerance=args.tolerance)
    return [result.to_json()]


def build_parser() -> argparse.ArgumentParser:
    # Each command takes only the flags it reads.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output file ('-' = stdout)")
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tolerance", type=_tolerance, default=linalg.VERDICT_TOL)

    parser = argparse.ArgumentParser(
        prog="imaginarity",
        description="Universality-transformation resource toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "classify", parents=[out, tolerance], help="classify states as universal/zero"
    )
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("measure", parents=[out], help="report imaginarity measures")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("convert", parents=[out], help="optimal conversion towards |+i>")
    p.add_argument("path")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser(
        "simulate", parents=[out, tolerance], help="run a gate gadget and verify it"
    )
    p.add_argument("gadget", choices=["s", "cs"])
    p.add_argument("--resource", default=None, help="state file to use as the resource")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gen", parents=[out], help="generate a state file")
    p.add_argument("kind", choices=["random", "max-imaginary", "bloch"])
    p.add_argument("params", nargs="*", type=float, help="bloch only: x y z")
    p.add_argument("--seed", type=int, help="random and max-imaginary (default 0)")
    p.add_argument("--dim", type=int, help="random and max-imaginary (default 2)")
    p.add_argument("--rank", type=int, help="max-imaginary only (default 1)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "rigidity", parents=[out, tolerance], help="phase-rigidity analysis of a unitary"
    )
    p.add_argument("path")
    p.set_defaults(func=_cmd_rigidity)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            lines, code = args.func(args), EXIT_OK
        except _ZeroResourceRefusal as exc:
            lines, code = [exc.payload], EXIT_ZERO_RESOURCE
        _emit(lines, args.out)
        return code
    except _ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except states.StateValidationError as exc:
        print(f"error: invalid state: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
