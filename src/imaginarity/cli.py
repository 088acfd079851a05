"""Command-line front end.

Commands: classify, measure, convert, simulate, gen, rigidity.  States are
read and written in the canonical JSON format of `states`; reports are
emitted as JSON lines so batch runs compose with shell tooling.

Exit codes: 0 success, 1 internal error, 2 parse error, 3 state-invariant
violation, 4 zero-resource refusal.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

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


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _ParseFailure(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _ParseFailure(f"{path}: malformed JSON: {exc}") from exc


def _load_state(path: str) -> states.DensityMatrix:
    obj = _load_json(path)
    try:
        return states.density_from_json(obj)
    except states.StateFormatError as exc:
        raise _ParseFailure(f"{path}: {exc}") from exc


def _load_unitary(path: str) -> np.ndarray:
    obj = _load_json(path)
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise _ParseFailure(f"{path}: expected fields dim/re/im") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise _ParseFailure(f"{path}: re/im must be {dim}x{dim} arrays")
    return re + 1j * im


def _emit(lines, out_path):
    text = "\n".join(json.dumps(line) for line in lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _cmd_classify(args) -> list:
    return [
        measures.classify(_load_state(path), tolerance=args.tolerance).to_json()
        for path in args.paths
    ]


def _cmd_measure(args) -> list:
    keys = ("overlap_conj", "imag_trace_norm", "imag_fidelity", "robustness")
    lines = []
    for path in args.paths:
        report = measures.classify(_load_state(path)).to_json()
        lines.append({key: report[key] for key in keys})
    return lines


def _cmd_convert(args) -> list:
    rho = _load_state(args.path)
    result = realops.convert_to_plus_hat(rho)
    dilation = realops.dilate(result.kraus)
    n = dilation.unitary.shape[0]
    ortho_residual = float(np.max(np.abs(dilation.unitary.T @ dilation.unitary - np.eye(n))))
    return [
        {
            "fidelity": result.fidelity,
            "output": states.density_to_json(result.output),
            "kraus": result.kraus.to_json(),
            "dilation": {
                "env_dim": dilation.env_dim,
                "pad_dim": dilation.pad_dim,
                "orthogonality_residual": ortho_residual,
            },
        }
    ]


def _cmd_simulate(args) -> list:
    builders = {"s": gatesim.s_gadget, "cs": gatesim.cs_gadget}
    builder = builders[args.gadget]
    resource = None
    if args.resource is not None:
        rho = _load_state(args.resource)
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


def _cmd_gen(args) -> list:
    if args.kind == "random":
        rho = states.gen_random_density(args.dim, args.seed)
    elif args.kind == "max-imaginary":
        rho = states.gen_max_imaginary(args.dim, args.rank, args.seed)
    else:  # bloch
        if len(args.params) != 3:
            raise _ParseFailure("gen bloch needs exactly three coordinates: x y z")
        try:
            x, y, z = (float(p) for p in args.params)
        except ValueError as exc:
            raise _ParseFailure(f"bloch coordinates must be numbers: {exc}") from exc
        rho = states.state_of(states.BlochVector(x, y, z))
    return [states.density_to_json(rho)]


def _cmd_rigidity(args) -> list:
    v = _load_unitary(args.path)
    result = gatesim.phase_rigidity(v, tolerance=args.tolerance)
    return [result.to_json()]


def build_parser() -> argparse.ArgumentParser:
    # Each command takes only the flags it reads.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output file ('-' = stdout)")
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tolerance", type=float, default=linalg.VERDICT_TOL)

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
    p.add_argument("params", nargs="*", help="for bloch: x y z")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--rank", type=int, default=1)
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
        lines = args.func(args)
    except _ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except states.StateValidationError as exc:
        print(f"error: invalid state: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except _ZeroResourceRefusal as exc:
        _emit([exc.payload], args.out)
        return EXIT_ZERO_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    _emit(lines, args.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
