"""Command-line front end with machine-readable JSON output.

Exit codes: 0 for CERTIFIED_YES/true, 1 for CERTIFIED_NO/false, 2 for
UNKNOWN, 3 for usage or input errors.  Identical invocations with the same
seed produce byte-identical JSON when --no-timings is passed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from typing import Optional

from . import corpus, detrep, soscert
from .hypercone import (
    HyperbolicityInstance,
    SampleConfig,
    check_hyperbolic,
    cone_membership,
    interlaces,
    wronskian_delta,
)
from .polycore import Polynomial, PolyParseError, default_names, format_poly, parse_poly
from .verdicts import Status, Verdict, to_jsonable


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _count(minimum: int):
    """argparse type: an integer of at least `minimum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _read_poly_text(source: str) -> str:
    if source.startswith("@"):
        with open(source[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return source


def _parse_vector(text: str) -> list[Fraction]:
    try:
        return [Fraction(part.strip()) for part in text.split(",") if part.strip() != ""]
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad vector {text!r}: {exc}") from exc


def _load_poly(args) -> tuple[Polynomial, list[str]]:
    if args.poly is None:
        raise _UsageError("--poly is required")
    if args.vars is None:
        raise _UsageError("--vars is required")
    names = [v.strip() for v in args.vars.split(",") if v.strip()]
    poly = parse_poly(_read_poly_text(args.poly), names)
    return poly, names


def _sample_config(args) -> SampleConfig:
    return SampleConfig(trials=args.trials, seed=args.seed, coordinate_bound=args.bound)


def _verdict_exit(v: Verdict) -> int:
    return {Status.CERTIFIED_YES: 0, Status.CERTIFIED_NO: 1, Status.UNKNOWN: 2}[v.status]


def _emit(payload: dict, args, started: float) -> None:
    if not args.no_timings:
        payload["timings"] = {"seconds": round(time.time() - started, 6)}
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        _emit_text(payload)


def _emit_text(payload: dict, indent: str = "") -> None:
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_text(value, indent + "  ")
        else:
            print(f"{indent}{key}: {value}")


def _add_common(
    p: argparse.ArgumentParser,
    poly: bool = True,
    e: bool = False,
    a: bool = False,
    sdp: bool = False,
    cert_out: bool = False,
) -> None:
    """The output options, plus each input option the subcommand reads."""
    if poly:
        p.add_argument("--poly", help="polynomial text, or @file")
        p.add_argument("--vars", help="comma-separated variable names, e.g. x,y,z")
    if e:
        p.add_argument("--e", dest="e", help="distinguished direction, e.g. 1,0,0")
    if a:
        p.add_argument("--a", dest="a", help="query point/direction, e.g. 2,1,0")
    if sdp:
        p.add_argument("--sos-budget", type=_count(0), default=2, help="max denominator power N")
    if cert_out:
        p.add_argument("--cert-out", help="write the certificate/report JSON to this file")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--no-timings", action="store_true")


def _add_sampling(p: argparse.ArgumentParser) -> None:
    """The options of the subcommands that sample lines or points."""
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=_count(1), default=64)
    p.add_argument("--bound", type=_count(1), default=10, help="sampling coordinate bound")


def build_parser() -> _Parser:
    ap = _Parser(prog="hypersos", description="exact certificates for hyperbolic polynomials")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-hyperbolic", help="sampled hyperbolicity test")
    _add_common(p, e=True)
    _add_sampling(p)

    p = sub.add_parser("cone-member", help="exact hyperbolicity-cone membership")
    _add_common(p, e=True, a=True)
    p.add_argument("--closure", action="store_true", help="test the closed cone")

    p = sub.add_parser("interlaces", help="does g interlace f with respect to e")
    _add_common(p, e=True, sdp=True, cert_out=True)
    _add_sampling(p)
    p.add_argument("--g", dest="g", help="candidate interlacer polynomial")
    p.add_argument("--strict", action="store_true", help="also sample strict interlacing")

    p = sub.add_parser("delta", help="mixed Wronskian of f at directions e, a")
    _add_common(p, e=True, a=True)

    p = sub.add_parser("sos-certify", help="exact SOS certificate for a form")
    _add_common(p, sdp=True, cert_out=True)

    p = sub.add_parser("sos-cone-member", help="SOS inner relaxation of cone membership")
    _add_common(p, e=True, a=True, sdp=True, cert_out=True)

    p = sub.add_parser("detrep-build", help="definite determinantal representation builder")
    _add_common(p, e=True, cert_out=True)
    p.add_argument("--dvars", help="comma-separated names of the affine variables")

    p = sub.add_parser("detrep-verify", help="verify a representation against f")
    _add_common(p)
    p.add_argument("--rep", help="representation JSON, or @file")

    p = sub.add_parser("stable-check", help="multiaffine stability test")
    _add_common(p, sdp=True)
    _add_sampling(p)

    p = sub.add_parser("vamos-repro", help="reproduce the Vamos non-SOS certificate")
    _add_common(p, poly=False, cert_out=True)

    p = sub.add_parser("gen", help="emit a named polynomial family")
    p.add_argument("family", choices=(
        "product", "lorentz", "elementary-symmetric", "sym-det", "cubic-example", "vamos",
    ))
    p.add_argument("--n", type=int, help="number of variables")
    p.add_argument("--d", type=int, help="degree parameter")
    _add_common(p, poly=False)

    return ap


@functools.lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The parser for this process, built on first use; parsing never mutates it."""
    return build_parser()


def _require(args, *names) -> list:
    out = []
    for name in names:
        val = getattr(args, name, None)
        if val is None:
            raise _UsageError(f"--{name} is required for this command")
        out.append(val)
    return out


def _cmd_check_hyperbolic(args):
    f, names = _load_poly(args)
    (e_text,) = _require(args, "e")
    inst = HyperbolicityInstance(f, _parse_vector(e_text))
    v = check_hyperbolic(inst, _sample_config(args))
    return {"verdict": to_jsonable(v)}, _verdict_exit(v)


def _cmd_cone_member(args):
    f, names = _load_poly(args)
    e_text, a_text = _require(args, "e", "a")
    inst = HyperbolicityInstance(f, _parse_vector(e_text))
    v = cone_membership(inst, _parse_vector(a_text), closure=args.closure)
    return {"verdict": to_jsonable(v)}, _verdict_exit(v)


def _cmd_interlaces(args):
    f, names = _load_poly(args)
    e_text, g_text = _require(args, "e", "g")
    inst = HyperbolicityInstance(f, _parse_vector(e_text))
    g = parse_poly(_read_poly_text(g_text), names)
    v = interlaces(inst, g, _sample_config(args), args.sos_budget, strict=args.strict)
    payload = {"verdict": to_jsonable(v)}
    _attach_certificate(payload, v, args, names)
    return payload, _verdict_exit(v)


def _cmd_delta(args):
    f, names = _load_poly(args)
    e_text, a_text = _require(args, "e", "a")
    d = wronskian_delta(f, _parse_vector(e_text), _parse_vector(a_text))
    return {"delta": format_poly(d, names), "vars": names}, 0


def _cmd_sos_certify(args):
    f, names = _load_poly(args)
    v = soscert.certify_sos(f, args.sos_budget)
    payload = {"verdict": to_jsonable(v)}
    _attach_certificate(payload, v, args, names)
    return payload, _verdict_exit(v)


def _cmd_sos_cone_member(args):
    f, names = _load_poly(args)
    e_text, a_text = _require(args, "e", "a")
    inst = HyperbolicityInstance(f, _parse_vector(e_text))
    v = soscert.sos_cone_membership(inst, _parse_vector(a_text), args.sos_budget)
    payload = {"verdict": to_jsonable(v)}
    _attach_certificate(payload, v, args, names)
    return payload, _verdict_exit(v)


def _cmd_detrep_build(args):
    f, names = _load_poly(args)
    e_text, dvars_text = _require(args, "e", "dvars")
    name_index = {n: i for i, n in enumerate(names)}
    dvars = []
    for token in dvars_text.split(","):
        token = token.strip()
        if token not in name_index:
            raise _UsageError(f"unknown dvar name {token!r}")
        dvars.append(name_index[token])
    try:
        result = detrep.build_detrep_multiaffine(f, dvars, _parse_vector(e_text))
    except detrep.IrrationalEntry as exc:
        payload = {
            "verdict": {
                "status": "UNKNOWN",
                "witness": {"pair": [names[i] for i in exc.pair]},
                "detail": "every coordinate Wronskian is a square over R, but the interlacer "
                          "matrix entry of the witness pair has no rational form",
            }
        }
        return payload, 2
    if isinstance(result, detrep.NoRep):
        payload = {
            "verdict": {
                "status": "CERTIFIED_NO",
                "witness": {
                    "pair": [names[result.pair[0]], names[result.pair[1]]],
                    "delta": format_poly(result.delta, names),
                },
                "detail": "coordinate Wronskian of the witness pair is not a perfect square",
            }
        }
        return payload, 1
    rep_json = result.to_jsonable()
    payload = {"verdict": {"status": "CERTIFIED_YES", "detail": "representation built and verified"},
               "representation": rep_json}
    _write_cert_out(payload, rep_json, args)
    return payload, 0


def _cmd_detrep_verify(args):
    f, names = _load_poly(args)
    (rep_text,) = _require(args, "rep")
    try:
        rep = detrep.DeterminantalRep.from_json(_read_poly_text(rep_text))
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"malformed representation: {type(exc).__name__}: {exc}") from exc
    res = detrep.verify_detrep(rep, f)
    payload = {"ok": bool(res), "reason": res.reason}
    return payload, 0 if res else 1


def _cmd_stable_check(args):
    f, names = _load_poly(args)
    v = detrep.check_multiaffine_stable(f, _sample_config(args), args.sos_budget)
    verdict = to_jsonable(v)
    # the witness names its variables, as detrep-build's does; the Verdict keeps indices
    witness = verdict["witness"] or {}
    if "pair" in witness:
        witness["pair"] = [names[i] for i in v.witness["pair"]]
    if "uncertified_pairs" in witness:
        witness["uncertified_pairs"] = [[names[i] for i in pair] for pair in v.witness["uncertified_pairs"]]
    return {"verdict": verdict}, _verdict_exit(v)


def _cmd_vamos_repro(args):
    report = corpus.vamos_reproduction()
    document = report.to_jsonable()
    payload = dict(document)
    _write_cert_out(payload, document, args)
    return payload, _verdict_exit(report.conclusion)


def _cmd_gen(args):
    family = args.family
    if family == "product":
        (n,) = _require(args, "n")
        poly, names = corpus.gen_product(n), default_names(n)
    elif family == "lorentz":
        (n,) = _require(args, "n")
        poly, names = corpus.gen_lorentz(n), default_names(n)
    elif family == "elementary-symmetric":
        n, d = _require(args, "n", "d")
        poly, names = corpus.gen_elementary_symmetric(n, d), default_names(n)
    elif family == "sym-det":
        (d,) = _require(args, "d")
        poly, names = corpus.gen_sym_det(d), corpus.sym_det_variable_names(d)
    elif family == "cubic-example":
        poly, names = corpus.gen_cubic_example(), ["x", "y", "z"]
    else:
        poly, names = corpus.gen_vamos(), [f"x{i+1}" for i in range(8)]
    return {"family": family, "vars": names, "poly": format_poly(poly, names)}, 0


def _attach_certificate(payload: dict, v: Verdict, args, names: list[str]) -> None:
    cert = v.witness if isinstance(v.witness, soscert.SosCertificate) else None
    if cert is None:
        return
    payload["verdict"]["witness"] = "sos-certificate"
    cert_json = cert.to_jsonable(names)
    if not _write_cert_out(payload, cert_json, args):
        payload["certificate"] = cert_json


def _write_cert_out(payload: dict, document: dict, args) -> bool:
    """Write document as sorted JSON to --cert-out, if given, and record the path in payload."""
    if not args.cert_out:
        return False
    with open(args.cert_out, "w", encoding="utf-8") as fh:
        json.dump(document, fh, sort_keys=True)
    payload["certificate_path"] = args.cert_out
    return True


_HANDLERS = {
    "check-hyperbolic": _cmd_check_hyperbolic,
    "cone-member": _cmd_cone_member,
    "interlaces": _cmd_interlaces,
    "delta": _cmd_delta,
    "sos-certify": _cmd_sos_certify,
    "sos-cone-member": _cmd_sos_cone_member,
    "detrep-build": _cmd_detrep_build,
    "detrep-verify": _cmd_detrep_verify,
    "stable-check": _cmd_stable_check,
    "vamos-repro": _cmd_vamos_repro,
    "gen": _cmd_gen,
}


def main(argv: Optional[list[str]] = None) -> int:
    started = time.time()
    try:
        args = _parser().parse_args(argv)
        payload, code = _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3
    except PolyParseError as exc:
        print(json.dumps({"error": str(exc), "position": exc.pos}), file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3
    except MemoryError:
        print(json.dumps({"error": "out of memory: the input is too large"}), file=sys.stderr)
        return 3
    _emit(payload, args, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
