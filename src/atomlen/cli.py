"""Command-line front end: every verification and computation as a
subcommand with deterministic text or JSON output.

Exit codes: 0 when the computation finished and every theorem-backed check
passed, 1 when a report misses a value that the invoked theorem guarantees,
2 for invalid input (including a computation over the budget), 3 for an
internal error or a broken internal invariant; every error is one line on
stderr, never a traceback.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import affine_classical, affine_permutations, cores_abaci, finite_weyl
from . import quadratic_forms as qf
from . import sumsets
from .errors import AtomlenError, InvariantViolation, SearchFailed

SCAN_FORMS = ("rho", "Q-delta", "q-free", "Ps", "trunc", "refined-go", "go",
              "deltaC", "lattice")


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _parse_csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise AtomlenError(f"expected comma-separated integers, got {text!r}")


def _cmd_entropy(args) -> int:
    window = _parse_csv_ints(args.window)
    w = affine_permutations.make_affine(args.n, window)
    e = affine_permutations.entropy(w)
    al = affine_permutations.atomic_length_rho(w)
    if e != al:
        raise SearchFailed(f"entropy {e} differs from atomic length {al}")
    _emit(args, {"n": args.n, "window": list(window), "entropy": e}, str(e))
    return 0


def _scan_report(args):
    form = args.form
    n = args.n
    if form in ("rho", "Q-delta"):
        dom = qf.domain_D(n) if form == "rho" else qf.domain_Delta(n)
        spec = qf.form_P(n) if form == "rho" else qf.form_Q(n)
        rep = qf.universality_scan(spec, dom, args.max_k, args.radius)
        return rep, n >= 5
    if form == "q-free":
        rep = qf.universality_scan(qf.form_q(n - 1), qf.domain_Z_full(n - 1),
                                   args.max_k, args.radius)
        return rep, n >= 5
    if form in ("Ps", "trunc"):
        if args.ell is None:
            raise AtomlenError(f"form {form} needs --ell")
        # trunc is Ps at the staircase charges 0..l-1, its --s ignored
        charges = (_parse_csv_ints(args.s) if args.s and form == "Ps"
                   else tuple(range(args.ell)))
        spec = cores_abaci.WeightSpec(n, args.ell, charges)
        rep = qf.universality_scan(spec.form(), spec.domain(), args.max_k,
                                   args.radius)
        return rep, False
    if form == "refined-go":
        rep = cores_abaci.scan_refined_GO(n, args.max_k, args.radius)
        return rep, False
    if form == "go":
        rep = cores_abaci.granville_ono_scan(n, args.max_k, args.radius)
        return rep, n >= 4
    if form == "deltaC":
        rep = affine_classical.scan_deltaC(n, args.max_k, args.radius)
        return rep, n >= 4 and sumsets.is_prime(2 * n + 1)
    # lattice, the last of SCAN_FORMS
    if not args.type:
        raise AtomlenError("form lattice needs --type")
    spec = affine_classical.AffineLatticeSpec(args.type, n)
    rep = affine_classical.norm_universality_scan(spec, args.max_k,
                                                  args.radius)
    return rep, n >= 4


def _cmd_scan(args) -> int:
    rep, guaranteed = _scan_report(args)
    _emit(args, rep.to_json_dict(), rep.to_text())
    return 1 if (guaranteed and not rep.all_witnessed) else 0


def _cmd_hall(args) -> int:
    d = _parse_csv_ints(args.d)
    a, b = sumsets.hall_decompose(args.mod, d)
    payload = {"mod": args.mod, "d": list(d), "a": list(a), "b": list(b)}
    text = (f"a {','.join(map(str, a))}\n"
            f"b {','.join(map(str, b))}")
    _emit(args, payload, text)
    return 0


def _cmd_sumset(args) -> int:
    cert = sumsets.verify_sumset_equality(args.family, args.n, args.mod)
    text = (f"family={cert.family} n={cert.n} mod={cert.modulus} "
            f"equal={'yes' if cert.equal else 'no'} "
            f"missing={len(cert.missing)}")
    _emit(args, cert.to_json_dict(), text)
    if args.mod is not None:
        return 0  # exploratory override
    guaranteed = args.family == "A" or sumsets.is_prime(2 * args.n + 1)
    return 1 if (guaranteed and not cert.equal) else 0


def _parse_multipartition(text: str):
    comps = (comp.strip() for comp in text.split(";"))
    return tuple(cores_abaci.as_partition(_parse_csv_ints(comp)) if comp
                 else () for comp in comps)


def _cmd_core(args) -> int:
    lam = _parse_multipartition(args.npartition)
    charges = _parse_csv_ints(args.charges)
    quotient, sn = cores_abaci.phi(lam, charges, args.n)
    (core_lam, core_charges), multicharge = cores_abaci.ns_core_of(
        lam, charges, args.n)
    payload = {
        "n": args.n,
        "input": [list(p) for p in lam], "charges": list(charges),
        "quotient": [list(p) for p in quotient], "quotient_charges": list(sn),
        "core": [list(p) for p in core_lam],
        "core_charges": list(core_charges),
        "core_multicharge": list(multicharge),
        "core_size": cores_abaci.multipartition_size(core_lam),
    }
    fmt = lambda mp: ";".join(",".join(map(str, p)) for p in mp)
    lines = [
        f"quotient {fmt(quotient)} charges {','.join(map(str, sn))}",
        f"core {fmt(core_lam)} charges {','.join(map(str, core_charges))}",
        f"multicharge {','.join(map(str, multicharge))}",
    ]
    if args.render:
        lines.append(cores_abaci.render_abacus(
            cores_abaci.l_abacus(lam, charges)))
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_finite(args) -> int:
    t = finite_weyl.FiniteType(args.type, args.n)
    if args.bound:
        b = finite_weyl.b_bound(t, args.ell)
        _emit(args, {"type": t.series, "n": t.n, "ell": args.ell, "b": b},
              str(b))
        return 0
    res = finite_weyl.saturation_check(t, args.ell)
    _emit(args, res.to_json_dict(),
          f"type={t.series} n={t.n} ell={args.ell} b={res.bound} "
          f"interval={'yes' if res.is_interval else 'no'} "
          f"missing={','.join(map(str, res.missing)) or '-'}")
    predicted = finite_weyl.saturation_predicted(t, args.ell)
    return 1 if res.is_interval != predicted else 0


def _cmd_threshold(args) -> int:
    n0 = affine_classical.large_rank_threshold(args.type)
    check_range = 40
    ok = all(affine_classical.intervals_overlap(args.type, n)
             for n in range(n0, check_range + 1))
    ok = ok and not affine_classical.intervals_overlap(args.type, n0 - 1)
    _emit(args, {"type": args.type, "n0": n0, "check_range": check_range},
          f"type={args.type} n0={n0}")
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors: one line on stderr, exit code 2."""
        self.exit(2, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got "
                                             f"{text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


POSITIVE = _int_at_least(1)
NONNEGATIVE = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="atomlen",
        description="Desk-scale checks for atomic lengths, entropy and cores")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true",
                       help="emit a JSON document instead of text")
        p.set_defaults(fn=fn)
        return p

    p = add("entropy", _cmd_entropy, help="entropy of a window vector")
    p.add_argument("--n", type=POSITIVE, required=True)
    p.add_argument("--window", required=True, help="comma-separated window")

    p = add("scan", _cmd_scan, help="universality scan of a form")
    p.add_argument("--form", choices=SCAN_FORMS, required=True)
    p.add_argument("--n", type=POSITIVE, required=True)
    p.add_argument("--max-k", type=NONNEGATIVE, required=True)
    p.add_argument("--radius", type=NONNEGATIVE, required=True)
    p.add_argument("--ell", type=int, help="level, for Ps/trunc")
    p.add_argument("--s", help="charge vector for Ps, comma-separated")
    p.add_argument("--type", choices=affine_classical.LATTICE_TAGS,
                   help="affine type tag, for lattice")

    p = add("hall", _cmd_hall, help="difference-vector decomposition")
    p.add_argument("--mod", type=POSITIVE, required=True)
    p.add_argument("--d", required=True, help="comma-separated differences")

    p = add("sumset", _cmd_sumset, help="orbit difference-set equality")
    p.add_argument("--family", choices=("A", "C"), required=True)
    p.add_argument("--n", type=POSITIVE, required=True)
    p.add_argument("--mod", type=POSITIVE, help="override the modulus")

    p = add("core", _cmd_core, help="quotient, core and multicharge")
    p.add_argument("--npartition", required=True,
                   help='semicolon-separated components, e.g. "3,1;2,1"')
    p.add_argument("--charges", required=True, help="comma-separated charges")
    p.add_argument("--n", type=POSITIVE, required=True)
    p.add_argument("--render", action="store_true",
                   help="print the abacus of the input")

    p = add("finite", _cmd_finite, help="finite-type bound or saturation")
    p.add_argument("--type", choices=finite_weyl.SERIES, required=True)
    p.add_argument("--n", type=POSITIVE, required=True)
    p.add_argument("--ell", type=int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--bound", action="store_true")
    g.add_argument("--saturate", action="store_true")

    p = add("threshold", _cmd_threshold, help="large-rank threshold of a type")
    p.add_argument("--type", choices=affine_classical.LATTICE_TAGS,
                   required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SearchFailed as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:
        if isinstance(exc, AtomlenError) and \
                not isinstance(exc, InvariantViolation):
            print(str(exc), file=sys.stderr)
            return 2
        # a bug or a broken invariant, not a verdict: keep it off codes 0-2
        detail = " ".join(str(exc).split())
        print(f"atomlen {args.command}: internal error: "
              f"{type(exc).__name__}: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
