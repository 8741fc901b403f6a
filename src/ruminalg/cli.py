"""Command-line front end.

Subcommands:
    eval EXPR            evaluate a form expression, print the canonical form
    verify SUITE         run a seeded verification suite (exit 0 pass, 1 fail)
    basis                list coframe or vertical basis monomials of a degree
    model                print the contact form, its differential, the coframe
    cohomology           Betti numbers / classes of a finite algebra file

Exit codes: 0 success, 1 verification failure, domain error or a reader
that closed the output early, 2 usage, syntax or file error.  The handlers
raise; only `main` turns an error into its `error:` line and exit code.  A
command line that argparse accepts but that asks for nothing runnable (an
option out of range, both or neither of SUITE and --suite, both or neither
of PATH and --builtin) is a `UsageError`, exit 2.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._version import __version__
from .errors import ConstructionError, DimensionError, DomainError
from .finite import FiniteGradedAlgebra, cohomology, heisenberg_ce_algebra, heisenberg_rumin_model, terms_text
from .forms import ContactModel
from .parser import ParseError, eval_text
from .suites import SUITE_NAMES, format_report, report_json, run_all, run_suite


class UsageError(ValueError):
    """A command line argparse accepts that names nothing to run."""


def _add_model_arg(p) -> None:
    p.add_argument("--n", type=int, default=1, help="Heisenberg model parameter (dim = 2n+1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruminalg",
        description="Exact Rumin-complex calculator on Heisenberg models",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"ruminalg {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a form expression")
    p_eval.add_argument("expr", help="expression, e.g. 'pi(dx1^dy1)' or '(3/2*x1**2) dx1^dy1'")
    _add_model_arg(p_eval)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", nargs="?", choices=SUITE_NAMES, help="suite name")
    p_verify.add_argument("--suite", dest="suite_opt", choices=SUITE_NAMES, help="suite name (flag form)")
    _add_model_arg(p_verify)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--max-poly-degree", type=int, default=2)
    p_verify.add_argument("--json", metavar="PATH", help="write the report as JSON")

    p_basis = sub.add_parser("basis", help="list basis monomials of a degree")
    _add_model_arg(p_basis)
    p_basis.add_argument("--degree", type=int, required=True)
    p_basis.add_argument("--vertical", action="store_true", help="only monomials containing theta")

    p_model = sub.add_parser("model", help="print the contact structure")
    _add_model_arg(p_model)

    p_coh = sub.add_parser("cohomology", help="cohomology of a finite graded algebra")
    p_coh.add_argument("path", nargs="?", help="algebra file (see README for the format)")
    p_coh.add_argument("--builtin", choices=["ce", "rumin"], help="use a built-in model instead of a file")
    p_coh.add_argument("--dump", action="store_true", help="print the algebra in file format and exit")

    return parser


def cmd_eval(args) -> int:
    text = eval_text(args.expr, ContactModel(args.n)).to_text()  # too long to print: DomainError
    print(text)
    return 0


def cmd_verify(args) -> int:
    if bool(args.suite) == bool(args.suite_opt):
        raise UsageError("give exactly one of SUITE or --suite")
    suite = args.suite or args.suite_opt
    kwargs = dict(n=args.n, trials=args.trials, seed=args.seed, max_poly_degree=args.max_poly_degree)
    # A basis too large to enumerate is a DomainError before any output.
    reports = run_all(**kwargs) if suite == "all" else [run_suite(suite, **kwargs)]
    for report in reports:
        print(format_report(report))
    if args.json:
        report_json(reports[0] if suite != "all" else reports, args.json)
    return 0 if all(r.passed for r in reports) else 1


def cmd_basis(args) -> int:
    model = ContactModel(args.n)
    listing = model.vertical_monomials if args.vertical else model.coframe_monomials
    for idx in listing(args.degree):
        print("^".join(model.coframe_label(i) for i in idx) or "1")
    return 0


def cmd_model(args) -> int:
    model = ContactModel(args.n)
    volume = model.volume().to_text()  # n! outgrows what str() prints for large n: DomainError
    coords = [f"x{i}" for i in range(1, model.n + 1)] + [f"y{i}" for i in range(1, model.n + 1)] + ["z"]
    print(f"H^{model.dim} (n={model.n}), coordinates: {' '.join(coords)}")
    print("coframe: " + ", ".join(f"e{i}={model.coframe_label(i)}" for i in range(model.dim)))
    theta_coords = "dz" + "".join(f" - y{i}*dx{i}" for i in range(1, model.n + 1))
    print(f"theta = {theta_coords}")
    print(f"dtheta = {model.dtheta().to_text()}")
    print(f"volume theta^dtheta^{model.n} = {volume}")
    return 0


def cmd_cohomology(args) -> int:
    if bool(args.path) == bool(args.builtin):
        raise UsageError("give exactly one of PATH or --builtin")
    if args.builtin == "ce":
        algebra = heisenberg_ce_algebra()
    elif args.builtin == "rumin":
        algebra = heisenberg_rumin_model()
    else:
        try:
            with open(args.path, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise OSError(f"{args.path}: not UTF-8 text: {exc}") from exc
        algebra = FiniteGradedAlgebra.loads(text)
    if args.dump:
        print(algebra.dumps(), end="")
        return 0
    h = cohomology(algebra)
    # the whole report is built first: a representative too long to print
    # is a DomainError before any output
    lines = [f"{algebra.name or 'algebra'}: betti {h.betti_numbers()}"]
    for deg in algebra.degrees:
        labels, rows = algebra.labels(deg), h.rows(deg)
        texts = "; ".join(terms_text((c, labels[i]) for i, c in row.items()) for row in rows)
        lines.append(f"  H^{deg} (dim {len(rows)})" + (f": {texts}" if rows else ""))
    print("\n".join(lines))
    return 0


def _check_ranges(args) -> None:
    """UsageError for the first numeric option outside its range."""
    limits = (("--n", "n", 1), ("--trials", "trials", 1), ("--max-poly-degree", "max_poly_degree", 0))
    for option, attr, low in limits:
        value = getattr(args, attr, None)
        if value is not None and value < low:
            raise UsageError(f"{option} must be at least {low}, got {value}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "eval": cmd_eval,
        "verify": cmd_verify,
        "basis": cmd_basis,
        "model": cmd_model,
        "cohomology": cmd_cohomology,
    }
    try:
        _check_ranges(args)
        return handlers[args.command](args)
    except BrokenPipeError:
        # The reader left early (`ruminalg basis ... | head -1`).  Point stdout
        # at devnull so the flush at exit has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, DimensionError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
