"""Command-line interface.

Each subcommand is declared once, in `_COMMANDS`: its handler, the names of
its options (argparse specs in `_OPTIONS`) and any per-command defaults. A
run builds options only for the subcommand it dispatches to. A handler
returns (result, text lines, exit code); `run` echoes the parsed arguments
as the resolved configuration and prints the result. Exact rationals print
as p/q, and --json gives machine output (compact JSON on one line).
Exit codes encode verdicts: 0 for success or feasible, 1 for infeasible or
not-perfect results, 2 for usage errors. With --no-meta the JSON output is
byte-identical across runs of the same argv.
"""

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from . import __version__, bridge, certify, master, repart, su2, tensors
from .errors import ParseError, Su2IptError

__all__ = ["main", "run", "parse_spin_list"]


def parse_spin_list(text):
    """Parse a comma-separated spin list like "1/2,1,3/2" into twice-ints."""
    if not text:
        raise ParseError("empty spin list (position 1)")
    out = []
    for pos, token in enumerate(text.split(","), start=1):
        try:
            out.append(su2.parse_spin(token.strip()))
        except Su2IptError as e:
            raise ParseError(
                f"bad spin {token.strip()!r} at position {pos}: {e}"
            ) from None
    return tuple(out)


def _valence(text):
    """argparse type for --valence: an integer of at least 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"valence must be an integer, got {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError(f"valence must be at least 2, got {value}")
    return value


def _tolerance(text):
    """argparse type for --tolerance: a finite number greater than 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be a finite number > 0, got {text!r}")
    return value


def _fmt(x):
    """Exact rationals as p/q; floats trimmed; complex as a+bi."""
    if isinstance(x, Fraction):
        return str(x) if x.denominator > 1 else str(x.numerator)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, complex):
        return f"{x.real:.12g}{x.imag:+.12g}i"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _cmd_theta(args):
    path = parse_spin_list(args.path)
    if args.path2 is not None:
        value = bridge.theta(path, parse_spin_list(args.path2))
    else:
        value = bridge.theta_single(path)
    return {"theta": _fmt(value)}, [_fmt(value)], 0


def _cmd_basis(args):
    valence = args.valence
    if args.split is None:
        args.split = valence // 2  # echoed in config as resolved
    n1 = args.split
    labels = bridge.bridge_basis(valence, n1)
    rows = [
        {"label": m.text(), "bridge": su2.format_spin(m.bridge),
         "theta": _fmt(bridge.theta_label(m))}
        for m in labels
    ]
    lines = [f"{len(labels)} bridge labels for valence {valence}, split {n1}"]
    lines += [f"  {r['label']}   theta = {r['theta']}" for r in rows]
    return {"labels": rows}, lines, 0


def _cmd_master(args):
    valence = args.valence
    if args.split is None:
        args.split = valence // 2  # echoed in config as resolved
    n1 = args.split
    sys_ = master.build_master_system(valence, n1).normalized()
    result = sys_.to_json_dict()
    lines = [f"master system for valence {valence}, split {n1}:"]
    lines += ["  " + eq.text() for eq in sys_.equations]
    if valence == 4 and n1 == 2:
        fam = master.solve_qubit_valence4()
    elif valence == 6 and n1 == 3:
        fam = master.solve_qubit_valence6()
    else:
        fam = None
    if fam is not None:
        result["family"] = fam.to_json_dict()
        lines.append("solution family:")
        for m, form in fam.bound_forms.items():
            lines.append(f"  c[{m.text()}] = {form}")
        lines.append(f"  domain: {fam.domain}")
    return result, lines, 0


def _cmd_repart(args):
    valence = args.valence
    word = args.word
    if args.convention == "swap":
        perm = repart.word_permutation(valence, word.split())
        mat = repart.numeric_repart_matrix(valence, perm)
        mat = repart.RepartitionMatrix(
            valence, tuple(word.split()), mat.labels, mat.matrix,
            repart.PLAIN,
        )
    else:
        mat = repart.compose(repart.parse_word(valence, word))
    involution = mat.is_involution()
    result = mat.to_json_dict()
    result["involution"] = involution
    lines = [f"word {mat.word_text()} on valence {valence}"
             f" ({mat.sign_convention}):"]
    for m, row in zip(mat.labels, mat.matrix):
        lines.append(
            f"  {m.text():28s} " + "  ".join(f"{_fmt(x):>6s}" for x in row)
        )
    lines.append(f"involution: {involution}")
    return result, lines, 0


def _cmd_nogo(args):
    trace = repart.algorithm1_run(
        args.valence, restarts=args.restarts, seed=args.seed
    )
    lines = []
    if not trace.exact:
        lines.append("== numerical evidence only ==")
    for i, step in enumerate(trace.steps, start=1):
        lines.append(f"step {i} [{step.word}]: {step.constraint}")
        for k, v in sorted(step.checks.items()):
            lines.append(f"    {k} = {_fmt(v)}")
    for c in trace.certificate:
        lines.append(f"certificate: {c}")
    lines.append(("feasible: " if trace.feasible else "infeasible: ")
                 + trace.summary.split(": ", 1)[-1])
    return trace.to_json_dict(), lines, 0 if trace.feasible else 1


def _cmd_certify(args):
    with open(args.file) as fh:
        t = tensors.from_json_dict(json.load(fh))
    report = certify.certify_perfect(t, tolerance=args.tolerance)
    lines = [
        f"legs: {', '.join(su2.format_spin(x) for x in t.legs)}",
        f"invariance defect: {_fmt(report.invariance)}",
    ]
    for p, lam, defect, _spec in report.per_bipartition:
        lines.append(
            f"  A={p.a}  lambda = {_fmt(lam)}  defect = {_fmt(defect)}"
        )
    lines.append(f"verdict: {report.verdict}")
    return report.to_json_dict(), lines, 0 if report.verdict == "perfect" else 1


def _cmd_search(args):
    legs = parse_spin_list(args.path)
    result = certify.search_min_defect(
        legs, restarts=args.restarts, seed=args.seed
    )
    ok = result.best_defect < args.tolerance
    lines = [
        f"best summed defect over {result.restarts} restarts:"
        f" {_fmt(result.best_defect)}",
        "a perfect point was found" if ok else "no perfect point found",
    ]
    return result.to_json_dict(), lines, 0 if ok else 1


def _cmd_layout(args):
    legs = parse_spin_list(args.path)
    checks = {}
    if len(legs) % 2 == 0:
        checks["even_equal_spins"] = certify.layout_check_even(legs)
    else:
        checks["odd_spin_balance"] = certify.layout_check_odd(legs)
    if len(set(legs)) == 1:
        d = legs[0] + 1
        checks["scott_bound"] = certify.scott_bound(d, len(legs))
    verdict = "pass" if all(v == "pass" for v in checks.values()) else "fail"
    lines = [f"  {k}: {v}" for k, v in sorted(checks.items())]
    lines.append(f"layout verdict: {verdict}")
    return {"checks": checks, "verdict": verdict}, lines, 0 if verdict == "pass" else 1


def _cmd_walk(args):
    report = certify.phase_walk_feasibility()
    lines = [
        f"x = arccos(7/9) = {_fmt(report.x)}",
        f"window around 0: [{_fmt(report.interval_a[0])},"
        f" {_fmt(report.interval_a[1])}]",
        f"window around pi: [{_fmt(report.interval_b[0])},"
        f" {_fmt(report.interval_b[1])}]",
        f"disjoint: {report.disjoint}",
        f"grid min joint residual: {_fmt(report.grid_min_residual)}"
        f" (grid {report.grid_points}^3 per walk)",
        "infeasible: the two relative-phase windows cannot both hold"
        if report.disjoint and report.grid_min_residual > 1e-3
        else "feasible window overlap found",
    ]
    return report.to_json_dict(), lines, 1 if report.disjoint else 0


# argparse spec of each option, by name; --json and --no-meta go on every command
_OPTIONS = {
    "valence": {"type": _valence, "required": True},
    "split": {"type": int, "default": None},
    "path": {"required": True},
    "path2": {"default": None},
    "word": {"default": "P*"},
    "file": {"required": True},
    "restarts": {"type": int},
    "seed": {"type": int, "default": 0},
    "tolerance": {"type": _tolerance, "default": 1e-10},
    "convention": {"choices": ("binor", "swap"), "default": "binor"},
}
# subcommand -> (handler, option names, per-command option defaults)
_COMMANDS = {
    "theta": (_cmd_theta, ("path", "path2"), {}),
    "basis": (_cmd_basis, ("valence", "split"), {}),
    "master": (_cmd_master, ("valence", "split"), {}),
    "repart": (_cmd_repart, ("valence", "word", "convention"), {}),
    "nogo": (_cmd_nogo, ("valence", "restarts", "seed"), {"restarts": 60}),
    "certify": (_cmd_certify, ("file", "tolerance"), {}),
    "search": (_cmd_search, ("path", "restarts", "seed", "tolerance"),
               {"restarts": 100}),
    "layout": (_cmd_layout, ("path",), {}),
    "walk": (_cmd_walk, (), {}),
}


def _parse(argv):
    """Parse argv, adding options only to the subcommand that argv names.

    The top-level parser takes no option with a value, so the first token
    not starting with "-" is the subcommand argparse will dispatch to.
    """
    command = next((a for a in argv if not a.startswith("-")), None)
    p = argparse.ArgumentParser(
        prog="su2ipt",
        description="invariant perfect tensor toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, options, defaults) in _COMMANDS.items():
        sp = sub.add_parser(name)
        if name == command:
            for opt in options:
                sp.add_argument(f"--{opt}", **_OPTIONS[opt])
            sp.add_argument("--json", action="store_true")
            sp.add_argument("--no-meta", dest="no_meta", action="store_true")
            sp.set_defaults(fn=fn, **defaults)
    return p.parse_args(argv)


def run(argv):
    try:
        # the parser is not kept while the command runs: its reference cycles
        # then die young, before the collector moves them to old generations
        args = _parse(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        result, lines, code = args.fn(args)
    except (Su2IptError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    config = {k: v for k, v in vars(args).items()
              if k not in ("fn", "json", "no_meta")}
    if args.json:
        doc = {"config": config, "result": result}
        if not args.no_meta:
            doc["meta"] = {
                "tool": f"su2ipt {__version__}",
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            }
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        print("config:", " ".join(f"{k}={v}" for k, v in sorted(config.items())))
        for line in lines:
            print(line)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
