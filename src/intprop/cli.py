"""Command-line front end: run benchmarks or problem files, report statistics.

Examples::

    intprop --problem sumprod --n 13 --variant pu --stats json
    intprop --problem cubes --variant fe --max-nodes 1000
    intprop --problem file:puzzle.csp --compare --stats csv
    intprop --problem opt --variant du --print-solutions

Exit status: 0 on success, also when ``--max-nodes`` or ``--time-limit``
truncated a search (a warning goes to stderr; it names the limit that
the search recorded in ``stats.stopped``, opening with ``time limit
reached:`` for the time limit); 1 when a complete search proves that the
problem to maximize has no solution (its statistics are still printed);
2 on usage or input errors: bad options, an unreadable, malformed or
oversized problem, a variable that stays unbounded, or a propagation that
exceeds its step limit; 2 also when the output cannot be written (no
stdout, a closed pipe or a full device).  Every exit 2 but that of a bad
option prints one line on stderr, when stderr can take it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .bench import BENCHMARKS, build_benchmark
from .decompose import VARIANTS
from .engine import PropagationLimit
from .intervals import OpCounters
from .model import CSP, ParseError, parse
from .rules import DIVISIONS
from .search import (Infeasible, SearchStats, UnboundedAfterPropagation,
                     maximize, solve_all)

# the op-count columns, in the order of every output format
_OPS = OpCounters.CATEGORIES + ("total",)


def _report(stats: SearchStats, extra: dict) -> dict:
    rep = {
        "variant": stats.variant,
        "division": stats.division,
        "schedule": "generated" if stats.mode == "scheduled" else "cycle",
        "nvar": stats.nvar,
        "n_drf": stats.n_rules,
        "nodes": stats.nodes,
        "drf_applications": stats.drf_applications,
        "percent_effective": round(stats.percent_effective, 2),
        "solutions": stats.solutions,
        "complete": stats.complete,
        "elapsed": round(stats.elapsed, 3),
        "ops": stats.counters.as_dict(),
    }
    rep.update(extra)
    return rep


# every column of the table and CSV outputs, in order: (table header, or
# None for a CSV-only column; report key), then the op counts
_COLUMNS = (
    ("variant", "variant"), (None, "division"), (None, "schedule"),
    ("nvar", "nvar"), ("nDRF", "n_drf"), ("nodes", "nodes"),
    ("applied", "drf_applications"), ("%eff", "percent_effective"),
    ("sol", "solutions"), (None, "complete"), ("time(s)", "elapsed"),
) + tuple((k, k) for k in _OPS)


def _rows(reports: List[dict], keys) -> List[list]:
    flat = [dict(r, **r["ops"]) for r in reports]
    return [[f[k] for k in keys] for f in flat]


def _table(reports: List[dict]) -> str:
    heads, keys = zip(*[c for c in _COLUMNS if c[0] is not None])
    rows = [["%.2f" % c if isinstance(c, float) else c for c in row]
            for row in _rows(reports, keys)]
    widths = [max(len(h), max(len(str(row[i])) for row in rows))
              for i, h in enumerate(heads)]
    out = ["  ".join(h.rjust(w) for h, w in zip(heads, widths))]
    for row in rows:
        out.append("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def _csv(reports: List[dict]) -> str:
    keys = [k for _, k in _COLUMNS]
    lines = [",".join(keys)]
    lines += [",".join(map(str, row)) for row in _rows(reports, keys)]
    return "\n".join(lines)


def _load_problem(spec: str, n: Optional[int]) -> CSP:
    if spec.startswith("file:"):
        if n is not None:
            raise ValueError("a problem file takes no size")
        path = spec[5:]
        try:
            # utf-8-sig drops a leading byte-order mark
            with open(path, "r", encoding="utf-8-sig") as fh:
                text = fh.read()
        except OSError as e:
            raise ValueError("cannot read %s: %s" % (path, e.strerror))
        return parse(text)
    return build_benchmark(spec, n)


def main(argv: Optional[List[str]] = None) -> int:
    # solutions, objectives and incumbents are printed at any size: lift
    # the interpreter's cap on int-to-str conversion (3.10.7 and later)
    # while this command runs
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        if sys.stdout is None:          # started with fd 1 closed
            raise OSError("no standard output")
        code = _main(argv)
        sys.stdout.flush()
        return code
    except (ParseError, ValueError, UnboundedAfterPropagation,
            PropagationLimit) as e:
        message = str(e)
    except OSError as e:
        # a read error is a ValueError, so this is a write that failed
        message = "cannot write output: %s" % (e.strerror or e)
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)
    # what stdout holds goes first, then the error line; a stream that
    # cannot take them is pointed at the null device, so that the flush at
    # exit does not fail again
    for stream, text in ((sys.stdout, ""),
                         (sys.stderr, "intprop: %s\n" % message)):
        if stream is not None:
            try:
                stream.write(text)
                stream.flush()
            except OSError:
                with open(os.devnull, "w") as null:
                    os.dup2(null.fileno(), stream.fileno())
    return 2


def _main(argv: Optional[List[str]]) -> int:
    ap = argparse.ArgumentParser(
        prog="intprop",
        description="Constraint propagation solver for polynomial "
                    "constraints over integer intervals.")
    ap.add_argument("--problem", required=True,
                    help="one of %s, or file:PATH" % "|".join(sorted(BENCHMARKS)))
    ap.add_argument("--n", type=int, default=None,
                    help="size parameter (sumprod length, cubes/opt/kyoto limit)")
    ap.add_argument("--variant", choices=VARIANTS, default="fe")
    ap.add_argument("--division", choices=tuple(DIVISIONS), default="weak")
    ap.add_argument("--schedule", choices=("generated", "cycle"),
                    default="generated")
    ap.add_argument("--goal", choices=("all", "maximize"), default=None,
                    help="defaults to the problem's own goal")
    ap.add_argument("--stats", choices=("table", "json", "csv"),
                    default="table")
    ap.add_argument("--print-solutions", action="store_true")
    ap.add_argument("--max-nodes", type=int, default=None)
    ap.add_argument("--time-limit", type=float, default=None,
                    metavar="SECONDS",
                    help="stop each search after this many seconds "
                         "(the result is then incomplete)")
    ap.add_argument("--compare", action="store_true",
                    help="run every variant and report one row each")
    args = ap.parse_args(argv)
    if args.max_nodes is not None and args.max_nodes < 0:
        ap.error("--max-nodes must be a number of nodes >= 0")
    if args.time_limit is not None and not args.time_limit >= 0:
        ap.error("--time-limit must be a number of seconds >= 0")

    csp = _load_problem(args.problem, args.n)
    goal = args.goal or csp.goal
    if goal == "maximize" and csp.objective is None:
        raise ValueError("the problem has no objective to maximize")
    mode = "scheduled" if args.schedule == "generated" else "cycle"
    variants = list(VARIANTS) if args.compare else [args.variant]

    reports = []
    infeasible = False
    for variant in variants:
        try:
            stats, extra = _run(csp, goal, variant, mode, args)
        except Infeasible as e:
            infeasible = True
            stats, extra = e.stats, {"objective": None, "incumbents": []}
        if not stats.complete:
            print("warning: %ssearch truncated at %d nodes (incomplete)"
                  % ("time limit reached: " if stats.stopped == "time"
                     else "", stats.nodes), file=sys.stderr)
        reports.append(_report(stats, extra))

    if args.stats == "json":
        out = reports[0] if len(reports) == 1 else reports
        print(json.dumps(out, indent=2, sort_keys=True))
    elif args.stats == "csv":
        print(_csv(reports))
    else:
        print(_table(reports))
    if infeasible:
        print("infeasible: no solution exists", file=sys.stderr)
    return 1 if infeasible else 0


def _run(csp: CSP, goal: str, variant: str, mode: str, args):
    """Solve with one variant; returns the stats and the extra report keys."""
    if goal == "maximize":
        best, value, stats = maximize(
            csp, variant=variant, division=args.division, mode=mode,
            max_nodes=args.max_nodes, time_limit=args.time_limit)
        if args.print_solutions and best is not None:
            print(_format_solution(csp, best) + "   objective=%d" % value)
        return stats, {"objective": value, "incumbents": stats.incumbents}

    def emit(sol):
        if args.print_solutions:
            print(_format_solution(csp, sol))

    _, stats = solve_all(
        csp, variant=variant, division=args.division, mode=mode,
        max_nodes=args.max_nodes, time_limit=args.time_limit,
        collect=False, on_solution=emit)
    return stats, {}


def _format_solution(csp: CSP, sol) -> str:
    return " ".join("%s=%d" % (n, v) for n, v in zip(csp.names, sol))


if __name__ == "__main__":
    sys.exit(main())
