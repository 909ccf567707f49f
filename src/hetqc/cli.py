"""Command-line front end.

Subcommands: ``run`` compiles one workload onto one architecture and writes
schedule/budget artifacts, ``sweep`` tabulates several architectures on the
same workload, ``rsa`` prints factoring-run estimates, ``arch`` dumps or
checks architecture configs.

Exit codes: 0 success, 2 unusable arguments or config, 3 a spec or circuit
failed validation, 4 compilation failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .arch import (BUILTIN_NAMES, ConfigError, apply_override,
                   load_architecture, to_config_text, validate)
from .circuits import LogicalCircuit
from .compiler import CompileError, InvalidCircuit, error_budget, schedule
from .estimator import (COMPARISON_FIELDS, RSA_SHOT_FIDELITY,
                        compare_architectures, rsa_estimate,
                        rsa_estimate_compiled)
from .generators import (generate_aqft, generate_cuccaro_adder,
                         generate_fermi_hubbard_step, generate_rsa_subroutine)

EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_COMPILE = 4


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _parse_params(text: str) -> dict[str, str]:
    params = {}
    for part in text.split(","):
        if not part:
            continue
        key, eq, value = part.partition("=")
        if not eq:
            raise _CliError(f"workload parameter {part!r} is not key=value",
                            EXIT_CONFIG)
        params[key.strip()] = value.strip()
    return params


def _int_param(params: dict[str, str], key: str, required: bool = False,
               default: int | None = None) -> int | None:
    if key not in params:
        if required:
            raise _CliError(f"workload needs {key}=<int>", EXIT_CONFIG)
        return default
    try:
        return int(params.pop(key))
    except ValueError:
        raise _CliError(f"workload parameter {key} must be an integer",
                        EXIT_CONFIG)


def build_workload(spec: str) -> LogicalCircuit:
    """``kind:key=value,...`` -> circuit.

    Kinds: ``aqft`` (n, k_th), ``cuccaro`` (bits), ``hubbard`` (lx, ly,
    steps), ``rsa`` (kind=adder33|lookup6|phaseup6), ``file`` (a circuit
    text file path).
    """
    kind, colon, rest = spec.partition(":")
    if kind == "file":
        if not colon or not rest:
            raise _CliError("file workload needs a path: file:<path>",
                            EXIT_CONFIG)
        try:
            text = Path(rest).read_text(encoding="utf-8")
        except OSError as exc:
            raise _CliError(f"cannot read circuit file: {exc}", EXIT_CONFIG)
        try:
            return LogicalCircuit.from_text(text)
        except ValueError as exc:
            raise _CliError(f"bad circuit file: {exc}", EXIT_CONFIG)
    params = _parse_params(rest)
    try:
        if kind == "aqft":
            circ = generate_aqft(_int_param(params, "n", required=True),
                                 _int_param(params, "k_th"))
        elif kind == "cuccaro":
            circ = generate_cuccaro_adder(_int_param(params, "bits",
                                                     required=True))
        elif kind == "hubbard":
            circ = generate_fermi_hubbard_step(
                _int_param(params, "lx", required=True),
                _int_param(params, "ly", required=True),
                _int_param(params, "steps", default=1))
        elif kind == "rsa":
            circ = generate_rsa_subroutine(params.pop("kind", "adder33"))
        else:
            raise _CliError(f"unknown workload kind {kind!r} (aqft, "
                            "cuccaro, hubbard, rsa, file)", EXIT_CONFIG)
    except ValueError as exc:  # a generator refused the parameters
        raise _CliError(f"bad workload: {exc}", EXIT_CONFIG)
    if params:
        raise _CliError(f"unused workload parameters: {sorted(params)}",
                        EXIT_CONFIG)
    return circ


def _load_arch(name: str, overrides: list[str]):
    try:
        spec = load_architecture(name)
        for ov in overrides:
            apply_override(spec, ov)
    except ConfigError as exc:
        raise _CliError(str(exc), EXIT_CONFIG)
    problems = validate(spec)
    if problems:
        raise _CliError("invalid architecture: " + "; ".join(problems),
                        EXIT_VALIDATION)
    return spec


def _load_archs(names: str, overrides: list[str]):
    """The validated architectures of a comma-separated ``--archs`` list."""
    specs = [_load_arch(name.strip(), overrides)
             for name in names.split(",") if name.strip()]
    if not specs:
        raise _CliError("no architectures given", EXIT_CONFIG)
    return specs


def _compile(circ: LogicalCircuit, spec):
    try:
        return schedule(circ, spec)
    except InvalidCircuit as exc:
        raise _CliError(f"invalid circuit: {exc}", EXIT_VALIDATION)
    except CompileError as exc:
        raise _CliError(f"compilation failed: {exc}", EXIT_COMPILE)


def _out_dir(out: str | None) -> Path | None:
    """The ``--out`` directory, made before any compile, or None."""
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
    return Path(out) if out else None


def _write_json(path: Path, payload) -> None:
    # streamed: no whole-document string, which after a big compile would
    # be one more sub-kilobyte block freed high in the heap (see
    # compiler._drain)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_run(args) -> int:
    circ = build_workload(args.workload)
    spec = _load_arch(args.arch, args.override)
    out = _out_dir(args.out)
    prog = _compile(circ, spec)
    budget = error_budget(prog)
    summary = {
        "circuit": prog.circuit_name,
        "arch": prog.arch_name,
        "n_qubits_count": circ.n_qubits,
        "n_gates_count": len(circ.ops),
        "n_events_count": len(prog.events),
        "n_blocks_count": prog.n_blocks,
        "makespan_s": prog.makespan_s,
        "total_error_prob": budget.total,
        "dominant_category": budget.dominant(),
        "budget_prob": dict(budget.rows()),
        "counters_count": dict(sorted(prog.counters.items())),
        "warnings": prog.warnings,
    }
    if out:
        _write_json(out / "summary.json", summary)
        with (out / "schedule.txt").open("w", encoding="utf-8") as fh:
            # line by line: joining batches would grow a list through the
            # sub-kilobyte sizes on every batch (see compiler._drain)
            fh.writelines(prog.lines())
        with (out / "budget.csv").open("w", newline="",
                                       encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["category", "error_prob"])
            for cat, p in budget.rows():
                w.writerow([cat, repr(p)])
            w.writerow(["total", repr(budget.total)])
        print(f"artifacts in {out}")
    print(f"{prog.circuit_name} on {prog.arch_name}: makespan "
          f"{prog.makespan_s:.6g} s, error {budget.total:.4g} "
          f"(dominant {budget.dominant()})")
    for line in prog.warnings:
        print(f"warning: {line}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    circ = build_workload(args.workload)
    out = _out_dir(args.out)
    rows = compare_architectures(circ, _load_archs(args.archs, args.override))
    if out:
        with (out / "comparison.csv").open("w", newline="",
                                           encoding="utf-8") as fh:
            w = csv.DictWriter(fh, fieldnames=COMPARISON_FIELDS)
            w.writeheader()
            w.writerows(rows)
        _write_json(out / "summary.json",
                    {"circuit": circ.name, "rows": rows})
        print(f"artifacts in {out}")
    fmt = "%-14s %-8s %12s %12s %10s %8s"
    print(fmt % ("arch", "status", "makespan_s", "error", "dominant",
                 "x better"))
    for r in rows:
        if r["status"] != "ok":
            print(fmt % (r["arch"], "failed", "-", "-", "-", "-"))
            print(f"    {r['status']}")
            continue
        print(fmt % (r["arch"], r["status"], f"{r['makespan_s']:.4g}",
                     f"{r['total_error']:.3e}", r["dominant"],
                     "-" if r["error_ratio"] is None
                     else f"{r['error_ratio']:.1f}"))
    return 0


def cmd_rsa(args) -> int:
    if not 0 < args.fidelity <= 1:  # NaN fails this too
        raise _CliError("--fidelity must be in (0, 1]", EXIT_CONFIG)
    estimate = rsa_estimate_compiled if args.compiled else rsa_estimate
    out = _out_dir(args.out)
    results = []
    for spec in _load_archs(args.archs, args.override):
        try:
            results.append(estimate(spec, fidelity=args.fidelity))
        except (CompileError, ValueError) as exc:
            raise _CliError(f"estimate failed for {spec.name}: {exc}",
                            EXIT_COMPILE)
    print("%-14s %12s %10s %12s %14s" % ("arch", "shot_s", "days",
                                         "qubits", "Mqubit-days"))
    for est in results:
        print("%-14s %12.2f %10.4f %12d %14.4f"
              % (est.arch, est.shot_s, est.runtime_days, est.qubits_total,
                 est.qubit_cost_mdays))
        if est.fidelity_compiled is not None:
            taus = ", ".join(f"{k}={v:.3e}"
                             for k, v in sorted(est.tau_compiled_s.items()))
            print(f"    compiled fidelity {est.fidelity_compiled:.4g} "
                  f"(log10 {est.fidelity_compiled_log10:.6g}), tau: {taus}")
    if out:
        payload = [{
            "arch": e.arch, "shot_s": e.shot_s,
            "runtime_days": e.runtime_days, "fidelity_prob": e.fidelity,
            "qubits_count": e.qubits_total,
            "qubit_cost_mdays": e.qubit_cost_mdays,
            "coupler_cost_mdays": e.coupler_cost_mdays,
            "tau_s": e.tau_s,
            "fidelity_compiled_prob": e.fidelity_compiled,
            "fidelity_compiled_log10": e.fidelity_compiled_log10,
            "tau_compiled_s": e.tau_compiled_s,
        } for e in results]
        _write_json(out / "rsa.json", payload)
        print(f"artifacts in {out}")
    return 0


def cmd_arch(args) -> int:
    spec = _load_arch(args.name, args.override)
    text = to_config_text(spec)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hetqc",
        description="compile and cost logical circuits on modular "
                    "fault-tolerant architectures")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--override", action="append", default=[],
                        metavar="MOD.KEY=VAL",
                        help="adjust one architecture field")
        sp.add_argument("--out", help="directory (or file for arch) "
                                      "for artifacts")

    sp = sub.add_parser("run", help="compile one workload onto one "
                                    "architecture")
    sp.add_argument("--workload", required=True,
                    help="aqft:n=..[,k_th=..] | cuccaro:bits=.. | "
                         "hubbard:lx=..,ly=..[,steps=..] | "
                         "rsa[:kind=adder33] | file:<path>")
    sp.add_argument("--arch", required=True,
                    help=f"builtin ({', '.join(BUILTIN_NAMES)}) or config "
                         "path")
    common(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("sweep", help="compare architectures on one "
                                      "workload")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--archs", required=True,
                    help="comma-separated names or paths")
    common(sp)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("rsa", help="factoring-run cost estimates")
    sp.add_argument("--archs", default="B2",
                    help="comma-separated names or paths")
    sp.add_argument("--fidelity", type=float, default=RSA_SHOT_FIDELITY,
                    help="pinned per-shot success probability")
    sp.add_argument("--compiled", action="store_true",
                    help="measure per-call durations by compiling the "
                         "subroutines")
    common(sp)
    sp.set_defaults(fn=cmd_rsa)

    sp = sub.add_parser("arch", help="print or export an architecture "
                                     "config")
    sp.add_argument("--name", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_arch)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:  # input reads raise _CliError: an --out write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
