"""Scenario runner and cross-method check suite.

``qcoupler run`` sweeps a scenario (from a file or a named preset) over
its z-grid and writes the requested statistics as CSV; photon-number
distributions go to side files.  ``qcoupler check`` runs the
cross-method validation suite (numerical vs closed-form propagator,
short-length order of accuracy, Gaussian pipeline vs the Fock oracle)
and fails loudly on any tolerance breach.  The routes it compares
against are imported inside the check functions, and ``argparse``
inside ``_build_parser``: ``import qcoupler`` loads neither, and
``qcoupler run`` never loads the closed form, the short-length
expansion or the Fock oracle.

Exit codes: 0 ok, 1 usage, 2 validation/parse, 3 numerical failure,
4 check-suite failure.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .exceptions import (
    NumericalError,
    ParameterRegimeWarning,
    PrecisionWarning,
    QcouplerError,
    ScenarioParseError,
    TruncationWarning,
    UnsupportedConfigurationError,
    ValidationError,
)
from .dynamics import (
    conservation_residual,
    evolve_state,
    propagator,
    symplectic_check,
)
from .gaussian_stats import stats_report
from .model import (
    CouplerParams,
    InputSpec,
    ModeId,
    ModeSelection,
    ScenarioConfig,
    VACUUM_INPUT,
    build_input_state,
    parse_scenario,
    serialize_scenario,
)
from .presets import PRESET_NAMES, load_preset

# (column suffix, values over z) of each quantity, read off a stacked report
_QUANTITY_COLUMNS = {
    "moments": lambda r: [("meanW", r.mean_w)] + [
        (f"w{k}", col) for k, col in enumerate(r.reduced_moments.T, start=2)],
    "variance": lambda r: [("varW", r.variance_w)],
    "squeeze": lambda r: [("lambda", r.lam)],
    "quadratures": lambda r: [("var_p", r.var_p), ("var_q", r.var_q), ("u", r.uncertainty)],
    "pn": lambda r: [],
}

# Bounds on the propagator's scaled symplectic residual, which tracks its
# relative error (within a factor of 4 where measured against mpmath):
# above the first a sweep warns, above the second it raises.
_SYMPLECTIC_ALARM = 1e-10
_SYMPLECTIC_LIMIT = 1e-6
# Above this tail mass 1 - sum p(n) beyond n_max, a p(n) table is a
# truncated head of its distribution and the sweep warns.
_PN_DEFICIT_ALARM = 1e-6
# Cells formatted per write of a CSV table: enough to amortise the
# per-call cost of ``%``, few enough that a block's text stays small.
_BLOCK_CELLS = 4096


@dataclass(frozen=True)
class SweepResult:
    """Column-oriented sweep output plus run metadata."""

    z: np.ndarray
    columns: tuple            # of (name, ndarray) in header order
    pn_tables: tuple          # of (selection name, 2-d array over (z, n))
    metadata: tuple           # of (key, value-string)


def run_scenario(cfg: ScenarioConfig) -> SweepResult:
    """Evolve the scenario over its z-grid and collect all statistics.

    Deterministic for a given config.  It first warns, with
    :class:`ParameterRegimeWarning` at the caller's line, once for each
    driven guide with |gA| <= |gS|, since nonclassical regimes favor
    |gA| > |gS|.  Each stage then runs once over the whole grid: the
    propagator stacked over z, the stacked state, and one
    stacked ``stats_report`` per distinct selection, which builds the
    order-``n_max`` jet at s=1 only for selections that request ``pn``,
    and the quadrature variances and their digit alarm only for those
    that request ``squeeze`` or ``quadratures``.
    For each of those, the metadata ``pn_max_deficit.<selection>`` gives
    the largest tail mass 1 - sum p(n) beyond ``n_max`` and its z; above
    1e-6 the sweep also warns with :class:`TruncationWarning`.  The
    metadata also gives the drift of the photon-number balance and the
    largest violation of the Bogoliubov identities, absolute and scaled
    per point by max(1, max|U|^2) (see ``symplectic_check``).  Where the
    scaled residual exceeds 1e-6 the propagator has lost its digits and
    the sweep raises :class:`NumericalError`; above 1e-10 it warns with
    :class:`PrecisionWarning`.  Both name the first z past the bound.
    """
    params = cfg.params
    for guide, gs, ga in ((1, params.gS1, params.gA1), (2, params.gS2, params.gA2)):
        if (gs != 0 or ga != 0) and abs(ga) <= abs(gs):
            warnings.warn(f"guide {guide} has |gA| <= |gS|; nonclassical regimes favor "
                          "|gA| > |gS|", ParameterRegimeWarning, stacklevel=2)
    s0 = build_input_state(cfg.inputs)
    observables = cfg.effective_observables()
    pn_selections = {sel for tag, sel in observables if tag == "pn"}
    quadrature_selections = {sel for tag, sel in observables if tag in ("squeeze", "quadratures")}
    zs = cfg.z_grid()
    transforms = propagator(params, zs)
    # an overflow leaves a non-finite residual or statistic, which is raised
    with np.errstate(over="ignore", invalid="ignore"):
        # checked before the state is evolved, whose arrays then reuse the
        # memory of the check's workspace; the transforms' memory goes back
        # before the statistics are taken
        symplectic = symplectic_check(transforms)
        _gate_symplectic(symplectic, zs)
        states = evolve_state(transforms, s0)
        del transforms
        reports = {
            sel: stats_report(states, sel, k_max=cfg.k_max, n_max=cfg.n_max,
                              include_pn=sel in pn_selections,
                              include_quadratures=sel in quadrature_selections)
            for sel in dict.fromkeys(sel for _, sel in observables)
        }
        balance = conservation_residual(states)
    columns = tuple(
        (f"{sel.name}.{qty}", values)
        for tag, sel in observables
        for qty, values in _QUANTITY_COLUMNS[tag](reports[sel])
    )
    pn_reports = [(sel, rep) for sel, rep in reports.items() if rep.p_n is not None]
    pn_tables = tuple((sel.name, rep.p_n) for sel, rep in pn_reports)
    for sel, rep in pn_reports:
        if np.max(rep.pn_deficit) > _PN_DEFICIT_ALARM:
            warnings.warn(f"p(n) of {sel.name} is truncated at n_max={cfg.n_max}: largest "
                          f"deficit 1 - sum p(n) {_largest_over_z(rep.pn_deficit, zs)} "
                          f"exceeds {_PN_DEFICIT_ALARM:g}", TruncationWarning, stacklevel=2)
    metadata = (
        ("qcoupler", __version__),
        ("scenario", serialize_scenario(cfg).replace("\n", "; ").rstrip("; ")),
        ("conservation_residual", f"{balance:.6e}"),
        ("max_symplectic_residual", f"{symplectic.residual:.6e}"),
        ("max_symplectic_residual_scaled", f"{symplectic.scaled:.6e}"),
    ) + tuple((f"pn_max_deficit.{sel.name}", _largest_over_z(rep.pn_deficit, zs))
              for sel, rep in pn_reports)
    return SweepResult(z=zs, columns=columns, pn_tables=pn_tables, metadata=metadata)


def _gate_symplectic(symplectic, zs: np.ndarray) -> None:
    """Raise where the propagator lost its digits; warn where it is losing them."""
    if symplectic.scaled <= _SYMPLECTIC_ALARM:
        return
    fatal = not symplectic.scaled <= _SYMPLECTIC_LIMIT   # NaN where |U|^2 overflows
    bound = _SYMPLECTIC_LIMIT if fatal else _SYMPLECTIC_ALARM
    z = zs[int(np.argmax(~(symplectic.each <= bound)))]
    message = (f"scaled symplectic residual {symplectic.scaled:.3e} exceeds {bound:g} "
               f"from z={z:.12g}")
    if fatal:
        raise NumericalError(f"propagator lost its digits: {message}")
    warnings.warn(f"propagator losing digits: {message}", PrecisionWarning, stacklevel=3)


def _largest_over_z(values: np.ndarray, zs: np.ndarray) -> str:
    """'<max> at z=<where>' of a quantity over the z-grid."""
    i = int(np.argmax(values))
    return f"{values[i]:.6e} at z={zs[i]:.12g}"


def _write_rows(fh, table: np.ndarray) -> None:
    """Write each row of ``table`` to the binary file ``fh`` as one CSV
    line, each cell as ``%.12g`` (the text of ``format(v, ".12g")``).

    Rows go out in blocks of about ``_BLOCK_CELLS`` cells, at least one
    row each: one bytes template, the row template repeated once per row
    of the block, formats the whole block in one ``%`` and one write.
    A block's floats and text are all that is held at once, so memory
    stays flat in the table's size.
    """
    nrows, ncols = table.shape
    step = max(1, _BLOCK_CELLS // ncols)
    row = b",".join([b"%.12g"] * ncols) + b"\n"
    template = row * step
    for start in range(0, nrows, step):
        block = table[start:start + step]
        fmt = template if len(block) == step else row * len(block)
        fh.write(fmt % tuple(block.ravel().tolist()))


def emit_csv(result: SweepResult, destination) -> list:
    """Write the sweep as CSV (12 significant digits, LF endings).

    Photon-number tables go to side files named
    ``<stem>.<selection>.pn.csv``.  Returns the list of paths written.
    Every file is written in binary mode: its metadata and header lines
    as one UTF-8 string (ASCII in practice), then the rows through
    ``_write_rows``.  An ``OSError`` is raised as :class:`QcouplerError`
    naming the file.
    """
    destination = str(destination)
    written = [destination]
    try:
        with open(destination, "wb") as fh:
            head = "".join(f"# {key}: {value}\n" for key, value in result.metadata)
            head += ",".join(["z"] + [name for name, _ in result.columns]) + "\n"
            fh.write(head.encode())
            _write_rows(fh, np.column_stack([result.z] + [values for _, values in result.columns]))
        stem = destination[:-4] if destination.endswith(".csv") else destination
        for sel_name, table in result.pn_tables:
            path = f"{stem}.{sel_name}.pn.csv"
            written.append(path)
            with open(path, "wb") as fh:
                fh.write((",".join(["z"] + [f"p{n}" for n in range(table.shape[1])]) + "\n").encode())
                _write_rows(fh, np.column_stack([result.z, table]))
    except OSError as exc:
        raise QcouplerError(f"cannot write {exc.filename or destination}: {exc}") from exc
    return written


# --------------------------------------------------------------------------
# Cross-method check suite.

def _check_analytic():
    from .analytic import analytic_propagator

    tol = 1e-8  # the two agree to about 3e-15
    params = CouplerParams(gS1=1, gA1=2, gS2=1, gA2=2, kappaS=1, kappaA=-1)
    worst = 0.0
    for z in (0.1, 1.0, 5.0):
        diff = propagator(params, z).block - analytic_propagator(params, z).block
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst < tol, f"closed-form vs numerical propagator: max diff {worst:.3e} (tol {tol:g})"


def _check_shortlen():
    import cmath
    import random

    from .shortlen import short_propagator

    # the standard library's generator: numpy.random would be the only
    # thing that loads it (and hashlib, secrets, OpenSSL), about 6 MB
    rng = random.Random(2024)
    ratios = []
    for _ in range(5):
        mags = [rng.uniform(0.3, 5.0) for _ in range(6)]
        phases = [rng.uniform(-np.pi, np.pi) for _ in range(6)]
        vals = [cmath.rect(mag, phase) for mag, phase in zip(mags, phases)]
        params = CouplerParams(gS1=vals[0], gA1=vals[1], gS2=vals[2],
                               gA2=vals[3], kappaS=vals[4], kappaA=vals[5])

        def err(z):
            return float(np.max(np.abs(propagator(params, z).block - short_propagator(params, z).block)))

        ratios.append(err(1e-2) / err(5e-3))
    ok = all(7.0 <= r <= 9.0 for r in ratios)
    return ok, ("short-length error is third order: halving ratios "
                + ", ".join(f"{r:.2f}" for r in ratios) + " (expect within [7, 9])")


# (label, couplings, inputs, cutoffs, selections) of each Fock-oracle case;
# the squeezed case needs cutoffs 16, at 12 its lambda drifts to 7.6e-6
_ORACLE_CASES = (
    ("", dict(gS1=0.3, gA1=0.6),
     {ModeId.S1: InputSpec(xi=0.5j), ModeId.A1: InputSpec(xi=-0.3), ModeId.V1: InputSpec(n_ch=0.3)},
     (12, 12, 12),
     [(ModeId.S1,), (ModeId.A1,), (ModeId.V1,), (ModeId.S1, ModeId.A1), (ModeId.S1, ModeId.V1)]),
    ("squeezed case ", dict(gA1=0.5),
     {ModeId.A1: InputSpec(xi=0.3, r=0.3, theta=0.4), ModeId.V1: InputSpec(xi=0.2, n_ch=0.2)},
     (16, 16),
     [(ModeId.A1,), (ModeId.V1,), (ModeId.A1, ModeId.V1)]),
)


# Bounds on the oracle's differences in p(n), relative <n> and lambda,
# about 10x its worst agreement (4.0e-9, 2.3e-7, 2.7e-7): a relative 1e-5
# error in gS1 or gA1 on the Gaussian side moves p(n) by 2.9e-7 or more.
_ORACLE_TOLS = (4e-8, 3e-6, 3e-6)


def _check_oracle():
    from .fock_oracle import FockConfig, evolve_fock, fock_statistics

    z = 0.5
    tol_pn, tol_n, tol_lam = _ORACLE_TOLS
    lines = []
    ok = True
    for label, couplings, specs, cutoffs, selections in _ORACLE_CASES:
        params = CouplerParams(**couplings)
        cfg = FockConfig(modes=tuple(specs), cutoffs=cutoffs, params=params)
        ensemble = evolve_fock(cfg, [specs[m] for m in cfg.modes], z)
        inputs = [specs.get(mode, VACUUM_INPUT) for mode in ModeId]
        state = evolve_state(propagator(params, z), build_input_state(inputs))
        for modes in selections:
            sel = ModeSelection(modes)
            fock = fock_statistics(ensemble, sel)
            report = stats_report(state, sel, k_max=2, n_max=16, include_pn=True)
            d_pn = float(np.max(np.abs(fock.p_n[:9] - report.p_n[:9])))
            d_n = abs(fock.mean_w - report.mean_w) / max(report.mean_w, 1e-12)
            d_lam = abs(fock.lam - report.lam)
            good = d_pn < tol_pn and d_n < tol_n and d_lam < tol_lam
            ok = ok and good
            lines.append(f"{label}{sel.name}: p(n) {d_pn:.1e}, <n> rel {d_n:.1e}, "
                         f"lambda {d_lam:.1e}")
    return ok, (f"Fock oracle vs Gaussian pipeline (tol p(n) {tol_pn:g}, <n> rel {tol_n:g}, "
                f"lambda {tol_lam:g}): " + "; ".join(lines))


def run_checks(out=sys.stdout) -> bool:
    checks = [
        _check_analytic(),
        _check_shortlen(),
        _check_oracle(),
    ]
    all_ok = True
    for ok, message in checks:
        print(("PASS " if ok else "FAIL ") + message, file=out)
        all_ok = all_ok and ok
    return all_ok


# --------------------------------------------------------------------------
# Command-line entry point.

class _UsageError(Exception):
    pass


def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

    parser = _Parser(prog="qcoupler",
                     description="Quantum light statistics in pumped two-guide "
                                 "Raman/Brillouin couplers")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="sweep a scenario and write CSV")
    src = run_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", help="path to a scenario document")
    src.add_argument("--preset", choices=PRESET_NAMES, help="named preset")
    run_p.add_argument("--out", default=None, help="output CSV path")
    run_p.add_argument("--z-max", type=float, default=None, help="override z range")
    run_p.add_argument("--steps", type=int, default=None, help="override grid size")

    sub.add_parser("check", help="run the cross-method check suite")

    sub.add_parser("list-presets", help="list available presets")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "list-presets":
            for name in PRESET_NAMES:
                print(name)
            return 0
        if args.command == "check":
            return 0 if run_checks() else 4
        # run
        if args.preset:
            cfg = load_preset(args.preset)
            default_out = f"{args.preset}.csv"
        else:
            try:
                # "-sig" drops the byte order mark some editors write first
                with open(args.scenario, encoding="utf-8-sig") as fh:
                    text = fh.read()
            except OSError as exc:
                print(f"error: cannot read {args.scenario}: {exc}", file=sys.stderr)
                return 1
            except UnicodeDecodeError as exc:
                raise ScenarioParseError(f"{args.scenario} is not UTF-8 text: {exc}") from None
            cfg = parse_scenario(text)
            base = os.path.basename(args.scenario)
            default_out = (base.rsplit(".", 1)[0] if "." in base else base) + ".csv"
        overrides = {}
        if args.z_max is not None:
            overrides["z_max"] = args.z_max
        if args.steps is not None:
            overrides["z_steps"] = args.steps
        if overrides:
            cfg = replace(cfg, **overrides)
        result = run_scenario(cfg)
        for path in emit_csv(result, args.out or default_out):
            print(path)
        return 0
    except (ValidationError, ScenarioParseError, UnsupportedConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except QcouplerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
