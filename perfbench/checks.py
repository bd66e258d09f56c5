"""Correctness checks on the CSVs a pass wrote.

An operation is one f value of one experiment: a row of a sweep CSV or a
column of a trace CSV. It fails if its experiment raised, if its row is
missing or nan where a number is due, if it breaks an invariant below,
or, on seed 0, if it differs from the reference CSV recorded from the
code this benchmark was written against.

Invariants (any seed):
  nmm       0 <= D_NM < 1, finite; I >= 0 with D_NM = I / (1 + I)
  evolve    inversion in [-1, 1]; log negativity in [0, 1]
  eq8check  rel_error <= EQ8_REL_TOL
  steady    populations, singlet overlaps and log negativities in
            [0, 1]; rho_dd_eq8 is nan exactly when the couplings are
            asymmetric

Reference comparison (seed 0): |x - ref| <= REF_ATOL + REF_RTOL |ref|
for every numeric cell; skipped_times_count may move by
SKIP_COUNT_TOL, since a grid point whose map condition sits at the
cut-off can flip under a reordering of floating-point work.
"""

import csv
import math
import os

RANGE_TOL = 1e-9
EQ8_REL_TOL = 1e-8
REF_RTOL = 1e-6
REF_ATOL = 1e-9
SKIP_COUNT_TOL = 2


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _num(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _in_range(x, lo, hi):
    return x is not None and math.isfinite(x) and lo - RANGE_TOL <= x <= hi + RANGE_TOL


def output_file(exp):
    """(CSV name, per-operation layout, check kind) of one experiment."""
    if exp.kind == "evolve":
        return f"{exp.label}_{exp.observable}.csv", "columns", exp.observable
    return f"{exp.label}.csv", "rows", exp.kind


def _row_problem(kind, rec, symmetric):
    if kind == "nmm":
        d, i = rec["D_NM"], rec["I"]
        if d is None or math.isnan(d):
            return "nan row"
        if not (math.isfinite(d) and 0.0 <= d < 1.0):
            return f"D_NM={d} outside [0, 1)"
        if not (i is not None and math.isfinite(i) and i >= 0.0):
            return f"I={i} not finite and >= 0"
        if abs(d - i / (1.0 + i)) > RANGE_TOL:
            return "D_NM != I / (1 + I)"
    elif kind == "eq8check":
        if not (rec["rel_error"] is not None and rec["rel_error"] <= EQ8_REL_TOL):
            return f"eq8 rel_error {rec['rel_error']} > {EQ8_REL_TOL}"
    elif kind == "steady":
        for col in ("rho_dd_nullspace", "logneg_ss", "singlet_overlap_ss",
                    "logneg_markov_baseline"):
            if not _in_range(rec[col], 0.0, 1.0):
                return f"{col}={rec[col]} outside [0, 1]"
        eq8_nan = rec["rho_dd_eq8"] is None or math.isnan(rec["rho_dd_eq8"])
        if eq8_nan == symmetric:
            return "rho_dd_eq8 nan-ness does not match the model symmetry"
    return None


def _column_problem(obs, values):
    lo = -1.0 if obs == "inversion" else 0.0
    bad = [v for v in values if not _in_range(v, lo, 1.0)]
    if bad:
        return f"{len(bad)} {obs} values outside [{lo}, 1]"
    return None


def _ref_close(col, x, ref):
    if x is None or ref is None:
        return x is None and ref is None
    if math.isnan(ref):
        return math.isnan(x)
    if col == "skipped_times_count":
        return abs(x - ref) <= SKIP_COUNT_TOL
    return abs(x - ref) <= REF_ATOL + REF_RTOL * abs(ref)


def check_experiment(exp, out_dir, ref_dir, error, symmetric):
    """Return {op_id: reason} for every failed operation of one experiment."""
    ops = [f"{exp.label}#{k}" for k in range(exp.n_f)]
    if error:
        return {op: f"raised {error}" for op in ops}
    name, layout, kind = output_file(exp)
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        return {op: f"{name} not written" for op in ops}
    header, rows = read_csv(path)
    ref = read_csv(os.path.join(ref_dir, name)) if ref_dir else None
    if ref is not None and ref[0] != header:
        return {op: f"{name}: header differs from reference" for op in ops}
    failed = {}
    if layout == "rows":
        if len(rows) != exp.n_f:
            return {op: f"{name}: {len(rows)} rows, expected {exp.n_f}" for op in ops}
        for k, (op, row) in enumerate(zip(ops, rows)):
            rec = {col: _num(cell) for col, cell in zip(header, row)}
            problem = _row_problem(kind, rec, symmetric)
            if problem is None and ref is not None:
                bad = [col for col, cell, rcell in zip(header, row, ref[1][k])
                       if not _ref_close(col, _num(cell), _num(rcell))]
                if bad:
                    problem = f"differs from reference in {','.join(bad)}"
            if problem:
                failed[op] = problem
        return failed
    if len(header) != exp.n_f + 1:
        return {op: f"{name}: {len(header) - 1} f columns, expected {exp.n_f}" for op in ops}
    for j, op in enumerate(ops, start=1):
        problem = _column_problem(kind, [_num(row[j]) for row in rows])
        if problem is None and ref is not None:
            if len(ref[1]) != len(rows) or any(
                    not _ref_close(header[j], _num(r[j]), _num(rr[j]))
                    or not _ref_close("t", _num(r[0]), _num(rr[0]))
                    for r, rr in zip(rows, ref[1])):
                problem = "differs from reference"
        if problem:
            failed[op] = problem
    return failed
