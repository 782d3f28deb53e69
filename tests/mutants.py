"""Named mutants of the package, each with the tests that must kill it.

A mutant replaces one exact snippet of one file with a wrong variant.  It
is killed when every test it names fails on the mutated copy; one that
survives means a test no longer guards the code the mutant breaks.
Standard library only; this is not a test module (tests/test_source.py
checks that every snippet still occurs exactly once, so a refactor has to
carry its mutants along).

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named mutants only

Each mutant runs on its own temporary copy of src/, tests/ and
pyproject.toml, one pytest process at a time, on its named tests only.
Pytest starts without the hypothesis and benchmark plugins, whose loads
took most of each start; @given tests run without the one, and no test
uses the other's fixture.  The script prints one line per mutant and
exits 1 if any survives, 2 if a name is unknown or a snippet does not
occur exactly once; a test id pytest cannot find raises RuntimeError.
All forty-four take about 40 s on a shared 2-vCPU Linux host.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str  # occurs exactly once in path
    replacement: str
    tests: tuple[str, ...]  # pytest node ids that must all fail


_STC_STEP = "tests/test_paths.py::test_stc_skew_matrices_step_to_the_direct_build"
_RATIONAL = "tests/test_qseries.py::test_non_rational_parameters_raise_invalid_input"
_INTEGER_PAIRS = "tests/test_qseries.py::test_integer_pair_kernels_match_the_fraction_loops"
_BACKTRACK_FREE = "tests/test_oracle.py::test_non_cyclic_walk_is_backtrack_free"
_SIDE_PERMUTATION = "tests/test_oracle.py::test_sc_count_is_invariant_under_side_permutation"
_INTERIOR_RUN = "tests/test_oracle.py::test_budget_stop_inside_an_interior_run_of_copies"
_PER_LEAF = "tests/test_oracle.py::test_tally_matches_the_per_leaf_sum"
_PAST_BENCHMARK = "tests/test_oracle.py::test_cyclic_walk_node_counts_past_benchmark_scale"
_CYCLIC_STOP = "tests/test_oracle.py::test_budget_stop_inside_the_cyclic_walk"
_STRUCTURE_PINS = (
    "tests/test_formulas.py::test_structure_report_is_pinned",
    "tests/test_formulas.py::test_structure_report_large_alpha_is_pinned",
    "tests/test_formulas.py::test_structure_report_past_alpha_ten_is_pinned",
)

MUTANTS = (
    # the STC pool builder: s starts at the column sums less the dummy row d
    Mutant(
        "stc-drop-dummy-start", "src/ppsign/paths.py",
        "        s[alpha] -= 1\n", "",
        (_STC_STEP,),
    ),
    Mutant(
        "stc-seed-with-dummy", "src/ppsign/paths.py",
        "        s[alpha] -= 1\n", "        s[alpha] += 1\n",
        (_STC_STEP,),
    ),
    Mutant(
        "stc-flip-update-sign", "src/ppsign/paths.py",
        "x + si * gj - gi * sj", "x - si * gj + gi * sj",
        (_STC_STEP,),
    ),
    # every anchored STC Pfaffian is scaled by the b = 0 Pfaffian, on a
    # sweep that starts past 0 too (each single-b route is one)
    Mutant(
        "stc-anchor-dropped-past-zero", "src/ppsign/paths.py",
        "    anchor = _anchor_pfaffian(offset, alpha)\n    start",
        "    anchor = _anchor_pfaffian(offset, alpha) if b_first == 0 else 1\n    start",
        ("tests/test_paths.py::test_stc_pfaffians_sweep_matches_single_b_routes",
         "tests/test_paths.py::test_stcpp_enum_matches_product_formula_larger"),
    ),
    # the minor-summation formula: every minor carries its weight, the
    # minors of the once-scaled rows are divided by the scale to the n, and
    # the caller's budget bounds the subsets
    Mutant(
        "sum-of-minors-drop-weight", "src/ppsign/exactalg.py",
        "_integer_det([rows[i][:] for i in subset]) * weight(subset)",
        "_integer_det([rows[i][:] for i in subset])",
        ("tests/test_paths.py::test_minor_summation_identity",),
    ),
    Mutant(
        "sum-of-minors-drop-scale", "src/ppsign/exactalg.py",
        "return total if scale == 1 else Fraction(total, scale**n)", "return total",
        (_INTEGER_PAIRS,),
    ),
    Mutant(
        "sum-of-minors-budget-off-by-one", "src/ppsign/exactalg.py",
        "    if count > budget:\n", "    if count >= budget:\n",
        ("tests/test_exactalg.py::test_sum_of_minors_trivial_and_budget",),
    ),
    # the elimination kernels: each row or index swap negates the value,
    # and so does an odd column permutation of the block-triangular form
    Mutant(
        "bareiss-swap-keeps-sign", "src/ppsign/exactalg.py",
        "            work[k], work[pivot] = work[pivot], work[k]\n            sign = -sign\n",
        "            work[k], work[pivot] = work[pivot], work[k]\n",
        ("tests/test_exactalg.py::test_det_row_swap_negates",
         "tests/test_exactalg.py::test_det_matches_permutation_expansion"),
    ),
    Mutant(
        "skew-eliminate-swap-keeps-sign", "src/ppsign/exactalg.py",
        "                row[k + 1], row[swap] = row[swap], row[k + 1]\n            sign = -sign\n",
        "                row[k + 1], row[swap] = row[swap], row[k + 1]\n",
        ("tests/test_exactalg.py::test_pfaffian_matches_fraction_elimination_with_sign",),
    ),
    Mutant(
        "block-det-drops-permutation-sign", "src/ppsign/exactalg.py",
        "    value = sign\n    for block in blocks:\n", "    value = 1\n    for block in blocks:\n",
        ("tests/test_exactalg.py::test_det_above_crossover_matches_fraction_elimination",
         "tests/test_paths.py::test_determinant_routes_reach_large_boxes"),
    ),
    # the sample counts come from degree bounds read off the constructions,
    # never from the degree the structure report tests
    Mutant(
        "structure-bound-less-one", "src/ppsign/formulas.py",
        "    count = alpha * (alpha + 1) // 2 + 1\n", "    count = alpha * (alpha + 1) // 2\n",
        _STRUCTURE_PINS,
    ),
    Mutant(
        "structure-count-from-stated-degree", "src/ppsign/formulas.py",
        "    count = alpha * (alpha + 1) // 2 + 1\n",
        "    f, _, e = _forced_factor(alpha, 0)\n    count = f.degree + e + 1\n",
        ("tests/test_formulas.py::test_structure_sample_count_ignores_the_stated_degree[stated-less-one]",),
    ),
    Mutant(
        "mtilde-bound-less-one", "src/ppsign/formulas.py",
        "degree_bound = 2 * (t + 1) + 2 * j - 3", "degree_bound = 2 * (t + 1) + 2 * j - 4",
        ("tests/test_formulas.py::test_mtilde_combination_polys_are_pinned",),
    ),
    Mutant(
        "minor-summation-ignore-budget", "src/ppsign/paths.py",
        "exactalg.sum_of_minors(t, n, pf_weight, subset_budget)",
        "exactalg.sum_of_minors(t, n, pf_weight, 10**6)",
        ("tests/test_cli.py::test_subset_budget_reaches_minor_summation",),
    ),
    # the oracle's compiler projects each root's bounds onto the earlier
    # roots through its one combiner, require(low, high), which takes low
    # from high and halves a doubled root toward the feasible side.  Every
    # odd halving it meets is a lower bound, 2 * h >= c on the first cell
    # of an SC complement pair; an upper one meets only an even k (every
    # class, sides up to 10, volume up to 300), so rounding it up is no test
    Mutant(
        "oracle-skip-projection", "src/ppsign/oracle.py",
        "    for r in range(n - 1, -1, -1):\n",
        "    for r in ():\n",
        (_BACKTRACK_FREE, _INTERIOR_RUN),
    ),
    # every class is projected: the cyclic ones lose dead ends by it
    Mutant(
        "oracle-projection-skips-cyclic", "src/ppsign/oracle.py",
        "    for r in range(n - 1, -1, -1):\n",
        "    for r in range(n - 1, -1, -1) if not cls.is_cyclic else ():\n",
        (_PAST_BENCHMARK, f"{_CYCLIC_STOP}[tssc-6]"),
    ),
    # writing h[r] ahead puts h[x] >= h[r] on the undecided root of each
    # cell x left of r or above it
    Mutant(
        "oracle-write-drops-monotone-push", "src/ppsign/oracle.py",
        "            if decided(root):\n                continue\n",
        "            continue\n",
        (f"{_CYCLIC_STOP}[cssc-6]",),
    ),
    Mutant(
        "oracle-halved-low-rounded-down", "src/ppsign/oracle.py",
        "(-e, index), -(const // f)", "(-e, index), -const // f",
        (_BACKTRACK_FREE, _SIDE_PERMUTATION),
    ),
    Mutant(
        "oracle-combine-without-sign", "src/ppsign/oracle.py",
        "terms.get(root, 0) + sign * factor", "terms.get(root, 0) + factor",
        ("tests/test_oracle.py::test_signed_count_examples", _SIDE_PERMUTATION),
    ),
    # the oracle's walk writes each copy cell when its root takes a value
    # and reads the statistic off the path: a root's row holds its copies'
    # rows, acc chains over the cells that are nodes, and the constant
    # copies sit in the base acc[n]
    Mutant(
        "oracle-root-skips-first-dependent", "src/ppsign/oracle.py",
        "            for cell, offset, factor in deps[idx]:\n",
        "            for cell, offset, factor in deps[idx][1:]:\n",
        (_BACKTRACK_FREE, "tests/test_oracle.py::test_enumerate_examples",
         "tests/test_oracle.py::test_signed_count_examples"),
    ),
    Mutant(
        "oracle-acc-from-the-cell-before", "src/ppsign/oracle.py",
        "acc[idx] = acc[prev[idx]] + rows[idx][v]", "acc[idx] = acc[idx - 1] + rows[idx][v]",
        (_PER_LEAF, "tests/test_oracle.py::test_signed_counts_alpha_three_boxes"),
    ),
    Mutant(
        "oracle-fold-skips-copy-row", "src/ppsign/oracle.py",
        "[s + values[offset + factor * v] for", "[s for",
        (_PER_LEAF,),
    ),
    Mutant(
        "oracle-drop-constant-base", "src/ppsign/oracle.py",
        "            acc[n] += values[offset]\n", "",
        (_PER_LEAF,),
    ),
    # each copy is charged one node, to the node cell before it (the copies
    # before the first node cell at the start), before the budget test
    Mutant(
        "oracle-run-budget-before-charge", "src/ppsign/oracle.py",
        "            nodes += charge[idx]\n"
        "            if nodes > node_budget:\n"
        "                raise _budget_error(node_budget, cls, box)\n",
        "            if nodes > node_budget:\n"
        "                raise _budget_error(node_budget, cls, box)\n"
        "            nodes += charge[idx]\n",
        (_BACKTRACK_FREE, _INTERIOR_RUN),
    ),
    Mutant(
        "oracle-run-charged-one-node", "src/ppsign/oracle.py",
        "        charge[node] += 1\n", "",
        (_BACKTRACK_FREE, _INTERIOR_RUN),
    ),
    Mutant(
        "oracle-leading-copies-uncharged", "src/ppsign/oracle.py",
        "    nodes = charge[n]\n", "    nodes = 0\n",
        (_BACKTRACK_FREE,),
    ),
    # each statistic's histogram entry counts with its multiplicity
    Mutant(
        "signed-count-drops-multiplicity", "src/ppsign/oracle.py",
        "sum((-1) ** s * m for s, m in hist.items())", "sum((-1) ** s for s in hist)",
        ("tests/test_oracle.py::test_signed_count_examples",
         "tests/test_oracle.py::test_signed_counts_alpha_three_boxes"),
    ),
    Mutant(
        "weighted-count-drops-multiplicity", "src/ppsign/oracle.py",
        "(w.q ** s * m for s, m in hist.items())", "(w.q ** s for s in hist)",
        ("tests/test_oracle.py::test_weighted_count_examples",
         "tests/test_oracle.py::test_plain_counts_match_box_formula_small"),
    ),
    # the terminating series is summed at argument 1, and a lower
    # parameter's denominator goes to the term's numerator
    Mutant(
        "hyper-argument-minus-one", "src/ppsign/qseries.py",
        "upper_den * (k + 1)\n", "upper_den * -(k + 1)\n",
        (
            "tests/test_qseries.py::test_hyper_terminating_examples",
            "tests/test_qseries.py::test_pfaff_saalschutz_identity",
        ),
    ),
    Mutant(
        "hyper-drop-lower-denominator", "src/ppsign/qseries.py",
        "for pa, qa in uppers) * lower_den\n", "for pa, qa in uppers)\n",
        (_INTEGER_PAIRS, "tests/test_qseries.py::test_pfaff_saalschutz_identity"),
    ),
    # a rational base p/q carries q^n below its product, and each detl
    # entry x_j + v carries x_j's denominator once per factor
    Mutant(
        "shifted-factorial-drop-denominator", "src/ppsign/qseries.py",
        "    return Fraction(num, q**n)\n", "    return Fraction(num)\n",
        (_INTEGER_PAIRS, "tests/test_qseries.py::test_shifted_factorial_values"),
    ),
    Mutant(
        "detl-entry-drops-x-denominator", "src/ppsign/formulas.py",
        "            q ** (n - 1) * math.prod(t for _, t in params),\n",
        "            math.prod(t for _, t in params),\n",
        (_INTEGER_PAIRS, "tests/test_formulas.py::test_lemma_detl_spec_instances"),
    ),
    # the transpose complement pairs (i, j) with (a-1-j, a-1-i), not with
    # the point partner (a-1-i, b-1-j)
    Mutant(
        "complement-partners-point-for-transpose", "src/ppsign/core.py",
        "        return tuple(n - 1 - (x % a) * a - x // a for x in range(n))\n",
        "        return tuple(range(n - 1, -1, -1))\n",
        ("tests/test_core.py::test_complement_partners_match_the_cell_maps",
         "tests/test_oracle.py::test_signed_counts_alpha_three_boxes"),
    ),
    # rational rows are scaled by d, each entry by d over its denominator
    Mutant(
        "integer-rows-drop-factor", "src/ppsign/exactalg.py",
        "[x.numerator * (d // x.denominator) for x in row]", "[x.numerator for x in row]",
        ("tests/test_exactalg.py::test_det_matches_permutation_expansion",
         "tests/test_exactalg.py::test_pfaffian_matches_fraction_elimination_with_sign",
         "tests/test_exactalg.py::test_interpolate_matches_divided_differences"),
    ),
    # a falling factorial, at any top but a nonnegative integer, is divided by k!
    Mutant(
        "binom-over-k-minus-one-factorial", "src/ppsign/qseries.py",
        "q**k * math.factorial(k))", "q**k * math.factorial(k - 1))",
        ("tests/test_qseries.py::test_binom_is_the_falling_factorial_quotient",
         "tests/test_formulas.py::test_mrr_det"),
    ),
    # the CLI: SIGNED routes are compared with their signs, the STC oracle
    # runs up to 1,000 cells included, and a process builds one parser
    Mutant(
        "cli-agree-signed-by-absolute-value", "src/ppsign/cli.py",
        "norm = abs if compare != SIGNED else (lambda v: v)", "norm = abs",
        ("tests/test_cli.py::test_verify_tssc_compares_signs",),
    ),
    Mutant(
        "cli-stc-oracle-cap-exclusive", "src/ppsign/cli.py",
        "box.volume() > spec.oracle_max_volume", "box.volume() >= spec.oracle_max_volume",
        ("tests/test_cli.py::test_verify_stc_runs_the_oracle_up_to_1000_cells",),
    ),
    Mutant(
        "cli-parser-per-call", "src/ppsign/cli.py",
        "@functools.cache\ndef build_parser", "def build_parser",
        ("tests/test_cli.py::test_main_calls_share_one_parser",),
    ),
    # count_vsasm's one bound, 15, from both sides
    Mutant(
        "vsasm-bound-lower", "src/ppsign/oracle.py",
        "_VSASM_MAX_ORDER = 15\n", "_VSASM_MAX_ORDER = 13\n",
        ("tests/test_acceptance.py::test_vsasm_corrected_relation",),
    ),
    Mutant(
        "vsasm-bound-higher", "src/ppsign/oracle.py",
        "_VSASM_MAX_ORDER = 15\n", "_VSASM_MAX_ORDER = 17\n",
        ("tests/test_oracle.py::test_count_vsasm_limits",),
    ),
    # qseries refuses non-rational parameters, and checks integrality once
    Mutant(
        "shifted-factorial-accepts-float", "src/ppsign/qseries.py",
        "        require_rational((a,))\n", "        pass\n",
        (f"{_RATIONAL}[shifted_factorial-float]",),
    ),
    Mutant(
        "binom-skips-rational-check", "src/ppsign/qseries.py",
        "        require_rational((n,))\n", "        pass\n",
        (f"{_RATIONAL}[binom-float]",),
    ),
    Mutant(
        "saalschutz-rhs-skips-rational-check", "src/ppsign/qseries.py",
        "    require_rational((a, b, c))\n", "",
        (f"{_RATIONAL}[pfaff_saalschutz_rhs-str]",),
    ),
    Mutant(
        "integral-value-accepts-fraction", "src/ppsign/qseries.py",
        "    if value.denominator != 1:\n", "    if value.denominator == 0:\n",
        ("tests/test_qseries.py::test_integral_value_refuses_a_fraction",),
    ),
)


def _failed_ids(output: str) -> set[str]:
    """Node ids of the FAILED and ERROR lines of pytest's short summary."""
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE))


def run(mutant: Mutant) -> list[str]:
    """The named tests that pass on a copy with the mutant applied; empty
    when the mutant is killed."""
    with tempfile.TemporaryDirectory(prefix="ppsign-mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / mutant.path
        target.write_text(target.read_text().replace(mutant.snippet, mutant.replacement))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE",
             "-p", "no:cacheprovider", "-p", "no:hypothesispytest", "-p", "no:benchmark",
             *mutant.tests],
            cwd=copy, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        )
    if result.returncode not in (0, 1):  # a usage error, or a test id not found
        raise RuntimeError(f"{mutant.name}: pytest exited {result.returncode}\n{result.stdout}")
    failed = _failed_ids(result.stdout)
    return [t for t in mutant.tests if t not in failed]


def main(names: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[n] for n in names] if names else list(MUTANTS)
    stale = [m.name for m in chosen if (ROOT / m.path).read_text().count(m.snippet) != 1]
    if stale:
        print(f"snippet not found exactly once: {', '.join(stale)}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    survivors = []
    for m in chosen:
        passing = run(m)
        print(f"{'SURVIVED' if passing else 'killed  '} {m.name}"
              + "".join(f"\n    still passes: {t}" for t in passing))
        if passing:
            survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed "
          f"in {time.perf_counter() - started:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
