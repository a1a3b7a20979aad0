"""The benchmark's exact checks accept right results and reject wrong ones.

Right results come from the package itself on known inputs; wrong ones are
the same results with one thing perturbed.
"""

import dataclasses
import json
import random
import signal
import time
from fractions import Fraction
from pathlib import Path

import pytest

import superelliptic as se
import superelliptic.cli  # noqa: F401  (CliDocuments.op calls se.cli.main)
from perfbench import checks, run, workloads
from perfbench.checks import Mismatch

F = Fraction


def _inverse_case(values):
    return workloads.InverseCase(tuple(F(v) for v in values), 2, 2, "test")


def _inverse_outcome(case):
    return workloads.InverseInvariants.op(se, case)


# -- forward_equations ---------------------------------------------------------


def _forward_case(reject, seed=3):
    rng = random.Random(seed)
    return workloads._forward_case(se, rng, 2, 3, 10, reject)


def test_forward_accepts_the_pipeline_result():
    case = _forward_case(reject=False)
    checks.check_forward(case, workloads.ForwardEquations.op(se, case))


def test_forward_rejects_a_perturbed_invariant():
    case = _forward_case(reject=False)
    form, inv, report = workloads.ForwardEquations.op(se, case)
    wrong = dataclasses.replace(inv, values=(inv.values[0] + 1, *inv.values[1:]))
    with pytest.raises(Mismatch, match="invariants"):
        checks.check_forward(case, (form, wrong, report))


def test_forward_rejects_a_perturbed_normal_form_coefficient():
    case = _forward_case(reject=False)
    form, inv, report = workloads.ForwardEquations.op(se, case)
    wrong = dataclasses.replace(form, a=(form.a[0] + 1, *form.a[1:]))
    with pytest.raises(Mismatch, match="normal form"):
        checks.check_forward(case, (wrong, inv, report))


def test_forward_treats_the_generated_refusal_as_right():
    case = _forward_case(reject=True)
    outcome = workloads.ForwardEquations.op(se, case)
    assert isinstance(outcome, se.CurveValidationError)
    checks.check_forward(case, outcome)


def test_forward_rejects_a_refusal_of_a_valid_curve():
    case = _forward_case(reject=False)
    refusal = se.CurveValidationError([("zero_discriminant", "f has a repeated root")])
    with pytest.raises(Mismatch, match="refused"):
        checks.check_forward(case, refusal)


def test_forward_rejects_acceptance_of_a_repeated_root():
    accepted = _forward_case(reject=False)
    case = accepted._replace(reject=True)
    with pytest.raises(Mismatch, match="not refused"):
        checks.check_forward(case, workloads.ForwardEquations.op(se, accepted))


# -- inverse_invariants --------------------------------------------------------

NON_SQUARE = (1, 1)  # discriminant 32: the field is F(sqrt(2))
SQUARE = (9, 4)  # the invariants of a = (2, 1)
DEGENERATE = (2, 2)
#: discriminant 2^5 * 2000272009247 (= 2 s_1^2 - 1), whose cofactor is the product of two primes above 10^6
BEYOND_BOUND = (1000068, 1)


@pytest.mark.parametrize("values", [NON_SQUARE, SQUARE, (3, F(-1, 2), 5), (F(7, 3), 2, F(-5, 4), 6)])
def test_inverse_accepts_the_pipeline_result(values):
    case = _inverse_case(values)
    checks.check_inverse(case, _inverse_outcome(case))


def test_inverse_treats_the_degenerate_refusal_as_right():
    case = _inverse_case(DEGENERATE)
    report, results = _inverse_outcome(case)
    assert all(isinstance(r, se.DegenerateLocusError) for r in results)
    checks.check_inverse(case, (report, results))


@pytest.mark.parametrize("values", [NON_SQUARE, SQUARE])
def test_inverse_rejects_a_perturbed_coefficient(values):
    case = _inverse_case((values[0], 3, values[1]))
    report, [(rec, text), minus] = _inverse_outcome(case)
    c = rec.interior_coefficients
    wrong = dataclasses.replace(rec, interior_coefficients=(c[0] + F(1, 7), *c[1:]))
    with pytest.raises(Mismatch, match="identity"):
        checks.check_inverse(case, (report, [(wrong, text), minus]))


@pytest.mark.parametrize("values", [NON_SQUARE, SQUARE])
def test_inverse_rejects_swapped_roots(values):
    case = _inverse_case(values)
    report, [(plus, plus_text), (minus, minus_text)] = _inverse_outcome(case)
    swapped = [
        (dataclasses.replace(minus, root_choice="plus"), minus_text),
        (dataclasses.replace(plus, root_choice="minus"), plus_text),
    ]
    with pytest.raises(Mismatch, match="swapped"):
        checks.check_inverse(case, (report, swapped))


def test_inverse_rejects_a_wrong_radicand():
    case = _inverse_case(NON_SQUARE)
    report, results = _inverse_outcome(case)
    wrong = dataclasses.replace(report, squarefree_radicand=8, field_description="F(sqrt(8))")
    with pytest.raises(Mismatch):
        checks.check_inverse(case, (wrong, results))


def test_inverse_rejects_a_wrong_rendering():
    case = _inverse_case(SQUARE)
    report, [(plus, text), minus] = _inverse_outcome(case)
    with pytest.raises(Mismatch, match="rendered"):
        checks.check_inverse(case, (report, [(plus, text.replace("+", "-", 1)), minus]))


def test_inverse_treats_a_refusal_at_the_factor_bound_as_right():
    case = _inverse_case(BEYOND_BOUND)
    outcome = _inverse_outcome(case)
    assert isinstance(outcome, se.FactorBoundExceededError)
    checks.check_inverse(case, outcome)


@pytest.mark.parametrize("values", [NON_SQUARE, SQUARE, DEGENERATE])
def test_inverse_rejects_a_factor_bound_refusal_the_bound_decomposes(values):
    refusal = se.FactorBoundExceededError("cofactor has no factor <= 1000000")
    with pytest.raises(Mismatch, match="factor bound"):
        checks.check_inverse(_inverse_case(values), refusal)


def test_inverse_rejects_a_refusal_off_the_degenerate_locus():
    case = _inverse_case(NON_SQUARE)
    report, _ = _inverse_outcome(case)
    refusals = [se.DegenerateLocusError("no"), se.DegenerateLocusError("no")]
    with pytest.raises(Mismatch, match="refused"):
        checks.check_inverse(case, (report, refusals))


# -- roundtrip_batch -----------------------------------------------------------


@pytest.mark.parametrize("a", [(2, 1), (1, 2), (F(-3, 4), 0, 5), (1, 1), (0, 0)])
def test_roundtrip_accepts_the_pipeline_result(a):
    case = workloads.RoundtripCase(tuple(F(v) for v in a), 2, 2)
    checks.check_roundtrip(case, se.roundtrip_verify(case.a, 2, 2))


def test_roundtrip_rejects_a_wrong_status_or_root():
    case = workloads.RoundtripCase((F(2), F(1)), 2, 2)
    report = se.roundtrip_verify(case.a, 2, 2)
    flipped = "plus" if report.root_choice == "minus" else "minus"
    for wrong in (dataclasses.replace(report, root_choice=flipped),
                  dataclasses.replace(report, status="fail", reason="x"),
                  dataclasses.replace(report, status="skipped")):
        with pytest.raises(Mismatch):
            checks.check_roundtrip(case, wrong)


def test_roundtrip_rejects_a_skip_refused_to_a_degenerate_tuple():
    case = workloads.RoundtripCase((F(1), F(1)), 2, 2)
    with pytest.raises(Mismatch):
        checks.check_roundtrip(case, se.RoundtripReport(status="pass", root_choice="plus"))


# -- cli_documents -------------------------------------------------------------

DOCS = {doc.name: doc for doc in workloads.cli_documents()}


@pytest.mark.parametrize("name", sorted(DOCS))
def test_cli_accepts_every_document_and_its_repeat(name):
    seen = {}
    for _ in range(2):
        checks.check_cli(DOCS[name], workloads.CliDocuments.op(se, DOCS[name]), seen)


def test_cli_covers_every_subcommand_and_exit_code():
    assert {doc.argv[0] for doc in DOCS.values()} >= {
        "invariants", "classify", "genus", "field", "reconstruct", "roundtrip"}
    assert {doc.exit_code for doc in DOCS.values()} == {0, 1, 2}
    assert any(doc.stdin for doc in DOCS.values())


@pytest.mark.parametrize("name", ["invariants", "degenerate", "usage_missing_flag"])
def test_cli_rejects_a_wrong_exit_code(name):
    code, out, err = workloads.CliDocuments.op(se, DOCS[name])
    with pytest.raises(Mismatch, match="exit"):
        checks.check_cli(DOCS[name], (code + 1, out, err), {})


def test_cli_rejects_a_perturbed_field():
    doc = DOCS["field"]
    code, out, err = workloads.CliDocuments.op(se, doc)
    wrong = json.loads(out)
    wrong["field"]["squarefree_radicand"] = 3
    with pytest.raises(Mismatch, match="squarefree_radicand"):
        checks.check_cli(doc, (code, json.dumps(wrong), err), {})


def test_cli_rejects_a_perturbed_rebuilt_coefficient():
    doc = DOCS["reconstruct_stdin"]
    code, out, err = workloads.CliDocuments.op(se, doc)
    wrong = json.loads(out)
    wrong["interior_coefficients"][0] = "3"
    with pytest.raises(Mismatch, match="identity"):
        checks.check_cli(doc, (code, json.dumps(wrong), err), {})


def test_cli_rejects_bytes_that_change_between_repeats():
    doc = DOCS["genus"]
    code, out, err = workloads.CliDocuments.op(se, doc)
    seen = {}
    checks.check_cli(doc, (code, out, err), seen)
    with pytest.raises(Mismatch, match="differ"):
        checks.check_cli(doc, (code, out.replace("  ", "   "), err), seen)


# -- the harness ---------------------------------------------------------------


class _Sleeper:
    @staticmethod
    def op(api, case):
        time.sleep(case)

    @staticmethod
    def check(case, outcome, state):
        pass


def test_an_operation_over_the_cap_is_stopped_and_failed(monkeypatch):
    monkeypatch.setattr(run, "OP_CAP_S", 0.05)
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        tally = run.Tally()
        start = time.monotonic()
        run.run_op(_Sleeper, se, 5.0, {}, tally)
        run.run_op(_Sleeper, se, 0.0, {}, tally)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 2.0
    assert (tally.attempted, tally.failed, tally.failures, tally.wrong) == (2, 1, {"OpTimeout": 1}, [])


def test_a_wrong_result_is_failed_and_recorded():
    tally = run.Tally()
    case = _inverse_case(SQUARE)

    class Wrong(workloads.InverseInvariants):
        @staticmethod
        def op(api, case):
            report, results = workloads.InverseInvariants.op(api, case)
            return report, results[::-1]

    run.run_op(Wrong, se, case, {}, tally)
    assert tally.failed == 1 and tally.failures == {"Mismatch": 1} and len(tally.wrong) == 1


def test_a_refusal_at_the_factor_bound_is_refused_not_failed():
    tally = run.Tally()
    run.run_op(workloads.InverseInvariants, se, _inverse_case(BEYOND_BOUND), {}, tally)
    run.run_op(workloads.InverseInvariants, se, _inverse_case(SQUARE), {}, tally)
    assert (tally.attempted, tally.failed, tally.refused, tally.wrong) == (2, 0, 1, [])
    assert run.fail_share(tally) == 0.5


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


# -- tracing -------------------------------------------------------------------


def test_tracer_records_nested_spans_and_restores_the_package():
    from perfbench import tracing

    original = se.dihedral.squarefree_decompose
    inv = se.DihedralInvariants((F(1), F(1)), 2, 2)
    with tracing.Tracer() as tracer:
        tracer.op = 7
        se.reconstruct(inv, "plus")
        assert se.dihedral.squarefree_decompose is not original
    assert se.dihedral.squarefree_decompose is original
    assert se.exact.QuadExt.__mul__.__name__ == "__mul__" and not hasattr(se.exact.QuadExt.__mul__, "__wrapped__")
    spans = tracer.spans
    names = [s.name for s in spans]
    assert names[0] == "dihedral.reconstruct" and spans[0].parent == -1
    assert "exact.squarefree_decompose" in names and names.count("dihedral.dihedral_discriminant") >= 2
    assert all(s.op == 7 and (s.parent == -1 or s.parent < i) for i, s in enumerate(spans))
    assert tracer.quadext_ops > 0
    totals = tracing.LayerTotals(spans)
    outer = spans[0].end_ns - spans[0].start_ns
    assert sum(totals.self_ns.values()) == outer


def test_tracer_tags_discriminant_calls_by_degree():
    from perfbench import tracing

    f = se.Poly([1, 0, 3, 0, 1, 0, 1])
    with tracing.Tracer() as tracer:
        se.validate(2, f)
    totals = tracing.LayerTotals(tracer.spans)
    assert totals.tag_calls[("poly.discriminant", "deg_6-12")] == 1
