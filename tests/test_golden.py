"""Every command line of the golden corpus gives the report it gave when
the corpus was recorded; see ``golden_corpus`` for how to regenerate it."""

import json

from golden_corpus import CORPUS, compare, first_difference, machine, run, ulps


def test_reports_match_the_golden_corpus():
    corpus = json.loads(CORPUS.read_text())
    exact = corpus["machine"] == machine()
    print("golden corpus:", "byte comparison" if exact else
          f"fields exactly and floats to 4 ulp (recorded on {corpus['machine']['numpy']})")
    mismatches = [m for case in corpus["cases"] if (m := compare(case, run(case["argv"]), exact))]
    assert not mismatches, "\n".join(mismatches)


def test_every_corpus_report_and_error_line_is_strict_json():
    # RFC 8259 has no token for a non-finite number: no NaN, no Infinity
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    corpus = json.loads(CORPUS.read_text())
    reports = 0
    for case in corpus["cases"]:
        csv = "--format=csv" in case["argv"] or "csv" in case["argv"]
        if case["stdout"] and not csv:
            json.loads(case["stdout"], parse_constant=refuse)
            reports += 1
        for line in case["stderr"].splitlines():
            json.loads(line, parse_constant=refuse)
    assert reports >= 80


def test_a_mismatch_names_its_path_and_ulp_distance():
    want = {"evidence": [{"value": {"lo": 1.0, "hi": 2.0}}], "ok": True}
    got = {"evidence": [{"value": {"lo": 1.0, "hi": 2.0000000000000004}}], "ok": True}
    assert first_difference(want, got, "stdout") == (
        "stdout.evidence[0].value.hi", "2.0 != 2.0000000000000004 (1 ulp)")
    assert first_difference(want, got, "stdout", ulp_tolerance=4) is None
    # verdict fields and signs of zero are compared exactly
    assert first_difference({"ok": True}, {"ok": False}, "s", 4) == ("s.ok", "True != False")
    assert first_difference(0.0, -0.0, "s") == ("s", "0.0 != -0.0 (0 ulp)")
    assert ulps(-1e-300, 1e-300) == 2 * ulps(0.0, 1e-300)
    case = {"argv": ["argmin"], "exit": 0, "stdout": "x0,x1\n1.0;2.0,3.0\n", "stderr": "",
            "warnings": []}
    got = {**case, "stdout": "x0,x1\n1.0;2.0,3.0000000000000004\n"}
    assert compare(case, got, exact=True) == "argmin: stdout[1][1]: 3.0 != 3.0000000000000004 (1 ulp)"
    assert compare(case, got, exact=False) is None
