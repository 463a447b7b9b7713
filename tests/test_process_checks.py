"""The verdicts of ``process_checks``' runner, on cases that take a fraction
of a second; CI runs the whole table."""

from process_checks import CASES, _joins, _passes, main


def test_one_failing_case_fails_the_run(capsys):
    refusal = next(case for case in CASES if case.name == "refusal ns_not_a_number")
    assert main([refusal]) == 0
    # one byte off in stderr, an unexpected exit status, and stdout that is not JSON
    other = refusal._replace(name="abd", argv=[*refusal.argv[:-1], "abd"])
    status = refusal._replace(name="status", status=2)
    record = refusal._replace(name="record", status=0, check=_passes,
                              argv=["region", "--etas", "0.2,0.3", "--format", "csv"])
    for bad in (other, status, record):
        assert main([refusal, bad]) == 1, bad.name
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if not line.startswith("runner")] == [
        "ok refusal ns_not_a_number", "ok refusal ns_not_a_number", "FAIL abd",
        "ok refusal ns_not_a_number", "FAIL status", "ok refusal ns_not_a_number", "FAIL record"]


def test_stdout_must_be_the_chunks_joined():
    chunks = ["a\n", "bc\n", "d\n"]
    assert _joins("a\nbc\nd\n", iter(chunks))
    # a byte short, a byte over, a byte changed, nothing
    for out in ("a\nbc\nd", "a\nbc\nd\n\n", "a\nbd\nd\n", ""):
        assert not _joins(out, iter(chunks)), out
