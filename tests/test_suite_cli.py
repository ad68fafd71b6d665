import json
import re
from pathlib import Path

import pytest

from cosetposets import cli
from cosetposets.cli import main
from cosetposets.cosets import CosetPoset
from cosetposets.suite import SuiteConfig, VerificationReport, run_suite
from normalize_report import normalize

VERIFY_GOLDEN = Path(__file__).parent / "verify_report.golden.json"


@pytest.fixture(scope="module")
def small_catalog(tmp_path_factory):
    path = tmp_path_factory.mktemp("cat") / "catalog.txt"
    path.write_text(
        "# test catalog\n"
        "C2;2;(1,2);2\n"
        "C4;4;(1,2,3,4);4\n"
        "C2xC2;4;(1,2)(3,4),(1,3)(2,4);4\n"
        "S3;3;(1,2),(1,2,3);6\n"
        "Q8;8;(1,2,3,4)(5,6,7,8),(1,5,3,7)(2,8,4,6);8\n"
        "C6;6;(1,2,3,4,5,6);6\n"
        "S4;4;(1,2),(1,2,3,4);24\n")
    return str(path)


def test_reciprocity_suite_runs_green(small_catalog):
    config = SuiteConfig(catalog_path=small_catalog, suites=("reciprocity",))
    report = run_suite(config)
    assert report.overall == "pass"
    s3 = next(r for r in report.records if r["subject"] == "S3")
    assert s3["values"]["chi"] == -8
    assert s3["values"]["p_at_minus_1"] == "8"


def test_homology_suite_runs_green(small_catalog):
    config = SuiteConfig(catalog_path=small_catalog, suites=("homology",))
    report = run_suite(config)
    assert report.overall == "pass"
    for r in report.records:
        assert any(r["values"]["betti"]), "some Betti number must be nonzero"
        assert r["values"]["f_vector"][0] == 1  # the empty face, dimension -1


def test_join_suite_runs_green(small_catalog):
    config = SuiteConfig(catalog_path=small_catalog, suites=("join",))
    report = run_suite(config)
    assert report.overall == "pass"
    assert len(report.records) == 5


def test_exit_code_matches_overall(small_catalog, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "reciprocity", "--catalog", small_catalog,
                 "--out", str(out)])
    assert code == 0
    body = json.loads(out.read_text())
    assert body["overall"] == "pass"
    assert body["config"]["suites"] == ["reciprocity"]
    assert {r["suite"] for r in body["records"]} == {"reciprocity"}


def test_reciprocity_records_match_verify_golden(tmp_path):
    """The committed golden holds what a reciprocity run on the bundled
    catalog writes now, once normalized; CI compares the full report."""
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "reciprocity", "--out", str(out)]) == 0
    records = normalize(json.loads(out.read_text()))["records"]
    golden = json.loads(VERIFY_GOLDEN.read_text())
    assert len(golden["records"]) == 203
    assert records == [r for r in golden["records"] if r["suite"] == "reciprocity"]


def test_repeated_suite_runs_once(small_catalog, tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "join", "--suite", "reciprocity", "--suite", "join",
                 "--catalog", small_catalog, "--out", str(out)])
    assert code == 0
    body = json.loads(out.read_text())
    assert body["config"]["suites"] == ["join", "reciprocity"]
    assert [r["suite"] for r in body["records"]].count("join") == 5


def test_report_without_records_fails(small_catalog):
    assert VerificationReport(version="0", timestamp="-", config={}).overall == "fail"
    # no catalog group has order <= 1, so reciprocity makes no records
    report = run_suite(SuiteConfig(catalog_path=small_catalog, suites=("reciprocity",),
                                   max_order=1))
    assert report.records == [] and report.overall == "fail"


def test_report_records_capture_errors_without_aborting(tmp_path):
    bad = tmp_path / "cat.txt"
    # A7 exceeds the lattice bound, so reciprocity on it must fail as a
    # record (captured error), not crash the run
    bad.write_text("S3;3;(1,2),(1,2,3);6\nA7;7;(1,2,3),(1,2,3,4,5,6,7);2520\n")
    config = SuiteConfig(catalog_path=str(bad), suites=("reciprocity",),
                         max_order=5040)
    report = run_suite(config)
    assert report.overall == "fail"
    verdicts = {r["subject"]: r["verdict"] for r in report.records}
    assert verdicts["S3"] is True
    assert verdicts["A7"] is False
    a7 = next(r for r in report.records if r["subject"] == "A7")
    assert "error" in a7["values"]


def test_report_deterministic_modulo_timestamp(small_catalog):
    config = SuiteConfig(catalog_path=small_catalog, suites=("reciprocity", "join"))
    a = run_suite(config).to_json()
    b = run_suite(config).to_json()
    strip = lambda s: re.sub(r'"timestamp": "[^"]*"', '"timestamp": "-"', s)
    strip_ms = lambda s: re.sub(r'"millis": [0-9.]+', '"millis": 0', s)
    assert strip_ms(strip(a)) == strip_ms(strip(b))


def test_unknown_suite_rejected(small_catalog):
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(catalog_path=small_catalog, suites=("nope",)))


def test_composite_prime_rejected(small_catalog):
    with pytest.raises(ValueError, match="prime"):
        run_suite(SuiteConfig(catalog_path=small_catalog, suites=("homology",),
                              prime=6))


def test_homology_suite_odd_prime(small_catalog):
    config = SuiteConfig(catalog_path=small_catalog, suites=("homology",), prime=3)
    report = run_suite(config)
    # C(Q8, Z2) is empty, so its complex is {emptyset}: nonzero over every field
    q8 = next(r for r in report.records if r["subject"] == "Q8")
    assert q8["values"]["relative"]["N0_order_2"] == [1]


def test_cli_compute_zeta(capsys):
    assert main(["compute", "zeta", "--group", "S3"]) == 0
    out = capsys.readouterr().out
    assert "P(-1) = 8" in out


def test_cli_compute_homology_inline_gens(capsys):
    code = main(["compute", "homology", "--gens", "(1,2)(3,4),(1,3)(2,4)",
                 "--degree", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "dim 1: 3" in out


def test_cli_compute_homology_odd_prime_a5(capsys):
    assert main(["compute", "homology", "--group", "A5", "--prime", "3"]) == 0
    out = capsys.readouterr().out
    assert "dim 2: 1560" in out


def test_cli_compute_lattice(capsys):
    assert main(["compute", "lattice", "--group", "C4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "1;0;0"  # trivial subgroup, mu(1, C4) = 0


@pytest.mark.parametrize("argv", [
    ["compute", "zeta", "--group", "NOPE"],
    ["compute", "zeta", "--gens", "(1,2"],
    ["compute", "zeta", "--gens", "(1,2),(1,9)", "--degree", "3"],
    ["verify", "--prime", "4"],
    ["compute", "homology", "--group", "S3", "--prime", "4"],
    ["compute", "lattice", "--group", "S3", "--prime", "4"],
    ["compute", "zeta", "--group", "S3", "--prime", "4"],
    ["compute", "poset", "--group", "S3", "--relative-to", "(1,2)"],
    ["verify", "--catalog", "/nonexistent"],
    ["compute", "lattice", "--group", "A7"],
    ["compute", "zeta"],
    ["compute", "zeta", "--gens", "(1,2)", "--degree", "300"],
    ["verify", "--max-order", "0"],
    ["verify", "--max-order", "-3", "--suite", "reciprocity"],
    ["compute", "homology", "--gens", " "],
    ["compute", "zeta", "--gens", "(1,2),(3,4)", "--degree", "2"],
    ["compute", "poset", "--group", "S3", "--relative-to", "(1,2,3,4)"],
])
def test_cli_input_error_is_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cosetposets: error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("degree", ["0", "-2"])
def test_cli_non_positive_degree_is_named_as_the_degree(degree, capsys):
    """--degree below 1 is refused as the argument it is, before any point
    of --gens is read against it."""
    assert main(["compute", "zeta", "--gens", "()", "--degree", degree]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cosetposets: error: --degree must be at least 1, got {degree}\n"


@pytest.mark.parametrize("degree", ["0", "3"])
def test_cli_degree_beside_group_is_refused_before_the_catalog(degree, capsys):
    """A catalog group has its own degree, so --degree with --group is
    refused as the argument it is; the catalog given is never read."""
    argv = ["compute", "zeta", "--group", "S3", "--degree", degree, "--catalog", "/nonexistent"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"cosetposets: error: --degree {degree} applies to --gens only, "
                            "not to --group\n")


def test_cli_homology_past_the_face_budget_is_refused(capsys, monkeypatch):
    """C(A6) has 5,456,457 chains; the CLI counts them from A6's subgroup
    chains and refuses before it builds the coset poset."""
    def unbuilt(*args, **kwargs):  # build_coset_poset builds through it too
        raise AssertionError("the coset poset was built")

    monkeypatch.setattr(CosetPoset, "__init__", unbuilt)
    assert main(["compute", "homology", "--group", "A6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("cosetposets: error: the order complex has 5456457 nonempty faces, "
                            "over the face budget 1000000\n")


def test_cli_composite_prime_is_refused_before_any_work(capsys, monkeypatch):
    def unbuilt(*args, **kwargs):
        raise AssertionError("the subgroup lattice was built")

    monkeypatch.setattr(cli, "enumerate_subgroups", unbuilt)
    assert main(["compute", "homology", "--group", "A5", "--prime", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cosetposets: error: --prime must be prime, got 4\n"


@pytest.mark.parametrize("group, relative_to, fault", [
    ("A4", "(1,2)", "is not a subgroup of the group"),
    ("S3", "(1,2)", "is not normal in the group"),
], ids=["not_a_subgroup", "not_normal"])
def test_cli_relative_to_error_names_the_argument(group, relative_to, fault, capsys):
    assert main(["compute", "poset", "--group", group, "--relative-to", relative_to]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cosetposets: error: --relative-to {relative_to!r} {fault}\n"


@pytest.mark.parametrize("relative_to", ["(1,2,3,4,5)", "(1,2,3)"])
def test_cli_relative_to_beside_lattice_is_refused_before_the_group(relative_to, capsys,
                                                                     monkeypatch):
    """The lattice takes no --relative-to, valid or not; it is refused as the
    argument it is, before the catalog group is built."""
    def unbuilt(*args, **kwargs):
        raise AssertionError("the group was built")

    monkeypatch.setattr(cli, "catalog_group", unbuilt)
    argv = ["compute", "lattice", "--group", "S3", "--relative-to", relative_to]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"cosetposets: error: --relative-to {relative_to!r} does not apply "
                            "to lattice\n")


@pytest.mark.parametrize("what", ["poset", "zeta", "homology"])
@pytest.mark.parametrize("relative_to", ["", " "], ids=["empty", "blank"])
def test_cli_blank_relative_to_is_refused_before_the_group(what, relative_to, capsys,
                                                           monkeypatch):
    """An empty or blank --relative-to names no normal subgroup; it is
    refused as the argument it is, before the catalog group is built, rather
    than read as no option or as the trivial subgroup."""
    def unbuilt(*args, **kwargs):
        raise AssertionError("the group was built")

    monkeypatch.setattr(cli, "catalog_group", unbuilt)
    assert main(["compute", what, "--group", "C2", "--relative-to", relative_to]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"cosetposets: error: --relative-to {relative_to!r} names no "
                            "generators\n")
