import ast
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from cosetposets import cli, cosets, suite
from cosetposets.catalog import load_catalog
from cosetposets.cli import main
from cosetposets.cosets import build_coset_poset
from cosetposets.groups import symmetric_group
from cosetposets.lattice import enumerate_subgroups
from cosetposets.posets import FinitePoset
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


def test_join_group_missing_from_the_catalog_is_named(tmp_path, capsys):
    """A join group the catalog lacks fails its record with the error that
    names it; the others still run."""
    path = tmp_path / "catalog.txt"
    path.write_text("C4;4;(1,2,3,4);4\n")
    out = tmp_path / "report.json"
    assert main(["verify", "--catalog", str(path), "--suite", "join", "--out", str(out)]) == 1
    capsys.readouterr()
    records = {r["subject"].split()[0]: r for r in json.loads(out.read_text())["records"]}
    assert list(records) == ["S3", "C4", "S4", "Q8", "C6"]
    assert records.pop("C4")["verdict"] is True
    for name, r in records.items():
        assert r["verdict"] is False
        assert r["values"]["error"] == f"KeyError: no catalog entry named {name!r}"


def test_homology_suite_computes_no_moebius(monkeypatch):
    """Only the records that print mu read it from the workspace, so the
    homology suite builds lattices and coset posets but no mu."""
    calls = []
    moebius = suite.moebius_to_top

    def counting(lat):
        calls.append(lat)
        return moebius(lat)

    monkeypatch.setattr(suite, "moebius_to_top", counting)
    report = run_suite(SuiteConfig(suites=("homology",)))
    assert report.overall == "pass" and len(report.records) == 44
    assert calls == []


def test_default_run_builds_each_lattice_and_moebius_at_most_once(monkeypatch):
    """Every suite reads a catalog group's lattice and mu from the run's
    workspace, so a default run builds each at most once per group. The
    join suite's quotient lattices are built outside the workspace and are
    not counted."""
    quotients, calls = [], Counter()
    real = {name: getattr(suite, name)
            for name in ("enumerate_subgroups", "moebius_to_top", "quotient_representation")}

    def quotient(G, N):
        rep = real["quotient_representation"](G, N)
        quotients.append(rep.group)
        return rep

    def counting(name, group_of):
        def call(arg):
            G = group_of(arg)
            if not any(G is Q for Q in quotients):
                calls[name, G.degree, tuple(G._gens_bytes())] += 1
            return real[name](arg)
        return call

    monkeypatch.setattr(suite, "quotient_representation", quotient)
    monkeypatch.setattr(suite, "enumerate_subgroups",
                        counting("enumerate_subgroups", lambda G: G))
    monkeypatch.setattr(suite, "moebius_to_top",
                        counting("moebius_to_top", lambda lat: lat.group))
    report = run_suite(SuiteConfig())
    assert report.overall == "pass"
    assert len(quotients) == 5
    assert calls and max(calls.values()) == 1
    built = Counter(name for name, *_ in calls)
    assert 0 < built["moebius_to_top"] <= built["enumerate_subgroups"] <= len(load_catalog())


def test_unknown_suite_rejected(small_catalog):
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(catalog_path=small_catalog, suites=("nope",)))


def test_cli_unknown_suite_is_an_invalid_choice(capsys):
    """``verify --suite`` names every suite when it refuses a name, as
    argparse's own choice check did."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nosuch"])
    assert exc.value.code == 2
    names = ", ".join(map(repr, suite.ALL_SUITES))
    assert (f"error: argument --suite: invalid choice: 'nosuch' (choose from {names})"
            in capsys.readouterr().err)


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
    ["compute", "zeta", "--group", "S3", "--gens", "(1,2)"],
    ["compute", "zeta", "--gens", "(1 2 3)"],
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
    """C(A6) has 5,456,457 chains; the order complex counts them from A6's
    subgroup chains and refuses before any coset is labelled."""
    def unlabelled(*args):
        raise AssertionError("a coset was labelled")

    monkeypatch.setattr(cosets, "right_coset_reps", unlabelled)
    assert main(["compute", "homology", "--group", "A6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("cosetposets: error: the order complex has 5456457 nonempty faces, "
                            "over the face budget 1000000\n")


def test_homology_path_builds_no_vertex_relation(small_catalog, capsys, monkeypatch):
    """The homology, join and reciprocity suites and `compute homology`,
    `zeta` and `poset` read coset posets off their subgroup chains, and
    the lattice is no poset: the largest poset they build is the chains of
    the proper subgroups (S4 has 29 of its 30 subgroups, against 233
    cosets in C(S4); S3 has 5 of 6, against 17 in C(S3))."""
    sizes = []
    build = FinitePoset.__init__

    def recording(self, above):
        sizes.append(len(above))
        build(self, above)

    with monkeypatch.context() as patch:
        patch.setattr(FinitePoset, "__init__", recording)
        report = run_suite(SuiteConfig(catalog_path=small_catalog,
                                       suites=("homology", "join", "reciprocity")))
        assert report.overall == "pass"  # a record that raised would fail
        assert {r["suite"] for r in report.records} == {"homology", "join", "reciprocity"}
        assert main(["compute", "homology", "--group", "S4"]) == 0
        assert main(["compute", "zeta", "--group", "S4",
                     "--relative-to", "(1,2)(3,4),(1,3)(2,4)"]) == 0
        assert sizes and max(sizes) < 30
        sizes.clear()
        capsys.readouterr()
        assert main(["compute", "poset", "--group", "S3"]) == 0
        assert sizes and max(sizes) < 6
    S3 = symmetric_group(3)
    dump = build_coset_poset(S3, enumerate_subgroups(S3)).dump()
    assert capsys.readouterr().out == dump and dump.count("<") == 24


def test_zeta_path_labels_no_coset(small_catalog, capsys, monkeypatch):
    """The reciprocity suite and `compute zeta` read coset posets off their
    subgroups and label no coset; `compute homology` labels those of the
    beat-point core."""
    def unlabelled(*args):
        raise AssertionError("a coset was labelled")

    with monkeypatch.context() as patch:
        patch.setattr(cosets, "right_coset_reps", unlabelled)
        report = run_suite(SuiteConfig(catalog_path=small_catalog, suites=("reciprocity",)))
        assert report.overall == "pass"  # a record that raised would fail
        assert main(["compute", "zeta", "--group", "S4",
                     "--relative-to", "(1,2)(3,4),(1,3)(2,4)"]) == 0
        with pytest.raises(AssertionError, match="a coset was labelled"):
            main(["compute", "homology", "--group", "S3"])
    capsys.readouterr()


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


@pytest.mark.parametrize("argv, p_minus_1", [
    (["compute", "zeta", "--group", "S4"], -120),
    (["compute", "zeta", "--group", "S4", "--relative-to", "(1,2)(3,4),(1,3)(2,4)"], -15),
    (["compute", "zeta", "--group", "S3", "--relative-to", "(1,2,3)"], -8),
    (["compute", "zeta", "--group", "C6", "--relative-to", "(1,3,5)(2,4,6)"], -2),
], ids=["S4", "S4_rel_V4", "S3_rel_C3", "C6_rel_C3"])
def test_cli_zeta_polynomial_is_that_of_the_poset_it_builds(argv, p_minus_1, capsys):
    """The printed polynomial is P_G, or with --relative-to Brown's P_{G,N},
    the terms of G and of the supplements H with HN = G; either way its
    value at -1 is minus the hat-Moebius value of the poset printed with it."""
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"P(-1) = {p_minus_1}" in lines
    assert lines[-1] == f"moebius-hat of the coset poset = {-p_minus_1}"


def test_cli_catalog_beside_gens_is_refused_before_anything_is_parsed(capsys, monkeypatch):
    """Inline generators take no catalog, so --catalog with --gens is refused
    as the argument it is; neither the generators nor the file are read."""
    def unread(*args, **kwargs):
        raise AssertionError("an argument was parsed")

    monkeypatch.setattr(cli, "parse_permutation_list", unread)
    monkeypatch.setattr(cli, "catalog_group", unread)
    argv = ["compute", "zeta", "--gens", "(1,2,3)", "--catalog", "/nonexistent/file.txt"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("cosetposets: error: --catalog /nonexistent/file.txt applies to "
                            "--group only, not to --gens\n")


def test_readme_library_example_prints_its_documented_lines(capsys):
    """The Python block under README's "Library example" runs and prints the
    two values its comments document."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["-1560", "<Betti GF(2): b2=1560>"]


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_cli_closed_stdout_ends_as_sigpipe(unbuffered):
    """Output to a pipe whose reader is gone ends with status 141 (128 +
    SIGPIPE) and nothing on stderr: not as bad input, and not with an
    "Exception ignored" message from the flush at exit."""
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cosetposets.cli", "compute", "zeta", "--group", "S3"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_readme_compute_poset_example_prints_a_cover_pair(capsys):
    """README's `compute poset` line prints a poset with at least one cover
    pair, so the example shows the relation and not only the vertices."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    line = next(ln for ln in section.splitlines() if ln.startswith("cosetposets compute poset "))
    assert main(shlex.split(line, comments=True)[1:]) == 0
    covers = capsys.readouterr().out.split("--covers--\n", 1)[1].splitlines()
    assert covers and all(re.fullmatch(r"\d+<\d+", c) for c in covers)


def test_src_certificates_use_no_assert_statement():
    """``python -O`` strips assert statements, so a certificate in ``src``
    that asserts would return unchecked values; each raises instead."""
    paths = sorted((Path(__file__).parent.parent / "src" / "cosetposets").glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert paths and found == []
