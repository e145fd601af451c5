"""End-to-end runs of the shipped scenario corpus.

Every scenario file is executed through the real argument parser; the
expected exit codes below are part of the corpus contract.
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from treeclose import cli
from treeclose.cli import main
from treeclose.kclosure import germ_from_json
from treeclose.models.padic import PSL2Model
from treeclose.tree_core import ball_vertices

ROOT_DIR = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT_DIR / "scenarios"

# 0 = property holds / computation succeeded, 10 = property fails with a
# certificate, 20 = inconclusive at the configured budget
EXPECTED_EXIT = {
    "bs12-pk-edge-k1-r1.json": 10,
    "bs23-discreteness-k1.json": 0,
    "bs23-ipk-k1-r3.json": 10,
    "bs23-ipk-k1-r4.json": 10,
    "bs23-local-action.json": 0,
    "bs23-normal-form.json": 0,
    "bs23-pk-edge.json": 10,
    "bs23-pk-edge-k1-r1.json": 10,
    "bs23-pk-edge-k2-r2.json": 10,
    "bs23-plusk-k1.json": 0,
    "bs23-stab-germs-k1.json": 0,
    "cl-discreteness-k2.json": 20,
    "cl-ipk-k2.json": 0,
    "cl-legality-k1.json": 0,
    "cl-legality-k2-fails.json": 10,
    "cl-plusk-k2.json": 0,
    "cl-stab-germs-k1.json": 0,
    "cover-c24-pk-edge-k1-r1.json": 10,
    "cover-c25-discreteness-k2.json": 0,
    "cover-c25-local-action.json": 0,
    "cover-c25-pk-edge-k1-r1.json": 10,
    "cover-compare-k1.json": 0,
    "cover-compare-k3.json": 10,
    "cover-strip-pk-edge-k1-r1.json": 10,
    "cover-strip-pk-edge-k2-r2.json": 10,
    "full-aut-commutator-a1.json": 0,
    "full-aut-ipk-k1.json": 0,
    "full-aut-local-action.json": 0,
    "full-aut-pk-len2.json": 0,
    "psl2-discreteness-k2.json": 0,
    "psl2-lattice-r1.json": 0,
    "psl2-lattice-r2.json": 10,
    "psl2-pk-edge-k1-r1.json": 10,
    "psl2-pk-edge-k2-r2.json": 10,
    "psl2-stab-germs-k1.json": 0,
}


# SHA-256 of each `--format json` report: the benchmark's golden digests,
# plus the files the benchmark does not run: the two R=4 files, and the
# one-edge pk windows where the fixator is nontrivial yet equals the product
# of its two marginals (IP_k fails there with a witness germ, so P_k does;
# on BS(1,2) that germ is taken at 0, since it moves nothing in B(ε, 1))
REPORT_SHA256 = {
    name: entry["sha256"]
    for name, entry in json.loads(
        (ROOT_DIR / "perfbench" / "golden.json").read_text(encoding="utf-8")
    ).items()
    if name in EXPECTED_EXIT
}
REPORT_SHA256.update({
    "bs23-ipk-k1-r4.json": "2a7fcb40e2d8ede68b4f5a047d31b8e23bc8ce2c320168c63c53db3567552352",
    "bs23-pk-edge.json": "c351c9823b279b0be21c918d15a46f63050a95a896b5709dd6ee3dc8fc72ce60",
    "bs12-pk-edge-k1-r1.json": "4e34d9ddc59317ceefcfec305a55b7e6572060753b93cf217dc3724efdc0d396",
    "bs23-pk-edge-k1-r1.json": "2bce28bacaaf476820e4c40e346cdd0056980998339e17fa9a76292d58133b13",
    "bs23-pk-edge-k2-r2.json": "76f7db8db233718b3293ec37b9c638bd4f934b9a5972b2e338ed6360dc59b18f",
    "cover-c25-pk-edge-k1-r1.json": "c7644240ed86097c283459b9a4e3d6e7a620258aa7f4cc10a86e489ef702885d",
    "psl2-pk-edge-k1-r1.json": "6cfcc35cb942e2f6a6d08d7fe03981657f3228e3b597d743c5a48b31f27c72ff",
    "psl2-pk-edge-k2-r2.json": "6ccfa625d4bb58615068afc0bdeb32c87836e33b706d5788263731c4d52e836c",
    "cover-strip-pk-edge-k1-r1.json": "91d4b84b03a34a9f3170bd4059b504fedbe92cdd05e30f289dc25cb8960c68b4",
    "cover-strip-pk-edge-k2-r2.json": "474dffa581133aa7ce926311dc1839c420201ed53bfa9c3caee944edbe502d0b",
    "cover-c24-pk-edge-k1-r1.json": "25f5971c53284d2011db8fd5a956b85d7fafea66729d52a5c0690c45bcd5c1fa",
})


# cover inputs the corpus lacks: (scenario, exit code, SHA-256 of the
# `--format json` report)
_STRIP2 = {"model": "cover", "graph": "strip", "p": 2}
_STRIP3 = {"model": "cover", "graph": "strip", "p": 3}


def _cycle(r):
    return {"model": "cover", "graph": "C", "p": 2, "r": r}


COVER_REPORT_SHA256 = {
    "strip-stab-germs-3.0-k2": (
        {"model": _STRIP2, "verb": "stab-germs", "vertex": "3.0", "k": 2},
        0, "c11120933f2f58eadb504de157ba319540361b5c87dcb931ed24aebd4ee59f99"),
    "strip-p3-stab-germs-k1": (
        {"model": _STRIP3, "verb": "stab-germs", "k": 1},
        0, "4ba76af629e2ffebc98424b46ff929953a38acb2b8ff93717ab167cb719aefd5"),
    "strip-p3-local-action": (
        {"model": _STRIP3, "verb": "local-action"},
        0, "5dbf373799b6435833303f21911f9a9c94106a56d919696daaf7c7170c589138"),
    "strip-discreteness-k1": (
        {"model": _STRIP2, "verb": "discreteness", "k": 1, "budget": 50},
        0, "7a8aa01b24e65cb79d07a77cc5b85a19f76175320442864de65adf7f5147080b"),
    "strip-discreteness-k2": (
        {"model": _STRIP2, "verb": "discreteness", "k": 2, "budget": 50},
        0, "267f5a7c619b19d449f088a2813b8651c9db53affed2954f5acaa46345630d91"),
    "strip-ipk-k1-r2": (
        {"model": _STRIP2, "verb": "ipk", "edge": ["ε", "0"], "k": 1, "R": 2},
        10, "87abfca1593ea7203c0c6fd5f97c46f4754ec6ae019605eb1a1fcb4213a50284"),
    "strip-pk-k1-r2": (
        {"model": _STRIP2, "verb": "pk", "path": ["1", "ε", "0"], "k": 1, "R": 2},
        20, "bf58abab55d3ee2f8239ad4d6f0cc22435d3c50fb2ba4df4d9a71494318f21b7"),
    "strip-plusk-k2": (
        {"model": _STRIP2, "verb": "plusk-generators", "vertex": "0", "k": 2, "radius": 2},
        0, "c4d233005a304b03cae757b30eca662487fdaac83c03f8d4c66b880945b6afcb"),
    "strip-vs-c25-k2": (
        {"model": _STRIP2, "verb": "kclosure-compare", "other": _cycle(5), "k": 2},
        0, "40f3b18d6d9c2cdef55d0f32cf7a0c10344d58751382057e22b8e10fb574ff64"),
    "c23-stab-germs-1.2-k2": (
        {"model": _cycle(3), "verb": "stab-germs", "vertex": "1.2", "k": 2},
        0, "2fd5772345e8a600c5efc2e94547a982438b530f324ffa2374e88ce625d668e4"),
    "c24-stab-germs-0-k2": (
        {"model": _cycle(4), "verb": "stab-germs", "vertex": "0", "k": 2},
        0, "7306e4aec5ece2b453e6f5dc712061c26c3cd55bd0033c4a4cc3604a8f31401c"),
    "c24-discreteness-k2": (
        {"model": _cycle(4), "verb": "discreteness", "k": 2},
        20, "e95bd115ff5d2509a7cec98acfacb07f3c89bd2a539ed404198abd3afb68c670"),
    "c24-vs-strip-k1": (
        {"model": _cycle(4), "verb": "kclosure-compare", "other": _STRIP2, "k": 1,
         "first_difference_kmax": 3},
        10, "d210d398279d372869eabf024efd665824f9eef33ee6a75eece4a24522f8a631"),
    "c25-stab-germs-3-k2": (
        {"model": _cycle(5), "verb": "stab-germs", "vertex": "3", "k": 2},
        0, "cf1c8ec9f082751e2f6eea93bf5b52967c5876125bdd6a287635a769ee65704c"),
    "c25-discreteness-k1": (
        {"model": _cycle(5), "verb": "discreteness", "k": 1},
        0, "a04e5327a9690e6f30691b3ecffae930fcc70035de6f648f8e9c870099a53d61"),
    "c25-ipk-k1-r2": (
        {"model": _cycle(5), "verb": "ipk", "edge": ["ε", "0"], "k": 1, "R": 2},
        10, "9b2ffadf203eb4e875f58096fbc5725763066e7f29a65542eb8e2a65e1d4f838"),
    "c25-plusk-k1": (
        {"model": _cycle(5), "verb": "plusk-generators", "k": 1, "radius": 2},
        0, "9fb4fcad9f324db4682b993a0625b2af7da632914e2504c2500e86161edc05d5"),
    "c25-local-action-2.1": (
        {"model": _cycle(5), "verb": "local-action", "vertex": "2.1"},
        0, "7ac3d373ca251b3004bdeb3957de14c6736480623027c8c4936a7d41e97723e1"),
    "c27-vs-strip-k1": (
        {"model": _cycle(7), "verb": "kclosure-compare", "other": _STRIP2, "k": 1,
         "first_difference_kmax": 4},
        0, "17be68fee1580214131a347d06c5ad6cb5d5594856092a8708b644ae360c28fe"),
}


def run_cli(args, capsys):
    code = main(args)
    return code, capsys.readouterr().out


def test_corpus_matches_expectation_table():
    found = {p.name for p in SCENARIO_DIR.glob("*.json")}
    assert found == set(EXPECTED_EXIT) == set(REPORT_SHA256)


@pytest.mark.parametrize("name", sorted(EXPECTED_EXIT))
def test_scenario_runs_with_expected_exit(name, capsys):
    path = SCENARIO_DIR / name
    code, out = run_cli(["run", str(path), "--format", "json"], capsys)
    assert code == EXPECTED_EXIT[name]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_SHA256[name]
    report = json.loads(out)
    assert report["schema"] == "treeclose.report/v1"
    assert report["exit_code"] == code
    assert report["scenario"] == json.loads(path.read_text(encoding="utf-8"))
    assert report["model"]["degree"] >= 3
    # determinism contract: no timing leaks unless --timings was passed
    assert report["wall_clock_ms"] == 0
    verdict_verbs = ("ipk", "pk", "kclosure-compare", "discreteness")
    if code == 10 and report["scenario"]["verb"] in verdict_verbs:
        assert report["witnesses"]


@pytest.mark.parametrize("name", sorted(COVER_REPORT_SHA256))
def test_cover_reports_match_their_digests(name, capsys, tmp_path):
    scenario, exit_code, digest = COVER_REPORT_SHA256[name]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, out = run_cli(["run", str(path), "--format", "json"], capsys)
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# deeper than Python's default limit of 1000 nested calls
_DEEP_VERTEX = ".".join("01"[i % 2] for i in range(1100))


@pytest.mark.parametrize("model, count", [
    (_cycle(3), 8),
    (_STRIP2, 8),
    ({"model": "bs", "m": 2, "n": 3}, 6),
    ({"model": "psl2", "p": 2}, 6),
], ids=["cover-c23", "strip", "bs", "psl2"])
def test_stab_germs_at_a_deep_vertex(model, count, capsys, tmp_path):
    # each family's stabilisers are conjugate along the path, so the count
    # is the root's
    code, report = _run_scenario(tmp_path, capsys, {
        "model": model, "verb": "stab-germs", "vertex": _DEEP_VERTEX, "k": 1})
    assert code == 0
    assert report["result"]["vertex"] == _DEEP_VERTEX
    assert report["result"]["count"] == count


@pytest.mark.parametrize(
    "name",
    ["bs23-ipk-k1-r4.json", "full-aut-commutator-a1.json", "psl2-lattice-r1.json"],
)
def test_reruns_are_byte_identical(name, capsys):
    path = str(SCENARIO_DIR / name)
    _, first = run_cli(["run", path, "--format", "json"], capsys)
    _, second = run_cli(["run", path, "--format", "json"], capsys)
    assert first == second


def test_text_format_header_and_order(capsys):
    path = str(SCENARIO_DIR / "bs23-local-action.json")
    code, out = run_cli(["run", path], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "treeclose report"
    keys = [line.split()[0] for line in lines[1:]]
    assert keys == sorted(keys)


def test_seed_override_is_echoed(capsys):
    path = str(SCENARIO_DIR / "bs23-local-action.json")
    _, out = run_cli(["run", path, "--format", "json", "--seed", "5"], capsys)
    assert json.loads(out)["seed"] == 5


def test_budget_override_respected(capsys):
    path = str(SCENARIO_DIR / "cl-discreteness-k2.json")
    code, out = run_cli(
        ["run", path, "--format", "json", "--budget-override", "5"], capsys
    )
    assert code == 20
    report = json.loads(out)
    assert report["budget_used"] <= 5


def test_timings_flag_breaks_determinism_only_there(capsys):
    path = str(SCENARIO_DIR / "bs23-normal-form.json")
    _, out = run_cli(["run", path, "--format", "json", "--timings"], capsys)
    report = json.loads(out)
    assert isinstance(report["wall_clock_ms"], int)


def test_element_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("TREECLOSE_MAX_ELEMENTS", "10")
    path = str(SCENARIO_DIR / "bs23-plusk-k1.json")
    code, out = run_cli(["run", path, "--format", "json"], capsys)
    assert code == 2
    report = json.loads(out)
    assert report["error"]["type"] == "TooLarge"


_AUT3 = {"model": "full_aut", "d": 3}
_BS23 = {"model": "bs", "m": 2, "n": 3}
_C25 = {"model": "cover", "graph": "C", "p": 2, "r": 5}


def _corpus(name):
    return json.loads((SCENARIO_DIR / name).read_text(encoding="utf-8"))


# one scenario per enumeration that reads TREECLOSE_MAX_ELEMENTS, with a
# limit that this enumeration passes first: (scenario, limit, message)
LIMIT_SITES = {
    # pk lists the 128 maps of its fixator chain to re-verify the product;
    # ball-germ listings and full Aut's discreteness candidates stop at the
    # limit too (test_germ_core checks both directly)
    "chain_listing": (_corpus("full-aut-pk-len2.json"), 100,
                      "listing exceeded 100 elements"),
    # 47 swaps generate the radius-5 germ group, whose chain builds about
    # 6,900 perms of 94 positions; the ipk verdict counts 2**30 maps
    "stabilizer_chain": ({"model": _AUT3, "verb": "ipk", "edge": ["ε", "0"],
                          "k": 1, "R": 4}, 100,
                         "stabilizer chain exceeded 100 x 100 entries"),
    "stab_germ_group": (_corpus("psl2-stab-germs-k1.json"), 5,
                        "stabilizer germ group exceeded 5"),
    # SL2(Z/4) over its two scalars: 24 germs, in the other orbit; the
    # chain stops once its orbit lengths multiply past the limit
    "psl2_stab_preflight_odd_orbit": ({"model": {"model": "psl2", "p": 2},
                                       "verb": "stab-germs", "vertex": "0", "k": 2},
                                      20, "stabilizer germ group exceeded 20"),
    # 216 generator powers and one twisted sample each; they close to 648
    "mulclose": ({"model": _BS23, "verb": "plusk-generators", "k": 2,
                  "radius": 3, "samples": 1}, 500,
                 "closure exceeded 500 elements"),
    # C(2,4) = K_{4,4} has 1,152 automorphisms, most of them no level maps
    "aut_graph": ({"model": {"model": "cover", "graph": "C", "p": 2, "r": 4},
                   "verb": "local-action"}, 500,
                  "automorphism group exceeds 500"),
    # C(2,5) has 2r (p!)^r = 320 automorphisms; their chain stops before
    # it is complete
    "aut_graph_preflight": (_corpus("cover-c25-local-action.json"), 100,
                            "automorphism group exceeds 100"),
    "ball_vertices": (_corpus("bs23-ipk-k1-r3.json"), 100,
                      "ball of radius 3 has more than 100 vertices"),
    # 3! * 2**3 = 48 germs, on a 10-vertex ball, counted on their chain
    "full_aut_stab_preflight": ({"model": _AUT3, "verb": "stab-germs", "k": 2}, 40,
                                "stabilizer germ group exceeded 40"),
    # 36 generator powers, each with 20 twisted samples
    "plusk_preflight": ({"model": _BS23, "verb": "plusk-generators", "k": 1,
                         "radius": 2, "samples": 20}, 100,
                        "more than 100 generator candidates"),
    "britton_preflight": ({"model": _BS23, "verb": "normal-form",
                           "word": "t^60 a t^-41"}, 100,
                          "word has more than 100 t letters"),
}


@pytest.mark.parametrize("site", sorted(LIMIT_SITES))
def test_element_limit_trips_each_enumeration(site, capsys, tmp_path, monkeypatch):
    scenario, limit, message = LIMIT_SITES[site]
    # balls are checked on a cache miss only, and earlier tests built some
    ball_vertices.cache_clear()
    monkeypatch.setenv("TREECLOSE_MAX_ELEMENTS", str(limit))
    code, report = _run_scenario(tmp_path, capsys, scenario)
    assert code == 2
    assert report["error"] == {"type": "TooLarge", "message": message}
    # and the limit is what stopped it
    monkeypatch.delenv("TREECLOSE_MAX_ELEMENTS")
    code, report = _run_scenario(tmp_path, capsys, scenario)
    assert "error" not in report


@pytest.mark.parametrize("value", ["x", "1e6", "", "-3"])
def test_element_limit_must_be_a_non_negative_integer(value, capsys, monkeypatch):
    monkeypatch.setenv("TREECLOSE_MAX_ELEMENTS", value)
    path = str(SCENARIO_DIR / "bs23-normal-form.json")
    code, out = run_cli(["run", path, "--format", "json"], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ValidationError"
    assert "TREECLOSE_MAX_ELEMENTS" in error["message"]


# inputs past the default limit of 10**6, each stopped before it builds
# what it counts
OVERSIZED = {
    "constant-local-stab-germs-k30": {
        "model": {"model": "constant_local", "d": 3, "F": "sym"},
        "verb": "stab-germs", "k": 30},
    "full-aut-ipk-r30": {"model": _AUT3, "verb": "ipk", "edge": ["ε", "0"],
                         "k": 1, "R": 30},
    "cover-vs-strip-probe-radius-30": {
        "model": _C25, "verb": "kclosure-compare", "k": 1, "probe_radius": 30,
        "other": {"model": "cover", "graph": "strip", "p": 2}},
    # 3! * 2**21 = 12,582,912 germs
    "full-aut-d3-stab-germs-k4": {"model": _AUT3, "verb": "stab-germs", "k": 4},
    "full-aut-d400-stab-germs-k1": {"model": {"model": "full_aut", "d": 400},
                                    "verb": "stab-germs", "k": 1},
    # 6,143 swaps of 12,286 positions; the chain refuses after about 20
    "full-aut-d3-stab-germs-k12": {"model": _AUT3, "verb": "stab-germs", "k": 12},
    # orbits of 7,920 points, whose transversal alone passes the entry cap
    "psl2-p7919-stab-germs-k1": {"model": {"model": "psl2", "p": 7919},
                                 "verb": "stab-germs", "k": 1},
    "bs-plusk-ten-million-samples": {"model": _BS23, "verb": "plusk-generators",
                                     "k": 1, "radius": 2, "samples": 10000000},
    "bs-normal-form-t-to-the-billion": {"model": _BS23, "verb": "normal-form",
                                        "word": "t^1000000000"},
    # trial division up to sqrt(2**61 - 1), about 1.5e9
    "psl2-p-mersenne-61": {"model": {"model": "psl2", "p": 2**61 - 1},
                           "verb": "lattice", "r": 0, "matrix": [[1, 0], [0, 1]]},
    "constant-local-sym-200": {"model": {"model": "constant_local", "d": 200, "F": "sym"},
                               "verb": "local-action"},
    "constant-local-sym-10000": {"model": {"model": "constant_local", "d": 10000, "F": "sym"},
                                 "verb": "local-action"},
    # 2r (p!)^r automorphisms at least
    "cover-c2-500-local-action": {"model": {"model": "cover", "p": 2, "r": 500},
                                  "verb": "local-action"},
    "cover-c2-60-local-action": {"model": {"model": "cover", "p": 2, "r": 60},
                                 "verb": "local-action"},
    # a valid window whose translation needs a ball of radius 60,003
    "commutator-amplitude-30000": {"model": _AUT3, "verb": "commutator",
                                   "amplitude": 30000, "z_hi": 30000},
    # the stabiliser generator acts on B(ε, 8) with order 6^8 = 1,679,616
    "bs-stab-germs-k8": {"model": _BS23, "verb": "stab-germs", "k": 8},
    "bs-plusk-generators-r8": {"model": _BS23, "verb": "plusk-generators",
                               "k": 1, "radius": 8},
    # its closure is counted on a chain before any germ of it is listed
    "bs-plusk-closure-vertex-0-r3": {"model": _BS23, "verb": "plusk-generators",
                                     "vertex": "0", "k": 1, "radius": 3, "samples": 2},
}


# the groups that a chain sizes by its order cut say so, whatever their
# first orbit costs
CUT_MESSAGES = {
    "constant-local-sym-200": "closure exceeded 1000000 elements",
    "constant-local-sym-10000": "closure exceeded 1000000 elements",
    "full-aut-d3-stab-germs-k4": "stabilizer germ group exceeded 1000000",
    "full-aut-d400-stab-germs-k1": "stabilizer germ group exceeded 1000000",
    "full-aut-d3-stab-germs-k12": "stabilizer germ group exceeded 1000000",
    "psl2-p7919-stab-germs-k1": "stabilizer germ group exceeded 1000000",
    "bs-stab-germs-k8": "stabilizer germ group exceeded 1000000",
    "cover-c2-500-local-action": "automorphism group exceeds 1000000",
    "cover-c2-60-local-action": "automorphism group exceeds 1000000",
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_oversized_inputs_exit_2_at_the_default_limit(name, capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("TREECLOSE_MAX_ELEMENTS", raising=False)
    code, report = _run_scenario(tmp_path, capsys, OVERSIZED[name])
    assert code == 2
    assert report["error"]["type"] == "TooLarge"
    assert "1000000" in report["error"]["message"]
    if name in CUT_MESSAGES:
        assert report["error"]["message"] == CUT_MESSAGES[name]


def test_greek_letters_are_escaped_in_json(capsys):
    path = str(SCENARIO_DIR / "bs23-discreteness-k1.json")
    _, out = run_cli(["run", path, "--format", "json"], capsys)
    assert "\\u03b5" in out
    assert "ε" not in out


def test_missing_scenario_file_is_exit_2(capsys, tmp_path):
    code, out = run_cli(
        ["run", str(tmp_path / "nope.json"), "--format", "json"], capsys
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "FileNotFoundError"


def test_scenario_without_verb_is_rejected(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"model": "full_aut", "d": 3}}))
    code, out = run_cli(["run", str(bad), "--format", "json"], capsys)
    assert code == 2
    assert "verb" in json.loads(out)["error"]["message"]


def test_unknown_verb_lists_the_known_ones(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"model": {"model": "full_aut", "d": 3}, "verb": "frobnicate"})
    )
    code, out = run_cli(["run", str(bad), "--format", "json"], capsys)
    assert code == 2
    message = json.loads(out)["error"]["message"]
    assert "frobnicate" in message and "ipk" in message


def test_wrong_schema_tag_is_rejected(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"schema": "bogus/v9", "model": {"model": "full_aut", "d": 3},
             "verb": "local-action"}
        )
    )
    code, out = run_cli(["run", str(bad), "--format", "json"], capsys)
    assert code == 2
    assert "schema" in json.loads(out)["error"]["message"]


def _run_scenario(tmp_path, capsys, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, out = run_cli(["run", str(path), "--format", "json"], capsys)
    return code, json.loads(out)


def test_vertex_colors_beyond_the_degree_are_rejected(capsys, tmp_path):
    # the 3-regular tree has colors 0, 1 and 2 only, so "7" is no vertex
    code, report = _run_scenario(
        tmp_path, capsys,
        {"model": {"model": "full_aut", "d": 3}, "verb": "stab-germs",
         "vertex": "7", "k": 1},
    )
    assert code == 2
    assert report["error"]["type"] == "ValidationError"
    assert "'7'" in report["error"]["message"]


def test_edge_path_and_germ_colors_beyond_the_degree_are_rejected(capsys, tmp_path):
    aut3 = {"model": "full_aut", "d": 3}
    cl3 = {"model": "constant_local", "d": 3, "F": "sym"}
    # a germ's pairs are read relative to its center, so only the center
    # can carry a color the tree does not have
    swap = [["7", "7"], ["7.0", "7.1"], ["7.1", "7.0"], ["7.2", "7.2"]]
    for scenario in (
        {"model": aut3, "verb": "ipk", "edge": ["ε", "5"], "k": 1, "R": 2},
        {"model": aut3, "verb": "pk", "path": ["ε", "0", "0.3"], "k": 1, "R": 2},
        {"model": cl3, "verb": "legality", "k": 1,
         "germ": {"src": "7", "dst": "7", "radius": 1, "pairs": swap}},
        {"model": aut3, "verb": "commutator", "amplitude": 1,
         "f": {"0": {"7": "7"}}},
    ):
        code, report = _run_scenario(tmp_path, capsys, scenario)
        assert code == 2
        message = report["error"]["message"]
        assert "3-regular" in message
        assert "edge region identity" not in message


def _window_error(tmp_path, capsys, scenario):
    code, report = _run_scenario(tmp_path, capsys, scenario)
    assert code == 2
    return report["error"]


@pytest.mark.parametrize("model", [_AUT3, _BS23], ids=["full_aut", "bs"])
def test_pk_window_must_hold_the_path_region(model, capsys, tmp_path):
    # the region is the path thickened by k - 1, so R = k - 1 is the least
    # window that holds it
    scenario = {"model": model, "verb": "pk", "path": ["ε", "0"], "k": 3, "R": 1}
    assert _window_error(tmp_path, capsys, scenario) == {
        "type": "ValidationError", "message": "window radius must be at least k - 1"}
    code, _ = _run_scenario(tmp_path, capsys, {**scenario, "R": 2})
    assert code != 2


@pytest.mark.parametrize("model", [_AUT3, _BS23], ids=["full_aut", "bs"])
def test_plusk_radius_must_hold_the_edge_regions(model, capsys, tmp_path):
    # the edge k-regions at v reach distance k from v
    scenario = {"model": model, "verb": "plusk-generators", "k": 2, "radius": 1}
    assert _window_error(tmp_path, capsys, scenario) == {
        "type": "ValidationError", "message": "radius must be at least k"}
    code, _ = _run_scenario(tmp_path, capsys, {**scenario, "k": 1})
    assert code != 2


def test_plusk_samples_need_the_twisted_construction(capsys, tmp_path):
    scenario = {"model": {"model": "constant_local", "d": 3, "F": "sym"},
                "verb": "plusk-generators", "k": 2, "radius": 3, "samples": 1}
    assert _window_error(tmp_path, capsys, scenario) == {
        "type": "ValidationError",
        "message": "the constant_local model draws no twisted samples"}
    code, _ = _run_scenario(tmp_path, capsys, {**scenario, "samples": 0})
    assert code == 0


_CL3 = {"model": "constant_local", "d": 3, "F": "sym"}
MALFORMED = {
    "bs-without-n": {"model": {"model": "bs", "m": 2}, "verb": "local-action"},
    "full-aut-d-not-int": {"model": {"model": "full_aut", "d": "x"},
                           "verb": "local-action"},
    "cover-r-not-int": {"model": {"model": "cover", "p": 2, "r": "five"},
                        "verb": "local-action"},
    "plusk-radius-not-int": {"model": _CL3, "verb": "plusk-generators",
                             "k": 1, "radius": "x"},
    "compare-probe-not-int": {"model": _CL3, "verb": "kclosure-compare",
                              "other": _CL3, "k": 1, "probe_radius": "x"},
    "compare-kmax-not-int": {"model": _CL3, "verb": "kclosure-compare",
                             "other": _CL3, "k": 1,
                             "first_difference_kmax": "x"},
    "commutator-f-key-not-int": {"model": {"model": "full_aut", "d": 3},
                                 "verb": "commutator", "amplitude": 1,
                                 "f": {"x": {}}},
    "legality-germ-without-pairs": {"model": _CL3, "verb": "legality", "k": 1,
                                    "germ": {"src": "ε", "dst": "ε",
                                             "radius": 1}},
    "lattice-ragged-matrix": {"model": {"model": "psl2", "p": 2},
                              "verb": "lattice", "r": 1,
                              "matrix": [[1], [0, 1]]},
    "cover-without-r": {"model": {"model": "cover", "p": 2},
                        "verb": "local-action"},
    "legality-germ-pairs-not-pairs": {"model": _CL3, "verb": "legality",
                                      "k": 1,
                                      "germ": {"src": "ε", "dst": "ε",
                                               "radius": 1, "pairs": [["ε"]]}},
    "lattice-entry-not-a-number": {"model": {"model": "psl2", "p": 2},
                                   "verb": "lattice", "r": 1,
                                   "matrix": [["x", 0], [0, 1]]},
    # a bool is an int to Python: these would run as the identity
    "lattice-entry-bool": {"model": {"model": "psl2", "p": 2}, "verb": "lattice",
                           "r": 1, "matrix": [[True, 0], [0, True]]},
    "lattice-unit-bool": {"model": {"model": "psl2", "p": 2}, "verb": "lattice",
                          "r": 1, "matrix": [[[True, "p^0"], 0], [0, 1]]},
    "constant-local-F-int": {"model": {"model": "constant_local", "d": 3, "F": 5},
                             "verb": "local-action"},
    "constant-local-F-list-of-int": {"model": {"model": "constant_local", "d": 3,
                                               "F": [5]},
                                     "verb": "local-action"},
    "constant-local-F-entry-not-int": {"model": {"model": "constant_local", "d": 3,
                                                 "F": [[0, 1, "a"]]},
                                       "verb": "local-action"},
    "constant-local-F-null": {"model": {"model": "constant_local", "d": 3, "F": None},
                              "verb": "local-action"},
    # JSON true and false are no points of 0..2
    "constant-local-F-bool-entries": {"model": {"model": "constant_local", "d": 3,
                                                "F": [[True, False, 2]]},
                                      "verb": "local-action"},
    "k-float": {"model": {"model": "full_aut", "d": 3}, "verb": "stab-germs",
                "k": 1.9},
    "k-bool": {"model": _CL3, "verb": "stab-germs", "k": True},
    # ε is counted twice: a fiber product over a path that does not exist
    "pk-path-turns-back": {"model": {"model": "full_aut", "d": 3}, "verb": "pk",
                           "path": ["ε", "0", "ε"], "k": 1, "R": 1},
    # checked before the path region is thickened at radius k - 1
    "pk-k-zero": {"model": {"model": "full_aut", "d": 3}, "verb": "pk",
                  "path": ["ε", "0"], "k": 0, "R": 1},
    # a JSON number is no vertex: str() would read 10.20 as the vertex 10.2
    "vertex-float": {"model": {"model": "full_aut", "d": 30}, "verb": "stab-germs",
                     "vertex": 10.20, "k": 1},
    "edge-entry-float": {"model": _CL3, "verb": "ipk", "edge": ["ε", 0.0],
                         "k": 1, "R": 1},
    "cover-graph-unknown": {"model": {"model": "cover", "graph": "Q", "p": 2, "r": 5},
                            "verb": "local-action"},
    # the strip is spelled "graph": "strip" only
    "cover-r-inf": {"model": {"model": "cover", "p": 2, "r": "inf"},
                    "verb": "local-action"},
    # checked before the random fibers of the window are drawn
    "commutator-amplitude-past-z-hi": {"model": {"model": "full_aut", "d": 3},
                                       "verb": "commutator", "amplitude": 30000},
    "scenario-not-an-object": ["stab-germs"],
    "legality-without-germ": {"model": _CL3, "verb": "legality", "k": 1},
    "legality-germ-not-an-object": {"model": _CL3, "verb": "legality", "k": 1,
                                    "germ": 5},
    "compare-without-other": {"model": _CL3, "verb": "kclosure-compare", "k": 1},
    # k = 0 would compare nothing and hold; k < -2 a negative probe radius
    "compare-k-zero": {"model": _AUT3, "verb": "kclosure-compare", "other": _CL3,
                       "k": 0},
    "compare-k-negative": {"model": _AUT3, "verb": "kclosure-compare", "other": _CL3,
                           "k": -3},
    "commutator-f-not-an-object": {"model": _AUT3, "verb": "commutator",
                                   "amplitude": 1, "f": []},
    "commutator-amplitude-zero": {"model": _AUT3, "verb": "commutator",
                                  "amplitude": 0},
    "normal-form-unknown-generator": {"model": _BS23, "verb": "normal-form",
                                      "word": "b"},
    "normal-form-bad-exponent": {"model": _BS23, "verb": "normal-form",
                                 "word": "a^x"},
    "psl2-p-not-prime": {"model": {"model": "psl2", "p": 4}, "verb": "local-action"},
    "cover-r-two": {"model": {"model": "cover", "p": 2, "r": 2},
                    "verb": "local-action"},
    "cover-p-one": {"model": {"model": "cover", "p": 1, "r": 5},
                    "verb": "local-action"},
    "bs-m-zero": {"model": {"model": "bs", "m": 0, "n": 3}, "verb": "local-action"},
    "vertex-not-reduced": {"model": _AUT3, "verb": "stab-germs", "vertex": "0.0",
                           "k": 1},
    "vertex-negative-color": {"model": _AUT3, "verb": "stab-germs", "vertex": "-1",
                              "k": 1},
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_scenario_values_exit_2(name, capsys, tmp_path):
    code, report = _run_scenario(tmp_path, capsys, MALFORMED[name])
    assert code == 2
    assert report["exit_code"] == 2
    assert report["error"]["type"] == "ValidationError"
    assert report["error"]["message"]


@pytest.mark.parametrize("name, message", [
    ("k-float", "'k' must be an integer"),
    ("k-bool", "'k' must be an integer"),
    ("commutator-amplitude-past-z-hi", "need z_lo <= 0 < amplitude <= z_hi"),
    ("pk-path-turns-back", "the path turns back: it must be a geodesic"),
    ("pk-k-zero", "need k >= 1"),
    ("vertex-float", "cannot parse vertex address 10.2"),
    ("edge-entry-float", "cannot parse vertex address 0.0"),
    ("cover-graph-unknown", 'unknown cover graph \'Q\': use "C" or "strip"'),
    ("cover-r-inf", "'r' must be an integer"),
    ("scenario-not-an-object", "scenario must be a JSON object"),
    ("legality-without-germ", "scenario is missing 'germ'"),
    ("legality-germ-not-an-object", "a germ must be an object"),
    ("compare-without-other", "scenario is missing 'other' model descriptor"),
    ("compare-k-zero", "need k >= 1"),
    ("compare-k-negative", "need k >= 1"),
    ("lattice-entry-bool", "bad matrix entry True"),
    ("lattice-unit-bool", "bad matrix entry [True, 'p^0']"),
    ("commutator-f-not-an-object", "scenario needs 'f': {fiber: {vertex: vertex}}"),
    ("commutator-amplitude-zero", "amplitude must be positive"),
    ("normal-form-unknown-generator", "unknown generator 'b'"),
    ("normal-form-bad-exponent", "bad exponent in token 'a^x'"),
    ("psl2-p-not-prime", "p must be a prime, got 4"),
    ("cover-r-two", "need p >= 1 fibers and r >= 3 levels"),
    ("cover-p-one", "cover degree below 3; need p >= 2"),
    ("bs-m-zero", "need integer m, n >= 1, got 0, 3"),
    ("vertex-not-reduced", "address not reduced: (0, 0)"),
    ("vertex-negative-color", "bad edge color -1"),
    ("constant-local-F-bool-entries", "not a permutation of 0..2: [True, False, 2]"),
])
def test_malformed_value_messages(name, message, capsys, tmp_path):
    _, report = _run_scenario(tmp_path, capsys, MALFORMED[name])
    assert report["error"]["message"] == message


def test_degree_two_is_not_a_regular_tree(capsys, tmp_path):
    code, report = _run_scenario(
        tmp_path, capsys, {"model": {"model": "full_aut", "d": 2}, "verb": "local-action"})
    assert code == 2
    assert report["error"] == {"type": "NotRegular",
                               "message": "tree degree must be an integer >= 3, got 2"}


def test_text_format_renders_an_error_report(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(MALFORMED["k-bool"]))
    code, out = run_cli(["run", str(path)], capsys)
    assert code == 2
    assert out == (
        "treeclose report\n"
        'error      {"message": "\'k\' must be an integer", "type": "ValidationError"}\n'
        "exit_code  2\n"
        'schema     "treeclose.report/v1"\n'
    )


def _unreachable(*args, **kwargs):
    # Failed is no Exception, so the CLI cannot report it as an error
    pytest.fail("the computation ran before every scenario value was read")


def test_compare_reads_first_difference_kmax_before_comparing(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "kclosure_equal", _unreachable)
    code, report = _run_scenario(tmp_path, capsys, MALFORMED["compare-kmax-not-int"])
    assert code == 2
    assert report["error"]["message"] == "'first_difference_kmax' must be an integer"


def test_lattice_reads_r_before_building_the_matrix(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(PSL2Model, "element", _unreachable)
    code, report = _run_scenario(
        tmp_path, capsys,
        {"model": {"model": "psl2", "p": 2}, "verb": "lattice", "r": "x",
         "matrix": [[1, 0], [0, 1]]},
    )
    assert code == 2
    assert report["error"]["message"] == "'r' must be an integer"


# each family's stab-germs listing, at a radius with a few dozen germs
STAB_LISTINGS = {
    "constant_local": _CL3,
    "full_aut": _AUT3,
    "bs": _BS23,
    "psl2": {"model": "psl2", "p": 2},
    "cover": _C25,
    "strip": {"model": "cover", "graph": "strip", "p": 2},
}


@pytest.mark.parametrize("family", sorted(STAB_LISTINGS))
def test_stab_germs_listing_is_sorted(family, capsys, tmp_path):
    # stabilizer germ groups are sets; the listing sorts them
    code, report = _run_scenario(
        tmp_path, capsys,
        {"model": STAB_LISTINGS[family], "verb": "stab-germs", "vertex": "1", "k": 2},
    )
    assert code == 0
    keys = [germ_from_json(g).sort_key() for g in report["result"]["germs"]]
    assert len(keys) == report["result"]["count"] > 1
    assert keys == sorted(set(keys))


def test_stab_germ_listing_holds_no_more_vertex_pairs_than_the_limit(capsys, tmp_path, monkeypatch):
    # full Aut d=3 has 48 germs on the 10 positions of B(ε, 2): a limit of
    # 100 lists the first 10 and keeps the count exact
    scenario = {"model": _AUT3, "verb": "stab-germs", "k": 2}
    code, full = _run_scenario(tmp_path, capsys, scenario)
    assert code == 0 and len(full["result"]["germs"]) == 48
    monkeypatch.setenv("TREECLOSE_MAX_ELEMENTS", "100")
    code, report = _run_scenario(tmp_path, capsys, scenario)
    assert code == 0
    result = report["result"]
    assert (result["count"], result["germs_truncated_to"]) == (48, 10)
    assert result["germs"] == full["result"]["germs"][:10]


@pytest.mark.parametrize("field", ["model", "other"])
def test_descriptor_fields_the_model_does_not_read_are_refused(field, capsys, tmp_path):
    # the strip has p fibers and no cycle length r
    scenario = {"model": _STRIP2, "verb": "kclosure-compare", "other": _STRIP2, "k": 1}
    scenario[field] = {**_STRIP2, "r": 5}
    code, report = _run_scenario(tmp_path, capsys, scenario)
    assert code == 2
    assert report["error"] == {
        "type": "ValidationError",
        "message": "the strip cover model does not read descriptor field 'r'",
    }


def test_large_prime_passes_the_primality_pre_flight(capsys, tmp_path):
    # sqrt(10**9 + 7) is about 31,623 trial divisions, under the limit
    code, report = _run_scenario(
        tmp_path, capsys,
        {"model": {"model": "psl2", "p": 10**9 + 7}, "verb": "lattice", "r": 0,
         "matrix": [[1, 0], [0, 1]]},
    )
    assert code == 0
    assert report["model"]["degree"] == 10**9 + 8


# matrix entries with more digits than str() may print, or than a run can
# afford to expand: (matrix, error type, message)
HUGE_LATTICE_ENTRIES = {
    "valuation-minus-200000": ([[1, [1, "p^-200000"]], [0, 1]], "NotIntegral",
                               "entry (1, 2) has negative valuation -200000"),
    "exponent-past-the-limit": ([[1, [1, "p^100000000"]], [0, 1]], "TooLarge",
                                "the exponent of entry (1, 2) passes the limit 1000000"),
    "decimal-exponent": ([[1, "1e-100000000"], [0, 1]], "ValidationError",
                         "bad matrix entry '1e-100000000'"),
    # at p = 2 an entry may hold a quarter of the limit in bits; these two
    # took 7.3 s and 3.6 s of Fraction arithmetic
    "bits-past-the-bound-diagonal": ([[[1, "p^999999"], 0], [0, [1, "p^-999999"]]],
                                     "TooLarge", "entry (1, 1) has more than 250000 bits"),
    "bits-past-the-bound-unipotent": ([[1, [1, "p^999999"]], [0, 1]], "TooLarge",
                                      "entry (1, 2) has more than 250000 bits"),
}


def _run_scenario_within_10_s(tmp_path, capsys, scenario, name):
    def stop(signum, frame):
        # Failed is no Exception, so the CLI cannot report it as an error
        pytest.fail(f"{name} did not end within 10 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(10)
    try:
        return _run_scenario(tmp_path, capsys, scenario)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name", sorted(HUGE_LATTICE_ENTRIES))
def test_huge_lattice_entries_exit_2_at_once(name, capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("TREECLOSE_MAX_ELEMENTS", raising=False)
    matrix, kind, message = HUGE_LATTICE_ENTRIES[name]
    code, report = _run_scenario_within_10_s(
        tmp_path, capsys,
        {"model": {"model": "psl2", "p": 2}, "verb": "lattice", "r": 1,
         "matrix": matrix},
        name,
    )
    assert code == 2
    assert report["error"] == {"type": kind, "message": message}


@pytest.mark.parametrize("radius", [10**10, 10**18])
def test_huge_germ_radius_exits_2_at_once(radius, capsys, tmp_path, monkeypatch):
    # four pairs make no ball of radius 3 or more, so the germ is rejected
    # before a ball of this radius is sized
    monkeypatch.delenv("TREECLOSE_MAX_ELEMENTS", raising=False)
    pairs = [["ε", "ε"], ["0", "1"], ["1", "0"], ["2", "2"]]
    code, report = _run_scenario_within_10_s(
        tmp_path, capsys,
        {"model": {"model": "constant_local", "d": 3, "F": "sym"}, "verb": "legality",
         "k": 1, "germ": {"src": "ε", "dst": "ε", "radius": radius, "pairs": pairs}},
        f"radius {radius}",
    )
    assert code == 2
    assert report["error"] == {"type": "ValidationError",
                               "message": "domain is not the source ball"}


@pytest.mark.parametrize("amplitude", [10**9, 10**18])
def test_huge_commutator_amplitude_exits_2_at_once(amplitude, capsys, tmp_path, monkeypatch):
    # the translation's window ball is sized before its word of `amplitude`
    # letters is built; at 10**18 that word ended in a MemoryError
    monkeypatch.delenv("TREECLOSE_MAX_ELEMENTS", raising=False)
    code, report = _run_scenario_within_10_s(
        tmp_path, capsys,
        {"model": {"model": "full_aut", "d": 3}, "verb": "commutator",
         "amplitude": amplitude, "z_hi": amplitude},
        f"amplitude {amplitude}",
    )
    assert code == 2
    # window = max(|z_lo|, z_hi) + amplitude + 1 + R, with R = 2
    assert report["error"] == {
        "type": "TooLarge",
        "message": f"ball of radius {2 * amplitude + 3} has more than 1000000 vertices",
    }


def test_integers_past_the_digit_limit_are_invalid_json(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text('{"model": {"model": "full_aut", "d": 3}, "verb": "stab-germs", '
                    '"k": ' + "1" * 5000 + "}")
    code, out = run_cli(["run", str(path), "--format", "json"], capsys)
    assert code == 2
    report = json.loads(out)
    assert report["error"]["type"] == "ValidationError"
    assert report["error"]["message"].startswith("scenario is not valid JSON")


def test_twisted_plusk_generators_at_k2_are_legal(capsys, tmp_path):
    # twists at k >= 2 step by the lcm of the cycle lengths the k-balls
    # across the twisted subtree see, so the closure stays 2-legal
    code, report = _run_scenario(
        tmp_path, capsys,
        {"model": {"model": "bs", "m": 2, "n": 3}, "verb": "plusk-generators",
         "vertex": "1.2", "k": 2, "radius": 2, "samples": 1, "seed": 7},
    )
    assert code == 0
    assert report["result"]["closure_all_k_legal"] is True


def test_module_entry_point_subprocess():
    path = str(SCENARIO_DIR / "bs23-normal-form.json")
    proc = subprocess.run(
        [sys.executable, "-m", "treeclose.cli", "run", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("treeclose report")


def _modules_after(statement):
    proc = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport sys\nprint(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(ROOT_DIR / "src")},
        capture_output=True, text=True, check=True,
    )
    return set(proc.stdout.split())


def test_cli_import_leaves_out_dataclasses_and_the_source_tools():
    # every scenario process pays this import; the difference against a bare
    # interpreter leaves out what .pth files import at start-up
    added = _modules_after("import treeclose.cli") - _modules_after("pass")
    assert "treeclose.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_console_script_installed():
    exe = shutil.which("treeclose")
    assert exe is not None
    path = str(SCENARIO_DIR / "cl-legality-k2-fails.json")
    proc = subprocess.run([exe, "run", path], capture_output=True, text=True)
    assert proc.returncode == 10
