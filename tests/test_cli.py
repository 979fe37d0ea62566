import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from torscat import algebra, cli, torsion
from torscat.algebra import path_algebra_An
from torscat.cli import main, parse_algebra_spec
from torscat.lattice import FinLattice
from torscat.poset import interval_poset


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalan_dyck_count(capsys):
    code, out, _ = run(capsys, "catalan", "dyck", "4")
    assert code == 0 and "size 14" in out


def test_catalan_tamari_trivial(capsys):
    code, out, _ = run(capsys, "catalan", "tamari", "1")
    assert code == 0 and "size 1" in out


def test_catalan_typeA_with_iso(capsys):
    for n, size in (("3", "size 14"), ("7", "size 1430")):
        code, out, _ = run(capsys, "catalan", "typeA", n)
        assert code == 0 and size in out
        assert "isomorphic to tamari next: yes" in out


def test_catalan_tamari_congruence_uniform_beyond_5(capsys):
    code, out, _ = run(capsys, "catalan", "tamari", "6")
    assert code == 0 and "size 132" in out
    assert "congruence uniform: yes" in out


def test_field_7_example_at_dim_bound_3(capsys):
    # knitting needs no base-change group: GL_2(F_7)^2 has 4,064,256 elements,
    # past the cap that stopped the orbit search
    code, out, err = run(capsys, "--field", "7", "--dim-bound", "3", "tors", "example")
    assert (code, err) == (0, "")
    assert out.startswith("algebra example: 5 indecomposables, 6 torsion pairs\n")


def test_catalan_out_of_bounds(capsys):
    code, _, err = run(capsys, "catalan", "typeA", "9")
    assert code == 2 and "usage error" in err
    code, _, err = run(capsys, "catalan", "typeA", "8")
    assert code == 2 and "typeA supports 1 <= n <= 7, got 8" in err


def test_omega_counts(capsys):
    for spec, size in (("int:1", "size 2"), ("int:3", "size 14"), ("int:4", "size 42")):
        code, out, _ = run(capsys, "omega", spec)
        assert code == 0 and size in out


def test_omega_opposite_same_count(capsys):
    code, out, _ = run(capsys, "--op", "omega", "int:3")
    assert code == 0 and "size 14" in out


def test_omega_n2_predicate(capsys):
    code, out, _ = run(capsys, "omega", "int:2", "--n-pred", "2")
    # hereditary algebra: every torsion pair satisfies the omega_2 condition
    assert code == 0 and "size 14" in out


def test_omega_bad_spec(capsys):
    code, _, err = run(capsys, "omega", "nosuchfile.json")
    assert code == 2


def test_verify_example(capsys):
    code, out, _ = run(capsys, "verify", "example")
    assert code == 0 and "PASS" in out
    assert "torsion pairs: 6" in out


def test_verify_thm1(capsys):
    code, out, _ = run(capsys, "verify", "thm1", "--n", "2")
    assert code == 0 and "PASS" in out


def test_verify_thm1_engine_route_at_n4(capsys):
    code, out, _ = run(capsys, "verify", "thm1", "--n", "4")
    assert code == 0 and "engine route: 14 omega pairs out of 808 torsion pairs" in out


def test_verify_thm2(capsys):
    code, out, _ = run(capsys, "verify", "thm2", "--n", "3")
    assert code == 0 and "PASS" in out


@pytest.mark.parametrize("target", ["thm1", "thm2"])
@pytest.mark.parametrize("n", ["0", "1"])
def test_verify_theorem_below_n2_is_a_usage_error(capsys, target, n):
    # --n 0 is a value, not a missing option that defaults to 3
    code, out, err = run(capsys, "verify", target, "--n", n)
    assert (code, out) == (2, "")
    assert err == "usage error: cannot parse input (need n >= 2)\n"


def test_verify_thm2_past_the_lattice_cap_stops_before_the_order(capsys):
    # Tamari_11 has 58,786 trees; the cap is checked before the transitive closure
    t0 = time.monotonic()
    code, out, err = run(capsys, "verify", "thm2", "--n", "11")
    assert (code, out) == (3, "")
    assert err == "limit exceeded: lattice of 58786 elements exceeds the cap of 8192 elements\n"
    assert time.monotonic() - t0 < 30


def test_verify_prop_main(capsys):
    code, out, _ = run(capsys, "verify", "prop-main")
    assert code == 0 and "PASS" in out


def test_verify_lemma_omega(capsys):
    code, out, _ = run(capsys, "verify", "lemma-omega")
    assert code == 0 and "PASS" in out


def test_tors_example(capsys):
    code, out, _ = run(capsys, "tors", "example")
    assert code == 0
    assert "6 torsion pairs" in out
    assert "omega: 2" in out


def test_tors_int2(capsys):
    code, out, _ = run(capsys, "tors", "int:2")
    assert code == 0 and "14 torsion pairs" in out


def test_tors_type_a_spec(capsys):
    code, out, _ = run(capsys, "tors", "An:3")
    assert code == 0 and "14 torsion pairs" in out


def test_omega_chain_spec(capsys):
    code, out, _ = run(capsys, "omega", "chain:3")
    # linear order: successor-closed subsets form a chain of length n+1
    assert code == 0 and "size 4" in out


def test_tors_budget_exit_code(capsys):
    code, _, err = run(capsys, "--cap", "3", "tors", "int:2")
    assert code == 3 and "budget" in err


def test_cap_messages_are_pinned(capsys):
    code, out, err = run(capsys, "--cap", "10", "tors", "An:4")
    assert (code, out, err) == (3, "", "budget exceeded: budget exceeded after 11 classes (class cap)\n")
    code, out, err = run(capsys, "--budget", "0", "tors", "An:4")
    assert code == 3 and out == "" and err.endswith(" classes (time budget)\n")


X3 = {"vertices": ["1"], "arrows": [{"name": "x", "src": 0, "tgt": 0}], "relations": [[[1, ["x", "x", "x"]]]]}


def test_submodule_cap_exit_code(tmp_path, capsys, monkeypatch):
    # F_2[x]/(x^3): the one cover of its torsion lattice, 0 < mod A, is
    # labelled by all three indecomposables, more than its brick, the simple,
    # so the filtration test reads the submodule lists of F_2[x]/(x^2) and
    # F_2[x]/(x^3), with 3 and 4 members.  No
    # algebra knitted in test time has a module near the default cap of
    # 200,000 submodules, so the cap is lowered to 3
    spec = tmp_path / "x3.json"
    spec.write_text(json.dumps(X3))
    monkeypatch.setattr(algebra.Module.all_submodules, "__defaults__", (3,))
    code, out, err = run(capsys, "--dim-bound", "3", "tors", str(spec))
    assert (code, out, err) == (3, "", "limit exceeded: submodule lattice exceeds the cap of 3 submodules\n")


def test_endomorphism_search_bound_exit_code(tmp_path, capsys, monkeypatch):
    # S1 + S1 over the example: End is M_2(F_2), not local.  When no basis
    # element or pairwise sum gives a Fitting split, the last-resort search
    # over End(M) stops past _SPLIT_SEARCH_DIM.  No module is known that the
    # basis search fails on (ROADMAP item 8), so the splits are withheld and
    # the bound is lowered to 3
    A = algebra.two_cycle_algebra()
    f = tmp_path / "module.json"
    f.write_text(json.dumps(A.simple(0).direct_sum(A.simple(0)).to_json()))
    monkeypatch.setattr(algebra, "_try_split", lambda M, mats: None)
    monkeypatch.setattr(algebra, "_SPLIT_SEARCH_DIM", 3)
    code, out, err = run(capsys, "module", "example", str(f))
    assert (code, out) == (3, "")
    assert err == "limit exceeded: endomorphism ring has 2^4 elements, beyond the search bound 2^3\n"


def test_lattice_size_cap_exit_code(capsys):
    # int:9 has 16,796 order ideals, past the cap on the pairwise intersection check
    code, out, err = run(capsys, "omega", "int:9")
    assert (code, out) == (3, "")
    assert err == "limit exceeded: lattice of 16796 elements exceeds the cap of 8192 elements\n"


def test_incomplete_indecomposable_list_names_the_cause(capsys):
    # int:3 has indecomposables of dimension 2 at a vertex; bound 1 would list 28 of 35
    code, out, err = run(capsys, "--dim-bound", "1", "tors", "int:3")
    assert (code, out) == (3, "")
    assert err == (
        "limit exceeded: an indecomposable with dimension vector [1, 2, 2, 1, 2, 1]"
        " exceeds the dimension bound 1\n"
    )


def test_flags_accepted_after_subcommand(capsys):
    code, out, _ = run(capsys, "tors", "example", "--json")
    assert code == 0 and json.loads(out)["classes"] == 6
    code, _, err = run(capsys, "tors", "int:2", "--cap", "3")
    assert code == 3
    code, out, _ = run(capsys, "omega", "int:3", "--op")
    assert code == 0 and "size 14" in out
    # flag before the subcommand still wins when only given there
    code, out, _ = run(capsys, "--field", "3", "verify", "example")
    assert code == 0 and "PASS" in out


def test_json_lattice_roundtrip(capsys):
    code, out, _ = run(capsys, "--json", "catalan", "dyck", "3")
    assert code == 0
    payload = json.loads(out)
    L = FinLattice.from_json(payload["lattice"])
    assert L.n == 5


def test_json_tors_roundtrip(capsys):
    code, out, _ = run(capsys, "--json", "tors", "example")
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"] == 6
    rep = payload["report"]
    L = FinLattice.from_json({"size": rep["size"], "leq": rep["leq"]})
    assert L.n == 6
    assert len(rep["hasse"]) == 6


def test_dot_output(tmp_path, capsys):
    target = tmp_path / "lattice.dot"
    code, out, _ = run(capsys, "--dot", str(target), "tors", "example")
    assert code == 0
    text = target.read_text()
    assert text.startswith("digraph") and text.count("->") == 6


def test_dot_tors_evaluates_each_predicate_once(tmp_path, capsys, monkeypatch):
    # the DOT file is drawn from the report the command printed: omega_1 and omega_2 once per class
    calls = []
    is_omega_n = torsion.is_omega_n
    monkeypatch.setattr(torsion, "is_omega_n", lambda *args: calls.append(args) or is_omega_n(*args))
    code, out, err = run(capsys, "--dot", str(tmp_path / "int2.dot"), "tors", "int:2")
    assert (code, err) == (0, "") and "14 torsion pairs" in out
    assert len(calls) == 2 * 14


def test_poset_json_file_input(tmp_path, capsys):
    P = interval_poset(2)
    f = tmp_path / "poset.json"
    f.write_text(json.dumps(P.to_json()))
    code, out, _ = run(capsys, "omega", str(f))
    assert code == 0 and "size 5" in out


@pytest.mark.parametrize(
    "data", [{"elements": ["a", "b"], "leq": [[-1, 0]]}, {"elements": ["a", "b"], "leq": [[5, 0]]},
             {"elements": ["a", "b"], "leq": [[0, 7]]}, {"elements": ["a", "b"], "leq": [["0", "1"]]},
             {"elements": ["a", "b"], "leq": [[0.0, 1]]}, {"elements": ["a", "b"], "leq": [[True, 1]]},
             {"elements": ["a", "b"], "leq": [0]}, [["a", "b"], [[0, 1]]]],
)
def test_poset_json_refuses_what_is_not_an_order_pair(tmp_path, capsys, data):
    f = tmp_path / "poset.json"
    f.write_text(json.dumps(data))
    code, out, err = run(capsys, "omega", str(f))
    assert (code, out) == (2, "") and err.startswith("usage error: cannot parse input")
    if isinstance(data, dict):
        assert repr(data["leq"][0]) in err


def test_algebra_json_file_input(tmp_path, capsys):
    from torscat.algebra import two_cycle_algebra

    f = tmp_path / "algebra.json"
    f.write_text(json.dumps(two_cycle_algebra().to_json()))
    code, out, _ = run(capsys, "tors", str(f))
    assert code == 0 and "6 torsion pairs" in out


def test_module_json_file_input(tmp_path, capsys):
    from torscat.algebra import two_cycle_algebra

    A = two_cycle_algebra()
    M = A.projective(1).direct_sum(A.simple(0))
    f = tmp_path / "module.json"
    f.write_text(json.dumps(M.to_json()))
    code, out, _ = run(capsys, "module", "example", str(f))
    assert code == 0
    assert "P2" in out and "S1" in out


def test_module_rejects_invalid(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"dims": [1, 1], "arrows": {"a": [[1]], "b": [[1]]}}))
    code, _, err = run(capsys, "module", "example", str(f))
    assert code == 2


@pytest.mark.parametrize(
    "data, field",
    [({"dims": [1, 1], "arrows": {"zz": [[1]]}}, "zz"), ({"dims": [1, 1], "arrows": {"a": [[0.5]]}}, "a"),
     ({"dims": [1], "arrows": {}}, "dims"), ({"dims": ["1", 1], "arrows": {}}, "dims")],
)
def test_module_json_names_the_bad_field(tmp_path, capsys, data, field):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    code, out, err = run(capsys, "module", "example", str(f))
    assert (code, out) == (2, "") and field in err


def test_algebra_json_refuses_a_fractional_endpoint(tmp_path, capsys):
    from torscat.algebra import two_cycle_algebra

    data = two_cycle_algebra().to_json()
    data["arrows"][0]["src"] = 0.7
    f = tmp_path / "algebra.json"
    f.write_text(json.dumps(data))
    code, out, err = run(capsys, "tors", str(f))
    assert (code, out) == (2, "") and "src" in err


@pytest.mark.parametrize("coeff", [1.5, 0.5])
def test_algebra_json_refuses_a_fractional_relation_coefficient(tmp_path, capsys, coeff):
    # int() read 1.5 as 1 (exit 0, 6 torsion pairs) and 0.5 as 0 (a misleading exit 2)
    from torscat.algebra import two_cycle_algebra

    data = two_cycle_algebra().to_json()
    data["relations"] = [[[coeff, ["a", "b"]]]]
    f = tmp_path / "algebra.json"
    f.write_text(json.dumps(data))
    code, out, err = run(capsys, "tors", str(f))
    assert (code, out) == (2, "")
    assert err == f"usage error: cannot parse input (relations: coefficient {coeff} is not an integer)\n"


def test_field_three(capsys):
    code, out, _ = run(capsys, "--field", "3", "tors", "example")
    assert code == 0 and "6 torsion pairs" in out


def test_nonprime_field_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--field", "4", "catalan", "dyck", "3"])
    assert exc.value.code == 2


def test_field_above_uint8_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--field", "257", "verify", "example"])
    assert exc.value.code == 2
    assert "at most 255" in capsys.readouterr().err


def test_field_251_verify_example_answers(capsys):
    # indecomposables are named and matched without a search over Hom spaces of 251^h elements
    code, out, err = run(capsys, "--field", "251", "verify", "example")
    assert (code, err) == (0, "")
    assert "indecomposables: 5\n" in out and "torsion pairs: 6\n" in out
    code, out, err = run(capsys, "--field", "127", "tors", "example")
    assert (code, err) == (0, "")
    assert out.startswith("algebra example: 5 indecomposables, 6 torsion pairs\n")


def test_field_5_example_needs_no_orbit_table(capsys):
    # dimension vector (2, 2) over F_5 needed a 480 x 625 x 480 orbit table
    code, out, err = run(capsys, "--field", "5", "tors", "example")
    assert (code, err) == (0, "")
    assert out.startswith("algebra example: 5 indecomposables, 6 torsion pairs\n")


def test_field_three_int3_completes(capsys):
    # the orbit search stopped here at its base-change group cap
    code, out, err = run(capsys, "--field", "3", "tors", "int:3")
    assert (code, err) == (0, "")
    assert out.startswith("algebra int:3: 35 indecomposables, 808 torsion pairs\n")


def test_field_251_int3_completes(capsys):
    # no submodule list on the main path: all_submodules spanned 251^d - 1 cyclics per vertex
    code, out, err = run(capsys, "--field", "251", "tors", "int:3")
    assert (code, err) == (0, "")
    assert out.startswith("algebra int:3: 35 indecomposables, 808 torsion pairs\n")


@pytest.mark.parametrize("kind", ["example", "An:3", "json"])
def test_op_reverses_algebra_arrows(tmp_path, kind):
    spec = kind
    if kind == "json":
        f = tmp_path / "algebra.json"
        f.write_text(json.dumps(path_algebra_An(3).to_json()))
        spec = str(f)
    A = parse_algebra_spec(spec)
    op = parse_algebra_spec(spec, opposite=True)
    assert [(a.name, a.tgt, a.src) for a in op.arrows] == [(a.name, a.src, a.tgt) for a in A.arrows]
    assert any(a.src != a.tgt for a in A.arrows)


def test_output_is_deterministic(capsys):
    # canonical orderings everywhere: repeated runs emit identical bytes
    _, out1, _ = run(capsys, "--json", "tors", "int:2")
    _, out2, _ = run(capsys, "--json", "tors", "int:2")
    assert out1 == out2
    _, out3, _ = run(capsys, "--json", "verify", "thm1", "--n", "4")
    _, out4, _ = run(capsys, "--json", "verify", "thm1", "--n", "4")
    assert out3 == out4


# sha256 of standard output at 988827b, before the Hom, Ext, cover and
# envelope tables were read off the Auslander-Reiten quiver
PINNED_OUTPUTS = {
    ("--json", "tors", "int:2"): "8239cfe9ec0ff32e4ba2174e23825e4d9f23c68281b18d306727b9490e9cfed4",
    ("tors", "example"): "615805bc43c82d5eb81f8f2055c63ddc278665450fa914d2ed44b163fcd84875",
    ("--field", "3", "tors", "int:2"): "4b15ed67f7f1b0230fd8690bae016dc77816133f127d7423a67209e870d22a4c",
    ("--field", "3", "verify", "prop-main"): "57d43ec9aec28f11c2d402e5484c0218c8b01c206da995d1e6a5803442b775a3",
    # the lattice layer, at 3a68167, before FinLattice became a Poset
    ("--json", "catalan", "dyck", "6"): "ea7c0597a870cce88e0467b5b99dc44e473a04eb502cfb975794deefad500433",
    ("--json", "catalan", "tamari", "6"): "591617d19cd196ed7d7adf4de257c14099e73510870585b1dd5eb24fe5261dcc",
    ("--json", "catalan", "typeA", "5"): "8ad858887e579e20ca383f437ace7ed974d0ba3efcff269e8b9f1140b88ef1d3",
    ("--json", "omega", "int:5"): "6305d8cd9bc6380a91d6c6b7955b87ccaea691815a3597e919f042c848951bfa",
    ("--json", "verify", "thm2", "--n", "6"): "71b2bd33b41eac08e577ed2f76c769fa53d828ac2ca201c2fd34bc83d673fdc2",
    ("--json", "verify", "thm1", "--n", "4"): "1fb4aee1fb8be6e9ed53378ecbb2781aef6cbb3cc4c427550c969eb4bee06d28",
}

# sha256 of the --dot file at 3a68167
PINNED_DOT = {
    ("catalan", "dyck", "4"): "49ccb92673e54c989f7cd45eb8e5149475ac1586a536b6fada78ce5338667270",
    ("catalan", "tamari", "4"): "d0d77846b07b5bb72f798b6950966b87c8c587691609594bb385ee54eaccba3f",
    ("catalan", "typeA", "4"): "9ab00401e3c99cd0968a211b80799563090148b158ef5bd593159e95f8868144",
    ("tors", "int:2"): "820d8cb6a2efafc2558a1584a2b616b1553b3778e33ecf8a9e67038bfd67f92c",
}


@pytest.mark.parametrize("argv", PINNED_OUTPUTS, ids=" ".join)
def test_output_bytes_are_pinned(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OUTPUTS[argv]


@pytest.mark.parametrize("argv", PINNED_DOT, ids=" ".join)
def test_dot_bytes_are_pinned(tmp_path, capsys, argv):
    target = tmp_path / "out.dot"
    code, _, err = run(capsys, "--dot", str(target), *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == PINNED_DOT[argv]


NO_NUMPY_RUNS = (
    ("--json", "tors", "int:2"),
    ("--field", "3", "verify", "prop-main"),
    ("--json", "verify", "thm2", "--n", "6"),
)

NO_NUMPY_SCRIPT = """
import contextlib, hashlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now fails
before = set(sys.modules)
import torscat.cli
added = {name.split(".")[0] for name in set(sys.modules) - before}
digests = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = torscat.cli.main(argv)
    digests.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
print(json.dumps({"third_party": sorted(added - set(sys.stdlib_module_names) - {"torscat"}), "runs": digests}))
"""


def test_cli_runs_without_numpy():
    # a fresh interpreter in which numpy cannot be imported gives the pinned bytes,
    # and importing the CLI loads nothing outside the standard library
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT, json.dumps(NO_NUMPY_RUNS)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["third_party"] == []
    assert report["runs"] == [[0, PINNED_OUTPUTS[argv]] for argv in NO_NUMPY_RUNS]
    plain = subprocess.run(
        [sys.executable, "-c", "import sys, torscat.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (plain.returncode, plain.stdout) == (0, "False\n"), plain.stderr


def test_failed_certificate_is_a_verification_failure(capsys, monkeypatch):
    # one middle summand of the AR data of int:2 doubled: the mesh certificate
    # refuses the Hom table, which is a failed verification, not a bad input
    ar_quiver = torsion.ar_quiver

    def doubled(A, dim_bound=2):
        ar = ar_quiver(A, dim_bound)
        z = next(z for z, middle in enumerate(ar.middle) if middle)
        e, mult = next(iter(ar.middle[z].items()))
        middle = list(ar.middle)
        middle[z] = {**middle[z], e: 2 * mult}
        return ar._replace(middle=tuple(middle))

    monkeypatch.setattr(torsion, "ar_quiver", doubled)
    code, _, err = run(capsys, "tors", "int:2")
    assert code == 1
    assert err.startswith("verification FAILED: mesh certificate fails")


def test_residue_field_certificate_is_a_verification_failure(tmp_path, capsys, monkeypatch):
    # F_2[x]/(x^3): knitting reaches the almost split sequence starting at
    # F_2[x]/(x^2), whose End has dimension 2, so its socle class needs
    # rad End from _local_radical.  A None there is a failed certificate, exit 1
    spec = tmp_path / "x3.json"
    spec.write_text(json.dumps({
        "vertices": ["1"], "arrows": [{"name": "x", "src": 0, "tgt": 0}], "relations": [[[1, ["x", "x", "x"]]]],
    }))
    code, out, _ = run(capsys, "--dim-bound", "3", "tors", str(spec))
    assert code == 0 and "3 indecomposables, 2 torsion pairs" in out
    monkeypatch.setattr(algebra, "_local_radical", lambda X, ends: None)
    code, _, err = run(capsys, "--dim-bound", "3", "tors", str(spec))
    assert code == 1
    assert err == "verification FAILED: End of the module with dimension vector (2,) is not local over F_p\n"


def test_singular_cartan_algebra_from_json(capsys):
    # rad^2 = 0 on a two-cycle: its Cartan matrix [[1, 1], [1, 1]] is singular
    spec = os.path.join(os.path.dirname(__file__), "data", "two_cycle_rad2.json")
    code, out, err = run(capsys, "tors", spec)
    assert (code, err) == (0, "")
    assert out.startswith(f"algebra {spec}: 4 indecomposables, 6 torsion pairs\n")


def test_text_output_builds_no_json_payload(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("text output built the --json lattice")

    reports = []
    report = cli.torsion_lattice_report

    def recorded_report(*args, **kwargs):
        reports.append(report(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli.FinLattice, "to_json", refuse)
    monkeypatch.setattr(cli, "torsion_lattice_report", recorded_report)
    for argv, head in [
        (("catalan", "dyck", "7"), "dyck 7: size 429\n"),
        (("omega", "int:6"), "omega_1 lattice: size 429 "),
        (("tors", "int:2"), "algebra int:2: 6 indecomposables, 14 torsion pairs\n"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith(head), argv
    assert len(reports) == 1 and "leq" not in reports[0] and "hasse" not in reports[0]
