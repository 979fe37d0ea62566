import json

import pytest

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
    code, out, _ = run(capsys, "catalan", "typeA", "3")
    assert code == 0 and "size 14" in out
    assert "isomorphic to tamari next: yes" in out


def test_catalan_out_of_bounds(capsys):
    code, _, err = run(capsys, "catalan", "typeA", "9")
    assert code == 2 and "usage error" in err


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


def test_verify_thm2(capsys):
    code, out, _ = run(capsys, "verify", "thm2", "--n", "3")
    assert code == 0 and "PASS" in out


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


def test_poset_json_file_input(tmp_path, capsys):
    P = interval_poset(2)
    f = tmp_path / "poset.json"
    f.write_text(json.dumps(P.to_json()))
    code, out, _ = run(capsys, "omega", str(f))
    assert code == 0 and "size 5" in out


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


def test_search_cap_is_a_limit_not_a_parse_error(capsys):
    code, _, err = run(capsys, "--field", "251", "verify", "example")
    assert code == 3
    assert "limit exceeded" in err and "4096" in err


def test_orbit_table_cap_is_a_limit_not_a_parse_error(capsys):
    # dimension vector (2, 2) over F_5 needs a 480 x 625 x 480 orbit table
    code, _, err = run(capsys, "--field", "5", "tors", "example")
    assert code == 3
    assert err.startswith("limit exceeded:") and "cap of 4000000" in err


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
