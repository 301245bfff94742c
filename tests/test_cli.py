import json
import os
import re
import time

import pytest

import woody.cli
import woody.construct
from woody.cli import _flag, main
from woody.graphs import (
    complete_graph,
    cycle_graph,
    encode_graph6,
    format_edge_list,
    parse_graph6,
    path_graph,
    star_graph,
)
from woody.exact import Budget
from woody.harness import DEFAULT_BUDGET_NODES, HuntConfig, iter_corpus
from woody.verify import EdgeColoring, is_strongly_woody

from conftest import DATA, complete_bipartite, grid_graph

README = DATA.parent.parent / "README.md"

# (config key, value): node budgets below 1 and seconds that are not > 0
BAD_BUDGETS = [("budget_nodes", "-3"), ("budget_nodes", "0"),
               ("budget_secs", "-1"), ("budget_secs", "0"), ("budget_secs", "nan")]


def write_graph(tmp_path, g, name="g.g6"):
    p = tmp_path / name
    p.write_text(encode_graph6(g) + "\n")
    return str(p)


def assert_budget_rejected(args, tmp_path, capsys, key, value):
    """The command exits 2 naming the budget, with the value given as a
    flag and then in a config file."""
    assert main(args + ["--" + key.replace("_", "-"), value]) == 2
    assert "budget" in capsys.readouterr().err
    conf = tmp_path / "conf"
    conf.write_text(f"{key}={value}\n")
    assert main(args + ["--config", str(conf)]) == 2
    assert "budget" in capsys.readouterr().err


def write_coloring(tmp_path, colors, name="c.txt"):
    p = tmp_path / name
    p.write_text(" ".join(map(str, colors)) + "\n")
    return str(p)


class TestVerifyCommand:
    def test_valid_strong(self, tmp_path, capsys):
        gp = write_graph(tmp_path, complete_graph(3))
        cp = write_coloring(tmp_path, [0, 1, 2])
        assert main(["verify", gp, cp, "--mode", "strong"]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_with_witness(self, tmp_path, capsys):
        gp = write_graph(tmp_path, cycle_graph(4))
        cp = write_coloring(tmp_path, [0, 0, 0, 1])
        assert main(["verify", gp, cp, "--mode", "strong"]) == 1
        out = capsys.readouterr().out
        witness = json.loads(out.splitlines()[-1])
        assert witness["kind"] == "monochromatic_broken_cycle"

    def test_woody_and_p_woody_modes(self, tmp_path):
        gp = write_graph(tmp_path, cycle_graph(4))
        cp = write_coloring(tmp_path, [0, 1, 0, 1])
        assert main(["verify", gp, cp, "--mode", "woody"]) == 0
        assert main(["verify", gp, cp, "--mode", "p-woody", "--p", "1"]) == 0
        assert main(["verify", gp, cp, "--mode", "p-woody", "--p", "2"]) == 1

    def test_garbage_file(self, tmp_path):
        bad = tmp_path / "bad.g6"
        bad.write_text("D?\x01\n")
        cp = write_coloring(tmp_path, [0])
        assert main(["verify", str(bad), cp]) == 2

    def test_multi_graph_file_rejected(self, tmp_path, capsys):
        p = tmp_path / "two.g6"
        p.write_text(">>graph6<<" + encode_graph6(complete_graph(3)) + "\n"
                     + encode_graph6(cycle_graph(4)) + "\n")
        cp = write_coloring(tmp_path, [0, 1, 2])
        assert main(["verify", str(p), cp]) == 2
        assert "2 graphs" in capsys.readouterr().err
        assert main(["exact", str(p), "--param", "strong-arb"]) == 2
        assert main(["color", str(p), "--method", "square"]) == 2

    def test_graph6_lines_read_as_the_hunt_reads_them(self, tmp_path, capsys):
        # a header may start any line, as in two headed files concatenated
        k3, c4 = encode_graph6(complete_graph(3)), encode_graph6(cycle_graph(4))
        one = tmp_path / "one.g6"
        one.write_text(f"{k3}\n>>graph6<<\n")
        two = tmp_path / "two.g6"
        two.write_text(f">>graph6<<{k3}\n>>graph6<<{c4}\n")
        assert [line for _, _, line in iter_corpus([str(one), str(two)])] == [k3, k3, c4]
        assert main(["verify", str(one), write_coloring(tmp_path, [0, 1, 2])]) == 0
        assert main(["exact", str(two), "--param", "strong-arb"]) == 2
        assert "holds 2 graphs" in capsys.readouterr().err

    def test_wrong_length_coloring(self, tmp_path):
        gp = write_graph(tmp_path, cycle_graph(4))
        cp = write_coloring(tmp_path, [0, 1])
        assert main(["verify", gp, cp]) == 2

    def test_edge_list_input(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text(format_edge_list(complete_graph(3)))
        cp = write_coloring(tmp_path, [0, 1, 2])
        assert main(["verify", str(p), cp]) == 0


class TestColorCommand:
    @pytest.mark.parametrize("method,graph", [
        ("parity", cycle_graph(6)),
        ("square", complete_graph(4)),
        ("acyclic", complete_graph(4)),
        ("product", complete_graph(4)),
        ("partition", cycle_graph(13)),
    ])
    def test_methods_emit_verified_colorings(self, tmp_path, method, graph, capsys):
        gp = write_graph(tmp_path, graph)
        out = str(tmp_path / "out.coloring")
        assert main(["color", gp, "--method", method, "-o", out]) == 0
        g = parse_graph6(encode_graph6(graph))
        colors = [int(t) for t in open(out).read().split()]
        assert is_strongly_woody(EdgeColoring(g, colors))[0]
        assert "palette" in capsys.readouterr().out

    def test_acyclic_colors_the_quotient(self, tmp_path, capsys):
        # K4: χ_a = 4, and a proper 3-edge-coloring of its quotient K4 gives
        # 3 colors where a + b mod 4 gives 4
        gp = write_graph(tmp_path, complete_graph(4))
        out = tmp_path / "o"
        assert main(["color", gp, "--method", "acyclic", "-o", str(out)]) == 0
        assert len(set(out.read_text().split())) == 3
        assert "chi'(H_f) <= palette 3 <= acyclic chromatic number 4" in capsys.readouterr().out

    @pytest.mark.parametrize("graph", [path_graph(1200), cycle_graph(1200)],
                             ids=["P1200", "C1200"])
    def test_partition_deeper_than_the_recursion_limit(self, tmp_path, graph, capsys):
        gp = write_graph(tmp_path, graph)
        out = str(tmp_path / "out.coloring")
        assert main(["color", gp, "--method", "partition", "-o", out]) == 0
        colors = [int(t) for t in open(out).read().split()]
        assert sorted(set(colors)) == [0, 1]
        assert is_strongly_woody(EdgeColoring(graph, colors))[0]
        assert "palette 2" in capsys.readouterr().out

    def test_parity_bound(self, tmp_path):
        gp = write_graph(tmp_path, cycle_graph(6))
        out = str(tmp_path / "o")
        main(["color", gp, "--method", "parity", "-o", out])
        colors = [int(t) for t in open(out).read().split()]
        assert max(colors) + 1 <= 4

    def test_square_bound_on_k4(self, tmp_path):
        gp = write_graph(tmp_path, complete_graph(4))
        out = str(tmp_path / "o")
        main(["color", gp, "--method", "square", "-o", out])
        colors = [int(t) for t in open(out).read().split()]
        assert max(colors) + 1 <= 16

    def test_square_computes_arboricity_once(self, tmp_path, monkeypatch):
        calls = []
        real = woody.construct.arboricity

        def counted(g, *col):
            calls.append(g.m)
            return real(g, *col)

        for module in (woody.construct, woody.cli):
            monkeypatch.setattr(module, "arboricity", counted)
        gp = write_graph(tmp_path, complete_graph(5))
        assert main(["color", gp, "--method", "square", "-o", str(tmp_path / "o")]) == 0
        assert calls == [10]

    @pytest.mark.parametrize("method", ["acyclic", "product"])
    def test_empty_graph_gets_the_empty_coloring(self, tmp_path, method, capsys):
        # chi and chi_a of the 0-vertex graph are 0, a palette with no
        # vertex to color
        p = tmp_path / "g.txt"
        p.write_text("0 0\n")
        out = tmp_path / "o"
        assert main(["color", str(p), "--method", method, "-o", str(out)]) == 0
        assert out.read_text().split() == []
        assert "palette 0" in capsys.readouterr().out

    @pytest.mark.parametrize("method,graph", [
        pytest.param("acyclic", complete_graph(5), id="acyclic-K5"),
        pytest.param("parity", cycle_graph(13), id="parity-C13"),
        pytest.param("partition", cycle_graph(13), id="partition-C13"),
        pytest.param("product", complete_graph(5), id="product-K5"),
        pytest.param("square", cycle_graph(13), id="square-C13"),
        pytest.param("square", complete_graph(5), id="square-K5"),
        pytest.param("square", grid_graph(4, 4), id="square-grid4x4"),
    ])
    def test_each_method_verifies_once(self, tmp_path, monkeypatch, method, graph):
        # the construct pipelines verify their own output; the CLI checks
        # only what no pipeline has (acyclic's derived coloring, product)
        calls = []
        real = woody.cli.is_strongly_woody

        def counted(coloring):
            calls.append(coloring.colors)
            return real(coloring)

        for module in (woody.cli, woody.construct):
            monkeypatch.setattr(module, "is_strongly_woody", counted)
        gp = write_graph(tmp_path, graph)
        assert main(["color", gp, "--method", method, "-o", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    def test_parity_precondition_failure(self, tmp_path, capsys):
        gp = write_graph(tmp_path, complete_graph(4))
        assert main(["color", gp, "--method", "parity"]) == 1
        assert "precondition" in capsys.readouterr().err

    @pytest.mark.parametrize("a, k", [(4, 3), (12, 7)], ids=["K4,4", "K12,12"])
    def test_parity_refusal_prints_the_density_certificate(self, tmp_path, capsys, a, k):
        # Ka,a is triangle-free with arboricity ceil(a^2 / (2a - 1)); the
        # witness is the whole graph, a^2 edges over 2a - 1
        gp = write_graph(tmp_path, complete_bipartite(a, a))
        start = time.perf_counter()
        assert main(["color", gp, "--method", "parity"]) == 1
        elapsed = time.perf_counter() - start
        assert capsys.readouterr().err == (
            f"precondition failed: graph needs {k} forests, not 2\n"
            f'{{"density": [{a * a}, {2 * a - 1}], "num_edges": {a * a}, '
            f'"vertices": {list(range(2 * a))}}}\n')
        assert elapsed < 0.5

    @pytest.mark.parametrize("method", ["product", "acyclic"])
    def test_exhausted_solve_whose_bounds_meet_colors(self, tmp_path, capsys, method):
        # K6 on 3 nodes: χ and χ_a are both 6, ω and the all-distinct palette
        gp = write_graph(tmp_path, complete_graph(6))
        out = tmp_path / "o"
        assert main(["color", gp, "--method", method, "--budget-nodes", "3",
                     "-o", str(out)]) == 0
        g = parse_graph6(encode_graph6(complete_graph(6)))
        colors = [int(t) for t in out.read_text().split()]
        assert is_strongly_woody(EdgeColoring(g, colors))[0]
        assert "inexact" not in capsys.readouterr().err

    def test_method_required(self, tmp_path):
        gp = write_graph(tmp_path, cycle_graph(4))
        assert main(["color", gp]) == 2

    def test_method_from_config(self, tmp_path):
        gp = write_graph(tmp_path, cycle_graph(6))
        conf = tmp_path / "conf"
        conf.write_text("method=parity\n")
        out = str(tmp_path / "o")
        assert main(["color", gp, "--config", str(conf), "-o", out]) == 0

    def test_unknown_method_from_config(self, tmp_path, capsys):
        # argparse checks --method, not a method a config file sets
        gp = write_graph(tmp_path, cycle_graph(5))
        conf = tmp_path / "conf"
        conf.write_text("method=bogus\n")
        assert main(["color", gp, "--config", str(conf)]) == 2
        err = capsys.readouterr().err
        assert "unknown method 'bogus'" in err and "acyclic, parity" in err


class TestExactCommand:
    def test_strong_arb_k5(self, tmp_path, capsys):
        gp = write_graph(tmp_path, complete_graph(5))
        cert = str(tmp_path / "cert")
        assert main(["exact", gp, "--param", "strong-arb", "-o", cert]) == 0
        assert "strong-arb = 5" in capsys.readouterr().out
        colors = [int(t) for t in open(cert).read().split()]
        g = parse_graph6(encode_graph6(complete_graph(5)))
        assert is_strongly_woody(EdgeColoring(g, colors))[0]
        assert max(colors) + 1 == 5

    def test_acyclic_chromatic_c4(self, tmp_path, capsys):
        gp = write_graph(tmp_path, cycle_graph(4))
        assert main(["exact", gp, "--param", "acyclic-chromatic"]) == 0
        assert "= 3" in capsys.readouterr().out

    def test_budget_exhaustion_exit(self, tmp_path, capsys):
        gp = write_graph(tmp_path, complete_graph(9))
        code = main(["exact", gp, "--param", "strong-arb", "--budget-nodes", "10"])
        assert code == 4
        assert "inexact" in capsys.readouterr().out

    def test_every_command_builds_one_node_only_default_budget(self, tmp_path, monkeypatch):
        # without --budget-secs no command hands a solver a deadline
        built = []
        real = woody.cli._budget_from_args

        def spy(args):
            built.append(real(args))
            return built[-1]

        monkeypatch.setattr(woody.cli, "_budget_from_args", spy)
        gp = write_graph(tmp_path, cycle_graph(5))
        out = str(tmp_path / "out")
        assert main(["exact", gp, "--param", "strong-arb", "-o", out]) == 0
        assert main(["color", gp, "--method", "acyclic", "-o", out]) == 0
        assert main(["hunt", gp, "--report", out, "--summary", out + ".csv",
                     "--quarantine", out + ".q"]) == 0
        assert built == [HuntConfig().budget] * 3
        assert built[0] == Budget(DEFAULT_BUDGET_NODES)

    def test_exhausted_bounds_that_meet_exit_0(self, tmp_path, capsys):
        # K1,3 as an edge list: one node runs out, but the square pipeline's
        # one color meets the lower bound 1
        gp = tmp_path / "star"
        gp.write_text(format_edge_list(star_graph(3)))
        cert = tmp_path / "cert"
        assert main(["exact", str(gp), "--param", "strong-arb", "--budget-nodes", "1",
                     "-o", str(cert)]) == 0
        assert capsys.readouterr().out.startswith("strong-arb = 1 (nodes 1,")
        assert cert.read_text().split() == ["0", "0", "0"]

    @pytest.mark.parametrize("flag,value,message", [
        ("--budget-nodes", "-3", "budget nodes must be at least 1, got -3"),
        ("--budget-secs", "nan", "budget seconds must be positive, got nan"),
    ])
    def test_bad_budget_message(self, tmp_path, capsys, flag, value, message):
        gp = write_graph(tmp_path, complete_graph(6))
        assert main(["exact", gp, "--param", "strong-arb", flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("key,value", BAD_BUDGETS)
    def test_bad_budget_rejected(self, tmp_path, capsys, key, value):
        gp = write_graph(tmp_path, complete_graph(6))
        args = ["exact", gp, "--param", "strong-arb", "-o", str(tmp_path / "o")]
        assert_budget_rejected(args, tmp_path, capsys, key, value)

    def test_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        # the triangulated 20x20 grid has 1,121 edges and is colored with no
        # backtrack
        graph = grid_graph(20, 20, triangulated=True)
        gp = write_graph(tmp_path, graph)
        cert = str(tmp_path / "cert")
        assert main(["exact", gp, "--param", "strong-arb", "-o", cert]) == 0
        assert "strong-arb = 3 (nodes 1121," in capsys.readouterr().out
        colors = [int(t) for t in open(cert).read().split()]
        g = parse_graph6(encode_graph6(graph))
        assert is_strongly_woody(EdgeColoring(g, colors))[0]

    def test_readme_example_session(self, tmp_path, capsys):
        # the README's example prints what the CLI prints, up to the timing
        text = README.read_text()
        g6 = re.search(r"printf '(\S+)\\n' > g\.g6", text).group(1)
        line = next(ln for ln in text.splitlines() if ln.startswith("strong-arb = "))
        gp = tmp_path / "g.g6"
        gp.write_text(g6 + "\n")
        assert main(["exact", str(gp), "--param", "strong-arb"]) == 0
        printed = capsys.readouterr().out.splitlines()[0]
        assert printed.split(",")[0] == line.split(",")[0]


class TestHuntCommand:
    def test_end_to_end(self, tmp_path, capsys):
        report = str(tmp_path / "r.jsonl")
        summary = str(tmp_path / "s.csv")
        code = main([
            "hunt", str(DATA / "planar_connected_n4.g6"),
            "--conjectures", "planar4,twoarb,col,girth-eq",
            "--provenance", "atlas planar n=4",
            "--report", report, "--summary", summary,
        ])
        assert code == 0
        lines = open(report).read().splitlines()
        assert len(lines) == 6
        recs = [json.loads(ln) for ln in lines]
        assert all(r["flags"]["planar4"] == "holds" for r in recs)
        assert all(r["provenance"] == "atlas planar n=4" for r in recs)
        rows = open(summary).read()
        assert "violations_total,0" in rows

    # the second name is not UTF-8, so argv holds it with surrogates
    @pytest.mark.parametrize("name", ["café.g6", os.fsdecode(b"caf\xe9.g6")])
    def test_non_ascii_provenance_and_path_reach_the_summary(self, tmp_path, name):
        corpus = tmp_path / name
        corpus.write_text(encode_graph6(cycle_graph(4)) + "\n")
        summary = tmp_path / "s.csv"
        assert main(["hunt", str(corpus), "--provenance", "café",
                     "--report", str(tmp_path / "r.jsonl"), "--summary", str(summary)]) == 0
        rows = summary.read_bytes().decode("utf-8", "surrogateescape").splitlines()
        assert rows[1:3] == [f"corpus,{corpus}", "provenance,café"]
        assert rows[-1] == "girth_eq_unresolved,0"

    @pytest.mark.parametrize("line,offset", [
        (b"C\xc3\xa9", 2), (b"C~\xa0", 2), (b"C\x01", 1)])
    def test_a_non_ascii_byte_is_a_malformed_line(self, tmp_path, capsys, line, offset):
        corpus = tmp_path / "c.g6"
        corpus.write_bytes(encode_graph6(cycle_graph(4)).encode() + b"\n" + line + b"\n")
        report = tmp_path / "r.jsonl"
        args = ["hunt", str(corpus), "--report", str(report),
                "--summary", str(tmp_path / "s.csv")]
        assert main(args) == 0
        assert len(report.read_text().splitlines()) == 1
        err = capsys.readouterr().err
        assert f"skipping {corpus}:2: " in err and f"(byte offset {offset})" in err
        assert main(args + ["--strict"]) == 2
        err = capsys.readouterr().err
        assert f"corpus error: {corpus}:2: " in err and f"(byte offset {offset})" in err

    def test_unknown_conjecture(self, tmp_path):
        assert main([
            "hunt", str(DATA / "planar_connected_n3.g6"),
            "--conjectures", "bogus"]) == 2

    def test_config_budget_merge(self, tmp_path):
        conf = tmp_path / "conf"
        conf.write_text("budget_nodes=12345\nbudget_secs=2.5\nseed=5\n")
        report = str(tmp_path / "r.jsonl")
        summary = str(tmp_path / "s.csv")
        args = ["hunt", str(DATA / "planar_connected_n3.g6"),
                "--config", str(conf), "--report", report, "--summary", summary]
        assert main(args) == 0
        assert "seed,5" in open(summary).read().splitlines()
        assert main(args + ["--seed", "0"]) == 0
        assert "seed,0" in open(summary).read().splitlines()

    @pytest.mark.parametrize("line, shown", [
        ("budget_nodes=abc", "budget_nodes=abc: invalid literal for int() with base 10: 'abc'"),
        ("strict=maybe", "strict=maybe: not one of 1/true/yes or 0/false/no"),
        ("strict=on", "strict=on: not one of 1/true/yes or 0/false/no"),
        ("bogus=1", "unknown config key 'bogus'"),
    ], ids=["int", "maybe", "on", "unknown-key"])
    def test_a_bad_config_value_exits_2_naming_file_and_key(self, tmp_path, capsys,
                                                            line, shown):
        conf = tmp_path / "conf"
        conf.write_text(f"seed=1\n{line}\n")
        report = tmp_path / "r.jsonl"
        assert main(["hunt", str(DATA / "planar_connected_n3.g6"), "--config", str(conf),
                     "--report", str(report), "--summary", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == f"error: {conf}: {shown}\n"
        assert not report.exists()

    def test_a_repeated_config_key_exits_2_naming_both_lines(self, tmp_path, capsys):
        # the first value does not parse, so keeping the last would hide it
        gp = write_graph(tmp_path, cycle_graph(4))
        conf = tmp_path / "dup.conf"
        conf.write_text("budget_nodes=abc\n# comment\nseed=1\nbudget_nodes=5\n")
        cert = tmp_path / "cert"
        assert main(["exact", gp, "--param", "strong-arb", "--config", str(conf),
                     "-o", str(cert)]) == 2
        assert capsys.readouterr().err == (
            f"error: {conf}:4: config key 'budget_nodes' repeats line 1\n")
        assert not cert.exists()

    def test_config_flags_read_yes_and_no_in_any_case(self):
        for word in ("1", "true", "TRUE", "yes", "Yes"):
            assert _flag(word) is True
        for word in ("0", "false", "False", "no", "NO"):
            assert _flag(word) is False
        for word in ("maybe", "on", "off", "2", ""):
            with pytest.raises(ValueError):
                _flag(word)

    @pytest.mark.parametrize("key,value", BAD_BUDGETS)
    def test_bad_budget_rejected(self, tmp_path, capsys, key, value):
        args = ["hunt", str(DATA / "planar_connected_n4.g6"),
                "--report", str(tmp_path / "r.jsonl"), "--summary", str(tmp_path / "s.csv")]
        assert_budget_rejected(args, tmp_path, capsys, key, value)
        assert not (tmp_path / "r.jsonl").exists()

    def test_missing_file(self, tmp_path):
        assert main(["hunt", str(tmp_path / "nope.g6")]) == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, fake_pool, jobs):
        corpus = str(DATA / "planar_connected_n4.g6")
        report = tmp_path / "r.jsonl"
        assert main(["hunt", corpus, "--jobs", jobs, "--report", str(report)]) == 2
        assert "jobs must be at least 1" in capsys.readouterr().err
        conf = tmp_path / "conf"
        conf.write_text(f"jobs={jobs}\n")
        assert main(["hunt", corpus, "--config", str(conf),
                     "--report", str(report)]) == 2
        # the flag wins over the config file, also when it reads 0
        conf.write_text("jobs=2\n")
        assert main(["hunt", corpus, "--jobs", jobs, "--config", str(conf),
                     "--report", str(report)]) == 2
        assert fake_pool == []
        assert not report.exists()

    def test_worker_crash_exits_2_naming_the_graph(self, tmp_path, capsys, monkeypatch):
        # workers inherit the patched parser only when forked
        import multiprocessing
        import os

        import woody.harness as H

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("needs forked workers to see the patched parser")
        corpus = DATA / "planar_connected_n6.g6"
        doomed = corpus.read_text().splitlines()[6]
        real_parse = H.parse_graph6

        def parse(line):
            if line == doomed:
                os._exit(3)
            return real_parse(line)

        monkeypatch.setattr(H, "parse_graph6", parse)
        report = tmp_path / "r.jsonl"
        code = main(["hunt", str(corpus), "--jobs", "2", "--report", str(report),
                     "--summary", str(tmp_path / "s.csv")])
        assert code == 2
        # line 7 sits in the first chunk, so line 1's record is the first missing
        err = capsys.readouterr().err
        assert f"before the record of {corpus}:1 arrived" in err
        assert not report.exists()


class TestUnreadableFiles:
    # a byte that does not decode names its file, line and byte offset, as
    # the hunt names a malformed graph6 line; \xa0 is no separator in an
    # edge list, although latin-1 text would split on it
    @pytest.mark.parametrize("data, line, offset, byte", [
        (b"C\xc3\xa9\n", 1, 1, 0xc3), (b"3 3\n0 1\n1 2\n0\xa02\n", 4, 1, 0xa0)],
        ids=["graph6", "edge-list"])
    def test_non_ascii_graph_file(self, tmp_path, capsys, data, line, offset, byte):
        bad = tmp_path / "bad.g6"
        bad.write_bytes(data)
        cp = write_coloring(tmp_path, [0, 1, 2])
        for args in (["exact", str(bad), "--param", "strong-arb"], ["verify", str(bad), cp]):
            assert main(args) == 2
            assert capsys.readouterr().err == (
                f"error: {bad}:{line}: byte 0x{byte:02x} is not ascii (byte offset {offset})\n")

    def test_non_ascii_coloring_file(self, tmp_path, capsys):
        gp = write_graph(tmp_path, cycle_graph(4))
        cp = tmp_path / "c.txt"
        cp.write_bytes(b"0 1 0 1\n2 \xc3\n")
        assert main(["verify", gp, str(cp)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cp}:2: byte 0xc3 is not ascii (byte offset 2)\n")

    def test_non_utf8_config_file(self, tmp_path, capsys):
        gp = write_graph(tmp_path, cycle_graph(4))
        conf = tmp_path / "conf"
        conf.write_bytes("provenance=café\n".encode() + b"seed=\xff\n")
        assert main(["exact", gp, "--param", "strong-arb", "--config", str(conf)]) == 2
        assert capsys.readouterr().err == (
            f"error: {conf}:2: byte 0xff is not utf-8 (byte offset 5)\n")

    def test_graph_lines_ending_in_carriage_returns(self, tmp_path, capsys):
        # the byte is counted on the line a text-mode reader puts it on:
        # the third here, as the hunt's own line count says
        bad = tmp_path / "bad.g6"
        bad.write_bytes(b"\r\rD\xffc\r")
        assert main(["exact", str(bad), "--param", "strong-arb"]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:3: byte 0xff is not ascii (byte offset 1)\n")
        assert main(["hunt", str(bad), "--strict", "--report", str(tmp_path / "r.jsonl"),
                     "--summary", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:3: " in err and "(byte offset 1)" in err

    def test_config_lines_ending_in_carriage_returns(self, tmp_path, capsys):
        gp = write_graph(tmp_path, cycle_graph(4))
        conf = tmp_path / "c.conf"
        conf.write_bytes(b"budget_nodes=5\rseed=1\r\xff=3\r")
        assert main(["exact", gp, "--param", "strong-arb", "--config", str(conf)]) == 2
        assert capsys.readouterr().err == (
            f"error: {conf}:3: byte 0xff is not utf-8 (byte offset 0)\n")

    def test_a_directory_as_input_or_output(self, tmp_path, capsys):
        # no traceback and no exit 1, which means an invalid coloring
        gp = write_graph(tmp_path, cycle_graph(4))
        out = tmp_path / "out"
        out.mkdir()
        for args in (["exact", str(out), "--param", "strong-arb"],
                     ["hunt", str(out)],
                     ["exact", gp, "--param", "strong-arb", "-o", str(out)],
                     ["hunt", gp, "--report", str(out),
                      "--summary", str(tmp_path / "s.csv")]):
            assert main(args) == 2, args
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(out) in err, args

    def test_parse_errors_name_the_file_and_line(self, tmp_path, capsys):
        # graph6 lines are counted as the file counts them, blank ones too
        bad = tmp_path / "bad.g6"
        bad.write_text("\nD?\x01\n")
        assert main(["exact", str(bad), "--param", "strong-arb"]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:2: character '\\x01' out of printable range (byte offset 2)\n")
        edges = tmp_path / "g.txt"
        edges.write_text("2 1\n1 x\n")
        assert main(["exact", str(edges), "--param", "strong-arb"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {edges}: bad endpoint in edge 0: ")
        conf = tmp_path / "conf"
        conf.write_text("seed=1\nbogus\n")
        gp = write_graph(tmp_path, cycle_graph(4))
        assert main(["exact", gp, "--param", "strong-arb", "--config", str(conf)]) == 2
        assert capsys.readouterr().err == f"error: {conf}:2: bad config line: bogus\n"

    def test_an_unwritable_output_fails_before_the_work(self, tmp_path, capsys, monkeypatch):
        import woody.harness

        def never(task):
            raise AssertionError("a graph was solved before the outputs were opened")

        monkeypatch.setattr(woody.harness, "hunt_graph", never)
        gp = write_graph(tmp_path, cycle_graph(4))
        out = tmp_path / "out"
        out.mkdir()
        report, summary = tmp_path / "r.jsonl", tmp_path / "s.csv"
        for args in (["--report", str(out), "--summary", str(summary)],
                     ["--report", str(report), "--summary", str(out)]):
            assert main(["hunt", gp] + args) == 2, args
            assert str(out) in capsys.readouterr().err, args
            # an output opened before the failing one is removed again
            assert not report.exists() and not summary.exists(), args
        # one file for both would hold the summary over the report's tail
        assert main(["hunt", gp, "--report", str(report), "--summary",
                     os.path.join(str(out), "..", "r.jsonl")]) == 2
        assert "name the same file" in capsys.readouterr().err
        assert not report.exists()
        # a quarantine on either output would overwrite it with the violations
        for target in (report, summary):
            target.write_text("kept\n")
            assert main(["hunt", gp, "--report", str(report), "--summary", str(summary),
                         "--quarantine", str(target)]) == 2, target
            assert "name the same file" in capsys.readouterr().err
            assert target.read_text() == "kept\n"
            target.unlink()
        # no output may name a corpus file, however the path is spelled:
        # the corpus keeps its bytes
        corpus = tmp_path / "two.g6"
        corpus.write_text(encode_graph6(cycle_graph(4)) + "\n"
                          + encode_graph6(path_graph(3)) + "\n")
        before = corpus.read_bytes()
        for flag in ("--report", "--summary", "--quarantine"):
            outputs = {"--report": str(report), "--summary": str(summary),
                       "--quarantine": str(tmp_path / "q.jsonl"),
                       flag: os.path.join(str(out), "..", "two.g6")}
            argv = ["hunt", gp, str(corpus)] + [x for pair in outputs.items() for x in pair]
            assert main(argv) == 2, flag
            assert f"{flag} {outputs[flag]} names a corpus file" in capsys.readouterr().err
            assert corpus.read_bytes() == before, flag
            assert not report.exists() and not summary.exists(), flag
        # exact writes its certificate before it prints a result
        assert main(["exact", gp, "--param", "strong-arb", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and str(out) in captured.err
