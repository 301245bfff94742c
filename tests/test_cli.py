import json

import pytest

import woody.cli
import woody.construct
from woody import (
    EdgeColoring,
    complete_graph,
    cycle_graph,
    encode_graph6,
    format_edge_list,
    is_strongly_woody,
    parse_graph6,
)
from woody.cli import main

from conftest import DATA


def write_graph(tmp_path, g, name="g.g6"):
    p = tmp_path / name
    p.write_text(encode_graph6(g) + "\n")
    return str(p)


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

        def counted(g):
            calls.append(g.m)
            return real(g)

        for module in (woody.construct, woody.cli):
            monkeypatch.setattr(module, "arboricity", counted)
        gp = write_graph(tmp_path, complete_graph(5))
        assert main(["color", gp, "--method", "square", "-o", str(tmp_path / "o")]) == 0
        assert calls == [10]

    def test_parity_precondition_failure(self, tmp_path, capsys):
        gp = write_graph(tmp_path, complete_graph(4))
        assert main(["color", gp, "--method", "parity"]) == 1
        assert "precondition" in capsys.readouterr().err

    def test_method_required(self, tmp_path):
        gp = write_graph(tmp_path, cycle_graph(4))
        assert main(["color", gp]) == 2

    def test_method_from_config(self, tmp_path):
        gp = write_graph(tmp_path, cycle_graph(6))
        conf = tmp_path / "conf"
        conf.write_text("method=parity\n")
        out = str(tmp_path / "o")
        assert main(["color", gp, "--config", str(conf), "-o", out]) == 0


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
