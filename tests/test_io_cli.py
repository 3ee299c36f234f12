import json
import math
import re

import numpy as np
import pytest

from branchnet.chains import Atom, Chain0, Chain1, Edge, canonicalize, chains_close
from branchnet.cli import (
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    parse_cost,
)
from branchnet.costs import evaluate
from branchnet.io import (
    SchemaError,
    emit_svg,
    load_measure,
    load_network,
    save_measure,
    save_network,
)
from conftest import random_chain, random_measure


class TestRoundTrips:
    def test_measure_roundtrip_exact(self, rng, tmp_path):
        for i in range(5):
            mu = random_measure(rng, n=3, m=2, atoms=7)
            p = tmp_path / f"m{i}.json"
            save_measure(mu, p)
            assert load_measure(p) == mu

    def test_network_roundtrip_exact(self, rng, tmp_path):
        for i in range(5):
            T = random_chain(rng, n=2, m=3, edges=6)
            p = tmp_path / f"t{i}.json"
            save_network(T, p)
            back = load_network(p)
            assert back.edges == T.edges

    def test_seventeen_digit_precision(self, tmp_path):
        w = 0.1 + 0.2  # 0.30000000000000004
        mu = Chain0(2, 1, (Atom((1.0 / 3.0, math.pi), (w,)),))
        p = tmp_path / "m.json"
        save_measure(mu, p)
        assert load_measure(p).atoms[0].weight[0] == w


class TestSchemaErrors:
    def write(self, tmp_path, doc):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        return p

    def test_minimal_file_loads(self, tmp_path):
        p = self.write(tmp_path, {"version": 1, "n": 2, "m": 1,
                                  "atoms": [{"p": [0, 0], "w": [1]}, {"p": [1, 1], "w": [-1]}]})
        assert len(load_measure(p).atoms) == 2

    def test_weight_length_mismatch_located(self, tmp_path):
        p = self.write(tmp_path, {"version": 1, "n": 2, "m": 2,
                                  "atoms": [{"p": [0, 0], "w": [1, 2]}, {"p": [1, 1], "w": [1]}]})
        with pytest.raises(SchemaError, match=r"atoms\[1\].w"):
            load_measure(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"version": 1, "n": 2, "m": 1, "atoms": [{"p": [0, 0], "w": [NaN]}]}')
        with pytest.raises(SchemaError, match="non-finite"):
            load_measure(p)

    def test_unsupported_version(self, tmp_path):
        p = self.write(tmp_path, {"version": 99, "n": 2, "m": 1, "atoms": []})
        with pytest.raises(SchemaError, match="version"):
            load_measure(p)

    def test_degenerate_edge_rejected(self, tmp_path):
        p = self.write(tmp_path, {"version": 1, "n": 2, "m": 1,
                                  "edges": [{"a": [0, 0], "b": [0, 0], "theta": [1]}]})
        with pytest.raises(SchemaError, match="degenerate"):
            load_network(p)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(SchemaError):
            load_measure(p)


class TestSvg:
    def chain_y(self):
        return canonicalize(Chain1(2, 1, (
            Edge((-1.0, 0.0), (0.0, 1.0), (1.0,)),
            Edge((1.0, 0.0), (0.0, 1.0), (1.0,)),
            Edge((0.0, 1.0), (0.0, 2.0), (2.0,)),
        )))

    def test_y_network_renders_thicker_trunk(self, tmp_path):
        p = tmp_path / "y.svg"
        emit_svg(self.chain_y(), path=p)
        text = p.read_text()
        assert text.count("<line") == 3
        widths = sorted(float(w) for w in
                        [s.split('stroke-width="')[1].split('"')[0] for s in text.split("<line")[1:]])
        assert widths[-1] > widths[0]

    def test_empty_chain_empty_canvas(self, tmp_path):
        p = tmp_path / "e.svg"
        emit_svg(Chain1(2, 1, (), canonical=True), path=p)
        assert "<line" not in p.read_text()

    def test_3d_requires_projection(self, tmp_path):
        T = Chain1(3, 1, (Edge((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (1.0,)),))
        with pytest.raises(ValueError, match="project"):
            emit_svg(T, path=tmp_path / "x.svg")
        emit_svg(T, path=tmp_path / "x.svg", project=True)
        assert (tmp_path / "x.svg").exists()


class TestParseCost:
    def test_families(self):
        c = parse_cost("sum_alpha:alpha=0.5;weights=1,2", 2)
        assert evaluate(c, [1.0, 1.0]) == pytest.approx(3**0.5)
        c = parse_cost("p_norm_alpha:p=2;alpha=1", 2)
        assert evaluate(c, [3.0, 4.0]) == pytest.approx(5.0)
        c = parse_cost("component_sum:coeffs=1,2;alphas=1,0.5", 2)
        assert evaluate(c, [1.0, 4.0]) == pytest.approx(5.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            parse_cost("steiner:alpha=1", 1)


@pytest.fixture
def instance(tmp_path):
    mm = {"version": 1, "n": 2, "m": 1,
          "atoms": [{"p": [-1.0, 0.0], "w": [1.0]}, {"p": [1.0, 0.0], "w": [1.0]}]}
    mp = {"version": 1, "n": 2, "m": 1, "atoms": [{"p": [0.0, 2.0], "w": [2.0]}]}
    pm, pp = tmp_path / "mm.json", tmp_path / "mp.json"
    pm.write_text(json.dumps(mm))
    pp.write_text(json.dumps(mp))
    return pm, pp, tmp_path


class TestCli:
    def test_optimize_pipeline(self, instance, capsys):
        pm, pp, d = instance
        out = d / "net.json"
        code = main(["optimize", str(pm), str(pp), "--cost", "sum_alpha:alpha=0.5",
                     "--out", str(out), "--svg", str(d / "net.svg")])
        assert code == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["ok"] and rec["energy"] == pytest.approx(3 * math.sqrt(2), rel=1e-6)
        assert out.exists() and (d / "net.svg").exists()

    def test_energy_and_verify(self, instance, capsys):
        pm, pp, d = instance
        out = d / "net.json"
        main(["optimize", str(pm), str(pp), "--cost", "sum_alpha:alpha=0.5", "--out", str(out)])
        capsys.readouterr()
        assert main(["energy", str(out), "--cost", "sum_alpha:alpha=0.5"]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", str(out), str(pm), str(pp),
                     "--cost", "sum_alpha:alpha=0.5"]) == EXIT_OK

    def test_verify_corrupted_network_fails(self, instance, capsys):
        pm, pp, d = instance
        bad = d / "bad.json"
        T = Chain1(2, 1, (Edge((-1.0, 0.0), (0.0, 2.0), (1.0,)),))
        save_network(T, bad)
        code = main(["verify", str(bad), str(pm), str(pp), "--cost", "sum_alpha:alpha=0.5"])
        assert code == EXIT_INVARIANT

    def test_missing_file_is_io_error(self, capsys):
        assert main(["energy", "/nonexistent.json", "--cost", "sum_alpha:alpha=0.5"]) == EXIT_IO

    @pytest.mark.parametrize("text, where", [
        ('{"version": 1, "n": 2, "m": 1, "edges": [{"a": [0, 0], "b": [1, 0], "theta": [1, 2]}]}',
         r"edges\[0\]\.theta"),
        ('{"version": 1, "n": 2, "m": 1, "atoms": [{"p": [0, 0], "w": [1]}, {"p": [0], "w": [1]}]}',
         r"atoms\[1\]\.p"),
        ('[1, 2]', "top level must be an object"),
        ('{"version": 1, "n": 2', "cannot read input file"),
    ], ids=["network", "measure", "not-an-object", "malformed-json"])
    def test_flat_bound_schema_errors_located(self, tmp_path, capsys, text, where):
        path = tmp_path / "in.json"
        path.write_text(text)
        assert main(["flat-bound", str(path)]) == EXIT_IO
        err = capsys.readouterr().err
        assert str(path) in err
        assert re.search(where, err)

    def test_flat_bound_network(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        save_network(Chain1(2, 1, (Edge((0.0, 0.0), (1.0, 0.0), (2.0,)),)), path)
        assert main(["flat-bound", str(path)]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["kind"] == "network" and rec["upper"] == pytest.approx(2.0)

    def test_bad_cost_is_validation_error(self, instance, capsys):
        pm, pp, _ = instance
        assert main(["optimize", str(pm), str(pp), "--cost", "bogus:x=1"]) == EXIT_VALIDATION

    def test_validate_cost(self, capsys):
        assert main(["validate-cost", "--cost", "sum_alpha:alpha=0.7", "--m", "2",
                     "--samples", "500"]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["axioms_ok"] and rec["rectifiability_flag"]

    def test_cone_cascade_flat_slice(self, instance, capsys):
        pm, pp, d = instance
        assert main(["cone", str(pm), str(pp), "--cost", "sum_alpha:alpha=0.5"]) == EXIT_OK
        capsys.readouterr()
        assert main(["cascade", str(pm), str(pp), "--depth", "3",
                     "--cost", "sum_alpha:alpha=0.75", "--beta", "0.75"]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["energy"] <= rec["bound"]
        assert main(["flat-bound", str(pm)]) == EXIT_OK
        capsys.readouterr()
        out = d / "net.json"
        main(["optimize", str(pm), str(pp), "--cost", "sum_alpha:alpha=0.5", "--out", str(out)])
        capsys.readouterr()
        assert main(["slice", str(out), "--gradient", "0,1", "--level", "0.5"]) == EXIT_OK

    def test_w_sweep_csv(self, instance, capsys):
        pm, _, _ = instance
        assert main(["w-sweep", str(pm), "--cost", "sum_alpha:alpha=0.9",
                     "--max-depth", "3"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "depth,w_upper"
        assert len(lines) == 4

    def test_w_sweep_empty_target(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        save_measure(Chain0(2, 1), path)
        assert main(["w-sweep", str(path), "--cost", "sum_alpha:alpha=0.9",
                     "--max-depth", "3"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["depth,w_upper", "1,0.0", "2,0.0", "3,0.0"]

    @pytest.mark.parametrize("command", ["cone", "cascade"])
    def test_identical_measures_give_no_edges(self, instance, capsys, command):
        pm, _, _ = instance
        assert main([command, str(pm), str(pm)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["edges"] == 0

    def test_ig_check(self, instance, capsys):
        pm, pp, d = instance
        out = d / "net.json"
        main(["optimize", str(pm), str(pp), "--cost", "sum_alpha:alpha=0.5", "--out", str(out)])
        capsys.readouterr()
        assert main(["ig-check", str(out), "--cost", "sum_alpha:alpha=0.5",
                     "--samples", "100000"]) == EXIT_OK

    def test_seed_reproducible(self, instance, capsys):
        pm, pp, _ = instance
        main(["optimize", str(pm), str(pp), "--cost", "sum_alpha:alpha=0.75", "--seed", "5"])
        a = capsys.readouterr().out
        main(["optimize", str(pm), str(pp), "--cost", "sum_alpha:alpha=0.75", "--seed", "5"])
        b = capsys.readouterr().out
        assert a == b
