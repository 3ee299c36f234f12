import json
import math
import re
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchnet import io as bn_io
from branchnet.chains import Atom, Chain0, Chain1, Edge, canonicalize, chains_close
from branchnet.cli import (
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    build_parser,
    main,
    parse_cost,
)
from branchnet.costs import evaluate, sum_alpha
from branchnet.energy import energy
from branchnet.io import (
    SchemaError,
    _check_header,
    _check_vector,
    _require,
    emit_svg,
    load_measure,
    load_network,
    measure_from_document,
    network_from_document,
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


def measure_from_document_reference(doc, path) -> Chain0:
    """The per-number reading: every atom's fields through ``_check_vector``."""
    n, m = _check_header(doc, path)
    _require("atoms" in doc and isinstance(doc["atoms"], list), f"{path}:atoms", "missing atom list")
    P, W = [], []
    for i, rec in enumerate(doc["atoms"]):
        where = f"{path}:atoms[{i}]"
        _require(isinstance(rec, dict), where, "expected an object")
        _require("p" in rec and "w" in rec, where, "atom needs fields 'p' and 'w'")
        P.append(_check_vector(rec["p"], n, f"{where}.p"))
        W.append(_check_vector(rec["w"], m, f"{where}.w"))
    return Chain0.from_arrays(n, m, P, W)


def network_from_document_reference(doc, path) -> Chain1:
    """The per-number reading: every edge's fields through ``_check_vector``,
    then its degeneracy."""
    n, m = _check_header(doc, path)
    _require("edges" in doc and isinstance(doc["edges"], list), f"{path}:edges", "missing edge list")
    A, B, Theta = [], [], []
    for i, rec in enumerate(doc["edges"]):
        where = f"{path}:edges[{i}]"
        _require(isinstance(rec, dict), where, "expected an object")
        for key in ("a", "b", "theta"):
            _require(key in rec, where, f"edge needs field '{key}'")
        a = _check_vector(rec["a"], n, f"{where}.a")
        b = _check_vector(rec["b"], n, f"{where}.b")
        Theta.append(_check_vector(rec["theta"], m, f"{where}.theta"))
        _require(a != b, where, "degenerate edge (a == b)")
        A.append(a)
        B.append(b)
    return Chain1.from_arrays(n, m, A, B, Theta)


class _Row(list):
    """A list subclass, as a document built in Python may hold."""


# numbers as json.load gives them, and as Python code may put them in a document
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2**70, 2**70),
    st.sampled_from([0, -0.0, 2**53 + 1, 2**63, 2**64 + 1, 10**308, -10**308, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
# entries _check_vector refuses: out of range, non-finite, not a number
BAD_ENTRIES = st.one_of(
    st.sampled_from([10**309, -10**309, math.nan, math.inf, -math.inf, True, False, None, "1", np.int64(1)]),
    st.lists(st.floats(allow_nan=False), max_size=2),
)
FIELDS = {"atoms": (("p", "n"), ("w", "m")), "edges": (("a", "n"), ("b", "n"), ("theta", "m"))}


@st.composite
def documents(draw):
    """A measure or network document: valid records, a quarter of the edges
    degenerate, then up to three faults, each at a random record."""
    kind = draw(st.sampled_from(sorted(FIELDS)))
    dims = {"n": draw(st.integers(1, 3)), "m": draw(st.integers(1, 3))}
    records = []
    for _ in range(draw(st.integers(0, 5))):
        rec = {key: draw(st.lists(NUMBERS, min_size=dims[d], max_size=dims[d])) for key, d in FIELDS[kind]}
        if kind == "edges" and draw(st.integers(0, 3)) == 0:
            rec["b"] = list(rec["a"])
        records.append(rec)
    for _ in range(draw(st.integers(0, 3)) if records else 0):
        i = draw(st.integers(0, len(records) - 1))
        fault = draw(st.sampled_from(["entry", "length", "tuple", "subclass", "not-an-object", "missing-key"]))
        if fault == "not-an-object":
            records[i] = draw(st.sampled_from([[], 1, "edge", None]))
            continue
        key = draw(st.sampled_from([key for key, _ in FIELDS[kind]]))
        if not isinstance(records[i], dict) or key not in records[i]:
            continue
        row = list(records[i][key])
        if fault == "entry":
            row[draw(st.integers(0, len(row) - 1))] = draw(BAD_ENTRIES)
            records[i][key] = row
        elif fault == "length":
            records[i][key] = row + [1.0] if draw(st.booleans()) or len(row) == 1 else row[1:]
        elif fault == "tuple":
            records[i][key] = tuple(row)
        elif fault == "subclass":
            records[i][key] = _Row(row)
        else:
            del records[i][key]
    return {"version": 1, **dims, kind: records}


def _read_both(doc):
    """(the library's reading, the reference's): a chain's (shape, bytes)
    per array, or the SchemaError's message."""
    out = []
    for read in ((measure_from_document, measure_from_document_reference) if "atoms" in doc
                 else (network_from_document, network_from_document_reference)):
        try:
            X = read(doc, "doc.json")
        except SchemaError as exc:
            out.append(str(exc))
        else:
            out.append([(a.shape, a.tobytes()) for a in (getattr(X, k) for k in X._ARRAYS)])
    return out


def _edge(a, b, theta=(1.0,)):
    return {"a": list(a), "b": list(b), "theta": list(theta)}


class TestArrayParsing:
    """Each field is read as one array; only the error path walks the
    records, and it reports what the per-number reading reports."""

    @settings(max_examples=400, deadline=None)
    @given(documents())
    @example({"version": 1, "n": 2, "m": 1, "edges": [_edge([0, 0], [0.0, -0.0]), _edge([0, 1], [1, math.nan])]})
    @example({"version": 1, "n": 2, "m": 1, "edges": [_edge([0, 1], [1, 10**309]), _edge([0, 0], [0.0, -0.0])]})
    @example({"version": 1, "n": 2, "m": 1, "edges": [_edge([1, 2], [1, 2], [math.inf])]})
    @example({"version": 1, "n": 1, "m": 1, "atoms": [{"p": [np.float64(0.1)], "w": _Row([2**64 + 1])}]})
    @example({"version": 1, "n": 1, "m": 1, "atoms": []})
    @example({"version": 1, "n": 2, "m": 1, "edges": [defaultdict(lambda: [0.0, 1.0], b=[1.0, 1.0], theta=[1.0])]})
    def test_matches_the_per_number_reading(self, doc):
        got, want = _read_both(doc)
        assert got == want

    @pytest.mark.parametrize("first, second, error", [
        (_edge([0, 0], [0.0, -0.0]), _edge([0, 1], ["1", 0]), r"edges\[0\]: degenerate edge"),
        (_edge([0, 1], ["1", 0]), _edge([0, 0], [0.0, -0.0]), r"edges\[0\]\.b\[0\]: expected a number"),
        (_edge([2, 2], [2, 2], [True]), _edge([0, 1], [1, 0]), r"edges\[0\]\.theta\[0\]: expected a number"),
        (_edge([0, 1], [1, 0], [1, 2]), _edge([0, 0], [0, 0]), r"edges\[0\]\.theta: expected length 1"),
    ], ids=["degenerate-first", "bad-number-first", "bad-theta-of-a-degenerate-edge", "bad-length-first"])
    def test_first_error_in_record_order(self, first, second, error):
        doc = {"version": 1, "n": 2, "m": 1, "edges": [first, second]}
        with pytest.raises(SchemaError, match=error):
            network_from_document(doc, "doc.json")
        got, want = _read_both(doc)
        assert got == want

    def test_valid_documents_never_reach_the_per_number_check(self, rng, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(bn_io, "_check_vector", lambda *args: calls.append(args) or _check_vector(*args))
        mu, T = random_measure(rng, n=3, m=2, atoms=7), random_chain(rng, n=2, m=3, edges=6)
        save_measure(mu, tmp_path / "m.json")
        save_network(T, tmp_path / "t.json")
        assert load_measure(tmp_path / "m.json") == mu
        assert load_network(tmp_path / "t.json").edges == T.edges
        # a document built in Python: np.float64 entries (a float subclass) and list subclasses
        doc = {"version": 1, "n": 2, "m": 1,
               "edges": [{"a": _Row(map(np.float64, a)), "b": list(b), "theta": [np.float64(t[0])]}
                         for a, b, t in zip(T.A.tolist(), T.B.tolist(), T.Theta.tolist())]}
        assert network_from_document(doc, "doc.json").edges == Chain1.from_arrays(2, 1, T.A, T.B, T.Theta[:, :1]).edges
        assert calls == []


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
        assert rec["stop_reason"] == "converged" and list(rec)[-1] == "stop_reason"
        assert list(rec)[-2] == "last_gain" and 0.0 <= rec["last_gain"] < 1e-6
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
        assert "stop_reason" not in json.loads(capsys.readouterr().out)

    def test_verify_corrupted_network_fails(self, instance, capsys):
        pm, pp, d = instance
        bad = d / "bad.json"
        T = Chain1(2, 1, (Edge((-1.0, 0.0), (0.0, 2.0), (1.0,)),))
        save_network(T, bad)
        code = main(["verify", str(bad), str(pm), str(pp), "--cost", "sum_alpha:alpha=0.5"])
        assert code == EXIT_INVARIANT
        out, err = capsys.readouterr()
        rec = json.loads(out)
        assert rec["ok"] is False and "failures" not in rec
        r = rec["boundary_residual"]
        # eps_bnd is --tol times the weight scale S = 2
        assert err == (f"invariant violation: network failed verification: boundary residual {r!r} above eps_bnd "
                       f"2e-08 by {r - 2e-8!r}\n")

    def test_missing_file_is_io_error(self, capsys):
        assert main(["energy", "/nonexistent.json", "--cost", "sum_alpha:alpha=0.5"]) == EXIT_IO

    @pytest.mark.parametrize("text, where", [
        ('{"version": 1, "n": 2, "m": 1, "edges": [{"a": [0, 0], "b": [1, 0], "theta": [1, 2]}]}',
         r"edges\[0\]\.theta"),
        ('{"version": 1, "n": 2, "m": 1, "atoms": [{"p": [0, 0], "w": [1]}, {"p": [0], "w": [1]}]}',
         r"atoms\[1\]\.p"),
        ('[1, 2]', "top level must be an object"),
        ('{"version": 1, "n": 2', "cannot read input file"),
        # bool is an int subclass and true == 1: each boolean header field is rejected
        ('{"version": true, "n": true, "m": true, "atoms": [{"p": [0], "w": [1]}]}', r"json:version: "),
        ('{"version": 1, "n": true, "m": 1, "atoms": [{"p": [0], "w": [1]}]}', r"json:n: "),
        ('{"version": 1, "n": 1, "m": true, "atoms": [{"p": [0], "w": [1]}]}', r"json:m: "),
        # an integer beyond the float range, and one longer than Python parses by default
        ('{"version": 1, "n": 2, "m": 1, "atoms": [{"p": [0, 1' + "0" * 400 + '], "w": [1]}]}',
         r"atoms\[0\]\.p\[1\]: number out of range"),
        ('{"version": 1, "n": 1, "m": 1, "atoms": [{"p": [1' + "0" * 5000 + '], "w": [1]}]}',
         "cannot read input file"),
    ], ids=["network", "measure", "not-an-object", "malformed-json", "bool-version", "bool-n", "bool-m",
            "huge-integer", "over-long-integer"])
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
        assert rec["homog_bound"] == 0.0 and rec["homog_bound_kind"] == "none"
        assert main(["validate-cost", "--cost", "sum_alpha:alpha=1", "--m", "2", "--samples", "50"]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["axis_derivatives"] == [1.0, 1.0] and rec["rectifiability_flag"] is False

    def test_validate_cost_samples_the_derivative_with_its_seed(self, capsys):
        bounds = []
        for seed in ("1", "2"):
            assert main(["validate-cost", "--cost", "sum_alpha:alpha=1", "--m", "2",
                         "--samples", "40", "--seed", seed]) == EXIT_OK
            rec = json.loads(capsys.readouterr().out)
            assert rec["homog_bound_kind"] == "sampled" and 1.0 <= rec["homog_bound"] <= 2.0**0.5
            bounds.append(rec["homog_bound"])
        assert bounds[0] != bounds[1]

    def test_validate_cost_rejects_samples_below_one(self, capsys):
        for samples in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main(["validate-cost", "--cost", "sum_alpha:alpha=1", "--m", "2", "--samples", samples])
            assert exc.value.code == 2
            assert f"--samples: must be a positive integer, got {samples}" in capsys.readouterr().err
        assert main(["validate-cost", "--cost", "sum_alpha:alpha=1", "--m", "2", "--samples", "1"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["homog_bound_kind"] == "sampled"

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

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

    def test_slice_gradient_of_the_wrong_length(self, instance, capsys):
        pm, pp, d = instance
        out = d / "net.json"
        main(["optimize", str(pm), str(pp), "--cost", "sum_alpha:alpha=0.5", "--out", str(out)])
        capsys.readouterr()
        for gradient in ("0,1,0", "1"):
            assert main(["slice", str(out), "--gradient", gradient, "--level", "0.5"]) == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert f"validation error: gradient of length {gradient.count(',') + 1} for a network in n = 2" in err

    def test_single_weight(self, tmp_path, capsys):
        for m, code in ((1, EXIT_OK), (2, EXIT_VALIDATION)):
            files = []
            for name, x in (("mm", 0.0), ("mp", 3.0)):
                files.append(tmp_path / f"{name}{m}.json")
                files[-1].write_text(json.dumps({"version": 1, "n": 2, "m": m,
                                                 "atoms": [{"p": [x, 0.0], "w": [1.0] * m}]}))
            out = tmp_path / f"net{m}.json"
            assert main(["optimize", *map(str, files), "--cost", "sum_alpha:alpha=0.5;weights=2",
                         "--out", str(out)]) == code
            captured = capsys.readouterr()
            if code == EXIT_OK:
                rec = json.loads(captured.out)
                assert rec["energy"] == energy(canonicalize(load_network(out)), sum_alpha(1, 0.5, [2.0]))
                assert rec["energy"] == pytest.approx(3 * math.sqrt(2))
            else:
                assert "validation error" in captured.err

    def test_cascade_rejects_negative_depth(self, instance, capsys):
        pm, pp, _ = instance
        assert main(["cascade", str(pm), str(pp), "--depth", "-2"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "validation error: depth K=-2 outside [0, 7]\n"

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

    def test_ig_check_fails_at_a_tight_tolerance(self, instance, capsys):
        pm, pp, d = instance
        out = d / "net.json"
        main(["optimize", str(pm), str(pp), "--cost", "sum_alpha:alpha=0.5", "--out", str(out)])
        capsys.readouterr()
        assert main(["ig-check", str(out), "--cost", "sum_alpha:alpha=0.5", "--samples", "1000",
                     "--tol", "1e-12"]) == EXIT_INVARIANT
        out, err = capsys.readouterr()
        assert json.loads(out)["rel_err"] > 1e-12
        assert err.startswith("invariant violation: integral-geometric mismatch: rel_err ")

    @pytest.mark.parametrize("command", ["cone", "cascade"])
    def test_saved_network_has_the_reported_energy(self, instance, capsys, command):
        pm, pp, d = instance
        out = d / f"{command}.json"
        assert main([command, str(pm), str(pp), "--cost", "sum_alpha:alpha=0.75", "--out", str(out)]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        T = canonicalize(load_network(out))
        assert rec["edges"] == len(T.A) > 0
        assert rec["energy"] == energy(T, sum_alpha(1, 0.75))

    @pytest.mark.parametrize("cost, message", [
        ("sum_alpha:alpha", "malformed cost parameter 'alpha'"),
        ("sum_alpha:alpha=half", "could not convert"),
        ("sum_alpha:alpha=0.5,0.6", "sum_alpha parameter 'alpha' takes one number"),
        ("p_norm_alpha:p=2,3;alpha=0.5", "p_norm_alpha parameter 'p' takes one number"),
        ("sum_alpha", "sum_alpha needs parameter 'alpha'"),
        ("sum_alpha:alpha=0.5;weight=1,4", "sum_alpha has no parameter 'weight'"),
    ], ids=["no-value", "not-a-number", "list-for-a-number", "list-for-p", "missing", "unknown"])
    def test_malformed_cost_parameter_is_a_validation_error(self, instance, capsys, cost, message):
        pm, _, _ = instance
        assert main(["cone", str(pm), str(pm), "--cost", cost]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("validation error: ") and message in captured.err

    def test_cone_refuses_incompatible_measures(self, instance, capsys):
        pm, _, d = instance
        heavy = d / "heavy.json"
        heavy.write_text(json.dumps({"version": 1, "n": 2, "m": 1, "atoms": [{"p": [0.0, 2.0], "w": [3.0]}]}))
        assert main(["cone", str(pm), str(heavy)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and "incompatible measures" in captured.err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_ig_check_needs_a_sample(self, instance, capsys, samples):
        pm, pp, d = instance
        out = d / "net.json"
        main(["optimize", str(pm), str(pp), "--cost", "sum_alpha:alpha=0.5", "--out", str(out)])
        capsys.readouterr()
        assert main(["ig-check", str(out), "--cost", "sum_alpha:alpha=0.5",
                     "--samples", samples]) == EXIT_VALIDATION
        assert capsys.readouterr().out == ""

    def test_seed_only_on_commands_that_read_it(self, instance, capsys):
        pm, pp, d = instance
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(d / "net.json"), str(pm), str(pp), "--cost", "sum_alpha:alpha=0.5", "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        for argv in (["validate-cost", "--cost", "c", "--m", "1"], ["cascade", "mm", "mp"],
                     ["optimize", "mm", "mp", "--cost", "c"], ["ig-check", "net", "--cost", "c"],
                     ["w-sweep", "target", "--cost", "c"]):
            assert build_parser().parse_args(argv + ["--seed", "1"]).seed == 1
        for argv in (["cone", "mm", "mp"], ["energy", "net", "--cost", "c"], ["flat-bound", "nu"],
                     ["slice", "net", "--gradient", "0,1", "--level", "0"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + ["--seed", "1"])

    def test_seed_reproducible(self, instance, capsys):
        pm, pp, _ = instance
        main(["optimize", str(pm), str(pp), "--cost", "sum_alpha:alpha=0.75", "--seed", "5"])
        a = capsys.readouterr().out
        main(["optimize", str(pm), str(pp), "--cost", "sum_alpha:alpha=0.75", "--seed", "5"])
        b = capsys.readouterr().out
        assert a == b
