import json
import math
import re
import time

import numpy as np
import pytest

from bbcap import cli, fock, region
from bbcap.channel import BroadcastChannelSpec
from bbcap.region import UNCONSTRAINED, CapacityRegion, capacity_region
from oracles import render_verify_reference
from refusals import REFUSALS


@pytest.fixture(autouse=True)
def clean_precision_env(monkeypatch):
    monkeypatch.delenv("BBC_CAPACITY_PRECISION", raising=False)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, precision, status, line", REFUSALS.values(), ids=REFUSALS)
def test_documented_refusal_ends_as_one_line(capsys, monkeypatch, argv, precision, status, line):
    if precision is not None:
        monkeypatch.setenv("BBC_CAPACITY_PRECISION", precision)
    assert run_cli(capsys, *argv) == (status, "", line + "\n")


class TestRegionCommand:
    def test_unconstrained_region_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "region", "--etas", "0.2,0.3", "--ns", "inf", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["m"] == 2 and data["energy"] == "unconstrained"
        bounds = {tuple(c["subset"]): c["bound_bits"] for c in data["constraints"]}
        assert bounds[(1,)] == pytest.approx(math.log2(1.4), abs=1e-9)
        assert bounds[(2,)] == pytest.approx(math.log2(1.6), abs=1e-9)
        assert bounds[(1, 2)] == pytest.approx(1.0, abs=1e-12)

    def test_finite_energy_region(self, capsys):
        code, out, _ = run_cli(capsys, "region", "--etas", "0.2,0.3", "--ns", "1.0")
        data = json.loads(out)
        assert code == 0 and data["energy"] == 1.0
        bounds = {tuple(c["subset"]): c["bound_bits"] for c in data["constraints"]}
        assert bounds[(1,)] == pytest.approx(0.2841665387161574, abs=1e-9)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "region", "--etas", "0.2,0.3", "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "subset,bound_bits"
        assert lines[1].startswith("1,0.485426827")
        assert lines[3].startswith("1+2,1")

    def test_unbounded_region_flagged(self, capsys):
        code, out, _ = run_cli(capsys, "region", "--etas", "0.6,0.4")
        data = json.loads(out)
        assert code == 0
        assert all(c.get("unbounded") is True for c in data["constraints"])
        assert "inf" not in out.lower().replace("infinity", "inf")

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "region", "--etas", "0.2,0.3")
        _, second, _ = run_cli(capsys, "region", "--etas", "0.2,0.3")
        assert first == second

    def test_round_trip_membership(self, capsys, monkeypatch):
        # at precision 17 the JSON is the bound vector, bit for bit at every
        # mask, so membership survives exactly; an unbounded subset is a flag
        monkeypatch.setenv("BBC_CAPACITY_PRECISION", "17")
        for etas, ns in (((0.2, 0.3), 2.5), ((0.6, 0.0, 0.4), UNCONSTRAINED)):
            _, out, _ = run_cli(capsys, "region", "--etas", ",".join(map(str, etas)),
                                "--ns", "inf" if ns == UNCONSTRAINED else str(ns))
            f = capacity_region(BroadcastChannelSpec(etas), ns)._f
            masks = []
            for entry in json.loads(out)["constraints"]:
                masks.append(sum(1 << (i - 1) for i in entry["subset"]))
                if math.isinf(f[masks[-1]]):
                    assert entry == {"subset": entry["subset"], "unbounded": True}
                else:
                    assert type(entry["bound_bits"]) is float
                    assert entry["bound_bits"].hex() == f[masks[-1]].hex()
            assert sorted(masks) == list(range(1, f.size))

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "region", "--etas", "0.2,1.3")
        assert code == 1 and "transmittance" in err


class TestVerticesCommand:
    def test_pentagon_json(self, capsys):
        code, out, _ = run_cli(capsys, "vertices", "--etas", "0.2,0.3")
        data = json.loads(out)
        assert code == 0 and len(data["vertices"]) == 5
        assert [0.485426827, 0.514573173] in data["vertices"]

    def test_csv_header(self, capsys):
        _, out, _ = run_cli(capsys, "vertices", "--etas", "0.2,0.3", "--format", "csv")
        assert out.splitlines()[0] == "r1_bits,r2_bits"


class TestBoundaryCommand:
    def test_csv_through_corners(self, capsys):
        code, out, _ = run_cli(
            capsys, "boundary", "--etas", "0.2,0.3", "--points", "200", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r1_bits,r2_bits"
        assert len(lines) - 1 >= 200
        assert "0.485426827,0.514573173" in lines
        assert "0.321928095,0.678071905" in lines

    def test_point_count_beyond_cap_refused_at_once(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "boundary", "--etas", "0.2,0.3", "--points", str(10**9))
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and out == ""
        assert err.startswith("bbcap: error: ") and err.count("\n") == 1

    def test_line_endings_and_file_output(self, capsys, tmp_path):
        target = tmp_path / "boundary.csv"
        code, out, _ = run_cli(
            capsys, "boundary", "--etas", "0.2,0.3", "--points", "5",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        raw = target.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")

    def test_unwritable_output_is_an_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "region", "--etas", "0.2,0.3", "--output", str(target))
        assert code == 1 and out == "" and not target.exists()
        assert err.startswith(f"bbcap: error: cannot write {target}: ") and err.count("\n") == 1

    def test_write_error_without_errno_names_its_message(self, capsys, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise OSError("quota exceeded")

        monkeypatch.setattr(cli, "open", refuse, raising=False)
        target = tmp_path / "x.json"
        code, out, err = run_cli(capsys, "region", "--etas", "0.2,0.3", "--output", str(target))
        assert (code, out) == (1, "")
        assert err == f"bbcap: error: cannot write {target}: quota exceeded\n"

    def test_stdout_failure_is_not_a_file_error(self, capsys, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli.sys, "stdout", ClosedPipe())
        with pytest.raises(BrokenPipeError):
            cli.main(["region", "--etas", "0.2,0.3"])
        assert "cannot write" not in capsys.readouterr().err

    def test_weightless_receivers_give_the_origin(self, capsys):
        code, out, _ = run_cli(capsys, "boundary", "--etas", "0,0", "--points", "3")
        assert (code, out) == (0, "r1_bits,r2_bits\n0,0\n0,0\n0,0\n")

    def test_wrong_m_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "boundary", "--etas", "0.5")
        assert code == 1 and "m = 2" in err


class TestConvergenceCommand:
    def test_gaps_shrink(self, capsys):
        code, out, _ = run_cli(
            capsys, "convergence", "--etas", "0.2,0.3",
            "--ns-grid", "1,10,100,10000", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        by_subset = {}
        for row in rows:
            by_subset.setdefault(tuple(row["subset"]), []).append(row["gap_bits"])
        for gaps in by_subset.values():
            assert all(g > 0 for g in gaps)
            assert all(b < a for a, b in zip(gaps, gaps[1:]))
        final = {tuple(r["subset"]): r["gap_bits"] for r in rows if r["ns"] == 10000}
        assert max(final.values()) < 1e-3

    def test_zero_energy_row(self, capsys):
        _, out, _ = run_cli(
            capsys, "convergence", "--etas", "0.2,0.3", "--ns-grid", "0", "--format", "csv"
        )
        for line in out.splitlines()[1:]:
            assert line.split(",")[2] == "0"

    @pytest.mark.parametrize("etas, grid, message", [
        ("0.6,0.4", "1", "unbounded when the receivers take everything"),
        ("0.2,0.3", "1,-1", "finite and nonnegative, got -1.0"),
        ("0.2,0.3", "nan", "finite and nonnegative, got nan"),
        ("0.2,0.3", "2,inf", "finite and nonnegative, got inf"),
    ])
    def test_refused_before_any_row(self, capsys, etas, grid, message):
        code, out, err = run_cli(capsys, "convergence", "--etas", etas, "--ns-grid", grid)
        assert code == 1 and out == "" and message in err


    @pytest.mark.parametrize("etas, grid, limit_entry, message", [
        # the spec, before anything else
        ("0.2,1.1", "-1", None, "transmittance 1.1 outside [0, 1]"),
        # a failing limit row, before a bad grid energy and a failing grid row
        ("0.2,0.1", "1e-12,-1", (0b11, 5.0), "bound not submodular in receivers 1 and 2"),
        ("0.2,0.1", "1e-12,-1", (0b10, -1.0), "rate bounds must be nonnegative numbers, never NaN"),
        # ... and before its unbounded flag
        ("0.6,0.4", "-1", (0b10, -1.0), "rate bounds must be nonnegative numbers, never NaN"),
        # the unbounded limit, before a bad grid energy and a failing grid row
        ("0.6,0.4", "1,-1", None, "unconstrained bounds are unbounded when the receivers take everything"),
        ("0.6,0.4", "1e-12", None, "unconstrained bounds are unbounded when the receivers take everything"),
        # a bad grid energy, before a failing grid row ahead of it
        ("0.2,0.1", "1e-12,-1", None, "input photon number must be finite and nonnegative, got -1.0"),
        # the first failing energy
        ("0.2,0.1", "1,1e-12", None, "bound not submodular in receivers 1 and 2"),
    ])
    def test_refusals_in_order(self, capsys, monkeypatch, etas, grid, limit_entry, message):
        spec = BroadcastChannelSpec(tuple(map(float, etas.split(",")))) if "1.1" not in etas else None
        if "1e-12" in grid:  # g's floor makes that row fail on its own (ROADMAP item 1)
            with pytest.raises(ValueError, match="submodular"):
                capacity_region(spec, 1e-12)
        if limit_entry:  # the limit row alone is made to fail, by one entry
            bounds, (mask, value) = region._bounds, limit_entry
            broken_limit = capacity_region(spec)._f.copy()
            broken_limit[mask] = value
            with pytest.raises(ValueError, match=re.escape(message)):
                CapacityRegion(spec.m, UNCONSTRAINED, broken_limit)

            def broken(energy, *args):
                f = bounds(energy, *args)
                return broken_limit if energy == UNCONSTRAINED else f

            monkeypatch.setattr(region, "_bounds", broken)
        code, out, err = run_cli(capsys, "convergence", "--etas", etas, "--ns-grid", grid)
        assert (code, out, err) == (1, "", f"bbcap: error: {message}\n")


class TestVerifyCommand:
    def test_all_pass_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--etas", "0.2,0.3", "--ns", "0.5", "--cutoff", "25"
        )
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert data["max_abs_dev"] < 1e-6
        assert len(data["cases"]) == 4  # three subsets + purity
        assert len(data["schmidt"]) == 2
        assert all(s["pass"] for s in data["schmidt"])

    def test_insufficient_cutoff_is_inconclusive(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--etas", "0.2,0.3", "--ns", "0.5", "--cutoff", "10"
        )
        assert code == 2 and "inconclusive" in err

    def test_high_energy_is_inconclusive(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--etas", "0.2,0.3", "--ns", "3")
        assert code == 2 and "inconclusive" in err

    def test_out_of_memory_is_inconclusive(self, capsys, monkeypatch):
        def too_big(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.87 GiB")

        monkeypatch.setattr(fock, "verify_conditional_entropies", too_big)
        code, out, err = run_cli(capsys, "verify", "--etas", "0.2,0.3,0.1", "--ns", "2")
        assert code == 2 and out == ""
        assert err == "bbcap: inconclusive: out of memory: Unable to allocate 7.87 GiB\n"

    def test_dense_budget_is_inconclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(fock, "MAX_DENSE_BYTES", 1000)
        monkeypatch.setattr(fock, "_sector_runs", None)  # refused before any sector is built
        code, out, err = run_cli(capsys, "verify", "--etas", "0.2,0.3", "--ns", "0.5")
        assert code == 2 and out == ""
        # one run of all 1771 entries at 384 bytes, and 21 × 4 keep-set weights at 8
        assert err == ("bbcap: inconclusive: the largest run of sectors at cutoff 20 holds "
                       "1771 entries: 680736 bytes, above the budget of 1000 bytes\n")

    def test_work_budget_is_inconclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(fock, "_sector_runs", None)  # refused before any sector is built
        code, out, err = run_cli(capsys, "verify", "--etas", "0.1,0.1,0.1,0.1,0.1", "--ns", "1.5")
        assert code == 2 and out == ""
        assert err == ("bbcap: inconclusive: the 32 keep sets at cutoff 45 take 576302720 "
                       "entry passes, above the budget of 132158208\n")

    @pytest.mark.parametrize("ns", ["5", "0.5"])
    def test_bad_ordering_is_refused_before_any_budget(self, capsys, ns):
        # at N_S = 5 the cutoff budget would refuse the run; the ordering comes first
        code, out, err = run_cli(capsys, "verify", "--etas", "0.2,0.3", "--ns", ns,
                                 "--ordering", "B1,B1,E")
        assert code == 1 and out == ""
        assert err == ("bbcap: error: ('B1', 'B1', 'E') is not a permutation of "
                       "('B1', 'B2', 'E')\n")

    def test_four_receivers_at_two_photons_passes(self, capsys):
        # m = 4 at N_S = 2: cutoff 56, C(61, 5) = 5949147 entries, streamed in runs
        code, out, err = run_cli(capsys, "verify", "--etas", "0.1,0.2,0.15,0.25", "--ns", "2")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["pass"] is True and data["cutoff"] == 56 and len(data["cases"]) == 16

    def test_zero_energy_prints_no_negative_zero(self, capsys):
        # -0 is a zero energy: every command prints the checked energy, +0
        def positive_zero(x):
            return x == 0.0 and math.copysign(1.0, x) == 1.0

        for ns in ("0", "-0"):
            for command, etas in (("region", "0.4,0.2"), ("vertices", "0.4,0.2")):
                code, out, _ = run_cli(capsys, command, "--etas", etas, f"--ns={ns}")
                assert code == 0 and "-0" not in out, (command, ns)
                assert positive_zero(json.loads(out)["energy"]), (command, ns)
            code, out, _ = run_cli(capsys, "verify", "--etas", "0.4", f"--ns={ns}")
            assert code == 0 and "-0.0" not in out, ns
            record = json.loads(out)
            assert record["cases"][0]["gaussian_bits"] == 0.0
            assert positive_zero(record["ns"]) and positive_zero(record["schmidt"][0]["ns"]), ns
            code, out, _ = run_cli(capsys, "convergence", "--etas", "0.2,0.3", f"--ns-grid={ns}",
                                   "--format", "csv")
            rows = out.splitlines()[1:]
            assert code == 0 and len(rows) == 3 and all(r.startswith("0,") for r in rows), ns

    def test_explicit_ordering(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--etas", "0.2,0.3", "--ns", "0.2",
            "--ordering", "E,B2,B1",
        )
        assert code == 0 and json.loads(out)["pass"] is True

    def test_infinite_energy_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--etas", "0.2,0.3", "--ns", "inf")
        assert code == 1 and "finite" in err

    def test_nan_value_prints_as_json(self, capsys, monkeypatch):
        # one NaN amplitude makes every Fock entropy NaN; the record must still
        # parse, and the failed check exits 3
        _nan_amplitude(monkeypatch)
        with np.errstate(invalid="ignore"):
            code, out, _ = run_cli(capsys, "verify", "--etas", "0.2,0.3", "--ns", "0.5")
            record = fock.verify_conditional_entropies(BroadcastChannelSpec((0.2, 0.3)), 0.5)
        assert code == 3 and '"fock_bits": NaN' in out
        assert json.loads(out)["pass"] is False
        assert out == render_verify_reference(record, "json", cli.DEFAULT_PRECISION)

    def test_failed_check_exits_3_after_its_record(self, capsys, monkeypatch, tmp_path):
        _nan_amplitude(monkeypatch)
        target, argv = tmp_path / "verify.csv", ["verify", "--etas", "0.2,0.3", "--ns", "0.5"]
        with np.errstate(invalid="ignore"):
            code, out, err = run_cli(capsys, *argv, "--format", "csv", "--output", str(target))
            assert (code, out, err) == (3, "", "") and target.read_text().endswith(",false\n")
            # a record that cannot be written is an error, as for every command
            code, _, err = run_cli(capsys, *argv, "--output", str(tmp_path / "missing" / "x"))
        assert code == 1 and "cannot write" in err

    def test_csv_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--etas", "0.2,0.3", "--ns", "0.2", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "case,gaussian_bits,fock_bits,closed_form_bits,abs_dev,tail_mass,pass"
        assert len(lines) == 5
        assert all(line.endswith(",true") for line in lines[1:])


class TestUsageAndPrecision:
    def test_unknown_flag_named(self, capsys):
        code, _, err = run_cli(capsys, "region", "--etas", "0.2,0.3", "--bogus")
        assert code == 1 and "--bogus" in err

    def test_malformed_etas_named(self, capsys):
        code, _, err = run_cli(capsys, "region", "--etas", "a,b")
        assert code == 1 and "--etas" in err

    def test_malformed_ns(self, capsys):
        code, _, err = run_cli(capsys, "region", "--etas", "0.2,0.3", "--ns", "-3")
        assert code == 1 and "--ns" in err

    def test_precision_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("BBC_CAPACITY_PRECISION", "3")
        _, out, _ = run_cli(capsys, "region", "--etas", "0.2,0.3", "--format", "csv")
        assert "1,0.485\n" in out

    def test_bad_precision_env_var(self, capsys, monkeypatch):
        # read when the run starts, and refused as a usage error like any option
        for raw, rule in (("fifty", "an integer, got 'fifty'"), ("0", "in 1..17, got 0"),
                          ("18", "in 1..17, got 18")):
            monkeypatch.setenv("BBC_CAPACITY_PRECISION", raw)
            assert run_cli(capsys, "region", "--etas", "0.2,0.3") == (
                1, "", f"bbcap: usage error: BBC_CAPACITY_PRECISION must be {rule}\n")


def _nan_amplitude(monkeypatch):
    """Route verification through runs with one amplitude set to NaN."""
    runs = fock._sector_runs

    def tampered(*args):
        for occ, amps in runs(*args):
            yield occ, np.where((occ == (3, 1, 0, 2)).all(axis=1), math.nan, amps)

    monkeypatch.setattr(fock, "_sector_runs", tampered)
