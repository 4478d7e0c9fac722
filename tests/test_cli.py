import os
import subprocess
import sys
from pathlib import Path

import pytest

import solvcover as sc
from solvcover.cli import main
from solvcover.records import (
    OutcomeRecord,
    ResultRecord,
    format_certificate_lines,
    parse_certificate_lines,
)

CERT_DIR = Path(__file__).resolve().parent.parent / "src" / "solvcover" / "data" / "certificates"


def run_cli(*args):
    return main(list(args))


def test_solve_psl27_both(tmp_path, capsys):
    out = tmp_path / "r.result"
    code = run_cli("solve", "--group", "psl2(7)", "--mode", "both", "--out", str(out))
    assert code == 0
    printed = capsys.readouterr().out
    assert "alpha = 5" in printed and "alpha_inv = inf" in printed
    rec = ResultRecord.from_text(out.read_text())
    assert rec.alpha.render_value() == "5"
    assert rec.alpha_inv.render_value() == "inf"


def test_solve_symmetric6(tmp_path):
    code = run_cli("solve", "--group", "symmetric(6)", "--mode", "all",
                   "--out", str(tmp_path / "s6.result"))
    assert code == 0
    rec = ResultRecord.from_text((tmp_path / "s6.result").read_text())
    assert rec.alpha.render_value() == "9"


def test_solve_product_order_without_enumeration(tmp_path):
    # 168 * 360 = 60480 is above the default enumeration cap
    out = tmp_path / "p.result"
    assert run_cli("solve", "--group", "product(psl2(7),psl2(9))", "--out", str(out)) == 0
    assert "order: 60480" in out.read_text()


@pytest.fixture
def recorded_builds(monkeypatch):
    """Spec texts of every group the CLI and the cover pipeline build."""
    from solvcover import cli, cover

    built = []

    def recording_build(spec, cap=sc.DEFAULT_CAP):
        built.append(str(spec))
        return sc.build(spec, cap)

    monkeypatch.setattr(cli, "build", recording_build)
    monkeypatch.setattr(cover, "build", recording_build)
    return built


def test_solve_wreath_builds_only_the_base(tmp_path, recorded_builds):
    out = tmp_path / "w.result"
    assert run_cli("solve", "--group", "wreath(psl2(4),2,cycle)", "--mode", "all", "--out", str(out)) == 0
    assert recorded_builds == ["psl2(4)"]
    assert "order: 7200" in out.read_text()


def test_solve_product_builds_each_factor_once(tmp_path, recorded_builds):
    out = tmp_path / "p.result"
    assert run_cli("solve", "--group", "product(psl2(7),psl2(9))", "--mode", "both", "--out", str(out)) == 0
    assert sorted(recorded_builds) == ["psl2(7)", "psl2(9)"]
    rec = ResultRecord.from_text(out.read_text())
    assert (rec.order, rec.alpha.render_value(), rec.alpha_inv.render_value()) == (60480, "5", "9")


def test_solve_solvable_group_errors(capsys):
    assert run_cli("solve", "--group", "symmetric(4)") == 1
    assert "GroupSolvable" in capsys.readouterr().err


def test_solve_interval_exit_code(tmp_path):
    code = run_cli("solve", "--group", "psl2(13)", "--node-limit", "1",
                   "--out", str(tmp_path / "i.result"))
    assert code == 2
    rec = ResultRecord.from_text((tmp_path / "i.result").read_text())
    assert rec.alpha.status == "interval"
    assert rec.alpha.lower <= 13 <= rec.alpha.upper


def test_verify_certificate_path(capsys):
    code = run_cli("verify", "--group", "alternating(5)",
                   "--certificate", str(CERT_DIR / "a5.cert"), "--mode", "involutions")
    assert code == 0
    assert "valid" in capsys.readouterr().out


def test_verify_fails_after_deletion(tmp_path, capsys):
    lines = (CERT_DIR / "a5.cert").read_text().splitlines()
    kept = [l for l in lines if l.strip() and not l.startswith("#")][:-1]
    broken = tmp_path / "broken.cert"
    broken.write_text("\n".join(kept) + "\n")
    code = run_cli("verify", "--group", "alternating(5)", "--certificate", str(broken))
    assert code == 1
    msg = capsys.readouterr().out
    assert "uncovered" in msg and "order 5" in msg


def test_verify_rejects_identity(tmp_path, capsys):
    bad = tmp_path / "id.cert"
    bad.write_text("()\n(1,5)(3,4)\n")
    code = run_cli("verify", "--group", "alternating(5)", "--certificate", str(bad))
    assert code == 1
    assert "ElementInRadical" in capsys.readouterr().err


def test_table_rendering(tmp_path, capsys):
    ResultRecord("alternating(5)", 60, OutcomeRecord("exact", 3, 3),
                 OutcomeRecord("exact", 3, 3)).to_text()
    (tmp_path / "a.result").write_text(ResultRecord(
        "alternating(5)", 60, OutcomeRecord("exact", 3, 3), OutcomeRecord("exact", 3, 3)).to_text())
    (tmp_path / "b.result").write_text(ResultRecord(
        "psl2(7)", 168, OutcomeRecord("exact", 5, 5), OutcomeRecord("infeasible", 0, None)).to_text())
    (tmp_path / "c.result").write_text(ResultRecord(
        "psl2(23)", 6072, OutcomeRecord("interval", 38, 41), None).to_text())
    assert run_cli("table", "--results", str(tmp_path)) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == ["Order", "Name", "alpha", "alpha_inv"]
    assert "[38,41]" in out and "∞" in out
    orders = [int(l.split()[0]) for l in lines[1:]]
    assert orders == sorted(orders)


def test_table_empty_dir(tmp_path, capsys):
    assert run_cli("table", "--results", str(tmp_path)) == 0


def test_table_tsv(tmp_path, capsys):
    (tmp_path / "a.result").write_text(ResultRecord(
        "alternating(5)", 60, OutcomeRecord("exact", 3, 3), None).to_text())
    assert run_cli("table", "--results", str(tmp_path), "--tsv") == 0
    assert "alternating(5)\t3" in capsys.readouterr().out.replace("60\t", "")


def test_record_roundtrip():
    rec = ResultRecord("psl2(7)", 168,
                       OutcomeRecord("exact", 5, 5, nodes=33, seconds=0.01,
                                     certificate=["(1,2)(3,4)", "(1,2,3)"]),
                       OutcomeRecord("infeasible", 0, None),
                       reduction_log=["universe 57", "candidates 49"])
    back = ResultRecord.from_text(rec.to_text())
    assert back.to_text() == rec.to_text()


def test_records_stable_under_resolve(tmp_path):
    a = tmp_path / "one.result"
    b = tmp_path / "two.result"
    run_cli("solve", "--group", "psl2(7)", "--mode", "both",
            "--emit-certificate", "--out", str(a))
    run_cli("solve", "--group", "psl2(7)", "--mode", "both",
            "--emit-certificate", "--out", str(b))
    ra = ResultRecord.from_text(a.read_text())
    rb = ResultRecord.from_text(b.read_text())
    assert ra.stable_text() == rb.stable_text()


def test_certificate_lines_idempotent():
    text = "# a comment\n\n(1,2)(3,4)\n(1,2,3)\n"
    perms = parse_certificate_lines(text, degree=4)
    emitted = format_certificate_lines(perms)
    assert parse_certificate_lines(emitted, degree=4) == perms
    assert format_certificate_lines(parse_certificate_lines(emitted, degree=4)) == emitted


def test_cap_env_override(monkeypatch, capsys):
    monkeypatch.setenv("SOLVCOVER_CAP", "10")
    code = run_cli("solve", "--group", "psl2(7)")
    assert code == 1
    assert "CapExceeded" in capsys.readouterr().err


def test_cap_env_not_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("SOLVCOVER_CAP", "abc")
    assert run_cli("solve", "--group", "psl2(7)") == 1
    assert "error: BadParameter: SOLVCOVER_CAP" in capsys.readouterr().err


def test_verify_missing_certificate_file(tmp_path, capsys):
    missing = tmp_path / "none.cert"
    assert run_cli("verify", "--group", "alternating(5)", "--certificate", str(missing)) == 1
    assert "error: FileNotFoundError" in capsys.readouterr().err


def test_solve_out_in_missing_directory(tmp_path, capsys):
    out = tmp_path / "absent" / "a5.result"
    assert run_cli("solve", "--group", "alternating(5)", "--out", str(out)) == 1
    assert "error: FileNotFoundError" in capsys.readouterr().err


def test_console_script_installed():
    # the child imports the same package as this process, installed or not
    src = str(Path(sc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "solvcover.cli", "solve",
                           "--group", "alternating(5)"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "alpha = 3" in proc.stdout


@pytest.mark.parametrize("group", ["raw()", "wreath(psl2(4),0,cycle)"])
def test_solve_degenerate_spec_errors(group, capsys):
    assert run_cli("solve", "--group", group) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: BadParameter: ") and err.count("\n") == 1


def test_solve_nan_time_limit_errors(capsys):
    assert run_cli("solve", "--group", "alternating(5)", "--time-limit", "nan") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: BadParameter: ") and captured.err.count("\n") == 1


def test_table_missing_results_directory(tmp_path, capsys):
    assert run_cli("table", "--results", str(tmp_path / "absent")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: NotADirectoryError: ")


@pytest.mark.parametrize("line", ["order: abc", "alpha.lower: x", "alpha.upper: 3.5", "alpha.nodes: many",
                                  "alpha.seconds: fast"])
def test_table_non_numeric_record_field_errors(tmp_path, capsys, line):
    text = ResultRecord("alternating(5)", 60, OutcomeRecord("exact", 3, 3), None).to_text()
    key = line.partition(":")[0]
    lines = [line if l.startswith(key + ":") else l for l in text.splitlines()]
    assert line in lines
    (tmp_path / "a.result").write_text("\n".join(lines) + "\n")
    assert run_cli("table", "--results", str(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: BadParameter: ") and captured.err.count("\n") == 1
