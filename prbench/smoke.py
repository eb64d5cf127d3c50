"""Smoke test of the benchmark: one-second runs of every workload, untraced
and traced. Asserts that every metric BENCHMARK.json names prints with its
unit (in a `metric` line and in the result JSON), that every correctness
check ran and passed, that every stress claim held, that the traced runs
print their span totals, and that the result line has the agreed shape.

Run from the repository root:  python3 prbench/smoke.py
"""

import json
import subprocess
import sys

CHECKS = ["oracle", "answered", "recovered-history", "recovered", "access-sets",
          "serializable", "final-state"]


SPANS = ["wire.encode_request", "wire.decode_request", "wire.encode_reply",
         "wire.decode_reply", "session.execute", "journal.log_batch", "session.snapshot",
         "session.quiescent", "session.fixed", "recover.replay", "session.resume"]


def run(workload, trace):
    out = subprocess.run(
        ["bash", "prbench/run.sh", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}"
    return out.stdout.splitlines()


def check_output(lines, expected):
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
    assert result["correct"] is True, "a correctness check failed"
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    assert list(result["metrics"]) == [m["name"] for m in expected], list(result["metrics"])
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
        assert any(l.startswith(f"metric {m['name']} ") and l.endswith(f" {m['unit']}")
                   for l in lines), f"no metric line for {m['name']}"
    for name in CHECKS:
        ran = [l for l in lines if l.startswith(f"check {name}: ")]
        assert ran, f"check {name} did not run"
        assert all(": ok" in l or ": skipped" in l for l in ran), ran
    assert not any("FAILED" in l for l in lines)
    stress = [l for l in lines if l.startswith("stress ")]
    assert stress, "no stress line"
    assert all(l.endswith(": ok") for l in stress), stress


def main():
    spec = json.load(open("BENCHMARK.json"))
    for w in spec["workloads"]:
        check_output(run(w["name"], 0), spec["end_to_end"])
        lines = run(w["name"], 1)
        check_output(lines, spec["per_layer"])
        spans = [l.split() for l in lines if l.startswith("span ")]
        assert sorted(s[1] for s in spans) == sorted(SPANS), spans
        for s in spans:
            assert s[2] == "count" and int(s[3]) >= 1 and s[4] == "total_ms", s
            assert float(s[5]) > 0, s
        print(f"ok {w['name']}", flush=True)
    print("smoke test passed")


if __name__ == "__main__":
    sys.exit(main())
