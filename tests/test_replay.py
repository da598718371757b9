"""``tools/replay.py``, the byte-identity harness, on a cheap slice.

The same requests replayed twice, once in a fresh process and once in this
one, give the same digest; a different slice gives a different one, so the
digest reads the reports and not only their number.
"""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import replay  # noqa: E402


def test_replay_digest_is_the_same_in_two_runs():
    requests = replay.WORKLOADS["catalog"](0)
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "replay.py"), "--workload", "catalog", "--seed", "0"],
        capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout == (f"catalog  {len(requests)} requests  "
                           f"sha256 {replay.digest(requests)}\n")
    assert replay.digest(requests[:4]) != replay.digest(requests[4:8])


def test_replay_records_exit_status_and_stderr():
    request = replay.WORKLOADS["catalog"](0)[0]._replace(
        argv=("catalog", "--check", "bogus"))
    status, out, err = replay.replay(request)
    assert (status, out) == ("2", "")
    assert err.startswith("error: argument --check: invalid choice: 'bogus'")
