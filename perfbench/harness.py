"""Pure helpers shared by the benchmark: statistics, the open-loop
schedule, name validation and the machine fingerprint.

Nothing here talks to the program under test, so every function is
unit-tested in ``perfbench/tests``.
"""

import hashlib
import os
import platform
import re
import statistics
import subprocess

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# A tail value must have at least this many samples beyond it.
TAIL_BEYOND = 10


def valid_name(name):
    """Metric and workload names: a letter or digit, then up to 63 of
    letters, digits, `_`, `.` and `-`."""
    return isinstance(name, str) and NAME_RE.match(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.match(unit) is not None


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def iqr_share(values):
    """Distance between the first and third quartile as a share of the
    median, the spread rule the benchmark is accepted on."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile that still has `beyond` samples above it.

    Returns ``(value, percentile, count)`` where `value` is the order
    statistic with exactly `beyond` larger samples, `percentile` is its
    rank as a percentage and `count` the sample count; ``None`` when fewer
    than ``beyond + 1`` samples exist.
    """
    n = len(values)
    if n < beyond + 1:
        return None
    ordered = sorted(values)
    k = n - beyond - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def open_loop_schedule(start, rate_per_s, count):
    """Due times of `count` sends at a fixed rate, the first at `start`."""
    if rate_per_s <= 0:
        raise ValueError("rate must be positive")
    return [start + i / rate_per_s for i in range(count)]


class LagTracker:
    """Accounts for how late an open-loop generator ran: every send
    records its due time and the time it actually went out. Latencies
    are measured from the due time, so a stall in the generator or the
    system shows up in every request it delayed."""

    def __init__(self):
        self.lags = []

    def sent(self, due, actual):
        self.lags.append(max(0.0, actual - due))

    def median_ms(self):
        return 1e3 * median(self.lags) if self.lags else 0.0

    def max_ms(self):
        return 1e3 * max(self.lags) if self.lags else 0.0


def clamp_threads(requested, nproc):
    """Never ask for more workers than the machine has cores."""
    return max(1, min(int(requested), int(nproc)))


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest(root):
    """A commit stand-in that also works in an export without `.git`:
    a digest of the workspace manifests and every crate source file."""
    h = hashlib.sha256()
    paths = [os.path.join(root, "Cargo.toml"), os.path.join(root, "Cargo.lock")]
    crates = os.path.join(root, "crates")
    for dirpath, dirnames, filenames in os.walk(crates):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".rs", ".toml")):
                paths.append(os.path.join(dirpath, name))
    for path in paths:
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError:
            continue
        h.update(os.path.relpath(path, root).encode())
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()[:16]


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None  # an export: never report an enclosing repository's commit
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def fingerprint(root, threads):
    """What a result was measured on. `threads` maps each thread knob to
    the count actually used after clamping."""
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "rustc": rustc_version(),
        "commit": git_commit(root) or "source:" + source_digest(root),
        "threads": dict(threads),
    }


# Fingerprint keys that may differ between two results being compared:
# the commit is what a comparison is about.
COMPARABLE_EXCEPT = ("commit",)


def fingerprint_mismatch(a, b):
    """The fingerprint keys on which two results differ (besides the
    commit). A non-empty list means the results must not be compared."""
    keys = sorted(set(a) | set(b))
    return [k for k in keys if k not in COMPARABLE_EXCEPT and a.get(k) != b.get(k)]
