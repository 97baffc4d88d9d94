"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import struct
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import compare  # noqa: E402
import harness  # noqa: E402
import wire  # noqa: E402


class TailRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(harness.tail(list(range(10))))
        value, pct, n = harness.tail(list(range(11)))
        self.assertEqual((value, n), (0, 11))
        self.assertAlmostEqual(pct, 100 / 11)

    def test_exactly_ten_beyond(self):
        xs = list(range(1, 201))          # 1..200, shuffled order must not matter
        xs.reverse()
        value, pct, n = harness.tail(xs)
        self.assertEqual(value, 190)
        self.assertEqual(sum(1 for x in xs if x > value), 10)
        self.assertAlmostEqual(pct, 95.0)
        self.assertEqual(n, 200)

    def test_ties_count_as_beyond_only_when_larger(self):
        value, _, _ = harness.tail([5.0] * 30)
        self.assertEqual(value, 5.0)


class OpenLoop(unittest.TestCase):
    def test_schedule_is_fixed_rate(self):
        due = harness.open_loop_schedule(10.0, 4.0, 5)
        self.assertEqual(due, [10.0, 10.25, 10.5, 10.75, 11.0])

    def test_schedule_rejects_bad_rate(self):
        with self.assertRaises(ValueError):
            harness.open_loop_schedule(0.0, 0.0, 3)

    def test_lag_is_measured_from_due_time(self):
        lag = harness.LagTracker()
        lag.sent(1.000, 1.000)
        lag.sent(1.010, 1.030)            # 20 ms late
        lag.sent(1.020, 1.015)            # early sends count as on time
        self.assertAlmostEqual(lag.max_ms(), 20.0)
        self.assertAlmostEqual(lag.median_ms(), 0.0)

    def test_no_sends_no_lag(self):
        self.assertEqual(harness.LagTracker().max_ms(), 0.0)


class Names(unittest.TestCase):
    def test_valid(self):
        for name in ("setup_s", "batch-asc", "exec.unbiased_draws_busy_ms", "9lives", "a" * 64):
            self.assertTrue(harness.valid_name(name), name)

    def test_invalid(self):
        for name in ("", "_x", ".x", "-x", "a b", "a/b", "é", "a" * 65, None, 3):
            self.assertFalse(harness.valid_name(name), name)

    def test_units(self):
        for unit in ("ms", "s", "1/s", "%", "count", "MB"):
            self.assertTrue(harness.valid_unit(unit))
        for unit in ("", "m s", "x" * 17):
            self.assertFalse(harness.valid_unit(unit))

    def test_benchmark_file_names(self):
        with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(harness.valid_name(name), name)
        for m in spec["end_to_end"]:
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])


class Threads(unittest.TestCase):
    def test_clamped_to_cores(self):
        self.assertEqual(harness.clamp_threads(4, 2), 2)
        self.assertEqual(harness.clamp_threads(1, 8), 1)
        self.assertEqual(harness.clamp_threads(0, 8), 1)


class Fingerprints(unittest.TestCase):
    def fp(self, **kw):
        base = {"nproc": 2, "cpu_model": "x", "rustc": "1.75", "commit": "a",
                "threads": {"analyze": 2}}
        base.update(kw)
        return base

    def test_commit_may_differ(self):
        self.assertEqual(harness.fingerprint_mismatch(self.fp(), self.fp(commit="b")), [])

    def test_machine_must_match(self):
        self.assertEqual(harness.fingerprint_mismatch(self.fp(), self.fp(nproc=4)), ["nproc"])
        self.assertEqual(harness.fingerprint_mismatch(self.fp(), self.fp(threads={"analyze": 1})),
                         ["threads"])

    def test_compare_refuses_mismatch(self):
        a = {"workload": "w", "fingerprint": self.fp(), "metrics": {}}
        b = {"workload": "w", "fingerprint": self.fp(rustc="1.80"), "metrics": {}}
        with self.assertRaises(compare.Incomparable):
            compare.compare([a], [b])

    def test_compare_medians_and_spread(self):
        def res(v):
            return {"workload": "w", "fingerprint": self.fp(),
                    "metrics": {"m": {"value": v, "unit": "ms"}}}
        rows = compare.compare([res(9.0), res(10.0), res(11.0)], [res(5.0)])
        self.assertEqual(rows[0][:5], ("w", "m", 10.0, 5.0, "ms"))
        self.assertAlmostEqual(rows[0][5], harness.iqr_share([9.0, 10.0, 11.0]))
        self.assertIsNone(rows[0][6])


class Spread(unittest.TestCase):
    def test_iqr_share(self):
        self.assertAlmostEqual(harness.iqr_share([10.0] * 10), 0.0)
        xs = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, q2, q3 = __import__("statistics").quantiles(xs, n=4)
        self.assertAlmostEqual(harness.iqr_share(xs), (q3 - q1) / q2)


class Wire(unittest.TestCase):
    def test_record_layout(self):
        row = wire.encode_csv_row("5222,Search,111.72891956503048,422,Consumer,-3600000,Error")
        self.assertEqual(len(row), wire.RECORD_BYTES)
        self.assertEqual(wire.RECORD_BYTES, 35)
        t, a, lat, user, cls, tz, out = struct.unpack("<qBdQBqB", row)
        self.assertEqual((t, a, user, cls, tz, out), (5222, 2, 422, 1, -3600000, 1))
        self.assertEqual(lat, 111.72891956503048)

    def test_batch_frame(self):
        rows = [wire.encode_csv_row("1,SelectMail,2.5,3,Business,0,Success")] * 2
        f = wire.batch("svc", "eu", rows)
        (n,) = struct.unpack_from("<I", f)
        self.assertEqual(n, len(f) - 4)
        self.assertEqual(f[4], wire.T_BATCH)
        self.assertEqual(f[5:10], b"\x03\x00svc")
        self.assertEqual(struct.unpack_from("<I", f, 14)[0], 2)

    def test_frame_reader_splits_and_joins(self):
        ack = wire.frame(struct.pack("<BQ", wire.T_ACK, 7))
        err = wire.frame(struct.pack("<BH", wire.T_ERROR, 4) + b"nope")
        r = wire.FrameReader()
        self.assertEqual(r.feed(ack[:3]), [])
        self.assertEqual(r.feed(ack[3:] + err), [("ack", 7), ("error", "nope")])

    def test_http_response_parse(self):
        status, body = wire.parse_response(b"HTTP/1.1 404 Not Found\r\nX: y\r\n\r\n{}")
        self.assertEqual((status, body), (404, b"{}"))


if __name__ == "__main__":
    unittest.main()
